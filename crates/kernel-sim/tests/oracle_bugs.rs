//! Evidence that the six sync-oracle bugs (#18–#23) are real: each must be
//! reported by its *intended* oracle under some interleaving of its two
//! test programs, and never in the patched build under the same schedules.

use sb_detect::{detect_missed_wakeups, detect_sleep_in_atomic, Finding, RuleMiner};
use sb_kernel::{boot, bugs, BootedKernel, KernelConfig, Program, Syscall};
use sb_vmm::exec::ExecReport;
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

/// Runs `a` and `b` concurrently under random schedules with seeds
/// `0..attempts`, returning every execution report.
fn run_reports(booted: &BootedKernel, a: &Program, b: &Program, attempts: u64) -> Vec<ExecReport> {
    let mut exec = Executor::new(2);
    let mut out = Vec::new();
    for seed in 0..attempts {
        let mut sched = RandomSched::new(seed, 0.25);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(a.clone()),
                booted.kernel.process_job(b.clone()),
            ],
            &mut sched,
        );
        out.push(r.report);
    }
    out
}

fn futex_waiter() -> Program {
    Program::new(vec![Syscall::FutexWait { slot: 0 }])
}

fn futex_waker() -> Program {
    Program::new(vec![Syscall::FutexWake { slot: 0 }])
}

#[test]
fn bug18_futex_missed_wakeup_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let reports = run_reports(&booted, &futex_waiter(), &futex_waker(), 256);
    let findings: Vec<Finding> = reports
        .iter()
        .flat_map(|r| detect_missed_wakeups(&r.sync_events))
        .collect();
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::MissedWakeup { wake_site, sleep_site, .. }
                if bugs::match_wakeup(wake_site, sleep_site) == Some(18)
        )),
        "bug #18 should be reported by the wakeup oracle: {findings:?}"
    );
}

#[test]
fn bug18_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let reports = run_reports(&booted, &futex_waiter(), &futex_waker(), 256);
    for r in &reports {
        assert!(
            detect_missed_wakeups(&r.sync_events).is_empty(),
            "patched futex must not lose wakeups"
        );
    }
}

fn epoll_add() -> Program {
    Program::new(vec![Syscall::EpollAdd { slot: 0 }])
}

fn epoll_wake() -> Program {
    Program::new(vec![Syscall::EpollWake { slot: 0 }])
}

#[test]
fn bug19_epoll_lock_inversion_is_mined() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &epoll_add(), &epoll_wake(), 16) {
        miner.observe(&r);
    }
    let inversions: Vec<Finding> = miner
        .violations()
        .into_iter()
        .filter(|f| matches!(f, Finding::LockOrderInversion { .. }))
        .collect();
    assert!(
        inversions.iter().any(|f| matches!(
            f,
            Finding::LockOrderInversion { first, second }
                if bugs::match_lockorder(first, second) == Some(19)
        )),
        "bug #19 should be mined as a lock-order inversion: {inversions:?}"
    );
}

#[test]
fn bug19_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &epoll_add(), &epoll_wake(), 16) {
        miner.observe(&r);
    }
    assert!(
        !miner
            .violations()
            .iter()
            .any(|f| matches!(f, Finding::LockOrderInversion { .. })),
        "patched epoll takes both locks in one order"
    );
}

fn nbd_send() -> Program {
    Program::new(vec![Syscall::NbdSend { len: 1 }])
}

fn nbd_disconnect() -> Program {
    Program::new(vec![Syscall::NbdDisconnect])
}

#[test]
fn bug20_nbd_sleep_in_atomic_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let reports = run_reports(&booted, &nbd_send(), &nbd_disconnect(), 256);
    let findings: Vec<Finding> = reports
        .iter()
        .flat_map(|r| detect_sleep_in_atomic(&r.sync_events))
        .collect();
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::SleepInAtomic { site, enter_site }
                if bugs::match_sleep_atomic(site, enter_site) == Some(20)
        )),
        "bug #20 should be reported by the atomic-context oracle: {findings:?}"
    );
}

#[test]
fn bug20_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let reports = run_reports(&booted, &nbd_send(), &nbd_disconnect(), 256);
    for r in &reports {
        assert!(
            detect_sleep_in_atomic(&r.sync_events).is_empty(),
            "patched nbd drops the spinlock around the wait"
        );
    }
}

fn vsock_prog() -> Program {
    Program::new(vec![
        Syscall::VsockConnect { cid: 1 },
        Syscall::VsockSend { len: 2 },
        Syscall::VsockSend { len: 5 },
    ])
}

#[test]
fn bug21_vsock_lock_rule_violation_is_mined() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &vsock_prog(), &vsock_prog(), 8) {
        miner.observe(&r);
    }
    let violations = miner.violations();
    assert!(
        violations.iter().any(|f| matches!(
            f,
            Finding::LockRuleViolation { site, .. }
                if bugs::match_lockrule(site) == Some(21)
        )),
        "bug #21 should be mined as a lock-rule violation: {violations:?}"
    );
}

#[test]
fn bug21_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &vsock_prog(), &vsock_prog(), 8) {
        miner.observe(&r);
    }
    assert!(
        !miner.violations().iter().any(|f| matches!(
            f,
            Finding::LockRuleViolation { site, .. } if site.starts_with("vsock_stream_connect")
        )),
        "patched vsock publishes the state under the lock"
    );
}

fn kernfs_prog() -> Program {
    Program::new(vec![
        Syscall::KernfsActivate { node: 0 },
        Syscall::KernfsNotify { node: 0 },
    ])
}

#[test]
fn bug22_kernfs_lock_rule_violation_is_mined() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &kernfs_prog(), &kernfs_prog(), 8) {
        miner.observe(&r);
    }
    let violations = miner.violations();
    assert!(
        violations.iter().any(|f| matches!(
            f,
            Finding::LockRuleViolation { site, .. }
                if bugs::match_lockrule(site) == Some(22)
        )),
        "bug #22 should be mined as a lock-rule violation: {violations:?}"
    );
}

#[test]
fn bug22_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let mut miner = RuleMiner::new();
    for r in run_reports(&booted, &kernfs_prog(), &kernfs_prog(), 8) {
        miner.observe(&r);
    }
    assert!(
        !miner.violations().iter().any(|f| matches!(
            f,
            Finding::LockRuleViolation { site, .. } if site.starts_with("kernfs_notify")
        )),
        "patched kernfs sets the bit under the mutex"
    );
}

fn wq_queue() -> Program {
    Program::new(vec![Syscall::WqQueue { work: 1 }])
}

fn wq_flush() -> Program {
    Program::new(vec![Syscall::WqFlush])
}

#[test]
fn bug23_workqueue_missed_wakeup_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let reports = run_reports(&booted, &wq_queue(), &wq_flush(), 256);
    let findings: Vec<Finding> = reports
        .iter()
        .flat_map(|r| detect_missed_wakeups(&r.sync_events))
        .collect();
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::MissedWakeup { wake_site, sleep_site, .. }
                if bugs::match_wakeup(wake_site, sleep_site) == Some(23)
        )),
        "bug #23 should be reported by the wakeup oracle: {findings:?}"
    );
}

#[test]
fn bug23_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let reports = run_reports(&booted, &wq_queue(), &wq_flush(), 256);
    for r in &reports {
        assert!(
            detect_missed_wakeups(&r.sync_events).is_empty(),
            "patched flush registers before re-checking"
        );
    }
    // Two threads that each queue and then flush: a lost update of the
    // in-flight counter would strand both flushers whatever order they
    // registered in, so the patched build must move it under its lock.
    let queue_then_flush = Program::new(vec![Syscall::WqQueue { work: 1 }, Syscall::WqFlush]);
    let reports = run_reports(&booted, &queue_then_flush, &queue_then_flush, 256);
    for r in &reports {
        assert!(
            detect_missed_wakeups(&r.sync_events).is_empty(),
            "patched queue_work lost an in-flight update: {:?}",
            r.sync_events
        );
    }
}

#[test]
fn sync_bugs_exist_in_both_kernel_versions() {
    // #18–#23 are planted in 5.3.10 as well (unlike the Table 2 split).
    let booted = boot(KernelConfig::v5_3_10());
    let reports = run_reports(&booted, &futex_waiter(), &futex_waker(), 256);
    assert!(
        reports
            .iter()
            .flat_map(|r| detect_missed_wakeups(&r.sync_events))
            .next()
            .is_some(),
        "bug #18 should also exist in 5.3.10"
    );
}
