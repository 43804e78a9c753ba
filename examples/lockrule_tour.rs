//! A tour of the sync-event oracles over the six planted sync bugs.
//!
//! The stock detectors judge each execution in isolation; the oracles shown
//! here read the *sync-event* stream (lock acquire/release with identity,
//! sleep/wake on wait queues, atomic-context enter/exit) that the VMM
//! records alongside memory accesses. The lock-rule miner is
//! corpus-statistical: it learns "address A is protected by lock L" and
//! "L1 is taken before L2" across many executions, then flags the
//! executions that break the learned rule — bugs no single run can reveal.
//!
//! Run with: `cargo run -p sb-examples --bin lockrule_tour`

use sb_detect::{detect_missed_wakeups, detect_sleep_in_atomic, Finding, RuleMiner};
use sb_kernel::{boot, bugs, BootedKernel, KernelConfig, Program, Syscall};
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

fn show_finding(f: &Finding) {
    let tag = match snowboard::triage::triage(f).and_then(bugs::by_id) {
        Some(b) => format!("-> Table 2 #{} ({})", b.id, b.title),
        None => "-> untriaged".to_owned(),
    };
    println!("  {f:?} {tag}");
}

/// Runs `a` against `b` over `seeds` random schedules, feeding every
/// execution to `miner` and collecting per-execution sync findings.
fn sweep(
    booted: &BootedKernel,
    a: &Program,
    b: &Program,
    seeds: u64,
    miner: &mut RuleMiner,
) -> Vec<Finding> {
    let mut exec = Executor::new(2);
    let mut seen = std::collections::HashSet::new();
    let mut findings = Vec::new();
    for seed in 0..seeds {
        let mut sched = RandomSched::new(seed, 0.25);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(a.clone()),
                booted.kernel.process_job(b.clone()),
            ],
            &mut sched,
        );
        miner.observe(&r.report);
        for f in detect_missed_wakeups(&r.report.sync_events)
            .into_iter()
            .chain(detect_sleep_in_atomic(&r.report.sync_events))
        {
            if seen.insert(f.dedup_key()) {
                findings.push(f);
            }
        }
    }
    findings
}

fn main() {
    println!("== sync-event oracle tour ==\n");
    let booted = boot(KernelConfig::v5_12_rc3());

    println!("--- lock-rule mining: vsock transmit queue (#21) ---");
    let vsock = Program::new(vec![
        Syscall::VsockConnect { cid: 1 },
        Syscall::VsockSend { len: 2 },
        Syscall::VsockSend { len: 5 },
    ]);
    let mut miner = RuleMiner::new();
    sweep(&booted, &vsock, &vsock, 16, &mut miner);
    println!("mined from {} executions:", miner.observed());
    for f in miner.violations() {
        show_finding(&f);
    }

    println!("\n--- lock-order mining: epoll wakeup path (#19) ---");
    let epoll = Program::new(vec![
        Syscall::EpollAdd { slot: 0 },
        Syscall::EpollWake { slot: 0 },
    ]);
    let mut miner = RuleMiner::new();
    sweep(&booted, &epoll, &epoll, 16, &mut miner);
    println!("mined from {} executions:", miner.observed());
    for f in miner.violations() {
        show_finding(&f);
    }

    println!("\n--- missed wakeup: futex wait vs wake (#18) ---");
    let waiter = Program::new(vec![Syscall::FutexWait { slot: 0 }]);
    let waker = Program::new(vec![Syscall::FutexWake { slot: 0 }]);
    for f in sweep(&booted, &waiter, &waker, 256, &mut RuleMiner::new()) {
        show_finding(&f);
    }

    println!("\n--- sleep in atomic context: nbd disconnect (#20) ---");
    let sender = Program::new(vec![Syscall::NbdSend { len: 3 }]);
    let dc = Program::new(vec![Syscall::NbdDisconnect]);
    for f in sweep(&booted, &sender, &dc, 256, &mut RuleMiner::new()) {
        show_finding(&f);
    }

    println!("\n--- patched build: every oracle goes quiet ---");
    let patched = boot(KernelConfig::v5_12_rc3().patched());
    let mut miner = RuleMiner::new();
    let mut quiet = sweep(&patched, &vsock, &vsock, 16, &mut miner);
    quiet.extend(sweep(&patched, &waiter, &waker, 64, &mut RuleMiner::new()));
    quiet.extend(miner.violations());
    println!("patched kernel: {} sync findings (expected 0)", quiet.len());
}
