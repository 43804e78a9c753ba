//! Evidence that the planted bugs are real: each panic/console bug must be
//! triggerable by *some* interleaving of its two test programs, and must
//! never trigger in the patched build under the same schedules.

use std::sync::Arc;

use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Res};
use sb_kernel::{boot, BootedKernel, KernelConfig, Program, Syscall};
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

/// Runs `a` and `b` concurrently under random schedules with seeds
/// `0..attempts`, returning the consoles of every run plus whether any run
/// panicked.
fn run_many(
    booted: &BootedKernel,
    a: &Program,
    b: &Program,
    attempts: u64,
) -> (bool, Vec<String>) {
    let mut exec = Executor::new(2);
    let mut any_panic = false;
    let mut consoles = Vec::new();
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
        any_panic |= r.report.outcome.is_panic();
        consoles.extend(r.report.console);
    }
    (any_panic, consoles)
}

fn l2tp_writer() -> Program {
    Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
    ])
}

fn l2tp_reader() -> Program {
    Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 2 },
        Syscall::Sendmsg { sock: Res(0), len: 1 },
    ])
}

#[test]
fn bug12_l2tp_order_violation_panics_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let (panicked, consoles) = run_many(&booted, &l2tp_writer(), &l2tp_reader(), 64);
    assert!(panicked, "bug #12 should panic under some schedule");
    assert!(
        consoles.iter().any(|l| l.contains("NULL pointer dereference")),
        "expected a null-deref console line"
    );
    assert!(
        consoles.iter().any(|l| sb_kernel::bugs::match_console(l) == Some(12)),
        "console should match registry entry #12: {consoles:?}"
    );
}

#[test]
fn bug12_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let (panicked, _) = run_many(&booted, &l2tp_writer(), &l2tp_reader(), 64);
    assert!(!panicked, "patched build must not panic");
}

#[test]
fn bug12_gone_in_5_3_10() {
    // Table 2 places #12 only in 5.12-rc3; the older build publishes after
    // initializing.
    let booted = boot(KernelConfig::v5_3_10());
    let (panicked, _) = run_many(&booted, &l2tp_writer(), &l2tp_reader(), 64);
    assert!(!panicked);
}

fn rhash_writer() -> Program {
    Program::new(vec![
        Syscall::Msgget { key: 3 },
        Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid },
    ])
}

fn rhash_reader() -> Program {
    Program::new(vec![Syscall::Msgget { key: 3 }])
}

#[test]
fn bug1_rhashtable_double_fetch_panics_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_3_10());
    let (panicked, consoles) = run_many(&booted, &rhash_writer(), &rhash_reader(), 200);
    assert!(panicked, "bug #1 should panic under some schedule");
    assert!(
        consoles.iter().any(|l| l.contains("unable to handle page fault")),
        "expected the page-fault console line: {consoles:?}"
    );
    assert!(consoles
        .iter()
        .any(|l| sb_kernel::bugs::match_console(l) == Some(1)));
}

#[test]
fn bug1_gone_in_5_12_rc3_and_patched() {
    for config in [KernelConfig::v5_12_rc3(), KernelConfig::v5_3_10().patched()] {
        let booted = boot(config);
        let (panicked, _) = run_many(&booted, &rhash_writer(), &rhash_reader(), 200);
        assert!(!panicked, "{config:?} must not panic");
    }
}

fn configfs_writer() -> Program {
    Program::new(vec![
        Syscall::Mkdir { item: 1 },
        Syscall::Rmdir { item: 1 },
    ])
}

fn configfs_reader() -> Program {
    Program::new(vec![
        Syscall::Mkdir { item: 1 },
        Syscall::Open { path: Path::Configfs(1) },
    ])
}

#[test]
fn bug11_configfs_lookup_panics_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let (panicked, consoles) = run_many(&booted, &configfs_writer(), &configfs_reader(), 200);
    assert!(panicked, "bug #11 should panic under some schedule");
    assert!(consoles
        .iter()
        .any(|l| sb_kernel::bugs::match_console(l) == Some(11)));
}

#[test]
fn bug11_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let (panicked, _) = run_many(&booted, &configfs_writer(), &configfs_reader(), 200);
    assert!(!panicked);
}

fn ext4_swap_prog() -> Program {
    Program::new(vec![
        Syscall::Open { path: Path::Ext4File(1) },
        Syscall::Write { fd: Res(0), off: 1, val: 7 },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::Ext4SwapBoot, arg: 0 },
    ])
}

#[test]
fn bug2_swap_boot_loader_checksum_error_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_12_rc3());
    // Duplicate pairing, as Table 2 records for #2.
    let (_panicked, consoles) = run_many(&booted, &ext4_swap_prog(), &ext4_swap_prog(), 128);
    assert!(
        consoles.iter().any(|l| l.contains("swap_inode_boot_loader")),
        "expected the checksum-invalid console line"
    );
    assert!(consoles
        .iter()
        .any(|l| sb_kernel::bugs::match_console(l) == Some(2)));
}

#[test]
fn bug2_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_12_rc3().patched());
    let (_p, consoles) = run_many(&booted, &ext4_swap_prog(), &ext4_swap_prog(), 128);
    assert!(!consoles.iter().any(|l| l.contains("checksum invalid")));
}

fn ext4_write_prog() -> Program {
    Program::new(vec![
        Syscall::Open { path: Path::Ext4File(2) },
        Syscall::Write { fd: Res(0), off: 0, val: 1 },
        Syscall::Read { fd: Res(0), off: 0 },
    ])
}

#[test]
fn bug3_extent_magic_error_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_3_10());
    let (_p, consoles) = run_many(&booted, &ext4_write_prog(), &ext4_write_prog(), 128);
    assert!(
        consoles.iter().any(|l| l.contains("ext4_ext_check_inode")),
        "expected the invalid-magic console line"
    );
}

fn blk_shrink_prog() -> Program {
    Program::new(vec![
        Syscall::Open { path: Path::BlockDev },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkSetSize, arg: 0 },
    ])
}

fn blk_write_prog() -> Program {
    Program::new(vec![
        Syscall::Open { path: Path::Ext4File(0) },
        Syscall::Write { fd: Res(0), off: 9, val: 3 },
    ])
}

#[test]
fn bug4_blk_io_error_under_some_interleaving() {
    let booted = boot(KernelConfig::v5_3_10());
    // 256 attempts, not 128: the window where bug #4's capacity shrink can
    // race the in-flight write is narrow. Under `sb_vmm::rng` one seed of
    // the 256 opens it, seed 184.
    let (_p, consoles) = run_many(&booted, &blk_shrink_prog(), &blk_write_prog(), 256);
    assert!(
        consoles
            .iter()
            .any(|l| l.contains("Blk_update_request: IO error")),
        "expected the IO-error console line"
    );
}

#[test]
fn bug4_gone_in_patched_build() {
    let booted = boot(KernelConfig::v5_3_10().patched());
    let (_p, consoles) = run_many(&booted, &blk_shrink_prog(), &blk_write_prog(), 256);
    assert!(!consoles
        .iter()
        .any(|l| l.contains("Blk_update_request: IO error")));
}

#[test]
fn snapshot_state_is_identical_across_trials() {
    // The same seed over the same snapshot must reproduce the exact same
    // console — the determinism §6 relies on for bug reproduction.
    let booted = boot(KernelConfig::v5_12_rc3());
    let mut exec = Executor::new(2);
    let run = |exec: &mut Executor, seed: u64| {
        let mut sched = RandomSched::new(seed, 0.25);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(l2tp_writer()),
                booted.kernel.process_job(l2tp_reader()),
            ],
            &mut sched,
        );
        (format!("{:?}", r.report.outcome), r.report.console.clone())
    };
    for seed in 0..16 {
        assert_eq!(run(&mut exec, seed), run(&mut exec, seed), "seed {seed}");
    }
}

#[test]
fn kernel_is_shareable_across_threads() {
    // The kernel handle is used from worker pools in the campaign driver.
    fn assert_send_sync<T: Send + Sync>(_: &T) {}
    let booted = boot(KernelConfig::v5_12_rc3());
    let k: &Arc<sb_kernel::Kernel> = &booted.kernel;
    assert_send_sync(k);
}
