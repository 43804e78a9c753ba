//! Golden execution reports: a transport change under the executor must not
//! move a single observable bit.
//!
//! Every scenario runs hand-written programs under a fixed schedule (no
//! RNG anywhere, so the real `rand` and any stand-in agree) and pins an
//! FNV-1a digest of the whole [`ExecReport`] — outcome, console, access
//! trace, sync events, step and switch counts, thread faults. The file is
//! written only against API that both sides of the resumable-executor
//! change share, so it runs unmodified before and after it; the constants
//! were captured on the commit that still handed requests over `mpsc`.
//!
//! Each scenario also asserts the engine path it was chosen to cross, so a
//! kernel-model change that moves a digest also says whether the scenario
//! still means what it meant. (A blocking RCU grace period is not reachable
//! from any syscall — no handler calls `synchronize_rcu` — so the golden
//! covers RCU read sections only; grace-period blocking stays pinned by
//! `vmm/tests/executor.rs` and `vmm/tests/multithread.rs`.)

use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Res};
use sb_kernel::{boot, BootedKernel, KernelConfig, Program, Syscall};
use sb_vmm::exec::{ExecReport, Outcome};
use sb_vmm::replay::{ReplaySched, Schedule};
use sb_vmm::sched::{FreeRun, Scheduler};
use sb_vmm::{Executor, Fault, SyncKind};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// FNV-1a over every field of the report, in declaration order.
fn digest(r: &ExecReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("{:?}", r.outcome));
    h.u64(r.console.len() as u64);
    for line in &r.console {
        h.str(line);
    }
    h.u64(r.trace.len() as u64);
    for a in &r.trace {
        h.u64(a.seq);
        h.u64(a.thread as u64);
        h.u64(a.site.0);
        h.u64(u64::from(a.kind.is_write()));
        h.u64(a.addr);
        h.u64(u64::from(a.len));
        h.u64(a.value);
        h.u64(u64::from(a.atomic));
        h.u64(a.locks.len() as u64);
        for l in &a.locks {
            h.u64(*l);
        }
        h.u64(u64::from(a.rcu_depth));
    }
    h.u64(r.sync_events.len() as u64);
    for e in &r.sync_events {
        h.u64(e.seq);
        h.u64(e.thread as u64);
        h.u64(e.site.0);
        h.str(&format!("{:?}", e.kind));
        h.u64(e.obj);
        h.u64(e.arg);
    }
    h.u64(r.steps);
    h.u64(r.switches);
    h.str(&format!("{:?}", r.thread_faults));
    h.0
}

fn run(booted: &BootedKernel, progs: &[Program], sched: &mut dyn Scheduler) -> ExecReport {
    let mut exec = Executor::new(progs.len());
    let jobs = progs
        .iter()
        .map(|p| booted.kernel.process_job(p.clone()))
        .collect();
    exec.try_run(booted.snapshot.clone(), jobs, sched)
        .expect("execution machinery failed")
        .report
}

/// Preempt after every access whose index is `offset` modulo `period`, for
/// the first `len` accesses; `picks` is cycled to the same length. Once the
/// schedule runs out [`ReplaySched`] stops preempting and falls back to the
/// first runnable thread — still a pure function of the schedule.
fn periodic(period: usize, offset: usize, len: usize, picks: &[usize]) -> Schedule {
    Schedule {
        switches: (0..len).map(|i| i % period == offset).collect(),
        picks: picks.iter().copied().cycle().take(len).collect(),
    }
}

fn replay(booted: &BootedKernel, progs: &[Program], schedule: Schedule) -> ExecReport {
    run(booted, progs, &mut ReplaySched::new(schedule))
}

/// Every `periodic` schedule with a period in `2..=max_period`, in a fixed
/// order.
fn sweep(
    booted: &BootedKernel,
    progs: &[Program],
    max_period: usize,
    picks: &[usize],
) -> Vec<ExecReport> {
    (2..=max_period)
        .flat_map(|period| (0..period).map(move |offset| (period, offset)))
        .map(|(period, offset)| replay(booted, progs, periodic(period, offset, 600, picks)))
        .collect()
}

/// Digest of a list of reports: the digests of its members, in order.
fn digest_all(reports: &[ExecReport]) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        h.u64(digest(r));
    }
    h.0
}

#[track_caller]
fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: report digest moved: got {got:#018x}, golden {want:#018x}"
    );
}

fn has(r: &ExecReport, kind: SyncKind) -> bool {
    r.sync_events.iter().any(|e| e.kind == kind)
}

/// A release and the next owner's acquire recorded at the same step: the
/// lock went straight from one thread to a blocked waiter.
fn has_lock_handover(r: &ExecReport) -> bool {
    r.sync_events.windows(2).any(|w| {
        let (rel, acq) = (&w[0], &w[1]);
        rel.kind == SyncKind::LockRelease
            && acq.kind == SyncKind::LockAcquire
            && rel.seq == acq.seq
            && rel.obj == acq.obj
            && rel.thread != acq.thread
    })
}

fn tour() -> Program {
    Program::new(vec![
        Syscall::Socket {
            domain: Domain::Inet,
        },
        Syscall::Ioctl {
            fd: Res(0),
            cmd: IoctlCmd::SiocGifHwAddr,
            arg: 0,
        },
        Syscall::Open {
            path: Path::Ext4File(1),
        },
        Syscall::Write {
            fd: Res(2),
            off: 3,
            val: 7,
        },
        Syscall::Read { fd: Res(2), off: 3 },
        Syscall::Msgget { key: 5 },
        Syscall::Msgsnd {
            id: Res(5),
            mtype: 1,
            val: 9,
        },
        Syscall::Msgrcv {
            id: Res(5),
            mtype: 0,
        },
        Syscall::FutexWait { slot: 1 },
        Syscall::Mkdir { item: 1 },
        Syscall::Rmdir { item: 1 },
        Syscall::Close { fd: Res(2) },
    ])
}

fn msg_user(val: u8) -> Program {
    Program::new(vec![
        Syscall::Msgget { key: 4 },
        Syscall::Msgsnd {
            id: Res(0),
            mtype: 1,
            val,
        },
        Syscall::Msgsnd {
            id: Res(0),
            mtype: 2,
            val,
        },
        Syscall::Msgrcv {
            id: Res(0),
            mtype: 0,
        },
        Syscall::Msgctl {
            id: Res(0),
            cmd: MsgCmd::Stat,
        },
    ])
}

fn l2tp_writer() -> Program {
    Program::new(vec![
        Syscall::Socket {
            domain: Domain::L2tp,
        },
        Syscall::Connect {
            sock: Res(0),
            tunnel_id: 2,
        },
    ])
}

fn l2tp_reader() -> Program {
    Program::new(vec![
        Syscall::Socket {
            domain: Domain::L2tp,
        },
        Syscall::Connect {
            sock: Res(0),
            tunnel_id: 2,
        },
        Syscall::Sendmsg {
            sock: Res(0),
            len: 1,
        },
    ])
}

fn long_runner() -> Program {
    Program::new(vec![
        Syscall::Open {
            path: Path::Ext4File(0),
        },
        Syscall::Write {
            fd: Res(0),
            off: 1,
            val: 3,
        },
        Syscall::Mount,
        Syscall::Read { fd: Res(0), off: 1 },
        Syscall::Open { path: Path::Tty },
        Syscall::Write {
            fd: Res(4),
            off: 0,
            val: 65,
        },
        Syscall::Mkdir { item: 2 },
        Syscall::Rmdir { item: 2 },
        Syscall::FutexWake { slot: 0 },
    ])
}

fn futex_waiter(slot: u8) -> Program {
    Program::new(vec![Syscall::FutexWait { slot }])
}

fn nbd_send() -> Program {
    Program::new(vec![Syscall::NbdSend { len: 1 }])
}

fn nbd_disconnect() -> Program {
    Program::new(vec![Syscall::NbdDisconnect])
}

fn epoll_add() -> Program {
    Program::new(vec![Syscall::EpollAdd { slot: 0 }])
}

fn epoll_wake() -> Program {
    Program::new(vec![Syscall::EpollWake { slot: 0 }])
}

fn msg_user_then_wake(val: u8) -> Program {
    let mut p = msg_user(val);
    p.calls.push(Syscall::FutexWake { slot: 0 });
    p
}

#[test]
fn solo_tour_under_free_run() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let r = run(&booted, &[tour()], &mut FreeRun);
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(has(&r, SyncKind::RcuEnter) && has(&r, SyncKind::RcuExit));
    // Nobody else can run, so the clock fast-forwards to the deadline.
    assert!(has(&r, SyncKind::SleepTimeout));
    assert_digest("solo", digest(&r), 0x507d_016c_8eb8_f7b3);
}

#[test]
fn contended_lock_is_handed_over() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let reports = sweep(&booted, &[msg_user(1), msg_user(2)], 11, &[1, 0]);
    assert!(reports.iter().all(|r| r.outcome == Outcome::Completed));
    let handovers = reports.iter().filter(|r| has_lock_handover(r)).count();
    assert!(
        handovers >= 40,
        "only {handovers} of {} schedules contended",
        reports.len()
    );
    assert_digest("handover", digest_all(&reports), 0x3efd_6e10_eaea_6686);
}

#[test]
fn timed_sleep_expires_while_the_other_thread_runs() {
    let booted = boot(KernelConfig::v5_12_rc3());
    // No preemption: the waiter blocks at once and the runner outlasts its
    // 128-step timeout, so the deadline passes on the running clock.
    let r = replay(
        &booted,
        &[futex_waiter(1), long_runner()],
        Schedule::default(),
    );
    assert_eq!(r.outcome, Outcome::Completed);
    let timeout = r
        .sync_events
        .iter()
        .find(|e| e.kind == SyncKind::SleepTimeout)
        .expect("the sleep must expire");
    assert_eq!(timeout.thread, 0);
    assert!(
        timeout.seq < r.steps,
        "expired mid-run, not by fast-forward"
    );
    assert_digest("timed-sleep", digest(&r), 0x5e52_f8f9_8b30_c918);
}

#[test]
fn wakeup_is_banked_or_delivered_live() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let progs = [nbd_send(), nbd_disconnect()];
    // Sender marks busy; disconnect prepares and sees busy; sender finishes
    // and wakes before the commit: the wakeup is banked, nobody sleeps.
    let banked = replay(
        &booted,
        &progs,
        Schedule {
            switches: vec![true, true],
            picks: vec![1, 0],
        },
    );
    assert_eq!(banked.outcome, Outcome::Completed);
    assert!(!has(&banked, SyncKind::SleepCommit));
    assert!(banked
        .sync_events
        .iter()
        .any(|e| e.kind == SyncKind::Wake && e.arg == 1));
    assert!(banked
        .sync_events
        .iter()
        .any(|e| e.kind == SyncKind::SleepCancel && e.thread == 1));
    // One preemption fewer: disconnect commits first and the same wakeup
    // releases a real sleeper.
    let live = replay(
        &booted,
        &progs,
        Schedule {
            switches: vec![true],
            picks: vec![1, 0],
        },
    );
    assert_eq!(live.outcome, Outcome::Completed);
    assert!(has(&live, SyncKind::SleepCommit) && !has(&live, SyncKind::SleepTimeout));
    assert_digest("wakeup", digest_all(&[banked, live]), 0x9a3b_4ea3_1025_1b03);
}

#[test]
fn kernel_panic_aborts_the_other_thread() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let r = replay(
        &booted,
        &[l2tp_writer(), l2tp_reader()],
        periodic(11, 10, 400, &[1, 0]),
    );
    assert!(r.outcome.is_panic(), "{:?}", r.outcome);
    assert!(r.console_contains("NULL pointer dereference"));
    assert_eq!(r.thread_faults[0], Some(Fault::Aborted));
    assert!(matches!(r.thread_faults[1], Some(Fault::NullDeref { .. })));
    assert_digest("panic", digest(&r), 0x6011_8829_583d_3271);
}

#[test]
fn lock_inversion_deadlocks_and_unwinds() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let r = replay(
        &booted,
        &[epoll_add(), epoll_wake()],
        periodic(2, 0, 100, &[1, 0]),
    );
    assert_eq!(r.outcome, Outcome::Deadlock);
    assert_eq!(r.thread_faults, vec![Some(Fault::Aborted); 2]);
    assert_digest("deadlock", digest(&r), 0x1f7f_b1fa_e636_ce4e);
}

#[test]
fn three_vcpus_under_periodic_schedules() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let progs = [msg_user_then_wake(1), msg_user(2), futex_waiter(0)];
    let reports = sweep(&booted, &progs, 7, &[1, 2, 0]);
    assert!(reports.iter().all(|r| r.outcome == Outcome::Completed));
    assert!(reports.iter().all(|r| r.thread_faults == vec![None; 3]));
    assert!(reports.iter().any(has_lock_handover));
    assert!(reports.iter().any(|r| r
        .sync_events
        .iter()
        .any(|e| e.kind == SyncKind::Wake && e.arg == 1)));
    assert_digest("three", digest_all(&reports), 0xb3fb_ee6d_7c9e_9890);
}
