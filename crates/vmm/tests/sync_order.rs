//! The order in which the executor releases blocked threads, pinned event by
//! event with three and four threads: lock hand-off, timeouts that fall due
//! in one step, `wake_one`'s choice of sleeper, wakeups banked on a thread
//! prepared on two queues, and a thread that exits holding contended locks.
//!
//! Each test asserts the whole `sync_events` stream (step, thread, site,
//! kind, object, argument) and every reply the threads saw, so any change in
//! how the run state keeps its waiters must reproduce them exactly.

use std::cell::RefCell;
use std::rc::Rc;

use sb_vmm::exec::{job, ExecReport, Executor, Job};
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::{FreeRun, Scheduler};
use sb_vmm::site;

const L1: u64 = 0x40_0000;
const L2: u64 = 0x40_0008;
const QA: u64 = 0xA000;
const QB: u64 = 0xB000;
const QX: u64 = 0xF000;

/// Never preempts; when the running thread blocks or ends, runs the ready
/// thread with the highest id — so threads arrive at a queue in an order
/// that is not their id order.
struct Highest;

impl Scheduler for Highest {
    fn pick(&mut self, _prev: usize, candidates: &[usize]) -> usize {
        *candidates.last().expect("non-empty")
    }
}

/// The replies the threads saw, as `t<tid> <what>=<value>` in the order they
/// arrived.
#[derive(Clone, Default)]
struct Replies(Rc<RefCell<Vec<String>>>);

impl Replies {
    fn note(&self, tid: usize, what: &str, value: u64) {
        self.0.borrow_mut().push(format!("t{tid} {what}={value}"));
    }

    fn take(&self) -> Vec<String> {
        self.0.take()
    }
}

fn run(jobs: Vec<Job>, sched: &mut dyn Scheduler) -> ExecReport {
    let mut exec = Executor::new(jobs.len());
    let r = exec.run(GuestMem::new(), jobs, sched).report;
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    r
}

/// The test's name for a lock or queue address.
fn name(obj: u64) -> String {
    match obj {
        L1 => "L1".to_owned(),
        L2 => "L2".to_owned(),
        QA => "QA".to_owned(),
        QB => "QB".to_owned(),
        QX => "QX".to_owned(),
        other => format!("{other:#x}"),
    }
}

/// Every sync event as `<step> t<tid> <kind> <object> <arg> <site>`, with
/// the objects named.
fn events(r: &ExecReport) -> Vec<String> {
    r.sync_events
        .iter()
        .map(|e| {
            format!(
                "{} t{} {:?} {} {} {}",
                e.seq,
                e.thread,
                e.kind,
                name(e.obj),
                e.arg,
                e.site
            )
        })
        .collect()
}

#[test]
fn one_lock_is_handed_to_three_waiters_in_arrival_order() {
    // t0 takes L1 and sleeps holding it. t3 queues at step 5; t1 and t2
    // first sleep until steps 9 and 13, so the queue is t3, t1, t2 — not id
    // order.
    let replies = Replies::default();
    let holder = {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.lock_at(site!("order:lock"), L1).await?;
            let woken = ctx.sleep_on(site!("order:hold"), QX, 40).await?;
            replies.note(0, "hold", u64::from(woken));
            ctx.unlock_at(site!("order:unlock"), L1).await?;
            Ok(())
        })
    };
    let waiter = |tid: usize, delay: u64| {
        let replies = replies.clone();
        job(move |ctx| async move {
            if delay > 0 {
                let woken = ctx.sleep_on(site!("order:delay"), QX, delay).await?;
                replies.note(tid, "delay", u64::from(woken));
            }
            ctx.lock_at(site!("order:lock"), L1).await?;
            replies.note(tid, "lock", 0);
            ctx.unlock_at(site!("order:unlock"), L1).await?;
            Ok(())
        })
    };
    let r = run(
        vec![holder, waiter(1, 6), waiter(2, 9), waiter(3, 0)],
        &mut FreeRun,
    );
    assert_eq!(
        events(&r),
        [
            "1 t0 LockAcquire L1 0 order:lock",
            "2 t0 SleepCommit QX 40 order:hold",
            "3 t1 SleepCommit QX 6 order:delay",
            "4 t2 SleepCommit QX 9 order:delay",
            "9 t1 SleepTimeout QX 0 order:delay",
            "13 t2 SleepTimeout QX 0 order:delay",
            "42 t0 SleepTimeout QX 0 order:hold",
            "43 t0 LockRelease L1 0 order:unlock",
            "43 t3 LockAcquire L1 0 order:lock",
            "45 t3 LockRelease L1 0 order:unlock",
            "45 t1 LockAcquire L1 0 order:lock",
            "47 t1 LockRelease L1 0 order:unlock",
            "47 t2 LockAcquire L1 0 order:lock",
            "49 t2 LockRelease L1 0 order:unlock",
        ]
    );
    assert_eq!(
        replies.take(),
        [
            "t1 delay=0",
            "t2 delay=0",
            "t0 hold=0",
            "t3 lock=0",
            "t1 lock=0",
            "t2 lock=0",
        ]
    );
}

#[test]
fn sleepers_due_in_one_step_time_out_by_queue_address_then_sleep_order() {
    // Highest-first: t0, t3, t2, t1 commit at steps 1..4, each with the
    // timeout that makes it due at step 101. QA < QB: QA's sleepers t3
    // and t1 go first, in the order they slept, then QB's t0 and t2.
    let replies = Replies::default();
    let sleeper = |tid: usize, queue: u64, timeout: u64| {
        let replies = replies.clone();
        job(move |ctx| async move {
            let woken = ctx.sleep_on(site!("order:sleep"), queue, timeout).await?;
            replies.note(tid, "sleep", u64::from(woken));
            Ok(())
        })
    };
    let r = run(
        vec![
            sleeper(0, QB, 100),
            sleeper(1, QA, 97),
            sleeper(2, QB, 98),
            sleeper(3, QA, 99),
        ],
        &mut Highest,
    );
    assert_eq!(
        events(&r),
        [
            "1 t0 SleepCommit QB 100 order:sleep",
            "2 t3 SleepCommit QA 99 order:sleep",
            "3 t2 SleepCommit QB 98 order:sleep",
            "4 t1 SleepCommit QA 97 order:sleep",
            "101 t3 SleepTimeout QA 0 order:sleep",
            "101 t1 SleepTimeout QA 0 order:sleep",
            "101 t0 SleepTimeout QB 0 order:sleep",
            "101 t2 SleepTimeout QB 0 order:sleep",
        ]
    );
    assert_eq!(
        replies.take(),
        ["t1 sleep=0", "t3 sleep=0", "t2 sleep=0", "t0 sleep=0"]
    );
}

#[test]
fn wake_one_reaches_the_earliest_sleeper() {
    // t0 naps on QX while t3, t2, t1 (highest first) sleep on QA; then it
    // wakes QA twice: t3 and t2, the two that slept first, are woken; t1
    // times out.
    let replies = Replies::default();
    let waker = {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.sleep_on(site!("order:nap"), QX, 10).await?;
            for _ in 0..2 {
                let n = ctx.wake_one(site!("order:wake"), QA).await?;
                replies.note(0, "wake", n);
            }
            Ok(())
        })
    };
    let sleeper = |tid: usize| {
        let replies = replies.clone();
        job(move |ctx| async move {
            let woken = ctx.sleep_on(site!("order:sleep"), QA, 50).await?;
            replies.note(tid, "sleep", u64::from(woken));
            Ok(())
        })
    };
    let r = run(
        vec![waker, sleeper(1), sleeper(2), sleeper(3)],
        &mut Highest,
    );
    assert_eq!(
        events(&r),
        [
            "1 t0 SleepCommit QX 10 order:nap",
            "2 t3 SleepCommit QA 50 order:sleep",
            "3 t2 SleepCommit QA 50 order:sleep",
            "4 t1 SleepCommit QA 50 order:sleep",
            "11 t0 SleepTimeout QX 0 order:nap",
            "12 t0 Wake QA 1 order:wake",
            "13 t0 Wake QA 1 order:wake",
            "54 t1 SleepTimeout QA 0 order:sleep",
        ]
    );
    assert_eq!(
        replies.take(),
        [
            "t0 wake=1",
            "t0 wake=1",
            "t3 sleep=1",
            "t2 sleep=1",
            "t1 sleep=0",
        ]
    );
}

#[test]
fn wakeups_bank_on_a_thread_prepared_on_two_queues() {
    // t2 prepares on QA, then t1 on QA and QB. t0 then wakes QA once (banked
    // on t2, the first prepared), QB for all (banked on t1), QA once more
    // (t2 holds its token, so t1 gets one) and QA a third time (both hold
    // one: lost). t1's commits on QA and QB return at once; its second
    // commit on QA finds no token and times out. t2's commit returns at once.
    let replies = Replies::default();
    let waker = {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.sleep_on(site!("order:nap"), QX, 50).await?;
            let n = ctx.wake_one(site!("order:wake_a"), QA).await?;
            replies.note(0, "wake QA", n);
            let n = ctx.wake_all(site!("order:wake_b"), QB).await?;
            replies.note(0, "wake all QB", n);
            for _ in 0..2 {
                let n = ctx.wake_one(site!("order:wake_a"), QA).await?;
                replies.note(0, "wake QA", n);
            }
            Ok(())
        })
    };
    let two_queues = {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.sleep_on(site!("order:nap"), QX, 20).await?;
            ctx.wait_prepare(site!("order:prep_a"), QA).await?;
            ctx.wait_prepare(site!("order:prep_b"), QB).await?;
            ctx.sleep_on(site!("order:nap"), QX, 60).await?;
            for (queue, what) in [(QA, "commit QA"), (QB, "commit QB"), (QA, "commit QA")] {
                let woken = ctx.wait_commit(site!("order:commit"), queue, 5).await?;
                replies.note(1, what, u64::from(woken));
            }
            Ok(())
        })
    };
    let one_queue = {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.wait_prepare(site!("order:prep_a"), QA).await?;
            ctx.sleep_on(site!("order:nap"), QX, 70).await?;
            let woken = ctx.wait_commit(site!("order:commit"), QA, 5).await?;
            replies.note(2, "commit QA", u64::from(woken));
            Ok(())
        })
    };
    let r = run(vec![waker, two_queues, one_queue], &mut FreeRun);
    assert_eq!(
        events(&r),
        [
            "1 t0 SleepCommit QX 50 order:nap",
            "2 t1 SleepCommit QX 20 order:nap",
            "3 t2 SleepPrepare QA 0 order:prep_a",
            "4 t2 SleepCommit QX 70 order:nap",
            "22 t1 SleepTimeout QX 0 order:nap",
            "23 t1 SleepPrepare QA 0 order:prep_a",
            "24 t1 SleepPrepare QB 0 order:prep_b",
            "25 t1 SleepCommit QX 60 order:nap",
            "51 t0 SleepTimeout QX 0 order:nap",
            "52 t0 Wake QA 1 order:wake_a",
            "53 t0 Wake QB 1 order:wake_b",
            "54 t0 Wake QA 1 order:wake_a",
            "55 t0 Wake QA 0 order:wake_a",
            "74 t2 SleepTimeout QX 0 order:nap",
            "75 t2 SleepCancel QA 0 order:commit",
            "85 t1 SleepTimeout QX 0 order:nap",
            "86 t1 SleepCancel QA 0 order:commit",
            "87 t1 SleepCancel QB 0 order:commit",
            "88 t1 SleepCommit QA 5 order:commit",
            "93 t1 SleepTimeout QA 0 order:commit",
        ]
    );
    assert_eq!(
        replies.take(),
        [
            "t0 wake QA=1",
            "t0 wake all QB=1",
            "t0 wake QA=1",
            "t0 wake QA=0",
            "t2 commit QA=1",
            "t1 commit QA=1",
            "t1 commit QB=1",
            "t1 commit QA=0",
        ]
    );
}

#[test]
fn a_thread_exiting_with_contended_locks_hands_each_to_its_first_waiter() {
    // t0 takes L1 then L2 and naps. Highest-first: t3 queues on L2, t2 on
    // L1, t1 on L2. t0 ends holding both: L1 goes to t2, L2 to t3 (it came
    // before t1), and t3's unlock hands L2 on to t1.
    let replies = Replies::default();
    let holder = job(move |ctx| async move {
        ctx.lock_at(site!("order:lock"), L1).await?;
        ctx.lock_at(site!("order:lock"), L2).await?;
        ctx.sleep_on(site!("order:nap"), QX, 10).await?;
        Ok(())
    });
    let waiter = |tid: usize, lock: u64| {
        let replies = replies.clone();
        job(move |ctx| async move {
            ctx.lock_at(site!("order:lock"), lock).await?;
            replies.note(tid, &format!("lock {}", name(lock)), 0);
            ctx.unlock_at(site!("order:unlock"), lock).await?;
            Ok(())
        })
    };
    let r = run(
        vec![holder, waiter(1, L2), waiter(2, L1), waiter(3, L2)],
        &mut Highest,
    );
    assert_eq!(
        events(&r),
        [
            "1 t0 LockAcquire L1 0 order:lock",
            "2 t0 LockAcquire L2 0 order:lock",
            "3 t0 SleepCommit QX 10 order:nap",
            "13 t0 SleepTimeout QX 0 order:nap",
            "14 t0 LockRelease L1 0 thread_exit",
            "14 t2 LockAcquire L1 0 order:lock",
            "14 t0 LockRelease L2 0 thread_exit",
            "14 t3 LockAcquire L2 0 order:lock",
            "15 t3 LockRelease L2 0 order:unlock",
            "15 t1 LockAcquire L2 0 order:lock",
            "17 t2 LockRelease L1 0 order:unlock",
            "19 t1 LockRelease L2 0 order:unlock",
        ]
    );
    assert_eq!(
        replies.take(),
        ["t3 lock L2=0", "t2 lock L1=0", "t1 lock L2=0"]
    );
    assert_eq!(
        r.console,
        [
            format!("WARNING: thread 0 exited holding lock {L1:#x}"),
            format!("WARNING: thread 0 exited holding lock {L2:#x}"),
        ]
    );
}
