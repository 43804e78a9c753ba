//! Executor tests with three and four vCPUs: lock fairness, RCU with
//! multiple readers, and scheduling across more than two threads.

use sb_vmm::exec::{job, Executor, Job, Outcome};
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::{RandomSched, Scheduler};
use sb_vmm::site;

#[test]
fn four_threads_increment_under_one_lock() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let counter = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(4);
    let bump = move |name: &'static str| -> Job {
        job(move |ctx| async move {
            for _ in 0..50 {
                ctx.with_lock(lock, async {
                    let v = ctx.read_u64(site!(name), counter).await?;
                    ctx.write_u64(site!(name), counter, v + 1).await?;
                    Ok(())
                })
                .await?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(5, 0.3);
    let r = exec.run(
        m,
        vec![bump("m4:a"), bump("m4:b"), bump("m4:c"), bump("m4:d")],
        &mut sched,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.mem.read(counter, 8).unwrap(), 200);
}

#[test]
fn lock_waiters_are_served_fifo() {
    // Three threads contend on one lock; the coordinator hands the lock to
    // waiters in arrival order, so with a scheduler that parks each thread
    // at the lock in id order, the critical sections execute in id order.
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let log = m.kmalloc(64).unwrap();
    let cursor = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(3);

    /// Round-robins aggressively so every thread reaches the lock before
    /// the holder finishes.
    struct RoundRobin;
    impl Scheduler for RoundRobin {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            true
        }
        fn pick(&mut self, prev: usize, c: &[usize]) -> usize {
            *c.iter().find(|t| **t > prev).unwrap_or(&c[0])
        }
    }

    let logger = move |tid: u64| -> Job {
        job(move |ctx| async move {
            // One access so every thread is live before contending.
            ctx.read_u64(site!("fifo:warm"), cursor).await?;
            ctx.with_lock(lock, async {
                let c = ctx.read_u64(site!("fifo:cursor"), cursor).await?;
                ctx.write_u8(site!("fifo:log"), log + c, tid).await?;
                ctx.write_u64(site!("fifo:cursor"), cursor, c + 1).await?;
                // Dawdle inside the critical section.
                for _ in 0..5 {
                    ctx.read_u64(site!("fifo:dawdle"), cursor).await?;
                }
                Ok(())
            })
            .await?;
            Ok(())
        })
    };
    let r = exec.run(m, vec![logger(10), logger(11), logger(12)], &mut RoundRobin);
    assert_eq!(r.report.outcome, Outcome::Completed);
    let order: Vec<u64> = (0..3).map(|i| r.mem.read(log + i, 1).unwrap()).collect();
    // Thread 0 wins the lock first (it runs first); 1 and 2 queue in order.
    assert_eq!(order, vec![10, 11, 12]);
}

#[test]
fn rcu_grace_period_waits_for_all_readers() {
    let mut m = GuestMem::new();
    let data = m.kmalloc(8).unwrap();
    m.write(data, 8, 7).unwrap();
    let flag = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(3);

    struct Handoff;
    impl Scheduler for Handoff {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            true
        }
        fn pick(&mut self, prev: usize, c: &[usize]) -> usize {
            *c.iter().find(|t| **t != prev).unwrap_or(&c[0])
        }
    }

    let reader = move |name: &'static str| -> Job {
        job(move |ctx| async move {
            ctx.rcu_read_lock().await?;
            let v1 = ctx.read_u64(site!(name), data).await?;
            // Several yield points inside the critical section.
            for _ in 0..4 {
                ctx.read_u64(site!(name), flag).await?;
            }
            let v2 = ctx.read_u64(site!(name), data).await?;
            assert_eq!(v1, v2, "grace period must not complete while we read");
            ctx.rcu_read_unlock().await?;
            Ok(())
        })
    };
    let writer: Job = job(move |ctx| async move {
        ctx.read_u64(site!("rcu3:w0"), flag).await?;
        ctx.synchronize_rcu().await?;
        ctx.write_u64(site!("rcu3:w1"), data, 99).await?;
        Ok(())
    });
    let r = exec.run(
        m,
        vec![reader("rcu3:r1"), reader("rcu3:r2"), writer],
        &mut Handoff,
    );
    assert_eq!(r.report.outcome, Outcome::Completed, "{:?}", r.report.console);
    assert_eq!(r.mem.read(data, 8).unwrap(), 99);
}

#[test]
fn three_thread_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut m = GuestMem::new();
        let cells: Vec<u64> = (0..3).map(|_| m.kmalloc(8).unwrap()).collect();
        let mut exec = Executor::new(3);
        let jobs: Vec<Job> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mine = *c;
                let other = cells[(i + 1) % 3];
                job(move |ctx| async move {
                    for k in 0..25u64 {
                        ctx.write_u64(site!("det3:w"), mine, k).await?;
                        ctx.read_u64(site!("det3:r"), other).await?;
                    }
                    Ok(())
                }) as Job
            })
            .collect();
        let mut sched = RandomSched::new(seed, 0.4);
        let r = exec.run(m, jobs, &mut sched);
        r.report
            .trace
            .iter()
            .map(|a| (a.thread, a.addr, a.value))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn panic_in_one_of_four_threads_aborts_the_rest() {
    let mut m = GuestMem::new();
    let cell = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(4);
    let spinner = move |name: &'static str| -> Job {
        job(move |ctx| async move {
            for _ in 0..100_000 {
                ctx.read_u64(site!(name), cell).await?;
            }
            Ok(())
        })
    };
    let crasher: Job = job(move |ctx| async move {
        ctx.read_u64(site!("p4:pre"), cell).await?;
        ctx.read_u64(site!("p4:null"), 0x8).await?; // Null dereference.
        Ok(())
    });
    let mut sched = RandomSched::new(1, 0.5);
    let r = exec.run(
        m,
        vec![spinner("p4:a"), crasher, spinner("p4:c"), spinner("p4:d")],
        &mut sched,
    );
    assert!(r.report.outcome.is_panic());
    // No other thread ran to completion after the panic: each was aborted.
    let aborted = r
        .report
        .thread_faults
        .iter()
        .filter(|f| matches!(f, Some(sb_vmm::Fault::Aborted)))
        .count();
    assert!(aborted >= 1, "{:?}", r.report.thread_faults);
}
