//! End-to-end tests of the execution coordinator: scheduling, locks, RCU,
//! faults, liveness, and determinism.

use sb_vmm::exec::{job, ExecLimits, Executor, Job, Outcome};
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::{FreeRun, RandomSched, Scheduler};
use sb_vmm::{site, AccessKind, Fault};

/// Boots a memory with one 8-byte cell preallocated at a fixed address.
fn mem_with_cell() -> (GuestMem, u64) {
    let mut m = GuestMem::new();
    let a = m.kmalloc(8).unwrap();
    (m, a)
}

#[test]
fn single_thread_runs_to_completion() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move {
            ctx.write_u64(site!("t:w"), cell, 5).await?;
            assert_eq!(ctx.read_u64(site!("t:r"), cell).await?, 5);
            Ok(())
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.report.trace.len(), 2);
    assert_eq!(r.report.thread_faults, vec![None]);
    // Memory survives the run.
    assert_eq!(r.mem.read(cell, 8).unwrap(), 5);
}

#[test]
fn trace_records_access_features() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move {
            ctx.write(site!("feat:w"), cell, 4, 0xDEAD_BEEF).await?;
            ctx.read(site!("feat:r"), cell + 2, 2).await?;
            Ok(())
        })],
        &mut FreeRun,
    );
    let w = &r.report.trace[0];
    assert_eq!(w.kind, AccessKind::Write);
    assert_eq!(w.len, 4);
    assert_eq!(w.value, 0xDEAD_BEEF);
    let rd = &r.report.trace[1];
    assert_eq!(rd.kind, AccessKind::Read);
    assert_eq!(rd.addr, cell + 2);
    // Little-endian projection: bytes 2..4 of DEADBEEF are AD DE.
    assert_eq!(rd.value, 0xDEAD);
}

#[test]
fn locks_provide_mutual_exclusion() {
    // Two threads increment a counter 100 times each under a lock; no lost
    // updates even under an aggressive random scheduler.
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let counter = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let bump = move |name: &'static str| -> Job {
        job(move |ctx| async move {
            for _ in 0..100 {
                ctx.lock(lock).await?;
                let v = ctx.read_u64(site!(name), counter).await?;
                ctx.write_u64(site!(name), counter, v + 1).await?;
                ctx.unlock(lock).await?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(42, 0.3);
    let r = exec.run(m, vec![bump("lk:a"), bump("lk:b")], &mut sched);
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.mem.read(counter, 8).unwrap(), 200);
    assert!(r.report.switches > 0, "random scheduler should preempt");
}

#[test]
fn unlocked_counter_loses_updates_under_preemption() {
    // The mirror image of the previous test: without the lock, read-modify-
    // write pairs interleave and updates are lost — the fundamental
    // mechanism behind every data-race bug in the corpus.
    let mut m = GuestMem::new();
    let counter = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let bump = move |name: &'static str| -> Job {
        job(move |ctx| async move {
            for _ in 0..100 {
                let v = ctx.read_u64(site!(name), counter).await?;
                ctx.write_u64(site!(name), counter, v + 1).await?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(7, 0.5);
    let r = exec.run(m, vec![bump("nolk:a"), bump("nolk:b")], &mut sched);
    assert_eq!(r.report.outcome, Outcome::Completed);
    let v = r.mem.read(counter, 8).unwrap();
    assert!(v < 200, "expected lost updates, got {v}");
}

#[test]
fn contended_lock_blocks_and_hands_over() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    // Thread A takes the lock, writes, unlocks. Thread B spins on the same
    // lock. A scheduler that immediately switches to B forces B to block.
    struct SwitchOnce {
        done: bool,
    }
    impl Scheduler for SwitchOnce {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            !std::mem::replace(&mut self.done, true)
        }
        fn pick(&mut self, _prev: usize, c: &[usize]) -> usize {
            c[0]
        }
    }
    let r = exec.run(
        m,
        vec![
            job(move |ctx| async move {
                ctx.lock(lock).await?;
                ctx.write_u64(site!("ho:a1"), data, 1).await?;
                ctx.write_u64(site!("ho:a2"), data, 2).await?;
                ctx.unlock(lock).await?;
                Ok(())
            }),
            job(move |ctx| async move {
                ctx.lock(lock).await?;
                let v = ctx.read_u64(site!("ho:b"), data).await?;
                assert_eq!(v, 2, "B must only enter after A's critical section");
                ctx.unlock(lock).await?;
                Ok(())
            }),
        ],
        &mut SwitchOnce { done: false },
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
}

#[test]
fn abba_deadlock_is_detected() {
    let mut m = GuestMem::new();
    let la = m.kmalloc(8).unwrap();
    let lb = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    // Force a switch after the first access so both threads grab their first
    // lock before trying the second.
    let mut sched = RandomSched::new(999, 1.0);
    let r = exec.run(
        m,
        vec![
            job(move |ctx| async move {
                ctx.lock(la).await?;
                ctx.read_u64(site!("dl:a"), data).await?;
                ctx.lock(lb).await?;
                ctx.unlock(lb).await?;
                ctx.unlock(la).await?;
                Ok(())
            }),
            job(move |ctx| async move {
                ctx.lock(lb).await?;
                ctx.read_u64(site!("dl:b"), data).await?;
                ctx.lock(la).await?;
                ctx.unlock(la).await?;
                ctx.unlock(lb).await?;
                Ok(())
            }),
        ],
        &mut sched,
    );
    assert_eq!(r.report.outcome, Outcome::Deadlock);
    // Both threads unwound with abort faults.
    assert!(r
        .report
        .thread_faults
        .iter()
        .all(|f| matches!(f, Some(Fault::Aborted))));
}

#[test]
fn rcu_synchronize_waits_for_readers() {
    let mut m = GuestMem::new();
    let data = m.kmalloc(8).unwrap();
    m.write(data, 8, 1).unwrap();
    let mut exec = Executor::new(2);
    // Reader enters an RCU section, then the writer calls synchronize_rcu:
    // the writer must block until the reader exits.
    struct Handoff;
    impl Scheduler for Handoff {
        fn after_access(&mut self, _t: usize, _a: &sb_vmm::Access) -> bool {
            true
        }
        fn pick(&mut self, prev: usize, c: &[usize]) -> usize {
            *c.iter().find(|t| **t != prev).unwrap_or(&c[0])
        }
    }
    let r = exec.run(
        m,
        vec![
            job(move |ctx| async move {
                ctx.rcu_read_lock().await?;
                let v = ctx.read_u64(site!("rcu:r1"), data).await?;
                // Yield point; writer runs and blocks in synchronize_rcu.
                let v2 = ctx.read_u64(site!("rcu:r2"), data).await?;
                // Inside one RCU section the writer cannot free/overwrite.
                assert_eq!(v, v2);
                ctx.rcu_read_unlock().await?;
                Ok(())
            }),
            job(move |ctx| async move {
                ctx.read_u64(site!("rcu:w0"), data).await?;
                ctx.synchronize_rcu().await?;
                ctx.write_u64(site!("rcu:w1"), data, 2).await?;
                Ok(())
            }),
        ],
        &mut Handoff,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.mem.read(data, 8).unwrap(), 2);
}

#[test]
fn null_dereference_panics_with_console_bug_line() {
    let (mem, _cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move {
            let ptr = 0u64; // Simulated uninitialized pointer field.
            ctx.read_u64(site!("null:deref"), ptr + 8).await?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("BUG: kernel NULL pointer dereference"));
    assert!(matches!(
        r.report.thread_faults[0],
        Some(Fault::NullDeref { .. })
    ));
}

#[test]
fn wild_pointer_panics_with_page_fault_line() {
    let (mem, _cell) = mem_with_cell();
    let mut exec = Executor::new(1);
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move {
            // Offset from null beyond the first page: "unable to handle
            // page fault", like paper bug #1.
            ctx.read_u64(site!("wild:deref"), 0x2000).await?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("unable to handle page fault"));
}

#[test]
fn explicit_oops_aborts_all_threads() {
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let r = exec.run(
        mem,
        vec![
            job(move |ctx| async move {
                ctx.read_u64(site!("oops:pre"), cell).await?;
                Err(ctx.oops("BUG: explicit panic for test").await)
            }),
            job(move |ctx| async move {
                for _ in 0..1000 {
                    ctx.read_u64(site!("oops:other"), cell).await?;
                }
                Ok(())
            }),
        ],
        &mut FreeRun,
    );
    assert!(r.report.outcome.is_panic());
    assert!(r.report.console_contains("explicit panic"));
    // The second thread must have been aborted early, not run to completion.
    assert!(matches!(r.report.thread_faults[1], Some(Fault::Aborted)));
}

#[test]
fn livelock_budget_trips() {
    let (mem, cell) = mem_with_cell();
    let limits = ExecLimits {
        max_steps: 500,
        max_thread_steps: 400,
        spin_limit: 16,
    };
    let mut exec = Executor::with_limits(1, limits);
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move {
            loop {
                ctx.read_u64(site!("ll:spin"), cell).await?;
            }
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Livelock);
}

#[test]
fn spin_detection_forces_preemption() {
    // A seqlock-style retry loop on one thread must not starve the other:
    // the spin heuristic preempts it so the writer can make progress.
    let mut m = GuestMem::new();
    let flag = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(2);
    let r = exec.run(
        m,
        vec![
            job(move |ctx| async move {
                // Wait until the flag flips; pure spin.
                while ctx.read_u64(site!("spin:poll"), flag).await? == 0 {}
                Ok(())
            }),
            job(move |ctx| async move {
                ctx.write_u64(site!("spin:set"), flag, 1).await?;
                Ok(())
            }),
        ],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
}

#[test]
fn executor_is_reusable_across_runs() {
    let mut exec = Executor::new(2);
    for round in 0..20u64 {
        let (mem, cell) = mem_with_cell();
        let r = exec.run(
            mem,
            vec![
                job(move |ctx| async move {
                    ctx.write_u64(site!("reuse:w"), cell, round).await?;
                    Ok(())
                }),
                job(move |ctx| async move {
                    ctx.read_u64(site!("reuse:r"), cell).await?;
                    Ok(())
                }),
            ],
            &mut RandomSched::new(round, 0.4),
        );
        assert_eq!(r.report.outcome, Outcome::Completed, "round {round}");
    }
}

#[test]
fn identical_seeds_give_identical_traces() {
    let run = |seed: u64| {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        let b = m.kmalloc(8).unwrap();
        let mut exec = Executor::new(2);
        let r = exec.run(
            m,
            vec![
                job(move |ctx| async move {
                    for i in 0..50 {
                        ctx.write_u64(site!("det:w"), a, i).await?;
                        ctx.read_u64(site!("det:rb"), b).await?;
                    }
                    Ok(())
                }),
                job(move |ctx| async move {
                    for i in 0..50 {
                        ctx.write_u64(site!("det:wb"), b, i).await?;
                        ctx.read_u64(site!("det:ra"), a).await?;
                    }
                    Ok(())
                }),
            ],
            &mut RandomSched::new(seed, 0.35),
        );
        r.report
            .trace
            .iter()
            .map(|a| (a.thread, a.site, a.addr, a.value))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12), "different seeds should interleave differently");
}

#[test]
fn locks_are_recorded_on_accesses() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let data = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(1);
    let r = exec.run(
        m,
        vec![job(move |ctx| async move {
            ctx.read_u64(site!("lkrec:out"), data).await?;
            ctx.with_lock(lock, async {
                ctx.read_u64(site!("lkrec:in"), data).await?;
                Ok(())
            })
            .await?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert_eq!(r.report.trace[0].locks, Vec::<u64>::new());
    assert_eq!(r.report.trace[1].locks, vec![lock]);
}

#[test]
fn double_unlock_is_a_lock_error() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let mut exec = Executor::new(1);
    let r = exec.run(
        m,
        vec![job(move |ctx| async move {
            ctx.lock(lock).await?;
            ctx.unlock(lock).await?;
            ctx.unlock(lock).await?;
            Ok(())
        })],
        &mut FreeRun,
    );
    assert!(matches!(
        r.report.thread_faults[0],
        Some(Fault::LockError { .. })
    ));
}

#[test]
fn rust_panic_in_a_job_body_unwinds_out_of_try_run() {
    // A Rust panic inside a job body is a bug in the kernel model, not
    // something the simulated kernel did: it must reach the caller instead
    // of being reported as a thread that completed without a fault.
    let (mem, cell) = mem_with_cell();
    let mut exec = Executor::new(2);
    let bystander = job(move |ctx| async move {
        for _ in 0..10 {
            ctx.read_u64(site!("rp:bystander"), cell).await?;
        }
        Ok(())
    });
    let buggy = job(move |ctx| async move {
        ctx.write_u64(site!("rp:before"), cell, 1).await?;
        panic!("kernel-model bug in a job body");
    });
    let mut sched = RandomSched::new(3, 0.5);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.try_run(mem, vec![bystander, buggy], &mut sched).map(|r| r.report)
    }));
    let payload = caught.expect_err("the panic must unwind out of try_run");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("kernel-model bug in a job body")
    );

    // The executor keeps nothing between runs, so the same one still works.
    let (mem, cell) = mem_with_cell();
    let r = exec.run(
        mem,
        vec![job(move |ctx| async move { ctx.write_u64(site!("rp:after"), cell, 2).await })],
        &mut FreeRun,
    );
    assert_eq!(r.report.outcome, Outcome::Completed);
    assert_eq!(r.report.thread_faults, vec![None]);
}
