//! Semantics of the wait-queue / wakeup / atomic-context primitives and
//! the recorded `SyncEvent` stream.

use sb_vmm::exec::{job, Executor, Job};
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::{FreeRun, RandomSched};
use sb_vmm::site;
use sb_vmm::sync::SyncKind;

const Q: u64 = 0xABCD;

fn run(jobs: Vec<Job>) -> sb_vmm::ExecReport {
    let mut exec = Executor::new(jobs.len());
    exec.run(GuestMem::new(), jobs, &mut FreeRun).report
}

fn kinds(r: &sb_vmm::ExecReport) -> Vec<SyncKind> {
    r.sync_events.iter().map(|e| e.kind).collect()
}

#[test]
fn lock_events_carry_site_and_identity() {
    let r = run(vec![job(|ctx| async move {
        let l = ctx.kmalloc(8).await?;
        ctx.with_lock_at(site!("sync_test:my_lock"), l, async { Ok(()) })
            .await?;
        Ok(())
    })]);
    assert!(r.outcome.is_completed());
    let ev: Vec<_> = r
        .sync_events
        .iter()
        .filter(|e| matches!(e.kind, SyncKind::LockAcquire | SyncKind::LockRelease))
        .collect();
    assert_eq!(ev.len(), 2);
    assert_eq!(ev[0].kind, SyncKind::LockAcquire);
    assert_eq!(ev[1].kind, SyncKind::LockRelease);
    assert_eq!(ev[0].obj, ev[1].obj);
    assert_eq!(ev[0].site.display_name(), "sync_test:my_lock");
}

#[test]
fn contended_lock_records_acquire_at_grant() {
    // Two threads on one lock: exactly two acquires and two releases, and
    // each acquire precedes its thread's release.
    let mk = |name: &'static str| -> Job {
        job(move |ctx| async move {
            // Both threads use the same well-known low heap cell as lock:
            // first kmalloc in each thread returns a distinct address, so
            // use a fixed address in the shared data region instead.
            ctx.with_lock_at(site!(name), 0x40_0000, async { Ok(()) })
                .await?;
            Ok(())
        })
    };
    let r = run(vec![mk("sync_test:a"), mk("sync_test:b")]);
    assert!(r.outcome.is_completed());
    let acqs = r
        .sync_events
        .iter()
        .filter(|e| e.kind == SyncKind::LockAcquire)
        .count();
    let rels = r
        .sync_events
        .iter()
        .filter(|e| e.kind == SyncKind::LockRelease)
        .count();
    assert_eq!((acqs, rels), (2, 2));
}

#[test]
fn prepared_sleeper_banks_wakeup_and_never_blocks() {
    // Thread 0 prepares then commits; thread 1 wakes in between under
    // FreeRun (t0 runs to its block point first only if it commits — but
    // with prepare, a wake delivered while prepared satisfies the commit).
    // Run single-threaded to force the exact order: prepare, wake, commit.
    let r = run(vec![job(|ctx| async move {
        ctx.wait_prepare(site!("sync_test:prep"), Q).await?;
        let n = ctx.wake_one(site!("sync_test:wake"), Q).await?;
        assert_eq!(n, 1, "wake reaches the prepared thread");
        let woken = ctx
            .wait_commit(site!("sync_test:commit"), Q, 10_000)
            .await?;
        assert!(woken, "banked wakeup satisfies the commit");
        Ok(())
    })]);
    assert!(r.outcome.is_completed());
    let k = kinds(&r);
    assert!(k.contains(&SyncKind::SleepPrepare));
    assert!(k.contains(&SyncKind::SleepCancel));
    assert!(!k.contains(&SyncKind::SleepCommit), "never actually slept");
}

#[test]
fn unprepared_sleep_loses_the_wakeup_and_times_out() {
    // The racy primitive: wake first, then sleep_on. The signal is lost
    // and the sleeper only returns via timeout.
    let r = run(vec![job(|ctx| async move {
        let n = ctx.wake_one(site!("sync_test:early_wake"), Q).await?;
        assert_eq!(n, 0, "nobody is listening: signal lost");
        let woken = ctx.sleep_on(site!("sync_test:late_sleep"), Q, 64).await?;
        assert!(!woken, "sleep can only time out");
        Ok(())
    })]);
    assert!(
        r.outcome.is_completed(),
        "timeout prevents a deadlock verdict"
    );
    let k = kinds(&r);
    assert!(k.contains(&SyncKind::SleepCommit));
    assert!(k.contains(&SyncKind::SleepTimeout));
    let wake = r
        .sync_events
        .iter()
        .find(|e| e.kind == SyncKind::Wake)
        .expect("wake recorded");
    assert_eq!(wake.arg, 0, "delivery count zero = lost signal");
}

#[test]
fn live_wakeup_releases_a_committed_sleeper() {
    let sleeper: Job = job(|ctx| async move {
        let woken = ctx.sleep_on(site!("sync_test:sleeper"), Q, 100_000).await?;
        assert!(woken, "released by the waker, not the timeout");
        Ok(())
    });
    let waker: Job = job(|ctx| async move {
        // Burn a few accesses so the sleeper commits first under FreeRun.
        let a = ctx.kmalloc(8).await?;
        for i in 0..4 {
            ctx.write_u64(site!("sync_test:spin"), a, i).await?;
        }
        ctx.wake_all(site!("sync_test:waker"), Q).await?;
        Ok(())
    });
    let r = run(vec![sleeper, waker]);
    assert!(r.outcome.is_completed());
    let k = kinds(&r);
    assert!(k.contains(&SyncKind::SleepCommit));
    assert!(!k.contains(&SyncKind::SleepTimeout));
}

#[test]
fn atomic_context_nests_and_unbalanced_exit_faults() {
    let r = run(vec![job(|ctx| async move {
        ctx.atomic_enter(site!("sync_test:outer")).await?;
        ctx.atomic_enter(site!("sync_test:inner")).await?;
        ctx.atomic_exit(site!("sync_test:inner")).await?;
        ctx.atomic_exit(site!("sync_test:outer")).await?;
        assert!(ctx.atomic_exit(site!("sync_test:extra")).await.is_err());
        Ok(())
    })]);
    assert!(r.outcome.is_completed());
    let enters = kinds(&r)
        .iter()
        .filter(|k| **k == SyncKind::AtomicEnter)
        .count();
    let exits = kinds(&r)
        .iter()
        .filter(|k| **k == SyncKind::AtomicExit)
        .count();
    assert_eq!((enters, exits), (2, 2));
}

#[test]
fn sleeping_while_holding_a_lock_still_times_out() {
    // A sleeper that parks holding a lock while the peer blocks on that
    // lock: no thread is runnable, but the timed sleep must fast-forward
    // instead of reporting a deadlock.
    let sleeper: Job = job(|ctx| async move {
        ctx.lock_at(site!("sync_test:hold"), 0x40_0000).await?;
        let _ = ctx.sleep_on(site!("sync_test:hold_sleep"), Q, 128).await?;
        ctx.unlock_at(site!("sync_test:hold"), 0x40_0000).await?;
        Ok(())
    });
    let peer: Job = job(|ctx| async move {
        let a = ctx.kmalloc(8).await?;
        for i in 0..4 {
            ctx.write_u64(site!("sync_test:peer_spin"), a, i).await?;
        }
        ctx.with_lock_at(site!("sync_test:hold"), 0x40_0000, async { Ok(()) })
            .await?;
        Ok(())
    });
    let r = run(vec![sleeper, peer]);
    assert!(
        r.outcome.is_completed(),
        "timed sleep fast-forwards, outcome was {:?}",
        r.outcome
    );
    assert!(kinds(&r).contains(&SyncKind::SleepTimeout));
}

#[test]
fn sync_events_are_deterministic_under_a_seeded_scheduler() {
    let jobs = || -> Vec<Job> {
        let sleeper: Job = job(|ctx| async move {
            ctx.wait_prepare(site!("sync_test:d_prep"), Q).await?;
            let _ = ctx.wait_commit(site!("sync_test:d_commit"), Q, 256).await?;
            Ok(())
        });
        let waker: Job = job(|ctx| async move {
            let a = ctx.kmalloc(8).await?;
            ctx.write_u64(site!("sync_test:d_w"), a, 1).await?;
            ctx.wake_one(site!("sync_test:d_wake"), Q).await?;
            Ok(())
        });
        vec![sleeper, waker]
    };
    let mut exec = Executor::new(2);
    let r1 = exec
        .run(GuestMem::new(), jobs(), &mut RandomSched::new(7, 0.3))
        .report;
    let r2 = exec
        .run(GuestMem::new(), jobs(), &mut RandomSched::new(7, 0.3))
        .report;
    assert_eq!(r1.sync_events, r2.sync_events);
}
