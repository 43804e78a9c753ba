//! Allocation budget of the hot paths, counted: what a trial, a lock
//! operation, a wake or a sleep, a race scan, a profiled program, a whole
//! prepare and a round of selections may ask of the allocator.
//!
//! A counting `#[global_allocator]` over `System` tallies requests per
//! thread, so the tests here can run side by side — and so a one-worker
//! campaign or profile pass that moved its work off the calling thread would
//! count next to nothing and fail the lower bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sb_kernel::{boot, KernelConfig};
use sb_vmm::exec::{job, Job};
use sb_vmm::sched::FreeRun;
use sb_vmm::{site, Executor, GuestMem};
use snowboard::cluster::Strategy;
use snowboard::profile::profile_corpus;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Catalog, Pipeline, PipelineCfg};

struct Counting;

thread_local! {
    /// (requests, bytes requested) by this thread.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread frees and allocates while its locals are torn down.
    let _ = REQUESTED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` requested on this thread: (allocations, bytes), with its value.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    let after = REQUESTED.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// `hunt --seed 2021 --workers 1` up to the campaign.
fn hunt_pipeline() -> Pipeline {
    Pipeline::prepare(
        KernelConfig::v5_12_rc3(),
        PipelineCfg {
            seed: 2021,
            corpus_target: 100,
            fuzz_budget: 1500,
            workers: 1,
            catalog: Catalog::Extended,
            ..PipelineCfg::default()
        },
    )
}

/// Allocations per trial of the second of two equal one-worker campaigns
/// over the first `jobs` S-INS-PAIR exemplars.
fn allocations_per_trial(p: &Pipeline, jobs: usize, cfg: &CampaignCfg) -> f64 {
    let mut exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    exemplars.truncate(jobs);
    let warm_up = p.campaign(&exemplars, cfg).expect("campaign");
    let ((allocations, _), report) = counted(|| p.campaign(&exemplars, cfg).expect("campaign"));
    assert_eq!(report, warm_up);
    assert!(
        report.executions >= 500,
        "only {} trials",
        report.executions
    );
    allocations as f64 / report.executions as f64
}

#[test]
fn a_trial_stays_within_its_allocation_budget() {
    let p = hunt_pipeline();
    let base = CampaignCfg {
        seed: 2021,
        workers: 1,
        ..CampaignCfg::default()
    };
    // The `hunt` shape: every exemplar, 24 trials, stop on a finding.
    let hunt = allocations_per_trial(
        &p,
        usize::MAX,
        &CampaignCfg {
            trials_per_pmc: 24,
            stop_on_finding: true,
            ..base.clone()
        },
    );
    assert!(
        (20.0..=HUNT_BUDGET).contains(&hunt),
        "{hunt:.1} allocations per trial on the hunt shape; measured {HUNT_MEASURED} when the \
         budget of {HUNT_BUDGET} was set ({HUNT_PARENT} while the executor built lock and wait \
         maps per run; {HUNT_FIRST} when every trial rendered its races, the race scan sorted a \
         copy of the trace and the lock-rule miner kept a vector per address; far below 20 means \
         the one worker is not this thread)"
    );
    // The `trials-hot` shape: 64 exemplars x 16 trials, findings or not.
    let hot = allocations_per_trial(
        &p,
        64,
        &CampaignCfg {
            trials_per_pmc: 16,
            stop_on_finding: false,
            ..base
        },
    );
    assert!(
        (20.0..=HOT_BUDGET).contains(&hot),
        "{hot:.1} allocations per trial on the trials-hot shape; measured {HOT_MEASURED} when \
         the budget of {HOT_BUDGET} was set ({HOT_PARENT} at its parent, {HOT_FIRST} before the \
         change that set the first budget)"
    );
}

/// Measured at the change that set these budgets and at its parent; the
/// first budgets were set at 40.1 and 29.2 (from 59.7 and 47.6). The change
/// took the executor's per-run lock-owner, lock-waiter, prepared and sleeper
/// maps out (1.7 and 1.6 per trial); what is left of the executor's run is
/// the two boxed thread futures and the job closures.
const HUNT_MEASURED: f64 = 38.4;
const HUNT_PARENT: f64 = 40.1;
const HUNT_FIRST: f64 = 59.7;
const HUNT_BUDGET: f64 = HUNT_MEASURED + 2.0;
const HOT_MEASURED: f64 = 27.6;
const HOT_PARENT: f64 = 29.2;
const HOT_FIRST: f64 = 47.6;
const HOT_BUDGET: f64 = HOT_MEASURED + 2.0;

#[test]
fn a_trial_whose_threads_share_no_memory_allocates_nothing_in_the_race_scan() {
    use sb_vmm::access::{Access, AccessKind};
    // Two threads taking turns, each on its own words: a switch every third
    // access, a write among every three, nothing that overlaps across threads.
    let trace: Vec<Access> = (0..90u64)
        .map(|seq| {
            let thread = (seq / 3 % 2) as usize;
            Access {
                seq,
                thread,
                site: site!("alloc_budget:apart"),
                kind: if seq % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: 0x2000 + 0x100 * thread as u64 + 8 * (seq % 5),
                len: 8,
                value: seq,
                atomic: false,
                locks: vec![].into(),
                rcu_depth: 0,
            }
        })
        .collect();
    let ((allocations, _), races) = counted(|| sb_detect::detect_races(&trace));
    assert!(races.is_empty());
    assert_eq!(
        allocations, 0,
        "29 switches, no race: nothing to collect (6 with the sorted scan)"
    );
    // The same trial with the two threads on the same words does collect.
    let shared = |a: Access| Access {
        addr: 0x2000 + 8 * (a.seq % 5),
        ..a
    };
    let together: Vec<Access> = trace.iter().cloned().map(shared).collect();
    assert!(!sb_detect::detect_races(&together).is_empty());
}

/// One thread: under an outer lock, `pairs` times take an inner lock, write
/// a word, release it.
fn locking_job(outer: u64, inner: u64, cell: u64, pairs: u64) -> Vec<Job> {
    vec![job(move |ctx| async move {
        ctx.lock(outer).await?;
        for i in 0..pairs {
            ctx.lock(inner).await?;
            ctx.write_u64(site!("alloc_budget:store"), cell, i).await?;
            ctx.unlock(inner).await?;
        }
        ctx.unlock(outer).await
    })]
}

#[test]
fn lock_operations_allocate_nothing_per_acquire_or_release() {
    let mut mem = GuestMem::new();
    let [outer, inner, cell] = [(); 3].map(|()| mem.kmalloc(8).expect("guest heap"));
    let mut exec = Executor::new(1);
    let mut run = |pairs: u64| {
        let ((allocations, _), r) = counted(|| {
            exec.run(
                mem.clone(),
                locking_job(outer, inner, cell, pairs),
                &mut FreeRun,
            )
        });
        assert!(r.report.outcome.is_completed());
        assert_eq!(r.report.trace.len() as u64, pairs);
        assert_eq!(r.report.trace[0].locks, vec![outer, inner]);
        assert_eq!(r.report.sync_events.len() as u64, 2 * (pairs + 1));
        // The next run records into this one's buffers.
        exec.recycle(r);
        allocations
    };
    run(50);
    let (one, fifty) = (run(1), run(50));
    assert_eq!(
        fifty, one,
        "a run with 50 lock pairs allocated {fifty} times, the same run with one {one} times \
         (measured: 9 and 9; 10 and 10 while the executor kept a lock-owner map, 112 and 14 when \
         the set was a shared, copied-on-write vector)"
    );
}

/// One thread, `rounds` times: register on a wait queue, wake it (nobody
/// sleeps, so the wakeup is banked on the registered thread), commit — which
/// the banked wakeup turns into an immediate return — then sleep on the queue
/// with nobody left to wake it, until the timeout releases the sleeper.
fn waking_job(queue: u64, rounds: u64) -> Vec<Job> {
    vec![job(move |ctx| async move {
        for _ in 0..rounds {
            ctx.wait_prepare(site!("alloc_budget:prepare"), queue)
                .await?;
            ctx.wake_all(site!("alloc_budget:wake"), queue).await?;
            ctx.wait_commit(site!("alloc_budget:commit"), queue, 3)
                .await?;
            ctx.sleep_on(site!("alloc_budget:sleep"), queue, 3).await?;
        }
        Ok(())
    })]
}

#[test]
fn wakes_and_sleeps_allocate_nothing_per_round() {
    let mut mem = GuestMem::new();
    let queue = mem.kmalloc(8).expect("guest heap");
    let mut exec = Executor::new(1);
    let mut run = |rounds: u64| {
        let ((allocations, _), r) =
            counted(|| exec.run(mem.clone(), waking_job(queue, rounds), &mut FreeRun));
        assert!(r.report.outcome.is_completed());
        // Prepare, wake, cancelled commit; commit, timeout.
        assert_eq!(r.report.sync_events.len() as u64, 5 * rounds);
        exec.recycle(r);
        allocations
    };
    run(50);
    let (one, fifty) = (run(1), run(50));
    assert_eq!(
        fifty, one,
        "a run with 50 wake/sleep rounds allocated {fifty} times, the same run with one {one} \
         times (measured: 11 and 11; 14 and 14 while the executor kept its prepared and sleeper \
         maps, 263 and 18 when a wake copied the queue's prepared list and every step with a \
         sleeper collected the queue keys and rebuilt each queue)"
    );
}

#[test]
fn a_profile_pass_allocates_in_proportion_to_what_it_keeps() {
    let booted = boot(KernelConfig::v5_12_rc3());
    let (corpus, _) = sb_fuzz::build_corpus_with(&booted, 2021, 100, 1500, Catalog::Extended);
    profile_corpus(&booted, &corpus, 1);
    let ((allocations, bytes), profiles) = counted(|| profile_corpus(&booted, &corpus, 1));
    assert_eq!(profiles.len(), corpus.len());
    let per_program = bytes as f64 / corpus.len() as f64;
    assert!(
        (1024.0..24.0 * 1024.0).contains(&per_program),
        "a profile pass requested {per_program:.0} bytes per program in {:.1} allocations \
         (measured 13.7 KB in 17.1; 68.4 KB in 28.5 when every program recorded into a fresh \
         1 024-access trace; far below 1 KB means the one worker is not this thread)",
        allocations as f64 / corpus.len() as f64
    );
}

#[test]
fn a_prepare_and_its_selections_stay_within_their_allocation_budgets() {
    hunt_pipeline();
    let ((prepare, _), p) = counted(hunt_pipeline);
    assert_eq!(p.profiles.len(), p.corpus.len());
    assert!(
        (PREPARE_FLOOR..=PREPARE_BUDGET).contains(&prepare),
        "a hunt-scale prepare asked for {prepare} allocations; measured {PREPARE_MEASURED} when \
         the budget of {PREPARE_BUDGET} was set ({PREPARE_PARENT} = 4 017 fuzz + 1 689 profile + \
         2 885 identify while every kept program ran twice, coverage built a set per candidate \
         and the join a hash set and a hash map per profile; below {PREPARE_FLOOR} means the \
         one worker is not this thread)"
    );
    let ((select, _), picks) = counted(|| {
        snowboard::cluster::ALL_STRATEGIES.map(|s| p.exemplars(s, ClusterOrder::UncommonFirst))
    });
    assert!(picks.iter().all(|ids| !ids.is_empty()));
    assert!(
        (8..=SELECT_BUDGET).contains(&select),
        "eight selections asked for {select} allocations; measured {SELECT_MEASURED} when the \
         budget of {SELECT_BUDGET} was set ({SELECT_PARENT} while a key list was a vector per PMC, \
         a cluster a vector and its candidates another)"
    );
}

/// Measured at the change that set these budgets and at its parent.
const PREPARE_MEASURED: u64 = 4_911;
const PREPARE_PARENT: u64 = 8_591;
const PREPARE_BUDGET: u64 = 5_200;
const PREPARE_FLOOR: u64 = 3_000;
const SELECT_MEASURED: u64 = 76;
const SELECT_PARENT: u64 = 5_111;
const SELECT_BUDGET: u64 = 120;
