//! The in-process fan-out primitive: the calling thread and scoped helper
//! threads over a shared cursor — the stand-in for the paper's distributed
//! queue (§4.4.1) where every worker lives in this process.
//!
//! Each worker owns its own state (an executor — its "machine B") and
//! claims the next unclaimed job index. The calling thread is one of the
//! workers: it hands its own results to `on_result` directly and takes the
//! helpers' off a channel between its jobs, so aggregation never depends on
//! worker scheduling, and one worker means no thread, no channel traffic and
//! no wake-up per job. A panicking job ends its worker and the others drain
//! the remaining jobs: a helper's panic is re-raised by
//! [`std::thread::scope`] once every thread has been joined, the calling
//! thread's own is held until then and resumed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `work` over `jobs` on up to `workers` threads, the calling one
/// included (never more threads than jobs), calling `on_result(index,
/// result)` on the calling thread as each result lands, in completion order.
pub(crate) fn stream_jobs<J, R, S>(
    jobs: &[J],
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &J) -> R + Sync,
    mut on_result: impl FnMut(usize, R),
) where
    J: Sync,
    R: Send,
{
    // SeqCst: the cursor is the only synchronisation between workers, and
    // claiming a job is nowhere near a hot path.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        jobs.get(i).map(|job| (i, job))
    };
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 1..workers.clamp(1, jobs.len().max(1)) {
            let tx = tx.clone();
            let (claim, init, work) = (&claim, &init, &work);
            scope.spawn(move || {
                let mut state = init();
                while let Some((i, job)) = claim() {
                    if tx.send((i, work(&mut state, job))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut state = init();
        let mut own_panic = None;
        while let Some((i, job)) = claim() {
            // Unwinding from here would drop `rx` under the helpers and end
            // them early; hold the panic until they have drained the jobs.
            match catch_unwind(AssertUnwindSafe(|| work(&mut state, job))) {
                Ok(r) => on_result(i, r),
                Err(panic) => {
                    own_panic = Some(panic);
                    break;
                }
            }
            for (i, r) in rx.try_iter() {
                on_result(i, r);
            }
        }
        // Blocks until every helper has dropped its sender.
        for (i, r) in rx {
            on_result(i, r);
        }
        if let Some(panic) = own_panic {
            resume_unwind(panic);
        }
    });
}

/// [`stream_jobs`] collected back into job order.
pub(crate) fn map_jobs<J, R, S>(
    jobs: &[J],
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &J) -> R + Sync,
) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    stream_jobs(jobs, workers, init, work, |i, r| slots[i] = Some(r));
    slots
        .into_iter()
        .map(|r| r.expect("every job reports exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_job_order_whatever_the_worker_count() {
        let jobs: Vec<u64> = (0..500).collect();
        let squares: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [0, 1, 8, 1000] {
            assert_eq!(map_jobs(&jobs, workers, || (), |(), j| j * j), squares);
        }
        assert!(map_jobs(&[] as &[u8], 3, || (), |(), j| *j).is_empty());
    }

    #[test]
    fn each_worker_owns_one_state_and_one_worker_is_sequential() {
        let inits = AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, Ordering::SeqCst);
            0u64
        };
        let running_sum = |acc: &mut u64, j: &u64| {
            *acc += j;
            *acc
        };
        assert_eq!(map_jobs(&[1, 2, 3], 1, init, running_sum), vec![1, 3, 6]);
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        map_jobs(&[1; 64], 4, init, running_sum);
        assert_eq!(inits.load(Ordering::SeqCst), 5, "one state per spawned worker");
    }

    #[test]
    fn one_worker_is_the_calling_thread_and_four_are_three_helpers() {
        let caller = std::thread::current().id();
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::SeqCst);
        let ran_on = map_jobs(&[(); 16], 1, init, |_, ()| std::thread::current().id());
        assert!(ran_on.iter().all(|id| *id == caller), "one worker spawns no thread");
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        map_jobs(&[(); 64], 4, init, |_, ()| ());
        assert_eq!(inits.load(Ordering::SeqCst), 1 + 4, "the caller's state and three helpers'");
    }

    #[test]
    fn a_panic_in_a_job_the_caller_claimed_waits_for_the_helper_to_drain() {
        let caller = std::thread::current().id();
        let done = AtomicUsize::new(0);
        // Both workers hold their first job at once; the caller's then
        // panics, with eleven jobs unclaimed and the helper mid-job.
        let both_claimed = std::sync::Barrier::new(2);
        let run = catch_unwind(AssertUnwindSafe(|| {
            map_jobs(&[(); 13], 2, || true, |first, ()| {
                if std::mem::take(first) {
                    both_claimed.wait();
                    if std::thread::current().id() == caller {
                        panic!("caller boom");
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = run.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"), "with its own payload");
        assert_eq!(done.load(Ordering::SeqCst), 12, "the helper finished the rest first");
    }

    #[test]
    fn helper_results_are_delivered_between_the_callers_jobs() {
        #[derive(Debug, PartialEq)]
        enum Seen {
            CallerBegan,
            Delivered { by_caller: bool },
        }
        let caller = std::thread::current().id();
        let log = std::sync::Mutex::new(Vec::new());
        // Four jobs, two each, interleaved by force: the caller's first job
        // is slow — it returns only once the helper is in its second, whose
        // first result is therefore sent — and the helper's second returns
        // only once the caller's second (and last) has begun.
        let helper_in_second = std::sync::Barrier::new(2);
        let caller_in_second = std::sync::Barrier::new(2);
        stream_jobs(
            &[(); 4],
            2,
            || 0,
            |nth, ()| {
                *nth += 1;
                let on_caller = std::thread::current().id() == caller;
                match (on_caller, *nth) {
                    (true, 1) => {
                        log.lock().unwrap().push(Seen::CallerBegan);
                        helper_in_second.wait();
                    }
                    (true, _) => {
                        log.lock().unwrap().push(Seen::CallerBegan);
                        caller_in_second.wait();
                    }
                    (false, 1) => {}
                    (false, _) => {
                        helper_in_second.wait();
                        caller_in_second.wait();
                    }
                }
                on_caller
            },
            |_, by_caller| log.lock().unwrap().push(Seen::Delivered { by_caller }),
        );
        let log = log.into_inner().unwrap();
        let last_began = log.iter().rposition(|e| *e == Seen::CallerBegan).unwrap();
        assert_eq!(
            log[..last_began],
            [
                Seen::CallerBegan,
                Seen::Delivered { by_caller: true },
                Seen::Delivered { by_caller: false }
            ],
            "the helper's first result must land before the caller's last job begins: {log:?}"
        );
        assert_eq!(log.len(), 2 + 4);
    }

    #[test]
    fn a_panicking_job_surfaces_after_the_pool_drains() {
        let done = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..8).collect();
        let run = catch_unwind(AssertUnwindSafe(|| {
            map_jobs(&jobs, 2, || (), |(), j| {
                if *j == 1 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(run.is_err(), "the panic must reach the caller");
        assert_eq!(done.load(Ordering::SeqCst), 7, "the surviving worker finished the rest");
    }
}
