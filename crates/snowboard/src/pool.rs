//! The in-process fan-out primitive: scoped worker threads over a shared
//! cursor — the stand-in for the paper's distributed queue (§4.4.1) where
//! every worker lives in this process.
//!
//! Each worker owns its own state (an executor — its "machine B"), claims
//! the next unclaimed job index, and streams `(index, result)` back to the
//! calling thread, so aggregation never depends on worker scheduling.
//! Nothing here catches panics: a panicking job ends its worker, the other
//! workers drain the remaining jobs, and [`std::thread::scope`] re-raises
//! the panic on the caller once every thread has been joined.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `work` over `jobs` on up to `workers` threads (never more threads
/// than jobs), calling `on_result(index, result)` on the calling thread as
/// each result lands, in completion order.
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
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.len().max(1)) {
            let tx = tx.clone();
            let (cursor, init, work) = (&cursor, &init, &work);
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    let Some(job) = jobs.get(i) else { break };
                    if tx.send((i, work(&mut state, job))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            on_result(i, r);
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
