//! `sb-benchmark probe`: characterises the machine without touching the
//! program, so the protocol can be re-justified on another box.
//!
//! The shape probed is `vmm/src/exec.rs`'s: a coordinator and two workers
//! exchanging one `mpsc` request and one reply per step. It is timed with the
//! threads free to roam, pinned to one CPU, and pinned under `SCHED_BATCH`;
//! beside it run a cache-resident spin and a 16 MiB dependent random walk.
//! Each line gives best / p50 / total over [`REPS`] identical reps — if
//! `best` repeats between invocations and `p50` does not, gate on the best.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use crate::stats::{best, median};
use crate::sys;

const REPS: usize = 60;
const HANDOFFS_PER_REP: u64 = 4_000;

struct Worker {
    request: Sender<u64>,
    reply: Receiver<u64>,
    thread: std::thread::JoinHandle<()>,
}

/// Spawns the two workers *now*, so they inherit the caller's current
/// affinity and policy, runs the reps, and joins them.
fn handoff_reps() -> Vec<f64> {
    let workers: Vec<Worker> = (0..2)
        .map(|_| {
            let (request, inbox) = channel::<u64>();
            let (outbox, reply) = channel::<u64>();
            let thread = std::thread::spawn(move || {
                while let Ok(v) = inbox.recv() {
                    if outbox.send(v + 1).is_err() {
                        break;
                    }
                }
            });
            Worker {
                request,
                reply,
                thread,
            }
        })
        .collect();
    let reps = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut v = 0u64;
            for step in 0..HANDOFFS_PER_REP {
                let w = &workers[(step & 1) as usize];
                w.request.send(v).expect("worker alive");
                v = w.reply.recv().expect("worker alive");
            }
            assert_eq!(v, HANDOFFS_PER_REP);
            t.elapsed().as_secs_f64()
        })
        .collect();
    for w in workers {
        drop(w.request);
        w.thread.join().expect("worker thread");
    }
    reps
}

fn spin_reps() -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn walk_reps() -> Vec<f64> {
    // One cycle through 2 Mi slots of 8 bytes: every load depends on the last.
    let n = 2usize << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        next.swap(i, (state >> 33) as usize % i);
    }
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut at = 0usize;
            for _ in 0..400_000 {
                at = next[at] as usize;
            }
            std::hint::black_box(at);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Prints best and p50 of `reps` (seconds each) scaled by `per_second` into
/// `unit`, and the total time the reps took.
fn line(what: &str, per_second: f64, unit: &str, reps: &[f64]) {
    let (best, p50) = (best(reps).unwrap_or(0.0), median(reps).unwrap_or(0.0));
    println!(
        "{what:<44} best {:>8.3} {unit}  p50 {:>8.3} {unit} ({:+5.1}%)  total {:>7.3} s",
        best * per_second,
        p50 * per_second,
        (p50 / best - 1.0) * 100.0,
        reps.iter().sum::<f64>()
    );
}

pub fn run() -> Result<bool, String> {
    println!(
        "{REPS} reps each; handoff = one mpsc request + reply between a coordinator and two workers, {HANDOFFS_PER_REP} per rep; {} CPUs allowed",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let per_handoff = 1e6 / HANDOFFS_PER_REP as f64;
    line("handoff, unpinned", per_handoff, "us", &handoff_reps());
    match sys::pin_to_highest_cpu() {
        Some((cpu, _)) => {
            line(
                &format!("handoff, pinned to CPU {cpu}"),
                per_handoff,
                "us",
                &handoff_reps(),
            );
            if sys::set_batch_policy() {
                line(
                    &format!("handoff, pinned to CPU {cpu}, SCHED_BATCH"),
                    per_handoff,
                    "us",
                    &handoff_reps(),
                );
            } else {
                println!("SCHED_BATCH refused on this platform");
            }
        }
        None => println!("cannot pin on this platform; the remaining lines are unpinned"),
    }
    line(
        "cache-resident spin (2 M LCG steps)",
        1e3,
        "ms",
        &spin_reps(),
    );
    line(
        "16 MiB dependent random walk (400 k loads)",
        1e3,
        "ms",
        &walk_reps(),
    );
    Ok(true)
}
