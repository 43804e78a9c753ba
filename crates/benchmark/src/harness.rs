//! The measurement protocol: pin, fixed work in many identical reps, gate on
//! the best rep, keep real disk and network out, check determinism.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::spans::Recorder;
use crate::stats::{best, highest_supported_percentile, median, percentile};
use crate::sys;
use crate::workloads::{group_seed, setup, Env, Group, Rep, Spec};
use crate::RUN_SECONDS;

/// How the process was confined before any thread was spawned.
pub struct Machine {
    /// CPU the run is pinned to, if the platform could pin.
    pub pinned_cpu: Option<usize>,
    /// Allowed CPUs before pinning (the unpinned probe widens back to it).
    pub original_mask: Option<sys::CpuMask>,
    /// Whether `SCHED_BATCH` was applied.
    pub batch_policy: bool,
}

/// Protocol step 1. Must run before the first thread is spawned: threads and
/// child processes inherit both the mask and the policy.
pub fn confine() -> Machine {
    let pinned = sys::pin_to_highest_cpu();
    let m = Machine {
        pinned_cpu: pinned.map(|(cpu, _)| cpu),
        original_mask: pinned.map(|(_, mask)| mask),
        batch_policy: sys::set_batch_policy(),
    };
    sys::flush_dirty_pages();
    match m.pinned_cpu {
        Some(cpu) => eprintln!(
            "[harness] pinned to CPU {cpu}, batch policy {}",
            m.batch_policy
        ),
        None => eprintln!("[harness] UNPINNED: this platform cannot set CPU affinity"),
    }
    m
}

/// A private directory for store files, removed on drop. Protocol step 4: no
/// real disk in a gated number, so `/dev/shm` when it is writable, else the
/// system temp directory, else the working directory.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let name = format!("sb-benchmark-{}", std::process::id());
        let roots = [
            PathBuf::from("/dev/shm"),
            std::env::temp_dir(),
            PathBuf::from("."),
        ];
        for root in &roots {
            let dir = root.join(&name);
            if root.is_dir() && std::fs::create_dir_all(&dir).is_ok() {
                eprintln!("[harness] scratch directory {}", dir.display());
                return Ok(Scratch { dir });
            }
        }
        Err("no writable scratch directory (/dev/shm, temp dir, working directory)".into())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Timed reps per group for a run of `seconds`: the spec's constant at the
/// benchmark's own run length, scaled with the argument otherwise. Derived
/// from the argument, never from a clock, so two commits do the same work.
pub fn reps_per_group(spec: &Spec, seconds: u64) -> usize {
    let scaled = (spec.reps_per_group as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS;
    (scaled as usize).max(2)
}

/// One group with its reference output.
pub struct Ready {
    pub group: Box<dyn Group>,
    /// The untimed warm-up rep every later rep must reproduce.
    pub warm: Rep,
    /// Input construction plus the warm-up rep.
    pub setup_s: f64,
}

/// Operations attempted and failed so far, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures already explained on stderr (the first few are enough).
    logged: usize,
}

impl Tally {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops.max(1);
        if self.logged < 8 {
            eprintln!("[harness] FAILED: {why}");
            self.logged += 1;
        }
    }

    /// Books one rep: its own failed operations, and — protocol step 5 — a
    /// digest that differs from the warm-up's fails every operation in it.
    pub fn book(&mut self, what: &str, rep: &Rep, warm: &Rep) {
        self.attempted += rep.ops;
        if rep.failed > 0 {
            let why = rep
                .note
                .clone()
                .unwrap_or_else(|| "failed operations".into());
            self.fail(rep.failed, format!("{what}: {why}"));
        } else if rep.digest != warm.digest || rep.units != warm.units {
            self.fail(
                rep.ops,
                format!(
                    "{what}: output digest {:016x} != warm-up {:016x}",
                    rep.digest, warm.digest
                ),
            );
        }
    }
}

/// Sets every group up (inputs, then one untimed warm-up rep).
pub fn set_up_groups(
    spec: &Spec,
    seed: u64,
    env: &Env,
    spans: &Recorder,
    tally: &mut Tally,
) -> Result<Vec<Ready>, String> {
    (0..spec.groups)
        .map(|g| {
            let t = Instant::now();
            let mut group = setup(spec.name, group_seed(seed, g), env, spans)?;
            let warm = group.rep(&Recorder::new(false));
            let setup_s = t.elapsed().as_secs_f64();
            tally.attempted += warm.ops;
            if warm.failed > 0 {
                let why = warm.note.clone().unwrap_or_default();
                tally.fail(
                    warm.failed,
                    format!("{} group {g} warm-up: {why}", spec.name),
                );
            }
            Ok(Ready {
                group,
                warm,
                setup_s,
            })
        })
        .collect()
}

/// Rep timings of one run, by group.
pub struct Timings {
    /// `seconds[g][r]`
    pub seconds: Vec<Vec<f64>>,
    /// Units one rep of group `g` does.
    pub units: Vec<u64>,
}

impl Timings {
    pub fn new(ready: &[Ready]) -> Self {
        Timings {
            seconds: vec![Vec::new(); ready.len()],
            units: ready.iter().map(|r| r.warm.units).collect(),
        }
    }

    /// Sum over groups of each group's best rep: the estimator of what one
    /// pass over every group costs the program.
    pub fn best_pass_s(&self) -> f64 {
        self.seconds.iter().filter_map(|g| best(g)).sum()
    }

    /// Protocol step 3: units of one pass over the best pass.
    pub fn units_per_s(&self) -> f64 {
        self.units.iter().sum::<u64>() as f64 / self.best_pass_s()
    }

    pub fn reps(&self) -> usize {
        self.seconds.iter().map(Vec::len).sum()
    }

    /// Every rep as a multiple of its group's best rep, pooled so that the
    /// tail percentile has its ten samples beyond it.
    fn ratios(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .flat_map(|g| {
                let b = best(g).unwrap_or(1.0);
                g.iter().map(move |s| s / b)
            })
            .collect()
    }

    fn mean_best_s(&self) -> f64 {
        self.best_pass_s() / self.seconds.len().max(1) as f64
    }

    /// A typical rep: the median multiple times the mean best rep.
    pub fn rep_p50_s(&self) -> f64 {
        median(&self.ratios()).unwrap_or(0.0) * self.mean_best_s()
    }

    pub fn rep_p75_s(&self) -> f64 {
        percentile(&self.ratios(), 75.0).unwrap_or(0.0) * self.mean_best_s()
    }

    /// The highest percentile this many reps support (ten samples beyond
    /// it), as `(percentile, seconds)`; `None` under twenty reps.
    pub fn rep_tail(&self) -> Option<(f64, f64)> {
        let p = highest_supported_percentile(self.reps())?;
        Some((p, percentile(&self.ratios(), p)? * self.mean_best_s()))
    }

    /// One stderr line per group: what a rep does and its best time.
    pub fn log_groups(&self, spec: &Spec) {
        for (g, (units, seconds)) in self.units.iter().zip(&self.seconds).enumerate() {
            eprintln!(
                "[{}]   group {g}: {units} {} per rep, best rep {:.4} s of {}",
                spec.name,
                spec.unit,
                best(seconds).unwrap_or(0.0),
                seconds.len()
            );
        }
    }

    /// `p50 / best - 1`: how far the machine kept a typical rep from the best.
    pub fn rep_spread(&self) -> f64 {
        median(&self.ratios()).unwrap_or(1.0) - 1.0
    }
}

/// Runs `rounds` timed passes over every group, round robin so a slow spell
/// of the machine is spread over all groups.
pub fn timed_rounds(
    spec: &Spec,
    ready: &mut [Ready],
    rounds: usize,
    spans: &Recorder,
    tally: &mut Tally,
) -> Timings {
    let mut timings = Timings::new(ready);
    for round in 0..rounds {
        for (g, r) in ready.iter_mut().enumerate() {
            spans.set_rep((round * spec.groups + g) as i64);
            let rep = {
                let _span = spans.enter("harness.rep");
                r.group.rep(spans)
            };
            spans.set_rep(crate::spans::OUTSIDE_REPS);
            tally.book(
                &format!("{} group {g} rep {round}", spec.name),
                &rep,
                &r.warm,
            );
            timings.seconds[g].push(rep.seconds);
        }
    }
    timings
}

/// `setup_s`: process start to the first setup, plus every group's setup
/// taken at the median group's cost — several setups a run, one median.
pub fn setup_seconds(before_setup_s: f64, ready: &[Ready]) -> f64 {
    let each: Vec<f64> = ready.iter().map(|r| r.setup_s).collect();
    before_setup_s + median(&each).unwrap_or(0.0) * each.len() as f64
}

/// `bugs_found`: distinct registry bugs in each group's output, summed over
/// the groups (the sum moves less from seed to seed than the union, which
/// steps by a whole bug out of a dozen).
pub fn bugs_found(ready: &[Ready]) -> usize {
    ready.iter().map(|r| r.warm.bugs.len()).sum()
}

/// `peak_rss_mb`: the child's for `hunt-e2e` (the harness holds nothing
/// there), this process's otherwise.
pub fn peak_rss_mb(spec: &Spec) -> f64 {
    let kb = if spec.name == "hunt-e2e" {
        sys::children_peak_rss_kb().unwrap_or(0)
    } else {
        snowboard::metrics::peak_rss_kb()
    };
    kb as f64 / 1024.0
}

/// A fixed, cache-resident spin (an LCG chain the compiler cannot shorten):
/// nanoseconds per iteration, best of five. It moves with the machine's
/// clock speed and with nothing the program does.
pub fn calibration_ns() -> f64 {
    const ITERS: u64 = 4_000_000;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for i in 0..ITERS {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    best(&runs).unwrap_or(0.0)
}

/// Where the traced run's ledger goes: beside the executable, i.e. inside
/// the build directory of the checkout.
pub fn ledger_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("sb-benchmark-ledger-{workload}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn rep_count_follows_the_seconds_argument_not_a_clock() {
        for spec in &SPECS {
            assert_eq!(reps_per_group(spec, RUN_SECONDS), spec.reps_per_group);
            assert_eq!(
                reps_per_group(spec, 2 * RUN_SECONDS),
                2 * spec.reps_per_group
            );
            assert!(reps_per_group(spec, 1) >= 2);
        }
    }

    #[test]
    fn throughput_sums_each_groups_best_rep() {
        let t = Timings {
            seconds: vec![vec![0.5, 0.4, 0.8], vec![0.2, 0.3, 0.1]],
            units: vec![100, 50],
        };
        assert_eq!(t.best_pass_s(), 0.5);
        assert_eq!(t.units_per_s(), 300.0);
        assert_eq!(t.reps(), 6);
        // Ratios: 1.25, 1, 2 and 2, 3, 1 -> median 1.625.
        assert!((t.rep_spread() - 0.625).abs() < 1e-12);
        assert!((t.rep_p50_s() - 1.625 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_digest_mismatch_fails_every_operation_of_the_rep() {
        let warm = Rep {
            digest: 1,
            units: 10,
            ops: 4,
            ..Rep::default()
        };
        let mut tally = Tally::default();
        tally.book("ok", &warm.clone(), &warm);
        assert_eq!((tally.attempted, tally.failed), (4, 0));
        tally.book(
            "drift",
            &Rep {
                digest: 2,
                ..warm.clone()
            },
            &warm,
        );
        assert_eq!((tally.attempted, tally.failed), (8, 4));
        tally.book(
            "quarantine",
            &Rep {
                failed: 1,
                ..warm.clone()
            },
            &warm,
        );
        assert_eq!((tally.attempted, tally.failed), (12, 5));
    }

    #[test]
    fn setup_is_the_median_group_times_the_group_count() {
        struct Nop;
        impl Group for Nop {
            fn rep(&mut self, _: &Recorder) -> Rep {
                Rep::default()
            }
        }
        let ready: Vec<Ready> = [0.2, 0.9, 0.3]
            .iter()
            .map(|s| Ready {
                group: Box::new(Nop),
                warm: Rep::default(),
                setup_s: *s,
            })
            .collect();
        assert!((setup_seconds(0.01, &ready) - 0.91).abs() < 1e-12);
    }
}
