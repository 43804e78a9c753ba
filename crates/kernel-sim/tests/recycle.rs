//! An `Executor` keeps the capacity of the buffers handed back to it, never
//! their contents: a run on an executor that has run (and been handed its
//! buffers back) before must report exactly what a fresh executor reports.
//!
//! `golden.rs` pins what fresh executors report, one `Executor::new` per
//! run; this file closes the gap to the campaign's use — one executor per
//! worker, `recycle` after every trial — by running the fuzzer's seed
//! programs pairwise both ways, including runs cut short by a tight step
//! budget.

use std::collections::BTreeMap;

use sb_fuzz::seed_programs;
use sb_kernel::{boot, KernelConfig};
use sb_vmm::exec::{ExecLimits, ExecReport, RunResult};
use sb_vmm::sched::RandomSched;
use sb_vmm::{Executor, SyncKind};

fn outcome_kind(r: &ExecReport) -> &'static str {
    if r.outcome.is_completed() {
        "completed"
    } else if r.outcome.is_panic() {
        "panic"
    } else {
        "stuck"
    }
}

#[test]
fn a_reused_executor_reports_what_a_fresh_one_does() {
    let seeds = seed_programs();
    let tight = ExecLimits {
        max_steps: 40,
        ..ExecLimits::default()
    };
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut slept = 0;
    for config in [KernelConfig::v5_12_rc3(), KernelConfig::v5_3_10()] {
        let booted = boot(config);
        for limits in [ExecLimits::default(), tight] {
            let mut reused = Executor::with_limits(2, limits);
            for (i, a) in seeds.iter().enumerate() {
                let b = &seeds[(i * 7 + 3) % seeds.len()];
                for seed in 0..3u64 {
                    let run = |exec: &mut Executor| -> RunResult {
                        exec.run(
                            booted.snapshot.clone(),
                            vec![
                                booted.kernel.process_job(a.clone()),
                                booted.kernel.process_job(b.clone()),
                            ],
                            &mut RandomSched::new(seed ^ i as u64, 0.3),
                        )
                    };
                    let fresh = run(&mut Executor::with_limits(2, limits));
                    let again = run(&mut reused);
                    assert_eq!(
                        format!("{:?}", again.report),
                        format!("{:?}", fresh.report),
                        "programs {i} and {}, schedule seed {seed}",
                        (i * 7 + 3) % seeds.len()
                    );
                    assert_eq!(again.mem.dirty_pages(), fresh.mem.dirty_pages());
                    assert_eq!(again.mem.brk(), fresh.mem.brk());
                    *outcomes.entry(outcome_kind(&fresh.report)).or_default() += 1;
                    slept += usize::from(
                        fresh
                            .report
                            .sync_events
                            .iter()
                            .any(|e| e.kind == SyncKind::SleepCommit),
                    );
                    reused.recycle(again);
                }
            }
        }
    }
    // The comparison is only worth its keep while the runs differ in how
    // they end and in what they record.
    assert!(
        outcomes.get("completed").is_some_and(|n| *n >= 50),
        "{outcomes:?}"
    );
    assert!(
        outcomes.get("stuck").is_some_and(|n| *n >= 20),
        "{outcomes:?}"
    );
    assert!(slept >= 10, "only {slept} runs put a thread to sleep");
}
