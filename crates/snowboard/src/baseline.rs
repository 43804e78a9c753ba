//! Baseline concurrent-test generation: Random pairing and Duplicate
//! pairing (§5.3.1, bottom of Table 3).
//!
//! Both baselines skip PMC analysis entirely: Random pairing draws two
//! sequential tests at random; Duplicate pairing runs one test against an
//! identical copy of itself. Without a scheduling hint, trials explore
//! interleavings with an unguided random scheduler.

use sb_detect::{OracleCtx, OracleSet};
use sb_kernel::{BootedKernel, Program};
use sb_vmm::rng::SplitMix64;
use sb_vmm::sched::RandomSched;
use sb_vmm::Executor;

use crate::campaign::{aggregate, CampaignCfg, CampaignReport, PmcTestOutcome};

/// The two baseline pairing policies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Pairing {
    /// Two sequential tests drawn independently at random.
    Random,
    /// One test paired with an identical copy of itself.
    Duplicate,
}

impl std::fmt::Display for Pairing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pairing::Random => write!(f, "Random pairing"),
            Pairing::Duplicate => write!(f, "Duplicate pairing"),
        }
    }
}

/// Runs `n_tests` baseline concurrent tests under the campaign settings the
/// baseline is compared with: `cfg`'s trials per test, seed, workers,
/// stop-on-finding and oracles. Nothing else of `cfg` applies here.
pub fn run_baseline(
    booted: &BootedKernel,
    corpus: &[Program],
    pairing: Pairing,
    n_tests: usize,
    cfg: &CampaignCfg,
) -> CampaignReport {
    assert!(!corpus.is_empty(), "baseline needs a corpus");
    let seed = cfg.seed;
    let mut rng = SplitMix64::new(seed);
    let pairs: Vec<(u32, u32)> = (0..n_tests)
        .map(|_| {
            let a = rng.gen_range(0..corpus.len()) as u32;
            let b = match pairing {
                Pairing::Random => rng.gen_range(0..corpus.len()) as u32,
                Pairing::Duplicate => a,
            };
            (a, b)
        })
        .collect();
    let jobs: Vec<(usize, (u32, u32))> = pairs.into_iter().enumerate().collect();
    let outcomes: Vec<PmcTestOutcome> = crate::pool::map_jobs(
        &jobs,
        cfg.workers,
        || Executor::new(2),
        |exec, &(i, pair)| {
            let test_seed = seed.wrapping_add((i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            run_baseline_test(
                exec,
                booted,
                corpus,
                pair,
                test_seed,
                cfg.trials_per_pmc,
                cfg.stop_on_finding,
                cfg.oracles,
            )
        },
    );
    aggregate(outcomes)
}

#[allow(clippy::too_many_arguments)]
fn run_baseline_test(
    exec: &mut Executor,
    booted: &BootedKernel,
    corpus: &[Program],
    pair: (u32, u32),
    seed: u64,
    trials: u32,
    stop_on_finding: bool,
    oracles: OracleSet,
) -> PmcTestOutcome {
    let wprog = corpus[pair.0 as usize].clone();
    let rprog = corpus[pair.1 as usize].clone();
    let mut out = PmcTestOutcome {
        pmc: None,
        pair,
        trials_run: 0,
        exercised: false,
        findings: Vec::new(),
        steps: 0,
        first_finding_trial: None,
        repro_schedule: None,
        attempts: 1,
    };
    let mut oracle_ctx = OracleCtx::new(oracles);
    let mut dedup = std::collections::HashSet::new();
    for trial in 0..trials {
        let mut sched = RandomSched::new(seed.wrapping_add(u64::from(trial)), 0.005);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(wprog.clone()),
                booted.kernel.process_job(rprog.clone()),
            ],
            &mut sched,
        );
        out.trials_run += 1;
        out.steps += r.report.steps;
        let mut found_new = false;
        for f in oracle_ctx.analyze(&r.report) {
            if dedup.insert(f.dedup_key()) {
                out.findings.push(f);
                found_new = true;
            }
        }
        if found_new && out.first_finding_trial.is_none() {
            out.first_finding_trial = Some(trial);
        }
        if found_new && stop_on_finding {
            break;
        }
    }
    out
}
