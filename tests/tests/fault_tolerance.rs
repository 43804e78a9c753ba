//! Fault-tolerant campaign execution: injected worker panics and hangs are
//! quarantined without aborting the campaign, transient failures are
//! retried, and a killed campaign resumes from its checkpoint to the same
//! aggregate report as an uninterrupted run.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use integration::shared_rc_kernel;

use sb_kernel::{BootedKernel, Kernel, Program, Symbols, Syscall};
use snowboard::campaign::run_campaign;
use snowboard::pmc::{identify, PmcId, PmcSet};
use snowboard::profile::profile_corpus;
use snowboard::{CampaignCfg, FailureKind, FaultPlan, RetryPolicy};

const JOBS: usize = 6;

struct Fixture {
    booted: &'static BootedKernel,
    corpus: Vec<Program>,
    set: PmcSet,
    exemplars: Vec<PmcId>,
}

fn fixture() -> Fixture {
    let booted = shared_rc_kernel();
    let corpus = sb_fuzz::seed_programs();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let exemplars = snowboard::select::exemplars(
        &set,
        snowboard::cluster::Strategy::SInsPair,
        snowboard::select::ClusterOrder::UncommonFirst,
        1,
        &HashSet::new(),
    );
    assert!(exemplars.len() >= JOBS, "corpus should induce enough PMCs");
    Fixture {
        booted,
        corpus,
        set,
        exemplars,
    }
}

/// A small campaign config shared by every test in this file. Backoffs are
/// shrunk so retry paths stay fast.
fn base_cfg() -> CampaignCfg {
    CampaignCfg {
        seed: 77,
        trials_per_pmc: 4,
        max_tested_pmcs: JOBS,
        workers: 2,
        stop_on_finding: true,
        incidental: false,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        },
        ..CampaignCfg::default()
    }
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sb-ft-{}-{name}.ckpt", std::process::id()))
}

#[test]
fn injected_panics_and_hangs_quarantine_exactly_those_jobs() {
    let fx = fixture();
    let clean = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &base_cfg())
        .expect("clean campaign");
    assert!(clean.quarantined.is_empty());
    assert_eq!(clean.tested(), JOBS);

    let faulted_cfg = CampaignCfg {
        fault_plan: FaultPlan {
            panic_jobs: [1usize].into_iter().collect(),
            hang_jobs: [3usize].into_iter().collect(),
            ..FaultPlan::default()
        },
        ..base_cfg()
    };
    let faulted = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &faulted_cfg)
        .expect("faulted campaign must still complete");

    // Exactly the injected jobs are quarantined, with the right kinds.
    let mut quarantined: Vec<(usize, FailureKind)> = faulted
        .quarantined
        .iter()
        .map(|q| (q.job, q.kind))
        .collect();
    quarantined.sort_by_key(|(job, _)| *job);
    assert_eq!(
        quarantined,
        vec![(1, FailureKind::Panic), (3, FailureKind::Hang)]
    );
    // The panic is retryable and exhausts its budget; the hang is not.
    let by_job = |j: usize| faulted.quarantined.iter().find(|q| q.job == j).unwrap();
    assert_eq!(by_job(1).attempts, 3, "panics retry to exhaustion");
    assert_eq!(by_job(3).attempts, 1, "hangs are permanent");
    assert!(by_job(1).chain[0].contains("forced worker panic"));
    assert!(by_job(3).chain[0].contains("watchdog"));

    // Every non-injected job's outcome is identical to the clean run's.
    let surviving: Vec<_> = clean
        .outcomes
        .iter()
        .enumerate()
        .filter(|(job, _)| *job != 1 && *job != 3)
        .map(|(_, o)| o.clone())
        .collect();
    assert_eq!(faulted.outcomes, surviving);
}

#[test]
fn rust_panic_in_a_kernel_job_body_quarantines_exactly_that_job() {
    // A kernel-model bug (here: a handler asking for a symbol the build
    // never registered) panics inside a vCPU's job body. The campaign must
    // see it as a worker panic on that job alone; the executor that ran it
    // keeps serving the jobs behind it on the same worker.
    let fx = fixture();
    let mut syms = Symbols::default();
    for (name, addr) in fx
        .booted
        .kernel
        .syms
        .iter()
        .filter(|(n, _)| !n.starts_with("wq."))
    {
        syms.register(name, addr);
    }
    let broken = BootedKernel {
        kernel: Arc::new(Kernel {
            config: fx.booted.kernel.config,
            syms,
        }),
        snapshot: fx.booted.snapshot.clone(),
    };
    let cfg = CampaignCfg {
        workers: 1,
        ..base_cfg()
    };
    // No stock seed touches the workqueue, so the broken build is as good
    // as the real one until a job is pointed at the poisoned program.
    let clean =
        run_campaign(&broken, &fx.corpus, &fx.set, &fx.exemplars, &cfg).expect("clean campaign");
    assert!(clean.quarantined.is_empty());
    assert_eq!(clean.tested(), JOBS);

    const POISONED: usize = 2;
    let mut corpus = fx.corpus.clone();
    corpus.push(Program::new(vec![Syscall::WqFlush]));
    let mut set = fx.set.clone();
    set.pmcs[fx.exemplars[POISONED] as usize].pairs[0].0 = (corpus.len() - 1) as u32;
    let faulted =
        run_campaign(&broken, &corpus, &set, &fx.exemplars, &cfg).expect("campaign completes");

    assert_eq!(faulted.quarantined.len(), 1, "{:?}", faulted.quarantined);
    let q = &faulted.quarantined[0];
    assert_eq!((q.job, q.kind), (POISONED, FailureKind::Panic));
    assert_eq!(q.attempts, 3, "panics retry to exhaustion");
    assert!(
        q.chain[0].contains("unknown kernel symbol wq."),
        "{:?}",
        q.chain
    );
    let surviving: Vec<_> = clean
        .outcomes
        .iter()
        .enumerate()
        .filter(|(job, _)| *job != POISONED)
        .map(|(_, o)| o.clone())
        .collect();
    assert_eq!(faulted.outcomes, surviving);
}

#[test]
fn transient_failures_are_retried_to_success() {
    let fx = fixture();
    let cfg = CampaignCfg {
        fault_plan: FaultPlan {
            transient_failures: [(0usize, 2u32)].into_iter().collect(),
            ..FaultPlan::default()
        },
        ..base_cfg()
    };
    let report =
        run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &cfg).expect("campaign");
    assert!(
        report.quarantined.is_empty(),
        "transient failures within the retry budget must not quarantine: {:?}",
        report.quarantined
    );
    assert_eq!(report.tested(), JOBS);
    // Job 0 needed all three attempts; the rest completed first try.
    assert_eq!(report.outcomes[0].attempts, 3);
    assert!(report.outcomes[1..].iter().all(|o| o.attempts == 1));
}

#[test]
fn killed_campaign_resumes_from_checkpoint_to_identical_aggregates() {
    let fx = fixture();
    let path = scratch_path("resume");
    let _ = std::fs::remove_file(&path);

    let clean = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &base_cfg())
        .expect("clean campaign");

    // First half: the queue closes before job 3, simulating a mid-campaign
    // kill. Jobs 3.. are rejected (never ran) and quarantined as such.
    let first_cfg = CampaignCfg {
        checkpoint: Some(path.clone()),
        fault_plan: FaultPlan {
            close_queue_before: Some(3),
            ..FaultPlan::default()
        },
        ..base_cfg()
    };
    let first = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &first_cfg)
        .expect("interrupted campaign");
    assert_eq!(first.tested(), 3, "only the pre-kill jobs completed");
    assert_eq!(first.quarantined.len(), JOBS - 3);
    assert!(first
        .quarantined
        .iter()
        .all(|q| q.kind == FailureKind::Rejected && q.attempts == 0));

    // Second half: resume from the checkpoint. Rejected jobs were not
    // persisted, so they are re-run; finished jobs are not repeated.
    let resume_cfg = CampaignCfg {
        checkpoint: Some(path.clone()),
        resume_from: Some(path.clone()),
        ..base_cfg()
    };
    let resumed = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &resume_cfg)
        .expect("resumed campaign");

    assert!(resumed.quarantined.is_empty());
    assert_eq!(resumed.outcomes, clean.outcomes);
    assert_eq!(resumed.executions, clean.executions);
    assert_eq!(resumed.total_steps, clean.total_steps);
    assert_eq!(resumed.bug_ids(), clean.bug_ids());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn lenient_resume_survives_a_corrupt_checkpoint() {
    let fx = fixture();
    let path = scratch_path("lenient");
    let _ = std::fs::remove_file(&path);

    let clean = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &base_cfg())
        .expect("clean campaign");

    // Write a real checkpoint, then damage its campaign header (a damaged
    // tail would resume from the intact prefix instead).
    let first_cfg = CampaignCfg {
        checkpoint: Some(path.clone()),
        ..base_cfg()
    };
    run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &first_cfg).expect("campaign");
    let mut bytes = std::fs::read(&path).expect("checkpoint written");
    assert!(bytes.len() > 20);
    bytes[20] ^= 0x40;
    std::fs::write(&path, &bytes).expect("damage");

    // Strict resume refuses the unparseable checkpoint.
    let strict_cfg = CampaignCfg {
        resume_from: Some(path.clone()),
        ..base_cfg()
    };
    run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &strict_cfg)
        .expect_err("strict resume must reject a corrupt checkpoint");

    // Lenient resume (`--resume-or-fresh`) warns and starts fresh instead,
    // producing the same aggregates as an uninterrupted run.
    let lenient_cfg = CampaignCfg {
        resume_from: Some(path.clone()),
        resume_lenient: true,
        ..base_cfg()
    };
    let report = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &lenient_cfg)
        .expect("lenient resume must fall back to a fresh campaign");
    assert_eq!(report.outcomes, clean.outcomes);
    assert_eq!(report.executions, clean.executions);
    assert_eq!(report.bug_ids(), clean.bug_ids());

    // A missing checkpoint file is tolerated the same way.
    let _ = std::fs::remove_file(&path);
    let report = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &lenient_cfg)
        .expect("lenient resume must tolerate a missing checkpoint");
    assert_eq!(report.outcomes, clean.outcomes);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_campaign() {
    let fx = fixture();
    let path = scratch_path("foreign");
    let _ = std::fs::remove_file(&path);

    let first_cfg = CampaignCfg {
        checkpoint: Some(path.clone()),
        ..base_cfg()
    };
    run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &first_cfg).expect("campaign");

    // Same checkpoint, different seed: the resume must be refused rather
    // than silently mixing two campaigns' results.
    let foreign_cfg = CampaignCfg {
        seed: base_cfg().seed + 1,
        resume_from: Some(path.clone()),
        ..base_cfg()
    };
    let err = run_campaign(fx.booted, &fx.corpus, &fx.set, &fx.exemplars, &foreign_cfg)
        .expect_err("foreign checkpoint must be rejected");
    assert!(matches!(err, snowboard::Error::ResumeMismatch { .. }));

    let _ = std::fs::remove_file(&path);
}
