//! Whole-system integration tests spanning every crate: engine → kernel →
//! fuzzing → profiling → PMC analysis → scheduling → detection → triage.

use integration::{shared_old_kernel, shared_rc_kernel};

use sb_kernel::prog::{Domain, Res};
use sb_kernel::{Program, Syscall};
use sb_vmm::sched::{RandomSched, SnowboardSched};
use sb_vmm::Executor;
use snowboard::campaign::{channel_exercised, IncidentalIndex};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

#[test]
fn figure1_pmc_predicted_and_exercised() {
    // The paper's core claim in miniature: the PMC predicted from
    // sequential profiles is actually exercised when the schedule puts the
    // write before the read.
    let booted = shared_rc_kernel();
    let writer = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 1 },
    ]);
    let reader = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 1 },
        Syscall::Sendmsg { sock: Res(0), len: 0 },
    ]);
    let profiles = profile_corpus(booted, &[writer.clone(), reader.clone()], 2);
    let set = identify(&profiles);
    let (_, pmc) =
        snowboard::metrics::find_pmc_by_sites(&set, "list_add_rcu", "l2tp_tunnel_get")
            .expect("PMC predicted");
    // Under enough Snowboard-scheduled trials, the channel must be
    // exercised at least once (and usually quickly).
    let mut exec = Executor::new(2);
    let mut sched = SnowboardSched::new(1, pmc.hints());
    let mut exercised = false;
    for trial in 0..64 {
        sched.begin_trial(trial);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            &mut sched,
        );
        if channel_exercised(&r.report.trace, pmc) {
            exercised = true;
            break;
        }
    }
    assert!(exercised, "predicted channel never exercised in 64 trials");
}

#[test]
fn profiles_are_reproducible_across_snapshot_restores() {
    // §4.1: reproducibility from the snapshot is what makes PMCs
    // predictive. Run the same test 5 times; the shared-access profile must
    // be byte-identical.
    let booted = shared_rc_kernel();
    let prog = Program::new(vec![
        Syscall::Msgget { key: 2 },
        Syscall::Mount,
    ]);
    let sig = |p: &snowboard::SeqProfile| {
        p.accesses
            .iter()
            .map(|a| (a.site.0, a.addr, a.len, a.value, a.kind.is_write()))
            .collect::<Vec<_>>()
    };
    let mut exec = Executor::new(1);
    let first = snowboard::profile::profile_one(&mut exec, booted, 0, &prog).expect("profile");
    for _ in 0..4 {
        let again = snowboard::profile::profile_one(&mut exec, booted, 0, &prog).expect("profile");
        assert_eq!(sig(&first), sig(&again));
    }
}

#[test]
fn deterministic_reproduction_of_a_found_bug() {
    // §6 "Bug Diagnosis and Deterministic Reproduction": once a trial
    // exposes a bug, replaying the same seed reproduces it exactly.
    let booted = shared_rc_kernel();
    let writer = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 3 },
    ]);
    let reader = Program::new(vec![
        Syscall::Socket { domain: Domain::L2tp },
        Syscall::Connect { sock: Res(0), tunnel_id: 3 },
        Syscall::Sendmsg { sock: Res(0), len: 0 },
    ]);
    let mut exec = Executor::new(2);
    // Find a panicking seed.
    let mut panicking_seed = None;
    for seed in 0..512 {
        let mut sched = RandomSched::new(seed, 0.3);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            &mut sched,
        );
        if r.report.outcome.is_panic() {
            panicking_seed = Some((seed, r.report.console.clone()));
            break;
        }
    }
    let (seed, console) = panicking_seed.expect("some schedule must panic");
    // Replay it three times.
    for _ in 0..3 {
        let mut sched = RandomSched::new(seed, 0.3);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            &mut sched,
        );
        assert!(r.report.outcome.is_panic());
        assert_eq!(r.report.console, console, "replay diverged");
    }
}

#[test]
fn incidental_index_covers_every_pmc_write_site() {
    let booted = shared_rc_kernel();
    let corpus = sb_fuzz::seed_programs();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let _index = IncidentalIndex::build(&set);
    assert!(set.len() > 50, "seed corpus should already induce many PMCs");
}

#[test]
fn fuzz_corpus_feeds_pipeline_without_panics() {
    // Sequential tests generated by the fuzzer must never panic the
    // simulated kernel: all planted bugs are concurrency bugs.
    let booted = shared_old_kernel();
    let (corpus, _) = sb_fuzz::build_corpus_with(booted, 99, 50, 400, sb_fuzz::Catalog::Stock);
    let mut exec = Executor::new(1);
    for (i, prog) in corpus.iter().enumerate() {
        let r = exec.run(
            booted.snapshot.clone(),
            vec![booted.kernel.process_job(prog.clone())],
            &mut sb_vmm::sched::FreeRun,
        );
        assert!(
            r.report.outcome.is_completed(),
            "sequential test {i} failed: {:?}\n{}",
            r.report.outcome,
            prog
        );
    }
}

#[test]
fn detectors_stay_quiet_on_sequential_executions() {
    // Single-threaded runs can have no data races and no concurrency
    // console errors.
    let booted = shared_rc_kernel();
    let mut exec = Executor::new(1);
    for prog in sb_fuzz::seed_programs() {
        let r = exec.run(
            booted.snapshot.clone(),
            vec![booted.kernel.process_job(prog.clone())],
            &mut sb_vmm::sched::FreeRun,
        );
        let findings = sb_detect::analyze(&r.report);
        assert!(
            findings.is_empty(),
            "sequential run of {prog} produced {findings:?}"
        );
    }
}

#[test]
fn queue_parallelism_matches_sequential_campaign_results() {
    // The distributed-queue stand-in must not change campaign outcomes:
    // workers=1 and workers=4 produce identical per-test outcomes.
    let booted = shared_rc_kernel();
    let corpus = sb_fuzz::seed_programs();
    let profiles = profile_corpus(booted, &corpus, 2);
    let set = identify(&profiles);
    let exemplars = snowboard::select::exemplars(
        &set,
        snowboard::cluster::Strategy::SInsPair,
        snowboard::select::ClusterOrder::UncommonFirst,
        1,
        &std::collections::HashSet::new(),
    );
    let run = |workers: usize| {
        let cfg = snowboard::CampaignCfg {
            seed: 9,
            trials_per_pmc: 6,
            max_tested_pmcs: 30,
            workers,
            stop_on_finding: true,
            incidental: false,
            ..snowboard::CampaignCfg::default()
        };
        let report = snowboard::campaign::run_campaign(booted, &corpus, &set, &exemplars, &cfg)
            .expect("campaign");
        report
            .outcomes
            .iter()
            .map(|o| (o.pmc, o.pair, o.trials_run, o.exercised, o.findings.len()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(4));
}
