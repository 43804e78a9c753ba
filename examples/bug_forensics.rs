//! Bug forensics: find, diagnose, and deterministically replay a bug.
//!
//! Demonstrates the §6 "Bug Diagnosis and Deterministic Reproduction"
//! workflow: a campaign finds issues, each carrying a recorded schedule;
//! the diagnosis module links each finding back to the PMC channel that
//! explains it; and replaying the schedule re-triggers the bug on demand.
//!
//! Run with: `cargo run -p sb-examples --bin bug_forensics`

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;
use sb_vmm::replay::ReplaySched;
use sb_vmm::Executor;

fn main() {
    println!("== bug forensics ==\n");
    let p = Pipeline::prepare(
        KernelConfig::v5_12_rc3(),
        PipelineCfg {
            seed: 31,
            corpus_target: 80,
            fuzz_budget: 1_000,
            workers: 4,
            ..PipelineCfg::default()
        },
    );
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let report = p
        .campaign(
            &exemplars,
            &CampaignCfg {
                seed: 31,
                trials_per_pmc: 24,
                max_tested_pmcs: 250,
                workers: 4,
                stop_on_finding: true,
                incidental: true,
                ..CampaignCfg::default()
            },
        )
        .expect("campaign");
    println!(
        "campaign: {} PMCs tested, {} issues found\n",
        report.tested(),
        report.issues.len()
    );

    let mut exec = Executor::new(2);
    let mut shown = 0;
    for o in report.outcomes.iter().filter(|o| !o.findings.is_empty()) {
        let Some(schedule) = o.repro_schedule.clone() else {
            continue;
        };
        println!(
            "--- concurrent test (corpus #{} vs #{}) ---",
            o.pair.0, o.pair.1
        );
        println!("test 1:\n{}", p.corpus[o.pair.0 as usize]);
        println!("test 2:\n{}", p.corpus[o.pair.1 as usize]);
        println!(
            "finding on trial {} ({} recorded scheduling decisions)",
            o.first_finding_trial.unwrap_or(0),
            schedule.len()
        );
        // Replay the recorded interleaving and diagnose the execution.
        let mut replay = ReplaySched::new(schedule);
        let r = exec.run(
            p.booted.snapshot.clone(),
            vec![
                p.booted
                    .kernel
                    .process_job(p.corpus[o.pair.0 as usize].clone()),
                p.booted
                    .kernel
                    .process_job(p.corpus[o.pair.1 as usize].clone()),
            ],
            &mut replay,
        );
        assert!(!replay.diverged(), "replay must be exact");
        for d in snowboard::diagnose::diagnose(&r.report, &p.pmcs) {
            print!("{}", d.rendered);
        }
        println!();
        shown += 1;
        if shown >= 4 {
            break;
        }
    }
    println!("({shown} findings replayed and diagnosed)");
}
