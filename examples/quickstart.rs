//! Quickstart: the whole Snowboard pipeline in one binary.
//!
//! Boots the simulated 5.12-rc3 kernel, fuzzes a sequential corpus,
//! profiles it, identifies PMCs, clusters them with S-INS-PAIR, and runs a
//! short campaign — printing each stage's numbers and the bugs found.
//!
//! Run with: `cargo run -p sb-examples --bin quickstart`

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Pipeline, PipelineCfg};

use sb_kernel::{bugs, KernelConfig};

fn main() {
    println!("== Snowboard quickstart ==\n");
    println!("[1/4] boot + sequential test generation + profiling (§4.1)");
    let pipeline = Pipeline::prepare(
        KernelConfig::v5_12_rc3(),
        PipelineCfg {
            seed: 42,
            corpus_target: 80,
            fuzz_budget: 1_000,
            workers: 4,
            ..PipelineCfg::default()
        },
    );
    println!(
        "      corpus: {} tests ({} fuzz executions, {} edges) in {:.2?}",
        pipeline.corpus.len(),
        pipeline.stats.fuzz_executed,
        pipeline.stats.edges,
        pipeline.stats.fuzz_time
    );
    println!(
        "      profiled {} shared accesses, each test from the run that kept it",
        pipeline.stats.shared_accesses
    );

    println!("\n[2/4] PMC identification (§4.2, Algorithm 1)");
    println!(
        "      {} PMCs identified in {:.2?}",
        pipeline.pmcs.len(),
        pipeline.stats.identify_time
    );

    println!("\n[3/4] PMC selection (§4.3): clustering with S-INS-PAIR, uncommon first");
    let exemplars = pipeline.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    println!(
        "      {} clusters -> {} exemplar PMCs",
        pipeline.cluster_count(Strategy::SInsPair),
        exemplars.len()
    );

    println!("\n[4/4] concurrent test execution (§4.4, Algorithm 2)");
    let report = pipeline.campaign(
        &exemplars,
        &CampaignCfg {
            seed: 42,
            trials_per_pmc: 24,
            max_tested_pmcs: 300,
            workers: 4,
            stop_on_finding: true,
            incidental: true,
            ..CampaignCfg::default()
        },
    )
    .expect("campaign");
    println!(
        "      tested {} PMCs in {} executions; {:.0}% exercised their predicted channel",
        report.tested(),
        report.executions,
        100.0 * report.accuracy()
    );

    println!("\n== issues found ==");
    for issue in &report.issues {
        match issue.bug_id {
            Some(id) => {
                let b = bugs::by_id(id).expect("registry");
                println!(
                    "  #{id} [{}] {} (after {} tests)",
                    if b.harmful { "HARMFUL" } else { "benign" },
                    b.title,
                    issue.found_after_tests
                );
            }
            None => println!("  (untriaged) {}", issue.key),
        }
    }
    let ids = report.bug_ids();
    println!("\n{} distinct registry issues: {ids:?}", ids.len());
}
