//! Mini strategy shoot-out: a pocket Table 3.
//!
//! Runs every clustering strategy over one shared pipeline with a small
//! budget and prints clusters / tested / bugs-found per strategy — the
//! qualitative Table 3 result in under a minute.
//!
//! Run with: `cargo run -p sb-examples --bin strategy_shootout`

use snowboard::cluster::ALL_STRATEGIES;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;

fn main() {
    println!("== strategy shoot-out (pocket Table 3) ==\n");
    let pipeline = Pipeline::prepare(
        KernelConfig::v5_12_rc3(),
        PipelineCfg {
            seed: 5,
            corpus_target: 80,
            fuzz_budget: 1_000,
            workers: 4,
            ..PipelineCfg::default()
        },
    );
    println!(
        "corpus {} tests, {} PMCs identified\n",
        pipeline.corpus.len(),
        pipeline.pmcs.len()
    );
    println!(
        "{:<16} {:>9} {:>8}  bugs found",
        "strategy", "clusters", "tested"
    );
    for strategy in ALL_STRATEGIES {
        let clusters = pipeline.cluster_count(strategy);
        let exemplars = pipeline.exemplars(strategy, ClusterOrder::UncommonFirst);
        let report = pipeline
            .campaign(
                &exemplars,
                &CampaignCfg {
                    seed: 5,
                    trials_per_pmc: 16,
                    max_tested_pmcs: 150,
                    workers: 4,
                    stop_on_finding: true,
                    incidental: true,
                    ..CampaignCfg::default()
                },
            )
            .expect("campaign");
        println!(
            "{:<16} {:>9} {:>8}  {:?}",
            strategy.to_string(),
            clusters,
            report.tested(),
            report.bug_ids()
        );
    }
    println!(
        "\nReading guide: instruction-keyed strategies cover distinct code behaviors with few \
         tests and find the most bugs — the paper's headline Table 3 conclusion."
    );
}
