//! Experiment E2 — regenerates **Table 3**: per-strategy testing results on
//! the 5.12-rc3 kernel.
//!
//! Eleven generation methods run with identical corpora and budgets: the
//! eight Table 1 clustering strategies, Random S-INS-PAIR (randomized
//! cluster order), and the Random/Duplicate pairing baselines. Reported per
//! method: exemplar-PMC count (cluster count), tested PMCs within budget,
//! and the issues found with week-normalized days-to-find.

use sb_bench::{issues_cell, prepare, print_table, run_strategy, Scale};
use sb_kernel::KernelConfig;
use snowboard::baseline::{run_baseline, Pairing};
use snowboard::cluster::{cluster, ALL_STRATEGIES};
use snowboard::select::ClusterOrder;

fn main() {
    let scale = Scale::from_env();
    let p = prepare(KernelConfig::v5_12_rc3(), &scale, 2021);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for strategy in ALL_STRATEGIES {
        let clusters = cluster(&p.pmcs, strategy).len();
        eprintln!("[table3] {strategy}: {clusters} clusters");
        let report = run_strategy(&p, strategy, ClusterOrder::UncommonFirst, &scale, 3);
        rows.push(vec![
            strategy.to_string(),
            clusters.to_string(),
            report.tested().to_string(),
            issues_cell(&report),
        ]);
    }

    // Random S-INS-PAIR: identical clustering, randomized cluster order.
    {
        let strategy = snowboard::cluster::Strategy::SInsPair;
        let clusters = cluster(&p.pmcs, strategy).len();
        let report = run_strategy(&p, strategy, ClusterOrder::Random, &scale, 3);
        rows.push(vec![
            "Random S-INS-PAIR".to_owned(),
            clusters.to_string(),
            report.tested().to_string(),
            issues_cell(&report),
        ]);
    }

    // Baselines: no PMC analysis at all.
    for pairing in [Pairing::Random, Pairing::Duplicate] {
        let report = run_baseline(
            &p.booted,
            &p.corpus,
            pairing,
            scale.max_tested,
            &scale.baseline_cfg(11),
        );
        rows.push(vec![
            pairing.to_string(),
            "NA".to_owned(),
            format!("{} (tests)", report.tested()),
            issues_cell(&report),
        ]);
    }

    println!("\nTable 3 — testing results on 5.12-rc3 per generation method (reproduction)\n");
    print_table(
        &[
            "Clustering strategy",
            "Exemplar PMCs",
            "Tested PMCs",
            "Issues found (days)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape vs paper: S-FULL has the most clusters yet finds only the common \
         benign race (#13); instruction-based strategies (S-INS, S-INS-PAIR) find the most \
         bugs; ordered S-INS-PAIR beats Random S-INS-PAIR; baselines find little beyond #13."
    );
}
