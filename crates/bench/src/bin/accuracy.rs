//! Experiment E3 — regenerates the **§5.3.2 PMC-identification numbers**:
//!
//! * *accuracy*: the fraction of all tested concurrent inputs that actually
//!   exercised a predicted PMC (paper: 784.9K / 3743.1K ≈ 22%), and
//! * *precision*: the fraction of PMC-generated inputs whose predicted
//!   channel was exercised in at least one trial (paper: ≈ 36%).

use sb_bench::{prepare, run_strategy, Scale};
use sb_kernel::KernelConfig;
use snowboard::baseline::{run_baseline, Pairing};
use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;

fn main() {
    let scale = Scale::from_env();
    let p = prepare(KernelConfig::v5_12_rc3(), &scale, 2021);

    // PMC-guided inputs across a few strategies (as in the real campaign,
    // where all strategies contribute tested inputs).
    let mut pmc_tested = 0usize;
    let mut pmc_exercised = 0usize;
    for strategy in [
        Strategy::SInsPair,
        Strategy::SIns,
        Strategy::SCh,
        Strategy::SMem,
    ] {
        let report = run_strategy(&p, strategy, ClusterOrder::UncommonFirst, &scale, 17);
        eprintln!(
            "[accuracy] {strategy}: tested {}, exercised {} ({:.1}%)",
            report.tested(),
            report.exercised(),
            100.0 * report.accuracy()
        );
        pmc_tested += report.tested();
        pmc_exercised += report.exercised();
    }

    // Baseline inputs involve no prediction; they dilute overall accuracy
    // exactly as in the paper's accounting.
    let baseline_tests = {
        let r1 = run_baseline(
            &p.booted,
            &p.corpus,
            Pairing::Random,
            scale.max_tested / 2,
            &scale.baseline_cfg(23),
        );
        let r2 = run_baseline(
            &p.booted,
            &p.corpus,
            Pairing::Duplicate,
            scale.max_tested / 2,
            &scale.baseline_cfg(29),
        );
        r1.tested() + r2.tested()
    };

    let total_inputs = pmc_tested + baseline_tests;
    let precision = 100.0 * pmc_exercised as f64 / pmc_tested.max(1) as f64;
    let accuracy = 100.0 * pmc_exercised as f64 / total_inputs.max(1) as f64;
    println!("\n§5.3.2 PMC identification (reproduction)\n");
    println!("PMCs identified:                 {}", p.pmcs.len());
    println!("PMC-guided inputs tested:        {pmc_tested}");
    println!("  of which exercised channel:    {pmc_exercised}");
    println!("baseline inputs tested:          {baseline_tests}");
    println!("PMC prediction precision:        {precision:.1}%   (paper: ~36%)");
    println!("overall exercised/tested inputs: {accuracy:.1}%   (paper: ~22%)");
    println!(
        "\nMisprediction causes mirror §5.3.2: private re-allocation of the profiled buffer \
         and control-flow divergence under concurrency."
    );
}
