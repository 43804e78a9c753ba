//! Experiment E1 — regenerates **Table 2**: the issues Snowboard finds on
//! the two kernel versions.
//!
//! The 5.3.10 campaign uses all clustering strategies combined (§5.1); the
//! 5.12-rc3 campaign unions the per-strategy runs (here: the strongest
//! strategies plus the baselines, for time). Every row of the ground-truth
//! registry is printed with whether this run rediscovered it.

use std::collections::BTreeMap;

use sb_bench::{prepare, print_table, Scale};
use sb_kernel::{bugs, KernelConfig, KernelVersion};
use snowboard::cluster::{Strategy, ALL_STRATEGIES};
use snowboard::select::{combined_exemplars, ClusterOrder};
use snowboard::PmcId;

fn main() {
    let scale = Scale::from_env();
    let mut found: BTreeMap<u8, String> = BTreeMap::new();

    for config in [KernelConfig::v5_3_10(), KernelConfig::v5_12_rc3()] {
        let p = prepare(config, &scale, 2021);
        // "All clustering strategies combined" (§5.1): iterative selection
        // across every strategy, uncommon-first.
        let picks = combined_exemplars(&p.pmcs, &ALL_STRATEGIES, 2021);
        let ids: Vec<PmcId> = picks.iter().map(|(_, id)| *id).collect();
        eprintln!(
            "[{}] {} exemplar PMCs selected (budget {})",
            config.version,
            ids.len(),
            scale.max_tested
        );
        let report = p
            .campaign(&ids, &scale.campaign_cfg(99))
            .expect("combined campaign");
        eprintln!(
            "[{}] tested {} PMCs, {} executions, accuracy {:.2}",
            config.version,
            report.tested(),
            report.executions,
            report.accuracy()
        );
        for id in report.bug_ids() {
            found
                .entry(id)
                .and_modify(|v| {
                    if !v.contains("combined") {
                        v.push_str("+combined");
                    }
                })
                .or_insert_with(|| format!("combined/{}", config.version));
        }
        // The paper additionally credits baselines with some finds; run a
        // small duplicate-pairing batch to mirror that.
        let base = snowboard::baseline::run_baseline(
            &p.booted,
            &p.corpus,
            snowboard::baseline::Pairing::Duplicate,
            scale.max_tested / 4,
            &scale.baseline_cfg(5),
        );
        for id in base.bug_ids() {
            found
                .entry(id)
                .or_insert_with(|| format!("duplicate/{}", config.version));
        }
        // An S-INS-PAIR focused pass (the best strategy per Table 3).
        let focused = sb_bench::run_strategy(
            &p,
            Strategy::SInsPair,
            ClusterOrder::UncommonFirst,
            &scale,
            7,
        );
        for id in focused.bug_ids() {
            found
                .entry(id)
                .or_insert_with(|| format!("S-INS-PAIR/{}", config.version));
        }
    }

    println!("\nTable 2 — issues found by Snowboard (reproduction)\n");
    let rows: Vec<Vec<String>> = bugs::registry()
        .iter()
        .map(|b| {
            let versions = b
                .versions
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("/");
            vec![
                sb_bench::bug_label(b.id),
                b.title.to_owned(),
                versions,
                b.subsystem.to_owned(),
                b.kind.to_string(),
                if b.harmful {
                    "Harmful"
                } else {
                    "Benign/Reported"
                }
                .to_owned(),
                if b.distinct_input {
                    "Distinct"
                } else {
                    "Duplicate"
                }
                .to_owned(),
                found
                    .get(&b.id)
                    .cloned()
                    .unwrap_or_else(|| "not found in this run".to_owned()),
            ]
        })
        .collect();
    print_table(
        &[
            "ID",
            "Summary",
            "Version",
            "Subsystem",
            "Type",
            "Status",
            "Input",
            "Found by",
        ],
        &rows,
    );
    let total_found = found.len();
    let v5_3_found = found
        .keys()
        .filter(|id| {
            bugs::by_id(**id)
                .map(|b| b.versions.contains(&KernelVersion::V5_3_10))
                .unwrap_or(false)
        })
        .count();
    println!(
        "\nFound {total_found}/{} registry issues ({v5_3_found} present in 5.3.10). \
         Paper: 17 issues total, 9 bugs in the stable kernel.",
        bugs::registry().len()
    );
}
