//! Experiment E2 — regenerates **Table 3**: per-strategy testing results on
//! the 5.12-rc3 kernel.
//!
//! Eleven generation methods run with identical corpora and budgets: the
//! eight Table 1 clustering strategies, Random S-INS-PAIR (randomized
//! cluster order), and the Random/Duplicate pairing baselines. Reported per
//! method: exemplar-PMC count (cluster count), tested PMCs within budget,
//! and the issues found with week-normalized days-to-find. Under the table,
//! each expected-shape claim of the paper is checked against these rows and
//! printed with `holds` or `fails`.

use sb_bench::{issue_days, issues_cell, prepare, print_table, run_strategy, Scale};
use sb_kernel::KernelConfig;
use snowboard::baseline::{run_baseline, Pairing};
use snowboard::cluster::{cluster, Strategy, ALL_STRATEGIES};
use snowboard::select::ClusterOrder;
use snowboard::CampaignReport;

fn main() {
    let scale = Scale::from_env();
    let p = prepare(KernelConfig::v5_12_rc3(), &scale, 2021);

    let mut rows: Vec<Vec<String>> = Vec::new();
    // Every method's report, by row label, for the expected-shape checks.
    let mut reports: Vec<(String, CampaignReport)> = Vec::new();
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
        reports.push((strategy.to_string(), report));
    }

    // Random S-INS-PAIR: identical clustering, randomized cluster order.
    {
        let strategy = Strategy::SInsPair;
        let clusters = cluster(&p.pmcs, strategy).len();
        let report = run_strategy(&p, strategy, ClusterOrder::Random, &scale, 3);
        rows.push(vec![
            "Random S-INS-PAIR".to_owned(),
            clusters.to_string(),
            report.tested().to_string(),
            issues_cell(&report),
        ]);
        reports.push(("Random S-INS-PAIR".to_owned(), report));
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
        reports.push((pairing.to_string(), report));
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
    println!("\nExpected shape vs paper, checked against the rows above:");
    for (claim, holds, detail) in shape_checks(&reports) {
        let verdict = if holds { "holds" } else { "fails" };
        println!("  {verdict}: {claim} ({detail})");
    }
}

/// The paper's expected Table 3 shape as `(claim, holds, evidence)` lines,
/// each computed from `reports` (row label → report).
fn shape_checks(reports: &[(String, CampaignReport)]) -> Vec<(&'static str, bool, String)> {
    let report = |label: &str| {
        &reports
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no {label} row"))
            .1
    };
    let found = |label: &str| report(label).bug_ids().len();
    let list = |ids: &[u8]| {
        let ids: Vec<String> = ids.iter().map(|id| format!("#{id}")).collect();
        if ids.is_empty() {
            "none".to_owned()
        } else {
            ids.join(", ")
        }
    };
    let mut checks = Vec::new();

    let s_full = report(&Strategy::SFull.to_string()).bug_ids();
    checks.push((
        "S-FULL finds only the common benign race #13",
        s_full == [13],
        format!("S-FULL finds {}", list(&s_full)),
    ));

    let ins = [Strategy::SIns.to_string(), Strategy::SInsPair.to_string()];
    let best_ins = ins.iter().map(|l| found(l)).max().unwrap_or(0);
    let (other, most) = reports
        .iter()
        .filter(|(l, _)| !ins.contains(l))
        .map(|(l, r)| (l.as_str(), r.bug_ids().len()))
        .max_by_key(|(_, n)| *n)
        .unwrap_or(("no other method", 0));
    checks.push((
        "S-INS/S-INS-PAIR find the most issues",
        best_ins >= most,
        format!("{best_ins} against {most} for {other}"),
    ));

    // Mean discovery day over the issues both orders find, so a bug only
    // one of them finds does not weigh on the comparison.
    let ordered = issue_days(report(&Strategy::SInsPair.to_string()));
    let random = issue_days(report("Random S-INS-PAIR"));
    let both: Vec<(f64, f64)> = ordered
        .iter()
        .filter_map(|(id, o)| Some((*o, random.iter().find(|(r, _)| r == id)?.1)))
        .collect();
    let mean = |pick: fn(&(f64, f64)) -> f64| {
        both.iter().map(pick).sum::<f64>() / both.len().max(1) as f64
    };
    let (o, r) = (mean(|p| p.0), mean(|p| p.1));
    checks.push((
        "ordered S-INS-PAIR finds sooner than Random S-INS-PAIR",
        !both.is_empty() && o < r,
        format!(
            "mean days {o:.1} against {r:.1} over the {} issue(s) both find",
            both.len()
        ),
    ));

    let mut small = true;
    let mut beyond = Vec::new();
    for pairing in [Pairing::Random, Pairing::Duplicate] {
        let label = pairing.to_string();
        let extra: Vec<u8> = report(&label)
            .bug_ids()
            .into_iter()
            .filter(|id| *id != 13)
            .collect();
        small &= extra.len() <= 1;
        beyond.push(format!("{label} finds {} besides #13", list(&extra)));
    }
    checks.push((
        "the baselines find at most #13 plus one",
        small,
        beyond.join("; "),
    ));
    checks
}
