//! End-to-end oracle-subsystem tests: a hunt must find each of the six
//! planted sync bugs (#18–#23) through its *intended* oracle, and the extra
//! oracles must leave the race detector's findings as `--oracles race`
//! reports them on the same corpus.

use std::collections::BTreeMap;

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, OracleSet, Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;

fn extended_cfg() -> PipelineCfg {
    PipelineCfg {
        // The corpus of seed 7 never reaches #18's window under any campaign
        // seed 0-23; 5 and 11 do (EXPERIMENTS.md, "Hermetic workspace").
        seed: 5,
        corpus_target: 80,
        fuzz_budget: 900,
        workers: 4,
        ..PipelineCfg::default()
    }
}

/// The oracle each planted sync bug must be reported by, as the dedup-key
/// prefix its finding carries.
const EXPECTED_ORACLE: &[(u8, &str)] = &[
    (18, "wakeup"),      // futexq lost wakeup
    (19, "lockorder"),   // epollwake ABBA
    (20, "sleepatomic"), // nbd_conn sleep under spinlock
    (21, "lockrule"),    // vsock unlocked tx-queue store
    (22, "lockrule"),    // kernfs_node unlocked flags store
    (23, "wakeup"),      // workqueue_flush lost completion
];

#[test]
fn extended_catalog_campaign_finds_the_six_oracle_bugs() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), extended_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 13,
        trials_per_pmc: 24,
        max_tested_pmcs: 600,
        workers: 4,
        // Run every trial: the rule miner needs the job's whole corpus.
        stop_on_finding: false,
        incidental: true,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    assert!(
        report.quarantined.is_empty(),
        "no job should fail: {:?}",
        report.quarantined
    );
    // bug id -> set of oracle kinds (dedup-key prefixes) that reported it.
    let mut by_bug: BTreeMap<u8, Vec<&str>> = BTreeMap::new();
    for issue in &report.issues {
        if let Some(id) = issue.bug_id {
            let kind = issue.key.split(':').next().unwrap_or("");
            by_bug.entry(id).or_default().push(kind);
        }
    }
    for (bug, oracle) in EXPECTED_ORACLE {
        let kinds = by_bug.get(bug);
        assert!(
            kinds.is_some_and(|k| k.contains(oracle)),
            "bug #{bug} not reported by its {oracle} oracle; found {by_bug:?}"
        );
    }
    // The race and console bugs stay reachable too.
    assert!(
        report.bug_ids().contains(&13),
        "slab bug lost: {:?}",
        report.bug_ids()
    );
}

#[test]
fn race_only_oracles_reproduce_the_stock_findings_exactly() {
    // With identical seeds and no finding-dependent control flow
    // (stop_on_finding off), an all-oracles campaign must report exactly
    // the race-only campaign's findings plus sync-oracle kinds — the
    // subsystem never perturbs, drops, or reorders stock findings.
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), PipelineCfg::default());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let base = CampaignCfg {
        seed: 11,
        trials_per_pmc: 8,
        max_tested_pmcs: 80,
        workers: 2,
        stop_on_finding: false,
        incidental: true,
        ..CampaignCfg::default()
    };
    let race_cfg = CampaignCfg {
        oracles: OracleSet::race_only(),
        ..base.clone()
    };
    let race = p
        .campaign(&exemplars, &race_cfg)
        .expect("race-only campaign");
    let all = p.campaign(&exemplars, &base).expect("all-oracles campaign");
    let stock = ["panic", "console", "race", "deadlock", "livelock"];
    let race_keys: Vec<&str> = race.issues.iter().map(|i| i.key.as_str()).collect();
    let all_stock_keys: Vec<&str> = all
        .issues
        .iter()
        .map(|i| i.key.as_str())
        .filter(|k| stock.contains(&k.split(':').next().unwrap_or("")))
        .collect();
    assert_eq!(
        race_keys, all_stock_keys,
        "stock findings changed under extra oracles"
    );
    assert!(
        race.issues
            .iter()
            .all(|i| stock.contains(&i.key.split(':').next().unwrap_or(""))),
        "race-only run produced an oracle-kind finding"
    );
    assert_eq!(
        race.executions, all.executions,
        "oracle selection changed the trial plan"
    );
}
