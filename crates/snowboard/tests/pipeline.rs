//! End-to-end pipeline tests: fuzz → profile → identify → cluster → select
//! → execute, asserting the pipeline finds planted bugs.

use snowboard::cluster::Strategy;
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Catalog, OracleCtx, OracleSet, Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;

fn small_cfg() -> PipelineCfg {
    PipelineCfg {
        seed: 7,
        corpus_target: 60,
        fuzz_budget: 600,
        workers: 4,
        ..PipelineCfg::default()
    }
}

/// `Pipeline::prepare` cuts each profile out of the fuzz run that kept the
/// program. The pipeline it replaced — build the corpus, then run every kept
/// program a second time to profile it, then join — must give the same
/// corpus, profiles, PMC set and counted statistics: at `hunt` scale, at the
/// benchmark's scale, and when the budget runs out before the target.
#[test]
fn prepare_equals_fuzz_then_profile_then_identify() {
    let config = KernelConfig::v5_12_rc3();
    let booted = sb_kernel::boot(config);
    for (corpus_target, fuzz_budget) in [(100, 1500), (250, 6000), (60, 40)] {
        for seed in (0..16).map(|i| 2021 + 97 * i) {
            let what = format!("seed {seed}, {corpus_target}/{fuzz_budget}");
            let fused = Pipeline::prepare(
                config,
                PipelineCfg {
                    seed,
                    corpus_target,
                    fuzz_budget,
                    workers: 1,
                    ..PipelineCfg::default()
                },
            );
            let (corpus, fuzz) = sb_fuzz::build_corpus_with(
                &booted,
                seed,
                corpus_target,
                fuzz_budget,
                Catalog::Extended,
            );
            let profiles = snowboard::profile::profile_corpus(&booted, &corpus, 1);
            let pmcs = snowboard::pmc::identify(&profiles);
            assert_eq!(fused.corpus, corpus, "{what}");
            assert_eq!(fused.profiles, profiles, "{what}");
            assert_eq!(fused.pmcs, pmcs, "{what}");
            let stats = &fused.stats;
            assert_eq!(
                (stats.fuzz_executed, stats.corpus_kept, stats.edges),
                (fuzz.executed, fuzz.kept, fuzz.edges),
                "{what}"
            );
            assert_eq!(
                (stats.shared_accesses, stats.pmcs_identified),
                (profiles.iter().map(|p| p.accesses.len()).sum(), pmcs.len()),
                "{what}"
            );
            if fuzz_budget < 100 {
                assert!(
                    corpus.len() < corpus_target,
                    "{what}: the budget must run out"
                );
            } else {
                assert!(
                    corpus.len() >= corpus_target,
                    "{what}: the target must be met"
                );
            }
        }
    }
}

#[test]
fn pipeline_identifies_known_channels() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    assert!(
        p.pmcs.len() > 100,
        "expected a rich PMC universe, got {}",
        p.pmcs.len()
    );
    // The l2tp publication channel from Figure 1 must be predicted.
    let hit = snowboard::metrics::find_pmc_by_sites(&p.pmcs, "list_add_rcu", "l2tp_tunnel_get");
    assert!(hit.is_some(), "l2tp publish/lookup PMC missing");
    // The slab counter channel (bug #13) is everywhere.
    let slab =
        snowboard::metrics::find_pmc_by_sites(&p.pmcs, "cache_alloc_refill", "cache_alloc_refill");
    assert!(slab.is_some(), "slab stats PMC missing");
}

/// Table 3's cluster-count shape, on the corpus Table 3 is measured on:
/// `sb-bench`'s quick scale, which is also `hunt`'s default corpus. The
/// S-INS-PAIR ≥ S-INS step depends on the corpus: at 60 tests it fails for
/// seeds 3, 7 and 11 (EXPERIMENTS.md, "One corpus, one judge").
#[test]
fn cluster_counts_are_ordered_like_table3() {
    let cfg = PipelineCfg {
        seed: 2021,
        corpus_target: 100,
        fuzz_budget: 1500,
        ..small_cfg()
    };
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), cfg);
    let full = p.cluster_count(Strategy::SFull);
    let ch = p.cluster_count(Strategy::SCh);
    let ins = p.cluster_count(Strategy::SIns);
    let pair = p.cluster_count(Strategy::SInsPair);
    let dbl = p.cluster_count(Strategy::SChDouble);
    // Table 3's shape: S-FULL ≥ S-CH ≥ S-INS-PAIR ≥ S-INS; filters shrink.
    assert!(full >= ch, "S-FULL ({full}) < S-CH ({ch})");
    assert!(ch >= pair, "S-CH ({ch}) < S-INS-PAIR ({pair})");
    assert!(pair >= ins, "S-INS-PAIR ({pair}) < S-INS ({ins})");
    assert!(dbl <= ch, "filtered strategy bigger than its base");
    assert!(ins > 10, "S-INS should still have many clusters, got {ins}");
}

#[test]
fn sinspair_campaign_finds_panic_and_race_bugs() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 11,
        trials_per_pmc: 24,
        max_tested_pmcs: 500,
        workers: 4,
        stop_on_finding: true,
        incidental: true,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    assert!(
        report.quarantined.is_empty(),
        "no job should fail: {:?}",
        report.quarantined
    );
    let bugs = report.bug_ids();
    // #13 (slab stats) is found by everything.
    assert!(bugs.contains(&13), "missing #13 in {bugs:?}");
    // The campaign must find several of the 5.12-rc3 bugs (#2, #11..#17).
    assert!(bugs.len() >= 4, "expected >=4 distinct bugs, got {bugs:?}");
    // And some tests exercised their predicted channels.
    assert!(
        report.accuracy() > 0.05,
        "accuracy {:.3} too low",
        report.accuracy()
    );
}

#[test]
fn patched_kernel_yields_no_triaged_bugs() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3().patched(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 11,
        trials_per_pmc: 8,
        max_tested_pmcs: 200,
        workers: 4,
        stop_on_finding: true,
        incidental: false,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    assert!(
        report.bug_ids().is_empty(),
        "patched kernel reported {:?}",
        report.bug_ids()
    );
}

#[test]
fn campaign_repro_schedules_replay_their_findings() {
    // Every finding carries a recorded schedule; replaying it must
    // re-produce the same finding deterministically (§6).
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 21,
        trials_per_pmc: 16,
        max_tested_pmcs: 120,
        workers: 2,
        stop_on_finding: true,
        incidental: false,
        ..CampaignCfg::default()
    };
    let report = p.campaign(&exemplars, &cfg).expect("campaign");
    let mut exec = sb_vmm::Executor::new(2);
    let mut replayed = 0;
    for o in report
        .outcomes
        .iter()
        .filter(|o| o.repro_schedule.is_some())
    {
        let schedule = o.repro_schedule.clone().unwrap();
        let mut replay = sb_vmm::replay::ReplaySched::new(schedule);
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
        let found = OracleCtx::new(OracleSet::all()).analyze(&r.report);
        let keys: std::collections::HashSet<String> = found.iter().map(|f| f.dedup_key()).collect();
        for f in &o.findings {
            // Lock-rule findings are corpus-statistical (mined from the
            // whole job's trials), not per-execution reproducible.
            if matches!(f.kind_tag(), "lockrule" | "lockorder") {
                continue;
            }
            assert!(
                keys.contains(&f.dedup_key()),
                "replay lost finding {:?} for pair {:?}",
                f,
                o.pair
            );
        }
        replayed += 1;
        if replayed >= 10 {
            break;
        }
    }
    assert!(replayed >= 3, "expected several reproducible findings");
}

#[test]
fn baselines_find_the_easy_race_only_mostly() {
    let p = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg());
    let report = snowboard::baseline::run_baseline(
        &p.booted,
        &p.corpus,
        snowboard::baseline::Pairing::Duplicate,
        150,
        &CampaignCfg {
            seed: 3,
            trials_per_pmc: 4,
            workers: 4,
            ..CampaignCfg::default()
        },
    );
    let bugs = report.bug_ids();
    assert!(
        bugs.contains(&13),
        "duplicate pairing should stumble into #13: {bugs:?}"
    );
}

/// FNV-1a over every PMC of `set`, in id order: the id, both sides' site,
/// address, length and value, the double-fetch flag, and the pair list.
fn pmc_set_digest(set: &snowboard::PmcSet) -> u64 {
    let mut bytes = Vec::new();
    for (id, pmc) in set.pmcs.iter().enumerate() {
        bytes.extend_from_slice(&(id as u64).to_le_bytes());
        for side in [pmc.key.w, pmc.key.r] {
            bytes.extend_from_slice(&side.ins.0.to_le_bytes());
            bytes.extend_from_slice(&side.addr.to_le_bytes());
            bytes.push(side.len);
            bytes.extend_from_slice(&side.value.to_le_bytes());
        }
        bytes.push(u8::from(pmc.df_leader));
        bytes.extend_from_slice(&(pmc.pairs.len() as u64).to_le_bytes());
        for (w, r) in &pmc.pairs {
            bytes.extend_from_slice(&w.to_le_bytes());
            bytes.extend_from_slice(&r.to_le_bytes());
        }
    }
    sb_vmm::site::fnv1a(&bytes)
}

/// The identified PMC set, byte for byte, on both kernels: ids, sites,
/// ranges, values, flags and pairs. A change to the fuzz loop, the profile
/// cut or the join that moves any of them moves this digest.
#[test]
fn the_identified_pmc_set_is_pinned_on_both_kernels() {
    for (config, pmcs, digest) in [
        (KernelConfig::v5_12_rc3(), 158, 0x0594_6df9_7d15_cd57),
        (KernelConfig::v5_3_10(), 160, 0x8823_c011_9868_f3b6),
    ] {
        let p = Pipeline::prepare(
            config,
            PipelineCfg {
                seed: 2021,
                corpus_target: 60,
                fuzz_budget: 40,
                workers: 1,
                ..PipelineCfg::default()
            },
        );
        let got = (p.pmcs.len(), pmc_set_digest(&p.pmcs));
        assert_eq!(
            got,
            (pmcs, digest),
            "{:?}: {got:?} / {got:#x?}",
            config.version
        );
    }
}
