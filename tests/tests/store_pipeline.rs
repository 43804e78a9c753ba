//! Cold/warm store runs: a store-backed prepare is `Pipeline::prepare` plus
//! records — cold, warm, bypassed or damaged it returns the fused prepare's
//! corpus, profiles and PMC set and leaves those profiles in the store; a
//! warm run serves every lookup (100% hit rate) and loads the identical PMC
//! set; corpus growth reuses the stored set incrementally.

use std::path::{Path, PathBuf};

use sb_kernel::KernelConfig;
use sb_obs::{Event, TraceReport, Tracer};
use sb_store::{profile_key, ProfileLookup, Store};
use snowboard::cluster::Strategy;
use snowboard::pmc::{identify, IdentifyOpts, PmcKey, PmcSet};
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, CampaignReport, DiskFaults, Pipeline, PipelineCfg};

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sb-store-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_cfg(corpus_target: usize) -> PipelineCfg {
    PipelineCfg {
        seed: 7,
        corpus_target,
        fuzz_budget: 600,
        workers: 2,
        ..PipelineCfg::default()
    }
}

fn run_campaign(p: &Pipeline) -> CampaignReport {
    let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    let cfg = CampaignCfg {
        seed: 11,
        trials_per_pmc: 8,
        max_tested_pmcs: 60,
        workers: 1,
        stop_on_finding: true,
        incidental: true,
        ..CampaignCfg::default()
    };
    p.campaign(&exemplars, &cfg).expect("campaign")
}

/// One store-backed prepare against `dir` after `arm` has set the store up.
fn prepare_in(dir: &Path, arm: impl FnOnce(&mut Store)) -> (Pipeline, snowboard::StoreStats) {
    let mut store = Store::open(dir).expect("open");
    arm(&mut store);
    sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(24),
        &IdentifyOpts::sharded(2, 2),
        &mut store,
    )
    .expect("store-backed prepare")
}

#[test]
fn a_store_backed_prepare_is_the_fused_prepare_plus_records() {
    let fused = Pipeline::prepare(KernelConfig::v5_12_rc3(), small_cfg(24));
    let n = fused.corpus.len() as u64;
    let same = |what: &str, p: &Pipeline| {
        assert_eq!(p.corpus, fused.corpus, "{what}");
        assert_eq!(p.profiles, fused.profiles, "{what}");
        assert_eq!(p.pmcs, fused.pmcs, "{what}");
        let counts = |p: &Pipeline| (p.stats.fuzz_executed, p.stats.corpus_kept, p.stats.edges);
        assert_eq!(counts(p), counts(&fused), "{what}");
    };
    let dir = store_dir("fused");
    // What a fresh process finds: every kept program's record decodes to
    // the profile the fuzz loop cut.
    let records_are_the_fused_profiles = |what: &str| {
        let mut store = Store::open(&dir).expect("reopen");
        for (i, (prog, profile)) in fused.corpus.iter().zip(&fused.profiles).enumerate() {
            let key = profile_key(&KernelConfig::v5_12_rc3(), 7, prog);
            let got = store.lookup_profile(key, i as u32).expect("lookup");
            assert_eq!(got, ProfileLookup::Hit(profile.clone()), "{what}: test {i}");
        }
    };

    let (cold, stats) = prepare_in(&dir, |_| {});
    same("cold", &cold);
    assert_eq!((stats.profile_hits, stats.profile_misses), (0, n));
    records_are_the_fused_profiles("cold");

    let (warm, stats) = prepare_in(&dir, |_| {});
    same("warm", &warm);
    assert_eq!(
        (
            stats.profile_hits,
            stats.profile_misses,
            stats.pmc_cache_hit
        ),
        (n, 0, true)
    );
    records_are_the_fused_profiles("warm");

    let (bypassed, stats) = prepare_in(&dir, |s| s.set_read_cache(false));
    same("no cache", &bypassed);
    assert_eq!((stats.profile_hits, stats.profile_misses), (0, n));
    records_are_the_fused_profiles("no cache");

    // A bypassed run rewrites every profile into a fresh segment; offset 20
    // is the CRC word of its first record, so one record is stored damaged.
    prepare_in(&dir, |s| {
        s.set_read_cache(false);
        s.set_fault_plan(DiskFaults {
            flip_after_write: Some((20, 0xFF)),
            ..DiskFaults::default()
        });
    });
    let (healed, stats) = prepare_in(&dir, |_| {});
    same("damaged", &healed);
    assert_eq!(
        (
            stats.records_damaged,
            stats.records_healed,
            stats.profile_misses
        ),
        (1, 1, 1)
    );
    records_are_the_fused_profiles("healed");
    std::fs::remove_dir_all(&dir).ok();
}

/// Each program executes once: the profiles of a store-backed prepare are
/// cut inside the fuzz loop, cold or warm — no `profile` span under
/// `prepare`, and `profile.ok` counts every kept program.
#[test]
fn a_store_backed_prepare_runs_no_profile_pass() {
    let dir = store_dir("onepass");
    for run in ["cold", "warm"] {
        let (tracer, sink) = Tracer::memory();
        let cfg = PipelineCfg {
            tracer,
            ..small_cfg(24)
        };
        let mut store = Store::open(&dir).expect("open");
        let (p, _) = sb_store::prepare(
            KernelConfig::v5_12_rc3(),
            &cfg,
            &IdentifyOpts::sharded(2, 2),
            &mut store,
        )
        .expect("prepare");
        let lines = sink.lines();
        let events: Vec<Event> = lines
            .iter()
            .map(|l| Event::parse_line(l).expect("event"))
            .collect();
        let prepare = events.iter().find_map(|e| match e {
            Event::SpanStart { span, name, .. } if name == "prepare" => Some(*span),
            _ => None,
        });
        let children: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { parent, name, .. } if Some(*parent) == prepare => {
                    Some(name.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(children, ["fuzz", "identify"], "{run}");
        let tr = TraceReport::from_lines(lines.iter().map(String::as_str)).expect("parse trace");
        assert_eq!(
            tr.counter(sb_obs::keys::PIPELINE_PROFILES),
            p.stats.corpus_kept,
            "{run}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_run_skips_all_profiling_and_matches_cold_run() {
    let dir = store_dir("warm");
    let opts = IdentifyOpts::sharded(4, 2);

    let mut cold_store = Store::open(&dir).expect("open cold");
    let (cold, cold_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(24),
        &opts,
        &mut cold_store,
    )
    .expect("cold prepare");
    assert_eq!(cold_stats.profile_hits, 0, "cold run cannot hit");
    assert_eq!(cold_stats.profile_misses as usize, cold.corpus.len());
    assert!(!cold_stats.pmc_cache_hit && !cold_stats.pmc_incremental);
    assert!(cold_stats.stored_bytes > 0 && cold_stats.segments > 0);

    let mut warm_store = Store::open(&dir).expect("open warm");
    let (warm, warm_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(24),
        &opts,
        &mut warm_store,
    )
    .expect("warm prepare");

    // 100% profile hit rate: every lookup served from the store.
    assert_eq!(
        warm_stats.profile_misses, 0,
        "warm run re-profiled something"
    );
    // Failed profiles count as hits too (negative caching), so hits alone
    // must cover the whole corpus.
    assert_eq!(
        warm_stats.profile_hits,
        warm.corpus.len() as u64,
        "every corpus entry must be served from the store"
    );
    assert!((warm_stats.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert!(
        warm_stats.pmc_cache_hit,
        "exact corpus match must reuse the stored set"
    );

    // Bit-identical pipeline outputs...
    assert_eq!(cold.corpus, warm.corpus);
    assert_eq!(cold.profiles, warm.profiles);
    assert_eq!(cold.pmcs, warm.pmcs, "stored PMC set must be bit-identical");

    // ...and identical campaign aggregates.
    let (a, b) = (run_campaign(&cold), run_campaign(&warm));
    assert_eq!(a.tested(), b.tested());
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.bug_ids(), b.bug_ids());
    assert_eq!(a.issues.len(), b.issues.len());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_growth_reuses_the_stored_prefix_incrementally() {
    let dir = store_dir("grow");
    let opts = IdentifyOpts::sharded(3, 2);

    let mut first = Store::open(&dir).expect("open");
    let (small, _) =
        sb_store::prepare(KernelConfig::v5_12_rc3(), &small_cfg(16), &opts, &mut first)
            .expect("small prepare");

    // Same seed + budget with a larger target: the kept corpus grows by
    // appending, so the stored keys are a strict prefix of the new ones.
    let mut second = Store::open(&dir).expect("reopen");
    let (grown, stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(24),
        &opts,
        &mut second,
    )
    .expect("grown prepare");
    assert!(
        grown.corpus.len() > small.corpus.len(),
        "corpus did not grow"
    );
    assert_eq!(&grown.corpus[..small.corpus.len()], &small.corpus[..]);
    assert!(
        stats.pmc_incremental,
        "prefix match must take the incremental path"
    );
    assert!(!stats.pmc_cache_hit);
    assert!(
        stats.profile_hits >= small.corpus.len() as u64,
        "prefix profiles must be served from the store"
    );

    // The incrementally grown set covers the same universe as a rebuild.
    assert_eq!(
        canonical(&grown.pmcs),
        canonical(&identify(&grown.profiles)),
        "incremental set diverged from full rebuild"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_forces_reprofiling_but_keeps_outputs_equal() {
    let dir = store_dir("nocache");
    let opts = IdentifyOpts::sharded(2, 2);

    let mut cold_store = Store::open(&dir).expect("open");
    let (cold, _) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(16),
        &opts,
        &mut cold_store,
    )
    .expect("cold prepare");

    let mut bypass = Store::open(&dir).expect("reopen");
    bypass.set_read_cache(false);
    let (fresh, stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(16),
        &opts,
        &mut bypass,
    )
    .expect("bypass prepare");
    assert_eq!(
        stats.profile_hits, 0,
        "--no-cache must not serve cached profiles"
    );
    assert_eq!(stats.profile_misses as usize, fresh.corpus.len());
    assert_eq!(
        cold.profiles, fresh.profiles,
        "re-profiling must be deterministic"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Pairs retained per PMC are capped (join order decides which survive), so
/// equivalence holds only up to the cap. Mirrors `MAX_PAIRS_PER_PMC`.
const PAIR_CAP: usize = 32;

/// One PMC reduced for comparison: key, df flag, pair count, pair list.
type CanonicalPmc = (PmcKey, bool, usize, Vec<(u32, u32)>);

/// Order-independent view of a PMC set: sorted keys with sorted pair lists;
/// capped pair lists are compared by size only.
fn canonical(set: &PmcSet) -> Vec<CanonicalPmc> {
    let mut v: Vec<_> = set
        .pmcs
        .iter()
        .map(|p| {
            let mut pairs = p.pairs.clone();
            pairs.sort_unstable();
            if pairs.len() >= PAIR_CAP {
                pairs.clear();
            }
            (p.key, p.df_leader, p.pairs.len(), pairs)
        })
        .collect();
    v.sort_unstable_by_key(|(k, _, _, _)| {
        (
            k.w.ins.0, k.w.addr, k.w.len, k.w.value, k.r.ins.0, k.r.addr, k.r.len, k.r.value,
        )
    });
    v
}
