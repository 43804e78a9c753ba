//! Store-backed pipeline preparation.
//!
//! [`prepare`] is `snowboard::Pipeline::prepare` with persistence spliced
//! into stages 1–2: profiles are served from the store when their content
//! key matches (unchanged tests are never re-profiled), only misses are
//! executed, and PMC identification reuses a stored set — whole on an exact
//! corpus match, incrementally grown on a prefix match, rebuilt with the
//! sharded parallel path otherwise.
//!
//! Store damage never aborts preparation: `Damaged` lookups are treated as
//! misses, recomputed, and rewritten — so a run against a corrupted store
//! produces results bit-identical to a cold run, plus healed records.

use std::time::Instant;

use sb_kernel::{boot, KernelConfig};
use snowboard::metrics::StoreStats;
use snowboard::pmc::{IdentifyOpts, JoinState};
use snowboard::profile::{self, SeqProfile};
use snowboard::{trace_keys, Pipeline, PipelineCfg, PrepStats};

use crate::store::{profile_key, PmcLookup, ProfileLookup, Store};
use crate::Error;

/// Prepares pipeline stages 1–2 against `store`. Returns the prepared
/// pipeline plus this run's store effectiveness counters.
pub fn prepare(
    config: KernelConfig,
    cfg: &PipelineCfg,
    identify: &IdentifyOpts,
    store: &mut Store,
) -> Result<(Pipeline, StoreStats), Error> {
    let tracer = cfg.tracer.clone();
    let prep = tracer.span("prepare");
    let booted = boot(config);
    let t0 = Instant::now();
    let (corpus, fuzz_stats) = {
        let _s = prep.child("fuzz");
        sb_fuzz::build_corpus_with(
            &booted,
            cfg.seed,
            cfg.corpus_target,
            cfg.fuzz_budget,
            cfg.catalog,
        )
    };
    let fuzz_time = t0.elapsed();

    // Stage 1: profile, serving unchanged tests from the store.
    let profile_span = prep.child("profile");
    let keys: Vec<u64> = corpus
        .iter()
        .map(|p| profile_key(&config, cfg.seed, p))
        .collect();
    let mut slots: Vec<Option<Option<SeqProfile>>> = vec![None; corpus.len()];
    let mut jobs = Vec::new();
    for (i, prog) in corpus.iter().enumerate() {
        match store.lookup_profile(keys[i], i as u32)? {
            ProfileLookup::Hit(p) => slots[i] = Some(Some(p)),
            ProfileLookup::FailedCached => slots[i] = Some(None),
            // Damaged records are quarantined misses: the recompute below
            // rewrites them, healing the store as a side effect.
            ProfileLookup::Miss | ProfileLookup::Damaged => jobs.push((i as u32, prog.clone())),
        }
    }
    let fresh = profile::profile_jobs_traced(&booted, jobs, cfg.workers, &tracer);
    let batch: Vec<(u64, Option<SeqProfile>)> = fresh
        .iter()
        .map(|(i, p)| (keys[*i as usize], p.clone()))
        .collect();
    store.insert_profiles(&batch)?;
    for (i, p) in fresh {
        slots[i as usize] = Some(p);
    }
    let profiles: Vec<SeqProfile> = slots
        .into_iter()
        .filter_map(|s| s.expect("every corpus entry resolved"))
        .collect();
    drop(profile_span);

    // Stage 2: identify, reusing a stored set when possible.
    let t2 = Instant::now();
    let identify_span = prep.child("identify");
    let mut pmc_cache_hit = false;
    let mut pmc_incremental = false;
    let mut shard_report = None;
    let pmcs = match store.lookup_pmcs(&keys)? {
        PmcLookup::Exact(set) => {
            pmc_cache_hit = true;
            set
        }
        PmcLookup::Prefix(set, prefix_len) => {
            pmc_incremental = true;
            let (old, new): (Vec<SeqProfile>, Vec<SeqProfile>) = profiles
                .iter()
                .cloned()
                .partition(|p| (p.test as usize) < prefix_len);
            let mut st = JoinState::resume(&old, set);
            shard_report = Some(st.add_profiles(&new, identify));
            st.into_set()
        }
        // A damaged PMC record rebuilds like a miss; the save below heals
        // the entry.
        PmcLookup::Miss | PmcLookup::Damaged => {
            let mut st = JoinState::new();
            shard_report = Some(st.add_profiles(&profiles, identify));
            st.into_set()
        }
    };
    if !pmc_cache_hit {
        store.save_pmcs(&keys, &pmcs)?;
    }
    store.flush()?;
    drop(identify_span);
    let identify_time = t2.elapsed();

    tracer.count(trace_keys::STORE_PROFILE_HITS, store.profile_hits);
    tracer.count(trace_keys::STORE_PROFILE_MISSES, store.profile_misses);
    tracer.count(trace_keys::STORE_RECORDS_DAMAGED, store.records_damaged);
    tracer.count(trace_keys::STORE_RECORDS_HEALED, store.records_healed);
    tracer.count(trace_keys::PIPELINE_PROFILES, profiles.len() as u64);
    tracer.count(
        trace_keys::PIPELINE_SHARED_ACCESSES,
        profiles.iter().map(|p| p.accesses.len() as u64).sum(),
    );
    tracer.count(trace_keys::PIPELINE_PMCS, pmcs.len() as u64);

    let (_, seg_stats) = store.segment_sizes()?;
    let store_stats = StoreStats {
        profile_hits: store.profile_hits,
        profile_misses: store.profile_misses,
        failed_cached: store.failed_cached,
        pmc_cache_hit,
        pmc_incremental,
        segments: seg_stats.segments,
        stored_bytes: seg_stats.bytes,
        shards: identify.shards as u64,
        shard_skew: shard_report.as_ref().map_or(0.0, |r| r.skew()),
        records_damaged: store.records_damaged,
        records_healed: store.records_healed,
    };
    let stats = PrepStats {
        fuzz_executed: fuzz_stats.executed,
        corpus_kept: fuzz_stats.kept,
        edges: fuzz_stats.edges,
        shared_accesses: profiles.iter().map(|p| p.accesses.len()).sum(),
        pmcs_identified: pmcs.len(),
        fuzz_time,
        identify_time,
    };
    Ok((
        Pipeline {
            booted,
            corpus,
            profiles,
            pmcs,
            stats,
        },
        store_stats,
    ))
}
