//! Store-backed pipeline preparation.
//!
//! [`prepare`] is `snowboard::Pipeline::prepare` — the same fused fuzz and
//! profile loop, each program executed once — with the store at its stage-2
//! seam: every kept program's profile is looked up by content key, misses
//! are written from the profiles in hand, and PMC identification reuses a
//! stored set — whole on an exact corpus match, incrementally grown on a
//! prefix match, rebuilt with the sharded path otherwise.
//!
//! Store damage never aborts preparation: a `Damaged` lookup is a miss, and
//! writing it from the profile in hand heals the record — so a run against a
//! corrupted store produces results bit-identical to a cold run.

use sb_kernel::KernelConfig;
use snowboard::metrics::StoreStats;
use snowboard::pmc::{IdentifyOpts, JoinState};
use snowboard::{trace_keys, Pipeline, PipelineCfg};

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
    let (mut pmc_cache_hit, mut pmc_incremental, mut shard_report) = (false, false, None);
    let pipeline = Pipeline::prepare_with(config, cfg.clone(), |corpus, profiles| {
        let keys: Vec<u64> = corpus
            .iter()
            .map(|p| profile_key(&config, cfg.seed, p))
            .collect();
        // A hit holds what the profile in hand holds (same program, same
        // snapshot, same run), so only misses and damaged records are
        // written. A cached failure cannot name a kept program: the fuzz
        // loop keeps only runs that complete.
        let mut batch = Vec::new();
        for (i, (key, profile)) in keys.iter().zip(profiles).enumerate() {
            if let ProfileLookup::Miss | ProfileLookup::Damaged =
                store.lookup_profile(*key, i as u32)?
            {
                batch.push((*key, Some(profile.clone())));
            }
        }
        store.insert_profiles(&batch)?;
        let pmcs = match store.lookup_pmcs(&keys)? {
            PmcLookup::Exact(set) => {
                pmc_cache_hit = true;
                set
            }
            PmcLookup::Prefix(set, prefix_len) => {
                pmc_incremental = true;
                let (old, new) = profiles.split_at(prefix_len);
                let mut st = JoinState::resume(old, set);
                shard_report = Some(st.add_profiles(new, identify));
                st.into_set()
            }
            // A damaged PMC record rebuilds like a miss; the save below heals
            // the entry.
            PmcLookup::Miss | PmcLookup::Damaged => {
                let mut st = JoinState::new();
                shard_report = Some(st.add_profiles(profiles, identify));
                st.into_set()
            }
        };
        if !pmc_cache_hit {
            store.save_pmcs(&keys, &pmcs)?;
        }
        store.flush()?;
        Ok::<_, Error>(pmcs)
    })?;

    let tracer = &cfg.tracer;
    tracer.count(trace_keys::STORE_PROFILE_HITS, store.profile_hits);
    tracer.count(trace_keys::STORE_PROFILE_MISSES, store.profile_misses);
    tracer.count(trace_keys::STORE_RECORDS_DAMAGED, store.records_damaged);
    tracer.count(trace_keys::STORE_RECORDS_HEALED, store.records_healed);
    let (_, seg_stats) = store.segment_sizes()?;
    let store_stats = StoreStats {
        profile_hits: store.profile_hits,
        profile_misses: store.profile_misses,
        pmc_cache_hit,
        pmc_incremental,
        segments: seg_stats.segments,
        stored_bytes: seg_stats.bytes,
        shards: identify.shards as u64,
        shard_skew: shard_report.as_ref().map_or(0.0, |r| r.skew()),
        records_damaged: store.records_damaged,
        records_healed: store.records_healed,
    };
    Ok((pipeline, store_stats))
}
