//! Store-backed pipeline preparation.
//!
//! [`prepare`] is `snowboard::Pipeline::prepare` — the same fused fuzz and
//! profile loop, each program executed once — with the store at its stage-2
//! seam: every kept program's profile is looked up by content key, misses
//! are written from the profiles in hand, and a stored PMC set is reused
//! only when it was identified from exactly this corpus. Any other corpus
//! is identified as `Pipeline::prepare` identifies it, so a store changes
//! what a run reads from disk, never what it computes.
//!
//! Store damage never aborts preparation: a `Damaged` lookup is a miss, and
//! writing it from the profile in hand heals the record — so a run against a
//! corrupted store produces results bit-identical to a cold run.

use sb_kernel::KernelConfig;
use snowboard::metrics::StoreStats;
use snowboard::{pmc, trace_keys, Pipeline, PipelineCfg};

use crate::store::{profile_key, PmcLookup, ProfileLookup, Store};
use crate::Error;

/// Prepares pipeline stages 1–2 against `store`. Returns the prepared
/// pipeline plus this run's store effectiveness counters.
pub fn prepare(
    config: KernelConfig,
    cfg: &PipelineCfg,
    store: &mut Store,
) -> Result<(Pipeline, StoreStats), Error> {
    let mut pmc_cache_hit = false;
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
        // A damaged PMC record is identified like a miss; the save heals it.
        let pmcs = match store.lookup_pmcs(&keys)? {
            PmcLookup::Exact(set) => {
                pmc_cache_hit = true;
                set
            }
            PmcLookup::Miss | PmcLookup::Damaged => {
                let set = pmc::identify_traced(profiles, &cfg.tracer);
                store.save_pmcs(&keys, &set)?;
                set
            }
        };
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
        segments: seg_stats.segments,
        stored_bytes: seg_stats.bytes,
        records_damaged: store.records_damaged,
        records_healed: store.records_healed,
    };
    Ok((pipeline, store_stats))
}
