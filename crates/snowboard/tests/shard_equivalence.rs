//! Equivalence tests over real fuzzed corpora: the sharded parallel join
//! must be bit-identical to the sequential Algorithm 1, and the incremental
//! resume path must cover the same PMC universe as a from-scratch rebuild.

use sb_kernel::{boot, KernelConfig};
use snowboard::pmc::{identify, identify_sharded, IdentifyOpts, JoinState, PmcKey, PmcSet};
use snowboard::profile::{profile_corpus, SeqProfile};

fn fuzzed_profiles(seed: u64) -> Vec<SeqProfile> {
    let booted = boot(KernelConfig::v5_12_rc3());
    let (corpus, _) = sb_fuzz::build_corpus_with(&booted, seed, 24, 360, sb_fuzz::Catalog::Stock);
    assert!(corpus.len() >= 8, "seed {seed}: corpus too small ({})", corpus.len());
    profile_corpus(&booted, &corpus, 4)
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
        (k.w.ins.0, k.w.addr, k.w.len, k.w.value, k.r.ins.0, k.r.addr, k.r.len, k.r.value)
    });
    v
}

#[test]
fn sharded_equals_sequential_on_fuzzed_corpora() {
    // ISSUE acceptance: bit-identical output for >= 3 distinct fuzz seeds.
    for seed in [3u64, 17, 71] {
        let profiles = fuzzed_profiles(seed);
        let sequential = identify(&profiles);
        assert!(!sequential.pmcs.is_empty(), "seed {seed}: empty PMC universe");
        for shards in [2usize, 4] {
            let sharded = identify_sharded(&profiles, shards, 4);
            assert_eq!(
                sequential, sharded,
                "seed {seed}: {shards}-shard join diverged from sequential"
            );
        }
    }
}

#[test]
fn incremental_resume_covers_the_rebuild_universe() {
    let profiles = fuzzed_profiles(29);
    let split = profiles.len() / 2;
    let opts = IdentifyOpts::sharded(4, 4);

    // Batch 1 from scratch, then resume from its folded set and add batch 2.
    let mut first = JoinState::new();
    first.add_profiles(&profiles[..split], &opts);
    let mut resumed = JoinState::resume(&profiles[..split], first.into_set());
    resumed.add_profiles(&profiles[split..], &opts);

    let rebuilt = identify(&profiles);
    assert_eq!(
        canonical(&resumed.into_set()),
        canonical(&rebuilt),
        "incremental join diverged from full rebuild"
    );
}
