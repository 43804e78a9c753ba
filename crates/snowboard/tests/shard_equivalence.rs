//! `identify_sharded`, the name the benchmark times and checks, is
//! `identify` on real fuzzed corpora. The test goes with that shim.

use sb_kernel::{boot, KernelConfig};
use snowboard::pmc::{identify, identify_sharded};
use snowboard::profile::{profile_corpus, SeqProfile};

fn fuzzed_profiles(seed: u64) -> Vec<SeqProfile> {
    let booted = boot(KernelConfig::v5_12_rc3());
    let (corpus, _) =
        sb_fuzz::build_corpus_with(&booted, seed, 24, 360, sb_fuzz::Catalog::Extended);
    assert!(
        corpus.len() >= 8,
        "seed {seed}: corpus too small ({})",
        corpus.len()
    );
    profile_corpus(&booted, &corpus, 4)
}

#[test]
fn sharded_equals_sequential_on_fuzzed_corpora() {
    for seed in [3u64, 17, 71] {
        let profiles = fuzzed_profiles(seed);
        let sequential = identify(&profiles);
        assert!(
            !sequential.pmcs.is_empty(),
            "seed {seed}: empty PMC universe"
        );
        for shards in [2usize, 4] {
            let sharded = identify_sharded(&profiles, shards, 4);
            assert_eq!(
                sequential, sharded,
                "seed {seed}: {shards}-shard join diverged from sequential"
            );
        }
    }
}
