//! Property-based tests of the PMC algebra: Algorithm 1's output
//! invariants, clustering-partition laws, and selection determinism.

use proptest::prelude::*;

use sb_vmm::access::{range_overlap, Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::cluster::{cluster, keys_of, Strategy, ALL_STRATEGIES};
use snowboard::pmc::{df_leaders, identify, PmcId};
use snowboard::profile::SeqProfile;
use snowboard::select::{exemplars, ClusterOrder};

/// Site index, write?, address slot, length, value.
type Acc = (u8, bool, u64, u8, u64);

/// A tiny random access model: few sites, few addresses, small values —
/// dense enough that overlaps and PMCs actually happen.
fn arb_access() -> impl proptest::strategy::Strategy<Value = Acc> {
    (
        0u8..6,              // site index
        proptest::bool::ANY, // write?
        0u64..6,             // address slot (8-byte spaced, plus jitter below)
        1u8..=8,             // length
        0u64..4,             // value
    )
}

fn build_profiles(tests: Vec<Vec<Acc>>) -> Vec<SeqProfile> {
    tests
        .into_iter()
        .enumerate()
        .map(|(tid, accs)| SeqProfile {
            test: tid as u32,
            accesses: accs
                .into_iter()
                .enumerate()
                .map(|(i, (s, w, slot, len, val))| Access {
                    seq: i as u64,
                    thread: 0,
                    site: Site::intern(&format!("prop:site{s}")),
                    kind: if w {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    addr: 0x2_0000 + slot * 4,
                    len,
                    value: val,
                    atomic: false,
                    locks: vec![].into(),
                    rcu_depth: 0,
                })
                .collect(),
            steps: 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every identified PMC satisfies the §2.2 definition: a write and a
    /// read with overlapping ranges whose projected values differ.
    #[test]
    fn identified_pmcs_satisfy_definition(
        tests in proptest::collection::vec(
            proptest::collection::vec(arb_access(), 1..12), 1..6)
    ) {
        let profiles = build_profiles(tests);
        let set = identify(&profiles);
        for pmc in &set.pmcs {
            let o = range_overlap(pmc.key.w.addr, pmc.key.w.len, pmc.key.r.addr, pmc.key.r.len);
            prop_assert!(o.is_some(), "PMC sides must overlap");
            let (start, len) = o.unwrap();
            let proj = |value: u64, base: u64| {
                let raw = value >> ((start - base) * 8);
                if len >= 8 { raw } else { raw & ((1u64 << (u64::from(len) * 8)) - 1) }
            };
            prop_assert_ne!(
                proj(pmc.key.w.value, pmc.key.w.addr),
                proj(pmc.key.r.value, pmc.key.r.addr),
                "projected values must differ"
            );
            prop_assert!(!pmc.pairs.is_empty(), "every PMC has at least one test pair");
            for (w, r) in &pmc.pairs {
                prop_assert!((*w as usize) < profiles.len());
                prop_assert!((*r as usize) < profiles.len());
            }
        }
    }

    /// Identification is a pure function of the profiles.
    #[test]
    fn identification_is_deterministic(
        tests in proptest::collection::vec(
            proptest::collection::vec(arb_access(), 1..10), 1..5)
    ) {
        let profiles = build_profiles(tests);
        let a = identify(&profiles);
        let b = identify(&profiles);
        let keys = |s: &snowboard::PmcSet| s.pmcs.iter().map(|p| p.key).collect::<Vec<_>>();
        prop_assert_eq!(keys(&a), keys(&b));
    }

    /// Clustering laws: unfiltered strategies partition the PMC set (every
    /// PMC in ≥1 cluster; S-INS in exactly 2, others exactly 1); filtered
    /// strategies only ever shrink membership.
    #[test]
    fn clustering_partitions(
        tests in proptest::collection::vec(
            proptest::collection::vec(arb_access(), 1..12), 1..6)
    ) {
        let profiles = build_profiles(tests);
        let set = identify(&profiles);
        for strategy in ALL_STRATEGIES {
            let clusters = cluster(&set, strategy);
            let mut membership = vec![0usize; set.len()];
            for c in &clusters {
                prop_assert!(!c.is_empty());
                for id in &c.members {
                    membership[*id as usize] += 1;
                }
            }
            for (id, count) in membership.iter().enumerate() {
                let expected = keys_of(set.get(id as PmcId), strategy).count();
                prop_assert_eq!(
                    *count, expected,
                    "PMC {} under {:?}: in {} clusters, keyed {} times",
                    id, strategy, count, expected
                );
                match strategy {
                    Strategy::SIns => prop_assert!(*count == 2 || *count == 0),
                    Strategy::SFull | Strategy::SCh | Strategy::SInsPair | Strategy::SMem => {
                        prop_assert_eq!(*count, 1)
                    }
                    _ => prop_assert!(*count <= 1),
                }
            }
        }
    }

    /// S-FULL refines S-CH: PMCs sharing an S-FULL cluster always share an
    /// S-CH cluster.
    #[test]
    fn sfull_refines_sch(
        tests in proptest::collection::vec(
            proptest::collection::vec(arb_access(), 1..12), 1..6)
    ) {
        let profiles = build_profiles(tests);
        let set = identify(&profiles);
        let full = cluster(&set, Strategy::SFull);
        let ch_key = |id: PmcId| keys_of(set.get(id), Strategy::SCh).collect::<Vec<u64>>();
        for c in &full {
            let first = ch_key(c.members[0]);
            for m in &c.members {
                prop_assert_eq!(ch_key(*m), first.clone());
            }
        }
    }

    /// Exemplar selection returns distinct PMCs, one per non-excluded
    /// cluster, deterministically.
    #[test]
    fn exemplar_selection_laws(
        tests in proptest::collection::vec(
            proptest::collection::vec(arb_access(), 1..12), 1..6),
        seed: u64,
    ) {
        let profiles = build_profiles(tests);
        let set = identify(&profiles);
        let picks = exemplars(&set, Strategy::SInsPair, ClusterOrder::UncommonFirst, seed, &Default::default());
        let picks2 = exemplars(&set, Strategy::SInsPair, ClusterOrder::UncommonFirst, seed, &Default::default());
        prop_assert_eq!(&picks, &picks2, "selection must be deterministic");
        let mut dedup = picks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), picks.len(), "no PMC picked twice");
        prop_assert!(picks.len() <= cluster(&set, Strategy::SInsPair).len());
    }
}

/// df_leader never marks a read that follows a write to the same range.
#[test]
fn df_leader_respects_writes_property() {
    use proptest::test_runner::{Config, TestRunner};
    let mut runner = TestRunner::new(Config::with_cases(128));
    runner
        .run(&proptest::collection::vec(arb_access(), 2..16), |accs| {
            let profiles = build_profiles(vec![accs]);
            let p = &profiles[0];
            for idx in df_leaders(p) {
                let leader = &p.accesses[idx];
                prop_assert_eq!(leader.kind, AccessKind::Read);
                // There must exist a later read of the same range, same
                // value, different site, with no intervening write.
                let mut ok = false;
                for later in &p.accesses[idx + 1..] {
                    if later.kind == AccessKind::Write
                        && range_overlap(later.addr, later.len, leader.addr, leader.len).is_some()
                    {
                        break;
                    }
                    if later.kind == AccessKind::Read
                        && later.addr == leader.addr
                        && later.len == leader.len
                    {
                        if later.site != leader.site && later.value == leader.value {
                            ok = true;
                        }
                        break;
                    }
                }
                prop_assert!(ok, "df_leader {idx} lacks a matching second fetch");
            }
            Ok(())
        })
        .unwrap();
}
