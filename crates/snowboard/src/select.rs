//! PMC selection: exemplar choice and uncommon-first ordering (§4.3).
//!
//! Given a clustering, Snowboard "counts the cardinality of each cluster,
//! and then selects the exemplar to test from each cluster, from the least
//! populous — less common — to the most populous cluster". Random cluster
//! order (the Random S-INS-PAIR row of Table 3) and iterative multi-strategy
//! selection ("choose predicate A, test one exemplar from each A-cluster,
//! then choose predicate B ... excluding those tested before") are also
//! provided.

use std::collections::HashSet;

use sb_vmm::rng::SplitMix64;

use crate::cluster::{memberships, runs, Cluster, Strategy};
use crate::pmc::{PmcId, PmcSet};

/// How clusters are ordered before exemplar selection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ClusterOrder {
    /// Least-populous first (the paper's default).
    UncommonFirst,
    /// Random order (the "Random S-INS-PAIR" ablation).
    Random,
}

/// Orders `clusters` per `order` (stable and deterministic for a given
/// seed), given the `(cardinality, key)` of each.
fn order_by<T>(
    clusters: &mut [T],
    size_and_key: impl Fn(&T) -> (usize, u64),
    order: ClusterOrder,
    seed: u64,
) {
    match order {
        ClusterOrder::UncommonFirst => clusters.sort_by_key(size_and_key),
        ClusterOrder::Random => SplitMix64::new(seed).shuffle(clusters),
    }
}

/// Orders clusters per `order` (stable and deterministic for a given seed).
pub fn order_clusters(mut clusters: Vec<Cluster>, order: ClusterOrder, seed: u64) -> Vec<Cluster> {
    order_by(&mut clusters, |c| (c.len(), c.key), order, seed);
    clusters
}

/// Selects one exemplar PMC per cluster, in cluster order, skipping PMCs in
/// `exclude` (already tested under an earlier strategy). The exemplar is
/// drawn at random from the cluster (§4.4: "one PMC is chosen from each
/// cluster ... A PMC may correspond to multiple test pairs; one pair is
/// chosen among them at random").
pub fn exemplars(
    set: &PmcSet,
    strategy: Strategy,
    order: ClusterOrder,
    seed: u64,
    exclude: &HashSet<PmcId>,
) -> Vec<PmcId> {
    exemplars_traced(
        set,
        strategy,
        order,
        seed,
        exclude,
        &sb_obs::Tracer::disabled(),
    )
}

/// [`exemplars`], emitting selection metrics to `tracer`: the number of
/// clusters (`select.clusters`), one `select.cluster_size` histogram sample
/// per cluster, and the exemplar count (`select.exemplars`).
pub fn exemplars_traced(
    set: &PmcSet,
    strategy: Strategy,
    order: ClusterOrder,
    seed: u64,
    exclude: &HashSet<PmcId>,
    tracer: &sb_obs::Tracer,
) -> Vec<PmcId> {
    // The clusters [`cluster`](crate::cluster::cluster) returns, as runs of
    // one sorted vector: S-FULL makes about a cluster per PMC, and a vector
    // per cluster was most of what a selection allocated.
    let memberships = memberships(set, strategy);
    let mut clusters: Vec<&[(u64, PmcId)]> = runs(&memberships).collect();
    order_by(&mut clusters, |c| (c.len(), c[0].0), order, seed);
    tracer.count(sb_obs::keys::CLUSTERS, clusters.len() as u64);
    for c in &clusters {
        tracer.hist(sb_obs::keys::CLUSTER_SIZE, c.len() as u64);
    }
    let mut rng = SplitMix64::new(seed ^ 0xE7E7_5EED);
    let mut picked = vec![false; set.len()];
    let mut out = Vec::with_capacity(clusters.len());
    for c in &clusters {
        // A uniform draw among the cluster's candidates — one
        // `gen_range`, none when there is no candidate — without listing
        // them.
        let free = |id: &PmcId| !picked[*id as usize] && !exclude.contains(id);
        let candidates = || c.iter().map(|(_, id)| *id).filter(free);
        let n = candidates().count();
        if n > 0 {
            let id = candidates().nth(rng.gen_range(0..n)).expect("n candidates");
            picked[id as usize] = true;
            out.push(id);
        }
    }
    tracer.count(sb_obs::keys::EXEMPLARS, out.len() as u64);
    out
}

/// Iterative multi-strategy selection: runs each strategy in turn, excluding
/// exemplars chosen by earlier strategies, and returns the concatenated
/// test order. This is the "All clustering strategies combined" mode used
/// for the 5.3.10 campaign (§5.1).
pub fn combined_exemplars(
    set: &PmcSet,
    strategies: &[Strategy],
    seed: u64,
) -> Vec<(Strategy, PmcId)> {
    let mut tested: HashSet<PmcId> = HashSet::new();
    let mut out = Vec::new();
    for (i, s) in strategies.iter().enumerate() {
        let picks = exemplars(
            set,
            *s,
            ClusterOrder::UncommonFirst,
            seed.wrapping_add(i as u64),
            &tested,
        );
        for id in picks {
            tested.insert(id);
            out.push((*s, id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::{Pmc, PmcKey, SideKey};
    use sb_vmm::site;

    /// Selection as it was while every cluster was a vector, the candidates
    /// of each a second one and `picked` a hash set, over the hash-grouped
    /// [`crate::cluster::reference`]: what the run-based selection must equal.
    mod reference {
        use super::super::*;
        use crate::cluster::reference::cluster;

        /// Orders clusters per `order` (stable and deterministic for a given seed).
        pub fn order_clusters(
            mut clusters: Vec<Cluster>,
            order: ClusterOrder,
            seed: u64,
        ) -> Vec<Cluster> {
            match order {
                ClusterOrder::UncommonFirst => {
                    clusters.sort_by_key(|c| (c.len(), c.key));
                }
                ClusterOrder::Random => {
                    let mut rng = SplitMix64::new(seed);
                    rng.shuffle(&mut clusters);
                }
            }
            clusters
        }

        /// [`exemplars`], emitting selection metrics to `tracer`: the number of
        /// clusters (`select.clusters`), one `select.cluster_size` histogram sample
        /// per cluster, and the exemplar count (`select.exemplars`).
        pub fn exemplars_traced(
            set: &PmcSet,
            strategy: Strategy,
            order: ClusterOrder,
            seed: u64,
            exclude: &HashSet<PmcId>,
            tracer: &sb_obs::Tracer,
        ) -> Vec<PmcId> {
            let clusters = order_clusters(cluster(set, strategy), order, seed);
            tracer.count(sb_obs::keys::CLUSTERS, clusters.len() as u64);
            for c in &clusters {
                tracer.hist(sb_obs::keys::CLUSTER_SIZE, c.len() as u64);
            }
            let mut rng = SplitMix64::new(seed ^ 0xE7E7_5EED);
            let mut picked = HashSet::new();
            let mut out = Vec::with_capacity(clusters.len());
            for c in &clusters {
                let candidates: Vec<PmcId> = c
                    .members
                    .iter()
                    .copied()
                    .filter(|id| !exclude.contains(id) && !picked.contains(id))
                    .collect();
                if let Some(&id) = rng.choose(&candidates) {
                    picked.insert(id);
                    out.push(id);
                }
            }
            tracer.count(sb_obs::keys::EXEMPLARS, out.len() as u64);
            out
        }
    }

    fn pmc(wins: &str, val: u64) -> Pmc {
        Pmc {
            key: PmcKey {
                w: SideKey {
                    ins: site!(wins),
                    addr: 0x10,
                    len: 8,
                    value: val,
                },
                r: SideKey {
                    ins: site!("r"),
                    addr: 0x10,
                    len: 8,
                    value: 0,
                },
            },
            df_leader: false,
            pairs: vec![(0, 1)],
        }
    }

    fn uneven_set() -> PmcSet {
        // Write site "hot" appears with 5 values (one big S-FULL family),
        // "cold" with 1.
        let mut pmcs: Vec<Pmc> = (1..=5).map(|v| pmc("hot", v)).collect();
        pmcs.push(pmc("cold", 9));
        PmcSet { pmcs }
    }

    #[test]
    fn uncommon_first_puts_small_clusters_first() {
        let set = uneven_set();
        let picks = exemplars(
            &set,
            Strategy::SInsPair,
            ClusterOrder::UncommonFirst,
            1,
            &HashSet::new(),
        );
        // Two clusters: (cold,r) size 1 and (hot,r) size 5; cold first.
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0], 5, "the singleton cluster's exemplar leads");
    }

    #[test]
    fn exclusion_suppresses_already_tested_pmcs() {
        let set = uneven_set();
        let mut exclude = HashSet::new();
        exclude.insert(5 as PmcId);
        let picks = exemplars(
            &set,
            Strategy::SInsPair,
            ClusterOrder::UncommonFirst,
            1,
            &exclude,
        );
        assert_eq!(picks.len(), 1, "cold cluster fully excluded");
        assert!(picks[0] < 5);
    }

    #[test]
    fn selection_is_seed_deterministic() {
        let set = uneven_set();
        let a = exemplars(
            &set,
            Strategy::SFull,
            ClusterOrder::UncommonFirst,
            3,
            &HashSet::new(),
        );
        let b = exemplars(
            &set,
            Strategy::SFull,
            ClusterOrder::UncommonFirst,
            3,
            &HashSet::new(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn random_order_differs_from_uncommon_first_eventually() {
        let set = PmcSet {
            pmcs: (0..32).map(|i| pmc(&format!("w{i}"), 1)).collect(),
        };
        let u = exemplars(
            &set,
            Strategy::SInsPair,
            ClusterOrder::UncommonFirst,
            5,
            &HashSet::new(),
        );
        let r = exemplars(
            &set,
            Strategy::SInsPair,
            ClusterOrder::Random,
            5,
            &HashSet::new(),
        );
        assert_eq!(u.len(), r.len());
        assert_ne!(u, r, "random order should differ for 32 singleton clusters");
    }

    #[test]
    fn combined_selection_never_repeats_a_pmc() {
        let set = uneven_set();
        let picks = combined_exemplars(
            &set,
            &[Strategy::SInsPair, Strategy::SFull, Strategy::SMem],
            7,
        );
        let ids: Vec<PmcId> = picks.iter().map(|(_, id)| *id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len(), "no PMC tested twice: {ids:?}");
        // S-FULL covers everything eventually: all 6 PMCs appear.
        assert_eq!(ids.len(), 6);
    }

    /// A PMC from small feature alphabets, so that every strategy both
    /// merges and separates PMCs and every filter passes some.
    fn arb_pmc() -> impl proptest::strategy::Strategy<Value = Pmc> {
        use proptest::prelude::*;
        let side = || (0u8..4, 0u64..3, 0usize..3, 0u64..3);
        (side(), side(), proptest::bool::ANY).prop_map(|(w, r, df_leader)| {
            let side = |role: &str, (ins, slot, len, value): (u8, u64, usize, u64)| SideKey {
                ins: sb_vmm::Site::intern(&format!("sel:{role}{ins}")),
                addr: 0x40 + slot * 4,
                len: [2, 4, 8][len],
                value,
            };
            Pmc {
                key: PmcKey {
                    w: side("w", w),
                    r: side("r", r),
                },
                df_leader,
                pairs: vec![(0, 1)],
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Clusters from one sorted membership vector and an exemplar drawn
        /// by counting are the hash-grouped clusters and the exemplar
        /// chosen from a listed candidate vector: every strategy, both
        /// orders, any exclusion set.
        #[test]
        fn sorted_runs_select_what_hash_grouping_selected(
            pmcs in proptest::collection::vec(arb_pmc(), 0..80),
            excluded in proptest::collection::vec(proptest::prelude::any::<proptest::sample::Index>(), 0..40),
            seed: u64,
        ) {
            use proptest::prelude::*;
            let set = PmcSet { pmcs };
            let exclude: HashSet<PmcId> = (excluded.iter())
                .filter(|_| !set.is_empty())
                .map(|i| i.index(set.len()) as PmcId)
                .collect();
            let tracer = sb_obs::Tracer::disabled();
            for strategy in crate::cluster::ALL_STRATEGIES {
                prop_assert_eq!(
                    crate::cluster::cluster(&set, strategy),
                    crate::cluster::reference::cluster(&set, strategy),
                    "{:?}", strategy
                );
                for order in [ClusterOrder::UncommonFirst, ClusterOrder::Random] {
                    for exclude in [&HashSet::new(), &exclude] {
                        prop_assert_eq!(
                            exemplars(&set, strategy, order, seed, exclude),
                            reference::exemplars_traced(&set, strategy, order, seed, exclude, &tracer),
                            "{:?} {:?} excluding {:?}", strategy, order, exclude
                        );
                    }
                }
            }
        }
    }
}
