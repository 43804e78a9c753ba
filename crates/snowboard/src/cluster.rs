//! PMC clustering strategies — Table 1 of the paper (§4.3).
//!
//! A clustering strategy is a clustering key plus a filter. PMCs with equal
//! keys share a cluster; filtered-out PMCs are discarded entirely. One
//! exemplar per cluster is later tested, least-populous cluster first.

use crate::pmc::{Pmc, PmcId, PmcSet};

/// The clustering strategies of Table 1 (S-INS contributes two clusters per
/// PMC: one keyed on the write instruction, one on the read instruction).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Strategy {
    /// All features; only identical PMCs cluster together (baseline).
    SFull,
    /// All features except the values.
    SCh,
    /// S-CH keyed, filtered to PMCs whose written value is all-zero.
    SChNull,
    /// S-CH keyed, filtered to PMCs whose read/write ranges differ.
    SChUnaligned,
    /// S-CH keyed, filtered to df_leader PMCs (double fetches).
    SChDouble,
    /// Clusters solely on one instruction address (write or read).
    SIns,
    /// Clusters on the (write instruction, read instruction) pair.
    SInsPair,
    /// Clusters on the memory ranges of both sides.
    SMem,
}

/// All strategies, in Table 1/Table 3 order.
pub const ALL_STRATEGIES: [Strategy; 8] = [
    Strategy::SFull,
    Strategy::SCh,
    Strategy::SChNull,
    Strategy::SChUnaligned,
    Strategy::SChDouble,
    Strategy::SIns,
    Strategy::SInsPair,
    Strategy::SMem,
];

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::SFull => "S-FULL",
            Strategy::SCh => "S-CH",
            Strategy::SChNull => "S-CH-NULL",
            Strategy::SChUnaligned => "S-CH-UNALIGNED",
            Strategy::SChDouble => "S-CH-DOUBLE",
            Strategy::SIns => "S-INS",
            Strategy::SInsPair => "S-INS-PAIR",
            Strategy::SMem => "S-MEM",
        };
        write!(f, "{s}")
    }
}

/// One cluster: a key (rendered opaque) and its member PMCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Hash of the clustering key (stable across runs).
    pub key: u64,
    /// Member PMC ids.
    pub members: Vec<PmcId>,
}

impl Cluster {
    /// Cluster cardinality.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members (never produced by
    /// [`cluster`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

fn mix(h: &mut u64, v: u64) {
    *h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(*h << 6).wrapping_add(*h >> 2);
}

fn channel_key(p: &Pmc) -> u64 {
    let mut h = 0u64;
    for v in [
        p.key.w.ins.0,
        p.key.w.addr,
        u64::from(p.key.w.len),
        p.key.r.ins.0,
        p.key.r.addr,
        u64::from(p.key.r.len),
    ] {
        mix(&mut h, v);
    }
    h
}

/// The clustering key(s) of `p` under `strategy`, none when the filter
/// rejects it. (Only S-INS yields two keys.)
pub fn keys_of(p: &Pmc, strategy: Strategy) -> impl Iterator<Item = u64> {
    let channel_if = |keep: bool| keep.then(|| channel_key(p));
    let (first, second) = match strategy {
        Strategy::SFull => {
            let mut h = channel_key(p);
            mix(&mut h, p.key.w.value);
            mix(&mut h, p.key.r.value);
            (Some(h), None)
        }
        Strategy::SCh => (Some(channel_key(p)), None),
        Strategy::SChNull => (channel_if(p.key.w.value == 0), None),
        Strategy::SChUnaligned => (
            channel_if(p.key.w.addr != p.key.r.addr || p.key.w.len != p.key.r.len),
            None,
        ),
        Strategy::SChDouble => (channel_if(p.df_leader), None),
        Strategy::SIns => {
            // Tag the two sub-spaces so a site used for both reading and
            // writing forms two clusters, per "this strategy pair (one for
            // reads and one for writes)".
            let mut hw = 0u64;
            mix(&mut hw, 1);
            mix(&mut hw, p.key.w.ins.0);
            let mut hr = 0u64;
            mix(&mut hr, 2);
            mix(&mut hr, p.key.r.ins.0);
            (Some(hw), Some(hr))
        }
        Strategy::SInsPair => {
            let mut h = 0u64;
            mix(&mut h, p.key.w.ins.0);
            mix(&mut h, p.key.r.ins.0);
            (Some(h), None)
        }
        Strategy::SMem => {
            let mut h = 0u64;
            for v in [
                p.key.w.addr,
                u64::from(p.key.w.len),
                p.key.r.addr,
                u64::from(p.key.r.len),
            ] {
                mix(&mut h, v);
            }
            (Some(h), None)
        }
    };
    first.into_iter().chain(second)
}

/// Every `(clustering key, PMC)` membership of `set` under `strategy`,
/// sorted: each run of equal keys is one cluster, clusters in key order,
/// members in id order.
pub(crate) fn memberships(set: &PmcSet, strategy: Strategy) -> Vec<(u64, PmcId)> {
    let mut pairs = Vec::with_capacity(set.len());
    for (id, p) in set.pmcs.iter().enumerate() {
        pairs.extend(keys_of(p, strategy).map(|k| (k, id as PmcId)));
    }
    pairs.sort_unstable();
    pairs
}

/// The clusters of sorted `memberships`, as runs.
pub(crate) fn runs(memberships: &[(u64, PmcId)]) -> impl Iterator<Item = &[(u64, PmcId)]> {
    memberships.chunk_by(|a, b| a.0 == b.0)
}

/// Clusters the whole PMC set under `strategy`, in key order.
pub fn cluster(set: &PmcSet, strategy: Strategy) -> Vec<Cluster> {
    runs(&memberships(set, strategy))
        .map(|run| Cluster {
            key: run[0].0,
            members: run.iter().map(|(_, id)| *id).collect(),
        })
        .collect()
}

/// `keys_of` and `cluster` as they were while a key list was a heap vector
/// and clusters were grouped through a hash map, then sorted: the
/// definitions `select::tests` compares the sorted-run forms against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::{channel_key, mix, Cluster, Pmc, PmcId, PmcSet, Strategy};

    /// The clustering key(s) of `p` under `strategy`, or empty when the filter
    /// rejects it. (Only S-INS yields two keys.)
    pub fn keys_of(p: &Pmc, strategy: Strategy) -> Vec<u64> {
        match strategy {
            Strategy::SFull => {
                let mut h = channel_key(p);
                mix(&mut h, p.key.w.value);
                mix(&mut h, p.key.r.value);
                vec![h]
            }
            Strategy::SCh => vec![channel_key(p)],
            Strategy::SChNull => {
                if p.key.w.value == 0 {
                    vec![channel_key(p)]
                } else {
                    vec![]
                }
            }
            Strategy::SChUnaligned => {
                if p.key.w.addr != p.key.r.addr || p.key.w.len != p.key.r.len {
                    vec![channel_key(p)]
                } else {
                    vec![]
                }
            }
            Strategy::SChDouble => {
                if p.df_leader {
                    vec![channel_key(p)]
                } else {
                    vec![]
                }
            }
            Strategy::SIns => {
                // Tag the two sub-spaces so a site used for both reading and
                // writing forms two clusters, per "this strategy pair (one for
                // reads and one for writes)".
                let mut hw = 0u64;
                mix(&mut hw, 1);
                mix(&mut hw, p.key.w.ins.0);
                let mut hr = 0u64;
                mix(&mut hr, 2);
                mix(&mut hr, p.key.r.ins.0);
                vec![hw, hr]
            }
            Strategy::SInsPair => {
                let mut h = 0u64;
                mix(&mut h, p.key.w.ins.0);
                mix(&mut h, p.key.r.ins.0);
                vec![h]
            }
            Strategy::SMem => {
                let mut h = 0u64;
                for v in [
                    p.key.w.addr,
                    u64::from(p.key.w.len),
                    p.key.r.addr,
                    u64::from(p.key.r.len),
                ] {
                    mix(&mut h, v);
                }
                vec![h]
            }
        }
    }

    /// Clusters the whole PMC set under `strategy`.
    pub fn cluster(set: &PmcSet, strategy: Strategy) -> Vec<Cluster> {
        let mut map: HashMap<u64, Vec<PmcId>> = HashMap::new();
        for (id, p) in set.pmcs.iter().enumerate() {
            for k in keys_of(p, strategy) {
                map.entry(k).or_default().push(id as PmcId);
            }
        }
        let mut clusters: Vec<Cluster> = map
            .into_iter()
            .map(|(key, members)| Cluster { key, members })
            .collect();
        // Deterministic order regardless of hash-map iteration.
        clusters.sort_by_key(|c| c.key);
        clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmc::{PmcKey, SideKey};
    use sb_vmm::site;

    #[allow(clippy::too_many_arguments)]
    fn pmc(wins: &str, waddr: u64, wlen: u8, wval: u64, rins: &str, raddr: u64, rlen: u8, rval: u64, df: bool) -> Pmc {
        Pmc {
            key: PmcKey {
                w: SideKey { ins: site!(wins), addr: waddr, len: wlen, value: wval },
                r: SideKey { ins: site!(rins), addr: raddr, len: rlen, value: rval },
            },
            df_leader: df,
            pairs: vec![(0, 1)],
        }
    }

    fn set_of(pmcs: Vec<Pmc>) -> PmcSet {
        PmcSet { pmcs }
    }

    #[test]
    fn sfull_separates_by_value_sch_does_not() {
        let set = set_of(vec![
            pmc("w", 0x10, 8, 1, "r", 0x10, 8, 0, false),
            pmc("w", 0x10, 8, 2, "r", 0x10, 8, 0, false),
        ]);
        assert_eq!(cluster(&set, Strategy::SFull).len(), 2);
        let ch = cluster(&set, Strategy::SCh);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch[0].len(), 2);
    }

    #[test]
    fn schnull_filters_nonzero_writes() {
        let set = set_of(vec![
            pmc("w", 0x10, 8, 0, "r", 0x10, 8, 5, false),
            pmc("w", 0x10, 8, 7, "r", 0x10, 8, 5, false),
        ]);
        let c = cluster(&set, Strategy::SChNull);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].members, vec![0]);
    }

    #[test]
    fn schunaligned_filters_identical_ranges() {
        let set = set_of(vec![
            pmc("w", 0x10, 8, 1, "r", 0x10, 8, 0, false), // aligned
            pmc("w", 0x10, 8, 1, "r", 0x14, 4, 0, false), // unaligned
            pmc("w", 0x10, 4, 1, "r", 0x10, 8, 0, false), // length differs
        ]);
        let c = cluster(&set, Strategy::SChUnaligned);
        let members: Vec<PmcId> = c.iter().flat_map(|c| c.members.clone()).collect();
        assert_eq!(members.len(), 2);
        assert!(!members.contains(&0));
    }

    #[test]
    fn schdouble_keeps_only_df_leaders() {
        let set = set_of(vec![
            pmc("w", 0x10, 8, 1, "r", 0x10, 8, 0, true),
            pmc("w", 0x10, 8, 1, "r2", 0x10, 8, 0, false),
        ]);
        let c = cluster(&set, Strategy::SChDouble);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].members, vec![0]);
    }

    #[test]
    fn sins_buckets_by_single_instruction() {
        // Same write ins, different read ins: the write-side cluster holds
        // both PMCs; each read-side cluster holds one.
        let set = set_of(vec![
            pmc("w", 0x10, 8, 1, "ra", 0x10, 8, 0, false),
            pmc("w", 0x20, 8, 2, "rb", 0x20, 8, 0, false),
        ]);
        let c = cluster(&set, Strategy::SIns);
        assert_eq!(c.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = c.iter().map(Cluster::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 1, 2]);
    }

    #[test]
    fn sinspair_ignores_memory_and_values() {
        let set = set_of(vec![
            pmc("w", 0x10, 8, 1, "r", 0x10, 8, 0, false),
            pmc("w", 0x99, 4, 2, "r", 0x77, 4, 3, false),
        ]);
        let c = cluster(&set, Strategy::SInsPair);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].len(), 2);
    }

    #[test]
    fn smem_buckets_by_ranges_only() {
        let set = set_of(vec![
            pmc("w1", 0x10, 8, 1, "r1", 0x10, 8, 0, false),
            pmc("w2", 0x10, 8, 9, "r2", 0x10, 8, 4, false),
            pmc("w3", 0x20, 8, 9, "r3", 0x20, 8, 4, false),
        ]);
        let c = cluster(&set, Strategy::SMem);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cluster_order_is_deterministic() {
        let set = set_of(
            (0..50)
                .map(|i| pmc("w", 0x10 + i, 8, 1, "r", 0x10 + i, 8, 0, false))
                .collect(),
        );
        let a: Vec<u64> = cluster(&set, Strategy::SCh).iter().map(|c| c.key).collect();
        let b: Vec<u64> = cluster(&set, Strategy::SCh).iter().map(|c| c.key).collect();
        assert_eq!(a, b);
    }
}
