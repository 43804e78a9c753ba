//! Control-flow edge coverage extracted from execution traces.
//!
//! Syzkaller exports KCOV edge coverage; our engine's equivalent is the
//! sequence of access sites a thread executes — consecutive (site, site)
//! pairs are the control-flow edges. The corpus builder keeps tests that
//! contribute previously unseen edges ("high coverage but low overlap of
//! exercised behaviors", §4.1).

use std::collections::HashSet;

use sb_vmm::access::Access;
use sb_vmm::site::BuildStepHasher;

/// Hashes an ordered site pair into an edge id.
fn edge_id(prev: u64, cur: u64) -> u64 {
    // Simple mix; the operands are already FNV hashes.
    prev.rotate_left(17) ^ cur.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The edges `thread` takes through `trace`, in order, repeats included.
fn edges(trace: &[Access], thread: usize) -> impl Iterator<Item = u64> + '_ {
    let mut sites = trace.iter().filter(move |a| a.thread == thread).map(|a| a.site.0);
    let mut prev = sites.next();
    sites.map(move |cur| edge_id(prev.replace(cur).expect("a first site"), cur))
}

/// Extracts the edge set of one thread's accesses in `trace`.
pub fn edges_of_trace(trace: &[Access], thread: usize) -> HashSet<u64> {
    edges(trace, thread).collect()
}

/// Accumulated coverage across a corpus. Edge ids are mixes of site hashes,
/// so the set uses the in-crate hasher.
#[derive(Default, Clone)]
pub struct CoverageMap {
    edges: HashSet<u64, BuildStepHasher>,
}

impl CoverageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges the edges of `thread`'s accesses in `trace` — the set
    /// [`edges_of_trace`] names, without building it — returning how many
    /// were previously unseen.
    pub fn merge_trace(&mut self, trace: &[Access], thread: usize) -> usize {
        let before = self.edges.len();
        self.edges.extend(edges(trace, thread));
        self.edges.len() - before
    }

    /// Total distinct edges seen.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::access::AccessKind;
    use sb_vmm::site;

    fn acc(thread: usize, name: &str) -> Access {
        Access {
            seq: 0,
            thread,
            site: site!(name),
            kind: AccessKind::Read,
            addr: 0x2000,
            len: 8,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        }
    }

    #[test]
    fn edges_are_per_thread_and_ordered() {
        let trace = vec![acc(0, "a"), acc(1, "x"), acc(0, "b"), acc(0, "a")];
        let e0 = edges_of_trace(&trace, 0);
        // a→b, b→a.
        assert_eq!(e0.len(), 2);
        let e1 = edges_of_trace(&trace, 1);
        assert!(e1.is_empty(), "single access has no edges");
    }

    #[test]
    fn edge_direction_matters() {
        let ab = edges_of_trace(&[acc(0, "a"), acc(0, "b")], 0);
        let ba = edges_of_trace(&[acc(0, "b"), acc(0, "a")], 0);
        assert_ne!(ab, ba);
    }

    #[test]
    fn coverage_map_counts_novelty() {
        let mut m = CoverageMap::new();
        let trace = [acc(0, "a"), acc(0, "b"), acc(0, "c")];
        assert_eq!(m.merge_trace(&trace, 0), 2);
        assert_eq!(m.merge_trace(&trace, 0), 0, "re-merging adds nothing");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merging_a_trace_is_merging_its_edge_set() {
        // Traces over few sites, so edges repeat within and across traces;
        // two threads interleaved, so the per-thread filter matters.
        let mut rng = sb_vmm::rng::SplitMix64::new(24);
        let names = ["a", "b", "c", "d", "e"];
        let (mut merged, mut reference) = (CoverageMap::new(), HashSet::new());
        for _ in 0..200 {
            let trace: Vec<Access> = (0..rng.gen_range(0..12usize))
                .map(|_| acc(rng.gen_range(0..2usize), rng.choose(&names).expect("names")))
                .collect();
            for thread in 0..2 {
                let edges = edges_of_trace(&trace, thread);
                let novel = edges.iter().filter(|e| reference.insert(**e)).count();
                assert_eq!(merged.merge_trace(&trace, thread), novel);
                assert_eq!(merged.len(), reference.len());
            }
        }
        assert!(reference.len() > 20, "the traces must overlap: {}", reference.len());
    }
}
