//! Lockset-based data-race detector.
//!
//! Models the DataCollider-style runtime race detector the paper uses as an
//! oracle. Because the execution engine records the complete access trace —
//! including, for each access, the locks held and the RCU nesting — the
//! detector is a precise post-mortem lockset analysis:
//!
//! Two accesses race when they (1) come from different threads, (2) overlap
//! in memory, (3) include at least one write, (4) are not both marked
//! (`READ_ONCE`/`WRITE_ONCE`-style — marked pairs are intentional lockless
//! protocols), and (5) share no common lock. Kernel-stack addresses are
//! excluded, the same standard assumption the paper adopts (§4.1.1).

use sb_vmm::access::Access;
use sb_vmm::mem::is_stack_addr;
use sb_vmm::site::Site;

/// One data race: an unordered pair of racing instruction sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The writing site (either site when both write).
    pub write_site: Site,
    /// The other racing site.
    pub other_site: Site,
    /// Overlap address the race was observed on.
    pub addr: u64,
    /// Trace sequence numbers of the two accesses (diagnostics).
    pub seqs: (u64, u64),
}

impl RaceReport {
    /// Unordered site-pair key for deduplication.
    pub fn pair_key(&self) -> (Site, Site) {
        if self.write_site.0 <= self.other_site.0 {
            (self.write_site, self.other_site)
        } else {
            (self.other_site, self.write_site)
        }
    }
}

/// DataCollider's detection is *temporal*: it stalls a sampled access for a
/// short window and reports a race only if a conflicting access lands inside
/// that window. This constant models the stall window in trace steps — two
/// conflicting accesses further apart than this never collide "live" and are
/// not reported. This is what makes race detection interleaving-dependent
/// and why scheduling hints matter (§5.4).
pub const PROXIMITY_WINDOW: u64 = 8;

fn is_candidate(a: &Access) -> bool {
    !is_stack_addr(a.addr)
}

fn races(a: &Access, b: &Access, window: u64) -> bool {
    a.thread != b.thread
        && (a.kind.is_write() || b.kind.is_write())
        && !(a.atomic && b.atomic)
        && a.overlaps(b)
        && !a.shares_lock_with(b)
        && a.seq.abs_diff(b.seq) <= window
}

/// Scans a full execution trace for data races with the default
/// [`PROXIMITY_WINDOW`], deduplicated per execution by unordered site pair
/// plus overlap address — symmetric observations of one collision are
/// reported once, while the same site pair colliding on distinct addresses
/// stays distinct here (campaign-level dedup collapses them into one
/// issue, since [`crate::Finding::dedup_key`] keys on the pair alone).
pub fn detect_races(trace: &[Access]) -> Vec<RaceReport> {
    detect_races_windowed(trace, PROXIMITY_WINDOW)
}

/// Scans a full execution trace for data races whose conflicting accesses
/// occur within `window` trace steps of each other.
///
/// Complexity: the trace is sorted by address, then only accesses whose
/// ranges can overlap are compared — `O(n log n + k)` rather than the naive
/// quadratic scan.
pub fn detect_races_windowed(trace: &[Access], window: u64) -> Vec<RaceReport> {
    let mut sorted: Vec<&Access> = trace.iter().filter(|a| is_candidate(a)).collect();
    sorted.sort_by_key(|a| a.addr);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for i in 0..sorted.len() {
        let a: &Access = sorted[i];
        for b in sorted[i + 1..].iter().copied() {
            if b.addr >= a.end() {
                break;
            }
            if races(a, b, window) {
                let (w, o) = if a.kind.is_write() { (a, b) } else { (b, a) };
                let report = RaceReport {
                    write_site: w.site,
                    other_site: o.site,
                    addr: b.addr,
                    seqs: (a.seq, b.seq),
                };
                if seen.insert((report.pair_key(), report.addr)) {
                    out.push(report);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::access::AccessKind;
    use sb_vmm::mem::stack_base;
    use sb_vmm::site;

    fn acc(
        seq: u64,
        thread: usize,
        name: &str,
        kind: AccessKind,
        addr: u64,
        locks: Vec<u64>,
        atomic: bool,
    ) -> Access {
        Access {
            seq,
            thread,
            site: site!(name),
            kind,
            addr,
            len: 8,
            value: 0,
            atomic,
            locks: locks.into(),
            rcu_depth: 0,
        }
    }

    #[test]
    fn basic_write_read_race() {
        let t = vec![
            acc(0, 0, "rw:w", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 1, "rw:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        let races = detect_races(&t);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].write_site, site!("rw:w"));
    }

    #[test]
    fn common_lock_suppresses() {
        let t = vec![
            acc(0, 0, "cl:w", AccessKind::Write, 0x2000, vec![0x9000], false),
            acc(1, 1, "cl:r", AccessKind::Read, 0x2000, vec![0x9000], false),
        ];
        assert!(detect_races(&t).is_empty());
    }

    #[test]
    fn different_locks_still_race() {
        // The structure of bug #9: writer under RTNL, reader under RCU only.
        let t = vec![
            acc(0, 0, "dl:w", AccessKind::Write, 0x2000, vec![0x9000], false),
            acc(1, 1, "dl:r", AccessKind::Read, 0x2000, vec![0x9008], false),
        ];
        assert_eq!(detect_races(&t).len(), 1);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let t = vec![
            acc(0, 0, "rr:a", AccessKind::Read, 0x2000, vec![], false),
            acc(1, 1, "rr:b", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert!(detect_races(&t).is_empty());
    }

    #[test]
    fn marked_pairs_are_exempt_but_mixed_is_not() {
        let both = vec![
            acc(0, 0, "mk:w", AccessKind::Write, 0x2000, vec![], true),
            acc(1, 1, "mk:r", AccessKind::Read, 0x2000, vec![], true),
        ];
        assert!(detect_races(&both).is_empty());
        let mixed = vec![
            acc(0, 0, "mx:w", AccessKind::Write, 0x2000, vec![], true),
            acc(1, 1, "mx:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert_eq!(detect_races(&mixed).len(), 1);
    }

    #[test]
    fn same_thread_never_races() {
        let t = vec![
            acc(0, 0, "st:w", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 0, "st:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert!(detect_races(&t).is_empty());
    }

    #[test]
    fn partial_overlap_races() {
        // A 6-byte memcpy region written per byte vs an 8-byte read.
        let mut t = vec![acc(0, 1, "po:r", AccessKind::Read, 0x2000, vec![], false)];
        t.push(Access {
            seq: 1,
            thread: 0,
            site: site!("po:w"),
            kind: AccessKind::Write,
            addr: 0x2004,
            len: 1,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        });
        assert_eq!(detect_races(&t).len(), 1);
    }

    #[test]
    fn non_overlapping_do_not_race() {
        let t = vec![
            acc(0, 0, "no:w", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 1, "no:r", AccessKind::Read, 0x2010, vec![], false),
        ];
        assert!(detect_races(&t).is_empty());
    }

    #[test]
    fn stack_accesses_are_excluded() {
        let sp = stack_base(0) + 64;
        let t = vec![
            acc(0, 0, "sk:w", AccessKind::Write, sp, vec![], false),
            acc(1, 1, "sk:r", AccessKind::Read, sp, vec![], false),
        ];
        assert!(detect_races(&t).is_empty());
    }

    #[test]
    fn duplicate_site_pairs_dedup() {
        let mut t = Vec::new();
        for i in 0..10 {
            t.push(acc(2 * i, 0, "dd:w", AccessKind::Write, 0x2000, vec![], false));
            t.push(acc(2 * i + 1, 1, "dd:r", AccessKind::Read, 0x2000, vec![], false));
        }
        assert_eq!(detect_races(&t).len(), 1);
    }

    #[test]
    fn distant_conflicts_are_not_observed() {
        // DataCollider semantics: conflicting accesses that never come
        // close in time do not collide.
        let t = vec![
            acc(0, 0, "far:w", AccessKind::Write, 0x2000, vec![], false),
            acc(500, 1, "far:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert!(detect_races(&t).is_empty());
        assert_eq!(detect_races_windowed(&t, 1000).len(), 1);
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let t = vec![
            acc(0, 0, "bd:w", AccessKind::Write, 0x2000, vec![], false),
            acc(PROXIMITY_WINDOW, 1, "bd:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert_eq!(detect_races(&t).len(), 1);
        let t2 = vec![
            acc(0, 0, "bd2:w", AccessKind::Write, 0x2000, vec![], false),
            acc(PROXIMITY_WINDOW + 1, 1, "bd2:r", AccessKind::Read, 0x2000, vec![], false),
        ];
        assert!(detect_races(&t2).is_empty());
    }

    #[test]
    fn same_pair_distinct_addresses_stay_distinct_per_execution() {
        let t = vec![
            acc(0, 0, "pa:w", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 1, "pa:r", AccessKind::Read, 0x2000, vec![], false),
            acc(2, 0, "pa:w", AccessKind::Write, 0x3000, vec![], false),
            acc(3, 1, "pa:r", AccessKind::Read, 0x3000, vec![], false),
        ];
        let races = detect_races(&t);
        assert_eq!(races.len(), 2);
        // ... but they share one campaign-level dedup key (one issue).
        let keys: std::collections::HashSet<String> = races
            .iter()
            .map(|r| {
                crate::Finding::DataRace {
                    write_site: r.write_site.display_name(),
                    other_site: r.other_site.display_name(),
                    addr: r.addr,
                }
                .dedup_key()
            })
            .collect();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn write_write_races_are_reported() {
        let t = vec![
            acc(0, 0, "ww:a", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 1, "ww:b", AccessKind::Write, 0x2000, vec![], false),
        ];
        assert_eq!(detect_races(&t).len(), 1);
    }
}
