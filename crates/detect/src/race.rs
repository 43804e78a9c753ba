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
//! protocols), (5) share no common lock, and (6) are at most a stall window
//! ([`PROXIMITY_WINDOW`]) apart in the trace. Kernel-stack addresses are
//! excluded, the same standard assumption the paper adopts (§4.1.1).
//!
//! ## Where the scan looks
//!
//! By (1) the trace changes thread somewhere between the two accesses of a
//! race, and by (6) that change of thread is within `window` positions of
//! both. A two-vCPU trial changes thread 3–10 times in 50–80 accesses, so the
//! scan walks the trace once and, where the thread changes, holds the few
//! accesses before against the few after. A trace without a race costs that
//! one pass and no allocation. The window is in `seq` units, the walk in
//! positions: `seq` must increase strictly along the trace (the executor's
//! `seq` is the trace index), so that two accesses are at least as far apart
//! in `seq` as in position; [`detect_races_windowed`] asserts it in debug
//! builds.

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

/// The race conditions of the module docs, the one that fails for most pairs
/// of a trace first.
fn races(a: &Access, b: &Access, window: u64) -> bool {
    a.overlaps(b)
        && a.thread != b.thread
        && (a.kind.is_write() || b.kind.is_write())
        && !(a.atomic && b.atomic)
        && !a.shares_lock_with(b)
        && a.seq.abs_diff(b.seq) <= window
        && !is_stack_addr(a.addr)
        && !is_stack_addr(b.addr)
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
/// Reports come in the order an address-sorted scan meets them — by the
/// (address, `seq`) of the pair's lower access `a`, then of its other access
/// `b` — with `addr` the start of `b` and `seqs` `(a.seq, b.seq)`; of several
/// collisions of one site pair on one `addr`, the first in that order stays.
/// `trace` must be in strictly increasing `seq` order (see the module docs).
/// Cost: one pass, plus at most `window`² pair tests per change of thread.
pub fn detect_races_windowed(trace: &[Access], window: u64) -> Vec<RaceReport> {
    debug_assert!(trace.windows(2).all(|w| w[0].seq < w[1].seq), "seq increases along a trace");
    let reach = usize::try_from(window).unwrap_or(usize::MAX);
    // Racing pairs as (a, b), `a` the one an address-sorted scan meets first.
    let mut hits: Vec<(&Access, &Access)> = Vec::new();
    // Where the thread running just before `p` took over.
    let mut run_start = 0;
    for p in 1..trace.len() {
        if trace[p].thread == trace[p - 1].thread {
            continue;
        }
        // A pair straddling several changes of thread belongs to the first
        // one after its earlier access: `x` is in the run that ends here.
        let first = run_start.max(p.saturating_sub(reach));
        for (i, x) in trace[first..p].iter().enumerate() {
            let last = (first + i).saturating_add(reach).min(trace.len() - 1);
            for y in trace[p..=last].iter().filter(|y| races(x, y, window)) {
                hits.push(if x.addr <= y.addr { (x, y) } else { (y, x) });
            }
        }
        run_start = p;
    }
    hits.sort_unstable_by_key(|(a, b)| (a.addr, a.seq, b.addr, b.seq));
    let mut out: Vec<RaceReport> = Vec::with_capacity(hits.len());
    for (a, b) in hits {
        let (w, o) = if a.kind.is_write() { (a, b) } else { (b, a) };
        let (addr, seqs) = (b.addr, (a.seq, b.seq));
        let report = RaceReport { write_site: w.site, other_site: o.site, addr, seqs };
        if !out.iter().any(|r| r.addr == report.addr && r.pair_key() == report.pair_key()) {
            out.push(report);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::access::AccessKind;
    use sb_vmm::mem::stack_base;
    use sb_vmm::rng::SplitMix64;
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

    /// The scan this module had before: every candidate access sorted by
    /// address, each held against the ones whose range can reach it, a
    /// hashed seen-set over (site pair, address). Kept as the reference for
    /// which reports come out and in which order.
    fn sorted_scan(trace: &[Access], window: u64) -> Vec<RaceReport> {
        let mut sorted: Vec<&Access> = trace.iter().filter(|a| !is_stack_addr(a.addr)).collect();
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

    /// The definition, read off the module docs: every pair of accesses held
    /// against the six conditions, no shortcut taken; ordered and
    /// deduplicated as [`detect_races_windowed`] documents.
    fn naive_scan(trace: &[Access], window: u64) -> Vec<RaceReport> {
        let mut pairs = Vec::new();
        for (i, x) in trace.iter().enumerate() {
            for y in &trace[i + 1..] {
                let racing = x.thread != y.thread
                    && (x.kind.is_write() || y.kind.is_write())
                    && !(x.atomic && y.atomic)
                    && x.addr < y.end()
                    && y.addr < x.end()
                    && !x.locks.iter().any(|l| y.locks.contains(l))
                    && y.seq - x.seq <= window
                    && !is_stack_addr(x.addr)
                    && !is_stack_addr(y.addr);
                if racing {
                    pairs.push(if x.addr <= y.addr { (x, y) } else { (y, x) });
                }
            }
        }
        pairs.sort_by_key(|(a, b)| (a.addr, a.seq, b.addr, b.seq));
        let mut out: Vec<RaceReport> = Vec::new();
        for (a, b) in pairs {
            let report = RaceReport {
                write_site: if a.kind.is_write() { a.site } else { b.site },
                other_site: if a.kind.is_write() { b.site } else { a.site },
                addr: b.addr,
                seqs: (a.seq, b.seq),
            };
            let same = |r: &RaceReport| r.addr == report.addr && r.pair_key() == report.pair_key();
            if !out.iter().any(same) {
                out.push(report);
            }
        }
        out
    }

    /// All three scans over `trace`, which must agree; returns the reports.
    fn agreed(trace: &[Access], window: u64) -> Vec<RaceReport> {
        let races = detect_races_windowed(trace, window);
        assert_eq!(races, sorted_scan(trace, window), "window {window} over {trace:#?}");
        assert_eq!(races, naive_scan(trace, window), "window {window} over {trace:#?}");
        races
    }

    /// The scan across thread switches against the sorted scan it replaced
    /// and against the definition: 2 000 generated traces — three threads
    /// in runs of uneven length, eight sites, ranges that overlap, abut and
    /// nest on a few words, marked and plain accesses, lock sets that share
    /// a lock and that do not, stack addresses, `seq` with gaps — each under
    /// windows 0, 1, 8, 9 and 50. Equal reports, in equal order.
    #[test]
    fn switch_scan_matches_the_sorted_scan_and_the_definition() {
        let sites: Vec<Site> = (0..8).map(|i| Site::intern(&format!("eq:site{i}"))).collect();
        let mut state = SplitMix64::new(0x5EED_2ACE);
        let (mut reports, mut racy, mut two_addr, mut three_way) = (0, 0, 0, 0);
        for _ in 0..2000 {
            let (mut seq, mut thread) = (0, 0);
            let trace: Vec<Access> = (0..state.next_u64() % 48)
                .map(|_| {
                    let r = state.next_u64();
                    // Runs: a thread keeps the vCPU two times in three.
                    if r & 3 == 0 {
                        thread = (r >> 2) as usize % 3;
                    }
                    seq += if r >> 4 & 7 == 0 { 1 + (r >> 7) % 3 } else { 1 };
                    Access {
                        seq,
                        thread,
                        site: sites[(r >> 9) as usize % 8],
                        kind: [AccessKind::Read, AccessKind::Write][(r >> 12 & 1) as usize],
                        addr: if r >> 13 & 15 == 0 {
                            stack_base(thread) + (r >> 17) % 16
                        } else {
                            0x2_0000 + ((r >> 17) % 12) * 4
                        },
                        len: 1 + ((r >> 21) % 8) as u8,
                        value: 0,
                        atomic: r >> 24 & 3 == 0,
                        locks: (0..(r >> 26) % 3).map(|i| 0x9_0000 + ((r >> (28 + 2 * i)) % 3) * 8).collect(),
                        rcu_depth: 0,
                    }
                })
                .collect();
            for window in [0, 1, 8, 9, 50] {
                let races = agreed(&trace, window);
                reports += races.len();
                racy += usize::from(!races.is_empty());
                two_addr += usize::from(races.iter().enumerate().any(|(i, r)| {
                    races[..i].iter().any(|q| q.pair_key() == r.pair_key() && q.addr != r.addr)
                }));
                let thread_of = |seq| trace.iter().find(|a| a.seq == seq).map(|a| a.thread);
                three_way += usize::from(races.iter().any(|r| {
                    let (lo, hi) = (r.seqs.0.min(r.seqs.1), r.seqs.0.max(r.seqs.1));
                    let between = |a: &&Access| lo < a.seq && a.seq < hi;
                    let (t0, t1) = (thread_of(r.seqs.0), thread_of(r.seqs.1));
                    trace.iter().filter(between).any(|a| Some(a.thread) != t0 && Some(a.thread) != t1)
                }));
            }
        }
        assert!(reports >= 20_000 && racy >= 4000, "{reports} reports over {racy} racy scans");
        assert!(two_addr >= 500, "only {two_addr} scans saw one site pair race on two addresses");
        assert!(three_way >= 500, "only {three_way} scans saw a third thread inside a racing pair");
    }

    /// `n` accesses of thread `thread` to words nobody else touches,
    /// numbered from `seq`.
    fn filler(seq: u64, thread: usize, n: u64) -> Vec<Access> {
        let word = 0x8000 + 16 * thread as u64;
        (0..n).map(|i| acc(seq + i, thread, "fl:w", AccessKind::Write, word, vec![], false)).collect()
    }

    #[test]
    fn a_pair_is_seen_across_exactly_the_window() {
        for (gap, seen) in [(PROXIMITY_WINDOW, 1), (PROXIMITY_WINDOW + 1, 0)] {
            // The writer keeps running up to the switch ...
            let mut t = vec![acc(0, 0, "xw:w", AccessKind::Write, 0x2000, vec![], false)];
            t.extend(filler(1, 0, gap - 1));
            t.push(acc(gap, 1, "xw:r", AccessKind::Read, 0x2000, vec![], false));
            assert_eq!(agreed(&t, PROXIMITY_WINDOW).len(), seen, "gap {gap}, switch last");
            // ... or the switch comes first and the reader takes its time.
            let mut t = vec![acc(0, 0, "xw:w", AccessKind::Write, 0x2000, vec![], false)];
            t.extend(filler(1, 1, gap - 1));
            t.push(acc(gap, 1, "xw:r", AccessKind::Read, 0x2000, vec![], false));
            assert_eq!(agreed(&t, PROXIMITY_WINDOW).len(), seen, "gap {gap}, switch first");
        }
    }

    #[test]
    fn two_switches_inside_one_window_meet_each_pair_once() {
        let t = vec![
            acc(0, 0, "tw:w0", AccessKind::Write, 0x2000, vec![], false),
            acc(1, 1, "tw:r1", AccessKind::Read, 0x2000, vec![], false),
            acc(2, 0, "tw:w2", AccessKind::Write, 0x2004, vec![], false),
            acc(3, 1, "tw:r3", AccessKind::Read, 0x2004, vec![], false),
        ];
        let seqs: Vec<(u64, u64)> = agreed(&t, PROXIMITY_WINDOW).iter().map(|r| r.seqs).collect();
        // 0x2000 first: the write against both reads and against nothing
        // of its own thread; then what starts at 0x2004.
        assert_eq!(seqs, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn a_third_thread_between_the_racing_two_hides_nothing() {
        let mut t = vec![acc(0, 0, "th:w", AccessKind::Write, 0x2000, vec![], false)];
        t.extend(filler(1, 2, 3));
        t.push(acc(4, 1, "th:r", AccessKind::Read, 0x2000, vec![], false));
        t.push(acc(5, 2, "th:w2", AccessKind::Write, 0x2000, vec![], false));
        let races = agreed(&t, PROXIMITY_WINDOW);
        let seqs: Vec<(u64, u64)> = races.iter().map(|r| r.seqs).collect();
        assert_eq!(seqs, vec![(0, 4), (0, 5), (4, 5)]);
        assert_eq!(races[2].write_site, site!("th:w2"), "the write of a read/write pair");
    }

    #[test]
    fn of_two_writes_the_lower_one_is_the_write_site() {
        let t = vec![
            acc(0, 0, "bw:hi", AccessKind::Write, 0x2004, vec![], false),
            acc(1, 1, "bw:lo", AccessKind::Write, 0x2000, vec![], false),
        ];
        let races = agreed(&t, PROXIMITY_WINDOW);
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].write_site, races[0].other_site), (site!("bw:lo"), site!("bw:hi")));
        assert_eq!((races[0].addr, races[0].seqs), (0x2004, (1, 0)));
    }

    #[test]
    fn ranges_at_the_top_of_the_address_space_race_without_wrapping() {
        let t = vec![
            acc(0, 0, "top:w", AccessKind::Write, u64::MAX - 4, vec![], false),
            acc(1, 1, "top:r", AccessKind::Read, u64::MAX - 2, vec![], false),
            acc(2, 0, "top:far", AccessKind::Write, u64::MAX - 16, vec![], false),
            // Would overlap the others if its end wrapped to 3.
            acc(3, 1, "top:low", AccessKind::Read, 0, vec![], false),
        ];
        let races = agreed(&t, PROXIMITY_WINDOW);
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].addr, races[0].seqs), (u64::MAX - 2, (0, 1)));
    }
}
