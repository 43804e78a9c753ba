//! Property test: the race scan across thread switches reports exactly what
//! the definition, applied to every pair of accesses, reports — the same
//! [`RaceReport`]s in the same order.
//!
//! Tier-1 runs the same comparison seeded, in `sb_detect::race`'s own test
//! module (against this definition *and* the sorted scan the crate had
//! before); this file is the generated half for a build that has `proptest`.

use proptest::prelude::*;

use sb_detect::race::{detect_races_windowed, RaceReport};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::mem::is_stack_addr;
use sb_vmm::site::Site;

/// The definition: every pair, checked directly against the race
/// conditions; `a` is the access of a pair with the lower (address, `seq`),
/// pairs are listed by `a` then by `b`, and of several collisions of one
/// unordered site pair on one overlap address the first stays.
fn reference(trace: &[Access], window: u64) -> Vec<RaceReport> {
    let mut pairs = Vec::new();
    for (i, x) in trace.iter().enumerate() {
        for y in &trace[i + 1..] {
            let race = !is_stack_addr(x.addr)
                && !is_stack_addr(y.addr)
                && x.thread != y.thread
                && (x.kind.is_write() || y.kind.is_write())
                && !(x.atomic && y.atomic)
                && x.overlaps(y)
                && !x.shares_lock_with(y)
                && x.seq.abs_diff(y.seq) <= window;
            if race {
                pairs.push(if (x.addr, x.seq) <= (y.addr, y.seq) {
                    (x, y)
                } else {
                    (y, x)
                });
            }
        }
    }
    pairs.sort_by_key(|(a, b)| (a.addr, a.seq, b.addr, b.seq));
    let mut out: Vec<RaceReport> = Vec::new();
    for (a, b) in pairs {
        let (w, o) = if a.kind.is_write() { (a, b) } else { (b, a) };
        let r = RaceReport {
            write_site: w.site,
            other_site: o.site,
            addr: b.addr,
            seqs: (a.seq, b.seq),
        };
        if !out
            .iter()
            .any(|q| q.pair_key() == r.pair_key() && q.addr == r.addr)
        {
            out.push(r);
        }
    }
    out
}

fn arb_trace() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (
            0usize..3,                                // thread
            0u8..8,                                   // site index
            0u64..12,                                 // addr slot (overlap-dense)
            1u8..=8,                                  // len
            proptest::bool::ANY,                      // write?
            proptest::bool::ANY,                      // atomic?
            proptest::collection::vec(0u64..3, 0..2), // lock indices
        ),
        0..40,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (thread, s, slot, len, write, atomic, locks))| Access {
                // Strictly increasing, as the scan requires of a trace.
                seq: i as u64,
                thread,
                site: Site::intern(&format!("eq:site{s}")),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: 0x2_0000 + slot * 4,
                len,
                value: 0,
                atomic,
                locks: locks.iter().map(|l| 0x9_0000 + l * 8).collect(),
                rcu_depth: 0,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn switch_scan_matches_reference(trace in arb_trace(), window in 0u64..50) {
        prop_assert_eq!(detect_races_windowed(&trace, window), reference(&trace, window));
    }
}
