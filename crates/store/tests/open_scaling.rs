//! `Store::open` is linear in the number of records it reopens: the
//! recovery scan, which is also the index, visits each record's header once
//! and inserts one map entry per record, and checksums only the last record
//! of each file (the lookups that serve the rest verify them).

use std::path::Path;
use std::time::{Duration, Instant};

use sb_store::Store;
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::profile::SeqProfile;

fn profile(addr: u64) -> SeqProfile {
    let accesses = (0..8)
        .map(|seq| Access {
            seq,
            thread: 0,
            site: Site::intern("open:scaling"),
            kind: AccessKind::Write,
            addr: addr + 8 * seq,
            len: 8,
            value: seq,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        })
        .collect();
    SeqProfile {
        test: 0,
        steps: 8,
        accesses,
    }
}

/// Writes `records` records in chunks of 100 and returns the best of five
/// timed opens.
fn best_open(dir: &Path, records: u64) -> Duration {
    std::fs::remove_dir_all(dir).ok();
    let mut store = Store::open(dir).expect("open");
    for chunk in 0..records / 100 {
        let batch: Vec<_> = (0..100)
            .map(|i| {
                let n = chunk * 100 + i;
                (n.wrapping_mul(0x9E37_79B9_7F4A_7C15), Some(profile(n << 8)))
            })
            .collect();
        store.insert_profiles(&batch).expect("insert");
    }
    store.flush().expect("flush");
    drop(store);
    let best = (0..5)
        .map(|_| {
            let start = Instant::now();
            let store = Store::open(dir).expect("reopen");
            let took = start.elapsed();
            drop(store);
            took
        })
        .min()
        .expect("five opens");
    std::fs::remove_dir_all(dir).ok();
    best
}

#[test]
fn open_time_grows_linearly_with_records() {
    let dir = std::env::temp_dir().join(format!("sb-store-scaling-{}", std::process::id()));
    let n = 3_000;
    let small = best_open(&dir, n);
    let large = best_open(&dir, 4 * n);
    // Linear is 4; an index build quadratic in the records measures ~16.
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 8.0,
        "open took {small:?} at {n} records and {large:?} at {}: x{ratio:.1}",
        4 * n
    );
}
