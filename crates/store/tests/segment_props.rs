//! Property tests: arbitrary single-byte flips or truncations of a segment
//! file never panic the store — every lookup either serves data identical
//! to the pristine store, reports `Damaged`, or (for damage the scan cannot
//! see: a torn record, a mangled key or length) misses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sb_store::{PmcLookup, ProfileLookup, Store};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::pmc::{Pmc, PmcKey, PmcSet, SideKey};
use snowboard::profile::SeqProfile;

const KEYS: [u64; 3] = [10, 11, 12];

fn profile(test: u32, addr: u64) -> SeqProfile {
    SeqProfile {
        test,
        steps: 10,
        accesses: vec![Access {
            seq: 0,
            thread: 0,
            site: Site::intern("segprops:w"),
            kind: AccessKind::Write,
            addr,
            len: 8,
            value: 1,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        }],
    }
}

fn pmc_set() -> PmcSet {
    let side = |name: &str| SideKey {
        ins: Site::intern(name),
        addr: 0x1000,
        len: 8,
        value: 7,
    };
    PmcSet {
        pmcs: vec![Pmc {
            key: PmcKey {
                w: side("segprops:pmc:w"),
                r: side("segprops:pmc:r"),
            },
            df_leader: false,
            pairs: vec![(0, 1)],
        }],
    }
}

/// Builds the pristine store once and caches each file's bytes.
fn pristine() -> &'static Vec<(String, Vec<u8>)> {
    static FILES: std::sync::OnceLock<Vec<(String, Vec<u8>)>> = std::sync::OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sb-segprops-master-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut st = Store::open(&dir).expect("open");
        st.insert_profiles(&[
            (KEYS[0], Some(profile(0, 0x2000))),
            (KEYS[1], Some(profile(1, 0x3000))),
            (KEYS[2], None),
        ])
        .expect("insert");
        st.save_pmcs(&KEYS, &pmc_set()).expect("save");
        st.flush().expect("flush");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let e = entry.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            files.push((name, std::fs::read(e.path()).expect("read file")));
        }
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

/// Writes a full copy of the pristine store into a fresh scratch directory.
fn materialize(files: &[(String, Vec<u8>)]) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sb-segprops-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write file");
    }
    dir
}

/// The safety property: after arbitrary damage to one segment file, every
/// lookup serves exactly the pristine data, reports `Damaged`, or misses —
/// never wrong data, never a panic, never an error.
fn check_lookups(dir: &Path) {
    let mut st = Store::open(dir).expect("damaged store must still open");
    for (i, (key, addr)) in [(KEYS[0], 0x2000u64), (KEYS[1], 0x3000u64)]
        .iter()
        .enumerate()
    {
        match st.lookup_profile(*key, 7).expect("lookup must not error") {
            ProfileLookup::Hit(p) => {
                assert_eq!(p.test, 7, "test id remapped");
                assert_eq!(p.accesses, profile(i as u32, *addr).accesses);
                assert_eq!(p.steps, 10);
            }
            ProfileLookup::Damaged | ProfileLookup::Miss => {}
        }
    }
    match st.lookup_pmcs(&KEYS).expect("lookup must not error") {
        PmcLookup::Exact(set) => assert_eq!(set, pmc_set()),
        PmcLookup::Damaged | PmcLookup::Miss => {}
        other => panic!("expected Exact, Damaged or Miss, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_byte_flips_never_serve_wrong_data(
        file_sel in 0usize..2,
        frac in 0.0f64..1.0,
        mask in 1u8..=255u8,
    ) {
        let files = pristine();
        let segs: Vec<&(String, Vec<u8>)> =
            files.iter().filter(|(n, _)| n.ends_with(".bin")).collect();
        let (name, bytes) = segs[file_sel % segs.len()];
        let off = (((bytes.len() as f64) * frac) as usize).min(bytes.len() - 1);
        let dir = materialize(files);
        let mut mutated = bytes.clone();
        mutated[off] ^= mask;
        std::fs::write(dir.join(name), &mutated).expect("write damage");
        check_lookups(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncations_never_serve_wrong_data(
        file_sel in 0usize..2,
        frac in 0.0f64..1.0,
    ) {
        let files = pristine();
        let segs: Vec<&(String, Vec<u8>)> =
            files.iter().filter(|(n, _)| n.ends_with(".bin")).collect();
        let (name, bytes) = segs[file_sel % segs.len()];
        let keep = ((bytes.len() as f64) * frac) as usize;
        let dir = materialize(files);
        std::fs::write(dir.join(name), &bytes[..keep.min(bytes.len())]).expect("write damage");
        check_lookups(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
}
