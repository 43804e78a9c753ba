//! Self-healing store under injected damage: torn writes at every byte
//! boundary, byte flips over a whole segment, missing segment files, and a
//! full pipeline run against a corrupted store — all must degrade to
//! recompute-and-heal, never to a panic, an error, or wrong data. Damage
//! the segment scan can see is `Damaged`; damage it cannot (a deleted
//! file, a mangled key or length, a torn last record) is a miss.

use std::path::{Path, PathBuf};

use sb_kernel::KernelConfig;
use sb_store::{segment, PmcLookup, ProfileLookup, Store};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::pmc::{IdentifyOpts, Pmc, PmcKey, PmcSet, SideKey};
use snowboard::profile::SeqProfile;

fn scratch(tag: &str, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sb-dmg-{tag}-{n}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn copy_store(files: &[(String, Vec<u8>)], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write");
    }
}

fn read_store(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let e = entry.expect("entry");
        let name = e.file_name().into_string().expect("utf-8");
        files.push((name, std::fs::read(e.path()).expect("read")));
    }
    files.sort();
    files
}

fn profile(test: u32, addr: u64) -> SeqProfile {
    SeqProfile {
        test,
        steps: 10,
        accesses: vec![Access {
            seq: 0,
            thread: 0,
            site: Site::intern("dmg:w"),
            kind: AccessKind::Write,
            addr,
            len: 8,
            value: test as u64 + 1,
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
                w: side("dmg:pmc:w"),
                r: side("dmg:pmc:r"),
            },
            df_leader: false,
            pairs: vec![(0, 1)],
        }],
    }
}

const KEYS: [u64; 3] = [1, 2, 3];

/// A pristine store with three profile records and one PMC record, as raw
/// file bytes ready to copy into per-case scratch directories. Built once:
/// its directory is one per process, and the tests that start from it run
/// on parallel threads.
fn pristine() -> &'static [(String, Vec<u8>)] {
    static FILES: std::sync::OnceLock<Vec<(String, Vec<u8>)>> = std::sync::OnceLock::new();
    FILES.get_or_init(|| {
        let dir = scratch("pristine", 0);
        let mut st = Store::open(&dir).expect("open");
        st.insert_profiles(&[
            (KEYS[0], Some(profile(0, 0x2000))),
            (KEYS[1], Some(profile(1, 0x3000))),
            (KEYS[2], Some(profile(2, 0x4000))),
        ])
        .expect("insert");
        st.save_pmcs(&KEYS, &pmc_set()).expect("save");
        st.flush().expect("flush");
        drop(st);
        let files = read_store(&dir);
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

fn expect_profile(st: &mut Store, key: u64, addr: u64, test: u32) {
    match st.lookup_profile(key, 7).expect("lookup") {
        ProfileLookup::Hit(p) => {
            assert_eq!(p.test, 7);
            assert_eq!(p.accesses, profile(test, addr).accesses);
        }
        other => panic!("key {key}: expected Hit, got {other:?}"),
    }
}

/// Simulated kill mid-insert: a torn write cut at *every* byte boundary of
/// a new record must leave a store that repairs to an fsck-clean state and
/// still serves every record written before the kill.
#[test]
fn torn_write_at_every_boundary_repairs_to_a_clean_store() {
    let base = pristine();

    // Measure the new record's full on-disk size once, via a clean insert.
    let full = {
        let dir = scratch("torn-measure", 0);
        copy_store(base, &dir);
        let mut st = Store::open(&dir).expect("open");
        st.insert_profiles(&[(4, Some(profile(3, 0x5000)))])
            .expect("insert");
        st.flush().expect("flush");
        let grown = read_store(&dir)
            .into_iter()
            .find(|(n, _)| n.starts_with("seg-") && !base.iter().any(|(b, _)| b == n))
            .expect("insert creates a new segment");
        std::fs::remove_dir_all(&dir).ok();
        grown.1.len() as u64 - 8 // record bytes past the magic
    };
    assert!(full > 16, "record must be larger than its header");

    for cut in 0..=full {
        let dir = scratch("torn", cut as usize);
        copy_store(base, &dir);
        {
            let mut st = Store::open(&dir).expect("open");
            st.set_fault_plan(snowboard::DiskFaults {
                torn_write_after: Some(cut),
                ..Default::default()
            });
            let r = st.insert_profiles(&[(4, Some(profile(3, 0x5000)))]);
            assert_eq!(
                r.is_err(),
                cut < full,
                "cut {cut}: fault fires iff mid-record"
            );
        }

        // The acceptance sequence: repair, then fsck must be clean.
        sb_store::repair(&dir).expect("repair");
        let report = sb_store::fsck(&dir).expect("fsck");
        assert!(report.clean(), "cut {cut}: {:?}", report.problems);

        // Every record from before the kill is still served; the torn one
        // is a Miss (a complete one is indexed and served, flush or not).
        let mut st = Store::open(&dir).expect("reopen");
        expect_profile(&mut st, KEYS[0], 0x2000, 0);
        expect_profile(&mut st, KEYS[1], 0x3000, 1);
        expect_profile(&mut st, KEYS[2], 0x4000, 2);
        match st.lookup_profile(4, 7).expect("lookup") {
            ProfileLookup::Hit(p) => {
                assert_eq!(cut, full, "cut {cut}: partial record must not be served");
                assert_eq!(p.accesses, profile(3, 0x5000).accesses);
            }
            ProfileLookup::Miss => assert!(cut < full),
            other => panic!("cut {cut}: unexpected {other:?}"),
        }
        assert_eq!(
            st.records_damaged, 0,
            "cut {cut}: repair left damage behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Flipping every single byte of the profile segment must never panic,
/// never serve wrong data, and always heal back to a store that passes
/// fsck and serves everything. A flip in the magic, a key or a length hides
/// records from the scan, and one in the last record makes it a torn tail:
/// those read as misses; any other is `Damaged`.
#[test]
fn every_byte_flip_heals_back_to_a_clean_store() {
    let base = pristine();
    let seg = base
        .iter()
        .find(|(n, _)| n.starts_with("seg-"))
        .expect("profile segment")
        .clone();

    for off in 0..seg.1.len() {
        let dir = scratch("flip", off);
        copy_store(base, &dir);
        let mut mutated = seg.1.clone();
        mutated[off] ^= 0xA5;
        std::fs::write(dir.join(&seg.0), &mutated).expect("flip");

        let mut st = Store::open(&dir).expect("damaged store must open");
        let mut to_heal = Vec::new();
        for (i, (key, addr)) in [(KEYS[0], 0x2000u64), (KEYS[1], 0x3000), (KEYS[2], 0x4000)]
            .iter()
            .enumerate()
        {
            match st.lookup_profile(*key, 7).expect("lookup") {
                ProfileLookup::Hit(p) => {
                    assert_eq!(
                        p.accesses,
                        profile(i as u32, *addr).accesses,
                        "offset {off}"
                    );
                }
                ProfileLookup::Damaged | ProfileLookup::Miss => {
                    to_heal.push((*key, Some(profile(i as u32, *addr))))
                }
            }
        }
        assert!(
            !to_heal.is_empty(),
            "offset {off}: every byte of the segment should protect something"
        );
        let damaged = st.records_damaged;
        assert!(damaged <= to_heal.len() as u64, "offset {off}");

        // Heal: recompute (here: re-supply) the damaged profiles.
        st.insert_profiles(&to_heal).expect("heal");
        st.flush().expect("flush");
        assert_eq!(st.records_healed, damaged, "offset {off}");
        drop(st);

        // Repair clears any torn tail / dead segment the flip left behind;
        // after that the store must verify clean and serve everything.
        sb_store::repair(&dir).expect("repair");
        let report = sb_store::fsck(&dir).expect("fsck");
        assert!(report.clean(), "offset {off}: {:?}", report.problems);
        let mut st = Store::open(&dir).expect("reopen");
        expect_profile(&mut st, KEYS[0], 0x2000, 0);
        expect_profile(&mut st, KEYS[1], 0x3000, 1);
        expect_profile(&mut st, KEYS[2], 0x4000, 2);
        assert_eq!(st.records_damaged, 0, "offset {off}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A damaged PMC record degrades and heals the same way.
#[test]
fn damaged_pmc_record_heals_on_save() {
    let base = pristine();
    let pmc = base
        .iter()
        .find(|(n, _)| n.starts_with("pmc-"))
        .expect("pmc segment");
    let dir = scratch("pmcflip", 0);
    copy_store(base, &dir);
    let mut mutated = pmc.1.clone();
    mutated[20] ^= 0xFF; // CRC word of the first record
    std::fs::write(dir.join(&pmc.0), &mutated).expect("flip");

    // The file's one record is also its last: a bad CRC there is a torn
    // tail, so the set reads as a miss and the save rewrites it.
    let mut st = Store::open(&dir).expect("open");
    assert_eq!(st.lookup_pmcs(&KEYS).expect("lookup"), PmcLookup::Miss);
    assert_eq!(st.records_damaged, 0);
    st.save_pmcs(&KEYS, &pmc_set()).expect("heal");
    st.flush().expect("flush");
    assert_eq!(
        st.lookup_pmcs(&KEYS).expect("lookup"),
        PmcLookup::Exact(pmc_set())
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn small_cfg() -> snowboard::PipelineCfg {
    snowboard::PipelineCfg {
        seed: 7,
        corpus_target: 16,
        fuzz_budget: 600,
        workers: 2,
        ..snowboard::PipelineCfg::default()
    }
}

/// End to end: a warm pipeline run against a bit-flipped store must succeed,
/// report the damage and the heals, and produce outputs bit-identical to the
/// cold run — after which the store verifies clean again.
#[test]
fn pipeline_heals_a_flipped_store_bit_identically() {
    let dir = scratch("pipeline", 0);
    let opts = IdentifyOpts::sharded(2, 2);

    let mut cold_store = Store::open(&dir).expect("open cold");
    let (cold, cold_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(),
        &opts,
        &mut cold_store,
    )
    .expect("cold prepare");
    assert_eq!(cold_stats.records_damaged, 0);
    drop(cold_store);

    // One flipped byte per segment file: offset 20 is the CRC word of the
    // first record in every v2 segment.
    let mut flipped = 0;
    for (name, bytes) in read_store(&dir) {
        if !name.ends_with(".bin") {
            continue;
        }
        let mut bytes = bytes;
        bytes[20] ^= 0xFF;
        std::fs::write(dir.join(&name), &bytes).expect("flip");
        flipped += 1;
    }
    assert!(flipped >= 2, "expected profile and PMC segments");

    let mut warm_store = Store::open(&dir).expect("open warm");
    let (warm, warm_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(),
        &opts,
        &mut warm_store,
    )
    .expect("a damaged store must not fail preparation");
    assert!(warm_stats.records_damaged > 0, "damage must be reported");
    assert!(warm_stats.records_healed > 0, "damage must be healed");
    assert_eq!(
        warm_stats.records_healed, warm_stats.records_damaged,
        "every damaged record is rewritten by the same run"
    );

    // Bit-identical outputs despite the damage.
    assert_eq!(cold.corpus, warm.corpus);
    assert_eq!(cold.profiles, warm.profiles);
    assert_eq!(cold.pmcs, warm.pmcs);

    // The healed store verifies clean and the next run is all hits again.
    let report = sb_store::fsck(&dir).expect("fsck");
    assert!(report.clean(), "{:?}", report.problems);
    let mut third_store = Store::open(&dir).expect("open third");
    let (_, third_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(),
        &opts,
        &mut third_store,
    )
    .expect("third prepare");
    assert_eq!(third_stats.records_damaged, 0);
    assert_eq!(
        third_stats.profile_misses, 0,
        "healed store serves everything"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A missing segment file is the coarsest damage: every record in it
/// degrades to a miss, the run still completes bit-identically, and the
/// records are rewritten into fresh segments.
#[test]
fn pipeline_survives_a_deleted_segment_file() {
    let dir = scratch("missing", 0);
    let opts = IdentifyOpts::sharded(2, 2);

    let mut cold_store = Store::open(&dir).expect("open cold");
    let (cold, _) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(),
        &opts,
        &mut cold_store,
    )
    .expect("cold prepare");
    drop(cold_store);

    let (victim, bytes) = read_store(&dir)
        .into_iter()
        .find(|(n, _)| n.starts_with("seg-"))
        .expect("profile segment");
    let keys_in = |bytes: &[u8]| -> Vec<u64> {
        segment::scan(bytes, segment::SegmentKind::Profile, true)
            .records
            .iter()
            .map(|r| r.key)
            .collect()
    };
    let victim_keys = keys_in(&bytes);
    assert!(!victim_keys.is_empty());
    std::fs::remove_file(dir.join(&victim)).expect("remove");

    let mut warm_store = Store::open(&dir).expect("open warm");
    let (warm, warm_stats) = sb_store::prepare(
        KernelConfig::v5_12_rc3(),
        &small_cfg(),
        &opts,
        &mut warm_store,
    )
    .expect("a missing segment must not fail preparation");
    assert_eq!(warm_stats.profile_misses, victim_keys.len() as u64);
    let rewritten: Vec<u64> = read_store(&dir)
        .iter()
        .filter(|(n, _)| n.starts_with("seg-"))
        .flat_map(|(_, bytes)| keys_in(bytes))
        .collect();
    assert!(
        victim_keys.iter().all(|k| rewritten.contains(k)),
        "the deleted file's records are rewritten"
    );
    assert_eq!(cold.profiles, warm.profiles);
    assert_eq!(cold.pmcs, warm.pmcs);

    std::fs::remove_dir_all(&dir).ok();
}
