//! The store under damage written to its files: a kill at every byte
//! boundary of a new record, and a flip of every byte of a segment. Each
//! must degrade to recompute-and-heal, never to a panic, an error, or wrong
//! data. Damage the segment scan can see is `Damaged`; damage it cannot (a
//! mangled key or length, a torn last record) is a miss.

use std::path::Path;

use proptest::ScratchDir;
use sb_store::{PmcLookup, ProfileLookup, Store};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::pmc::{Pmc, PmcKey, PmcSet, SideKey};
use snowboard::profile::SeqProfile;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("dmg-{tag}"))
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
        let dir = scratch("pristine");
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
        read_store(&dir)
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

/// Simulated kill mid-insert: the new segment cut at *every* byte boundary
/// of its record. Opening the store repairs it — the torn tail is cut back
/// to the valid prefix — and still serves every record written before the
/// kill.
#[test]
fn torn_write_at_every_boundary_repairs_to_a_clean_store() {
    let base = pristine();

    // The new record as a clean insert writes it.
    let grown = {
        let dir = scratch("torn-measure");
        copy_store(base, &dir);
        let mut st = Store::open(&dir).expect("open");
        st.insert_profiles(&[(4, Some(profile(3, 0x5000)))])
            .expect("insert");
        st.flush().expect("flush");
        read_store(&dir)
            .into_iter()
            .find(|(n, _)| n.starts_with("seg-") && !base.iter().any(|(b, _)| b == n))
            .expect("insert creates a new segment")
    };
    let full = grown.1.len() as u64 - 8; // record bytes past the magic
    assert!(full > 16, "record must be larger than its header");

    for cut in 0..=full {
        let dir = scratch("torn");
        copy_store(base, &dir);
        // What a kill `cut` bytes into the record leaves on disk.
        let torn = dir.join(&grown.0);
        std::fs::write(&torn, &grown.1[..(8 + cut) as usize]).expect("tear");

        // Every record from before the kill is still served; the torn one
        // is a Miss (a complete one is indexed and served, flush or not).
        let mut st = Store::open(&dir).expect("reopen");
        assert_eq!(
            std::fs::metadata(&torn).expect("meta").len(),
            if cut == full { 8 + full } else { 8 },
            "cut {cut}: open cuts the torn tail back to the magic"
        );
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
        assert_eq!(st.records_damaged, 0, "cut {cut}: a torn record is a miss");
    }
}

/// Flipping every single byte of the profile segment must never panic,
/// never serve wrong data, and always heal back to a store that serves
/// everything undamaged. A flip in the magic, a key or a length hides
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
        let dir = scratch("flip");
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

        // The heal is the latest record of each key it rewrote: a reopened
        // store serves everything and finds no damage.
        let mut st = Store::open(&dir).expect("reopen");
        expect_profile(&mut st, KEYS[0], 0x2000, 0);
        expect_profile(&mut st, KEYS[1], 0x3000, 1);
        expect_profile(&mut st, KEYS[2], 0x4000, 2);
        assert_eq!(st.records_damaged, 0, "offset {off}");
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
    let dir = scratch("pmcflip");
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
}
