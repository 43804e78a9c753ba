//! Offline store checking and repair (`store fsck` / `store repair`).
//!
//! Both operate directly on the files — they never go through
//! [`crate::Store::open`], which would itself truncate torn tails and adopt
//! orphans. `fsck` is strictly read-only: it walks every manifest entry,
//! verifies magic/key/len/CRC against a full segment scan, and reports
//! per-segment damage. `repair` applies the destructive subset a campaign
//! would heal anyway: truncate torn tails, drop manifest entries whose
//! records are damaged, and rewrite the manifest atomically.

use std::collections::BTreeMap;
use std::path::Path;

use crate::manifest::{Manifest, ProfileStatus};
use crate::segment::{self, SegmentKind, SegmentScan, HEADER_LEN};
use crate::store::{corpus_key, list_segment_files};
use crate::Error;

/// One damage observation, tied to the file it was seen in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Problem {
    /// Segment file name (or `manifest.json`).
    pub file: String,
    /// What is wrong.
    pub detail: String,
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.detail)
    }
}

/// Result of walking every manifest entry against the segment files.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Manifest entries whose records verified clean.
    pub records_ok: u64,
    /// Manifest entries whose records are damaged (missing file, bad magic,
    /// torn region, key/len/CRC mismatch).
    pub records_damaged: u64,
    /// Bytes of torn tail across all segments.
    pub torn_bytes: u64,
    /// Every damage observation, in walk order.
    pub problems: Vec<Problem>,
}

impl FsckReport {
    /// True when the store verified clean.
    pub fn clean(&self) -> bool {
        self.records_damaged == 0 && self.torn_bytes == 0 && self.problems.is_empty()
    }
}

/// What [`repair`] changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Profile entries dropped from the manifest.
    pub dropped_profiles: u64,
    /// PMC entries dropped from the manifest.
    pub dropped_pmcs: u64,
    /// Segment files whose torn tails were truncated.
    pub truncated_segments: u64,
    /// Segment files with unrecognizable magic that were removed (every
    /// manifest entry pointing into one is necessarily damaged and dropped,
    /// so nothing references the file afterwards).
    pub removed_segments: u64,
}

impl RepairReport {
    /// True when the store needed no changes.
    pub fn untouched(&self) -> bool {
        *self == RepairReport::default()
    }
}

struct Scans {
    profile: BTreeMap<u64, SegmentScan>,
    pmc: BTreeMap<u64, SegmentScan>,
}

fn scan_all(root: &Path, report: &mut FsckReport) -> Result<Scans, Error> {
    let mut scans = Scans {
        profile: BTreeMap::new(),
        pmc: BTreeMap::new(),
    };
    for (name, kind, n) in list_segment_files(root)? {
        let scan = segment::scan(&root.join(&name), kind, |_, _, _| false)?;
        report.segments += 1;
        if !scan.recognized {
            report.problems.push(Problem {
                file: name.clone(),
                detail: "unrecognized magic".into(),
            });
        } else if scan.torn_bytes() > 0 {
            report.torn_bytes += scan.torn_bytes();
            report.problems.push(Problem {
                file: name.clone(),
                detail: format!(
                    "torn tail: {} trailing byte(s) past the valid prefix at {}",
                    scan.torn_bytes(),
                    scan.valid_len
                ),
            });
        }
        match kind {
            SegmentKind::Profile => scans.profile.insert(n, scan),
            SegmentKind::Pmc => scans.pmc.insert(n, scan),
        };
    }
    Ok(scans)
}

/// Verdict for one manifest entry against the scans. `None` means clean.
fn entry_damage(
    scans: &BTreeMap<u64, SegmentScan>,
    seg_no: u64,
    offset: u64,
    len: u64,
    key: u64,
) -> Option<String> {
    let Some(scan) = scans.get(&seg_no) else {
        return Some(format!("segment file missing for record {key:#x}"));
    };
    if !scan.recognized {
        return Some(format!(
            "record {key:#x} in a segment with unrecognized magic"
        ));
    }
    // `offset` and `len` come from the manifest file: saturate, never wrap.
    if offset.saturating_add(HEADER_LEN).saturating_add(len) > scan.valid_len {
        return Some(format!(
            "record {key:#x} at offset {offset} is past the valid prefix"
        ));
    }
    // A scan lists records in file order, so offsets ascend.
    let Ok(at) = scan.records.binary_search_by_key(&offset, |r| r.offset) else {
        return Some(format!(
            "no record boundary at offset {offset} for {key:#x}"
        ));
    };
    let rec = &scan.records[at];
    if rec.key != key {
        return Some(format!(
            "key mismatch at offset {offset}: manifest says {key:#x}, record says {:#x}",
            rec.key
        ));
    }
    if rec.len != len {
        return Some(format!(
            "length mismatch at offset {offset}: manifest says {len}, record says {}",
            rec.len
        ));
    }
    if rec.crc_ok != Some(true) {
        return Some(format!(
            "checksum mismatch for record {key:#x} at offset {offset}"
        ));
    }
    None
}

/// Everything one pass over the store yields: the manifest, per-segment
/// scans, the fsck verdict, and which entries the verdict condemned.
struct Walk {
    manifest: Manifest,
    scans: Scans,
    report: FsckReport,
    bad_profiles: Vec<u64>,
    bad_pmcs: Vec<usize>,
}

fn walk(root: &Path) -> Result<Walk, Error> {
    let mut report = FsckReport::default();
    let manifest = Manifest::load(&root.join("manifest.json"))?;
    let scans = scan_all(root, &mut report)?;
    let mut bad_profiles = Vec::new();
    let mut bad_pmcs = Vec::new();
    for (key, status) in &manifest.profiles {
        let ProfileStatus::Ok {
            segment,
            offset,
            len,
        } = status
        else {
            continue; // negative entries have no record to verify
        };
        match entry_damage(&scans.profile, *segment, *offset, *len, *key) {
            Some(detail) => {
                report.records_damaged += 1;
                report.problems.push(Problem {
                    file: format!("seg-{segment:04}.bin"),
                    detail,
                });
                bad_profiles.push(*key);
            }
            None => report.records_ok += 1,
        }
    }
    for (idx, entry) in manifest.pmcs.iter().enumerate() {
        let key = corpus_key(&entry.corpus);
        match entry_damage(&scans.pmc, entry.segment, entry.offset, entry.len, key) {
            Some(detail) => {
                report.records_damaged += 1;
                report.problems.push(Problem {
                    file: format!("pmc-{:04}.bin", entry.segment),
                    detail,
                });
                bad_pmcs.push(idx);
            }
            None => report.records_ok += 1,
        }
    }
    Ok(Walk {
        manifest,
        scans,
        report,
        bad_profiles,
        bad_pmcs,
    })
}

/// Walks every manifest entry of the store at `root`, verifying magic, key,
/// length, and CRC of each record, plus torn tails. Read-only. `Err` means
/// the walk itself could not run (missing directory, unreadable manifest) —
/// damage is reported in the `Ok` report, not as an error.
pub fn fsck(root: &Path) -> Result<FsckReport, Error> {
    Ok(walk(root)?.report)
}

/// Repairs the store at `root`: truncates torn segment tails, drops
/// manifest entries whose records are damaged, and rewrites the manifest
/// atomically. Dropped entries cost a recompute on the next run — never
/// correctness.
pub fn repair(root: &Path) -> Result<RepairReport, Error> {
    let Walk {
        mut manifest,
        scans,
        bad_profiles,
        bad_pmcs,
        ..
    } = walk(root)?;
    let mut report = RepairReport::default();
    let files = scans
        .profile
        .iter()
        .map(|(n, s)| (format!("seg-{n:04}.bin"), s))
        .chain(
            scans
                .pmc
                .iter()
                .map(|(n, s)| (format!("pmc-{n:04}.bin"), s)),
        );
    for (name, scan) in files {
        let path = root.join(&name);
        if !scan.recognized {
            if std::fs::remove_file(&path).is_ok() {
                report.removed_segments += 1;
            }
        } else if scan.torn_bytes() > 0 && segment::truncate_torn_tail(&path, scan) {
            report.truncated_segments += 1;
        }
    }
    for key in &bad_profiles {
        manifest.profiles.remove(key);
        report.dropped_profiles += 1;
    }
    let mut idx = 0usize;
    manifest.pmcs.retain(|_| {
        let drop = bad_pmcs.contains(&idx);
        idx += 1;
        !drop
    });
    report.dropped_pmcs += bad_pmcs.len() as u64;
    // Never let a rewound manifest reuse an on-disk segment number.
    let max_seen = scans.profile.keys().chain(scans.pmc.keys()).max().copied();
    if let Some(m) = max_seen {
        manifest.next_segment = manifest.next_segment.max(m + 1);
    }
    manifest.save(&root.join("manifest.json"))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use snowboard::chaos::DiskFaults;
    use snowboard::pmc::PmcSet;
    use snowboard::profile::SeqProfile;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb-fsck-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn profile(test: u32) -> SeqProfile {
        SeqProfile {
            test,
            steps: 5,
            accesses: vec![],
        }
    }

    fn populate(dir: &Path) {
        let mut store = Store::open(dir).expect("open");
        store
            .insert_profiles(&[(1, Some(profile(0))), (2, Some(profile(1))), (3, None)])
            .expect("insert");
        store
            .save_pmcs(&[1, 2, 3], &PmcSet::default())
            .expect("save");
        store.flush().expect("flush");
    }

    #[test]
    fn clean_store_passes_fsck() {
        let dir = tmp("clean");
        populate(&dir);
        let report = fsck(&dir).expect("fsck");
        assert!(report.clean(), "problems: {:?}", report.problems);
        assert_eq!(
            report.records_ok, 3,
            "two profile records plus one PMC record"
        );
        assert_eq!(report.segments, 2);
        assert!(repair(&dir).expect("repair").untouched());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_finds_flip_and_repair_drops_it() {
        let dir = tmp("flip");
        populate(&dir);
        let seg = dir.join("seg-0000.bin");
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes[20] ^= 0xFF; // CRC word of the first record
        std::fs::write(&seg, &bytes).expect("flip");
        // The manifest is outside input too: an entry whose address
        // arithmetic overflows is one more damaged record, not a panic.
        let manifest_path = dir.join("manifest.json");
        let mut manifest = Manifest::load(&manifest_path).expect("load");
        let wild = ProfileStatus::Ok {
            segment: 0,
            offset: u64::MAX - 4,
            len: 9,
        };
        manifest.profiles.insert(2, wild);
        manifest.save(&manifest_path).expect("save");

        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean());
        assert_eq!(report.records_damaged, 2);
        assert!(report.problems[0].detail.contains("checksum"));
        assert!(report.problems[1].detail.contains("past the valid prefix"));

        let rep = repair(&dir).expect("repair");
        assert_eq!(rep.dropped_profiles, 2);
        assert!(
            fsck(&dir).expect("re-fsck").clean(),
            "repair makes fsck clean"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_finds_torn_tail_and_missing_segment() {
        let dir = tmp("torn");
        populate(&dir);
        {
            // Crash mid-insert: a torn segment the manifest never saw.
            let mut store = Store::open(&dir).expect("open");
            store.set_fault_plan(DiskFaults {
                torn_write_after: Some(7),
                ..Default::default()
            });
            store
                .insert_profiles(&[(9, Some(profile(9)))])
                .expect_err("torn");
        }
        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean());
        assert!(report.torn_bytes > 0);

        std::fs::remove_file(dir.join("pmc-0001.bin")).expect("remove");
        let report = fsck(&dir).expect("fsck");
        assert!(report.problems.iter().any(|p| p.detail.contains("missing")));

        let rep = repair(&dir).expect("repair");
        assert!(rep.truncated_segments >= 1);
        assert_eq!(rep.dropped_pmcs, 1);
        assert!(fsck(&dir).expect("re-fsck").clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_removes_a_segment_with_destroyed_magic() {
        let dir = tmp("magic");
        populate(&dir);
        let seg = dir.join("seg-0000.bin");
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes[0] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("write");

        let report = fsck(&dir).expect("fsck");
        assert!(report.problems.iter().any(|p| p.detail.contains("magic")));
        assert_eq!(report.records_damaged, 2, "both profile records unreadable");

        let rep = repair(&dir).expect("repair");
        assert_eq!(rep.removed_segments, 1);
        assert_eq!(rep.dropped_profiles, 2);
        assert!(!seg.exists(), "unrecognizable segment removed");
        assert!(fsck(&dir).expect("re-fsck").clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_errors_only_when_the_walk_cannot_run() {
        let dir = tmp("nodir");
        assert!(
            matches!(fsck(&dir), Err(Error::Io { .. })),
            "missing directory"
        );
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("manifest.json"), "{broken").expect("write");
        assert!(
            matches!(fsck(&dir), Err(Error::Format { .. })),
            "unreadable manifest"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
