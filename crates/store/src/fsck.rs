//! Offline store checking and repair (`store fsck` / `store repair`).
//!
//! Both operate directly on the files — they never go through
//! [`crate::Store::open`], which would itself truncate torn tails. `fsck`
//! is strictly read-only: it checksums every record of every segment file
//! and reports unrecognized files, torn tails, and every *live* record —
//! the latest of its key, the one a lookup would serve — that fails its
//! CRC. A superseded record is garbage, damaged or not. `repair` applies
//! the destructive subset a campaign would heal anyway: it removes
//! unrecognized files, truncates torn tails, and rewrites each file that
//! holds a damaged live record into a fresh segment without it.

use std::collections::BTreeMap;
use std::path::Path;

use crate::manifest::Manifest;
use crate::segment::{self, SegmentKind, SegmentScan, SegmentWriter};
use crate::store::{list_segment_files, segment_name};
use crate::Error;

/// One damage observation, tied to the file it was seen in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Problem {
    /// Segment file name.
    pub file: String,
    /// What is wrong.
    pub detail: String,
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.detail)
    }
}

/// Result of checksumming every record of a store.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Live records that verified clean.
    pub records_ok: u64,
    /// Live records that fail their CRC.
    pub records_damaged: u64,
    /// Bytes of torn tail across all segments.
    pub torn_bytes: u64,
    /// Every damage observation, in segment-number order.
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
    /// Damaged live records dropped.
    pub dropped_records: u64,
    /// Segment files rewritten without their damaged live records (into a
    /// fresh segment, or not at all when nothing intact was left).
    pub rewritten_segments: u64,
    /// Segment files whose torn tails were truncated.
    pub truncated_segments: u64,
    /// Segment files with unrecognizable magic that were removed.
    pub removed_segments: u64,
}

impl RepairReport {
    /// True when the store needed no changes.
    pub fn untouched(&self) -> bool {
        *self == RepairReport::default()
    }
}

/// One segment file as fsck read it.
struct File {
    n: u64,
    kind: SegmentKind,
    name: String,
    bytes: Vec<u8>,
    scan: SegmentScan,
    /// Live records that fail their CRC.
    damaged: u64,
    /// Whether each record is the latest of its key.
    live: Vec<bool>,
}

/// Reads and checksums every segment file, and marks each record live or
/// superseded as `Store::open` would index it.
fn walk(root: &Path) -> Result<(Vec<File>, FsckReport), Error> {
    // The manifest holds only counters, but a store must have a readable one.
    Manifest::load(&root.join("manifest.json"))?;
    let mut report = FsckReport::default();
    let mut files = Vec::new();
    for (n, kind, name) in list_segment_files(root)? {
        let bytes = segment::read(&root.join(&name))?;
        let scan = segment::scan(&bytes, kind, true);
        let live = vec![false; scan.records.len()];
        files.push(File {
            n,
            kind,
            name,
            bytes,
            scan,
            damaged: 0,
            live,
        });
    }
    let mut latest = BTreeMap::new();
    for (f, file) in files.iter().enumerate() {
        for (r, rec) in file.scan.records.iter().enumerate() {
            latest.insert((file.kind, rec.key), (f, r));
        }
    }
    for (f, r) in latest.into_values() {
        files[f].live[r] = true;
    }
    for file in &mut files {
        report.segments += 1;
        let scan = &file.scan;
        if !scan.recognized {
            report.problems.push(Problem {
                file: file.name.clone(),
                detail: "unrecognized magic".into(),
            });
        } else if scan.torn_bytes() > 0 {
            report.torn_bytes += scan.torn_bytes();
            report.problems.push(Problem {
                file: file.name.clone(),
                detail: format!(
                    "torn tail: {} trailing byte(s) past the valid prefix at {}",
                    scan.torn_bytes(),
                    scan.valid_len
                ),
            });
        }
        for (rec, live) in scan.records.iter().zip(&file.live) {
            if !live {
                continue;
            }
            if rec.crc_ok == Some(true) {
                report.records_ok += 1;
                continue;
            }
            report.records_damaged += 1;
            report.problems.push(Problem {
                file: file.name.clone(),
                detail: format!(
                    "checksum mismatch for record {:#x} at offset {}",
                    rec.key, rec.offset
                ),
            });
            file.damaged += 1;
        }
    }
    Ok((files, report))
}

/// Checksums every record of the store at `root` and reports unrecognized
/// files, torn tails, and damaged live records. Read-only. `Err` means the
/// walk itself could not run (missing directory, unreadable manifest or
/// segment) — damage
/// is reported in the `Ok` report, not as an error.
pub fn fsck(root: &Path) -> Result<FsckReport, Error> {
    Ok(walk(root)?.1)
}

/// Repairs the store at `root`: removes unrecognized files, truncates torn
/// tails, and rewrites every file that holds a damaged live record into a
/// fresh segment that keeps only its intact live records (superseded ones
/// are dropped with it, so no older copy of a key takes over). Dropped
/// records cost a recompute on the next run — never correctness.
pub fn repair(root: &Path) -> Result<RepairReport, Error> {
    let (files, _) = walk(root)?;
    let mut report = RepairReport::default();
    let mut next = files.last().map_or(0, |f| f.n + 1);
    for file in files {
        let path = root.join(&file.name);
        if !file.scan.recognized {
            if std::fs::remove_file(&path).is_ok() {
                report.removed_segments += 1;
            }
        } else if file.damaged > 0 {
            let keep: Vec<_> = file
                .scan
                .records
                .iter()
                .zip(&file.live)
                .filter(|(rec, live)| **live && rec.crc_ok == Some(true))
                .map(|(rec, _)| rec)
                .collect();
            if !keep.is_empty() {
                let fresh = root.join(segment_name(file.kind, next));
                let mut writer = SegmentWriter::create(&fresh, file.kind.magic())?;
                for rec in keep {
                    writer.append(rec.key, rec.payload(&file.bytes))?;
                }
                writer.finish()?;
                segment::sync_dir(root);
                next += 1;
            }
            std::fs::remove_file(&path).map_err(|source| Error::Io {
                op: "remove",
                path,
                source,
            })?;
            report.rewritten_segments += 1;
            report.dropped_records += file.damaged;
        } else if file.scan.torn_bytes() > 0 && segment::truncate_torn_tail(&path, &file.scan) {
            report.truncated_segments += 1;
        }
    }
    segment::sync_dir(root);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::HEADER_LEN;
    use crate::store::{ProfileLookup, Store};
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

        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean());
        assert_eq!((report.records_ok, report.records_damaged), (2, 1));
        assert!(report.problems[0].detail.contains("checksum"));

        // The file is rewritten into a fresh segment holding only the
        // intact record; the damaged one is gone with the old file.
        let rep = repair(&dir).expect("repair");
        assert_eq!(
            rep,
            RepairReport {
                dropped_records: 1,
                rewritten_segments: 1,
                ..RepairReport::default()
            }
        );
        assert!(!seg.exists(), "the damaged file is removed");
        let rewritten = std::fs::read(dir.join("seg-0002.bin")).expect("fresh segment");
        let scan = segment::scan(&rewritten, SegmentKind::Profile, true);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(
            (scan.records[0].key, scan.records[0].crc_ok),
            (2, Some(true))
        );
        assert!(
            fsck(&dir).expect("re-fsck").clean(),
            "repair makes fsck clean"
        );
        let mut store = Store::open(&dir).expect("open");
        assert_eq!(
            store.lookup_profile(1, 0).expect("lookup"),
            ProfileLookup::Miss
        );
        assert!(matches!(
            store.lookup_profile(2, 1).expect("lookup"),
            ProfileLookup::Hit(p) if p.steps == 5
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_superseded_record_is_garbage_and_a_rewrite_keeps_the_later_copy() {
        let dir = tmp("superseded");
        let mut store = Store::open(&dir).expect("open");
        store
            .insert_profiles(&[
                (1, Some(profile(0))),
                (2, Some(profile(1))),
                (3, Some(profile(2))),
            ])
            .expect("insert");
        let newer = SeqProfile {
            steps: 6,
            ..profile(0)
        };
        store
            .insert_profiles(&[(1, Some(newer))])
            .expect("newer copy of key 1");
        store.flush().expect("flush");
        drop(store);
        // Damage key 1's superseded record in seg-0000: garbage, unreported.
        let seg = dir.join("seg-0000.bin");
        let mut bytes = std::fs::read(&seg).expect("read");
        let records = segment::scan(&bytes, SegmentKind::Profile, true).records;
        let flip = |bytes: &mut Vec<u8>, i: usize| {
            bytes[(records[i].offset + HEADER_LEN) as usize] ^= 0x01;
        };
        flip(&mut bytes, 0);
        std::fs::write(&seg, &bytes).expect("flip");
        assert!(fsck(&dir).expect("fsck").clean());

        // Damage key 2's live record too: the rewrite keeps only key 3's, so
        // the stale copy of key 1 cannot outrank the later one.
        flip(&mut bytes, 1);
        std::fs::write(&seg, &bytes).expect("flip");
        let report = fsck(&dir).expect("fsck");
        assert_eq!((report.records_ok, report.records_damaged), (2, 1));
        assert_eq!(repair(&dir).expect("repair").dropped_records, 1);
        assert!(fsck(&dir).expect("re-fsck").clean());
        let mut store = Store::open(&dir).expect("open");
        let steps_of = |store: &mut Store, key| match store.lookup_profile(key, 0).expect("lookup")
        {
            ProfileLookup::Hit(p) => Some(p.steps),
            ProfileLookup::Miss => None,
            other => panic!("key {key}: {other:?}"),
        };
        assert_eq!(steps_of(&mut store, 1), Some(6), "the later copy serves");
        assert_eq!(steps_of(&mut store, 2), None);
        assert_eq!(steps_of(&mut store, 3), Some(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_finds_torn_tail_and_missing_segment() {
        let dir = tmp("torn");
        populate(&dir);
        {
            // Crash mid-insert: a torn segment.
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

        let rep = repair(&dir).expect("repair");
        assert!(rep.truncated_segments >= 1);
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
        assert_eq!(
            (report.records_ok, report.records_damaged),
            (1, 0),
            "an unrecognized file has no records: only the PMC record is seen"
        );

        let rep = repair(&dir).expect("repair");
        assert_eq!(rep.removed_segments, 1);
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
