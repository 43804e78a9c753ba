//! The store: a directory of segment files, which are also its index, plus
//! the manifest with the last run's counters.
//!
//! Content addressing: a profile's key is the FNV-1a hash of the boot
//! config, fuzz seed, and program text. `Site` ids are themselves FNV
//! hashes of instruction names, so profiles and PMC sets persisted by one
//! process match those of any other — nothing in a record depends on
//! process-local interning state.
//!
//! Every record carries its key, so [`Store::open`] builds the key →
//! (segment, offset, len) index from the recovery scan it runs anyway,
//! visiting files in segment-number order: the latest record of a key
//! wins, which is how a heal or a replaced PMC set takes over. A record is
//! in the index as soon as its segment is finished, so a kill before
//! [`Store::flush`] loses nothing written.
//!
//! Cached state is *advisory*: a record that fails its checks surfaces as
//! [`ProfileLookup::Damaged`]/[`PmcLookup::Damaged`], never as an error,
//! and the pipeline recomputes and heals it. Damage the scan cannot see —
//! a deleted file, records behind a mangled length or key — reads as a
//! miss and is recomputed the same way. Opening a store truncates torn
//! segment tails left by a crash, so a kill mid-`insert_profiles` costs at
//! most the interrupted record.
//!
//! Cost follows bytes: `open` checksums the last record of each file and
//! leaves the rest to the lookups that serve them; lookups in corpus order
//! share one positioned read per 64 KiB of segment
//! ([`Store::segment_reads`], [`Store::open_crc_bytes`] count both).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use sb_kernel::{KernelConfig, Program};
use sb_vmm::site::fnv1a;
use snowboard::chaos::{self, DiskFaults};
use snowboard::pmc::PmcSet;
use snowboard::profile::SeqProfile;

use crate::codec;
use crate::manifest::Manifest;
use crate::segment::{self, SegmentKind, SegmentReader, SegmentWriter};
use crate::Error;

/// Content key of one sequential test: hash of (boot config, fuzz seed,
/// program). Debug renderings are derived and contain no addresses or other
/// process-local state, so keys are stable across processes and runs.
pub fn profile_key(config: &KernelConfig, seed: u64, prog: &Program) -> u64 {
    fnv1a(format!("{config:?}|{seed}|{prog:?}").as_bytes())
}

/// Content key of a whole corpus: hash chain over its profile keys, used as
/// the embedded record key of persisted PMC sets.
pub fn corpus_key(keys: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(keys.len() * 8);
    for k in keys {
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Result of a profile lookup.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileLookup {
    /// Served from the store, test id remapped to the current corpus index.
    Hit(SeqProfile),
    /// Not in the store (or reads disabled); write the profile in hand.
    Miss,
    /// The latest record of this key is corrupt or unreadable.
    /// Quarantined: treat as a miss; the rewrite heals the entry.
    Damaged,
}

/// Result of a PMC-set lookup against a corpus key list.
#[derive(Clone, Debug, PartialEq)]
pub enum PmcLookup {
    /// A stored set identified from exactly this corpus; bit-identical to
    /// what identification would rebuild.
    Exact(PmcSet),
    /// A stored set identified from a strict prefix of this corpus
    /// (`prefix_len` corpus entries) — resume it and join only the rest.
    Prefix(PmcSet, usize),
    /// Nothing reusable stored.
    Miss,
    /// Every reusable candidate was corrupt or unreadable. Quarantined:
    /// rebuild from scratch; the save heals the entry.
    Damaged,
}

/// Size statistics of the on-disk store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Number of segment files (profile + PMC).
    pub segments: u64,
    /// Total bytes across segment files.
    pub bytes: u64,
}

/// Where one record lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Addr {
    /// Segment file number (`seg-<n>.bin` or `pmc-<n>.bin`).
    segment: u64,
    /// Record offset within the segment.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
}

/// One stored PMC set and the exact corpus (as profile keys, in order) it
/// was identified from.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PmcEntry {
    corpus: Vec<u64>,
    at: Addr,
}

/// A persistent profile/PMC store rooted at one directory.
///
/// A `Store` never rewrites a segment file it may hold open: inserts, saves
/// and heals always allocate a fresh segment number, and torn-tail
/// truncation happens in [`Store::open`] before any handle exists. That is
/// what lets lookups keep one segment handle across calls — and what makes
/// the file bytes that handle read ahead ([`SegmentReader`]'s window) as
/// good as the file itself for as long as it is held.
pub struct Store {
    root: PathBuf,
    /// The counters the most recent completed run persisted.
    last_run: Manifest,
    read_cache: bool,
    /// Profile key → its latest record.
    profiles: BTreeMap<u64, Addr>,
    /// Stored PMC sets, oldest first, one per corpus.
    pmcs: Vec<PmcEntry>,
    /// Next segment file number to allocate (shared by profile and PMC
    /// segments): one past the largest on disk.
    next_segment: u64,
    /// The segment the last lookup read, still open: lookups arrive in
    /// corpus order, the order segments were written in, so one slot (one
    /// descriptor) serves runs of them with a single `open`.
    open_segment: Option<(SegmentKind, u64, SegmentReader)>,
    /// Injected disk faults (empty by default; see [`Store::set_fault_plan`]).
    fault: DiskFaults,
    /// Verified record reads since the plan was armed, counted only while a
    /// read fault is armed (drives `short_read_nth`).
    fault_reads: u64,
    /// Site ids of the plan's faults that fired, in fire order.
    fault_fired: Vec<&'static str>,
    /// Profile keys whose records were found damaged this run.
    damaged_keys: BTreeSet<u64>,
    /// Corpus keys of PMC entries found damaged this run.
    damaged_pmc_corpora: BTreeSet<u64>,
    /// Profile lookups served from the store this run.
    pub profile_hits: u64,
    /// Profile lookups that missed this run.
    pub profile_misses: u64,
    /// Records found corrupt or unreadable this run.
    pub records_damaged: u64,
    /// Damaged records recomputed and rewritten this run.
    pub records_healed: u64,
    /// Positioned reads lookups issued against segment files this run.
    pub segment_reads: u64,
    /// Record bytes [`Store::open`] checksummed.
    pub open_crc_bytes: u64,
}

impl Store {
    /// Opens (or initializes) the store in `root`, creating the directory
    /// if needed. Scans every segment file in number order, truncates torn
    /// tails left by a crash, and indexes every record the scan finds.
    ///
    /// The scan checksums what the torn-tail rule needs: the last record of
    /// each file. That is also a PMC file's one record, so its corpus list
    /// is read from verified bytes. Every other record is verified by the
    /// lookup that serves it, so none is served or used to place a
    /// truncation unverified.
    pub fn open(root: &Path) -> Result<Store, Error> {
        Store::open_scanning(root, false)
    }

    /// [`Store::open`] with a scan that checksums every record: the
    /// reference the differential tests hold it against.
    #[cfg(test)]
    fn open_checking_every_record(root: &Path) -> Result<Store, Error> {
        Store::open_scanning(root, true)
    }

    fn open_scanning(root: &Path, every_record: bool) -> Result<Store, Error> {
        std::fs::create_dir_all(root).map_err(|source| Error::Io {
            op: "create-dir",
            path: root.to_path_buf(),
            source,
        })?;
        let last_run = Manifest::load(&root.join("manifest.json"))?;
        let mut profiles = BTreeMap::new();
        let mut pmcs: Vec<PmcEntry> = Vec::new();
        let mut next_segment = 0;
        let mut open_crc_bytes = 0;
        for (n, kind, name) in list_segment_files(root)? {
            let path = root.join(&name);
            let bytes = segment::read(&path)?;
            // A PMC file's one record is its last: checksummed either way.
            let scan = segment::scan(&bytes, kind, every_record || kind == SegmentKind::Pmc);
            open_crc_bytes += scan.crc_bytes;
            if scan.torn_bytes() > 0 {
                segment::truncate_torn_tail(&path, &scan);
            }
            // Never reuse a number an on-disk file already claims.
            next_segment = n + 1;
            match kind {
                SegmentKind::Profile => {
                    for rec in &scan.records {
                        let at = Addr {
                            segment: n,
                            offset: rec.offset,
                            len: rec.len,
                        };
                        profiles.insert(rec.key, at);
                    }
                }
                SegmentKind::Pmc => {
                    let Some(rec) = scan.records.last().filter(|r| r.crc_ok == Some(true)) else {
                        continue;
                    };
                    let Ok((corpus, _)) = codec::decode_pmc_corpus(rec.payload(&bytes)) else {
                        continue;
                    };
                    pmcs.retain(|e| e.corpus != corpus);
                    pmcs.push(PmcEntry {
                        corpus,
                        at: Addr {
                            segment: n,
                            offset: rec.offset,
                            len: rec.len,
                        },
                    });
                }
            }
        }
        Ok(Store {
            root: root.to_path_buf(),
            last_run,
            read_cache: true,
            profiles,
            pmcs,
            next_segment,
            open_segment: None,
            fault: DiskFaults::default(),
            fault_reads: 0,
            fault_fired: Vec::new(),
            damaged_keys: BTreeSet::new(),
            damaged_pmc_corpora: BTreeSet::new(),
            profile_hits: 0,
            profile_misses: 0,
            records_damaged: 0,
            records_healed: 0,
            segment_reads: 0,
            open_crc_bytes,
        })
    }

    /// Disables cache *reads* (`--no-cache`): every lookup misses, but fresh
    /// results are still written back.
    pub fn set_read_cache(&mut self, enabled: bool) {
        self.read_cache = enabled;
    }

    /// Arms a deterministic disk-fault plan (fault-injection runs only;
    /// empty by default), restarting the read count and the fired list.
    /// A torn write fails the next segment write as a kill would (the
    /// partial file synced, its records never indexed); a flip corrupts
    /// the next finished segment; the torn write and the flip fire once,
    /// the short reads on every matching record read. Each firing prints a
    /// `[chaos] fired` ledger line.
    pub fn set_fault_plan(&mut self, plan: DiskFaults) {
        self.fault = plan;
        self.fault_reads = 0;
        self.fault_fired.clear();
    }

    /// Site ids of the armed plan's faults that actually fired, in fire
    /// order (`hunt chaos` attribution).
    pub fn fault_fired(&self) -> Vec<&'static str> {
        self.fault_fired.clone()
    }

    fn fire(&mut self, site: &'static str, detail: &str) {
        self.fault_fired.push(site);
        chaos::fired(site, detail);
    }

    /// Consumes the one-shot torn-write cutoff, if armed.
    fn take_torn_write(&mut self) -> Option<u64> {
        let cut = self.fault.torn_write_after.take()?;
        self.fire("disk.torn", &format!("cut={cut}"));
        Some(cut)
    }

    /// Whether this verified record read of `key` comes up short. Reads are
    /// counted only while a read fault is armed, so the production path is
    /// a branch on an empty plan.
    fn short_read(&mut self, key: u64) -> bool {
        if self.fault.short_read_keys.is_empty() && self.fault.short_read_nth.is_none() {
            return false;
        }
        self.fault_reads += 1;
        let read = self.fault_reads;
        let hit =
            self.fault.short_read_keys.contains(&key) || self.fault.short_read_nth == Some(read);
        if hit {
            self.fire("disk.short", &format!("key={key} read={read}"));
        }
        hit
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Profile cache hit rate persisted by the most recent completed run.
    pub fn last_hit_rate(&self) -> Option<f64> {
        let total = self.last_run.last_hits + self.last_run.last_misses;
        (total > 0).then(|| self.last_run.last_hits as f64 / total as f64)
    }

    /// (hits, misses) persisted by the most recent completed run.
    pub fn last_counters(&self) -> (u64, u64) {
        (self.last_run.last_hits, self.last_run.last_misses)
    }

    fn segment_path(&self, kind: SegmentKind, n: u64) -> PathBuf {
        self.root.join(segment_name(kind, n))
    }

    /// Reads and verifies one record's payload, honoring injected short
    /// reads. Any failure means the record is damaged.
    fn read_verified(&mut self, kind: SegmentKind, at: Addr, key: u64) -> Result<&[u8], Error> {
        let end = at.offset + segment::HEADER_LEN + at.len;
        let eof_at = self.short_read(key).then(|| end - 1);
        if !matches!(&self.open_segment, Some((k, n, _)) if (*k, *n) == (kind, at.segment)) {
            let path = self.segment_path(kind, at.segment);
            // Dropping the previous handle first keeps it at one descriptor.
            self.open_segment = None;
            self.open_segment = Some((kind, at.segment, SegmentReader::open(&path)?));
        }
        let (_, _, reader) = self.open_segment.as_mut().expect("opened above");
        reader.read_at(at.offset, at.len, key, eof_at, &mut self.segment_reads)
    }

    /// Looks up the profile stored under `key`, remapping its test id to
    /// `test` (the corpus index of the *current* run). Damage is reported
    /// as [`ProfileLookup::Damaged`] (and counted), never as `Err`.
    pub fn lookup_profile(&mut self, key: u64, test: u32) -> Result<ProfileLookup, Error> {
        let at = match self.profiles.get(&key) {
            Some(at) if self.read_cache => *at,
            _ => {
                self.profile_misses += 1;
                return Ok(ProfileLookup::Miss);
            }
        };
        match self
            .read_verified(SegmentKind::Profile, at, key)
            .and_then(codec::decode_profile)
        {
            Ok(mut profile) => {
                profile.test = test;
                self.profile_hits += 1;
                Ok(ProfileLookup::Hit(profile))
            }
            Err(_) => {
                self.records_damaged += 1;
                self.damaged_keys.insert(key);
                self.profile_misses += 1;
                Ok(ProfileLookup::Damaged)
            }
        }
    }

    /// Persists one corpus chunk of freshly profiled tests into a new
    /// segment file. Rewriting a key whose record was found damaged this
    /// run counts as a heal.
    ///
    /// A `None` entry stores nothing, and a batch of nothing but `None`
    /// writes no file: no caller in this workspace passes one (the fuzz
    /// loop keeps only runs that complete). The `Option` is kept because
    /// the benchmark builds these batches by type.
    pub fn insert_profiles(&mut self, batch: &[(u64, Option<SeqProfile>)]) -> Result<(), Error> {
        if batch.iter().all(|(_, p)| p.is_none()) {
            return Ok(());
        }
        let seg_no = self.next_segment;
        let path = self.segment_path(SegmentKind::Profile, seg_no);
        let mut writer = SegmentWriter::create(&path, SegmentKind::Profile.magic())?;
        if let Some(cut) = self.take_torn_write() {
            writer.set_torn_after(cut);
        }
        let mut buf = Vec::new();
        let mut written = Vec::with_capacity(batch.len());
        for (key, profile) in batch {
            if let Some(p) = profile {
                buf.clear();
                codec::encode_profile(p, &mut buf);
                let (offset, len) = writer.append(*key, &buf)?;
                let at = Addr {
                    segment: seg_no,
                    offset,
                    len,
                };
                written.push((*key, at));
            }
        }
        writer.finish()?;
        self.apply_flip_fault(&path);
        segment::sync_dir(&self.root);
        self.next_segment = seg_no + 1;
        // A key the batch repeats heals once: its first entry takes it out
        // of `damaged_keys`; in the index its last entry wins.
        for (key, _) in &written {
            if self.damaged_keys.remove(key) {
                self.records_healed += 1;
            }
        }
        self.profiles.extend(written);
        Ok(())
    }

    /// Finds the most recent stored PMC set reusable for `corpus_keys`:
    /// exact corpus match first, else the longest strict-prefix match.
    /// Damaged candidates are skipped (and counted); if only damage
    /// remains, returns [`PmcLookup::Damaged`].
    pub fn lookup_pmcs(&mut self, corpus_keys: &[u64]) -> Result<PmcLookup, Error> {
        if !self.read_cache {
            return Ok(PmcLookup::Miss);
        }
        let mut excluded: BTreeSet<usize> = BTreeSet::new();
        let mut damage_seen = false;
        loop {
            let mut best: Option<usize> = None;
            for (idx, entry) in self.pmcs.iter().enumerate().rev() {
                if excluded.contains(&idx) {
                    continue;
                }
                if entry.corpus == corpus_keys {
                    best = Some(idx);
                    break;
                }
                let better = best.map_or(0, |b| self.pmcs[b].corpus.len());
                if entry.corpus.len() > better
                    && entry.corpus.len() < corpus_keys.len()
                    && corpus_keys.starts_with(&entry.corpus)
                {
                    best = Some(idx);
                }
            }
            let Some(idx) = best else {
                return Ok(if damage_seen {
                    PmcLookup::Damaged
                } else {
                    PmcLookup::Miss
                });
            };
            let (prefix_len, at) = (self.pmcs[idx].corpus.len(), self.pmcs[idx].at);
            let key = corpus_key(&self.pmcs[idx].corpus);
            let decoded = self
                .read_verified(SegmentKind::Pmc, at, key)
                .and_then(codec::decode_pmc_corpus)
                .and_then(|(_, set)| codec::decode_pmc_set(set));
            match decoded {
                Ok(set) if prefix_len == corpus_keys.len() => return Ok(PmcLookup::Exact(set)),
                Ok(set) => return Ok(PmcLookup::Prefix(set, prefix_len)),
                Err(_) => {
                    self.records_damaged += 1;
                    self.damaged_pmc_corpora.insert(key);
                    damage_seen = true;
                    excluded.insert(idx);
                }
            }
        }
    }

    /// Persists `set` as the PMC universe of `corpus_keys`, replacing any
    /// entry stored for the same corpus. Replacing a corpus whose record
    /// was found damaged this run counts as a heal.
    pub fn save_pmcs(&mut self, corpus_keys: &[u64], set: &PmcSet) -> Result<(), Error> {
        let seg_no = self.next_segment;
        let path = self.segment_path(SegmentKind::Pmc, seg_no);
        let mut writer = SegmentWriter::create(&path, SegmentKind::Pmc.magic())?;
        if let Some(cut) = self.take_torn_write() {
            writer.set_torn_after(cut);
        }
        let mut buf = Vec::new();
        codec::encode_pmc_record(corpus_keys, set, &mut buf);
        let record_key = corpus_key(corpus_keys);
        let (offset, len) = writer.append(record_key, &buf)?;
        writer.finish()?;
        self.apply_flip_fault(&path);
        segment::sync_dir(&self.root);
        self.next_segment = seg_no + 1;
        self.pmcs.retain(|e| e.corpus != corpus_keys);
        self.pmcs.push(PmcEntry {
            corpus: corpus_keys.to_vec(),
            at: Addr {
                segment: seg_no,
                offset,
                len,
            },
        });
        if self.damaged_pmc_corpora.remove(&record_key) {
            self.records_healed += 1;
        }
        Ok(())
    }

    /// Applies an armed post-write bit flip to the finished segment at
    /// `path` (injection only; no-op for an empty plan).
    fn apply_flip_fault(&mut self, path: &Path) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let Some((offset, mask)) = self.fault.flip_after_write.take() else {
            return;
        };
        self.fire("disk.flip", &format!("offset={offset} mask={mask}"));
        let Ok(mut file) = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        else {
            return;
        };
        let mut byte = [0u8; 1];
        if file.seek(SeekFrom::Start(offset)).is_ok() && file.read_exact(&mut byte).is_ok() {
            byte[0] ^= mask;
            let _ = file
                .seek(SeekFrom::Start(offset))
                .and_then(|_| file.write_all(&byte))
                .and_then(|()| file.sync_all());
        }
    }

    /// Writes this run's hit/miss counters to the manifest, atomically.
    /// The records need nothing: each was durable and indexed when its
    /// segment finished.
    pub fn flush(&mut self) -> Result<(), Error> {
        self.last_run = Manifest {
            last_hits: self.profile_hits,
            last_misses: self.profile_misses,
        };
        self.last_run.save(&self.root.join("manifest.json"))
    }

    /// Sizes of all segment files currently on disk, smallest number first.
    /// Returns `(name, bytes)` pairs plus the aggregate.
    pub fn segment_sizes(&self) -> Result<(Vec<(String, u64)>, SegmentStats), Error> {
        let mut sizes = Vec::new();
        let mut stats = SegmentStats::default();
        for (_, _, name) in list_segment_files(&self.root)? {
            let path = self.root.join(&name);
            let len = std::fs::metadata(&path)
                .map_err(|source| Error::Io {
                    op: "stat",
                    path,
                    source,
                })?
                .len();
            sizes.push((name, len));
            stats.segments += 1;
            stats.bytes += len;
        }
        Ok((sizes, stats))
    }
}

/// The file name of segment `n` of `kind`.
pub(crate) fn segment_name(kind: SegmentKind, n: u64) -> String {
    let prefix = match kind {
        SegmentKind::Profile => "seg",
        SegmentKind::Pmc => "pmc",
    };
    format!("{prefix}-{n:04}.bin")
}

/// Lists `(segment number, kind, file name)` for every segment file in
/// `root`, in number order: the order in which a later record of a key
/// replaces an earlier one. Profile and PMC files share the number space.
pub(crate) fn list_segment_files(root: &Path) -> Result<Vec<(u64, SegmentKind, String)>, Error> {
    let entries = std::fs::read_dir(root).map_err(|source| Error::Io {
        op: "read-dir",
        path: root.to_path_buf(),
        source,
    })?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| Error::Io {
            op: "read-dir",
            path: root.to_path_buf(),
            source,
        })?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let kind = if name.starts_with("seg-") {
            SegmentKind::Profile
        } else if name.starts_with("pmc-") {
            SegmentKind::Pmc
        } else {
            continue;
        };
        let Some(num) = name
            .strip_suffix(".bin")
            .and_then(|s| s.get(4..))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        files.push((num, kind, name));
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_kernel::prog::Syscall;
    use sb_vmm::access::{Access, AccessKind};
    use sb_vmm::site::Site;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("sb-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).expect("open");
        (dir, store)
    }

    fn profile(test: u32, addr: u64) -> SeqProfile {
        SeqProfile {
            test,
            steps: 10,
            accesses: vec![Access {
                seq: 0,
                thread: 0,
                site: Site::intern("store:test"),
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

    #[test]
    fn profile_keys_depend_on_all_inputs() {
        let config = KernelConfig::v5_12_rc3();
        let p1 = Program::new(vec![Syscall::Msgget { key: 1 }]);
        let p2 = Program::new(vec![Syscall::Msgget { key: 2 }]);
        let k = profile_key(&config, 1, &p1);
        assert_eq!(k, profile_key(&config, 1, &p1.clone()));
        assert_ne!(k, profile_key(&config, 2, &p1));
        assert_ne!(k, profile_key(&config, 1, &p2));
        assert_ne!(k, profile_key(&KernelConfig::v5_3_10(), 1, &p1));
    }

    #[test]
    fn profiles_round_trip_with_test_remap_and_counters() {
        let (dir, mut store) = tmp_store("prof");
        let p = profile(3, 0x2000);
        store
            .insert_profiles(&[(111, Some(p.clone()))])
            .expect("insert");
        store.flush().expect("flush");

        let mut store = Store::open(&dir).expect("reopen");
        match store.lookup_profile(111, 9).expect("lookup") {
            ProfileLookup::Hit(got) => {
                assert_eq!(got.test, 9, "test id remapped to current corpus index");
                assert_eq!(got.accesses, p.accesses);
                assert_eq!(got.steps, p.steps);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(
            store.lookup_profile(333, 2).expect("lookup"),
            ProfileLookup::Miss
        );
        assert_eq!((store.profile_hits, store.profile_misses), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_kill_before_flush_loses_no_record_written() {
        let (dir, mut store) = tmp_store("noflush");
        let batch: Vec<_> = (1..=5u64).map(|k| (k, Some(profile(0, k << 12)))).collect();
        store.insert_profiles(&batch).expect("insert");
        let mut set = PmcSet::default();
        set.pmcs.push(sample_pmc());
        store.save_pmcs(&[1, 2, 3, 4, 5], &set).expect("save");
        drop(store); // killed: no flush

        let mut store = Store::open(&dir).expect("reopen");
        for (k, p) in &batch {
            assert_eq!(hit(&mut store, *k).as_ref(), p.as_ref(), "key {k}");
        }
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3, 4, 5]).expect("lookup"),
            PmcLookup::Exact(set)
        );
        assert_eq!(
            store.last_counters(),
            (0, 0),
            "the counters were never written"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_writes_only_the_counters_whatever_the_store_holds() {
        for records in [10u64, 10_000] {
            let (dir, mut store) = tmp_store(&format!("flushsize{records}"));
            for chunk in 0..records.div_ceil(1_000) {
                let batch: Vec<_> = (chunk * 1_000..records.min((chunk + 1) * 1_000))
                    .map(|k| (k, Some(profile(0, k << 4))))
                    .collect();
                store.insert_profiles(&batch).expect("insert");
            }
            for k in 0..records {
                assert!(hit(&mut store, k).is_some());
            }
            let before = store.segment_sizes().expect("sizes");
            store.flush().expect("flush");
            let manifest = std::fs::read(dir.join("manifest.json")).expect("manifest");
            assert!(
                manifest.len() <= 64,
                "{records} records: {} bytes",
                manifest.len()
            );
            assert_eq!(store.segment_sizes().expect("sizes"), before);
            assert_eq!(
                Store::open(&dir).expect("reopen").last_counters(),
                (records, 0)
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn segments_are_ordered_by_number_not_by_name() {
        let (dir, mut store) = tmp_store("order");
        store
            .insert_profiles(&[(5, Some(profile(0, 0x1000)))])
            .expect("older");
        store
            .insert_profiles(&[(5, Some(profile(0, 0x2000)))])
            .expect("newer");
        drop(store);
        // `seg-10000.bin` sorts before `seg-9999.bin` by name.
        std::fs::rename(dir.join("seg-0000.bin"), dir.join("seg-9999.bin")).expect("rename");
        std::fs::rename(dir.join("seg-0001.bin"), dir.join("seg-10000.bin")).expect("rename");
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(hit(&mut store, 5), Some(profile(0, 0x2000)));
        store
            .insert_profiles(&[(6, Some(profile(0, 0x3000)))])
            .expect("insert");
        assert!(dir.join("seg-10001.bin").exists());
        let names: Vec<_> = store
            .segment_sizes()
            .expect("sizes")
            .0
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, ["seg-9999.bin", "seg-10000.bin", "seg-10001.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_cache_forces_misses_but_still_writes() {
        let (dir, mut store) = tmp_store("nocache");
        store
            .insert_profiles(&[(5, Some(profile(0, 0x3000)))])
            .expect("insert");
        store.set_read_cache(false);
        assert_eq!(
            store.lookup_profile(5, 0).expect("lookup"),
            ProfileLookup::Miss
        );
        assert_eq!(store.lookup_pmcs(&[5]).expect("lookup"), PmcLookup::Miss);
        assert_eq!(store.profile_misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pmc_lookup_prefers_exact_over_prefix() {
        let (dir, mut store) = tmp_store("pmc");
        let small = PmcSet::default();
        let mut large = PmcSet::default();
        large.pmcs.push(sample_pmc());
        store.save_pmcs(&[1, 2], &small).expect("save small");
        store.save_pmcs(&[1, 2, 3], &large).expect("save large");
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("exact"),
            PmcLookup::Exact(large.clone())
        );
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3, 4]).expect("prefix"),
            PmcLookup::Prefix(large.clone(), 3)
        );
        assert_eq!(
            store.lookup_pmcs(&[1, 2]).expect("exact small"),
            PmcLookup::Exact(small)
        );
        assert_eq!(store.lookup_pmcs(&[9, 9]).expect("miss"), PmcLookup::Miss);
        // Replacing the same corpus keeps one entry.
        store.save_pmcs(&[1, 2, 3], &large).expect("replace");
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("exact"),
            PmcLookup::Exact(large)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_pmc() -> snowboard::pmc::Pmc {
        use snowboard::pmc::{PmcKey, SideKey};
        let side = |name: &str| SideKey {
            ins: Site::intern(name),
            addr: 0x1000,
            len: 8,
            value: 7,
        };
        snowboard::pmc::Pmc {
            key: PmcKey {
                w: side("w"),
                r: side("r"),
            },
            df_leader: false,
            pairs: vec![(0, 1)],
        }
    }

    #[test]
    fn segment_sizes_and_persisted_counters() {
        let (dir, mut store) = tmp_store("sizes");
        store
            .insert_profiles(&[(1, Some(profile(0, 0x2000)))])
            .expect("insert");
        store.save_pmcs(&[1], &PmcSet::default()).expect("save");
        let _ = store.lookup_profile(1, 0).expect("hit");
        let _ = store.lookup_profile(2, 1).expect("miss");
        store.flush().expect("flush");
        let (sizes, stats) = store.segment_sizes().expect("sizes");
        assert_eq!(stats.segments, 2);
        assert_eq!(sizes.len(), 2);
        assert!(stats.bytes > 16, "magic plus records");
        let reopened = Store::open(&dir).expect("reopen");
        assert_eq!(reopened.last_counters(), (1, 1));
        assert_eq!(reopened.last_hit_rate(), Some(0.5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_profile_record_degrades_to_damaged_and_heals() {
        let (dir, mut store) = tmp_store("flip");
        let p = profile(0, 0x4000);
        store
            .insert_profiles(&[(77, Some(p.clone())), (78, Some(profile(1, 0x4100)))])
            .expect("insert");
        store.flush().expect("flush");

        // Flip one payload byte of the first record. (The same flip in a
        // file's last record reads as a torn tail: a miss.)
        let seg = dir.join("seg-0000.bin");
        let mut bytes = std::fs::read(&seg).expect("read");
        bytes[8 + segment::HEADER_LEN as usize] ^= 0x10;
        std::fs::write(&seg, &bytes).expect("flip");

        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(
            store.lookup_profile(77, 0).expect("lookup"),
            ProfileLookup::Damaged
        );
        assert_eq!((store.records_damaged, store.records_healed), (1, 0));
        assert_eq!(
            store.profile_misses, 1,
            "damage counts as a miss for hit-rate purposes"
        );

        // Recompute-and-rewrite heals.
        store
            .insert_profiles(&[(77, Some(p.clone()))])
            .expect("heal");
        assert_eq!(store.records_healed, 1);
        store.flush().expect("flush");
        let mut store = Store::open(&dir).expect("reopen again");
        assert!(matches!(
            store.lookup_profile(77, 0).expect("lookup"),
            ProfileLookup::Hit(_)
        ));
        assert_eq!(store.records_damaged, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_segment_file_degrades_to_damaged() {
        let (dir, mut store) = tmp_store("missing");
        store
            .insert_profiles(&[(8, Some(profile(0, 0x5000)))])
            .expect("insert");
        store.flush().expect("flush");
        std::fs::remove_file(dir.join("seg-0000.bin")).expect("remove");
        // With the file goes the only record of its keys: a miss.
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(
            store.lookup_profile(8, 0).expect("lookup"),
            ProfileLookup::Miss
        );
        assert_eq!(store.records_damaged, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_pmc_record_skips_to_prefix_or_reports_damage() {
        let (dir, mut store) = tmp_store("pmcdmg");
        let mut set = PmcSet::default();
        set.pmcs.push(sample_pmc());
        store.save_pmcs(&[1, 2], &set).expect("save prefix");
        store.save_pmcs(&[1, 2, 3], &set).expect("save exact");
        store.flush().expect("flush");
        let flip_last_byte = |name: &str| {
            let path = dir.join(name);
            let mut bytes = std::fs::read(&path).expect("read");
            let last = bytes.len() - 1;
            bytes[last] ^= 0x08;
            std::fs::write(&path, &bytes).expect("flip");
        };

        // Damage the exact entry (pmc-0001), the one record of its file:
        // open finds a torn record and drops it, and the [1,2] prefix
        // still serves.
        flip_last_byte("pmc-0001.bin");
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("lookup"),
            PmcLookup::Prefix(set.clone(), 2),
            "damaged exact falls back to the intact prefix"
        );
        assert_eq!(store.records_damaged, 0, "a one-record file misses");

        // Saving the exact corpus again restores it.
        store.save_pmcs(&[1, 2, 3], &set).expect("heal");
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("lookup"),
            PmcLookup::Exact(set.clone())
        );

        // Damage everything after open: lookup reads both candidates, counts
        // both, and reports Damaged, not Miss.
        let mut store = Store::open(&dir).expect("reopen");
        for name in ["pmc-0000.bin", "pmc-0002.bin"] {
            flip_last_byte(name);
        }
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("lookup"),
            PmcLookup::Damaged
        );
        assert_eq!(store.records_damaged, 2, "both candidates damaged");
        // The same damage seen by open: nothing left to serve.
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(
            store.lookup_pmcs(&[1, 2, 3]).expect("lookup"),
            PmcLookup::Miss
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_insert_preserves_prefix_and_orphans_are_adopted() {
        let (dir, mut store) = tmp_store("torn");
        let p0 = profile(0, 0x6000);
        store
            .insert_profiles(&[(10, Some(p0.clone()))])
            .expect("first batch");
        store.flush().expect("flush");

        // Second batch: two records, killed mid-second (after the first
        // record of the batch is fully on disk).
        let p1 = profile(1, 0x6100);
        let p2 = profile(2, 0x6200);
        let mut probe = Vec::new();
        codec::encode_profile(&p1, &mut probe);
        let first_record_bytes = 16 + probe.len() as u64;
        store.set_fault_plan(DiskFaults {
            torn_write_after: Some(first_record_bytes + 5),
            ..Default::default()
        });
        let err = store
            .insert_profiles(&[(11, Some(p1.clone())), (12, Some(p2))])
            .expect_err("torn write kills the insert");
        assert!(matches!(err, Error::Injected(_)));
        drop(store); // crash: no flush

        let mut store = Store::open(&dir).expect("reopen");
        // The completed first batch still serves.
        assert!(matches!(
            store.lookup_profile(10, 0).expect("lookup"),
            ProfileLookup::Hit(_)
        ));
        // The batch's first record survived the tear and is indexed.
        assert!(matches!(
            store.lookup_profile(11, 1).expect("lookup"),
            ProfileLookup::Hit(_)
        ));
        // The torn second record is simply gone — a miss, not damage.
        assert_eq!(
            store.lookup_profile(12, 2).expect("lookup"),
            ProfileLookup::Miss
        );
        // The torn tail was truncated on open.
        let torn_seg = dir.join("seg-0001.bin");
        assert_eq!(
            std::fs::metadata(&torn_seg).expect("meta").len(),
            8 + first_record_bytes
        );
        // New inserts never clobber the torn segment.
        store
            .insert_profiles(&[(13, Some(profile(3, 0x6300)))])
            .expect("insert");
        assert!(matches!(
            store.lookup_profile(11, 1).expect("lookup"),
            ProfileLookup::Hit(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_held_handle_serves_interleaved_segments_and_a_heal() {
        let (dir, mut store) = tmp_store("handle");
        // Segments A, B, C, each its own file; key k holds address k << 12.
        for key in [1u64, 2, 3] {
            store
                .insert_profiles(&[(key, Some(profile(0, key << 12)))])
                .expect("insert");
        }
        store.flush().expect("flush");

        // B is damaged after open: a one-record file damaged before it
        // would read as a torn tail, a miss.
        let mut store = Store::open(&dir).expect("reopen");
        let mut bytes = std::fs::read(dir.join("seg-0001.bin")).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(dir.join("seg-0001.bin"), &bytes).expect("damage B");
        let addr_of =
            |store: &mut Store, key: u64| match store.lookup_profile(key, 0).expect("lookup") {
                ProfileLookup::Hit(p) => Some(p.accesses[0].addr),
                ProfileLookup::Damaged => None,
                other => panic!("key {key}: {other:?}"),
            };
        let got: Vec<_> = [1, 2, 1, 3, 2]
            .iter()
            .map(|k| addr_of(&mut store, *k))
            .collect();
        assert_eq!(
            got,
            [Some(1 << 12), None, Some(1 << 12), Some(3 << 12), None]
        );
        // The heal lands in a new segment while C's handle is the one held.
        store
            .insert_profiles(&[(2, Some(profile(0, 2 << 12)))])
            .expect("heal");
        assert_eq!(store.records_healed, 1);
        assert!(
            dir.join("seg-0003.bin").exists(),
            "a heal never rewrites seg-0001"
        );
        let got: Vec<_> = [3, 2, 1, 2]
            .iter()
            .map(|k| addr_of(&mut store, *k))
            .collect();
        assert_eq!(
            got,
            [Some(3 << 12), Some(2 << 12), Some(1 << 12), Some(2 << 12)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_read_injection_degrades_to_damaged() {
        let (dir, mut store) = tmp_store("shortread");
        store
            .insert_profiles(&[(21, Some(profile(0, 0x7000)))])
            .expect("insert");
        let mut plan = DiskFaults::default();
        plan.short_read_keys.insert(21);
        store.set_fault_plan(plan);
        assert_eq!(
            store.lookup_profile(21, 0).expect("lookup"),
            ProfileLookup::Damaged
        );
        assert_eq!(store.records_damaged, 1);
        store.set_fault_plan(DiskFaults::default());
        assert!(matches!(
            store.lookup_profile(21, 0).expect("lookup"),
            ProfileLookup::Hit(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flip_after_write_fault_corrupts_the_new_segment() {
        let (dir, mut store) = tmp_store("flipfault");
        store.set_fault_plan(DiskFaults {
            // Offset 20 is the CRC word of the first record.
            flip_after_write: Some((20, 0xFF)),
            ..Default::default()
        });
        store
            .insert_profiles(&[
                (31, Some(profile(0, 0x8000))),
                (32, Some(profile(0, 0x8100))),
            ])
            .expect("insert");
        store.flush().expect("flush");
        // The lookup that serves the record checksums it: the CRC catches
        // the flip (of a record that is not its file's last, so open's
        // torn-tail rule leaves it in place).
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(
            store.lookup_profile(31, 0).expect("lookup"),
            ProfileLookup::Damaged
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_plan_is_empty_and_one_shots_disarm() {
        let (dir, mut store) = tmp_store("oneshot");
        assert!(store.fault.is_empty());
        store.set_fault_plan(DiskFaults {
            torn_write_after: Some(5),
            flip_after_write: Some((8, 0x01)),
            short_read_keys: BTreeSet::from([42]),
            ..DiskFaults::default()
        });
        let one = |key: u64| [(key, Some(profile(0, key << 12)))];
        assert!(matches!(
            store.insert_profiles(&one(41)),
            Err(Error::Injected(_))
        ));
        store
            .insert_profiles(&one(41))
            .expect("the tear is spent; the flip fires");
        store
            .insert_profiles(&[one(42)[0].clone(), one(43)[0].clone()])
            .expect("nothing left to fire");
        assert_eq!(hit(&mut store, 42), None);
        assert_eq!(hit(&mut store, 43), Some(profile(0, 43 << 12)));
        assert_eq!(hit(&mut store, 42), None, "short reads persist");
        assert_eq!(
            store.fault_fired(),
            ["disk.torn", "disk.flip", "disk.short", "disk.short"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nth_read_fault_fires_once_at_the_exact_ordinal() {
        let (dir, mut store) = tmp_store("nth");
        let batch: Vec<_> = (10..13u64)
            .map(|k| (k, Some(profile(0, k << 12))))
            .collect();
        store.insert_profiles(&batch).expect("insert");
        store.set_fault_plan(DiskFaults {
            short_read_nth: Some(3),
            ..DiskFaults::default()
        });
        assert!(hit(&mut store, 10).is_some(), "read 1");
        assert!(hit(&mut store, 11).is_some(), "read 2");
        assert!(
            hit(&mut store, 12).is_none(),
            "read 3 fires whatever the key"
        );
        assert!(hit(&mut store, 12).is_some(), "read 4 does not");
        assert_eq!(store.fault_fired(), ["disk.short"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_chaos_grammars_disk_plane_arms_the_store() {
        let spec = snowboard::ChaosPlan::parse_spec("disk:torn=20;disk:shortn=1").unwrap();
        let (dir, mut store) = tmp_store("grammar");
        store.set_fault_plan(spec.disk);
        assert!(store
            .insert_profiles(&[(31, Some(profile(0, 0x8000)))])
            .is_err());
        store
            .insert_profiles(&[(31, Some(profile(0, 0x8000)))])
            .expect("insert");
        assert_eq!(
            hit(&mut store, 31),
            None,
            "the first record read comes up short"
        );
        assert_eq!(store.fault_fired(), ["disk.torn", "disk.short"]);
        std::fs::remove_dir_all(&dir).ok();
    }
    /// A profile whose encoding is about `accesses * 10` bytes.
    fn wide_profile(salt: u64, accesses: u64) -> SeqProfile {
        let mut p = profile(0, salt);
        let first = p.accesses[0].clone();
        p.accesses = (0..accesses)
            .map(|i| Access {
                seq: i,
                addr: salt.wrapping_mul(i + 1) << 3,
                value: salt.wrapping_mul(i),
                ..first.clone()
            })
            .collect();
        p
    }

    /// Every record of the profile segment at `path`, checksummed.
    fn scan_of(path: &Path) -> segment::SegmentScan {
        segment::scan(
            &segment::read(path).expect("read"),
            SegmentKind::Profile,
            true,
        )
    }

    fn hit(store: &mut Store, key: u64) -> Option<SeqProfile> {
        match store.lookup_profile(key, 0).expect("lookup") {
            ProfileLookup::Hit(p) => Some(p),
            ProfileLookup::Damaged => None,
            other => panic!("key {key}: {other:?}"),
        }
    }

    #[test]
    fn in_order_lookups_read_each_segment_once_and_a_reopen_checksums_only_last_records() {
        let (dir, mut store) = tmp_store("counts");
        let key = |seg: u64, i: u64| (seg * 100 + i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for seg in 0..25 {
            let batch: Vec<_> = (0..100)
                .map(|i| (key(seg, i), Some(wide_profile(key(seg, i), 25))))
                .collect();
            store.insert_profiles(&batch).expect("insert");
        }
        let corpus: Vec<u64> = (0..25)
            .flat_map(|seg| (0..100).map(move |i| key(seg, i)))
            .collect();
        store
            .save_pmcs(
                &corpus,
                &PmcSet {
                    pmcs: vec![sample_pmc()],
                },
            )
            .expect("save");
        store.flush().expect("flush");
        drop(store);

        // What a scan that trusts nobody checksums, and the slice of it
        // `open` has to: the last record of each of the 26 files.
        let (mut every_record, mut last_records) = (0, 0);
        for (_, kind, name) in list_segment_files(&dir).expect("list") {
            let bytes = segment::read(&dir.join(name)).expect("read");
            let scan = segment::scan(&bytes, kind, true);
            assert!(
                scan.file_len < 64 * 1024,
                "one window holds a segment of this test"
            );
            every_record += scan.crc_bytes;
            last_records += segment::HEADER_LEN + scan.records.last().expect("records").len;
        }
        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(store.open_crc_bytes, last_records);
        assert!(
            every_record > 20 * last_records,
            "{every_record} bytes on disk, {last_records} checksummed"
        );
        assert_eq!(
            Store::open_checking_every_record(&dir)
                .expect("reopen")
                .open_crc_bytes,
            every_record
        );

        for k in &corpus {
            assert_eq!(hit(&mut store, *k), Some(wide_profile(*k, 25)));
        }
        assert_eq!((store.profile_hits, store.segment_reads), (2_500, 25));
        assert!(matches!(
            store.lookup_pmcs(&corpus).expect("pmcs"),
            PmcLookup::Exact(_)
        ));
        assert_eq!(store.segment_reads, 26);
        // Out of order costs a read per change of direction, never a wrong answer.
        for k in corpus.iter().rev().step_by(7) {
            assert_eq!(hit(&mut store, *k), Some(wide_profile(*k, 25)));
        }
        assert_eq!(store.records_damaged, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_window_serves_records_larger_than_it_straddling_it_and_at_the_end_of_a_file() {
        let (dir, mut store) = tmp_store("window");
        // seg-0000: 300 records of ~400 bytes — two windows' worth, so some
        // record straddles the first window's end. seg-0001: a record larger
        // than a window between two small ones. seg-0002: one small file.
        let long: Vec<_> = (1..=300u64)
            .map(|k| (k, Some(wide_profile(k, 40))))
            .collect();
        store.insert_profiles(&long).expect("insert");
        let big = [
            (1001, Some(wide_profile(1, 3))),
            (1002, Some(wide_profile(2, 9_000))),
            (1003, Some(wide_profile(3, 3))),
        ];
        store.insert_profiles(&big).expect("insert");
        store
            .insert_profiles(&[
                (2001, Some(wide_profile(4, 3))),
                (2002, Some(wide_profile(5, 3))),
            ])
            .expect("insert");
        store.flush().expect("flush");
        let mut store = Store::open(&dir).expect("reopen");

        let scan = scan_of(&dir.join("seg-0000.bin"));
        let window_end = 8 + 64 * 1024;
        assert!(scan.file_len > window_end && scan.file_len < 2 * 64 * 1024);
        assert!(
            scan.records
                .iter()
                .any(|r| r.offset < window_end && r.offset + 16 + r.len > window_end),
            "a straddler"
        );
        for (k, p) in &long {
            assert_eq!(hit(&mut store, *k).as_ref(), p.as_ref(), "key {k}");
        }
        assert_eq!(
            store.segment_reads, 2,
            "the straddler starts the second window"
        );

        let scan = scan_of(&dir.join("seg-0001.bin"));
        assert!(
            scan.records[1].len > 64 * 1024,
            "{} bytes",
            scan.records[1].len
        );
        for (k, p) in &big {
            assert_eq!(hit(&mut store, *k).as_ref(), p.as_ref(), "key {k}");
        }
        // One read holds the first record and a window of the second's
        // head, one the whole second, one the third.
        assert_eq!(store.segment_reads, 2 + 3);
        assert_eq!(
            hit(&mut store, 1002),
            big[1].1,
            "the big record again, after a smaller window"
        );

        // The last record of a short file: the window stops at EOF. Going
        // back to the first moves the window, not the answer.
        let before = store.segment_reads;
        assert_eq!(hit(&mut store, 2002), Some(wide_profile(5, 3)));
        assert_eq!(hit(&mut store, 2001), Some(wide_profile(4, 3)));
        assert_eq!(hit(&mut store, 2002), Some(wide_profile(5, 3)));
        assert_eq!(
            store.segment_reads - before,
            2,
            "the window at the first record holds the second"
        );
        assert_eq!(store.records_damaged, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_cut_short_after_open_is_damage_counted_once() {
        let (dir, mut store) = tmp_store("cutafter");
        let batch: Vec<_> = (1..=3u64).map(|k| (k, Some(wide_profile(k, 10)))).collect();
        store.insert_profiles(&batch).expect("insert");
        store.flush().expect("flush");
        let mut store = Store::open(&dir).expect("reopen");
        let seg = dir.join("seg-0000.bin");
        let len = std::fs::metadata(&seg).expect("meta").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open")
            .set_len(len - 5)
            .expect("cut");
        assert_eq!(hit(&mut store, 3), None, "the record the cut runs through");
        assert_eq!(
            (
                store.records_damaged,
                store.profile_misses,
                store.segment_reads
            ),
            (1, 1, 1)
        );
        assert_eq!(
            hit(&mut store, 1),
            Some(wide_profile(1, 10)),
            "records before the cut still serve"
        );
        assert_eq!(hit(&mut store, 2), Some(wide_profile(2, 10)));
        assert_eq!(store.records_damaged, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_short_read_is_injected_into_a_filled_window_too() {
        let (dir, mut store) = tmp_store("shortwindow");
        store
            .insert_profiles(&[(1, Some(profile(0, 0x100))), (2, Some(profile(0, 0x200)))])
            .expect("insert");
        assert!(hit(&mut store, 1).is_some());
        assert_eq!(store.segment_reads, 1, "the window now holds both records");
        let mut plan = DiskFaults::default();
        plan.short_read_keys.insert(2);
        store.set_fault_plan(plan);
        assert_eq!(hit(&mut store, 2), None);
        assert!(hit(&mut store, 1).is_some());
        // The nth-read fault counts record reads, not window fills.
        store.set_fault_plan(DiskFaults {
            short_read_nth: Some(2),
            ..DiskFaults::default()
        });
        assert!(hit(&mut store, 1).is_some());
        assert_eq!(
            hit(&mut store, 1),
            None,
            "the second record read, out of a window that has it"
        );
        assert_eq!(store.fault_fired(), ["disk.short"]);
        store.set_fault_plan(DiskFaults::default());
        assert!(hit(&mut store, 2).is_some());
        assert_eq!((store.records_damaged, store.segment_reads), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Everything observable about a store after `open`: what it knows,
    /// what is on disk, and what a lookup of every key then answers.
    fn observe(mut store: Store, keys: &[u64], corpora: &[&[u64]]) -> String {
        let on_disk = files_of(store.root());
        let known = format!(
            "{:?} {:?} {:?} {}",
            store.last_run, store.profiles, store.pmcs, store.next_segment
        );
        let mut lookups: Vec<String> = keys
            .iter()
            .map(|k| format!("{:?}", store.lookup_profile(*k, 0).expect("lookup")))
            .collect();
        lookups.extend(
            corpora
                .iter()
                .map(|c| format!("{:?}", store.lookup_pmcs(c).expect("lookup"))),
        );
        let counters = (
            store.profile_hits,
            store.profile_misses,
            store.records_damaged,
            store.records_healed,
        );
        format!("{known}\n{on_disk:?}\n{lookups:?}\n{counters:?}")
    }

    /// Materializes `files` twice and opens one copy under each CRC rule.
    fn both_opens_agree(files: &[(String, Vec<u8>)], what: &str) {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let copies = ["lazy", "full"].map(|rule| {
            let dir = std::env::temp_dir().join(format!(
                "sb-store-diff-{rule}-{case}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("mkdir");
            for (name, bytes) in files {
                std::fs::write(dir.join(name), bytes).expect("write");
            }
            dir
        });
        let keys = [1, 2, 3, 4, 5];
        let corpora: [&[u64]; 2] = [&[1, 2, 3], &[1, 2, 3, 4]];
        let lazy = Store::open(&copies[0]).expect("open");
        let full = Store::open_checking_every_record(&copies[1]).expect("open");
        assert!(lazy.open_crc_bytes <= full.open_crc_bytes, "{what}");
        assert_eq!(
            observe(lazy, &keys, &corpora),
            observe(full, &keys, &corpora),
            "{what}"
        );
        for dir in copies {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("entry"))
            .map(|e| {
                (
                    e.file_name().into_string().expect("utf-8"),
                    std::fs::read(e.path()).expect("read"),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn open_acts_the_same_whether_it_checksums_every_record_or_only_those_it_acts_on() {
        // The store `tests/tests/store_damage.rs` starts from: three
        // profiles in one segment, one PMC set, flushed.
        let (dir, mut store) = tmp_store("diffbase");
        let three: Vec<_> = (1..=3u64)
            .map(|k| (k, Some(profile(k as u32, k << 12))))
            .collect();
        store.insert_profiles(&three).expect("insert");
        store
            .save_pmcs(
                &[1, 2, 3],
                &PmcSet {
                    pmcs: vec![sample_pmc()],
                },
            )
            .expect("save");
        store.flush().expect("flush");
        drop(store);
        let base = files_of(&dir);
        both_opens_agree(&base, "pristine");

        // Every byte of either segment file flipped; either file, or the
        // manifest, gone.
        for (i, (name, bytes)) in base.iter().enumerate() {
            let without: Vec<_> = base.iter().filter(|(n, _)| n != name).cloned().collect();
            both_opens_agree(&without, &format!("{name} missing"));
            if !name.ends_with(".bin") {
                continue;
            }
            for at in 0..bytes.len() {
                let mut files = base.clone();
                files[i].1[at] ^= 0xA5;
                both_opens_agree(&files, &format!("{name} byte {at} flipped"));
                // The same flip seen by a store whose manifest is gone: the
                // segments index the same records without it.
                files.retain(|(n, _)| n.ends_with(".bin"));
                both_opens_agree(&files, &format!("{name} byte {at} flipped, no manifest"));
            }
        }

        // A fourth record torn at every boundary, and whole (never
        // flushed): the store a killed insert leaves behind.
        let mut probe = Vec::new();
        codec::encode_profile(&profile(4, 4 << 12), &mut probe);
        for cut in 0..=16 + probe.len() as u64 + 1 {
            let (torn_dir, _) = tmp_store("difftorn");
            for (name, bytes) in &base {
                std::fs::write(torn_dir.join(name), bytes).expect("write");
            }
            let mut store = Store::open(&torn_dir).expect("open");
            store.set_fault_plan(DiskFaults {
                torn_write_after: Some(cut),
                ..Default::default()
            });
            let _ = store.insert_profiles(&[
                (4, Some(profile(4, 4 << 12))),
                (5, Some(profile(5, 5 << 12))),
            ]);
            drop(store);
            both_opens_agree(
                &files_of(&torn_dir),
                &format!("insert torn after {cut} bytes"),
            );
            std::fs::remove_dir_all(&torn_dir).ok();
        }

        // A healed key: damaged in seg-0000, rewritten into a new segment.
        // Then the same files under the manifest from before the heal (a
        // crash before the flush): the counters are the only difference.
        let mut damaged = base.clone();
        let seg = damaged
            .iter_mut()
            .find(|(n, _)| n == "seg-0000.bin")
            .expect("segment");
        seg.1[30] ^= 0x01;
        for (name, bytes) in &damaged {
            std::fs::write(dir.join(name), bytes).expect("write");
        }
        let mut store = Store::open(&dir).expect("open");
        let to_heal: Vec<_> = three
            .iter()
            .filter(|(k, _)| hit(&mut store, *k).is_none())
            .cloned()
            .collect();
        assert!(!to_heal.is_empty());
        store.insert_profiles(&to_heal).expect("heal");
        store.flush().expect("flush");
        drop(store);
        let healed = files_of(&dir);
        both_opens_agree(&healed, "healed key");
        // Open checksums by position, not by key: of seg-0000 only the last
        // record is read, so the stale copy of the healed key and key 2's
        // go unread. The stale copy is never served either: the heal in
        // seg-0001 is the later record of its key.
        assert_eq!(to_heal[0].0, 1, "byte 30 is in the first record");
        let scan = scan_of(&dir.join("seg-0000.bin"));
        assert_eq!(
            Store::open_checking_every_record(&dir)
                .expect("open")
                .open_crc_bytes
                - Store::open(&dir).expect("open").open_crc_bytes,
            2 * segment::HEADER_LEN + scan.records[0].len + scan.records[1].len
        );
        let mut stale = healed.clone();
        let manifest = stale
            .iter_mut()
            .find(|(n, _)| n == "manifest.json")
            .expect("manifest");
        manifest.1 = base
            .iter()
            .find(|(n, _)| n == "manifest.json")
            .expect("manifest")
            .1
            .clone();
        both_opens_agree(&stale, "stale manifest");
        std::fs::remove_dir_all(&dir).ok();
    }
}
