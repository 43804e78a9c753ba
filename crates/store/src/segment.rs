//! Append-only segment files: the store's records, and its only index.
//!
//! One segment file is written per corpus chunk (one `insert_profiles`
//! call) and one per saved PMC set. Each record embeds its content key, so
//! [`scan`] alone tells which key lives where: `Store::open` walks every
//! file in segment-number order and the latest record of a key wins. A
//! [`SegmentReader`] then serves header and payload by address out of a
//! read-ahead window: one positioned read per 64 KiB of in-order lookups,
//! not one per record.
//!
//! Format (`SBSEG002`/`SBPMC003`, the only ones read or written): 8-byte
//! magic, then records that are [`sb_obs::frame`] frames with the content
//! key (`u64 LE`) as their prefix —
//! `[key][len: u32 LE][crc: u32 LE][payload]`, `crc` over
//! `key‖len‖payload`. A PMC file holds one record, keyed by its corpus's
//! `corpus_key`, whose payload is the corpus key list and then the set
//! (`codec::encode_pmc_record`). Any other magic — the checksum-less
//! `SBSEG001`/`SBPMC001` and the list-less `SBPMC002` of earlier stores
//! included — is an unrecognized file: its records read as misses, and
//! a rewrite puts them into a new segment.
//!
//! Writers fsync on [`SegmentWriter::finish`]; [`scan`] classifies a
//! file's valid record prefix so the store can truncate torn tails left by
//! a crash mid-write. It is the one record walker.
//!
//! A record is checksummed ([`sb_obs::crc`]) once when it is written and
//! once by each lookup that serves it. Opening a store checksums only what
//! the torn-tail rule needs: the last record of each file, which for a PMC
//! file is its one record.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use sb_obs::frame;

use crate::Error;

/// Magic prefix of profile segment files.
pub const PROFILE_MAGIC: &[u8; 8] = b"SBSEG002";
/// Magic prefix of PMC-set segment files.
pub const PMC_MAGIC: &[u8; 8] = b"SBPMC003";

/// What a segment file stores; selects which magic is acceptable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Sequential-test profiles (`seg-<n>.bin`).
    Profile,
    /// PMC sets (`pmc-<n>.bin`).
    Pmc,
}

impl SegmentKind {
    /// The magic a file of this kind starts with.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            SegmentKind::Profile => PROFILE_MAGIC,
            SegmentKind::Pmc => PMC_MAGIC,
        }
    }
}

/// Bytes of a record's key prefix.
const KEY_LEN: usize = 8;

/// Record header size: key + len + crc.
pub const HEADER_LEN: u64 = (KEY_LEN + frame::HEADER) as u64;

/// The content key a record's frame carries as its prefix.
fn key_of(prefix: &[u8]) -> u64 {
    u64::from_le_bytes(prefix[..KEY_LEN].try_into().expect("8-byte key"))
}

fn io_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> Error + 'a {
    move |source| Error::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// Writes one segment file. Records accumulate in memory — a
/// segment is one corpus chunk, smaller than the decoded batch its caller
/// holds — and reach the file in a single write on [`SegmentWriter::finish`].
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    /// The record area so far: everything after the magic.
    records: Vec<u8>,
}

impl SegmentWriter {
    /// Creates the file at `path` and writes `magic`, so even a segment
    /// killed before `finish` scans as a recognized, empty file.
    pub fn create(path: &Path, magic: &[u8; 8]) -> Result<SegmentWriter, Error> {
        let mut file = File::create(path).map_err(io_err("create", path))?;
        file.write_all(magic).map_err(io_err("write", path))?;
        Ok(SegmentWriter {
            file,
            path: path.to_path_buf(),
            records: Vec::new(),
        })
    }

    /// Appends one record; returns its `(offset, payload_len)` address.
    pub fn append(&mut self, key: u64, payload: &[u8]) -> Result<(u64, u64), Error> {
        let offset = 8 + self.records.len() as u64;
        frame::push(&mut self.records, &key.to_le_bytes(), payload)
            .map_err(|_| Error::Corrupt("record payload exceeds u32 bytes"))?;
        Ok((offset, payload.len() as u64))
    }

    /// Writes the records, fsyncs, and returns the total file size in
    /// bytes. A finished segment is durable before the caller indexes it.
    pub fn finish(mut self) -> Result<u64, Error> {
        self.file
            .write_all(&self.records)
            .map_err(io_err("write", &self.path))?;
        self.file.sync_all().map_err(io_err("fsync", &self.path))?;
        Ok(8 + self.records.len() as u64)
    }
}

/// Fsyncs a directory so created/renamed entries within it are durable.
/// Best-effort: filesystems that reject directory fsync are tolerated.
pub fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Bytes a [`SegmentReader`] reads ahead. A record larger than this is read
/// whole.
const WINDOW: usize = 64 * 1024;

/// One segment file held open for reads by record address.
///
/// Keeps the bytes of its last positioned read: lookups arrive in the order
/// records were written, so the read that serves one record has usually
/// fetched the next ones too. Holding file bytes across calls is sound
/// because nothing rewrites a segment a reader may have open — see
/// [`crate::Store`], which declares that invariant.
pub struct SegmentReader {
    file: File,
    path: PathBuf,
    /// File length at `open`; a finished segment never grows.
    file_len: u64,
    /// File bytes `[window_at, window_at + window.len())`.
    window: Vec<u8>,
    window_at: u64,
}

impl SegmentReader {
    /// Opens the segment at `path`, whose magic [`scan`] recognized.
    pub fn open(path: &Path) -> Result<SegmentReader, Error> {
        let file = File::open(path).map_err(io_err("open", path))?;
        let file_len = file.metadata().map_err(io_err("stat", path))?.len();
        Ok(SegmentReader {
            file,
            file_len,
            path: path.to_path_buf(),
            window: Vec::new(),
            window_at: 0,
        })
    }

    /// Returns the payload of the record at `(offset, len)`, verifying that
    /// its embedded content key matches `expected_key`, that its length
    /// word matches `len`, and the CRC32C of exactly the bytes returned. A
    /// record outside the window refills it from `offset` with one
    /// positioned read, clamped at EOF and counted in `reads`.
    pub fn read_at(
        &mut self,
        offset: u64,
        len: u64,
        expected_key: u64,
        reads: &mut u64,
    ) -> Result<&[u8], Error> {
        // A record's length word is a u32; anything larger is not a record.
        let total =
            HEADER_LEN as usize + u32::try_from(len).map_err(|_| Error::Truncated)? as usize;
        let end = offset.saturating_add(total as u64);
        if offset < self.window_at || end > self.window_at + self.window.len() as u64 {
            *reads += 1;
            self.fill(offset, total)?;
        }
        let path = &self.path;
        let rec = &self.window[(offset - self.window_at) as usize..][..total];
        let key = key_of(rec);
        if key != expected_key {
            return Err(Error::Format {
                path: path.clone(),
                detail: format!(
                    "key mismatch at offset {offset}: expected {expected_key:#x}, found {key:#x}"
                ),
            });
        }
        let Some(frame) = frame::split(rec, KEY_LEN).filter(|f| f.end == total) else {
            let stored_len = frame::declared_len(rec, KEY_LEN).expect("a whole header");
            return Err(Error::Format {
                path: path.clone(),
                detail: format!("length mismatch at offset {offset}: index says {len}, record says {stored_len}"),
            });
        };
        if !frame.intact() {
            return Err(Error::Format {
                path: path.clone(),
                detail: format!("checksum mismatch for record {key:#x} at offset {offset}"),
            });
        }
        Ok(frame.payload)
    }

    /// Points the window at `offset`: a window's worth of bytes, or `need`
    /// if that is more, or what the file has left. Fewer than `need` is a
    /// failed read, as it was when each record had its own `read_exact`.
    fn fill(&mut self, offset: u64, need: usize) -> Result<(), Error> {
        let left = self
            .file_len
            .saturating_sub(offset)
            .min(need.max(WINDOW) as u64) as usize;
        self.window_at = offset;
        // A record running past the length the file had at `open`, or a
        // file cut short since: an unexpected EOF either way.
        let read = if left < need {
            Err(std::io::ErrorKind::UnexpectedEof.into())
        } else {
            self.window.resize(left, 0);
            self.file.read_exact_at(&mut self.window, offset)
        };
        if read.is_err() {
            self.window.clear();
        }
        read.map_err(io_err("read", &self.path))
    }
}

/// One structurally valid record found by [`scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Embedded content key.
    pub key: u64,
    /// Record offset within the file.
    pub offset: u64,
    /// Payload length.
    pub len: u64,
    /// CRC32C verdict; `None` for a record [`scan`] was not asked to
    /// checksum.
    pub crc_ok: Option<bool>,
}

/// Structural classification of one segment file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentScan {
    /// Whether the file starts with the magic of its kind. An
    /// unrecognized file has no valid prefix at all.
    pub recognized: bool,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Length of the valid record prefix (including the magic). Records
    /// past this point are torn: a partial header, a payload running past
    /// EOF, or a final record whose CRC fails at EOF.
    pub valid_len: u64,
    /// Records within the valid prefix, in file order.
    pub records: Vec<ScannedRecord>,
    /// Record bytes (header and payload) the scan checksummed.
    pub crc_bytes: u64,
}

impl SegmentScan {
    /// Bytes of torn tail past the valid prefix.
    pub fn torn_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }
}

/// Reads a whole segment file for [`scan`].
pub fn read(path: &Path) -> Result<Vec<u8>, Error> {
    std::fs::read(path).map_err(io_err("read", path))
}

/// Walks every record header of a segment file's `bytes`, classifying the
/// valid prefix and any torn tail. Damage is data, not an error.
///
/// Every record is checksummed when `every_record`; otherwise only the
/// last, whose verdict decides whether it is a torn write. A record left
/// unchecked is verified by the lookup that serves it.
pub fn scan(bytes: &[u8], kind: SegmentKind, every_record: bool) -> SegmentScan {
    let file_len = bytes.len() as u64;
    if !bytes.starts_with(kind.magic()) {
        // Unrecognized or truncated magic: no valid prefix at all.
        return SegmentScan {
            recognized: false,
            file_len,
            valid_len: 0,
            records: Vec::new(),
            crc_bytes: 0,
        };
    }
    let mut crc_bytes = 0;
    let mut crc_of = |at: u64| {
        let frame = frame::split(&bytes[at as usize..], KEY_LEN).expect("a scanned record");
        crc_bytes += frame.end as u64;
        Some(frame.intact())
    };
    let mut records = Vec::new();
    let mut pos = 8usize;
    // A short header or a payload running past EOF ends the walk: torn.
    while let Some(frame) = frame::split(&bytes[pos..], KEY_LEN) {
        let mut rec = ScannedRecord {
            key: key_of(frame.prefix),
            offset: pos as u64,
            len: frame.payload.len() as u64,
            crc_ok: None,
        };
        if every_record {
            rec.crc_ok = crc_of(rec.offset);
        }
        records.push(rec);
        pos += frame.end;
    }
    if let Some(last) = records.last_mut() {
        if last.crc_ok.is_none() {
            last.crc_ok = crc_of(last.offset);
        }
        // A final record with a bad CRC that runs to EOF is a torn write
        // whose length field survived: drop it from the valid prefix too.
        if pos == bytes.len() && last.crc_ok == Some(false) {
            pos = last.offset as usize;
            records.pop();
        }
    }
    SegmentScan {
        recognized: true,
        file_len,
        valid_len: pos as u64,
        records,
        crc_bytes,
    }
}

/// Physically truncates the segment at `path` to its valid prefix.
/// Best-effort (a read-only store still opens); returns whether bytes were
/// actually removed.
pub fn truncate_torn_tail(path: &Path, scan: &SegmentScan) -> bool {
    if !scan.recognized || scan.torn_bytes() == 0 {
        return false;
    }
    match std::fs::OpenOptions::new().write(true).open(path) {
        Ok(file) => {
            let ok = file.set_len(scan.valid_len).is_ok();
            if ok {
                let _ = file.sync_all();
            }
            ok
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> proptest::ScratchDir {
        proptest::ScratchDir::new(&format!("store-seg-{tag}"))
    }

    #[test]
    fn records_round_trip_by_address() {
        let dir = tmpdir("rt");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        let (o1, l1) = w.append(0xAAAA, b"first payload").expect("append");
        let (o2, l2) = w.append(0xBBBB, b"second").expect("append");
        let total = w.finish().expect("finish");
        assert_eq!(total, std::fs::metadata(&path).expect("meta").len());
        assert!(scan(&read(&path).expect("scan"), SegmentKind::Profile, true).recognized);
        let (mut r, mut reads) = (SegmentReader::open(&path).expect("open"), 0);
        // One handle and one window serve any order of addresses.
        assert_eq!(
            r.read_at(o2, l2, 0xBBBB, &mut reads).expect("r2"),
            b"second"
        );
        assert_eq!(
            r.read_at(o1, l1, 0xAAAA, &mut reads).expect("r1"),
            b"first payload"
        );
        assert_eq!(
            r.read_at(o2, l2, 0xBBBB, &mut reads).expect("r2"),
            b"second"
        );
    }

    #[test]
    fn wrong_key_or_magic_is_rejected() {
        let dir = tmpdir("bad");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        let (o, l) = w.append(7, b"payload").expect("append");
        let (o2, l2) = w.append(9, b"last").expect("append");
        w.finish().expect("finish");
        let (mut r, mut reads) = (SegmentReader::open(&path).expect("open"), 0);
        assert!(matches!(
            r.read_at(o, l, 8, &mut reads),
            Err(Error::Format { .. })
        ));
        assert!(matches!(
            r.read_at(o, l + 1, 7, &mut reads),
            Err(Error::Format { .. })
        ));
        // A length that runs past the end of the file is a failed read.
        assert!(matches!(
            r.read_at(o2, l2 + 1, 9, &mut reads),
            Err(Error::Io { .. })
        ));
        assert!(matches!(
            r.read_at(o2, u64::MAX, 9, &mut reads),
            Err(Error::Truncated)
        ));
        assert!(
            !scan(&read(&path).expect("scan"), SegmentKind::Pmc, true).recognized,
            "wrong magic"
        );
    }

    #[test]
    fn crc_catches_payload_corruption() {
        let dir = tmpdir("crc");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        let (o, l) = w.append(9, b"checksummed payload").expect("append");
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read");
        let payload_start = (o + 16) as usize;
        bytes[payload_start] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut r = SegmentReader::open(&path).expect("open");
        match r.read_at(o, l, 9, &mut 0) {
            Err(Error::Format { detail, .. }) => assert!(detail.contains("checksum")),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn short_read_injection_reports_truncation() {
        // A read that comes up short: the file loses its last byte after
        // the reader opened it, so the record runs past what is there.
        let dir = tmpdir("short");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        let (o, l) = w.append(5, b"payload").expect("append");
        let total = w.finish().expect("finish");
        let mut r = SegmentReader::open(&path).expect("open");
        let file = std::fs::OpenOptions::new().write(true).open(&path);
        file.expect("open").set_len(total - 1).expect("cut");
        assert!(matches!(r.read_at(o, l, 5, &mut 0), Err(Error::Io { .. })));
        // Reopened, the reader knows the shorter length and refuses the
        // record before it reads.
        let mut r = SegmentReader::open(&path).expect("reopen");
        assert!(matches!(r.read_at(o, l, 5, &mut 0), Err(Error::Io { .. })));
    }

    #[test]
    fn scan_classifies_torn_tails_and_bad_magic() {
        let dir = tmpdir("scan");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        w.append(1, b"first").expect("append");
        let (o2, _) = w.append(2, b"second record").expect("append");
        let total = w.finish().expect("finish");

        let full = scan(&read(&path).expect("scan"), SegmentKind::Profile, true);
        assert!(full.recognized);
        assert_eq!(full.valid_len, total);
        assert_eq!(full.records.len(), 2);
        assert!(full.records.iter().all(|r| r.crc_ok == Some(true)));

        // Cut mid-payload of the second record: torn tail back to o2.
        let bytes = std::fs::read(&path).expect("read");
        for cut in (o2 + 1)..total {
            std::fs::write(&path, &bytes[..cut as usize]).expect("cut");
            let s = scan(&read(&path).expect("scan"), SegmentKind::Profile, true);
            assert_eq!(s.valid_len, o2, "cut at {cut}");
            assert_eq!(s.records.len(), 1);
            assert!(s.torn_bytes() > 0);
            assert!(truncate_torn_tail(&path, &s));
            let healed = scan(&read(&path).expect("rescan"), SegmentKind::Profile, true);
            assert_eq!(healed.torn_bytes(), 0);
            std::fs::write(&path, &bytes).expect("restore");
        }

        // Bad CRC on the final record at EOF is torn too.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).expect("flip");
        let s = scan(&read(&path).expect("scan"), SegmentKind::Profile, true);
        assert_eq!(s.valid_len, o2, "bad CRC at EOF drops the final record");

        // Unrecognized magic — garbage, or the retired checksum-less
        // format — has nothing valid.
        let mut v1 = b"SBSEG001".to_vec();
        v1.extend_from_slice(&bytes[8..]);
        for unrecognized in [b"NOTMAGICxxxx".as_slice(), v1.as_slice()] {
            std::fs::write(&path, unrecognized).expect("garbage");
            let s = scan(&read(&path).expect("scan"), SegmentKind::Profile, true);
            assert_eq!((s.recognized, s.valid_len), (false, 0));
            assert!(
                !truncate_torn_tail(&path, &s),
                "never truncate unrecognized files"
            );
        }
    }

    #[test]
    fn torn_write_injection_persists_exact_prefix() {
        // A kill `cut` bytes into a record leaves the magic plus `cut`
        // bytes; the scan keeps the magic as the valid prefix and nothing
        // past it, and truncation restores exactly that.
        let dir = tmpdir("torn");
        let path = dir.join("seg-0.bin");
        let mut w = SegmentWriter::create(&path, PROFILE_MAGIC).expect("create");
        w.append(3, b"torn-payload..").expect("append");
        let total = w.finish().expect("finish");
        let whole = std::fs::read(&path).expect("read");
        for cut in 0..total - 8 {
            std::fs::write(&path, &whole[..(8 + cut) as usize]).expect("tear");
            let s = scan(&read(&path).expect("scan"), SegmentKind::Profile, true);
            assert_eq!((s.recognized, s.valid_len, s.records.len()), (true, 8, 0));
            assert_eq!(truncate_torn_tail(&path, &s), cut > 0, "cut {cut}");
            assert_eq!(read(&path).expect("read").len(), 8, "magic only");
        }
    }
}
