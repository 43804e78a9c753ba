//! The record framing under the campaign checkpoint and the fleet worker's
//! result spool, and the typed records a checkpoint log holds.
//!
//! Both files are the same primitive — [`FrameLog`], an append-only file of
//! [`sb_obs::frame`] frames with torn-tail truncation at open: the frame
//! the store's segment records use, without their key prefix.
//!
//! # On-disk format
//!
//! ```text
//! [magic "SBWAL001" 8B] ( [len u32 LE] [crc u32 LE] [payload len B] )*
//! ```
//!
//! `crc` is the CRC32C of `len‖payload`. A file is always read whole, so a
//! record is bounded by the bytes left, not by a cap of its own. An append
//! is written before the event it records is acted on, so a `kill -9` can
//! lose at most the record being appended — which the next reader discards
//! cleanly, leaving the previous state.
//!
//! Payloads are single-line JSON objects. A checkpoint log
//! ([`crate::checkpoint`]) starts with a campaign header and then holds
//! [`JournalRecord`]s (verdicts, lease grants, lease releases); the worker
//! spool stores rendered [`crate::protocol::JoinMsg`] frames verbatim. Any
//! damage (flipped byte, truncation) ends the intact prefix and is
//! *counted*, never a panic.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sb_obs::frame;

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::checkpoint::{
    outcome_from_json, outcome_to_json, quarantine_from_json, quarantine_to_json, req_u64,
    req_uints,
};
use crate::json::{self, Json};

/// Log file magic (8 bytes, versioned).
pub const MAGIC: &[u8; 8] = b"SBWAL001";

/// An append-only log of CRC32C-framed string records.
///
/// Open-time recovery is physical: the first record whose header is
/// short, whose declared length overruns the file, or whose CRC disagrees
/// marks the damage point; everything from there on is truncated away and
/// counted, and appends continue at the cut.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
    path: PathBuf,
}

/// What [`FrameLog::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The log, positioned for appends.
    pub log: FrameLog,
    /// Every intact record's payload, in append order.
    pub records: Vec<String>,
    /// 1 if a damaged/torn suffix (or a foreign file) was discarded, else
    /// 0. (At most one cut is possible: everything after the first bad
    /// frame goes.)
    pub damaged: u64,
}

impl FrameLog {
    /// Creates (or truncates) the log at `path` and writes the magic.
    pub fn create(path: &Path) -> io::Result<FrameLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.flush()?;
        Ok(FrameLog {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens the existing log at `path` for appends, reading nothing.
    pub(crate) fn append_to(path: &Path) -> io::Result<FrameLog> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(FrameLog {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens the log at `path` (creating it if absent), replays every
    /// intact record, and truncates any damaged or torn suffix. A file
    /// without the magic is foreign: it is started over, never replayed.
    pub fn open(path: &Path) -> io::Result<Recovered> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let log = |file| FrameLog {
            file,
            path: path.to_path_buf(),
        };
        let Some(frames) = decode(&bytes) else {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.flush()?;
            let damaged = u64::from(!bytes.is_empty());
            return Ok(Recovered {
                log: log(file),
                records: Vec::new(),
                damaged,
            });
        };
        let end = frames.last().map_or(MAGIC.len(), |f| f.1);
        if end < bytes.len() {
            // Physically cut the damage off so the next append starts at a
            // clean boundary.
            file.set_len(end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = frames
            .iter()
            .map(|(payload, _)| (*payload).to_owned())
            .collect();
        Ok(Recovered {
            log: log(file),
            records,
            damaged: u64::from(end < bytes.len()),
        })
    }

    /// Appends one record and flushes it to the OS. Called before the
    /// event it records is acted on.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        self.file.write_all(&framed(Vec::new(), [payload])?)?;
        self.file.flush()
    }

    /// Durably syncs appended records to disk (per append we only flush: a
    /// machine crash can lose what was not synced, a process kill cannot).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Truncates the log back to an empty record stream (magic only).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// The log's path (for operator-facing messages).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// `out` with the frames of `records` appended.
fn framed<'a>(mut out: Vec<u8>, records: impl IntoIterator<Item = &'a str>) -> io::Result<Vec<u8>> {
    for record in records {
        frame::push(&mut out, &[], record.as_bytes())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record exceeds 4 GiB"))?;
    }
    Ok(out)
}

/// A whole log file holding `records`, magic first.
pub(crate) fn image<'a>(records: impl IntoIterator<Item = &'a str>) -> io::Result<Vec<u8>> {
    framed(MAGIC.to_vec(), records)
}

/// Decodes a log read whole: every intact record's payload with the offset
/// just past it, in file order, up to the first damaged frame. `None` when
/// `bytes` does not start with the magic. Reads nothing but `bytes`.
pub(crate) fn decode(bytes: &[u8]) -> Option<Vec<(&str, usize)>> {
    if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return None;
    }
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    // Damage — a short header, a length past the end, a CRC mismatch, a
    // non-UTF-8 payload — ends the intact prefix.
    while let Some(f) = frame::split(&bytes[pos..], 0).filter(frame::Frame::intact) {
        let Ok(payload) = std::str::from_utf8(f.payload) else {
            break;
        };
        pos += f.end;
        frames.push((payload, pos));
    }
    Some(frames)
}

/// One typed checkpoint-log record after the header.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A lease was granted (logged *before* the lease frame is sent).
    Lease {
        /// Lease id.
        lease: u64,
        /// Holder's session token.
        session: u64,
        /// Leased campaign job indices.
        jobs: Vec<usize>,
    },
    /// A completed result was delivered (logged *before* it is merged and
    /// before any ack can reach the worker).
    Done {
        /// Sender's session token (0: no session).
        session: u64,
        /// Sender's per-session sequence number (0: none).
        seq: u64,
        /// Campaign job index.
        job: usize,
        /// The verdict.
        outcome: PmcTestOutcome,
    },
    /// A quarantine verdict was delivered.
    Quarantine {
        /// Sender's session token (0: no session).
        session: u64,
        /// Sender's per-session sequence number (0: none).
        seq: u64,
        /// The quarantine record (carries its own job index).
        record: QuarantineRecord,
    },
    /// A lease was reclaimed (expiry, eviction, or drain) and its
    /// unfinished jobs went back to pending.
    Release {
        /// Lease id.
        lease: u64,
    },
}

/// One record as a JSON line: `rec` names the kind, `fields` follow.
fn line(kind: &str, fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("rec".to_string(), Json::Str(kind.to_owned()))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(all).render()
}

/// A verdict's line: `kind` with the sender's `session` and `seq`, and the
/// verdict object under `key`.
fn verdict(kind: &str, session: u64, seq: u64, key: &str, body: Json) -> String {
    line(
        kind,
        vec![
            ("session", Json::U64(session)),
            ("seq", Json::U64(seq)),
            (key, body),
        ],
    )
}

/// The `done` line of `job`'s outcome.
pub(crate) fn done_line(session: u64, seq: u64, job: usize, outcome: &PmcTestOutcome) -> String {
    verdict(
        "done",
        session,
        seq,
        "outcome",
        outcome_to_json(job, outcome),
    )
}

/// The `quarantine` line of `record`.
pub(crate) fn quarantine_line(session: u64, seq: u64, record: &QuarantineRecord) -> String {
    verdict(
        "quarantine",
        session,
        seq,
        "record",
        quarantine_to_json(record),
    )
}

impl JournalRecord {
    /// Renders the record as one JSON line.
    pub fn render(&self) -> String {
        match self {
            JournalRecord::Lease {
                lease,
                session,
                jobs,
            } => line(
                "lease",
                vec![
                    ("lease", Json::U64(*lease)),
                    ("session", Json::U64(*session)),
                    (
                        "jobs",
                        Json::Arr(jobs.iter().map(|j| Json::U64(*j as u64)).collect()),
                    ),
                ],
            ),
            JournalRecord::Done {
                session,
                seq,
                job,
                outcome,
            } => done_line(*session, *seq, *job, outcome),
            JournalRecord::Quarantine {
                session,
                seq,
                record,
            } => quarantine_line(*session, *seq, record),
            JournalRecord::Release { lease } => line("release", vec![("lease", Json::U64(*lease))]),
        }
    }

    /// Parses one record line.
    pub fn parse(line: &str) -> Result<JournalRecord, String> {
        let doc = json::parse(line)?;
        let kind = doc
            .get("rec")
            .and_then(Json::as_str)
            .ok_or("journal record without 'rec' discriminator")?;
        match kind {
            "lease" => Ok(JournalRecord::Lease {
                lease: req_u64(&doc, "lease")?,
                session: req_u64(&doc, "session")?,
                jobs: req_uints(&doc, "jobs")?,
            }),
            "done" => {
                let (job, outcome) =
                    outcome_from_json(doc.get("outcome").ok_or("done record without outcome")?)?;
                Ok(JournalRecord::Done {
                    session: req_u64(&doc, "session")?,
                    seq: req_u64(&doc, "seq")?,
                    job,
                    outcome,
                })
            }
            "quarantine" => Ok(JournalRecord::Quarantine {
                session: req_u64(&doc, "session")?,
                seq: req_u64(&doc, "seq")?,
                record: quarantine_from_json(
                    doc.get("record")
                        .ok_or("quarantine record without record")?,
                )?,
            }),
            "release" => Ok(JournalRecord::Release {
                lease: req_u64(&doc, "lease")?,
            }),
            other => Err(format!("unknown journal record '{other}'")),
        }
    }
}

/// An outstanding lease reconstructed from a checkpoint log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayLease {
    /// Lease id.
    pub lease: u64,
    /// Holder's session token.
    pub session: u64,
    /// The leased campaign job indices as granted.
    pub jobs: Vec<usize>,
}

/// What a resume recovers from a checkpoint log besides its verdicts.
#[derive(Debug, Default, PartialEq)]
pub struct Replay {
    /// Leases granted but never released, in grant order. Jobs already
    /// resolved by a logged verdict still appear here; the caller prunes
    /// against coverage.
    pub leases: Vec<ReplayLease>,
    /// Per-session highest logged result sequence number.
    pub acked: std::collections::BTreeMap<u64, u64>,
    /// Verdict records replayed (duplicates included).
    pub verdicts: u64,
    /// 1 if a damaged suffix was cut off, else 0.
    pub damaged: u64,
}

/// The path a checkpoint's write-ahead journal had before the checkpoint
/// became the log itself: the checkpoint file name with `.wal` appended
/// (`sb-fleet.json` → `sb-fleet.json.wal`). Only clean-up code still
/// names it.
pub fn journal_path_for(checkpoint: &Path) -> PathBuf {
    let mut os = checkpoint.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;

    fn dir(tag: &str) -> proptest::ScratchDir {
        proptest::ScratchDir::new(&format!("journal-{tag}"))
    }

    fn outcome(job: usize) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: Some(job as u32),
            pair: (1, 2),
            trials_run: 8,
            exercised: true,
            findings: vec![],
            steps: 100 + job as u64,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    fn quarantine(job: usize) -> QuarantineRecord {
        QuarantineRecord {
            job,
            pmc: Some(3),
            attempts: 2,
            kind: FailureKind::Crash,
            chain: vec!["worker died".into()],
        }
    }

    #[test]
    fn frame_log_round_trips_and_survives_reopen() {
        let d = dir("roundtrip");
        let path = d.join("log.wal");
        let mut log = FrameLog::create(&path).unwrap();
        log.append("alpha").unwrap();
        log.append("").unwrap();
        log.append("payload\nwith\nnewlines").unwrap();
        drop(log);
        let r = FrameLog::open(&path).unwrap();
        assert_eq!(r.records, vec!["alpha", "", "payload\nwith\nnewlines"]);
        assert_eq!(r.damaged, 0);
        // `image` writes what the appends wrote.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            image(["alpha", "", "payload\nwith\nnewlines"]).unwrap(),
            bytes
        );
        let mut log = FrameLog::append_to(&path).unwrap();
        log.append("more").unwrap();
        assert_eq!(FrameLog::open(&path).unwrap().records.len(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted_once() {
        let d = dir("torn");
        let path = d.join("log.wal");
        let mut log = FrameLog::create(&path).unwrap();
        log.append("kept").unwrap();
        log.append("doomed").unwrap();
        drop(log);
        // Cut the last record mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let r = FrameLog::open(&path).unwrap();
        assert_eq!(r.records, vec!["kept"]);
        assert_eq!(r.damaged, 1);
        // The cut is physical: appends after recovery read back cleanly.
        let mut log = r.log;
        log.append("after").unwrap();
        drop(log);
        let r = FrameLog::open(&path).unwrap();
        assert_eq!(r.records, vec!["kept", "after"]);
        assert_eq!(r.damaged, 0);
    }

    #[test]
    fn flipped_byte_drops_the_damaged_suffix() {
        let d = dir("flip");
        let path = d.join("log.wal");
        let mut log = FrameLog::create(&path).unwrap();
        log.append("first").unwrap();
        log.append("second").unwrap();
        log.append("third").unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let pos = MAGIC.len() + 8 + 5 + 8 + 2;
        bytes[pos] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = FrameLog::open(&path).unwrap();
        assert_eq!(r.records, vec!["first"]);
        assert_eq!(r.damaged, 1);
    }

    #[test]
    fn foreign_file_is_discarded_not_replayed() {
        let d = dir("foreign");
        let path = d.join("log.wal");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let r = FrameLog::open(&path).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.damaged, 1);
        // And it is now a valid empty log.
        drop(r.log);
        let r = FrameLog::open(&path).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.damaged, 0);
    }

    #[test]
    fn a_record_is_bounded_by_the_bytes_left_not_a_cap() {
        let big = "x".repeat(3 << 20);
        let bytes = image([big.as_str(), "tail"]).unwrap();
        let frames = decode(&bytes).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0.len(), big.len());
        assert_eq!(frames[1], ("tail", bytes.len()));
        // A length claiming more than is left ends the prefix.
        let mut lying = bytes.clone();
        lying[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&lying).unwrap(), vec![]);
        assert_eq!(decode(b"SBWAL00"), None);
    }

    #[test]
    fn journal_records_round_trip() {
        for rec in [
            JournalRecord::Lease {
                lease: 3,
                session: 9,
                jobs: vec![0, 5, 17],
            },
            JournalRecord::Lease {
                lease: 4,
                session: 9,
                jobs: vec![],
            },
            JournalRecord::Done {
                session: 9,
                seq: 1,
                job: 5,
                outcome: outcome(5),
            },
            JournalRecord::Quarantine {
                session: 9,
                seq: 2,
                record: quarantine(17),
            },
            JournalRecord::Release { lease: 3 },
        ] {
            let line = rec.render();
            assert_eq!(JournalRecord::parse(&line).unwrap(), rec, "line: {line}");
        }
        assert!(JournalRecord::parse("{\"rec\":\"nope\"}").is_err());
        assert!(JournalRecord::parse("{\"rec\":\"meta\",\"seed\":1}").is_err());
        assert!(JournalRecord::parse("{\"seed\":1}").is_err());
        assert!(JournalRecord::parse("not json").is_err());
    }

    #[test]
    fn journal_path_travels_with_the_checkpoint() {
        assert_eq!(
            journal_path_for(Path::new("/tmp/sb-fleet.json")),
            Path::new("/tmp/sb-fleet.json.wal")
        );
    }
}
