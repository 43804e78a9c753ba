//! Write-ahead journal for the fleet coordinator and result spool for
//! fleet workers.
//!
//! The PR 6 fleet checkpointed only *merged results*: a killed coordinator
//! forgot which jobs were out on lease and which results it had received
//! but not yet saved, and a worker that lost the coordinator discarded its
//! completed-but-undelivered verdicts. Both gaps are closed by the same
//! primitive — [`FrameLog`], an append-only file of CRC32C-framed records
//! with torn-tail truncation at open, reusing the checksum discipline of
//! the store segments (PR 4, shared via [`sb_obs::crc`]).
//!
//! # On-disk format
//!
//! ```text
//! [magic "SBWAL001" 8B] ( [len u32 LE] [crc u32 LE] [payload len B] )*
//! ```
//!
//! `crc` is the CRC32C of `len‖payload` (little-endian length bytes
//! followed by the payload), mirroring the store's `key‖len‖payload`
//! discipline minus the key. Every append is written and flushed before
//! the coordinator acknowledges the event it records, so a `kill -9`
//! can lose at most the record being appended — which truncation at the
//! next open discards cleanly, leaving the previous acknowledged state.
//!
//! Payloads are single-line JSON objects. The coordinator journals typed
//! [`JournalRecord`]s (lease grants, result deliveries, lease releases);
//! the worker spool stores rendered [`crate::protocol::JoinMsg`] frames
//! verbatim. [`Journal::open`] replays the record stream into a
//! [`Replay`] — outstanding leases (grants minus releases), replayed
//! results, and per-session ack watermarks — from which `serve --resume`
//! rebuilds the exact lease table. Any damage (flipped byte, truncation)
//! drops the damaged suffix and is *counted*, never a panic: resume then
//! degrades to whatever prefix survived plus the merged checkpoint.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sb_obs::crc::Crc32c;

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::checkpoint::{
    outcome_from_json, outcome_to_json, quarantine_from_json, quarantine_to_json, req_u64,
};
use crate::json::{self, Json};

/// Journal file magic (8 bytes, versioned).
pub const MAGIC: &[u8; 8] = b"SBWAL001";

/// Hard ceiling on one journal record's payload — same bound as a fleet
/// frame, since spooled records *are* fleet frames.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// An append-only log of CRC32C-framed string records.
///
/// Open-time recovery is physical: the first record whose header is
/// short, whose declared length is absurd, or whose CRC disagrees marks
/// the damage point; everything from there on is truncated away and
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
    /// 1 if a damaged/torn suffix was truncated away, else 0. (At most
    /// one cut is possible: everything after the first bad frame goes.)
    pub damaged: u64,
}

impl FrameLog {
    /// Creates (or truncates) the log at `path` and writes the magic.
    pub fn create(path: &Path) -> io::Result<FrameLog> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(MAGIC)?;
        file.flush()?;
        Ok(FrameLog { file, path: path.to_path_buf() })
    }

    /// Opens the log at `path` (creating it if absent), replays every
    /// intact record, and truncates any damaged or torn suffix.
    pub fn open(path: &Path) -> io::Result<Recovered> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            // Fresh file: stamp the magic and report an empty log.
            file.write_all(MAGIC)?;
            file.flush()?;
            return Ok(Recovered {
                log: FrameLog { file, path: path.to_path_buf() },
                records: Vec::new(),
                damaged: 0,
            });
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // Unrecognizable header: treat the whole file as damage and
            // start over. (A foreign or pre-format file must not be
            // silently replayed as campaign state.)
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.flush()?;
            return Ok(Recovered {
                log: FrameLog { file, path: path.to_path_buf() },
                records: Vec::new(),
                damaged: 1,
            });
        }
        let mut records = Vec::new();
        let mut pos = MAGIC.len();
        let mut damaged = 0u64;
        while pos < bytes.len() {
            let Some(rec) = read_record(&bytes, pos) else {
                damaged = 1;
                break;
            };
            let (payload, next) = rec;
            records.push(payload);
            pos = next;
        }
        if pos < bytes.len() || damaged == 1 {
            // Torn tail or mid-record damage: physically cut it off so the
            // next append starts at a clean boundary.
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Recovered { log: FrameLog { file, path: path.to_path_buf() }, records, damaged })
    }

    /// Appends one record and flushes it to the OS. Called before the
    /// event it records is acknowledged.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        let bytes = payload.as_bytes();
        if bytes.len() > MAX_RECORD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal record of {} bytes exceeds {MAX_RECORD_LEN}", bytes.len()),
            ));
        }
        let len = (bytes.len() as u32).to_le_bytes();
        let mut c = Crc32c::new();
        c.update(&len);
        c.update(bytes);
        let crc = c.finish().to_le_bytes();
        let mut frame = Vec::with_capacity(8 + bytes.len());
        frame.extend_from_slice(&len);
        frame.extend_from_slice(&crc);
        frame.extend_from_slice(bytes);
        self.file.write_all(&frame)?;
        self.file.flush()
    }

    /// Durably syncs appended records to disk (used at checkpoint saves;
    /// per-append we only flush, trading a window of OS buffering for
    /// throughput — a machine crash can lose that window, a process kill
    /// cannot).
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

/// Decodes one record at `pos`; `None` on any damage (short header,
/// absurd length, overrun, CRC mismatch, non-UTF-8 payload).
fn read_record(bytes: &[u8], pos: usize) -> Option<(String, usize)> {
    let header_end = pos.checked_add(8)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().ok()?);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let end = header_end.checked_add(len)?;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..end];
    let mut c = Crc32c::new();
    c.update(&bytes[pos..pos + 4]);
    c.update(payload);
    if c.finish() != crc {
        return None;
    }
    Some((String::from_utf8(payload.to_vec()).ok()?, end))
}

/// One typed coordinator journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// First record: binds the journal to one campaign. A journal whose
    /// meta disagrees with the resuming coordinator belongs to some other
    /// run and is discarded (counted as damage) instead of replayed.
    Meta {
        /// Campaign seed.
        seed: u64,
        /// `config_fingerprint` of the campaign-shaping parameters.
        config: u64,
        /// Number of budgeted jobs.
        jobs: u64,
    },
    /// A lease was granted (journaled *before* the lease frame is sent).
    Lease {
        /// Lease id.
        lease: u64,
        /// Holder's session token.
        session: u64,
        /// Leased campaign job indices.
        jobs: Vec<usize>,
    },
    /// A completed result was delivered (journaled *before* it is merged
    /// and before any ack can reach the worker).
    Done {
        /// Sender's session token.
        session: u64,
        /// Sender's per-session sequence number.
        seq: u64,
        /// Campaign job index.
        job: usize,
        /// The verdict.
        outcome: PmcTestOutcome,
    },
    /// A quarantine verdict was delivered.
    Quarantine {
        /// Sender's session token.
        session: u64,
        /// Sender's per-session sequence number.
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

impl JournalRecord {
    /// Renders the record as one JSON line.
    pub fn render(&self) -> String {
        let obj = |kind: &str, mut fields: Vec<(String, Json)>| {
            let mut all = vec![("rec".to_string(), Json::Str(kind.to_owned()))];
            all.append(&mut fields);
            Json::Obj(all).render()
        };
        match self {
            JournalRecord::Meta { seed, config, jobs } => obj(
                "meta",
                vec![
                    ("seed".into(), Json::U64(*seed)),
                    ("config".into(), Json::U64(*config)),
                    ("jobs".into(), Json::U64(*jobs)),
                ],
            ),
            JournalRecord::Lease { lease, session, jobs } => obj(
                "lease",
                vec![
                    ("lease".into(), Json::U64(*lease)),
                    ("session".into(), Json::U64(*session)),
                    (
                        "jobs".into(),
                        Json::Arr(jobs.iter().map(|j| Json::U64(*j as u64)).collect()),
                    ),
                ],
            ),
            JournalRecord::Done { session, seq, job, outcome } => obj(
                "done",
                vec![
                    ("session".into(), Json::U64(*session)),
                    ("seq".into(), Json::U64(*seq)),
                    ("outcome".into(), outcome_to_json(*job, outcome)),
                ],
            ),
            JournalRecord::Quarantine { session, seq, record } => obj(
                "quarantine",
                vec![
                    ("session".into(), Json::U64(*session)),
                    ("seq".into(), Json::U64(*seq)),
                    ("record".into(), quarantine_to_json(record)),
                ],
            ),
            JournalRecord::Release { lease } => {
                obj("release", vec![("lease".into(), Json::U64(*lease))])
            }
        }
    }

    /// Parses one journal line.
    pub fn parse(line: &str) -> Result<JournalRecord, String> {
        let doc = json::parse(line)?;
        let kind = doc
            .get("rec")
            .and_then(Json::as_str)
            .ok_or("journal record without 'rec' discriminator")?;
        match kind {
            "meta" => Ok(JournalRecord::Meta {
                seed: req_u64(&doc, "seed")?,
                config: req_u64(&doc, "config")?,
                jobs: req_u64(&doc, "jobs")?,
            }),
            "lease" => {
                let jobs = doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("lease record without jobs array")?
                    .iter()
                    .map(|j| {
                        j.as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| "non-numeric job in lease record".to_string())
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                Ok(JournalRecord::Lease {
                    lease: req_u64(&doc, "lease")?,
                    session: req_u64(&doc, "session")?,
                    jobs,
                })
            }
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
                    doc.get("record").ok_or("quarantine record without record")?,
                )?,
            }),
            "release" => Ok(JournalRecord::Release { lease: req_u64(&doc, "lease")? }),
            other => Err(format!("unknown journal record '{other}'")),
        }
    }
}

/// One replayed result verdict, in journal (= delivery) order.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayVerdict {
    /// A completed outcome for `job`.
    Done {
        /// Campaign job index.
        job: usize,
        /// The verdict.
        outcome: PmcTestOutcome,
    },
    /// A quarantine verdict.
    Quarantine {
        /// The quarantine record.
        record: QuarantineRecord,
    },
}

/// An outstanding lease reconstructed from the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayLease {
    /// Lease id.
    pub lease: u64,
    /// Holder's session token.
    pub session: u64,
    /// The leased campaign job indices as granted.
    pub jobs: Vec<usize>,
}

/// Everything `serve --resume` reconstructs from the journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Result verdicts in delivery order (the merge is first-wins, so
    /// replaying in order reproduces the uninterrupted merge exactly).
    pub results: Vec<ReplayVerdict>,
    /// Leases granted but never released, in grant order. Jobs already
    /// resolved by a replayed result still appear here; the caller prunes
    /// against coverage.
    pub leases: Vec<ReplayLease>,
    /// Per-session highest journaled result sequence number.
    pub acked: std::collections::BTreeMap<u64, u64>,
    /// Intact records replayed (including meta).
    pub records: u64,
    /// 1 if a damaged suffix (or an unrecognizable/foreign file) was
    /// discarded, else 0.
    pub damaged: u64,
}

/// The coordinator's typed write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    log: FrameLog,
}

impl Journal {
    /// Starts a fresh journal for this campaign, discarding any previous
    /// contents at `path`.
    pub fn create(path: &Path, seed: u64, config: u64, jobs: u64) -> io::Result<Journal> {
        let mut log = FrameLog::create(path)?;
        log.append(&JournalRecord::Meta { seed, config, jobs }.render())?;
        Ok(Journal { log })
    }

    /// Opens the journal at `path` for a resuming coordinator and replays
    /// it. A missing file yields an empty replay; a damaged suffix is
    /// truncated and counted; a journal whose meta does not match this
    /// campaign (or whose records fail to parse) is discarded entirely —
    /// `damaged` is counted and the caller proceeds from the merged
    /// checkpoint alone. Never panics on any file contents.
    pub fn open(path: &Path, seed: u64, config: u64, jobs: u64) -> io::Result<(Journal, Replay)> {
        let recovered = FrameLog::open(path)?;
        let mut replay = Replay { damaged: recovered.damaged, ..Replay::default() };
        let mut log = recovered.log;
        let mut foreign = recovered.records.is_empty();
        let mut parsed = Vec::with_capacity(recovered.records.len());
        for (i, line) in recovered.records.iter().enumerate() {
            match JournalRecord::parse(line) {
                Ok(rec) => {
                    if i == 0 {
                        foreign = rec
                            != JournalRecord::Meta { seed, config, jobs };
                    }
                    parsed.push(rec);
                }
                Err(_) => {
                    // A CRC-intact but unparseable record means the file
                    // is not (this version of) a journal: discard it.
                    foreign = true;
                    break;
                }
            }
        }
        if foreign {
            // Start the journal over, bound to this campaign. Counted as
            // damage when there was anything to discard.
            if !recovered.records.is_empty() {
                replay = Replay { damaged: 1, ..Replay::default() };
            }
            log.reset()?;
            log.append(&JournalRecord::Meta { seed, config, jobs }.render())?;
            return Ok((Journal { log }, replay));
        }
        let mut open_leases: Vec<ReplayLease> = Vec::new();
        for rec in parsed {
            replay.records += 1;
            match rec {
                JournalRecord::Meta { .. } => {}
                JournalRecord::Lease { lease, session, jobs } => {
                    open_leases.push(ReplayLease { lease, session, jobs });
                }
                JournalRecord::Done { session, seq, job, outcome } => {
                    let acked = replay.acked.entry(session).or_insert(0);
                    *acked = (*acked).max(seq);
                    replay.results.push(ReplayVerdict::Done { job, outcome });
                }
                JournalRecord::Quarantine { session, seq, record } => {
                    let acked = replay.acked.entry(session).or_insert(0);
                    *acked = (*acked).max(seq);
                    replay.results.push(ReplayVerdict::Quarantine { record });
                }
                JournalRecord::Release { lease } => {
                    open_leases.retain(|l| l.lease != lease);
                }
            }
        }
        replay.leases = open_leases;
        Ok((Journal { log }, replay))
    }

    /// Appends one record, flushed before the caller acknowledges it.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        self.log.append(&rec.render())
    }

    /// Durably syncs the journal (piggybacked on checkpoint saves).
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

/// The default journal path for a given coordinator checkpoint path:
/// the checkpoint file name with `.wal` appended (`sb-fleet.json` →
/// `sb-fleet.json.wal`), so checkpoint and journal travel together.
pub fn journal_path_for(checkpoint: &Path) -> PathBuf {
    let mut os = checkpoint.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sb-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
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
    fn journal_records_round_trip() {
        for rec in [
            JournalRecord::Meta { seed: 2021, config: u64::MAX, jobs: 60 },
            JournalRecord::Lease { lease: 3, session: 9, jobs: vec![0, 5, 17] },
            JournalRecord::Lease { lease: 4, session: 9, jobs: vec![] },
            JournalRecord::Done { session: 9, seq: 1, job: 5, outcome: outcome(5) },
            JournalRecord::Quarantine { session: 9, seq: 2, record: quarantine(17) },
            JournalRecord::Release { lease: 3 },
        ] {
            let line = rec.render();
            assert_eq!(JournalRecord::parse(&line).unwrap(), rec, "line: {line}");
        }
        assert!(JournalRecord::parse("{\"rec\":\"nope\"}").is_err());
        assert!(JournalRecord::parse("{\"seed\":1}").is_err());
        assert!(JournalRecord::parse("not json").is_err());
    }

    #[test]
    fn replay_rebuilds_outstanding_leases_and_acks() {
        let d = dir("replay");
        let path = d.join("fleet.json.wal");
        let mut j = Journal::create(&path, 2021, 42, 10).unwrap();
        j.append(&JournalRecord::Lease { lease: 1, session: 7, jobs: vec![0, 1] }).unwrap();
        j.append(&JournalRecord::Lease { lease: 2, session: 8, jobs: vec![2, 3] }).unwrap();
        j.append(&JournalRecord::Done { session: 7, seq: 1, job: 0, outcome: outcome(0) })
            .unwrap();
        // Lease 2 expires and its jobs are re-granted to session 7.
        j.append(&JournalRecord::Release { lease: 2 }).unwrap();
        j.append(&JournalRecord::Lease { lease: 3, session: 7, jobs: vec![2, 3] }).unwrap();
        j.append(&JournalRecord::Quarantine { session: 7, seq: 2, record: quarantine(2) })
            .unwrap();
        drop(j);
        let (_j, replay) = Journal::open(&path, 2021, 42, 10).unwrap();
        assert_eq!(replay.damaged, 0);
        assert_eq!(replay.records, 7);
        assert_eq!(replay.results.len(), 2);
        assert_eq!(
            replay.leases,
            vec![
                ReplayLease { lease: 1, session: 7, jobs: vec![0, 1] },
                ReplayLease { lease: 3, session: 7, jobs: vec![2, 3] },
            ]
        );
        assert_eq!(replay.acked.get(&7), Some(&2));
        assert_eq!(replay.acked.get(&8), None);
    }

    #[test]
    fn mismatched_meta_degrades_to_an_empty_replay() {
        let d = dir("meta");
        let path = d.join("fleet.json.wal");
        let mut j = Journal::create(&path, 2021, 42, 10).unwrap();
        j.append(&JournalRecord::Done { session: 7, seq: 1, job: 0, outcome: outcome(0) })
            .unwrap();
        drop(j);
        // Different campaign fingerprint: nothing may be replayed.
        let (_j, replay) = Journal::open(&path, 2021, 43, 10).unwrap();
        assert_eq!(replay.damaged, 1);
        assert!(replay.results.is_empty());
        assert!(replay.leases.is_empty());
        // And the journal was rebound: reopening with the *new* meta is
        // clean and empty.
        let (_j, replay) = Journal::open(&path, 2021, 43, 10).unwrap();
        assert_eq!(replay.damaged, 0);
        assert_eq!(replay.records, 1, "just the fresh meta");
    }

    #[test]
    fn missing_journal_is_a_clean_empty_replay() {
        let d = dir("missing");
        let path = d.join("fleet.json.wal");
        let (_j, replay) = Journal::open(&path, 2021, 42, 10).unwrap();
        assert_eq!(replay.damaged, 0);
        assert_eq!(replay.records, 0);
        assert!(replay.results.is_empty());
    }

    #[test]
    fn journal_path_travels_with_the_checkpoint() {
        assert_eq!(
            journal_path_for(Path::new("/tmp/sb-fleet.json")),
            Path::new("/tmp/sb-fleet.json.wal")
        );
    }
}
