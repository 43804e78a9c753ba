//! Campaign checkpointing: the append-only verdict log and resume.
//!
//! Long campaigns (§4.4 runs for days) must survive a killed process. The
//! checkpoint is one file in the [`FrameLog`] framing: a campaign header
//! (format version, seed, exemplar universe), then one [`JournalRecord`]
//! per real verdict. [`crate::ledger::JobLedger`] appends and syncs each verdict
//! before merging it, and at the end replaces the file atomically with the
//! compact form ([`Checkpoint::save`]: the header plus one record per
//! verdict, in job order), which is the same bytes whichever runner wrote
//! it. Every resume goes through one loader, [`read`]: it never modifies
//! the file, refuses a missing or foreign header, and replays the intact
//! records with the first verdict winning; a damaged tail is cut off and
//! counted. Completed jobs are then replayed from the checkpoint instead
//! of re-executed, and the final report aggregates identically to an
//! uninterrupted run.
//!
//! Jobs quarantined as `gave-up` (the breaker abandoned them; they never
//! got a verdict) are deliberately *not* persisted: a resumed campaign
//! retries them rather than inherit a dead pool's verdict.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use sb_detect::Finding;
use sb_vmm::replay::Schedule;

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::error::{Error, FailureKind, SbResult};
use crate::journal::{self, done_line, quarantine_line, FrameLog, JournalRecord, Replay};
use crate::json::{self, Json};
use crate::pmc::PmcId;

/// Current checkpoint format version (1 was a whole-file JSON document; 2
/// also logged fleet lease grants and releases; 3 stamped each verdict
/// with its sender's session and sequence number).
const VERSION: u64 = 4;

/// A campaign progress snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// The campaign base seed (resume refuses a mismatch).
    pub seed: u64,
    /// The budgeted exemplar list in test order (resume refuses a mismatch).
    pub exemplars: Vec<PmcId>,
    /// Completed job outcomes, keyed by job index.
    pub outcomes: BTreeMap<usize, PmcTestOutcome>,
    /// Quarantined jobs (minus `gave-up` entries, which are retried on
    /// resume), keyed by job index.
    pub quarantined: BTreeMap<usize, QuarantineRecord>,
}

impl Checkpoint {
    /// A fresh checkpoint for a campaign about to start.
    pub fn begin(seed: u64, exemplars: &[PmcId]) -> Self {
        Checkpoint {
            seed,
            exemplars: exemplars.to_vec(),
            outcomes: BTreeMap::new(),
            quarantined: BTreeMap::new(),
        }
    }

    /// True if `job` already has a persisted verdict (outcome or quarantine).
    pub fn covers(&self, job: usize) -> bool {
        self.outcomes.contains_key(&job) || self.quarantined.contains_key(&job)
    }

    /// Records `outcome` for `job` unless the job already has a verdict.
    ///
    /// This is the fleet's exactly-once merge rule: the first verdict for a
    /// job wins, and anything later (a late `done` from a worker whose
    /// lease expired and was reassigned) returns `false` so the caller can
    /// count it as a dropped duplicate.
    pub fn merge_outcome(&mut self, job: usize, outcome: PmcTestOutcome) -> bool {
        if self.covers(job) {
            return false;
        }
        self.outcomes.insert(job, outcome);
        true
    }

    /// Records a quarantine verdict unless its job already has one; same
    /// first-wins rule as [`Checkpoint::merge_outcome`].
    pub fn merge_quarantine(&mut self, record: QuarantineRecord) -> bool {
        if self.covers(record.job) {
            return false;
        }
        self.quarantined.insert(record.job, record);
        true
    }

    /// Verifies this checkpoint belongs to the campaign described by
    /// `(seed, exemplars)`.
    pub fn validate(&self, seed: u64, exemplars: &[PmcId]) -> SbResult<()> {
        if self.seed != seed {
            return Err(Error::ResumeMismatch {
                detail: format!("checkpoint seed {} != campaign seed {}", self.seed, seed),
            });
        }
        if self.exemplars != exemplars {
            return Err(Error::ResumeMismatch {
                detail: format!(
                    "checkpoint exemplar list ({} PMCs) differs from campaign ({} PMCs)",
                    self.exemplars.len(),
                    exemplars.len()
                ),
            });
        }
        Ok(())
    }

    /// Atomically replaces `path` with the compact form of this snapshot
    /// (temp file + rename, so readers never observe a torn file).
    pub fn save(&self, path: &Path) -> SbResult<()> {
        write(path, self.image())
    }

    /// Loads the snapshot a checkpoint log holds (see [`read`]).
    pub fn load(path: &Path) -> SbResult<Self> {
        read(path).map(|loaded| loaded.checkpoint)
    }

    /// The compact form as file bytes: the header, then one record per
    /// verdict in job order.
    pub(crate) fn image(&self) -> io::Result<Vec<u8>> {
        let mut verdicts: Vec<(usize, String)> = self
            .outcomes
            .iter()
            .map(|(job, o)| (*job, done_line(*job, o)))
            .chain(
                self.quarantined
                    .iter()
                    .map(|(job, q)| (*job, quarantine_line(q))),
            )
            .collect();
        verdicts.sort_by_key(|(job, _)| *job);
        let header = self.header();
        let lines = std::iter::once(&header).chain(verdicts.iter().map(|(_, line)| line));
        journal::image(lines.map(String::as_str))
    }

    fn header(&self) -> String {
        let exemplars = self
            .exemplars
            .iter()
            .map(|id| Json::U64(u64::from(*id)))
            .collect();
        Json::Obj(vec![
            ("rec".into(), Json::Str("header".into())),
            ("version".into(), Json::U64(VERSION)),
            ("seed".into(), Json::U64(self.seed)),
            ("exemplars".into(), Json::Arr(exemplars)),
        ])
        .render()
    }

    fn from_header(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        if doc.get("rec").and_then(Json::as_str) != Some("header") {
            return Err("the first record is not a campaign header".into());
        }
        let version = req_u64(&doc, "version")?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        Ok(Checkpoint {
            seed: req_u64(&doc, "seed")?,
            exemplars: req_uints(&doc, "exemplars")?,
            ..Checkpoint::default()
        })
    }
}

/// What [`read`] recovered from a checkpoint log.
#[derive(Debug)]
pub struct Loaded {
    /// The header's campaign with every intact verdict merged, the first
    /// verdict for a job winning.
    pub checkpoint: Checkpoint,
    /// The file's bytes up to the end of its last intact record.
    pub intact: Vec<u8>,
    /// The replay counts, for a resuming transport.
    pub replay: Replay,
}

/// The one checkpoint loader. Reads `path` whole and never modifies it. A
/// file without the log magic, or whose first record is not an intact
/// campaign header, is an [`Error::CheckpointFormat`]. After the header,
/// the first record that is damaged, unparseable or names a job outside
/// the universe ends the intact prefix, and the cut is counted once in
/// [`Replay::damaged`].
pub fn read(path: &Path) -> SbResult<Loaded> {
    let mut bytes = std::fs::read(path).map_err(|source| Error::CheckpointIo {
        path: path.to_path_buf(),
        op: "read",
        source,
    })?;
    let format = |detail: String| Error::CheckpointFormat {
        path: path.to_path_buf(),
        detail,
    };
    let frames = journal::decode(&bytes)
        .ok_or_else(|| format("not a checkpoint log (format 1 checkpoints are not read)".into()))?;
    let (header, mut end) = *frames
        .first()
        .ok_or_else(|| format("no intact campaign header".into()))?;
    let mut checkpoint = Checkpoint::from_header(header).map_err(format)?;
    let mut replay = Replay::default();
    for (line, next) in &frames[1..] {
        if !replay_record(&mut checkpoint, &mut replay, line) {
            break;
        }
        end = *next;
    }
    replay.damaged = u64::from(end < bytes.len());
    bytes.truncate(end);
    Ok(Loaded {
        checkpoint,
        intact: bytes,
        replay,
    })
}

/// Replays one record after the header; `false` when it does not parse or
/// names a job outside the universe.
fn replay_record(cp: &mut Checkpoint, replay: &mut Replay, line: &str) -> bool {
    let universe = cp.exemplars.len();
    match JournalRecord::parse(line) {
        Ok(JournalRecord::Done { job, outcome }) if job < universe => {
            cp.merge_outcome(job, outcome);
        }
        Ok(JournalRecord::Quarantine { record }) if record.job < universe => {
            cp.merge_quarantine(record);
        }
        _ => return false,
    }
    replay.verdicts += 1;
    true
}

/// Atomically replaces `path` with the log `image`.
fn write(path: &Path, image: io::Result<Vec<u8>>) -> SbResult<()> {
    let bytes = image.map_err(|source| Error::CheckpointIo {
        path: path.to_path_buf(),
        op: "write",
        source,
    })?;
    json::atomic_write(path, bytes).map_err(|(op, path, source)| Error::CheckpointIo {
        path,
        op,
        source,
    })
}

/// Atomically replaces `path` with the log `image` and opens it for the
/// appends that follow.
pub(crate) fn install(path: &Path, image: io::Result<Vec<u8>>) -> SbResult<FrameLog> {
    write(path, image)?;
    FrameLog::append_to(path).map_err(|source| Error::CheckpointIo {
        path: path.to_path_buf(),
        op: "open",
        source,
    })
}

pub(crate) fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

/// The array of unsigned integers at `key`, each one a `T`.
pub(crate) fn req_uints<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<Vec<T>, String> {
    let bad = || format!("missing or non-integer array \"{key}\"");
    let arr = doc.get(key).and_then(Json::as_arr).ok_or_else(bad)?;
    arr.iter()
        .map(|v| v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(bad))
        .collect()
}

fn opt_u64(value: &Json) -> Result<Option<u64>, String> {
    match value {
        Json::Null => Ok(None),
        Json::U64(n) => Ok(Some(*n)),
        _ => Err("expected integer or null".to_string()),
    }
}

pub(crate) fn outcome_to_json(job: usize, o: &PmcTestOutcome) -> Json {
    Json::Obj(vec![
        ("job".into(), Json::U64(job as u64)),
        (
            "pmc".into(),
            o.pmc.map_or(Json::Null, |id| Json::U64(u64::from(id))),
        ),
        (
            "pair".into(),
            Json::Arr(vec![
                Json::U64(u64::from(o.pair.0)),
                Json::U64(u64::from(o.pair.1)),
            ]),
        ),
        ("trials_run".into(), Json::U64(u64::from(o.trials_run))),
        ("exercised".into(), Json::Bool(o.exercised)),
        (
            "findings".into(),
            Json::Arr(o.findings.iter().map(finding_to_json).collect()),
        ),
        ("steps".into(), Json::U64(o.steps)),
        (
            "first_finding_trial".into(),
            o.first_finding_trial
                .map_or(Json::Null, |t| Json::U64(u64::from(t))),
        ),
        (
            "repro_schedule".into(),
            o.repro_schedule
                .as_ref()
                .map_or(Json::Null, schedule_to_json),
        ),
        ("attempts".into(), Json::U64(u64::from(o.attempts))),
    ])
}

pub(crate) fn outcome_from_json(doc: &Json) -> Result<(usize, PmcTestOutcome), String> {
    let job = usize::try_from(req_u64(doc, "job")?).map_err(|_| "job overflows usize")?;
    let pmc = opt_u64(doc.get("pmc").ok_or("missing pmc")?)?
        .map(|n| u32::try_from(n).map_err(|_| "pmc id overflows u32".to_string()))
        .transpose()?;
    let pair_arr = doc
        .get("pair")
        .and_then(Json::as_arr)
        .filter(|a| a.len() == 2)
        .ok_or("pair must be a 2-element array")?;
    let pair_of = |v: &Json| -> Result<u32, String> {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| "bad pair element".to_string())
    };
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing findings array")?
        .iter()
        .map(finding_from_json)
        .collect::<Result<Vec<Finding>, String>>()?;
    let first_finding_trial = opt_u64(
        doc.get("first_finding_trial")
            .ok_or("missing first_finding_trial")?,
    )?
    .map(|n| u32::try_from(n).map_err(|_| "trial overflows u32".to_string()))
    .transpose()?;
    let repro_schedule = match doc.get("repro_schedule").ok_or("missing repro_schedule")? {
        Json::Null => None,
        other => Some(schedule_from_json(other)?),
    };
    Ok((
        job,
        PmcTestOutcome {
            pmc,
            pair: (pair_of(&pair_arr[0])?, pair_of(&pair_arr[1])?),
            trials_run: u32::try_from(req_u64(doc, "trials_run")?)
                .map_err(|_| "trials_run overflows u32")?,
            exercised: doc
                .get("exercised")
                .and_then(Json::as_bool)
                .ok_or("missing exercised")?,
            findings,
            steps: req_u64(doc, "steps")?,
            first_finding_trial,
            repro_schedule,
            attempts: u32::try_from(req_u64(doc, "attempts")?)
                .map_err(|_| "attempts overflows u32")?,
        },
    ))
}

fn finding_to_json(f: &Finding) -> Json {
    let tag = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
    match f {
        Finding::KernelPanic { msg } => Json::Obj(vec![
            tag("kernel-panic"),
            ("msg".into(), Json::Str(msg.clone())),
        ]),
        Finding::ConsoleError { line } => Json::Obj(vec![
            tag("console-error"),
            ("line".into(), Json::Str(line.clone())),
        ]),
        Finding::DataRace {
            write_site,
            other_site,
            addr,
        } => Json::Obj(vec![
            tag("data-race"),
            ("write_site".into(), Json::Str(write_site.clone())),
            ("other_site".into(), Json::Str(other_site.clone())),
            ("addr".into(), Json::U64(*addr)),
        ]),
        Finding::Deadlock => Json::Obj(vec![tag("deadlock")]),
        Finding::Livelock => Json::Obj(vec![tag("livelock")]),
        Finding::LockRuleViolation { site, lock, addr } => Json::Obj(vec![
            tag("lock-rule"),
            ("site".into(), Json::Str(site.clone())),
            ("lock".into(), Json::Str(lock.clone())),
            ("addr".into(), Json::U64(*addr)),
        ]),
        Finding::LockOrderInversion { first, second } => Json::Obj(vec![
            tag("lock-order"),
            ("first".into(), Json::Str(first.clone())),
            ("second".into(), Json::Str(second.clone())),
        ]),
        Finding::MissedWakeup {
            queue,
            wake_site,
            sleep_site,
        } => Json::Obj(vec![
            tag("missed-wakeup"),
            ("queue".into(), Json::U64(*queue)),
            ("wake_site".into(), Json::Str(wake_site.clone())),
            ("sleep_site".into(), Json::Str(sleep_site.clone())),
        ]),
        Finding::SleepInAtomic { site, enter_site } => Json::Obj(vec![
            tag("sleep-in-atomic"),
            ("site".into(), Json::Str(site.clone())),
            ("enter_site".into(), Json::Str(enter_site.clone())),
        ]),
    }
}

fn finding_from_json(doc: &Json) -> Result<Finding, String> {
    let req_str = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing finding field \"{key}\""))
    };
    match doc.get("type").and_then(Json::as_str) {
        Some("kernel-panic") => Ok(Finding::KernelPanic {
            msg: req_str("msg")?,
        }),
        Some("console-error") => Ok(Finding::ConsoleError {
            line: req_str("line")?,
        }),
        Some("data-race") => Ok(Finding::DataRace {
            write_site: req_str("write_site")?,
            other_site: req_str("other_site")?,
            addr: req_u64(doc, "addr")?,
        }),
        Some("deadlock") => Ok(Finding::Deadlock),
        Some("livelock") => Ok(Finding::Livelock),
        Some("lock-rule") => Ok(Finding::LockRuleViolation {
            site: req_str("site")?,
            lock: req_str("lock")?,
            addr: req_u64(doc, "addr")?,
        }),
        Some("lock-order") => Ok(Finding::LockOrderInversion {
            first: req_str("first")?,
            second: req_str("second")?,
        }),
        Some("missed-wakeup") => Ok(Finding::MissedWakeup {
            queue: req_u64(doc, "queue")?,
            wake_site: req_str("wake_site")?,
            sleep_site: req_str("sleep_site")?,
        }),
        Some("sleep-in-atomic") => Ok(Finding::SleepInAtomic {
            site: req_str("site")?,
            enter_site: req_str("enter_site")?,
        }),
        Some(other) => Err(format!("unknown finding type \"{other}\"")),
        None => Err("finding without a type".to_string()),
    }
}

fn schedule_to_json(s: &Schedule) -> Json {
    Json::Obj(vec![
        (
            "switches".into(),
            Json::Arr(s.switches.iter().map(|b| Json::Bool(*b)).collect()),
        ),
        (
            "picks".into(),
            Json::Arr(s.picks.iter().map(|p| Json::U64(*p as u64)).collect()),
        ),
    ])
}

fn schedule_from_json(doc: &Json) -> Result<Schedule, String> {
    let switches = doc
        .get("switches")
        .and_then(Json::as_arr)
        .ok_or("schedule missing switches")?
        .iter()
        .map(|v| v.as_bool().ok_or_else(|| "bad switch entry".to_string()))
        .collect::<Result<Vec<bool>, String>>()?;
    let picks = req_uints(doc, "picks")?;
    Ok(Schedule { switches, picks })
}

pub(crate) fn quarantine_to_json(q: &QuarantineRecord) -> Json {
    Json::Obj(vec![
        ("job".into(), Json::U64(q.job as u64)),
        (
            "pmc".into(),
            q.pmc.map_or(Json::Null, |id| Json::U64(u64::from(id))),
        ),
        ("attempts".into(), Json::U64(u64::from(q.attempts))),
        ("kind".into(), Json::Str(q.kind.tag().to_string())),
        (
            "chain".into(),
            Json::Arr(q.chain.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
    ])
}

pub(crate) fn quarantine_from_json(doc: &Json) -> Result<QuarantineRecord, String> {
    let kind_tag = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("quarantine entry missing kind")?;
    Ok(QuarantineRecord {
        job: usize::try_from(req_u64(doc, "job")?).map_err(|_| "job overflows usize")?,
        pmc: opt_u64(doc.get("pmc").ok_or("missing pmc")?)?
            .map(|n| u32::try_from(n).map_err(|_| "pmc id overflows u32".to_string()))
            .transpose()?,
        attempts: u32::try_from(req_u64(doc, "attempts")?).map_err(|_| "attempts overflows u32")?,
        kind: FailureKind::from_tag(kind_tag)
            .ok_or_else(|| format!("unknown failure kind \"{kind_tag}\""))?,
        chain: doc
            .get("chain")
            .and_then(Json::as_arr)
            .ok_or("quarantine entry missing chain")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "bad chain entry".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_first_wins() {
        let mut cp = sample();
        let dup = PmcTestOutcome {
            trials_run: 999,
            ..cp.outcomes[&0].clone()
        };
        assert!(!cp.merge_outcome(0, dup), "covered job: duplicate dropped");
        assert_eq!(cp.outcomes[&0].trials_run, 64, "first verdict kept");
        assert!(!cp.merge_quarantine(QuarantineRecord {
            job: 0,
            pmc: None,
            attempts: 1,
            kind: FailureKind::Crash,
            chain: vec![],
        }));
        assert!(cp.merge_outcome(5, cp.outcomes[&0].clone()));
        assert!(cp.covers(5));
        assert!(cp.merge_quarantine(QuarantineRecord {
            job: 6,
            pmc: None,
            attempts: 1,
            kind: FailureKind::Crash,
            chain: vec![],
        }));
        assert!(cp.covers(6));
    }

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::begin(0xDEAD_BEEF_CAFE_F00D, &[7, 3, 9]);
        cp.outcomes.insert(
            0,
            PmcTestOutcome {
                pmc: Some(7),
                pair: (1, 2),
                trials_run: 64,
                exercised: true,
                findings: vec![
                    Finding::DataRace {
                        write_site: "a:w".into(),
                        other_site: "b:r".into(),
                        addr: 0x40,
                    },
                    Finding::KernelPanic {
                        msg: "BUG: \"quoted\"".into(),
                    },
                    Finding::Deadlock,
                ],
                steps: 12345,
                first_finding_trial: Some(3),
                repro_schedule: Some(Schedule {
                    switches: vec![true, false, true],
                    picks: vec![1, 0],
                }),
                attempts: 2,
            },
        );
        cp.outcomes.insert(
            2,
            PmcTestOutcome {
                pmc: None,
                pair: (0, 0),
                trials_run: 1,
                exercised: false,
                findings: vec![],
                steps: 10,
                first_finding_trial: None,
                repro_schedule: None,
                attempts: 1,
            },
        );
        cp.quarantined.insert(
            1,
            QuarantineRecord {
                job: 1,
                pmc: Some(3),
                attempts: 3,
                kind: FailureKind::Panic,
                chain: vec!["campaign worker panicked: boom".into()],
            },
        );
        cp
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        // The per-verdict objects, which both the log and the wire carry.
        let cp = sample();
        for (job, o) in &cp.outcomes {
            let doc = json::parse(&outcome_to_json(*job, o).render()).unwrap();
            assert_eq!(outcome_from_json(&doc).unwrap(), (*job, o.clone()));
        }
        for q in cp.quarantined.values() {
            let doc = json::parse(&quarantine_to_json(q).render()).unwrap();
            assert_eq!(&quarantine_from_json(&doc).unwrap(), q);
        }
    }

    #[test]
    fn save_load_round_trip_via_disk() {
        let dir = proptest::ScratchDir::new("checkpoint");
        let path = dir.join("cp-roundtrip.json");
        let cp = sample();
        cp.save(&path).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        assert_eq!(Checkpoint::load(&path).expect("load"), cp);
    }

    #[test]
    fn covers_checks_both_maps() {
        let cp = sample();
        assert!(cp.covers(0));
        assert!(cp.covers(1));
        assert!(cp.covers(2));
        assert!(!cp.covers(3));
    }

    #[test]
    fn validate_rejects_foreign_campaigns() {
        let cp = sample();
        assert!(cp.validate(0xDEAD_BEEF_CAFE_F00D, &[7, 3, 9]).is_ok());
        assert!(matches!(
            cp.validate(1, &[7, 3, 9]),
            Err(Error::ResumeMismatch { .. })
        ));
        assert!(matches!(
            cp.validate(0xDEAD_BEEF_CAFE_F00D, &[7, 3]),
            Err(Error::ResumeMismatch { .. })
        ));
    }

    #[test]
    fn load_classifies_missing_and_corrupt_files() {
        let missing = Path::new("/nonexistent/sb-checkpoint.json");
        assert!(matches!(
            Checkpoint::load(missing),
            Err(Error::CheckpointIo { op: "read", .. })
        ));

        let dir = proptest::ScratchDir::new("checkpoint");
        let path = dir.join("cp-corrupt.json");
        let header_damage: [&[u8]; 4] = [
            // A format-1 checkpoint, a torn magic, a torn header, and a
            // log whose first record is no header.
            b"{\"version\":1,\"seed\":1}",
            b"SBWAL0",
            &journal::image([sample().header().as_str()]).unwrap()[..20],
            &journal::image(["{\"rec\":\"release\",\"lease\":1}"]).unwrap(),
        ];
        for bytes in header_damage {
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(Checkpoint::load(&path), Err(Error::CheckpointFormat { .. })),
                "{bytes:?}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "a failed load writes nothing"
            );
        }
        for version in ["2", "3", "99"] {
            let other = sample()
                .header()
                .replace("\"version\":4", &format!("\"version\":{version}"));
            std::fs::write(&path, journal::image([other.as_str()]).unwrap()).unwrap();
            assert!(
                matches!(
                    Checkpoint::load(&path),
                    Err(Error::CheckpointFormat { detail, .. })
                        if detail == format!("unsupported checkpoint version {version}")
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn replay_folds_verdicts_first_wins() {
        let cp = Checkpoint::begin(2021, &[7, 3, 9, 4]);
        let sample = sample();
        let records = [
            cp.header(),
            done_line(0, &sample.outcomes[&0]),
            quarantine_line(&QuarantineRecord {
                job: 2,
                ..sample.quarantined[&1].clone()
            }),
            // A late duplicate (a log of this format holds none, but the
            // loader does not rely on it): counted as replayed, the first
            // verdict kept.
            done_line(0, &sample.outcomes[&2]),
            done_line(3, &sample.outcomes[&2]),
        ];
        let dir = proptest::ScratchDir::new("checkpoint");
        let path = dir.join("cp-replay.log");
        let bytes = journal::image(records.iter().map(String::as_str)).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let loaded = read(&path).unwrap();
        assert_eq!(loaded.intact, bytes);
        let replay = loaded.replay;
        assert_eq!((replay.verdicts, replay.damaged), (4, 0));
        assert_eq!(
            loaded.checkpoint.outcomes[&0], sample.outcomes[&0],
            "first verdict wins"
        );
        assert_eq!(loaded.checkpoint.outcomes.len(), 2);
        assert!(loaded.checkpoint.quarantined.contains_key(&2));

        // The compact form keeps the verdicts and nothing else.
        loaded.checkpoint.save(&path).unwrap();
        let compact = read(&path).unwrap();
        assert_eq!(compact.checkpoint, loaded.checkpoint);
        assert_eq!(compact.replay.verdicts, 3);

        // A verdict outside the universe ends the intact prefix.
        let foreign = done_line(4, &sample.outcomes[&0]);
        let bytes = journal::image(records[..2].iter().chain([&foreign]).map(String::as_str));
        std::fs::write(&path, bytes.unwrap()).unwrap();
        let loaded = read(&path).unwrap();
        assert_eq!((loaded.replay.verdicts, loaded.replay.damaged), (1, 1));
    }

    #[test]
    fn a_million_exemplar_universe_round_trips() {
        let exemplars: Vec<PmcId> = (0..1_000_000).map(|i| i * 7 + 1).collect();
        let mut cp = Checkpoint::begin(5, &exemplars);
        cp.outcomes = sample().outcomes;
        let dir = proptest::ScratchDir::new("checkpoint");
        let path = dir.join("cp-million.log");
        cp.save(&path).unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() > 1 << 20,
            "the header outgrows a frame"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
    }
}
