//! Campaign checkpointing: progress snapshots and resume.
//!
//! Long campaigns (§4.4 runs for days) must survive a killed process.
//! After every merged verdict the campaign serializes completed work — which PMC
//! jobs finished, their outcomes, and the quarantine set — to a JSON file
//! written atomically (temp file + rename), so the file on disk is always a
//! complete snapshot. `run_campaign` can then resume: already-completed
//! jobs are replayed from the checkpoint instead of re-executed, and the
//! final report aggregates identically to an uninterrupted run.
//!
//! Jobs quarantined as `rejected` (queue closed before enqueue — they never
//! ran) are deliberately *not* persisted: a resumed campaign should retry
//! them rather than inherit the dead queue's verdict.

use std::collections::BTreeMap;
use std::path::Path;

use sb_detect::Finding;
use sb_vmm::replay::Schedule;

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::error::{Error, FailureKind, SbResult};
use crate::json::{self, Json};
use crate::pmc::PmcId;

/// Current checkpoint format version.
const VERSION: u64 = 1;

/// A campaign progress snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// The campaign base seed (resume refuses a mismatch).
    pub seed: u64,
    /// The budgeted exemplar list in test order (resume refuses a mismatch).
    pub exemplars: Vec<PmcId>,
    /// Completed job outcomes, keyed by job index.
    pub outcomes: BTreeMap<usize, PmcTestOutcome>,
    /// Quarantined jobs (minus `rejected` entries, which are retried on
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

    /// Atomically writes this snapshot: serialize to `<path>.tmp`, then
    /// rename over `path`, so readers never observe a torn file.
    pub fn save(&self, path: &Path) -> SbResult<()> {
        let text = self.to_json().render();
        json::atomic_write(path, &text)
            .map_err(|(op, path, source)| Error::CheckpointIo { path, op, source })
    }

    /// Loads and validates the shape of a snapshot from disk.
    pub fn load(path: &Path) -> SbResult<Self> {
        let text = std::fs::read_to_string(path).map_err(|source| Error::CheckpointIo {
            path: path.to_path_buf(),
            op: "read",
            source,
        })?;
        let doc = json::parse(&text).map_err(|detail| Error::CheckpointFormat {
            path: path.to_path_buf(),
            detail,
        })?;
        Self::from_json(&doc).map_err(|detail| Error::CheckpointFormat {
            path: path.to_path_buf(),
            detail,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::U64(VERSION)),
            ("seed".into(), Json::U64(self.seed)),
            (
                "exemplars".into(),
                Json::Arr(
                    self.exemplars
                        .iter()
                        .map(|id| Json::U64(u64::from(*id)))
                        .collect(),
                ),
            ),
            (
                "outcomes".into(),
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|(job, o)| outcome_to_json(*job, o))
                        .collect(),
                ),
            ),
            (
                "quarantined".into(),
                Json::Arr(
                    self.quarantined
                        .values()
                        .map(quarantine_to_json)
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let version = req_u64(doc, "version")?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let seed = req_u64(doc, "seed")?;
        let exemplars = doc
            .get("exemplars")
            .and_then(Json::as_arr)
            .ok_or("missing exemplars array")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "bad exemplar id".to_string())
            })
            .collect::<Result<Vec<PmcId>, String>>()?;
        let mut outcomes = BTreeMap::new();
        for item in doc
            .get("outcomes")
            .and_then(Json::as_arr)
            .ok_or("missing outcomes array")?
        {
            let (job, outcome) = outcome_from_json(item)?;
            outcomes.insert(job, outcome);
        }
        let mut quarantined = BTreeMap::new();
        for item in doc
            .get("quarantined")
            .and_then(Json::as_arr)
            .ok_or("missing quarantined array")?
        {
            let rec = quarantine_from_json(item)?;
            quarantined.insert(rec.job, rec);
        }
        Ok(Checkpoint {
            seed,
            exemplars,
            outcomes,
            quarantined,
        })
    }
}

pub(crate) fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
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
    let first_finding_trial = opt_u64(doc.get("first_finding_trial").ok_or("missing first_finding_trial")?)?
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
        Some("kernel-panic") => Ok(Finding::KernelPanic { msg: req_str("msg")? }),
        Some("console-error") => Ok(Finding::ConsoleError { line: req_str("line")? }),
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
    let picks = doc
        .get("picks")
        .and_then(Json::as_arr)
        .ok_or("schedule missing picks")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| "bad pick entry".to_string())
        })
        .collect::<Result<Vec<usize>, String>>()?;
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
        attempts: u32::try_from(req_u64(doc, "attempts")?)
            .map_err(|_| "attempts overflows u32")?,
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
                    Finding::KernelPanic { msg: "BUG: \"quoted\"".into() },
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
        let cp = sample();
        let parsed = Checkpoint::from_json(&json::parse(&cp.to_json().render()).unwrap())
            .expect("round trip");
        assert_eq!(parsed, cp);
    }

    #[test]
    fn save_load_round_trip_via_disk() {
        let dir = std::env::temp_dir().join("sb-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp-roundtrip.json");
        let cp = sample();
        cp.save(&path).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        assert_eq!(Checkpoint::load(&path).expect("load"), cp);
        let _ = std::fs::remove_file(&path);
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

        let dir = std::env::temp_dir().join("sb-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp-corrupt.json");
        std::fs::write(&path, b"{\"version\":1,").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(Error::CheckpointFormat { .. })
        ));
        std::fs::write(&path, b"{\"version\":99}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(Error::CheckpointFormat { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
