//! The campaign job lifecycle, written once.
//!
//! A campaign is a fixed universe of jobs (the budgeted exemplar list) that
//! each end in exactly one verdict. Two transports move jobs and verdicts
//! around — scoped threads ([`crate::campaign`]) and TCP peers
//! ([`crate::fleet`]) — and both drive the same [`JobLedger`], which is
//! the only place that knows the rules:
//!
//! ```text
//!                lease                      deliver
//!   pending ───────────────▶ held ─────────────────────▶ covered
//!      ▲                       │                            ▲
//!      └───────────────────────┘                            │ deliver
//!        release / expire /       reject / abandon          │ (a real verdict
//!        owner died under budget ─────────────────▶ reported-only
//! ```
//!
//! * **Universe** — the first `max_tested_pmcs` exemplars ([`universe`]);
//!   job `i` tests exemplar `i`. Nothing outside it is ever accepted.
//! * **Resume** — a checkpoint must match `(seed, universe)`; a lenient
//!   resume replaces an unusable one with a fresh start, and a damaged
//!   tail is cut off with a warning. Covered jobs are
//!   never handed out again, and their verdicts are traced once
//!   ([`JobLedger::trace_restored`]) so a resumed trace balances.
//! * **First verdict wins** — a verdict for a covered job is a counted
//!   duplicate, never an overwrite.
//! * **Reported-only** — `GaveUp` verdicts (the breaker abandoned the
//!   job) are reported but never checkpointed, so a resumed campaign retries those jobs; a real
//!   verdict arriving later supersedes them.
//! * **Crash budget** — an owner that dies charges every job it held; at
//!   the budget the job is quarantined as `Crash` (checkpointed, never
//!   retried), below it the job returns to the pending pool.
//! * **Breaker** — consecutive deaths without progress are counted across
//!   the campaign; the transport decides when its precondition holds and
//!   [`JobLedger::abandon`]s what is left as `GaveUp`.
//! * **Stop** — once stopping, deaths no longer charge: winding a campaign
//!   down quarantines nothing.
//! * **Persistence** — the checkpoint is one append-only log
//!   ([`crate::checkpoint`]) that the ledger owns for every runner. Opening
//!   writes it atomically: the header alone when fresh, the resumed log's
//!   intact prefix on resume. Every real verdict that merges (a `Crash`
//!   quarantine included) is appended and synced *before* it is merged, so
//!   no acknowledgement can leave ahead of it; a duplicate is not logged,
//!   because the verdict it lost to already is. Verdicts
//!   are the log's only records: who held a job is transport state, and a
//!   job held when the run died is simply pending on resume.
//!   [`JobLedger::stop`] syncs, and [`JobLedger::finish`] swaps in the
//!   compact form atomically (authoritative). A failed append stops the
//!   log for the rest of the run with one warning; the campaign goes on.
//!
//! The ledger does no I/O beyond that checkpoint file and reads no clock:
//! lease deadlines are [`Instant`]s passed in by the transport.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::campaign::{
    aggregate, CampaignCfg, CampaignReport, JobVerdict, PmcTestOutcome, QuarantineRecord,
};
use crate::checkpoint::{self, Checkpoint, Loaded};
use crate::error::{FailureKind, SbResult};
use crate::fault::FaultPlan;
use crate::journal::{done_line, quarantine_line, FrameLog, Replay};
use crate::pmc::PmcId;

/// The budgeted job universe: job `i` tests `universe[i]`.
pub fn universe(exemplars: &[PmcId], cfg: &CampaignCfg) -> Vec<PmcId> {
    exemplars
        .iter()
        .copied()
        .take(cfg.max_tested_pmcs)
        .collect()
}

/// A verdict for a job outside the universe. Transports treat it as a
/// protocol violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfScope {
    /// The offending job index.
    pub job: usize,
    /// Size of the universe.
    pub jobs: usize,
}

impl std::fmt::Display for OutOfScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} is outside the {}-job universe",
            self.job, self.jobs
        )
    }
}

/// What [`JobLedger::deliver`] did with a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivered {
    /// First verdict for the job: merged.
    Merged,
    /// The job already had a verdict; this one was dropped and counted.
    Duplicate,
}

/// What became of one job its dead owner held.
#[derive(Clone, Debug, PartialEq)]
pub enum Charge {
    /// Back in the pending pool.
    Requeued(usize),
    /// The crash budget ran out: quarantined as `Crash`, logged and merged.
    Quarantined(QuarantineRecord),
}

/// Where every job of the universe currently is (see [`JobLedger::census`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Waiting to be handed out.
    pub pending: Vec<usize>,
    /// Handed to an owner, no verdict yet.
    pub held: Vec<usize>,
    /// Holding a checkpointed verdict.
    pub covered: Vec<usize>,
    /// Holding a reported-only verdict.
    pub reported: Vec<usize>,
}

struct Owner {
    jobs: BTreeSet<usize>,
    until: Option<Instant>,
}

/// The job-lifecycle state machine of one campaign run.
pub struct JobLedger {
    universe: Vec<PmcId>,
    cp: Checkpoint,
    /// Reported-but-not-checkpointed verdicts (`GaveUp`).
    reported: BTreeMap<usize, QuarantineRecord>,
    pending: BTreeSet<usize>,
    owners: BTreeMap<u64, Owner>,
    crash_counts: BTreeMap<usize, u32>,
    instant_deaths: u32,
    duplicates: u64,
    stopping: bool,
    /// The checkpoint path: [`JobLedger::finish`] writes the compact form
    /// here.
    save_to: Option<PathBuf>,
    /// The checkpoint log appends go to; `None` without a checkpoint, and
    /// after an append failed.
    log: Option<FrameLog>,
    /// Records the log took after its header.
    written: u64,
    /// What the resume recovered besides verdicts, until the transport
    /// takes it.
    replay: Replay,
    tracer: sb_obs::Tracer,
    fault_plan: FaultPlan,
}

impl JobLedger {
    /// Builds the universe, loads the resume checkpoint named by `cfg` (or
    /// begins a fresh one), and writes the checkpoint log the run appends
    /// to. `save_to` is the checkpoint a remote transport owns; without it
    /// the ledger logs to `cfg.checkpoint`, or nowhere.
    pub fn open(
        exemplars: &[PmcId],
        cfg: &CampaignCfg,
        save_to: Option<&Path>,
    ) -> SbResult<JobLedger> {
        let universe = universe(exemplars, cfg);
        let resumed = match &cfg.resume_from {
            None => None,
            Some(path) => {
                let loaded = checkpoint::read(path)
                    .and_then(|l| l.checkpoint.validate(cfg.seed, &universe).map(|()| l));
                match loaded {
                    Ok(l) if l.replay.damaged > 0 => {
                        eprintln!(
                            "[campaign] warning: checkpoint {} ends in a damaged record — \
                             resuming from its intact prefix",
                            path.display()
                        );
                        Some(l)
                    }
                    Ok(l) => Some(l),
                    Err(e) if cfg.resume_lenient => {
                        eprintln!(
                            "[campaign] warning: ignoring unusable checkpoint {}: {e} — starting fresh",
                            path.display()
                        );
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let (cp, intact, replay) = match resumed {
            Some(Loaded {
                checkpoint,
                intact,
                replay,
            }) => (checkpoint, Some(intact), replay),
            None => (
                Checkpoint::begin(cfg.seed, &universe),
                None,
                Replay::default(),
            ),
        };
        let save_to = save_to
            .map(Path::to_path_buf)
            .or_else(|| cfg.checkpoint.clone());
        let log = match &save_to {
            Some(path) => Some(checkpoint::install(
                path,
                intact.map_or_else(|| cp.image(), Ok),
            )?),
            None => None,
        };
        let pending = (0..universe.len()).filter(|job| !cp.covers(*job)).collect();
        Ok(JobLedger {
            universe,
            cp,
            reported: BTreeMap::new(),
            pending,
            owners: BTreeMap::new(),
            crash_counts: BTreeMap::new(),
            instant_deaths: 0,
            duplicates: 0,
            stopping: false,
            save_to,
            log,
            written: 0,
            replay,
            tracer: cfg.tracer.clone(),
            fault_plan: cfg.fault_plan.clone(),
        })
    }

    /// The budgeted job universe.
    pub fn universe(&self) -> &[PmcId] {
        &self.universe
    }

    /// Hands the transport what the resume recovered besides verdicts: the
    /// replay counts (empty when fresh).
    pub fn take_replay(&mut self) -> Replay {
        std::mem::take(&mut self.replay)
    }

    /// Emits the per-job trace records for every verdict the campaign
    /// starts with (those of the resumed checkpoint). They are part
    /// of the final summary, so their events must be in the trace for
    /// `trace report` to balance.
    pub fn trace_restored(&self) {
        for (job, out) in &self.cp.outcomes {
            trace_outcome(&self.tracer, *job, out);
        }
        for (job, q) in self.cp.quarantined.iter().chain(&self.reported) {
            trace_quarantine(&self.tracer, *job, q);
        }
    }

    /// True when `job` is in the universe.
    pub fn check(&self, job: usize) -> Result<(), OutOfScope> {
        if job < self.universe.len() {
            Ok(())
        } else {
            Err(OutOfScope {
                job,
                jobs: self.universe.len(),
            })
        }
    }

    /// Hands `owner` the first `take` pending jobs, in job order. A lease
    /// with a deadline is reclaimed by [`JobLedger::expire`]; one without
    /// is held until its owner reports, releases or dies. Leasing to an
    /// owner that already holds jobs adds to them and replaces its deadline.
    pub fn lease(&mut self, owner: u64, take: usize, until: Option<Instant>) -> Vec<usize> {
        let jobs: Vec<usize> = std::iter::from_fn(|| self.pending.pop_first())
            .take(take)
            .collect();
        if !jobs.is_empty() {
            let entry = self.owners.entry(owner).or_insert(Owner {
                jobs: BTreeSet::new(),
                until,
            });
            entry.jobs.extend(&jobs);
            entry.until = until;
        }
        jobs
    }

    /// True while `owner` holds at least one job.
    pub fn holds(&self, owner: u64) -> bool {
        self.owners.contains_key(&owner)
    }

    /// The jobs `owner` holds, in job order.
    pub fn held_by(&self, owner: u64) -> Vec<usize> {
        self.owners
            .get(&owner)
            .map_or_else(Vec::new, |o| o.jobs.iter().copied().collect())
    }

    /// Accepts one verdict for `job`. A verdict that merges is logged and
    /// synced first (a reported-only one is not logged); a duplicate
    /// changes nothing and is only counted, because the verdict it lost to
    /// is logged already.
    pub fn deliver(&mut self, job: usize, verdict: JobVerdict) -> Result<Delivered, OutOfScope> {
        self.check(job)?;
        if self.resolved_against(job, &verdict) {
            self.duplicates += 1;
            return Ok(Delivered::Duplicate);
        }
        if !reported_only(&verdict) {
            self.log_verdict(job, &verdict);
        }
        self.trace(job, &verdict);
        self.merge(job, verdict);
        Ok(Delivered::Merged)
    }

    /// Records the checkpoint log took after its header so far, and
    /// whether an append failed (after which nothing more was logged).
    pub fn logged(&self) -> (u64, bool) {
        (self.written, self.save_to.is_some() && self.log.is_none())
    }

    /// Appends and syncs the verdict's record (rendered only when there
    /// is a log). The first failure ends the log.
    fn log_verdict(&mut self, job: usize, verdict: &JobVerdict) {
        let Some(log) = self.log.as_mut() else { return };
        let line = match verdict {
            JobVerdict::Completed(outcome) => done_line(job, outcome),
            JobVerdict::Quarantined(record) => quarantine_line(record),
        };
        match log.append(&line).and_then(|()| log.sync()) {
            Ok(()) => self.written += 1,
            Err(e) => self.log_failed(&e),
        }
    }

    fn log_failed(&mut self, e: &std::io::Error) {
        if let Some(log) = self.log.take() {
            eprintln!(
                "[campaign] warning: checkpoint {} stopped taking records ({e}); \
                 the rest of this run is not logged",
                log.path().display()
            );
        }
    }

    /// `owner` let go of its jobs without dying (clean exit, drain): they
    /// return to the pending pool uncharged.
    pub fn release(&mut self, owner: u64) -> Vec<usize> {
        let jobs: Vec<usize> = self
            .owners
            .remove(&owner)
            .map_or_else(Vec::new, |o| o.jobs.into_iter().collect());
        self.pending.extend(&jobs);
        jobs
    }

    /// Releases every owner whose deadline has passed at `now`. The owner
    /// is not presumed dead — it may deliver late, and the duplicate rule
    /// absorbs that — it just no longer holds the jobs.
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, Vec<usize>)> {
        let expired: Vec<u64> = self
            .owners
            .iter()
            .filter(|(_, o)| o.until.is_some_and(|until| now >= until))
            .map(|(id, _)| *id)
            .collect();
        expired
            .into_iter()
            .map(|id| (id, self.release(id)))
            .collect()
    }

    /// `owner` died holding jobs. Each is charged one crash; a job at
    /// `crash_budget` charges is quarantined as `Crash` with `cause(job)`
    /// heading its chain, the others return to the pending pool. While
    /// stopping nothing is charged.
    pub fn owner_died(
        &mut self,
        owner: u64,
        crash_budget: u32,
        cause: impl Fn(usize) -> String,
    ) -> Vec<Charge> {
        let mut charges = Vec::new();
        for job in self.release(owner) {
            if self.stopping {
                charges.push(Charge::Requeued(job));
                continue;
            }
            let count = self.crash_counts.entry(job).or_insert(0);
            *count += 1;
            let count = *count;
            if count < crash_budget {
                charges.push(Charge::Requeued(job));
                continue;
            }
            let record = QuarantineRecord {
                job,
                pmc: Some(self.universe[job]),
                attempts: count,
                kind: FailureKind::Crash,
                chain: vec![
                    cause(job),
                    format!("crash budget ({crash_budget}) exhausted"),
                ],
            };
            let verdict = JobVerdict::Quarantined(record.clone());
            self.log_verdict(job, &verdict);
            self.trace(job, &verdict);
            self.merge(job, verdict);
            charges.push(Charge::Quarantined(record));
        }
        charges
    }

    /// Counts one owner death in the breaker: a death after progress
    /// resets the run of instant deaths, one without extends it.
    pub fn note_death(&mut self, progressed: bool) {
        self.instant_deaths = if progressed {
            0
        } else {
            self.instant_deaths + 1
        };
    }

    /// The current run of deaths without progress.
    pub fn instant_deaths(&self) -> u32 {
        self.instant_deaths
    }

    /// The breaker tripped: every pending job is abandoned as `GaveUp`
    /// (reported, not checkpointed) with `why` as its chain. Returns how
    /// many.
    pub fn abandon(&mut self, why: &str) -> usize {
        let jobs: Vec<usize> = self.pending.iter().copied().collect();
        for job in &jobs {
            let verdict = JobVerdict::Quarantined(QuarantineRecord {
                job: *job,
                pmc: Some(self.universe[*job]),
                attempts: self.crash_counts.get(job).copied().unwrap_or(0),
                kind: FailureKind::GaveUp,
                chain: vec![why.to_owned()],
            });
            self.trace(*job, &verdict);
            self.merge(*job, verdict);
        }
        jobs.len()
    }

    /// Pending jobs.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Verdicts dropped because their job already had one.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Begins winding down: syncs the checkpoint log; deaths from here on
    /// charge nothing.
    pub fn stop(&mut self) {
        self.stopping = true;
        if let Some(Err(e)) = self.log.as_mut().map(FrameLog::sync) {
            self.log_failed(&e);
        }
    }

    /// True once [`JobLedger::stop`] was called.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// Where every job currently is. The four lists partition the universe.
    pub fn census(&self) -> Census {
        Census {
            pending: self.pending.iter().copied().collect(),
            held: self
                .owners
                .values()
                .flat_map(|o| o.jobs.iter().copied())
                .collect(),
            covered: (0..self.universe.len())
                .filter(|job| self.cp.covers(*job))
                .collect(),
            reported: self.reported.keys().copied().collect(),
        }
    }

    /// Replaces the checkpoint log with its compact form, then the report:
    /// outcomes in job order, quarantines from the checkpoint plus the
    /// reported-only verdicts.
    pub fn finish(self) -> SbResult<CampaignReport> {
        if let Some(path) = &self.save_to {
            self.cp.save(path)?;
        }
        let mut quarantined = self.cp.quarantined;
        for (job, q) in self.reported {
            quarantined.entry(job).or_insert(q);
        }
        let mut report = aggregate(self.cp.outcomes.into_values().collect());
        report.quarantined = quarantined.into_values().collect();
        Ok(report)
    }

    /// True when `verdict` would change nothing: the job is covered, or is
    /// reported-only and `verdict` is reported-only too.
    fn resolved_against(&self, job: usize, verdict: &JobVerdict) -> bool {
        self.cp.covers(job) || (self.reported.contains_key(&job) && reported_only(verdict))
    }

    /// Records the verdict of a job nothing resolved yet (see
    /// [`Self::resolved_against`]); a real verdict supersedes a
    /// reported-only one.
    fn merge(&mut self, job: usize, verdict: JobVerdict) {
        let real = !reported_only(&verdict);
        match verdict {
            JobVerdict::Completed(outcome) => {
                self.cp.merge_outcome(job, outcome);
            }
            JobVerdict::Quarantined(record) if real => {
                self.cp.merge_quarantine(record);
            }
            JobVerdict::Quarantined(record) => {
                self.reported.insert(job, record);
            }
        }
        if real {
            self.reported.remove(&job);
        }
        self.pending.remove(&job);
        self.owners.retain(|_, o| {
            o.jobs.remove(&job);
            !o.jobs.is_empty()
        });
    }

    fn trace(&self, job: usize, verdict: &JobVerdict) {
        trace_job_verdict(&self.tracer, job, verdict);
        crate::chaos::attribute_verdict(&self.tracer, &self.fault_plan, job, verdict);
    }
}

fn reported_only(verdict: &JobVerdict) -> bool {
    matches!(
        verdict,
        JobVerdict::Quarantined(q) if q.kind == FailureKind::GaveUp
    )
}

/// Emits the per-job trace record and finding counters for a resolved job —
/// identical whichever transport carried the verdict, so every trace
/// verifies with the same rules.
fn trace_job_verdict(tracer: &sb_obs::Tracer, job: usize, v: &JobVerdict) {
    match v {
        JobVerdict::Completed(out) => trace_outcome(tracer, job, out),
        JobVerdict::Quarantined(q) => trace_quarantine(tracer, job, q),
    }
}

fn trace_outcome(tracer: &sb_obs::Tracer, job: usize, out: &PmcTestOutcome) {
    tracer.emit(&sb_obs::Event::Job {
        t: tracer.now_us(),
        job: job as u64,
        trials: u64::from(out.trials_run),
        steps: out.steps,
        findings: out.findings.len() as u64,
        attempts: u64::from(out.attempts),
        quarantined: false,
    });
    // Per-oracle reported counts: `trace report` cross-checks their sum
    // against the job events' finding totals.
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for f in &out.findings {
        *kinds.entry(f.kind_tag()).or_insert(0) += 1;
    }
    for (kind, n) in kinds {
        tracer.count(&sb_obs::keys::reported(kind), n);
    }
}

fn trace_quarantine(tracer: &sb_obs::Tracer, job: usize, q: &QuarantineRecord) {
    tracer.emit(&sb_obs::Event::Job {
        t: tracer.now_us(),
        job: job as u64,
        trials: 0,
        steps: 0,
        findings: 0,
        attempts: u64::from(q.attempts),
        quarantined: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::journal::JournalRecord;
    use std::time::Duration;

    /// A checkpoint path in a scratch directory of its own, which goes when
    /// the returned guard does.
    fn scratch(tag: &str) -> (proptest::ScratchDir, PathBuf) {
        let dir = proptest::ScratchDir::new(&format!("ledger-{tag}"));
        let path = dir.join("ckpt.json");
        (dir, path)
    }

    fn exemplars(n: u32) -> Vec<PmcId> {
        (0..n).map(|i| i + 100).collect()
    }

    fn done(job: usize, steps: u64) -> JobVerdict {
        JobVerdict::Completed(PmcTestOutcome {
            pmc: Some(job as PmcId + 100),
            pair: (1, 2),
            trials_run: 8,
            exercised: true,
            findings: vec![],
            steps,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        })
    }

    fn quarantine(job: usize, kind: FailureKind) -> JobVerdict {
        JobVerdict::Quarantined(QuarantineRecord {
            job,
            pmc: Some(job as PmcId + 100),
            attempts: 1,
            kind,
            chain: vec!["scripted".into()],
        })
    }

    fn saving_to(path: &Path) -> CampaignCfg {
        CampaignCfg {
            checkpoint: Some(path.to_path_buf()),
            ..CampaignCfg::default()
        }
    }

    fn steps(report: &CampaignReport) -> Vec<u64> {
        report.outcomes.iter().map(|o| o.steps).collect()
    }

    #[test]
    fn the_universe_is_the_budgeted_prefix() {
        let cfg = CampaignCfg {
            max_tested_pmcs: 3,
            ..CampaignCfg::default()
        };
        let ledger = JobLedger::open(&exemplars(5), &cfg, None).unwrap();
        assert_eq!(ledger.universe(), &[100, 101, 102]);
        assert_eq!(ledger.pending(), 3);
        assert!(ledger.check(2).is_ok());
        assert!(ledger.check(3).is_err());
    }

    #[test]
    fn resume_skips_covered_jobs() {
        let (_dir, path) = scratch("resume");
        let mut first = JobLedger::open(&exemplars(3), &saving_to(&path), None).unwrap();
        first.deliver(1, done(1, 11)).unwrap();
        first.finish().unwrap();

        let cfg = CampaignCfg {
            resume_from: Some(path.clone()),
            ..CampaignCfg::default()
        };
        let mut resumed = JobLedger::open(&exemplars(3), &cfg, None).unwrap();
        assert_eq!(resumed.lease(0, usize::MAX, None), vec![0, 2]);
        assert_eq!(resumed.census().covered, vec![1]);
    }

    #[test]
    fn strict_resume_refuses_what_lenient_resume_replaces() {
        let (_dir, path) = scratch("lenient");
        let mut other = JobLedger::open(&exemplars(2), &saving_to(&path), None).unwrap();
        other.deliver(0, done(0, 10)).unwrap();
        other.finish().unwrap();

        // Same file, different universe.
        let strict = CampaignCfg {
            resume_from: Some(path.clone()),
            ..CampaignCfg::default()
        };
        assert!(matches!(
            JobLedger::open(&exemplars(3), &strict, None),
            Err(Error::ResumeMismatch { .. })
        ));
        let lenient = CampaignCfg {
            resume_lenient: true,
            ..strict
        };
        let fresh = JobLedger::open(&exemplars(3), &lenient, None).unwrap();
        assert_eq!(fresh.pending(), 3, "started over");
        // A missing file is tolerated the same way.
        let missing = CampaignCfg {
            resume_from: Some(path.with_extension("gone")),
            ..lenient
        };
        assert!(JobLedger::open(&exemplars(3), &missing, None).is_ok());
    }

    #[test]
    fn first_verdict_wins_and_duplicates_are_counted() {
        let (_dir, path) = scratch("first-wins");
        let mut ledger = JobLedger::open(&exemplars(2), &saving_to(&path), None).unwrap();
        assert_eq!(ledger.deliver(0, done(0, 100)), Ok(Delivered::Merged));
        let logged = std::fs::read(&path).unwrap();
        assert_eq!(ledger.deliver(0, done(0, 999)), Ok(Delivered::Duplicate));
        assert_eq!(
            ledger.deliver(0, quarantine(0, FailureKind::Panic)),
            Ok(Delivered::Duplicate)
        );
        assert_eq!(ledger.duplicates(), 2);
        assert_eq!(ledger.logged(), (1, false), "only the merged verdict");
        assert_eq!(std::fs::read(&path).unwrap(), logged);
        let report = ledger.finish().unwrap();
        assert_eq!(steps(&report), vec![100]);
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn verdicts_outside_the_universe_are_rejected() {
        let (_dir, path) = scratch("foreign");
        let mut ledger = JobLedger::open(&exemplars(2), &saving_to(&path), None).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = ledger.deliver(9, done(9, 1)).unwrap_err();
        assert_eq!(err.to_string(), "job 9 is outside the 2-job universe");
        assert_eq!(std::fs::read(&path).unwrap(), before, "never logged");
        assert_eq!(ledger.logged(), (0, false));
        assert_eq!(ledger.census().covered, Vec::<usize>::new());
        assert!(ledger.finish().unwrap().outcomes.is_empty());
    }

    #[test]
    fn rejected_and_gave_up_are_reported_but_not_checkpointed() {
        let (_dir, path) = scratch("reported");
        let mut ledger = JobLedger::open(&exemplars(4), &saving_to(&path), None).unwrap();
        assert_eq!(ledger.abandon("nobody left"), 4);
        assert_eq!(ledger.census().reported, vec![0, 1, 2, 3]);
        // A second reported-only verdict for such a job is a duplicate; a
        // real one supersedes it.
        assert_eq!(
            ledger.deliver(3, quarantine(3, FailureKind::GaveUp)),
            Ok(Delivered::Duplicate)
        );
        assert_eq!(ledger.deliver(3, done(3, 103)), Ok(Delivered::Merged));
        let report = ledger.finish().unwrap();
        let kinds: Vec<(usize, FailureKind)> =
            report.quarantined.iter().map(|q| (q.job, q.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (0, FailureKind::GaveUp),
                (1, FailureKind::GaveUp),
                (2, FailureKind::GaveUp)
            ]
        );
        assert_eq!(steps(&report), vec![103]);
        let saved = Checkpoint::load(&path).unwrap();
        assert!(saved.quarantined.is_empty(), "a resume retries all three");
        assert_eq!(saved.outcomes.len(), 1);
    }

    #[test]
    fn a_death_charges_held_jobs_and_the_budget_quarantines_them() {
        let (_dir, path) = scratch("crash");
        let mut ledger = JobLedger::open(&exemplars(3), &saving_to(&path), None).unwrap();
        let cause = |job| format!("owner died holding job {job}");

        assert_eq!(ledger.lease(7, 2, None), vec![0, 1]);
        ledger.deliver(0, done(0, 100)).unwrap();
        // Only the job still held is charged; under the budget it requeues.
        assert_eq!(ledger.owner_died(7, 2, cause), vec![Charge::Requeued(1)]);
        assert!(!ledger.holds(7));
        assert_eq!(ledger.census().pending, vec![1, 2]);

        assert_eq!(ledger.lease(8, 1, None), vec![1]);
        let charges = ledger.owner_died(8, 2, cause);
        let [Charge::Quarantined(record)] = charges.as_slice() else {
            panic!("expected a crash quarantine, got {charges:?}")
        };
        assert_eq!(
            (record.job, record.kind, record.attempts),
            (1, FailureKind::Crash, 2)
        );
        assert_eq!(
            record.chain,
            vec![
                "owner died holding job 1".to_owned(),
                "crash budget (2) exhausted".to_owned()
            ]
        );
        // Crash is a real verdict: saved at once, never handed out again.
        assert!(Checkpoint::load(&path)
            .unwrap()
            .quarantined
            .contains_key(&1));
        assert_eq!(ledger.lease(9, usize::MAX, None), vec![2]);
    }

    #[test]
    fn the_breaker_counts_per_domain_and_resets_on_progress() {
        // The domain is the whole campaign.
        let mut ledger = JobLedger::open(&exemplars(4), &CampaignCfg::default(), None).unwrap();
        ledger.note_death(false);
        ledger.note_death(false);
        assert_eq!(ledger.instant_deaths(), 2);
        ledger.note_death(true);
        assert_eq!(
            ledger.instant_deaths(),
            0,
            "a death after progress restarts the run"
        );
        ledger.note_death(false);
        assert_eq!(ledger.instant_deaths(), 1);

        // Abandoning takes the pending jobs only — not a held one — and
        // records how often each had crashed.
        assert_eq!(ledger.lease(2, 1, None), vec![0]);
        assert_eq!(ledger.lease(1, 1, None), vec![1]);
        ledger.owner_died(1, 5, |_| String::new());
        assert_eq!(ledger.abandon("nobody left"), 3);
        assert_eq!(ledger.census().held, vec![0]);
        let report = ledger.finish().unwrap();
        let attempts: Vec<(usize, u32)> = report
            .quarantined
            .iter()
            .map(|q| (q.job, q.attempts))
            .collect();
        assert_eq!(attempts, vec![(1, 1), (2, 0), (3, 0)]);
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.kind == FailureKind::GaveUp));
    }

    #[test]
    fn leases_expire_by_the_injected_clock() {
        let mut ledger = JobLedger::open(&exemplars(3), &CampaignCfg::default(), None).unwrap();
        let t0 = Instant::now();
        let at = |secs| t0 + Duration::from_secs(secs);
        assert_eq!(ledger.lease(1, 2, Some(at(30))), vec![0, 1]);
        assert_eq!(
            ledger.lease(2, 2, None),
            vec![2],
            "no deadline: never expires"
        );
        assert!(ledger.expire(at(29)).is_empty());
        assert_eq!(ledger.expire(at(30)), vec![(1, vec![0, 1])]);
        assert_eq!(ledger.census().pending, vec![0, 1]);
        assert_eq!(ledger.census().held, vec![2]);
        // The old holder's late verdict still merges; the new holder's is
        // then the duplicate.
        assert_eq!(ledger.lease(3, 1, Some(at(90))), vec![0]);
        assert_eq!(ledger.deliver(0, done(0, 100)), Ok(Delivered::Merged));
        assert!(!ledger.holds(3), "the delivery emptied the new lease");
        assert_eq!(ledger.deliver(0, done(0, 999)), Ok(Delivered::Duplicate));
    }

    #[test]
    fn lease_takes_only_pending_jobs() {
        let mut ledger = JobLedger::open(&exemplars(4), &CampaignCfg::default(), None).unwrap();
        ledger.deliver(0, done(0, 100)).unwrap();
        assert_eq!(ledger.lease(1, 1, None), vec![1]);
        // Covered and held by someone else: both skipped.
        assert_eq!(ledger.lease(2, usize::MAX, None), vec![2, 3]);
        assert!(ledger.lease(3, usize::MAX, None).is_empty());
        assert!(!ledger.holds(3), "an empty lease holds nothing");
        // A second lease to one owner adds to what it holds.
        assert_eq!(ledger.release(2), vec![2, 3]);
        assert_eq!(ledger.lease(1, 1, None), vec![2]);
        assert_eq!(ledger.held_by(1), vec![1, 2]);
        assert_eq!(ledger.census().pending, vec![3]);
    }

    #[test]
    fn every_merge_saves_and_finish_saves_last() {
        let saved_outcomes = |path: &Path| Checkpoint::load(path).map(|cp| cp.outcomes.len()).ok();
        let (_dir, path) = scratch("every-merge");
        let mut ledger = JobLedger::open(&exemplars(4), &saving_to(&path), None).unwrap();
        for job in 0..4 {
            assert_eq!(ledger.deliver(job, done(job, 1)), Ok(Delivered::Merged));
            assert_eq!(saved_outcomes(&path), Some(job + 1), "after job {job}");
        }
        std::fs::remove_file(&path).unwrap();
        ledger.finish().unwrap();
        assert_eq!(
            saved_outcomes(&path),
            Some(4),
            "finish is the authoritative save"
        );
        // Nowhere to save: nothing is written, finish still reports.
        let mut ledger = JobLedger::open(&exemplars(1), &CampaignCfg::default(), None).unwrap();
        ledger.deliver(0, done(0, 1)).unwrap();
        assert_eq!(ledger.finish().unwrap().outcomes.len(), 1);
        // A transport's merged checkpoint outranks the configured one.
        let ((_own_dir, own), (_configured_dir, configured)) =
            (scratch("own"), scratch("configured"));
        let ledger = JobLedger::open(&exemplars(1), &saving_to(&configured), Some(&own)).unwrap();
        ledger.finish().unwrap();
        assert!(own.exists() && !configured.exists());
    }

    #[test]
    fn stopping_saves_at_once_and_quarantines_nothing() {
        let (_dir, path) = scratch("stop");
        let mut ledger = JobLedger::open(&exemplars(2), &saving_to(&path), None).unwrap();
        ledger.deliver(0, done(0, 100)).unwrap();
        ledger.lease(1, 1, None);
        let logged = std::fs::read(&path).unwrap();
        ledger.stop();
        assert!(ledger.stopping());
        // Stopping rewrites nothing: the verdict was already on disk.
        assert_eq!(std::fs::read(&path).unwrap(), logged);
        assert_eq!(Checkpoint::load(&path).unwrap().outcomes.len(), 1);
        // Killing the straggler charges nothing, even at a budget of one.
        assert_eq!(
            ledger.owner_died(1, 1, |_| String::new()),
            vec![Charge::Requeued(1)]
        );
        let report = ledger.finish().unwrap();
        assert!(report.quarantined.is_empty());
        assert!(
            !Checkpoint::load(&path).unwrap().covers(1),
            "job 1 is retried on resume"
        );
    }

    #[test]
    fn restored_verdicts_merge_silently_and_are_traced_once() {
        // A run killed before `finish`: its log holds job 0 once (the
        // duplicate is not logged) and not the reported-only job 1.
        let (_dir, path) = scratch("restore");
        let mut killed = JobLedger::open(&exemplars(3), &saving_to(&path), None).unwrap();
        killed.deliver(0, done(0, 100)).unwrap();
        killed.deliver(0, done(0, 999)).unwrap();
        killed
            .deliver(1, quarantine(1, FailureKind::GaveUp))
            .unwrap();
        assert_eq!(killed.logged(), (1, false));
        drop(killed);

        let (tracer, sink) = sb_obs::Tracer::memory();
        let cfg = CampaignCfg {
            tracer,
            resume_from: Some(path.clone()),
            ..CampaignCfg::default()
        };
        let mut ledger = JobLedger::open(&exemplars(3), &cfg, None).unwrap();
        assert_eq!(ledger.duplicates(), 0, "replay counts nothing");
        assert_eq!(ledger.take_replay().verdicts, 1);
        assert_eq!(ledger.lease(0, usize::MAX, None), vec![1, 2]);
        let job_events = |sink: &sb_obs::MemorySink| {
            sink.lines()
                .iter()
                .filter(|l| l.contains("\"job\""))
                .count()
        };
        cfg.tracer.flush();
        assert_eq!(job_events(&sink), 0);
        ledger.trace_restored();
        cfg.tracer.flush();
        assert_eq!(job_events(&sink), 1);
        assert_eq!(steps(&ledger.finish().unwrap()), vec![100]);
    }

    #[test]
    fn each_verdict_appends_one_record() {
        let (_dir, path) = scratch("append");
        let mut ledger = JobLedger::open(&exemplars(3), &saving_to(&path), None).unwrap();
        let mut before = std::fs::read(&path).unwrap();
        for job in 0..3 {
            assert_eq!(
                ledger.deliver(job, done(job, 10 + job as u64)),
                Ok(Delivered::Merged)
            );
            let after = std::fs::read(&path).unwrap();
            assert!(
                after.starts_with(&before),
                "job {job}: the file was rewritten"
            );
            let mut tail = crate::journal::MAGIC.to_vec();
            tail.extend_from_slice(&after[before.len()..]);
            let frames = crate::journal::decode(&tail)
                .unwrap()
                .into_iter()
                .map(|(line, _)| JournalRecord::parse(line).unwrap())
                .collect::<Vec<_>>();
            assert!(
                matches!(frames.as_slice(), [JournalRecord::Done { job: j, .. }] if *j == job),
                "job {job}: {frames:?}"
            );
            before = after;
        }
    }

    #[test]
    fn resume_copies_the_intact_prefix_and_leaves_the_source_alone() {
        let ((_src_dir, src), (_dst_dir, dst)) = (scratch("src"), scratch("dst"));
        let mut first = JobLedger::open(&exemplars(3), &saving_to(&src), None).unwrap();
        first.deliver(0, done(0, 100)).unwrap();
        first.deliver(1, done(1, 101)).unwrap();
        drop(first);
        // Tear the last record: a strict resume keeps the intact prefix.
        let bytes = std::fs::read(&src).unwrap();
        std::fs::write(&src, &bytes[..bytes.len() - 5]).unwrap();
        let torn = std::fs::read(&src).unwrap();
        let cfg = CampaignCfg {
            resume_from: Some(src.clone()),
            ..saving_to(&dst)
        };
        let mut resumed = JobLedger::open(&exemplars(3), &cfg, None).unwrap();
        assert_eq!(
            std::fs::read(&src).unwrap(),
            torn,
            "loading modifies nothing"
        );
        assert_eq!(resumed.take_replay().damaged, 1);
        assert_eq!(resumed.census().covered, vec![0]);
        let copied = std::fs::read(&dst).unwrap();
        assert!(
            torn.starts_with(&copied) && copied.len() < torn.len(),
            "the prefix, cut"
        );
        resumed.deliver(2, done(2, 102)).unwrap();
        assert_eq!(Checkpoint::load(&dst).unwrap().outcomes.len(), 2);
        // A strict resume that fails touches neither file.
        let foreign = CampaignCfg { seed: 1, ..cfg };
        let dst_now = std::fs::read(&dst).unwrap();
        assert!(JobLedger::open(&exemplars(3), &foreign, None).is_err());
        assert_eq!(
            (std::fs::read(&src).unwrap(), std::fs::read(&dst).unwrap()),
            (torn, dst_now)
        );
    }

    #[test]
    fn a_bad_checkpoint_path_fails_before_any_job() {
        let cfg = saving_to(Path::new("/nonexistent/sb-ledger/ckpt.json"));
        assert!(matches!(
            JobLedger::open(&exemplars(1), &cfg, None),
            Err(Error::CheckpointIo { .. })
        ));
    }
}
