//! Concurrent test execution — Algorithm 2's driver loop (§4.4).
//!
//! For each selected PMC (in uncommon-first cluster order): pick one of its
//! test pairs at random, build a concurrent test with the PMC as the
//! scheduling hint, and run up to `NUMBER_OF_TRIALS` trials from the boot
//! snapshot under [`SnowboardSched`]. Each trial reseeds the scheduler
//! (`random.seed(SEED + trial)`), keeps the learned `flags`, feeds every
//! execution to the bug detectors, and opportunistically adds incidental
//! PMCs observed in the trial to the watch set (Algorithm 2 lines 26–27).
//!
//! The driver is fault tolerant, because a campaign sized like the paper's
//! (days of wall clock across a worker fleet) will see individual jobs
//! fail. Per job: a [`Watchdog`] bounds steps and wall-clock time (overrun
//! → [`Error::Hang`]), worker panics are caught and classified, retryable
//! failures get up to [`RetryPolicy::max_attempts`] attempts with
//! exponential backoff and a deterministic per-attempt reseed
//! ([`crate::retry::reseed`] — attempt 0 keeps the historical seed, so
//! clean runs are bit-identical to pre-fault-tolerance builds), and jobs
//! that exhaust their budget land in [`CampaignReport::quarantined`] with a
//! full error chain instead of killing the campaign. Progress checkpoints
//! ([`CheckpointCfg`]) let a killed campaign resume without repeating
//! finished jobs, and a [`FaultPlan`] can inject panics, hangs, transient
//! errors, and queue closure at chosen job indices to exercise all of the
//! above deterministically.
//!
//! The job *lifecycle* — resume, merge, checkpoint cadence, the report —
//! lives in [`crate::ledger`]; this module is the in-process transport
//! (scoped worker threads) plus the code every transport's workers share:
//! [`test_one_pmc`], the retry loop around it, and the process-fault hook
//! remote workers fire before a job.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sb_detect::{Finding, OracleCtx, OracleSet};
use sb_kernel::{BootedKernel, Program};
use sb_vmm::access::AccessKind;
use sb_vmm::replay::{RecordingSched, Schedule};
use sb_vmm::sched::{Scheduler as _, SnowboardSched};
use sb_vmm::site::Site;
use sb_vmm::Executor;

use crate::checkpoint::CheckpointCfg;
use crate::error::{Error, FailureKind, SbResult};
use crate::fault::FaultPlan;
use crate::ledger::{JobLedger, Scope};
use crate::pmc::{Pmc, PmcId, PmcSet};
use crate::retry::{reseed, RetryPolicy};
use crate::triage::{triage, IssueRecord};
use crate::watchdog::{JobBudget, Watchdog};

/// Per-job seed stride: job `i` starts from `seed + i * STRIDE` (golden
/// ratio, so neighboring jobs land in unrelated parts of the seed space).
const JOB_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignCfg {
    /// Base random seed.
    pub seed: u64,
    /// Maximum trials per PMC (the paper uses 64).
    pub trials_per_pmc: u32,
    /// Test budget: how many exemplar PMCs to execute.
    pub max_tested_pmcs: usize,
    /// Worker threads (each owns an executor — a "machine B").
    pub workers: usize,
    /// Stop a PMC's trials at the first detector finding.
    pub stop_on_finding: bool,
    /// Enable incidental-PMC pickup (Algorithm 2 lines 26–27).
    pub incidental: bool,
    /// Which selectable oracles analyze each trial. [`OracleSet::race_only`]
    /// reproduces the pre-oracle-subsystem pipeline bit for bit.
    pub oracles: OracleSet,
    /// Retry policy for transient job failures.
    pub retry: RetryPolicy,
    /// Per-job step/wall-clock budget enforced by the watchdog.
    pub budget: JobBudget,
    /// Periodic progress checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointCfg>,
    /// Resume from this checkpoint file: jobs it covers are not re-run.
    pub resume_from: Option<PathBuf>,
    /// Lenient resume (`--resume-or-fresh`): a missing, corrupt, or
    /// mismatched checkpoint logs a warning and starts fresh instead of
    /// aborting the campaign.
    pub resume_lenient: bool,
    /// Scripted fault injection (empty in production).
    pub fault_plan: FaultPlan,
    /// Force whole-memory (deep) snapshot clones per trial instead of the
    /// copy-on-write fast path. A test reference, not a second production
    /// path: its one user is `tests/tests/cow_campaign.rs`, which pins the
    /// CoW report bit-identical to the deep one; nothing else sets it.
    pub deep_snapshots: bool,
    /// Structured tracer; disabled by default. When enabled, the campaign
    /// emits one `job` event per resolved job, scheduler-decision counters
    /// at job boundaries, and watchdog/retry counters.
    pub tracer: sb_obs::Tracer,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        CampaignCfg {
            seed: 2021,
            trials_per_pmc: 64,
            max_tested_pmcs: usize::MAX,
            workers: 4,
            stop_on_finding: true,
            incidental: true,
            oracles: OracleSet::default(),
            retry: RetryPolicy::default(),
            budget: JobBudget::default(),
            checkpoint: None,
            resume_from: None,
            resume_lenient: false,
            fault_plan: FaultPlan::default(),
            deep_snapshots: false,
            tracer: sb_obs::Tracer::disabled(),
        }
    }
}

/// The outcome of testing one concurrent test (one PMC or one baseline
/// pairing).
#[derive(Clone, Debug, PartialEq)]
pub struct PmcTestOutcome {
    /// The PMC under test (`None` for baseline pairings without hints).
    pub pmc: Option<PmcId>,
    /// The (writer test, reader test) pair executed.
    pub pair: (u32, u32),
    /// Trials actually run.
    pub trials_run: u32,
    /// Whether some trial actually exercised the predicted channel
    /// (write-before-read with value flow) — the §5.3.2 accuracy signal.
    pub exercised: bool,
    /// Detector findings, deduplicated within this test.
    pub findings: Vec<Finding>,
    /// Engine steps consumed across all trials (cost accounting).
    pub steps: u64,
    /// Trial index of the first finding, if any.
    pub first_finding_trial: Option<u32>,
    /// A recorded schedule that reproduces the first finding
    /// deterministically (replay with [`sb_vmm::replay::ReplaySched`]).
    pub repro_schedule: Option<Schedule>,
    /// Attempts it took to complete this job (1 = first try).
    pub attempts: u32,
}

/// A job that failed permanently and was set aside instead of aborting the
/// campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantineRecord {
    /// Campaign job index (position in the budgeted exemplar order).
    pub job: usize,
    /// The PMC the job was testing, if known.
    pub pmc: Option<PmcId>,
    /// Attempts consumed before quarantine (0 = never dispatched).
    pub attempts: u32,
    /// Failure classification.
    pub kind: FailureKind,
    /// Rendered error chain, outermost first.
    pub chain: Vec<String>,
}

/// Aggregated campaign results.
///
/// `PartialEq` is deliberate: equivalence tests pin entire reports
/// bit-identical across execution modes (copy-on-write vs deep snapshots,
/// supervised vs in-process).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Per-test outcomes, in test order.
    pub outcomes: Vec<PmcTestOutcome>,
    /// Distinct issues discovered, in discovery order, triaged against the
    /// ground-truth registry.
    pub issues: Vec<IssueRecord>,
    /// Total engine steps across the campaign.
    pub total_steps: u64,
    /// Total executions (trials) across the campaign.
    pub executions: u64,
    /// Jobs that failed permanently, in job order. A non-empty list means
    /// the campaign completed *despite* failures, not that it failed.
    pub quarantined: Vec<QuarantineRecord>,
    /// Profile/PMC store counters, when the pipeline ran against a persistent
    /// store (`None` for in-memory runs).
    pub store: Option<crate::metrics::StoreStats>,
    /// Process-supervision counters, when the campaign ran under the
    /// multi-process supervisor (`None` for in-process runs).
    pub supervise: Option<crate::metrics::SuperviseStats>,
    /// Fleet-fabric counters, when the campaign ran under a TCP
    /// coordinator (`None` otherwise).
    pub fleet: Option<crate::metrics::FleetStats>,
}

impl CampaignReport {
    /// Number of concurrent tests executed.
    pub fn tested(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of tests that exercised their predicted channel.
    pub fn exercised(&self) -> usize {
        self.outcomes.iter().filter(|o| o.exercised).count()
    }

    /// PMC accuracy (§5.3.2): exercised / tested.
    pub fn accuracy(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.exercised() as f64 / self.tested() as f64
        }
    }

    /// The distinct ground-truth bug ids found.
    pub fn bug_ids(&self) -> Vec<u8> {
        let mut ids: Vec<u8> = self.issues.iter().filter_map(|i| i.bug_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Post-dedup finding counts per oracle kind tag, across all outcomes
    /// (the `[detect]` summary and CI per-oracle assertions read this).
    pub fn finding_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for o in &self.outcomes {
            for f in &o.findings {
                *counts.entry(f.kind_tag()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Findings that deduplicated to an already-known issue across the
    /// campaign: total per-outcome findings minus distinct issues.
    pub fn duplicate_findings(&self) -> u64 {
        let total: u64 = self.finding_counts().values().sum();
        total.saturating_sub(self.issues.len() as u64)
    }

    /// Quarantined-job counts per failure kind, for summary lines.
    pub fn quarantine_histogram(&self) -> Vec<(FailureKind, usize)> {
        let mut counts: BTreeMap<&'static str, (FailureKind, usize)> = BTreeMap::new();
        for q in &self.quarantined {
            counts.entry(q.kind.tag()).or_insert((q.kind, 0)).1 += 1;
        }
        counts.into_values().collect()
    }
}

/// Index from write-side instruction to PMC ids, used for fast incidental
/// PMC lookup during trials.
pub struct IncidentalIndex {
    by_write_site: HashMap<Site, Vec<PmcId>>,
}

impl IncidentalIndex {
    /// Builds the index over a PMC set.
    pub fn build(set: &PmcSet) -> Self {
        let mut by_write_site: HashMap<Site, Vec<PmcId>> = HashMap::new();
        for (id, p) in set.pmcs.iter().enumerate() {
            by_write_site
                .entry(p.key.w.ins)
                .or_default()
                .push(id as PmcId);
        }
        IncidentalIndex { by_write_site }
    }
}

/// Checks whether a trial trace exercised the PMC: a writer-thread write
/// matching the write side, followed by a reader-thread read matching the
/// read side that observed the written value over the overlap.
pub fn channel_exercised(trace: &[sb_vmm::Access], pmc: &Pmc) -> bool {
    let [hw, hr] = pmc.hints();
    let writes: Vec<&sb_vmm::Access> = trace
        .iter()
        .filter(|a| a.thread == 0 && hw.matches(a))
        .collect();
    if writes.is_empty() {
        return false;
    }
    trace
        .iter()
        .filter(|r| r.thread == 1 && hr.matches(r))
        .any(|r| {
            writes.iter().any(|w| {
                if w.seq >= r.seq {
                    return false;
                }
                match sb_vmm::access::range_overlap(w.addr, w.len, r.addr, r.len) {
                    Some((start, len)) => {
                        w.project_value(start, len) == r.project_value(start, len)
                    }
                    None => false,
                }
            })
        })
}

/// Scans a trial trace for PMCs (other than those already watched) whose
/// write *and* read sides both appeared, returning one at random.
fn find_incidental_pmc(
    trace: &[sb_vmm::Access],
    set: &PmcSet,
    index: &IncidentalIndex,
    watched: &mut std::collections::HashSet<PmcId>,
    rng: &mut StdRng,
) -> Option<PmcId> {
    const MAX_CANDIDATES: usize = 256;
    let mut candidates: Vec<PmcId> = Vec::new();
    let mut seen_sites = std::collections::HashSet::new();
    for a in trace.iter().filter(|a| a.kind == AccessKind::Write) {
        if !seen_sites.insert(a.site) {
            continue;
        }
        if let Some(ids) = index.by_write_site.get(&a.site) {
            for id in ids {
                if candidates.len() >= MAX_CANDIDATES {
                    break;
                }
                if !watched.contains(id) {
                    candidates.push(*id);
                }
            }
        }
    }
    candidates.retain(|id| {
        let p = set.get(*id);
        let [hw, hr] = p.hints();
        trace.iter().any(|a| hw.matches(a)) && trace.iter().any(|a| hr.matches(a))
    });
    let pick = candidates.choose(rng).copied();
    if let Some(id) = pick {
        watched.insert(id);
    }
    pick
}

/// Tests one PMC: the inner loop of Algorithm 2.
///
/// The watchdog is checked between trials (the finest boundary that keeps
/// replays deterministic); an overrun aborts the job with [`Error::Hang`].
#[allow(clippy::too_many_arguments)]
pub fn test_one_pmc(
    exec: &mut Executor,
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    index: &IncidentalIndex,
    id: PmcId,
    seed: u64,
    cfg: &CampaignCfg,
    dog: &Watchdog,
) -> SbResult<PmcTestOutcome> {
    let pmc = set.get(id);
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = *pmc
        .pairs
        .choose(&mut rng)
        .ok_or(Error::EmptyPmc { pmc: id })?;
    let fetch = |test: u32| -> SbResult<Program> {
        corpus
            .get(test as usize)
            .cloned()
            .ok_or(Error::BadTestId {
                test,
                corpus: corpus.len(),
            })
    };
    let wprog = fetch(pair.0)?;
    let rprog = fetch(pair.1)?;
    let mut sched = SnowboardSched::new(seed, pmc.hints());
    // Aggregate scheduler decisions in atomics; published as a handful of
    // counter events when the job ends — never one trace line per access.
    let decisions = Arc::new(sb_obs::CountingObserver::new());
    if cfg.tracer.enabled() {
        sched.set_observer(Some(decisions.clone() as Arc<dyn sb_vmm::sched::DecisionObserver>));
    }
    let mut watched: std::collections::HashSet<PmcId> = [id].into_iter().collect();
    let mut out = PmcTestOutcome {
        pmc: Some(id),
        pair,
        trials_run: 0,
        exercised: false,
        findings: Vec::new(),
        steps: 0,
        first_finding_trial: None,
        repro_schedule: None,
        attempts: 1,
    };
    let mut dedup = std::collections::HashSet::new();
    // Per-job oracle state: the lock-rule miner accumulates support across
    // this job's trials, so rules mined from early trials can flag
    // violations in later ones.
    let mut oracle_ctx = OracleCtx::new(cfg.oracles);
    // Snapshot accounting for this job: how many times the boot image was
    // cloned and how many 4 KiB pages trials actually dirtied. Published as
    // `snapshot.*` counters alongside the scheduler decisions.
    let mut snap_clones = 0u64;
    let mut snap_pages = 0u64;
    // Per-trial snapshot: the copy-on-write clone is an Arc bump; the deep
    // variant is the full-image copy `cow_campaign.rs` compares it against.
    let take_snapshot = |clones: &mut u64| {
        *clones += 1;
        if cfg.deep_snapshots {
            booted.snapshot.deep_clone()
        } else {
            booted.snapshot.clone()
        }
    };
    for trial in 0..cfg.trials_per_pmc {
        if let Some(overrun) = dog.check(out.steps) {
            decisions.publish(&cfg.tracer);
            publish_snapshot_counters(&cfg.tracer, snap_clones, snap_pages);
            return Err(Error::Hang {
                steps: overrun.steps,
                elapsed: overrun.elapsed,
                trials_run: out.trials_run,
                tripped: overrun.reason.tag(),
            });
        }
        // Checkpoint the scheduler (flags included) so a finding trial can
        // be re-run under a recorder for deterministic reproduction.
        let sched_checkpoint = sched.clone();
        sched.begin_trial(seed.wrapping_add(u64::from(trial)));
        let r = exec.try_run(
            take_snapshot(&mut snap_clones),
            vec![
                booted.kernel.process_job(wprog.clone()),
                booted.kernel.process_job(rprog.clone()),
            ],
            &mut sched,
        )?;
        snap_pages += r.mem.dirty_pages();
        out.trials_run += 1;
        out.steps += r.report.steps;
        out.exercised |= channel_exercised(&r.report.trace, pmc);
        let findings = oracle_ctx.analyze_traced(&r.report, &cfg.tracer);
        let mut found_new = false;
        for f in findings {
            if dedup.insert(f.dedup_key()) {
                out.findings.push(f);
                found_new = true;
            }
        }
        if found_new && out.first_finding_trial.is_none() {
            out.first_finding_trial = Some(trial);
            // Re-run this exact trial from the checkpoint under a recorder
            // to capture a portable reproduction schedule (§6). The replica
            // must not report decisions — the trial already counted them.
            let mut replica = sched_checkpoint;
            replica.set_observer(None);
            replica.begin_trial(seed.wrapping_add(u64::from(trial)));
            let mut recorder = RecordingSched::new(replica);
            let rerun = exec.try_run(
                take_snapshot(&mut snap_clones),
                vec![
                    booted.kernel.process_job(wprog.clone()),
                    booted.kernel.process_job(rprog.clone()),
                ],
                &mut recorder,
            )?;
            snap_pages += rerun.mem.dirty_pages();
            let (schedule, _) = recorder.finish();
            out.repro_schedule = Some(schedule);
        }
        if found_new && cfg.stop_on_finding {
            break;
        }
        if cfg.incidental {
            if let Some(new_id) =
                find_incidental_pmc(&r.report.trace, set, index, &mut watched, &mut rng)
            {
                sched.add_pmc(set.get(new_id).hints());
            }
        }
    }
    decisions.publish(&cfg.tracer);
    publish_snapshot_counters(&cfg.tracer, snap_clones, snap_pages);
    Ok(out)
}

/// Emits the per-job snapshot accounting as `snapshot.*` counters.
fn publish_snapshot_counters(tracer: &sb_obs::Tracer, clones: u64, pages: u64) {
    tracer.count(sb_obs::keys::SNAPSHOT_CLONES, clones);
    tracer.count(sb_obs::keys::SNAPSHOT_PAGES_COPIED, pages);
}

/// What one campaign job resolved to after all retry attempts.
#[derive(Clone, Debug)]
pub enum JobVerdict {
    /// The job completed and produced an outcome.
    Completed(PmcTestOutcome),
    /// The job failed permanently and was set aside.
    Quarantined(QuarantineRecord),
}

/// Everything a job runs against, borrowed from the prepared pipeline.
#[derive(Clone, Copy)]
pub(crate) struct JobEnv<'a> {
    pub booted: &'a BootedKernel,
    pub corpus: &'a [Program],
    pub set: &'a PmcSet,
    pub index: &'a IncidentalIndex,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one job to a verdict: attempt, classify, retry or quarantine.
///
/// `exec` is the worker's executor. It keeps no state between runs, so it
/// survives a failed or panicked attempt as it is.
pub(crate) fn run_one_job(
    exec: &mut Executor,
    env: JobEnv<'_>,
    job: usize,
    id: PmcId,
    cfg: &CampaignCfg,
) -> JobVerdict {
    let base_seed = cfg
        .seed
        .wrapping_add((job as u64).wrapping_mul(JOB_SEED_STRIDE));
    let mut attempts = 0u32;
    loop {
        let attempt = attempts;
        attempts += 1;
        if attempt > 0 {
            std::thread::sleep(cfg.retry.backoff_traced(attempt, &cfg.tracer));
        }
        let seed = reseed(base_seed, attempt);
        let result = catch_unwind(AssertUnwindSafe(|| -> SbResult<PmcTestOutcome> {
            if cfg.fault_plan.should_panic(job) {
                crate::chaos::fired("job.panic", &format!("job {job} attempt {attempt}"));
                panic!("fault injection: forced worker panic on job {job}");
            }
            if cfg.fault_plan.should_fail_transiently(job, attempt) {
                crate::chaos::fired("job.transient", &format!("job {job} attempt {attempt}"));
                return Err(Error::Injected { attempt });
            }
            let mut dog = Watchdog::start_traced(cfg.budget, &cfg.tracer);
            if cfg.fault_plan.should_hang(job) {
                crate::chaos::fired("job.hang", &format!("job {job} attempt {attempt}"));
                dog.force_expired();
            }
            test_one_pmc(exec, env.booted, env.corpus, env.set, env.index, id, seed, cfg, &dog)
        }));
        let err = match result {
            Ok(Ok(mut out)) => {
                out.attempts = attempts;
                return JobVerdict::Completed(out);
            }
            Ok(Err(e)) => e,
            Err(payload) => Error::WorkerPanic {
                message: panic_message(payload),
            },
        };
        if !err.is_retryable() || attempts >= cfg.retry.max_attempts {
            return JobVerdict::Quarantined(QuarantineRecord {
                job,
                pmc: Some(id),
                attempts,
                kind: err.failure_kind(),
                chain: err.chain(),
            });
        }
    }
}

/// The job-running half of a remote worker process (a supervised shard or
/// a fleet joiner). Process-level faults belong to the process boundary,
/// so they fire here, before the job, from the *full* plan; the job itself
/// runs under a config stripped to the in-process faults and with tracing
/// off — the parent emits every trace event from the merged result stream.
pub(crate) struct RemoteJobs<'a> {
    env: JobEnv<'a>,
    faults: &'a FaultPlan,
    job_cfg: CampaignCfg,
}

impl<'a> RemoteJobs<'a> {
    pub(crate) fn new(env: JobEnv<'a>, cfg: &'a CampaignCfg) -> Self {
        let mut job_cfg = cfg.clone();
        job_cfg.fault_plan = cfg.fault_plan.in_process();
        job_cfg.tracer = sb_obs::Tracer::disabled();
        RemoteJobs { env, faults: &cfg.fault_plan, job_cfg }
    }

    /// Fires `job`'s process faults, then runs it. `before_stall` runs
    /// just before a stalled worker parks forever (the supervised worker
    /// silences its heartbeat there).
    pub(crate) fn run(
        &self,
        exec: &mut Executor,
        job: usize,
        id: PmcId,
        before_stall: impl FnOnce(),
    ) -> JobVerdict {
        if self.faults.should_abort(job) {
            crate::chaos::fired("proc.abort", &format!("job {job}"));
            std::process::abort();
        }
        if let Some(code) = self.faults.exit_code(job) {
            crate::chaos::fired("proc.exit", &format!("job {job} code {code}"));
            std::process::exit(code);
        }
        if self.faults.should_stall(job) {
            crate::chaos::fired("proc.stall", &format!("job {job}"));
            before_stall();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        run_one_job(exec, self.env, job, id, &self.job_cfg)
    }
}

/// Runs a full campaign over an ordered exemplar list.
///
/// Never aborts on per-job failure: jobs that exhaust their retry budget
/// appear in [`CampaignReport::quarantined`]. Returns `Err` only for
/// campaign-level problems — an unreadable/foreign resume checkpoint, or a
/// final checkpoint write failure.
pub fn run_campaign(
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
) -> SbResult<CampaignReport> {
    let index = IncidentalIndex::build(set);
    let env = JobEnv { booted, corpus, set, index: &index };
    let _campaign_span = cfg.tracer.span("campaign");
    let mut ledger = JobLedger::open(exemplars, cfg, None)?;
    ledger.trace_restored();
    if let Some(cut) = cfg.fault_plan.close_queue_before {
        ledger.close_from(cut);
    }
    let jobs: Vec<(usize, PmcId)> = ledger
        .lease(0, Scope::All, usize::MAX, None)
        .into_iter()
        .map(|job| (job, ledger.universe()[job]))
        .collect();
    drive(&mut ledger, &jobs, cfg.workers, |exec, job, id| {
        run_one_job(exec, env, job, id, cfg)
    });
    ledger.finish()
}

/// The in-process transport: `workers` scoped threads, one executor each,
/// run `jobs` and stream every verdict back to the ledger as it lands.
fn drive(
    ledger: &mut JobLedger,
    jobs: &[(usize, PmcId)],
    workers: usize,
    work: impl Fn(&mut Executor, usize, PmcId) -> JobVerdict + Sync,
) {
    crate::pool::stream_jobs(
        jobs,
        workers,
        || Executor::new(2),
        |exec, (job, id)| work(exec, *job, *id),
        |slot, verdict| {
            ledger
                .deliver(Scope::All, jobs[slot].0, verdict)
                .expect("leased jobs are in the universe");
        },
    );
}

/// Aggregates per-test outcomes into a campaign report (shared with the
/// baselines).
pub fn aggregate(outcomes: Vec<PmcTestOutcome>) -> CampaignReport {
    let mut report = CampaignReport::default();
    let mut seen = std::collections::HashSet::new();
    let mut cumulative_steps = 0u64;
    for (i, o) in outcomes.iter().enumerate() {
        cumulative_steps += o.steps;
        report.executions += u64::from(o.trials_run);
        for f in &o.findings {
            if seen.insert(f.dedup_key()) {
                report.issues.push(IssueRecord {
                    bug_id: triage(f),
                    key: f.dedup_key(),
                    example: f.clone(),
                    found_after_tests: i + 1,
                    found_after_steps: cumulative_steps,
                });
            }
        }
    }
    report.total_steps = cumulative_steps;
    report.outcomes = outcomes;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        pair: (u32, u32),
        trials: u32,
        steps: u64,
        exercised: bool,
        findings: Vec<Finding>,
    ) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: None,
            pair,
            trials_run: trials,
            exercised,
            findings,
            steps,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    #[test]
    fn aggregate_dedups_across_tests_and_keeps_discovery_order() {
        let race = Finding::DataRace {
            write_site: "cache_alloc_refill:stat_write".into(),
            other_site: "cache_alloc_refill:stat_read".into(),
            addr: 0x40,
        };
        let panic = Finding::KernelPanic {
            msg: "BUG: kernel NULL pointer dereference at bh_lock_sock:acquire".into(),
        };
        let report = aggregate(vec![
            outcome((0, 1), 4, 100, true, vec![race.clone()]),
            outcome((2, 3), 4, 100, false, vec![race.clone(), panic.clone()]),
            outcome((4, 5), 4, 100, false, vec![panic]),
        ]);
        assert_eq!(report.issues.len(), 2, "duplicates collapse");
        assert_eq!(report.issues[0].bug_id, Some(13));
        assert_eq!(report.issues[0].found_after_tests, 1);
        assert_eq!(report.issues[1].bug_id, Some(12));
        assert_eq!(report.issues[1].found_after_tests, 2);
        assert_eq!(report.issues[1].found_after_steps, 200);
        assert_eq!(report.executions, 12);
        assert_eq!(report.total_steps, 300);
        assert_eq!(report.bug_ids(), vec![12, 13]);
        assert!((report.accuracy() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_campaign_reports_cleanly() {
        let report = aggregate(vec![]);
        assert_eq!(report.tested(), 0);
        assert_eq!(report.accuracy(), 0.0);
        assert!(report.bug_ids().is_empty());
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn the_in_process_transport_keeps_the_first_verdict_of_a_redelivered_job() {
        // The thread pool never runs a job twice on its own; hand it job 0
        // twice to pin what the ledger does when a transport re-delivers.
        let mut ledger = JobLedger::open(&[7, 8], &CampaignCfg::default(), None).unwrap();
        let calls = std::sync::atomic::AtomicU64::new(0);
        drive(&mut ledger, &[(0, 7), (0, 7), (1, 8)], 1, |_, job, _| {
            let nth = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            JobVerdict::Completed(outcome((job as u32, 0), 1, 100 + nth, false, vec![]))
        });
        assert_eq!(ledger.duplicates(), 1);
        let report = ledger.finish().unwrap();
        let steps: Vec<u64> = report.outcomes.iter().map(|o| o.steps).collect();
        assert_eq!(steps, vec![100, 102], "job 0 kept its first verdict");
    }

    #[test]
    fn quarantine_histogram_groups_by_kind() {
        let mk = |job, kind| QuarantineRecord {
            job,
            pmc: None,
            attempts: 1,
            kind,
            chain: vec![],
        };
        let report = CampaignReport {
            quarantined: vec![
                mk(0, FailureKind::Panic),
                mk(1, FailureKind::Hang),
                mk(2, FailureKind::Panic),
            ],
            ..CampaignReport::default()
        };
        let hist = report.quarantine_histogram();
        assert!(hist.contains(&(FailureKind::Panic, 2)));
        assert!(hist.contains(&(FailureKind::Hang, 1)));
    }
}
