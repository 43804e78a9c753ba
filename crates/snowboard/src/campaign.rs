//! Concurrent test execution — Algorithm 2's driver loop (§4.4).
//!
//! For each selected PMC (in uncommon-first cluster order): pick one of its
//! test pairs at random, build a concurrent test with the PMC as the
//! scheduling hint, and run up to `NUMBER_OF_TRIALS` trials from the boot
//! snapshot under [`SnowboardSched`]. Each trial reseeds the scheduler
//! (`random.seed(SEED + trial)`), keeps the learned `flags`, feeds every
//! execution to the bug detectors, and opportunistically adds incidental
//! PMCs observed in the trial to the watch set (Algorithm 2 lines 26–27).
//! The scheduler runs inside a [`RecordingSched`] throughout, so the
//! schedule that reproduces a finding (§6) is copied out of the trial that
//! made it — a finding costs no second execution.
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
//! ([`CampaignCfg::checkpoint`]) let a killed campaign resume without repeating
//! finished jobs, and a [`FaultPlan`] can inject panics, hangs, transient
//! errors, and queue closure at chosen job indices to exercise all of the
//! above deterministically.
//!
//! The job *lifecycle* — resume, merge, checkpoint, the report —
//! lives in [`crate::ledger`]; this module is the in-process transport
//! (the calling thread plus scoped helpers) plus the code every transport's
//! workers share:
//! [`test_one_pmc`], the retry loop around it, and the process-fault hook
//! remote workers fire before a job.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sb_detect::{Finding, OracleCtx, OracleSet};
use sb_kernel::{BootedKernel, Program};
use sb_vmm::replay::{RecordingSched, Schedule};
use sb_vmm::rng::SplitMix64;
use sb_vmm::sched::{HintAccess, Scheduler as _, SnowboardSched};
use sb_vmm::site::Site;
use sb_vmm::Executor;

use crate::error::{Error, FailureKind, SbResult};
use crate::fault::FaultPlan;
use crate::ledger::JobLedger;
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
    /// Which selectable oracles analyze each trial. The corpus does not
    /// depend on it: every selection hunts the same programs.
    pub oracles: OracleSet,
    /// Retry policy for transient job failures.
    pub retry: RetryPolicy,
    /// Per-job step/wall-clock budget enforced by the watchdog.
    pub budget: JobBudget,
    /// Checkpoint file: an append-only log; each verdict is appended and
    /// synced before it is merged, and the log is compacted once at the
    /// end. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint file: jobs it covers are not re-run.
    pub resume_from: Option<PathBuf>,
    /// Lenient resume (`--resume-or-fresh`): a missing, corrupt, or
    /// mismatched checkpoint logs a warning and starts fresh instead of
    /// aborting the campaign.
    pub resume_lenient: bool,
    /// Scripted fault injection (empty in production).
    pub fault_plan: FaultPlan,
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
/// fleet vs in-process).
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

/// Index from write-side instruction to PMCs, used for fast incidental PMC
/// lookup during trials.
pub struct IncidentalIndex {
    /// The write-side instructions of the set, ascending, each with its run
    /// in `pmcs`.
    sites: Vec<(Site, std::ops::Range<usize>)>,
    /// Every PMC's id and hints, grouped by write-side instruction and by
    /// ascending id within a group: what a scan reads, in the order it
    /// reads it, instead of a walk across the [`PmcSet`].
    pmcs: Vec<(PmcId, [HintAccess; 2])>,
}

impl IncidentalIndex {
    /// Builds the index over a PMC set.
    pub fn build(set: &PmcSet) -> Self {
        let mut pmcs: Vec<(PmcId, [HintAccess; 2])> = set
            .pmcs
            .iter()
            .enumerate()
            .map(|(id, p)| (id as PmcId, p.hints()))
            .collect();
        pmcs.sort_unstable_by_key(|(id, [hw, _])| (hw.site, *id));
        let mut sites = Vec::new();
        let mut start = 0;
        for run in pmcs.chunk_by(|(_, [a, _]), (_, [b, _])| a.site == b.site) {
            sites.push((run[0].1[0].site, start..start + run.len()));
            start += run.len();
        }
        IncidentalIndex { sites, pmcs }
    }

    /// The PMCs whose write side is instruction `site`, by ascending id.
    fn written_by(&self, site: Site) -> &[(PmcId, [HintAccess; 2])] {
        match self.sites.binary_search_by_key(&site, |(s, _)| *s) {
            Ok(n) => &self.pmcs[self.sites[n].1.clone()],
            Err(_) => &[],
        }
    }
}

/// Checks whether a trial trace exercised the PMC: a writer-thread write
/// matching the write side, followed by a reader-thread read matching the
/// read side that observed the written value over the overlap.
pub fn channel_exercised(trace: &[sb_vmm::Access], pmc: &Pmc) -> bool {
    let [hw, hr] = pmc.hints();
    trace
        .iter()
        .filter(|r| r.thread == 1 && hr.matches(r))
        .any(|r| {
            trace
                .iter()
                .filter(|w| w.thread == 0 && w.seq < r.seq && hw.matches(w))
                .any(
                    |w| match sb_vmm::access::range_overlap(w.addr, w.len, r.addr, r.len) {
                        Some((start, len)) => {
                            w.project_value(start, len) == r.project_value(start, len)
                        }
                        None => false,
                    },
                )
        })
}

/// The reads, or the writes, of one trial trace as the incidental lookup
/// sees them, chained by the low byte of the instruction's hash: a hint is
/// held against the few accesses that can be its instruction's, not all.
#[derive(Default)]
struct SeenBySite {
    /// Per low byte of a [`Site`]: one past the index in `seen` of the last
    /// access pushed whose instruction has it, 0 for none. 256 entries.
    heads: Vec<u32>,
    /// (instruction, start, end, the head this access replaced).
    seen: Vec<(Site, u64, u64, u32)>,
}

impl SeenBySite {
    fn clear(&mut self) {
        self.heads.clear();
        self.heads.resize(256, 0);
        self.seen.clear();
    }

    fn push(&mut self, a: &sb_vmm::Access) {
        let head = &mut self.heads[(a.site.0 & 255) as usize];
        self.seen.push((a.site, a.addr, a.end(), *head));
        *head = self.seen.len() as u32;
    }

    /// The accesses chained with `site`'s, latest first.
    fn chain(&self, site: Site) -> impl Iterator<Item = &(Site, u64, u64, u32)> {
        let mut at = self.heads[(site.0 & 255) as usize];
        std::iter::from_fn(move || {
            let seen = self.seen.get((at as usize).checked_sub(1)?)?;
            at = seen.3;
            Some(seen)
        })
    }

    /// True if some access is of `h`'s instruction and overlaps its range.
    fn any_match(&self, h: &HintAccess) -> bool {
        self.chain(h.site)
            .any(|s| s.0 == h.site && h.addr < s.2 && s.1 < h.end())
    }
}

/// Per-job state of the incidental-PMC pickup (Algorithm 2 lines 26–27):
/// the PMCs already watched, and the buffers one trial's scan fills.
#[derive(Default)]
struct IncidentalScan {
    /// One bit per [`PmcId`], set while watched; grown to the highest id set.
    watched: Vec<u64>,
    /// The writes and the reads of the last trace scanned.
    writes: SeenBySite,
    reads: SeenBySite,
    /// Its write instructions, in order of first execution.
    write_sites: Vec<Site>,
    /// Its unwatched PMCs whose write *and* read side both appeared.
    candidates: Vec<PmcId>,
}

impl IncidentalScan {
    /// Adds `id` to the watched PMCs.
    fn watch(&mut self, id: PmcId) {
        let word = id as usize / 64;
        if self.watched.len() <= word {
            self.watched.resize(word + 1, 0);
        }
        self.watched[word] |= 1 << (id % 64);
    }

    fn is_watched(&self, id: PmcId) -> bool {
        self.watched
            .get(id as usize / 64)
            .is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    /// Scans a trial trace for PMCs (other than those already watched) whose
    /// write *and* read sides both appeared, and returns one at random,
    /// now watched.
    ///
    /// PMCs are considered by write instruction in order of first execution,
    /// then by id; only the first `MAX_CANDIDATES` unwatched ones are looked
    /// at, whether or not their sides appeared. The answer depends on which
    /// (instruction, range) accesses the trace holds, not on their order or
    /// number, so nothing here sorts.
    fn pick(
        &mut self,
        trace: &[sb_vmm::Access],
        index: &IncidentalIndex,
        rng: &mut SplitMix64,
    ) -> Option<PmcId> {
        const MAX_CANDIDATES: usize = 256;
        self.writes.clear();
        self.reads.clear();
        self.write_sites.clear();
        for a in trace {
            if a.kind.is_write() {
                if !self.writes.chain(a.site).any(|s| s.0 == a.site) {
                    self.write_sites.push(a.site);
                }
                self.writes.push(a);
            } else {
                self.reads.push(a);
            }
        }
        self.candidates.clear();
        let mut unwatched = 0;
        'sites: for site in &self.write_sites {
            for (id, [hw, hr]) in index.written_by(*site) {
                if unwatched >= MAX_CANDIDATES {
                    break 'sites;
                }
                if self.is_watched(*id) {
                    continue;
                }
                unwatched += 1;
                if self.writes.any_match(hw) && self.reads.any_match(hr) {
                    self.candidates.push(*id);
                }
            }
        }
        let pick = rng.choose(&self.candidates).copied();
        if let Some(id) = pick {
            self.watch(id);
        }
        pick
    }
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
    run_trials(exec, booted, corpus, set, index, id, seed, cfg, dog).map(|(out, ..)| out)
}

/// [`test_one_pmc`], also handing back the scheduler and the job's random
/// stream as the last trial left them: the differential test holds both
/// against a job that ran without the recorder.
#[allow(clippy::too_many_arguments)]
fn run_trials(
    exec: &mut Executor,
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    index: &IncidentalIndex,
    id: PmcId,
    seed: u64,
    cfg: &CampaignCfg,
    dog: &Watchdog,
) -> SbResult<(PmcTestOutcome, SnowboardSched, SplitMix64)> {
    let pmc = set.get(id);
    let mut rng = SplitMix64::new(seed);
    let pair = *rng.choose(&pmc.pairs).ok_or(Error::EmptyPmc { pmc: id })?;
    // One copy of each program per job; its trials share it.
    let fetch = |test: u32| -> SbResult<Arc<Program>> {
        corpus
            .get(test as usize)
            .cloned()
            .map(Arc::new)
            .ok_or(Error::BadTestId {
                test,
                corpus: corpus.len(),
            })
    };
    let wprog = fetch(pair.0)?;
    let rprog = fetch(pair.1)?;
    // Recording every trial is a push per decision; what it buys is that a
    // finding's reproduction schedule is already there when the oracle
    // speaks, instead of one more execution away.
    let mut sched = RecordingSched::new(SnowboardSched::new(seed, pmc.hints()));
    // Aggregate scheduler decisions in atomics; published as a handful of
    // counter events when the job ends — never one trace line per access.
    let decisions = Arc::new(sb_obs::CountingObserver::new());
    if cfg.tracer.enabled() {
        sched.set_observer(Some(
            decisions.clone() as Arc<dyn sb_vmm::sched::DecisionObserver>
        ));
    }
    let mut incidental = IncidentalScan::default();
    incidental.watch(id);
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
    let the_pair = || {
        vec![
            booted.kernel.process_job_shared(wprog.clone()),
            booted.kernel.process_job_shared(rprog.clone()),
        ]
    };
    // What the job cost, published as counters when it ends: boot-image
    // clones, 4 KiB pages trials dirtied, and (traced runs only) wall clock
    // per phase, from here on.
    let mut costs = JobCosts::start(&cfg.tracer);
    for trial in 0..cfg.trials_per_pmc {
        if let Some(overrun) = dog.check(out.steps) {
            decisions.publish(&cfg.tracer);
            costs.publish(&cfg.tracer);
            return Err(Error::Hang {
                steps: overrun.steps,
                elapsed: overrun.elapsed,
                trials_run: out.trials_run,
                tripped: overrun.reason.tag(),
            });
        }
        // The copy-on-write clone shares the whole boot image and copies
        // nothing until a trial writes.
        let snapshot = booted.snapshot.clone();
        costs.clones += 1;
        costs.lap(Phase::Snapshot);
        sched.restart();
        sched
            .inner_mut()
            .begin_trial(seed.wrapping_add(u64::from(trial)));
        let r = exec.try_run(snapshot, the_pair(), &mut sched)?;
        costs.pages += r.mem.dirty_pages();
        costs.lap(Phase::Run);
        out.trials_run += 1;
        out.steps += r.report.steps;
        out.exercised = out.exercised || channel_exercised(&r.report.trace, pmc);
        let mut found_new = false;
        for f in oracle_ctx.analyze_traced(&r.report, &cfg.tracer) {
            if dedup.insert(f.dedup_key()) {
                out.findings.push(f);
                found_new = true;
            }
        }
        if found_new && out.first_finding_trial.is_none() {
            out.first_finding_trial = Some(trial);
            // A portable reproduction schedule (§6): this trial's.
            out.repro_schedule = Some(sched.schedule().clone());
        }
        costs.lap(Phase::Oracle);
        let stop = found_new && cfg.stop_on_finding;
        if cfg.incidental && !stop {
            if let Some(new_id) = incidental.pick(&r.report.trace, index, &mut rng) {
                sched.inner_mut().add_pmc(set.get(new_id).hints());
            }
            costs.lap(Phase::Incidental);
        }
        // The next run records into this one's buffers.
        exec.recycle(r);
        costs.lap(Phase::Run);
        if stop {
            break;
        }
    }
    decisions.publish(&cfg.tracer);
    costs.publish(&cfg.tracer);
    Ok((out, sched.finish().1, rng))
}

/// The phases a job's trials are made of, in
/// [`sb_obs::keys::TRIAL_PHASE_NS`] order.
#[derive(Copy, Clone)]
enum Phase {
    /// Cloning the boot snapshot.
    Snapshot,
    /// The executor's: reseeding the scheduler, building the two thread
    /// bodies, the run itself, and taking its buffers back.
    Run,
    /// Judging the trial: channel check, oracles, dedup, and keeping the
    /// schedule of a first finding.
    Oracle,
    /// The incidental-PMC pickup.
    Incidental,
}

/// Per-job cost accounting, published as `snapshot.*` and `trial.*_ns`
/// counters when the job ends.
struct JobCosts {
    /// Boot-image clones taken.
    clones: u64,
    /// 4 KiB pages the trials dirtied.
    pages: u64,
    /// When the last phase ended. `None` unless the tracer is enabled, so
    /// an untraced campaign never reads a clock per trial.
    lap_started: Option<Instant>,
    /// Nanoseconds per [`Phase`].
    phase_ns: [u64; sb_obs::keys::TRIAL_PHASE_NS.len()],
}

impl JobCosts {
    fn start(tracer: &sb_obs::Tracer) -> Self {
        JobCosts {
            clones: 0,
            pages: 0,
            lap_started: tracer.enabled().then(Instant::now),
            phase_ns: Default::default(),
        }
    }

    /// Ends a phase: everything since the previous call (or `start`) was
    /// `phase`, so the phases of a job add up to its trial loop exactly.
    fn lap(&mut self, phase: Phase) {
        if let Some(started) = &mut self.lap_started {
            let now = Instant::now();
            self.phase_ns[phase as usize] += now.duration_since(*started).as_nanos() as u64;
            *started = now;
        }
    }

    fn publish(&self, tracer: &sb_obs::Tracer) {
        tracer.count(sb_obs::keys::SNAPSHOT_CLONES, self.clones);
        tracer.count(sb_obs::keys::SNAPSHOT_PAGES_COPIED, self.pages);
        for (key, ns) in sb_obs::keys::TRIAL_PHASE_NS.iter().zip(self.phase_ns) {
            tracer.count(key, ns);
        }
    }
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
            test_one_pmc(
                exec, env.booted, env.corpus, env.set, env.index, id, seed, cfg, &dog,
            )
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
    let env = JobEnv {
        booted,
        corpus,
        set,
        index: &index,
    };
    let _campaign_span = cfg.tracer.span("campaign");
    let mut ledger = JobLedger::open(exemplars, cfg, None)?;
    ledger.trace_restored();
    let jobs: Vec<(usize, PmcId)> = ledger
        .lease(0, usize::MAX, None)
        .into_iter()
        .map(|job| (job, ledger.universe()[job]))
        .collect();
    drive(&mut ledger, &jobs, cfg.workers, |exec, job, id| {
        run_one_job(exec, env, job, id, cfg)
    });
    ledger.finish()
}

/// The in-process transport: `workers` threads — the calling one and scoped
/// helpers — one executor each, run `jobs` and hand every verdict to the
/// ledger as it lands.
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
                .deliver(jobs[slot].0, verdict)
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
    use crate::pmc::{PmcKey, SideKey};
    use sb_vmm::access::AccessKind;

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

    /// The incidental pickup the obvious way: every candidate PMC tested
    /// with two linear scans of the trace. Returns the surviving candidates
    /// and the pick.
    fn naive_pick(
        trace: &[sb_vmm::Access],
        set: &PmcSet,
        watched: &mut Vec<PmcId>,
        rng: &mut SplitMix64,
    ) -> (Vec<PmcId>, Option<PmcId>) {
        let mut candidates: Vec<PmcId> = Vec::new();
        let mut seen_sites = Vec::new();
        for a in trace.iter().filter(|a| a.kind.is_write()) {
            if seen_sites.contains(&a.site) {
                continue;
            }
            seen_sites.push(a.site);
            for (id, p) in set.pmcs.iter().enumerate() {
                let id = id as PmcId;
                if p.key.w.ins == a.site && candidates.len() < 256 && !watched.contains(&id) {
                    candidates.push(id);
                }
            }
        }
        candidates.retain(|id| {
            let [hw, hr] = set.get(*id).hints();
            trace.iter().any(|a| hw.matches(a)) && trace.iter().any(|a| hr.matches(a))
        });
        let pick = rng.choose(&candidates).copied();
        watched.extend(pick);
        (candidates, pick)
    }

    /// Generated PMC sets and traces over a few instructions and a few
    /// cache lines of addresses — ranges that overlap, abut and miss, a set
    /// with enough PMCs on one write instruction that the 256-candidate cut
    /// drops PMCs both of whose sides appeared, a few accesses far longer
    /// than a guest access can be, instructions whose accesses share a chain
    /// — and a sequence of scans per set over one watch set that grows past
    /// its first word. The scan must list the same candidates in the same
    /// order and, from an equal `SplitMix64`, pick the same one, every time.
    #[test]
    fn incidental_scan_matches_the_naive_two_scan_filter() {
        // Eight instructions, the last two chained with the first two:
        // `Site` is a hash, so build the equal low bytes by hand.
        let mut sites: Vec<Site> = (0..6)
            .map(|i| Site::intern(&format!("inc:site{i}")))
            .collect();
        sites.extend([Site(sites[0].0 ^ 0x100), Site(sites[1].0 ^ 0xAB00)]);
        let mut state = SplitMix64::new(0x1AC1_DE47);
        let (mut picked, mut cut, mut long_hits, mut chained) = (0, 0, 0, 0);
        for round in 0..40 {
            let crowded = round % 8 == 0;
            let side = |r: u64| SideKey {
                // A crowded set has most of its writes on one instruction.
                ins: if crowded && r & 3 != 0 {
                    sites[0]
                } else {
                    sites[(r >> 2) as usize % 8]
                },
                addr: 0x2000 + (r >> 8) % 96,
                len: 1 + ((r >> 16) % 8) as u8,
                value: r >> 24,
            };
            let set = PmcSet {
                pmcs: (0..if crowded { 700 } else { 90 })
                    .map(|_| Pmc {
                        key: PmcKey {
                            w: side(state.next_u64()),
                            r: side(state.next_u64()),
                        },
                        df_leader: false,
                        pairs: vec![(0, 1)],
                    })
                    .collect(),
            };
            let index = IncidentalIndex::build(&set);
            let mut scan = IncidentalScan::default();
            let mut watched = Vec::new();
            let mut rng = SplitMix64::new(round);
            let mut naive_rng = SplitMix64::new(round);
            for _ in 0..24 {
                let trace: Vec<sb_vmm::Access> = (0..state.next_u64() % 70)
                    .map(|seq| {
                        let r = state.next_u64();
                        sb_vmm::Access {
                            seq,
                            thread: (r & 1) as usize,
                            site: sites[(r >> 1) as usize % 8],
                            kind: [AccessKind::Read, AccessKind::Write][(r >> 4 & 1) as usize],
                            addr: 0x2000 + (r >> 8) % 96,
                            // Now and then far past 8 bytes: `matches` takes
                            // any `u8`, so the scan must too.
                            len: if r >> 20 & 31 == 0 {
                                200
                            } else {
                                1 + ((r >> 16) % 8) as u8
                            },
                            value: 0,
                            atomic: false,
                            locks: vec![].into(),
                            rcu_depth: 0,
                        }
                    })
                    .collect();
                // What the cut costs: a PMC the scan would have listed, had
                // it been allowed to look at it.
                let appeared = |id: &PmcId| {
                    let [hw, hr] = set.get(*id).hints();
                    trace.iter().any(|a| hw.matches(a)) && trace.iter().any(|a| hr.matches(a))
                };
                let ids = 0..set.pmcs.len() as PmcId;
                let uncut = ids
                    .filter(|id| !watched.contains(id) && appeared(id))
                    .count();
                let (candidates, pick) = naive_pick(&trace, &set, &mut watched, &mut naive_rng);
                assert_eq!(scan.pick(&trace, &index, &mut rng), pick, "round {round}");
                assert_eq!(scan.candidates, candidates, "round {round}");
                for id in 0..set.pmcs.len() as PmcId + 70 {
                    assert_eq!(
                        scan.is_watched(id),
                        watched.contains(&id),
                        "round {round} PMC {id}"
                    );
                }
                picked += usize::from(pick.is_some());
                cut += usize::from(uncut > candidates.len());
                long_hits += usize::from(candidates.iter().any(|id| {
                    let [hw, hr] = set.get(*id).hints();
                    let only_long =
                        |h: &HintAccess| !trace.iter().any(|a| a.len <= 8 && h.matches(a));
                    only_long(&hw) || only_long(&hr)
                }));
                // A read instruction the trace lacks whose chain another one
                // started: walking it must tell the two apart.
                let reads = |s: Site| trace.iter().any(|a| !a.kind.is_write() && a.site == s);
                let pairs = [(0, 6), (6, 0), (1, 7), (7, 1)];
                chained += usize::from(
                    pairs
                        .iter()
                        .any(|(a, b)| reads(sites[*a]) && !reads(sites[*b])),
                );
            }
            assert!(
                watched.iter().any(|id| *id >= 64) && watched.len() >= 12,
                "round {round}: {watched:?}"
            );
        }
        assert!(picked >= 600, "only {picked} scans picked anything");
        assert!(
            cut >= 60,
            "only {cut} scans lost a candidate to the 256 cut"
        );
        assert!(
            long_hits >= 10,
            "only {long_hits} scans owed a candidate to an over-long access"
        );
        assert!(
            chained >= 100,
            "only {chained} scans chained a present instruction with an absent one"
        );
    }

    /// What a job did before its scheduler ran inside the recorder: copy the
    /// scheduler ahead of every trial and, when a trial is the first to find
    /// something, execute it a second time from the copy under a fresh
    /// [`RecordingSched`]. The reference the inline recording is held
    /// against; no watchdog, no cost accounting.
    fn test_one_pmc_by_rerun(
        exec: &mut Executor,
        p: &crate::Pipeline,
        index: &IncidentalIndex,
        id: PmcId,
        seed: u64,
        cfg: &CampaignCfg,
    ) -> (PmcTestOutcome, SnowboardSched, SplitMix64) {
        let pmc = p.pmcs.get(id);
        let mut rng = SplitMix64::new(seed);
        let pair = *rng.choose(&pmc.pairs).expect("a PMC has a pair");
        let the_pair = || {
            [pair.0, pair.1]
                .map(|test| p.booted.kernel.process_job(p.corpus[test as usize].clone()))
                .into()
        };
        let mut sched = SnowboardSched::new(seed, pmc.hints());
        let decisions = Arc::new(sb_obs::CountingObserver::new());
        if cfg.tracer.enabled() {
            sched.set_observer(Some(decisions.clone()));
        }
        let mut incidental = IncidentalScan::default();
        incidental.watch(id);
        let mut out = outcome(pair, 0, 0, false, vec![]);
        out.pmc = Some(id);
        let mut dedup = std::collections::HashSet::new();
        let mut oracle_ctx = OracleCtx::new(cfg.oracles);
        for trial in 0..cfg.trials_per_pmc {
            let checkpoint = sched.clone();
            let trial_seed = seed.wrapping_add(u64::from(trial));
            sched.begin_trial(trial_seed);
            let r = exec.run(p.booted.snapshot.clone(), the_pair(), &mut sched);
            out.trials_run += 1;
            out.steps += r.report.steps;
            out.exercised |= channel_exercised(&r.report.trace, pmc);
            let mut found_new = false;
            for f in oracle_ctx.analyze(&r.report) {
                if dedup.insert(f.dedup_key()) {
                    out.findings.push(f);
                    found_new = true;
                }
            }
            if found_new && out.first_finding_trial.is_none() {
                out.first_finding_trial = Some(trial);
                // The replica must not report decisions — the trial already
                // counted them.
                let mut replica = checkpoint;
                replica.set_observer(None);
                replica.begin_trial(trial_seed);
                let mut recorder = RecordingSched::new(replica);
                exec.run(p.booted.snapshot.clone(), the_pair(), &mut recorder);
                out.repro_schedule = Some(recorder.finish().0);
            }
            let stop = found_new && cfg.stop_on_finding;
            if cfg.incidental && !stop {
                if let Some(new_id) = incidental.pick(&r.report.trace, index, &mut rng) {
                    sched.add_pmc(p.pmcs.get(new_id).hints());
                }
            }
            if stop {
                break;
            }
        }
        decisions.publish(&cfg.tracer);
        (out, sched, rng)
    }

    /// The `sched.*` totals of a memory trace.
    fn sched_counters(sink: &sb_obs::MemorySink) -> Vec<(&'static str, u64)> {
        let lines = sink.lines();
        let trace = sb_obs::TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        use sb_obs::keys::*;
        [
            SCHED_HINT_HITS,
            SCHED_VOLUNTARY,
            SCHED_FORCED,
            SCHED_PICKS,
            INCIDENTAL_PMCS,
        ]
        .map(|key| (key, trace.counter(key)))
        .into()
    }

    /// Recording inside the trial against re-running the finding trial under
    /// a recorder: four seeds, `all` and `race`, both kernel versions, the
    /// `hunt` shape (stop on the first finding) and the `trials-hot` one
    /// (keep going, so trials run after the schedule was taken). Every
    /// outcome — `repro_schedule` included — must be equal, and so must what
    /// the recorder could have disturbed: the flags learned, the scheduler's
    /// and the job's random streams, and, traced, the decisions the observer
    /// counted through the wrapper.
    #[test]
    fn inline_recording_matches_rerunning_the_finding_trial() {
        use sb_kernel::KernelConfig;
        use sb_vmm::sched::Scheduler;
        let (mut jobs, mut schedules, mut hits) = (0, 0, 0);
        for (n, seed) in [2021u64, 7, 424_242, 90_210].into_iter().enumerate() {
            for oracles in [OracleSet::all(), OracleSet::race_only()] {
                for config in [KernelConfig::v5_12_rc3(), KernelConfig::v5_3_10()] {
                    let p = crate::Pipeline::prepare(
                        config,
                        crate::PipelineCfg {
                            seed,
                            corpus_target: 60,
                            fuzz_budget: 900,
                            workers: 1,
                            ..Default::default()
                        },
                    );
                    let index = IncidentalIndex::build(&p.pmcs);
                    let exemplars = p.exemplars(
                        crate::Strategy::SInsPair,
                        crate::select::ClusterOrder::UncommonFirst,
                    );
                    let (tracer, sink) = sb_obs::Tracer::memory();
                    let (ref_tracer, ref_sink) = sb_obs::Tracer::memory();
                    let traced = n % 2 == 1;
                    let cfg = |tracer: &sb_obs::Tracer| CampaignCfg {
                        trials_per_pmc: 12,
                        stop_on_finding: n < 2,
                        oracles,
                        tracer: if traced {
                            tracer.clone()
                        } else {
                            sb_obs::Tracer::disabled()
                        },
                        ..CampaignCfg::default()
                    };
                    let (cfg, ref_cfg) = (cfg(&tracer), cfg(&ref_tracer));
                    let mut exec = Executor::new(2);
                    for (job, id) in exemplars.iter().take(40).enumerate() {
                        let job_seed =
                            seed.wrapping_add((job as u64).wrapping_mul(JOB_SEED_STRIDE));
                        let dog = Watchdog::start(cfg.budget);
                        let (out, mut sched, mut rng) = run_trials(
                            &mut exec, &p.booted, &p.corpus, &p.pmcs, &index, *id, job_seed, &cfg,
                            &dog,
                        )
                        .expect("no job fails");
                        let (ref_out, mut ref_sched, mut ref_rng) =
                            test_one_pmc_by_rerun(&mut exec, &p, &index, *id, job_seed, &ref_cfg);
                        let at = format!("seed {seed} {} {config:?} job {job}", oracles.to_spec());
                        assert_eq!(out, ref_out, "{at}");
                        assert_eq!(sched.flag_count(), ref_sched.flag_count(), "{at}");
                        for _ in 0..4 {
                            assert_eq!(
                                sched.pick(0, &[0, 1, 2, 3]),
                                ref_sched.pick(0, &[0, 1, 2, 3]),
                                "{at}"
                            );
                            assert_eq!(
                                rng.gen_range(0..u64::MAX),
                                ref_rng.gen_range(0..u64::MAX),
                                "{at}"
                            );
                        }
                        jobs += 1;
                        schedules += usize::from(out.repro_schedule.is_some_and(|s| !s.is_empty()));
                    }
                    let counted = sched_counters(&sink);
                    assert_eq!(counted, sched_counters(&ref_sink), "seed {seed} {config:?}");
                    hits += counted[0].1;
                    assert_eq!(
                        counted[0].1 > 0,
                        traced,
                        "hint hits reach the observer when traced"
                    );
                }
            }
        }
        assert!(
            jobs >= 400 && schedules >= 200,
            "{jobs} jobs, {schedules} with a schedule"
        );
        assert!(
            hits > 1000,
            "only {hits} hint hits observed through the recorder"
        );
    }

    /// A job as it was judged before this module and `sb_detect` looked only
    /// at what a trial can have changed: the race scan over every candidate
    /// access sorted by address, every race rendered every trial, the channel
    /// check collecting its writes every trial, exercised or not, and
    /// [`naive_pick`] for the pickup. The lock-rule miner and the two sync
    /// oracles are the crate's own. Also returns the raw detector hits.
    fn test_one_pmc_judging_everything(
        exec: &mut Executor,
        p: &crate::Pipeline,
        id: PmcId,
        seed: u64,
        cfg: &CampaignCfg,
    ) -> (PmcTestOutcome, SnowboardSched, SplitMix64, u64) {
        use sb_vmm::exec::Outcome;
        let pmc = p.pmcs.get(id);
        let [hw, hr] = pmc.hints();
        let mut rng = SplitMix64::new(seed);
        let pair = *rng.choose(&pmc.pairs).expect("a PMC has a pair");
        let the_pair = || {
            [pair.0, pair.1]
                .map(|test| p.booted.kernel.process_job(p.corpus[test as usize].clone()))
                .into()
        };
        let mut sched = RecordingSched::new(SnowboardSched::new(seed, pmc.hints()));
        let mut watched = vec![id];
        let mut out = outcome(pair, 0, 0, false, vec![]);
        out.pmc = Some(id);
        let mut dedup = std::collections::HashSet::new();
        let mut miner = sb_detect::RuleMiner::new();
        let mut raw_hits = 0;
        for trial in 0..cfg.trials_per_pmc {
            sched.restart();
            sched
                .inner_mut()
                .begin_trial(seed.wrapping_add(u64::from(trial)));
            let r = exec.run(p.booted.snapshot.clone(), the_pair(), &mut sched);
            let (report, trace) = (&r.report, &r.report.trace);
            out.trials_run += 1;
            out.steps += report.steps;
            let writes: Vec<&sb_vmm::Access> = trace
                .iter()
                .filter(|a| a.thread == 0 && hw.matches(a))
                .collect();
            out.exercised |= trace
                .iter()
                .filter(|r| r.thread == 1 && hr.matches(r))
                .any(|r| {
                    writes.iter().any(|w| {
                        w.seq < r.seq
                            && sb_vmm::access::range_overlap(w.addr, w.len, r.addr, r.len)
                                .is_some_and(|(at, len)| {
                                    w.project_value(at, len) == r.project_value(at, len)
                                })
                    })
                });
            let mut findings = match &report.outcome {
                Outcome::Panic { msg } => vec![Finding::KernelPanic { msg: msg.clone() }],
                Outcome::Deadlock => vec![Finding::Deadlock],
                Outcome::Livelock => vec![Finding::Livelock],
                Outcome::Completed => vec![],
            };
            findings.extend(sb_detect::scan_console(&report.console));
            if cfg.oracles.race {
                let mut sorted: Vec<&sb_vmm::Access> = trace
                    .iter()
                    .filter(|a| !sb_vmm::mem::is_stack_addr(a.addr))
                    .collect();
                sorted.sort_by_key(|a| a.addr);
                let mut seen = std::collections::HashSet::new();
                for (i, a) in sorted.iter().enumerate() {
                    for b in sorted[i + 1..].iter().take_while(|b| b.addr < a.end()) {
                        let racing = a.thread != b.thread
                            && (a.kind.is_write() || b.kind.is_write())
                            && !(a.atomic && b.atomic)
                            && a.overlaps(b)
                            && !a.shares_lock_with(b)
                            && a.seq.abs_diff(b.seq) <= sb_detect::race::PROXIMITY_WINDOW;
                        let (w, o) = if a.kind.is_write() { (a, b) } else { (b, a) };
                        if racing && seen.insert((w.site.min(o.site), w.site.max(o.site), b.addr)) {
                            findings.push(Finding::DataRace {
                                write_site: w.site.display_name(),
                                other_site: o.site.display_name(),
                                addr: b.addr,
                            });
                        }
                    }
                }
            }
            if cfg.oracles.lockrule {
                miner.observe(report);
                findings.extend(miner.new_violations());
            }
            if cfg.oracles.wakeup {
                findings.extend(sb_detect::detect_missed_wakeups(&report.sync_events));
            }
            if cfg.oracles.atomic {
                findings.extend(sb_detect::detect_sleep_in_atomic(&report.sync_events));
            }
            raw_hits += findings.len() as u64;
            let mut found_new = false;
            for f in findings {
                if dedup.insert(f.dedup_key()) {
                    out.findings.push(f);
                    found_new = true;
                }
            }
            if found_new && out.first_finding_trial.is_none() {
                out.first_finding_trial = Some(trial);
                out.repro_schedule = Some(sched.schedule().clone());
            }
            let stop = found_new && cfg.stop_on_finding;
            if cfg.incidental && !stop {
                if let (_, Some(new_id)) = naive_pick(trace, &p.pmcs, &mut watched, &mut rng) {
                    sched.inner_mut().add_pmc(p.pmcs.get(new_id).hints());
                }
            }
            if stop {
                break;
            }
        }
        (out, sched.finish().1, rng, raw_hits)
    }

    /// The judged half of a job — race scan across thread switches, a race
    /// rendered once per job, the channel check skipped once exercised, the
    /// chained pickup — against a job that judges everything every trial, on
    /// the shape no command line reaches: the `trials-hot` one (16 trials
    /// whatever they find, pickup on, every oracle), four seeds, the first 64
    /// S-INS-PAIR exemplars of each. Equal outcomes — findings in order, first
    /// finding trial, reproduction schedule, steps, exercised — equal flags
    /// learned, equal next draws of both random streams, and as many raw
    /// detector hits counted as the reference returned.
    #[test]
    fn a_job_is_judged_as_when_every_trial_was_judged_in_full() {
        use sb_vmm::sched::Scheduler;
        let (mut findings, mut exercised, mut pickups, mut repeats) = (0, 0, 0, 0);
        for seed in [2021u64, 7, 31_337, 60_606] {
            let p = crate::Pipeline::prepare(
                sb_kernel::KernelConfig::v5_12_rc3(),
                crate::PipelineCfg {
                    seed,
                    corpus_target: 100,
                    fuzz_budget: 1500,
                    workers: 1,
                    ..Default::default()
                },
            );
            let index = IncidentalIndex::build(&p.pmcs);
            let order = crate::select::ClusterOrder::UncommonFirst;
            let exemplars = p.exemplars(crate::Strategy::SInsPair, order);
            let (tracer, sink) = sb_obs::Tracer::memory();
            let cfg = CampaignCfg {
                seed,
                trials_per_pmc: 16,
                stop_on_finding: false,
                tracer,
                ..CampaignCfg::default()
            };
            let mut exec = Executor::new(2);
            let mut raw_hits = 0;
            for (job, id) in exemplars.iter().take(64).enumerate() {
                let job_seed = seed.wrapping_add((job as u64).wrapping_mul(JOB_SEED_STRIDE));
                let dog = Watchdog::start(cfg.budget);
                let (out, mut sched, mut rng) = run_trials(
                    &mut exec, &p.booted, &p.corpus, &p.pmcs, &index, *id, job_seed, &cfg, &dog,
                )
                .expect("no job fails");
                let (ref_out, mut ref_sched, mut ref_rng, hits) =
                    test_one_pmc_judging_everything(&mut exec, &p, *id, job_seed, &cfg);
                let at = format!("seed {seed} job {job}");
                assert_eq!(out, ref_out, "{at}");
                assert_eq!(sched.flag_count(), ref_sched.flag_count(), "{at}");
                assert_eq!(
                    sched.pick(0, &[0, 1, 2, 3]),
                    ref_sched.pick(0, &[0, 1, 2, 3]),
                    "{at}"
                );
                assert_eq!(
                    rng.gen_range(0..u64::MAX),
                    ref_rng.gen_range(0..u64::MAX),
                    "{at}"
                );
                raw_hits += hits;
                findings += out.findings.len() as u64;
                exercised += u64::from(out.exercised);
            }
            let lines = sink.lines();
            let trace = sb_obs::TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
            assert_eq!(
                trace.counter(sb_obs::keys::FINDINGS),
                raw_hits,
                "seed {seed}"
            );
            pickups += trace.counter(sb_obs::keys::INCIDENTAL_PMCS);
            repeats += raw_hits;
        }
        repeats -= findings;
        assert!(
            findings >= 200 && repeats >= 2000,
            "{findings} findings kept, {repeats} repeats"
        );
        assert!(
            exercised >= 40 && pickups >= 2000,
            "{exercised} jobs exercised, {pickups} pickups"
        );
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
