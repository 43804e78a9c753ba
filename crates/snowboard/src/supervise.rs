//! Process-isolated campaign execution: a crash-proof worker pool.
//!
//! The in-process pool (PR 1) survives worker *panics*, but a kernel-fuzzing
//! campaign also sees failures Rust cannot unwind from: `abort()`, OOM
//! kills, stack overflow, a wedged loop that never reaches a watchdog
//! check. This module runs the campaign across real OS processes: the CLI
//! re-execs itself as N worker children, each running the deterministic
//! shard `job % N == shard` of the budgeted job list and streaming
//! [`WorkerMsg`] JSONL over stdout. The supervisor ([`run_supervised`])
//! feeds what they report into the same [`JobLedger`] the single-process
//! campaign drives, so a clean supervised run aggregates **bit-identically**
//! to `run_campaign` over the same exemplars.
//!
//! The lifecycle rules (merge, crash budget, breaker, checkpoint cadence)
//! are the ledger's; this module is the transport:
//!
//! * **Heartbeats** — a worker that sends nothing (not even a heartbeat)
//!   for longer than [`SuperviseCfg::heartbeat_timeout`] is presumed wedged,
//!   killed, and handled as a crash.
//! * **Crash attribution** — the `start` message marks the job held by its
//!   shard; a death before its `done`/`quarantine` charges exactly that
//!   job against [`SuperviseCfg::crash_budget`].
//! * **Protocol violations** — a line that fails validation, or a result
//!   for a job outside the worker's shard, gets the worker killed and its
//!   death handled as a crash.
//! * **Restart backoff** — respawns wait `base * 2^(n-1)` clamped to
//!   `backoff_max`, plus a deterministic splitmix64 jitter derived from
//!   `(campaign seed, shard, respawn count)` — no wall-clock entropy.
//! * **Circuit breaker** — the breaker domain is the shard:
//!   [`SuperviseCfg::max_instant_deaths`] consecutive deaths with zero
//!   completed jobs abandon what is left of it.
//! * **Graceful shutdown** — when [`SuperviseCfg::stop_file`] appears, the
//!   checkpoint is flushed immediately, workers get one heartbeat interval
//!   to exit on their own stop-file poll, stragglers are killed, and
//!   nothing is quarantined.
//! * **No orphans** — every child is held by a kill-on-drop guard; even a
//!   supervisor panic reaps the pool and flushes the checkpoint first.

use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sb_kernel::{BootedKernel, Program};
use sb_vmm::Executor;

use crate::campaign::{
    CampaignCfg, CampaignReport, IncidentalIndex, JobEnv, JobVerdict, RemoteJobs,
};
use crate::error::{Error, SbResult};
use crate::ledger::{JobLedger, Scope};
use crate::metrics::SuperviseStats;
use crate::pmc::{PmcId, PmcSet};
use crate::protocol::WorkerMsg;
use crate::retry::reseed;

/// Supervisor tuning. Defaults suit production; tests shrink every timing
/// knob to milliseconds.
#[derive(Clone, Debug)]
pub struct SuperviseCfg {
    /// Worker processes (= shards). Job `i` belongs to shard `i % workers`.
    pub workers: usize,
    /// Kill a worker heard from not at all for this long.
    pub heartbeat_timeout: Duration,
    /// Supervisor tick: stop-file polls, respawn deadlines, timeout checks.
    pub poll: Duration,
    /// First respawn delay; doubles per consecutive respawn.
    pub backoff_base: Duration,
    /// Ceiling on the exponential respawn delay (before jitter).
    pub backoff_max: Duration,
    /// Worker deaths charged to one job before it is quarantined as
    /// [`crate::error::FailureKind::Crash`].
    pub crash_budget: u32,
    /// Consecutive zero-completion deaths before a shard is abandoned.
    pub max_instant_deaths: u32,
    /// Graceful-shutdown trigger: stop when this file exists.
    pub stop_file: Option<PathBuf>,
    /// The supervisor's merged checkpoint — saved before every (re)spawn so
    /// children resume past covered jobs, and after every result.
    pub checkpoint: PathBuf,
}

impl Default for SuperviseCfg {
    fn default() -> Self {
        SuperviseCfg {
            workers: 4,
            heartbeat_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: std::env::temp_dir().join("sb-supervise.json"),
        }
    }
}

/// Respawn delay before respawn `n` (1-based) of `shard`: exponential
/// backoff clamped at `backoff_max`, plus up to 25% deterministic jitter
/// derived from the campaign seed — identical inputs always wait the same.
pub fn respawn_backoff(cfg: &SuperviseCfg, seed: u64, shard: usize, respawn: u64) -> Duration {
    let shift = respawn.saturating_sub(1).min(20) as u32;
    let grown = cfg
        .backoff_base
        .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
    let capped = grown.min(cfg.backoff_max);
    let quarter_ms = capped.as_millis() as u64 / 4;
    let jitter_ms = if quarter_ms == 0 {
        0
    } else {
        reseed(seed ^ ((shard as u64) << 32), respawn as u32) % (quarter_ms + 1)
    };
    capped + Duration::from_millis(jitter_ms)
}

/// A child process reaped (kill + wait) on drop, so no exit path — panic
/// included — leaks a worker.
struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    fn new(child: Child) -> Self {
        ChildGuard { child: Some(child) }
    }

    fn kill(&mut self) {
        if let Some(c) = &mut self.child {
            let _ = c.kill();
        }
    }

    /// Reaps the child, returning its exit status (None if already reaped
    /// or wait failed).
    fn reap(&mut self) -> Option<ExitStatus> {
        self.child.take().and_then(|mut c| c.wait().ok())
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
        let _ = self.reap();
    }
}

/// What a reader thread forwards for its worker.
enum Note {
    Msg(WorkerMsg),
    /// A line that failed strict protocol validation.
    Bad(String),
    /// The worker's stdout closed (it died or is about to).
    Eof,
}

#[derive(Debug, PartialEq)]
enum Phase {
    Running,
    /// Waiting out the respawn backoff until the deadline.
    Backoff(Instant),
    Done,
}

struct ShardState {
    /// The shard's jobs; its index doubles as its ledger owner id.
    scope: Scope,
    phase: Phase,
    guard: Option<ChildGuard>,
    /// Spawn generation; messages from dead readers are discarded by it.
    gen: u64,
    last_msg: Instant,
    completed_since_spawn: u64,
    respawns: u64,
    said_bye: Option<bool>,
    hb_killed: bool,
    proto_error: Option<String>,
}

impl ShardState {
    /// A worker speaking garbage is as untrustworthy as a dead one: kill
    /// it and let the Eof path handle the crash.
    fn violation(&mut self, detail: String) {
        self.proto_error = Some(detail);
        if let Some(guard) = &mut self.guard {
            guard.kill();
        }
    }
}

/// Runs a campaign over `exemplars` across `scfg.workers` child processes,
/// spawning each shard with `spawn(shard)` (the CLI passes a closure that
/// re-execs the current binary with a hidden `--worker-shard` flag; tests
/// pass `/bin/sh` scripts).
///
/// Like [`crate::campaign::run_campaign`], per-job failures never surface
/// as `Err` — they land in [`CampaignReport::quarantined`]. `Err` means a
/// campaign-level problem: an unusable resume checkpoint, a checkpoint
/// write failure, or a worker that could not be spawned at all.
pub fn run_supervised(
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    mut spawn: impl FnMut(usize) -> Command,
) -> SbResult<CampaignReport> {
    if scfg.workers == 0 {
        return Err(Error::Supervise {
            detail: "supervised campaign needs at least one worker".into(),
        });
    }
    let mut ledger = JobLedger::open(exemplars, cfg, Some(&scfg.checkpoint))?;
    ledger.trace_restored();
    let _span = cfg.tracer.span("campaign");
    let (tx, rx) = mpsc::channel();
    let mut sup = Supervisor {
        cfg,
        scfg,
        ledger: &mut ledger,
        stats: SuperviseStats {
            workers: scfg.workers as u64,
            ..SuperviseStats::default()
        },
        spawn: &mut spawn,
        tx,
    };
    // A supervisor bug must not cost completed work: the checkpoint is
    // persisted before the panic propagates. Children are reaped by their
    // ChildGuards as the loop's state unwinds.
    let looped = catch_unwind(AssertUnwindSafe(|| sup.run(&rx)));
    let mut stats = sup.stats;
    match looped {
        Ok(r) => r?,
        Err(payload) => {
            let _ = ledger.save();
            std::panic::resume_unwind(payload);
        }
    }
    stats.duplicate_results = ledger.duplicates();
    let mut report = ledger.finish()?;
    report.supervise = Some(stats);
    Ok(report)
}

/// The supervisor's loop state, minus the per-shard table (kept apart so a
/// shard and the supervisor can be borrowed together).
struct Supervisor<'a> {
    cfg: &'a CampaignCfg,
    scfg: &'a SuperviseCfg,
    ledger: &'a mut JobLedger,
    stats: SuperviseStats,
    spawn: &'a mut dyn FnMut(usize) -> Command,
    tx: mpsc::Sender<(usize, u64, Note)>,
}

impl Supervisor<'_> {
    fn run(&mut self, rx: &mpsc::Receiver<(usize, u64, Note)>) -> SbResult<()> {
        let (tracer, scfg) = (&self.cfg.tracer, self.scfg);
        let mut shards: Vec<ShardState> = (0..scfg.workers)
            .map(|shard| ShardState {
                scope: Scope::Shard { shard, of: scfg.workers },
                phase: Phase::Done,
                guard: None,
                gen: 0,
                last_msg: Instant::now(),
                completed_since_spawn: 0,
                respawns: 0,
                said_bye: None,
                hb_killed: false,
                proto_error: None,
            })
            .collect();
        let mut stop_deadline = Instant::now();
        let mut stragglers_killed = false;

        // Initial spawns: only shards with uncovered work.
        for (shard, state) in shards.iter_mut().enumerate() {
            if self.ledger.pending(state.scope) > 0 {
                self.spawn_shard(shard, state)?;
            }
        }

        loop {
            let now = Instant::now();

            // Graceful shutdown: flush the checkpoint the moment the stop
            // file appears, then give workers one heartbeat interval to
            // notice it themselves before killing stragglers.
            if !self.ledger.stopping() && scfg.stop_file.as_deref().is_some_and(Path::exists) {
                self.stats.stopped = true;
                stop_deadline = now + scfg.heartbeat_timeout;
                self.ledger.stop()?;
            }
            let stopping = self.ledger.stopping();
            if stopping && now >= stop_deadline && !stragglers_killed {
                stragglers_killed = true;
                for state in &mut shards {
                    if let Some(guard) = &mut state.guard {
                        guard.kill();
                    }
                }
            }

            for (shard, state) in shards.iter_mut().enumerate() {
                match state.phase {
                    Phase::Backoff(_) if stopping => state.phase = Phase::Done,
                    Phase::Backoff(at) if now >= at => self.spawn_shard(shard, state)?,
                    Phase::Running
                        if !state.hb_killed
                            && now.duration_since(state.last_msg) > scfg.heartbeat_timeout =>
                    {
                        state.hb_killed = true;
                        self.stats.heartbeat_misses += 1;
                        tracer.count(sb_obs::keys::SUPERVISE_HEARTBEAT_MISSES, 1);
                        tracer.emit(&sb_obs::Event::Worker {
                            t: tracer.now_us(),
                            worker: shard as u64,
                            action: "heartbeat-miss".into(),
                            detail: format!(
                                "silent for {:.1}s",
                                now.duration_since(state.last_msg).as_secs_f64()
                            ),
                        });
                        if let Some(guard) = &mut state.guard {
                            guard.kill();
                        }
                    }
                    _ => {}
                }
            }

            if shards.iter().all(|s| s.phase == Phase::Done) {
                return Ok(());
            }

            let (shard, gen, note) = match rx.recv_timeout(scfg.poll) {
                Ok(item) => item,
                Err(_) => continue,
            };
            let state = &mut shards[shard];
            if gen != state.gen {
                continue; // stale message from a reaped incarnation
            }
            state.last_msg = Instant::now();
            match note {
                // Nothing a violator says after its violation counts.
                Note::Msg(_) if state.proto_error.is_some() => {}
                Note::Msg(WorkerMsg::Hello { .. } | WorkerMsg::Heartbeat) => {}
                Note::Msg(WorkerMsg::Start { job }) => {
                    self.ledger.hold(shard as u64, state.scope, &[job], None);
                }
                Note::Msg(WorkerMsg::Done { job, outcome }) => {
                    self.result(state, job, JobVerdict::Completed(outcome));
                }
                Note::Msg(WorkerMsg::Quarantine { record }) => {
                    self.result(state, record.job, JobVerdict::Quarantined(record));
                }
                Note::Msg(WorkerMsg::Bye { stopped, .. }) => {
                    state.said_bye = Some(stopped);
                }
                Note::Bad(e) => state.violation(e),
                Note::Eof => {
                    let status = state.guard.take().and_then(|mut g| g.reap());
                    self.handle_exit(shard, state, status);
                }
            }
        }
    }

    /// One reported verdict: the ledger merges it, or rejects a job the
    /// shard has no business reporting on.
    fn result(&mut self, state: &mut ShardState, job: usize, verdict: JobVerdict) {
        match self.ledger.deliver(state.scope, job, verdict) {
            Ok(_) => state.completed_since_spawn += 1,
            Err(e) => state.violation(e.to_string()),
        }
    }

    /// Saves the merged checkpoint, spawns one worker process for `shard`,
    /// and starts its stdout reader thread.
    fn spawn_shard(&mut self, shard: usize, state: &mut ShardState) -> SbResult<()> {
        let tracer = &self.cfg.tracer;
        // Persist merged progress first: the child resumes from this file
        // and skips everything already covered.
        self.ledger.save()?;
        let mut command = (self.spawn)(shard);
        command.stdout(Stdio::piped()).stdin(Stdio::null());
        let mut child = command.spawn().map_err(|e| Error::Supervise {
            detail: format!("failed to spawn worker {shard}: {e}"),
        })?;
        let stdout = child.stdout.take().expect("stdout was piped");
        state.gen += 1;
        let gen = state.gen;
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let note = match line {
                    Ok(l) => match WorkerMsg::parse_line(&l) {
                        Ok(msg) => Note::Msg(msg),
                        Err(e) => Note::Bad(format!("{e} (line: {l:?})")),
                    },
                    Err(e) => Note::Bad(format!("stdout read error: {e}")),
                };
                let fatal = matches!(note, Note::Bad(_));
                if tx.send((shard, gen, note)).is_err() || fatal {
                    break;
                }
            }
            let _ = tx.send((shard, gen, Note::Eof));
        });
        state.guard = Some(ChildGuard::new(child));
        state.phase = Phase::Running;
        state.last_msg = Instant::now();
        state.completed_since_spawn = 0;
        state.said_bye = None;
        state.hb_killed = false;
        state.proto_error = None;
        let (action, detail) = if state.respawns == 0 {
            self.stats.spawns += 1;
            tracer.count(sb_obs::keys::SUPERVISE_SPAWNS, 1);
            ("spawn", format!("shard {shard}/{}", self.scfg.workers))
        } else {
            self.stats.respawns += 1;
            tracer.count(sb_obs::keys::SUPERVISE_RESPAWNS, 1);
            ("restart", format!("respawn #{}", state.respawns))
        };
        tracer.emit(&sb_obs::Event::Worker {
            t: tracer.now_us(),
            worker: shard as u64,
            action: action.into(),
            detail,
        });
        Ok(())
    }

    /// Classifies one worker death, reports it to the ledger, and decides
    /// the shard's next phase.
    fn handle_exit(&mut self, shard: usize, state: &mut ShardState, status: Option<ExitStatus>) {
        let (cfg, scfg) = (self.cfg, self.scfg);
        let tracer = &cfg.tracer;
        let owner = shard as u64;
        let stopping = self.ledger.stopping();
        let status_str = status.map_or_else(|| "unknown".to_owned(), |s| s.to_string());
        let clean = state.said_bye.is_some()
            && status.is_some_and(|s| s.success())
            && state.proto_error.is_none()
            && !state.hb_killed;
        let detail = if clean {
            match state.said_bye {
                Some(true) => "clean (stop file)".to_owned(),
                _ => "clean".to_owned(),
            }
        } else if let Some(e) = &state.proto_error {
            format!("protocol violation: {e}")
        } else if state.hb_killed {
            format!("killed after heartbeat timeout ({status_str})")
        } else {
            format!("crashed ({status_str})")
        };
        tracer.emit(&sb_obs::Event::Worker {
            t: tracer.now_us(),
            worker: shard as u64,
            action: "exit".into(),
            detail: detail.clone(),
        });
        let respawn = |state: &mut ShardState| {
            state.respawns += 1;
            state.phase = Phase::Backoff(
                Instant::now() + respawn_backoff(scfg, cfg.seed, shard, state.respawns),
            );
        };

        if clean {
            self.ledger.release(owner);
            // A worker that said bye without stopping but left work
            // uncovered disagrees with the supervisor about its shard;
            // respawning is the safe reconciliation (the child recomputes
            // pending from the freshly saved checkpoint).
            if !stopping && state.said_bye == Some(false) && self.ledger.pending(state.scope) > 0 {
                respawn(state);
            } else {
                state.phase = Phase::Done;
            }
            return;
        }

        self.stats.crashes += 1;
        tracer.count(sb_obs::keys::SUPERVISE_CRASHES, 1);
        for job in self.ledger.held_by(owner) {
            // Attribute scripted process faults: the worker printed the
            // ledger line before dying; the supervisor owns the trace
            // counters. A stall surfaces as a heartbeat kill, abort/exit
            // as a plain crash.
            let site = if state.hb_killed && cfg.fault_plan.should_stall(job) {
                Some("proc.stall")
            } else if cfg.fault_plan.should_abort(job) {
                Some("proc.abort")
            } else if cfg.fault_plan.exit_code(job).is_some() {
                Some("proc.exit")
            } else {
                None
            };
            if let Some(site) = site {
                crate::chaos::count_fired(tracer, site, 1);
            }
        }
        self.ledger.owner_died(owner, scfg.crash_budget, |job| {
            format!("worker process died while job {job} was in flight: {detail}")
        });
        self.ledger.note_death(state.scope, state.completed_since_spawn > 0);

        let remaining = self.ledger.pending(state.scope);
        let instant_deaths = self.ledger.instant_deaths(state.scope);
        if stopping || remaining == 0 {
            state.phase = Phase::Done;
        } else if instant_deaths >= scfg.max_instant_deaths {
            // Crash-loop circuit breaker: whatever is left of this shard is
            // not going to run.
            tracer.emit(&sb_obs::Event::Worker {
                t: tracer.now_us(),
                worker: shard as u64,
                action: "give-up".into(),
                detail: format!(
                    "{instant_deaths} consecutive instant deaths; abandoning {remaining} job(s)"
                ),
            });
            tracer.count(sb_obs::keys::SUPERVISE_GAVE_UP, 1);
            self.stats.shards_abandoned += 1;
            self.ledger.abandon(
                state.scope,
                &format!(
                    "shard {shard} abandoned after {instant_deaths} consecutive instant worker deaths (last: {detail})"
                ),
            );
            state.phase = Phase::Done;
        } else {
            respawn(state);
        }
    }
}

/// Worker-side configuration (the hidden `--worker-shard` entrypoint).
#[derive(Clone, Debug)]
pub struct WorkerCfg {
    /// This worker's shard (0-based).
    pub shard: usize,
    /// Total shard count.
    pub of: usize,
    /// Heartbeat emission interval (the supervisor's timeout / 4 or so).
    pub heartbeat: Duration,
    /// Exit cleanly between jobs when this file exists.
    pub stop_file: Option<PathBuf>,
}

/// Writes one protocol line to stdout, flushed immediately so the
/// supervisor sees it even if this process dies on the next instruction.
fn emit(msg: &WorkerMsg) {
    let mut line = msg.render();
    line.push('\n');
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(line.as_bytes());
    let _ = out.flush();
}

/// Runs one shard of the campaign in this process, speaking the worker
/// protocol on stdout. Returns `Ok(true)` when it exited early because the
/// stop file appeared.
///
/// The job list is the deterministic shard `job % of == shard` of the
/// budgeted exemplars, minus whatever the resume checkpoint
/// (`cfg.resume_from`, saved by the supervisor immediately before this
/// spawn) already covers. Jobs run with the exact same seeds and retry
/// machinery as the in-process pool, so a merged supervised report is
/// bit-identical to a single-process run. The plan's process-level faults
/// (abort/exit/stall) fire *after* the `start` message, so the supervisor
/// charges the death to that job.
pub fn run_worker_shard(
    booted: &BootedKernel,
    corpus: &[Program],
    set: &PmcSet,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    wcfg: &WorkerCfg,
) -> SbResult<bool> {
    if wcfg.of == 0 || wcfg.shard >= wcfg.of {
        return Err(Error::Supervise {
            detail: format!("bad worker shard {}/{}", wcfg.shard, wcfg.of),
        });
    }
    let mut ledger = JobLedger::open(exemplars, cfg, None)?;
    let scope = Scope::Shard { shard: wcfg.shard, of: wcfg.of };
    let jobs = ledger.lease(wcfg.shard as u64, scope, usize::MAX, None);
    emit(&WorkerMsg::Hello {
        shard: wcfg.shard,
        of: wcfg.of,
        pending: jobs.len(),
    });

    // The heartbeat thread keeps the supervisor satisfied through long
    // jobs. `silenced` models the stall fault; `finished` stops the thread
    // at shard end (best effort — a late heartbeat is ignored anyway).
    let silenced = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicBool::new(false));
    {
        let silenced = silenced.clone();
        let finished = finished.clone();
        let interval = wcfg.heartbeat.max(Duration::from_millis(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if finished.load(Ordering::Relaxed) || silenced.load(Ordering::Relaxed) {
                break;
            }
            emit(&WorkerMsg::Heartbeat);
        });
    }

    let index = IncidentalIndex::build(set);
    let remote = RemoteJobs::new(JobEnv { booted, corpus, set, index: &index }, cfg);
    let mut exec = Executor::new(2);
    let mut completed = 0usize;
    let mut stopped = false;
    // Every result line is already flushed as it is emitted, so a panic
    // below loses only the in-flight job; this guard makes the ordering
    // explicit and re-raises.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        for job in jobs {
            if wcfg.stop_file.as_deref().is_some_and(Path::exists) {
                stopped = true;
                break;
            }
            emit(&WorkerMsg::Start { job });
            let silence = || silenced.store(true, Ordering::Relaxed);
            match remote.run(&mut exec, job, ledger.universe()[job], silence) {
                JobVerdict::Completed(outcome) => emit(&WorkerMsg::Done { job, outcome }),
                JobVerdict::Quarantined(record) => emit(&WorkerMsg::Quarantine { record }),
            }
            completed += 1;
        }
    }));
    finished.store(true, Ordering::Relaxed);
    if let Err(payload) = ran {
        let _ = std::io::stdout().lock().flush();
        std::panic::resume_unwind(payload);
    }
    emit(&WorkerMsg::Bye { completed, stopped });
    Ok(stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PmcTestOutcome;
    use crate::checkpoint::{outcome_to_json, Checkpoint};
    use crate::error::FailureKind;
    use std::collections::BTreeMap;

    fn outcome(job: usize) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: Some(job as PmcId + 100),
            pair: (1, 2),
            trials_run: 8,
            exercised: job.is_multiple_of(2),
            findings: vec![],
            steps: 100 + job as u64,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    fn done_line(job: usize) -> String {
        WorkerMsg::Done {
            job,
            outcome: outcome(job),
        }
        .render()
    }

    /// A /bin/sh "worker" that prints prepared protocol lines from a file
    /// and then runs `epilogue` (e.g. `exit 7`, `sleep 60`).
    fn fake_worker(dir: &Path, name: &str, lines: &[String], epilogue: &str) -> Command {
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut c = Command::new("/bin/sh");
        c.arg("-c")
            .arg(format!("cat '{}'; {epilogue}", path.display()));
        c
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb-supervise-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Millisecond backoffs, but a heartbeat timeout no `cargo test` load
    /// can trip: only the fixtures that are *about* silence shorten it.
    fn fast_cfg(dir: &Path, workers: usize) -> SuperviseCfg {
        SuperviseCfg {
            workers,
            heartbeat_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(5),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: dir.join("supervise.json"),
        }
    }

    #[test]
    fn backoff_is_deterministic_grows_and_clamps() {
        let cfg = SuperviseCfg {
            backoff_base: Duration::from_millis(40),
            backoff_max: Duration::from_millis(200),
            ..SuperviseCfg::default()
        };
        let b1 = respawn_backoff(&cfg, 2021, 0, 1);
        let b2 = respawn_backoff(&cfg, 2021, 0, 2);
        let b9 = respawn_backoff(&cfg, 2021, 0, 9);
        assert_eq!(b1, respawn_backoff(&cfg, 2021, 0, 1), "pure function");
        assert!(b1 >= Duration::from_millis(40) && b1 <= Duration::from_millis(50));
        assert!(b2 >= Duration::from_millis(80) && b2 <= Duration::from_millis(100));
        assert!(b9 >= Duration::from_millis(200) && b9 <= Duration::from_millis(250), "{b9:?}");
        assert_ne!(
            respawn_backoff(&cfg, 2021, 0, 2),
            respawn_backoff(&cfg, 2021, 1, 2),
            "shards jitter independently"
        );
    }

    #[test]
    fn clean_workers_merge_into_a_complete_report() {
        let dir = test_dir("clean");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 2);
        let report = run_supervised(&budgeted, &cfg, &scfg, |shard| {
            let lines: Vec<String> = std::iter::once(
                WorkerMsg::Hello { shard, of: 2, pending: 2 }.render(),
            )
            .chain((0..4).filter(|j| j % 2 == shard).flat_map(|j| {
                [WorkerMsg::Start { job: j }.render(), done_line(j)]
            }))
            .chain(std::iter::once(
                WorkerMsg::Bye { completed: 2, stopped: false }.render(),
            ))
            .collect();
            fake_worker(&dir, &format!("w{shard}.txt"), &lines, "exit 0")
        })
        .expect("supervised run");
        assert_eq!(report.tested(), 4);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.outcomes[0].steps, 100, "job order preserved");
        let stats = report.supervise.expect("supervise stats");
        assert_eq!(stats.spawns, 2);
        assert_eq!(stats.crashes, 0);
        assert_eq!(stats.respawns, 0);
        // The checkpoint on disk covers everything.
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert_eq!(cp.outcomes.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_charges_in_flight_job_then_breaker_abandons_shard() {
        let dir = test_dir("crash");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 2);
        // Shard 1 always announces job 1 and dies; shard 0 is clean.
        let report = run_supervised(&budgeted, &cfg, &scfg, |shard| {
            if shard == 0 {
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 2, pending: 2 }.render(),
                    WorkerMsg::Start { job: 0 }.render(),
                    done_line(0),
                    WorkerMsg::Start { job: 2 }.render(),
                    done_line(2),
                    WorkerMsg::Bye { completed: 2, stopped: false }.render(),
                ];
                fake_worker(&dir, "w0.txt", &lines, "exit 0")
            } else {
                let lines = vec![
                    WorkerMsg::Hello { shard: 1, of: 2, pending: 2 }.render(),
                    WorkerMsg::Start { job: 1 }.render(),
                ];
                fake_worker(&dir, "w1.txt", &lines, "exit 7")
            }
        })
        .expect("supervised run");
        assert_eq!(report.tested(), 2, "shard 0's jobs completed");
        // Job 1 crashed past its budget → Crash; job 3 was abandoned by the
        // circuit breaker → GaveUp.
        let kinds: BTreeMap<usize, FailureKind> = report
            .quarantined
            .iter()
            .map(|q| (q.job, q.kind))
            .collect();
        assert_eq!(kinds.get(&1), Some(&FailureKind::Crash));
        assert_eq!(kinds.get(&3), Some(&FailureKind::GaveUp));
        let stats = report.supervise.unwrap();
        assert_eq!(stats.crashes, 3, "budget 2 + breaker's third");
        assert_eq!(stats.respawns, 2);
        assert_eq!(stats.shards_abandoned, 1);
        // Crash is checkpointed (never retried); GaveUp is not (retried on
        // resume).
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert!(cp.quarantined.contains_key(&1));
        assert!(!cp.quarantined.contains_key(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_worker_is_killed_and_charged() {
        let dir = test_dir("hb");
        let budgeted: Vec<PmcId> = vec![100];
        let cfg = CampaignCfg::default();
        let scfg = SuperviseCfg {
            heartbeat_timeout: Duration::from_millis(150),
            crash_budget: 1,
            max_instant_deaths: 1,
            ..fast_cfg(&dir, 1)
        };
        let lines = vec![
            WorkerMsg::Hello { shard: 0, of: 1, pending: 1 }.render(),
            WorkerMsg::Start { job: 0 }.render(),
        ];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            // `exec` so the kill lands on the process holding the pipe.
            fake_worker(&dir, "stall.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!(stats.heartbeat_misses, 1);
        assert_eq!(stats.crashes, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].kind, FailureKind::Crash);
        assert!(
            report.quarantined[0].chain[0].contains("heartbeat"),
            "{:?}",
            report.quarantined[0].chain
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_on_stdout_is_treated_as_a_crash() {
        let dir = test_dir("proto");
        let budgeted: Vec<PmcId> = vec![100];
        let cfg = CampaignCfg::default();
        let scfg = SuperviseCfg {
            crash_budget: 1,
            max_instant_deaths: 1,
            ..fast_cfg(&dir, 1)
        };
        let lines = vec!["this is not a protocol message".to_owned()];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            fake_worker(&dir, "garbage.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.shards_abandoned, 1, "instant death trips the breaker");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_file_ends_the_run_with_checkpoint_and_no_quarantines() {
        let dir = test_dir("stop");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let stop = dir.join("stop");
        let scfg = SuperviseCfg {
            stop_file: Some(stop.clone()),
            heartbeat_timeout: Duration::from_millis(100),
            ..fast_cfg(&dir, 1)
        };
        // The worker completes job 0 and then lingers; the stop file
        // appears (written up front) and the supervisor shuts down.
        std::fs::write(&stop, b"").unwrap();
        let lines = vec![
            WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
            WorkerMsg::Start { job: 0 }.render(),
            done_line(0),
        ];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            fake_worker(&dir, "stop.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        let stats = report.supervise.as_ref().unwrap();
        assert!(stats.stopped);
        assert_eq!(stats.respawns, 0, "no respawns while stopping");
        assert!(
            report.quarantined.is_empty(),
            "stop-kills are not failures: {:?}",
            report.quarantined
        );
        assert_eq!(report.tested(), 1, "completed work is kept");
        // The resumable checkpoint covers job 0 and leaves job 1 pending.
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert!(cp.covers(0));
        assert!(!cp.covers(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_result_outside_the_shard_kills_the_worker_and_is_never_merged() {
        let dir = test_dir("foreign");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = SuperviseCfg {
            crash_budget: 1,
            max_instant_deaths: 1,
            ..fast_cfg(&dir, 1)
        };
        // A schema-valid `done` for job universe + 7, then the worker lingers:
        // only the supervisor's kill ends it.
        let lines = vec![
            WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
            WorkerMsg::Start { job: 0 }.render(),
            done_line(9),
            done_line(0),
        ];
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            fake_worker(&dir, "foreign.txt", &lines, "exec sleep 60")
        })
        .expect("supervised run");
        assert_eq!(report.tested(), 0, "nothing the violator said afterwards counts");
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!(stats.crashes, 1, "handled as a crash");
        // The death is charged to the job the worker held.
        let crash = report.quarantined.iter().find(|q| q.job == 0).expect("job 0 charged");
        assert_eq!(crash.kind, FailureKind::Crash);
        assert!(
            crash.chain[0].contains("protocol violation: job 9 is outside the 2-job universe"),
            "{:?}",
            crash.chain
        );
        assert!(report.quarantined.iter().all(|q| q.job < 2));
        let cp = Checkpoint::load(&scfg.checkpoint).unwrap();
        assert!(cp.outcomes.is_empty() && !cp.covers(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_respawned_shard_redelivering_a_covered_job_is_a_counted_duplicate() {
        let dir = test_dir("redeliver");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let cfg = CampaignCfg::default();
        let scfg = fast_cfg(&dir, 1);
        let mut calls = 0usize;
        let report = run_supervised(&budgeted, &cfg, &scfg, |_| {
            calls += 1;
            if calls == 1 {
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
                    WorkerMsg::Start { job: 0 }.render(),
                    done_line(0),
                    WorkerMsg::Start { job: 1 }.render(),
                ];
                fake_worker(&dir, "life1.txt", &lines, "exit 9")
            } else {
                // The second life ignores the checkpoint and re-runs job 0
                // to a different outcome.
                let mut again = outcome(0);
                again.steps = 999;
                let lines = vec![
                    WorkerMsg::Hello { shard: 0, of: 1, pending: 2 }.render(),
                    WorkerMsg::Start { job: 0 }.render(),
                    WorkerMsg::Done { job: 0, outcome: again }.render(),
                    WorkerMsg::Start { job: 1 }.render(),
                    done_line(1),
                    WorkerMsg::Bye { completed: 2, stopped: false }.render(),
                ];
                fake_worker(&dir, "life2.txt", &lines, "exit 0")
            }
        })
        .expect("supervised run");
        assert_eq!(calls, 2);
        assert_eq!(report.tested(), 2, "both jobs completed across lives");
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(report.outcomes[0].steps, 100, "the first verdict stands");
        let stats = report.supervise.unwrap();
        assert_eq!((stats.crashes, stats.respawns, stats.duplicate_results), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_workers_is_a_campaign_level_error() {
        let scfg = SuperviseCfg {
            workers: 0,
            ..SuperviseCfg::default()
        };
        let err = run_supervised(&[1], &CampaignCfg::default(), &scfg, |_| {
            Command::new("/bin/true")
        })
        .unwrap_err();
        assert!(matches!(err, Error::Supervise { .. }));
    }

    #[test]
    fn unspawnable_worker_surfaces_a_supervise_error() {
        let dir = test_dir("nospawn");
        let scfg = fast_cfg(&dir, 1);
        let err = run_supervised(&[1], &CampaignCfg::default(), &scfg, |_| {
            Command::new("/nonexistent/sb-worker-binary")
        })
        .unwrap_err();
        assert!(matches!(err, Error::Supervise { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_outcome_wire_shape_matches_checkpoint_shape() {
        // The supervisor trusts this equivalence when merging.
        let o = outcome(3);
        let msg = WorkerMsg::Done { job: 3, outcome: o.clone() };
        let rendered = msg.render();
        assert!(rendered.contains(&outcome_to_json(3, &o).render()));
    }
}
