//! Process-isolated campaign execution: a crash-proof worker pool.
//!
//! The in-process pool survives worker *panics*, but a kernel-fuzzing
//! campaign also sees failures Rust cannot unwind from: `abort()`, OOM
//! kills, stack overflow, a wedged loop that never reaches a watchdog
//! check. [`run_supervised`] runs the campaign across real OS processes
//! with the one remote transport there is: it binds a loopback fleet
//! coordinator ([`crate::fleet`]) and keeps a [`Pool`] of its own
//! `hunt join` children beside it. Every job's seeds come from
//! `(campaign seed, job index)` alone, so a clean supervised run
//! aggregates **bit-identically** to `run_campaign` over the same
//! exemplars, however the jobs land on the children.
//!
//! Leases, heartbeats, evictions, the journal and the lifecycle rules are
//! the coordinator's and the ledger's; the pool knows only processes:
//!
//! * **One job in flight** — children lease one job at a time, so a death
//!   charges exactly the job it interrupted against the crash budget
//!   ([`crate::fleet::FleetCfg::crash_budget`]).
//! * **Kill what is evicted** — a connection the coordinator evicts
//!   (heartbeat silence, protocol violation, unexpected close) gets its
//!   child killed; the child's death is charged once, when it is reaped.
//! * **Restart backoff** — respawns wait 50 ms · 2^(n-1) clamped to 2 s,
//!   plus a deterministic jitter derived from
//!   `(campaign seed, slot, respawn count)` — no wall-clock entropy.
//! * **Circuit breaker** — the breaker domain is the whole campaign, and a
//!   child that dies before it ever joins counts too: a binary that cannot
//!   start ends the campaign as `GaveUp` instead of respawning forever.
//! * **No orphans** — every child is held by a kill-on-drop guard; even a
//!   supervisor panic reaps the pool and flushes the checkpoint first.

use std::net::TcpListener;
use std::process::{Child as Process, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::campaign::{CampaignCfg, CampaignReport};
use crate::error::{Error, SbResult};
use crate::fleet::{coordinate, FleetCfg};
use crate::metrics::SuperviseStats;
use crate::pmc::PmcId;
use crate::retry::jittered_backoff;

/// Supervisor tuning. Defaults suit production; tests shrink the
/// coordinator's timing knobs to milliseconds.
#[derive(Clone, Debug)]
pub struct SuperviseCfg {
    /// Child processes kept running.
    pub workers: usize,
    /// The loopback coordinator: heartbeat timeout, tick, crash budget,
    /// breaker, stop file, checkpoint and fingerprint. Its lease batch and
    /// deadline are the pool's own: one job at a time, held until the
    /// child reports or dies.
    pub fleet: FleetCfg,
}

impl Default for SuperviseCfg {
    fn default() -> Self {
        SuperviseCfg {
            workers: 4,
            fleet: FleetCfg::default(),
        }
    }
}

/// First respawn delay of a slot; it doubles per respawn up to
/// [`BACKOFF_MAX`] (before jitter).
const BACKOFF_BASE: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// How long a child may hold its one job before the coordinator hands it
/// to another. A child holds a job until it reports or dies; the deadline
/// only bounds one that is wedged but still heartbeating.
const LEASE_DEADLINE: Duration = Duration::from_secs(3600);

/// Runs a campaign over `exemplars` across `scfg.workers` child processes.
/// `spawn(addr)` builds the command for one child that joins the loopback
/// coordinator at `addr` (the CLI re-execs itself as `hunt join <addr>`
/// with the campaign flags).
///
/// Like [`crate::campaign::run_campaign`], per-job failures never surface
/// as `Err` — they land in [`CampaignReport::quarantined`]. `Err` means a
/// campaign-level problem: an unusable resume checkpoint, a checkpoint
/// write failure, or a child that could not be spawned at all.
pub fn run_supervised(
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    scfg: &SuperviseCfg,
    mut spawn: impl FnMut(&str) -> Command,
) -> SbResult<CampaignReport> {
    if scfg.workers == 0 {
        return Err(Error::Supervise {
            detail: "supervised campaign needs at least one worker".into(),
        });
    }
    let bind_failed = |e: std::io::Error| Error::Supervise {
        detail: format!("cannot bind the loopback coordinator: {e}"),
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(bind_failed)?;
    let addr = listener.local_addr().map_err(bind_failed)?.to_string();
    let fcfg = FleetCfg {
        batch: 1,
        lease_deadline: LEASE_DEADLINE,
        ..scfg.fleet.clone()
    };
    let pool = Pool {
        addr,
        seed: cfg.seed,
        slots: (0..scfg.workers)
            .map(|_| Slot {
                child: None,
                respawns: 0,
                spawn_at: Instant::now(),
            })
            .collect(),
        spawn: &mut spawn,
        tracer: cfg.tracer.clone(),
        stats: SuperviseStats::default(),
    };
    coordinate(listener, exemplars, cfg, &fcfg, Some(pool))
}

/// A child process reaped (kill + wait) on drop, so no exit path — panic
/// included — leaks a worker. Killing or waiting again once it has been
/// reaped is a no-op.
struct ChildGuard(Process);

impl ChildGuard {
    fn kill(&mut self) {
        let _ = self.0.kill();
    }

    /// The exit status once the child has exited, without blocking.
    fn try_wait(&mut self) -> Option<ExitStatus> {
        self.0.try_wait().ok().flatten()
    }

    /// Waits for the child, returning its exit status.
    fn reap(&mut self) -> Option<ExitStatus> {
        self.0.wait().ok()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
        let _ = self.reap();
    }
}

/// One child's death as the coordinator charges it.
#[derive(Debug, Default)]
pub(crate) struct Dead {
    /// The worker id its connection joined as (`u64::MAX` if it never
    /// joined).
    pub(crate) worker: u64,
    /// Leases its evicted connection held.
    pub(crate) leases: Vec<u64>,
    /// Results it delivered.
    pub(crate) completed: u64,
    /// Exited 0 without being killed: nothing to charge.
    pub(crate) clean: bool,
    /// Killed for heartbeat silence.
    pub(crate) hb_killed: bool,
    /// How it ended, for the quarantine chain.
    pub(crate) detail: String,
}

struct Child {
    guard: ChildGuard,
    pid: u64,
    /// Filled in as the child's connection is evicted and it exits.
    dead: Dead,
}

struct Slot {
    child: Option<Child>,
    respawns: u64,
    spawn_at: Instant,
}

/// The process half of a supervised campaign, tended by the coordinator
/// loop once per tick.
pub(crate) struct Pool<'a> {
    addr: String,
    seed: u64,
    slots: Vec<Slot>,
    spawn: &'a mut dyn FnMut(&str) -> Command,
    tracer: sb_obs::Tracer,
    stats: SuperviseStats,
}

impl Pool<'_> {
    fn event(&self, slot: usize, action: &str, detail: String) {
        self.tracer.emit(&sb_obs::Event::Worker {
            t: self.tracer.now_us(),
            worker: slot as u64,
            action: action.into(),
            detail,
        });
    }

    /// The slot whose child is `pid`.
    fn slot_of(&self, pid: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.child.as_ref().is_some_and(|c| c.pid == pid))
    }

    /// True when `pid` is a child of this pool that has not been reaped.
    pub(crate) fn admit(&self, pid: u64) -> bool {
        self.slot_of(pid).is_some()
    }

    /// The coordinator is evicting the connection of child `pid` for
    /// silence.
    pub(crate) fn heartbeat_kill(&mut self, pid: u64, silence: Duration) {
        let Some(slot) = self.slot_of(pid) else {
            return;
        };
        let child = self.slots[slot].child.as_mut().expect("found above");
        child.dead.hb_killed = true;
        child.guard.kill();
        self.stats.heartbeat_misses += 1;
        self.tracer
            .count(sb_obs::keys::SUPERVISE_HEARTBEAT_MISSES, 1);
        self.event(
            slot,
            "heartbeat-miss",
            format!("silent for {:.1}s", silence.as_secs_f64()),
        );
    }

    /// The coordinator evicted the connection of child `pid`: kill the
    /// child, and keep what the connection held until it is reaped.
    pub(crate) fn orphan(&mut self, pid: u64, worker: u64, leases: Vec<u64>, completed: u64) {
        let Some(slot) = self.slot_of(pid) else {
            return;
        };
        let child = self.slots[slot].child.as_mut().expect("found above");
        child.guard.kill();
        child.dead.worker = worker;
        child.dead.leases.extend(leases);
        child.dead.completed += completed;
    }

    /// Reaps every child that has exited and has no connection left
    /// (`connected` says which pids still have one: a dead child's last
    /// frames and its end-of-stream are still on their way). Their deaths
    /// are ready to be charged.
    pub(crate) fn reap(&mut self, connected: impl Fn(u64) -> bool) -> Vec<Dead> {
        let mut dead = Vec::new();
        for slot in 0..self.slots.len() {
            let status = match self.slots[slot].child.as_mut() {
                Some(child) if !connected(child.pid) => child.guard.try_wait(),
                _ => None,
            };
            if let Some(status) = status {
                let child = self.slots[slot].child.take().expect("exited above");
                dead.push(self.exited(slot, child, Some(status)));
            }
        }
        dead
    }

    /// Records how a child ended and schedules its slot's respawn.
    fn exited(&mut self, slot: usize, child: Child, status: Option<ExitStatus>) -> Dead {
        let mut dead = child.dead;
        dead.clean = status.is_some_and(|s| s.success()) && !dead.hb_killed;
        let status = status.map_or_else(|| "unknown".to_owned(), |s| s.to_string());
        dead.detail = if dead.clean {
            "clean".to_owned()
        } else if dead.hb_killed {
            format!("killed after heartbeat timeout ({status})")
        } else {
            format!("crashed ({status})")
        };
        if !dead.clean {
            self.stats.crashes += 1;
            self.tracer.count(sb_obs::keys::SUPERVISE_CRASHES, 1);
        }
        self.event(slot, "exit", dead.detail.clone());
        let s = &mut self.slots[slot];
        s.respawns += 1;
        let mix = self.seed ^ ((slot as u64) << 32);
        s.spawn_at = Instant::now() + jittered_backoff(BACKOFF_BASE, BACKOFF_MAX, mix, s.respawns);
        dead
    }

    /// Starts a child in every empty slot whose backoff has passed, if
    /// `wanted` (work is left and the campaign is not stopping).
    pub(crate) fn spawn_due(&mut self, wanted: bool) -> SbResult<()> {
        if !wanted {
            return Ok(());
        }
        let now = Instant::now();
        for slot in 0..self.slots.len() {
            let s = &self.slots[slot];
            if s.child.is_some() || now < s.spawn_at {
                continue;
            }
            let mut command = (self.spawn)(&self.addr);
            command.stdin(Stdio::null()).stdout(Stdio::null());
            let process = command.spawn().map_err(|e| Error::Supervise {
                detail: format!("failed to spawn worker {slot}: {e}"),
            })?;
            let pid = u64::from(process.id());
            let guard = ChildGuard(process);
            let dead = Dead {
                worker: u64::MAX,
                ..Dead::default()
            };
            self.slots[slot].child = Some(Child { guard, pid, dead });
            let respawns = self.slots[slot].respawns;
            let (action, detail) = if respawns == 0 {
                self.stats.spawns += 1;
                self.tracer.count(sb_obs::keys::SUPERVISE_SPAWNS, 1);
                (
                    "spawn",
                    format!("slot {slot}/{}, pid {pid}", self.slots.len()),
                )
            } else {
                self.stats.respawns += 1;
                self.tracer.count(sb_obs::keys::SUPERVISE_RESPAWNS, 1);
                ("restart", format!("respawn #{respawns}, pid {pid}"))
            };
            self.event(slot, action, detail);
        }
        Ok(())
    }

    /// No child is left to reap.
    pub(crate) fn idle(&self) -> bool {
        self.slots.iter().all(|s| s.child.is_none())
    }

    /// Kills and reaps whatever still runs, and returns the counters.
    pub(crate) fn finish(mut self) -> SuperviseStats {
        for slot in 0..self.slots.len() {
            if let Some(mut child) = self.slots[slot].child.take() {
                child.guard.kill();
                let status = child.guard.reap();
                self.exited(slot, child, status);
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PmcTestOutcome;
    use crate::checkpoint::Checkpoint;
    use crate::error::FailureKind;
    use crate::protocol::{read_frame, write_frame, JoinMsg, ServeMsg, FLEET_PROTO_VERSION};
    use std::collections::BTreeMap;
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::path::{Path, PathBuf};

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

    /// Not a test of its own: the body of a scripted pool child. A child is
    /// this test binary re-run on this one test with `SB_SUPERVISE_SCRIPT`
    /// set to `<action> <job|*> [stop-file]`, where the action — `done`,
    /// `die` (exit 7), `stall` (silence) or `stop` (write the stop file and
    /// leave) — applies to the matching leased jobs and every other job
    /// completes. The child speaks the real protocol, heartbeats excepted.
    #[test]
    fn scripted_child() {
        let Ok(script) = std::env::var("SB_SUPERVISE_SCRIPT") else {
            return;
        };
        let addr = std::env::var("SB_SUPERVISE_ADDR").expect("coordinator address");
        let words: Vec<&str> = script.split_whitespace().collect();
        let (action, target) = (words[0], words[1]);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |msg: &JoinMsg| {
            let _ = write_frame(&mut stream, &msg.render());
        };
        let mut read = || {
            let frame = read_frame(&mut reader).ok().flatten();
            frame.and_then(|f| ServeMsg::parse_line(&f).ok())
        };
        let pid = u64::from(std::process::id());
        send(&JoinMsg::Join {
            proto: FLEET_PROTO_VERSION,
            config: 0,
            session: pid,
            pid,
        });
        let Some(ServeMsg::Welcome { .. }) = read() else {
            std::process::exit(1)
        };
        let mut seq = 0;
        loop {
            send(&JoinMsg::Request { max: 1 });
            match read() {
                Some(ServeMsg::Lease { jobs, .. }) if jobs.is_empty() => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Some(ServeMsg::Lease { jobs, .. }) => {
                    for job in jobs {
                        match action {
                            _ if target != "*" && target != job.to_string() => {}
                            "die" => std::process::exit(7),
                            "stall" => loop {
                                std::thread::sleep(Duration::from_secs(3600));
                            },
                            "stop" => {
                                std::fs::write(words[2], b"").unwrap();
                                send(&JoinMsg::Leaving {
                                    reason: "stop file".into(),
                                });
                                std::process::exit(0);
                            }
                            _ => {}
                        }
                        seq += 1;
                        let outcome = outcome(job);
                        send(&JoinMsg::Done {
                            job,
                            outcome,
                            seq,
                            redelivery: false,
                        });
                    }
                }
                Some(ServeMsg::Drain { .. }) => {
                    send(&JoinMsg::Leaving {
                        reason: "drained".into(),
                    });
                    std::process::exit(0);
                }
                _ => std::process::exit(1),
            }
        }
    }

    /// Spawns scripted children (see [`scripted_child`]).
    fn scripted(script: &str) -> impl FnMut(&str) -> Command {
        let script = script.to_owned();
        move |addr| {
            let mut c = Command::new(std::env::current_exe().unwrap());
            c.args(["supervise::tests::scripted_child", "--exact", "--nocapture"])
                .env("SB_SUPERVISE_SCRIPT", &script)
                .env("SB_SUPERVISE_ADDR", addr);
            c
        }
    }

    /// Children that exit before they ever connect.
    fn exit_7(_addr: &str) -> Command {
        let mut c = Command::new("/bin/sh");
        c.args(["-c", "exit 7"]);
        c
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb-supervise-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A millisecond tick, but a heartbeat timeout no `cargo test` load can
    /// trip: only the fixtures that are *about* silence shorten it.
    fn fast_cfg(dir: &Path, workers: usize) -> SuperviseCfg {
        SuperviseCfg {
            workers,
            fleet: FleetCfg {
                poll: Duration::from_millis(5),
                checkpoint: dir.join("supervise.json"),
                ..FleetCfg::default()
            },
        }
    }

    /// Runs the campaign on a thread and fails instead of hanging.
    fn run_bounded(
        jobs: u32,
        scfg: SuperviseCfg,
        spawn: impl FnMut(&str) -> Command + Send + 'static,
    ) -> CampaignReport {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let budgeted: Vec<PmcId> = (0..jobs).map(|i| i + 100).collect();
            let _ = tx.send(run_supervised(
                &budgeted,
                &CampaignCfg::default(),
                &scfg,
                spawn,
            ));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the supervised campaign hung")
            .expect("supervised run")
    }

    fn kinds(report: &CampaignReport) -> BTreeMap<usize, FailureKind> {
        report.quarantined.iter().map(|q| (q.job, q.kind)).collect()
    }

    #[test]
    fn backoff_is_deterministic_grows_and_clamps() {
        // The respawn wait of `slot`: the campaign seed mixed with the slot.
        let respawn_backoff = |seed: u64, slot: u64, respawn| {
            let (base, max) = (Duration::from_millis(40), Duration::from_millis(200));
            jittered_backoff(base, max, seed ^ (slot << 32), respawn)
        };
        let b1 = respawn_backoff(2021, 0, 1);
        let b2 = respawn_backoff(2021, 0, 2);
        let b9 = respawn_backoff(2021, 0, 9);
        assert_eq!(b1, respawn_backoff(2021, 0, 1), "pure function");
        assert!(b1 >= Duration::from_millis(40) && b1 <= Duration::from_millis(50));
        assert!(b2 >= Duration::from_millis(80) && b2 <= Duration::from_millis(100));
        assert!(
            b9 >= Duration::from_millis(200) && b9 <= Duration::from_millis(250),
            "{b9:?}"
        );
        assert_ne!(
            respawn_backoff(2021, 0, 2),
            respawn_backoff(2021, 1, 2),
            "slots jitter independently"
        );
    }

    #[test]
    fn clean_workers_merge_into_a_complete_report() {
        let dir = test_dir("clean");
        let scfg = fast_cfg(&dir, 2);
        let checkpoint = scfg.fleet.checkpoint.clone();
        let report = run_bounded(4, scfg, scripted("done *"));
        assert_eq!(report.tested(), 4);
        assert!(report.quarantined.is_empty());
        let steps: Vec<u64> = report.outcomes.iter().map(|o| o.steps).collect();
        assert_eq!(steps, vec![100, 101, 102, 103], "job order preserved");
        let stats = report.supervise.expect("supervise stats");
        assert_eq!((stats.spawns, stats.respawns, stats.crashes), (2, 0, 0));
        let fleet = report.fleet.expect("fleet stats");
        assert_eq!(
            (fleet.workers_joined, fleet.leases_granted, fleet.evictions),
            (2, 4, 0)
        );
        // The checkpoint on disk covers everything.
        assert_eq!(Checkpoint::load(&checkpoint).unwrap().outcomes.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_charges_the_in_flight_job_and_the_rest_completes() {
        let dir = test_dir("crash");
        let scfg = fast_cfg(&dir, 2);
        let checkpoint = scfg.fleet.checkpoint.clone();
        // Whichever child leases job 1 dies with it.
        let report = run_bounded(4, scfg, scripted("die 1"));
        // Job 1 crashed through its budget → Crash; its neighbours ran on
        // the surviving and respawned children.
        assert_eq!(kinds(&report), BTreeMap::from([(1, FailureKind::Crash)]));
        assert_eq!(report.tested(), 3);
        assert!(
            report.quarantined[0].chain[0]
                .starts_with("worker process died while job 1 was in flight: crashed"),
            "{:?}",
            report.quarantined[0].chain
        );
        let stats = report.supervise.unwrap();
        assert_eq!(stats.crashes, 2, "one death per charge of the budget");
        assert_eq!(report.fleet.unwrap().gave_up_jobs, 0);
        // Crash is checkpointed (never retried).
        assert!(Checkpoint::load(&checkpoint)
            .unwrap()
            .quarantined
            .contains_key(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_worker_is_killed_and_charged() {
        let dir = test_dir("hb");
        let mut scfg = fast_cfg(&dir, 1);
        scfg.fleet.heartbeat_timeout = Duration::from_millis(150);
        scfg.fleet.crash_budget = 1;
        scfg.fleet.max_instant_deaths = 1;
        let report = run_bounded(1, scfg, scripted("stall 0"));
        let stats = report.supervise.as_ref().unwrap();
        assert_eq!((stats.heartbeat_misses, stats.crashes), (1, 1));
        assert_eq!(kinds(&report), BTreeMap::from([(0, FailureKind::Crash)]));
        assert!(
            report.quarantined[0].chain[0].contains("killed after heartbeat timeout"),
            "{:?}",
            report.quarantined[0].chain
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_file_ends_the_run_with_checkpoint_and_no_quarantines() {
        let dir = test_dir("stop");
        let stop = dir.join("stop");
        let mut scfg = fast_cfg(&dir, 1);
        scfg.fleet.stop_file = Some(stop.clone());
        let checkpoint = scfg.fleet.checkpoint.clone();
        // The child completes job 0, then finds the stop file on job 1 and
        // leaves the way `hunt join` does.
        let script = format!("stop 1 {}", stop.display());
        let report = run_bounded(2, scfg, scripted(&script));
        assert!(report.fleet.as_ref().unwrap().stopped);
        assert_eq!(
            report.supervise.as_ref().unwrap().respawns,
            0,
            "no respawns while stopping"
        );
        assert!(
            report.quarantined.is_empty(),
            "stopping is not failing: {:?}",
            report.quarantined
        );
        assert_eq!(report.tested(), 1, "completed work is kept");
        // The resumable checkpoint covers job 0 and leaves job 1 pending.
        let cp = Checkpoint::load(&checkpoint).unwrap();
        assert!(cp.covers(0) && !cp.covers(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn children_that_never_join_end_the_campaign_as_gave_up() {
        let dir = test_dir("nojoin");
        let report = run_bounded(3, fast_cfg(&dir, 1), exit_7);
        assert_eq!(
            kinds(&report).into_values().collect::<Vec<_>>(),
            vec![FailureKind::GaveUp; 3]
        );
        let stats = report.supervise.unwrap();
        assert_eq!(
            (stats.spawns, stats.respawns, stats.crashes),
            (1, 2, 3),
            "the breaker trips at max_instant_deaths deaths"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_death_counts_once_in_the_breaker_joined_or_not() {
        // Children alternate: one joins, leases a job and dies with it, the
        // next dies before it connects. Four deaths trip a breaker of four
        // — not three (a joined death counted at eviction and at reaping),
        // not seven (deaths before joining not counted).
        let dir = test_dir("once");
        let mut scfg = fast_cfg(&dir, 1);
        scfg.fleet.max_instant_deaths = 4;
        scfg.fleet.crash_budget = 100;
        let mut joined = scripted("die *");
        let mut spawned = 0;
        let report = run_bounded(2, scfg, move |addr| {
            spawned += 1;
            if spawned % 2 == 1 {
                joined(addr)
            } else {
                exit_7(addr)
            }
        });
        assert_eq!(
            kinds(&report).into_values().collect::<Vec<_>>(),
            vec![FailureKind::GaveUp; 2]
        );
        assert_eq!(report.supervise.unwrap().crashes, 4);
        assert_eq!(
            report.fleet.unwrap().evictions,
            2,
            "the joined children's connections"
        );
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
}
