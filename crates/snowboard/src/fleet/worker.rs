//! The worker half of the fleet: `hunt join`. Connect and handshake, lease
//! jobs, run them, and
//! stream the verdicts back through the [`Outbox`].

use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_kernel::{BootedKernel, Program};
use sb_vmm::Executor;

use super::outbox::Outbox;
use crate::campaign::{run_one_job, CampaignCfg, IncidentalIndex, JobEnv, JobVerdict};
use crate::error::{Error, SbResult};
use crate::fault::{FaultPlan, NetFaultPlan};
use crate::pmc::{PmcId, PmcSet};
use crate::protocol::{read_frame, write_frame, JoinMsg, ServeMsg, FLEET_PROTO_VERSION};
use crate::retry::jittered_backoff;

/// The longest nap on an empty lease, whatever interval it advertises: a
/// stop file is seen, and an idle worker asks again, within this long.
const MAX_IDLE_NAP: Duration = Duration::from_millis(100);

/// Set once a `proc:stall` fault has parked this process. A wedged process
/// says nothing, so the heartbeat thread falls silent with it.
static WEDGED: AtomicBool = AtomicBool::new(false);

/// Worker tuning for [`run_join`]. The heartbeat interval and the lease
/// size are the coordinator's: its `welcome` and its leases carry them.
#[derive(Clone, Debug)]
pub struct JoinCfg {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// This worker's [`super::config_fingerprint`]; must match the
    /// coordinator's.
    pub config_hash: u64,
    /// Consecutive failed connect/handshake attempts before giving up.
    pub connect_attempts: u32,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling on the exponential reconnect delay (before jitter).
    pub backoff_max: Duration,
    /// Socket read timeout: a coordinator silent this long counts as a
    /// lost session (and a mid-handshake death cannot hang the worker).
    pub io_timeout: Duration,
    /// Exit cleanly between jobs when this file exists.
    pub stop_file: Option<PathBuf>,
    /// Disk spool for completed-but-unacked results. `None` keeps the
    /// spool in memory only (results survive reconnects but not a worker
    /// restart); a path persists the session token and undelivered frames
    /// so a restarted worker redelivers them under the same session.
    pub spool: Option<PathBuf>,
    /// Deterministic network fault injection, keyed by connection ordinal.
    pub net_faults: NetFaultPlan,
}

impl Default for JoinCfg {
    fn default() -> Self {
        JoinCfg {
            addr: "127.0.0.1:0".into(),
            config_hash: 0,
            connect_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            stop_file: None,
            spool: None,
            net_faults: NetFaultPlan::default(),
        }
    }
}

/// The prepared work a joining worker runs jobs against. Built lazily (the
/// closure passed to [`run_join`]) so a worker that can never reach the
/// coordinator fails fast without booting a kernel.
pub struct FleetWork {
    /// The booted kernel and snapshot.
    pub booted: BootedKernel,
    /// The sequential test corpus.
    pub corpus: Vec<Program>,
    /// The identified PMC universe.
    pub set: PmcSet,
    /// The ordered exemplar list (the coordinator's job universe).
    pub exemplars: Vec<PmcId>,
}

/// What one worker did for the fleet.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinSummary {
    /// Jobs this worker delivered verdicts for.
    pub jobs_completed: u64,
    /// Non-empty leases it received.
    pub leases: u64,
    /// Times it lost the coordinator and re-registered.
    pub reconnects: u64,
    /// Results spooled to disk while holding them (0 without
    /// [`JoinCfg::spool`]).
    pub spooled: u64,
    /// Spooled results re-sent after a reconnect.
    pub redelivered: u64,
    /// Results still unacknowledged when the worker exited (0 on a clean
    /// drain; can be positive on a stop-file exit mid-outage).
    pub undelivered: u64,
    /// True when the coordinator drained the fleet.
    pub drained: bool,
    /// True when the worker's own stop file ended the session.
    pub stopped: bool,
}

/// The write half of a fleet connection, shared between the session loop
/// and the heartbeat thread, with fault injection applied per frame.
///
/// Fault triggers count only *substantive* frames (join/request/results);
/// heartbeats ride along uncounted, because their timing is wall-clock and
/// counting them would make `drop=0:6`-style specs nondeterministic.
struct WriteHalf {
    stream: TcpStream,
    ordinal: u64,
    sent: u64,
    faults: NetFaultPlan,
    write_closed: bool,
    /// Ledger dedup: the per-frame delay is noted once per connection.
    delay_noted: bool,
    /// Ledger dedup: the hard drop is noted once even if sends keep coming.
    dropped: bool,
}

impl WriteHalf {
    fn send(&mut self, msg: &JoinMsg) -> std::io::Result<()> {
        let substantive = !matches!(msg, JoinMsg::Heartbeat);
        if substantive {
            self.sent += 1;
        }
        let frame = self.sent;
        if let Some(delay) = self.faults.delay_for(self.ordinal) {
            if !self.delay_noted {
                self.delay_noted = true;
                crate::chaos::fired(
                    "net.delay",
                    &format!("conn {} ms {}", self.ordinal, delay.as_millis()),
                );
            }
            std::thread::sleep(delay);
        }
        if substantive && self.faults.drop_now(self.ordinal, frame) {
            if !self.dropped {
                self.dropped = true;
                crate::chaos::fired("net.drop", &format!("conn {} frame {frame}", self.ordinal));
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected connection drop",
            ));
        }
        if self.write_closed {
            // Half-closed: sends are silently swallowed, mimicking a peer
            // whose ACKs still flow while its data never arrives.
            return Ok(());
        }
        let mut payload = msg.render();
        if substantive && self.faults.garble_now(self.ordinal, frame) {
            crate::chaos::fired(
                "net.garble",
                &format!("conn {} frame {frame}", self.ordinal),
            );
            payload = garble(&payload);
        }
        write_frame(&mut self.stream, &payload)?;
        if substantive && self.faults.half_close_now(self.ordinal, frame) {
            crate::chaos::fired(
                "net.halfclose",
                &format!("conn {} frame {frame}", self.ordinal),
            );
            let _ = self.stream.shutdown(Shutdown::Write);
            self.write_closed = true;
        }
        Ok(())
    }
}

/// Corrupts every third byte (XOR 0x15 keeps the payload valid UTF-8 but
/// breaks the JSON), so the frame arrives intact and the coordinator's
/// *message* validation — not its framing — must catch it.
fn garble(payload: &str) -> String {
    let mut bytes = payload.as_bytes().to_vec();
    for (i, b) in bytes.iter_mut().enumerate() {
        if i.is_multiple_of(3) && b.is_ascii() {
            *b ^= 0x15;
            *b &= 0x7f;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// How one connected session ended.
enum SessionEnd {
    /// The coordinator drained the fleet; exit cleanly.
    Drained,
    /// The worker's stop file appeared; exit cleanly.
    Stopped,
    /// The connection died; reconnect with backoff.
    Lost,
    /// The coordinator is unusable (rejection, bad job index); give up.
    Fatal(Error),
}

/// Joins a fleet: connect and handshake with bounded retries, then lease
/// and run jobs until the coordinator drains (or the stop file appears),
/// transparently re-registering after lost connections. Every reconnect
/// loop is bounded by [`JoinCfg::connect_attempts`]; a worker that gives up
/// holding undelivered results says how many, and where they are kept.
///
/// `prepare` builds the (expensive) kernel/corpus/PMC state and is only
/// invoked after the first successful handshake, so a worker pointed at a
/// dead address fails fast with a one-line [`Error::Fleet`].
pub fn run_join(
    cfg: &CampaignCfg,
    jcfg: &JoinCfg,
    prepare: impl FnOnce() -> SbResult<FleetWork>,
) -> SbResult<JoinSummary> {
    let mut prepare = Some(prepare);
    let mut work: Option<(FleetWork, Vec<PmcId>, IncidentalIndex)> = None;
    let mut summary = JoinSummary::default();
    let mut outbox = Outbox::open(jcfg.spool.as_deref());
    let mut sessions: u64 = 0;
    let mut failures: u64 = 0;
    let mut ordinal: u64 = 0;
    // Jobs run with the in-process faults only and tracing off: the
    // coordinator emits every trace event from the merged result stream.
    let job_cfg = CampaignCfg {
        fault_plan: cfg.fault_plan.in_process(),
        tracer: sb_obs::Tracer::disabled(),
        ..cfg.clone()
    };

    let settle = |summary: &mut JoinSummary, outbox: &Outbox| {
        summary.spooled = outbox.spooled;
        summary.undelivered = outbox.pending.len() as u64;
    };

    loop {
        if jcfg.stop_file.as_deref().is_some_and(Path::exists) {
            summary.stopped = true;
            settle(&mut summary, &outbox);
            return Ok(summary);
        }
        if failures > 0 {
            let mix = cfg.seed ^ 0xF1EE_7000;
            std::thread::sleep(jittered_backoff(
                jcfg.backoff_base,
                jcfg.backoff_max,
                mix,
                failures,
            ));
        }
        let connected = connect_and_join(jcfg, ordinal, outbox.session);
        let ((mut write, mut reader), ack, heartbeat) = match connected {
            Ok(joined) => joined,
            Err(HandshakeFail::Fatal(e)) => return Err(e),
            Err(HandshakeFail::Retry(detail)) => {
                failures += 1;
                if failures < u64::from(jcfg.connect_attempts.max(1)) {
                    continue;
                }
                let addr = &jcfg.addr;
                let held = outbox.pending.len();
                let detail = if held > 0 {
                    let kept = match &jcfg.spool {
                        Some(path) => format!("kept in the spool {}", path.display()),
                        None => "lost with this process (no --spool)".to_owned(),
                    };
                    format!(
                        "gave up on coordinator at {addr} holding {held} undelivered \
                         result(s), {kept}; {failures} attempt(s) failed: {detail}"
                    )
                } else if sessions == 0 {
                    format!(
                        "cannot reach coordinator at {addr} after {failures} attempt(s): {detail}"
                    )
                } else {
                    format!(
                        "lost coordinator at {addr} after completing {} job(s) (all \
                         delivered); {failures} reconnect attempt(s) failed: {detail}",
                        summary.jobs_completed
                    )
                };
                return Err(Error::Fleet { detail });
            }
        };
        failures = 0;
        outbox.ack(ack);
        ordinal += 1;
        sessions += 1;
        summary.reconnects = sessions - 1;

        if work.is_none() {
            let built = prepare.take().expect("prepare used once")()?;
            let universe = crate::ledger::universe(&built.exemplars, cfg);
            let index = IncidentalIndex::build(&built.set);
            work = Some((built, universe, index));
        }
        let (built, universe, index) = work.as_ref().expect("prepared work");
        let env = JobEnv {
            booted: &built.booted,
            corpus: &built.corpus,
            set: &built.set,
            index,
        };
        let mut session = Session {
            env,
            faults: &cfg.fault_plan,
            job_cfg: &job_cfg,
            universe,
            jcfg,
            summary: &mut summary,
            outbox: &mut outbox,
        };
        let end = session.run(&mut write, &mut reader, heartbeat);
        match end {
            SessionEnd::Drained => {
                summary.drained = true;
                settle(&mut summary, &outbox);
                return Ok(summary);
            }
            SessionEnd::Stopped => {
                summary.stopped = true;
                settle(&mut summary, &outbox);
                return Ok(summary);
            }
            SessionEnd::Lost => continue,
            SessionEnd::Fatal(e) => return Err(e),
        }
    }
}

/// Why a connect+handshake attempt did not produce a session.
enum HandshakeFail {
    /// Transient (refused, timeout, died mid-handshake): retry with
    /// backoff.
    Retry(String),
    /// The coordinator answered and said no: do not retry.
    Fatal(Error),
}

type Halves = (Arc<Mutex<WriteHalf>>, BufReader<TcpStream>);

/// One connect + handshake attempt against the coordinator. On success
/// also returns what the `Welcome` says: its ack watermark — the highest
/// seq of this session's results the coordinator has already journaled, so
/// a reconnecting worker skips redelivering them — and the interval to
/// heartbeat at.
fn connect_and_join(
    jcfg: &JoinCfg,
    ordinal: u64,
    session: u64,
) -> Result<(Halves, u64, Duration), HandshakeFail> {
    let stream = TcpStream::connect(&jcfg.addr).map_err(|e| HandshakeFail::Retry(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(jcfg.io_timeout));
    let read_half = stream
        .try_clone()
        .map_err(|e| HandshakeFail::Retry(e.to_string()))?;
    let mut write = WriteHalf {
        stream,
        ordinal,
        sent: 0,
        faults: jcfg.net_faults.clone(),
        write_closed: false,
        delay_noted: false,
        dropped: false,
    };
    write
        .send(&JoinMsg::Join {
            proto: FLEET_PROTO_VERSION,
            config: jcfg.config_hash,
            session,
        })
        .map_err(|e| HandshakeFail::Retry(format!("handshake send failed: {e}")))?;
    let mut reader = BufReader::new(read_half);
    let frame = read_frame(&mut reader)
        .map_err(|e| HandshakeFail::Retry(format!("handshake read failed: {e}")))?
        .ok_or_else(|| {
            HandshakeFail::Retry("coordinator closed the connection mid-handshake".into())
        })?;
    match ServeMsg::parse_line(&frame) {
        Ok(ServeMsg::Welcome { ack, heartbeat_ms }) => Ok((
            (Arc::new(Mutex::new(write)), reader),
            ack,
            Duration::from_millis(heartbeat_ms),
        )),
        Ok(ServeMsg::Reject { reason }) => Err(HandshakeFail::Fatal(Error::Fleet {
            detail: format!("coordinator rejected this worker: {reason}"),
        })),
        Ok(other) => Err(HandshakeFail::Retry(format!(
            "unexpected handshake reply '{}'",
            other.kind()
        ))),
        Err(e) => Err(HandshakeFail::Retry(format!("bad handshake reply: {e}"))),
    }
}

/// One registered session of a joined worker.
struct Session<'a> {
    env: JobEnv<'a>,
    /// The full plan: process faults belong to the process boundary.
    faults: &'a FaultPlan,
    job_cfg: &'a CampaignCfg,
    /// The job universe (job index → PMC), as the coordinator budgets it.
    universe: &'a [PmcId],
    jcfg: &'a JoinCfg,
    summary: &'a mut JoinSummary,
    outbox: &'a mut Outbox,
}

/// Fires `job`'s process faults from the full plan, then runs it under
/// `job_cfg`.
fn run_job(
    env: JobEnv<'_>,
    faults: &FaultPlan,
    job_cfg: &CampaignCfg,
    exec: &mut Executor,
    job: usize,
    id: PmcId,
) -> JobVerdict {
    if faults.should_abort(job) {
        crate::chaos::fired("proc.abort", &format!("job {job}"));
        std::process::abort();
    }
    if let Some(code) = faults.exit_code(job) {
        crate::chaos::fired("proc.exit", &format!("job {job} code {code}"));
        std::process::exit(code);
    }
    if faults.should_stall(job) {
        crate::chaos::fired("proc.stall", &format!("job {job}"));
        WEDGED.store(true, Ordering::Relaxed);
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    run_one_job(exec, env, job, id, job_cfg)
}

impl Session<'_> {
    /// Heartbeat in the background every `interval`, lease and run jobs
    /// until drain/stop/loss.
    fn run(
        &mut self,
        write: &mut Arc<Mutex<WriteHalf>>,
        reader: &mut BufReader<TcpStream>,
        interval: Duration,
    ) -> SessionEnd {
        let done = Arc::new(AtomicBool::new(false));
        {
            let write = write.clone();
            let done = done.clone();
            std::thread::spawn(move || loop {
                std::thread::sleep(interval);
                // A process parked by `proc:stall` is wedged: it says
                // nothing, heartbeats included.
                if done.load(Ordering::Relaxed) || WEDGED.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut w) = write.lock() else { break };
                if w.send(&JoinMsg::Heartbeat).is_err() {
                    break;
                }
            });
        }
        let end = self.lease_loop(write, reader);
        done.store(true, Ordering::Relaxed);
        if matches!(end, SessionEnd::Drained | SessionEnd::Stopped) {
            // Best effort: the coordinator may already be gone.
            if let Ok(mut w) = write.lock() {
                let reason = if matches!(end, SessionEnd::Stopped) {
                    "stop file"
                } else {
                    "drained"
                };
                let _ = w.send(&JoinMsg::Leaving {
                    reason: reason.into(),
                });
            }
        }
        if let Ok(w) = write.lock() {
            let _ = w.stream.shutdown(Shutdown::Both);
        }
        end
    }

    fn lease_loop(
        &mut self,
        write: &Arc<Mutex<WriteHalf>>,
        reader: &mut BufReader<TcpStream>,
    ) -> SessionEnd {
        let (jcfg, outbox) = (self.jcfg, &mut *self.outbox);
        let send = |write: &Arc<Mutex<WriteHalf>>, msg: &JoinMsg| -> bool {
            write.lock().is_ok_and(|mut w| w.send(msg).is_ok())
        };
        // Redeliver everything still owed from earlier sessions before
        // asking for new work, so the coordinator merges in delivery order.
        for msg in outbox.redeliveries() {
            if !send(write, &msg) {
                return SessionEnd::Lost;
            }
            self.summary.redelivered += 1;
        }
        let mut exec = Executor::new(2);
        loop {
            if jcfg.stop_file.as_deref().is_some_and(Path::exists) {
                return SessionEnd::Stopped;
            }
            if !send(write, &JoinMsg::Request) {
                return SessionEnd::Lost;
            }
            let reply = match read_frame(reader) {
                Ok(Some(payload)) => match ServeMsg::parse_line(&payload) {
                    Ok(msg) => msg,
                    Err(_) => return SessionEnd::Lost,
                },
                Ok(None) | Err(_) => return SessionEnd::Lost,
            };
            match reply {
                ServeMsg::Drain { .. } => {
                    // The drain answered a request sent *after* our results
                    // on this ordered connection, so the coordinator has
                    // journaled every one of them: an implicit ack of all
                    // pending.
                    outbox.ack(outbox.next_seq.saturating_sub(1));
                    return SessionEnd::Drained;
                }
                ServeMsg::Lease {
                    jobs,
                    ack,
                    deadline_ms,
                    ..
                } if jobs.is_empty() => {
                    // Nothing to lease: nap for the interval the coordinator
                    // advertised (its tick), at most `MAX_IDLE_NAP`.
                    outbox.ack(ack);
                    std::thread::sleep(Duration::from_millis(deadline_ms).min(MAX_IDLE_NAP));
                }
                ServeMsg::Lease { jobs, ack, .. } => {
                    outbox.ack(ack);
                    self.summary.leases += 1;
                    // When the coordinator vanishes mid-lease the remaining
                    // leased jobs are still worth running: their verdicts
                    // go to the outbox and survive the outage.
                    let mut lost = false;
                    for job in jobs {
                        if jcfg.stop_file.as_deref().is_some_and(Path::exists) {
                            return SessionEnd::Stopped;
                        }
                        let Some(id) = self.universe.get(job).copied() else {
                            return SessionEnd::Fatal(Error::Fleet {
                                detail: format!(
                                    "coordinator leased job {job} outside the {}-job universe",
                                    self.universe.len()
                                ),
                            });
                        };
                        // Process faults fire before the job runs, so CI can
                        // kill a fleet worker at a deterministic point.
                        let verdict =
                            run_job(self.env, self.faults, self.job_cfg, &mut exec, job, id);
                        let msg = outbox.push(job, verdict);
                        self.summary.spooled = outbox.spooled;
                        if !lost && !send(write, &msg) {
                            lost = true;
                        }
                        self.summary.jobs_completed += 1;
                    }
                    if lost {
                        return SessionEnd::Lost;
                    }
                }
                ServeMsg::Welcome { .. } | ServeMsg::Reject { .. } => return SessionEnd::Lost,
            }
        }
    }
}
