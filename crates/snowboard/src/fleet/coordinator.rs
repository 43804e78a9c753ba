//! The coordinator half of the fleet: one loop owning the ledger (and with
//! it the checkpoint log), the lease table and every connection — and, under
//! `hunt --supervise`, the [`Pool`] of child processes behind them.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use super::{heartbeat_interval, FleetCfg};
use crate::campaign::{CampaignCfg, CampaignReport, JobVerdict};
use crate::error::{Error, SbResult};
use crate::journal::JournalRecord;
use crate::ledger::{Charge, Delivered, JobLedger};
use crate::metrics::FleetStats;
use crate::pmc::PmcId;
use crate::protocol::{
    read_frame, write_frame, JoinMsg, ProtocolError, ServeMsg, FLEET_PROTO_VERSION,
};
use crate::supervise::{Dead, Pool};

/// What a connection's reader thread forwards to the coordinator loop.
enum Note {
    /// A new connection; carries the write half.
    Conn(TcpStream),
    Msg(JoinMsg),
    /// The peer broke the protocol (and the reader stopped).
    Bad(ProtocolError),
    /// The connection's read side closed.
    Eof,
}

/// One live connection as the coordinator sees it.
struct Conn {
    stream: TcpStream,
    /// Assigned worker id after a successful handshake.
    worker: Option<u64>,
    /// The worker's session token from its join (0 = no resumption).
    session: u64,
    /// The worker's process id from its join.
    pid: u64,
    last_msg: Instant,
    /// Results (fresh or duplicate) delivered over this connection.
    completed: u64,
    /// The peer said [`JoinMsg::Leaving`]; its EOF is clean.
    leaving: bool,
    /// We told the peer to drain; its EOF is clean.
    drained: bool,
}

/// The transport half of one outstanding lease; the ledger holds its jobs
/// and deadline under the lease id.
struct Lease {
    /// Holding connection. `None` for a lease restored from the log
    /// whose session has not reconnected yet — the worker may still be
    /// alive and working, so the jobs stay off the pending pool until the
    /// session re-joins (reattaching the lease) or the deadline reclaims
    /// them — and for a lease whose supervised child is waiting to be
    /// reaped.
    conn: Option<u64>,
    /// Holder's session token (logged with the grant).
    session: u64,
}

/// Mutable coordinator state threaded through the loop helpers.
struct Coordinator<'a> {
    cfg: &'a CampaignCfg,
    fcfg: &'a FleetCfg,
    ledger: JobLedger,
    stats: FleetStats,
    leases: BTreeMap<u64, Lease>,
    conns: BTreeMap<u64, Conn>,
    /// Per-session highest logged result sequence number.
    sessions: BTreeMap<u64, u64>,
    /// Sessions of workers evicted uncleanly that have not joined again. A
    /// drain waits for them (up to its deadline), welcomes their rejoin and
    /// answers its next request with `drain`, so a worker that lost its
    /// connection in the last moments of a campaign exits cleanly instead
    /// of retrying a coordinator that is gone.
    evicted: BTreeSet<u64>,
    /// The kill-switch hook fired: unwind without writing anything more.
    killed: bool,
    next_worker: u64,
    next_lease: u64,
    drain_deadline: Instant,
    /// The supervised process pool, when the workers are our children.
    pool: Option<Pool<'a>>,
}

impl Coordinator<'_> {
    fn tracer(&self) -> &sb_obs::Tracer {
        &self.cfg.tracer
    }

    fn fleet_event(&self, worker: u64, action: &str, detail: String) {
        let tracer = self.tracer();
        tracer.emit(&sb_obs::Event::Fleet {
            t: tracer.now_us(),
            worker,
            action: action.into(),
            detail,
        });
    }

    fn send(&mut self, conn_id: u64, msg: &ServeMsg) -> bool {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        if write_frame(&mut conn.stream, &msg.render()).is_err() {
            // The peer is gone; its EOF note (or this eviction) cleans up.
            self.drop_conn(conn_id, Some("send failed (peer gone)"));
            return false;
        }
        true
    }

    /// Logs a lease grant or release in the checkpoint (before the caller
    /// acts on it); `false` when the kill switch fired.
    fn journal(&mut self, rec: &JournalRecord) -> bool {
        self.ledger.journal(rec);
        self.survived()
    }

    /// The [`FleetCfg::fail_after_journal`] kill switch, checked after
    /// every ledger call that may log a record: `false` once the log holds
    /// that many records after its header, and the caller must stop
    /// without acting on the last one, exactly as if the process died
    /// right after the append.
    fn survived(&mut self) -> bool {
        let (appends, _) = self.ledger.logged();
        if self.fcfg.fail_after_journal.is_some_and(|n| appends >= n) {
            if !self.killed {
                crate::chaos::fired("coord.kill-after-journal", &format!("append {appends}"));
                crate::chaos::count_fired(&self.cfg.tracer, "coord.kill-after-journal", 1);
            }
            self.killed = true;
            return false;
        }
        true
    }

    /// Removes a connection and hands its leases back to the ledger.
    /// `unclean` describes an unexpected death — counted as an eviction
    /// and a death in the fleet's breaker domain, its leases dead owners;
    /// clean closes (after `leaving`/`drained`) just release. A supervised
    /// child's connection is different only in when its death is charged:
    /// the child is killed, and its leases wait for [`Coordinator::bury`].
    fn drop_conn(&mut self, conn_id: u64, unclean: Option<&str>) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Both);
        let worker = conn.worker.unwrap_or(u64::MAX);
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.conn == Some(conn_id))
            .map(|(id, _)| *id)
            .collect();
        if let Some(detail) = unclean {
            self.stats.evictions += 1;
            self.fleet_event(worker, "evict", detail.to_owned());
            if let (Some(pool), Some(_)) = (self.pool.as_mut(), conn.worker) {
                for lease_id in &held {
                    if let Some(lease) = self.leases.get_mut(lease_id) {
                        lease.conn = None;
                    }
                }
                pool.orphan(conn.pid, worker, held, conn.completed);
                return;
            }
            if conn.worker.is_some() {
                self.ledger.note_death(conn.completed > 0);
                if conn.session != 0 {
                    self.evicted.insert(conn.session);
                }
            }
        }
        let died = |job| {
            let detail = unclean.unwrap_or_default();
            format!("worker connection died while job {job} was leased: {detail}")
        };
        let cause = unclean.map(|_| &died as &dyn Fn(usize) -> String);
        for lease_id in held {
            self.end_lease(lease_id, worker, cause);
        }
    }

    /// Ends lease `lease_id`, logged first: its jobs return to the
    /// pending pool, or — when `cause` says how the holder died — are
    /// charged against the crash budget with `cause(job)` heading the
    /// chain.
    fn end_lease(&mut self, lease_id: u64, worker: u64, cause: Option<&dyn Fn(usize) -> String>) {
        if self.leases.remove(&lease_id).is_none() {
            return; // the deadline reclaimed it meanwhile
        }
        self.journal(&JournalRecord::Release { lease: lease_id });
        // A crash quarantine is logged by the ledger with no session, so a
        // resume replays it without touching any ack watermark.
        let charges = match cause {
            Some(cause) => self
                .ledger
                .owner_died(lease_id, self.fcfg.crash_budget, cause),
            None => self
                .ledger
                .release(lease_id)
                .into_iter()
                .map(Charge::Requeued)
                .collect(),
        };
        self.survived();
        for charge in charges {
            if let Charge::Requeued(job) = charge {
                self.note_requeued(job, worker);
            }
        }
    }

    /// A supervised child was reaped and none of its connections is left:
    /// its process faults are attributed, the jobs it held are charged,
    /// and the breaker counts the death — once, joined or not.
    fn bury(&mut self, dead: Dead) {
        if !dead.clean {
            let plan = &self.cfg.fault_plan;
            for lease_id in &dead.leases {
                for job in self.ledger.held_by(*lease_id) {
                    // The child printed the ledger line before dying; the
                    // coordinator owns the trace counters. A stall surfaces
                    // as a heartbeat kill, abort/exit as a plain crash.
                    let site = if dead.hb_killed && plan.should_stall(job) {
                        "proc.stall"
                    } else if plan.should_abort(job) {
                        "proc.abort"
                    } else if plan.exit_code(job).is_some() {
                        "proc.exit"
                    } else {
                        continue;
                    };
                    crate::chaos::count_fired(&self.cfg.tracer, site, 1);
                }
            }
            self.ledger.note_death(dead.completed > 0);
        }
        let died = |job| {
            format!(
                "worker process died while job {job} was in flight: {}",
                dead.detail
            )
        };
        let cause = (!dead.clean).then_some(&died as &dyn Fn(usize) -> String);
        for lease_id in dead.leases.iter().copied() {
            self.end_lease(lease_id, dead.worker, cause);
        }
    }

    /// The deaths of one tick: under a pool, reap exited children and
    /// charge the ones whose connections are gone; then the breaker; then
    /// respawn while work is left. The breaker sits between the two, so a
    /// tripped campaign starts no process it would only have to kill.
    fn tend(&mut self) -> SbResult<()> {
        if let Some(pool) = self.pool.as_mut() {
            let conns = &self.conns;
            for dead in pool.reap(|pid| conns.values().any(|c| c.pid == pid)) {
                self.bury(dead);
            }
        }
        self.maybe_give_up();
        let wanted = !self.ledger.stopping() && self.ledger.pending() > 0;
        self.pool
            .as_mut()
            .map_or(Ok(()), |pool| pool.spawn_due(wanted))
    }

    /// A job went back to the pending pool. During a drain it is simply
    /// released (nobody will run it); otherwise it is a counted, traced
    /// reassignment.
    fn note_requeued(&mut self, job: usize, from_worker: u64) {
        if !self.ledger.stopping() {
            self.stats.jobs_reassigned += 1;
            self.fleet_event(
                from_worker,
                "reassign",
                format!("job {job} returned to the pending pool"),
            );
        }
    }

    /// Begins the drain: sync the checkpoint, tell every connection, and
    /// start the goodbye clock.
    fn start_drain(&mut self, reason: &str) {
        if self.ledger.stopping() {
            return;
        }
        self.drain_deadline = Instant::now() + self.fcfg.heartbeat_timeout;
        self.ledger.stop();
        self.fleet_event(u64::MAX, "drain", reason.to_owned());
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(c) = self.conns.get_mut(&id) {
                c.drained = true;
            }
            self.send(
                id,
                &ServeMsg::Drain {
                    reason: reason.to_owned(),
                },
            );
        }
    }

    fn handle_join(&mut self, conn_id: u64, proto: u64, config: u64, session: u64, pid: u64) {
        let reject = |this: &mut Self, reason: String| {
            this.stats.workers_rejected += 1;
            this.fleet_event(u64::MAX, "reject", reason.clone());
            this.send(conn_id, &ServeMsg::Reject { reason });
            this.drop_conn(conn_id, None);
        };
        let already_joined = self.conns.get(&conn_id).is_some_and(|c| c.worker.is_some());
        if already_joined {
            self.drop_conn(
                conn_id,
                Some("protocol violation: second join on one connection"),
            );
            return;
        }
        if proto != FLEET_PROTO_VERSION {
            reject(
                self,
                format!(
                    "protocol version {proto} not supported (coordinator speaks {FLEET_PROTO_VERSION})"
                ),
            );
            return;
        }
        if config != self.fcfg.config_hash {
            reject(
                self,
                format!(
                    "config fingerprint mismatch (worker {config:016x}, coordinator {:016x}) — \
                     launch the worker with the same campaign flags",
                    self.fcfg.config_hash
                ),
            );
            return;
        }
        // Only a live child can be charged when it dies, so a supervising
        // coordinator works with nobody else — and drains its late children
        // like the others instead of failing them.
        match &self.pool {
            Some(pool) if !pool.admit(pid) => {
                reject(
                    self,
                    format!("process {pid} is not a live child of this supervisor"),
                );
                return;
            }
            None if self.ledger.stopping() && !self.evicted.contains(&session) => {
                reject(self, "coordinator is draining".to_owned());
                return;
            }
            _ => {}
        }
        let worker = self.next_worker;
        self.next_worker += 1;
        self.evicted.remove(&session);
        if let Some(c) = self.conns.get_mut(&conn_id) {
            c.worker = Some(worker);
            c.session = session;
            c.pid = pid;
        }
        self.stats.workers_joined += 1;
        self.fleet_event(worker, "join", format!("connection {conn_id} registered"));
        let mut ack = 0;
        if session != 0 {
            if self.sessions.contains_key(&session) {
                // A known session re-registering: ack what the log
                // already holds and hand its restored leases back, so the
                // worker trims its spool and keeps its in-flight jobs.
                self.stats.sessions_resumed += 1;
                self.fleet_event(
                    worker,
                    "resume-session",
                    format!("session {session:016x} re-registered"),
                );
                let deadline = Instant::now() + self.fcfg.lease_deadline;
                for (lease_id, lease) in &mut self.leases {
                    if lease.session == session && lease.conn.is_none() {
                        lease.conn = Some(conn_id);
                        self.ledger.extend(*lease_id, deadline);
                    }
                }
            }
            ack = *self.sessions.entry(session).or_insert(0);
        }
        let heartbeat_ms = heartbeat_interval(self.fcfg.heartbeat_timeout).as_millis() as u64;
        self.send(conn_id, &ServeMsg::Welcome { ack, heartbeat_ms });
    }

    fn handle_request(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let Some(worker) = conn.worker else {
            self.drop_conn(conn_id, Some("protocol violation: request before join"));
            return;
        };
        let session = conn.session;
        let ack = self.sessions.get(&session).copied().unwrap_or(0);
        if self.ledger.stopping() {
            if let Some(c) = self.conns.get_mut(&conn_id) {
                c.drained = true;
            }
            self.send(
                conn_id,
                &ServeMsg::Drain {
                    reason: "coordinator is draining".into(),
                },
            );
            return;
        }
        let lease = self.next_lease;
        let deadline = Instant::now() + self.fcfg.lease_deadline;
        let jobs = self.ledger.lease(lease, self.fcfg.batch, Some(deadline));
        if jobs.is_empty() {
            // Nothing to hand out right now (everything is leased or
            // covered); the worker naps for the advertised interval and
            // asks again. The ack still rides along so an idle worker's
            // spool drains.
            self.send(
                conn_id,
                &ServeMsg::Lease {
                    lease: 0,
                    jobs: vec![],
                    deadline_ms: self.fcfg.poll.as_millis() as u64,
                    ack,
                },
            );
            return;
        }
        self.next_lease += 1;
        // Log the grant before the worker can learn of it: a resume
        // must know these jobs are out even if the kill lands between the
        // append and the send.
        if !self.journal(&JournalRecord::Lease {
            lease,
            session,
            jobs: jobs.clone(),
        }) {
            return;
        }
        self.leases.insert(
            lease,
            Lease {
                conn: Some(conn_id),
                session,
            },
        );
        self.stats.leases_granted += 1;
        self.fleet_event(worker, "lease", format!("lease {lease}: jobs {jobs:?}"));
        self.send(
            conn_id,
            &ServeMsg::Lease {
                lease,
                jobs,
                deadline_ms: self.fcfg.lease_deadline.as_millis() as u64,
                ack,
            },
        );
    }

    /// One delivered result frame: refuse jobs outside the universe, count
    /// redeliveries, drop frames whose sequence number the log already
    /// holds (the worker will trim them at the next ack), then hand fresh
    /// ones to the ledger, which logs them before merging.
    fn handle_result(
        &mut self,
        conn_id: u64,
        job: usize,
        verdict: JobVerdict,
        seq: u64,
        redelivery: bool,
    ) {
        let Some((worker, session)) = self
            .conns
            .get(&conn_id)
            .and_then(|c| c.worker.map(|w| (w, c.session)))
        else {
            self.drop_conn(conn_id, Some("protocol violation: result before join"));
            return;
        };
        if let Err(e) = self.ledger.check(job) {
            self.drop_conn(conn_id, Some(&format!("protocol violation: {e}")));
            return;
        }
        if let Some(c) = self.conns.get_mut(&conn_id) {
            c.completed += 1;
        }
        if redelivery {
            self.stats.redelivered += 1;
            self.fleet_event(
                worker,
                "redeliver",
                format!("session {session:016x} re-sent seq {seq} (job {job})"),
            );
        }
        if session != 0 && seq != 0 {
            let acked = self.sessions.entry(session).or_insert(0);
            if seq <= *acked {
                // Already logged (merged live or replayed at resume):
                // idempotent skip, nothing new to record.
                return;
            }
        }
        let delivered = self.ledger.deliver_from(session, seq, job, verdict);
        if !self.survived() {
            return;
        }
        if session != 0 && seq != 0 {
            self.sessions.insert(session, seq);
        }
        match delivered {
            Ok(Delivered::Merged) => {
                // The job may have sat in the deliverer's lease or (after
                // reassignment) someone else's; drop leases it emptied.
                self.leases.retain(|id, _| self.ledger.holds(*id));
            }
            Ok(Delivered::Duplicate) => {
                self.stats.duplicate_results += 1;
                self.fleet_event(
                    worker,
                    "duplicate",
                    format!("late result for already-covered job {job} dropped"),
                );
            }
            Err(e) => self.drop_conn(conn_id, Some(&format!("protocol violation: {e}"))),
        }
    }

    /// Reclaims unfinished jobs from expired leases. The holder is *not*
    /// evicted — it may be partitioned-but-alive and deliver late (the
    /// duplicate path absorbs that); it just no longer owns the jobs.
    fn sweep_leases(&mut self, now: Instant) {
        for (lease_id, jobs) in self.ledger.expire(now) {
            let lease = self.leases.remove(&lease_id);
            self.journal(&JournalRecord::Release { lease: lease_id });
            let worker = lease
                .and_then(|l| l.conn)
                .and_then(|c| self.conns.get(&c))
                .and_then(|c| c.worker)
                .unwrap_or(u64::MAX);
            for job in jobs {
                self.note_requeued(job, worker);
            }
        }
    }

    /// Evicts connections that have been silent past the heartbeat
    /// timeout.
    fn sweep_heartbeats(&mut self, now: Instant) {
        let silent: Vec<(u64, Duration)> = self
            .conns
            .iter()
            .map(|(id, c)| (*id, now.duration_since(c.last_msg)))
            .filter(|(_, silence)| *silence > self.fcfg.heartbeat_timeout)
            .collect();
        for (conn_id, silence) in silent {
            self.stats.heartbeat_misses += 1;
            if let (Some(pool), Some(conn)) = (self.pool.as_mut(), self.conns.get(&conn_id)) {
                pool.heartbeat_kill(conn.pid, silence);
            }
            let detail = format!(
                "silent for {:.1}s (heartbeat timeout)",
                silence.as_secs_f64()
            );
            self.drop_conn(conn_id, Some(&detail));
        }
    }

    /// The crash-loop circuit breaker: if every worker keeps dying without
    /// completing anything and nobody is left, stop waiting and abandon
    /// the remaining jobs. Deliberately not logged: an abandoned job is
    /// reported but never persisted, so a resumed campaign retries it.
    fn maybe_give_up(&mut self) {
        let instant_deaths = self.ledger.instant_deaths();
        let pending = self.ledger.pending();
        if self.ledger.stopping()
            || instant_deaths < self.fcfg.max_instant_deaths
            || pending == 0
            || self.conns.values().any(|c| c.worker.is_some())
        {
            return;
        }
        self.fleet_event(
            u64::MAX,
            "give-up",
            format!(
                "{instant_deaths} consecutive instant deaths with no surviving worker; abandoning {pending} job(s)"
            ),
        );
        self.stats.gave_up_jobs += pending as u64;
        self.ledger.abandon(&format!(
            "fleet abandoned after {instant_deaths} consecutive instant worker deaths"
        ));
    }

    /// Applies what the resumed checkpoint log holds besides verdicts (the
    /// ledger merged those): counts the replay, restores the session ack
    /// watermarks, and rebuilds the outstanding lease table (pruned of
    /// jobs the log resolved).
    fn apply_replay(&mut self) {
        let replay = self.ledger.take_replay();
        self.stats.journal_damaged += replay.damaged;
        if replay.damaged > 0 {
            self.tracer()
                .count(sb_obs::keys::FLEET_JOURNAL_DAMAGED, replay.damaged);
            self.fleet_event(
                u64::MAX,
                "journal-damage",
                "checkpoint log had a damaged tail; resuming from the intact prefix".into(),
            );
        }
        self.stats.journal_replayed = replay.verdicts;
        if replay.verdicts > 0 {
            self.tracer()
                .count(sb_obs::keys::FLEET_JOURNAL_REPLAYED, replay.verdicts);
        }
        self.sessions.extend(replay.acked);
        // Leases granted but never released stay out: their holders may
        // still be alive and working, and will re-join with their session
        // tokens to deliver. The normal deadline sweep reclaims them if
        // nobody ever does. A supervisor's children are all new processes,
        // so under a pool no holder can come back: the jobs stay pending.
        let deadline = Instant::now() + self.fcfg.lease_deadline;
        for restored in replay.leases {
            self.next_lease = self.next_lease.max(restored.lease + 1);
            if self.pool.is_some() {
                continue;
            }
            let jobs = self
                .ledger
                .hold(restored.lease, &restored.jobs, Some(deadline));
            if jobs.is_empty() {
                continue;
            }
            self.sessions.entry(restored.session).or_insert(0);
            self.stats.leases_restored += 1;
            self.fleet_event(
                u64::MAX,
                "restore-lease",
                format!(
                    "lease {} (session {:016x}) still out: jobs {jobs:?}",
                    restored.lease, restored.session
                ),
            );
            self.leases.insert(
                restored.lease,
                Lease {
                    conn: None,
                    session: restored.session,
                },
            );
        }
    }
}

/// Runs a fleet campaign: binds no sockets itself — the caller passes the
/// bound listener (so it can print the actual address first) — then
/// accepts joiners, leases jobs, merges results, and returns the merged
/// report once every job is covered (or abandoned) and the fleet has
/// drained.
///
/// Per-job failures land in [`CampaignReport::quarantined`]; `Err` means a
/// campaign-level problem (unusable resume checkpoint, checkpoint write
/// failure).
pub fn run_coordinator(
    listener: TcpListener,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    fcfg: &FleetCfg,
) -> SbResult<CampaignReport> {
    coordinate(listener, exemplars, cfg, fcfg, None)
}

/// [`run_coordinator`], optionally tending the supervised process `pool`
/// whose children are its only workers.
pub(crate) fn coordinate<'a>(
    listener: TcpListener,
    exemplars: &[PmcId],
    cfg: &'a CampaignCfg,
    fcfg: &'a FleetCfg,
    pool: Option<Pool<'a>>,
) -> SbResult<CampaignReport> {
    let ledger = JobLedger::open(exemplars, cfg, Some(&fcfg.checkpoint))?;
    let _span = cfg.tracer.span("campaign");

    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<(u64, Note)>();
    spawn_acceptor(listener, tx, shutdown.clone(), fcfg.poll);

    let mut state = Coordinator {
        cfg,
        fcfg,
        ledger,
        stats: FleetStats::default(),
        leases: BTreeMap::new(),
        conns: BTreeMap::new(),
        sessions: BTreeMap::new(),
        evicted: BTreeSet::new(),
        killed: false,
        next_worker: 0,
        next_lease: 1,
        drain_deadline: Instant::now(),
        pool,
    };
    state.apply_replay();
    // Every verdict the resumed log holds lands in the merged summary, so
    // it emits the same per-job trace records as a live delivery would.
    state.ledger.trace_restored();

    let looped = coordinator_loop(&mut state, &rx);
    shutdown.store(true, Ordering::Relaxed);
    looped?;
    let (records, failed) = state.ledger.logged();
    state.stats.journal_records = records;
    state.stats.journal_damaged += u64::from(failed);
    for (key, n) in [
        (sb_obs::keys::FLEET_JOURNAL_RECORDS, records),
        (sb_obs::keys::FLEET_JOURNAL_DAMAGED, u64::from(failed)),
    ] {
        if n > 0 {
            cfg.tracer.count(key, n);
        }
    }
    if let Some(pool) = state.pool {
        pool.finish(&mut state.stats);
    }
    let mut report = state.ledger.finish()?;
    report.fleet = Some(state.stats);
    Ok(report)
}

/// Accepts connections until `shutdown`, assigning connection ids and
/// spawning one reader thread per connection.
fn spawn_acceptor(
    listener: TcpListener,
    tx: mpsc::Sender<(u64, Note)>,
    shutdown: Arc<AtomicBool>,
    poll: Duration,
) {
    std::thread::spawn(move || {
        let _ = listener.set_nonblocking(true);
        let mut next_conn: u64 = 0;
        while !shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let conn_id = next_conn;
                    next_conn += 1;
                    let _ = stream.set_nodelay(true);
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    if tx.send((conn_id, Note::Conn(stream))).is_err() {
                        return;
                    }
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(read_half);
                        loop {
                            match read_frame(&mut reader) {
                                Ok(Some(payload)) => match JoinMsg::parse_line(&payload) {
                                    Ok(msg) => {
                                        if tx.send((conn_id, Note::Msg(msg))).is_err() {
                                            return;
                                        }
                                    }
                                    Err(e) => {
                                        let _ = tx.send((conn_id, Note::Bad(e)));
                                        return;
                                    }
                                },
                                Ok(None) => break,
                                Err(e) => {
                                    let _ = tx.send((conn_id, Note::Bad(e)));
                                    return;
                                }
                            }
                        }
                        let _ = tx.send((conn_id, Note::Eof));
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(poll);
                }
                Err(_) => std::thread::sleep(poll),
            }
        }
    });
}

fn coordinator_loop(state: &mut Coordinator<'_>, rx: &mpsc::Receiver<(u64, Note)>) -> SbResult<()> {
    loop {
        if state.killed {
            // The fail-after-journal kill switch: unwind immediately,
            // writing nothing more, exactly as a `kill -9` would.
            return Err(Error::Fleet {
                detail: "fleet kill switch: simulated coordinator crash".into(),
            });
        }
        let now = Instant::now();

        if !state.ledger.stopping() && state.fcfg.stop_file.as_deref().is_some_and(Path::exists) {
            state.stats.stopped = true;
            state.start_drain("stop file");
        }
        state.sweep_leases(now);
        state.sweep_heartbeats(now);
        state.tend()?;

        if state.ledger.pending() == 0 && state.leases.is_empty() {
            state.start_drain("campaign complete");
        }
        // A supervisor also waits for its children to exit on their own, a
        // fleet for its uncleanly evicted workers to come back and drain.
        let settled = state.conns.is_empty()
            && state.evicted.is_empty()
            && state.pool.as_ref().is_none_or(Pool::idle);
        if state.ledger.stopping() && (settled || now >= state.drain_deadline) {
            // Stragglers past the deadline are cut off; no charges — the
            // campaign is over either way.
            let ids: Vec<u64> = state.conns.keys().copied().collect();
            for id in ids {
                if let Some(c) = state.conns.get_mut(&id) {
                    c.drained = true;
                }
                state.drop_conn(id, None);
            }
            return Ok(());
        }

        let (conn_id, note) = match rx.recv_timeout(state.fcfg.poll) {
            Ok(item) => item,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(Error::Fleet {
                    detail: "acceptor thread died".into(),
                });
            }
        };
        match note {
            Note::Conn(stream) => {
                state.conns.insert(
                    conn_id,
                    Conn {
                        stream,
                        worker: None,
                        session: 0,
                        pid: 0,
                        last_msg: Instant::now(),
                        completed: 0,
                        leaving: false,
                        drained: false,
                    },
                );
            }
            Note::Msg(msg) => {
                if let Some(c) = state.conns.get_mut(&conn_id) {
                    c.last_msg = Instant::now();
                } else {
                    continue; // already evicted; late frames are moot
                }
                match msg {
                    JoinMsg::Join {
                        proto,
                        config,
                        session,
                        pid,
                    } => {
                        state.handle_join(conn_id, proto, config, session, pid);
                    }
                    JoinMsg::Heartbeat => {}
                    JoinMsg::Request => state.handle_request(conn_id),
                    JoinMsg::Done {
                        job,
                        outcome,
                        seq,
                        redelivery,
                    } => {
                        state.handle_result(
                            conn_id,
                            job,
                            JobVerdict::Completed(outcome),
                            seq,
                            redelivery,
                        );
                    }
                    JoinMsg::Quarantine {
                        record,
                        seq,
                        redelivery,
                    } => {
                        let job = record.job;
                        state.handle_result(
                            conn_id,
                            job,
                            JobVerdict::Quarantined(record),
                            seq,
                            redelivery,
                        );
                    }
                    JoinMsg::Leaving { .. } => {
                        if let Some(c) = state.conns.get_mut(&conn_id) {
                            c.leaving = true;
                        }
                    }
                }
            }
            // A peer that said goodbye (or was told to drain) may close with
            // our last frame unread, which resets the socket instead of
            // ending it: still a clean close.
            Note::Eof | Note::Bad(ProtocolError::Io { .. })
                if state
                    .conns
                    .get(&conn_id)
                    .is_some_and(|c| c.leaving || c.drained) =>
            {
                state.drop_conn(conn_id, None);
            }
            Note::Eof => state.drop_conn(conn_id, Some("connection closed unexpectedly")),
            Note::Bad(e) => state.drop_conn(conn_id, Some(&format!("protocol violation: {e}"))),
        }
    }
}
