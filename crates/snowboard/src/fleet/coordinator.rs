//! The coordinator half of the fleet: one loop owning the ledger (and with
//! it the checkpoint log), the lease table and every connection.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use super::{heartbeat_interval, FleetCfg};
use crate::campaign::{CampaignCfg, CampaignReport, JobVerdict};
use crate::error::{Error, SbResult};
use crate::ledger::{Charge, Delivered, JobLedger};
use crate::metrics::FleetStats;
use crate::pmc::PmcId;
use crate::protocol::{
    read_frame, write_frame, JoinMsg, ProtocolError, ServeMsg, FLEET_PROTO_VERSION,
};

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
    last_msg: Instant,
    /// Results (fresh or duplicate) delivered over this connection.
    completed: u64,
    /// The peer said [`JoinMsg::Leaving`]; its EOF is clean.
    leaving: bool,
    /// We told the peer to drain; its EOF is clean.
    drained: bool,
}

/// Mutable coordinator state threaded through the loop helpers.
struct Coordinator<'a> {
    cfg: &'a CampaignCfg,
    fcfg: &'a FleetCfg,
    ledger: JobLedger,
    stats: FleetStats,
    /// Outstanding leases: lease id → holding connection. The ledger holds
    /// each lease's jobs and deadline under the lease id.
    leases: BTreeMap<u64, u64>,
    conns: BTreeMap<u64, Conn>,
    /// The kill-switch hook fired: unwind without writing anything more.
    killed: bool,
    next_worker: u64,
    next_lease: u64,
    drain_deadline: Instant,
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

    /// The [`FleetCfg::fail_after_journal`] kill switch, checked after
    /// every ledger call that may log a verdict: `false` once the log holds
    /// that many verdicts after its header, and the caller must stop
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
    /// clean closes (after `leaving`/`drained`) just release.
    fn drop_conn(&mut self, conn_id: u64, unclean: Option<&str>) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Both);
        let worker = conn.worker.unwrap_or(u64::MAX);
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, holder)| **holder == conn_id)
            .map(|(id, _)| *id)
            .collect();
        if let Some(detail) = unclean {
            self.stats.evictions += 1;
            self.fleet_event(worker, "evict", detail.to_owned());
            if conn.worker.is_some() {
                self.ledger.note_death(conn.completed > 0);
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

    /// Ends lease `lease_id`: its jobs return to the pending pool, or —
    /// when `cause` says how the holder died — are charged against the
    /// crash budget with `cause(job)` heading the chain.
    fn end_lease(&mut self, lease_id: u64, worker: u64, cause: Option<&dyn Fn(usize) -> String>) {
        if self.leases.remove(&lease_id).is_none() {
            return; // the deadline reclaimed it meanwhile
        }
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
    /// start the goodbye clock. Only live connections are waited for: a
    /// worker that lost its connection is not, and one that joins during
    /// the drain is welcomed and told to drain.
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

    fn handle_join(&mut self, conn_id: u64, proto: u64, config: u64) {
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
        let worker = self.next_worker;
        self.next_worker += 1;
        if let Some(c) = self.conns.get_mut(&conn_id) {
            c.worker = Some(worker);
        }
        self.stats.workers_joined += 1;
        self.fleet_event(worker, "join", format!("connection {conn_id} registered"));
        let heartbeat_ms = heartbeat_interval(self.fcfg.heartbeat_timeout).as_millis() as u64;
        self.send(conn_id, &ServeMsg::Welcome { heartbeat_ms });
    }

    fn handle_request(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let Some(worker) = conn.worker else {
            self.drop_conn(conn_id, Some("protocol violation: request before join"));
            return;
        };
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
            // asks again.
            self.send(
                conn_id,
                &ServeMsg::Lease {
                    lease: 0,
                    jobs: vec![],
                    deadline_ms: self.fcfg.poll.as_millis() as u64,
                },
            );
            return;
        }
        self.next_lease += 1;
        self.leases.insert(lease, conn_id);
        self.stats.leases_granted += 1;
        self.fleet_event(worker, "lease", format!("lease {lease}: jobs {jobs:?}"));
        self.send(
            conn_id,
            &ServeMsg::Lease {
                lease,
                jobs,
                deadline_ms: self.fcfg.lease_deadline.as_millis() as u64,
            },
        );
    }

    /// One delivered result frame: refuse jobs outside the universe, count
    /// redeliveries, then hand it to the ledger, which logs a verdict that
    /// merges before merging it and counts one whose job is covered as a
    /// duplicate. Either way the result is logged before this connection's
    /// next frame is read, so the reply to its next request acknowledges
    /// it.
    fn handle_result(
        &mut self,
        conn_id: u64,
        job: usize,
        verdict: JobVerdict,
        seq: u64,
        redelivery: bool,
    ) {
        let Some(worker) = self.conns.get(&conn_id).and_then(|c| c.worker) else {
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
                format!("re-sent result {seq} (job {job})"),
            );
        }
        let delivered = self.ledger.deliver(job, verdict);
        if !self.survived() {
            return;
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
            let worker = self
                .leases
                .remove(&lease_id)
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

    /// Counts what the resumed checkpoint log held (the ledger merged its
    /// verdicts). Every job without a logged verdict is pending: a holder
    /// from before the crash that delivers it first is merged, one that
    /// delivers after someone else — or a verdict the log already holds — is
    /// a counted duplicate.
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
        killed: false,
        next_worker: 0,
        next_lease: 1,
        drain_deadline: Instant::now(),
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
        state.maybe_give_up();

        if state.ledger.pending() == 0 && state.leases.is_empty() {
            state.start_drain("campaign complete");
        }
        // The drain waits for live connections only, up to its deadline.
        if state.ledger.stopping() && (state.conns.is_empty() || now >= state.drain_deadline) {
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
                    JoinMsg::Join { proto, config } => state.handle_join(conn_id, proto, config),
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
