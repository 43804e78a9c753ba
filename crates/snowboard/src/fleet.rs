//! Fault-tolerant distributed campaign fabric: `hunt serve` / `hunt join`.
//!
//! [`supervise`](crate::supervise) runs one campaign across child
//! *processes* on one machine; this module runs it across *TCP peers*. A
//! coordinator ([`run_coordinator`]) owns the job universe and merged
//! checkpoint; any number of workers ([`run_join`]) connect, lease batches
//! of jobs, and stream results back over the framed protocol in
//! [`crate::protocol`]. The design goal is the same bit-for-bit guarantee
//! the supervisor gives: because every job derives its seeds from
//! `(campaign seed, job index)` alone, a merged fleet report is identical
//! to a single-process run **no matter how jobs land on workers** — even
//! under worker kills, partitions, and injected network faults.
//!
//! The job lifecycle is [`crate::ledger`]'s; this module is the transport —
//! connections, sessions, lease deadlines, the journal and the spool. The
//! failure model (see DESIGN.md):
//!
//! * **Handshake** — a joiner announces its protocol version and a
//!   fingerprint of every campaign-shaping parameter
//!   ([`config_fingerprint`]); mismatches are rejected outright, because
//!   merging results computed under different parameters would silently
//!   corrupt the report.
//! * **Leases, not shards** — jobs are handed out in small leased batches
//!   with a deadline. A worker that vanishes (crash, partition, kill -9)
//!   simply stops renewing its claim: expired or evicted leases return
//!   their unfinished jobs to the pending pool for reassignment.
//! * **Exactly-once merge** — reassignment means a slow-but-alive worker
//!   can deliver a result for a job someone else also ran. The ledger's
//!   merge rule is *first verdict wins*; duplicates are dropped and
//!   counted in [`FleetStats::duplicate_results`]. Since both deliveries
//!   computed the same deterministic outcome, which one wins is
//!   unobservable in the report.
//! * **Eviction** — a connection that dies unexpectedly, speaks garbage
//!   (a result for a job outside the universe included), or goes silent
//!   past the heartbeat timeout is evicted; its leases are reported to the
//!   ledger as dead owners, which charges their jobs against
//!   [`FleetCfg::crash_budget`].
//! * **Circuit breaker** — the breaker domain is the whole fleet, and it
//!   only trips with no surviving worker: consecutive zero-completion
//!   deaths then abandon the remaining jobs instead of waiting forever
//!   for a fleet that keeps dying on arrival.
//! * **Graceful drain** — the stop file (or campaign completion) flushes
//!   the checkpoint, answers every request with `drain`, and gives
//!   stragglers one heartbeat timeout to say goodbye.
//!
//! * **Write-ahead journal** — the coordinator records every lease grant,
//!   result delivery, and lease release in a CRC32C-framed journal
//!   ([`crate::journal`]) *before* acting on it, so a `kill -9` mid-lease
//!   loses nothing: `serve --resume` replays the journal on top of the
//!   merged checkpoint and rebuilds the exact lease table — re-granted
//!   leases, session ack watermarks, and the first-verdict-wins merge all
//!   land bit-identically to an uninterrupted run.
//! * **Session resumption and result spooling** — each worker picks a
//!   session token at startup and numbers its results with a per-session
//!   sequence. Results are spooled (in memory, and to disk when
//!   [`JoinCfg::spool`] is set) until the coordinator acks them; a worker
//!   that loses the coordinator finishes its leased jobs into the spool
//!   and reconnects indefinitely, then re-registers with the same token
//!   and redelivers everything past the coordinator's ack. Redeliveries
//!   are idempotent (journaled sequence numbers and the first-wins merge
//!   absorb them) and counted in [`FleetStats::redelivered`].
//!
//! Workers reconnect through deterministic exponential backoff and resume
//! leasing; a worker that cannot reach the coordinator at all gives up
//! after a bounded number of attempts with a typed error (a worker holding
//! undelivered results never gives up — it would lose them). Network fault
//! injection ([`NetFaultPlan`]) lets tests (and CI) drop, delay, garble,
//! or half-close specific connections deterministically.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sb_kernel::{BootedKernel, Program};
use sb_vmm::Executor;

use crate::campaign::{
    CampaignCfg, CampaignReport, IncidentalIndex, JobEnv, JobVerdict, RemoteJobs,
};
use crate::error::{Error, SbResult};
use crate::fault::NetFaultPlan;
use crate::journal::{journal_path_for, FrameLog, Journal, JournalRecord, ReplayVerdict};
use crate::ledger::{Charge, Delivered, JobLedger, Scope};
use crate::json::{self, Json};
use crate::metrics::FleetStats;
use crate::pmc::{PmcId, PmcSet};
use crate::protocol::{
    read_frame, write_frame, JoinMsg, ProtocolError, ServeMsg, FLEET_PROTO_VERSION,
};
use crate::retry::reseed;

/// Fingerprint of the campaign-shaping parameters, exchanged in the fleet
/// handshake. FNV-1a over `key=value;` pairs: not cryptographic, just a
/// cheap stable way for both ends to notice they were launched with
/// different flags before any results are merged.
pub fn config_fingerprint(parts: &[(&str, String)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (key, value) in parts {
        eat(key.as_bytes());
        eat(b"=");
        eat(value.as_bytes());
        eat(b";");
    }
    hash
}

/// Coordinator tuning. Defaults suit production; tests shrink every timing
/// knob to milliseconds.
#[derive(Clone, Debug)]
pub struct FleetCfg {
    /// Evict a connection heard from not at all for this long.
    pub heartbeat_timeout: Duration,
    /// Reclaim a lease's unfinished jobs this long after granting it.
    pub lease_deadline: Duration,
    /// Most jobs granted per lease.
    pub batch: usize,
    /// Coordinator tick: stop-file polls, lease/heartbeat sweeps.
    pub poll: Duration,
    /// Evictions charged to one job before it is quarantined as
    /// [`crate::error::FailureKind::Crash`].
    pub crash_budget: u32,
    /// Consecutive zero-completion evictions (with no surviving worker)
    /// before the remaining jobs are abandoned as
    /// [`crate::error::FailureKind::GaveUp`].
    pub max_instant_deaths: u32,
    /// Graceful-shutdown trigger: drain when this file exists.
    pub stop_file: Option<PathBuf>,
    /// The coordinator's merged checkpoint, saved as results arrive so a
    /// killed coordinator resumes mid-fleet. The write-ahead journal lives
    /// next to it ([`journal_path_for`]). The default is unique per
    /// construction — two coordinators sharing one checkpoint (and
    /// journal) would silently merge unrelated campaigns; pass an explicit
    /// durable path when resume across runs is wanted.
    pub checkpoint: PathBuf,
    /// Expected [`config_fingerprint`] of joining workers.
    pub config_hash: u64,
    /// Test hook: simulate `kill -9` after this many journal appends —
    /// the coordinator returns [`Error::Fleet`] without saving the
    /// checkpoint or draining, leaving exactly the on-disk state a killed
    /// process would. `None` (the default) disables the hook.
    pub fail_after_journal: Option<u64>,
}

impl Default for FleetCfg {
    fn default() -> Self {
        // Distinct per construction: a pid alone is not enough (one
        // process can host several coordinators, e.g. the test suite).
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        FleetCfg {
            heartbeat_timeout: Duration::from_secs(10),
            lease_deadline: Duration::from_secs(30),
            batch: 4,
            poll: Duration::from_millis(25),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: std::env::temp_dir()
                .join(format!("sb-fleet-{}-{n}.json", std::process::id())),
            config_hash: 0,
            fail_after_journal: None,
        }
    }
}

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
    /// Holding connection. `None` for a lease restored from the journal
    /// whose session has not reconnected yet — the worker may still be
    /// alive and working, so the jobs stay off the pending pool until the
    /// session re-joins (reattaching the lease) or the deadline reclaims
    /// them.
    conn: Option<u64>,
    /// Holder's session token (journaled with the grant).
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
    /// Write-ahead journal; `None` after an append failure (journaling
    /// degrades to checkpoint-only operation rather than killing the run).
    wal: Option<Journal>,
    /// Per-session highest journaled result sequence number.
    sessions: BTreeMap<u64, u64>,
    /// Journal appends this run (drives [`FleetCfg::fail_after_journal`]).
    journal_appends: u64,
    /// The kill-switch hook fired: unwind without saving anything.
    killed: bool,
    next_worker: u64,
    next_lease: u64,
    ever_joined: bool,
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
            self.evict(conn_id, "send failed (peer gone)");
            return false;
        }
        true
    }

    /// Appends one record to the write-ahead journal (flushed before the
    /// caller acts on the event it records). An append failure disables
    /// journaling for the rest of the run — counted and reported, never
    /// fatal: the checkpoint alone still gives the pre-journal guarantees.
    ///
    /// Returns `false` when the [`FleetCfg::fail_after_journal`] kill
    /// switch fired: the caller must stop without acting on the record,
    /// exactly as if the process died right after the append.
    fn journal(&mut self, rec: &JournalRecord) -> bool {
        if let Some(wal) = self.wal.as_mut() {
            match wal.append(rec) {
                Ok(()) => {
                    self.stats.journal_records += 1;
                    self.tracer().count(sb_obs::keys::FLEET_JOURNAL_RECORDS, 1);
                }
                Err(e) => {
                    let path = wal.path().display().to_string();
                    self.wal = None;
                    self.stats.journal_damaged += 1;
                    self.tracer().count(sb_obs::keys::FLEET_JOURNAL_DAMAGED, 1);
                    self.fleet_event(
                        u64::MAX,
                        "journal-error",
                        format!("append to {path} failed ({e}); journaling disabled"),
                    );
                }
            }
        }
        self.journal_appends += 1;
        if self.fcfg.fail_after_journal.is_some_and(|n| self.journal_appends >= n) {
            if !self.killed {
                crate::chaos::fired(
                    "coord.kill-after-journal",
                    &format!("append {}", self.journal_appends),
                );
                crate::chaos::count_fired(&self.cfg.tracer, "coord.kill-after-journal", 1);
            }
            self.killed = true;
            return false;
        }
        true
    }

    /// Durably syncs the journal; piggybacked on checkpoint saves so both
    /// files hit disk together.
    fn sync_journal(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            let _ = wal.sync();
        }
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
        if let Some(detail) = unclean {
            self.stats.evictions += 1;
            self.tracer().count(sb_obs::keys::FLEET_EVICTIONS, 1);
            self.fleet_event(worker, "evict", detail.to_owned());
            if conn.worker.is_some() {
                self.ledger.note_death(Scope::All, conn.completed > 0);
            }
        }
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.conn == Some(conn_id))
            .map(|(id, _)| *id)
            .collect();
        for lease_id in held {
            self.leases.remove(&lease_id);
            self.journal(&JournalRecord::Release { lease: lease_id });
            let charges = match unclean {
                Some(detail) => self.ledger.owner_died(lease_id, self.fcfg.crash_budget, |job| {
                    format!("worker connection died while job {job} was leased: {detail}")
                }),
                None => self.ledger.release(lease_id).into_iter().map(Charge::Requeued).collect(),
            };
            for charge in charges {
                match charge {
                    Charge::Requeued(job) => self.note_requeued(job, worker),
                    // Coordinator-originated verdict: journaled with no
                    // session/sequence, so a resume replays it without
                    // touching any ack watermark.
                    Charge::Quarantined(record) => {
                        self.journal(&JournalRecord::Quarantine { session: 0, seq: 0, record });
                        self.sync_journal();
                    }
                }
            }
        }
    }

    fn evict(&mut self, conn_id: u64, detail: &str) {
        self.drop_conn(conn_id, Some(detail));
    }

    /// A job went back to the pending pool. During a drain it is simply
    /// released (nobody will run it); otherwise it is a counted, traced
    /// reassignment.
    fn note_requeued(&mut self, job: usize, from_worker: u64) {
        if !self.ledger.stopping() {
            self.stats.jobs_reassigned += 1;
            self.tracer().count(sb_obs::keys::FLEET_REASSIGNED, 1);
            self.fleet_event(
                from_worker,
                "reassign",
                format!("job {job} returned to the pending pool"),
            );
        }
    }

    /// Begins the drain: flush the checkpoint, tell every connection, and
    /// start the goodbye clock.
    fn start_drain(&mut self, reason: &str) -> SbResult<()> {
        if self.ledger.stopping() {
            return Ok(());
        }
        self.drain_deadline = Instant::now() + self.fcfg.heartbeat_timeout;
        self.ledger.stop()?;
        self.sync_journal();
        self.fleet_event(u64::MAX, "drain", reason.to_owned());
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(c) = self.conns.get_mut(&id) {
                c.drained = true;
            }
            self.send(id, &ServeMsg::Drain { reason: reason.to_owned() });
        }
        Ok(())
    }

    fn handle_join(&mut self, conn_id: u64, proto: u64, config: u64, session: u64) {
        let reject = |this: &mut Self, reason: String| {
            this.stats.workers_rejected += 1;
            this.tracer().count(sb_obs::keys::FLEET_REJECTS, 1);
            this.fleet_event(u64::MAX, "reject", reason.clone());
            this.send(conn_id, &ServeMsg::Reject { reason });
            this.drop_conn(conn_id, None);
        };
        let already_joined = self
            .conns
            .get(&conn_id)
            .is_some_and(|c| c.worker.is_some());
        if already_joined {
            self.evict(conn_id, "protocol violation: second join on one connection");
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
        if self.ledger.stopping() {
            reject(self, "coordinator is draining".to_owned());
            return;
        }
        let worker = self.next_worker;
        self.next_worker += 1;
        if let Some(c) = self.conns.get_mut(&conn_id) {
            c.worker = Some(worker);
            c.session = session;
        }
        self.ever_joined = true;
        self.stats.workers_joined += 1;
        self.tracer().count(sb_obs::keys::FLEET_JOINS, 1);
        self.fleet_event(worker, "join", format!("connection {conn_id} registered"));
        let mut ack = 0;
        if session != 0 {
            if self.sessions.contains_key(&session) {
                // A known session re-registering: ack what the journal
                // already holds and hand its restored leases back, so the
                // worker trims its spool and keeps its in-flight jobs.
                self.stats.sessions_resumed += 1;
                self.tracer().count(sb_obs::keys::FLEET_SESSIONS_RESUMED, 1);
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
        let jobs = self.ledger.universe().len();
        self.send(conn_id, &ServeMsg::Welcome { worker, jobs, ack });
    }

    fn handle_request(&mut self, conn_id: u64, max: usize) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let Some(worker) = conn.worker else {
            self.evict(conn_id, "protocol violation: request before join");
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
                &ServeMsg::Drain { reason: "coordinator is draining".into() },
            );
            return;
        }
        let lease = self.next_lease;
        let want = self.fcfg.batch.min(max.max(1));
        let deadline = Instant::now() + self.fcfg.lease_deadline;
        let jobs = self.ledger.lease(lease, Scope::All, want, Some(deadline));
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
        // Journal the grant before the worker can learn of it: a resume
        // must know these jobs are out even if the kill lands between the
        // append and the send.
        if !self.journal(&JournalRecord::Lease { lease, session, jobs: jobs.clone() }) {
            return;
        }
        self.leases.insert(lease, Lease { conn: Some(conn_id), session });
        self.stats.leases_granted += 1;
        self.tracer().count(sb_obs::keys::FLEET_LEASES, 1);
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
    /// redeliveries, drop frames whose sequence number the journal already
    /// holds (the worker will trim them at the next ack), journal fresh
    /// ones, then hand the verdict to the ledger.
    fn handle_result(&mut self, conn_id: u64, job: usize, verdict: JobVerdict, seq: u64, redelivery: bool) {
        let Some((worker, session)) = self
            .conns
            .get(&conn_id)
            .and_then(|c| c.worker.map(|w| (w, c.session)))
        else {
            self.evict(conn_id, "protocol violation: result before join");
            return;
        };
        if let Err(e) = self.ledger.check(Scope::All, job) {
            self.evict(conn_id, &format!("protocol violation: {e}"));
            return;
        }
        if let Some(c) = self.conns.get_mut(&conn_id) {
            c.completed += 1;
        }
        if redelivery {
            self.stats.redelivered += 1;
            self.tracer().count(sb_obs::keys::FLEET_REDELIVERED, 1);
            self.fleet_event(
                worker,
                "redeliver",
                format!("session {session:016x} re-sent seq {seq} (job {job})"),
            );
        }
        if session != 0 && seq != 0 {
            let acked = self.sessions.entry(session).or_insert(0);
            if seq <= *acked {
                // Already journaled (merged live or replayed at resume):
                // idempotent skip, nothing new to record.
                return;
            }
        }
        let rec = match &verdict {
            JobVerdict::Completed(outcome) => JournalRecord::Done {
                session,
                seq,
                job,
                outcome: outcome.clone(),
            },
            JobVerdict::Quarantined(record) => JournalRecord::Quarantine {
                session,
                seq,
                record: record.clone(),
            },
        };
        if !self.journal(&rec) {
            return;
        }
        if session != 0 && seq != 0 {
            self.sessions.insert(session, seq);
        }
        match self.ledger.deliver(Scope::All, job, verdict) {
            Ok(Delivered::Merged { saved }) => {
                // The job may have sat in the deliverer's lease or (after
                // reassignment) someone else's; drop leases it emptied.
                self.leases.retain(|id, _| self.ledger.holds(*id));
                if saved {
                    self.sync_journal();
                }
            }
            Ok(Delivered::Duplicate) => {
                self.stats.duplicate_results += 1;
                self.tracer().count(sb_obs::keys::FLEET_DUPLICATES, 1);
                self.fleet_event(
                    worker,
                    "duplicate",
                    format!("late result for already-covered job {job} dropped"),
                );
            }
            Err(e) => self.evict(conn_id, &format!("protocol violation: {e}")),
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
            self.evict(
                conn_id,
                &format!("silent for {:.1}s (heartbeat timeout)", silence.as_secs_f64()),
            );
        }
    }

    /// The crash-loop circuit breaker: if every joiner keeps dying without
    /// completing anything and nobody is left, stop waiting and abandon
    /// the remaining jobs. Deliberately not journaled: an abandoned job is
    /// reported but never persisted, so a resumed campaign retries it.
    fn maybe_give_up(&mut self) {
        let instant_deaths = self.ledger.instant_deaths(Scope::All);
        let pending = self.ledger.pending(Scope::All);
        if self.ledger.stopping()
            || !self.ever_joined
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
        self.ledger.abandon(
            Scope::All,
            &format!("fleet abandoned after {instant_deaths} consecutive instant worker deaths"),
        );
    }

    /// Applies a journal replay on top of the loaded checkpoint: restores
    /// the replayed verdicts, persists the caught-up checkpoint, restores
    /// the session ack watermarks, and rebuilds the outstanding lease
    /// table (pruned of jobs the replay resolved).
    fn apply_replay(&mut self, replay: crate::journal::Replay) -> SbResult<()> {
        self.stats.journal_damaged += replay.damaged;
        if replay.damaged > 0 {
            self.tracer().count(sb_obs::keys::FLEET_JOURNAL_DAMAGED, replay.damaged);
            self.fleet_event(
                u64::MAX,
                "journal-damage",
                "journal had a damaged or foreign suffix; resuming from the intact prefix \
                 plus the merged checkpoint"
                    .into(),
            );
        }
        let replayed = replay.results.len() as u64;
        self.stats.journal_replayed = replayed;
        if replayed > 0 {
            self.tracer().count(sb_obs::keys::FLEET_JOURNAL_REPLAYED, replayed);
        }
        for verdict in replay.results {
            match verdict {
                ReplayVerdict::Done { job, outcome } => {
                    self.ledger.restore(job, JobVerdict::Completed(outcome));
                }
                ReplayVerdict::Quarantine { record } => {
                    self.ledger.restore(record.job, JobVerdict::Quarantined(record));
                }
            }
        }
        if replayed > 0 {
            self.ledger.save()?;
            self.sync_journal();
        }
        self.sessions.extend(replay.acked);
        // Leases granted but never released stay out: their holders may
        // still be alive and working, and will re-join with their session
        // tokens to deliver. The normal deadline sweep reclaims them if
        // nobody ever does.
        let deadline = Instant::now() + self.fcfg.lease_deadline;
        for restored in replay.leases {
            self.next_lease = self.next_lease.max(restored.lease + 1);
            let jobs = self.ledger.hold(restored.lease, Scope::All, &restored.jobs, Some(deadline));
            if jobs.is_empty() {
                continue;
            }
            self.sessions.entry(restored.session).or_insert(0);
            self.stats.leases_restored += 1;
            self.tracer().count(sb_obs::keys::FLEET_LEASES_RESTORED, 1);
            self.fleet_event(
                u64::MAX,
                "restore-lease",
                format!(
                    "lease {} (session {:016x}) still out: jobs {jobs:?}",
                    restored.lease, restored.session
                ),
            );
            self.leases.insert(restored.lease, Lease { conn: None, session: restored.session });
        }
        Ok(())
    }
}

/// Runs a fleet campaign: binds no sockets itself — the caller passes the
/// bound listener (so it can print the actual address first) — then
/// accepts joiners, leases jobs, merges results, and returns the merged
/// report once every job is covered (or abandoned) and the fleet has
/// drained.
///
/// Like [`crate::supervise::run_supervised`], per-job failures land in
/// [`CampaignReport::quarantined`]; `Err` means a campaign-level problem
/// (unusable resume checkpoint, checkpoint write failure).
pub fn run_coordinator(
    listener: TcpListener,
    exemplars: &[PmcId],
    cfg: &CampaignCfg,
    fcfg: &FleetCfg,
) -> SbResult<CampaignReport> {
    let ledger = JobLedger::open(exemplars, cfg, Some(&fcfg.checkpoint))?;
    let _span = cfg.tracer.span("campaign");

    // The write-ahead journal travels with the checkpoint. A resume
    // replays it (the helper below); a fresh run truncates any leftover.
    // Journal trouble is never fatal — the run degrades to checkpoint-only
    // durability with the damage counted.
    let jpath = journal_path_for(&fcfg.checkpoint);
    let resuming = cfg.resume_from.is_some();
    let jobs_total = ledger.universe().len() as u64;
    let (wal, replay) = if resuming {
        match Journal::open(&jpath, cfg.seed, fcfg.config_hash, jobs_total) {
            Ok((wal, replay)) => (Some(wal), Some(replay)),
            Err(_) => (None, None),
        }
    } else {
        (Journal::create(&jpath, cfg.seed, fcfg.config_hash, jobs_total).ok(), None)
    };
    let wal_failed = wal.is_none();

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
        wal,
        sessions: BTreeMap::new(),
        journal_appends: 0,
        killed: false,
        next_worker: 0,
        next_lease: 1,
        ever_joined: false,
        drain_deadline: Instant::now(),
    };
    if wal_failed {
        state.stats.journal_damaged += 1;
        state.tracer().count(sb_obs::keys::FLEET_JOURNAL_DAMAGED, 1);
        state.fleet_event(
            u64::MAX,
            "journal-error",
            format!("cannot open journal at {}; journaling disabled", jpath.display()),
        );
    }
    if let Some(replay) = replay {
        state.apply_replay(replay)?;
    }
    // Everything restored so far — checkpoint verdicts plus the replayed
    // journal suffix — lands in the merged summary, so it emits the same
    // per-job trace records as a live delivery would.
    state.ledger.trace_restored();
    // Persist the (possibly empty) checkpoint up front: the file exists
    // from the first moment the coordinator serves, so a kill at *any*
    // later point leaves something for `--resume` to load — the journal
    // supplies whatever the checkpoint had not caught up to.
    state.ledger.save()?;

    // Flush guard: a coordinator bug must not cost the fleet's completed
    // work — persist the checkpoint before the panic propagates.
    let looped = catch_unwind(AssertUnwindSafe(|| coordinator_loop(&mut state, &rx)));
    shutdown.store(true, Ordering::Relaxed);
    match looped {
        Ok(r) => r?,
        Err(payload) => {
            let _ = state.ledger.save();
            std::panic::resume_unwind(payload);
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

fn coordinator_loop(
    state: &mut Coordinator<'_>,
    rx: &mpsc::Receiver<(u64, Note)>,
) -> SbResult<()> {
    loop {
        if state.killed {
            // The fail-after-journal kill switch: unwind immediately,
            // skipping every save, exactly as a `kill -9` would.
            return Err(Error::Fleet {
                detail: "fleet kill switch: simulated coordinator crash".into(),
            });
        }
        let now = Instant::now();

        if !state.ledger.stopping() && state.fcfg.stop_file.as_deref().is_some_and(Path::exists) {
            state.stats.stopped = true;
            state.start_drain("stop file")?;
        }
        state.sweep_leases(now);
        state.sweep_heartbeats(now);
        state.maybe_give_up();

        if state.ledger.pending(Scope::All) == 0 && state.leases.is_empty() {
            state.start_drain("campaign complete")?;
        }
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
                return Err(Error::Fleet { detail: "acceptor thread died".into() });
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
                    JoinMsg::Join { proto, config, session } => {
                        state.handle_join(conn_id, proto, config, session);
                    }
                    JoinMsg::Heartbeat => {}
                    JoinMsg::Request { max } => state.handle_request(conn_id, max),
                    JoinMsg::Done { job, outcome, seq, redelivery } => {
                        state.handle_result(
                            conn_id,
                            job,
                            JobVerdict::Completed(outcome),
                            seq,
                            redelivery,
                        );
                    }
                    JoinMsg::Quarantine { record, seq, redelivery } => {
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
                if state.conns.get(&conn_id).is_some_and(|c| c.leaving || c.drained) =>
            {
                state.drop_conn(conn_id, None);
            }
            Note::Eof => state.evict(conn_id, "connection closed unexpectedly"),
            Note::Bad(e) => state.evict(conn_id, &format!("protocol violation: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Worker tuning for [`run_join`].
#[derive(Clone, Debug)]
pub struct JoinCfg {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// This worker's [`config_fingerprint`]; must match the coordinator's.
    pub config_hash: u64,
    /// Heartbeat emission interval.
    pub heartbeat: Duration,
    /// Most jobs requested per lease.
    pub batch: usize,
    /// Consecutive failed connect/handshake attempts before giving up.
    pub connect_attempts: u32,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling on the exponential reconnect delay (before jitter).
    pub backoff_max: Duration,
    /// Socket read timeout: a coordinator silent this long counts as a
    /// lost session (and a mid-handshake death cannot hang the worker).
    pub io_timeout: Duration,
    /// Nap between requests when the coordinator has nothing to lease.
    pub idle_poll: Duration,
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
            heartbeat: Duration::from_millis(2_500),
            batch: 4,
            connect_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            idle_poll: Duration::from_millis(100),
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

/// Reconnect delay before attempt `n` (1-based): same shape as
/// [`crate::supervise::respawn_backoff`], seeded from the campaign seed so
/// identical runs wait identically.
pub fn connect_backoff(jcfg: &JoinCfg, seed: u64, attempt: u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(20) as u32;
    let grown = jcfg
        .backoff_base
        .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
    let capped = grown.min(jcfg.backoff_max);
    let quarter_ms = capped.as_millis() as u64 / 4;
    let jitter_ms = if quarter_ms == 0 {
        0
    } else {
        reseed(seed ^ 0xF1EE_7000, attempt as u32) % (quarter_ms + 1)
    };
    capped + Duration::from_millis(jitter_ms)
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
                crate::chaos::fired(
                    "net.drop",
                    &format!("conn {} frame {frame}", self.ordinal),
                );
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

/// The worker's undelivered-results ledger.
///
/// Every verdict is stamped with the session's next sequence number and
/// queued here *before* the first send attempt, so a lost coordinator
/// never loses a completed job: the frames ride out the outage in
/// `pending` (and, with [`JoinCfg::spool`], on disk) and are re-sent with
/// the `redelivery` flag raised after the next successful handshake. The
/// coordinator's ack watermarks — carried on `Welcome` and every `Lease`
/// — trim the queue.
struct Outbox {
    /// This worker's session token (nonzero; adopted from the spool when
    /// it holds undelivered frames from a previous worker incarnation).
    session: u64,
    /// Next sequence number to stamp (1-based, monotone per session).
    next_seq: u64,
    /// Sent-but-unacked result frames, oldest first.
    pending: VecDeque<JoinMsg>,
    /// On-disk mirror: a session stamp, then frames and ack watermarks.
    spool: Option<FrameLog>,
    /// Frames appended to the disk spool (for the summary).
    spooled: u64,
}

impl Outbox {
    /// A fresh nonzero session token: splitmix of pid ⊕ wall clock. Not
    /// derived from the campaign seed on purpose — two workers joining
    /// with identical configs must not collide on a token.
    fn fresh_session() -> u64 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        reseed(u64::from(std::process::id()) ^ nanos, 1).max(1)
    }

    /// Opens the outbox: purely in-memory when `path` is `None`, else
    /// backed by the spool file. When the spool holds undelivered frames
    /// from a previous incarnation their session token is adopted so the
    /// coordinator recognizes the redeliveries; otherwise the spool is
    /// restamped for a fresh session.
    fn open(path: Option<&Path>) -> Outbox {
        let mut out = Outbox {
            session: Self::fresh_session(),
            next_seq: 1,
            pending: VecDeque::new(),
            spool: None,
            spooled: 0,
        };
        let Some(path) = path else { return out };
        let Ok(rec) = FrameLog::open(path) else { return out };
        let mut log = rec.log;
        let mut stored_session = 0u64;
        let mut acked = 0u64;
        let mut frames: Vec<JoinMsg> = Vec::new();
        for payload in &rec.records {
            let Ok(doc) = json::parse(payload) else { continue };
            if doc.get("msg").is_some() {
                if let Ok(msg) = JoinMsg::parse_line(payload) {
                    if msg_seq(&msg).is_some() {
                        frames.push(msg);
                    }
                }
            } else if let Some(s) = doc.get("session").and_then(Json::as_u64) {
                stored_session = s;
                acked = 0;
                frames.clear();
            } else if let Some(a) = doc.get("ack").and_then(Json::as_u64) {
                acked = acked.max(a);
            }
        }
        let max_seq = frames.iter().filter_map(msg_seq).max().unwrap_or(0);
        let live: VecDeque<JoinMsg> =
            frames.into_iter().filter(|m| msg_seq(m).unwrap_or(0) > acked).collect();
        if stored_session != 0 && !live.is_empty() {
            // Undelivered frames survive: resume their session. next_seq
            // must clear even *acked* seqs — reusing one would make the
            // coordinator silently drop a fresh result as a duplicate.
            out.session = stored_session;
            out.next_seq = max_seq.max(acked) + 1;
            out.pending = live;
            out.spool = Some(log);
            return out;
        }
        if log.reset().is_ok() && log.append(&session_record(out.session)).is_ok() {
            out.spool = Some(log);
        }
        out
    }

    /// Stamps `job`'s verdict with the next seq, spools it, and queues it
    /// as pending. Returns the frame to send.
    fn push(&mut self, job: usize, verdict: JobVerdict) -> JoinMsg {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = match verdict {
            JobVerdict::Completed(outcome) => {
                JoinMsg::Done { job, outcome, seq, redelivery: false }
            }
            JobVerdict::Quarantined(record) => {
                JoinMsg::Quarantine { record, seq, redelivery: false }
            }
        };
        if let Some(log) = self.spool.as_mut() {
            if log.append(&msg.render()).is_ok() {
                self.spooled += 1;
            } else {
                // A dying disk must not stop the campaign: fall back to
                // the in-memory queue (results then survive reconnects
                // but not a worker restart).
                self.spool = None;
            }
        }
        self.pending.push_back(msg.clone());
        msg
    }

    /// Applies a coordinator ack watermark: drops every pending frame
    /// with seq ≤ `ack`. When the queue empties the spool is compacted
    /// back to just the session stamp; otherwise the watermark itself is
    /// recorded so a restart skips the acked prefix.
    fn ack(&mut self, ack: u64) {
        let before = self.pending.len();
        self.pending.retain(|m| msg_seq(m).is_none_or(|s| s > ack));
        if self.pending.len() == before {
            return;
        }
        if let Some(log) = self.spool.as_mut() {
            let ok = if self.pending.is_empty() {
                log.reset().is_ok() && log.append(&session_record(self.session)).is_ok()
            } else {
                log.append(&ack_record(ack)).is_ok()
            };
            if !ok {
                self.spool = None;
            }
        }
    }

    /// Every pending frame, re-marked for redelivery, oldest first.
    fn redeliveries(&self) -> Vec<JoinMsg> {
        self.pending.iter().map(mark_redelivery).collect()
    }
}

/// The seq a result frame carries (`None` for non-result messages).
fn msg_seq(msg: &JoinMsg) -> Option<u64> {
    match msg {
        JoinMsg::Done { seq, .. } | JoinMsg::Quarantine { seq, .. } => Some(*seq),
        _ => None,
    }
}

/// Clones a result frame with the `redelivery` flag raised.
fn mark_redelivery(msg: &JoinMsg) -> JoinMsg {
    match msg {
        JoinMsg::Done { job, outcome, seq, .. } => {
            JoinMsg::Done { job: *job, outcome: outcome.clone(), seq: *seq, redelivery: true }
        }
        JoinMsg::Quarantine { record, seq, .. } => {
            JoinMsg::Quarantine { record: record.clone(), seq: *seq, redelivery: true }
        }
        other => other.clone(),
    }
}

/// The spool's session-stamp record.
fn session_record(session: u64) -> String {
    format!("{{\"session\":{session}}}")
}

/// A spool ack-watermark record.
fn ack_record(ack: u64) -> String {
    format!("{{\"ack\":{ack}}}")
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
/// transparently re-registering after lost connections.
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
            std::thread::sleep(connect_backoff(jcfg, cfg.seed, failures));
        }
        let connected = connect_and_join(jcfg, ordinal, outbox.session);
        let ((mut write, mut reader), welcome_ack) = match connected {
            Ok(joined) => joined,
            Err(HandshakeFail::Fatal(e)) => return Err(e),
            Err(HandshakeFail::Retry(detail)) => {
                failures += 1;
                if !outbox.pending.is_empty() {
                    // Holding undelivered results: never give up. Keep
                    // retrying on the capped jittered backoff until the
                    // coordinator comes back or the stop file ends us.
                    continue;
                }
                if failures >= u64::from(jcfg.connect_attempts.max(1)) {
                    if sessions == 0 {
                        return Err(Error::Fleet {
                            detail: format!(
                                "cannot reach coordinator at {} after {failures} attempt(s): \
                                 {detail}",
                                jcfg.addr
                            ),
                        });
                    }
                    return Err(Error::Fleet {
                        detail: format!(
                            "lost coordinator at {} after completing {} job(s) (all \
                             delivered); {failures} reconnect attempt(s) failed: {detail}",
                            jcfg.addr, summary.jobs_completed
                        ),
                    });
                }
                continue;
            }
        };
        failures = 0;
        outbox.ack(welcome_ack);
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
            remote: RemoteJobs::new(env, cfg),
            universe,
            jcfg,
            summary: &mut summary,
            outbox: &mut outbox,
        };
        let end = session.run(&mut write, &mut reader);
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
/// also returns the `Welcome` ack watermark — the highest seq of this
/// session's results the coordinator has already journaled, so a
/// reconnecting worker skips redelivering them.
fn connect_and_join(
    jcfg: &JoinCfg,
    ordinal: u64,
    session: u64,
) -> Result<(Halves, u64), HandshakeFail> {
    let stream = TcpStream::connect(&jcfg.addr)
        .map_err(|e| HandshakeFail::Retry(e.to_string()))?;
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
        Ok(ServeMsg::Welcome { ack, .. }) => Ok(((Arc::new(Mutex::new(write)), reader), ack)),
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
    remote: RemoteJobs<'a>,
    /// The job universe (job index → PMC), as the coordinator budgets it.
    universe: &'a [PmcId],
    jcfg: &'a JoinCfg,
    summary: &'a mut JoinSummary,
    outbox: &'a mut Outbox,
}

impl Session<'_> {
    /// Heartbeat in the background, lease and run jobs until
    /// drain/stop/loss.
    fn run(
        &mut self,
        write: &mut Arc<Mutex<WriteHalf>>,
        reader: &mut BufReader<TcpStream>,
    ) -> SessionEnd {
        let done = Arc::new(AtomicBool::new(false));
        {
            let write = write.clone();
            let done = done.clone();
            let interval = self.jcfg.heartbeat.max(Duration::from_millis(10));
            std::thread::spawn(move || loop {
                std::thread::sleep(interval);
                if done.load(Ordering::Relaxed) {
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
                let reason =
                    if matches!(end, SessionEnd::Stopped) { "stop file" } else { "drained" };
                let _ = w.send(&JoinMsg::Leaving { reason: reason.into() });
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
            if !send(write, &JoinMsg::Request { max: jcfg.batch.max(1) }) {
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
                ServeMsg::Lease { jobs, ack, .. } if jobs.is_empty() => {
                    outbox.ack(ack);
                    std::thread::sleep(jcfg.idle_poll);
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
                        let verdict = self.remote.run(&mut exec, job, id, || {});
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::PmcTestOutcome;
    use crate::checkpoint::{Checkpoint, CheckpointCfg};
    use crate::error::FailureKind;
    use crate::cluster::Strategy;
    use crate::select::ClusterOrder;
    use crate::{Pipeline, PipelineCfg};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sb-fleet-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A millisecond tick, but a heartbeat timeout no `cargo test` load can
    /// trip: none of these fixtures is about silence.
    fn fast_fcfg(dir: &Path) -> FleetCfg {
        FleetCfg {
            heartbeat_timeout: Duration::from_secs(10),
            lease_deadline: Duration::from_millis(2_000),
            batch: 2,
            poll: Duration::from_millis(5),
            crash_budget: 2,
            max_instant_deaths: 3,
            stop_file: None,
            checkpoint: dir.join("fleet.json"),
            config_hash: 0,
            fail_after_journal: None,
        }
    }

    fn outcome(job: usize, steps: u64) -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: Some(job as PmcId + 100),
            pair: (1, 2),
            trials_run: 8,
            exercised: true,
            findings: vec![],
            steps,
            first_finding_trial: None,
            repro_schedule: None,
            attempts: 1,
        }
    }

    /// A scripted fleet worker for driving the coordinator from tests.
    /// Each client gets a distinct session token (the counter below) and
    /// stamps its result frames with a monotone seq, like a real worker.
    struct Client {
        write: TcpStream,
        reader: BufReader<TcpStream>,
        session: u64,
        seq: u64,
    }

    fn fresh_test_session() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0xC11E_0001);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    impl Client {
        fn connect(addr: &std::net::SocketAddr) -> Client {
            let write = TcpStream::connect(addr).expect("connect");
            write.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let reader = BufReader::new(write.try_clone().unwrap());
            Client { write, reader, session: fresh_test_session(), seq: 0 }
        }

        fn send(&mut self, msg: &JoinMsg) {
            let _ = write_frame(&mut self.write, &msg.render());
        }

        /// Sends job's verdict with the next seq (a live first delivery).
        fn done(&mut self, job: usize, steps: u64) {
            self.seq += 1;
            self.send(&JoinMsg::Done {
                job,
                outcome: outcome(job, steps),
                seq: self.seq,
                redelivery: false,
            });
        }

        fn read(&mut self) -> ServeMsg {
            let payload = read_frame(&mut self.reader)
                .expect("frame")
                .expect("open stream");
            ServeMsg::parse_line(&payload).expect("serve msg")
        }

        fn join(addr: &std::net::SocketAddr, config: u64) -> (Client, ServeMsg) {
            let mut c = Client::connect(addr);
            let session = c.session;
            c.send(&JoinMsg::Join { proto: FLEET_PROTO_VERSION, config, session });
            let reply = c.read();
            (c, reply)
        }

        /// Reconnects under an existing session token with a resumed seq
        /// counter — a worker coming back after losing the coordinator.
        fn rejoin(
            addr: &std::net::SocketAddr,
            config: u64,
            session: u64,
            seq: u64,
        ) -> (Client, ServeMsg) {
            let mut c = Client::connect(addr);
            c.session = session;
            c.seq = seq;
            c.send(&JoinMsg::Join { proto: FLEET_PROTO_VERSION, config, session });
            let reply = c.read();
            (c, reply)
        }

        /// Requests until a non-empty lease or drain arrives.
        fn lease(&mut self, max: usize) -> Option<Vec<usize>> {
            loop {
                self.send(&JoinMsg::Request { max });
                match self.read() {
                    ServeMsg::Lease { jobs, .. } if jobs.is_empty() => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    ServeMsg::Lease { jobs, .. } => return Some(jobs),
                    ServeMsg::Drain { .. } => return None,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }

        /// Reads frames until drain, then leaves cleanly.
        fn drain(mut self) {
            loop {
                self.send(&JoinMsg::Request { max: 1 });
                match self.read() {
                    ServeMsg::Drain { .. } => break,
                    ServeMsg::Lease { jobs, .. } => {
                        assert!(jobs.is_empty(), "unexpected work while draining");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            self.send(&JoinMsg::Leaving { reason: "drained".into() });
        }
    }

    /// Binds a listener and runs the coordinator in a thread.
    fn start_coordinator(
        budgeted: Vec<PmcId>,
        cfg: CampaignCfg,
        fcfg: FleetCfg,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<SbResult<CampaignReport>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || run_coordinator(listener, &budgeted, &cfg, &fcfg));
        (addr, handle)
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = config_fingerprint(&[("seed", "7".into()), ("trials", "4".into())]);
        let b = config_fingerprint(&[("seed", "7".into()), ("trials", "4".into())]);
        let c = config_fingerprint(&[("seed", "8".into()), ("trials", "4".into())]);
        let d = config_fingerprint(&[("seed", "7".into())]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn connect_backoff_is_deterministic_and_clamped() {
        let jcfg = JoinCfg {
            backoff_base: Duration::from_millis(40),
            backoff_max: Duration::from_millis(200),
            ..JoinCfg::default()
        };
        let b1 = connect_backoff(&jcfg, 2021, 1);
        let b9 = connect_backoff(&jcfg, 2021, 9);
        assert_eq!(b1, connect_backoff(&jcfg, 2021, 1), "pure function");
        assert!(b1 >= Duration::from_millis(40) && b1 <= Duration::from_millis(50));
        assert!(b9 >= Duration::from_millis(200) && b9 <= Duration::from_millis(250));
    }

    #[test]
    fn scripted_workers_complete_a_fleet_campaign() {
        let dir = test_dir("clean");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let (addr, coord) =
            start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        let (mut a, reply) = Client::join(&addr, 0);
        assert!(
            matches!(reply, ServeMsg::Welcome { worker: 0, jobs: 4, ack: 0 }),
            "{reply:?}"
        );
        let jobs = a.lease(2).expect("first lease");
        assert_eq!(jobs, vec![0, 1], "ascending batch");
        for job in jobs {
            a.done(job, 100 + job as u64);
        }
        let jobs = a.lease(2).expect("second lease");
        assert_eq!(jobs, vec![2, 3]);
        for job in jobs {
            a.done(job, 100 + job as u64);
        }
        a.drain();

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 4);
        assert!(report.quarantined.is_empty());
        assert_eq!(
            report.outcomes.iter().map(|o| o.steps).collect::<Vec<_>>(),
            vec![100, 101, 102, 103],
            "merged in job order"
        );
        let stats = report.fleet.expect("fleet stats");
        assert_eq!(stats.workers_joined, 1);
        assert_eq!(stats.leases_granted, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.duplicate_results, 0);
        assert_eq!(stats.jobs_reassigned, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_worker_is_evicted_and_its_jobs_reassigned() {
        let dir = test_dir("evict");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let (addr, coord) =
            start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        // Worker A leases both jobs, finishes one, and dies mid-lease.
        let (mut a, _) = Client::join(&addr, 0);
        let jobs = a.lease(2).expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        drop(a); // unclean close

        // Worker B picks up the reassigned job (`lease` asks until the
        // eviction has put it back).
        let (mut b, _) = Client::join(&addr, 0);
        let jobs = b.lease(2).expect("reassigned lease");
        assert_eq!(jobs, vec![1]);
        b.done(1, 101);
        b.drain();

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 2);
        assert!(report.quarantined.is_empty());
        let stats = report.fleet.unwrap();
        assert_eq!(stats.workers_joined, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.jobs_reassigned, 1);
        assert_eq!(stats.heartbeat_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a worker whose lease expired delivers late — the first
    /// verdict wins, the duplicate is dropped and counted, and the report
    /// stays identical to what a clean run would have produced.
    #[test]
    fn late_result_after_reassignment_is_a_counted_duplicate() {
        let dir = test_dir("dup");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = FleetCfg {
            lease_deadline: Duration::from_millis(150),
            batch: 1,
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg);

        // A leases job 0 and sits on it (heartbeating, so it is not
        // evicted — it is slow, not dead).
        let (mut a, _) = Client::join(&addr, 0);
        let jobs = a.lease(1).expect("lease");
        assert_eq!(jobs, vec![0]);

        // B does job 1, then picks up job 0 once A's lease expires.
        let (mut b, _) = Client::join(&addr, 0);
        let jobs = b.lease(1).expect("lease");
        assert_eq!(jobs, vec![1]);
        b.done(1, 101);
        let reassigned = loop {
            a.send(&JoinMsg::Heartbeat);
            b.send(&JoinMsg::Request { max: 1 });
            match b.read() {
                ServeMsg::Lease { jobs, .. } if jobs.is_empty() => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                ServeMsg::Lease { jobs, .. } => break jobs,
                other => panic!("unexpected reply {other:?}"),
            }
        };
        assert_eq!(reassigned, vec![0], "expired lease reassigned");
        b.done(0, 100);
        // Sequence B's verdict through the coordinator before A's late
        // delivery: notes from one connection are processed in order, so a
        // reply to a later request proves the Done above was merged first
        // (A's note rides a different reader thread and could otherwise
        // race ahead of B's).
        b.send(&JoinMsg::Request { max: 1 });
        match b.read() {
            ServeMsg::Lease { jobs, .. } => assert!(jobs.is_empty(), "campaign is complete"),
            ServeMsg::Drain { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }

        // A finally delivers its (identical in real life; distinct here to
        // prove first-wins) result for job 0.
        a.done(0, 999);
        a.drain();
        b.drain();

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 2);
        assert_eq!(report.outcomes[0].steps, 100, "first verdict won");
        let stats = report.fleet.unwrap();
        assert_eq!(stats.duplicate_results, 1);
        assert_eq!(stats.jobs_reassigned, 1);
        assert_eq!(stats.evictions, 0, "slow worker was not evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_budget_quarantines_a_repeatedly_fatal_job() {
        let dir = test_dir("budget");
        let budgeted: Vec<PmcId> = vec![100];
        let fcfg = FleetCfg {
            crash_budget: 2,
            max_instant_deaths: 10,
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg.clone());

        for _ in 0..2 {
            let (mut w, _) = Client::join(&addr, 0);
            let jobs = w.lease(1).expect("lease");
            assert_eq!(jobs, vec![0]);
            drop(w); // die with the job leased
        }

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 0);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].kind, FailureKind::Crash);
        assert_eq!(report.quarantined[0].attempts, 2);
        let stats = report.fleet.unwrap();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.jobs_reassigned, 1, "one reassign before the budget hit");
        // Crash quarantines are checkpointed (never retried on resume).
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert!(cp.quarantined.contains_key(&0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn instant_death_loop_trips_the_circuit_breaker() {
        let dir = test_dir("breaker");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = FleetCfg {
            crash_budget: 100,
            max_instant_deaths: 2,
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg.clone());

        for _ in 0..2 {
            let (mut w, _) = Client::join(&addr, 0);
            let _ = w.lease(2).expect("lease");
            drop(w); // instant death: joined, completed nothing
        }

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 0);
        assert_eq!(report.quarantined.len(), 2);
        assert!(report.quarantined.iter().all(|q| q.kind == FailureKind::GaveUp));
        let stats = report.fleet.unwrap();
        assert_eq!(stats.gave_up_jobs, 2);
        // GaveUp is reported but not checkpointed: a resumed campaign
        // retries those jobs.
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert!(cp.quarantined.is_empty());
        assert!(cp.outcomes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_file_drains_the_fleet_without_quarantines() {
        let dir = test_dir("stop");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let stop = dir.join("stop");
        let fcfg = FleetCfg {
            stop_file: Some(stop.clone()),
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg.clone());

        let (mut a, _) = Client::join(&addr, 0);
        let jobs = a.lease(2).expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        std::fs::write(&stop, b"").unwrap();
        // The coordinator pushes a drain; absorb it and leave.
        match a.read() {
            ServeMsg::Drain { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        a.send(&JoinMsg::Leaving { reason: "drained".into() });
        drop(a);

        let report = coord.join().unwrap().expect("fleet report");
        let stats = report.fleet.as_ref().unwrap();
        assert!(stats.stopped);
        assert_eq!(stats.evictions, 0, "drain closes are clean");
        assert_eq!(stats.jobs_reassigned, 0, "no reassignment during drain");
        assert_eq!(report.tested(), 1, "completed work is kept");
        assert!(report.quarantined.is_empty());
        // The checkpoint resumes past job 0 only.
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert!(cp.covers(0));
        assert!(!cp.covers(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handshake_rejects_version_and_config_mismatches() {
        let dir = test_dir("reject");
        let budgeted: Vec<PmcId> = vec![100];
        let fcfg = FleetCfg { config_hash: 0xBEEF, ..fast_fcfg(&dir) };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg);

        let mut bad_proto = Client::connect(&addr);
        bad_proto.send(&JoinMsg::Join { proto: 99, config: 0xBEEF, session: 0 });
        let reply = bad_proto.read();
        assert!(
            matches!(&reply, ServeMsg::Reject { reason } if reason.contains("version")),
            "{reply:?}"
        );

        let (_bad_config, reply) = Client::join(&addr, 0xF00D);
        assert!(
            matches!(&reply, ServeMsg::Reject { reason } if reason.contains("fingerprint")),
            "{reply:?}"
        );

        let (mut good, reply) = Client::join(&addr, 0xBEEF);
        assert!(matches!(reply, ServeMsg::Welcome { .. }), "{reply:?}");
        let jobs = good.lease(1).expect("lease");
        good.done(jobs[0], 100);
        good.drain();

        let report = coord.join().unwrap().expect("fleet report");
        let stats = report.fleet.unwrap();
        assert_eq!(stats.workers_rejected, 2);
        assert_eq!(stats.workers_joined, 1);
        assert_eq!(stats.evictions, 0, "rejections are not evictions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_frames_evict_the_sender() {
        let dir = test_dir("garbage");
        let budgeted: Vec<PmcId> = vec![100];
        let (addr, coord) =
            start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        let (mut evil, _) = Client::join(&addr, 0);
        let _ = evil.lease(1).expect("lease");
        use std::io::Write as _;
        let _ = evil.write.write_all(b"not a frame at all\n");
        let _ = evil.write.flush();

        // The good worker finishes the campaign after the eviction.
        let (mut good, _) = Client::join(&addr, 0);
        let jobs = good.lease(1).expect("reassigned lease");
        good.done(jobs[0], 100);
        good.drain();

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 1);
        let stats = report.fleet.unwrap();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.jobs_reassigned, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_result_outside_the_universe_evicts_the_sender_and_leaves_no_trace() {
        let dir = test_dir("foreign");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = fast_fcfg(&dir);
        let (addr, coord) =
            start_coordinator(budgeted, CampaignCfg::default(), fcfg.clone());

        // A schema-valid `done` for job universe + 7.
        let (mut evil, _) = Client::join(&addr, 0);
        let jobs = evil.lease(1).expect("lease");
        assert_eq!(jobs, vec![0]);
        evil.done(9, 999);

        let (mut good, _) = Client::join(&addr, 0);
        let mut seen = Vec::new();
        while let Some(jobs) = good.lease(2) {
            for job in jobs {
                good.done(job, 100 + job as u64);
                seen.push(job);
            }
        }
        good.send(&JoinMsg::Leaving { reason: "drained".into() });
        drop((good, evil));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1], "the evicted worker's job was reassigned");

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(
            report.outcomes.iter().map(|o| o.steps).collect::<Vec<_>>(),
            vec![100, 101],
            "job 9 is in nobody's report"
        );
        assert!(report.quarantined.is_empty());
        assert_eq!(report.fleet.unwrap().evictions, 1);
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert_eq!(cp.outcomes.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        let (_, replay) = Journal::open(&journal_path_for(&fcfg.checkpoint), 2021, 0, 2)
            .expect("journal reopens");
        assert!(
            replay.results.iter().all(|v| match v {
                ReplayVerdict::Done { job, .. } => *job < 2,
                ReplayVerdict::Quarantine { record } => record.job < 2,
            }),
            "the foreign verdict was never journaled"
        );
        assert_eq!(replay.results.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- run_join (worker side) ------------------------------------------

    fn empty_work() -> SbResult<FleetWork> {
        let booted = sb_kernel::boot(sb_kernel::KernelConfig::v5_12_rc3());
        Ok(FleetWork {
            booted,
            corpus: vec![],
            set: crate::pmc::identify(&[]),
            exemplars: vec![],
        })
    }

    fn fast_jcfg(addr: String) -> JoinCfg {
        JoinCfg {
            addr,
            heartbeat: Duration::from_millis(50),
            batch: 2,
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            io_timeout: Duration::from_secs(5),
            idle_poll: Duration::from_millis(5),
            ..JoinCfg::default()
        }
    }

    #[test]
    fn unreachable_coordinator_fails_after_bounded_retries() {
        // Bind-then-drop guarantees a refused port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let jcfg = fast_jcfg(addr.clone());
        let err = run_join(&CampaignCfg::default(), &jcfg, empty_work).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cannot reach coordinator"), "{msg}");
        assert!(msg.contains("3 attempt(s)"), "{msg}");
    }

    #[test]
    fn rejected_worker_fails_fast_without_retrying() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut accepted = 0u32;
            listener
                .set_nonblocking(false)
                .expect("blocking listener");
            let deadline = Instant::now() + Duration::from_secs(2);
            listener.set_nonblocking(true).unwrap();
            while Instant::now() < deadline {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        accepted += 1;
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let _ = read_frame(&mut reader); // the join
                        let _ = write_frame(
                            &mut stream,
                            &ServeMsg::Reject { reason: "config fingerprint mismatch".into() }
                                .render(),
                        );
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
                if accepted > 0 {
                    break;
                }
            }
            accepted
        });
        let jcfg = fast_jcfg(addr);
        let err = run_join(&CampaignCfg::default(), &jcfg, empty_work).unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");
        assert_eq!(server.join().unwrap(), 1, "no retry after a rejection");
    }

    #[test]
    fn worker_reconnects_after_a_lost_session_and_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Session 1: welcome, then hang up on the first request.
            let (mut s1, _) = listener.accept().unwrap();
            let mut r1 = BufReader::new(s1.try_clone().unwrap());
            let _ = read_frame(&mut r1); // join
            write_frame(&mut s1, &ServeMsg::Welcome { worker: 0, jobs: 0, ack: 0 }.render())
                .unwrap();
            let _ = read_frame(&mut r1); // request
            drop(s1);
            // Session 2: welcome, then drain.
            let (mut s2, _) = listener.accept().unwrap();
            let mut r2 = BufReader::new(s2.try_clone().unwrap());
            let _ = read_frame(&mut r2); // join
            write_frame(&mut s2, &ServeMsg::Welcome { worker: 1, jobs: 0, ack: 0 }.render())
                .unwrap();
            let _ = read_frame(&mut r2); // request
            write_frame(&mut s2, &ServeMsg::Drain { reason: "done".into() }.render()).unwrap();
            // Absorb the goodbye.
            let _ = read_frame(&mut r2);
        });
        let jcfg = fast_jcfg(addr);
        let summary = run_join(&CampaignCfg::default(), &jcfg, empty_work).expect("join");
        assert!(summary.drained);
        assert_eq!(summary.reconnects, 1);
        assert_eq!(summary.jobs_completed, 0);
        server.join().unwrap();
    }

    #[test]
    fn injected_drop_forces_a_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Connection 0 dies by injected fault after its first frame
            // (the join); connection 1 is fault-free and drains.
            for round in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                match read_frame(&mut r) {
                    Ok(Some(_)) => {}
                    _ => continue, // the dropped connection
                }
                let _ = write_frame(
                    &mut s,
                    &ServeMsg::Welcome { worker: round, jobs: 0, ack: 0 }.render(),
                );
                match read_frame(&mut r) {
                    Ok(Some(_)) => {}
                    _ => continue,
                }
                let _ =
                    write_frame(&mut s, &ServeMsg::Drain { reason: "done".into() }.render());
                let _ = read_frame(&mut r);
            }
        });
        // drop=0:1 — connection 0 closes after 1 substantive frame, so its
        // request (frame 2) hits the injected drop.
        let faults =
            NetFaultPlan { drop_after: BTreeMap::from([(0, 1)]), ..NetFaultPlan::default() };
        let jcfg = JoinCfg { net_faults: faults, ..fast_jcfg(addr) };
        let summary = run_join(&CampaignCfg::default(), &jcfg, empty_work).expect("join");
        assert!(summary.drained);
        assert_eq!(summary.reconnects, 1, "the injected drop cost one session");
        server.join().unwrap();
    }

    /// The acceptance test in miniature: a real (tiny) pipeline run as a
    /// single process and as a coordinator + two in-process `run_join`
    /// workers must produce identical reports.
    #[test]
    fn fleet_report_matches_single_process_run() {
        let dir = test_dir("identical");
        let pcfg = PipelineCfg {
            seed: 7,
            corpus_target: 30,
            fuzz_budget: 300,
            workers: 2,
            ..PipelineCfg::default()
        };
        let pipeline = Pipeline::prepare(sb_kernel::KernelConfig::v5_12_rc3(), pcfg.clone());
        let exemplars = pipeline.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
        let cfg = CampaignCfg {
            seed: 7,
            trials_per_pmc: 4,
            max_tested_pmcs: 6,
            workers: 2,
            checkpoint: Some(CheckpointCfg { path: dir.join("solo.json"), every: 4 }),
            ..CampaignCfg::default()
        };
        let solo = pipeline.campaign(&exemplars, &cfg).expect("solo campaign");

        let fcfg = FleetCfg { batch: 2, ..fast_fcfg(&dir) };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fleet_cfg = CampaignCfg { checkpoint: None, ..cfg.clone() };
        let coord = {
            let exemplars = exemplars.clone();
            let fleet_cfg = fleet_cfg.clone();
            std::thread::spawn(move || run_coordinator(listener, &exemplars, &fleet_cfg, &fcfg))
        };
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let jcfg = fast_jcfg(addr.clone());
                let fleet_cfg = fleet_cfg.clone();
                let exemplars = exemplars.clone();
                let pcfg = pcfg.clone();
                std::thread::spawn(move || {
                    run_join(&fleet_cfg, &jcfg, move || {
                        let p = Pipeline::prepare(sb_kernel::KernelConfig::v5_12_rc3(), pcfg);
                        Ok(FleetWork {
                            booted: p.booted,
                            corpus: p.corpus,
                            set: p.pmcs,
                            exemplars,
                        })
                    })
                })
            })
            .collect();
        let fleet = coord.join().unwrap().expect("fleet campaign");
        let mut fleet_jobs = 0;
        for w in workers {
            let summary = w.join().unwrap().expect("worker summary");
            assert!(summary.drained);
            fleet_jobs += summary.jobs_completed;
        }
        assert_eq!(fleet_jobs as usize, solo.tested(), "all jobs ran exactly once");

        assert_eq!(fleet.outcomes, solo.outcomes, "bit-identical outcomes");
        assert_eq!(fleet.quarantined, solo.quarantined);
        assert_eq!(fleet.total_steps, solo.total_steps);
        assert_eq!(fleet.executions, solo.executions);
        assert_eq!(fleet.bug_ids(), solo.bug_ids());
        let stats = fleet.fleet.expect("fleet stats");
        assert_eq!(stats.workers_joined, 2);
        assert_eq!(stats.evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- crash recovery (journal + spool) --------------------------------

    #[test]
    fn outbox_spool_adopts_undelivered_frames_across_restarts() {
        let dir = test_dir("outbox");
        let spool = dir.join("spool.bin");
        let mut o = Outbox::open(Some(&spool));
        let first_session = o.session;
        assert_ne!(first_session, 0);
        let m1 = o.push(0, JobVerdict::Completed(outcome(0, 100)));
        let m2 = o.push(1, JobVerdict::Completed(outcome(1, 101)));
        assert_eq!(msg_seq(&m1), Some(1));
        assert_eq!(msg_seq(&m2), Some(2));
        o.ack(1);
        assert_eq!(o.pending.len(), 1);
        assert_eq!(o.spooled, 2);
        drop(o);

        // Restart with one frame still owed: same session, the acked
        // frame gone, and the seq counter clear of every seq ever used
        // (reusing one would get a fresh result deduplicated away).
        let o2 = Outbox::open(Some(&spool));
        assert_eq!(o2.session, first_session);
        assert_eq!(o2.pending.len(), 1);
        assert_eq!(o2.pending.front().and_then(msg_seq), Some(2));
        assert_eq!(o2.next_seq, 3);
        let redeliveries = o2.redeliveries();
        assert!(
            matches!(redeliveries[0], JoinMsg::Done { seq: 2, redelivery: true, .. }),
            "{:?}",
            redeliveries[0]
        );
        drop(o2);

        // Deliver the rest: the next restart owes nothing and starts a
        // fresh session.
        let mut o3 = Outbox::open(Some(&spool));
        o3.ack(2);
        assert!(o3.pending.is_empty());
        drop(o3);
        let o4 = Outbox::open(Some(&spool));
        assert_ne!(o4.session, first_session, "nothing owed, fresh session");
        assert!(o4.pending.is_empty());
        assert_eq!(o4.next_seq, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The zero-loss acceptance path in miniature: the coordinator dies
    /// with a delivery journaled but neither merged nor acked; `--resume`
    /// replays it, the worker's redelivery is absorbed as a duplicate by
    /// sequence number, and no journaled job is ever re-leased.
    #[test]
    fn killed_coordinator_resumes_without_losing_journaled_results() {
        let dir = test_dir("failover");
        let budgeted: Vec<PmcId> = (0..3).map(|i| i + 100).collect();
        let fcfg = FleetCfg { batch: 2, ..fast_fcfg(&dir) };

        // Run 1: the kill switch fires on the third journal append — the
        // lease grant (#1) and job 0's delivery (#2) land normally, then
        // job 1's delivery (#3) is journaled and the coordinator dies
        // before merging or acknowledging it.
        let fcfg1 = FleetCfg { fail_after_journal: Some(3), ..fcfg.clone() };
        let (addr, coord) =
            start_coordinator(budgeted.clone(), CampaignCfg::default(), fcfg1);
        let (mut a, _) = Client::join(&addr, 0);
        let session = a.session;
        let jobs = a.lease(2).expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        a.done(1, 101);
        let err = coord.join().unwrap().expect_err("kill switch fired");
        assert!(err.to_string().contains("kill switch"), "{err}");
        drop(a);

        // Run 2 resumes: the journal replays job 1's unmerged delivery.
        let cfg2 = CampaignCfg {
            resume_from: Some(fcfg.checkpoint.clone()),
            ..CampaignCfg::default()
        };
        let (addr, coord) = start_coordinator(budgeted, cfg2, fcfg.clone());
        let (mut a, reply) = Client::rejoin(&addr, 0, session, 2);
        let ServeMsg::Welcome { ack, .. } = reply else { panic!("{reply:?}") };
        assert_eq!(ack, 2, "the journal already holds both run-1 deliveries");
        // A worker whose spool lagged the ack would redeliver anyway; do
        // so here (with a poisoned steps count) to prove the seq dedup
        // absorbs it without touching the merged verdict.
        a.send(&JoinMsg::Done {
            job: 1,
            outcome: outcome(1, 999),
            seq: 2,
            redelivery: true,
        });
        let jobs = a.lease(2).expect("remaining work");
        assert_eq!(jobs, vec![2], "journaled jobs are never re-leased");
        a.done(2, 102);
        a.drain();

        let report = coord.join().unwrap().expect("resumed report");
        assert_eq!(report.tested(), 3);
        assert_eq!(
            report.outcomes.iter().map(|o| o.steps).collect::<Vec<_>>(),
            vec![100, 101, 102],
            "run 1's verdicts survived the kill bit-for-bit"
        );
        let stats = report.fleet.unwrap();
        assert_eq!(stats.journal_replayed, 2);
        assert_eq!(stats.sessions_resumed, 1);
        assert_eq!(stats.redelivered, 1);
        assert_eq!(stats.duplicate_results, 0, "seq dedup fires before the merge");
        assert_eq!(stats.journal_damaged, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lease that was out when the coordinator died is rebuilt at resume
    /// with its unresolved jobs reserved: strangers cannot lease them, and
    /// the original session re-registers to deliver what it finished
    /// during the outage.
    #[test]
    fn restored_lease_keeps_in_flight_jobs_off_the_market() {
        let dir = test_dir("restore");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = FleetCfg { batch: 2, ..fast_fcfg(&dir) };

        // Run 1: lease [0,1] granted (append #1); job 0's delivery is
        // append #2, where the kill lands — journaled, never merged, and
        // the lease is never released.
        let fcfg1 = FleetCfg { fail_after_journal: Some(2), ..fcfg.clone() };
        let (addr, coord) =
            start_coordinator(budgeted.clone(), CampaignCfg::default(), fcfg1);
        let (mut a, _) = Client::join(&addr, 0);
        let session = a.session;
        let jobs = a.lease(2).expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        assert!(coord.join().unwrap().is_err(), "kill switch fired");
        drop(a);

        // Run 2: job 0 comes back via the journal; job 1 stays inside the
        // restored lease, so a stranger gets nothing.
        let cfg2 = CampaignCfg {
            resume_from: Some(fcfg.checkpoint.clone()),
            ..CampaignCfg::default()
        };
        let (addr, coord) = start_coordinator(budgeted, cfg2, fcfg.clone());
        let (mut b, _) = Client::join(&addr, 0);
        b.send(&JoinMsg::Request { max: 2 });
        match b.read() {
            ServeMsg::Lease { jobs, .. } => {
                assert!(jobs.is_empty(), "in-flight job leaked to a stranger: {jobs:?}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        drop(b);

        // The original session returns: its ack covers job 0, and it
        // redelivers job 1, which it finished during the outage.
        let (mut a, reply) = Client::rejoin(&addr, 0, session, 1);
        let ServeMsg::Welcome { ack, .. } = reply else { panic!("{reply:?}") };
        assert_eq!(ack, 1, "job 0's journaled delivery is acknowledged");
        a.seq += 1;
        a.send(&JoinMsg::Done {
            job: 1,
            outcome: outcome(1, 101),
            seq: a.seq,
            redelivery: true,
        });
        a.drain();

        let report = coord.join().unwrap().expect("resumed report");
        assert_eq!(report.tested(), 2);
        assert_eq!(
            report.outcomes.iter().map(|o| o.steps).collect::<Vec<_>>(),
            vec![100, 101]
        );
        let stats = report.fleet.unwrap();
        assert_eq!(stats.leases_restored, 1);
        assert_eq!(stats.sessions_resumed, 1);
        assert_eq!(stats.redelivered, 1);
        assert_eq!(stats.leases_granted, 0, "the restored lease was enough");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
