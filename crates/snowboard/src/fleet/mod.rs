//! Fault-tolerant distributed campaign fabric: `hunt serve` / `hunt join`.
//!
//! A coordinator ([`run_coordinator`]) owns the job universe and merged
//! checkpoint; any number of workers ([`run_join`]) connect, lease batches
//! of jobs, and stream results back over the framed protocol in
//! [`crate::protocol`]. Because every job derives its seeds from
//! `(campaign seed, job index)` alone, a merged report is identical to a
//! single-process run **no matter how jobs land on workers** — even under
//! worker kills, partitions, and injected network and process faults.
//!
//! The job lifecycle is [`crate::ledger`]'s; this module is the transport —
//! connections and lease deadlines. The failure model (see DESIGN.md):
//!
//! * **Handshake** — a joiner announces its protocol version and a
//!   fingerprint of every campaign-shaping parameter
//!   ([`config_fingerprint`]); mismatches are rejected outright, because
//!   merging results computed under different parameters would silently
//!   corrupt the report. The `welcome` tells the worker the interval to
//!   heartbeat at ([`heartbeat_interval`]): the coordinator that evicts
//!   for silence is the one that sets how often a worker must speak.
//! * **Leases, not shards** — jobs are handed out in leased batches of
//!   [`FleetCfg::batch`] with a deadline. A worker that vanishes (crash,
//!   partition, kill -9) simply stops renewing its claim: expired or
//!   evicted leases return their unfinished jobs to the pending pool for
//!   reassignment.
//! * **Exactly-once merge** — reassignment means a slow-but-alive worker
//!   can deliver a result for a job someone else also ran. The ledger's
//!   merge rule is *first verdict wins*; duplicates are dropped and
//!   counted in [`crate::FleetStats::duplicate_results`]. Since both
//!   deliveries computed the same deterministic outcome, which one wins is
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
//! * **Graceful drain** — the stop file (or campaign completion) syncs
//!   the checkpoint, answers every request with `drain` (a worker that
//!   joins now is welcomed and told to drain), and gives the live
//!   connections up to one heartbeat timeout to say goodbye. A worker whose
//!   connection is gone is not waited for: the campaign ends when its work
//!   and its live connections do.
//!
//! * **The checkpoint log** — every verdict lands in the checkpoint, an
//!   append-only CRC32C-framed log ([`crate::checkpoint`]), *before* the
//!   coordinator merges or acknowledges it, and verdicts are all it
//!   holds. A `kill -9` mid-lease loses no logged verdict: `serve
//!   --resume` replays them, and every job without one is pending again.
//!   A job computes the same verdict wherever and however often it runs,
//!   so a lease lost with the coordinator costs a re-run, never a
//!   different report.
//! * **Redelivery** — results stay in the worker's in-memory outbox until
//!   a reply to one of its requests: the coordinator handles one
//!   connection's frames in order and logs a verdict before it reads the
//!   next frame, so that reply proves every result sent before the request
//!   is logged. A worker that loses the coordinator finishes its leased
//!   jobs into the outbox, reconnects and redelivers the outbox before its
//!   first request. A redelivered verdict the log already holds is a
//!   counted duplicate under the first-wins merge, and every redelivery is
//!   counted in [`crate::FleetStats::redelivered`]. What a worker process
//!   still holds when it ends is dropped with it, and the coordinator
//!   re-runs those jobs.
//!
//! Workers reconnect through deterministic exponential backoff and resume
//! leasing; a worker that cannot reach the coordinator gives up after a
//! bounded number of attempts (`--connect-retries`) with a typed error,
//! which for a worker holding undelivered results says how many it drops —
//! also the exit of a worker that finds the coordinator gone after the
//! campaign ended. Network fault injection ([`crate::NetFaultPlan`]) lets
//! tests (and CI) drop, delay, garble, or half-close specific connections
//! deterministically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

mod coordinator;
mod worker;

pub use coordinator::run_coordinator;
pub use worker::{run_join, FleetWork, JoinCfg, JoinSummary};

/// Fingerprint of the campaign-shaping parameters, exchanged in the fleet
/// handshake. FNV-1a over `key=value;` pairs: not cryptographic, just a
/// cheap stable way for both ends to notice they were launched with
/// different flags before any results are merged.
pub fn config_fingerprint(parts: &[(&str, String)]) -> u64 {
    let text: String = parts
        .iter()
        .map(|(key, value)| format!("{key}={value};"))
        .collect();
    sb_vmm::site::fnv1a(text.as_bytes())
}

/// The interval a worker heartbeats at under a coordinator that evicts
/// after `timeout` of silence: a quarter of it, so three heartbeats may be
/// lost before an eviction, and never under 25 ms.
pub fn heartbeat_interval(timeout: Duration) -> Duration {
    (timeout / 4).max(Duration::from_millis(25))
}

/// Coordinator tuning. Defaults suit production; tests shrink every timing
/// knob to milliseconds.
#[derive(Clone, Debug)]
pub struct FleetCfg {
    /// Evict a connection heard from not at all for this long; workers
    /// heartbeat at [`heartbeat_interval`] of it.
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
    /// The coordinator's checkpoint log, appended to as results arrive so
    /// a killed coordinator resumes mid-fleet. The default is unique per
    /// construction — two coordinators sharing one checkpoint would
    /// silently merge unrelated campaigns; pass an explicit durable path
    /// when resume across runs is wanted.
    pub checkpoint: PathBuf,
    /// Expected [`config_fingerprint`] of joining workers.
    pub config_hash: u64,
    /// Test hook: simulate `kill -9` once this many verdict records follow
    /// the checkpoint header — the coordinator returns [`crate::Error::Fleet`]
    /// without acting on the last one, finishing the checkpoint or
    /// draining, leaving exactly the on-disk state a killed process would.
    /// `None` (the default) disables the hook.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignCfg, CampaignReport, PmcTestOutcome};
    use crate::checkpoint::Checkpoint;
    use crate::cluster::Strategy;
    use crate::error::{FailureKind, SbResult};
    use crate::fault::NetFaultPlan;
    use crate::pmc::PmcId;
    use crate::protocol::{read_frame, write_frame, JoinMsg, ServeMsg, FLEET_PROTO_VERSION};
    use crate::retry::jittered_backoff;
    use crate::select::ClusterOrder;
    use crate::{Pipeline, PipelineCfg};
    use std::collections::BTreeMap;
    use std::io::BufReader;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::path::Path;
    use std::time::Instant;

    /// A scratch directory of its own, removed when the guard drops, a
    /// failed assertion's unwinding included.
    fn test_dir(tag: &str) -> proptest::ScratchDir {
        proptest::ScratchDir::new(&format!("fleet-{tag}"))
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

    /// A scripted fleet worker for driving the coordinator from tests. It
    /// numbers its result frames with a monotone seq, like a real worker.
    struct Client {
        write: TcpStream,
        reader: BufReader<TcpStream>,
        seq: u64,
    }

    impl Client {
        fn connect(addr: &std::net::SocketAddr) -> Client {
            let write = TcpStream::connect(addr).expect("connect");
            write
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let reader = BufReader::new(write.try_clone().unwrap());
            Client {
                write,
                reader,
                seq: 0,
            }
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
            c.send(&JoinMsg::Join {
                proto: FLEET_PROTO_VERSION,
                config,
            });
            let reply = c.read();
            (c, reply)
        }

        /// Re-sends job's verdict as a reconnected worker does, flagged as a
        /// redelivery.
        fn redeliver(&mut self, job: usize, steps: u64) {
            self.seq += 1;
            self.send(&JoinMsg::Done {
                job,
                outcome: outcome(job, steps),
                seq: self.seq,
                redelivery: true,
            });
        }

        /// Asks once more and expects no work: the reply proves every frame
        /// sent before it was handled (one connection's frames are handled
        /// in order).
        fn settle(&mut self) {
            self.send(&JoinMsg::Request);
            match self.read() {
                ServeMsg::Lease { jobs, .. } => assert!(jobs.is_empty(), "{jobs:?}"),
                ServeMsg::Drain { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }

        /// Requests until a non-empty lease or drain arrives.
        fn lease(&mut self) -> Option<Vec<usize>> {
            loop {
                self.send(&JoinMsg::Request);
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
                self.send(&JoinMsg::Request);
                match self.read() {
                    ServeMsg::Drain { .. } => break,
                    ServeMsg::Lease { jobs, .. } => {
                        assert!(jobs.is_empty(), "unexpected work while draining");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            self.send(&JoinMsg::Leaving {
                reason: "drained".into(),
            });
        }
    }

    /// Binds a listener and runs the coordinator in a thread.
    fn start_coordinator(
        budgeted: Vec<PmcId>,
        cfg: CampaignCfg,
        fcfg: FleetCfg,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<SbResult<CampaignReport>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || run_coordinator(listener, &budgeted, &cfg, &fcfg));
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
        // FNV-1a of the bytes `seed=7;trials=4;`: the handshake value every
        // build so far has exchanged.
        assert_eq!(a, 0x91c4_00e7_ef95_01b6);
    }

    #[test]
    fn connect_backoff_is_deterministic_and_clamped() {
        // `run_join`'s reconnect wait: the campaign seed mixed with a
        // constant of its own.
        let connect_backoff = |seed: u64, attempt| {
            let (base, max) = (Duration::from_millis(40), Duration::from_millis(200));
            jittered_backoff(base, max, seed ^ 0xF1EE_7000, attempt)
        };
        let b1 = connect_backoff(2021, 1);
        let b9 = connect_backoff(2021, 9);
        assert_eq!(b1, connect_backoff(2021, 1), "pure function");
        assert!(b1 >= Duration::from_millis(40) && b1 <= Duration::from_millis(50));
        assert!(b9 >= Duration::from_millis(200) && b9 <= Duration::from_millis(250));
    }

    #[test]
    fn scripted_workers_complete_a_fleet_campaign() {
        let dir = test_dir("clean");
        let budgeted: Vec<PmcId> = (0..4).map(|i| i + 100).collect();
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        let (mut a, reply) = Client::join(&addr, 0);
        assert!(
            matches!(
                reply,
                ServeMsg::Welcome {
                    heartbeat_ms: 2_500
                }
            ),
            "{reply:?}"
        );
        let jobs = a.lease().expect("first lease");
        assert_eq!(jobs, vec![0, 1], "ascending batch");
        for job in jobs {
            a.done(job, 100 + job as u64);
        }
        let jobs = a.lease().expect("second lease");
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
    }

    #[test]
    fn dead_worker_is_evicted_and_its_jobs_reassigned() {
        let dir = test_dir("evict");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        // Worker A leases both jobs, finishes one, and dies mid-lease.
        let (mut a, _) = Client::join(&addr, 0);
        let jobs = a.lease().expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        drop(a); // unclean close

        // Worker B picks up the reassigned job (`lease` asks until the
        // eviction has put it back).
        let (mut b, _) = Client::join(&addr, 0);
        let jobs = b.lease().expect("reassigned lease");
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
        let jobs = a.lease().expect("lease");
        assert_eq!(jobs, vec![0]);

        // B does job 1, then picks up job 0 once A's lease expires.
        let (mut b, _) = Client::join(&addr, 0);
        let jobs = b.lease().expect("lease");
        assert_eq!(jobs, vec![1]);
        b.done(1, 101);
        let reassigned = loop {
            a.send(&JoinMsg::Heartbeat);
            b.send(&JoinMsg::Request);
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
        b.send(&JoinMsg::Request);
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
            let jobs = w.lease().expect("lease");
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
        assert_eq!(
            stats.jobs_reassigned, 1,
            "one reassign before the budget hit"
        );
        // Crash quarantines are checkpointed (never retried on resume).
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert!(cp.quarantined.contains_key(&0));
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
            let _ = w.lease().expect("lease");
            drop(w); // instant death: joined, completed nothing
        }

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 0);
        assert_eq!(report.quarantined.len(), 2);
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.kind == FailureKind::GaveUp));
        let stats = report.fleet.unwrap();
        assert_eq!(stats.gave_up_jobs, 2);
        // GaveUp is reported but not checkpointed: a resumed campaign
        // retries those jobs.
        let cp = Checkpoint::load(&fcfg.checkpoint).unwrap();
        assert!(cp.quarantined.is_empty());
        assert!(cp.outcomes.is_empty());
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
        let jobs = a.lease().expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        std::fs::write(&stop, b"").unwrap();
        // The coordinator pushes a drain; absorb it and leave.
        match a.read() {
            ServeMsg::Drain { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        a.send(&JoinMsg::Leaving {
            reason: "drained".into(),
        });
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
    }

    #[test]
    fn handshake_rejects_version_and_config_mismatches() {
        let dir = test_dir("reject");
        let budgeted: Vec<PmcId> = vec![100];
        let fcfg = FleetCfg {
            config_hash: 0xBEEF,
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg);

        // A v6 worker: its join still parses (the session token is
        // ignored), and it is turned away for its version.
        let mut bad_proto = Client::connect(&addr);
        let v6_join = format!(
            "{{\"msg\":\"join\",\"proto\":6,\"config\":{},\"session\":7}}",
            0xBEEF
        );
        let _ = write_frame(&mut bad_proto.write, &v6_join);
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
        let jobs = good.lease().expect("lease");
        good.done(jobs[0], 100);
        good.drain();

        let report = coord.join().unwrap().expect("fleet report");
        let stats = report.fleet.unwrap();
        assert_eq!(stats.workers_rejected, 2);
        assert_eq!(stats.workers_joined, 1);
        assert_eq!(stats.evictions, 0, "rejections are not evictions");
    }

    #[test]
    fn garbage_frames_evict_the_sender() {
        let dir = test_dir("garbage");
        let budgeted: Vec<PmcId> = vec![100];
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fast_fcfg(&dir));

        let (mut evil, _) = Client::join(&addr, 0);
        let _ = evil.lease().expect("lease");
        use std::io::Write as _;
        let _ = evil.write.write_all(b"not a frame at all\n");
        let _ = evil.write.flush();

        // The good worker finishes the campaign after the eviction.
        let (mut good, _) = Client::join(&addr, 0);
        let jobs = good.lease().expect("reassigned lease");
        good.done(jobs[0], 100);
        good.drain();

        let report = coord.join().unwrap().expect("fleet report");
        assert_eq!(report.tested(), 1);
        let stats = report.fleet.unwrap();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.jobs_reassigned, 1);
    }

    #[test]
    fn a_result_outside_the_universe_evicts_the_sender_and_leaves_no_trace() {
        let dir = test_dir("foreign");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = FleetCfg {
            batch: 1,
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(budgeted, CampaignCfg::default(), fcfg.clone());

        // A schema-valid `done` for job universe + 7.
        let (mut evil, _) = Client::join(&addr, 0);
        let jobs = evil.lease().expect("lease");
        assert_eq!(jobs, vec![0]);
        evil.done(9, 999);

        let (mut good, _) = Client::join(&addr, 0);
        let mut seen = Vec::new();
        while let Some(jobs) = good.lease() {
            for job in jobs {
                good.done(job, 100 + job as u64);
                seen.push(job);
            }
        }
        good.send(&JoinMsg::Leaving {
            reason: "drained".into(),
        });
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
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            io_timeout: Duration::from_secs(5),
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
            listener.set_nonblocking(false).expect("blocking listener");
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
                            &ServeMsg::Reject {
                                reason: "config fingerprint mismatch".into(),
                            }
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
    fn worker_reconnects_after_a_lost_connection_and_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: welcome, then hang up on the first request.
            let (mut s1, _) = listener.accept().unwrap();
            let mut r1 = BufReader::new(s1.try_clone().unwrap());
            let _ = read_frame(&mut r1); // join
            write_frame(&mut s1, &ServeMsg::Welcome { heartbeat_ms: 50 }.render()).unwrap();
            // The request. Then shut the socket down, not just this handle
            // (`r1` shares it): the worker must see the hang-up, not wait
            // out its read timeout.
            let _ = read_frame(&mut r1);
            s1.shutdown(Shutdown::Both).unwrap();
            // Connection 2: welcome, then drain.
            let (mut s2, _) = listener.accept().unwrap();
            let mut r2 = BufReader::new(s2.try_clone().unwrap());
            let _ = read_frame(&mut r2); // join
            write_frame(&mut s2, &ServeMsg::Welcome { heartbeat_ms: 50 }.render()).unwrap();
            let _ = read_frame(&mut r2); // request
            write_frame(
                &mut s2,
                &ServeMsg::Drain {
                    reason: "done".into(),
                }
                .render(),
            )
            .unwrap();
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
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                match read_frame(&mut r) {
                    Ok(Some(_)) => {}
                    _ => continue, // the dropped connection
                }
                let _ = write_frame(&mut s, &ServeMsg::Welcome { heartbeat_ms: 50 }.render());
                match read_frame(&mut r) {
                    Ok(Some(_)) => {}
                    _ => continue,
                }
                let _ = write_frame(
                    &mut s,
                    &ServeMsg::Drain {
                        reason: "done".into(),
                    }
                    .render(),
                );
                let _ = read_frame(&mut r);
            }
        });
        // drop=0:1 — connection 0 closes after 1 substantive frame, so its
        // request (frame 2) hits the injected drop.
        let faults = NetFaultPlan {
            drop_after: BTreeMap::from([(0, 1)]),
            ..NetFaultPlan::default()
        };
        let jcfg = JoinCfg {
            net_faults: faults,
            ..fast_jcfg(addr)
        };
        let summary = run_join(&CampaignCfg::default(), &jcfg, empty_work).expect("join");
        assert!(summary.drained);
        assert_eq!(
            summary.reconnects, 1,
            "the injected drop cost one connection"
        );
        server.join().unwrap();
    }

    /// A worker that dies holding a lease costs no heartbeat timeout: the
    /// drain waits for live connections only, so under a 60 s timeout the
    /// coordinator returns as soon as the survivor has finished and left.
    #[test]
    fn a_dead_worker_does_not_hold_the_drain() {
        let dir = test_dir("dead-drain");
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let fcfg = FleetCfg {
            heartbeat_timeout: Duration::from_secs(60),
            ..fast_fcfg(&dir)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_coordinator(
                listener,
                &budgeted,
                &CampaignCfg::default(),
                &fcfg,
            ));
        });

        // A leases both jobs, delivers one and closes uncleanly.
        let (mut a, _) = Client::join(&addr, 0);
        assert_eq!(a.lease().expect("lease"), vec![0, 1]);
        a.done(0, 100);
        drop(a);
        // B finishes the reassigned job and leaves.
        let (mut b, _) = Client::join(&addr, 0);
        assert_eq!(b.lease().expect("reassigned lease"), vec![1]);
        b.done(1, 101);
        b.drain();

        let report = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the coordinator returns within 5 s of the last goodbye")
            .expect("fleet report");
        assert_eq!(report.tested(), 2);
        let stats = report.fleet.expect("fleet stats");
        assert_eq!((stats.evictions, stats.jobs_reassigned), (1, 1));
    }

    /// A worker whose connection is cut before the campaign completes is
    /// not waited for: the coordinator ends with its last live connection,
    /// and the worker, finding nobody listening, exits through the bounded
    /// lost-coordinator path with every result it held delivered. Worker A
    /// reaches the coordinator through a relay that forwards only its first
    /// connection, so each reconnect is refused.
    #[test]
    fn a_worker_cut_off_when_the_campaign_completes_exits_with_lost_coordinator() {
        let dir = test_dir("cut-off");
        let fcfg = FleetCfg {
            heartbeat_timeout: Duration::from_secs(60),
            ..fast_fcfg(&dir)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_coordinator(
                listener,
                &[100],
                &CampaignCfg::default(),
                &fcfg,
            ));
        });
        let relay = TcpListener::bind("127.0.0.1:0").unwrap();
        let relay_addr = relay.local_addr().unwrap().to_string();
        let relayed = std::thread::spawn(move || {
            let (down, _) = relay.accept().unwrap();
            drop(relay);
            let up = TcpStream::connect(addr).unwrap();
            for (mut from, mut to) in [
                (down.try_clone().unwrap(), up.try_clone().unwrap()),
                (up.try_clone().unwrap(), down.try_clone().unwrap()),
            ] {
                std::thread::spawn(move || std::io::copy(&mut from, &mut to));
            }
            (down, up)
        });
        // A's `prepare` runs after its handshake: A is registered, and
        // parks there (no lease, no frames) until told to go on.
        let (joined_tx, joined_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let jcfg = fast_jcfg(relay_addr.clone());
        let a = std::thread::spawn(move || {
            run_join(&CampaignCfg::default(), &jcfg, move || {
                joined_tx.send(()).unwrap();
                let _ = go_rx.recv();
                empty_work()
            })
        });
        joined_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("A registered");
        // B takes the only job; A's connection is cut before B delivers.
        let (mut b, _) = Client::join(&addr, 0);
        assert_eq!(b.lease().expect("lease"), vec![0]);
        let (down, up) = relayed.join().unwrap();
        for s in [&down, &up] {
            let _ = s.shutdown(Shutdown::Both);
        }
        b.done(0, 100);
        b.drain();
        let report = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the coordinator does not wait for the cut-off worker")
            .expect("fleet report");
        assert_eq!(report.tested(), 1);
        assert_eq!(report.fleet.expect("fleet stats").workers_joined, 2);

        // The campaign is over; only now does A notice its lost connection.
        go_tx.send(()).unwrap();
        let err = a.join().unwrap().expect_err("nobody is listening");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!(
                "lost coordinator at {relay_addr} after completing 0 job(s) (all delivered)"
            )),
            "{msg}"
        );
        assert!(msg.contains("3 reconnect attempt(s) failed"), "{msg}");
    }

    /// A worker that joins while the coordinator drains is welcomed and
    /// told to drain: it exits cleanly instead of being turned away.
    #[test]
    fn a_worker_joining_a_draining_coordinator_is_drained() {
        let dir = test_dir("join-draining");
        let stop = dir.join("stop");
        let fcfg = FleetCfg {
            stop_file: Some(stop.clone()),
            ..fast_fcfg(&dir)
        };
        let (addr, coord) = start_coordinator(vec![100], CampaignCfg::default(), fcfg);
        // A stays connected through the drain, so the coordinator is still
        // draining when the worker joins.
        let (mut a, _) = Client::join(&addr, 0);
        std::fs::write(&stop, b"").unwrap();
        match a.read() {
            ServeMsg::Drain { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
        let summary = run_join(
            &CampaignCfg::default(),
            &fast_jcfg(addr.to_string()),
            empty_work,
        )
        .expect("the late worker is drained, not rejected");
        assert!(summary.drained);
        assert_eq!((summary.reconnects, summary.jobs_completed), (0, 0));
        a.send(&JoinMsg::Leaving {
            reason: "drained".into(),
        });
        drop(a);

        let report = coord.join().unwrap().expect("fleet report");
        let stats = report.fleet.expect("fleet stats");
        assert_eq!((stats.workers_joined, stats.workers_rejected), (2, 0));
        assert_eq!(stats.evictions, 0);
    }

    /// A worker keeps the timing and lease size of the coordinator it
    /// joins, whatever its own defaults: under a 200 ms heartbeat timeout
    /// it stays heard through an 800 ms job (a transient failure and its
    /// retry backoff), and a batch of 8 leases all 8 jobs at once.
    #[test]
    fn a_default_worker_keeps_the_coordinators_heartbeat_and_lease_size() {
        let dir = test_dir("owner");
        let pcfg = PipelineCfg {
            seed: 7,
            corpus_target: 30,
            fuzz_budget: 300,
            workers: 1,
            ..PipelineCfg::default()
        };
        let p = Pipeline::prepare(sb_kernel::KernelConfig::v5_12_rc3(), pcfg);
        let exemplars = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
        let cfg = CampaignCfg {
            seed: 7,
            trials_per_pmc: 2,
            max_tested_pmcs: 8,
            workers: 1,
            retry: crate::RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(800),
                max_backoff: Duration::from_millis(800),
            },
            fault_plan: crate::FaultPlan {
                transient_failures: BTreeMap::from([(0, 1)]),
                ..crate::FaultPlan::default()
            },
            ..CampaignCfg::default()
        };
        assert_eq!(crate::ledger::universe(&exemplars, &cfg).len(), 8);
        let fcfg = FleetCfg {
            heartbeat_timeout: Duration::from_millis(200),
            batch: 8,
            ..fast_fcfg(&dir)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let jcfg = JoinCfg {
            addr: listener.local_addr().unwrap().to_string(),
            ..JoinCfg::default()
        };
        let coord = {
            let (exemplars, cfg) = (exemplars.clone(), cfg.clone());
            std::thread::spawn(move || run_coordinator(listener, &exemplars, &cfg, &fcfg))
        };
        let work = FleetWork {
            booted: p.booted,
            corpus: p.corpus,
            set: p.pmcs,
            exemplars,
        };
        let summary = run_join(&cfg, &jcfg, move || Ok(work)).expect("the worker drains");
        let report = coord.join().unwrap().expect("fleet campaign");
        assert_eq!(report.tested(), 8);
        let stats = report.fleet.expect("fleet stats");
        assert_eq!((stats.evictions, summary.reconnects), (0, 0));
        assert_eq!((stats.leases_granted, summary.leases), (1, 1));
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
            checkpoint: Some(dir.join("solo.json")),
            ..CampaignCfg::default()
        };
        let solo = pipeline.campaign(&exemplars, &cfg).expect("solo campaign");

        let fcfg = FleetCfg {
            batch: 2,
            ..fast_fcfg(&dir)
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fleet_cfg = CampaignCfg {
            checkpoint: None,
            ..cfg.clone()
        };
        let coord = {
            let exemplars = exemplars.clone();
            let fleet_cfg = fleet_cfg.clone();
            std::thread::spawn(move || run_coordinator(listener, &exemplars, &fleet_cfg, &fcfg))
        };
        // `prepare` runs after the handshake: both workers are registered
        // before either asks for work, so neither can find the campaign
        // over before it has joined it (the drain waits only for
        // connections it has registered).
        let joined = std::sync::Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let jcfg = fast_jcfg(addr.clone());
                let fleet_cfg = fleet_cfg.clone();
                let exemplars = exemplars.clone();
                let pcfg = pcfg.clone();
                let joined = joined.clone();
                std::thread::spawn(move || {
                    run_join(&fleet_cfg, &jcfg, move || {
                        joined.wait();
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
        assert_eq!(
            fleet_jobs as usize,
            solo.tested(),
            "all jobs ran exactly once"
        );

        assert_eq!(fleet.outcomes, solo.outcomes, "bit-identical outcomes");
        assert_eq!(fleet.quarantined, solo.quarantined);
        assert_eq!(fleet.total_steps, solo.total_steps);
        assert_eq!(fleet.executions, solo.executions);
        assert_eq!(fleet.bug_ids(), solo.bug_ids());
        let stats = fleet.fleet.expect("fleet stats");
        assert_eq!(stats.workers_joined, 2);
        assert_eq!(stats.evictions, 0);
    }

    // -- crash recovery (checkpoint log) ----------------------------------

    /// The zero-loss acceptance path in miniature: the coordinator dies
    /// with a delivery logged but neither merged nor answered; `--resume`
    /// replays it, and no logged job is ever re-leased. The worker, which
    /// had no reply after that delivery, redelivers it: the log already
    /// holds it, so it is a counted duplicate and is not logged again, and
    /// the report equals an uninterrupted run's.
    #[test]
    fn killed_coordinator_resumes_without_losing_journaled_results() {
        let budgeted: Vec<PmcId> = (0..3).map(|i| i + 100).collect();
        let clean = {
            let dir = test_dir("failover-clean");
            let (addr, coord) =
                start_coordinator(budgeted.clone(), CampaignCfg::default(), fast_fcfg(&dir));
            let (mut a, _) = Client::join(&addr, 0);
            for _ in 0..2 {
                for job in a.lease().expect("lease") {
                    a.done(job, 100 + job as u64);
                }
            }
            a.drain();
            coord.join().unwrap().expect("uninterrupted report")
        };
        let dir = test_dir("failover");
        let fcfg = FleetCfg {
            batch: 2,
            ..fast_fcfg(&dir)
        };

        // Run 1: the kill switch fires on the second logged verdict — job
        // 0's delivery (#1) lands normally, then job 1's delivery (#2) is
        // logged and the coordinator dies before merging or answering it.
        let fcfg1 = FleetCfg {
            fail_after_journal: Some(2),
            ..fcfg.clone()
        };
        let (addr, coord) = start_coordinator(budgeted.clone(), CampaignCfg::default(), fcfg1);
        let (mut a, _) = Client::join(&addr, 0);
        let jobs = a.lease().expect("lease");
        assert_eq!(jobs, vec![0, 1]);
        a.done(0, 100);
        a.done(1, 101);
        let err = coord.join().unwrap().expect_err("kill switch fired");
        assert!(err.to_string().contains("kill switch"), "{err}");
        drop(a);

        // Run 2 resumes: the log replays job 1's unmerged delivery.
        let cfg2 = CampaignCfg {
            resume_from: Some(fcfg.checkpoint.clone()),
            ..CampaignCfg::default()
        };
        let (addr, coord) = start_coordinator(budgeted, cfg2, fcfg.clone());
        let (mut a, reply) = Client::join(&addr, 0);
        assert!(matches!(reply, ServeMsg::Welcome { .. }), "{reply:?}");
        // Both deliveries are still unanswered in the worker's outbox; a
        // poisoned steps count proves the logged verdict is kept.
        a.redeliver(0, 100);
        a.redeliver(1, 999);
        let jobs = a.lease().expect("remaining work");
        assert_eq!(jobs, vec![2], "journaled jobs are never re-leased");
        a.done(2, 102);
        a.drain();

        let report = coord.join().unwrap().expect("resumed report");
        assert_eq!(
            report.outcomes, clean.outcomes,
            "run 1's verdicts survived the kill bit-for-bit"
        );
        assert_eq!(report.quarantined, clean.quarantined);
        let stats = report.fleet.unwrap();
        assert_eq!(stats.journal_replayed, 2);
        assert_eq!(stats.redelivered, 2);
        assert_eq!(stats.duplicate_results, 2, "both are in the log already");
        assert_eq!(stats.journal_records, 1, "only job 2 is logged");
        assert_eq!(stats.journal_damaged, 0);
    }

    /// A resume into another checkpoint path reads the log it resumes from:
    /// the delivery logged but not merged before the kill is neither lost
    /// nor re-leased, and the new checkpoint holds every verdict of run 1.
    #[test]
    fn resuming_into_another_path_keeps_every_verdict() {
        let dir = test_dir("reroute");
        let budgeted: Vec<PmcId> = (0..3).map(|i| i + 100).collect();
        let fcfg = FleetCfg {
            batch: 2,
            ..fast_fcfg(&dir)
        };

        // Run 1: lease [0,1], job 0 (record 1), job 1 (record 2, where the
        // kill lands: logged, never merged).
        let fcfg1 = FleetCfg {
            fail_after_journal: Some(2),
            ..fcfg.clone()
        };
        let (addr, coord) = start_coordinator(budgeted.clone(), CampaignCfg::default(), fcfg1);
        let (mut a, _) = Client::join(&addr, 0);
        assert_eq!(a.lease().expect("lease"), vec![0, 1]);
        a.done(0, 100);
        a.done(1, 101);
        assert!(coord.join().unwrap().is_err(), "kill switch fired");
        drop(a);

        // Run 2 resumes P into Q.
        let moved = dir.join("moved.json");
        let cfg2 = CampaignCfg {
            resume_from: Some(fcfg.checkpoint.clone()),
            ..CampaignCfg::default()
        };
        let fcfg2 = FleetCfg {
            checkpoint: moved.clone(),
            ..fcfg.clone()
        };
        let (addr, coord) = start_coordinator(budgeted, cfg2, fcfg2);
        let (mut b, _) = Client::join(&addr, 0);
        assert_eq!(
            b.lease().expect("remaining work"),
            vec![2],
            "job 1 is not re-leased"
        );
        b.done(2, 102);
        b.drain();

        let report = coord.join().unwrap().expect("resumed report");
        assert_eq!(report.fleet.unwrap().journal_replayed, 2);
        let steps = |cp: &Checkpoint| cp.outcomes.values().map(|o| o.steps).collect::<Vec<_>>();
        assert_eq!(
            steps(&Checkpoint::load(&moved).unwrap()),
            vec![100, 101, 102]
        );
    }

    /// A lease that was out when the coordinator died is not rebuilt: its
    /// unresolved job is pending after the resume, and a stranger leases
    /// it. The old holder comes back and redelivers the same job; whoever
    /// delivers first is merged, the other is a counted duplicate, and the
    /// report equals an uninterrupted run's either way.
    #[test]
    fn a_lease_lost_with_the_coordinator_is_re_leased_and_merged_first_wins() {
        let budgeted: Vec<PmcId> = (0..2).map(|i| i + 100).collect();
        let clean = {
            let dir = test_dir("lost-lease-clean");
            let (addr, coord) =
                start_coordinator(budgeted.clone(), CampaignCfg::default(), fast_fcfg(&dir));
            let (mut a, _) = Client::join(&addr, 0);
            assert_eq!(a.lease().expect("lease"), vec![0, 1]);
            a.done(0, 100);
            a.done(1, 101);
            a.drain();
            coord.join().unwrap().expect("uninterrupted report")
        };
        for stranger_first in [false, true] {
            let dir = test_dir("lost-lease");
            // A deadline no test outlasts: job 1 must be free at once, not
            // after a lease from before the crash expired.
            let fcfg = FleetCfg {
                batch: 2,
                lease_deadline: Duration::from_secs(600),
                ..fast_fcfg(&dir)
            };
            // Run 1: lease [0,1] out; job 0's delivery is the first logged
            // verdict, where the kill lands — logged, never merged.
            let fcfg1 = FleetCfg {
                fail_after_journal: Some(1),
                ..fcfg.clone()
            };
            let (addr, coord) = start_coordinator(budgeted.clone(), CampaignCfg::default(), fcfg1);
            let (mut a, _) = Client::join(&addr, 0);
            assert_eq!(a.lease().expect("lease"), vec![0, 1]);
            a.done(0, 100);
            assert!(coord.join().unwrap().is_err(), "kill switch fired");
            drop(a);

            // Run 2: job 0 comes back from the log; job 1 is pending, and
            // a stranger leases it.
            let cfg2 = CampaignCfg {
                resume_from: Some(fcfg.checkpoint.clone()),
                ..CampaignCfg::default()
            };
            let (addr, coord) = start_coordinator(budgeted.clone(), cfg2, fcfg.clone());
            let (mut stranger, _) = Client::join(&addr, 0);
            stranger.send(&JoinMsg::Request);
            match stranger.read() {
                ServeMsg::Lease { jobs, .. } => assert_eq!(jobs, vec![1], "the first request"),
                other => panic!("unexpected reply {other:?}"),
            }

            // The old holder returns and redelivers its unanswered job 0
            // (logged already: a duplicate) and job 1, which it finished
            // during the outage.
            let (mut old, reply) = Client::join(&addr, 0);
            assert!(matches!(reply, ServeMsg::Welcome { .. }), "{reply:?}");
            let redeliver = |old: &mut Client| {
                old.redeliver(0, 100);
                old.redeliver(1, 101);
                old.settle();
            };
            if stranger_first {
                stranger.done(1, 101);
                stranger.settle();
                redeliver(&mut old);
            } else {
                redeliver(&mut old);
                stranger.done(1, 101);
                stranger.settle();
            }
            old.drain();
            stranger.drain();

            let report = coord.join().unwrap().expect("resumed report");
            assert_eq!(
                report.outcomes, clean.outcomes,
                "stranger first: {stranger_first}"
            );
            assert_eq!(report.quarantined, clean.quarantined);
            let stats = report.fleet.unwrap();
            assert_eq!(
                (stats.journal_replayed, stats.leases_granted),
                (1, 1),
                "the lost lease was granted again"
            );
            assert_eq!(stats.redelivered, 2);
            assert_eq!(
                stats.duplicate_results, 2,
                "job 0's redelivery and the second verdict for job 1"
            );
        }
    }
}
