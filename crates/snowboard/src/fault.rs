//! Deterministic fault injection for campaign robustness testing.
//!
//! The fault-tolerance machinery (watchdogs, retries, quarantine,
//! checkpointing) only earns trust if it can be driven through its failure
//! paths on demand. A [`FaultPlan`] names campaign job indices at which the
//! driver manufactures specific failures — worker panics, forced watchdog
//! expiry, and transient errors that succeed on retry.
//! Plans are plain data, always compiled in, and empty by default, so
//! production campaigns pay only a couple of set lookups per job.
//!
//! A remote worker (`hunt join`) adds
//! *process-level* faults that fire before the job is attempted: `abort`
//! (SIGABRT, no unwinding — the failure PR 1's catch-unwind cannot catch),
//! `exit` with a chosen code, and `stall` (the worker goes silent without
//! dying, exercising the coordinator's heartbeat timeout). Plans are
//! scripted through the one `--chaos` grammar
//! ([`crate::chaos::ChaosPlan::parse_spec`]), whose `job:`/`proc:`/`net:`
//! clauses route to the `apply_clause` methods here.

use std::collections::{BTreeMap, BTreeSet};

use sb_obs::spec;

/// Scripted failures for one campaign run, keyed by job index (the position
/// of the PMC in the campaign's test order, before any retries).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Jobs whose worker closure panics on every attempt. Exercises the
    /// catch-unwind boundary and retry exhaustion → quarantine.
    pub panic_jobs: BTreeSet<usize>,
    /// Jobs whose watchdog is forced to expire before the first trial.
    /// Exercises hang classification.
    pub hang_jobs: BTreeSet<usize>,
    /// Jobs that fail with a transient [`crate::error::Error::Injected`]
    /// for the first `n` attempts, then run normally. Exercises
    /// retry-then-success.
    pub transient_failures: BTreeMap<usize, u32>,
    /// Jobs on which a worker *process* calls `abort()` before attempting
    /// the job. Only honoured by a remote worker.
    pub abort_jobs: BTreeSet<usize>,
    /// Jobs on which a worker process exits with the given code before
    /// attempting the job. Only honoured by a remote worker.
    pub exit_jobs: BTreeMap<usize, i32>,
    /// Jobs on which a worker process stops heartbeating and parks forever,
    /// so the coordinator must detect the silence and evict it. Only
    /// honoured by a remote worker.
    pub stall_jobs: BTreeSet<usize>,
}

impl FaultPlan {
    /// True when no faults are scripted (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.panic_jobs.is_empty()
            && self.hang_jobs.is_empty()
            && self.transient_failures.is_empty()
            && self.abort_jobs.is_empty()
            && self.exit_jobs.is_empty()
            && self.stall_jobs.is_empty()
    }

    /// Should `job`'s worker closure panic on this attempt?
    pub fn should_panic(&self, job: usize) -> bool {
        self.panic_jobs.contains(&job)
    }

    /// Should `job`'s watchdog be forced to expire?
    pub fn should_hang(&self, job: usize) -> bool {
        self.hang_jobs.contains(&job)
    }

    /// Should `job` fail transiently on `attempt` (0-based)?
    pub fn should_fail_transiently(&self, job: usize, attempt: u32) -> bool {
        self.transient_failures
            .get(&job)
            .is_some_and(|&n| attempt < n)
    }

    /// Should the worker process abort before attempting `job`?
    pub fn should_abort(&self, job: usize) -> bool {
        self.abort_jobs.contains(&job)
    }

    /// Exit code the worker process should die with before attempting
    /// `job`, if any.
    pub fn exit_code(&self, job: usize) -> Option<i32> {
        self.exit_jobs.get(&job).copied()
    }

    /// Should the worker process go silent (stop heartbeating and park)
    /// before attempting `job`?
    pub fn should_stall(&self, job: usize) -> bool {
        self.stall_jobs.contains(&job)
    }

    /// Applies one parsed `kind=args` clause to this plan; the chaos
    /// grammar routes `job:`/`proc:`-prefixed clauses here (`plane` names
    /// the grammar in error messages). Kinds and arguments:
    ///
    /// * `panic=J[,J...]` — in-process panic at each job index `J`
    /// * `hang=J[,J...]` — forced watchdog expiry
    /// * `transient=J:N[,J:N...]` — fail job `J`'s first `N` attempts
    /// * `abort=J[,J...]` — worker process aborts before job `J`
    /// * `exit=J:C[,J:C...]` — worker process exits with code `C` before `J`
    /// * `stall=J[,J...]` — worker process goes silent before job `J`
    pub(crate) fn apply_clause(&mut self, c: &spec::Clause, plane: &str) -> Result<(), String> {
        match c.kind {
            "panic" | "hang" | "abort" | "stall" => {
                for item in c.items() {
                    let job = c.num(item, "job index", plane)?;
                    match c.kind {
                        "panic" => self.panic_jobs.insert(job),
                        "hang" => self.hang_jobs.insert(job),
                        "abort" => self.abort_jobs.insert(job),
                        _ => self.stall_jobs.insert(job),
                    };
                }
            }
            "transient" | "exit" => {
                for item in c.items() {
                    let (job, val) = c.pair(item, "job:value")?;
                    let job = c.num(job, "job index", plane)?;
                    if c.kind == "transient" {
                        let n: u32 = c.num(val, "attempt count", plane)?;
                        self.transient_failures.insert(job, n);
                    } else {
                        let code: i32 = c.num(val, "exit code", plane)?;
                        self.exit_jobs.insert(job, code);
                    }
                }
            }
            _ => return Err(c.unknown_kind(plane)),
        }
        Ok(())
    }

    /// This plan as `(kind, rendered args)` pairs, which the chaos grammar
    /// renders as prefixed clauses.
    pub(crate) fn spec_parts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("panic", spec::join_items(&self.panic_jobs)),
            ("hang", spec::join_items(&self.hang_jobs)),
            (
                "transient",
                spec::join_items(
                    self.transient_failures
                        .iter()
                        .map(|(j, n)| format!("{j}:{n}")),
                ),
            ),
            ("abort", spec::join_items(&self.abort_jobs)),
            (
                "exit",
                spec::join_items(self.exit_jobs.iter().map(|(j, c)| format!("{j}:{c}"))),
            ),
            ("stall", spec::join_items(&self.stall_jobs)),
        ]
    }

    /// The subset of this plan a worker process honours itself (everything
    /// except process-level faults, which the entrypoint fires, and queue
    /// closure, which belongs to the in-process pool).
    pub fn in_process(&self) -> FaultPlan {
        FaultPlan {
            panic_jobs: self.panic_jobs.clone(),
            hang_jobs: self.hang_jobs.clone(),
            transient_failures: self.transient_failures.clone(),
            ..FaultPlan::default()
        }
    }
}

/// Scripted *network* failures for fleet workers, keyed by the worker's
/// connection ordinal (0 for the first connection, 1 for the first
/// reconnect, and so on) so a spec deterministically targets "the original
/// connection" or "the connection after the first drop".
///
/// All faults act on the worker's *outbound* side, where one knob can
/// exercise every coordinator failure path: a drop looks like a worker
/// crash, a garbled frame like a protocol violation, a half-close like a
/// silent partition, and a delay like a slow link.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Connection → frame count after which the worker hard-closes the
    /// socket (both directions) and reports an I/O error, as a network
    /// partition or peer crash would.
    pub drop_after: BTreeMap<u64, u64>,
    /// Connection → milliseconds to sleep before every outbound frame
    /// (a uniformly slow link).
    pub delay_ms: BTreeMap<u64, u64>,
    /// Connection → the 1-based outbound frame index whose payload is
    /// corrupted in flight, driving the coordinator's schema-validation
    /// eviction path.
    pub garble_frame: BTreeMap<u64, u64>,
    /// Connection → frame count after which the worker shuts down only its
    /// write side and silently swallows later sends: the coordinator sees a
    /// half-closed, silent peer and must evict it on heartbeat timeout.
    pub half_close_after: BTreeMap<u64, u64>,
}

impl NetFaultPlan {
    /// True when no network faults are scripted (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.drop_after.is_empty()
            && self.delay_ms.is_empty()
            && self.garble_frame.is_empty()
            && self.half_close_after.is_empty()
    }

    /// Should connection `conn` be hard-closed instead of sending its
    /// `frame`-th outbound frame (1-based)?
    pub fn drop_now(&self, conn: u64, frame: u64) -> bool {
        self.drop_after.get(&conn).is_some_and(|&n| frame > n)
    }

    /// Per-frame write delay for connection `conn`, if any.
    pub fn delay_for(&self, conn: u64) -> Option<std::time::Duration> {
        self.delay_ms
            .get(&conn)
            .map(|&ms| std::time::Duration::from_millis(ms))
    }

    /// Should the `frame`-th outbound frame (1-based) on `conn` be
    /// corrupted?
    pub fn garble_now(&self, conn: u64, frame: u64) -> bool {
        self.garble_frame.get(&conn) == Some(&frame)
    }

    /// Should `conn`'s write side be shut down after sending its `frame`-th
    /// outbound frame (1-based)?
    pub fn half_close_now(&self, conn: u64, frame: u64) -> bool {
        self.half_close_after.get(&conn) == Some(&frame)
    }

    /// Applies one parsed `kind=args` clause to this plan (the chaos
    /// grammar's `net:`-prefixed clauses). Every kind takes comma-separated
    /// `conn:value` pairs:
    ///
    /// * `drop=C:N[,C:N...]` — hard-close connection `C` after `N` frames
    /// * `delay=C:MS[,...]` — sleep `MS` ms before each frame on `C`
    /// * `garble=C:N[,...]` — corrupt the `N`-th frame sent on `C`
    /// * `halfclose=C:N[,...]` — close `C`'s write side after `N` frames
    pub(crate) fn apply_clause(&mut self, c: &spec::Clause, plane: &str) -> Result<(), String> {
        let target = match c.kind {
            "drop" => &mut self.drop_after,
            "delay" => &mut self.delay_ms,
            "garble" => &mut self.garble_frame,
            "halfclose" => &mut self.half_close_after,
            _ => return Err(c.unknown_kind(plane)),
        };
        for item in c.items() {
            let (conn, val) = c.pair(item, "conn:value")?;
            let conn: u64 = c.num(conn, "connection ordinal", plane)?;
            let val: u64 = c.num(val, "value", plane)?;
            target.insert(conn, val);
        }
        Ok(())
    }

    /// This plan as `(kind, rendered args)` pairs, which the chaos grammar
    /// renders as prefixed clauses.
    pub(crate) fn spec_parts(&self) -> Vec<(&'static str, String)> {
        fn items(map: &BTreeMap<u64, u64>) -> String {
            spec::join_items(map.iter().map(|(c, v)| format!("{c}:{v}")))
        }
        vec![
            ("drop", items(&self.drop_after)),
            ("delay", items(&self.delay_ms)),
            ("garble", items(&self.garble_frame)),
            ("halfclose", items(&self.half_close_after)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;

    fn chaos(spec: &str) -> ChaosPlan {
        ChaosPlan::parse_spec(spec).expect("valid chaos spec")
    }

    #[test]
    fn default_plan_is_empty_and_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.should_panic(0));
        assert!(!plan.should_hang(0));
        assert!(!plan.should_fail_transiently(0, 0));
    }

    #[test]
    fn transient_failures_clear_after_n_attempts() {
        let plan = FaultPlan {
            transient_failures: BTreeMap::from([(3, 2)]),
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        assert!(plan.should_fail_transiently(3, 0));
        assert!(plan.should_fail_transiently(3, 1));
        assert!(!plan.should_fail_transiently(3, 2));
        assert!(!plan.should_fail_transiently(4, 0));
    }

    #[test]
    fn every_job_and_proc_kind_parses_into_its_field() {
        let plan = chaos(
            "job:panic=1,2;job:hang=3;job:transient=4:2;\
             proc:abort=6;proc:exit=7:9;proc:stall=8",
        )
        .job;
        assert_eq!(plan.panic_jobs, BTreeSet::from([1, 2]));
        assert_eq!(plan.hang_jobs, BTreeSet::from([3]));
        assert_eq!(plan.transient_failures, BTreeMap::from([(4, 2)]));
        assert!(plan.should_abort(6));
        assert!(!plan.should_abort(5));
        assert_eq!(plan.exit_code(7), Some(9));
        assert_eq!(plan.exit_code(6), None);
        assert!(plan.should_stall(8));
    }

    #[test]
    fn malformed_job_and_proc_clauses_are_rejected() {
        for bad in [
            "proc:abort",      // missing =
            "proc:abort=x",    // bad index
            "proc:exit=3",     // missing code
            "proc:exit=3:x",   // bad code
            "job:transient=3", // missing count
        ] {
            assert!(ChaosPlan::parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn in_process_strips_process_level_faults() {
        let plan =
            chaos("job:panic=1;job:transient=2:1;proc:abort=3;proc:exit=4:9;proc:stall=5").job;
        let inner = plan.in_process();
        assert!(inner.should_panic(1));
        assert!(inner.should_fail_transiently(2, 0));
        assert!(!inner.should_abort(3));
        assert_eq!(inner.exit_code(4), None);
        assert!(!inner.should_stall(5));
    }

    #[test]
    fn net_faults_parse_and_answer_their_queries() {
        let plan = chaos("net:drop=0:6;net:delay=1:50;net:garble=2:3;net:halfclose=3:4").net;
        assert!(!plan.is_empty());
        assert!(!plan.drop_now(0, 6), "the sixth frame still goes out");
        assert!(plan.drop_now(0, 7), "the seventh does not");
        assert!(!plan.drop_now(1, 7), "other connections are untouched");
        assert_eq!(
            plan.delay_for(1),
            Some(std::time::Duration::from_millis(50))
        );
        assert_eq!(plan.delay_for(0), None);
        assert!(plan.garble_now(2, 3) && !plan.garble_now(2, 4));
        assert!(plan.half_close_now(3, 4) && !plan.half_close_now(3, 5));
        for bad in ["net:drop", "net:drop=1", "net:drop=x:1", "net:drop=1:x"] {
            assert!(ChaosPlan::parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn panic_and_hang_sets_are_index_keyed() {
        let plan = FaultPlan {
            panic_jobs: BTreeSet::from([1]),
            hang_jobs: BTreeSet::from([2]),
            ..FaultPlan::default()
        };
        assert!(plan.should_panic(1));
        assert!(!plan.should_panic(2));
        assert!(plan.should_hang(2));
        assert!(!plan.should_hang(1));
    }
}
