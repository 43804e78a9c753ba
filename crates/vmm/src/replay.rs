//! Schedule recording and deterministic replay.
//!
//! §6 ("Bug Diagnosis and Deterministic Reproduction") highlights that
//! Snowboard "provid\[es\] a reliable environment to replicate bugs once they
//! are found". This module makes that capability scheduler-independent: a
//! [`RecordingSched`] wraps any scheduler and captures its decisions as a
//! portable [`Schedule`]; a [`ReplaySched`] re-applies the captured
//! decisions verbatim, reproducing the exact interleaving — and therefore
//! the exact bug — without the original scheduler, its RNG state, or its
//! learned flags.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::access::Access;
use crate::sched::{DecisionObserver, Scheduler};

/// A recorded interleaving: per-access preemption decisions and the chosen
/// thread at each scheduling point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// One entry per access, in execution order: preempt after it?
    pub switches: Vec<bool>,
    /// One entry per `pick` call, in order: the chosen thread.
    pub picks: Vec<usize>,
}

impl Schedule {
    /// Number of recorded access decisions.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.picks.is_empty()
    }
}

/// Wraps any scheduler, recording its decisions into a [`Schedule`].
///
/// Recording is a push per decision and changes none of them, so a campaign
/// job keeps its scheduler wrapped for every trial and copies the schedule
/// out of the one that found something, instead of running that trial again
/// under a recorder.
pub struct RecordingSched<S> {
    inner: S,
    schedule: Schedule,
}

impl<S: Scheduler> RecordingSched<S> {
    /// Starts recording around `inner`.
    pub fn new(inner: S) -> Self {
        RecordingSched {
            inner,
            schedule: Schedule::default(),
        }
    }

    /// Finishes recording, returning the captured schedule and the inner
    /// scheduler.
    pub fn finish(self) -> (Schedule, S) {
        (self.schedule, self.inner)
    }

    /// The schedule captured so far.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Forgets what was captured, keeping the buffers, so the next execution
    /// records from its first decision.
    pub fn restart(&mut self) {
        self.schedule.switches.clear();
        self.schedule.picks.clear();
    }

    /// The wrapped scheduler, for what is its alone: reseeding it between
    /// executions, adding hints.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Scheduler> Scheduler for RecordingSched<S> {
    fn after_access(&mut self, t: usize, access: &Access) -> bool {
        let d = self.inner.after_access(t, access);
        self.schedule.switches.push(d);
        d
    }

    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        let p = self.inner.pick(prev, candidates);
        self.schedule.picks.push(p);
        p
    }

    fn on_forced_switch(&mut self, t: usize) {
        self.inner.on_forced_switch(t);
    }

    /// The wrapped scheduler makes the decisions, so it reports them.
    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        self.inner.set_observer(observer);
    }
}

/// Replays a recorded [`Schedule`] decision-for-decision.
///
/// When the replayed execution diverges (e.g. a different kernel build) and
/// the schedule runs out, the replayer stops preempting and picks the first
/// runnable thread; [`ReplaySched::diverged`] reports whether that happened.
pub struct ReplaySched {
    switches: VecDeque<bool>,
    picks: VecDeque<usize>,
    diverged: bool,
}

impl ReplaySched {
    /// Creates a replayer for `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        ReplaySched {
            switches: schedule.switches.into(),
            picks: schedule.picks.into(),
            diverged: false,
        }
    }

    /// True if the execution consumed more decisions than were recorded or
    /// a recorded pick was not runnable.
    pub fn diverged(&self) -> bool {
        self.diverged
    }
}

impl Scheduler for ReplaySched {
    fn after_access(&mut self, _t: usize, _access: &Access) -> bool {
        match self.switches.pop_front() {
            Some(d) => d,
            None => {
                self.diverged = true;
                false
            }
        }
    }

    fn pick(&mut self, _prev: usize, candidates: &[usize]) -> usize {
        match self.picks.pop_front() {
            Some(p) if candidates.contains(&p) => p,
            Some(_) | None => {
                self.diverged = true;
                candidates[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{job, Executor, Job};
    use crate::mem::GuestMem;
    use crate::sched::RandomSched;
    use crate::site;

    fn two_jobs(cell: u64) -> Vec<Job> {
        let bump = move |name: &'static str| -> Job {
            job(move |ctx| async move {
                for i in 0..30 {
                    let v = ctx.read_u64(site!(name), cell).await?;
                    ctx.write_u64(site!(name), cell, v + i).await?;
                }
                Ok(())
            })
        };
        vec![bump("rp:a"), bump("rp:b")]
    }

    fn trace_sig(r: &crate::exec::ExecReport) -> Vec<(usize, u64, u64)> {
        r.trace
            .iter()
            .map(|a| (a.thread, a.addr, a.value))
            .collect()
    }

    #[test]
    fn replay_reproduces_the_recorded_interleaving() {
        let mut m = GuestMem::new();
        let cell = m.kmalloc(8).unwrap();
        let snapshot = m.clone();
        let mut exec = Executor::new(2);
        let mut rec = RecordingSched::new(RandomSched::new(9, 0.3));
        let original = exec.run(snapshot.clone(), two_jobs(cell), &mut rec);
        let (schedule, _) = rec.finish();
        assert!(!schedule.is_empty());
        let mut replay = ReplaySched::new(schedule);
        let replayed = exec.run(snapshot, two_jobs(cell), &mut replay);
        assert!(!replay.diverged());
        assert_eq!(trace_sig(&original.report), trace_sig(&replayed.report));
        assert_eq!(original.report.switches, replayed.report.switches);
    }

    #[test]
    fn a_restarted_recorder_records_what_a_fresh_one_would() {
        let mut m = GuestMem::new();
        let cell = m.kmalloc(8).unwrap();
        let mut exec = Executor::new(2);
        let mut kept = RecordingSched::new(RandomSched::new(9, 0.3));
        exec.run(m.clone(), two_jobs(cell), &mut kept);
        let first = kept.schedule().clone();
        // Same scheduler state, one recorder restarted and one new: equal
        // schedules, and neither is the first run's with more appended.
        *kept.inner_mut() = RandomSched::new(10, 0.3);
        kept.restart();
        exec.run(m.clone(), two_jobs(cell), &mut kept);
        let mut fresh = RecordingSched::new(RandomSched::new(10, 0.3));
        exec.run(m, two_jobs(cell), &mut fresh);
        assert_eq!(kept.schedule(), fresh.schedule());
        assert_ne!(*kept.schedule(), first);
        assert_eq!(
            kept.schedule().len(),
            first.len(),
            "two_jobs makes 120 accesses"
        );
    }

    #[test]
    fn the_observer_reaches_the_wrapped_scheduler() {
        struct Picks(std::sync::atomic::AtomicUsize);
        impl DecisionObserver for Picks {
            fn on_decision(&self, d: crate::sched::SchedDecision) {
                if matches!(d, crate::sched::SchedDecision::Pick { .. }) {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        let mut m = GuestMem::new();
        let cell = m.kmalloc(8).unwrap();
        let picks = Arc::new(Picks(Default::default()));
        let mut rec = RecordingSched::new(RandomSched::new(9, 0.3));
        rec.set_observer(Some(picks.clone()));
        Executor::new(2).run(m, two_jobs(cell), &mut rec);
        let seen = picks.0.load(std::sync::atomic::Ordering::Relaxed);
        assert!(seen > 0);
        assert_eq!(
            seen,
            rec.schedule().picks.len(),
            "one report per recorded pick"
        );
    }

    #[test]
    fn replay_detects_divergence_gracefully() {
        let mut m = GuestMem::new();
        let cell = m.kmalloc(8).unwrap();
        let mut exec = Executor::new(2);
        // An empty schedule against a real execution: no preemption, and
        // divergence is flagged.
        let mut replay = ReplaySched::new(Schedule::default());
        let r = exec.run(m, two_jobs(cell), &mut replay);
        assert!(r.report.outcome.is_completed());
        assert!(replay.diverged());
    }
}
