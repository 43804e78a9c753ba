//! Scheduler decision observers.
//!
//! The `sb-vmm` schedulers expose a [`DecisionObserver`] hook reporting
//! every scheduling decision (hint hit, voluntary preempt, forced switch,
//! pick, incidental-PMC pickup). Decisions happen on the per-access hot
//! path, so [`CountingObserver`] aggregates them into atomics and emits a
//! handful of counter events only when [`CountingObserver::publish`] is
//! called at a job boundary — a traced trial never writes one JSONL line
//! per access. [`RecordingObserver`] captures the full decision sequence
//! for determinism tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sb_vmm::sched::{DecisionObserver, SchedDecision};

use crate::trace::{keys, Tracer};

/// Aggregates scheduler decisions into atomic counters.
#[derive(Debug, Default)]
pub struct CountingObserver {
    hint_hits: AtomicU64,
    voluntary: AtomicU64,
    forced: AtomicU64,
    picks: AtomicU64,
    incidental: AtomicU64,
}

impl CountingObserver {
    /// A fresh observer with all counters at zero.
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// Accesses that matched a scheduling hint.
    pub fn hint_hits(&self) -> u64 {
        self.hint_hits.load(Ordering::Relaxed)
    }

    /// Voluntary preemptions granted.
    pub fn voluntary(&self) -> u64 {
        self.voluntary.load(Ordering::Relaxed)
    }

    /// Liveness-forced switches.
    pub fn forced(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }

    /// Next-thread picks.
    pub fn picks(&self) -> u64 {
        self.picks.load(Ordering::Relaxed)
    }

    /// Incidental PMC hint-pattern additions.
    pub fn incidental(&self) -> u64 {
        self.incidental.load(Ordering::Relaxed)
    }

    /// Emits the aggregate counts to `tracer` and resets them, so one
    /// observer can be published per job without double counting.
    pub fn publish(&self, tracer: &Tracer) {
        tracer.count(
            keys::SCHED_HINT_HITS,
            self.hint_hits.swap(0, Ordering::Relaxed),
        );
        tracer.count(
            keys::SCHED_VOLUNTARY,
            self.voluntary.swap(0, Ordering::Relaxed),
        );
        tracer.count(keys::SCHED_FORCED, self.forced.swap(0, Ordering::Relaxed));
        tracer.count(keys::SCHED_PICKS, self.picks.swap(0, Ordering::Relaxed));
        tracer.count(
            keys::INCIDENTAL_PMCS,
            self.incidental.swap(0, Ordering::Relaxed),
        );
    }
}

impl DecisionObserver for CountingObserver {
    fn on_decision(&self, d: SchedDecision) {
        match d {
            SchedDecision::HintHit { .. } => &self.hint_hits,
            SchedDecision::Preempt { .. } => &self.voluntary,
            SchedDecision::Forced { .. } => &self.forced,
            SchedDecision::Pick { .. } => &self.picks,
            SchedDecision::PmcAdded { count } => {
                self.incidental.fetch_add(count as u64, Ordering::Relaxed);
                return;
            }
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Records the full decision sequence, in order. For determinism tests:
/// two runs with the same seed and the same hints must produce identical
/// sequences.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    decisions: Mutex<Vec<SchedDecision>>,
}

impl RecordingObserver {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// Returns the recorded sequence, leaving the recorder empty.
    pub fn take(&self) -> Vec<SchedDecision> {
        std::mem::take(&mut *self.decisions.lock().expect("recorder poisoned"))
    }

    /// Decisions recorded so far.
    pub fn len(&self) -> usize {
        self.decisions.lock().expect("recorder poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DecisionObserver for RecordingObserver {
    fn on_decision(&self, d: SchedDecision) {
        self.decisions.lock().expect("recorder poisoned").push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn counting_observer_aggregates_and_publishes_once() {
        let obs = CountingObserver::new();
        obs.on_decision(SchedDecision::HintHit { thread: 0 });
        obs.on_decision(SchedDecision::HintHit { thread: 1 });
        obs.on_decision(SchedDecision::Preempt {
            thread: 0,
            hinted: true,
        });
        obs.on_decision(SchedDecision::Forced { thread: 1 });
        obs.on_decision(SchedDecision::Pick { from: 0, to: 1 });
        obs.on_decision(SchedDecision::PmcAdded { count: 2 });
        assert_eq!(
            (
                obs.hint_hits(),
                obs.voluntary(),
                obs.forced(),
                obs.picks(),
                obs.incidental()
            ),
            (2, 1, 1, 1, 2)
        );
        let (tracer, sink) = Tracer::memory();
        obs.publish(&tracer);
        let mut kinds = std::collections::BTreeMap::new();
        for line in sink.lines() {
            if let Event::Count { key, n, .. } = Event::parse_line(&line).unwrap() {
                kinds.insert(key, n);
            }
        }
        assert_eq!(kinds.get(keys::SCHED_HINT_HITS), Some(&2));
        assert_eq!(kinds.get(keys::INCIDENTAL_PMCS), Some(&2));
        // Publishing drained the counters: a second publish emits nothing.
        let before = sink.lines().len();
        obs.publish(&tracer);
        assert_eq!(sink.lines().len(), before);
    }

    #[test]
    fn recording_observer_keeps_order() {
        let obs = RecordingObserver::new();
        obs.on_decision(SchedDecision::Pick { from: 0, to: 1 });
        obs.on_decision(SchedDecision::Forced { thread: 1 });
        assert_eq!(obs.len(), 2);
        let seq = obs.take();
        assert_eq!(
            seq,
            vec![
                SchedDecision::Pick { from: 0, to: 1 },
                SchedDecision::Forced { thread: 1 },
            ]
        );
        assert!(obs.is_empty());
    }
}
