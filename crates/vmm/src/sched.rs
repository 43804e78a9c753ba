//! Interleaving schedulers.
//!
//! The coordinator consults a [`Scheduler`] after every memory access; the
//! scheduler answers "should the running thread be preempted here?" and, on
//! preemption, which thread runs next. Four schedulers are provided:
//!
//! * [`FreeRun`] — never preempts; used for sequential profiling (§4.1).
//! * [`RandomSched`] — preempts with fixed probability at every access; the
//!   unguided baseline.
//! * [`SkiSched`] — SKI's behavior as characterized in §5.4: yields whenever
//!   it observes *any* access by an instruction involved in a PMC,
//!   "regardless of memory targets".
//! * [`SnowboardSched`] — the paper's Algorithm 2: yields only on precise PMC
//!   accesses (site *and* memory range), learns `flags` (the access observed
//!   right before a PMC access) so later trials can preempt just *before* the
//!   PMC access (`pmc_access_coming`), and accepts incidental PMCs discovered
//!   mid-campaign.

//!
//! All schedulers except [`FreeRun`] accept a [`DecisionObserver`] via
//! [`Scheduler::set_observer`], reporting every scheduling decision
//! ([`SchedDecision`]) for observability and determinism testing. The hook
//! is `None` by default and costs one branch per decision when unset.

use std::collections::HashSet;
use std::sync::Arc;

use crate::access::{Access, AccessKind};
use crate::mem::MAX_THREADS;
use crate::rng::SplitMix64;
use crate::site::{BuildStepHasher, Site};

/// One side of a PMC rendered as a concrete access pattern the scheduler can
/// match executions against: instruction identity plus memory range and
/// access type.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HintAccess {
    /// Instruction identity of the access.
    pub site: Site,
    /// Read or write side.
    pub kind: AccessKind,
    /// Start of the memory range.
    pub addr: u64,
    /// Length of the memory range in bytes.
    pub len: u8,
}

impl HintAccess {
    /// End of the hinted range (exclusive), saturating at the top of the
    /// address space exactly like [`Access::end`] — `addr + len` must not
    /// wrap for hints near `u64::MAX`.
    pub fn end(&self) -> u64 {
        self.addr.saturating_add(u64::from(self.len))
    }

    /// True if `a` is this pattern: same instruction, same access type, and
    /// overlapping memory range.
    pub fn matches(&self, a: &Access) -> bool {
        self.site == a.site && self.kind == a.kind && self.addr < a.end() && a.addr < self.end()
    }
}

/// One scheduling decision, reported to a [`DecisionObserver`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedDecision {
    /// An access matched the scheduler's hint set (a watched site for
    /// [`SkiSched`], a learned flag or PMC pattern for [`SnowboardSched`]).
    /// Reported whether or not the coin flip then grants a preemption.
    HintHit {
        /// Thread that performed the matching access.
        thread: usize,
    },
    /// A voluntary preemption was granted after an access.
    Preempt {
        /// Thread being preempted.
        thread: usize,
        /// True if a hint (not a blind coin flip or change point) drove it.
        hinted: bool,
    },
    /// The coordinator force-switched a stuck thread (liveness).
    Forced {
        /// Thread that was force-switched.
        thread: usize,
    },
    /// The scheduler picked the next thread to run.
    Pick {
        /// Thread that was running (or blocked/finished).
        from: usize,
        /// Thread chosen to run next.
        to: usize,
    },
    /// Incidentally discovered PMC patterns were added to the watch set
    /// (Algorithm 2 line 27).
    PmcAdded {
        /// Number of hint patterns added.
        count: usize,
    },
}

/// Receives every [`SchedDecision`] a scheduler makes. Implementations must
/// be cheap: the hook fires on the per-access hot path.
pub trait DecisionObserver: Send + Sync {
    /// Called synchronously for each decision, in decision order.
    fn on_decision(&self, d: SchedDecision);
}

fn notify(observer: &Option<Arc<dyn DecisionObserver>>, d: SchedDecision) {
    if let Some(o) = observer {
        o.on_decision(d);
    }
}

/// Decides interleavings. Called by the execution coordinator.
pub trait Scheduler {
    /// Invoked after thread `t` completed `access`. Return true to preempt.
    fn after_access(&mut self, t: usize, access: &Access) -> bool {
        let _ = (t, access);
        false
    }

    /// Chooses the next thread among `candidates` (non-empty) when `prev` is
    /// preempted, blocked, or finished.
    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize;

    /// Notification of a liveness-forced preemption of thread `t`.
    fn on_forced_switch(&mut self, _t: usize) {}

    /// Installs (or clears) a [`DecisionObserver`]. The default is a no-op
    /// for schedulers with nothing to report — [`FreeRun`] never preempts,
    /// and a replayer applies decisions it did not make. A wrapper such as
    /// the replay recorder forwards it to the scheduler it wraps.
    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        let _ = observer;
    }
}

/// Runs each thread to completion without voluntary preemption.
#[derive(Default)]
pub struct FreeRun;

impl Scheduler for FreeRun {
    fn pick(&mut self, _prev: usize, candidates: &[usize]) -> usize {
        candidates[0]
    }
}

/// Preempts with probability `p` after every access — unguided exploration.
pub struct RandomSched {
    rng: SplitMix64,
    p: f64,
    observer: Option<Arc<dyn DecisionObserver>>,
}

impl RandomSched {
    /// Creates a random scheduler with switch probability `p`.
    pub fn new(seed: u64, p: f64) -> Self {
        RandomSched {
            rng: SplitMix64::new(seed),
            p,
            observer: None,
        }
    }
}

impl Scheduler for RandomSched {
    fn after_access(&mut self, t: usize, _access: &Access) -> bool {
        let switch = self.rng.gen_bool(self.p);
        if switch {
            notify(&self.observer, SchedDecision::Preempt { thread: t, hinted: false });
        }
        switch
    }

    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        let to = candidates[self.rng.gen_range(0..candidates.len())];
        notify(&self.observer, SchedDecision::Pick { from: prev, to });
        to
    }

    fn on_forced_switch(&mut self, t: usize) {
        notify(&self.observer, SchedDecision::Forced { thread: t });
    }

    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        self.observer = observer;
    }
}

/// SKI-style scheduling: preempt (with probability 1/2) after any access
/// whose *instruction* is involved in the PMC under test, regardless of the
/// memory target (§5.4's characterization of SKI's extra vCPU switches).
pub struct SkiSched {
    /// Only ever probed with `contains`, never iterated.
    sites: HashSet<Site, BuildStepHasher>,
    rng: SplitMix64,
    observer: Option<Arc<dyn DecisionObserver>>,
}

impl SkiSched {
    /// Creates a SKI scheduler watching the given instruction sites.
    pub fn new(seed: u64, sites: impl IntoIterator<Item = Site>) -> Self {
        SkiSched {
            sites: sites.into_iter().collect(),
            rng: SplitMix64::new(seed),
            observer: None,
        }
    }

    /// Reseeds the randomness for a new trial.
    pub fn begin_trial(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
    }
}

impl Scheduler for SkiSched {
    fn after_access(&mut self, t: usize, access: &Access) -> bool {
        if !self.sites.contains(&access.site) {
            return false;
        }
        notify(&self.observer, SchedDecision::HintHit { thread: t });
        let switch = self.rng.gen_bool(0.5);
        if switch {
            notify(&self.observer, SchedDecision::Preempt { thread: t, hinted: true });
        }
        switch
    }

    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        let to = candidates[self.rng.gen_range(0..candidates.len())];
        notify(&self.observer, SchedDecision::Pick { from: prev, to });
        to
    }

    fn on_forced_switch(&mut self, t: usize) {
        notify(&self.observer, SchedDecision::Forced { thread: t });
    }

    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        self.observer = observer;
    }
}

/// PCT (Probabilistic Concurrency Testing, Burckhardt et al. ASPLOS'10):
/// the randomized-priority scheduler SKI generalizes to kernels (§7).
///
/// Threads get random initial priorities; `d - 1` change points are drawn
/// uniformly from the expected instruction count `k`, and when execution
/// reaches a change point the running thread's priority drops below every
/// other. The highest-priority runnable thread always runs. PCT guarantees
/// a `1/(n·k^(d-1))` probability of hitting any bug of depth `d`.
pub struct PctSched {
    priorities: [u64; MAX_THREADS],
    change_points: Vec<u64>,
    executed: u64,
    next_low: u64,
    rng: SplitMix64,
    observer: Option<Arc<dyn DecisionObserver>>,
}

impl PctSched {
    /// Creates a PCT scheduler for executions of roughly `k` accesses and
    /// bug depth `d` (the number of ordering constraints to hit).
    pub fn new(seed: u64, k: u64, d: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut priorities = [0u64; MAX_THREADS];
        for p in priorities.iter_mut() {
            // High random starting priorities, well above change-point lows.
            *p = rng.gen_range(1_000_000..2_000_000);
        }
        let mut change_points: Vec<u64> = (0..d.saturating_sub(1))
            .map(|_| rng.gen_range(0..k.max(1)))
            .collect();
        change_points.sort_unstable();
        PctSched {
            priorities,
            change_points,
            executed: 0,
            next_low: 1000,
            rng,
            observer: None,
        }
    }

    /// Reseeds for a new trial with fresh priorities and change points.
    /// Keeps the installed observer.
    pub fn begin_trial(&mut self, seed: u64, k: u64, d: u32) {
        let observer = self.observer.take();
        *self = PctSched::new(seed, k, d);
        self.observer = observer;
    }
}

impl Scheduler for PctSched {
    fn after_access(&mut self, t: usize, _access: &Access) -> bool {
        self.executed += 1;
        if self
            .change_points
            .first()
            .is_some_and(|cp| self.executed > *cp)
        {
            self.change_points.remove(0);
            // Drop the running thread below everyone else.
            self.next_low = self.next_low.saturating_sub(1);
            self.priorities[t] = self.next_low;
            notify(&self.observer, SchedDecision::Preempt { thread: t, hinted: false });
            return true;
        }
        false
    }

    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        // The coordinator never calls `pick` with an empty candidate set;
        // stay on `prev` rather than panicking if a custom harness does.
        let to = candidates
            .iter()
            .copied()
            .max_by_key(|t| self.priorities[*t])
            .unwrap_or(prev);
        notify(&self.observer, SchedDecision::Pick { from: prev, to });
        to
    }

    fn on_forced_switch(&mut self, t: usize) {
        // A stuck thread loses its priority so progress can happen.
        self.next_low = self.next_low.saturating_sub(1);
        self.priorities[t] = self.next_low;
        let _ = &self.rng;
        notify(&self.observer, SchedDecision::Forced { thread: t });
    }

    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        self.observer = observer;
    }
}

/// The Snowboard scheduler: Algorithm 2 of the paper.
///
/// The scheduler holds the set of PMC access patterns under test
/// (`current_pmcs`), and `flags` — per-thread (site, addr) pairs observed
/// immediately *before* a PMC access in an earlier trial. Preemption is
/// considered non-deterministically when:
///
/// 1. the thread just performed an access matching `flags`
///    (`pmc_access_coming` — a PMC access is probably next), or
/// 2. the thread just performed a PMC access itself
///    (`performed_pmc_access`), in which case the preceding access is
///    recorded into `flags` for future trials.
///
/// `flags` persist across the trials of one concurrent test; the randomness
/// is reseeded per trial exactly as Algorithm 2's
/// `random.seed(SEED + trial)`. A campaign job wraps its scheduler in a
/// [`crate::replay::RecordingSched`] for as long as it lives, so the
/// schedule of a finding trial is a by-product of the trial itself. The
/// scheduler is `Clone` for the test that holds that recording against a
/// re-run of the trial from a copy taken before it.
#[derive(Clone)]
pub struct SnowboardSched {
    pmcs: Vec<HintAccess>,
    /// Probed once per access and inserted into; never iterated.
    flags: HashSet<(Site, u64), BuildStepHasher>,
    last: [Option<(Site, u64)>; MAX_THREADS],
    rng: SplitMix64,
    switch_p: f64,
    learn_flags: bool,
    observer: Option<Arc<dyn DecisionObserver>>,
}

impl SnowboardSched {
    /// Creates a scheduler for the given PMC access patterns.
    pub fn new(seed: u64, pmcs: impl IntoIterator<Item = HintAccess>) -> Self {
        SnowboardSched {
            pmcs: pmcs.into_iter().collect(),
            flags: HashSet::default(),
            last: [None; MAX_THREADS],
            rng: SplitMix64::new(seed),
            switch_p: 0.5,
            learn_flags: true,
            observer: None,
        }
    }

    /// Ablation variant: disables `flags` learning, so only
    /// `performed_pmc_access` (post-access) preemption remains and the
    /// `pmc_access_coming` pre-access preemption never fires.
    pub fn without_flag_learning(seed: u64, pmcs: impl IntoIterator<Item = HintAccess>) -> Self {
        let mut s = Self::new(seed, pmcs);
        s.learn_flags = false;
        s
    }

    /// Starts a new trial: reseeds randomness (`random.seed(SEED + trial)`)
    /// and clears per-execution state. `flags` and the PMC set persist.
    pub fn begin_trial(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
        self.last = [None; MAX_THREADS];
    }

    /// Adds an incidentally discovered PMC's access patterns to the watch
    /// set (Algorithm 2 line 27).
    pub fn add_pmc(&mut self, accesses: impl IntoIterator<Item = HintAccess>) {
        let before = self.pmcs.len();
        self.pmcs.extend(accesses);
        let added = self.pmcs.len() - before;
        if added > 0 {
            notify(&self.observer, SchedDecision::PmcAdded { count: added });
        }
    }

    /// Number of `flags` learned so far (diagnostics).
    pub fn flag_count(&self) -> usize {
        self.flags.len()
    }

    fn matches_pmc(&self, a: &Access) -> bool {
        self.pmcs.iter().any(|p| p.matches(a))
    }
}

impl Scheduler for SnowboardSched {
    fn after_access(&mut self, t: usize, access: &Access) -> bool {
        let mut switch = false;
        let mut hinted = false;
        // `pmc_access_coming`: the last trial saw a PMC access right after
        // this (site, addr); consider yielding before it happens.
        if self.flags.contains(&(access.site, access.addr)) {
            hinted = true;
            switch = self.rng.gen_bool(self.switch_p);
        }
        // `performed_pmc_access`: remember the preceding access as a flag
        // and consider yielding right after the PMC access.
        if self.matches_pmc(access) {
            hinted = true;
            if self.learn_flags {
                if let Some(prev) = self.last[t] {
                    self.flags.insert(prev);
                }
            }
            switch = switch || self.rng.gen_bool(self.switch_p);
        }
        self.last[t] = Some((access.site, access.addr));
        if hinted {
            notify(&self.observer, SchedDecision::HintHit { thread: t });
        }
        if switch {
            notify(&self.observer, SchedDecision::Preempt { thread: t, hinted: true });
        }
        switch
    }

    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        let to = candidates[self.rng.gen_range(0..candidates.len())];
        notify(&self.observer, SchedDecision::Pick { from: prev, to });
        to
    }

    fn on_forced_switch(&mut self, t: usize) {
        notify(&self.observer, SchedDecision::Forced { thread: t });
    }

    fn set_observer(&mut self, observer: Option<Arc<dyn DecisionObserver>>) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    fn acc(site: Site, addr: u64, kind: AccessKind) -> Access {
        Access {
            seq: 0,
            thread: 0,
            site,
            kind,
            addr,
            len: 8,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        }
    }

    #[test]
    fn hint_matching_requires_site_kind_and_overlap() {
        let s = site!("sched:w");
        let h = HintAccess {
            site: s,
            kind: AccessKind::Write,
            addr: 100,
            len: 8,
        };
        assert!(h.matches(&acc(s, 104, AccessKind::Write)));
        assert!(!h.matches(&acc(s, 104, AccessKind::Read)));
        assert!(!h.matches(&acc(s, 108, AccessKind::Write)));
        assert!(!h.matches(&acc(site!("sched:other"), 100, AccessKind::Write)));
    }

    #[test]
    fn hint_matching_at_address_space_end_does_not_wrap() {
        let s = site!("sched:hi");
        let h = HintAccess {
            site: s,
            kind: AccessKind::Write,
            addr: u64::MAX - 4,
            len: 8,
        };
        // `addr + len` overflows u64; the saturating end must still match an
        // overlapping access at the top of the address space...
        assert_eq!(h.end(), u64::MAX);
        assert!(h.matches(&acc(s, u64::MAX - 2, AccessKind::Write)));
        assert!(h.matches(&acc(s, u64::MAX - 8, AccessKind::Write)));
        // ...and still reject a disjoint one below the hinted range.
        assert!(!h.matches(&acc(s, u64::MAX - 20, AccessKind::Write)));
    }

    #[test]
    fn observers_see_preempts_picks_and_pmc_additions() {
        #[derive(Default)]
        struct Rec(std::sync::Mutex<Vec<SchedDecision>>);
        impl DecisionObserver for Rec {
            fn on_decision(&self, d: SchedDecision) {
                self.0.lock().unwrap().push(d);
            }
        }
        let w = site!("sb:obs_write");
        let h = HintAccess {
            site: w,
            kind: AccessKind::Write,
            addr: 0x2000,
            len: 8,
        };
        let rec = Arc::new(Rec::default());
        let mut s = SnowboardSched::new(11, [h]);
        s.set_observer(Some(rec.clone()));
        s.begin_trial(11);
        for _ in 0..16 {
            if s.after_access(0, &acc(w, 0x2000, AccessKind::Write)) {
                s.pick(0, &[0, 1]);
            }
        }
        s.add_pmc([HintAccess {
            site: site!("sb:obs_other"),
            kind: AccessKind::Read,
            addr: 0x3000,
            len: 4,
        }]);
        s.on_forced_switch(1);
        let seen = rec.0.lock().unwrap().clone();
        assert!(seen.iter().any(|d| matches!(d, SchedDecision::HintHit { thread: 0 })));
        assert!(seen
            .iter()
            .any(|d| matches!(d, SchedDecision::Preempt { thread: 0, hinted: true })));
        assert!(seen.iter().any(|d| matches!(d, SchedDecision::Pick { from: 0, .. })));
        assert!(seen.contains(&SchedDecision::PmcAdded { count: 1 }));
        assert!(seen.contains(&SchedDecision::Forced { thread: 1 }));
    }

    #[test]
    fn free_run_never_switches() {
        let mut s = FreeRun;
        let a = acc(site!("fr"), 0x2000, AccessKind::Read);
        for _ in 0..100 {
            assert!(!s.after_access(0, &a));
        }
        assert_eq!(s.pick(0, &[1, 2]), 1);
    }

    #[test]
    fn snowboard_learns_flags_from_pmc_accesses() {
        let w = site!("sb:pmc_write");
        let prev = site!("sb:prelude");
        let h = HintAccess {
            site: w,
            kind: AccessKind::Write,
            addr: 0x2000,
            len: 8,
        };
        let mut s = SnowboardSched::new(7, [h]);
        s.begin_trial(7);
        // A non-PMC access followed by the PMC access records the former as
        // a flag.
        s.after_access(0, &acc(prev, 0x3000, AccessKind::Read));
        s.after_access(0, &acc(w, 0x2000, AccessKind::Write));
        assert_eq!(s.flag_count(), 1);
        // Flags persist across trials.
        s.begin_trial(8);
        assert_eq!(s.flag_count(), 1);
    }

    #[test]
    fn snowboard_switch_decisions_are_seed_deterministic() {
        let w = site!("sb:det_write");
        let h = HintAccess {
            site: w,
            kind: AccessKind::Write,
            addr: 0x2000,
            len: 8,
        };
        let run = |seed: u64| {
            let mut s = SnowboardSched::new(seed, [h]);
            s.begin_trial(seed);
            (0..32)
                .map(|i| s.after_access(0, &acc(w, 0x2000 + (i % 2), AccessKind::Write)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(3), run(3));
        // Sanity: some trial actually switches somewhere.
        assert!(run(3).iter().any(|b| *b));
    }

    #[test]
    fn pct_runs_highest_priority_and_demotes_at_change_points() {
        let mut s = PctSched::new(5, 10, 3);
        // Deterministic pick: the same candidates always yield the same
        // winner before any change point fires.
        let first = s.pick(0, &[0, 1]);
        assert_eq!(first, s.pick(0, &[0, 1]));
        // Drive past every change point; the running thread must
        // eventually be demoted (a switch request).
        let a = acc(site!("pct:x"), 0x2000, AccessKind::Read);
        let mut demoted = false;
        for _ in 0..20 {
            demoted |= s.after_access(first, &a);
        }
        assert!(demoted, "change points must fire within k accesses");
        // After demotion the other thread wins.
        assert_ne!(s.pick(first, &[0, 1]), first);
    }

    #[test]
    fn pct_is_seed_deterministic() {
        let run = |seed| {
            let mut s = PctSched::new(seed, 50, 4);
            let a = acc(site!("pct:d"), 0x2000, AccessKind::Read);
            (0..60).map(|_| s.after_access(0, &a)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn ski_switches_on_site_regardless_of_address() {
        let s0 = site!("ski:w");
        let mut s = SkiSched::new(1, [s0]);
        let mut any = false;
        for i in 0..64 {
            any |= s.after_access(0, &acc(s0, 0x9000 + i * 8, AccessKind::Write));
        }
        assert!(any, "SKI should sometimes switch at a watched site");
        let mut never = false;
        for _ in 0..64 {
            never |= s.after_access(0, &acc(site!("ski:other"), 0x9000, AccessKind::Write));
        }
        assert!(!never, "SKI must ignore unwatched sites");
    }
}
