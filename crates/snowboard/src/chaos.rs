//! The unified chaos plane: one composable fault grammar, deterministic
//! schedule generation, and fire-site attribution for self-chaos campaigns.
//!
//! Four fault planes — job faults, process faults, network faults
//! ([`crate::fault`]) and the coordinator kill switch — each implement
//! their own injection; this module is the one way to script them:
//!
//! * [`ChaosPlan`] — a single spec grammar covering every plane with
//!   `plane:kind=args` clauses, e.g.
//!   `"job:panic=3;proc:exit=1:9;net:drop=0:6;coord:kill-after-journal=4"`.
//!   `--chaos` is the only fault input the CLI has.
//! * Fire-site attribution — every injection hook reports a stable site id
//!   (see [`SITES`]) through two channels: a stderr ledger line
//!   ([`fired`]) visible even from worker processes with disabled tracers,
//!   and `chaos.fired.*` trace counters ([`count_fired`]) cross-checked by
//!   `trace report`.
//! * [`ScheduleGen`] — a splitmix64-seeded enumerator of fault schedules
//!   by plane, intensity, and injection-site coverage, with an expected
//!   fire-count model per site. `hunt chaos` replays any schedule from its
//!   `<seed>/<index>` coordinates alone.

use std::collections::BTreeSet;

use sb_obs::spec;
use sb_vmm::rng::SplitMix64;

use crate::campaign::JobVerdict;
use crate::error::FailureKind;
use crate::fault::{FaultPlan, NetFaultPlan};

/// Every injection-site id a chaos schedule can exercise, in plane order.
/// Site ids are stable: they name ledger lines, `chaos.fired.<site>` trace
/// counters, and the coverage axis of the schedule generator.
pub const SITES: &[&str] = &[
    "job.panic",
    "job.hang",
    "job.transient",
    "proc.abort",
    "proc.exit",
    "proc.stall",
    "net.drop",
    "net.delay",
    "net.garble",
    "net.halfclose",
    "coord.kill-after-journal",
];

/// Prints the stderr ledger line for one fault firing. The ledger is the
/// attribution channel that works everywhere — fleet worker processes run
/// with disabled tracers, but their stderr is captured, so `hunt chaos` can
/// still count every injected fault.
pub fn fired(site: &str, detail: &str) {
    if detail.is_empty() {
        eprintln!("[chaos] fired {site}");
    } else {
        eprintln!("[chaos] fired {site} {detail}");
    }
}

/// Parses the site id back out of a [`fired`] ledger line, or `None` for
/// any other stderr line.
pub fn ledger_site(line: &str) -> Option<&str> {
    line.trim()
        .strip_prefix("[chaos] fired ")?
        .split_whitespace()
        .next()
}

/// Counts `n` firings of `site` into the `chaos.fired.*` counter family.
/// No-op for `n == 0` so clean runs emit no chaos counters at all (the
/// `trace report` chaos check is vacuous on fault-free traces).
pub fn count_fired(tracer: &sb_obs::Tracer, site: &str, n: u64) {
    if n > 0 {
        tracer.count(&sb_obs::keys::chaos_fired(site), n);
    }
}

/// Attributes the `job.*` fault firings behind one resolved job verdict to
/// the chaos counter family. Called at verdict-fold time (the ledger, for
/// every transport) where the attempt count is known:
///
/// * a completed job that was scripted transient fired once per failed
///   attempt (`attempts - 1`);
/// * a quarantined job fired once per attempt, but only when the
///   quarantine kind matches what the plan scripted for that job —
///   crash/gave-up records are process-level outcomes attributed
///   at their own sites, not here.
pub(crate) fn attribute_verdict(
    tracer: &sb_obs::Tracer,
    plan: &FaultPlan,
    job: usize,
    v: &JobVerdict,
) {
    if plan.is_empty() {
        return;
    }
    let (site, fires) = match v {
        JobVerdict::Completed(out) => {
            if plan.transient_failures.contains_key(&job) {
                ("job.transient", u64::from(out.attempts.saturating_sub(1)))
            } else {
                return;
            }
        }
        JobVerdict::Quarantined(q) => match q.kind {
            FailureKind::Panic if plan.should_panic(job) => ("job.panic", u64::from(q.attempts)),
            FailureKind::Hang if plan.should_hang(job) => ("job.hang", u64::from(q.attempts)),
            FailureKind::Injected if plan.transient_failures.contains_key(&job) => {
                ("job.transient", u64::from(q.attempts))
            }
            _ => return,
        },
    };
    count_fired(tracer, site, fires);
}

/// All four fault planes behind one spec grammar. Parsed from `--chaos`
/// and rendered back losslessly; each plane's struct stays the
/// authoritative implementation of its faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Job- and process-level faults (`job:*` and `proc:*` clauses; both
    /// land in the one [`FaultPlan`] the campaign already threads through).
    pub job: FaultPlan,
    /// Network faults for fleet workers (`net:*` clauses).
    pub net: NetFaultPlan,
    /// Coordinator kill switch: simulate `kill -9` right after the Nth
    /// verdict the checkpoint logs (`coord:kill-after-journal=N`).
    pub kill_after_journal: Option<u64>,
}

/// The `plane:kind` clause keys of [`FaultPlan::spec_parts`], in order.
const JOB_KEYS: [&str; 6] = [
    "job:panic",
    "job:hang",
    "job:transient",
    "proc:abort",
    "proc:exit",
    "proc:stall",
];
/// The `net:kind` clause keys of [`NetFaultPlan::spec_parts`], in order.
const NET_KEYS: [&str; 4] = ["net:drop", "net:delay", "net:garble", "net:halfclose"];

impl ChaosPlan {
    /// True when no faults are scripted on any plane.
    pub fn is_empty(&self) -> bool {
        self.job.is_empty() && self.net.is_empty() && self.kill_after_journal.is_none()
    }

    /// Parses the unified chaos spec: semicolon-separated
    /// `plane:kind=args` clauses. Planes are `job:` (panic, hang,
    /// transient), `proc:` (abort, exit, stall), `net:` (drop,
    /// delay, garble, halfclose), and `coord:` (kill-after-journal). The per-plane argument grammars are
    /// documented on each plane's `apply_clause`.
    pub fn parse_spec(s: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for clause in spec::clauses(s, "chaos") {
            plan.apply_clause(&clause?)?;
        }
        Ok(plan)
    }

    fn apply_clause(&mut self, c: &spec::Clause) -> Result<(), String> {
        let Some((plane, kind)) = c.kind.split_once(':') else {
            return Err(format!(
                "chaos clause '{}' needs a plane prefix: job:, proc:, net:, or coord:",
                c.text
            ));
        };
        let inner = spec::Clause {
            kind: kind.trim(),
            args: c.args,
            text: c.text,
        };
        match plane.trim() {
            "job" => match inner.kind {
                "panic" | "hang" | "transient" => self.job.apply_clause(&inner, "chaos"),
                "abort" | "exit" | "stall" => Err(format!(
                    "'{0}' is a proc: fault, not job: — write proc:{0}=...",
                    inner.kind
                )),
                _ => Err(inner.unknown_kind("chaos job")),
            },
            "proc" => match inner.kind {
                "abort" | "exit" | "stall" => self.job.apply_clause(&inner, "chaos"),
                "panic" | "hang" | "transient" => Err(format!(
                    "'{0}' is a job: fault, not proc: — write job:{0}=...",
                    inner.kind
                )),
                _ => Err(inner.unknown_kind("chaos proc")),
            },
            "net" => self.net.apply_clause(&inner, "chaos"),
            "coord" => match inner.kind {
                "kill-after-journal" => {
                    self.kill_after_journal =
                        Some(inner.num(inner.args.trim(), "journal append count", "chaos")?);
                    Ok(())
                }
                _ => Err(inner.unknown_kind("chaos coord")),
            },
            other => Err(format!(
                "unknown chaos plane '{other}:' in clause '{}'",
                c.text
            )),
        }
    }

    /// Renders this plan back into [`ChaosPlan::parse_spec`] grammar.
    /// Round-trips exactly: `parse_spec(&p.to_spec()) == p`.
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<(&str, String)> = Vec::new();
        for (key, (kind, args)) in JOB_KEYS.iter().zip(self.job.spec_parts()) {
            debug_assert!(key.ends_with(kind));
            parts.push((key, args));
        }
        for (key, (kind, args)) in NET_KEYS.iter().zip(self.net.spec_parts()) {
            debug_assert!(key.ends_with(kind));
            parts.push((key, args));
        }
        parts.push((
            "coord:kill-after-journal",
            self.kill_after_journal
                .map(|n| n.to_string())
                .unwrap_or_default(),
        ));
        spec::join_clauses(&parts)
    }
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

/// Which pipeline shape a schedule runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// A plain in-process `hunt` (the job plane).
    Plain,
    /// `hunt serve` + `hunt join` over TCP (job, process, net, and coord
    /// planes).
    Fleet,
}

impl ChaosMode {
    /// Human-readable mode tag for repro lines and logs.
    pub fn label(self) -> &'static str {
        match self {
            ChaosMode::Plain => "plain",
            ChaosMode::Fleet => "fleet",
        }
    }
}

/// Expected fire count for one site of one schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expectation {
    /// Injection-site id (an entry of [`SITES`]).
    pub site: &'static str,
    /// The fault must fire exactly this many times: every site's fire
    /// count is a deterministic function of the plan and the retry/crash
    /// budgets.
    pub count: u64,
}

/// One generated fault schedule: the plan to inject, the mode to run it
/// under, and the invariant bounds the meta-campaign checks afterwards.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Position in the generator's stream (the `<index>` of
    /// `hunt chaos --replay <seed>/<index>`).
    pub index: u64,
    /// Pipeline shape this schedule exercises.
    pub mode: ChaosMode,
    /// The faults to inject.
    pub plan: ChaosPlan,
    /// Per-site expected fire counts.
    pub expected: Vec<Expectation>,
    /// Jobs the injected faults must quarantine — exactly these, no others.
    pub quarantine_jobs: Vec<usize>,
}

impl Schedule {
    /// The expectation for `site`, if this schedule injects it.
    pub fn expectation(&self, site: &str) -> Option<&Expectation> {
        self.expected.iter().find(|e| e.site == site)
    }
}

/// Sites eligible per mode. A plain hunt exercises the in-process job
/// faults; a fleet run adds the faults only worker processes have —
/// process deaths and stalls, network faults — and the coordinator kill
/// switch (job faults still work: workers retry in-process).
const PLAIN_SITES: &[&str] = &["job.panic", "job.hang", "job.transient"];
const FLEET_SITES: &[&str] = &[
    "job.panic",
    "job.hang",
    "job.transient",
    "proc.abort",
    "proc.exit",
    "proc.stall",
    "net.drop",
    "net.delay",
    "net.garble",
    "net.halfclose",
    "coord.kill-after-journal",
];

/// Deterministic fault-schedule enumerator.
///
/// Schedule `i` of seed `s` is a pure function of `(s, i, jobs)` — the
/// generator's only state is the set of already-*scheduled* sites, which
/// biases site selection toward never-yet-fired hooks, and that set is
/// itself reproducible by regenerating schedules `0..=i` in order (what
/// [`ScheduleGen::nth`] does for `--replay`).
pub struct ScheduleGen {
    seed: u64,
    jobs: usize,
    next_index: u64,
    scheduled: BTreeSet<&'static str>,
}

impl ScheduleGen {
    /// A generator for `seed` over a campaign with `jobs` budgeted jobs.
    /// `jobs` must be at least 2 (schedules may target two distinct jobs).
    pub fn new(seed: u64, jobs: usize) -> ScheduleGen {
        assert!(
            jobs >= 2,
            "chaos schedules need at least 2 jobs, got {jobs}"
        );
        ScheduleGen {
            seed,
            jobs,
            next_index: 0,
            scheduled: BTreeSet::new(),
        }
    }

    /// Regenerates schedule `index` of `seed` from scratch (deterministic
    /// replay: the coverage-bias state is rebuilt by walking `0..=index`).
    pub fn nth(seed: u64, jobs: usize, index: u64) -> Schedule {
        let mut gen = ScheduleGen::new(seed, jobs);
        let mut schedule = gen.next_schedule();
        for _ in 0..index {
            schedule = gen.next_schedule();
        }
        schedule
    }

    /// Generates the next schedule in the stream.
    pub fn next_schedule(&mut self) -> Schedule {
        let index = self.next_index;
        self.next_index += 1;
        let (mode, eligible) = match index % 2 {
            0 => (ChaosMode::Plain, PLAIN_SITES),
            _ => (ChaosMode::Fleet, FLEET_SITES),
        };
        // One deterministic stream per (seed, index): the same schedule
        // regenerates bit-identically regardless of how we got here.
        let mut state = SplitMix64::new(
            self.seed
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ 0x5EED_C4A0_5C4A_05ED,
        );

        let first = self.pick_site(eligible, &[], &mut state);
        let mut sites = vec![first];
        if state.next_u64() % 2 == 1 {
            let compatible: Vec<&'static str> = eligible
                .iter()
                .copied()
                .filter(|s| Self::compatible(first, s))
                .collect();
            if !compatible.is_empty() {
                sites.push(self.pick_site(&compatible, &sites, &mut state));
            }
        }
        for s in &sites {
            self.scheduled.insert(s);
        }

        let mut plan = ChaosPlan::default();
        let mut expected = Vec::new();
        let mut quarantine_jobs = Vec::new();
        let mut used_jobs: BTreeSet<usize> = BTreeSet::new();
        for site in sites {
            self.apply_site(
                site,
                &mut state,
                &mut plan,
                &mut expected,
                &mut quarantine_jobs,
                &mut used_jobs,
            );
        }
        quarantine_jobs.sort_unstable();
        Schedule {
            index,
            mode,
            plan,
            expected,
            quarantine_jobs,
        }
    }

    /// Picks one site from `pool`, excluding `taken`, preferring sites this
    /// generator has never scheduled (the coverage bias).
    fn pick_site(
        &self,
        pool: &[&'static str],
        taken: &[&'static str],
        state: &mut SplitMix64,
    ) -> &'static str {
        let open: Vec<&'static str> = pool
            .iter()
            .copied()
            .filter(|s| !taken.contains(s))
            .collect();
        let unseen: Vec<&'static str> = open
            .iter()
            .copied()
            .filter(|s| !self.scheduled.contains(s))
            .collect();
        let candidates = if unseen.is_empty() { &open } else { &unseen };
        candidates[(state.next_u64() % candidates.len() as u64) as usize]
    }

    /// Can `a` and `b` share one schedule? Same-category pairs (other than
    /// two job faults on distinct jobs) would interfere with each other's
    /// expected counts: two process faults can trip the campaign's
    /// instant-death circuit breaker, two net faults race for the same
    /// connection. The coordinator
    /// kill switch pairs only with a pure link delay — anything else
    /// entangles the kill point with reconnect ordering — and a process
    /// fault only with job faults, whose workers it does not kill.
    fn compatible(a: &str, b: &str) -> bool {
        if a == b {
            return false;
        }
        let cat = |s: &str| s.split('.').next().unwrap_or(s).to_owned();
        if a.starts_with("coord.") || b.starts_with("coord.") {
            return a == "net.delay" || b == "net.delay";
        }
        if a.starts_with("proc.") || b.starts_with("proc.") {
            return a.starts_with("job.") || b.starts_with("job.");
        }
        cat(a) != cat(b) || (a.starts_with("job.") && b.starts_with("job."))
    }

    /// Picks a target job distinct from every already-used one.
    fn pick_job(&self, used: &mut BTreeSet<usize>, state: &mut SplitMix64) -> usize {
        loop {
            let j = (state.next_u64() % self.jobs as u64) as usize;
            if used.insert(j) {
                return j;
            }
        }
    }

    /// Writes `site` into the plan with deterministic parameters and
    /// records its expected fire count.
    ///
    /// The exact counts encode the retry and crash budgets the
    /// meta-campaign runs with (`--retries 3`, coordinator crash budget 2):
    /// a scripted panic fires on all 3 attempts before quarantine, a hang
    /// is not retryable so fires once, a transient fires `n < 3` times
    /// then completes, and every process fault kills the worker twice
    /// before the crash budget quarantines the job.
    fn apply_site(
        &self,
        site: &'static str,
        state: &mut SplitMix64,
        plan: &mut ChaosPlan,
        expected: &mut Vec<Expectation>,
        quarantine_jobs: &mut Vec<usize>,
        used_jobs: &mut BTreeSet<usize>,
    ) {
        let exact = |expected: &mut Vec<Expectation>, site, count| {
            expected.push(Expectation { site, count })
        };
        match site {
            "job.panic" => {
                let j = self.pick_job(used_jobs, state);
                plan.job.panic_jobs.insert(j);
                quarantine_jobs.push(j);
                exact(expected, site, 3);
            }
            "job.hang" => {
                let j = self.pick_job(used_jobs, state);
                plan.job.hang_jobs.insert(j);
                quarantine_jobs.push(j);
                exact(expected, site, 1);
            }
            "job.transient" => {
                let j = self.pick_job(used_jobs, state);
                let n = 1 + (state.next_u64() % 2) as u32;
                plan.job.transient_failures.insert(j, n);
                exact(expected, site, u64::from(n));
            }
            "proc.abort" => {
                let j = self.pick_job(used_jobs, state);
                plan.job.abort_jobs.insert(j);
                quarantine_jobs.push(j);
                exact(expected, site, 2);
            }
            "proc.exit" => {
                let j = self.pick_job(used_jobs, state);
                let code = 5 + (state.next_u64() % 7) as i32;
                plan.job.exit_jobs.insert(j, code);
                quarantine_jobs.push(j);
                exact(expected, site, 2);
            }
            "proc.stall" => {
                let j = self.pick_job(used_jobs, state);
                plan.job.stall_jobs.insert(j);
                quarantine_jobs.push(j);
                exact(expected, site, 2);
            }
            "net.drop" => {
                plan.net.drop_after.insert(0, 2 + state.next_u64() % 5);
                exact(expected, site, 1);
            }
            "net.delay" => {
                plan.net.delay_ms.insert(0, 10 + state.next_u64() % 31);
                // One ledger line per delayed connection, however many
                // frames the delay slows down.
                exact(expected, site, 1);
            }
            "net.garble" => {
                plan.net.garble_frame.insert(0, 2 + state.next_u64() % 2);
                exact(expected, site, 1);
            }
            "net.halfclose" => {
                plan.net
                    .half_close_after
                    .insert(0, 2 + state.next_u64() % 3);
                exact(expected, site, 1);
            }
            "coord.kill-after-journal" => {
                plan.kill_after_journal = Some(2 + state.next_u64() % 4);
                exact(expected, site, 1);
            }
            other => unreachable!("unknown chaos site {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn chaos_spec_parses_every_plane() {
        let plan = ChaosPlan::parse_spec(
            "job:panic=3;proc:exit=1:9;net:drop=0:6;coord:kill-after-journal=4",
        )
        .unwrap();
        assert!(plan.job.should_panic(3));
        assert_eq!(plan.job.exit_code(1), Some(9));
        assert!(plan.net.drop_now(0, 7));
        assert_eq!(plan.kill_after_journal, Some(4));
        assert!(ChaosPlan::parse_spec("").unwrap().is_empty());
        assert!(ChaosPlan::parse_spec(" ; ;").unwrap().is_empty());
    }

    #[test]
    fn chaos_spec_rejects_misrouted_and_unknown_clauses() {
        // Missing plane prefix.
        let err = ChaosPlan::parse_spec("panic=1").unwrap_err();
        assert!(err.contains("needs a plane prefix"), "{err}");
        // A proc fault spelled as a job fault, and vice versa, each point
        // at the correct spelling.
        let err = ChaosPlan::parse_spec("job:abort=1").unwrap_err();
        assert!(err.contains("proc:abort"), "{err}");
        let err = ChaosPlan::parse_spec("proc:panic=1").unwrap_err();
        assert!(err.contains("job:panic"), "{err}");
        // Unknown plane and unknown kinds within known planes.
        assert!(ChaosPlan::parse_spec("cpu:melt=1")
            .unwrap_err()
            .contains("unknown chaos plane"));
        assert!(ChaosPlan::parse_spec("job:frob=1").is_err());
        assert!(ChaosPlan::parse_spec("net:frob=1:2").is_err());
        assert!(ChaosPlan::parse_spec("disk:torn=20")
            .unwrap_err()
            .contains("unknown chaos plane"));
        assert!(ChaosPlan::parse_spec("coord:frob=1").is_err());
        // Malformed args surface the per-plane grammar errors.
        assert!(
            ChaosPlan::parse_spec("net:drop=1").is_err(),
            "missing value"
        );
        assert!(ChaosPlan::parse_spec("coord:kill-after-journal=x").is_err());
    }

    /// Builds a pseudo-random plan touching a random subset of every
    /// plane's fields, for the seeded round-trip sweep below.
    fn random_plan(state: &mut SplitMix64) -> ChaosPlan {
        let mut plan = ChaosPlan::default();
        let r = |s: &mut SplitMix64, m: u64| s.next_u64() % m;
        for _ in 0..r(state, 3) {
            plan.job.panic_jobs.insert(r(state, 50) as usize);
        }
        for _ in 0..r(state, 3) {
            plan.job.hang_jobs.insert(r(state, 50) as usize);
        }
        for _ in 0..r(state, 3) {
            let j = r(state, 50) as usize;
            plan.job
                .transient_failures
                .insert(j, 1 + r(state, 4) as u32);
        }
        for _ in 0..r(state, 3) {
            plan.job.abort_jobs.insert(r(state, 50) as usize);
        }
        for _ in 0..r(state, 3) {
            let j = r(state, 50) as usize;
            plan.job.exit_jobs.insert(j, r(state, 120) as i32);
        }
        for _ in 0..r(state, 3) {
            plan.job.stall_jobs.insert(r(state, 50) as usize);
        }
        for _ in 0..r(state, 3) {
            let c = r(state, 4);
            plan.net.drop_after.insert(c, 1 + r(state, 9));
        }
        for _ in 0..r(state, 3) {
            let c = r(state, 4);
            plan.net.delay_ms.insert(c, 1 + r(state, 100));
        }
        for _ in 0..r(state, 3) {
            let c = r(state, 4);
            plan.net.garble_frame.insert(c, 1 + r(state, 9));
        }
        for _ in 0..r(state, 3) {
            let c = r(state, 4);
            plan.net.half_close_after.insert(c, 1 + r(state, 9));
        }
        if r(state, 3) == 0 {
            plan.kill_after_journal = Some(1 + r(state, 10));
        }
        plan
    }

    #[test]
    fn chaos_spec_round_trips_across_all_planes() {
        let mut state = SplitMix64::new(0xC4A0_5EED);
        for case in 0..256 {
            let plan = random_plan(&mut state);
            let spec = plan.to_spec();
            let back = ChaosPlan::parse_spec(&spec)
                .unwrap_or_else(|e| panic!("case {case}: '{spec}' failed to re-parse: {e}"));
            assert_eq!(back, plan, "case {case}: '{spec}' did not round-trip");
        }
        assert_eq!(ChaosPlan::default().to_spec(), "");
    }

    #[test]
    fn ledger_lines_round_trip_site_ids() {
        assert_eq!(
            ledger_site("[chaos] fired job.panic job 3 attempt 1"),
            Some("job.panic")
        );
        assert_eq!(ledger_site("  [chaos] fired net.drop"), Some("net.drop"));
        assert_eq!(ledger_site("[fleet] listening on x"), None);
        assert_eq!(ledger_site("[chaos] fired "), None);
    }

    #[test]
    fn schedules_regenerate_bit_identically_by_index() {
        let mut gen = ScheduleGen::new(7, 12);
        for i in 0..24u64 {
            let streamed = gen.next_schedule();
            let replayed = ScheduleGen::nth(7, 12, i);
            assert_eq!(streamed.index, i);
            assert_eq!(replayed.index, i);
            assert_eq!(replayed.mode, streamed.mode);
            assert_eq!(
                replayed.plan, streamed.plan,
                "schedule {i} diverged on replay"
            );
            assert_eq!(replayed.expected, streamed.expected);
            assert_eq!(replayed.quarantine_jobs, streamed.quarantine_jobs);
        }
    }

    #[test]
    fn schedules_stay_within_their_modes_rules() {
        let jobs = 9;
        let mut gen = ScheduleGen::new(2021, jobs);
        for _ in 0..60 {
            let s = gen.next_schedule();
            let eligible: &[&str] = match s.mode {
                ChaosMode::Plain => PLAIN_SITES,
                ChaosMode::Fleet => FLEET_SITES,
            };
            assert!(
                !s.expected.is_empty() && s.expected.len() <= 2,
                "1-2 sites per schedule"
            );
            for e in &s.expected {
                assert!(
                    eligible.contains(&e.site),
                    "{} invalid for {}",
                    e.site,
                    s.mode.label()
                );
                assert!(SITES.contains(&e.site));
                assert!(e.count >= 1, "every scheduled site must fire");
            }
            let count = |pred: fn(&&Expectation) -> bool| s.expected.iter().filter(pred).count();
            assert!(
                count(|e| e.site.starts_with("proc.")) <= 1,
                "at most one proc site"
            );
            assert!(
                count(|e| e.site.starts_with("net.")) <= 1,
                "at most one net site"
            );
            if s.plan.kill_after_journal.is_some() && s.expected.len() == 2 {
                assert!(
                    s.expectation("net.delay").is_some(),
                    "coord kill pairs only with net.delay"
                );
            }
            // Quarantine targets are distinct, in-range jobs.
            let uniq: BTreeSet<usize> = s.quarantine_jobs.iter().copied().collect();
            assert_eq!(uniq.len(), s.quarantine_jobs.len());
            assert!(s.quarantine_jobs.iter().all(|j| *j < jobs));
            // The plan is parseable CLI-grade spec text.
            assert_eq!(ChaosPlan::parse_spec(&s.plan.to_spec()).unwrap(), s.plan);
            // Transient counts stay below the retry budget (3 attempts).
            for n in s.plan.job.transient_failures.values() {
                assert!(*n < 3, "transient must complete within the retry budget");
            }
        }
    }

    #[test]
    fn coverage_bias_reaches_every_site() {
        // 60 schedules (30 per mode) must schedule every eligible site of
        // every mode at least once: the bias prefers unseen sites, so the
        // whole injection matrix is exercised long before chance would.
        let mut gen = ScheduleGen::new(3, 8);
        let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
        for _ in 0..60 {
            for e in gen.next_schedule().expected {
                *seen.entry(e.site).or_insert(0) += 1;
            }
        }
        for site in SITES {
            assert!(
                seen.contains_key(site),
                "site {site} never scheduled in 60 schedules; got {seen:?}"
            );
        }
    }

    #[test]
    fn attribution_counts_fires_per_verdict() {
        use crate::campaign::{PmcTestOutcome, QuarantineRecord};
        let plan = ChaosPlan::parse_spec("job:panic=1;job:hang=2;job:transient=3:2")
            .unwrap()
            .job;
        let (tracer, sink) = sb_obs::Tracer::memory();
        let outcome = |attempts| PmcTestOutcome {
            pmc: None,
            pair: (0, 0),
            trials_run: 1,
            exercised: false,
            findings: vec![],
            steps: 1,
            first_finding_trial: None,
            repro_schedule: None,
            attempts,
        };
        // Transient job completed on attempt 3 → two injected failures.
        attribute_verdict(&tracer, &plan, 3, &JobVerdict::Completed(outcome(3)));
        // A clean job (not scripted) contributes nothing.
        attribute_verdict(&tracer, &plan, 7, &JobVerdict::Completed(outcome(1)));
        // Scripted panic quarantined after 3 attempts → three fires.
        let quarantine = |job, attempts, kind| {
            JobVerdict::Quarantined(QuarantineRecord {
                job,
                pmc: None,
                attempts,
                kind,
                chain: vec![],
            })
        };
        attribute_verdict(&tracer, &plan, 1, &quarantine(1, 3, FailureKind::Panic));
        attribute_verdict(&tracer, &plan, 2, &quarantine(2, 1, FailureKind::Hang));
        // A crash quarantine on a scripted job is a process death, counted
        // by the fault ledger of the worker that died, never here.
        attribute_verdict(&tracer, &plan, 1, &quarantine(1, 2, FailureKind::Crash));
        tracer.flush();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for line in sink.lines() {
            if let Ok(sb_obs::Event::Count { key, n, .. }) = sb_obs::Event::parse_line(&line) {
                *counters.entry(key).or_insert(0) += n;
            }
        }
        assert_eq!(counters.get("chaos.fired.job.transient"), Some(&2));
        assert_eq!(counters.get("chaos.fired.job.panic"), Some(&3));
        assert_eq!(counters.get("chaos.fired.job.hang"), Some(&1));
        assert_eq!(counters.values().sum::<u64>(), 6, "{counters:?}");
    }
}
