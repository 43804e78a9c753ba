//! Evaluation metrics: §5.3.2's accuracy/precision and §5.4's
//! interleavings-to-expose comparison between Snowboard and SKI.

use sb_kernel::{BootedKernel, Program};
use sb_vmm::exec::ExecReport;
use sb_vmm::sched::{RandomSched, Scheduler, SkiSched, SnowboardSched};
use sb_vmm::Executor;

use sb_detect::{Finding, OracleCtx, OracleSet};

use crate::pmc::{Pmc, PmcSet};

/// Which scheduler drives the interleaving search.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SchedKind {
    /// Algorithm 2 with precise PMC hints and learned flags.
    Snowboard,
    /// SKI: yields at PMC *instructions* regardless of memory target.
    Ski,
    /// Unguided random preemption.
    Random,
}

impl std::fmt::Display for SchedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedKind::Snowboard => write!(f, "Snowboard"),
            SchedKind::Ski => write!(f, "SKI"),
            SchedKind::Random => write!(f, "Random"),
        }
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 when the proc filesystem is unavailable
/// (non-Linux hosts). The repo benchmark's memory-footprint proxy.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Fleet-fabric counters for one coordinated campaign run (`hunt serve`).
///
/// Produced by [`crate::fleet::run_coordinator`], and surfaced through
/// `CampaignReport::fleet` and the CLI's `[fleet]` summary lines (stderr, so the run's stdout stays byte-identical to a
/// single-process run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers admitted after a successful handshake (re-joins count).
    pub workers_joined: u64,
    /// Handshakes refused (protocol/config mismatch).
    pub workers_rejected: u64,
    /// Non-empty job leases granted.
    pub leases_granted: u64,
    /// Connections forcibly closed by the coordinator (heartbeat timeout,
    /// unclean disconnect, or protocol violation).
    pub evictions: u64,
    /// Of the evictions, how many were for heartbeat silence.
    pub heartbeat_misses: u64,
    /// Jobs returned to the pending pool after a lease expired or its
    /// holder was evicted.
    pub jobs_reassigned: u64,
    /// Results for already-covered jobs, dropped by the first-`done`-wins
    /// merge rule (late delivery after reassignment).
    pub duplicate_results: u64,
    /// Jobs abandoned by the fleet-wide crash-loop circuit breaker.
    pub gave_up_jobs: u64,
    /// Result frames flagged as re-sends by reconnecting workers
    /// (counted whether the verdict merged or was a duplicate).
    pub redelivered: u64,
    /// Verdict records the checkpoint log took this run (the header is not
    /// counted).
    pub journal_records: u64,
    /// Verdict records replayed from the checkpoint log at `--resume`.
    pub journal_replayed: u64,
    /// Checkpoint log damage incidents: a torn/corrupt tail cut off at
    /// resume, or an append failure that ended the log.
    pub journal_damaged: u64,
    /// True when the run ended early because the stop file appeared.
    pub stopped: bool,
}

/// Result of an interleavings-to-expose measurement.
#[derive(Clone, Debug)]
pub struct ExposeResult {
    /// Interleavings (trials) executed until the predicate first held.
    pub interleavings: u32,
    /// Total engine steps consumed.
    pub steps: u64,
}

/// Runs trials under `kind` until `hit` returns true for some trial's
/// findings, or `max_trials` is exhausted. The trials are one job: one
/// [`OracleCtx`] under the default oracles judges them all.
///
/// This is the §5.4 experiment: for the bug-triggering concurrent tests,
/// SKI "requires 84 times more interleavings than Snowboard on average";
/// the gap comes solely from scheduling, which is exactly what varies here.
#[allow(clippy::too_many_arguments)]
pub fn interleavings_to_expose(
    exec: &mut Executor,
    booted: &BootedKernel,
    writer: &Program,
    reader: &Program,
    pmc: &Pmc,
    kind: SchedKind,
    seed: u64,
    max_trials: u32,
    hit: impl Fn(&[Finding]) -> bool,
) -> Option<ExposeResult> {
    let mut steps = 0u64;
    let mut oracle_ctx = OracleCtx::new(OracleSet::default());
    let trials = run_trials(
        exec,
        booted,
        writer,
        reader,
        pmc,
        kind,
        seed,
        max_trials,
        |r| {
            steps += r.steps;
            hit(&oracle_ctx.analyze(r))
        },
    );
    (trials < max_trials).then(|| ExposeResult {
        interleavings: trials + 1,
        steps,
    })
}

/// Convenience predicate: any finding triaging to `bug_id`.
pub fn hits_bug(bug_id: u8) -> impl Fn(&[Finding]) -> bool {
    move |fs: &[Finding]| fs.iter().any(|f| crate::triage::triage(f) == Some(bug_id))
}

/// Aggregate statistics from a throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputStats {
    /// Executions performed.
    pub executions: u32,
    /// Total engine steps.
    pub steps: u64,
    /// Total vCPU switches — the quantity §5.4 attributes SKI's slowdown
    /// to ("SKI's execution of more vCPU switches than Snowboard").
    pub switches: u64,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Measures raw execution throughput for `n` concurrent executions of a
/// test pair under a given scheduler kind. Used by the §5.4 throughput
/// comparison.
#[allow(clippy::too_many_arguments)]
pub fn measure_throughput(
    exec: &mut Executor,
    booted: &BootedKernel,
    writer: &Program,
    reader: &Program,
    set_hints: &Pmc,
    kind: SchedKind,
    seed: u64,
    n: u32,
) -> ThroughputStats {
    let start = std::time::Instant::now();
    let (mut steps, mut switches) = (0u64, 0u64);
    run_trials(
        exec,
        booted,
        writer,
        reader,
        set_hints,
        kind,
        seed,
        n,
        |r| {
            steps += r.steps;
            switches += r.switches;
            false
        },
    );
    ThroughputStats {
        executions: n,
        steps,
        switches,
        elapsed: start.elapsed(),
    }
}

/// The §5.4 trial loop: up to `max_trials` runs of the writer/reader pair
/// from the boot snapshot, trial `t` under `kind` seeded `seed + t`. Each
/// report goes to `stop`; the loop ends at the first `true`. Returns the
/// index of that trial, or `max_trials` when none stopped it.
#[allow(clippy::too_many_arguments)]
fn run_trials(
    exec: &mut Executor,
    booted: &BootedKernel,
    writer: &Program,
    reader: &Program,
    pmc: &Pmc,
    kind: SchedKind,
    seed: u64,
    max_trials: u32,
    mut stop: impl FnMut(&ExecReport) -> bool,
) -> u32 {
    let hints = pmc.hints();
    let mut snowboard = SnowboardSched::new(seed, hints);
    let mut ski = SkiSched::new(seed, hints.iter().map(|h| h.site));
    for trial in 0..max_trials {
        let trial_seed = seed.wrapping_add(u64::from(trial));
        let mut random;
        let sched: &mut dyn Scheduler = match kind {
            SchedKind::Snowboard => {
                snowboard.begin_trial(trial_seed);
                &mut snowboard
            }
            SchedKind::Ski => {
                ski.begin_trial(trial_seed);
                &mut ski
            }
            SchedKind::Random => {
                random = RandomSched::new(trial_seed, 0.005);
                &mut random
            }
        };
        let jobs = vec![
            booted.kernel.process_job(writer.clone()),
            booted.kernel.process_job(reader.clone()),
        ];
        if stop(&exec.run(booted.snapshot.clone(), jobs, sched).report) {
            return trial;
        }
    }
    max_trials
}

/// Picks the PMC whose hint *instructions* dynamically touch the most
/// distinct addresses across the profiles — the worst case for SKI, which
/// yields at those instructions "regardless of memory targets" (§5.4),
/// and the representative case for the throughput comparison.
pub fn hottest_pmc<'a>(
    set: &'a PmcSet,
    profiles: &[crate::profile::SeqProfile],
) -> Option<(crate::pmc::PmcId, &'a Pmc)> {
    use std::collections::{HashMap, HashSet};
    let mut addrs_of_site: HashMap<sb_vmm::Site, HashSet<u64>> = HashMap::new();
    for p in profiles {
        for a in &p.accesses {
            addrs_of_site.entry(a.site).or_default().insert(a.addr);
        }
    }
    let score = |p: &Pmc| {
        let w = addrs_of_site
            .get(&p.key.w.ins)
            .map(HashSet::len)
            .unwrap_or(0);
        let r = addrs_of_site
            .get(&p.key.r.ins)
            .map(HashSet::len)
            .unwrap_or(0);
        w + r
    };
    set.pmcs
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| score(p))
        .map(|(id, p)| (id as crate::pmc::PmcId, p))
}

/// Finds the PMC in `set` that best matches a (write-site, read-site)
/// function-name pair — a convenience for wiring known bugs to their PMC in
/// examples and benches.
pub fn find_pmc_by_sites<'a>(
    set: &'a PmcSet,
    write_fn: &str,
    read_fn: &str,
) -> Option<(crate::pmc::PmcId, &'a Pmc)> {
    set.pmcs.iter().enumerate().find_map(|(id, p)| {
        let w = p.key.w.ins.display_name();
        let r = p.key.r.ins.display_name();
        if w.starts_with(write_fn) && r.starts_with(read_fn) {
            Some((id as crate::pmc::PmcId, p))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
