//! Trace-file aggregation: per-stage wall clock and funnel attrition.
//!
//! [`TraceReport::from_lines`] schema-validates every line of a trace and
//! folds it into counters, histogram summaries, per-span wall-clock totals,
//! per-job totals, and the final summary event. [`TraceReport::verify`]
//! cross-checks the reconstruction against that summary — the funnel
//! counters and the job totals must agree *exactly* with what the run's
//! `CampaignReport` claimed, which is what the CI trace-validation job
//! enforces. [`TraceReport::render`] produces the human-readable output of
//! `snowboard-cli trace report`.

use std::collections::BTreeMap;

use crate::event::Event;
use crate::trace::keys;

/// Summary of one histogram key's observations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistSummary {
    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// Wall-clock totals for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans opened under this name.
    pub count: u64,
    /// Spans closed (a live trace may have opens without closes).
    pub closed: u64,
    /// Total duration across closed spans, microseconds.
    pub total_us: u64,
}

/// One job event's totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSummary {
    /// Campaign job index.
    pub job: u64,
    /// Trials executed.
    pub trials: u64,
    /// Engine steps consumed.
    pub steps: u64,
    /// Distinct findings.
    pub findings: u64,
    /// Attempts consumed.
    pub attempts: u64,
    /// Quarantined instead of completed.
    pub quarantined: bool,
}

/// The funnel the trace reconstructs: counts surviving each pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Sequential profiles (stage 1 output).
    pub profiles: u64,
    /// Shared accesses surviving the stack filter.
    pub shared_accesses: u64,
    /// PMCs identified (stage 2 output).
    pub pmcs: u64,
    /// Clusters induced by the strategy (stage 3).
    pub clusters: u64,
    /// Concurrent tests that completed (stage 4).
    pub jobs: u64,
    /// Trials executed.
    pub trials: u64,
}

/// Everything reconstructed from one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Total events parsed.
    pub events: usize,
    /// Final counter values, by key.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, by key.
    pub hists: BTreeMap<String, HistSummary>,
    /// Per-span-name wall-clock totals.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Per-job totals, in emission order.
    pub jobs: Vec<JobSummary>,
    /// Supervised-worker lifecycle action counts (`spawn`, `restart`,
    /// `exit`, `crash`, `heartbeat-miss`), by action. Empty for
    /// single-process runs.
    pub worker_actions: BTreeMap<String, u64>,
    /// Fleet-worker lifecycle/lease action counts (`join`, `reject`,
    /// `lease`, `evict`, `reassign`, `duplicate`, `drain`, `give-up`), by
    /// action. Empty for non-fleet runs.
    pub fleet_actions: BTreeMap<String, u64>,
    /// The final summary event, if the run emitted one.
    pub summary: Option<Event>,
}

impl TraceReport {
    /// Parses and aggregates trace lines. Empty lines are skipped; any
    /// malformed or schema-violating line fails the whole report with its
    /// 1-based line number.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut r = TraceReport::default();
        for (i, line) in lines.into_iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev = Event::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            r.events += 1;
            match ev {
                Event::SpanStart { ref name, .. } => {
                    r.spans.entry(name.clone()).or_default().count += 1;
                }
                Event::SpanEnd { ref name, dur, .. } => {
                    let s = r.spans.entry(name.clone()).or_default();
                    s.closed += 1;
                    s.total_us += dur;
                }
                Event::Count { ref key, n, .. } => {
                    *r.counters.entry(key.clone()).or_insert(0) += n;
                }
                Event::Hist { ref key, v, .. } => {
                    r.hists.entry(key.clone()).or_default().observe(v);
                }
                Event::Job {
                    job,
                    trials,
                    steps,
                    findings,
                    attempts,
                    quarantined,
                    ..
                } => {
                    r.jobs.push(JobSummary {
                        job,
                        trials,
                        steps,
                        findings,
                        attempts,
                        quarantined,
                    });
                }
                Event::Worker { ref action, .. } => {
                    *r.worker_actions.entry(action.clone()).or_insert(0) += 1;
                }
                Event::Fleet { ref action, .. } => {
                    *r.fleet_actions.entry(action.clone()).or_insert(0) += 1;
                }
                Event::Summary { .. } => {
                    if r.summary.is_some() {
                        return Err(format!("line {}: duplicate summary event", i + 1));
                    }
                    r.summary = Some(ev);
                }
            }
        }
        Ok(r)
    }

    /// Reads and aggregates a trace file.
    pub fn from_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_lines(text.lines())
    }

    /// Total for one counter key (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The funnel reconstructed from fine-grained events (counters and job
    /// events), independent of the summary event.
    pub fn funnel(&self) -> Funnel {
        Funnel {
            profiles: self.counter(keys::PIPELINE_PROFILES),
            shared_accesses: self.counter(keys::PIPELINE_SHARED_ACCESSES),
            pmcs: self.counter(keys::PIPELINE_PMCS),
            clusters: self.counter(keys::CLUSTERS),
            jobs: self.jobs.iter().filter(|j| !j.quarantined).count() as u64,
            trials: self.jobs.iter().map(|j| j.trials).sum(),
        }
    }

    /// Cross-checks the reconstruction against the summary event, and
    /// records that two separate computations must agree on: snapshot
    /// clones against trials, per-oracle findings against job findings,
    /// worker ends against worker starts. Returns the list of mismatches
    /// (empty = consistent). Missing summary is itself a mismatch: a
    /// complete trace always ends with one.
    pub fn verify(&self) -> Vec<String> {
        let Some(Event::Summary {
            profiles,
            shared_accesses,
            pmcs,
            clusters,
            jobs,
            trials,
            steps,
            quarantined,
            ..
        }) = self.summary
        else {
            return vec!["no summary event found (incomplete trace?)".to_owned()];
        };
        let f = self.funnel();
        let job_steps: u64 = self.jobs.iter().map(|j| j.steps).sum();
        let job_quarantined = self.jobs.iter().filter(|j| j.quarantined).count() as u64;
        let mut mismatches = Vec::new();
        let mut check = |what: &str, reconstructed: u64, summary: u64| {
            if reconstructed != summary {
                mismatches.push(format!(
                    "{what}: events say {reconstructed}, summary says {summary}"
                ));
            }
        };
        check("profiles", f.profiles, profiles);
        check("shared_accesses", f.shared_accesses, shared_accesses);
        check("pmcs", f.pmcs, pmcs);
        check("clusters", f.clusters, clusters);
        check("jobs", f.jobs, jobs);
        check("trials", f.trials, trials);
        check("steps", job_steps, steps);
        check("quarantined", job_quarantined, quarantined);
        self.verify_detect(&mut mismatches);
        self.verify_snapshots(&mut mismatches);
        self.verify_supervision(&mut mismatches);
        mismatches
    }

    /// Cross-checks the `snapshot.*` counters against the job events.
    ///
    /// Every trial clones the boot snapshot exactly once, so
    /// `snapshot.clones` can never be below the trial total — and is above
    /// it only when an attempt that was retried or quarantined ran trials no
    /// job event reports; and every completed trial dirties at least one
    /// page (threads write their stacks), so a run with trials must copy
    /// pages. Traces
    /// without snapshot counters pass vacuously — supervised and fleet
    /// campaigns aggregate job verdicts in the parent process, where the
    /// workers' per-job snapshot accounting is not visible.
    fn verify_snapshots(&self, mismatches: &mut Vec<String>) {
        let clones = self.counter(keys::SNAPSHOT_CLONES);
        if clones == 0 {
            return;
        }
        let trials: u64 = self.jobs.iter().map(|j| j.trials).sum();
        if clones < trials {
            mismatches.push(format!(
                "snapshot clones: counter says {clones}, but job events ran {trials} trials \
                 (each trial clones the snapshot once)"
            ));
        }
        if trials > 0 && self.counter(keys::SNAPSHOT_PAGES_COPIED) == 0 {
            mismatches.push(format!(
                "snapshot pages: {trials} trials ran but snapshot.pages_copied is 0 \
                 (every trial dirties at least its stack pages)"
            ));
        }
    }

    /// Per-oracle reported-finding counters (`detect.reported.<kind>`), by
    /// kind tag. Empty for traces predating the oracle subsystem.
    pub fn reported_findings(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(keys::REPORTED_PREFIX).map(|kind| (kind, *v)))
            .collect()
    }

    /// Cross-checks the per-oracle `detect.reported.*` counters against the
    /// job events' finding totals: both count post-dedup findings on
    /// completed jobs, so their sums must agree exactly. Traces without any
    /// reported counter (runs predating the oracle subsystem, or runs with
    /// zero findings) pass vacuously.
    fn verify_detect(&self, mismatches: &mut Vec<String>) {
        let per_kind = self.reported_findings();
        if per_kind.is_empty() {
            return;
        }
        let reported: u64 = per_kind.values().sum();
        let job_findings: u64 = self.jobs.iter().map(|j| j.findings).sum();
        if reported != job_findings {
            mismatches.push(format!(
                "reported findings: detect.reported.* counters say {reported}, \
                 job events say {job_findings}"
            ));
        }
    }

    /// The no-orphans rule of a supervised run: every process that started
    /// (`spawn` or `restart`) has ended (`exit` when clean, `crash`
    /// otherwise) by the time the trace completes. A trace without worker
    /// events passes vacuously.
    fn verify_supervision(&self, mismatches: &mut Vec<String>) {
        let action = |a: &str| self.worker_actions.get(a).copied().unwrap_or(0);
        let ended = action("exit") + action("crash");
        let started = action("spawn") + action("restart");
        if ended != started {
            mismatches.push(format!(
                "worker exits: {ended} exit/crash event(s), but {started} spawn/restart event(s)"
            ));
        }
    }

    /// Per-site injected-fault counters (`chaos.fired.<site>`), by site id.
    /// Empty for fault-free runs.
    pub fn chaos_fired(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(keys::CHAOS_FIRED_PREFIX).map(|s| (s, *v)))
            .collect()
    }

    /// Renders the human-readable report: per-stage wall clock, funnel
    /// attrition, scheduler/store counters, and the verification verdict.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} event(s)", self.events);
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nper-stage wall clock:");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<12} {:>10.3} ms across {} span(s)",
                    s.total_us as f64 / 1000.0,
                    s.closed
                );
            }
        }
        let f = self.funnel();
        let _ = writeln!(out, "\nfunnel:");
        let _ = writeln!(out, "  profiles        {:>10}", f.profiles);
        let _ = writeln!(out, "  shared accesses {:>10}", f.shared_accesses);
        let _ = writeln!(out, "  pmcs            {:>10}", f.pmcs);
        let _ = writeln!(out, "  clusters        {:>10}", f.clusters);
        let _ = writeln!(out, "  jobs            {:>10}", f.jobs);
        let _ = writeln!(out, "  trials          {:>10}", f.trials);
        let interesting = [
            keys::SCHED_HINT_HITS,
            keys::SCHED_VOLUNTARY,
            keys::SCHED_FORCED,
            keys::INCIDENTAL_PMCS,
            keys::STORE_PROFILE_HITS,
            keys::STORE_PROFILE_MISSES,
            keys::STORE_RECORDS_DAMAGED,
            keys::STORE_RECORDS_HEALED,
            keys::WATCHDOG_FIRES,
            keys::RETRIES,
            keys::SNAPSHOT_CLONES,
            keys::SNAPSHOT_PAGES_COPIED,
            keys::FLEET_JOURNAL_RECORDS,
            keys::FLEET_JOURNAL_REPLAYED,
            keys::FLEET_JOURNAL_DAMAGED,
            keys::FINDINGS,
        ];
        let shown: Vec<(&str, u64)> = interesting
            .iter()
            .filter_map(|k| self.counters.get(*k).map(|v| (*k, *v)))
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (k, v) in shown {
                let _ = writeln!(out, "  {k:<28} {v:>10}");
            }
        }
        let phases: Vec<(&str, u64)> = keys::TRIAL_PHASE_NS
            .iter()
            .filter_map(|k| self.counters.get(*k).map(|ns| (*k, *ns)))
            .collect();
        if !phases.is_empty() {
            // The share is of the `campaign` span's wall clock, so it can
            // pass 100 % when several workers ran trials at once.
            let campaign_ns = self.spans.get("campaign").map_or(0, |s| s.total_us * 1000);
            let _ = writeln!(out, "\ntrial phases:");
            let total: u64 = phases.iter().map(|(_, ns)| ns).sum();
            for (k, ns) in phases.into_iter().chain([("(all phases)", total)]) {
                let _ = write!(out, "  {k:<28} {:>10.3} ms", ns as f64 / 1e6);
                let _ = match campaign_ns {
                    0 => writeln!(out),
                    span => writeln!(
                        out,
                        " {:>6.1}% of campaign",
                        ns as f64 * 100.0 / span as f64
                    ),
                };
            }
        }
        let reported = self.reported_findings();
        if !reported.is_empty() {
            let _ = writeln!(out, "\nfindings by oracle:");
            for (kind, n) in &reported {
                let _ = writeln!(out, "  {kind:<28} {n:>10}");
            }
        }
        let chaos = self.chaos_fired();
        if !chaos.is_empty() {
            let _ = writeln!(out, "\nchaos faults fired:");
            for (site, n) in &chaos {
                let _ = writeln!(out, "  {site:<28} {n:>10}");
            }
        }
        if !self.worker_actions.is_empty() {
            let _ = writeln!(out, "\nsupervised workers:");
            for (action, n) in &self.worker_actions {
                let _ = writeln!(out, "  {action:<28} {n:>10}");
            }
        }
        if !self.fleet_actions.is_empty() {
            let _ = writeln!(out, "\nfleet workers:");
            for (action, n) in &self.fleet_actions {
                let _ = writeln!(out, "  {action:<28} {n:>10}");
            }
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "\n{k}: n={} min={} mean={:.1} max={}",
                h.count,
                h.min,
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                },
                h.max
            );
        }
        let mismatches = self.verify();
        if mismatches.is_empty() {
            let _ = writeln!(
                out,
                "\nverification: OK (events agree with the run summary)"
            );
        } else {
            let _ = writeln!(out, "\nverification: FAILED");
            for m in &mismatches {
                let _ = writeln!(out, "  {m}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn traced_run() -> Vec<String> {
        let (t, sink) = Tracer::memory();
        {
            let root = t.span("campaign");
            let _job = root.child("job");
            t.count(keys::PIPELINE_PROFILES, 10);
            t.count(keys::PIPELINE_SHARED_ACCESSES, 500);
            t.count(keys::PIPELINE_PMCS, 40);
            t.count(keys::CLUSTERS, 6);
            t.hist(keys::CLUSTER_SIZE, 3);
            t.hist(keys::CLUSTER_SIZE, 9);
            t.emit(&Event::Job {
                t: t.now_us(),
                job: 0,
                trials: 24,
                steps: 1000,
                findings: 1,
                attempts: 1,
                quarantined: false,
            });
            t.emit(&Event::Job {
                t: t.now_us(),
                job: 1,
                trials: 8,
                steps: 400,
                findings: 0,
                attempts: 3,
                quarantined: true,
            });
        }
        t.emit(&Event::Summary {
            t: t.now_us(),
            profiles: 10,
            shared_accesses: 500,
            pmcs: 40,
            clusters: 6,
            jobs: 1,
            trials: 32,
            steps: 1400,
            findings: 1,
            quarantined: 1,
        });
        sink.lines()
    }

    #[test]
    fn reconstructs_funnel_and_verifies_against_summary() {
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(
            r.funnel(),
            Funnel {
                profiles: 10,
                shared_accesses: 500,
                pmcs: 40,
                clusters: 6,
                jobs: 1,
                trials: 32,
            }
        );
        assert_eq!(r.hists[keys::CLUSTER_SIZE].max, 9);
        assert_eq!(r.spans["campaign"].closed, 1);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        let rendered = r.render();
        assert!(rendered.contains("verification: OK"), "{rendered}");
    }

    #[test]
    fn detects_summary_disagreement() {
        let mut lines = traced_run();
        // Tamper with a job event: drop 8 trials.
        let idx = lines.iter().position(|l| l.contains("\"job\":1")).unwrap();
        lines[idx] = lines[idx].replace("\"trials\":8", "\"trials\":0");
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("trials:")),
            "{mismatches:?}"
        );
        assert!(r.render().contains("verification: FAILED"));
    }

    #[test]
    fn missing_summary_is_a_verification_failure() {
        let mut lines = traced_run();
        lines.retain(|l| !l.contains("\"ev\":\"summary\""));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.verify().len(), 1);
    }

    #[test]
    fn malformed_lines_fail_with_position() {
        let err =
            TraceReport::from_lines(["{\"t\":0,\"ev\":\"count\",\"key\":\"k\"}"]).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = TraceReport::from_lines(["", "garbage"]).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn trial_phases_render_with_their_share_of_the_campaign_span() {
        let count = |key: &str, n: u64| {
            Event::Count {
                t: 0,
                key: key.into(),
                n,
            }
            .to_json()
            .render()
        };
        let span_end = |name: &str, dur: u64| {
            Event::SpanEnd {
                t: dur,
                span: 1,
                name: name.into(),
                dur,
            }
            .to_json()
            .render()
        };
        let plain = TraceReport::from_lines(traced_run().iter().map(String::as_str)).unwrap();
        assert!(
            !plain.render().contains("trial phases"),
            "no counters, no table"
        );

        // Two jobs' worth of run time, one of oracle time, in a 4 ms span.
        let lines = [
            count(keys::TRIAL_PHASE_NS[1], 1_000_000),
            count(keys::TRIAL_PHASE_NS[1], 1_000_000),
            count(keys::TRIAL_PHASE_NS[2], 1_000_000),
            span_end("campaign", 4_000),
        ];
        let text = TraceReport::from_lines(lines.iter().map(String::as_str))
            .unwrap()
            .render();
        let row = |key: &str| {
            let line = text
                .lines()
                .find(|l| l.contains(key))
                .unwrap_or_else(|| panic!("{text}"));
            line.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            row("trial.run_ns")[1..],
            ["2.000", "ms", "50.0%", "of", "campaign"]
        );
        assert_eq!(row("trial.oracle_ns")[1..4], ["1.000", "ms", "25.0%"]);
        assert_eq!(row("(all phases)")[2..5], ["3.000", "ms", "75.0%"]);
        assert!(
            !text.contains("trial.incidental_ns"),
            "phases that never ran are left out"
        );
    }

    #[test]
    fn snapshot_counters_verify_against_job_trials() {
        let count = |key: &str, n: u64| {
            Event::Count {
                t: 0,
                key: key.into(),
                n,
            }
            .to_json()
            .render()
        };
        // Consistent: clones cover every trial (32) plus one of an attempt
        // that was retried, and pages were copied.
        let mut lines = traced_run();
        lines.insert(0, count(keys::SNAPSHOT_CLONES, 33));
        lines.insert(1, count(keys::SNAPSHOT_PAGES_COPIED, 128));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(r.verify().is_empty(), "{:?}", r.verify());

        // Fewer clones than trials is impossible: each trial clones once.
        let mut lines = traced_run();
        lines.insert(0, count(keys::SNAPSHOT_CLONES, 5));
        lines.insert(1, count(keys::SNAPSHOT_PAGES_COPIED, 128));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("snapshot clones:")),
            "{mismatches:?}"
        );

        // Trials that copied zero pages are impossible: stacks get written.
        let mut lines = traced_run();
        lines.insert(0, count(keys::SNAPSHOT_CLONES, 33));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("snapshot pages:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn traces_without_snapshot_counters_pass_vacuously() {
        // Supervised/fleet parents re-emit job verdicts but not the
        // workers' snapshot accounting; their traces must still verify.
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.counter(keys::SNAPSHOT_CLONES), 0);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
    }

    fn worker_line(action: &str, worker: u64) -> String {
        Event::Worker {
            t: 0,
            worker,
            action: action.into(),
            detail: String::new(),
        }
        .to_json()
        .render()
    }

    #[test]
    fn supervision_events_balance_starts_against_ends() {
        // Two slots: slot 1's first child is killed for silence and its
        // respawn exits cleanly. Three starts, three ends.
        let mut lines = traced_run();
        lines.insert(0, worker_line("spawn", 0));
        lines.insert(1, worker_line("spawn", 1));
        lines.insert(2, worker_line("heartbeat-miss", 1));
        lines.insert(3, worker_line("crash", 1));
        lines.insert(4, worker_line("restart", 1));
        lines.insert(5, worker_line("exit", 0));
        lines.insert(6, worker_line("exit", 1));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.worker_actions["spawn"], 2);
        assert_eq!(r.worker_actions["crash"], 1);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        assert!(r.render().contains("supervised workers:"));
    }

    #[test]
    fn supervision_mismatches_are_detected() {
        // A spawn event with no matching exit: the no-orphans check trips.
        let mut lines = traced_run();
        lines.insert(0, worker_line("spawn", 0));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches.iter().any(|m| m.starts_with("worker exits:")),
            "{mismatches:?}"
        );
        // A crash ends a process as an exit does; an end without a start
        // trips the same check.
        let mut lines = traced_run();
        lines.insert(0, worker_line("crash", 0));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.verify().len(), 1, "{:?}", r.verify());
    }

    fn fleet_line(action: &str, worker: u64) -> String {
        Event::Fleet {
            t: 0,
            worker,
            action: action.into(),
            detail: String::new(),
        }
        .to_json()
        .render()
    }

    #[test]
    fn fleet_events_render_once_per_action() {
        let mut lines = traced_run();
        for (i, action) in ["join", "join", "lease", "evict", "reassign", "reassign"]
            .into_iter()
            .enumerate()
        {
            lines.insert(i, fleet_line(action, 0));
        }
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.fleet_actions["reassign"], 2);
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        let text = r.render();
        assert!(text.contains("fleet workers:"), "{text}");
        assert!(
            !text.contains("\ncounters:"),
            "the lifecycle is counted in its own block only: {text}"
        );
    }

    #[test]
    fn single_process_traces_skip_supervision_checks() {
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(r.worker_actions.is_empty());
        assert!(r.fleet_actions.is_empty());
        assert!(r.verify().is_empty());
        assert!(!r.render().contains("supervised workers:"));
        assert!(!r.render().contains("fleet workers:"));
    }

    #[test]
    fn reported_finding_counters_verify_against_job_events() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count {
                t: 0,
                key: key.into(),
                n,
            }
            .to_json()
            .render()
        };
        // The completed job reported 1 finding; claim it was a data race.
        lines.insert(0, count(&keys::reported("race"), 1));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(r.reported_findings().get("race"), Some(&1));
        assert!(r.verify().is_empty(), "{:?}", r.verify());
        assert!(r.render().contains("findings by oracle:"));
    }

    #[test]
    fn reported_finding_mismatches_are_detected() {
        let mut lines = traced_run();
        let count = |key: &str, n: u64| {
            Event::Count {
                t: 0,
                key: key.into(),
                n,
            }
            .to_json()
            .render()
        };
        // Claim 3 wakeup findings when the job events only account for 1.
        lines.insert(0, count(&keys::reported("wakeup"), 3));
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        let mismatches = r.verify();
        assert!(
            mismatches
                .iter()
                .any(|m| m.starts_with("reported findings:")),
            "{mismatches:?}"
        );
    }

    #[test]
    fn traces_without_reported_counters_skip_the_detect_check() {
        // traced_run has a job with findings but no reported counters —
        // the shape of every pre-oracle trace.
        let lines = traced_run();
        let r = TraceReport::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert!(r.reported_findings().is_empty());
        assert!(r.verify().is_empty());
        assert!(!r.render().contains("findings by oracle:"));
    }

    #[test]
    fn duplicate_summary_rejected() {
        let mut lines = traced_run();
        let summary = lines.last().unwrap().clone();
        lines.push(summary);
        assert!(TraceReport::from_lines(lines.iter().map(String::as_str)).is_err());
    }
}
