//! Command implementations.

use std::path::PathBuf;
use std::process::ExitCode;

use sb_kernel::{boot, bugs, KernelConfig};
use sb_vmm::Executor;
use snowboard::cluster::ALL_STRATEGIES;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;
use snowboard::select::ClusterOrder;
use snowboard::{
    config_fingerprint, run_coordinator, run_join, CampaignCfg, CampaignReport, FleetCfg,
    FleetWork, JobBudget, JoinCfg, OracleSet, Pipeline, PipelineCfg, PmcId, RetryPolicy, SbResult,
};

use crate::args::{Cmd, HuntOpts, JoinOpts, ServeOpts, USAGE};

/// Dispatches a parsed command.
pub fn run(cmd: Cmd) -> ExitCode {
    match cmd {
        Cmd::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Cmd::ListBugs => list_bugs(),
        Cmd::Strategies {
            config,
            seed,
            corpus,
        } => strategies(config, seed, corpus),
        Cmd::Repro { bug } => repro(bug),
        Cmd::TraceReport { trace_dir } => trace_report(&trace_dir),
        Cmd::Hunt(opts) => hunt(*opts),
        Cmd::Serve(opts) => serve(*opts),
        Cmd::Join(opts) => join(*opts),
        Cmd::Chaos(opts) => crate::chaos::run_chaos(opts),
    }
}

/// Exit code for a hunt that finished but quarantined at least one job:
/// the campaign result is usable, yet not complete.
const EXIT_QUARANTINED: u8 = 3;

fn print_campaign_error(e: &snowboard::Error) {
    eprint!("error: campaign failed:");
    for line in e.chain() {
        eprint!(" {line};");
    }
    eprintln!();
}

fn trace_report(dir: &std::path::Path) -> ExitCode {
    let path = dir.join("trace.jsonl");
    let report = match sb_obs::TraceReport::from_file(&path) {
        Ok(r) => r,
        Err(e) => {
            // `from_file` errors already name the path.
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if report.verify().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list_bugs() -> ExitCode {
    println!(
        "{:<5} {:<4} {:<16} {:<9} summary",
        "id", "type", "versions", "status"
    );
    for b in bugs::registry() {
        let versions = b
            .versions
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "#{:<4} {:<4} {:<16} {:<9} {}",
            b.id,
            b.kind.to_string(),
            versions,
            if b.harmful { "harmful" } else { "benign" },
            b.title
        );
    }
    ExitCode::SUCCESS
}

fn strategies(config: KernelConfig, seed: u64, corpus: usize) -> ExitCode {
    let p = Pipeline::prepare(
        config,
        PipelineCfg {
            seed,
            corpus_target: corpus,
            fuzz_budget: (corpus as u64) * 15,
            ..PipelineCfg::default()
        },
    );
    println!(
        "corpus: {} tests, {} shared accesses, {} PMCs",
        p.corpus.len(),
        p.stats.shared_accesses,
        p.pmcs.len()
    );
    println!("\n{:<16} clusters", "strategy");
    for s in ALL_STRATEGIES {
        println!("{:<16} {}", s.to_string(), p.cluster_count(s));
    }
    ExitCode::SUCCESS
}

/// The retry/watchdog configuration shared by every hunt mode — a fleet
/// coordinator, its workers, and the in-process pool must agree on it for
/// fleet results to be bit-identical to single-process runs.
fn hunt_campaign_cfg(opts: &HuntOpts) -> CampaignCfg {
    CampaignCfg {
        seed: opts.seed,
        trials_per_pmc: opts.trials,
        max_tested_pmcs: opts.budget,
        workers: opts.workers,
        oracles: opts.oracles,
        retry: RetryPolicy {
            max_attempts: opts.retries,
            ..RetryPolicy::default()
        },
        budget: JobBudget {
            max_steps: None,
            deadline: (opts.job_deadline_secs > 0)
                .then(|| std::time::Duration::from_secs(opts.job_deadline_secs)),
        },
        fault_plan: opts.chaos.job.clone(),
        ..CampaignCfg::default()
    }
}

/// Per-oracle finding totals plus what deduplication suppressed — the
/// `[detect]` diagnostic shared by `hunt` and `hunt serve`. Goes to stderr:
/// stdout carries only the report, which stays bit-identical across run
/// modes.
fn print_detect_summary(report: &CampaignReport, oracles: OracleSet) {
    let counts = report.finding_counts();
    let by_kind = if counts.is_empty() {
        "none".to_string()
    } else {
        counts
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!(
        "[detect] oracles {}: findings by kind: {by_kind}; \
         {} duplicate(s) suppressed, {} job(s) quarantined",
        oracles.to_spec(),
        report.duplicate_findings(),
        report.quarantined.len()
    );
}

/// Opens the JSONL tracer for `--trace-dir`, degrading to a disabled
/// tracer (with a warning) when the destination is unwritable — the
/// campaign is the product, the trace is a diagnostic.
fn open_tracer(trace_dir: &Option<std::path::PathBuf>) -> sb_obs::Tracer {
    match trace_dir {
        Some(dir) => {
            let opened = std::fs::create_dir_all(dir)
                .and_then(|()| sb_obs::Tracer::jsonl(&dir.join("trace.jsonl")));
            match opened {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "[trace] warning: cannot write trace events under {} ({e}); \
                         tracing disabled for this run",
                        dir.display()
                    );
                    sb_obs::Tracer::disabled()
                }
            }
        }
        None => sb_obs::Tracer::disabled(),
    }
}

/// Emits the authoritative end-of-run totals that `trace report` verifies
/// its event-level reconstruction against, then flushes the tracer.
fn emit_summary(
    tracer: &sb_obs::Tracer,
    p: &Pipeline,
    clusters: usize,
    report: &CampaignReport,
    trace_dir: &Option<std::path::PathBuf>,
) {
    tracer.emit(&sb_obs::Event::Summary {
        t: tracer.now_us(),
        profiles: p.profiles.len() as u64,
        shared_accesses: p.stats.shared_accesses as u64,
        pmcs: p.pmcs.len() as u64,
        clusters: clusters as u64,
        jobs: report.tested() as u64,
        trials: report.executions,
        steps: report.total_steps,
        findings: report.issues.len() as u64,
        quarantined: report.quarantined.len() as u64,
    });
    tracer.flush();
    if tracer.enabled() {
        if let Some(dir) = trace_dir {
            eprintln!(
                "[trace] events written to {}; inspect with `snowboard-cli trace report --trace-dir {}`",
                dir.join("trace.jsonl").display(),
                dir.display()
            );
        }
    }
}

/// Prints the campaign report to stdout and picks the exit code. Shared by
/// `hunt` and `hunt serve` — a fleet run's stdout is bit-identical to the
/// single-process run's by construction.
fn print_report(report: &CampaignReport) -> ExitCode {
    println!(
        "tested {} PMCs in {} executions; {:.1}% exercised their predicted channel",
        report.tested(),
        report.executions,
        100.0 * report.accuracy()
    );
    if !report.quarantined.is_empty() {
        println!("quarantined {} job(s):", report.quarantined.len());
        for (kind, n) in report.quarantine_histogram() {
            println!("  {kind}: {n}");
        }
        for q in &report.quarantined {
            let pmc = q.pmc.map_or("no PMC".to_string(), |id| format!("PMC {id}"));
            println!(
                "  job {} ({pmc}), {} attempt(s): {}",
                q.job,
                q.attempts,
                q.chain.join(" <- ")
            );
        }
    }
    // Exit 3 ("completed with quarantines") tells scripts the run finished
    // but its coverage has holes; 0 is reserved for a fully clean campaign.
    let final_code = if report.quarantined.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_QUARANTINED)
    };
    if report.issues.is_empty() {
        println!("no issues found");
        return final_code;
    }
    println!("\nissues, in discovery order:");
    for issue in &report.issues {
        match issue.bug_id.and_then(bugs::by_id) {
            Some(b) => println!(
                "  after {:>4} tests: #{} [{}] {}",
                issue.found_after_tests,
                b.id,
                if b.harmful { "HARMFUL" } else { "benign" },
                b.title
            ),
            None => println!(
                "  after {:>4} tests: (untriaged) {}",
                issue.found_after_tests, issue.key
            ),
        }
    }
    final_code
}

/// What every campaign-running hunt mode prepares: stages 1–3 and the
/// stage-4 configuration.
struct Prepared {
    tracer: sb_obs::Tracer,
    p: Pipeline,
    clusters: usize,
    exemplars: Vec<PmcId>,
    cfg: CampaignCfg,
}

/// The corpus settings every hunt mode prepares its pipeline with.
fn hunt_pipeline_cfg(o: &HuntOpts) -> PipelineCfg {
    PipelineCfg {
        seed: o.seed,
        corpus_target: o.corpus,
        fuzz_budget: (o.corpus as u64) * 15,
        ..PipelineCfg::default()
    }
}

fn cluster_order(o: &HuntOpts) -> ClusterOrder {
    if o.random_order {
        ClusterOrder::Random
    } else {
        ClusterOrder::UncommonFirst
    }
}

/// Stages 1–3 and the campaign configuration for `hunt` and `hunt serve`.
fn prepare_campaign(o: &HuntOpts) -> Result<Prepared, ExitCode> {
    let tracer = open_tracer(&o.trace_dir);
    eprintln!("[hunt] preparing pipeline ({:?})...", o.config.version);
    let pipeline_cfg = PipelineCfg {
        tracer: tracer.clone(),
        ..hunt_pipeline_cfg(o)
    };
    let p = Pipeline::prepare(o.config, pipeline_cfg);
    let clusters = p.cluster_count(o.strategy);
    eprintln!(
        "[hunt] {} tests, {} PMCs, {clusters} {} clusters",
        p.corpus.len(),
        p.pmcs.len(),
        o.strategy
    );
    let exemplars = p.exemplars_traced(o.strategy, cluster_order(o), &tracer);
    let cfg = CampaignCfg {
        checkpoint: o.checkpoint.clone(),
        resume_from: o.resume.clone(),
        resume_lenient: o.resume_lenient,
        tracer: tracer.clone(),
        ..hunt_campaign_cfg(o)
    };
    Ok(Prepared {
        tracer,
        p,
        clusters,
        exemplars,
        cfg,
    })
}

/// Reports a finished campaign: the trace summary, the `[detect]` line, and
/// the stdout report with its exit code.
fn conclude(prep: Prepared, report: SbResult<CampaignReport>, o: &HuntOpts) -> ExitCode {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            print_campaign_error(&e);
            return ExitCode::FAILURE;
        }
    };
    emit_summary(&prep.tracer, &prep.p, prep.clusters, &report, &o.trace_dir);
    print_detect_summary(&report, o.oracles);
    print_report(&report)
}

/// A coordinator's checkpoint: the user's `--checkpoint` path when given,
/// else a private temporary one that [`remove_temp_checkpoint`] deletes
/// after a clean finish.
fn coordinator_checkpoint(o: &HuntOpts) -> PathBuf {
    o.checkpoint.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sb-fleet-{}.json", std::process::id()))
    })
}

fn remove_temp_checkpoint(o: &HuntOpts, ckpt: &std::path::Path) {
    if o.checkpoint.is_none() {
        let _ = std::fs::remove_file(ckpt);
    }
}

fn hunt(opts: HuntOpts) -> ExitCode {
    let prep = match prepare_campaign(&opts) {
        Ok(prep) => prep,
        Err(code) => return code,
    };
    let report = prep.p.campaign(&prep.exemplars, &prep.cfg);
    conclude(prep, report, &opts)
}

/// Every flag that shapes what a completed job computes, in one list, as
/// the `(flag, value)` parts of [`fleet_fingerprint`]; a presence flag's
/// value is `true` or `false`. Workers, heartbeats, stop files and
/// `--chaos` change how a campaign runs or fails, never what a completed
/// job computes, so they are not here.
fn campaign_flags(o: &HuntOpts) -> [(&'static str, String); 11] {
    [
        ("--version", o.config.version.to_string()),
        ("--patched", o.config.patched.to_string()),
        ("--strategy", o.strategy.to_string()),
        ("--seed", o.seed.to_string()),
        ("--corpus", o.corpus.to_string()),
        ("--budget", o.budget.to_string()),
        ("--trials", o.trials.to_string()),
        ("--oracles", o.oracles.to_spec()),
        ("--random-order", o.random_order.to_string()),
        ("--retries", o.retries.to_string()),
        ("--job-deadline", o.job_deadline_secs.to_string()),
    ]
}

/// [`campaign_flags`] hashed for the fleet handshake: a worker must share
/// them with its coordinator for merged results to make sense.
fn fleet_fingerprint(o: &HuntOpts) -> u64 {
    config_fingerprint(&campaign_flags(o))
}

/// `hunt serve`: run the campaign as a fleet coordinator. Same pipeline,
/// same report, same stdout as a plain `hunt` — the jobs just execute on
/// whoever joins.
fn serve(opts: ServeOpts) -> ExitCode {
    let listener = match std::net::TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("[fleet] listening on {addr}"),
        Err(_) => eprintln!("[fleet] listening on {}", opts.listen),
    }
    let o = &opts.hunt;
    let prep = match prepare_campaign(o) {
        Ok(prep) => prep,
        Err(code) => return code,
    };
    let ckpt = coordinator_checkpoint(o);
    let fcfg = FleetCfg {
        heartbeat_timeout: std::time::Duration::from_millis(o.heartbeat_ms),
        lease_deadline: std::time::Duration::from_millis(opts.lease_ms),
        batch: opts.batch,
        crash_budget: opts.crash_budget,
        stop_file: o.stop_file.clone(),
        checkpoint: ckpt.clone(),
        config_hash: fleet_fingerprint(o),
        fail_after_journal: o.chaos.kill_after_journal,
        ..FleetCfg::default()
    };
    eprintln!(
        "[fleet] heartbeat timeout {} ms, lease {} ms, batch {}",
        o.heartbeat_ms, opts.lease_ms, opts.batch
    );
    let report = run_coordinator(listener, &prep.exemplars, &prep.cfg, &fcfg);
    if let Ok(CampaignReport { fleet: Some(s), .. }) = &report {
        eprintln!(
            "[fleet] {} worker(s) joined, {} rejected; {} lease(s), {} eviction(s), \
             {} reassigned job(s), {} duplicate result(s), {} abandoned",
            s.workers_joined,
            s.workers_rejected,
            s.leases_granted,
            s.evictions,
            s.jobs_reassigned,
            s.duplicate_results,
            s.gave_up_jobs
        );
        eprintln!(
            "[fleet] journal: {} record(s) written, {} replayed, {} lease(s) restored, \
             {} session(s) resumed, {} redelivered result(s), {} damage event(s)",
            s.journal_records,
            s.journal_replayed,
            s.leases_restored,
            s.sessions_resumed,
            s.redelivered,
            s.journal_damaged
        );
        if s.stopped {
            eprintln!(
                "[fleet] stopped by stop file; resume with hunt serve --resume {}",
                ckpt.display()
            );
        } else {
            remove_temp_checkpoint(o, &ckpt);
        }
    }
    conclude(prep, report, o)
}

/// `hunt join`: run jobs for a fleet coordinator until it drains. Produces
/// no report of its own — results stream to the coordinator.
fn join(opts: JoinOpts) -> ExitCode {
    let o = &opts.hunt;
    let cfg = hunt_campaign_cfg(o);
    let jcfg = JoinCfg {
        addr: opts.addr.clone(),
        config_hash: fleet_fingerprint(o),
        connect_attempts: opts.connect_retries,
        stop_file: o.stop_file.clone(),
        spool: opts.spool.clone(),
        net_faults: o.chaos.net.clone(),
        ..JoinCfg::default()
    };
    eprintln!("[fleet] joining coordinator at {}", opts.addr);
    let (config, pipeline_cfg, strategy, order) =
        (o.config, hunt_pipeline_cfg(o), o.strategy, cluster_order(o));
    let prep = move || {
        let p = Pipeline::prepare(config, pipeline_cfg);
        let exemplars = p.exemplars(strategy, order);
        Ok(FleetWork {
            booted: p.booted,
            corpus: p.corpus,
            set: p.pmcs,
            exemplars,
        })
    };
    match run_join(&cfg, &jcfg, prep) {
        Ok(s) => {
            eprintln!(
                "[fleet] worker done: {} job(s) over {} lease(s), {} reconnect(s), \
                 {} spooled / {} redelivered{}",
                s.jobs_completed,
                s.leases,
                s.reconnects,
                s.spooled,
                s.redelivered,
                if s.stopped {
                    " (stopped by stop file)"
                } else {
                    ""
                }
            );
            if s.stopped && s.undelivered > 0 {
                // Distinct exit code: the work is done but not delivered —
                // the spool still owes the coordinator these results.
                eprintln!(
                    "[fleet] stopped while holding {} undelivered result(s); \
                     rejoin with the same --spool to deliver them",
                    s.undelivered
                );
                return ExitCode::from(4);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // One line, exit 1: scripts pointed at a dead coordinator get a
            // bounded, parseable failure, never a hang. `--connect-retries`
            // bounds every reconnect loop: a worker that made progress gets
            // the lost-coordinator wording from run_join, and one holding
            // undelivered results names how many and the --spool that
            // keeps them.
            eprintln!("error: {}", e.chain().join("; "));
            ExitCode::FAILURE
        }
    }
}

fn repro(bug: u8) -> ExitCode {
    let b = bugs::by_id(bug).expect("registry id");
    println!("reproducing #{bug}: {}\n", b.title);
    let bugs::Trigger {
        config,
        writer,
        reader,
        write_fn: wfn,
        read_fn: rfn,
    } = bugs::trigger(bug).expect("validated at parse time");
    println!(
        "kernel {:?}\n\ntest 1 (writer):\n{writer}\ntest 2 (reader):\n{reader}",
        config.version
    );
    let booted = boot(config);
    let profiles = profile_corpus(&booted, &[writer.clone(), reader.clone()], 2);
    let set = identify(&profiles);
    let Some((_, pmc)) = snowboard::metrics::find_pmc_by_sites(&set, wfn, rfn) else {
        eprintln!("PMC ({wfn} -> {rfn}) not predicted; cannot reproduce");
        return ExitCode::FAILURE;
    };
    println!(
        "scheduling hint: write {} -> read {}\n",
        pmc.key.w.ins.display_name(),
        pmc.key.r.ins.display_name()
    );
    let mut exec = Executor::new(2);
    match interleavings_to_expose(
        &mut exec,
        &booted,
        &writer,
        &reader,
        pmc,
        SchedKind::Snowboard,
        1,
        4096,
        hits_bug(bug),
    ) {
        Some(r) => {
            println!("exposed after {} interleavings", r.interleavings);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("not exposed within 4096 interleavings");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    /// The handshake value of a campaign: pinned for the default flags (a
    /// worker of an older build must still match), equal for `hunt serve`
    /// and `hunt join` launched with the same campaign flags, and moved by
    /// every one of them, the presence flags included.
    #[test]
    fn fleet_fingerprint_is_pinned_and_shared_by_serve_and_join() {
        let fingerprint = |cmd: &str| {
            let argv: Vec<String> = cmd.split_whitespace().map(str::to_owned).collect();
            match parse(&argv) {
                Ok(Cmd::Hunt(o)) => fleet_fingerprint(&o),
                Ok(Cmd::Serve(o)) => fleet_fingerprint(&o.hunt),
                Ok(Cmd::Join(o)) => fleet_fingerprint(&o.hunt),
                other => panic!("{cmd}: {other:?}"),
            }
        };
        assert_eq!(fingerprint("hunt"), 0x537f_9b3a_2ed9_1bd1);
        let campaign = "--seed 7 --corpus 40 --budget 6 --trials 4";
        let served = fingerprint(&format!(
            "hunt serve --listen x --heartbeat-ms 500 {campaign}"
        ));
        assert_eq!(served, fingerprint(&format!("hunt join x:1 {campaign}")));
        assert_eq!(served, fingerprint(&format!("hunt --workers 3 {campaign}")));
        let mut seen = std::collections::BTreeSet::from([served]);
        for flag in [
            "--version 5.3.10",
            "--patched",
            "--strategy s-full",
            "--seed 8",
            "--corpus 41",
            "--budget 7",
            "--trials 5",
            "--oracles race",
            "--random-order",
            "--retries 4",
            "--job-deadline 9",
        ] {
            let moved = fingerprint(&format!("hunt {campaign} {flag}"));
            assert!(seen.insert(moved), "{flag} does not move the fingerprint");
        }
    }
}
