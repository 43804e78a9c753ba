//! Command implementations.

use std::path::PathBuf;
use std::process::ExitCode;

use sb_kernel::{boot, bugs, KernelConfig};
use sb_store::Store;
use sb_vmm::Executor;
use snowboard::cluster::ALL_STRATEGIES;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind, StoreStats};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;
use snowboard::select::ClusterOrder;
use snowboard::{
    config_fingerprint, run_coordinator, run_join, CampaignCfg, CampaignReport, Catalog, ChaosPlan,
    FleetCfg, FleetWork, IdentifyOpts, JobBudget, JoinCfg, OracleSet, Pipeline, PipelineCfg, PmcId,
    RetryPolicy, SbResult, SuperviseCfg,
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
        Cmd::StoreStats { store } => store_stats(&store),
        Cmd::StoreFsck { store } => store_fsck(&store),
        Cmd::StoreRepair { store } => store_repair(&store),
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

fn print_store_error(context: &str, e: &sb_store::Error) {
    eprint!("error: {context}: {e}");
    let mut source = std::error::Error::source(e);
    while let Some(s) = source {
        eprint!("; {s}");
        source = s.source();
    }
    eprintln!();
}

/// `Store::open` creates directories as a side effect, which would silently
/// turn a typo'd path into a fresh empty store; commands that only *inspect*
/// must reject a path that isn't an existing store.
fn require_store_dir(dir: &std::path::Path) -> Result<(), ExitCode> {
    if !dir.is_dir() {
        eprintln!("error: store directory {} does not exist", dir.display());
        return Err(ExitCode::FAILURE);
    }
    if !dir.join("manifest.json").is_file() {
        eprintln!("error: {} is not a store (no manifest.json)", dir.display());
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn store_stats(dir: &std::path::Path) -> ExitCode {
    if let Err(code) = require_store_dir(dir) {
        return code;
    }
    let store = match Store::open(dir) {
        Ok(s) => s,
        Err(e) => {
            print_store_error("opening store", &e);
            return ExitCode::FAILURE;
        }
    };
    let (hits, misses) = store.last_counters();
    // A run with zero lookups has a 0.0% hit rate, not a vacuous 100%.
    let rate = store.last_hit_rate().unwrap_or(0.0);
    println!(
        "last run: profile-hit-rate {:.1}% ({hits}/{})",
        100.0 * rate,
        hits + misses
    );
    let (sizes, stats) = match store.segment_sizes() {
        Ok(r) => r,
        Err(e) => {
            print_store_error("reading segments", &e);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} segment file(s), {} bytes total",
        stats.segments, stats.bytes
    );
    for (name, bytes) in sizes {
        println!("  {name:<14} {bytes:>12} B");
    }
    ExitCode::SUCCESS
}

fn store_fsck(dir: &std::path::Path) -> ExitCode {
    if let Err(code) = require_store_dir(dir) {
        return code;
    }
    let report = match sb_store::fsck(dir) {
        Ok(r) => r,
        Err(e) => {
            print_store_error("fsck", &e);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} segment file(s): {} record(s) ok, {} damaged, {} torn byte(s)",
        report.segments, report.records_ok, report.records_damaged, report.torn_bytes
    );
    for p in &report.problems {
        println!("  {p}");
    }
    if report.clean() {
        println!("store is clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "store is dirty; `snowboard-cli store repair --store {}` drops the damage",
            dir.display()
        );
        ExitCode::FAILURE
    }
}

fn store_repair(dir: &std::path::Path) -> ExitCode {
    if let Err(code) = require_store_dir(dir) {
        return code;
    }
    let report = match sb_store::repair(dir) {
        Ok(r) => r,
        Err(e) => {
            print_store_error("repair", &e);
            return ExitCode::FAILURE;
        }
    };
    if report.untouched() {
        println!("nothing to repair");
    } else {
        println!(
            "dropped {} damaged record(s) from {} rewritten segment(s); \
             truncated {} torn segment(s), removed {} unrecognizable segment(s)",
            report.dropped_records,
            report.rewritten_segments,
            report.truncated_segments,
            report.removed_segments
        );
        println!("dropped records will be recomputed and healed on the next store-backed run");
    }
    ExitCode::SUCCESS
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

fn print_hunt_store_stats(s: &StoreStats) {
    let total = s.profile_hits + s.profile_misses;
    println!(
        "[store] profile-hit-rate {:.1}% ({}/{total})",
        100.0 * s.hit_rate(),
        s.profile_hits
    );
    let pmc_mode = if s.pmc_cache_hit {
        "cached"
    } else if s.pmc_incremental {
        "incremental"
    } else {
        "rebuilt"
    };
    println!(
        "[store] pmcs {pmc_mode}; {} segment(s), {} bytes; {} shard(s), skew {:.2}",
        s.segments, s.stored_bytes, s.shards, s.shard_skew
    );
    if s.records_damaged > 0 {
        println!(
            "[store] damaged {} record(s), healed {}",
            s.records_damaged, s.records_healed
        );
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

/// The retry/watchdog configuration shared by every hunt mode — the
/// supervisor, its workers, and the in-process pool must agree on it for
/// supervised results to be bit-identical to single-process runs.
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

/// The syscall catalog implied by an oracle selection. `--oracles race`
/// promises bit-identical output to pre-oracle builds, so it keeps the
/// stock catalog; every other selection needs the extended catalog to reach
/// the sync-oracle subsystems its bugs live in.
fn hunt_catalog(oracles: OracleSet) -> Catalog {
    if oracles.is_race_only() {
        Catalog::Stock
    } else {
        Catalog::Extended
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

/// Stages 1–2 for the hunt-family commands: in-memory, or store-backed
/// when `--store` was given. `disk_faults` arms the store's deterministic
/// fault plan; the returned site list is what actually fired during
/// prepare (the store drops with this function's scope, so attribution
/// must leave with the result).
fn prepare_hunt_pipeline(
    config: KernelConfig,
    pipeline_cfg: PipelineCfg,
    store: &Option<std::path::PathBuf>,
    no_cache: bool,
    workers: usize,
    disk_faults: snowboard::DiskFaults,
) -> Result<(Pipeline, Option<StoreStats>, Vec<&'static str>), ExitCode> {
    match store {
        Some(dir) => {
            let mut st = match Store::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    print_store_error("opening store", &e);
                    return Err(ExitCode::FAILURE);
                }
            };
            st.set_read_cache(!no_cache);
            st.set_fault_plan(disk_faults);
            let shards = workers.max(1);
            match sb_store::prepare(
                config,
                &pipeline_cfg,
                &IdentifyOpts::sharded(shards, workers),
                &mut st,
            ) {
                Ok((p, stats)) => {
                    print_hunt_store_stats(&stats);
                    let fired = st.fault_fired();
                    Ok((p, Some(stats), fired))
                }
                Err(e) => {
                    print_store_error("store-backed prepare", &e);
                    Err(ExitCode::FAILURE)
                }
            }
        }
        None => Ok((Pipeline::prepare(config, pipeline_cfg), None, Vec::new())),
    }
}

/// Counts store-fault firings into the `chaos.fired.*` trace family (the
/// store prints the stderr ledger itself, at fire time).
fn count_disk_fired(tracer: &sb_obs::Tracer, fired: &[&'static str]) {
    let mut tally: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for site in fired {
        *tally.entry(site).or_insert(0) += 1;
    }
    for (site, n) in tally {
        snowboard::chaos::count_fired(tracer, site, n);
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

/// What every campaign-running hunt mode prepares: stages 1–3 (from the
/// store with `--store`) and the stage-4 configuration.
struct Prepared {
    tracer: sb_obs::Tracer,
    p: Pipeline,
    store_stats: Option<StoreStats>,
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
        catalog: hunt_catalog(o.oracles),
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
    let (p, store_stats, disk_fired) = prepare_hunt_pipeline(
        o.config,
        pipeline_cfg,
        &o.store,
        o.no_cache,
        o.workers,
        o.chaos.disk.clone(),
    )?;
    count_disk_fired(&tracer, &disk_fired);
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
        store_stats,
        clusters,
        exemplars,
        cfg,
    })
}

/// Reports a finished campaign: the trace summary, the `[detect]` line, and
/// the stdout report with its exit code.
fn conclude(prep: Prepared, report: SbResult<CampaignReport>, o: &HuntOpts) -> ExitCode {
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            print_campaign_error(&e);
            return ExitCode::FAILURE;
        }
    };
    report.store = prep.store_stats;
    emit_summary(&prep.tracer, &prep.p, prep.clusters, &report, &o.trace_dir);
    print_detect_summary(&report, o.oracles);
    print_report(&report)
}

/// A coordinator's checkpoint: the user's `--checkpoint` path when given,
/// else a private temporary one that [`remove_temp_checkpoint`] deletes
/// after a clean finish.
fn coordinator_checkpoint(o: &HuntOpts, tag: &str) -> PathBuf {
    o.checkpoint.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sb-{tag}-{}.json", std::process::id()))
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
    let report = if opts.supervise {
        supervise(&opts, &prep)
    } else {
        prep.p.campaign(&prep.exemplars, &prep.cfg)
    };
    conclude(prep, report, &opts)
}

/// `hunt --supervise`: the campaign on `--workers` child processes, each a
/// `hunt join` worker of a coordinator on a loopback port of its own. Same
/// report, same stdout as a plain `hunt`.
fn supervise(o: &HuntOpts, prep: &Prepared) -> SbResult<CampaignReport> {
    let exe = std::env::current_exe().map_err(|e| snowboard::Error::Supervise {
        detail: format!("cannot locate own binary to re-exec workers: {e}"),
    })?;
    let ckpt = coordinator_checkpoint(o, "supervise");
    let scfg = SuperviseCfg {
        workers: o.workers.max(1),
        fleet: FleetCfg {
            heartbeat_timeout: std::time::Duration::from_millis(o.heartbeat_ms),
            stop_file: o.stop_file.clone(),
            checkpoint: ckpt.clone(),
            config_hash: fleet_fingerprint(o),
            ..FleetCfg::default()
        },
    };
    eprintln!(
        "[supervise] {} worker process(es), heartbeat timeout {} ms",
        scfg.workers, o.heartbeat_ms
    );
    let args = worker_args(o);
    let report = snowboard::run_supervised(&prep.exemplars, &prep.cfg, &scfg, |addr| {
        let mut c = std::process::Command::new(&exe);
        c.args(["hunt", "join", addr]).args(&args);
        c
    })?;
    if let Some(f) = &report.fleet {
        eprintln!(
            "[supervise] {} spawn(s) + {} respawn(s), {} crash(es), \
             {} heartbeat miss(es), {} job(s) abandoned",
            f.spawns, f.respawns, f.crashes, f.heartbeat_misses, f.gave_up_jobs
        );
        if f.stopped {
            eprintln!(
                "[supervise] stopped by stop file; resume with --supervise --resume {0} \
                 --checkpoint {0}",
                ckpt.display()
            );
        } else {
            remove_temp_checkpoint(o, &ckpt);
        }
    }
    Ok(report)
}

/// One campaign-shaping flag's value: a value to pass, or a presence flag
/// that is on or off.
#[derive(Debug, PartialEq)]
enum Flag {
    Value(String),
    Present(bool),
}

/// Every flag that shapes what a completed job computes, in one list: a
/// supervised child is launched with them ([`worker_args`]) and a fleet
/// handshake compares their hash ([`fleet_fingerprint`]). Workers,
/// heartbeats, stop files and `--chaos` change how a campaign runs or
/// fails, never what a completed job computes, so they are not here.
fn campaign_flags(o: &HuntOpts) -> [(&'static str, Flag); 11] {
    use Flag::{Present, Value};
    [
        ("--version", Value(o.config.version.to_string())),
        ("--patched", Present(o.config.patched)),
        ("--strategy", Value(o.strategy.to_string())),
        ("--seed", Value(o.seed.to_string())),
        ("--corpus", Value(o.corpus.to_string())),
        ("--budget", Value(o.budget.to_string())),
        ("--trials", Value(o.trials.to_string())),
        ("--oracles", Value(o.oracles.to_spec())),
        ("--random-order", Present(o.random_order)),
        ("--retries", Value(o.retries.to_string())),
        ("--job-deadline", Value(o.job_deadline_secs.to_string())),
    ]
}

/// A supervised child's flags: the campaign-shaping ones (its handshake
/// fingerprint checks them), its stop file, and the job/process faults.
/// The loopback coordinator hands it its heartbeat interval and lease size;
/// `--store` and `--trace-dir` stay with the supervisor: one writer per
/// resource.
fn worker_args(o: &HuntOpts) -> Vec<String> {
    let mut args = Vec::new();
    for (flag, value) in campaign_flags(o) {
        match value {
            Flag::Value(v) => args.extend([flag.to_owned(), v]),
            Flag::Present(on) => args.extend(on.then(|| flag.to_owned())),
        }
    }
    if let Some(sf) = &o.stop_file {
        args.extend(["--stop-file".into(), sf.display().to_string()]);
    }
    if !o.chaos.job.is_empty() {
        let plan = ChaosPlan {
            job: o.chaos.job.clone(),
            ..ChaosPlan::default()
        };
        args.extend(["--chaos".into(), plan.to_spec()]);
    }
    args
}

/// [`campaign_flags`] hashed for the fleet handshake: a worker must share
/// them with its coordinator for merged results to make sense.
fn fleet_fingerprint(o: &HuntOpts) -> u64 {
    let parts: Vec<(&str, String)> = campaign_flags(o)
        .into_iter()
        .map(|(flag, value)| match value {
            Flag::Value(v) => (flag, v),
            Flag::Present(on) => (flag, on.to_string()),
        })
        .collect();
    config_fingerprint(&parts)
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
    let ckpt = coordinator_checkpoint(o, "fleet");
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
    use sb_kernel::KernelVersion;

    /// A supervised child parses back every campaign-shaping flag its
    /// supervisor renders, for every strategy and kernel version, with the
    /// presence flags on and off.
    #[test]
    fn worker_args_parse_back_to_the_same_campaign() {
        let Ok(Cmd::Hunt(base)) = parse(&["hunt".to_owned()]) else {
            panic!("a bare hunt parses")
        };
        for strategy in ALL_STRATEGIES {
            for version in [KernelVersion::V5_3_10, KernelVersion::V5_12Rc3] {
                for on in [false, true] {
                    let mut o = base.clone();
                    o.strategy = strategy;
                    o.config.version = version;
                    o.config.patched = on;
                    o.random_order = on;
                    let argv = [vec!["hunt".to_owned()], worker_args(&o)].concat();
                    let Ok(Cmd::Hunt(child)) = parse(&argv) else {
                        panic!("{argv:?} does not parse")
                    };
                    assert_eq!(campaign_flags(&child), campaign_flags(&o), "{argv:?}");
                    assert_eq!(fleet_fingerprint(&child), fleet_fingerprint(&o));
                }
            }
        }
    }
}
