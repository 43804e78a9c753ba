//! Hand-rolled argument parsing (no external dependencies).

use std::path::PathBuf;

use sb_kernel::{bugs, KernelConfig, KernelVersion};
use snowboard::cluster::{Strategy, ALL_STRATEGIES};
use snowboard::{ChaosPlan, OracleSet};

/// Top-level usage text.
pub const USAGE: &str = "\
snowboard — find simulated-kernel concurrency bugs via PMC analysis

USAGE:
    snowboard <COMMAND> [OPTIONS]

COMMANDS:
    hunt          run the full pipeline and a campaign
    hunt serve    run a campaign as a fleet coordinator over TCP
    hunt join     join a fleet coordinator as a worker
    hunt chaos    self-chaos meta-campaign: run the real pipeline under
                  generated fault schedules and check standing invariants
    strategies    show per-strategy cluster counts for a corpus
    list-bugs     print the ground-truth issue registry (Table 2)
    repro         reproduce one known bug with its PMC-hinted schedule
    trace report  reconstruct stage timings and the funnel from a trace dir
    help          show this message

OPTIONS (hunt):
    --version <5.3.10|5.12-rc3>   kernel to test     [default: 5.12-rc3]
    --patched                     use the fully patched build
    --strategy <NAME>             clustering strategy [default: s-ins-pair]
                                  (s-full, s-ch, s-ch-null, s-ch-unaligned,
                                   s-ch-double, s-ins, s-ins-pair, s-mem)
    --seed <N>                    random seed        [default: 2021]
    --corpus <N>                  corpus size target [default: 100]
    --budget <N>                  max tested PMCs    [default: 400]
    --trials <N>                  trials per PMC     [default: 24]
    --workers <N>                 worker threads     [default: 4]
    --oracles <LIST>              bug oracles to run: 'all' or a comma list
                                  of race, lockrule, wakeup, atomic
                                  [default: all]
    --random-order                randomize cluster order
    --retries <N>                 attempts per job before quarantine [default: 3]
    --job-deadline <SECS>         per-job wall-clock watchdog [default: 60]
    --checkpoint <PATH>           log every verdict to the checkpoint PATH
    --resume <PATH>               resume from a checkpoint written by --checkpoint
    --resume-or-fresh <PATH>      like --resume, but a corrupt or missing
                                  checkpoint warns and starts fresh
    --trace-dir <DIR>             write structured JSONL trace events to DIR
    --chaos <SPEC>                inject scripted faults for testing: semicolon-
                                  separated plane:kind=args clauses, e.g.
                                  'job:panic=3;job:transient=1:2;proc:exit=1:9;
                                  net:drop=0:6;coord:kill-after-journal=4'.
                                  Planes: job: (panic, hang, transient),
                                  proc: (abort, exit, stall; need hunt join),
                                  net: (drop, delay, garble, halfclose; need
                                  hunt join), coord: (kill-after-journal;
                                  needs hunt serve)

OPTIONS (hunt serve), in addition to the hunt options:
    --listen <ADDR>               TCP address to listen on, e.g.
                                  127.0.0.1:7070 (required; port 0 picks a
                                  free port, printed on stderr)
    --lease-ms <N>                reclaim a worker's unfinished jobs N ms
                                  after leasing them [default: 30000]
    --batch <N>                   jobs granted per lease [default: 4]
    --crash-budget <N>            connection deaths charged to one job
                                  before it is quarantined [default: 2]
    --heartbeat-ms <N>            evict a worker heard from not at all for
                                  N ms and charge its jobs [default: 10000]
    --stop-file <PATH>            finish in-flight jobs, checkpoint, and
                                  exit 0 once PATH exists
    The merged report is bit-identical to a plain hunt with the same flags.
    A worker that dies or is evicted is not restarted: run the hunt join
    workers under a process manager that restarts them.
    --checkpoint <PATH> is the durable option: the checkpoint logs every
    result, survives a coordinator crash, and is picked up by
    'hunt serve --resume PATH'; jobs that were leased but had no logged
    result when it crashed are run again. Without it the coordinator uses a per-run
    temporary file, deleted after a clean finish.
    --chaos coord:kill-after-journal=<N> simulates a coordinator kill -9
    right after the Nth result it logs — a failover-test hook.

OPTIONS (hunt join <ADDR>), in addition to the hunt options:
    --connect-retries <N>         consecutive failed connect attempts
                                  before giving up [default: 5], holding
                                  undelivered results or not
    --stop-file <PATH>            finish the jobs in hand and leave once
                                  PATH exists
    Results are kept in memory until the coordinator answers a request
    sent after them, and redelivered after a reconnect; a worker that exits
    holding some drops them, and the coordinator runs those jobs again. A
    worker that finds the coordinator gone after the campaign ended exits 1
    like any other lost coordinator.
    The campaign flags (--seed, --corpus, --budget, --trials, ...) must
    match the coordinator's: the handshake rejects a mismatch. The
    coordinator sets the heartbeat and the lease size; --batch,
    --heartbeat-ms, --workers, --trace-dir: exit 2.

OPTIONS (hunt chaos):
    --seeds <N>                   schedules to run [default: 25]; each is a
                                  full pipeline run (plain or serve/join,
                                  alternating) under a generated
                                  fault schedule, checked against the
                                  fault-free baseline, trace verification,
                                  fault attribution, and an orphan-process
                                  scan
    --seed <N>                    schedule-generator seed [default: 2021]
    --quick                       a smaller pipeline per trial (CI scale)
    --replay <SEED/INDEX>         re-run exactly one schedule by its repro
                                  coordinates, as printed on failure
    --dir <DIR>                   scratch directory for traces and
                                  checkpoints [default: under the system
                                  temp dir; kept on failure]

OPTIONS (strategies):   --version, --patched, --seed, --corpus
OPTIONS (repro):        --bug <1|2|3|4|11|12> (console-detectable bugs)
OPTIONS (trace report): --trace-dir <DIR> (required)

EXIT CODES:
    0    success (including a graceful --stop-file shutdown)
    1    runtime failure: campaign error, missing or unverifiable trace
    2    usage error: unknown command, option, or malformed value
    3    hunt completed, but one or more jobs were quarantined
";

/// Options for the `hunt` command.
#[derive(Clone, Debug, PartialEq)]
pub struct HuntOpts {
    /// Kernel configuration.
    pub config: KernelConfig,
    /// Clustering strategy.
    pub strategy: Strategy,
    /// Random seed.
    pub seed: u64,
    /// Corpus target size.
    pub corpus: usize,
    /// Max tested PMCs.
    pub budget: usize,
    /// Trials per PMC.
    pub trials: u32,
    /// Worker threads.
    pub workers: usize,
    /// Selected bug oracles. They judge trials and select nothing else:
    /// every selection hunts the same corpus.
    pub oracles: OracleSet,
    /// Random cluster order instead of uncommon-first.
    pub random_order: bool,
    /// Attempts per job before quarantine.
    pub retries: u32,
    /// Per-job wall-clock deadline in seconds (0 = unbounded).
    pub job_deadline_secs: u64,
    /// Checkpoint file to write progress to.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint file to resume from.
    pub resume: Option<PathBuf>,
    /// With a resume path: tolerate a corrupt, truncated, or mismatched
    /// checkpoint by warning and starting fresh instead of aborting.
    pub resume_lenient: bool,
    /// Directory to write structured JSONL trace events to; `None` disables
    /// tracing entirely (the near-no-op path).
    pub trace_dir: Option<PathBuf>,
    /// `hunt serve`/`hunt join`: graceful-shutdown trigger — finish
    /// in-flight jobs, save the checkpoint, and exit cleanly once this file
    /// exists.
    pub stop_file: Option<PathBuf>,
    /// `hunt serve`: a worker silent for this long is evicted.
    pub heartbeat_ms: u64,
    /// Scripted fault injection, every plane (`--chaos`). Parse time
    /// already checked that each plane has somewhere to act.
    pub chaos: ChaosPlan,
}

/// Options for `hunt serve` (fleet coordinator).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOpts {
    /// The underlying campaign options.
    pub hunt: HuntOpts,
    /// TCP listen address.
    pub listen: String,
    /// Lease deadline in milliseconds.
    pub lease_ms: u64,
    /// Jobs granted per lease.
    pub batch: usize,
    /// Connection deaths charged to one job before quarantine.
    pub crash_budget: u32,
}

/// Options for `hunt join <addr>` (fleet worker).
#[derive(Clone, Debug, PartialEq)]
pub struct JoinOpts {
    /// The campaign options (must match the coordinator's).
    pub hunt: HuntOpts,
    /// Coordinator address.
    pub addr: String,
    /// Consecutive failed connect attempts before giving up.
    pub connect_retries: u32,
}

/// Options for `hunt chaos` (the self-chaos meta-campaign).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOpts {
    /// Number of generated schedules to run (ignored under `--replay`).
    pub seeds: u64,
    /// Schedule-generator seed.
    pub seed: u64,
    /// Smaller per-trial pipeline (CI scale).
    pub quick: bool,
    /// Re-run exactly one schedule: `(seed, index)` from a repro line.
    pub replay: Option<(u64, u64)>,
    /// Scratch directory; `None` picks one under the system temp dir.
    pub dir: Option<PathBuf>,
}

/// Parse-time sanity for `hunt serve`'s timing knobs. The lease deadline
/// must exceed the worker heartbeat interval
/// ([`snowboard::fleet::heartbeat_interval`]): a shorter lease would expire
/// between two heartbeats of a perfectly healthy worker, reassigning every
/// job it holds.
pub fn validate_timing(heartbeat_ms: u64, lease_ms: u64, batch: usize) -> Result<(), String> {
    if heartbeat_ms == 0 {
        return Err("--heartbeat-ms must be positive".into());
    }
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if batch > 4096 {
        return Err(format!("--batch must be at most 4096, got {batch}"));
    }
    if lease_ms == 0 {
        return Err("--lease-ms must be positive".into());
    }
    let timeout = std::time::Duration::from_millis(heartbeat_ms);
    let worker_heartbeat = snowboard::fleet::heartbeat_interval(timeout).as_millis();
    if u128::from(lease_ms) <= worker_heartbeat {
        return Err(format!(
            "--lease-ms ({lease_ms}) must exceed the worker heartbeat interval \
             ({worker_heartbeat} ms: --heartbeat-ms / 4, at least 25); a shorter \
             lease expires between two heartbeats of a healthy worker"
        ));
    }
    Ok(())
}

/// Parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Cmd {
    /// Full pipeline + campaign. Boxed: the options dwarf every other
    /// variant.
    Hunt(Box<HuntOpts>),
    /// Fleet coordinator: own the job universe, lease jobs to TCP workers.
    Serve(Box<ServeOpts>),
    /// Fleet worker: join a coordinator and run leased jobs.
    Join(Box<JoinOpts>),
    /// Self-chaos meta-campaign over generated fault schedules.
    Chaos(ChaosOpts),
    /// Cluster-count summary.
    Strategies {
        /// Kernel configuration.
        config: KernelConfig,
        /// Random seed.
        seed: u64,
        /// Corpus target size.
        corpus: usize,
    },
    /// Registry dump.
    ListBugs,
    /// Reproduce a known bug.
    Repro {
        /// Table 2 id.
        bug: u8,
    },
    /// Trace inspection: stage timings, funnel attrition, verification.
    TraceReport {
        /// Directory previously passed to `hunt --trace-dir`.
        trace_dir: PathBuf,
    },
    /// Usage text.
    Help,
}

/// A kernel version by the name its `Display` prints, case-insensitive,
/// with or without a leading `v`.
fn parse_version(s: &str) -> Result<KernelVersion, String> {
    let name = s.strip_prefix(['v', 'V']).unwrap_or(s);
    [KernelVersion::V5_3_10, KernelVersion::V5_12Rc3]
        .into_iter()
        .find(|v| v.to_string().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown kernel version '{s}'"))
}

/// A strategy by the name its `Display` prints, case-insensitive.
fn parse_strategy(s: &str) -> Result<Strategy, String> {
    ALL_STRATEGIES
        .into_iter()
        .find(|st| st.to_string().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown strategy '{}'", s.to_ascii_lowercase()))
}

fn take_value<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    argv.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid number '{v}'"))
}

/// Parses the `--replay SEED/INDEX` coordinates from a chaos repro line.
fn parse_replay(v: &str) -> Result<(u64, u64), String> {
    let bad = || format!("--replay: expected SEED/INDEX, got '{v}'");
    let (s, i) = v.split_once('/').ok_or_else(bad)?;
    let seed: u64 = s.trim().parse().map_err(|_| bad())?;
    let index: u64 = i.trim().parse().map_err(|_| bad())?;
    Ok((seed, index))
}

/// Parses the `hunt chaos` option tail (after `hunt chaos`).
fn parse_chaos(argv: &[String]) -> Result<Cmd, String> {
    let mut seeds = 25u64;
    let mut seed = 2021u64;
    let mut quick = false;
    let mut replay: Option<(u64, u64)> = None;
    let mut dir: Option<PathBuf> = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                seeds = parse_num(take_value(argv, &mut i, "--seeds")?, "--seeds")?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--seed" => seed = parse_num(take_value(argv, &mut i, "--seed")?, "--seed")?,
            "--quick" => quick = true,
            "--replay" => replay = Some(parse_replay(take_value(argv, &mut i, "--replay")?)?),
            "--dir" => dir = Some(PathBuf::from(take_value(argv, &mut i, "--dir")?)),
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if let Some((s, _)) = replay {
        // A repro line pins both coordinates; an explicit --seed that
        // disagrees would silently replay a different schedule.
        if argv.iter().any(|a| a == "--seed") && s != seed {
            return Err(format!(
                "--replay {s}/... already fixes the seed; drop --seed {seed}"
            ));
        }
    }
    Ok(Cmd::Chaos(ChaosOpts {
        seeds,
        seed,
        quick,
        replay,
        dir,
    }))
}

/// Where a hunt flag that `hunt join` would read nowhere belongs instead.
fn refused_by_join(flag: &str) -> Option<&'static str> {
    match flag {
        "--batch" | "--heartbeat-ms" | "--trace-dir" => {
            Some("the coordinator owns it; set it on hunt serve")
        }
        "--workers" => Some("a fleet worker runs one job at a time; start more hunt join workers"),
        _ => None,
    }
}

/// Parses a full command line (without `argv[0]`).
pub fn parse(argv: &[String]) -> Result<Cmd, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".into());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Cmd::Help),
        "list-bugs" => Ok(Cmd::ListBugs),
        "repro" => {
            let mut bug: Option<u8> = None;
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--bug" => bug = Some(parse_num(take_value(argv, &mut i, "--bug")?, "--bug")?),
                    other => return Err(format!("unknown option '{other}'")),
                }
                i += 1;
            }
            let bug = bug.ok_or("repro requires --bug <id>")?;
            if bugs::trigger(bug).is_none() {
                let known: Vec<String> = bugs::registry()
                    .iter()
                    .filter(|b| bugs::trigger(b.id).is_some())
                    .map(|b| b.id.to_string())
                    .collect();
                return Err(format!(
                    "bug #{bug} is not console-detectable; choose one of {}",
                    known.join(", ")
                ));
            }
            Ok(Cmd::Repro { bug })
        }
        "trace" => {
            let Some(sub) = argv.get(1) else {
                return Err("trace requires a subcommand (report)".into());
            };
            if sub != "report" {
                return Err(format!("unknown trace subcommand '{sub}'"));
            }
            let mut trace_dir: Option<PathBuf> = None;
            let mut i = 2;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--trace-dir" => {
                        trace_dir = Some(PathBuf::from(take_value(argv, &mut i, "--trace-dir")?))
                    }
                    other => return Err(format!("unknown option '{other}'")),
                }
                i += 1;
            }
            let trace_dir = trace_dir.ok_or("trace report requires --trace-dir <dir>")?;
            Ok(Cmd::TraceReport { trace_dir })
        }
        "strategies" | "hunt" => {
            let is_hunt = cmd == "hunt";
            // Fleet subcommands: `hunt serve --listen <addr> ...` and
            // `hunt join <addr> ...`. They reuse every hunt option.
            #[derive(PartialEq)]
            enum Mode {
                Local,
                Serve,
                Join,
            }
            let mut mode = Mode::Local;
            let mut addr: Option<String> = None;
            let mut start = 1;
            if is_hunt {
                match argv.get(1).map(String::as_str) {
                    Some("chaos") => return parse_chaos(argv),
                    Some("serve") => {
                        mode = Mode::Serve;
                        start = 2;
                    }
                    Some("join") => {
                        mode = Mode::Join;
                        let a = argv
                            .get(2)
                            .filter(|a| !a.starts_with('-'))
                            .ok_or("hunt join requires a coordinator address, e.g. hunt join 127.0.0.1:7070")?;
                        addr = Some(a.clone());
                        start = 3;
                    }
                    _ => {}
                }
            }
            let fleet = mode != Mode::Local;
            let mut listen: Option<String> = None;
            let mut lease_ms = 30_000u64;
            let mut batch = 4usize;
            let mut crash_budget = 2u32;
            let mut connect_retries = 5u32;
            let mut version = KernelVersion::V5_12Rc3;
            let mut patched = false;
            let mut strategy = Strategy::SInsPair;
            let mut seed = 2021u64;
            let mut corpus = 100usize;
            let mut budget = 400usize;
            let mut trials = 24u32;
            let mut workers = 4usize;
            let mut oracles = OracleSet::all();
            let mut random_order = false;
            let mut retries = 3u32;
            let mut job_deadline_secs = 60u64;
            let mut checkpoint: Option<PathBuf> = None;
            let mut resume: Option<PathBuf> = None;
            let mut resume_lenient = false;
            let mut trace_dir: Option<PathBuf> = None;
            let mut stop_file: Option<PathBuf> = None;
            let mut heartbeat_ms: Option<u64> = None;
            let mut chaos = ChaosPlan::default();
            let mut i = start;
            while i < argv.len() {
                if let Some(why) = refused_by_join(&argv[i]).filter(|_| mode == Mode::Join) {
                    return Err(format!("hunt join does not take {}: {why}", argv[i]));
                }
                match argv[i].as_str() {
                    "--listen" if mode == Mode::Serve => {
                        listen = Some(take_value(argv, &mut i, "--listen")?.to_owned())
                    }
                    "--lease-ms" if mode == Mode::Serve => {
                        lease_ms = parse_num(take_value(argv, &mut i, "--lease-ms")?, "--lease-ms")?
                    }
                    "--batch" if mode == Mode::Serve => {
                        batch = parse_num(take_value(argv, &mut i, "--batch")?, "--batch")?
                    }
                    "--crash-budget" if mode == Mode::Serve => {
                        crash_budget = parse_num(
                            take_value(argv, &mut i, "--crash-budget")?,
                            "--crash-budget",
                        )?
                    }
                    "--connect-retries" if mode == Mode::Join => {
                        connect_retries = parse_num(
                            take_value(argv, &mut i, "--connect-retries")?,
                            "--connect-retries",
                        )?;
                        if connect_retries == 0 {
                            return Err("--connect-retries must be at least 1".into());
                        }
                    }
                    "--version" => version = parse_version(take_value(argv, &mut i, "--version")?)?,
                    "--patched" => patched = true,
                    "--strategy" if is_hunt => {
                        strategy = parse_strategy(take_value(argv, &mut i, "--strategy")?)?
                    }
                    "--seed" => seed = parse_num(take_value(argv, &mut i, "--seed")?, "--seed")?,
                    "--corpus" => {
                        corpus = parse_num(take_value(argv, &mut i, "--corpus")?, "--corpus")?
                    }
                    "--budget" if is_hunt => {
                        budget = parse_num(take_value(argv, &mut i, "--budget")?, "--budget")?
                    }
                    "--trials" if is_hunt => {
                        trials = parse_num(take_value(argv, &mut i, "--trials")?, "--trials")?
                    }
                    "--workers" if is_hunt => {
                        workers = parse_num(take_value(argv, &mut i, "--workers")?, "--workers")?
                    }
                    "--oracles" if is_hunt => {
                        oracles = OracleSet::parse(take_value(argv, &mut i, "--oracles")?)
                            .map_err(|e| format!("--oracles: {e}"))?
                    }
                    "--random-order" if is_hunt => random_order = true,
                    "--retries" if is_hunt => {
                        retries = parse_num(take_value(argv, &mut i, "--retries")?, "--retries")?;
                        if retries == 0 {
                            return Err("--retries must be at least 1 (1 = no retries)".into());
                        }
                    }
                    "--job-deadline" if is_hunt => {
                        job_deadline_secs = parse_num(
                            take_value(argv, &mut i, "--job-deadline")?,
                            "--job-deadline",
                        )?
                    }
                    "--checkpoint" if is_hunt => {
                        checkpoint = Some(PathBuf::from(take_value(argv, &mut i, "--checkpoint")?))
                    }
                    "--resume" if is_hunt => {
                        resume = Some(PathBuf::from(take_value(argv, &mut i, "--resume")?))
                    }
                    "--resume-or-fresh" if is_hunt => {
                        resume = Some(PathBuf::from(take_value(
                            argv,
                            &mut i,
                            "--resume-or-fresh",
                        )?));
                        resume_lenient = true;
                    }
                    "--trace-dir" if is_hunt => {
                        trace_dir = Some(PathBuf::from(take_value(argv, &mut i, "--trace-dir")?))
                    }
                    "--stop-file" if is_hunt => {
                        stop_file = Some(PathBuf::from(take_value(argv, &mut i, "--stop-file")?))
                    }
                    "--heartbeat-ms" if is_hunt => {
                        let ms = parse_num(
                            take_value(argv, &mut i, "--heartbeat-ms")?,
                            "--heartbeat-ms",
                        )?;
                        if ms == 0 {
                            return Err("--heartbeat-ms must be positive".into());
                        }
                        heartbeat_ms = Some(ms);
                    }
                    "--chaos" if is_hunt => {
                        chaos = ChaosPlan::parse_spec(take_value(argv, &mut i, "--chaos")?)
                            .map_err(|e| format!("--chaos: {e}"))?
                    }
                    other => return Err(format!("unknown option '{other}'")),
                }
                i += 1;
            }
            // A plain hunt has no worker process to stop or time out.
            if stop_file.is_some() && !fleet {
                return Err("--stop-file stops a fleet campaign; it needs hunt serve \
                            or hunt join"
                    .into());
            }
            if heartbeat_ms.is_some() && !fleet {
                return Err("--heartbeat-ms times out worker processes; it needs \
                            hunt serve (with hunt join workers)"
                    .into());
            }
            let heartbeat_ms = heartbeat_ms.unwrap_or(10_000);
            if mode == Mode::Serve && listen.is_none() {
                return Err("hunt serve requires --listen <addr>".into());
            }
            // Each --chaos plane must land somewhere that can actually
            // inject it.
            if !chaos.net.is_empty() && mode != Mode::Join {
                return Err("--chaos net:* faults act on the worker's outbound \
                            link; they need hunt join"
                    .into());
            }
            let proc = &chaos.job;
            let proc_faults = !(proc.abort_jobs.is_empty()
                && proc.exit_jobs.is_empty()
                && proc.stall_jobs.is_empty());
            if proc_faults && mode != Mode::Join {
                return Err("--chaos proc:* faults fire in a worker process; \
                            they need hunt join"
                    .into());
            }
            if chaos.kill_after_journal.is_some() && mode != Mode::Serve {
                return Err("--chaos coord:* targets the coordinator; it needs \
                            hunt serve"
                    .into());
            }
            if mode == Mode::Join && (checkpoint.is_some() || resume.is_some()) {
                return Err(
                    "a fleet worker does not checkpoint (the coordinator does); \
                     drop --checkpoint/--resume from hunt join"
                        .into(),
                );
            }
            // Timing sanity (exit code 2 on nonsense instead of a fleet
            // that thrashes at runtime).
            if mode == Mode::Serve {
                validate_timing(heartbeat_ms, lease_ms, batch)?;
            }
            let mut config = match version {
                KernelVersion::V5_3_10 => KernelConfig::v5_3_10(),
                KernelVersion::V5_12Rc3 => KernelConfig::v5_12_rc3(),
            };
            if patched {
                config = config.patched();
            }
            if is_hunt {
                let hunt = HuntOpts {
                    config,
                    strategy,
                    seed,
                    corpus,
                    budget,
                    trials,
                    workers,
                    oracles,
                    random_order,
                    retries,
                    job_deadline_secs,
                    checkpoint,
                    resume,
                    resume_lenient,
                    trace_dir,
                    stop_file,
                    heartbeat_ms,
                    chaos,
                };
                Ok(match mode {
                    Mode::Local => Cmd::Hunt(Box::new(hunt)),
                    Mode::Serve => Cmd::Serve(Box::new(ServeOpts {
                        hunt,
                        listen: listen.expect("checked above"),
                        lease_ms,
                        batch,
                        crash_budget,
                    })),
                    Mode::Join => Cmd::Join(Box::new(JoinOpts {
                        hunt,
                        addr: addr.expect("checked above"),
                        connect_retries,
                    })),
                })
            } else {
                Ok(Cmd::Strategies {
                    config,
                    seed,
                    corpus,
                })
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_hunt_with_options() {
        let cmd = parse(&argv(
            "hunt --version 5.3.10 --strategy s-ins --seed 7 --budget 50 --trials 8 --random-order",
        ))
        .unwrap();
        match cmd {
            Cmd::Hunt(o) => {
                assert_eq!(o.config.version, KernelVersion::V5_3_10);
                assert_eq!(o.strategy, Strategy::SIns);
                assert_eq!((o.seed, o.budget, o.trials), (7, 50, 8));
                assert!(o.random_order);
                // Fault-tolerance defaults.
                assert_eq!(o.retries, 3);
                assert_eq!(o.job_deadline_secs, 60);
                assert_eq!(o.checkpoint, None);
                assert_eq!(o.resume, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_oracle_selection() {
        // Default: every oracle runs.
        match parse(&argv("hunt")).unwrap() {
            Cmd::Hunt(o) => assert_eq!(o.oracles, OracleSet::all()),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt --oracles race")).unwrap() {
            Cmd::Hunt(o) => assert_eq!(o.oracles, OracleSet::race_only()),
            other => panic!("unexpected {other:?}"),
        }
        // Comma lists and 'all' round-trip through to_spec.
        match parse(&argv("hunt --oracles race,wakeup")).unwrap() {
            Cmd::Hunt(o) => assert_eq!(o.oracles.to_spec(), "race,wakeup"),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt --oracles all")).unwrap() {
            Cmd::Hunt(o) => assert_eq!(o.oracles, OracleSet::all()),
            other => panic!("unexpected {other:?}"),
        }
        // serve/join share the flag (they are hunt-family commands).
        match parse(&argv("hunt serve --listen 127.0.0.1:0 --oracles lockrule")).unwrap() {
            Cmd::Serve(o) => assert_eq!(o.hunt.oracles.to_spec(), "lockrule"),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt join x:1 --oracles atomic")).unwrap() {
            Cmd::Join(o) => assert_eq!(o.hunt.oracles.to_spec(), "atomic"),
            other => panic!("unexpected {other:?}"),
        }
        // Bad specs are usage errors, and the flag is hunt-only.
        assert!(
            parse(&argv("hunt --oracles")).is_err(),
            "flag needs a value"
        );
        assert!(
            parse(&argv("hunt --oracles frob")).is_err(),
            "unknown oracle"
        );
        assert!(parse(&argv("hunt --oracles ''")).is_err(), "empty spec");
        assert!(
            parse(&argv("strategies --oracles race")).is_err(),
            "hunt-only"
        );
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let cmd = parse(&argv(
            "hunt --retries 5 --job-deadline 120 --checkpoint /tmp/cp.json --resume /tmp/old.json",
        ))
        .unwrap();
        match cmd {
            Cmd::Hunt(o) => {
                assert_eq!(o.retries, 5);
                assert_eq!(o.job_deadline_secs, 120);
                assert_eq!(o.checkpoint, Some(PathBuf::from("/tmp/cp.json")));
                assert_eq!(o.resume, Some(PathBuf::from("/tmp/old.json")));
                assert!(!o.resume_lenient, "--resume stays strict");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resume_or_fresh_sets_lenient_resume() {
        match parse(&argv("hunt --resume-or-fresh /tmp/cp.json")).unwrap() {
            Cmd::Hunt(o) => {
                assert_eq!(o.resume, Some(PathBuf::from("/tmp/cp.json")));
                assert!(o.resume_lenient);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&argv("hunt --resume-or-fresh")).is_err(),
            "needs a value"
        );
        assert!(
            parse(&argv("strategies --resume-or-fresh /x")).is_err(),
            "hunt-only"
        );
    }

    #[test]
    fn rejects_zero_retries_and_bare_flags() {
        assert!(parse(&argv("hunt --retries 0")).is_err());
        assert!(parse(&argv("hunt --checkpoint")).is_err());
        assert!(parse(&argv("hunt --job-deadline nope")).is_err());
        // These are hunt-only options.
        assert!(parse(&argv("strategies --retries 2")).is_err());
    }

    #[test]
    fn the_removed_store_options_are_refused() {
        for line in [
            "hunt --store /tmp/sbstore",
            "hunt --no-cache",
            "hunt serve --listen x --store /tmp/sbstore",
            "hunt join x:1 --store /tmp/sbstore",
            "store stats --store /tmp/sbstore",
            "store fsck --store /tmp/sbstore",
            "store repair --store /tmp/sbstore",
            "hunt --chaos disk:torn=20",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_trace_flags_and_subcommand() {
        let cmd = parse(&argv("hunt --trace-dir /tmp/sbtrace")).unwrap();
        match cmd {
            Cmd::Hunt(o) => assert_eq!(o.trace_dir, Some(PathBuf::from("/tmp/sbtrace"))),
            other => panic!("unexpected {other:?}"),
        }
        // Disabled by default.
        match parse(&argv("hunt")).unwrap() {
            Cmd::Hunt(o) => assert_eq!(o.trace_dir, None),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv("trace report --trace-dir /tmp/sbtrace")).unwrap(),
            Cmd::TraceReport {
                trace_dir: PathBuf::from("/tmp/sbtrace")
            }
        );
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace frobnicate")).is_err());
        assert!(
            parse(&argv("trace report")).is_err(),
            "--trace-dir is required"
        );
        assert!(
            parse(&argv("hunt --trace-dir")).is_err(),
            "flag needs a value"
        );
        assert!(
            parse(&argv("strategies --trace-dir /x")).is_err(),
            "hunt-only flag"
        );
    }

    #[test]
    fn a_plain_hunt_refuses_the_worker_process_flags() {
        // Defaults: in-process pool, inert plan, 10s heartbeat timeout.
        match parse(&argv("hunt")).unwrap() {
            Cmd::Hunt(o) => {
                assert_eq!(o.heartbeat_ms, 10_000);
                assert_eq!(o.stop_file, None);
                assert!(o.chaos.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        // A plain hunt has no worker process to stop, time out or kill:
        // each refusal names the fleet commands that have one.
        for (flags, names) in [
            ("--stop-file /tmp/stop", "hunt serve or hunt join"),
            ("--heartbeat-ms 500", "hunt serve"),
            ("--chaos proc:abort=2", "hunt join"),
            ("--chaos proc:stall=3", "hunt join"),
        ] {
            let err = parse(&argv(&format!("hunt {flags}"))).unwrap_err();
            assert!(err.contains(names), "{flags}: {err}");
        }
        let err = parse(&argv("hunt --supervise")).unwrap_err();
        assert!(err.contains("unknown option '--supervise'"), "{err}");
        // The worker takes its stop file and its process faults.
        match parse(&argv(
            "hunt join x:1 --stop-file /tmp/stop --chaos proc:abort=2;proc:stall=3",
        ))
        .unwrap()
        {
            Cmd::Join(o) => {
                assert_eq!(o.hunt.stop_file, Some(PathBuf::from("/tmp/stop")));
                assert!(o.hunt.chaos.job.should_abort(2));
                assert!(o.hunt.chaos.job.should_stall(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_hunt_serve_with_fleet_flags() {
        let cmd = parse(&argv(
            "hunt serve --listen 127.0.0.1:0 --lease-ms 5000 --batch 2 --crash-budget 7 \
             --seed 7 --heartbeat-ms 2000 --stop-file /tmp/stop",
        ))
        .unwrap();
        match cmd {
            Cmd::Serve(o) => {
                assert_eq!(o.listen, "127.0.0.1:0");
                assert_eq!(o.lease_ms, 5000);
                assert_eq!(o.batch, 2);
                assert_eq!(o.crash_budget, 7);
                assert_eq!(o.hunt.seed, 7);
                assert_eq!(o.hunt.heartbeat_ms, 2000);
                assert_eq!(o.hunt.stop_file, Some(PathBuf::from("/tmp/stop")));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults.
        match parse(&argv("hunt serve --listen 127.0.0.1:7070")).unwrap() {
            Cmd::Serve(o) => {
                assert_eq!((o.lease_ms, o.batch, o.crash_budget), (30_000, 4, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("hunt serve")).is_err(), "--listen is required");
        assert!(
            parse(&argv("hunt --lease-ms 5000")).is_err(),
            "serve-only flag"
        );
    }

    #[test]
    fn parses_hunt_join_with_fleet_flags() {
        let cmd = parse(&argv(
            "hunt join 10.0.0.5:7070 --connect-retries 9 --chaos net:drop=0:6 --seed 7",
        ))
        .unwrap();
        match cmd {
            Cmd::Join(o) => {
                assert_eq!(o.addr, "10.0.0.5:7070");
                assert_eq!(o.connect_retries, 9);
                assert!(o.hunt.chaos.net.drop_now(0, 7));
                assert_eq!(o.hunt.seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("hunt join")).is_err(), "address is required");
        assert!(
            parse(&argv("hunt join --batch 3")).is_err(),
            "address before flags"
        );
        assert!(parse(&argv("hunt join x:1 --connect-retries 0")).is_err());
        assert!(parse(&argv("hunt join x:1 --checkpoint /tmp/cp")).is_err());
        // The flags a worker would read nowhere name where they belong.
        for (flag, owner) in [
            ("--batch 3", "hunt serve"),
            ("--heartbeat-ms 200", "hunt serve"),
            ("--trace-dir /t", "hunt serve"),
            ("--workers 9", "more hunt join workers"),
        ] {
            let err = parse(&argv(&format!("hunt join x:1 {flag}"))).unwrap_err();
            assert!(err.contains(owner), "{flag}: {err}");
        }
        assert!(
            parse(&argv("hunt --connect-retries 2")).is_err(),
            "join-only flag"
        );
    }

    #[test]
    fn validates_fleet_timing_at_parse_time() {
        // Zero / oversized knobs are usage errors for serve...
        assert!(parse(&argv("hunt serve --listen x --lease-ms 0")).is_err());
        assert!(parse(&argv("hunt serve --listen x --batch 0")).is_err());
        assert!(parse(&argv("hunt serve --listen x --batch 5000")).is_err());
        assert!(parse(&argv("hunt serve --listen x --heartbeat-ms 0")).is_err());
        // The lease must outlive the worker heartbeat interval (hb/4).
        let err = parse(&argv(
            "hunt serve --listen x --heartbeat-ms 40000 --lease-ms 10000",
        ))
        .unwrap_err();
        assert!(err.contains("heartbeat interval"), "{err}");
        // Equal-to-interval is still too short; one past it is fine.
        assert!(validate_timing(40_000, 10_000, 4).is_err());
        assert!(validate_timing(40_000, 10_001, 4).is_ok());
        assert!(validate_timing(0, 10_001, 4).is_err());
    }

    #[test]
    fn parses_the_unified_chaos_flag() {
        match parse(&argv("hunt join x:1 --chaos job:panic=3;proc:stall=5")).unwrap() {
            Cmd::Join(o) => {
                assert!(o.hunt.chaos.job.should_panic(3));
                assert!(o.hunt.chaos.job.should_stall(5));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt join x:1 --chaos net:drop=0:6;net:delay=0:50")).unwrap() {
            Cmd::Join(o) => {
                assert!(o.hunt.chaos.net.drop_now(0, 7));
                assert!(o.hunt.chaos.net.delay_for(0).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "hunt serve --listen x --chaos coord:kill-after-journal=4",
        ))
        .unwrap()
        {
            Cmd::Serve(o) => assert_eq!(o.hunt.chaos.kill_after_journal, Some(4)),
            other => panic!("unexpected {other:?}"),
        }
        // Each plane must go where it can be injected.
        assert!(
            parse(&argv("hunt --chaos net:drop=0:6")).is_err(),
            "net needs join"
        );
        assert!(parse(&argv("hunt --chaos coord:kill-after-journal=2")).is_err());
        // Process faults fire only in a worker process: a plain hunt and a
        // coordinator (whose workers are not its children) refuse them.
        assert!(parse(&argv("hunt --chaos proc:abort=1")).is_err());
        assert!(parse(&argv("hunt serve --listen x --chaos proc:exit=1:9")).is_err());
        assert!(parse(&argv("hunt join x:1 --chaos proc:stall=1")).is_ok());
        // Bad specs are usage errors, and the flag is hunt-family-only.
        assert!(
            parse(&argv("hunt --chaos frob=1")).is_err(),
            "missing plane"
        );
        assert!(
            parse(&argv("hunt --chaos job:abort=1")).is_err(),
            "misrouted plane"
        );
        assert!(parse(&argv("strategies --chaos job:panic=1")).is_err());
    }

    #[test]
    fn parses_hunt_chaos_subcommand() {
        match parse(&argv("hunt chaos")).unwrap() {
            Cmd::Chaos(o) => {
                assert_eq!((o.seeds, o.seed, o.quick), (25, 2021, false));
                assert_eq!(o.replay, None);
                assert_eq!(o.dir, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt chaos --seeds 5 --seed 7 --quick --dir /tmp/cd")).unwrap() {
            Cmd::Chaos(o) => {
                assert_eq!((o.seeds, o.seed, o.quick), (5, 7, true));
                assert_eq!(o.dir, Some(PathBuf::from("/tmp/cd")));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("hunt chaos --replay 7/4")).unwrap() {
            Cmd::Chaos(o) => {
                assert_eq!(o.replay, Some((7, 4)));
                assert_eq!(o.seed, 2021, "replay carries its own seed");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("hunt chaos --seeds 0")).is_err());
        assert!(parse(&argv("hunt chaos --replay nope")).is_err());
        assert!(
            parse(&argv("hunt chaos --replay 7")).is_err(),
            "needs SEED/INDEX"
        );
        assert!(
            parse(&argv("hunt chaos --seed 9 --replay 7/4")).is_err(),
            "seed conflict"
        );
        assert!(
            parse(&argv("hunt chaos --budget 5")).is_err(),
            "not a hunt option"
        );
    }

    #[test]
    fn parses_repro_and_validates_bug_ids() {
        assert_eq!(
            parse(&argv("repro --bug 12")).unwrap(),
            Cmd::Repro { bug: 12 }
        );
        assert!(parse(&argv("repro --bug 9")).is_err());
        assert!(parse(&argv("repro")).is_err());
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("hunt --nope")).is_err());
        assert!(parse(&argv("hunt --strategy bogus")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn patched_flag_applies() {
        let cmd = parse(&argv("strategies --patched")).unwrap();
        match cmd {
            Cmd::Strategies { config, .. } => assert!(config.patched),
            other => panic!("unexpected {other:?}"),
        }
    }
}
