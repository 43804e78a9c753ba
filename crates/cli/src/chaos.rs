//! `hunt chaos` — the self-chaos meta-campaign.
//!
//! Runs the real pipeline (plain `hunt`, and `hunt serve`/`hunt join` over
//! TCP) under deterministically generated fault schedules and checks the
//! standing invariants after each one:
//!
//! - the merged report is bit-identical to the fault-free baseline, or
//!   the quarantine set is exactly the jobs the schedule targeted;
//! - `trace report` verifies, and its `chaos.fired.*` counters agree
//!   with the stderr fault ledger;
//! - every injected fault fired exactly as often as the schedule
//!   budgeted — no more, no less, and nothing unscheduled fired;
//! - no worker process outlives its trial.
//!
//! A failing schedule prints a stable one-line repro
//! (`hunt chaos --replay <seed>/<index>`) that regenerates the exact
//! same schedule and fails the exact same way. Everything written to
//! stdout is a pure function of the schedule stream, so a replay's
//! failure report is bit-identical to the original — paths, timings,
//! and progress chatter stay on stderr.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use snowboard::{ChaosMode, ChaosPlan, Schedule, ScheduleGen};

use crate::args::ChaosOpts;

/// Wall-clock ceiling for any single child process. Generous: a quick
/// trial finishes in seconds; the ceiling only catches a genuinely hung
/// pipeline (which is itself a chaos finding).
const CHILD_DEADLINE: Duration = Duration::from_secs(240);

/// Environment knobs that must not leak from the driver's environment
/// into the trials.
const SCRUB_ENV: &[&str] = &["SB_CHAOS_BREAK"];

/// Per-trial campaign scale.
struct Profile {
    corpus: u64,
    budget: u64,
    trials: u64,
    workers: u64,
}

impl Profile {
    fn new(quick: bool) -> Profile {
        if quick {
            Profile {
                corpus: 12,
                budget: 6,
                trials: 2,
                workers: 2,
            }
        } else {
            Profile {
                corpus: 24,
                budget: 12,
                trials: 3,
                workers: 2,
            }
        }
    }
}

/// Everything a trial needs: the binary, the scratch dir, the campaign
/// shape, and the fault-free baseline to diff against.
struct Env {
    exe: PathBuf,
    scratch: PathBuf,
    profile: Profile,
    /// Baseline stdout.
    baseline: String,
    /// Budgeted jobs in the baseline campaign (schedule targets live in
    /// `0..jobs`).
    jobs: usize,
    /// `SB_CHAOS_BREAK` self-test: expect one more quarantine than the
    /// schedule injects, so every schedule fails deterministically.
    break_mode: bool,
}

/// Captured output of one finished child.
struct RunOut {
    status: ExitStatus,
    stdout: String,
    stderr: String,
}

pub fn run_chaos(o: ChaosOpts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (scratch, scratch_is_temp) = match &o.dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("sb-chaos-{}", std::process::id())),
            true,
        ),
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "error: cannot create scratch dir {}: {e}",
            scratch.display()
        );
        return ExitCode::FAILURE;
    }

    let mut env = Env {
        exe,
        scratch,
        profile: Profile::new(o.quick),
        baseline: String::new(),
        jobs: 0,
        break_mode: std::env::var_os("SB_CHAOS_BREAK").is_some(),
    };

    match run_campaign(&mut env, &o) {
        Ok(survived) => {
            if scratch_is_temp {
                let _ = std::fs::remove_dir_all(&env.scratch);
            }
            let mut by_mode = BTreeMap::new();
            for m in &survived {
                *by_mode.entry(m.label()).or_insert(0u64) += 1;
            }
            let detail = ["plain", "fleet"]
                .iter()
                .map(|m| format!("{m} {}", by_mode.get(m).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(", ");
            println!("chaos: {} schedule(s) survived ({detail})", survived.len());
            ExitCode::SUCCESS
        }
        Err(fail) => {
            match fail {
                Fail::Setup(msg) => {
                    eprintln!("error: {msg}");
                }
                Fail::Schedule {
                    seed,
                    schedule,
                    detail,
                } => {
                    // The failure report is the product: stable, path-free,
                    // and bit-identical under --replay.
                    println!(
                        "chaos: FAIL schedule {seed}/{} mode {} spec {}",
                        schedule.index,
                        schedule.mode.label(),
                        schedule.plan.to_spec()
                    );
                    println!("  {detail}");
                    println!(
                        "repro: snowboard-cli hunt chaos --replay {seed}/{}",
                        schedule.index
                    );
                    eprintln!(
                        "[chaos] scratch kept for inspection: {}",
                        env.scratch.display()
                    );
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// Why the meta-campaign stopped early.
enum Fail {
    /// Infrastructure problems (unwritable scratch, failing baseline):
    /// not a chaos finding, no repro line.
    Setup(String),
    /// A schedule violated an invariant — the actual product.
    /// (Boxed: a `Schedule` is large and this is the cold path.)
    Schedule {
        seed: u64,
        schedule: Box<Schedule>,
        detail: String,
    },
}

fn run_campaign(env: &mut Env, o: &ChaosOpts) -> Result<Vec<ChaosMode>, Fail> {
    run_baseline(env).map_err(Fail::Setup)?;
    let mut survived = Vec::new();
    let schedules: Vec<Schedule> = match o.replay {
        Some((seed, index)) => {
            debug_assert_eq!(seed, o.seed);
            vec![ScheduleGen::nth(o.seed, env.jobs, index)]
        }
        None => {
            let mut stream = ScheduleGen::new(o.seed, env.jobs);
            (0..o.seeds).map(|_| stream.next_schedule()).collect()
        }
    };
    let total = schedules.len();
    for (i, s) in schedules.into_iter().enumerate() {
        eprintln!(
            "[chaos] schedule {}/{total}: index {} mode {} spec {}",
            i + 1,
            s.index,
            s.mode.label(),
            s.plan.to_spec()
        );
        let trial = env.scratch.join(format!("s{}", s.index));
        if let Err(e) = std::fs::create_dir_all(&trial) {
            return Err(Fail::Setup(format!(
                "cannot create trial dir {}: {e}",
                trial.display()
            )));
        }
        let result = match s.mode {
            ChaosMode::Plain => run_plain(env, &s, &trial),
            ChaosMode::Fleet => run_fleet(env, &s, &trial),
        };
        match result {
            Ok(()) => {
                eprintln!("[chaos]   ok");
                survived.push(s.mode);
            }
            Err(detail) => {
                return Err(Fail::Schedule {
                    seed: o.seed,
                    schedule: Box::new(s),
                    detail,
                });
            }
        }
    }
    Ok(survived)
}

/// Runs the fault-free plain baseline and records its stdout and job
/// count. Every schedule's "nothing was lost" oracle diffs against it.
fn run_baseline(env: &mut Env) -> Result<(), String> {
    eprintln!("[chaos] baseline: fault-free plain hunt...");
    let dir = env.scratch.join("baseline");
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch: {e}"))?;
    let mut args = hunt_args(env);
    args.extend(trace_args(&dir));
    let out = run_to_end(env, &args, &dir, "baseline")?;
    if !out.status.success() {
        return Err(format!(
            "fault-free baseline failed (exit {:?}); chaos needs a green pipeline first",
            out.status.code()
        ));
    }
    let jobs =
        parse_tested(&out.stdout).ok_or("baseline report is missing the 'tested N PMCs' line")?;
    if jobs < 2 {
        return Err(format!(
            "baseline tested only {jobs} PMC(s); chaos schedules need at least 2 \
             (raise --budget/--corpus)"
        ));
    }
    env.baseline = out.stdout;
    env.jobs = jobs;
    eprintln!("[chaos] baseline: {jobs} job(s)");
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-mode trials
// ---------------------------------------------------------------------------

/// One in-process `hunt` under the schedule's job faults.
fn run_plain(env: &Env, s: &Schedule, trial: &Path) -> Result<(), String> {
    let tdir = trial.join("trace");
    let mut args = hunt_args(env);
    args.extend(trace_args(&tdir));
    args.extend(chaos_args(&s.plan));
    let out = run_to_end(env, &args, trial, "hunt")?;
    let ledger = tally(&[&out.stderr]);
    check_outcome(env, s, &out)?;
    check_expectations(s, &ledger)?;
    check_counters(env, s, &tdir, &ledger, trial)
}

/// `hunt serve` + `hunt join` over TCP. Net faults act on the worker's
/// outbound link; the coordinator kill switch crashes the coordinator
/// after a logged record, after which a second coordinator resumes from
/// the checkpoint log on the same address and the spooling worker
/// redelivers across the outage. A process fault kills (or wedges)
/// whichever worker leases its job, so it runs three workers at one job
/// per lease under a crash budget of two: the two deaths the schedule
/// budgets, and one worker that finishes the campaign.
fn run_fleet(env: &Env, s: &Schedule, trial: &Path) -> Result<(), String> {
    let worker_plan = ChaosPlan {
        job: s.plan.job.clone(),
        net: s.plan.net.clone(),
        ..Default::default()
    };
    let procs = s.expected.iter().any(|e| e.site.starts_with("proc."));
    let (batch, crash_budget, workers) = if procs { ("1", "2", 3) } else { ("2", "3", 1) };
    let tdir = trial.join("trace");
    let ckpt = trial.join("ckpt.json");

    let serve_base = |listen: &str| {
        let mut args = vec![
            "hunt".to_string(),
            "serve".into(),
            "--listen".into(),
            listen.into(),
        ];
        args.extend(hunt_args(env).split_off(1));
        args.extend(heartbeat_args());
        args.extend([
            "--lease-ms".into(),
            "120000".into(),
            "--batch".into(),
            batch.into(),
            "--crash-budget".into(),
            crash_budget.into(),
        ]);
        args
    };

    // First (possibly only) coordinator.
    let mut args1 = serve_base("127.0.0.1:0");
    let killed = s.plan.kill_after_journal.is_some();
    if killed {
        args1.extend([
            "--checkpoint".into(),
            ckpt.display().to_string(),
            "--chaos".into(),
            format!(
                "coord:kill-after-journal={}",
                s.plan.kill_after_journal.unwrap()
            ),
        ]);
    } else {
        args1.extend(trace_args(&tdir));
    }
    let (mut serve, serve_out, serve_err) = spawn_to_files(env, &args1, trial, "serve1")?;
    let addr = match wait_for_listen(&serve_err) {
        Ok(a) => a,
        Err(e) => {
            let _ = serve.kill();
            let _ = serve.wait();
            return Err(e);
        }
    };

    // Spooling workers, retrying hard enough to ride out a coordinator
    // outage.
    let mut joins = Vec::new();
    for i in 0..workers {
        let mut jargs = vec!["hunt".to_string(), "join".into(), addr.clone()];
        jargs.extend(campaign_args(env));
        jargs.extend([
            "--connect-retries".into(),
            "200".into(),
            "--spool".into(),
            trial.join(format!("spool{i}.wal")).display().to_string(),
        ]);
        jargs.extend(chaos_args(&worker_plan));
        let (child, _w_out, w_err) = spawn_to_files(env, &jargs, trial, &format!("worker{i}"))?;
        joins.push((child, w_err));
    }

    let trial_marker = trial.display().to_string();
    let finish = |env: &Env,
                  s: &Schedule,
                  final_out: RunOut,
                  stderrs: Vec<String>,
                  tdir: PathBuf|
     -> Result<(), String> {
        no_orphans(&trial_marker, "orphan fleet process(es) outlived the trial")?;
        let refs: Vec<&str> = stderrs.iter().map(String::as_str).collect();
        let ledger = tally(&refs);
        check_outcome(env, s, &final_out)?;
        check_expectations(s, &ledger)?;
        // Fleet fault counters are ledger-only (workers run disabled
        // tracers; a killed coordinator never flushes), but the surviving
        // coordinator's trace must still verify end to end.
        let report = run_to_end(
            env,
            &[
                "trace".into(),
                "report".into(),
                "--trace-dir".into(),
                tdir.display().to_string(),
            ],
            &tdir,
            "trace-report",
        )?;
        if !report.status.success() || !report.stdout.contains("verification: OK") {
            return Err("trace report failed to verify the fleet campaign".into());
        }
        Ok(())
    };

    if !killed {
        let s_status = wait_deadline(&mut serve, "fleet coordinator")?;
        let out = collect(s_status, &serve_out, &serve_err)?;
        let mut stderrs = vec![out.stderr.clone()];
        for (mut worker, w_err) in joins {
            if procs {
                // The coordinator's verdicts are the outcome; a worker a
                // stall wedged outlives it and is stopped here.
                if !matches!(worker.try_wait(), Ok(Some(_))) {
                    let _ = worker.kill();
                    let _ = worker.wait();
                }
            } else {
                let w_status = wait_deadline(&mut worker, "fleet worker")?;
                if !w_status.success() {
                    let _ = std::fs::read_to_string(&w_err).map(|s| eprint!("{s}"));
                    return Err(format!(
                        "fleet worker failed (exit {:?}), expected success",
                        w_status.code()
                    ));
                }
            }
            stderrs.push(std::fs::read_to_string(&w_err).unwrap_or_default());
        }
        return finish(env, s, out, stderrs, tdir);
    }
    let (mut worker, w_err) = joins.pop().expect("one worker rides out the kill");

    // Kill-switch path: the first coordinator must die loudly, leaving a
    // checkpoint log for a second one to resume on the same address.
    let status1 = wait_deadline(&mut serve, "fleet coordinator (pre-kill)")?;
    let out1 = collect(status1, &serve_out, &serve_err)?;
    if out1.status.success() {
        let _ = worker.kill();
        let _ = worker.wait();
        return Err("coordinator survived its own kill switch".into());
    }
    if !out1.stderr.contains("kill switch") {
        let _ = worker.kill();
        let _ = worker.wait();
        return Err("coordinator died, but not by the kill switch".into());
    }
    if snowboard::Checkpoint::load(&ckpt).is_err() {
        let _ = worker.kill();
        let _ = worker.wait();
        return Err("killed coordinator left no loadable checkpoint".into());
    }

    // Resume on the same port; the dead listener can leave it in
    // TIME_WAIT, so retry the bind while the worker keeps reconnecting.
    let mut args2 = serve_base(&addr);
    args2.extend([
        "--resume".into(),
        ckpt.display().to_string(),
        "--checkpoint".into(),
        ckpt.display().to_string(),
    ]);
    args2.extend(trace_args(&tdir));
    let deadline = Instant::now() + Duration::from_secs(60);
    let resumed = loop {
        let (mut serve2, out2, err2) = spawn_to_files(env, &args2, trial, "serve2")?;
        match wait_for_listen(&err2) {
            Ok(_) => break (serve2, out2, err2),
            Err(_) if Instant::now() < deadline => {
                let _ = serve2.kill();
                let _ = serve2.wait();
                std::thread::sleep(Duration::from_millis(500));
            }
            Err(e) => {
                let _ = serve2.kill();
                let _ = serve2.wait();
                let _ = worker.kill();
                let _ = worker.wait();
                return Err(format!("resumed coordinator never bound: {e}"));
            }
        }
    };
    let (mut serve2, out2_path, err2_path) = resumed;
    let w_status = wait_deadline(&mut worker, "fleet worker")?;
    let s_status = wait_deadline(&mut serve2, "fleet coordinator (resumed)")?;
    if !w_status.success() {
        let _ = std::fs::read_to_string(&w_err).map(|s| eprint!("{s}"));
        return Err(format!(
            "spooling worker failed across the failover (exit {:?})",
            w_status.code()
        ));
    }
    let out2 = collect(s_status, &out2_path, &err2_path)?;
    let worker_err = std::fs::read_to_string(&w_err).unwrap_or_default();
    let stderrs = vec![out1.stderr, out2.stderr.clone(), worker_err];
    finish(env, s, out2, stderrs, tdir)
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The report-level invariant: a schedule without quarantine targets must
/// leave the pipeline's stdout bit-identical to the fault-free baseline;
/// a schedule with targets must quarantine exactly that many jobs and
/// exit with the quarantine code, nothing else.
fn check_outcome(env: &Env, s: &Schedule, out: &RunOut) -> Result<(), String> {
    let expected_q = s.quarantine_jobs.len() + usize::from(env.break_mode);
    if expected_q == 0 {
        if !out.status.success() {
            return Err(format!(
                "pipeline exit {:?}, expected success with no quarantines",
                out.status.code()
            ));
        }
        // A transient-failed job retries under a deterministic reseed
        // (attempt 0 keeps the historical seed; retries deliberately draw
        // fresh trials), so its outcome is a different — equally valid —
        // sample. The invariant there is completion, not bit-identity.
        if s.plan.job.transient_failures.is_empty() {
            if out.stdout != env.baseline {
                return Err("report diverged from the fault-free baseline".into());
            }
        } else if parse_tested(&out.stdout) != Some(env.jobs) {
            return Err(format!(
                "a transient-retried job never completed: report tested {} of {} job(s)",
                parse_tested(&out.stdout).unwrap_or(0),
                env.jobs
            ));
        }
        return Ok(());
    }
    if out.status.code() != Some(3) {
        return Err(format!(
            "pipeline exit {:?}, expected the quarantine exit code 3",
            out.status.code()
        ));
    }
    let got = parse_quarantined(&out.stdout).unwrap_or(0);
    if got != expected_q {
        return Err(format!(
            "expected exactly {expected_q} quarantined job(s), report shows {got}"
        ));
    }
    Ok(())
}

/// Every scheduled fault fired exactly as often as budgeted, and nothing
/// unscheduled fired at all.
fn check_expectations(s: &Schedule, ledger: &BTreeMap<String, u64>) -> Result<(), String> {
    for e in &s.expected {
        let got = ledger.get(e.site).copied().unwrap_or(0);
        if got != e.count {
            return Err(format!(
                "site {}: fired {got} time(s), schedule budgeted exactly {}",
                e.site, e.count
            ));
        }
    }
    for site in ledger.keys() {
        if s.expectation(site).is_none() {
            return Err(format!("site {site} fired without being scheduled"));
        }
    }
    Ok(())
}

/// `trace report` must verify the trace dir, and the `chaos.fired.*`
/// counter family it renders must agree with the stderr ledger for every
/// site a plain hunt fires in its own process (the job plane).
fn check_counters(
    env: &Env,
    s: &Schedule,
    trace_dir: &Path,
    ledger: &BTreeMap<String, u64>,
    trial: &Path,
) -> Result<(), String> {
    let report = run_to_end(
        env,
        &[
            "trace".into(),
            "report".into(),
            "--trace-dir".into(),
            trace_dir.display().to_string(),
        ],
        trial,
        "trace-report",
    )?;
    if !report.status.success() {
        return Err("trace report failed for an injected-fault run".into());
    }
    if !report.stdout.contains("verification: OK") {
        return Err("trace report verification failed for an injected-fault run".into());
    }
    let counters = parse_chaos_section(&report.stdout);
    for e in &s.expected {
        let counted = counters.get(e.site).copied().unwrap_or(0);
        let fired = ledger.get(e.site).copied().unwrap_or(0);
        if counted != fired {
            return Err(format!(
                "site {}: trace counter attributes {counted} firing(s), stderr ledger saw {fired}",
                e.site
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Command plumbing
// ---------------------------------------------------------------------------

/// The shared hunt argument vector: the campaign every run hunts, then the
/// pool size, which a fleet worker leaves to its coordinator.
fn hunt_args(env: &Env) -> Vec<String> {
    let mut args = vec!["hunt".to_owned()];
    args.extend(campaign_args(env));
    args.extend(["--workers".into(), env.profile.workers.to_string()]);
    args
}

/// The heartbeat timeout, for the runs that have worker processes to time
/// out: `hunt serve`. A plain hunt refuses the flag.
fn heartbeat_args() -> [String; 2] {
    ["--heartbeat-ms".into(), "1500".into()]
}

/// The campaign flags; fleet fingerprinting requires serve and join to
/// agree on every one of these.
fn campaign_args(env: &Env) -> Vec<String> {
    let p = &env.profile;
    [
        ("--version", "5.12-rc3".to_owned()),
        ("--seed", "7".into()),
        ("--corpus", p.corpus.to_string()),
        ("--budget", p.budget.to_string()),
        ("--trials", p.trials.to_string()),
        ("--oracles", "race".into()),
        ("--retries", "3".into()),
        ("--job-deadline", "5".into()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_owned(), value])
    .collect()
}

fn trace_args(dir: &Path) -> Vec<String> {
    vec!["--trace-dir".into(), dir.display().to_string()]
}

fn chaos_args(plan: &ChaosPlan) -> Vec<String> {
    if plan.is_empty() {
        Vec::new()
    } else {
        vec!["--chaos".into(), plan.to_spec()]
    }
}

fn command(env: &Env, args: &[String]) -> Command {
    let mut c = Command::new(&env.exe);
    c.args(args);
    for k in SCRUB_ENV {
        c.env_remove(k);
    }
    c
}

/// Spawns with stdout/stderr redirected to files in `dir` (tagged by
/// `label`), so a listener's address can be polled mid-run and nothing
/// deadlocks on a full pipe.
fn spawn_to_files(
    env: &Env,
    args: &[String],
    dir: &Path,
    label: &str,
) -> Result<(Child, PathBuf, PathBuf), String> {
    let out_path = dir.join(format!("{label}.out"));
    let err_path = dir.join(format!("{label}.err"));
    let out = File::create(&out_path).map_err(|e| format!("scratch: {e}"))?;
    let err = File::create(&err_path).map_err(|e| format!("scratch: {e}"))?;
    let child = command(env, args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn pipeline process: {e}"))?;
    Ok((child, out_path, err_path))
}

/// Spawn, wait (bounded), and collect both streams.
fn run_to_end(env: &Env, args: &[String], dir: &Path, label: &str) -> Result<RunOut, String> {
    let (mut child, out_path, err_path) = spawn_to_files(env, args, dir, label)?;
    let status = wait_deadline(&mut child, label)?;
    collect(status, &out_path, &err_path)
}

fn collect(status: ExitStatus, out_path: &Path, err_path: &Path) -> Result<RunOut, String> {
    let stdout = std::fs::read_to_string(out_path).map_err(|e| format!("scratch: {e}"))?;
    let stderr = std::fs::read_to_string(err_path).map_err(|e| format!("scratch: {e}"))?;
    Ok(RunOut {
        status,
        stdout,
        stderr,
    })
}

/// Waits for a child within [`CHILD_DEADLINE`]; a blown deadline kills
/// the child and fails the trial (a hung pipeline is a finding).
fn wait_deadline(child: &mut Child, what: &str) -> Result<ExitStatus, String> {
    let deadline = Instant::now() + CHILD_DEADLINE;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{what} exceeded the {}s trial deadline",
                        CHILD_DEADLINE.as_secs()
                    ));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("wait for {what} failed: {e}")),
        }
    }
}

/// Polls a coordinator's stderr file for its `listening on <addr>` line.
fn wait_for_listen(err_path: &Path) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(err_path) {
            for line in text.lines() {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    return Ok(addr.trim().to_string());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err("coordinator never printed its listening address".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Scans `/proc` for processes whose command line carries `marker`,
/// with a short grace period for normal teardown.
fn no_orphans(marker: &str, msg: &str) -> Result<(), String> {
    for _ in 0..40 {
        if !any_process_matching(marker) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(msg.to_string())
}

fn any_process_matching(marker: &str) -> bool {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return false;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Ok(pid) = name.to_string_lossy().parse::<u32>() else {
            continue;
        };
        if pid == me {
            continue;
        }
        let Ok(raw) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
        if cmdline.contains(marker) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Output parsing
// ---------------------------------------------------------------------------

/// Job count from the report's `tested N PMCs in M executions` line.
fn parse_tested(stdout: &str) -> Option<usize> {
    let rest = stdout.split("tested ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Quarantine count from the report's `quarantined N job(s):` line.
fn parse_quarantined(stdout: &str) -> Option<usize> {
    let rest = stdout.split("quarantined ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Tallies `[chaos] fired <site> ...` ledger lines per site across the
/// captured stderr of every process in a trial.
fn tally(stderrs: &[&str]) -> BTreeMap<String, u64> {
    let mut t = BTreeMap::new();
    for s in stderrs {
        for line in s.lines() {
            if let Some(site) = snowboard::chaos::ledger_site(line) {
                *t.entry(site.to_string()).or_insert(0) += 1;
            }
        }
    }
    t
}

/// Parses the `chaos faults fired:` section of a `trace report`.
fn parse_chaos_section(report: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut in_section = false;
    for line in report.lines() {
        if line.trim() == "chaos faults fired:" {
            in_section = true;
            continue;
        }
        if in_section {
            if line.trim().is_empty() {
                in_section = false;
                continue;
            }
            let mut it = line.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(site), Some(n), None) => match n.parse() {
                    Ok(n) => {
                        out.insert(site.to_string(), n);
                    }
                    Err(_) => in_section = false,
                },
                _ => in_section = false,
            }
        }
    }
    out
}
