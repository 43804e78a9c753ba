//! End-to-end CLI tests driving the built `snowboard-cli` binary.

use std::process::{Command, Output};

use proptest::ScratchDir;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snowboard-cli"))
}

fn scratch_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("cli-{name}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn hunt_survives_an_unwritable_trace_destination() {
    // A trace dir whose path runs through a regular file can never be
    // created (NotADirectory, even for root); the hunt must warn, disable
    // tracing, and still complete the campaign.
    let dir = scratch_dir("blocked-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();
    let out = bin()
        .args([
            "hunt",
            "--corpus",
            "6",
            "--budget",
            "4",
            "--trials",
            "1",
            "--workers",
            "2",
            "--seed",
            "3",
            "--trace-dir",
        ])
        .arg(file.join("trace"))
        .output()
        .expect("run hunt");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "hunt must not abort on a bad trace dir: {err}"
    );
    assert!(
        err.contains("tracing disabled"),
        "expected a one-time warning, got: {err}"
    );
    assert!(
        !err.contains("events written"),
        "must not claim a trace was written: {err}"
    );
}

#[test]
fn trace_report_fails_without_a_trace() {
    let dir = scratch_dir("no-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .args(["trace", "report", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("run trace report");
    assert!(!out.status.success(), "missing trace must be an error");
}

/// `strategies` describes the corpus `hunt` hunts, and `--oracles` selects
/// oracles, not a corpus: at one seed and corpus size, `strategies` counts
/// the PMCs and S-INS-PAIR clusters that the `[hunt]` header of a default
/// hunt and of a race-only hunt both report.
#[test]
fn strategies_and_every_oracle_selection_describe_the_hunted_corpus() {
    let header = |extra: &[&str]| {
        let out = bin()
            .args(["hunt", "--seed", "2021"])
            .args(extra)
            .output()
            .expect("run hunt");
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        err.lines()
            .find(|l| l.starts_with("[hunt] 100 tests"))
            .unwrap_or_else(|| panic!("no corpus header: {err}"))
            .to_owned()
    };
    let hunt = header(&[]);
    assert_eq!(hunt, "[hunt] 100 tests, 401 PMCs, 191 S-INS-PAIR clusters");
    assert_eq!(header(&["--oracles", "race"]), hunt);
    let out = bin()
        .args(["strategies", "--seed", "2021", "--corpus", "100"])
        .output()
        .expect("run strategies");
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.starts_with("corpus: 100 tests, ")
            && text.lines().next().unwrap().ends_with(" 401 PMCs"),
        "{text}"
    );
    let pair = text.lines().find(|l| l.starts_with("S-INS-PAIR "));
    assert_eq!(
        pair.map(|l| l.split_whitespace().collect::<Vec<_>>()),
        Some(vec!["S-INS-PAIR", "191"]),
        "{text}"
    );
}

/// A small, fast hunt configuration shared by the worker-process tests.
/// `seed` varies per test so concurrent tests can tell their worker
/// processes apart in /proc.
fn small_hunt(seed: &str) -> Vec<String> {
    [
        "hunt",
        "--corpus",
        "12",
        "--budget",
        "10",
        "--trials",
        "2",
        "--workers",
        "2",
        "--seed",
        seed,
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// The coordinator's heartbeat timeout in these tests: one a loaded machine
/// cannot trip. (A plain hunt refuses the timeout: it has no worker process
/// to time out.)
const HEARTBEAT: [&str; 2] = ["--heartbeat-ms", "30000"];

/// Shared teardown oracle for process-spawning tests: after a run finishes,
/// no worker process tagged with our `--seed <seed>` plus `marker` (e.g.
/// `join`: fleet workers are `hunt join` processes) may
/// still be alive. A short grace period absorbs exit races; anything that
/// outlives it is an orphan and fails the test.
fn no_orphans(seed: &str, marker: &str) {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut alive: Vec<String> = Vec::new();
        for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
            let name = entry.file_name();
            if !name
                .to_str()
                .is_some_and(|s| s.bytes().all(|b| b.is_ascii_digit()))
            {
                continue;
            }
            let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else {
                continue;
            };
            let args: Vec<&str> = raw
                .split(|&b| b == 0)
                .filter_map(|a| std::str::from_utf8(a).ok())
                .collect();
            let ours = args.windows(2).any(|w| w == ["--seed", seed]);
            if ours && args.contains(&marker) {
                alive.push(args.join(" "));
            }
        }
        if alive.is_empty() {
            return;
        }
        if Instant::now() > deadline {
            panic!("orphan worker process(es) outlived the run: {alive:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn exit_codes_are_pinned() {
    // 0: success.
    let help = bin().arg("help").output().expect("run help");
    assert_eq!(help.status.code(), Some(0));
    // 2: usage error.
    let usage = bin()
        .args(["hunt", "--frobnicate"])
        .output()
        .expect("run bad flag");
    assert_eq!(usage.status.code(), Some(2), "usage errors exit 2");
    // 1: runtime failure (no trace to report on).
    let dir = scratch_dir("exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let runtime = bin()
        .args(["trace", "report", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("run trace report");
    assert_eq!(runtime.status.code(), Some(1), "runtime failures exit 1");
    // 3: hunt completed, but a job was quarantined (injected panic).
    let quarantined = bin()
        .args([
            "hunt",
            "--corpus",
            "6",
            "--budget",
            "4",
            "--trials",
            "1",
            "--workers",
            "2",
            "--seed",
            "3",
            "--chaos",
            "job:panic=1",
        ])
        .output()
        .expect("run faulted hunt");
    assert_eq!(
        quarantined.status.code(),
        Some(3),
        "quarantines exit 3; stderr: {}",
        String::from_utf8_lossy(&quarantined.stderr)
    );
    assert!(
        stdout(&quarantined).contains("quarantined 1 job(s)"),
        "stdout: {}",
        stdout(&quarantined)
    );
}

#[test]
fn hunt_trace_round_trips_through_trace_report() {
    let dir = scratch_dir("hunt-trace");
    let hunt = bin()
        .args([
            "hunt",
            "--corpus",
            "12",
            "--budget",
            "10",
            "--trials",
            "2",
            "--workers",
            "2",
            "--seed",
            "3",
            "--trace-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run hunt");
    assert!(
        hunt.status.success(),
        "hunt failed: {}",
        String::from_utf8_lossy(&hunt.stderr)
    );

    // Every emitted line must schema-parse as a trace event.
    let raw = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    let mut kinds = std::collections::BTreeSet::new();
    for (n, line) in raw.lines().enumerate() {
        let ev = sb_obs::Event::parse_line(line)
            .unwrap_or_else(|e| panic!("line {}: {e}: {line}", n + 1));
        kinds.insert(ev.kind());
    }
    for expected in ["span_start", "span_end", "count", "job", "summary"] {
        assert!(
            kinds.contains(expected),
            "no {expected} event in trace; kinds: {kinds:?}"
        );
    }

    // The reconstruction must agree with the run's own summary record,
    // which `hunt` emitted from its authoritative CampaignReport.
    let report = bin()
        .args(["trace", "report", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("run trace report");
    let text = stdout(&report);
    assert!(
        report.status.success(),
        "trace report exited nonzero:\n{text}\n{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(
        text.contains("verification: OK"),
        "unexpected report:\n{text}"
    );
    assert!(text.contains("funnel:"), "missing funnel section:\n{text}");
}

// ---------------------------------------------------------------------------
// Fleet mode (`hunt serve` / `hunt join`)
// ---------------------------------------------------------------------------

/// Spawns `hunt serve` on an ephemeral port with `extra` hunt flags and
/// returns the child plus the address it actually bound (parsed from the
/// `[fleet] listening on ...` stderr line). A thread keeps draining stderr
/// so the child can never block on a full pipe; joining it after the child
/// exits yields everything the child wrote after that line.
fn spawn_serve(
    tail: &[String],
    extra: &[&str],
) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
    use std::io::BufRead;
    let mut child = bin()
        .args(["hunt", "serve", "--listen", "127.0.0.1:0"])
        .args(tail)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hunt serve");
    let mut reader = std::io::BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read serve stderr") > 0 {
        if let Some(rest) = line.trim().strip_prefix("[fleet] listening on ") {
            addr = Some(rest.to_owned());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("serve never printed its listen address");
    let drain = std::thread::spawn(move || {
        use std::io::Read;
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });
    (child, addr, drain)
}

/// A coordinator's hunt flags: its workers' campaign, plus the pool size
/// and heartbeat timeout only the coordinator reads.
fn serve_tail(seed: &str) -> Vec<String> {
    let mut tail = small_hunt(seed)[1..].to_vec();
    tail.extend(HEARTBEAT.map(String::from));
    tail
}

/// A worker's hunt flags: the campaign alone, which must match the
/// coordinator's or the handshake rejects the worker. (`hunt join` refuses
/// the coordinator's own settings.)
fn join_tail(seed: &str) -> Vec<String> {
    serve_tail(seed)
        .chunks(2)
        .filter(|flag| !["--workers", "--heartbeat-ms"].contains(&flag[0].as_str()))
        .flatten()
        .cloned()
        .collect()
}

#[test]
fn fleet_hunt_matches_the_in_process_run_bit_for_bit() {
    // The acceptance bar for fleet mode: a coordinator plus two TCP worker
    // processes must print exactly the report a single-process run prints.
    let clean = bin().args(small_hunt("17")).output().expect("run hunt");
    assert!(
        clean.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let (serve, addr, serve_err) = spawn_serve(&serve_tail("17"), &["--batch", "2"]);
    let workers: Vec<_> = (0..2)
        .map(|_| {
            bin()
                .args(["hunt", "join", &addr])
                .args(join_tail("17"))
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn hunt join")
        })
        .collect();
    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert!(out.status.success(), "serve failed: {err}");
    assert_eq!(
        stdout(&clean),
        stdout(&out),
        "fleet report diverged from the clean run"
    );
    assert!(err.contains("[fleet]"), "missing fleet summary: {err}");
    // The campaign is a tenth of a second of work: one worker can drain it,
    // and the coordinator exit, before the other has connected. That worker
    // finds nobody listening — the coordinator listens from before it
    // printed its address until it exits — and must say exactly that. So
    // every worker either joined and succeeded or never joined, and the
    // coordinator's own count of joins is the number that succeeded.
    let mut joined = 0;
    for w in workers {
        let out = w.wait_with_output().expect("await worker");
        let werr = String::from_utf8_lossy(&out.stderr);
        if out.status.success() {
            joined += 1;
            continue;
        }
        let errors: Vec<&str> = werr.lines().filter(|l| l.starts_with("error:")).collect();
        assert!(
            out.status.code() == Some(1)
                && errors.len() == 1
                && errors[0].contains("cannot reach coordinator"),
            "a worker may only fail by arriving after the coordinator left: {werr}"
        );
    }
    assert!(joined >= 1, "no worker succeeded");
    assert!(
        err.contains(&format!("[fleet] {joined} worker(s) joined, 0 rejected")),
        "{joined} worker(s) succeeded, the coordinator counted otherwise: {err}"
    );
    no_orphans("17", "join");
}

/// Starts `n` `hunt join` workers of the coordinator at `addr` on the
/// campaign of [`small_hunt`]`(seed)`, with `extra` worker flags.
fn spawn_joins(addr: &str, seed: &str, n: usize, extra: &[&str]) -> Vec<std::process::Child> {
    (0..n)
        .map(|_| {
            bin()
                .args(["hunt", "join", addr])
                .args(join_tail(seed))
                .args(extra)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn hunt join")
        })
        .collect()
}

/// How many `[chaos] fired <site>` ledger lines `workers` printed. A worker
/// still running (a stalled one) is killed first: its ledger line was
/// printed before it stalled.
fn fired_in(workers: Vec<std::process::Child>, site: &str) -> usize {
    let prefix = format!("[chaos] fired {site} ");
    workers
        .into_iter()
        .map(|mut w| {
            if w.try_wait().expect("poll worker").is_none() {
                let _ = w.kill();
            }
            let out = w.wait_with_output().expect("await worker");
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .filter(|l| l.starts_with(&prefix))
                .count()
        })
        .sum()
}

#[test]
fn fleet_hunt_survives_a_worker_sigkill() {
    let clean = bin().args(small_hunt("11")).output().expect("run hunt");
    assert!(clean.status.success());

    // The kill closes the victim's connection, which evicts it at once;
    // the drain waits for live connections only, not for the dead worker.
    let (serve, addr, serve_err) = spawn_serve(&serve_tail("11"), &["--heartbeat-ms", "5000"]);
    // The victim joins alone and parks on job 0, so it holds a lease when
    // it is SIGKILLed (an external OOM kill); the second worker joins only
    // then, and must rerun what the victim held.
    let mut victim = spawn_joins(&addr, "11", 1, &["--chaos", "proc:stall=0"]).remove(0);
    let mut victim_err = std::io::BufReader::new(victim.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    while !line.starts_with("[chaos] fired proc.stall") {
        line.clear();
        let read = std::io::BufRead::read_line(&mut victim_err, &mut line).expect("read");
        assert!(read > 0, "the victim exited before it parked on job 0");
    }
    let survivor = spawn_joins(&addr, "11", 1, &[]);
    victim.kill().expect("SIGKILL the parked worker");
    let _ = victim.wait();

    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert!(out.status.success(), "killed run must still succeed: {err}");
    assert!(
        err.contains(" 1 eviction(s)"),
        "the kill is one eviction: {err}"
    );
    // The survivor reran what the dead worker held, with identical seeds:
    // bit-identical output.
    assert_eq!(
        stdout(&clean),
        stdout(&out),
        "post-kill report diverged from the clean run"
    );
    for w in survivor {
        assert!(w.wait_with_output().expect("await worker").status.success());
    }
    no_orphans("11", "join");
}

#[test]
fn fleet_stop_file_checkpoints_then_resumes() {
    let dir = scratch_dir("stop-file");
    std::fs::create_dir_all(&dir).unwrap();
    let stop = dir.join("stop").display().to_string();
    let ckpt = dir.join("ckpt.json").display().to_string();
    std::fs::write(&stop, b"").unwrap();

    // With the stop file already present, the coordinator comes down
    // gracefully before testing anything, leaving a resumable checkpoint.
    let (serve, _addr, serve_err) = spawn_serve(
        &serve_tail("7"),
        &["--stop-file", &stop, "--checkpoint", &ckpt],
    );
    let stopped = serve.wait_with_output().expect("await stopped serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert!(stopped.status.success(), "graceful stop is exit 0: {err}");
    assert!(err.contains("stopped by stop file"), "stderr: {err}");
    assert!(
        std::path::Path::new(&ckpt).is_file(),
        "stop must leave the checkpoint behind"
    );

    // Resuming without the stop file finishes the campaign and matches a
    // clean single-process run exactly.
    std::fs::remove_file(&stop).unwrap();
    let (serve, addr, serve_err) = spawn_serve(
        &serve_tail("7"),
        &["--resume", &ckpt, "--checkpoint", &ckpt],
    );
    let workers = spawn_joins(&addr, "7", 1, &[]);
    let resumed = serve.wait_with_output().expect("await resumed serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert!(resumed.status.success(), "stderr: {err}");
    let clean = bin().args(small_hunt("7")).output().expect("run hunt");
    assert_eq!(stdout(&clean), stdout(&resumed), "resumed run diverged");
    for w in workers {
        assert!(w.wait_with_output().expect("await worker").status.success());
    }
    no_orphans("7", "join");
}

#[test]
fn fleet_crash_injection_quarantines_and_exits_3() {
    // Every worker aborts on job 2. At one job per lease and a crash budget
    // of two, two workers die on it, the job is quarantined as a crash, and
    // the third worker finishes the campaign with the exit code that says
    // "finished with quarantines". The drain waits for no dead worker.
    let (serve, addr, serve_err) = spawn_serve(
        &serve_tail("5"),
        &[
            "--batch",
            "1",
            "--crash-budget",
            "2",
            "--heartbeat-ms",
            "3000",
        ],
    );
    let workers = spawn_joins(&addr, "5", 3, &["--chaos", "proc:abort=2"]);
    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert_eq!(out.status.code(), Some(3), "stderr: {err}");
    let text = stdout(&out);
    assert!(
        text.contains("quarantined 1 job(s)") && text.contains("  crash: 1"),
        "job 2 is the one quarantine, crash-kinded: {text}"
    );
    assert!(
        text.contains(
            "worker connection died while job 2 was leased: connection closed unexpectedly"
        ),
        "the quarantine names the in-flight job: {text}"
    );
    assert_eq!(
        fired_in(workers, "proc.abort"),
        2,
        "one abort per budgeted death"
    );
    no_orphans("5", "join");
}

#[test]
fn fleet_stall_is_evicted_and_quarantined() {
    // Every worker parks on job 2 and falls silent. The coordinator evicts
    // the first at the heartbeat timeout, the second parks on job 2 again
    // and is evicted too, which quarantines the job, and the third finishes
    // the campaign. A worker that kept heartbeating while parked would
    // never be evicted: the deadline turns that hang into a failure.
    use std::time::{Duration, Instant};
    let (mut serve, addr, serve_err) = spawn_serve(
        &serve_tail("13"),
        &[
            "--batch",
            "1",
            "--crash-budget",
            "2",
            "--heartbeat-ms",
            "1500",
        ],
    );
    let workers = spawn_joins(&addr, "13", 3, &["--chaos", "proc:stall=2"]);
    let deadline = Instant::now() + Duration::from_secs(60);
    while serve.try_wait().expect("poll serve").is_none() {
        if Instant::now() > deadline {
            let _ = serve.kill();
            fired_in(workers, "proc.stall");
            panic!("the stalled workers were never evicted");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert_eq!(out.status.code(), Some(3), "stderr: {err}");
    let text = stdout(&out);
    assert!(
        text.contains("quarantined 1 job(s)") && text.contains("  crash: 1"),
        "{text}"
    );
    assert!(
        text.contains("worker connection died while job 2 was leased: silent for"),
        "{text}"
    );
    // The two parked workers outlive the coordinator; they are stopped here.
    assert_eq!(fired_in(workers, "proc.stall"), 2, "one stall per eviction");
    no_orphans("13", "join");
}

#[test]
fn fleet_trace_records_each_lifecycle_fact_once() {
    // Job totals live in `job` events and the fleet lifecycle in `fleet`
    // events; no counter restates them, and the `fleet workers:` block
    // counts what the coordinator's own summary line reports.
    const RESTATED: [&str; 13] = [
        "profile.ok",
        "profile.accesses_kept",
        "campaign.trials",
        "campaign.steps",
        "campaign.jobs_completed",
        "campaign.jobs_quarantined",
        "fleet.joins",
        "fleet.rejects",
        "fleet.leases",
        "fleet.evictions",
        "fleet.reassigned",
        "fleet.duplicates",
        "chaos.fired.total",
    ];
    let dir = scratch_dir("fleet-trace");
    let trace_dir = dir.display().to_string();
    let (serve, addr, serve_err) = spawn_serve(&serve_tail("19"), &["--trace-dir", &trace_dir]);
    let workers = spawn_joins(&addr, "19", 2, &[]);
    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert!(out.status.success(), "stderr: {err}");
    for w in workers {
        let _ = w.wait_with_output();
    }
    no_orphans("19", "join");
    let raw = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
    for line in raw.lines() {
        if let Ok(sb_obs::Event::Count { key, .. }) = sb_obs::Event::parse_line(line) {
            assert!(!RESTATED.contains(&key.as_str()), "restated fact: {line}");
        }
    }

    let report = bin()
        .args(["trace", "report", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("run trace report");
    let text = stdout(&report);
    assert!(text.contains("verification: OK"), "{text}");
    let block: std::collections::BTreeMap<&str, u64> = text
        .split("fleet workers:\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no fleet workers block:\n{text}"))
        .lines()
        .map_while(|l| {
            let (action, n) = l.trim().split_once(char::is_whitespace)?;
            Some((action, n.trim().parse().ok()?))
        })
        .collect();
    // The number right before `what` in the `[fleet]` summary line.
    let summary = |what: &str| -> u64 {
        err.split(what)
            .next()
            .and_then(|head| head.rsplit(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no count before '{what}': {err}"))
    };
    assert_eq!(
        block.get("join").copied(),
        Some(summary(" worker(s) joined")),
        "{text}"
    );
    assert_eq!(
        block.get("lease").copied(),
        Some(summary(" lease(s),")),
        "{text}"
    );
}

#[test]
fn join_fails_fast_against_an_unreachable_coordinator() {
    // Nobody listening: bounded retries, one error line, exit 1 — no hang,
    // no panic, no usage dump.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = bin()
        .args(["hunt", "join", &addr, "--connect-retries", "2"])
        .args(join_tail("3"))
        .output()
        .expect("run hunt join");
    assert_eq!(
        out.status.code(),
        Some(1),
        "unreachable coordinator exits 1"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    let error_lines: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(error_lines.len(), 1, "exactly one error line, got: {err}");
    assert!(
        error_lines[0].contains("cannot reach coordinator")
            && error_lines[0].contains("2 attempt(s)"),
        "unexpected error line: {}",
        error_lines[0]
    );
}

#[test]
fn join_survives_a_coordinator_dying_mid_handshake() {
    // A coordinator that accepts and instantly hangs up is as good as
    // unreachable: bounded retries, one error line, exit 1.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut dropped = 0u32;
        while dropped < 3 {
            match listener.accept() {
                Ok((stream, _)) => {
                    drop(stream);
                    dropped += 1;
                }
                Err(_) => break,
            }
        }
    });
    let out = bin()
        .args(["hunt", "join", &addr, "--connect-retries", "3"])
        .args(join_tail("3"))
        .output()
        .expect("run hunt join");
    assert_eq!(out.status.code(), Some(1), "mid-handshake death exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot reach coordinator") && err.contains("3 attempt(s)"),
        "unexpected stderr: {err}"
    );
    server.join().unwrap();
}

#[test]
fn fleet_handshake_rejects_a_config_mismatch() {
    let dir = scratch_dir("fleet-reject");
    std::fs::create_dir_all(&dir).unwrap();
    let stop = dir.join("stop");
    let stop_flag = stop.display().to_string();
    // A stopped coordinator keeps its checkpoint for a resume: this one's
    // goes to the scratch dir, not to a temporary file left behind.
    let ckpt = dir.join("ckpt").display().to_string();
    let (serve, addr, _serve_err) = spawn_serve(
        &serve_tail("17"),
        &["--stop-file", &stop_flag, "--checkpoint", &ckpt],
    );

    // Different --seed → different config fingerprint → immediate, fatal
    // rejection (no retry loop).
    let out = bin()
        .args(["hunt", "join", &addr])
        .args(join_tail("18"))
        .output()
        .expect("run mismatched join");
    assert_eq!(out.status.code(), Some(1), "mismatch exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("rejected") && err.contains("fingerprint"),
        "unexpected stderr: {err}"
    );

    std::fs::write(&stop, b"").unwrap();
    let out = serve.wait_with_output().expect("await serve");
    assert!(
        out.status.success(),
        "stopped serve must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fleet_usage_errors_exit_2() {
    // Parse-time validation of the timing/lease knobs (for serve and join)
    // must reject nonsense before any socket or pipeline work.
    let cases: &[&[&str]] = &[
        &["hunt", "serve"],                                         // no --listen
        &["hunt", "serve", "--listen", "x", "--lease-ms", "0"],     // zero lease
        &["hunt", "serve", "--listen", "x", "--batch", "0"],        // zero batch
        &["hunt", "serve", "--listen", "x", "--batch", "9999"],     // absurd batch
        &["hunt", "serve", "--listen", "x", "--heartbeat-ms", "0"], // zero heartbeat
        // Lease shorter than the worker heartbeat interval (hb/4).
        &[
            "hunt",
            "serve",
            "--listen",
            "x",
            "--heartbeat-ms",
            "40000",
            "--lease-ms",
            "5000",
        ],
        &["hunt", "join"],                                   // no address
        &["hunt", "join", "x:1", "--connect-retries", "0"],  // zero retries
        &["hunt", "join", "x:1", "--chaos", "net:frob=1:2"], // bad fault spec
        // The coordinator's settings, which a worker would read nowhere.
        &["hunt", "join", "x:1", "--batch", "2"],
        &["hunt", "join", "x:1", "--heartbeat-ms", "200"],
        &["hunt", "join", "x:1", "--workers", "9"],
        &["hunt", "join", "x:1", "--trace-dir", "/tmp/sb-join-trace"],
        &["hunt", "--supervise"], // one in-process runner, one fleet
        &["hunt", "--heartbeat-ms", "500"], // no worker process to time out
        &["hunt", "--stop-file", "/tmp/sb-stop"], // no worker process to stop
        // The profile store is gone from the program: no flag, no command.
        &["hunt", "--store", "/tmp/sb-store"],
        &["hunt", "--no-cache"],
        &["hunt", "join", "x:1", "--store", "/tmp/sb-join-store"],
        &["store", "stats", "--store", "/tmp/sb-store"],
        // A worker keeps unacknowledged results in memory only.
        &["hunt", "join", "x:1", "--spool", "x"],
    ];
    for case in cases {
        let out = bin().args(*case).output().expect("run usage case");
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage exit 2 for {case:?}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A scripted coordinator for the disconnection tests below: accepts one
/// worker, welcomes it and grants a single lease of `jobs`. The first
/// `request` after the lease was consumed makes it hang up and stop
/// listening, so every reconnect attempt fails fast — with `ack_results`
/// it first answers that request with an empty lease, which acknowledges
/// every result sent before it; without, the results stay unacknowledged.
/// Returns the number of result frames it saw.
fn scripted_coordinator(
    jobs: Vec<usize>,
    ack_results: bool,
) -> (String, std::thread::JoinHandle<u64>) {
    use snowboard::protocol::{read_frame, write_frame, JoinMsg, ServeMsg};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let wanted = jobs.len() as u64;
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept worker");
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut write = stream;
        let mut results = 0u64;
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            match JoinMsg::parse_line(&payload).expect("worker frame") {
                JoinMsg::Join { .. } => {
                    let hello = ServeMsg::Welcome {
                        heartbeat_ms: 7_500,
                    };
                    write_frame(&mut write, &hello.render()).unwrap();
                }
                JoinMsg::Request if results < wanted => {
                    let lease = ServeMsg::Lease {
                        lease: 1,
                        jobs: jobs.clone(),
                        deadline_ms: 60_000,
                    };
                    write_frame(&mut write, &lease.render()).unwrap();
                }
                // The post-lease `request`: the worker has sent every
                // result. Acknowledge them (or not), then hang up without
                // draining.
                JoinMsg::Request => {
                    if ack_results {
                        let ack = ServeMsg::Lease {
                            lease: 2,
                            jobs: vec![],
                            deadline_ms: 60_000,
                        };
                        write_frame(&mut write, &ack.render()).unwrap();
                    }
                    break;
                }
                JoinMsg::Done { .. } | JoinMsg::Quarantine { .. } => results += 1,
                JoinMsg::Heartbeat | JoinMsg::Leaving { .. } => {}
            }
        }
        results
    });
    (addr, server)
}

#[test]
fn join_reports_a_lost_coordinator_distinctly_from_a_never_reached_one() {
    // The worker connected, completed a job, and had every result acked —
    // then the coordinator vanished. That must NOT reuse the fresh-start
    // "cannot reach coordinator" wording: the operator needs to know work
    // was done and delivered before the link died.
    let (addr, server) = scripted_coordinator(vec![0], true);
    let out = bin()
        .args(["hunt", "join", &addr, "--connect-retries", "2"])
        .args(join_tail("3"))
        .output()
        .expect("run hunt join");
    assert_eq!(server.join().unwrap(), 1, "coordinator saw the one result");
    assert_eq!(out.status.code(), Some(1), "lost coordinator exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    let error_lines: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(error_lines.len(), 1, "exactly one error line, got: {err}");
    assert!(
        error_lines[0].contains("lost coordinator")
            && error_lines[0].contains("completing 1 job(s) (all delivered)")
            && error_lines[0].contains("2 reconnect attempt(s)"),
        "unexpected error line: {}",
        error_lines[0]
    );
    assert!(
        !err.contains("cannot reach coordinator"),
        "after-progress loss must not reuse the never-connected wording: {err}"
    );
}

#[test]
fn stopped_worker_holding_results_exits_0_and_says_it_dropped_them() {
    // The coordinator takes two results, never acks them, and dies. The
    // worker keeps them and reconnects (within its --connect-retries
    // budget); when the stop file ends it first, it exits 0 and says how
    // many undelivered results it dropped: the coordinator re-runs them.
    let dir = scratch_dir("stop-undelivered");
    let stop = dir.join("stop");
    let (addr, server) = scripted_coordinator(vec![0, 1], false);
    let worker = bin()
        .args(["hunt", "join", &addr, "--stop-file"])
        .arg(&stop)
        .args(join_tail("3"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hunt join");
    // Only stop the worker once the coordinator has provably taken (and
    // dropped) both results; the undelivered count is then deterministic.
    assert_eq!(server.join().unwrap(), 2, "coordinator saw both results");
    std::fs::write(&stop, b"").unwrap();
    let out = worker.wait_with_output().expect("await worker");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a stop-file exit is 0; stderr: {err}"
    );
    assert!(
        err.lines().any(|l| l
            == "[fleet] stopped holding 2 undelivered result(s), dropped \
                (the coordinator re-runs their jobs)"),
        "unexpected stderr: {err}"
    );
}

#[test]
fn a_failed_serve_removes_its_temporary_checkpoint() {
    // Without --checkpoint the coordinator logs to a file of its own in the
    // temp dir, named after its pid. A campaign that fails (here: the kill
    // switch after the first logged result) leaves nothing that names that
    // file, so it must not outlive the process.
    let (serve, addr, serve_err) = spawn_serve(
        &serve_tail("23"),
        &["--chaos", "coord:kill-after-journal=1"],
    );
    let temp = std::env::temp_dir().join(format!("sb-fleet-{}.json", serve.id()));
    let workers = spawn_joins(&addr, "23", 1, &["--connect-retries", "1"]);
    let out = serve.wait_with_output().expect("await serve");
    let err = serve_err.join().expect("stderr drain thread");
    assert_eq!(out.status.code(), Some(1), "the kill is a failure: {err}");
    assert!(err.contains("kill switch"), "stderr: {err}");
    assert!(
        !temp.exists(),
        "{} outlived the failed serve",
        temp.display()
    );
    for w in workers {
        let _ = w.wait_with_output();
    }
    no_orphans("23", "join");
}

// ---------------------------------------------------------------------------
// `hunt chaos` — the self-chaos meta-campaign and the unified fault plane
// ---------------------------------------------------------------------------

#[test]
fn chaos_flag_rejects_unknown_planes_and_misplaced_planes_with_exit_2() {
    let cases: &[&[&str]] = &[
        &["hunt", "--chaos", "cpu:melt=1"],   // unknown plane
        &["hunt", "--chaos", "job:panic"],    // missing value
        &["hunt", "--chaos", "net:drop=0:6"], // net plane needs `hunt join`
        &["hunt", "--chaos", "disk:torn=20"], // no disk plane
        &["hunt", "--chaos", "proc:abort=1"], // proc plane needs a worker process
    ];
    for case in cases {
        let out = bin().args(*case).output().expect("run bad --chaos case");
        assert_eq!(
            out.status.code(),
            Some(2),
            "case {case:?} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn chaos_meta_campaign_smoke_survives_one_schedule() {
    // One full schedule end to end: baseline hunt, fault-injected rerun,
    // trace verification, orphan scan. Survival is the whole point.
    let dir = scratch_dir("chaos-smoke");
    let out = bin()
        .args(["hunt", "chaos", "--seeds", "1", "--quick", "--dir"])
        .arg(&dir)
        .output()
        .expect("run hunt chaos smoke");
    assert!(
        out.status.success(),
        "chaos smoke must survive; stdout: {}\nstderr: {}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout(&out).contains("chaos: 1 schedule(s) survived"),
        "unexpected stdout: {}",
        stdout(&out)
    );
}

#[test]
fn chaos_replay_reproduces_a_failing_schedule_bit_identically() {
    // SB_CHAOS_BREAK makes the driver demand one more quarantine than the
    // schedule injects, so schedule 2021/0 fails deterministically — a stand-in
    // for a real invariant violation. The pinned contract: the printed repro
    // line reruns that exact schedule and prints the exact same failure.
    let mut runs = Vec::new();
    for name in ["chaos-replay-a", "chaos-replay-b"] {
        let dir = scratch_dir(name);
        let out = bin()
            .args(["hunt", "chaos", "--replay", "2021/0", "--quick", "--dir"])
            .arg(&dir)
            .env("SB_CHAOS_BREAK", "1")
            .output()
            .expect("run hunt chaos --replay");
        assert_eq!(
            out.status.code(),
            Some(1),
            "broken schedule exits 1; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        runs.push(stdout(&out));
    }
    assert_eq!(runs[0], runs[1], "replay output diverged between runs");
    assert!(
        runs[0].contains("chaos: FAIL schedule 2021/0")
            && runs[0].contains("repro: snowboard-cli hunt chaos --replay 2021/0"),
        "failure report must carry the repro line: {}",
        runs[0]
    );
}
