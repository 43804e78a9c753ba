//! `sb-benchmark`: the repo benchmark.
//!
//! ```text
//! sb-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! sb-benchmark noise [--runs N] [--seed S]    two back-to-back sets, A/A
//! sb-benchmark probe                          characterise this machine
//! sb-benchmark manifest                       print /BENCHMARK.json
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. See `README.md` beside this crate for the protocol.

mod harness;
mod layers;
mod noise;
mod probe;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Machine, Scratch, Tally};
use report::Values;
use spans::Recorder;
use workloads::{Env, Spec};

/// `run_seconds` of `/BENCHMARK.json`: the run length the per-workload rep
/// counts are sized for.
pub const RUN_SECONDS: u64 = 24;

const USAGE: &str =
    "usage: sb-benchmark --workload <hunt-e2e|trials-hot|prepare-cold|store-cycle> \
[--seed N] [--seconds N] [--trace 0|1]\n       sb-benchmark noise [--runs N] [--seed S]\n       \
sb-benchmark probe\n       sb-benchmark manifest";

struct RunArgs {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2021u64, RUN_SECONDS, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    Ok(RunArgs {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("noise") => noise::run(&argv[1..]),
        Some("probe") => probe::run(),
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => parse_run_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One benchmark run. `Ok(false)` means it ran but a correctness gate failed.
fn run(args: &RunArgs) -> Result<bool, String> {
    // Confinement (which waits for pending write-back) is the harness making
    // the machine quiet, not set-up work of the workload: the clock starts
    // after it.
    let machine = harness::confine();
    let started = Instant::now();
    let scratch = Scratch::create()?;
    let env = Env {
        scratch: scratch.dir.clone(),
        cli: workloads::locate_cli()?,
    };
    let (tally, defs, values) = if args.trace {
        let (tally, values) = traced(args, &machine, &env)?;
        (tally, report::PER_LAYER.to_vec(), values)
    } else {
        let (tally, values) = plain(args, started, &env)?;
        (tally, report::end_to_end_defs(), values)
    };
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_line(
            correct,
            tally.attempted.max(1),
            tally.failed,
            &defs,
            &values
        )
    );
    Ok(correct)
}

/// `--trace 0`: the gated numbers, tracing off everywhere.
fn plain(args: &RunArgs, started: Instant, env: &Env) -> Result<(Tally, Values), String> {
    let spec = args.spec;
    let off = Recorder::new(false);
    let mut tally = Tally::default();
    let before_setup_s = started.elapsed().as_secs_f64();
    let mut ready = harness::set_up_groups(spec, args.seed, env, &off, &mut tally)?;
    let rounds = harness::reps_per_group(spec, args.seconds);
    let timings = harness::timed_rounds(spec, &mut ready, rounds, &off, &mut tally);

    let mut values = Values::new();
    values.insert("setup_s", harness::setup_seconds(before_setup_s, &ready));
    values.insert("units_per_s", timings.units_per_s());
    values.insert("peak_rss_mb", harness::peak_rss_mb(spec));
    values.insert("bugs_found", harness::bugs_found(&ready) as f64);
    let (tail, tail_s) = timings.rep_tail().unwrap_or((50.0, timings.rep_p50_s()));
    eprintln!(
        "[{}] seed {} | {} groups x {} reps | best pass {:.4} s = {:.1} {}/s | rep p50 {:.4} s ({:+.1}% over best), p{tail} {tail_s:.4} s | {} {} attempted, {} failed",
        spec.name,
        args.seed,
        spec.groups,
        rounds,
        timings.best_pass_s(),
        timings.units_per_s(),
        spec.unit,
        timings.rep_p50_s(),
        timings.rep_spread() * 100.0,
        tally.attempted,
        spec.op,
        tally.failed
    );
    timings.log_groups(spec);
    Ok((tally, values))
}

/// `--trace 1`: the same workload with harness spans around every call into
/// a layer, plus the layer probes; prints the per-layer ledger.
fn traced(args: &RunArgs, machine: &Machine, env: &Env) -> Result<(Tally, Values), String> {
    let spec = args.spec;
    let spans = Recorder::new(true);
    let off = Recorder::new(false);
    let mut tally = Tally::default();
    let mut ready = harness::set_up_groups(spec, args.seed, env, &spans, &mut tally)?;
    // Half the plain run's rounds untraced (at least the forty reps a p75
    // needs) and a quarter traced: a best rep on both paths, and the rest of
    // the run's time left to the probes.
    let rounds = harness::reps_per_group(spec, args.seconds);
    let plain_rounds = (rounds / 2).max(40usize.div_ceil(spec.groups));
    let plain = harness::timed_rounds(spec, &mut ready, plain_rounds, &off, &mut tally);
    let with_spans =
        harness::timed_rounds(spec, &mut ready, (rounds / 4).max(2), &spans, &mut tally);
    drop(ready);
    plain.log_groups(spec);

    let mut values = Values::new();
    values.insert("harness.reps", plain.reps() as f64);
    values.insert("harness.rep_p50_s", plain.rep_p50_s());
    values.insert("harness.rep_p75_s", plain.rep_p75_s());
    values.insert("harness.rep_spread", plain.rep_spread());
    values.insert("harness.calib_ns", harness::calibration_ns());
    values.insert(
        "harness.pinned_cpu",
        machine.pinned_cpu.map_or(-1.0, |c| c as f64),
    );
    values.insert(
        "harness.batch_policy",
        f64::from(u8::from(machine.batch_policy)),
    );
    values.insert(
        "harness.trace_overhead_share",
        with_spans.best_pass_s() / plain.best_pass_s() - 1.0,
    );
    layers::probe_all(args.seed, machine, env, &spans, &mut tally, &mut values)?;

    let all = spans.spans();
    let timed = spans::totals_by_name(&all, |s| s.rep >= 0);
    let overall = spans::totals_by_name(&all, |_| true);
    // A layer the workload must not touch shows up as a span inside a rep.
    let foreign: &[&str] = match spec.name {
        "store-cycle" => &["vmm.", "campaign."],
        "trials-hot" => &["store.", "fuzz."],
        _ => &[],
    };
    for name in timed
        .keys()
        .filter(|n| foreign.iter().any(|p| n.starts_with(p)))
    {
        tally.fail(1, format!("{}: span {name} inside a timed rep", spec.name));
    }
    eprintln!(
        "[{}] spans inside timed reps (count, total ms, self ms):",
        spec.name
    );
    for (name, t) in &timed {
        eprintln!(
            "  {name:<28} {:>6} {:>10.3} {:>10.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let head = report::LedgerHead {
        workload: spec.name,
        seed: args.seed,
        pinned_cpu: machine.pinned_cpu,
        scratch: &env.scratch.display().to_string(),
    };
    let path = harness::ledger_path(spec.name);
    let doc = report::ledger(&head, &values, &timed, &overall, &all).render();
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("[{}] ledger written to {}", spec.name, path.display()),
        Err(e) => eprintln!(
            "[{}] warning: ledger not written to {}: {e}",
            spec.name,
            path.display()
        ),
    }
    Ok((tally, values))
}
