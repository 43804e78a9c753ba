//! `sb-benchmark noise`: does the same code agree with itself?
//!
//! Runs the whole benchmark as two back-to-back sets of runs per workload,
//! each run a child process with its own `--seed` (both sets use the same
//! seeds), and prints per workload x end-to-end metric both medians, how far
//! the second is from the first, each set's own spread (inter-quartile range
//! over median, as the driver takes it) and the bound. Exits non-zero when a
//! difference or a spread exceeds its metric's bound.

use std::process::{Command, Stdio};

use crate::report::{value_in_result_line, Better, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::SPECS;
use crate::RUN_SECONDS;

/// One child run's end-to-end values, in `END_TO_END` order.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} --seed {seed} failed: {} {line}",
            out.status
        ));
    }
    END_TO_END
        .iter()
        .map(|(d, _)| {
            value_in_result_line(line, d.name)
                .ok_or_else(|| format!("{workload}: no {} in {line}", d.name))
        })
        .collect()
}

/// Median and inter-quartile range over median of one metric in one set.
fn median_and_spread(set: &[Vec<f64>], metric: usize) -> (f64, f64) {
    let column: Vec<f64> = set.iter().map(|run| run[metric]).collect();
    let [q1, q2, q3] = quartiles(&column).expect("at least two runs per set");
    (q2, (q3 - q1) / q2)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(argv: &[String]) -> Result<bool, String> {
    let (mut runs, mut seed, mut seconds) = (5u64, 2021u64, RUN_SECONDS);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a number"))?;
        match flag.as_str() {
            "--runs" => runs = value.max(2),
            "--seed" => seed = value,
            "--seconds" => seconds = value.clamp(1, 60),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let mut ok = true;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for spec in &SPECS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..runs {
                set.push(run_once(spec.name, seed.wrapping_add(i), seconds)?);
            }
        }
        for (m, (def, bound)) in END_TO_END.iter().enumerate() {
            let (a, spread_a) = median_and_spread(&sets[0], m);
            let (b, spread_b) = median_and_spread(&sets[1], m);
            let worse = worsening(def.better, a, b);
            // The set-up time's spread is reported but, as in the driver's
            // check, only its medians are held to the bound.
            let spread_ok = def.name == "setup_s" || spread_a.max(spread_b) <= *bound;
            let pass = worse.abs() <= *bound && spread_ok;
            ok &= pass;
            println!(
                "| {} | {} ({}) | {a:.4} | {b:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                spec.name,
                def.name,
                def.unit,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_the_metrics_direction() {
        assert!((worsening(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 1.8) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn set_summary_uses_the_drivers_quartiles() {
        let set: Vec<Vec<f64>> = (1..=10).map(|x| vec![0.0, f64::from(x)]).collect();
        let (median, spread) = median_and_spread(&set, 1);
        assert_eq!(median, 5.5);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
