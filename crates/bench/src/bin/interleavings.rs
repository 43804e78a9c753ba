//! Experiment E5 — regenerates the **§5.4 interleavings-to-expose**
//! comparison: how many interleavings Snowboard vs SKI needs to expose each
//! panic/console bug (paper: SKI needs ~84× more on average — 826.29 vs
//! 9.76 interleavings per test).
//!
//! For each console-detectable bug, the known triggering test pair runs
//! under (a) the Snowboard scheduler hinted with the bug's PMC and (b) a
//! SKI-style scheduler that yields at the same *instructions* regardless of
//! memory target, counting trials until the bug manifests.

use sb_bench::print_table;
use sb_kernel::{boot, bugs};
use sb_vmm::Executor;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

/// The bugs of the comparison, in table order, with their row labels; each
/// replays its [`bugs::trigger`].
const CASES: [(u8, &str); 5] = [
    (12, "#12 l2tp order violation"),
    (1, "#1 rhashtable double fetch"),
    (11, "#11 configfs null deref"),
    (2, "#2 ext4 swap boot loader"),
    (4, "#4 blk capacity shrink"),
];

fn main() {
    const MAX_TRIALS: u32 = 4096;
    const SEEDS: u64 = 5;
    let mut rows = Vec::new();
    let mut totals: std::collections::HashMap<SchedKind, (f64, u32)> =
        std::collections::HashMap::new();
    for (bug, label) in CASES {
        let case = bugs::trigger(bug).expect("every case has a trigger");
        let booted = boot(case.config);
        let mut exec = Executor::new(2);
        // Derive the PMC exactly as the pipeline would: profile the two
        // tests sequentially and identify.
        let profiles = profile_corpus(&booted, &[case.writer.clone(), case.reader.clone()], 2);
        let set = identify(&profiles);
        let Some((_, pmc)) =
            snowboard::metrics::find_pmc_by_sites(&set, case.write_fn, case.read_fn)
        else {
            eprintln!("[skip] no PMC for {label}");
            continue;
        };
        let mut row = vec![label.to_owned()];
        for kind in [SchedKind::Snowboard, SchedKind::Ski, SchedKind::Random] {
            // Average over seeds; count failures at the cap.
            let mut sum = 0u64;
            let mut hitc = 0u32;
            for seed in 0..SEEDS {
                match interleavings_to_expose(
                    &mut exec,
                    &booted,
                    &case.writer,
                    &case.reader,
                    pmc,
                    kind,
                    1000 + seed,
                    MAX_TRIALS,
                    hits_bug(bug),
                ) {
                    Some(r) => {
                        sum += u64::from(r.interleavings);
                        hitc += 1;
                    }
                    None => sum += u64::from(MAX_TRIALS),
                }
            }
            let avg = sum as f64 / SEEDS as f64;
            let cell = if hitc == 0 {
                format!(">{MAX_TRIALS}")
            } else {
                format!("{avg:.1}")
            };
            row.push(cell);
            let e = totals.entry(kind).or_insert((0.0, 0));
            e.0 += avg;
            e.1 += 1;
        }
        rows.push(row);
    }
    println!(
        "\n§5.4 interleavings needed to expose each bug (avg of {SEEDS} seeds, cap {MAX_TRIALS})\n"
    );
    print_table(&["Bug", "Snowboard", "SKI", "Random"], &rows);
    let avg = |k: SchedKind| {
        totals
            .get(&k)
            .map(|(s, n)| s / f64::from(*n))
            .unwrap_or(f64::NAN)
    };
    let sb = avg(SchedKind::Snowboard);
    let ski = avg(SchedKind::Ski);
    println!(
        "\nAverages — Snowboard: {sb:.1}, SKI: {ski:.1} interleavings/test (ratio {:.1}x; \
         paper: 9.76 vs 826.29, 84x).",
        ski / sb
    );
}
