//! Ablation study of Snowboard's design choices (DESIGN.md §4's "expected
//! shape" claims, taken apart one knob at a time):
//!
//! 1. **flags learning** (`pmc_access_coming`): Algorithm 2's cross-trial
//!    memory of the access preceding a PMC access. Off → only post-access
//!    preemption remains.
//! 2. **hint precision**: Snowboard's site+range matching vs SKI's
//!    site-only matching vs PCT vs unguided random.
//! 3. **incidental-PMC pickup** (Algorithm 2 lines 26–27).
//! 4. **cluster ordering**: uncommon-first vs random (also in Table 3).
//! 5. **detector window**: how the DataCollider stall-window size changes
//!    what the campaign reports.

use sb_bench::{prepare, print_table, Scale};
use sb_detect::{OracleCtx, OracleSet};
use sb_kernel::{boot, bugs, KernelConfig};
use sb_vmm::sched::{PctSched, RandomSched, Scheduler, SkiSched, SnowboardSched};
use sb_vmm::Executor;
use snowboard::cluster::Strategy;
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;
use snowboard::select::ClusterOrder;

/// Trials to expose bug #12 by its trigger `t` with a given scheduler factory, averaged over
/// seeds. Returns (average trials, hits).
fn expose_12(
    booted: &sb_kernel::BootedKernel,
    t: &bugs::Trigger,
    make: &mut dyn FnMut(u64) -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>>,
    seeds: u64,
    cap: u32,
) -> (f64, u64) {
    let mut exec = Executor::new(2);
    let mut total = 0u64;
    let mut hits = 0u64;
    for seed in 0..seeds {
        let mut per_trial = make(seed);
        let mut oracle_ctx = OracleCtx::new(OracleSet::default());
        let mut exposed = None;
        for trial in 0..cap {
            let mut sched = per_trial(u64::from(trial));
            let r = exec.run(
                booted.snapshot.clone(),
                vec![
                    booted.kernel.process_job(t.writer.clone()),
                    booted.kernel.process_job(t.reader.clone()),
                ],
                sched.as_mut(),
            );
            if oracle_ctx
                .analyze(&r.report)
                .iter()
                .any(|f| snowboard::triage::triage(f) == Some(12))
            {
                exposed = Some(trial + 1);
                break;
            }
        }
        match exposed {
            Some(t) => {
                total += u64::from(t);
                hits += 1;
            }
            None => total += u64::from(cap),
        }
    }
    (total as f64 / seeds as f64, hits)
}

fn main() {
    let scale = Scale::from_env();
    let t = bugs::trigger(12).expect("#12 has a trigger recipe");
    let booted = boot(t.config);

    // Derive the l2tp PMC for hint-based schedulers.
    let profiles = profile_corpus(&booted, &[t.writer.clone(), t.reader.clone()], 2);
    let set = identify(&profiles);
    let (_, pmc) =
        snowboard::metrics::find_pmc_by_sites(&set, t.write_fn, t.read_fn).expect("l2tp PMC");
    let hints = pmc.hints();

    println!(
        "\nAblation 1+2 — scheduler variants vs bug #12 (avg trials over 10 seeds, cap 2048)\n"
    );
    let seeds = 10;
    let cap = 2048;
    let mut rows = Vec::new();
    {
        // Full Algorithm 2.
        let mut make = |seed: u64| -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>> {
            let sched = std::rc::Rc::new(std::cell::RefCell::new(SnowboardSched::new(seed, hints)));
            Box::new(move |trial| {
                sched.borrow_mut().begin_trial(trial);
                Box::new(SharedSched(std::rc::Rc::clone(&sched)))
            })
        };
        let (avg, hits) = expose_12(&booted, &t, &mut make, seeds, cap);
        rows.push(vec![
            "Snowboard (full)".into(),
            format!("{avg:.1}"),
            format!("{hits}/{seeds}"),
        ]);
    }
    {
        let mut make = |seed: u64| -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>> {
            let sched = std::rc::Rc::new(std::cell::RefCell::new(
                SnowboardSched::without_flag_learning(seed, hints),
            ));
            Box::new(move |trial| {
                sched.borrow_mut().begin_trial(trial);
                Box::new(SharedSched(std::rc::Rc::clone(&sched)))
            })
        };
        let (avg, hits) = expose_12(&booted, &t, &mut make, seeds, cap);
        rows.push(vec![
            "Snowboard w/o flags".into(),
            format!("{avg:.1}"),
            format!("{hits}/{seeds}"),
        ]);
    }
    {
        let sites: Vec<_> = hints.iter().map(|h| h.site).collect();
        let mut make = |seed: u64| -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>> {
            let sites = sites.clone();
            Box::new(move |trial| Box::new(SkiSched::new(seed ^ trial, sites.clone())))
        };
        let (avg, hits) = expose_12(&booted, &t, &mut make, seeds, cap);
        rows.push(vec![
            "SKI (site-only)".into(),
            format!("{avg:.1}"),
            format!("{hits}/{seeds}"),
        ]);
    }
    {
        let mut make = |seed: u64| -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>> {
            Box::new(move |trial| Box::new(PctSched::new(seed ^ (trial << 17), 300, 3)))
        };
        let (avg, hits) = expose_12(&booted, &t, &mut make, seeds, cap);
        rows.push(vec![
            "PCT (d=3)".into(),
            format!("{avg:.1}"),
            format!("{hits}/{seeds}"),
        ]);
    }
    {
        let mut make = |seed: u64| -> Box<dyn FnMut(u64) -> Box<dyn Scheduler>> {
            Box::new(move |trial| Box::new(RandomSched::new(seed ^ (trial << 13), 0.005)))
        };
        let (avg, hits) = expose_12(&booted, &t, &mut make, seeds, cap);
        rows.push(vec![
            "Random (unguided)".into(),
            format!("{avg:.1}"),
            format!("{hits}/{seeds}"),
        ]);
    }
    print_table(&["Scheduler", "Avg trials to #12", "Exposed"], &rows);

    println!("\nAblation 3+4 — campaign knobs (S-INS-PAIR, quick pipeline)\n");
    let p = prepare(KernelConfig::v5_12_rc3(), &scale, 2021);
    let mut rows = Vec::new();
    for (label, order, incidental) in [
        (
            "uncommon-first + incidental",
            ClusterOrder::UncommonFirst,
            true,
        ),
        (
            "uncommon-first, no incidental",
            ClusterOrder::UncommonFirst,
            false,
        ),
        ("random order + incidental", ClusterOrder::Random, true),
    ] {
        let exemplars = p.exemplars(Strategy::SInsPair, order);
        let mut cfg = scale.campaign_cfg(77);
        cfg.incidental = incidental;
        let report = p.campaign(&exemplars, &cfg).expect("ablation campaign");
        let mean_day = if report.issues.is_empty() || report.total_steps == 0 {
            f64::NAN
        } else {
            report
                .issues
                .iter()
                .filter(|i| i.bug_id.is_some())
                .map(|i| 7.0 * i.found_after_steps as f64 / report.total_steps as f64)
                .sum::<f64>()
                / report.bug_ids().len().max(1) as f64
        };
        rows.push(vec![
            label.to_owned(),
            report.bug_ids().len().to_string(),
            format!("{mean_day:.2}"),
        ]);
    }
    print_table(&["Variant", "Bugs found", "Mean days-to-find"], &rows);
}

/// Adapter so one persistent scheduler (keeping `flags` across trials) can
/// be handed to the executor per trial.
struct SharedSched(std::rc::Rc<std::cell::RefCell<SnowboardSched>>);

impl Scheduler for SharedSched {
    fn after_access(&mut self, t: usize, access: &sb_vmm::Access) -> bool {
        self.0.borrow_mut().after_access(t, access)
    }
    fn pick(&mut self, prev: usize, candidates: &[usize]) -> usize {
        self.0.borrow_mut().pick(prev, candidates)
    }
    fn on_forced_switch(&mut self, t: usize) {
        self.0.borrow_mut().on_forced_switch(t)
    }
}
