//! The per-layer ledger: one probe per module, timing calls into its public
//! functions from outside, under the same pinning and best-of-reps rule as
//! the gated runs.
//!
//! Every probe works on the quick-scale pipeline of the run's seed (`hunt`'s
//! defaults) and the `trials-hot` job list, so the layer numbers describe the
//! same inputs the end-to-end numbers do. None of them is gated; each names
//! the end-to-end metric it should move in `README.md`.

use std::collections::HashSet;
use std::io::Cursor;
use std::net::TcpListener;
use std::time::Instant;

use sb_detect::{OracleCtx, OracleSet};
use sb_kernel::boot;
use sb_store::{codec, profile_key, PmcLookup, ProfileLookup, Store};
use sb_vmm::exec::ExecReport;
use sb_vmm::sched::SnowboardSched;
use sb_vmm::Executor;
use snowboard::campaign::{run_campaign, test_one_pmc, IncidentalIndex, PmcTestOutcome};
use snowboard::cluster::{cluster, Strategy};
use snowboard::pmc::{identify, identify_sharded, IdentifyOpts, JoinState, PmcId, PmcSet};
use snowboard::profile::{profile_corpus, profile_one_counted, SharedAccessFilter};
use snowboard::select::ClusterOrder;
use snowboard::watchdog::Watchdog;
use snowboard::{
    read_frame, run_coordinator, run_join, write_frame, CampaignCfg, CampaignReport, Catalog,
    Checkpoint, FleetCfg, FleetWork, FrameLog, JoinCfg, JoinMsg, Pipeline, Tracer,
};

use crate::harness::{Machine, Tally};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::best;
use crate::sys;
use crate::workloads::{
    config, hot_campaign_cfg, hot_exemplars, parse_hunt_stdout, quick_pipeline, Env, HuntE2e,
};

/// `campaign.rs` seeds job `i` with `seed + i * STRIDE`; the direct-job probe
/// must hand `test_one_pmc` the same seeds to reproduce the campaign's
/// outcomes (which it checks).
const JOB_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hinted trials per exemplar in the vmm probe.
const PROBE_TRIALS: u32 = 4;

/// Seconds one call of `f` takes, with its value.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Best of `n` runs of `f`, which reports its own seconds (so that it can
/// leave out what is not the layer's work), with the last run's value.
fn best_self_timed<T>(n: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut last = None;
    let runs: Vec<f64> = (0..n)
        .map(|_| {
            let (seconds, value) = f();
            last = Some(value);
            seconds
        })
        .collect();
    (best(&runs).expect("n >= 1"), last.expect("n >= 1"))
}

/// Seconds `f` takes, best of `n`, with the last run's value. The previous
/// run's value is dropped outside the timing.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    best_self_timed(n, || timed(&mut f))
}

struct Ctx<'a> {
    seed: u64,
    p: Pipeline,
    exemplars: Vec<PmcId>,
    cfg: CampaignCfg,
    machine: &'a Machine,
    env: &'a Env,
    spans: &'a Recorder,
}

pub fn probe_all(
    seed: u64,
    machine: &Machine,
    env: &Env,
    spans: &Recorder,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let p = quick_pipeline(seed, spans);
    let exemplars = hot_exemplars(&p)?;
    let cx = Ctx {
        seed,
        p,
        exemplars,
        cfg: hot_campaign_cfg(seed),
        machine,
        env,
        spans,
    };
    let reports = vmm_and_mem(&cx, values);
    prepare_stages(&cx, tally, values);
    let (campaign_s, report) = campaign(&cx, tally, values);
    detect(&cx, &reports, values);
    obs(&cx, values);
    store(&cx, tally, values)?;
    journal_and_protocol(&cx, &report, tally, values)?;
    fleet(&cx, campaign_s, &report, tally, values);
    checkpoint(&cx, &report, tally, values);
    hunt_attribution(&cx, tally, values);
    Ok(())
}

/// One pass of hinted two-vCPU trials over the `trials-hot` pairs, timing
/// only `Executor::try_run`.
struct HintedPass {
    seconds: f64,
    steps: u64,
    switches: u64,
    dirty_pages: u64,
    trials: u64,
    reports: Vec<ExecReport>,
}

fn hinted_pass(cx: &Ctx<'_>, exec: &mut Executor, span: &'static str) -> HintedPass {
    let mut pass = HintedPass {
        seconds: 0.0,
        steps: 0,
        switches: 0,
        dirty_pages: 0,
        trials: 0,
        reports: Vec::new(),
    };
    let _g = cx.spans.enter(span);
    for id in &cx.exemplars {
        let pmc = cx.p.pmcs.get(*id);
        let (w, r) = pmc.pairs[0];
        let mut sched = SnowboardSched::new(cx.seed ^ u64::from(*id), pmc.hints());
        for trial in 0..PROBE_TRIALS {
            sched.begin_trial(cx.seed.wrapping_add(u64::from(trial)));
            let jobs = vec![
                cx.p.booted
                    .kernel
                    .process_job(cx.p.corpus[w as usize].clone()),
                cx.p.booted
                    .kernel
                    .process_job(cx.p.corpus[r as usize].clone()),
            ];
            let mem = cx.p.booted.snapshot.clone();
            let t = Instant::now();
            let run = exec
                .try_run(mem, jobs, &mut sched)
                .expect("vCPU workers alive");
            pass.seconds += t.elapsed().as_secs_f64();
            pass.steps += run.report.steps;
            pass.switches += run.report.switches;
            pass.dirty_pages += run.mem.dirty_pages();
            pass.trials += 1;
            pass.reports.push(run.report);
        }
    }
    pass
}

fn vmm_and_mem(cx: &Ctx<'_>, v: &mut Values) -> Vec<ExecReport> {
    let (new_s, mut exec) = best_of(20, || {
        cx.spans.time("vmm.executor_new", || Executor::new(2))
    });
    v.insert("vmm.executor_new_us", new_s * 1e6);

    let switches_before = sys::voluntary_switches();
    let passes: Vec<HintedPass> = (0..5)
        .map(|_| hinted_pass(cx, &mut exec, "vmm.try_run_conc"))
        .collect();
    let switched = sys::voluntary_switches()
        .zip(switches_before)
        .map_or(0, |(after, before)| after - before);
    let total_steps: u64 = passes.iter().map(|p| p.steps).sum();
    let fastest = passes
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("five passes");
    v.insert(
        "vmm.step_ns_conc",
        fastest.seconds * 1e9 / fastest.steps as f64,
    );
    v.insert(
        "vmm.ctx_switches_per_step",
        switched as f64 / total_steps as f64,
    );
    v.insert(
        "vmm.steps_per_trial",
        fastest.steps as f64 / fastest.trials as f64,
    );
    v.insert(
        "vmm.switches_per_trial",
        fastest.switches as f64 / fastest.trials as f64,
    );
    v.insert(
        "mem.dirty_pages_per_trial",
        fastest.dirty_pages as f64 / fastest.trials as f64,
    );

    // The same pass with the affinity widened to every allowed CPU: vCPU
    // threads spawned now may land on another core, and each handoff then
    // crosses cores. Diagnostic only; re-pinned straight after.
    let unpinned = match (cx.machine.original_mask, cx.machine.pinned_cpu) {
        (Some(mask), Some(cpu)) if sys::set_affinity(&mask) => {
            let mut wide = Executor::new(2);
            let pass = hinted_pass(cx, &mut wide, "vmm.try_run_conc_unpinned");
            drop(wide);
            assert!(
                sys::set_affinity(&sys::single_cpu(cpu)),
                "re-pinning to CPU {cpu}"
            );
            pass.seconds * 1e9 / pass.steps as f64
        }
        _ => fastest.seconds * 1e9 / fastest.steps as f64,
    };
    v.insert("vmm.step_ns_conc_unpinned", unpinned);

    // One vCPU, FreeRun, full trace recording: what fuzz and profile drive.
    let filter = SharedAccessFilter::new();
    let mut solo = Executor::new(1);
    let (seq_s, (steps, kept, seen)) = best_of(5, || {
        let _g = cx.spans.enter("vmm.run_seq");
        let (mut steps, mut kept, mut seen) = (0u64, 0u64, 0u64);
        for (i, prog) in cx.p.corpus.iter().enumerate() {
            let (profile, total) =
                profile_one_counted(&mut solo, &cx.p.booted, i as u32, prog, &filter);
            if let Some(profile) = profile {
                steps += profile.steps;
                kept += profile.accesses.len() as u64;
                seen += total;
            }
        }
        (steps, kept, seen)
    });
    v.insert("vmm.step_ns_seq", seq_s * 1e9 / steps as f64);
    v.insert("profile.shared_share", kept as f64 / seen.max(1) as f64);

    const CLONES: u32 = 20_000;
    let (clone_s, ()) = best_of(5, || {
        let _g = cx.spans.enter("mem.clone");
        for _ in 0..CLONES {
            std::hint::black_box(cx.p.booted.snapshot.clone());
        }
    });
    v.insert("mem.clone_ns", clone_s * 1e9 / f64::from(CLONES));
    // First write to a page of a fresh clone: copies the 4 KiB page out of
    // the shared base into the clone's overlay.
    const WRITES: u32 = 2_000;
    let addr = sb_vmm::mem::HEAP_BASE + 0x100;
    let (write_s, ()) = best_self_timed(5, || {
        let _g = cx.spans.enter("mem.first_write");
        let mut inside = 0.0;
        for _ in 0..WRITES {
            let mut mem = cx.p.booted.snapshot.clone();
            let t = Instant::now();
            mem.write(addr, 8, 1).expect("heap base is writable");
            inside += t.elapsed().as_secs_f64();
            std::hint::black_box(mem);
        }
        (inside, ())
    });
    v.insert("mem.first_write_ns", write_s * 1e9 / f64::from(WRITES));

    passes.into_iter().next_back().expect("five passes").reports
}

fn prepare_stages(cx: &Ctx<'_>, tally: &mut Tally, v: &mut Values) {
    let p = &cx.p;
    let (boot_s, _) = best_of(5, || cx.spans.time("kernel.boot", || boot(config())));
    v.insert("kernel.boot_ms", boot_s * 1e3);

    let (fuzz_s, (_, stats)) = best_of(3, || {
        cx.spans.time("fuzz.build_corpus", || {
            sb_fuzz::build_corpus_with(&p.booted, cx.seed, 100, 1500, Catalog::Extended)
        })
    });
    v.insert("fuzz.execs_per_s", stats.executed as f64 / fuzz_s);
    v.insert("fuzz.executed", stats.executed as f64);
    v.insert("fuzz.corpus_kept", stats.kept as f64);

    let (profile_s, profiles) = best_of(3, || {
        cx.spans.time("profile.profile_corpus", || {
            profile_corpus(&p.booted, &p.corpus, 1)
        })
    });
    v.insert("profile.programs_per_s", p.corpus.len() as f64 / profile_s);
    let accesses: usize = profiles.iter().map(|pr| pr.accesses.len()).sum();
    v.insert(
        "profile.accesses_per_program",
        accesses as f64 / profiles.len().max(1) as f64,
    );

    let (identify_s, set) = best_of(5, || {
        cx.spans.time("pmc.identify", || identify(&p.profiles))
    });
    v.insert("pmc.identify_ms", identify_s * 1e3);
    v.insert("pmc.pmcs", set.len() as f64);
    let (sharded_s, _) = best_of(5, || {
        cx.spans.time("pmc.identify_sharded", || {
            identify_sharded(&p.profiles, 2, 1)
        })
    });
    v.insert("pmc.identify_sharded2_ms", sharded_s * 1e3);
    // Growing an indexed corpus by its last tenth: only the new joins.
    let split = p.profiles.len() * 9 / 10;
    let mut base = JoinState::new();
    base.add_profiles(&p.profiles[..split], &IdentifyOpts::default());
    let (add_s, grown) = best_self_timed(5, || {
        let mut st = base.clone();
        let t = Instant::now();
        cx.spans.time("pmc.add_profiles", || {
            st.add_profiles(&p.profiles[split..], &IdentifyOpts::default())
        });
        (t.elapsed().as_secs_f64(), st.into_set())
    });
    v.insert("pmc.incremental_add_ms", add_s * 1e3);
    // Two batches number PMCs (and cap their pair lists) in another order
    // than one; the set of channels found must be the same.
    let keys = |set: &PmcSet| set.pmcs.iter().map(|pmc| pmc.key).collect::<HashSet<_>>();
    tally.attempted += 1;
    if keys(&grown) != keys(&p.pmcs) {
        tally.fail(
            1,
            "pmc probe: the incremental join found other channels than identify".into(),
        );
    }

    let (full_s, _) = best_of(5, || {
        cx.spans
            .time("cluster.cluster", || cluster(&p.pmcs, Strategy::SFull))
    });
    v.insert("cluster.s_full_ms", full_s * 1e3);
    let (pair_s, _) = best_of(5, || {
        cx.spans
            .time("cluster.cluster", || cluster(&p.pmcs, Strategy::SInsPair))
    });
    v.insert("cluster.s_ins_pair_ms", pair_s * 1e3);
    let (select_s, picked) = best_of(5, || {
        cx.spans.time("select.exemplars", || {
            p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst)
        })
    });
    v.insert("select.exemplars_ms", select_s * 1e3);
    v.insert("select.exemplars", picked.len() as f64);
}

fn run_hot_campaign(cx: &Ctx<'_>, cfg: &CampaignCfg, span: &'static str) -> CampaignReport {
    cx.spans
        .time(span, || {
            run_campaign(&cx.p.booted, &cx.p.corpus, &cx.p.pmcs, &cx.exemplars, cfg)
        })
        .expect("in-memory campaign has no campaign-level failure mode")
}

/// Three ways through the `trials-hot` job list, taken in turn so a slow
/// spell of the machine hits all three alike: the campaign runner, the same
/// jobs through `test_one_pmc` directly (what the runner adds), and the
/// runner with a memory tracer attached (what tracing adds).
fn campaign(cx: &Ctx<'_>, tally: &mut Tally, v: &mut Values) -> (f64, CampaignReport) {
    const TURNS: usize = 5;
    let index = IncidentalIndex::build(&cx.p.pmcs);
    let mut exec = Executor::new(2);
    let (mut runner_s, mut direct_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut report = None;
    let mut outcomes = Vec::new();
    for _ in 0..TURNS {
        let (seconds, solo) = timed(|| run_hot_campaign(cx, &cx.cfg, "campaign.run_campaign"));
        runner_s.push(seconds);
        report = Some(solo);

        let _g = cx.spans.enter("campaign.jobs_direct");
        let mut inside = 0.0;
        outcomes = cx
            .exemplars
            .iter()
            .enumerate()
            .filter_map(|(job, id)| {
                let seed = cx
                    .cfg
                    .seed
                    .wrapping_add((job as u64).wrapping_mul(JOB_SEED_STRIDE));
                let dog = Watchdog::start(cx.cfg.budget);
                let t = Instant::now();
                let out = test_one_pmc(
                    &mut exec,
                    &cx.p.booted,
                    &cx.p.corpus,
                    &cx.p.pmcs,
                    &index,
                    *id,
                    seed,
                    &cx.cfg,
                    &dog,
                );
                inside += t.elapsed().as_secs_f64();
                out.ok()
            })
            .collect::<Vec<PmcTestOutcome>>();
        direct_s.push(inside);
        drop(_g);

        let with_tracer = CampaignCfg {
            tracer: Tracer::memory().0,
            ..cx.cfg.clone()
        };
        let (seconds, _) =
            timed(|| run_hot_campaign(cx, &with_tracer, "campaign.run_campaign_traced"));
        traced_s.push(seconds);
    }
    let report = report.expect("TURNS >= 1");
    let (runner, direct, traced) = (
        best(&runner_s).expect("TURNS >= 1"),
        best(&direct_s).expect("TURNS >= 1"),
        best(&traced_s).expect("TURNS >= 1"),
    );
    tally.attempted += 1;
    if outcomes != report.outcomes {
        tally.fail(
            1,
            "campaign probe: direct test_one_pmc outcomes differ from run_campaign's".into(),
        );
    }
    v.insert("campaign.trials_per_s", report.executions as f64 / runner);
    v.insert(
        "campaign.exercised_share",
        report.exercised() as f64 / report.tested().max(1) as f64,
    );
    v.insert("campaign.quarantined", report.quarantined.len() as f64);
    v.insert("campaign.job_us", direct * 1e6 / cx.exemplars.len() as f64);
    v.insert("campaign.runner_overhead_share", (runner - direct) / runner);
    v.insert("obs.tracer_overhead_share", traced / runner - 1.0);
    (runner, report)
}

fn detect(cx: &Ctx<'_>, reports: &[ExecReport], v: &mut Values) {
    let analyze = |oracles: OracleSet, span: &'static str| {
        best_of(5, || {
            let _g = cx.spans.enter(span);
            let mut ctx = OracleCtx::new(oracles);
            reports.iter().map(|r| ctx.analyze(r).len()).sum::<usize>()
        })
    };
    let (all_s, findings) = analyze(OracleSet::all(), "detect.analyze");
    let (race_s, _) = analyze(OracleSet::race_only(), "detect.analyze_race_only");
    v.insert(
        "detect.analyze_us_per_trial",
        all_s * 1e6 / reports.len() as f64,
    );
    v.insert(
        "detect.race_only_us_per_trial",
        race_s * 1e6 / reports.len() as f64,
    );
    v.insert("detect.findings", findings as f64);
}

fn obs(cx: &Ctx<'_>, v: &mut Values) {
    const SPANS: u32 = 20_000;
    let (span_s, ()) = best_of(3, || {
        let (tracer, _sink) = Tracer::memory();
        let _g = cx.spans.enter("obs.span");
        for _ in 0..SPANS {
            drop(tracer.span("probe"));
        }
    });
    v.insert("obs.span_ns", span_s * 1e9 / f64::from(SPANS));
}

fn store(cx: &Ctx<'_>, tally: &mut Tally, v: &mut Values) -> Result<(), String> {
    let p = &cx.p;
    // Codec alone, no file: encode every profile, then decode every payload.
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let (encode_s, bytes) = best_of(5, || {
        let _g = cx.spans.enter("store.encode");
        payloads.clear();
        for profile in &p.profiles {
            let mut buf = Vec::new();
            codec::encode_profile(profile, &mut buf);
            payloads.push(buf);
        }
        payloads.iter().map(Vec::len).sum::<usize>()
    });
    let (decode_s, decoded) = best_of(5, || {
        let _g = cx.spans.enter("store.decode");
        payloads
            .iter()
            .filter(|b| codec::decode_profile(b).is_ok())
            .count()
    });
    v.insert("store.encode_mb_per_s", bytes as f64 / 1e6 / encode_s);
    v.insert("store.decode_mb_per_s", bytes as f64 / 1e6 / decode_s);
    tally.attempted += 1;
    if decoded != p.profiles.len() {
        tally.fail(
            1,
            "store probe: a freshly encoded profile did not decode".into(),
        );
    }

    // The store-cycle phases one by one, ten key seeds deep.
    const KEY_SEEDS: u64 = 10;
    let dir = cx.env.scratch.join("probe-store");
    let keys: Vec<Vec<u64>> = (0..KEY_SEEDS)
        .map(|k| {
            p.profiles
                .iter()
                .map(|pr| {
                    profile_key(
                        &config(),
                        cx.seed.wrapping_add(k),
                        &p.corpus[pr.test as usize],
                    )
                })
                .collect()
        })
        .collect();
    let records = (KEY_SEEDS as usize * p.profiles.len()) as f64;
    let mut phases: Vec<[f64; 6]> = Vec::new();
    let mut bytes_on_disk = 0u64;
    let mut damaged = 0u64;
    let err = |e: sb_store::Error| format!("store probe: {e}");
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let mut st = Store::open(&dir).map_err(err)?;
        let t = Instant::now();
        for key_set in &keys {
            let batch: Vec<_> = key_set
                .iter()
                .copied()
                .zip(p.profiles.iter().cloned().map(Some))
                .collect();
            cx.spans
                .time("store.insert_profiles", || st.insert_profiles(&batch))
                .map_err(err)?;
        }
        let insert_s = t.elapsed().as_secs_f64();
        let (save_s, saved) = timed(|| {
            cx.spans
                .time("store.save_pmcs", || st.save_pmcs(&keys[0], &p.pmcs))
        });
        saved.map_err(err)?;
        let (flush_s, flushed) = timed(|| cx.spans.time("store.flush", || st.flush()));
        flushed.map_err(err)?;
        bytes_on_disk = st.segment_sizes().map_err(err)?.1.bytes;
        drop(st);
        let (open_s, reopened) = timed(|| cx.spans.time("store.open", || Store::open(&dir)));
        let mut st = reopened.map_err(err)?;
        let t = Instant::now();
        let lookups = cx.spans.enter("store.lookup_profiles");
        let mut hits = 0usize;
        for key_set in &keys {
            for (profile, key) in p.profiles.iter().zip(key_set) {
                if matches!(st.lookup_profile(*key, profile.test).map_err(err)?, ProfileLookup::Hit(got) if got == *profile)
                {
                    hits += 1;
                }
            }
        }
        drop(lookups);
        let lookup_s = t.elapsed().as_secs_f64();
        let (load_s, loaded) = timed(|| {
            cx.spans
                .time("store.lookup_pmcs", || st.lookup_pmcs(&keys[0]))
        });
        tally.attempted += 1;
        if hits as f64 != records || loaded.map_err(err)? != PmcLookup::Exact(p.pmcs.clone()) {
            tally.fail(
                1,
                "store probe: read-back differs from what was written".into(),
            );
        }
        damaged += st.records_damaged;
        phases.push([insert_s, save_s, flush_s, open_s, lookup_s, load_s]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let phase =
        |i: usize| best(&phases.iter().map(|p| p[i]).collect::<Vec<_>>()).expect("three passes");
    v.insert("store.insert_records_per_s", records / phase(0));
    v.insert("store.pmc_save_ms", phase(1) * 1e3);
    v.insert("store.flush_ms", phase(2) * 1e3);
    v.insert("store.open_ms", phase(3) * 1e3);
    v.insert("store.lookup_records_per_s", records / phase(4));
    v.insert("store.pmc_load_ms", phase(5) * 1e3);
    v.insert(
        "store.bytes_per_record",
        bytes_on_disk as f64 / (records + 1.0),
    );
    v.insert("store.damaged", damaged as f64);
    Ok(())
}

fn journal_and_protocol(
    cx: &Ctx<'_>,
    report: &CampaignReport,
    tally: &mut Tally,
    v: &mut Values,
) -> Result<(), String> {
    // A realistic payload for both: one completed job's `done` frame.
    let msg = JoinMsg::Done {
        job: 0,
        outcome: report.outcomes[0].clone(),
        seq: 1,
        redelivery: false,
    };
    let payload = msg.render();

    const APPENDS: usize = 2_000;
    let path = cx.env.scratch.join("probe-journal.wal");
    let io = |e: std::io::Error| format!("journal probe: {e}");
    let mut runs: Vec<[f64; 3]> = Vec::new();
    for _ in 0..3 {
        let mut log = FrameLog::create(&path).map_err(io)?;
        let (append_s, appended) = timed(|| {
            let _g = cx.spans.enter("journal.append");
            (0..APPENDS).try_for_each(|_| log.append(&payload))
        });
        appended.map_err(io)?;
        let (sync_s, synced) = timed(|| cx.spans.time("journal.sync", || log.sync()));
        synced.map_err(io)?;
        drop(log);
        let (replay_s, recovered) =
            timed(|| cx.spans.time("journal.open", || FrameLog::open(&path)));
        let recovered = recovered.map_err(io)?;
        tally.attempted += 1;
        if recovered.records.len() != APPENDS
            || recovered.damaged != 0
            || recovered.records[0] != payload
        {
            tally.fail(
                1,
                "journal probe: replay differs from what was appended".into(),
            );
        }
        runs.push([append_s, sync_s, replay_s]);
    }
    let _ = std::fs::remove_file(&path);
    let col = |i: usize| best(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()).expect("three runs");
    v.insert("journal.append_us", col(0) * 1e6 / APPENDS as f64);
    v.insert("journal.sync_us", col(1) * 1e6);
    v.insert("journal.replay_records_per_s", APPENDS as f64 / col(2));

    const FRAMES: usize = 2_000;
    let (frames_s, intact) = best_of(3, || {
        let _g = cx.spans.enter("protocol.frame_roundtrip");
        let mut wire: Vec<u8> = Vec::new();
        (0..FRAMES)
            .filter(|_| {
                wire.clear();
                write_frame(&mut wire, &payload).expect("writing to memory");
                let line = read_frame(&mut Cursor::new(&wire)).ok().flatten();
                line.and_then(|l| JoinMsg::parse_line(&l).ok()).as_ref() == Some(&msg)
            })
            .count()
    });
    tally.attempted += 1;
    if intact != FRAMES {
        tally.fail(
            1,
            "protocol probe: a frame did not survive the round trip".into(),
        );
    }
    v.insert(
        "protocol.frame_roundtrip_us",
        frames_s * 1e6 / FRAMES as f64,
    );
    Ok(())
}

/// `run_coordinator` plus one `run_join`, in this process, over 127.0.0.1 and
/// the `trials-hot` job list. Three threads, TCP and a 25 ms coordinator
/// tick: evidence for a future `fleet-loopback` workload, not a gate.
fn fleet(cx: &Ctx<'_>, campaign_s: f64, solo: &CampaignReport, tally: &mut Tally, v: &mut Values) {
    let once = || -> Result<(f64, CampaignReport), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let fcfg = FleetCfg {
            checkpoint: cx.env.scratch.join("probe-fleet.json"),
            config_hash: 1,
            ..FleetCfg::default()
        };
        let jcfg = JoinCfg {
            addr,
            config_hash: 1,
            ..JoinCfg::default()
        };
        let _g = cx.spans.enter("fleet.loopback");
        // The coordinator thread may borrow the job list and configuration,
        // not the context as a whole (the span recorder stays on this thread).
        let (exemplars, cfg) = (&cx.exemplars, &cx.cfg);
        let t = Instant::now();
        let report = std::thread::scope(|s| {
            let coordinator = s.spawn(|| run_coordinator(listener, exemplars, cfg, &fcfg));
            let joined = run_join(&cx.cfg, &jcfg, || {
                Ok(FleetWork {
                    booted: boot(config()),
                    corpus: cx.p.corpus.clone(),
                    set: cx.p.pmcs.clone(),
                    exemplars: cx.exemplars.clone(),
                })
            });
            let report = coordinator.join().expect("coordinator thread");
            joined.and(report).map_err(|e| e.chain().join("; "))
        })?;
        Ok((t.elapsed().as_secs_f64(), report))
    };
    let runs: Vec<_> = (0..2).map(|_| once()).collect();
    let _ = std::fs::remove_file(cx.env.scratch.join("probe-fleet.json"));
    let _ = std::fs::remove_file(snowboard::journal::journal_path_for(
        &cx.env.scratch.join("probe-fleet.json"),
    ));
    let mut seconds = Vec::new();
    for run in runs {
        match run {
            Ok((s, report)) => {
                tally.attempted += 1;
                if report.outcomes != solo.outcomes {
                    tally.fail(
                        1,
                        "fleet probe: loopback outcomes differ from the solo campaign's".into(),
                    );
                }
                seconds.push(s);
            }
            // No loopback socket in this sandbox is not the program's fault.
            Err(e) => eprintln!("[layers] fleet loopback skipped: {e}"),
        }
    }
    let (rate, overhead) = match best(&seconds) {
        Some(s) => (
            solo.executions as f64 / s,
            (s - campaign_s) * 1e6 / cx.exemplars.len() as f64,
        ),
        None => (0.0, 0.0),
    };
    v.insert("fleet.loopback_trials_per_s", rate);
    v.insert("fleet.job_overhead_us", overhead);
}

fn checkpoint(cx: &Ctx<'_>, report: &CampaignReport, tally: &mut Tally, v: &mut Values) {
    let mut cp = Checkpoint::begin(cx.cfg.seed, &cx.exemplars);
    for (job, outcome) in report.outcomes.iter().enumerate() {
        cp.merge_outcome(job, outcome.clone());
    }
    let path = cx.env.scratch.join("probe-checkpoint.json");
    let (save_s, saved) = best_of(3, || cx.spans.time("checkpoint.save", || cp.save(&path)));
    let (load_s, loaded) = best_of(3, || {
        cx.spans.time("checkpoint.load", || Checkpoint::load(&path))
    });
    let _ = std::fs::remove_file(&path);
    tally.attempted += 1;
    if saved.is_err() || loaded.ok().as_ref() != Some(&cp) {
        tally.fail(
            1,
            "checkpoint probe: load does not return what was saved".into(),
        );
    }
    v.insert("checkpoint.save_ms", save_s * 1e3);
    v.insert("checkpoint.load_ms", load_s * 1e3);
}

/// `hunt` as a child process against the same stages called in-process: what
/// the subprocess costs beyond the sum of its layers (process start, argument
/// parsing, report printing, anything no probe covers).
fn hunt_attribution(cx: &Ctx<'_>, tally: &mut Tally, v: &mut Values) {
    // `hunt`'s defaults: corpus 100, fuzz budget 15 x corpus, S-INS-PAIR
    // uncommon first, 400 PMCs x 24 trials, stop at the first finding.
    let cfg = CampaignCfg {
        seed: cx.seed,
        trials_per_pmc: 24,
        max_tested_pmcs: 400,
        workers: 1,
        ..CampaignCfg::default()
    };
    const STAGES: [&str; 7] = [
        "boot", "fuzz", "profile", "identify", "cluster", "select", "campaign",
    ];
    let mut stage_best = [f64::MAX; STAGES.len()];
    let mut report = None;
    let (mut cli_s, mut cli) = (f64::MAX, None);
    // Child and stages in turn, so a slow spell of the machine hits both.
    for _ in 0..4 {
        let (seconds, out) = timed(|| {
            cx.spans
                .time("hunt.cli", || HuntE2e::run_cli(&cx.env.cli, cx.seed))
        });
        cli_s = cli_s.min(seconds);
        cli = out
            .ok()
            .and_then(|o| parse_hunt_stdout(&String::from_utf8_lossy(&o.stdout)));

        let _g = cx.spans.enter("hunt.stages");
        let (boot_s, booted) = timed(|| cx.spans.time("kernel.boot", || boot(config())));
        let (fuzz_s, (corpus, _)) = timed(|| {
            cx.spans.time("fuzz.build_corpus", || {
                sb_fuzz::build_corpus_with(&booted, cx.seed, 100, 1500, Catalog::Extended)
            })
        });
        let (profile_s, profiles) = timed(|| {
            cx.spans.time("profile.profile_corpus", || {
                profile_corpus(&booted, &corpus, 1)
            })
        });
        let (identify_s, pmcs) = timed(|| cx.spans.time("pmc.identify", || identify(&profiles)));
        let p = Pipeline {
            booted,
            corpus,
            profiles,
            pmcs,
            stats: Default::default(),
        };
        // `hunt` clusters once for its progress line, then selects.
        let (cluster_s, _) = timed(|| {
            cx.spans
                .time("cluster.cluster", || p.cluster_count(Strategy::SInsPair))
        });
        let (select_s, exemplars) = timed(|| {
            cx.spans.time("select.exemplars", || {
                p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst)
            })
        });
        let (campaign_s, hunted) = timed(|| {
            cx.spans
                .time("campaign.run_campaign", || p.campaign(&exemplars, &cfg))
        });
        report = hunted.ok();
        let pass = [
            boot_s, fuzz_s, profile_s, identify_s, cluster_s, select_s, campaign_s,
        ];
        for (best, seconds) in stage_best.iter_mut().zip(pass) {
            *best = best.min(seconds);
        }
    }
    let stages_s: f64 = stage_best.iter().sum();
    let listed: Vec<String> = STAGES
        .iter()
        .zip(stage_best)
        .map(|(name, s)| format!("{name} {:.1}", s * 1e3))
        .collect();
    eprintln!(
        "[layers] hunt --seed {}: child {:.1} ms; stages in-process, ms: {}",
        cx.seed,
        cli_s * 1e3,
        listed.join(", ")
    );
    tally.attempted += 1;
    let same_hunt = match (&cli, &report) {
        (Some(cli), Some(r)) => {
            cli.tested == r.tested() as u64
                && cli.executions == r.executions
                && cli.bugs == r.bug_ids()
        }
        _ => false,
    };
    if !same_hunt {
        tally.fail(
            1,
            "hunt probe: the in-process stages did not reproduce the CLI hunt".into(),
        );
    }
    v.insert("hunt.stages_s", stages_s);
    v.insert("hunt.unattributed_share", (cli_s - stages_s) / cli_s);
}
