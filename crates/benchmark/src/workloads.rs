//! The four gated workloads.
//!
//! Every workload is closed loop with one client: the harness issues the
//! next rep only after the previous one returned. All use
//! `KernelConfig::v5_12_rc3()`, every oracle, the extended syscall catalog
//! (what `hunt` picks when every oracle is on) and one worker wherever the
//! program takes a worker count.
//!
//! A workload is split into *groups*: group `g` derives its own program seed
//! from `--seed` and owns its own inputs. All reps of one group are
//! identical, so the best of them estimates that group's cost; summing over
//! groups makes the run's throughput an average over several inputs, which is
//! what keeps it steady from one `--seed` to the next (a single corpus moves
//! trials/s by ±20 %).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sb_kernel::{boot, bugs, KernelConfig};
use sb_store::{profile_key, PmcLookup, ProfileLookup, Store};
use snowboard::cluster::{Strategy, ALL_STRATEGIES};
use snowboard::pmc::{identify, identify_sharded, PmcId, PmcSet};
use snowboard::profile::{profile_corpus, SeqProfile};
use snowboard::select::ClusterOrder;
use snowboard::{CampaignCfg, Catalog, Pipeline, PipelineCfg};

use crate::spans::Recorder;
use crate::stats::{fnv1a, fnv1a_debug};

/// Exemplars per `trials-hot` rep and trials per exemplar: the rep is
/// `64 x 16` trials whatever the seed.
pub const HOT_JOBS: usize = 64;
pub const HOT_TRIALS: u32 = 16;
/// Records one `store-cycle` rep writes (and reads back), about.
pub const STORE_RECORDS: usize = 2500;

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    /// What one unit of `units_per_s` is.
    pub unit: &'static str,
    /// What one attempted/failed operation is.
    pub op: &'static str,
    /// Independent inputs (sub-seeds) per run.
    pub groups: usize,
    /// Timed identical reps per group at [`crate::RUN_SECONDS`].
    pub reps_per_group: usize,
    pub why: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hunt-e2e",
        unit: "trials",
        op: "PMCs tested",
        groups: 10,
        reps_per_group: 8,
        why: "the command a user types, as a child process at CLI-default scale: the one wall-clock number; fuzz+profile and trials both count",
    },
    Spec {
        name: "trials-hot",
        unit: "guest steps",
        op: "PMCs tested",
        groups: 8,
        reps_per_group: 8,
        why: "64 exemplars x 16 hinted two-vCPU trials on a prepared pipeline: the paper's dominant cost, vmm stepping under SnowboardSched; no fuzz, profile, pmc or store",
    },
    Spec {
        name: "prepare-cold",
        unit: "programs",
        op: "programs",
        groups: 24,
        reps_per_group: 7,
        why: "full-scale prepare plus exemplars for all eight strategies: the same executor the other way (one vCPU, FreeRun, full traces) plus fuzz, profile, pmc, cluster, select; no concurrent trial",
    },
    Spec {
        name: "store-cycle",
        unit: "records",
        op: "records",
        groups: 4,
        reps_per_group: 15,
        why: "write ~2500 records, flush, reopen with recovery scan, read every record back: the one layer nothing else touches (codec, crc, segment, manifest); a vmm or campaign change must not move it",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The program seed of group `g`; group 0 runs `--seed` itself.
pub fn group_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one rep did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Time spent inside program calls (harness-side checking excluded).
    pub seconds: f64,
    /// FNV-1a of the rep's output; must equal the group's warm-up rep's.
    pub digest: u64,
    /// Units of work done (see [`Spec::unit`]).
    pub units: u64,
    /// Operations attempted / failed inside the rep (see [`Spec::op`]).
    pub ops: u64,
    pub failed: u64,
    /// Registry ids of the bugs the rep's output holds, ascending, distinct.
    pub bugs: Vec<u8>,
    /// Why an operation failed, for the log.
    pub note: Option<String>,
}

/// Accumulates time across the program calls of one rep.
#[derive(Default)]
struct Clock(Duration);

impl Clock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed();
        out
    }

    fn seconds(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// One group of one workload, set up and ready to repeat.
pub trait Group {
    /// Runs one rep. With an enabled recorder the rep takes the *decomposed*
    /// path — the same work through the stage functions the top-level call is
    /// made of, one span each — and its digest must still equal the plain
    /// path's.
    fn rep(&mut self, spans: &Recorder) -> Rep;
}

/// Everything a group's setup may need from the harness.
pub struct Env {
    /// Directory for store files (see [`crate::harness::Scratch`]).
    pub scratch: PathBuf,
    /// The release `snowboard-cli` next to this executable.
    pub cli: PathBuf,
}

pub fn setup(name: &str, seed: u64, env: &Env, spans: &Recorder) -> Result<Box<dyn Group>, String> {
    match name {
        "hunt-e2e" => Ok(Box::new(HuntE2e {
            cli: env.cli.clone(),
            seed,
        })),
        "trials-hot" => Ok(Box::new(TrialsHot::setup(seed, spans)?)),
        "prepare-cold" => Ok(Box::new(PrepareCold { seed })),
        "store-cycle" => Ok(Box::new(StoreCycle::setup(seed, env, spans))),
        other => Err(format!("unknown workload '{other}'")),
    }
}

pub fn config() -> KernelConfig {
    KernelConfig::v5_12_rc3()
}

/// `PipelineCfg` with the knobs every workload pins.
pub fn pipeline_cfg(seed: u64, corpus_target: usize, fuzz_budget: u64) -> PipelineCfg {
    PipelineCfg {
        seed,
        corpus_target,
        fuzz_budget,
        workers: 1,
        catalog: Catalog::Extended,
        ..PipelineCfg::default()
    }
}

/// The quick-scale pipeline (`hunt`'s defaults: corpus 100, budget 15 x
/// corpus) that `trials-hot`, `store-cycle` and the layer probes start from.
pub fn quick_pipeline(seed: u64, spans: &Recorder) -> Pipeline {
    spans.time("setup.prepare", || {
        Pipeline::prepare(config(), pipeline_cfg(seed, 100, 1500))
    })
}

/// Distinct registry race bugs whose racing instruction pair some PMC of
/// `set` names — the bugs a prepare (or a store round trip) still *predicts*.
/// The contract wants every end-to-end metric on every workload and none may
/// be zero, so this is what `bugs_found` counts where no campaign runs.
pub fn predicted_bugs(set: &PmcSet) -> Vec<u8> {
    let mut ids: Vec<u8> = set
        .pmcs
        .iter()
        .filter_map(|p| bugs::match_race(&p.key.w.ins.display_name(), &p.key.r.ins.display_name()))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

// ---------------------------------------------------------------------------
// hunt-e2e
// ---------------------------------------------------------------------------

/// Finds the release CLI beside this executable; both come out of the same
/// `cargo build --release`.
pub fn locate_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let cli = exe.with_file_name("snowboard-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p sb-cli`",
            cli.display()
        ))
    }
}

pub struct HuntE2e {
    cli: PathBuf,
    seed: u64,
}

/// What the harness reads off a finished `hunt`'s stdout.
#[derive(Debug, PartialEq, Eq)]
pub struct HuntStdout {
    /// `tested N PMCs in M executions ...`
    pub tested: u64,
    pub executions: u64,
    /// Distinct `#<id>` among the `: #<id> [` issue lines, ascending.
    pub bugs: Vec<u8>,
    /// A `quarantined K job(s):` line, if any.
    pub quarantined: u64,
}

pub fn parse_hunt_stdout(out: &str) -> Option<HuntStdout> {
    let mut first = out
        .lines()
        .next()?
        .strip_prefix("tested ")?
        .split_whitespace();
    let tested = first.next()?.parse().ok()?;
    let executions = first.nth(2)?.parse().ok()?;
    let mut bugs: Vec<u8> = out
        .lines()
        .filter_map(|l| {
            let (_, rest) = l.split_once(": #")?;
            let (id, _) = rest.split_once(" [")?;
            id.parse().ok()
        })
        .collect();
    bugs.sort_unstable();
    bugs.dedup();
    let quarantined = out
        .lines()
        .find_map(|l| {
            l.strip_prefix("quarantined ")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0);
    Some(HuntStdout {
        tested,
        executions,
        bugs,
        quarantined,
    })
}

impl HuntE2e {
    /// Spawns `snowboard-cli hunt --seed S --workers 1` and waits for it.
    pub fn run_cli(cli: &Path, seed: u64) -> std::io::Result<std::process::Output> {
        Command::new(cli)
            .args(["hunt", "--seed", &seed.to_string(), "--workers", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
    }
}

impl Group for HuntE2e {
    fn rep(&mut self, spans: &Recorder) -> Rep {
        let mut clock = Clock::default();
        let out = clock.time(|| spans.time("hunt.cli", || Self::run_cli(&self.cli, self.seed)));
        let mut rep = Rep {
            seconds: clock.seconds(),
            ops: 1,
            ..Rep::default()
        };
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                rep.failed = 1;
                rep.note = Some(format!("cannot run {}: {e}", self.cli.display()));
                return rep;
            }
        };
        rep.digest = fnv1a(&out.stdout);
        let parsed = parse_hunt_stdout(&String::from_utf8_lossy(&out.stdout));
        match (out.status.code(), parsed) {
            (Some(0), Some(h)) => {
                rep.units = h.executions;
                rep.ops = h.tested;
                rep.bugs = h.bugs;
            }
            (code, Some(h)) => {
                // Exit 3 is "completed with quarantines"; anything non-zero
                // fails the jobs it could not vouch for.
                rep.ops = h.tested.max(1);
                rep.failed = h.quarantined.max(1);
                rep.note = Some(format!("hunt exited {code:?}"));
            }
            (code, None) => {
                rep.failed = 1;
                rep.note = Some(format!("hunt exited {code:?} with unreadable stdout"));
            }
        }
        rep
    }
}

// ---------------------------------------------------------------------------
// trials-hot
// ---------------------------------------------------------------------------

pub struct TrialsHot {
    pipeline: Pipeline,
    exemplars: Vec<PmcId>,
    cfg: CampaignCfg,
}

/// The campaign configuration of one `trials-hot` rep.
pub fn hot_campaign_cfg(seed: u64) -> CampaignCfg {
    CampaignCfg {
        seed,
        trials_per_pmc: HOT_TRIALS,
        stop_on_finding: false,
        incidental: true,
        workers: 1,
        ..CampaignCfg::default()
    }
}

/// The first [`HOT_JOBS`] `SInsPair`/`UncommonFirst` exemplars of `p`.
pub fn hot_exemplars(p: &Pipeline) -> Result<Vec<PmcId>, String> {
    let all = p.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
    if all.len() < HOT_JOBS {
        return Err(format!(
            "only {} S-INS-PAIR exemplars, need {HOT_JOBS}",
            all.len()
        ));
    }
    Ok(all[..HOT_JOBS].to_vec())
}

impl TrialsHot {
    fn setup(seed: u64, spans: &Recorder) -> Result<Self, String> {
        let pipeline = quick_pipeline(seed, spans);
        let exemplars = hot_exemplars(&pipeline)?;
        Ok(TrialsHot {
            pipeline,
            exemplars,
            cfg: hot_campaign_cfg(seed),
        })
    }
}

impl Group for TrialsHot {
    fn rep(&mut self, spans: &Recorder) -> Rep {
        let mut clock = Clock::default();
        let report = clock.time(|| {
            spans.time("campaign.run_campaign", || {
                self.pipeline.campaign(&self.exemplars, &self.cfg)
            })
        });
        let mut rep = Rep {
            seconds: clock.seconds(),
            ops: HOT_JOBS as u64,
            ..Rep::default()
        };
        match report {
            Ok(r) => {
                rep.digest = fnv1a_debug(&r);
                rep.units = r.total_steps;
                rep.bugs = r.bug_ids();
                rep.failed = r.quarantined.len() as u64;
                let want = HOT_JOBS as u64 * u64::from(HOT_TRIALS);
                if r.executions != want {
                    rep.failed = rep.failed.max(1);
                    rep.note = Some(format!("{} executions, expected {want}", r.executions));
                }
            }
            Err(e) => {
                rep.failed = rep.ops;
                rep.note = Some(format!("campaign failed: {}", e.chain().join("; ")));
            }
        }
        rep
    }
}

// ---------------------------------------------------------------------------
// prepare-cold
// ---------------------------------------------------------------------------

pub struct PrepareCold {
    seed: u64,
}

const FULL_CORPUS: usize = 250;
const FULL_FUZZ_BUDGET: u64 = 6000;

impl Group for PrepareCold {
    fn rep(&mut self, spans: &Recorder) -> Rep {
        let mut clock = Clock::default();
        let cfg = pipeline_cfg(self.seed, FULL_CORPUS, FULL_FUZZ_BUDGET);
        let (pipeline, exemplars) = clock.time(|| {
            let p = if spans.enabled() {
                prepare_by_stage(cfg, spans)
            } else {
                Pipeline::prepare(config(), cfg)
            };
            let ex: Vec<Vec<PmcId>> = ALL_STRATEGIES
                .iter()
                .map(|s| {
                    spans.time("select.exemplars", || {
                        p.exemplars(*s, ClusterOrder::UncommonFirst)
                    })
                })
                .collect();
            (p, ex)
        });
        let programs = pipeline.stats.fuzz_executed + pipeline.profiles.len() as u64;
        let mut rep = Rep {
            seconds: clock.seconds(),
            digest: fnv1a_debug(&(&pipeline.corpus, &pipeline.pmcs, &exemplars)),
            units: programs,
            ops: programs,
            bugs: predicted_bugs(&pipeline.pmcs),
            ..Rep::default()
        };
        // Programs that ran but cannot serve as profile sources are failed
        // operations; so is a sharded join that disagrees with the inline one.
        rep.failed = (pipeline.corpus.len() - pipeline.profiles.len()) as u64;
        if identify_sharded(&pipeline.profiles, 2, 1) != pipeline.pmcs {
            rep.failed = rep.failed.max(1);
            rep.note = Some("identify_sharded(.., 2, 1) != identify".into());
        }
        rep
    }
}

/// `Pipeline::prepare` spelled out through the public stage functions it is
/// made of, one span per stage. Must stay equivalent to the real thing: the
/// digest gate compares this path's output with the plain warm-up rep's.
pub fn prepare_by_stage(cfg: PipelineCfg, spans: &Recorder) -> Pipeline {
    let booted = spans.time("kernel.boot", || boot(config()));
    let (corpus, fuzz) = spans.time("fuzz.build_corpus", || {
        sb_fuzz::build_corpus_with(
            &booted,
            cfg.seed,
            cfg.corpus_target,
            cfg.fuzz_budget,
            cfg.catalog,
        )
    });
    let profiles = spans.time("profile.profile_corpus", || {
        profile_corpus(&booted, &corpus, cfg.workers)
    });
    let pmcs = spans.time("pmc.identify", || identify(&profiles));
    let stats = snowboard::PrepStats {
        fuzz_executed: fuzz.executed,
        corpus_kept: fuzz.kept,
        edges: fuzz.edges,
        pmcs_identified: pmcs.len(),
        ..Default::default()
    };
    Pipeline {
        booted,
        corpus,
        profiles,
        pmcs,
        stats,
    }
}

// ---------------------------------------------------------------------------
// store-cycle
// ---------------------------------------------------------------------------

pub struct StoreCycle {
    dir: PathBuf,
    profiles: Vec<SeqProfile>,
    pmcs: PmcSet,
    /// `keys[k][i]`: content key of profile `i` under key seed `k`.
    keys: Vec<Vec<u64>>,
    /// One reusable insert batch; its keys are rewritten per key seed.
    batch: Vec<(u64, Option<SeqProfile>)>,
    predicted: Vec<u8>,
}

impl StoreCycle {
    fn setup(seed: u64, env: &Env, spans: &Recorder) -> Self {
        let p = quick_pipeline(seed, spans);
        let key_seeds = STORE_RECORDS.div_ceil(p.profiles.len().max(1));
        let keys: Vec<Vec<u64>> = (0..key_seeds as u64)
            .map(|k| {
                p.profiles
                    .iter()
                    .map(|pr| {
                        profile_key(&config(), seed.wrapping_add(k), &p.corpus[pr.test as usize])
                    })
                    .collect()
            })
            .collect();
        let batch = p.profiles.iter().map(|pr| (0, Some(pr.clone()))).collect();
        StoreCycle {
            dir: env.scratch.join(format!("store-{seed:016x}")),
            predicted: predicted_bugs(&p.pmcs),
            profiles: p.profiles,
            pmcs: p.pmcs,
            keys,
            batch,
        }
    }

    /// Write phase then read phase against a fresh directory. Returns the
    /// number of records that did not read back equal.
    fn cycle(&mut self, clock: &mut Clock, spans: &Recorder) -> Result<u64, sb_store::Error> {
        let dir = self.dir.clone();
        let corpus_keys = &self.keys[0];
        let mut store = clock.time(|| spans.time("store.open", || Store::open(&dir)))?;
        for keys in &self.keys {
            for (slot, key) in self.batch.iter_mut().zip(keys) {
                slot.0 = *key;
            }
            let batch = &self.batch;
            clock.time(|| spans.time("store.insert_profiles", || store.insert_profiles(batch)))?;
        }
        clock.time(|| {
            spans.time("store.save_pmcs", || {
                store.save_pmcs(corpus_keys, &self.pmcs)
            })
        })?;
        clock.time(|| spans.time("store.flush", || store.flush()))?;
        clock.time(|| drop(store));

        // The read-back keeps the default read cache: `set_read_cache(false)`
        // is `--no-cache`, which turns every lookup into a miss. There is no
        // in-memory record cache to bypass — each lookup reads and CRC-checks
        // the segment file.
        let mut store = clock.time(|| spans.time("store.reopen", || Store::open(&dir)))?;
        let mut bad = 0u64;
        let lookups = spans.enter("store.lookup_profiles");
        for keys in &self.keys {
            for (original, key) in self.profiles.iter().zip(keys) {
                let got = clock.time(|| store.lookup_profile(*key, original.test))?;
                if !matches!(got, ProfileLookup::Hit(p) if p == *original) {
                    bad += 1;
                }
            }
        }
        drop(lookups);
        let got =
            clock.time(|| spans.time("store.lookup_pmcs", || store.lookup_pmcs(corpus_keys)))?;
        if !matches!(got, PmcLookup::Exact(set) if set == self.pmcs) {
            bad += 1;
        }
        Ok(bad + store.records_damaged)
    }
}

impl Group for StoreCycle {
    fn rep(&mut self, spans: &Recorder) -> Rep {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut clock = Clock::default();
        let outcome = self.cycle(&mut clock, spans);
        let _ = std::fs::remove_dir_all(&self.dir);
        let records = (self.keys.len() * self.profiles.len() + 1) as u64;
        let mut rep = Rep {
            seconds: clock.seconds(),
            units: 2 * records,
            ops: 2 * records,
            bugs: self.predicted.clone(),
            ..Rep::default()
        };
        match outcome {
            Ok(bad) => {
                rep.failed = bad;
                // The read-back equalled the originals record by record, so
                // the originals' digest stands for the rep's output.
                rep.digest = fnv1a_debug(&(records, bad));
                if bad > 0 {
                    rep.note = Some(format!("{bad} record(s) did not read back equal"));
                }
            }
            Err(e) => {
                rep.failed = rep.ops;
                rep.note = Some(format!("store error: {e}"));
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_zero_runs_the_seed_itself_and_groups_differ() {
        assert_eq!(group_seed(2021, 0), 2021);
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|g| group_seed(2021, g)).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn hunt_stdout_yields_tested_and_distinct_bug_ids() {
        let out = "tested 191 PMCs in 738 executions; 33.0% exercised their predicted channel\n\
                   \n\
                   issues, in discovery order:\n\
                   \x20 after   25 tests: #17 [HARMFUL] Data race: a() / b()\n\
                   \x20 after   27 tests: (untriaged) lockrule:configfs_lookup:inner@lock\n\
                   \x20 after   59 tests: #17 [HARMFUL] Data race: a() / b()\n\
                   \x20 after  120 tests: #16 [benign] Data race: c() / d()\n";
        assert_eq!(
            parse_hunt_stdout(out),
            Some(HuntStdout {
                tested: 191,
                executions: 738,
                bugs: vec![16, 17],
                quarantined: 0
            })
        );
        let q = "tested 5 PMCs in 9 executions; 0.0% exercised their predicted channel\n\
                 quarantined 2 job(s):\n  panic: 2\nno issues found\n";
        assert_eq!(
            parse_hunt_stdout(q),
            Some(HuntStdout {
                tested: 5,
                executions: 9,
                bugs: vec![],
                quarantined: 2
            })
        );
        assert_eq!(parse_hunt_stdout("error: nope\n"), None);
    }

    #[test]
    fn every_spec_keeps_enough_reps_for_a_p75() {
        for s in &SPECS {
            let n = s.groups * s.reps_per_group;
            assert!(n >= 48, "{}: {n} timed reps", s.name);
            assert_eq!(
                crate::stats::highest_supported_percentile(n).map(|p| p >= 75.0),
                Some(true),
                "{}",
                s.name
            );
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
    }
}
