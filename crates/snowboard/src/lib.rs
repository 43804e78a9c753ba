//! Snowboard: finding kernel concurrency bugs through systematic
//! inter-thread communication analysis — a Rust reproduction of the
//! SOSP 2021 paper.
//!
//! The pipeline mirrors Figure 2 of the paper:
//!
//! 1. **Sequential test generation and profiling** (§4.1) — one pass: a
//!    coverage-distilled corpus from [`sb_fuzz`], the profile of each kept
//!    test cut from the run that kept it ([`profile`]). The paper profiles
//!    after an external fuzzer; here both are the same deterministic
//!    executor on the same boot snapshot, so a second run would record the
//!    same trace.
//! 2. **PMC identification** (§4.2, Algorithm 1) — [`pmc::identify`] finds
//!    every write/read pair with overlapping ranges and differing values.
//! 3. **PMC selection** (§4.3, Table 1) — [`cluster`] implements the eight
//!    clustering strategies; [`select`] orders clusters uncommon-first and
//!    picks exemplars.
//! 4. **Concurrent test execution** (§4.4, Algorithm 2) — [`campaign`]
//!    executes each exemplar's test pair under the PMC-hinted scheduler
//!    with the stock detectors from [`sb_detect`].
//!
//! [`baseline`] provides the Random/Duplicate pairing baselines,
//! [`metrics`] the §5 measurements, and [`triage`] the ground-truth
//! matching that stands in for the paper's manual inspection.
//!
//! Campaign execution is fault tolerant: per-job failures are typed
//! ([`error`]), bounded by a watchdog ([`watchdog`]), retried with
//! deterministic reseeds ([`retry`]), quarantined when permanent, and
//! logged to an append-only checkpoint for kill/resume ([`checkpoint`]); [`fault`]
//! provides deterministic fault injection for testing that machinery.
//! The job lifecycle — resume, lease, merge, crash budget, breaker,
//! checkpoint, report — is one state machine ([`ledger`]) driven
//! by two transports: scoped threads ([`campaign`]), and [`fleet`], which
//! extends the same guarantees across *machine* boundaries: a TCP
//! coordinator leases jobs to joining workers over the [`protocol`] wire
//! format with heartbeat eviction, exactly-once merging of late results,
//! and deterministic network fault injection, while keeping the merged
//! report bit-identical to a single-process run. [`supervise`] runs that
//! coordinator on loopback over a pool of its own worker processes,
//! surviving aborts, OOM kills, and wedged workers that in-process
//! catch-unwind cannot. [`chaos`] unifies every
//! fault plane behind one `plane:kind=args` spec grammar and generates
//! deterministic fault schedules for `hunt chaos` self-chaos campaigns.
//!
//! # Examples
//!
//! ```no_run
//! use snowboard::{Pipeline, PipelineCfg};
//! use snowboard::cluster::Strategy;
//! use snowboard::select::ClusterOrder;
//! use sb_kernel::KernelConfig;
//!
//! let pipeline = Pipeline::prepare(KernelConfig::v5_12_rc3(), PipelineCfg::default());
//! let exemplars = pipeline.exemplars(Strategy::SInsPair, ClusterOrder::UncommonFirst);
//! let report = pipeline.campaign(&exemplars, &Default::default()).expect("campaign");
//! println!("found: {:?}", report.bug_ids());
//! ```

pub mod baseline;
pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod diagnose;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod journal;
pub mod ledger;
pub mod metrics;
pub mod multi;
pub mod pmc;
mod pool;
pub mod profile;
pub mod protocol;
pub mod retry;
pub mod select;
pub mod supervise;
pub mod triage;
pub mod watchdog;

use sb_kernel::{boot, BootedKernel, KernelConfig, Program};

pub use sb_detect::{OracleCtx, OracleSet};
pub use sb_fuzz::Catalog;

/// The hand-rolled u64-exact JSON codec now lives in `sb-obs` (it also
/// serializes trace events); re-exported so `snowboard::json` call sites
/// keep working.
pub use sb_obs::json;
pub use sb_obs::{keys as trace_keys, Tracer};

pub use campaign::{CampaignCfg, CampaignReport, QuarantineRecord};
pub use chaos::{ChaosMode, ChaosPlan, DiskFaults, Expectation, Schedule, ScheduleGen};
pub use checkpoint::Checkpoint;
pub use cluster::Strategy;
pub use error::{Error, FailureKind, SbResult};
pub use fault::{FaultPlan, NetFaultPlan};
pub use fleet::{
    config_fingerprint, run_coordinator, run_join, FleetCfg, FleetWork, JoinCfg, JoinSummary,
};
pub use journal::{FrameLog, JournalRecord};
pub use ledger::JobLedger;
pub use metrics::{FleetStats, StoreStats};
pub use pmc::{identify_sharded, IdentifyOpts, JoinReport, JoinState, Pmc, PmcId, PmcSet};
pub use profile::{SeqProfile, SharedAccessFilter};
pub use protocol::{
    read_frame, write_frame, JoinMsg, ProtocolError, ServeMsg, FLEET_PROTO_VERSION,
};
pub use retry::RetryPolicy;
pub use supervise::{run_supervised, SuperviseCfg};
pub use watchdog::JobBudget;

/// Configuration for pipeline preparation (stages 1–2).
#[derive(Clone, Debug)]
pub struct PipelineCfg {
    /// Fuzzing seed.
    pub seed: u64,
    /// Distilled corpus size target.
    pub corpus_target: usize,
    /// Fuzzing candidate budget.
    pub fuzz_budget: u64,
    /// Read by no pipeline code: every prepare, store-backed or not,
    /// profiles inside the one-threaded fuzz loop. Kept because the
    /// benchmark builds this struct by name and sizes its own explicit
    /// [`profile::profile_corpus`] passes with it.
    pub workers: usize,
    /// Syscall catalog for corpus generation. [`Catalog::Stock`] (the
    /// default) keeps corpora byte-identical to pre-oracle builds;
    /// [`Catalog::Extended`] adds the sync-oracle subsystem calls.
    pub catalog: Catalog,
    /// Structured tracer; disabled by default ([`Tracer::disabled`]).
    pub tracer: Tracer,
}

impl Default for PipelineCfg {
    fn default() -> Self {
        PipelineCfg {
            seed: 2021,
            corpus_target: 120,
            fuzz_budget: 2_000,
            workers: 4,
            catalog: Catalog::default(),
            tracer: Tracer::disabled(),
        }
    }
}

/// The prepared pipeline: booted kernel, corpus, profiles, and PMC set.
pub struct Pipeline {
    /// The booted kernel and snapshot.
    pub booted: BootedKernel,
    /// The sequential test corpus (index = test id).
    pub corpus: Vec<Program>,
    /// Per-test memory-access profiles.
    pub profiles: Vec<SeqProfile>,
    /// The identified PMC universe.
    pub pmcs: PmcSet,
    /// Preparation statistics.
    pub stats: PrepStats,
}

/// Preparation-stage statistics (the §5.4 pipeline-performance numbers).
#[derive(Clone, Debug, Default)]
pub struct PrepStats {
    /// Fuzzing executions performed.
    pub fuzz_executed: u64,
    /// Corpus tests kept.
    pub corpus_kept: u64,
    /// Distinct coverage edges.
    pub edges: usize,
    /// Total shared accesses profiled.
    pub shared_accesses: usize,
    /// PMCs identified.
    pub pmcs_identified: usize,
    /// Wall time of corpus building; in [`Pipeline::prepare`] that pass also
    /// cuts every profile, so there is no separate profiling time.
    pub fuzz_time: std::time::Duration,
    /// Wall time of PMC identification.
    pub identify_time: std::time::Duration,
}

impl Pipeline {
    /// Runs stages 1–2: boot, fuzz and profile a corpus, identify PMCs.
    ///
    /// Each program is executed once. The fuzzer and the profiler are the
    /// same deterministic executor on the same snapshot, so the run that
    /// earned a program its place in the corpus is its profile run, and the
    /// profile is cut from it before the next candidate starts
    /// (DESIGN.md §7). [`profile::profile_corpus`] remains for callers that
    /// hold programs but no runs.
    pub fn prepare(config: KernelConfig, cfg: PipelineCfg) -> Self {
        let tracer = cfg.tracer.clone();
        let Ok(p) = Self::prepare_with(config, cfg, |_, profiles| {
            Ok::<_, std::convert::Infallible>(pmc::identify_traced(profiles, &tracer))
        });
        p
    }

    /// [`Pipeline::prepare`] with stage 2 supplied by the caller: `identify`
    /// receives the corpus and the profiles cut from its runs (one per
    /// program, in corpus order) and returns their PMC set. The store-backed
    /// prepare records profiles and reuses stored sets there; its error
    /// ends the prepare.
    pub fn prepare_with<E>(
        config: KernelConfig,
        cfg: PipelineCfg,
        identify: impl FnOnce(&[Program], &[SeqProfile]) -> Result<PmcSet, E>,
    ) -> Result<Self, E> {
        let tracer = cfg.tracer;
        let prep = tracer.span("prepare");
        let booted = boot(config);
        let t0 = std::time::Instant::now();
        let filter = SharedAccessFilter::new();
        let mut profiles: Vec<SeqProfile> = Vec::new();
        let mut traced = 0u64;
        let (corpus, fuzz_stats) = {
            let _s = prep.child("fuzz");
            sb_fuzz::build_corpus_kept(
                &booted,
                cfg.seed,
                cfg.corpus_target,
                cfg.fuzz_budget,
                cfg.catalog,
                |test, run| {
                    traced += run.trace.len() as u64;
                    profiles.push(filter.cut(test, run));
                },
            )
        };
        let fuzz_time = t0.elapsed();
        let shared_accesses: usize = profiles.iter().map(|p| p.accesses.len()).sum();
        tracer.count(
            trace_keys::ACCESSES_DROPPED,
            traced - shared_accesses as u64,
        );
        let t1 = std::time::Instant::now();
        let pmcs = {
            let _s = prep.child("identify");
            identify(&corpus, &profiles)?
        };
        let identify_time = t1.elapsed();
        tracer.count(trace_keys::PIPELINE_PROFILES, profiles.len() as u64);
        tracer.count(trace_keys::PIPELINE_SHARED_ACCESSES, shared_accesses as u64);
        tracer.count(trace_keys::PIPELINE_PMCS, pmcs.len() as u64);
        let stats = PrepStats {
            fuzz_executed: fuzz_stats.executed,
            corpus_kept: fuzz_stats.kept,
            edges: fuzz_stats.edges,
            shared_accesses,
            pmcs_identified: pmcs.len(),
            fuzz_time,
            identify_time,
        };
        Ok(Pipeline {
            booted,
            corpus,
            profiles,
            pmcs,
            stats,
        })
    }

    /// Stage 3: ordered exemplars for one strategy.
    pub fn exemplars(&self, strategy: Strategy, order: select::ClusterOrder) -> Vec<PmcId> {
        self.exemplars_traced(strategy, order, &Tracer::disabled())
    }

    /// [`Pipeline::exemplars`] with selection metrics emitted to `tracer`.
    pub fn exemplars_traced(
        &self,
        strategy: Strategy,
        order: select::ClusterOrder,
        tracer: &Tracer,
    ) -> Vec<PmcId> {
        select::exemplars_traced(
            &self.pmcs,
            strategy,
            order,
            0xC1A5_5E00 ^ strategy as u64,
            &std::collections::HashSet::new(),
            tracer,
        )
    }

    /// Stage 4: run a campaign over an exemplar list.
    ///
    /// Per-job failures never surface here — they land in
    /// [`CampaignReport::quarantined`]; `Err` means a campaign-level
    /// problem (bad resume checkpoint, failed checkpoint write).
    pub fn campaign(&self, exemplars: &[PmcId], cfg: &CampaignCfg) -> SbResult<CampaignReport> {
        campaign::run_campaign(&self.booted, &self.corpus, &self.pmcs, exemplars, cfg)
    }

    /// Number of clusters each strategy induces (Table 3's "Exemplar PMCs"
    /// column).
    pub fn cluster_count(&self, strategy: Strategy) -> usize {
        cluster::cluster(&self.pmcs, strategy).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A prepare executes the guest `stats.fuzz_executed` times: the fuzz
    /// loop counts its runs there (one `Executor::run` per increment), and
    /// the only other code on this path that runs a program — the profile
    /// pass — is not reached.
    #[test]
    fn prepare_runs_the_guest_once_per_fuzzed_program() {
        let config = KernelConfig::v5_12_rc3();
        let profile_runs = || profile::GUEST_RUNS.with(std::cell::Cell::get);
        for catalog in [Catalog::Stock, Catalog::Extended] {
            let cfg = PipelineCfg {
                seed: 2021,
                corpus_target: 100,
                fuzz_budget: 1500,
                workers: 1,
                catalog,
                ..PipelineCfg::default()
            };
            let before = profile_runs();
            let p = Pipeline::prepare(config, cfg);
            assert_eq!(
                profile_runs(),
                before,
                "{catalog:?}: prepare ran a profile pass"
            );
            assert_eq!(p.profiles.len(), p.corpus.len());
            let (corpus, fuzz) = sb_fuzz::build_corpus_with(&p.booted, 2021, 100, 1500, catalog);
            assert_eq!((p.stats.fuzz_executed, &p.corpus), (fuzz.executed, &corpus));
            assert!(
                fuzz.executed > fuzz.kept,
                "{catalog:?}: some candidate must be dropped"
            );
            // The explicit pass is what the counter counts: one run a program.
            let profiles = profile::profile_corpus(&p.booted, &p.corpus, 1);
            assert_eq!(profile_runs() - before, corpus.len() as u64);
            assert_eq!(profiles, p.profiles);
        }
    }
}
