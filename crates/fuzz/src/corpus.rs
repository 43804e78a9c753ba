//! Corpus construction: fuzz, execute sequentially, distill by coverage.
//!
//! Reproduces the §4.1 pipeline stage: run candidate sequential tests from
//! the fixed boot snapshot, measure their edge coverage, and keep a subset
//! with "high coverage but low overlap of exercised behaviors".

use std::sync::Arc;

use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Program, Res, Syscall};
use sb_kernel::BootedKernel;
use sb_vmm::sched::FreeRun;
use sb_vmm::{ExecReport, Executor};

use crate::coverage::CoverageMap;
use crate::gen::{Catalog, ProgGen};
use crate::mutate::mutate;

/// Statistics from a corpus build.
#[derive(Clone, Debug, Default)]
pub struct CorpusStats {
    /// Candidate programs executed.
    pub executed: u64,
    /// Programs kept (novel coverage).
    pub kept: u64,
    /// Total distinct edges covered.
    pub edges: usize,
}

/// Hand-written seed programs, one per subsystem entry point — the role
/// Syzkaller's syscall descriptions play in making every subsystem
/// reachable. The fuzzer mutates outward from these.
pub fn seed_programs() -> Vec<Program> {
    vec![
        // l2tp: create + connect (+ transmit).
        Program::new(vec![
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Connect { sock: Res(0), tunnel_id: 1 },
            Syscall::Sendmsg { sock: Res(0), len: 2 },
        ]),
        // ipc/rhashtable.
        Program::new(vec![
            Syscall::Msgget { key: 3 },
            Syscall::Msgsnd { id: Res(0), mtype: 1, val: 42 },
            Syscall::Msgrcv { id: Res(0), mtype: 1 },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Stat },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid },
        ]),
        // netdev MAC paths.
        Program::new(vec![
            Syscall::Socket { domain: Domain::Packet },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifHwAddr, arg: 5 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocGifHwAddr, arg: 0 },
            Syscall::Getsockname { sock: Res(0) },
        ]),
        // MTU / raw v6.
        Program::new(vec![
            Syscall::Socket { domain: Domain::RawV6 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifMtu, arg: 3 },
            Syscall::Sendmsg { sock: Res(0), len: 9 },
        ]),
        // Packet fanout.
        Program::new(vec![
            Syscall::Socket { domain: Domain::Packet },
            Syscall::Setsockopt { sock: Res(0), opt: sb_kernel::prog::SockOpt::PacketFanout, val: 0 },
            Syscall::Sendmsg { sock: Res(0), len: 1 },
            Syscall::Close { fd: Res(0) },
        ]),
        // TCP congestion control + fib6.
        Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Setsockopt { sock: Res(0), opt: sb_kernel::prog::SockOpt::TcpCongestion, val: 1 },
            Syscall::Connect { sock: Res(0), tunnel_id: 0 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocAddRt, arg: 0 },
        ]),
        // ext4 file IO + swap boot.
        Program::new(vec![
            Syscall::Open { path: Path::Ext4File(1) },
            Syscall::Write { fd: Res(0), off: 1, val: 7 },
            Syscall::Read { fd: Res(0), off: 1 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::Ext4SwapBoot, arg: 0 },
        ]),
        // Block device controls.
        Program::new(vec![
            Syscall::Open { path: Path::BlockDev },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkBszSet, arg: 1 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkRaSet, arg: 4 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkSetSize, arg: 2 },
            Syscall::Read { fd: Res(0), off: 2 },
            Syscall::Fadvise { fd: Res(0) },
        ]),
        // configfs.
        Program::new(vec![
            Syscall::Mkdir { item: 1 },
            Syscall::Open { path: Path::Configfs(1) },
            Syscall::Rmdir { item: 1 },
        ]),
        // tty.
        Program::new(vec![
            Syscall::Open { path: Path::Tty },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::TiocSerConfig, arg: 0 },
            Syscall::Close { fd: Res(0) },
        ]),
        // sound.
        Program::new(vec![
            Syscall::Open { path: Path::SndCtl },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SndCtlElemAdd, arg: 1 },
        ]),
        // mount (heavy).
        Program::new(vec![Syscall::Mount]),
    ]
}

/// Seed programs for the extended (sync-oracle) catalog: the stock seeds
/// plus one or two entry points per new subsystem. The futex waiter and
/// waker are split across two seeds — the lost wakeup (#18) needs a
/// concurrent pair where one side only waits.
pub fn seed_programs_extended() -> Vec<Program> {
    let mut seeds = seed_programs();
    seeds.extend([
        // futex waiter (the slot-1 wake gives the program a second access,
        // so it carries edges and survives distillation).
        Program::new(vec![
            Syscall::FutexWake { slot: 1 },
            Syscall::FutexWait { slot: 0 },
        ]),
        // futex waker.
        Program::new(vec![
            Syscall::FutexWake { slot: 0 },
            Syscall::FutexWake { slot: 1 },
        ]),
        // epoll: register + fire.
        Program::new(vec![
            Syscall::EpollAdd { slot: 0 },
            Syscall::EpollWake { slot: 0 },
        ]),
        // nbd: submit + disconnect.
        Program::new(vec![Syscall::NbdSend { len: 3 }, Syscall::NbdDisconnect]),
        // vsock: connect + transmit.
        Program::new(vec![
            Syscall::VsockConnect { cid: 1 },
            Syscall::VsockSend { len: 2 },
            Syscall::VsockSend { len: 5 },
        ]),
        // kernfs: activate + notify.
        Program::new(vec![
            Syscall::KernfsActivate { node: 0 },
            Syscall::KernfsNotify { node: 0 },
        ]),
        // workqueue: queue + flush.
        Program::new(vec![Syscall::WqQueue { work: 1 }, Syscall::WqFlush]),
    ]);
    seeds
}

/// Builds a coverage-distilled corpus of sequential tests from `catalog`
/// ([`Catalog::Stock`] keeps corpora byte-identical to pre-oracle builds,
/// [`Catalog::Extended`] adds seeds and generated calls for the sync-oracle
/// subsystems).
///
/// Runs seeds first, then generator/mutator candidates, executing each from
/// the boot snapshot and keeping those that add edge coverage, until
/// `target_kept` tests are kept or `budget` candidates have executed.
pub fn build_corpus_with(
    booted: &BootedKernel,
    seed: u64,
    target_kept: usize,
    budget: u64,
    catalog: Catalog,
) -> (Vec<Program>, CorpusStats) {
    build_corpus_kept(booted, seed, target_kept, budget, catalog, |_, _| {})
}

/// [`build_corpus_with`], handing the finished run of every program it keeps
/// to `kept` with the program's corpus index, before the executor takes the
/// run's buffers back. The run is the one a profiler would make of that
/// program — same snapshot, same job, one vCPU, [`FreeRun`] — so a caller
/// that cuts its profiles here never executes the corpus a second time.
pub fn build_corpus_kept(
    booted: &BootedKernel,
    seed: u64,
    target_kept: usize,
    budget: u64,
    catalog: Catalog,
    kept: impl FnMut(u32, &ExecReport),
) -> (Vec<Program>, CorpusStats) {
    let mut g = ProgGen::with_catalog(seed, catalog);
    let mut b = Builder {
        booted,
        exec: Executor::new(1),
        coverage: CoverageMap::new(),
        corpus: Vec::new(),
        stats: CorpusStats::default(),
        kept,
    };
    let seeds = match catalog {
        Catalog::Stock => seed_programs(),
        Catalog::Extended => seed_programs_extended(),
    };
    for s in seeds {
        b.try_program(s);
    }
    while b.stats.executed < budget && b.corpus.len() < target_kept {
        let prog = if b.corpus.is_empty() || g.rng().gen_bool(0.4) {
            g.gen_program(6)
        } else {
            let base = g.rng().choose(&b.corpus).expect("non-empty corpus");
            let other = g.rng().choose(&b.corpus);
            mutate(&mut g, base, other, 8)
        };
        b.try_program(prog);
    }
    b.stats.edges = b.coverage.len();
    (b.corpus, b.stats)
}

/// What one corpus build carries from candidate to candidate.
struct Builder<'a, K> {
    booted: &'a BootedKernel,
    exec: Executor,
    coverage: CoverageMap,
    corpus: Vec<Program>,
    stats: CorpusStats,
    kept: K,
}

impl<K: FnMut(u32, &ExecReport)> Builder<'_, K> {
    /// Executes `prog` from the boot snapshot and keeps it if it completes
    /// and covers an edge no kept program covered.
    fn try_program(&mut self, prog: Program) {
        if prog.is_empty() {
            return;
        }
        // The job's share of the program is dropped with the run's threads,
        // so a kept program moves into the corpus without a copy.
        let prog = Arc::new(prog);
        let r = self.exec.run(
            self.booted.snapshot.clone(),
            vec![self.booted.kernel.process_job_shared(Arc::clone(&prog))],
            &mut FreeRun,
        );
        self.stats.executed += 1;
        // Panicking sequential tests would poison profiling; the simulated
        // kernel has no sequential panics, but guard anyway.
        if r.report.outcome.is_completed() && self.coverage.merge_trace(&r.report.trace, 0) > 0 {
            (self.kept)(self.corpus.len() as u32, &r.report);
            self.corpus.push(Arc::unwrap_or_clone(prog));
            self.stats.kept += 1;
        }
        self.exec.recycle(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_kernel::{boot, KernelConfig};

    #[test]
    fn seeds_are_well_formed() {
        for (i, s) in seed_programs().iter().enumerate() {
            assert!(s.is_well_formed(), "seed {i} malformed: {s}");
        }
        for (i, s) in seed_programs_extended().iter().enumerate() {
            assert!(s.is_well_formed(), "extended seed {i} malformed: {s}");
        }
    }

    #[test]
    fn kept_runs_arrive_once_each_in_corpus_order_and_change_nothing() {
        let booted = boot(KernelConfig::v5_12_rc3());
        for catalog in [Catalog::Stock, Catalog::Extended] {
            let (plain, plain_stats) = build_corpus_with(&booted, 7, 25, 150, catalog);
            let mut runs = Vec::new();
            let (corpus, stats) = build_corpus_kept(&booted, 7, 25, 150, catalog, |test, run| {
                assert!(run.outcome.is_completed());
                runs.push((test, run.trace.len(), run.steps));
            });
            assert_eq!(corpus, plain);
            assert_eq!(
                (stats.executed, stats.kept, stats.edges),
                (plain_stats.executed, plain_stats.kept, plain_stats.edges)
            );
            // Each run is the one a second execution of the program records.
            let mut exec = Executor::new(1);
            for ((test, accesses, steps), (i, prog)) in runs.iter().zip(corpus.iter().enumerate()) {
                let job = booted.kernel.process_job(prog.clone());
                let again = exec.run(booted.snapshot.clone(), vec![job], &mut FreeRun);
                assert_eq!(
                    (*test as usize, *accesses, *steps),
                    (i, again.report.trace.len(), again.report.steps),
                    "{catalog:?}, test {i}"
                );
            }
            assert_eq!(runs.len(), corpus.len());
        }
    }

    #[test]
    fn extended_corpus_reaches_the_oracle_subsystems() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let (corpus, _) = build_corpus_with(&booted, 42, 60, 400, Catalog::Extended);
        let has = |name: &str| {
            corpus
                .iter()
                .any(|p| p.calls.iter().any(|c| c.name() == name))
        };
        for expect in [
            "futex_wait", "futex_wake", "epoll_add", "nbd_send", "vsock_connect",
            "kernfs_activate", "wq_queue", "wq_flush",
        ] {
            assert!(has(expect), "extended corpus never kept a {expect} program");
        }
        // Stock programs are still present too.
        assert!(has("socket"));
    }

    #[test]
    fn corpus_build_distills_by_coverage() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let (corpus, stats) = build_corpus_with(&booted, 42, 40, 300, Catalog::Stock);
        assert!(corpus.len() >= seed_programs().len() / 2, "seeds should mostly be kept");
        assert!(stats.kept <= stats.executed);
        assert!(stats.edges > 50, "expected meaningful edge diversity, got {}", stats.edges);
        // Distillation: strictly fewer kept than executed.
        assert!(stats.kept < stats.executed);
    }

    #[test]
    fn corpus_build_is_deterministic() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let (c1, _) = build_corpus_with(&booted, 7, 25, 150, Catalog::Stock);
        let (c2, _) = build_corpus_with(&booted, 7, 25, 150, Catalog::Stock);
        assert_eq!(c1, c2);
    }
}
