//! Corpus construction: fuzz, execute sequentially, distill by coverage.
//!
//! Reproduces the §4.1 pipeline stage: run candidate sequential tests from
//! the fixed boot snapshot, measure their edge coverage, and keep a subset
//! with "high coverage but low overlap of exercised behaviors".

use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Program, Res, Syscall};
use sb_kernel::BootedKernel;
use sb_vmm::sched::FreeRun;
use sb_vmm::Executor;

use crate::coverage::{edges_of_trace, CoverageMap};
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

/// Builds a coverage-distilled corpus of sequential tests.
///
/// Runs seeds first, then generator/mutator candidates, executing each from
/// the boot snapshot and keeping those that add edge coverage, until
/// `target_kept` tests are kept or `budget` candidates have executed.
pub fn build_corpus(
    booted: &BootedKernel,
    seed: u64,
    target_kept: usize,
    budget: u64,
) -> (Vec<Program>, CorpusStats) {
    build_corpus_with(booted, seed, target_kept, budget, Catalog::Stock)
}

/// [`build_corpus`] with an explicit syscall [`Catalog`]. The stock catalog
/// produces byte-identical corpora to [`build_corpus`]; the extended one
/// adds seeds and generated calls for the sync-oracle subsystems.
pub fn build_corpus_with(
    booted: &BootedKernel,
    seed: u64,
    target_kept: usize,
    budget: u64,
    catalog: Catalog,
) -> (Vec<Program>, CorpusStats) {
    let mut exec = Executor::new(1);
    let mut g = ProgGen::with_catalog(seed, catalog);
    let mut coverage = CoverageMap::new();
    let mut corpus: Vec<Program> = Vec::new();
    let mut stats = CorpusStats::default();

    let try_program = |prog: Program,
                           exec: &mut Executor,
                           coverage: &mut CoverageMap,
                           corpus: &mut Vec<Program>,
                           stats: &mut CorpusStats| {
        if prog.is_empty() {
            return;
        }
        let r = exec.run(
            booted.snapshot.clone(),
            vec![booted.kernel.process_job(prog.clone())],
            &mut FreeRun,
        );
        stats.executed += 1;
        // Panicking sequential tests would poison profiling; the simulated
        // kernel has no sequential panics, but guard anyway.
        if r.report.outcome.is_completed() {
            let edges = edges_of_trace(&r.report.trace, 0);
            if coverage.merge(&edges) > 0 {
                corpus.push(prog);
                stats.kept += 1;
            }
        }
        exec.recycle(r);
    };

    let seeds = match catalog {
        Catalog::Stock => seed_programs(),
        Catalog::Extended => seed_programs_extended(),
    };
    for s in seeds {
        try_program(s, &mut exec, &mut coverage, &mut corpus, &mut stats);
    }
    while stats.executed < budget && corpus.len() < target_kept {
        let prog = if corpus.is_empty() || g.rng().gen_bool(0.4) {
            g.gen_program(6)
        } else {
            let base = g.rng().choose(&corpus).cloned().expect("non-empty corpus");
            let other = g.rng().choose(&corpus).cloned();
            mutate(&mut g, &base, other.as_ref(), 8)
        };
        try_program(prog, &mut exec, &mut coverage, &mut corpus, &mut stats);
    }
    stats.edges = coverage.len();
    (corpus, stats)
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
    fn stock_catalog_corpus_matches_build_corpus_exactly() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let (c1, s1) = build_corpus(&booted, 7, 25, 150);
        let (c2, s2) = build_corpus_with(&booted, 7, 25, 150, Catalog::Stock);
        assert_eq!(c1, c2);
        assert_eq!(s1.executed, s2.executed);
        assert_eq!(s1.edges, s2.edges);
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
        let (corpus, stats) = build_corpus(&booted, 42, 40, 300);
        assert!(corpus.len() >= seed_programs().len() / 2, "seeds should mostly be kept");
        assert!(stats.kept <= stats.executed);
        assert!(stats.edges > 50, "expected meaningful edge diversity, got {}", stats.edges);
        // Distillation: strictly fewer kept than executed.
        assert!(stats.kept < stats.executed);
    }

    #[test]
    fn corpus_build_is_deterministic() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let (c1, _) = build_corpus(&booted, 7, 25, 150);
        let (c2, _) = build_corpus(&booted, 7, 25, 150);
        assert_eq!(c1, c2);
    }
}
