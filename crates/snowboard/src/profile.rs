//! Sequential test profiling (§4.1).
//!
//! Each corpus program runs alone, from the fixed boot snapshot, under the
//! free-run scheduler; its memory accesses are recorded and then pruned to
//! *potentially shared* accesses using the paper's two filters: only the
//! target thread's accesses (the CR3 filter — trivially satisfied here, one
//! thread runs), and only non-stack addresses, computed with the ESP mask
//! formula of §4.1.1.

use sb_kernel::{BootedKernel, Program};
use sb_vmm::access::Access;
use sb_vmm::mem::{stack_base, stack_range_of, MAX_THREADS};
use sb_vmm::sched::FreeRun;
use sb_vmm::{ExecReport, Executor};

/// The memory-access profile of one sequential test.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqProfile {
    /// Corpus index of the profiled test.
    pub test: u32,
    /// Shared (non-stack) accesses, in execution order.
    pub accesses: Vec<Access>,
    /// Total engine steps the execution took (profiling cost accounting).
    pub steps: u64,
}

/// The §4.1.1 stack filter with every thread's stack range precomputed, so a
/// profile pass resolves `stack_base`/`stack_range_of` once instead of per
/// access.
#[derive(Clone, Copy, Debug)]
pub struct SharedAccessFilter {
    ranges: [(u64, u64); MAX_THREADS],
}

impl SharedAccessFilter {
    /// Builds the filter from the fixed thread-stack layout.
    pub fn new() -> Self {
        let mut ranges = [(0u64, 0u64); MAX_THREADS];
        for (tid, range) in ranges.iter_mut().enumerate() {
            *range = stack_range_of(stack_base(tid) + 16);
        }
        SharedAccessFilter { ranges }
    }

    /// True if `a` falls outside the accessing thread's kernel stack, the
    /// §4.1.1 mask: `[sp & !(STACK_SIZE-1), (sp & !(STACK_SIZE-1)) + STACK_SIZE)`.
    pub fn is_shared(&self, a: &Access) -> bool {
        let (lo, hi) = self.ranges[a.thread];
        !(a.addr >= lo && a.addr < hi)
    }

    /// The profile of `test` cut from `report`, the finished run of its
    /// program alone from the boot snapshot: the shared accesses, copied out
    /// at their exact size rather than filtered in place — a profile lives as
    /// long as the pipeline, and the trace it is cut from is a buffer sized
    /// for the longest run so far, which the executor takes back.
    pub fn cut(&self, test: u32, report: &ExecReport) -> SeqProfile {
        let shared = || report.trace.iter().filter(|a| self.is_shared(a));
        let mut accesses = Vec::with_capacity(shared().count());
        accesses.extend(shared().cloned());
        SeqProfile {
            test,
            accesses,
            steps: report.steps,
        }
    }
}

impl Default for SharedAccessFilter {
    fn default() -> Self {
        SharedAccessFilter::new()
    }
}

#[cfg(test)]
thread_local! {
    /// Guest executions [`profile_one_counted`] made on this thread: the
    /// profile pass is the one place of this crate's prepare path besides
    /// the fuzz loop that runs a program, and `Pipeline::prepare` must not
    /// reach it.
    pub(crate) static GUEST_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Profiles one program from the snapshot. Panicking or non-completing
/// sequential tests yield `None` — they cannot serve as profile sources.
pub fn profile_one(exec: &mut Executor, booted: &BootedKernel, test: u32, prog: &Program) -> Option<SeqProfile> {
    profile_one_counted(exec, booted, test, prog, &SharedAccessFilter::new()).0
}

/// [`profile_one`] with a caller-provided (hoisted) stack filter, also
/// returning the pre-filter trace length of a completed run so callers can
/// account for stack-filter attrition (`dropped = total - accesses.len()`).
/// Failed runs report a total of 0.
pub fn profile_one_counted(
    exec: &mut Executor,
    booted: &BootedKernel,
    test: u32,
    prog: &Program,
    filter: &SharedAccessFilter,
) -> (Option<SeqProfile>, u64) {
    #[cfg(test)]
    GUEST_RUNS.with(|n| n.set(n.get() + 1));
    let r = exec.run(
        booted.snapshot.clone(),
        vec![booted.kernel.process_job(prog.clone())],
        &mut FreeRun,
    );
    let profile = (r.report.outcome.is_completed()).then(|| filter.cut(test, &r.report));
    let total = if profile.is_some() { r.report.trace.len() as u64 } else { 0 };
    // The next program records into this one's buffers.
    exec.recycle(r);
    (profile, total)
}

/// Profiles a whole corpus, fanning out across `workers` executors (the
/// paper profiles on one big machine; we parallelize the same way its later
/// stages do). Tests that fail sequentially have no profile; the others
/// keep their corpus index as `test`.
pub fn profile_corpus(
    booted: &BootedKernel,
    corpus: &[Program],
    workers: usize,
) -> Vec<SeqProfile> {
    let filter = SharedAccessFilter::new();
    let indexed: Vec<(u32, &Program)> = (0..).zip(corpus).collect();
    crate::pool::map_jobs(
        &indexed,
        workers,
        || Executor::new(1),
        |exec, (i, prog)| profile_one_counted(exec, booted, *i, prog, &filter).0,
    )
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_kernel::prog::{Domain, Res, Syscall};
    use sb_kernel::{boot, KernelConfig};
    use sb_vmm::access::AccessKind;
    use sb_vmm::site;

    #[test]
    fn stack_accesses_are_filtered() {
        let a = Access {
            seq: 0,
            thread: 0,
            site: site!("pf:stack"),
            kind: AccessKind::Write,
            addr: stack_base(0) + 24,
            len: 8,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        };
        let filter = SharedAccessFilter::new();
        assert!(!filter.is_shared(&a));
        let mut b = a.clone();
        b.addr = 0x2_0000;
        assert!(filter.is_shared(&b));
    }

    #[test]
    fn profiling_captures_subsystem_accesses() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let mut exec = Executor::new(1);
        let prog = Program::new(vec![
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Connect { sock: Res(0), tunnel_id: 1 },
        ]);
        let p = profile_one(&mut exec, &booted, 0, &prog).expect("profile");
        assert!(!p.accesses.is_empty());
        // The tunnel-list publication write must be visible.
        let publish = sb_vmm::Site::intern("list_add_rcu:head");
        assert!(p.accesses.iter().any(|a| a.site == publish));
        // And the profile must be reproducible.
        let p2 = profile_one(&mut exec, &booted, 0, &prog).expect("profile");
        let sig = |p: &SeqProfile| {
            p.accesses
                .iter()
                .map(|a| (a.site, a.addr, a.value))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&p), sig(&p2), "same snapshot, same accesses");
    }

    #[test]
    fn hoisted_filter_matches_per_access_formula() {
        let filter = SharedAccessFilter::new();
        let mut a = Access {
            seq: 0,
            thread: 0,
            site: site!("pf:probe"),
            kind: AccessKind::Read,
            addr: 0,
            len: 8,
            value: 0,
            atomic: false,
            locks: vec![].into(),
            rcu_depth: 0,
        };
        for tid in 0..MAX_THREADS {
            a.thread = tid;
            for addr in [
                0x1_0000,
                stack_base(tid) - 1,
                stack_base(tid),
                stack_base(tid) + sb_vmm::mem::STACK_SIZE - 1,
                stack_base(tid) + sb_vmm::mem::STACK_SIZE,
            ] {
                a.addr = addr;
                let sp = stack_base(a.thread) + 16;
                let (lo, hi) = stack_range_of(sp);
                let reference = !(a.addr >= lo && a.addr < hi);
                assert_eq!(filter.is_shared(&a), reference, "tid {tid} addr {addr:#x}");
            }
        }
    }

    #[test]
    fn profile_corpus_keeps_test_ids_aligned() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let corpus = vec![
            Program::new(vec![Syscall::Msgget { key: 1 }]),
            Program::new(vec![Syscall::Mount]),
        ];
        let profiles = profile_corpus(&booted, &corpus, 2);
        assert_eq!(profiles.len(), 2);
        let mut ids: Vec<u32> = profiles.iter().map(|p| p.test).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        // mount is the heavy one.
        let mount = profiles.iter().find(|p| p.test == 1).expect("mount profile");
        let msg = profiles.iter().find(|p| p.test == 0).expect("msgget profile");
        assert!(mount.accesses.len() > msg.accesses.len());
    }
}
