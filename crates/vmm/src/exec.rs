//! The executor: one vCPU runs at a time, every access is a scheduling
//! point.
//!
//! [`Executor::try_run`] is a plain `pick next → resume → handle request`
//! loop on the caller's thread. It owns the guest memory, the lock table,
//! and the RCU state; each kernel thread is a resumable state machine (a
//! boxed future) that runs pure computation freely and suspends at every
//! interaction with shared machine state, leaving a request in its mailbox
//! (see [`crate::ctx`]). The loop performs the request, parks the reply,
//! and — after each memory access — lets the active [`Scheduler`] preempt
//! the running thread: the fine-grained control §4.4 requires ("only
//! executes one vCPU at a time, enforcing the desired interleaving
//! schedule"). Resuming a thread is a function call, so a scheduling point
//! costs no kernel round trip and an execution involves no OS thread other
//! than the caller's.
//!
//! Liveness handling mirrors SKI's `is_live` heuristics (§4.4.1): threads
//! that keep fetching the same memory area are forcibly preempted, and
//! executions that exceed an instruction budget end as livelocks.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::access::{Access, AccessKind, LockSet};
use crate::ctx::{Ctx, Fault, KResult, Mailbox, Reply, Request};
use crate::mem::{GuestMem, MAX_THREADS};
use crate::sched::Scheduler;
use crate::site::{BuildStepHasher, Site};
use crate::sync::{SyncEvent, SyncKind};

/// A started kernel thread: suspended at a [`Ctx`] operation or finished.
pub type JobFuture = Pin<Box<dyn Future<Output = KResult<()>>>>;

/// A kernel thread body: given its vCPU's [`Ctx`], the state machine one
/// simulated vCPU executes. Build one with [`job`].
pub type Job = Box<dyn FnOnce(Ctx) -> JobFuture>;

/// Boxes an async closure as a [`Job`].
///
/// The body may only await [`Ctx`] operations (directly or through other
/// `async fn`s): those are the executor's scheduling points.
pub fn job<F, Fut>(body: F) -> Job
where
    F: FnOnce(Ctx) -> Fut + 'static,
    Fut: Future<Output = KResult<()>> + 'static,
{
    Box::new(move |ctx| Box::pin(body(ctx)))
}

/// Execution resource limits (the `is_live` thresholds of §4.4.1).
#[derive(Copy, Clone, Debug)]
pub struct ExecLimits {
    /// Maximum total coordinator steps before the run is declared a livelock.
    pub max_steps: u64,
    /// Maximum steps any single thread may execute.
    pub max_thread_steps: u64,
    /// Consecutive accesses to the same address before a forced preemption
    /// ("constantly fetching the same memory area").
    pub spin_limit: u32,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_steps: 400_000,
            max_thread_steps: 200_000,
            spin_limit: 64,
        }
    }
}

/// A typed failure of the execution machinery itself — as opposed to an
/// [`Outcome`], which describes what the *simulated kernel* did — so a
/// campaign driver can quarantine the job instead of dying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// More jobs were submitted than the executor has vCPUs (or zero jobs).
    BadJobCount {
        /// Number of jobs submitted.
        jobs: usize,
        /// Number of vCPUs.
        vcpus: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadJobCount { jobs, vcpus } => {
                write!(f, "bad job count: {jobs} jobs for {vcpus} vCPUs")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Terminal state of one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// All threads ran to completion.
    Completed,
    /// The kernel panicked (oops, null dereference, page fault).
    Panic {
        /// The console line describing the panic.
        msg: String,
    },
    /// Every live thread was blocked on a lock or RCU grace period.
    Deadlock,
    /// The execution exceeded its instruction budget.
    Livelock,
}

impl Outcome {
    /// True if the execution finished without a machine-level failure.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }

    /// True if the kernel panicked.
    pub fn is_panic(&self) -> bool {
        matches!(self, Outcome::Panic { .. })
    }
}

/// Everything observed during one execution.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Terminal state.
    pub outcome: Outcome,
    /// Kernel console lines, in order.
    pub console: Vec<String>,
    /// Every memory access, in global order.
    pub trace: Vec<Access>,
    /// Every synchronization event (locks, sleeps, wakeups, atomic
    /// context), in global order.
    pub sync_events: Vec<SyncEvent>,
    /// Total coordinator steps executed.
    pub steps: u64,
    /// Thread preemptions (scheduler-requested plus forced).
    pub switches: u64,
    /// Terminal fault of each thread, if any.
    pub thread_faults: Vec<Option<Fault>>,
}

impl ExecReport {
    /// True if any console line contains `needle`.
    pub fn console_contains(&self, needle: &str) -> bool {
        self.console.iter().any(|l| l.contains(needle))
    }
}

/// Result of [`Executor::run`]: the report plus the final guest memory
/// (useful for snapshotting after boot).
pub struct RunResult {
    /// The observation record.
    pub report: ExecReport,
    /// Guest memory at the end of the run.
    pub mem: GuestMem,
}

/// A fixed number of simulated vCPUs plus the run loop that drives them.
///
/// Every call to [`Executor::run`] starts its jobs afresh on the caller's
/// thread; the only thing an `Executor` keeps between runs is the *capacity*
/// of report buffers handed back through [`Executor::recycle`] (never their
/// contents), so a campaign of many short trials (Snowboard runs up to 64
/// per PMC), a fuzz loop or a profile pass allocates one trace per worker,
/// not one per run — a fresh trace is 1 024 accesses, far above what the
/// allocator keeps cached per thread, so a run that does not hand its
/// buffers back grows and trims the heap around every execution. Creating
/// one is free, and one that unwound out of a panicking job body is as good
/// as new.
pub struct Executor {
    vcpus: usize,
    limits: ExecLimits,
    spare: Spare,
}

/// What [`Spare`] keeps of a report buffer: above this many elements the
/// allocation is dropped instead (a livelocked run records 400 k accesses;
/// its 20 MB must not sit in every worker for the rest of the campaign).
const SPARE_MAX_CAPACITY: usize = 4096;

/// Capacity a fresh trace buffer starts with.
const TRACE_START_CAPACITY: usize = 1024;

/// The report buffers of an earlier run, emptied, kept for their capacity.
/// They leave inside the [`ExecReport`] and return through
/// [`Executor::recycle`].
#[derive(Default)]
struct Spare {
    trace: Vec<Access>,
    sync_events: Vec<SyncEvent>,
    console: Vec<String>,
}

/// Empties `v` and returns it if its allocation is worth keeping.
fn emptied<T>(mut v: Vec<T>) -> Vec<T> {
    v.clear();
    if v.capacity() <= SPARE_MAX_CAPACITY {
        v
    } else {
        Vec::new()
    }
}

/// One running kernel thread: its state machine and the executor's end of
/// its mailbox.
struct Vcpu {
    thread: JobFuture,
    mail: Rc<Mailbox>,
}

impl Vcpu {
    fn reply(&self, rep: Reply) {
        self.mail.rep.set(Some(rep));
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TStat {
    Ready,
    Blocked,
    Done,
}

/// Per-thread state is a [`MAX_THREADS`]-wide array of which the first `n`
/// entries are live; the rest keep their initial (idle) value.
struct RunState<'a> {
    mem: GuestMem,
    sched: &'a mut dyn Scheduler,
    limits: ExecLimits,
    n: usize,
    status: [TStat; MAX_THREADS],
    owed: [Option<Reply>; MAX_THREADS],
    held: [LockSet; MAX_THREADS],
    // The four maps below are keyed by guest lock and wait-queue addresses.
    // None is iterated in an order that reaches the report:
    // `expire_sleepers` takes the lowest due key it finds, thread exit only
    // `retain`s within each `prepared` entry, the rest are point lookups.
    lock_owner: HashMap<u64, usize, BuildStepHasher>,
    lock_waiters: HashMap<u64, VecDeque<(usize, Site)>, BuildStepHasher>,
    rcu_depth: [u8; MAX_THREADS],
    sync_waiters: Vec<usize>,
    /// Threads registered on each wait queue (`prepare_to_wait`), not yet
    /// committed to sleeping.
    prepared: HashMap<u64, Vec<usize>, BuildStepHasher>,
    /// Wakeups banked per thread while it was prepared: queue ids whose
    /// next commit returns immediately.
    tokens: [Vec<u64>; MAX_THREADS],
    /// Threads committed to sleeping on each wait queue, with the site that
    /// committed (for timeout attribution).
    wait_sleepers: HashMap<u64, VecDeque<(usize, Site)>, BuildStepHasher>,
    /// Step deadline of each sleeping thread, if any.
    sleep_deadline: [Option<u64>; MAX_THREADS],
    /// Atomic-context nesting depth per thread.
    atomic_depth: [u8; MAX_THREADS],
    sync_events: Vec<SyncEvent>,
    trace: Vec<Access>,
    console: Vec<String>,
    steps: u64,
    thread_steps: [u64; MAX_THREADS],
    switches: u64,
    spin: [(u64, u32); MAX_THREADS],
    aborting: bool,
    outcome: Option<Outcome>,
    thread_faults: Vec<Option<Fault>>,
}

impl Executor {
    /// Creates an executor with `vcpus` vCPUs and default limits.
    pub fn new(vcpus: usize) -> Self {
        Self::with_limits(vcpus, ExecLimits::default())
    }

    /// Creates an executor with explicit [`ExecLimits`].
    pub fn with_limits(vcpus: usize, limits: ExecLimits) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&vcpus),
            "vCPU count must be in 1..={MAX_THREADS}"
        );
        Executor {
            vcpus,
            limits,
            spare: Spare::default(),
        }
    }

    /// Number of vCPUs.
    pub fn vcpus(&self) -> usize {
        self.vcpus
    }

    /// Runs `jobs` (one per vCPU, at most [`Executor::vcpus`]) over `mem`
    /// under `sched`, returning the observation report and final memory.
    ///
    /// # Panics
    ///
    /// Panics on a bad job count; callers that must survive that use
    /// [`Executor::try_run`]. A Rust panic inside a job body unwinds out of
    /// either.
    pub fn run(&mut self, mem: GuestMem, jobs: Vec<Job>, sched: &mut dyn Scheduler) -> RunResult {
        self.try_run(mem, jobs, sched)
            .expect("execution machinery failed")
    }

    /// Fallible variant of [`Executor::run`]: a bad job count comes back as
    /// a typed [`ExecError`] instead of a panic, so a campaign worker can
    /// quarantine the job and keep draining the queue.
    pub fn try_run(
        &mut self,
        mem: GuestMem,
        jobs: Vec<Job>,
        sched: &mut dyn Scheduler,
    ) -> Result<RunResult, ExecError> {
        let n = jobs.len();
        if n < 1 || n > self.vcpus {
            return Err(ExecError::BadJobCount {
                jobs: n,
                vcpus: self.vcpus,
            });
        }
        let mut vcpus: Vec<Vcpu> = jobs
            .into_iter()
            .enumerate()
            .map(|(tid, job)| {
                let mail = Rc::new(Mailbox::default());
                Vcpu {
                    thread: job(Ctx::new(tid, Rc::clone(&mail))),
                    mail,
                }
            })
            .collect();
        // If a job body panics, the unwind drops what was taken here and
        // the executor is left with an empty spare.
        let spare = std::mem::take(&mut self.spare);
        let mut trace = spare.trace;
        if trace.capacity() == 0 {
            trace.reserve(TRACE_START_CAPACITY);
        }
        let mut st = RunState {
            mem,
            sched,
            limits: self.limits,
            n,
            status: [TStat::Ready; MAX_THREADS],
            owed: [const { None }; MAX_THREADS],
            held: std::array::from_fn(|_| LockSet::new()),
            lock_owner: HashMap::default(),
            lock_waiters: HashMap::default(),
            rcu_depth: [0; MAX_THREADS],
            sync_waiters: Vec::new(),
            prepared: HashMap::default(),
            tokens: [const { Vec::new() }; MAX_THREADS],
            wait_sleepers: HashMap::default(),
            sleep_deadline: [None; MAX_THREADS],
            atomic_depth: [0; MAX_THREADS],
            sync_events: spare.sync_events,
            trace,
            console: spare.console,
            steps: 0,
            thread_steps: [0; MAX_THREADS],
            switches: 0,
            spin: [(u64::MAX, 0); MAX_THREADS],
            aborting: false,
            outcome: None,
            thread_faults: vec![None; n],
        };
        let mut current = 0usize;
        loop {
            if st.status[..n].iter().all(|s| *s == TStat::Done) {
                break;
            }
            st.expire_sleepers();
            let (ready, n_ready) = st.ready_except(None);
            let ready = &ready[..n_ready];
            if ready.is_empty() {
                // Every live thread is blocked. If some of them are timed
                // sleeps, fast-forward the step clock to the earliest
                // deadline — simulated time passes while everyone waits —
                // and release the expired sleepers. Only a block with no
                // pending timeout is a true deadlock.
                if let Some(deadline) = st.earliest_sleep_deadline() {
                    st.steps = st.steps.max(deadline);
                    st.expire_sleepers();
                    continue;
                }
                // Release the blocked threads with abort faults so they can
                // unwind and report Done.
                st.abort(Outcome::Deadlock);
                continue;
            }
            if st.status[current] != TStat::Ready {
                current = if st.aborting {
                    ready[0]
                } else {
                    st.switches += 1;
                    st.sched.pick(current, ready)
                };
            }
            service_one(&mut st, &mut vcpus, &mut current);
        }
        let outcome = st.outcome.unwrap_or(Outcome::Completed);
        Ok(RunResult {
            report: ExecReport {
                outcome,
                console: st.console,
                trace: st.trace,
                sync_events: st.sync_events,
                steps: st.steps,
                switches: st.switches,
                thread_faults: st.thread_faults,
            },
            mem: st.mem,
        })
    }

    /// Takes back a finished run the caller is done with, so the next run
    /// records into the same trace, sync-event and console allocations.
    /// Purely an allocation hint: a run after `recycle` observes exactly
    /// what it would have observed without it.
    pub fn recycle(&mut self, run: RunResult) {
        self.spare = Spare {
            trace: emptied(run.report.trace),
            sync_events: emptied(run.report.sync_events),
            console: emptied(run.report.console),
        };
    }
}

/// Delivers any owed reply to `current`, resumes it until its next request,
/// and handles that; may change `current` on a scheduling decision.
fn service_one(st: &mut RunState<'_>, vcpus: &mut [Vcpu], current: &mut usize) {
    let t = *current;
    let vcpu = &mut vcpus[t];
    if let Some(rep) = st.owed[t].take() {
        vcpu.reply(rep);
    }
    let req = match vcpu
        .thread
        .as_mut()
        .poll(&mut Context::from_waker(Waker::noop()))
    {
        Poll::Ready(result) => Request::Done { result },
        Poll::Pending => vcpu
            .mail
            .req
            .take()
            .expect("a job body may only await Ctx operations"),
    };
    st.steps += 1;
    st.thread_steps[t] += 1;
    if !st.aborting
        && (st.steps > st.limits.max_steps || st.thread_steps[t] > st.limits.max_thread_steps)
    {
        st.abort(Outcome::Livelock);
    }
    match req {
        Request::Done { result } => {
            st.thread_faults[t] = result.err();
            st.status[t] = TStat::Done;
            // Auto-release anything the thread still holds so a buggy
            // simulated handler cannot wedge the other thread forever.
            let held = std::mem::take(&mut st.held[t]);
            for &addr in held.iter() {
                st.console
                    .push(format!("WARNING: thread {t} exited holding lock {addr:#x}"));
                st.sync_event(
                    t,
                    crate::site!("thread_exit"),
                    SyncKind::LockRelease,
                    addr,
                    0,
                );
                st.release_lock(t, addr);
            }
            if st.rcu_depth[t] > 0 {
                st.rcu_depth[t] = 0;
                st.wake_rcu_waiters_if_quiescent();
            }
            if st.atomic_depth[t] > 0 {
                st.console
                    .push(format!("WARNING: thread {t} exited in atomic context"));
                st.atomic_depth[t] = 0;
            }
            for prep in st.prepared.values_mut() {
                prep.retain(|u| *u != t);
            }
            st.tokens[t].clear();
        }
        _ if st.aborting => {
            vcpu.reply(Reply::Fault(Fault::Aborted));
        }
        Request::Access {
            site,
            kind,
            addr,
            len,
            value,
            atomic,
        } => {
            let res = match kind {
                AccessKind::Read => st.mem.read(addr, len),
                AccessKind::Write => st.mem.write(addr, len, value).map(|()| value),
            };
            match res {
                Ok(v) => {
                    let access = Access {
                        seq: st.trace.len() as u64,
                        thread: t,
                        site,
                        kind,
                        addr,
                        len,
                        value: v,
                        atomic,
                        locks: st.held[t].clone(),
                        rcu_depth: st.rcu_depth[t],
                    };
                    let reply = match kind {
                        AccessKind::Read => Reply::Value(v),
                        AccessKind::Write => Reply::Unit,
                    };
                    vcpu.reply(reply);
                    let mut switch = st.sched.after_access(t, &access);
                    st.trace.push(access);
                    // Spin detection: repeated traffic on one address.
                    let (last, count) = &mut st.spin[t];
                    if *last == addr {
                        *count += 1;
                        if *count >= st.limits.spin_limit {
                            *count = 0;
                            st.sched.on_forced_switch(t);
                            switch = true;
                        }
                    } else {
                        *last = addr;
                        *count = 0;
                    }
                    if switch {
                        let (others, n_others) = st.ready_except(Some(t));
                        if n_others > 0 {
                            st.switches += 1;
                            *current = st.sched.pick(t, &others[..n_others]);
                        }
                    }
                }
                Err(f) => {
                    if matches!(f, Fault::NullDeref { .. } | Fault::PageFault { .. }) {
                        let msg = match f {
                            Fault::NullDeref { addr } => format!(
                                "BUG: kernel NULL pointer dereference, address: {addr:#x} at {site}"
                            ),
                            Fault::PageFault { addr } => format!(
                                "BUG: unable to handle page fault for address: {addr:#x} at {site}"
                            ),
                            _ => unreachable!(),
                        };
                        st.console.push(msg.clone());
                        st.abort(Outcome::Panic { msg });
                    }
                    vcpu.reply(Reply::Fault(f));
                }
            }
        }
        Request::Lock { addr, site } => match st.lock_owner.get(&addr) {
            None => {
                st.lock_owner.insert(addr, t);
                st.held[t].push(addr);
                st.sync_event(t, site, SyncKind::LockAcquire, addr, 0);
                vcpu.reply(Reply::Unit);
            }
            Some(owner) if *owner == t => {
                vcpu.reply(Reply::Fault(Fault::LockError { addr }));
            }
            Some(_) => {
                st.lock_waiters
                    .entry(addr)
                    .or_default()
                    .push_back((t, site));
                st.status[t] = TStat::Blocked;
                // No reply: the thread stays parked until the lock is
                // handed over or the run aborts. The LockAcquire event
                // is recorded at grant time, in release_lock.
            }
        },
        Request::Unlock { addr, site } => {
            if st.lock_owner.get(&addr) != Some(&t) {
                vcpu.reply(Reply::Fault(Fault::LockError { addr }));
            } else {
                st.held[t].retain(|a| *a != addr);
                st.sync_event(t, site, SyncKind::LockRelease, addr, 0);
                st.release_lock(t, addr);
                vcpu.reply(Reply::Unit);
            }
        }
        Request::RcuLock => {
            st.rcu_depth[t] = st.rcu_depth[t].saturating_add(1);
            st.sync_event(t, crate::site!("rcu_read_lock"), SyncKind::RcuEnter, 0, 0);
            vcpu.reply(Reply::Unit);
        }
        Request::RcuUnlock => {
            if st.rcu_depth[t] == 0 {
                vcpu.reply(Reply::Fault(Fault::LockError { addr: 0 }));
            } else {
                st.rcu_depth[t] -= 1;
                st.sync_event(t, crate::site!("rcu_read_unlock"), SyncKind::RcuExit, 0, 0);
                st.wake_rcu_waiters_if_quiescent();
                vcpu.reply(Reply::Unit);
            }
        }
        Request::WaitPrepare { queue, site } => {
            let prep = st.prepared.entry(queue).or_default();
            if !prep.contains(&t) {
                prep.push(t);
            }
            st.sync_event(t, site, SyncKind::SleepPrepare, queue, 0);
            vcpu.reply(Reply::Unit);
        }
        Request::WaitCommit {
            queue,
            site,
            timeout,
        } => {
            if let Some(prep) = st.prepared.get_mut(&queue) {
                prep.retain(|u| *u != t);
            }
            if let Some(i) = st.tokens[t].iter().position(|q| *q == queue) {
                // A wakeup was banked while we were prepared: consume it
                // and return without ever sleeping.
                st.tokens[t].remove(i);
                st.sync_event(t, site, SyncKind::SleepCancel, queue, 0);
                vcpu.reply(Reply::Value(1));
            } else {
                let deadline = st.steps.saturating_add(timeout.max(1));
                st.wait_sleepers
                    .entry(queue)
                    .or_default()
                    .push_back((t, site));
                st.sleep_deadline[t] = Some(deadline);
                st.status[t] = TStat::Blocked;
                st.sync_event(t, site, SyncKind::SleepCommit, queue, timeout);
                // No reply until a wakeup, the timeout, or an abort.
            }
        }
        Request::WaitCancel { queue, site } => {
            if let Some(prep) = st.prepared.get_mut(&queue) {
                prep.retain(|u| *u != t);
            }
            st.tokens[t].retain(|q| *q != queue);
            st.sync_event(t, site, SyncKind::SleepCancel, queue, 0);
            vcpu.reply(Reply::Unit);
        }
        Request::Wake { queue, site, all } => {
            let mut delivered = 0u64;
            loop {
                let next = st.wait_sleepers.get_mut(&queue).and_then(|s| s.pop_front());
                match next {
                    Some((w, _wsite)) => {
                        st.status[w] = TStat::Ready;
                        st.owed[w] = Some(Reply::Value(1));
                        st.sleep_deadline[w] = None;
                        delivered += 1;
                        if !all {
                            break;
                        }
                    }
                    None => break,
                }
            }
            if all || delivered == 0 {
                // Bank the signal on threads that have prepared but not
                // yet committed: their commit will return immediately.
                for u in st.prepared.get(&queue).into_iter().flatten() {
                    if !st.tokens[*u].contains(&queue) {
                        st.tokens[*u].push(queue);
                        delivered += 1;
                    }
                    if !all && delivered > 0 {
                        break;
                    }
                }
            }
            st.sync_event(t, site, SyncKind::Wake, queue, delivered);
            vcpu.reply(Reply::Value(delivered));
        }
        Request::AtomicEnter { site } => {
            st.atomic_depth[t] = st.atomic_depth[t].saturating_add(1);
            st.sync_event(t, site, SyncKind::AtomicEnter, 0, 0);
            vcpu.reply(Reply::Unit);
        }
        Request::AtomicExit { site } => {
            if st.atomic_depth[t] == 0 {
                vcpu.reply(Reply::Fault(Fault::LockError { addr: 0 }));
            } else {
                st.atomic_depth[t] -= 1;
                st.sync_event(t, site, SyncKind::AtomicExit, 0, 0);
                vcpu.reply(Reply::Unit);
            }
        }
        Request::SyncRcu => {
            let readers: u32 = st
                .rcu_depth
                .iter()
                .enumerate()
                .filter(|(u, _)| *u != t)
                .map(|(_, d)| u32::from(*d))
                .sum();
            if readers == 0 {
                vcpu.reply(Reply::Unit);
            } else {
                st.sync_waiters.push(t);
                st.status[t] = TStat::Blocked;
            }
        }
        Request::Alloc { len } => {
            let rep = match st.mem.kmalloc(len) {
                Ok(a) => Reply::Value(a),
                Err(f) => Reply::Fault(f),
            };
            vcpu.reply(rep);
        }
        Request::Free { addr, len } => {
            let rep = match st.mem.kfree(addr, len) {
                Ok(()) => Reply::Unit,
                Err(f) => Reply::Fault(f),
            };
            vcpu.reply(rep);
        }
        Request::Printk { msg } => {
            st.console.push(msg);
            vcpu.reply(Reply::Unit);
        }
        Request::Oops { msg } => {
            st.console.push(msg.clone());
            st.abort(Outcome::Panic { msg });
            vcpu.reply(Reply::Fault(Fault::Oops));
        }
    }
}

impl RunState<'_> {
    /// Records one synchronization event at the current step.
    fn sync_event(&mut self, thread: usize, site: Site, kind: SyncKind, obj: u64, arg: u64) {
        self.sync_events.push(SyncEvent {
            seq: self.steps,
            thread,
            site,
            kind,
            obj,
            arg,
        });
    }

    /// Hands the lock at `addr` to its next waiter, or frees it.
    fn release_lock(&mut self, _t: usize, addr: u64) {
        self.lock_owner.remove(&addr);
        let next = self.lock_waiters.get_mut(&addr).and_then(|w| w.pop_front());
        if let Some((w, wsite)) = next {
            self.lock_owner.insert(addr, w);
            self.held[w].push(addr);
            self.status[w] = TStat::Ready;
            self.owed[w] = Some(Reply::Unit);
            self.sync_event(w, wsite, SyncKind::LockAcquire, addr, 0);
        }
    }

    /// Releases every sleeping thread whose deadline has passed with a
    /// timed-out (`Value(0)`) result, recording a [`SyncKind::SleepTimeout`]
    /// event per release: queues by ascending address, for determinism, the
    /// sleepers of one queue in the order they went to sleep.
    fn expire_sleepers(&mut self) {
        if self.wait_sleepers.is_empty() {
            return;
        }
        let now = self.steps;
        // One sleeper per round — there are at most `MAX_THREADS` — found
        // where it waits, so that a call collects nothing.
        while let Some((q, at)) = self
            .wait_sleepers
            .iter()
            .filter_map(|(q, sleepers)| {
                let due =
                    |(w, _): &(usize, Site)| self.sleep_deadline[*w].is_some_and(|d| d <= now);
                Some((*q, sleepers.iter().position(due)?))
            })
            .min()
        {
            let sleepers = self.wait_sleepers.get_mut(&q).expect("found in it");
            let (w, wsite) = sleepers.remove(at).expect("found at that position");
            self.status[w] = TStat::Ready;
            self.owed[w] = Some(Reply::Value(0));
            self.sleep_deadline[w] = None;
            self.sync_event(w, wsite, SyncKind::SleepTimeout, q, 0);
        }
    }

    /// The ready threads other than `skip`, ascending, as a stack array and
    /// its length: what [`Scheduler::pick`] chooses from.
    fn ready_except(&self, skip: Option<usize>) -> ([usize; MAX_THREADS], usize) {
        let mut ready = [0usize; MAX_THREADS];
        let mut len = 0;
        for t in 0..self.n {
            if Some(t) != skip && self.status[t] == TStat::Ready {
                ready[len] = t;
                len += 1;
            }
        }
        (ready, len)
    }

    /// The earliest pending sleep deadline, if any thread is in a timed
    /// sleep.
    fn earliest_sleep_deadline(&self) -> Option<u64> {
        self.sleep_deadline.iter().flatten().copied().min()
    }

    fn wake_rcu_waiters_if_quiescent(&mut self) {
        let total: u32 = self.rcu_depth.iter().map(|d| u32::from(*d)).sum();
        if total == 0 {
            for w in std::mem::take(&mut self.sync_waiters) {
                self.status[w] = TStat::Ready;
                self.owed[w] = Some(Reply::Unit);
            }
        }
    }

    /// Moves the run into teardown: records the outcome (first one wins) and
    /// releases every blocked thread with an abort fault so it can unwind.
    fn abort(&mut self, reason: Outcome) {
        if self.outcome.is_none() {
            self.outcome = Some(reason);
        }
        self.aborting = true;
        for t in 0..self.n {
            if self.status[t] == TStat::Blocked {
                self.status[t] = TStat::Ready;
                self.owed[t] = Some(Reply::Fault(Fault::Aborted));
            }
        }
        self.lock_waiters.clear();
        self.sync_waiters.clear();
        self.wait_sleepers.clear();
        self.prepared.clear();
        for d in &mut self.sleep_deadline {
            *d = None;
        }
    }
}
