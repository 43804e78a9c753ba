//! The handle simulated kernel code uses to interact with the machine.
//!
//! Kernel subsystems are written as ordinary `async` Rust against [`Ctx`]:
//! every memory access, lock operation, RCU primitive, allocation, and
//! console write is a *request* to the executor, which performs it on the
//! guest state, records it, and decides — via the active scheduler — which
//! thread runs next.
//!
//! A kernel thread is a future, and a request is its only suspension point:
//! the operation parks its [`Request`] in the thread's [`Mailbox`], returns
//! `Pending` once, and finds the [`Reply`] there when the executor polls the
//! thread again. The mailbox is shared between exactly one thread and the
//! executor, on one OS thread, so the transport is two `Cell`s — no channel,
//! no lock, no `unsafe` — and a thread blocked on a lock or a wait queue is
//! simply a future nobody polls.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::mem::stack_base;
use crate::site::Site;
use crate::AccessKind;

/// A simulated machine fault or execution-control signal.
///
/// Kernel code propagates faults with `?`; the program runner at the base of
/// each thread decides whether a fault ends one syscall or the whole test.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Dereference inside the null page (`addr < 0x1000`).
    NullDeref {
        /// Faulting address.
        addr: u64,
    },
    /// Access to an unmapped address (low guard beyond the null page, or out
    /// of bounds).
    PageFault {
        /// Faulting address.
        addr: u64,
    },
    /// Malformed access (zero or over-wide length).
    BadAccess {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: u8,
    },
    /// Allocation failure.
    Oom,
    /// The kernel invoked [`Ctx::oops`] (explicit `BUG()`/panic).
    Oops,
    /// The executor is tearing the execution down (panic elsewhere,
    /// deadlock, livelock, or executor shutdown); unwind immediately.
    Aborted,
    /// Lock protocol violation (e.g. unlocking a lock the thread holds not).
    LockError {
        /// Lock address involved.
        addr: u64,
    },
}

impl Fault {
    /// True for faults that terminate the entire execution (machine-level
    /// failures), as opposed to per-operation errors a syscall may handle.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            Fault::NullDeref { .. }
                | Fault::PageFault { .. }
                | Fault::Oops
                | Fault::Aborted
                | Fault::LockError { .. }
        )
    }
}

/// Result type used throughout the simulated kernel.
pub type KResult<T> = Result<T, Fault>;

/// Requests a kernel thread parks for the executor.
#[derive(Debug)]
pub(crate) enum Request {
    /// Perform a memory access.
    Access {
        site: Site,
        kind: AccessKind,
        addr: u64,
        len: u8,
        /// Value to store for writes; ignored for reads.
        value: u64,
        /// Marked (READ_ONCE/WRITE_ONCE-style) access.
        atomic: bool,
    },
    /// Acquire the lock cell at `addr` (blocking); `site` names the
    /// acquiring program point for the sync-event stream.
    Lock { addr: u64, site: Site },
    /// Release the lock cell at `addr`.
    Unlock { addr: u64, site: Site },
    /// Register on wait queue `queue` (`prepare_to_wait`): wakeups are
    /// banked from now until the matching commit or cancel.
    WaitPrepare { queue: u64, site: Site },
    /// Commit to sleeping on `queue` for at most `timeout` coordinator
    /// steps. Replies `Value(1)` when woken, `Value(0)` on timeout, and
    /// immediately when a banked wakeup is pending.
    WaitCommit {
        queue: u64,
        site: Site,
        timeout: u64,
    },
    /// Deregister from `queue` without sleeping (`finish_wait`).
    WaitCancel { queue: u64, site: Site },
    /// Wake sleepers on `queue`: one (`all == false`) or every one.
    Wake { queue: u64, site: Site, all: bool },
    /// Enter atomic (non-sleepable) context.
    AtomicEnter { site: Site },
    /// Leave atomic context.
    AtomicExit { site: Site },
    /// Enter an RCU read-side critical section.
    RcuLock,
    /// Leave an RCU read-side critical section.
    RcuUnlock,
    /// Wait for an RCU grace period (all current readers done).
    SyncRcu,
    /// Allocate `len` bytes of guest heap.
    Alloc { len: u64 },
    /// Free a previous allocation.
    Free { addr: u64, len: u64 },
    /// Append a line to the kernel console.
    Printk { msg: String },
    /// Kernel panic with a console message; aborts the execution.
    Oops { msg: String },
    /// The thread's job finished with the given result. Never parked: the
    /// executor synthesizes it when the thread's future completes.
    Done { result: Result<(), Fault> },
}

/// Executor replies to requests.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Value result (reads, allocations).
    Value(u64),
    /// Success without a value.
    Unit,
    /// The request faulted.
    Fault(Fault),
}

/// The one-slot-each-way cell a kernel thread and the executor share.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// The request the thread is suspended on, until the executor takes it.
    pub(crate) req: Cell<Option<Request>>,
    /// The reply the thread finds on its next poll.
    pub(crate) rep: Cell<Option<Reply>>,
}

/// One request in flight: parks it on the first poll, completes with the
/// reply on the second.
struct Roundtrip<'a> {
    mail: &'a Mailbox,
    req: Option<Request>,
}

impl Future for Roundtrip<'_> {
    type Output = KResult<u64>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(req) = self.req.take() {
            self.mail.req.set(Some(req));
            return Poll::Pending;
        }
        match self.mail.rep.take() {
            Some(Reply::Value(v)) => Poll::Ready(Ok(v)),
            Some(Reply::Unit) => Poll::Ready(Ok(0)),
            Some(Reply::Fault(f)) => Poll::Ready(Err(f)),
            // Polled by something other than the executor's run loop, which
            // only resumes a thread it has answered; it rejects the empty
            // mailbox this leaves behind.
            None => Poll::Pending,
        }
    }
}

/// Per-thread handle to the executor; the "CPU" kernel code runs on.
pub struct Ctx {
    tid: usize,
    mail: Rc<Mailbox>,
}

impl Ctx {
    pub(crate) fn new(tid: usize, mail: Rc<Mailbox>) -> Self {
        Ctx { tid, mail }
    }

    /// The simulated vCPU / kernel-thread index this context runs on.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Address of 8-byte scratch slot `slot` in this thread's kernel stack.
    ///
    /// Accesses to these addresses are real, traced accesses — the profiler
    /// later prunes them with the paper's ESP-mask formula (§4.1.1).
    pub fn stack_slot(&self, slot: u64) -> u64 {
        stack_base(self.tid) + 16 + slot * 8
    }

    /// Parks `req` for the executor and resumes with its reply: the one
    /// suspension point every operation below goes through.
    fn request(&self, req: Request) -> Roundtrip<'_> {
        Roundtrip {
            mail: &self.mail,
            req: Some(req),
        }
    }

    /// [`Ctx::request`] for operations whose reply carries no value.
    async fn command(&self, req: Request) -> KResult<()> {
        self.request(req).await.map(|_| ())
    }

    /// One memory access; `value` is what a write stores, ignored by reads.
    fn access(
        &self,
        site: Site,
        kind: AccessKind,
        addr: u64,
        len: u8,
        value: u64,
        atomic: bool,
    ) -> Roundtrip<'_> {
        self.request(Request::Access {
            site,
            kind,
            addr,
            len,
            value,
            atomic,
        })
    }

    /// Reads `len` bytes (1..=8) at `addr`, little-endian.
    pub async fn read(&self, site: Site, addr: u64, len: u8) -> KResult<u64> {
        self.access(site, AccessKind::Read, addr, len, 0, false)
            .await
    }

    /// Writes the low `len` bytes of `value` at `addr`, little-endian.
    pub async fn write(&self, site: Site, addr: u64, len: u8, value: u64) -> KResult<()> {
        self.access(site, AccessKind::Write, addr, len, value, false)
            .await
            .map(|_| ())
    }

    /// Marked load (`READ_ONCE`); exempt from data-race reports when paired
    /// with another marked access.
    pub async fn read_atomic(&self, site: Site, addr: u64, len: u8) -> KResult<u64> {
        self.access(site, AccessKind::Read, addr, len, 0, true)
            .await
    }

    /// Marked store (`WRITE_ONCE`).
    pub async fn write_atomic(&self, site: Site, addr: u64, len: u8, value: u64) -> KResult<()> {
        self.access(site, AccessKind::Write, addr, len, value, true)
            .await
            .map(|_| ())
    }

    /// Reads a u8 at `addr`.
    pub async fn read_u8(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 1).await
    }

    /// Reads a u32 at `addr`.
    pub async fn read_u32(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 4).await
    }

    /// Reads a u64 at `addr`.
    pub async fn read_u64(&self, site: Site, addr: u64) -> KResult<u64> {
        self.read(site, addr, 8).await
    }

    /// Writes a u8 at `addr`.
    pub async fn write_u8(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 1, value).await
    }

    /// Writes a u32 at `addr`.
    pub async fn write_u32(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 4, value).await
    }

    /// Writes a u64 at `addr`.
    pub async fn write_u64(&self, site: Site, addr: u64, value: u64) -> KResult<()> {
        self.write(site, addr, 8, value).await
    }

    /// Copies `len` bytes from `src` to `dst` one byte at a time, like the
    /// kernel's `memcpy` compiled to byte moves — every byte is a separate
    /// schedulable access, so a concurrent reader can observe a torn copy
    /// (the structure of paper bug #9).
    pub async fn memcpy(&self, site: Site, dst: u64, src: u64, len: u64) -> KResult<()> {
        for i in 0..len {
            let b = self.read(site, src + i, 1).await?;
            self.write(site, dst + i, 1, b).await?;
        }
        Ok(())
    }

    /// Acquires the spinlock/mutex cell at `addr`, blocking until available.
    pub async fn lock(&self, addr: u64) -> KResult<()> {
        self.lock_at(crate::site!("lock"), addr).await
    }

    /// Releases the lock cell at `addr`.
    pub async fn unlock(&self, addr: u64) -> KResult<()> {
        self.unlock_at(crate::site!("unlock"), addr).await
    }

    /// [`Ctx::lock`] with a named acquiring site for the sync-event stream.
    pub async fn lock_at(&self, site: Site, addr: u64) -> KResult<()> {
        self.command(Request::Lock { addr, site }).await
    }

    /// [`Ctx::unlock`] with a named releasing site.
    pub async fn unlock_at(&self, site: Site, addr: u64) -> KResult<()> {
        self.command(Request::Unlock { addr, site }).await
    }

    /// Runs `f` with the lock at `addr` held, releasing it afterwards even if
    /// `f` fails with a non-fatal fault.
    pub async fn with_lock<T>(&self, addr: u64, f: impl Future<Output = KResult<T>>) -> KResult<T> {
        self.with_lock_at(crate::site!("lock"), addr, f).await
    }

    /// [`Ctx::with_lock`] with a named acquiring site: lock identity in the
    /// sync-event stream resolves to `site` instead of the generic "lock".
    pub async fn with_lock_at<T>(
        &self,
        site: Site,
        addr: u64,
        f: impl Future<Output = KResult<T>>,
    ) -> KResult<T> {
        self.lock_at(site, addr).await?;
        let out = f.await;
        match &out {
            // After a fatal fault the machine is going down; skip unlocking.
            Err(e) if e.is_fatal() => out,
            _ => {
                self.unlock_at(site, addr).await?;
                out
            }
        }
    }

    /// Registers this thread on wait queue `queue` (`prepare_to_wait`): a
    /// wakeup arriving between now and [`Ctx::wait_commit`] is banked and
    /// satisfies the commit immediately — the correct check-then-sleep
    /// protocol.
    pub async fn wait_prepare(&self, site: Site, queue: u64) -> KResult<()> {
        self.command(Request::WaitPrepare { queue, site }).await
    }

    /// Commits to sleeping on `queue` for at most `timeout` coordinator
    /// steps. Returns `true` when woken by a signal (banked or live),
    /// `false` when the timeout expired first.
    pub async fn wait_commit(&self, site: Site, queue: u64, timeout: u64) -> KResult<bool> {
        self.request(Request::WaitCommit {
            queue,
            site,
            timeout,
        })
        .await
        .map(|v| v != 0)
    }

    /// Deregisters from `queue` without sleeping (`finish_wait`), dropping
    /// any banked wakeup.
    pub async fn wait_cancel(&self, site: Site, queue: u64) -> KResult<()> {
        self.command(Request::WaitCancel { queue, site }).await
    }

    /// Sleeps on `queue` *without* registering first — the racy
    /// check-then-sleep primitive: a wakeup delivered between the caller's
    /// condition check and this call is lost. Returns `true` when woken,
    /// `false` on timeout.
    pub async fn sleep_on(&self, site: Site, queue: u64, timeout: u64) -> KResult<bool> {
        self.wait_commit(site, queue, timeout).await
    }

    /// Wakes at most one thread sleeping on (or prepared for) `queue`.
    /// Returns how many threads the signal reached; zero means it was lost.
    pub async fn wake_one(&self, site: Site, queue: u64) -> KResult<u64> {
        self.request(Request::Wake {
            queue,
            site,
            all: false,
        })
        .await
    }

    /// Wakes every thread sleeping on (or prepared for) `queue`, returning
    /// the delivery count.
    pub async fn wake_all(&self, site: Site, queue: u64) -> KResult<u64> {
        self.request(Request::Wake {
            queue,
            site,
            all: true,
        })
        .await
    }

    /// Enters atomic (non-sleepable) context — the simulated equivalent of
    /// holding a spinlock with preemption disabled. Nests.
    pub async fn atomic_enter(&self, site: Site) -> KResult<()> {
        self.command(Request::AtomicEnter { site }).await
    }

    /// Leaves atomic context. Faults with a lock error when the thread is
    /// not in atomic context.
    pub async fn atomic_exit(&self, site: Site) -> KResult<()> {
        self.command(Request::AtomicExit { site }).await
    }

    /// Enters an RCU read-side critical section.
    pub async fn rcu_read_lock(&self) -> KResult<()> {
        self.command(Request::RcuLock).await
    }

    /// Leaves an RCU read-side critical section.
    pub async fn rcu_read_unlock(&self) -> KResult<()> {
        self.command(Request::RcuUnlock).await
    }

    /// Waits for an RCU grace period: blocks until no other thread is inside
    /// an RCU read-side critical section.
    pub async fn synchronize_rcu(&self) -> KResult<()> {
        self.command(Request::SyncRcu).await
    }

    /// Allocates `len` bytes of zeroed guest heap (kzalloc semantics).
    pub async fn kmalloc(&self, len: u64) -> KResult<u64> {
        self.request(Request::Alloc { len }).await
    }

    /// Frees an allocation of `len` bytes at `addr`.
    pub async fn kfree(&self, addr: u64, len: u64) -> KResult<()> {
        self.command(Request::Free { addr, len }).await
    }

    /// Appends a line to the kernel console (printk).
    pub async fn printk(&self, msg: impl Into<String>) -> KResult<()> {
        self.command(Request::Printk { msg: msg.into() }).await
    }

    /// Kernel panic: records `msg` on the console, marks the execution as
    /// panicked, and returns the fault the caller should propagate.
    pub async fn oops(&self, msg: impl Into<String>) -> Fault {
        match self.request(Request::Oops { msg: msg.into() }).await {
            Err(f) => f,
            // The executor always replies with a fault to an oops; treat
            // an unexpected success as an abort to keep unwinding.
            Ok(_) => Fault::Aborted,
        }
    }
}
