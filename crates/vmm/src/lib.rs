//! Deterministic execution engine for the Snowboard reproduction.
//!
//! This crate plays the role that the customized QEMU/SKI hypervisor plays in
//! the paper: it runs "kernel threads" (arbitrary `async` Rust written
//! against [`ctx::Ctx`]) one at a time, observes every simulated memory
//! access, and lets a pluggable [`sched::Scheduler`] decide, after each
//! access, whether to preempt the running thread — exactly the
//! instruction-granularity control that Snowboard's Algorithm 2 requires.
//!
//! The pieces:
//!
//! * [`mod@site`] — stable identities for static memory-access instructions
//!   ("instruction addresses" in the paper).
//! * [`mem`] — the guest physical memory: a flat, byte-addressable space with
//!   a deterministic slab allocator, a faulting null-guard page, and
//!   paper-faithful per-thread kernel stack regions.
//! * [`access`] — the memory-access event record that profiling and PMC
//!   identification consume.
//! * [`ctx`] — the handle kernel code uses to touch guest memory, locks, RCU,
//!   and the console.
//! * [`exec`] — the single-threaded run loop that resumes one kernel thread
//!   at a time, manages the lock table and RCU grace periods, detects
//!   deadlocks and livelocks, and produces an [`exec::ExecReport`].
//! * [`sched`] — schedulers: free-run, random-walk, SKI-style, and the
//!   Snowboard scheduler implementing the paper's Algorithm 2.
//! * [`rng`] — the seeded generator every random decision in the workspace
//!   draws from.
//!
//! # Examples
//!
//! ```
//! use sb_vmm::{exec::{job, Executor}, mem::GuestMem, sched::FreeRun, site};
//!
//! let mut exec = Executor::new(1);
//! let mem = GuestMem::new();
//! let report = exec.run(
//!     mem,
//!     vec![job(|ctx| async move {
//!         let a = ctx.kmalloc(8).await?;
//!         ctx.write_u64(site!("demo:init"), a, 42).await?;
//!         assert_eq!(ctx.read_u64(site!("demo:check"), a).await?, 42);
//!         Ok(())
//!     })],
//!     &mut FreeRun::default(),
//! );
//! assert!(report.report.outcome.is_completed());
//! ```

pub mod access;
pub mod ctx;
pub mod exec;
pub mod mem;
pub mod replay;
pub mod rng;
pub mod sched;
pub mod site;
pub mod sync;

pub use access::{Access, AccessKind, LockSet};
pub use ctx::{Ctx, Fault, KResult};
pub use exec::{ExecError, ExecLimits, ExecReport, Executor, Outcome};
pub use mem::GuestMem;
pub use site::Site;
pub use sync::{SyncEvent, SyncKind};
