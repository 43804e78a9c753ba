//! `sb-obs` — zero-dependency structured tracing and metrics for the hunt
//! pipeline.
//!
//! The crate provides four pieces, all built on the workspace's hand-rolled
//! u64-exact [`json`] module (which lives here so every consumer shares one
//! serializer):
//!
//! * [`trace`] — the [`Tracer`] handle: hierarchical spans with monotonic
//!   microsecond timings, typed counters and histograms, and pluggable
//!   sinks ([`trace::MemorySink`] for tests, [`trace::JsonlSink`] for
//!   `hunt --trace-dir`). A disabled tracer is a single `Option` check per
//!   call — the bench pipeline runs within noise of an untraced build.
//! * [`event`] — the typed JSONL event schema ([`Event`]), validated in
//!   both directions.
//! * [`observer`] — [`DecisionObserver`](sb_vmm::sched::DecisionObserver)
//!   implementations: [`CountingObserver`] aggregates hot-path scheduler
//!   decisions into atomics and publishes them at job boundaries;
//!   [`RecordingObserver`] captures full decision sequences for
//!   determinism tests.
//! * [`report`] — [`TraceReport`]: reconstructs per-stage wall clock and
//!   funnel attrition from a trace file and cross-checks them against the
//!   run's own summary (`sb trace report`).
//! * [`frame`] — the one record frame (`prefix ‖ len ‖ crc ‖ payload`)
//!   under store segments, the checkpoint log, the worker spool and the
//!   fleet socket; [`crc`] is its CRC32C (the SSE4.2 `crc32` instruction
//!   where the CPU has it, slicing-by-8 elsewhere).
//! * [`spec`] — the shared `kind=args;...` grammar behind the `--chaos`
//!   spec string (job, process, network, coordinator), so all planes
//!   parse and report errors identically.

pub mod crc;
pub mod event;
pub mod frame;
pub mod json;
pub mod observer;
pub mod report;
pub mod spec;
pub mod trace;

pub use event::Event;
pub use observer::{CountingObserver, RecordingObserver};
pub use report::{Funnel, TraceReport};
pub use trace::{keys, JsonlSink, MemorySink, Sink, Span, Tracer};
