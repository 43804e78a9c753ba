//! The shared error model for fault-tolerant campaign execution.
//!
//! §4.4 runs concurrent tests for days across a worker fleet; a campaign of
//! that shape must treat per-job failure as data, not as a reason to die.
//! Every failure mode along the campaign pipeline is an [`Error`] variant,
//! and the campaign driver classifies each as *retryable* (transient — worth
//! a reseeded retry) or *permanent* (quarantine the PMC and move on).
//!
//! `thiserror` would generate these impls; it is written by hand so the
//! crate keeps its zero-new-dependencies footprint.

use std::path::PathBuf;
use std::time::Duration;

use sb_vmm::exec::ExecError;

use crate::pmc::PmcId;

/// Result alias for campaign-pipeline operations.
pub type SbResult<T> = Result<T, Error>;

/// A typed campaign-pipeline failure.
#[derive(Debug)]
pub enum Error {
    /// A PMC has no recorded test pairs, so no concurrent test can be built
    /// from it (identification should never emit one, but a corrupt or
    /// hand-built set can).
    EmptyPmc {
        /// The offending PMC.
        pmc: PmcId,
    },
    /// A test pair references a corpus index that does not exist.
    BadTestId {
        /// The missing corpus test id.
        test: u32,
        /// Size of the corpus it was resolved against.
        corpus: usize,
    },
    /// The executor refused the run (bad job shape).
    Exec {
        /// The underlying executor error.
        source: ExecError,
    },
    /// A campaign worker panicked while running a job.
    WorkerPanic {
        /// Captured panic payload.
        message: String,
    },
    /// The per-job watchdog expired: the job overran its step budget or
    /// wall-clock deadline and is classified as a hang.
    Hang {
        /// Engine steps consumed when the watchdog fired.
        steps: u64,
        /// Wall-clock time elapsed when the watchdog fired.
        elapsed: Duration,
        /// Trials completed before the watchdog fired.
        trials_run: u32,
        /// What tripped: `"steps"`, `"deadline"`, or `"forced"`.
        tripped: &'static str,
    },
    /// A fault-injection hook forced this failure (see
    /// [`crate::fault::FaultPlan`]); always transient so retry paths can be
    /// exercised deterministically.
    Injected {
        /// Attempt index the fault fired on.
        attempt: u32,
    },
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// The checkpoint path.
        path: PathBuf,
        /// `"read"`, `"write"`, or `"rename"`.
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A checkpoint file exists but does not parse or has the wrong shape.
    CheckpointFormat {
        /// The checkpoint path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint is valid but belongs to a different campaign (seed or
    /// exemplar list mismatch), so resuming from it would silently change
    /// results.
    ResumeMismatch {
        /// What differed.
        detail: String,
    },
    /// The process supervisor itself failed (a worker could not be spawned,
    /// the loopback coordinator could not bind). Campaign-level: per-worker
    /// crashes are quarantine data, not errors.
    Supervise {
        /// What went wrong.
        detail: String,
    },
    /// The fleet fabric itself failed (the coordinator could not listen, a
    /// worker exhausted its reconnect budget, a handshake was rejected).
    /// Campaign-level for the same reason as [`Error::Supervise`]:
    /// individual worker deaths are quarantine data, not errors.
    Fleet {
        /// What went wrong.
        detail: String,
    },
}

impl Error {
    /// True if a retry with a fresh seed could plausibly succeed.
    ///
    /// Panics and injected faults are transient: the job itself may be
    /// fine and the failure environmental. Structural problems (empty PMC,
    /// bad test id, a job shape the executor refuses, hang, checkpoint
    /// trouble) are permanent — retrying would only burn budget.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::WorkerPanic { .. } | Error::Injected { .. })
    }

    /// The quarantine classification of this error.
    pub fn failure_kind(&self) -> FailureKind {
        match self {
            Error::EmptyPmc { .. } => FailureKind::EmptyPmc,
            Error::BadTestId { .. } => FailureKind::BadTest,
            Error::Exec { .. } => FailureKind::Exec,
            Error::WorkerPanic { .. } => FailureKind::Panic,
            Error::Hang { .. } => FailureKind::Hang,
            Error::Injected { .. } => FailureKind::Injected,
            Error::CheckpointIo { .. }
            | Error::CheckpointFormat { .. }
            | Error::ResumeMismatch { .. } => FailureKind::Checkpoint,
            Error::Supervise { .. } | Error::Fleet { .. } => FailureKind::Crash,
        }
    }

    /// Renders this error and its source chain, outermost first.
    pub fn chain(&self) -> Vec<String> {
        let mut out = vec![self.to_string()];
        let mut cur: Option<&(dyn std::error::Error + 'static)> = std::error::Error::source(self);
        while let Some(e) = cur {
            out.push(e.to_string());
            cur = e.source();
        }
        out
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptyPmc { pmc } => write!(f, "PMC {pmc} has no test pairs"),
            Error::BadTestId { test, corpus } => {
                write!(f, "test id {test} out of range for corpus of {corpus}")
            }
            Error::Exec { .. } => write!(f, "execution machinery failed"),
            Error::WorkerPanic { message } => write!(f, "campaign worker panicked: {message}"),
            Error::Hang {
                steps,
                elapsed,
                trials_run,
                tripped,
            } => write!(
                f,
                "job hang: watchdog tripped on {tripped} after {trials_run} trials, \
                 {steps} steps, {elapsed:?}"
            ),
            Error::Injected { attempt } => {
                write!(f, "injected transient fault (attempt {attempt})")
            }
            Error::CheckpointIo { path, op, .. } => {
                write!(f, "checkpoint {op} failed for {}", path.display())
            }
            Error::CheckpointFormat { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            Error::ResumeMismatch { detail } => {
                write!(f, "checkpoint belongs to a different campaign: {detail}")
            }
            Error::Supervise { detail } => {
                write!(f, "process supervisor failed: {detail}")
            }
            Error::Fleet { detail } => {
                write!(f, "fleet fabric failed: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec { source } => Some(source),
            Error::CheckpointIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ExecError> for Error {
    fn from(source: ExecError) -> Self {
        Error::Exec { source }
    }
}

impl From<crate::protocol::ProtocolError> for Error {
    fn from(source: crate::protocol::ProtocolError) -> Self {
        Error::Fleet {
            detail: source.to_string(),
        }
    }
}

/// Compact classification of a quarantined job's failure, stable across
/// checkpoint round trips.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// PMC with no test pairs.
    EmptyPmc,
    /// Test pair referenced a missing corpus entry.
    BadTest,
    /// Execution machinery failure.
    Exec,
    /// Worker panic.
    Panic,
    /// Watchdog-detected hang.
    Hang,
    /// Fault-injection hook.
    Injected,
    /// Checkpoint I/O or format trouble.
    Checkpoint,
    /// The worker *process* running the job died (nonzero exit, signal, or
    /// heartbeat-timeout kill) and the job's crash budget is exhausted.
    Crash,
    /// Worker processes crash-looped and the breaker abandoned what was
    /// left; this job never got a verdict. The one reported-only kind:
    /// gave-up records are *not* persisted to checkpoints — a resumed
    /// campaign retries the job.
    GaveUp,
}

impl FailureKind {
    /// Stable lowercase tag used in checkpoints and reports.
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::EmptyPmc => "empty-pmc",
            FailureKind::BadTest => "bad-test",
            FailureKind::Exec => "exec",
            FailureKind::Panic => "panic",
            FailureKind::Hang => "hang",
            FailureKind::Injected => "injected",
            FailureKind::Checkpoint => "checkpoint",
            FailureKind::Crash => "crash",
            FailureKind::GaveUp => "gave-up",
        }
    }

    /// Parses a checkpoint tag back into a kind.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "empty-pmc" => FailureKind::EmptyPmc,
            "bad-test" => FailureKind::BadTest,
            "exec" => FailureKind::Exec,
            "panic" => FailureKind::Panic,
            "hang" => FailureKind::Hang,
            "injected" => FailureKind::Injected,
            "checkpoint" => FailureKind::Checkpoint,
            "crash" => FailureKind::Crash,
            "gave-up" => FailureKind::GaveUp,
            _ => return None,
        })
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_chain_render_sources() {
        let e = Error::CheckpointIo {
            path: PathBuf::from("/tmp/cp.json"),
            op: "write",
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        };
        let chain = e.chain();
        assert_eq!(chain.len(), 2);
        assert!(chain[0].contains("checkpoint write failed"));
        assert!(chain[1].contains("denied"));
    }

    #[test]
    fn retryability_classification() {
        assert!(Error::WorkerPanic {
            message: "x".into()
        }
        .is_retryable());
        assert!(Error::Injected { attempt: 0 }.is_retryable());
        assert!(!Error::Exec {
            source: ExecError::BadJobCount { jobs: 3, vcpus: 2 }
        }
        .is_retryable());
        assert!(!Error::EmptyPmc { pmc: 3 }.is_retryable());
        assert!(!Error::Hang {
            steps: 1,
            elapsed: Duration::ZERO,
            trials_run: 0,
            tripped: "steps"
        }
        .is_retryable());
    }

    #[test]
    fn failure_kind_tags_round_trip() {
        for kind in [
            FailureKind::EmptyPmc,
            FailureKind::BadTest,
            FailureKind::Exec,
            FailureKind::Panic,
            FailureKind::Hang,
            FailureKind::Injected,
            FailureKind::Checkpoint,
            FailureKind::Crash,
            FailureKind::GaveUp,
        ] {
            assert_eq!(FailureKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(FailureKind::from_tag("nope"), None);
    }
}
