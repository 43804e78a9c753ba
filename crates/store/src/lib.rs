//! Persistent profile/PMC store for the Snowboard pipeline.
//!
//! The paper's front end profiles ~300k sequential tests and §5.4 reports
//! that PMC identification dominates pipeline time; nothing of that work
//! survives a process exit in the in-memory pipeline. This crate adds the
//! persistence layer every scaling experiment builds on:
//!
//! * **Compact on-disk profiles** ([`codec`], [`segment`]) — access streams
//!   as varint + zigzag wrapping-delta records in append-only segment
//!   files, content-keyed by (boot config, fuzz seed, program) so the next
//!   run finds an unchanged test's record again. The records carry their
//!   keys, so the segment files are also the index ([`store`]); the
//!   [`manifest`] keeps only the last run's hit and miss counters.
//! * **Exact PMC reuse** ([`pipeline`]) — a PMC set is a function of the
//!   corpus it was identified from, so it is stored under that corpus's key
//!   and reused only for exactly that corpus; any other corpus, a grown
//!   one included, is identified as `Pipeline::prepare` identifies it.
//! * **Self-healing durability** ([`fsck`]) — every record carries a
//!   CRC32C ([`sb_obs::crc`]), writers fsync before a record is indexed,
//!   opening truncates torn tails, and damaged records degrade to
//!   recompute-and-heal instead of failing the campaign; a
//!   `snowboard::DiskFaults` plan armed on a [`Store`] tears, flips and
//!   shortens its I/O at exact positions to prove it.
//!
//! See DESIGN.md §9 for the format and the reuse rule, and
//! §11 for the durability and degradation model.

#[cfg(test)]
mod arbitrary;
pub mod codec;
pub mod fsck;
pub mod manifest;
pub mod pipeline;
pub mod segment;
pub mod store;
pub mod varint;

pub use fsck::{fsck, repair, FsckReport, RepairReport};
pub use pipeline::prepare;
pub use store::{corpus_key, profile_key, PmcLookup, ProfileLookup, SegmentStats, Store};

/// Store error: I/O, or a structurally invalid file.
#[derive(Debug)]
pub enum Error {
    /// A decoder ran off the end of its input.
    Truncated,
    /// A decoder read structurally invalid data.
    Corrupt(&'static str),
    /// An operating-system error against a store file.
    Io {
        /// Operation that failed ("read", "write", "create-dir", …).
        op: &'static str,
        /// File or directory the operation touched.
        path: std::path::PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A store file exists but its contents are invalid.
    Format {
        /// The invalid file.
        path: std::path::PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A deterministic fault injected by [`Store::set_fault_plan`].
    Injected(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "record truncated"),
            Error::Corrupt(detail) => write!(f, "record corrupt: {detail}"),
            Error::Io { op, path, .. } => {
                write!(f, "store {op} failed for {}", path.display())
            }
            Error::Format { path, detail } => {
                write!(f, "invalid store file {}: {detail}", path.display())
            }
            Error::Injected(what) => write!(f, "injected disk fault: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
