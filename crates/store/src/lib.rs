//! The segment-file profile/PMC store, kept only for the benchmark.
//!
//! No program path opens a store: every `hunt` runs the in-memory
//! `snowboard::Pipeline::prepare`, and reuse across strategies happens in
//! process. The crate remains because `crates/benchmark` times it, in the
//! `store-cycle` workload and the `store.*` layer rows; it goes with them.
//!
//! * **Compact on-disk profiles** ([`codec`], [`segment`]) — access streams
//!   as varint + zigzag wrapping-delta records in append-only segment
//!   files, content-keyed by (boot config, fuzz seed, program). The records
//!   carry their keys, so the segment files are also the index ([`store`]);
//!   the [`manifest`] keeps only the last run's hit and miss counters.
//! * **Exact PMC sets** — a PMC set is stored under its corpus's key and
//!   served only for exactly that corpus.
//! * **Durability** — every record carries a CRC32C ([`sb_obs::crc`]),
//!   writers fsync before a record is indexed, opening truncates torn
//!   tails, and a damaged record reads as `Damaged` or a miss, never as an
//!   error; rewriting it heals it.
//!
//! DESIGN.md §9 says why no program path uses it.

#[cfg(test)]
mod arbitrary;
pub mod codec;
pub mod manifest;
pub mod segment;
pub mod store;
pub mod varint;

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
