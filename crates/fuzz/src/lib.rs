//! Coverage-guided sequential test generation — the Syzkaller stand-in.
//!
//! The paper assumes "an external tool \[that\] produces a corpus of
//! sequential tests" and uses "the edge coverage metric, exported by
//! Syzkaller, to select tests" (§4.1.1). This crate provides exactly that
//! interface: typed random program generation with resource references
//! ([`gen`]), structural mutation ([`mutate`]), control-flow edge coverage
//! extracted from execution traces ([`coverage`]), and greedy corpus
//! distillation that keeps only tests contributing new edges ([`corpus`]).

pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod mutate;

pub use corpus::{build_corpus_kept, build_corpus_with, seed_programs, CorpusStats};
pub use coverage::{edges_of_trace, CoverageMap};
pub use gen::{Catalog, ProgGen};
