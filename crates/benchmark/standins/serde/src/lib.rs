//! Offline stand-in for `serde`: the workspace derives `Serialize` and
//! `Deserialize` on its data types but never calls a serializer (its JSON and
//! binary codecs are hand-written), so marker traits and derives that expand
//! to nothing are enough to build it.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
