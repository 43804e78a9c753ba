//! CRC32C for segment records — re-exported from [`sb_obs::crc`].
//!
//! The implementation moved to `sb-obs` (the workspace's dependency root)
//! so the campaign checkpoint log in `snowboard` can share
//! it; `sb-store` depends on `snowboard`, so the checksum has to live
//! *below* both. Segment records still checksum `key‖len‖payload` with
//! the same Castagnoli polynomial as before — the format on disk is
//! unchanged.
//!
//! A record is checksummed once when it is written and once by each lookup
//! that serves it. Opening a store checksums only the records `open` acts
//! on — the last of each file and any the manifest does not address — and
//! `fsck` all of them (DESIGN.md §11 has the table).

pub use sb_obs::crc::{crc32c, Crc32c};
