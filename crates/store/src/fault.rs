//! Deterministic disk-fault injection for the store.
//!
//! Mirrors `snowboard::FaultPlan`: plain data, always compiled in, empty by
//! default (and checked with one cheap branch per site). Tests aim faults
//! at exact byte positions, so crash-consistency claims are exercised at
//! every boundary instead of whenever the OS feels like tearing a write.
//!
//! The spec grammar (`--chaos disk:torn=N;disk:flip=OFF:MASK;...`) lives in
//! [`snowboard::chaos::DiskFaults`] — `sb-store` depends on `snowboard`,
//! so the unified chaos plan parses the disk plane without seeing this
//! crate — and this plan is built from it. Every fault
//! that actually fires is recorded (and printed as a `[chaos] fired`
//! stderr ledger line) so `hunt chaos` can attribute injected faults.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

use snowboard::chaos::{self, DiskFaults};

/// A deterministic plan of disk faults to inject into one [`crate::Store`].
///
/// * `torn_write_after` — the next segment write stops after this many
///   record-area bytes (the magic always lands) and fails as if the process
///   had been killed mid-`insert_profiles`: the partial file is synced to
///   disk and the manifest is never updated.
/// * `flip_after_write` — after the next segment write completes, XOR the
///   mask into the byte at the absolute file offset: silent media
///   corruption that only checksum verification can catch.
/// * `short_read_keys` — record reads for these content keys behave as if
///   the file ended one byte early (a short read), so the lookup must
///   degrade to `Damaged` rather than serve a partial payload.
/// * `short_read_nth` — the Nth verified record read (1-based) comes up
///   short, whatever its key: content keys are hashes, so chaos schedules
///   target reads ordinally instead of guessing keys.
#[derive(Clone, Debug, Default)]
pub struct DiskFaultPlan {
    /// One-shot: cut the next segment write after N record-area bytes.
    pub torn_write_after: Option<u64>,
    /// One-shot: XOR `(offset, mask)` into the next finished segment file.
    pub flip_after_write: Option<(u64, u8)>,
    /// Persistent: keys whose record reads come up short.
    pub short_read_keys: BTreeSet<u64>,
    /// One-shot: the Nth record read (1-based) comes up short.
    pub short_read_nth: Option<u64>,
    /// Verified record reads seen so far (drives `short_read_nth`).
    /// Bookkeeping, not script: leave it defaulted when building a plan.
    pub reads_seen: Cell<u64>,
    /// Site ids of faults that actually fired, in fire order.
    /// Bookkeeping, not script: leave it defaulted when building a plan.
    pub fired: RefCell<Vec<&'static str>>,
}

impl DiskFaultPlan {
    /// True when no fault is armed (the default; the hot path checks this).
    pub fn is_empty(&self) -> bool {
        self.torn_write_after.is_none()
            && self.flip_after_write.is_none()
            && self.short_read_keys.is_empty()
            && self.short_read_nth.is_none()
    }

    /// Site ids of the faults that actually fired, in fire order.
    pub fn fired(&self) -> Vec<&'static str> {
        self.fired.borrow().clone()
    }

    /// Consumes the one-shot torn-write cutoff, if armed.
    pub(crate) fn take_torn_write(&mut self) -> Option<u64> {
        let cut = self.torn_write_after.take()?;
        self.fired.borrow_mut().push("disk.torn");
        chaos::fired("disk.torn", &format!("cut={cut}"));
        Some(cut)
    }

    /// Consumes the one-shot post-write bit flip, if armed.
    pub(crate) fn take_flip(&mut self) -> Option<(u64, u8)> {
        let (offset, mask) = self.flip_after_write.take()?;
        self.fired.borrow_mut().push("disk.flip");
        chaos::fired("disk.flip", &format!("offset={offset} mask={mask}"));
        Some((offset, mask))
    }

    /// Whether this verified record read of `key` should come up short.
    /// Counts reads only while a read fault is armed, so the production
    /// fast path stays a branch on empty sets.
    pub(crate) fn short_read(&self, key: u64) -> bool {
        if self.short_read_keys.is_empty() && self.short_read_nth.is_none() {
            return false;
        }
        let read = self.reads_seen.get() + 1;
        self.reads_seen.set(read);
        let hit = self.short_read_keys.contains(&key) || self.short_read_nth == Some(read);
        if hit {
            self.fired.borrow_mut().push("disk.short");
            chaos::fired("disk.short", &format!("key={key} read={read}"));
        }
        hit
    }
}

impl From<DiskFaults> for DiskFaultPlan {
    fn from(spec: DiskFaults) -> DiskFaultPlan {
        DiskFaultPlan {
            torn_write_after: spec.torn_write_after,
            flip_after_write: spec.flip_after_write,
            short_read_keys: spec.short_read_keys,
            short_read_nth: spec.short_read_nth,
            ..DiskFaultPlan::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_one_shots_disarm() {
        let mut plan = DiskFaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.take_torn_write(), None);
        assert!(plan.fired().is_empty());

        plan.torn_write_after = Some(5);
        plan.flip_after_write = Some((8, 0x01));
        plan.short_read_keys.insert(42);
        assert!(!plan.is_empty());
        assert_eq!(plan.take_torn_write(), Some(5));
        assert_eq!(plan.take_torn_write(), None, "one-shot");
        assert_eq!(plan.take_flip(), Some((8, 0x01)));
        assert_eq!(plan.take_flip(), None, "one-shot");
        assert!(plan.short_read(42));
        assert!(!plan.short_read(41));
        assert!(plan.short_read(42), "short reads persist");
        assert_eq!(plan.fired(), vec!["disk.torn", "disk.flip", "disk.short", "disk.short"]);
    }

    #[test]
    fn nth_read_fault_fires_once_at_the_exact_ordinal() {
        let plan = DiskFaultPlan {
            short_read_nth: Some(3),
            ..DiskFaultPlan::default()
        };
        assert!(!plan.is_empty());
        assert!(!plan.short_read(10), "read 1");
        assert!(!plan.short_read(11), "read 2");
        assert!(plan.short_read(12), "read 3 fires whatever the key");
        assert!(!plan.short_read(12), "read 4 does not");
        assert_eq!(plan.fired(), vec!["disk.short"]);
    }

    #[test]
    fn builds_from_the_chaos_grammars_disk_plane() {
        let spec = snowboard::ChaosPlan::parse_spec(
            "disk:torn=20;disk:flip=5:255;disk:short=7,9;disk:shortn=3",
        )
        .unwrap();
        let plan = DiskFaultPlan::from(spec.disk);
        assert_eq!(plan.torn_write_after, Some(20));
        assert_eq!(plan.flip_after_write, Some((5, 255)));
        assert_eq!(plan.short_read_keys, BTreeSet::from([7, 9]));
        assert_eq!(plan.short_read_nth, Some(3));
        assert!(plan.fired().is_empty());
    }
}
