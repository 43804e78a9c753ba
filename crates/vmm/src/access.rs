//! Memory-access event records.
//!
//! Every simulated kernel memory access produces one [`Access`], carrying the
//! features Algorithm 1 keys PMCs on — instruction (site), memory range
//! (address + length), value, and access type — plus the synchronization
//! context (locks held, RCU nesting) that the data-race detector consumes.

use std::sync::Arc;

use crate::site::Site;

/// An interned, immutable set of held-lock addresses.
///
/// An [`Access`] is recorded for every guest memory operation, but the set
/// of locks a thread holds only changes on acquire/release. Sharing one
/// `Arc`'d vector between the executor's per-thread state and every access
/// recorded under it makes the per-access snapshot a refcount bump instead
/// of a heap-allocating `Vec` clone, so lock-quiescent accesses allocate
/// nothing on the trial hot path.
///
/// Equality and hashing are by contents — a `LockSet` is indistinguishable
/// from the `Vec<u64>` it replaced.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LockSet(Arc<Vec<u64>>);

impl LockSet {
    /// The empty lock set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a lock address (copy-on-write if the set is shared).
    pub fn push(&mut self, addr: u64) {
        Arc::make_mut(&mut self.0).push(addr);
    }

    /// Keeps only the addresses matching `f` (copy-on-write if shared).
    pub fn retain<F: FnMut(&u64) -> bool>(&mut self, f: F) {
        Arc::make_mut(&mut self.0).retain(f);
    }
}

impl Default for LockSet {
    fn default() -> Self {
        // One shared empty vector for every default set: taking/clearing a
        // thread's lock state never allocates.
        static EMPTY: std::sync::OnceLock<Arc<Vec<u64>>> = std::sync::OnceLock::new();
        LockSet(EMPTY.get_or_init(|| Arc::new(Vec::new())).clone())
    }
}

impl std::ops::Deref for LockSet {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a LockSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<u64>> for LockSet {
    fn from(v: Vec<u64>) -> Self {
        LockSet(Arc::new(v))
    }
}

impl FromIterator<u64> for LockSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        LockSet(Arc::new(iter.into_iter().collect()))
    }
}

impl PartialEq<Vec<u64>> for LockSet {
    fn eq(&self, other: &Vec<u64>) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<LockSet> for Vec<u64> {
    fn eq(&self, other: &LockSet) -> bool {
        *self == *other.0
    }
}

/// Whether an access reads or writes guest memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load from guest memory.
    Read,
    /// A store to guest memory.
    Write,
}

impl AccessKind {
    /// Returns true for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One observed memory access by a simulated kernel thread.
///
/// Every field is integral (no floats), so profiles containing accesses
/// round-trip u64-exactly through any of the store codecs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Global sequence number within one execution (trace index).
    pub seq: u64,
    /// Simulated vCPU / kernel-thread index that performed the access.
    pub thread: usize,
    /// Static instruction identity.
    pub site: Site,
    /// Read or write.
    pub kind: AccessKind,
    /// Start address of the accessed range.
    pub addr: u64,
    /// Length of the accessed range in bytes (1..=8).
    pub len: u8,
    /// Value read or written (low `len` bytes significant).
    pub value: u64,
    /// True for `READ_ONCE`/`WRITE_ONCE`-style marked accesses; pairs of
    /// marked accesses are not data races.
    pub atomic: bool,
    /// Addresses of the locks held by the thread at the time of the access.
    pub locks: LockSet,
    /// RCU read-side critical-section nesting depth at the time of access.
    pub rcu_depth: u8,
}

impl Access {
    /// End of the accessed range (exclusive), saturating at the top of the
    /// address space so ranges ending at `u64::MAX` cannot wrap to 0.
    pub fn end(&self) -> u64 {
        self.addr.saturating_add(u64::from(self.len))
    }

    /// Returns true if this access's range overlaps `other`'s.
    pub fn overlaps(&self, other: &Access) -> bool {
        self.addr < other.end() && other.addr < self.end()
    }

    /// Returns true if the two accesses share at least one held lock.
    pub fn shares_lock_with(&self, other: &Access) -> bool {
        self.locks.iter().any(|l| other.locks.contains(l))
    }

    /// Projects this access's value onto the byte range
    /// `[start, start + len)`, which must be contained in the access range.
    ///
    /// This is the `project_value` helper of Algorithm 1: when a write and a
    /// read overlap only partially, their values are compared over the
    /// overlapping bytes.
    pub fn project_value(&self, start: u64, len: u8) -> u64 {
        debug_assert!(start >= self.addr && start + u64::from(len) <= self.end());
        let shift = (start - self.addr) * 8;
        let raw = self.value >> shift;
        if len >= 8 {
            raw
        } else {
            raw & ((1u64 << (u64::from(len) * 8)) - 1)
        }
    }
}

/// Computes the overlapping byte range of two (addr, len) ranges, if any.
pub fn range_overlap(a_addr: u64, a_len: u8, b_addr: u64, b_len: u8) -> Option<(u64, u8)> {
    let start = a_addr.max(b_addr);
    let end = a_addr
        .saturating_add(u64::from(a_len))
        .min(b_addr.saturating_add(u64::from(b_len)));
    if start < end {
        Some((start, (end - start) as u8))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    fn acc(addr: u64, len: u8, value: u64, kind: AccessKind) -> Access {
        Access {
            seq: 0,
            thread: 0,
            site: site!("test:acc"),
            kind,
            addr,
            len,
            value,
            atomic: false,
            locks: LockSet::new(),
            rcu_depth: 0,
        }
    }

    #[test]
    fn overlap_detection() {
        let a = acc(100, 8, 0, AccessKind::Write);
        let b = acc(104, 8, 0, AccessKind::Read);
        let c = acc(108, 4, 0, AccessKind::Read);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(range_overlap(100, 8, 104, 8), Some((104, 4)));
        assert_eq!(range_overlap(100, 8, 108, 4), None);
    }

    #[test]
    fn ranges_at_address_space_end_saturate_instead_of_wrapping() {
        let hi = acc(u64::MAX - 4, 8, 0, AccessKind::Write);
        assert_eq!(hi.end(), u64::MAX);
        let other = acc(u64::MAX - 2, 8, 0, AccessKind::Read);
        assert!(hi.overlaps(&other));
        assert_eq!(range_overlap(u64::MAX - 4, 8, u64::MAX - 2, 8), Some((u64::MAX - 2, 2)));
        assert_eq!(range_overlap(u64::MAX - 16, 8, u64::MAX - 4, 8), None);
    }

    #[test]
    fn value_projection_little_endian() {
        // Bytes at 100..108 are 01 02 03 04 05 06 07 08.
        let w = acc(100, 8, 0x0807_0605_0403_0201, AccessKind::Write);
        assert_eq!(w.project_value(100, 8), 0x0807_0605_0403_0201);
        assert_eq!(w.project_value(104, 4), 0x0807_0605);
        assert_eq!(w.project_value(107, 1), 0x08);
        assert_eq!(w.project_value(102, 2), 0x0403);
    }

    #[test]
    fn lock_sharing() {
        let mut a = acc(0x40, 4, 0, AccessKind::Write);
        let mut b = acc(0x40, 4, 0, AccessKind::Read);
        assert!(!a.shares_lock_with(&b));
        a.locks = vec![0x9000, 0x9008].into();
        b.locks = vec![0x9008].into();
        assert!(a.shares_lock_with(&b));
        b.locks = vec![0x9010].into();
        assert!(!a.shares_lock_with(&b));
    }
}
