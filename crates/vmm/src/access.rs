//! Memory-access event records.
//!
//! Every simulated kernel memory access produces one [`Access`], carrying the
//! features Algorithm 1 keys PMCs on — instruction (site), memory range
//! (address + length), value, and access type — plus the synchronization
//! context (locks held, RCU nesting) that the data-race detector consumes.

use crate::site::Site;

/// How many held locks a [`LockSet`] keeps in place: room to spare over what
/// the simulated kernel nests (two, in every test, example and benchmark run
/// so far).
const INLINE_LOCKS: usize = 5;

/// The addresses of the locks a thread holds, in acquisition order.
///
/// An [`Access`] is recorded for every guest memory operation and carries
/// the set its thread held, so the set is a plain value: up to five
/// addresses sit inside it, and taking the per-access snapshot, acquiring
/// and releasing are a few word copies — no allocation, no shared count to
/// bump and to drop again when the trace is cleared. A deeper set moves to
/// the heap; the guest never builds one, but a decoder reading lock sets
/// back from disk may be handed any length.
///
/// Equality, hashing and `Debug` are by contents — a `LockSet` is
/// indistinguishable from the `Vec<u64>` it stands for, whichever form
/// holds it.
#[derive(Clone)]
pub struct LockSet(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` of `addrs`.
    Inline {
        len: u8,
        addrs: [u64; INLINE_LOCKS],
    },
    Spilled(Vec<u64>),
}

impl LockSet {
    /// The empty lock set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a lock address.
    pub fn push(&mut self, addr: u64) {
        match &mut self.0 {
            Repr::Inline { len, addrs } if usize::from(*len) < INLINE_LOCKS => {
                addrs[usize::from(*len)] = addr;
                *len += 1;
            }
            Repr::Inline { .. } => {
                let mut spilled = self.to_vec();
                spilled.push(addr);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(v) => v.push(addr),
        }
    }

    /// Keeps only the addresses matching `f`, in order.
    pub fn retain<F: FnMut(&u64) -> bool>(&mut self, mut f: F) {
        match &mut self.0 {
            Repr::Inline { len, addrs } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if f(&addrs[i]) {
                        addrs[kept] = addrs[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(v) => v.retain(f),
        }
    }
}

impl Default for LockSet {
    fn default() -> Self {
        LockSet(Repr::Inline {
            len: 0,
            addrs: [0; INLINE_LOCKS],
        })
    }
}

impl std::ops::Deref for LockSet {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, addrs } => &addrs[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a LockSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<u64>> for LockSet {
    fn from(v: Vec<u64>) -> Self {
        if v.len() > INLINE_LOCKS {
            return LockSet(Repr::Spilled(v));
        }
        let mut addrs = [0; INLINE_LOCKS];
        addrs[..v.len()].copy_from_slice(&v);
        LockSet(Repr::Inline {
            len: v.len() as u8,
            addrs,
        })
    }
}

impl FromIterator<u64> for LockSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut set = LockSet::new();
        for addr in iter {
            set.push(addr);
        }
        set
    }
}

impl PartialEq for LockSet {
    fn eq(&self, other: &LockSet) -> bool {
        **self == **other
    }
}

impl Eq for LockSet {}

impl std::hash::Hash for LockSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for LockSet {
    /// What `#[derive(Debug)]` printed for the `LockSet(Arc<Vec<u64>>)` this
    /// replaced: the golden digests format whole traces.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LockSet").field(&&**self).finish()
    }
}

impl PartialEq<Vec<u64>> for LockSet {
    fn eq(&self, other: &Vec<u64>) -> bool {
        **self == **other
    }
}

impl PartialEq<LockSet> for Vec<u64> {
    fn eq(&self, other: &LockSet) -> bool {
        **self == **other
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
        assert_eq!(
            range_overlap(u64::MAX - 4, 8, u64::MAX - 2, 8),
            Some((u64::MAX - 2, 2))
        );
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
    fn a_lock_set_is_its_contents_inline_or_spilled() {
        use std::hash::BuildHasher;
        let hash = std::collections::hash_map::RandomState::new();
        for depth in 0..=2 * INLINE_LOCKS as u64 {
            let addrs: Vec<u64> = (0..depth).map(|i| 0x9000 + 8 * i).collect();
            // Grown one acquire at a time, converted whole, collected, and
            // shrunk back from a deeper (spilled) set: all one value.
            let mut pushed = LockSet::new();
            addrs.iter().for_each(|a| pushed.push(*a));
            let mut shrunk: LockSet = (0..depth + 7).map(|i| 0x9000 + 8 * i).collect();
            shrunk.retain(|a| *a < 0x9000 + 8 * depth);
            for set in [
                &pushed,
                &addrs.clone().into(),
                &addrs.iter().copied().collect(),
                &shrunk,
            ] {
                assert_eq!(**set, *addrs);
                assert_eq!(*set, pushed);
                assert_eq!(*set, addrs);
                assert_eq!(addrs, *set);
                assert_eq!(hash.hash_one(set), hash.hash_one(&addrs));
                // What the derive printed for the `Arc<Vec<u64>>` newtype.
                let derived = derived::LockSet(std::sync::Arc::new(addrs.clone()));
                assert_eq!(format!("{set:?}"), format!("{derived:?}"));
                assert_eq!(format!("{set:#?}"), format!("{derived:#?}"));
            }
            // Releasing from the middle keeps acquisition order.
            let mut released = pushed.clone();
            released.retain(|a| *a != 0x9008);
            let expected: Vec<u64> = addrs.iter().copied().filter(|a| *a != 0x9008).collect();
            assert_eq!(released, expected);
        }
        assert_eq!(LockSet::default(), Vec::<u64>::new());
    }

    mod derived {
        #[derive(Debug)]
        pub struct LockSet(#[allow(dead_code)] pub std::sync::Arc<Vec<u64>>);
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
