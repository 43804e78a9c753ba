//! Property tests racing the copy-on-write `GuestMem` against a flat
//! `Vec<u8>` reference model.
//!
//! The CoW overlay must be *observationally identical* to the historical
//! whole-memory representation: any interleaving of writes, reads,
//! seals, clones, and deep clones sees the same bytes, and clones never
//! alias each other's mutations. A deterministic (non-proptest) version
//! of the differential also lives in `mem.rs`'s unit tests so stripped
//! builds keep coverage.

use proptest::prelude::*;

use sb_vmm::mem::{GuestMem, HEAP_BASE, PAGE_SIZE};

/// One step of the differential interpreter.
#[derive(Clone, Debug)]
enum Op {
    /// Write `len` bytes of `value` at `HEAP_BASE + off`.
    Write { off: u64, len: u8, value: u64 },
    /// Read `len` bytes at `HEAP_BASE + off` and compare both models.
    Read { off: u64, len: u8 },
    /// Fold the overlay into a fresh shared base.
    Seal,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Bias offsets toward page boundaries so straddling accesses are
    // common, not a once-in-a-blue-moon draw.
    let off = prop_oneof![
        0u64..(PAGE_SIZE * 8),
        (1u64..8).prop_map(|p| p * PAGE_SIZE - 4),
    ];
    prop_oneof![
        4 => (off.clone(), 1u8..=8, any::<u64>())
            .prop_map(|(off, len, value)| Op::Write { off, len, value }),
        4 => (off, 1u8..=8).prop_map(|(off, len)| Op::Read { off, len }),
        1 => Just(Op::Seal),
    ]
}

/// Flat reference model: a plain byte array with the same little-endian
/// read/write semantics `GuestMem` documents.
struct FlatModel(Vec<u8>);

impl FlatModel {
    fn new() -> Self {
        FlatModel(vec![0u8; (PAGE_SIZE * 16) as usize])
    }

    fn write(&mut self, off: u64, len: u8, value: u64) {
        let bytes = value.to_le_bytes();
        self.0[off as usize..off as usize + len as usize].copy_from_slice(&bytes[..len as usize]);
    }

    fn read(&self, off: u64, len: u8) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[..len as usize].copy_from_slice(&self.0[off as usize..off as usize + len as usize]);
        u64::from_le_bytes(bytes)
    }
}

proptest! {
    /// Every read agrees with the flat model through arbitrary
    /// write/read/seal interleavings.
    #[test]
    fn cow_matches_flat_reference(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut cow = GuestMem::new();
        let mut flat = FlatModel::new();
        for op in &ops {
            match *op {
                Op::Write { off, len, value } => {
                    cow.write(HEAP_BASE + off, len, value).unwrap();
                    // The engine masks the value to `len` bytes.
                    let masked = if len == 8 {
                        value
                    } else {
                        value & ((1u64 << (u64::from(len) * 8)) - 1)
                    };
                    flat.write(off, len, masked);
                }
                Op::Read { off, len } => {
                    prop_assert_eq!(
                        cow.read(HEAP_BASE + off, len).unwrap(),
                        flat.read(off, len)
                    );
                }
                Op::Seal => cow.seal(),
            }
        }
        // Final sweep: the full window matches byte for byte.
        for pi in 0..16u64 {
            let addr = HEAP_BASE + pi * PAGE_SIZE;
            prop_assert_eq!(cow.read(addr, 8).unwrap(), flat.read(pi * PAGE_SIZE, 8));
        }
    }

    /// A CoW clone and a deep clone of the same state read identically,
    /// and writes to any one of the three never leak into the others.
    #[test]
    fn clones_are_independent(
        prefix in proptest::collection::vec(op_strategy(), 0..30),
        off in 0u64..(PAGE_SIZE * 8),
        value: u64,
    ) {
        let mut base = GuestMem::new();
        let mut flat = FlatModel::new();
        for op in &prefix {
            if let Op::Write { off, len, value } = *op {
                base.write(HEAP_BASE + off, len, value).unwrap();
                let masked = if len == 8 {
                    value
                } else {
                    value & ((1u64 << (u64::from(len) * 8)) - 1)
                };
                flat.write(off, len, masked);
            }
        }
        let mut cow_clone = base.clone();
        let mut deep_clone = base.deep_clone();
        let addr = HEAP_BASE + off;
        let before = flat.read(off, 8);
        prop_assert_eq!(cow_clone.read(addr, 8).unwrap(), before);
        prop_assert_eq!(deep_clone.read(addr, 8).unwrap(), before);

        // Diverge each copy with a distinct value; nobody else moves.
        cow_clone.write(addr, 8, value ^ 1).unwrap();
        deep_clone.write(addr, 8, value ^ 2).unwrap();
        base.write(addr, 8, value ^ 3).unwrap();
        prop_assert_eq!(cow_clone.read(addr, 8).unwrap(), value ^ 1);
        prop_assert_eq!(deep_clone.read(addr, 8).unwrap(), value ^ 2);
        prop_assert_eq!(base.read(addr, 8).unwrap(), value ^ 3);
    }

    /// Sealing is a pure representation change: reads before and after
    /// agree everywhere, and a sealed image clones with zero dirty pages.
    #[test]
    fn seal_preserves_every_byte(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut m = GuestMem::new();
        for op in &ops {
            if let Op::Write { off, len, value } = *op {
                m.write(HEAP_BASE + off, len, value).unwrap();
            }
        }
        let reads: Vec<u64> = (0..32u64)
            .map(|i| m.read(HEAP_BASE + i * 512, 8).unwrap())
            .collect();
        m.seal();
        prop_assert_eq!(m.dirty_pages(), 0);
        let after: Vec<u64> = (0..32u64)
            .map(|i| m.read(HEAP_BASE + i * 512, 8).unwrap())
            .collect();
        prop_assert_eq!(reads, after);
        prop_assert_eq!(m.clone().dirty_pages(), 0, "clone of sealed image starts clean");
    }
}
