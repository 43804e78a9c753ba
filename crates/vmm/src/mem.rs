//! Guest physical memory: byte-addressable, deterministically allocated,
//! snapshotted by page-granular copy-on-write.
//!
//! The paper relies on the crucial property that, starting from the same VM
//! snapshot, the same sequence of kernel operations produces the same memory
//! layout — so PMCs predicted from sequential profiles remain meaningful when
//! the two tests later run concurrently (§4.1). This module provides that
//! property: a fixed-size guest address space with a deterministic
//! size-classed slab allocator, a faulting low-memory guard region (so null
//! and near-null dereferences oops like real page faults), and per-thread
//! 8 KiB kernel-stack regions laid out exactly as the paper's ESP-masking
//! formula assumes (§4.1.1).
//!
//! ## Snapshot model
//!
//! Snowboard's throughput is bounded by how fast trials can be launched from
//! the boot snapshot (§5.4), and every `hunt`, worker and fleet member boots
//! before its first trial, so neither booting nor cloning may cost the size
//! of the guest: both cost the pages that were written. `GuestMem` is an
//! `Arc`-shared immutable *base* — the pages and the allocator's books as of
//! the last seal — plus what this instance changed since: an *overlay* of
//! dirty 4 KiB pages and a delta over the allocator's books. Base and
//! overlay are the same sparse [`PageTable`]; a page nobody ever wrote is in
//! neither and reads through one shared zero page, so a fresh guest holds
//! no page at all and a booted kernel the handful its heap reached. Reads
//! go overlay → base → zero page, the first write to a page copies it into
//! the overlay, and `clone` bumps the base refcount and copies the overlay
//! and the delta, so it costs what the instance dirtied (nothing, for a
//! sealed snapshot) — as does dropping one.
//! [`GuestMem::seal`] folds overlay and delta into a fresh base — the boot
//! path calls it once so every trial starts from a clean, fully-shared
//! image. [`GuestMem::deep_clone`] does the same into a new instance that
//! shares nothing with its source: the reference the tests compare the
//! copy-on-write path against.
//!
//! A page table has two levels ([`CHUNKS`] chunks of [`CHUNK_PAGES`] page
//! slots, a chunk allocated on the first write into it): lookup is two
//! indexed loads per table, and clone, seal and drop visit the top level
//! plus the chunks that hold a page, never all 4 096 page slots.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ctx::Fault;

/// Total guest memory size in bytes (16 MiB).
pub const GUEST_MEM_SIZE: u64 = 1 << 24;

/// Copy-on-write granularity: one guest page, 4 KiB.
pub const PAGE_SIZE: u64 = 0x1000;

/// Number of guest pages.
const PAGE_COUNT: usize = (GUEST_MEM_SIZE / PAGE_SIZE) as usize;

/// Page slots per page-table chunk.
const CHUNK_PAGES: usize = 64;

/// Page-table chunks covering the guest.
const CHUNKS: usize = PAGE_COUNT / CHUNK_PAGES;

/// Addresses below this bound fault, emulating unmapped low pages.
///
/// The first page models a null-pointer dereference; the rest of the guard
/// models wild near-null pointers (e.g. a field offset added to a null base),
/// which the paper's bug #1 produces.
pub const NULL_GUARD_END: u64 = 0x1_0000;

/// Per-thread kernel stack size: 8 KiB, two physical pages, matching the
/// Linux x86 configuration described in §4.1.1.
pub const STACK_SIZE: u64 = 0x2000;

/// Maximum number of simulated vCPUs / kernel threads.
pub const MAX_THREADS: usize = 4;

/// Base of the kernel-stack area. Stacks are `STACK_SIZE`-aligned and sit at
/// the top of guest memory, one per thread.
pub const STACKS_BASE: u64 = GUEST_MEM_SIZE - (MAX_THREADS as u64) * STACK_SIZE;

/// Start of the dynamic allocation arena.
pub const HEAP_BASE: u64 = NULL_GUARD_END;

/// Returns the base address of thread `tid`'s kernel stack.
pub fn stack_base(tid: usize) -> u64 {
    assert!(tid < MAX_THREADS, "thread id {tid} out of range");
    STACKS_BASE + (tid as u64) * STACK_SIZE
}

/// Computes the kernel stack range containing stack pointer `sp`, using the
/// mask formula from §4.1.1:
/// `[sp & !(STACK_SIZE-1), (sp & !(STACK_SIZE-1)) + STACK_SIZE)`.
pub fn stack_range_of(sp: u64) -> (u64, u64) {
    let base = sp & !(STACK_SIZE - 1);
    (base, base + STACK_SIZE)
}

/// Returns true if `addr` falls inside any thread's kernel-stack region.
pub fn is_stack_addr(addr: u64) -> bool {
    (STACKS_BASE..GUEST_MEM_SIZE).contains(&addr)
}

/// The allocator size classes, in bytes. Allocations round up to the nearest
/// class; larger requests fail with [`Fault::Oom`].
const SIZE_CLASSES: [u64; 8] = [8, 16, 32, 64, 128, 256, 1024, 4096];

/// One copy-on-write page.
type Page = Box<[u8; PAGE_SIZE as usize]>;

/// [`CHUNK_PAGES`] consecutive page slots of a page table.
type Chunk = Box<[Option<Page>; CHUNK_PAGES]>;

/// A sparse image of the guest: the pages that were written, by page index.
type PageTable = [Option<Chunk>; CHUNKS];

/// What a page in no table reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// The page at index `pi` of `table`, if it holds one.
#[inline]
fn present(table: &PageTable, pi: usize) -> Option<&Page> {
    table[pi / CHUNK_PAGES].as_ref()?[pi % CHUNK_PAGES].as_ref()
}

/// The slot for page `pi` of `table`, allocating its chunk on first use.
#[inline]
fn slot_mut(table: &mut PageTable, pi: usize) -> &mut Option<Page> {
    let chunk =
        table[pi / CHUNK_PAGES].get_or_insert_with(|| Box::new([const { None }; CHUNK_PAGES]));
    &mut chunk[pi % CHUNK_PAGES]
}

/// Every page `table` holds, with its index.
fn pages(table: &PageTable) -> impl Iterator<Item = (usize, &Page)> {
    table.iter().enumerate().flat_map(|(ci, chunk)| {
        let slots = chunk.iter().flat_map(|c| c.iter().enumerate());
        slots.filter_map(move |(si, page)| Some((ci * CHUNK_PAGES + si, page.as_ref()?)))
    })
}

/// What every clone shares: the state as of the last
/// [`seal`](GuestMem::seal) (or construction). Never written afterwards.
struct Base {
    /// The pages written before the seal.
    pages: PageTable,
    /// Free list per size class (indexed like [`SIZE_CLASSES`]), a LIFO
    /// stack so reallocation is deterministic.
    free: [Vec<u64>; SIZE_CLASSES.len()],
    /// Live allocations, address → size-class index.
    allocs: BTreeMap<u64, usize>,
}

/// One size class's free list as this instance sees it: the first
/// `base_left` entries of the base's stack, then `pushed` on top.
#[derive(Clone, Default)]
struct FreeList {
    base_left: usize,
    pushed: Vec<u64>,
}

/// Guest memory with a deterministic slab allocator and copy-on-write
/// snapshots.
///
/// Cloning a `GuestMem` is how snapshots work: boot the kernel once,
/// [`seal`](GuestMem::seal) the result, clone it before every trial, and
/// every trial observes the exact same initial state and future allocation
/// addresses — while sharing the boot image instead of copying it.
#[derive(Clone)]
pub struct GuestMem {
    base: Arc<Base>,
    /// Dirty pages, lazily copied from the base on first write.
    overlay: PageTable,
    /// Number of pages in `overlay`.
    dirty: u64,
    /// Bump pointer for fresh slab pages.
    brk: u64,
    /// Free lists per size class, as deltas over the base's.
    free: [FreeList; SIZE_CLASSES.len()],
    /// Changes to the base's live-allocation map: `Some(class)` for an
    /// object allocated since the seal, `None` for a base object freed
    /// since. The map guards against double, wild, and wrong-size frees,
    /// which would silently break allocation determinism (§4.1) by
    /// duplicating free-list entries.
    allocs: BTreeMap<u64, Option<usize>>,
    /// Count of live allocations, for leak diagnostics.
    live: u64,
}

impl Default for GuestMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestMem {
    /// Creates a zeroed guest memory with an empty heap. It holds no page
    /// until something is written.
    pub fn new() -> Self {
        Self::on_base(
            Base {
                pages: [const { None }; CHUNKS],
                free: Default::default(),
                allocs: BTreeMap::new(),
            },
            HEAP_BASE,
            0,
        )
    }

    /// An instance that has changed nothing over `base` yet.
    fn on_base(base: Base, brk: u64, live: u64) -> Self {
        let free = std::array::from_fn(|c| FreeList {
            base_left: base.free[c].len(),
            pushed: Vec::new(),
        });
        GuestMem {
            base: Arc::new(base),
            overlay: [const { None }; CHUNKS],
            dirty: 0,
            brk,
            free,
            allocs: BTreeMap::new(),
            live,
        }
    }

    /// Number of live (allocated, not yet freed) heap objects.
    pub fn live_allocations(&self) -> u64 {
        self.live
    }

    /// Current bump pointer; useful to verify allocation determinism.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Number of pages copied out of the shared base by writes since the
    /// last [`seal`](GuestMem::seal) (or construction).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    /// Number of pages this instance keeps in memory: those of its base
    /// (shared with every clone) plus its own dirty ones. Everything else of
    /// the guest's [`GUEST_MEM_SIZE`] reads as zero and occupies nothing.
    pub fn resident_pages(&self) -> u64 {
        pages(&self.base.pages).count() as u64 + self.dirty
    }

    /// Folds the dirty overlay and the allocator delta into a fresh
    /// immutable base, leaving an instance whose clones share everything.
    ///
    /// Called once after boot, so that every later per-trial `clone` costs
    /// only what a trial changed (one refcount and a few empty containers).
    /// The fold itself copies the pages that exist, not the guest.
    pub fn seal(&mut self) {
        // Nothing to fold: `kmalloc` zeroes (dirties) what it hands out, and
        // a `kfree` that dirtied nothing freed a base object, which leaves a
        // tombstone.
        if self.dirty == 0 && self.allocs.is_empty() {
            return;
        }
        *self = Self::on_base(self.flatten(), self.brk, self.live);
    }

    /// A copy that shares nothing with `self`: base pages, dirty pages and
    /// allocator books all folded into a base of its own. Semantically
    /// identical to `clone`; kept as the reference for the tests that pin
    /// the two bit-identical.
    pub fn deep_clone(&self) -> Self {
        Self::on_base(self.flatten(), self.brk, self.live)
    }

    /// The current state — the base's pages with the dirty ones laid over
    /// them, allocator books with the delta applied — as a base of its own.
    fn flatten(&self) -> Base {
        let mut table = self.base.pages.clone();
        for (pi, page) in pages(&self.overlay) {
            *slot_mut(&mut table, pi) = Some(page.clone());
        }
        let free = std::array::from_fn(|c| {
            let mut list = self.base.free[c][..self.free[c].base_left].to_vec();
            list.extend_from_slice(&self.free[c].pushed);
            list
        });
        let mut allocs = self.base.allocs.clone();
        for (addr, change) in &self.allocs {
            match change {
                Some(class) => allocs.insert(*addr, *class),
                None => allocs.remove(addr),
            };
        }
        Base {
            pages: table,
            free,
            allocs,
        }
    }

    /// Read view of page `pi`: the dirty copy if one exists, else the
    /// base's, else zeroes.
    #[inline]
    fn page(&self, pi: usize) -> &[u8; PAGE_SIZE as usize] {
        present(&self.overlay, pi)
            .or_else(|| present(&self.base.pages, pi))
            .map_or(&ZERO_PAGE, |page| &**page)
    }

    /// Write view of page `pi`, copying it out of the base on first use.
    #[inline]
    fn page_mut(&mut self, pi: usize) -> &mut [u8] {
        let slot = slot_mut(&mut self.overlay, pi);
        if slot.is_none() {
            self.dirty += 1;
        }
        let base = &self.base.pages;
        &mut slot.get_or_insert_with(|| match present(base, pi) {
            Some(page) => page.clone(),
            None => Box::new([0u8; PAGE_SIZE as usize]),
        })[..]
    }

    fn check_range(addr: u64, len: u8) -> Result<(), Fault> {
        let len = u64::from(len);
        if len == 0 || len > 8 {
            return Err(Fault::BadAccess { addr, len: len as u8 });
        }
        if addr < NULL_GUARD_END {
            if addr < 0x1000 {
                return Err(Fault::NullDeref { addr });
            }
            return Err(Fault::PageFault { addr });
        }
        if addr.checked_add(len).is_none_or(|end| end > GUEST_MEM_SIZE) {
            return Err(Fault::PageFault { addr });
        }
        Ok(())
    }

    /// Reads `len` bytes (1..=8) at `addr` as a little-endian value.
    pub fn read(&self, addr: u64, len: u8) -> Result<u64, Fault> {
        Self::check_range(addr, len)?;
        let mut buf = [0u8; 8];
        let start = addr as usize;
        let len = len as usize;
        let pi = start / PAGE_SIZE as usize;
        let off = start % PAGE_SIZE as usize;
        if off + len <= PAGE_SIZE as usize {
            buf[..len].copy_from_slice(&self.page(pi)[off..off + len]);
        } else {
            // The access straddles a page boundary; split it.
            let first = PAGE_SIZE as usize - off;
            buf[..first].copy_from_slice(&self.page(pi)[off..]);
            buf[first..len].copy_from_slice(&self.page(pi + 1)[..len - first]);
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `len` bytes (1..=8) of `value` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, len: u8, value: u64) -> Result<(), Fault> {
        Self::check_range(addr, len)?;
        let start = addr as usize;
        let len = len as usize;
        let bytes = value.to_le_bytes();
        let pi = start / PAGE_SIZE as usize;
        let off = start % PAGE_SIZE as usize;
        if off + len <= PAGE_SIZE as usize {
            self.page_mut(pi)[off..off + len].copy_from_slice(&bytes[..len]);
        } else {
            let first = PAGE_SIZE as usize - off;
            self.page_mut(pi)[off..].copy_from_slice(&bytes[..first]);
            self.page_mut(pi + 1)[..len - first].copy_from_slice(&bytes[first..len]);
        }
        Ok(())
    }

    /// Zeroes `[addr, addr + len)`; the range may span pages (max one
    /// size class, 4 KiB, so at most two).
    fn zero_range(&mut self, addr: u64, len: u64) {
        let mut pos = addr as usize;
        let end = addr as usize + len as usize;
        while pos < end {
            let pi = pos / PAGE_SIZE as usize;
            let off = pos % PAGE_SIZE as usize;
            let n = (PAGE_SIZE as usize - off).min(end - pos);
            self.page_mut(pi)[off..off + n].fill(0);
            pos += n;
        }
    }

    /// Index into [`SIZE_CLASSES`] of the smallest class holding `len`.
    fn size_class(len: u64) -> Option<usize> {
        SIZE_CLASSES.iter().position(|c| *c >= len)
    }

    /// The size class `addr` is live under, if it is a live allocation.
    fn live_class(&self, addr: u64) -> Option<usize> {
        match self.allocs.get(&addr) {
            Some(change) => *change,
            None => self.base.allocs.get(&addr).copied(),
        }
    }

    /// Allocates `len` bytes, zeroing the returned object.
    ///
    /// Allocation is fully deterministic: the same sequence of
    /// `kmalloc`/`kfree` calls from the same snapshot yields the same
    /// addresses — the property PMC prediction relies on (§4.1).
    pub fn kmalloc(&mut self, len: u64) -> Result<u64, Fault> {
        let class = Self::size_class(len).ok_or(Fault::Oom)?;
        let size = SIZE_CLASSES[class];
        let list = &mut self.free[class];
        let addr = if let Some(a) = list.pushed.pop() {
            a
        } else if list.base_left > 0 {
            list.base_left -= 1;
            self.base.free[class][list.base_left]
        } else {
            let a = self.brk;
            let end = a.checked_add(size).ok_or(Fault::Oom)?;
            if end > STACKS_BASE {
                return Err(Fault::Oom);
            }
            self.brk = end;
            a
        };
        // Fresh objects are zeroed, like kzalloc; this keeps reads of
        // just-allocated objects deterministic.
        self.zero_range(addr, size);
        self.allocs.insert(addr, Some(class));
        self.live += 1;
        Ok(addr)
    }

    /// Returns an object of `len` bytes at `addr` to its size-class free
    /// list.
    ///
    /// The free must match a live allocation exactly: freeing an address
    /// that was never allocated (or already freed) faults, as does freeing
    /// with a length that rounds to a different size class than the
    /// original allocation. Either would corrupt the free lists — the same
    /// address filed twice hands the *same* object to two later
    /// `kmalloc`s, and a wrong-class free changes which list future
    /// allocations reuse — silently breaking the §4.1 determinism
    /// invariant PMC prediction depends on.
    pub fn kfree(&mut self, addr: u64, len: u64) -> Result<(), Fault> {
        let class = Self::size_class(len).ok_or(Fault::BadAccess { addr, len: 8 })?;
        if !(HEAP_BASE..STACKS_BASE).contains(&addr) {
            return Err(Fault::PageFault { addr });
        }
        match self.live_class(addr) {
            // Double free or never-allocated address.
            None => Err(Fault::BadAccess { addr, len: 8 }),
            // Length rounds to a different class than the allocation.
            Some(c) if c != class => Err(Fault::BadAccess { addr, len: 8 }),
            Some(_) => {
                // A base object needs a tombstone; one allocated since the
                // seal just leaves the delta again.
                if self.base.allocs.contains_key(&addr) {
                    self.allocs.insert(addr, None);
                } else {
                    self.allocs.remove(&addr);
                }
                self.free[class].pushed.push(addr);
                self.live = self.live.saturating_sub(1);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole of `GuestMem` the obvious way: private bytes (of the
    /// window the fuzz touches), private allocator books, and the sets of
    /// pages written since the last seal and ever. Cloning it copies
    /// everything.
    #[derive(Clone)]
    struct FlatModel {
        bytes: Vec<u8>,
        brk: u64,
        free: BTreeMap<u64, Vec<u64>>,
        allocs: BTreeMap<u64, u64>,
        dirty: std::collections::BTreeSet<u64>,
        written: std::collections::BTreeSet<u64>,
    }

    impl FlatModel {
        fn touch(&mut self, off: usize, len: usize) {
            for page in [off as u64 / PAGE_SIZE, (off + len - 1) as u64 / PAGE_SIZE] {
                self.dirty.insert(page);
                self.written.insert(page);
            }
        }

        fn write(&mut self, off: usize, bytes: &[u8]) {
            self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
            self.touch(off, bytes.len());
        }

        fn kmalloc(&mut self, len: u64) -> u64 {
            let class = SIZE_CLASSES.iter().copied().find(|c| *c >= len).unwrap();
            let addr = match self.free.get_mut(&class).and_then(Vec::pop) {
                Some(a) => a,
                None => {
                    self.brk += class;
                    self.brk - class
                }
            };
            let off = (addr - HEAP_BASE) as usize;
            self.bytes[off..off + class as usize].fill(0);
            self.touch(off, class as usize);
            self.allocs.insert(addr, class);
            addr
        }

        fn kfree(&mut self, addr: u64, len: u64) -> bool {
            let class = SIZE_CLASSES.iter().copied().find(|c| *c >= len).unwrap();
            if self.allocs.get(&addr) != Some(&class) {
                return false;
            }
            self.allocs.remove(&addr);
            self.free.entry(class).or_default().push(addr);
            true
        }
    }

    /// Deterministic differential fuzz of the CoW overlay and the shared
    /// allocator books against [`FlatModel`], driven by a seeded stream (the
    /// generated variant lives in `tests/cow_props.rs`). Several instances
    /// live at once — clones and deep clones of one another, each paired
    /// with a clone of its source's model — and every step reads, writes,
    /// allocates, frees or seals one of them: whatever leaks from one
    /// instance into a sibling or its parent shows up as a difference from
    /// that instance's own model. The first instance starts from a sealed
    /// base that already holds pages, so the sparse base is read, copied out
    /// of and folded from the first step.
    #[test]
    fn cow_differential_vs_flat_model() {
        const LIVE_INSTANCES: usize = 6;
        let window = (PAGE_SIZE * 12) as usize;
        let mut model = FlatModel {
            bytes: vec![0u8; window],
            brk: HEAP_BASE,
            free: BTreeMap::new(),
            allocs: BTreeMap::new(),
            dirty: Default::default(),
            written: Default::default(),
        };
        let mut sealed = GuestMem::new();
        for (off, value) in [
            (3 * PAGE_SIZE + 8, 0x1111_u64),
            (9 * PAGE_SIZE - 4, u64::MAX),
        ] {
            sealed.write(HEAP_BASE + off, 8, value).unwrap();
            model.write(off as usize, &value.to_le_bytes());
        }
        assert_eq!(sealed.kmalloc(100).unwrap(), model.kmalloc(100));
        sealed.seal();
        model.dirty.clear();
        assert_eq!((sealed.dirty_pages(), sealed.resident_pages()), (0, 4));
        let mut instances = vec![(sealed, model)];
        let mut rng = crate::rng::SplitMix64::new(0xC0FF_EE00);
        for step in 0..8_000u32 {
            let r = rng.next_u64();
            let which = (r >> 40) as usize % instances.len();
            let (cow, flat) = &mut instances[which];
            // Half the offsets hug a page boundary so straddles are common.
            let off = if r & 1 == 0 {
                (r >> 1) % (window as u64 - 8)
            } else {
                let page = 1 + (r >> 1) % 11;
                page * PAGE_SIZE - 4
            };
            let len = 1 + ((r >> 16) % 8) as u8;
            match (r >> 8) % 32 {
                0..=9 => {
                    let value = rng.next_u64();
                    cow.write(HEAP_BASE + off, len, value).unwrap();
                    flat.write(off as usize, &value.to_le_bytes()[..len as usize]);
                }
                10..=17 => {
                    let mut bytes = [0u8; 8];
                    bytes[..len as usize].copy_from_slice(
                        &flat.bytes[off as usize..off as usize + len as usize],
                    );
                    assert_eq!(
                        cow.read(HEAP_BASE + off, len).unwrap(),
                        u64::from_le_bytes(bytes),
                        "step {step}, instance {which}, off {off:#x}, len {len}"
                    );
                }
                18..=22 => {
                    // Mostly small objects, so the heap stays in the window.
                    let want = 1 + (r >> 24) % if r & 2 == 0 { 64 } else { 1024 };
                    if flat.brk + 1024 <= HEAP_BASE + window as u64 {
                        assert_eq!(
                            cow.kmalloc(want).unwrap(),
                            flat.kmalloc(want),
                            "step {step}, instance {which}, kmalloc({want})"
                        );
                    }
                }
                23..=27 => {
                    // A live object of this instance with its own length;
                    // now and then a wrong length, an address that is live
                    // in no instance (or only in a sibling), or a double
                    // free.
                    let nth = (r >> 24) as usize % flat.allocs.len().max(1);
                    let (mut addr, mut size) = flat
                        .allocs
                        .iter()
                        .nth(nth)
                        .map_or((HEAP_BASE + (off & !7), 8), |(a, c)| (*a, *c));
                    match (r >> 32) % 8 {
                        0 => size = SIZE_CLASSES[(r >> 35) as usize % 8],
                        1 => addr = HEAP_BASE + (off & !7),
                        // A double free: the object is on a free list.
                        2 => {
                            let freed = flat.free.iter().find_map(|(c, l)| Some((*l.last()?, *c)));
                            (addr, size) = freed.unwrap_or((addr, size));
                        }
                        _ => {}
                    }
                    assert_eq!(
                        cow.kfree(addr, size).is_ok(),
                        flat.kfree(addr, size),
                        "step {step}, instance {which}, kfree({addr:#x}, {size})"
                    );
                }
                28 => {
                    cow.seal();
                    flat.dirty.clear();
                }
                _ => {
                    let born = if r & 12 != 0 {
                        (cow.clone(), flat.clone())
                    } else {
                        let mut flat = flat.clone();
                        flat.dirty.clear();
                        (cow.deep_clone(), flat)
                    };
                    if instances.len() < LIVE_INSTANCES {
                        instances.push(born);
                    } else {
                        let dies = (r >> 48) as usize % LIVE_INSTANCES;
                        instances[dies] = born;
                    }
                }
            }
            let (cow, flat) = &instances[which];
            assert_eq!(cow.brk(), flat.brk, "step {step}, instance {which}");
            assert_eq!(cow.live_allocations(), flat.allocs.len() as u64, "step {step}");
            assert_eq!(cow.dirty_pages(), flat.dirty.len() as u64, "step {step}");
            // A page in both the base and the overlay is resident twice.
            let resident = cow.resident_pages();
            let written = flat.written.len() as u64;
            assert!(
                (written..=written + cow.dirty_pages()).contains(&resident),
                "step {step}, instance {which}: {resident} resident, {written} ever written"
            );
        }
        for (which, (cow, flat)) in instances.iter().enumerate() {
            for off in (0..window as u64 - 8).step_by(8) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&flat.bytes[off as usize..off as usize + 8]);
                assert_eq!(
                    cow.read(HEAP_BASE + off, 8).unwrap(),
                    u64::from_le_bytes(bytes),
                    "final sweep of instance {which} at {off:#x}"
                );
            }
        }
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        for len in 1u8..=8 {
            let val = 0x1122_3344_5566_7788u64 & (u64::MAX >> (64 - 8 * u32::from(len)));
            m.write(a, len, val).unwrap();
            assert_eq!(m.read(a, len).unwrap(), val, "width {len}");
        }
    }

    #[test]
    fn little_endian_overlap_semantics() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(m.read(a, 1).unwrap(), 0x01);
        assert_eq!(m.read(a + 2, 2).unwrap(), 0x0403);
        assert_eq!(m.read(a + 4, 4).unwrap(), 0x0807_0605);
    }

    #[test]
    fn page_straddling_access_round_trips() {
        let mut m = GuestMem::new();
        // 3 bytes before a page boundary, 5 after.
        let addr = HEAP_BASE + PAGE_SIZE - 3;
        m.write(addr, 8, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(m.read(addr, 8).unwrap(), 0x0807_0605_0403_0201);
        assert_eq!(m.read(addr + 3, 1).unwrap(), 0x04);
        // Both halves are dirty now.
        assert_eq!(m.dirty_pages(), 2);
    }

    #[test]
    fn null_guard_faults() {
        let m = GuestMem::new();
        assert!(matches!(m.read(0, 8), Err(Fault::NullDeref { .. })));
        assert!(matches!(m.read(8, 4), Err(Fault::NullDeref { .. })));
        assert!(matches!(m.read(0x2000, 4), Err(Fault::PageFault { .. })));
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = GuestMem::new();
        assert!(matches!(
            m.read(GUEST_MEM_SIZE - 4, 8),
            Err(Fault::PageFault { .. })
        ));
        assert!(matches!(m.read(u64::MAX, 8), Err(Fault::PageFault { .. })));
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(16).unwrap();
        assert!(matches!(m.read(a, 0), Err(Fault::BadAccess { .. })));
        assert!(matches!(m.write(a, 9, 0), Err(Fault::BadAccess { .. })));
    }

    #[test]
    fn allocation_is_deterministic() {
        let run = || {
            let mut m = GuestMem::new();
            let a = m.kmalloc(24).unwrap();
            let b = m.kmalloc(24).unwrap();
            m.kfree(a, 24).unwrap();
            let c = m.kmalloc(17).unwrap();
            (a, b, c)
        };
        assert_eq!(run(), run());
        let (a, _b, c) = run();
        // Freed object is reused LIFO within its size class.
        assert_eq!(a, c);
    }

    #[test]
    fn allocations_are_zeroed_on_reuse() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, u64::MAX).unwrap();
        m.kfree(a, 8).unwrap();
        let b = m.kmalloc(8).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.read(b, 8).unwrap(), 0);
    }

    #[test]
    fn double_free_faults_and_preserves_determinism() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(32).unwrap();
        m.kfree(a, 32).unwrap();
        // The second free of the same object must fault instead of filing
        // the address twice (which would hand the same object to two later
        // kmallocs).
        assert!(matches!(m.kfree(a, 32), Err(Fault::BadAccess { .. })));
        let b = m.kmalloc(32).unwrap();
        let c = m.kmalloc(32).unwrap();
        assert_eq!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn wild_free_faults() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(64).unwrap();
        // In-heap but never handed out by kmalloc.
        assert!(matches!(m.kfree(a + 8, 64), Err(Fault::BadAccess { .. })));
        // Outside the heap entirely.
        assert!(matches!(m.kfree(stack_base(0), 64), Err(Fault::PageFault { .. })));
        assert_eq!(m.live_allocations(), 1);
    }

    #[test]
    fn wrong_size_class_free_faults() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(100).unwrap(); // class 128
        // 64 rounds to class 64 ≠ 128: filing under the wrong list would
        // corrupt reuse determinism for both classes.
        assert!(matches!(m.kfree(a, 64), Err(Fault::BadAccess { .. })));
        // Any length rounding to the allocation's class is fine.
        m.kfree(a, 128).unwrap();
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 7).unwrap();
        let snap = m.clone();
        m.write(a, 8, 9).unwrap();
        assert_eq!(snap.read(a, 8).unwrap(), 7);
        assert_eq!(m.read(a, 8).unwrap(), 9);
    }

    #[test]
    fn sealed_clone_shares_pages_until_written() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(8).unwrap();
        m.write(a, 8, 7).unwrap();
        m.seal();
        assert_eq!(m.dirty_pages(), 0);
        let mut trial = m.clone();
        assert_eq!(trial.dirty_pages(), 0);
        assert_eq!(trial.read(a, 8).unwrap(), 7);
        trial.write(a, 8, 9).unwrap();
        assert_eq!(trial.dirty_pages(), 1);
        // The sealed original never sees trial writes.
        assert_eq!(m.read(a, 8).unwrap(), 7);
    }

    #[test]
    fn untouched_memory_is_not_resident() {
        let m = GuestMem::new();
        assert_eq!(m.read(STACKS_BASE, 8).unwrap(), 0);
        assert_eq!(m.read(GUEST_MEM_SIZE - 1, 1).unwrap(), 0);
        assert_eq!(m.read(HEAP_BASE + PAGE_SIZE - 3, 8).unwrap(), 0);
        assert_eq!((m.resident_pages(), m.dirty_pages()), (0, 0));
        // Nor does cloning, sealing or deep-cloning nothing create any.
        let mut c = m.clone();
        c.seal();
        assert_eq!(c.deep_clone().resident_pages(), 0);
    }

    #[test]
    fn sealed_stack_page_survives_and_its_neighbours_read_zero() {
        let mut boot = GuestMem::new();
        let obj = boot.kmalloc(64).unwrap();
        boot.seal();
        let mut m = boot.clone();
        let sp = stack_base(2) + STACK_SIZE - 8;
        m.write(sp, 8, 0xFEED_F00D).unwrap();
        assert_eq!((m.dirty_pages(), m.resident_pages()), (1, 2));
        m.seal();
        assert_eq!((m.dirty_pages(), m.resident_pages()), (0, 2));
        for snap in [m.clone(), m.deep_clone()] {
            assert_eq!(snap.dirty_pages(), 0);
            assert_eq!(snap.read(sp, 8).unwrap(), 0xFEED_F00D);
            // Same chunk, the page below; the stacks on either side; the
            // heap object sealed earlier.
            assert_eq!(snap.read(sp - PAGE_SIZE, 8).unwrap(), 0);
            assert_eq!(snap.read(stack_base(1), 8).unwrap(), 0);
            assert_eq!(snap.read(stack_base(3), 8).unwrap(), 0);
            assert_eq!(snap.read(obj, 8).unwrap(), 0);
            assert_eq!(snap.resident_pages(), 2);
        }
        // The boot image the clone came from never saw the write.
        assert_eq!(boot.read(sp, 8).unwrap(), 0);
        assert_eq!(boot.resident_pages(), 1);
    }

    #[test]
    fn deep_clone_matches_cow_clone() {
        let mut m = GuestMem::new();
        let a = m.kmalloc(24).unwrap();
        m.write(a, 8, 0xDEAD_BEEF).unwrap();
        m.seal();
        let mut cow = m.clone();
        let mut deep = m.deep_clone();
        // Identical semantics: same reads, same future allocations.
        assert_eq!(cow.read(a, 8).unwrap(), deep.read(a, 8).unwrap());
        assert_eq!(cow.kmalloc(24).unwrap(), deep.kmalloc(24).unwrap());
        cow.kfree(a, 24).unwrap();
        deep.kfree(a, 24).unwrap();
        assert_eq!(cow.kmalloc(20).unwrap(), deep.kmalloc(20).unwrap());
    }

    #[test]
    fn stack_mask_formula_matches_paper() {
        let tid = 1;
        let base = stack_base(tid);
        let sp = base + 0x123;
        assert_eq!(stack_range_of(sp), (base, base + STACK_SIZE));
        assert!(is_stack_addr(sp));
        assert!(!is_stack_addr(HEAP_BASE));
    }

    #[test]
    fn oom_on_giant_allocation() {
        let mut m = GuestMem::new();
        assert!(matches!(m.kmalloc(1 << 20), Err(Fault::Oom)));
    }

    #[test]
    fn heap_exhaustion_is_oom_not_panic() {
        let mut m = GuestMem::new();
        let mut n = 0u64;
        loop {
            match m.kmalloc(4096) {
                Ok(_) => n += 1,
                Err(Fault::Oom) => break,
                Err(other) => panic!("unexpected fault {other:?}"),
            }
        }
        assert!(n > 100, "expected many 4 KiB allocations, got {n}");
    }
}
