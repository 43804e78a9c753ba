//! PMC identification — Algorithm 1 of the paper (§4.2).
//!
//! All profiled shared accesses are indexed by memory range in an ordered
//! nested index (outer order: start address; nested: range length; then
//! instruction — §4.2.1). Every (write, read) pair with overlapping ranges
//! whose values *differ over the overlap* is a potential memory
//! communication. A PMC is keyed by the features of both accesses
//! (instruction, memory range, value); multiple test pairs may map to the
//! same PMC key (Algorithm 1 line 15).
//!
//! Whether a write and a read communicate depends on those features alone,
//! never on the tests that performed the accesses, so the join works on
//! *sides*: all deduplicated records with the same features, carrying their
//! tests in ingest order. One scan pairs a read side with the write sides in
//! its window and one fold per (write side, read side) creates or finds the
//! PMC and fills its capped pair list, read test major, write test minor.
//! That is the order a record-by-record walk produces: every record of a
//! read side matches the same write sides, so the side's first record
//! creates all of its PMCs, later records only append pairs, and one PMC's
//! pair list does not depend on another's. The cost is one fold per PMC
//! plus the pairs stored, not one per pair of records — the per-record walk
//! is quadratic in the tests that share a side, and is kept only as the
//! reference the unit tests compare this join against.
//!
//! Identification is organized around [`JoinState`], the persistent form of
//! Algorithm 1's index: the write and read sides plus the folded PMC set.
//! Three execution modes share one scan and one fold:
//!
//! * **Batch** ([`identify`]) — the reference path: every profile ingested,
//!   then every read joined against the full write index in read-major,
//!   address-minor order. This order *is* the specification; the other two
//!   modes reproduce or approximate it.
//! * **Sharded parallel** ([`identify_sharded`]) — the write index is
//!   partitioned into contiguous address ranges balanced by record count,
//!   each shard's write×read join runs on its own worker, and per-read match
//!   lists are merged back in shard (= address) order before the sequential
//!   fold assigns ids. The result is bit-identical to the batch path because
//!   concatenating the per-shard scans of one read in shard order is exactly
//!   the batch path's single ordered range scan of that read.
//! * **Incremental** ([`JoinState::resume`] + [`JoinState::add_profiles`]) —
//!   when a corpus grows, only the new profiles are joined: the records read
//!   sides already held × the batch's writes first, then the batch's read
//!   records × the full index. This yields the same PMC universe (same keys,
//!   same df flags, same pair sets up to the per-PMC pair cap) as a
//!   from-scratch rebuild, though PMC ids may be permuted because id
//!   assignment order follows join order.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

use sb_vmm::access::{range_overlap, AccessKind};
use sb_vmm::sched::HintAccess;
use sb_vmm::site::{BuildStepHasher, Site};

use crate::profile::SeqProfile;

/// One side (read or write) of a PMC: the features Algorithm 1 collects.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SideKey {
    /// Instruction identity (`ins` in Table 1).
    pub ins: Site,
    /// Memory-range start (`addr`).
    pub addr: u64,
    /// Memory-range length in bytes (`byte`).
    pub len: u8,
    /// Value read/written (`value`), projected to the access's own range.
    pub value: u64,
}

/// A PMC key: the write side and the read side.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PmcKey {
    /// The writer's access features.
    pub w: SideKey,
    /// The reader's access features.
    pub r: SideKey,
}

/// Identifier of a PMC within a [`PmcSet`].
pub type PmcId = u32;

/// A PMC plus the sequential-test pairs that exhibit it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pmc {
    /// Feature key.
    pub key: PmcKey,
    /// True when the read access is the first of a double fetch
    /// (`df_leader`, §4.3).
    pub df_leader: bool,
    /// (writer test, reader test) pairs exhibiting this PMC, deduplicated.
    pub pairs: Vec<(u32, u32)>,
}

impl Pmc {
    /// The scheduler hint patterns for this PMC (write side, read side).
    pub fn hints(&self) -> [HintAccess; 2] {
        [
            HintAccess {
                site: self.key.w.ins,
                kind: AccessKind::Write,
                addr: self.key.w.addr,
                len: self.key.w.len,
            },
            HintAccess {
                site: self.key.r.ins,
                kind: AccessKind::Read,
                addr: self.key.r.addr,
                len: self.key.r.len,
            },
        ]
    }
}

/// The identified PMC universe for one corpus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PmcSet {
    /// All PMCs; a [`PmcId`] is an index into this vector.
    pub pmcs: Vec<Pmc>,
}

impl PmcSet {
    /// Number of identified PMCs.
    pub fn len(&self) -> usize {
        self.pmcs.len()
    }

    /// True if no PMCs were identified.
    pub fn is_empty(&self) -> bool {
        self.pmcs.is_empty()
    }

    /// The PMC with id `id`.
    pub fn get(&self, id: PmcId) -> &Pmc {
        &self.pmcs[id as usize]
    }
}

/// One side of the join: every deduplicated access record with the same
/// features, grouped. Whether a write and a read communicate depends on the
/// two feature tuples alone, never on the tests that performed them, so the
/// join scans and folds per side and only the pair lists see tests.
#[derive(Clone, Debug)]
struct Side {
    key: SideKey,
    /// Some record of this (read) side is the first read of a double fetch.
    df_leader: bool,
    /// The test of each record, in ingest order. A df-leader read escapes
    /// the per-test dedup, so a test can appear more than once.
    tests: Vec<u32>,
}

impl Side {
    fn new(key: SideKey) -> Self {
        Side {
            key,
            df_leader: false,
            tests: Vec::new(),
        }
    }
}

/// The ordered nested write index: start address → range length → sides in
/// first-occurrence order (§4.2.1).
type WriteIndex = BTreeMap<u64, BTreeMap<u8, Vec<Side>>>;

/// The write side `key` in the index, filed on first use at the end of its
/// `(addr, len)` bucket. A bucket holds the distinct (instruction, value)
/// pairs seen at one range — a handful — so the probe is a short scan.
fn write_side(index: &mut WriteIndex, key: SideKey) -> &mut Side {
    let bucket = index.entry(key.addr).or_default().entry(key.len).or_default();
    let at = bucket.iter().position(|side| side.key == key).unwrap_or_else(|| {
        bucket.push(Side::new(key));
        bucket.len() - 1
    });
    &mut bucket[at]
}

/// Limits stored pairs per PMC; the paper stores all, but popular PMCs
/// (e.g. allocator counters) would otherwise dominate memory without
/// adding information — any pair is an equally valid exemplar source.
const MAX_PAIRS_PER_PMC: usize = 32;

/// The trace indices (into `accesses`, ascending) of `profile`'s df_leader
/// reads: a read followed by a later read of the same range by a
/// *different* instruction, with no intervening write to that range and the
/// same value (§4.3, S-CH-DOUBLE).
pub fn df_leaders(profile: &SeqProfile) -> Vec<usize> {
    let mut scratch = DfScratch::default();
    scratch.mark(profile);
    let leaders = scratch.leader.iter().enumerate();
    leaders.filter_map(|(i, is)| is.then_some(i)).collect()
}

/// The working memory of the df_leader pass, kept across the profiles of a
/// batch so that a ~27-access profile costs no allocation.
#[derive(Default)]
struct DfScratch {
    /// `leader[i]`: access `i` of the profile last marked is a df_leader.
    leader: Vec<bool>,
    /// Per exact range with no write since: `(addr, len, index, site,
    /// value)` of its last read, looked through linearly — the longest
    /// profile of a 250-program corpus reads 60 distinct ranges, the median
    /// one a handful, and a write clears what it overlaps.
    last_read: Vec<(u64, u8, usize, Site, u64)>,
}

impl DfScratch {
    fn mark(&mut self, profile: &SeqProfile) {
        let DfScratch { leader, last_read } = self;
        leader.clear();
        leader.resize(profile.accesses.len(), false);
        last_read.clear();
        for (i, a) in profile.accesses.iter().enumerate() {
            match a.kind {
                // A write invalidates pending first-reads on any
                // overlapping range.
                AccessKind::Write => last_read.retain(|(addr, len, ..)| {
                    range_overlap(*addr, *len, a.addr, a.len).is_none()
                }),
                AccessKind::Read => {
                    let seen = (last_read.iter_mut()).find(|r| (r.0, r.1) == (a.addr, a.len));
                    match seen {
                        Some((_, _, first, site, value)) => {
                            leader[*first] |= *site != a.site && *value == a.value;
                            (*first, *site, *value) = (i, a.site, a.value);
                        }
                        None => last_read.push((a.addr, a.len, i, a.site, a.value)),
                    }
                }
            }
        }
    }
}

/// How the write×read join of one [`JoinState::add_profiles`] call runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IdentifyOpts {
    /// Address-range shards the write index is partitioned into; 1 runs the
    /// join inline on the calling thread.
    pub shards: usize,
    /// Worker threads the shard jobs fan out across (scoped threads).
    pub workers: usize,
}

impl Default for IdentifyOpts {
    fn default() -> Self {
        IdentifyOpts {
            shards: 1,
            workers: 1,
        }
    }
}

impl IdentifyOpts {
    /// Sharded-parallel options: `shards` address shards on `workers`
    /// threads.
    pub fn sharded(shards: usize, workers: usize) -> Self {
        IdentifyOpts {
            shards: shards.max(1),
            workers: workers.max(1),
        }
    }
}

/// Work accounting from one `add_profiles` join, for shard-skew reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JoinReport {
    /// Candidate (write, read) matches folded per shard. Length equals the
    /// shard count actually used (1 for the inline path).
    pub shard_matches: Vec<u64>,
}

impl JoinReport {
    /// Total matches folded across all shards.
    pub fn matches(&self) -> u64 {
        self.shard_matches.iter().sum()
    }

    /// Load skew: max shard load over mean shard load (1.0 = perfectly
    /// balanced; 0.0 when no work was done).
    pub fn skew(&self) -> f64 {
        let total = self.matches();
        if total == 0 || self.shard_matches.is_empty() {
            return 0.0;
        }
        let max = *self.shard_matches.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.shard_matches.len() as f64;
        max / mean
    }

    fn absorb(&mut self, other: JoinReport) {
        if self.shard_matches.len() < other.shard_matches.len() {
            self.shard_matches.resize(other.shard_matches.len(), 0);
        }
        for (slot, m) in other.shard_matches.into_iter().enumerate() {
            self.shard_matches[slot] += m;
        }
    }
}

/// Algorithm 1's state in persistent form: the deduplicated write and read
/// sides, the ordered nested write index, and the folded PMC set.
///
/// Supports growing a PMC universe across batches: `add_profiles` ingests a
/// batch and joins only what is new (existing reads × new writes, then new
/// reads × the full write index), so re-indexing after corpus growth costs
/// the new joins, not a rebuild.
#[derive(Clone, Debug, Default)]
pub struct JoinState {
    writes: WriteIndex,
    /// Read sides in first-occurrence order.
    reads: Vec<Side>,
    /// Position in `reads` of each read side.
    read_pos: HashMap<SideKey, usize, BuildStepHasher>,
    seen_w: SeenRecords,
    seen_r: SeenRecords,
    set: PmcSet,
    index: PmcIndex,
}

/// The (test, instruction, address, length, value) records already filed.
/// Like every hashed container of the join it is keyed by sites, guest
/// addresses and corpus indices — all from inside the program — and uses
/// the in-crate hasher.
type SeenRecords = HashSet<(u32, u64, u64, u8, u64), BuildStepHasher>;

/// The id of each PMC key in the folded set.
type PmcIndex = HashMap<PmcKey, PmcId, BuildStepHasher>;

/// A read side's position in [`JoinState::reads`] and the records of it
/// (a range of its `tests`) that one join pass pairs up.
type ReadWork = (usize, Range<usize>);

impl JoinState {
    /// An empty state; `add_profiles` over everything reproduces
    /// [`identify`] exactly.
    pub fn new() -> Self {
        JoinState::default()
    }

    /// The PMC set folded so far.
    pub fn set(&self) -> &PmcSet {
        &self.set
    }

    /// Consumes the state, returning the folded PMC set.
    pub fn into_set(self) -> PmcSet {
        self.set
    }

    /// Number of deduplicated read records indexed so far.
    pub fn reads_indexed(&self) -> usize {
        self.reads.iter().map(|r| r.tests.len()).sum()
    }

    /// Rebuilds a state from profiles that were *already joined* into `set`
    /// (e.g. loaded from a persistent store), without re-running the join.
    /// Only ingest work (linear in total accesses) is paid; subsequent
    /// `add_profiles` calls join new batches against this index.
    pub fn resume(profiles: &[SeqProfile], set: PmcSet) -> Self {
        let mut st = JoinState::new();
        let mut batch = WriteIndex::new();
        st.ingest(profiles, &mut batch);
        merge_writes(&mut st.writes, batch);
        st.index = set
            .pmcs
            .iter()
            .enumerate()
            .map(|(id, p)| (p.key, id as PmcId))
            .collect();
        st.set = set;
        st
    }

    /// Ingests a batch (Algorithm 1 lines 1–5): deduplicates records per
    /// test and files them under their side — reads in `self.reads`, writes
    /// in `batch_writes`, leaving `self.writes` untouched so the caller can
    /// join old reads against only the new writes.
    fn ingest(&mut self, profiles: &[SeqProfile], batch_writes: &mut WriteIndex) {
        // Sized once for the batch, as if no record repeated.
        let accesses = || profiles.iter().flat_map(|p| &p.accesses);
        let writes = accesses().filter(|a| a.kind == AccessKind::Write).count();
        let reads = accesses().count() - writes;
        self.seen_w.reserve(writes);
        self.seen_r.reserve(reads);
        let mut df = DfScratch::default();
        for p in profiles {
            df.mark(p);
            for (a, df) in p.accesses.iter().zip(&df.leader) {
                let sig = (p.test, a.site.0, a.addr, a.len, a.value);
                let key = SideKey {
                    ins: a.site,
                    addr: a.addr,
                    len: a.len,
                    value: a.value,
                };
                match a.kind {
                    AccessKind::Write => {
                        if self.seen_w.insert(sig) {
                            write_side(batch_writes, key).tests.push(p.test);
                        }
                    }
                    AccessKind::Read => {
                        // A df_leader read and a plain read with the same
                        // signature must both survive, so a leader is kept
                        // whether or not its signature was seen.
                        if self.seen_r.insert(sig) || *df {
                            let reads = &mut self.reads;
                            let pos = *self.read_pos.entry(key).or_insert_with(|| {
                                reads.push(Side::new(key));
                                reads.len() - 1
                            });
                            reads[pos].df_leader |= *df;
                            reads[pos].tests.push(p.test);
                        }
                    }
                }
            }
        }
    }

    /// Ingests `profiles` and joins what is new. On an empty state this is
    /// Algorithm 1 verbatim; on a resumed/grown state it is the incremental
    /// re-index (old reads × new writes, then new reads × all writes).
    pub fn add_profiles(&mut self, profiles: &[SeqProfile], opts: &IdentifyOpts) -> JoinReport {
        // Records each read side held before this batch.
        let before: Vec<usize> = self.reads.iter().map(|r| r.tests.len()).collect();
        let mut batch_writes = WriteIndex::new();
        self.ingest(profiles, &mut batch_writes);
        let mut report = JoinReport::default();
        // Phase 1: read records of earlier batches × this batch's writes.
        if !before.is_empty() && !batch_writes.is_empty() {
            let old: Vec<ReadWork> = before.iter().map(|n| 0..*n).enumerate().collect();
            report.absorb(self.join(&old, &batch_writes, opts));
        }
        merge_writes(&mut self.writes, batch_writes);
        // Phase 2: this batch's read records × the full write index. A side
        // an earlier batch knew comes before every new one here, not where
        // its first new record stood; it has met every write side by now
        // (in that batch, or in phase 1), so it creates no PMC and its
        // place in the order is free.
        let new: Vec<ReadWork> = (self.reads.iter().enumerate())
            .map(|(pos, r)| (pos, before.get(pos).copied().unwrap_or(0)..r.tests.len()))
            .filter(|(_, recs)| !recs.is_empty())
            .collect();
        if !new.is_empty() && !self.writes.is_empty() {
            let writes = std::mem::take(&mut self.writes);
            report.absorb(self.join(&new, &writes, opts));
            self.writes = writes;
        }
        report
    }

    /// Joins the read records in `work` against `writes`, folding matches
    /// into the PMC set in read-major, write-address-minor order.
    ///
    /// Read-major by *side*: every record of a read side matches the same
    /// write sides, so the side's first record creates all of its PMCs (the
    /// write index is complete before a pass starts) and later records only
    /// append pairs — to pair lists that are independent of one another.
    /// Walking side by side therefore numbers PMCs and orders pairs exactly
    /// as walking record by record would.
    fn join(&mut self, work: &[ReadWork], writes: &WriteIndex, opts: &IdentifyOpts) -> JoinReport {
        let JoinState {
            reads, set, index, ..
        } = self;
        if opts.shards <= 1 {
            // Inline reference path: fold as the scan produces matches.
            let mut matches = 0u64;
            for (pos, recs) in work {
                let r = &reads[*pos];
                scan_read(writes, &r.key, 0, u64::MAX, |w| {
                    matches += fold_match(set, index, w, r, recs.clone());
                });
            }
            return JoinReport {
                shard_matches: vec![matches],
            };
        }

        let bounds = shard_bounds(writes, opts.shards);
        let reads = &*reads;
        // Each shard scans every read's window clipped to its own address
        // interval; within a shard, matches come out read-major and
        // address-minor, exactly like the reference scan restricted to that
        // interval.
        let shard_matches: Vec<Vec<(usize, &Side)>> = crate::pool::map_jobs(
            &bounds,
            opts.workers,
            || (),
            |(), &(shard_lo, shard_hi)| {
                let mut out = Vec::new();
                for (pos, _) in work {
                    scan_read(writes, &reads[*pos].key, shard_lo, shard_hi, |w| {
                        out.push((*pos, w));
                    });
                }
                out
            },
        );
        // Merge: for each read in order, drain each shard's matches for that
        // read in shard (= address) order. Concatenating the clipped scans
        // in address order reconstructs the reference scan order, so the
        // fold below assigns identical PMC ids and pair lists.
        let mut report = JoinReport {
            shard_matches: vec![0; bounds.len()],
        };
        let mut pending: Vec<_> = shard_matches
            .iter()
            .map(|ms| ms.iter().peekable())
            .collect();
        for (pos, recs) in work {
            for (s, ms) in pending.iter_mut().enumerate() {
                while let Some((_, w)) = ms.next_if(|(p, _)| p == pos) {
                    report.shard_matches[s] +=
                        fold_match(set, index, w, &reads[*pos], recs.clone());
                }
            }
        }
        report
    }
}

/// Folds one candidate (write side, read side) match into the PMC set: key
/// build, id assignment, df propagation, then the capped, deduplicated
/// pairs of the read records `recs` with every write record (lines 11–15).
/// Returns how many record pairs that is, stored or not.
fn fold_match(
    set: &mut PmcSet,
    index: &mut PmcIndex,
    w: &Side,
    r: &Side,
    recs: Range<usize>,
) -> u64 {
    let key = PmcKey { w: w.key, r: r.key };
    let folded = w.tests.len() * recs.len();
    let id = *index.entry(key).or_insert_with(|| {
        set.pmcs.push(Pmc {
            key,
            df_leader: r.df_leader,
            // Most PMCs are folded once: sized for this fold's pairs.
            pairs: Vec::with_capacity(folded.min(MAX_PAIRS_PER_PMC)),
        });
        (set.pmcs.len() - 1) as PmcId
    });
    let pmc = &mut set.pmcs[id as usize];
    pmc.df_leader |= r.df_leader;
    // Pairs are only ever stored under the cap, so the stored list is the
    // whole of what has been seen.
    'cap: for rt in &r.tests[recs] {
        for wt in &w.tests {
            if pmc.pairs.len() >= MAX_PAIRS_PER_PMC {
                break 'cap;
            }
            if !pmc.pairs.contains(&(*wt, *rt)) {
                pmc.pairs.push((*wt, *rt));
            }
        }
    }
    folded as u64
}

/// Scans the ordered nested write index for sides that communicate with
/// read side `r`, clipped to write start addresses in `[shard_lo, shard_hi)`
/// — the single scan implementation shared by the inline and sharded paths
/// (lines 6–10).
fn scan_read<'w>(
    writes: &'w WriteIndex,
    r: &SideKey,
    shard_lo: u64,
    shard_hi: u64,
    mut emit: impl FnMut(&'w Side),
) {
    let lo = r.addr.saturating_sub(7).max(shard_lo);
    // Exclusive upper bound on write starts.
    let hi = r.addr.saturating_add(u64::from(r.len)).min(shard_hi);
    if lo >= hi {
        return;
    }
    for (_wa, by_len) in writes.range(lo..hi) {
        for w in by_len.values().flatten() {
            let Some((ostart, olen)) = range_overlap(w.key.addr, w.key.len, r.addr, r.len) else {
                continue;
            };
            // project_value (lines 9–10): compare over the overlap.
            if project(w.key.value, w.key.addr, ostart, olen)
                == project(r.value, r.addr, ostart, olen)
            {
                continue;
            }
            emit(w);
        }
    }
}

/// Appends a batch's write records into the accumulated index, preserving
/// first-occurrence order of sides within each (addr, len) bucket and
/// ingest order of tests within each side.
fn merge_writes(into: &mut WriteIndex, batch: WriteIndex) {
    if into.is_empty() {
        // The first batch of a state, i.e. every from-scratch identify.
        *into = batch;
        return;
    }
    for side in batch.into_values().flat_map(BTreeMap::into_values).flatten() {
        write_side(into, side.key).tests.extend(side.tests);
    }
}

/// Records filed under one start address of the write index.
fn records_at(by_len: &BTreeMap<u8, Vec<Side>>) -> usize {
    by_len.values().flatten().map(|w| w.tests.len()).sum()
}

/// Partitions the write index's start addresses into up to `shards`
/// contiguous half-open intervals `[lo, hi)`, balanced by record count.
/// The final interval's `hi` is `u64::MAX`, which is unreachable as a write
/// start in practice (an access's range would overflow the address space).
fn shard_bounds(writes: &WriteIndex, shards: usize) -> Vec<(u64, u64)> {
    let total: usize = writes.values().map(records_at).sum();
    if total == 0 {
        return vec![(0, u64::MAX)];
    }
    let per_shard = total.div_ceil(shards.max(1));
    let mut bounds: Vec<(u64, u64)> = Vec::new();
    let mut lo = 0u64;
    let mut load = 0usize;
    for (addr, by_len) in writes {
        load += records_at(by_len);
        if load >= per_shard && bounds.len() + 1 < shards {
            // Split *after* this address: its records stay in this shard.
            bounds.push((lo, addr.saturating_add(1)));
            lo = addr.saturating_add(1);
            load = 0;
        }
    }
    bounds.push((lo, u64::MAX));
    bounds
}

/// Runs Algorithm 1 over the profiles, producing the PMC set — the
/// single-threaded reference path.
pub fn identify(profiles: &[SeqProfile]) -> PmcSet {
    let mut st = JoinState::new();
    st.add_profiles(profiles, &IdentifyOpts::default());
    st.into_set()
}

/// [`identify`], emitting the deduplicated read-index size
/// (`pmc.reads_indexed`) to `tracer` when the join completes.
pub fn identify_traced(profiles: &[SeqProfile], tracer: &sb_obs::Tracer) -> PmcSet {
    let mut st = JoinState::new();
    st.add_profiles(profiles, &IdentifyOpts::default());
    tracer.count(sb_obs::keys::PMC_READS_INDEXED, st.reads_indexed() as u64);
    st.into_set()
}

/// Runs Algorithm 1 with the write×read join sharded by address range
/// across `workers` threads. The result is bit-identical to [`identify`]
/// (same PMC ids, keys, df flags, and pair lists) — property-tested in
/// `tests/shard_equivalence.rs`.
pub fn identify_sharded(profiles: &[SeqProfile], shards: usize, workers: usize) -> PmcSet {
    let mut st = JoinState::new();
    st.add_profiles(profiles, &IdentifyOpts::sharded(shards, workers));
    st.into_set()
}

/// Projects `value` (stored at `base`) onto the `len`-byte window starting
/// at `start` (little-endian), mirroring `Access::project_value`.
fn project(value: u64, base: u64, start: u64, len: u8) -> u64 {
    let shift = (start - base) * 8;
    let raw = value >> shift;
    if len >= 8 {
        raw
    } else {
        raw & ((1u64 << (u64::from(len) * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::access::Access;
    use sb_vmm::site;

    fn prof(test: u32, accesses: Vec<(&str, AccessKind, u64, u8, u64)>) -> SeqProfile {
        SeqProfile {
            test,
            accesses: accesses
                .into_iter()
                .enumerate()
                .map(|(i, (name, kind, addr, len, value))| Access {
                    seq: i as u64,
                    thread: 0,
                    site: site!(name),
                    kind,
                    addr,
                    len,
                    value,
                    atomic: false,
                    locks: vec![].into(),
                    rcu_depth: 0,
                })
                .collect(),
            steps: 0,
        }
    }

    use AccessKind::{Read, Write};

    /// `df_leaders` as it was while it built a hash set and a hash map per
    /// profile: the definition [`DfScratch::mark`] is compared against.
    fn df_leaders_reference(profile: &SeqProfile) -> HashSet<usize> {
        let mut leaders = HashSet::new();
        // Per exact range: (index, site, value) of the last read, and whether a
        // write intervened since.
        let mut last_read: HashMap<(u64, u8), (usize, Site, u64)> = HashMap::new();
        for (i, a) in profile.accesses.iter().enumerate() {
            match a.kind {
                AccessKind::Write => {
                    // A write invalidates pending first-reads on any
                    // overlapping range.
                    last_read.retain(|(addr, len), _| {
                        range_overlap(*addr, *len, a.addr, a.len).is_none()
                    });
                }
                AccessKind::Read => {
                    let key = (a.addr, a.len);
                    if let Some((first_idx, first_site, first_val)) = last_read.get(&key).copied() {
                        if first_site != a.site && first_val == a.value {
                            leaders.insert(first_idx);
                        }
                    }
                    last_read.insert(key, (i, a.site, a.value));
                }
            }
        }
        leaders
    }

    /// The join as it was before sides: one record per (test, access
    /// signature), every read record scanned against every write record,
    /// one fold per matching record pair with a per-PMC `pair_seen` set.
    /// Kept verbatim as the specification the side-grouped join is compared
    /// against — PMC ids, df flags, pair order and `JoinReport` alike.
    mod reference {
        use super::super::*;

        #[derive(Copy, Clone, Debug)]
        struct Rec {
            test: u32,
            ins: Site,
            addr: u64,
            len: u8,
            value: u64,
            df_leader: bool,
        }

        type WriteIndex = BTreeMap<u64, BTreeMap<u8, Vec<Rec>>>;

        #[derive(Clone, Debug, Default)]
        pub struct JoinState {
            writes: WriteIndex,
            reads: Vec<Rec>,
            seen_w: HashSet<(u32, u64, u64, u8, u64)>,
            seen_r: HashSet<(u32, u64, u64, u8, u64)>,
            set: PmcSet,
            index: HashMap<PmcKey, PmcId>,
            pair_seen: HashMap<PmcId, HashSet<(u32, u32)>>,
        }

        impl JoinState {
            pub fn set(&self) -> &PmcSet {
                &self.set
            }

            pub fn reads_indexed(&self) -> usize {
                self.reads.len()
            }

            pub fn resume(profiles: &[SeqProfile], set: PmcSet) -> Self {
                let mut st = JoinState::default();
                let mut batch = WriteIndex::new();
                st.ingest(profiles, &mut batch);
                merge_writes(&mut st.writes, batch);
                st.index = (set.pmcs.iter().enumerate())
                    .map(|(id, p)| (p.key, id as PmcId))
                    .collect();
                st.pair_seen = (set.pmcs.iter().enumerate())
                    .map(|(id, p)| (id as PmcId, p.pairs.iter().copied().collect()))
                    .collect();
                st.set = set;
                st
            }

            fn ingest(&mut self, profiles: &[SeqProfile], batch_writes: &mut WriteIndex) -> usize {
                let first_new_read = self.reads.len();
                for p in profiles {
                    let leaders = super::df_leaders_reference(p);
                    for (i, a) in p.accesses.iter().enumerate() {
                        let sig = (p.test, a.site.0, a.addr, a.len, a.value);
                        let rec = |df_leader| Rec {
                            test: p.test,
                            ins: a.site,
                            addr: a.addr,
                            len: a.len,
                            value: a.value,
                            df_leader,
                        };
                        match a.kind {
                            AccessKind::Write => {
                                if self.seen_w.insert(sig) {
                                    let by_len = batch_writes.entry(a.addr).or_default();
                                    by_len.entry(a.len).or_default().push(rec(false));
                                }
                            }
                            AccessKind::Read => {
                                let df = leaders.contains(&i);
                                if self.seen_r.insert(sig) || df {
                                    self.reads.push(rec(df));
                                }
                            }
                        }
                    }
                }
                first_new_read
            }

            pub fn add_profiles(
                &mut self,
                profiles: &[SeqProfile],
                opts: &IdentifyOpts,
            ) -> JoinReport {
                let mut batch_writes = WriteIndex::new();
                let first_new_read = self.ingest(profiles, &mut batch_writes);
                let mut report = JoinReport::default();
                if first_new_read > 0 && !batch_writes.is_empty() {
                    report.absorb(self.join(0..first_new_read, &batch_writes, opts));
                }
                merge_writes(&mut self.writes, batch_writes);
                if first_new_read < self.reads.len() && !self.writes.is_empty() {
                    let writes = std::mem::take(&mut self.writes);
                    report.absorb(self.join(first_new_read..self.reads.len(), &writes, opts));
                    self.writes = writes;
                }
                report
            }

            fn join(
                &mut self,
                read_range: Range<usize>,
                writes: &WriteIndex,
                opts: &IdentifyOpts,
            ) -> JoinReport {
                if opts.shards <= 1 {
                    let mut matches = 0u64;
                    for idx in read_range {
                        let r = self.reads[idx];
                        scan_read(writes, r, 0, u64::MAX, |w| {
                            self.fold_match(w, r);
                            matches += 1;
                        });
                    }
                    return JoinReport {
                        shard_matches: vec![matches],
                    };
                }

                let bounds = shard_bounds(writes, opts.shards);
                let nshards = bounds.len();
                let reads = &self.reads;
                let range = read_range.clone();
                let shard_matches: Vec<Vec<(u32, Rec)>> = crate::pool::map_jobs(
                    &bounds,
                    opts.workers,
                    || (),
                    |(), &(shard_lo, shard_hi)| {
                        let mut out: Vec<(u32, Rec)> = Vec::new();
                        for idx in range.clone() {
                            let r = reads[idx];
                            scan_read(writes, r, shard_lo, shard_hi, |w| {
                                out.push((idx as u32, w));
                            });
                        }
                        out
                    },
                );
                let mut report = JoinReport {
                    shard_matches: vec![0; nshards],
                };
                let mut cursors = vec![0usize; nshards];
                for idx in read_range {
                    let r = self.reads[idx];
                    for (s, ms) in shard_matches.iter().enumerate() {
                        while cursors[s] < ms.len() && ms[cursors[s]].0 == idx as u32 {
                            let (_, w) = ms[cursors[s]];
                            self.fold_match(w, r);
                            report.shard_matches[s] += 1;
                            cursors[s] += 1;
                        }
                    }
                }
                report
            }

            fn fold_match(&mut self, w: Rec, r: Rec) {
                let JoinState {
                    set,
                    index,
                    pair_seen,
                    ..
                } = self;
                let side = |a: Rec| SideKey {
                    ins: a.ins,
                    addr: a.addr,
                    len: a.len,
                    value: a.value,
                };
                let key = PmcKey {
                    w: side(w),
                    r: side(r),
                };
                let id = *index.entry(key).or_insert_with(|| {
                    set.pmcs.push(Pmc {
                        key,
                        df_leader: r.df_leader,
                        pairs: Vec::new(),
                    });
                    (set.pmcs.len() - 1) as PmcId
                });
                let pmc = &mut set.pmcs[id as usize];
                pmc.df_leader |= r.df_leader;
                if pmc.pairs.len() < MAX_PAIRS_PER_PMC {
                    let pair = (w.test, r.test);
                    if pair_seen.entry(id).or_default().insert(pair) {
                        pmc.pairs.push(pair);
                    }
                }
            }
        }

        fn scan_read(
            writes: &WriteIndex,
            r: Rec,
            shard_lo: u64,
            shard_hi: u64,
            mut emit: impl FnMut(Rec),
        ) {
            let lo = r.addr.saturating_sub(7).max(shard_lo);
            let hi = r.addr.saturating_add(u64::from(r.len)).min(shard_hi);
            if lo >= hi {
                return;
            }
            for (_wa, by_len) in writes.range(lo..hi) {
                for w in by_len.values().flatten() {
                    let Some((ostart, olen)) = range_overlap(w.addr, w.len, r.addr, r.len) else {
                        continue;
                    };
                    if project(w.value, w.addr, ostart, olen)
                        == project(r.value, r.addr, ostart, olen)
                    {
                        continue;
                    }
                    emit(*w);
                }
            }
        }

        fn merge_writes(into: &mut WriteIndex, batch: WriteIndex) {
            for (addr, by_len) in batch {
                let slot = into.entry(addr).or_default();
                for (len, mut recs) in by_len {
                    slot.entry(len).or_default().append(&mut recs);
                }
            }
        }

        fn shard_bounds(writes: &WriteIndex, shards: usize) -> Vec<(u64, u64)> {
            let records_at =
                |by_len: &BTreeMap<u8, Vec<Rec>>| -> usize { by_len.values().map(Vec::len).sum() };
            let total: usize = writes.values().map(records_at).sum();
            if total == 0 {
                return vec![(0, u64::MAX)];
            }
            let per_shard = total.div_ceil(shards.max(1));
            let mut bounds: Vec<(u64, u64)> = Vec::new();
            let mut lo = 0u64;
            let mut load = 0usize;
            for (addr, by_len) in writes {
                load += records_at(by_len);
                if load >= per_shard && bounds.len() + 1 < shards {
                    bounds.push((lo, addr.saturating_add(1)));
                    lo = addr.saturating_add(1);
                    load = 0;
                }
            }
            bounds.push((lo, u64::MAX));
            bounds
        }
    }

    #[test]
    fn write_read_with_different_values_is_a_pmc() {
        let p0 = prof(0, vec![("w:ins", Write, 0x2000, 8, 42)]);
        let p1 = prof(1, vec![("r:ins", Read, 0x2000, 8, 0)]);
        let set = identify(&[p0, p1]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.pmcs[0].pairs, vec![(0, 1)]);
    }

    #[test]
    fn equal_values_are_not_a_pmc() {
        // Condition (4) of §2.2: the write must change what the reader
        // would have seen.
        let p0 = prof(0, vec![("w:ins", Write, 0x2000, 8, 7)]);
        let p1 = prof(1, vec![("r:ins", Read, 0x2000, 8, 7)]);
        assert!(identify(&[p0, p1]).is_empty());
    }

    #[test]
    fn partial_overlap_projects_values() {
        // Write 4 bytes at 0x2000 = DD CC BB AA; read 2 bytes at 0x2002.
        // Overlap bytes are BB AA = 0xAABB vs read value 0xAABB → equal →
        // no PMC despite full-value difference.
        let p0 = prof(0, vec![("w:ins", Write, 0x2000, 4, 0xAABB_CCDD)]);
        let p1 = prof(1, vec![("r:ins", Read, 0x2002, 2, 0xAABB)]);
        assert!(identify(&[p0, p1]).is_empty());
        // Differing overlap → PMC.
        let p2 = prof(2, vec![("r:ins2", Read, 0x2002, 2, 0x0000)]);
        let p0b = prof(0, vec![("w:ins", Write, 0x2000, 4, 0xAABB_CCDD)]);
        assert_eq!(identify(&[p0b, p2]).len(), 1);
    }

    #[test]
    fn same_test_can_pair_with_itself() {
        // Duplicate-input concurrent tests (Table 2, #2/#3/#13).
        let p = prof(
            0,
            vec![
                ("r:ins", Read, 0x2000, 8, 0),
                ("w:ins", Write, 0x2000, 8, 5),
            ],
        );
        let set = identify(&[p]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.pmcs[0].pairs, vec![(0, 0)]);
    }

    #[test]
    fn multiple_pairs_collapse_into_one_pmc() {
        // Two writer tests and two reader tests with identical features map
        // to the same PMC key with several pairs.
        let w0 = prof(0, vec![("w:ins", Write, 0x2000, 8, 5)]);
        let w1 = prof(1, vec![("w:ins", Write, 0x2000, 8, 5)]);
        let r0 = prof(2, vec![("r:ins", Read, 0x2000, 8, 0)]);
        let set = identify(&[w0, w1, r0]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.pmcs[0].pairs.len(), 2);
    }

    #[test]
    fn distinct_values_make_distinct_pmcs() {
        let w0 = prof(0, vec![("w:ins", Write, 0x2000, 8, 5)]);
        let w1 = prof(1, vec![("w:ins", Write, 0x2000, 8, 6)]);
        let r0 = prof(2, vec![("r:ins", Read, 0x2000, 8, 0)]);
        let set = identify(&[w0, w1, r0]);
        assert_eq!(set.len(), 2, "S-FULL distinguishes by value");
    }

    #[test]
    fn df_leader_detection_marks_first_read() {
        let p = prof(
            0,
            vec![
                ("df:first", Read, 0x2000, 8, 9),
                ("df:second", Read, 0x2000, 8, 9),
            ],
        );
        let leaders = df_leaders(&p);
        assert!(leaders.contains(&0));
        assert!(!leaders.contains(&1));
    }

    #[test]
    fn df_leader_requires_no_intervening_write() {
        let p = prof(
            0,
            vec![
                ("df:first", Read, 0x2000, 8, 9),
                ("df:w", Write, 0x2000, 8, 1),
                ("df:second", Read, 0x2000, 8, 9),
            ],
        );
        assert!(df_leaders(&p).is_empty());
    }

    #[test]
    fn df_leader_requires_distinct_instructions_and_equal_values() {
        let same_site = prof(
            0,
            vec![
                ("df:same", Read, 0x2000, 8, 9),
                ("df:same", Read, 0x2000, 8, 9),
            ],
        );
        assert!(df_leaders(&same_site).is_empty());
        let diff_val = prof(
            0,
            vec![
                ("df:a", Read, 0x2000, 8, 9),
                ("df:b", Read, 0x2000, 8, 8),
            ],
        );
        assert!(df_leaders(&diff_val).is_empty());
    }

    #[test]
    fn df_leader_scratch_matches_the_hashed_reference() {
        // One scratch across all profiles, as `ingest` uses it: what an
        // earlier, longer profile left behind must not leak into the next.
        let mut scratch = DfScratch::default();
        let mut check = |p: &SeqProfile, what: &str| -> usize {
            scratch.mark(p);
            let reference = df_leaders_reference(p);
            for (i, is) in scratch.leader.iter().enumerate() {
                assert_eq!(*is, reference.contains(&i), "{what}, test {}, access {i}", p.test);
            }
            assert_eq!(scratch.leader.len(), p.accesses.len());
            let mut sorted: Vec<usize> = reference.into_iter().collect();
            sorted.sort_unstable();
            assert_eq!(df_leaders(p), sorted, "{what}, test {}", p.test);
            sorted.len()
        };
        let mut leaders = 0;
        for seed in [1, 2, 3, 4, 5] {
            for p in &random_profiles(seed, 40) {
                leaders += check(p, &format!("random corpus {seed}"));
            }
        }
        assert!(leaders > 50, "the random corpora hold {leaders} leaders");
        let booted = sb_kernel::boot(sb_kernel::KernelConfig::v5_12_rc3());
        for (seed, catalog) in [
            (3, sb_fuzz::Catalog::Stock),
            (17, sb_fuzz::Catalog::Extended),
            (2021, sb_fuzz::Catalog::Extended),
        ] {
            let (corpus, _) = sb_fuzz::build_corpus_with(&booted, seed, 100, 1500, catalog);
            let profiles = crate::profile::profile_corpus(&booted, &corpus, 1);
            let what = format!("fuzzed corpus {seed}");
            let leaders: usize = profiles.iter().map(|p| check(p, &what)).sum();
            assert!(leaders > 0, "{what} holds no double fetch");
        }
    }

    /// Canonical view of a PMC set: keys + df flags + sorted pair lists,
    /// order-independent. Incremental joins are compared this way because
    /// their id assignment order differs from a from-scratch rebuild.
    type CanonicalPmc = (PmcKey, bool, Vec<(u32, u32)>);

    fn canonical(set: &PmcSet) -> Vec<CanonicalPmc> {
        let mut v: Vec<_> = set
            .pmcs
            .iter()
            .map(|p| {
                let mut pairs = p.pairs.clone();
                pairs.sort_unstable();
                (p.key, p.df_leader, pairs)
            })
            .collect();
        v.sort_unstable_by_key(|(k, _, _)| (k.w.ins.0, k.w.addr, k.r.ins.0, k.r.addr, k.w.value, k.r.value));
        v
    }

    /// A small synthetic corpus with overlapping ranges, partial overlaps,
    /// df chains, and repeated signatures across several address clusters.
    fn synthetic_profiles(tests: u32) -> Vec<SeqProfile> {
        (0..tests)
            .map(|t| {
                let base = 0x1000 + u64::from(t % 5) * 0x40;
                prof(
                    t,
                    vec![
                        ("w:a", Write, base, 8, u64::from(t) + 1),
                        ("w:b", Write, base + 4, 4, 0xAA00 + u64::from(t)),
                        ("r:a", Read, base, 8, 0),
                        ("r:b", Read, base + 2, 2, u64::from(t % 3)),
                        ("df:1", Read, base + 16, 4, 7),
                        ("df:2", Read, base + 16, 4, 7),
                        ("w:c", Write, base + 16, 4, u64::from(t) * 3),
                        ("r:c", Read, base + 17, 2, 1),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn sharded_join_is_bit_identical_to_sequential() {
        let profiles = synthetic_profiles(12);
        let seq = identify(&profiles);
        assert!(!seq.is_empty());
        for shards in [2, 3, 4, 7] {
            let par = identify_sharded(&profiles, shards, 4);
            assert_eq!(par, seq, "{shards} shards must match the reference");
        }
    }

    #[test]
    fn single_shard_options_reproduce_identify() {
        let profiles = synthetic_profiles(6);
        assert_eq!(identify_sharded(&profiles, 1, 1), identify(&profiles));
    }

    #[test]
    fn incremental_batches_cover_the_same_universe() {
        let profiles = synthetic_profiles(10);
        let scratch = identify(&profiles);
        let mut st = JoinState::new();
        let opts = IdentifyOpts::sharded(3, 2);
        st.add_profiles(&profiles[..4], &opts);
        st.add_profiles(&profiles[4..7], &opts);
        st.add_profiles(&profiles[7..], &opts);
        assert_eq!(canonical(st.set()), canonical(&scratch));
    }

    #[test]
    fn resume_then_grow_matches_rebuild() {
        let profiles = synthetic_profiles(9);
        let old = identify(&profiles[..5]);
        // Resume from the persisted set + its source profiles, then join
        // only the new profiles.
        let mut st = JoinState::resume(&profiles[..5], old);
        let report = st.add_profiles(&profiles[5..], &IdentifyOpts::sharded(4, 2));
        assert!(report.matches() > 0, "growth must produce new joins");
        assert_eq!(canonical(st.set()), canonical(&identify(&profiles)));
    }

    #[test]
    fn resume_with_no_growth_changes_nothing() {
        // df-free corpus: re-adding already-ingested profiles dedups to zero
        // new records and zero joins.
        let profiles: Vec<SeqProfile> = (0..5)
            .map(|t| {
                prof(
                    t,
                    vec![
                        ("w", Write, 0x2000, 8, u64::from(t) + 1),
                        ("r", Read, 0x2002, 4, 0),
                    ],
                )
            })
            .collect();
        let set = identify(&profiles);
        let mut st = JoinState::resume(&profiles, set.clone());
        let report = st.add_profiles(&profiles, &IdentifyOpts::default());
        assert_eq!(report.matches(), 0);
        assert_eq!(*st.set(), set);

        // With double-fetch chains the leader read intentionally escapes the
        // dedup (`seen_r.insert(sig) || df`), so re-ingest re-joins it — but
        // the folded set must still be unchanged (pairs dedup per PMC).
        let dfp = synthetic_profiles(5);
        let dfset = identify(&dfp);
        let mut st = JoinState::resume(&dfp, dfset.clone());
        st.add_profiles(&dfp, &IdentifyOpts::default());
        assert_eq!(*st.set(), dfset);
    }

    /// Feeds `profiles` to the side-grouped join and to the per-record
    /// [`reference`] in the same batches (`profiles[..resume_at]` resumed
    /// from its folded set when `resume_at > 0`, then one `add_profiles` per
    /// cut) and requires the same `JoinReport`, the same `PmcSet` — ids,
    /// flags, pair order — and the same record count after every batch.
    fn assert_batches_match(
        profiles: &[SeqProfile],
        resume_at: usize,
        cuts: &[usize],
        opts: &IdentifyOpts,
        what: &str,
    ) {
        let old = &profiles[..resume_at];
        let (mut sides, mut records) = (JoinState::new(), reference::JoinState::default());
        if resume_at > 0 {
            records.add_profiles(old, &IdentifyOpts::default());
            let set = records.set().clone();
            sides = JoinState::resume(old, set.clone());
            records = reference::JoinState::resume(old, set);
        }
        let mut from = resume_at;
        for to in cuts.iter().copied().chain([profiles.len()]) {
            let batch = &profiles[from..to];
            let what = format!("{what}, {opts:?}, resumed at {resume_at}, batch {from}..{to}");
            assert_eq!(
                sides.add_profiles(batch, opts),
                records.add_profiles(batch, opts),
                "{what}"
            );
            assert_eq!(sides.set(), records.set(), "{what}");
            assert_eq!(sides.reads_indexed(), records.reads_indexed(), "{what}");
            from = to;
        }
    }

    /// Every driver of the join against the reference: inline, sharded
    /// {2, 3, 4, 7}, a three-batch incremental join and resume + grow.
    fn assert_matches_reference(profiles: &[SeqProfile], what: &str) {
        let n = profiles.len();
        let inline = IdentifyOpts::default();
        assert_batches_match(profiles, 0, &[], &inline, what);
        for shards in [2, 3, 4, 7] {
            assert_batches_match(profiles, 0, &[], &IdentifyOpts::sharded(shards, 2), what);
        }
        for opts in [inline, IdentifyOpts::sharded(3, 2)] {
            assert_batches_match(profiles, 0, &[n / 3, 2 * n / 3], &opts, what);
            assert_batches_match(profiles, n / 2, &[], &opts, what);
            assert_batches_match(profiles, n / 3, &[2 * n / 3], &opts, what);
        }
    }

    /// A corpus drawn from a seeded stream: half the accesses hit one hot
    /// word through two sites and two values (sides shared by most tests,
    /// PMCs far past the pair cap), the rest spread over sites, values and
    /// widths in three small windows (partial overlaps, double fetches).
    fn random_profiles(seed: u64, tests: u32) -> Vec<SeqProfile> {
        let mut rng = sb_vmm::rng::SplitMix64::new(seed);
        let mut next = move |bound: u64| rng.next_u64() % bound;
        const SITES: [&str; 6] = ["fz:a", "fz:b", "fz:c", "fz:d", "fz:e", "fz:f"];
        (0..tests)
            .map(|t| {
                let accesses = (0..4 + next(20))
                    .map(|_| {
                        let kind = if next(5) < 2 { Write } else { Read };
                        if next(2) == 0 {
                            return (SITES[next(2) as usize], kind, 0x3000, 8, next(2));
                        }
                        let addr = 0x3000 + next(3) * 0x100 + next(10);
                        let len = [1u8, 2, 4, 8][next(4) as usize];
                        let value = [0, 1, 0x0101, 0xAABB_CCDD][next(4) as usize];
                        (SITES[next(6) as usize], kind, addr, len, value)
                    })
                    .collect();
                prof(t, accesses)
            })
            .collect()
    }

    #[test]
    fn side_grouped_join_matches_the_per_record_reference() {
        assert_matches_reference(&synthetic_profiles(12), "synthetic");
        for seed in [1, 2, 3] {
            let profiles = random_profiles(seed, 40);
            assert_matches_reference(&profiles, &format!("random corpus {seed}"));
            // The corpus must actually reach what it is there for.
            let set = identify(&profiles);
            let capped = |p: &&Pmc| p.pairs.len() == MAX_PAIRS_PER_PMC;
            assert!(set.pmcs.iter().any(|p| p.df_leader), "seed {seed}");
            assert!(set.pmcs.iter().filter(capped).count() > 0, "seed {seed}");
        }
        let booted = sb_kernel::boot(sb_kernel::KernelConfig::v5_12_rc3());
        for seed in [3, 17, 71] {
            let (corpus, _) = sb_fuzz::build_corpus_with(&booted, seed, 24, 360, sb_fuzz::Catalog::Stock);
            let profiles = crate::profile::profile_corpus(&booted, &corpus, 1);
            assert!(identify(&profiles).len() > 50, "seed {seed}: thin corpus");
            assert_matches_reference(&profiles, &format!("fuzzed corpus {seed}"));
        }
    }

    #[test]
    fn df_leader_that_escapes_dedup_pairs_its_test_only_once() {
        // `r:a` at index 2 repeats the signature of index 0 but leads a
        // double fetch, so it is kept: the side holds test 1 twice and every
        // (writer, 1) pair arrives twice.
        let reader = prof(
            1,
            vec![
                ("r:a", Read, 0x2000, 8, 9),
                ("r:b", Read, 0x2000, 8, 9),
                ("r:a", Read, 0x2000, 8, 9),
                ("r:b", Read, 0x2000, 8, 9),
            ],
        );
        let profiles = vec![
            prof(0, vec![("w", Write, 0x2000, 8, 1)]),
            reader,
            prof(
                2,
                vec![("w", Write, 0x2000, 8, 1), ("r:a", Read, 0x2000, 8, 9)],
            ),
        ];
        let mut st = JoinState::new();
        let report = st.add_profiles(&profiles, &IdentifyOpts::default());
        assert_eq!(st.reads[0].tests, vec![1, 1, 2], "the leader escaped dedup");
        assert_eq!(st.reads_indexed(), 4);
        // 2 writer records × (3 `r:a` + 1 `r:b`) reader records.
        assert_eq!(report.matches(), 8);
        let by_a = &st.set().pmcs[0];
        assert!(by_a.df_leader);
        assert_eq!(by_a.pairs, vec![(0, 1), (2, 1), (0, 2), (2, 2)]);
        assert_matches_reference(&profiles, "df escape");
        // Re-adding what a resumed state already holds re-joins the leaders
        // (they escape dedup again) and must change nothing.
        let set = st.into_set();
        let mut sides = JoinState::resume(&profiles, set.clone());
        let mut records = reference::JoinState::resume(&profiles, set.clone());
        let opts = IdentifyOpts::sharded(2, 2);
        assert_eq!(
            sides.add_profiles(&profiles, &opts),
            records.add_profiles(&profiles, &opts)
        );
        assert_eq!((sides.set(), records.set()), (&set, &set));
    }

    #[test]
    fn pair_cap_is_reached_in_the_middle_of_a_side() {
        // One PMC, 5 writer tests × 7 reader tests = 35 pairs: the cap of 32
        // falls inside the seventh reader's pass over the writers — in one
        // batch, in phase 2 of a later batch (cut 9), and in phase 1 (the
        // readers first, the writers arriving in two later batches).
        let writers = (0..5).map(|t| prof(t, vec![("w", Write, 0x2000, 8, 7)]));
        let readers = (5..12).map(|t| prof(t, vec![("r", Read, 0x2000, 8, 0)]));
        let profiles: Vec<SeqProfile> = writers.clone().chain(readers.clone()).collect();
        let set = identify(&profiles);
        assert_eq!(set.len(), 1);
        assert_eq!(set.pmcs[0].pairs.len(), MAX_PAIRS_PER_PMC);
        assert_eq!(set.pmcs[0].pairs[30..], [(0, 11), (1, 11)]);
        assert_matches_reference(&profiles, "cap, writers first");
        for opts in [IdentifyOpts::default(), IdentifyOpts::sharded(2, 2)] {
            assert_batches_match(&profiles, 0, &[3, 9], &opts, "cap, writers first");
        }
        let profiles: Vec<SeqProfile> = readers.chain(writers).collect();
        assert_matches_reference(&profiles, "cap, readers first");
        for opts in [IdentifyOpts::default(), IdentifyOpts::sharded(2, 2)] {
            assert_batches_match(&profiles, 0, &[7, 10], &opts, "cap, readers first");
            assert_batches_match(&profiles, 7, &[11], &opts, "cap, readers first");
        }
    }

    #[test]
    fn read_side_that_turns_df_leader_in_a_later_batch_flags_all_its_pmcs() {
        // Batch 1: a plain read `r` of a range one write side covers.
        // Batch 2: test 2 reads it as the first of a double fetch, and brings
        // a second write side — whose PMC phase 1 creates from the *old*
        // record of `r`, and which must end up flagged like the first.
        let profiles = vec![
            prof(0, vec![("w:old", Write, 0x2000, 8, 1)]),
            prof(1, vec![("r", Read, 0x2000, 8, 0)]),
            prof(
                2,
                vec![
                    ("w:new", Write, 0x2004, 4, 2),
                    ("r", Read, 0x2000, 8, 0),
                    ("r:again", Read, 0x2000, 8, 0),
                ],
            ),
        ];
        for opts in [IdentifyOpts::default(), IdentifyOpts::sharded(2, 2)] {
            let mut st = JoinState::new();
            st.add_profiles(&profiles[..2], &opts);
            assert_eq!(st.set().len(), 1);
            assert!(!st.set().pmcs[0].df_leader);
            st.add_profiles(&profiles[2..], &opts);
            let by_r: Vec<&Pmc> = (st.set().pmcs.iter())
                .filter(|p| p.key.r.ins == site!("r"))
                .collect();
            assert_eq!(by_r.len(), 2);
            assert!(by_r.iter().all(|p| p.df_leader), "{by_r:?}");
            assert_batches_match(&profiles, 0, &[2], &opts, "late df");
            assert_batches_match(&profiles, 2, &[], &opts, "late df");
        }
        assert_matches_reference(&profiles, "late df");
    }

    #[test]
    fn read_at_the_top_of_the_address_space_does_not_overflow_the_scan() {
        // A stored profile can hold any address. The window of a read that
        // ends past `u64::MAX` is clipped, not wrapped to an empty one (or a
        // debug-build panic), and the read beside it joins as usual.
        let top = u64::MAX - 3;
        let profiles = vec![
            prof(
                0,
                vec![("w", Write, 0x2000, 8, 1), ("w:top", Write, top, 2, 5)],
            ),
            prof(
                1,
                vec![("r", Read, 0x2000, 8, 0), ("r:top", Read, top, 8, 0)],
            ),
        ];
        let set = identify(&profiles);
        let readers: Vec<Site> = set.pmcs.iter().map(|p| p.key.r.ins).collect();
        assert_eq!(readers, vec![site!("r"), site!("r:top")]);
        assert_eq!(identify_sharded(&profiles, 3, 2), set);
    }

    #[test]
    fn join_report_skew_is_max_over_mean() {
        let r = JoinReport {
            shard_matches: vec![30, 10, 20],
        };
        assert_eq!(r.matches(), 60);
        assert!((r.skew() - 1.5).abs() < 1e-12);
        assert_eq!(JoinReport::default().skew(), 0.0);
    }

    #[test]
    fn shard_bounds_partition_all_write_addresses() {
        let profiles = synthetic_profiles(8);
        let mut st = JoinState::new();
        let mut batch = WriteIndex::new();
        st.ingest(&profiles, &mut batch);
        let bounds = shard_bounds(&batch, 4);
        assert!(!bounds.is_empty() && bounds.len() <= 4);
        // Contiguous, non-overlapping, covering [0, u64::MAX).
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds.last().expect("bounds").1, u64::MAX);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert!(w[0].0 < w[0].1);
        }
    }

    #[test]
    fn pmc_hints_match_sides() {
        let p0 = prof(0, vec![("w:ins", Write, 0x2000, 8, 42)]);
        let p1 = prof(1, vec![("r:ins", Read, 0x2000, 8, 0)]);
        let set = identify(&[p0, p1]);
        let [hw, hr] = set.pmcs[0].hints();
        assert_eq!(hw.kind, Write);
        assert_eq!(hr.kind, Read);
        assert_eq!(hw.site, site!("w:ins"));
        assert_eq!(hr.site, site!("r:ins"));
    }
}
