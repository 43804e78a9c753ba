//! Binary codecs for profiles and PMC sets.
//!
//! A profile's access stream is stored field-major-less: one flags byte per
//! access, then each `u64` field as a zigzag wrapping delta against the same
//! field of the previous access ([`crate::varint`]). Sequential traces are
//! extremely local — consecutive `seq`, repeated sites in loops, clustered
//! addresses — so typical accesses cost a few bytes instead of the ~50 of
//! the in-memory form. All transforms are bijections on `u64`, so decoding
//! reproduces the input exactly (property-tested in `tests/codec_props.rs`).

use sb_vmm::access::{Access, AccessKind, LockSet};
use sb_vmm::site::Site;
use snowboard::pmc::{Pmc, PmcKey, PmcSet, SideKey};
use snowboard::profile::SeqProfile;

use crate::varint::{put_delta, put_u64, Cursor, DecodeError};
use crate::Error;

/// Per-access flags byte layout.
const FLAG_WRITE: u8 = 1 << 0;
const FLAG_ATOMIC: u8 = 1 << 1;
const LEN_SHIFT: u32 = 2;

/// Field-delta state threaded through an access stream.
#[derive(Default)]
struct AccessPrev {
    seq: u64,
    site: u64,
    addr: u64,
    value: u64,
}

/// Encodes one profile into `out`.
pub fn encode_profile(p: &SeqProfile, out: &mut Vec<u8>) {
    put_u64(u64::from(p.test), out);
    put_u64(p.steps, out);
    put_u64(p.accesses.len() as u64, out);
    let mut prev = AccessPrev::default();
    for a in &p.accesses {
        assert!(
            a.len <= 15,
            "access length {} exceeds the 4-bit field",
            a.len
        );
        let mut flags = a.len << LEN_SHIFT;
        if a.kind.is_write() {
            flags |= FLAG_WRITE;
        }
        if a.atomic {
            flags |= FLAG_ATOMIC;
        }
        out.push(flags);
        put_delta(prev.seq, a.seq, out);
        put_u64(a.thread as u64, out);
        put_delta(prev.site, a.site.0, out);
        put_delta(prev.addr, a.addr, out);
        put_delta(prev.value, a.value, out);
        put_u64(u64::from(a.rcu_depth), out);
        put_u64(a.locks.len() as u64, out);
        let mut prev_lock = 0u64;
        for &l in &a.locks {
            put_delta(prev_lock, l, out);
            prev_lock = l;
        }
        prev = AccessPrev {
            seq: a.seq,
            site: a.site.0,
            addr: a.addr,
            value: a.value,
        };
    }
}

/// Smallest encoding of one access (flags byte plus seven one-byte
/// varints), of one PMC (two four-byte sides, flag, pair count) and of one
/// pair. A count read from a payload is held against what the bytes after
/// it can hold *before* memory is reserved for it.
const MIN_ACCESS_BYTES: usize = 8;
const MIN_PMC_BYTES: usize = 10;
const MIN_PAIR_BYTES: usize = 2;

/// Reads an element count and rejects one the rest of the payload cannot
/// hold at `min_bytes` per element.
fn bounded_count(
    cur: &mut Cursor<'_>,
    min_bytes: usize,
    too_many: &'static str,
) -> Result<usize, DecodeError> {
    let count = cur.u64()?;
    if count > (cur.remaining() / min_bytes) as u64 {
        return Err(DecodeError::Corrupt(too_many));
    }
    Ok(count as usize)
}

/// Decodes a profile encoded by [`encode_profile`]. The whole buffer must be
/// consumed.
pub fn decode_profile(buf: &[u8]) -> Result<SeqProfile, Error> {
    Ok(profile_from(&mut Cursor::new(buf))?)
}

fn profile_from(cur: &mut Cursor<'_>) -> Result<SeqProfile, DecodeError> {
    let test =
        u32::try_from(cur.u64()?).map_err(|_| DecodeError::Corrupt("test id exceeds u32"))?;
    let steps = cur.u64()?;
    let count = bounded_count(cur, MIN_ACCESS_BYTES, "access count exceeds payload size")?;
    let mut accesses = Vec::with_capacity(count);
    let mut prev = AccessPrev::default();
    let mut locks = LockSet::default();
    for _ in 0..count {
        let flags = cur.byte()?;
        let kind = if flags & FLAG_WRITE != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let atomic = flags & FLAG_ATOMIC != 0;
        let len = flags >> LEN_SHIFT;
        let seq = cur.delta(prev.seq)?;
        let thread = cur.u64()? as usize;
        let site = cur.delta(prev.site)?;
        let addr = cur.delta(prev.addr)?;
        let value = cur.delta(prev.value)?;
        let rcu_depth =
            u8::try_from(cur.u64()?).map_err(|_| DecodeError::Corrupt("rcu depth exceeds u8"))?;
        let n_locks = cur.u64()?;
        if n_locks > cur.remaining() as u64 {
            return Err(DecodeError::Corrupt("lock count exceeds payload size"));
        }
        // Lock sets change on acquire/release only: `locks` is the previous
        // access's set, and stays untouched while the stream repeats it.
        let mut kept = 0;
        let mut prev_lock = 0u64;
        for _ in 0..n_locks {
            let l = cur.delta(prev_lock)?;
            prev_lock = l;
            if kept < locks.len() && locks[kept] == l {
                kept += 1;
                continue;
            }
            truncate_locks(&mut locks, kept);
            locks.push(l);
            kept += 1;
        }
        truncate_locks(&mut locks, kept);
        accesses.push(Access {
            seq,
            thread,
            site: Site(site),
            kind,
            addr,
            len,
            value,
            atomic,
            locks: locks.clone(),
            rcu_depth,
        });
        prev = AccessPrev {
            seq,
            site,
            addr,
            value,
        };
    }
    if cur.remaining() != 0 {
        return Err(DecodeError::Corrupt("trailing bytes after profile"));
    }
    Ok(SeqProfile {
        test,
        accesses,
        steps,
    })
}

/// Drops every lock past the first `keep`.
fn truncate_locks(locks: &mut LockSet, keep: usize) {
    if keep < locks.len() {
        let mut seen = 0;
        locks.retain(|_| {
            seen += 1;
            seen <= keep
        });
    }
}

fn put_side(prev: &mut AccessPrev, s: &SideKey, out: &mut Vec<u8>) {
    put_delta(prev.site, s.ins.0, out);
    put_delta(prev.addr, s.addr, out);
    out.push(s.len);
    put_delta(prev.value, s.value, out);
    prev.site = s.ins.0;
    prev.addr = s.addr;
    prev.value = s.value;
}

fn get_side(prev: &mut AccessPrev, cur: &mut Cursor<'_>) -> Result<SideKey, DecodeError> {
    let ins = cur.delta(prev.site)?;
    let addr = cur.delta(prev.addr)?;
    let len = cur.byte()?;
    let value = cur.delta(prev.value)?;
    prev.site = ins;
    prev.addr = addr;
    prev.value = value;
    Ok(SideKey {
        ins: Site(ins),
        addr,
        len,
        value,
    })
}

/// Encodes a PMC set into `out`. Ids are positional, so the encoding
/// preserves them exactly.
pub fn encode_pmc_set(set: &PmcSet, out: &mut Vec<u8>) {
    put_u64(set.pmcs.len() as u64, out);
    let mut prev_w = AccessPrev::default();
    let mut prev_r = AccessPrev::default();
    for p in &set.pmcs {
        put_side(&mut prev_w, &p.key.w, out);
        put_side(&mut prev_r, &p.key.r, out);
        out.push(u8::from(p.df_leader));
        put_u64(p.pairs.len() as u64, out);
        for &(w, r) in &p.pairs {
            put_u64(u64::from(w), out);
            put_u64(u64::from(r), out);
        }
    }
}

/// Decodes a PMC set encoded by [`encode_pmc_set`]. The whole buffer must
/// be consumed.
pub fn decode_pmc_set(buf: &[u8]) -> Result<PmcSet, Error> {
    Ok(pmc_set_from(&mut Cursor::new(buf))?)
}

fn pmc_set_from(cur: &mut Cursor<'_>) -> Result<PmcSet, DecodeError> {
    let count = bounded_count(cur, MIN_PMC_BYTES, "PMC count exceeds payload size")?;
    let mut pmcs = Vec::with_capacity(count);
    let mut prev_w = AccessPrev::default();
    let mut prev_r = AccessPrev::default();
    let pair_test = |cur: &mut Cursor<'_>| {
        u32::try_from(cur.u64()?).map_err(|_| DecodeError::Corrupt("pair test id exceeds u32"))
    };
    for _ in 0..count {
        let w = get_side(&mut prev_w, cur)?;
        let r = get_side(&mut prev_r, cur)?;
        let df = cur.byte()?;
        if df > 1 {
            return Err(DecodeError::Corrupt("df flag out of range"));
        }
        let n_pairs = bounded_count(cur, MIN_PAIR_BYTES, "pair count exceeds payload size")?;
        let mut pairs = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            pairs.push((pair_test(cur)?, pair_test(cur)?));
        }
        pmcs.push(Pmc {
            key: PmcKey { w, r },
            df_leader: df == 1,
            pairs,
        });
    }
    if cur.remaining() != 0 {
        return Err(DecodeError::Corrupt("trailing bytes after PMC set"));
    }
    Ok(PmcSet { pmcs })
}

/// Encodes the payload of a PMC record: the corpus it was identified from
/// (a count, then each profile key as `u64 LE`), then the set.
pub fn encode_pmc_record(corpus: &[u64], set: &PmcSet, out: &mut Vec<u8>) {
    put_u64(corpus.len() as u64, out);
    for key in corpus {
        out.extend_from_slice(&key.to_le_bytes());
    }
    encode_pmc_set(set, out);
}

/// Splits a PMC record payload into its corpus key list and the bytes of
/// the encoded set behind it ([`decode_pmc_set`] reads those).
pub fn decode_pmc_corpus(buf: &[u8]) -> Result<(Vec<u64>, &[u8]), Error> {
    let mut cur = Cursor::new(buf);
    let count = bounded_count(&mut cur, 8, "corpus key count exceeds payload size")?;
    let (keys, set) = buf[buf.len() - cur.remaining()..].split_at(8 * count);
    let corpus = keys
        .chunks_exact(8)
        .map(|k| u64::from_le_bytes(k.try_into().expect("8-byte key")))
        .collect();
    Ok((corpus, set))
}

/// The decoders the cursor ones replaced — a `(buf, pos)` pair threaded
/// through `Result<u64, Error>` reads, each lock set collected into a
/// scratch `Vec` — kept as the reference the arbitrary-bytes suite compares
/// them with. They apply the same count bounds.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::varint::{reference_get_delta, reference_get_u64};

    pub fn decode_profile(buf: &[u8]) -> Result<SeqProfile, Error> {
        let mut pos = 0;
        let test = u32::try_from(reference_get_u64(buf, &mut pos)?)
            .map_err(|_| Error::Corrupt("test id exceeds u32"))?;
        let steps = reference_get_u64(buf, &mut pos)?;
        let count = reference_get_u64(buf, &mut pos)?;
        if count > ((buf.len() - pos) / MIN_ACCESS_BYTES) as u64 {
            return Err(Error::Corrupt("access count exceeds payload size"));
        }
        let mut accesses = Vec::with_capacity(count as usize);
        let mut prev = AccessPrev::default();
        let mut locks = LockSet::default();
        let mut scratch: Vec<u64> = Vec::new();
        for _ in 0..count {
            let flags = *buf.get(pos).ok_or(Error::Truncated)?;
            pos += 1;
            let kind = if flags & FLAG_WRITE != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let atomic = flags & FLAG_ATOMIC != 0;
            let len = flags >> LEN_SHIFT;
            let seq = reference_get_delta(prev.seq, buf, &mut pos)?;
            let thread = reference_get_u64(buf, &mut pos)? as usize;
            let site = reference_get_delta(prev.site, buf, &mut pos)?;
            let addr = reference_get_delta(prev.addr, buf, &mut pos)?;
            let value = reference_get_delta(prev.value, buf, &mut pos)?;
            let rcu_depth = u8::try_from(reference_get_u64(buf, &mut pos)?)
                .map_err(|_| Error::Corrupt("rcu depth exceeds u8"))?;
            let n_locks = reference_get_u64(buf, &mut pos)?;
            if n_locks > (buf.len() - pos) as u64 {
                return Err(Error::Corrupt("lock count exceeds payload size"));
            }
            scratch.clear();
            let mut prev_lock = 0u64;
            for _ in 0..n_locks {
                let l = reference_get_delta(prev_lock, buf, &mut pos)?;
                scratch.push(l);
                prev_lock = l;
            }
            // Lock sets change on acquire/release only: share the previous
            // access's set when equal, as the executor that recorded them did.
            if *locks != *scratch {
                locks = if scratch.is_empty() {
                    LockSet::default()
                } else {
                    scratch.clone().into()
                };
            }
            accesses.push(Access {
                seq,
                thread,
                site: Site(site),
                kind,
                addr,
                len,
                value,
                atomic,
                locks: locks.clone(),
                rcu_depth,
            });
            prev = AccessPrev {
                seq,
                site,
                addr,
                value,
            };
        }
        if pos != buf.len() {
            return Err(Error::Corrupt("trailing bytes after profile"));
        }
        Ok(SeqProfile {
            test,
            accesses,
            steps,
        })
    }

    fn get_side(prev: &mut AccessPrev, buf: &[u8], pos: &mut usize) -> Result<SideKey, Error> {
        let ins = reference_get_delta(prev.site, buf, pos)?;
        let addr = reference_get_delta(prev.addr, buf, pos)?;
        let len = *buf.get(*pos).ok_or(Error::Truncated)?;
        *pos += 1;
        let value = reference_get_delta(prev.value, buf, pos)?;
        prev.site = ins;
        prev.addr = addr;
        prev.value = value;
        Ok(SideKey {
            ins: Site(ins),
            addr,
            len,
            value,
        })
    }

    pub fn decode_pmc_set(buf: &[u8]) -> Result<PmcSet, Error> {
        let mut pos = 0;
        let count = reference_get_u64(buf, &mut pos)?;
        if count > ((buf.len() - pos) / MIN_PMC_BYTES) as u64 {
            return Err(Error::Corrupt("PMC count exceeds payload size"));
        }
        let mut pmcs = Vec::with_capacity(count as usize);
        let mut prev_w = AccessPrev::default();
        let mut prev_r = AccessPrev::default();
        for _ in 0..count {
            let w = get_side(&mut prev_w, buf, &mut pos)?;
            let r = get_side(&mut prev_r, buf, &mut pos)?;
            let df = *buf.get(pos).ok_or(Error::Truncated)?;
            pos += 1;
            if df > 1 {
                return Err(Error::Corrupt("df flag out of range"));
            }
            let n_pairs = reference_get_u64(buf, &mut pos)?;
            if n_pairs > ((buf.len() - pos) / MIN_PAIR_BYTES) as u64 {
                return Err(Error::Corrupt("pair count exceeds payload size"));
            }
            let mut pairs = Vec::with_capacity(n_pairs as usize);
            for _ in 0..n_pairs {
                let w_test = u32::try_from(reference_get_u64(buf, &mut pos)?)
                    .map_err(|_| Error::Corrupt("pair test id exceeds u32"))?;
                let r_test = u32::try_from(reference_get_u64(buf, &mut pos)?)
                    .map_err(|_| Error::Corrupt("pair test id exceeds u32"))?;
                pairs.push((w_test, r_test));
            }
            pmcs.push(Pmc {
                key: PmcKey { w, r },
                df_leader: df == 1,
                pairs,
            });
        }
        if pos != buf.len() {
            return Err(Error::Corrupt("trailing bytes after PMC set"));
        }
        Ok(PmcSet { pmcs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(seq: u64, site: &str, kind: AccessKind, addr: u64, value: u64) -> Access {
        Access {
            seq,
            thread: (seq % 3) as usize,
            site: Site::intern(site),
            kind,
            addr,
            len: 8,
            value,
            atomic: seq.is_multiple_of(2),
            locks: if seq.is_multiple_of(2) {
                vec![0x9000, 0x9010].into()
            } else {
                vec![].into()
            },
            rcu_depth: (seq % 4) as u8,
        }
    }

    #[test]
    fn profile_round_trips_exactly() {
        let p = SeqProfile {
            test: 42,
            steps: u64::MAX,
            accesses: vec![
                access(0, "a:x", AccessKind::Write, 0x2000, 7),
                access(1, "a:x", AccessKind::Read, 0x2000, 7),
                access(2, "b:y", AccessKind::Write, u64::MAX, 0),
                access(3, "c:z", AccessKind::Read, 0, u64::MAX),
            ],
        };
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        assert_eq!(decode_profile(&buf).unwrap(), p);
    }

    #[test]
    fn lock_sets_round_trip_whether_shared_or_not() {
        let sets: [&[u64]; 9] = [
            &[],
            &[],
            &[0x9000],
            &[0x9000],
            &[],
            &[0x9000],
            &[0x9000, 0x9010],
            &[0x9010],
            &[0x9010],
        ];
        let accesses = sets
            .iter()
            .enumerate()
            .map(|(i, locks)| {
                let mut a = access(i as u64, "l:s", AccessKind::Read, 0x5000, 1);
                a.locks = locks.to_vec().into();
                a
            })
            .collect();
        let p = SeqProfile {
            test: 1,
            steps: 9,
            accesses,
        };
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        assert_eq!(decode_profile(&buf).unwrap(), p);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = SeqProfile {
            test: 0,
            steps: 0,
            accesses: vec![],
        };
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        assert_eq!(decode_profile(&buf).unwrap(), p);
    }

    #[test]
    fn profile_decode_rejects_truncation_and_trailing_bytes() {
        let p = SeqProfile {
            test: 3,
            steps: 100,
            accesses: vec![access(0, "t:1", AccessKind::Read, 0x4000, 9)],
        };
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_profile(&buf[..cut]).is_err(), "cut at {cut}");
        }
        buf.push(0);
        assert!(decode_profile(&buf).is_err());
    }

    #[test]
    fn delta_coding_beats_fixed_width_on_a_local_stream() {
        let accesses: Vec<Access> = (0..200)
            .map(|i| {
                let mut a = access(i, "loop:body", AccessKind::Write, 0x8000 + 8 * i, i);
                a.locks = vec![].into();
                a.atomic = false;
                a
            })
            .collect();
        let p = SeqProfile {
            test: 0,
            steps: 200,
            accesses,
        };
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        // Fixed-width lower bound: 4 u64 fields alone would be 32 B/access.
        assert!(
            buf.len() < p.accesses.len() * 16,
            "{} bytes for {} accesses",
            buf.len(),
            p.accesses.len()
        );
    }

    #[test]
    fn pmc_set_round_trips_exactly() {
        let side = |s: &str, addr, len, value| SideKey {
            ins: Site::intern(s),
            addr,
            len,
            value,
        };
        let set = PmcSet {
            pmcs: vec![
                Pmc {
                    key: PmcKey {
                        w: side("w:1", 0x1000, 8, u64::MAX),
                        r: side("r:1", 0x1004, 4, 0),
                    },
                    df_leader: true,
                    pairs: vec![(0, 1), (2, 3)],
                },
                Pmc {
                    key: PmcKey {
                        w: side("w:2", u64::MAX - 8, 8, 1),
                        r: side("r:2", 0, 1, 2),
                    },
                    df_leader: false,
                    pairs: vec![(u32::MAX, u32::MAX)],
                },
            ],
        };
        let mut buf = vec![];
        encode_pmc_set(&set, &mut buf);
        assert_eq!(decode_pmc_set(&buf).unwrap(), set);
    }

    #[test]
    fn pmc_set_decode_rejects_corruption() {
        let set = PmcSet { pmcs: vec![] };
        let mut buf = vec![];
        encode_pmc_set(&set, &mut buf);
        assert_eq!(decode_pmc_set(&buf).unwrap(), set);
        buf.push(7);
        assert!(decode_pmc_set(&buf).is_err());
        assert!(decode_pmc_set(&[]).is_err());
    }

    /// `varints(&[..])` back to back.
    fn varints(values: &[u64]) -> Vec<u8> {
        let mut out = vec![];
        for v in values {
            put_u64(*v, &mut out);
        }
        out
    }

    #[test]
    fn a_count_is_held_against_what_the_remaining_bytes_can_hold() {
        // Profile: header (test, steps, count), then `rest` bytes that are
        // each a valid one-byte field. rest / 8 accesses fit; one more does
        // not, and is refused at the count — before any access is read,
        // before anything is reserved.
        for rest in [0usize, 7, 8, 15, 16, 800] {
            let payload = |count: usize| {
                let mut buf = varints(&[1, 2, count as u64]);
                buf.resize(buf.len() + rest, 0);
                buf
            };
            let fits = rest / MIN_ACCESS_BYTES;
            match decode_profile(&payload(fits)) {
                // Eight zero bytes are one access with no locks.
                Ok(p) => assert_eq!(
                    (p.accesses.len(), rest % MIN_ACCESS_BYTES),
                    (fits, 0),
                    "rest {rest}"
                ),
                Err(e) => {
                    assert!(
                        matches!(e, Error::Corrupt("trailing bytes after profile")),
                        "rest {rest}: {e:?}"
                    );
                    assert_ne!(rest % MIN_ACCESS_BYTES, 0);
                }
            }
            let e = decode_profile(&payload(fits + 1)).expect_err("one access too many");
            assert!(
                matches!(e, Error::Corrupt("access count exceeds payload size")),
                "rest {rest}: {e:?}"
            );
        }
        // The same count over multi-byte fields runs out of bytes mid-access.
        let mut starved = varints(&[1, 2, 2]);
        starved.extend_from_slice(&[0; 8]);
        starved.extend_from_slice(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80]);
        assert!(matches!(decode_profile(&starved), Err(Error::Truncated)));

        // PMC sets: ten bytes per PMC, two per pair.
        let pmcs = |count: u64, rest: usize| {
            let mut buf = varints(&[count]);
            buf.resize(buf.len() + rest, 0);
            buf
        };
        assert_eq!(
            decode_pmc_set(&pmcs(3, 30))
                .expect("three empty PMCs")
                .pmcs
                .len(),
            3
        );
        let e = decode_pmc_set(&pmcs(4, 39)).expect_err("39 bytes hold three PMCs");
        assert!(
            matches!(e, Error::Corrupt("PMC count exceeds payload size")),
            "{e:?}"
        );
        let pairs = |n_pairs: u64, rest: usize| {
            let mut buf = varints(&[1]);
            buf.extend_from_slice(&[0; 9]); // two sides and the flag
            put_u64(n_pairs, &mut buf);
            buf.resize(buf.len() + rest, 0);
            buf
        };
        assert_eq!(
            decode_pmc_set(&pairs(3, 6)).expect("three pairs").pmcs[0].pairs,
            [(0, 0); 3]
        );
        let e = decode_pmc_set(&pairs(4, 7)).expect_err("seven bytes hold three pairs");
        assert!(
            matches!(e, Error::Corrupt("pair count exceeds payload size")),
            "{e:?}"
        );
    }

    #[test]
    fn a_mebibyte_claiming_a_million_accesses_is_refused_before_reserving() {
        // 2^20 accesses of 96 bytes would be a 96 MiB reservation; the
        // bytes present can hold 2^17 at most.
        let mut payload = varints(&[0, 0, 1 << 20]);
        payload.resize(1 << 20, 0);
        let e = decode_profile(&payload).expect_err("refused");
        assert!(
            matches!(e, Error::Corrupt("access count exceeds payload size")),
            "{e:?}"
        );
    }
}
