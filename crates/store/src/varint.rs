//! LEB128 varints and zigzag wrapping-delta coding.
//!
//! Everything the store persists is a `u64`; access streams are highly
//! local (consecutive sequence numbers, repeated sites, nearby addresses),
//! so fields are stored as the zigzag of the *wrapping* difference from the
//! previous value. Wrapping arithmetic makes the transform a bijection on
//! `u64` — every pair of values round-trips exactly, including `0` and
//! `u64::MAX`.

use crate::Error;

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
pub fn put_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Why a decode stopped. Two words wide, so a `Result<u64, DecodeError>`
/// stays cheap on the per-varint path; decoders convert it to
/// [`Error`] once, at their public boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// The input ended inside a value.
    Truncated,
    /// The input is structurally invalid.
    Corrupt(&'static str),
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Error {
        match e {
            DecodeError::Truncated => Error::Truncated,
            DecodeError::Corrupt(detail) => Error::Corrupt(detail),
        }
    }
}

/// A read position in a byte buffer: the one varint reader.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    #[inline]
    pub(crate) fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint. Most fields of a local access stream fit
    /// one byte; longer ones take the out-of-line continuation.
    #[inline]
    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.u64_multibyte(),
        }
    }

    #[inline(never)]
    fn u64_multibyte(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let payload = u64::from(b & 0x7F);
            // The 10th byte carries bits 63.. — only 0 or 1 fit.
            if shift == 63 && payload > 1 {
                return Err(DecodeError::Corrupt("varint overflows u64"));
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::Corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a value encoded by [`put_delta`] against the same `prev`.
    #[inline]
    pub(crate) fn delta(&mut self, prev: u64) -> Result<u64, DecodeError> {
        Ok(prev.wrapping_add(unzigzag(self.u64()?) as u64))
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing `*pos`.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, Error> {
    let mut cur = Cursor { buf, pos: *pos };
    let v = cur.u64();
    *pos = cur.pos;
    Ok(v?)
}

/// Maps a signed delta to an unsigned varint-friendly value
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn zigzag(d: i64) -> u64 {
    ((d as u64) << 1) ^ ((d >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends `cur` encoded as the zigzag wrapping delta from `prev`.
pub fn put_delta(prev: u64, cur: u64, out: &mut Vec<u8>) {
    put_u64(zigzag(cur.wrapping_sub(prev) as i64), out);
}

/// Reads a value encoded by [`put_delta`] against the same `prev`.
pub fn get_delta(prev: u64, buf: &[u8], pos: &mut usize) -> Result<u64, Error> {
    Ok(prev.wrapping_add(unzigzag(get_u64(buf, pos)?) as u64))
}

/// The byte-at-a-time reader [`Cursor::u64`] replaced, kept as the
/// reference the arbitrary-bytes suite compares it with.
#[cfg(test)]
pub(crate) fn reference_get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, Error> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(Error::Truncated)?;
        *pos += 1;
        let payload = u64::from(b & 0x7F);
        if shift == 63 && payload > 1 {
            return Err(Error::Corrupt("varint overflows u64"));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corrupt("varint longer than 10 bytes"));
        }
    }
}

#[cfg(test)]
pub(crate) fn reference_get_delta(prev: u64, buf: &[u8], pos: &mut usize) -> Result<u64, Error> {
    Ok(prev.wrapping_add(unzigzag(reference_get_u64(buf, pos)?) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = vec![];
            put_u64(v, &mut buf);
            let mut pos = 0;
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = vec![];
        put_u64(u64::MAX, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(matches!(get_u64(&buf[..cut], &mut pos), Err(Error::Truncated)));
        }
        // 10 continuation bytes then a terminator: too long.
        let long = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        let mut pos = 0;
        assert!(get_u64(&long, &mut pos).is_err());
        // 10th byte with payload > 1 overflows bit 63.
        let wide = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut pos = 0;
        assert!(get_u64(&wide, &mut pos).is_err());
    }

    #[test]
    fn delta_round_trips_any_pair() {
        let pairs = [
            (0u64, 0u64),
            (0, u64::MAX),
            (u64::MAX, 0),
            (5, 3),
            (3, 5),
            (u64::MAX, u64::MAX),
            (1 << 63, (1 << 63) - 1),
        ];
        for (prev, cur) in pairs {
            let mut buf = vec![];
            put_delta(prev, cur, &mut buf);
            let mut pos = 0;
            assert_eq!(get_delta(prev, &buf, &mut pos).unwrap(), cur, "{prev} -> {cur}");
        }
    }

    #[test]
    fn small_deltas_stay_small() {
        let mut buf = vec![];
        put_delta(1000, 1001, &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_delta(1001, 1000, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn zigzag_is_a_bijection_on_edges() {
        for d in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
