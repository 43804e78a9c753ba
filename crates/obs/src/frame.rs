//! The one record frame of the workspace, and its only encoder and
//! decoder: `prefix ‖ len u32 LE ‖ crc u32 LE ‖ payload`, with `crc` the
//! CRC32C of `prefix ‖ len ‖ payload`.
//!
//! Store segment records carry their 8-byte content key as the prefix; the
//! checkpoint log and the fleet socket carry none
//! (DESIGN.md §16). [`push`] lays a frame out. [`split`] checks structure
//! only — a whole header and a payload inside the bytes given — and
//! [`Frame::intact`] checks the CRC, so a reader checksums only the frames
//! it acts on; a file's intact prefix ends at the first frame either
//! refuses. [`read`] takes one frame off a stream, refusing a length past
//! the caller's cap before it reads on.
//!
//! The per-record functions are `#[inline]`: the workspace builds without
//! LTO, and a segment record's write, scan and lookup call them across the
//! crate boundary (`store-cycle` read ~2.4 % slower with plain calls on a
//! 2-vCPU x86_64 VM).

use std::io::{BufRead, ErrorKind};

use crate::crc::Crc32c;

/// Bytes between a frame's prefix and its payload: `len` and `crc`.
pub const HEADER: usize = 8;

/// A payload longer than the `u32` length word can count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooLong;

/// Appends the frame of `payload` behind `prefix` to `out`.
#[inline]
pub fn push(out: &mut Vec<u8>, prefix: &[u8], payload: &[u8]) -> Result<(), TooLong> {
    let len = u32::try_from(payload.len()).map_err(|_| TooLong)?;
    let len = len.to_le_bytes();
    out.reserve(prefix.len() + HEADER + payload.len());
    out.extend_from_slice(prefix);
    out.extend_from_slice(&len);
    out.extend_from_slice(&checksum(prefix, len, payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

#[inline]
fn checksum(prefix: &[u8], len: [u8; 4], payload: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(prefix);
    c.update(&len);
    c.update(payload);
    c.finish()
}

/// The payload length declared by the frame at the start of `bytes`, whose
/// prefix is `prefix_len` bytes; `None` when the header is short.
#[inline]
pub fn declared_len(bytes: &[u8], prefix_len: usize) -> Option<usize> {
    let header = bytes.get(prefix_len..prefix_len.checked_add(HEADER)?)?;
    Some(u32::from_le_bytes(header[..4].try_into().ok()?) as usize)
}

/// One structurally whole frame, borrowed from the bytes it was split from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The caller's prefix.
    pub prefix: &'a [u8],
    /// The payload.
    pub payload: &'a [u8],
    /// Bytes from the frame's first byte to just past its payload.
    pub end: usize,
    crc: u32,
}

impl Frame<'_> {
    /// Whether the stored CRC matches the frame's bytes.
    #[inline]
    pub fn intact(&self) -> bool {
        let len = (self.payload.len() as u32).to_le_bytes();
        checksum(self.prefix, len, self.payload) == self.crc
    }
}

/// The frame at the start of `bytes`, whose prefix is `prefix_len` bytes;
/// `None` when the header is short or the payload runs past the end.
#[inline]
pub fn split(bytes: &[u8], prefix_len: usize) -> Option<Frame<'_>> {
    let start = prefix_len + HEADER;
    let end = start.checked_add(declared_len(bytes, prefix_len)?)?;
    Some(Frame {
        prefix: &bytes[..prefix_len],
        payload: bytes.get(start..end)?,
        end,
        crc: u32::from_le_bytes(bytes[start - 4..start].try_into().ok()?),
    })
}

/// Why [`read`] returned no frame.
#[derive(Debug)]
pub enum ReadError {
    /// The stream ended inside a frame's `"header"` or `"payload"`.
    Truncated(&'static str),
    /// The header declares a payload past the caller's cap; nothing after
    /// the header was read or allocated.
    Oversized(u64),
    /// The frame's CRC does not match its bytes.
    Damaged,
    /// The stream failed.
    Io(std::io::Error),
}

/// The next frame of a stream, whole (prefix and header included) and
/// intact; `Ok(None)` at a clean end of the stream between frames.
pub fn read(
    r: &mut impl BufRead,
    prefix_len: usize,
    max: usize,
) -> Result<Option<Vec<u8>>, ReadError> {
    let at_end = loop {
        match r.fill_buf() {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            peeked => break peeked.map_err(ReadError::Io)?.is_empty(),
        }
    };
    if at_end {
        return Ok(None);
    }
    let cut = |part| {
        move |e: std::io::Error| match e.kind() {
            ErrorKind::UnexpectedEof => ReadError::Truncated(part),
            _ => ReadError::Io(e),
        }
    };
    let start = prefix_len + HEADER;
    let mut buf = vec![0u8; start];
    r.read_exact(&mut buf).map_err(cut("header"))?;
    let len = declared_len(&buf, prefix_len).expect("a whole header");
    if len > max {
        return Err(ReadError::Oversized(len as u64));
    }
    buf.resize(start + len, 0);
    r.read_exact(&mut buf[start..]).map_err(cut("payload"))?;
    if !split(&buf, prefix_len).expect("a whole frame").intact() {
        return Err(ReadError::Damaged);
    }
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_layout_is_prefix_len_crc_payload() {
        let mut out = Vec::new();
        push(&mut out, &7u64.to_le_bytes(), b"abc").unwrap();
        assert_eq!(out.len(), 8 + HEADER + 3);
        assert_eq!(&out[..8], &7u64.to_le_bytes());
        assert_eq!(&out[8..12], &3u32.to_le_bytes());
        let mut whole = out[..12].to_vec();
        whole.extend_from_slice(b"abc");
        assert_eq!(&out[12..16], &crate::crc::crc32c(&whole).to_le_bytes());
        assert_eq!(&out[16..], b"abc");
        let f = split(&out, 8).unwrap();
        assert_eq!(
            (f.prefix, f.payload, f.end),
            (&out[..8], &b"abc"[..], out.len())
        );
        assert!(f.intact());
        assert_eq!(declared_len(&out, 8), Some(3));
        assert_eq!(declared_len(&out[..8 + HEADER], 8), Some(3));
        assert_eq!(declared_len(&out[..8 + HEADER - 1], 8), None);
        assert_eq!(split(&out[..out.len() - 1], 8), None);
    }
}
