//! Arbitrary-bytes suite for `sb_obs::frame`, the one frame decoder under
//! store segments, the checkpoint log and the fleet
//! socket. Every property runs at both prefix lengths in use: 0 (the log
//! and the socket) and 8 (a segment record's content key).

use std::io::Cursor;

use proptest::prelude::*;

use sb_obs::frame::{self, Frame, ReadError, HEADER};

const PREFIXES: [usize; 2] = [0, 8];

/// Up to six frames: a prefix of the right length and a payload of 0–96
/// bytes each (a third of them empty).
fn arb_frames() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    let payload = prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 1..97),
        prop::collection::vec(any::<u8>(), 0..9),
    ];
    prop::collection::vec((any::<u64>(), payload), 0..7)
}

/// The stream of `frames` at `prefix_len`, and where each frame ends.
fn stream(frames: &[(u64, Vec<u8>)], prefix_len: usize) -> (Vec<u8>, Vec<usize>) {
    let mut out = Vec::new();
    let mut ends = Vec::new();
    for (key, payload) in frames {
        frame::push(&mut out, &key.to_le_bytes()[..prefix_len], payload).unwrap();
        ends.push(out.len());
    }
    (out, ends)
}

/// Every frame `split` finds walking from the start, with its offset.
fn walk(bytes: &[u8], prefix_len: usize) -> Vec<(usize, Frame<'_>)> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Some(f) = frame::split(&bytes[pos..], prefix_len) {
        assert!(pos + f.end <= bytes.len(), "a frame ends past the input");
        assert_eq!(f.end, prefix_len + HEADER + f.payload.len());
        frames.push((pos, f));
        pos += f.end;
    }
    frames
}

/// Every frame `read` takes off a stream of `bytes`, and how it stopped.
/// The cap is above any frame these tests write and keeps a random header
/// from allocating gigabytes.
fn read_all(bytes: &[u8], prefix_len: usize) -> (Vec<Vec<u8>>, Option<ReadError>) {
    let mut r = Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match frame::read(&mut r, prefix_len, 1 << 16) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

proptest! {
    /// What `push` lays out, `split` and `read` give back: the same
    /// prefixes and payloads, every frame intact, ending where the stream
    /// ends.
    #[test]
    fn push_then_split_round_trips(frames in arb_frames()) {
        for prefix_len in PREFIXES {
            let (bytes, ends) = stream(&frames, prefix_len);
            let found = walk(&bytes, prefix_len);
            prop_assert_eq!(found.len(), frames.len());
            for ((pos, f), ((key, payload), end)) in found.iter().zip(frames.iter().zip(&ends)) {
                prop_assert_eq!(f.prefix, &key.to_le_bytes()[..prefix_len]);
                prop_assert_eq!(f.payload, payload.as_slice());
                prop_assert_eq!(pos + f.end, *end);
                prop_assert!(f.intact());
            }
            let (read, stop) = read_all(&bytes, prefix_len);
            prop_assert!(stop.is_none(), "{stop:?}");
            let walked: Vec<&[u8]> = found.iter().map(|(pos, f)| &bytes[*pos..pos + f.end]).collect();
            prop_assert_eq!(read.iter().map(Vec::as_slice).collect::<Vec<_>>(), walked);
        }
    }

    /// Random bytes never panic either decoder, and neither yields a frame
    /// that ends past the input.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        for prefix_len in PREFIXES {
            for (_, f) in walk(&bytes, prefix_len) {
                let _ = f.intact();
            }
            let (read, _) = read_all(&bytes, prefix_len);
            prop_assert!(read.iter().map(Vec::len).sum::<usize>() <= bytes.len());
        }
    }

    /// Cut anywhere, a valid stream yields exactly the whole frames before
    /// the cut: `split` stops there, and `read` ends cleanly at a boundary
    /// and is `Truncated` anywhere else.
    #[test]
    fn every_truncation_yields_the_whole_frames_before_the_cut(frames in arb_frames()) {
        for prefix_len in PREFIXES {
            let (bytes, ends) = stream(&frames, prefix_len);
            for cut in 0..=bytes.len() {
                let whole = ends.iter().take_while(|&&end| end <= cut).count();
                let found = walk(&bytes[..cut], prefix_len);
                prop_assert_eq!(found.len(), whole, "cut at {}", cut);
                prop_assert!(found.iter().all(|(_, f)| f.intact()));
                let (read, stop) = read_all(&bytes[..cut], prefix_len);
                prop_assert_eq!(read.len(), whole, "cut at {}", cut);
                let at_boundary = cut == 0 || ends.contains(&cut);
                prop_assert!(
                    if at_boundary { stop.is_none() } else { matches!(stop, Some(ReadError::Truncated(_))) },
                    "cut at {}: {:?}", cut, stop
                );
            }
        }
    }

    /// Flipping any single bit of a frame leaves something that is no
    /// longer a frame or is not intact.
    #[test]
    fn every_flip_inside_a_frame_is_caught(frames in arb_frames(), bit in 0u8..8) {
        for prefix_len in PREFIXES {
            let (bytes, ends) = stream(&frames, prefix_len);
            let mut start = 0;
            for end in ends {
                for at in start..end {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    let f = frame::split(&flipped[start..], prefix_len);
                    prop_assert!(
                        f.is_none_or(|f| !f.intact()),
                        "bit {} of byte {} (frame at {})", bit, at, start
                    );
                }
                start = end;
            }
        }
    }

    /// A stream header declaring more than the reader's maximum is refused
    /// as `Oversized` with the reader just past the header: no payload byte
    /// was read.
    #[test]
    fn an_oversized_header_stops_the_reader_after_the_header(
        max in 0usize..4096,
        extra in 1u64..1 << 20,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        for prefix_len in PREFIXES {
            let declared = max as u64 + extra;
            let mut bytes = vec![0xA5; prefix_len];
            bytes.extend_from_slice(&(declared as u32).to_le_bytes());
            bytes.extend_from_slice(&[0; 4]);
            bytes.extend_from_slice(&tail);
            let mut r = Cursor::new(bytes.as_slice());
            let got = frame::read(&mut r, prefix_len, max);
            prop_assert!(matches!(got, Err(ReadError::Oversized(n)) if n == declared), "{got:?}");
            prop_assert_eq!(r.position(), (prefix_len + HEADER) as u64);
        }
    }
}
