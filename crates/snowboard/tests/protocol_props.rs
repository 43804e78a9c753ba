//! Property tests for the fleet wire protocol: the frame decoder and the
//! message parsers must map *every* byte sequence a hostile or partitioned
//! peer can produce — truncated, oversized, interleaved with garbage, or
//! pure noise — to a typed [`ProtocolError`], never a panic, and must
//! round-trip everything the encoder emits.

use std::io::Cursor;

use proptest::prelude::*;

use snowboard::{read_frame, write_frame, JoinMsg, ProtocolError, ServeMsg};

/// `[ -~]{0,max}`: printable ASCII.
fn printable_ascii(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(b' '..=b'~', 0..max + 1)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// What `\PC{0,max}` stood for, and a little more: Unicode without control
/// characters (`std` tells no other `C` category apart, so format,
/// private-use and unassigned code points stay in). A third each from ASCII,
/// from the first blocks past it (two-byte UTF-8) and from every plane; a
/// surrogate or a control becomes U+FFFD.
fn non_control(max: usize) -> impl Strategy<Value = String> {
    let scalar = prop_oneof![0x20u64..0x7F, 0xA0u64..0x250, 0u64..0x11_0000].prop_map(|c| {
        char::from_u32(c as u32)
            .filter(|c| !c.is_control())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    });
    prop::collection::vec(scalar, 0..max + 1).prop_map(|chars| chars.into_iter().collect())
}

/// `(\{"msg":"heartbeat"\}\n?){1,3}`: JSONL look-alikes, with and without
/// their newlines.
fn jsonl_lookalikes() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::bool::ANY, 1..4).prop_map(|newlines| {
        let line = |newline| {
            if newline {
                "{\"msg\":\"heartbeat\"}\n"
            } else {
                "{\"msg\":\"heartbeat\"}"
            }
        };
        newlines.into_iter().map(line).collect()
    })
}

/// Frame payloads exercising the interesting shapes: empty, embedded
/// newlines, non-ASCII, JSON-ish text, and plain noise.
fn arb_payload() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        printable_ascii(64),
        non_control(32),
        jsonl_lookalikes(),
    ]
}

/// Reads frames until EOF or the first error, with a hard cap so a decoder
/// bug can never turn a property case into an infinite loop.
fn drain(bytes: &[u8]) -> (Vec<String>, Option<ProtocolError>) {
    let mut r = Cursor::new(bytes.to_vec());
    let mut frames = Vec::new();
    for _ in 0..1024 {
        match read_frame(&mut r) {
            Ok(Some(p)) => frames.push(p),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
    panic!("decoder failed to terminate on {} bytes", bytes.len());
}

proptest! {
    /// Whatever the encoder writes, the decoder reads back verbatim, in
    /// order, ending with a clean EOF at the frame boundary.
    #[test]
    fn frames_round_trip(payloads in prop::collection::vec(arb_payload(), 0..8)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let (frames, err) = drain(&buf);
        prop_assert_eq!(err, None);
        prop_assert_eq!(frames, payloads);
    }

    /// Arbitrary bytes never panic the decoder: every outcome is a clean
    /// EOF, a decoded frame, or a typed error.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let (_frames, _err) = drain(&bytes);
    }

    /// Cutting a valid stream at any byte offset is either still clean
    /// (the cut landed on a frame boundary) or a typed error — a
    /// partition can sever a TCP stream anywhere.
    #[test]
    fn truncation_is_detected(
        payloads in prop::collection::vec(arb_payload(), 1..5),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let cut = cut.index(buf.len() + 1); // 0..=len: empty through intact
        let (frames, err) = drain(&buf[..cut]);
        prop_assert!(frames.len() <= payloads.len());
        for (got, want) in frames.iter().zip(&payloads) {
            prop_assert_eq!(got, want, "decoded frames must be unmangled prefixes");
        }
        match err {
            // A cut at a boundary decodes an intact prefix cleanly.
            None => prop_assert!(frames.len() <= payloads.len()),
            // Anywhere else must surface as a framing error, and decoding
            // must have stopped before inventing extra frames.
            Some(ProtocolError::Truncated { .. } | ProtocolError::BadFrame { .. }) => {
                prop_assert!(frames.len() < payloads.len())
            }
            Some(other) => prop_assert!(false, "unexpected error on truncation: {other}"),
        }
    }

    /// A declared length beyond the frame cap is rejected as `Oversized`
    /// without allocating the claimed buffer.
    #[test]
    fn oversized_lengths_are_rejected(
        extra in 1u64..u32::MAX as u64 - snowboard::protocol::MAX_FRAME_LEN as u64 + 1,
    ) {
        let len = snowboard::protocol::MAX_FRAME_LEN as u64 + extra;
        let mut bytes = (len as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"\0\0\0\0x");
        let (frames, err) = drain(&bytes);
        prop_assert!(frames.is_empty());
        prop_assert_eq!(err, Some(ProtocolError::Oversized { len }));
    }

    /// Garbage interleaved *between* valid frames is caught at the point
    /// of injection: the frames before it decode verbatim, the stream
    /// errors at the splice, and nothing panics.
    #[test]
    fn interleaved_garbage_is_caught(
        before in prop::collection::vec(arb_payload(), 0..4),
        noise in prop::collection::vec(any::<u8>(), 1..64),
        after in prop::collection::vec(arb_payload(), 0..4),
    ) {
        let mut buf = Vec::new();
        for p in &before {
            write_frame(&mut buf, p).unwrap();
        }
        buf.extend_from_slice(&noise);
        for p in &after {
            write_frame(&mut buf, p).unwrap();
        }
        let (frames, _err) = drain(&buf);
        for (got, want) in frames.iter().zip(&before).take(before.len()) {
            prop_assert_eq!(got, want, "pre-splice frames must decode verbatim");
        }
        // The splice may happen to parse as valid framing (e.g. noise that
        // is itself digits+newline), so only the prefix is guaranteed;
        // what matters is typed-or-clean, which `drain` already enforced.
    }

    /// The message parsers never panic on arbitrary frame payloads; any
    /// rejection is the typed `BadMessage` (the only error a syntactically
    /// intact frame can produce).
    #[test]
    fn message_parsers_never_panic(payload in non_control(128)) {
        if let Err(e) = JoinMsg::parse_line(&payload) {
            prop_assert!(matches!(e, ProtocolError::BadMessage { .. }), "got {e:?}");
        }
        if let Err(e) = ServeMsg::parse_line(&payload) {
            prop_assert!(matches!(e, ProtocolError::BadMessage { .. }), "got {e:?}");
        }
    }

    /// Fleet messages that *do* render survive a full frame round trip:
    /// render → frame → unframe → parse is the identity. The v7 handshake
    /// and lease carry no session token and no ack.
    #[test]
    fn framed_messages_round_trip(
        proto in any::<u64>(),
        config in any::<u64>(),
        heartbeat_ms in any::<u64>(),
        lease in any::<u64>(),
        jobs in prop::collection::vec(any::<usize>(), 0..8),
        deadline_ms in any::<u64>(),
    ) {
        let msgs = [
            JoinMsg::Join { proto, config },
            JoinMsg::Heartbeat,
            JoinMsg::Request,
            JoinMsg::Leaving { reason: format!("reason-{proto}") },
        ];
        let replies = [
            ServeMsg::Welcome { heartbeat_ms },
            ServeMsg::Lease { lease, jobs, deadline_ms },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, &m.render()).unwrap();
        }
        for m in &replies {
            write_frame(&mut buf, &m.render()).unwrap();
        }
        let mut r = Cursor::new(buf);
        for m in &msgs {
            let payload = read_frame(&mut r).unwrap().expect("frame present");
            prop_assert_eq!(&JoinMsg::parse_line(&payload).unwrap(), m);
        }
        for m in &replies {
            let payload = read_frame(&mut r).unwrap().expect("frame present");
            prop_assert_eq!(&ServeMsg::parse_line(&payload).unwrap(), m);
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None);
    }
}

/// A v3 peer framed each message as `<decimal len>\n<payload>\n`; under v4
/// its first frame is a typed framing error, so it never reaches the
/// handshake, let alone a lease.
#[test]
fn a_v3_ascii_frame_is_a_typed_error() {
    let (frames, err) = drain(b"19\n{\"msg\":\"heartbeat\"}\n");
    assert!(frames.is_empty());
    assert!(
        matches!(err, Some(ProtocolError::Oversized { .. })),
        "got {err:?}"
    );
}
