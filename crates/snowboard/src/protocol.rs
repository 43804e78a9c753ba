//! The coordinator↔worker wire protocol of [`crate::fleet`] — the one remote
//! transport, between a `hunt serve` coordinator and its `hunt join`
//! workers.
//!
//! A TCP stream has no message boundaries, and a partition can cut a
//! message anywhere, so each message travels as one [`sb_obs::frame`]
//! frame, the one the checkpoint log and the worker spool write:
//!
//! ```text
//! [len u32 LE][crc u32 LE][payload]      crc = CRC32C(len ‖ payload)
//! ```
//!
//! [`read_frame`] distinguishes a clean end-of-stream at a frame boundary
//! (`Ok(None)`) from every way a hostile or partitioned peer can mangle
//! the stream — truncation mid-frame, an oversized length, a checksum
//! that does not match, non-UTF-8 payload — each of which is a typed
//! [`ProtocolError`], never a panic. A v3 peer's ASCII `<len>\n` header
//! reads as a length far past [`MAX_FRAME_LEN`]: it fails at framing,
//! before any handshake. Payloads are [`JoinMsg`]
//! (worker→coordinator) and [`ServeMsg`] (coordinator→worker), rendered
//! with the workspace's u64-exact [`crate::json`] codec and parsed strictly:
//! unknown discriminators, missing fields and mistyped fields are all
//! protocol errors. Verdicts travel in the JSON shape the checkpoint file
//! uses, so the coordinator merges them with the code paths it already
//! trusts.

use std::io::{BufRead, Write};

use sb_obs::frame;

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::checkpoint::{
    outcome_from_json, outcome_to_json, quarantine_from_json, quarantine_to_json, req_u64,
    req_uints,
};
use crate::json::{self, Json};

/// Version of the fleet wire protocol; a coordinator rejects joiners that
/// speak any other version instead of guessing at compatibility.
///
/// v2 added session resumption: `join` carries a worker-chosen session
/// token, `done`/`quarantine` carry a per-session sequence number plus a
/// redelivery flag, and `welcome`/`lease` carry the coordinator's highest
/// journaled sequence number (`ack`) so a reconnecting worker can trim its
/// result spool. v3 added the worker's process id to `join`, for a
/// coordinator that supervised its workers as child processes. v4 replaced the ASCII `<len>\n<payload>\n` framing with the
/// CRC32C frame; a v3 peer's first frame is a framing error, so it is
/// dropped before any handshake or lease. v5 made the coordinator the only
/// owner of the heartbeat interval and the lease size: `welcome` carries
/// the interval (and no longer the worker id or universe size), and
/// `request` carries no size. v6 dropped the process id from `join`: no
/// coordinator owns its workers' processes any more.
pub const FLEET_PROTO_VERSION: u64 = 6;

/// Hard ceiling on one frame's payload (1 MiB). Real messages are a few
/// KiB; anything larger is a corrupt length prefix or an attack, and
/// honoring it would let one bad peer balloon coordinator memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A typed failure decoding fleet frames or messages. Decoding garbage
/// must yield one of these — never a panic — because the bytes come from
/// the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared length.
        len: u64,
    },
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The frame's checksum does not match its bytes — the peer's framing
    /// is out of sync, or the bytes were damaged.
    BadFrame {
        /// What was wrong.
        detail: String,
    },
    /// The frame arrived intact but its payload violates the message
    /// schema (bad JSON, unknown discriminator, missing field).
    BadMessage {
        /// What was wrong.
        detail: String,
    },
    /// The underlying socket failed (including read timeouts).
    Io {
        /// Rendered I/O error.
        detail: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
            ProtocolError::Truncated { context } => {
                write!(f, "stream truncated mid-frame ({context})")
            }
            ProtocolError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
            ProtocolError::BadMessage { detail } => write!(f, "bad message: {detail}"),
            ProtocolError::Io { detail } => write!(f, "socket error: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Writes one frame and flushes it, so a frame is either fully queued to
/// the kernel or reported as an error.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut buf = Vec::new();
    frame::push(&mut buf, &[], payload.as_bytes()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds 4 GiB")
    })?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*; an
/// EOF anywhere inside a frame is [`ProtocolError::Truncated`]. A length
/// past [`MAX_FRAME_LEN`] is refused after the header, before anything is
/// allocated for the payload. Every malformed input maps to a typed error —
/// this function must not panic on any byte sequence.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, ProtocolError> {
    let Some(mut buf) = frame::read(r, 0, MAX_FRAME_LEN).map_err(|e| match e {
        frame::ReadError::Truncated(context) => ProtocolError::Truncated { context },
        frame::ReadError::Oversized(len) => ProtocolError::Oversized { len },
        frame::ReadError::Damaged => ProtocolError::BadFrame {
            detail: "checksum mismatch".into(),
        },
        frame::ReadError::Io(e) => ProtocolError::Io {
            detail: e.to_string(),
        },
    })?
    else {
        return Ok(None);
    };
    buf.drain(..frame::HEADER);
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtocolError::BadMessage {
            detail: "payload is not UTF-8".into(),
        })
}

/// One worker→coordinator fleet message (one frame on the socket).
#[derive(Clone, Debug, PartialEq)]
pub enum JoinMsg {
    /// First frame on a connection: the handshake. The coordinator rejects
    /// a protocol or config-hash mismatch instead of merging results that
    /// were computed under different campaign parameters.
    Join {
        /// The worker's [`FLEET_PROTO_VERSION`].
        proto: u64,
        /// Fingerprint of every campaign-shaping parameter
        /// (see [`crate::fleet::config_fingerprint`]).
        config: u64,
        /// Worker-chosen session token, stable across reconnects of the
        /// same worker process. A coordinator that has journaled results
        /// under this session acks them in the `welcome`, letting the
        /// worker trim its spool instead of redelivering everything.
        session: u64,
    },
    /// Liveness signal, emitted on a fixed interval.
    Heartbeat,
    /// Ask for a lease; the coordinator decides its size.
    Request,
    /// Job `job` completed with an outcome.
    Done {
        /// Campaign job index.
        job: usize,
        /// The completed outcome.
        outcome: PmcTestOutcome,
        /// Per-session result sequence number (1-based, monotone over
        /// `done`/`quarantine` frames only). The coordinator journals a
        /// result before advancing its ack past this number.
        seq: u64,
        /// True when this frame is a spooled re-send after a reconnect;
        /// the coordinator counts these as `fleet.redelivered`.
        redelivery: bool,
    },
    /// A job failed permanently in-process and was quarantined by the
    /// worker itself.
    Quarantine {
        /// The quarantine record (carries its own job index).
        record: QuarantineRecord,
        /// Per-session result sequence number (shared counter with
        /// [`JoinMsg::Done`]).
        seq: u64,
        /// True when this frame is a spooled re-send after a reconnect.
        redelivery: bool,
    },
    /// Clean goodbye (drain acknowledged, or stop-file shutdown). A
    /// connection that ends without this is an eviction.
    Leaving {
        /// Why the worker is going.
        reason: String,
    },
}

impl JoinMsg {
    /// The `msg` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            JoinMsg::Join { .. } => "join",
            JoinMsg::Heartbeat => "heartbeat",
            JoinMsg::Request => "request",
            JoinMsg::Done { .. } => "done",
            JoinMsg::Quarantine { .. } => "quarantine",
            JoinMsg::Leaving { .. } => "leaving",
        }
    }

    /// Renders the message as one JSON object.
    pub fn to_json(&self) -> Json {
        let msg = ("msg".to_string(), Json::Str(self.kind().to_owned()));
        match self {
            JoinMsg::Join {
                proto,
                config,
                session,
            } => Json::Obj(vec![
                msg,
                ("proto".into(), Json::U64(*proto)),
                ("config".into(), Json::U64(*config)),
                ("session".into(), Json::U64(*session)),
            ]),
            JoinMsg::Heartbeat | JoinMsg::Request => Json::Obj(vec![msg]),
            JoinMsg::Done {
                job,
                outcome,
                seq,
                redelivery,
            } => Json::Obj(vec![
                msg,
                // The checkpoint-shaped outcome object; the job index is
                // embedded in it.
                ("outcome".into(), outcome_to_json(*job, outcome)),
                ("seq".into(), Json::U64(*seq)),
                ("redelivery".into(), Json::Bool(*redelivery)),
            ]),
            JoinMsg::Quarantine {
                record,
                seq,
                redelivery,
            } => Json::Obj(vec![
                msg,
                ("record".into(), quarantine_to_json(record)),
                ("seq".into(), Json::U64(*seq)),
                ("redelivery".into(), Json::Bool(*redelivery)),
            ]),
            JoinMsg::Leaving { reason } => {
                Json::Obj(vec![msg, ("reason".into(), Json::Str(reason.clone()))])
            }
        }
    }

    /// Renders the message as one frame payload.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses and schema-validates one frame payload.
    pub fn parse_line(line: &str) -> Result<JoinMsg, ProtocolError> {
        let detail = |d: String| ProtocolError::BadMessage { detail: d };
        let doc = json::parse(line).map_err(detail)?;
        let kind = doc
            .get("msg")
            .and_then(Json::as_str)
            .ok_or_else(|| detail("missing 'msg' discriminator".into()))?;
        let bool_field = |key: &str| -> Result<bool, ProtocolError> {
            doc.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| detail(format!("missing field '{key}'")))
        };
        match kind {
            "join" => Ok(JoinMsg::Join {
                proto: req_u64(&doc, "proto").map_err(detail)?,
                config: req_u64(&doc, "config").map_err(detail)?,
                session: req_u64(&doc, "session").map_err(detail)?,
            }),
            "heartbeat" => Ok(JoinMsg::Heartbeat),
            "request" => Ok(JoinMsg::Request),
            "done" => {
                let outcome = doc
                    .get("outcome")
                    .ok_or_else(|| detail("done without outcome".into()))?;
                let (job, outcome) = outcome_from_json(outcome).map_err(detail)?;
                Ok(JoinMsg::Done {
                    job,
                    outcome,
                    seq: req_u64(&doc, "seq").map_err(detail)?,
                    redelivery: bool_field("redelivery")?,
                })
            }
            "quarantine" => {
                let record = doc
                    .get("record")
                    .ok_or_else(|| detail("quarantine without record".into()))?;
                Ok(JoinMsg::Quarantine {
                    record: quarantine_from_json(record).map_err(detail)?,
                    seq: req_u64(&doc, "seq").map_err(detail)?,
                    redelivery: bool_field("redelivery")?,
                })
            }
            "leaving" => Ok(JoinMsg::Leaving {
                reason: doc
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or_else(|| detail("leaving without reason".into()))?
                    .to_owned(),
            }),
            other => Err(detail(format!("unknown fleet message '{other}'"))),
        }
    }
}

/// One coordinator→worker fleet message (one frame on the socket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeMsg {
    /// Handshake accepted; the worker is registered.
    Welcome {
        /// Highest result sequence number the coordinator has journaled
        /// for this worker's session (0 for a fresh session). The worker
        /// drops spooled results at or below this before redelivering the
        /// rest.
        ack: u64,
        /// The interval, in milliseconds, at which the worker must
        /// heartbeat (see [`crate::fleet::heartbeat_interval`]).
        heartbeat_ms: u64,
    },
    /// Handshake refused (version or config mismatch, or the coordinator
    /// is draining). The worker must not retry this coordinator.
    Reject {
        /// Why the worker was turned away.
        reason: String,
    },
    /// A batch of jobs leased to this worker. An empty `jobs` list means
    /// "nothing available right now — ask again shortly".
    Lease {
        /// Lease id (coordinator-unique).
        lease: u64,
        /// The leased campaign job indices.
        jobs: Vec<usize>,
        /// Milliseconds until the coordinator reclaims unfinished jobs.
        deadline_ms: u64,
        /// Highest journaled result sequence number for this session —
        /// a mid-session ack so the worker can trim its spool without
        /// waiting for a reconnect.
        ack: u64,
    },
    /// The coordinator is shutting down (campaign complete or stop file);
    /// the worker should say [`JoinMsg::Leaving`] and exit cleanly.
    Drain {
        /// Why the fleet is draining.
        reason: String,
    },
}

impl ServeMsg {
    /// The `msg` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeMsg::Welcome { .. } => "welcome",
            ServeMsg::Reject { .. } => "reject",
            ServeMsg::Lease { .. } => "lease",
            ServeMsg::Drain { .. } => "drain",
        }
    }

    /// Renders the message as one JSON object.
    pub fn to_json(&self) -> Json {
        let msg = ("msg".to_string(), Json::Str(self.kind().to_owned()));
        match self {
            ServeMsg::Welcome { ack, heartbeat_ms } => Json::Obj(vec![
                msg,
                ("ack".into(), Json::U64(*ack)),
                ("heartbeat_ms".into(), Json::U64(*heartbeat_ms)),
            ]),
            ServeMsg::Reject { reason } => {
                Json::Obj(vec![msg, ("reason".into(), Json::Str(reason.clone()))])
            }
            ServeMsg::Lease {
                lease,
                jobs,
                deadline_ms,
                ack,
            } => Json::Obj(vec![
                msg,
                ("lease".into(), Json::U64(*lease)),
                (
                    "jobs".into(),
                    Json::Arr(jobs.iter().map(|j| Json::U64(*j as u64)).collect()),
                ),
                ("deadline_ms".into(), Json::U64(*deadline_ms)),
                ("ack".into(), Json::U64(*ack)),
            ]),
            ServeMsg::Drain { reason } => {
                Json::Obj(vec![msg, ("reason".into(), Json::Str(reason.clone()))])
            }
        }
    }

    /// Renders the message as one frame payload.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses and schema-validates one frame payload.
    pub fn parse_line(line: &str) -> Result<ServeMsg, ProtocolError> {
        let detail = |d: String| ProtocolError::BadMessage { detail: d };
        let doc = json::parse(line).map_err(detail)?;
        let kind = doc
            .get("msg")
            .and_then(Json::as_str)
            .ok_or_else(|| detail("missing 'msg' discriminator".into()))?;
        let reason_field = |doc: &Json| -> Result<String, ProtocolError> {
            doc.get("reason")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| detail(format!("{kind} without reason")))
        };
        match kind {
            "welcome" => Ok(ServeMsg::Welcome {
                ack: req_u64(&doc, "ack").map_err(detail)?,
                heartbeat_ms: req_u64(&doc, "heartbeat_ms").map_err(detail)?,
            }),
            "reject" => Ok(ServeMsg::Reject {
                reason: reason_field(&doc)?,
            }),
            "lease" => Ok(ServeMsg::Lease {
                lease: req_u64(&doc, "lease").map_err(detail)?,
                jobs: req_uints(&doc, "jobs").map_err(detail)?,
                deadline_ms: req_u64(&doc, "deadline_ms").map_err(detail)?,
                ack: req_u64(&doc, "ack").map_err(detail)?,
            }),
            "drain" => Ok(ServeMsg::Drain {
                reason: reason_field(&doc)?,
            }),
            other => Err(detail(format!("unknown fleet message '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;

    fn outcome() -> PmcTestOutcome {
        PmcTestOutcome {
            pmc: Some(7),
            pair: (1, 2),
            trials_run: 24,
            exercised: true,
            findings: vec![sb_detect::Finding::Deadlock],
            steps: 9000,
            first_finding_trial: Some(3),
            repro_schedule: None,
            attempts: 2,
        }
    }

    fn frame_roundtrip(payloads: &[&str]) {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for p in payloads {
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(*p));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn frames_round_trip() {
        frame_roundtrip(&[""]);
        frame_roundtrip(&["{\"msg\":\"heartbeat\"}"]);
        frame_roundtrip(&["a", "payload\nwith\nnewlines", "", "ünïcode"]);
    }

    #[test]
    fn frame_decoder_rejects_mangled_streams() {
        let read = |bytes: &[u8]| read_frame(&mut std::io::Cursor::new(bytes.to_vec()));
        let mut abc = Vec::new();
        write_frame(&mut abc, "abc").unwrap();
        assert!(matches!(
            read(&abc[..5]),
            Err(ProtocolError::Truncated { context: "header" })
        ));
        assert!(matches!(
            read(&abc[..9]),
            Err(ProtocolError::Truncated { context: "payload" })
        ));
        let mut flipped = abc.clone();
        flipped[9] ^= 0x01;
        assert!(matches!(
            read(&flipped),
            Err(ProtocolError::BadFrame { .. })
        ));
        let mut oversized = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 4]);
        assert!(matches!(
            read(&oversized),
            Err(ProtocolError::Oversized { .. })
        ));
        // A v3 peer's ASCII header is a length past the cap.
        assert!(matches!(
            read(b"19\n{\"msg\":\"heartbeat\"}\n"),
            Err(ProtocolError::Oversized { .. })
        ));
        let mut not_utf8 = Vec::new();
        frame::push(&mut not_utf8, &[], b"\xff\xfe").unwrap();
        assert!(matches!(
            read(&not_utf8),
            Err(ProtocolError::BadMessage { .. })
        ));
    }

    fn join_roundtrip(msg: JoinMsg) {
        let line = msg.render();
        assert_eq!(JoinMsg::parse_line(&line).unwrap(), msg, "line: {line}");
    }

    fn serve_roundtrip(msg: ServeMsg) {
        let line = msg.render();
        assert_eq!(ServeMsg::parse_line(&line).unwrap(), msg, "line: {line}");
    }

    #[test]
    fn fleet_messages_round_trip() {
        join_roundtrip(JoinMsg::Join {
            proto: FLEET_PROTO_VERSION,
            config: u64::MAX,
            session: 0xDEAD_BEEF,
        });
        join_roundtrip(JoinMsg::Heartbeat);
        join_roundtrip(JoinMsg::Request);
        join_roundtrip(JoinMsg::Done {
            job: 42,
            outcome: outcome(),
            seq: 7,
            redelivery: false,
        });
        join_roundtrip(JoinMsg::Done {
            job: 43,
            outcome: outcome(),
            seq: 8,
            redelivery: true,
        });
        join_roundtrip(JoinMsg::Quarantine {
            record: QuarantineRecord {
                job: 9,
                pmc: Some(3),
                attempts: 3,
                kind: FailureKind::Hang,
                chain: vec!["job hang: watchdog tripped".into()],
            },
            seq: 9,
            redelivery: true,
        });
        join_roundtrip(JoinMsg::Leaving {
            reason: "drained".into(),
        });
        serve_roundtrip(ServeMsg::Welcome {
            ack: 0,
            heartbeat_ms: 25,
        });
        serve_roundtrip(ServeMsg::Welcome {
            ack: 42,
            heartbeat_ms: 2_500,
        });
        serve_roundtrip(ServeMsg::Reject {
            reason: "config mismatch".into(),
        });
        serve_roundtrip(ServeMsg::Lease {
            lease: 3,
            jobs: vec![],
            deadline_ms: 1,
            ack: 0,
        });
        serve_roundtrip(ServeMsg::Lease {
            lease: 4,
            jobs: vec![0, 5, 17],
            deadline_ms: 30_000,
            ack: 11,
        });
        serve_roundtrip(ServeMsg::Drain {
            reason: "campaign complete".into(),
        });
    }

    #[test]
    fn fleet_messages_reject_schema_violations() {
        let done_no_seq = format!(
            "{{\"msg\":\"done\",\"outcome\":{},\"redelivery\":false}}",
            outcome_to_json(42, &outcome()).render()
        );
        let done_no_redelivery = format!(
            "{{\"msg\":\"done\",\"outcome\":{},\"seq\":1}}",
            outcome_to_json(42, &outcome()).render()
        );
        for line in [
            "not json",
            "{\"msg\":\"nope\"}",
            "{\"job\":1}",
            "{\"msg\":\"join\",\"proto\":1}",
            "{\"msg\":\"join\",\"proto\":1,\"config\":99}",
            "{\"msg\":\"join\",\"proto\":6,\"config\":99,\"pid\":1}",
            "{\"msg\":\"join\",\"proto\":\"x\",\"config\":1}",
            "{\"msg\":\"done\"}",
            done_no_seq.as_str(),
            done_no_redelivery.as_str(),
            "{\"msg\":\"quarantine\"}",
            "{\"msg\":\"leaving\"}",
        ] {
            assert!(
                matches!(
                    JoinMsg::parse_line(line),
                    Err(ProtocolError::BadMessage { .. })
                ),
                "line: {line}"
            );
        }
        for line in [
            "not json",
            "{\"msg\":\"hello\"}",
            "{\"msg\":\"welcome\",\"ack\":1}",
            "{\"msg\":\"welcome\",\"heartbeat_ms\":25}",
            "{\"msg\":\"welcome\",\"ack\":1,\"heartbeat_ms\":\"x\"}",
            "{\"msg\":\"reject\"}",
            "{\"msg\":\"lease\",\"lease\":1,\"deadline_ms\":5}",
            "{\"msg\":\"lease\",\"lease\":1,\"jobs\":[\"x\"],\"deadline_ms\":5}",
            "{\"msg\":\"lease\",\"lease\":1,\"jobs\":[2],\"deadline_ms\":5}",
            "{\"msg\":\"drain\"}",
        ] {
            assert!(
                matches!(
                    ServeMsg::parse_line(line),
                    Err(ProtocolError::BadMessage { .. })
                ),
                "line: {line}"
            );
        }
    }
}
