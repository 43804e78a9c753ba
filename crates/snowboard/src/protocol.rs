//! The coordinator↔worker wire protocol of [`crate::fleet`] — the one remote
//! transport, whether the workers are `hunt join` peers of a `hunt serve`
//! or the children of `hunt --supervise`.
//!
//! A TCP stream has no message boundaries, and a partition can cut a
//! message anywhere, so traffic is *length-prefixed framed*:
//!
//! ```text
//! <decimal payload length>\n<payload>\n
//! ```
//!
//! [`read_frame`] distinguishes a clean end-of-stream at a frame boundary
//! (`Ok(None)`) from every way a hostile or partitioned peer can mangle
//! the stream — truncation mid-frame, an oversized or non-numeric length,
//! a missing terminator, non-UTF-8 payload — each of which is a typed
//! [`ProtocolError`], never a panic. Payloads are [`JoinMsg`]
//! (worker→coordinator) and [`ServeMsg`] (coordinator→worker), rendered
//! with the workspace's u64-exact [`crate::json`] codec and parsed strictly:
//! unknown discriminators, missing fields and mistyped fields are all
//! protocol errors. Verdicts travel in the JSON shape the checkpoint file
//! uses, so the coordinator merges them with the code paths it already
//! trusts.

use std::io::{BufRead, Read, Write};

use crate::campaign::{PmcTestOutcome, QuarantineRecord};
use crate::checkpoint::{
    outcome_from_json, outcome_to_json, quarantine_from_json, quarantine_to_json, req_u64,
};
use crate::json::{self, Json};

/// Version of the fleet wire protocol; a coordinator rejects joiners that
/// speak any other version instead of guessing at compatibility.
///
/// v2 added session resumption: `join` carries a worker-chosen session
/// token, `done`/`quarantine` carry a per-session sequence number plus a
/// redelivery flag, and `welcome`/`lease` carry the coordinator's highest
/// journaled sequence number (`ack`) so a reconnecting worker can trim its
/// result spool. v3 added the worker's process id to `join`, so a
/// supervising coordinator can kill the child behind a connection it
/// evicts. Older workers are cleanly rejected at the handshake.
pub const FLEET_PROTO_VERSION: u64 = 3;

/// Hard ceiling on one frame's payload (1 MiB). Real messages are a few
/// KiB; anything larger is a corrupt length prefix or an attack, and
/// honoring it would let one bad peer balloon coordinator memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Longest accepted length header (digits before the `\n`); 8 digits
/// already overshoots [`MAX_FRAME_LEN`], so more is garbage.
const MAX_HEADER_DIGITS: usize = 8;

/// A typed failure decoding fleet frames or messages. Decoding garbage
/// must yield one of these — never a panic — because the bytes come from
/// the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length prefix was not a plain decimal number.
    BadHeader {
        /// What the decoder saw instead.
        detail: String,
    },
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
    /// The payload was not followed by the `\n` terminator — the peer's
    /// framing is out of sync.
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
            ProtocolError::BadHeader { detail } => write!(f, "bad frame header: {detail}"),
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

/// Writes one length-prefixed frame and flushes it, so a frame is either
/// fully queued to the kernel or reported as an error.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + 12);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*; an
/// EOF anywhere inside a frame is [`ProtocolError::Truncated`]. Every
/// malformed input maps to a typed error — this function must not panic
/// on any byte sequence.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, ProtocolError> {
    // Header: decimal digits terminated by '\n', read byte-wise so a
    // mid-header cut is distinguishable from a boundary EOF.
    let mut header: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if header.is_empty() {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated {
                        context: "length header",
                    })
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if !byte[0].is_ascii_digit() {
                    return Err(ProtocolError::BadHeader {
                        detail: format!("unexpected byte 0x{:02x}", byte[0]),
                    });
                }
                if header.len() >= MAX_HEADER_DIGITS {
                    return Err(ProtocolError::BadHeader {
                        detail: format!("length header longer than {MAX_HEADER_DIGITS} digits"),
                    });
                }
                header.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(ProtocolError::Io {
                    detail: e.to_string(),
                })
            }
        }
    }
    if header.is_empty() {
        return Err(ProtocolError::BadHeader {
            detail: "empty length header".into(),
        });
    }
    // The digits are ASCII and capped at MAX_HEADER_DIGITS, so this parse
    // cannot overflow u64.
    let len: u64 =
        String::from_utf8_lossy(&header)
            .parse()
            .map_err(|_| ProtocolError::BadHeader {
                detail: "unparsable length".into(),
            })?;
    if len as usize > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, "payload")?;
    let mut terminator = [0u8; 1];
    read_exact_or(r, &mut terminator, "terminator")?;
    if terminator[0] != b'\n' {
        return Err(ProtocolError::BadFrame {
            detail: format!(
                "payload not terminated by newline (got 0x{:02x})",
                terminator[0]
            ),
        });
    }
    match String::from_utf8(payload) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(ProtocolError::BadMessage {
            detail: "payload is not UTF-8".into(),
        }),
    }
}

/// `read_exact` with EOF mapped to [`ProtocolError::Truncated`].
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), ProtocolError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated { context }
        } else {
            ProtocolError::Io {
                detail: e.to_string(),
            }
        }
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
        /// The worker's process id. A supervising coordinator admits only
        /// its own live children, and kills the one behind a connection it
        /// evicts.
        pid: u64,
    },
    /// Liveness signal, emitted on a fixed interval.
    Heartbeat,
    /// Ask for a lease of up to `max` jobs.
    Request {
        /// Most jobs the worker wants in one lease.
        max: usize,
    },
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
            JoinMsg::Request { .. } => "request",
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
                pid,
            } => Json::Obj(vec![
                msg,
                ("proto".into(), Json::U64(*proto)),
                ("config".into(), Json::U64(*config)),
                ("session".into(), Json::U64(*session)),
                ("pid".into(), Json::U64(*pid)),
            ]),
            JoinMsg::Heartbeat => Json::Obj(vec![msg]),
            JoinMsg::Request { max } => {
                Json::Obj(vec![msg, ("max".into(), Json::U64(*max as u64))])
            }
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
        let usize_field = |key: &str| -> Result<usize, ProtocolError> {
            req_u64(&doc, key)
                .and_then(|v| usize::try_from(v).map_err(|_| format!("'{key}' overflows usize")))
                .map_err(detail)
        };
        let bool_field = |key: &str| -> Result<bool, ProtocolError> {
            doc.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| detail(format!("missing field '{key}'")))
        };
        match kind {
            // `session` and `pid` are deliberately lenient (default 0): an
            // older worker's join must still parse so the version check can
            // send it a clean `reject` instead of evicting it for a schema
            // error.
            "join" => Ok(JoinMsg::Join {
                proto: req_u64(&doc, "proto").map_err(detail)?,
                config: req_u64(&doc, "config").map_err(detail)?,
                session: doc.get("session").and_then(Json::as_u64).unwrap_or(0),
                pid: doc.get("pid").and_then(Json::as_u64).unwrap_or(0),
            }),
            "heartbeat" => Ok(JoinMsg::Heartbeat),
            "request" => Ok(JoinMsg::Request {
                max: usize_field("max")?,
            }),
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
        /// Coordinator-assigned worker id (unique per join, stable for
        /// log correlation).
        worker: u64,
        /// Total jobs in the campaign universe.
        jobs: usize,
        /// Highest result sequence number the coordinator has journaled
        /// for this worker's session (0 for a fresh session). The worker
        /// drops spooled results at or below this before redelivering the
        /// rest.
        ack: u64,
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
            ServeMsg::Welcome { worker, jobs, ack } => Json::Obj(vec![
                msg,
                ("worker".into(), Json::U64(*worker)),
                ("jobs".into(), Json::U64(*jobs as u64)),
                ("ack".into(), Json::U64(*ack)),
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
                worker: req_u64(&doc, "worker").map_err(detail)?,
                jobs: usize::try_from(req_u64(&doc, "jobs").map_err(detail)?)
                    .map_err(|_| detail("'jobs' overflows usize".into()))?,
                ack: req_u64(&doc, "ack").map_err(detail)?,
            }),
            "reject" => Ok(ServeMsg::Reject {
                reason: reason_field(&doc)?,
            }),
            "lease" => {
                let jobs = doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| detail("lease without jobs array".into()))?
                    .iter()
                    .map(|j| {
                        j.as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| detail("non-numeric job in lease".into()))
                    })
                    .collect::<Result<Vec<usize>, ProtocolError>>()?;
                Ok(ServeMsg::Lease {
                    lease: req_u64(&doc, "lease").map_err(detail)?,
                    jobs,
                    deadline_ms: req_u64(&doc, "deadline_ms").map_err(detail)?,
                    ack: req_u64(&doc, "ack").map_err(detail)?,
                })
            }
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
        assert!(matches!(
            read(b"12\n"),
            Err(ProtocolError::Truncated { context: "payload" })
        ));
        assert!(matches!(
            read(b"12"),
            Err(ProtocolError::Truncated {
                context: "length header"
            })
        ));
        assert!(matches!(
            read(b"3\nabc"),
            Err(ProtocolError::Truncated {
                context: "terminator"
            })
        ));
        assert!(matches!(
            read(b"3\nabcX"),
            Err(ProtocolError::BadFrame { .. })
        ));
        assert!(matches!(read(b"x\n"), Err(ProtocolError::BadHeader { .. })));
        assert!(matches!(
            read(b"-3\nab\n"),
            Err(ProtocolError::BadHeader { .. })
        ));
        assert!(matches!(read(b"\n"), Err(ProtocolError::BadHeader { .. })));
        assert!(matches!(
            read(b"999999999\nx"),
            Err(ProtocolError::BadHeader { .. })
        ));
        assert!(matches!(
            read(b"99999999\nx"),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(matches!(
            read(b"2\n\xff\xfe\n"),
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
            pid: 4242,
        });
        join_roundtrip(JoinMsg::Heartbeat);
        join_roundtrip(JoinMsg::Request { max: 4 });
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
            worker: 7,
            jobs: 120,
            ack: 0,
        });
        serve_roundtrip(ServeMsg::Welcome {
            worker: 7,
            jobs: 120,
            ack: 42,
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
    fn v1_join_still_parses_for_a_clean_version_reject() {
        // A v1 worker's join has no `session` and no `pid`; it must parse
        // (both 0) so the coordinator can answer with a `reject` rather
        // than treating the old worker as a protocol violator.
        let msg = JoinMsg::parse_line("{\"msg\":\"join\",\"proto\":1,\"config\":99}").unwrap();
        assert_eq!(
            msg,
            JoinMsg::Join {
                proto: 1,
                config: 99,
                session: 0,
                pid: 0
            }
        );
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
            "{\"msg\":\"join\",\"proto\":\"x\",\"config\":1}",
            "{\"msg\":\"request\"}",
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
            "{\"msg\":\"welcome\",\"worker\":1}",
            "{\"msg\":\"welcome\",\"worker\":1,\"jobs\":9}",
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
