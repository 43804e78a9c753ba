//! The worker's result spool: completed-but-unacknowledged verdicts, in
//! memory and optionally on disk, until the coordinator acks them.

use std::collections::VecDeque;
use std::path::Path;

use crate::campaign::JobVerdict;
use crate::journal::FrameLog;
use crate::json::{self, Json};
use crate::protocol::JoinMsg;
use crate::retry::reseed;

/// The worker's undelivered-results ledger.
///
/// Every verdict is stamped with the session's next sequence number and
/// queued here *before* the first send attempt, so a lost coordinator
/// never loses a completed job: the frames ride out the outage in
/// `pending` (and, with [`super::JoinCfg::spool`], on disk) and are re-sent
/// with the `redelivery` flag raised after the next successful handshake.
/// The coordinator's ack watermarks — carried on `Welcome` and every
/// `Lease` — trim the queue.
pub(super) struct Outbox {
    /// This worker's session token (nonzero; adopted from the spool when
    /// it holds undelivered frames from a previous worker incarnation).
    pub(super) session: u64,
    /// Next sequence number to stamp (1-based, monotone per session).
    pub(super) next_seq: u64,
    /// Sent-but-unacked result frames, oldest first.
    pub(super) pending: VecDeque<JoinMsg>,
    /// On-disk mirror: a session stamp, then frames and ack watermarks.
    spool: Option<FrameLog>,
    /// Frames appended to the disk spool (for the summary).
    pub(super) spooled: u64,
}

impl Outbox {
    /// A fresh nonzero session token: splitmix of pid ⊕ wall clock. Not
    /// derived from the campaign seed on purpose — two workers joining
    /// with identical configs must not collide on a token.
    fn fresh_session() -> u64 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        reseed(u64::from(std::process::id()) ^ nanos, 1).max(1)
    }

    /// Opens the outbox: purely in-memory when `path` is `None`, else
    /// backed by the spool file. When the spool holds undelivered frames
    /// from a previous incarnation their session token is adopted so the
    /// coordinator recognizes the redeliveries; otherwise the spool is
    /// restamped for a fresh session.
    pub(super) fn open(path: Option<&Path>) -> Outbox {
        let mut out = Outbox {
            session: Self::fresh_session(),
            next_seq: 1,
            pending: VecDeque::new(),
            spool: None,
            spooled: 0,
        };
        let Some(path) = path else { return out };
        let Ok(rec) = FrameLog::open(path) else {
            return out;
        };
        let mut log = rec.log;
        let mut stored_session = 0u64;
        let mut acked = 0u64;
        let mut frames: Vec<JoinMsg> = Vec::new();
        for payload in &rec.records {
            let Ok(doc) = json::parse(payload) else {
                continue;
            };
            if doc.get("msg").is_some() {
                if let Ok(msg) = JoinMsg::parse_line(payload) {
                    if msg_seq(&msg).is_some() {
                        frames.push(msg);
                    }
                }
            } else if let Some(s) = doc.get("session").and_then(Json::as_u64) {
                stored_session = s;
                acked = 0;
                frames.clear();
            } else if let Some(a) = doc.get("ack").and_then(Json::as_u64) {
                acked = acked.max(a);
            }
        }
        let max_seq = frames.iter().filter_map(msg_seq).max().unwrap_or(0);
        let live: VecDeque<JoinMsg> = frames
            .into_iter()
            .filter(|m| msg_seq(m).unwrap_or(0) > acked)
            .collect();
        if stored_session != 0 && !live.is_empty() {
            // Undelivered frames survive: resume their session. next_seq
            // must clear even *acked* seqs — reusing one would make the
            // coordinator silently drop a fresh result as a duplicate.
            out.session = stored_session;
            out.next_seq = max_seq.max(acked) + 1;
            out.pending = live;
            out.spool = Some(log);
            return out;
        }
        if log.reset().is_ok() && log.append(&session_record(out.session)).is_ok() {
            out.spool = Some(log);
        }
        out
    }

    /// Stamps `job`'s verdict with the next seq, spools it, and queues it
    /// as pending. Returns the frame to send.
    pub(super) fn push(&mut self, job: usize, verdict: JobVerdict) -> JoinMsg {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = match verdict {
            JobVerdict::Completed(outcome) => JoinMsg::Done {
                job,
                outcome,
                seq,
                redelivery: false,
            },
            JobVerdict::Quarantined(record) => JoinMsg::Quarantine {
                record,
                seq,
                redelivery: false,
            },
        };
        if let Some(log) = self.spool.as_mut() {
            if log.append(&msg.render()).is_ok() {
                self.spooled += 1;
            } else {
                // A dying disk must not stop the campaign: fall back to
                // the in-memory queue (results then survive reconnects
                // but not a worker restart).
                self.spool = None;
            }
        }
        self.pending.push_back(msg.clone());
        msg
    }

    /// Applies a coordinator ack watermark: drops every pending frame
    /// with seq ≤ `ack`. When the queue empties the spool is compacted
    /// back to just the session stamp; otherwise the watermark itself is
    /// recorded so a restart skips the acked prefix.
    pub(super) fn ack(&mut self, ack: u64) {
        let before = self.pending.len();
        self.pending.retain(|m| msg_seq(m).is_none_or(|s| s > ack));
        if self.pending.len() == before {
            return;
        }
        if let Some(log) = self.spool.as_mut() {
            let ok = if self.pending.is_empty() {
                log.reset().is_ok() && log.append(&session_record(self.session)).is_ok()
            } else {
                log.append(&ack_record(ack)).is_ok()
            };
            if !ok {
                self.spool = None;
            }
        }
    }

    /// Every pending frame, re-marked for redelivery, oldest first.
    pub(super) fn redeliveries(&self) -> Vec<JoinMsg> {
        self.pending.iter().map(mark_redelivery).collect()
    }
}

/// The seq a result frame carries (`None` for non-result messages).
pub(super) fn msg_seq(msg: &JoinMsg) -> Option<u64> {
    match msg {
        JoinMsg::Done { seq, .. } | JoinMsg::Quarantine { seq, .. } => Some(*seq),
        _ => None,
    }
}

/// Clones a result frame with the `redelivery` flag raised.
fn mark_redelivery(msg: &JoinMsg) -> JoinMsg {
    match msg {
        JoinMsg::Done {
            job, outcome, seq, ..
        } => JoinMsg::Done {
            job: *job,
            outcome: outcome.clone(),
            seq: *seq,
            redelivery: true,
        },
        JoinMsg::Quarantine { record, seq, .. } => JoinMsg::Quarantine {
            record: record.clone(),
            seq: *seq,
            redelivery: true,
        },
        other => other.clone(),
    }
}

/// The spool's session-stamp record.
fn session_record(session: u64) -> String {
    format!("{{\"session\":{session}}}")
}

/// A spool ack-watermark record.
fn ack_record(ack: u64) -> String {
    format!("{{\"ack\":{ack}}}")
}
