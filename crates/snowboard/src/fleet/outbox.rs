//! The worker's outbox: completed-but-unacknowledged verdicts, in memory,
//! until the coordinator acks them.

use std::collections::VecDeque;

use crate::campaign::JobVerdict;
use crate::protocol::JoinMsg;
use crate::retry::reseed;

/// The worker's undelivered-results ledger.
///
/// Every verdict is stamped with the session's next sequence number and
/// queued here *before* the first send attempt, so a lost coordinator
/// never loses a completed job: the frames ride out the outage in
/// `pending` and are re-sent with the `redelivery` flag raised after the
/// next successful handshake. The coordinator's ack watermarks — carried
/// on `Welcome` and every `Lease` — trim the queue. A verdict still queued
/// when the process ends is gone with it; the coordinator re-runs its job.
pub(super) struct Outbox {
    /// This worker's session token (nonzero).
    pub(super) session: u64,
    /// Next sequence number to stamp (1-based, monotone per session).
    pub(super) next_seq: u64,
    /// Sent-but-unacked result frames, oldest first.
    pub(super) pending: VecDeque<JoinMsg>,
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

    /// An empty outbox under a fresh session.
    pub(super) fn new() -> Outbox {
        Outbox {
            session: Self::fresh_session(),
            next_seq: 1,
            pending: VecDeque::new(),
        }
    }

    /// Stamps `job`'s verdict with the next seq and queues it as pending.
    /// Returns the frame to send.
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
        self.pending.push_back(msg.clone());
        msg
    }

    /// Applies a coordinator ack watermark: drops every pending frame
    /// with seq ≤ `ack`.
    pub(super) fn ack(&mut self, ack: u64) {
        self.pending.retain(|m| msg_seq(m).is_none_or(|s| s > ack));
    }

    /// Every pending frame, re-marked for redelivery, oldest first.
    pub(super) fn redeliveries(&self) -> Vec<JoinMsg> {
        self.pending.iter().map(mark_redelivery).collect()
    }
}

/// The seq a result frame carries (`None` for non-result messages).
fn msg_seq(msg: &JoinMsg) -> Option<u64> {
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
