//! Missed-wakeup detection.
//!
//! The lost-wakeup pattern: a waker delivers its signal *before* the
//! sleeper commits to sleeping (the sleeper checked its condition, the
//! waker ran in the window between check and sleep), so the signal reaches
//! nobody and the sleeper blocks until its timeout rescues it. The
//! execution engine gives us both halves directly in the sync-event
//! stream: a [`SyncKind::Wake`] with delivery count zero (the signal went
//! into the void) and a later [`SyncKind::SleepTimeout`] on the same wait
//! queue whose sleep was committed *after* the lost signal.
//!
//! A wake lost with no sleeper ever timing out is not reported (nobody was
//! harmed — e.g. a redundant wakeup), and a timeout with no earlier lost
//! wake is not reported either (nothing was ever sent); both halves must
//! line up, which keeps the oracle quiet on the stock workloads.

use sb_vmm::sync::{SyncEvent, SyncKind};

use crate::Finding;

/// Scans one execution's sync-event stream for lost wakeups that left a
/// sleeper to time out.
pub fn detect_missed_wakeups(events: &[SyncEvent]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != SyncKind::SleepTimeout {
            continue;
        }
        // The commit this timeout ends: latest SleepCommit by the same
        // thread on the same queue, at or before the timeout.
        let commit_idx = events[..i].iter().rposition(|c| {
            c.kind == SyncKind::SleepCommit && c.thread == e.thread && c.obj == e.obj
        });
        let Some(ci) = commit_idx else { continue };
        // A signal on this queue that reached nobody, delivered before the
        // sleeper was listening.
        let lost = events[..=ci]
            .iter()
            .find(|w| w.kind == SyncKind::Wake && w.obj == e.obj && w.arg == 0);
        if let Some(w) = lost {
            out.push(Finding::MissedWakeup {
                queue: e.obj,
                wake_site: w.site.display_name(),
                sleep_site: events[ci].site.display_name(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::site;

    const Q: u64 = 0x7000;

    fn ev(seq: u64, thread: usize, name: &str, kind: SyncKind, obj: u64, arg: u64) -> SyncEvent {
        SyncEvent {
            seq,
            thread,
            site: site!(name),
            kind,
            obj,
            arg,
        }
    }

    #[test]
    fn lost_wake_before_commit_plus_timeout_is_reported() {
        let events = vec![
            ev(0, 1, "mw:wake", SyncKind::Wake, Q, 0),
            ev(1, 0, "mw:sleep", SyncKind::SleepCommit, Q, 64),
            ev(70, 0, "mw:sleep", SyncKind::SleepTimeout, Q, 0),
        ];
        let f = detect_missed_wakeups(&events);
        assert_eq!(f.len(), 1);
        match &f[0] {
            Finding::MissedWakeup {
                queue,
                wake_site,
                sleep_site,
            } => {
                assert_eq!(*queue, Q);
                assert_eq!(wake_site, "mw:wake");
                assert_eq!(sleep_site, "mw:sleep");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delivered_wake_is_not_a_missed_wakeup() {
        // Signal reached a sleeper (arg 1); a later unrelated timeout on
        // the same queue is not blamed on it.
        let events = vec![
            ev(0, 1, "dw:wake", SyncKind::Wake, Q, 1),
            ev(1, 0, "dw:sleep", SyncKind::SleepCommit, Q, 64),
            ev(70, 0, "dw:sleep", SyncKind::SleepTimeout, Q, 0),
        ];
        assert!(detect_missed_wakeups(&events).is_empty());
    }

    #[test]
    fn lost_wake_after_the_commit_is_not_blamed() {
        // The sleeper was already committed when the signal was lost (it
        // must have been woken by something else or the queue ids differ);
        // only signals lost before the commit explain the timeout.
        let events = vec![
            ev(0, 0, "la:sleep", SyncKind::SleepCommit, Q, 64),
            ev(5, 1, "la:wake", SyncKind::Wake, 0x7777, 0),
            ev(70, 0, "la:sleep", SyncKind::SleepTimeout, Q, 0),
        ];
        assert!(detect_missed_wakeups(&events).is_empty());
    }

    #[test]
    fn timeout_without_any_wake_is_quiet() {
        let events = vec![
            ev(0, 0, "tq:sleep", SyncKind::SleepCommit, Q, 64),
            ev(70, 0, "tq:sleep", SyncKind::SleepTimeout, Q, 0),
        ];
        assert!(detect_missed_wakeups(&events).is_empty());
    }

    #[test]
    fn lost_wake_without_a_timeout_is_quiet() {
        let events = vec![ev(0, 1, "lw:wake", SyncKind::Wake, Q, 0)];
        assert!(detect_missed_wakeups(&events).is_empty());
    }
}
