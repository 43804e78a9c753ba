//! Sleeping-in-atomic detection.
//!
//! Kernel code must not sleep while in atomic context (spinlock held with
//! preemption disabled, interrupt context, ...). The engine records
//! [`SyncKind::AtomicEnter`]/[`SyncKind::AtomicExit`] and every sleep
//! commit, so the oracle is a per-thread depth reconstruction: a
//! [`SyncKind::SleepCommit`] while the committing thread's reconstructed
//! atomic depth is positive is a [`Finding::SleepInAtomic`], attributed to
//! the sleeping site and the innermost (most recent) atomic-enter site.

use std::collections::HashMap;

use sb_vmm::sync::{SyncEvent, SyncKind};

use crate::Finding;

/// Scans one execution's sync-event stream for sleeps committed inside
/// atomic context.
pub fn detect_sleep_in_atomic(events: &[SyncEvent]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Per thread: stack of atomic-enter site names.
    let mut atomic: HashMap<usize, Vec<String>> = HashMap::new();
    for e in events {
        match e.kind {
            SyncKind::AtomicEnter => {
                atomic
                    .entry(e.thread)
                    .or_default()
                    .push(e.site.display_name());
            }
            SyncKind::AtomicExit => {
                atomic.entry(e.thread).or_default().pop();
            }
            SyncKind::SleepCommit => {
                if let Some(enter_site) = atomic.get(&e.thread).and_then(|s| s.last()) {
                    out.push(Finding::SleepInAtomic {
                        site: e.site.display_name(),
                        enter_site: enter_site.clone(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::site;

    fn ev(seq: u64, thread: usize, name: &str, kind: SyncKind) -> SyncEvent {
        SyncEvent {
            seq,
            thread,
            site: site!(name),
            kind,
            obj: 0x7000,
            arg: 0,
        }
    }

    #[test]
    fn sleep_inside_atomic_is_reported_with_both_sites() {
        let events = vec![
            ev(0, 0, "sa:enter", SyncKind::AtomicEnter),
            ev(1, 0, "sa:sleep", SyncKind::SleepCommit),
            ev(2, 0, "sa:exit", SyncKind::AtomicExit),
        ];
        let f = detect_sleep_in_atomic(&events);
        assert_eq!(f.len(), 1);
        match &f[0] {
            Finding::SleepInAtomic { site, enter_site } => {
                assert_eq!(site, "sa:sleep");
                assert_eq!(enter_site, "sa:enter");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sleep_outside_atomic_is_fine() {
        let events = vec![
            ev(0, 0, "so:enter", SyncKind::AtomicEnter),
            ev(1, 0, "so:exit", SyncKind::AtomicExit),
            ev(2, 0, "so:sleep", SyncKind::SleepCommit),
        ];
        assert!(detect_sleep_in_atomic(&events).is_empty());
    }

    #[test]
    fn atomic_context_is_per_thread() {
        // Thread 0 is atomic; thread 1 sleeps. No finding.
        let events = vec![
            ev(0, 0, "pt:enter", SyncKind::AtomicEnter),
            ev(1, 1, "pt:sleep", SyncKind::SleepCommit),
        ];
        assert!(detect_sleep_in_atomic(&events).is_empty());
    }

    #[test]
    fn innermost_enter_site_is_blamed() {
        let events = vec![
            ev(0, 0, "in:outer", SyncKind::AtomicEnter),
            ev(1, 0, "in:inner", SyncKind::AtomicEnter),
            ev(2, 0, "in:sleep", SyncKind::SleepCommit),
        ];
        let f = detect_sleep_in_atomic(&events);
        assert_eq!(f.len(), 1);
        match &f[0] {
            Finding::SleepInAtomic { enter_site, .. } => assert_eq!(enter_site, "in:inner"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
