//! Finding triage against the planted-bug registry.
//!
//! The paper's authors spent ~80 person-hours manually inspecting detector
//! reports to separate real bugs from benign races (§5.2); our ground-truth
//! registry plays that role mechanically: detector findings are matched to
//! Table 2 issue ids by console signature or racing-function pair.

use sb_detect::Finding;
use sb_kernel::bugs;

/// A distinct issue discovered by a campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct IssueRecord {
    /// Ground-truth Table 2 id, when the finding matches a planted issue.
    pub bug_id: Option<u8>,
    /// Deduplication key of the underlying finding.
    pub key: String,
    /// An example finding.
    pub example: Finding,
    /// How many concurrent tests had been executed when it was found.
    pub found_after_tests: usize,
    /// Cumulative engine steps when it was found (simulated time).
    pub found_after_steps: u64,
}

impl IssueRecord {
    /// Simulated days-to-find, given a steps-per-day calibration.
    pub fn days(&self, steps_per_day: u64) -> f64 {
        self.found_after_steps as f64 / steps_per_day as f64
    }

    /// True when the matched registry entry is harmful.
    pub fn harmful(&self) -> bool {
        self.bug_id
            .and_then(bugs::by_id)
            .map(|b| b.harmful)
            .unwrap_or(false)
    }
}

/// Matches one finding against the registry.
pub fn triage(f: &Finding) -> Option<u8> {
    match f {
        Finding::KernelPanic { msg } => bugs::match_console(msg),
        Finding::ConsoleError { line } => bugs::match_console(line),
        Finding::DataRace {
            write_site,
            other_site,
            ..
        } => bugs::match_race(write_site, other_site),
        Finding::Deadlock | Finding::Livelock => None,
        Finding::LockRuleViolation { site, .. } => bugs::match_lockrule(site),
        Finding::LockOrderInversion { first, second } => bugs::match_lockorder(first, second),
        Finding::MissedWakeup {
            wake_site,
            sleep_site,
            ..
        } => bugs::match_wakeup(wake_site, sleep_site),
        Finding::SleepInAtomic { site, enter_site } => bugs::match_sleep_atomic(site, enter_site),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_findings_triage_by_console() {
        let f = Finding::KernelPanic {
            msg: "BUG: kernel NULL pointer dereference, address: 0x10 at bh_lock_sock:acquire"
                .into(),
        };
        assert_eq!(triage(&f), Some(12));
    }

    #[test]
    fn race_findings_triage_by_function_pair() {
        let f = Finding::DataRace {
            write_site: "uart_do_autoconfig:set".into(),
            other_site: "tty_port_open:flags_read".into(),
            addr: 0x40,
        };
        assert_eq!(triage(&f), Some(14));
    }

    #[test]
    fn unknown_findings_triage_to_none() {
        let f = Finding::DataRace {
            write_site: "mystery:w".into(),
            other_site: "mystery:r".into(),
            addr: 0,
        };
        assert_eq!(triage(&f), None);
        assert_eq!(triage(&Finding::Deadlock), None);
    }

    #[test]
    fn oracle_findings_triage_to_their_planted_bugs() {
        let mw = Finding::MissedWakeup {
            queue: 0x9000,
            wake_site: "futex_wake:wake_up".into(),
            sleep_site: "futex_wait:queue_me".into(),
        };
        assert_eq!(triage(&mw), Some(18));
        let inv = Finding::LockOrderInversion {
            first: "ep_insert:ep_lock".into(),
            second: "ep_insert:wq_lock".into(),
        };
        assert_eq!(triage(&inv), Some(19));
        let sa = Finding::SleepInAtomic {
            site: "nbd_disconnect:wait_requests".into(),
            enter_site: "nbd_disconnect:spin_lock_irq".into(),
        };
        assert_eq!(triage(&sa), Some(20));
        let lr = Finding::LockRuleViolation {
            site: "vsock_stream_connect:set_established".into(),
            lock: "vsock.lock".into(),
            addr: 0,
        };
        assert_eq!(triage(&lr), Some(21));
        let unknown = Finding::MissedWakeup {
            queue: 0,
            wake_site: "mystery:wake".into(),
            sleep_site: "mystery:sleep".into(),
        };
        assert_eq!(triage(&unknown), None);
    }

    #[test]
    fn issue_record_day_conversion() {
        let rec = IssueRecord {
            bug_id: Some(13),
            key: "k".into(),
            example: Finding::Deadlock,
            found_after_tests: 10,
            found_after_steps: 500_000,
        };
        assert!((rec.days(1_000_000) - 0.5).abs() < 1e-9);
        assert!(!rec.harmful(), "#13 is benign");
    }
}
