//! Ground-truth registry of the planted concurrency issues.
//!
//! Table 2 of the paper lists 17 issues (14 bugs + 3 benign data races).
//! Each has a structurally faithful counterpart planted in this simulated
//! kernel; this module is the oracle the experiment harness uses to map raw
//! detector reports (console lines, data-race site pairs) back to issue ids
//! and to classify them as harmful or benign — the role the authors' 80
//! person-hours of manual inspection play in §5.2.

use crate::KernelVersion;

/// Concurrency-bug classes, following Lu et al.'s taxonomy used in Table 2.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BugKind {
    /// Data race.
    DataRace,
    /// Atomicity violation.
    AtomicityViolation,
    /// Order violation.
    OrderViolation,
    /// Missed (lost) wakeup.
    MissedWakeup,
    /// Lock-protection rule violation.
    LockRule,
    /// Lock acquisition-order inversion.
    LockInversion,
    /// Sleeping in atomic context.
    SleepAtomic,
}

impl std::fmt::Display for BugKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BugKind::DataRace => write!(f, "DR"),
            BugKind::AtomicityViolation => write!(f, "AV"),
            BugKind::OrderViolation => write!(f, "OV"),
            BugKind::MissedWakeup => write!(f, "MW"),
            BugKind::LockRule => write!(f, "LR"),
            BugKind::LockInversion => write!(f, "LI"),
            BugKind::SleepAtomic => write!(f, "SA"),
        }
    }
}

/// How a planted issue manifests to the stock detectors.
#[derive(Clone, Debug)]
pub enum Signature {
    /// A kernel console line containing this substring.
    Console(&'static str),
    /// A data race between two kernel functions (site-name function parts,
    /// unordered; the two names may be equal for self-races).
    RacePair(&'static str, &'static str),
    /// A missed wakeup: (waking function, sleeping function), function
    /// parts of the wake/sleep site names.
    Wakeup(&'static str, &'static str),
    /// A sleep in atomic context: (sleeping function, atomic-enter
    /// function), function parts of the two site names.
    SleepAtomic(&'static str, &'static str),
    /// A lock-protection rule violated by this kernel function (function
    /// part of the offending access site).
    LockRule(&'static str),
    /// A lock acquisition-order inversion between two locks, identified by
    /// their full resolved names (unordered).
    LockOrder(&'static str, &'static str),
}

/// One entry of the ground-truth registry.
#[derive(Clone, Debug)]
pub struct KnownBug {
    /// Issue number, matching Table 2.
    pub id: u8,
    /// Short description (Table 2's Summary column).
    pub title: &'static str,
    /// Kernel subsystem (Table 2's Subsystem column).
    pub subsystem: &'static str,
    /// Bug class.
    pub kind: BugKind,
    /// True when the issue is harmful (bold in Table 2); false for benign
    /// data races.
    pub harmful: bool,
    /// Kernel versions containing the issue.
    pub versions: &'static [KernelVersion],
    /// Whether the triggering concurrent test pairs two distinct sequential
    /// tests (`true`) or two identical ones (`false`), per Table 2's Input
    /// column.
    pub distinct_input: bool,
    /// Detector signatures that identify this issue.
    pub signatures: &'static [Signature],
}

use KernelVersion::{V5_12Rc3, V5_3_10};

static REGISTRY: &[KnownBug] = &[
    KnownBug {
        id: 1,
        title: "BUG: unable to handle page fault for address (rhashtable double fetch)",
        subsystem: "include/linux/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::Console("unable to handle page fault")],
    },
    KnownBug {
        id: 2,
        title: "EXT4-fs error: swap_inode_boot_loader: checksum invalid",
        subsystem: "fs/ext4/",
        kind: BugKind::AtomicityViolation,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[Signature::Console("swap_inode_boot_loader")],
    },
    KnownBug {
        id: 3,
        title: "EXT4-fs error: ext4_ext_check_inode: invalid magic",
        subsystem: "fs/ext4/",
        kind: BugKind::AtomicityViolation,
        harmful: false,
        versions: &[V5_3_10],
        distinct_input: false,
        signatures: &[Signature::Console("ext4_ext_check_inode")],
    },
    KnownBug {
        id: 4,
        title: "Blk_update_request: IO error",
        subsystem: "fs/",
        kind: BugKind::AtomicityViolation,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::Console("Blk_update_request: IO error")],
    },
    KnownBug {
        id: 5,
        title: "Data race: blkdev_ioctl() / generic_fadvise()",
        subsystem: "block/, mm/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair("blkdev_ioctl", "generic_fadvise")],
    },
    KnownBug {
        id: 6,
        title: "Data race: do_mpage_readpage() / set_blocksize()",
        subsystem: "fs/",
        kind: BugKind::DataRace,
        harmful: false,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair("do_mpage_readpage", "set_blocksize")],
    },
    KnownBug {
        id: 7,
        title: "Data race: rawv6_send_hdrinc() / __dev_set_mtu()",
        subsystem: "net/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair("rawv6_send_hdrinc", "__dev_set_mtu")],
    },
    KnownBug {
        id: 8,
        title: "Data race: packet_getname() / e1000_set_mac()",
        subsystem: "net/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair("packet_getname", "e1000_set_mac")],
    },
    KnownBug {
        id: 9,
        title: "Data race: dev_ifsioc_locked() / eth_commit_mac_addr_change()",
        subsystem: "net/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair(
            "dev_ifsioc_locked",
            "eth_commit_mac_addr_change",
        )],
    },
    KnownBug {
        id: 10,
        title: "Data race: fib6_get_cookie_safe() / fib6_clean_node()",
        subsystem: "net/",
        kind: BugKind::DataRace,
        harmful: false,
        versions: &[V5_3_10],
        distinct_input: true,
        signatures: &[Signature::RacePair(
            "fib6_get_cookie_safe",
            "fib6_clean_node",
        )],
    },
    KnownBug {
        id: 11,
        title: "BUG: kernel NULL pointer dereference (configfs_lookup)",
        subsystem: "fs/configfs",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[
            Signature::Console("configfs_lookup"),
            Signature::RacePair("configfs_lookup", "configfs_detach"),
        ],
    },
    KnownBug {
        id: 12,
        title: "BUG: kernel NULL pointer dereference (l2tp tunnel sock)",
        subsystem: "net/l2tp",
        kind: BugKind::OrderViolation,
        harmful: true,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[Signature::Console("bh_lock_sock")],
    },
    KnownBug {
        id: 13,
        title: "Data race: cache_alloc_refill() / free_block()",
        subsystem: "mm/",
        kind: BugKind::DataRace,
        harmful: false,
        versions: &[V5_12Rc3],
        distinct_input: false,
        signatures: &[
            Signature::RacePair("cache_alloc_refill", "free_block"),
            Signature::RacePair("cache_alloc_refill", "cache_alloc_refill"),
            Signature::RacePair("free_block", "free_block"),
        ],
    },
    KnownBug {
        id: 14,
        title: "Data race: tty_port_open() / uart_do_autoconfig()",
        subsystem: "driver/tty/",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[Signature::RacePair("tty_port_open", "uart_do_autoconfig")],
    },
    KnownBug {
        id: 15,
        title: "Data race: snd_ctl_elem_add()",
        subsystem: "sound/core",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[Signature::RacePair("snd_ctl_elem_add", "snd_ctl_elem_add")],
    },
    KnownBug {
        id: 16,
        title: "Data race: tcp_set_default_congestion_control() / tcp_set_congestion_control()",
        subsystem: "net/ipv4",
        kind: BugKind::DataRace,
        harmful: false,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[Signature::RacePair(
            "tcp_set_default_congestion_control",
            "tcp_set_congestion_control",
        )],
    },
    KnownBug {
        id: 17,
        title: "Data race: fanout_demux_rollover() / __fanout_unlink()",
        subsystem: "net/packet",
        kind: BugKind::DataRace,
        harmful: true,
        versions: &[V5_12Rc3],
        distinct_input: true,
        signatures: &[
            Signature::RacePair("fanout_demux_rollover", "__fanout_unlink"),
            Signature::RacePair("fanout_demux_rollover", "__fanout_link"),
        ],
    },
    // Issues #18–#23 extend the registry beyond Table 2: each is a planted
    // synchronization-discipline defect found by the sync-event oracles
    // (DESIGN.md §14) rather than the stock race/console detectors.
    KnownBug {
        id: 18,
        title: "Missed wakeup: futex_wait() loses futex_wake() (check-then-sleep)",
        subsystem: "kernel/futex",
        kind: BugKind::MissedWakeup,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: true,
        signatures: &[Signature::Wakeup("futex_wake", "futex_wait")],
    },
    KnownBug {
        id: 19,
        title: "Lock inversion: ep_poll_callback() takes wq->lock before ep->lock",
        subsystem: "fs/eventpoll",
        kind: BugKind::LockInversion,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[Signature::LockOrder(
            "ep_insert:ep_lock",
            "ep_insert:wq_lock",
        )],
    },
    KnownBug {
        id: 20,
        title: "Sleeping in atomic: nbd_disconnect() drains under the command spinlock",
        subsystem: "drivers/block/nbd",
        kind: BugKind::SleepAtomic,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[Signature::SleepAtomic("nbd_disconnect", "nbd_disconnect")],
    },
    KnownBug {
        id: 21,
        title: "Lock rule: vsock_stream_connect() publishes sk->state unlocked",
        subsystem: "net/vmw_vsock",
        kind: BugKind::LockRule,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[
            Signature::LockRule("vsock_stream_connect"),
            Signature::RacePair("vsock_stream_connect", "virtio_transport_send"),
            Signature::RacePair("vsock_stream_connect", "vsock_stream_connect"),
        ],
    },
    KnownBug {
        id: 22,
        title: "Lock rule: kernfs_notify() sets kn->flags outside the kernfs mutex",
        subsystem: "fs/kernfs",
        kind: BugKind::LockRule,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[
            Signature::LockRule("kernfs_notify"),
            Signature::RacePair("kernfs_notify", "kernfs_activate"),
            Signature::RacePair("kernfs_notify", "kernfs_notify"),
        ],
    },
    KnownBug {
        id: 23,
        title: "Missed wakeup: flush_workqueue() loses the completion wakeup",
        subsystem: "kernel/workqueue",
        kind: BugKind::MissedWakeup,
        harmful: true,
        versions: &[V5_3_10, V5_12Rc3],
        distinct_input: false,
        signatures: &[Signature::Wakeup("pwq_dec_nr_in_flight", "flush_workqueue")],
    },
];

/// The full ground-truth registry, in Table 2 order.
pub fn registry() -> &'static [KnownBug] {
    REGISTRY
}

/// Looks an issue up by id.
pub fn by_id(id: u8) -> Option<&'static KnownBug> {
    REGISTRY.iter().find(|b| b.id == id)
}

/// Extracts the kernel-function part of a site name
/// (`"eth_commit_mac_addr_change:memcpy"` → `"eth_commit_mac_addr_change"`).
pub fn site_function(site_name: &str) -> &str {
    site_name.split(':').next().unwrap_or(site_name)
}

/// Matches a console line against the registry, returning the issue id.
pub fn match_console(line: &str) -> Option<u8> {
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::Console(pat) if line.contains(pat) => Some(b.id),
            _ => None,
        })
    })
}

/// Matches an (unordered) data-race site pair against the registry.
pub fn match_race(site_a: &str, site_b: &str) -> Option<u8> {
    let fa = site_function(site_a);
    let fb = site_function(site_b);
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::RacePair(x, y) if (fa == *x && fb == *y) || (fa == *y && fb == *x) => {
                Some(b.id)
            }
            _ => None,
        })
    })
}

/// Matches a missed-wakeup report (wake site, sleep site) against the
/// registry.
pub fn match_wakeup(wake_site: &str, sleep_site: &str) -> Option<u8> {
    let fw = site_function(wake_site);
    let fs = site_function(sleep_site);
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::Wakeup(w, sl) if fw == *w && fs == *sl => Some(b.id),
            _ => None,
        })
    })
}

/// Matches a sleep-in-atomic report (sleep site, atomic-enter site) against
/// the registry.
pub fn match_sleep_atomic(sleep_site: &str, enter_site: &str) -> Option<u8> {
    let fs = site_function(sleep_site);
    let fe = site_function(enter_site);
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::SleepAtomic(sl, en) if fs == *sl && fe == *en => Some(b.id),
            _ => None,
        })
    })
}

/// Matches a lock-rule violation (offending access site) against the
/// registry.
pub fn match_lockrule(site: &str) -> Option<u8> {
    let f = site_function(site);
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::LockRule(x) if f == *x => Some(b.id),
            _ => None,
        })
    })
}

/// Matches an (unordered) lock-order inversion, by full lock names, against
/// the registry.
pub fn match_lockorder(lock_a: &str, lock_b: &str) -> Option<u8> {
    REGISTRY.iter().find_map(|b| {
        b.signatures.iter().find_map(|s| match s {
            Signature::LockOrder(x, y)
                if (lock_a == *x && lock_b == *y) || (lock_a == *y && lock_b == *x) =>
            {
                Some(b.id)
            }
            _ => None,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_twenty_three_issues() {
        assert_eq!(registry().len(), 23);
        for (i, b) in registry().iter().enumerate() {
            assert_eq!(usize::from(b.id), i + 1, "ids must be 1..=23 in order");
            assert!(!b.signatures.is_empty());
        }
    }

    #[test]
    fn harmful_benign_split_matches_table2() {
        let benign: Vec<u8> = registry()
            .iter()
            .filter(|b| !b.harmful)
            .map(|b| b.id)
            .collect();
        // #10, #13, #16 are the benign data races; #3 and #6 were reported
        // but not confirmed harmful (plain, non-bold in Table 2). The six
        // sync-oracle issues (#18–#23) are all harmful.
        assert_eq!(benign, vec![3, 6, 10, 13, 16]);
    }

    #[test]
    fn console_matching() {
        assert_eq!(
            match_console("EXT4-fs error (device sda): swap_inode_boot_loader: checksum invalid"),
            Some(2)
        );
        assert_eq!(
            match_console("BUG: unable to handle page fault for address: 0x1100"),
            Some(1)
        );
        assert_eq!(match_console("harmless line"), None);
    }

    #[test]
    fn race_matching_is_unordered_and_function_scoped() {
        assert_eq!(
            match_race(
                "eth_commit_mac_addr_change:memcpy",
                "dev_ifsioc_locked:memcpy"
            ),
            Some(9)
        );
        assert_eq!(
            match_race(
                "dev_ifsioc_locked:memcpy",
                "eth_commit_mac_addr_change:memcpy"
            ),
            Some(9)
        );
        assert_eq!(
            match_race(
                "cache_alloc_refill:stat_write",
                "cache_alloc_refill:stat_read"
            ),
            Some(13)
        );
        assert_eq!(match_race("foo:a", "bar:b"), None);
    }

    #[test]
    fn version_columns_match_table2() {
        let v5_3: Vec<u8> = registry()
            .iter()
            .filter(|b| b.versions.contains(&KernelVersion::V5_3_10))
            .map(|b| b.id)
            .collect();
        assert_eq!(
            v5_3,
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 19, 20, 21, 22, 23]
        );
        let rc: Vec<u8> = registry()
            .iter()
            .filter(|b| b.versions.contains(&KernelVersion::V5_12Rc3))
            .map(|b| b.id)
            .collect();
        assert_eq!(
            rc,
            vec![2, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]
        );
    }

    #[test]
    fn sync_oracle_signature_matching() {
        assert_eq!(
            match_wakeup("futex_wake:wake_up", "futex_wait:queue_me"),
            Some(18)
        );
        // Wakeup matching is directional: wake and sleep roles don't swap.
        assert_eq!(
            match_wakeup("futex_wait:queue_me", "futex_wake:wake_up"),
            None
        );
        assert_eq!(
            match_wakeup(
                "pwq_dec_nr_in_flight:wake_flushers",
                "flush_workqueue:wait_completion"
            ),
            Some(23)
        );
        assert_eq!(
            match_lockorder("ep_insert:wq_lock", "ep_insert:ep_lock"),
            Some(19)
        );
        assert_eq!(
            match_sleep_atomic(
                "nbd_disconnect:wait_requests",
                "nbd_disconnect:spin_lock_irq"
            ),
            Some(20)
        );
        assert_eq!(
            match_lockrule("vsock_stream_connect:set_established"),
            Some(21)
        );
        assert_eq!(match_lockrule("kernfs_notify:flags_set_notified"), Some(22));
        assert_eq!(match_lockrule("tty_port_open:flags_set"), None);
        // The bare stores also race against their locked peers.
        assert_eq!(
            match_race(
                "vsock_stream_connect:set_established",
                "virtio_transport_send:state_check"
            ),
            Some(21)
        );
        assert_eq!(
            match_race(
                "kernfs_notify:flags_set_notified",
                "kernfs_activate:flags_check"
            ),
            Some(22)
        );
    }
}
