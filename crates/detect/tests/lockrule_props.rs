//! Property tests: the lock-rule miner is equivalent to a naive reference
//! aggregation on random corpora, and its mined rules are insensitive to
//! the order executions are observed in (the property that keeps campaign
//! results identical however jobs are scheduled across workers).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;

use sb_detect::lockrule::{RuleMiner, MIN_SUPPORT};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::mem::is_stack_addr;
use sb_vmm::site::Site;
use sb_vmm::sync::{SyncEvent, SyncKind};

const LOCK_A: u64 = 0x9_0000;
const LOCK_B: u64 = 0x9_0008;
const GENERIC_LOCK_SITES: &[&str] = &["lock", "unlock", "thread_exit"];

type Exec = (Vec<Access>, Vec<SyncEvent>);

/// Per site: access count + intersection of held lock sets.
type SiteStats = BTreeMap<String, (u64, Option<BTreeSet<u64>>)>;

/// Naive reference: re-aggregate the whole corpus directly from the rule
/// definitions in the module docs, returning the violation set as dedup
/// keys.
fn reference(corpus: &[Exec]) -> BTreeSet<String> {
    let mut per: BTreeMap<u64, SiteStats> = BTreeMap::new();
    let mut lock_sites: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (trace, events) in corpus {
        for a in trace {
            if a.atomic || a.rcu_depth > 0 || is_stack_addr(a.addr) {
                continue;
            }
            let (count, always) = per
                .entry(a.addr)
                .or_default()
                .entry(a.site.display_name())
                .or_insert((0, None));
            *count += 1;
            let held: BTreeSet<u64> = a.locks.iter().copied().collect();
            *always = Some(match always.take() {
                None => held,
                Some(prev) => prev.intersection(&held).copied().collect(),
            });
        }
        let mut held: HashMap<usize, Vec<u64>> = HashMap::new();
        for e in events {
            match e.kind {
                SyncKind::LockAcquire => {
                    lock_sites.entry(e.obj).or_default().insert(e.site.display_name());
                    let stack = held.entry(e.thread).or_default();
                    for h in stack.iter().filter(|h| **h != e.obj) {
                        edges.insert((*h, e.obj));
                    }
                    stack.push(e.obj);
                }
                SyncKind::LockRelease => {
                    held.entry(e.thread).or_default().retain(|h| *h != e.obj);
                }
                _ => {}
            }
        }
    }
    let lock_name = |addr: u64| {
        lock_sites
            .get(&addr)
            .and_then(|s| s.iter().next().cloned())
            .unwrap_or_else(|| format!("lock@{addr:#x}"))
    };
    let generic = |addr: u64| match lock_sites.get(&addr) {
        Some(s) => s.iter().all(|n| GENERIC_LOCK_SITES.contains(&n.as_str())),
        None => true,
    };
    let mut out = BTreeSet::new();
    for sites in per.values() {
        let total: u64 = sites.values().map(|(c, _)| *c).sum();
        let mut candidates: BTreeSet<u64> = BTreeSet::new();
        for (_, always) in sites.values() {
            if let Some(a) = always {
                candidates.extend(a.iter().copied());
            }
        }
        for lock in candidates {
            let support: u64 = sites
                .values()
                .filter(|(_, a)| a.as_ref().is_some_and(|a| a.contains(&lock)))
                .map(|(c, _)| *c)
                .sum();
            if support < MIN_SUPPORT || support * 4 < total * 3 {
                continue;
            }
            for (site, (_, always)) in sites {
                if !always.as_ref().is_some_and(|a| a.contains(&lock)) {
                    out.insert(format!("lockrule:{site}@{}", lock_name(lock)));
                }
            }
        }
    }
    for (a, b) in &edges {
        if a < b && edges.contains(&(*b, *a)) && !generic(*a) && !generic(*b) {
            let (na, nb) = (lock_name(*a), lock_name(*b));
            if na != nb {
                let (first, second) = if na <= nb { (na, nb) } else { (nb, na) };
                out.insert(format!("lockorder:{first}/{second}"));
            }
        }
    }
    out
}

fn mined(corpus: &[Exec]) -> BTreeSet<String> {
    let mut miner = RuleMiner::new();
    for (trace, events) in corpus {
        miner.observe_parts(trace, events);
    }
    miner.violations().iter().map(|f| f.dedup_key()).collect()
}

fn arb_exec() -> impl Strategy<Value = Exec> {
    let accesses = proptest::collection::vec(
        (
            0usize..2,           // thread
            0u8..4,              // site index
            0u64..3,             // addr slot
            0u8..4,              // held locks: bitset over {A, B}
            proptest::bool::ANY, // atomic?
            0u8..2,              // rcu depth
        ),
        0..20,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (thread, s, slot, locks, atomic, rcu))| Access {
                seq: i as u64,
                thread,
                site: Site::intern(&format!("lp:site{s}")),
                kind: AccessKind::Write,
                addr: 0x2_0000 + slot * 8,
                len: 8,
                value: 0,
                atomic,
                locks: [LOCK_A, LOCK_B]
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| locks & (1 << bit) != 0)
                    .map(|(_, l)| *l)
                    .collect(),
                rcu_depth: rcu,
            })
            .collect()
    });
    let events = proptest::collection::vec(
        (
            0usize..2,           // thread
            0u8..3,              // site index (2 = the generic "lock" name)
            proptest::bool::ANY, // which lock
            proptest::bool::ANY, // acquire?
        ),
        0..12,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (thread, s, which, acquire))| SyncEvent {
                seq: i as u64,
                thread,
                site: if s == 2 {
                    Site::intern("lock")
                } else {
                    Site::intern(&format!("lp:acq{s}"))
                },
                kind: if acquire { SyncKind::LockAcquire } else { SyncKind::LockRelease },
                obj: if which { LOCK_A } else { LOCK_B },
                arg: 0,
            })
            .collect()
    });
    (accesses, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn miner_matches_naive_reference(corpus in proptest::collection::vec(arb_exec(), 1..5)) {
        prop_assert_eq!(mined(&corpus), reference(&corpus));
    }

    #[test]
    fn mined_rules_ignore_observation_order(corpus in proptest::collection::vec(arb_exec(), 1..5)) {
        let forward = mined(&corpus);
        let reversed: Vec<Exec> = corpus.iter().rev().cloned().collect();
        prop_assert_eq!(&forward, &mined(&reversed));
        // Splitting the corpus across two miners and merging their keys is
        // NOT equivalent in general (rules are corpus-global), but doubling
        // every execution never changes the rule *set* thresholds' verdicts
        // direction from rule to no-rule: support and total both double.
        let doubled: Vec<Exec> = corpus.iter().chain(corpus.iter()).cloned().collect();
        let doubled_keys = mined(&doubled);
        prop_assert!(doubled_keys.is_superset(&forward));
    }
}
