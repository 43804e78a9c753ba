//! LockDoc-style lock-rule mining.
//!
//! The miner learns two families of rules from a *corpus* of executions and
//! flags executions that break them:
//!
//! * **Protection rules** — "address `A` is protected by lock `L`": mined
//!   when, across the corpus, at least [`MIN_SUPPORT`] accesses to `A` hold
//!   `L` and they form at least a 3/4 majority of all accesses to `A`.
//!   Every *site* that touched `A` without holding `L` is then flagged as a
//!   [`Finding::LockRuleViolation`].
//! * **Acquisition-order rules** — "lock `L1` is taken before `L2`": an
//!   edge recorded whenever a thread acquires `L2` while holding `L1`. If
//!   the corpus contains both `L1 → L2` and `L2 → L1` the pair is a
//!   [`Finding::LockOrderInversion`] — a latent ABBA deadlock even when no
//!   execution actually deadlocked.
//!
//! All mined state is commutative (counts, set unions, set intersections),
//! so the mined rules are insensitive to the order executions are observed
//! in — the property that keeps campaign results identical however jobs are
//! scheduled across workers.
//!
//! False-positive policy: marked (atomic) accesses, RCU-protected accesses
//! (`rcu_depth > 0`), and kernel-stack addresses are exempt from protection
//! mining; locks only ever acquired through the generic unnamed
//! [`Ctx::lock`](sb_vmm::Ctx::lock) path (site name `"lock"`) are excluded
//! from order mining because one shared name may cover many distinct locks.
//!
//! ## Two ways to ask
//!
//! [`RuleMiner::violations`] recomputes the whole violation set from the
//! aggregate. [`RuleMiner::new_violations`] is what runs once per trial: it
//! returns only the violations no earlier call returned, looking only at
//! the addresses touched since (and at the order edges only when one was
//! added), in the order the full recompute lists them — address, protecting
//! lock address, site *name*, then inversions by name pair. A rule that
//! loses its majority stops producing new violations, but findings already
//! returned stand (report-once, monotone). The one thing that makes an old
//! finding new again is a lock's display identity — its *minimum*
//! acquire-site name — changing under it: the same violation then carries
//! another [`Finding::dedup_key`], so after a rename everything still
//! violated is returned once more. Deduplicating either stream by key, in
//! order, therefore keeps the same findings in the same order.
//!
//! Statistics are keyed by [`Site`] and lock address; names are resolved
//! only when a finding is built, so [`RuleMiner::observe`] neither
//! allocates nor takes the site-registry lock once it has seen an
//! execution's sites and locks before.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use sb_vmm::access::{Access, LockSet};
use sb_vmm::exec::ExecReport;
use sb_vmm::mem::{is_stack_addr, MAX_THREADS};
use sb_vmm::site::{BuildStepHasher, Site};
use sb_vmm::sync::{SyncEvent, SyncKind};

use crate::Finding;

/// Minimum lock-held accesses to an address before a protection rule forms.
pub const MIN_SUPPORT: u64 = 6;

/// Site names excluded from lock identity: generic paths where one name
/// covers arbitrarily many distinct locks.
const GENERIC_LOCK_SITES: &[&str] = &["lock", "unlock", "thread_exit"];

struct SiteStats {
    site: Site,
    /// Accesses observed from this site.
    count: u64,
    /// Intersection of the lock sets held across every access from this
    /// site, in the order the first of them held them.
    always: LockSet,
    /// The site that touched the same address next, as an [`AddrStats::first`].
    next: u32,
}

#[derive(Default)]
struct AddrStats {
    /// The first site that touched the address — one past its index in
    /// [`RuleMiner::sites`], 0 for none; the rest follow by `next`.
    first: u32,
    /// (lock, site) violations [`RuleMiner::new_violations`] has returned.
    returned: Vec<(u64, Site)>,
    /// Accessed since the last [`RuleMiner::new_violations`].
    touched: bool,
}

/// The sites chained from `first` through `arena`, in first-seen order.
fn chain(arena: &[SiteStats], first: u32) -> impl Iterator<Item = &SiteStats> + Clone {
    let mut at = first;
    std::iter::from_fn(move || {
        let s = arena.get((at as usize).checked_sub(1)?)?;
        at = s.next;
        Some(s)
    })
}

impl AddrStats {
    /// The one rule evaluator. Calls `visit(lock, site)` for every site that
    /// touched this address without `lock` although `lock` protects it —
    /// held by at least [`MIN_SUPPORT`] accesses that form a 3/4 majority —
    /// by ascending lock address; sites of one lock in first-seen order.
    fn rule_breakers(&self, arena: &[SiteStats], mut visit: impl FnMut(u64, Site)) {
        let sites = chain(arena, self.first);
        let total: u64 = sites.clone().map(|s| s.count).sum();
        if total < MIN_SUPPORT {
            return;
        }
        // Candidate locks: any lock some site always held.
        let mut above = None;
        while let Some(lock) = sites
            .clone()
            .flat_map(|s| s.always.iter().copied())
            .filter(|l| above.is_none_or(|a| *l > a))
            .min()
        {
            above = Some(lock);
            let holds = |s: &&SiteStats| s.always.contains(&lock);
            let support: u64 = sites.clone().filter(holds).map(|s| s.count).sum();
            if support < MIN_SUPPORT || support * 4 < total * 3 {
                continue;
            }
            for s in sites.clone().filter(|s| !holds(s)) {
                visit(lock, s.site);
            }
        }
    }
}

/// What the corpus knows about one lock address.
struct LockIdent {
    /// Sites that acquired it.
    sites: Vec<Site>,
    /// The smallest of their names: the lock's identity in reports.
    name: String,
    /// Some acquiring site is not one of [`GENERIC_LOCK_SITES`].
    named: bool,
}

/// The corpus-level rule miner. Feed it executions with
/// [`RuleMiner::observe`]; ask for the current violation set with
/// [`RuleMiner::violations`], or for what is new in it with
/// [`RuleMiner::new_violations`].
#[derive(Default)]
pub struct RuleMiner {
    /// Looked up once per access; only the full recompute and a rename walk
    /// it, and they sort.
    addrs: HashMap<u64, AddrStats, BuildStepHasher>,
    /// Every (address, site) statistic, chained per address.
    sites: Vec<SiteStats>,
    /// Addresses whose [`AddrStats::touched`] is set.
    touched: Vec<u64>,
    locks: BTreeMap<u64, LockIdent>,
    /// Acquisition-order edges: (held, then-acquired) lock addresses.
    edges: BTreeSet<(u64, u64)>,
    /// Inversions [`RuleMiner::new_violations`] has returned.
    returned_inversions: BTreeSet<(String, String)>,
    /// `edges` or some lock's acquire sites grew since the last
    /// [`RuleMiner::new_violations`].
    order_changed: bool,
    /// Some lock's display name changed since then.
    renamed: bool,
    /// Locks held per thread while replaying one execution's events.
    held: [Vec<u64>; MAX_THREADS],
    /// Executions observed.
    observed: u64,
}

impl RuleMiner {
    /// Creates an empty miner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of executions observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Folds one execution into the corpus statistics.
    pub fn observe(&mut self, report: &ExecReport) {
        self.observe_parts(&report.trace, &report.sync_events);
    }

    /// [`RuleMiner::observe`] over raw streams (test use). Event threads
    /// are the executor's: below [`MAX_THREADS`].
    pub fn observe_parts(&mut self, trace: &[Access], events: &[SyncEvent]) {
        self.observed += 1;
        for a in trace {
            if a.atomic || a.rcu_depth > 0 || is_stack_addr(a.addr) {
                continue;
            }
            let stats = self.addrs.entry(a.addr).or_default();
            if !stats.touched {
                stats.touched = true;
                self.touched.push(a.addr);
            }
            // This site's place on the address's chain, or the chain's end.
            let (mut at, mut last) = (stats.first, None);
            while let Some(i) = (at as usize).checked_sub(1).filter(|i| self.sites[*i].site != a.site) {
                (at, last) = (self.sites[i].next, Some(i));
            }
            match (at as usize).checked_sub(1) {
                Some(i) => {
                    let s = &mut self.sites[i];
                    s.count += 1;
                    s.always.retain(|l| a.locks.contains(l));
                }
                None => {
                    let new = self.sites.len() as u32 + 1;
                    *last.map_or(&mut stats.first, |i| &mut self.sites[i].next) = new;
                    self.sites.push(SiteStats { site: a.site, count: 1, always: a.locks.clone(), next: 0 });
                }
            }
        }
        for stack in &mut self.held {
            stack.clear();
        }
        for e in events {
            match e.kind {
                SyncKind::LockAcquire => {
                    self.note_acquire_site(e.obj, e.site);
                    let stack = &mut self.held[e.thread];
                    for h in stack.iter().filter(|h| **h != e.obj) {
                        self.order_changed |= self.edges.insert((*h, e.obj));
                    }
                    stack.push(e.obj);
                }
                SyncKind::LockRelease => self.held[e.thread].retain(|h| *h != e.obj),
                _ => {}
            }
        }
    }

    /// Records that `site` acquired the lock at `lock`; the site's name is
    /// resolved only the first time the pair is seen.
    fn note_acquire_site(&mut self, lock: u64, site: Site) {
        if self.locks.get(&lock).is_some_and(|ident| ident.sites.contains(&site)) {
            return;
        }
        self.order_changed = true;
        let name = site.display_name();
        let named = !GENERIC_LOCK_SITES.contains(&name.as_str());
        match self.locks.entry(lock) {
            Entry::Vacant(e) => {
                // "lock@<addr>" until now.
                self.renamed = true;
                e.insert(LockIdent { sites: vec![site], name, named });
            }
            Entry::Occupied(e) => {
                let ident = e.into_mut();
                ident.sites.push(site);
                ident.named |= named;
                if name < ident.name {
                    ident.name = name;
                    self.renamed = true;
                }
            }
        }
    }

    /// The stable display identity of the lock at `addr`: the minimum
    /// acquire-site name, or the hex address when never seen acquired.
    pub fn lock_name(&self, addr: u64) -> String {
        match self.locks.get(&addr) {
            Some(ident) => ident.name.clone(),
            None => format!("lock@{addr:#x}"),
        }
    }

    /// True when some named (non-generic) site ever acquired the lock.
    fn lock_is_named(&self, addr: u64) -> bool {
        self.locks.get(&addr).is_some_and(|ident| ident.named)
    }

    /// Builds the findings for `breakers` — (lock, site) pairs of `addr`
    /// from [`AddrStats::rule_breakers`] — ordered by lock address, then
    /// site name.
    fn push_violations(&self, addr: u64, breakers: Vec<(u64, Site)>, out: &mut Vec<Finding>) {
        let mut named: Vec<(u64, String)> = breakers
            .into_iter()
            .map(|(lock, site)| (lock, site.display_name()))
            .collect();
        named.sort();
        out.extend(named.into_iter().map(|(lock, site)| Finding::LockRuleViolation {
            site,
            lock: self.lock_name(lock),
            addr,
        }));
    }

    /// Every pair of distinctly named locks the corpus acquires in both
    /// orders, as (smaller name, larger name).
    fn inversions(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        for (a, b) in &self.edges {
            if a < b
                && self.edges.contains(&(*b, *a))
                && self.lock_is_named(*a)
                && self.lock_is_named(*b)
            {
                let (na, nb) = (self.lock_name(*a), self.lock_name(*b));
                if na != nb {
                    out.insert(if na <= nb { (na, nb) } else { (nb, na) });
                }
            }
        }
        out
    }

    /// Recomputes the full violation set from the corpus aggregate:
    /// protection-rule violations first (ordered by address, lock address,
    /// then site name), then order inversions (ordered by lock name pair).
    /// Deterministic and insensitive to observation order.
    pub fn violations(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut by_addr: Vec<(&u64, &AddrStats)> = self.addrs.iter().collect();
        by_addr.sort_unstable_by_key(|(addr, _)| **addr);
        for (addr, stats) in by_addr {
            let mut breakers = Vec::new();
            stats.rule_breakers(&self.sites, |lock, site| breakers.push((lock, site)));
            self.push_violations(*addr, breakers, &mut out);
        }
        let inversions = self.inversions().into_iter();
        out.extend(inversions.map(|(first, second)| Finding::LockOrderInversion { first, second }));
        out
    }

    /// The violations of [`RuleMiner::violations`] that no earlier call of
    /// this function returned, in the same order — plus, after a lock's
    /// display name changed, every violation that still holds (see the
    /// module docs). Costs what was observed since the last call, not the
    /// size of the corpus.
    pub fn new_violations(&mut self) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut touched = std::mem::take(&mut self.touched);
        if std::mem::take(&mut self.renamed) {
            for stats in self.addrs.values_mut() {
                stats.returned.clear();
            }
            self.returned_inversions.clear();
            self.order_changed = true;
            touched.clear();
            touched.extend(self.addrs.keys());
        }
        touched.sort_unstable();
        for addr in touched.drain(..) {
            let stats = self.addrs.get_mut(&addr).expect("touched addresses have statistics");
            stats.touched = false;
            let mut fresh = Vec::new();
            stats.rule_breakers(&self.sites, |lock, site| {
                if !stats.returned.contains(&(lock, site)) {
                    fresh.push((lock, site));
                }
            });
            if !fresh.is_empty() {
                stats.returned.extend_from_slice(&fresh);
                self.push_violations(addr, fresh, &mut out);
            }
        }
        self.touched = touched;
        if std::mem::take(&mut self.order_changed) {
            for (first, second) in self.inversions() {
                if self.returned_inversions.insert((first.clone(), second.clone())) {
                    out.push(Finding::LockOrderInversion { first, second });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vmm::access::AccessKind;
    use sb_vmm::rng::SplitMix64;
    use sb_vmm::site;

    fn acc(thread: usize, name: &str, addr: u64, locks: Vec<u64>) -> Access {
        Access {
            seq: 0,
            thread,
            site: site!(name),
            kind: AccessKind::Write,
            addr,
            len: 8,
            value: 0,
            atomic: false,
            locks: locks.into(),
            rcu_depth: 0,
        }
    }

    fn ev(thread: usize, name: &str, kind: SyncKind, obj: u64) -> SyncEvent {
        SyncEvent {
            seq: 0,
            thread,
            site: site!(name),
            kind,
            obj,
            arg: 0,
        }
    }

    const L: u64 = 0x9000;
    const M: u64 = 0x9100;

    #[test]
    fn majority_locked_access_flags_the_bare_site() {
        let mut miner = RuleMiner::new();
        let mut trace = Vec::new();
        for _ in 0..8 {
            trace.push(acc(0, "lr:locked", 0x2000, vec![L]));
        }
        trace.push(acc(1, "lr:bare", 0x2000, vec![]));
        let events = vec![ev(0, "lr:acquire", SyncKind::LockAcquire, L)];
        miner.observe_parts(&trace, &events);
        let v = miner.violations();
        assert_eq!(v.len(), 1);
        match &v[0] {
            Finding::LockRuleViolation { site, lock, addr } => {
                assert_eq!(site, "lr:bare");
                assert_eq!(lock, "lr:acquire");
                assert_eq!(*addr, 0x2000);
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }

    #[test]
    fn below_support_or_below_majority_mines_nothing() {
        let mut sparse = RuleMiner::new();
        let trace: Vec<Access> = (0..4).map(|_| acc(0, "ls:locked", 0x2000, vec![L])).collect();
        sparse.observe_parts(&trace, &[]);
        assert!(sparse.violations().is_empty(), "support below MIN_SUPPORT");

        let mut split = RuleMiner::new();
        let mut trace = Vec::new();
        for _ in 0..6 {
            trace.push(acc(0, "lm:locked", 0x2000, vec![L]));
        }
        for _ in 0..6 {
            trace.push(acc(1, "lm:bare", 0x2000, vec![]));
        }
        split.observe_parts(&trace, &[]);
        assert!(split.violations().is_empty(), "50% is not a majority rule");
    }

    #[test]
    fn atomic_rcu_and_stack_accesses_are_exempt() {
        let mut miner = RuleMiner::new();
        let mut trace = Vec::new();
        for _ in 0..8 {
            trace.push(acc(0, "ex:locked", 0x2000, vec![L]));
        }
        let mut marked = acc(1, "ex:marked", 0x2000, vec![]);
        marked.atomic = true;
        trace.push(marked);
        let mut rcu = acc(1, "ex:rcu", 0x2000, vec![]);
        rcu.rcu_depth = 1;
        trace.push(rcu);
        trace.push(acc(1, "ex:stack", sb_vmm::mem::stack_base(1) + 32, vec![]));
        miner.observe_parts(&trace, &[]);
        assert!(miner.violations().is_empty());
    }

    #[test]
    fn abba_edges_mine_an_inversion() {
        let mut miner = RuleMiner::new();
        let ab = vec![
            ev(0, "ord:lock_a", SyncKind::LockAcquire, L),
            ev(0, "ord:lock_b", SyncKind::LockAcquire, M),
            ev(0, "ord:lock_b", SyncKind::LockRelease, M),
            ev(0, "ord:lock_a", SyncKind::LockRelease, L),
        ];
        let ba = vec![
            ev(1, "ord:lock_b", SyncKind::LockAcquire, M),
            ev(1, "ord:lock_a", SyncKind::LockAcquire, L),
            ev(1, "ord:lock_a", SyncKind::LockRelease, L),
            ev(1, "ord:lock_b", SyncKind::LockRelease, M),
        ];
        miner.observe_parts(&[], &ab);
        assert!(miner.violations().is_empty(), "one direction is no inversion");
        miner.observe_parts(&[], &ba);
        let v = miner.violations();
        assert_eq!(v.len(), 1);
        match &v[0] {
            Finding::LockOrderInversion { first, second } => {
                assert_eq!(first, "ord:lock_a");
                assert_eq!(second, "ord:lock_b");
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }

    #[test]
    fn generic_lock_sites_never_mine_inversions() {
        let mut miner = RuleMiner::new();
        let ab = vec![
            ev(0, "lock", SyncKind::LockAcquire, L),
            ev(0, "lock", SyncKind::LockAcquire, M),
        ];
        let ba = vec![
            ev(1, "lock", SyncKind::LockAcquire, M),
            ev(1, "lock", SyncKind::LockAcquire, L),
        ];
        miner.observe_parts(&[], &ab);
        miner.observe_parts(&[], &ba);
        assert!(miner.violations().is_empty());
    }

    #[test]
    fn mined_rules_are_observation_order_insensitive() {
        let mk_exec = |i: u64| {
            let mut trace = Vec::new();
            for _ in 0..3 {
                trace.push(acc(0, "oi:locked", 0x2000 + (i % 2) * 8, vec![L]));
            }
            if i == 0 {
                trace.push(acc(1, "oi:bare", 0x2000, vec![]));
            }
            let events = vec![ev(0, "oi:acquire", SyncKind::LockAcquire, L)];
            (trace, events)
        };
        let execs: Vec<_> = (0..6).map(mk_exec).collect();
        let mut forward = RuleMiner::new();
        for (t, e) in &execs {
            forward.observe_parts(t, e);
        }
        let mut backward = RuleMiner::new();
        for (t, e) in execs.iter().rev() {
            backward.observe_parts(t, e);
        }
        assert_eq!(forward.violations(), backward.violations());
    }

    #[test]
    fn lock_names_resolve_to_min_acquire_site() {
        let mut miner = RuleMiner::new();
        miner.observe_parts(&[], &[ev(0, "zz:late", SyncKind::LockAcquire, L)]);
        miner.observe_parts(&[], &[ev(0, "aa:early", SyncKind::LockAcquire, L)]);
        assert_eq!(miner.lock_name(L), "aa:early");
        assert!(miner.lock_name(0xDEAD).starts_with("lock@"));
    }

    /// The rule definitions of the module docs applied to a whole corpus the
    /// obvious way — every statistic keyed by name, nothing incremental,
    /// nothing shared with [`RuleMiner`] — returning the findings in the
    /// documented order.
    fn reference(corpus: &[(Vec<Access>, Vec<SyncEvent>)]) -> Vec<Finding> {
        let mut per: BTreeMap<u64, BTreeMap<String, (u64, BTreeSet<u64>)>> = BTreeMap::new();
        let mut lock_sites: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
        let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
        for (trace, events) in corpus {
            for a in trace {
                if a.atomic || a.rcu_depth > 0 || is_stack_addr(a.addr) {
                    continue;
                }
                let held: BTreeSet<u64> = a.locks.iter().copied().collect();
                per.entry(a.addr)
                    .or_default()
                    .entry(a.site.display_name())
                    .and_modify(|(count, always)| {
                        *count += 1;
                        always.retain(|l| held.contains(l));
                    })
                    .or_insert((1, held.clone()));
            }
            let mut held: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for e in events {
                let stack = held.entry(e.thread).or_default();
                match e.kind {
                    SyncKind::LockAcquire => {
                        lock_sites.entry(e.obj).or_default().insert(e.site.display_name());
                        edges.extend(stack.iter().filter(|h| **h != e.obj).map(|h| (*h, e.obj)));
                        stack.push(e.obj);
                    }
                    SyncKind::LockRelease => stack.retain(|h| *h != e.obj),
                    _ => {}
                }
            }
        }
        let lock_name = |addr: u64| match lock_sites.get(&addr) {
            Some(names) => names.first().expect("recorded with a name").clone(),
            None => format!("lock@{addr:#x}"),
        };
        let generic = |name: &String| GENERIC_LOCK_SITES.contains(&name.as_str());
        let named = |addr: u64| lock_sites.get(&addr).is_some_and(|names| !names.iter().all(generic));
        let mut out = Vec::new();
        for (addr, sites) in &per {
            let total: u64 = sites.values().map(|(count, _)| count).sum();
            let candidates: BTreeSet<u64> =
                sites.values().flat_map(|(_, always)| always.iter().copied()).collect();
            for lock in candidates {
                let support: u64 = sites
                    .values()
                    .filter(|(_, always)| always.contains(&lock))
                    .map(|(count, _)| count)
                    .sum();
                if support < MIN_SUPPORT || support * 4 < total * 3 {
                    continue;
                }
                for (site, (_, always)) in sites {
                    if !always.contains(&lock) {
                        out.push(Finding::LockRuleViolation {
                            site: site.clone(),
                            lock: lock_name(lock),
                            addr: *addr,
                        });
                    }
                }
            }
        }
        let mut inversions = BTreeSet::new();
        for (a, b) in &edges {
            if a < b && edges.contains(&(*b, *a)) && named(*a) && named(*b) {
                let (na, nb) = (lock_name(*a), lock_name(*b));
                if na != nb {
                    inversions.insert(if na <= nb { (na, nb) } else { (nb, na) });
                }
            }
        }
        out.extend(
            inversions
                .into_iter()
                .map(|(first, second)| Finding::LockOrderInversion { first, second }),
        );
        out
    }

    /// What a campaign job keeps of a stream of findings: the first of
    /// every dedup key, in arrival order.
    #[derive(Default)]
    struct Kept {
        keys: std::collections::HashSet<String>,
        findings: Vec<Finding>,
    }

    impl Kept {
        fn offer(&mut self, findings: Vec<Finding>) {
            for f in findings {
                if self.keys.insert(f.dedup_key()) {
                    self.findings.push(f);
                }
            }
        }
    }

    /// Feeds `corpus` to one miner asked incrementally and one asked for
    /// the full set after every execution, checks the two against each
    /// other and against [`reference`], and returns what a job would keep.
    fn kept_either_way(corpus: &[(Vec<Access>, Vec<SyncEvent>)]) -> Vec<Finding> {
        let (mut incremental, mut full) = (RuleMiner::new(), RuleMiner::new());
        let (mut kept_incremental, mut kept_full) = (Kept::default(), Kept::default());
        for (i, (trace, events)) in corpus.iter().enumerate() {
            incremental.observe_parts(trace, events);
            full.observe_parts(trace, events);
            let all = full.violations();
            assert_eq!(all, reference(&corpus[..=i]), "after execution {i}");
            assert_eq!(incremental.violations(), all, "asking does not change the answer");
            kept_incremental.offer(incremental.new_violations());
            kept_full.offer(all);
            assert_eq!(kept_incremental.findings, kept_full.findings, "after execution {i}");
        }
        assert!(incremental.new_violations().is_empty(), "nothing observed, nothing new");
        kept_full.findings
    }

    #[test]
    fn a_lower_acquire_site_name_returns_the_violation_under_its_new_key() {
        let mut locked_and_bare: Vec<Access> =
            (0..8).map(|_| acc(0, "rn:locked", 0x2000, vec![L])).collect();
        locked_and_bare.push(acc(1, "rn:bare", 0x2000, vec![]));
        let corpus = vec![
            (locked_and_bare, vec![ev(0, "rn:zz_acquire", SyncKind::LockAcquire, L)]),
            // Nothing touches 0x2000 here; only the lock's identity moves.
            (vec![], vec![ev(0, "rn:aa_acquire", SyncKind::LockAcquire, L)]),
            (vec![acc(0, "rn:locked", 0x2000, vec![L])], vec![]),
        ];
        let keys: Vec<String> = kept_either_way(&corpus).iter().map(Finding::dedup_key).collect();
        assert_eq!(
            keys,
            ["lockrule:rn:bare@rn:zz_acquire", "lockrule:rn:bare@rn:aa_acquire"]
        );
    }

    #[test]
    fn a_rule_that_loses_and_regains_its_majority_is_returned_once() {
        let locked = |n| (0..n).map(|_| acc(0, "mj:locked", 0x2000, vec![L])).collect::<Vec<_>>();
        let bare = |n| (0..n).map(|_| acc(1, "mj:bare", 0x2000, vec![])).collect::<Vec<_>>();
        let mut first = locked(8);
        first.extend(bare(1));
        let corpus = vec![
            (first, vec![ev(0, "mj:acquire", SyncKind::LockAcquire, L)]),
            // 8 of 17 hold the lock: no rule, no violation.
            (bare(8), vec![]),
            // 48 of 57: the rule is back, and so is the old violation.
            (locked(40), vec![]),
        ];
        let mut miner = RuleMiner::new();
        let mut sizes = Vec::new();
        for (trace, events) in &corpus {
            miner.observe_parts(trace, events);
            sizes.push((miner.violations().len(), miner.new_violations().len()));
        }
        assert_eq!(sizes, [(1, 1), (0, 0), (1, 0)]);
        assert_eq!(kept_either_way(&corpus).len(), 1);
    }

    /// Random corpora over a universe small enough that rules form, break,
    /// re-form and get renamed all the time: four addresses (each with a
    /// lock of its own that most sites take), five access sites of which
    /// one slips once in a while and one is careless — rare, except in the
    /// executions it dominates and so outvotes a rule for a while — and
    /// seven acquire-site names, one generic, the rest sorting on both
    /// sides of each other, the late ones of the list only available to
    /// late executions.
    #[test]
    fn incremental_emissions_dedup_like_the_full_recompute_on_random_corpora() {
        const LOCKS: [u64; 3] = [L, M, 0x9200];
        const SITES: [&str; 8] =
            ["rd:s0", "rd:s0", "rd:s0", "rd:s0", "rd:s1", "rd:s1", "rd:s2", "rd:slips"];
        const ACQUIRE_SITES: [&str; 7] =
            ["lock", "rd:m_acq", "rd:c_acq", "rd:x_acq", "rd:a_acq", "rd:t_acq", "rd:f_acq"];
        let mut rng = SplitMix64::new(0x5EED_1E55);
        let (mut renamed, mut inverted, mut regained) = (0, 0, 0);
        for _ in 0..60 {
            let mut corpus = Vec::new();
            for nth in 0..(6 + rng.next_u64() % 14) as usize {
                let careless_burst = rng.next_u64() & 3 == 0;
                let trace: Vec<Access> = (0..rng.next_u64() % 24)
                    .map(|_| {
                        let r = rng.next_u64();
                        let careless = if careless_burst { r & 3 != 0 } else { r & 15 == 0 };
                        let site =
                            if careless { "rd:careless" } else { SITES[(r >> 4 & 7) as usize] };
                        let slot = r >> 8 & 3;
                        let forgets = match site {
                            "rd:careless" => r >> 12 & 7 != 0,
                            "rd:slips" => r >> 12 & 15 == 0,
                            _ => false,
                        };
                        let mut locks = Vec::new();
                        if !forgets {
                            locks.push(LOCKS[slot as usize % 3]);
                        }
                        if r >> 16 & 7 == 0 {
                            locks.push(LOCKS[(r >> 20) as usize % 3]);
                        }
                        let mut a = acc((r >> 24 & 1) as usize, site, 0x2000 + slot * 8, locks);
                        a.atomic = r >> 28 & 15 == 0;
                        a.rcu_depth = u8::from(r >> 32 & 15 == 0);
                        a
                    })
                    .collect();
                let names = &ACQUIRE_SITES[..(2 + nth / 2).min(ACQUIRE_SITES.len())];
                let events: Vec<SyncEvent> = (0..rng.next_u64() % 8)
                    .map(|_| {
                        let r = rng.next_u64();
                        let kind =
                            if r & 3 == 0 { SyncKind::LockRelease } else { SyncKind::LockAcquire };
                        let name = names[(r >> 8) as usize % names.len()];
                        ev((r >> 2 & 1) as usize, name, kind, LOCKS[(r >> 16) as usize % 3])
                    })
                    .collect();
                corpus.push((trace, events));
            }
            let kept = kept_either_way(&corpus);
            let mut miner = RuleMiner::new();
            let mut held_after: Vec<BTreeSet<String>> = Vec::new();
            for (trace, events) in &corpus {
                miner.observe_parts(trace, events);
                held_after.push(miner.violations().iter().map(Finding::dedup_key).collect());
            }
            let final_names = LOCKS.map(|l| miner.lock_name(l));
            renamed += usize::from(kept.iter().any(|f| {
                matches!(f, Finding::LockRuleViolation { lock, .. } if !final_names.contains(lock))
            }));
            let is_inversion = |f: &Finding| matches!(f, Finding::LockOrderInversion { .. });
            inverted += usize::from(kept.iter().any(is_inversion));
            regained += usize::from(held_after.iter().enumerate().any(|(j, now)| {
                let lost: Vec<&String> =
                    held_after[..j].iter().flat_map(|earlier| earlier.difference(now)).collect();
                held_after[j..].iter().any(|later| lost.iter().any(|key| later.contains(*key)))
            }));
        }
        // The generator is only worth its keep while it reaches the cases
        // the incremental path can get wrong.
        assert!(renamed >= 10, "only {renamed} corpora kept a violation under a name lowered later");
        assert!(inverted >= 10, "only {inverted} corpora mined an inversion");
        assert!(regained >= 10, "only {regained} corpora lost violations and got some back");
    }
}
