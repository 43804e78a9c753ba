//! Behavioral tests of the clustering strategies on a *real* pipeline:
//! each Table 1 filter must select exactly the PMCs its intuition
//! describes, and the exemplar streams must honor cluster rarity.

use snowboard::cluster::{cluster, keys_of, Strategy};
use snowboard::select::{exemplars, order_clusters, ClusterOrder};
use snowboard::{Pipeline, PipelineCfg};

use sb_kernel::KernelConfig;
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static P: OnceLock<Pipeline> = OnceLock::new();
    P.get_or_init(|| {
        Pipeline::prepare(
            KernelConfig::v5_12_rc3(),
            PipelineCfg {
                seed: 13,
                corpus_target: 80,
                fuzz_budget: 900,
                workers: 4,
                ..PipelineCfg::default()
            },
        )
    })
}

#[test]
fn sch_null_selects_only_zero_writes() {
    let p = pipeline();
    for c in cluster(&p.pmcs, Strategy::SChNull) {
        for id in c.members {
            assert_eq!(
                p.pmcs.get(id).key.w.value,
                0,
                "S-CH-NULL must only keep all-zero writes"
            );
        }
    }
}

#[test]
fn sch_unaligned_selects_only_differing_ranges() {
    let p = pipeline();
    let mut total = 0;
    for c in cluster(&p.pmcs, Strategy::SChUnaligned) {
        for id in c.members {
            let k = p.pmcs.get(id).key;
            assert!(
                k.w.addr != k.r.addr || k.w.len != k.r.len,
                "S-CH-UNALIGNED member has identical ranges"
            );
            total += 1;
        }
    }
    assert!(
        total > 0,
        "the per-byte memcpys must produce unaligned PMCs"
    );
}

#[test]
fn sch_double_selects_only_df_leaders() {
    let p = pipeline();
    let mut total = 0;
    for c in cluster(&p.pmcs, Strategy::SChDouble) {
        for id in c.members {
            assert!(p.pmcs.get(id).df_leader);
            total += 1;
        }
    }
    assert!(total > 0, "mount's double fetches must appear");
}

#[test]
fn smem_clusters_unify_distinct_instructions_on_one_region() {
    let p = pipeline();
    // Some S-MEM cluster must contain PMCs with different instruction
    // pairs — the strategy's entire point.
    let found = cluster(&p.pmcs, Strategy::SMem).into_iter().any(|c| {
        let mut pairs: Vec<(u64, u64)> = c
            .members
            .iter()
            .map(|id| {
                let k = p.pmcs.get(*id).key;
                (k.w.ins.0, k.r.ins.0)
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len() > 1
    });
    assert!(
        found,
        "expected a memory region written/read by several instruction pairs"
    );
}

#[test]
fn uncommon_first_order_is_monotone_in_cluster_size() {
    let p = pipeline();
    let ordered = order_clusters(
        cluster(&p.pmcs, Strategy::SInsPair),
        ClusterOrder::UncommonFirst,
        1,
    );
    for w in ordered.windows(2) {
        assert!(w[0].len() <= w[1].len());
    }
}

#[test]
fn every_strategy_produces_testable_exemplars() {
    let p = pipeline();
    for strategy in snowboard::cluster::ALL_STRATEGIES {
        let picks = exemplars(
            &p.pmcs,
            strategy,
            ClusterOrder::UncommonFirst,
            3,
            &Default::default(),
        );
        for id in &picks {
            assert!(
                !p.pmcs.get(*id).pairs.is_empty(),
                "{strategy}: exemplar without test pairs"
            );
        }
        // Consistency: the pick count equals the cluster count (no
        // exclusions were provided, and exemplars never repeat).
        let n_clusters = cluster(&p.pmcs, strategy).len();
        assert!(picks.len() <= n_clusters);
        if matches!(
            strategy,
            Strategy::SFull | Strategy::SCh | Strategy::SInsPair | Strategy::SMem
        ) {
            assert_eq!(picks.len(), n_clusters, "{strategy}");
        }
    }
}

#[test]
fn strategy_keys_are_consistent_with_cluster_membership() {
    let p = pipeline();
    for strategy in snowboard::cluster::ALL_STRATEGIES {
        for c in cluster(&p.pmcs, strategy) {
            for id in &c.members {
                assert!(
                    keys_of(p.pmcs.get(*id), strategy).any(|k| k == c.key),
                    "{strategy}: member {id} lacks its cluster key"
                );
            }
        }
    }
}

#[test]
fn pmc_universe_covers_every_buggy_subsystem() {
    // The corpus + PMC identification must reach every Table 2 channel
    // needed by the 5.12-rc3 bugs.
    let p = pipeline();
    for (wfn, rfn) in [
        ("list_add_rcu", "l2tp_tunnel_get"),          // #12
        ("configfs_detach", "configfs_lookup"),       // #11
        ("tty_port_open", "uart_do_autoconfig"),      // #14 (either order)
        ("snd_ctl_elem_add", "snd_ctl_elem_add"),     // #15
        ("cache_alloc_refill", "cache_alloc_refill"), // #13
    ] {
        let found = snowboard::metrics::find_pmc_by_sites(&p.pmcs, wfn, rfn).is_some()
            || snowboard::metrics::find_pmc_by_sites(&p.pmcs, rfn, wfn).is_some();
        assert!(found, "missing PMC {wfn} <-> {rfn}");
    }
}
