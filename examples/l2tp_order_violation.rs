//! Figure 1 live: the l2tp order violation (Table 2 #12), end to end.
//!
//! Two user processes run the paper's concurrent test: both `connect()` a
//! PPPoL2TP socket to the same tunnel id, one also `sendmsg()`s. The writer
//! publishes the tunnel to the RCU list *before* initializing
//! `tunnel->sock`; under the right interleaving the reader fetches the
//! half-initialized tunnel and dereferences the null socket — a kernel
//! panic, with every access properly synchronized (no data race).
//!
//! The example derives the PMC from sequential profiles exactly like the
//! pipeline, then shows (a) the panic appearing under the Snowboard
//! scheduler within a few trials, (b) how many trials SKI-style and random
//! exploration need, and (c) the fixed kernel surviving the same schedules.
//!
//! Run with: `cargo run -p sb-examples --bin l2tp_order_violation`

use sb_kernel::prog::{Domain, Res};
use sb_kernel::{boot, KernelConfig, Program, Syscall};
use sb_vmm::Executor;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

fn programs() -> (Program, Program) {
    let writer = Program::new(vec![
        Syscall::Socket {
            domain: Domain::L2tp,
        },
        Syscall::Connect {
            sock: Res(0),
            tunnel_id: 2,
        },
    ]);
    let reader = Program::new(vec![
        Syscall::Socket {
            domain: Domain::L2tp,
        },
        Syscall::Connect {
            sock: Res(0),
            tunnel_id: 2,
        },
        Syscall::Sendmsg {
            sock: Res(0),
            len: 1,
        },
    ]);
    (writer, reader)
}

fn main() {
    println!("== Figure 1: l2tp tunnel order violation (bug #12) ==\n");
    let (writer, reader) = programs();
    println!("Test 1 (writer):\n{writer}");
    println!("Test 2 (reader):\n{reader}");

    let booted = boot(KernelConfig::v5_12_rc3());
    let mut exec = Executor::new(2);

    // Profile both tests sequentially and identify the PMC between the
    // RCU-list publication and the tunnel lookup.
    let profiles = profile_corpus(&booted, &[writer.clone(), reader.clone()], 2);
    let set = identify(&profiles);
    let (_, pmc) = snowboard::metrics::find_pmc_by_sites(&set, "list_add_rcu", "l2tp_tunnel_get")
        .expect("the publication PMC must be predicted");
    println!(
        "predicted PMC: write {} = {:#x} -> read {} (value {:#x} sequentially)",
        pmc.key.w.ins.display_name(),
        pmc.key.w.value,
        pmc.key.r.ins.display_name(),
        pmc.key.r.value,
    );

    for kind in [SchedKind::Snowboard, SchedKind::Ski, SchedKind::Random] {
        match interleavings_to_expose(
            &mut exec,
            &booted,
            &writer,
            &reader,
            pmc,
            kind,
            7,
            4096,
            hits_bug(12),
        ) {
            Some(r) => println!(
                "{kind:<10} exposed the panic after {} interleavings",
                r.interleavings
            ),
            None => println!("{kind:<10} did not expose it within 4096 interleavings"),
        }
    }

    // The patched kernel (socket initialized before publication) survives.
    let fixed = boot(KernelConfig::v5_12_rc3().patched());
    let profiles = profile_corpus(&fixed, &[writer.clone(), reader.clone()], 2);
    let fixed_set = identify(&profiles);
    let survived = match snowboard::metrics::find_pmc_by_sites(
        &fixed_set,
        "list_add_rcu",
        "l2tp_tunnel_get",
    ) {
        Some((_, fixed_pmc)) => interleavings_to_expose(
            &mut exec,
            &fixed,
            &writer,
            &reader,
            fixed_pmc,
            SchedKind::Snowboard,
            7,
            512,
            hits_bug(12),
        )
        .is_none(),
        None => true,
    };
    println!(
        "\npatched kernel (init before publish): {}",
        if survived {
            "no panic in 512 interleavings — fix verified"
        } else {
            "STILL PANICS?!"
        }
    );
}
