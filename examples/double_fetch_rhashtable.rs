//! Figure 4 live: the rhashtable double-fetch bug (Table 2 #1).
//!
//! `rht_ptr()`'s omitted-operand conditional compiles, under `-O2`, into
//! two loads of the bucket word. `msgget()` in one process races
//! `msgctl(IPC_RMID)` in another: when the removal zeroes the bucket between
//! the two fetches, the lookup dereferences a null object pointer at the key
//! offset — "BUG: unable to handle page fault for address". The window is a
//! single access wide, which is why unguided search struggles.
//!
//! Run with: `cargo run -p sb-examples --bin double_fetch_rhashtable`

use sb_kernel::prog::{MsgCmd, Res};
use sb_kernel::{boot, KernelConfig, Program, Syscall};
use sb_vmm::sched::SnowboardSched;
use sb_vmm::Executor;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

fn main() {
    println!("== Figure 4: rhashtable double fetch (bug #1) ==\n");
    let writer = Program::new(vec![
        Syscall::Msgget { key: 3 },
        Syscall::Msgctl {
            id: Res(0),
            cmd: MsgCmd::Rmid,
        },
    ]);
    let reader = Program::new(vec![Syscall::Msgget { key: 3 }]);
    println!("Test 1 (writer):\n{writer}");
    println!("Test 2 (reader):\n{reader}");

    // "Compiler option 2" (gcc -O2): the 5.3.10 build double-fetches.
    let booted = boot(KernelConfig::v5_3_10());
    let mut exec = Executor::new(2);
    let profiles = profile_corpus(&booted, &[writer.clone(), reader.clone()], 2);
    let set = identify(&profiles);
    let (_, pmc) = snowboard::metrics::find_pmc_by_sites(&set, "rht_assign_unlock", "rht_ptr")
        .expect("the bucket PMC must be predicted");
    println!(
        "predicted PMC: write {} -> read {}",
        pmc.key.w.ins.display_name(),
        pmc.key.r.ins.display_name()
    );

    for kind in [SchedKind::Snowboard, SchedKind::Ski, SchedKind::Random] {
        match interleavings_to_expose(
            &mut exec,
            &booted,
            &writer,
            &reader,
            pmc,
            kind,
            3,
            8192,
            hits_bug(1),
        ) {
            Some(r) => println!(
                "{kind:<10} exposed the page fault after {} interleavings",
                r.interleavings
            ),
            None => println!("{kind:<10} did not expose it within 8192 interleavings"),
        }
    }

    // Show one panicking console, for flavor.
    let mut sched = SnowboardSched::new(11, pmc.hints());
    for trial in 0..256 {
        sched.begin_trial(11 + trial);
        let r = exec.run(
            booted.snapshot.clone(),
            vec![
                booted.kernel.process_job(writer.clone()),
                booted.kernel.process_job(reader.clone()),
            ],
            &mut sched,
        );
        if r.report.outcome.is_panic() {
            println!("\nconsole of the panicking trial #{trial}:");
            for line in &r.report.console {
                println!("  {line}");
            }
            break;
        }
    }

    // 5.12-rc3 carries Herbert Xu's fix (single fetch): no panic.
    let fixed = boot(KernelConfig::v5_12_rc3());
    let exposed = interleavings_to_expose(
        &mut exec,
        &fixed,
        &writer,
        &reader,
        pmc,
        SchedKind::Snowboard,
        3,
        1024,
        hits_bug(1),
    );
    println!(
        "\n5.12-rc3 (fix 1748f6a2, single fetch): {}",
        if exposed.is_none() {
            "no panic in 1024 interleavings"
        } else {
            "STILL PANICS?!"
        }
    );
}
