//! Experiment E5 — regenerates the **§5.4 interleavings-to-expose**
//! comparison: how many interleavings Snowboard vs SKI needs to expose each
//! panic/console bug (paper: SKI needs ~84× more on average — 826.29 vs
//! 9.76 interleavings per test).
//!
//! For each console-detectable bug, the known triggering test pair runs
//! under (a) the Snowboard scheduler hinted with the bug's PMC and (b) a
//! SKI-style scheduler that yields at the same *instructions* regardless of
//! memory target, counting trials until the bug manifests.

use sb_bench::print_table;
use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Res};
use sb_kernel::{boot, KernelConfig, Program, Syscall};
use sb_vmm::Executor;
use snowboard::metrics::{hits_bug, interleavings_to_expose, SchedKind};
use snowboard::pmc::identify;
use snowboard::profile::profile_corpus;

struct Case {
    bug: u8,
    label: &'static str,
    config: KernelConfig,
    writer: Program,
    reader: Program,
    write_fn: &'static str,
    read_fn: &'static str,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            bug: 12,
            label: "#12 l2tp order violation",
            config: KernelConfig::v5_12_rc3(),
            writer: Program::new(vec![
                Syscall::Socket {
                    domain: Domain::L2tp,
                },
                Syscall::Connect {
                    sock: Res(0),
                    tunnel_id: 2,
                },
            ]),
            reader: Program::new(vec![
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
            ]),
            write_fn: "list_add_rcu",
            read_fn: "l2tp_tunnel_get",
        },
        Case {
            bug: 1,
            label: "#1 rhashtable double fetch",
            config: KernelConfig::v5_3_10(),
            writer: Program::new(vec![
                Syscall::Msgget { key: 3 },
                Syscall::Msgctl {
                    id: Res(0),
                    cmd: MsgCmd::Rmid,
                },
            ]),
            reader: Program::new(vec![Syscall::Msgget { key: 3 }]),
            write_fn: "rht_assign_unlock",
            read_fn: "rht_ptr",
        },
        Case {
            bug: 11,
            label: "#11 configfs null deref",
            config: KernelConfig::v5_12_rc3(),
            writer: Program::new(vec![Syscall::Mkdir { item: 1 }, Syscall::Rmdir { item: 1 }]),
            reader: Program::new(vec![
                Syscall::Mkdir { item: 1 },
                Syscall::Open {
                    path: Path::Configfs(1),
                },
            ]),
            write_fn: "configfs_detach",
            read_fn: "configfs_lookup",
        },
        Case {
            bug: 2,
            label: "#2 ext4 swap boot loader",
            config: KernelConfig::v5_12_rc3(),
            writer: Program::new(vec![
                Syscall::Open {
                    path: Path::Ext4File(1),
                },
                Syscall::Write {
                    fd: Res(0),
                    off: 1,
                    val: 7,
                },
                Syscall::Ioctl {
                    fd: Res(0),
                    cmd: IoctlCmd::Ext4SwapBoot,
                    arg: 0,
                },
            ]),
            reader: Program::new(vec![
                Syscall::Open {
                    path: Path::Ext4File(1),
                },
                Syscall::Write {
                    fd: Res(0),
                    off: 1,
                    val: 7,
                },
                Syscall::Ioctl {
                    fd: Res(0),
                    cmd: IoctlCmd::Ext4SwapBoot,
                    arg: 0,
                },
            ]),
            write_fn: "ext4_mark_inode_dirty",
            read_fn: "swap_inode_boot_loader",
        },
        Case {
            bug: 4,
            label: "#4 blk capacity shrink",
            config: KernelConfig::v5_3_10(),
            writer: Program::new(vec![
                Syscall::Open {
                    path: Path::BlockDev,
                },
                Syscall::Ioctl {
                    fd: Res(0),
                    cmd: IoctlCmd::BlkSetSize,
                    arg: 0,
                },
            ]),
            reader: Program::new(vec![
                Syscall::Open {
                    path: Path::Ext4File(0),
                },
                Syscall::Write {
                    fd: Res(0),
                    off: 9,
                    val: 3,
                },
            ]),
            write_fn: "blkdev_set_capacity",
            read_fn: "blk_update_request",
        },
    ]
}

fn main() {
    const MAX_TRIALS: u32 = 4096;
    const SEEDS: u64 = 5;
    let mut rows = Vec::new();
    let mut totals: std::collections::HashMap<SchedKind, (f64, u32)> =
        std::collections::HashMap::new();
    for case in cases() {
        let booted = boot(case.config);
        let mut exec = Executor::new(2);
        // Derive the PMC exactly as the pipeline would: profile the two
        // tests sequentially and identify.
        let profiles = profile_corpus(&booted, &[case.writer.clone(), case.reader.clone()], 2);
        let set = identify(&profiles);
        let Some((_, pmc)) =
            snowboard::metrics::find_pmc_by_sites(&set, case.write_fn, case.read_fn)
        else {
            eprintln!("[skip] no PMC for {}", case.label);
            continue;
        };
        let mut row = vec![case.label.to_owned()];
        for kind in [SchedKind::Snowboard, SchedKind::Ski, SchedKind::Random] {
            // Average over seeds; count failures at the cap.
            let mut sum = 0u64;
            let mut hitc = 0u32;
            for seed in 0..SEEDS {
                match interleavings_to_expose(
                    &mut exec,
                    &booted,
                    &case.writer,
                    &case.reader,
                    pmc,
                    kind,
                    1000 + seed,
                    MAX_TRIALS,
                    hits_bug(case.bug),
                ) {
                    Some(r) => {
                        sum += u64::from(r.interleavings);
                        hitc += 1;
                    }
                    None => sum += u64::from(MAX_TRIALS),
                }
            }
            let avg = sum as f64 / SEEDS as f64;
            let cell = if hitc == 0 {
                format!(">{MAX_TRIALS}")
            } else {
                format!("{avg:.1}")
            };
            row.push(cell);
            let e = totals.entry(kind).or_insert((0.0, 0));
            e.0 += avg;
            e.1 += 1;
        }
        rows.push(row);
    }
    println!(
        "\n§5.4 interleavings needed to expose each bug (avg of {SEEDS} seeds, cap {MAX_TRIALS})\n"
    );
    print_table(&["Bug", "Snowboard", "SKI", "Random"], &rows);
    let avg = |k: SchedKind| {
        totals
            .get(&k)
            .map(|(s, n)| s / f64::from(*n))
            .unwrap_or(f64::NAN)
    };
    let sb = avg(SchedKind::Snowboard);
    let ski = avg(SchedKind::Ski);
    println!(
        "\nAverages — Snowboard: {sb:.1}, SKI: {ski:.1} interleavings/test (ratio {:.1}x; \
         paper: 9.76 vs 826.29, 84x).",
        ski / sb
    );
}
