//! Criterion bench of the execution-engine primitives: raw access
//! round-trip cost, snapshot cloning, kernel boot, and a full concurrent
//! execution — the constants behind every throughput number in
//! `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};

use sb_kernel::{boot, KernelConfig};
use sb_vmm::exec::job;
use sb_vmm::mem::GuestMem;
use sb_vmm::sched::FreeRun;
use sb_vmm::{site, Executor};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(30);

    group.bench_function("access_round_trip_x1000", |b| {
        let mut exec = Executor::new(1);
        let mut mem = GuestMem::new();
        let cell = mem.kmalloc(8).unwrap();
        b.iter(|| {
            let r = exec.run(
                mem.clone(),
                vec![job(move |ctx| async move {
                    for i in 0..500u64 {
                        ctx.write_u64(site!("bench:w"), cell, i).await?;
                        ctx.read_u64(site!("bench:r"), cell).await?;
                    }
                    Ok(())
                })],
                &mut FreeRun,
            );
            r.report.steps
        })
    });

    group.bench_function("snapshot_clone", |b| {
        let booted = boot(KernelConfig::v5_12_rc3());
        b.iter(|| booted.snapshot.clone())
    });

    group.bench_function("kernel_boot", |b| {
        b.iter(|| boot(KernelConfig::v5_12_rc3()).snapshot.brk())
    });

    group.bench_function("concurrent_execution_l2tp", |b| {
        use sb_kernel::prog::{Domain, Res};
        use sb_kernel::{Program, Syscall};
        let booted = boot(KernelConfig::v5_12_rc3());
        let prog = Program::new(vec![
            Syscall::Socket {
                domain: Domain::L2tp,
            },
            Syscall::Connect {
                sock: Res(0),
                tunnel_id: 1,
            },
            Syscall::Sendmsg {
                sock: Res(0),
                len: 2,
            },
        ]);
        let mut exec = Executor::new(2);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut sched = sb_vmm::sched::RandomSched::new(seed, 0.2);
            let r = exec.run(
                booted.snapshot.clone(),
                vec![
                    booted.kernel.process_job(prog.clone()),
                    booted.kernel.process_job(prog.clone()),
                ],
                &mut sched,
            );
            r.report.steps
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
