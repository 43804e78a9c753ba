//! Exhaustive tests of the syscall dispatch surface: every syscall's happy
//! path, its error paths (bad descriptors, wrong descriptor kinds, invalid
//! arguments), and the kernel ABI conventions (errno encoding, fd
//! numbering, resource lifetimes).

use std::sync::{Arc, Mutex};

use sb_kernel::prog::{Domain, IoctlCmd, MsgCmd, Path, Res, SockOpt, Syscall};
use sb_kernel::{boot, BootedKernel, KernelConfig, ProcState, Program, EBADF, EINVAL, ENOENT};
use sb_vmm::exec::job;
use sb_vmm::sched::FreeRun;
use sb_vmm::Executor;

/// Runs a program sequentially, returning each call's result: the job
/// `Kernel::process_job` builds, publishing the results it keeps.
fn run(booted: &BootedKernel, prog: Program) -> Vec<u64> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let (kernel, regs) = (Arc::clone(&booted.kernel), Arc::clone(&out));
    let process = job(move |ctx| async move {
        let mut proc = ProcState::default();
        for call in &prog.calls {
            match kernel.dispatch(&ctx, &mut proc, call).await {
                Ok(v) => proc.regs.push(v),
                Err(f) if f.is_fatal() => return Err(f),
                Err(_) => proc.regs.push(EINVAL),
            }
        }
        *regs.lock().unwrap() = proc.regs;
        Ok(())
    });
    let r = Executor::new(1).run(booted.snapshot.clone(), vec![process], &mut FreeRun);
    assert!(
        r.report.outcome.is_completed(),
        "{:?} {:?}",
        r.report.outcome,
        r.report.console
    );
    let v = out.lock().unwrap().clone();
    v
}

fn rc() -> BootedKernel {
    boot(KernelConfig::v5_12_rc3())
}

#[test]
fn socket_returns_sequential_fds() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Socket { domain: Domain::Packet },
            Syscall::Socket { domain: Domain::RawV6 },
            Syscall::Socket { domain: Domain::L2tp },
        ]),
    );
    assert_eq!(rets, vec![0, 1, 2, 3]);
}

#[test]
fn connect_on_wrong_and_dangling_descriptors() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Open { path: Path::Tty },
            // Connect on a TTY fd: accepted by dispatch as a non-socket, so
            // EBADF is not raised for Socket-kind mismatch here — the kernel
            // returns EBADF only for non-descriptors.
            Syscall::Msgget { key: 1 },
            // Connect referencing the msgget result (an id, not an fd).
            Syscall::Connect { sock: Res(1), tunnel_id: 0 },
        ]),
    );
    assert_eq!(rets[2], EBADF, "msq ids are not descriptors");
}

#[test]
fn sendmsg_per_domain_behaviors() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Sendmsg { sock: Res(0), len: 3 }, // tx counter 1
            Syscall::Sendmsg { sock: Res(0), len: 3 }, // tx counter 2
            Syscall::Socket { domain: Domain::L2tp },
            Syscall::Sendmsg { sock: Res(3), len: 3 }, // unconnected: EINVAL
        ]),
    );
    assert_eq!(rets[1], 1);
    assert_eq!(rets[2], 2);
    assert_eq!(rets[4], EINVAL);
}

#[test]
fn setsockopt_rejects_mismatched_options() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Socket { domain: Domain::Inet },
            // Packet fanout on an inet socket.
            Syscall::Setsockopt { sock: Res(0), opt: SockOpt::PacketFanout, val: 0 },
            Syscall::Socket { domain: Domain::Packet },
            // Congestion control on a packet socket.
            Syscall::Setsockopt { sock: Res(2), opt: SockOpt::TcpCongestion, val: 0 },
            // And the matching combinations succeed.
            Syscall::Setsockopt { sock: Res(0), opt: SockOpt::TcpCongestion, val: 1 },
            Syscall::Setsockopt { sock: Res(2), opt: SockOpt::PacketFanout, val: 0 },
        ]),
    );
    assert_eq!(rets[1], EINVAL);
    assert_eq!(rets[3], EINVAL);
    assert_eq!(rets[4], 0);
    assert_eq!(rets[5], 0);
}

#[test]
fn ioctl_requires_the_right_descriptor_kind() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Open { path: Path::Ext4File(0) },  // 0
            Syscall::Open { path: Path::BlockDev },     // 1
            Syscall::Open { path: Path::Tty },          // 2
            Syscall::Open { path: Path::SndCtl },       // 3
            Syscall::Socket { domain: Domain::Packet }, // 4
            // Block ioctls on a file fd.
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkBszSet, arg: 1 },
            // Net ioctls on a file fd.
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifHwAddr, arg: 1 },
            // Ext4 swap-boot on the block device.
            Syscall::Ioctl { fd: Res(1), cmd: IoctlCmd::Ext4SwapBoot, arg: 0 },
            // TTY config on the sound device.
            Syscall::Ioctl { fd: Res(3), cmd: IoctlCmd::TiocSerConfig, arg: 0 },
            // The right pairings all succeed.
            Syscall::Ioctl { fd: Res(1), cmd: IoctlCmd::BlkBszSet, arg: 1 },
            Syscall::Ioctl { fd: Res(4), cmd: IoctlCmd::SiocSifHwAddr, arg: 1 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::Ext4SwapBoot, arg: 0 },
            Syscall::Ioctl { fd: Res(2), cmd: IoctlCmd::TiocSerConfig, arg: 0 },
            Syscall::Ioctl { fd: Res(3), cmd: IoctlCmd::SndCtlElemAdd, arg: 0 },
        ]),
    );
    assert_eq!(&rets[5..9], &[EBADF, EBADF, EBADF, EBADF]);
    assert_eq!(&rets[9..14], &[0, 0, 0, 0, 0]);
}

#[test]
fn close_invalidates_descriptors() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Open { path: Path::Tty },
            Syscall::Close { fd: Res(0) },
            // Second close of the same fd: EBADF.
            Syscall::Close { fd: Res(0) },
            // Use after close: EBADF.
            Syscall::Read { fd: Res(0), off: 0 },
        ]),
    );
    assert_eq!(rets[1], 0);
    assert_eq!(rets[2], EBADF);
    assert_eq!(rets[3], EBADF);
}

#[test]
fn read_write_fadvise_on_files_and_devices() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Open { path: Path::Ext4File(2) },
            Syscall::Write { fd: Res(0), off: 5, val: 0xAB },
            Syscall::Read { fd: Res(0), off: 5 },
            Syscall::Open { path: Path::BlockDev },
            Syscall::Write { fd: Res(3), off: 2, val: 0x11 },
            Syscall::Read { fd: Res(3), off: 2 },
            Syscall::Fadvise { fd: Res(0) },
            Syscall::Fadvise { fd: Res(3) },
            // fadvise on a socket: EINVAL.
            Syscall::Socket { domain: Domain::Inet },
            Syscall::Fadvise { fd: Res(8) },
        ]),
    );
    assert_eq!(rets[2], 0xAB, "file read returns the written byte");
    assert_eq!(rets[9], EINVAL);
}

#[test]
fn msg_queue_lifecycle_and_errors() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Msgget { key: 5 },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Stat },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid },
            // Stat after removal: ENOENT.
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid },
        ]),
    );
    assert!(rets[0] > 0, "msgget returns the queue id");
    assert_eq!(rets[1], 0, "fresh queue has no messages");
    assert_eq!(rets[2], 0);
    assert_eq!(rets[3], ENOENT);
}

#[test]
fn configfs_open_of_absent_item_is_enoent() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Open { path: Path::Configfs(2) },
            Syscall::Mkdir { item: 2 },
            Syscall::Open { path: Path::Configfs(2) },
            Syscall::Rmdir { item: 2 },
        ]),
    );
    assert_eq!(rets[0], ENOENT);
    assert_eq!(rets[1], 0);
    // The successful open returns an fd (index 1 after the failed open
    // consumed no slot... the failed open returns ENOENT, not an fd).
    assert!(rets[2] < 64, "successful open returns an fd, got {:#x}", rets[2]);
    assert_eq!(rets[3], 0);
}

#[test]
fn getsockname_and_mac_io_round_trip() {
    let b = boot(KernelConfig::v5_3_10());
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Socket { domain: Domain::Packet },
            Syscall::Getsockname { sock: Res(0) }, // boot MAC
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::EthtoolSMac, arg: 9 },
            Syscall::Getsockname { sock: Res(0) }, // new MAC
        ]),
    );
    assert_ne!(rets[1], rets[3], "MAC change must be visible to getname");
    // Boot MAC is QEMU's default 52:54:00:12:34:56 little-endian packed.
    assert_eq!(rets[1], 0x5634_1200_5452);
}

#[test]
fn mount_is_idempotent_and_heavy() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![Syscall::Mount, Syscall::Mount]),
    );
    assert_eq!(rets[0], rets[1], "mount result is stable");
    assert_eq!(rets[0], 5, "all five inodes live");
}

#[test]
fn mtu_ioctl_bounds_sendmsg_payload() {
    let b = boot(KernelConfig::v5_3_10());
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Socket { domain: Domain::RawV6 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifMtu, arg: 0 }, // mtu 576
            Syscall::Sendmsg { sock: Res(0), len: 15 },
            Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::SiocSifMtu, arg: 7 }, // mtu 1472
            Syscall::Sendmsg { sock: Res(0), len: 15 },
        ]),
    );
    assert!(rets[2] <= rets[4], "larger MTU permits a larger payload");
}

#[test]
fn every_syscall_has_a_total_dispatch() {
    // Fuzzed sanity at the dispatch level: all 16 call kinds with nonsense
    // resource references return errno rather than faulting.
    let b = rc();
    let all_with_bad_refs = Program::new(vec![
        Syscall::Msgget { key: 0 },
        Syscall::Connect { sock: Res(0), tunnel_id: 0 },
        Syscall::Sendmsg { sock: Res(0), len: 0 },
        Syscall::Setsockopt { sock: Res(0), opt: SockOpt::PacketFanout, val: 0 },
        Syscall::Getsockname { sock: Res(0) },
        Syscall::Ioctl { fd: Res(0), cmd: IoctlCmd::BlkRaSet, arg: 0 },
        Syscall::Close { fd: Res(0) },
        Syscall::Read { fd: Res(0), off: 0 },
        Syscall::Write { fd: Res(0), off: 0, val: 0 },
        Syscall::Fadvise { fd: Res(0) },
        Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Stat },
        Syscall::Mkdir { item: 9 },
        Syscall::Rmdir { item: 9 },
        Syscall::Mount,
    ]);
    let rets = run(&b, all_with_bad_refs);
    assert_eq!(rets.len(), 14, "every call returned");
}

#[test]
fn results_are_identical_across_kernel_versions_for_neutral_programs() {
    // Programs that avoid the version-gated code paths behave identically
    // in both kernels — the gating only changes synchronization, not
    // semantics.
    let prog = Program::new(vec![
        Syscall::Socket { domain: Domain::Inet },
        Syscall::Setsockopt { sock: Res(0), opt: SockOpt::TcpCongestion, val: 2 },
        Syscall::Open { path: Path::Ext4File(1) },
        Syscall::Write { fd: Res(2), off: 3, val: 9 },
        Syscall::Read { fd: Res(2), off: 3 },
        Syscall::Mount,
    ]);
    let old = run(&boot(KernelConfig::v5_3_10()), prog.clone());
    let new = run(&rc(), prog);
    assert_eq!(old, new);
}

#[test]
fn msgsnd_msgrcv_fifo_semantics() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Msgget { key: 2 },                              // 0
            Syscall::Msgsnd { id: Res(0), mtype: 1, val: 10 },       // 1
            Syscall::Msgsnd { id: Res(0), mtype: 2, val: 20 },       // 2
            Syscall::Msgsnd { id: Res(0), mtype: 1, val: 30 },       // 3
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Stat },       // 4: qnum 3
            Syscall::Msgrcv { id: Res(0), mtype: 2 },                // 5: 20
            Syscall::Msgrcv { id: Res(0), mtype: 0 },                // 6: FIFO: 10
            Syscall::Msgrcv { id: Res(0), mtype: 0 },                // 7: 30
            Syscall::Msgrcv { id: Res(0), mtype: 0 },                // 8: ENOMSG
        ]),
    );
    assert_eq!(rets[4], 3);
    assert_eq!(rets[5], 20);
    assert_eq!(rets[6], 10);
    assert_eq!(rets[7], 30);
    assert_eq!(rets[8], sb_kernel::errno(42));
}

#[test]
fn msgsnd_queue_capacity_is_bounded() {
    let b = rc();
    let mut calls = vec![Syscall::Msgget { key: 1 }];
    for i in 0..10 {
        calls.push(Syscall::Msgsnd { id: Res(0), mtype: 1, val: i });
    }
    let rets = run(&b, Program::new(calls));
    // 8 sends succeed, the 9th and 10th hit EAGAIN.
    assert!(rets[1..9].iter().all(|r| *r == 0), "{rets:?}");
    assert_eq!(rets[9], sb_kernel::errno(11));
    assert_eq!(rets[10], sb_kernel::errno(11));
}

#[test]
fn msg_ops_on_removed_queue_fail_cleanly() {
    let b = rc();
    let rets = run(
        &b,
        Program::new(vec![
            Syscall::Msgget { key: 4 },
            Syscall::Msgctl { id: Res(0), cmd: MsgCmd::Rmid },
            Syscall::Msgsnd { id: Res(0), mtype: 1, val: 1 },
            Syscall::Msgrcv { id: Res(0), mtype: 0 },
        ]),
    );
    assert_eq!(rets[2], ENOENT);
    assert_eq!(rets[3], ENOENT);
}
