//! Sequential test programs: the kernel-input language.
//!
//! A [`Program`] is a short sequence of [`Syscall`]s — the "self-sufficient
//! snippets of code that set up and perform several system operations" the
//! paper assumes as input (§3.1). Arguments that name kernel resources (file
//! descriptors, message-queue ids) are [`Res`] references to the results of
//! earlier calls, mirroring Syzkaller's resource typing.

/// A reference to the result of an earlier syscall in the same program.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Res(pub u8);

/// Socket domains exposed by the simulated kernel.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// TCP/IP socket; interacts with the congestion-control subsystem.
    Inet,
    /// AF_PACKET socket; interacts with the fanout subsystem.
    Packet,
    /// Raw IPv6 socket; interacts with the device MTU.
    RawV6,
    /// PPPoL2TP socket; interacts with the tunnel registry.
    L2tp,
}

/// All socket domains, for generators.
pub const DOMAINS: [Domain; 4] = [Domain::Inet, Domain::Packet, Domain::RawV6, Domain::L2tp];

/// Socket options exposed by `setsockopt`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SockOpt {
    /// Join the packet fanout group (`PACKET_FANOUT`).
    PacketFanout,
    /// Set the system default congestion-control algorithm
    /// (`TCP_CONGESTION` with CAP_NET_ADMIN semantics).
    TcpCongestion,
}

/// All socket options, for generators.
pub const SOCK_OPTS: [SockOpt; 2] = [SockOpt::PacketFanout, SockOpt::TcpCongestion];

/// Ioctl commands exposed by the simulated kernel.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum IoctlCmd {
    /// Set the NIC MAC address (`SIOCSIFHWADDR`).
    SiocSifHwAddr,
    /// Get the NIC MAC address (`SIOCGIFHWADDR`).
    SiocGifHwAddr,
    /// Set the MAC through the ethtool/e1000 path.
    EthtoolSMac,
    /// Set the device MTU (`SIOCSIFMTU`).
    SiocSifMtu,
    /// Flush/rebuild an IPv6 route, bumping the fib6 cookie.
    SiocAddRt,
    /// Set the block-device logical block size (`BLKBSZSET`).
    BlkBszSet,
    /// Set the block-device readahead (`BLKRASET`).
    BlkRaSet,
    /// Shrink/grow the block-device capacity.
    BlkSetSize,
    /// `EXT4_IOC_SWAP_BOOT`: swap an inode with the boot-loader inode.
    Ext4SwapBoot,
    /// Trigger serial-port autoconfiguration (`TIOCSERCONFIG`).
    TiocSerConfig,
    /// Add a user control element (`SNDRV_CTL_IOCTL_ELEM_ADD`).
    SndCtlElemAdd,
}

/// All ioctl commands, for generators.
pub const IOCTL_CMDS: [IoctlCmd; 11] = [
    IoctlCmd::SiocSifHwAddr,
    IoctlCmd::SiocGifHwAddr,
    IoctlCmd::EthtoolSMac,
    IoctlCmd::SiocSifMtu,
    IoctlCmd::SiocAddRt,
    IoctlCmd::BlkBszSet,
    IoctlCmd::BlkRaSet,
    IoctlCmd::BlkSetSize,
    IoctlCmd::Ext4SwapBoot,
    IoctlCmd::TiocSerConfig,
    IoctlCmd::SndCtlElemAdd,
];

/// Openable paths in the simulated filesystem namespace.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Path {
    /// One of four ext4 files (by inode index).
    Ext4File(u8),
    /// The block device backing the filesystem.
    BlockDev,
    /// The serial TTY.
    Tty,
    /// The sound-card control device.
    SndCtl,
    /// A configfs item directory (by item index).
    Configfs(u8),
}

/// Message-queue control commands.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MsgCmd {
    /// Remove the queue (`IPC_RMID`).
    Rmid,
    /// Stat the queue (`IPC_STAT`).
    Stat,
}

/// One system call with typed arguments.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Syscall {
    /// Create a socket in `domain`.
    Socket {
        /// Socket domain.
        domain: Domain,
    },
    /// Connect a socket; for L2TP sockets, `tunnel_id` selects (and lazily
    /// registers) the tunnel.
    Connect {
        /// Socket fd (result reference).
        sock: Res,
        /// Tunnel id for L2TP; ignored otherwise.
        tunnel_id: u8,
    },
    /// Transmit on a socket.
    Sendmsg {
        /// Socket fd (result reference).
        sock: Res,
        /// Payload length selector.
        len: u8,
    },
    /// Set a socket option.
    Setsockopt {
        /// Socket fd (result reference).
        sock: Res,
        /// Option to set.
        opt: SockOpt,
        /// Option value.
        val: u8,
    },
    /// Query a socket's bound name/address.
    Getsockname {
        /// Socket fd (result reference).
        sock: Res,
    },
    /// Device control.
    Ioctl {
        /// Target fd (result reference).
        fd: Res,
        /// Command.
        cmd: IoctlCmd,
        /// Command argument.
        arg: u8,
    },
    /// Open a path, returning an fd.
    Open {
        /// The path to open.
        path: Path,
    },
    /// Close an fd.
    Close {
        /// Fd to close (result reference).
        fd: Res,
    },
    /// Read from a file/device.
    Read {
        /// Fd (result reference).
        fd: Res,
        /// Offset selector.
        off: u8,
    },
    /// Write to a file/device.
    Write {
        /// Fd (result reference).
        fd: Res,
        /// Offset selector.
        off: u8,
        /// Byte value to write.
        val: u8,
    },
    /// Readahead advice on a file (`posix_fadvise`).
    Fadvise {
        /// Fd (result reference).
        fd: Res,
    },
    /// Get (or create) a System V message queue.
    Msgget {
        /// IPC key.
        key: u8,
    },
    /// Control a System V message queue.
    Msgctl {
        /// Queue id (result reference to a previous `Msgget`).
        id: Res,
        /// Command.
        cmd: MsgCmd,
    },
    /// Send a message to a queue.
    Msgsnd {
        /// Queue id (result reference to a previous `Msgget`).
        id: Res,
        /// Message type tag.
        mtype: u8,
        /// Message payload byte.
        val: u8,
    },
    /// Receive a message from a queue.
    Msgrcv {
        /// Queue id (result reference to a previous `Msgget`).
        id: Res,
        /// Message type to receive (0 = any).
        mtype: u8,
    },
    /// Create a configfs item directory.
    Mkdir {
        /// Item index.
        item: u8,
    },
    /// Remove a configfs item directory.
    Rmdir {
        /// Item index.
        item: u8,
    },
    /// (Re)mount the filesystem — a deliberately heavy operation.
    Mount,
    /// Wait on a futex word until it becomes nonzero.
    FutexWait {
        /// Futex slot index.
        slot: u8,
    },
    /// Set a futex word and wake a waiter.
    FutexWake {
        /// Futex slot index.
        slot: u8,
    },
    /// Register interest in an event source (`epoll_ctl(EPOLL_CTL_ADD)`).
    EpollAdd {
        /// Event-source slot.
        slot: u8,
    },
    /// Fire an event source, invoking the poll callback.
    EpollWake {
        /// Event-source slot.
        slot: u8,
    },
    /// Submit an NBD request.
    NbdSend {
        /// Payload length selector.
        len: u8,
    },
    /// Disconnect the NBD device, draining in-flight requests.
    NbdDisconnect,
    /// Connect a virtio vsock stream socket.
    VsockConnect {
        /// Destination CID selector.
        cid: u8,
    },
    /// Transmit on the vsock socket.
    VsockSend {
        /// Payload length selector.
        len: u8,
    },
    /// Activate a kernfs node, making it visible.
    KernfsActivate {
        /// Node selector.
        node: u8,
    },
    /// Notify watchers of a kernfs node.
    KernfsNotify {
        /// Node selector.
        node: u8,
    },
    /// Queue a work item on the workqueue.
    WqQueue {
        /// Work-item tag.
        work: u8,
    },
    /// Flush the workqueue, waiting for in-flight work.
    WqFlush,
}

impl Syscall {
    /// The syscall's name, for display.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Socket { .. } => "socket",
            Syscall::Connect { .. } => "connect",
            Syscall::Sendmsg { .. } => "sendmsg",
            Syscall::Setsockopt { .. } => "setsockopt",
            Syscall::Getsockname { .. } => "getsockname",
            Syscall::Ioctl { .. } => "ioctl",
            Syscall::Open { .. } => "open",
            Syscall::Close { .. } => "close",
            Syscall::Read { .. } => "read",
            Syscall::Write { .. } => "write",
            Syscall::Fadvise { .. } => "fadvise",
            Syscall::Msgget { .. } => "msgget",
            Syscall::Msgctl { .. } => "msgctl",
            Syscall::Msgsnd { .. } => "msgsnd",
            Syscall::Msgrcv { .. } => "msgrcv",
            Syscall::Mkdir { .. } => "mkdir",
            Syscall::Rmdir { .. } => "rmdir",
            Syscall::Mount => "mount",
            Syscall::FutexWait { .. } => "futex_wait",
            Syscall::FutexWake { .. } => "futex_wake",
            Syscall::EpollAdd { .. } => "epoll_add",
            Syscall::EpollWake { .. } => "epoll_wake",
            Syscall::NbdSend { .. } => "nbd_send",
            Syscall::NbdDisconnect => "nbd_disconnect",
            Syscall::VsockConnect { .. } => "vsock_connect",
            Syscall::VsockSend { .. } => "vsock_send",
            Syscall::KernfsActivate { .. } => "kernfs_activate",
            Syscall::KernfsNotify { .. } => "kernfs_notify",
            Syscall::WqQueue { .. } => "wq_queue",
            Syscall::WqFlush => "wq_flush",
        }
    }

    /// The result references this call consumes.
    pub fn res_args(&self) -> Vec<Res> {
        match self {
            Syscall::Connect { sock, .. }
            | Syscall::Sendmsg { sock, .. }
            | Syscall::Setsockopt { sock, .. }
            | Syscall::Getsockname { sock } => vec![*sock],
            Syscall::Ioctl { fd, .. }
            | Syscall::Close { fd }
            | Syscall::Read { fd, .. }
            | Syscall::Write { fd, .. }
            | Syscall::Fadvise { fd } => vec![*fd],
            Syscall::Msgctl { id, .. }
            | Syscall::Msgsnd { id, .. }
            | Syscall::Msgrcv { id, .. } => vec![*id],
            _ => vec![],
        }
    }
}

impl std::fmt::Display for Syscall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Syscall::Socket { domain } => write!(f, "socket({domain:?})"),
            Syscall::Connect { sock, tunnel_id } => {
                write!(f, "connect(r{}, tid={})", sock.0, tunnel_id)
            }
            Syscall::Sendmsg { sock, len } => write!(f, "sendmsg(r{}, len={})", sock.0, len),
            Syscall::Setsockopt { sock, opt, val } => {
                write!(f, "setsockopt(r{}, {opt:?}, {val})", sock.0)
            }
            Syscall::Getsockname { sock } => write!(f, "getsockname(r{})", sock.0),
            Syscall::Ioctl { fd, cmd, arg } => write!(f, "ioctl(r{}, {cmd:?}, {arg})", fd.0),
            Syscall::Open { path } => write!(f, "open({path:?})"),
            Syscall::Close { fd } => write!(f, "close(r{})", fd.0),
            Syscall::Read { fd, off } => write!(f, "read(r{}, off={})", fd.0, off),
            Syscall::Write { fd, off, val } => {
                write!(f, "write(r{}, off={}, val={})", fd.0, off, val)
            }
            Syscall::Fadvise { fd } => write!(f, "fadvise(r{})", fd.0),
            Syscall::Msgget { key } => write!(f, "msgget(key={key})"),
            Syscall::Msgctl { id, cmd } => write!(f, "msgctl(r{}, {cmd:?})", id.0),
            Syscall::Msgsnd { id, mtype, val } => {
                write!(f, "msgsnd(r{}, mtype={mtype}, val={val})", id.0)
            }
            Syscall::Msgrcv { id, mtype } => write!(f, "msgrcv(r{}, mtype={mtype})", id.0),
            Syscall::Mkdir { item } => write!(f, "mkdir(item={item})"),
            Syscall::Rmdir { item } => write!(f, "rmdir(item={item})"),
            Syscall::Mount => write!(f, "mount()"),
            Syscall::FutexWait { slot } => write!(f, "futex_wait(slot={slot})"),
            Syscall::FutexWake { slot } => write!(f, "futex_wake(slot={slot})"),
            Syscall::EpollAdd { slot } => write!(f, "epoll_add(slot={slot})"),
            Syscall::EpollWake { slot } => write!(f, "epoll_wake(slot={slot})"),
            Syscall::NbdSend { len } => write!(f, "nbd_send(len={len})"),
            Syscall::NbdDisconnect => write!(f, "nbd_disconnect()"),
            Syscall::VsockConnect { cid } => write!(f, "vsock_connect(cid={cid})"),
            Syscall::VsockSend { len } => write!(f, "vsock_send(len={len})"),
            Syscall::KernfsActivate { node } => write!(f, "kernfs_activate(node={node})"),
            Syscall::KernfsNotify { node } => write!(f, "kernfs_notify(node={node})"),
            Syscall::WqQueue { work } => write!(f, "wq_queue(work={work})"),
            Syscall::WqFlush => write!(f, "wq_flush()"),
        }
    }
}

/// A sequential test: an ordered list of syscalls executed by one user
/// process.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    /// The calls, executed in order; call `i`'s result is `r{i}`.
    pub calls: Vec<Syscall>,
}

impl Program {
    /// Creates a program from calls.
    pub fn new(calls: Vec<Syscall>) -> Self {
        Program { calls }
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if the program has no calls.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// True if every [`Res`] argument refers to an earlier call.
    pub fn is_well_formed(&self) -> bool {
        self.calls
            .iter()
            .enumerate()
            .all(|(i, c)| c.res_args().iter().all(|r| usize::from(r.0) < i))
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.calls.iter().enumerate() {
            writeln!(f, "r{i} = {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formedness_checks_res_ordering() {
        let good = Program::new(vec![
            Syscall::Socket {
                domain: Domain::L2tp,
            },
            Syscall::Connect {
                sock: Res(0),
                tunnel_id: 1,
            },
        ]);
        assert!(good.is_well_formed());
        let bad = Program::new(vec![Syscall::Connect {
            sock: Res(0),
            tunnel_id: 1,
        }]);
        assert!(!bad.is_well_formed());
        let fwd = Program::new(vec![
            Syscall::Sendmsg {
                sock: Res(1),
                len: 1,
            },
            Syscall::Socket {
                domain: Domain::Inet,
            },
        ]);
        assert!(!fwd.is_well_formed());
    }

    #[test]
    fn display_is_syz_like() {
        let p = Program::new(vec![
            Syscall::Socket {
                domain: Domain::L2tp,
            },
            Syscall::Connect {
                sock: Res(0),
                tunnel_id: 3,
            },
            Syscall::Sendmsg {
                sock: Res(0),
                len: 9,
            },
        ]);
        let s = p.to_string();
        assert!(s.contains("r0 = socket(L2tp)"));
        assert!(s.contains("r1 = connect(r0, tid=3)"));
        assert!(s.contains("r2 = sendmsg(r0, len=9)"));
    }

    #[test]
    fn res_args_cover_all_consuming_calls() {
        let p = Program::new(vec![
            Syscall::Open {
                path: Path::Ext4File(2),
            },
            Syscall::Write {
                fd: Res(0),
                off: 3,
                val: 7,
            },
            Syscall::Ioctl {
                fd: Res(0),
                cmd: IoctlCmd::Ext4SwapBoot,
                arg: 0,
            },
        ]);
        assert!(p.calls[0].res_args().is_empty());
        assert_eq!(p.calls[1].res_args(), vec![Res(0)]);
        assert_eq!(p.calls[2].res_args(), vec![Res(0)]);
        assert!(p.is_well_formed());
    }
}
