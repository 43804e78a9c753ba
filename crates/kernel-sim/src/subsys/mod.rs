//! Kernel subsystems.
//!
//! Each module models one Linux subsystem involved in a Table 2 finding:
//! global state lives in guest memory (registered in the symbol table at
//! boot), and handlers perform traced, schedulable accesses. Buggy code
//! paths are gated on [`crate::KernelConfig::has_bug`], so the same source
//! builds the "5.3.10", "5.12-rc3", and fully patched kernels.

pub mod blkdev;
pub mod configfs;
pub mod epollwake;
pub mod ext4;
pub mod fib6;
pub mod futexq;
pub mod kernfs_node;
pub mod l2tp;
pub mod nbd_conn;
pub mod netdev;
pub mod packet;
pub mod rhash;
pub mod slab;
pub mod sound;
pub mod tcp_cong;
pub mod tty;
pub mod vsock;
pub mod workqueue_flush;

use sb_vmm::ctx::{Ctx, KResult};

use crate::prog::{Domain, IoctlCmd, Path, SockOpt, Syscall};
use crate::{Env, FdKind, FdObj, KernelConfig, ProcState, Symbols, EBADF, EINVAL};

/// Boots every subsystem in a fixed order, so global addresses are
/// deterministic across boots of the same configuration.
pub async fn boot_all(ctx: &Ctx, syms: &mut Symbols, config: KernelConfig) -> KResult<()> {
    // The slab-statistics cells must exist before anything calls
    // `Env::kzalloc`, so slab boots first.
    slab::boot(ctx, syms).await?;
    let env = Env { ctx, syms, config };
    // `Env` borrows `syms` immutably; subsystems therefore allocate first
    // and register after, via the returned symbol lists.
    let mut pending: Vec<(&'static str, u64)> = Vec::new();
    pending.extend(netdev::boot(&env).await?);
    pending.extend(packet::boot(&env).await?);
    pending.extend(fib6::boot(&env).await?);
    pending.extend(tcp_cong::boot(&env).await?);
    pending.extend(l2tp::boot(&env).await?);
    pending.extend(rhash::boot(&env).await?);
    pending.extend(configfs::boot(&env).await?);
    pending.extend(ext4::boot(&env).await?);
    pending.extend(blkdev::boot(&env).await?);
    pending.extend(tty::boot(&env).await?);
    pending.extend(sound::boot(&env).await?);
    // The six sync-oracle subsystems boot after the original twelve. Moving
    // a subsystem in this order moves the guest address of everything booted
    // after it, and with them every golden digest, PMC address and report
    // byte that names one.
    pending.extend(futexq::boot(&env).await?);
    pending.extend(epollwake::boot(&env).await?);
    pending.extend(nbd_conn::boot(&env).await?);
    pending.extend(vsock::boot(&env).await?);
    pending.extend(kernfs_node::boot(&env).await?);
    pending.extend(workqueue_flush::boot(&env).await?);
    for (name, addr) in pending {
        syms.register(name, addr);
    }
    Ok(())
}

/// Routes one syscall to its subsystem handler.
pub async fn dispatch(env: &Env<'_>, proc: &mut ProcState, call: &Syscall) -> KResult<u64> {
    match call {
        Syscall::Socket { domain } => {
            let sk = match domain {
                Domain::Inet => tcp_cong::inet_socket(env).await?,
                Domain::Packet => packet::packet_socket(env).await?,
                Domain::RawV6 => netdev::rawv6_socket(env).await?,
                Domain::L2tp => l2tp::l2tp_socket(env).await?,
            };
            Ok(proc.install_fd(FdObj {
                kind: FdKind::Socket(*domain),
                addr: sk,
            }))
        }
        Syscall::Connect { sock, tunnel_id } => match proc.resolve_fd(*sock) {
            Some(FdObj {
                kind: FdKind::Socket(Domain::L2tp),
                addr,
            }) => l2tp::pppol2tp_connect(env, addr, u64::from(*tunnel_id)).await,
            Some(FdObj {
                kind: FdKind::Socket(Domain::Inet),
                addr,
            }) => fib6::inet_connect(env, addr).await,
            Some(FdObj {
                kind: FdKind::Socket(_),
                ..
            }) => Ok(0),
            _ => Ok(EBADF),
        },
        Syscall::Sendmsg { sock, len } => match proc.resolve_fd(*sock) {
            Some(FdObj {
                kind: FdKind::Socket(Domain::L2tp),
                addr,
            }) => l2tp::l2tp_sendmsg(env, addr).await,
            Some(FdObj {
                kind: FdKind::Socket(Domain::RawV6),
                addr,
            }) => netdev::rawv6_send_hdrinc(env, addr, u64::from(*len)).await,
            Some(FdObj {
                kind: FdKind::Socket(Domain::Packet),
                addr,
            }) => packet::packet_sendmsg(env, addr, u64::from(*len)).await,
            Some(FdObj {
                kind: FdKind::Socket(Domain::Inet),
                addr,
            }) => tcp_cong::inet_sendmsg(env, addr).await,
            _ => Ok(EBADF),
        },
        Syscall::Setsockopt { sock, opt, val } => match (proc.resolve_fd(*sock), opt) {
            (
                Some(FdObj {
                    kind: FdKind::Socket(Domain::Packet),
                    addr,
                }),
                SockOpt::PacketFanout,
            ) => packet::fanout_add(env, addr).await,
            (
                Some(FdObj {
                    kind: FdKind::Socket(Domain::Inet),
                    addr,
                }),
                SockOpt::TcpCongestion,
            ) => tcp_cong::set_default_congestion_control(env, addr, u64::from(*val)).await,
            (Some(_), _) => Ok(EINVAL),
            _ => Ok(EBADF),
        },
        Syscall::Getsockname { sock } => match proc.resolve_fd(*sock) {
            Some(FdObj {
                kind: FdKind::Socket(Domain::Packet),
                addr,
            }) => packet::packet_getname(env, addr).await,
            Some(FdObj {
                kind: FdKind::Socket(_),
                ..
            }) => Ok(0),
            _ => Ok(EBADF),
        },
        Syscall::Ioctl { fd, cmd, arg } => {
            let arg = u64::from(*arg);
            let fdo = proc.resolve_fd(*fd);
            match cmd {
                IoctlCmd::SiocSifHwAddr => match fdo {
                    Some(FdObj {
                        kind: FdKind::Socket(_),
                        ..
                    }) => netdev::eth_commit_mac_addr_change(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::SiocGifHwAddr => match fdo {
                    Some(FdObj {
                        kind: FdKind::Socket(_),
                        ..
                    }) => netdev::dev_ifsioc_locked(env).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::EthtoolSMac => match fdo {
                    Some(FdObj {
                        kind: FdKind::Socket(_),
                        ..
                    }) => netdev::e1000_set_mac(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::SiocSifMtu => match fdo {
                    Some(FdObj {
                        kind: FdKind::Socket(_),
                        ..
                    }) => netdev::dev_set_mtu(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::SiocAddRt => match fdo {
                    Some(FdObj {
                        kind: FdKind::Socket(_),
                        ..
                    }) => fib6::fib6_clean_node(env).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::BlkBszSet => match fdo {
                    Some(FdObj {
                        kind: FdKind::BlockDev,
                        ..
                    }) => blkdev::set_blocksize(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::BlkRaSet => match fdo {
                    Some(FdObj {
                        kind: FdKind::BlockDev,
                        ..
                    }) => blkdev::blkdev_ioctl_ra_set(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::BlkSetSize => match fdo {
                    Some(FdObj {
                        kind: FdKind::BlockDev,
                        ..
                    }) => blkdev::blkdev_set_capacity(env, arg).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::Ext4SwapBoot => match fdo {
                    Some(FdObj {
                        kind: FdKind::File(ino),
                        ..
                    }) => ext4::swap_inode_boot_loader(env, ino).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::TiocSerConfig => match fdo {
                    Some(FdObj {
                        kind: FdKind::Tty, ..
                    }) => tty::uart_do_autoconfig(env).await,
                    _ => Ok(EBADF),
                },
                IoctlCmd::SndCtlElemAdd => match fdo {
                    Some(FdObj {
                        kind: FdKind::SndCtl,
                        ..
                    }) => sound::snd_ctl_elem_add(env, arg).await,
                    _ => Ok(EBADF),
                },
            }
        }
        Syscall::Open { path } => match path {
            Path::Ext4File(n) => {
                let n = n % ext4::NUM_INODES;
                ext4::ext4_file_open(env, n).await?;
                Ok(proc.install_fd(FdObj {
                    kind: FdKind::File(n),
                    addr: 0,
                }))
            }
            Path::BlockDev => {
                blkdev::blkdev_open(env).await?;
                Ok(proc.install_fd(FdObj {
                    kind: FdKind::BlockDev,
                    addr: 0,
                }))
            }
            Path::Tty => {
                tty::tty_port_open(env).await?;
                Ok(proc.install_fd(FdObj {
                    kind: FdKind::Tty,
                    addr: 0,
                }))
            }
            Path::SndCtl => Ok(proc.install_fd(FdObj {
                kind: FdKind::SndCtl,
                addr: 0,
            })),
            Path::Configfs(i) => {
                let i = i % configfs::NUM_ITEMS;
                let r = configfs::configfs_lookup(env, i).await?;
                if r == crate::ENOENT {
                    Ok(r)
                } else {
                    Ok(proc.install_fd(FdObj {
                        kind: FdKind::Configfs(i),
                        addr: 0,
                    }))
                }
            }
        },
        Syscall::Close { fd } => {
            let Some(obj) = proc.resolve_fd(*fd) else {
                return Ok(EBADF);
            };
            // Invalidate the descriptor.
            if let Some(v) = proc.resolve_val(*fd) {
                if let Ok(i) = usize::try_from(v) {
                    if i < proc.fds.len() {
                        proc.fds[i] = None;
                    }
                }
            }
            match obj.kind {
                FdKind::Socket(Domain::Packet) => packet::fanout_unlink(env, obj.addr).await,
                FdKind::Tty => tty::tty_port_close(env).await,
                _ => Ok(0),
            }
        }
        Syscall::Read { fd, off } => match proc.resolve_fd(*fd) {
            Some(FdObj {
                kind: FdKind::File(ino),
                ..
            }) => ext4::ext4_file_read(env, ino, u64::from(*off)).await,
            Some(FdObj {
                kind: FdKind::BlockDev,
                ..
            }) => blkdev::do_mpage_readpage(env, u64::from(*off)).await,
            Some(_) => Ok(0),
            _ => Ok(EBADF),
        },
        Syscall::Write { fd, off, val } => match proc.resolve_fd(*fd) {
            Some(FdObj {
                kind: FdKind::File(ino),
                ..
            }) => ext4::ext4_file_write(env, ino, u64::from(*off), u64::from(*val)).await,
            Some(FdObj {
                kind: FdKind::BlockDev,
                ..
            }) => blkdev::blkdev_direct_write(env, u64::from(*off), u64::from(*val)).await,
            Some(_) => Ok(0),
            _ => Ok(EBADF),
        },
        Syscall::Fadvise { fd } => match proc.resolve_fd(*fd) {
            Some(FdObj {
                kind: FdKind::File(_) | FdKind::BlockDev,
                ..
            }) => blkdev::generic_fadvise(env).await,
            Some(_) => Ok(EINVAL),
            _ => Ok(EBADF),
        },
        Syscall::Msgget { key } => rhash::msgget(env, u64::from(*key)).await,
        Syscall::Msgctl { id, cmd } => {
            let Some(id) = proc.resolve_val(*id) else {
                return Ok(EINVAL);
            };
            rhash::msgctl(env, id, *cmd).await
        }
        Syscall::Msgsnd { id, mtype, val } => {
            let Some(id) = proc.resolve_val(*id) else {
                return Ok(EINVAL);
            };
            rhash::msgsnd(env, id, u64::from(*mtype), u64::from(*val)).await
        }
        Syscall::Msgrcv { id, mtype } => {
            let Some(id) = proc.resolve_val(*id) else {
                return Ok(EINVAL);
            };
            rhash::msgrcv(env, id, u64::from(*mtype)).await
        }
        Syscall::Mkdir { item } => configfs::configfs_mkdir(env, item % configfs::NUM_ITEMS).await,
        Syscall::Rmdir { item } => configfs::configfs_rmdir(env, item % configfs::NUM_ITEMS).await,
        Syscall::Mount => ext4::ext4_fill_super(env).await,
        Syscall::FutexWait { slot } => futexq::futex_wait(env, *slot).await,
        Syscall::FutexWake { slot } => futexq::futex_wake(env, *slot).await,
        Syscall::EpollAdd { slot } => epollwake::ep_insert(env, u64::from(*slot)).await,
        Syscall::EpollWake { slot } => epollwake::ep_poll_callback(env, u64::from(*slot)).await,
        Syscall::NbdSend { len } => nbd_conn::nbd_send(env, u64::from(*len)).await,
        Syscall::NbdDisconnect => nbd_conn::nbd_disconnect(env).await,
        Syscall::VsockConnect { cid } => vsock::vsock_stream_connect(env, u64::from(*cid)).await,
        Syscall::VsockSend { len } => vsock::virtio_transport_send(env, u64::from(*len)).await,
        Syscall::KernfsActivate { node } => {
            kernfs_node::kernfs_activate(env, u64::from(*node)).await
        }
        Syscall::KernfsNotify { node } => kernfs_node::kernfs_notify(env, u64::from(*node)).await,
        Syscall::WqQueue { work } => workqueue_flush::queue_work(env, u64::from(*work)).await,
        Syscall::WqFlush => workqueue_flush::flush_workqueue(env).await,
    }
}
