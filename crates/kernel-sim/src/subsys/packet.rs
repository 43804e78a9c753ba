//! AF_PACKET sockets: fanout groups and getname (issues #8 reader, #17).
//!
//! * **#17** — `fanout_demux_rollover()` walks the fanout array and reads
//!   `num_members` with *no* lock, while `__fanout_link()`/
//!   `__fanout_unlink()` mutate both under the fanout lock. The reader can
//!   observe a stale member count and a cleared slot. The upstream fix
//!   (commit 94f633ea) converted the shared fields to READ_ONCE/WRITE_ONCE;
//!   the patched build models exactly that.
//! * **#8 (reader)** — `packet_getname()` copies `dev->dev_addr` with no
//!   lock at all, racing `e1000_set_mac()` in `netdev.rs`.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::subsys::netdev::{self, ETH_ALEN};
use crate::sym;
use crate::{Env, EINVAL};

/// Maximum sockets in the fanout group.
pub const FANOUT_MAX: u64 = 4;

/// Fanout structure field offsets.
pub mod fanout {
    /// Member pointer slots (`FANOUT_MAX` × 8 bytes).
    pub const ARR: u64 = 0;
    /// Member count (u32).
    pub const NUM_MEMBERS: u64 = 32;
    /// Rollover cursor (u32).
    pub const ROLLOVER: u64 = 36;
}

/// Boots the packet subsystem: one global fanout group.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let f = env.kzalloc(64).await?;
    let lock = env.kzalloc(8).await?;
    Ok(vec![("packet.fanout", f), ("packet.fanout_lock", lock)])
}

/// Creates an AF_PACKET socket object.
pub async fn packet_socket(env: &Env<'_>) -> KResult<u64> {
    let sk = env.kzalloc(64).await?;
    env.ctx
        .write_u32(site!("packet_create:init"), sk, 17)
        .await?; // AF_PACKET
    Ok(sk)
}

/// `PACKET_FANOUT` setsockopt: link the socket into the group (#17 writer).
pub async fn fanout_add(env: &Env<'_>, sk: u64) -> KResult<u64> {
    let f = sym!(env, "packet.fanout");
    let lock = sym!(env, "packet.fanout_lock");
    env.ctx
        .with_lock(lock, async {
            let n = env
                .ctx
                .read_u32(site!("__fanout_link:num"), f + fanout::NUM_MEMBERS)
                .await?;
            if n >= FANOUT_MAX {
                return Ok(EINVAL);
            }
            if env.config.has_bug(17) {
                env.ctx
                    .write_u64(site!("__fanout_link:slot"), f + fanout::ARR + 8 * n, sk)
                    .await?;
            } else {
                env.ctx
                    .write_atomic(site!("__fanout_link:slot"), f + fanout::ARR + 8 * n, 8, sk)
                    .await?;
            }
            if env.config.has_bug(17) {
                env.ctx
                    .write_u32(
                        site!("__fanout_link:num_inc"),
                        f + fanout::NUM_MEMBERS,
                        n + 1,
                    )
                    .await?;
            } else {
                env.ctx
                    .write_atomic(
                        site!("__fanout_link:num_inc"),
                        f + fanout::NUM_MEMBERS,
                        4,
                        n + 1,
                    )
                    .await?;
            }
            Ok(0)
        })
        .await
}

/// Socket close path: unlink from the group (#17 writer).
pub async fn fanout_unlink(env: &Env<'_>, sk: u64) -> KResult<u64> {
    let f = sym!(env, "packet.fanout");
    let lock = sym!(env, "packet.fanout_lock");
    env.ctx
        .with_lock(lock, async {
            let n = env
                .ctx
                .read_u32(site!("__fanout_unlink:num"), f + fanout::NUM_MEMBERS)
                .await?;
            for i in 0..n {
                let slot = f + fanout::ARR + 8 * u64::from(i as u32);
                let p = env
                    .ctx
                    .read_u64(site!("__fanout_unlink:scan"), slot)
                    .await?;
                if p == sk {
                    // Compact: move the last member into the hole, clear the
                    // tail, decrement the count.
                    let last = f + fanout::ARR + 8 * (n - 1);
                    let moved = env
                        .ctx
                        .read_u64(site!("__fanout_unlink:tail"), last)
                        .await?;
                    if env.config.has_bug(17) {
                        env.ctx
                            .write_u64(site!("__fanout_unlink:slot"), slot, moved)
                            .await?;
                        env.ctx
                            .write_u64(site!("__fanout_unlink:clear"), last, 0)
                            .await?;
                    } else {
                        env.ctx
                            .write_atomic(site!("__fanout_unlink:slot"), slot, 8, moved)
                            .await?;
                        env.ctx
                            .write_atomic(site!("__fanout_unlink:clear"), last, 8, 0)
                            .await?;
                    }
                    if env.config.has_bug(17) {
                        env.ctx
                            .write_u32(
                                site!("__fanout_unlink:num_dec"),
                                f + fanout::NUM_MEMBERS,
                                n - 1,
                            )
                            .await?;
                    } else {
                        env.ctx
                            .write_atomic(
                                site!("__fanout_unlink:num_dec"),
                                f + fanout::NUM_MEMBERS,
                                4,
                                n - 1,
                            )
                            .await?;
                    }
                    return Ok(0);
                }
            }
            Ok(0)
        })
        .await
}

/// Transmit on a packet socket: `fanout_demux_rollover` picks a member with
/// unsynchronized reads (#17 reader).
pub async fn packet_sendmsg(env: &Env<'_>, sk: u64, len: u64) -> KResult<u64> {
    let f = sym!(env, "packet.fanout");
    let buggy = env.config.has_bug(17);
    let n = if buggy {
        env.ctx
            .read_u32(site!("fanout_demux_rollover:num"), f + fanout::NUM_MEMBERS)
            .await?
    } else {
        env.ctx
            .read_atomic(
                site!("fanout_demux_rollover:num"),
                f + fanout::NUM_MEMBERS,
                4,
            )
            .await?
    };
    if n == 0 {
        // No fanout group: plain transmit accounting on the socket itself.
        let tx = env
            .ctx
            .read_u64(site!("packet_sendmsg:sk_tx"), sk + 8)
            .await?;
        env.ctx
            .write_u64(site!("packet_sendmsg:sk_tx"), sk + 8, tx + 1)
            .await?;
        return Ok(0);
    }
    let idx = len % n;
    let slot = f + fanout::ARR + 8 * idx;
    let member = if buggy {
        env.ctx
            .read_u64(site!("fanout_demux_rollover:slot"), slot)
            .await?
    } else {
        env.ctx
            .read_atomic(site!("fanout_demux_rollover:slot"), slot, 8)
            .await?
    };
    if member == 0 {
        // Stale count: the slot was already cleared. Harmful in the real
        // kernel (out-of-range demux); here we just fail the send.
        return Ok(EINVAL);
    }
    // Deliver: bump the chosen member's rx counter.
    let rx = env
        .ctx
        .read_atomic(site!("fanout_demux_rollover:deliver"), member + 16, 8)
        .await?;
    env.ctx
        .write_atomic(
            site!("fanout_demux_rollover:deliver"),
            member + 16,
            8,
            rx + 1,
        )
        .await?;
    Ok(idx)
}

/// `packet_getname`: copy the device MAC with no locking (#8 reader).
pub async fn packet_getname(env: &Env<'_>, _sk: u64) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    let mut out = 0u64;
    for i in 0..ETH_ALEN {
        let b = if env.config.has_bug(8) {
            env.ctx
                .read_u8(
                    site!("packet_getname:memcpy"),
                    d + netdev::dev::DEV_ADDR + i,
                )
                .await?
        } else {
            env.ctx
                .read_atomic(
                    site!("packet_getname:memcpy"),
                    d + netdev::dev::DEV_ADDR + i,
                    1,
                )
                .await?
        };
        out |= b << (8 * i);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn fanout_link_send_unlink_cycle() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let mut exec = Executor::new(1);
        let kernel = booted.kernel.clone();
        let r = exec.run(
            booted.snapshot.clone(),
            vec![job(move |ctx| async move {
                let env = Env {
                    ctx: &ctx,
                    syms: &kernel.syms,
                    config: kernel.config,
                };
                let a = packet_socket(&env).await?;
                let b = packet_socket(&env).await?;
                assert_eq!(fanout_add(&env, a).await?, 0);
                assert_eq!(fanout_add(&env, b).await?, 0);
                // Send to both members.
                assert_eq!(packet_sendmsg(&env, a, 0).await?, 0);
                assert_eq!(packet_sendmsg(&env, a, 1).await?, 1);
                // Unlink a; b moves into slot 0.
                assert_eq!(fanout_unlink(&env, a).await?, 0);
                assert_eq!(packet_sendmsg(&env, a, 0).await?, 0);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }

    #[test]
    fn fanout_group_capacity_is_enforced() {
        let booted = boot(KernelConfig::v5_12_rc3());
        let mut exec = Executor::new(1);
        let kernel = booted.kernel.clone();
        let r = exec.run(
            booted.snapshot.clone(),
            vec![job(move |ctx| async move {
                let env = Env {
                    ctx: &ctx,
                    syms: &kernel.syms,
                    config: kernel.config,
                };
                for _ in 0..FANOUT_MAX {
                    let s = packet_socket(&env).await?;
                    assert_eq!(fanout_add(&env, s).await?, 0);
                }
                let extra = packet_socket(&env).await?;
                assert_eq!(fanout_add(&env, extra).await?, EINVAL);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed());
    }
}
