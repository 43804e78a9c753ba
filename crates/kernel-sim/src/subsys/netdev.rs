//! The network device core: MAC address and MTU state (issues #7, #8, #9).
//!
//! * **#9** — `eth_commit_mac_addr_change()` copies the new MAC into
//!   `dev->dev_addr` byte by byte while holding the RTNL lock;
//!   `dev_ifsioc_locked()` copies it out under only `rcu_read_lock()`. The
//!   two paths use *different* locks, so the reader can observe a torn,
//!   half-updated MAC — exactly the harmful race of Figure 3.
//! * **#8** — `e1000_set_mac()` writes the same bytes under the driver's own
//!   lock while `packet_getname()` (in `packet.rs`) reads with no lock.
//! * **#7** — `__dev_set_mtu()` stores the MTU with a plain unlocked write
//!   while `rawv6_send_hdrinc()` reads it mid-transmission.
//!
//! In patched builds all writers and readers share the RTNL lock.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// Byte length of a MAC address.
pub const ETH_ALEN: u64 = 6;

/// `struct net_device` field offsets (in the simulated dev0 object).
pub mod dev {
    /// MAC address bytes (6 bytes at offset 0).
    pub const DEV_ADDR: u64 = 0;
    /// MTU (u32).
    pub const MTU: u64 = 8;
    /// Transmit counter (u64), touched by senders.
    pub const TX_PACKETS: u64 = 16;
}

/// Boots the device core: one NIC with a default MAC and MTU.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let d = env.kzalloc(64).await?;
    // Default MAC 52:54:00:12:34:56 (QEMU's classic default), default MTU
    // 1500.
    let mac = [0x52u64, 0x54, 0x00, 0x12, 0x34, 0x56];
    for (i, b) in mac.iter().enumerate() {
        env.ctx
            .write_u8(site!("netdev_boot:mac"), d + dev::DEV_ADDR + i as u64, *b)
            .await?;
    }
    env.ctx
        .write_u32(site!("netdev_boot:mtu"), d + dev::MTU, 1500)
        .await?;
    let rtnl = env.kzalloc(8).await?;
    let ethtool = env.kzalloc(8).await?;
    Ok(vec![
        ("net.dev0", d),
        ("net.rtnl_lock", rtnl),
        ("net.ethtool_lock", ethtool),
    ])
}

/// Creates a raw IPv6 socket object.
pub async fn rawv6_socket(env: &Env<'_>) -> KResult<u64> {
    let sk = env.kzalloc(64).await?;
    env.ctx
        .write_u32(site!("rawv6_socket:init"), sk, 10)
        .await?; // AF_INET6
    Ok(sk)
}

/// `SIOCSIFHWADDR` path: commit a new MAC under the RTNL lock (#9 writer).
pub async fn eth_commit_mac_addr_change(env: &Env<'_>, seed: u64) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    let rtnl = sym!(env, "net.rtnl_lock");
    // In builds where the MAC races (#8/#9) exist, the copy is a plain
    // per-byte memcpy; fixed builds use marked stores so the lockless
    // readers pair safely.
    let plain = env.config.has_bug(8) || env.config.has_bug(9);
    env.ctx
        .with_lock(rtnl, async {
            // memcpy(dev->dev_addr, addr->sa_data, ETH_ALEN), byte by byte —
            // each byte is a separate schedulable access.
            for i in 0..ETH_ALEN {
                let b = (seed.wrapping_mul(37).wrapping_add(i * 11)) & 0xff;
                if plain {
                    env.ctx
                        .write_u8(
                            site!("eth_commit_mac_addr_change:memcpy"),
                            d + dev::DEV_ADDR + i,
                            b,
                        )
                        .await?;
                } else {
                    env.ctx
                        .write_atomic(
                            site!("eth_commit_mac_addr_change:memcpy"),
                            d + dev::DEV_ADDR + i,
                            1,
                            b,
                        )
                        .await?;
                }
            }
            Ok(0)
        })
        .await
}

/// `SIOCGIFHWADDR` path: read the MAC under `rcu_read_lock()` only
/// (#9 reader). The copy lands in per-thread kernel-stack scratch, so the
/// staging writes exercise the profiler's ESP filter.
pub async fn dev_ifsioc_locked(env: &Env<'_>) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    // The upstream fix for #9 changed the reader's locking scheme to
    // serialize against the RTNL-held writer; model that in patched builds.
    let rtnl_guard = !env.config.has_bug(9);
    if rtnl_guard {
        env.ctx.lock(sym!(env, "net.rtnl_lock")).await?;
    }
    env.ctx.rcu_read_lock().await?;
    let plain = env.config.has_bug(8) || env.config.has_bug(9);
    let mut out: u64 = 0;
    for i in 0..ETH_ALEN {
        let b = if plain {
            env.ctx
                .read_u8(site!("dev_ifsioc_locked:memcpy"), d + dev::DEV_ADDR + i)
                .await?
        } else {
            env.ctx
                .read_atomic(site!("dev_ifsioc_locked:memcpy"), d + dev::DEV_ADDR + i, 1)
                .await?
        };
        // Stage the byte in ifr->ifr_hwaddr on the kernel stack.
        env.ctx
            .write_u8(site!("dev_ifsioc_locked:stage"), env.ctx.stack_slot(i), b)
            .await?;
        out |= b << (8 * i);
    }
    env.ctx.rcu_read_unlock().await?;
    if rtnl_guard {
        env.ctx.unlock(sym!(env, "net.rtnl_lock")).await?;
    }
    Ok(out)
}

/// ethtool/e1000 path: set the MAC under the driver lock (#8 writer). The
/// patched build takes the RTNL lock instead, restoring mutual exclusion
/// with the getname reader (which the patch also serializes).
pub async fn e1000_set_mac(env: &Env<'_>, seed: u64) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    let lock = if env.config.has_bug(8) {
        sym!(env, "net.ethtool_lock")
    } else {
        sym!(env, "net.rtnl_lock")
    };
    let plain = env.config.has_bug(8) || env.config.has_bug(9);
    env.ctx
        .with_lock(lock, async {
            for i in 0..ETH_ALEN {
                let b = (seed.wrapping_mul(53).wrapping_add(i * 7)) & 0xff;
                if plain {
                    env.ctx
                        .write_u8(site!("e1000_set_mac:memcpy"), d + dev::DEV_ADDR + i, b)
                        .await?;
                } else {
                    env.ctx
                        .write_atomic(site!("e1000_set_mac:memcpy"), d + dev::DEV_ADDR + i, 1, b)
                        .await?;
                }
            }
            Ok(0)
        })
        .await
}

/// `SIOCSIFMTU` path (#7 writer): in buggy builds a plain unlocked store;
/// patched builds publish under RTNL with a marked write.
pub async fn dev_set_mtu(env: &Env<'_>, arg: u64) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    let mtu = 576 + (arg % 8) * 128;
    if env.config.has_bug(7) {
        env.ctx
            .write_u32(site!("__dev_set_mtu:store"), d + dev::MTU, mtu)
            .await?;
    } else {
        let rtnl = sym!(env, "net.rtnl_lock");
        env.ctx
            .with_lock(rtnl, async {
                env.ctx
                    .write_atomic(site!("__dev_set_mtu:store"), d + dev::MTU, 4, mtu)
                    .await
            })
            .await?;
    }
    Ok(0)
}

/// `rawv6_send_hdrinc` (#7 reader): size the packet by the device MTU and
/// "transmit" by bumping the device counter.
pub async fn rawv6_send_hdrinc(env: &Env<'_>, sk: u64, len: u64) -> KResult<u64> {
    let d = sym!(env, "net.dev0");
    let mtu = if env.config.has_bug(7) {
        env.ctx
            .read_u32(site!("rawv6_send_hdrinc:mtu"), d + dev::MTU)
            .await?
    } else {
        env.ctx
            .read_atomic(site!("rawv6_send_hdrinc:mtu"), d + dev::MTU, 4)
            .await?
    };
    let payload = (len % 16).min(mtu / 128);
    // Build the skb in a fresh allocation; each header byte is an access.
    let skb = env.kzalloc(32).await?;
    for i in 0..payload.max(1) {
        env.ctx
            .write_u8(site!("rawv6_send_hdrinc:build"), skb + i, 0x60 + i)
            .await?;
    }
    // Account the transmission on the socket and device.
    let tx = env
        .ctx
        .read_u64(site!("rawv6_send_hdrinc:sk_tx"), sk + 8)
        .await?;
    env.ctx
        .write_u64(site!("rawv6_send_hdrinc:sk_tx"), sk + 8, tx + 1)
        .await?;
    let dtx = env
        .ctx
        .read_atomic(site!("rawv6_send_hdrinc:dev_tx"), d + dev::TX_PACKETS, 8)
        .await?;
    env.ctx
        .write_atomic(
            site!("rawv6_send_hdrinc:dev_tx"),
            d + dev::TX_PACKETS,
            8,
            dtx + 1,
        )
        .await?;
    env.kfree(skb, 32).await?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::{Executor, KResult};

    fn run_seq(config: KernelConfig, f: impl AsyncFnOnce(&Env<'_>) -> KResult<()> + 'static) {
        let booted = boot(config);
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
                f(&env).await
            })],
            &mut FreeRun,
        );
        assert!(
            r.report.outcome.is_completed(),
            "{:?} {:?}",
            r.report.outcome,
            r.report.console
        );
    }

    #[test]
    fn mac_write_then_read_round_trips() {
        run_seq(KernelConfig::v5_3_10(), async |env| {
            eth_commit_mac_addr_change(env, 5).await?;
            let got = dev_ifsioc_locked(env).await?;
            let mut want = 0u64;
            for i in 0..ETH_ALEN {
                want |= ((5u64.wrapping_mul(37).wrapping_add(i * 11)) & 0xff) << (8 * i);
            }
            assert_eq!(got, want);
            Ok(())
        });
    }

    #[test]
    fn mtu_store_affects_send_path() {
        run_seq(KernelConfig::v5_3_10(), async |env| {
            dev_set_mtu(env, 0).await?; // 576
            let sk = rawv6_socket(env).await?;
            let sent = rawv6_send_hdrinc(env, sk, 15).await?;
            assert!(sent <= 576 / 128);
            Ok(())
        });
    }

    #[test]
    fn patched_build_uses_rtnl_for_e1000() {
        // Functional smoke: the patched path must still set the MAC.
        run_seq(KernelConfig::v5_3_10().patched(), async |env| {
            e1000_set_mac(env, 9).await?;
            let got = dev_ifsioc_locked(env).await?;
            assert_ne!(got, 0);
            Ok(())
        });
    }
}
