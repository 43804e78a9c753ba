//! L2TP tunnels (issue #12 — the Figure 1 order violation).
//!
//! The paper's flagship non-data-race bug: `l2tp_tunnel_register()` adds the
//! freshly allocated tunnel to the RCU-protected tunnel list *before*
//! initializing `tunnel->sock`. A concurrent `pppol2tp_connect()` can fetch
//! the published-but-incomplete tunnel, and the subsequent
//! `l2tp_xmit_core()` dereferences the null `sock` — a kernel panic. Every
//! access is properly synchronized (spinlock on the writer, RCU on the
//! reader), so no data race is involved: the bug is purely an ordering
//! violation, which is why data-race tools miss it.
//!
//! The upstream fix (commit 69e16d01) initializes the socket before
//! publishing; the patched build does exactly that.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{Env, EINVAL};

/// `struct l2tp_tunnel` field offsets.
pub mod tunnel {
    /// Next pointer in the tunnel list (8 bytes).
    pub const NEXT: u64 = 0;
    /// Tunnel id (u32).
    pub const ID: u64 = 8;
    /// Owning socket pointer (8 bytes) — the field left uninitialized in
    /// the publication window.
    pub const SOCK: u64 = 16;
    /// Reference count (u32).
    pub const REFCOUNT: u64 = 24;
    /// Allocation size.
    pub const SIZE: u64 = 32;
}

/// `struct pppol2tp socket` field offsets.
pub mod sock {
    /// Protocol tag (u32).
    pub const PROTO: u64 = 0;
    /// Connected tunnel pointer (8 bytes).
    pub const TUNNEL: u64 = 8;
    /// Lock word used by `bh_lock_sock` (the dereference that crashes).
    pub const LOCK: u64 = 16;
    /// Transmit counter (u64).
    pub const TX: u64 = 24;
    /// Allocation size.
    pub const SIZE: u64 = 64;
}

/// Boots the subsystem: the tunnel list head and its spinlock.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let head = env.kzalloc(8).await?;
    let lock = env.kzalloc(8).await?;
    Ok(vec![("l2tp.tunnel_list", head), ("l2tp.list_lock", lock)])
}

/// Creates a PPPoL2TP socket object.
pub async fn l2tp_socket(env: &Env<'_>) -> KResult<u64> {
    let sk = env.kzalloc(sock::SIZE).await?;
    env.ctx
        .write_u32(site!("pppol2tp_create:init"), sk + sock::PROTO, 111)
        .await?;
    Ok(sk)
}

/// RCU walk of the tunnel list looking for `tid`. Returns the tunnel
/// address or 0.
async fn l2tp_tunnel_get(env: &Env<'_>, tid: u64) -> KResult<u64> {
    let head = sym!(env, "l2tp.tunnel_list");
    env.ctx.rcu_read_lock().await?;
    let mut p = env
        .ctx
        .read_atomic(site!("l2tp_tunnel_get:head"), head, 8)
        .await?;
    while p != 0 {
        let id = env
            .ctx
            .read_atomic(site!("l2tp_tunnel_get:id"), p + tunnel::ID, 4)
            .await?;
        if id == tid {
            // Grab a reference while still inside the RCU section.
            let rc = env
                .ctx
                .read_atomic(site!("l2tp_tunnel_get:refcount"), p + tunnel::REFCOUNT, 4)
                .await?;
            env.ctx
                .write_atomic(
                    site!("l2tp_tunnel_get:refcount"),
                    p + tunnel::REFCOUNT,
                    4,
                    rc + 1,
                )
                .await?;
            break;
        }
        p = env
            .ctx
            .read_atomic(site!("l2tp_tunnel_get:next"), p + tunnel::NEXT, 8)
            .await?;
    }
    env.ctx.rcu_read_unlock().await?;
    Ok(p)
}

/// Registers a new tunnel owned by socket `sk`.
///
/// In buggy builds (#12 present) the tunnel is published to the RCU list
/// *before* `tunnel->sock` is initialized; patched builds initialize first.
async fn l2tp_tunnel_register(env: &Env<'_>, sk: u64, tid: u64) -> KResult<u64> {
    let head = sym!(env, "l2tp.tunnel_list");
    let lock = sym!(env, "l2tp.list_lock");
    let t = env.kzalloc(tunnel::SIZE).await?;
    env.ctx
        .write_atomic(site!("l2tp_tunnel_register:id"), t + tunnel::ID, 4, tid)
        .await?;
    env.ctx
        .write_atomic(
            site!("l2tp_tunnel_register:refcount"),
            t + tunnel::REFCOUNT,
            4,
            1,
        )
        .await?;
    let publish = async || -> KResult<()> {
        env.ctx.lock(lock).await?;
        let old = env
            .ctx
            .read_atomic(site!("list_add_rcu:old_head"), head, 8)
            .await?;
        env.ctx
            .write_atomic(site!("list_add_rcu:next"), t + tunnel::NEXT, 8, old)
            .await?;
        env.ctx
            .write_atomic(site!("list_add_rcu:head"), head, 8, t)
            .await?;
        env.ctx.unlock(lock).await?;
        Ok(())
    };
    if env.config.has_bug(12) {
        // BUG: tunnel becomes reachable before its socket is set.
        publish().await?;
        env.ctx
            .write_atomic(site!("l2tp_tunnel_register:sock"), t + tunnel::SOCK, 8, sk)
            .await?;
    } else {
        env.ctx
            .write_atomic(site!("l2tp_tunnel_register:sock"), t + tunnel::SOCK, 8, sk)
            .await?;
        publish().await?;
    }
    Ok(t)
}

/// `connect()` on a PPPoL2TP socket: look the tunnel up, lazily registering
/// it, and bind it to the socket.
pub async fn pppol2tp_connect(env: &Env<'_>, sk: u64, tid: u64) -> KResult<u64> {
    let tid = tid % 4;
    let mut t = l2tp_tunnel_get(env, tid).await?;
    if t == 0 {
        t = l2tp_tunnel_register(env, sk, tid).await?;
    }
    env.ctx
        .write_u64(site!("pppol2tp_connect:assign"), sk + sock::TUNNEL, t)
        .await?;
    Ok(0)
}

/// `sendmsg()` on a connected PPPoL2TP socket: `l2tp_xmit_core()` fetches
/// `tunnel->sock` and takes `bh_lock_sock(sk)` — dereferencing a null
/// `sock` if the tunnel was fetched inside the publication window.
pub async fn l2tp_sendmsg(env: &Env<'_>, sk: u64) -> KResult<u64> {
    let t = env
        .ctx
        .read_u64(site!("l2tp_xmit_core:tunnel"), sk + sock::TUNNEL)
        .await?;
    if t == 0 {
        return Ok(EINVAL); // Not connected.
    }
    let tsk = env
        .ctx
        .read_atomic(site!("l2tp_xmit_core:sock"), t + tunnel::SOCK, 8)
        .await?;
    // bh_lock_sock(sk): touch the socket's lock word. If `tsk` is still 0
    // this faults in the null page — the paper's panic.
    let _ = env
        .ctx
        .read_u32(site!("bh_lock_sock:acquire"), tsk + sock::LOCK)
        .await?;
    let tx = env
        .ctx
        .read_u64(site!("l2tp_xmit_core:tx"), tsk + sock::TX)
        .await?;
    env.ctx
        .write_u64(site!("l2tp_xmit_core:tx"), tsk + sock::TX, tx + 1)
        .await?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    fn seq_env_run(
        config: KernelConfig,
        f: impl AsyncFnOnce(&Env<'_>) -> KResult<()> + 'static,
    ) -> sb_vmm::ExecReport {
        let booted = boot(config);
        let mut exec = Executor::new(1);
        let kernel = booted.kernel.clone();
        exec.run(
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
        )
        .report
    }

    #[test]
    fn connect_registers_then_reuses_tunnel() {
        let report = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            let a = l2tp_socket(env).await?;
            let b = l2tp_socket(env).await?;
            pppol2tp_connect(env, a, 2).await?;
            pppol2tp_connect(env, b, 2).await?;
            // Both sockets point at the same tunnel.
            let ta = env.ctx.read_u64(site!("test:ta"), a + sock::TUNNEL).await?;
            let tb = env.ctx.read_u64(site!("test:tb"), b + sock::TUNNEL).await?;
            assert_eq!(ta, tb);
            assert_ne!(ta, 0);
            Ok(())
        });
        assert!(report.outcome.is_completed(), "{:?}", report.console);
    }

    #[test]
    fn sequential_connect_sendmsg_is_safe_even_in_buggy_build() {
        // Sequentially the window cannot be observed: the same thread
        // finishes registration before transmitting.
        let report = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            let a = l2tp_socket(env).await?;
            pppol2tp_connect(env, a, 1).await?;
            assert_eq!(l2tp_sendmsg(env, a).await?, 0);
            Ok(())
        });
        assert!(report.outcome.is_completed(), "{:?}", report.console);
    }

    #[test]
    fn sendmsg_without_connect_fails_cleanly() {
        let report = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            let a = l2tp_socket(env).await?;
            assert_eq!(l2tp_sendmsg(env, a).await?, EINVAL);
            Ok(())
        });
        assert!(report.outcome.is_completed());
    }

    #[test]
    fn distinct_tunnel_ids_get_distinct_tunnels() {
        let report = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            let a = l2tp_socket(env).await?;
            let b = l2tp_socket(env).await?;
            pppol2tp_connect(env, a, 0).await?;
            pppol2tp_connect(env, b, 1).await?;
            let ta = env.ctx.read_u64(site!("test:t0"), a + sock::TUNNEL).await?;
            let tb = env.ctx.read_u64(site!("test:t1"), b + sock::TUNNEL).await?;
            assert_ne!(ta, tb);
            Ok(())
        });
        assert!(report.outcome.is_completed());
    }
}
