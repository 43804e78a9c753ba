//! Epoll ready-list locking (issue #19).
//!
//! `ep_insert()` nests the wait-queue lock inside the epoll lock
//! (`ep->lock` → `whead->lock`). In buggy builds the poll callback takes
//! the same pair in the *opposite* order (`whead->lock` → `ep->lock`), the
//! ABBA pattern behind several real epoll deadlocks. The lock-rule miner
//! sees both acquisition orders and reports the inversion even on runs
//! where the schedules never actually deadlock; sufficiently unlucky
//! interleavings also deadlock outright. The patched callback takes
//! `ep->lock` first, matching `ep_insert`.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// Epoll-struct field offsets.
pub mod ep {
    /// Ready-event count (u32).
    pub const READY: u64 = 0;
    /// Registered-item count (u32).
    pub const ITEMS: u64 = 4;
}

/// Boots the epoll subsystem: the eventpoll struct and its two locks.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let e = env.kzalloc(16).await?;
    let ep_lock = env.kzalloc(8).await?;
    let wq_lock = env.kzalloc(8).await?;
    Ok(vec![
        ("epollwake.ep", e),
        ("epollwake.ep_lock", ep_lock),
        ("epollwake.wq_lock", wq_lock),
    ])
}

/// `epoll_ctl(EPOLL_CTL_ADD)`: registers an item and publishes it on the
/// ready list. Lock order: `ep_lock` → `wq_lock`.
pub async fn ep_insert(env: &Env<'_>, _slot: u64) -> KResult<u64> {
    let e = sym!(env, "epollwake.ep");
    let ep_lock = sym!(env, "epollwake.ep_lock");
    let wq_lock = sym!(env, "epollwake.wq_lock");
    env.ctx.lock_at(site!("ep_insert:ep_lock"), ep_lock).await?;
    let n = env
        .ctx
        .read_u32(site!("ep_insert:nitems"), e + ep::ITEMS)
        .await?;
    env.ctx
        .write_u32(site!("ep_insert:nitems"), e + ep::ITEMS, n + 1)
        .await?;
    env.ctx.lock_at(site!("ep_insert:wq_lock"), wq_lock).await?;
    let r = env
        .ctx
        .read_u32(site!("ep_insert:ready"), e + ep::READY)
        .await?;
    env.ctx
        .write_u32(site!("ep_insert:ready"), e + ep::READY, r + 1)
        .await?;
    env.ctx
        .unlock_at(site!("ep_insert:wq_lock"), wq_lock)
        .await?;
    env.ctx
        .unlock_at(site!("ep_insert:ep_lock"), ep_lock)
        .await?;
    Ok(0)
}

/// The poll callback fired when an event source becomes ready (#19): buggy
/// builds take `wq_lock` → `ep_lock`, inverting `ep_insert`'s order.
pub async fn ep_poll_callback(env: &Env<'_>, _slot: u64) -> KResult<u64> {
    let e = sym!(env, "epollwake.ep");
    let ep_lock = sym!(env, "epollwake.ep_lock");
    let wq_lock = sym!(env, "epollwake.wq_lock");
    let (first, first_site, second, second_site) = if env.config.has_bug(19) {
        (
            wq_lock,
            site!("ep_poll_callback:wq_lock"),
            ep_lock,
            site!("ep_poll_callback:ep_lock"),
        )
    } else {
        (
            ep_lock,
            site!("ep_poll_callback:ep_lock"),
            wq_lock,
            site!("ep_poll_callback:wq_lock"),
        )
    };
    env.ctx.lock_at(first_site, first).await?;
    env.ctx.lock_at(second_site, second).await?;
    let r = env
        .ctx
        .read_u32(site!("ep_poll_callback:ready"), e + ep::READY)
        .await?;
    env.ctx
        .write_u32(site!("ep_poll_callback:ready"), e + ep::READY, r + 1)
        .await?;
    env.ctx.unlock_at(second_site, second).await?;
    env.ctx.unlock_at(first_site, first).await?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn sequential_insert_and_callback_complete_in_both_builds() {
        for config in [
            KernelConfig::v5_12_rc3(),
            KernelConfig::v5_12_rc3().patched(),
        ] {
            let booted = kboot(config);
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
                    ep_insert(&env, 0).await?;
                    ep_poll_callback(&env, 0).await?;
                    let e = sym!(env, "epollwake.ep");
                    let ready = env.ctx.read_u32(site!("test:ready"), e + ep::READY).await?;
                    assert_eq!(ready, 2);
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
        }
    }
}
