//! NBD connection teardown (issue #20).
//!
//! `nbd_disconnect()` drains in-flight requests before tearing the
//! connection down. In buggy builds it waits *while still holding the
//! command spinlock with interrupts off* — a sleep in atomic context, the
//! pattern behind "BUG: scheduling while atomic". The patched build drops
//! the spinlock around the wait and retakes it afterwards. The wait itself
//! uses the prepare/commit protocol in both builds, so the only defect is
//! the atomic context, keeping the oracle attribution unambiguous.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// NBD-device field offsets.
pub mod nbd {
    /// Busy flag: nonzero while a request is in flight (u64, atomic).
    pub const BUSY: u64 = 0;
    /// Total submitted requests (u64, atomic).
    pub const SUBMITTED: u64 = 8;
}

/// How long the disconnect path waits for in-flight requests.
pub const DRAIN_TIMEOUT: u64 = 64;

/// Boots the NBD device: its struct and the drain wait queue.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let d = env.kzalloc(16).await?;
    let wq = env.kzalloc(8).await?;
    Ok(vec![("nbd.dev", d), ("nbd.drain_wq", wq)])
}

/// Submits one NBD request: marks the device busy, does the transfer, then
/// clears the flag and wakes any drain waiter.
pub async fn nbd_send(env: &Env<'_>, len: u64) -> KResult<u64> {
    let d = sym!(env, "nbd.dev");
    let wq = sym!(env, "nbd.drain_wq");
    env.ctx
        .write_atomic(site!("nbd_send:busy_set"), d + nbd::BUSY, 8, 1)
        .await?;
    let n = env
        .ctx
        .read_atomic(site!("nbd_send:submit"), d + nbd::SUBMITTED, 8)
        .await?;
    env.ctx
        .write_atomic(
            site!("nbd_send:submit"),
            d + nbd::SUBMITTED,
            8,
            n + 1 + (len % 2),
        )
        .await?;
    env.ctx
        .write_atomic(site!("nbd_send:busy_clear"), d + nbd::BUSY, 8, 0)
        .await?;
    env.ctx.wake_all(site!("nbd_send:wake_drain"), wq).await?;
    Ok(0)
}

/// Tears the connection down, draining in-flight requests (#20).
pub async fn nbd_disconnect(env: &Env<'_>) -> KResult<u64> {
    let d = sym!(env, "nbd.dev");
    let wq = sym!(env, "nbd.drain_wq");
    env.ctx
        .atomic_enter(site!("nbd_disconnect:spin_lock_irq"))
        .await?;
    env.ctx
        .wait_prepare(site!("nbd_disconnect:wait_requests"), wq)
        .await?;
    let busy = env
        .ctx
        .read_atomic(site!("nbd_disconnect:busy_check"), d + nbd::BUSY, 8)
        .await?;
    if busy != 0 {
        if env.config.has_bug(20) {
            // Buggy: wait for the in-flight request without dropping the
            // spinlock — a sleep in atomic context.
            env.ctx
                .wait_commit(site!("nbd_disconnect:wait_requests"), wq, DRAIN_TIMEOUT)
                .await?;
        } else {
            // Patched: drop the lock around the wait.
            env.ctx
                .atomic_exit(site!("nbd_disconnect:spin_unlock_irq"))
                .await?;
            env.ctx
                .wait_commit(site!("nbd_disconnect:wait_requests"), wq, DRAIN_TIMEOUT)
                .await?;
            env.ctx
                .atomic_enter(site!("nbd_disconnect:spin_lock_irq"))
                .await?;
        }
    } else {
        env.ctx
            .wait_cancel(site!("nbd_disconnect:wait_requests"), wq)
            .await?;
    }
    env.ctx
        .atomic_exit(site!("nbd_disconnect:spin_unlock_irq"))
        .await?;
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
    fn sequential_send_then_disconnect_never_sleeps() {
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
                    nbd_send(&env, 1).await?;
                    nbd_disconnect(&env).await?;
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
            // The busy flag was already clear, so no sleep was committed.
            assert!(r
                .report
                .sync_events
                .iter()
                .all(|e| e.kind != sb_vmm::SyncKind::SleepCommit));
        }
    }
}
