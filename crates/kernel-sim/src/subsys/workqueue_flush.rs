//! Workqueue flush (issue #23).
//!
//! `flush_workqueue()` waits for in-flight work items. In buggy builds it
//! checks the in-flight counter and only then goes to sleep — the worker
//! finishing in that window wakes an empty queue and the flusher blocks
//! until its timeout, the same lost-wakeup shape as issue #18 but on the
//! workqueue completion path (`pwq_dec_nr_in_flight()` is the waker). The
//! patched build registers on the queue before re-checking the counter, and
//! moves the counter under the pool lock so no update is lost.

use sb_vmm::ctx::KResult;
use sb_vmm::{site, Site};

use crate::sym;
use crate::{Env, ETIMEDOUT};

/// Workqueue field offsets.
pub mod wq {
    /// In-flight work-item count (u64, atomic).
    pub const PENDING: u64 = 0;
    /// Completed work-item count (u64, atomic).
    pub const DONE: u64 = 8;
}

/// How long a flusher sleeps before the timeout rescues it.
pub const FLUSH_TIMEOUT: u64 = 128;

/// Boots the workqueue: its struct and the flusher wait queue.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let w = env.kzalloc(16).await?;
    let fq = env.kzalloc(8).await?;
    Ok(vec![("wq.queue", w), ("wq.flush_wq", fq)])
}

/// Queues one work item and runs it inline: the in-flight counter is
/// raised, the work executes, then the counter drops and flushers are woken.
pub async fn queue_work(env: &Env<'_>, work: u64) -> KResult<u64> {
    let w = sym!(env, "wq.queue");
    let fq = sym!(env, "wq.flush_wq");
    move_pending(env, site!("queue_work:pending_inc"), |p| p + 1).await?;
    // The work item itself.
    let d = env
        .ctx
        .read_atomic(site!("process_one_work:run"), w + wq::DONE, 8)
        .await?;
    env.ctx
        .write_atomic(
            site!("process_one_work:run"),
            w + wq::DONE,
            8,
            d + 1 + (work % 2),
        )
        .await?;
    move_pending(env, site!("pwq_dec_nr_in_flight:dec"), |p| {
        p.saturating_sub(1)
    })
    .await?;
    env.ctx
        .wake_all(site!("pwq_dec_nr_in_flight:wake_flushers"), fq)
        .await?;
    Ok(0)
}

/// One read-modify-write of the in-flight counter at `site`. Patched builds
/// hold the pool lock across it, as Linux holds `pool->lock` over
/// `nr_in_flight`. Buggy builds race it: two concurrent `queue_work`s can
/// lose an update and leave a count no completion brings to zero, so even
/// a flusher that registered before its check sleeps out the timeout.
async fn move_pending(env: &Env<'_>, site: Site, next: impl Fn(u64) -> u64) -> KResult<()> {
    let w = sym!(env, "wq.queue");
    let rmw = async {
        let p = env.ctx.read_atomic(site, w + wq::PENDING, 8).await?;
        env.ctx
            .write_atomic(site, w + wq::PENDING, 8, next(p))
            .await
    };
    if env.config.has_bug(23) {
        rmw.await
    } else {
        env.ctx.with_lock_at(site!("pwq:pool_lock"), w, rmw).await
    }
}

/// Waits for all in-flight work to finish (#23).
pub async fn flush_workqueue(env: &Env<'_>) -> KResult<u64> {
    let w = sym!(env, "wq.queue");
    let fq = sym!(env, "wq.flush_wq");
    if env.config.has_bug(23) {
        // Buggy: check, then sleep — a completion between the check and the
        // sleep wakes nobody and the flusher blocks until the timeout.
        let p = env
            .ctx
            .read_atomic(site!("flush_workqueue:pending_check"), w + wq::PENDING, 8)
            .await?;
        if p == 0 {
            return Ok(0);
        }
        let woken = env
            .ctx
            .sleep_on(site!("flush_workqueue:wait_completion"), fq, FLUSH_TIMEOUT)
            .await?;
        Ok(if woken { 0 } else { ETIMEDOUT })
    } else {
        // Patched: register on the queue first, then re-check.
        env.ctx
            .wait_prepare(site!("flush_workqueue:wait_completion"), fq)
            .await?;
        let p = env
            .ctx
            .read_atomic(site!("flush_workqueue:pending_check"), w + wq::PENDING, 8)
            .await?;
        if p == 0 {
            env.ctx
                .wait_cancel(site!("flush_workqueue:wait_completion"), fq)
                .await?;
            return Ok(0);
        }
        let woken = env
            .ctx
            .wait_commit(site!("flush_workqueue:wait_completion"), fq, FLUSH_TIMEOUT)
            .await?;
        Ok(if woken { 0 } else { ETIMEDOUT })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn sequential_queue_then_flush_never_blocks() {
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
                    queue_work(&env, 1).await?;
                    assert_eq!(flush_workqueue(&env).await?, 0);
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
            assert!(r
                .report
                .sync_events
                .iter()
                .all(|e| e.kind != sb_vmm::SyncKind::SleepTimeout));
        }
    }
}
