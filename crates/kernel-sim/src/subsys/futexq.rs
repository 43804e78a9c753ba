//! Futex wait queue (issue #18).
//!
//! The classic lost-wakeup pattern: `futex_wait()` reads the futex word and
//! decides to sleep, but in buggy builds it only enqueues itself *after* the
//! check — `futex_wake()` running in that window stores the new value and
//! issues a wakeup that reaches nobody, leaving the waiter to block until
//! its timeout. The patched build queues first (`wait_prepare`), re-reads
//! the word, and only then commits, so a concurrent wake is banked and the
//! commit returns immediately.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::{Env, ETIMEDOUT};

/// Number of independent futex slots.
pub const NUM_SLOTS: u8 = 2;

/// How long a waiter sleeps before the timeout rescues it (trace steps).
pub const WAIT_TIMEOUT: u64 = 128;

fn slot_syms(slot: u8) -> (&'static str, &'static str) {
    if slot.is_multiple_of(NUM_SLOTS) {
        ("futexq.val0", "futexq.wq0")
    } else {
        ("futexq.val1", "futexq.wq1")
    }
}

/// Boots the futex subsystem: one value word and one wait queue per slot.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let v0 = env.kzalloc(8).await?;
    let q0 = env.kzalloc(8).await?;
    let v1 = env.kzalloc(8).await?;
    let q1 = env.kzalloc(8).await?;
    Ok(vec![
        ("futexq.val0", v0),
        ("futexq.wq0", q0),
        ("futexq.val1", v1),
        ("futexq.wq1", q1),
    ])
}

/// `futex(FUTEX_WAIT)`: sleep until the word becomes nonzero (#18).
pub async fn futex_wait(env: &Env<'_>, slot: u8) -> KResult<u64> {
    let (val_sym, wq_sym) = slot_syms(slot);
    let val = env.sym(val_sym);
    let wq = env.sym(wq_sym);
    if env.config.has_bug(18) {
        // Buggy: check the word, then sleep — without being queued in
        // between. A wake landing in the window is lost.
        let v = env
            .ctx
            .read_atomic(site!("futex_wait:val_check"), val, 8)
            .await?;
        if v != 0 {
            return Ok(0);
        }
        let woken = env
            .ctx
            .sleep_on(site!("futex_wait:queue_me"), wq, WAIT_TIMEOUT)
            .await?;
        Ok(if woken { 0 } else { ETIMEDOUT })
    } else {
        // Patched: queue first, re-check, then commit. A wake between the
        // prepare and the commit is banked and the commit returns at once.
        env.ctx
            .wait_prepare(site!("futex_wait:queue_me"), wq)
            .await?;
        let v = env
            .ctx
            .read_atomic(site!("futex_wait:val_check"), val, 8)
            .await?;
        if v != 0 {
            env.ctx
                .wait_cancel(site!("futex_wait:queue_me"), wq)
                .await?;
            return Ok(0);
        }
        let woken = env
            .ctx
            .wait_commit(site!("futex_wait:queue_me"), wq, WAIT_TIMEOUT)
            .await?;
        Ok(if woken { 0 } else { ETIMEDOUT })
    }
}

/// `futex(FUTEX_WAKE)`: publish the new value and wake one waiter.
pub async fn futex_wake(env: &Env<'_>, slot: u8) -> KResult<u64> {
    let (val_sym, wq_sym) = slot_syms(slot);
    let val = env.sym(val_sym);
    let wq = env.sym(wq_sym);
    env.ctx
        .write_atomic(site!("futex_wake:val_store"), val, 8, 1)
        .await?;
    env.ctx.wake_one(site!("futex_wake:wake_up"), wq).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn sequential_wait_after_wake_returns_immediately() {
        let booted = kboot(KernelConfig::v5_12_rc3());
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
                futex_wake(&env, 0).await?;
                assert_eq!(futex_wait(&env, 0).await?, 0);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }

    #[test]
    fn lone_wait_times_out_instead_of_deadlocking() {
        let booted = kboot(KernelConfig::v5_12_rc3());
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
                assert_eq!(futex_wait(&env, 1).await?, ETIMEDOUT);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }
}
