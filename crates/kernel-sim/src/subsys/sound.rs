//! ALSA control core (issue #15).
//!
//! `snd_ctl_elem_add()` manages the per-card user-control memory account
//! (`user_ctl_count`) with a plain read-check-increment sequence that, in
//! buggy builds, runs without the control lock: two concurrent adds can both
//! pass the limit check and both increment from the same stale value. The
//! fix (Takashi Iwai's patch) moves the accounting under `card->controls_rwsem`.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{errno, Env};

/// Maximum user controls per card.
pub const MAX_USER_CTLS: u64 = 8;

/// Card field offsets.
pub mod card {
    /// User-control count (u32).
    pub const USER_CTL_COUNT: u64 = 0;
    /// Head of the element list (8 bytes).
    pub const ELEMS: u64 = 8;
}

/// Boots the sound card.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let c = env.kzalloc(64).await?;
    let lock = env.kzalloc(8).await?;
    Ok(vec![("snd.card", c), ("snd.ctl_lock", lock)])
}

/// `SNDRV_CTL_IOCTL_ELEM_ADD` (#15): allocate a user control element and
/// account it.
pub async fn snd_ctl_elem_add(env: &Env<'_>, arg: u64) -> KResult<u64> {
    let c = sym!(env, "snd.card");
    let buggy = env.config.has_bug(15);
    let lock = sym!(env, "snd.ctl_lock");
    if !buggy {
        env.ctx.lock(lock).await?;
    }
    let count = env
        .ctx
        .read_u32(
            site!("snd_ctl_elem_add:count_read"),
            c + card::USER_CTL_COUNT,
        )
        .await?;
    let ret = if count >= MAX_USER_CTLS {
        errno(12) // ENOMEM
    } else {
        let elem = env.kzalloc(32).await?;
        env.ctx
            .write_u32(site!("snd_ctl_elem_add:elem_id"), elem, 0x100 + arg)
            .await?;
        // Link at the list head.
        let head = env
            .ctx
            .read_u64(site!("snd_ctl_elem_add:head"), c + card::ELEMS)
            .await?;
        env.ctx
            .write_u64(site!("snd_ctl_elem_add:elem_next"), elem + 8, head)
            .await?;
        env.ctx
            .write_u64(site!("snd_ctl_elem_add:link"), c + card::ELEMS, elem)
            .await?;
        // The racy memory-size accounting.
        env.ctx
            .write_u32(
                site!("snd_ctl_elem_add:count_write"),
                c + card::USER_CTL_COUNT,
                count + 1,
            )
            .await?;
        0
    };
    if !buggy {
        env.ctx.unlock(lock).await?;
    }
    Ok(ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn add_respects_limit_sequentially() {
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
                for i in 0..MAX_USER_CTLS {
                    assert_eq!(snd_ctl_elem_add(&env, i).await?, 0);
                }
                assert_eq!(snd_ctl_elem_add(&env, 99).await?, errno(12));
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }
}
