//! configfs dirents (issue #11 — null-pointer dereference via racy lookup).
//!
//! The real bug: `configfs_lookup()` read `sd->s_element` without holding
//! `configfs_dirent_lock` while a concurrent rmdir tore the dirent down.
//! The fix (commit c42dd069) made the lookup take the dirent lock. Here,
//! `configfs_rmdir` zeroes the item's inner object pointer (under the
//! dirent lock) before detaching the entry; the buggy lookup reads the entry
//! and dereferences the inner pointer with no lock, so it can observe the
//! half-torn-down state and fault on null.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{Env, EEXIST, ENOENT};

/// Number of configfs item slots.
pub const NUM_ITEMS: u8 = 4;

/// Per-entry layout in the dirent table (16 bytes each).
pub mod dirent {
    /// Pointer to the attached item (8 bytes).
    pub const ITEM: u64 = 0;
    /// Entry state flags (u32).
    pub const STATE: u64 = 8;
    /// Entry stride.
    pub const STRIDE: u64 = 16;
}

/// `struct config_item` field offsets.
pub mod item {
    /// Magic tag (u32).
    pub const MAGIC: u64 = 0;
    /// Pointer to the inner (type-specific) object (8 bytes) — zeroed
    /// during teardown before the entry is detached.
    pub const INNER: u64 = 8;
    /// Allocation size.
    pub const SIZE: u64 = 32;
}

/// Inner-object layout.
pub mod inner {
    /// Operations tag read by lookup (u32).
    pub const OPS: u64 = 0x10;
    /// Allocation size.
    pub const SIZE: u64 = 32;
}

/// Boots configfs: the dirent table and the two locks.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let entries = env.kzalloc(u64::from(NUM_ITEMS) * dirent::STRIDE).await?;
    let subsys_mutex = env.kzalloc(8).await?;
    let dirent_lock = env.kzalloc(8).await?;
    Ok(vec![
        ("configfs.entries", entries),
        ("configfs.subsys_mutex", subsys_mutex),
        ("configfs.dirent_lock", dirent_lock),
    ])
}

fn entry_addr(env: &Env<'_>, i: u8) -> u64 {
    sym!(env, "configfs.entries") + u64::from(i) * dirent::STRIDE
}

/// `mkdir` on a configfs directory: allocate the item and its inner object,
/// then attach it to the dirent slot.
pub async fn configfs_mkdir(env: &Env<'_>, i: u8) -> KResult<u64> {
    let mutex = sym!(env, "configfs.subsys_mutex");
    env.ctx
        .with_lock(mutex, async {
            let e = entry_addr(env, i);
            let existing = env
                .ctx
                .read_u64(site!("configfs_mkdir:check"), e + dirent::ITEM)
                .await?;
            if existing != 0 {
                return Ok(EEXIST);
            }
            let it = env.kzalloc(item::SIZE).await?;
            let inn = env.kzalloc(inner::SIZE).await?;
            env.ctx
                .write_u32(site!("configfs_mkdir:inner_ops"), inn + inner::OPS, 0xC0F5)
                .await?;
            env.ctx
                .write_u32(site!("configfs_mkdir:magic"), it + item::MAGIC, 0xC0)
                .await?;
            env.ctx
                .write_u64(site!("configfs_mkdir:inner"), it + item::INNER, inn)
                .await?;
            let dl = sym!(env, "configfs.dirent_lock");
            env.ctx
                .with_lock(dl, async {
                    env.ctx
                        .write_u64(site!("configfs_mkdir:attach"), e + dirent::ITEM, it)
                        .await?;
                    env.ctx
                        .write_u32(site!("configfs_mkdir:state"), e + dirent::STATE, 1)
                        .await?;
                    Ok(0)
                })
                .await
        })
        .await
}

/// `rmdir`: tear the item down — zero the inner pointer, detach the entry,
/// free both objects.
pub async fn configfs_rmdir(env: &Env<'_>, i: u8) -> KResult<u64> {
    let mutex = sym!(env, "configfs.subsys_mutex");
    env.ctx
        .with_lock(mutex, async {
            let e = entry_addr(env, i);
            let it = env
                .ctx
                .read_u64(site!("configfs_detach:load"), e + dirent::ITEM)
                .await?;
            if it == 0 {
                return Ok(ENOENT);
            }
            let dl = sym!(env, "configfs.dirent_lock");
            let inn = env
                .ctx
                .with_lock(dl, async {
                    let inn = env
                        .ctx
                        .read_u64(site!("configfs_detach:inner_load"), it + item::INNER)
                        .await?;
                    // Teardown order: the inner pointer is cleared while the entry
                    // is still reachable — the window the buggy lookup falls into.
                    env.ctx
                        .write_u64(site!("configfs_detach:zero_inner"), it + item::INNER, 0)
                        .await?;
                    env.ctx
                        .write_u64(site!("configfs_detach:clear"), e + dirent::ITEM, 0)
                        .await?;
                    env.ctx
                        .write_u32(site!("configfs_detach:state"), e + dirent::STATE, 0)
                        .await?;
                    Ok(inn)
                })
                .await?;
            if inn != 0 {
                env.kfree(inn, inner::SIZE).await?;
            }
            env.kfree(it, item::SIZE).await?;
            Ok(0)
        })
        .await
}

/// `configfs_lookup()` — the open path. Buggy builds read the entry and
/// chase `item->inner` without the dirent lock; patched builds hold it.
pub async fn configfs_lookup(env: &Env<'_>, i: u8) -> KResult<u64> {
    let e = entry_addr(env, i);
    let buggy = env.config.has_bug(11);
    let dl = sym!(env, "configfs.dirent_lock");
    if !buggy {
        env.ctx.lock(dl).await?;
    }
    let it = env
        .ctx
        .read_u64(site!("configfs_lookup:s_element"), e + dirent::ITEM)
        .await?;
    let ret = if it == 0 {
        ENOENT
    } else {
        let inn = env
            .ctx
            .read_u64(site!("configfs_lookup:inner"), it + item::INNER)
            .await?;
        // Dereference the inner object's ops tag; a torn-down item has
        // inner == 0 and this faults — the paper's null-pointer oops.
        env.ctx
            .read_u32(site!("configfs_lookup:use"), inn + inner::OPS)
            .await?
    };
    if !buggy {
        env.ctx.unlock(dl).await?;
    }
    Ok(ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::{ExecReport, Executor};

    fn seq_env_run(
        config: KernelConfig,
        f: impl AsyncFnOnce(&Env<'_>) -> KResult<()> + 'static,
    ) -> ExecReport {
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
    fn mkdir_lookup_rmdir_cycle() {
        let r = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            assert_eq!(configfs_lookup(env, 0).await?, ENOENT);
            assert_eq!(configfs_mkdir(env, 0).await?, 0);
            assert_eq!(configfs_lookup(env, 0).await?, 0xC0F5);
            assert_eq!(configfs_rmdir(env, 0).await?, 0);
            assert_eq!(configfs_lookup(env, 0).await?, ENOENT);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn duplicate_mkdir_fails() {
        let r = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            assert_eq!(configfs_mkdir(env, 1).await?, 0);
            assert_eq!(configfs_mkdir(env, 1).await?, EEXIST);
            Ok(())
        });
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn rmdir_of_absent_item_is_enoent() {
        let r = seq_env_run(KernelConfig::v5_12_rc3(), async |env| {
            assert_eq!(configfs_rmdir(env, 2).await?, ENOENT);
            Ok(())
        });
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn patched_lookup_holds_dirent_lock() {
        // Functional smoke for the fixed path.
        let r = seq_env_run(KernelConfig::v5_12_rc3().patched(), async |env| {
            configfs_mkdir(env, 3).await?;
            assert_eq!(configfs_lookup(env, 3).await?, 0xC0F5);
            Ok(())
        });
        assert!(r.outcome.is_completed());
    }
}
