//! Kernfs node lifecycle (issue #22).
//!
//! `kn->flags` is documented as protected by the kernfs mutex:
//! `kernfs_activate()` does all its flag work under it, and
//! `kernfs_notify()` takes it to check the node is active. In buggy builds
//! notify then drops the mutex *before* setting the notified bit, a bare
//! read-modify-write against every locked accessor. The lock-rule miner
//! learns the mutex rule from the majority of accesses and flags the bare
//! store. The patched build keeps the store under the mutex.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{Env, ENOENT};

/// Node flag bits.
pub mod flags {
    /// Set by `kernfs_activate`.
    pub const ACTIVATED: u64 = 1;
    /// Set by `kernfs_notify`.
    pub const NOTIFIED: u64 = 2;
}

/// Node field offsets.
pub mod node {
    /// Flags word (u32).
    pub const FLAGS: u64 = 0;
    /// Attribute count (u32).
    pub const NATTRS: u64 = 4;
}

/// Boots the kernfs subsystem: one node and the kernfs mutex.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let n = env.kzalloc(16).await?;
    let mutex = env.kzalloc(8).await?;
    Ok(vec![("kernfs.node", n), ("kernfs.mutex", mutex)])
}

/// Activates the node, making it visible to lookups. All flag accesses are
/// under the kernfs mutex.
pub async fn kernfs_activate(env: &Env<'_>, _node: u64) -> KResult<u64> {
    let n = sym!(env, "kernfs.node");
    let mutex = sym!(env, "kernfs.mutex");
    env.ctx
        .with_lock_at(site!("kernfs_activate:lock"), mutex, async {
            let f = env
                .ctx
                .read_u32(site!("kernfs_activate:flags_check"), n + node::FLAGS)
                .await?;
            env.ctx
                .write_u32(
                    site!("kernfs_activate:flags_set_active"),
                    n + node::FLAGS,
                    f | flags::ACTIVATED,
                )
                .await?;
            // Walk the attributes (population is simulated as a count bump)
            // and verify the visibility bit took.
            let a = env
                .ctx
                .read_u32(site!("kernfs_activate:nattrs"), n + node::NATTRS)
                .await?;
            env.ctx
                .write_u32(site!("kernfs_activate:nattrs"), n + node::NATTRS, a + 1)
                .await?;
            env.ctx
                .read_u32(site!("kernfs_activate:flags_verify"), n + node::FLAGS)
                .await?;
            Ok(0)
        })
        .await
}

/// Notifies watchers of the node (#22): buggy builds set the notified bit
/// after dropping the kernfs mutex.
pub async fn kernfs_notify(env: &Env<'_>, _node: u64) -> KResult<u64> {
    let n = sym!(env, "kernfs.node");
    let mutex = sym!(env, "kernfs.mutex");
    let f = env
        .ctx
        .with_lock_at(site!("kernfs_notify:lock"), mutex, async {
            let f = env
                .ctx
                .read_u32(site!("kernfs_notify:flags_check"), n + node::FLAGS)
                .await?;
            if f & flags::ACTIVATED == 0 {
                return Ok(None);
            }
            if !env.config.has_bug(22) {
                env.ctx
                    .write_u32(
                        site!("kernfs_notify:flags_set_notified"),
                        n + node::FLAGS,
                        f | flags::NOTIFIED,
                    )
                    .await?;
            }
            Ok(Some(f))
        })
        .await?;
    let Some(f) = f else {
        return Ok(ENOENT);
    };
    if env.config.has_bug(22) {
        // Buggy: the notified bit lands outside the mutex.
        env.ctx
            .write_u32(
                site!("kernfs_notify:flags_set_notified"),
                n + node::FLAGS,
                f | flags::NOTIFIED,
            )
            .await?;
    }
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
    fn activate_then_notify_sets_both_bits() {
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
                    assert_eq!(kernfs_notify(&env, 0).await?, ENOENT);
                    assert_eq!(kernfs_activate(&env, 0).await?, 0);
                    assert_eq!(kernfs_notify(&env, 0).await?, 0);
                    let n = sym!(env, "kernfs.node");
                    let f = env
                        .ctx
                        .read_u32(site!("test:flags"), n + node::FLAGS)
                        .await?;
                    assert_eq!(f, flags::ACTIVATED | flags::NOTIFIED);
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
        }
    }
}
