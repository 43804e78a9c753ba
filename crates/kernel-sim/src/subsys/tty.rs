//! TTY / serial port (issue #14).
//!
//! `tty_port_open()` sets `ASYNCB_INITIALIZED` in `port->flags` under the
//! port mutex, while `uart_do_autoconfig()` (TIOCSERCONFIG) rewrites the
//! same flags word under the *uart* port lock — two different locks, so the
//! read-modify-write pairs interleave and flag updates are lost. The patched
//! build routes autoconfig through the port mutex.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// Port flag bits.
pub mod flags {
    /// Set by `tty_port_open`.
    pub const ASYNCB_INITIALIZED: u64 = 1;
    /// Set by `uart_do_autoconfig`.
    pub const ASYNCB_AUTOCONFIG: u64 = 2;
}

/// Port field offsets.
pub mod port {
    /// Flags word (u32).
    pub const FLAGS: u64 = 0;
    /// Open count (u32).
    pub const COUNT: u64 = 4;
}

/// Boots the TTY: one port and its two locks.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let p = env.kzalloc(64).await?;
    let port_lock = env.kzalloc(8).await?;
    let uart_lock = env.kzalloc(8).await?;
    Ok(vec![
        ("tty.port", p),
        ("tty.port_lock", port_lock),
        ("tty.uart_lock", uart_lock),
    ])
}

/// `open()` on the TTY (#14 one side).
pub async fn tty_port_open(env: &Env<'_>) -> KResult<u64> {
    let p = sym!(env, "tty.port");
    let lock = sym!(env, "tty.port_lock");
    env.ctx
        .with_lock(lock, async {
            let f = env
                .ctx
                .read_u32(site!("tty_port_open:flags_read"), p + port::FLAGS)
                .await?;
            env.ctx
                .write_u32(
                    site!("tty_port_open:flags_set"),
                    p + port::FLAGS,
                    f | flags::ASYNCB_INITIALIZED,
                )
                .await?;
            let c = env
                .ctx
                .read_u32(site!("tty_port_open:count"), p + port::COUNT)
                .await?;
            env.ctx
                .write_u32(site!("tty_port_open:count"), p + port::COUNT, c + 1)
                .await?;
            Ok(0)
        })
        .await
}

/// `close()` on the TTY.
pub async fn tty_port_close(env: &Env<'_>) -> KResult<u64> {
    let p = sym!(env, "tty.port");
    let lock = sym!(env, "tty.port_lock");
    env.ctx
        .with_lock(lock, async {
            let c = env
                .ctx
                .read_u32(site!("tty_port_close:count"), p + port::COUNT)
                .await?;
            env.ctx
                .write_u32(
                    site!("tty_port_close:count"),
                    p + port::COUNT,
                    c.saturating_sub(1),
                )
                .await?;
            Ok(0)
        })
        .await
}

/// `TIOCSERCONFIG` (#14 other side): rewrites the flags under a different
/// lock in buggy builds.
pub async fn uart_do_autoconfig(env: &Env<'_>) -> KResult<u64> {
    let p = sym!(env, "tty.port");
    let lock = if env.config.has_bug(14) {
        sym!(env, "tty.uart_lock")
    } else {
        sym!(env, "tty.port_lock")
    };
    env.ctx
        .with_lock(lock, async {
            let f = env
                .ctx
                .read_u32(site!("uart_do_autoconfig:read"), p + port::FLAGS)
                .await?;
            // Probe the hardware (a few harmless reads), then publish.
            for i in 0..3u64 {
                env.ctx
                    .read_u32(
                        site!("uart_do_autoconfig:probe"),
                        p + port::COUNT + (i % 2) * 4,
                    )
                    .await?;
            }
            env.ctx
                .write_u32(
                    site!("uart_do_autoconfig:set"),
                    p + port::FLAGS,
                    f | flags::ASYNCB_AUTOCONFIG,
                )
                .await?;
            Ok(0)
        })
        .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn open_and_autoconfig_set_their_bits() {
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
                tty_port_open(&env).await?;
                uart_do_autoconfig(&env).await?;
                let p = sym!(env, "tty.port");
                let f = env
                    .ctx
                    .read_u32(site!("test:flags"), p + port::FLAGS)
                    .await?;
                assert_eq!(f, flags::ASYNCB_INITIALIZED | flags::ASYNCB_AUTOCONFIG);
                tty_port_close(&env).await?;
                let c = env
                    .ctx
                    .read_u32(site!("test:count"), p + port::COUNT)
                    .await?;
                assert_eq!(c, 0);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }
}
