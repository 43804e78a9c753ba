//! Virtio vsock stream sockets (issue #21).
//!
//! Every path that touches `vsk->state` holds the socket lock — except the
//! tail of `vsock_stream_connect()` in buggy builds, which publishes
//! `ESTABLISHED` *after* dropping it. The lock-rule miner learns
//! "`vsock.sock` state is protected by the socket lock" from the majority
//! of accesses and flags the bare store; depending on the schedule the
//! bare store also shows up as a plain data race against a locked reader.
//! The patched build publishes the state before releasing the lock.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{Env, EINVAL};

/// Socket state values.
pub mod state {
    /// Handshake in progress.
    pub const CONNECTING: u64 = 1;
    /// Connection established.
    pub const ESTABLISHED: u64 = 2;
}

/// Socket field offsets.
pub mod sock {
    /// Connection state (u32).
    pub const STATE: u64 = 0;
    /// Bytes queued for transmit (u32).
    pub const BUFFERED: u64 = 4;
}

/// Boots the vsock subsystem: one stream socket and its lock.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let s = env.kzalloc(16).await?;
    let lock = env.kzalloc(8).await?;
    Ok(vec![("vsock.sock", s), ("vsock.lock", lock)])
}

/// `connect()` on the vsock socket (#21): buggy builds publish the final
/// state after dropping the socket lock.
pub async fn vsock_stream_connect(env: &Env<'_>, _cid: u64) -> KResult<u64> {
    let s = sym!(env, "vsock.sock");
    let lock = sym!(env, "vsock.lock");
    env.ctx
        .with_lock_at(site!("vsock_stream_connect:lock"), lock, async {
            env.ctx
                .read_u32(site!("vsock_stream_connect:state_check"), s + sock::STATE)
                .await?;
            env.ctx
                .write_u32(
                    site!("vsock_stream_connect:set_connecting"),
                    s + sock::STATE,
                    state::CONNECTING,
                )
                .await?;
            // The (simulated) handshake completes; verify the transport didn't
            // reset us while we negotiated.
            env.ctx
                .read_u32(
                    site!("vsock_stream_connect:transport_ready"),
                    s + sock::STATE,
                )
                .await?;
            if !env.config.has_bug(21) {
                env.ctx
                    .write_u32(
                        site!("vsock_stream_connect:set_established"),
                        s + sock::STATE,
                        state::ESTABLISHED,
                    )
                    .await?;
            }
            Ok(())
        })
        .await?;
    if env.config.has_bug(21) {
        // Buggy: the ESTABLISHED store lands after the unlock.
        env.ctx
            .write_u32(
                site!("vsock_stream_connect:set_established"),
                s + sock::STATE,
                state::ESTABLISHED,
            )
            .await?;
    }
    Ok(0)
}

/// `sendmsg()` on the vsock socket: checks and stamps the connection state
/// under the socket lock.
pub async fn virtio_transport_send(env: &Env<'_>, len: u64) -> KResult<u64> {
    let s = sym!(env, "vsock.sock");
    let lock = sym!(env, "vsock.lock");
    env.ctx
        .with_lock_at(site!("virtio_transport_send:lock"), lock, async {
            let st = env
                .ctx
                .read_u32(site!("virtio_transport_send:state_check"), s + sock::STATE)
                .await?;
            if st != state::ESTABLISHED {
                return Ok(EINVAL);
            }
            let b = env
                .ctx
                .read_u32(site!("virtio_transport_send:credit"), s + sock::BUFFERED)
                .await?;
            env.ctx
                .write_u32(
                    site!("virtio_transport_send:credit"),
                    s + sock::BUFFERED,
                    b + 1 + (len % 4),
                )
                .await?;
            // Re-check the state before committing the packet to the ring.
            env.ctx
                .read_u32(
                    site!("virtio_transport_send:state_recheck"),
                    s + sock::STATE,
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
    fn connect_then_send_succeeds_in_both_builds() {
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
                    assert_eq!(vsock_stream_connect(&env, 3).await?, 0);
                    assert_eq!(virtio_transport_send(&env, 5).await?, 0);
                    Ok(())
                })],
                &mut FreeRun,
            );
            assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
        }
    }

    #[test]
    fn send_without_connect_is_einval() {
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
                assert_eq!(virtio_transport_send(&env, 5).await?, EINVAL);
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed(), "{:?}", r.report.console);
    }
}
