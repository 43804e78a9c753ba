//! TCP congestion control (issue #16, benign data race).
//!
//! `tcp_set_default_congestion_control()` rewrites the global default
//! algorithm name under the CA-list lock, while
//! `tcp_set_congestion_control()` / socket creation read the name
//! locklessly when assigning a CA to a new socket. A torn name read merely
//! selects a fallback algorithm — benign, per Table 2.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// Length of the congestion-control name buffer.
pub const CA_NAME_MAX: u64 = 8;

/// Boots the subsystem: the default-CA name buffer ("cubic") and the list
/// lock.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let name = env.kzalloc(CA_NAME_MAX).await?;
    for (i, b) in b"cubic\0\0\0".iter().enumerate() {
        env.ctx
            .write_u8(site!("tcp_cong_boot:name"), name + i as u64, u64::from(*b))
            .await?;
    }
    let lock = env.kzalloc(8).await?;
    Ok(vec![("tcp.cong_default", name), ("tcp.cong_lock", lock)])
}

/// Known algorithm name table, selected by `val`.
const NAMES: [&[u8; 8]; 4] = [
    b"cubic\0\0\0",
    b"reno\0\0\0\0",
    b"bbr\0\0\0\0\0",
    b"vegas\0\0\0",
];

/// Creates a TCP socket, assigning the default congestion control (#16
/// reader on the fast path).
pub async fn inet_socket(env: &Env<'_>) -> KResult<u64> {
    let sk = env.kzalloc(64).await?;
    env.ctx.write_u32(site!("inet_create:init"), sk, 2).await?; // AF_INET
    let ca = tcp_assign_congestion_control(env).await?;
    env.ctx
        .write_u64(site!("inet_create:ca"), sk + 24, ca)
        .await?;
    Ok(sk)
}

/// Reads the default CA name word locklessly (#16 reader).
pub async fn tcp_assign_congestion_control(env: &Env<'_>) -> KResult<u64> {
    let name = sym!(env, "tcp.cong_default");
    if env.config.has_bug(16) {
        env.ctx
            .read_u64(site!("tcp_set_congestion_control:read_default"), name)
            .await
    } else {
        env.ctx
            .read_atomic(site!("tcp_set_congestion_control:read_default"), name, 8)
            .await
    }
}

/// `setsockopt(TCP_CONGESTION)` with admin rights: rewrite the global
/// default name under the list lock, byte by byte (#16 writer).
pub async fn set_default_congestion_control(env: &Env<'_>, _sk: u64, val: u64) -> KResult<u64> {
    let name = sym!(env, "tcp.cong_default");
    let lock = sym!(env, "tcp.cong_lock");
    let chosen = NAMES[(val % NAMES.len() as u64) as usize];
    env.ctx
        .with_lock(lock, async {
            for (i, b) in chosen.iter().enumerate() {
                if env.config.has_bug(16) {
                    env.ctx
                        .write_u8(
                            site!("tcp_set_default_congestion_control:copy"),
                            name + i as u64,
                            u64::from(*b),
                        )
                        .await?;
                } else {
                    env.ctx
                        .write_atomic(
                            site!("tcp_set_default_congestion_control:copy"),
                            name + i as u64,
                            1,
                            u64::from(*b),
                        )
                        .await?;
                }
            }
            Ok(0)
        })
        .await
}

/// Transmit accounting for Inet sockets (keeps sendmsg meaningful).
pub async fn inet_sendmsg(env: &Env<'_>, sk: u64) -> KResult<u64> {
    let tx = env.ctx.read_u64(site!("tcp_sendmsg:sk_tx"), sk + 8).await?;
    env.ctx
        .write_u64(site!("tcp_sendmsg:sk_tx"), sk + 8, tx + 1)
        .await?;
    Ok(tx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn default_name_updates_are_visible_to_new_sockets() {
        let booted = boot(KernelConfig::v5_12_rc3());
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
                let s0 = inet_socket(&env).await?;
                let cubic = env.ctx.read_u64(site!("test:ca0"), s0 + 24).await?;
                assert_eq!(cubic & 0xff, u64::from(b'c'));
                set_default_congestion_control(&env, s0, 1).await?; // "reno"
                let s1 = inet_socket(&env).await?;
                let reno = env.ctx.read_u64(site!("test:ca1"), s1 + 24).await?;
                assert_eq!(reno & 0xff, u64::from(b'r'));
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed());
    }
}
