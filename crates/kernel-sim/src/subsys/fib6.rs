//! IPv6 FIB cookie (issue #10, benign data race).
//!
//! `fib6_clean_node()` bumps the table's sernum/cookie under the table lock;
//! `fib6_get_cookie_safe()` reads it locklessly to validate cached dst
//! entries. The race is real but benign — a stale read just forces a cache
//! revalidation. Table 2 classifies it as benign; the registry does too.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::Env;

/// Boots the fib6 subsystem: the cookie cell and its lock.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let cookie = env.kzalloc(8).await?;
    env.ctx
        .write_u64(site!("fib6_boot:cookie"), cookie, 1)
        .await?;
    let lock = env.kzalloc(8).await?;
    Ok(vec![("fib6.cookie", cookie), ("fib6.lock", lock)])
}

/// Route change: bump the cookie under the table lock (#10 writer).
pub async fn fib6_clean_node(env: &Env<'_>) -> KResult<u64> {
    let cookie = sym!(env, "fib6.cookie");
    let lock = sym!(env, "fib6.lock");
    let plain = env.config.has_bug(10);
    env.ctx
        .with_lock(lock, async {
            if plain {
                let v = env
                    .ctx
                    .read_u64(site!("fib6_clean_node:load"), cookie)
                    .await?;
                env.ctx
                    .write_u64(site!("fib6_clean_node:bump"), cookie, v + 1)
                    .await?;
                Ok(v + 1)
            } else {
                let v = env
                    .ctx
                    .read_atomic(site!("fib6_clean_node:load"), cookie, 8)
                    .await?;
                env.ctx
                    .write_atomic(site!("fib6_clean_node:bump"), cookie, 8, v + 1)
                    .await?;
                Ok(v + 1)
            }
        })
        .await
}

/// Connect path on an Inet socket: validate the cached route cookie with a
/// lockless read (#10 reader).
pub async fn inet_connect(env: &Env<'_>, sk: u64) -> KResult<u64> {
    let cookie = sym!(env, "fib6.cookie");
    let v = if env.config.has_bug(10) {
        env.ctx
            .read_u64(site!("fib6_get_cookie_safe:load"), cookie)
            .await?
    } else {
        env.ctx
            .read_atomic(site!("fib6_get_cookie_safe:load"), cookie, 8)
            .await?
    };
    // Cache the observed cookie in the socket's dst entry.
    env.ctx
        .write_u64(site!("fib6_get_cookie_safe:cache"), sk + 16, v)
        .await?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsys::tcp_cong;
    use crate::{boot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::Executor;

    #[test]
    fn cookie_bumps_and_reads() {
        let booted = boot(KernelConfig::v5_3_10());
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
                assert_eq!(fib6_clean_node(&env).await?, 2);
                assert_eq!(fib6_clean_node(&env).await?, 3);
                let sk = tcp_cong::inet_socket(&env).await?;
                inet_connect(&env, sk).await?;
                Ok(())
            })],
            &mut FreeRun,
        );
        assert!(r.report.outcome.is_completed());
    }
}
