//! Block device core (issues #4, #5, #6).
//!
//! * **#4** — the IO submission path checks the device capacity, writes the
//!   data, and the completion path (`blk_update_request`) re-checks it.
//!   A concurrent capacity shrink between check and completion yields
//!   "Blk_update_request: IO error" — an atomicity violation across an
//!   entire request lifetime.
//! * **#5** — `blkdev_ioctl(BLKRASET)` stores the readahead page count
//!   under `bd_mutex`; `generic_fadvise()` reads it with no lock.
//! * **#6** — `set_blocksize()` stores the logical block size under
//!   `bd_mutex`; `do_mpage_readpage()` reads it mid-readpage with no lock.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::sym;
use crate::{Env, EIO};

/// Block-device field offsets.
pub mod bdev {
    /// Logical block size (u32).
    pub const S_BLOCKSIZE: u64 = 0;
    /// Capacity in sectors (u32).
    pub const CAPACITY: u64 = 4;
    /// Readahead page count (u32).
    pub const RA_PAGES: u64 = 8;
    /// In-flight request counter (u32).
    pub const IN_FLIGHT: u64 = 12;
}

/// Boot-time capacity in sectors.
pub const BOOT_CAPACITY: u64 = 16;

/// Boots the block device: device struct, disk area, and `bd_mutex`.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let d = env.kzalloc(64).await?;
    env.ctx
        .write_u32(site!("blkdev_boot:bsz"), d + bdev::S_BLOCKSIZE, 512)
        .await?;
    env.ctx
        .write_u32(site!("blkdev_boot:cap"), d + bdev::CAPACITY, BOOT_CAPACITY)
        .await?;
    env.ctx
        .write_u32(site!("blkdev_boot:ra"), d + bdev::RA_PAGES, 32)
        .await?;
    let disk = env.kzalloc(64).await?;
    let bd_mutex = env.kzalloc(8).await?;
    Ok(vec![
        ("bdev.dev", d),
        ("bdev.disk", disk),
        ("bdev.bd_mutex", bd_mutex),
    ])
}

/// `open()` on the block device.
pub async fn blkdev_open(env: &Env<'_>) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    env.ctx
        .read_atomic(site!("blkdev_open:bsz"), d + bdev::S_BLOCKSIZE, 4)
        .await?;
    Ok(0)
}

/// `BLKBSZSET`: store the logical block size (#6 writer).
pub async fn set_blocksize(env: &Env<'_>, arg: u64) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let mutex = sym!(env, "bdev.bd_mutex");
    let bsz = 512u64 << (arg % 4);
    env.ctx
        .with_lock(mutex, async {
            if env.config.has_bug(6) {
                env.ctx
                    .write_u32(site!("set_blocksize:store"), d + bdev::S_BLOCKSIZE, bsz)
                    .await?;
            } else {
                env.ctx
                    .write_atomic(site!("set_blocksize:store"), d + bdev::S_BLOCKSIZE, 4, bsz)
                    .await?;
            }
            Ok(0)
        })
        .await
}

/// `read()` on the block device: `do_mpage_readpage` (#6 reader).
pub async fn do_mpage_readpage(env: &Env<'_>, off: u64) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let bsz = if env.config.has_bug(6) {
        env.ctx
            .read_u32(site!("do_mpage_readpage:blocksize"), d + bdev::S_BLOCKSIZE)
            .await?
    } else {
        // The fix serializes readers against set_blocksize via bd_mutex.
        let mutex = sym!(env, "bdev.bd_mutex");
        env.ctx
            .with_lock(mutex, async {
                env.ctx
                    .read_atomic(
                        site!("do_mpage_readpage:blocksize"),
                        d + bdev::S_BLOCKSIZE,
                        4,
                    )
                    .await
            })
            .await?
    };
    let disk = sym!(env, "bdev.disk");
    // Map the page's first block and read it from the disk area.
    let block = (off * (bsz / 512)) % 64;
    env.ctx
        .read_u8(site!("do_mpage_readpage:disk"), disk + block)
        .await
}

/// `BLKRASET`: store the readahead count under `bd_mutex` (#5 writer).
pub async fn blkdev_ioctl_ra_set(env: &Env<'_>, arg: u64) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let mutex = sym!(env, "bdev.bd_mutex");
    env.ctx
        .with_lock(mutex, async {
            if env.config.has_bug(5) {
                env.ctx
                    .write_u32(
                        site!("blkdev_ioctl:ra_set"),
                        d + bdev::RA_PAGES,
                        1 + arg % 64,
                    )
                    .await?;
            } else {
                env.ctx
                    .write_atomic(
                        site!("blkdev_ioctl:ra_set"),
                        d + bdev::RA_PAGES,
                        4,
                        1 + arg % 64,
                    )
                    .await?;
            }
            Ok(0)
        })
        .await
}

/// `posix_fadvise()`: `generic_fadvise` reads the readahead count with no
/// lock (#5 reader) and touches that many disk bytes.
pub async fn generic_fadvise(env: &Env<'_>) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let ra = if env.config.has_bug(5) {
        env.ctx
            .read_u32(site!("generic_fadvise:ra_read"), d + bdev::RA_PAGES)
            .await?
    } else {
        env.ctx
            .read_atomic(site!("generic_fadvise:ra_read"), d + bdev::RA_PAGES, 4)
            .await?
    };
    let disk = sym!(env, "bdev.disk");
    for i in 0..ra.min(4) {
        env.ctx
            .read_u8(site!("generic_fadvise:readahead"), disk + (i % 64))
            .await?;
    }
    Ok(ra)
}

/// `BLKSETSIZE`-style capacity change (#4 writer).
pub async fn blkdev_set_capacity(env: &Env<'_>, arg: u64) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let mutex = sym!(env, "bdev.bd_mutex");
    env.ctx
        .with_lock(mutex, async {
            env.ctx
                .write_atomic(
                    site!("blkdev_set_capacity:store"),
                    d + bdev::CAPACITY,
                    4,
                    1 + arg % BOOT_CAPACITY,
                )
                .await?;
            Ok(0)
        })
        .await
}

/// `write()` directly on the block device.
pub async fn blkdev_direct_write(env: &Env<'_>, off: u64, val: u64) -> KResult<u64> {
    let disk = sym!(env, "bdev.disk");
    env.ctx
        .write_u8(
            site!("blkdev_direct_write:disk"),
            disk + off % 64,
            val & 0xff,
        )
        .await?;
    submit_bh(env, off % BOOT_CAPACITY).await
}

/// The shared IO submission path (#4): capacity check, data transfer,
/// completion re-check. Patched builds hold `bd_mutex` across the request,
/// making check and completion atomic against capacity changes.
pub async fn submit_bh(env: &Env<'_>, sector: u64) -> KResult<u64> {
    let d = sym!(env, "bdev.dev");
    let buggy = env.config.has_bug(4);
    let mutex = sym!(env, "bdev.bd_mutex");
    if !buggy {
        env.ctx.lock(mutex).await?;
    }
    let cap = env
        .ctx
        .read_atomic(site!("submit_bh:capacity_check"), d + bdev::CAPACITY, 4)
        .await?;
    let ret = if sector >= cap {
        // Cleanly rejected before dispatch.
        EIO
    } else {
        // Dispatch: account the in-flight request and move the data.
        let inflight = env
            .ctx
            .read_atomic(site!("submit_bh:inflight"), d + bdev::IN_FLIGHT, 4)
            .await?;
        env.ctx
            .write_atomic(
                site!("submit_bh:inflight"),
                d + bdev::IN_FLIGHT,
                4,
                inflight + 1,
            )
            .await?;
        let disk = sym!(env, "bdev.disk");
        env.ctx
            .write_u8(
                site!("submit_bh:transfer"),
                disk + sector % 64,
                (sector + 1) & 0xff,
            )
            .await?;
        // Completion: blk_update_request re-validates the request against
        // the (possibly changed) capacity.
        let cap2 = env
            .ctx
            .read_atomic(site!("blk_update_request:recheck"), d + bdev::CAPACITY, 4)
            .await?;
        let inflight2 = env
            .ctx
            .read_atomic(site!("submit_bh:inflight"), d + bdev::IN_FLIGHT, 4)
            .await?;
        env.ctx
            .write_atomic(
                site!("submit_bh:inflight"),
                d + bdev::IN_FLIGHT,
                4,
                inflight2.saturating_sub(1),
            )
            .await?;
        if sector >= cap2 {
            env.ctx
                .printk(format!(
                    "Blk_update_request: IO error, dev sda, sector {sector}"
                ))
                .await?;
            EIO
        } else {
            0
        }
    };
    if !buggy {
        env.ctx.unlock(mutex).await?;
    }
    Ok(ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot as kboot, KernelConfig};
    use sb_vmm::exec::job;
    use sb_vmm::sched::FreeRun;
    use sb_vmm::{ExecReport, Executor};

    fn seq_env_run(
        config: KernelConfig,
        f: impl AsyncFnOnce(&Env<'_>) -> KResult<()> + 'static,
    ) -> ExecReport {
        let booted = kboot(config);
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
    fn blocksize_updates_are_visible() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            set_blocksize(env, 2).await?; // 2048
            let v = do_mpage_readpage(env, 1).await?;
            let _ = v;
            let d = sym!(env, "bdev.dev");
            let bsz = env
                .ctx
                .read_u32(site!("test:bsz"), d + bdev::S_BLOCKSIZE)
                .await?;
            assert_eq!(bsz, 2048);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn io_past_capacity_is_rejected_cleanly_in_sequence() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            blkdev_set_capacity(env, 3).await?; // 4 sectors
            assert_eq!(submit_bh(env, 10).await?, EIO);
            assert_eq!(submit_bh(env, 2).await?, 0);
            Ok(())
        });
        assert!(r.outcome.is_completed());
        // Sequentially the window cannot open; no console IO error.
        assert!(!r.console.iter().any(|l| l.contains("IO error")));
    }

    #[test]
    fn fadvise_reads_configured_readahead() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            blkdev_ioctl_ra_set(env, 7).await?; // 8 pages
            assert_eq!(generic_fadvise(env).await?, 8);
            Ok(())
        });
        assert!(r.outcome.is_completed());
    }
}
