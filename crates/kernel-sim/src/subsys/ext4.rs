//! ext4 filesystem (issues #2 and #3 — atomicity violations).
//!
//! * **#2** — `swap_inode_boot_loader()` swaps an inode's blocks with the
//!   boot-loader inode and recomputes the checksum, but in buggy builds the
//!   swap/checksum/verify sequence is not atomic against concurrent inode
//!   writes: an interleaved `write()` changes `i_blocks` between the
//!   checksum computation and the verify, producing
//!   "EXT4-fs error: swap_inode_boot_loader: checksum invalid".
//! * **#3** — the extent-tree insert rewrites the extent header by clearing
//!   and re-writing the magic around the entry update; a concurrent
//!   `ext4_ext_check_inode()` on the (lockless) read path can observe the
//!   cleared magic: "EXT4-fs error: ext4_ext_check_inode: invalid magic".
//!
//! Both bugs use *marked* accesses throughout, so no data race is involved
//! — they are pure atomicity violations, which is why the console checker
//! (not the race detector) catches them.
//!
//! `mount()` (`ext4_fill_super`) is a deliberately heavy operation that also
//! performs genuine double fetches of superblock fields — the seed corpus
//! for the S-CH-DOUBLE clustering strategy.

use sb_vmm::ctx::KResult;
use sb_vmm::site;

use crate::subsys::blkdev;
use crate::sym;
use crate::{Env, EIO};

/// Number of regular file inodes.
pub const NUM_INODES: u8 = 4;

/// Inode field offsets.
pub mod inode {
    /// Block count (u32).
    pub const I_BLOCKS: u64 = 0;
    /// Inode checksum over `i_blocks` (u32).
    pub const I_CHECKSUM: u64 = 4;
    /// Extent-header magic (u16, 0xF30A when valid).
    pub const EH_MAGIC: u64 = 8;
    /// Extent-header entry count (u16).
    pub const EH_ENTRIES: u64 = 10;
    /// File size (u32).
    pub const I_SIZE: u64 = 12;
    /// Inline data area (16 bytes).
    pub const DATA: u64 = 16;
    /// Per-inode lock word.
    pub const LOCK: u64 = 64;
    /// Allocation size.
    pub const SIZE: u64 = 128;
}

/// The valid extent-header magic.
pub const EXT4_EXT_MAGIC: u64 = 0xF30A;

/// Inode checksum function (crc stand-in).
pub fn csum_of(i_blocks: u64) -> u64 {
    (i_blocks.wrapping_mul(0x9E37) ^ 0xAB) & 0xFFFF_FFFF
}

/// Boots ext4: four file inodes, the boot-loader inode, the superblock lock
/// and a small journal area.
pub async fn boot(env: &Env<'_>) -> KResult<Vec<(&'static str, u64)>> {
    let mut out = Vec::new();
    for i in 0..=NUM_INODES {
        let ino = env.kzalloc(inode::SIZE).await?;
        env.ctx
            .write(
                site!("ext4_boot:magic"),
                ino + inode::EH_MAGIC,
                2,
                EXT4_EXT_MAGIC,
            )
            .await?;
        env.ctx
            .write_u32(site!("ext4_boot:csum"), ino + inode::I_CHECKSUM, csum_of(0))
            .await?;
        out.push((inode_symbol(i), ino));
    }
    let sb_lock = env.kzalloc(8).await?;
    let journal = env.kzalloc(64).await?;
    out.push(("ext4.sb_lock", sb_lock));
    out.push(("ext4.journal", journal));
    Ok(out)
}

/// Symbol name for inode `i` (`NUM_INODES` is the boot-loader inode).
pub fn inode_symbol(i: u8) -> &'static str {
    match i {
        0 => "ext4.inode0",
        1 => "ext4.inode1",
        2 => "ext4.inode2",
        3 => "ext4.inode3",
        _ => "ext4.boot_inode",
    }
}

fn inode_addr(env: &Env<'_>, i: u8) -> u64 {
    env.sym(inode_symbol(i % (NUM_INODES + 1)))
}

/// `open()` on an ext4 file: validate the superblock block size.
pub async fn ext4_file_open(env: &Env<'_>, ino: u8) -> KResult<u64> {
    let bdev = sym!(env, "bdev.dev");
    let _bsz = env
        .ctx
        .read_atomic(
            site!("ext4_iget:sb_read"),
            bdev + blkdev::bdev::S_BLOCKSIZE,
            4,
        )
        .await?;
    let i = inode_addr(env, ino);
    let _sz = env
        .ctx
        .read_u32(site!("ext4_iget:size"), i + inode::I_SIZE)
        .await?;
    Ok(0)
}

/// `write()` on an ext4 file: extent insert + inode dirtying + block IO.
pub async fn ext4_file_write(env: &Env<'_>, ino: u8, off: u64, val: u64) -> KResult<u64> {
    let i = inode_addr(env, ino);
    let lock = i + inode::LOCK;
    env.ctx.lock(lock).await?;
    // Inline data write.
    env.ctx
        .write_u8(
            site!("ext4_ext_insert:data"),
            i + inode::DATA + off % 16,
            val & 0xff,
        )
        .await?;
    // Extent-header update. Buggy builds clear the magic while rewriting
    // the header (a memmove of the header block), restoring it after.
    let e = env
        .ctx
        .read_atomic(
            site!("ext4_ext_insert:entries_read"),
            i + inode::EH_ENTRIES,
            2,
        )
        .await?;
    if env.config.has_bug(3) {
        env.ctx
            .write_atomic(
                site!("ext4_ext_insert:magic_clear"),
                i + inode::EH_MAGIC,
                2,
                0,
            )
            .await?;
        env.ctx
            .write_atomic(
                site!("ext4_ext_insert:entries"),
                i + inode::EH_ENTRIES,
                2,
                (e + 1) & 0xFFFF,
            )
            .await?;
        env.ctx
            .write_atomic(
                site!("ext4_ext_insert:magic_restore"),
                i + inode::EH_MAGIC,
                2,
                EXT4_EXT_MAGIC,
            )
            .await?;
    } else {
        env.ctx
            .write_atomic(
                site!("ext4_ext_insert:entries"),
                i + inode::EH_ENTRIES,
                2,
                (e + 1) & 0xFFFF,
            )
            .await?;
    }
    // ext4_mark_inode_dirty: bump i_blocks and recompute the checksum.
    let b = env
        .ctx
        .read_atomic(
            site!("ext4_mark_inode_dirty:iblocks_read"),
            i + inode::I_BLOCKS,
            4,
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("ext4_mark_inode_dirty:iblocks"),
            i + inode::I_BLOCKS,
            4,
            (b + 1) & 0xFFFF_FFFF,
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("ext4_mark_inode_dirty:csum"),
            i + inode::I_CHECKSUM,
            4,
            csum_of(b + 1),
        )
        .await?;
    let sz = env
        .ctx
        .read_u32(site!("ext4_file_write:size"), i + inode::I_SIZE)
        .await?;
    env.ctx
        .write_u32(
            site!("ext4_file_write:size"),
            i + inode::I_SIZE,
            sz.max(off % 16 + 1),
        )
        .await?;
    env.ctx.unlock(lock).await?;
    // Submit the backing block IO (issue #4 lives in this path).
    blkdev::submit_bh(env, off % 16).await
}

/// `read()` on an ext4 file: extent check (#3 reader) + data read.
pub async fn ext4_file_read(env: &Env<'_>, ino: u8, off: u64) -> KResult<u64> {
    let i = inode_addr(env, ino);
    // ext4_ext_check_inode on the lockless read path.
    let m = env
        .ctx
        .read_atomic(site!("ext4_ext_check_inode:magic"), i + inode::EH_MAGIC, 2)
        .await?;
    if m != EXT4_EXT_MAGIC {
        env.ctx.printk(format!(
            "EXT4-fs error (device sda): ext4_ext_check_inode: inode #{ino}: bad header/extent: invalid magic - magic {m:x}"
        )).await?;
        return Ok(EIO);
    }
    let _e = env
        .ctx
        .read_atomic(
            site!("ext4_ext_check_inode:entries"),
            i + inode::EH_ENTRIES,
            2,
        )
        .await?;
    env.ctx
        .read_u8(site!("ext4_file_read:data"), i + inode::DATA + off % 16)
        .await
}

/// `EXT4_IOC_SWAP_BOOT`: swap `ino`'s blocks with the boot-loader inode,
/// recompute the checksum, and verify (#2).
pub async fn swap_inode_boot_loader(env: &Env<'_>, ino: u8) -> KResult<u64> {
    let i = inode_addr(env, ino);
    let boot = sym!(env, "ext4.boot_inode");
    if i == boot {
        return Ok(EIO);
    }
    let buggy = env.config.has_bug(2);
    // The fix holds both inode locks across the entire swap + verify; the
    // buggy build performs the sequence with no lock at all, so concurrent
    // writers interleave between the checksum computation and the verify.
    if !buggy {
        env.ctx.lock(i + inode::LOCK).await?;
        env.ctx.lock(boot + inode::LOCK).await?;
    }
    let b1 = env
        .ctx
        .read_atomic(
            site!("swap_inode_boot_loader:blocks1"),
            i + inode::I_BLOCKS,
            4,
        )
        .await?;
    let b2 = env
        .ctx
        .read_atomic(
            site!("swap_inode_boot_loader:blocks2"),
            boot + inode::I_BLOCKS,
            4,
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("swap_inode_boot_loader:store1"),
            i + inode::I_BLOCKS,
            4,
            b2,
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("swap_inode_boot_loader:store2"),
            boot + inode::I_BLOCKS,
            4,
            b1,
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("swap_inode_boot_loader:csum"),
            i + inode::I_CHECKSUM,
            4,
            csum_of(b2),
        )
        .await?;
    env.ctx
        .write_atomic(
            site!("swap_inode_boot_loader:csum_boot"),
            boot + inode::I_CHECKSUM,
            4,
            csum_of(b1),
        )
        .await?;
    // Verify pass (the journal commit re-reads the inode).
    let rb = env
        .ctx
        .read_atomic(
            site!("swap_inode_boot_loader:verify_blocks"),
            i + inode::I_BLOCKS,
            4,
        )
        .await?;
    let rc = env
        .ctx
        .read_atomic(
            site!("swap_inode_boot_loader:verify_csum"),
            i + inode::I_CHECKSUM,
            4,
        )
        .await?;
    let ret = if csum_of(rb) != rc {
        env.ctx.printk(format!(
            "EXT4-fs error (device sda): swap_inode_boot_loader: inode #{ino}: checksum invalid (blocks {rb}, csum {rc:#x})"
        )).await?;
        EIO
    } else {
        0
    };
    if !buggy {
        env.ctx.unlock(boot + inode::LOCK).await?;
        env.ctx.unlock(i + inode::LOCK).await?;
    }
    Ok(ret)
}

/// `mount()` / `ext4_fill_super`: a heavy operation — superblock double
/// fetches, a full inode-table scan, and a journal replay loop.
pub async fn ext4_fill_super(env: &Env<'_>) -> KResult<u64> {
    let bdev = sym!(env, "bdev.dev");
    let sb_lock = sym!(env, "ext4.sb_lock");
    // Genuine double fetch of the block size: read once to validate, read
    // again to use — no intervening write, same value (df_leader source).
    let bsz1 = env
        .ctx
        .read_atomic(
            site!("ext4_fill_super:bsz_check"),
            bdev + blkdev::bdev::S_BLOCKSIZE,
            4,
        )
        .await?;
    if !(512..=4096).contains(&bsz1) {
        return Ok(EIO);
    }
    let bsz2 = env
        .ctx
        .read_atomic(
            site!("ext4_fill_super:bsz_use"),
            bdev + blkdev::bdev::S_BLOCKSIZE,
            4,
        )
        .await?;
    // Same double-fetch shape for the capacity.
    let _cap1 = env
        .ctx
        .read_atomic(
            site!("ext4_fill_super:cap_check"),
            bdev + blkdev::bdev::CAPACITY,
            4,
        )
        .await?;
    let _cap2 = env
        .ctx
        .read_atomic(
            site!("ext4_fill_super:cap_use"),
            bdev + blkdev::bdev::CAPACITY,
            4,
        )
        .await?;
    env.ctx.lock(sb_lock).await?;
    // Inode-table scan.
    let mut live = 0u64;
    for i in 0..=NUM_INODES {
        let ino = inode_addr(env, i);
        let m = env
            .ctx
            .read_atomic(
                site!("ext4_fill_super:scan_magic"),
                ino + inode::EH_MAGIC,
                2,
            )
            .await?;
        let b = env
            .ctx
            .read_atomic(
                site!("ext4_fill_super:scan_blocks"),
                ino + inode::I_BLOCKS,
                4,
            )
            .await?;
        let _c = env
            .ctx
            .read_atomic(
                site!("ext4_fill_super:scan_csum"),
                ino + inode::I_CHECKSUM,
                4,
            )
            .await?;
        if m == EXT4_EXT_MAGIC {
            live += 1;
        }
        // Stage per-inode bookkeeping on the kernel stack (ESP-filter food).
        env.ctx
            .write_u64(
                site!("ext4_fill_super:stage"),
                env.ctx.stack_slot(u64::from(i)),
                b,
            )
            .await?;
    }
    // Journal replay: stream the journal area through the superblock scan
    // position — bulk, heavy traffic.
    let journal = sym!(env, "ext4.journal");
    for j in 0..32u64 {
        let v = env
            .ctx
            .read_u8(site!("jbd2_replay:read"), journal + (j % 64))
            .await?;
        env.ctx
            .write_u8(
                site!("jbd2_replay:write"),
                journal + ((j + 17) % 64),
                (v + 1) & 0xff,
            )
            .await?;
    }
    env.ctx.unlock(sb_lock).await?;
    Ok(live * u64::from(bsz2 == bsz1))
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
    fn write_then_read_round_trips() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            ext4_file_open(env, 0).await?;
            assert_eq!(ext4_file_write(env, 0, 3, 0x5A).await?, 0);
            assert_eq!(ext4_file_read(env, 0, 3).await?, 0x5A);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn sequential_swap_boot_loader_is_clean() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            ext4_file_write(env, 1, 0, 1).await?;
            ext4_file_write(env, 1, 1, 2).await?;
            assert_eq!(swap_inode_boot_loader(env, 1).await?, 0);
            // Blocks moved to the boot inode; swapping back restores.
            assert_eq!(swap_inode_boot_loader(env, 1).await?, 0);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
        assert!(!r.console.iter().any(|l| l.contains("checksum invalid")));
    }

    #[test]
    fn mount_counts_live_inodes() {
        let r = seq_env_run(KernelConfig::v5_3_10(), async |env| {
            assert_eq!(ext4_fill_super(env).await?, u64::from(NUM_INODES) + 1);
            Ok(())
        });
        assert!(r.outcome.is_completed(), "{:?}", r.console);
    }

    #[test]
    fn mount_produces_double_fetches() {
        let booted = kboot(KernelConfig::v5_3_10());
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
                ext4_fill_super(&env).await?;
                Ok(())
            })],
            &mut FreeRun,
        );
        let check = sb_vmm::Site::intern("ext4_fill_super:bsz_check");
        let usef = sb_vmm::Site::intern("ext4_fill_super:bsz_use");
        let c = r.report.trace.iter().filter(|a| a.site == check).count();
        let u = r.report.trace.iter().filter(|a| a.site == usef).count();
        assert_eq!((c, u), (1, 1));
    }

    #[test]
    fn checksum_function_is_stable() {
        assert_eq!(csum_of(0), csum_of(0));
        assert_ne!(csum_of(1), csum_of(2));
    }
}
