//! Slab-allocator statistics (planted issue #13).
//!
//! The real bug: `cache_alloc_refill()` and `free_block()` update per-cache
//! statistics counters without synchronization — a benign data race in
//! `mm/` that, because *every* test allocates kernel memory, is unmasked by
//! any concurrent test pair. Table 3 shows every strategy (including the
//! baselines) finding it, usually first. The counters here are bumped inside
//! [`crate::Env::kzalloc`]/[`crate::Env::kfree`], giving the same
//! everything-touches-it property.

use sb_vmm::ctx::{Ctx, KResult};

use crate::Symbols;

/// Allocates and registers the statistics cells. Runs before any other
/// subsystem so `Env::kzalloc` works during the rest of boot.
pub async fn boot(ctx: &Ctx, syms: &mut Symbols) -> KResult<()> {
    let alloc = ctx.kmalloc(8).await?;
    let free = ctx.kmalloc(8).await?;
    syms.register("slab.alloc_count", alloc);
    syms.register("slab.free_count", free);
    Ok(())
}
