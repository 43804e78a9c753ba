//! The libc calls the protocol needs, declared directly so the crate takes no
//! new dependency: CPU affinity and scheduling policy (set before any thread
//! exists, inherited by every thread and child) and `getrusage` (context
//! switches, and a child's peak RSS).

/// One CPU set as the kernel ABI sees it: 1024 bits.
pub type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod imp {
    use super::CpuMask;

    /// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kb: i64,
        unused: [i64; 11],
        nvcsw: i64,
        nivcsw: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        fn sync();
    }

    pub fn flush_dirty_pages() {
        // SAFETY: `sync(2)` takes no arguments and cannot fail.
        unsafe { sync() }
    }

    pub fn set_batch_policy() -> bool {
        const SCHED_BATCH: i32 = 3;
        // `struct sched_param` is one int, the static priority; every
        // non-realtime policy requires 0.
        let priority: i32 = 0;
        // SAFETY: `priority` outlives the call and has `struct sched_param`'s
        // layout; pid 0 names the calling thread.
        unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 }
    }

    pub fn affinity() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set_affinity(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the byte length passed,
        // only read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }

    fn rusage(who: i32) -> Option<RUsage> {
        let mut u = RUsage {
            times: [0; 4],
            maxrss_kb: 0,
            unused: [0; 11],
            nvcsw: 0,
            nivcsw: 0,
        };
        // SAFETY: `u` is a live, writable `struct rusage`-sized value (144
        // bytes on every 64-bit Linux ABI; the field layout above mirrors
        // it), and `who` is one of the two documented selectors.
        (unsafe { getrusage(who, &mut u) } == 0).then_some(u)
    }

    pub fn voluntary_switches() -> Option<u64> {
        rusage(0).map(|u| u.nvcsw as u64)
    }

    pub fn children_peak_rss_kb() -> Option<u64> {
        rusage(-1).map(|u| u.maxrss_kb as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::CpuMask;
    pub fn affinity() -> Option<CpuMask> {
        None
    }
    pub fn set_affinity(_mask: &CpuMask) -> bool {
        false
    }
    pub fn set_batch_policy() -> bool {
        false
    }
    pub fn flush_dirty_pages() {}
    pub fn voluntary_switches() -> Option<u64> {
        None
    }
    pub fn children_peak_rss_kb() -> Option<u64> {
        None
    }
}

/// The calling thread's allowed CPUs (`None` where unsupported).
pub fn affinity() -> Option<CpuMask> {
    imp::affinity()
}

/// Restricts the calling thread — and every thread or process it later
/// starts — to `mask`. False where unsupported or refused.
pub fn set_affinity(mask: &CpuMask) -> bool {
    imp::set_affinity(mask)
}

/// Moves the calling thread to `SCHED_BATCH` (no privilege needed). A batch
/// task never preempts the task that woke it, which removes the wake-up
/// preemption heuristics that make a one-CPU request/reply loop bimodal under
/// the default policy (see README, "Protocol"). False where unsupported.
pub fn set_batch_policy() -> bool {
    imp::set_batch_policy()
}

/// Blocks until the kernel has written back every dirty page. The build that
/// precedes a first run leaves hundreds of MB dirty, and the flusher threads
/// that write them back would otherwise share the pinned CPU with the reps.
pub fn flush_dirty_pages() {
    imp::flush_dirty_pages();
}

/// Voluntary context switches of this process so far (`RUSAGE_SELF`).
pub fn voluntary_switches() -> Option<u64> {
    imp::voluntary_switches()
}

/// Largest peak RSS among waited-for children, KiB (`RUSAGE_CHILDREN`).
pub fn children_peak_rss_kb() -> Option<u64> {
    imp::children_peak_rss_kb()
}

/// The highest-numbered CPU in `mask`.
pub fn highest_cpu(mask: &CpuMask) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// A mask holding only `cpu`.
pub fn single_cpu(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Protocol step 1: pins the calling thread to the highest-numbered CPU it
/// may use. Returns `(pinned cpu, mask before pinning)`, or `None` when the
/// platform cannot pin (the run then reports itself unpinned).
pub fn pin_to_highest_cpu() -> Option<(usize, CpuMask)> {
    let before = affinity()?;
    let cpu = highest_cpu(&before)?;
    set_affinity(&single_cpu(cpu)).then_some((cpu, before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_finds_the_top_set_bit() {
        assert_eq!(highest_cpu(&[0; 16]), None);
        assert_eq!(highest_cpu(&single_cpu(0)), Some(0));
        assert_eq!(highest_cpu(&single_cpu(77)), Some(77));
        let mut m = single_cpu(3);
        m[1] = 0b101;
        assert_eq!(highest_cpu(&m), Some(66));
    }
}
