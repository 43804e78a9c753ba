//! Property-based tests of the engine's core invariants.

use proptest::prelude::*;

use sb_vmm::access::{range_overlap, Access, AccessKind};
use sb_vmm::exec::{job, Executor, Job};
use sb_vmm::mem::{GuestMem, GUEST_MEM_SIZE, HEAP_BASE, NULL_GUARD_END, STACKS_BASE};
use sb_vmm::sched::RandomSched;
use sb_vmm::site;

proptest! {
    /// Any in-bounds write is read back exactly, at every width.
    #[test]
    fn mem_write_read_round_trip(
        off in 0u64..1024,
        len in 1u8..=8,
        value: u64,
    ) {
        let mut m = GuestMem::new();
        let base = HEAP_BASE + off;
        let masked = if len == 8 { value } else { value & ((1u64 << (u64::from(len) * 8)) - 1) };
        m.write(base, len, value).unwrap();
        prop_assert_eq!(m.read(base, len).unwrap(), masked);
    }

    /// Reads never see bytes outside the written range.
    #[test]
    fn mem_writes_do_not_bleed(
        off in 8u64..512,
        len in 1u8..=8,
        value: u64,
    ) {
        let mut m = GuestMem::new();
        let base = HEAP_BASE + off;
        m.write(base, len, value).unwrap();
        prop_assert_eq!(m.read(base - 8, 8).unwrap() >> (8 * (8 - (base - (base - 8)))), 0);
        let after = base + u64::from(len);
        prop_assert_eq!(m.read(after, 8).unwrap(), 0);
    }

    /// The guard region and out-of-bounds space always fault; the heap
    /// never does.
    #[test]
    fn mem_fault_boundaries(addr: u64, len in 1u8..=8) {
        let m = GuestMem::new();
        let r = m.read(addr, len);
        let in_bounds = addr >= NULL_GUARD_END
            && addr.checked_add(u64::from(len)).is_some_and(|e| e <= GUEST_MEM_SIZE);
        prop_assert_eq!(r.is_ok(), in_bounds);
    }

    /// Allocation addresses are deterministic functions of the request
    /// sequence, stay in the heap, and never overlap while live.
    #[test]
    fn allocator_no_overlap_and_deterministic(sizes in proptest::collection::vec(1u64..512, 1..40)) {
        let run = |sizes: &[u64]| {
            let mut m = GuestMem::new();
            sizes.iter().map(|s| m.kmalloc(*s).unwrap()).collect::<Vec<u64>>()
        };
        let a = run(&sizes);
        let b = run(&sizes);
        prop_assert_eq!(&a, &b);
        // No two live allocations overlap.
        let mut spans: Vec<(u64, u64)> = a.iter().zip(&sizes).map(|(addr, s)| (*addr, addr + s)).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
        for (addr, end) in spans {
            prop_assert!(addr >= HEAP_BASE && end <= STACKS_BASE);
        }
    }

    /// `range_overlap` is symmetric and consistent with `Access::overlaps`.
    #[test]
    fn overlap_symmetry(a_addr in 0u64..256, a_len in 1u8..=8, b_addr in 0u64..256, b_len in 1u8..=8) {
        let ab = range_overlap(a_addr, a_len, b_addr, b_len);
        let ba = range_overlap(b_addr, b_len, a_addr, a_len);
        prop_assert_eq!(ab, ba);
        let acc = |addr, len| Access {
            seq: 0, thread: 0, site: site!("prop:o"), kind: AccessKind::Read,
            addr, len, value: 0, atomic: false, locks: vec![].into(), rcu_depth: 0,
        };
        prop_assert_eq!(ab.is_some(), acc(a_addr, a_len).overlaps(&acc(b_addr, b_len)));
        if let Some((start, len)) = ab {
            prop_assert!(start >= a_addr.max(b_addr));
            prop_assert!(start + u64::from(len) <= (a_addr + u64::from(a_len)).min(b_addr + u64::from(b_len)));
        }
    }

    /// project_value over the full range is the identity (masked to width).
    #[test]
    fn project_value_identity(addr in 0u64..1024, len in 1u8..=8, value: u64) {
        let masked = if len == 8 { value } else { value & ((1u64 << (u64::from(len) * 8)) - 1) };
        let a = Access {
            seq: 0, thread: 0, site: site!("prop:pv"), kind: AccessKind::Write,
            addr, len, value: masked, atomic: false, locks: vec![].into(), rcu_depth: 0,
        };
        prop_assert_eq!(a.project_value(addr, len), masked);
        // Single-byte projections reassemble the value.
        let mut rebuilt = 0u64;
        for i in 0..u64::from(len) {
            rebuilt |= a.project_value(addr + i, 1) << (8 * i);
        }
        prop_assert_eq!(rebuilt, masked);
    }

    /// Concurrent executions are deterministic in (seed, probability) and
    /// always terminate with a valid outcome.
    #[test]
    fn executions_deterministic_for_any_seed(seed: u64, p in 0.0f64..0.9) {
        let run = || {
            let mut m = GuestMem::new();
            let cell = m.kmalloc(8).unwrap();
            let mut exec = Executor::new(2);
            let bump = move |name: &'static str| -> Job {
                job(move |ctx| async move {
                    for i in 0..20 {
                        let v = ctx.read_u64(site!(name), cell).await?;
                        ctx.write_u64(site!(name), cell, v + i).await?;
                    }
                    Ok(())
                })
            };
            let mut sched = RandomSched::new(seed, p);
            let r = exec.run(m, vec![bump("prop:a"), bump("prop:b")], &mut sched);
            (
                format!("{:?}", r.report.outcome),
                r.report.trace.iter().map(|a| (a.thread, a.value)).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

/// Sequential trace invariants: seq numbers dense, single-thread traces
/// never interleave, lock sets consistent.
#[test]
fn trace_invariants_hold_for_a_busy_program() {
    let mut m = GuestMem::new();
    let lock = m.kmalloc(8).unwrap();
    let cells: Vec<u64> = (0..8).map(|_| m.kmalloc(8).unwrap()).collect();
    let mut exec = Executor::new(2);
    let toucher = move |cells: Vec<u64>, name: &'static str| -> Job {
        job(move |ctx| async move {
            for (i, c) in cells.iter().enumerate() {
                ctx.with_lock(lock, async {
                    let v = ctx.read_u64(site!(name), *c).await?;
                    ctx.write_u64(site!(name), *c, v + i as u64).await?;
                    Ok(())
                })
                .await?;
            }
            Ok(())
        })
    };
    let mut sched = RandomSched::new(3, 0.4);
    let r = exec.run(
        m,
        vec![toucher(cells.clone(), "ti:a"), toucher(cells, "ti:b")],
        &mut sched,
    );
    assert!(r.report.outcome.is_completed());
    for (i, a) in r.report.trace.iter().enumerate() {
        assert_eq!(a.seq, i as u64, "dense sequence numbers");
        assert!(a.locks.contains(&lock), "all accesses under the lock");
    }
}
