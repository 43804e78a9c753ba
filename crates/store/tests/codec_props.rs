//! Property tests: the varint/delta codec round-trips arbitrary access
//! streams and PMC sets exactly, and decoders never panic on garbage.

use proptest::prelude::*;

use sb_store::codec::{
    decode_pmc_corpus, decode_pmc_set, decode_profile, encode_pmc_record, encode_pmc_set,
    encode_profile,
};
use sb_store::varint::{get_delta, get_u64, put_delta, put_u64};
use sb_vmm::access::{Access, AccessKind};
use sb_vmm::site::Site;
use snowboard::pmc::{Pmc, PmcKey, PmcSet, SideKey};
use snowboard::profile::SeqProfile;

fn arb_access() -> impl Strategy<Value = Access> {
    (
        (
            any::<u64>(),
            0usize..4,
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
        ),
        (
            1u8..=8,
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec(any::<u64>(), 0..4),
            any::<u8>(),
        ),
    )
        .prop_map(
            |((seq, thread, site, write, addr), (len, value, atomic, locks, rcu_depth))| Access {
                seq,
                thread,
                site: Site(site),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr,
                len,
                value,
                atomic,
                locks: locks.into(),
                rcu_depth,
            },
        )
}

fn arb_profile() -> impl Strategy<Value = SeqProfile> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(arb_access(), 0..48),
    )
        .prop_map(|(test, steps, accesses)| SeqProfile {
            test,
            accesses,
            steps,
        })
}

fn arb_side() -> impl Strategy<Value = SideKey> {
    (any::<u64>(), any::<u64>(), any::<u8>(), any::<u64>()).prop_map(|(ins, addr, len, value)| {
        SideKey {
            ins: Site(ins),
            addr,
            len,
            value,
        }
    })
}

fn arb_pmc_set() -> impl Strategy<Value = PmcSet> {
    prop::collection::vec(
        (
            arb_side(),
            arb_side(),
            any::<bool>(),
            prop::collection::vec(any::<(u32, u32)>(), 0..36),
        ),
        0..24,
    )
    .prop_map(|entries| PmcSet {
        pmcs: entries
            .into_iter()
            .map(|(w, r, df_leader, pairs)| Pmc {
                key: PmcKey { w, r },
                df_leader,
                pairs,
            })
            .collect(),
    })
}

proptest! {
    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = vec![];
        put_u64(v, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn delta_round_trips_any_pair(prev in any::<u64>(), cur in any::<u64>()) {
        let mut buf = vec![];
        put_delta(prev, cur, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(get_delta(prev, &buf, &mut pos).unwrap(), cur);
    }

    #[test]
    fn profile_round_trips_arbitrary_access_streams(p in arb_profile()) {
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        prop_assert_eq!(decode_profile(&buf).unwrap(), p);
    }

    #[test]
    fn truncated_profiles_error_instead_of_panicking(
        p in arb_profile(),
        frac in 0.0f64..1.0,
    ) {
        let mut buf = vec![];
        encode_profile(&p, &mut buf);
        let cut = ((buf.len() as f64) * frac) as usize;
        if cut < buf.len() {
            prop_assert!(decode_profile(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn garbage_never_panics_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_profile(&bytes);
        let _ = decode_pmc_set(&bytes);
        let _ = decode_pmc_corpus(&bytes);
    }

    #[test]
    fn pmc_sets_round_trip(set in arb_pmc_set()) {
        let mut buf = vec![];
        encode_pmc_set(&set, &mut buf);
        prop_assert_eq!(decode_pmc_set(&buf).unwrap(), set);
    }

    #[test]
    fn pmc_records_round_trip(
        corpus in prop::collection::vec(any::<u64>(), 0..64),
        set in arb_pmc_set(),
    ) {
        let mut buf = vec![];
        encode_pmc_record(&corpus, &set, &mut buf);
        let (keys, rest) = decode_pmc_corpus(&buf).unwrap();
        prop_assert_eq!(keys, corpus);
        prop_assert_eq!(decode_pmc_set(rest).unwrap(), set);
    }
}
