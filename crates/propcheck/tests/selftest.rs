//! The harness, tested with itself: what a suite relies on without saying so.

use std::cell::RefCell;

use sb_propcheck::prelude::*;
use sb_propcheck::test_runner::{TestCaseError, TestRunner};

/// Every value `strategy` generates over `cases` cases of a runner named `name`.
fn cases_of<S: Strategy>(name: &'static str, cases: u32, strategy: &S) -> Vec<S::Value> {
    let seen = RefCell::new(Vec::new());
    TestRunner::named(name, ProptestConfig::with_cases(cases))
        .run(strategy, |value| {
            seen.borrow_mut().push(value);
            Ok(())
        })
        .expect("nothing asserted");
    seen.into_inner()
}

#[test]
fn a_test_name_fixes_its_cases() {
    let strategy = (
        any::<u64>(),
        prop::collection::vec(0u8..=9, 0..5),
        0.0f64..1.0,
    );
    let first = cases_of("selftest::stable", 64, &strategy);
    assert_eq!(first.len(), 64);
    assert_eq!(
        format!("{first:?}"),
        format!("{:?}", cases_of("selftest::stable", 64, &strategy))
    );
    // A run with more cases starts with the same ones; another name has others.
    assert_eq!(
        format!("{first:?}"),
        format!("{:?}", &cases_of("selftest::stable", 80, &strategy)[..64])
    );
    assert_ne!(
        format!("{first:?}"),
        format!("{:?}", cases_of("selftest::other", 64, &strategy))
    );
}

#[test]
fn a_false_property_reports_its_case_and_its_inputs() {
    let run = || {
        TestRunner::named("selftest::false_property", ProptestConfig::with_cases(256)).run(
            &(0u64..1000, prop::bool::ANY),
            |(n, _flag)| {
                prop_assert!(n < 900, "{n} is not below 900");
                Ok(())
            },
        )
    };
    let failure = format!("{:?}", run().expect_err("a tenth of the range fails"));
    let inputs = cases_of(
        "selftest::false_property",
        256,
        &(0u64..1000, prop::bool::ANY),
    );
    let (index, (n, flag)) = inputs
        .iter()
        .enumerate()
        .find(|(_, (n, _))| *n >= 900)
        .expect("the runner found one");
    assert!(failure.contains("`selftest::false_property`"), "{failure}");
    assert!(
        failure.contains(&format!(
            "failed at case {index} of 256: {n} is not below 900"
        )),
        "{failure}"
    );
    assert!(
        failure.contains(&format!("inputs: (\n    {n},\n    {flag},\n)")),
        "{failure}"
    );
    assert_eq!(
        failure,
        format!("{:?}", run().unwrap_err()),
        "and again on a rerun"
    );
}

#[test]
fn prop_assert_eq_and_ne_print_both_sides() {
    let check = |x: u8| -> Result<(), TestCaseError> {
        prop_assert_eq!(x % 2, 1, "x came from {}", "here");
        prop_assert_ne!(x, 7);
        Ok(())
    };
    assert_eq!(check(3), Ok(()));
    let TestCaseError(why) = check(4).unwrap_err();
    assert!(
        why.contains("`x % 2 == 1`") && why.contains("left: 0") && why.contains("x came from here"),
        "{why}"
    );
    let TestCaseError(why) = check(7).unwrap_err();
    assert!(
        why.contains("`x != 7`") && why.contains("right: 7"),
        "{why}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both ends of a length range are reached and nothing outside it is.
    #[test]
    fn vec_lengths_stay_inside_their_range(
        short in prop::collection::vec(any::<bool>(), 0..3),
        one in prop::collection::vec(0usize..7, 1..2),
        typed: u8,
    ) {
        prop_assert!(short.len() < 3, "{short:?}");
        prop_assert_eq!(one.len(), 1);
        prop_assert!(one[0] < 7);
        let _: u8 = typed;
    }

    #[test]
    fn an_index_is_below_the_length(at in any::<prop::sample::Index>(), len in 1usize..50) {
        prop_assert!(at.index(len) < len);
        prop_assert_eq!(at.index(1), 0);
    }

    #[test]
    fn ranges_hold_their_bounds(a in 250u8..=255, b in 5u64..6, x in -0.5f64..0.25, wide: (u32, u32)) {
        prop_assert!(a >= 250);
        prop_assert_eq!(b, 5);
        prop_assert!((-0.5..0.25).contains(&x));
        let _: (u32, u32) = wide;
    }
}

#[test]
fn every_length_of_a_range_comes_up() {
    let lens: Vec<usize> = cases_of(
        "selftest::lengths",
        256,
        &prop::collection::vec(Just(()), 0..3),
    )
    .iter()
    .map(Vec::len)
    .collect();
    for len in 0..3 {
        assert!(lens.contains(&len), "no vector of {len} in 256 cases");
    }
}

#[test]
fn oneof_reaches_every_arm_and_honours_weights() {
    let plain = cases_of(
        "selftest::oneof",
        256,
        &prop_oneof![Just(0u8), 10u8..=19, Just(2u8)],
    );
    for arm in [
        |v: &u8| *v == 0,
        |v: &u8| (10..20).contains(v),
        |v: &u8| *v == 2,
    ] {
        assert!(plain.iter().any(arm), "an arm never ran in 256 cases");
    }
    let weighted = cases_of(
        "selftest::weighted",
        256,
        &prop_oneof![15 => Just(true), 1 => Just(false)],
    );
    let rare = weighted.iter().filter(|v| !**v).count();
    assert!(
        (1..64).contains(&rare),
        "the 1-in-16 arm ran {rare} times of 256"
    );
}

#[test]
fn any_integer_covers_small_and_large() {
    let values = cases_of("selftest::any", 256, &any::<u64>());
    assert!(
        values.iter().any(|v| *v < 0x80),
        "no one-byte value in 256 cases"
    );
    assert!(
        values.iter().any(|v| *v > u64::from(u32::MAX)),
        "no value past 32 bits in 256 cases"
    );
}

#[test]
fn a_scratch_dir_is_fresh_and_gone_after_drop_or_a_panic() {
    let (a, b) = (
        sb_propcheck::ScratchDir::new("selftest"),
        sb_propcheck::ScratchDir::new("selftest"),
    );
    assert_ne!(*a, *b, "one tag, two directories");
    std::fs::create_dir_all(a.join("nested")).expect("mkdir");
    std::fs::write(a.join("nested/file"), b"x").expect("write");
    let (pa, pb) = (a.to_path_buf(), b.to_path_buf());
    drop(a);
    assert!(!pa.exists() && pb.is_dir());
    let unwound = std::panic::catch_unwind(move || {
        let _held = b;
        panic!("a failing test");
    });
    assert!(unwound.is_err());
    assert!(!pb.exists(), "the unwind removed it");
}
