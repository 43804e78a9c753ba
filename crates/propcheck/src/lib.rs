//! The workspace's property harness, imported by the suites under the name
//! `proptest` (`proptest = { package = "sb-propcheck", .. }`): the part of
//! that crate's surface the suites use, over [`sb_vmm::rng`].
//!
//! A [`Strategy`] generates a value from a seeded [`SplitMix64`]; the
//! [`proptest!`] macro turns `fn name(x in strategy, y: Type) { .. }` into a
//! `#[test]` that runs the body on [`Config::cases`] generated inputs. The
//! seed of a case is a function of the test's name and the case index and of
//! nothing else — no environment variable, no flag, no regression file — so
//! a failing case fails again on every rerun, and the failure names the case
//! and prints its inputs (regenerated from the seed, so a passing case costs
//! no formatting). There is no shrinking: inputs are printed as generated.

use std::fmt::{self, Debug};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use sb_vmm::rng::{mix64, SplitMix64};
use sb_vmm::site::Site;

/// A recipe for generating values of one type from a seeded stream.
pub trait Strategy {
    /// What the strategy generates; `Debug` so a failing case can print it.
    type Value: Debug;

    /// One value, a pure function of the stream.
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value;

    /// The strategy that generates `f(value)`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut SplitMix64) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// The strategy that always generates a clone of its value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SplitMix64) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SplitMix64) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
int_range_strategies!(u8, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // The product can round up to `end`; the range is half-open.
        let x = self.start + (self.end - self.start) * rng.next_f64();
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F) (A, B, C, D, E, F, G)
}

/// A type with a canonical "any value" strategy, [`any`].
pub trait Arbitrary: Debug + Sized {
    /// One value of the type.
    fn arbitrary(rng: &mut SplitMix64) -> Self;
}

/// The strategy behind [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

/// Any value of `T`. Integers are uniform in *bit length*, then in value:
/// without a shrinker, one-byte varints and near-zero addresses have to come
/// up by themselves, and under a uniform `u64` they never would.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SplitMix64) -> $t {
                let shift = rng.gen_range(0..u64::from(<$t>::BITS));
                (rng.next_u64() >> (64 - <$t>::BITS) >> shift) as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u32, u64, usize);

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(rng: &mut SplitMix64) -> (A, B) {
        (A::arbitrary(rng), B::arbitrary(rng))
    }
}

/// `bool::ANY`. (A module of this name hides the primitive type from the
/// crate root, which is why the `Arbitrary` impl lives in here.)
pub mod bool {
    impl crate::Arbitrary for bool {
        fn arbitrary(rng: &mut crate::SplitMix64) -> bool {
            rng.gen_bool(0.5)
        }
    }

    /// Either boolean, evenly; the same strategy as `any::<bool>()`.
    pub const ANY: crate::Any<bool> = crate::Any(std::marker::PhantomData);
}

/// Strategies for collections.
pub mod collection {
    use super::*;

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` of `len` elements (uniform in the half-open range), each
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
            let len = rng.gen_range(self.len.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies that pick from something sized only inside the test body.
pub mod sample {
    use super::*;

    /// A position in a collection whose length the strategy cannot know:
    /// `any::<Index>()`, then [`Index::index`] with the length.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// This index scaled into `0..len`.
        ///
        /// # Panics
        /// When `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            ((u128::from(self.0) * len as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut SplitMix64) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// What [`prop_oneof!`] builds: one of several strategies of one value type,
/// chosen by weight (an arm of weight zero never runs).
pub struct Union<T>(pub Vec<(u32, Rc<dyn Strategy<Value = T>>)>);

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union(self.0.clone())
    }
}

impl<T: Debug> Union<T> {
    /// `strategy` as an arm: the arms of one union differ in type.
    pub fn arm<S: Strategy<Value = T> + 'static>(strategy: S) -> Rc<dyn Strategy<Value = T>> {
        Rc::new(strategy)
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        let total: u32 = self.0.iter().map(|(w, _)| w).sum();
        let mut pick = rng.gen_range(0..u64::from(total)) as u32;
        for (weight, arm) in &self.0 {
            if pick < *weight {
                return arm.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("pick is below the summed weights")
    }
}

/// One of the listed strategies per value: `prop_oneof![a, b]`, or weighted,
/// `prop_oneof![4 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$(($weight, $crate::Union::arm($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Running properties: [`Config`], [`TestRunner`] and the two error types.
pub mod test_runner {
    use super::*;

    /// How many cases a property runs.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Generated inputs per property.
        pub cases: u32,
    }

    impl Config {
        /// The default configuration with `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why one case failed; what `prop_assert!` returns early with.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TestCaseError(pub String);

    /// Why a property failed: the case, its inputs and the case's reason.
    /// `Debug` prints the message as it is, so `.unwrap()` reads well.
    #[derive(Clone, PartialEq, Eq)]
    pub struct TestError(pub String);

    impl Debug for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Runs a property over its cases.
    pub struct TestRunner {
        name: &'static str,
        config: Config,
    }

    /// One case in flight. Its inputs are a function of `seed`, so describing
    /// a failure regenerates them; dropped by a panic in the test body, it
    /// prints what the body was given.
    struct Case<'a, S: Strategy> {
        runner: &'a TestRunner,
        strategy: &'a S,
        index: u32,
        seed: u64,
    }

    impl<S: Strategy> Case<'_, S> {
        fn describe(&self, why: &str) -> String {
            let inputs = self.strategy.generate(&mut SplitMix64::new(self.seed));
            let TestRunner { name, config } = self.runner;
            format!(
                "property `{name}` failed at case {} of {}: {why}\ninputs: {inputs:#?}",
                self.index, config.cases
            )
        }
    }

    impl<S: Strategy> Drop for Case<'_, S> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("{}", self.describe("the test body panicked"));
            }
        }
    }

    impl TestRunner {
        /// A runner named for the file that creates it.
        #[track_caller]
        pub fn new(config: Config) -> Self {
            Self::named(std::panic::Location::caller().file(), config)
        }

        /// A runner whose case seeds derive from `name` ([`proptest!`] passes
        /// the test's path and parameter list).
        pub fn named(name: &'static str, config: Config) -> Self {
            TestRunner { name, config }
        }

        /// Runs `test` on every case; the first `Err` (or panic) ends the run.
        pub fn run<S: Strategy>(
            &mut self,
            strategy: &S,
            test: impl Fn(S::Value) -> Result<(), TestCaseError>,
        ) -> Result<(), TestError> {
            let name = Site::hash_of(self.name);
            for index in 0..self.config.cases {
                // A function of the name and the index, and of nothing else.
                let seed = mix64(name ^ mix64(u64::from(index)));
                let case = Case {
                    runner: self,
                    strategy,
                    index,
                    seed,
                };
                let inputs = strategy.generate(&mut SplitMix64::new(seed));
                if let Err(TestCaseError(why)) = test(inputs) {
                    return Err(TestError(case.describe(&why)));
                }
            }
            Ok(())
        }
    }
}

/// A directory under the system temp dir that a test owns, removed with
/// everything in it when dropped, on a panic's unwind too. Its name is
/// `sb-<tag>-<pid>-<n>`, `n` a process-wide counter, so two tests that pick
/// the same tag, or one test run twice, never share it.
#[derive(Debug)]
pub struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty scratch directory.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sb-{tag}-{}-{n}", std::process::id()));
        // A directory a killed run of an earlier process left under this name.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl AsRef<std::path::Path> for ScratchDir {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

impl AsRef<std::ffi::OsStr> for ScratchDir {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `proptest::strategy::Strategy`, for a suite whose own `Strategy` hides
/// the prelude's.
pub mod strategy {
    pub use crate::Strategy;
}

/// `use proptest::prelude::*;`
pub mod prelude {
    pub use crate as prop;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the case (returns `Err` from the enclosing property) unless `cond`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_compare {
    ($op:tt, $left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left $op *right,
                "assertion failed: `{} {} {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($left), stringify!($op), stringify!($right), left, right, format_args!($($fmt)+)
            ),
        }
    };
}

/// Fails the case unless the two are equal, printing both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { $crate::__prop_compare!(==, $left, $right, "") };
    ($left:expr, $right:expr, $($fmt:tt)+) => { $crate::__prop_compare!(==, $left, $right, $($fmt)+) };
}

/// Fails the case if the two are equal, printing both.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => { $crate::__prop_compare!(!=, $left, $right, "") };
    ($left:expr, $right:expr, $($fmt:tt)+) => { $crate::__prop_compare!(!=, $left, $right, $($fmt)+) };
}

/// `proptest! { #![proptest_config(cfg)] #[test] fn name(x in strategy, y: Type) { body } .. }`:
/// each function becomes a test that runs `body` on generated inputs; the
/// body may leave early through the `prop_assert*!` macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_case! { ($config, $name, $body) () () $($params)* }
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Munches `x in strategy` and `x: Type` parameters into a tuple pattern and
/// a tuple strategy, then runs the body over them.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ($ctx:tt ($($x:ident)*) ($($s:expr,)*) $arg:ident in $strategy:expr, $($rest:tt)*) => {
        $crate::__proptest_case! { $ctx ($($x)* $arg) ($($s,)* $strategy,) $($rest)* }
    };
    ($ctx:tt ($($x:ident)*) ($($s:expr,)*) $arg:ident in $strategy:expr) => {
        $crate::__proptest_case! { $ctx ($($x)* $arg) ($($s,)* $strategy,) }
    };
    ($ctx:tt ($($x:ident)*) ($($s:expr,)*) $arg:ident : $ty:ty, $($rest:tt)*) => {
        $crate::__proptest_case! { $ctx ($($x)* $arg) ($($s,)* $crate::any::<$ty>(),) $($rest)* }
    };
    ($ctx:tt ($($x:ident)*) ($($s:expr,)*) $arg:ident : $ty:ty) => {
        $crate::__proptest_case! { $ctx ($($x)* $arg) ($($s,)* $crate::any::<$ty>(),) }
    };
    (($config:expr, $name:ident, $body:block) ($($x:ident)*) ($($s:expr,)*)) => {
        let name = concat!(module_path!(), "::", stringify!($name), "(", stringify!($($x),*), ")");
        let outcome = $crate::test_runner::TestRunner::named(name, $config).run(&($($s,)*), |($($x,)*)| {
            $body;
            Ok(())
        });
        if let Err(failure) = outcome {
            panic!("{failure:?}");
        }
    };
}
