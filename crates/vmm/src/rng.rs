//! The workspace's one random stream: splitmix64.
//!
//! Re-execution is a pure function of (snapshot, test pair, schedule seed),
//! so the stream behind a seed is part of the determinism contract: every
//! scheduler, the fuzzer, selection and the property harness draw from
//! [`SplitMix64`], and `tests` below pin its output draw for draw. It is not
//! ChaCha and makes no claim beyond "well mixed and reproducible"; nothing
//! here is keyed from outside the program.

use std::ops::{Range, RangeInclusive};

/// splitmix64's finalizer: a bijection on `u64` that turns a counter into
/// well-mixed bits. [`SplitMix64`] applies it to a state that advances by
/// the golden-ratio increment; callers that derive one seed from another
/// (a retry attempt, a property case) apply it directly.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 generator. Equal seeds give equal streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform in `0..n` by widening multiply (bias below `n / 2^64`).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `range` (`a..b` or `a..=b`), one draw.
    ///
    /// # Panics
    /// On an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform in `[0, 1)`, one draw (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`, one draw.
    ///
    /// # Panics
    /// When `p` is outside `0.0..=1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.next_f64() < p
    }

    /// A uniformly chosen element, one draw; `None` (and no draw) when
    /// `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_range(0..items.len())])
        }
    }

    /// Fisher–Yates from the top: one `gen_range(0..=i)` per swap.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.gen_range(0..=i));
        }
    }
}

/// An integer range [`SplitMix64::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut SplitMix64) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SplitMix64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                let off = if span == u64::MAX { rng.next_u64() } else { rng.below(span + 1) };
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
// The widths a call site draws: syscall arguments (`u8`), literals matched
// on (`i32`), steps and priorities (`u64`), indices (`usize`).
int_ranges!(u8, i32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream, pinned: these vectors were taken from the generator every
    /// number since PR 13 was measured with, before it moved here. A test
    /// that fails here means every pinned seed and report in the tree moved.
    #[test]
    fn the_stream_is_pinned_draw_for_draw() {
        let first8 = |seed| {
            let mut r = SplitMix64::new(seed);
            [(); 8].map(|()| r.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0xe220a8397b1dcdaf,
                0x6e789e6aa1b965f4,
                0x06c45d188009454f,
                0xf88bb8a8724c81ec,
                0x1b39896a51a8749b,
                0x53cb9f0c747ea2ea,
                0x2c829abe1f4532e1,
                0xc584133ac916ab3c,
            ]
        );
        assert_eq!(
            first8(2021),
            [
                0x42b0ec0160ca2407,
                0xfd8dc81796e3864b,
                0x8464660dee828cfc,
                0x68240b122982a98d,
                0x17f16a3628d2d3eb,
                0x7d4082ba6a41abf3,
                0xe2d1dc764c2cb48c,
                0x416d00e1a751b9f5,
            ]
        );
    }

    #[test]
    fn gen_range_is_pinned_over_every_range_shape() {
        let mut r = SplitMix64::new(2021);
        assert_eq!(
            [(); 16].map(|()| r.gen_range(0..10)),
            [2, 9, 5, 4, 0, 4, 8, 2, 4, 1, 7, 0, 7, 2, 5, 5]
        );
        assert_eq!(
            [(); 4].map(|()| r.gen_range(0..=u64::MAX)),
            [
                10424383448630358568,
                6375754580369476922,
                5084717553595952207,
                362841621900338675
            ]
        );
        // One-element ranges still draw.
        assert_eq!([(); 4].map(|()| r.gen_range(7..8usize)), [7; 4]);
        assert_eq!([(); 4].map(|()| r.gen_range(7..=7u8)), [7; 4]);
        assert_eq!(
            [(); 8].map(|()| r.gen_range(-5..5)),
            [3, -1, 1, 2, -5, 0, 4, 3]
        );
        assert_eq!(
            [(); 8].map(|()| r.gen_range(-100..=-90)),
            [-90, -100, -91, -100, -98, -93, -97, -95]
        );
        assert_eq!(r.next_u64(), 0x0fffefd632e4b53f, "44 draws so far");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        SplitMix64::new(0).gen_range(3..3usize);
    }

    #[test]
    fn gen_bool_is_pinned() {
        let mut r = SplitMix64::new(2021);
        let bits: String = (0..64)
            .map(|_| if r.gen_bool(0.25) { '1' } else { '0' })
            .collect();
        assert_eq!(
            bits,
            "0000100001010100000100010001000010000101000011100100110000100100"
        );
    }

    #[test]
    fn shuffle_and_choose_are_pinned() {
        let mut r = SplitMix64::new(2021);
        let mut v: Vec<u32> = (0..16).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [13, 11, 10, 9, 6, 15, 0, 3, 2, 8, 12, 1, 5, 7, 14, 4]);

        let mut r = SplitMix64::new(2021);
        assert_eq!(r.choose::<u32>(&[]), None);
        assert_eq!(r.choose(&[9]), Some(&9));
        let many = [10, 20, 30, 40, 50];
        assert_eq!(
            [(); 8].map(|()| *r.choose(&many).unwrap()),
            [50, 30, 30, 10, 30, 50, 20, 30]
        );
        assert_eq!(
            r.next_u64(),
            0x1fb56f9f17716559,
            "none for the empty slice, one for each other"
        );
    }

    #[test]
    fn mix64_is_the_generators_output_function() {
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), SplitMix64::new(0).next_u64());
        assert_eq!(mix64(0), 0);
    }
}
