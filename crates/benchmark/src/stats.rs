//! Estimators over rep timings and the output digest.
//!
//! Interference on a shared box is one-sided — a neighbour can only slow a
//! rep — so the estimator of program cost is the minimum. The median, a tail
//! percentile and their distance from the best rep describe the *machine*
//! during the run and are reported beside it, never gated.

/// The minimum of `xs` (NaN-free input; `None` when empty).
pub fn best(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// The `p`-th percentile (0–100) of `xs` by linear interpolation between
/// order statistics, the definition `statistics.quantiles(.., method=
/// "inclusive")` uses.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The three quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method) — what the driver's spread check uses.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some([1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Percentiles a report may quote, in per mille so the rule below is exact.
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile on the ladder that still has at least ten of `n`
/// samples beyond it; `None` when even the median has fewer (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .filter(|p| n * (1000 - **p) >= 10 * 1000)
        .max()
        .map(|p| *p as f64 / 10.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over `bytes`, the digest every rep's output is reduced to.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a over a value's `Debug` rendering, streamed so a large report is
/// never materialised as one string.
pub fn fnv1a_debug(value: &impl std::fmt::Debug) -> u64 {
    struct Hasher(u64);
    impl std::fmt::Write for Hasher {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a_extend(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Hasher(FNV_OFFSET);
    std::fmt::write(&mut h, format_args!("{value:?}")).expect("hashing never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_minimum_and_percentiles_interpolate() {
        let xs = [0.5, 0.3, 0.9, 0.4, 0.7];
        assert_eq!(best(&xs), Some(0.3));
        assert_eq!(best(&[]), None);
        assert_eq!(median(&xs), Some(0.5));
        assert_eq!(percentile(&xs, 0.0), Some(0.3));
        assert_eq!(percentile(&xs, 100.0), Some(0.9));
        // rank 0.75 * 4 = 3.0 -> the fourth order statistic.
        assert_eq!(percentile(&xs, 75.0), Some(0.7));
        // rank 0.5 * 3 = 1.5 -> halfway between the second and third.
        assert_eq!(percentile(&[1.0, 2.0, 4.0, 8.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        // N = 48: p75 leaves 12 beyond, p90 would leave 4.8.
        assert_eq!(highest_supported_percentile(48), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fnv_digest_is_pinned_and_streams_identically() {
        // Reference vectors of 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let v = vec![(1u32, "x".to_string()), (2, "yz".to_string())];
        assert_eq!(fnv1a_debug(&v), fnv1a(format!("{v:?}").as_bytes()));
        assert_ne!(fnv1a_debug(&v), fnv1a_debug(&v[..1].to_vec()));
    }
}
