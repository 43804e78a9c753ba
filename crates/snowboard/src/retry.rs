//! Retry policy for transient campaign-job failures.
//!
//! Retries must not silently change what the campaign tests: attempt 0 of
//! every job uses exactly the seed the pre-fault-tolerance campaign used,
//! so a clean run remains bit-identical to older builds. Only attempts ≥ 1
//! derive a fresh seed — deterministically from `(seed, attempt)`, so a
//! retried campaign replays the same way every time.

use std::time::Duration;

use sb_vmm::rng::mix64;

/// How a campaign retries jobs that fail with a retryable error
/// (see [`crate::error::Error::is_retryable`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (so `1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to sleep before `attempt` (attempt 1 is the first retry).
    /// Doubles per attempt, clamped at `max_backoff`; attempt 0 never
    /// sleeps.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(20);
        let grown = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        grown.min(self.max_backoff)
    }

    /// [`RetryPolicy::backoff`], counting each actual retry (attempt ≥ 1)
    /// as `campaign.retries` on `tracer`.
    pub fn backoff_traced(&self, attempt: u32, tracer: &sb_obs::Tracer) -> Duration {
        if attempt > 0 {
            tracer.count(sb_obs::keys::RETRIES, 1);
        }
        self.backoff(attempt)
    }
}

/// Wait before attempt `n` (1-based) of a deterministic retry loop — a
/// fleet worker's reconnect: `base` doubling per attempt,
/// clamped at `max`, plus up to a quarter of that in jitter drawn from
/// `mix` (the caller's seed blend). No wall-clock entropy: identical inputs
/// always wait the same.
pub fn jittered_backoff(base: Duration, max: Duration, mix: u64, n: u64) -> Duration {
    let shift = n.saturating_sub(1).min(20) as u32;
    let capped = base
        .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
        .min(max);
    let quarter_ms = capped.as_millis() as u64 / 4;
    let jitter_ms = if quarter_ms == 0 {
        0
    } else {
        reseed(mix, n as u32) % (quarter_ms + 1)
    };
    capped + Duration::from_millis(jitter_ms)
}

/// Derives the trial seed for a retry attempt.
///
/// Attempt 0 returns `seed` unchanged — the invariant that keeps clean
/// campaigns bit-identical to pre-retry builds. Later attempts mix the
/// attempt index in with [`mix64`], the generator's own finalizer, so
/// retries explore fresh schedules without correlating across neighboring
/// jobs.
pub fn reseed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return seed;
    }
    mix64(seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_keeps_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(reseed(seed, 0), seed);
        }
    }

    #[test]
    fn retries_get_distinct_deterministic_seeds() {
        let s0 = reseed(1234, 0);
        let s1 = reseed(1234, 1);
        let s2 = reseed(1234, 2);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_ne!(s0, s2);
        assert_eq!(s1, reseed(1234, 1), "reseed must be a pure function");
        // Pinned: retry seeds reach checkpoints.
        assert_eq!((s1, s2), (0xbb0c_f61b_2f18_1cdb, 0x97c7_a136_4df0_6524));
    }

    #[test]
    fn neighboring_jobs_do_not_collide_on_retry() {
        // Job seeds are seed + i * GOLDEN; a naive seed+attempt reseed would
        // make job i attempt 1 collide with job i+1 attempt 0.
        let golden = 0x9E37_79B9_7F4A_7C15u64;
        let job0 = 77u64;
        let job1 = job0.wrapping_add(golden);
        assert_ne!(reseed(job0, 1), reseed(job1, 0));
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35));
        assert_eq!(p.backoff(30), Duration::from_millis(35));
    }

    #[test]
    fn none_policy_is_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn traced_backoff_counts_only_actual_retries() {
        let (tracer, sink) = sb_obs::Tracer::memory();
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_traced(0, &tracer), Duration::ZERO);
        assert_eq!(p.backoff_traced(1, &tracer), p.backoff(1));
        let _ = p.backoff_traced(2, &tracer);
        assert_eq!(sink.lines().len(), 2, "attempt 0 is not a retry");
    }
}
