//! Bounded exponential backoff with deterministic, seeded jitter.
//!
//! SMB operations ride a fabric that can inject link faults (see
//! `shmcaffe_simnet::fault`). The retry layer re-issues a failed operation
//! after an exponentially growing virtual-time backoff, capped per attempt
//! and bounded in total by a deadline. Jitter is a pure function of
//! `(seed, attempt)`, so two runs with the same seed produce bit-identical
//! retry schedules — a requirement for deterministic chaos experiments.

use shmcaffe_simnet::SimDuration;

/// Backoff before the first retry.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_micros(200);

/// Multiplier applied to the backoff per additional failure.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// Cap on any single backoff.
pub const MAX_BACKOFF: SimDuration = SimDuration::from_millis(20);

/// Jitter fraction: each backoff is scaled by a deterministic draw from
/// `[1 - BACKOFF_JITTER, 1]`.
pub const BACKOFF_JITTER: f64 = 0.2;

/// Bounded exponential backoff policy for SMB client operations.
///
/// The first attempt happens immediately; after the `k`-th failure the
/// client sleeps [`RetryPolicy::backoff`]`(k)` in virtual time and tries
/// again, up to `max_attempts` total attempts or until the sleep would end
/// more than `deadline` after the first attempt started, whichever comes
/// first ([`RetryPolicy::next_backoff`]). The backoff
/// curve itself is fixed: [`BACKOFF_BASE`] growing by [`BACKOFF_FACTOR`],
/// capped at [`MAX_BACKOFF`], shortened by up to [`BACKOFF_JITTER`].
///
/// # Example
///
/// ```rust
/// use shmcaffe_smb::RetryPolicy;
/// use shmcaffe_simnet::SimDuration;
///
/// let policy = RetryPolicy::with_seed(42);
/// let schedule = policy.schedule();
/// let total: SimDuration = schedule.iter().copied().sum();
/// assert!(total <= policy.deadline);
/// // Same seed, same schedule — bit identical.
/// assert_eq!(schedule, RetryPolicy::with_seed(42).schedule());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum total attempts, including the first (so `max_attempts - 1`
    /// retries at most).
    pub max_attempts: u32,
    /// Cap on the time waited since the first attempt started, attempts
    /// and backoffs alike; a retry whose sleep would end past this is not
    /// taken.
    pub deadline: SimDuration,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 6, deadline: SimDuration::from_millis(100), seed: 0 }
    }
}

impl RetryPolicy {
    /// The default policy with a specific jitter seed.
    pub fn with_seed(seed: u64) -> Self {
        RetryPolicy { seed, ..Default::default() }
    }

    /// Backoff to sleep after the `attempt`-th failure (1-based).
    ///
    /// Pure in `(self, attempt)`: the nominal curve's backoff, scaled by a
    /// deterministic jitter draw in `[1 - BACKOFF_JITTER, 1]`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        nominal(attempt).mul_f64(1.0 - BACKOFF_JITTER * unit_draw(self.seed, attempt))
    }

    /// The stop rule: the backoff to sleep after the `attempts`-th
    /// failure, `waited` after the first attempt started, or `None` when
    /// the attempts are spent or the sleep would end past `deadline`.
    pub fn next_backoff(&self, attempts: u32, waited: SimDuration) -> Option<SimDuration> {
        let b = self.backoff(attempts);
        (attempts < self.max_attempts && waited + b <= self.deadline).then_some(b)
    }

    /// The full backoff schedule this policy would follow if attempts took
    /// no time: one entry per retry, truncated so the cumulative sum never
    /// exceeds `deadline`.
    pub fn schedule(&self) -> Vec<SimDuration> {
        let mut out = Vec::new();
        let mut waited = SimDuration::ZERO;
        while let Some(b) = self.next_backoff(out.len() as u32 + 1, waited) {
            waited += b;
            out.push(b);
        }
        out
    }
}

/// The un-jittered backoff after the `attempt`-th failure: exponential
/// growth from [`BACKOFF_BASE`] by [`BACKOFF_FACTOR`], capped at
/// [`MAX_BACKOFF`].
fn nominal(attempt: u32) -> SimDuration {
    BACKOFF_BASE.mul_f64(BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32)).min(MAX_BACKOFF)
}

/// One uniform draw in `[0, 1)` as a pure function of `(seed, attempt)`
/// (splitmix64 finalizer — deterministic across platforms and runs).
fn unit_draw(seed: u64, attempt: u32) -> f64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt) + 1);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        assert_eq!(nominal(1), SimDuration::from_micros(200));
        assert_eq!(nominal(2), SimDuration::from_micros(400));
        assert_eq!(nominal(3), SimDuration::from_micros(800));
        // factor 2^9 * 200us = 102.4ms, capped at 20ms.
        assert_eq!(nominal(10), MAX_BACKOFF);
    }

    #[test]
    fn jitter_shrinks_but_never_inflates() {
        let p = RetryPolicy::with_seed(7);
        for attempt in 1..6 {
            let jittered = p.backoff(attempt);
            assert!(jittered <= nominal(attempt), "jitter must only shorten backoffs");
            assert!(jittered >= nominal(attempt).mul_f64(1.0 - BACKOFF_JITTER));
        }
    }

    #[test]
    fn schedule_respects_deadline() {
        let p = RetryPolicy {
            max_attempts: 50,
            deadline: SimDuration::from_millis(5),
            ..RetryPolicy::with_seed(3)
        };
        let total: SimDuration = p.schedule().iter().copied().sum();
        assert!(total <= p.deadline);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = RetryPolicy::with_seed(99).schedule();
        let b = RetryPolicy::with_seed(99).schedule();
        assert_eq!(a, b);
        let c = RetryPolicy::with_seed(100).schedule();
        assert_ne!(a, c, "different seeds should jitter differently");
    }
}
