//! Compute-time jitter models.
//!
//! The paper (§III-E) observes that workers deviate in per-iteration compute
//! time because they share the system bus, filesystem I/O and network
//! bandwidth — the reason SSGD pays a straggler penalty that asynchronous
//! SEASGD avoids. [`JitterModel`] reproduces this with a lognormal
//! multiplicative factor plus an occasional heavy-tail "interference" stall.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::SimDuration;

/// Parameters of the per-iteration compute-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Standard deviation of the lognormal factor's underlying normal.
    /// `0.0` disables jitter entirely.
    pub sigma: f64,
    /// Probability of an interference stall on any given iteration.
    pub stall_probability: f64,
    /// Stall duration as a fraction of the base compute time.
    pub stall_factor: f64,
}

impl JitterModel {
    /// No jitter: every iteration takes exactly the base time.
    pub const NONE: JitterModel =
        JitterModel { sigma: 0.0, stall_probability: 0.0, stall_factor: 0.0 };

    /// The default used for the paper's GPU servers: ~5 % lognormal spread
    /// with a 2 % chance of a 50 % stall (shared bus / NFS interference).
    pub fn hpc_default() -> Self {
        JitterModel { sigma: 0.05, stall_probability: 0.02, stall_factor: 0.5 }
    }

    /// Creates a pure lognormal model with the given sigma.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn lognormal(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be non-negative");
        JitterModel { sigma, stall_probability: 0.0, stall_factor: 0.0 }
    }
}

/// A seeded sampler producing jittered compute durations.
///
/// # Example
///
/// ```rust
/// use shmcaffe_simnet::jitter::{JitterModel, JitterSampler};
/// use shmcaffe_simnet::SimDuration;
///
/// let base = SimDuration::from_millis(257); // Inception_v1 per-iteration time
/// let mut a = JitterSampler::new(JitterModel::hpc_default(), 42);
/// let mut b = JitterSampler::new(JitterModel::hpc_default(), 42);
/// assert_eq!(a.sample(base), b.sample(base)); // deterministic per seed
/// ```
#[derive(Debug, Clone)]
pub struct JitterSampler {
    model: JitterModel,
    rng: ChaCha8Rng,
}

impl JitterSampler {
    /// Creates a sampler with a deterministic seed.
    pub fn new(model: JitterModel, seed: u64) -> Self {
        JitterSampler { model, rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Samples one jittered duration around `base`.
    pub fn sample(&mut self, base: SimDuration) -> SimDuration {
        // Always consume the same number of random draws regardless of the
        // model, so samplers with different models stay comparable per seed.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let stall_draw: f64 = self.rng.gen_range(0.0..1.0);

        if self.model.sigma == 0.0 && self.model.stall_probability == 0.0 {
            return base;
        }
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let factor = (self.model.sigma * z).exp();
        let mut dur = base.mul_f64(factor);
        if stall_draw < self.model.stall_probability {
            dur += base.mul_f64(self.model.stall_factor);
        }
        dur
    }

    /// The model this sampler draws from.
    pub fn model(&self) -> JitterModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_exact() {
        let mut s = JitterSampler::new(JitterModel::NONE, 1);
        let base = SimDuration::from_millis(100);
        for _ in 0..10 {
            assert_eq!(s.sample(base), base);
        }
    }

    #[test]
    fn lognormal_mean_is_close_to_base() {
        let mut s = JitterSampler::new(JitterModel::lognormal(0.05), 7);
        let base = SimDuration::from_millis(100);
        let n = 5000;
        let total: f64 = (0..n).map(|_| s.sample(base).as_millis_f64()).sum();
        let mean = total / n as f64;
        // Lognormal mean = exp(sigma^2/2) ~ 1.00125 for sigma=0.05.
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn stalls_increase_mean() {
        let base = SimDuration::from_millis(100);
        let sample_mean = |model: JitterModel| {
            let mut s = JitterSampler::new(model, 3);
            let total: f64 = (0..5000).map(|_| s.sample(base).as_millis_f64()).sum();
            total / 5000.0
        };
        let no_stall = sample_mean(JitterModel::lognormal(0.05));
        let with_stall = sample_mean(JitterModel {
            stall_probability: 0.1,
            stall_factor: 1.0,
            ..JitterModel::lognormal(0.05)
        });
        // 10% chance of +100% => ~+10% mean.
        assert!(with_stall > no_stall + 8.0, "{with_stall} vs {no_stall}");
    }

    #[test]
    fn deterministic_per_seed() {
        let base = SimDuration::from_millis(257);
        let seq = |seed: u64| -> Vec<u64> {
            let mut s = JitterSampler::new(JitterModel::hpc_default(), seed);
            (0..20).map(|_| s.sample(base).as_nanos()).collect()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn max_of_n_exceeds_mean_of_n() {
        // The straggler effect: expected max of N draws grows with N.
        let base = SimDuration::from_millis(100);
        let mut s = JitterSampler::new(JitterModel::lognormal(0.1), 5);
        let mut max_sum = 0.0;
        let mut mean_sum = 0.0;
        for _ in 0..200 {
            let draws: Vec<f64> = (0..16).map(|_| s.sample(base).as_millis_f64()).collect();
            max_sum += draws.iter().cloned().fold(0.0, f64::max);
            mean_sum += draws.iter().sum::<f64>() / draws.len() as f64;
        }
        assert!(max_sum / 200.0 > mean_sum / 200.0 * 1.05);
    }
}
