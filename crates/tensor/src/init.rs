//! Seeded weight initialisation.
//!
//! Matches the fillers Caffe uses for the evaluated networks: constant,
//! Xavier (Glorot, a uniform draw) and MSRA (He, a Gaussian draw). All
//! fillers draw from a caller-supplied [`rand::Rng`] so distributed workers
//! can reproduce the master's initial weights from a broadcast seed, exactly
//! as ShmCaffe's rank-0 master broadcasts the initial parameters.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic RNG suitable for reproducible weight initialisation.
///
/// # Example
///
/// ```rust
/// use shmcaffe_tensor::init::{seeded_rng, gaussian};
/// let mut a = vec![0.0; 4];
/// let mut b = vec![0.0; 4];
/// gaussian(&mut seeded_rng(7), 0.0, 0.01, &mut a);
/// gaussian(&mut seeded_rng(7), 0.0, 0.01, &mut b);
/// assert_eq!(a, b);
/// ```
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Fills `out` with samples from `N(mean, std^2)` via Box–Muller.
pub fn gaussian<R: Rng>(rng: &mut R, mean: f32, std: f32, out: &mut [f32]) {
    let mut i = 0;
    while i < out.len() {
        // Box-Muller transform produces pairs of independent normals.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        out[i] = mean + std * r * theta.cos();
        i += 1;
        if i < out.len() {
            out[i] = mean + std * r * theta.sin();
            i += 1;
        }
    }
}

/// Fills `out` with samples from `U[low, high)`.
///
/// # Panics
///
/// Panics if `low >= high`.
pub fn uniform<R: Rng>(rng: &mut R, low: f32, high: f32, out: &mut [f32]) {
    assert!(low < high, "uniform requires low < high");
    for v in out.iter_mut() {
        *v = rng.gen_range(low..high);
    }
}

/// Xavier/Glorot filler: `U[-b, b]` with `b = sqrt(3 / fan_in)`.
///
/// This is Caffe's `xavier` filler default (fan-in variant).
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn xavier<R: Rng>(rng: &mut R, fan_in: usize, out: &mut [f32]) {
    assert!(fan_in > 0, "xavier requires fan_in > 0");
    let bound = (3.0 / fan_in as f32).sqrt();
    uniform(rng, -bound, bound, out);
}

/// MSRA/He filler: `N(0, sqrt(2 / fan_in))`, suited for ReLU networks.
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn msra<R: Rng>(rng: &mut R, fan_in: usize, out: &mut [f32]) {
    assert!(fan_in > 0, "msra requires fan_in > 0");
    let std = (2.0 / fan_in as f32).sqrt();
    gaussian(rng, 0.0, std, out);
}

/// The weight filler variants supported by the DNN substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Filler {
    /// Every weight set to the given constant.
    Constant(f32),
    /// Xavier/Glorot fan-in filler.
    Xavier,
    /// MSRA/He fan-in filler.
    Msra,
}

impl Filler {
    /// Applies the filler to `out`, using `fan_in` where relevant.
    pub fn fill<R: Rng>(&self, rng: &mut R, fan_in: usize, out: &mut [f32]) {
        match *self {
            Filler::Constant(c) => out.iter_mut().for_each(|v| *v = c),
            Filler::Xavier => xavier(rng, fan_in.max(1), out),
            Filler::Msra => msra(rng, fan_in.max(1), out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = seeded_rng(42);
        let mut buf = vec![0.0f32; 20_000];
        gaussian(&mut rng, 1.0, 2.0, &mut buf);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / buf.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = seeded_rng(1);
        let mut buf = vec![0.0f32; 1000];
        uniform(&mut rng, -0.5, 0.5, &mut buf);
        assert!(buf.iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn xavier_bound_scales_with_fan_in() {
        let mut rng = seeded_rng(2);
        let mut buf = vec![0.0f32; 1000];
        xavier(&mut rng, 300, &mut buf);
        let bound = (3.0f32 / 300.0).sqrt();
        assert!(buf.iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn msra_std_scales_with_fan_in() {
        let mut rng = seeded_rng(3);
        let mut buf = vec![0.0f32; 20_000];
        msra(&mut rng, 50, &mut buf);
        let std = (2.0f32 / 50.0).sqrt();
        let var = buf.iter().map(|v| v * v).sum::<f32>() / buf.len() as f32;
        assert!((var.sqrt() - std).abs() < 0.01);
    }

    #[test]
    fn same_seed_same_weights() {
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        Filler::Xavier.fill(&mut seeded_rng(9), 8, &mut a);
        Filler::Xavier.fill(&mut seeded_rng(9), 8, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_filler() {
        let mut buf = vec![0.0f32; 5];
        Filler::Constant(0.2).fill(&mut seeded_rng(0), 1, &mut buf);
        assert!(buf.iter().all(|&v| v == 0.2));
    }

    #[test]
    fn gaussian_handles_odd_lengths() {
        let mut buf = vec![0.0f32; 7];
        gaussian(&mut seeded_rng(5), 0.0, 1.0, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
    }
}
