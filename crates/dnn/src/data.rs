//! Synthetic datasets and data-parallel sharding.
//!
//! The paper trains on ILSVRC-2012 ImageNet, which is not available here;
//! these synthetic tasks exercise the same optimizer dynamics (see
//! DESIGN.md §1). The sharding helpers implement the paper's data layout:
//! "the deep learning data is assigned to all workers without duplication"
//! (§III-C).

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use shmcaffe_tensor::Tensor;

use crate::DnnError;

/// A supervised classification dataset.
pub trait Dataset: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of one sample's features (without the batch axis).
    fn feature_dims(&self) -> Vec<usize>;

    /// Number of target classes.
    fn num_classes(&self) -> usize;

    /// Features and label of sample `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::IndexOutOfRange`] for a bad index.
    fn sample(&self, index: usize) -> Result<(Vec<f32>, usize), DnnError>;

    /// Assembles a minibatch tensor `(B, feature_dims...)` plus labels.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::IndexOutOfRange`] if any index is bad.
    fn minibatch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DnnError> {
        let fdims = self.feature_dims();
        let per: usize = fdims.iter().product();
        let mut data = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let (f, l) = self.sample(i)?;
            debug_assert_eq!(f.len(), per);
            data.extend_from_slice(&f);
            labels.push(l);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&fdims);
        Ok((Tensor::from_vec(data, &dims)?, labels))
    }
}

/// Gaussian class clusters in `dim`-dimensional space.
#[derive(Debug, Clone)]
pub struct SyntheticBlobs {
    features: Vec<Vec<f32>>,
    labels: Vec<usize>,
    dim: usize,
    classes: usize,
}

impl SyntheticBlobs {
    /// Creates `samples` points across `classes` clusters of spread `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `dim == 0`.
    pub fn new(classes: usize, dim: usize, samples: usize, noise: f32, seed: u64) -> Self {
        assert!(classes > 0 && dim > 0, "classes and dim must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Well-separated class centres on a scaled hypercube/simplex.
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|c| {
                (0..dim)
                    .map(|d| if (c >> (d % 8)) & 1 == 1 { 2.0 } else { -2.0 }
                        + (c as f32) * 0.7 * ((d * 31 + c * 17) as f32).sin())
                    .collect()
            })
            .collect();
        let mut features = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let c = i % classes;
            let point: Vec<f32> = centers[c]
                .iter()
                .map(|&m| {
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0f32..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                    m + noise * z
                })
                .collect();
            features.push(point);
            labels.push(c);
        }
        SyntheticBlobs { features, labels, dim, classes }
    }
}

impl Dataset for SyntheticBlobs {
    fn len(&self) -> usize {
        self.features.len()
    }
    fn feature_dims(&self) -> Vec<usize> {
        vec![self.dim]
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn sample(&self, index: usize) -> Result<(Vec<f32>, usize), DnnError> {
        if index >= self.len() {
            return Err(DnnError::IndexOutOfRange { index, len: self.len() });
        }
        Ok((self.features[index].clone(), self.labels[index]))
    }
}

/// Procedurally generated `C×H×W` "images" with class-dependent structure
/// (oriented gratings plus noise) — an ImageNet stand-in exercising the
/// convolutional path.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    images: Vec<Vec<f32>>,
    labels: Vec<usize>,
    channels: usize,
    hw: usize,
    classes: usize,
}

impl SyntheticImages {
    /// Creates `samples` images of `channels × hw × hw` across `classes`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        classes: usize,
        channels: usize,
        hw: usize,
        samples: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && channels > 0 && hw > 0, "dimensions must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut images = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let c = i % classes;
            // Class-specific orientation and frequency.
            let theta = (c as f32) * std::f32::consts::PI / classes as f32;
            let freq = 1.0 + (c % 3) as f32;
            let phase: f32 = rng.gen_range(0.0f32..std::f32::consts::PI);
            let mut img = Vec::with_capacity(channels * hw * hw);
            for ch in 0..channels {
                let chs = 1.0 + 0.3 * ch as f32;
                for y in 0..hw {
                    for x in 0..hw {
                        let u = x as f32 / hw as f32;
                        let v = y as f32 / hw as f32;
                        let s = (freq
                            * 2.0
                            * std::f32::consts::PI
                            * (u * theta.cos() + v * theta.sin())
                            * chs
                            + phase)
                            .sin();
                        let n: f32 = rng.gen_range(-noise..noise.max(1e-6));
                        img.push(s + n);
                    }
                }
            }
            images.push(img);
            labels.push(c);
        }
        SyntheticImages { images, labels, channels, hw, classes }
    }
}

impl Dataset for SyntheticImages {
    fn len(&self) -> usize {
        self.images.len()
    }
    fn feature_dims(&self) -> Vec<usize> {
        vec![self.channels, self.hw, self.hw]
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn sample(&self, index: usize) -> Result<(Vec<f32>, usize), DnnError> {
        if index >= self.len() {
            return Err(DnnError::IndexOutOfRange { index, len: self.len() });
        }
        Ok((self.images[index].clone(), self.labels[index]))
    }
}

/// The contiguous index range assigned to one worker: samples are divided
/// across workers without duplication (paper §III-C).
///
/// Remainder samples go to the lowest-ranked workers, so shard sizes differ
/// by at most one and the union is exactly `0..total`.
///
/// # Panics
///
/// Panics if `n_workers == 0` or `worker >= n_workers`.
pub fn shard_range(total: usize, worker: usize, n_workers: usize) -> std::ops::Range<usize> {
    assert!(n_workers > 0, "n_workers must be positive");
    assert!(worker < n_workers, "worker out of range");
    let base = total / n_workers;
    let rem = total % n_workers;
    let start = worker * base + worker.min(rem);
    let len = base + usize::from(worker < rem);
    start..start + len
}

/// Deterministic per-epoch minibatch index sampler over one worker's shard.
#[derive(Debug, Clone)]
pub struct EpochSampler {
    shard: Vec<usize>,
    batch: usize,
    cursor: usize,
    epoch: usize,
    seed: u64,
}

impl EpochSampler {
    /// Creates a sampler over `shard_range(total, worker, n_workers)` with
    /// the given minibatch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or the shard is empty.
    pub fn new(total: usize, worker: usize, n_workers: usize, batch: usize, seed: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        let range = shard_range(total, worker, n_workers);
        let shard: Vec<usize> = range.collect();
        assert!(!shard.is_empty(), "worker shard is empty");
        let mut s = EpochSampler { shard, batch, cursor: 0, epoch: 0, seed };
        s.shuffle();
        s
    }

    fn shuffle(&mut self) {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (self.epoch as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        // Fisher-Yates.
        for i in (1..self.shard.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.shard.swap(i, j);
        }
    }

    /// The next minibatch of indices, wrapping (and reshuffling) at epoch
    /// boundaries.
    pub fn next_batch(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.batch);
        while out.len() < self.batch {
            if self.cursor >= self.shard.len() {
                self.cursor = 0;
                self.epoch += 1;
                self.shuffle();
            }
            out.push(self.shard[self.cursor]);
            self.cursor += 1;
        }
        out
    }

    /// Completed epochs over this shard.
    pub fn epoch(&self) -> usize {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_classifiable_shapes() {
        let d = SyntheticBlobs::new(3, 4, 30, 0.1, 1);
        assert_eq!(d.len(), 30);
        assert_eq!(d.feature_dims(), vec![4]);
        assert_eq!(d.num_classes(), 3);
        let (f, l) = d.sample(5).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(l, 5 % 3);
        assert!(d.sample(30).is_err());
    }

    #[test]
    fn blobs_same_seed_identical() {
        let a = SyntheticBlobs::new(2, 3, 10, 0.2, 9);
        let b = SyntheticBlobs::new(2, 3, 10, 0.2, 9);
        for i in 0..10 {
            assert_eq!(a.sample(i).unwrap(), b.sample(i).unwrap());
        }
    }

    #[test]
    fn minibatch_assembles_tensor() {
        let d = SyntheticBlobs::new(2, 3, 10, 0.1, 1);
        let (x, y) = d.minibatch(&[0, 1, 2, 3]).unwrap();
        assert_eq!(x.dims(), &[4, 3]);
        assert_eq!(y, vec![0, 1, 0, 1]);
    }

    #[test]
    fn images_have_correct_shapes() {
        let im = SyntheticImages::new(4, 3, 8, 12, 0.1, 3);
        assert_eq!(im.feature_dims(), vec![3, 8, 8]);
        let (x, y) = im.minibatch(&[0, 5]).unwrap();
        assert_eq!(x.dims(), &[2, 3, 8, 8]);
        assert_eq!(y, vec![0, 1]);
    }

    #[test]
    fn shards_partition_exactly() {
        for total in [0usize, 1, 7, 16, 100] {
            for n in [1usize, 2, 3, 5, 16] {
                let mut covered = Vec::new();
                for w in 0..n {
                    covered.extend(shard_range(total, w, n));
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "total={total} n={n}");
                // Sizes differ by at most 1.
                let sizes: Vec<usize> = (0..n).map(|w| shard_range(total, w, n).len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn sampler_covers_shard_each_epoch() {
        let mut s = EpochSampler::new(20, 0, 2, 3, 7);
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.extend(s.next_batch());
        }
        // First 10 draws (one epoch of 10 + 2 from the next) cover the shard.
        let mut unique: Vec<usize> = seen.iter().take(10).cloned().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique, (0..10).collect::<Vec<_>>());
        assert!(seen.iter().all(|&i| i < 10), "worker 0 must stay in its shard");
    }

    #[test]
    fn sampler_is_deterministic_and_reshuffles() {
        let batches = |seed: u64| -> Vec<Vec<usize>> {
            let mut s = EpochSampler::new(8, 0, 1, 4, seed);
            (0..4).map(|_| s.next_batch()).collect()
        };
        assert_eq!(batches(3), batches(3));
        let b = batches(3);
        // Epoch 0 and epoch 1 orders should differ (reshuffle).
        let e0: Vec<usize> = b[0].iter().chain(&b[1]).cloned().collect();
        let e1: Vec<usize> = b[2].iter().chain(&b[3]).cloned().collect();
        assert_ne!(e0, e1);
        let mut s0 = e0.clone();
        let mut s1 = e1.clone();
        s0.sort_unstable();
        s1.sort_unstable();
        assert_eq!(s0, s1);
    }

    #[test]
    #[should_panic(expected = "worker out of range")]
    fn shard_rejects_bad_worker() {
        shard_range(10, 3, 3);
    }
}
