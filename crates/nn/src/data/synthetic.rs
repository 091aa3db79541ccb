//! Procedurally generated image classification datasets.
//!
//! Stands in for CIFAR-10/CIFAR-100/ImageNet, which are not available in
//! this environment. Each class is defined by a
//! seeded mixture of oriented sinusoidal gratings plus a class-specific
//! blob; samples add per-sample phase jitter, amplitude jitter and
//! pixel noise, so the task is learnable but not trivial, and accuracy
//! responds smoothly to capacity/value-set restrictions — the property
//! the paper's tradeoff curves rely on.

use crate::data::Dataset;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image side length (square images).
    pub size: usize,
    /// Channel count.
    pub channels: usize,
    /// Number of samples to generate.
    pub samples: usize,
    /// Pixel noise amplitude (0 = clean).
    pub noise: f32,
    /// Base RNG seed; train/test splits should use different seeds.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A 10-class stand-in for CIFAR-10 at a configurable resolution.
    #[must_use]
    pub fn cifar10_like(size: usize, samples: usize, seed: u64) -> Self {
        SyntheticSpec {
            classes: 10,
            size,
            channels: 3,
            samples,
            noise: 0.08,
            seed,
        }
    }

    /// A 100-class stand-in for CIFAR-100.
    #[must_use]
    pub fn cifar100_like(size: usize, samples: usize, seed: u64) -> Self {
        SyntheticSpec {
            classes: 100,
            size,
            channels: 3,
            samples,
            noise: 0.08,
            seed,
        }
    }

    /// A many-class, single-channel stand-in used as the "ImageNet"
    /// workload for the EfficientNet-Lite experiments (reduced classes
    /// to keep CPU training tractable).
    #[must_use]
    pub fn imagenet_like(size: usize, samples: usize, seed: u64) -> Self {
        SyntheticSpec {
            classes: 20,
            size,
            channels: 3,
            samples,
            noise: 0.10,
            seed,
        }
    }

    /// Generates the dataset.
    ///
    /// Class texture parameters depend only on `(class, channel)` so the
    /// train and test splits (different seeds) share class identity.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        assert!(self.classes > 0 && self.size > 0 && self.channels > 0 && self.samples > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let s = self.size;
        let plane = s * s;
        let mut data = Vec::with_capacity(self.samples * self.channels * plane);
        let mut labels = Vec::with_capacity(self.samples);

        for _ in 0..self.samples {
            let class = rng.random_range(0..self.classes);
            labels.push(class);
            let phase: f32 = rng.random::<f32>() * std::f32::consts::TAU;
            let amp: f32 = 0.8 + 0.4 * rng.random::<f32>();
            let cx: f32 = 0.3 + 0.4 * rng.random::<f32>();
            let cy: f32 = 0.3 + 0.4 * rng.random::<f32>();
            for ch in 0..self.channels {
                // Class-deterministic texture parameters.
                let mut crng =
                    StdRng::seed_from_u64(0x5eed_0000 + (class as u64) * 131 + (ch as u64) * 7);
                let angle: f32 = crng.random::<f32>() * std::f32::consts::PI;
                let freq: f32 = 1.5 + 4.0 * crng.random::<f32>();
                let angle2: f32 = crng.random::<f32>() * std::f32::consts::PI;
                let freq2: f32 = 1.0 + 3.0 * crng.random::<f32>();
                let blob_w: f32 = 0.08 + 0.12 * crng.random::<f32>();
                let blob_gain: f32 = 0.5 + 0.5 * crng.random::<f32>();
                let (sa, ca) = angle.sin_cos();
                let (sa2, ca2) = angle2.sin_cos();
                for y in 0..s {
                    for x in 0..s {
                        let u = x as f32 / s as f32;
                        let v = y as f32 / s as f32;
                        let g1 = (freq * std::f32::consts::TAU * (u * ca + v * sa) + phase).sin();
                        let g2 = (freq2 * std::f32::consts::TAU * (u * ca2 + v * sa2)
                            + 0.5 * phase)
                            .sin();
                        let d2 = (u - cx) * (u - cx) + (v - cy) * (v - cy);
                        let blob = blob_gain * (-d2 / (blob_w * blob_w)).exp();
                        let noise = self.noise * (rng.random::<f32>() - 0.5);
                        let value = 0.5 + 0.25 * amp * (0.7 * g1 + 0.3 * g2) + 0.3 * blob + noise;
                        data.push(value.clamp(0.0, 1.0));
                    }
                }
            }
        }
        let images = Tensor::from_vec(&[self.samples, self.channels, s, s], data);
        Dataset::new(images, labels, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::cifar10_like(8, 16, 42);
        let a = spec.generate();
        let b = spec.generate();
        let (xa, ya) = a.head(16);
        let (xb, yb) = b.head(16);
        assert_eq!(xa.data(), xb.data());
        assert_eq!(ya, yb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSpec::cifar10_like(8, 8, 1).generate();
        let b = SyntheticSpec::cifar10_like(8, 8, 2).generate();
        assert_ne!(a.head(8).0.data(), b.head(8).0.data());
    }

    #[test]
    fn pixels_are_normalized() {
        let ds = SyntheticSpec::cifar10_like(8, 32, 3).generate();
        let (x, _) = ds.head(32);
        assert!(x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn all_classes_eventually_appear() {
        let ds = SyntheticSpec::cifar10_like(4, 400, 7).generate();
        let mut seen = [false; 10];
        let (_, labels) = ds.head(400);
        for l in labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all classes sampled");
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean image of two classes should differ noticeably more than
        // two mean images of the same class (split halves).
        let ds = SyntheticSpec::cifar10_like(8, 600, 11).generate();
        let (x, labels) = ds.head(600);
        let plane = 3 * 8 * 8;
        let mean_of = |class: usize, half: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; plane];
            let mut count = 0;
            for (i, &l) in labels.iter().enumerate() {
                if l == class && i % 2 == half {
                    for (a, v) in acc.iter_mut().zip(&x.data()[i * plane..(i + 1) * plane]) {
                        *a += v;
                    }
                    count += 1;
                }
            }
            for a in &mut acc {
                *a /= count.max(1) as f32;
            }
            acc
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        let c0a = mean_of(0, 0);
        let c0b = mean_of(0, 1);
        let c1 = mean_of(1, 0);
        assert!(
            dist(&c0a, &c1) > 2.0 * dist(&c0a, &c0b),
            "class means not separable: inter {} vs intra {}",
            dist(&c0a, &c1),
            dist(&c0a, &c0b)
        );
    }
}
