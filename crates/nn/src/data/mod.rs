//! Datasets and batch iteration.

pub mod synthetic;

pub use synthetic::SyntheticSpec;

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::sync::OnceLock;

/// A synthetic split generated on first read, at most once. The
/// generator seeds its own RNG from the spec, so when (or whether) the
/// split is read moves no other random stream.
#[derive(Debug)]
pub struct LazyDataset {
    spec: SyntheticSpec,
    data: OnceLock<Dataset>,
}

impl LazyDataset {
    /// A split that [`LazyDataset::get`] generates from `spec`.
    #[must_use]
    pub fn new(spec: SyntheticSpec) -> Self {
        LazyDataset {
            spec,
            data: OnceLock::new(),
        }
    }

    /// The spec the split is generated from.
    #[must_use]
    pub fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }

    /// The split, generated on the first call.
    #[must_use]
    pub fn get(&self) -> &Dataset {
        self.data.get_or_init(|| self.spec.generate())
    }
}

/// An in-memory labeled image dataset (NCHW).
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Wraps image data of shape `[N, C, H, W]` with labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from `N` or any label exceeds
    /// `classes`.
    #[must_use]
    pub fn new(images: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(images.shape().len(), 4, "expected NCHW images");
        assert_eq!(images.shape()[0], labels.len(), "one label per image");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        Dataset {
            images,
            labels,
            classes,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one sample: `[C, H, W]`.
    #[must_use]
    pub fn sample_shape(&self) -> &[usize] {
        &self.images.shape()[1..]
    }

    /// Copies the samples at `indices` into a `[B, C, H, W]` batch.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let sample: usize = self.sample_shape().iter().product();
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(self.sample_shape());
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images.data()[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        (Tensor::from_vec(&shape, data), labels)
    }

    /// The first `n` samples as one batch (for evaluation subsets).
    #[must_use]
    pub fn head(&self, n: usize) -> (Tensor, Vec<usize>) {
        let idx: Vec<usize> = (0..n.min(self.len())).collect();
        self.batch(&idx)
    }

    /// Yields shuffled mini-batch index lists for one epoch.
    #[must_use]
    pub fn epoch_batches(&self, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.chunks(batch_size.max(1))
            .map(<[usize]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        let images = Tensor::from_vec(&[3, 1, 2, 2], (0..12).map(|i| i as f32).collect());
        Dataset::new(images, vec![0, 1, 0], 2)
    }

    #[test]
    fn batch_gathers_requested_samples() {
        let ds = tiny();
        let (x, y) = ds.batch(&[2, 0]);
        assert_eq!(x.shape(), &[2, 1, 2, 2]);
        assert_eq!(y, vec![0, 0]);
        assert_eq!(&x.data()[..4], &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn epoch_batches_cover_everything_once() {
        let ds = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = ds.epoch_batches(2, &mut rng);
        let mut seen: Vec<usize> = batches.concat();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn lazy_split_generates_once_on_first_read() {
        let spec = SyntheticSpec::cifar10_like(4, 6, 9);
        let lazy = LazyDataset::new(spec.clone());
        assert!(lazy.data.get().is_none(), "generated before the first read");
        let first: *const Dataset = lazy.get();
        assert!(std::ptr::eq(first, lazy.get()), "generated twice");
        let eager = spec.generate();
        assert_eq!(lazy.get().head(6).0.data(), eager.head(6).0.data());
        assert_eq!(lazy.get().head(6).1, eager.head(6).1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_rejected() {
        let images = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = Dataset::new(images, vec![5], 2);
    }
}
