//! Training loop utilities.

use crate::data::Dataset;
use crate::loss::{accuracy, cross_entropy};
use crate::model::Network;
use crate::optim::Sgd;
use rand::rngs::StdRng;
use std::sync::LazyLock;

/// Process-wide count of training epochs executed by [`train`]
/// (`nn_training_epochs_total` on `/metrics`).
///
/// This is the warm-start cache's observable for "a warmed run performs
/// zero training": tests, the `charstore warm` CLI and the
/// characterization bench snapshot [`epochs_run`] around a pipeline run
/// and assert the delta is zero when the baseline artifact is served
/// from the store. [`epochs_run`] reads this same registry cell, so the
/// contract and `/metrics` cannot disagree.
static EPOCHS_METRIC: LazyLock<obs::metrics::Counter> =
    LazyLock::new(|| obs::metrics::counter("nn_training_epochs_total"));

static EPOCH_SECONDS: LazyLock<obs::metrics::Histogram> = LazyLock::new(|| {
    obs::metrics::histogram("nn_training_epoch_seconds", obs::metrics::LATENCY_SECONDS)
});

/// Total training epochs executed by this process so far (monotonic;
/// snapshot-and-subtract to measure a window).
#[must_use]
pub fn epochs_run() -> u64 {
    EPOCHS_METRIC.get()
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiply the learning rate by this factor after each epoch.
    pub lr_decay: f32,
    /// Clip the global gradient norm to this value before each step
    /// (`None` disables clipping). Stabilizes the batch-norm-free
    /// networks (LeNet-5) against exploding gradients.
    pub clip_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            lr_decay: 0.9,
            clip_norm: Some(5.0),
        }
    }
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clip norm.
pub fn clip_gradients(net: &mut Network, max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    net.visit_params(&mut |p| {
        sq += p
            .grad
            .data()
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>();
    });
    let norm = (sq.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        net.visit_params(&mut |p| p.grad.scale(scale));
    }
    norm
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub train_accuracy: f64,
}

/// Trains `net` on `data` and returns per-epoch statistics.
///
/// The network's `quantize` flag controls whether training is
/// quantization-aware (forward uses fake-quantized weights/activations,
/// backward uses the straight-through estimator — the gradients flow as
/// if the quantization were identity).
pub fn train(
    net: &mut Network,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut StdRng,
) -> Vec<EpochStats> {
    train_with_hook(net, data, config, rng, |_| {})
}

/// [`train`] with a callback invoked after every optimizer step.
///
/// The hook is the extension point for training variants that must
/// re-impose an invariant the optimizer would otherwise erode — e.g.
/// pruned-baseline retraining re-zeroing masked weights after each
/// update. Routing such loops through here (rather than hand-rolling
/// them) keeps epoch accounting — [`epochs_run`],
/// `nn_training_epochs_total`, `nn_training_epoch_seconds` — in one
/// place so the zero-work contracts can't silently miss a flavour of
/// training.
pub fn train_with_hook(
    net: &mut Network,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut StdRng,
    mut post_step: impl FnMut(&mut Network),
) -> Vec<EpochStats> {
    let mut opt = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        EPOCHS_METRIC.inc();
        let epoch_started = std::time::Instant::now();
        let mut _epoch_span = obs::span("nn_train_epoch");
        _epoch_span.field("epoch", epoch);
        let mut total_loss = 0.0f32;
        let mut total_correct = 0.0f64;
        let mut total_seen = 0usize;
        for batch in data.epoch_batches(config.batch_size, rng) {
            let (x, labels) = data.batch(&batch);
            net.zero_grads();
            let logits = net.forward_train(&x);
            let (loss, grad) = cross_entropy(&logits, &labels);
            total_loss += loss * labels.len() as f32;
            total_correct += accuracy(&logits, &labels) * labels.len() as f64;
            total_seen += labels.len();
            net.backward_params(&grad);
            if let Some(max_norm) = config.clip_norm {
                let _ = clip_gradients(net, max_norm);
            }
            opt.step(net);
            post_step(net);
        }
        opt.lr *= config.lr_decay;
        EPOCH_SECONDS.observe_duration(epoch_started.elapsed());
        history.push(EpochStats {
            epoch,
            loss: total_loss / total_seen as f32,
            train_accuracy: total_correct / total_seen as f64,
        });
    }
    history
}

/// Evaluates top-1 accuracy on a dataset, in batches.
pub fn evaluate(net: &mut Network, data: &Dataset, batch_size: usize) -> f64 {
    let mut correct = 0.0f64;
    let mut seen = 0usize;
    let indices: Vec<usize> = (0..data.len()).collect();
    for chunk in indices.chunks(batch_size.max(1)) {
        let (x, labels) = data.batch(chunk);
        let logits = net.predict(&x);
        correct += accuracy(&logits, &labels) * labels.len() as f64;
        seen += labels.len();
    }
    if seen == 0 {
        0.0
    } else {
        correct / seen as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::models;
    use rand::SeedableRng;

    #[test]
    fn training_improves_over_random_chance() {
        let train_ds = SyntheticSpec {
            classes: 4,
            size: 8,
            channels: 1,
            samples: 240,
            noise: 0.05,
            seed: 100,
        }
        .generate();
        let test_ds = SyntheticSpec {
            classes: 4,
            size: 8,
            channels: 1,
            samples: 80,
            noise: 0.05,
            seed: 200,
        }
        .generate();

        let mut rng = StdRng::seed_from_u64(0);
        let mut net = models::tiny_cnn("tiny", 1, 8, 4, &mut rng);
        let config = TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 0.08,
            ..TrainConfig::default()
        };
        let history = train(&mut net, &train_ds, &config, &mut rng);
        let acc = evaluate(&mut net, &test_ds, 32);
        assert!(
            acc > 0.5,
            "test accuracy {acc} should beat 0.25 chance decisively; history: {history:?}"
        );
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
    }

    #[test]
    fn quantized_training_also_learns() {
        let train_ds = SyntheticSpec {
            classes: 3,
            size: 8,
            channels: 1,
            samples: 180,
            noise: 0.05,
            seed: 300,
        }
        .generate();
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = models::tiny_cnn("tiny-q", 1, 8, 3, &mut rng);
        net.quantize = true;
        let config = TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 0.08,
            ..TrainConfig::default()
        };
        let _ = train(&mut net, &train_ds, &config, &mut rng);
        let acc = evaluate(&mut net, &train_ds, 32);
        assert!(acc > 0.55, "quantized train accuracy {acc} too low");
    }
}
