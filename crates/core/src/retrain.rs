//! Retraining with restricted weight/activation values (paper §III-C).
//!
//! Two retraining flavours appear in the paper's flow:
//!
//! * **Conventional pruning** — weights with small magnitudes are forced
//!   to zero (and held there with a mask across optimizer steps), then
//!   the network is retrained. This is the "Pruned" baseline of Fig. 7
//!   and the first step of the proposed flow.
//! * **Restricted retraining** — the network is retrained while its
//!   weights/activations are projected onto the selected value sets in
//!   the forward pass; the backward pass uses the straight-through
//!   estimator (the projection is skipped when propagating gradients),
//!   exactly as described with reference \[15\].

use nn::data::Dataset;
use nn::model::Network;
use nn::quant::ValueSet;
use nn::train::{evaluate, train, train_with_hook, TrainConfig};
use rand::rngs::StdRng;

/// Retraining configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainConfig {
    /// Underlying SGD configuration.
    pub train: TrainConfig,
    /// Batch size for evaluation passes.
    pub eval_batch: usize,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            train: TrainConfig {
                epochs: 3,
                lr: 0.02,
                ..TrainConfig::default()
            },
            eval_batch: 64,
        }
    }
}

/// Switches `net` to quantization-aware mode and installs the given
/// restriction sets; `None` leaves the corresponding restriction
/// unchanged.
pub(crate) fn install_restrictions(
    net: &mut Network,
    weights: Option<&[i32]>,
    activations: Option<&[i32]>,
) {
    net.quantize = true;
    if let Some(w) = weights {
        net.set_weight_restriction(Some(ValueSet::new(w.iter().copied())));
    }
    if let Some(a) = activations {
        net.set_activation_restriction(Some(ValueSet::new(a.iter().copied())));
    }
}

/// Installs the given restriction sets, retrains quantization-aware, and
/// returns the resulting test accuracy.
///
/// `weights`/`activations` of `None` leave the corresponding restriction
/// unchanged.
pub fn restricted_retrain(
    net: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    weights: Option<&[i32]>,
    activations: Option<&[i32]>,
    cfg: &RetrainConfig,
    rng: &mut StdRng,
) -> f64 {
    install_restrictions(net, weights, activations);
    let _ = train(net, train_data, &cfg.train, rng);
    evaluate(net, test_data, cfg.eval_batch)
}

/// Forces the smallest-magnitude fraction of each weight tensor to zero
/// and returns per-parameter masks (`true` = pruned) in visit order.
///
/// Each weight tensor prunes exactly `⌊len · sparsity⌋` elements on
/// tie-free magnitudes (ties at the cut threshold are all pruned, so the
/// count can only exceed the floor by the tie multiplicity). `sparsity =
/// 0.0` is a guaranteed no-op: no weight is touched and every mask is
/// all-false.
pub fn magnitude_prune(net: &mut Network, sparsity: f64) -> Vec<Vec<bool>> {
    let sparsity = sparsity.clamp(0.0, 1.0);
    let mut masks = Vec::new();
    net.visit_params(&mut |p| {
        if !p.decay {
            masks.push(Vec::new()); // placeholder for non-weight params
            return;
        }
        let len = p.value.data().len();
        let cut_count = (len as f64 * sparsity) as usize;
        if cut_count == 0 {
            masks.push(vec![false; len]);
            return;
        }
        let mut mags: Vec<f32> = p.value.data().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));
        let threshold = mags[cut_count - 1];
        let mask: Vec<bool> = p
            .value
            .data()
            .iter()
            .map(|v| v.abs() <= threshold)
            .collect();
        for (v, &m) in p.value.data_mut().iter_mut().zip(&mask) {
            if m {
                *v = 0.0;
            }
        }
        masks.push(mask);
    });
    masks
}

/// Re-applies pruning masks (zeroes masked weights) after optimizer
/// updates.
fn apply_masks(net: &mut Network, masks: &[Vec<bool>]) {
    let mut idx = 0usize;
    net.visit_params(&mut |p| {
        if idx < masks.len() && !masks[idx].is_empty() {
            for (v, &m) in p.value.data_mut().iter_mut().zip(&masks[idx]) {
                if m {
                    *v = 0.0;
                }
            }
        }
        idx += 1;
    });
}

/// Conventional pruning baseline: magnitude-prunes to `sparsity`, then
/// retrains while holding pruned weights at zero. Returns the test
/// accuracy.
///
/// The retraining loop is [`train_with_hook`] with a post-step hook
/// re-applying the pruning masks, so its epochs are counted by
/// [`nn::train::epochs_run`] and `nn_training_epochs_total` exactly
/// like every other training flavour.
pub fn prune_retrain(
    net: &mut Network,
    train_data: &Dataset,
    test_data: &Dataset,
    sparsity: f64,
    cfg: &RetrainConfig,
    rng: &mut StdRng,
) -> f64 {
    net.quantize = true;
    let masks = magnitude_prune(net, sparsity);
    let _ = train_with_hook(net, train_data, &cfg.train, rng, |net| {
        apply_masks(net, &masks);
    });
    evaluate(net, test_data, cfg.eval_batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::data::SyntheticSpec;
    use nn::models;
    use rand::SeedableRng;

    fn datasets() -> (Dataset, Dataset) {
        let train = SyntheticSpec {
            classes: 3,
            size: 8,
            channels: 1,
            samples: 150,
            noise: 0.05,
            seed: 10,
        }
        .generate();
        let test = SyntheticSpec {
            classes: 3,
            size: 8,
            channels: 1,
            samples: 60,
            noise: 0.05,
            seed: 20,
        }
        .generate();
        (train, test)
    }

    fn quick_cfg() -> RetrainConfig {
        RetrainConfig {
            train: TrainConfig {
                epochs: 3,
                batch_size: 16,
                lr: 0.05,
                ..TrainConfig::default()
            },
            eval_batch: 32,
        }
    }

    #[test]
    fn magnitude_prune_hits_target_sparsity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = models::tiny_cnn("p", 1, 8, 3, &mut rng);
        let _ = magnitude_prune(&mut net, 0.5);
        let frac = net.zero_weight_fraction();
        assert!(frac >= 0.45, "zero fraction {frac} below target");
    }

    #[test]
    fn prune_retrain_keeps_pruned_weights_zero() {
        let (train_data, test_data) = datasets();
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = models::tiny_cnn("p", 1, 8, 3, &mut rng);
        let _ = prune_retrain(
            &mut net,
            &train_data,
            &test_data,
            0.6,
            &quick_cfg(),
            &mut rng,
        );
        let frac = net.zero_weight_fraction();
        assert!(
            frac >= 0.55,
            "sparsity {frac} not maintained through training"
        );
    }

    #[test]
    fn restricted_retrain_learns_with_few_weight_values() {
        let (train_data, test_data) = datasets();
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = models::tiny_cnn("r", 1, 8, 3, &mut rng);
        // Pre-train unrestricted.
        net.quantize = true;
        let _ = train(&mut net, &train_data, &quick_cfg().train, &mut rng);
        let allowed: Vec<i32> = vec![-96, -64, -32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32, 64, 96];
        let acc = restricted_retrain(
            &mut net,
            &train_data,
            &test_data,
            Some(&allowed),
            None,
            &quick_cfg(),
            &mut rng,
        );
        assert!(acc > 0.45, "restricted accuracy {acc} collapsed");
    }

    #[test]
    fn activation_restriction_is_installed() {
        let (train_data, test_data) = datasets();
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = models::tiny_cnn("a", 1, 8, 3, &mut rng);
        let acts: Vec<i32> = (0..256).step_by(2).collect();
        let acc = restricted_retrain(
            &mut net,
            &train_data,
            &test_data,
            None,
            Some(&acts),
            &quick_cfg(),
            &mut rng,
        );
        assert!((0.0..=1.0).contains(&acc));
    }
}
