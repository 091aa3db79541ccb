//! The four cacheable steps: baseline QAT training ([`prepare`]), GEMM
//! capture ([`capture`]), statistics collection plus per-weight power
//! characterization ([`characterize()`], Fig. 2) and per-weight timing
//! characterization ([`timing`], Fig. 3). [`Pipeline`] runs each under
//! a span named after the function.
//!
//! [`Pipeline`]: crate::pipeline::Pipeline

use super::PipelineCtx;
use crate::cache::Trained;
use crate::chars::{
    characterize_power, characterize_timing, PowerConfig, PsumBinning, TimingConfig,
    WeightTimingProfile,
};
use crate::pipeline::{Characterization, NetworkKind, Prepared, Scale};
use nn::data::{LazyDataset, SyntheticSpec};
use nn::layers::GemmCapture;
use nn::model::Network;
use nn::models;
use nn::train::{evaluate, train};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthetic dataset specification for a network kind and split.
pub(crate) fn dataset_spec(ctx: &PipelineCtx<'_>, kind: NetworkKind, train: bool) -> SyntheticSpec {
    let cfg = ctx.cfg;
    let samples = if train {
        cfg.train_samples()
    } else {
        cfg.test_samples()
    };
    let seed = cfg.seed ^ if train { 0x11 } else { 0x22 } ^ (kind as u64) << 4;
    let size = cfg.img_size();
    let mut spec = match kind {
        NetworkKind::LeNet5 | NetworkKind::ResNet20 => {
            SyntheticSpec::cifar10_like(size, samples, seed)
        }
        NetworkKind::ResNet50 => {
            let mut spec = SyntheticSpec::cifar100_like(size, samples, seed);
            if cfg.scale != Scale::Full {
                // 100 classes are not learnable at mini sample
                // counts; keep the class structure but narrower.
                spec.classes = 20;
            }
            spec
        }
        NetworkKind::EfficientNetLite => SyntheticSpec::imagenet_like(size, samples, seed),
    };
    spec.noise = cfg.noise();
    spec
}

fn build_network(
    ctx: &PipelineCtx<'_>,
    kind: NetworkKind,
    classes: usize,
    rng: &mut StdRng,
) -> Network {
    let size = ctx.cfg.img_size();
    match ctx.cfg.scale {
        Scale::Micro => models::tiny_cnn("micro", 3, size, classes, rng),
        Scale::Mini => match kind {
            NetworkKind::LeNet5 => models::lenet5(3, size, classes, rng),
            NetworkKind::ResNet20 => models::resnet("resnet20-mini", 3, classes, 1, 8, rng),
            NetworkKind::ResNet50 => models::resnet50_mini(3, classes, 1, 8, rng),
            NetworkKind::EfficientNetLite => models::efficientnet_lite_mini(3, classes, rng),
        },
        Scale::Full => match kind {
            NetworkKind::LeNet5 => models::lenet5(3, size, classes, rng),
            NetworkKind::ResNet20 => models::resnet20(3, classes, rng),
            NetworkKind::ResNet50 => models::resnet50_mini(3, classes, 2, 16, rng),
            NetworkKind::EfficientNetLite => models::efficientnet_lite_mini(3, classes, rng),
        },
    }
}

/// The deterministic part of preparation: the test split, the training
/// split's spec and the untrained network skeleton (quantization-aware,
/// accuracy zeroed). [`prepare`] trains it, or a training-cache hit
/// loads the stored trained state over it. Generating a split is not
/// cheap: on 2 vCPUs the Micro training split takes about 1.1 ms, and a
/// whole replay from a remote store, which never reads it, about 2.7 ms
/// without it. So the training split is generated on its first read;
/// each split seeds its own RNG, so that moves no other stream. The
/// returned RNG is positioned exactly after network construction, so
/// training continues the same stream the pre-cache implementation
/// used.
pub(crate) fn untrained_prepared(ctx: &PipelineCtx<'_>, kind: NetworkKind) -> (Prepared, StdRng) {
    let train_data = LazyDataset::new(dataset_spec(ctx, kind, true));
    let test_data = dataset_spec(ctx, kind, false).generate();
    let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ (kind as u64));
    let mut net = build_network(ctx, kind, train_data.spec().classes, &mut rng);
    net.quantize = true;
    (
        Prepared {
            net,
            train_data,
            test_data,
            accuracy: 0.0,
        },
        rng,
    )
}

/// Trains the quantization-aware baseline for a network kind.
///
/// The trained state and test accuracy are a pure function of the
/// configuration, so an attached [`crate::cache::CharCache`] is
/// consulted first (key: [`crate::cache::training_key`]) — a hit skips
/// every training epoch and loads the bit-exact network state instead.
pub(crate) fn prepare(ctx: &PipelineCtx<'_>, kind: NetworkKind) -> Prepared {
    let (mut prepared, mut rng) = untrained_prepared(ctx, kind);
    let mut train_and_evaluate = |net: &mut Network| {
        let config = ctx.cfg.train_config(ctx.cfg.baseline_epochs());
        let _ = train(net, prepared.train_data.get(), &config, &mut rng);
        let accuracy = evaluate(net, &prepared.test_data, 64);
        Trained { accuracy }
    };
    prepared.accuracy = match ctx.cache {
        Some(cache) => {
            let key = crate::cache::training_key(ctx, kind);
            cache.cached(ctx, key, &mut prepared.net, train_and_evaluate)
        }
        None => train_and_evaluate(&mut prepared.net),
    }
    .accuracy;
    prepared
}

/// Captures the quantized GEMMs of a forward pass over a fixed
/// evaluation batch.
///
/// A capture is a pure function of the network state and the input
/// batch, so an attached cache is consulted first (key:
/// [`crate::cache::capture_key`]) — a hit replays the stored operand
/// streams without running the forward pass.
pub(crate) fn capture(ctx: &PipelineCtx<'_>, prepared: &mut Prepared) -> Vec<GemmCapture> {
    let Some(cache) = ctx.cache else {
        return capture_uncached(ctx, prepared);
    };
    let key = crate::cache::capture_key(ctx, prepared);
    cache.cached(ctx, key, &mut (), |_| capture_uncached(ctx, prepared))
}

/// The forward-capture body shared by the cached and uncached paths of
/// [`capture`].
fn capture_uncached(ctx: &PipelineCtx<'_>, prepared: &mut Prepared) -> Vec<GemmCapture> {
    let (x, _) = prepared.test_data.head(ctx.cfg.capture_batch());
    let (_, captures) = prepared.net.forward_capture(&x);
    captures
}

/// Statistics collection + per-weight power characterization from
/// captured GEMMs (paper Figs. 2 and 4), bit-parallel on
/// [`gatesim::BitSim`] (64 stimulus vectors per word).
pub(crate) fn characterize(ctx: &PipelineCtx<'_>, captures: &[GemmCapture]) -> Characterization {
    // The whole artifact (statistics included) is a pure function of the
    // hashed inputs, so a warmed store skips the systolic stats pass
    // *and* every BitSim settle/transition sweep. Key derivation hashes
    // every captured code stream, so it only runs when a cache is
    // actually attached.
    let Some(cache) = ctx.cache else {
        return characterize_uncached(ctx, captures);
    };
    let key = crate::cache::characterization_key(ctx, captures);
    cache.cached(ctx, key, &mut (), |_| characterize_uncached(ctx, captures))
}

/// The gate-level characterization body shared by the cached and
/// uncached paths of [`characterize`].
fn characterize_uncached(ctx: &PipelineCtx<'_>, captures: &[GemmCapture]) -> Characterization {
    let cfg = ctx.cfg;
    let stats = ctx.array.run_network_stats(captures);
    let binning = PsumBinning::from_samples(
        stats.psum_samples(),
        cfg.bins(),
        ctx.array.config().acc_bits,
        cfg.seed ^ 0xb135,
    );
    let power_profile = characterize_power(
        ctx.hw,
        &stats,
        &binning,
        &PowerConfig {
            samples_per_weight: cfg.power_samples(),
            seed: cfg.seed ^ 0x909,
            clock_ps: ctx.array.config().clock_ps,
            weight_stride: cfg.weight_stride(),
            baseline_fj_per_cycle: 90.0,
        },
    );
    let leakage = ctx.hw.mac().netlist().leakage_nw(ctx.hw.lib());
    let energy_model = power_profile.to_energy_model(0.3, leakage);
    Characterization {
        stats,
        binning,
        power_profile,
        energy_model,
    }
}

/// Per-weight timing characterization with a slow-combination floor
/// (paper Fig. 3), batched on [`gatesim::BatchSim`].
pub(crate) fn timing(ctx: &PipelineCtx<'_>, slow_floor_ps: f64) -> WeightTimingProfile {
    let Some(cache) = ctx.cache else {
        return timing_uncached(ctx, slow_floor_ps);
    };
    let key = crate::cache::timing_key(ctx, slow_floor_ps);
    cache.cached(ctx, key, &mut (), |_| timing_uncached(ctx, slow_floor_ps))
}

/// The gate-level timing body shared by the cached and uncached paths
/// of [`timing`].
fn timing_uncached(ctx: &PipelineCtx<'_>, slow_floor_ps: f64) -> WeightTimingProfile {
    let (exhaustive, samples) = ctx.cfg.timing_exhaustive();
    characterize_timing(
        ctx.hw,
        &TimingConfig {
            exhaustive,
            samples,
            seed: ctx.cfg.seed ^ 0x7171,
            slow_floor_ps,
            weight_stride: ctx.cfg.weight_stride(),
        },
    )
}
