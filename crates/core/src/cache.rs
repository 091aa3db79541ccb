//! Warm-start caching of every expensive pipeline stage.
//!
//! All four artifact-producing stages are pure functions of their
//! inputs, so each gets a content-addressed key and a typed wire codec:
//!
//! * baseline QAT **training** ([`training_key`]) — commits to the
//!   network kind, both dataset specifications, every optimizer and
//!   quantization hyperparameter, the derived RNG seeds and the epoch
//!   budget; the artifact is the trained network's bit-exact inference
//!   state (`nn::serialize::save_state`) plus its test accuracy.
//! * GEMM **capture** ([`capture_key`]) — commits to the complete
//!   network state (parameters, batch-norm buffers, quantizer ranges
//!   and restriction sets) and the captured input batch; the artifact
//!   is the quantized operand streams (`nn::serialize::write_captures`).
//! * power **characterization** ([`characterization_key`]) and
//!   **timing** ([`timing_key`]) — as before, committing to the cell
//!   library, netlist structures, seeds, budgets and capture content.
//! * sweep-point **retraining** ([`retrain_key`]) — commits to the
//!   entering network state (parameters, buffers, installed
//!   restrictions), the requested mode (pruning sparsity or the value
//!   sets to install), the full retrain configuration and the exact RNG
//!   stream position; the artifact is the post-retrain network state,
//!   the measured accuracy and the **exit** RNG state, so a hit resumes
//!   the sweep bit-identically without replaying a single epoch.
//!
//! Keys are derived through [`KeyFields`], an order-insensitive named
//! field builder: the digest depends on *which* fields carry *which*
//! values, never on the order a key function happens to list them in.
//!
//! Environment knobs (read by [`CharCache::from_env`]):
//!
//! * `POWERPRUNING_CACHE=off|0|false` — disable the cache entirely.
//! * `POWERPRUNING_CACHE_DIR=<dir>` — store root (default
//!   `.powerpruning-cache` under the working directory).
//! * `POWERPRUNING_REMOTE_STORE=<host:port>` — attach a remote object
//!   tier behind the local store: `get` misses are answered from a
//!   `charserve` daemon's object endpoint (fetched containers are
//!   re-checksummed client-side and land in the local disk tier) and
//!   local `put`s are write-through-published, so a fleet of workers
//!   shares one warm cache without a shared filesystem. A dead daemon
//!   degrades every operation to local-only.
//!
//! A key hit is provably the same computation, so a warmed store lets a
//! second pipeline run skip baseline training entirely (zero epochs,
//! observable via `nn::train::epochs_run`) and every gate-level
//! settle/transition round-trip, on `BitSim` for power and `BatchSim`
//! for timing (zero transitions, observable via
//! `gatesim::sim_transitions`). Decode failures (corruption, version
//! skew) degrade to a miss and the artifact is recomputed and
//! rewritten.

use crate::chars::{MacHardware, PsumBinning, WeightPowerProfile};
use crate::pipeline::stages::characterize::{dataset_spec, untrained_prepared};
use crate::pipeline::stages::PipelineCtx;
use crate::pipeline::{Characterization, NetworkKind, Prepared};
use crate::retrain::RetrainConfig;
use crate::WeightTimingProfile;
use charstore::container::find;
use charstore::wire::{self, Reader};
use charstore::{Digest128, Hasher128, Section, Store};
use gatesim::{CellKind, CellLibrary};
use nn::layers::GemmCapture;
use nn::model::Network;
use rand::rngs::StdRng;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use systolic::MacEnergyModel;

/// Per-artifact-kind registry counters: the typed `lookup_*` methods
/// know which stage's artifact they answer, so `/metrics` can break
/// cache effectiveness down by stage where the per-instance
/// [`CacheCounters`] only totals.
struct StageCacheMetrics {
    hits: obs::metrics::Counter,
    misses: obs::metrics::Counter,
}

macro_rules! stage_cache_metrics {
    ($name:ident, $hits:literal, $misses:literal) => {
        static $name: LazyLock<StageCacheMetrics> = LazyLock::new(|| StageCacheMetrics {
            hits: obs::metrics::counter($hits),
            misses: obs::metrics::counter($misses),
        });
    };
}

stage_cache_metrics!(
    TRAINING_CACHE,
    "charcache_training_hits_total",
    "charcache_training_misses_total"
);
stage_cache_metrics!(
    CAPTURES_CACHE,
    "charcache_captures_hits_total",
    "charcache_captures_misses_total"
);
stage_cache_metrics!(
    CHARACTERIZATION_CACHE,
    "charcache_characterization_hits_total",
    "charcache_characterization_misses_total"
);
stage_cache_metrics!(
    TIMING_CACHE,
    "charcache_timing_hits_total",
    "charcache_timing_misses_total"
);
stage_cache_metrics!(
    RETRAIN_CACHE,
    "charcache_retrain_hits_total",
    "charcache_retrain_misses_total"
);

/// Default store directory (relative to the working directory).
pub const DEFAULT_CACHE_DIR: &str = ".powerpruning-cache";

/// Environment variable naming a `charserve` object endpoint
/// (`host:port`) to attach as the store's remote tier.
pub const REMOTE_STORE_ENV: &str = "POWERPRUNING_REMOTE_STORE";

/// Version of the characterization *algorithms* folded into every
/// cache key. The keys commit to all inputs, but a persistent
/// default-on cache must also be invalidated when the computation
/// itself changes: **bump this constant whenever any PR changes the
/// observable output of the characterize or timing stages for
/// unchanged inputs** (sampling loops, binning, energy composition,
/// the hardcoded baseline energy, …). Old artifacts then simply stop
/// matching and are recomputed.
pub const ARTIFACT_ALGO_VERSION: u32 = 1;

/// Section ids of the characterization container.
mod section {
    pub const PROVENANCE: u32 = 1;
    pub const STATS: u32 = 2;
    pub const BINNING: u32 = 3;
    pub const POWER_PROFILE: u32 = 4;
    pub const ENERGY_MODEL: u32 = 5;
    pub const TIMING_PROFILE: u32 = 6;
    pub const NET_STATE: u32 = 7;
    pub const ACCURACY: u32 = 8;
    pub const CAPTURES: u32 = 9;
    pub const MANIFEST: u32 = 10;
    pub const RNG_STATE: u32 = 11;
}

/// An order-insensitive named-field cache-key builder.
///
/// Every committed input is pushed as a `(name, typed value)` pair;
/// [`KeyFields::finalize`] sorts the fields by name before hashing, so
/// the digest is a function of the field *set* — reordering the `push`
/// calls in a key function can never silently change (or preserve!) a
/// key, while any value or name change always moves it. Values carry a
/// type tag, so e.g. `u64(1)` and `f64` with the same bit pattern under
/// the same name cannot collide.
///
/// # Panics
///
/// [`KeyFields::finalize`] panics on duplicate field names — an
/// ambiguous key would silently drop a commitment, which is exactly the
/// bug class this builder exists to prevent.
#[derive(Debug, Clone, Default)]
pub struct KeyFields {
    fields: Vec<(String, Vec<u8>)>,
}

impl KeyFields {
    /// An empty field set.
    #[must_use]
    pub fn new() -> Self {
        KeyFields::default()
    }

    fn push(&mut self, name: &str, tag: u8, payload: &[u8]) {
        let mut value = Vec::with_capacity(payload.len() + 1);
        value.push(tag);
        value.extend_from_slice(payload);
        self.fields.push((name.to_string(), value));
    }

    /// Commits a `u32` field.
    pub fn u32(&mut self, name: &str, v: u32) {
        self.push(name, 1, &v.to_le_bytes());
    }

    /// Commits a `u64` field.
    pub fn u64(&mut self, name: &str, v: u64) {
        self.push(name, 2, &v.to_le_bytes());
    }

    /// Commits a `usize` field (as little-endian `u64`).
    pub fn usize(&mut self, name: &str, v: usize) {
        self.push(name, 3, &(v as u64).to_le_bytes());
    }

    /// Commits an `f64` field by exact bit pattern.
    pub fn f64(&mut self, name: &str, v: f64) {
        self.push(name, 4, &v.to_bits().to_le_bytes());
    }

    /// Commits an `f32` field by exact bit pattern.
    pub fn f32(&mut self, name: &str, v: f32) {
        self.push(name, 5, &v.to_bits().to_le_bytes());
    }

    /// Commits a `bool` field.
    pub fn bool(&mut self, name: &str, v: bool) {
        self.push(name, 6, &[u8::from(v)]);
    }

    /// Commits a string field.
    pub fn str(&mut self, name: &str, v: &str) {
        self.push(name, 7, v.as_bytes());
    }

    /// Commits a sub-digest field (for composite inputs hashed
    /// separately, e.g. a network state or an input batch).
    pub fn digest(&mut self, name: &str, d: Digest128) {
        self.push(name, 8, &d.0);
    }

    /// Derives the key under a domain-separation tag.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name (see the type docs).
    #[must_use]
    pub fn finalize(&self, domain: &str) -> Digest128 {
        let mut sorted: Vec<&(String, Vec<u8>)> = self.fields.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in sorted.windows(2) {
            assert_ne!(
                pair[0].0, pair[1].0,
                "duplicate cache-key field `{}`",
                pair[0].0
            );
        }
        let mut h = Hasher128::new(domain);
        h.write_usize(sorted.len());
        for (name, value) in sorted {
            h.write_str(name);
            h.write_bytes(value);
        }
        h.finalize()
    }
}

fn hash_library(h: &mut Hasher128, lib: &CellLibrary) {
    for &kind in CellKind::all() {
        let p = lib.params(kind);
        h.write_u8(kind as u8);
        h.write_f64(p.delay_ps);
        h.write_f64(p.energy_fj);
        h.write_f64(p.leakage_nw);
    }
}

fn hash_hardware(h: &mut Hasher128, hw: &MacHardware) {
    h.write_u32(ARTIFACT_ALGO_VERSION);
    hash_library(h, hw.lib());
    h.update(&hw.mac().netlist().structural_digest().0);
    h.update(&hw.mult_netlist().structural_digest().0);
    h.write_usize(hw.weight_bits());
    h.write_usize(hw.act_bits());
    h.write_usize(hw.acc_bits());
}

/// The cache key of the combined statistics + power characterization
/// artifact produced by the pipeline's characterize stage.
///
/// Commits to the cell library, the MAC and multiplier netlist
/// structures, the systolic array geometry, every seed and budget the
/// stage derives from the configuration, and the full content of the
/// captured GEMM streams the statistics are collected from.
#[must_use]
pub fn characterization_key(ctx: &PipelineCtx<'_>, captures: &[GemmCapture]) -> Digest128 {
    let mut h = Hasher128::new("powerpruning.characterization.v1");
    hash_hardware(&mut h, ctx.hw);
    let array = ctx.array.config();
    h.write_usize(array.rows);
    h.write_usize(array.cols);
    h.write_f64(array.clock_ps);
    h.write_usize(array.acc_bits);
    let cfg = ctx.cfg;
    h.write_u64(cfg.seed);
    h.write_usize(cfg.bins());
    h.write_usize(cfg.power_samples());
    h.write_usize(cfg.weight_stride());
    h.write_usize(captures.len());
    let mut scratch = Vec::new();
    for c in captures {
        h.write_str(&c.layer);
        h.write_usize(c.m);
        h.write_usize(c.k);
        h.write_usize(c.n);
        // i8 codes share the u8 byte representation; one reused scratch
        // buffer instead of an allocation per capture.
        scratch.clear();
        scratch.extend(c.weight_codes.iter().map(|&w| w as u8));
        h.write_bytes(&scratch);
        h.write_bytes(&c.act_codes);
    }
    h.finalize()
}

/// The cache key of the timing characterization artifact.
///
/// Commits to the cell library, both netlist structures, and every
/// field of the effective timing configuration (including the
/// slow-combination floor, which changes which transitions are stored
/// individually).
#[must_use]
pub fn timing_key(ctx: &PipelineCtx<'_>, slow_floor_ps: f64) -> Digest128 {
    let mut h = Hasher128::new("powerpruning.timing.v1");
    hash_hardware(&mut h, ctx.hw);
    let (exhaustive, samples) = ctx.cfg.timing_exhaustive();
    h.write_bool(exhaustive);
    h.write_usize(samples);
    h.write_u64(ctx.cfg.seed);
    h.write_f64(slow_floor_ps);
    h.write_usize(ctx.cfg.weight_stride());
    h.finalize()
}

/// The cache key of the baseline QAT training artifact produced by the
/// pipeline's prepare stage.
///
/// Commits to the network kind, the train/test dataset specifications
/// (classes, resolution, channels, sample counts, noise, seeds), the
/// network-build seed, every optimizer hyperparameter of the baseline
/// training configuration (epochs, batch size, learning-rate schedule,
/// momentum, weight decay, gradient clipping) and the quantization-aware
/// flag. The experiment scale is committed explicitly because the
/// network topology is a function of it.
#[must_use]
pub fn training_key(ctx: &PipelineCtx<'_>, kind: NetworkKind) -> Digest128 {
    let cfg = ctx.cfg;
    let mut k = KeyFields::new();
    k.u32("algo_version", ARTIFACT_ALGO_VERSION);
    k.str("scale", &format!("{:?}", cfg.scale));
    k.str("network", &format!("{kind:?}"));
    k.u64("net_seed", cfg.seed ^ (kind as u64));
    for (split, spec) in [
        ("train", dataset_spec(ctx, kind, true)),
        ("test", dataset_spec(ctx, kind, false)),
    ] {
        k.usize(&format!("{split}.classes"), spec.classes);
        k.usize(&format!("{split}.size"), spec.size);
        k.usize(&format!("{split}.channels"), spec.channels);
        k.usize(&format!("{split}.samples"), spec.samples);
        k.f32(&format!("{split}.noise"), spec.noise);
        k.u64(&format!("{split}.seed"), spec.seed);
    }
    let tc = cfg.train_config(cfg.baseline_epochs());
    k.usize("opt.epochs", tc.epochs);
    k.usize("opt.batch_size", tc.batch_size);
    k.f32("opt.lr", tc.lr);
    k.f32("opt.momentum", tc.momentum);
    k.f32("opt.weight_decay", tc.weight_decay);
    k.f32("opt.lr_decay", tc.lr_decay);
    k.bool("opt.clip", tc.clip_norm.is_some());
    k.f32("opt.clip_norm", tc.clip_norm.unwrap_or(0.0));
    k.bool("quantize", true);
    k.finalize("powerpruning.training.v1")
}

/// Digest of a network's complete inference state: layer-qualified
/// parameter names, shapes and exact `f32` bits, plus every
/// non-trainable buffer (batch-norm running statistics).
fn network_state_digest(net: &mut Network) -> Digest128 {
    let mut h = Hasher128::new("powerpruning.netstate.v1");
    let mut scratch: Vec<u8> = Vec::new();
    net.visit_params(&mut |p| {
        h.write_str(&p.name);
        h.write_usize(p.value.shape().len());
        for &d in p.value.shape() {
            h.write_usize(d);
        }
        scratch.clear();
        scratch.extend(p.value.data().iter().flat_map(|v| v.to_le_bytes()));
        h.write_bytes(&scratch);
    });
    net.visit_buffers(&mut |b| {
        scratch.clear();
        scratch.extend(b.iter().flat_map(|v| v.to_le_bytes()));
        h.write_bytes(&scratch);
    });
    h.finalize()
}

/// Digest of a network's value-set restrictions and quantizer ranges —
/// the knobs the selection stages install between captures.
fn network_restriction_digest(net: &mut Network) -> Digest128 {
    let mut h = Hasher128::new("powerpruning.restrictions.v1");
    let write_set = |h: &mut Hasher128, allowed: &Option<nn::ValueSet>| match allowed {
        None => h.write_bool(false),
        Some(set) => {
            h.write_bool(true);
            h.write_usize(set.codes().len());
            for &c in set.codes() {
                h.write_i64(i64::from(c));
            }
        }
    };
    net.visit_weight_quant(&mut |wq| {
        write_set(&mut h, &wq.allowed);
    });
    net.visit_act_quant(&mut |aq| {
        h.write_u32(aq.range.to_bits());
        write_set(&mut h, &aq.allowed);
    });
    h.finalize()
}

/// The cache key of the GEMM capture artifact produced by the
/// pipeline's capture stage.
///
/// Commits to the complete network state ([`network_state_digest`] over
/// parameters and buffers), the installed value-set restrictions and
/// quantizer ranges, and the exact input batch the captures stream
/// (shape and `f32` bits of the test-set head). The capture forward
/// pass is always quantization-aware, so the `quantize` flag is not an
/// input.
#[must_use]
pub fn capture_key(ctx: &PipelineCtx<'_>, prepared: &mut Prepared) -> Digest128 {
    let mut k = KeyFields::new();
    k.u32("algo_version", ARTIFACT_ALGO_VERSION);
    let name = prepared.net.name().to_string();
    k.str("net.name", &name);
    k.digest("net.state", network_state_digest(&mut prepared.net));
    k.digest(
        "net.restrictions",
        network_restriction_digest(&mut prepared.net),
    );
    let (x, _) = prepared.test_data.head(ctx.cfg.capture_batch());
    let mut h = Hasher128::new("powerpruning.capture-input.v1");
    h.write_usize(x.shape().len());
    for &d in x.shape() {
        h.write_usize(d);
    }
    let bytes: Vec<u8> = x.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    h.write_bytes(&bytes);
    k.digest("input", h.finalize());
    k.usize("capture_batch", ctx.cfg.capture_batch());
    k.finalize("powerpruning.capture.v1")
}

/// Which retraining flavour a [`retrain_key`] commits to — the two call
/// shapes of `crate::retrain`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainMode<'a> {
    /// [`crate::retrain::prune_retrain`]: magnitude pruning to the given
    /// sparsity, then masked retraining.
    Prune {
        /// Requested pruned fraction.
        sparsity: f64,
    },
    /// [`crate::retrain::restricted_retrain`]: retraining with the given
    /// value-set restrictions installed (`None` leaves the network's
    /// current restriction in place — which the entering restriction
    /// digest already commits to).
    Restricted {
        /// Weight value set to install, if any.
        weights: Option<&'a [i32]>,
        /// Activation value set to install, if any.
        activations: Option<&'a [i32]>,
    },
}

fn value_codes_digest(codes: &[i32]) -> Digest128 {
    let mut h = Hasher128::new("powerpruning.valueset.v1");
    h.write_usize(codes.len());
    for &c in codes {
        h.write_i64(i64::from(c));
    }
    h.finalize()
}

/// The cache key of one retraining call — the commit-to-state discipline
/// applied to the sweeps' inner loops.
///
/// A retraining run is a pure function of the **entering** network state
/// ([`network_state_digest`] over parameters and buffers, plus the
/// already-installed restriction sets and quantizer ranges), the
/// requested mode (sparsity for the pruned baseline; the weight and
/// activation value sets for restricted retraining), every optimizer
/// hyperparameter of the [`RetrainConfig`], and the **exact RNG stream
/// position** (training consumes draws for batch shuffling, so the same
/// net at a different stream position is a different computation). The
/// stored artifact carries the exit RNG state so a hit can resume the
/// stream bit-identically — without that, every downstream sweep-point
/// key would diverge on a warm run.
#[must_use]
pub fn retrain_key(
    ctx: &PipelineCtx<'_>,
    net: &mut Network,
    mode: RetrainMode<'_>,
    cfg: &RetrainConfig,
    rng: &StdRng,
) -> Digest128 {
    let mut k = KeyFields::new();
    k.u32("algo_version", ARTIFACT_ALGO_VERSION);
    k.str("scale", &format!("{:?}", ctx.cfg.scale));
    let name = net.name().to_string();
    k.str("net.name", &name);
    k.digest("net.state", network_state_digest(net));
    k.digest("net.restrictions", network_restriction_digest(net));
    match mode {
        RetrainMode::Prune { sparsity } => {
            k.str("mode", "prune");
            k.f64("sparsity", sparsity);
        }
        RetrainMode::Restricted {
            weights,
            activations,
        } => {
            k.str("mode", "restricted");
            k.bool("weights.set", weights.is_some());
            k.digest(
                "weights.codes",
                value_codes_digest(weights.unwrap_or_default()),
            );
            k.bool("activations.set", activations.is_some());
            k.digest(
                "activations.codes",
                value_codes_digest(activations.unwrap_or_default()),
            );
        }
    }
    k.usize("opt.epochs", cfg.train.epochs);
    k.usize("opt.batch_size", cfg.train.batch_size);
    k.f32("opt.lr", cfg.train.lr);
    k.f32("opt.momentum", cfg.train.momentum);
    k.f32("opt.weight_decay", cfg.train.weight_decay);
    k.f32("opt.lr_decay", cfg.train.lr_decay);
    k.bool("opt.clip", cfg.train.clip_norm.is_some());
    k.f32("opt.clip_norm", cfg.train.clip_norm.unwrap_or(0.0));
    k.usize("eval_batch", cfg.eval_batch);
    let s = rng.state();
    for (i, &word) in s.iter().enumerate() {
        k.u64(&format!("rng.s{i}"), word);
    }
    k.finalize("powerpruning.retrain.v1")
}

/// The cache key of a full characterization *request* — the unit the
/// `charserve` daemon deduplicates and answers from the store.
///
/// Commits to the experiment scale, the network kind, the master seed
/// and every per-stage budget the scale derives (sample counts, epoch
/// budget, capture batch, characterization sampling, timing sampling,
/// binning, stride, image size, dataset noise). Unlike the per-stage
/// keys it is computable from the [`crate::pipeline::PipelineConfig`]
/// alone — no trained network, captures or hardware models needed — so
/// a server front-end can answer a repeated request without
/// constructing a pipeline.
#[must_use]
pub fn request_key(cfg: &crate::pipeline::PipelineConfig, kind: NetworkKind) -> Digest128 {
    let mut k = KeyFields::new();
    k.u32("algo_version", ARTIFACT_ALGO_VERSION);
    k.str("scale", &format!("{:?}", cfg.scale));
    k.str("network", &format!("{kind:?}"));
    k.u64("seed", cfg.seed);
    k.usize("budget.baseline_epochs", cfg.baseline_epochs());
    k.usize("budget.train_samples", cfg.train_samples());
    k.usize("budget.test_samples", cfg.test_samples());
    k.usize("budget.capture_batch", cfg.capture_batch());
    k.usize("budget.power_samples", cfg.power_samples());
    k.usize("budget.weight_stride", cfg.weight_stride());
    k.usize("budget.bins", cfg.bins());
    let (exhaustive, samples) = cfg.timing_exhaustive();
    k.bool("budget.timing_exhaustive", exhaustive);
    k.usize("budget.timing_samples", samples);
    k.usize("budget.img_size", cfg.img_size());
    k.f32("noise", cfg.noise());
    k.finalize("powerpruning.request.v1")
}

/// The stored answer record of one characterization request: the four
/// stage artifact keys plus the headline observables a client needs.
/// Written under [`request_key`] after a request computes, so the next
/// identical request is answered straight from the store without even
/// rebuilding the pipeline's hardware models.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestManifest {
    /// Key of the baseline-training artifact.
    pub training: Digest128,
    /// Key of the GEMM-capture artifact.
    pub capture: Digest128,
    /// Key of the power-characterization artifact.
    pub characterization: Digest128,
    /// Key of the timing artifact (probe floor).
    pub timing: Digest128,
    /// Baseline test accuracy after QAT.
    pub accuracy: f64,
    /// Number of captured GEMMs.
    pub captures: u64,
    /// Number of characterized weight codes.
    pub power_codes: u64,
}

impl RequestManifest {
    /// The four stage keys in pipeline order, labelled.
    #[must_use]
    pub fn stage_keys(&self) -> [(&'static str, Digest128); 4] {
        [
            ("training", self.training),
            ("capture", self.capture),
            ("characterization", self.characterization),
            ("timing", self.timing),
        ]
    }
}

fn encode_manifest(ctx: &PipelineCtx<'_>, m: &RequestManifest) -> Vec<Section> {
    let mut buf = Vec::new();
    for (_, key) in m.stage_keys() {
        buf.extend_from_slice(&key.0);
    }
    wire::put_f64(&mut buf, m.accuracy);
    wire::put_u64(&mut buf, m.captures);
    wire::put_u64(&mut buf, m.power_codes);
    vec![
        provenance_section(ctx, "request-manifest"),
        Section::new(section::MANIFEST, buf),
    ]
}

fn decode_manifest(sections: &[Section]) -> io::Result<RequestManifest> {
    let mut r = required(sections, section::MANIFEST)?;
    let digest = |r: &mut Reader<'_>| -> io::Result<Digest128> {
        let mut d = Digest128([0; 16]);
        d.0.copy_from_slice(r.take(16)?);
        Ok(d)
    };
    let training = digest(&mut r)?;
    let capture = digest(&mut r)?;
    let characterization = digest(&mut r)?;
    let timing = digest(&mut r)?;
    let accuracy = r.f64()?;
    let captures = r.u64()?;
    let power_codes = r.u64()?;
    r.finish()?;
    Ok(RequestManifest {
        training,
        capture,
        characterization,
        timing,
        accuracy,
        captures,
        power_codes,
    })
}

/// What serving one characterization request did: the request key, the
/// manifest (stage keys + observables), and how much work it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationRun {
    /// The request key ([`request_key`]).
    pub request_key: Digest128,
    /// Stage keys and observables.
    pub manifest: RequestManifest,
    /// Whether the request was answered straight from a stored
    /// manifest (no pipeline stage even consulted).
    pub manifest_hit: bool,
    /// Training epochs observed while serving this request. Measured
    /// from the process-global `nn::train::epochs_run()` counter, so
    /// under concurrent *distinct* computations in one process it is an
    /// upper bound on this request's own work; it is exactly zero for
    /// any request answered from a warm store.
    pub training_epochs: u64,
    /// Gate-level transitions observed while serving this request
    /// (process-global `gatesim::sim_transitions()`; same upper-bound
    /// caveat, same exact zero on warm answers).
    pub sim_transitions: u64,
}

fn provenance_section(ctx: &PipelineCtx<'_>, kind: &str) -> Section {
    let mut buf = Vec::new();
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    for (k, v) in [
        ("artifact", kind.to_string()),
        ("crate_version", env!("CARGO_PKG_VERSION").to_string()),
        ("scale", format!("{:?}", ctx.cfg.scale)),
        ("seed", format!("{:#x}", ctx.cfg.seed)),
        ("mac", ctx.hw.mac().netlist().name().to_string()),
        ("created_unix", created.to_string()),
    ] {
        wire::put_str(&mut buf, k);
        wire::put_str(&mut buf, &v);
    }
    Section::new(section::PROVENANCE, buf)
}

/// Parses a provenance section into `(key, value)` pairs — the CLI's
/// `stat` view. Unknown layouts yield an empty list rather than an
/// error (provenance is informational, never load-bearing).
#[must_use]
pub fn decode_provenance(sections: &[Section]) -> Vec<(String, String)> {
    let Some(s) = find(sections, section::PROVENANCE) else {
        return Vec::new();
    };
    let mut r = Reader::new(&s.bytes);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let Ok(k) = r.str() else { return Vec::new() };
        let Ok(v) = r.str() else { return Vec::new() };
        out.push((k, v));
    }
    out
}

fn encode_characterization(ctx: &PipelineCtx<'_>, chars: &Characterization) -> Vec<Section> {
    let mut stats = Vec::new();
    chars.stats.write_to(&mut stats);
    let mut binning = Vec::new();
    chars.binning.write_to(&mut binning);
    let mut power = Vec::new();
    chars.power_profile.write_to(&mut power);
    let mut energy = Vec::new();
    chars.energy_model.write_to(&mut energy);
    vec![
        provenance_section(ctx, "characterization"),
        Section::new(section::STATS, stats),
        Section::new(section::BINNING, binning),
        Section::new(section::POWER_PROFILE, power),
        Section::new(section::ENERGY_MODEL, energy),
    ]
}

fn required<'a>(sections: &'a [Section], id: u32) -> io::Result<Reader<'a>> {
    find(sections, id)
        .map(|s| Reader::new(&s.bytes))
        .ok_or_else(|| wire::invalid(format!("artifact is missing section {id}")))
}

fn decode_characterization(sections: &[Section]) -> io::Result<Characterization> {
    let mut r = required(sections, section::STATS)?;
    let stats = systolic::TransitionStats::read_from(&mut r)?;
    r.finish()?;
    let mut r = required(sections, section::BINNING)?;
    let binning = PsumBinning::read_from(&mut r)?;
    r.finish()?;
    let mut r = required(sections, section::POWER_PROFILE)?;
    let power_profile = WeightPowerProfile::read_from(&mut r)?;
    r.finish()?;
    let mut r = required(sections, section::ENERGY_MODEL)?;
    let energy_model = MacEnergyModel::read_from(&mut r)?;
    r.finish()?;
    Ok(Characterization {
        stats,
        binning,
        power_profile,
        energy_model,
    })
}

fn encode_timing(ctx: &PipelineCtx<'_>, profile: &WeightTimingProfile) -> Vec<Section> {
    let mut buf = Vec::new();
    profile.write_to(&mut buf);
    vec![
        provenance_section(ctx, "timing"),
        Section::new(section::TIMING_PROFILE, buf),
    ]
}

fn decode_timing(sections: &[Section]) -> io::Result<WeightTimingProfile> {
    let mut r = required(sections, section::TIMING_PROFILE)?;
    let profile = WeightTimingProfile::read_from(&mut r)?;
    r.finish()?;
    Ok(profile)
}

fn encode_training(ctx: &PipelineCtx<'_>, prepared: &mut Prepared) -> Vec<Section> {
    let mut state = Vec::new();
    nn::serialize::save_state(&mut prepared.net, &mut state).expect("Vec writes cannot fail");
    let mut accuracy = Vec::new();
    wire::put_f64(&mut accuracy, prepared.accuracy);
    vec![
        provenance_section(ctx, "training"),
        Section::new(section::NET_STATE, state),
        Section::new(section::ACCURACY, accuracy),
    ]
}

/// Rebuilds a [`Prepared`] from a stored training artifact: datasets
/// and the untrained network skeleton are regenerated deterministically
/// from the configuration (cheap), then the trained state is loaded
/// bit-exactly over it.
fn decode_training(
    ctx: &PipelineCtx<'_>,
    kind: NetworkKind,
    sections: &[Section],
) -> io::Result<Prepared> {
    let state = find(sections, section::NET_STATE)
        .ok_or_else(|| wire::invalid("training artifact is missing the network state"))?;
    let mut r = required(sections, section::ACCURACY)?;
    let accuracy = r.f64()?;
    r.finish()?;
    let (mut prepared, _rng) = untrained_prepared(ctx, kind);
    nn::serialize::load_state(&mut prepared.net, state.bytes.as_slice())?;
    prepared.accuracy = accuracy;
    Ok(prepared)
}

fn encode_captures(ctx: &PipelineCtx<'_>, captures: &[GemmCapture]) -> Vec<Section> {
    let mut buf = Vec::new();
    nn::serialize::write_captures(captures, &mut buf);
    vec![
        provenance_section(ctx, "capture"),
        Section::new(section::CAPTURES, buf),
    ]
}

fn decode_captures(sections: &[Section]) -> io::Result<Vec<GemmCapture>> {
    let mut r = required(sections, section::CAPTURES)?;
    let captures = nn::serialize::read_captures(&mut r)?;
    r.finish()?;
    Ok(captures)
}

/// Decoded retrain artifact: the post-retrain network state (raw
/// `nn::serialize` bytes, applied by the lookup), the test accuracy the
/// retraining measured, and the RNG state at exit.
struct RetrainArtifact {
    state: Vec<u8>,
    accuracy: f64,
    rng_state: [u64; 4],
}

fn encode_retrain(
    ctx: &PipelineCtx<'_>,
    net: &mut Network,
    accuracy: f64,
    rng: &StdRng,
) -> Vec<Section> {
    let mut state = Vec::new();
    nn::serialize::save_state(net, &mut state).expect("Vec writes cannot fail");
    let mut acc = Vec::new();
    wire::put_f64(&mut acc, accuracy);
    let mut rng_buf = Vec::new();
    for word in rng.state() {
        wire::put_u64(&mut rng_buf, word);
    }
    vec![
        provenance_section(ctx, "retrain"),
        Section::new(section::NET_STATE, state),
        Section::new(section::ACCURACY, acc),
        Section::new(section::RNG_STATE, rng_buf),
    ]
}

fn decode_retrain(sections: &[Section]) -> io::Result<RetrainArtifact> {
    let state = find(sections, section::NET_STATE)
        .ok_or_else(|| wire::invalid("retrain artifact is missing the network state"))?
        .bytes
        .clone();
    let mut r = required(sections, section::ACCURACY)?;
    let accuracy = r.f64()?;
    r.finish()?;
    let mut r = required(sections, section::RNG_STATE)?;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64()?;
    }
    r.finish()?;
    Ok(RetrainArtifact {
        state,
        accuracy,
        rng_state,
    })
}

/// Typed hit/miss counters of one [`CharCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Artifact lookups answered from the store (either tier).
    pub hits: u64,
    /// Lookups that had to fall through to gate-level simulation.
    pub misses: u64,
}

/// The pipeline-facing artifact cache: typed lookups and stores over a
/// shared [`charstore::Store`], plus hit/miss accounting.
///
/// The store is held behind an [`Arc`] so several consumers — the
/// pipeline stages, the `charserve` daemon's front-end and its worker
/// threads — can answer from **one** store instance (one in-memory
/// tier, one set of store counters) instead of each opening their own.
#[derive(Debug)]
pub struct CharCache {
    store: Arc<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CharCache {
    /// Opens a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the store layout.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CharCache> {
        CharCache::open_with_remote(dir, None)
    }

    /// Opens a cache rooted at `dir` with an optional remote object
    /// tier (`host:port` of a `charserve` daemon) behind the local
    /// tiers. Every remote failure degrades to local-only operation, so
    /// attaching a dead endpoint costs counters, never correctness.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the local store layout (the
    /// remote endpoint is not contacted here).
    pub fn open_with_remote(dir: impl AsRef<Path>, remote: Option<&str>) -> io::Result<CharCache> {
        let mut store = Store::open(dir.as_ref())?;
        if let Some(addr) = remote {
            store = store.with_remote(charstore::RemoteTier::new(addr));
        }
        Ok(CharCache::with_store(Arc::new(store)))
    }

    /// Wraps an already-open shared store — the `charserve` daemon path,
    /// where the HTTP front-end and every worker share one store.
    #[must_use]
    pub fn with_store(store: Arc<Store>) -> CharCache {
        CharCache {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether `POWERPRUNING_CACHE` is set to `off`/`0`/`false`. The
    /// env kill switch overrides every configuration path, including
    /// explicit store directories.
    #[must_use]
    pub fn disabled_by_env() -> bool {
        std::env::var("POWERPRUNING_CACHE")
            .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false"))
    }

    /// Opens the cache described by the environment: `None` when
    /// `POWERPRUNING_CACHE` is `off`/`0`/`false` or the store directory
    /// cannot be created (the pipeline silently runs uncached — a cache
    /// must never turn a runnable experiment into an error). A
    /// non-empty `POWERPRUNING_REMOTE_STORE` attaches the remote tier.
    #[must_use]
    pub fn from_env() -> Option<CharCache> {
        if CharCache::disabled_by_env() {
            return None;
        }
        let dir = std::env::var("POWERPRUNING_CACHE_DIR")
            .unwrap_or_else(|_| DEFAULT_CACHE_DIR.to_string());
        let remote = std::env::var(REMOTE_STORE_ENV)
            .ok()
            .filter(|addr| !addr.trim().is_empty());
        CharCache::open_with_remote(dir, remote.as_deref()).ok()
    }

    /// The underlying store (for the CLI and tests).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// A shared handle to the underlying store.
    #[must_use]
    pub fn shared_store(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }

    /// Snapshot of the typed hit/miss counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn record<T>(&self, metrics: &StageCacheMetrics, result: Option<T>) -> Option<T> {
        match result {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics.hits.inc();
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics.misses.inc();
                None
            }
        }
    }

    /// Looks up a characterization artifact. Any store miss or decode
    /// failure is a cache miss.
    #[must_use]
    pub fn lookup_characterization(&self, key: Digest128) -> Option<Characterization> {
        let decoded = self
            .store
            .get(key)
            .and_then(|s| decode_characterization(&s).ok());
        self.record(&CHARACTERIZATION_CACHE, decoded)
    }

    /// Stores a characterization artifact. Failures are swallowed (the
    /// computed artifact is still returned to the caller; only warm
    /// starts are lost).
    pub fn store_characterization(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        chars: &Characterization,
    ) {
        let _ = self.store.put(key, encode_characterization(ctx, chars));
    }

    /// Looks up a timing artifact. Any store miss or decode failure is
    /// a cache miss.
    #[must_use]
    pub fn lookup_timing(&self, key: Digest128) -> Option<WeightTimingProfile> {
        let decoded = self.store.get(key).and_then(|s| decode_timing(&s).ok());
        self.record(&TIMING_CACHE, decoded)
    }

    /// Stores a timing artifact (failures swallowed, as above).
    pub fn store_timing(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        profile: &WeightTimingProfile,
    ) {
        let _ = self.store.put(key, encode_timing(ctx, profile));
    }

    /// Looks up a baseline training artifact, rebuilding the
    /// [`Prepared`] bundle (datasets regenerated, trained state loaded
    /// bit-exactly). Any store miss or decode failure — including a
    /// structure mismatch after a model-code change — is a cache miss.
    #[must_use]
    pub fn lookup_training(
        &self,
        ctx: &PipelineCtx<'_>,
        kind: NetworkKind,
        key: Digest128,
    ) -> Option<Prepared> {
        let decoded = self
            .store
            .get(key)
            .and_then(|s| decode_training(ctx, kind, &s).ok());
        self.record(&TRAINING_CACHE, decoded)
    }

    /// Stores a baseline training artifact (failures swallowed; only
    /// warm starts are lost). Takes the network mutably because state
    /// serialization visits parameters through `&mut` hooks.
    pub fn store_training(&self, ctx: &PipelineCtx<'_>, key: Digest128, prepared: &mut Prepared) {
        let sections = encode_training(ctx, prepared);
        let _ = self.store.put(key, sections);
    }

    /// Looks up a GEMM capture artifact. Any store miss or decode
    /// failure is a cache miss.
    #[must_use]
    pub fn lookup_captures(&self, key: Digest128) -> Option<Vec<GemmCapture>> {
        let decoded = self.store.get(key).and_then(|s| decode_captures(&s).ok());
        self.record(&CAPTURES_CACHE, decoded)
    }

    /// Stores a GEMM capture artifact (failures swallowed, as above).
    pub fn store_captures(&self, ctx: &PipelineCtx<'_>, key: Digest128, captures: &[GemmCapture]) {
        let _ = self.store.put(key, encode_captures(ctx, captures));
    }

    /// Looks up a retrain artifact and, on a hit, loads the post-retrain
    /// state over `net` bit-exactly, returning the stored test accuracy
    /// and the exit RNG state (for the caller to resume its stream at
    /// the position the original retraining left it).
    ///
    /// Any store miss or decode failure is a cache miss. A state-load
    /// failure (e.g. structure skew after a model-code change) restores
    /// the entering parameters and buffers before reporting the miss, so
    /// the recompute path never starts from a half-loaded network.
    #[must_use]
    pub fn lookup_retrain(&self, net: &mut Network, key: Digest128) -> Option<(f64, [u64; 4])> {
        let applied = self
            .store
            .get(key)
            .and_then(|s| decode_retrain(&s).ok())
            .and_then(|artifact| {
                let params = net.snapshot();
                let mut buffers: Vec<Vec<f32>> = Vec::new();
                net.visit_buffers(&mut |b| buffers.push(b.clone()));
                match nn::serialize::load_state(net, artifact.state.as_slice()) {
                    Ok(()) => Some((artifact.accuracy, artifact.rng_state)),
                    Err(_) => {
                        net.restore(&params);
                        let mut idx = 0usize;
                        net.visit_buffers(&mut |b| {
                            if let Some(saved) = buffers.get(idx) {
                                b.copy_from_slice(saved);
                            }
                            idx += 1;
                        });
                        None
                    }
                }
            });
        self.record(&RETRAIN_CACHE, applied)
    }

    /// Stores a retrain artifact: the network's post-retrain state, the
    /// measured accuracy and the exit RNG state (failures swallowed, as
    /// above). Takes the network mutably because state serialization
    /// visits parameters through `&mut` hooks.
    pub fn store_retrain(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        net: &mut Network,
        accuracy: f64,
        rng: &StdRng,
    ) {
        let _ = self.store.put(key, encode_retrain(ctx, net, accuracy, rng));
    }

    /// Looks up a stored request manifest. Deliberately does **not**
    /// touch the stage hit/miss counters — a manifest answers a whole
    /// request, not a stage, and the service accounts for requests
    /// itself.
    #[must_use]
    pub fn lookup_manifest(&self, key: Digest128) -> Option<RequestManifest> {
        self.store.get(key).and_then(|s| decode_manifest(&s).ok())
    }

    /// Stores a request manifest (failures swallowed; only warm answers
    /// are lost).
    pub fn store_manifest(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        manifest: &RequestManifest,
    ) {
        let _ = self.store.put(key, encode_manifest(ctx, manifest));
    }

    /// The lookup → compute → store spine for the baseline-training
    /// artifact: one code path shared by
    /// [`crate::pipeline::stages::characterize::PrepareStage`] and the
    /// characterization service.
    pub fn cached_training(
        &self,
        ctx: &PipelineCtx<'_>,
        kind: NetworkKind,
        key: Digest128,
        compute: impl FnOnce() -> Prepared,
    ) -> Prepared {
        if let Some(hit) = self.lookup_training(ctx, kind, key) {
            return hit;
        }
        let mut fresh = compute();
        self.store_training(ctx, key, &mut fresh);
        fresh
    }

    /// The lookup → compute → store spine for the GEMM-capture artifact.
    pub fn cached_captures(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        compute: impl FnOnce() -> Vec<GemmCapture>,
    ) -> Vec<GemmCapture> {
        if let Some(hit) = self.lookup_captures(key) {
            return hit;
        }
        let fresh = compute();
        self.store_captures(ctx, key, &fresh);
        fresh
    }

    /// The lookup → compute → store spine for the power-characterization
    /// artifact.
    pub fn cached_characterization(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        compute: impl FnOnce() -> Characterization,
    ) -> Characterization {
        if let Some(hit) = self.lookup_characterization(key) {
            return hit;
        }
        let fresh = compute();
        self.store_characterization(ctx, key, &fresh);
        fresh
    }

    /// The lookup → compute → store spine for the timing artifact.
    pub fn cached_timing(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        compute: impl FnOnce() -> WeightTimingProfile,
    ) -> WeightTimingProfile {
        if let Some(hit) = self.lookup_timing(key) {
            return hit;
        }
        let fresh = compute();
        self.store_timing(ctx, key, &fresh);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig, Scale};

    fn micro_ctx_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::for_scale(Scale::Micro);
        cfg.cache = false;
        Pipeline::new(cfg)
    }

    #[test]
    fn keys_commit_to_configuration() {
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let base = timing_key(&ctx, 100.0);
        assert_eq!(base, timing_key(&ctx, 100.0));
        assert_ne!(base, timing_key(&ctx, 101.0));

        let mut cfg2 = *p.ctx().cfg;
        cfg2.seed ^= 1;
        let p2 = Pipeline::new(cfg2);
        assert_ne!(base, timing_key(&p2.ctx(), 100.0));
    }

    #[test]
    fn characterization_key_commits_to_captures() {
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let mut capture = GemmCapture {
            layer: "l0".into(),
            weight_codes: vec![1, -2, 3, -4],
            act_codes: vec![9, 8, 7, 6],
            m: 2,
            k: 2,
            n: 2,
        };
        let a = characterization_key(&ctx, std::slice::from_ref(&capture));
        assert_eq!(
            a,
            characterization_key(&ctx, std::slice::from_ref(&capture))
        );
        capture.weight_codes[0] = 2;
        assert_ne!(
            a,
            characterization_key(&ctx, std::slice::from_ref(&capture))
        );
    }

    #[test]
    fn timing_and_characterization_keys_never_collide() {
        // Domain separation: even with degenerate inputs the two
        // artifact kinds key into disjoint spaces.
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        assert_ne!(timing_key(&ctx, 0.0), characterization_key(&ctx, &[]));
    }

    #[test]
    fn key_fields_are_order_insensitive_and_value_sensitive() {
        let mut a = KeyFields::new();
        a.u64("seed", 7);
        a.str("network", "LeNet5");
        a.f32("noise", 0.08);
        let mut b = KeyFields::new();
        b.f32("noise", 0.08);
        b.u64("seed", 7);
        b.str("network", "LeNet5");
        assert_eq!(a.finalize("test.v1"), b.finalize("test.v1"));
        // Any value change moves the key; so does the domain.
        let mut c = KeyFields::new();
        c.u64("seed", 8);
        c.str("network", "LeNet5");
        c.f32("noise", 0.08);
        assert_ne!(a.finalize("test.v1"), c.finalize("test.v1"));
        assert_ne!(a.finalize("test.v1"), a.finalize("test.v2"));
        // Same bits under a different type tag must not collide.
        let mut d = KeyFields::new();
        d.u64("x", 1);
        let mut e = KeyFields::new();
        e.usize("x", 1);
        assert_ne!(d.finalize("t"), e.finalize("t"));
    }

    #[test]
    #[should_panic(expected = "duplicate cache-key field")]
    fn key_fields_reject_duplicate_names() {
        let mut k = KeyFields::new();
        k.u64("seed", 1);
        k.u64("seed", 2);
        let _ = k.finalize("test");
    }

    #[test]
    fn training_key_commits_to_kind_seed_and_scale() {
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let base = training_key(&ctx, NetworkKind::LeNet5);
        assert_eq!(base, training_key(&ctx, NetworkKind::LeNet5));
        assert_ne!(base, training_key(&ctx, NetworkKind::ResNet20));

        let mut cfg2 = *ctx.cfg;
        cfg2.seed ^= 1;
        let p2 = Pipeline::new(cfg2);
        assert_ne!(base, training_key(&p2.ctx(), NetworkKind::LeNet5));

        let mut cfg3 = PipelineConfig::for_scale(Scale::Mini);
        cfg3.cache = false;
        let p3 = Pipeline::new(cfg3);
        assert_ne!(base, training_key(&p3.ctx(), NetworkKind::LeNet5));
    }

    #[test]
    fn capture_key_commits_to_network_state_and_restrictions() {
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let mut prepared = p.prepare(NetworkKind::LeNet5);
        let base = capture_key(&ctx, &mut prepared);
        assert_eq!(base, capture_key(&ctx, &mut prepared));

        // Installing a restriction moves the key; clearing restores it.
        prepared
            .net
            .set_weight_restriction(Some(nn::ValueSet::new([-1, 0, 1])));
        assert_ne!(base, capture_key(&ctx, &mut prepared));
        prepared.net.set_weight_restriction(None);
        assert_eq!(base, capture_key(&ctx, &mut prepared));

        // Perturbing a single parameter bit moves the key.
        prepared.net.visit_params(&mut |p| {
            if let Some(v) = p.value.data_mut().first_mut() {
                *v += 0.5;
            }
        });
        assert_ne!(base, capture_key(&ctx, &mut prepared));
    }

    #[test]
    fn request_key_commits_to_scale_network_and_seed() {
        let cfg = {
            let mut cfg = PipelineConfig::for_scale(Scale::Micro);
            cfg.cache = false;
            cfg
        };
        let base = request_key(&cfg, NetworkKind::LeNet5);
        assert_eq!(base, request_key(&cfg, NetworkKind::LeNet5));
        assert_ne!(base, request_key(&cfg, NetworkKind::ResNet20));
        let mut cfg2 = cfg;
        cfg2.seed ^= 1;
        assert_ne!(base, request_key(&cfg2, NetworkKind::LeNet5));
        let mut mini = PipelineConfig::for_scale(Scale::Mini);
        mini.cache = false;
        assert_ne!(base, request_key(&mini, NetworkKind::LeNet5));
        // Request keys live in their own domain: they can never collide
        // with a stage artifact key.
        let p = micro_ctx_pipeline();
        assert_ne!(base, training_key(&p.ctx(), NetworkKind::LeNet5));
    }

    #[test]
    fn manifest_round_trips_through_its_container() {
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let manifest = RequestManifest {
            training: training_key(&ctx, NetworkKind::LeNet5),
            capture: timing_key(&ctx, 1.0),
            characterization: characterization_key(&ctx, &[]),
            timing: timing_key(&ctx, f64::MAX),
            accuracy: 0.875,
            captures: 3,
            power_codes: 255,
        };
        let sections = encode_manifest(&ctx, &manifest);
        let decoded = decode_manifest(&sections).expect("decode manifest");
        assert_eq!(decoded, manifest);
        // Provenance rides along and labels the artifact.
        assert!(decode_provenance(&sections)
            .iter()
            .any(|(k, v)| k == "artifact" && v == "request-manifest"));
        // A truncated payload is a decode error (degrades to a miss),
        // never a panic.
        let mut truncated = sections;
        for s in &mut truncated {
            if s.id == section::MANIFEST {
                s.bytes.truncate(20);
            }
        }
        assert!(decode_manifest(&truncated).is_err());
        assert!(decode_manifest(&[]).is_err());
    }

    #[test]
    fn retrain_key_commits_to_state_mode_and_rng_position() {
        use rand::{Rng, SeedableRng};
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let (mut prepared, _) = untrained_prepared(&ctx, NetworkKind::LeNet5);
        let cfg = ctx.cfg.retrain_config();
        let rng = StdRng::seed_from_u64(1);
        let w: &[i32] = &[-2, 0, 2];
        let restricted = RetrainMode::Restricted {
            weights: Some(w),
            activations: None,
        };
        let base = retrain_key(&ctx, &mut prepared.net, restricted, &cfg, &rng);
        assert_eq!(
            base,
            retrain_key(&ctx, &mut prepared.net, restricted, &cfg, &rng)
        );
        // The mode moves the key.
        assert_ne!(
            base,
            retrain_key(
                &ctx,
                &mut prepared.net,
                RetrainMode::Prune { sparsity: 0.5 },
                &cfg,
                &rng
            )
        );
        assert_ne!(
            retrain_key(
                &ctx,
                &mut prepared.net,
                RetrainMode::Prune { sparsity: 0.5 },
                &cfg,
                &rng
            ),
            retrain_key(
                &ctx,
                &mut prepared.net,
                RetrainMode::Prune { sparsity: 0.6 },
                &cfg,
                &rng
            )
        );
        // The requested sets move the key — including None vs Some.
        assert_ne!(
            base,
            retrain_key(
                &ctx,
                &mut prepared.net,
                RetrainMode::Restricted {
                    weights: None,
                    activations: None
                },
                &cfg,
                &rng
            )
        );
        assert_ne!(
            base,
            retrain_key(
                &ctx,
                &mut prepared.net,
                RetrainMode::Restricted {
                    weights: Some(w),
                    activations: Some(w)
                },
                &cfg,
                &rng
            )
        );
        // The RNG stream position moves the key.
        let mut advanced = rng.clone();
        let _: u64 = advanced.random();
        assert_ne!(
            base,
            retrain_key(&ctx, &mut prepared.net, restricted, &cfg, &advanced)
        );
        // The entering network state moves the key.
        prepared.net.visit_params(&mut |p| {
            if let Some(v) = p.value.data_mut().first_mut() {
                *v += 0.5;
            }
        });
        assert_ne!(
            base,
            retrain_key(&ctx, &mut prepared.net, restricted, &cfg, &rng)
        );
    }

    #[test]
    fn retrain_artifact_restores_the_network_bit_exactly() {
        use rand::SeedableRng;
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let (mut prepared, _) = untrained_prepared(&ctx, NetworkKind::LeNet5);
        let dir = std::env::temp_dir().join(format!(
            "powerpruning-retrain-artifact-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CharCache::open(&dir).expect("open cache");
        let rng_exit = StdRng::seed_from_u64(9);
        let key = training_key(&ctx, NetworkKind::LeNet5);

        let mut stored_state = Vec::new();
        nn::serialize::save_state(&mut prepared.net, &mut stored_state).unwrap();
        cache.store_retrain(&ctx, key, &mut prepared.net, 0.75, &rng_exit);

        // Perturb every parameter; the hit must restore the stored bits.
        prepared.net.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v += 1.0;
            }
        });
        let (acc, exit) = cache
            .lookup_retrain(&mut prepared.net, key)
            .expect("stored artifact should hit");
        assert_eq!(acc.to_bits(), 0.75f64.to_bits());
        assert_eq!(exit, rng_exit.state());
        let mut restored = Vec::new();
        nn::serialize::save_state(&mut prepared.net, &mut restored).unwrap();
        assert_eq!(restored, stored_state, "hit did not restore bit-exactly");

        // An absent key is a miss and leaves the network untouched.
        let other = timing_key(&ctx, 1.0);
        assert!(cache.lookup_retrain(&mut prepared.net, other).is_none());
        let mut after_miss = Vec::new();
        nn::serialize::save_state(&mut prepared.net, &mut after_miss).unwrap();
        assert_eq!(after_miss, stored_state);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_round_trips() {
        let p = micro_ctx_pipeline();
        let sections = vec![provenance_section(&p.ctx(), "unit-test")];
        let pairs = decode_provenance(&sections);
        assert!(pairs
            .iter()
            .any(|(k, v)| k == "artifact" && v == "unit-test"));
        assert!(pairs.iter().any(|(k, _)| k == "created_unix"));
        assert!(decode_provenance(&[]).is_empty());
    }
}
