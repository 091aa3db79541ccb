//! Warm-start caching of every expensive pipeline stage.
//!
//! All five artifact-producing stages are pure functions of their
//! inputs, so each gets a content-addressed key and an `Artifact`
//! codec:
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
//!   **timing** ([`timing_key`]) — commit to the cell library, netlist
//!   structures, seeds, budgets and capture content.
//! * sweep-point **retraining** ([`retrain_key`]) — commits to the
//!   entering network state (parameters, buffers, installed
//!   restrictions), the requested mode (pruning sparsity or the value
//!   sets to install), the full retrain configuration and the exact RNG
//!   stream position; the artifact is the post-retrain network state,
//!   the measured accuracy and the **exit** RNG state, so a hit resumes
//!   the sweep bit-identically without replaying a single epoch.
//!
//! Every stage runs through one lookup → compute → store path,
//! `CharCache::cached`: it reads and decodes the stored artifact,
//! counts the hit or miss under the kind's `charcache_<kind>_*`
//! counters, and on a miss computes, prepends a provenance section and
//! stores. Adding a cached stage means writing one key function and one
//! `Artifact` impl, whose counter pair is one more `CharCache` field.
//! The request manifest ([`request_key`]) is stored the same way but
//! left uncounted.
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
//! skew, a stored state that does not fit the network) degrade to a
//! miss and the artifact is recomputed and rewritten.

use crate::chars::{MacHardware, PsumBinning, WeightPowerProfile};
use crate::pipeline::stages::characterize::dataset_spec;
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
use nn::train::TrainConfig;
use obs::metrics::InstanceCounter;
use rand::rngs::StdRng;
use std::io;
use std::path::Path;
use std::sync::Arc;
use systolic::{MacEnergyModel, TransitionStats};

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

/// Commits every optimizer hyperparameter of `tc` under `opt.*`. The
/// destructuring names every field, so a new [`TrainConfig`] field does
/// not compile until it is committed here, for [`training_key`] and
/// [`retrain_key`] alike.
fn commit_train_config(k: &mut KeyFields, tc: &TrainConfig) {
    let TrainConfig {
        epochs,
        batch_size,
        lr,
        momentum,
        weight_decay,
        lr_decay,
        clip_norm,
    } = *tc;
    k.usize("opt.epochs", epochs);
    k.usize("opt.batch_size", batch_size);
    k.f32("opt.lr", lr);
    k.f32("opt.momentum", momentum);
    k.f32("opt.weight_decay", weight_decay);
    k.f32("opt.lr_decay", lr_decay);
    k.bool("opt.clip", clip_norm.is_some());
    k.f32("opt.clip_norm", clip_norm.unwrap_or(0.0));
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
    commit_train_config(&mut k, &cfg.train_config(cfg.baseline_epochs()));
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
/// Commits to the complete network state (`network_state_digest` over
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
/// (`network_state_digest` over parameters and buffers, plus the
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
    commit_train_config(&mut k, &cfg.train);
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

/// One kind of stored stage artifact: the label its provenance section
/// carries, the hit/miss counters its lookups bump and the codec of its
/// payload sections. [`CharCache::cached`] does the rest.
///
/// `Base` is `()` for self-contained kinds and the caller's [`Network`]
/// for training and retraining, whose stored state is loaded over that
/// network in place.
pub(crate) trait Artifact: Sized {
    /// What the artifact is decoded into besides the returned value.
    type Base;
    /// The `artifact` entry of the provenance section.
    const LABEL: &'static str;
    /// This kind's hit/miss pair on `cache`; `None` leaves it uncounted.
    fn counters(cache: &CharCache) -> Option<&HitMiss>;
    /// The payload sections (the provenance section is added by the
    /// cache). Takes the base mutably because state serialization
    /// visits parameters through `&mut` hooks.
    fn encode(&self, base: &mut Self::Base) -> Vec<Section>;
    /// Decodes the payload sections. On an error `base` is left
    /// untouched, so the miss recomputes from the caller's own state.
    fn decode(sections: &[Section], base: &mut Self::Base) -> io::Result<Self>;
}

/// A section whose bytes `write` produces.
fn write_section(id: u32, write: impl FnOnce(&mut Vec<u8>)) -> Section {
    let mut bytes = Vec::new();
    write(&mut bytes);
    Section::new(id, bytes)
}

/// Reads section `id` whole through `read`: a missing section or bytes
/// left over are decode errors.
fn read_section<'a, T>(
    sections: &'a [Section],
    id: u32,
    read: impl FnOnce(&mut Reader<'a>) -> io::Result<T>,
) -> io::Result<T> {
    let s = find(sections, id)
        .ok_or_else(|| wire::invalid(format!("artifact is missing section {id}")))?;
    let mut r = Reader::new(&s.bytes);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// A stored baseline training: the trained state, loaded into the
/// caller's freshly built network, and its test accuracy.
pub(crate) struct Trained {
    /// Test accuracy after QAT.
    pub(crate) accuracy: f64,
}

impl Artifact for Trained {
    type Base = Network;
    const LABEL: &'static str = "training";

    fn counters(cache: &CharCache) -> Option<&HitMiss> {
        Some(&cache.training)
    }

    fn encode(&self, net: &mut Network) -> Vec<Section> {
        vec![
            write_section(section::NET_STATE, |b| {
                nn::serialize::save_state(net, b).expect("Vec writes cannot fail");
            }),
            write_section(section::ACCURACY, |b| wire::put_f64(b, self.accuracy)),
        ]
    }

    /// Loads the state last and all or nothing, so a rejected artifact
    /// never touches the network.
    fn decode(sections: &[Section], net: &mut Network) -> io::Result<Trained> {
        let accuracy = read_section(sections, section::ACCURACY, Reader::f64)?;
        let state = find(sections, section::NET_STATE)
            .ok_or_else(|| wire::invalid("artifact is missing the network state"))?;
        nn::serialize::load_state(net, state.bytes.as_slice())?;
        Ok(Trained { accuracy })
    }
}

/// A stored sweep-point retraining: a [`Trained`] artifact plus the RNG
/// state at exit, so the caller resumes its stream where the original
/// retraining left it.
pub(crate) struct Retrained {
    /// Test accuracy after retraining.
    pub(crate) accuracy: f64,
    /// RNG state at exit.
    pub(crate) rng_state: [u64; 4],
}

impl Artifact for Retrained {
    type Base = Network;
    const LABEL: &'static str = "retrain";

    fn counters(cache: &CharCache) -> Option<&HitMiss> {
        Some(&cache.retrain)
    }

    fn encode(&self, net: &mut Network) -> Vec<Section> {
        let accuracy = self.accuracy;
        let mut sections = Trained { accuracy }.encode(net);
        sections.push(write_section(section::RNG_STATE, |b| {
            for word in self.rng_state {
                wire::put_u64(b, word);
            }
        }));
        sections
    }

    fn decode(sections: &[Section], net: &mut Network) -> io::Result<Retrained> {
        let rng_state = read_section(sections, section::RNG_STATE, |r| {
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = r.u64()?;
            }
            Ok(state)
        })?;
        let Trained { accuracy } = Trained::decode(sections, net)?;
        Ok(Retrained {
            accuracy,
            rng_state,
        })
    }
}

impl Artifact for Vec<GemmCapture> {
    type Base = ();
    const LABEL: &'static str = "capture";

    fn counters(cache: &CharCache) -> Option<&HitMiss> {
        Some(&cache.captures)
    }

    fn encode(&self, _: &mut ()) -> Vec<Section> {
        vec![write_section(section::CAPTURES, |b| {
            nn::serialize::write_captures(self, b);
        })]
    }

    fn decode(sections: &[Section], _: &mut ()) -> io::Result<Self> {
        read_section(sections, section::CAPTURES, nn::serialize::read_captures)
    }
}

impl Artifact for Characterization {
    type Base = ();
    const LABEL: &'static str = "characterization";

    fn counters(cache: &CharCache) -> Option<&HitMiss> {
        Some(&cache.characterization)
    }

    fn encode(&self, _: &mut ()) -> Vec<Section> {
        vec![
            write_section(section::STATS, |b| self.stats.write_to(b)),
            write_section(section::BINNING, |b| self.binning.write_to(b)),
            write_section(section::POWER_PROFILE, |b| self.power_profile.write_to(b)),
            write_section(section::ENERGY_MODEL, |b| self.energy_model.write_to(b)),
        ]
    }

    fn decode(sections: &[Section], _: &mut ()) -> io::Result<Self> {
        Ok(Characterization {
            stats: read_section(sections, section::STATS, TransitionStats::read_from)?,
            binning: read_section(sections, section::BINNING, PsumBinning::read_from)?,
            power_profile: read_section(
                sections,
                section::POWER_PROFILE,
                WeightPowerProfile::read_from,
            )?,
            energy_model: read_section(sections, section::ENERGY_MODEL, MacEnergyModel::read_from)?,
        })
    }
}

impl Artifact for WeightTimingProfile {
    type Base = ();
    const LABEL: &'static str = "timing";

    fn counters(cache: &CharCache) -> Option<&HitMiss> {
        Some(&cache.timing)
    }

    fn encode(&self, _: &mut ()) -> Vec<Section> {
        vec![write_section(section::TIMING_PROFILE, |b| self.write_to(b))]
    }

    fn decode(sections: &[Section], _: &mut ()) -> io::Result<Self> {
        read_section(sections, section::TIMING_PROFILE, Self::read_from)
    }
}

impl Artifact for RequestManifest {
    type Base = ();
    const LABEL: &'static str = "request-manifest";

    /// Uncounted: a manifest answers a whole request, not a stage, and
    /// the service accounts for requests itself.
    fn counters(_: &CharCache) -> Option<&HitMiss> {
        None
    }

    fn encode(&self, _: &mut ()) -> Vec<Section> {
        vec![write_section(section::MANIFEST, |b| {
            for (_, key) in self.stage_keys() {
                b.extend_from_slice(&key.0);
            }
            wire::put_f64(b, self.accuracy);
            wire::put_u64(b, self.captures);
            wire::put_u64(b, self.power_codes);
        })]
    }

    fn decode(sections: &[Section], _: &mut ()) -> io::Result<Self> {
        read_section(sections, section::MANIFEST, |r| {
            let mut digest = || -> io::Result<Digest128> {
                let mut d = Digest128([0; 16]);
                d.0.copy_from_slice(r.take(16)?);
                Ok(d)
            };
            let (training, capture) = (digest()?, digest()?);
            let (characterization, timing) = (digest()?, digest()?);
            Ok(RequestManifest {
                training,
                capture,
                characterization,
                timing,
                accuracy: r.f64()?,
                captures: r.u64()?,
                power_codes: r.u64()?,
            })
        })
    }
}

/// The stored container of an artifact: a fresh provenance section,
/// then the payload sections.
fn container<A: Artifact>(ctx: &PipelineCtx<'_>, artifact: &A, base: &mut A::Base) -> Vec<Section> {
    let mut sections = vec![provenance_section(ctx, A::LABEL)];
    sections.extend(artifact.encode(base));
    sections
}

/// Stage-artifact hits and misses of one [`CharCache`], summed over its
/// five counted kinds (training, capture, characterization, timing and
/// retrain; request manifests are not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the store (any tier).
    pub hits: u64,
    /// Lookups that found no usable artifact, so the stage recomputed
    /// it: trained, captured, simulated or retrained.
    pub misses: u64,
}

/// The hit and miss counts of one artifact kind on one [`CharCache`];
/// each also feeds the registry counter it is named after.
#[derive(Debug)]
pub(crate) struct HitMiss {
    hits: InstanceCounter,
    misses: InstanceCounter,
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
    training: HitMiss,
    captures: HitMiss,
    characterization: HitMiss,
    timing: HitMiss,
    retrain: HitMiss,
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
        let pair = |hits, misses| HitMiss {
            hits: InstanceCounter::new(hits),
            misses: InstanceCounter::new(misses),
        };
        CharCache {
            store,
            training: pair(
                "charcache_training_hits_total",
                "charcache_training_misses_total",
            ),
            captures: pair(
                "charcache_captures_hits_total",
                "charcache_captures_misses_total",
            ),
            characterization: pair(
                "charcache_characterization_hits_total",
                "charcache_characterization_misses_total",
            ),
            timing: pair(
                "charcache_timing_hits_total",
                "charcache_timing_misses_total",
            ),
            retrain: pair(
                "charcache_retrain_hits_total",
                "charcache_retrain_misses_total",
            ),
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

    /// Snapshot of the hit/miss counts, summed over every counted kind.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        let kinds = [
            &self.training,
            &self.captures,
            &self.characterization,
            &self.timing,
            &self.retrain,
        ];
        CacheCounters {
            hits: kinds.iter().map(|k| k.hits.get()).sum(),
            misses: kinds.iter().map(|k| k.misses.get()).sum(),
        }
    }

    /// Reads and decodes the artifact under `key`, counting the outcome
    /// for counted kinds. A store miss or any decode failure is a miss
    /// and leaves `base` untouched.
    fn lookup<A: Artifact>(&self, key: Digest128, base: &mut A::Base) -> Option<A> {
        let hit = self.store.get(key).and_then(|s| A::decode(&s, base).ok());
        if let Some(c) = A::counters(self) {
            if hit.is_some() { &c.hits } else { &c.misses }.inc();
        }
        hit
    }

    /// Stores an artifact. Failures are swallowed: the caller keeps the
    /// value it computed; only warm starts are lost.
    fn put<A: Artifact>(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        artifact: &A,
        base: &mut A::Base,
    ) {
        let _ = self.store.put(key, container(ctx, artifact, base));
    }

    /// The lookup → compute → store spine every cached stage runs
    /// through: a hit decodes the artifact under `key` (into `base`
    /// where the kind has one); a miss runs `compute` on the untouched
    /// `base` and stores what it returns.
    pub(crate) fn cached<A: Artifact>(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        base: &mut A::Base,
        compute: impl FnOnce(&mut A::Base) -> A,
    ) -> A {
        if let Some(hit) = self.lookup(key, base) {
            return hit;
        }
        let fresh = compute(base);
        self.put(ctx, key, &fresh, base);
        fresh
    }

    /// Looks up a characterization artifact (counted; any store miss or
    /// decode failure is a miss).
    #[must_use]
    pub fn lookup_characterization(&self, key: Digest128) -> Option<Characterization> {
        self.lookup(key, &mut ())
    }

    /// Looks up a timing artifact (counted, as above).
    #[must_use]
    pub fn lookup_timing(&self, key: Digest128) -> Option<WeightTimingProfile> {
        self.lookup(key, &mut ())
    }

    /// Looks up a stored request manifest. Uncounted: a manifest
    /// answers a whole request, not a stage, and the service accounts
    /// for requests itself.
    #[must_use]
    pub fn lookup_manifest(&self, key: Digest128) -> Option<RequestManifest> {
        self.lookup(key, &mut ())
    }

    /// Stores a request manifest (failures swallowed; only warm answers
    /// are lost).
    pub fn store_manifest(
        &self,
        ctx: &PipelineCtx<'_>,
        key: Digest128,
        manifest: &RequestManifest,
    ) {
        self.put(ctx, key, manifest, &mut ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::stages::characterize::untrained_prepared;
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
        let sections = container(&ctx, &manifest, &mut ());
        let decoded = RequestManifest::decode(&sections, &mut ()).expect("decode manifest");
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
        assert!(RequestManifest::decode(&truncated, &mut ()).is_err());
        assert!(RequestManifest::decode(&[], &mut ()).is_err());
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
        let state = |net: &mut Network| {
            let mut bytes = Vec::new();
            nn::serialize::save_state(net, &mut bytes).unwrap();
            bytes
        };
        let p = micro_ctx_pipeline();
        let ctx = p.ctx();
        let (mut prepared, _) = untrained_prepared(&ctx, NetworkKind::LeNet5);
        let dir = std::env::temp_dir().join(format!(
            "powerpruning-retrain-artifact-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CharCache::open(&dir).expect("open cache");
        let key = training_key(&ctx, NetworkKind::LeNet5);
        let rng_state = StdRng::seed_from_u64(9).state();
        let stored_state = state(&mut prepared.net);
        let stored = Retrained {
            accuracy: 0.75,
            rng_state,
        };
        cache.put(&ctx, key, &stored, &mut prepared.net);

        // Perturb every parameter; the hit must restore the stored bits.
        prepared.net.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v += 1.0;
            }
        });
        let hit = cache
            .lookup::<Retrained>(key, &mut prepared.net)
            .expect("stored artifact should hit");
        assert_eq!(hit.accuracy.to_bits(), 0.75f64.to_bits());
        assert_eq!(hit.rng_state, rng_state);
        let restored = state(&mut prepared.net);
        assert_eq!(restored, stored_state, "hit did not restore bit-exactly");

        // An absent key is a miss and leaves the network untouched.
        let other = timing_key(&ctx, 1.0);
        assert!(cache
            .lookup::<Retrained>(other, &mut prepared.net)
            .is_none());
        assert_eq!(state(&mut prepared.net), stored_state);

        // A stored state that does not fit a network of another
        // structure is a counted miss: compute runs on that network's
        // unchanged state, and its artifact overwrites the stored one.
        let classes = prepared.train_data.classes() + 2;
        let mut wider = nn::models::tiny_cnn("micro", 3, 8, classes, &mut StdRng::seed_from_u64(3));
        let entering = state(&mut wider);
        let misses = cache.counters().misses;
        let _ = cache.cached(&ctx, key, &mut wider, |net| {
            assert_eq!(state(net), entering, "compute saw a half-loaded network");
            Retrained {
                accuracy: 0.5,
                rng_state: [1, 2, 3, 4],
            }
        });
        assert_eq!(cache.counters().misses, misses + 1);
        let replaced = cache
            .lookup::<Retrained>(key, &mut wider)
            .expect("the recomputed artifact replaced the stored one");
        assert_eq!(replaced.accuracy.to_bits(), 0.5f64.to_bits());
        assert_eq!(replaced.rng_state, [1, 2, 3, 4]);
        assert!(cache.lookup::<Retrained>(key, &mut prepared.net).is_none());

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
