//! The end-to-end PowerPruning flow and the experiment drivers behind
//! every table and figure of the paper.
//!
//! The flow (paper §III-C):
//!
//! 1. Quantization-aware training of the baseline network.
//! 2. Systolic execution to collect activation/partial-sum transition
//!    statistics (Fig. 4), then gate-level power characterization of
//!    every weight value (Fig. 2).
//! 3. Conventional magnitude pruning + retraining.
//! 4. Weight selection by power threshold + retraining (Fig. 8).
//! 5. Timing characterization (Fig. 3), then joint weight/activation
//!    selection by delay threshold + retraining (Fig. 9).
//! 6. Voltage scaling of the freed timing slack (Table I columns).
//!
//! Each step is a function in a [`stages`] module over a shared
//! [`stages::PipelineCtx`]; [`Pipeline`] here only composes them,
//! running the four cacheable steps under spans named `prepare`,
//! `capture`, `characterize` and `timing`.

mod config;
pub mod stages;

pub use config::{NetworkKind, PipelineConfig, Scale};

use crate::chars::{MacHardware, PsumBinning, WeightPowerProfile, WeightTimingProfile};
use crate::report::{Fig7Entry, Fig8Series, Fig9Series, Table1Row};
use crate::select::power::{select_by_power, threshold_for_count};
use crate::voltage::{VoltageModel, VoltageScaling};
use nn::data::{Dataset, LazyDataset};
use nn::layers::GemmCapture;
use nn::model::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stages::characterize;
use stages::select::{
    cached_prune_retrain, delay_window, retrain_with_retry, select_delay, select_power_count,
};
use stages::PipelineCtx;
use std::sync::LazyLock;
use systolic::{HwVariant, MacEnergyModel, SystolicArray, TransitionStats};

/// One registered wall-clock histogram per pipeline stage (the registry
/// has no labels, so each stage gets its own metric name), plus the
/// whole-request histogram the service percentiles come from.
macro_rules! stage_seconds {
    ($name:ident, $metric:literal) => {
        static $name: LazyLock<obs::metrics::Histogram> =
            LazyLock::new(|| obs::metrics::histogram($metric, obs::metrics::LATENCY_SECONDS));
    };
}

stage_seconds!(PREPARE_SECONDS, "pipeline_prepare_seconds");
stage_seconds!(CAPTURE_SECONDS, "pipeline_capture_seconds");
stage_seconds!(CHARACTERIZE_SECONDS, "pipeline_characterize_seconds");
stage_seconds!(TIMING_SECONDS, "pipeline_timing_seconds");
stage_seconds!(REQUEST_SECONDS, "pipeline_request_seconds");

/// The paper's MAC, built once per process: every pipeline characterizes
/// the same netlists, and building them costs more than the rest of a
/// pipeline's set-up.
static PAPER_HW: LazyLock<MacHardware> = LazyLock::new(MacHardware::paper_default);

/// A trained network with its datasets.
#[derive(Debug)]
pub struct Prepared {
    /// The (quantization-aware trained) network.
    pub net: Network,
    /// Training split, generated on its first read: only training
    /// reads it, so a request whose training and retraining stages all
    /// hit the store never generates it.
    pub train_data: LazyDataset,
    /// Test split.
    pub test_data: Dataset,
    /// Baseline test accuracy after QAT.
    pub accuracy: f64,
}

/// Hardware characterization products shared by the experiments.
#[derive(Debug)]
pub struct Characterization {
    /// Transition statistics from systolic execution.
    pub stats: TransitionStats,
    /// Partial-sum binning and bin-transition distribution.
    pub binning: PsumBinning,
    /// Per-weight power profile (Fig. 2).
    pub power_profile: WeightPowerProfile,
    /// Energy model handed to the array simulator.
    pub energy_model: MacEnergyModel,
}

/// The end-to-end experiment driver.
#[derive(Debug)]
pub struct Pipeline {
    /// Configuration.
    pub cfg: PipelineConfig,
    hw: &'static MacHardware,
    array: SystolicArray,
    voltage: VoltageModel,
    cache: Option<std::sync::Arc<crate::cache::CharCache>>,
}

impl Pipeline {
    /// Creates a pipeline at the given scale with the paper's 8-bit MAC.
    ///
    /// When `cfg.cache` is set (the default), the characterization
    /// artifact store described by the environment is attached — see
    /// [`crate::cache::CharCache::from_env`] for the knobs.
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> Self {
        let cache = if cfg.cache {
            crate::cache::CharCache::from_env()
        } else {
            None
        };
        Pipeline::with_cache(cfg, cache)
    }

    /// Creates a pipeline with an explicit artifact store directory
    /// instead of the environment-selected one — used by tests and
    /// benches. `cfg.cache = false` and the `POWERPRUNING_CACHE=off`
    /// kill switch both still disable caching, and so does a directory
    /// that cannot be opened.
    #[must_use]
    pub fn with_cache_dir(cfg: PipelineConfig, dir: impl AsRef<std::path::Path>) -> Self {
        Pipeline::with_cache_dir_remote(cfg, dir, None)
    }

    /// [`Pipeline::with_cache_dir`] with an optional remote object tier
    /// (`host:port` of a `charserve` daemon) behind the local store —
    /// the way a fleet worker with an empty local store answers every
    /// stage from a warmed daemon. The same cache kill switches apply.
    #[must_use]
    pub fn with_cache_dir_remote(
        cfg: PipelineConfig,
        dir: impl AsRef<std::path::Path>,
        remote: Option<&str>,
    ) -> Self {
        let cache = if cfg.cache && !crate::cache::CharCache::disabled_by_env() {
            crate::cache::CharCache::open_with_remote(dir, remote).ok()
        } else {
            None
        };
        Pipeline::with_cache(cfg, cache)
    }

    fn with_cache(cfg: PipelineConfig, cache: Option<crate::cache::CharCache>) -> Self {
        Pipeline::with_cache_arc(cfg, cache.map(std::sync::Arc::new))
    }

    /// Creates a pipeline over an already-shared artifact cache — the
    /// `charserve` daemon path, where every worker thread serves
    /// requests through one store instance and one set of counters, and
    /// the `charstore warm` path, which opens the store itself so that
    /// it can report why a store cannot be opened.
    /// Attaches the cache unconditionally: a service explicitly handed
    /// a store must keep answering from it regardless of `cfg.cache` or
    /// the environment kill switch.
    #[must_use]
    pub fn with_shared_cache(
        cfg: PipelineConfig,
        cache: std::sync::Arc<crate::cache::CharCache>,
    ) -> Self {
        Pipeline::with_cache_arc(cfg, Some(cache))
    }

    fn with_cache_arc(
        cfg: PipelineConfig,
        cache: Option<std::sync::Arc<crate::cache::CharCache>>,
    ) -> Self {
        Pipeline {
            hw: &PAPER_HW,
            array: SystolicArray::new(cfg.array_config()),
            voltage: VoltageModel::finfet15(),
            cache,
            cfg,
        }
    }

    /// The characterized MAC hardware.
    #[must_use]
    pub fn hardware(&self) -> &MacHardware {
        self.hw
    }

    /// The systolic array simulator.
    #[must_use]
    pub fn array(&self) -> &SystolicArray {
        &self.array
    }

    /// The attached artifact cache, if caching is enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&crate::cache::CharCache> {
        self.cache.as_deref()
    }

    /// The shared stage context of this pipeline.
    #[must_use]
    pub fn ctx(&self) -> PipelineCtx<'_> {
        PipelineCtx {
            cfg: &self.cfg,
            hw: self.hw,
            array: &self.array,
            voltage: &self.voltage,
            cache: self.cache.as_deref(),
        }
    }

    /// Trains the quantization-aware baseline for a network kind.
    #[must_use]
    pub fn prepare(&self, kind: NetworkKind) -> Prepared {
        let _span = obs::span("prepare");
        PREPARE_SECONDS.time(|| characterize::prepare(&self.ctx(), kind))
    }

    /// Captures the quantized GEMMs of a forward pass over a fixed
    /// evaluation batch.
    #[must_use]
    pub fn capture(&self, prepared: &mut Prepared) -> Vec<GemmCapture> {
        let _span = obs::span("capture");
        CAPTURE_SECONDS.time(|| characterize::capture(&self.ctx(), prepared))
    }

    /// Runs statistics collection + power characterization from captured
    /// GEMMs (paper Figs. 2 and 4).
    #[must_use]
    pub fn characterize(&self, captures: &[GemmCapture]) -> Characterization {
        let _span = obs::span("characterize");
        CHARACTERIZE_SECONDS.time(|| characterize::characterize(&self.ctx(), captures))
    }

    /// Runs the timing characterization with the given slow-combination
    /// floor (paper Fig. 3).
    #[must_use]
    pub fn characterize_timing(&self, slow_floor_ps: f64) -> WeightTimingProfile {
        let _span = obs::span("timing");
        TIMING_SECONDS.time(|| characterize::timing(&self.ctx(), slow_floor_ps))
    }

    /// Serves one full characterization request — the unit the
    /// `charserve` daemon deduplicates: baseline training, GEMM
    /// capture, power characterization and the probe-floor timing pass,
    /// every stage consulting the attached cache through the same
    /// lookup → compute → store path the standalone pipeline uses.
    ///
    /// A stored [`crate::cache::RequestManifest`] under the request key
    /// answers the whole request without touching a single stage; a
    /// computed request writes that manifest so the next identical
    /// request (from any process sharing the store) is a pure store
    /// read. The returned [`crate::cache::CharacterizationRun`] reports
    /// the training-epoch and gate-transition cost paid — exactly zero
    /// for any request answered from a warm store; under concurrent
    /// *distinct* computations in one process the counters are
    /// process-global, so a computing request reports an upper bound on
    /// its own work (see [`crate::cache::CharacterizationRun`]).
    #[must_use]
    pub fn characterization_request(&self, kind: NetworkKind) -> crate::cache::CharacterizationRun {
        let mut span = obs::span("characterization_request");
        span.field("kind", format!("{kind:?}"));
        let started = std::time::Instant::now();
        let run = self.characterization_request_inner(kind);
        REQUEST_SECONDS.observe_duration(started.elapsed());
        span.field("manifest_hit", run.manifest_hit);
        run
    }

    fn characterization_request_inner(
        &self,
        kind: NetworkKind,
    ) -> crate::cache::CharacterizationRun {
        let request_key = crate::cache::request_key(&self.cfg, kind);
        if let Some(cache) = self.cache() {
            if let Some(manifest) = cache.lookup_manifest(request_key) {
                return crate::cache::CharacterizationRun {
                    request_key,
                    manifest,
                    manifest_hit: true,
                    training_epochs: 0,
                    sim_transitions: 0,
                };
            }
        }
        let epochs_before = nn::train::epochs_run();
        let transitions_before = gatesim::sim_transitions();
        let ctx = self.ctx();
        let mut prepared = self.prepare(kind);
        let training = crate::cache::training_key(&ctx, kind);
        // Capture key before the capture runs: the key commits to the
        // exact network state the forward pass reads.
        let capture = crate::cache::capture_key(&ctx, &mut prepared);
        let captures = self.capture(&mut prepared);
        let characterization = crate::cache::characterization_key(&ctx, &captures);
        let chars = self.characterize(&captures);
        let timing = crate::cache::timing_key(&ctx, f64::MAX);
        let _ = self.characterize_timing(f64::MAX);
        let manifest = crate::cache::RequestManifest {
            training,
            capture,
            characterization,
            timing,
            accuracy: prepared.accuracy,
            captures: captures.len() as u64,
            power_codes: chars.power_profile.codes().len() as u64,
        };
        if let Some(cache) = self.cache() {
            cache.store_manifest(&ctx, request_key, &manifest);
        }
        crate::cache::CharacterizationRun {
            request_key,
            manifest,
            manifest_hit: false,
            training_epochs: nn::train::epochs_run() - epochs_before,
            sim_transitions: gatesim::sim_transitions() - transitions_before,
        }
    }

    /// Measures total power on both hardware variants, mW.
    #[must_use]
    pub fn measure_power(
        &self,
        captures: &[GemmCapture],
        model: &MacEnergyModel,
    ) -> (systolic::NetworkEnergyReport, systolic::NetworkEnergyReport) {
        (
            self.array
                .run_network_energy(captures, model, HwVariant::Standard),
            self.array
                .run_network_energy(captures, model, HwVariant::Optimized),
        )
    }

    /// Runs the complete proposed flow for one network and produces its
    /// Table I row.
    #[must_use]
    pub fn run_table1_row(&self, kind: NetworkKind) -> Table1Row {
        let ctx = self.ctx();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xf00d ^ (kind as u64));

        // 1. Baseline QAT.
        let mut prepared = self.prepare(kind);
        let acc_orig = prepared.accuracy;
        let captures_orig = self.capture(&mut prepared);

        // 2. Characterize and measure the baseline.
        let chars = self.characterize(&captures_orig);
        let (std_orig, opt_orig) = self.measure_power(&captures_orig, &chars.energy_model);

        // 3. Conventional pruning.
        let _ = cached_prune_retrain(&ctx, &mut prepared, self.cfg.prune_sparsity, &mut rng);

        // 4. Weight selection by power threshold (targeting the paper's
        //    per-network weight-value count).
        let power_sel = select_power_count(&chars.power_profile, kind.paper_weight_target());
        let _ = retrain_with_retry(
            &ctx,
            &mut prepared,
            Some(&power_sel.weights),
            None,
            f64::NEG_INFINITY,
            &mut rng,
        );

        // 5. Timing characterization + delay sweep.
        let probe = self.characterize_timing(f64::MAX);
        let window = delay_window(&ctx, &probe);
        let timing = self.characterize_timing(window.floor_ps);

        let mut best_sel: Option<crate::select::DelaySelection> = None;
        let mut best_acc = acc_orig;
        let mut best_state = nn::serialize::save_state(&mut prepared.net);
        let mut threshold_ps = window.base_max_rounded_ps - self.cfg.delay_step_ps;
        for _ in 0..self.cfg.max_delay_steps {
            if threshold_ps < window.floor_ps.max(timing.psum_floor_ps) {
                break;
            }
            let sel = select_delay(&ctx, &timing, &power_sel.weights, threshold_ps);
            let acc = retrain_with_retry(
                &ctx,
                &mut prepared,
                Some(&sel.weights),
                Some(&sel.activations),
                acc_orig,
                &mut rng,
            );
            if acc + self.cfg.accuracy_drop_tolerance < acc_orig {
                // Accuracy dropped noticeably: roll back to the previous
                // point and stop. Its state restores the parameters and
                // the batch-norm running statistics; its restriction
                // sets are reinstalled below.
                nn::serialize::load_state(&mut prepared.net, &best_state)
                    .expect("a network's own state fits it");
                match &best_sel {
                    Some(prev) => {
                        prepared.net.set_weight_restriction(Some(nn::ValueSet::new(
                            prev.weights.iter().copied(),
                        )));
                        prepared
                            .net
                            .set_activation_restriction(Some(nn::ValueSet::new(
                                prev.activations.iter().copied(),
                            )));
                    }
                    None => {
                        prepared.net.set_weight_restriction(Some(nn::ValueSet::new(
                            power_sel.weights.iter().copied(),
                        )));
                        prepared.net.set_activation_restriction(None);
                    }
                }
                break;
            }
            best_acc = acc;
            best_state = nn::serialize::save_state(&mut prepared.net);
            best_sel = Some(sel);
            threshold_ps -= self.cfg.delay_step_ps;
        }

        let (weights, acts, achieved_ps) = match &best_sel {
            Some(sel) => (
                sel.weight_count(),
                sel.activation_count(),
                sel.threshold_ps.max(timing.psum_floor_ps),
            ),
            None => (
                power_sel.weights.len(),
                self.hw.act_levels(),
                window.base_max_rounded_ps,
            ),
        };

        // 6. Proposed power (restricted network) + voltage scaling.
        let captures_prop = self.capture(&mut prepared);
        let (std_prop_raw, opt_prop_raw) = self.measure_power(&captures_prop, &chars.energy_model);
        let scaling =
            VoltageScaling::from_delays(&self.voltage, window.base_max_rounded_ps, achieved_ps);
        let scaled_model = chars
            .energy_model
            .scaled(scaling.dynamic_factor, scaling.leakage_factor);
        let (std_prop, opt_prop) = self.measure_power(&captures_prop, &scaled_model);

        Table1Row {
            network: kind.label().to_string(),
            acc_orig,
            acc_prop: best_acc,
            std_orig_mw: std_orig.total_power_mw(),
            std_prop_mw: std_prop.total_power_mw(),
            opt_orig_mw: opt_orig.total_power_mw(),
            opt_prop_mw: opt_prop.total_power_mw(),
            weights,
            acts,
            max_delay_orig_ps: window.base_max_rounded_ps,
            max_delay_prop_ps: achieved_ps,
            vdd_label: scaling.label(),
            vs_std_pct: 100.0 * (std_prop_raw.total_power_mw() - std_prop.total_power_mw())
                / std_orig.total_power_mw(),
            vs_opt_pct: 100.0 * (opt_prop_raw.total_power_mw() - opt_prop.total_power_mw())
                / opt_orig.total_power_mw(),
        }
    }

    /// Fig. 7: Baseline vs conventional pruning vs proposed, on
    /// Optimized HW.
    #[must_use]
    pub fn compare_conventional(&self, kind: NetworkKind) -> Fig7Entry {
        let ctx = self.ctx();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x716 ^ (kind as u64));
        let mut prepared = self.prepare(kind);
        let captures = self.capture(&mut prepared);
        let chars = self.characterize(&captures);

        let mut points = Vec::new();
        let opt =
            self.array
                .run_network_energy(&captures, &chars.energy_model, HwVariant::Optimized);
        points.push((
            "Baseline".to_string(),
            opt.dynamic_power_mw(),
            opt.leakage_power_mw(),
            prepared.accuracy,
        ));

        let acc_pruned =
            cached_prune_retrain(&ctx, &mut prepared, self.cfg.prune_sparsity, &mut rng);
        let captures_pruned = self.capture(&mut prepared);
        let opt_pruned = self.array.run_network_energy(
            &captures_pruned,
            &chars.energy_model,
            HwVariant::Optimized,
        );
        points.push((
            "Pruned".to_string(),
            opt_pruned.dynamic_power_mw(),
            opt_pruned.leakage_power_mw(),
            acc_pruned,
        ));

        let sel = select_power_count(&chars.power_profile, kind.paper_weight_target());
        let acc_prop = retrain_with_retry(
            &ctx,
            &mut prepared,
            Some(&sel.weights),
            None,
            f64::NEG_INFINITY,
            &mut rng,
        );
        let captures_prop = self.capture(&mut prepared);
        let opt_prop = self.array.run_network_energy(
            &captures_prop,
            &chars.energy_model,
            HwVariant::Optimized,
        );
        points.push((
            "Proposed".to_string(),
            opt_prop.dynamic_power_mw(),
            opt_prop.leakage_power_mw(),
            acc_prop,
        ));

        Fig7Entry {
            network: kind.label().to_string(),
            points,
        }
    }

    /// Fig. 8: sequential power-threshold sweep (the paper's ladder
    /// None → 900 → 850 → 825 → 800 µW, expressed as the equivalent
    /// weight-value counts 255/86/61/48/36).
    #[must_use]
    pub fn power_threshold_sweep(&self, kind: NetworkKind) -> Fig8Series {
        let ctx = self.ctx();
        let counts = [255usize, 86, 61, 48, 36];
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xf18 ^ (kind as u64));
        let mut prepared = self.prepare(kind);
        let captures = self.capture(&mut prepared);
        let chars = self.characterize(&captures);

        let mut points = Vec::new();
        let opt =
            self.array
                .run_network_energy(&captures, &chars.energy_model, HwVariant::Optimized);
        points.push((
            f64::NAN,
            chars.power_profile.codes().len(),
            opt.dynamic_power_mw(),
            opt.leakage_power_mw(),
            prepared.accuracy,
        ));

        let baseline_acc = prepared.accuracy;
        for &count in &counts[1..] {
            let count = count.min(chars.power_profile.codes().len());
            let threshold = threshold_for_count(&chars.power_profile, count);
            let sel = select_by_power(&chars.power_profile, threshold);
            let acc = retrain_with_retry(
                &ctx,
                &mut prepared,
                Some(&sel.weights),
                None,
                baseline_acc,
                &mut rng,
            );
            let caps = self.capture(&mut prepared);
            let power =
                self.array
                    .run_network_energy(&caps, &chars.energy_model, HwVariant::Optimized);
            points.push((
                threshold,
                sel.weights.len(),
                power.dynamic_power_mw(),
                power.leakage_power_mw(),
                acc,
            ));
        }
        Fig8Series {
            network: kind.label().to_string(),
            points,
        }
    }

    /// Fig. 9: sequential max-delay sweep at a fixed power-selected
    /// weight set.
    #[must_use]
    pub fn delay_sweep(&self, kind: NetworkKind) -> Fig9Series {
        let ctx = self.ctx();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xf19 ^ (kind as u64));
        let mut prepared = self.prepare(kind);
        let captures = self.capture(&mut prepared);
        let chars = self.characterize(&captures);

        // Paper: weight threshold 825 µW for the first three networks,
        // 900 µW for EfficientNet — i.e. counts 48 and 86.
        let count = match kind {
            NetworkKind::EfficientNetLite => 86usize,
            _ => 48,
        };
        let power_sel = select_power_count(&chars.power_profile, count);
        let acc0 = retrain_with_retry(
            &ctx,
            &mut prepared,
            Some(&power_sel.weights),
            None,
            f64::NEG_INFINITY,
            &mut rng,
        );

        let probe = self.characterize_timing(f64::MAX);
        let window = delay_window(&ctx, &probe);
        let timing = self.characterize_timing(window.floor_ps);

        let mut points = vec![(
            window.base_max_rounded_ps,
            self.hw.act_levels(),
            power_sel.weights.len(),
            acc0,
        )];
        let mut threshold_ps = window.base_max_rounded_ps - self.cfg.delay_step_ps;
        for _ in 0..self.cfg.max_delay_steps {
            if threshold_ps < window.floor_ps.max(timing.psum_floor_ps) {
                break;
            }
            let sel = select_delay(&ctx, &timing, &power_sel.weights, threshold_ps);
            let acc = retrain_with_retry(
                &ctx,
                &mut prepared,
                Some(&sel.weights),
                Some(&sel.activations),
                acc0,
                &mut rng,
            );
            points.push((
                threshold_ps,
                sel.activation_count(),
                sel.weight_count(),
                acc,
            ));
            threshold_ps -= self.cfg.delay_step_ps;
        }
        Fig9Series {
            network: kind.label().to_string(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stages::characterize::dataset_spec;
    use super::*;

    /// A Micro pipeline without an artifact store: these tests check
    /// stage outputs, not caching, and must leave no store behind.
    fn micro_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::for_scale(Scale::Micro);
        cfg.cache = false;
        Pipeline::new(cfg)
    }

    #[test]
    fn prepare_trains_above_chance() {
        let p = micro_pipeline();
        let prepared = p.prepare(NetworkKind::LeNet5);
        // 10 classes; QAT micro training should beat chance.
        assert!(
            prepared.accuracy > 0.15,
            "baseline accuracy {} at chance",
            prepared.accuracy
        );
    }

    #[test]
    fn capture_produces_gemms_with_valid_codes() {
        let p = micro_pipeline();
        let mut prepared = p.prepare(NetworkKind::LeNet5);
        let captures = p.capture(&mut prepared);
        assert!(!captures.is_empty());
        for c in &captures {
            assert!(c.weight_codes.iter().all(|&w| w >= -127));
        }
    }

    #[test]
    fn characterization_produces_full_profile() {
        let p = micro_pipeline();
        let mut prepared = p.prepare(NetworkKind::LeNet5);
        let captures = p.capture(&mut prepared);
        let chars = p.characterize(&captures);
        assert_eq!(chars.power_profile.codes().len(), 255);
        assert!(chars.power_profile.power_uw(0) < chars.power_profile.power_uw(-105));
        let (std_p, opt_p) = p.measure_power(&captures, &chars.energy_model);
        assert!(opt_p.total_power_mw() <= std_p.total_power_mw());
    }

    #[test]
    fn dataset_specs_differ_between_train_and_test() {
        let p = micro_pipeline();
        let a = dataset_spec(&p.ctx(), NetworkKind::ResNet20, true);
        let b = dataset_spec(&p.ctx(), NetworkKind::ResNet20, false);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn resnet50_micro_uses_reduced_classes() {
        let p = micro_pipeline();
        let spec = dataset_spec(&p.ctx(), NetworkKind::ResNet50, true);
        assert_eq!(spec.classes, 20);
    }

    #[test]
    fn voltage_stage_scales_with_slack() {
        let p = micro_pipeline();
        let none = VoltageScaling::from_delays(&p.voltage, 180.0, 180.0);
        let some = VoltageScaling::from_delays(&p.voltage, 180.0, 150.0);
        assert!(some.dynamic_factor <= none.dynamic_factor);
    }
}
