//! Characterization-throughput bench: the production engines (`BitSim`
//! for power, `BatchSim` for timing) against the scalar
//! `settle`/`transition` oracle, at `Scale::Mini` sample budgets.
//!
//! Emits machine-readable JSON (also written to
//! `BENCH_CHARACTERIZATION.json`) with samples/sec for power and timing
//! characterization on both engines, the speedups, a bit-identical
//! cross-check of the produced profiles, cold-vs-warm pipeline
//! characterization timings against a fresh charstore, and a
//! fully-warm end-to-end pipeline measurement (all four cacheable
//! stages: prepare, capture, characterize, timing) asserting that the
//! warmed run performs **zero training epochs and zero gate-simulation
//! transitions** — so future PRs can track the perf trajectory.
//!
//! The `power_bitsim` block measures the production
//! `characterize_power` path, which packs 64 stimulus vectors per
//! machine word under a per-code prune plan on top of the same thread
//! pool the scalar oracle uses.
//!
//! Run: `cargo run -p powerpruning-bench --bin bench_characterization --release`
//!
//! Environment knobs:
//! * `POWERPRUNING_BENCH_STRIDE` — weight stride (default 16; 1 =
//!   every code, Mini-faithful but slow on one core).
//! * `POWERPRUNING_BENCH_POWER_SAMPLES` — per-weight power samples
//!   (default 2500, the `Scale::Mini` budget).
//! * `POWERPRUNING_BENCH_TIMING_SAMPLES` — per-weight timing samples
//!   (default 12288, the `Scale::Mini` budget).

use powerpruning::chars::{
    characterize_power, characterize_power_scalar, characterize_timing, characterize_timing_scalar,
    strided_codes, MacHardware, PowerConfig, PsumBinning, TimingConfig,
};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use std::time::Instant;
use systolic::stats::TransitionStats;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A Mini-shaped workload: realistic small-step activation transitions
/// plus a spread of partial-sum transitions.
fn workload() -> (TransitionStats, PsumBinning) {
    let mut stats = TransitionStats::new();
    for a in 0..255u8 {
        stats.record_activation(a, a.saturating_add(1), 25);
        stats.record_activation(a.saturating_add(1), a, 25);
        stats.record_activation(a, a ^ 0x0f, 2);
    }
    let psums: Vec<(i32, i32)> = (0..4000)
        .map(|i| {
            let x = (i as i64 * 2654435761) % (1 << 22) - (1 << 21);
            let y = (i as i64 * 40503 + 977) % (1 << 22) - (1 << 21);
            (x as i32, y as i32)
        })
        .collect();
    let binning = PsumBinning::from_samples(&psums, 50, 22, 1);
    (stats, binning)
}

struct Measurement {
    samples: usize,
    batched_s: f64,
    scalar_s: f64,
    identical: bool,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.batched_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"samples\": {}, ",
                "\"batched_s\": {:.3}, \"scalar_s\": {:.3}, ",
                "\"batched_samples_per_s\": {:.1}, \"scalar_samples_per_s\": {:.1}, ",
                "\"speedup\": {:.3}, \"identical\": {}}}"
            ),
            self.samples,
            self.batched_s,
            self.scalar_s,
            self.samples as f64 / self.batched_s,
            self.samples as f64 / self.scalar_s,
            self.speedup(),
            self.identical,
        )
    }
}

/// The production power path (BitSim, weight bus pinned per code)
/// against the scalar oracle. `gates_pruned` counts the gates the
/// per-code prune plans of one BitSim run removed (the
/// `gatesim_gates_pruned_total` delta).
struct PowerMeasurement {
    samples: usize,
    bitsim_s: f64,
    scalar_s: f64,
    gates_pruned: u64,
    identical: bool,
}

impl PowerMeasurement {
    fn speedup_over_scalar(&self) -> f64 {
        self.scalar_s / self.bitsim_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"samples\": {}, ",
                "\"bitsim_s\": {:.3}, \"scalar_s\": {:.3}, ",
                "\"bitsim_samples_per_s\": {:.1}, \"speedup_over_scalar\": {:.3}, ",
                "\"gates_pruned\": {}, \"identical\": {}}}"
            ),
            self.samples,
            self.bitsim_s,
            self.scalar_s,
            self.samples as f64 / self.bitsim_s,
            self.speedup_over_scalar(),
            self.gates_pruned,
            self.identical,
        )
    }
}

/// Times `characterize_power` against `characterize_power_scalar` as
/// the fastest of three interleaved runs per arm: a single BitSim run
/// lasts only tens of milliseconds at CI budgets, so one timing of each
/// arm reads scheduler noise as much as engine cost. Every BitSim
/// profile must equal the scalar one bit for bit.
fn measure_power(
    hw: &MacHardware,
    stats: &TransitionStats,
    binning: &PsumBinning,
    cfg: &PowerConfig,
) -> PowerMeasurement {
    let gates_pruned = || obs::metrics::counter_value("gatesim_gates_pruned_total").unwrap_or(0);
    let codes = strided_codes(&hw.weight_codes(), cfg.weight_stride).len();
    let mut m = PowerMeasurement {
        samples: codes * cfg.samples_per_weight,
        bitsim_s: f64::INFINITY,
        scalar_s: f64::INFINITY,
        gates_pruned: 0,
        identical: true,
    };
    for _ in 0..3 {
        let before = gates_pruned();
        let t = Instant::now();
        let bitsim = characterize_power(hw, stats, binning, cfg);
        m.bitsim_s = m.bitsim_s.min(t.elapsed().as_secs_f64());
        m.gates_pruned = gates_pruned().saturating_sub(before);
        let t = Instant::now();
        let scalar = characterize_power_scalar(hw, stats, binning, cfg);
        m.scalar_s = m.scalar_s.min(t.elapsed().as_secs_f64());
        m.identical &= bitsim == scalar;
    }
    m
}

struct WarmStart {
    cold_s: f64,
    warm_s: f64,
    /// Store hits of the *warm* pipeline run (expected: both stages).
    warm_hits: u64,
    /// Store misses of the *cold* pipeline run (expected: both stages).
    cold_misses: u64,
}

impl WarmStart {
    fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"cold_s\": {:.4}, \"warm_s\": {:.6}, \"speedup\": {:.1}, ",
                "\"cold_misses\": {}, \"warm_hits\": {}}}"
            ),
            self.cold_s,
            self.warm_s,
            self.speedup(),
            self.cold_misses,
            self.warm_hits,
        )
    }
}

/// Times the Micro-scale pipeline characterization stages cold (empty
/// charstore) and warm: the warm run uses a *fresh* pipeline sharing
/// only the store directory, so it exercises the persistent disk tier
/// (not the first pipeline's in-memory tier) and answers with zero
/// `BatchSim` transitions. Preparation and capture run *uncached* here
/// so the numbers stay characterize-only and comparable with earlier
/// PRs; [`measure_full_warm`] covers the end-to-end pipeline.
fn measure_warm_start() -> WarmStart {
    let dir = std::env::temp_dir().join(format!("charstore-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut uncached_cfg = PipelineConfig::for_scale(Scale::Micro);
    uncached_cfg.cache = false;
    let setup = Pipeline::new(uncached_cfg);
    let mut prepared = setup.prepare(NetworkKind::LeNet5);
    let captures = setup.capture(&mut prepared);
    let cold = Pipeline::with_cache_dir(PipelineConfig::for_scale(Scale::Micro), &dir);

    let t = Instant::now();
    let cold_chars = cold.characterize(&captures);
    let cold_timing = cold.characterize_timing(f64::MAX);
    let cold_s = t.elapsed().as_secs_f64();

    let warm = Pipeline::with_cache_dir(PipelineConfig::for_scale(Scale::Micro), &dir);
    let t = Instant::now();
    let warm_chars = warm.characterize(&captures);
    let warm_timing = warm.characterize_timing(f64::MAX);
    let warm_s = t.elapsed().as_secs_f64();

    assert_eq!(
        cold_chars.power_profile, warm_chars.power_profile,
        "warm power profile diverged from cold"
    );
    assert_eq!(cold_timing, warm_timing, "warm timing diverged from cold");
    let cold_counters = cold
        .cache()
        .expect("cache enabled (unset POWERPRUNING_CACHE to run the warm-start bench)")
        .counters();
    let warm_counters = warm
        .cache()
        .expect("cache enabled (unset POWERPRUNING_CACHE to run the warm-start bench)")
        .counters();
    let _ = std::fs::remove_dir_all(&dir);
    WarmStart {
        cold_s,
        warm_s: warm_s.max(1e-9),
        warm_hits: warm_counters.hits,
        cold_misses: cold_counters.misses,
    }
}

struct FullWarm {
    cold_s: f64,
    warm_s: f64,
    /// Store misses of the cold run (expected: all four stages).
    cold_misses: u64,
    /// Store hits of the warm run (expected: all four stages).
    warm_hits: u64,
    warm_misses: u64,
    /// Training epochs executed during the warm run (expected: 0).
    warm_training_epochs: u64,
    /// Gate-level transitions simulated during the warm run (expected: 0).
    warm_sim_transitions: u64,
    /// Whether every warm artifact was bit-identical to its cold twin.
    identical: bool,
}

impl FullWarm {
    fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"cold_s\": {:.4}, \"warm_s\": {:.6}, \"speedup\": {:.1}, ",
                "\"cold_misses\": {}, \"warm_hits\": {}, \"warm_misses\": {}, ",
                "\"warm_training_epochs\": {}, \"warm_sim_transitions\": {}, ",
                "\"identical\": {}}}"
            ),
            self.cold_s,
            self.warm_s,
            self.speedup(),
            self.cold_misses,
            self.warm_hits,
            self.warm_misses,
            self.warm_training_epochs,
            self.warm_sim_transitions,
            self.identical,
        )
    }
}

/// Times the complete cacheable Micro pipeline — prepare (baseline QAT
/// training), GEMM capture, power characterization, timing — cold
/// against an empty charstore and then warm on a fresh pipeline sharing
/// only the store directory. The warm run must be answered entirely
/// from the store: zero training epochs, zero gate-simulation
/// transitions, bit-identical artifacts.
fn measure_full_warm() -> FullWarm {
    let dir = std::env::temp_dir().join(format!("charstore-bench-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::for_scale(Scale::Micro);

    let cold = Pipeline::with_cache_dir(cfg, &dir);
    let t = Instant::now();
    let mut cold_prep = cold.prepare(NetworkKind::LeNet5);
    let cold_caps = cold.capture(&mut cold_prep);
    let cold_chars = cold.characterize(&cold_caps);
    let cold_timing = cold.characterize_timing(f64::MAX);
    let cold_s = t.elapsed().as_secs_f64();
    let cold_counters = cold.cache().expect("cache enabled").counters();

    let epochs_before = nn::train::epochs_run();
    let transitions_before = gatesim::sim_transitions();
    let warm = Pipeline::with_cache_dir(cfg, &dir);
    let t = Instant::now();
    let mut warm_prep = warm.prepare(NetworkKind::LeNet5);
    let warm_caps = warm.capture(&mut warm_prep);
    let warm_chars = warm.characterize(&warm_caps);
    let warm_timing = warm.characterize_timing(f64::MAX);
    let warm_s = t.elapsed().as_secs_f64();
    let warm_counters = warm.cache().expect("cache enabled").counters();

    // Divergence is *reported* here and asserted at the end of main,
    // after the JSON is printed and written — so a regression still
    // leaves the diagnostics artifact behind.
    let identical = warm_prep.accuracy.to_bits() == cold_prep.accuracy.to_bits()
        && warm_caps == cold_caps
        && warm_chars.power_profile == cold_chars.power_profile
        && warm_timing == cold_timing;

    let _ = std::fs::remove_dir_all(&dir);
    FullWarm {
        cold_s,
        warm_s: warm_s.max(1e-9),
        cold_misses: cold_counters.misses,
        warm_hits: warm_counters.hits,
        warm_misses: warm_counters.misses,
        warm_training_epochs: nn::train::epochs_run() - epochs_before,
        warm_sim_transitions: gatesim::sim_transitions() - transitions_before,
        identical,
    }
}

struct RetrainWarm {
    cold_s: f64,
    warm_s: f64,
    /// Retrain-cache misses of the cold sweep (every retraining point).
    cold_retrain_misses: u64,
    /// Retrain-cache hits of the warm sweep (expected: all points).
    warm_retrain_hits: u64,
    warm_retrain_misses: u64,
    /// Training epochs executed during the warm sweep (expected: 0).
    warm_training_epochs: u64,
    /// Whether the warm sweep's series was bit-identical to the cold one.
    identical: bool,
}

impl RetrainWarm {
    fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"cold_s\": {:.4}, \"warm_s\": {:.6}, \"speedup\": {:.1}, ",
                "\"cold_retrain_misses\": {}, \"warm_retrain_hits\": {}, ",
                "\"warm_retrain_misses\": {}, \"warm_training_epochs\": {}, ",
                "\"identical\": {}}}"
            ),
            self.cold_s,
            self.warm_s,
            self.speedup(),
            self.cold_retrain_misses,
            self.warm_retrain_hits,
            self.warm_retrain_misses,
            self.warm_training_epochs,
            self.identical,
        )
    }
}

/// Times the Micro power-threshold sweep — which retrains the network
/// at every kept-count point — cold against an empty charstore and then
/// warm on a fresh pipeline sharing only the store directory. The warm
/// sweep must replay every retraining from stored artifacts: zero
/// training epochs, zero retrain-cache misses, a bit-identical series.
fn measure_retrain_warm() -> RetrainWarm {
    let retrain_counter = |name: &str| obs::metrics::counter_value(name).unwrap_or(0);
    // Bit-pattern view of a series: the unconstrained first sweep point
    // has a NaN delay bound, and NaN != NaN under PartialEq.
    let series_bits = |s: &powerpruning::report::Fig8Series| -> Vec<(u64, usize, u64, u64, u64)> {
        s.points
            .iter()
            .map(|&(a, n, b, c, d)| (a.to_bits(), n, b.to_bits(), c.to_bits(), d.to_bits()))
            .collect()
    };
    let dir = std::env::temp_dir().join(format!("charstore-bench-retrain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::for_scale(Scale::Micro);

    let misses_before = retrain_counter("charcache_retrain_misses_total");
    let cold = Pipeline::with_cache_dir(cfg, &dir);
    let t = Instant::now();
    let cold_series = cold.power_threshold_sweep(NetworkKind::LeNet5);
    let cold_s = t.elapsed().as_secs_f64();
    let cold_retrain_misses = retrain_counter("charcache_retrain_misses_total") - misses_before;

    let epochs_before = nn::train::epochs_run();
    let hits_before = retrain_counter("charcache_retrain_hits_total");
    let misses_before = retrain_counter("charcache_retrain_misses_total");
    let warm = Pipeline::with_cache_dir(cfg, &dir);
    let t = Instant::now();
    let warm_series = warm.power_threshold_sweep(NetworkKind::LeNet5);
    let warm_s = t.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(&dir);
    RetrainWarm {
        cold_s,
        warm_s: warm_s.max(1e-9),
        cold_retrain_misses,
        warm_retrain_hits: retrain_counter("charcache_retrain_hits_total") - hits_before,
        warm_retrain_misses: retrain_counter("charcache_retrain_misses_total") - misses_before,
        warm_training_epochs: nn::train::epochs_run() - epochs_before,
        identical: warm_series.network == cold_series.network
            && series_bits(&warm_series) == series_bits(&cold_series),
    }
}

fn main() {
    let hw = MacHardware::paper_default();
    let stride = env_usize("POWERPRUNING_BENCH_STRIDE", 16);
    let power_samples = env_usize("POWERPRUNING_BENCH_POWER_SAMPLES", 2500);
    let timing_samples = env_usize("POWERPRUNING_BENCH_TIMING_SAMPLES", 12_288);
    let (stats, binning) = workload();

    // Number of weight codes actually simulated under the stride.
    let codes = strided_codes(&hw.weight_codes(), stride).len();

    eprintln!(
        "characterization throughput @ Mini budgets: {codes} weight codes, \
         {power_samples} power samples/code, {timing_samples} timing samples/code"
    );

    // --- Power characterization ---
    let power_cfg = PowerConfig {
        samples_per_weight: power_samples,
        seed: 0xbe7c_0001,
        clock_ps: 200.0,
        weight_stride: stride,
        baseline_fj_per_cycle: 90.0,
    };
    let power_bitsim = measure_power(&hw, &stats, &binning, &power_cfg);
    eprintln!(
        "power:  bitsim {:.3}s, scalar {:.3}s -> {:.2}x, {} gates pruned, identical: {}",
        power_bitsim.bitsim_s,
        power_bitsim.scalar_s,
        power_bitsim.speedup_over_scalar(),
        power_bitsim.gates_pruned,
        power_bitsim.identical
    );

    // --- Timing characterization ---
    let timing_cfg = TimingConfig {
        exhaustive: false,
        samples: timing_samples,
        seed: 0xbe7c_0002,
        slow_floor_ps: f64::MAX,
        weight_stride: stride,
    };
    let t = Instant::now();
    let batched_t = characterize_timing(&hw, &timing_cfg);
    let batched_ts = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scalar_t = characterize_timing_scalar(&hw, &timing_cfg);
    let scalar_ts = t.elapsed().as_secs_f64();
    let timing = Measurement {
        samples: codes * timing_samples,
        batched_s: batched_ts,
        scalar_s: scalar_ts,
        identical: batched_t == scalar_t,
    };
    eprintln!(
        "timing: batched {batched_ts:.2}s, scalar {scalar_ts:.2}s -> {:.2}x, identical: {}",
        timing.speedup(),
        timing.identical
    );

    // --- Pipeline warm start (charstore, characterize+timing only) ---
    let warm = measure_warm_start();
    eprintln!(
        "warm-start: cold {:.2}s ({} misses), warm {:.4}s ({} hits) -> {:.0}x",
        warm.cold_s,
        warm.cold_misses,
        warm.warm_s,
        warm.warm_hits,
        warm.speedup(),
    );

    // --- Fully-warm end-to-end pipeline (all four cacheable stages) ---
    let full = measure_full_warm();
    eprintln!(
        "full-warm:  cold {:.2}s ({} misses), warm {:.4}s ({} hits, {} epochs, {} transitions) -> {:.0}x",
        full.cold_s,
        full.cold_misses,
        full.warm_s,
        full.warm_hits,
        full.warm_training_epochs,
        full.warm_sim_transitions,
        full.speedup(),
    );

    // --- Warm retrain sweep (Fig. 8 power-threshold sweep replay) ---
    let retrain = measure_retrain_warm();
    eprintln!(
        "retrain-warm: cold {:.2}s ({} retrain misses), warm {:.4}s ({} hits, {} epochs) -> {:.0}x",
        retrain.cold_s,
        retrain.cold_retrain_misses,
        retrain.warm_s,
        retrain.warm_retrain_hits,
        retrain.warm_training_epochs,
        retrain.speedup(),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"characterization_throughput\",\n",
            "  \"scale\": \"mini\",\n",
            "  \"weight_codes\": {},\n",
            "  \"weight_stride\": {},\n",
            "  \"power_bitsim\": {},\n",
            "  \"timing\": {},\n",
            "  \"pipeline_warm_start\": {},\n",
            "  \"pipeline_full_warm\": {},\n",
            "  \"retrain_warm\": {}\n",
            "}}"
        ),
        codes,
        stride,
        power_bitsim.json(),
        timing.json(),
        warm.json(),
        full.json(),
        retrain.json(),
    );
    println!("{json}");
    if let Err(e) = std::fs::write("BENCH_CHARACTERIZATION.json", format!("{json}\n")) {
        eprintln!("could not write BENCH_CHARACTERIZATION.json: {e}");
    }

    assert!(
        power_bitsim.identical,
        "bit-parallel power profile diverged from scalar"
    );
    assert!(
        power_bitsim.gates_pruned > 0,
        "per-code pinned plans pruned no gates on the restricted sweep"
    );
    // The floor is no looser than the retired one of 3.5x over the
    // batched engine, which ran at a 2.31x median over scalar
    // (3.5 x 2.31 = 8.1); at CI budgets on a 2-vCPU VM this
    // measurement has a 10.5x median.
    assert!(
        power_bitsim.speedup_over_scalar() >= 8.1,
        "bit-parallel power path only {:.2}x faster than scalar",
        power_bitsim.speedup_over_scalar()
    );
    assert!(
        timing.identical,
        "batched timing profile diverged from scalar"
    );
    assert_eq!(warm.cold_misses, 2, "cold run should miss both artifacts");
    assert_eq!(warm.warm_hits, 2, "warm run should hit both artifacts");
    assert!(
        warm.speedup() >= 10.0,
        "warm characterization only {:.1}x faster than cold",
        warm.speedup()
    );
    assert_eq!(
        full.cold_misses, 4,
        "cold pipeline should miss all four stages"
    );
    assert_eq!(
        full.warm_hits, 4,
        "warm pipeline should hit all four stages"
    );
    assert_eq!(full.warm_misses, 0, "warm pipeline fell through the store");
    assert_eq!(
        full.warm_training_epochs, 0,
        "warm pipeline ran training epochs despite a warmed store"
    );
    assert_eq!(
        full.warm_sim_transitions, 0,
        "warm pipeline simulated gate transitions despite a warmed store"
    );
    assert!(
        full.identical,
        "warm pipeline artifacts diverged from the cold run"
    );
    assert!(
        full.speedup() >= 10.0,
        "fully-warm pipeline only {:.1}x faster than cold",
        full.speedup()
    );
    assert!(
        retrain.cold_retrain_misses > 0,
        "cold sweep consulted the retrain cache zero times"
    );
    assert_eq!(
        retrain.warm_retrain_misses, 0,
        "warm sweep fell through the retrain cache"
    );
    assert_eq!(
        retrain.warm_retrain_hits, retrain.cold_retrain_misses,
        "warm sweep should hit exactly the artifacts the cold sweep stored"
    );
    assert_eq!(
        retrain.warm_training_epochs, 0,
        "warm sweep ran training epochs despite a warmed store"
    );
    assert!(
        retrain.identical,
        "warm sweep series diverged from the cold run"
    );
    assert!(
        retrain.speedup() >= 5.0,
        "warm retrain sweep only {:.1}x faster than cold",
        retrain.speedup()
    );
}
