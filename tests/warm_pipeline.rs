//! End-to-end warm-path harness: the acceptance test that a
//! second Micro pipeline run against a warmed store performs **zero
//! training epochs and zero gate-simulation transitions** and emits a
//! bit-identical report.
//!
//! This lives in its own integration-test binary because the
//! observables — `nn::train::epochs_run()` and
//! `gatesim::sim_transitions()` — are process-global counters: any
//! concurrently running test that trains or simulates would pollute the
//! deltas. Keep this file to the single warm-path test.

use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use systolic::NetworkEnergyReport;

/// Everything a cacheable pipeline pass produces, plus the downstream
/// power report derived from it — the "Report" whose bits must not move
/// between a cold and a warm run.
#[derive(Debug, PartialEq)]
struct PipelineReport {
    accuracy_bits: u64,
    captures: Vec<nn::layers::GemmCapture>,
    stats: systolic::TransitionStats,
    binning: powerpruning::PsumBinning,
    power_profile: powerpruning::WeightPowerProfile,
    energy_model: systolic::MacEnergyModel,
    timing: powerpruning::WeightTimingProfile,
    std_power: NetworkEnergyReport,
    opt_power: NetworkEnergyReport,
}

fn run_pipeline(p: &Pipeline) -> PipelineReport {
    let mut prepared = p.prepare(NetworkKind::LeNet5);
    let captures = p.capture(&mut prepared);
    let chars = p.characterize(&captures);
    let timing = p.characterize_timing(f64::MAX);
    let (std_power, opt_power) = p.measure_power(&captures, &chars.energy_model);
    PipelineReport {
        accuracy_bits: prepared.accuracy.to_bits(),
        captures,
        stats: chars.stats,
        binning: chars.binning,
        power_profile: chars.power_profile,
        energy_model: chars.energy_model,
        timing,
        std_power,
        opt_power,
    }
}

#[test]
fn warm_micro_pipeline_runs_zero_epochs_and_zero_transitions() {
    let dir =
        std::env::temp_dir().join(format!("powerpruning-warm-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::for_scale(Scale::Micro);

    // Cold run: trains and simulates, populating the store.
    let cold = Pipeline::with_cache_dir(cfg, &dir);
    let cold_report = run_pipeline(&cold);
    let c = cold.cache().expect("cache enabled").counters();
    assert_eq!(c.misses, 4, "cold run must miss all four stages");
    assert!(
        nn::train::epochs_run() > 0,
        "cold run should have trained (counter wiring broken?)"
    );
    assert!(
        gatesim::sim_transitions() > 0,
        "cold run should have simulated (counter wiring broken?)"
    );

    // Warm run: a fresh pipeline sharing only the store directory.
    let epochs_before = nn::train::epochs_run();
    let transitions_before = gatesim::sim_transitions();
    let warm = Pipeline::with_cache_dir(cfg, &dir);
    let warm_report = run_pipeline(&warm);
    let epochs = nn::train::epochs_run() - epochs_before;
    let transitions = gatesim::sim_transitions() - transitions_before;

    let w = warm.cache().expect("cache enabled").counters();
    assert_eq!(w.hits, 4, "warm run must answer all four stages");
    assert_eq!(w.misses, 0, "warm run fell through the store");
    assert_eq!(
        epochs, 0,
        "warm run executed {epochs} training epochs despite a warmed store"
    );
    assert_eq!(
        transitions, 0,
        "warm run simulated {transitions} gate transitions despite a warmed store"
    );
    assert_eq!(
        warm_report, cold_report,
        "warm report is not bit-identical to the cold one"
    );

    let _ = std::fs::remove_dir_all(dir);
}
