//! Warm-retrain harness: the acceptance test that the
//! sweeps' retraining loops replay from the artifact store — a second
//! power-threshold sweep against a warmed store performs **zero
//! training epochs**, restores the network bit-exactly at every hit,
//! and emits a bit-identical series; corrupting stored retrain
//! artifacts degrades to a recompute that still reproduces the series.
//!
//! This lives in its own integration-test binary because the
//! observables — `nn::train::epochs_run()`, `gatesim::sim_transitions()`
//! and the `charcache_retrain_*` registry counters — are process-global:
//! any concurrently running test that trains would pollute the deltas.
//! Keep this file to the single warm-retrain test.

use powerpruning::cache::decode_provenance;
use powerpruning::pipeline::stages::select::cached_restricted_retrain;
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn retrain_counter(name: &str) -> u64 {
    obs::metrics::counter_value(name).unwrap_or(0)
}

/// A sweep point with every float swapped for its bit pattern.
type PointBits = (u64, usize, u64, u64, u64);

/// Bit-pattern view of a sweep series: equality must hold through NaN
/// points (an unconstrained first point has no delay bound), so compare
/// `f64::to_bits` rather than `PartialEq`, which makes NaN != NaN.
fn series_bits(s: &powerpruning::report::Fig8Series) -> (String, Vec<PointBits>) {
    (
        s.network.clone(),
        s.points
            .iter()
            .map(|&(a, n, b, c, d)| (a.to_bits(), n, b.to_bits(), c.to_bits(), d.to_bits()))
            .collect(),
    )
}

/// Every stored retrain artifact's on-disk container path.
fn retrain_object_paths(p: &Pipeline, dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let store = p.cache().expect("cache enabled").store();
    let mut paths = Vec::new();
    for entry in store.entries().expect("store listing") {
        let Some(sections) = store.get(entry.key) else {
            continue;
        };
        let is_retrain = decode_provenance(&sections)
            .iter()
            .any(|(k, v)| k == "artifact" && v == "retrain");
        if is_retrain {
            paths.push(
                dir.join("objects")
                    .join(format!("{:02x}", entry.key.0[0]))
                    .join(format!("{}.ppc", entry.key.to_hex())),
            );
        }
    }
    paths
}

#[test]
fn warm_sweep_replays_retraining_with_zero_epochs() {
    let dir =
        std::env::temp_dir().join(format!("powerpruning-retrain-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::for_scale(Scale::Micro);
    let allowed: Vec<i32> = vec![-64, -32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32, 64];

    // --- Bit-exact hit: a fresh pipeline over the same store replays
    // one restricted retraining from the artifact, restoring the net
    // state, the accuracy bits and the RNG exit position exactly.
    let cold = Pipeline::with_cache_dir(cfg, &dir);
    let mut prepared = cold.prepare(NetworkKind::LeNet5);
    let mut rng = StdRng::seed_from_u64(0x51);
    let acc_cold =
        cached_restricted_retrain(&cold.ctx(), &mut prepared, Some(&allowed), None, &mut rng);
    let state_cold = nn::serialize::save_state(&mut prepared.net);

    let warm = Pipeline::with_cache_dir(cfg, &dir);
    let mut prepared_w = warm.prepare(NetworkKind::LeNet5);
    let mut rng_w = StdRng::seed_from_u64(0x51);
    let epochs_before = nn::train::epochs_run();
    let acc_warm = cached_restricted_retrain(
        &warm.ctx(),
        &mut prepared_w,
        Some(&allowed),
        None,
        &mut rng_w,
    );
    assert_eq!(
        nn::train::epochs_run() - epochs_before,
        0,
        "retrain hit must train zero epochs"
    );
    assert_eq!(
        acc_warm.to_bits(),
        acc_cold.to_bits(),
        "retrain hit returned different accuracy bits"
    );
    assert_eq!(
        nn::serialize::save_state(&mut prepared_w.net),
        state_cold,
        "retrain hit did not restore the network bit-exactly"
    );
    assert_eq!(rng_w, rng, "retrain hit did not resume the RNG stream");

    // --- Sweep level: the Fig. 8 power-threshold sweep retrains at
    // every kept-count point; a repeat against the warmed store must be
    // answered entirely from retrain artifacts.
    let misses_before = retrain_counter("charcache_retrain_misses_total");
    let sweep_cold = Pipeline::with_cache_dir(cfg, &dir);
    let series_cold = sweep_cold.power_threshold_sweep(NetworkKind::LeNet5);
    let cold_misses = retrain_counter("charcache_retrain_misses_total") - misses_before;
    assert!(
        cold_misses > 0,
        "cold sweep never consulted the retrain cache"
    );

    let epochs_before = nn::train::epochs_run();
    let transitions_before = gatesim::sim_transitions();
    let hits_before = retrain_counter("charcache_retrain_hits_total");
    let misses_before = retrain_counter("charcache_retrain_misses_total");
    let sweep_warm = Pipeline::with_cache_dir(cfg, &dir);
    let series_warm = sweep_warm.power_threshold_sweep(NetworkKind::LeNet5);
    assert_eq!(
        nn::train::epochs_run() - epochs_before,
        0,
        "warm sweep ran training epochs despite a warmed store"
    );
    assert_eq!(
        gatesim::sim_transitions() - transitions_before,
        0,
        "warm sweep simulated gate transitions despite a warmed store"
    );
    assert_eq!(
        retrain_counter("charcache_retrain_misses_total") - misses_before,
        0,
        "warm sweep fell through the retrain cache"
    );
    assert_eq!(
        retrain_counter("charcache_retrain_hits_total") - hits_before,
        cold_misses,
        "warm sweep should hit exactly the artifacts the cold sweep stored"
    );
    assert_eq!(
        series_bits(&series_warm),
        series_bits(&series_cold),
        "warm sweep series diverged"
    );

    // --- Corruption degrades to a recompute: flip a byte in every
    // stored retrain artifact; the whole-container checksum turns each
    // into a miss, the sweep retrains again, and the recomputed series
    // is still bit-identical (the keys pin the entire input state).
    let paths = retrain_object_paths(&sweep_warm, &dir);
    assert!(!paths.is_empty(), "no retrain artifacts found on disk");
    for path in &paths {
        let mut bytes = std::fs::read(path).expect("read artifact");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, bytes).expect("write corrupted artifact");
    }

    let epochs_before = nn::train::epochs_run();
    let misses_before = retrain_counter("charcache_retrain_misses_total");
    let sweep_again = Pipeline::with_cache_dir(cfg, &dir);
    let series_again = sweep_again.power_threshold_sweep(NetworkKind::LeNet5);
    assert!(
        nn::train::epochs_run() - epochs_before > 0,
        "corrupted artifacts should force a retraining recompute"
    );
    assert_eq!(
        retrain_counter("charcache_retrain_misses_total") - misses_before,
        cold_misses,
        "every corrupted retrain artifact should degrade to a miss"
    );
    assert_eq!(
        series_bits(&series_again),
        series_bits(&series_cold),
        "recomputed sweep series diverged from the original"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
