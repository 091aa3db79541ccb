//! Criterion benches for the ablation axes of `src/bin/ablations.rs`:
//! how the runtime of each stage scales with its governing parameter
//! (bin count, restart count, transition sample count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powerpruning::chars::{characterize_power, MacHardware, PowerConfig, PsumBinning};
use powerpruning::chars::{WeightTiming, WeightTimingProfile};
use powerpruning::select::delay::{select_by_delay, DelaySelectionConfig};
use std::hint::black_box;
use systolic::stats::TransitionStats;

fn workload() -> (TransitionStats, Vec<(i32, i32)>) {
    let mut stats = TransitionStats::new();
    for a in 0..255u8 {
        stats.record_activation(a, a.saturating_add(1), 25);
        stats.record_activation(a.saturating_add(1), a, 25);
    }
    let psums: Vec<(i32, i32)> = (0..3000)
        .map(|i| {
            let x = (i as i64 * 2654435761) % (1 << 22) - (1 << 21);
            let y = (i as i64 * 40503 + 977) % (1 << 22) - (1 << 21);
            (x as i32, y as i32)
        })
        .collect();
    (stats, psums)
}

fn ablation_bins(c: &mut Criterion) {
    let (_, psums) = workload();
    let mut group = c.benchmark_group("ablation_bins");
    for bins in [10usize, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, &bins| {
            b.iter(|| black_box(PsumBinning::from_samples(&psums, bins, 22, 1)));
        });
    }
    group.finish();
}

fn ablation_sampling(c: &mut Criterion) {
    let hw = MacHardware::paper_default();
    let (stats, psums) = workload();
    let binning = PsumBinning::from_samples(&psums, 50, 22, 1);
    let mut group = c.benchmark_group("ablation_sampling");
    group.sample_size(10);
    for samples in [32usize, 128, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(samples),
            &samples,
            |b, &samples| {
                b.iter(|| {
                    black_box(characterize_power(
                        &hw,
                        &stats,
                        &binning,
                        &PowerConfig {
                            samples_per_weight: samples,
                            seed: 1,
                            clock_ps: 200.0,
                            weight_stride: 32,
                            baseline_fj_per_cycle: 90.0,
                        },
                    ))
                });
            },
        );
    }
    group.finish();
}

fn ablation_restarts(c: &mut Criterion) {
    let per_weight: Vec<WeightTiming> = (-63i32..=63)
        .map(|code| {
            let slow: Vec<(u8, u8, f32)> = (0..32)
                .map(|i| {
                    let h = (code as i64 * 31 + i * 17) as u64;
                    (
                        (h % 256) as u8,
                        ((h >> 8) % 256) as u8,
                        150.0 + ((h >> 16) % 40) as f32,
                    )
                })
                .collect();
            WeightTiming {
                code,
                max_delay_ps: 190.0,
                histogram: vec![0; 4],
                slow,
            }
        })
        .collect();
    let profile = WeightTimingProfile {
        per_weight,
        psum_floor_ps: 60.0,
        adder_from_product_ps: vec![10.0; 17],
        slow_floor_ps: 140.0,
    };
    let candidates: Vec<i32> = (-63..=63).collect();

    let mut group = c.benchmark_group("ablation_restarts");
    for restarts in [1usize, 5, 20] {
        group.bench_with_input(
            BenchmarkId::from_parameter(restarts),
            &restarts,
            |b, &restarts| {
                b.iter(|| {
                    black_box(select_by_delay(
                        &profile,
                        &candidates,
                        256,
                        &DelaySelectionConfig {
                            threshold_ps: 160.0,
                            restarts,
                            seed: 5,
                            protected_weights: vec![0],
                            activation_bias: 4,
                        },
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, ablation_bins, ablation_sampling, ablation_restarts);
criterion_main!(benches);
