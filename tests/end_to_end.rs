//! End-to-end integration tests over the whole workspace: the complete
//! PowerPruning flow at Micro scale, checked against the paper's
//! qualitative claims.

use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};

/// A Micro pipeline without an artifact store: these tests check the
/// flow's outputs, not caching, and must leave no store behind.
fn micro() -> Pipeline {
    let mut cfg = PipelineConfig::for_scale(Scale::Micro);
    cfg.cache = false;
    Pipeline::new(cfg)
}

#[test]
fn table1_row_reproduces_paper_shape() {
    let pipeline = micro();
    let row = pipeline.run_table1_row(NetworkKind::LeNet5);

    // Power must go down on both hardware variants.
    assert!(
        row.std_prop_mw < row.std_orig_mw,
        "Standard HW power did not drop: {} -> {}",
        row.std_orig_mw,
        row.std_prop_mw
    );
    assert!(
        row.opt_prop_mw < row.opt_orig_mw,
        "Optimized HW power did not drop: {} -> {}",
        row.opt_orig_mw,
        row.opt_prop_mw
    );
    // Paper: Optimized HW saves relatively more than Standard HW
    // (gating removes the leakage floor the savings ride on).
    assert!(
        row.opt_reduction_pct() >= row.std_reduction_pct() - 5.0,
        "Optimized reduction {}% unexpectedly far below Standard {}%",
        row.opt_reduction_pct(),
        row.std_reduction_pct()
    );
    // Value selection actually restricts the spaces.
    assert!(row.weights < 255, "no weight values were pruned");
    assert!(row.acts <= 256);
    // Delay must not increase, voltage must not rise above nominal.
    assert!(row.max_delay_prop_ps <= row.max_delay_orig_ps);
    assert!(row.vdd_label.ends_with("/0.8"));
    // Accuracy loss stays within the configured tolerance + slack for
    // the micro budget.
    assert!(
        row.acc_prop >= row.acc_orig - 0.15,
        "accuracy collapsed: {} -> {}",
        row.acc_orig,
        row.acc_prop
    );
}

#[test]
fn fig7_pruned_and_proposed_reduce_power_in_order() {
    let pipeline = micro();
    let entry = pipeline.compare_conventional(NetworkKind::LeNet5);
    assert_eq!(entry.points.len(), 3);
    let total = |i: usize| entry.points[i].1 + entry.points[i].2;
    // Proposed (power-selected weights on top of pruning) should not
    // exceed the plain pruned power; both at or below baseline.
    assert!(total(1) <= total(0) * 1.02, "pruning increased power");
    assert!(
        total(2) <= total(1) * 1.05,
        "proposed increased power over pruned"
    );
}

#[test]
fn fig8_power_decreases_as_weight_set_shrinks() {
    let pipeline = micro();
    let series = pipeline.power_threshold_sweep(NetworkKind::LeNet5);
    assert!(series.points.len() >= 3);
    let first_total = series.points[0].2 + series.points[0].3;
    let last_total = {
        let p = series.points.last().unwrap();
        p.2 + p.3
    };
    assert!(
        last_total < first_total,
        "tightest threshold ({last_total} mW) should undercut baseline ({first_total} mW)"
    );
    // Weight counts are non-increasing along the ladder.
    for w in series.points.windows(2) {
        assert!(w[1].1 <= w[0].1, "weight count increased along the sweep");
    }
}

#[test]
fn fig9_activation_count_shrinks_with_delay_threshold() {
    let pipeline = micro();
    let series = pipeline.delay_sweep(NetworkKind::LeNet5);
    assert!(series.points.len() >= 2);
    // Thresholds decrease, activation counts never increase.
    for w in series.points.windows(2) {
        assert!(w[1].0 < w[0].0, "thresholds must decrease");
        assert!(
            w[1].1 <= w[0].1,
            "activation count increased as threshold tightened"
        );
    }
    // The first point is the full activation space.
    assert_eq!(series.points[0].1, 256);
}
