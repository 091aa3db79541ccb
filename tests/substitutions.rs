//! Tests pinning the substitution claims of the reproduction: the
//! calibrated substrate (cell library, Booth MAC, voltage model,
//! synthetic datasets) must actually have the properties that make it
//! a valid stand-in for the paper's EDA flow and datasets.

use gatesim::circuits::{MacCircuit, MultiplierKind};
use gatesim::{CellLibrary, Sta};
use powerpruning::voltage::VoltageModel;

/// The MAC critical path is calibrated to the paper's
/// ~180 ps post-synthesis value (within the 200 ps / 5 GHz clock).
#[test]
fn mac_critical_path_matches_paper_scale() {
    let lib = CellLibrary::nangate15_like();
    let mac = MacCircuit::with_architecture(
        8,
        8,
        22,
        gatesim::circuits::AdderKind::Cla4,
        MultiplierKind::Booth,
    );
    let sta = Sta::new(mac.netlist(), &lib).critical_path_ps();
    assert!(
        (150.0..=200.0).contains(&sta),
        "MAC STA {sta} ps out of the calibrated band"
    );
}

/// Booth recoding makes runs-of-ones (small negative)
/// weights cheap and alternating patterns expensive — the paper's
/// Fig. 2 ordering. The plain array orders by ones count instead.
/// Check the structural signature at the netlist level: pin the
/// weight and count the gates the prune plan leaves *live* (able to
/// toggle).
#[test]
fn booth_specialization_tracks_digit_activity() {
    use gatesim::circuits::BoothMultiplierCircuit;
    use gatesim::netlist::to_bits;
    use gatesim::PrunePlan;

    let lib = CellLibrary::nangate15_like();
    let mult = BoothMultiplierCircuit::new(8, 8);
    let live_gates = |weight: i64| -> usize {
        let mut pins: Vec<Option<bool>> = vec![None; mult.netlist().inputs().len()];
        for (pin, bit) in pins.iter_mut().zip(to_bits(weight, 8)) {
            *pin = Some(bit);
        }
        PrunePlan::new(mult.netlist(), &lib, &pins).live_gate_count()
    };
    // -2 = ...11111110: a single active Booth digit -> little logic
    // stays live. -105 = 10010111: four active digits -> much more
    // stays live.
    let cheap = live_gates(-2);
    let expensive = live_gates(-105);
    assert!(
        cheap < expensive,
        "-2 should leave fewer gates live ({cheap}) than -105 ({expensive})"
    );
    // Zero silences (almost) everything.
    assert!(live_gates(0) <= cheap);
}

/// The voltage model reproduces the paper's 180→140 ps ⇒
/// 0.71 V conversion within one table step.
#[test]
fn voltage_model_reproduces_paper_conversion() {
    let m = VoltageModel::finfet15();
    let vdd = m.min_vdd_for_delay_factor(180.0 / 140.0);
    assert!((0.69..=0.73).contains(&vdd), "got {vdd} V");
}

/// The synthetic datasets respond to weight-value
/// restriction the way the paper's tradeoff curves require — a heavy
/// restriction must not be free.
#[test]
fn synthetic_task_responds_to_restriction() {
    use nn::data::SyntheticSpec;
    use nn::models;
    use nn::quant::ValueSet;
    use nn::train::{evaluate, train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let train_ds = SyntheticSpec {
        classes: 6,
        size: 8,
        channels: 3,
        samples: 240,
        noise: 0.2,
        seed: 50,
    }
    .generate();
    let test_ds = SyntheticSpec {
        classes: 6,
        size: 8,
        channels: 3,
        samples: 96,
        noise: 0.2,
        seed: 51,
    }
    .generate();

    let mut rng = StdRng::seed_from_u64(0);
    let mut net = models::tiny_cnn("resp", 3, 8, 6, &mut rng);
    net.quantize = true;
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let _ = train(&mut net, &train_ds, &cfg, &mut rng);
    let free_acc = evaluate(&mut net, &test_ds, 64);

    // Brutal restriction: binary weights.
    net.set_weight_restriction(Some(ValueSet::new([-127, 127])));
    let restricted_acc = evaluate(&mut net, &test_ds, 64);
    assert!(
        restricted_acc < free_acc,
        "binary projection without retraining should cost accuracy ({restricted_acc} !< {free_acc})"
    );
    assert!(free_acc > 0.5, "baseline must be learnable ({free_acc})");
}

/// Per-weight characterized energies drive the array's
/// energy accounting; a network restricted to the cheapest codes must
/// measure lower array power end-to-end.
#[test]
fn end_to_end_energy_accounting_rewards_cheap_codes() {
    use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
    use powerpruning::select::power::{select_by_power, threshold_for_count};
    use systolic::HwVariant;

    // No artifact store: the test checks energies, not caching, and must
    // leave no store behind.
    let mut cfg = PipelineConfig::for_scale(Scale::Micro);
    cfg.cache = false;
    let pipeline = Pipeline::new(cfg);
    let mut prepared = pipeline.prepare(NetworkKind::LeNet5);
    let captures = pipeline.capture(&mut prepared);
    let chars = pipeline.characterize(&captures);
    let before =
        pipeline
            .array()
            .run_network_energy(&captures, &chars.energy_model, HwVariant::Optimized);

    let threshold = threshold_for_count(&chars.power_profile, 36);
    let sel = select_by_power(&chars.power_profile, threshold);
    prepared
        .net
        .set_weight_restriction(Some(nn::ValueSet::new(sel.weights.iter().copied())));
    let captures_cheap = pipeline.capture(&mut prepared);
    let after = pipeline.array().run_network_energy(
        &captures_cheap,
        &chars.energy_model,
        HwVariant::Optimized,
    );

    assert!(
        after.dynamic_fj() < before.dynamic_fj(),
        "cheap-code projection must reduce dynamic energy ({} !< {})",
        after.dynamic_fj(),
        before.dynamic_fj()
    );
}
