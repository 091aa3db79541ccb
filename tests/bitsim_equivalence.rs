//! Property tests proving the bit-parallel [`gatesim::BitSim`] engine
//! is lane-exactly bit-identical to the scalar [`gatesim::Simulator`]
//! reference — toggle counts and f64 switching energies compare with
//! exact `==` per stimulus vector, blocks deliberately straddle the
//! 64-lane word width to exercise tail masking, and every netlist is
//! cross-checked against STA reachability: a net the static analysis
//! of `gatesim::sta` proves unreachable from the primary inputs must
//! never toggle in any lane.

use gatesim::circuits::{AdderCircuit, AdderKind, BoothMultiplierCircuit, MacCircuit};
use gatesim::{
    BitSim, CellKind, CellLibrary, NetId, Netlist, NetlistBuilder, PrunePlan, Simulator, Sta,
};
use powerpruning::chars::{
    characterize_power, characterize_power_scalar, characterize_power_with_threads, MacHardware,
    PowerConfig, PsumBinning,
};
use proptest::prelude::*;
use systolic::stats::TransitionStats;

/// Packs one bool vector per lane into one `u64` word per input bit.
fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
    let bits = vectors[0].len();
    let mut words = vec![0u64; bits];
    for (lane, v) in vectors.iter().enumerate() {
        assert_eq!(v.len(), bits);
        for (i, &b) in v.iter().enumerate() {
            words[i] |= u64::from(b) << lane;
        }
    }
    words
}

/// Runs `pairs` through the scalar reference and through [`BitSim`] in
/// blocks of at most `block` lanes, asserting per-vector exact
/// agreement on toggles and energy, then cross-checks two standing STA
/// properties: nets with no arrival from any primary input must never
/// have toggled, and every observed per-net settle time must fall
/// inside the net's `[min, max]` arrival interval from
/// [`PrunePlan::unpinned`] — the two-sided strengthening of the old
/// one-sided `delay <= STA bound` check.
fn assert_bitsim_agrees(netlist: &Netlist, pairs: &[(Vec<bool>, Vec<bool>)], block: usize) {
    assert!((1..=64).contains(&block));
    let lib = CellLibrary::nangate15_like();
    let mut scalar = Simulator::new(netlist, &lib);
    let mut bits = BitSim::new(netlist, &lib);
    let plan = PrunePlan::unpinned(netlist, &lib);
    let all_nets: Vec<NetId> = netlist.net_ids().collect();
    scalar.observe(&all_nets);

    for chunk in pairs.chunks(block) {
        let from: Vec<Vec<bool>> = chunk.iter().map(|(f, _)| f.clone()).collect();
        let to: Vec<Vec<bool>> = chunk.iter().map(|(_, t)| t.clone()).collect();
        bits.settle(&pack(&from), chunk.len());
        let view = bits.transition(&pack(&to));
        assert_eq!(view.active(), chunk.len());
        for (lane, (f, t)) in chunk.iter().enumerate() {
            scalar.settle(f);
            let stats = scalar.transition(t);
            assert_eq!(
                stats.toggles,
                view.lane_toggles(lane),
                "toggles diverged in lane {lane}"
            );
            assert_eq!(
                stats.energy_fj,
                view.lane_energy_fj(lane),
                "energy diverged in lane {lane}"
            );
            // Interval property: a gate output's last toggle must land
            // inside its static arrival interval. Primary-input edges
            // arrive at t = 0 by definition and are skipped.
            for (slot, &net) in all_nets.iter().enumerate() {
                let t_ps = stats.observed_arrival_ps(slot);
                if t_ps > 0.0 {
                    let iv = plan
                        .interval(net)
                        .unwrap_or_else(|| panic!("net {net} toggled but has no interval"));
                    assert!(
                        iv.contains_ps(t_ps),
                        "net {net} settled at {t_ps} ps outside its STA interval \
                         [{}, {}] ps",
                        iv.lo_ps(),
                        iv.hi_ps()
                    );
                }
            }
        }
    }

    // STA cross-check: any gate output outside the input fanin cone is
    // statically untoggleable and must stay silent in every lane.
    let arrivals = Sta::new(netlist, &lib).arrivals_from_inputs();
    for gate in netlist.gates() {
        let net = gate.output;
        if arrivals[net.index()].is_none() {
            assert!(
                !bits.net_ever_toggled(net),
                "net {net} is STA-unreachable from inputs but toggled in BitSim"
            );
        }
    }
}

/// A deterministic LCG stream shared by the generators below.
fn lcg(seed: u64, mul: u64, add: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_mul(mul).wrapping_add(add);
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    }
}

/// A random gate soup over a few inputs plus a constant-fed cone that
/// STA must prove silent: gate kinds and input nets are drawn from the
/// seed, so the structure (fanout shapes, reconvergence, dead logic)
/// varies per case.
fn random_netlist(seed: u64) -> Netlist {
    let mut next = lcg(seed, 0x9e3779b97f4a7c15, 0x1234_5678);
    let mut b = NetlistBuilder::new("soup");
    let mut nets = b.input_bus("in", 6);
    let c0 = b.const0();
    let c1 = b.const1();
    // A cone fed only by constants: unreachable from every input.
    let dead1 = b.and2(c0, c1);
    let dead2 = b.xor2(dead1, c1);
    let dead3 = b.inv(dead2);
    // Live logic may also read the constants (and the dead cone's
    // outputs), which keeps the reachability frontier interesting.
    nets.push(c0);
    nets.push(c1);
    nets.push(dead3);
    let kinds = CellKind::all();
    let gate_count = 12 + (next() % 20) as usize;
    for _ in 0..gate_count {
        let kind = kinds[(next() % kinds.len() as u64) as usize];
        let inputs: Vec<gatesim::NetId> = (0..kind.arity())
            .map(|_| nets[(next() % nets.len() as u64) as usize])
            .collect();
        let out = b.gate(kind, &inputs);
        nets.push(out);
    }
    // Observe a spread of nets as primary outputs, dead cone included.
    b.output(dead3);
    let step = nets.len() / 4;
    for i in (0..nets.len()).step_by(step.max(1)) {
        b.output(nets[i]);
    }
    b.finish()
}

/// Random input vectors for a netlist with `inputs` input bits.
fn random_pairs(
    next: &mut impl FnMut() -> u64,
    inputs: usize,
    count: usize,
) -> Vec<(Vec<bool>, Vec<bool>)> {
    (0..count)
        .map(|_| {
            let f: Vec<bool> = (0..inputs).map(|_| next() & 1 == 1).collect();
            let t: Vec<bool> = (0..inputs).map(|_| next() & 1 == 1).collect();
            (f, t)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Carry-lookahead adder: 70 pairs per case straddle the word
    /// width (64 full lanes + a 6-lane tail).
    #[test]
    fn adder_lanes_match_scalar(seed in 0u64..5000) {
        let adder = AdderCircuit::new(AdderKind::Cla4, 12);
        let mut next = lcg(seed, 0x9e3779b97f4a7c15, 7);
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..70)
            .map(|_| {
                (
                    adder.encode(next() & 0xfff, next() & 0xfff),
                    adder.encode(next() & 0xfff, next() & 0xfff),
                )
            })
            .collect();
        assert_bitsim_agrees(adder.netlist(), &pairs, 64);
    }

    /// Booth multiplier, with a deliberately odd block size so every
    /// block is a partial word.
    #[test]
    fn booth_lanes_match_scalar(seed in 0u64..5000) {
        let mult = BoothMultiplierCircuit::new(6, 6);
        let mut next = lcg(seed, 0x2545f4914f6cdd1d, 3);
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..53)
            .map(|_| {
                (
                    mult.encode((next() & 0x3f) as i64 - 32, next() & 0x3f),
                    mult.encode((next() & 0x3f) as i64 - 32, next() & 0x3f),
                )
            })
            .collect();
        assert_bitsim_agrees(mult.netlist(), &pairs, 37);
    }

    /// Complete MAC unit: random weight/activation/psum streams.
    #[test]
    fn mac_lanes_match_scalar(seed in 0u64..5000) {
        let mac = MacCircuit::new(4, 4, 12);
        let mut next = lcg(seed, 0xd1342543de82ef95, 11);
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..66)
            .map(|_| {
                (
                    mac.encode(
                        (next() & 0xf) as i64 - 8,
                        next() & 0xf,
                        (next() & 0xfff) as i64 - 2048,
                    ),
                    mac.encode(
                        (next() & 0xf) as i64 - 8,
                        next() & 0xf,
                        (next() & 0xfff) as i64 - 2048,
                    ),
                )
            })
            .collect();
        assert_bitsim_agrees(mac.netlist(), &pairs, 64);
    }

    /// Random netlists (gate soup with constant-fed cones): lane-exact
    /// agreement plus the STA no-toggle property on dead logic.
    #[test]
    fn random_netlists_match_scalar_and_respect_sta(seed in 0u64..5000) {
        let nl = random_netlist(seed);
        let mut next = lcg(seed, 0xa076_1d64_78bd_642f, 23);
        let inputs = nl.inputs().len();
        let pairs = random_pairs(&mut next, inputs, 70);
        assert_bitsim_agrees(&nl, &pairs, 64);
    }
}

fn fake_workload() -> (TransitionStats, PsumBinning) {
    let mut stats = TransitionStats::new();
    for a in 0..14u8 {
        stats.record_activation(a, a + 1, 20);
        stats.record_activation(a + 1, a, 20);
        stats.record_activation(a, a.wrapping_add(3), 3);
    }
    let samples: Vec<(i32, i32)> = (0..300)
        .map(|i| ((i * 37) % 1000 - 500, (i * 91) % 1000 - 500))
        .collect();
    let binning = PsumBinning::from_samples(&samples, 8, 12, 0);
    (stats, binning)
}

/// `characterize_power` (BitSim hot path) must reproduce the scalar
/// reference bit-for-bit at sample counts below, at and above the
/// 64-lane word width.
#[test]
fn power_profiles_identical_across_engines_and_tail_sizes() {
    let hw = MacHardware::small();
    let (stats, binning) = fake_workload();
    for samples in [7, 64, 97] {
        let cfg = PowerConfig {
            samples_per_weight: samples,
            seed: 0xb17_51e5,
            clock_ps: 200.0,
            weight_stride: 3,
            baseline_fj_per_cycle: 90.0,
        };
        let bitsim = characterize_power(&hw, &stats, &binning, &cfg);
        let scalar = characterize_power_scalar(&hw, &stats, &binning, &cfg);
        assert_eq!(bitsim, scalar, "BitSim diverged at {samples} samples");
    }
}

/// The BitSim-backed profile must not depend on the worker-thread
/// count: the per-code RNG is derived from the global code index, and
/// lanes live entirely within one code's row.
#[test]
fn power_profile_is_thread_count_invariant() {
    let hw = MacHardware::small();
    let (stats, binning) = fake_workload();
    let cfg = PowerConfig {
        samples_per_weight: 70,
        seed: 0xb17_51e6,
        clock_ps: 200.0,
        weight_stride: 2,
        baseline_fj_per_cycle: 90.0,
    };
    let reference = characterize_power_with_threads(&hw, &stats, &binning, &cfg, Some(1));
    for threads in [2, 3, 5, 16] {
        let p = characterize_power_with_threads(&hw, &stats, &binning, &cfg, Some(threads));
        assert_eq!(p, reference, "thread count {threads} changed the profile");
    }
}
