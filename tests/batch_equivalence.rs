//! Property tests proving the batched [`gatesim::BatchSim`] engine is
//! bit-identical to the scalar [`gatesim::Simulator`] reference across
//! the adder, Booth-multiplier and MAC circuit generators — energy,
//! toggle counts, dynamic delay, per-output arrivals and settled output
//! values of every transition compare with exact `==`, no tolerances.

use gatesim::circuits::{AdderCircuit, AdderKind, BoothMultiplierCircuit, MacCircuit};
use gatesim::{BatchSim, CellLibrary, Netlist, Simulator};
use proptest::prelude::*;

/// Runs `pairs` through both engines and asserts exact agreement on
/// every transition.
fn assert_engines_agree(netlist: &Netlist, pairs: &[(Vec<bool>, Vec<bool>)]) {
    let lib = CellLibrary::nangate15_like();
    let mut scalar = Simulator::new(netlist, &lib);
    let mut batch = BatchSim::new(netlist, &lib);

    for (from, to) in pairs {
        scalar.settle(from);
        let stats = scalar.transition(to);

        batch.settle(from);
        let view = batch.transition(to);

        assert_eq!(stats.energy_fj, view.energy_fj, "energy diverged");
        assert_eq!(stats.toggles, view.toggles, "toggles diverged");
        assert_eq!(stats.delay_ps, view.delay_ps, "delay diverged");
        for slot in 0..netlist.outputs().len() {
            assert_eq!(
                stats.output_arrival_ps[slot],
                view.output_arrival_ps(slot),
                "output arrival {slot} diverged"
            );
        }
        assert_eq!(scalar.output_values(), batch.output_values());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Carry-lookahead adder: random operand streams.
    #[test]
    fn adder_engines_agree(seed in 0u64..5000) {
        let adder = AdderCircuit::new(AdderKind::Cla4, 12);
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 16
        };
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..12)
            .map(|_| {
                (
                    adder.encode(next() & 0xfff, next() & 0xfff),
                    adder.encode(next() & 0xfff, next() & 0xfff),
                )
            })
            .collect();
        assert_engines_agree(adder.netlist(), &pairs);
    }

    /// Booth multiplier: random weight/activation streams.
    #[test]
    fn booth_engines_agree(seed in 0u64..5000) {
        let mult = BoothMultiplierCircuit::new(6, 6);
        let mut x = seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(3);
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 16
        };
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..12)
            .map(|_| {
                (
                    mult.encode((next() & 0x3f) as i64 - 32, next() & 0x3f),
                    mult.encode((next() & 0x3f) as i64 - 32, next() & 0x3f),
                )
            })
            .collect();
        assert_engines_agree(mult.netlist(), &pairs);
    }

    /// Complete MAC unit: random weight/activation/psum streams.
    #[test]
    fn mac_engines_agree(seed in 0u64..5000) {
        let mac = MacCircuit::new(4, 4, 12);
        let mut x = seed.wrapping_mul(0xd1342543de82ef95).wrapping_add(11);
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 16
        };
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..12)
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
        assert_engines_agree(mac.netlist(), &pairs);
    }
}

/// Observed-net arrivals must also agree exactly (the seam the timing
/// characterization composes over).
#[test]
fn observed_arrivals_agree_on_mac_products() {
    let mac = MacCircuit::new(4, 4, 10);
    let lib = CellLibrary::nangate15_like();
    let mut scalar = Simulator::new(mac.netlist(), &lib);
    let mut batch = BatchSim::new(mac.netlist(), &lib);
    scalar.observe(mac.product_nets());
    batch.observe(mac.product_nets());

    let mut x: u64 = 99;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    for _ in 0..60 {
        let from = mac.encode((next() & 0xf) as i64 - 8, next() & 0xf, 0);
        let to = mac.encode((next() & 0xf) as i64 - 8, next() & 0xf, 0);
        scalar.settle(&from);
        let stats = scalar.transition(&to);
        batch.settle(&from);
        let view = batch.transition(&to);
        for slot in 0..mac.product_nets().len() {
            assert_eq!(
                stats.observed_arrival_ps(slot),
                view.observed_arrival_ps(slot),
                "observed arrival {slot} diverged"
            );
        }
    }
}
