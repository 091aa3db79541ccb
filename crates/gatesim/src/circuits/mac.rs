//! The multiply-accumulate unit of a weight-stationary systolic array.
//!
//! `sum = psum + weight · activation`, with a signed `weight_bits`-bit
//! weight, an unsigned `act_bits`-bit activation and an `acc_bits`-bit
//! two's complement partial sum (22 bits for the paper's 64×64 array).
//! The product is sign-extended to the accumulator width and added with
//! a carry-lookahead adder.
//!
//! The struct keeps the net ids of the multiplier product bits so the
//! characterization code can compose multiplier DTA with adder STA
//! exactly as in the paper's Fig. 5.

use crate::builder::NetlistBuilder;
use crate::circuits::adder::{add_buses, AdderKind};
use crate::circuits::booth::booth_multiplier;
use crate::circuits::multiplier::signed_unsigned_multiplier;
use crate::netlist::{from_bits_signed, to_bits_into, NetId, Netlist};

/// Multiplier micro-architecture of the MAC unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MultiplierKind {
    /// Baugh-Wooley partial-product array (default).
    #[default]
    BaughWooley,
    /// Radix-4 Booth recoding — halves the partial products and changes
    /// which weight values are cheap, the hardware ablation of the
    /// `ablation_multiplier` bench binary.
    Booth,
}

/// A complete MAC-unit netlist with port metadata.
///
/// # Examples
///
/// ```
/// use gatesim::circuits::MacCircuit;
///
/// let mac = MacCircuit::new(8, 8, 22);
/// assert_eq!(mac.compute(-105, 213, 1000), 1000 - 105 * 213);
/// ```
#[derive(Debug, Clone)]
pub struct MacCircuit {
    netlist: Netlist,
    weight_bits: usize,
    act_bits: usize,
    acc_bits: usize,
    product_nets: Vec<NetId>,
    psum_ports: Vec<NetId>,
}

impl MacCircuit {
    /// Builds a MAC unit with the default carry-lookahead accumulator.
    ///
    /// # Panics
    ///
    /// Panics if widths are too small (operands < 2 bits) or the
    /// accumulator is narrower than the product.
    #[must_use]
    pub fn new(weight_bits: usize, act_bits: usize, acc_bits: usize) -> Self {
        Self::with_adder(weight_bits, act_bits, acc_bits, AdderKind::Cla4)
    }

    /// Builds a MAC unit with an explicit accumulator-adder architecture.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MacCircuit::new`].
    #[must_use]
    pub fn with_adder(
        weight_bits: usize,
        act_bits: usize,
        acc_bits: usize,
        adder: AdderKind,
    ) -> Self {
        Self::with_architecture(
            weight_bits,
            act_bits,
            acc_bits,
            adder,
            MultiplierKind::BaughWooley,
        )
    }

    /// Builds a MAC unit with explicit adder and multiplier
    /// architectures.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MacCircuit::new`].
    #[must_use]
    pub fn with_architecture(
        weight_bits: usize,
        act_bits: usize,
        acc_bits: usize,
        adder: AdderKind,
        multiplier: MultiplierKind,
    ) -> Self {
        assert!(
            weight_bits >= 2 && act_bits >= 2,
            "operand widths must be >= 2"
        );
        let product_bits = weight_bits + act_bits + 1;
        assert!(
            acc_bits >= product_bits,
            "accumulator ({acc_bits}b) must hold the product ({product_bits}b)"
        );
        let mut b = NetlistBuilder::new(format!(
            "mac_{weight_bits}x{act_bits}_acc{acc_bits}{}",
            match multiplier {
                MultiplierKind::BaughWooley => "",
                MultiplierKind::Booth => "_booth",
            }
        ));
        let w = b.input_bus("w", weight_bits);
        let a = b.input_bus("a", act_bits);
        let psum = b.input_bus("p", acc_bits);
        let product = match multiplier {
            MultiplierKind::BaughWooley => signed_unsigned_multiplier(&mut b, &w, &a),
            MultiplierKind::Booth => booth_multiplier(&mut b, &w, &a),
        };
        // Sign-extend the product to the accumulator width.
        let sign = *product.last().expect("product is non-empty");
        let mut addend = product.clone();
        while addend.len() < acc_bits {
            addend.push(sign);
        }
        let sum = add_buses(&mut b, adder, &psum, &addend, None);
        for s in &sum {
            b.output(*s);
        }
        MacCircuit {
            netlist: b.finish(),
            weight_bits,
            act_bits,
            acc_bits,
            product_nets: product,
            psum_ports: psum,
        }
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Width of the signed weight operand.
    #[must_use]
    pub fn weight_bits(&self) -> usize {
        self.weight_bits
    }

    /// Width of the unsigned activation operand.
    #[must_use]
    pub fn act_bits(&self) -> usize {
        self.act_bits
    }

    /// Width of the partial-sum/accumulator bus.
    #[must_use]
    pub fn acc_bits(&self) -> usize {
        self.acc_bits
    }

    /// Net ids of the multiplier product bits (LSB first), the seam at
    /// which multiplier DTA and adder STA are composed.
    #[must_use]
    pub fn product_nets(&self) -> &[NetId] {
        &self.product_nets
    }

    /// Net ids of the partial-sum input ports.
    #[must_use]
    pub fn psum_ports(&self) -> &[NetId] {
        &self.psum_ports
    }

    /// Packs `(weight, activation, partial sum)` into the input vector.
    #[must_use]
    pub fn encode(&self, weight: i64, act: u64, psum: i64) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.weight_bits + self.act_bits + self.acc_bits);
        self.encode_into(weight, act, psum, &mut v);
        v
    }

    /// Packs `(weight, activation, partial sum)` into a reused buffer —
    /// the allocation-free companion of [`MacCircuit::encode`] used by
    /// the batched characterization loops.
    pub fn encode_into(&self, weight: i64, act: u64, psum: i64, out: &mut Vec<bool>) {
        out.clear();
        to_bits_into(weight, self.weight_bits, out);
        to_bits_into(act as i64, self.act_bits, out);
        to_bits_into(psum, self.acc_bits, out);
    }

    /// Evaluates the MAC functionally: `psum + weight·act`, wrapping in
    /// `acc_bits`-bit two's complement.
    #[must_use]
    pub fn compute(&self, weight: i64, act: u64, psum: i64) -> i64 {
        let out = self
            .netlist
            .evaluate_outputs(&self.encode(weight, act, psum));
        from_bits_signed(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mac_exhaustive() {
        let mac = MacCircuit::new(3, 3, 8);
        for w in -4i64..4 {
            for a in 0u64..8 {
                for p in [-128i64, -77, -1, 0, 1, 55, 127] {
                    let expected = {
                        let raw = p + w * a as i64;
                        // wrap to 8-bit two's complement
                        let wrapped = ((raw % 256) + 256) % 256;
                        if wrapped >= 128 {
                            wrapped - 256
                        } else {
                            wrapped
                        }
                    };
                    assert_eq!(mac.compute(w, a, p), expected, "failed {p} + {w}*{a}");
                }
            }
        }
    }

    #[test]
    fn paper_sized_mac_sampled() {
        let mac = MacCircuit::new(8, 8, 22);
        let mut x: u64 = 42;
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((x & 0xff) as i64) - 128;
            let a = (x >> 8) & 0xff;
            let p = (((x >> 16) & 0xfffff) as i64) - (1 << 19); // fits comfortably in 22b
            assert_eq!(mac.compute(w, a, p), p + w * a as i64, "failed {p}+{w}*{a}");
        }
    }

    #[test]
    fn ripple_variant_matches_cla_variant() {
        let cla = MacCircuit::with_adder(4, 4, 10, AdderKind::Cla4);
        let ripple = MacCircuit::with_adder(4, 4, 10, AdderKind::Ripple);
        for w in [-8i64, -3, 0, 5, 7] {
            for a in [0u64, 3, 9, 15] {
                for p in [-512i64, -100, 0, 200, 511] {
                    assert_eq!(cla.compute(w, a, p), ripple.compute(w, a, p));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must hold the product")]
    fn narrow_accumulator_rejected() {
        let _ = MacCircuit::new(8, 8, 10);
    }

    #[test]
    fn product_nets_are_within_netlist() {
        let mac = MacCircuit::new(8, 8, 22);
        for &net in mac.product_nets() {
            assert!(net.index() < mac.netlist().net_count());
        }
        assert_eq!(mac.product_nets().len(), 17);
    }

    #[test]
    fn booth_mac_matches_baugh_wooley_mac() {
        let bw = MacCircuit::new(4, 4, 10);
        let booth = MacCircuit::with_architecture(4, 4, 10, AdderKind::Cla4, MultiplierKind::Booth);
        for w in -8i64..8 {
            for a in [0u64, 3, 7, 12, 15] {
                for p in [-512i64, -31, 0, 100, 511] {
                    assert_eq!(bw.compute(w, a, p), booth.compute(w, a, p), "{p}+{w}*{a}");
                }
            }
        }
    }

    #[test]
    fn booth_mac_paper_size_sampled() {
        let mac = MacCircuit::with_architecture(8, 8, 22, AdderKind::Cla4, MultiplierKind::Booth);
        let mut x: u64 = 99;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((x & 0xff) as i64) - 128;
            let a = (x >> 8) & 0xff;
            let p = (((x >> 16) & 0xfffff) as i64) - (1 << 19);
            assert_eq!(mac.compute(w, a, p), p + w * a as i64);
        }
    }
}
