//! Dataflow ablation: weight-stationary vs output-stationary arrays.
//!
//! PowerPruning assumes a **weight-stationary** array (TPU-style): a PE
//! holds one weight for a whole activation stream, so a cheap weight
//! value pays off for many cycles and a zero weight clock-gates the PE
//! for the whole stream. In an **output-stationary** array each PE
//! accumulates one output element while weights *and* activations
//! stream through it: the MAC energy sum is identical, but every cycle
//! additionally toggles the PE's weight register (Hamming distance
//! between consecutive weights), and zero-weight gating only applies to
//! the individual cycles where the streamed weight happens to be zero.
//!
//! This module quantifies that difference — the dataflow ablation that
//! the `ablation_dataflow` bench binary runs.

use crate::array::{HwVariant, SystolicArray};
use crate::energy::{GemmEnergyReport, MacEnergyModel};
use nn::layers::GemmCapture;

/// Accelerator dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Weights stay resident in PEs (the paper's assumption).
    #[default]
    WeightStationary,
    /// Outputs stay resident; weights and activations stream.
    OutputStationary,
}

/// Energy charged per weight-register *bit toggle* when weights stream
/// (output-stationary only), fJ.
pub const WEIGHT_REG_BIT_TOGGLE_FJ: f64 = 0.35;

/// Runs a GEMM under the chosen dataflow.
///
/// Weight-stationary delegates to [`SystolicArray::run_gemm_energy`].
/// Output-stationary reuses the same MAC energy integration but (a)
/// applies zero-weight clock gating per *cycle* instead of per
/// *residency*, and (b) adds the weight-register streaming energy.
#[must_use]
pub fn run_gemm_energy_dataflow(
    array: &SystolicArray,
    gemm: &GemmCapture,
    model: &MacEnergyModel,
    hw: HwVariant,
    dataflow: Dataflow,
) -> GemmEnergyReport {
    match dataflow {
        Dataflow::WeightStationary => array.run_gemm_energy(gemm, model, hw),
        Dataflow::OutputStationary => {
            // MAC energy: every (m, k, n) op executes once regardless of
            // dataflow; zero-weight ops are gated per cycle on Optimized
            // HW (same arithmetic as weight-stationary gating, since
            // gating is per-op either way).
            let mut report = array.run_gemm_energy(gemm, model, hw);
            // Weight streaming: PE (m, n) sees the weight sequence
            // W[m, 0..k]; every consecutive pair toggles the weight
            // register by their Hamming distance. The same row sequence
            // is seen by all n output columns mapped to that row.
            let mut toggle_bits: u64 = 0;
            for m in 0..gemm.m {
                let row = &gemm.weight_codes[m * gemm.k..(m + 1) * gemm.k];
                let mut row_bits = 0u64;
                for pair in row.windows(2) {
                    row_bits += u64::from((pair[0] as u8 ^ pair[1] as u8).count_ones());
                }
                toggle_bits += row_bits * gemm.n as u64;
            }
            report.dynamic_fj += toggle_bits as f64 * WEIGHT_REG_BIT_TOGGLE_FJ;
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayConfig;

    fn gemm() -> GemmCapture {
        GemmCapture {
            layer: "df".into(),
            weight_codes: (0..8 * 16).map(|i| ((i * 11) % 255) as i8).collect(),
            act_codes: (0..16 * 32).map(|i| (i % 251) as u8).collect(),
            m: 8,
            k: 16,
            n: 32,
        }
    }

    #[test]
    fn weight_stationary_matches_plain_run() {
        let array = SystolicArray::new(ArrayConfig::small(4, 4));
        let model = MacEnergyModel::analytic_default();
        let g = gemm();
        let plain = array.run_gemm_energy(&g, &model, HwVariant::Standard);
        let ws = run_gemm_energy_dataflow(
            &array,
            &g,
            &model,
            HwVariant::Standard,
            Dataflow::WeightStationary,
        );
        assert_eq!(plain, ws);
    }

    #[test]
    fn output_stationary_costs_more() {
        let array = SystolicArray::new(ArrayConfig::small(4, 4));
        let model = MacEnergyModel::analytic_default();
        let g = gemm();
        let ws = run_gemm_energy_dataflow(
            &array,
            &g,
            &model,
            HwVariant::Optimized,
            Dataflow::WeightStationary,
        );
        let os = run_gemm_energy_dataflow(
            &array,
            &g,
            &model,
            HwVariant::Optimized,
            Dataflow::OutputStationary,
        );
        assert!(os.dynamic_fj > ws.dynamic_fj);
    }

    #[test]
    fn constant_weight_rows_stream_for_free() {
        let array = SystolicArray::new(ArrayConfig::small(4, 4));
        let model = MacEnergyModel::analytic_default();
        let mut g = gemm();
        for w in &mut g.weight_codes {
            *w = 42; // constant row: no register toggles
        }
        let ws = run_gemm_energy_dataflow(
            &array,
            &g,
            &model,
            HwVariant::Standard,
            Dataflow::WeightStationary,
        );
        let os = run_gemm_energy_dataflow(
            &array,
            &g,
            &model,
            HwVariant::Standard,
            Dataflow::OutputStationary,
        );
        assert_eq!(ws.dynamic_fj, os.dynamic_fj);
    }
}
