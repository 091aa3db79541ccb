//! Clipped-ReLU activation with integrated activation quantization and
//! PowerPruning's activation-value filtering.
//!
//! The paper integrates the filtering of pruned activation values "into
//! the activation function after each layer": this layer clips to
//! `[0, range]`, fake-quantizes to uint8 codes and projects the codes
//! onto the allowed [`crate::quant::ValueSet`] when one is installed.
//! The backward pass is the straight-through estimator: the projection
//! and rounding are treated as identity inside the active region.

use crate::layers::{Context, Layer};
use crate::quant::ActQuantizer;
use crate::tensor::Tensor;

/// Clipped ReLU (ReLU6-style) with optional quantization/restriction.
///
/// The forward pass runs as separate element-wise passes so each one
/// vectorizes: the gradient mask (training), the clip to `[0, range]`,
/// and under a quantizing context [`ActQuantizer::quantize`] of the
/// clipped values.
#[derive(Debug)]
pub struct QuantReLU {
    name: String,
    /// Activation quantizer (range + optional allowed code set).
    pub quant: ActQuantizer,
    mask: Vec<bool>,
}

impl QuantReLU {
    /// A clipped ReLU over `[0, range]` (use 6.0 for ReLU6 semantics).
    #[must_use]
    pub fn new(name: impl Into<String>, range: f32) -> Self {
        QuantReLU {
            name: name.into(),
            quant: ActQuantizer::new(range),
            mask: Vec::new(),
        }
    }
}

impl Layer for QuantReLU {
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor {
        let range = self.quant.range;
        if ctx.training {
            self.mask.clear();
            self.mask
                .extend(input.data().iter().map(|&v| v > 0.0 && v < range));
        }
        let clipped = input.map(|v| v.clamp(0.0, range));
        if ctx.quantize {
            self.quant.quantize(&clipped).dequant
        } else {
            clipped
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.len(), self.mask.len(), "backward without forward");
        let data = grad
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad.shape(), data)
    }

    fn visit_act_quant(&mut self, f: &mut dyn FnMut(&mut ActQuantizer)) {
        f(&mut self.quant);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::tests::{edge_values, reference_code};
    use crate::quant::ValueSet;

    #[test]
    fn forward_matches_a_per_element_reference_bit_for_bit() {
        // range = 255 · 2⁻⁵ sets the code step to 2⁻⁵; 6.0 to an inexact one.
        for range in [7.968_75f32, 6.0] {
            let scale = (range / 255.0).max(1e-8);
            let mut xs = edge_values(scale, 0, 255);
            xs.extend([
                f32::INFINITY,
                f32::NEG_INFINITY,
                -1.0,
                range + 1.0,
                -1e30,
                1e30,
            ]);
            let x = Tensor::from_vec(&[xs.len()], xs.clone());
            let restricted = ValueSet::new([0, 3, 64, 128, 200, 255]);
            for allowed in [None, Some(restricted)] {
                for (training, quantize) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let mut relu = QuantReLU::new("r", range);
                    relu.quant.allowed = allowed.clone();
                    let mut ctx = Context {
                        training,
                        quantize,
                        capture: None,
                    };
                    let y = relu.forward(&x, &mut ctx);
                    for (i, &v) in xs.iter().enumerate() {
                        let clipped = v.clamp(0.0, range);
                        let expected = if quantize {
                            reference_code(clipped, scale, 0, 255, allowed.as_ref()) as f32 * scale
                        } else {
                            clipped
                        };
                        assert_eq!(
                            y.data()[i].to_bits(),
                            expected.to_bits(),
                            "x = {v:e}, training {training}, quantize {quantize}"
                        );
                    }
                    if training {
                        let mask: Vec<bool> = xs.iter().map(|&v| v > 0.0 && v < range).collect();
                        assert_eq!(relu.mask, mask, "quantize {quantize}");
                    }
                }
            }
        }
    }

    #[test]
    fn clips_to_range() {
        let mut relu = QuantReLU::new("r", 6.0);
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 5.0, 9.0]);
        let mut ctx = Context::inference();
        let y = relu.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[0.0, 0.5, 5.0, 6.0]);
    }

    #[test]
    fn quantized_output_snaps_to_grid() {
        let mut relu = QuantReLU::new("r", 6.0);
        let x = Tensor::from_vec(&[2], vec![1.234, 3.456]);
        let mut ctx = Context::inference().quantized();
        let y = relu.forward(&x, &mut ctx);
        let scale = 6.0 / 255.0;
        for &v in y.data() {
            let code = v / scale;
            assert!((code - code.round()).abs() < 1e-3, "{v} not on grid");
        }
    }

    #[test]
    fn restricted_codes_are_respected() {
        let mut relu = QuantReLU::new("r", 6.0);
        let allowed = ValueSet::new([0, 64, 128, 192]);
        relu.quant.allowed = Some(allowed.clone());
        let x = Tensor::from_vec(&[5], vec![0.2, 1.0, 2.7, 4.4, 6.0]);
        let mut ctx = Context::inference().quantized();
        let y = relu.forward(&x, &mut ctx);
        let scale = 6.0 / 255.0;
        for &v in y.data() {
            let code = (v / scale).round() as i32;
            assert!(allowed.contains(code), "code {code} not allowed");
        }
    }

    #[test]
    fn gradient_masks_dead_and_saturated_regions() {
        let mut relu = QuantReLU::new("r", 6.0);
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, 5.9, 7.0]);
        let mut ctx = Context::train();
        let _ = relu.forward(&x, &mut ctx);
        let g = Tensor::from_vec(&[4], vec![1.0; 4]);
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }
}
