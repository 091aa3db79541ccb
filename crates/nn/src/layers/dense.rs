//! Fully connected layer.

use crate::layers::{Context, GemmCapture, Layer, Param};
use crate::linalg::{matmul, matmul_nt, matmul_tn};
use crate::quant::{round_clamp, WeightQuantizer};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Fully connected layer: `out[B×O] = x[B×F] · Wᵀ + bias`.
///
/// Weights have shape `[out_features, in_features]`. Like
/// [`crate::layers::Conv2d`], it fake-quantizes weights under a
/// quantizing [`Context`] and records the systolic GEMM operands under
/// capture.
#[derive(Debug)]
pub struct Dense {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    /// Weight quantizer; install a restriction set to enforce selected
    /// weight codes.
    pub wquant: WeightQuantizer,
    /// Clipping range used to recover the uint8 input codes for capture.
    pub input_range: f32,
    cached_input: Option<Tensor>,
    cached_weights: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let name = name.into();
        let weight = Tensor::he_normal(&[out_features, in_features], in_features, rng);
        Dense {
            weight: Param::new(format!("{name}.weight"), weight, true),
            bias: Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
                false,
            ),
            name,
            in_features,
            out_features,
            wquant: WeightQuantizer::new(),
            input_range: 6.0,
            cached_input: None,
            cached_weights: None,
        }
    }

    /// Number of output features.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor {
        assert_eq!(input.shape().len(), 2, "dense expects [B, F] input");
        assert_eq!(input.shape()[1], self.in_features, "feature mismatch");
        let b = input.shape()[0];

        let (w_eff, codes) = if ctx.quantize {
            let q = self.wquant.quantize(&self.weight.value);
            (q.dequant, Some(q.codes))
        } else {
            (self.weight.value.clone(), None)
        };

        if let (Some(codes), Some(captures)) = (codes.as_ref(), ctx.capture.as_mut()) {
            // Systolic layout: W[m×k] · A[k×n] with m = out, k = in, n = batch.
            let act_scale = (self.input_range / 255.0).max(1e-8);
            let mut act_codes = vec![0u8; self.in_features * b];
            for bi in 0..b {
                for fi in 0..self.in_features {
                    let v = input.data()[bi * self.in_features + fi];
                    act_codes[fi * b + bi] = round_clamp(v / act_scale, 0, 255) as u8;
                }
            }
            captures.push(GemmCapture {
                layer: self.name.clone(),
                weight_codes: codes.clone(),
                act_codes,
                m: self.out_features,
                k: self.in_features,
                n: b,
            });
        }

        // out[B×O] = x[B×F] · Wᵀ (W stored O×F).
        let mut out = vec![0.0f32; b * self.out_features];
        matmul_nt(
            input.data(),
            w_eff.data(),
            &mut out,
            b,
            self.in_features,
            self.out_features,
        );
        for bi in 0..b {
            for o in 0..self.out_features {
                out[bi * self.out_features + o] += self.bias.value.data()[o];
            }
        }
        if ctx.training {
            self.cached_input = Some(input.clone());
            self.cached_weights = Some(w_eff);
        }
        Tensor::from_vec(&[b, self.out_features], out)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_params(grad);
        let w_eff = self
            .cached_weights
            .as_ref()
            .expect("training forward required");
        let b = grad.shape()[0];
        // grad_x[B×F] = grad[B×O] · W[O×F].
        let mut gx = vec![0.0f32; b * self.in_features];
        matmul(
            grad.data(),
            w_eff.data(),
            &mut gx,
            b,
            self.out_features,
            self.in_features,
        );
        Tensor::from_vec(&[b, self.in_features], gx)
    }

    fn backward_params(&mut self, grad: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("training forward required");
        let b = input.shape()[0];

        // grad_w[O×F] = gradᵀ[O×B] · x[B×F]  (grad stored B×O).
        let mut gw = vec![0.0f32; self.out_features * self.in_features];
        matmul_tn(
            grad.data(),
            input.data(),
            &mut gw,
            self.out_features,
            b,
            self.in_features,
        );
        for (dst, src) in self.weight.grad.data_mut().iter_mut().zip(&gw) {
            *dst += src;
        }
        // grad_bias.
        for bi in 0..b {
            for o in 0..self.out_features {
                self.bias.grad.data_mut()[o] += grad.data()[bi * self.out_features + o];
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_weight_quant(&mut self, f: &mut dyn FnMut(&mut WeightQuantizer)) {
        f(&mut self.wquant);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn forward_matches_manual() {
        let mut d = Dense::new("fc", 3, 2, &mut rng());
        d.weight.value = Tensor::from_vec(&[2, 3], vec![1., 0., -1., 2., 1., 0.]);
        d.bias.value = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let mut ctx = Context::inference();
        let out = d.forward(&x, &mut ctx);
        // row0: 1*1 + 0*2 + -1*3 + 0.5 = -1.5 ; row1: 2*1 + 1*2 + 0*3 - 0.5 = 3.5
        assert_eq!(out.data(), &[-1.5, 3.5]);
    }

    #[test]
    fn input_gradient_is_correct() {
        let mut d = Dense::new("fc", 5, 4, &mut rng());
        let x = Tensor::from_vec(&[2, 5], (0..10).map(|i| i as f32 * 0.3 - 1.0).collect());
        check_input_gradient(&mut d, &x, 1e-2);
    }

    #[test]
    fn capture_layout_is_k_by_n() {
        let mut d = Dense::new("fc", 4, 3, &mut rng());
        d.input_range = 1.0;
        let x = Tensor::from_vec(&[2, 4], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        let mut ctx = Context::inference().capturing();
        let _ = d.forward(&x, &mut ctx);
        let cap = &ctx.capture.unwrap()[0];
        assert_eq!((cap.m, cap.k, cap.n), (3, 4, 2));
        // act_codes[f*n + b]: feature 0 of batch 0 is 0.1 -> code ~26.
        assert_eq!(cap.act_codes[0], (0.1f32 / (1.0 / 255.0)).round() as u8);
        // feature 0 of batch 1 is 0.5 -> code ~128.
        assert_eq!(cap.act_codes[1], (0.5f32 / (1.0 / 255.0)).round() as u8);
    }

    #[test]
    fn bias_gradient_accumulates_over_batch() {
        let mut d = Dense::new("fc", 2, 2, &mut rng());
        let x = Tensor::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]);
        let mut ctx = Context::train();
        let out = d.forward(&x, &mut ctx);
        let g = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        let _ = d.backward(&g);
        assert_eq!(d.bias.grad.data(), &[3.0, 3.0]);
    }
}
