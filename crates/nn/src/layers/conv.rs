//! 2-D convolution via im2col GEMM, with grouped/depthwise support and
//! quantization-aware weights.

use crate::layers::{Context, GemmCapture, Layer, Param};
use crate::linalg::{matmul, matmul_nt, matmul_tn};
use crate::quant::{round_clamp, WeightQuantizer};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use std::ops::Range;

/// 2-D convolution layer over NCHW tensors.
///
/// Weights have shape `[out_ch, in_ch/groups, k, k]`. Supports stride,
/// symmetric zero padding and channel groups (set
/// `groups == in_ch == out_ch` for a depthwise convolution).
///
/// When executed with a quantizing [`Context`], weights are
/// fake-quantized to int8 codes (optionally projected onto a restricted
/// [`crate::quant::ValueSet`]) and, under capture, the int8/uint8 GEMM
/// operands that would stream through the systolic array are recorded.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    weight: Param,
    bias: Param,
    /// Weight quantizer; install a restriction set to enforce
    /// PowerPruning's selected weight codes.
    pub wquant: WeightQuantizer,
    /// Clipping range used to recover the uint8 codes of the *input*
    /// activations for capture (must match the producing activation
    /// layer's range; 1.0 for image inputs).
    pub input_range: f32,
    // --- caches ---
    cached_input_shape: Vec<usize>,
    cached_cols: Vec<Vec<f32>>,     // one im2col matrix per group
    cached_weights: Option<Tensor>, // effective (possibly quantized) weights
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with He-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `groups` or any
    /// dimension is zero.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0 && groups > 0);
        assert_eq!(in_ch % groups, 0, "in_ch must divide by groups");
        assert_eq!(out_ch % groups, 0, "out_ch must divide by groups");
        let name = name.into();
        let fan_in = (in_ch / groups) * k * k;
        let weight = Tensor::he_normal(&[out_ch, in_ch / groups, k, k], fan_in, rng);
        Conv2d {
            weight: Param::new(format!("{name}.weight"), weight, true),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(&[out_ch]), false),
            name,
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            groups,
            wquant: WeightQuantizer::new(),
            input_range: 6.0,
            cached_input_shape: Vec::new(),
            cached_cols: Vec::new(),
            cached_weights: None,
            out_hw: (0, 0),
        }
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Spatial output size for an input of `h × w`.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Output positions `o` of one kernel offset whose input coordinate
    /// `o * stride + offset - pad` lies inside `0..size`, out of `0..out`.
    fn valid_span(&self, offset: usize, size: usize, out: usize) -> Range<usize> {
        let lo = self.pad.saturating_sub(offset).div_ceil(self.stride);
        let hi = (size + self.pad)
            .saturating_sub(offset)
            .div_ceil(self.stride)
            .min(out);
        lo..hi.max(lo)
    }

    /// The `[cg·k·k × b·oh·ow]` patch matrix of one group, written once
    /// in memory order: row (channel, kernel offset) by row, each output
    /// row of each image as its leading padding zeros, its in-bounds
    /// span of input pixels and its trailing padding zeros. No pass
    /// zeroes the matrix first, and every geometry takes this one path.
    fn im2col(&self, input: &Tensor, group: usize) -> Vec<f32> {
        let [b, _c, h, w]: [usize; 4] = self.cached_input_shape[..]
            .try_into()
            .expect("conv input must be 4-D");
        let (oh, ow) = self.output_hw(h, w);
        let cg = self.in_ch / self.groups;
        let mut col = Vec::with_capacity(cg * self.k * self.k * b * oh * ow);
        let data = input.data();
        for c in 0..cg {
            let ch = group * cg + c;
            for ki in 0..self.k {
                let ys = self.valid_span(ki, h, oh);
                for kj in 0..self.k {
                    let xs = self.valid_span(kj, w, ow);
                    for bi in 0..b {
                        let plane = &data[(bi * self.in_ch + ch) * h * w..][..h * w];
                        for oy in 0..oh {
                            if xs.is_empty() || !ys.contains(&oy) {
                                col.resize(col.len() + ow, 0.0);
                                continue;
                            }
                            let y = oy * self.stride + ki - self.pad;
                            let x0 = xs.start * self.stride + kj - self.pad;
                            let src = &plane[y * w + x0..(y + 1) * w];
                            col.resize(col.len() + xs.start, 0.0);
                            if self.stride == 1 {
                                col.extend_from_slice(&src[..xs.len()]);
                            } else {
                                col.extend(src.iter().step_by(self.stride).take(xs.len()));
                            }
                            col.resize(col.len() + ow - xs.end, 0.0);
                        }
                    }
                }
            }
        }
        col
    }

    /// Scatter-adds one group's patch-matrix gradient into the input
    /// gradient, span by in-bounds span: every input pixel sums its
    /// contributions in (kernel offset, output row) order, as the
    /// general per-pixel loop does.
    fn col2im(&self, grad_col: &[f32], grad_input: &mut Tensor, group: usize) {
        let [b, _c, h, w]: [usize; 4] = self.cached_input_shape[..].try_into().unwrap();
        let (oh, ow) = self.output_hw(h, w);
        let cg = self.in_ch / self.groups;
        let kk = self.k * self.k;
        let n = b * oh * ow;
        let data = grad_input.data_mut();
        for bi in 0..b {
            for c in 0..cg {
                let ch = group * cg + c;
                let base = (bi * self.in_ch + ch) * h * w;
                for ki in 0..self.k {
                    for kj in 0..self.k {
                        let row = (c * kk + ki * self.k + kj) * n + bi * oh * ow;
                        let xs = self.valid_span(kj, w, ow);
                        if xs.is_empty() {
                            continue;
                        }
                        let x0 = xs.start * self.stride + kj - self.pad;
                        for oy in self.valid_span(ki, h, oh) {
                            let y = oy * self.stride + ki - self.pad;
                            let dst = &mut data[base + y * w + x0..base + (y + 1) * w];
                            let src = &grad_col[row + oy * ow + xs.start..row + oy * ow + xs.end];
                            if self.stride == 1 {
                                for (d, &g) in dst.iter_mut().zip(src) {
                                    *d += g;
                                }
                            } else {
                                for (d, &g) in dst.iter_mut().step_by(self.stride).zip(src) {
                                    *d += g;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Accumulates the bias and weight gradients of `grad` and returns
    /// it re-packed per group as the `[cg_out × b·oh·ow]` GEMM operand
    /// the input gradient needs.
    fn param_gradients(&mut self, grad: &Tensor) -> Vec<Vec<f32>> {
        let [b, ..]: [usize; 4] = self.cached_input_shape[..]
            .try_into()
            .expect("backward requires a training forward");
        let (oh, ow) = self.out_hw;
        let cg_out = self.out_ch / self.groups;
        let kdim = (self.in_ch / self.groups) * self.k * self.k;
        let n = b * oh * ow;
        let grad_data = grad.data();
        let mut grad_mats = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            // Re-pack grad from NCHW to [cg_out × n] GEMM layout.
            let mut grad_mat = vec![0.0f32; cg_out * n];
            for oc in 0..cg_out {
                let ch = g * cg_out + oc;
                for bi in 0..b {
                    let src = (bi * self.out_ch + ch) * oh * ow;
                    let dst = oc * n + bi * oh * ow;
                    grad_mat[dst..dst + oh * ow].copy_from_slice(&grad_data[src..src + oh * ow]);
                }
            }
            // Bias gradient.
            for oc in 0..cg_out {
                let ch = g * cg_out + oc;
                let sum: f32 = grad_mat[oc * n..(oc + 1) * n].iter().sum();
                self.bias.grad.data_mut()[ch] += sum;
            }
            // Weight gradient: grad_w[cg_out × kdim] = grad_mat · colᵀ.
            let col = &self.cached_cols[g];
            let mut gw = vec![0.0f32; cg_out * kdim];
            matmul_nt(&grad_mat, col, &mut gw, cg_out, n, kdim);
            let wg = self.weight.grad.data_mut();
            for (dst, src) in wg[g * cg_out * kdim..(g + 1) * cg_out * kdim]
                .iter_mut()
                .zip(&gw)
            {
                *dst += src;
            }
            grad_mats.push(grad_mat);
        }
        grad_mats
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor {
        assert_eq!(input.shape().len(), 4, "conv expects NCHW input");
        assert_eq!(input.shape()[1], self.in_ch, "channel mismatch");
        self.cached_input_shape = input.shape().to_vec();
        let [b, _, h, w]: [usize; 4] = input.shape()[..].try_into().unwrap();
        let (oh, ow) = self.output_hw(h, w);
        self.out_hw = (oh, ow);

        // Effective weights: fake-quantized under a quantizing context.
        let (w_eff, codes) = if ctx.quantize {
            let q = self.wquant.quantize(&self.weight.value);
            (q.dequant, Some(q.codes))
        } else {
            (self.weight.value.clone(), None)
        };

        let cg_out = self.out_ch / self.groups;
        let cg_in = self.in_ch / self.groups;
        let kdim = cg_in * self.k * self.k;
        let n = b * oh * ow;
        let mut out = Tensor::zeros(&[b, self.out_ch, oh, ow]);
        self.cached_cols.clear();

        for g in 0..self.groups {
            let col = self.im2col(input, g);
            let w_slice = &w_eff.data()[g * cg_out * kdim..(g + 1) * cg_out * kdim];
            let mut c = vec![0.0f32; cg_out * n];
            matmul(w_slice, &col, &mut c, cg_out, kdim, n);

            if let (Some(codes), Some(captures)) = (codes.as_ref(), ctx.capture.as_mut()) {
                let act_scale = (self.input_range / 255.0).max(1e-8);
                let act_codes: Vec<u8> = col
                    .iter()
                    .map(|&v| round_clamp(v / act_scale, 0, 255) as u8)
                    .collect();
                captures.push(GemmCapture {
                    layer: format!("{}[g{g}]", self.name),
                    weight_codes: codes[g * cg_out * kdim..(g + 1) * cg_out * kdim].to_vec(),
                    act_codes,
                    m: cg_out,
                    k: kdim,
                    n,
                });
            }

            // Scatter GEMM result into NCHW output and add bias.
            let out_data = out.data_mut();
            for oc in 0..cg_out {
                let ch = g * cg_out + oc;
                let bias = self.bias.value.data()[ch];
                for bi in 0..b {
                    let dst = (bi * self.out_ch + ch) * oh * ow;
                    let src = oc * n + bi * oh * ow;
                    for p in 0..oh * ow {
                        out_data[dst + p] = c[src + p] + bias;
                    }
                }
            }
            if ctx.training {
                self.cached_cols.push(col);
            }
        }
        if ctx.training {
            self.cached_weights = Some(w_eff);
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let [b, _, h, w]: [usize; 4] = self.cached_input_shape[..].try_into().unwrap();
        let (oh, ow) = self.out_hw;
        let cg_out = self.out_ch / self.groups;
        let kdim = (self.in_ch / self.groups) * self.k * self.k;
        let n = b * oh * ow;
        let grad_mats = self.param_gradients(grad);
        let w_eff = self
            .cached_weights
            .as_ref()
            .expect("backward requires a training forward");
        let mut grad_input = Tensor::zeros(&[b, self.in_ch, h, w]);
        for (g, grad_mat) in grad_mats.iter().enumerate() {
            // Input gradient: grad_col[kdim × n] = w_effᵀ · grad_mat.
            let w_slice = &w_eff.data()[g * cg_out * kdim..(g + 1) * cg_out * kdim];
            let mut grad_col = vec![0.0f32; kdim * n];
            matmul_tn(w_slice, grad_mat, &mut grad_col, kdim, cg_out, n);
            self.col2im(&grad_col, &mut grad_input, g);
        }
        grad_input
    }

    fn backward_params(&mut self, grad: &Tensor) {
        let _ = self.param_gradients(grad);
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
        StdRng::seed_from_u64(7)
    }

    /// Naive direct convolution for cross-checking.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Tensor {
        let [b, ic, h, w]: [usize; 4] = input.shape()[..].try_into().unwrap();
        let [oc, cg, k, _]: [usize; 4] = weight.shape()[..].try_into().unwrap();
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut out = Tensor::zeros(&[b, oc, oh, ow]);
        let ocg = oc / groups;
        for bi in 0..b {
            for o in 0..oc {
                let g = o / ocg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[o];
                        for c in 0..cg {
                            let ch = g * cg + c;
                            for ki in 0..k {
                                for kj in 0..k {
                                    let y = (oy * stride + ki) as isize - pad as isize;
                                    let x = (ox * stride + kj) as isize - pad as isize;
                                    if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                                        continue;
                                    }
                                    let iv = input.data()
                                        [((bi * ic + ch) * h + y as usize) * w + x as usize];
                                    let wv = weight.data()[((o * cg + c) * k + ki) * k + kj];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.data_mut()[((bi * oc + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut x = seed;
        let data = (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn forward_matches_naive_basic() {
        let mut conv = Conv2d::new("c", 3, 4, 3, 1, 1, 1, &mut rng());
        let input = rand_tensor(&[2, 3, 6, 6], 1);
        let mut ctx = Context::inference();
        let out = conv.forward(&input, &mut ctx);
        let expected = naive_conv(&input, &conv.weight.value, conv.bias.value.data(), 1, 1, 1);
        assert_eq!(out.shape(), expected.shape());
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_matches_naive_strided_nopad() {
        let mut conv = Conv2d::new("c", 2, 3, 3, 2, 0, 1, &mut rng());
        let input = rand_tensor(&[1, 2, 7, 7], 3);
        let mut ctx = Context::inference();
        let out = conv.forward(&input, &mut ctx);
        let expected = naive_conv(&input, &conv.weight.value, conv.bias.value.data(), 2, 0, 1);
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_matches_naive_depthwise() {
        let mut conv = Conv2d::new("dw", 4, 4, 3, 1, 1, 4, &mut rng());
        let input = rand_tensor(&[2, 4, 5, 5], 9);
        let mut ctx = Context::inference();
        let out = conv.forward(&input, &mut ctx);
        let expected = naive_conv(&input, &conv.weight.value, conv.bias.value.data(), 1, 1, 4);
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn input_gradient_is_correct() {
        let mut conv = Conv2d::new("c", 2, 3, 3, 1, 1, 1, &mut rng());
        let input = rand_tensor(&[1, 2, 5, 5], 11);
        check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn weight_gradient_is_correct() {
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 0, 1, &mut rng());
        let input = rand_tensor(&[1, 2, 5, 5], 13);
        let mut ctx = Context::train();
        let out = conv.forward(&input, &mut ctx);
        let coeff: Vec<f32> = (0..out.len())
            .map(|i| ((i % 5) as f32 - 2.0) * 0.1)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), coeff.clone());
        let _ = conv.backward(&grad_out);

        let eps = 1e-2f32;
        let analytic = conv.weight.grad.clone();
        for idx in [0usize, 7, 17, 35] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let mut ctx = Context::train();
            let out_p = conv.forward(&input, &mut ctx);
            let lp: f32 = out_p.data().iter().zip(&coeff).map(|(a, b)| a * b).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let mut ctx = Context::train();
            let out_m = conv.forward(&input, &mut ctx);
            let lm: f32 = out_m.data().iter().zip(&coeff).map(|(a, b)| a * b).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "weight grad mismatch at {idx}: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn quantized_forward_captures_gemm() {
        let mut conv = Conv2d::new("c", 2, 3, 3, 1, 1, 1, &mut rng());
        conv.input_range = 1.0;
        let input = rand_tensor(&[1, 2, 4, 4], 17).map(|v| v.abs()); // non-negative "activations"
        let mut ctx = Context::inference().capturing();
        let _ = conv.forward(&input, &mut ctx);
        let captures = ctx.capture.unwrap();
        assert_eq!(captures.len(), 1);
        let cap = &captures[0];
        assert_eq!(cap.m, 3);
        assert_eq!(cap.k, 2 * 9);
        assert_eq!(cap.n, 16);
        assert_eq!(cap.weight_codes.len(), cap.m * cap.k);
        assert_eq!(cap.act_codes.len(), cap.k * cap.n);
    }

    /// The patch matrix by the general per-element loop: every
    /// (channel, kernel offset, image, output pixel) checks its input
    /// coordinate against the borders.
    fn im2col_reference(conv: &Conv2d, input: &Tensor, group: usize) -> Vec<f32> {
        let [b, _, h, w]: [usize; 4] = input.shape()[..].try_into().unwrap();
        let (oh, ow) = conv.output_hw(h, w);
        let cg = conv.in_ch / conv.groups;
        let (k, kk, n) = (conv.k, conv.k * conv.k, b * oh * ow);
        let mut col = vec![0.0f32; cg * kk * n];
        for bi in 0..b {
            for c in 0..cg {
                let ch = group * cg + c;
                for ki in 0..k {
                    for kj in 0..k {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let y = (oy * conv.stride + ki) as isize - conv.pad as isize;
                                let x = (ox * conv.stride + kj) as isize - conv.pad as isize;
                                if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                                    continue;
                                }
                                col[(c * kk + ki * k + kj) * n + bi * oh * ow + oy * ow + ox] =
                                    input.data()[((bi * conv.in_ch + ch) * h + y as usize) * w
                                        + x as usize];
                            }
                        }
                    }
                }
            }
        }
        col
    }

    /// [`Conv2d::col2im`] by the general per-element loop, in the same
    /// (channel, kernel offset, image, output pixel) order.
    fn col2im_reference(conv: &Conv2d, grad_col: &[f32], grad_input: &mut Tensor, group: usize) {
        let [b, _, h, w]: [usize; 4] = grad_input.shape()[..].try_into().unwrap();
        let (oh, ow) = conv.output_hw(h, w);
        let cg = conv.in_ch / conv.groups;
        let (k, kk, n) = (conv.k, conv.k * conv.k, b * oh * ow);
        for bi in 0..b {
            for c in 0..cg {
                let ch = group * cg + c;
                for ki in 0..k {
                    for kj in 0..k {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let y = (oy * conv.stride + ki) as isize - conv.pad as isize;
                                let x = (ox * conv.stride + kj) as isize - conv.pad as isize;
                                if y < 0 || y >= h as isize || x < 0 || x >= w as isize {
                                    continue;
                                }
                                grad_input.data_mut()
                                    [((bi * conv.in_ch + ch) * h + y as usize) * w + x as usize] +=
                                    grad_col
                                        [(c * kk + ki * k + kj) * n + bi * oh * ow + oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn span_im2col_and_col2im_match_the_general_loop() {
        // (in_ch, out_ch, k, stride, pad, groups, h, w): stride 2 with
        // and without padding, grouped and depthwise, padding wider
        // than the input so whole kernel rows fall outside it.
        let configs = [
            (3, 6, 5, 1, 0, 1, 9, 11),
            (2, 4, 3, 2, 1, 1, 7, 8),
            (4, 4, 3, 2, 0, 2, 9, 9),
            (4, 4, 3, 1, 1, 4, 5, 6),
            (2, 2, 5, 2, 2, 1, 6, 5),
            (1, 2, 5, 1, 3, 1, 1, 2),
        ];
        for (i, &(in_ch, out_ch, k, stride, pad, groups, h, w)) in configs.iter().enumerate() {
            let mut conv = Conv2d::new("c", in_ch, out_ch, k, stride, pad, groups, &mut rng());
            let input = rand_tensor(&[2, in_ch, h, w], 40 + i as u64);
            conv.cached_input_shape = input.shape().to_vec();
            let (oh, ow) = conv.output_hw(h, w);
            let rows = (in_ch / groups) * k * k;
            let mut grad_input = Tensor::zeros(input.shape());
            let mut expected = Tensor::zeros(input.shape());
            for g in 0..groups {
                let col = conv.im2col(&input, g);
                assert_eq!(
                    col,
                    im2col_reference(&conv, &input, g),
                    "config {i}, group {g}"
                );
                let grad_col = rand_tensor(&[rows * 2 * oh * ow], 90 + i as u64).into_data();
                conv.col2im(&grad_col, &mut grad_input, g);
                col2im_reference(&conv, &grad_col, &mut expected, g);
            }
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad_input), bits(&expected), "config {i}: col2im");
        }
    }

    #[test]
    fn restricted_weights_affect_forward() {
        use crate::quant::ValueSet;
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, 1, &mut rng());
        let input = rand_tensor(&[1, 2, 4, 4], 23);
        let mut ctx = Context::inference().quantized();
        let free = conv.forward(&input, &mut ctx);
        conv.wquant.allowed = Some(ValueSet::new([-127, 0, 127]));
        let mut ctx = Context::inference().quantized();
        let restricted = conv.forward(&input, &mut ctx);
        assert_ne!(free.data(), restricted.data());
    }
}
