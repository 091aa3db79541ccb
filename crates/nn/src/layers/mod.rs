//! Layer trait and building blocks.
//!
//! Layers own their parameters and gradients and implement explicit
//! forward/backward passes (no autograd graph — every layer caches what
//! its backward pass needs). Quantization-aware behaviour is switched on
//! through the [`Context`] passed to `forward`; PowerPruning's restricted
//! value sets are installed via the `visit_*_quant` visitors.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod norm;
pub mod pool;

pub use activation::QuantReLU;
pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::BatchNorm2d;
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};

use crate::quant::{ActQuantizer, WeightQuantizer};
use crate::tensor::Tensor;
use std::fmt;

/// A trainable parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name (layer-qualified).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`, accumulated by the
    /// latest backward pass.
    pub grad: Tensor,
    /// Whether weight decay applies (true for weights, false for biases
    /// and normalization parameters).
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient buffer.
    #[must_use]
    pub fn new(name: impl Into<String>, value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
            decay,
        }
    }
}

/// Quantized operands of one GEMM as they would stream through the
/// systolic array: `C[m×n] = W[m×k] · A[k×n]` with int8 weight codes and
/// uint8 activation codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmCapture {
    /// Name of the producing layer.
    pub layer: String,
    /// Row-major `m×k` weight codes.
    pub weight_codes: Vec<i8>,
    /// Row-major `k×n` activation codes.
    pub act_codes: Vec<u8>,
    /// Output rows (output channels).
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns (spatial positions × batch).
    pub n: usize,
}

impl GemmCapture {
    /// Number of multiply-accumulate operations in this GEMM.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }
}

/// Per-forward-pass execution context.
#[derive(Debug, Default)]
pub struct Context {
    /// Training mode (affects batch-norm statistics and caching).
    pub training: bool,
    /// Quantization-aware execution: fake-quantize weights and
    /// activations (with restriction-set projection where configured).
    pub quantize: bool,
    /// When `Some`, conv/dense layers push their quantized GEMM operands
    /// here (requires `quantize`).
    pub capture: Option<Vec<GemmCapture>>,
}

impl Context {
    /// Inference context (no quantization).
    #[must_use]
    pub fn inference() -> Self {
        Context::default()
    }

    /// Training context.
    #[must_use]
    pub fn train() -> Self {
        Context {
            training: true,
            ..Context::default()
        }
    }

    /// Quantization-aware variant of this context.
    #[must_use]
    pub fn quantized(mut self) -> Self {
        self.quantize = true;
        self
    }

    /// Enables GEMM capture (implies quantized execution).
    #[must_use]
    pub fn capturing(mut self) -> Self {
        self.quantize = true;
        self.capture = Some(Vec::new());
        self
    }
}

/// A neural network layer with explicit forward/backward passes.
pub trait Layer: fmt::Debug {
    /// Computes the layer output, caching whatever backward needs.
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor;

    /// Propagates the loss gradient, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// Must be called after a `forward` with `training = true`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads
    /// (the first layer of a network in training): accumulates the same
    /// parameter gradients, bit for bit, and may skip the input gradient.
    /// The default runs `backward` and drops the input gradient.
    fn backward_params(&mut self, grad: &Tensor) {
        let _ = self.backward(grad);
    }

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-trainable state buffer in a stable order
    /// (batch-norm running statistics). Buffers are part of a trained
    /// network's inference behaviour, so serialization and cache keys
    /// must cover them even though no gradient flows through them.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Visits every weight quantizer (conv/dense layers).
    fn visit_weight_quant(&mut self, _f: &mut dyn FnMut(&mut WeightQuantizer)) {}

    /// Visits every activation quantizer (activation layers).
    fn visit_act_quant(&mut self, _f: &mut dyn FnMut(&mut ActQuantizer)) {}

    /// Layer name for diagnostics and captures.
    fn name(&self) -> &str;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Numerically checks `d loss/d input` of a layer against finite
    /// differences, where loss = Σ out·coeff.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut ctx = Context::train();
        let out = layer.forward(input, &mut ctx);
        let coeff: Vec<f32> = (0..out.len())
            .map(|i| ((i % 7) as f32 - 3.0) * 0.1)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), coeff.clone());
        let grad_in = layer.backward(&grad_out);

        let loss = |layer: &mut dyn Layer, x: &Tensor| -> f32 {
            let mut ctx = Context::train();
            let o = layer.forward(x, &mut ctx);
            o.data().iter().zip(&coeff).map(|(a, b)| a * b).sum()
        };

        let eps = 1e-2f32;
        for idx in (0..input.len()).step_by((input.len() / 7).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(layer, &plus) - loss(layer, &minus)) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "grad mismatch at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
