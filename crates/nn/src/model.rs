//! Model composition: sequential chains, residual blocks and the
//! [`Network`] wrapper that exposes the PowerPruning hooks.

use crate::layers::{Context, GemmCapture, Layer, Param};
use crate::quant::{round_clamp, ActQuantizer, ValueSet, WeightQuantizer};
use crate::tensor::Tensor;

/// A chain of layers executed in order.
#[derive(Debug, Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, ctx);
        }
        x
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Propagates through every layer but the first, which only
    /// accumulates its parameter gradients.
    fn backward_params(&mut self, grad: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn visit_weight_quant(&mut self, f: &mut dyn FnMut(&mut WeightQuantizer)) {
        for layer in &mut self.layers {
            layer.visit_weight_quant(f);
        }
    }

    fn visit_act_quant(&mut self, f: &mut dyn FnMut(&mut ActQuantizer)) {
        for layer in &mut self.layers {
            layer.visit_act_quant(f);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A residual block: `out = main(x) + shortcut(x)`.
///
/// An empty shortcut chain acts as the identity. The output shapes of
/// the two branches must match.
#[derive(Debug)]
pub struct Residual {
    name: String,
    main: Sequential,
    shortcut: Sequential,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    #[must_use]
    pub fn new(name: impl Into<String>, main: Sequential) -> Self {
        let name = name.into();
        Residual {
            shortcut: Sequential::new(format!("{name}.shortcut")),
            name,
            main,
        }
    }

    /// Creates a residual block with a projection shortcut.
    #[must_use]
    pub fn with_shortcut(name: impl Into<String>, main: Sequential, shortcut: Sequential) -> Self {
        Residual {
            name: name.into(),
            main,
            shortcut,
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, ctx: &mut Context) -> Tensor {
        let mut main_out = self.main.forward(input, ctx);
        let short_out = if self.shortcut.is_empty() {
            input.clone()
        } else {
            self.shortcut.forward(input, ctx)
        };
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual branch shapes must match"
        );
        main_out.add_assign(&short_out);
        main_out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut gx = self.main.backward(grad);
        if self.shortcut.is_empty() {
            gx.add_assign(grad);
        } else {
            let gs = self.shortcut.backward(grad);
            gx.add_assign(&gs);
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        self.shortcut.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.main.visit_buffers(f);
        self.shortcut.visit_buffers(f);
    }

    fn visit_weight_quant(&mut self, f: &mut dyn FnMut(&mut WeightQuantizer)) {
        self.main.visit_weight_quant(f);
        self.shortcut.visit_weight_quant(f);
    }

    fn visit_act_quant(&mut self, f: &mut dyn FnMut(&mut ActQuantizer)) {
        self.main.visit_act_quant(f);
        self.shortcut.visit_act_quant(f);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A complete network: a root layer plus PowerPruning configuration.
///
/// # Examples
///
/// ```
/// use nn::layers::Dense;
/// use nn::model::{Network, Sequential};
/// use nn::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let root = Sequential::new("mlp").with(Dense::new("fc", 4, 2, &mut rng));
/// let mut net = Network::new(root);
/// let x = Tensor::zeros(&[1, 4]);
/// let y = net.predict(&x);
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Debug)]
pub struct Network {
    root: Sequential,
    /// Whether forward passes are quantization-aware.
    pub quantize: bool,
}

impl Network {
    /// Wraps a root chain.
    #[must_use]
    pub fn new(root: Sequential) -> Self {
        Network {
            root,
            quantize: false,
        }
    }

    /// The network name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.root.name()
    }

    /// Inference forward pass (respecting the quantize flag).
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        let mut ctx = Context::inference();
        ctx.quantize = self.quantize;
        self.root.forward(input, &mut ctx)
    }

    /// Training forward pass.
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let mut ctx = Context::train();
        ctx.quantize = self.quantize;
        self.root.forward(input, &mut ctx)
    }

    /// Backward pass; returns the input gradient.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.root.backward(grad)
    }

    /// Backward pass for training: accumulates the same parameter
    /// gradients as [`Network::backward`] but skips the gradient with
    /// respect to the network input, which an optimizer step never
    /// reads.
    pub fn backward_params(&mut self, grad: &Tensor) {
        self.root.backward_params(grad);
    }

    /// Forward pass that records every quantized GEMM (weights as int8
    /// codes, streamed activations as uint8 codes) for systolic replay.
    pub fn forward_capture(&mut self, input: &Tensor) -> (Tensor, Vec<GemmCapture>) {
        let mut ctx = Context::inference().capturing();
        let out = self.root.forward(input, &mut ctx);
        (out, ctx.capture.unwrap_or_default())
    }

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.root.visit_params(f);
    }

    /// Visits every non-trainable state buffer (batch-norm running
    /// statistics) in a stable order.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.root.visit_buffers(f);
    }

    /// Visits every weight quantizer (conv/dense layers) — read access
    /// for cache-key derivation as well as restriction installation.
    pub fn visit_weight_quant(&mut self, f: &mut dyn FnMut(&mut WeightQuantizer)) {
        self.root.visit_weight_quant(f);
    }

    /// Visits every activation quantizer (activation layers).
    pub fn visit_act_quant(&mut self, f: &mut dyn FnMut(&mut ActQuantizer)) {
        self.root.visit_act_quant(f);
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.root.visit_params(&mut |p| p.grad.zero());
    }

    /// Installs (or clears) the allowed weight-code set on every
    /// conv/dense layer.
    pub fn set_weight_restriction(&mut self, allowed: Option<ValueSet>) {
        self.root.visit_weight_quant(&mut |wq| {
            wq.allowed = allowed.clone();
        });
    }

    /// Installs (or clears) the allowed activation-code set on every
    /// activation layer.
    pub fn set_activation_restriction(&mut self, allowed: Option<ValueSet>) {
        self.root.visit_act_quant(&mut |aq| {
            aq.allowed = allowed.clone();
        });
    }

    /// Total number of trainable scalars.
    #[must_use]
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.root.visit_params(&mut |p| count += p.value.len());
        count
    }

    /// Fraction of weights whose quantized code is zero, over all
    /// conv/dense weight tensors (paper-style sparsity metric).
    #[must_use]
    pub fn zero_weight_fraction(&mut self) -> f64 {
        let mut zeros = 0usize;
        let mut total = 0usize;
        self.root.visit_params(&mut |p| {
            if p.decay {
                // weight tensors only
                let scale = (p.value.max_abs() / 127.0).max(1e-8);
                for &v in p.value.data() {
                    if round_clamp(v / scale, -127, 127) == 0 {
                        zeros += 1;
                    }
                    total += 1;
                }
            }
        });
        if total == 0 {
            0.0
        } else {
            zeros as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, QuantReLU};
    use crate::serialize::{load_state, save_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn mlp() -> Network {
        let mut r = rng();
        let root = Sequential::new("mlp")
            .with(Dense::new("fc1", 4, 8, &mut r))
            .with(QuantReLU::new("relu1", 6.0))
            .with(Dense::new("fc2", 8, 3, &mut r));
        Network::new(root)
    }

    #[test]
    fn sequential_forward_backward_round_trip() {
        let mut net = mlp();
        let x = Tensor::from_vec(&[2, 4], vec![0.1; 8]);
        let out = net.forward_train(&x);
        assert_eq!(out.shape(), &[2, 3]);
        let g = Tensor::from_vec(&[2, 3], vec![1.0; 6]);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), &[2, 4]);
    }

    /// Every parameter gradient's bits, in visit order.
    fn grad_bits(net: &mut Network) -> Vec<Vec<u32>> {
        let mut grads = Vec::new();
        net.visit_params(&mut |p| grads.push(p.grad.data().iter().map(|v| v.to_bits()).collect()));
        grads
    }

    /// Runs one quantized training step's backward on a fresh `make()`
    /// network, with a restricted weight set as in retraining, and
    /// returns its parameter gradients.
    fn step_grads(make: fn() -> Network, x: &Tensor, params_only: bool) -> Vec<Vec<u32>> {
        let mut net = make();
        net.quantize = true;
        net.set_weight_restriction(Some(ValueSet::new([-96, -40, -9, 0, 9, 40, 96])));
        let out = net.forward_train(x);
        let g = Tensor::from_vec(
            out.shape(),
            (0..out.len())
                .map(|i| (i % 5) as f32 * 0.3 - 0.55)
                .collect(),
        );
        if params_only {
            net.backward_params(&g);
        } else {
            let _ = net.backward(&g);
        }
        grad_bits(&mut net)
    }

    #[test]
    fn params_only_backward_leaves_every_gradient_bit_identical() {
        fn cnn() -> Network {
            crate::models::tiny_cnn("cnn", 1, 8, 3, &mut StdRng::seed_from_u64(8))
        }
        fn grouped() -> Network {
            let mut r = StdRng::seed_from_u64(9);
            let conv = crate::layers::Conv2d::new("conv", 4, 6, 3, 2, 1, 2, &mut r);
            Network::new(Sequential::new("grouped").with(conv))
        }
        // Dense-first, conv-first, and a lone grouped, strided, padded
        // conv.
        let nets = [
            (mlp as fn() -> Network, &[3, 4][..]),
            (cnn, &[3, 1, 8, 8]),
            (grouped, &[2, 4, 7, 7]),
        ];
        for (make, shape) in nets {
            let len: usize = shape.iter().product();
            let x = Tensor::from_vec(shape, (0..len).map(|i| (i % 11) as f32 * 0.09).collect());
            let full = step_grads(make, &x, false);
            assert!(full.iter().flatten().any(|&b| b != 0), "no gradient flowed");
            assert_eq!(
                step_grads(make, &x, true),
                full,
                "network {}",
                make().name()
            );
        }
    }

    #[test]
    fn residual_identity_adds_input() {
        let main = Sequential::new("empty-main");
        let mut res = Residual::new("res", main);
        let x = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let mut ctx = Context::inference();
        let y = res.forward(&x, &mut ctx);
        // empty main = identity, identity shortcut => out = 2x
        assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn residual_backward_sums_branches() {
        let main = Sequential::new("m");
        let mut res = Residual::new("res", main);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let mut ctx = Context::train();
        let _ = res.forward(&x, &mut ctx);
        let g = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let gx = res.backward(&g);
        assert_eq!(gx.data(), &[2.0, 4.0]);
    }

    #[test]
    fn weight_restriction_propagates_to_all_layers() {
        let mut net = mlp();
        net.quantize = true;
        net.set_weight_restriction(Some(ValueSet::new([-127, 0, 127])));
        let mut count = 0;
        net.root.visit_weight_quant(&mut |wq| {
            assert!(wq.allowed.is_some());
            count += 1;
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn capture_collects_one_gemm_per_dense() {
        let mut net = mlp();
        let x = Tensor::from_vec(&[2, 4], vec![0.2; 8]);
        let (_, captures) = net.forward_capture(&x);
        assert_eq!(captures.len(), 2);
        assert_eq!(captures[0].m, 8);
        assert_eq!(captures[1].m, 3);
    }

    #[test]
    fn zero_weight_fraction_is_a_fraction() {
        let mut net = mlp();
        let f = net.zero_weight_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn param_count_is_positive() {
        let mut net = mlp();
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    /// A conv + batch-norm network: its inference reads the running
    /// statistics as well as the parameters.
    fn bn_net() -> Network {
        let mut r = rng();
        let root = Sequential::new("bn-net")
            .with(crate::layers::Conv2d::new("conv", 1, 4, 3, 1, 1, 1, &mut r))
            .with(crate::layers::BatchNorm2d::new("bn", 4))
            .with(QuantReLU::new("relu", 6.0));
        Network::new(root)
    }

    #[test]
    fn snapshot_restore_round_trips() {
        // A rollback through the state codec (Table I's delay sweep):
        // the training forward between save and load moves the running
        // statistics, and the load must put them back with the
        // parameters.
        let mut net = bn_net();
        let batch = |offset: usize| {
            let pixels = (0..128).map(|i| ((i * 7 + offset) % 11) as f32 * 0.1);
            Tensor::from_vec(&[2, 1, 8, 8], pixels.collect())
        };
        let x = batch(0);
        let before = net.predict(&x);
        let state = save_state(&mut net);
        let _ = net.forward_train(&batch(3));
        assert_ne!(net.predict(&x).data(), before.data());
        load_state(&mut net, &state).expect("a network's own state fits it");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&net.predict(&x)), bits(&before));
    }

    #[test]
    fn restore_rejects_wrong_structure() {
        let mut a = mlp();
        let state = save_state(&mut a);
        let mut rng = rng();
        let other = Sequential::new("other").with(Dense::new("fc", 2, 2, &mut rng));
        let mut b = Network::new(other);
        let before = save_state(&mut b);
        let err = load_state(&mut b, &state).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            save_state(&mut b),
            before,
            "a rejected load changed the network"
        );
    }
}
