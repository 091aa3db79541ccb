//! From-scratch quantization-aware neural network substrate.
//!
//! This crate replaces the TensorFlow + GPU training flow of the
//! PowerPruning paper with a small, explicit
//! framework purpose-built for the paper's needs:
//!
//! * [`tensor`] / [`linalg`] — dense `f32` tensors and GEMM kernels.
//! * [`layers`] — Conv2d (grouped/depthwise), Dense, BatchNorm2d,
//!   pooling and clipped-ReLU layers with explicit backward passes.
//! * [`quant`] — int8 weight (255 codes) and uint8 activation (256
//!   codes) fake quantization, plus [`quant::ValueSet`] restriction with
//!   straight-through-estimator training, the core hook PowerPruning
//!   needs.
//! * [`model`] — sequential/residual composition and the [`Network`]
//!   wrapper exposing restriction and capture APIs.
//! * [`train`] / [`optim`] / [`loss`] — SGD training loop.
//! * [`data`] — synthetic datasets standing in for CIFAR/ImageNet.
//! * [`models`] — LeNet-5, ResNet-20, ResNet-50-mini and
//!   EfficientNet-Lite-mini builders.
//!
//! # Examples
//!
//! Train a tiny CNN on a synthetic dataset, then restrict its weights to
//! a handful of codes and keep training:
//!
//! ```
//! use nn::data::SyntheticSpec;
//! use nn::quant::ValueSet;
//! use nn::train::{train, TrainConfig};
//! use nn::models;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let data = SyntheticSpec { classes: 2, size: 8, channels: 1, samples: 32, noise: 0.05, seed: 1 }
//!     .generate();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = models::tiny_cnn("demo", 1, 8, 2, &mut rng);
//! net.quantize = true;
//! net.set_weight_restriction(Some(ValueSet::new([-64, -16, 0, 16, 64])));
//! let config = TrainConfig { epochs: 1, batch_size: 8, ..TrainConfig::default() };
//! let history = train(&mut net, &data, &config, &mut rng);
//! assert_eq!(history.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod model;
pub mod models;
pub mod optim;
pub mod quant;
pub mod serialize;
pub mod tensor;
pub mod train;

pub use model::Network;
pub use quant::ValueSet;
pub use tensor::Tensor;
