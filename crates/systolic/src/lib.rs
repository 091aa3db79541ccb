//! Cycle-level weight-stationary systolic array simulator.
//!
//! Replaces the RTL + Modelsim + Power Compiler accelerator flow of the
//! PowerPruning paper. Quantized GEMMs captured from the
//! [`nn`] crate ([`nn::layers::GemmCapture`]) are tiled onto an R×C
//! weight-stationary array (TPU-style: weights stationary in PEs,
//! activations streamed across rows, partial sums accumulated down
//! columns).
//!
//! Two execution modes mirror the paper's two uses of the simulator:
//!
//! * [`stats`] — exact per-PE operand streams produce the activation
//!   transition histogram and partial-sum transition samples that drive
//!   power characterization (paper Fig. 4).
//! * [`energy`] — per-weight characterized MAC energies
//!   ([`energy::MacEnergyModel`]) are integrated over the exact weight
//!   residency of the array to produce dynamic + leakage power for the
//!   [`array::HwVariant::Standard`] and [`array::HwVariant::Optimized`]
//!   hardware variants (zero-weight clock gating and unused-column power
//!   gating).
//!
//! # Examples
//!
//! ```
//! use nn::layers::GemmCapture;
//! use systolic::array::{ArrayConfig, HwVariant, SystolicArray};
//! use systolic::energy::MacEnergyModel;
//!
//! let gemm = GemmCapture {
//!     layer: "demo".into(),
//!     weight_codes: vec![1, -2, 3, 0],
//!     act_codes: vec![10, 20, 30, 40],
//!     m: 2,
//!     k: 2,
//!     n: 2,
//! };
//! let array = SystolicArray::new(ArrayConfig::default());
//! let model = MacEnergyModel::analytic_default();
//! let report = array.run_gemm_energy(&gemm, &model, HwVariant::Optimized);
//! assert!(report.dynamic_fj > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod dataflow;
pub mod energy;
pub mod stats;
pub mod traffic;

pub use array::{ArrayConfig, HwVariant, SystolicArray};
pub use dataflow::{run_gemm_energy_dataflow, Dataflow};
pub use energy::{GemmEnergyReport, MacEnergyModel, NetworkEnergyReport};
pub use stats::TransitionStats;
pub use traffic::{gemm_traffic, MemoryModel, MemoryTraffic};
