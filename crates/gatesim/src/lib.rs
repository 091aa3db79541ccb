//! Gate-level substrate for MAC-unit power and timing characterization.
//!
//! This crate replaces the commercial EDA flow used in the PowerPruning
//! paper (Synopsys Design Compiler / Power Compiler + Modelsim on a
//! NanGate 15 nm netlist) with a self-contained structural model:
//!
//! * [`cells`] — a 15 nm-like standard-cell library with per-cell
//!   propagation delay, per-output-toggle switching energy and leakage.
//! * [`netlist`] / [`builder`] — a topologically ordered combinational
//!   netlist and a safe builder API.
//! * [`circuits`] — generators for ripple-carry and carry-lookahead
//!   adders, a Baugh-Wooley signed multiplier and the complete MAC unit
//!   used by a weight-stationary systolic array.
//! * [`sim`] — an event-driven, transport-delay timed simulator that
//!   reports switching energy (including glitches) and the settle time of
//!   every transition, i.e. dynamic timing analysis (DTA).
//! * [`engine`] — the batched simulation engine ([`BatchSim`]): same
//!   semantics as [`sim`], but allocation-free with incremental settles
//!   and a reusable lane-based event queue — the per-sample-timing hot
//!   path (2.5×+ the scalar throughput, bit-identical results).
//! * [`bitsim`] — the bit-parallel engine ([`BitSim`]): 64 stimulus
//!   vectors packed into one `u64` per net, word-wide truth-table
//!   evaluation and popcount toggle counting — the power
//!   characterization hot path, lane-exactly bit-identical to [`sim`].
//! * [`sta`] — static timing analysis: longest structural path from any
//!   net to any net, used for the accumulator adder exactly as the paper
//!   describes (Fig. 5).
//! * [`intervals`] — per-net `[min, max]` STA arrival intervals and the
//!   [`PrunePlan`] pruning pass: constant propagation over pinned
//!   inputs proves whole cones silent before simulation, and the
//!   intervals bound every settle time the engines may report. The
//!   shared build layer behind every engine's `with_plan` constructor.
//!
//! # Examples
//!
//! Characterize a single multiply-accumulate transition:
//!
//! ```
//! use gatesim::circuits::MacCircuit;
//! use gatesim::{CellLibrary, Simulator};
//!
//! let lib = CellLibrary::nangate15_like();
//! let mac = MacCircuit::new(8, 8, 22);
//! let mut sim = Simulator::new(mac.netlist(), &lib);
//!
//! // weight = -105, activation 17 -> 18, partial sum 100 -> 205
//! let before = mac.encode(-105, 17, 100);
//! let after = mac.encode(-105, 18, 205);
//! sim.settle(&before);
//! let stats = sim.transition(&after);
//! assert!(stats.energy_fj > 0.0);
//! assert!(stats.delay_ps > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitsim;
pub mod builder;
pub mod cells;
pub mod circuits;
pub mod counters;
pub mod engine;
pub mod export;
pub mod intervals;
pub mod netlist;
pub mod sim;
pub mod sta;

pub use bitsim::{BitSim, BitTransitionView};
pub use builder::NetlistBuilder;
pub use cells::{CellKind, CellLibrary, CellParams};
pub use counters::{register_metrics, sim_transitions};
pub use engine::{BatchSim, TransitionView};
pub use intervals::{NetInterval, PrunePlan};
pub use netlist::{Gate, GateId, NetId, Netlist};
pub use sim::{Simulator, TransitionStats};
pub use sta::Sta;
