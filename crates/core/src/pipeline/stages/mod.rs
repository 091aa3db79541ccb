//! The steps of the PowerPruning flow as plain functions over a shared
//! [`PipelineCtx`], composed into the paper's experiments by
//! [`Pipeline`](crate::pipeline::Pipeline).
//!
//! * `characterize` (crate-private) — baseline training, GEMM capture,
//!   power/timing characterization (paper Figs. 2–4), run through the
//!   matching [`Pipeline`](crate::pipeline::Pipeline) methods.
//!   Each of these four steps consults the attached artifact cache
//!   before computing.
//! * [`select`] — weight selection by power, joint weight/activation
//!   selection by delay, and the shared retraining helpers (Figs. 8–9).
//!
//! Power measurement and voltage scaling (Table I) are single calls
//! `Pipeline` makes itself: [`systolic::SystolicArray::run_network_energy`]
//! and [`crate::voltage::VoltageScaling::from_delays`].

pub(crate) mod characterize;
pub mod select;

use crate::cache::CharCache;
use crate::chars::MacHardware;
use crate::pipeline::PipelineConfig;
use crate::voltage::VoltageModel;
use systolic::SystolicArray;

/// Shared, read-only context handed to every step: the configuration
/// plus the long-lived hardware models of the run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineCtx<'a> {
    /// Experiment configuration.
    pub cfg: &'a PipelineConfig,
    /// The characterized MAC hardware.
    pub hw: &'a MacHardware,
    /// The systolic array simulator.
    pub array: &'a SystolicArray,
    /// The supply-voltage model used for slack conversion.
    pub voltage: &'a VoltageModel,
    /// The characterization artifact cache, when enabled. Steps that
    /// produce pure-function artifacts consult it before simulating.
    pub cache: Option<&'a CharCache>,
}
