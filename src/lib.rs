//! Workspace facade for the PowerPruning reproduction.
//!
//! Re-exports the seven domain crates so examples and integration tests
//! can use one import root:
//!
//! * [`gatesim`] — gate-level netlists, timed simulation, STA.
//! * [`nn`] — quantization-aware NN training with restricted value sets.
//! * [`systolic`] — weight-stationary systolic array simulator.
//! * [`powerpruning`] — the paper's characterization/selection/retrain/
//!   voltage-scaling flow.
//! * [`charstore`] — the persistent content-addressed characterization
//!   artifact store behind the pipeline's warm starts.
//! * [`charserve`] — the long-running characterization service over
//!   that store (HTTP daemon, worker pool, single-flight dedup).
//! * [`obs`] — unified observability: the process-global metrics
//!   registry, span tracing and the leveled logger.
//!
//! See `README.md` for the quickstart, the workspace layout and the map
//! from paper sections to modules.

pub use charserve;
pub use charstore;
pub use gatesim;
pub use nn;
pub use obs;
pub use powerpruning;
pub use systolic;
