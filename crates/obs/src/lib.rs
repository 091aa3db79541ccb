//! Unified observability for the PowerPruning tree.
//!
//! Three pieces, all `std`-only and process-global:
//!
//! * [`metrics`] — a registry of named counters, gauges and
//!   fixed-bucket histograms. Handles are `Copy` wrappers around leaked
//!   atomics, so a registered metric costs one relaxed atomic op per
//!   update — cheap enough for the gate-simulation hot path. The whole
//!   registry renders as Prometheus text exposition
//!   ([`metrics::render_prometheus`]) for the daemon's `GET /metrics`.
//! * [`trace`] — RAII span guards recording `(name, parent, start,
//!   duration, fields)` into a bounded ring buffer, tagged with the
//!   thread's current **trace ID** so one request can be followed from
//!   the daemon's connection thread through the worker pool into the
//!   store's remote tier. The ring exports as chrome://tracing JSON
//!   ([`trace::trace_json`]).
//! * [`log`] — a leveled, timestamped stderr logger behind the
//!   `POWERPRUNING_LOG` env knob (`off | error | info | debug`), with
//!   the current trace ID woven into every line.
//!
//! Every update lands, so each count has one source of truth: its
//! registry cell. A count that must also be read per instance (one
//! store, one daemon, when several share a test process) is a
//! [`metrics::InstanceCounter`], which bumps its own cell and the
//! registry counter of the same name in one call. Hot loops keep local
//! tallies and flush them once per unit of work, which bounds what the
//! registry costs them.

pub mod log;
pub mod metrics;
pub mod trace;

pub use trace::{current_trace, span, with_trace, SpanGuard, TraceId};
