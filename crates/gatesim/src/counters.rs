//! Process-wide gate-simulation activity counters.
//!
//! The warm-start cache's contract is "a warmed run performs zero
//! gate-level work". That claim needs an observable: every
//! [`crate::Simulator::transition`], [`crate::BatchSim::transition`]
//! and [`crate::BitSim::transition`] bumps a global counter, so tests, the `charstore warm` CLI and the
//! characterization bench can assert that a cache-served pipeline run
//! triggered *no* simulation at all — not just that it was fast.
//!
//! The unit is one *stimulus vector* transition, regardless of engine:
//! a [`crate::BitSim::transition`] call that evaluates 64 packed
//! vectors in one pass records 64, so counts stay comparable across
//! the scalar, batched and bit-parallel engines.
//!
//! The counter is monotonic for the life of the process; callers
//! interested in a window take a snapshot before and subtract after.
//! One relaxed atomic add per transition is noise next to the hundreds
//! of gate events each transition propagates.
//!
//! Every count lives in the process-global [`obs`] metrics registry
//! (`gatesim_*` names), which the daemon's `/metrics` endpoint and the
//! CLI tables render. [`sim_transitions`] reads the same
//! `gatesim_sim_transitions_total` cell, so the warm-cache "zero
//! gate-level work" assertions and `/metrics` cannot disagree.

use std::sync::LazyLock;

use obs::metrics::{counter, histogram, Counter, Histogram, LATENCY_SECONDS, SETTLE_PS};

/// The `gatesim_*` metrics, registered on first gate-level activity.
struct Registry {
    transitions: Counter,
    events_scheduled: Counter,
    events_filtered: Counter,
    settle_ps: Histogram,
    gates_pruned: Counter,
    prune_plan_seconds: Histogram,
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(|| Registry {
    transitions: counter("gatesim_sim_transitions_total"),
    events_scheduled: counter("gatesim_events_scheduled_total"),
    events_filtered: counter("gatesim_events_filtered_total"),
    settle_ps: histogram("gatesim_settle_time_ps", SETTLE_PS),
    gates_pruned: counter("gatesim_gates_pruned_total"),
    prune_plan_seconds: histogram("gatesim_prune_plan_seconds", LATENCY_SECONDS),
});

/// Forces registration of the `gatesim_*` metrics so they render in
/// Prometheus exposition (at zero) before any simulation has run.
pub fn register_metrics() {
    LazyLock::force(&REGISTRY);
}

/// Total gate-level transitions simulated by this process so far, over
/// all three engines: scalar, batched and bit-parallel (one per active
/// `BitSim` lane).
#[must_use]
pub fn sim_transitions() -> u64 {
    REGISTRY.transitions.get()
}

/// Records one simulated transition (crate-internal).
#[inline]
pub(crate) fn record_transition() {
    REGISTRY.transitions.inc();
}

/// Records `n` simulated transitions at once — the bit-parallel engine
/// counts one per *active lane*, not one per word (crate-internal).
#[inline]
pub(crate) fn record_transitions(n: u64) {
    REGISTRY.transitions.add(n);
}

/// Records one transition's event accounting: how many gate events the
/// engine scheduled versus how many re-evaluations push-time filtering
/// suppressed. Called once per `transition()` — the tallies are kept in
/// locals inside the hot loop (crate-internal).
#[inline]
pub(crate) fn record_events(scheduled: u64, filtered: u64) {
    REGISTRY.events_scheduled.add(scheduled);
    REGISTRY.events_filtered.add(filtered);
}

/// Records a transition's settle time (last primary-output toggle) in
/// picoseconds (crate-internal).
#[inline]
pub(crate) fn record_settle_ps(ps: f64) {
    REGISTRY.settle_ps.observe(ps);
}

/// Records one [`crate::PrunePlan`] pass: how many gates it proved
/// silent and how long the proof took (crate-internal).
#[inline]
pub(crate) fn record_prune_plan(pruned: u64, seconds: f64) {
    REGISTRY.gates_pruned.add(pruned);
    REGISTRY.prune_plan_seconds.observe(seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let before = sim_transitions();
        record_transition();
        record_transition();
        // Other tests in this process may also record; the counter only
        // ever grows.
        assert!(sim_transitions() >= before + 2);
    }

    #[test]
    fn bulk_record_counts_per_vector() {
        let before = sim_transitions();
        record_transitions(64);
        record_transitions(17);
        assert!(sim_transitions() >= before + 81);
    }
}
