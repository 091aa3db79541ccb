//! Batched gate-simulation engine: the allocation-free per-sample
//! engine behind timing characterization.
//!
//! [`crate::Simulator`] is the *reference* scalar implementation: every
//! `settle` allocates a fresh value vector, every `transition` a fresh
//! event heap and a fresh [`crate::TransitionStats`]. That is fine for a
//! handful of measurements and ideal for differential testing, but the
//! characterization loops of the PowerPruning flow run *millions* of
//! settle/transition round-trips.
//!
//! [`BatchSim`] keeps every buffer alive across transitions:
//!
//! * the settled value vector is updated **in place** — repeated settles
//!   re-evaluate only the fanout cone of the inputs that changed, in one
//!   forward sweep over the topologically ordered gate list;
//! * events live in a reusable arena-backed lane-per-delay queue
//!   (`EventQueue`, an engine-internal type) of packed 16-byte records;
//! * gate evaluation goes through a precomputed 8-entry truth table per
//!   gate instead of a `match` on the cell kind;
//! * per-transition results are exposed as a borrow ([`TransitionView`])
//!   over persistent scratch arrays — no allocation per sample anywhere.
//!
//! The engine is **bit-identical** to the scalar simulator: events carry
//! the same `(time, sequence)` ordering, energies are summed in the same
//! order, and arrival times are converted with the same arithmetic. The
//! property tests in `tests/batch_equivalence.rs` enforce this across
//! the adder, Booth-multiplier and MAC generators.

use crate::cells::CellLibrary;
use crate::intervals::{EngineBuild, GateRow, PrunePlan};
use crate::netlist::{NetId, NetSource, Netlist};
use crate::sim::FS_PER_PS;

/// Sentinel for "net has no output/observation slot".
const NO_SLOT: u32 = u32::MAX;

/// Bit 0 of [`BatchSim::state`]: the net's current value.
const VALUE: u8 = 1;
/// Bit 1 of [`BatchSim::state`]: the net's last scheduled event value.
const SCHED: u8 = 1 << 1;
/// Bit 2 of [`BatchSim::state`]: the net is a primary output or observed.
const INTEREST: u8 = 1 << 2;

/// Initial per-net state: all values low, interest bits from the
/// output-slot table (no nets observed yet).
fn output_slot_to_state(output_slot: &[u32]) -> Vec<u8> {
    output_slot
        .iter()
        .map(|&slot| if slot == NO_SLOT { 0 } else { INTEREST })
        .collect()
}

/// Evaluates one gate row against the packed per-net state bytes.
#[inline]
fn eval_row(state: &[u8], gate: &GateRow) -> bool {
    let idx = usize::from(state[gate.in0 as usize] & VALUE)
        | usize::from(state[gate.in1 as usize] & VALUE) << 1
        | usize::from(state[gate.in2 as usize] & VALUE) << 2;
    gate.lut >> idx & 1 == 1
}

/// One scheduled event, packed into 16 bytes.
///
/// Ordering is lexicographic on `(time_fs, seq, net, value)`; since
/// `seq` is unique per transition this is exactly the `(time, seq)`
/// order of the scalar simulator's `BinaryHeap<Reverse<…>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_fs: u64,
    /// `seq << 33 | net << 1 | value`.
    packed: u64,
}

impl Event {
    #[inline]
    fn new(time_fs: u64, seq: u32, net: u32, value: bool) -> Self {
        debug_assert!(seq < (1 << 31), "event sequence overflow");
        Event {
            time_fs,
            packed: (u64::from(seq) << 33) | (u64::from(net) << 1) | u64::from(value),
        }
    }

    #[inline]
    fn net(self) -> u32 {
        ((self.packed >> 1) & 0xffff_ffff) as u32
    }

    #[inline]
    fn value(self) -> bool {
        self.packed & 1 == 1
    }
}

/// One FIFO lane of the event queue: all events scheduled through gates
/// with the same propagation delay.
///
/// Event pop times are nondecreasing and every event in this lane is
/// scheduled at `pop_time + delay`, so the lane is sorted by arrival
/// time (and by sequence number within a time) purely by push order —
/// no sifting ever happens.
#[derive(Debug, Default)]
struct Lane {
    head: usize,
    events: Vec<Event>,
}

/// A reusable min-queue of simulation events, organised as one FIFO
/// lane per distinct gate delay (a standard-cell library has at most a
/// handful).
///
/// Monotone event times plus a fixed delay per lane keep every lane
/// sorted for free: `push` is an append, `pop` scans the lane heads for
/// the earliest `(time, seq)` pair. The lane arenas are cleared but
/// never freed between transitions, so steady-state operation performs
/// no allocation at all.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    lanes: Vec<Lane>,
    len: usize,
}

impl EventQueue {
    /// An empty queue with `lanes` delay lanes.
    fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            len: 0,
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all events, keeping the lane arena capacities.
    fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.head = 0;
            lane.events.clear();
        }
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, lane: usize, ev: Event) {
        debug_assert!(
            self.lanes[lane].events.last().is_none_or(|&prev| prev < ev),
            "lane push order violated"
        );
        self.lanes[lane].events.push(ev);
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        let mut best: Option<(usize, Event)> = None;
        for (idx, lane) in self.lanes.iter().enumerate() {
            if let Some(&ev) = lane.events.get(lane.head) {
                if best.is_none_or(|(_, b)| ev < b) {
                    best = Some((idx, ev));
                }
            }
        }
        let (idx, ev) = best?;
        self.lanes[idx].head += 1;
        self.len -= 1;
        Some(ev)
    }
}

/// Borrow of one transition's results over the engine's scratch buffers.
///
/// Holding a view blocks further engine calls; copy out what you need.
#[derive(Debug)]
pub struct TransitionView<'a> {
    /// Total switching energy of the transition, fJ.
    pub energy_fj: f64,
    /// Arrival of the last primary-output toggle, ps (0 if none).
    pub delay_ps: f64,
    /// Number of net toggles, glitches included.
    pub toggles: u64,
    outputs_fs: &'a [u64],
    observed_fs: &'a [u64],
}

impl TransitionView<'_> {
    /// Arrival (ps) of the last toggle of the `slot`-th primary output,
    /// 0.0 if it did not toggle.
    #[must_use]
    pub fn output_arrival_ps(&self, slot: usize) -> f64 {
        self.outputs_fs
            .get(slot)
            .map_or(0.0, |&t| t as f64 / FS_PER_PS)
    }

    /// Number of primary-output slots.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs_fs.len()
    }

    /// Arrival (ps) of the last toggle of the `slot`-th observed net
    /// (see [`BatchSim::observe`]), 0.0 if it did not toggle.
    #[must_use]
    pub fn observed_arrival_ps(&self, slot: usize) -> f64 {
        self.observed_fs
            .get(slot)
            .map_or(0.0, |&t| t as f64 / FS_PER_PS)
    }

    /// Number of observed-net slots.
    #[must_use]
    pub fn observed_count(&self) -> usize {
        self.observed_fs.len()
    }
}

/// Batched event-driven simulator with persistent, reused buffers.
///
/// Semantics match [`crate::Simulator`] exactly (see the module docs);
/// the difference is purely mechanical: nothing is allocated per
/// settle/transition, settles are incremental, and results are borrowed
/// instead of owned.
///
/// # Examples
///
/// ```
/// use gatesim::{BatchSim, CellLibrary, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("inv_chain");
/// let a = b.input("a");
/// let x = b.inv(a);
/// let y = b.inv(x);
/// b.output(y);
/// let nl = b.finish();
///
/// let lib = CellLibrary::nangate15_like();
/// let mut sim = BatchSim::new(&nl, &lib);
/// sim.settle(&[false]);
/// let view = sim.transition(&[true]);
/// assert_eq!(view.toggles, 3);
/// assert!(view.delay_ps > 0.0);
/// ```
#[derive(Debug)]
pub struct BatchSim<'a> {
    netlist: &'a Netlist,
    /// Shared engine compilation: gate rows, live gate order, baked
    /// constants, live-filtered fanout, per-net energies and pin
    /// assertions (see [`crate::intervals`]).
    build: EngineBuild,
    output_slot: Vec<u32>,
    observe_slot: Vec<u32>,
    observed_count: usize,
    /// Per-net packed state: [`VALUE`] is the settled/current value,
    /// [`SCHED`] the value of the latest event scheduled for the net,
    /// [`INTEREST`] marks nets that are primary outputs or observed.
    ///
    /// The scheduled bit equals the value bit between transitions.
    /// Because every gate has one fixed delay, events for a net pop in
    /// push order, so an event matching the net's last scheduled value
    /// can never toggle — it is filtered at push time instead of pop
    /// time, halving the heap traffic without changing any observable
    /// result. Packing all three bits into one byte keeps the event hot
    /// loop to a single random load per net.
    state: Vec<u8>,
    current_inputs: Vec<bool>,
    primed: bool,
    queue: EventQueue,
    /// Dirty flags for the incremental settle sweep.
    gate_dirty: Vec<bool>,
    /// Scratch: last-toggle arrival per output / observed slot, fs.
    output_arrival_fs: Vec<u64>,
    observed_arrival_fs: Vec<u64>,
}

impl<'a> BatchSim<'a> {
    /// Creates an engine for `netlist` with electrical data from `lib`.
    ///
    /// Equivalent to [`BatchSim::with_plan`] with an unpinned
    /// [`PrunePlan`]: constant-fed cones are still pruned, which never
    /// changes any observable result.
    #[must_use]
    pub fn new(netlist: &'a Netlist, lib: &CellLibrary) -> Self {
        Self::with_plan(netlist, lib, &PrunePlan::unpinned(netlist, lib))
    }

    /// Creates an engine that skips the gates `plan` proved silent:
    /// their constant outputs are baked at settle time and no event is
    /// ever scheduled through them. Results are exactly bit-identical
    /// to the unpruned engine for any stimulus that respects the plan's
    /// pinned inputs (asserted on every settle/transition).
    #[must_use]
    pub fn with_plan(netlist: &'a Netlist, lib: &CellLibrary, plan: &PrunePlan) -> Self {
        let build = EngineBuild::new(netlist, lib, plan);
        let mut output_slot = vec![NO_SLOT; netlist.net_count()];
        for (slot, net) in netlist.outputs().iter().enumerate() {
            // First slot wins if a net is listed twice.
            if output_slot[net.index()] == NO_SLOT {
                output_slot[net.index()] = slot as u32;
            }
        }
        let outputs = netlist.outputs().len();
        let state = output_slot_to_state(&output_slot);
        let lanes = build.lane_count;
        BatchSim {
            netlist,
            build,
            output_slot,
            observe_slot: vec![NO_SLOT; netlist.net_count()],
            observed_count: 0,
            state,
            current_inputs: vec![false; netlist.inputs().len()],
            primed: false,
            queue: EventQueue::with_lanes(lanes),
            gate_dirty: vec![false; netlist.gate_count()],
            output_arrival_fs: vec![0; outputs],
            observed_arrival_fs: Vec::new(),
        }
    }

    /// Panics unless every pinned input holds its pinned value — the
    /// pruning proofs are conditional on exactly that.
    fn assert_pins(&self, inputs: &[bool]) {
        for &(pos, v) in &self.build.pins {
            assert_eq!(
                inputs[pos as usize], v,
                "pinned input {pos} violated (plan pins it to {v})"
            );
        }
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Registers nets whose last-toggle arrivals are recorded by
    /// subsequent transitions (slot `i` ↔ `nets[i]`).
    pub fn observe(&mut self, nets: &[NetId]) {
        self.observe_slot.fill(NO_SLOT);
        for (slot, net) in nets.iter().enumerate() {
            self.observe_slot[net.index()] = slot as u32;
        }
        self.observed_count = nets.len();
        self.observed_arrival_fs.resize(nets.len(), 0);
        for net in 0..self.state.len() {
            let interesting = self.output_slot[net] != NO_SLOT || self.observe_slot[net] != NO_SLOT;
            self.state[net] =
                (self.state[net] & !INTEREST) | if interesting { INTEREST } else { 0 };
        }
    }

    /// Sets a net's value *and* scheduled bits (used while settling,
    /// where both must stay in sync).
    #[inline]
    fn set_settled(&mut self, net: usize, v: bool) {
        let s = &mut self.state[net];
        *s = (*s & !(VALUE | SCHED)) | if v { VALUE | SCHED } else { 0 };
    }

    #[inline]
    fn eval_gate(&self, gid: usize) -> bool {
        eval_row(&self.state, &self.build.rows[gid])
    }

    /// Settles the circuit combinationally at `inputs`, updating the
    /// persistent value buffer in place. After the first call only the
    /// fanout cone of changed inputs is re-evaluated.
    ///
    /// # Panics
    ///
    /// Panics if the input vector length does not match the netlist.
    pub fn settle(&mut self, inputs: &[bool]) {
        assert_eq!(
            inputs.len(),
            self.current_inputs.len(),
            "input vector length mismatch"
        );
        self.assert_pins(inputs);
        if self.primed {
            self.settle_incremental(inputs);
        } else {
            self.settle_full(inputs);
            self.primed = true;
        }
        self.current_inputs.copy_from_slice(inputs);
    }

    fn settle_full(&mut self, inputs: &[bool]) {
        for idx in 0..self.netlist.sources().len() {
            match self.netlist.sources()[idx] {
                NetSource::Const0 => self.set_settled(idx, false),
                NetSource::Const1 => self.set_settled(idx, true),
                _ => {}
            }
        }
        // Bake the constants the plan proved; pruned gates are skipped
        // by the live sweep below and never touched again.
        for i in 0..self.build.pruned_values.len() {
            let (net, v) = self.build.pruned_values[i];
            self.set_settled(net as usize, v);
        }
        for pos in 0..inputs.len() {
            let net = self.netlist.inputs()[pos].index();
            self.set_settled(net, inputs[pos]);
        }
        for i in 0..self.build.live_rows.len() {
            let gid = self.build.live_rows[i] as usize;
            let out = self.build.rows[gid].out as usize;
            let v = self.eval_gate(gid);
            self.set_settled(out, v);
        }
    }

    fn settle_incremental(&mut self, inputs: &[bool]) {
        let mut first_dirty = usize::MAX;
        let mut dirty_count = 0usize;
        for (pos, &new) in inputs.iter().enumerate() {
            if self.current_inputs[pos] != new {
                let net = self.netlist.inputs()[pos].index();
                self.set_settled(net, new);
                // Live-filtered fanout: pruned gates are never marked
                // dirty, so their baked constants persist.
                let start = self.build.fanout_offsets[net] as usize;
                let end = self.build.fanout_offsets[net + 1] as usize;
                for k in start..end {
                    let gid = self.build.fanout_gate_ids[k] as usize;
                    if !self.gate_dirty[gid] {
                        self.gate_dirty[gid] = true;
                        dirty_count += 1;
                        first_dirty = first_dirty.min(gid);
                    }
                }
            }
        }
        if dirty_count == 0 {
            return;
        }
        // Gates are topologically ordered by construction, so a single
        // forward sweep reaches a fixpoint; the fanout of a changed
        // output always lies strictly ahead of the current gate.
        let mut gid = first_dirty;
        while dirty_count > 0 {
            if self.gate_dirty[gid] {
                self.gate_dirty[gid] = false;
                dirty_count -= 1;
                let out_net = self.build.rows[gid].out as usize;
                let out = self.eval_gate(gid);
                if (self.state[out_net] & VALUE != 0) != out {
                    self.set_settled(out_net, out);
                    let start = self.build.fanout_offsets[out_net] as usize;
                    let end = self.build.fanout_offsets[out_net + 1] as usize;
                    for k in start..end {
                        let succ = self.build.fanout_gate_ids[k] as usize;
                        if !self.gate_dirty[succ] {
                            self.gate_dirty[succ] = true;
                            dirty_count += 1;
                        }
                    }
                }
            }
            gid += 1;
        }
    }

    /// Current value of a net (after settle/transition).
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.state[net.index()] & VALUE != 0
    }

    /// Current primary-output values in port order.
    #[must_use]
    pub fn output_values(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|&n| self.value(n))
            .collect()
    }

    /// Applies `new_inputs` at time zero and propagates all events,
    /// reusing every buffer.
    ///
    /// Event processing order, energy summation order and arrival
    /// arithmetic are identical to [`crate::Simulator::transition`], so
    /// the results are bit-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if [`BatchSim::settle`] has not been called or the input
    /// length mismatches.
    pub fn transition(&mut self, new_inputs: &[bool]) -> TransitionView<'_> {
        assert!(self.primed, "call settle() before transition()");
        crate::counters::record_transition();
        assert_eq!(
            new_inputs.len(),
            self.current_inputs.len(),
            "input vector length mismatch"
        );
        self.assert_pins(new_inputs);
        self.output_arrival_fs.fill(0);
        self.observed_arrival_fs.fill(0);
        self.queue.clear();
        let mut seq: u32 = 0;
        // Fanout re-evaluations suppressed by push-time filtering;
        // tallied locally and flushed to the metrics registry once per
        // transition to keep atomics out of the event loop.
        let mut filtered: u64 = 0;
        let mut energy_fj = 0.0f64;
        let mut toggles = 0u64;
        let mut last_output_toggle_fs = 0u64;

        // Split borrows once so the event loop indexes plain slices
        // while the queue is borrowed mutably.
        let BatchSim {
            netlist,
            build,
            output_slot,
            observe_slot,
            state,
            current_inputs,
            queue,
            output_arrival_fs,
            observed_arrival_fs,
            ..
        } = self;

        // Primary-input toggles all happen at t = 0 and, in the scalar
        // simulator, all pop before any gate event — so they are
        // processed directly here instead of round-tripping the heap.
        for pos in 0..new_inputs.len() {
            let new = new_inputs[pos];
            if current_inputs[pos] != new {
                let net = netlist.inputs()[pos].index();
                state[net] = (state[net] & !(VALUE | SCHED)) | if new { VALUE | SCHED } else { 0 };
                toggles += 1;
                // Inputs have no driving gate, so no energy is charged;
                // an input net can still be a primary output or observed
                // (its arrival buckets are already zeroed). Fanout is
                // live-filtered: pruned gates never see events.
                let start = build.fanout_offsets[net] as usize;
                let end = build.fanout_offsets[net + 1] as usize;
                for k in start..end {
                    let gate = build.rows[build.fanout_gate_ids[k] as usize];
                    let out = eval_row(state, &gate);
                    let out_net = gate.out as usize;
                    let s = state[out_net];
                    if (s & SCHED != 0) != out {
                        state[out_net] = (s & !SCHED) | if out { SCHED } else { 0 };
                        queue.push(
                            gate.lane as usize,
                            Event::new(u64::from(gate.delay_fs), seq, gate.out, out),
                        );
                        seq += 1;
                    } else {
                        filtered += 1;
                    }
                }
            }
        }

        while let Some(ev) = queue.pop() {
            let net = ev.net() as usize;
            let value = ev.value();
            let s = state[net];
            // Push-time filtering guarantees every popped event toggles
            // (the scheduled bit was set to `value` at push time).
            debug_assert_ne!(s & VALUE != 0, value);
            let t = ev.time_fs;
            state[net] = (s & !VALUE) | if value { VALUE } else { 0 };
            toggles += 1;
            energy_fj += build.net_energy_fj[net];
            if s & INTEREST != 0 {
                let oslot = output_slot[net];
                if oslot != NO_SLOT {
                    output_arrival_fs[oslot as usize] = t;
                    last_output_toggle_fs = last_output_toggle_fs.max(t);
                }
                let wslot = observe_slot[net];
                if wslot != NO_SLOT {
                    observed_arrival_fs[wslot as usize] = t;
                }
            }
            let start = build.fanout_offsets[net] as usize;
            let end = build.fanout_offsets[net + 1] as usize;
            for k in start..end {
                let gate = build.rows[build.fanout_gate_ids[k] as usize];
                let out = eval_row(state, &gate);
                let out_net = gate.out as usize;
                let s = state[out_net];
                if (s & SCHED != 0) != out {
                    state[out_net] = (s & !SCHED) | if out { SCHED } else { 0 };
                    queue.push(
                        gate.lane as usize,
                        Event::new(t + u64::from(gate.delay_fs), seq, gate.out, out),
                    );
                    seq += 1;
                } else {
                    filtered += 1;
                }
            }
        }

        crate::counters::record_events(u64::from(seq), filtered);
        crate::counters::record_settle_ps(last_output_toggle_fs as f64 / FS_PER_PS);
        self.current_inputs.copy_from_slice(new_inputs);
        TransitionView {
            energy_fj,
            delay_ps: last_output_toggle_fs as f64 / FS_PER_PS,
            toggles,
            outputs_fs: &self.output_arrival_fs,
            observed_fs: &self.observed_arrival_fs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::circuits::MacCircuit;
    use crate::sim::Simulator;

    fn xor_tree() -> Netlist {
        let mut b = NetlistBuilder::new("xt");
        let ins = b.input_bus("a", 4);
        let x1 = b.xor2(ins[0], ins[1]);
        let x2 = b.xor2(ins[2], ins[3]);
        let x3 = b.xor2(x1, x2);
        b.output(x3);
        b.finish()
    }

    #[test]
    fn event_queue_orders_by_time_then_seq() {
        // Three delay lanes; each lane is pushed in increasing
        // (time, seq) order as the engine guarantees.
        let mut q = EventQueue::with_lanes(3);
        q.push(0, Event::new(10, 1, 3, true));
        q.push(0, Event::new(30, 4, 1, true));
        q.push(1, Event::new(10, 2, 2, false));
        q.push(2, Event::new(20, 3, 4, true));
        assert_eq!(q.len(), 4);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time_fs, e.net()))
            .collect();
        assert_eq!(order, vec![(10, 3), (10, 2), (20, 4), (30, 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn event_packing_round_trips() {
        let ev = Event::new(123, 77, 0x00ab_cdef, true);
        assert_eq!(ev.net(), 0x00ab_cdef);
        assert!(ev.value());
        let ev2 = Event::new(123, 77, 5, false);
        assert!(!ev2.value());
    }

    #[test]
    fn matches_scalar_simulator_on_xor_tree() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut scalar = Simulator::new(&nl, &lib);
        let mut batch = BatchSim::new(&nl, &lib);
        let vectors: Vec<[bool; 4]> = (0..16u8)
            .map(|v| [v & 1 != 0, v & 2 != 0, v & 4 != 0, v & 8 != 0])
            .collect();
        scalar.settle(&vectors[0]);
        batch.settle(&vectors[0]);
        for w in vectors.windows(2) {
            let s = scalar.transition(&w[1]);
            let b = batch.transition(&w[1]);
            assert_eq!(s.energy_fj, b.energy_fj);
            assert_eq!(s.toggles, b.toggles);
            assert_eq!(s.delay_ps, b.delay_ps);
            assert_eq!(s.output_arrival_ps[0], b.output_arrival_ps(0));
        }
    }

    #[test]
    fn incremental_settle_matches_full_evaluate() {
        let mac = MacCircuit::new(4, 4, 10);
        let lib = CellLibrary::nangate15_like();
        let mut batch = BatchSim::new(mac.netlist(), &lib);
        let mut x: u64 = 3;
        batch.settle(&mac.encode(0, 0, 0));
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let w = ((x & 0xf) as i64) - 8;
            let a = (x >> 4) & 0xf;
            let p = (((x >> 8) & 0x3ff) as i64) - 512;
            let inputs = mac.encode(w, a, p);
            batch.settle(&inputs);
            let expected = mac.netlist().evaluate(&inputs);
            for net in 0..mac.netlist().net_count() {
                assert_eq!(batch.value(NetId(net as u32)), expected[net], "net {net}");
            }
        }
    }

    #[test]
    fn observe_records_arrivals() {
        let mac = MacCircuit::new(4, 4, 10);
        let lib = CellLibrary::nangate15_like();
        let mut batch = BatchSim::new(mac.netlist(), &lib);
        batch.observe(mac.product_nets());
        batch.settle(&mac.encode(3, 0, 0));
        let view = batch.transition(&mac.encode(3, 15, 0));
        let any = (0..view.observed_count()).any(|i| view.observed_arrival_ps(i) > 0.0);
        assert!(any, "expected some product-bit arrivals");
    }

    #[test]
    #[should_panic(expected = "settle")]
    fn transition_requires_settle() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut batch = BatchSim::new(&nl, &lib);
        let _ = batch.transition(&[true, false, false, false]);
    }
}
