//! Bit-sliced gate simulation: 64 stimulus vectors per machine word.
//!
//! [`BitSim`] packs the value of every net across 64 independent
//! stimulus vectors ("lanes") into one `u64`, evaluates each gate with
//! a word-wide boolean formula expanded from the cell's 8-bit truth
//! table ([`crate::CellKind::truth_table`]), and runs the same
//! transport-delay event schedule as the scalar [`crate::Simulator`] —
//! once per *word* instead of once per vector. Toggles are counted with
//! popcount over the XOR of consecutive net states, so one event pop
//! charges up to 64 vectors' worth of switching activity.
//!
//! # Lane packing
//!
//! Lane *l* (bit *l* of every word) is stimulus vector *l* of the
//! current block: `settle(from, active)` takes one `u64` per primary
//! input whose bit *l* is input bit's value in vector *l*, and
//! `transition(to)` applies all 64 next-vectors at once. Callers chunk
//! an arbitrary sample stream into blocks of ≤ 64 (see
//! `powerpruning::chars::characterize_power`).
//!
//! # Tail masking
//!
//! The last block of a sample stream rarely fills all 64 lanes.
//! `settle` takes the number of `active` lanes and masks every input
//! word with `(1 << active) - 1`: inactive lanes never see an input
//! edge, therefore never schedule an event, never toggle, and never
//! contribute energy — a 70-sample run over blocks of 64 + 6 is
//! bit-identical to 70 scalar runs, with no tail correction anywhere.
//!
//! # Exact equivalence, per lane
//!
//! The engine is **bit-identical** to the scalar simulator lane by
//! lane, glitches and f64 energy sums included, because word events
//! carry *absolute* 64-lane value words:
//!
//! * every net has exactly one driving gate with one fixed delay, so a
//!   net's events pop in push order and a word event's toggle mask is
//!   simply `value[net] ^ event.value`;
//! * a pushed event is filtered against the net's last *scheduled* word
//!   (`sched`), exactly the push-time filtering of
//!   [`crate::BatchSim`] — for a lane whose inputs did not change, the
//!   re-evaluated output bit equals the scheduled bit, so spurious
//!   events never toggle that lane;
//! * primary-input edges are applied one port at a time in port order,
//!   re-evaluating fanout gates word-wide after each port, so two
//!   inputs of one gate changing in the same vector produce the same
//!   zero-width glitch (two scheduled events, both charged) as the
//!   scalar event heap;
//! * per-lane energy accumulators receive their f64 adds in event pop
//!   order, which per lane is the scalar simulator's `(time, seq)`
//!   order — so each lane's energy is the identical floating-point
//!   fold, not merely close.
//!
//! The engine keeps one word per net (64 lanes). Widening to multiple
//! words per net would only amortize further on netlists whose working
//! set dwarfs the event stream; for the MAC-sized circuits this crate
//! characterizes, one word already saturates the win, so the engine
//! stays single-word and callers scale across weight codes with
//! threads instead (threads × lanes multiply).
//!
//! `tests/bitsim_equivalence.rs` enforces lane-exact agreement against
//! the scalar reference across the adder, Booth-multiplier and MAC
//! generators, plus the STA cross-check that no net outside the input
//! fanin cone ever toggles.

use crate::cells::CellLibrary;
use crate::intervals::{EngineBuild, GateRow, PrunePlan};
use crate::netlist::{NetId, NetSource, Netlist};

/// All-lanes mask for `active` lanes (1 ..= 64).
#[inline]
fn active_mask(active: usize) -> u64 {
    debug_assert!((1..=64).contains(&active), "active lanes out of range");
    if active == 64 {
        !0
    } else {
        (1u64 << active) - 1
    }
}

/// Evaluates an 8-entry truth table word-wide: bit *l* of the result is
/// `lut[a_l | b_l << 1 | c_l << 2]`.
///
/// The eight minterm masks are expanded from the 1-byte table at call
/// time (a handful of ALU ops) rather than stored per gate, keeping the
/// per-gate record small enough that the event hot loop stays in cache.
#[inline]
fn eval_lut_word(lut: u8, a: u64, b: u64, c: u64) -> u64 {
    let m = |i: u32| 0u64.wrapping_sub(u64::from((lut >> i) & 1));
    let (na, nb) = (!a, !b);
    let p00 = na & nb;
    let p10 = a & nb;
    let p01 = na & b;
    let p11 = a & b;
    let lo = (p00 & m(0)) | (p10 & m(1)) | (p01 & m(2)) | (p11 & m(3));
    let hi = (p00 & m(4)) | (p10 & m(5)) | (p01 & m(6)) | (p11 & m(7));
    (lo & !c) | (hi & c)
}

/// One scheduled word event: the absolute 64-lane value the net assumes
/// at `time_fs`.
///
/// Ordering is lexicographic on `(time_fs, seq)`; `seq` is unique per
/// transition, so this is exactly the `(time, seq)` order of the scalar
/// simulator's heap, word-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WordEvent {
    time_fs: u64,
    /// `seq << 32 | net` — comparing the packed field compares `seq`.
    seq_net: u64,
    value: u64,
}

impl WordEvent {
    #[inline]
    fn new(time_fs: u64, seq: u32, net: u32, value: u64) -> Self {
        WordEvent {
            time_fs,
            seq_net: (u64::from(seq) << 32) | u64::from(net),
            value,
        }
    }

    #[inline]
    fn net(self) -> u32 {
        (self.seq_net & 0xffff_ffff) as u32
    }
}

/// One FIFO lane of the word-event queue: all events scheduled through
/// gates with the same propagation delay. Monotone pop times plus the
/// fixed per-lane delay keep each lane sorted purely by push order.
#[derive(Debug, Default)]
struct DelayLane {
    head: usize,
    events: Vec<WordEvent>,
}

/// Reusable lane-per-delay min-queue of [`WordEvent`]s — the word-wide
/// sibling of the batched engine's queue: `push` is an append, `pop`
/// scans the lane heads for the earliest `(time, seq)`.
///
/// The `(time, seq)` key of each lane's head event is mirrored in a
/// flat `heads` array so the pop scan touches one cache line instead of
/// dereferencing every lane's event vector.
#[derive(Debug, Default)]
struct WordQueue {
    lanes: Vec<DelayLane>,
    /// `(time_fs, seq_net)` of each lane's head, or `EMPTY_HEAD`.
    heads: Vec<(u64, u64)>,
}

/// Sentinel head key for an exhausted lane; compares greater than every
/// real key (`seq_net` never reaches `u64::MAX`).
const EMPTY_HEAD: (u64, u64) = (u64::MAX, u64::MAX);

impl WordQueue {
    fn with_lanes(lanes: usize) -> Self {
        WordQueue {
            lanes: (0..lanes).map(|_| DelayLane::default()).collect(),
            heads: vec![EMPTY_HEAD; lanes],
        }
    }

    fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.head = 0;
            lane.events.clear();
        }
        self.heads.fill(EMPTY_HEAD);
    }

    #[inline]
    fn push(&mut self, lane: usize, ev: WordEvent) {
        debug_assert!(
            self.lanes[lane]
                .events
                .last()
                .is_none_or(|&prev| (prev.time_fs, prev.seq_net) < (ev.time_fs, ev.seq_net)),
            "lane push order violated"
        );
        let l = &mut self.lanes[lane];
        if l.head == l.events.len() {
            self.heads[lane] = (ev.time_fs, ev.seq_net);
        }
        l.events.push(ev);
    }

    #[inline]
    fn pop(&mut self) -> Option<WordEvent> {
        let mut best = EMPTY_HEAD;
        let mut best_lane = usize::MAX;
        for (idx, &key) in self.heads.iter().enumerate() {
            if key < best {
                best = key;
                best_lane = idx;
            }
        }
        if best_lane == usize::MAX {
            return None;
        }
        let l = &mut self.lanes[best_lane];
        let ev = l.events[l.head];
        l.head += 1;
        self.heads[best_lane] = match l.events.get(l.head) {
            Some(next) => (next.time_fs, next.seq_net),
            None => EMPTY_HEAD,
        };
        Some(ev)
    }
}

/// Borrow of one word-transition's per-lane results over the engine's
/// scratch buffers.
///
/// Lane *l* holds exactly what [`crate::Simulator::transition`] would
/// have reported for stimulus vector *l*: the same toggle count and the
/// bit-identical f64 switching energy.
#[derive(Debug)]
pub struct BitTransitionView<'a> {
    energy_fj: &'a [f64],
    toggles: &'a [u64],
    active: usize,
}

impl BitTransitionView<'_> {
    /// Number of active lanes in this transition (1 ..= 64).
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Switching energy of stimulus vector `lane`, fJ — bit-identical
    /// to the scalar simulator's `energy_fj` for that vector.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.active()`.
    #[must_use]
    pub fn lane_energy_fj(&self, lane: usize) -> f64 {
        assert!(lane < self.active, "lane {lane} not active");
        self.energy_fj[lane]
    }

    /// Net toggles (glitches included, input edges included) of
    /// stimulus vector `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.active()`.
    #[must_use]
    pub fn lane_toggles(&self, lane: usize) -> u64 {
        assert!(lane < self.active, "lane {lane} not active");
        self.toggles[lane]
    }

    /// Sum of switching energies over the active lanes, folded in lane
    /// order. It equals a scalar per-sample sum only over samples packed
    /// in their own order; `characterize_power` packs sorted lanes and
    /// sums [`BitTransitionView::lane_energy_fj`] in sample order instead.
    #[must_use]
    pub fn total_energy_fj(&self) -> f64 {
        let mut total = 0.0;
        for lane in 0..self.active {
            total += self.energy_fj[lane];
        }
        total
    }

    /// Sum of toggles over the active lanes.
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.toggles[..self.active].iter().sum()
    }
}

/// Bit-parallel event-driven simulator: 64 stimulus vectors per word.
///
/// See the [module docs](self) for the lane packing, tail masking and
/// the per-lane equivalence argument. The engine reports per-lane
/// energies and toggle counts; it does not track arrival times (timing
/// characterization needs per-sample event times and stays on
/// [`crate::BatchSim`]).
///
/// # Examples
///
/// ```
/// use gatesim::{BitSim, CellLibrary, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("inv_chain");
/// let a = b.input("a");
/// let x = b.inv(a);
/// let y = b.inv(x);
/// b.output(y);
/// let nl = b.finish();
///
/// let lib = CellLibrary::nangate15_like();
/// let mut sim = BitSim::new(&nl, &lib);
/// // Two lanes: lane 0 holds the input low, lane 1 raises it.
/// sim.settle(&[0b00], 2);
/// let view = sim.transition(&[0b10]);
/// assert_eq!(view.lane_toggles(0), 0); // no edge in lane 0
/// assert_eq!(view.lane_toggles(1), 3); // input + two inverters
/// ```
#[derive(Debug)]
pub struct BitSim<'a> {
    netlist: &'a Netlist,
    /// Live (non-pruned) gates in topological order — the settle sweep.
    live_gates: Vec<GateRow>,
    /// Live-filtered fanout in compressed-sparse-row form with the gate
    /// records materialized per edge: the live gates reading net `n`
    /// are `fanout_gates[fanout_offsets[n] .. fanout_offsets[n + 1]]`.
    /// The event hot loop streams whole [`GateRow`] records from one
    /// contiguous allocation instead of chasing `GateId` indices;
    /// pruned gates are absent, so their cones are never re-evaluated.
    fanout_offsets: Vec<u32>,
    fanout_gates: Vec<GateRow>,
    /// Switching energy (fJ) charged when a net toggles: the driving
    /// gate's energy, or 0 for inputs and constants.
    net_energy_fj: Vec<f64>,
    /// Constant value words baked by the prune plan: `(net, word)`
    /// where the word is all-zeros or all-ones across every lane.
    pruned_words: Vec<(u32, u64)>,
    /// Pinned primary inputs `(port position, value)` the plan assumed;
    /// asserted against every settle/transition input block.
    pins: Vec<(u32, bool)>,
    /// Current 64-lane value word per net.
    value: Vec<u64>,
    /// 64-lane word of each net's last *scheduled* value — the
    /// push-time event filter (equal to `value` between transitions).
    sched: Vec<u64>,
    current_inputs: Vec<u64>,
    /// Active lane count of the current block (set by `settle`).
    active: usize,
    primed: bool,
    queue: WordQueue,
    /// Per-lane switching-energy accumulators for the last transition.
    lane_energy_fj: Vec<f64>,
    /// Per-lane toggle counters for the last transition.
    lane_toggles: Vec<u64>,
    /// Nets that toggled in *any* lane of *any* transition since
    /// construction — the observable behind the STA cross-check.
    net_toggled: Vec<bool>,
}

impl<'a> BitSim<'a> {
    /// Creates an engine for `netlist` with electrical data from `lib`
    /// and no pinned inputs (every gate simulated unless fed purely by
    /// constants).
    #[must_use]
    pub fn new(netlist: &'a Netlist, lib: &CellLibrary) -> Self {
        Self::with_plan(netlist, lib, &PrunePlan::unpinned(netlist, lib))
    }

    /// Creates an engine that simulates only the gates `plan` left
    /// live: gates the plan proved constant are baked as all-lane
    /// constant words at settle time and excluded from the event hot
    /// loop. Results are bit-identical to the unpruned engine for any
    /// stimulus honoring the plan's pins (asserted).
    #[must_use]
    pub fn with_plan(netlist: &'a Netlist, lib: &CellLibrary, plan: &PrunePlan) -> Self {
        let build = EngineBuild::new(netlist, lib, plan);
        let live_gates: Vec<GateRow> = build
            .live_rows
            .iter()
            .map(|&gid| build.rows[gid as usize])
            .collect();
        let fanout_gates: Vec<GateRow> = build
            .fanout_gate_ids
            .iter()
            .map(|&gid| build.rows[gid as usize])
            .collect();
        let pruned_words = build
            .pruned_values
            .iter()
            .map(|&(net, v)| (net, if v { !0u64 } else { 0 }))
            .collect();
        BitSim {
            netlist,
            live_gates,
            fanout_offsets: build.fanout_offsets,
            fanout_gates,
            net_energy_fj: build.net_energy_fj,
            pruned_words,
            pins: build.pins,
            value: vec![0; netlist.net_count()],
            sched: vec![0; netlist.net_count()],
            current_inputs: vec![0; netlist.inputs().len()],
            active: 0,
            primed: false,
            queue: WordQueue::with_lanes(build.lane_count),
            lane_energy_fj: vec![0.0; 64],
            lane_toggles: vec![0; 64],
            net_toggled: vec![false; netlist.net_count()],
        }
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Settles the circuit combinationally at a block of `active`
    /// stimulus vectors: `inputs[i]` packs input port *i* across lanes
    /// `0 .. active`; higher lanes are masked off (tail masking).
    ///
    /// One full forward sweep over the topologically ordered gates —
    /// word-wide, this settles all 64 lanes in a single linear pass.
    ///
    /// # Panics
    ///
    /// Panics if the input word count does not match the netlist's
    /// input ports or `active` is not in `1 ..= 64`.
    pub fn settle(&mut self, inputs: &[u64], active: usize) {
        assert_eq!(
            inputs.len(),
            self.current_inputs.len(),
            "input word count mismatch"
        );
        assert!(
            (1..=64).contains(&active),
            "active lanes must be in 1..=64, got {active}"
        );
        let mask = active_mask(active);
        for &(pos, v) in &self.pins {
            let w = inputs[pos as usize] & mask;
            assert_eq!(
                w,
                if v { mask } else { 0 },
                "pinned input {pos} violated in an active lane (plan pins it to {v})"
            );
        }
        self.active = active;
        for (idx, src) in self.netlist.sources().iter().enumerate() {
            match src {
                NetSource::Const0 => {
                    self.value[idx] = 0;
                    self.sched[idx] = 0;
                }
                NetSource::Const1 => {
                    self.value[idx] = !0;
                    self.sched[idx] = !0;
                }
                _ => {}
            }
        }
        // Bake the plan's proven constants: pruned gates are absent
        // from the live sweep below, so their outputs are set once here
        // and never touched again.
        for &(net, w) in &self.pruned_words {
            self.value[net as usize] = w;
            self.sched[net as usize] = w;
        }
        for (pos, &word) in inputs.iter().enumerate() {
            let net = self.netlist.inputs()[pos].index();
            let w = word & mask;
            self.value[net] = w;
            self.sched[net] = w;
            self.current_inputs[pos] = w;
        }
        for gate in &self.live_gates {
            let w = eval_lut_word(
                gate.lut,
                self.value[gate.in0 as usize],
                self.value[gate.in1 as usize],
                self.value[gate.in2 as usize],
            );
            self.value[gate.out as usize] = w;
            self.sched[gate.out as usize] = w;
        }
        self.primed = true;
    }

    /// Current value word of a net (after settle/transition).
    #[must_use]
    pub fn value(&self, net: NetId) -> u64 {
        self.value[net.index()]
    }

    /// Whether `net` has toggled in any lane of any transition since
    /// the engine was created — primary-input edges included.
    ///
    /// Static timing analysis marks nets unreachable from every primary
    /// input ([`crate::Sta::arrivals_from_inputs`] returns `None`);
    /// such nets must never flip here, and the equivalence suite
    /// cross-checks exactly that.
    #[must_use]
    pub fn net_ever_toggled(&self, net: NetId) -> bool {
        self.net_toggled[net.index()]
    }

    /// Applies a block of next-vectors at time zero and propagates all
    /// word events, accumulating per-lane toggles and energies.
    ///
    /// Ports are applied one at a time in port order (reproducing the
    /// scalar heap's zero-width input glitches lane-exactly); events
    /// carry absolute value words and pop in `(time, seq)` order. Each
    /// active lane is one simulated transition for
    /// [`crate::sim_transitions`] accounting.
    ///
    /// # Panics
    ///
    /// Panics if [`BitSim::settle`] has not been called or the input
    /// word count mismatches.
    pub fn transition(&mut self, new_inputs: &[u64]) -> BitTransitionView<'_> {
        assert!(self.primed, "call settle() before transition()");
        assert_eq!(
            new_inputs.len(),
            self.current_inputs.len(),
            "input word count mismatch"
        );
        crate::counters::record_transitions(self.active as u64);
        let mask = active_mask(self.active);
        for &(pos, v) in &self.pins {
            let w = new_inputs[pos as usize] & mask;
            assert_eq!(
                w,
                if v { mask } else { 0 },
                "pinned input {pos} violated in an active lane (plan pins it to {v})"
            );
        }
        self.lane_energy_fj.fill(0.0);
        self.lane_toggles.fill(0);
        self.queue.clear();
        let mut seq: u32 = 0;
        // Word-wide fanout re-evaluations suppressed by push-time
        // filtering; kept in a local and flushed to the registry once
        // per transition so the hot loop stays atomic-free.
        let mut filtered: u64 = 0;

        // Split borrows once so the event loop indexes plain slices.
        let BitSim {
            netlist,
            fanout_offsets,
            fanout_gates,
            net_energy_fj,
            value,
            sched,
            current_inputs,
            queue,
            lane_energy_fj,
            lane_toggles,
            net_toggled,
            ..
        } = self;

        // Primary-input edges all happen at t = 0 and pop before any
        // gate event; apply them port by port, re-evaluating fanout
        // word-wide after each port, exactly like the batched engine.
        for pos in 0..new_inputs.len() {
            let new = new_inputs[pos] & mask;
            let diff = current_inputs[pos] ^ new;
            if diff == 0 {
                continue;
            }
            let net = netlist.inputs()[pos].index();
            value[net] ^= diff;
            sched[net] ^= diff;
            current_inputs[pos] = new;
            net_toggled[net] = true;
            // Input nets have no driving gate: toggles count, energy
            // does not.
            let mut m = diff;
            while m != 0 {
                lane_toggles[m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
            let start = fanout_offsets[net] as usize;
            let end = fanout_offsets[net + 1] as usize;
            for gate in &fanout_gates[start..end] {
                let out = eval_lut_word(
                    gate.lut,
                    value[gate.in0 as usize],
                    value[gate.in1 as usize],
                    value[gate.in2 as usize],
                );
                let out_net = gate.out as usize;
                if out != sched[out_net] {
                    sched[out_net] = out;
                    queue.push(
                        gate.lane as usize,
                        WordEvent::new(u64::from(gate.delay_fs), seq, gate.out, out),
                    );
                    seq += 1;
                } else {
                    filtered += 1;
                }
            }
        }

        while let Some(ev) = queue.pop() {
            let net = ev.net() as usize;
            let toggle = value[net] ^ ev.value;
            // Push-time filtering plus per-net FIFO order guarantee
            // every popped event toggles at least one lane.
            debug_assert_ne!(toggle, 0);
            value[net] = ev.value;
            net_toggled[net] = true;
            let e = net_energy_fj[net];
            let mut m = toggle;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                lane_energy_fj[lane] += e;
                lane_toggles[lane] += 1;
                m &= m - 1;
            }
            let start = fanout_offsets[net] as usize;
            let end = fanout_offsets[net + 1] as usize;
            for gate in &fanout_gates[start..end] {
                let out = eval_lut_word(
                    gate.lut,
                    value[gate.in0 as usize],
                    value[gate.in1 as usize],
                    value[gate.in2 as usize],
                );
                let out_net = gate.out as usize;
                if out != sched[out_net] {
                    sched[out_net] = out;
                    queue.push(
                        gate.lane as usize,
                        WordEvent::new(ev.time_fs + u64::from(gate.delay_fs), seq, gate.out, out),
                    );
                    seq += 1;
                } else {
                    filtered += 1;
                }
            }
        }

        crate::counters::record_events(u64::from(seq), filtered);
        BitTransitionView {
            energy_fj: &self.lane_energy_fj,
            toggles: &self.lane_toggles,
            active: self.active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cells::CellKind;
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

    /// Packs per-lane bool vectors into input words.
    fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
        let bits = vectors[0].len();
        let mut words = vec![0u64; bits];
        for (lane, v) in vectors.iter().enumerate() {
            for (i, &b) in v.iter().enumerate() {
                words[i] |= u64::from(b) << lane;
            }
        }
        words
    }

    #[test]
    fn lut_word_matches_scalar_eval_for_every_kind() {
        for &kind in CellKind::all() {
            let lut = kind.truth_table();
            // One lane per minterm: lane i applies minterm i.
            let mut a = 0u64;
            let mut b = 0u64;
            let mut c = 0u64;
            for i in 0..8u64 {
                a |= (i & 1) << i;
                b |= ((i >> 1) & 1) << i;
                c |= ((i >> 2) & 1) << i;
            }
            let out = eval_lut_word(lut, a, b, c);
            for i in 0..8u32 {
                let expected = kind.eval(i & 1 != 0, i & 2 != 0, i & 4 != 0);
                assert_eq!(out >> i & 1 == 1, expected, "{kind} minterm {i}");
            }
            // Replicating the pattern across the upper lanes must give
            // the replicated result.
            let rep = eval_lut_word(lut, a | (a << 8), b | (b << 8), c | (c << 8));
            assert_eq!(rep & 0xff, out & 0xff);
            assert_eq!((rep >> 8) & 0xff, out & 0xff);
        }
    }

    #[test]
    fn active_mask_covers_full_range() {
        assert_eq!(active_mask(1), 1);
        assert_eq!(active_mask(6), 0x3f);
        assert_eq!(active_mask(64), !0);
    }

    #[test]
    fn lanes_match_scalar_on_xor_tree() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut scalar = Simulator::new(&nl, &lib);
        let mut bits = BitSim::new(&nl, &lib);

        // All 16 -> all 16 input vectors as one 16-lane block each way.
        let vecs: Vec<Vec<bool>> = (0..16u8)
            .map(|v| vec![v & 1 != 0, v & 2 != 0, v & 4 != 0, v & 8 != 0])
            .collect();
        for shift in 1..16usize {
            let to: Vec<Vec<bool>> = (0..16).map(|i| vecs[(i + shift) % 16].clone()).collect();
            bits.settle(&pack(&vecs), 16);
            let view = bits.transition(&pack(&to));
            for lane in 0..16 {
                scalar.settle(&vecs[lane]);
                let stats = scalar.transition(&to[lane]);
                assert_eq!(
                    stats.toggles,
                    view.lane_toggles(lane),
                    "toggles lane {lane}"
                );
                assert_eq!(
                    stats.energy_fj,
                    view.lane_energy_fj(lane),
                    "energy lane {lane}"
                );
            }
        }
    }

    #[test]
    fn inactive_tail_lanes_never_toggle() {
        let mac = MacCircuit::new(4, 4, 10);
        let lib = CellLibrary::nangate15_like();
        let mut bits = BitSim::new(mac.netlist(), &lib);
        let from: Vec<Vec<bool>> = (0..5).map(|i| mac.encode(i - 2, 3, 7)).collect();
        let to: Vec<Vec<bool>> = (0..5).map(|i| mac.encode(i - 2, 12, -5)).collect();
        // Garbage in the unpacked upper lanes must be ignored.
        let mut from_w = pack(&from);
        let mut to_w = pack(&to);
        for w in from_w.iter_mut().chain(to_w.iter_mut()) {
            *w |= 0xdead_beef_0000_0000;
        }
        bits.settle(&from_w, 5);
        let view = bits.transition(&to_w);
        assert_eq!(view.active(), 5);
        assert_eq!(
            view.toggles[5..].iter().sum::<u64>(),
            0,
            "inactive lanes toggled"
        );
        assert_eq!(view.energy_fj[5..].iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn transition_counter_counts_per_vector() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut bits = BitSim::new(&nl, &lib);
        let before = crate::counters::sim_transitions();
        bits.settle(&[0, 0, 0, 0], 17);
        let _ = bits.transition(&[0x1ffff, 0, 0, 0]);
        assert!(crate::counters::sim_transitions() >= before + 17);
    }

    #[test]
    fn constant_cone_never_toggles() {
        let mut b = NetlistBuilder::new("const_cone");
        let a = b.input("a");
        let c0 = b.const0();
        let c1 = b.const1();
        let dead = b.and2(c0, c1); // fed only by constants
        let dead2 = b.inv(dead);
        let live = b.xor2(a, c1);
        b.output(dead2);
        b.output(live);
        let nl = b.finish();
        let lib = CellLibrary::nangate15_like();
        let mut bits = BitSim::new(&nl, &lib);
        bits.settle(&[0b0101], 4);
        let _ = bits.transition(&[0b1010]);
        let _ = bits.transition(&[0b0001]);
        assert!(bits.net_ever_toggled(live));
        assert!(!bits.net_ever_toggled(dead));
        assert!(!bits.net_ever_toggled(dead2));
        assert!(!bits.net_ever_toggled(c0));
        assert!(!bits.net_ever_toggled(c1));
    }

    #[test]
    #[should_panic(expected = "settle")]
    fn transition_requires_settle() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut bits = BitSim::new(&nl, &lib);
        let _ = bits.transition(&[1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "active lanes")]
    fn settle_rejects_zero_lanes() {
        let nl = xor_tree();
        let lib = CellLibrary::nangate15_like();
        let mut bits = BitSim::new(&nl, &lib);
        bits.settle(&[0, 0, 0, 0], 0);
    }
}
