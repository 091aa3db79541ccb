//! Per-weight timing profiles (paper §III-B, Figs. 3 and 5).
//!
//! The paper splits MAC timing analysis in two to stay tractable:
//!
//! 1. **Dynamic timing analysis (DTA) of the multiplier** — the weight
//!    input is fixed and all activation transitions are applied; the
//!    arrival time of the last toggle of each product bit is recorded.
//! 2. **Static timing analysis (STA) of the adder** — the longest path
//!    from each product bit to the adder output (and from the
//!    partial-sum input to the output).
//!
//! The MAC delay of a `(weight, activation transition)` pair is then
//! `max_j (dta_arrival[j] + sta_from_product[j])` — Fig. 5 — with the
//! partial-sum STA path as a weight-independent floor.
//!
//! [`characterize_timing`] simulates each code's pairs in the order the
//! batched engine prefers and folds them in pair order. It walks the
//! pairs as chains, each pair starting at the activation the previous
//! one ended on: a transition leaves the engine settled at its `to`, so
//! only a chain break settles. On random sampled pairs the chains break
//! about as rarely as they can: once per unit of surplus of pairs out
//! over pairs in, summed over the activation levels (about 1,000 breaks
//! per 12,240 pairs at Mini). Each pair's composed delay lands in a
//! per-pair buffer, and the histogram, the maximum and the `slow` list
//! are folded from it in pair order, so the profile is bit-identical to
//! the pair-order scalar oracle [`characterize_timing_scalar`].

use crate::chars::power::{nearest_code_index, strided_codes};
use crate::chars::{CharConfigError, MacHardware};
use gatesim::{BatchSim, PrunePlan, Simulator, Sta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the timing characterization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Enumerate all `2^(2·act_bits)` activation transitions per weight
    /// (paper behaviour). When false, sample `samples` transitions.
    pub exhaustive: bool,
    /// Number of sampled transitions per weight when not exhaustive.
    pub samples: usize,
    /// RNG seed for sampled mode.
    pub seed: u64,
    /// Transitions with a composed delay above this floor are stored
    /// individually (they are the removal candidates of the delay
    /// selection); everything below only lands in the histogram.
    pub slow_floor_ps: f64,
    /// Characterize only every `weight_stride`-th code (plus 0 and the
    /// extremes); skipped codes inherit the nearest characterized
    /// profile. 1 (the default) characterizes everything.
    pub weight_stride: usize,
}

impl TimingConfig {
    /// Checks the configuration for values that cannot produce a
    /// meaningful profile.
    ///
    /// # Errors
    ///
    /// [`CharConfigError::ZeroSamples`] if sampled mode is requested
    /// with `samples == 0`, [`CharConfigError::ZeroStride`] if
    /// `weight_stride` is 0.
    pub fn validate(&self) -> Result<(), CharConfigError> {
        if !self.exhaustive && self.samples == 0 {
            return Err(CharConfigError::ZeroSamples);
        }
        if self.weight_stride == 0 {
            return Err(CharConfigError::ZeroStride);
        }
        Ok(())
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            exhaustive: true,
            samples: 4096,
            seed: 0x7133_0001,
            slow_floor_ps: 0.0,
            weight_stride: 1,
        }
    }
}

/// Timing profile of a single weight value.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTiming {
    /// The weight code.
    pub code: i32,
    /// Maximum composed MAC delay over all analysed activation
    /// transitions, ps (multiplier side only — compare against
    /// [`WeightTimingProfile::psum_floor_ps`] for the full MAC bound).
    pub max_delay_ps: f64,
    /// Histogram of composed delays in 1 ps buckets (Fig. 3 series).
    pub histogram: Vec<u64>,
    /// Activation transitions whose composed delay exceeds the
    /// configured floor: `(from, to, delay_ps)`.
    pub slow: Vec<(u8, u8, f32)>,
}

/// Timing profiles for every weight value plus the adder-side facts.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTimingProfile {
    /// Per-weight profiles, ascending by code.
    pub per_weight: Vec<WeightTiming>,
    /// Longest partial-sum → output path of the adder (STA), ps. A
    /// weight-independent lower bound on the MAC clock period.
    pub psum_floor_ps: f64,
    /// Longest product-bit → output path table used in composition, ps.
    pub adder_from_product_ps: Vec<f64>,
    /// The floor above which individual slow transitions were stored.
    pub slow_floor_ps: f64,
}

impl WeightTimingProfile {
    /// The profile of a weight code.
    ///
    /// # Panics
    ///
    /// Panics if the code was not characterized.
    #[must_use]
    pub fn timing(&self, code: i32) -> &WeightTiming {
        let idx = self
            .per_weight
            .binary_search_by_key(&code, |t| t.code)
            .expect("code not characterized");
        &self.per_weight[idx]
    }

    /// The worst composed delay over a set of weight codes, ps.
    #[must_use]
    pub fn max_delay_over(&self, codes: &[i32]) -> f64 {
        codes
            .iter()
            .filter_map(|&c| {
                self.per_weight
                    .binary_search_by_key(&c, |t| t.code)
                    .ok()
                    .map(|i| self.per_weight[i].max_delay_ps)
            })
            .fold(self.psum_floor_ps, f64::max)
    }

    /// Global maximum composed delay (all weights, all transitions), ps.
    #[must_use]
    pub fn max_delay_ps(&self) -> f64 {
        self.max_delay_over(&self.per_weight.iter().map(|t| t.code).collect::<Vec<_>>())
    }

    /// Serializes the profile bit-exactly for the charstore container.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use charstore::wire;
        wire::put_usize(out, self.per_weight.len());
        for t in &self.per_weight {
            wire::put_i32(out, t.code);
            wire::put_f64(out, t.max_delay_ps);
            wire::put_usize(out, t.histogram.len());
            for &b in &t.histogram {
                wire::put_u64(out, b);
            }
            wire::put_usize(out, t.slow.len());
            for &(from, to, d) in &t.slow {
                wire::put_u8(out, from);
                wire::put_u8(out, to);
                wire::put_f32(out, d);
            }
        }
        wire::put_f64(out, self.psum_floor_ps);
        wire::put_usize(out, self.adder_from_product_ps.len());
        for &d in &self.adder_from_product_ps {
            wire::put_f64(out, d);
        }
        wire::put_f64(out, self.slow_floor_ps);
    }

    /// Deserializes a profile written by
    /// [`WeightTimingProfile::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, implausible lengths (bounds are
    /// validated before any allocation), or per-weight codes that are
    /// not strictly ascending (the lookup invariant).
    pub fn read_from(r: &mut charstore::wire::Reader<'_>) -> std::io::Result<Self> {
        let count = r.bounded_len(12)?;
        let mut per_weight = Vec::with_capacity(count);
        for _ in 0..count {
            let code = r.i32()?;
            let max_delay_ps = r.f64()?;
            let hist_len = r.bounded_len(8)?;
            // Histograms are the bulk of the artifact (512 buckets per
            // weight); decode each as one block.
            let histogram: Vec<u64> = r
                .take(hist_len * 8)?
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            let slow_len = r.bounded_len(6)?;
            let mut slow = Vec::with_capacity(slow_len);
            for _ in 0..slow_len {
                slow.push((r.u8()?, r.u8()?, r.f32()?));
            }
            per_weight.push(WeightTiming {
                code,
                max_delay_ps,
                histogram,
                slow,
            });
        }
        if !per_weight.windows(2).all(|w| w[0].code < w[1].code) {
            return Err(charstore::wire::invalid(
                "timing profile codes are not ascending",
            ));
        }
        let psum_floor_ps = r.f64()?;
        let adder_len = r.bounded_len(8)?;
        let mut adder_from_product_ps = Vec::with_capacity(adder_len);
        for _ in 0..adder_len {
            adder_from_product_ps.push(r.f64()?);
        }
        let slow_floor_ps = r.f64()?;
        Ok(WeightTimingProfile {
            per_weight,
            psum_floor_ps,
            adder_from_product_ps,
            slow_floor_ps,
        })
    }
}

/// Adder-side STA facts shared by [`characterize_timing`], the scalar
/// oracle and [`sta_bound_per_weight`]: the product-bit → output delay
/// table and the psum-path floor.
fn adder_sta(hw: &MacHardware) -> (Vec<f64>, f64) {
    // STA on the MAC netlist: product bits and psum ports only feed the
    // adder, so these are adder-side delays.
    let sta = Sta::new(hw.mac().netlist(), hw.lib());
    let adder_from_product_ps: Vec<f64> = sta
        .output_delay_table(hw.mac().product_nets())
        .into_iter()
        .map(|d| d.unwrap_or(0.0))
        .collect();
    let psum_floor_ps = hw
        .mac()
        .psum_ports()
        .iter()
        .filter_map(|&p| sta.max_delay_to_outputs_from(p))
        .fold(0.0, f64::max);
    (adder_from_product_ps, psum_floor_ps)
}

/// The per-code RNG for sampled timing characterization. Derived from
/// the *global* code index only, never from chunk geometry, so results
/// are identical at any thread count.
fn code_rng(cfg: &TimingConfig, code_idx: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ ((code_idx as u64) << 10))
}

/// The composed delay of one measured transition (Fig. 5 without the
/// psum floor): the largest `arrival + adder` over the product bits that
/// toggled. `arrival` maps a product-bit slot to its last-toggle arrival
/// in ps.
fn composed_delay(adder_table: &[f64], arrival: impl Fn(usize) -> f64) -> f64 {
    let mut composed = 0.0f64;
    for (j, &adder_d) in adder_table.iter().enumerate() {
        let arr = arrival(j);
        if arr > 0.0 {
            composed = composed.max(arr + adder_d);
        }
    }
    composed
}

impl WeightTiming {
    /// An empty profile of `code`: 512 1-ps histogram buckets, nothing
    /// folded yet.
    fn empty(code: i32) -> Self {
        WeightTiming {
            code,
            max_delay_ps: 0.0,
            histogram: vec![0; 512],
            slow: Vec::new(),
        }
    }

    /// Folds the composed delay of the transition `from → to` into the
    /// histogram, the maximum and, above `slow_floor_ps`, the slow list.
    fn fold(&mut self, slow_floor_ps: f64, from: u32, to: u32, composed: f64) {
        let bucket = (composed.round() as usize).min(self.histogram.len() - 1);
        self.histogram[bucket] += 1;
        if composed > self.max_delay_ps {
            self.max_delay_ps = composed;
        }
        if composed > slow_floor_ps && composed > 0.0 {
            self.slow.push((from as u8, to as u8, composed as f32));
        }
    }
}

/// Feeds the `(from, to)` activation pairs analysed for one weight code
/// to `f`: either the full off-diagonal square or `cfg.samples` draws
/// from the code's RNG stream. Callback-driven so the hot loops stay
/// allocation-free.
fn for_each_transition_pair(
    cfg: &TimingConfig,
    levels: u32,
    code_idx: usize,
    mut f: impl FnMut(u32, u32),
) {
    if cfg.exhaustive {
        for from in 0..levels {
            for to in 0..levels {
                if from != to {
                    f(from, to);
                }
            }
        }
    } else {
        let mut rng = code_rng(cfg, code_idx);
        for _ in 0..cfg.samples {
            let from = rng.random_range(0..levels);
            let to = rng.random_range(0..levels);
            if from != to {
                f(from, to);
            }
        }
    }
}

/// Visits every index of `pairs` once, walking the pairs as chains: the
/// next pair starts at the activation the previous one ended on while
/// such a pair is left. `visit(i, chained)` gets `chained` true when
/// `pairs[i]` starts where the previously visited pair ended. A chain
/// break resumes at the lowest level with more pairs left out than in,
/// or else at the lowest level with any pair left out.
fn walk_chains(pairs: &[(u32, u32)], levels: u32, mut visit: impl FnMut(usize, bool)) {
    // Per-`from` stacks, bucket-sorted into one array: level `l` has
    // `order[next[l]..start[l + 1]]` left.
    let levels = levels as usize;
    let mut start = vec![0usize; levels + 1];
    for &(from, _) in pairs {
        start[from as usize + 1] += 1;
    }
    for l in 0..levels {
        start[l + 1] += start[l];
    }
    let mut next = start.clone();
    let mut order = vec![0usize; pairs.len()];
    for (i, &(from, _)) in pairs.iter().enumerate() {
        order[next[from as usize]] = i;
        next[from as usize] += 1;
    }
    next.copy_from_slice(&start);
    // Pairs left that end at each level: a chain can only break at a
    // level whose pairs out are used up, so a restart prefers a level
    // with more pairs out than in.
    let mut inbound = vec![0usize; levels];
    for &(_, to) in pairs {
        inbound[to as usize] += 1;
    }
    let mut at = None;
    for _ in 0..pairs.len() {
        let left = |l: usize| start[l + 1] - next[l];
        let (level, chained) = match at {
            Some(l) if left(l) > 0 => (l, true),
            _ => {
                let surplus = (0..levels).find(|&l| left(l) > inbound[l]);
                let any = || (0..levels).find(|&l| left(l) > 0);
                (surplus.or_else(any).expect("a pair is left"), false)
            }
        };
        let i = order[next[level]];
        next[level] += 1;
        inbound[pairs[i].1 as usize] -= 1;
        visit(i, chained);
        at = Some(pairs[i].1 as usize);
    }
}

/// Runs the split DTA/STA timing characterization.
///
/// The standalone multiplier netlist is structurally identical to the
/// multiplier embedded in the MAC (both come from the same generator),
/// so product-bit arrival times measured on it compose exactly with the
/// MAC-adder STA table. Per-weight dynamic timing runs on the batched
/// [`BatchSim`] engine under a per-code [`PrunePlan`] that pins the
/// held weight bus — the weight's desensitized cone is proven silent
/// and skipped, with bit-identical arrivals (asserted against the
/// unpruned scalar reference in the test suite).
///
/// # Panics
///
/// Panics if the configuration fails [`TimingConfig::validate`].
#[must_use]
pub fn characterize_timing(hw: &MacHardware, cfg: &TimingConfig) -> WeightTimingProfile {
    characterize_timing_with_threads(hw, cfg, None)
}

/// [`characterize_timing`] with an explicit worker-thread count (`None`
/// uses the machine's available parallelism). Exposed so the test suite
/// can prove the profile is identical at any thread count.
///
/// # Panics
///
/// Panics if the configuration fails [`TimingConfig::validate`].
#[must_use]
pub fn characterize_timing_with_threads(
    hw: &MacHardware,
    cfg: &TimingConfig,
    threads: Option<usize>,
) -> WeightTimingProfile {
    if let Err(e) = cfg.validate() {
        panic!("invalid TimingConfig: {e}");
    }
    let (adder_from_product_ps, psum_floor_ps) = adder_sta(hw);
    let all_codes = hw.weight_codes();
    let codes = strided_codes(&all_codes, cfg.weight_stride);
    let levels = hw.act_levels() as u32;
    let mut per_weight: Vec<_> = codes.iter().copied().map(WeightTiming::empty).collect();
    let product_nets = hw.mult_netlist().outputs().to_vec();
    let adder_table = &adder_from_product_ps;

    parallel::par_rows_mut_with_threads(
        threads.unwrap_or_else(parallel::max_threads),
        &mut per_weight,
        1,
        || (Vec::new(), Vec::new(), Vec::new(), Vec::new()),
        |(pairs, delays, from_buf, to_buf), idx, slot| {
            let code = slot[0].code;
            // Per-code engine with the weight bus pinned: the prune
            // plan proves the weight's dead multiplier cone silent, so
            // the DTA sweep only simulates the sensitized logic.
            // Arrival times are unchanged — pruned gates never toggle,
            // hence never set an arrival.
            let plan = PrunePlan::new(hw.mult_netlist(), hw.lib(), &hw.mult_weight_pins(code));
            let mut sim = BatchSim::with_plan(hw.mult_netlist(), hw.lib(), &plan);
            sim.observe(&product_nets);
            pairs.clear();
            for_each_transition_pair(cfg, levels, idx, |from, to| pairs.push((from, to)));
            delays.clear();
            delays.resize(pairs.len(), 0.0);
            // A transition leaves the engine settled at its `to`, the
            // state `settle` would build for a pair starting there, so
            // only a chain break settles.
            walk_chains(pairs, levels, |i, chained| {
                let (from, to) = pairs[i];
                if !chained {
                    hw.encode_mult_into(code as i64, from as u64, from_buf);
                    sim.settle(from_buf);
                }
                hw.encode_mult_into(code as i64, to as u64, to_buf);
                let view = sim.transition(to_buf);
                delays[i] = composed_delay(adder_table, |j| view.observed_arrival_ps(j));
            });
            // Fold in pair order, as the scalar oracle does, so the slow
            // list keeps its order.
            for (&(from, to), &delay) in pairs.iter().zip(delays.iter()) {
                slot[0].fold(cfg.slow_floor_ps, from, to, delay);
            }
        },
    );

    expand_timing(
        &all_codes,
        &codes,
        &per_weight,
        psum_floor_ps,
        adder_from_product_ps,
        cfg,
    )
}

/// Reference implementation of the timing characterization on the
/// scalar [`Simulator`], kept for differential testing and as the
/// baseline of the characterization-throughput bench.
///
/// Produces **bit-identical** profiles to [`characterize_timing`].
///
/// # Panics
///
/// Panics if the configuration fails [`TimingConfig::validate`].
#[must_use]
pub fn characterize_timing_scalar(hw: &MacHardware, cfg: &TimingConfig) -> WeightTimingProfile {
    if let Err(e) = cfg.validate() {
        panic!("invalid TimingConfig: {e}");
    }
    let (adder_from_product_ps, psum_floor_ps) = adder_sta(hw);
    let all_codes = hw.weight_codes();
    let codes = strided_codes(&all_codes, cfg.weight_stride);
    let levels = hw.act_levels() as u32;
    let mut per_weight: Vec<_> = codes.iter().copied().map(WeightTiming::empty).collect();
    let product_nets = hw.mult_netlist().outputs().to_vec();
    let adder_table = &adder_from_product_ps;

    parallel::par_rows_mut(
        &mut per_weight,
        1,
        || {
            let mut sim = Simulator::new(hw.mult_netlist(), hw.lib());
            sim.observe(&product_nets);
            sim
        },
        |sim, idx, slot| {
            let code = slot[0].code;
            for_each_transition_pair(cfg, levels, idx, |from, to| {
                sim.settle(&hw.encode_mult(code as i64, from as u64));
                let stats = sim.transition(&hw.encode_mult(code as i64, to as u64));
                let delay = composed_delay(adder_table, |j| stats.observed_arrival_ps(j));
                slot[0].fold(cfg.slow_floor_ps, from, to, delay);
            });
        },
    );

    expand_timing(
        &all_codes,
        &codes,
        &per_weight,
        psum_floor_ps,
        adder_from_product_ps,
        cfg,
    )
}

/// Expands strided per-weight profiles back to the full code list
/// (skipped codes inherit the nearest characterized profile, re-labelled
/// with their own code).
fn expand_timing(
    all_codes: &[i32],
    codes: &[i32],
    per_weight: &[WeightTiming],
    psum_floor_ps: f64,
    adder_from_product_ps: Vec<f64>,
    cfg: &TimingConfig,
) -> WeightTimingProfile {
    let expanded: Vec<WeightTiming> = all_codes
        .iter()
        .map(|&c| {
            let mut t = per_weight[nearest_code_index(codes, c)].clone();
            t.code = c;
            t
        })
        .collect();

    WeightTimingProfile {
        per_weight: expanded,
        psum_floor_ps,
        adder_from_product_ps,
        slow_floor_ps: cfg.slow_floor_ps,
    }
}

/// Per-weight static timing bound from the weight-pinned prune plan.
///
/// Pins the weight bus of the standalone multiplier to `code` and runs
/// the [`PrunePlan`] pass over it: constant propagation removes every
/// path the weight desensitizes (the paper's §II observation), and each
/// product bit that can still toggle keeps its STA arrival interval.
/// The bound is the largest `hi + adder_from_product[j]` over those
/// bits, composed with the adder table like the dynamic path.
///
/// Every settle time the engines report lies inside its net's
/// interval, glitches included, so this bounds the DTA maximum of
/// [`characterize_timing`] by construction. Pinning only removes
/// paths, so it never exceeds the full-netlist composition bound either
/// (both checked per code in the test suite).
///
/// Returns the composed bound in ps (0 when every product bit is
/// constant, e.g. for weight 0).
#[must_use]
pub fn sta_bound_per_weight(hw: &MacHardware, code: i32) -> f64 {
    let (adder_from_product, _) = adder_sta(hw);
    let plan = PrunePlan::new(hw.mult_netlist(), hw.lib(), &hw.mult_weight_pins(code));
    hw.mult_netlist()
        .outputs()
        .iter()
        .zip(&adder_from_product)
        .filter_map(|(&bit, &adder_d)| plan.interval(bit).map(|iv| iv.hi_ps() + adder_d))
        .fold(0.0, f64::max)
}

/// Composes a multiplier arrival vector with an adder STA table — the
/// worked example of the paper's Fig. 5, exposed for testing and
/// documentation.
///
/// `arrivals[j]` is the last-toggle time of product bit `j` (0 = did not
/// toggle); `adder[j]` is the STA delay from product bit `j` to the
/// output; `psum_delay` is the partial-sum STA path.
///
/// # Examples
///
/// ```
/// // Fig. 5: arrivals [5, 8, 0, 0], adder [4, 3, 2, 1], psum path 6
/// // -> max{5+4, 8+3, 6} = 11.
/// let d = powerpruning::chars::timing::compose_delay(&[5.0, 8.0, 0.0, 0.0], &[4.0, 3.0, 2.0, 1.0], 6.0);
/// assert_eq!(d, 11.0);
/// ```
#[must_use]
pub fn compose_delay(arrivals: &[f64], adder: &[f64], psum_delay: f64) -> f64 {
    let mult_side = arrivals
        .iter()
        .zip(adder)
        .filter(|&(&a, _)| a > 0.0)
        .map(|(&a, &d)| a + d)
        .fold(0.0, f64::max);
    mult_side.max(psum_delay)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TimingConfig {
        TimingConfig {
            exhaustive: true,
            samples: 0,
            seed: 0,
            slow_floor_ps: 0.0,
            weight_stride: 1,
        }
    }

    #[test]
    fn stride_keeps_full_code_coverage() {
        let hw = MacHardware::small();
        let cfg = TimingConfig {
            weight_stride: 4,
            ..quick_cfg()
        };
        let profile = characterize_timing(&hw, &cfg);
        assert_eq!(profile.per_weight.len(), hw.weight_codes().len());
        // Skipped codes carry their own label but a neighbour's profile.
        assert_eq!(profile.timing(5).code, 5);
        assert_eq!(
            profile.timing(5).max_delay_ps,
            profile.timing(4).max_delay_ps
        );
    }

    #[test]
    fn profile_is_identical_at_any_thread_count() {
        let hw = MacHardware::small();
        let cfg = TimingConfig {
            exhaustive: false,
            samples: 64,
            slow_floor_ps: 100.0,
            ..quick_cfg()
        };
        let reference = characterize_timing_with_threads(&hw, &cfg, Some(1));
        for threads in [2, 3, 7] {
            let p = characterize_timing_with_threads(&hw, &cfg, Some(threads));
            assert_eq!(p, reference, "thread count {threads} changed the profile");
        }
    }

    #[test]
    fn batched_profile_matches_scalar_reference() {
        let hw = MacHardware::small();
        for cfg in [
            quick_cfg(),
            TimingConfig {
                exhaustive: false,
                samples: 128,
                slow_floor_ps: 50.0,
                weight_stride: 3,
                ..quick_cfg()
            },
        ] {
            let batched = characterize_timing(&hw, &cfg);
            let scalar = characterize_timing_scalar(&hw, &cfg);
            assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn chained_paper_profile_matches_scalar_reference() {
        // Mini-style sampling on the paper MAC: a few hundred pairs per
        // code over 256 levels, so chains break and pairs repeat. The
        // finite floor fills the slow lists, whose order is the only
        // output a fold in walk order instead of pair order would move.
        let hw = MacHardware::paper_default();
        let cfg = TimingConfig {
            exhaustive: false,
            samples: 384,
            seed: 0x7171,
            slow_floor_ps: 120.0,
            weight_stride: 32,
        };
        let repeats = (0..strided_codes(&hw.weight_codes(), cfg.weight_stride).len())
            .map(|idx| {
                let mut pairs = Vec::new();
                for_each_transition_pair(&cfg, 256, idx, |from, to| pairs.push((from, to)));
                let drawn = pairs.len();
                pairs.sort_unstable();
                pairs.dedup();
                drawn - pairs.len()
            })
            .sum::<usize>();
        assert!(repeats > 0, "no sampled pair repeats");
        let chained = characterize_timing(&hw, &cfg);
        let slow: usize = chained.per_weight.iter().map(|t| t.slow.len()).sum();
        assert!(slow > 100, "only {slow} slow entries");
        assert_eq!(chained, characterize_timing_scalar(&hw, &cfg));
    }

    #[test]
    fn chain_walk_visits_every_pair_once() {
        // Exhaustive (16 levels) and sampled (256 levels, with repeats
        // and breaks). A pair counts as chained exactly when it starts
        // where the previous one ended: the engine then skips `settle`.
        for (cfg, levels) in [
            (quick_cfg(), 16),
            (
                TimingConfig {
                    exhaustive: false,
                    samples: 3000,
                    ..quick_cfg()
                },
                256,
            ),
        ] {
            let mut pairs = Vec::new();
            for_each_transition_pair(&cfg, levels, 3, |from, to| pairs.push((from, to)));
            let mut visits = vec![0u32; pairs.len()];
            let (mut prev_to, mut breaks) = (None, 0);
            walk_chains(&pairs, levels, |i, chained| {
                visits[i] += 1;
                assert_eq!(chained, prev_to == Some(pairs[i].0), "pair {i}");
                breaks += usize::from(!chained);
                prev_to = Some(pairs[i].1);
            });
            assert!(
                visits.iter().all(|&v| v == 1),
                "a pair was skipped or repeated"
            );
            assert!(
                breaks < pairs.len() / 4,
                "{breaks} breaks in {} pairs",
                pairs.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "samples per weight must be at least 1")]
    fn sampled_mode_with_zero_samples_is_rejected() {
        let hw = MacHardware::small();
        let cfg = TimingConfig {
            exhaustive: false,
            samples: 0,
            ..quick_cfg()
        };
        let _ = characterize_timing(&hw, &cfg);
    }

    #[test]
    #[should_panic(expected = "weight_stride must be at least 1")]
    fn zero_stride_is_rejected() {
        let hw = MacHardware::small();
        let cfg = TimingConfig {
            weight_stride: 0,
            ..quick_cfg()
        };
        let _ = characterize_timing(&hw, &cfg);
    }

    #[test]
    fn validate_accepts_exhaustive_mode_with_zero_samples() {
        let cfg = TimingConfig {
            exhaustive: true,
            samples: 0,
            ..TimingConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn paper_fig5_example() {
        let d = compose_delay(&[5.0, 8.0, 0.0, 0.0], &[4.0, 3.0, 2.0, 1.0], 6.0);
        assert_eq!(d, 11.0);
    }

    #[test]
    fn psum_floor_dominates_when_mult_is_quiet() {
        let d = compose_delay(&[0.0, 0.0], &[4.0, 3.0], 6.0);
        assert_eq!(d, 6.0);
    }

    #[test]
    fn zero_weight_never_sensitizes_the_multiplier() {
        let hw = MacHardware::small();
        let profile = characterize_timing(&hw, &quick_cfg());
        let zero = profile.timing(0);
        assert_eq!(
            zero.max_delay_ps, 0.0,
            "weight 0 should produce a constant multiplier output"
        );
    }

    #[test]
    fn different_weights_have_different_delay_profiles() {
        let hw = MacHardware::small();
        let profile = characterize_timing(&hw, &quick_cfg());
        let d_all: Vec<f64> = profile.per_weight.iter().map(|t| t.max_delay_ps).collect();
        let min = d_all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = d_all.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "expected spread in per-weight max delays");
    }

    #[test]
    fn max_delay_over_subset_never_exceeds_global() {
        let hw = MacHardware::small();
        let profile = characterize_timing(&hw, &quick_cfg());
        let global = profile.max_delay_ps();
        let subset = profile.max_delay_over(&[1, 2, 3]);
        assert!(subset <= global + 1e-9);
        assert!(subset >= profile.psum_floor_ps);
    }

    #[test]
    fn slow_list_respects_floor() {
        let hw = MacHardware::small();
        let mut cfg = quick_cfg();
        let base = characterize_timing(&hw, &cfg);
        let global = base.max_delay_ps();
        cfg.slow_floor_ps = global * 0.8;
        let profile = characterize_timing(&hw, &cfg);
        for t in &profile.per_weight {
            for &(_, _, d) in &t.slow {
                assert!(f64::from(d) > cfg.slow_floor_ps);
            }
        }
        // At least the worst weight must have slow entries.
        let total_slow: usize = profile.per_weight.iter().map(|t| t.slow.len()).sum();
        assert!(total_slow > 0);
    }

    #[test]
    fn histogram_counts_all_transitions() {
        let hw = MacHardware::small();
        let profile = characterize_timing(&hw, &quick_cfg());
        let levels = hw.act_levels() as u64;
        let expected = levels * levels - levels; // from != to
        for t in &profile.per_weight {
            let total: u64 = t.histogram.iter().sum();
            assert_eq!(total, expected, "weight {}", t.code);
        }
    }

    #[test]
    fn decoder_rejects_codes_out_of_order() {
        // `timing`, `max_delay_over` and `max_delay_ps` binary-search the
        // per-weight codes, so a profile decoded out of order would
        // answer with the psum floor or panic instead of failing here.
        let weight = |code, max_delay_ps| WeightTiming {
            code,
            max_delay_ps,
            histogram: vec![0; 4],
            slow: Vec::new(),
        };
        let mut profile = WeightTimingProfile {
            per_weight: vec![weight(5, 190.0), weight(1, 120.0), weight(3, 150.0)],
            psum_floor_ps: 60.0,
            adder_from_product_ps: vec![10.0; 4],
            slow_floor_ps: 0.0,
        };
        let decode = |p: &WeightTimingProfile| {
            let mut bytes = Vec::new();
            p.write_to(&mut bytes);
            WeightTimingProfile::read_from(&mut charstore::wire::Reader::new(&bytes))
        };
        let err = decode(&profile).expect_err("codes [5, 1, 3] decoded");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        profile.per_weight = vec![weight(1, 120.0), weight(1, 130.0)];
        let err = decode(&profile).expect_err("duplicate codes decoded");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        profile.per_weight = vec![weight(1, 120.0), weight(3, 150.0), weight(5, 190.0)];
        let back = decode(&profile).expect("ascending codes decode");
        assert_eq!(back, profile);
        assert_eq!(back.timing(5).max_delay_ps, 190.0);
        assert_eq!(back.max_delay_over(&[5]), 190.0);
        assert_eq!(back.max_delay_ps(), 190.0);
    }

    #[test]
    fn adder_sta_floor_is_positive() {
        let hw = MacHardware::small();
        let profile = characterize_timing(&hw, &quick_cfg());
        assert!(profile.psum_floor_ps > 0.0);
        assert!(profile.adder_from_product_ps.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn specialized_sta_never_exceeds_full_composition_bound() {
        // Per code: DTA max <= plan bound <= full-netlist bound. Every
        // settle time lies inside its STA interval, so the weight-pinned
        // bound holds the DTA maximum, glitches included; pinning only
        // removes paths (paper §II), so it never exceeds the full bound.
        // Small runs exhaustively; paper runs every code at 64 sampled
        // pairs.
        let paper_cfg = TimingConfig {
            exhaustive: false,
            samples: 64,
            ..quick_cfg()
        };
        for (hw, cfg) in [
            (MacHardware::small(), quick_cfg()),
            (MacHardware::paper_default(), paper_cfg),
        ] {
            let profile = characterize_timing(&hw, &cfg);
            assert_eq!(profile.per_weight.len(), hw.weight_codes().len());
            let full_bound = Sta::new(hw.mult_netlist(), hw.lib()).critical_path_ps()
                + profile
                    .adder_from_product_ps
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
            for t in &profile.per_weight {
                let bound = sta_bound_per_weight(&hw, t.code);
                assert!(
                    t.max_delay_ps <= bound,
                    "weight {}: DTA {} exceeds plan bound {}",
                    t.code,
                    t.max_delay_ps,
                    bound
                );
                assert!(
                    bound <= full_bound + 1e-6,
                    "weight {}: plan bound {} exceeds full bound {}",
                    t.code,
                    bound,
                    full_bound
                );
            }
        }
    }

    #[test]
    fn zero_weight_sta_bound_is_zero() {
        let hw = MacHardware::small();
        assert_eq!(sta_bound_per_weight(&hw, 0), 0.0);
    }

    #[test]
    fn specialized_sta_varies_across_weights() {
        let hw = MacHardware::small();
        let bounds: Vec<f64> = hw
            .weight_codes()
            .iter()
            .map(|&c| sta_bound_per_weight(&hw, c))
            .collect();
        let min = bounds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = bounds.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "expected per-weight spread in STA bounds");
    }
}
