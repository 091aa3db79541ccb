//! Average power per weight value (paper §III-A, Fig. 2).
//!
//! For each weight code, the MAC netlist is simulated with the weight
//! input held constant while sampled combined transitions of activation
//! and partial sum (drawn from the distributions observed on the
//! systolic array) are applied to the other inputs. The average
//! switching energy per transition, divided by the clock period, is the
//! weight's average power — the quantity plotted in the paper's Fig. 2.
//!
//! The hot path runs on the bit-parallel [`BitSim`] engine: each
//! weight's sample stream is chunked into blocks of 64 stimulus
//! vectors, packed one `u64` lane per net, and simulated word-wide —
//! composing with the per-code thread fan-out so threads × bit-lanes
//! multiply. Before packing, each code's samples are sorted by
//! `(af ^ at, af, pf, pt)` (activation bits toggled, activation, then
//! partial sum), so the lanes of a word toggle mostly the same inputs
//! and share their events: 72.1M word events instead of 102.4M over a
//! Mini request. Each lane is its own sample's scalar run wherever it
//! sits; its energy is written back to the sample's slot, and the slots
//! are summed in sample order. The scalar path
//! ([`characterize_power_scalar`]) is kept as the bit-exact oracle of
//! the test suite and the baseline of the throughput bench; both
//! produce **identical** profiles, energies included.

use crate::chars::{CharConfigError, MacHardware, PsumBinning};
use gatesim::{BitSim, PrunePlan, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use systolic::stats::TransitionStats;

/// Configuration of the power characterization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Combined transitions sampled per weight value (paper: 10 000).
    pub samples_per_weight: usize,
    /// Base RNG seed (each weight derives its own stream).
    pub seed: u64,
    /// Clock period used to convert energy to power, ps.
    pub clock_ps: f64,
    /// Characterize only every `weight_stride`-th code (plus 0 and the
    /// extremes); skipped codes inherit the nearest characterized
    /// energy. 1 (the default) characterizes everything — use larger
    /// strides only for quick smoke runs.
    pub weight_stride: usize,
    /// Constant per-cycle energy of the sequential parts the
    /// combinational netlist does not model (pipeline registers and
    /// clock tree of a real MAC), fJ. Added to every weight's energy;
    /// this is the floor that keeps even weight 0 at a few hundred µW
    /// in the paper's Fig. 2.
    pub baseline_fj_per_cycle: f64,
}

impl PowerConfig {
    /// Checks the configuration for values that cannot produce a
    /// meaningful profile.
    ///
    /// # Errors
    ///
    /// [`CharConfigError::ZeroSamples`] if `samples_per_weight` is 0,
    /// [`CharConfigError::ZeroStride`] if `weight_stride` is 0.
    pub fn validate(&self) -> Result<(), CharConfigError> {
        if self.samples_per_weight == 0 {
            return Err(CharConfigError::ZeroSamples);
        }
        if self.weight_stride == 0 {
            return Err(CharConfigError::ZeroStride);
        }
        Ok(())
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            samples_per_weight: 10_000,
            seed: 0x7057_3250,
            clock_ps: 200.0,
            weight_stride: 1,
            baseline_fj_per_cycle: 90.0,
        }
    }
}

/// Average power per weight code.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPowerProfile {
    codes: Vec<i32>,
    energy_fj: Vec<f64>,
    power_uw: Vec<f64>,
    clock_ps: f64,
}

impl WeightPowerProfile {
    /// The characterized weight codes (ascending).
    #[must_use]
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Average switching energy per cycle for a code, fJ.
    ///
    /// # Panics
    ///
    /// Panics if the code was not characterized.
    #[must_use]
    pub fn energy_fj(&self, code: i32) -> f64 {
        let idx = self
            .codes
            .binary_search(&code)
            .expect("code not characterized");
        self.energy_fj[idx]
    }

    /// Average power for a code, µW.
    ///
    /// # Panics
    ///
    /// Panics if the code was not characterized.
    #[must_use]
    pub fn power_uw(&self, code: i32) -> f64 {
        let idx = self
            .codes
            .binary_search(&code)
            .expect("code not characterized");
        self.power_uw[idx]
    }

    /// `(code, power µW)` pairs — the paper's Fig. 2 series.
    #[must_use]
    pub fn series(&self) -> Vec<(i32, f64)> {
        self.codes
            .iter()
            .copied()
            .zip(self.power_uw.iter().copied())
            .collect()
    }

    /// The clock period the power numbers assume, ps.
    #[must_use]
    pub fn clock_ps(&self) -> f64 {
        self.clock_ps
    }

    /// Codes whose power is at most `threshold_uw` (the paper's weight
    /// selection by power threshold; zero is always kept — it is the
    /// pruning target and by far the cheapest value).
    #[must_use]
    pub fn codes_below(&self, threshold_uw: f64) -> Vec<i32> {
        let mut out: Vec<i32> = self
            .codes
            .iter()
            .zip(&self.power_uw)
            .filter(|&(_, &p)| p <= threshold_uw)
            .map(|(&c, _)| c)
            .collect();
        if !out.contains(&0) {
            out.push(0);
            out.sort_unstable();
        }
        out
    }

    /// Serializes the profile bit-exactly for the charstore container.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use charstore::wire;
        wire::put_usize(out, self.codes.len());
        for &c in &self.codes {
            wire::put_i32(out, c);
        }
        for &e in &self.energy_fj {
            wire::put_f64(out, e);
        }
        for &p in &self.power_uw {
            wire::put_f64(out, p);
        }
        wire::put_f64(out, self.clock_ps);
    }

    /// Deserializes a profile written by [`WeightPowerProfile::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, an implausible length, or a code
    /// list that is not strictly ascending (the lookup invariant).
    pub fn read_from(r: &mut charstore::wire::Reader<'_>) -> std::io::Result<Self> {
        use charstore::wire;
        // Each entry needs 4 (code) + 16 (energy, power) bytes.
        let len = r.bounded_len(20)?;
        let mut codes = Vec::with_capacity(len);
        for _ in 0..len {
            codes.push(r.i32()?);
        }
        if !codes.windows(2).all(|w| w[0] < w[1]) {
            return Err(wire::invalid("power profile codes are not ascending"));
        }
        let mut energy_fj = Vec::with_capacity(len);
        for _ in 0..len {
            energy_fj.push(r.f64()?);
        }
        let mut power_uw = Vec::with_capacity(len);
        for _ in 0..len {
            power_uw.push(r.f64()?);
        }
        Ok(WeightPowerProfile {
            codes,
            energy_fj,
            power_uw,
            clock_ps: r.f64()?,
        })
    }

    /// Builds a [`systolic::MacEnergyModel`] from this profile so the
    /// array simulator can integrate characterized energies.
    ///
    /// `idle_fraction` scales the zero-weight energy to model an idle
    /// (weightless) clocked PE; `leakage_nw_per_pe` comes from the
    /// netlist's leakage under the cell library.
    #[must_use]
    pub fn to_energy_model(
        &self,
        idle_fraction: f64,
        leakage_nw_per_pe: f64,
    ) -> systolic::MacEnergyModel {
        let mut table = vec![0.0f64; 256];
        let min_code = *self.codes.first().expect("non-empty profile");
        for code in -128i32..=127 {
            let lookup = code.max(min_code);
            let idx = self
                .codes
                .binary_search(&lookup)
                .unwrap_or_else(|i| i.min(self.codes.len() - 1));
            table[(code + 128) as usize] = self.energy_fj[idx];
        }
        let idle = self.energy_fj(0) * idle_fraction;
        systolic::MacEnergyModel::from_table(table, idle, leakage_nw_per_pe)
    }
}

/// The weight codes actually simulated under a stride configuration:
/// every `stride`-th code plus the two extremes. Shared by every power
/// and timing characterization path, and by the throughput bench to
/// count simulated codes.
///
/// # Panics
///
/// Panics if `all_codes` is empty.
#[must_use]
pub fn strided_codes(all_codes: &[i32], stride: usize) -> Vec<i32> {
    let stride = stride.max(1) as i32;
    let min_code = *all_codes.first().expect("non-empty code range");
    let max_code = *all_codes.last().expect("non-empty code range");
    all_codes
        .iter()
        .copied()
        .filter(|&c| c % stride == 0 || c == min_code || c == max_code)
        .collect()
}

/// Index of the code in `codes` (ascending, non-empty) nearest to
/// `code`; a tie goes to the lower code. Strided characterization hands
/// each skipped code the result of this neighbour.
pub(crate) fn nearest_code_index(codes: &[i32], code: i32) -> usize {
    match codes.binary_search(&code) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i == codes.len() => i - 1,
        Err(i) if code - codes[i - 1] <= codes[i] - code => i - 1,
        Err(i) => i,
    }
}

/// The per-code RNG for power characterization. Derived from the
/// *global* code index only, never from chunk geometry, so results are
/// identical at any thread count.
fn code_rng(cfg: &PowerConfig, code_idx: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ ((code_idx as u64) << 8))
}

/// Characterizes the average power of every weight value.
///
/// The weight input is fixed per run; activation transitions are drawn
/// from `act_stats` and partial-sum transitions from `binning`, so the
/// sampled input stream reflects real network execution. Weights are
/// characterized in parallel on the bit-parallel [`BitSim`] engine —
/// 64 sampled transitions per simulated word, packed in sorted order
/// and folded in sample order (see the module docs), on top of the
/// per-code thread fan-out — under a per-code [`PrunePlan`]: the held
/// weight bus is pinned, constant propagation proves the weight's dead
/// cone silent, and only the live cone is simulated. Pruning is exact
/// (pruned gates provably never toggle), so the profile is
/// bit-identical to the unpinned scalar reference
/// [`characterize_power_scalar`].
///
/// # Panics
///
/// Panics if `act_stats` has no recorded transitions or the
/// configuration fails [`PowerConfig::validate`].
#[must_use]
pub fn characterize_power(
    hw: &MacHardware,
    act_stats: &TransitionStats,
    binning: &PsumBinning,
    cfg: &PowerConfig,
) -> WeightPowerProfile {
    characterize_power_with_threads(hw, act_stats, binning, cfg, None)
}

/// [`characterize_power`] with an explicit worker-thread count (`None`
/// uses the machine's available parallelism). Exposed so the test suite
/// can prove the profile is identical at any thread count.
///
/// # Panics
///
/// Panics if `act_stats` has no recorded transitions or the
/// configuration fails [`PowerConfig::validate`].
#[must_use]
pub fn characterize_power_with_threads(
    hw: &MacHardware,
    act_stats: &TransitionStats,
    binning: &PsumBinning,
    cfg: &PowerConfig,
    threads: Option<usize>,
) -> WeightPowerProfile {
    if let Err(e) = cfg.validate() {
        panic!("invalid PowerConfig: {e}");
    }
    let all_codes = hw.weight_codes();
    let codes = strided_codes(&all_codes, cfg.weight_stride);
    let mut energy_fj = vec![0.0f64; codes.len()];
    let input_count = hw.mac().netlist().inputs().len();

    parallel::par_rows_mut_with_threads(
        threads.unwrap_or_else(parallel::max_threads),
        &mut energy_fj,
        1,
        || {
            (
                Vec::new(),
                Vec::new(),
                vec![0u64; input_count],
                vec![0u64; input_count],
                Vec::new(),
                Vec::new(),
            )
        },
        |(from, to, from_words, to_words, order, energies), idx, slot| {
            let code = codes[idx];
            // The engine is built per code, not per thread: with the
            // weight bus pinned at this code, the prune plan proves the
            // weight's dead cone silent and the engine never visits it.
            // The plan pass is microseconds against thousands of
            // simulated transitions per code.
            let plan = PrunePlan::new(hw.mac().netlist(), hw.lib(), &hw.mac_weight_pins(code));
            let mut sim = BitSim::with_plan(hw.mac().netlist(), hw.lib(), &plan);
            let mut rng = code_rng(cfg, idx);
            let acts = act_stats.sample_activation_transitions(cfg.samples_per_weight, &mut rng);
            let psums = binning.sample_transitions(cfg.samples_per_weight, &mut rng);
            // Samples that toggle the same activation bits share words,
            // so their lanes raise the same events. A lane is its own
            // sample's scalar run wherever it sits.
            order.clear();
            order.extend(0..cfg.samples_per_weight);
            order.sort_unstable_by_key(|&i| {
                let ((af, at), (pf, pt)) = (acts[i], psums[i]);
                (af ^ at, af, pf, pt)
            });
            energies.clear();
            energies.resize(cfg.samples_per_weight, 0.0);
            // Blocks of up to 64 samples, one bit-lane each; the final
            // partial block relies on the engine's tail masking.
            for block in order.chunks(64) {
                from_words.fill(0);
                to_words.fill(0);
                for (lane, &i) in block.iter().enumerate() {
                    let ((af, at), (pf, pt)) = (acts[i], psums[i]);
                    hw.mac()
                        .encode_into(code as i64, af as u64, pf as i64, from);
                    hw.mac().encode_into(code as i64, at as u64, pt as i64, to);
                    for (w, &bit) in from.iter().enumerate() {
                        from_words[w] |= u64::from(bit) << lane;
                    }
                    for (w, &bit) in to.iter().enumerate() {
                        to_words[w] |= u64::from(bit) << lane;
                    }
                }
                sim.settle(from_words, block.len());
                let view = sim.transition(to_words);
                for (lane, &i) in block.iter().enumerate() {
                    energies[i] = view.lane_energy_fj(lane);
                }
            }
            // Fold in sample order, as the scalar oracle does: any other
            // order re-associates the f64 sum and drifts off it.
            let mut total = 0.0f64;
            for &e in energies.iter() {
                total += e;
            }
            slot[0] = total / cfg.samples_per_weight as f64 + cfg.baseline_fj_per_cycle;
        },
    );

    expand_profile(cfg, &all_codes, &codes, &energy_fj)
}

/// Reference implementation of the characterization loop on the scalar
/// [`Simulator`]: one allocation-heavy `settle`/`transition` round-trip
/// per sample, with no weight pins. Kept as the oracle of the test
/// suite, which holds [`characterize_power`] to it bit for bit, and as
/// the baseline of the characterization-throughput bench.
///
/// Produces **bit-identical** profiles to [`characterize_power`].
///
/// # Panics
///
/// Panics if `act_stats` has no recorded transitions or the
/// configuration fails [`PowerConfig::validate`].
#[must_use]
pub fn characterize_power_scalar(
    hw: &MacHardware,
    act_stats: &TransitionStats,
    binning: &PsumBinning,
    cfg: &PowerConfig,
) -> WeightPowerProfile {
    if let Err(e) = cfg.validate() {
        panic!("invalid PowerConfig: {e}");
    }
    let all_codes = hw.weight_codes();
    let codes = strided_codes(&all_codes, cfg.weight_stride);
    let mut energy_fj = vec![0.0f64; codes.len()];

    parallel::par_rows_mut(
        &mut energy_fj,
        1,
        || Simulator::new(hw.mac().netlist(), hw.lib()),
        |sim, idx, slot| {
            let code = codes[idx];
            let mut rng = code_rng(cfg, idx);
            let acts = act_stats.sample_activation_transitions(cfg.samples_per_weight, &mut rng);
            let psums = binning.sample_transitions(cfg.samples_per_weight, &mut rng);
            let mut total = 0.0f64;
            for ((af, at), (pf, pt)) in acts.iter().zip(&psums) {
                let from = hw.mac().encode(code as i64, *af as u64, *pf as i64);
                let to = hw.mac().encode(code as i64, *at as u64, *pt as i64);
                sim.settle(&from);
                let stats = sim.transition(&to);
                total += stats.energy_fj;
            }
            slot[0] = total / cfg.samples_per_weight as f64 + cfg.baseline_fj_per_cycle;
        },
    );

    expand_profile(cfg, &all_codes, &codes, &energy_fj)
}

/// Expands strided per-code energies back to the full code list (skipped
/// codes inherit the nearest characterized energy) and converts to
/// power.
fn expand_profile(
    cfg: &PowerConfig,
    all_codes: &[i32],
    codes: &[i32],
    energy_fj: &[f64],
) -> WeightPowerProfile {
    let full_energy: Vec<f64> = all_codes
        .iter()
        .map(|&c| energy_fj[nearest_code_index(codes, c)])
        .collect();
    let power_uw: Vec<f64> = full_energy
        .iter()
        .map(|e| e / cfg.clock_ps * 1000.0)
        .collect();
    WeightPowerProfile {
        codes: all_codes.to_vec(),
        energy_fj: full_energy,
        power_uw,
        clock_ps: cfg.clock_ps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::bins::PsumBinning;

    fn fake_stats() -> (TransitionStats, PsumBinning) {
        let mut stats = TransitionStats::new();
        // Mostly small-step transitions like real activations.
        for a in 0..14u8 {
            stats.record_activation(a, a + 1, 20);
            stats.record_activation(a + 1, a, 20);
            stats.record_activation(a, a.wrapping_add(3), 3);
        }
        let samples: Vec<(i32, i32)> = (0..300)
            .map(|i| ((i * 37) % 1000 - 500, (i * 91) % 1000 - 500))
            .collect();
        let binning = PsumBinning::from_samples(&samples, 8, 12, 0);
        (stats, binning)
    }

    fn quick_cfg() -> PowerConfig {
        PowerConfig {
            samples_per_weight: 40,
            seed: 1,
            clock_ps: 200.0,
            weight_stride: 1,
            baseline_fj_per_cycle: 0.0,
        }
    }

    #[test]
    fn stride_keeps_full_code_coverage() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let cfg = PowerConfig {
            weight_stride: 4,
            baseline_fj_per_cycle: 0.0,
            ..quick_cfg()
        };
        let profile = characterize_power(&hw, &stats, &binning, &cfg);
        assert_eq!(profile.codes().len(), hw.weight_codes().len());
        // Neighbours of a characterized code share its energy.
        assert_eq!(profile.energy_fj(4), profile.energy_fj(5));
    }

    #[test]
    fn zero_weight_is_cheapest() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let profile = characterize_power(&hw, &stats, &binning, &quick_cfg());
        let zero = profile.power_uw(0);
        for &c in profile.codes() {
            if c != 0 {
                assert!(
                    zero <= profile.power_uw(c) + 1e-9,
                    "code {c} ({}) beat zero ({zero})",
                    profile.power_uw(c)
                );
            }
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let a = characterize_power(&hw, &stats, &binning, &quick_cfg());
        let b = characterize_power(&hw, &stats, &binning, &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn profile_is_identical_at_any_thread_count() {
        // The per-code RNG is derived from the global code index, so
        // chunk geometry must never leak into the results.
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let cfg = quick_cfg();
        let reference = characterize_power_with_threads(&hw, &stats, &binning, &cfg, Some(1));
        for threads in [2, 3, 5, 16] {
            let p = characterize_power_with_threads(&hw, &stats, &binning, &cfg, Some(threads));
            assert_eq!(p, reference, "thread count {threads} changed the profile");
        }
        let auto = characterize_power(&hw, &stats, &binning, &cfg);
        assert_eq!(auto, reference);
    }

    #[test]
    fn all_three_engines_produce_identical_profiles() {
        // The BitSim hot path, with the weight bus pinned per code, must
        // be bit-identical to the unpinned scalar Simulator path,
        // energies included.
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let cfg = PowerConfig {
            weight_stride: 2,
            ..quick_cfg()
        };
        let bitsim = characterize_power(&hw, &stats, &binning, &cfg);
        let scalar = characterize_power_scalar(&hw, &stats, &binning, &cfg);
        assert_eq!(bitsim, scalar);
    }

    #[test]
    fn non_multiple_of_64_sample_counts_stay_identical() {
        // Tail masking: sample budgets below, at and just above the
        // 64-lane word width must all reproduce the scalar fold.
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        for samples in [1, 63, 64, 65, 70, 130] {
            let cfg = PowerConfig {
                samples_per_weight: samples,
                weight_stride: 4,
                ..quick_cfg()
            };
            let bitsim = characterize_power(&hw, &stats, &binning, &cfg);
            let scalar = characterize_power_scalar(&hw, &stats, &binning, &cfg);
            assert_eq!(bitsim, scalar, "diverged at {samples} samples");
        }
    }

    #[test]
    #[should_panic(expected = "samples per weight must be at least 1")]
    fn zero_samples_is_rejected_with_clear_error() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let cfg = PowerConfig {
            samples_per_weight: 0,
            ..quick_cfg()
        };
        let _ = characterize_power(&hw, &stats, &binning, &cfg);
    }

    #[test]
    #[should_panic(expected = "weight_stride must be at least 1")]
    fn zero_stride_is_rejected_with_clear_error() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let cfg = PowerConfig {
            weight_stride: 0,
            ..quick_cfg()
        };
        let _ = characterize_power(&hw, &stats, &binning, &cfg);
    }

    #[test]
    fn validate_accepts_default_config() {
        assert_eq!(PowerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn threshold_selection_keeps_cheap_codes_and_zero() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let profile = characterize_power(&hw, &stats, &binning, &quick_cfg());
        let powers: Vec<f64> = profile
            .codes()
            .iter()
            .map(|&c| profile.power_uw(c))
            .collect();
        let median = {
            let mut p = powers.clone();
            p.sort_by(|a, b| a.partial_cmp(b).unwrap());
            p[p.len() / 2]
        };
        let kept = profile.codes_below(median);
        assert!(kept.contains(&0));
        assert!(kept.len() < profile.codes().len());
        assert!(kept.len() >= profile.codes().len() / 4);
    }

    #[test]
    fn energy_model_round_trip() {
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let profile = characterize_power(&hw, &stats, &binning, &quick_cfg());
        let model = profile.to_energy_model(0.3, 100.0);
        assert!((model.energy_fj(0) - profile.energy_fj(0)).abs() < 1e-9);
        assert!((model.energy_fj(5) - profile.energy_fj(5)).abs() < 1e-9);
        assert!(model.idle_fj() < model.energy_fj(0) + 1e-9);
    }

    #[test]
    fn powers_of_two_are_cheap() {
        // Shift-like weights should sit low in the distribution, the
        // paper's §II observation.
        let hw = MacHardware::small();
        let (stats, binning) = fake_stats();
        let profile = characterize_power(&hw, &stats, &binning, &quick_cfg());
        let p2 = profile.power_uw(2);
        let p7 = profile.power_uw(7); // dense bit pattern 111
        assert!(p2 < p7, "power-of-two 2 ({p2}) should undercut 7 ({p7})");
    }
}
