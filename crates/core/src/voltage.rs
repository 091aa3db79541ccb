//! Supply-voltage scaling model (paper §III-C, references \[16\], \[17\]).
//!
//! Selecting weights/activations with small delays reduces the MAC's
//! maximum sensitizable delay below the clock period. The freed slack
//! is converted to power savings by lowering VDD until the slowed
//! circuit again just meets the clock. The delay-vs-voltage curve is a
//! tabulated FinFET characteristic in the spirit of \[16\] (near-threshold
//! delay blows up super-linearly); dynamic power scales as V², leakage
//! with an empirical V³-like law fitted to the near-threshold FinFET
//! scaling reported in \[17\].

/// Delay-vs-VDD model with power scaling laws.
///
/// # Examples
///
/// ```
/// use powerpruning::voltage::VoltageModel;
///
/// let model = VoltageModel::finfet15();
/// // 22% delay slack lets VDD drop below nominal.
/// let vdd = model.min_vdd_for_delay_factor(1.29);
/// assert!(vdd < model.nominal_vdd());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageModel {
    /// `(vdd, delay factor relative to nominal)` — ascending by vdd.
    points: Vec<(f64, f64)>,
    nominal: f64,
    /// VDD search granularity (the paper reports two-decimal voltages).
    step: f64,
}

impl VoltageModel {
    /// A 15 nm-FinFET-like curve with 0.8 V nominal supply.
    ///
    /// Anchor points follow the shape of the dynamic-voltage-scaling
    /// simulations in \[16\]: mild slowdown at first, super-linear toward
    /// near-threshold.
    #[must_use]
    pub fn finfet15() -> Self {
        VoltageModel {
            points: vec![
                (0.45, 5.10),
                (0.50, 3.40),
                (0.55, 2.45),
                (0.60, 1.90),
                (0.65, 1.55),
                (0.70, 1.31),
                (0.75, 1.13),
                (0.80, 1.00),
            ],
            nominal: 0.80,
            step: 0.01,
        }
    }

    /// Nominal supply voltage, volts.
    #[must_use]
    pub fn nominal_vdd(&self) -> f64 {
        self.nominal
    }

    /// Delay factor (relative to nominal) at `vdd`, linearly
    /// interpolated; clamped at the table ends.
    #[must_use]
    pub fn delay_factor(&self, vdd: f64) -> f64 {
        let pts = &self.points;
        if vdd <= pts[0].0 {
            return pts[0].1;
        }
        if vdd >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let i = pts.partition_point(|&(v, _)| v < vdd);
        let (v0, d0) = pts[i - 1];
        let (v1, d1) = pts[i];
        d0 + (d1 - d0) * (vdd - v0) / (v1 - v0)
    }

    /// The lowest VDD (at the model's granularity) whose delay factor
    /// stays within `max_factor` (the available slack `D_clock /
    /// D_selected`). Returns the nominal voltage for factors ≤ 1.
    #[must_use]
    pub fn min_vdd_for_delay_factor(&self, max_factor: f64) -> f64 {
        if max_factor <= 1.0 {
            return self.nominal;
        }
        let floor = self.points[0].0;
        let mut vdd = self.nominal;
        loop {
            let next = ((vdd - self.step) * 100.0).round() / 100.0;
            if next < floor - 1e-9 || self.delay_factor(next) > max_factor {
                return vdd;
            }
            vdd = next;
        }
    }

    /// Dynamic-power scale factor at `vdd` relative to nominal: `(V/V0)²`.
    #[must_use]
    pub fn dynamic_power_factor(&self, vdd: f64) -> f64 {
        let r = vdd / self.nominal;
        r * r
    }

    /// Leakage-power scale factor at `vdd` relative to nominal. An
    /// empirical `(V/V0)³` law that matches the 2–3× leakage reduction
    /// between 0.8 V and 0.6 V reported for FinFET near-threshold
    /// operation in \[17\].
    #[must_use]
    pub fn leakage_power_factor(&self, vdd: f64) -> f64 {
        let r = vdd / self.nominal;
        r * r * r
    }
}

impl Default for VoltageModel {
    fn default() -> Self {
        VoltageModel::finfet15()
    }
}

/// Outcome of converting delay slack into a voltage scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageScaling {
    /// Selected supply voltage, volts.
    pub vdd: f64,
    /// Nominal supply voltage, volts.
    pub nominal_vdd: f64,
    /// Dynamic power factor (≤ 1).
    pub dynamic_factor: f64,
    /// Leakage power factor (≤ 1).
    pub leakage_factor: f64,
}

impl VoltageScaling {
    /// Computes the voltage scaling enabled by reducing the maximum MAC
    /// delay from `original_ps` to `selected_ps` while keeping the
    /// original clock.
    ///
    /// # Panics
    ///
    /// Panics if either delay is not positive.
    #[must_use]
    pub fn from_delays(model: &VoltageModel, original_ps: f64, selected_ps: f64) -> Self {
        assert!(
            original_ps > 0.0 && selected_ps > 0.0,
            "delays must be positive"
        );
        let slack = original_ps / selected_ps;
        let vdd = model.min_vdd_for_delay_factor(slack);
        VoltageScaling {
            vdd,
            nominal_vdd: model.nominal_vdd(),
            dynamic_factor: model.dynamic_power_factor(vdd),
            leakage_factor: model.leakage_power_factor(vdd),
        }
    }

    /// Formats the scaling like the paper's Table I ("0.71/0.8").
    #[must_use]
    pub fn label(&self) -> String {
        format!("{:.2}/{:.1}", self.vdd, self.nominal_vdd)
    }
}

/// The alternative use of the freed timing slack (paper §II): keep the
/// supply voltage and **raise the clock frequency** instead, trading the
/// power saving for computational performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyBoost {
    /// Original clock period, ps.
    pub original_clock_ps: f64,
    /// New (shorter) clock period, ps.
    pub boosted_clock_ps: f64,
}

impl FrequencyBoost {
    /// Computes the clock boost enabled by reducing the maximum MAC
    /// delay from `original_ps` to `selected_ps`, assuming the original
    /// clock period equals `clock_ps` and the same relative timing
    /// margin is kept.
    ///
    /// # Panics
    ///
    /// Panics if any duration is not positive or the selected delay
    /// exceeds the original.
    #[must_use]
    pub fn from_delays(clock_ps: f64, original_ps: f64, selected_ps: f64) -> Self {
        assert!(
            clock_ps > 0.0 && original_ps > 0.0 && selected_ps > 0.0,
            "durations must be positive"
        );
        assert!(
            selected_ps <= original_ps + 1e-9,
            "selection may not increase the max delay"
        );
        FrequencyBoost {
            original_clock_ps: clock_ps,
            boosted_clock_ps: clock_ps * selected_ps / original_ps,
        }
    }

    /// Throughput speedup factor (≥ 1).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.original_clock_ps / self.boosted_clock_ps
    }

    /// New clock frequency in GHz.
    #[must_use]
    pub fn boosted_freq_ghz(&self) -> f64 {
        1000.0 / self.boosted_clock_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_factor_is_monotone_decreasing_in_vdd() {
        let m = VoltageModel::finfet15();
        let mut prev = f64::INFINITY;
        let mut v = 0.45;
        while v <= 0.80 {
            let d = m.delay_factor(v);
            assert!(d <= prev + 1e-12, "non-monotone at {v}");
            prev = d;
            v += 0.01;
        }
    }

    #[test]
    fn nominal_has_unit_factor() {
        let m = VoltageModel::finfet15();
        assert!((m.delay_factor(0.8) - 1.0).abs() < 1e-12);
        assert!((m.dynamic_power_factor(0.8) - 1.0).abs() < 1e-12);
        assert!((m.leakage_power_factor(0.8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_slack_means_no_scaling() {
        let m = VoltageModel::finfet15();
        let s = VoltageScaling::from_delays(&m, 180.0, 180.0);
        assert_eq!(s.vdd, 0.8);
        assert_eq!(s.dynamic_factor, 1.0);
    }

    #[test]
    fn paper_like_slack_gives_paper_like_voltage() {
        // Paper: 40 ps reduction from 180 ps → 0.71 V.
        let m = VoltageModel::finfet15();
        let s = VoltageScaling::from_delays(&m, 180.0, 140.0);
        assert!(
            (0.66..=0.75).contains(&s.vdd),
            "expected ~0.70-0.71 V, got {}",
            s.vdd
        );
        assert!(s.dynamic_factor < 1.0);
        assert!(s.leakage_factor < 1.0);
    }

    #[test]
    fn more_slack_means_lower_voltage() {
        let m = VoltageModel::finfet15();
        let small = VoltageScaling::from_delays(&m, 180.0, 170.0);
        let large = VoltageScaling::from_delays(&m, 180.0, 120.0);
        assert!(large.vdd <= small.vdd);
    }

    #[test]
    fn min_vdd_respects_factor_bound() {
        let m = VoltageModel::finfet15();
        for factor in [1.05, 1.2, 1.5, 2.0, 3.0] {
            let vdd = m.min_vdd_for_delay_factor(factor);
            assert!(
                m.delay_factor(vdd) <= factor + 1e-9,
                "vdd {vdd} violates factor {factor}"
            );
        }
    }

    #[test]
    fn label_matches_paper_format() {
        let m = VoltageModel::finfet15();
        let s = VoltageScaling::from_delays(&m, 180.0, 140.0);
        assert!(s.label().ends_with("/0.8"));
    }

    #[test]
    fn frequency_boost_mirrors_delay_reduction() {
        let b = FrequencyBoost::from_delays(200.0, 180.0, 140.0);
        assert!((b.speedup() - 180.0 / 140.0).abs() < 1e-9);
        assert!(b.boosted_freq_ghz() > 5.0);
    }

    #[test]
    fn no_reduction_means_no_boost() {
        let b = FrequencyBoost::from_delays(200.0, 180.0, 180.0);
        assert!((b.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "increase")]
    fn boost_rejects_delay_increase() {
        let _ = FrequencyBoost::from_delays(200.0, 140.0, 180.0);
    }
}
