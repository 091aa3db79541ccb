//! Int8 quantization with restricted value sets.
//!
//! Matches the paper's setup: weights are quantized symmetrically to
//! **255** codes (−127..=127, keeping the distribution symmetric as
//! TensorFlow does), activations asymmetrically to **256** codes
//! (0..=255). PowerPruning then *restricts* which codes a network may
//! use: [`ValueSet`] holds the allowed codes and projection onto the
//! nearest allowed code happens in the forward pass, with the
//! straight-through estimator in the backward pass (the projection is
//! simply ignored when propagating gradients).

use crate::tensor::Tensor;
use std::fmt;

/// A sorted set of allowed quantized codes.
///
/// # Examples
///
/// ```
/// use nn::quant::ValueSet;
///
/// let set = ValueSet::new([0, -2, 4, 4]);
/// assert_eq!(set.codes(), &[-2, 0, 4]);
/// assert_eq!(set.project(3), 4);
/// assert_eq!(set.project(-100), -2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueSet {
    codes: Vec<i32>,
}

impl ValueSet {
    /// Builds a set from arbitrary codes (sorted and deduplicated).
    #[must_use]
    pub fn new(codes: impl IntoIterator<Item = i32>) -> Self {
        let mut codes: Vec<i32> = codes.into_iter().collect();
        codes.sort_unstable();
        codes.dedup();
        ValueSet { codes }
    }

    /// All 255 symmetric int8 weight codes (−127..=127).
    #[must_use]
    pub fn all_weight_codes() -> Self {
        ValueSet::new(-127..=127)
    }

    /// All 256 uint8 activation codes (0..=255).
    #[must_use]
    pub fn all_activation_codes() -> Self {
        ValueSet::new(0..=255)
    }

    /// The sorted allowed codes.
    #[must_use]
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Number of allowed codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Whether `code` is allowed.
    #[must_use]
    pub fn contains(&self, code: i32) -> bool {
        self.codes.binary_search(&code).is_ok()
    }

    /// Nearest allowed code (ties resolve toward the smaller code).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    #[must_use]
    pub fn project(&self, code: i32) -> i32 {
        assert!(
            !self.codes.is_empty(),
            "cannot project onto an empty ValueSet"
        );
        match self.codes.binary_search(&code) {
            Ok(_) => code,
            Err(pos) => {
                if pos == 0 {
                    self.codes[0]
                } else if pos == self.codes.len() {
                    self.codes[pos - 1]
                } else {
                    let lo = self.codes[pos - 1];
                    let hi = self.codes[pos];
                    if (code - lo) <= (hi - code) {
                        lo
                    } else {
                        hi
                    }
                }
            }
        }
    }

    /// Removes a code, returning whether it was present.
    pub fn remove(&mut self, code: i32) -> bool {
        match self.codes.binary_search(&code) {
            Ok(pos) => {
                self.codes.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps only codes satisfying the predicate.
    pub fn retain(&mut self, f: impl FnMut(&i32) -> bool) {
        self.codes.retain(f);
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ValueSet({} codes)", self.codes.len())
    }
}

impl FromIterator<i32> for ValueSet {
    fn from_iter<T: IntoIterator<Item = i32>>(iter: T) -> Self {
        ValueSet::new(iter)
    }
}

/// Symmetric per-tensor int8 weight quantizer with an optional
/// restriction set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightQuantizer {
    /// When set, quantized codes are projected onto this set.
    pub allowed: Option<ValueSet>,
}

/// Result of quantizing a weight tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    /// Scale such that `value ≈ code · scale`.
    pub scale: f32,
    /// Integer codes, one per weight (−127..=127).
    pub codes: Vec<i8>,
    /// Dequantized (fake-quantized) weights used in the forward pass.
    pub dequant: Tensor,
}

impl WeightQuantizer {
    /// An unrestricted quantizer.
    #[must_use]
    pub fn new() -> Self {
        WeightQuantizer::default()
    }

    /// Quantizes `w` symmetrically: `scale = max|w| / 127`,
    /// `code = clamp(round(w / scale), −127, 127)`, projected onto the
    /// allowed set when one is configured.
    #[must_use]
    pub fn quantize(&self, w: &Tensor) -> QuantizedWeights {
        let scale = (w.max_abs() / 127.0).max(1e-8);
        let project = projection_table::<255>(self.allowed.as_ref(), -127);
        let mut codes = vec![0i8; w.len()];
        for (code, &v) in codes.iter_mut().zip(w.data()) {
            *code = round_clamp(v / scale, -127, 127) as i8;
        }
        for code in &mut codes {
            *code = project[(i32::from(*code) + 127) as usize] as i8;
        }
        let dequant = codes.iter().map(|&code| f32::from(code) * scale).collect();
        QuantizedWeights {
            scale,
            codes,
            dequant: Tensor::from_vec(w.shape(), dequant),
        }
    }
}

/// Asymmetric uint8 activation quantizer over a fixed clipping range
/// `[0, range]` (ReLU-style), with an optional restriction set.
#[derive(Debug, Clone, PartialEq)]
pub struct ActQuantizer {
    /// Upper clipping bound of the representable range.
    pub range: f32,
    /// When set, quantized codes are projected onto this set.
    pub allowed: Option<ValueSet>,
}

/// Result of quantizing an activation tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedActs {
    /// Scale such that `value ≈ code · scale`.
    pub scale: f32,
    /// Integer codes, one per activation (0..=255).
    pub codes: Vec<u8>,
    /// Dequantized (fake-quantized) activations.
    pub dequant: Tensor,
}

impl ActQuantizer {
    /// A quantizer for the `[0, range]` interval with all 256 codes.
    #[must_use]
    pub fn new(range: f32) -> Self {
        ActQuantizer {
            range,
            allowed: None,
        }
    }

    /// Quantizes `x`: `scale = range / 255`,
    /// `code = clamp(round(x / scale), 0, 255)`, projected onto the
    /// allowed set when one is configured; `dequant` holds
    /// `code · scale`. NaN takes code 0, as `f32::round` then an `as`
    /// cast would give it.
    ///
    /// Three passes over preallocated buffers (raw codes, table
    /// projection, dequantized values), so the first and last run
    /// several lanes at a time.
    #[must_use]
    pub fn quantize(&self, x: &Tensor) -> QuantizedActs {
        let scale = (self.range / 255.0).max(1e-8);
        let project = projection_table::<256>(self.allowed.as_ref(), 0);
        let mut codes = vec![0u8; x.len()];
        for (code, &v) in codes.iter_mut().zip(x.data()) {
            *code = round_clamp(v / scale, 0, 255) as u8;
        }
        for code in &mut codes {
            *code = project[usize::from(*code)] as u8;
        }
        let dequant = codes.iter().map(|&code| f32::from(code) * scale).collect();
        QuantizedActs {
            scale,
            codes,
            dequant: Tensor::from_vec(x.shape(), dequant),
        }
    }
}

/// `x.round().clamp(lo, hi) as i32` (round half away from zero; NaN
/// maps to 0) in integer arithmetic, without a `roundf` call per value,
/// so a loop over a slice vectorizes.
///
/// Clamping to one past the bounds first keeps `|x|` small, where the
/// truncation `t` and the fraction `x - t` are exact, and cannot change
/// the final clamped result. NaN passes through a clamp unchanged, so it
/// is mapped to 0 first: that keeps the `as i32` result of the libm
/// form, and leaves the conversion only finite values that `i32` holds.
///
/// # Panics
///
/// Panics unless `−2²⁴ < lo ≤ 0 ≤ hi < 2²⁴` (constant at every call
/// site, so the check folds away).
pub(crate) fn round_clamp(x: f32, lo: i32, hi: i32) -> i32 {
    const EXACT: i32 = 1 << 24;
    assert!((1 - EXACT..=0).contains(&lo) && (0..EXACT).contains(&hi));
    let x = if x.is_nan() { 0.0 } else { x };
    let x = x.clamp(lo as f32 - 1.0, hi as f32 + 1.0);
    // SAFETY: `x` is not NaN, and the clamp holds it to
    // `lo − 1 ..= hi + 1`, whose bounds are exact `f32` integers inside
    // `i32` (asserted above), so truncating it cannot overflow.
    let t: i32 = unsafe { x.to_int_unchecked() };
    let frac = x - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)).clamp(lo, hi)
}

/// `allowed.project(first + i)` for each of the `N` codes from `first`
/// (the identity when unrestricted): one binary search per code rather
/// than one per quantized value.
fn projection_table<const N: usize>(allowed: Option<&ValueSet>, first: i32) -> [i32; N] {
    std::array::from_fn(|i| {
        let code = first + i as i32;
        allowed.map_or(code, |set| set.project(code))
    })
}

impl Default for ActQuantizer {
    fn default() -> Self {
        ActQuantizer::new(6.0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One step of a xorshift64 stream.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Inputs for a quantizer whose code step is `scale` and whose codes
    /// run over `lo..=hi`: NaN of both signs, signed zeros, subnormals,
    /// both ends of the range, every `k + 0.5` code boundary inside it
    /// with the floats on either side, and seeded values across it. With
    /// `scale` a power of two every boundary divides exactly. Nothing
    /// lies past `hi · scale`, so a weight tensor of these values keeps
    /// `scale` as its own.
    pub(crate) fn edge_values(scale: f32, lo: i32, hi: i32) -> Vec<f32> {
        let subnormal = f32::MIN_POSITIVE / 3.0;
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            subnormal,
            -subnormal,
            lo as f32 * scale,
            hi as f32 * scale,
        ];
        for k in lo..hi {
            let half = (k as f32 + 0.5) * scale;
            for ulps in -1i32..=1 {
                xs.push(f32::from_bits(half.to_bits().wrapping_add_signed(ulps)));
            }
        }
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            let unit = (xorshift(&mut seed) >> 40) as f32 / (1u64 << 24) as f32;
            xs.push((lo as f32 + unit * (hi - lo) as f32) * scale);
        }
        xs
    }

    /// The code of `v` as a per-element loop computes it: libm `round`,
    /// clamp, `as` cast, then the nearest allowed code.
    pub(crate) fn reference_code(
        v: f32,
        scale: f32,
        lo: i32,
        hi: i32,
        allowed: Option<&ValueSet>,
    ) -> i32 {
        let code = (v / scale).round().clamp(lo as f32, hi as f32) as i32;
        allowed.map_or(code, |set| set.project(code))
    }

    #[test]
    fn value_set_sorts_and_dedups() {
        let s = ValueSet::new([5, -3, 5, 0]);
        assert_eq!(s.codes(), &[-3, 0, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn projection_is_nearest_with_tie_to_smaller() {
        let s = ValueSet::new([-4, 0, 4]);
        assert_eq!(s.project(-4), -4);
        assert_eq!(s.project(1), 0);
        assert_eq!(s.project(2), 0); // tie: 0 and 4 both distance 2
        assert_eq!(s.project(3), 4);
        assert_eq!(s.project(100), 4);
        assert_eq!(s.project(-100), -4);
    }

    #[test]
    fn projection_is_idempotent() {
        let s = ValueSet::new([-7, -1, 3, 9]);
        for code in -20..20 {
            let p = s.project(code);
            assert_eq!(s.project(p), p);
            assert!(s.contains(p));
        }
    }

    #[test]
    fn full_code_sets_have_paper_cardinalities() {
        assert_eq!(ValueSet::all_weight_codes().len(), 255);
        assert_eq!(ValueSet::all_activation_codes().len(), 256);
    }

    #[test]
    fn weight_quantization_round_trips_within_half_step() {
        let w = Tensor::from_vec(&[5], vec![-1.0, -0.5, 0.0, 0.3, 1.0]);
        let q = WeightQuantizer::new().quantize(&w);
        for (orig, deq) in w.data().iter().zip(q.dequant.data()) {
            assert!((orig - deq).abs() <= q.scale * 0.5 + 1e-6);
        }
        assert_eq!(q.codes[2], 0);
        assert_eq!(q.codes[4], 127);
        assert_eq!(q.codes[0], -127);
    }

    #[test]
    fn restricted_weight_quantization_uses_only_allowed_codes() {
        let allowed = ValueSet::new([-64, -16, 0, 16, 64]);
        let quant = WeightQuantizer {
            allowed: Some(allowed.clone()),
        };
        let w = Tensor::from_vec(&[6], vec![-1.0, -0.2, -0.05, 0.1, 0.4, 1.0]);
        let q = quant.quantize(&w);
        for &code in &q.codes {
            assert!(allowed.contains(code as i32), "code {code} not allowed");
        }
    }

    #[test]
    fn act_quantization_clamps_to_range() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 3.0, 10.0]);
        let q = ActQuantizer::new(6.0).quantize(&x);
        assert_eq!(q.codes[0], 0);
        assert_eq!(q.codes[1], 0);
        assert_eq!(q.codes[3], 255);
        assert!((q.dequant.data()[2] - 3.0).abs() < q.scale);
    }

    #[test]
    fn restricted_act_quantization_projects() {
        let allowed = ValueSet::new([0, 100, 200]);
        let quant = ActQuantizer {
            range: 6.0,
            allowed: Some(allowed.clone()),
        };
        let x = Tensor::from_vec(&[3], vec![0.1, 2.5, 5.9]);
        let q = quant.quantize(&x);
        for &code in &q.codes {
            assert!(allowed.contains(code as i32));
        }
    }

    #[test]
    fn round_clamp_matches_libm_round() {
        let reference = |x: f32, lo: i32, hi: i32| x.round().clamp(lo as f32, hi as f32) as i32;
        let mut xs = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            1e9,
            -1e9,
        ];
        // Every integer and half-integer in and around both ranges, and
        // the four floats on either side of each.
        for twice in -600..=600 {
            let x = twice as f32 / 2.0;
            for ulps in -4i32..=4 {
                xs.push(f32::from_bits(x.to_bits().wrapping_add_signed(ulps)));
            }
        }
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            let x = xorshift(&mut seed);
            xs.push((x >> 40) as f32 / (1u64 << 24) as f32 * 600.0 - 300.0);
        }
        // Arbitrary bit patterns: every exponent, subnormals and NaN
        // payloads reach the unchecked conversion.
        for _ in 0..300_000 {
            xs.push(f32::from_bits((xorshift(&mut seed) >> 32) as u32));
        }
        for &x in &xs {
            for (lo, hi) in [(-127, 127), (0, 255)] {
                assert_eq!(round_clamp(x, lo, hi), reference(x, lo, hi), "x = {x:e}");
            }
        }
    }

    #[test]
    fn weight_quantizer_matches_a_per_element_reference_bit_for_bit() {
        // max|w| = 127 · 2⁻⁴ sets the scale to 2⁻⁴.
        let finite = edge_values(0.0625, -127, 127);
        // An infinite weight makes the scale infinite.
        let infinite = vec![f32::INFINITY, 1.0, f32::NEG_INFINITY, f32::NAN, -0.0];
        let restricted = ValueSet::new([-100, -31, -2, 0, 5, 64, 127]);
        for allowed in [None, Some(restricted)] {
            let quant = WeightQuantizer {
                allowed: allowed.clone(),
            };
            for w in [&finite, &infinite] {
                let max_abs = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = (max_abs / 127.0).max(1e-8);
                let q = quant.quantize(&Tensor::from_vec(&[w.len()], w.clone()));
                assert_eq!(q.scale.to_bits(), scale.to_bits());
                for (i, &v) in w.iter().enumerate() {
                    let code = reference_code(v, scale, -127, 127, allowed.as_ref());
                    assert_eq!(i32::from(q.codes[i]), code, "w = {v:e}");
                    let dequant = code as f32 * scale;
                    assert_eq!(
                        q.dequant.data()[i].to_bits(),
                        dequant.to_bits(),
                        "w = {v:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn act_quantizer_matches_a_per_element_reference_bit_for_bit() {
        // range = 255 · 2⁻⁵ sets the scale to 2⁻⁵; 6.0 to an inexact one.
        for range in [7.968_75f32, 6.0] {
            let scale = (range / 255.0).max(1e-8);
            let mut xs = edge_values(scale, 0, 255);
            xs.extend([
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.5 * scale,
                255.5 * scale,
                -1.0,
                range + 1.0,
                -1e30,
                1e30,
            ]);
            let x = Tensor::from_vec(&[xs.len()], xs.clone());
            let restricted = ValueSet::new([0, 3, 64, 128, 200, 255]);
            for allowed in [None, Some(restricted)] {
                let quant = ActQuantizer {
                    range,
                    allowed: allowed.clone(),
                };
                let q = quant.quantize(&x);
                assert_eq!(q.scale.to_bits(), scale.to_bits());
                for (i, &v) in xs.iter().enumerate() {
                    let code = reference_code(v, scale, 0, 255, allowed.as_ref());
                    assert_eq!(i32::from(q.codes[i]), code, "x = {v:e}");
                    let dequant = code as f32 * scale;
                    assert_eq!(
                        q.dequant.data()[i].to_bits(),
                        dequant.to_bits(),
                        "x = {v:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_and_retain() {
        let mut s = ValueSet::new(0..10);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        s.retain(|&c| c % 2 == 0);
        assert_eq!(s.codes(), &[0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "empty ValueSet")]
    fn projecting_on_empty_set_panics() {
        let s = ValueSet::new([]);
        let _ = s.project(0);
    }
}
