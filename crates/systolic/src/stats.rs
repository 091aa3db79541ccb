//! Transition statistics collected from systolic execution.
//!
//! These are exactly the inputs of the paper's power characterization:
//! the 256×256 activation transition histogram (Fig. 4a) and a sample
//! of partial-sum transitions used to build the 50-bin transition
//! distribution (Fig. 4b).

use std::fmt;

/// Maximum number of partial-sum transition samples retained (reservoir
/// sampling keeps the sample unbiased).
const PSUM_RESERVOIR: usize = 400_000;

/// Activation and partial-sum transition statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionStats {
    /// 256×256 histogram: `act_hist[from * 256 + to]`.
    act_hist: Vec<u64>,
    act_total: u64,
    /// Reservoir of (from, to) partial-sum value transitions.
    psum_samples: Vec<(i32, i32)>,
    psum_seen: u64,
    macs: u64,
    /// Deterministic reservoir counter state.
    lcg: u64,
}

impl TransitionStats {
    /// An empty statistics collector.
    #[must_use]
    pub fn new() -> Self {
        TransitionStats {
            act_hist: vec![0u64; 256 * 256],
            act_total: 0,
            psum_samples: Vec::new(),
            psum_seen: 0,
            macs: 0,
            lcg: 0x9e3779b97f4a7c15,
        }
    }

    /// Records an activation transition observed by `weight` PEs.
    pub fn record_activation(&mut self, from: u8, to: u8, weight: u64) {
        self.act_hist[from as usize * 256 + to as usize] += weight;
        self.act_total += weight;
    }

    /// Records a partial-sum transition (values wrapped to `acc_bits`).
    pub fn record_psum(&mut self, from: i64, to: i64, acc_bits: usize) {
        let wrap = |v: i64| -> i32 {
            let m = 1i64 << acc_bits;
            let w = ((v % m) + m) % m;
            (if w >= m / 2 { w - m } else { w }) as i32
        };
        self.psum_seen += 1;
        let sample = (wrap(from), wrap(to));
        if self.psum_samples.len() < PSUM_RESERVOIR {
            self.psum_samples.push(sample);
        } else {
            // Deterministic reservoir sampling.
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = self.lcg % self.psum_seen;
            if (slot as usize) < PSUM_RESERVOIR {
                self.psum_samples[slot as usize] = sample;
            }
        }
    }

    /// Notes executed MAC operations (bookkeeping for reports).
    pub fn note_macs(&mut self, macs: u64) {
        self.macs += macs;
    }

    /// Total recorded activation transitions.
    #[must_use]
    pub fn total_activation_transitions(&self) -> u64 {
        self.act_total
    }

    /// Total MAC operations noted.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        self.macs
    }

    /// The raw 256×256 activation transition histogram
    /// (`hist[from * 256 + to]`).
    #[must_use]
    pub fn activation_histogram(&self) -> &[u64] {
        &self.act_hist
    }

    /// Probability of the activation transition `from → to`.
    #[must_use]
    pub fn activation_probability(&self, from: u8, to: u8) -> f64 {
        if self.act_total == 0 {
            return 0.0;
        }
        self.act_hist[from as usize * 256 + to as usize] as f64 / self.act_total as f64
    }

    /// The sampled partial-sum transitions.
    #[must_use]
    pub fn psum_samples(&self) -> &[(i32, i32)] {
        &self.psum_samples
    }

    /// Total partial-sum transitions observed (before reservoir capping).
    #[must_use]
    pub fn psum_transitions_seen(&self) -> u64 {
        self.psum_seen
    }

    /// Draws `count` activation transitions according to the histogram,
    /// using the provided RNG. Returns `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if no transitions have been recorded.
    #[must_use]
    pub fn sample_activation_transitions(
        &self,
        count: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<(u8, u8)> {
        use rand::Rng;
        assert!(self.act_total > 0, "no activation transitions recorded");
        // Build a cumulative table over non-zero entries.
        let mut entries: Vec<(u64, u32)> = Vec::new(); // (cumulative, packed from/to)
        let mut acc = 0u64;
        for (idx, &c) in self.act_hist.iter().enumerate() {
            if c > 0 {
                acc += c;
                entries.push((acc, idx as u32));
            }
        }
        (0..count)
            .map(|_| {
                let r = rng.random_range(0..acc);
                let pos = entries.partition_point(|&(cum, _)| cum <= r);
                let packed = entries[pos.min(entries.len() - 1)].1;
                ((packed / 256) as u8, (packed % 256) as u8)
            })
            .collect()
    }

    /// Serializes the complete collector state (histogram stored
    /// sparsely, reservoir, counters, *and* the reservoir RNG state) so
    /// a deserialized collector is bit-identical to the original — the
    /// charstore round-trip contract.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use charstore::wire;
        wire::put_u64(out, self.act_total);
        let nonzero = self.act_hist.iter().filter(|&&c| c > 0).count();
        wire::put_usize(out, nonzero);
        for (idx, &c) in self.act_hist.iter().enumerate() {
            if c > 0 {
                wire::put_u32(out, idx as u32);
                wire::put_u64(out, c);
            }
        }
        wire::put_usize(out, self.psum_samples.len());
        for &(from, to) in &self.psum_samples {
            wire::put_i32(out, from);
            wire::put_i32(out, to);
        }
        wire::put_u64(out, self.psum_seen);
        wire::put_u64(out, self.macs);
        wire::put_u64(out, self.lcg);
    }

    /// Deserializes a collector written by [`TransitionStats::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncated input, out-of-range histogram indices
    /// (bounds are validated before any allocation), or an activation
    /// total that is not the sum of the histogram, on which
    /// [`TransitionStats::sample_activation_transitions`] would panic.
    pub fn read_from(r: &mut charstore::wire::Reader<'_>) -> std::io::Result<Self> {
        use charstore::wire;
        let mut stats = TransitionStats::new();
        stats.act_total = r.u64()?;
        let nonzero = r.bounded_len(12)?;
        for _ in 0..nonzero {
            let idx = r.u32()? as usize;
            let count = r.u64()?;
            if idx >= stats.act_hist.len() {
                return Err(wire::invalid(format!("histogram index {idx} out of range")));
            }
            stats.act_hist[idx] = count;
        }
        // Every recorded transition bumps one bucket and the total
        // together.
        let sum = stats
            .act_hist
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c));
        if sum != Some(stats.act_total) {
            return Err(wire::invalid(format!(
                "activation total {} is not the sum of the histogram",
                stats.act_total
            )));
        }
        let samples = r.bounded_len(8)?;
        if samples > PSUM_RESERVOIR {
            return Err(wire::invalid(format!(
                "psum sample count {samples} exceeds reservoir cap {PSUM_RESERVOIR}"
            )));
        }
        // The reservoir dominates the artifact (megabytes at full
        // cap); one bounds check for the whole block keeps warm-start
        // decode fast.
        let block = r.take(samples * 8)?;
        stats.psum_samples = block
            .chunks_exact(8)
            .map(|c| {
                (
                    i32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                    i32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
                )
            })
            .collect();
        stats.psum_seen = r.u64()?;
        stats.macs = r.u64()?;
        stats.lcg = r.u64()?;
        Ok(stats)
    }

    /// Merges another collector into this one (psum samples are
    /// concatenated up to the reservoir cap).
    pub fn merge(&mut self, other: &TransitionStats) {
        for (a, b) in self.act_hist.iter_mut().zip(&other.act_hist) {
            *a += b;
        }
        self.act_total += other.act_total;
        self.psum_seen += other.psum_seen;
        self.macs += other.macs;
        for &s in &other.psum_samples {
            if self.psum_samples.len() < PSUM_RESERVOIR {
                self.psum_samples.push(s);
            }
        }
    }
}

impl Default for TransitionStats {
    fn default() -> Self {
        TransitionStats::new()
    }
}

impl fmt::Display for TransitionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransitionStats: {} activation transitions, {} psum transitions ({} sampled), {} MACs",
            self.act_total,
            self.psum_seen,
            self.psum_samples.len(),
            self.macs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn histogram_accumulates() {
        let mut s = TransitionStats::new();
        s.record_activation(3, 5, 2);
        s.record_activation(3, 5, 1);
        assert_eq!(s.activation_histogram()[3 * 256 + 5], 3);
        assert_eq!(s.total_activation_transitions(), 3);
        assert!((s.activation_probability(3, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn psum_wrapping_is_twos_complement() {
        let mut s = TransitionStats::new();
        s.record_psum((1 << 21) + 5, -(1 << 21) - 5, 22);
        let (from, to) = s.psum_samples()[0];
        // (1<<21)+5 wraps to -(1<<21)+5 in 22-bit two's complement.
        assert_eq!(from, -(1 << 21) + 5);
        assert_eq!(to, (1 << 21) - 5);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut s = TransitionStats::new();
        s.record_activation(10, 20, 90);
        s.record_activation(30, 40, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let draws = s.sample_activation_transitions(1000, &mut rng);
        let majority = draws.iter().filter(|&&(f, t)| (f, t) == (10, 20)).count();
        assert!(
            (820..=980).contains(&majority),
            "expected ~900 majority draws, got {majority}"
        );
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = TransitionStats::new();
        a.record_activation(1, 2, 5);
        let mut b = TransitionStats::new();
        b.record_activation(1, 2, 7);
        b.record_psum(10, 20, 22);
        a.merge(&b);
        assert_eq!(a.total_activation_transitions(), 12);
        assert_eq!(a.psum_samples().len(), 1);
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let mut s = TransitionStats::new();
        for i in 0..40u8 {
            s.record_activation(i, i.wrapping_add(7), u64::from(i) + 1);
        }
        for i in 0..600 {
            s.record_psum(i * 131 - 4000, i * 77 + 13, 22);
        }
        s.note_macs(123_456);
        let mut buf = Vec::new();
        s.write_to(&mut buf);
        let mut r = charstore::wire::Reader::new(&buf);
        let back = TransitionStats::read_from(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, s);
        // The RNG state round-trips too: both keep sampling identically.
        let mut a = s.clone();
        let mut b = back;
        for i in 0..100 {
            a.record_psum(i, -i, 22);
            b.record_psum(i, -i, 22);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn codec_rejects_hostile_input() {
        use std::io::ErrorKind;
        let mut s = TransitionStats::new();
        s.record_activation(1, 2, 3);
        let mut buf = Vec::new();
        s.write_to(&mut buf);
        // Truncation.
        let mut r = charstore::wire::Reader::new(&buf[..buf.len() / 2]);
        assert_eq!(
            TransitionStats::read_from(&mut r).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
        // Hostile histogram count (claims more entries than bytes).
        let mut hostile = Vec::new();
        charstore::wire::put_u64(&mut hostile, 0);
        charstore::wire::put_u64(&mut hostile, u64::MAX);
        let mut r = charstore::wire::Reader::new(&hostile);
        assert_eq!(
            TransitionStats::read_from(&mut r).unwrap_err().kind(),
            ErrorKind::InvalidData
        );
    }

    #[test]
    #[should_panic(expected = "no activation transitions")]
    fn sampling_from_empty_panics() {
        let s = TransitionStats::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = s.sample_activation_transitions(1, &mut rng);
    }
}
