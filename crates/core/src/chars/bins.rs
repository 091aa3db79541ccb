//! Partial-sum transition-space reduction by bit-similarity binning.
//!
//! The 22-bit partial sum has ~1.8·10^13 possible transitions — far too
//! many to simulate or even to estimate a distribution from traces
//! (paper §III-A2). The paper's remedy, reproduced here: partition the
//! observed partial-sum values into a small number of bins (50 in the
//! experiments) such that values within a bin have similar bit
//! patterns, then model the transition distribution *between bins*.
//!
//! Binning follows the paper's procedure: a seed value is assigned to
//! each bin, then remaining values are iteratively assigned to the bin
//! with the smallest **average Hamming distance** to its current
//! members (tracked incrementally with per-bit population counters).
//!
//! The assignment records each observed value's home bin as it goes,
//! and the bin-transition counts are taken through that index: one
//! binary search over the distinct values per sample value. The public
//! lookup [`PsumBinning::bin_of`] scans the bins instead; for every
//! observed value both give the same bin. A value that was never
//! observed goes to the bin whose first (smallest) member is nearest to
//! it in Hamming distance, the lowest bin index on a tie: bin averages
//! play no part in the lookup.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A partition of partial-sum values into bit-similarity bins, plus the
/// observed bin-to-bin transition distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsumBinning {
    bits: usize,
    /// Members per bin (sorted).
    bins: Vec<Vec<i32>>,
    /// Bin transition counts: `counts[from * bins + to]`.
    counts: Vec<u64>,
    total: u64,
}

fn to_pattern(value: i32, bits: usize) -> u32 {
    (value as u32) & ((1u32 << bits) - 1)
}

impl PsumBinning {
    /// Builds a binning from sampled partial-sum transitions.
    ///
    /// `num_bins` is the target bin count (50 in the paper);
    /// `bits` is the accumulator width. Deterministic for a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `num_bins` is zero.
    #[must_use]
    pub fn from_samples(samples: &[(i32, i32)], num_bins: usize, bits: usize, seed: u64) -> Self {
        assert!(!samples.is_empty(), "need partial-sum samples to bin");
        assert!(num_bins > 0, "need at least one bin");
        let mut rng = StdRng::seed_from_u64(seed);

        // Distinct observed values. Dedup keeps the capacity of every
        // sample value; release it before the index arrays below are
        // allocated alongside.
        let mut values: Vec<i32> = samples.iter().flat_map(|&(a, b)| [a, b]).collect();
        values.sort_unstable();
        values.dedup();
        values.shrink_to_fit();
        let num_bins = num_bins.min(values.len());

        // Seed each bin with a random distinct value. The shuffle permutes
        // indices into `values` (it draws the same permutation for any
        // slice of that length), so each value's home bin is recorded by
        // index as it is assigned.
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.shuffle(&mut rng);
        let mut home = vec![0usize; values.len()];
        let mut bins: Vec<Vec<i32>> = order[..num_bins]
            .iter()
            .enumerate()
            .map(|(b, &i)| {
                home[i] = b;
                vec![values[i]]
            })
            .collect();

        // Per-bin, per-bit population counters for O(bits) average
        // Hamming distance queries.
        let mut ones: Vec<Vec<u64>> = bins
            .iter()
            .map(|b| {
                let mut o = vec![0u64; bits];
                let p = to_pattern(b[0], bits);
                for (bit, slot) in o.iter_mut().enumerate() {
                    *slot += u64::from((p >> bit) & 1);
                }
                o
            })
            .collect();
        let mut sizes: Vec<u64> = vec![1; num_bins];

        for &i in &order[num_bins..] {
            let v = values[i];
            let p = to_pattern(v, bits);
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (b, o) in ones.iter().enumerate() {
                let n = sizes[b] as f64;
                let mut cost = 0.0;
                for (bit, &count) in o.iter().enumerate() {
                    let is_one = (p >> bit) & 1 == 1;
                    cost += if is_one {
                        (sizes[b] - count) as f64
                    } else {
                        count as f64
                    };
                }
                cost /= n;
                if cost < best_cost {
                    best_cost = cost;
                    best = b;
                }
            }
            bins[best].push(v);
            home[i] = best;
            sizes[best] += 1;
            for (bit, slot) in ones[best].iter_mut().enumerate() {
                *slot += u64::from((p >> bit) & 1);
            }
        }
        for b in &mut bins {
            b.sort_unstable();
        }

        // Every sample value was observed, so its bin is its home bin,
        // the one `bin_of` finds by membership.
        let home_of = |v: i32| home[values.binary_search(&v).expect("observed value")];
        let mut counts = vec![0; num_bins * num_bins];
        for &(from, to) in samples {
            counts[home_of(from) * num_bins + home_of(to)] += 1;
        }
        PsumBinning {
            bits,
            bins,
            counts,
            total: samples.len() as u64,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Members of a bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn members(&self, bin: usize) -> &[i32] {
        &self.bins[bin]
    }

    /// The bin a value belongs to: its home bin if it was observed,
    /// otherwise the bin whose first (smallest) member differs from it in
    /// the fewest of the low `bits` bits, the lowest bin index on a tie.
    #[must_use]
    pub fn bin_of(&self, value: i32) -> usize {
        // Exact membership first.
        for (i, b) in self.bins.iter().enumerate() {
            if b.binary_search(&value).is_ok() {
                return i;
            }
        }
        // Fall back to nearest representative (first member) by Hamming
        // distance.
        let p = to_pattern(value, self.bits);
        let mut best = 0;
        let mut best_d = u32::MAX;
        for (i, b) in self.bins.iter().enumerate() {
            let d = (to_pattern(b[0], self.bits) ^ p).count_ones();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Probability of the bin transition `from → to`.
    #[must_use]
    pub fn transition_probability(&self, from: usize, to: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[from * self.num_bins() + to] as f64 / self.total as f64
    }

    /// The raw bin-transition count matrix (`counts[from * bins + to]`).
    #[must_use]
    pub fn transition_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Draws `count` concrete partial-sum transitions: a bin pair
    /// according to the bin-transition distribution, then uniform
    /// members within each bin.
    ///
    /// # Panics
    ///
    /// Panics if no transitions were recorded.
    #[must_use]
    pub fn sample_transitions(&self, count: usize, rng: &mut StdRng) -> Vec<(i32, i32)> {
        assert!(self.total > 0, "no bin transitions recorded");
        let nb = self.num_bins();
        let mut cumulative: Vec<(u64, usize)> = Vec::new();
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                acc += c;
                cumulative.push((acc, idx));
            }
        }
        (0..count)
            .map(|_| {
                let r = rng.random_range(0..acc);
                let pos = cumulative.partition_point(|&(cum, _)| cum <= r);
                let idx = cumulative[pos.min(cumulative.len() - 1)].1;
                let (bf, bt) = (idx / nb, idx % nb);
                let from = self.bins[bf][rng.random_range(0..self.bins[bf].len())];
                let to = self.bins[bt][rng.random_range(0..self.bins[bt].len())];
                (from, to)
            })
            .collect()
    }

    /// Serializes the binning bit-exactly for the charstore container.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use charstore::wire;
        wire::put_usize(out, self.bits);
        wire::put_usize(out, self.bins.len());
        for bin in &self.bins {
            wire::put_usize(out, bin.len());
            for &v in bin {
                wire::put_i32(out, v);
            }
        }
        wire::put_usize(out, self.counts.len());
        for &c in &self.counts {
            wire::put_u64(out, c);
        }
        wire::put_u64(out, self.total);
    }

    /// Deserializes a binning written by [`PsumBinning::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, an implausible bin/count length, a
    /// bit width of 32 or more, an empty bin, a count matrix that is not
    /// `bins × bins`, or a total that is zero or not the sum of the
    /// counts. Each of these would make [`PsumBinning::bin_of`] or
    /// [`PsumBinning::sample_transitions`] panic; [`from_samples`]
    /// never builds one. Also on a bin whose members are not strictly
    /// ascending, where `bin_of` could miss a member and answer the
    /// bin of the nearest first member instead of its own.
    ///
    /// [`from_samples`]: PsumBinning::from_samples
    pub fn read_from(r: &mut charstore::wire::Reader<'_>) -> std::io::Result<Self> {
        use charstore::wire;
        let bits = r.u64()? as usize;
        if bits >= 32 {
            return Err(wire::invalid(format!("implausible bit width {bits}")));
        }
        let num_bins = r.bounded_len(8)?;
        let mut bins = Vec::with_capacity(num_bins);
        for _ in 0..num_bins {
            let len = r.bounded_len(4)?;
            if len == 0 {
                return Err(wire::invalid("empty bin"));
            }
            let mut bin: Vec<i32> = Vec::with_capacity(len);
            for _ in 0..len {
                let member = r.i32()?;
                // `bin_of` binary-searches each bin for its members.
                if bin.last().is_some_and(|&last| last >= member) {
                    return Err(wire::invalid("bin members not strictly ascending"));
                }
                bin.push(member);
            }
            bins.push(bin);
        }
        let counts_len = r.bounded_len(8)?;
        if counts_len != num_bins * num_bins {
            return Err(wire::invalid(format!(
                "count matrix has {counts_len} entries for {num_bins} bins"
            )));
        }
        let mut counts = Vec::with_capacity(counts_len);
        for _ in 0..counts_len {
            counts.push(r.u64()?);
        }
        // Every recorded sample bumps one count and the total together,
        // and `from_samples` records at least one.
        let total = r.u64()?;
        let sum = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if total == 0 || sum != Some(total) {
            return Err(wire::invalid(format!(
                "bin transition total {total} is not a positive sum of the counts"
            )));
        }
        Ok(PsumBinning {
            bits,
            bins,
            counts,
            total,
        })
    }

    /// Checks the partition invariant: every observed value is in
    /// exactly one bin.
    #[must_use]
    pub fn is_partition(&self) -> bool {
        let mut all: Vec<i32> = self.bins.iter().flatten().copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        before == all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<(i32, i32)> {
        let mut x: u64 = 99;
        (0..2000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((x & 0x3fffff) as i64 - (1 << 21)) as i32;
                let b = (((x >> 22) & 0x3fffff) as i64 - (1 << 21)) as i32;
                (a, b)
            })
            .collect()
    }

    #[test]
    fn binning_is_a_partition() {
        let binning = PsumBinning::from_samples(&sample_data(), 50, 22, 1);
        assert!(binning.is_partition());
        assert_eq!(binning.num_bins(), 50);
    }

    #[test]
    fn every_observed_value_maps_to_its_bin() {
        let samples = sample_data();
        let binning = PsumBinning::from_samples(&samples, 20, 22, 2);
        for &(a, _) in samples.iter().take(100) {
            let bin = binning.bin_of(a);
            assert!(binning.members(bin).binary_search(&a).is_ok());
        }
    }

    #[test]
    fn unobserved_values_go_to_the_nearest_first_member() {
        // 4-bit values. Bin 0's members are nearer to 0b1111 on average
        // (2.33 differing bits, against 3 for bins 1 and 2), but only
        // first members count: they differ from 0b1111 in 4, 3 and 3
        // bits, and the tie goes to the lower index.
        let binning = PsumBinning {
            bits: 4,
            bins: vec![vec![0b0000, 0b0011, 0b0111], vec![0b0001], vec![0b1000]],
            counts: vec![1; 9],
            total: 9,
        };
        assert_eq!(binning.bin_of(0b1111), 1);
        // Only the low `bits` bits count: −1 has the same pattern.
        assert_eq!(binning.bin_of(-1), 1);
        // One bit from bin 2's first member, two from bin 0's.
        assert_eq!(binning.bin_of(0b1010), 2);
        // A member stays in its own bin, though bin 1's first member is
        // nearer to it than bin 0's.
        assert_eq!(binning.bin_of(0b0111), 0);
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let binning = PsumBinning::from_samples(&sample_data(), 10, 22, 3);
        let total: f64 = (0..10)
            .flat_map(|f| (0..10).map(move |t| (f, t)))
            .map(|(f, t)| binning.transition_probability(f, t))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_returns_observed_values() {
        let samples = sample_data();
        let binning = PsumBinning::from_samples(&samples, 10, 22, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let draws = binning.sample_transitions(50, &mut rng);
        assert_eq!(draws.len(), 50);
        let mut observed: Vec<i32> = samples.iter().flat_map(|&(a, b)| [a, b]).collect();
        observed.sort_unstable();
        for (a, b) in draws {
            assert!(observed.binary_search(&a).is_ok());
            assert!(observed.binary_search(&b).is_ok());
        }
    }

    #[test]
    fn binning_is_deterministic_per_seed() {
        let samples = sample_data();
        let a = PsumBinning::from_samples(&samples, 10, 22, 7);
        let b = PsumBinning::from_samples(&samples, 10, 22, 7);
        for i in 0..10 {
            assert_eq!(a.members(i), b.members(i));
        }
    }

    #[test]
    fn similar_values_tend_to_share_bins() {
        // Values with nearly identical bit patterns should mostly land
        // together: craft clusters around two very different patterns.
        let mut samples = Vec::new();
        for i in 0..200 {
            let base1 = 0b10_1010_1010_1010_1010_1010_i64 as i32;
            let base2 = 0b01_0101_0101_0101_0101_0101_i64 as i32;
            samples.push((base1 ^ (i & 3), base2 ^ ((i >> 2) & 3)));
        }
        let binning = PsumBinning::from_samples(&samples, 2, 22, 9);
        // The two clusters should dominate different bins.
        let b1 = binning.bin_of(samples[0].0);
        let b2 = binning.bin_of(samples[0].1);
        assert_ne!(b1, b2, "clusters should separate");
    }

    #[test]
    fn indexed_transition_counts_match_bin_of() {
        // The counts come from the home bins recorded during assignment;
        // `bin_of` finds the same bins by membership. Values repeat, and
        // values 2^bits apart share a bit pattern but not a bin entry.
        let bits = 10;
        let mut x: u64 = 7;
        let mut value = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            (r % 200) as i32 - 100 + ((r >> 8) % 3) as i32 * (1 << bits)
        };
        let samples: Vec<(i32, i32)> = (0..3000).map(|_| (value(), value())).collect();
        for num_bins in [1, 7, 50] {
            let binning = PsumBinning::from_samples(&samples, num_bins, bits, 11);
            let nb = binning.num_bins();
            let mut expected = vec![0u64; nb * nb];
            for &(from, to) in &samples {
                expected[binning.bin_of(from) * nb + binning.bin_of(to)] += 1;
            }
            assert_eq!(binning.transition_counts(), expected, "{num_bins} bins");
        }
    }

    /// The encoding of a 22-bit binning of two bins, `first` and `[2]`,
    /// with one recorded transition inside each.
    fn encoded_with_first_bin(first: &[i32]) -> Vec<u8> {
        use charstore::wire;
        let mut out = Vec::new();
        wire::put_usize(&mut out, 22);
        wire::put_usize(&mut out, 2);
        for bin in [first, &[2]] {
            wire::put_usize(&mut out, bin.len());
            for &v in bin {
                wire::put_i32(&mut out, v);
            }
        }
        wire::put_usize(&mut out, 4);
        for count in [1, 0, 0, 1] {
            wire::put_u64(&mut out, count);
        }
        wire::put_u64(&mut out, 2);
        out
    }

    #[test]
    fn decoder_rejects_bins_not_strictly_ascending() {
        let decode = |first: &[i32]| {
            let bytes = encoded_with_first_bin(first);
            PsumBinning::read_from(&mut charstore::wire::Reader::new(&bytes))
        };
        assert_eq!(decode(&[3, 5, 9]).expect("ascending bin").bin_of(3), 0);
        // Decoded as they stand, `bin_of` would binary-search [5, 9, 3]
        // past its member 3 and answer bin 1, whose first member is the
        // nearest bit pattern.
        for bad in [&[5, 9, 3][..], &[3, 5, 5]] {
            let err = decode(bad).expect_err("bin members not strictly ascending");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need partial-sum samples")]
    fn empty_samples_rejected() {
        let _ = PsumBinning::from_samples(&[], 10, 22, 0);
    }

    #[test]
    fn more_bins_than_values_is_clamped() {
        let samples = vec![(1, 2), (2, 3)];
        let binning = PsumBinning::from_samples(&samples, 50, 22, 0);
        assert!(binning.num_bins() <= 3);
        assert!(binning.is_partition());
    }
}
