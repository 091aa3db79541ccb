//! Workspace-level property-based tests (proptest) on the invariants
//! the PowerPruning flow relies on.

use gatesim::circuits::{AdderCircuit, AdderKind, MacCircuit, MultiplierCircuit};
use gatesim::{CellLibrary, Simulator, Sta};
use nn::quant::{ActQuantizer, ValueSet, WeightQuantizer};
use nn::Tensor;
use proptest::prelude::*;
use std::sync::OnceLock;

proptest! {
    /// The Baugh-Wooley multiplier netlist implements integer
    /// multiplication for every (weight, activation) pair.
    #[test]
    fn multiplier_matches_integer_semantics(w in -128i64..=127, a in 0u64..=255) {
        let mult = MultiplierCircuit::new(8, 8);
        prop_assert_eq!(mult.compute(w, a), w * a as i64);
    }

    /// The MAC netlist implements psum + w·a in 22-bit wrap-around
    /// arithmetic for in-range operands.
    #[test]
    fn mac_matches_integer_semantics(
        w in -127i64..=127,
        a in 0u64..=255,
        p in -1_000_000i64..=1_000_000,
    ) {
        let mac = MacCircuit::new(8, 8, 22);
        let expected = {
            let raw = p + w * a as i64;
            let m = 1i64 << 22;
            let wrapped = ((raw % m) + m) % m;
            if wrapped >= m / 2 { wrapped - m } else { wrapped }
        };
        prop_assert_eq!(mac.compute(w, a, p), expected);
    }

    /// Both adder architectures agree with each other and with integer
    /// addition.
    #[test]
    fn adders_agree(a in 0u64..(1 << 22), b in 0u64..(1 << 22)) {
        let ripple = AdderCircuit::new(AdderKind::Ripple, 22);
        let cla = AdderCircuit::new(AdderKind::Cla4, 22);
        let mask = (1u64 << 22) - 1;
        prop_assert_eq!(ripple.compute(a, b), (a + b) & mask);
        prop_assert_eq!(cla.compute(a, b), (a + b) & mask);
    }

    /// Event-driven settle time never exceeds the STA bound.
    #[test]
    fn dynamic_delay_below_sta(
        w1 in -8i64..=7, a1 in 0u64..=15, p1 in -64i64..=63,
        w2 in -8i64..=7, a2 in 0u64..=15, p2 in -64i64..=63,
    ) {
        let mac = MacCircuit::new(4, 4, 10);
        let lib = CellLibrary::nangate15_like();
        let bound = Sta::new(mac.netlist(), &lib).critical_path_ps();
        let mut sim = Simulator::new(mac.netlist(), &lib);
        let stats = sim.measure(&mac.encode(w1, a1, p1), &mac.encode(w2, a2, p2));
        prop_assert!(stats.delay_ps <= bound + 1e-6);
    }

    /// Identical input vectors produce zero energy and zero delay.
    #[test]
    fn no_transition_no_energy(w in -8i64..=7, a in 0u64..=15, p in -64i64..=63) {
        let mac = MacCircuit::new(4, 4, 10);
        let lib = CellLibrary::nangate15_like();
        let mut sim = Simulator::new(mac.netlist(), &lib);
        let v = mac.encode(w, a, p);
        let stats = sim.measure(&v, &v);
        prop_assert_eq!(stats.energy_fj, 0.0);
        prop_assert_eq!(stats.toggles, 0);
    }

    /// ValueSet projection is idempotent and lands inside the set.
    #[test]
    fn projection_idempotent(codes in prop::collection::btree_set(-127i32..=127, 1..40), probe in -127i32..=127) {
        let set = ValueSet::new(codes);
        let p = set.project(probe);
        prop_assert!(set.contains(p));
        prop_assert_eq!(set.project(p), p);
        // Projection is the nearest member.
        for &c in set.codes() {
            prop_assert!((probe - p).abs() <= (probe - c).abs());
        }
    }

    /// Weight quantization with a restricted set only produces allowed
    /// codes, and dequantized values stay within the tensor's range.
    #[test]
    fn restricted_quantization_stays_in_set(
        values in prop::collection::vec(-2.0f32..2.0, 1..64),
        codes in prop::collection::btree_set(-127i32..=127, 1..16),
    ) {
        let allowed = ValueSet::new(codes);
        let quant = WeightQuantizer { allowed: Some(allowed.clone()) };
        let t = Tensor::from_vec(&[values.len()], values);
        let q = quant.quantize(&t);
        for &c in &q.codes {
            prop_assert!(allowed.contains(c as i32));
        }
    }

    /// Activation quantization always produces codes in 0..=255 and
    /// respects the clipping range.
    #[test]
    fn act_quantization_is_bounded(values in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let quant = ActQuantizer::new(6.0);
        let t = Tensor::from_vec(&[values.len()], values);
        let q = quant.quantize(&t);
        for &v in q.dequant.data() {
            prop_assert!((0.0..=6.0 + 1e-4).contains(&v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Systolic energy accounting is monotone in the energy model:
    /// scaling every per-weight energy up scales the dynamic energy up.
    #[test]
    fn systolic_energy_is_monotone_in_model(factor in 1.1f64..4.0) {
        use nn::layers::GemmCapture;
        use systolic::{ArrayConfig, HwVariant, MacEnergyModel, SystolicArray};
        let gemm = GemmCapture {
            layer: "p".into(),
            weight_codes: (0..64).map(|i| (i % 17) as i8 - 8).collect(),
            act_codes: (0..8 * 16).map(|i| (i % 251) as u8).collect(),
            m: 8,
            k: 8,
            n: 16,
        };
        let array = SystolicArray::new(ArrayConfig::small(4, 4));
        let base = MacEnergyModel::analytic_default();
        let scaled = base.scaled(factor, 1.0);
        let e1 = array.run_gemm_energy(&gemm, &base, HwVariant::Standard).dynamic_fj;
        let e2 = array.run_gemm_energy(&gemm, &scaled, HwVariant::Standard).dynamic_fj;
        prop_assert!(e2 > e1 * (factor - 0.01));
    }

    /// Delay selection output always satisfies the threshold invariant.
    #[test]
    fn delay_selection_respects_threshold(seed in 0u64..1000) {
        use powerpruning::chars::{WeightTiming, WeightTimingProfile};
        use powerpruning::select::delay::{select_by_delay, DelaySelectionConfig};

        // Random small profile.
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let per_weight: Vec<WeightTiming> = (-4i32..=4)
            .map(|code| {
                let slow: Vec<(u8, u8, f32)> = (0..(next() % 6))
                    .map(|_| {
                        (
                            (next() % 16) as u8,
                            (next() % 16) as u8,
                            90.0 + (next() % 30) as f32,
                        )
                    })
                    .collect();
                WeightTiming {
                    code,
                    max_delay_ps: slow.iter().map(|s| f64::from(s.2)).fold(80.0, f64::max),
                    histogram: vec![0; 8],
                    slow,
                }
            })
            .collect();
        let profile = WeightTimingProfile {
            per_weight,
            psum_floor_ps: 50.0,
            adder_from_product_ps: vec![5.0; 4],
            slow_floor_ps: 85.0,
        };
        let cfg = DelaySelectionConfig {
            threshold_ps: 100.0,
            restarts: 5,
            seed,
            protected_weights: vec![0],
            activation_bias: 4,
        };
        let candidates: Vec<i32> = (-4..=4).collect();
        let sel = select_by_delay(&profile, &candidates, 16, &cfg);
        // Every surviving slow combination is within the threshold.
        for &w in &sel.weights {
            let idx = profile.per_weight.binary_search_by_key(&w, |t| t.code).unwrap();
            for &(f, t, d) in &profile.per_weight[idx].slow {
                let alive = sel.activations.contains(&(f as i32))
                    && sel.activations.contains(&(t as i32));
                prop_assert!(!alive || f64::from(d) <= 100.0);
            }
        }
        prop_assert!(sel.weights.contains(&0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `magnitude_prune` zeroes exactly `⌊len·sparsity⌋` weights per
    /// tensor on tie-free magnitudes; ties at the cut threshold are all
    /// pruned, so the count can only exceed the floor by the tie
    /// multiplicity at the threshold.
    #[test]
    fn magnitude_prune_prunes_floor_of_len_times_sparsity(
        seed in 0u64..1024,
        sparsity in 0.0f64..1.0,
    ) {
        use powerpruning::retrain::magnitude_prune;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = nn::models::tiny_cnn("prop-prune", 1, 8, 3, &mut rng);
        // Collect each decayed tensor's magnitudes before pruning, in
        // visit order (matching the returned masks).
        let mut mags_per_tensor: Vec<Option<Vec<f32>>> = Vec::new();
        net.visit_params(&mut |p| {
            mags_per_tensor.push(if p.decay {
                Some(p.value.data().iter().map(|v| v.abs()).collect())
            } else {
                None
            });
        });
        let masks = magnitude_prune(&mut net, sparsity);
        prop_assert_eq!(masks.len(), mags_per_tensor.len());
        for (mask, mags) in masks.iter().zip(&mags_per_tensor) {
            let Some(mags) = mags else {
                prop_assert!(mask.is_empty(), "non-weight params get empty masks");
                continue;
            };
            let pruned = mask.iter().filter(|&&m| m).count();
            let floor = (mags.len() as f64 * sparsity) as usize;
            if floor == 0 {
                prop_assert_eq!(pruned, 0, "sparsity below one weight must prune nothing");
                continue;
            }
            let mut sorted = mags.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let threshold = sorted[floor - 1];
            let ties = mags.iter().filter(|&&m| m == threshold).count();
            let ties_below_cut = sorted[..floor].iter().filter(|&&m| m == threshold).count();
            prop_assert!(
                pruned >= floor && pruned <= floor + (ties - ties_below_cut),
                "pruned {} outside [{}, {} + ties] for len {} sparsity {}",
                pruned, floor, floor, mags.len(), sparsity
            );
        }
    }

    /// `sparsity = 0.0` is a provable no-op: every weight keeps its
    /// exact bit pattern and every mask is all-false.
    #[test]
    fn magnitude_prune_zero_sparsity_is_identity(seed in 0u64..1024) {
        use powerpruning::retrain::magnitude_prune;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = nn::models::tiny_cnn("prop-noop", 1, 8, 3, &mut rng);
        let before = nn::serialize::save_state(&mut net);
        let masks = magnitude_prune(&mut net, 0.0);
        let after = nn::serialize::save_state(&mut net);
        prop_assert_eq!(before, after, "sparsity 0.0 changed the network");
        prop_assert!(masks.iter().all(|m| m.iter().all(|&b| !b)));
    }
}

/// Valid encodings of a `tiny_cnn` state and of the capture trace of
/// its forward pass: the seeds the truncation and byte-flip property
/// below mutates.
fn nn_encodings() -> &'static (Vec<u8>, Vec<u8>) {
    static ENCODINGS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut net = nn::models::tiny_cnn("prop-state", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let state = nn::serialize::save_state(&mut net);
        let (_, captures) = net.forward_capture(&Tensor::full(&[1, 1, 8, 8], 0.3));
        assert!(!captures.is_empty());
        let mut trace = Vec::new();
        nn::serialize::write_captures(&captures, &mut trace);
        (state, trace)
    })
}

/// Feeds `bytes` to both nn decoders, loading states into a `tiny_cnn`
/// of the encoded structure. Neither may panic or fail with anything
/// but `InvalidData`. A failed `load_state` leaves the network's
/// `save_state` bytes unchanged, and a successful one makes them equal
/// the input. A capture trace that decodes re-encodes to exactly the
/// bytes it consumed.
fn assert_nn_decoders_hold(bytes: &[u8]) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let save = nn::serialize::save_state;
    let mut target = nn::models::tiny_cnn("prop-state", 1, 8, 3, &mut StdRng::seed_from_u64(99));
    let before = save(&mut target);
    match nn::serialize::load_state(&mut target, bytes) {
        Ok(()) => assert_eq!(save(&mut target), bytes),
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert_eq!(
                save(&mut target),
                before,
                "a failed load changed the network"
            );
        }
    }
    let mut r = charstore::wire::Reader::new(bytes);
    match nn::serialize::read_captures(&mut r) {
        Ok(captures) => {
            let mut again = Vec::new();
            nn::serialize::write_captures(&captures, &mut again);
            assert_eq!(again, &bytes[..bytes.len() - r.remaining()]);
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: raw, behind a small count (the capture count),
    /// and behind the state magic plus a small tensor count, so both
    /// decoders get past their headers into the entries.
    #[test]
    fn nn_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        count in 0u64..6,
    ) {
        assert_nn_decoders_hold(&bytes);
        let mut counted = count.to_le_bytes().to_vec();
        counted.extend_from_slice(&bytes);
        assert_nn_decoders_hold(&counted);
        let mut state = b"PPNNSTA1".to_vec();
        state.extend_from_slice(&counted);
        assert_nn_decoders_hold(&state);
    }

    /// Every strict prefix of a valid state file or capture trace fails
    /// cleanly; a single flipped byte, or one byte appended, either
    /// fails cleanly or decodes to a value that re-encodes to the bytes
    /// consumed.
    #[test]
    fn nn_decoders_survive_truncation_and_flips(
        cut in 0usize..100_000,
        flip_pos in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (state, trace) = nn_encodings();
        let mut net = nn::models::tiny_cnn("prop-state", 1, 8, 3, &mut StdRng::seed_from_u64(99));
        prop_assert!(nn::serialize::load_state(&mut net, &state[..cut % state.len()]).is_err());
        let mut r = charstore::wire::Reader::new(&trace[..cut % trace.len()]);
        prop_assert!(nn::serialize::read_captures(&mut r).is_err());
        for encoding in [state, trace] {
            assert_nn_decoders_hold(&encoding[..cut % encoding.len()]);
            let mut flipped = encoding.clone();
            flipped[flip_pos % encoding.len()] ^= flip;
            assert_nn_decoders_hold(&flipped);
            let mut extended = encoding.clone();
            extended.push(flip);
            assert_nn_decoders_hold(&extended);
        }
    }
}

/// Valid encodings of a Mini-shaped partial-sum binning (50 bins over
/// 22-bit values) and of activation statistics spread over all 256
/// levels: the seeds the truncation and byte-flip property below
/// mutates.
fn psum_encodings() -> &'static (Vec<u8>, Vec<u8>) {
    static ENCODINGS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        use powerpruning::chars::PsumBinning;
        use systolic::TransitionStats;
        let mut x: u64 = 5;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 16
        };
        let mut stats = TransitionStats::new();
        let mut psums = Vec::new();
        for _ in 0..1000 {
            let r = next();
            stats.record_activation(r as u8, (r >> 8) as u8, (r >> 16) % 4 + 1);
            let psum = |v: u64| (v & 0x3f_ffff) as i32 - (1 << 21);
            psums.push((psum(r >> 20), psum(next())));
        }
        for &(from, to) in &psums[..200] {
            stats.record_psum(i64::from(from), i64::from(to), 22);
        }
        let binning = PsumBinning::from_samples(&psums, 50, 22, 1);
        assert_eq!(binning.num_bins(), 50);
        let (mut b, mut s) = (Vec::new(), Vec::new());
        binning.write_to(&mut b);
        stats.write_to(&mut s);
        (b, s)
    })
}

/// Feeds `bytes` to the binning and statistics decoders. Neither may
/// panic or fail with anything but `InvalidData`. A decoded binning
/// re-encodes to exactly the bytes it consumed; `bin_of` finds every
/// member in a bin that holds it, `transition_probability` and
/// `sample_transitions` run on it, and its probabilities sum to one.
/// Decoded statistics survive a round trip, and
/// `sample_activation_transitions` runs on them whenever they
/// record a transition, drawing only transitions they recorded.
fn assert_psum_decoders_hold(bytes: &[u8]) {
    use charstore::wire::Reader;
    use powerpruning::chars::PsumBinning;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use systolic::TransitionStats;
    let mut rng = StdRng::seed_from_u64(3);
    let mut r = Reader::new(bytes);
    match PsumBinning::read_from(&mut r) {
        Ok(binning) => {
            let mut again = Vec::new();
            binning.write_to(&mut again);
            assert_eq!(again, &bytes[..bytes.len() - r.remaining()]);
            let nb = binning.num_bins();
            for probe in [0, -1, 1 << 21, i32::MIN, i32::MAX] {
                assert!(binning.bin_of(probe) < nb);
            }
            for bin in 0..nb {
                for &member in binning.members(bin) {
                    let found = binning.bin_of(member);
                    assert!(
                        binning.members(found).contains(&member),
                        "bin_of({member}) answered bin {found}, which does not hold it"
                    );
                }
            }
            let mut probability = 0.0;
            for from in 0..nb {
                for to in 0..nb {
                    probability += binning.transition_probability(from, to);
                }
            }
            assert!(
                (probability - 1.0).abs() < 1e-9,
                "probabilities sum to {probability}"
            );
            assert_eq!(binning.sample_transitions(16, &mut rng).len(), 16);
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
    match TransitionStats::read_from(&mut Reader::new(bytes)) {
        Ok(stats) => {
            let mut again = Vec::new();
            stats.write_to(&mut again);
            let back = TransitionStats::read_from(&mut Reader::new(&again)).expect("re-decode");
            assert_eq!(back, stats);
            if stats.total_activation_transitions() > 0 {
                for (from, to) in stats.sample_activation_transitions(16, &mut rng) {
                    assert!(stats.activation_probability(from, to) > 0.0);
                }
            }
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and arbitrary field values laid out as each
    /// encoding lays them out: bit widths past 31, empty bins, totals
    /// that are not the sum of their counts and histogram indices out
    /// of range must all fail cleanly.
    #[test]
    fn psum_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        bits in 24u64..40,
        bins in prop::collection::vec(prop::collection::vec(-600i32..600, 0..4), 0..4),
        counts in prop::collection::vec(0u64..3, 9..10),
        total_offset in 0u64..3,
        act_offset in 0u64..3,
        hist_idx in prop::collection::vec(0u32..70_000, 0..4),
        hist_counts in prop::collection::vec(0u64..3, 4..5),
    ) {
        use charstore::wire;
        assert_psum_decoders_hold(&bytes);

        let counts = &counts[..bins.len() * bins.len()];
        let mut binning = Vec::new();
        wire::put_u64(&mut binning, bits);
        wire::put_usize(&mut binning, bins.len());
        for bin in &bins {
            wire::put_usize(&mut binning, bin.len());
            for &v in bin {
                wire::put_i32(&mut binning, v);
            }
        }
        wire::put_usize(&mut binning, counts.len());
        for &c in counts {
            wire::put_u64(&mut binning, c);
        }
        wire::put_u64(&mut binning, counts.iter().sum::<u64>() + total_offset);
        assert_psum_decoders_hold(&binning);

        let hist: Vec<(u32, u64)> = hist_idx.into_iter().zip(hist_counts).collect();
        let mut stats = Vec::new();
        let sum: u64 = hist.iter().map(|&(_, c)| c).sum();
        wire::put_u64(&mut stats, sum + act_offset);
        wire::put_usize(&mut stats, hist.len());
        for &(idx, c) in &hist {
            wire::put_u32(&mut stats, idx);
            wire::put_u64(&mut stats, c);
        }
        wire::put_usize(&mut stats, 0);
        for word in [1, 2, 3] {
            wire::put_u64(&mut stats, word);
        }
        assert_psum_decoders_hold(&stats);
    }

    /// Every strict prefix of a valid binning or statistics encoding
    /// fails cleanly; a single flipped byte, or one byte appended,
    /// either fails cleanly or decodes to a value its methods accept.
    #[test]
    fn psum_decoders_survive_truncation_and_flips(
        cut in 0usize..100_000,
        flip_pos in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        use charstore::wire::Reader;
        use powerpruning::chars::PsumBinning;
        use systolic::TransitionStats;
        let (binning, stats) = psum_encodings();
        prop_assert!(PsumBinning::read_from(&mut Reader::new(&binning[..cut % binning.len()])).is_err());
        prop_assert!(TransitionStats::read_from(&mut Reader::new(&stats[..cut % stats.len()])).is_err());
        for encoding in [binning, stats] {
            assert_psum_decoders_hold(&encoding[..cut % encoding.len()]);
            let mut flipped = encoding.clone();
            flipped[flip_pos % encoding.len()] ^= flip;
            assert_psum_decoders_hold(&flipped);
            let mut extended = encoding.clone();
            extended.push(flip);
            assert_psum_decoders_hold(&extended);
        }
    }
}

/// Runs one `wire::Reader` call on `r`, chosen by `call % 10`, with
/// `call / 10` as the `take` length or (mod 17) the `bounded_len`
/// element size. Every failure must be `InvalidData` and `remaining()`
/// must not grow. A fixed-width read that succeeds consumes exactly its
/// width, and a `bounded_len(e)` that succeeds claims at most
/// `remaining() / e` elements.
fn assert_reader_call_holds(r: &mut charstore::wire::Reader<'_>, call: u32) {
    let arg = (call / 10) as usize;
    let before = r.remaining();
    let (result, width) = match call % 10 {
        0 => (r.u8().map(drop), Some(1)),
        1 => (r.u32().map(drop), Some(4)),
        2 => (r.u64().map(drop), Some(8)),
        3 => (r.i32().map(drop), Some(4)),
        4 => (r.f32().map(drop), Some(4)),
        5 => (r.f64().map(drop), Some(8)),
        6 => (r.take(arg).map(drop), Some(arg)),
        7 => {
            let elem = arg % 17;
            let result = r.bounded_len(elem).map(|count| {
                assert!(
                    elem > 0 && count <= r.remaining() / elem,
                    "bounded_len({elem}) claimed {count} with {} bytes left",
                    r.remaining()
                );
            });
            (result, Some(8))
        }
        8 => (r.str().map(drop), None),
        _ => (r.finish(), Some(0)),
    };
    assert!(r.remaining() <= before, "remaining grew from {before}");
    match result {
        Ok(()) => {
            if let Some(width) = width {
                assert_eq!(before - r.remaining(), width, "call {call}");
            }
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `wire::Reader` on its own, under arbitrary bytes and an arbitrary
    /// sequence of calls: no call panics, every failure is
    /// `InvalidData`, `remaining()` never grows, and a `bounded_len(e)`
    /// that succeeds claims at most `remaining() / e` elements. The calls
    /// run on the bytes as drawn and again with every byte of 16 or more
    /// zeroed, so that counts are often small enough for `bounded_len`
    /// and `str` to succeed.
    #[test]
    fn wire_reader_survives_arbitrary_bytes_and_calls(
        bytes in prop::collection::vec(0u8..=255, 0..200),
        calls in prop::collection::vec(0u32..400, 0..48),
    ) {
        let sparse: Vec<u8> = bytes.iter().map(|&b| if b < 16 { b } else { 0 }).collect();
        for input in [&bytes, &sparse] {
            let mut r = charstore::wire::Reader::new(input);
            for &call in &calls {
                assert_reader_call_holds(&mut r, call);
            }
        }
    }
}
