//! Integration and property tests of the characterization artifact
//! store: warm-start behaviour of the pipeline, key stability of the
//! structural digests, bit-identical round-trips and corruption
//! detection.

use charstore::{Digest128, Section, Store};
use gatesim::circuits::{BoothMultiplierCircuit, MacCircuit, MultiplierCircuit, MultiplierKind};
use gatesim::CellLibrary;
use powerpruning::chars::{
    characterize_power, characterize_timing, MacHardware, PowerConfig, PsumBinning, TimingConfig,
    WeightPowerProfile, WeightTiming, WeightTimingProfile,
};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use systolic::stats::TransitionStats;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A unique scratch store directory; callers remove it when done.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "powerpruning-charstore-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn micro_cfg() -> PipelineConfig {
    PipelineConfig::for_scale(Scale::Micro)
}

/// Every `.ppc` object file under `objects/`, in either layout (flat
/// files or 2-hex shard subdirectories).
fn find_objects(objects: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(objects).expect("objects dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            for sub in std::fs::read_dir(&path).expect("shard dir") {
                let sub = sub.expect("entry").path();
                if sub.extension().and_then(|e| e.to_str()) == Some("ppc") {
                    out.push(sub);
                }
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("ppc") {
            out.push(path);
        }
    }
    out
}

/// The acceptance-criterion test: a second Micro-scale pipeline run
/// against a warmed store answers **all four** cacheable stages —
/// baseline training, GEMM capture, power characterization, timing —
/// from the cache, observable as hits with no misses, and returns
/// bit-identical artifacts. (The zero-epoch / zero-transition counter
/// assertions live in `tests/warm_pipeline.rs`, which needs a process
/// to itself because the counters are global.)
#[test]
fn second_pipeline_run_is_served_entirely_from_the_store() {
    let dir = scratch_dir("warm");

    // Cold run: populates the store, missing all four artifacts.
    let cold = Pipeline::with_cache_dir(micro_cfg(), &dir);
    let mut prepared = cold.prepare(NetworkKind::LeNet5);
    let captures = cold.capture(&mut prepared);
    let cold_chars = cold.characterize(&captures);
    let cold_timing = cold.characterize_timing(f64::MAX);
    let c = cold.cache().expect("cache enabled").counters();
    assert_eq!(c.hits, 0, "cold run cannot hit an empty store");
    assert_eq!(c.misses, 4, "cold run must miss all four artifacts");

    // Warm run: a *fresh* pipeline (fresh in-memory tier) sharing the
    // store directory. Same config -> same keys at every stage.
    let warm = Pipeline::with_cache_dir(micro_cfg(), &dir);
    let mut warm_prepared = warm.prepare(NetworkKind::LeNet5);
    let warm_captures = warm.capture(&mut warm_prepared);
    let warm_chars = warm.characterize(&warm_captures);
    let warm_timing = warm.characterize_timing(f64::MAX);
    let w = warm.cache().expect("cache enabled").counters();
    assert_eq!(
        w.misses, 0,
        "warm run performed training or gate-level work despite a warmed store"
    );
    assert_eq!(
        w.hits, 4,
        "warm run must answer all four stages from the store"
    );

    // Served artifacts are bit-identical to the computed ones.
    assert_eq!(
        warm_prepared.accuracy.to_bits(),
        prepared.accuracy.to_bits(),
        "baseline accuracy diverged"
    );
    assert_eq!(warm_captures, captures);
    assert_eq!(warm_chars.stats, cold_chars.stats);
    assert_eq!(warm_chars.binning, cold_chars.binning);
    assert_eq!(warm_chars.power_profile, cold_chars.power_profile);
    assert_eq!(warm_chars.energy_model, cold_chars.energy_model);
    assert_eq!(warm_timing, cold_timing);

    let _ = std::fs::remove_dir_all(dir);
}

/// The cached trained network must be *behaviourally* identical to the
/// freshly trained one, not just key-compatible: a forward pass over
/// the test head produces bit-identical captures through a fresh
/// (uncached) capture stage.
#[test]
fn cached_training_artifact_replays_to_identical_captures() {
    let dir = scratch_dir("train-replay");

    let cold = Pipeline::with_cache_dir(micro_cfg(), &dir);
    let mut trained = cold.prepare(NetworkKind::LeNet5);

    // Serve training from the store, then capture through an *uncached*
    // pipeline so the forward pass really runs on the restored network.
    let warm = Pipeline::with_cache_dir(micro_cfg(), &dir);
    let mut restored = warm.prepare(NetworkKind::LeNet5);
    assert_eq!(warm.cache().expect("cache").counters().hits, 1);

    let mut uncached_cfg = micro_cfg();
    uncached_cfg.cache = false;
    let replay = Pipeline::new(uncached_cfg);
    let from_trained = replay.capture(&mut trained);
    let from_restored = replay.capture(&mut restored);
    assert_eq!(
        from_restored, from_trained,
        "restored network's forward pass diverged from the trained one"
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_knob_disables_the_store() {
    let dir = scratch_dir("off");
    let mut cfg = micro_cfg();
    cfg.cache = false;
    let p = Pipeline::with_cache_dir(cfg, &dir);
    assert!(
        p.cache().is_none(),
        "cfg.cache = false must detach the store"
    );
    assert!(
        !dir.exists(),
        "disabled cache must not touch the filesystem"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Digest stability across the three circuit generators: building the
/// same circuit twice keys identically; any structural change (width,
/// architecture) changes the key.
#[test]
fn structural_digests_are_stable_and_sensitive() {
    type Generator = fn() -> Digest128;
    let generators: [(&str, Generator); 3] = [
        ("baugh-wooley", || {
            MultiplierCircuit::new(4, 4).netlist().structural_digest()
        }),
        ("booth", || {
            BoothMultiplierCircuit::new(4, 4)
                .netlist()
                .structural_digest()
        }),
        ("mac", || {
            MacCircuit::new(4, 4, 12).netlist().structural_digest()
        }),
    ];
    let mut digests = Vec::new();
    for (name, gen) in generators {
        assert_eq!(gen(), gen(), "{name}: same build must digest identically");
        digests.push(gen());
    }
    // The three architectures are pairwise distinct.
    digests.sort();
    digests.dedup();
    assert_eq!(digests.len(), 3, "generator digests collided");

    // One-parameter structural changes move every generator's digest.
    assert_ne!(
        MultiplierCircuit::new(4, 4).netlist().structural_digest(),
        MultiplierCircuit::new(4, 5).netlist().structural_digest()
    );
    assert_ne!(
        BoothMultiplierCircuit::new(4, 4)
            .netlist()
            .structural_digest(),
        BoothMultiplierCircuit::new(5, 4)
            .netlist()
            .structural_digest()
    );
    assert_ne!(
        MacCircuit::new(4, 4, 12).netlist().structural_digest(),
        MacCircuit::new(4, 4, 13).netlist().structural_digest()
    );
}

/// Timing artifacts round-trip bit-identically through the wire codec
/// for hardware built from both multiplier generators (the MAC
/// generator composes them, covered by the warm-start test above).
#[test]
fn timing_artifacts_round_trip_across_multiplier_generators() {
    for kind in [MultiplierKind::BaughWooley, MultiplierKind::Booth] {
        let hw = MacHardware::with_multiplier(4, 4, 12, CellLibrary::nangate15_like(), kind);
        let profile = characterize_timing(
            &hw,
            &TimingConfig {
                exhaustive: false,
                samples: 64,
                seed: 7,
                slow_floor_ps: 50.0,
                weight_stride: 4,
            },
        );
        let mut buf = Vec::new();
        profile.write_to(&mut buf);
        let mut r = charstore::wire::Reader::new(&buf);
        let back = WeightTimingProfile::read_from(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, profile, "{kind:?} timing profile round trip");
    }
}

/// Flat→sharded migration: a store laid out by the pre-sharding code
/// (all objects directly under `objects/`) opens under the new code
/// with every get a hit, the hit objects migrate into their shards, and
/// `verify` passes over the result.
#[test]
fn flat_layout_store_migrates_and_verifies() {
    let dir = scratch_dir("flat-migrate");

    // Build content through the current API, then flatten the layout to
    // what the old code produced: objects/<hex>.ppc, no shard dirs.
    let store = Store::open(&dir).expect("open");
    let keys: Vec<Digest128> = (0u64..12)
        .map(|n| charstore::digest_bytes("flat-key", &n.to_le_bytes()))
        .collect();
    for (n, &k) in keys.iter().enumerate() {
        store
            .put(k, vec![Section::new(1, vec![n as u8; 64 + n])])
            .expect("put");
    }
    drop(store);
    let objects = dir.join("objects");
    for path in find_objects(&objects) {
        let flat = objects.join(path.file_name().expect("file name"));
        if path != flat {
            std::fs::rename(&path, &flat).expect("flatten");
            let _ = std::fs::remove_dir(path.parent().expect("shard"));
        }
    }
    for path in find_objects(&objects) {
        assert_eq!(
            path.parent().expect("parent"),
            objects,
            "fixture must be fully flat"
        );
    }

    // New code over the old layout: every get hits and migrates.
    let migrated = Store::open(&dir).expect("re-open");
    for (n, &k) in keys.iter().enumerate() {
        let sections = migrated.get(k).expect("flat object must hit");
        assert_eq!(*sections, vec![Section::new(1, vec![n as u8; 64 + n])]);
    }
    assert_eq!(migrated.counters().disk_hits, 12);
    assert_eq!(migrated.counters().misses, 0);
    for path in find_objects(&objects) {
        assert_ne!(
            path.parent().expect("parent"),
            objects,
            "object {} was not migrated into a shard",
            path.display()
        );
    }
    // The migrated store lists fully and re-checksums clean.
    assert_eq!(migrated.entries().expect("entries").len(), 12);
    let report = migrated.verify().expect("verify");
    assert_eq!(report.checked, 12);
    assert!(report.is_clean(), "corrupt after migration: {report:?}");

    let _ = std::fs::remove_dir_all(dir);
}

/// `training_key` commits to every configuration field it claims to:
/// flipping any one of them moves the key, and an unchanged
/// configuration reproduces it exactly.
#[test]
fn training_key_moves_with_every_committed_field() {
    use powerpruning::cache::training_key;
    let base_pipeline = || {
        let mut cfg = micro_cfg();
        cfg.cache = false;
        Pipeline::new(cfg)
    };
    let p = base_pipeline();
    let base = training_key(&p.ctx(), NetworkKind::LeNet5);
    assert_eq!(
        base,
        training_key(&base_pipeline().ctx(), NetworkKind::LeNet5)
    );

    // Network kind.
    for kind in [
        NetworkKind::ResNet20,
        NetworkKind::ResNet50,
        NetworkKind::EfficientNetLite,
    ] {
        assert_ne!(base, training_key(&p.ctx(), kind), "{kind:?} collided");
    }
    // Master seed (drives dataset seeds, net seed and every stream).
    let mut cfg = micro_cfg();
    cfg.cache = false;
    cfg.seed ^= 0x100;
    assert_ne!(
        base,
        training_key(&Pipeline::new(cfg).ctx(), NetworkKind::LeNet5)
    );
    // Scale (drives topology, budgets, epochs, dataset sizes).
    let mut cfg = PipelineConfig::for_scale(Scale::Mini);
    cfg.cache = false;
    assert_ne!(
        base,
        training_key(&Pipeline::new(cfg).ctx(), NetworkKind::LeNet5)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// KeyFields is order-insensitive: any permutation of the same
    /// named fields produces the same key ("stable under field
    /// reordering"), while changing any single value moves it.
    #[test]
    fn key_fields_ignore_order_and_commit_to_values(
        values in prop::collection::vec(0u64..u64::MAX, 2..12),
        rotation in 0usize..12,
        flip_idx in 0usize..12,
        flip_bit in 0u8..64,
    ) {
        use powerpruning::cache::KeyFields;
        let build = |vals: &[(usize, u64)]| {
            let mut k = KeyFields::new();
            for &(i, v) in vals {
                k.u64(&format!("field{i}"), v);
            }
            k.finalize("proptest.v1")
        };
        let fields: Vec<(usize, u64)> = values.iter().copied().enumerate().collect();
        let mut rotated = fields.clone();
        rotated.rotate_left(rotation % fields.len());
        prop_assert_eq!(build(&fields), build(&rotated), "field order leaked into the key");

        let mut flipped = fields.clone();
        let idx = flip_idx % flipped.len();
        flipped[idx].1 ^= 1 << flip_bit;
        prop_assert_ne!(
            build(&fields),
            build(&flipped),
            "single-bit value change at field {} went uncommitted",
            idx
        );
    }

    /// Container round-trip: arbitrary section payloads come back
    /// bit-identical through encode/decode.
    #[test]
    fn container_round_trips_arbitrary_sections(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..200), 1..6),
    ) {
        let sections: Vec<Section> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| Section::new(i as u32 + 1, bytes))
            .collect();
        let decoded = charstore::container::decode(&charstore::container::encode(&sections))
            .expect("round trip");
        prop_assert_eq!(decoded, sections);
    }

    /// Store round-trip: what goes in comes out bit-identical, through
    /// both the memory tier and a cold re-open from disk.
    #[test]
    fn store_round_trips_bit_identically(
        payload in prop::collection::vec(0u8..=255, 1..400),
        key_seed in 0u64..1_000_000,
    ) {
        let dir = scratch_dir("prop-rt");
        let sections = vec![Section::new(1, payload)];
        let key = charstore::digest_bytes("prop-key", &key_seed.to_le_bytes());
        let store = Store::open(&dir).expect("open");
        store.put(key, sections.clone()).expect("put");
        prop_assert_eq!(&*store.get(key).expect("mem get"), &sections);
        let cold = Store::open(&dir).expect("re-open");
        prop_assert_eq!(&*cold.get(key).expect("disk get"), &sections);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Corruption detection: flipping any single byte of a stored
    /// object file turns the lookup into a miss, never into wrong data.
    #[test]
    fn single_flipped_byte_is_detected(
        payload in prop::collection::vec(0u8..=255, 1..200),
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch_dir("prop-flip");
        let key = charstore::digest_bytes("prop-flip-key", &payload);
        let store = Store::open(&dir).expect("open");
        store.put(key, vec![Section::new(1, payload)]).expect("put");

        let object = find_objects(&dir.join("objects"))
            .pop()
            .expect("one object");
        let mut bytes = std::fs::read(&object).expect("read object");
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&object, &bytes).expect("write corrupted");

        let cold = Store::open(&dir).expect("re-open");
        prop_assert!(cold.get(key).is_none(), "flip at byte {} went undetected", pos);
        prop_assert_eq!(cold.counters().misses, 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Valid encodings of a characterized power profile and of a small
/// timing profile with slow transitions: the seeds that the truncation
/// and byte-flip properties below mutate.
fn profile_encodings() -> &'static (Vec<u8>, Vec<u8>) {
    static ENCODINGS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let mut stats = TransitionStats::new();
        stats.record_activation(1, 2, 3);
        stats.record_activation(2, 9, 1);
        let psums: Vec<(i32, i32)> = (0..64).map(|i| (i * 7 - 200, 150 - i * 5)).collect();
        let binning = PsumBinning::from_samples(&psums, 4, 12, 0);
        let cfg = PowerConfig {
            samples_per_weight: 4,
            weight_stride: 4,
            ..PowerConfig::default()
        };
        let power = characterize_power(&MacHardware::small(), &stats, &binning, &cfg);
        let weight = |code, slow: Vec<(u8, u8, f32)>| WeightTiming {
            code,
            max_delay_ps: 100.0 + f64::from(code),
            histogram: vec![1, 0, 2],
            slow,
        };
        let timing = WeightTimingProfile {
            per_weight: vec![
                weight(-3, vec![(1, 2, 101.5)]),
                weight(0, Vec::new()),
                weight(4, vec![(0, 15, 104.0), (7, 3, 103.25)]),
            ],
            psum_floor_ps: 60.0,
            adder_from_product_ps: vec![12.0, 9.5, 7.0],
            slow_floor_ps: 100.0,
        };
        let (mut p, mut t) = (Vec::new(), Vec::new());
        power.write_to(&mut p);
        timing.write_to(&mut t);
        (p, t)
    })
}

/// Feeds `bytes` to both profile decoders. Neither may panic or fail
/// with anything but `InvalidData`. A profile that decodes must
/// re-encode to exactly the bytes it consumed, and every code it holds
/// must be found by its binary-search lookups.
fn assert_profile_decoders_hold(bytes: &[u8]) {
    let mut r = charstore::wire::Reader::new(bytes);
    match WeightPowerProfile::read_from(&mut r) {
        Ok(profile) => {
            let mut again = Vec::new();
            profile.write_to(&mut again);
            assert_eq!(again, &bytes[..bytes.len() - r.remaining()]);
            for (&code, (_, power)) in profile.codes().iter().zip(profile.series()) {
                assert_eq!(profile.power_uw(code).to_bits(), power.to_bits());
                let _ = profile.energy_fj(code);
            }
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
    let mut r = charstore::wire::Reader::new(bytes);
    match WeightTimingProfile::read_from(&mut r) {
        Ok(profile) => {
            let mut again = Vec::new();
            profile.write_to(&mut again);
            assert_eq!(again, &bytes[..bytes.len() - r.remaining()]);
            for t in &profile.per_weight {
                assert!(std::ptr::eq(profile.timing(t.code), t));
            }
            let _ = profile.max_delay_ps();
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, raw and behind a small entry count so that the
    /// decoders get past the length check into the entries.
    #[test]
    fn profile_decoders_survive_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        count in 0u64..6,
    ) {
        assert_profile_decoders_hold(&bytes);
        let mut prefixed = count.to_le_bytes().to_vec();
        prefixed.extend_from_slice(&bytes);
        assert_profile_decoders_hold(&prefixed);
    }

    /// Every strict prefix of a valid encoding fails cleanly, and a
    /// single flipped byte either fails cleanly or decodes to a profile
    /// that re-encodes to the flipped bytes.
    #[test]
    fn profile_decoders_survive_truncation_and_flips(
        cut in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        use charstore::wire::Reader;
        let (power, timing) = profile_encodings();
        let power_cut = &power[..cut % power.len()];
        let timing_cut = &timing[..cut % timing.len()];
        prop_assert!(WeightPowerProfile::read_from(&mut Reader::new(power_cut)).is_err());
        prop_assert!(WeightTimingProfile::read_from(&mut Reader::new(timing_cut)).is_err());
        for encoding in [power, timing] {
            assert_profile_decoders_hold(&encoding[..cut % encoding.len()]);
            let mut flipped = encoding.clone();
            flipped[flip_pos % encoding.len()] ^= flip;
            assert_profile_decoders_hold(&flipped);
        }
    }
}
