//! Algo-version tripwire: the content of every Micro-scale stage
//! artifact and every stage key, pinned.
//!
//! The artifact store keys each stage on its inputs plus
//! `ARTIFACT_ALGO_VERSION`, so a change to what a stage computes for
//! unchanged inputs must bump that constant, or warm stores keep serving
//! artifacts the new code would not produce. This test runs the cold
//! Micro pipeline (prepare, capture, characterize, timing), the request
//! manifest and one restricted retraining through a fresh store, then
//! compares each stage key and the digest of each stored artifact's
//! payload sections against the values below. The provenance section
//! is left out of the content digest: it records the creation time and
//! crate version, not the computation.
//!
//! Kernel rewrites that claim bit-identical output (the GEMMs, im2col,
//! the quantizers) must pass this test unchanged. A deliberate change
//! of output fails it; bump `ARTIFACT_ALGO_VERSION` and re-pin the
//! printed values.

use charstore::{Digest128, Hasher128, Store};
use powerpruning::cache::{self, decode_provenance};
use powerpruning::pipeline::stages::select::cached_restricted_retrain;
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Section id of the provenance record in every artifact container.
const PROVENANCE_SECTION: u32 = 1;

/// `(name, hex digest)` pairs recorded from a cold Micro run.
const PINNED: [(&str, &str); 12] = [
    ("key.training", "2fc26c5a2a7aeb5e68d2bf46b966dd2a"),
    ("key.capture", "2c81877e336934c3098ce48bc0e00b13"),
    ("key.characterization", "e0230cc57f39be443d9906ab128db1cf"),
    ("key.timing", "4d968de00747ea4024885fc970596718"),
    ("key.request", "068d12d758013d9cb5da8740fe86fdb0"),
    ("key.retrain", "cbb779dc86513284592af0da5430c8c7"),
    ("content.training", "c0ef3f5e7a421ee5c19ceee05b22a830"),
    ("content.capture", "7ecaeb7d7cd158addf71a9284d6435fa"),
    (
        "content.characterization",
        "d429c80cfc9591da9fd36841b49449c6",
    ),
    ("content.timing", "5bacc6fc9066f8c4d58a8e3bf1deaf16"),
    ("content.retrain", "6fa43e715c182b7817d3557a4fa0aff4"),
    ("content.manifest", "3c8e1247348f44f391e709fe4c2e9a0e"),
];

/// Digest of a stored artifact's payload: every section but the
/// provenance record, by id and bytes, in stored order.
fn content_digest(store: &Store, key: Digest128) -> String {
    let sections = store
        .get(key)
        .unwrap_or_else(|| panic!("artifact {} missing from the store", key.to_hex()));
    let mut h = Hasher128::new("stage-digest-tripwire.v1");
    for s in sections.iter().filter(|s| s.id != PROVENANCE_SECTION) {
        h.write_u32(s.id);
        h.write_bytes(&s.bytes);
    }
    h.finalize().to_hex()
}

/// The keys of every stored artifact whose provenance names `artifact`.
fn keys_of_kind(store: &Store, artifact: &str) -> Vec<Digest128> {
    let mut keys = Vec::new();
    for entry in store.entries().expect("store listing") {
        let sections = store.get(entry.key).expect("listed artifact readable");
        if decode_provenance(&sections)
            .iter()
            .any(|(k, v)| k == "artifact" && v == artifact)
        {
            keys.push(entry.key);
        }
    }
    keys
}

#[test]
fn micro_stage_keys_and_artifacts_match_their_pins() {
    let dir =
        std::env::temp_dir().join(format!("powerpruning-stage-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::for_scale(Scale::Micro);
    let kind = NetworkKind::LeNet5;
    let p = Pipeline::with_cache_dir(cfg, &dir);
    let ctx = p.ctx();
    let store = p.cache().expect("cache enabled").store();

    let mut prepared = p.prepare(kind);
    let training = cache::training_key(&ctx, kind);
    let capture = cache::capture_key(&ctx, &mut prepared);
    let captures = p.capture(&mut prepared);
    let characterization = cache::characterization_key(&ctx, &captures);
    let _ = p.characterize(&captures);
    let timing = cache::timing_key(&ctx, f64::MAX);
    let _ = p.characterize_timing(f64::MAX);
    let request = p.characterization_request(kind).request_key;

    let allowed: Vec<i32> = vec![-64, -32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32, 64];
    let mut rng = StdRng::seed_from_u64(0x51);
    let _ = cached_restricted_retrain(&ctx, &mut prepared, Some(&allowed), None, &mut rng);
    let retrain = keys_of_kind(store, "retrain");
    assert_eq!(retrain.len(), 1, "one retraining stores one artifact");
    let retrain = retrain[0];

    let actual: Vec<(&str, String)> = vec![
        ("key.training", training.to_hex()),
        ("key.capture", capture.to_hex()),
        ("key.characterization", characterization.to_hex()),
        ("key.timing", timing.to_hex()),
        ("key.request", cache::request_key(&cfg, kind).to_hex()),
        ("key.retrain", retrain.to_hex()),
        ("content.training", content_digest(store, training)),
        ("content.capture", content_digest(store, capture)),
        (
            "content.characterization",
            content_digest(store, characterization),
        ),
        ("content.timing", content_digest(store, timing)),
        ("content.retrain", content_digest(store, retrain)),
        ("content.manifest", content_digest(store, request)),
    ];
    let _ = std::fs::remove_dir_all(&dir);

    let mismatches: Vec<String> = PINNED
        .iter()
        .zip(&actual)
        .filter(|((_, pinned), (_, got))| pinned != got)
        .map(|((name, pinned), (_, got))| format!("  {name}: pinned {pinned}, got {got}"))
        .collect();
    let repin: Vec<String> = actual
        .iter()
        .map(|(name, got)| format!("    (\"{name}\", \"{got}\"),"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "Micro stage outputs changed; bump ARTIFACT_ALGO_VERSION and re-pin.\n{}\nnew pins:\n{}",
        mismatches.join("\n"),
        repin.join("\n")
    );
}
