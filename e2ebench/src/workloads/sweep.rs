//! `retrain_sweep`: the Mini Fig. 8 power-threshold sweep with its
//! shared stages already in the store and the retrain cache cold.
//! Set-up writes the prepare, capture and characterize artifacts; each
//! measured sweep runs a fresh pipeline over a fresh copy of that
//! store. The traced pass drives the sweep one call at a time, in the
//! order `Pipeline::power_threshold_sweep` makes them.

use super::config;
use crate::check::Digest;
use crate::layers;
use crate::tracing::Tracer;
use crate::window::Window;
use crate::work::{timed, Opts, Outcome, WorkDir};
use powerpruning::pipeline::stages::select::retrain_with_retry;
use powerpruning::select::power::{select_by_power, threshold_for_count};
use powerpruning::{NetworkKind, Pipeline, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use systolic::HwVariant;

/// Set-ups per run (`setup_s` is their median); each computes the three
/// shared Mini stages.
const SETUPS: usize = 3;

const KIND: NetworkKind = NetworkKind::LeNet5;

/// The Fig. 8 ladder as weight-value counts.
const COUNTS: [usize; 5] = [255, 86, 61, 48, 36];

/// One sweep point: threshold (NaN for "none"), weight values, dynamic
/// and leakage power, accuracy.
type Point = (f64, usize, f64, f64, f64);

fn setup(seed: u64) -> Result<WorkDir, String> {
    let dir = WorkDir::new("sweep-setup")?;
    let p = Pipeline::with_cache_dir(config(Scale::Mini, seed), dir.path());
    if p.cache().is_none() {
        return Err(format!(
            "no artifact store opened at {}",
            dir.path().display()
        ));
    }
    let mut prepared = p.prepare(KIND);
    let captures = p.capture(&mut prepared);
    let _ = p.characterize(&captures);
    Ok(dir)
}

/// The series by bit pattern (NaN-safe), then the exact work counts.
fn digest(points: &[Point], counts: &[f64]) -> String {
    let mut d = Digest::default();
    for &(threshold, weights, dynamic, leakage, accuracy) in points {
        d.f64(threshold)
            .u64(weights as u64)
            .f64(dynamic)
            .f64(leakage)
            .f64(accuracy);
    }
    for &c in counts {
        d.f64(c);
    }
    d.hex()
}

/// Cache, training and simulation counts over a window, in digest
/// order: stage hits, stage misses, retrain hits, retrain misses,
/// epochs, transitions.
fn counts(w: &Window, epochs: u64, transitions: u64) -> Vec<f64> {
    vec![
        layers::stage_cache(w, "hits"),
        layers::stage_cache(w, "misses"),
        w.value("charcache_retrain_hits_total"),
        w.value("charcache_retrain_misses_total"),
        epochs as f64,
        transitions as f64,
    ]
}

pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut stores = Vec::new();
    for _ in 0..SETUPS {
        stores.push(timed(&mut out.setup_s, || setup(opts.seed))?);
    }
    let base = stores.pop().expect("SETUPS > 0");
    drop(stores);
    let cfg = config(Scale::Mini, opts.seed);

    let window = Instant::now();
    loop {
        let copy = base.copy("sweep")?;
        let p = Pipeline::with_cache_dir(cfg, copy.path());
        let w0 = Window::now();
        let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
        let series = timed(&mut out.ops_s, || p.power_threshold_sweep(KIND));
        let c = counts(
            &Window::now().since(&w0),
            nn::train::epochs_run() - e0,
            gatesim::sim_transitions() - t0,
        );
        let d = digest(&series.points, &c);
        if out.digest.is_empty() {
            out.note(format!(
                "work per sweep: {} stage hits, {} stage misses, {} retrain misses, {} epochs",
                c[0], c[1], c[3], c[4]
            ));
            out.digest = d.clone();
        }
        let t = &mut out.tally;
        t.same("sweep digest repeats within the run", &d, &out.digest);
        t.same("shared-stage hits", c[0], 3.0);
        t.same("transitions", c[5], 0.0);
        t.check(c[4] > 0.0, || {
            "the cold retrain cache trained nothing".into()
        });
        // A warm replay over the same store: the same series bit for
        // bit, without a single epoch.
        let e1 = nn::train::epochs_run();
        let replay = Pipeline::with_cache_dir(cfg, copy.path()).power_threshold_sweep(KIND);
        t.same(
            "warm replay series",
            digest(&replay.points, &[]),
            digest(&series.points, &[]),
        );
        t.same("warm replay epochs", nn::train::epochs_run() - e1, 0);
        if window.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if opts.trace {
        let copy = base.copy("sweep-traced")?;
        out.traced_digest = traced(&Pipeline::with_cache_dir(cfg, copy.path()), out);
    }
    Ok(())
}

fn traced(p: &Pipeline, out: &mut Outcome) -> String {
    let ctx = p.ctx();
    let mut tracer = Tracer::start();
    let w0 = Window::now();
    let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
    let started = Instant::now();
    let sweep = obs::span("bench_sweep");

    let mut rng = StdRng::seed_from_u64(p.cfg.seed ^ 0xf18 ^ (KIND as u64));
    let mut prepared = {
        let _s = obs::span("bench_prepare");
        p.prepare(KIND)
    };
    let captures = {
        let _s = obs::span("bench_capture");
        p.capture(&mut prepared)
    };
    let chars = {
        let _s = obs::span("bench_characterize");
        p.characterize(&captures)
    };
    let energy = |caps: &[nn::layers::GemmCapture]| {
        let _s = obs::span("bench_energy");
        p.array()
            .run_network_energy(caps, &chars.energy_model, HwVariant::Optimized)
    };
    let codes = chars.power_profile.codes().len();
    let base = energy(&captures);
    let mut points: Vec<Point> = vec![(
        f64::NAN,
        codes,
        base.dynamic_power_mw(),
        base.leakage_power_mw(),
        prepared.accuracy,
    )];
    let baseline_acc = prepared.accuracy;
    let mut retrain_epochs = 0;
    for &count in &COUNTS[1..] {
        let threshold = threshold_for_count(&chars.power_profile, count.min(codes));
        let sel = select_by_power(&chars.power_profile, threshold);
        let before = nn::train::epochs_run();
        let acc = {
            let _s = obs::span("bench_retrain");
            retrain_with_retry(
                &ctx,
                &mut prepared,
                Some(&sel.weights),
                None,
                baseline_acc,
                &mut rng,
            )
        };
        retrain_epochs += nn::train::epochs_run() - before;
        let caps = {
            let _s = obs::span("bench_capture");
            p.capture(&mut prepared)
        };
        let power = energy(&caps);
        points.push((
            threshold,
            sel.weights.len(),
            power.dynamic_power_mw(),
            power.leakage_power_mw(),
            acc,
        ));
    }
    drop(sweep);
    out.traced_ops_s.push(started.elapsed().as_secs_f64());
    let epochs = nn::train::epochs_run() - e0;
    let transitions = gatesim::sim_transitions() - t0;
    tracer.harvest();
    let w = Window::now().since(&w0);
    layers::common(out, &tracer, &w, epochs, transitions, 1.0);

    let parts = [
        "bench_prepare",
        "bench_capture",
        "bench_characterize",
        "bench_retrain",
        "bench_energy",
    ]
    .map(|s| tracer.secs(s));
    let unattributed = layers::conservation(
        out,
        "pipeline.unattributed_share",
        tracer.secs("bench_sweep"),
        &parts,
    );
    out.layer("pipeline.prepare_s", parts[0]);
    out.layer("pipeline.capture_s", parts[1]);
    out.layer("pipeline.characterize_s", parts[2]);
    out.layer("nn.retrain_s", parts[3]);
    out.layer("systolic.energy_s", parts[4]);
    out.layer("pipeline.unattributed_s", unattributed);
    out.layer("nn.retrain_epochs", retrain_epochs as f64);
    digest(&points, &counts(&w, epochs, transitions))
}
