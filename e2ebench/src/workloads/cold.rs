//! `cold_request`: one Mini LeNet-5 characterization request against an
//! empty store — the unit of truth of a cold run. The untraced pass
//! calls `Pipeline::characterization_request`; the traced pass drives
//! the same four stages one call at a time, in the order that request
//! uses, and stores the same manifest.

use super::{config, ratio, stage_outputs};
use crate::check::Digest;
use crate::layers;
use crate::tracing::Tracer;
use crate::window::Window;
use crate::work::{timed, Opts, Outcome, WorkDir};
use powerpruning::cache::{self, RequestManifest};
use powerpruning::{NetworkKind, Pipeline, Scale};
use std::time::Instant;

/// Set-ups per run (`setup_s` is their median): an empty store and a
/// pipeline take well under a millisecond, so many are timed.
const SETUPS: usize = 51;

const KIND: NetworkKind = NetworkKind::LeNet5;

/// Baseline training epochs at Mini scale.
const MINI_EPOCHS: u64 = 8;

/// The stages in request order, as benchmark span names.
const STAGES: [&str; 4] = [
    "bench_prepare",
    "bench_capture",
    "bench_characterize",
    "bench_timing",
];

struct Fixture {
    _dir: WorkDir,
    pipeline: Pipeline,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let dir = WorkDir::new("cold")?;
    let pipeline = Pipeline::with_cache_dir(config(Scale::Mini, seed), dir.path());
    if pipeline.cache().is_none() {
        return Err(format!(
            "no artifact store opened at {}",
            dir.path().display()
        ));
    }
    Ok(Fixture {
        _dir: dir,
        pipeline,
    })
}

pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut fixtures = Vec::new();
    for _ in 0..SETUPS {
        fixtures.push(timed(&mut out.setup_s, || setup(opts.seed))?);
    }
    let traced_fixture = fixtures.pop().expect("SETUPS > 1");
    out.digest = untraced(fixtures.pop().expect("SETUPS > 1"), out);
    if opts.trace {
        out.traced_digest = traced(traced_fixture, out);
    }
    Ok(())
}

fn untraced(fx: Fixture, out: &mut Outcome) -> String {
    let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
    let started = Instant::now();
    let run = fx.pipeline.characterization_request(KIND);
    let secs = started.elapsed().as_secs_f64();
    out.ops_s.push(secs);
    let epochs = nn::train::epochs_run() - e0;
    let transitions = gatesim::sim_transitions() - t0;
    let t = &mut out.tally;
    t.check(!run.manifest_hit, || {
        "a request on an empty store hit a manifest".into()
    });
    t.same("training epochs", epochs, MINI_EPOCHS);
    t.same("request-reported epochs", run.training_epochs, epochs);
    t.same(
        "request-reported transitions",
        run.sim_transitions,
        transitions,
    );
    t.check(transitions > 0, || {
        "no gate-level transitions simulated".into()
    });

    let cache = fx.pipeline.cache().expect("opened in setup");
    let power = cache.lookup_characterization(run.manifest.characterization);
    let timing = cache.lookup_timing(run.manifest.timing);
    t.check(power.is_some() && timing.is_some(), || {
        "stage artifacts missing from the store after the request".into()
    });
    let clean = cache
        .store()
        .verify()
        .map(|r| r.is_clean())
        .map_err(|e| e.to_string());
    t.check(clean == Ok(true), || format!("store verify: {clean:?}"));
    let (Some(power), Some(timing)) = (power, timing) else {
        return "missing".into();
    };
    out.note(format!(
        "work per request: {epochs} epochs, {transitions} transitions"
    ));
    let mut d = Digest::default();
    stage_outputs(&mut d, run.manifest.accuracy, &power.power_profile, &timing);
    d.u64(epochs).u64(transitions).hex()
}

fn traced(fx: Fixture, out: &mut Outcome) -> String {
    let p = &fx.pipeline;
    let ctx = p.ctx();
    let cache = p.cache().expect("opened in setup");
    let mut tracer = Tracer::start();
    let w0 = Window::now();
    let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
    let started = Instant::now();
    let request = obs::span("bench_request");

    let mut prepared = {
        let _s = obs::span(STAGES[0]);
        p.prepare(KIND)
    };
    let training = cache::training_key(&ctx, KIND);
    let capture = cache::capture_key(&ctx, &mut prepared);
    let captures = {
        let _s = obs::span(STAGES[1]);
        p.capture(&mut prepared)
    };
    let characterization = cache::characterization_key(&ctx, &captures);
    let before_power = gatesim::sim_transitions();
    let chars = {
        let _s = obs::span(STAGES[2]);
        p.characterize(&captures)
    };
    let power_transitions = gatesim::sim_transitions() - before_power;
    let timing_key = cache::timing_key(&ctx, f64::MAX);
    let before_timing = gatesim::sim_transitions();
    let timing = {
        let _s = obs::span(STAGES[3]);
        p.characterize_timing(f64::MAX)
    };
    let timing_transitions = gatesim::sim_transitions() - before_timing;
    let manifest = RequestManifest {
        training,
        capture,
        characterization,
        timing: timing_key,
        accuracy: prepared.accuracy,
        captures: captures.len() as u64,
        power_codes: chars.power_profile.codes().len() as u64,
    };
    cache.store_manifest(&ctx, cache::request_key(&p.cfg, KIND), &manifest);
    drop(request);
    out.traced_ops_s.push(started.elapsed().as_secs_f64());
    let epochs = nn::train::epochs_run() - e0;
    let transitions = gatesim::sim_transitions() - t0;
    tracer.harvest();
    let w = Window::now().since(&w0);
    layers::common(out, &tracer, &w, epochs, transitions, 1.0);

    let wall = tracer.secs("bench_request");
    let stage_s: Vec<f64> = STAGES.iter().map(|s| tracer.secs(s)).collect();
    let unattributed = layers::conservation(out, "pipeline.unattributed_share", wall, &stage_s);
    out.layer("pipeline.prepare_s", stage_s[0]);
    out.layer("pipeline.capture_s", stage_s[1]);
    out.layer("pipeline.characterize_s", stage_s[2]);
    out.layer("pipeline.timing_s", stage_s[3]);
    out.layer("pipeline.unattributed_s", unattributed);
    out.tally.check(
        stage_s[3] == stage_s.iter().copied().fold(0.0, f64::max),
        || format!("timing is not the largest stage: {stage_s:?}"),
    );

    // The characterize split: the program's systolic stats span, and
    // the characterize span's self time (the power sweep; the program
    // has no span of its own around it).
    let stats_s = tracer.secs("systolic_run_network_stats");
    let power_s = tracer.self_secs("characterize");
    layers::conservation(
        out,
        "pipeline.characterize_unattributed_share",
        stage_s[2],
        &[stats_s, power_s],
    );
    out.layer("gatesim.power_s", power_s);
    out.layer("gatesim.power_transitions", power_transitions as f64);
    out.layer("gatesim.timing_transitions", timing_transitions as f64);
    out.layer(
        "gatesim.power_ns_per_transition",
        ratio(power_s * 1e9, power_transitions as f64),
    );
    out.layer(
        "gatesim.timing_ns_per_transition",
        ratio(tracer.self_secs("timing") * 1e9, timing_transitions as f64),
    );

    let mut d = Digest::default();
    stage_outputs(&mut d, prepared.accuracy, &chars.power_profile, &timing);
    d.u64(epochs).u64(transitions).hex()
}
