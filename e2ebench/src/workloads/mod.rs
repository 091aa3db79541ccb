//! The four workloads. Each drives the system only through its public
//! API, times the untraced pass, and on `--trace 1` repeats the pass
//! with a span around every call into a layer.

pub mod cold;
pub mod replay;
pub mod serve;
pub mod sweep;

use crate::check::Digest;
use powerpruning::{PipelineConfig, Scale, WeightPowerProfile, WeightTimingProfile};

/// Names accepted by `--workload`, in the order `BENCHMARK.json` lists
/// them.
pub const NAMES: [&str; 4] = [
    "cold_request",
    "retrain_sweep",
    "warm_serve",
    "remote_replay",
];

/// A pipeline configuration at `scale` whose master seed is the
/// workload seed; caching stays on (the store is always explicit).
#[must_use]
pub fn config(scale: Scale, seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        ..PipelineConfig::for_scale(scale)
    }
}

/// Folds the outputs of the four cacheable stages into `d`: baseline
/// accuracy bits and the power and timing profiles' serialized bytes.
pub fn stage_outputs(
    d: &mut Digest,
    accuracy: f64,
    power: &WeightPowerProfile,
    timing: &WeightTimingProfile,
) {
    let mut buf = Vec::new();
    power.write_to(&mut buf);
    d.f64(accuracy).bytes(&buf);
    buf.clear();
    timing.write_to(&mut buf);
    d.bytes(&buf);
}

/// `numerator / denominator`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Largest seed the daemon's JSON protocol carries (2^53 - 1).
pub const WIRE_SEED_MASK: u64 = (1 << 53) - 1;

/// The body of a Micro LeNet-5 `POST /characterize` at `seed`.
#[must_use]
pub fn micro_request(seed: u64) -> String {
    format!(
        "{{\"scale\": \"micro\", \"network\": \"lenet5\", \"seed\": {}}}",
        seed & WIRE_SEED_MASK
    )
}

/// An in-process `charserve` daemon over its own fresh store.
pub struct Daemon {
    pub addr: String,
    pub client: charserve::Client,
    dir: crate::work::WorkDir,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds an ephemeral port, starts serving, waits for `/healthz`.
    pub fn boot(label: &str) -> Result<Daemon, String> {
        let dir = crate::work::WorkDir::new(label)?;
        let server = charserve::Server::bind(&charserve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            store_dir: dir.path().to_path_buf(),
            ..charserve::ServeConfig::default()
        })
        .map_err(|e| format!("cannot boot the daemon: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        let client = charserve::Client::new(&addr);
        client.healthz()?;
        Ok(Daemon {
            addr,
            client,
            dir,
            thread,
        })
    }

    /// The daemon's store directory.
    #[must_use]
    pub fn store_dir(&self) -> &std::path::Path {
        self.dir.path()
    }

    /// Asks the daemon to shut down and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        self.client.shutdown()?;
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("the daemon failed: {e}"))
    }
}
