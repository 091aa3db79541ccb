//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see the README's paper-section → module map); the Criterion
//! benches in `benches/` measure the runtime of the underlying kernels
//! and the scaling of the design choices called out for ablation.

use powerpruning::pipeline::{PipelineConfig, Scale};

/// Reads the experiment scale from `POWERPRUNING_SCALE`
/// (`micro`/`mini`/`full`), defaulting to Mini.
#[must_use]
pub fn scale_from_env() -> Scale {
    match std::env::var("POWERPRUNING_SCALE").as_deref() {
        Ok("micro") => Scale::Micro,
        Ok("full") => Scale::Full,
        _ => Scale::Mini,
    }
}

/// Pipeline configuration at the environment-selected scale.
#[must_use]
pub fn config_from_env() -> PipelineConfig {
    PipelineConfig::for_scale(scale_from_env())
}

/// Renders a horizontal ASCII bar of `value` relative to `max`.
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

/// Prints a standard experiment banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(5.0, 10.0, 10).len(), 5);
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
        assert_eq!(bar(-1.0, 10.0, 10).len(), 0);
        assert_eq!(bar(1.0, 0.0, 10).len(), 0);
    }

    #[test]
    fn default_scale_is_mini() {
        // Environment-dependent, but must never panic.
        let _ = scale_from_env();
    }
}
