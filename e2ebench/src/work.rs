//! What every workload shares: options, the outcome it fills in,
//! scratch store directories, seeded streams and process memory.

use crate::check::Tally;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Root of every store directory a run creates, relative to the
/// directory the benchmark runs from; removed again when the run ends.
pub const WORK_ROOT: &str = ".bench_work";

/// Command-line options a workload sees.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Each timed operation of the untraced pass, seconds.
    pub ops_s: Vec<f64>,
    /// For the closed loop, the wall time between consecutive
    /// completions of the untraced pass, seconds, in completion order;
    /// empty when operations run one after another and `ops_s` is the
    /// time each accounts for.
    pub gaps_s: Vec<f64>,
    /// Digest of the untraced pass's outputs and exact counts.
    pub digest: String,
    /// The traced pass: its operations and its digest.
    pub traced_ops_s: Vec<f64>,
    pub traced_digest: String,
    /// Per-layer metrics from the traced pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations and output checks, both passes.
    pub tally: Tally,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Times `f`, pushing the elapsed seconds onto `into`.
pub fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    into.push(t.elapsed().as_secs_f64());
    out
}

/// A fresh, empty directory under [`WORK_ROOT`], removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> Result<WorkDir, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = Path::new(WORK_ROOT).join(format!(
            "{}-{label}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// A fresh directory holding a copy of this one's files.
    pub fn copy(&self, label: &str) -> Result<WorkDir, String> {
        let to = WorkDir::new(label)?;
        copy_tree(&self.0, &to.0).map_err(|e| format!("cannot copy {}: {e}", self.0.display()))?;
        Ok(to)
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            std::fs::create_dir_all(&target)?;
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// splitmix64: the benchmark's seeded stream of request keys and
/// orders, independent of the program's own RNG.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    #[must_use]
    pub fn new(seed: u64, lane: u64) -> Stream {
        Stream(seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_lane() {
        let take = |seed, lane| {
            let mut s = Stream::new(seed, lane);
            (0..4).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_ne!(take(7, 0), take(8, 0));
    }

    #[test]
    fn work_dirs_copy_and_clean_up() {
        let a = WorkDir::new("test").unwrap();
        std::fs::create_dir_all(a.path().join("objects/ab")).unwrap();
        std::fs::write(a.path().join("objects/ab/x.ppc"), b"bytes").unwrap();
        let b = a.copy("test-copy").unwrap();
        assert_eq!(
            std::fs::read(b.path().join("objects/ab/x.ppc")).unwrap(),
            b"bytes"
        );
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop((a, b));
        assert!(!pa.exists() && !pb.exists());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
