//! Output checks: digests of what the program produced, the pinned
//! reference digests, and the tally of attempted and failed checks and
//! operations.

use std::fmt::Write as _;

/// 64-bit FNV-1a over a sequence of byte strings. The benchmark's own
/// hash, so a reference digest does not move when the program's
/// content-addressing changes; each part is length-prefixed, so
/// `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in (data.len() as u64).to_le_bytes().iter().chain(data) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// An `f64` by bit pattern: NaN-safe, and `0.0` differs from `-0.0`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Reference output digests pinned at the default seed (`0xdac2023`)
/// and at the held-out seed 1. Each covers the workload's outputs and
/// its exact work counts; see each workload's `digest` for what goes
/// in.
const REFERENCES: &[(&str, u64, &str)] = &[
    ("cold_request", 0xdac2023, "1ea9f2a6464596c5"),
    ("cold_request", 1, "ec99999b709af5c3"),
    ("retrain_sweep", 0xdac2023, "824e72fe616204a4"),
    ("retrain_sweep", 1, "102c15ac008a3280"),
    ("warm_serve", 0xdac2023, "8215eec43cbb403b"),
    ("warm_serve", 1, "4257a9f9ed5cea83"),
    ("remote_replay", 0xdac2023, "a7301a68458c58a6"),
    ("remote_replay", 1, "cd1ab7af52158733"),
];

/// The pinned digest for a workload at a seed, if one was recorded.
#[must_use]
pub fn reference(workload: &str, seed: u64) -> Option<&'static str> {
    REFERENCES
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

/// Attempted and failed operations and output checks. Every mismatch
/// is kept with a description for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation or check; `ok == false` records `what()`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one equality check between `got` and `want`.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!("{} failed of {} attempted", self.failed, self.attempted);
        for f in &self.failures {
            let _ = write!(s, "\n  FAILED: {f}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_length_prefixed() {
        let hex = |parts: &[&[u8]]| {
            let mut d = Digest::default();
            for p in parts {
                d.bytes(p);
            }
            d.hex()
        };
        assert_eq!(hex(&[b"ab", b"c"]), hex(&[b"ab", b"c"]));
        assert_ne!(hex(&[b"ab", b"c"]), hex(&[b"a", b"bc"]));
        assert_ne!(hex(&[]), hex(&[b""]));
        // Pinned: a change here silently invalidates every reference.
        assert_eq!(hex(&[b"powerpruning"]), "9a60ce0527aa38f1");
    }

    #[test]
    fn float_digests_compare_bit_patterns() {
        let h = |v: f64| Digest::default().f64(v).hex();
        assert_eq!(h(f64::NAN), h(f64::NAN), "NaN digests equal to itself");
        assert_ne!(h(0.0), h(-0.0));
    }

    #[test]
    fn mismatches_count_toward_the_error_rate() {
        let mut t = Tally::default();
        t.same("digest", "a", "a");
        t.same("digest", "a", "b");
        t.check(true, String::new);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!((t.error_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.summary().contains("got \"a\", want \"b\""));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn references_are_looked_up_by_workload_and_seed() {
        assert_eq!(reference("cold_request", 12345), None);
        for (w, s, d) in REFERENCES {
            assert_eq!(reference(w, *s), Some(*d));
            assert_eq!(d.len(), 16);
        }
    }
}
