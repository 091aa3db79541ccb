//! Persistent content-addressed storage for characterization artifacts.
//!
//! The PowerPruning flow's expensive products — per-weight power and
//! timing profiles — are pure functions of their inputs (cell library,
//! netlist structure, seeds, sample budgets). This crate provides the
//! storage discipline that lets the pipeline characterize **once** and
//! serve every later run from a durable cache:
//!
//! * [`digest`] — stable 128-bit input digests ([`Digest128`],
//!   [`Hasher128`]): artifact keys commit to *everything* that
//!   determined the artifact, so a key hit is provably the same
//!   computation.
//! * [`wire`] — little-endian encoding helpers and a bounds-checked
//!   [`wire::Reader`] hardened against hostile or truncated input.
//! * [`container`] — the versioned on-disk format: magic, version,
//!   section table, per-section and whole-file checksums.
//! * [`store`] — the tiered [`Store`]: in-memory LRU over decoded
//!   sections plus a prefix-sharded directory of container files, with
//!   advisory file locking so concurrent experiment binaries share one
//!   store, an oldest-first [`Store::gc`] sweep, and a re-checksumming
//!   [`Store::verify`] audit. Only the shards hold objects: a file left
//!   directly under `objects/` by the pre-sharding layout is a miss.
//! * [`remote`] — the optional third tier: a [`RemoteTier`] client for
//!   a `charserve`-style object endpoint. Local `get` misses fall
//!   through to `GET /object/<key>` (the fetched container is
//!   re-checksummed client-side, so wire corruption degrades to a miss
//!   exactly like disk corruption) and local `put`s are
//!   write-through-published with `PUT /object/<key>`; any remote
//!   failure degrades the store to local-only operation.
//!
//! This crate is domain-agnostic (sections are opaque bytes); the
//! `powerpruning` crate layers typed characterization artifacts and
//! cache-key derivation on top, and `gatesim` uses [`Hasher128`] for
//! netlist structural digests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod container;
pub mod digest;
pub mod remote;
pub mod store;
pub mod wire;

pub use container::{Section, FORMAT_VERSION};
pub use digest::{digest_bytes, Digest128, Hasher128};
pub use remote::RemoteTier;
pub use store::{EntryInfo, GcReport, Store, StoreCounters, VerifyReport};
