//! The tiered content-addressed artifact store.
//!
//! Tier 1 is an in-memory LRU over decoded section lists (shared
//! `Arc`s, bounded by a byte budget); tier 2 is a directory of
//! checksummed container files named by the artifact key, sharded into
//! 256 subdirectories by the first key byte so directory listings stay
//! cheap as cached pipeline stages multiply entries; an optional tier 3
//! is a [`RemoteTier`] pointing at a `charserve` object endpoint —
//! `get` misses fall through to it (fetched containers are
//! re-checksummed client-side and written into the local disk tier)
//! and `put`s are write-through-published, so a fleet of workers
//! shares one warm cache without a shared filesystem:
//!
//! ```text
//! <root>/
//!   objects/<2-hex-prefix>/<32-hex-digest>.ppc   one container per artifact
//!   .lock                                        advisory lock file
//! ```
//!
//! Every read, listing and deletion touches only the shards. A file
//! directly under `objects/` (the pre-sharding layout) is never read:
//! a lookup of its key is a miss whose recompute writes into the shard.
//!
//! Concurrency: writers stage into a writer-unique temp file and
//! `rename` it into place (atomic on POSIX), so readers never observe a
//! half-written object. On top of that, every disk mutation takes the
//! advisory file lock — shared for `put` (concurrent writers are safe
//! thanks to the atomic rename), exclusive for [`Store::gc`] so it
//! never deletes an object out from under a concurrent reader holding
//! the shared lock. Multiple experiment binaries can therefore share
//! one store.
//!
//! A corrupted object file (flipped byte, truncation, version skew) is
//! reported as a miss — the caller recomputes and overwrites it — never
//! as an error that kills the pipeline. [`Store::verify`] re-checksums
//! every object on disk for operators who want an explicit audit.

use crate::container::{self, Section};
use crate::digest::Digest128;
use crate::remote::RemoteTier;
use obs::metrics::InstanceCounter;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Tier latency histograms, aggregated over every store in the
/// process. The hit/miss counts are [`InstanceCounter`]s on each
/// [`Store`].
struct StoreMetrics {
    get_seconds: obs::metrics::Histogram,
    put_seconds: obs::metrics::Histogram,
    remote_fetch_seconds: obs::metrics::Histogram,
}

static METRICS: LazyLock<StoreMetrics> = LazyLock::new(|| StoreMetrics {
    get_seconds: obs::metrics::histogram("charstore_get_seconds", obs::metrics::LATENCY_SECONDS),
    put_seconds: obs::metrics::histogram("charstore_put_seconds", obs::metrics::LATENCY_SECONDS),
    remote_fetch_seconds: obs::metrics::histogram(
        "charstore_remote_fetch_seconds",
        obs::metrics::LATENCY_SECONDS,
    ),
});

/// Default in-memory tier budget: plenty for a full Mini-scale
/// characterization set while staying irrelevant next to the pipeline's
/// own footprint.
pub const DEFAULT_MEM_BUDGET_BYTES: usize = 64 << 20;

const OBJECT_EXT: &str = "ppc";

/// How long the remote tier is skipped after a transport failure. One
/// failed operation pays the connect timeout; everything else inside
/// the window degrades to local-only immediately, so a dead or
/// unroutable daemon costs a sweep one timeout per window instead of
/// one per artifact. Any successful remote operation closes the window
/// early, so a daemon restart is picked up on the next attempt.
const REMOTE_BACKOFF: Duration = Duration::from_secs(5);

/// Monotonic hit/miss counters of one [`Store`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Lookups served from the in-memory tier.
    pub mem_hits: u64,
    /// Lookups served from disk (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing (or a corrupted object).
    pub misses: u64,
    /// Artifacts written.
    pub puts: u64,
    /// Lookups served from the remote tier (validated, then written
    /// into the local disk tier).
    pub remote_hits: u64,
    /// Remote lookups the daemon answered `404` for, or whose bytes
    /// failed the client-side checksum (wire corruption degrades to a
    /// miss, exactly like disk corruption).
    pub remote_misses: u64,
    /// Local puts write-through-published to the remote tier.
    pub remote_publishes: u64,
    /// Remote operations that failed at the transport level (daemon
    /// down, timeout, protocol violation). The store degrades to
    /// local-only on every one of these.
    pub remote_errors: u64,
}

impl StoreCounters {
    /// Total lookups served from any tier.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.remote_hits
    }
}

/// A disk object listed by [`Store::entries`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Artifact key.
    pub key: Digest128,
    /// Container file size in bytes.
    pub bytes: u64,
    /// Last-modified time of the container file.
    pub modified: SystemTime,
}

/// Result of a [`Store::gc`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Objects deleted.
    pub deleted: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Objects (and bytes) surviving the sweep.
    pub kept: usize,
    /// Bytes still stored after the sweep.
    pub kept_bytes: u64,
}

/// Result of a [`Store::verify`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Objects examined (every `.ppc` file in a shard).
    pub checked: usize,
    /// Objects whose container decoded with all checksums intact.
    pub ok: usize,
    /// Keys whose object failed to read or decode.
    pub corrupt: Vec<Digest128>,
}

impl VerifyReport {
    /// Whether every object verified clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

#[derive(Debug)]
struct MemEntry {
    sections: Arc<Vec<Section>>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct MemTier {
    map: HashMap<Digest128, MemEntry>,
    bytes: usize,
    tick: u64,
}

impl MemTier {
    fn touch(&mut self, key: &Digest128) -> Option<Arc<Vec<Section>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.sections)
        })
    }

    fn insert(&mut self, key: Digest128, sections: Arc<Vec<Section>>, budget: usize) {
        let bytes: usize = sections.iter().map(|s| s.bytes.len() + 24).sum();
        if bytes > budget {
            return; // larger than the whole tier: disk-only
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            MemEntry {
                sections,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        // Evict least-recently-used entries until under budget. Linear
        // scan per eviction is fine at tens of artifacts.
        while self.bytes > budget {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
            }
        }
    }

    fn remove(&mut self, key: &Digest128) {
        if let Some(e) = self.map.remove(key) {
            self.bytes -= e.bytes;
        }
    }
}

/// The tiered content-addressed store: memory LRU → local disk →
/// optional remote object endpoint.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    mem_budget: usize,
    mem: Mutex<MemTier>,
    remote: Option<RemoteTier>,
    /// End of the current remote-failure backoff window, if one is open.
    remote_retry_after: Mutex<Option<Instant>>,
    mem_hits: InstanceCounter,
    disk_hits: InstanceCounter,
    misses: InstanceCounter,
    puts: InstanceCounter,
    remote_hits: InstanceCounter,
    remote_misses: InstanceCounter,
    remote_publishes: InstanceCounter,
    remote_errors: InstanceCounter,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory layout.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        Store::with_mem_budget(root, DEFAULT_MEM_BUDGET_BYTES)
    }

    /// [`Store::open`] with an explicit in-memory tier budget in bytes
    /// (0 disables the memory tier).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory layout.
    pub fn with_mem_budget(root: impl Into<PathBuf>, mem_budget: usize) -> io::Result<Store> {
        // Every `charstore_*` family registers here, so it renders at
        // zero on `/metrics` before any store traffic: a daemon whose
        // remote hits all happen in client processes still exposes
        // the full set.
        LazyLock::force(&METRICS);
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Store {
            root,
            mem_budget,
            mem: Mutex::new(MemTier::default()),
            remote: None,
            remote_retry_after: Mutex::new(None),
            mem_hits: InstanceCounter::new("charstore_mem_hits_total"),
            disk_hits: InstanceCounter::new("charstore_disk_hits_total"),
            misses: InstanceCounter::new("charstore_misses_total"),
            puts: InstanceCounter::new("charstore_puts_total"),
            remote_hits: InstanceCounter::new("charstore_remote_hits_total"),
            remote_misses: InstanceCounter::new("charstore_remote_misses_total"),
            remote_publishes: InstanceCounter::new("charstore_remote_publishes_total"),
            remote_errors: InstanceCounter::new("charstore_remote_errors_total"),
        })
    }

    /// Attaches a remote object tier behind the local tiers: `get`
    /// misses fall through to the endpoint (the fetched container is
    /// re-checksummed client-side, written into the local disk tier and
    /// promoted to memory, so the next lookup is local), and every
    /// successful `put` is write-through-published so other workers
    /// sharing the same daemon see it. Every remote failure — daemon
    /// down, timeout, corrupt bytes — degrades to local-only operation
    /// with a counter bump, never an error.
    #[must_use]
    pub fn with_remote(mut self, remote: RemoteTier) -> Store {
        self.remote = Some(remote);
        self
    }

    /// The attached remote tier, if any.
    #[must_use]
    pub fn remote(&self) -> Option<&RemoteTier> {
        self.remote.as_ref()
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of this instance's hit/miss counters.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            mem_hits: self.mem_hits.get(),
            disk_hits: self.disk_hits.get(),
            misses: self.misses.get(),
            puts: self.puts.get(),
            remote_hits: self.remote_hits.get(),
            remote_misses: self.remote_misses.get(),
            remote_publishes: self.remote_publishes.get(),
            remote_errors: self.remote_errors.get(),
        }
    }

    /// Sharded object path: `objects/<2-hex-prefix>/<32-hex>.ppc`.
    fn object_path(&self, key: Digest128) -> PathBuf {
        self.root
            .join("objects")
            .join(format!("{:02x}", key.0[0]))
            .join(format!("{}.{OBJECT_EXT}", key.to_hex()))
    }

    fn lock_file(&self) -> io::Result<fs::File> {
        fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.root.join(".lock"))
    }

    /// Looks up an artifact: memory tier first, then disk (verifying
    /// checksums and promoting to memory), then — when a remote tier is
    /// attached — the remote endpoint (re-checksumming the fetched
    /// bytes and writing them into the local disk tier, so the next
    /// lookup is local). A corrupted or unreadable object counts as a
    /// miss, whichever tier it came from. A disk miss opens one path,
    /// the key's shard file.
    #[must_use]
    pub fn get(&self, key: Digest128) -> Option<Arc<Vec<Section>>> {
        let mut span = obs::span("store_get");
        let result = METRICS.get_seconds.time(|| self.get_inner(key));
        span.field("key", key.to_hex());
        span.field("hit", result.is_some());
        result
    }

    fn get_inner(&self, key: Digest128) -> Option<Arc<Vec<Section>>> {
        if let Some(hit) = self.mem.lock().expect("mem tier poisoned").touch(&key) {
            self.mem_hits.inc();
            return Some(hit);
        }
        let loaded = (|| -> io::Result<Arc<Vec<Section>>> {
            // Shared lock: a concurrent gc (exclusive) cannot delete the
            // object between the read and the checksum verification.
            let lock = self.lock_file()?;
            lock.lock_shared()?;
            let result =
                fs::read(self.object_path(key)).and_then(|bytes| container::decode(&bytes));
            let _ = lock.unlock();
            Ok(Arc::new(result?))
        })();
        match loaded {
            Ok(sections) => {
                self.disk_hits.inc();
                self.mem.lock().expect("mem tier poisoned").insert(
                    key,
                    Arc::clone(&sections),
                    self.mem_budget,
                );
                Some(sections)
            }
            Err(_) => {
                if let Some(sections) = self.fetch_remote(key) {
                    return Some(sections);
                }
                self.misses.inc();
                None
            }
        }
    }

    /// Whether the remote tier is inside its post-failure backoff
    /// window. A skipped operation counts as a remote error — it
    /// degraded to local-only for the same reason the window opened.
    fn remote_backed_off(&self) -> bool {
        let backed_off = matches!(
            *self.remote_retry_after.lock().expect("backoff poisoned"),
            Some(until) if Instant::now() < until
        );
        if backed_off {
            self.remote_errors.inc();
        }
        backed_off
    }

    /// Records a remote transport failure: bump the counter and open
    /// (or extend) the backoff window.
    fn remote_failed(&self) {
        self.remote_errors.inc();
        *self.remote_retry_after.lock().expect("backoff poisoned") =
            Some(Instant::now() + REMOTE_BACKOFF);
    }

    /// Records a successful remote round trip: close any backoff window.
    fn remote_recovered(&self) {
        *self.remote_retry_after.lock().expect("backoff poisoned") = None;
    }

    /// The remote leg of [`Store::get`]: fetch, validate client-side,
    /// populate the local tiers. `None` on any remote miss, corruption
    /// or transport failure (counted separately — a dead daemon is not
    /// the same signal as an object nobody has computed yet).
    fn fetch_remote(&self, key: Digest128) -> Option<Arc<Vec<Section>>> {
        let remote = self.remote.as_ref()?;
        if self.remote_backed_off() {
            return None;
        }
        let mut span = obs::span("store_remote_fetch");
        span.field("key", key.to_hex());
        let fetch_started = Instant::now();
        let fetched = remote.fetch(key);
        METRICS
            .remote_fetch_seconds
            .observe_duration(fetch_started.elapsed());
        let bytes = match fetched {
            Ok(Some(bytes)) => {
                self.remote_recovered();
                bytes
            }
            Ok(None) => {
                self.remote_recovered();
                self.remote_misses.inc();
                return None;
            }
            Err(_) => {
                self.remote_failed();
                return None;
            }
        };
        // The whole-file checksum is re-validated here, client-side: a
        // flipped byte anywhere on the wire (or on the daemon's disk)
        // degrades to a miss exactly like local disk corruption.
        let Ok(sections) = container::decode(&bytes) else {
            self.remote_misses.inc();
            return None;
        };
        self.remote_hits.inc();
        // Populate the local disk tier with the already-validated bytes
        // (best-effort: a full disk only costs the next lookup a
        // re-fetch), then promote to memory.
        let _ = self.write_encoded(key, &bytes);
        let sections = Arc::new(sections);
        self.mem.lock().expect("mem tier poisoned").insert(
            key,
            Arc::clone(&sections),
            self.mem_budget,
        );
        Some(sections)
    }

    /// Raw container bytes of an object, for serving over the wire:
    /// the disk file read **without** validation — the consumer
    /// re-checksums client-side, so a corrupt file degrades to a miss
    /// at the far end instead of costing this process a decode. Always
    /// reads disk (a put lands there synchronously, and re-encoding a
    /// memory-tier hit would cost a full checksum recomputation per
    /// serve for bytes the page cache already holds). Never consults
    /// the remote tier and touches no hit/miss counters (object
    /// servers account for themselves).
    #[must_use]
    pub fn get_encoded(&self, key: Digest128) -> Option<Vec<u8>> {
        let lock = self.lock_file().ok()?;
        lock.lock_shared().ok()?;
        let bytes = fs::read(self.object_path(key)).ok();
        let _ = lock.unlock();
        bytes
    }

    /// Whether an artifact exists (either tier), without promoting it.
    #[must_use]
    pub fn contains(&self, key: Digest128) -> bool {
        self.mem
            .lock()
            .expect("mem tier poisoned")
            .map
            .contains_key(&key)
            || self.object_path(key).exists()
    }

    /// Stages already-encoded container bytes into the sharded disk
    /// tier under the shared advisory lock, with the writer-unique
    /// temp-file + atomic-rename discipline. Shared by [`Store::put`]
    /// and the remote-hit populate path.
    fn write_encoded(&self, key: Digest128, encoded: &[u8]) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let final_path = self.object_path(key);
        // Unique per process *and* per thread: concurrent writers must
        // never stage into the same temp file.
        let tmp_path = final_path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let lock = self.lock_file()?;
        lock.lock_shared()?;
        let result = (|| -> io::Result<()> {
            if let Some(shard) = final_path.parent() {
                fs::create_dir_all(shard)?;
            }
            fs::write(&tmp_path, encoded)?;
            fs::rename(&tmp_path, &final_path)
        })();
        let _ = lock.unlock();
        if result.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        result
    }

    /// Stores an artifact under `key`, populating both local tiers and
    /// — when a remote tier is attached — write-through-publishing the
    /// encoded container to the endpoint (best-effort: a dead daemon
    /// bumps `remote_errors` and the put still succeeds locally). Safe
    /// against concurrent writers of the same key: both stage to unique
    /// temp files and the last atomic rename wins (contents are
    /// identical by construction — the key commits to the inputs).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from staging or renaming the object file.
    pub fn put(&self, key: Digest128, sections: Vec<Section>) -> io::Result<()> {
        let encoded = container::encode(&sections);
        self.finish_put(key, &encoded, sections)
    }

    /// Ingests an **already-encoded** container: validates every
    /// checksum, then stores the bytes exactly as received. This is the
    /// daemon's `PUT /object/…` path — the received buffer *is* the
    /// canonical encoding, so re-encoding the decoded sections (as
    /// [`Store::put`] must) would only rebuild, byte for byte, an
    /// allocation already in hand.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the container fails validation (the payload is
    /// never stored), or any I/O error from staging the object file.
    pub fn put_encoded(&self, key: Digest128, encoded: &[u8]) -> io::Result<()> {
        let sections = container::decode(encoded)?;
        self.finish_put(key, encoded, sections)
    }

    /// The shared tail of [`Store::put`] / [`Store::put_encoded`]:
    /// stage the bytes, populate the memory tier, publish write-through.
    fn finish_put(&self, key: Digest128, encoded: &[u8], sections: Vec<Section>) -> io::Result<()> {
        let mut span = obs::span("store_put");
        span.field("key", key.to_hex());
        span.field("bytes", encoded.len());
        let put_started = Instant::now();
        self.write_encoded(key, encoded)?;
        METRICS.put_seconds.observe_duration(put_started.elapsed());
        self.puts.inc();
        self.mem.lock().expect("mem tier poisoned").insert(
            key,
            Arc::new(sections),
            self.mem_budget,
        );
        if let Some(remote) = &self.remote {
            if !self.remote_backed_off() {
                match remote.publish(key, encoded) {
                    Ok(()) => {
                        self.remote_recovered();
                        self.remote_publishes.inc();
                    }
                    Err(_) => {
                        self.remote_failed();
                    }
                }
            }
        }
        Ok(())
    }

    /// The shard directories `objects/<2-hex>/`: the only directories
    /// the store reads, lists or deletes objects in.
    fn shard_dirs(&self) -> io::Result<Vec<PathBuf>> {
        let mut shards = Vec::new();
        for entry in Store::read_dir_tolerant(&self.root.join("objects"))? {
            let path = entry.path();
            let is_shard = path.is_dir()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit()));
            if is_shard {
                shards.push(path);
            }
        }
        Ok(shards)
    }

    /// Collects a directory's entries, treating the directory (or any
    /// entry) vanishing mid-walk as "nothing there" rather than an
    /// error — the same `NotFound` tolerance `entries()` applies to
    /// per-file stats, extended to the directory level so a file or
    /// shard deleted mid-walk can never error a stats or sweep call.
    fn read_dir_tolerant(dir: &Path) -> io::Result<Vec<fs::DirEntry>> {
        let iter = match fs::read_dir(dir) {
            Ok(iter) => iter,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in iter {
            match entry {
                Ok(e) => out.push(e),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Parses `<32-hex>.ppc` into its key.
    fn entry_key(path: &Path) -> Option<Digest128> {
        if path.extension().and_then(|e| e.to_str()) != Some(OBJECT_EXT) {
            return None;
        }
        path.file_stem()
            .and_then(|s| s.to_str())
            .and_then(Digest128::from_hex)
    }

    /// Lists all disk objects (unordered): every `<32-hex>.ppc` file in
    /// its key's shard, which is exactly what [`Store::get`] can read.
    ///
    /// Takes the shared advisory lock for the walk, so a concurrent gc
    /// (exclusive) can never delete objects between the directory
    /// listing and the per-file `stat` — the read that used to turn a
    /// concurrent sweep into a spurious `NotFound` error.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the objects directories.
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        let lock = self.lock_file()?;
        lock.lock_shared()?;
        let result = self.entries_unlocked();
        let _ = lock.unlock();
        result
    }

    /// The walk behind [`Store::entries`], without taking the advisory
    /// lock — for callers already holding it ([`Store::gc`] holds the
    /// exclusive lock; acquiring the shared lock on a second descriptor
    /// of the same file would deadlock against ourselves). A file
    /// deleted between the listing and its `stat` is skipped, not an
    /// error.
    fn entries_unlocked(&self) -> io::Result<Vec<EntryInfo>> {
        let mut out = Vec::new();
        for shard in self.shard_dirs()? {
            for entry in Store::read_dir_tolerant(&shard)? {
                let path = entry.path();
                let Some(key) = Store::entry_key(&path).filter(|&k| path == self.object_path(k))
                else {
                    continue;
                };
                let meta = match entry.metadata() {
                    Ok(m) => m,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e),
                };
                out.push(EntryInfo {
                    key,
                    bytes: meta.len(),
                    modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        Ok(out)
    }

    /// Total bytes of the objects [`Store::entries`] lists; files
    /// outside the shards count for nothing.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the objects directories.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        Ok(self.entries()?.iter().map(|e| e.bytes).sum())
    }

    /// Deletes objects oldest-first (by modification time) until those
    /// [`Store::entries`] lists total at most `max_bytes`. Takes the
    /// exclusive advisory lock, so concurrent readers and writers in
    /// other processes are excluded for the duration of the sweep. Also
    /// removes staging temp files orphaned by crashed writers from
    /// `objects/` and every shard: a live writer stages only while
    /// holding the shared lock, so any `*.tmp.*` file visible under the
    /// exclusive lock is garbage.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing or deleting objects.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let lock = self.lock_file()?;
        lock.lock()?;
        let result = (|| -> io::Result<GcReport> {
            let objects = self.root.join("objects");
            for dir in std::iter::once(objects).chain(self.shard_dirs()?) {
                for entry in Store::read_dir_tolerant(&dir)? {
                    let path = entry.path();
                    let is_orphan_tmp = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.contains(".tmp."));
                    if is_orphan_tmp {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
            let mut entries = self.entries_unlocked()?;
            entries.sort_by_key(|e| (e.modified, e.key));
            let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
            let mut report = GcReport {
                deleted: 0,
                freed_bytes: 0,
                kept: entries.len(),
                kept_bytes: total,
            };
            let mut mem = self.mem.lock().expect("mem tier poisoned");
            for e in &entries {
                if total <= max_bytes {
                    break;
                }
                // An object deleted by hand between the listing and the
                // delete is already the outcome gc wanted — count it
                // freed rather than erroring the sweep.
                match fs::remove_file(self.object_path(e.key)) {
                    Ok(()) => {}
                    Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                    Err(err) => return Err(err),
                }
                mem.remove(&e.key);
                total -= e.bytes;
                report.deleted += 1;
                report.freed_bytes += e.bytes;
                report.kept -= 1;
                report.kept_bytes -= e.bytes;
            }
            Ok(report)
        })();
        let _ = lock.unlock();
        result
    }

    /// Re-checksums every object [`Store::entries`] lists: reads each
    /// container and runs the full whole-file + per-section checksum
    /// validation of [`container::decode`], without touching the memory
    /// tier or the hit/miss counters. Files outside the shards are not
    /// objects and are not checked.
    ///
    /// Holds the shared advisory lock for the sweep so a concurrent gc
    /// cannot delete objects out from under it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the store. Unreadable or
    /// corrupt *objects* are reported in the [`VerifyReport`], not as
    /// errors.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let lock = self.lock_file()?;
        lock.lock_shared()?;
        let result = (|| -> io::Result<VerifyReport> {
            let mut report = VerifyReport::default();
            for e in self.entries_unlocked()? {
                report.checked += 1;
                let bytes = fs::read(self.object_path(e.key));
                if bytes.is_ok_and(|b| container::decode(&b).is_ok()) {
                    report.ok += 1;
                } else {
                    report.corrupt.push(e.key);
                }
            }
            report.corrupt.sort();
            Ok(report)
        })();
        let _ = lock.unlock();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_store() -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "charstore-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open store");
        (dir, store)
    }

    fn key(n: u8) -> Digest128 {
        crate::digest::digest_bytes("test-key", &[n])
    }

    fn artifact(n: u8, len: usize) -> Vec<Section> {
        vec![
            Section::new(1, vec![n; len]),
            Section::new(2, vec![n ^ 0xff; 8]),
        ]
    }

    #[test]
    fn put_get_round_trips_both_tiers() {
        let (dir, store) = temp_store();
        store.put(key(1), artifact(1, 100)).unwrap();
        // Memory tier hit.
        assert_eq!(*store.get(key(1)).unwrap(), artifact(1, 100));
        assert_eq!(store.counters().mem_hits, 1);
        // Fresh instance: disk tier hit, then promoted.
        let cold = Store::open(&dir).unwrap();
        assert_eq!(*cold.get(key(1)).unwrap(), artifact(1, 100));
        assert_eq!(cold.counters().disk_hits, 1);
        assert_eq!(*cold.get(key(1)).unwrap(), artifact(1, 100));
        assert_eq!(cold.counters().mem_hits, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_key_counts_as_miss() {
        let (dir, store) = temp_store();
        assert!(store.get(key(9)).is_none());
        assert_eq!(store.counters().misses, 1);
        assert!(!store.contains(key(9)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_object_is_a_miss_not_an_error() {
        let (dir, store) = temp_store();
        store.put(key(2), artifact(2, 64)).unwrap();
        let path = store.object_path(key(2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let cold = Store::open(&dir).unwrap();
        assert!(cold.get(key(2)).is_none());
        assert_eq!(cold.counters().misses, 1);
        // Recompute-and-overwrite heals the store.
        cold.put(key(2), artifact(2, 64)).unwrap();
        let healed = Store::open(&dir).unwrap();
        assert!(healed.get(key(2)).is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lru_evicts_by_recency_within_budget() {
        let (dir, _) = temp_store();
        // Budget fits two ~1 KiB artifacts but not three.
        let store = Store::with_mem_budget(&dir, 2300).unwrap();
        store.put(key(1), artifact(1, 1000)).unwrap();
        store.put(key(2), artifact(2, 1000)).unwrap();
        let _ = store.get(key(1)); // 1 is now more recent than 2
        store.put(key(3), artifact(3, 1000)).unwrap(); // evicts 2
        {
            let mem = store.mem.lock().unwrap();
            assert!(mem.map.contains_key(&key(1)));
            assert!(!mem.map.contains_key(&key(2)));
            assert!(mem.map.contains_key(&key(3)));
        }
        // Evicted entries are still served from disk.
        assert!(store.get(key(2)).is_some());
        assert_eq!(store.counters().disk_hits, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_artifact_bypasses_memory_tier() {
        let (dir, _) = temp_store();
        let store = Store::with_mem_budget(&dir, 100).unwrap();
        store.put(key(4), artifact(4, 1000)).unwrap();
        assert!(store.mem.lock().unwrap().map.is_empty());
        assert!(store.get(key(4)).is_some()); // disk
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn entries_and_gc_enforce_byte_budget() {
        let (dir, store) = temp_store();
        for n in 0..4 {
            store.put(key(n), artifact(n, 500)).unwrap();
        }
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 4);
        let per_object = entries[0].bytes;
        let report = store.gc(2 * per_object).unwrap();
        assert_eq!(report.deleted, 2);
        assert_eq!(report.kept, 2);
        assert!(store.disk_bytes().unwrap() <= 2 * per_object);
        // gc also dropped the deleted keys from the memory tier.
        let survivors = store
            .entries()
            .unwrap()
            .iter()
            .map(|e| e.key)
            .collect::<Vec<_>>();
        let mem = store.mem.lock().unwrap();
        for k in mem.map.keys() {
            assert!(survivors.contains(k));
        }
        drop(mem);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_to_zero_clears_the_store() {
        let (dir, store) = temp_store();
        store.put(key(1), artifact(1, 10)).unwrap();
        let report = store.gc(0).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.kept_bytes, 0);
        assert!(store.get(key(1)).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_sweeps_orphaned_staging_files() {
        let (dir, store) = temp_store();
        store.put(key(1), artifact(1, 50)).unwrap();
        // Simulate a writer that crashed between stage and rename.
        let orphan = dir.join("objects").join("deadbeef.tmp.1234.0");
        fs::write(&orphan, b"half-written").unwrap();
        // Orphans are invisible to entries() but reclaimed by gc, even
        // when the byte budget deletes nothing.
        assert_eq!(store.entries().unwrap().len(), 1);
        let report = store.gc(u64::MAX).unwrap();
        assert_eq!(report.deleted, 0);
        assert!(!orphan.exists(), "orphaned temp file survived gc");
        assert!(store.get(key(1)).is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn objects_land_in_two_hex_prefix_shards() {
        let (dir, store) = temp_store();
        for n in 0..8 {
            store.put(key(n), artifact(n, 40)).unwrap();
        }
        for n in 0..8 {
            let k = key(n);
            let path = store.object_path(k);
            assert!(path.exists(), "object {k} not at sharded path");
            let shard = path
                .parent()
                .and_then(|p| p.file_name())
                .and_then(|n| n.to_str())
                .expect("shard dir")
                .to_string();
            assert_eq!(shard, format!("{:02x}", k.0[0]));
        }
        assert_eq!(store.entries().unwrap().len(), 8);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn verify_reports_clean_and_corrupt_objects() {
        let (dir, store) = temp_store();
        for n in 0..5 {
            store.put(key(n), artifact(n, 80)).unwrap();
        }
        let clean = store.verify().unwrap();
        assert_eq!(clean.checked, 5);
        assert_eq!(clean.ok, 5);
        assert!(clean.is_clean());

        // Flip a byte in one object: verify flags exactly that key.
        let victim = key(3);
        let path = store.object_path(victim);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let dirty = store.verify().unwrap();
        assert_eq!(dirty.checked, 5);
        assert_eq!(dirty.ok, 4);
        assert_eq!(dirty.corrupt, vec![victim]);
        assert!(!dirty.is_clean());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_get_put_and_gc_leave_store_clean() {
        // The charserve daemon shares one Store between its front-end
        // (gets), its workers (puts) and an operator's gc sweeps. Two
        // threads hammer get/put on the same key against ONE instance
        // while a third repeatedly sweeps everything (`gc --max-bytes
        // 0`): no operation may error, a successful get must always
        // decode to the exact artifact (content-addressing makes a
        // stale-but-valid read legal, a corrupt one never), and the
        // store must verify clean afterwards.
        let (dir, store) = temp_store();
        let expected = artifact(11, 400);
        store.put(key(11), expected.clone()).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..150 {
                    store.put(key(11), artifact(11, 400)).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if let Some(got) = store.get(key(11)) {
                        assert_eq!(*got, expected, "reader observed a corrupt artifact");
                    }
                }
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let report = store.gc(0).unwrap();
                    assert!(report.kept_bytes == 0, "gc to zero left bytes behind");
                }
            });
        });
        let report = store.verify().unwrap();
        assert!(
            report.is_clean(),
            "store corrupt after concurrent get/put/gc: {:?}",
            report.corrupt
        );
        // The store still works: a fresh put round-trips on disk.
        store.put(key(11), expected.clone()).unwrap();
        let cold = Store::open(&dir).unwrap();
        assert_eq!(*cold.get(key(11)).unwrap(), expected);
        assert!(Store::open(&dir).unwrap().verify().unwrap().is_clean());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_writers_of_same_key_are_safe() {
        let (dir, _) = temp_store();
        let dir2 = dir.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = dir2.clone();
                s.spawn(move || {
                    let store = Store::open(&d).unwrap();
                    for round in 0..10 {
                        store.put(key(7), artifact(7, 300)).unwrap();
                        let got = Store::open(&d).unwrap().get(key(7));
                        assert!(got.is_some(), "round {round}");
                    }
                });
            }
        });
        let _ = fs::remove_dir_all(dir);
    }
}
