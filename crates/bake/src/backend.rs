//! Storage backends for the generic [`crate::store::KeyedStore`].
//!
//! A backend is a flat namespace of named, atomically replaceable blobs —
//! exactly what the persistence layer needs and nothing more. The store
//! owns every *policy* (lazy indexing, dirty tracking, pruning, corruption
//! tolerance, statistics); a backend owns only the *mechanism* of listing,
//! reading and atomically writing entry files, so a new storage substrate
//! (an object store, a network share, a test double) plugs in by
//! implementing five methods.
//!
//! Three backends ship here:
//!
//! * [`DirBackend`] — one local directory, one file per entry, written via
//!   a process-unique temporary and renamed into place. This is the
//!   pre-existing on-disk layout, byte for byte: stores written by earlier
//!   versions open unchanged, and CI cache keys keyed on the format
//!   version keep working.
//! * [`MemBackend`] — an in-memory map behind a mutex. Used as the "remote
//!   object store" stand-in in tests and as the simplest possible
//!   reference implementation of the contract.
//! * [`SharedBackend`] — a local [`DirBackend`] layered over a shared
//!   remote backend, read-through and write-through: reads that miss the
//!   local layer are served from the remote and populate the local copy,
//!   writes land in both. A build farm points every machine's local layer
//!   at one shared remote and each entry is baked once, fleet-wide.
//!
//! # Contract
//!
//! * `list` returns candidate entry files only: names carrying the
//!   backend's extension, excluding in-flight `.tmp-` temporaries. Foreign
//!   names are harmless (the store ignores anything its codec cannot
//!   parse), but backends should not invent entries.
//! * `write_atomic(name, bytes)` must never expose a torn entry to a
//!   concurrent reader: either the old blob or the complete new one.
//! * `remove` and `sweep_tmp` are local maintenance: a layered backend
//!   confines them to its local layer — **pruning never evicts the shared
//!   remote** (see [`SharedBackend`]).
//! * Determinism: a backend stores and returns entry bytes verbatim. The
//!   worker/backend choice never changes output bits (`docs/stores.md`,
//!   `docs/determinism.md`).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

/// Listing metadata of one stored entry blob — everything pruning needs
/// (age + size) without reading any payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Entry file name (the flat key of the backend namespace).
    pub name: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Last-modified time (best effort; backends without timestamps report
    /// their creation-order approximation).
    pub modified: SystemTime,
}

/// A flat namespace of named, atomically replaceable entry blobs — the
/// pluggable substrate under [`crate::store::KeyedStore`]. See the module
/// docs for the contract.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Lists the candidate entry blobs currently visible (local and, for
    /// layered backends, remote), excluding in-flight temporaries.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the namespace itself cannot be
    /// enumerated (a missing local directory lists as empty, not an error).
    fn list(&self) -> io::Result<Vec<EntryMeta>>;

    /// The subset of [`StoreBackend::list`] that pruning may remove. The
    /// default is everything; layered backends override this to confine
    /// retention sweeps to their local layer.
    ///
    /// # Errors
    ///
    /// Same as [`StoreBackend::list`].
    fn list_prunable(&self) -> io::Result<Vec<EntryMeta>> {
        self.list()
    }

    /// Reads one entry's bytes.
    ///
    /// # Errors
    ///
    /// `NotFound` when no such entry exists; otherwise the underlying
    /// error. Callers treat any error as "entry unavailable" and rebuild.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Writes one entry so that a concurrent reader observes either the old
    /// blob or the complete new one, never a torn write.
    ///
    /// # Errors
    ///
    /// Returns the underlying error; a failed write must not leave a
    /// partially visible entry.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Removes one entry (from the local layer of a layered backend).
    ///
    /// # Errors
    ///
    /// `NotFound` when no such entry exists; otherwise the underlying
    /// error. Pruning treats per-entry failures as skips.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Removes temporaries orphaned by a crash between write and rename
    /// (local layer only). Per-file failures are skipped.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the namespace cannot be
    /// enumerated.
    fn sweep_tmp(&self) -> io::Result<()>;

    /// One-line human-readable description (for logs and reports).
    fn describe(&self) -> String;

    /// Resilience counters for layered backends ([`SharedBackend`] retries,
    /// degradation, local-layer faults). Simple backends have nothing to
    /// report; decorators forward to their inner backend.
    fn resilience(&self) -> ResilienceStats {
        ResilienceStats::default()
    }
}

// ---------------------------------------------------------------------------
// Resilience: retry policy, remote health, counters
// ---------------------------------------------------------------------------

/// Bounded-retry policy for remote-side store operations.
///
/// Applied by [`SharedBackend`] to *transient* remote errors (timeouts,
/// connection resets and friends — see [`RetryPolicy::is_transient`]):
/// a failing call is re-attempted up to `max_attempts` total tries with a
/// doubling `backoff` between tries. `NotFound` is a normal answer, never
/// retried; non-transient kinds fail fast. When the attempts are exhausted
/// the backend trips its circuit breaker and degrades to local-only service
/// (see [`RemoteHealth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per logical operation (1 = no retries). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three tries with a 1 ms initial backoff — enough to ride out blips
    /// without stalling a build on a genuinely dead remote.
    fn default() -> Self {
        Self { max_attempts: 3, backoff: Duration::from_millis(1) }
    }
}

impl RetryPolicy {
    /// A policy with the given attempt bound and initial backoff.
    pub fn new(max_attempts: u32, backoff: Duration) -> Self {
        Self { max_attempts, backoff }
    }

    /// No retries: every remote error is final.
    pub fn none() -> Self {
        Self { max_attempts: 1, backoff: Duration::ZERO }
    }

    /// Whether an error kind is worth retrying: the transport may recover
    /// on the next attempt. Semantic errors (`NotFound`, `InvalidInput`,
    /// permission failures, full disks) are not transient.
    pub fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::ConnectionRefused
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        )
    }
}

/// Circuit-breaker state of a layered backend's remote side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteHealth {
    /// Remote operations are attempted (with retries) as usual.
    Healthy,
    /// The remote failed persistently; operations are served local-only and
    /// the remote is re-probed periodically.
    Degraded,
}

/// Resilience counters surfaced through [`StoreBackend::resilience`] and
/// merged into `StoreStats` by the store layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Logical remote operations attempted (each may span several tries).
    pub remote_ops: usize,
    /// Remote operations that failed after exhausting their retry budget
    /// (or failed a degraded-mode probe).
    pub remote_errors: usize,
    /// Individual retries performed on transient remote errors.
    pub retries: usize,
    /// Operations short-circuited to local-only because the remote was
    /// degraded at the time.
    pub degraded_ops: usize,
    /// Local-layer errors other than `NotFound` observed on the read path
    /// (a corrupt or unreadable local entry hidden behind a remote
    /// fallback).
    pub local_errors: usize,
    /// Whether the remote is currently degraded.
    pub degraded: bool,
}

impl ResilienceStats {
    /// The circuit-breaker state this snapshot was taken in.
    pub fn health(&self) -> RemoteHealth {
        if self.degraded {
            RemoteHealth::Degraded
        } else {
            RemoteHealth::Healthy
        }
    }
}

/// Process-unique suffix for in-flight temporary files. Unique per call,
/// not just per process: concurrent flushes of one entry must never share
/// a temporary.
fn tmp_suffix() -> String {
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    format!(".tmp-{}-{}", std::process::id(), TMP_SEQ.fetch_add(1, Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// DirBackend
// ---------------------------------------------------------------------------

/// The classic one-directory, one-file-per-entry backend. Writes go to a
/// process-unique `<name>.tmp-<pid>-<seq>` sibling and are renamed into
/// place, so concurrent readers never observe a torn entry. The layout is
/// byte-identical to the pre-`KeyedStore` stores.
///
/// The namespace is strictly **flat**: names containing a path separator
/// are rejected with `InvalidInput` (its non-recursive `list` could never
/// return them, so accepting such a write would create an entry that is
/// invisible to indexing — a silent sharing failure). Nesting several
/// stores in one directory tree is done at the *path* level
/// ([`crate::store::StoreOptions::subdir`] joins directories); the
/// name-prefix wrapper [`PrefixedBackend`] is for genuinely flat
/// namespaces like [`MemBackend`].
#[derive(Debug, Clone)]
pub struct DirBackend {
    dir: PathBuf,
    extension: String,
}

impl DirBackend {
    /// Opens (creating if missing) a directory backend for entry files with
    /// the given extension (no leading dot).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>, extension: &str) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, extension: extension.to_string() })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rejects names that would escape the flat namespace (see the type
    /// docs): such an entry could be written but never listed back.
    fn flat(name: &str) -> io::Result<&str> {
        if name.contains('/') || name.contains('\\') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("entry name {name:?} is nested; DirBackend namespaces are flat"),
            ));
        }
        Ok(name)
    }
}

impl StoreBackend for DirBackend {
    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        let listing = match std::fs::read_dir(&self.dir) {
            Ok(listing) => listing,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        let suffix = format!(".{}", self.extension);
        let now = SystemTime::now();
        let mut entries = Vec::new();
        for file in listing {
            let Ok(file) = file else { continue };
            let Some(name) = file.file_name().to_str().map(str::to_string) else { continue };
            if !name.ends_with(&suffix) || name.contains(".tmp-") {
                continue;
            }
            let Ok(meta) = file.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            entries.push(EntryMeta {
                name,
                size: meta.len(),
                modified: meta.modified().unwrap_or(now),
            });
        }
        Ok(entries)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(Self::flat(name)?))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let path = self.dir.join(Self::flat(name)?);
        let tmp = self.dir.join(format!("{name}{}", tmp_suffix()));
        let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, &path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.dir.join(Self::flat(name)?))
    }

    fn sweep_tmp(&self) -> io::Result<()> {
        let listing = match std::fs::read_dir(&self.dir) {
            Ok(listing) => listing,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(err) => return Err(err),
        };
        // Only sweep temporaries of *this* store's entries (possibly another
        // process's — entry content is deterministic, so a live writer's
        // rename losing to this unlink only costs a re-flush next run).
        let marker = format!(".{}.tmp-", self.extension);
        for file in listing.flatten() {
            if file.file_name().to_str().is_some_and(|n| n.contains(&marker)) {
                let _ = std::fs::remove_file(file.path());
            }
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!("dir {}", self.dir.display())
    }
}

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

/// An in-memory backend: the "remote object store" stand-in for tests and
/// the reference implementation of the contract. Share one instance behind
/// an [`Arc`] to model several machines talking to one remote.
#[derive(Debug, Default)]
pub struct MemBackend {
    entries: Mutex<HashMap<String, (Vec<u8>, SystemTime)>>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl StoreBackend for MemBackend {
    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        Ok(self
            .entries
            .lock()
            .expect("mem backend poisoned")
            .iter()
            .map(|(name, (bytes, modified))| EntryMeta {
                name: name.clone(),
                size: bytes.len() as u64,
                modified: *modified,
            })
            .collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.entries
            .lock()
            .expect("mem backend poisoned")
            .get(name)
            .map(|(bytes, _)| bytes.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no entry {name}")))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.entries
            .lock()
            .expect("mem backend poisoned")
            .insert(name.to_string(), (bytes.to_vec(), SystemTime::now()));
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.entries
            .lock()
            .expect("mem backend poisoned")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no entry {name}")))
    }

    fn sweep_tmp(&self) -> io::Result<()> {
        Ok(()) // writes are atomic map inserts; there are no temporaries
    }

    fn describe(&self) -> String {
        format!("mem ({} entries)", self.len())
    }
}

// ---------------------------------------------------------------------------
// SharedBackend
// ---------------------------------------------------------------------------

/// A local directory layered over a shared remote backend — the
/// build-farm-style cross-machine store.
///
/// * **Reads** are read-through: a local hit is served locally; a local
///   miss is fetched from the remote and (best-effort) populated into the
///   local layer, so the next read is local.
/// * **Writes** are write-through: an entry lands in the local layer first,
///   then in the remote, so every other machine sharing the remote sees it.
/// * **Listing** is the union of both layers, which is what lets a machine
///   with a *cold local directory* index a warm remote and re-bake nothing.
/// * **Maintenance** ([`StoreBackend::remove`], [`StoreBackend::sweep_tmp`],
///   [`StoreBackend::list_prunable`]) is confined to the local layer:
///   pruning a machine's local cache never evicts the fleet's shared
///   entries.
///
/// Entries are content-addressed and deterministic, so two machines racing
/// to write one name write identical bytes — last-write-wins is correct by
/// construction (see `docs/stores.md`).
///
/// # Resilience
///
/// Remote calls run under a [`RetryPolicy`]: transient errors are retried
/// with doubling backoff; a call that exhausts its attempts (or fails with
/// a non-transient kind) trips a circuit breaker and the backend degrades
/// to **local-only** service ([`RemoteHealth::Degraded`]): listings show
/// the local layer, reads that miss locally report the remote unavailable
/// (the store rebuilds — correctness is preserved, sharing is not), and
/// writes land locally only. Every [`REPROBE_INTERVAL`]-th remote-needing
/// operation probes the remote once; a successful probe restores
/// [`RemoteHealth::Healthy`]. `NotFound` from the remote is a normal
/// answer — never retried, and it *clears* degradation on a probe (the
/// remote responded). All of it is counted in [`ResilienceStats`] and
/// surfaced through `StoreStats` (see `docs/faults.md`).
#[derive(Debug)]
pub struct SharedBackend {
    local: DirBackend,
    remote: Arc<dyn StoreBackend>,
    policy: RetryPolicy,
    state: Arc<ResilienceState>,
    /// Degraded-mode re-probe cadence, counted per *handle*: each clone
    /// probes on every [`REPROBE_INTERVAL`]-th of its own degraded
    /// operations. The counter deliberately lives outside the shared
    /// [`ResilienceState`] — with a shared counter, a busy clone could
    /// consume all the probe slots and starve a quiet one (or hand it a
    /// probe on its very first operation).
    probe_tick: AtomicUsize,
}

impl Clone for SharedBackend {
    fn clone(&self) -> Self {
        Self {
            local: self.local.clone(),
            remote: Arc::clone(&self.remote),
            policy: self.policy,
            state: Arc::clone(&self.state),
            // Breaker state and counters are shared; the probe cadence
            // starts fresh so the clone probes on its own 16th degraded op.
            probe_tick: AtomicUsize::new(1),
        }
    }
}

/// In degraded mode, every N-th remote-needing operation re-probes the
/// remote instead of short-circuiting, so a recovered remote is picked up
/// without an explicit reset.
pub const REPROBE_INTERVAL: usize = 16;

#[derive(Debug, Default)]
struct ResilienceState {
    degraded: AtomicBool,
    remote_ops: AtomicUsize,
    remote_errors: AtomicUsize,
    retries: AtomicUsize,
    degraded_ops: AtomicUsize,
    local_errors: AtomicUsize,
}

impl SharedBackend {
    /// Layers `local` over `remote` with the default [`RetryPolicy`].
    pub fn new(local: DirBackend, remote: Arc<dyn StoreBackend>) -> Self {
        Self {
            local,
            remote,
            policy: RetryPolicy::default(),
            state: Arc::default(),
            probe_tick: AtomicUsize::new(1),
        }
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Current circuit-breaker state of the remote side.
    pub fn remote_health(&self) -> RemoteHealth {
        if self.state.degraded.load(Ordering::Relaxed) {
            RemoteHealth::Degraded
        } else {
            RemoteHealth::Healthy
        }
    }

    /// Runs one logical remote operation under the retry policy and the
    /// circuit breaker. `NotFound` passes through untouched (a remote that
    /// answers "no such entry" is healthy).
    fn remote_call<T>(&self, op: &str, call: impl Fn() -> io::Result<T>) -> io::Result<T> {
        let state = &self.state;
        state.remote_ops.fetch_add(1, Ordering::Relaxed);
        if state.degraded.load(Ordering::Relaxed) {
            let tick = self.probe_tick.fetch_add(1, Ordering::Relaxed);
            if !tick.is_multiple_of(REPROBE_INTERVAL) {
                state.degraded_ops.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    format!("remote degraded; {op} served local-only"),
                ));
            }
            return match call() {
                Ok(value) => {
                    state.degraded.store(false, Ordering::Relaxed);
                    eprintln!("nerflex store: remote recovered; leaving local-only mode");
                    Ok(value)
                }
                Err(err) if err.kind() == io::ErrorKind::NotFound => {
                    // The remote responded — it is reachable again.
                    state.degraded.store(false, Ordering::Relaxed);
                    Err(err)
                }
                Err(err) => {
                    state.remote_errors.fetch_add(1, Ordering::Relaxed);
                    state.degraded_ops.fetch_add(1, Ordering::Relaxed);
                    Err(err)
                }
            };
        }
        let attempts = self.policy.max_attempts.max(1);
        let mut backoff = self.policy.backoff;
        let mut attempt = 1;
        loop {
            match call() {
                Ok(value) => return Ok(value),
                Err(err) if err.kind() == io::ErrorKind::NotFound => return Err(err),
                Err(err) => {
                    if attempt < attempts && RetryPolicy::is_transient(err.kind()) {
                        attempt += 1;
                        state.retries.fetch_add(1, Ordering::Relaxed);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                            backoff = backoff.saturating_mul(2);
                        }
                        continue;
                    }
                    state.remote_errors.fetch_add(1, Ordering::Relaxed);
                    if !state.degraded.swap(true, Ordering::Relaxed) {
                        self.probe_tick.store(1, Ordering::Relaxed);
                        eprintln!(
                            "nerflex store: remote {op} failed ({err}); degrading to \
                             local-only with periodic re-probe"
                        );
                    }
                    return Err(err);
                }
            }
        }
    }
}

impl StoreBackend for SharedBackend {
    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        let mut entries = self.local.list()?;
        // A degraded or failing remote shrinks the view to the local layer:
        // entries the remote holds get rebuilt instead of shared, which
        // costs time, never bits.
        let Ok(remote) = self.remote_call("list", || self.remote.list()) else {
            return Ok(entries);
        };
        let seen: std::collections::HashSet<String> =
            entries.iter().map(|e| e.name.clone()).collect();
        for meta in remote {
            if !seen.contains(&meta.name) {
                entries.push(meta);
            }
        }
        Ok(entries)
    }

    fn list_prunable(&self) -> io::Result<Vec<EntryMeta>> {
        self.local.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        match self.local.read(name) {
            Ok(bytes) => return Ok(bytes),
            // Only a clean miss falls through silently; any other local
            // error (permissions, corruption) is counted and reported, then
            // the remote gets its chance to serve the entry anyway.
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => {
                self.state.local_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("nerflex store: local read of {name:?} failed ({err}); trying remote");
            }
        }
        let bytes = self.remote_call("read", || self.remote.read(name))?;
        // Populate the local layer so the next read stays local.
        // Best-effort: a full local disk must not fail the lookup.
        let _ = self.local.write_atomic(name, &bytes);
        Ok(bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.local.write_atomic(name, bytes)?;
        // The local layer holds the entry; failing to propagate it to the
        // remote degrades *sharing*, not correctness. The failure is
        // counted (and trips the breaker), not raised.
        let _ = self.remote_call("write", || self.remote.write_atomic(name, bytes));
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.local.remove(name)
    }

    fn sweep_tmp(&self) -> io::Result<()> {
        self.local.sweep_tmp()
    }

    fn describe(&self) -> String {
        let health = match self.remote_health() {
            RemoteHealth::Healthy => "",
            RemoteHealth::Degraded => " (degraded)",
        };
        format!(
            "shared local={} remote=[{}]{health}",
            self.local.dir().display(),
            self.remote.describe()
        )
    }

    fn resilience(&self) -> ResilienceStats {
        ResilienceStats {
            remote_ops: self.state.remote_ops.load(Ordering::Relaxed),
            remote_errors: self.state.remote_errors.load(Ordering::Relaxed),
            retries: self.state.retries.load(Ordering::Relaxed),
            degraded_ops: self.state.degraded_ops.load(Ordering::Relaxed),
            local_errors: self.state.local_errors.load(Ordering::Relaxed),
            degraded: self.state.degraded.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// PrefixedBackend
// ---------------------------------------------------------------------------

/// A view of another backend under a name prefix (`<prefix>/<name>`), used
/// to nest several stores (bake, ground truth) in one flat remote
/// namespace. Directory-backed remotes nest at the path level instead; this
/// wrapper serves flat-namespace backends like [`MemBackend`].
#[derive(Debug, Clone)]
pub struct PrefixedBackend {
    inner: Arc<dyn StoreBackend>,
    prefix: String,
}

impl PrefixedBackend {
    /// Wraps `inner`, mapping every entry name to `<prefix>/<name>`.
    pub fn new(inner: Arc<dyn StoreBackend>, prefix: &str) -> Self {
        Self { inner, prefix: prefix.to_string() }
    }

    fn full(&self, name: &str) -> String {
        format!("{}/{name}", self.prefix)
    }
}

impl StoreBackend for PrefixedBackend {
    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        let marker = format!("{}/", self.prefix);
        Ok(self
            .inner
            .list()?
            .into_iter()
            .filter_map(|meta| {
                let name = meta.name.strip_prefix(&marker)?.to_string();
                Some(EntryMeta { name, ..meta })
            })
            .collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(&self.full(name))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(&self.full(name), bytes)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(&self.full(name))
    }

    fn sweep_tmp(&self) -> io::Result<()> {
        self.inner.sweep_tmp()
    }

    fn describe(&self) -> String {
        format!("{}/{}", self.inner.describe(), self.prefix)
    }

    fn resilience(&self) -> ResilienceStats {
        self.inner.resilience()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique, self-cleaning temporary directory.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "nerflex-backend-test-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn dir_backend_round_trips_and_filters_listing() {
        let tmp = TempDir::new("dir");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        backend.write_atomic("a.nftest", b"alpha").expect("write");
        backend.write_atomic("b.nftest", b"beta").expect("write");
        std::fs::write(tmp.0.join("foreign.txt"), b"ignored").expect("foreign");
        std::fs::write(tmp.0.join("c.nftest.tmp-1-2"), b"in flight").expect("tmp");

        let mut names: Vec<String> =
            backend.list().expect("list").into_iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, ["a.nftest", "b.nftest"]);
        assert_eq!(backend.read("a.nftest").expect("read"), b"alpha");
        assert!(backend.read("missing.nftest").is_err());

        backend.sweep_tmp().expect("sweep");
        assert!(!tmp.0.join("c.nftest.tmp-1-2").exists(), "orphaned temporary swept");
        assert!(tmp.0.join("foreign.txt").exists(), "foreign file untouched");

        backend.remove("a.nftest").expect("remove");
        assert!(backend.read("a.nftest").is_err());
        assert_eq!(backend.list().expect("list").len(), 1);
    }

    #[test]
    fn dir_backend_rejects_nested_names_loudly() {
        // A nested name could be written (create_dir_all would oblige) but
        // never listed back by the non-recursive listing — a silent sharing
        // failure. The backend must reject it up front instead.
        let tmp = TempDir::new("flat");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        for name in ["sub/a.nftest", "..\\b.nftest"] {
            assert_eq!(
                backend.write_atomic(name, b"x").unwrap_err().kind(),
                io::ErrorKind::InvalidInput,
                "{name}"
            );
            assert_eq!(backend.read(name).unwrap_err().kind(), io::ErrorKind::InvalidInput);
            assert_eq!(backend.remove(name).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
        assert!(!tmp.0.join("sub").exists(), "no nested path may be created");
    }

    #[test]
    fn dir_backend_missing_directory_lists_empty() {
        let tmp = TempDir::new("missing");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        std::fs::remove_dir_all(&tmp.0).expect("remove dir");
        assert_eq!(backend.list().expect("list"), Vec::new());
        backend.sweep_tmp().expect("sweep of missing dir is a no-op");
    }

    #[test]
    fn mem_backend_implements_the_contract() {
        let backend = MemBackend::new();
        assert!(backend.is_empty());
        backend.write_atomic("x.nftest", b"payload").expect("write");
        assert_eq!(backend.read("x.nftest").expect("read"), b"payload");
        assert_eq!(backend.list().expect("list").len(), 1);
        assert_eq!(backend.list().expect("list")[0].size, 7);
        assert!(backend.read("y.nftest").is_err());
        backend.remove("x.nftest").expect("remove");
        assert!(backend.remove("x.nftest").is_err(), "double remove is NotFound");
        assert!(backend.is_empty());
    }

    #[test]
    fn shared_backend_reads_through_and_populates_local() {
        let tmp = TempDir::new("shared-read");
        let remote = Arc::new(MemBackend::new());
        remote.write_atomic("warm.nftest", b"from the farm").expect("seed remote");
        let local = DirBackend::create(&tmp.0, "nftest").expect("local");
        let shared = SharedBackend::new(local.clone(), remote.clone());

        // The union listing shows the remote entry to a cold local layer…
        let names: Vec<String> = shared.list().expect("list").into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["warm.nftest"]);
        // …the read is served remotely and populates the local layer…
        assert_eq!(shared.read("warm.nftest").expect("read"), b"from the farm");
        assert_eq!(local.read("warm.nftest").expect("local copy"), b"from the farm");
        // …and pruning scope excludes what only the remote holds.
        local.remove("warm.nftest").expect("clear local");
        assert_eq!(shared.list_prunable().expect("prunable").len(), 0);
        assert_eq!(shared.list().expect("list").len(), 1, "remote entry still listed");
    }

    #[test]
    fn shared_backend_writes_through_to_both_layers() {
        let tmp = TempDir::new("shared-write");
        let remote = Arc::new(MemBackend::new());
        let shared = SharedBackend::new(
            DirBackend::create(&tmp.0, "nftest").expect("local"),
            remote.clone(),
        );
        shared.write_atomic("new.nftest", b"baked here").expect("write");
        assert_eq!(remote.read("new.nftest").expect("remote copy"), b"baked here");
        assert_eq!(shared.read("new.nftest").expect("local copy"), b"baked here");
        // remove/sweep stay local: the fleet's copy survives local pruning.
        shared.remove("new.nftest").expect("remove local");
        assert_eq!(remote.read("new.nftest").expect("remote survives"), b"baked here");
        assert_eq!(shared.read("new.nftest").expect("read-through again"), b"baked here");
    }

    #[test]
    fn shared_backend_retries_transient_remote_faults() {
        use crate::fault::{FaultMode, FaultOp, FaultPlan, FaultyBackend};
        let tmp = TempDir::new("shared-retry");
        let mem = Arc::new(MemBackend::new());
        mem.write_atomic("warm.nftest", b"flaky but there").expect("seed remote");
        let remote = Arc::new(FaultyBackend::new(
            mem,
            FaultPlan::none().fail_nth(
                FaultOp::Read,
                0,
                FaultMode::Transient(io::ErrorKind::TimedOut),
            ),
        ));
        let shared =
            SharedBackend::new(DirBackend::create(&tmp.0, "nftest").expect("local"), remote)
                .with_retry(RetryPolicy::new(3, Duration::ZERO));

        assert_eq!(shared.read("warm.nftest").expect("retried read"), b"flaky but there");
        let stats = shared.resilience();
        assert_eq!(stats.retries, 1, "one transient fault, one retry");
        assert_eq!(stats.remote_errors, 0);
        assert_eq!(shared.remote_health(), RemoteHealth::Healthy);
    }

    #[test]
    fn shared_backend_degrades_on_persistent_failure_and_reprobes_back() {
        use crate::fault::{FaultMode, FaultOp, FaultPlan, FaultyBackend};
        let tmp = TempDir::new("shared-degrade");
        let mem = Arc::new(MemBackend::new());
        mem.write_atomic("warm.nftest", b"behind the outage").expect("seed remote");
        // A non-transient failure on the first remote read trips the breaker
        // immediately; every read after that is served local-only until the
        // re-probe window comes around and finds the remote recovered.
        let remote = Arc::new(FaultyBackend::new(
            mem,
            FaultPlan::none().fail_nth(
                FaultOp::Read,
                0,
                FaultMode::Transient(io::ErrorKind::PermissionDenied),
            ),
        ));
        let shared =
            SharedBackend::new(DirBackend::create(&tmp.0, "nftest").expect("local"), remote)
                .with_retry(RetryPolicy::new(3, Duration::ZERO));

        let err = shared.read("warm.nftest").expect_err("non-transient fault is final");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(shared.remote_health(), RemoteHealth::Degraded);
        assert_eq!(shared.resilience().remote_errors, 1);
        assert_eq!(shared.resilience().retries, 0, "non-transient kinds are not retried");

        let mut served = None;
        for _ in 0..=REPROBE_INTERVAL {
            if let Ok(bytes) = shared.read("warm.nftest") {
                served = Some(bytes);
                break;
            }
        }
        assert_eq!(served.as_deref(), Some(&b"behind the outage"[..]), "re-probe recovered");
        assert_eq!(shared.remote_health(), RemoteHealth::Healthy);
        let stats = shared.resilience();
        assert!(stats.degraded_ops > 0, "local-only window was counted");
        assert!(!stats.degraded);
    }

    #[test]
    fn shared_backend_counts_local_errors_before_remote_fallback() {
        let tmp = TempDir::new("shared-local-err");
        let remote = Arc::new(MemBackend::new());
        remote.write_atomic("hurt.nftest", b"remote copy").expect("seed remote");
        let shared =
            SharedBackend::new(DirBackend::create(&tmp.0, "nftest").expect("local"), remote);
        // A directory squatting on the entry path makes the local read fail
        // with a non-NotFound error: that must be *counted*, not conflated
        // with a clean miss, and the remote still serves the entry.
        std::fs::create_dir(tmp.0.join("hurt.nftest")).expect("squat");
        assert_eq!(shared.read("hurt.nftest").expect("remote serves"), b"remote copy");
        let stats = shared.resilience();
        assert_eq!(stats.local_errors, 1, "local-layer fault surfaced in the counters");
        assert_eq!(stats.remote_errors, 0);
        assert_eq!(shared.remote_health(), RemoteHealth::Healthy);
    }

    #[test]
    fn shared_backend_write_survives_a_dead_remote() {
        use crate::fault::{FaultPlan, FaultyBackend};
        let tmp = TempDir::new("shared-dead-write");
        let remote = Arc::new(FaultyBackend::new(Arc::new(MemBackend::new()), FaultPlan::dead()));
        let shared =
            SharedBackend::new(DirBackend::create(&tmp.0, "nftest").expect("local"), remote)
                .with_retry(RetryPolicy::new(2, Duration::ZERO));

        shared.write_atomic("kept.nftest", b"local holds it").expect("write degrades, not fails");
        assert_eq!(shared.read("kept.nftest").expect("local read"), b"local holds it");
        let stats = shared.resilience();
        assert!(stats.remote_errors >= 1);
        assert!(stats.retries >= 1, "ConnectionRefused is transient; it was retried first");
        assert_eq!(shared.remote_health(), RemoteHealth::Degraded);
        assert!(shared.describe().contains("degraded"));
    }

    #[test]
    fn prefixed_backend_nests_a_flat_namespace() {
        let inner = Arc::new(MemBackend::new());
        let bake = PrefixedBackend::new(inner.clone(), "bake");
        let gt = PrefixedBackend::new(inner.clone(), "ground-truth");
        bake.write_atomic("a.nfbake", b"asset").expect("write");
        gt.write_atomic("a.nfgt", b"images").expect("write");
        assert_eq!(inner.len(), 2);
        assert_eq!(bake.list().expect("list").len(), 1);
        assert_eq!(bake.list().expect("list")[0].name, "a.nfbake");
        assert_eq!(gt.read("a.nfgt").expect("read"), b"images");
        assert!(bake.read("a.nfgt").is_err(), "prefixes are disjoint");
        bake.remove("a.nfbake").expect("remove");
        assert_eq!(inner.len(), 1);
    }
}
