//! The generic keyed persistence primitive shared by every NeRFlex store.
//!
//! [`crate::BakeCache`] and `nerflex_profile::GroundTruthCache` used to
//! mirror each other's persistence machinery element for element: a lazy
//! filename-keyed index, an orphaned-temporary sweep, a snapshot-outside-
//! lock flush, magic/version/FNV entry framing and [`StoreLimits`] pruning.
//! [`KeyedStore`] is that machinery extracted **once**: a thread-safe,
//! content-addressed map from codec keys to `Arc`-shared values, optionally
//! persisted through a pluggable [`StoreBackend`]. The two caches are now
//! thin typed wrappers — an [`EntryCodec`] (file naming + byte framing) and
//! key fingerprinting each — so every future persistence fix lands once.
//!
//! # Division of responsibility
//!
//! * [`EntryCodec`] — *what* an entry is: its key ⇄ file-name mapping and
//!   its self-validating byte framing. Owns the on-disk format.
//! * [`StoreBackend`] — *where* entries live: list/read/write-atomic over a
//!   directory, a memory map, or a local-over-remote layering.
//! * [`KeyedStore`] — *policy*: lazy indexing, single-flight lookups,
//!   hit/miss accounting, dirty tracking, corruption tolerance (a damaged
//!   entry costs one rebuild, never an error), retention pruning,
//!   read-only mode.
//!
//! # Determinism
//!
//! Values are deterministic functions of their keys, so every cache level
//! (in-memory, local disk, shared remote) returns bit-identical data; the
//! backend choice never changes output bits. `docs/stores.md` documents the
//! store API and the sharing semantics; `docs/determinism.md` states the
//! repo-wide contract.

use crate::backend::{
    DirBackend, EntryMeta, PrefixedBackend, RetryPolicy, SharedBackend, StoreBackend,
};
use nerflex_math::pool::default_workers;
use nerflex_math::WorkerPool;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning.
///
/// Every mutex in this module guards state that is valid between operations
/// by construction: slots are inserted and removed in single statements,
/// builds and decodes run *outside* the entry lock, and the pending-cell
/// flag is a bare bool. A peer that panicked while holding one of these
/// locks therefore cannot have left the data torn — propagating the poison
/// would turn one panicked builder into a failure of every later lookup,
/// so we take the data and keep serving.
fn lock_valid<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Retention limits + pruning
// ---------------------------------------------------------------------------

/// Retention limits of a persistent entry store. The default is unbounded.
/// Applied when a store is opened ([`StoreOptions::limits`]), so a CI or
/// developer store stops growing monotonically; layered backends confine
/// the sweep to their local layer (the shared remote is never pruned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreLimits {
    /// Total entry-file budget in bytes; the oldest entries (by modification
    /// time, then file name for determinism) are removed until the store
    /// fits. `None` = unbounded.
    pub max_bytes: Option<u64>,
    /// Entries whose modification time is older than this are removed
    /// regardless of the size budget. `None` = no age sweep.
    pub max_age: Option<Duration>,
}

impl StoreLimits {
    /// `true` when no limit is configured (pruning is a no-op).
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_age.is_none()
    }

    /// Returns the limits with the given size budget in bytes.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Returns the limits with the given maximum entry age.
    pub fn with_max_age(mut self, age: Duration) -> Self {
        self.max_age = Some(age);
        self
    }
}

/// What a [`prune_backend`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Entry files removed.
    pub removed_files: usize,
    /// Bytes those files occupied.
    pub removed_bytes: u64,
    /// Entry bytes remaining after the sweep.
    pub retained_bytes: u64,
}

/// Applies a size-budget + age sweep to a backend's prunable entries:
/// entries older than `limits.max_age` are removed, then — oldest first
/// (modification time, name as the deterministic tie-break) — more are
/// removed until the survivors fit in `limits.max_bytes`. Entries are a
/// cache, so a pruned entry only costs a rebuild; per-entry failures (a
/// concurrent writer, a vanished file) are skipped, never an error.
///
/// Foreign files and in-flight temporaries never appear in a backend's
/// listing and are therefore untouched.
///
/// # Errors
///
/// Returns the underlying error when the backend cannot be listed.
pub fn prune_backend(backend: &dyn StoreBackend, limits: &StoreLimits) -> io::Result<PruneReport> {
    let mut report = PruneReport::default();
    if limits.is_unbounded() {
        return Ok(report);
    }
    let mut entries = backend.list_prunable()?;
    let now = std::time::SystemTime::now();

    let remove = |meta: &EntryMeta, report: &mut PruneReport| {
        if backend.remove(&meta.name).is_ok() {
            report.removed_files += 1;
            report.removed_bytes += meta.size;
            true
        } else {
            false
        }
    };

    // Age sweep first.
    if let Some(max_age) = limits.max_age {
        entries.retain(|meta| {
            let expired = now.duration_since(meta.modified).is_ok_and(|age| age > max_age);
            !(expired && remove(meta, &mut report))
        });
    }

    // Then the size budget, dropping the oldest survivors first.
    if let Some(max_bytes) = limits.max_bytes {
        let mut total: u64 = entries.iter().map(|meta| meta.size).sum();
        entries.sort_by(|a, b| a.modified.cmp(&b.modified).then_with(|| a.name.cmp(&b.name)));
        for meta in &entries {
            if total <= max_bytes {
                break;
            }
            if remove(meta, &mut report) {
                total -= meta.size;
            }
        }
        report.retained_bytes = total;
    } else {
        report.retained_bytes = entries.iter().map(|meta| meta.size).sum();
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// EntryCodec
// ---------------------------------------------------------------------------

/// The typed half of a store: how keys map to entry file names and how
/// values frame to self-validating bytes. Implementations own their on-disk
/// format (magic, version, key echo, checksum) — [`KeyedStore`] never
/// interprets entry bytes itself.
pub trait EntryCodec {
    /// Cache key. File names must round-trip through
    /// [`EntryCodec::file_name`] / [`EntryCodec::parse_file_name`].
    type Key: Copy + Eq + std::hash::Hash + Send + Sync;
    /// Decoded entry value, shared behind `Arc` by every hit.
    type Value: Send + Sync;
    /// Extra context [`EntryCodec::decode`] needs at lookup time (e.g. the
    /// model a ground truth is reconstructed against); `()` when entries
    /// are self-contained. `Copy` so a failed decode can fall through to a
    /// rebuild that also uses it.
    type Context<'a>: Copy;

    /// Entry-file extension (no leading dot).
    const EXTENSION: &'static str;

    /// The canonical file name of a key.
    fn file_name(key: &Self::Key) -> String;

    /// Parses a file name back into its key (`None` for foreign names —
    /// the basis of the lazy index).
    fn parse_file_name(name: &str) -> Option<Self::Key>;

    /// Serializes one entry, embedding the key and whatever framing the
    /// format requires for [`EntryCodec::decode`] to be total.
    fn encode(key: &Self::Key, value: &Self::Value) -> Vec<u8>;

    /// Work [`EntryCodec::encode`] needs done first that can run on any
    /// thread and in any order, such as texturing a bake's on-demand atlas.
    /// A flush runs it for every dirty entry in one pool dispatch, so
    /// entries of very different cost balance across the workers, before
    /// encoding them a batch at a time. The default does nothing.
    fn prepare(_value: &Self::Value) {}

    /// Deserializes and fully validates one entry: any truncation, bad
    /// magic, foreign version, checksum failure or key mismatch yields
    /// `None` (the store rebuilds the value), never a panic.
    fn decode(key: &Self::Key, bytes: &[u8], ctx: Self::Context<'_>) -> Option<Arc<Self::Value>>;
}

// ---------------------------------------------------------------------------
// StoreOptions
// ---------------------------------------------------------------------------

/// Where a store's persistent layer lives.
#[derive(Debug, Clone, Default)]
pub enum StoreLocation {
    /// No persistence: entries live for the process only.
    #[default]
    InMemory,
    /// One on-disk directory (the classic layout).
    Dir(PathBuf),
    /// A local directory layered read-through/write-through over a shared
    /// remote — the cross-machine store (see
    /// [`crate::backend::SharedBackend`]).
    Shared {
        /// This machine's local layer.
        local: PathBuf,
        /// The remote shared by the fleet.
        remote: Remote,
    },
    /// Any backend implementation used directly, without a local layer —
    /// test doubles, fault-injection wrappers
    /// ([`crate::fault::FaultyBackend`]), future object-store adapters.
    Custom(Arc<dyn StoreBackend>),
}

/// The remote half of a [`StoreLocation::Shared`] layering.
#[derive(Debug, Clone)]
pub enum Remote {
    /// A second directory (an NFS mount, a synced folder, a CI cache dir).
    Dir(PathBuf),
    /// Any backend implementation (an object store adapter, the in-memory
    /// test double).
    Backend(Arc<dyn StoreBackend>),
}

/// How to open a [`KeyedStore`] (and, through the pipeline, the bake and
/// ground-truth caches): location/backend, retention limits, read-only
/// mode. One builder replaces the former `open`/`open_with_limits`
/// constructor pairs.
///
/// ```
/// use nerflex_bake::{StoreLimits, StoreOptions};
///
/// let opts = StoreOptions::dir("/tmp/nerflex-store")
///     .with_limits(StoreLimits::default().with_max_bytes(1 << 30))
///     .read_only(false);
/// assert!(opts.is_persistent());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Where the persistent layer lives (`InMemory` = none).
    pub location: StoreLocation,
    /// Retention limits applied when the store is opened (local layer only).
    pub limits: StoreLimits,
    /// Read-only stores never write: no pruning or temporary sweep on open,
    /// and `flush` is a no-op. Lookups (including read-through population of
    /// a shared local layer) work normally; new builds stay in memory.
    pub read_only: bool,
    /// Bounded retry + circuit-breaker policy applied to the remote side of
    /// a [`StoreLocation::Shared`] store (see
    /// [`crate::backend::RetryPolicy`]). Purely local stores ignore it.
    pub retry: RetryPolicy,
}

impl StoreOptions {
    /// An in-memory store (no persistence).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A store persisted under one directory.
    pub fn dir(path: impl Into<PathBuf>) -> Self {
        Self { location: StoreLocation::Dir(path.into()), ..Self::default() }
    }

    /// A local directory layered over a shared remote directory.
    pub fn shared(local: impl Into<PathBuf>, remote: impl Into<PathBuf>) -> Self {
        Self {
            location: StoreLocation::Shared {
                local: local.into(),
                remote: Remote::Dir(remote.into()),
            },
            ..Self::default()
        }
    }

    /// A local directory layered over any remote backend implementation.
    /// The remote should expose a **flat** namespace ([`crate::MemBackend`],
    /// an object-store adapter): nested stores reach it through a name
    /// prefix ([`StoreOptions::subdir`] → `PrefixedBackend`), which a
    /// [`DirBackend`] remote rejects loudly — point directory remotes at
    /// [`StoreOptions::shared`] instead, which nests at the path level.
    pub fn shared_with(local: impl Into<PathBuf>, remote: Arc<dyn StoreBackend>) -> Self {
        Self {
            location: StoreLocation::Shared {
                local: local.into(),
                remote: Remote::Backend(remote),
            },
            ..Self::default()
        }
    }

    /// A store over any backend implementation, used directly — the seam
    /// for fault-injection wrappers and object-store adapters.
    pub fn backend(backend: Arc<dyn StoreBackend>) -> Self {
        Self { location: StoreLocation::Custom(backend), ..Self::default() }
    }

    /// Returns the options with the given retention limits.
    pub fn with_limits(mut self, limits: StoreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Returns the options with the given remote retry policy (see
    /// [`StoreOptions::retry`]). Nested stores ([`StoreOptions::subdir`])
    /// inherit it.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns the options with read-only mode set as given.
    pub fn read_only(mut self, read_only: bool) -> Self {
        self.read_only = read_only;
        self
    }

    /// `true` when the options name a persistent layer.
    pub fn is_persistent(&self) -> bool {
        !matches!(self.location, StoreLocation::InMemory)
    }

    /// The primary local directory, when there is one (`Dir` or the local
    /// layer of `Shared`).
    pub fn primary_dir(&self) -> Option<&Path> {
        match &self.location {
            StoreLocation::InMemory => None,
            StoreLocation::Dir(path) => Some(path),
            StoreLocation::Shared { local, .. } => Some(local),
            StoreLocation::Custom(_) => None,
        }
    }

    /// Options for a store nested under `name` within this store root: the
    /// ground-truth store lives under `<root>/ground-truth` of the bake
    /// store's root, on every layer. Flat-namespace remotes nest via a name
    /// prefix ([`PrefixedBackend`]).
    pub fn subdir(&self, name: &str) -> StoreOptions {
        let location = match &self.location {
            StoreLocation::InMemory => StoreLocation::InMemory,
            StoreLocation::Dir(path) => StoreLocation::Dir(path.join(name)),
            StoreLocation::Shared { local, remote } => StoreLocation::Shared {
                local: local.join(name),
                remote: match remote {
                    Remote::Dir(path) => Remote::Dir(path.join(name)),
                    Remote::Backend(backend) => {
                        Remote::Backend(Arc::new(PrefixedBackend::new(Arc::clone(backend), name)))
                    }
                },
            },
            StoreLocation::Custom(backend) => {
                StoreLocation::Custom(Arc::new(PrefixedBackend::new(Arc::clone(backend), name)))
            }
        };
        StoreOptions { location, limits: self.limits, read_only: self.read_only, retry: self.retry }
    }

    /// One-line human-readable description (for logs and reports).
    pub fn describe(&self) -> String {
        let base = match &self.location {
            StoreLocation::InMemory => "in-memory".to_string(),
            StoreLocation::Dir(path) => format!("dir {}", path.display()),
            StoreLocation::Shared { local, remote } => format!(
                "shared local={} remote={}",
                local.display(),
                match remote {
                    Remote::Dir(path) => format!("dir {}", path.display()),
                    Remote::Backend(backend) => backend.describe(),
                }
            ),
            StoreLocation::Custom(backend) => format!("custom [{}]", backend.describe()),
        };
        if self.read_only {
            format!("{base} (read-only)")
        } else {
            base
        }
    }

    /// Builds the backend this location names (`None` for in-memory).
    fn build_backend(&self, extension: &str) -> io::Result<Option<Arc<dyn StoreBackend>>> {
        match &self.location {
            StoreLocation::InMemory => Ok(None),
            StoreLocation::Dir(path) => Ok(Some(Arc::new(DirBackend::create(path, extension)?))),
            StoreLocation::Shared { local, remote } => {
                let local = DirBackend::create(local, extension)?;
                let remote: Arc<dyn StoreBackend> = match remote {
                    Remote::Dir(path) => Arc::new(DirBackend::create(path, extension)?),
                    Remote::Backend(backend) => Arc::clone(backend),
                };
                Ok(Some(Arc::new(SharedBackend::new(local, remote).with_retry(self.retry))))
            }
            StoreLocation::Custom(backend) => Ok(Some(Arc::clone(backend))),
        }
    }
}

impl From<&Path> for StoreOptions {
    fn from(path: &Path) -> Self {
        Self::dir(path)
    }
}

impl From<&str> for StoreOptions {
    fn from(path: &str) -> Self {
        Self::dir(path)
    }
}

impl From<PathBuf> for StoreOptions {
    fn from(path: PathBuf) -> Self {
        Self::dir(path)
    }
}

impl From<&PathBuf> for StoreOptions {
    fn from(path: &PathBuf) -> Self {
        Self::dir(path)
    }
}

impl From<&StoreOptions> for StoreOptions {
    fn from(options: &StoreOptions) -> Self {
        options.clone()
    }
}

// ---------------------------------------------------------------------------
// KeyedStore
// ---------------------------------------------------------------------------

/// Hit/miss/occupancy counters of a [`KeyedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered by a value built in this process.
    pub hits: usize,
    /// Lookups answered by an entry decoded from the persistent layer
    /// (cross-process reuse).
    pub disk_hits: usize,
    /// Lookups that had to build.
    pub misses: usize,
    /// Lookups that waited on another lookup's in-flight build or decode of
    /// the same key instead of duplicating it. A coalesced lookup also
    /// counts as a hit once the awaited value lands.
    pub coalesced: usize,
    /// Distinct values currently held in memory or indexed on the backend.
    pub entries: usize,
    /// Entries indexed from the backend when the store was opened (decoded
    /// lazily on first lookup; 0 for in-memory stores).
    pub indexed: usize,
    /// Logical remote operations attempted by a layered backend (each may
    /// span several tries under the [`crate::backend::RetryPolicy`]).
    pub remote_ops: usize,
    /// Remote operations that failed after exhausting their retries.
    pub remote_errors: usize,
    /// Individual retries performed on transient remote errors.
    pub retries: usize,
    /// Operations served local-only because the remote was degraded
    /// ([`crate::backend::RemoteHealth::Degraded`]).
    pub degraded_ops: usize,
    /// Local-layer read errors other than `NotFound` (reported, then hidden
    /// behind the remote fallback).
    pub local_errors: usize,
}

/// One stored value plus its persistence bookkeeping.
#[derive(Debug)]
enum Slot<V> {
    /// Decoded and ready; `dirty` entries are written by the next flush.
    Memory {
        value: Arc<V>,
        /// The entry came off the backend (hits on it are cross-process
        /// reuse).
        from_disk: bool,
        dirty: bool,
    },
    /// Indexed from the backend by its (canonical) file name; read and
    /// decoded on first lookup.
    Indexed,
    /// The in-flight marker of a miss: one lookup claimed the build (or
    /// decode) and every concurrent lookup for the key waits on the cell.
    Pending(Arc<PendingCell>),
}

/// The wait cell behind [`Slot::Pending`]: flipped exactly once, when the
/// claiming lookup completes (or unwinds — see [`PendingGuard`]).
#[derive(Debug, Default)]
struct PendingCell {
    done: Mutex<bool>,
    cond: Condvar,
}

impl PendingCell {
    /// Blocks until the claimant completes. The claimant never waits on the
    /// store in return (its build runs outside the entry lock and pool
    /// dispatchers drive their own batches), so this wait cannot deadlock.
    fn wait(&self) {
        let mut done = lock_valid(&self.done);
        while !*done {
            done = self.cond.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self) {
        *lock_valid(&self.done) = true;
        self.cond.notify_all();
    }
}

/// Unwind protection for a claimed [`Slot::Pending`]: if the build panics,
/// the pending marker is rolled back (to `Indexed` or absent) and the cell
/// completes, so exactly one waiter retries and becomes the new claimant
/// instead of every waiter hanging forever.
struct PendingGuard<'a, C: EntryCodec> {
    store: &'a KeyedStore<C>,
    key: C::Key,
    cell: Arc<PendingCell>,
    restore_indexed: bool,
    armed: bool,
}

impl<C: EntryCodec> PendingGuard<'_, C> {
    /// Normal completion: the claimant has replaced the pending slot.
    fn finish(&mut self) {
        self.armed = false;
        self.cell.complete();
    }
}

impl<C: EntryCodec> Drop for PendingGuard<'_, C> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // An armed guard's slot is still this claim's pending marker: no
        // other lookup replaces a pending slot.
        let mut entries = lock_valid(&self.store.entries);
        if self.restore_indexed {
            entries.insert(self.key, Slot::Indexed);
        } else {
            entries.remove(&self.key);
        }
        drop(entries);
        self.cell.complete();
    }
}

/// Dirty entries a flush encodes per pool dispatch: enough to keep every
/// worker of a small machine busy, few enough that only a handful of
/// encoded entries are held at once.
const FLUSH_BATCH: usize = 8;

/// A thread-safe, content-addressed store of `Arc`-shared values with an
/// optional persistent layer — the machinery common to [`crate::BakeCache`]
/// and the ground-truth cache (see the module docs for what lives here vs
/// in the codec/backend).
///
/// Opening a persistent store only **indexes** the backend listing by the
/// codec's file names; an entry is read and decoded at its first lookup,
/// outside the entry lock. Lookups are corruption-tolerant: a damaged,
/// truncated, foreign-version or key-mismatched entry is discovered at
/// first lookup and costs exactly one rebuild (the next flush repairs it),
/// never an error.
pub struct KeyedStore<C: EntryCodec> {
    entries: Mutex<HashMap<C::Key, Slot<C::Value>>>,
    hits: AtomicUsize,
    disk_hits: AtomicUsize,
    misses: AtomicUsize,
    coalesced: AtomicUsize,
    /// Total wall-clock time spent in miss builds (the profiling layer
    /// reports it; exactly zero on fully warm runs).
    build_time: Mutex<Duration>,
    backend: Option<Arc<dyn StoreBackend>>,
    options: StoreOptions,
    indexed: usize,
}

impl<C: EntryCodec> Default for KeyedStore<C> {
    fn default() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            build_time: Mutex::new(Duration::ZERO),
            backend: None,
            options: StoreOptions::default(),
            indexed: 0,
        }
    }
}

impl<C: EntryCodec> std::fmt::Debug for KeyedStore<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedStore")
            .field("stats", &self.stats())
            .field("options", &self.options)
            .finish()
    }
}

impl<C: EntryCodec> KeyedStore<C> {
    /// An empty in-memory store (no persistence; flush is a no-op).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Opens a store as the options direct: sweeps orphaned temporaries and
    /// applies the retention limits (both skipped in read-only mode), then
    /// indexes the backend listing by the codec's canonical file names.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the backend cannot be created or
    /// listed (per-entry prune/sweep failures are skipped, never an error).
    pub fn open(options: impl Into<StoreOptions>) -> io::Result<Self> {
        let options = options.into();
        let Some(backend) = options.build_backend(C::EXTENSION)? else {
            return Ok(Self { options, ..Self::default() });
        };
        if !options.read_only {
            backend.sweep_tmp()?;
            prune_backend(&*backend, &options.limits)?;
        }
        let mut entries = HashMap::new();
        for meta in backend.list()? {
            // Only canonical names are indexed: the name must round-trip
            // through the codec so the entry can be re-read by key alone.
            if let Some(key) = C::parse_file_name(&meta.name) {
                if C::file_name(&key) == meta.name {
                    entries.insert(key, Slot::Indexed);
                }
            }
        }
        let indexed = entries.len();
        Ok(Self {
            entries: Mutex::new(entries),
            backend: Some(backend),
            options,
            indexed,
            ..Self::default()
        })
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// The backend holding the persistent layer (`None` when in-memory).
    pub fn backend(&self) -> Option<&Arc<dyn StoreBackend>> {
        self.backend.as_ref()
    }

    /// Current counters, including the backend's resilience counters.
    pub fn stats(&self) -> StoreStats {
        let resilience =
            self.backend.as_ref().map(|backend| backend.resilience()).unwrap_or_default();
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: lock_valid(&self.entries).len(),
            indexed: self.indexed,
            remote_ops: resilience.remote_ops,
            remote_errors: resilience.remote_errors,
            retries: resilience.retries,
            degraded_ops: resilience.degraded_ops,
            local_errors: resilience.local_errors,
        }
    }

    /// Total wall-clock time spent building missed values. Exactly zero
    /// when every lookup was a hit.
    pub fn build_time(&self) -> Duration {
        *lock_valid(&self.build_time)
    }

    /// `true` when the key is already built or indexed on the backend. For
    /// a not-yet-decoded entry this is optimistic: a damaged entry is only
    /// discovered (and transparently rebuilt) at lookup.
    pub fn contains(&self, key: &C::Key) -> bool {
        lock_valid(&self.entries).contains_key(key)
    }

    /// Returns the value for `key`, building and storing it on first
    /// request. An entry indexed from the persistent layer is read and
    /// decoded here, on its first lookup — outside the entry lock, so
    /// other workers keep hitting the store meanwhile.
    ///
    /// Lookups are single-flight: the first miss claims the decode or build
    /// through a pending entry, and concurrent misses on the same key wait
    /// on it instead of duplicating it — one build, every caller shares the
    /// result, and the waiters count in [`StoreStats::coalesced`]. Building
    /// is deterministic, so who pays never changes the returned bits.
    pub fn get_or_build(
        &self,
        key: C::Key,
        ctx: C::Context<'_>,
        build: impl FnOnce() -> C::Value,
    ) -> Arc<C::Value> {
        let mut counted_coalesced = false;
        let (indexed, cell) = loop {
            let mut entries = lock_valid(&self.entries);
            let indexed = match entries.get(&key) {
                Some(Slot::Memory { value, from_disk, .. }) => {
                    let counter = if *from_disk { &self.disk_hits } else { &self.hits };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(value);
                }
                Some(Slot::Pending(cell)) => {
                    let cell = Arc::clone(cell);
                    drop(entries);
                    // Count each lookup at most once even if a claimant
                    // panic sends it around the loop again.
                    if !counted_coalesced {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        counted_coalesced = true;
                    }
                    cell.wait();
                    continue;
                }
                Some(Slot::Indexed) => true,
                None => false,
            };
            // Claim the decode/build: concurrent lookups wait on the cell.
            let cell = Arc::new(PendingCell::default());
            entries.insert(key, Slot::Pending(Arc::clone(&cell)));
            break (indexed, cell);
        };
        let mut guard =
            PendingGuard { store: self, key, cell, restore_indexed: indexed, armed: true };

        // Decode (or build) outside the lock so other workers keep making
        // progress during long reads/builds. Only this claimant (or its
        // guard, on unwind) replaces the pending slot.
        if indexed {
            let decoded = self
                .backend
                .as_ref()
                .and_then(|backend| backend.read(&C::file_name(&key)).ok())
                .and_then(|bytes| C::decode(&key, &bytes, ctx));
            if let Some(value) = decoded {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                lock_valid(&self.entries).insert(
                    key,
                    Slot::Memory { value: Arc::clone(&value), from_disk: true, dirty: false },
                );
                guard.finish();
                return value;
            }
            // Damaged or missing entry: fall through to a rebuild (the next
            // flush overwrites it).
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let value = Arc::new(build());
        *lock_valid(&self.build_time) += started.elapsed();
        lock_valid(&self.entries)
            .insert(key, Slot::Memory { value: Arc::clone(&value), from_disk: false, dirty: true });
        guard.finish();
        value
    }

    /// Writes every value built since the last flush to the backend,
    /// returning how many entries were written (0 for in-memory or
    /// read-only stores). The dirty entries are snapshotted first and the
    /// writes happen **outside the entry lock**, so concurrent lookups and
    /// builds proceed during large flushes; each entry is written
    /// atomically ([`StoreBackend::write_atomic`]). Entries are prepared
    /// ([`EntryCodec::prepare`]) and then encoded on the shared
    /// [`WorkerPool`], a bounded batch at a time, and written in snapshot
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered. Every dirty entry is still
    /// attempted ([`KeyedStore::flush_report`] is the underlying pass):
    /// entries that flushed stay flushed and are not re-written next time,
    /// and the failed ones stay dirty for the next flush.
    pub fn flush(&self) -> io::Result<usize> {
        self.flush_report().into_result()
    }

    /// Like [`KeyedStore::flush`], but attempts **every** dirty entry and
    /// collects the per-entry failures instead of stopping at the first:
    /// one unwritable entry (a full disk, a vanished directory) cannot
    /// block its siblings from persisting. Successfully written entries are
    /// marked clean; failed ones stay dirty and are retried next flush.
    pub fn flush_report(&self) -> FlushReport {
        let mut report = FlushReport::default();
        let Some(backend) = &self.backend else { return report };
        if self.options.read_only {
            return report;
        }
        // Snapshot the dirty entries (an Arc clone each) under the lock…
        let dirty: Vec<(C::Key, Arc<C::Value>)> = {
            let entries = lock_valid(&self.entries);
            entries
                .iter()
                .filter_map(|(&key, slot)| match slot {
                    Slot::Memory { value, dirty: true, .. } => Some((key, Arc::clone(value))),
                    _ => None,
                })
                .collect()
        };
        // …then prepare, encode and write without it. Values are immutable
        // once built (an on-demand atlas only fills in texels that are pure
        // functions of the entry), so the snapshot cannot go stale.
        // Preparing can be the costly part, and uneven across entries, so
        // every entry prepares in one pool dispatch; each batch then
        // encodes on the pool, and writes keep the snapshot order.
        let pool = WorkerPool::shared();
        pool.run(dirty.len(), default_workers(dirty.len()), |idx| C::prepare(&dirty[idx].1));
        let mut written = Vec::with_capacity(dirty.len());
        for batch in dirty.chunks(FLUSH_BATCH) {
            let encoded = pool.run(batch.len(), default_workers(batch.len()), |idx| {
                let (key, value) = &batch[idx];
                C::encode(key, value)
            });
            for ((key, _), bytes) in batch.iter().zip(encoded) {
                let name = C::file_name(key);
                match backend.write_atomic(&name, &bytes) {
                    Ok(()) => written.push(*key),
                    Err(err) => report.failures.push((name, err)),
                }
            }
        }
        let mut entries = lock_valid(&self.entries);
        for key in &written {
            if let Some(Slot::Memory { dirty, .. }) = entries.get_mut(key) {
                *dirty = false;
            }
        }
        report.written = written.len();
        report
    }
}

/// What a [`KeyedStore::flush_report`] pass did: how many entries landed
/// and which failed (entry file name + error). Failed entries stay dirty
/// and are retried by the next flush.
#[derive(Debug, Default)]
pub struct FlushReport {
    /// Entries written (and marked clean).
    pub written: usize,
    /// Entries whose write failed, with the failing entry's file name.
    pub failures: Vec<(String, io::Error)>,
}

impl FlushReport {
    /// `true` when every dirty entry was written.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapses the report into the classic `flush` result: the written
    /// count, or the first per-entry error.
    ///
    /// # Errors
    ///
    /// The first recorded per-entry failure, when there is one.
    pub fn into_result(self) -> io::Result<usize> {
        match self.failures.into_iter().next() {
            Some((_, err)) => Err(err),
            None => Ok(self.written),
        }
    }
}

impl std::fmt::Display for FlushReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} entries written", self.written)?;
        if !self.failures.is_empty() {
            write!(f, ", {} failed", self.failures.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::cache::fnv1a;
    use std::panic::AssertUnwindSafe;

    /// A minimal framed codec for store tests: magic, key echo, payload,
    /// trailing checksum.
    struct TestCodec;

    impl EntryCodec for TestCodec {
        type Key = u64;
        type Value = Vec<u8>;
        type Context<'a> = ();
        const EXTENSION: &'static str = "nftest";

        fn file_name(key: &u64) -> String {
            format!("{key:016x}.nftest")
        }

        fn parse_file_name(name: &str) -> Option<u64> {
            let stem = name.strip_suffix(".nftest")?;
            u64::from_str_radix(stem, 16).ok()
        }

        fn encode(key: &u64, value: &Vec<u8>) -> Vec<u8> {
            let mut out = Vec::with_capacity(value.len() + 20);
            out.extend_from_slice(b"NFTS");
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(value);
            let sum = fnv1a(&out);
            out.extend_from_slice(&sum.to_le_bytes());
            out
        }

        fn decode(key: &u64, bytes: &[u8], (): ()) -> Option<Arc<Vec<u8>>> {
            if bytes.len() < 20 || &bytes[..4] != b"NFTS" {
                return None;
            }
            let (body, tail) = bytes.split_at(bytes.len() - 8);
            if fnv1a(body) != u64::from_le_bytes(tail.try_into().ok()?) {
                return None;
            }
            if u64::from_le_bytes(body[4..12].try_into().ok()?) != *key {
                return None;
            }
            Some(Arc::new(body[12..].to_vec()))
        }
    }

    type TestStore = KeyedStore<TestCodec>;

    /// A unique, self-cleaning temporary directory.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            Self(std::env::temp_dir().join(format!(
                "nerflex-store-test-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            )))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn payload(tag: u8) -> Vec<u8> {
        vec![tag; 64]
    }

    #[test]
    fn in_memory_store_counts_hits_and_misses() {
        let store = TestStore::in_memory();
        let a = store.get_or_build(1, (), || payload(1));
        let b = store.get_or_build(1, (), || payload(1));
        let _ = store.get_or_build(2, (), || payload(2));
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.indexed), (1, 2, 2, 0));
        assert!(store.build_time() >= Duration::ZERO);
        assert_eq!(store.flush().expect("noop"), 0);
        assert!(store.contains(&1) && !store.contains(&3));
    }

    #[test]
    fn coalescing_store_builds_each_key_once_under_contention() {
        let store = Arc::new(TestStore::in_memory());
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (store, builds, barrier) =
                    (Arc::clone(&store), Arc::clone(&builds), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_build(9, (), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Hold the build long enough that the other lookups
                        // really land while it is pending.
                        std::thread::sleep(Duration::from_millis(30));
                        payload(9)
                    })
                })
            })
            .collect();
        let values: Vec<_> = handles.into_iter().map(|h| h.join().expect("join")).collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one in-flight build for 8 lookups");
        for v in &values {
            assert!(Arc::ptr_eq(v, &values[0]), "every caller shares the one copy");
        }
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7, "every waiter lands as a hit once the build completes");
        assert!(
            (1..=7).contains(&stats.coalesced),
            "contended lookups must report coalescing, got {}",
            stats.coalesced
        );
    }

    #[test]
    fn coalescing_claimant_panic_hands_the_build_to_a_waiter() {
        let store = Arc::new(TestStore::in_memory());
        let attempts = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (store, attempts, barrier) =
                    (Arc::clone(&store), Arc::clone(&attempts), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        store.get_or_build(4, (), || {
                            // The first claimant dies; a waiter must take
                            // over instead of hanging on the pending cell.
                            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                                std::thread::sleep(Duration::from_millis(20));
                                panic!("claimant exploded");
                            }
                            payload(4)
                        })
                    }))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("join")).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 3, "exactly the panicking lookup fails");
        assert!(attempts.load(Ordering::Relaxed) >= 2, "a waiter re-claimed the build");
        let recovered = store.get_or_build(4, (), || panic!("value must be resident"));
        assert_eq!(*recovered, payload(4));
    }

    #[test]
    fn sequential_lookups_never_coalesce() {
        let store = TestStore::in_memory();
        let _ = store.get_or_build(1, (), || payload(1));
        let _ = store.get_or_build(1, (), || payload(1));
        assert_eq!(store.stats().coalesced, 0);
    }

    #[test]
    fn flush_and_reopen_turn_misses_into_disk_hits() {
        let tmp = TempDir::new("roundtrip");
        let store = TestStore::open(&tmp.0).expect("open");
        let first = store.get_or_build(7, (), || payload(7));
        assert_eq!(store.flush().expect("flush"), 1);
        assert_eq!(store.flush().expect("clean flush"), 0, "clean entries are not re-written");

        let reopened = TestStore::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().indexed, 1);
        let second = reopened.get_or_build(7, (), || panic!("must not rebuild"));
        assert_eq!(*first, *second);
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 1, 0));
        assert_eq!(reopened.build_time(), Duration::ZERO);
    }

    #[test]
    fn damaged_entries_rebuild_and_repair() {
        let tmp = TempDir::new("damage");
        let store = TestStore::open(&tmp.0).expect("open");
        let _ = store.get_or_build(3, (), || payload(3));
        store.flush().expect("flush");
        let path = tmp.0.join(TestCodec::file_name(&3));
        std::fs::write(&path, b"damaged").expect("overwrite");

        let reopened = TestStore::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().indexed, 1, "damage is invisible to the lazy index");
        let rebuilt = reopened.get_or_build(3, (), || payload(3));
        assert_eq!(*rebuilt, payload(3));
        assert_eq!(reopened.stats().misses, 1, "damaged entry costs one rebuild");
        assert_eq!(reopened.flush().expect("repair"), 1);
        let repaired = TestStore::open(&tmp.0).expect("open repaired");
        let _ = repaired.get_or_build(3, (), || panic!("repaired entry must decode"));
        assert_eq!(repaired.stats().disk_hits, 1);
    }

    #[test]
    fn non_canonical_names_are_not_indexed() {
        let tmp = TempDir::new("canonical");
        std::fs::create_dir_all(&tmp.0).expect("mkdir");
        // Parses as key 0xaa, but the canonical name is zero-padded: the
        // store must not index a name it cannot re-derive from the key.
        std::fs::write(tmp.0.join("aa.nftest"), b"whatever").expect("write");
        std::fs::write(tmp.0.join("garbage.nftest"), b"whatever").expect("write");
        let store = TestStore::open(&tmp.0).expect("open");
        assert_eq!(store.stats().indexed, 0);
    }

    #[test]
    fn read_only_stores_never_write_prune_or_sweep() {
        let tmp = TempDir::new("read-only");
        let writer = TestStore::open(&tmp.0).expect("open");
        let _ = writer.get_or_build(1, (), || payload(1));
        writer.flush().expect("flush");
        let orphan = tmp.0.join("0000000000000001.nftest.tmp-9-9");
        std::fs::write(&orphan, b"orphan").expect("orphan");

        // Read-only + limits that would prune everything: nothing may change
        // on disk, lookups still work, new builds stay in memory.
        let options = StoreOptions::dir(&tmp.0)
            .with_limits(StoreLimits::default().with_max_age(Duration::ZERO))
            .read_only(true);
        let reader = TestStore::open(options).expect("open read-only");
        assert_eq!(reader.stats().indexed, 1, "read-only open must not prune");
        assert!(orphan.exists(), "read-only open must not sweep temporaries");
        let _ = reader.get_or_build(1, (), || panic!("persisted entry must serve"));
        let _ = reader.get_or_build(2, (), || payload(2));
        assert_eq!(reader.flush().expect("flush"), 0, "read-only flush writes nothing");
        assert!(
            !tmp.0.join(TestCodec::file_name(&2)).exists(),
            "read-only stores must not persist new entries"
        );
    }

    #[test]
    fn shared_backend_gives_a_cold_local_layer_zero_misses() {
        // The cross-machine scenario: machine A populates the shared
        // remote; machine B, with a cold local dir, must re-build nothing
        // and read identical bytes.
        let tmp_a = TempDir::new("machine-a");
        let tmp_b = TempDir::new("machine-b");
        let remote: Arc<MemBackend> = Arc::new(MemBackend::new());

        let a =
            TestStore::open(StoreOptions::shared_with(&tmp_a.0, remote.clone())).expect("open A");
        let built = a.get_or_build(42, (), || payload(9));
        a.flush().expect("flush A");
        assert_eq!(remote.len(), 1, "write-through populates the remote");

        let b =
            TestStore::open(StoreOptions::shared_with(&tmp_b.0, remote.clone())).expect("open B");
        assert_eq!(b.stats().indexed, 1, "cold local layer indexes the warm remote");
        let loaded = b.get_or_build(42, (), || panic!("warm remote must serve"));
        assert_eq!(*built, *loaded, "remote round-trip is byte-identical");
        let stats = b.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0));
        // The read populated B's local layer: a third open of the same
        // local dir with a *dead* remote still serves the entry.
        let c = TestStore::open(&tmp_b.0).expect("open local only");
        let again = c.get_or_build(42, (), || panic!("local layer must be populated"));
        assert_eq!(*built, *again);
    }

    #[test]
    fn shared_dir_remote_behaves_like_a_second_machine() {
        let local_a = TempDir::new("dir-local-a");
        let local_b = TempDir::new("dir-local-b");
        let remote = TempDir::new("dir-remote");

        let a = TestStore::open(StoreOptions::shared(&local_a.0, &remote.0)).expect("open A");
        let _ = a.get_or_build(5, (), || payload(5));
        a.flush().expect("flush");
        assert!(remote.0.join(TestCodec::file_name(&5)).exists(), "remote dir populated");

        let b = TestStore::open(StoreOptions::shared(&local_b.0, &remote.0)).expect("open B");
        let _ = b.get_or_build(5, (), || panic!("warm remote must serve"));
        assert_eq!(b.stats().misses, 0);
    }

    #[test]
    fn subdir_nests_every_location_kind() {
        let opts = StoreOptions::dir("/x/root").subdir("ground-truth");
        assert_eq!(opts.primary_dir(), Some(Path::new("/x/root/ground-truth")));
        let opts = StoreOptions::shared("/x/local", "/x/remote").subdir("ground-truth");
        assert_eq!(opts.primary_dir(), Some(Path::new("/x/local/ground-truth")));
        match &opts.location {
            StoreLocation::Shared { remote: Remote::Dir(path), .. } => {
                assert_eq!(path, Path::new("/x/remote/ground-truth"));
            }
            other => panic!("unexpected location {other:?}"),
        }
        assert!(!StoreOptions::in_memory().subdir("x").is_persistent());

        // Backend remotes nest via a name prefix: two sibling stores over
        // one flat remote namespace stay disjoint.
        let shared: Arc<MemBackend> = Arc::new(MemBackend::new());
        let tmp_a = TempDir::new("subdir-a");
        let root = StoreOptions::shared_with(&tmp_a.0, shared.clone());
        let store = TestStore::open(root.subdir("ground-truth")).expect("open");
        let _ = store.get_or_build(1, (), || payload(1));
        store.flush().expect("flush");
        let names: Vec<String> = shared.list().expect("list").into_iter().map(|e| e.name).collect();
        assert_eq!(names, [format!("ground-truth/{}", TestCodec::file_name(&1))]);
    }

    // -- prune_backend edge cases through the new API ----------------------

    #[test]
    fn unbounded_limits_prune_nothing() {
        let tmp = TempDir::new("prune-noop");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        backend.write_atomic("0000000000000001.nftest", &[0u8; 100]).expect("write");
        let report = prune_backend(&backend, &StoreLimits::default()).expect("prune");
        assert_eq!(report, PruneReport::default());
        assert!(tmp.0.join("0000000000000001.nftest").exists());
        assert!(StoreLimits::default().is_unbounded());
    }

    #[test]
    fn age_sweep_removes_expired_entries_but_never_tmp_or_foreign_files() {
        let tmp = TempDir::new("prune-age");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        backend.write_atomic("0000000000000001.nftest", &[0u8; 64]).expect("write");
        std::fs::write(tmp.0.join("keep.txt"), b"foreign file").expect("foreign");
        std::fs::write(tmp.0.join("0000000000000002.nftest.tmp-1-2"), b"in flight").expect("tmp");
        let limits = StoreLimits::default().with_max_age(Duration::ZERO);
        let report = prune_backend(&backend, &limits).expect("prune");
        assert_eq!((report.removed_files, report.removed_bytes), (1, 64));
        assert!(!tmp.0.join("0000000000000001.nftest").exists());
        assert!(tmp.0.join("keep.txt").exists(), "foreign files untouched");
        assert!(tmp.0.join("0000000000000002.nftest.tmp-1-2").exists(), "tmp untouched");
    }

    #[test]
    fn age_sweep_and_size_budget_interact_in_order() {
        // The age sweep runs first; the size budget then applies to the
        // survivors only — so an expired old entry never "uses up" the
        // budget eviction that should fall on the oldest survivor.
        let tmp = TempDir::new("prune-interact");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        for key in 1u64..=3 {
            backend.write_atomic(&TestCodec::file_name(&key), &[0u8; 100]).expect("write");
            std::thread::sleep(Duration::from_millis(15));
        }
        // Backdate entry 1 far enough that only it exceeds max_age.
        let old = std::time::SystemTime::now() - Duration::from_secs(3600);
        let f = std::fs::File::options()
            .write(true)
            .open(tmp.0.join(TestCodec::file_name(&1)))
            .expect("open");
        f.set_modified(old).expect("backdate");

        let limits =
            StoreLimits::default().with_max_age(Duration::from_secs(60)).with_max_bytes(150);
        let report = prune_backend(&backend, &limits).expect("prune");
        // Age removed #1 (100 B); the budget then evicted #2, the oldest
        // survivor, to bring 200 B under 150 B.
        assert_eq!(report.removed_files, 2);
        assert_eq!(report.removed_bytes, 200);
        assert_eq!(report.retained_bytes, 100);
        assert!(!tmp.0.join(TestCodec::file_name(&1)).exists());
        assert!(!tmp.0.join(TestCodec::file_name(&2)).exists());
        assert!(tmp.0.join(TestCodec::file_name(&3)).exists());
    }

    #[test]
    fn size_budget_evicts_oldest_first() {
        let tmp = TempDir::new("prune-budget");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        for key in 1u64..=3 {
            backend.write_atomic(&TestCodec::file_name(&key), &[0u8; 100]).expect("write");
            std::thread::sleep(Duration::from_millis(15));
        }
        let limits = StoreLimits::default().with_max_bytes(250);
        let report = prune_backend(&backend, &limits).expect("prune");
        assert_eq!(report.removed_files, 1, "one eviction brings 300 bytes under 250");
        assert_eq!(report.retained_bytes, 200);
        assert!(!tmp.0.join(TestCodec::file_name(&1)).exists(), "oldest goes first");
        assert!(tmp.0.join(TestCodec::file_name(&2)).exists());
        assert!(tmp.0.join(TestCodec::file_name(&3)).exists());
    }

    #[test]
    fn missing_directory_prunes_nothing() {
        let tmp = TempDir::new("prune-missing");
        let backend = DirBackend::create(&tmp.0, "nftest").expect("create");
        std::fs::remove_dir_all(&tmp.0).expect("remove");
        let limits = StoreLimits::default().with_max_bytes(1);
        let report = prune_backend(&backend, &limits).expect("missing dir is not an error");
        assert_eq!(report, PruneReport::default());
    }

    #[test]
    fn pruning_under_an_open_handle_degrades_to_rebuilds() {
        // Another process pruning the directory a live store has indexed
        // must cost that store exactly a rebuild per evicted entry — never
        // an error — and its next flush repairs the file.
        let tmp = TempDir::new("prune-live");
        let live = TestStore::open(&tmp.0).expect("open live handle");
        let built = live.get_or_build(11, (), || payload(11));
        live.flush().expect("flush");
        // Entry decoded lazily: drop the in-memory copy by reopening.
        let live = TestStore::open(&tmp.0).expect("reopen live handle");
        assert_eq!(live.stats().indexed, 1);

        // A second handle opens with limits that evict everything.
        let pruner = TestStore::open(
            StoreOptions::dir(&tmp.0)
                .with_limits(StoreLimits::default().with_max_age(Duration::ZERO)),
        )
        .expect("open pruning handle");
        assert_eq!(pruner.stats().indexed, 0, "expired entry must not index");
        assert!(!tmp.0.join(TestCodec::file_name(&11)).exists());

        // The live handle's stale index entry falls through to a rebuild.
        let rebuilt = live.get_or_build(11, (), || payload(11));
        assert_eq!(*built, *rebuilt);
        let stats = live.stats();
        assert_eq!((stats.disk_hits, stats.misses), (0, 1), "stale index costs one rebuild");
        assert_eq!(live.flush().expect("repair"), 1, "next flush repairs the pruned file");
        assert!(tmp.0.join(TestCodec::file_name(&11)).exists());
    }

    #[test]
    fn a_poisoned_lock_recovers_instead_of_cascading() {
        // A thread dying while holding the entries lock poisons it; the
        // guarded map is still valid (slots are inserted atomically), so
        // later lookups must recover and keep serving.
        let store = Arc::new(TestStore::in_memory());
        let _ = store.get_or_build(1, (), || payload(1));
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().expect("not yet poisoned");
            panic!("die holding the entries lock");
        })
        .join();
        assert!(store.entries.is_poisoned(), "precondition: the lock is poisoned");
        let served = store.get_or_build(1, (), || panic!("value must be resident"));
        assert_eq!(*served, payload(1));
        let _ = store.get_or_build(2, (), || payload(2));
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.flush().expect("flush still works"), 0);
    }

    #[test]
    fn flush_report_attempts_every_entry_and_collects_failures() {
        use crate::fault::{FaultOp, FaultPlan, FaultyBackend};
        // Writes fail persistently from the second one on (a disk that
        // filled up mid-flush): the report must keep going and collect
        // every failure, not abort at the first.
        let backend: Arc<dyn StoreBackend> = Arc::new(FaultyBackend::new(
            Arc::new(MemBackend::new()),
            FaultPlan::none().persistent_from(
                FaultOp::WriteAtomic,
                1,
                io::ErrorKind::PermissionDenied,
            ),
        ));
        let store = TestStore::open(StoreOptions::backend(backend)).expect("open");
        for key in 1u64..=3 {
            let _ = store.get_or_build(key, (), || payload(key as u8));
        }
        let report = store.flush_report();
        assert_eq!(report.written, 1, "the one allowed write landed");
        assert_eq!(report.failures.len(), 2, "every failure collected, not just the first");
        assert!(report.failures.iter().all(|(_, e)| e.kind() == io::ErrorKind::PermissionDenied));
        assert!(!report.is_clean());
        assert!(report.to_string().contains("2 failed"));

        // The written entry went clean; the failed ones stay dirty and are
        // retried (and fail again under this plan).
        let again = store.flush_report();
        assert_eq!((again.written, again.failures.len()), (0, 2));
        assert!(store.flush().is_err(), "flush() surfaces the first per-entry failure");
    }

    #[test]
    fn custom_backend_location_round_trips_and_nests() {
        let mem: Arc<MemBackend> = Arc::new(MemBackend::new());
        let opts = StoreOptions::backend(mem.clone());
        assert!(opts.is_persistent());
        assert_eq!(opts.primary_dir(), None);
        assert!(opts.describe().contains("custom"));

        let store = TestStore::open(&opts).expect("open");
        let built = store.get_or_build(6, (), || payload(6));
        store.flush().expect("flush");
        let reopened = TestStore::open(&opts).expect("reopen over the same backend");
        assert_eq!(reopened.stats().indexed, 1);
        let loaded = reopened.get_or_build(6, (), || panic!("must decode"));
        assert_eq!(*built, *loaded);

        // Nesting goes through a name prefix, like backend remotes.
        let nested = TestStore::open(opts.subdir("ground-truth")).expect("open nested");
        let _ = nested.get_or_build(1, (), || payload(1));
        nested.flush().expect("flush nested");
        assert!(mem
            .list()
            .expect("list")
            .iter()
            .any(|e| e.name == format!("ground-truth/{}", TestCodec::file_name(&1))));
    }

    #[test]
    fn retry_policy_rides_through_subdir_into_the_shared_backend() {
        use crate::backend::RemoteHealth;
        use crate::fault::{FaultMode, FaultOp, FaultPlan, FaultyBackend};
        let tmp = TempDir::new("retry-subdir");
        // The remote times out once on the first read; the store's retry
        // policy (propagated through subdir) must absorb it.
        let mem = Arc::new(MemBackend::new());
        let faulty = Arc::new(FaultyBackend::new(
            mem,
            FaultPlan::none().fail_nth(
                FaultOp::Read,
                0,
                FaultMode::Transient(io::ErrorKind::TimedOut),
            ),
        ));
        let root = StoreOptions::shared_with(&tmp.0, faulty)
            .with_retry(RetryPolicy::new(3, Duration::ZERO));
        let nested = root.subdir("ground-truth");
        assert_eq!(nested.retry, root.retry, "subdir inherits the retry policy");

        let store = TestStore::open(nested).expect("open");
        let _ = store.get_or_build(2, (), || payload(2));
        store.flush().expect("flush");
        // Force a remote read by reopening with a fresh (cold) local dir.
        let tmp_b = TempDir::new("retry-subdir-b");
        drop(store);
        let faulty_b = {
            let mem_b = Arc::new(MemBackend::new());
            // Re-seed a remote carrying the entry, faulting its first read.
            let seeder = TestStore::open(StoreOptions::backend(mem_b.clone())).expect("seed");
            let _ = seeder.get_or_build(2, (), || payload(2));
            seeder.flush().expect("seed flush");
            Arc::new(FaultyBackend::new(
                mem_b,
                FaultPlan::none().fail_nth(
                    FaultOp::Read,
                    0,
                    FaultMode::Transient(io::ErrorKind::TimedOut),
                ),
            ))
        };
        let cold = TestStore::open(
            StoreOptions::shared_with(&tmp_b.0, faulty_b)
                .with_retry(RetryPolicy::new(3, Duration::ZERO)),
        )
        .expect("open cold");
        let served = cold.get_or_build(2, (), || panic!("retried remote read must serve"));
        assert_eq!(*served, payload(2));
        let stats = cold.stats();
        assert_eq!(stats.retries, 1, "the transient timeout cost exactly one retry");
        assert_eq!(stats.remote_errors, 0);
        let backend = cold.backend().expect("backend");
        assert_eq!(backend.resilience().health(), RemoteHealth::Healthy);
    }

    #[test]
    fn degraded_reprobe_cadence_is_per_handle_not_shared_across_clones() {
        use crate::backend::{RemoteHealth, REPROBE_INTERVAL};
        use std::sync::atomic::AtomicBool;

        /// A remote that can be switched dead/alive: dead refuses every
        /// operation, alive delegates to an in-memory backend.
        #[derive(Debug)]
        struct FlipBackend {
            inner: MemBackend,
            alive: AtomicBool,
        }

        impl FlipBackend {
            fn gate(&self) -> io::Result<()> {
                if self.alive.load(Ordering::Relaxed) {
                    Ok(())
                } else {
                    Err(io::Error::new(io::ErrorKind::ConnectionRefused, "remote down"))
                }
            }
        }

        impl StoreBackend for FlipBackend {
            fn list(&self) -> io::Result<Vec<EntryMeta>> {
                self.gate()?;
                self.inner.list()
            }
            fn read(&self, name: &str) -> io::Result<Vec<u8>> {
                self.gate()?;
                self.inner.read(name)
            }
            fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
                self.gate()?;
                self.inner.write_atomic(name, bytes)
            }
            fn remove(&self, name: &str) -> io::Result<()> {
                self.gate()?;
                self.inner.remove(name)
            }
            fn sweep_tmp(&self) -> io::Result<()> {
                self.gate()?;
                self.inner.sweep_tmp()
            }
            fn describe(&self) -> String {
                "flip".to_string()
            }
        }

        let tmp = TempDir::new("per-handle-probe");
        let flip =
            Arc::new(FlipBackend { inner: MemBackend::new(), alive: AtomicBool::new(false) });
        flip.inner.write_atomic("warm.nftest", b"behind the outage").expect("seed");
        let original =
            SharedBackend::new(DirBackend::create(&tmp.0, "nftest").expect("local"), flip.clone())
                .with_retry(RetryPolicy::new(1, Duration::ZERO));

        // Trip the breaker on the original handle, then bring the remote
        // back: recovery now only needs a probe to fire.
        assert!(original.read("warm.nftest").is_err());
        assert_eq!(original.remote_health(), RemoteHealth::Degraded);
        flip.alive.store(true, Ordering::Relaxed);

        // A busy clone burns one op short of its own probe window. The
        // breaker is shared, so both handles see Degraded throughout.
        let busy = original.clone();
        for _ in 0..REPROBE_INTERVAL - 1 {
            assert!(busy.read("warm.nftest").is_err());
        }
        assert_eq!(busy.remote_health(), RemoteHealth::Degraded);

        // With the historic *shared* tick, the clone's traffic advanced the
        // original's cadence: its very next op would draw the probe slot.
        // Per-handle, the original probes on its own 16th op — no earlier.
        for i in 0..REPROBE_INTERVAL - 1 {
            assert!(original.read("warm.nftest").is_err(), "op {i} must not probe early");
            assert_eq!(original.remote_health(), RemoteHealth::Degraded);
        }
        assert_eq!(
            original.read("warm.nftest").expect("16th op probes and recovers"),
            b"behind the outage"
        );
        assert_eq!(original.remote_health(), RemoteHealth::Healthy);
    }

    #[test]
    fn store_options_describe_and_froms() {
        assert_eq!(StoreOptions::in_memory().describe(), "in-memory");
        assert!(StoreOptions::dir("/a/b").describe().contains("/a/b"));
        assert!(StoreOptions::shared("/l", "/r").describe().contains("remote=dir /r"));
        assert!(StoreOptions::dir("/a").read_only(true).describe().contains("read-only"));
        let from_path: StoreOptions = Path::new("/x").into();
        assert_eq!(from_path.primary_dir(), Some(Path::new("/x")));
        let from_buf: StoreOptions = PathBuf::from("/y").into();
        assert_eq!(from_buf.primary_dir(), Some(Path::new("/y")));
    }
}
