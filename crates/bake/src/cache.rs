//! Content-addressed cache of baked assets — a thin typed wrapper over the
//! generic [`crate::store::KeyedStore`].
//!
//! The cloud-side pipeline bakes the same (object, configuration) pair in two
//! places: the profiler measures a handful of sample configurations per
//! object, and the final baking stage bakes whatever the selector picked.
//! Whenever the selection lands on a configuration that was already probed —
//! which the variable-step sampling makes likely at the corners of the space —
//! the second bake is pure waste. A [`BakeCache`] shared between the two
//! stages eliminates it, which is a large part of the paper's "cloud
//! preparation stays cheap relative to baking" story (Fig. 9).
//!
//! Assets are baked in the object's local frame; the placement is only
//! stamped on afterwards (see [`crate::asset`]). The cache therefore stores
//! placement-free assets keyed by *content*: a fingerprint of the object's
//! geometry and appearance plus the [`BakeConfig`]. Two identical objects —
//! e.g. the same canonical object instanced twice in a scene — share cache
//! entries even though their instance ids and placements differ.
//!
//! The cache is [`Sync`]; the parallel profiling and baking stages share one
//! instance across worker threads.
//!
//! # Persistence
//!
//! This module contributes exactly two things: the content fingerprint
//! ([`model_fingerprint`]) and the entry codec (file naming + byte framing,
//! implemented by [`crate::disk`]). Everything else — the lazy filename
//! index, the snapshot-outside-lock flush, temporary sweeping,
//! [`crate::StoreLimits`] pruning, corruption tolerance, read-only mode and
//! the choice of storage backend (one directory, or a local layer over a
//! shared remote for cross-machine reuse) — is the shared [`KeyedStore`]
//! machinery, configured through [`crate::StoreOptions`]. `docs/stores.md`
//! documents the store API and the on-disk layout
//! (`{fingerprint:016x}-g{g}-p{p}.nfbake` for mesh-family entries,
//! `…-g{g}-s{count}.nfbake` for splat-family ones, format version
//! [`crate::disk::CACHE_FORMAT_VERSION`]). Both families ride the same
//! store path: splat extraction is cached, coalesced, shared cross-machine
//! and fault-injectable exactly like mesh baking.
//!
//! [`CacheStats`] distinguishes where a hit's entry came from: `hits` counts
//! lookups answered by an entry baked in this process, `disk_hits` lookups
//! answered by an entry loaded from the persistent layer — the cross-process
//! reuse signal.

use crate::asset::BakedAsset;
use crate::config::BakeConfig;
use crate::disk;
use crate::store::{EntryCodec, KeyedStore, StoreOptions};
use crate::surface::BakeSurface;
use nerflex_math::pool::default_workers;
use nerflex_math::{Vec3, WorkerPool};
use nerflex_scene::object::ObjectModel;
use nerflex_scene::scene::PlacedObject;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// 64-bit FNV-1a, the classic dependency-free stable hash: the one hash
/// behind every content fingerprint and store checksum in the workspace
/// (numbers are fed as little-endian bytes, floats as IEEE-754 bits, so
/// values are stable across runs and platforms).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Feeds bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f32` as its little-endian IEEE-754 bit pattern.
    #[inline]
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Content fingerprint of an object model: a stable 64-bit hash of its name,
/// its geometry (SDF distances sampled on a fixed lattice over the local
/// frame) and its appearance (albedo sampled at fixed points and normals).
///
/// The fingerprint depends only on what the bake consumes — two models that
/// are content-identical hash equally even when they are separate allocations
/// built by independent generator calls. It is stable across runs and
/// platforms (FNV-1a over IEEE-754 bit patterns, no pointer or layout input).
pub fn model_fingerprint(model: &ObjectModel) -> u64 {
    let mut h = Fnv1a::new();
    h.write(model.name.as_bytes());
    // Geometry: signed distances on a 7³ lattice spanning the local frame.
    // Procedural objects sit roughly in the unit box around the origin; the
    // lattice extends past it so scaled/offset geometry still differentiates.
    const N: i32 = 3;
    const EXTENT: f32 = 1.25;
    for x in -N..=N {
        for y in -N..=N {
            for z in -N..=N {
                let p = Vec3::new(x as f32, y as f32, z as f32) * (EXTENT / N as f32);
                h.write_f32(model.sdf.distance(p));
            }
        }
    }
    // Appearance: albedo at a coarser lattice, probed along two fixed
    // normals so normal-dependent patterns (studs, stripes) contribute.
    for x in -1..=1 {
        for y in -1..=1 {
            for z in -1..=1 {
                let p = Vec3::new(x as f32, y as f32, z as f32) * 0.6;
                for n in [Vec3::new(0.0, 1.0, 0.0), Vec3::new(1.0, 0.0, 0.0)] {
                    let c = model.appearance.albedo(p, n);
                    h.write_f32(c.r);
                    h.write_f32(c.g);
                    h.write_f32(c.b);
                }
            }
        }
    }
    h.finish()
}

/// Hit/miss/occupancy counters of a [`BakeCache`], read via
/// [`BakeCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered by an entry baked in this process.
    pub hits: usize,
    /// Lookups answered by an entry loaded from disk (cross-process reuse).
    pub disk_hits: usize,
    /// Lookups that had to bake.
    pub misses: usize,
    /// Misses that ran a splat-family extraction (a subset of `misses`).
    /// The CI bench-smoke warm-run assertion keys on this: a second run
    /// over a warm store must report zero re-extractions.
    pub splat_extractions: usize,
    /// Bake surfaces built ([`BakeSurface`]): at most one per `(family,
    /// g)` group of a batch lookup, inside the group's first miss (a single
    /// lookup is a batch of one). Hits, disk hits and coalesced waiters
    /// never build one, so a warm batch builds none.
    pub surface_builds: usize,
    /// Lookups that waited on another lookup's in-flight bake of the same
    /// asset instead of duplicating it.
    pub coalesced: usize,
    /// Distinct (object, configuration) assets currently stored (decoded in
    /// memory or indexed on disk).
    pub entries: usize,
    /// Entries indexed from the cache directory when the cache was opened
    /// (decoded lazily on first lookup; 0 for in-memory caches).
    pub loaded_from_disk: usize,
    /// Logical remote operations attempted by a shared store's backend
    /// (0 unless the cache is layered over a remote).
    pub remote_ops: usize,
    /// Remote operations that failed after exhausting their retries.
    pub remote_errors: usize,
    /// Retries performed on transient remote errors
    /// ([`RetryPolicy`](crate::backend::RetryPolicy)).
    pub retries: usize,
    /// Lookups served local-only because the remote was degraded.
    pub degraded_ops: usize,
}

impl CacheStats {
    /// All lookups answered without baking (in-process plus disk-loaded).
    pub fn total_hits(&self) -> usize {
        self.hits + self.disk_hits
    }

    /// Hit ratio in `[0, 1]` (0 when the cache was never queried). Disk-
    /// loaded hits count as hits: the lookup was answered without baking.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// Counter difference `self − earlier`, for per-stage accounting. The
    /// occupancy fields (`entries`, `loaded_from_disk`) are states, not
    /// counters, and carry `self`'s current values.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            splat_extractions: self.splat_extractions - earlier.splat_extractions,
            surface_builds: self.surface_builds - earlier.surface_builds,
            coalesced: self.coalesced - earlier.coalesced,
            entries: self.entries,
            loaded_from_disk: self.loaded_from_disk,
            remote_ops: self.remote_ops - earlier.remote_ops,
            remote_errors: self.remote_errors - earlier.remote_errors,
            retries: self.retries - earlier.retries,
            degraded_ops: self.degraded_ops - earlier.degraded_ops,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} from disk) / {} misses ({} entries, {} loaded, {:.0}% hit rate)",
            self.total_hits(),
            self.disk_hits,
            self.misses,
            self.entries,
            self.loaded_from_disk,
            self.hit_ratio() * 100.0
        )?;
        if self.remote_errors + self.retries + self.degraded_ops > 0 {
            write!(
                f,
                ", resilience: {} retries / {} remote errors / {} degraded ops",
                self.retries, self.remote_errors, self.degraded_ops
            )?;
        }
        Ok(())
    }
}

/// The bake store's [`EntryCodec`]: `{fingerprint:016x}-g{g}-p{p}.nfbake`
/// (mesh) / `…-g{g}-s{count}.nfbake` (splat) file names and the
/// [`crate::disk`] framing. This is the *entire* store-specific surface of
/// the bake cache's persistence.
#[derive(Debug)]
pub struct BakeEntryCodec;

impl EntryCodec for BakeEntryCodec {
    type Key = (u64, BakeConfig);
    type Value = BakedAsset;
    type Context<'a> = ();
    const EXTENSION: &'static str = disk::ENTRY_EXTENSION;

    fn file_name(key: &Self::Key) -> String {
        disk::entry_file_name(key.0, key.1)
    }

    fn parse_file_name(name: &str) -> Option<Self::Key> {
        disk::parse_entry_file_name(name)
    }

    fn encode(key: &Self::Key, asset: &BakedAsset) -> Vec<u8> {
        disk::encode_entry(key.0, asset)
    }

    fn decode(key: &Self::Key, bytes: &[u8], (): ()) -> Option<Arc<BakedAsset>> {
        // The embedded key must echo the file name the entry was indexed by.
        let (fingerprint, config, asset) = disk::decode_entry(bytes).ok()?;
        ((fingerprint, config) == *key).then_some(asset)
    }
}

/// A thread-safe, content-addressed store of local-frame baked assets.
///
/// ```
/// use nerflex_bake::{BakeCache, BakeConfig};
/// use nerflex_scene::object::CanonicalObject;
///
/// let cache = BakeCache::new();
/// let model = CanonicalObject::Hotdog.build();
/// let first = cache.get_or_bake(&model, BakeConfig::new(12, 3));
/// let again = cache.get_or_bake(&model, BakeConfig::new(12, 3));
/// assert_eq!(first.size_bytes(), again.size_bytes());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct BakeCache {
    store: KeyedStore<BakeEntryCodec>,
    /// Splat-family extractions actually run (misses only; hits and
    /// coalesced waiters never extract).
    splat_extractions: AtomicUsize,
    /// Bake surfaces built (inside miss builders only).
    surface_builds: AtomicUsize,
}

impl BakeCache {
    /// Creates an empty in-memory cache (no persistence; [`BakeCache::flush`]
    /// is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a cache as the [`StoreOptions`] direct — a plain path (or
    /// anything convertible) opens the classic single-directory store:
    ///
    /// ```no_run
    /// use nerflex_bake::{BakeCache, StoreLimits, StoreOptions};
    ///
    /// // The classic layout: one directory.
    /// let cache = BakeCache::open("/tmp/bake-store")?;
    /// // Bounded, shared across machines through a remote directory.
    /// let cache = BakeCache::open(
    ///     StoreOptions::shared("/tmp/local-layer", "/mnt/farm/bake-store")
    ///         .with_limits(StoreLimits::default().with_max_bytes(1 << 30)),
    /// )?;
    /// # std::io::Result::Ok(())
    /// ```
    ///
    /// Opening sweeps orphaned temporaries and applies the retention limits
    /// (both skipped in read-only mode), then **indexes** the entry files by
    /// their key-encoding names — an entry is read and decoded on its first
    /// lookup, so opening a large accumulated store costs a listing, not a
    /// full decode of every entry.
    ///
    /// Lookups stay corruption-tolerant: a truncated, bit-flipped, foreign-
    /// version or key-mismatched file is discovered at first lookup and
    /// costs exactly one re-bake (the next flush repairs it), never an
    /// error. Files whose names do not parse as entry keys are ignored.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the backing store cannot be
    /// created or listed.
    pub fn open(options: impl Into<StoreOptions>) -> io::Result<Self> {
        Ok(Self { store: KeyedStore::open(options)?, ..Self::default() })
    }

    /// The primary local directory of a persistent cache (`None` when
    /// in-memory).
    pub fn dir(&self) -> Option<&Path> {
        self.store.options().primary_dir()
    }

    /// Writes every entry baked since the last flush to the backing store,
    /// returning how many entries were written (0 for in-memory or
    /// read-only caches). See [`KeyedStore::flush`] for the concurrency and
    /// atomicity guarantees.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered. Every dirty entry is still
    /// attempted; the written ones stay flushed, the failed ones stay dirty
    /// and are retried next flush.
    pub fn flush(&self) -> io::Result<usize> {
        self.store.flush()
    }

    /// Like [`BakeCache::flush`], but attempts every dirty entry and
    /// collects the per-entry failures instead of stopping at the first
    /// (see [`KeyedStore::flush_report`]).
    pub fn flush_report(&self) -> crate::store::FlushReport {
        self.store.flush_report()
    }

    /// Current counters, including the shared store's resilience counters.
    pub fn stats(&self) -> CacheStats {
        let stats = self.store.stats();
        CacheStats {
            hits: stats.hits,
            disk_hits: stats.disk_hits,
            misses: stats.misses,
            splat_extractions: self.splat_extractions.load(Ordering::Relaxed),
            surface_builds: self.surface_builds.load(Ordering::Relaxed),
            coalesced: stats.coalesced,
            entries: stats.entries,
            loaded_from_disk: stats.indexed,
            remote_ops: stats.remote_ops,
            remote_errors: stats.remote_errors,
            retries: stats.retries,
            degraded_ops: stats.degraded_ops,
        }
    }

    /// `true` when the (model, config) pair is already baked or indexed on
    /// disk. For a not-yet-decoded disk entry this is optimistic: a damaged
    /// file is only discovered (and transparently re-baked) at lookup.
    pub fn contains(&self, model: &ObjectModel, config: BakeConfig) -> bool {
        self.store.contains(&(model_fingerprint(model), config))
    }

    /// Returns the local-frame asset for `(model, config)`, baking and
    /// storing it on first request. An entry indexed from the persistent
    /// store is read and decoded here, on its first lookup — outside the
    /// entry lock, so other workers keep hitting the cache meanwhile.
    pub fn get_or_bake(&self, model: &ObjectModel, config: BakeConfig) -> Arc<BakedAsset> {
        self.lookup(model, model_fingerprint(model), config, &OnceLock::new())
    }

    /// Cache-aware replacement for [`crate::asset::bake_placed`]: the
    /// local-frame asset comes from the cache (baked on first request) and
    /// the placement and instance id of `object` are stamped on the copy.
    /// With the mesh and atlas behind [`Arc`], the copy is two reference-
    /// count bumps, not a deep clone — a hit is near-free.
    pub fn get_or_bake_placed(&self, object: &PlacedObject, config: BakeConfig) -> BakedAsset {
        (*self.get_or_bake(&object.model, config)).clone().placed_as(object)
    }

    /// [`BakeCache::get_or_bake_placed`] for every configuration of
    /// `configs`, fanned over `workers` pool workers (`0` = one per core;
    /// output bits never depend on it), in one pool dispatch.
    ///
    /// The configurations are grouped by `(family, g)`, and each group gets
    /// one [`BakeSurface`] slot for the duration of this call. The group's
    /// first *miss* builds the surface inside its builder; the group's other
    /// misses finish their bakes from it, so the patch-size assets of one
    /// `g` share one `Arc<QuadMesh>`. Hits, disk hits and coalesced waiters
    /// never build a surface, so a warm batch builds none
    /// ([`CacheStats::surface_builds`]). Keys, entry bytes and every other
    /// counter are those of per-config lookups, and no surface outlives
    /// the call.
    pub fn get_or_bake_batch_placed(
        &self,
        object: &PlacedObject,
        configs: &[BakeConfig],
        workers: usize,
    ) -> Vec<BakedAsset> {
        let group = |config: &BakeConfig| (config.family.tag(), config.grid);
        let surfaces: BTreeMap<(u8, u32), OnceLock<BakeSurface>> =
            configs.iter().map(|config| (group(config), OnceLock::new())).collect();
        let fingerprint = model_fingerprint(&object.model);
        let workers = match workers {
            0 => default_workers(configs.len()),
            n => n,
        };
        WorkerPool::shared().run(configs.len(), workers, |idx| {
            let config = configs[idx];
            let surface = &surfaces[&group(&config)];
            (*self.lookup(&object.model, fingerprint, config, surface)).clone().placed_as(object)
        })
    }

    /// The single-flight lookup of `(fingerprint, config)`. A miss finishes
    /// its bake from `surface`, building it first if no earlier miss of the
    /// same group did.
    fn lookup(
        &self,
        model: &ObjectModel,
        fingerprint: u64,
        config: BakeConfig,
        surface: &OnceLock<BakeSurface>,
    ) -> Arc<BakedAsset> {
        self.store.get_or_build((fingerprint, config), (), || {
            // The builder only runs on a real miss, so this counts actual
            // extractions — hits, disk hits and coalesced waiters skip it.
            if config.splat_count().is_some() {
                self.splat_extractions.fetch_add(1, Ordering::Relaxed);
            }
            let surface = surface.get_or_init(|| {
                self.surface_builds.fetch_add(1, Ordering::Relaxed);
                BakeSurface::build(&model.sdf, config)
            });
            surface.finish(model, config)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreLimits;
    use nerflex_scene::object::CanonicalObject;
    use nerflex_scene::scene::Scene;

    #[test]
    fn fnv1a_matches_the_standard_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces hashes the same bytes the same way.
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn fingerprint_is_stable_across_identical_objects() {
        // Two independent builds of the same canonical object are separate
        // allocations with identical content — they must hash equally.
        let a = CanonicalObject::Lego.build();
        let b = CanonicalObject::Lego.build();
        assert_eq!(model_fingerprint(&a), model_fingerprint(&b));
        // And repeated hashing of the same model is stable.
        assert_eq!(model_fingerprint(&a), model_fingerprint(&a));
    }

    #[test]
    fn fingerprint_separates_different_objects() {
        let mut seen = std::collections::HashSet::new();
        for object in CanonicalObject::ALL {
            assert!(
                seen.insert(model_fingerprint(&object.build())),
                "fingerprint collision for {object}"
            );
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BakeCache::new();
        let hotdog = CanonicalObject::Hotdog.build();
        let chair = CanonicalObject::Chair.build();

        let _ = cache.get_or_bake(&hotdog, BakeConfig::new(10, 3)); // miss
        let _ = cache.get_or_bake(&hotdog, BakeConfig::new(10, 3)); // hit
        let _ = cache.get_or_bake(&hotdog, BakeConfig::new(12, 3)); // miss (new config)
        let _ = cache.get_or_bake(&chair, BakeConfig::new(10, 3)); // miss (new object)
        let _ = cache.get_or_bake(&chair, BakeConfig::new(10, 3)); // hit

        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 3);
        assert!((stats.hit_ratio() - 0.4).abs() < 1e-12);
        let earlier = CacheStats { hits: 1, misses: 1, ..CacheStats::default() };
        assert_eq!(stats.since(&earlier).hits, 1);
    }

    #[test]
    fn splat_extractions_are_counted_and_cached() {
        let tmp = TempDir::new("splat-count");
        let model = CanonicalObject::Hotdog.build();
        let config = BakeConfig::splat(16, 256);

        let cache = BakeCache::open(&tmp.0).expect("open");
        let first = cache.get_or_bake(&model, config);
        let again = cache.get_or_bake(&model, config);
        let _ = cache.get_or_bake(&model, BakeConfig::new(10, 3));
        let stats = cache.stats();
        assert_eq!(stats.splat_extractions, 1, "one extraction per distinct splat config");
        assert_eq!(stats.misses, 2, "mesh miss does not count as an extraction");
        assert_eq!(first.splats, again.splats);
        cache.flush().expect("flush");

        // A warm store serves the cloud from disk: zero re-extractions —
        // the acceptance criterion the CI bench-smoke run pins.
        let warm = BakeCache::open(&tmp.0).expect("reopen");
        let loaded = warm.get_or_bake(&model, config);
        let stats = warm.stats();
        assert_eq!((stats.disk_hits, stats.splat_extractions), (1, 0));
        assert_eq!(
            loaded.splats.as_deref().expect("cloud"),
            first.splats.as_deref().expect("cloud")
        );
    }

    #[test]
    fn identical_instances_share_entries() {
        // The same canonical object placed twice: one bake serves both.
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Hotdog], 5);
        let cache = BakeCache::new();
        let a = cache.get_or_bake_placed(&scene.objects()[0], BakeConfig::new(12, 3));
        let b = cache.get_or_bake_placed(&scene.objects()[1], BakeConfig::new(12, 3));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // Each copy keeps its own identity and placement…
        assert_eq!(a.object_id, 0);
        assert_eq!(b.object_id, 1);
        assert_eq!(b.placement.translation, scene.objects()[1].translation);
        // …over the shared local-frame geometry.
        assert_eq!(a.mesh.quad_count(), b.mesh.quad_count());
        assert_eq!(a.size_bytes(), b.size_bytes());
    }

    /// A unique, self-cleaning temporary directory for persistence tests.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "nerflex-cache-test-{tag}-{}-{}",
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
    fn flush_and_reopen_turn_misses_into_disk_hits() {
        let tmp = TempDir::new("roundtrip");
        let model = CanonicalObject::Hotdog.build();
        let config = BakeConfig::new(10, 3);

        // First process: miss, bake, flush one entry.
        let cache = BakeCache::open(&tmp.0).expect("open");
        assert_eq!(cache.stats().loaded_from_disk, 0);
        let first = cache.get_or_bake(&model, config);
        assert_eq!(cache.flush().expect("flush"), 1);
        // A second flush writes nothing: the entry is clean now.
        assert_eq!(cache.flush().expect("flush"), 0);

        // Second process (simulated): the entry loads, the lookup is a disk
        // hit, nothing re-bakes, the payload is identical.
        let reopened = BakeCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().loaded_from_disk, 1);
        assert!(reopened.contains(&model, config));
        let second = reopened.get_or_bake(&model, config);
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 1, 0));
        assert_eq!(*first.mesh, *second.mesh);
        assert_eq!(*first.atlas, *second.atlas);
        assert_eq!(first.size_bytes(), second.size_bytes());
    }

    #[test]
    fn hit_ratio_and_since_account_for_disk_hits() {
        let tmp = TempDir::new("ratio");
        let hotdog = CanonicalObject::Hotdog.build();
        let chair = CanonicalObject::Chair.build();
        let config = BakeConfig::new(10, 3);

        let cache = BakeCache::open(&tmp.0).expect("open");
        let _ = cache.get_or_bake(&hotdog, config);
        cache.flush().expect("flush");

        let reopened = BakeCache::open(&tmp.0).expect("reopen");
        let _ = reopened.get_or_bake(&hotdog, config); // disk hit
        let before = reopened.stats();
        let _ = reopened.get_or_bake(&chair, config); // miss
        let _ = reopened.get_or_bake(&chair, config); // in-process hit
        let _ = reopened.get_or_bake(&hotdog, config); // disk hit

        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (1, 2, 1));
        assert_eq!(stats.total_hits(), 3);
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12, "{stats}");
        // The per-stage delta separates the two hit kinds.
        let delta = stats.since(&before);
        assert_eq!((delta.hits, delta.disk_hits, delta.misses), (1, 1, 1));
        assert_eq!(delta.loaded_from_disk, 1);
    }

    #[test]
    fn corrupted_and_foreign_files_are_skipped_on_open() {
        let tmp = TempDir::new("corrupt");
        let hotdog = CanonicalObject::Hotdog.build();
        let chair = CanonicalObject::Chair.build();
        let config = BakeConfig::new(10, 3);

        let cache = BakeCache::open(&tmp.0).expect("open");
        let _ = cache.get_or_bake(&hotdog, config);
        let _ = cache.get_or_bake(&chair, config);
        cache.flush().expect("flush");

        // Truncate one entry file and drop unrelated garbage next to it.
        let mut files: Vec<_> = std::fs::read_dir(&tmp.0)
            .expect("read dir")
            .map(|f| f.expect("entry").path())
            .collect();
        files.sort();
        let victim = &files[0];
        let bytes = std::fs::read(victim).expect("read entry");
        std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("truncate");
        std::fs::write(tmp.0.join("garbage.nfbake"), b"not a cache entry").expect("garbage");
        std::fs::write(tmp.0.join("unrelated.txt"), b"ignored").expect("unrelated");

        // The lazy index keys on the (valid) file names: both real entries
        // index, the unparsable garbage does not. The damage surfaces at
        // first lookup — the truncated entry re-bakes (miss), the intact one
        // is a disk hit — and the next flush repairs the directory.
        let reopened = BakeCache::open(&tmp.0).expect("reopen survives corruption");
        assert_eq!(reopened.stats().loaded_from_disk, 2, "index is by file name");
        let _ = reopened.get_or_bake(&hotdog, config);
        let _ = reopened.get_or_bake(&chair, config);
        let stats = reopened.stats();
        assert_eq!(stats.disk_hits + stats.misses, 2);
        assert_eq!(stats.misses, 1, "exactly the damaged entry re-bakes");
        assert_eq!(reopened.flush().expect("repair flush"), 1);
        let repaired = BakeCache::open(&tmp.0).expect("open repaired");
        let _ = repaired.get_or_bake(&hotdog, config);
        let _ = repaired.get_or_bake(&chair, config);
        let after = repaired.stats();
        assert_eq!((after.disk_hits, after.misses), (2, 0), "repair restored both entries");
    }

    #[test]
    fn open_indexes_lazily_and_decodes_on_first_lookup() {
        let tmp = TempDir::new("lazy");
        let model = CanonicalObject::Hotdog.build();
        let config = BakeConfig::new(10, 3);
        let cache = BakeCache::open(&tmp.0).expect("open");
        let _ = cache.get_or_bake(&model, config);
        cache.flush().expect("flush");

        // Damage the entry file *after* reopening: if `open` had decoded
        // eagerly the lookup would still be served from memory, but the
        // lazy index reads the file at first lookup and discovers the
        // damage, proving nothing was decoded at open time.
        let reopened = BakeCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().loaded_from_disk, 1);
        let entry_path =
            tmp.0.join(crate::disk::entry_file_name(model_fingerprint(&model), config));
        std::fs::write(&entry_path, b"damaged after open").expect("overwrite");
        let _ = reopened.get_or_bake(&model, config);
        let stats = reopened.stats();
        assert_eq!((stats.disk_hits, stats.misses), (0, 1), "decode happens at lookup: {stats:?}");
        // The re-baked entry serves subsequent lookups from memory.
        let _ = reopened.get_or_bake(&model, config);
        assert_eq!(reopened.stats().hits, 1);
    }

    #[test]
    fn stale_flush_temporaries_are_swept_on_open() {
        let tmp = TempDir::new("tmp-sweep");
        let cache = BakeCache::open(&tmp.0).expect("open");
        let _ = cache.get_or_bake(&CanonicalObject::Hotdog.build(), BakeConfig::new(10, 3));
        cache.flush().expect("flush");
        // Simulate a crash between write and rename in another process.
        let orphan = tmp.0.join(format!(
            "{}.tmp-99999",
            crate::disk::entry_file_name(42, BakeConfig::new(10, 3))
        ));
        std::fs::write(&orphan, b"partial write").expect("orphan");

        let reopened = BakeCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().loaded_from_disk, 1, "real entry still loads");
        assert!(!orphan.exists(), "orphaned temporary must be swept");
    }

    #[test]
    fn limits_prune_and_evicted_entries_rebake() {
        let tmp = TempDir::new("limits");
        let model = CanonicalObject::Hotdog.build();
        let config = BakeConfig::new(10, 3);
        let cache = BakeCache::open(&tmp.0).expect("open");
        let _ = cache.get_or_bake(&model, config);
        cache.flush().expect("flush");

        // A zero age budget sweeps every persisted entry on the next open…
        let options = StoreOptions::dir(&tmp.0)
            .with_limits(StoreLimits::default().with_max_age(std::time::Duration::ZERO));
        let pruned = BakeCache::open(options).expect("open with limits");
        assert_eq!(pruned.stats().loaded_from_disk, 0, "expired entry must not index");
        // …and the evicted entry simply re-bakes (a miss, not an error).
        let _ = pruned.get_or_bake(&model, config);
        assert_eq!(pruned.stats().misses, 1);
        pruned.flush().expect("repair flush");

        // Unbounded limits leave the repaired store intact.
        let reopened = BakeCache::open(&tmp.0).expect("reopen");
        assert_eq!(reopened.stats().loaded_from_disk, 1);
    }

    #[test]
    fn read_only_caches_serve_hits_but_never_write() {
        let tmp = TempDir::new("read-only");
        let hotdog = CanonicalObject::Hotdog.build();
        let chair = CanonicalObject::Chair.build();
        let config = BakeConfig::new(10, 3);
        let writer = BakeCache::open(&tmp.0).expect("open");
        let _ = writer.get_or_bake(&hotdog, config);
        writer.flush().expect("flush");
        let files_before = std::fs::read_dir(&tmp.0).expect("read dir").count();

        let reader = BakeCache::open(StoreOptions::dir(&tmp.0).read_only(true)).expect("open");
        let _ = reader.get_or_bake(&hotdog, config); // disk hit
        let _ = reader.get_or_bake(&chair, config); // miss, stays in memory
        let stats = reader.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 1));
        assert_eq!(reader.flush().expect("read-only flush"), 0);
        assert_eq!(
            std::fs::read_dir(&tmp.0).expect("read dir").count(),
            files_before,
            "a read-only cache must not change the store"
        );
    }

    #[test]
    fn in_memory_cache_flush_is_a_noop() {
        let cache = BakeCache::new();
        let _ = cache.get_or_bake(&CanonicalObject::Hotdog.build(), BakeConfig::new(10, 3));
        assert_eq!(cache.dir(), None);
        assert_eq!(cache.flush().expect("noop"), 0);
    }

    #[test]
    fn cached_bake_matches_a_direct_bake() {
        let scene = Scene::with_objects(&[CanonicalObject::Chair], 9);
        let object = &scene.objects()[0];
        let config = BakeConfig::new(14, 5);
        let cache = BakeCache::new();
        let cached = cache.get_or_bake_placed(object, config);
        let direct = crate::asset::bake_placed(object, config);
        assert_eq!(cached.size_bytes(), direct.size_bytes());
        assert_eq!(cached.mesh.quad_count(), direct.mesh.quad_count());
        assert_eq!(cached.placement.translation, direct.placement.translation);
        assert_eq!(cached.object_id, direct.object_id);
    }

    #[test]
    fn batch_lookup_shares_surfaces_and_matches_per_config_bakes() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 4);
        let mut configs = Vec::new();
        for g in [10, 14] {
            configs.extend([3, 5, 7].map(|p| BakeConfig::new(g, p)));
        }
        configs.extend([64, 128, 256].map(|count| BakeConfig::splat(12, count)));
        let reference: Vec<Vec<Vec<u8>>> = scene
            .objects()
            .iter()
            .map(|object| {
                let fingerprint = model_fingerprint(&object.model);
                let bake = |&config: &BakeConfig| {
                    disk::encode_entry(
                        fingerprint,
                        &crate::asset::bake_object(&object.model, config),
                    )
                };
                configs.iter().map(bake).collect()
            })
            .collect();

        for workers in [1, 2, 4, 0] {
            let cache = BakeCache::new();
            for (object, expected) in scene.objects().iter().zip(&reference) {
                let fingerprint = model_fingerprint(&object.model);
                let assets = cache.get_or_bake_batch_placed(object, &configs, workers);
                assert_eq!(assets.len(), configs.len());
                for ((asset, config), bytes) in assets.iter().zip(&configs).zip(expected) {
                    assert_eq!(asset.config, *config);
                    assert_eq!(asset.object_id, object.id);
                    assert_eq!(asset.placement.translation, object.translation);
                    assert!(
                        disk::encode_entry(fingerprint, asset) == *bytes,
                        "workers={workers} {config:?}: batch bytes differ from bake_object"
                    );
                }
                // The three patch sizes of one grid share one mesh.
                for group in assets[..6].chunks(3) {
                    assert!(group.iter().all(|a| Arc::ptr_eq(&a.mesh, &group[0].mesh)));
                }
                assert!(!Arc::ptr_eq(&assets[0].mesh, &assets[3].mesh));
            }
            // One surface per (object, family, g): 2 × (2 mesh + 1 splat).
            let cold = cache.stats();
            assert_eq!((cold.misses, cold.surface_builds), (18, 6), "workers={workers}");
            assert_eq!(cold.splat_extractions, 6);

            for object in scene.objects() {
                let _ = cache.get_or_bake_batch_placed(object, &configs, workers);
            }
            let warm = cache.stats().since(&cold);
            assert_eq!((warm.hits, warm.misses, warm.surface_builds), (18, 0, 0));
        }
    }

    #[test]
    fn shared_store_serves_a_cold_local_dir_from_the_remote() {
        // Machine A bakes against (local A, remote R); machine B — a cold
        // local dir sharing R — must re-bake nothing and load identical
        // bytes. This is the fleet-scale scenario the backend seam exists
        // for (ISSUE 5 acceptance criterion).
        let local_a = TempDir::new("shared-a");
        let local_b = TempDir::new("shared-b");
        let remote = TempDir::new("shared-remote");
        let model = CanonicalObject::Lego.build();
        let config = BakeConfig::new(12, 3);

        let a = BakeCache::open(StoreOptions::shared(&local_a.0, &remote.0)).expect("open A");
        let baked = a.get_or_bake(&model, config);
        a.flush().expect("flush A");

        let b = BakeCache::open(StoreOptions::shared(&local_b.0, &remote.0)).expect("open B");
        assert_eq!(b.stats().loaded_from_disk, 1, "cold local layer indexes the remote");
        let loaded = b.get_or_bake(&model, config);
        let stats = b.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0), "warm remote → zero misses");
        assert_eq!(*baked.mesh, *loaded.mesh);
        assert_eq!(*baked.atlas, *loaded.atlas);
        assert_eq!(baked.mlp, loaded.mlp);
    }
}
