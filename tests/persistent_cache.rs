//! Cross-crate tests of the persistent on-disk bake store: flush/reopen
//! round-trips that render byte-identically, corruption recovery, zero
//! re-bakes for a second process over a flushed cache dir, and determinism
//! of the two-level (per-object × per-sample) profiling parallelism.

use nerflex::bake::{BakeCache, BakeConfig};
use nerflex::core::pipeline::{NerflexPipeline, PipelineOptions};
use nerflex::device::DeviceSpec;
use nerflex::render::{render_assets, RenderOptions};
use nerflex::scene::camera_path::orbit_path;
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique, self-cleaning temporary cache directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        Self(std::env::temp_dir().join(format!(
            "nerflex-itest-{tag}-{}-{}",
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

fn small_setup() -> (Scene, Dataset) {
    let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Lego], 3);
    let dataset = Dataset::generate(&scene, 3, 1, 56, 56);
    (scene, dataset)
}

#[test]
fn flushed_cache_renders_byte_identically_after_reopen() {
    // bake → flush → reopen → the disk-loaded asset must render the exact
    // same image as the freshly baked one (bit-for-bit, not "close").
    let tmp = TempDir::new("render");
    let scene = Scene::with_objects(&[CanonicalObject::Chair], 9);
    let object = &scene.objects()[0];
    let config = BakeConfig::new(14, 5);

    let cache = BakeCache::open(&tmp.0).expect("open");
    let baked = cache.get_or_bake_placed(object, config);
    assert!(cache.flush().expect("flush") >= 1);

    let reopened = BakeCache::open(&tmp.0).expect("reopen");
    let loaded = reopened.get_or_bake_placed(object, config);
    let stats = reopened.stats();
    assert_eq!((stats.disk_hits, stats.misses), (1, 0), "reopen must not re-bake");

    let pose = &orbit_path(
        baked.world_bounding_box().center(),
        baked.world_bounding_box().diagonal().max(1.0),
        0.4,
        3,
    )[1];
    let options = RenderOptions::default();
    let (img_baked, stats_baked) =
        render_assets(std::slice::from_ref(&baked), pose, 64, 64, &options);
    let (img_loaded, stats_loaded) =
        render_assets(std::slice::from_ref(&loaded), pose, 64, 64, &options);
    assert_eq!(stats_baked, stats_loaded);
    assert_eq!(img_baked, img_loaded, "disk round-trip must be render-identical");
}

#[test]
fn second_process_over_flushed_dir_rebakes_nothing() {
    // The acceptance criterion: a second pipeline "process" (a fresh
    // NerflexPipeline whose deploy reopens the store — nothing shared in
    // memory) over the same cache dir performs zero re-bakes for identical
    // (fingerprint, config) pairs, across profiling AND final baking. Each
    // deploy flushes the store when it finishes.
    let tmp = TempDir::new("second-process");
    let (scene, dataset) = small_setup();
    let devices = [DeviceSpec::iphone_13()];
    let options = PipelineOptions::quick().with_cache_dir(&tmp.0);

    let first = NerflexPipeline::new(options.clone())
        .try_deploy_fleet(&scene, &dataset, &devices)
        .expect("deploy");
    assert_eq!(first.cache.loaded_from_disk, 0, "first run starts cold");
    let baked_first = first.cache.misses;
    assert!(baked_first > 0, "a cold run must bake");
    let d1 = &first.deployments[0];

    let second =
        NerflexPipeline::new(options).try_deploy_fleet(&scene, &dataset, &devices).expect("deploy");
    assert_eq!(second.cache.loaded_from_disk, baked_first, "every bake persisted");
    let d2 = &second.deployments[0];
    let stats = second.cache;
    assert_eq!(stats.misses, 0, "second process must re-bake nothing: {stats}");
    assert!(stats.disk_hits > 0, "second process must reuse persisted bakes: {stats}");
    // The final baking stage reports its reuse as disk hits, separately
    // from in-process hits.
    assert_eq!(
        d2.timings.cache_disk_hits + d2.timings.cache_hits,
        scene.len(),
        "every final bake served from cache: {:?}",
        d2.timings
    );
    assert!(d2.timings.cache_disk_hits > 0, "disk reuse must be visible in StageTimings");

    // And the decisions + outputs are identical to the first process.
    for (a, b) in d1.selection.assignments.iter().zip(&d2.selection.assignments) {
        assert_eq!(a.config, b.config, "persisted cache must not change selection");
    }
    let sizes = |d: &nerflex::core::pipeline::NerflexDeployment| {
        d.assets.iter().map(|a| a.size_bytes()).collect::<Vec<_>>()
    };
    assert_eq!(sizes(d1), sizes(d2));
}

#[test]
fn engine_owned_runs_persist_automatically() {
    // `try_run` opens and flushes the persistent store itself when
    // cache_dir is set: the second run sees only disk hits.
    let tmp = TempDir::new("engine-owned");
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::pixel_4();
    let pipeline = NerflexPipeline::new(PipelineOptions::quick().with_cache_dir(&tmp.0));

    let first = pipeline.try_run(&scene, &dataset, &device).expect("deploy");
    assert_eq!(first.timings.cache_disk_hits, 0, "cold dir has nothing to load");
    let second = pipeline.try_run(&scene, &dataset, &device).expect("deploy");
    assert_eq!(second.timings.cache_misses, 0, "warm dir must re-bake nothing");
    assert_eq!(
        second.timings.cache_disk_hits,
        scene.len(),
        "every final bake comes off disk: {:?}",
        second.timings
    );
    assert_eq!(first.workload().total_quads, second.workload().total_quads);
}

#[test]
fn corrupted_entries_degrade_to_rebakes_not_failures() {
    let tmp = TempDir::new("corruption");
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::pixel_4();
    let pipeline = NerflexPipeline::new(PipelineOptions::quick().with_cache_dir(&tmp.0));
    let baseline = pipeline.try_run(&scene, &dataset, &device).expect("deploy");

    // Vandalise the flushed store: truncate one entry, bit-flip another,
    // and drop a zero-byte file in.
    let mut files: Vec<_> = std::fs::read_dir(&tmp.0)
        .expect("read cache dir")
        .map(|f| f.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "nfbake"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "expected several persisted entries");
    let bytes = std::fs::read(&files[0]).expect("read");
    std::fs::write(&files[0], &bytes[..bytes.len() / 3]).expect("truncate");
    let mut flipped = std::fs::read(&files[1]).expect("read");
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&files[1], flipped).expect("bit-flip");
    std::fs::write(tmp.0.join("empty.nfbake"), b"").expect("empty file");

    // The lazy index keys on file names, so the damaged entries still index
    // (the zero-byte file's name does not parse and is ignored); the damage
    // surfaces at first lookup, silently re-bakes, and the run still
    // produces the same deployment as the pristine one. The deploy's closing
    // flush writes the repaired entries back.
    let devices = std::slice::from_ref(&device);
    let recovered = pipeline.try_deploy_fleet(&scene, &dataset, devices).expect("deploy");
    assert_eq!(recovered.cache.loaded_from_disk, files.len(), "index is by file name");
    assert_eq!(recovered.cache.misses, 2, "exactly the damaged entries re-bake");
    let recovered = &recovered.deployments[0];
    for (a, b) in baseline.selection.assignments.iter().zip(&recovered.selection.assignments) {
        assert_eq!(a.config, b.config);
    }
    assert_eq!(baseline.workload().total_quads, recovered.workload().total_quads);

    // A further run sees a fully repaired store.
    let repaired = pipeline.try_deploy_fleet(&scene, &dataset, devices).expect("deploy");
    assert_eq!(repaired.cache.loaded_from_disk, files.len());
    assert_eq!(repaired.cache.misses, 0, "flush must repair the damage");
}

#[test]
fn fleet_deployment_persists_and_reuses_across_processes() {
    let tmp = TempDir::new("fleet");
    let (scene, dataset) = small_setup();
    let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let pipeline = NerflexPipeline::new(PipelineOptions::quick().with_cache_dir(&tmp.0));

    let cold = pipeline.try_deploy_fleet(&scene, &dataset, &devices).expect("fleet deploy");
    assert!(cold.cache.misses > 0);
    let warm = pipeline.try_deploy_fleet(&scene, &dataset, &devices).expect("fleet deploy");
    assert_eq!(warm.cache.misses, 0, "second fleet must re-bake nothing: {}", warm.cache);
    assert_eq!(warm.cache.loaded_from_disk, cold.cache.misses);
    assert!(warm.cache.hit_ratio() > 0.99);
    for (a, b) in cold.deployments.iter().zip(&warm.deployments) {
        assert_eq!(a.workload().total_quads, b.workload().total_quads);
    }
}

#[test]
fn two_level_profiling_parallelism_is_deterministic() {
    // Satellite criterion: worker_threads > 1 — which now fans out both
    // across objects and within each profile's sample configurations — must
    // reproduce the sequential run exactly, including through a persisted
    // cache written by a differently-parallel run.
    let tmp = TempDir::new("parallel");
    let (scene, dataset) = small_setup();
    let device = DeviceSpec::iphone_13();
    let run = |workers: usize, dir: Option<&std::path::Path>| {
        let mut options = PipelineOptions::quick().with_worker_threads(workers);
        if let Some(dir) = dir {
            options = options.with_cache_dir(dir);
        }
        NerflexPipeline::new(options).try_run(&scene, &dataset, &device).expect("deploy")
    };

    let sequential = run(1, None);
    // 6 workers over 2 objects → 2 outer × 3 inner sample workers.
    let parallel = run(6, Some(&tmp.0));
    assert_eq!(parallel.timings.profiling_workers, 2);
    assert_eq!(parallel.timings.profiling_sample_workers, 3);
    assert_eq!(sequential.timings.profiling_sample_workers, 1);

    // A third run at different parallelism reads the parallel run's cache.
    let reread = run(3, Some(&tmp.0));
    assert_eq!(reread.timings.cache_misses, 0, "persisted bakes are parallelism-agnostic");

    for d in [&parallel, &reread] {
        assert_eq!(sequential.selection.assignments.len(), d.selection.assignments.len());
        for (a, b) in sequential.selection.assignments.iter().zip(&d.selection.assignments) {
            assert_eq!(a.config, b.config, "selection must not depend on parallelism");
            assert_eq!(a.predicted_size_mb, b.predicted_size_mb);
        }
        for (a, b) in sequential.assets.iter().zip(&d.assets) {
            assert_eq!(a.size_bytes(), b.size_bytes());
            assert_eq!(a.mesh.quad_count(), b.mesh.quad_count());
        }
        for (pa, pb) in sequential.profiles.iter().zip(d.profiles.iter()) {
            assert_eq!(pa.samples, pb.samples, "profile samples must be order- and bit-stable");
        }
    }
}
