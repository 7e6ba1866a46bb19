//! Criterion benchmarks behind the Fig. 9 overhead analysis: per-stage costs
//! of the cloud-side modules (detection + frequency analysis, crop/enlarge,
//! and the DP solver) measured on a fixed training set.
//!
//! Two environment variables support the CI `bench-smoke` job:
//!
//! * `NERFLEX_CACHE_DIR` — run the quick pipeline against the persistent
//!   on-disk bake store at that directory (opened before, flushed after);
//!   a second invocation answers its bakes from disk.
//! * `NERFLEX_BENCH_SMOKE` — shrink the sample counts so the suite finishes
//!   in seconds; the pipeline run and its `bench-overhead:` summary line
//!   (which the CI job parses) are unaffected.

use criterion::{criterion_group, criterion_main, Criterion};
use nerflex_bake::{bake_placed, BakeCache, BakeConfig};
use nerflex_core::pipeline::{NerflexPipeline, PipelineOptions};
use nerflex_device::DeviceSpec;
use nerflex_image::Interpolation;
use nerflex_profile::model::{ProfileModels, QualityModel, SizeModel};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::CanonicalObject;
use nerflex_scene::scene::Scene;
use nerflex_seg::crop::crop_and_enlarge;
use nerflex_seg::{analyze_objects, detect_objects, segment, SegmentationPolicy};
use nerflex_solve::selector::{CandidateConfig, ObjectChoices};
use nerflex_solve::{ConfigSelector, ConfigSpace, DpSelector, SelectionProblem};

fn fixture() -> (Scene, Dataset) {
    let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Lego], 3);
    let dataset = Dataset::generate(&scene, 4, 1, 64, 64);
    (scene, dataset)
}

/// `true` in the CI smoke job: fewer samples, same measurements.
fn smoke() -> bool {
    std::env::var_os("NERFLEX_BENCH_SMOKE").is_some()
}

/// Sample count for a group: `full` normally, 2 under smoke.
fn samples(full: usize) -> usize {
    if smoke() {
        2
    } else {
        full
    }
}

fn bench_segmentation_stages(c: &mut Criterion) {
    let (_, dataset) = fixture();
    let mut group = c.benchmark_group("segmentation_module");
    group.sample_size(samples(10));
    group.bench_function("object_detection", |b| b.iter(|| detect_objects(&dataset)));
    let detections = detect_objects(&dataset);
    group.bench_function("frequency_analysis", |b| {
        b.iter(|| analyze_objects(&dataset, &detections))
    });
    group.bench_function("full_segmentation_module", |b| {
        let policy = SegmentationPolicy::default();
        b.iter(|| segment(&dataset, &policy))
    });
    // Crop + enlarge of one detected object in one view.
    let view = &dataset.train[0];
    let mask = detections[0].masks[0].clone();
    group.bench_function("crop_and_enlarge_one_view", |b| {
        b.iter(|| {
            mask.as_ref().and_then(|m| crop_and_enlarge(&view.image, m, Interpolation::Bilinear))
        })
    });
    group.finish();
}

fn bench_solver_stage(c: &mut Criterion) {
    // The solver stage of Fig. 9 at the paper's operating point: 5 objects,
    // the full configuration space and the 240 MB iPhone budget.
    let space = ConfigSpace::paper_default();
    let objects = (0..5)
        .map(|id| {
            let complexity = id as f64 / 5.0;
            let models = ProfileModels {
                size: SizeModel { k: 1.5e-8 * (0.5 + complexity), a: 1.0, b: 1.0, m: 0.3 },
                quality: QualityModel {
                    q_inf: 0.9 + 0.05 * complexity,
                    k: 3.0e4 * (0.5 + complexity),
                    a: 1.0,
                    b: 0.5,
                },
            };
            let options: Vec<CandidateConfig> = space
                .configurations()
                .into_iter()
                .map(|config| CandidateConfig {
                    config,
                    size_mb: models.size.predict(config.grid, config.patch),
                    quality: models.quality.predict(config.grid, config.patch),
                })
                .collect();
            ObjectChoices { object_id: id, name: format!("o{id}"), options, models: Some(models) }
        })
        .collect();
    let problem = SelectionProblem { objects, budget_mb: 240.0 };
    let mut group = c.benchmark_group("solver_stage");
    group.sample_size(samples(20));
    group.bench_function("dp_240mb_5objects_full_space", |b| {
        let selector = DpSelector::default();
        b.iter(|| selector.select(&problem))
    });
    group.finish();
}

fn bench_pipeline_engine(c: &mut Criterion) {
    // The engine effects behind Fig. 9's low overhead: the final-bake cost
    // with a cold cache versus a warm one (the profiler already probed the
    // selected configuration), plus one full quick run whose cache-hit count
    // and parallel speedup are printed alongside the stage timings.
    let (scene, dataset) = fixture();
    let config = BakeConfig::new(30, 6);
    let object = &scene.objects()[0];

    let mut group = c.benchmark_group("pipeline_engine");
    group.sample_size(samples(10));
    group.bench_function("final_bake_cold_cache", |b| b.iter(|| bake_placed(object, config)));
    let warm = BakeCache::new();
    let _ = warm.get_or_bake_placed(object, config);
    // With Arc-backed assets a warm hit is two reference-count bumps plus
    // the placement stamp — contrast with the cold bake above.
    group.bench_function("final_bake_warm_cache", |b| {
        b.iter(|| warm.get_or_bake_placed(object, config))
    });
    group.finish();

    let mut options = PipelineOptions::quick();
    options.store = nerflex_bench::store_options_from_args();
    let pipeline = NerflexPipeline::new(options);
    let fleet = pipeline
        .try_deploy_fleet(&scene, &dataset, &[DeviceSpec::iphone_13()])
        .expect("overhead deploy");
    let run_cache = fleet.cache;
    let t = fleet.deployments[0].timings;
    println!(
        "quick pipeline run: cache hits {}/{} | profiler workers {}x{} | \
         parallel speedup {:.2}x | {}",
        t.cache_served(),
        t.cache_served() + t.cache_misses,
        t.profiling_workers,
        t.profiling_sample_workers,
        t.profiling_speedup(),
        t.summary(),
    );
    // Stable, machine-readable summary parsed by the CI bench-smoke job.
    println!(
        "bench-overhead: cache_served={} cache_disk_hits={} cache_misses={} \
         cache_loaded_from_disk={}",
        run_cache.total_hits(),
        run_cache.disk_hits,
        run_cache.misses,
        run_cache.loaded_from_disk,
    );
}

criterion_group!(benches, bench_segmentation_stages, bench_solver_stage, bench_pipeline_engine);
criterion_main!(benches);
