//! Ablation benchmarks for three design choices: DP capacity quantisation,
//! the max- vs mean-frequency segmentation statistic and the
//! crop-enlargement interpolation kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nerflex_image::Interpolation;
use nerflex_profile::model::{ProfileModels, QualityModel, SizeModel};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::CanonicalObject;
use nerflex_scene::scene::Scene;
use nerflex_seg::segment;
use nerflex_seg::threshold::{FrequencyStatistic, SegmentationPolicy};
use nerflex_solve::selector::{CandidateConfig, ObjectChoices};
use nerflex_solve::{ConfigSelector, ConfigSpace, DpSelector, SelectionProblem};

fn synthetic_problem(space: &ConfigSpace) -> SelectionProblem {
    let objects = (0..5)
        .map(|id| {
            let c = id as f64 / 5.0;
            let models = ProfileModels {
                size: SizeModel { k: 1.5e-8 * (0.5 + c), a: 1.0, b: 1.0, m: 0.3 },
                quality: QualityModel { q_inf: 0.9, k: 3.0e4 * (0.5 + c), a: 1.0, b: 0.5 },
            };
            let options = space
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
    SelectionProblem { objects, budget_mb: 240.0 }
}

fn bench_dp_quantisation(c: &mut Criterion) {
    // Finer capacity units buy accuracy at the price of DP table size; this
    // ablation quantifies the runtime side of that trade-off.
    let space = ConfigSpace::paper_default();
    let problem = synthetic_problem(&space);
    let mut group = c.benchmark_group("ablation_dp_quantisation");
    group.sample_size(10);
    for &unit in &[4.0f64, 1.0, 0.25] {
        group.bench_with_input(BenchmarkId::from_parameter(unit), &unit, |b, &unit| {
            let selector = DpSelector::with_quantization(unit);
            b.iter(|| selector.select(&problem))
        });
    }
    group.finish();
}

fn bench_segmentation_statistic(c: &mut Criterion) {
    // Max- vs mean-frequency statistic: identical asymptotic cost, but the
    // benchmark documents that choosing max costs nothing extra.
    let scene = Scene::with_objects(&[CanonicalObject::Ficus, CanonicalObject::Chair], 5);
    let dataset = Dataset::generate(&scene, 3, 1, 56, 56);
    let mut group = c.benchmark_group("ablation_frequency_statistic");
    group.sample_size(10);
    for (label, statistic) in
        [("max", FrequencyStatistic::Maximum), ("mean", FrequencyStatistic::Mean)]
    {
        let policy = SegmentationPolicy { statistic, ..SegmentationPolicy::default() };
        group.bench_function(label, |b| b.iter(|| segment(&dataset, &policy)));
    }
    group.finish();
}

fn bench_interpolation_kernels(c: &mut Criterion) {
    // Crop enlargement cost per kernel (nearest / bilinear / bicubic).
    let scene = Scene::with_objects(&[CanonicalObject::Lego], 7);
    let dataset = Dataset::generate(&scene, 2, 1, 72, 72);
    let mut group = c.benchmark_group("ablation_enlargement_kernel");
    group.sample_size(10);
    for (label, kernel) in [
        ("nearest", Interpolation::Nearest),
        ("bilinear", Interpolation::Bilinear),
        ("bicubic", Interpolation::Bicubic),
    ] {
        let policy = SegmentationPolicy { interpolation: kernel, ..SegmentationPolicy::default() };
        group.bench_function(label, |b| b.iter(|| segment(&dataset, &policy)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_quantisation,
    bench_segmentation_statistic,
    bench_interpolation_kernels
);
criterion_main!(benches);
