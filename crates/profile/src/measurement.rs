//! Ground-truth measurement of sample configurations.
//!
//! For each sample configuration the object is actually baked and rendered,
//! and its baked-data size and SSIM against the object's ground-truth views
//! are recorded. This replaces the paper's (much more expensive) NeRF
//! training runs for the sample points; the profiler then fits its
//! closed-form models to these measurements.

use nerflex_bake::{bake_object, BakeCache, BakeConfig};
use nerflex_image::{metrics, Image, MetricsScratch};
use nerflex_math::pool::default_workers;
use nerflex_math::{LaneWidth, WorkerPool};
use nerflex_render::{render_assets, RenderOptions};
use nerflex_scene::camera_path::{orbit_path, CameraPose};
use nerflex_scene::object::ObjectModel;
use nerflex_scene::scene::Scene;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One measured sample point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// The configuration that was baked.
    pub config: BakeConfig,
    /// Measured baked-data size in MB.
    pub size_mb: f64,
    /// Measured SSIM against the ground-truth views.
    pub ssim: f64,
    /// Device-side primitive count — mesh quads plus splats
    /// (geometric-complexity measure).
    pub quad_count: usize,
}

/// How measurements are taken: probe view count and resolution, how many
/// worker threads fan out over the sample configurations and the
/// ground-truth render tiles, and the SIMD lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementSettings {
    /// Number of probe views on the measurement orbit.
    pub views: usize,
    /// Probe image resolution (square).
    pub resolution: usize,
    /// Worker threads of the measurement: the sample bakes, the
    /// (configuration × view) scoring grid and the tiled ray-marched
    /// ground-truth renders ([`nerflex_scene::raymarch::render_view_lanes`])
    /// all fan out over this many pool workers. Output bits are identical
    /// for every value; `1` (the default) is the sequential path, `0` uses
    /// one worker per available core.
    pub worker_threads: usize,
    /// SIMD lane width of the ground-truth ray marching and the fused
    /// metrics band kernel. Output bits never change with the lane width
    /// (see `docs/determinism.md`), so this is purely a throughput knob.
    pub lane_width: LaneWidth,
}

impl Default for MeasurementSettings {
    fn default() -> Self {
        Self { views: 3, resolution: 96, worker_threads: 1, lane_width: LaneWidth::X4 }
    }
}

impl MeasurementSettings {
    /// Returns the settings with the given worker count (`0` = one per
    /// core, `1` = sequential; output bits never change).
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Returns the settings with the given SIMD lane width (output bits
    /// never change).
    pub fn with_lane_width(mut self, lane_width: LaneWidth) -> Self {
        self.lane_width = lane_width;
        self
    }
}

/// Shared accounting of the quality-metrics stage: how long the fused SSIM
/// evaluations took across every sample measurement, and how many image
/// pairs were scored. One instance is threaded through a profiling run (it
/// is `Sync`; the parallel sample workers all record into it) and surfaces
/// as `StageTimings::metrics` / fig9's `metrics_ms`.
///
/// The recorded time is the **sum of per-evaluation wall times** — the
/// serial-equivalent cost of the stage, like `StageTimings::profiling_serial`
/// — not the stage's wall clock: concurrent sample workers score in
/// parallel, so the sum can exceed elapsed time.
#[derive(Debug, Default)]
pub struct MetricsAccounting {
    time: Mutex<Duration>,
    evaluations: AtomicUsize,
}

impl MetricsAccounting {
    /// Creates zeroed accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one scored image pair's wall-clock time.
    fn record(&self, elapsed: Duration) {
        *self.time.lock().expect("metrics accounting poisoned") += elapsed;
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total time spent evaluating quality metrics (sum of per-evaluation
    /// wall times — serial-equivalent, see the type docs).
    pub fn time(&self) -> Duration {
        *self.time.lock().expect("metrics accounting poisoned")
    }

    /// Number of (ground truth, render) pairs scored.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }
}

/// The cached ground truth for one standalone object: probe poses and their
/// ray-marched renderings. Building it is the expensive part of profiling, so
/// it is computed once per object and reused for every sample configuration.
#[derive(Debug, Clone)]
pub struct ObjectGroundTruth {
    /// The standalone single-object scene used for both ground truth and
    /// quality evaluation of baked assets.
    pub scene: Scene,
    /// Probe camera poses.
    pub poses: Vec<CameraPose>,
    /// Ray-marched ground-truth images, index-aligned with `poses`.
    pub images: Vec<Image>,
    /// Probe resolution.
    pub resolution: usize,
}

impl ObjectGroundTruth {
    /// The standalone probe scene and orbit poses for a model — the
    /// deterministic part of a ground truth that is cheap to recompute (the
    /// persistent [`crate::ground_truth::GroundTruthCache`] stores only the
    /// rendered images and rebuilds the rig on load).
    pub fn probe_rig(
        model: &ObjectModel,
        settings: &MeasurementSettings,
    ) -> (Scene, Vec<CameraPose>) {
        let scene = Scene::from_models(vec![model.clone()], 0);
        let bounds = scene.bounding_box();
        let poses =
            orbit_path(bounds.center(), (bounds.diagonal() * 1.1).max(1.0), 0.45, settings.views);
        (scene, poses)
    }

    /// Renders the ground truth for a standalone object. The ray-marched
    /// probe renders are tiled over `settings.worker_threads` pool threads
    /// and marched at `settings.lane_width`; the images are
    /// bit-identical for every worker count and lane width.
    pub fn build(model: &ObjectModel, settings: &MeasurementSettings) -> Self {
        let (scene, poses) = Self::probe_rig(model, settings);
        let images = poses
            .iter()
            .map(|pose| {
                nerflex_scene::raymarch::render_view_lanes(
                    &scene,
                    pose,
                    settings.resolution,
                    settings.resolution,
                    settings.worker_threads,
                    settings.lane_width,
                )
                .0
            })
            .collect();
        Self { scene, poses, images, resolution: settings.resolution }
    }

    /// Reassembles a ground truth from persisted probe images, rebuilding
    /// the (deterministic) probe rig from the model. Returns `None` when the
    /// images do not match the settings' view count or resolution — the
    /// caller then falls back to a fresh [`ObjectGroundTruth::build`].
    pub fn from_images(
        model: &ObjectModel,
        settings: &MeasurementSettings,
        images: Vec<Image>,
    ) -> Option<Self> {
        if images.len() != settings.views
            || images
                .iter()
                .any(|i| i.width() != settings.resolution || i.height() != settings.resolution)
        {
            return None;
        }
        let (scene, poses) = Self::probe_rig(model, settings);
        Some(Self { scene, poses, images, resolution: settings.resolution })
    }

    /// Measures one configuration the plain way: bakes the object, renders
    /// each probe view, scores it against the cached ground truth with
    /// [`metrics::quality_metrics`] and folds the scores in view order. This
    /// is the reference the batched [`measure_object_in`] path is tested
    /// against bit for bit.
    pub fn measure(&self, config: BakeConfig) -> Measurement {
        let asset = nerflex_bake::bake_placed(&self.scene.objects()[0], config);
        let mut ssim_sum = 0.0;
        for (pose, gt) in self.poses.iter().zip(&self.images) {
            let (img, _) = render_assets(
                std::slice::from_ref(&asset),
                pose,
                self.resolution,
                self.resolution,
                &RenderOptions::default(),
            );
            ssim_sum += metrics::quality_metrics(gt, &img).ssim;
        }
        Measurement {
            config: asset.config,
            size_mb: asset.size_mb(),
            ssim: ssim_sum / self.poses.len() as f64,
            quad_count: asset.primitive_count(),
        }
    }
}

/// Measures every configuration in `configs` for a standalone object.
///
/// This is the "ground truth" path used both to build profiles (on the sample
/// configurations) and to validate them (on a dense grid, Fig. 3).
pub fn measure_object(
    model: &ObjectModel,
    configs: &[BakeConfig],
    settings: &MeasurementSettings,
) -> Vec<Measurement> {
    measure_object_in(model, configs, settings, None, None, None)
}

/// [`measure_object`] wired into the engine's shared state, each part
/// optional:
///
/// * `cache` — sample bakes go through the shared [`BakeCache`], so the
///   final baking stage can reuse every configuration the profiler paid for;
/// * `ground_truth` — the expensive ray-marched ground truth comes from a
///   shared [`GroundTruthCache`](crate::ground_truth::GroundTruthCache), so
///   repeated profiling of one (model, probe settings) pair (duplicate
///   objects, fleet re-deployments, warm bench/CI runs) renders it once.
///   Cached and fresh ground truths are bit-identical, so the measurements
///   do not depend on where it came from;
/// * `accounting` — wall-clock accounting of the fused quality-metrics
///   stage (the engine passes one [`MetricsAccounting`] per profiling run
///   and reports its total as `StageTimings::metrics`).
pub fn measure_object_in(
    model: &ObjectModel,
    configs: &[BakeConfig],
    settings: &MeasurementSettings,
    cache: Option<&BakeCache>,
    ground_truth: Option<&crate::ground_truth::GroundTruthCache>,
    accounting: Option<&MetricsAccounting>,
) -> Vec<Measurement> {
    let ground_truth = match ground_truth {
        Some(shared) => shared.get_or_build(model, settings),
        None => std::sync::Arc::new(ObjectGroundTruth::build(model, settings)),
    };
    measure_batched(&ground_truth, configs, settings, cache, accounting)
}

/// The whole-profile batched evaluation: dispatch 1 bakes every sample
/// configuration, dispatch 2 fans the flattened (configuration × view) grid
/// with a persistent [`MetricsScratch`] per pool worker, then the per-view
/// scores are folded per configuration **in view order** — the same
/// floating-point association as [`ObjectGroundTruth::measure`], so
/// batching never changes a measurement bit (`1` worker is the bit-for-bit
/// sequential path). Two dispatches regardless of the profile size.
fn measure_batched(
    ground_truth: &ObjectGroundTruth,
    configs: &[BakeConfig],
    settings: &MeasurementSettings,
    cache: Option<&BakeCache>,
    accounting: Option<&MetricsAccounting>,
) -> Vec<Measurement> {
    let pool = WorkerPool::shared();
    let placed = &ground_truth.scene.objects()[0];
    let bake_workers = match settings.worker_threads {
        0 => default_workers(configs.len()),
        n => n,
    };
    let assets = pool.run(configs.len(), bake_workers, |idx| match cache {
        Some(cache) => cache.get_or_bake_placed(placed, configs[idx]),
        None => nerflex_bake::bake_placed(placed, configs[idx]),
    });
    let views = ground_truth.poses.len();
    let pairs = configs.len() * views;
    let pair_workers = match settings.worker_threads {
        0 => default_workers(pairs),
        n => n,
    };
    let ssims = pool.run_scratch(pairs, pair_workers, MetricsScratch::new, |scratch, pair| {
        let (config_idx, view) = (pair / views, pair % views);
        let (img, _) = render_assets(
            std::slice::from_ref(&assets[config_idx]),
            &ground_truth.poses[view],
            ground_truth.resolution,
            ground_truth.resolution,
            &RenderOptions::default(),
        );
        let started = Instant::now();
        let ssim = metrics::quality_metrics_scratch(
            &ground_truth.images[view],
            &img,
            settings.lane_width,
            scratch,
        )
        .ssim;
        if let Some(accounting) = accounting {
            accounting.record(started.elapsed());
        }
        ssim
    });
    assets
        .into_iter()
        .enumerate()
        .map(|(idx, asset)| {
            let mut ssim_sum = 0.0;
            for ssim in &ssims[idx * views..(idx + 1) * views] {
                ssim_sum += ssim;
            }
            Measurement {
                config: asset.config,
                size_mb: asset.size_mb(),
                ssim: ssim_sum / views as f64,
                quad_count: asset.primitive_count(),
            }
        })
        .collect()
}

/// Measures a single standalone bake without reusing ground truth (handy for
/// one-off comparisons in examples and tests).
pub fn measure_single(
    model: &ObjectModel,
    config: BakeConfig,
    settings: &MeasurementSettings,
) -> Measurement {
    // Standalone size accounting (no placement) sanity-checks the placed bake.
    let standalone_size = bake_object(model, config).size_mb();
    let ground_truth = ObjectGroundTruth::build(model, settings);
    let mut m = ground_truth.measure(config);
    debug_assert!((m.size_mb - standalone_size).abs() < standalone_size * 0.5 + 1.0);
    m.size_mb = standalone_size;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    fn quick_settings() -> MeasurementSettings {
        MeasurementSettings { views: 2, resolution: 56, ..MeasurementSettings::default() }
    }

    #[test]
    fn measurements_grow_in_size_and_quality_with_the_knobs() {
        let model = CanonicalObject::Hotdog.build();
        let configs = vec![BakeConfig::new(10, 3), BakeConfig::new(36, 9)];
        let measurements = measure_object(&model, &configs, &quick_settings());
        assert_eq!(measurements.len(), 2);
        assert!(measurements[1].size_mb > measurements[0].size_mb);
        assert!(measurements[1].ssim > measurements[0].ssim, "{measurements:?}");
        assert!(measurements[1].quad_count > measurements[0].quad_count);
        for m in &measurements {
            assert!(m.ssim > 0.0 && m.ssim <= 1.0);
            assert!(m.size_mb > 0.0);
        }
    }

    #[test]
    fn splat_configurations_measure_through_the_same_path() {
        let model = CanonicalObject::Hotdog.build();
        let configs = vec![BakeConfig::splat(20, 256), BakeConfig::splat(20, 1024)];
        let measurements = measure_object(&model, &configs, &quick_settings());
        assert_eq!(measurements.len(), 2);
        // Size is linear in the kept count; quality improves with more splats.
        assert!(measurements[1].size_mb > measurements[0].size_mb * 3.0);
        assert!(measurements[1].ssim >= measurements[0].ssim, "{measurements:?}");
        // The complexity measure counts splats for splat-family bakes (both
        // counts are below the grid's boundary-seed budget, so extraction
        // keeps them exactly).
        assert_eq!(measurements[0].quad_count, 256);
        assert_eq!(measurements[1].quad_count, 1024);
        for m in &measurements {
            assert!(m.ssim > 0.0 && m.ssim <= 1.0);
            assert!(m.config.splat_count().is_some());
        }
    }

    #[test]
    fn ground_truth_cache_is_reused_consistently() {
        let model = CanonicalObject::Chair.build();
        let settings = quick_settings();
        let gt = ObjectGroundTruth::build(&model, &settings);
        let a = gt.measure(BakeConfig::new(20, 5));
        let b = gt.measure(BakeConfig::new(20, 5));
        assert_eq!(a, b, "same config must measure identically");
    }

    #[test]
    fn parallel_sample_measurement_is_bit_identical_to_sequential() {
        // Within-profile parallelism must be pure restructuring: the same
        // configs measured with 1 worker and with several produce identical
        // measurements in identical order.
        let model = CanonicalObject::Hotdog.build();
        let configs = vec![BakeConfig::new(10, 3), BakeConfig::new(16, 5), BakeConfig::new(24, 7)];
        let sequential = measure_object(&model, &configs, &quick_settings().with_worker_threads(1));
        let parallel = measure_object(&model, &configs, &quick_settings().with_worker_threads(4));
        assert_eq!(sequential, parallel);
        // And the auto setting (one worker per core) agrees too.
        let auto = measure_object(&model, &configs, &quick_settings().with_worker_threads(0));
        assert_eq!(sequential, auto);
    }

    #[test]
    fn batched_dispatch_is_bit_identical_for_every_worker_count_and_lane_width() {
        // The batched whole-profile evaluation must reproduce the plain
        // per-configuration loop (`ObjectGroundTruth::measure`) bit for bit:
        // same configs, every tested worker count, both lane widths (lane
        // width also reaches the ground-truth ray marching here). `0` = one
        // worker per core.
        let model = CanonicalObject::Hotdog.build();
        let configs = vec![BakeConfig::new(10, 3), BakeConfig::new(16, 5), BakeConfig::new(24, 7)];
        let gt = ObjectGroundTruth::build(&model, &quick_settings());
        let reference: Vec<Measurement> = configs.iter().map(|&c| gt.measure(c)).collect();
        for workers in [1, 2, 4, 7, 0] {
            for lanes in [LaneWidth::X4, LaneWidth::X8] {
                let batched = measure_object(
                    &model,
                    &configs,
                    &quick_settings().with_worker_threads(workers).with_lane_width(lanes),
                );
                assert_eq!(reference, batched, "workers={workers} lanes={lanes:?}");
            }
        }
    }

    #[test]
    fn metrics_accounting_records_time_and_evaluations() {
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let accounting = MetricsAccounting::new();
        let configs = [BakeConfig::new(10, 3), BakeConfig::new(16, 5)];
        let _ = measure_object_in(&model, &configs, &settings, None, None, Some(&accounting));
        // One metrics evaluation per (config, probe view).
        assert_eq!(accounting.evaluations(), configs.len() * settings.views);
        assert!(accounting.time() > std::time::Duration::ZERO);
    }

    #[test]
    fn measure_single_matches_measure_object() {
        let model = CanonicalObject::Hotdog.build();
        let settings = quick_settings();
        let single = measure_single(&model, BakeConfig::new(16, 5), &settings);
        let batch = measure_object(&model, &[BakeConfig::new(16, 5)], &settings);
        assert!((single.ssim - batch[0].ssim).abs() < 1e-9);
        assert!((single.size_mb - batch[0].size_mb).abs() < 1e-6);
    }
}
