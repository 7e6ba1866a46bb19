//! Deployment evaluation: quality, size and rendering smoothness.
//!
//! These are the three dimensions the paper evaluates ("rendering visual
//! quality", "data size", "rendering smoothness"); the helpers here measure
//! all of them for NeRFlex deployments and for the baselines so the benchmark
//! binaries can print each figure's rows directly.

use crate::baselines::BaselineResult;
use crate::pipeline::NerflexDeployment;
use nerflex_bake::BakedAsset;
use nerflex_device::{simulate_session, DeviceSpec, SessionReport, Workload};
use nerflex_image::{lpips::lpips_proxy, metrics, Image, Mask};
use nerflex_render::{render_assets, RenderOptions};
use nerflex_scene::dataset::{Dataset, View};
use nerflex_scene::scene::Scene;

/// Full evaluation of one deployed representation on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentEvaluation {
    /// Method label ("NeRFlex", "Block-NeRF", …).
    pub method: String,
    /// Device name.
    pub device: String,
    /// Mean SSIM over the evaluation views.
    pub ssim: f64,
    /// Mean PSNR (dB, capped at 99).
    pub psnr: f64,
    /// Mean LPIPS-proxy distance (lower is better).
    pub lpips: f64,
    /// Total multi-modal data size in MB.
    pub size_mb: f64,
    /// Simulated rendering session (loading success + FPS trace).
    pub session: SessionReport,
}

impl DeploymentEvaluation {
    /// `true` when the representation loaded and rendered on the device.
    pub fn renders(&self) -> bool {
        self.session.loaded
    }
}

/// Renders `assets` at every test pose and compares with ground truth,
/// returning `(ssim, psnr, lpips)` means.
pub fn quality_against_dataset(
    assets: &[BakedAsset],
    scene: &Scene,
    dataset: &Dataset,
) -> (f64, f64, f64) {
    assert!(!dataset.test.is_empty(), "dataset has no test views");
    let _ = scene; // ground truth comes from the dataset's cached test views
    mean_quality(dataset, |view| {
        let options = RenderOptions::default();
        render_assets(assets, &view.pose, dataset.width, dataset.height, &options).0
    })
}

/// Mean `(ssim, psnr, lpips)` of `render(view)` against every test view's
/// ground-truth image, summed in view order. PSNR is capped at 99 dB so
/// that identical images stay finite.
fn mean_quality(dataset: &Dataset, render: impl Fn(&View) -> Image) -> (f64, f64, f64) {
    let mut ssim = 0.0;
    let mut psnr = 0.0;
    let mut lpips = 0.0;
    for view in &dataset.test {
        let img = render(view);
        let fused = metrics::quality_metrics(&view.image, &img);
        ssim += fused.ssim;
        psnr += fused.psnr.min(99.0);
        lpips += lpips_proxy(&view.image, &img);
    }
    let n = dataset.test.len() as f64;
    (ssim / n, psnr / n, lpips / n)
}

/// SSIM restricted to the union of the masks of the given objects in each
/// test view — the paper's "SSIM scores for high-frequency detail region"
/// (Fig. 4).
pub fn masked_quality(assets: &[BakedAsset], dataset: &Dataset, object_ids: &[usize]) -> f64 {
    assert!(!dataset.test.is_empty(), "dataset has no test views");
    let mut total = 0.0;
    for view in &dataset.test {
        let (img, _) = render_assets(
            assets,
            &view.pose,
            dataset.width,
            dataset.height,
            &RenderOptions::default(),
        );
        let mut mask = Mask::new(dataset.width, dataset.height);
        for &id in object_ids {
            mask = mask.union(&view.object_mask(id));
        }
        total += metrics::ssim_masked(&view.image, &img, &mask);
    }
    total / dataset.test.len() as f64
}

/// Evaluates a NeRFlex deployment end to end.
pub fn evaluate_deployment(
    deployment: &NerflexDeployment,
    scene: &Scene,
    dataset: &Dataset,
    frames: usize,
    seed: u64,
) -> DeploymentEvaluation {
    let (ssim, psnr, lpips) = quality_against_dataset(&deployment.assets, scene, dataset);
    let workload = deployment.workload();
    let session = simulate_session(&deployment.device, &workload, frames, seed);
    DeploymentEvaluation {
        method: "NeRFlex".to_string(),
        device: deployment.device.name.clone(),
        ssim,
        psnr,
        lpips,
        size_mb: workload.data_size_mb,
        session,
    }
}

/// Evaluates a mobile baseline (Single-NeRF or Block-NeRF) on a device.
pub fn evaluate_baseline(
    baseline: &BaselineResult,
    scene: &Scene,
    dataset: &Dataset,
    device: &DeviceSpec,
    frames: usize,
    seed: u64,
) -> DeploymentEvaluation {
    let (ssim, psnr, lpips) = quality_against_dataset(&baseline.assets, scene, dataset);
    let session = simulate_session(device, &baseline.workload, frames, seed);
    DeploymentEvaluation {
        method: baseline.method.name().to_string(),
        device: device.name.clone(),
        ssim,
        psnr,
        lpips,
        size_mb: baseline.workload.data_size_mb,
        session,
    }
}

/// Evaluates a server-side reference method (NGP / MipNeRF-360): quality only,
/// with no on-device session (they do not run on phones).
pub fn evaluate_reference(
    method: crate::baselines::BaselineMethod,
    scene: &Scene,
    dataset: &Dataset,
) -> DeploymentEvaluation {
    let (ssim, psnr, lpips) = mean_quality(dataset, |view| {
        crate::baselines::render_reference(scene, method, &view.pose, dataset.width, dataset.height)
    });
    DeploymentEvaluation {
        method: method.name().to_string(),
        device: "server".to_string(),
        ssim,
        psnr,
        lpips,
        size_mb: f64::NAN,
        session: simulate_session(
            &DeviceSpec::iphone_13(),
            &Workload { data_size_mb: f64::INFINITY, total_quads: 0 },
            0,
            0,
        ),
    }
}

/// Per-object quality of a deployment (Fig. 8a): SSIM restricted to each
/// object's mask, returned as `(object_id, name, ssim)` in scene order.
pub fn per_object_quality(
    deployment: &NerflexDeployment,
    dataset: &Dataset,
    scene: &Scene,
) -> Vec<(usize, String, f64)> {
    scene
        .objects()
        .iter()
        .map(|obj| {
            let ssim = masked_quality(&deployment.assets, dataset, &[obj.id]);
            (obj.id, obj.model.name.clone(), ssim)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{bake_block_nerf, bake_single_nerf, BaselineMethod};
    use crate::pipeline::{NerflexPipeline, PipelineOptions};
    use nerflex_bake::BakeConfig;
    use nerflex_scene::object::CanonicalObject;

    fn scene_and_dataset() -> (Scene, Dataset) {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Lego], 31);
        let dataset = Dataset::generate(&scene, 3, 2, 56, 56);
        (scene, dataset)
    }

    #[test]
    fn identical_image_sets_are_perfect() {
        let (_, dataset) = scene_and_dataset();
        let (ssim, psnr, lpips) = mean_quality(&dataset, |view| view.image.clone());
        assert_eq!(ssim, 1.0);
        assert_eq!(psnr, 99.0, "PSNR of identical images is capped at 99 dB");
        assert!(lpips < 1e-9, "lpips {lpips}");
    }

    #[test]
    fn nerflex_evaluation_is_complete_and_loads_on_device() {
        let (scene, dataset) = scene_and_dataset();
        let deployment = NerflexPipeline::new(PipelineOptions::quick())
            .try_run(&scene, &dataset, &DeviceSpec::iphone_13())
            .expect("evaluation deploy");
        let eval = evaluate_deployment(&deployment, &scene, &dataset, 200, 3);
        assert_eq!(eval.method, "NeRFlex");
        assert!(eval.renders(), "NeRFlex must fit the device budget");
        assert!(eval.ssim > 0.3 && eval.ssim <= 1.0, "ssim {}", eval.ssim);
        assert!(eval.psnr > 5.0);
        assert!(eval.lpips >= 0.0);
        assert!(eval.size_mb > 0.0);
        assert!(eval.session.average_fps > 0.0);
    }

    #[test]
    fn baseline_evaluation_distinguishes_single_and_block() {
        let (scene, dataset) = scene_and_dataset();
        let config = BakeConfig::new(24, 5);
        let single = evaluate_baseline(
            &bake_single_nerf(&scene, config),
            &scene,
            &dataset,
            &DeviceSpec::pixel_4(),
            100,
            1,
        );
        let block = evaluate_baseline(
            &bake_block_nerf(&scene, config),
            &scene,
            &dataset,
            &DeviceSpec::pixel_4(),
            100,
            1,
        );
        assert!(block.ssim > single.ssim, "block {} vs single {}", block.ssim, single.ssim);
        assert!(block.size_mb > single.size_mb);
    }

    #[test]
    fn reference_evaluation_reports_quality_without_a_device_session() {
        let (scene, dataset) = scene_and_dataset();
        let eval = evaluate_reference(BaselineMethod::Ngp, &scene, &dataset);
        assert_eq!(eval.device, "server");
        assert!(eval.ssim > 0.5);
        assert!(!eval.renders(), "server references do not render on-device");
    }

    #[test]
    fn per_object_quality_covers_every_object() {
        let (scene, dataset) = scene_and_dataset();
        let deployment = NerflexPipeline::new(PipelineOptions::quick())
            .try_run(&scene, &dataset, &DeviceSpec::iphone_13())
            .expect("evaluation deploy");
        let per_object = per_object_quality(&deployment, &dataset, &scene);
        assert_eq!(per_object.len(), 2);
        for (_, name, ssim) in &per_object {
            assert!(!name.is_empty());
            assert!(*ssim > 0.0 && *ssim <= 1.0);
        }
    }

    #[test]
    fn masked_quality_differs_from_global_quality() {
        let (scene, dataset) = scene_and_dataset();
        let baseline = bake_block_nerf(&scene, BakeConfig::new(20, 5));
        let (global, _, _) = quality_against_dataset(&baseline.assets, &scene, &dataset);
        let masked = masked_quality(&baseline.assets, &dataset, &[0]);
        assert!((global - masked).abs() > 1e-6, "masked SSIM should focus on the object region");
    }
}
