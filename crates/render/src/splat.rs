//! Deterministic gaussian-splat compositing — the device-side half of the
//! splat representation family (extraction lives in `nerflex_bake::splat`,
//! the family design in `docs/splats.md`).
//!
//! Splats are composited after rasterisation and background fill: every
//! splat is projected to a screen-space 2×2 gaussian footprint, all splats
//! of all assets are depth-sorted **once, globally**, and each pixel blends
//! them back-to-front over whatever the z-buffer left there (splats behind
//! rasterised geometry are occluded per pixel; splats never write depth).
//!
//! # The determinism contract (`docs/determinism.md`)
//!
//! Worker and tile counts never change output bits:
//!
//! * the back-to-front order is a **fixed global sort**: depth descending
//!   by `f32::total_cmp`, ties broken by (asset index, splat index) — a
//!   pure function of the input, independent of execution;
//! * rows are composited in parallel over the shared `WorkerPool`; each
//!   pixel's entire blend chain happens inside its own row job in sorted
//!   splat order, and rows are stitched in job order, so worker counts are
//!   invisible by construction;
//! * the per-pixel quadratic form is evaluated on four-wide [`F32x4`]
//!   packets whose lanes are exact scalar arithmetic, and the `exp` +
//!   alpha blend runs scalar per pixel in column order — so the packets are
//!   pure batching and match the scalar blend bit for bit.

use crate::camera::RasterCamera;
use crate::framebuffer::Framebuffer;
use crate::renderer::RenderOptions;
use nerflex_bake::BakedAsset;
use nerflex_image::Color;
use nerflex_math::pool::{default_workers, parallel_map};
use nerflex_math::simd::{F32x4, LANES};
use nerflex_math::Vec3;

/// Mahalanobis-distance² cut-off: pixels beyond 3σ contribute < 1.2% alpha
/// and are skipped (also bounds the conservative screen rectangle).
const Q_CUTOFF: f32 = 9.0;

/// Isotropic floor (in pixels²) added to the screen-space covariance so
/// edge-on splats stay at least ~half a pixel wide and the matrix stays
/// invertible.
const FOOTPRINT_FLOOR: f32 = 0.3;

/// One splat projected to the screen: inverse 2×2 covariance, conservative
/// pixel rectangle, premultiplied colour inputs.
struct ProjectedSplat {
    cx: f32,
    cy: f32,
    depth: f32,
    /// Inverse-covariance entries: q = ia·dx² + ib2·dx·dy + ic·dy².
    ia: f32,
    ib2: f32,
    ic: f32,
    color: Color,
    alpha: f32,
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

/// Projects one splat of `asset` into screen space. Returns `None` when
/// the splat (or an axis probe) is behind the near plane or its footprint
/// misses the viewport.
fn project_splat(
    asset: &BakedAsset,
    splat: &nerflex_bake::Splat,
    camera: &RasterCamera,
) -> Option<ProjectedSplat> {
    let placement = asset.placement;
    let center_world = placement.to_world(splat.position);
    let (pc, depth) = camera.project(center_world)?;

    // The splat's three scaled local axes (its own Y-rotation, same
    // convention as Placement), carried into world space.
    let (sr, cr) = splat.rotation_y.sin_cos();
    let axes = [
        Vec3::new(cr, 0.0, -sr) * splat.scale.x,
        Vec3::new(0.0, 1.0, 0.0) * splat.scale.y,
        Vec3::new(sr, 0.0, cr) * splat.scale.z,
    ];
    // Screen-space covariance Σ = Σᵢ dᵢ dᵢᵀ + λI from the three projected
    // axis offsets (a first-order footprint, exact for axis-aligned views
    // and conservative elsewhere thanks to the isotropic floor).
    let (mut a, mut b, mut c) = (FOOTPRINT_FLOOR, 0.0f32, FOOTPRINT_FLOOR);
    for axis in axes {
        let world = placement.rotate_direction(axis) * placement.scale;
        let (pa, _) = camera.project(center_world + world)?;
        let d = pa - pc;
        a += d.x * d.x;
        b += d.x * d.y;
        c += d.y * d.y;
    }
    let det = a * c - b * b;
    if det <= 1e-12 || !det.is_finite() {
        return None;
    }

    // Conservative radius: 3σ of the major axis.
    let half_diff = 0.5 * (a - c);
    let lambda_max = 0.5 * (a + c) + (half_diff * half_diff + b * b).sqrt();
    let radius = 3.0 * lambda_max.sqrt();
    let (w, h) = (camera.width() as f32, camera.height() as f32);
    if pc.x + radius < 0.0 || pc.x - radius >= w || pc.y + radius < 0.0 || pc.y - radius >= h {
        return None;
    }
    let clamp_axis = |v: f32, hi: usize| (v.max(0.0) as usize).min(hi);
    Some(ProjectedSplat {
        cx: pc.x,
        cy: pc.y,
        depth,
        ia: c / det,
        ib2: -2.0 * b / det,
        ic: a / det,
        color: Color::new(
            splat.color[0] as f32 / 255.0,
            splat.color[1] as f32 / 255.0,
            splat.color[2] as f32 / 255.0,
        ),
        alpha: splat.opacity as f32 / 255.0,
        x0: clamp_axis((pc.x - radius).floor(), camera.width() - 1),
        x1: clamp_axis((pc.x + radius).ceil(), camera.width() - 1),
        y0: clamp_axis((pc.y - radius).floor(), camera.height() - 1),
        y1: clamp_axis((pc.y + radius).ceil(), camera.height() - 1),
    })
}

/// Blends every splat touching row `y` into `colors`, in the fixed sorted
/// order. The quadratic form is evaluated on lanes; the `exp` and blend
/// run scalar per pixel in column order, so the blend chain per pixel is
/// the scalar one.
fn composite_row(y: usize, colors: &mut [Color], depths: &[f32], splats: &[ProjectedSplat]) {
    let py = y as f32 + 0.5;
    for s in splats {
        if y < s.y0 || y > s.y1 {
            continue;
        }
        let dy = py - s.cy;
        let dy_term = dy * dy * s.ic;
        // The depth test negates the scalar *pass* condition so a NaN depth
        // skips the pixel, matching the rasteriser's convention.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let mut blend = |x: usize, q: f32| {
            if q > Q_CUTOFF || !(s.depth < depths[x]) {
                return;
            }
            let a = s.alpha * (-0.5 * q).exp();
            let dst = colors[x];
            colors[x] = Color::new(
                dst.r * (1.0 - a) + s.color.r * a,
                dst.g * (1.0 - a) + s.color.g * a,
                dst.b * (1.0 - a) + s.color.b * a,
            );
        };
        // Each lane computes exactly the scalar expression
        // `dx·dx·ia + dx·ib2·dy + dy·dy·ic`, so the packet is pure batching
        // (docs/determinism.md).
        let mut x = s.x0;
        while x <= s.x1 {
            let dx = F32x4(std::array::from_fn(|i| (x + i) as f32 + 0.5 - s.cx));
            let q = dx * dx * s.ia + dx * s.ib2 * dy + dy_term;
            for i in 0..LANES {
                if x + i > s.x1 {
                    break;
                }
                blend(x + i, q.lane(i));
            }
            x += LANES;
        }
    }
}

/// Composites every splat-family asset into the framebuffer, back-to-front
/// over the rasterised geometry and background. Returns the number of
/// splats submitted (projected into the viewport).
///
/// Runs after `fill_background`: splats blend over the sky where no
/// geometry was drawn and are occluded per pixel where the z-buffer is
/// nearer. Colours only — the depth buffer is never written.
pub fn composite_splats(
    assets: &[BakedAsset],
    camera: &RasterCamera,
    framebuffer: &mut Framebuffer,
    options: &RenderOptions,
) -> usize {
    let mut projected: Vec<ProjectedSplat> = Vec::new();
    for asset in assets {
        let Some(cloud) = &asset.splats else { continue };
        for splat in cloud.splats() {
            if let Some(p) = project_splat(asset, splat, camera) {
                projected.push(p);
            }
        }
    }
    if projected.is_empty() {
        return 0;
    }
    // The fixed global back-to-front order: depth descending
    // (total_cmp — total and portable), ties by projection order, which is
    // (asset index, splat index). The sort is stable, so equal-depth
    // splats keep that order.
    projected.sort_by(|p, q| q.depth.total_cmp(&p.depth));
    let submitted = projected.len();

    let (width, height) = (camera.width(), camera.height());
    let workers =
        if options.splat_workers == 0 { default_workers(height) } else { options.splat_workers };
    // Row-parallel compositing: each row job reads the (frozen) colour and
    // depth buffers and returns its blended row; rows stitch in job order.
    let (image, depths) = (framebuffer.color(), framebuffer.depth());
    let rows: Vec<Option<Vec<Color>>> = parallel_map(height, workers, |y| {
        if !projected.iter().any(|s| y >= s.y0 && y <= s.y1) {
            return None;
        }
        let mut colors: Vec<Color> = (0..width).map(|x| image.get(x, y)).collect();
        composite_row(y, &mut colors, &depths[y * width..(y + 1) * width], &projected);
        Some(colors)
    });
    let image = framebuffer.color_mut();
    for (y, row) in rows.into_iter().enumerate() {
        let Some(row) = row else { continue };
        for (x, color) in row.into_iter().enumerate() {
            image.set(x, y, color);
        }
    }
    submitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renderer::render_assets;
    use nerflex_bake::{bake_object, BakeConfig};
    use nerflex_image::Image;
    use nerflex_scene::camera_path::orbit_path;
    use nerflex_scene::object::CanonicalObject;

    fn splat_asset(count: u32) -> BakedAsset {
        bake_object(&CanonicalObject::Hotdog.build(), BakeConfig::splat(20, count))
    }

    fn front_pose(asset: &BakedAsset) -> nerflex_scene::camera_path::CameraPose {
        let bb = asset.world_bounding_box();
        orbit_path(bb.center(), bb.diagonal().max(1.0) * 1.4, 0.4, 8)[0]
    }

    fn render_with(
        asset: &BakedAsset,
        options: &RenderOptions,
    ) -> (Image, crate::renderer::RenderStats) {
        let pose = front_pose(asset);
        render_assets(std::slice::from_ref(asset), &pose, 64, 64, options)
    }

    #[test]
    fn splat_asset_is_visible_in_render() {
        let asset = splat_asset(1024);
        let (img, stats) = render_with(&asset, &RenderOptions::default());
        assert_eq!(stats.quads_submitted, 0, "splat assets carry no mesh");
        assert!(stats.splats_submitted > 0, "cloud must reach the compositor");
        // The image is not pure background.
        let pose = front_pose(&asset);
        let bg = Image::from_fn(64, 64, |x, y| {
            let ray = nerflex_scene::raymarch::primary_ray(&pose, x, y, 64, 64);
            nerflex_scene::raymarch::background(ray.direction)
        });
        assert!(nerflex_image::metrics::mse(&img, &bg) > 1e-4);
    }

    #[test]
    fn output_is_bit_identical_across_workers() {
        // The acceptance criterion: {1, 4, auto} workers all produce the
        // same bits.
        let asset = splat_asset(768);
        let reference = render_with(&asset, &RenderOptions { splat_workers: 1 }).0;
        for workers in [1usize, 4, 0] {
            let options = RenderOptions { splat_workers: workers };
            let img = render_with(&asset, &options).0;
            assert!(
                reference.pixels().iter().zip(img.pixels()).all(|(a, b)| {
                    a.r.to_bits() == b.r.to_bits()
                        && a.g.to_bits() == b.g.to_bits()
                        && a.b.to_bits() == b.b.to_bits()
                }),
                "bits changed at workers={workers}"
            );
        }
    }

    #[test]
    fn more_splats_approximate_the_object_better() {
        let model = CanonicalObject::Hotdog.build();
        let coarse = bake_object(&model, BakeConfig::splat(20, 128));
        let fine = bake_object(&model, BakeConfig::splat(20, 4096));
        let pose = front_pose(&fine);
        // A fine mesh bake is the family-independent yardstick.
        let mesh_ref = bake_object(&model, BakeConfig::new(40, 9));
        let (reference, _) = render_assets(&[mesh_ref], &pose, 64, 64, &RenderOptions::default());
        let ssim_of = |asset: &BakedAsset| {
            let (img, _) = render_assets(
                std::slice::from_ref(asset),
                &pose,
                64,
                64,
                &RenderOptions::default(),
            );
            nerflex_image::metrics::ssim(&reference, &img)
        };
        let lo = ssim_of(&coarse);
        let hi = ssim_of(&fine);
        assert!(hi > lo, "quality must grow with the splat count: {lo} -> {hi}");
    }

    #[test]
    fn splats_are_occluded_by_nearer_geometry() {
        // A mesh asset in front of a splat asset: pixels covered by the
        // mesh must keep the mesh colour wherever the mesh is nearer.
        let mesh = bake_object(&CanonicalObject::Chair.build(), BakeConfig::new(20, 5));
        let splats = splat_asset(512);
        let pose = front_pose(&mesh);
        let (mesh_only, _) =
            render_assets(std::slice::from_ref(&mesh), &pose, 48, 48, &RenderOptions::default());
        let (both, stats) =
            render_assets(&[mesh.clone(), splats], &pose, 48, 48, &RenderOptions::default());
        assert!(stats.splats_submitted > 0);
        // Somewhere the splat cloud must be visible…
        assert!(nerflex_image::metrics::mse(&both, &mesh_only) > 0.0);
        // …but the frame must not be dominated by splats bleeding through
        // the mesh: most mesh pixels survive (occlusion works).
        let same = mesh_only.pixels().iter().zip(both.pixels()).filter(|(a, b)| a == b).count();
        assert!(same * 2 > mesh_only.pixels().len(), "occlusion lost: only {same} pixels kept");
    }
}
