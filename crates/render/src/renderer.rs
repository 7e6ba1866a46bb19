//! Rendering baked assets into images.

use crate::camera::RasterCamera;
use crate::framebuffer::Framebuffer;
use crate::raster::{draw_triangle, RasterStats, RasterVertex};
use nerflex_bake::BakedAsset;
use nerflex_image::{Color, Image};
use nerflex_math::Vec2;
use nerflex_scene::camera_path::CameraPose;
use nerflex_scene::raymarch::{background, shade};

/// Options for [`render_assets`]. Mesh fragments always take the analytic
/// shading model; the options steer only the splat compositor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderOptions {
    /// Worker count for the row-parallel splat compositor (0 = one worker
    /// per available core). Never changes output bits
    /// (`docs/determinism.md`).
    pub splat_workers: usize,
}

/// Workload statistics for one rendered frame, consumed by the device FPS
/// model (`nerflex-device`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Quads submitted to the rasteriser across all assets.
    pub quads_submitted: usize,
    /// Triangles that survived clipping.
    pub triangles_rasterized: usize,
    /// Fragments that passed the depth test and were shaded.
    pub fragments_shaded: usize,
    /// Splats projected into the viewport and composited.
    pub splats_submitted: usize,
}

/// Renders a set of baked assets from `pose` into a `width × height` image.
///
/// Returns the image and the frame's workload statistics.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn render_assets(
    assets: &[BakedAsset],
    pose: &CameraPose,
    width: usize,
    height: usize,
    options: &RenderOptions,
) -> (Image, RenderStats) {
    assert!(width > 0 && height > 0, "render target must be non-zero");
    let camera = RasterCamera::new(pose, width, height);
    let mut framebuffer = Framebuffer::new(width, height, Color::BLACK);
    let mut raster_stats = RasterStats::default();
    let mut stats = RenderStats::default();

    for asset in assets {
        let placement = asset.placement;
        for (q, quad) in asset.mesh.quads.iter().enumerate() {
            stats.quads_submitted += 1;
            // Build the four corner vertices in world space with patch UVs.
            let corner = |i: usize, u: f32, v: f32| -> RasterVertex {
                let local = asset.mesh.positions[quad.vertices[i] as usize];
                let normal = asset.mesh.normals[quad.vertices[i] as usize];
                RasterVertex {
                    position: placement.to_world(local),
                    uv: Vec2::new(u, v),
                    normal: placement.rotate_direction(normal),
                }
            };
            let v0 = corner(0, 0.0, 0.0);
            let v1 = corner(1, 1.0, 0.0);
            let v2 = corner(2, 1.0, 1.0);
            let v3 = corner(3, 0.0, 1.0);
            let mut shade_fragment = |frag: crate::raster::Fragment| -> Color {
                shade(asset.atlas.sample(q, frag.uv.x, frag.uv.y), frag.normal)
            };
            draw_triangle(
                &camera,
                &mut framebuffer,
                &[v0, v1, v2],
                &mut raster_stats,
                &mut shade_fragment,
            );
            draw_triangle(
                &camera,
                &mut framebuffer,
                &[v0, v2, v3],
                &mut raster_stats,
                &mut shade_fragment,
            );
        }
    }

    stats.triangles_rasterized = raster_stats.triangles_rasterized;
    stats.fragments_shaded = raster_stats.fragments_shaded;
    framebuffer.fill_background(|x, y| {
        let ray = nerflex_scene::raymarch::primary_ray(pose, x, y, width, height);
        background(ray.direction)
    });
    // Splat-family assets composite after the background fill: they blend
    // over sky and rasterised geometry alike, occluded per pixel by the
    // z-buffer (see crate::splat for the determinism contract).
    stats.splats_submitted =
        crate::splat::composite_splats(assets, &camera, &mut framebuffer, options);
    (framebuffer.into_image(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_bake::{bake_object, bake_placed, BakeConfig};
    use nerflex_image::metrics;
    use nerflex_math::Vec3;
    use nerflex_scene::camera_path::orbit_path;
    use nerflex_scene::object::CanonicalObject;
    use nerflex_scene::raymarch::render_view;
    use nerflex_scene::scene::Scene;

    fn hotdog_asset(config: BakeConfig) -> BakedAsset {
        bake_object(&CanonicalObject::Hotdog.build(), config)
    }

    fn front_pose(assets: &[BakedAsset]) -> CameraPose {
        let bb = assets
            .iter()
            .map(BakedAsset::world_bounding_box)
            .fold(nerflex_math::Aabb::empty(), |acc, b| acc.union(&b));
        orbit_path(bb.center(), bb.diagonal().max(1.0) * 1.4, 0.4, 8)[0]
    }

    #[test]
    fn baked_object_is_visible_in_render() {
        let asset = hotdog_asset(BakeConfig::new(16, 5));
        let pose = front_pose(std::slice::from_ref(&asset));
        let (img, stats) = render_assets(&[asset], &pose, 64, 64, &RenderOptions::default());
        assert!(stats.quads_submitted > 0);
        assert!(stats.fragments_shaded > 100, "object should cover pixels: {stats:?}");
        // The image is not pure background: some pixel differs from the sky gradient.
        let bg_only = Image::from_fn(64, 64, |x, y| {
            let ray = nerflex_scene::raymarch::primary_ray(&pose, x, y, 64, 64);
            background(ray.direction)
        });
        assert!(metrics::mse(&img, &bg_only) > 1e-4);
    }

    #[test]
    fn finer_bakes_match_ground_truth_better() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog], 1);
        let obj = &scene.objects()[0];
        let pose = orbit_path(scene.bounding_box().center(), 2.6, 0.4, 8)[0];
        let (gt, _) = render_view(&scene, &pose, 72, 72);
        let ssim_for = |g: u32, p: u32| {
            let asset = bake_placed(obj, BakeConfig::new(g, p));
            let (img, _) = render_assets(&[asset], &pose, 72, 72, &RenderOptions::default());
            metrics::ssim(&gt, &img)
        };
        let coarse = ssim_for(10, 3);
        let fine = ssim_for(40, 9);
        assert!(fine > coarse, "quality must improve with (g,p): {coarse} -> {fine}");
        assert!(fine > 0.55, "fine bake should be reasonably close to ground truth: {fine}");
    }

    #[test]
    fn multiple_assets_render_without_interference() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 4);
        let assets: Vec<BakedAsset> =
            scene.objects().iter().map(|o| bake_placed(o, BakeConfig::new(14, 3))).collect();
        let pose = CameraPose::new(
            scene.bounding_box().center() + Vec3::new(0.0, 2.5, 5.0),
            scene.bounding_box().center(),
            60.0f32.to_radians(),
        );
        let (_, stats) = render_assets(&assets, &pose, 64, 64, &RenderOptions::default());
        let total_quads: usize = assets.iter().map(|a| a.mesh.quad_count()).sum();
        assert_eq!(stats.quads_submitted, total_quads);
        assert!(stats.fragments_shaded > 0);
    }
}
