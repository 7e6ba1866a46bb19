//! Triangle rasterisation with perspective-correct attribute interpolation.
//!
//! Each baked quad is split into two triangles whose vertices carry the patch
//! UV coordinate and the surface normal; fragments are produced with the
//! perspective-correctly interpolated attributes and handed to a shading
//! callback, which is how the renderer keeps rasterisation independent of
//! texturing and shading.
//!
//! # Inner loop and the determinism contract
//!
//! The per-pixel barycentric weights are affine in the pixel coordinates, so
//! the inner loop evaluates precomputed **incremental edge functions**
//! (`w = (c + a·px + b·py)·inv_area`, with the `c + b·py` base hoisted per
//! row) instead of three `perp_dot` cross products per pixel, and the
//! perspective-correction setup (per-vertex `attribute × 1/w` products) is
//! hoisted out of the loop entirely. Each weight is recomputed from its row
//! base — never accumulated across pixels — so there is no drift and the
//! output is a pure function of the triangle: same inputs, same bits, on
//! every run. The edge functions, the interpolated depth and the
//! perspective weights `l0/l1/l2` evaluate four pixels at a time on
//! [`nerflex_math::simd`] lanes (each lane op is exactly the scalar op, so
//! the packet/scalar-tail split never changes output bits; see
//! `docs/determinism.md`). A property test checks the incremental weights
//! against the reference `perp_dot` evaluation over random triangles, and a
//! second one checks the packet loop bit-for-bit against a scalar-only
//! reference; fragments are only shaded after a single framebuffer depth
//! test ([`Framebuffer::write_lazy`]).

use crate::camera::RasterCamera;
use crate::framebuffer::Framebuffer;
use nerflex_image::Color;
use nerflex_math::simd::LANES;
use nerflex_math::{F32x4, Vec2, Vec3};

/// A vertex submitted to the rasteriser.
#[derive(Debug, Clone, Copy)]
pub struct RasterVertex {
    /// World-space position.
    pub position: Vec3,
    /// Texture coordinate within the quad's atlas patch.
    pub uv: Vec2,
    /// World-space surface normal.
    pub normal: Vec3,
}

/// An interpolated fragment passed to the shading callback.
#[derive(Debug, Clone, Copy)]
pub struct Fragment {
    /// Perspective-correct texture coordinate.
    pub uv: Vec2,
    /// Perspective-correct (re-normalised) surface normal.
    pub normal: Vec3,
    /// Normalised-device-coordinate depth (smaller is nearer).
    pub depth: f32,
}

/// Statistics accumulated while rasterising.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles that survived clipping and faced the camera.
    pub triangles_rasterized: usize,
    /// Fragments that passed the depth test and were shaded.
    pub fragments_shaded: usize,
}

/// Coefficients of the affine edge function `w(px, py) = c + a·px + b·py`
/// spanned by the directed edge `s → e`: the expansion of
/// `(s − p).perp_dot(e − p)` (the cross terms cancel).
fn edge_coefficients(s: Vec2, e: Vec2) -> (f32, f32, f32) {
    (s.y - e.y, e.x - s.x, s.x * e.y - s.y * e.x)
}

/// Rasterises one triangle, calling `shade` for every fragment that passes
/// the depth test.
pub fn draw_triangle(
    camera: &RasterCamera,
    framebuffer: &mut Framebuffer,
    vertices: &[RasterVertex; 3],
    stats: &mut RasterStats,
    shade: &mut dyn FnMut(Fragment) -> Color,
) {
    // Project all three vertices; reject triangles crossing the near plane
    // (scene scale makes these negligible — objects sit well inside the view).
    let clips = [
        camera.to_clip(vertices[0].position),
        camera.to_clip(vertices[1].position),
        camera.to_clip(vertices[2].position),
    ];
    if clips.iter().any(|c| c.w <= crate::camera::NEAR * 0.5) {
        return;
    }
    let inv_w = [1.0 / clips[0].w, 1.0 / clips[1].w, 1.0 / clips[2].w];
    let screen: [Vec2; 3] = std::array::from_fn(|i| {
        let ndc = clips[i].perspective_divide();
        nerflex_math::transform::ndc_to_viewport(ndc, framebuffer.width(), framebuffer.height())
    });
    let depth_ndc = [clips[0].z * inv_w[0], clips[1].z * inv_w[1], clips[2].z * inv_w[2]];

    // Signed area (negative = back-facing in our winding); keep both windings
    // because baked quads are viewed from either side after projection.
    let area = (screen[1] - screen[0]).perp_dot(screen[2] - screen[0]);
    if area.abs() < 1e-6 {
        return;
    }
    stats.triangles_rasterized += 1;
    let inv_area = 1.0 / area;

    let min_x = screen.iter().map(|p| p.x).fold(f32::INFINITY, f32::min).floor().max(0.0) as usize;
    let max_x = (screen.iter().map(|p| p.x).fold(f32::NEG_INFINITY, f32::max).ceil() as isize)
        .clamp(0, framebuffer.width() as isize - 1) as usize;
    let min_y = screen.iter().map(|p| p.y).fold(f32::INFINITY, f32::min).floor().max(0.0) as usize;
    let max_y = (screen.iter().map(|p| p.y).fold(f32::NEG_INFINITY, f32::max).ceil() as isize)
        .clamp(0, framebuffer.height() as isize - 1) as usize;
    if min_x > max_x || min_y > max_y {
        return;
    }

    // Barycentric weights as incremental edge functions (w2 closes the sum),
    // and the perspective-correction setup hoisted out of the pixel loop:
    // every attribute is pre-multiplied by its vertex's 1/w once.
    let (a0, b0, c0) = edge_coefficients(screen[1], screen[2]);
    let (a1, b1, c1) = edge_coefficients(screen[2], screen[0]);
    let uv_w = [vertices[0].uv * inv_w[0], vertices[1].uv * inv_w[1], vertices[2].uv * inv_w[2]];
    let normal_w = [
        vertices[0].normal * inv_w[0],
        vertices[1].normal * inv_w[1],
        vertices[2].normal * inv_w[2],
    ];

    // Shades one surviving fragment behind the single depth test;
    // interpolation runs only for visible fragments. Shared by the packet
    // loop (lane-extracted weights) and the scalar tail — the weights are
    // bit-identical either way, so the output never depends on the split.
    let mut emit_fragment =
        |x: usize, y: usize, w0: f32, w1: f32, w2: f32, depth: f32, denom: f32| {
            let written = framebuffer.write_lazy(x, y, depth, || {
                let inv_denom = 1.0 / denom;
                let uv = (uv_w[0] * w0 + uv_w[1] * w1 + uv_w[2] * w2) * inv_denom;
                let normal = ((normal_w[0] * w0 + normal_w[1] * w1 + normal_w[2] * w2) * inv_denom)
                    .normalized();
                shade(Fragment { uv, normal, depth })
            });
            if written {
                stats.fragments_shaded += 1;
            }
        };

    for y in min_y..=max_y {
        let py = y as f32 + 0.5;
        // Per-row bases; each pixel adds its own a·px term (recomputed from
        // the base, never accumulated, so rounding cannot drift across a row).
        let w0_row = c0 + b0 * py;
        let w1_row = c1 + b1 * py;
        // Four pixels at a time: the barycentric weights, the depth and the
        // perspective weights l0/l1/l2 evaluate on [`F32x4`] lanes. Every
        // lane op is the scalar op of the tail loop below (multiplication
        // and addition commute exactly in IEEE-754, and the coverage masks
        // negate the scalar skip conditions so NaN handling matches), so
        // the packet/tail split never changes output bits.
        let mut x = min_x;
        while x + LANES <= max_x + 1 {
            let px = F32x4::new(
                x as f32 + 0.5,
                (x + 1) as f32 + 0.5,
                (x + 2) as f32 + 0.5,
                (x + 3) as f32 + 0.5,
            );
            let w0 = (px * a0 + w0_row) * inv_area;
            let w1 = (px * a1 + w1_row) * inv_area;
            let w2 = F32x4::splat(1.0) - w0 - w1;
            let outside = w0.lt(F32x4::ZERO).or(w1.lt(F32x4::ZERO)).or(w2.lt(F32x4::ZERO));
            let depth = w0 * depth_ndc[0] + w1 * depth_ndc[1] + w2 * depth_ndc[2];
            let in_depth_range = F32x4::splat(-1.0).le(depth).and(depth.le(F32x4::splat(1.0)));
            let l0 = w0 * inv_w[0];
            let l1 = w1 * inv_w[1];
            let l2 = w2 * inv_w[2];
            let denom = l0 + l1 + l2;
            let covered = (!outside).and(in_depth_range).and(!denom.le(F32x4::ZERO));
            if covered.any() {
                for lane in 0..LANES {
                    if covered.lane(lane) {
                        emit_fragment(
                            x + lane,
                            y,
                            w0.lane(lane),
                            w1.lane(lane),
                            w2.lane(lane),
                            depth.lane(lane),
                            denom.lane(lane),
                        );
                    }
                }
            }
            x += LANES;
        }
        // Scalar tail for the leftover pixels of the row.
        for x in x..=max_x {
            let px = x as f32 + 0.5;
            let w0 = (w0_row + a0 * px) * inv_area;
            let w1 = (w1_row + a1 * px) * inv_area;
            let w2 = 1.0 - w0 - w1;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            let depth = w0 * depth_ndc[0] + w1 * depth_ndc[1] + w2 * depth_ndc[2];
            if !(-1.0..=1.0).contains(&depth) {
                continue;
            }
            // Perspective-correct weights (attributes were scaled by 1/w above).
            let l0 = w0 * inv_w[0];
            let l1 = w1 * inv_w[1];
            let l2 = w2 * inv_w[2];
            let denom = l0 + l1 + l2;
            if denom <= 0.0 {
                continue;
            }
            emit_fragment(x, y, w0, w1, w2, depth, denom);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::camera_path::CameraPose;
    use proptest::prelude::*;

    fn camera(width: usize, height: usize) -> RasterCamera {
        let pose = CameraPose::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 60.0f32.to_radians());
        RasterCamera::new(&pose, width, height)
    }

    fn vertex(p: Vec3, uv: Vec2) -> RasterVertex {
        RasterVertex { position: p, uv, normal: Vec3::Z }
    }

    #[test]
    fn triangle_covers_expected_pixels() {
        let cam = camera(64, 64);
        let mut fb = Framebuffer::new(64, 64, Color::BLACK);
        let mut stats = RasterStats::default();
        let tri = [
            vertex(Vec3::new(-1.0, -1.0, 0.0), Vec2::new(0.0, 0.0)),
            vertex(Vec3::new(1.0, -1.0, 0.0), Vec2::new(1.0, 0.0)),
            vertex(Vec3::new(0.0, 1.0, 0.0), Vec2::new(0.5, 1.0)),
        ];
        draw_triangle(&cam, &mut fb, &tri, &mut stats, &mut |_| Color::WHITE);
        assert_eq!(stats.triangles_rasterized, 1);
        assert!(stats.fragments_shaded > 50);
        // The triangle centroid projects near the viewport centre.
        assert_eq!(fb.into_image().get(32, 32), Color::WHITE);
    }

    #[test]
    fn nearer_triangle_occludes_farther_one() {
        let cam = camera(48, 48);
        let mut fb = Framebuffer::new(48, 48, Color::BLACK);
        let mut stats = RasterStats::default();
        let far = [
            vertex(Vec3::new(-1.0, -1.0, -1.0), Vec2::ZERO),
            vertex(Vec3::new(1.0, -1.0, -1.0), Vec2::ZERO),
            vertex(Vec3::new(0.0, 1.0, -1.0), Vec2::ZERO),
        ];
        let near = [
            vertex(Vec3::new(-1.0, -1.0, 1.0), Vec2::ZERO),
            vertex(Vec3::new(1.0, -1.0, 1.0), Vec2::ZERO),
            vertex(Vec3::new(0.0, 1.0, 1.0), Vec2::ZERO),
        ];
        draw_triangle(&cam, &mut fb, &far, &mut stats, &mut |_| Color::gray(0.2));
        draw_triangle(&cam, &mut fb, &near, &mut stats, &mut |_| Color::WHITE);
        assert_eq!(fb.into_image().get(24, 24), Color::WHITE);

        // Drawing in the opposite order must give the same result.
        let mut fb2 = Framebuffer::new(48, 48, Color::BLACK);
        draw_triangle(&cam, &mut fb2, &near, &mut stats, &mut |_| Color::WHITE);
        draw_triangle(&cam, &mut fb2, &far, &mut stats, &mut |_| Color::gray(0.2));
        assert_eq!(fb2.into_image().get(24, 24), Color::WHITE);
    }

    #[test]
    fn uv_interpolation_spans_the_triangle() {
        let cam = camera(64, 64);
        let mut fb = Framebuffer::new(64, 64, Color::BLACK);
        let mut stats = RasterStats::default();
        let tri = [
            vertex(Vec3::new(-1.5, -1.5, 0.0), Vec2::new(0.0, 0.0)),
            vertex(Vec3::new(1.5, -1.5, 0.0), Vec2::new(1.0, 0.0)),
            vertex(Vec3::new(-1.5, 1.5, 0.0), Vec2::new(0.0, 1.0)),
        ];
        let mut min_u = f32::INFINITY;
        let mut max_u = f32::NEG_INFINITY;
        draw_triangle(&cam, &mut fb, &tri, &mut stats, &mut |f| {
            min_u = min_u.min(f.uv.x);
            max_u = max_u.max(f.uv.x);
            Color::WHITE
        });
        assert!(min_u < 0.1 && max_u > 0.8, "u range [{min_u}, {max_u}]");
    }

    #[test]
    fn behind_camera_triangles_are_skipped() {
        let cam = camera(32, 32);
        let mut fb = Framebuffer::new(32, 32, Color::BLACK);
        let mut stats = RasterStats::default();
        let tri = [
            vertex(Vec3::new(-1.0, -1.0, 10.0), Vec2::ZERO),
            vertex(Vec3::new(1.0, -1.0, 10.0), Vec2::ZERO),
            vertex(Vec3::new(0.0, 1.0, 10.0), Vec2::ZERO),
        ];
        draw_triangle(&cam, &mut fb, &tri, &mut stats, &mut |_| Color::WHITE);
        assert_eq!(stats.triangles_rasterized, 0);
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn degenerate_triangle_is_skipped() {
        let cam = camera(32, 32);
        let mut fb = Framebuffer::new(32, 32, Color::BLACK);
        let mut stats = RasterStats::default();
        let p = Vec3::new(0.0, 0.0, 0.0);
        let tri = [vertex(p, Vec2::ZERO), vertex(p, Vec2::ZERO), vertex(p, Vec2::ZERO)];
        draw_triangle(&cam, &mut fb, &tri, &mut stats, &mut |_| Color::WHITE);
        assert_eq!(stats.triangles_rasterized, 0);
    }

    /// Scalar-only reference rasteriser: the exact per-pixel loop the packet
    /// path replaced (edge functions, depth, `l0/l1/l2` and rejections all
    /// scalar). [`draw_triangle`] must match it bit for bit.
    fn draw_triangle_scalar_reference(
        camera: &RasterCamera,
        framebuffer: &mut Framebuffer,
        vertices: &[RasterVertex; 3],
        stats: &mut RasterStats,
        shade: &mut dyn FnMut(Fragment) -> Color,
    ) {
        let clips = [
            camera.to_clip(vertices[0].position),
            camera.to_clip(vertices[1].position),
            camera.to_clip(vertices[2].position),
        ];
        if clips.iter().any(|c| c.w <= crate::camera::NEAR * 0.5) {
            return;
        }
        let inv_w = [1.0 / clips[0].w, 1.0 / clips[1].w, 1.0 / clips[2].w];
        let screen: [Vec2; 3] = std::array::from_fn(|i| {
            let ndc = clips[i].perspective_divide();
            nerflex_math::transform::ndc_to_viewport(ndc, framebuffer.width(), framebuffer.height())
        });
        let depth_ndc = [clips[0].z * inv_w[0], clips[1].z * inv_w[1], clips[2].z * inv_w[2]];
        let area = (screen[1] - screen[0]).perp_dot(screen[2] - screen[0]);
        if area.abs() < 1e-6 {
            return;
        }
        stats.triangles_rasterized += 1;
        let inv_area = 1.0 / area;
        let min_x =
            screen.iter().map(|p| p.x).fold(f32::INFINITY, f32::min).floor().max(0.0) as usize;
        let max_x = (screen.iter().map(|p| p.x).fold(f32::NEG_INFINITY, f32::max).ceil() as isize)
            .clamp(0, framebuffer.width() as isize - 1) as usize;
        let min_y =
            screen.iter().map(|p| p.y).fold(f32::INFINITY, f32::min).floor().max(0.0) as usize;
        let max_y = (screen.iter().map(|p| p.y).fold(f32::NEG_INFINITY, f32::max).ceil() as isize)
            .clamp(0, framebuffer.height() as isize - 1) as usize;
        if min_x > max_x || min_y > max_y {
            return;
        }
        let (a0, b0, c0) = edge_coefficients(screen[1], screen[2]);
        let (a1, b1, c1) = edge_coefficients(screen[2], screen[0]);
        let uv_w =
            [vertices[0].uv * inv_w[0], vertices[1].uv * inv_w[1], vertices[2].uv * inv_w[2]];
        let normal_w = [
            vertices[0].normal * inv_w[0],
            vertices[1].normal * inv_w[1],
            vertices[2].normal * inv_w[2],
        ];
        for y in min_y..=max_y {
            let py = y as f32 + 0.5;
            let w0_row = c0 + b0 * py;
            let w1_row = c1 + b1 * py;
            for x in min_x..=max_x {
                let px = x as f32 + 0.5;
                let w0 = (w0_row + a0 * px) * inv_area;
                let w1 = (w1_row + a1 * px) * inv_area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = w0 * depth_ndc[0] + w1 * depth_ndc[1] + w2 * depth_ndc[2];
                if !(-1.0..=1.0).contains(&depth) {
                    continue;
                }
                let l0 = w0 * inv_w[0];
                let l1 = w1 * inv_w[1];
                let l2 = w2 * inv_w[2];
                let denom = l0 + l1 + l2;
                if denom <= 0.0 {
                    continue;
                }
                let written = framebuffer.write_lazy(x, y, depth, || {
                    let inv_denom = 1.0 / denom;
                    let uv = (uv_w[0] * w0 + uv_w[1] * w1 + uv_w[2] * w2) * inv_denom;
                    let normal = ((normal_w[0] * w0 + normal_w[1] * w1 + normal_w[2] * w2)
                        * inv_denom)
                        .normalized();
                    shade(Fragment { uv, normal, depth })
                });
                if written {
                    stats.fragments_shaded += 1;
                }
            }
        }
    }

    /// Reference per-pixel barycentric evaluation (the pre-incremental
    /// rasteriser's three `perp_dot` cross products), including the same
    /// projection, depth and perspective-denominator rejections.
    fn reference_fragment(
        cam: &RasterCamera,
        size: usize,
        tri: &[RasterVertex; 3],
        x: usize,
        y: usize,
    ) -> Option<(Vec2, f32, f32)> {
        let clips = [
            cam.to_clip(tri[0].position),
            cam.to_clip(tri[1].position),
            cam.to_clip(tri[2].position),
        ];
        if clips.iter().any(|c| c.w <= crate::camera::NEAR * 0.5) {
            return None;
        }
        let inv_w = [1.0 / clips[0].w, 1.0 / clips[1].w, 1.0 / clips[2].w];
        let screen: Vec<Vec2> = clips
            .iter()
            .map(|c| nerflex_math::transform::ndc_to_viewport(c.perspective_divide(), size, size))
            .collect();
        let depth_ndc = [clips[0].z * inv_w[0], clips[1].z * inv_w[1], clips[2].z * inv_w[2]];
        let area = (screen[1] - screen[0]).perp_dot(screen[2] - screen[0]);
        if area.abs() < 1e-6 {
            return None;
        }
        let inv_area = 1.0 / area;
        let p = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
        let w0 = (screen[1] - p).perp_dot(screen[2] - p) * inv_area;
        let w1 = (screen[2] - p).perp_dot(screen[0] - p) * inv_area;
        let w2 = 1.0 - w0 - w1;
        if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
            return None;
        }
        let depth = w0 * depth_ndc[0] + w1 * depth_ndc[1] + w2 * depth_ndc[2];
        if !(-1.0..=1.0).contains(&depth) {
            return None;
        }
        let denom = w0 * inv_w[0] + w1 * inv_w[1] + w2 * inv_w[2];
        if denom <= 0.0 {
            return None;
        }
        let persp = |a0: f32, a1: f32, a2: f32| {
            (a0 * w0 * inv_w[0] + a1 * w1 * inv_w[1] + a2 * w2 * inv_w[2]) / denom
        };
        let uv = Vec2::new(
            persp(tri[0].uv.x, tri[1].uv.x, tri[2].uv.x),
            persp(tri[0].uv.y, tri[1].uv.y, tri[2].uv.y),
        );
        let edge_margin = w0.abs().min(w1.abs()).min(w2.abs());
        Some((uv, depth, edge_margin))
    }

    proptest! {
        #[test]
        fn prop_packet_loop_is_bit_identical_to_scalar_loop(
            x0 in -1.8f32..1.8, y0 in -1.8f32..1.8, z0 in -1.0f32..1.0,
            x1 in -1.8f32..1.8, y1 in -1.8f32..1.8, z1 in -1.0f32..1.0,
            x2 in -1.8f32..1.8, y2 in -1.8f32..1.8, z2 in -1.0f32..1.0,
            size in 17usize..50,
        ) {
            // The lane-packed fragment loop must reproduce the scalar loop
            // bit for bit: same coverage, same depths, same shaded colours,
            // same stats — for any viewport size (odd widths exercise the
            // packet/tail split).
            let cam = camera(size, size);
            let tri = [
                RasterVertex {
                    position: Vec3::new(x0, y0, z0),
                    uv: Vec2::new(0.0, 0.0),
                    normal: Vec3::new(0.3, 0.9, 0.1).normalized(),
                },
                RasterVertex {
                    position: Vec3::new(x1, y1, z1),
                    uv: Vec2::new(1.0, 0.0),
                    normal: Vec3::Z,
                },
                RasterVertex {
                    position: Vec3::new(x2, y2, z2),
                    uv: Vec2::new(0.5, 1.0),
                    normal: Vec3::new(-0.2, 0.4, 0.8).normalized(),
                },
            ];
            let shade = |f: Fragment| Color::new(f.uv.x, f.normal.y, f.depth);
            let mut fb_packet = Framebuffer::new(size, size, Color::BLACK);
            let mut stats_packet = RasterStats::default();
            draw_triangle(&cam, &mut fb_packet, &tri, &mut stats_packet, &mut { shade });
            let mut fb_scalar = Framebuffer::new(size, size, Color::BLACK);
            let mut stats_scalar = RasterStats::default();
            draw_triangle_scalar_reference(
                &cam,
                &mut fb_scalar,
                &tri,
                &mut stats_scalar,
                &mut { shade },
            );
            prop_assert_eq!(stats_packet, stats_scalar);
            for y in 0..size {
                for x in 0..size {
                    let dp = fb_packet.depth_at(x, y);
                    let ds = fb_scalar.depth_at(x, y);
                    prop_assert_eq!(dp.to_bits(), ds.to_bits());
                }
            }
            let img_packet = fb_packet.into_image();
            let img_scalar = fb_scalar.into_image();
            prop_assert_eq!(img_packet, img_scalar);
        }

        #[test]
        fn prop_incremental_matches_reference_barycentric(
            x0 in -1.8f32..1.8, y0 in -1.8f32..1.8, z0 in -1.0f32..1.0,
            x1 in -1.8f32..1.8, y1 in -1.8f32..1.8, z1 in -1.0f32..1.0,
            x2 in -1.8f32..1.8, y2 in -1.8f32..1.8, z2 in -1.0f32..1.0,
        ) {
            const SIZE: usize = 48;
            let cam = camera(SIZE, SIZE);
            let tri = [
                RasterVertex {
                    position: Vec3::new(x0, y0, z0),
                    uv: Vec2::new(0.0, 0.0),
                    normal: Vec3::Z,
                },
                RasterVertex {
                    position: Vec3::new(x1, y1, z1),
                    uv: Vec2::new(1.0, 0.0),
                    normal: Vec3::Z,
                },
                RasterVertex {
                    position: Vec3::new(x2, y2, z2),
                    uv: Vec2::new(0.5, 1.0),
                    normal: Vec3::Z,
                },
            ];
            // Skip screen-space slivers: their barycentrics are dominated by
            // rounding in *both* formulations and compare nothing meaningful.
            let screen: Vec<Vec2> = tri
                .iter()
                .filter_map(|v| cam.project(v.position).map(|(p, _)| p))
                .collect();
            prop_assume!(screen.len() == 3);
            let area = (screen[1] - screen[0]).perp_dot(screen[2] - screen[0]);
            prop_assume!(area.abs() > 4.0);

            // Rasterise once, encoding (uv.x, uv.y, depth) into the colour.
            let mut fb = Framebuffer::new(SIZE, SIZE, Color::BLACK);
            let mut stats = RasterStats::default();
            draw_triangle(&cam, &mut fb, &tri, &mut stats, &mut |f| {
                Color::new(f.uv.x, f.uv.y, f.depth)
            });
            let img = fb.clone().into_image();

            for y in 0..SIZE {
                for x in 0..SIZE {
                    let covered = fb.depth_at(x, y).is_finite();
                    match reference_fragment(&cam, SIZE, &tri, x, y) {
                        Some((uv, depth, edge_margin)) => {
                            if !covered {
                                // Coverage may flip only within rounding
                                // distance of an edge.
                                prop_assert!(
                                    edge_margin < 1e-2,
                                    "pixel ({x},{y}) lost with margin {edge_margin}"
                                );
                                continue;
                            }
                            let c = img.get(x, y);
                            prop_assert!((c.r - uv.x).abs() < 1e-2, "uv.x at ({x},{y})");
                            prop_assert!((c.g - uv.y).abs() < 1e-2, "uv.y at ({x},{y})");
                            prop_assert!((c.b - depth).abs() < 1e-2, "depth at ({x},{y})");
                        }
                        None => {
                            if covered {
                                let margin = reference_edge_margin(&cam, SIZE, &tri, x, y);
                                prop_assert!(
                                    margin < 1e-2,
                                    "pixel ({x},{y}) gained with margin {margin}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The smallest reference barycentric magnitude at a pixel — how close
    /// the pixel centre is to an edge, for the coverage-flip tolerance.
    fn reference_edge_margin(
        cam: &RasterCamera,
        size: usize,
        tri: &[RasterVertex; 3],
        x: usize,
        y: usize,
    ) -> f32 {
        let clips = [
            cam.to_clip(tri[0].position),
            cam.to_clip(tri[1].position),
            cam.to_clip(tri[2].position),
        ];
        let screen: Vec<Vec2> = clips
            .iter()
            .map(|c| nerflex_math::transform::ndc_to_viewport(c.perspective_divide(), size, size))
            .collect();
        let area = (screen[1] - screen[0]).perp_dot(screen[2] - screen[0]);
        let inv_area = 1.0 / area;
        let p = Vec2::new(x as f32 + 0.5, y as f32 + 0.5);
        let w0 = (screen[1] - p).perp_dot(screen[2] - p) * inv_area;
        let w1 = (screen[2] - p).perp_dot(screen[0] - p) * inv_area;
        let w2 = 1.0 - w0 - w1;
        w0.abs().min(w1.abs()).min(w2.abs())
    }
}
