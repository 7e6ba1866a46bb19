//! Ground-truth rendering by sphere-traced ray marching.
//!
//! The paper's ground truth is the photograph / the full NeRF render; ours is
//! an exact render of the procedural scene. The same shading model (two
//! directional lights + ambient over the procedural albedo) is shared with
//! the baked-mesh renderer so that quality differences measured between the
//! two come only from the baked representation (mesh granularity `g`,
//! texture patch size `p`) — exactly the degradation the NeRFlex profiler
//! models.
//!
//! # Performance and the determinism contract
//!
//! Ground-truth rendering is the dominant profiling cost, so the renderer is
//! restructured along two orthogonal axes — neither of which may change a
//! single output bit:
//!
//! * **Tiled parallelism** — [`render_view_parallel`] splits the image into
//!   row tiles and fans them over the shared worker pool
//!   ([`nerflex_math::pool`]). Pixels are independent and tiles are stitched
//!   back in job order, so the image is **bit-for-bit identical for every
//!   worker count and tile height**; one worker is exactly the sequential
//!   path.
//! * **Ray packets** — inside a tile, rows are traced four pixels at a time
//!   by [`trace_packet`], which runs the sphere-tracing steps, the AABB
//!   rejection tests, the SDF distance evaluations, the hit-normal
//!   estimation ([`crate::sdf::Sdf::normal_x4`], grouped by hit object) and
//!   the Lambert shading ([`shade_x4`]) on [`nerflex_math::simd`] lanes.
//!   Every lane op is the exact scalar IEEE-754 op in the same association
//!   order (see [`crate::sdf::Sdf::distance_x4`]), so a packet lane is
//!   bit-identical to the scalar [`trace`] + [`shade`] on that ray; leftover
//!   pixels at the row end fall back to the scalar path.
//!
//! Tests in this module assert both properties exhaustively; any future
//! change to this file must keep `worker count, tile height and the
//! packet/scalar split never change output bits` true.

use crate::camera_path::CameraPose;
use crate::scene::Scene;
use nerflex_image::{Color, Image};
use nerflex_math::pool::{default_workers, parallel_map};
use nerflex_math::simd::LANES;
use nerflex_math::transform::camera_to_world;
use nerflex_math::{max, Aabb, F32x4, Mask4, Mat4, Ray, Vec3, Vec3x4};

/// Maximum sphere-tracing steps per ray.
const MAX_STEPS: usize = 96;
/// Surface hit tolerance.
const HIT_EPS: f32 = 2e-3;
/// Default tile height (rows per parallel job). Small tiles keep the
/// dynamic job queue load-balanced; the value never affects output bits.
const DEFAULT_TILE_ROWS: usize = 4;

/// A ray/scene intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Distance along the ray.
    pub t: f32,
    /// World-space hit point.
    pub point: Vec3,
    /// World-space surface normal.
    pub normal: Vec3,
    /// Instance id of the hit object.
    pub object_id: usize,
}

/// Shared shading model: simple two-light Lambertian over the albedo.
pub fn shade(albedo: Color, normal: Vec3) -> Color {
    let key = Vec3::new(0.5, 0.8, 0.3).normalized();
    let fill = Vec3::new(-0.6, 0.4, -0.5).normalized();
    let diffuse = 0.75 * max(normal.dot(key), 0.0) + 0.35 * max(normal.dot(fill), 0.0);
    let light = 0.25 + diffuse;
    albedo.scale(light).clamped()
}

/// Four-lane Lambert shading: [`shade`] evaluated on packet lanes (the two
/// light dot products and the diffuse term run on [`F32x4`], the per-lane
/// albedo scale/clamp on scalars). Lane `i` is **bit-identical** to
/// `shade(albedos[i], normals.lane(i))` — the dot products use the scalar
/// association order and IEEE multiplication/addition are commutative
/// exactly, so packet shading never changes output bits.
pub fn shade_x4(albedos: [Color; LANES], normals: Vec3x4) -> [Color; LANES] {
    let key = Vec3::new(0.5, 0.8, 0.3).normalized();
    let fill = Vec3::new(-0.6, 0.4, -0.5).normalized();
    let diffuse = normals.dot(Vec3x4::splat(key)).max(F32x4::ZERO) * 0.75
        + normals.dot(Vec3x4::splat(fill)).max(F32x4::ZERO) * 0.35;
    let light = diffuse + 0.25;
    std::array::from_fn(|lane| albedos[lane].scale(light.lane(lane)).clamped())
}

/// Background colour for a ray direction (vertical gradient).
pub fn background(direction: Vec3) -> Color {
    let t = 0.5 * (direction.y + 1.0);
    Color::new(0.85, 0.9, 0.95).lerp(Color::new(0.55, 0.65, 0.8), t)
}

/// Sphere-traces the scene and returns the first hit, if any.
///
/// `boxes` are the per-object world bounding boxes (pass
/// [`object_boxes`] output); they let the marcher skip objects that cannot be
/// the nearest surface.
pub fn trace(scene: &Scene, boxes: &[Aabb], ray: &Ray, max_distance: f32) -> Option<Hit> {
    let mut t = 0.0f32;
    for _ in 0..MAX_STEPS {
        let p = ray.at(t);
        let (d, id) = scene.distance_bounded(p, boxes, f32::INFINITY);
        if d < HIT_EPS {
            let id = id?;
            let obj = scene.object(id)?;
            let normal = obj.world_sdf().normal(p);
            return Some(Hit { t, point: p, normal, object_id: id });
        }
        t += max(d, HIT_EPS * 0.5);
        if t > max_distance {
            break;
        }
    }
    None
}

/// Sphere-traces a packet of four rays at once, running the marching steps,
/// AABB rejection and SDF evaluation on SIMD lanes.
///
/// Lanes where `active` is clear are ignored (and report `None`). Each
/// active lane's result is **bit-identical** to [`trace`] on that ray: the
/// per-step positions, distances and termination decisions use the exact
/// scalar operations lane by lane, and hit resolution runs through the
/// packetised [`Sdf::normal_x4`](crate::sdf::Sdf::normal_x4) — lanes that hit the same object share six
/// packet distance evaluations instead of paying six scalar evaluations
/// each, and every lane's normal is bit-identical to the scalar
/// [`Sdf::normal`](crate::sdf::Sdf::normal) at its hit point. Rays terminate independently; the
/// packet keeps stepping until every lane has hit, escaped or exhausted its
/// step budget.
pub fn trace_packet(
    scene: &Scene,
    boxes: &[Aabb],
    rays: &[Ray; LANES],
    max_distance: f32,
    mut active: Mask4,
) -> [Option<Hit>; LANES] {
    let origin =
        Vec3x4::from_lanes([rays[0].origin, rays[1].origin, rays[2].origin, rays[3].origin]);
    let direction = Vec3x4::from_lanes([
        rays[0].direction,
        rays[1].direction,
        rays[2].direction,
        rays[3].direction,
    ]);
    let mut t = F32x4::ZERO;
    // (t, hit point, object id) per lane, resolved to normals after the march.
    let mut pending: [Option<(f32, Vec3, usize)>; LANES] = [None; LANES];
    for _ in 0..MAX_STEPS {
        if !active.any() {
            break;
        }
        let p = origin + direction * t;
        let (d, ids) = scene.distance_bounded_x4(p, boxes, active);
        for lane in 0..LANES {
            if !active.lane(lane) {
                continue;
            }
            let dl = d.lane(lane);
            if dl < HIT_EPS {
                if let Some(id) = ids[lane].filter(|&id| scene.object(id).is_some()) {
                    pending[lane] = Some((t.lane(lane), p.lane(lane), id));
                }
                active.0[lane] = false;
            } else {
                let next = t.lane(lane) + max(dl, HIT_EPS * 0.5);
                t.set_lane(lane, next);
                if next > max_distance {
                    active.0[lane] = false;
                }
            }
        }
    }
    resolve_packet_hits(scene, pending)
}

/// Resolves pending packet hits: lanes that hit the same object are grouped
/// into one [`Sdf::normal_x4`] call (with the group's first point padding
/// the unused lanes), so a fully coherent packet estimates all four normals
/// for the cost of six packet distance evaluations — and shares one
/// [`PlacedObject::world_sdf`](crate::scene::PlacedObject) tree clone. Lane
/// independence of the packet ops keeps every normal bit-identical to the
/// scalar path regardless of how lanes are grouped.
fn resolve_packet_hits(
    scene: &Scene,
    pending: [Option<(f32, Vec3, usize)>; LANES],
) -> [Option<Hit>; LANES] {
    let mut hits = [None; LANES];
    let mut resolved = [false; LANES];
    for lane in 0..LANES {
        if resolved[lane] {
            continue;
        }
        let Some((_, point, id)) = pending[lane] else { continue };
        // Gather every later lane that hit the same object.
        let mut group = [lane; LANES];
        let mut points = [point; LANES];
        let mut count = 0;
        for (other, entry) in pending.iter().enumerate().skip(lane) {
            if let Some((_, other_point, other_id)) = entry {
                if !resolved[other] && *other_id == id {
                    group[count] = other;
                    points[count] = *other_point;
                    count += 1;
                }
            }
        }
        let sdf = scene.object(id).expect("validated during marching").world_sdf();
        let normals = sdf.normal_x4(Vec3x4::from_lanes(points));
        for (slot, &member) in group.iter().enumerate().take(count) {
            let (t, p, _) = pending[member].expect("grouped lanes are pending");
            hits[member] = Some(Hit { t, point: p, normal: normals.lane(slot), object_id: id });
            resolved[member] = true;
        }
    }
    hits
}

/// Computes the per-object world bounding boxes used by [`trace`].
pub fn object_boxes(scene: &Scene) -> Vec<Aabb> {
    scene.objects().iter().map(|o| o.world_bounding_box().inflate(1e-3)).collect()
}

/// Per-view primary-ray generator: hoists the camera basis out of the
/// per-pixel loop while producing rays bit-identical to [`primary_ray`].
#[derive(Debug, Clone, Copy)]
pub struct PrimaryRays {
    cam: Mat4,
    eye: Vec3,
    aspect: f32,
    tan_half: f32,
    width: usize,
    height: usize,
}

impl PrimaryRays {
    /// Prepares the generator for one pose and viewport.
    pub fn new(pose: &CameraPose, width: usize, height: usize) -> Self {
        Self {
            cam: camera_to_world(pose.eye, pose.target, pose.up),
            eye: pose.eye,
            aspect: width as f32 / height as f32,
            tan_half: (pose.fov_y * 0.5).tan(),
            width,
            height,
        }
    }

    /// The primary ray through pixel `(x, y)`.
    pub fn ray(&self, x: usize, y: usize) -> Ray {
        // Pixel centre in NDC, then into camera space on the z = -1 plane.
        let ndc_x = (x as f32 + 0.5) / self.width as f32 * 2.0 - 1.0;
        let ndc_y = 1.0 - (y as f32 + 0.5) / self.height as f32 * 2.0;
        let dir_cam = Vec3::new(ndc_x * self.tan_half * self.aspect, ndc_y * self.tan_half, -1.0);
        let dir_world = self.cam.transform_direction(dir_cam).normalized();
        Ray::new(self.eye, dir_world)
    }
}

/// Generates the primary ray through pixel `(x, y)` of a `width × height`
/// image for the given pose.
pub fn primary_ray(pose: &CameraPose, x: usize, y: usize, width: usize, height: usize) -> Ray {
    PrimaryRays::new(pose, width, height).ray(x, y)
}

/// The sphere-tracing distance cap for a scene viewed from `eye`.
fn view_max_distance(scene: &Scene, eye: Vec3) -> f32 {
    let scene_box = scene.bounding_box();
    if scene_box.is_empty() {
        20.0
    } else {
        eye.distance(scene_box.center()) + scene_box.diagonal() + 1.0
    }
}

/// Shades one pixel from its packet/scalar trace result.
fn shade_pixel(scene: &Scene, ray: &Ray, hit: Option<Hit>) -> (Color, Option<usize>) {
    match hit {
        Some(hit) => {
            let obj = scene.object(hit.object_id).expect("hit references a valid object");
            (shade(obj.albedo(hit.point, hit.normal), hit.normal), Some(hit.object_id))
        }
        None => (background(ray.direction), None),
    }
}

/// Renders the rows `y0..y1` into row-major colour/instance buffers, with
/// four-ray packets across each row and a scalar tail. The packet/scalar
/// split never changes output bits (each packet lane is the exact scalar
/// trace/shade of that pixel).
fn render_rows(
    scene: &Scene,
    boxes: &[Aabb],
    rays: &PrimaryRays,
    width: usize,
    y0: usize,
    y1: usize,
    max_distance: f32,
) -> (Vec<Color>, Vec<Option<usize>>) {
    let mut colors = Vec::with_capacity((y1 - y0) * width);
    let mut instances = Vec::with_capacity((y1 - y0) * width);
    for y in y0..y1 {
        let mut x = 0;
        while x + LANES <= width {
            let packet: [Ray; LANES] = std::array::from_fn(|i| rays.ray(x + i, y));
            let hits = trace_packet(scene, boxes, &packet, max_distance, Mask4::ALL);
            // Albedo lookups stay scalar (appearance is data-dependent); the
            // Lambert term runs on lanes via `shade_x4`. Miss lanes carry a
            // zero normal/albedo and are replaced by the background below.
            let mut albedos = [Color::BLACK; LANES];
            let mut normals = [Vec3::ZERO; LANES];
            for lane in 0..LANES {
                if let Some(hit) = hits[lane] {
                    let obj = scene.object(hit.object_id).expect("hit references a valid object");
                    albedos[lane] = obj.albedo(hit.point, hit.normal);
                    normals[lane] = hit.normal;
                }
            }
            let shaded = shade_x4(albedos, Vec3x4::from_lanes(normals));
            for lane in 0..LANES {
                match hits[lane] {
                    Some(hit) => {
                        colors.push(shaded[lane]);
                        instances.push(Some(hit.object_id));
                    }
                    None => {
                        colors.push(background(packet[lane].direction));
                        instances.push(None);
                    }
                }
            }
            x += LANES;
        }
        // Scalar fallback for the leftover pixels of the row.
        while x < width {
            let ray = rays.ray(x, y);
            let hit = trace(scene, boxes, &ray, max_distance);
            let (color, id) = shade_pixel(scene, &ray, hit);
            colors.push(color);
            instances.push(id);
            x += 1;
        }
    }
    (colors, instances)
}

/// Renders a ground-truth view of the scene, returning the image and the
/// per-pixel instance map (which object, if any, covers each pixel).
///
/// This is the sequential entry point (`workers = 1`); see
/// [`render_view_parallel`] for the tiled multi-worker path, which produces
/// bit-identical output.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn render_view(
    scene: &Scene,
    pose: &CameraPose,
    width: usize,
    height: usize,
) -> (Image, Vec<Option<usize>>) {
    render_view_parallel(scene, pose, width, height, 1)
}

/// [`render_view`] with the row tiles fanned over `workers` pool threads
/// (`0` = one per core, `1` = the sequential path). Output is bit-for-bit
/// identical for every worker count.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn render_view_parallel(
    scene: &Scene,
    pose: &CameraPose,
    width: usize,
    height: usize,
    workers: usize,
) -> (Image, Vec<Option<usize>>) {
    render_view_tiled(scene, pose, width, height, workers, DEFAULT_TILE_ROWS)
}

/// [`render_view_parallel`] with an explicit tile height (rows per job);
/// `workers` follows the same convention (`0` = one per core). Exposed so
/// tests can assert the determinism contract across tile sizes; output is
/// bit-for-bit identical for every `(workers, tile_rows)` pair.
///
/// # Panics
///
/// Panics if either dimension or `tile_rows` is zero.
pub fn render_view_tiled(
    scene: &Scene,
    pose: &CameraPose,
    width: usize,
    height: usize,
    workers: usize,
    tile_rows: usize,
) -> (Image, Vec<Option<usize>>) {
    assert!(width > 0 && height > 0, "render target must be non-zero");
    assert!(tile_rows > 0, "tile height must be non-zero");
    let boxes = object_boxes(scene);
    let max_distance = view_max_distance(scene, pose.eye);
    let rays = PrimaryRays::new(pose, width, height);
    let jobs = height.div_ceil(tile_rows);
    let workers = match workers {
        0 => default_workers(jobs),
        n => n,
    };
    let tiles = parallel_map(jobs, workers, |job| {
        let y0 = job * tile_rows;
        let y1 = (y0 + tile_rows).min(height);
        render_rows(scene, &boxes, &rays, width, y0, y1, max_distance)
    });

    // Stitch the tiles back in job order (deterministic regardless of
    // which worker rendered which tile).
    let mut image = Image::new(width, height, Color::BLACK);
    let mut instance_map = vec![None; width * height];
    for (job, (colors, instances)) in tiles.into_iter().enumerate() {
        let y0 = job * tile_rows;
        for (offset, (color, id)) in colors.into_iter().zip(instances).enumerate() {
            let (x, y) = (offset % width, y0 + offset / width);
            image.set(x, y, color);
            instance_map[y * width + x] = id;
        }
    }
    (image, instance_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera_path::orbit_path;
    use crate::object::CanonicalObject;

    fn small_scene() -> Scene {
        Scene::with_objects(&[CanonicalObject::Hotdog], 1)
    }

    #[test]
    fn trace_hits_object_in_front_of_camera() {
        let scene = small_scene();
        let boxes = object_boxes(&scene);
        let center = scene.bounding_box().center();
        let eye = center + Vec3::new(0.0, 0.2, 3.0);
        let ray = Ray::new(eye, center - eye);
        let hit = trace(&scene, &boxes, &ray, 50.0).expect("should hit the hotdog");
        assert_eq!(hit.object_id, 0);
        assert!(hit.t > 1.0 && hit.t < 5.0);
        assert!((hit.normal.length() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn trace_misses_empty_direction() {
        let scene = small_scene();
        let boxes = object_boxes(&scene);
        let ray = Ray::new(Vec3::new(0.0, 5.0, 5.0), Vec3::Y);
        assert!(trace(&scene, &boxes, &ray, 50.0).is_none());
    }

    #[test]
    fn packet_trace_is_bit_identical_to_scalar_trace() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 4);
        let boxes = object_boxes(&scene);
        let pose = orbit_path(scene.bounding_box().center(), 3.0, 0.4, 5)[2];
        let rays = PrimaryRays::new(&pose, 24, 24);
        let max_distance = view_max_distance(&scene, pose.eye);
        for y in 0..24 {
            for x0 in (0..24).step_by(LANES) {
                let packet = [
                    rays.ray(x0, y),
                    rays.ray(x0 + 1, y),
                    rays.ray(x0 + 2, y),
                    rays.ray(x0 + 3, y),
                ];
                let packed = trace_packet(&scene, &boxes, &packet, max_distance, Mask4::ALL);
                for lane in 0..LANES {
                    let scalar = trace(&scene, &boxes, &packet[lane], max_distance);
                    match (packed[lane], scalar) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.t.to_bits(), b.t.to_bits(), "t at ({x0}+{lane},{y})");
                            assert_eq!(a.point, b.point);
                            assert_eq!(a.normal, b.normal);
                            assert_eq!(a.object_id, b.object_id);
                        }
                        (a, b) => panic!("hit mismatch at ({x0}+{lane},{y}): {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn inactive_packet_lanes_stay_none() {
        let scene = small_scene();
        let boxes = object_boxes(&scene);
        let center = scene.bounding_box().center();
        let eye = center + Vec3::new(0.0, 0.2, 3.0);
        let ray = Ray::new(eye, center - eye);
        let hits = trace_packet(
            &scene,
            &boxes,
            &[ray, ray, ray, ray],
            50.0,
            Mask4([true, false, true, false]),
        );
        assert!(hits[0].is_some() && hits[2].is_some());
        assert!(hits[1].is_none() && hits[3].is_none());
    }

    #[test]
    fn primary_rays_match_the_free_function() {
        let pose = CameraPose::new(Vec3::new(0.0, 1.0, 4.0), Vec3::ZERO, 55.0f32.to_radians());
        let gen = PrimaryRays::new(&pose, 31, 17);
        for (x, y) in [(0, 0), (30, 16), (15, 8), (7, 11)] {
            let a = gen.ray(x, y);
            let b = primary_ray(&pose, x, y, 31, 17);
            assert_eq!(a.origin, b.origin);
            assert_eq!(a.direction, b.direction);
        }
    }

    #[test]
    fn parallel_and_tiled_renders_are_bit_identical() {
        // The determinism contract: worker count, tile height and the
        // packet/scalar split (exercised by the odd width) never change a
        // single output bit.
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 4);
        let pose = orbit_path(scene.bounding_box().center(), 3.0, 0.4, 6)[1];
        let (reference, reference_map) = render_view(&scene, &pose, 33, 29);
        for (workers, tile_rows) in [(1, 1), (2, 3), (3, 8), (5, 64), (0, 4)] {
            let (img, map) = render_view_tiled(&scene, &pose, 33, 29, workers, tile_rows);
            assert_eq!(img, reference, "workers={workers} tile_rows={tile_rows}");
            assert_eq!(map, reference_map, "workers={workers} tile_rows={tile_rows}");
        }
        let (img, map) = render_view_parallel(&scene, &pose, 33, 29, 0);
        assert_eq!(img, reference);
        assert_eq!(map, reference_map);
    }

    #[test]
    fn rendered_view_contains_object_and_background() {
        let scene = small_scene();
        let pose = orbit_path(scene.bounding_box().center(), 2.5, 0.4, 8)[0];
        let (img, instances) = render_view(&scene, &pose, 48, 48);
        assert_eq!(img.width(), 48);
        let covered = instances.iter().filter(|i| i.is_some()).count();
        assert!(covered > 50, "object not visible: {covered} pixels");
        assert!(covered < 48 * 48, "object fills the whole frame");
        // All covered pixels reference object 0.
        assert!(instances.iter().flatten().all(|&id| id == 0));
    }

    #[test]
    fn instance_map_separates_two_objects() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 4);
        let pose = CameraPose::new(
            scene.bounding_box().center() + Vec3::new(0.0, 2.2, 4.5),
            scene.bounding_box().center(),
            60.0f32.to_radians(),
        );
        let (_, instances) = render_view(&scene, &pose, 64, 64);
        let mut seen = std::collections::HashSet::new();
        for id in instances.iter().flatten() {
            seen.insert(*id);
        }
        assert!(seen.contains(&0) && seen.contains(&1), "both objects visible: {seen:?}");
    }

    #[test]
    fn shade_x4_is_bit_identical_to_scalar_shade() {
        let albedos = [
            Color::new(0.8, 0.2, 0.1),
            Color::gray(0.5),
            Color::new(0.05, 0.9, 0.4),
            Color::new(1.0, 1.0, 0.0),
        ];
        let normals = [
            Vec3::new(0.5, 0.8, 0.3).normalized(),
            Vec3::new(-0.6, 0.4, -0.5).normalized(),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::ZERO, // degenerate (miss-lane padding) must not poison others
        ];
        let packed = shade_x4(albedos, Vec3x4::from_lanes(normals));
        for lane in 0..LANES {
            let scalar = shade(albedos[lane], normals[lane]);
            assert_eq!(packed[lane].r.to_bits(), scalar.r.to_bits(), "lane {lane}");
            assert_eq!(packed[lane].g.to_bits(), scalar.g.to_bits(), "lane {lane}");
            assert_eq!(packed[lane].b.to_bits(), scalar.b.to_bits(), "lane {lane}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_shade_x4_matches_scalar_shade(
            nx in -1f32..1.0, ny in -1f32..1.0, nz in -1f32..1.0,
            r in 0f32..1.0, g in 0f32..1.0, b in 0f32..1.0,
        ) {
            let albedos = [
                Color::new(r, g, b),
                Color::new(g, b, r),
                Color::gray(r),
                Color::new(1.0 - r, 1.0 - g, 1.0 - b),
            ];
            let normals = [
                Vec3::new(nx, ny, nz).normalized(),
                Vec3::new(-nx, nz, ny).normalized(),
                Vec3::new(ny, -nz, nx).normalized(),
                Vec3::ZERO,
            ];
            let packed = shade_x4(albedos, Vec3x4::from_lanes(normals));
            for lane in 0..LANES {
                let scalar = shade(albedos[lane], normals[lane]);
                proptest::prop_assert_eq!(packed[lane].r.to_bits(), scalar.r.to_bits());
                proptest::prop_assert_eq!(packed[lane].g.to_bits(), scalar.g.to_bits());
                proptest::prop_assert_eq!(packed[lane].b.to_bits(), scalar.b.to_bits());
            }
        }
    }

    #[test]
    fn shading_is_brighter_for_light_facing_normals() {
        let albedo = Color::gray(0.8);
        let lit = shade(albedo, Vec3::new(0.5, 0.8, 0.3).normalized());
        let unlit = shade(albedo, Vec3::new(-0.5, -0.8, -0.3).normalized());
        assert!(lit.luminance() > unlit.luminance());
    }

    #[test]
    fn background_varies_with_elevation() {
        let up = background(Vec3::Y);
        let down = background(-Vec3::Y);
        assert_ne!(up, down);
    }
}
