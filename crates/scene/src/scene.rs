//! Scene composition: placed objects with instance identifiers.

use crate::appearance::Appearance;
use crate::object::{random_object, CanonicalObject, ObjectModel};
use crate::sdf::Sdf;
use nerflex_math::simd::LANES;
use nerflex_math::{Aabb, F32x4, Mask4, Vec3, Vec3x4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One object placed in a scene: a model plus a rigid placement and an
/// instance identifier used for per-pixel instance maps.
#[derive(Debug, Clone)]
pub struct PlacedObject {
    /// Instance identifier (index into [`Scene::objects`]).
    pub id: usize,
    /// Object geometry and appearance in its local frame.
    pub model: ObjectModel,
    /// Translation applied to the local frame.
    pub translation: Vec3,
    /// Uniform scale applied to the local frame.
    pub scale: f32,
    /// Rotation around the Y axis (radians), applied before translation.
    pub rotation_y: f32,
}

impl PlacedObject {
    /// The object's SDF expressed in world coordinates.
    pub fn world_sdf(&self) -> Sdf {
        self.model
            .sdf
            .clone()
            .rotated_y(self.rotation_y)
            .scaled(self.scale)
            .translated(self.translation)
    }

    /// Signed distance from a world-space point to this object's surface.
    pub fn distance(&self, p_world: Vec3) -> f32 {
        // Inline inverse transform instead of rebuilding the SDF tree per query.
        let local = self.to_local(p_world);
        self.model.sdf.distance(local) * self.scale
    }

    /// Transforms a world-space point into the object's local frame.
    pub fn to_local(&self, p_world: Vec3) -> Vec3 {
        let p = (p_world - self.translation) / self.scale;
        let (s, c) = self.rotation_y.sin_cos();
        Vec3::new(c * p.x - s * p.z, p.y, s * p.x + c * p.z)
    }

    /// Four-lane [`PlacedObject::distance`]: each lane is bit-identical to
    /// the scalar call on that lane's point (see [`Sdf::distance_x4`]).
    pub fn distance_x4(&self, p_world: Vec3x4) -> F32x4 {
        let p = (p_world - self.translation) / self.scale;
        let (s, c) = self.rotation_y.sin_cos();
        let local = Vec3x4::new(p.x * c - p.z * s, p.y, p.x * s + p.z * c);
        self.model.sdf.distance_x4(local) * self.scale
    }

    /// World-space axis-aligned bounding box (conservative).
    pub fn world_bounding_box(&self) -> Aabb {
        self.world_sdf().bounding_box()
    }

    /// Surface albedo for a world-space point and normal.
    pub fn albedo(&self, p_world: Vec3, n_world: Vec3) -> nerflex_image::Color {
        let local = self.to_local(p_world);
        // Normals are rotation-invariant under uniform scale; rotate into local frame.
        let (s, c) = self.rotation_y.sin_cos();
        let n_local =
            Vec3::new(c * n_world.x - s * n_world.z, n_world.y, s * n_world.x + c * n_world.z);
        self.model.appearance.albedo(local, n_local)
    }

    /// The object's appearance.
    pub fn appearance(&self) -> &Appearance {
        &self.model.appearance
    }
}

/// A scene: a list of placed objects over a neutral ground plane.
#[derive(Debug, Clone, Default)]
pub struct Scene {
    objects: Vec<PlacedObject>,
}

impl Scene {
    /// Creates an empty scene.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a scene from the given canonical objects, laid out on a circle
    /// so they do not overlap. `seed` controls the (deterministic) jitter of
    /// placements and orientations.
    pub fn with_objects(objects: &[CanonicalObject], seed: u64) -> Self {
        let models: Vec<ObjectModel> = objects.iter().map(|o| o.build()).collect();
        Self::from_models(models, seed)
    }

    /// Builds a scene of `count` randomised filler objects (the paper's
    /// "randomly selected" Scene 3 flavour when canonical objects are not
    /// explicitly requested).
    pub fn random(count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<ObjectModel> = (0..count).map(|i| random_object(&mut rng, i)).collect();
        Self::from_models(models, seed ^ 0x9e37_79b9)
    }

    /// Builds a scene from explicit models, arranging them on a circle.
    pub fn from_models(models: Vec<ObjectModel>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = models.len();
        let radius = if n <= 1 { 0.0 } else { 0.9 + 0.28 * n as f32 };
        let objects = models
            .into_iter()
            .enumerate()
            .map(|(i, model)| {
                let angle = i as f32 / n.max(1) as f32 * std::f32::consts::TAU;
                let jitter = rng.gen_range(-0.1..0.1f32);
                PlacedObject {
                    id: i,
                    model,
                    translation: Vec3::new(
                        (radius + jitter) * angle.cos(),
                        0.0,
                        (radius + jitter) * angle.sin(),
                    ),
                    scale: 1.0,
                    rotation_y: rng.gen_range(0.0..std::f32::consts::TAU),
                }
            })
            .collect();
        Self { objects }
    }

    /// Adds a placed object and returns its instance id.
    pub fn push(
        &mut self,
        model: ObjectModel,
        translation: Vec3,
        scale: f32,
        rotation_y: f32,
    ) -> usize {
        let id = self.objects.len();
        self.objects.push(PlacedObject { id, model, translation, scale, rotation_y });
        id
    }

    /// The placed objects.
    pub fn objects(&self) -> &[PlacedObject] {
        &self.objects
    }

    /// The placed object with the given instance id.
    pub fn object(&self, id: usize) -> Option<&PlacedObject> {
        self.objects.get(id)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the scene has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Bounding box of all objects.
    pub fn bounding_box(&self) -> Aabb {
        self.objects
            .iter()
            .map(PlacedObject::world_bounding_box)
            .fold(Aabb::empty(), |acc, b| acc.union(&b))
    }

    /// Distance from `p` to the nearest object surface, and that object's id.
    ///
    /// Returns `(f32::INFINITY, None)` for an empty scene.
    pub fn distance(&self, p: Vec3) -> (f32, Option<usize>) {
        let mut best = f32::INFINITY;
        let mut best_id = None;
        for obj in &self.objects {
            let d = obj.distance(p);
            if d < best {
                best = d;
                best_id = Some(obj.id);
            }
        }
        (best, best_id)
    }

    /// Distance from `p` to the nearest surface, skipping objects whose
    /// bounding box is already farther than `cutoff` (a cheap lower bound
    /// used by the ray marcher to avoid evaluating every SDF tree).
    pub fn distance_bounded(&self, p: Vec3, boxes: &[Aabb], cutoff: f32) -> (f32, Option<usize>) {
        debug_assert_eq!(boxes.len(), self.objects.len());
        let mut best = cutoff;
        let mut best_id = None;
        for (obj, bb) in self.objects.iter().zip(boxes) {
            // Lower bound on the object's distance: distance to its AABB.
            let clamped = p.max(bb.min).min(bb.max);
            let lower = (p - clamped).length();
            if lower > best {
                continue;
            }
            let d = obj.distance(p);
            if d < best {
                best = d;
                best_id = Some(obj.id);
            }
        }
        (best, best_id)
    }

    /// Four-lane [`Scene::distance_bounded`] with an infinite cutoff: the
    /// nearest-surface distance and object id for a packet of four points.
    ///
    /// Lanes where `active` is clear are never evaluated or updated (they
    /// return `f32::INFINITY` / `None`). The AABB lower-bound rejection runs
    /// on lanes: an object is skipped entirely when every active lane's
    /// bound already exceeds its running best, and the per-lane update uses
    /// exactly the scalar comparisons — so each active lane's result is
    /// bit-identical to `self.distance_bounded(p.lane(i), boxes,
    /// f32::INFINITY)`.
    pub fn distance_bounded_x4(
        &self,
        p: Vec3x4,
        boxes: &[Aabb],
        active: Mask4,
    ) -> (F32x4, [Option<usize>; LANES]) {
        debug_assert_eq!(boxes.len(), self.objects.len());
        let mut best = F32x4::splat(f32::INFINITY);
        let mut best_id = [None; LANES];
        for (obj, bb) in self.objects.iter().zip(boxes) {
            // Lower bound on the object's distance: distance to its AABB.
            let clamped = p.max_vec(bb.min).min_vec(bb.max);
            let lower = (p - clamped).length();
            let consider = lower.le(best).and(active);
            if !consider.any() {
                continue;
            }
            let d = obj.distance_x4(p);
            let update = d.lt(best).and(consider);
            best = d.select(best, update);
            for (lane, id) in best_id.iter_mut().enumerate() {
                if update.lane(lane) {
                    *id = Some(obj.id);
                }
            }
        }
        (best, best_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_layout_separates_objects() {
        let scene = Scene::with_objects(&CanonicalObject::ALL, 1);
        assert_eq!(scene.len(), 5);
        // Pairwise translation distances exceed a minimum separation.
        for i in 0..5 {
            for j in (i + 1)..5 {
                let d = scene.objects()[i].translation.distance(scene.objects()[j].translation);
                assert!(d > 1.0, "objects {i} and {j} too close: {d}");
            }
        }
    }

    #[test]
    fn distance_identifies_nearest_object() {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 3);
        let near_first = scene.objects()[0].translation + Vec3::new(0.0, 0.2, 0.0);
        let (_, id) = scene.distance(near_first);
        assert_eq!(id, Some(0));
        let near_second = scene.objects()[1].translation + Vec3::new(0.0, 0.4, 0.0);
        let (_, id) = scene.distance(near_second);
        assert_eq!(id, Some(1));
    }

    #[test]
    fn bounded_distance_matches_exact_distance() {
        let scene = Scene::with_objects(&CanonicalObject::ALL, 5);
        let boxes: Vec<Aabb> =
            scene.objects().iter().map(|o| o.world_bounding_box().inflate(1e-3)).collect();
        for i in 0..50 {
            let p =
                Vec3::new((i % 7) as f32 - 3.0, (i % 3) as f32 * 0.5, ((i * 3) % 9) as f32 - 4.0);
            let (d_exact, _) = scene.distance(p);
            let (d_bounded, _) = scene.distance_bounded(p, &boxes, f32::INFINITY);
            assert!((d_exact - d_bounded).abs() < 1e-4, "mismatch at {p:?}");
        }
    }

    #[test]
    fn lane_bounded_distance_is_bit_identical_to_scalar() {
        let scene = Scene::with_objects(&CanonicalObject::ALL, 7);
        let boxes: Vec<Aabb> =
            scene.objects().iter().map(|o| o.world_bounding_box().inflate(1e-3)).collect();
        for i in 0..25 {
            let lanes = [
                Vec3::new(i as f32 * 0.31 - 3.0, (i % 4) as f32 * 0.4, (i % 5) as f32 - 2.0),
                Vec3::new(0.0, 0.5 + i as f32 * 0.1, -1.0),
                Vec3::new(-2.0 + i as f32 * 0.2, 0.0, 2.0 - i as f32 * 0.15),
                Vec3::new(1.0, 1.0, 1.0),
            ];
            let (d4, ids) =
                scene.distance_bounded_x4(Vec3x4::from_lanes(lanes), &boxes, Mask4::ALL);
            for lane in 0..LANES {
                let (d, id) = scene.distance_bounded(lanes[lane], &boxes, f32::INFINITY);
                assert_eq!(d4.lane(lane).to_bits(), d.to_bits(), "lane {lane} at {lanes:?}");
                assert_eq!(ids[lane], id);
            }
        }
        // Inactive lanes are never evaluated.
        let (d4, ids) = scene.distance_bounded_x4(
            Vec3x4::splat(Vec3::ZERO),
            &boxes,
            Mask4([true, false, true, false]),
        );
        assert!(d4.lane(1).is_infinite() && ids[1].is_none());
        assert!(d4.lane(0).is_finite() && d4.lane(2).is_finite());
    }

    #[test]
    fn empty_scene_reports_infinite_distance() {
        let scene = Scene::new();
        assert!(scene.is_empty());
        let (d, id) = scene.distance(Vec3::ZERO);
        assert_eq!(d, f32::INFINITY);
        assert_eq!(id, None);
        assert!(scene.bounding_box().is_empty());
    }

    #[test]
    fn random_scene_is_deterministic() {
        let a = Scene::random(4, 11);
        let b = Scene::random(4, 11);
        assert_eq!(a.len(), b.len());
        for (oa, ob) in a.objects().iter().zip(b.objects()) {
            assert_eq!(oa.translation, ob.translation);
            assert_eq!(oa.rotation_y, ob.rotation_y);
        }
    }

    #[test]
    fn world_sdf_agrees_with_fast_distance() {
        let scene = Scene::with_objects(&[CanonicalObject::Lego], 2);
        let obj = &scene.objects()[0];
        let world = obj.world_sdf();
        for i in 0..40 {
            let p = obj.translation
                + Vec3::new(
                    (i % 5) as f32 * 0.3 - 0.6,
                    (i % 4) as f32 * 0.25,
                    ((i * 2) % 5) as f32 * 0.3 - 0.6,
                );
            assert!((world.distance(p) - obj.distance(p)).abs() < 1e-4);
        }
    }
}
