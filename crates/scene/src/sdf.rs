//! Signed distance fields: primitives, CSG combinators and transforms.
//!
//! The scene substrate represents every object as an SDF tree. SDFs give us
//! (a) exact ground-truth renderings by sphere tracing, (b) an occupancy
//! oracle for the voxel-grid baking simulator, and (c) analytic normals —
//! everything the paper obtains from trained NeRF density fields.

use nerflex_math::{max, min, Aabb, F32x4, Vec3, Vec3x4};

/// A node in a signed-distance-field expression tree.
///
/// Distances are negative inside the surface, positive outside. All
/// primitives are centred at the origin; use [`Sdf::translated`],
/// [`Sdf::scaled`] and [`Sdf::rotated_y`] to place them.
#[derive(Debug, Clone)]
pub enum Sdf {
    /// Sphere of the given radius.
    Sphere {
        /// Radius.
        radius: f32,
    },
    /// Axis-aligned box with the given half-extents.
    Box {
        /// Half-extent along each axis.
        half_extent: Vec3,
    },
    /// Box with rounded edges.
    RoundedBox {
        /// Half-extent along each axis (before rounding).
        half_extent: Vec3,
        /// Rounding radius.
        radius: f32,
    },
    /// Capsule (line segment with radius) from `a` to `b`.
    Capsule {
        /// First endpoint.
        a: Vec3,
        /// Second endpoint.
        b: Vec3,
        /// Radius.
        radius: f32,
    },
    /// Y-axis-aligned cylinder.
    Cylinder {
        /// Half height along Y.
        half_height: f32,
        /// Radius in the XZ plane.
        radius: f32,
    },
    /// Torus in the XZ plane.
    Torus {
        /// Distance from the centre to the tube centre.
        major_radius: f32,
        /// Tube radius.
        minor_radius: f32,
    },
    /// Ellipsoid with the given semi-axes (approximate distance).
    Ellipsoid {
        /// Semi-axis lengths.
        radii: Vec3,
    },
    /// Union (minimum) of the children.
    Union(Vec<Sdf>),
    /// Smooth union with blending radius `k`.
    SmoothUnion {
        /// Left operand.
        a: Box<Sdf>,
        /// Right operand.
        b: Box<Sdf>,
        /// Blend radius.
        k: f32,
    },
    /// Subtraction `a − b` (keeps `a` outside `b`).
    Subtract {
        /// Base shape.
        a: Box<Sdf>,
        /// Shape removed from `a`.
        b: Box<Sdf>,
    },
    /// Intersection (maximum) of the two children.
    Intersect {
        /// Left operand.
        a: Box<Sdf>,
        /// Right operand.
        b: Box<Sdf>,
    },
    /// Child translated by `offset`.
    Translate {
        /// Translation.
        offset: Vec3,
        /// Child node.
        child: Box<Sdf>,
    },
    /// Child scaled uniformly by `factor`.
    Scale {
        /// Uniform scale factor (must be positive).
        factor: f32,
        /// Child node.
        child: Box<Sdf>,
    },
    /// Child rotated by `angle` radians around the Y axis.
    RotateY {
        /// Rotation angle in radians.
        angle: f32,
        /// Child node.
        child: Box<Sdf>,
    },
    /// Sinusoidal surface displacement adding geometric detail of the given
    /// amplitude and spatial frequency (used to tune object complexity).
    Displace {
        /// Displacement amplitude.
        amplitude: f32,
        /// Spatial frequency of the displacement.
        frequency: f32,
        /// Child node.
        child: Box<Sdf>,
    },
}

impl Sdf {
    /// Signed distance from `p` to the surface.
    pub fn distance(&self, p: Vec3) -> f32 {
        match self {
            Sdf::Sphere { radius } => p.length() - radius,
            Sdf::Box { half_extent } => {
                let q = p.abs() - *half_extent;
                q.max(Vec3::ZERO).length() + min(q.max_component(), 0.0)
            }
            Sdf::RoundedBox { half_extent, radius } => {
                let q = p.abs() - *half_extent;
                q.max(Vec3::ZERO).length() + min(q.max_component(), 0.0) - radius
            }
            Sdf::Capsule { a, b, radius } => {
                let pa = p - *a;
                let ba = *b - *a;
                let h = (pa.dot(ba) / ba.dot(ba)).clamp(0.0, 1.0);
                (pa - ba * h).length() - radius
            }
            Sdf::Cylinder { half_height, radius } => {
                let d_xz = (p.x * p.x + p.z * p.z).sqrt() - radius;
                let d_y = p.y.abs() - half_height;
                let outside = Vec3::new(max(d_xz, 0.0), max(d_y, 0.0), 0.0).length();
                let inside = min(max(d_xz, d_y), 0.0);
                outside + inside
            }
            Sdf::Torus { major_radius, minor_radius } => {
                let q_x = (p.x * p.x + p.z * p.z).sqrt() - major_radius;
                (q_x * q_x + p.y * p.y).sqrt() - minor_radius
            }
            Sdf::Ellipsoid { radii } => {
                // Standard bound-preserving approximation.
                let k0 = Vec3::new(p.x / radii.x, p.y / radii.y, p.z / radii.z).length();
                let k1 = Vec3::new(
                    p.x / (radii.x * radii.x),
                    p.y / (radii.y * radii.y),
                    p.z / (radii.z * radii.z),
                )
                .length();
                if k1 < 1e-12 {
                    return -radii.min_component();
                }
                k0 * (k0 - 1.0) / k1
            }
            Sdf::Union(children) => children.iter().map(|c| c.distance(p)).fold(f32::INFINITY, min),
            Sdf::SmoothUnion { a, b, k } => {
                let da = a.distance(p);
                let db = b.distance(p);
                let h = (0.5 + 0.5 * (db - da) / k).clamp(0.0, 1.0);
                db + (da - db) * h - k * h * (1.0 - h)
            }
            Sdf::Subtract { a, b } => max(a.distance(p), -b.distance(p)),
            Sdf::Intersect { a, b } => max(a.distance(p), b.distance(p)),
            Sdf::Translate { offset, child } => child.distance(p - *offset),
            Sdf::Scale { factor, child } => child.distance(p / *factor) * *factor,
            Sdf::RotateY { angle, child } => {
                let (s, c) = (-angle).sin_cos();
                let q = Vec3::new(c * p.x + s * p.z, p.y, -s * p.x + c * p.z);
                child.distance(q)
            }
            Sdf::Displace { amplitude, frequency, child } => {
                let d = child.distance(p);
                let disp =
                    (p.x * frequency).sin() * (p.y * frequency).sin() * (p.z * frequency).sin();
                d + disp * amplitude
            }
        }
    }

    /// Four-lane signed distance: evaluates the tree for a packet of four
    /// points at once.
    ///
    /// # Determinism contract
    ///
    /// Every arm mirrors [`Sdf::distance`] operation for operation in the
    /// same association order (per-lane ops are the exact scalar IEEE-754
    /// ops — see [`nerflex_math::simd`]), so each lane's result is
    /// **bit-identical** to `self.distance(p.lane(i))`. The packet ray
    /// marcher relies on this to render the same image bits for any lane
    /// count; `prop_distance_x4_matches_scalar` asserts it over random
    /// points and a tree containing every node type.
    pub fn distance_x4(&self, p: Vec3x4) -> F32x4 {
        match self {
            Sdf::Sphere { radius } => p.length() - *radius,
            Sdf::Box { half_extent } => {
                let q = p.abs() - *half_extent;
                q.max_vec(Vec3::ZERO).length() + q.max_component().min(F32x4::ZERO)
            }
            Sdf::RoundedBox { half_extent, radius } => {
                let q = p.abs() - *half_extent;
                q.max_vec(Vec3::ZERO).length() + q.max_component().min(F32x4::ZERO) - *radius
            }
            Sdf::Capsule { a, b, radius } => {
                let pa = p - *a;
                let ba = *b - *a;
                let h = (pa.dot(Vec3x4::splat(ba)) / ba.dot(ba)).clamp(0.0, 1.0);
                (pa - Vec3x4::splat(ba) * h).length() - *radius
            }
            Sdf::Cylinder { half_height, radius } => {
                let d_xz = (p.x * p.x + p.z * p.z).sqrt() - *radius;
                let d_y = p.y.abs() - *half_height;
                let outside =
                    Vec3x4::new(d_xz.max(F32x4::ZERO), d_y.max(F32x4::ZERO), F32x4::ZERO).length();
                let inside = d_xz.max(d_y).min(F32x4::ZERO);
                outside + inside
            }
            Sdf::Torus { major_radius, minor_radius } => {
                let q_x = (p.x * p.x + p.z * p.z).sqrt() - *major_radius;
                (q_x * q_x + p.y * p.y).sqrt() - *minor_radius
            }
            Sdf::Ellipsoid { radii } => {
                let k0 = Vec3x4::new(p.x / radii.x, p.y / radii.y, p.z / radii.z).length();
                let k1 = Vec3x4::new(
                    p.x / (radii.x * radii.x),
                    p.y / (radii.y * radii.y),
                    p.z / (radii.z * radii.z),
                )
                .length();
                let near_center = k1.lt(F32x4::splat(1e-12));
                F32x4::splat(-radii.min_component()).select(k0 * (k0 - 1.0) / k1, near_center)
            }
            Sdf::Union(children) => children
                .iter()
                .map(|c| c.distance_x4(p))
                .fold(F32x4::splat(f32::INFINITY), F32x4::min),
            Sdf::SmoothUnion { a, b, k } => {
                let da = a.distance_x4(p);
                let db = b.distance_x4(p);
                let h = (((db - da) * 0.5) / *k + 0.5).clamp(0.0, 1.0);
                db + (da - db) * h - (h * *k) * (F32x4::splat(1.0) - h)
            }
            Sdf::Subtract { a, b } => a.distance_x4(p).max(-b.distance_x4(p)),
            Sdf::Intersect { a, b } => a.distance_x4(p).max(b.distance_x4(p)),
            Sdf::Translate { offset, child } => child.distance_x4(p - *offset),
            Sdf::Scale { factor, child } => child.distance_x4(p / *factor) * *factor,
            Sdf::RotateY { angle, child } => {
                let (s, c) = (-angle).sin_cos();
                let q = Vec3x4::new(p.x * c + p.z * s, p.y, p.x * -s + p.z * c);
                child.distance_x4(q)
            }
            Sdf::Displace { amplitude, frequency, child } => {
                let d = child.distance_x4(p);
                let disp =
                    (p.x * *frequency).sin() * (p.y * *frequency).sin() * (p.z * *frequency).sin();
                d + disp * *amplitude
            }
        }
    }

    /// Finite-difference step of [`Sdf::normal`] / [`Sdf::normal_x4`].
    const NORMAL_EPS: f32 = 1e-3;

    /// Surface normal estimated by central finite differences.
    pub fn normal(&self, p: Vec3) -> Vec3 {
        const EPS: f32 = Sdf::NORMAL_EPS;
        let dx = self.distance(p + Vec3::new(EPS, 0.0, 0.0))
            - self.distance(p - Vec3::new(EPS, 0.0, 0.0));
        let dy = self.distance(p + Vec3::new(0.0, EPS, 0.0))
            - self.distance(p - Vec3::new(0.0, EPS, 0.0));
        let dz = self.distance(p + Vec3::new(0.0, 0.0, EPS))
            - self.distance(p - Vec3::new(0.0, 0.0, EPS));
        Vec3::new(dx, dy, dz).normalized()
    }

    /// Four-lane surface normal: six packet distance evaluations instead of
    /// twenty-four scalar ones.
    ///
    /// Mirrors [`Sdf::normal`] operation for operation — the six offset
    /// probes go through [`Sdf::distance_x4`] (per-lane exact) and the final
    /// normalisation through [`Vec3x4::normalized`] — so each lane is
    /// **bit-identical** to `self.normal(p.lane(i))`. The packet ray
    /// marcher's hit resolution relies on this to keep packet renders
    /// bit-identical to scalar ones for any lane grouping.
    pub fn normal_x4(&self, p: Vec3x4) -> Vec3x4 {
        const EPS: f32 = Sdf::NORMAL_EPS;
        let probe = |offset: Vec3| {
            self.distance_x4(p + Vec3x4::splat(offset)) - self.distance_x4(p - offset)
        };
        let dx = probe(Vec3::new(EPS, 0.0, 0.0));
        let dy = probe(Vec3::new(0.0, EPS, 0.0));
        let dz = probe(Vec3::new(0.0, 0.0, EPS));
        Vec3x4::new(dx, dy, dz).normalized()
    }

    /// `true` when the point is inside (or on) the surface.
    pub fn contains(&self, p: Vec3) -> bool {
        self.distance(p) <= 0.0
    }

    /// Conservative axis-aligned bounding box of the surface, computed by
    /// recursion over the tree (displacement amplitudes inflate the box).
    pub fn bounding_box(&self) -> Aabb {
        match self {
            Sdf::Sphere { radius } => Aabb::new(Vec3::splat(-radius), Vec3::splat(*radius)),
            Sdf::Box { half_extent } => Aabb::new(-*half_extent, *half_extent),
            Sdf::RoundedBox { half_extent, radius } => {
                let e = *half_extent + Vec3::splat(*radius);
                Aabb::new(-e, e)
            }
            Sdf::Capsule { a, b, radius } => {
                Aabb::new(a.min(*b) - Vec3::splat(*radius), a.max(*b) + Vec3::splat(*radius))
            }
            Sdf::Cylinder { half_height, radius } => Aabb::new(
                Vec3::new(-radius, -half_height, -radius),
                Vec3::new(*radius, *half_height, *radius),
            ),
            Sdf::Torus { major_radius, minor_radius } => {
                let r = major_radius + minor_radius;
                Aabb::new(Vec3::new(-r, -minor_radius, -r), Vec3::new(r, *minor_radius, r))
            }
            Sdf::Ellipsoid { radii } => Aabb::new(-*radii, *radii),
            Sdf::Union(children) => {
                children.iter().map(Sdf::bounding_box).fold(Aabb::empty(), |acc, b| acc.union(&b))
            }
            Sdf::SmoothUnion { a, b, k } => a.bounding_box().union(&b.bounding_box()).inflate(*k),
            Sdf::Subtract { a, .. } => a.bounding_box(),
            Sdf::Intersect { a, b } => {
                let ba = a.bounding_box();
                let bb = b.bounding_box();
                Aabb::new(ba.min.max(bb.min), ba.max.min(bb.max))
            }
            Sdf::Translate { offset, child } => {
                let b = child.bounding_box();
                Aabb::new(b.min + *offset, b.max + *offset)
            }
            Sdf::Scale { factor, child } => {
                let b = child.bounding_box();
                Aabb::new(b.min * *factor, b.max * *factor)
            }
            Sdf::RotateY { child, .. } => {
                // Conservative: bound by the rotation-invariant enclosing box.
                let b = child.bounding_box();
                let r = b.max.abs().max(b.min.abs());
                let radius = (r.x * r.x + r.z * r.z).sqrt();
                Aabb::new(Vec3::new(-radius, b.min.y, -radius), Vec3::new(radius, b.max.y, radius))
            }
            Sdf::Displace { amplitude, child, .. } => child.bounding_box().inflate(amplitude.abs()),
        }
    }

    /// Wraps the node in a translation.
    pub fn translated(self, offset: Vec3) -> Self {
        Sdf::Translate { offset, child: Box::new(self) }
    }

    /// Wraps the node in a uniform scale.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not strictly positive.
    pub fn scaled(self, factor: f32) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Sdf::Scale { factor, child: Box::new(self) }
    }

    /// Wraps the node in a rotation around the Y axis.
    pub fn rotated_y(self, angle: f32) -> Self {
        Sdf::RotateY { angle, child: Box::new(self) }
    }

    /// Union with another node.
    pub fn union(self, other: Sdf) -> Self {
        Sdf::Union(vec![self, other])
    }

    /// Smooth union with another node.
    pub fn smooth_union(self, other: Sdf, k: f32) -> Self {
        Sdf::SmoothUnion { a: Box::new(self), b: Box::new(other), k }
    }

    /// Subtracts `other` from this node.
    pub fn subtract(self, other: Sdf) -> Self {
        Sdf::Subtract { a: Box::new(self), b: Box::new(other) }
    }

    /// Adds sinusoidal surface displacement.
    pub fn displaced(self, amplitude: f32, frequency: f32) -> Self {
        Sdf::Displace { amplitude, frequency, child: Box::new(self) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sphere_distance_is_exact() {
        let s = Sdf::Sphere { radius: 1.0 };
        assert!((s.distance(Vec3::new(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-6);
        assert!((s.distance(Vec3::ZERO) + 1.0).abs() < 1e-6);
        assert!(s.contains(Vec3::new(0.5, 0.0, 0.0)));
    }

    #[test]
    fn box_distance_inside_and_outside() {
        let b = Sdf::Box { half_extent: Vec3::splat(1.0) };
        assert!((b.distance(Vec3::new(3.0, 0.0, 0.0)) - 2.0).abs() < 1e-6);
        assert!(b.distance(Vec3::ZERO) < 0.0);
        // Corner distance follows the Euclidean metric.
        let d = b.distance(Vec3::new(2.0, 2.0, 2.0));
        assert!((d - 3.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn translation_and_scale_compose() {
        let s = Sdf::Sphere { radius: 1.0 }.scaled(2.0).translated(Vec3::new(5.0, 0.0, 0.0));
        assert!(s.contains(Vec3::new(5.0, 0.0, 0.0)));
        assert!(s.contains(Vec3::new(6.9, 0.0, 0.0)));
        assert!(!s.contains(Vec3::new(7.1, 0.0, 0.0)));
    }

    #[test]
    fn rotation_moves_features() {
        // A box elongated along X, rotated 90° about Y, becomes elongated along Z.
        let b = Sdf::Box { half_extent: Vec3::new(2.0, 0.5, 0.5) }
            .rotated_y(std::f32::consts::FRAC_PI_2);
        assert!(b.contains(Vec3::new(0.0, 0.0, 1.8)));
        assert!(!b.contains(Vec3::new(1.8, 0.0, 0.0)));
    }

    #[test]
    fn union_subtract_intersect_semantics() {
        let a = Sdf::Sphere { radius: 1.0 };
        let b = Sdf::Sphere { radius: 1.0 }.translated(Vec3::new(1.5, 0.0, 0.0));
        let union = a.clone().union(b.clone());
        assert!(union.contains(Vec3::ZERO));
        assert!(union.contains(Vec3::new(1.5, 0.0, 0.0)));
        let sub = a.clone().subtract(b.clone());
        assert!(sub.contains(Vec3::new(-0.5, 0.0, 0.0)));
        assert!(!sub.contains(Vec3::new(0.9, 0.0, 0.0)));
        let inter = Sdf::Intersect { a: Box::new(a), b: Box::new(b) };
        assert!(inter.contains(Vec3::new(0.75, 0.0, 0.0)));
        assert!(!inter.contains(Vec3::ZERO));
    }

    #[test]
    fn smooth_union_is_at_least_as_large_as_union() {
        let a = Sdf::Sphere { radius: 0.8 };
        let b = Sdf::Sphere { radius: 0.8 }.translated(Vec3::new(1.2, 0.0, 0.0));
        let hard = a.clone().union(b.clone());
        let smooth = a.smooth_union(b, 0.3);
        // Between the spheres the smooth union fills in material.
        let p = Vec3::new(0.6, 0.55, 0.0);
        assert!(smooth.distance(p) <= hard.distance(p) + 1e-6);
    }

    #[test]
    fn normals_point_outward() {
        let s = Sdf::Sphere { radius: 1.0 };
        let p = Vec3::new(0.0, 1.0, 0.0);
        let n = s.normal(p);
        assert!((n - Vec3::Y).length() < 1e-2);
    }

    #[test]
    fn bounding_box_encloses_surface() {
        let shape = Sdf::Cylinder { half_height: 1.0, radius: 0.5 }
            .union(Sdf::Torus { major_radius: 1.0, minor_radius: 0.2 })
            .translated(Vec3::new(0.0, 2.0, 0.0));
        let bb = shape.bounding_box();
        // Sample points on the surface by projecting grid points; all inside the box.
        for i in 0..100 {
            let p = Vec3::new(
                (i % 10) as f32 * 0.3 - 1.5,
                2.0 + ((i / 10) % 10) as f32 * 0.3 - 1.5,
                ((i * 7) % 10) as f32 * 0.3 - 1.5,
            );
            if shape.contains(p) {
                assert!(bb.contains(p), "{p:?} outside {bb:?}");
            }
        }
    }

    #[test]
    fn displacement_changes_surface_detail() {
        let smooth = Sdf::Sphere { radius: 1.0 };
        let rough = Sdf::Sphere { radius: 1.0 }.displaced(0.05, 20.0);
        // Displaced distances differ near the surface.
        let mut diff = 0.0;
        for i in 0..50 {
            let theta = i as f32 * 0.13;
            let p = Vec3::new(theta.cos(), 0.2, theta.sin());
            diff += (smooth.distance(p) - rough.distance(p)).abs();
        }
        assert!(diff > 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = Sdf::Sphere { radius: 1.0 }.scaled(0.0);
    }

    /// A tree exercising every [`Sdf`] node type at once.
    fn all_nodes_shape() -> Sdf {
        let base = Sdf::Sphere { radius: 0.8 }
            .smooth_union(Sdf::Box { half_extent: Vec3::new(0.7, 0.4, 0.5) }, 0.2)
            .union(
                Sdf::RoundedBox { half_extent: Vec3::splat(0.3), radius: 0.05 }
                    .translated(Vec3::new(1.2, 0.0, 0.0)),
            )
            .union(Sdf::Capsule {
                a: Vec3::new(-0.5, -0.5, 0.0),
                b: Vec3::new(0.5, 0.7, 0.2),
                radius: 0.2,
            })
            .union(Sdf::Cylinder { half_height: 0.6, radius: 0.25 }.rotated_y(0.7))
            .union(Sdf::Torus { major_radius: 0.9, minor_radius: 0.15 })
            .union(Sdf::Ellipsoid { radii: Vec3::new(0.9, 0.5, 0.6) }.scaled(0.8))
            .subtract(Sdf::Sphere { radius: 0.3 }.translated(Vec3::new(0.2, 0.2, 0.2)));
        let carved = Sdf::Intersect {
            a: Box::new(base),
            b: Box::new(Sdf::Box { half_extent: Vec3::splat(2.5) }),
        };
        carved.displaced(0.03, 7.0)
    }

    #[test]
    fn distance_x4_matches_scalar_on_every_node_type() {
        let shape = all_nodes_shape();
        let lanes = [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(-1.5, 0.8, -0.2),
            Vec3::new(2.0, -2.0, 2.0),
            Vec3::ZERO,
        ];
        let packed = shape.distance_x4(Vec3x4::from_lanes(lanes));
        for (lane, &p) in lanes.iter().enumerate() {
            assert_eq!(
                packed.lane(lane).to_bits(),
                shape.distance(p).to_bits(),
                "lane {lane} diverges from scalar at {p:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_distance_x4_matches_scalar(
            ax in -3f32..3.0, ay in -3f32..3.0, az in -3f32..3.0,
            bx in -3f32..3.0, by in -3f32..3.0, bz in -3f32..3.0,
        ) {
            // Lane evaluation is bit-identical to scalar evaluation — the
            // determinism contract the packet ray marcher builds on.
            let shape = all_nodes_shape();
            let lanes = [
                Vec3::new(ax, ay, az),
                Vec3::new(bx, by, bz),
                Vec3::new(ay, bz, ax),
                Vec3::new(-bx, -ay, az),
            ];
            let packed = shape.distance_x4(Vec3x4::from_lanes(lanes));
            for (lane, &p) in lanes.iter().enumerate() {
                prop_assert_eq!(packed.lane(lane).to_bits(), shape.distance(p).to_bits());
            }
        }

        #[test]
        fn prop_normal_x4_matches_scalar(
            ax in -2f32..2.0, ay in -2f32..2.0, az in -2f32..2.0,
            bx in -2f32..2.0, by in -2f32..2.0, bz in -2f32..2.0,
        ) {
            // Packetised normal estimation is bit-identical to the scalar
            // finite-difference path on every lane — the contract that lets
            // the packet ray marcher resolve hits in groups.
            let shape = all_nodes_shape();
            let lanes = [
                Vec3::new(ax, ay, az),
                Vec3::new(bx, by, bz),
                Vec3::new(bz, ax, -by),
                Vec3::new(-ay, bx, az),
            ];
            let packed = shape.normal_x4(Vec3x4::from_lanes(lanes));
            for (lane, &p) in lanes.iter().enumerate() {
                let scalar = shape.normal(p);
                prop_assert_eq!(packed.lane(lane).x.to_bits(), scalar.x.to_bits());
                prop_assert_eq!(packed.lane(lane).y.to_bits(), scalar.y.to_bits());
                prop_assert_eq!(packed.lane(lane).z.to_bits(), scalar.z.to_bits());
            }
        }

        #[test]
        fn prop_distance_sign_matches_contains(px in -3f32..3.0, py in -3f32..3.0, pz in -3f32..3.0) {
            let shape = Sdf::RoundedBox { half_extent: Vec3::new(1.0, 0.6, 0.8), radius: 0.1 };
            let p = Vec3::new(px, py, pz);
            prop_assert_eq!(shape.contains(p), shape.distance(p) <= 0.0);
        }

        #[test]
        fn prop_scaled_distance_scales(px in -3f32..3.0, py in -3f32..3.0, pz in -3f32..3.0, s in 0.5f32..3.0) {
            let base = Sdf::Sphere { radius: 1.0 };
            let scaled = base.clone().scaled(s);
            let p = Vec3::new(px, py, pz);
            let expected = base.distance(p / s) * s;
            prop_assert!((scaled.distance(p) - expected).abs() < 1e-4);
        }
    }
}
