//! SIMD-friendly lanes: the four-wide [`F32x4`] / [`Mask4`] / [`Vec3x4`]
//! packet every lane kernel runs on.
//!
//! The ray marcher sphere-traces four rays per packet; the SDF trees, the
//! AABB rejection tests, the fused metrics bands and the splat compositor
//! evaluate all four lanes at once through these types. They are plain
//! arrays with per-lane arithmetic — no intrinsics — so the code is portable
//! and the autovectoriser packs the lane loops into SSE/NEON registers where
//! available.
//!
//! # Determinism contract
//!
//! Every operation is defined *per lane* as exactly the scalar `f32`
//! operation it replaces (`+`, `*`, [`crate::min`], `f32::sqrt`, …), and the
//! compound helpers ([`Vec3x4::dot`], [`Vec3x4::max_component`], …) evaluate
//! in exactly the association order of their scalar counterparts in
//! [`crate::vec`]. IEEE-754 basic operations are exactly rounded, so a lane
//! computation is **bit-identical** to running the scalar code on that lane's
//! input — which is what lets the packet ray marcher guarantee images
//! bit-identical to the scalar path. Tests in `nerflex-scene` assert this end
//! to end; do not introduce `mul_add` or reassociation here.
//!
//! The repo-wide lane/tile/reduction-order contract — covering these lanes,
//! the worker-pool tiling and the fixed-shape tree reductions — is stated in
//! one place: `docs/determinism.md`.

use crate::vec::Vec3;

/// Number of lanes in a packet.
pub const LANES: usize = 4;

/// Packet width of the lane kernels. Every kernel runs four lanes
/// ([`LANES`]), so this has one value; the type stays only because callers
/// outside the workspace pass `MeasurementSettings::lane_width` through to
/// the metrics entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneWidth {
    /// Four lanes per packet.
    #[default]
    X4,
}

/// Four `f32` lanes with component-wise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32x4(pub [f32; 4]);

macro_rules! lanes {
    ($f:expr) => {{
        let f = $f;
        F32x4([f(0), f(1), f(2), f(3)])
    }};
}

impl F32x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self::splat(0.0);

    /// Broadcasts one value to every lane.
    pub const fn splat(v: f32) -> Self {
        Self([v; 4])
    }

    /// Builds from four lane values.
    pub const fn new(a: f32, b: f32, c: f32, d: f32) -> Self {
        Self([a, b, c, d])
    }

    /// The value in `lane`.
    #[inline]
    pub fn lane(self, lane: usize) -> f32 {
        self.0[lane]
    }

    /// Replaces the value in `lane`.
    #[inline]
    pub fn set_lane(&mut self, lane: usize, v: f32) {
        self.0[lane] = v;
    }

    /// Per-lane [`crate::min`]: ties (±0 included) keep `self`, and a NaN
    /// lane yields the other operand's lane.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        lanes!(|i: usize| crate::min(self.0[i], o.0[i]))
    }

    /// Per-lane [`crate::max`], with the tie and NaN rules of
    /// [`F32x4::min`].
    #[inline]
    pub fn max(self, o: Self) -> Self {
        lanes!(|i: usize| crate::max(self.0[i], o.0[i]))
    }

    /// Per-lane absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        lanes!(|i: usize| self.0[i].abs())
    }

    /// Per-lane square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        lanes!(|i: usize| self.0[i].sqrt())
    }

    /// Per-lane sine.
    #[inline]
    pub fn sin(self) -> Self {
        lanes!(|i: usize| self.0[i].sin())
    }

    /// Per-lane `f32::clamp` (callers guarantee `lo <= hi`).
    #[inline]
    pub fn clamp(self, lo: f32, hi: f32) -> Self {
        lanes!(|i: usize| self.0[i].clamp(lo, hi))
    }

    /// Per-lane `self < o`.
    #[inline]
    pub fn lt(self, o: Self) -> Mask4 {
        Mask4([self.0[0] < o.0[0], self.0[1] < o.0[1], self.0[2] < o.0[2], self.0[3] < o.0[3]])
    }

    /// Per-lane `self <= o`.
    #[inline]
    pub fn le(self, o: Self) -> Mask4 {
        Mask4([self.0[0] <= o.0[0], self.0[1] <= o.0[1], self.0[2] <= o.0[2], self.0[3] <= o.0[3]])
    }

    /// Per-lane `self > o`.
    #[inline]
    pub fn gt(self, o: Self) -> Mask4 {
        Mask4([self.0[0] > o.0[0], self.0[1] > o.0[1], self.0[2] > o.0[2], self.0[3] > o.0[3]])
    }

    /// Per-lane selection: `mask ? self : other`.
    #[inline]
    pub fn select(self, other: Self, mask: Mask4) -> Self {
        lanes!(|i: usize| if mask.0[i] { self.0[i] } else { other.0[i] })
    }
}

impl std::ops::Add for F32x4 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        lanes!(|i: usize| self.0[i] + o.0[i])
    }
}

impl std::ops::Sub for F32x4 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        lanes!(|i: usize| self.0[i] - o.0[i])
    }
}

impl std::ops::Mul for F32x4 {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        lanes!(|i: usize| self.0[i] * o.0[i])
    }
}

impl std::ops::Div for F32x4 {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        lanes!(|i: usize| self.0[i] / o.0[i])
    }
}

impl std::ops::Neg for F32x4 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        lanes!(|i: usize| -self.0[i])
    }
}

impl std::ops::Add<f32> for F32x4 {
    type Output = Self;
    #[inline]
    fn add(self, s: f32) -> Self {
        lanes!(|i: usize| self.0[i] + s)
    }
}

impl std::ops::Sub<f32> for F32x4 {
    type Output = Self;
    #[inline]
    fn sub(self, s: f32) -> Self {
        lanes!(|i: usize| self.0[i] - s)
    }
}

impl std::ops::Mul<f32> for F32x4 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        lanes!(|i: usize| self.0[i] * s)
    }
}

impl std::ops::Div<f32> for F32x4 {
    type Output = Self;
    #[inline]
    fn div(self, s: f32) -> Self {
        lanes!(|i: usize| self.0[i] / s)
    }
}

/// Four boolean lanes (comparison results, active-ray masks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mask4(pub [bool; 4]);

impl Mask4 {
    /// All lanes set.
    pub const ALL: Self = Self([true; 4]);
    /// No lane set.
    pub const NONE: Self = Self([false; 4]);

    /// `true` when any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0[0] || self.0[1] || self.0[2] || self.0[3]
    }

    /// Lane-wise AND.
    #[inline]
    pub fn and(self, o: Self) -> Self {
        Self([self.0[0] && o.0[0], self.0[1] && o.0[1], self.0[2] && o.0[2], self.0[3] && o.0[3]])
    }

    /// Lane-wise OR.
    #[inline]
    pub fn or(self, o: Self) -> Self {
        Self([self.0[0] || o.0[0], self.0[1] || o.0[1], self.0[2] || o.0[2], self.0[3] || o.0[3]])
    }

    /// The value in `lane`.
    #[inline]
    pub fn lane(self, lane: usize) -> bool {
        self.0[lane]
    }
}

impl std::ops::Not for Mask4 {
    type Output = Self;
    /// Lane-wise NOT.
    #[inline]
    fn not(self) -> Self {
        Self([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

/// Four 3-D vectors in structure-of-arrays layout.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3x4 {
    /// X components of the four lanes.
    pub x: F32x4,
    /// Y components of the four lanes.
    pub y: F32x4,
    /// Z components of the four lanes.
    pub z: F32x4,
}

impl Vec3x4 {
    /// Builds from per-axis lanes.
    pub const fn new(x: F32x4, y: F32x4, z: F32x4) -> Self {
        Self { x, y, z }
    }

    /// Broadcasts one vector to every lane.
    pub const fn splat(v: Vec3) -> Self {
        Self { x: F32x4::splat(v.x), y: F32x4::splat(v.y), z: F32x4::splat(v.z) }
    }

    /// Packs four vectors into lanes.
    pub fn from_lanes(v: [Vec3; 4]) -> Self {
        Self {
            x: F32x4::new(v[0].x, v[1].x, v[2].x, v[3].x),
            y: F32x4::new(v[0].y, v[1].y, v[2].y, v[3].y),
            z: F32x4::new(v[0].z, v[1].z, v[2].z, v[3].z),
        }
    }

    /// The vector in `lane`.
    #[inline]
    pub fn lane(self, lane: usize) -> Vec3 {
        Vec3::new(self.x.lane(lane), self.y.lane(lane), self.z.lane(lane))
    }

    /// Component-wise minimum with a uniform vector.
    #[inline]
    pub fn min_vec(self, o: Vec3) -> Self {
        Self {
            x: self.x.min(F32x4::splat(o.x)),
            y: self.y.min(F32x4::splat(o.y)),
            z: self.z.min(F32x4::splat(o.z)),
        }
    }

    /// Component-wise maximum with a uniform vector.
    #[inline]
    pub fn max_vec(self, o: Vec3) -> Self {
        Self {
            x: self.x.max(F32x4::splat(o.x)),
            y: self.y.max(F32x4::splat(o.y)),
            z: self.z.max(F32x4::splat(o.z)),
        }
    }

    /// Component-wise maximum with another packet.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        Self { x: self.x.max(o.x), y: self.y.max(o.y), z: self.z.max(o.z) }
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self { x: self.x.abs(), y: self.y.abs(), z: self.z.abs() }
    }

    /// Per-lane selection: `mask ? self : other`, all three components.
    #[inline]
    pub fn select(self, other: Self, mask: Mask4) -> Self {
        Self {
            x: self.x.select(other.x, mask),
            y: self.y.select(other.y, mask),
            z: self.z.select(other.z, mask),
        }
    }

    /// Dot product, evaluated in the exact association order of
    /// [`Vec3::dot`] (`0.0 + x·x + y·y + z·z`) so each lane matches the
    /// scalar result bit for bit.
    #[inline]
    pub fn dot(self, o: Self) -> F32x4 {
        ((F32x4::ZERO + self.x * o.x) + self.y * o.y) + self.z * o.z
    }

    /// Euclidean length (`dot(self, self).sqrt()`, as in [`Vec3::length`]).
    #[inline]
    pub fn length(self) -> F32x4 {
        self.dot(self).sqrt()
    }

    /// Largest component per lane, folded in the order of
    /// [`Vec3::max_component`].
    #[inline]
    pub fn max_component(self) -> F32x4 {
        F32x4::splat(f32::NEG_INFINITY).max(self.x).max(self.y).max(self.z)
    }

    /// Per-lane unit vector, mirroring [`Vec3::normalized`] operation for
    /// operation: lanes whose length exceeds `1e-12` are divided by it, the
    /// rest pass through unchanged — so each lane is bit-identical to the
    /// scalar call on that lane's vector.
    #[inline]
    pub fn normalized(self) -> Self {
        let len = self.length();
        let scaled = Self { x: self.x / len, y: self.y / len, z: self.z / len };
        scaled.select(self, len.gt(F32x4::splat(1e-12)))
    }
}

impl std::ops::Add for Vec3x4 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self { x: self.x + o.x, y: self.y + o.y, z: self.z + o.z }
    }
}

impl std::ops::Sub for Vec3x4 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self { x: self.x - o.x, y: self.y - o.y, z: self.z - o.z }
    }
}

impl std::ops::Sub<Vec3> for Vec3x4 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Vec3) -> Self {
        Self { x: self.x - o.x, y: self.y - o.y, z: self.z - o.z }
    }
}

impl std::ops::Mul<F32x4> for Vec3x4 {
    type Output = Self;
    #[inline]
    fn mul(self, s: F32x4) -> Self {
        Self { x: self.x * s, y: self.y * s, z: self.z * s }
    }
}

impl std::ops::Mul<f32> for Vec3x4 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        Self { x: self.x * s, y: self.y * s, z: self.z * s }
    }
}

impl std::ops::Div<f32> for Vec3x4 {
    type Output = Self;
    #[inline]
    fn div(self, s: f32) -> Self {
        Self { x: self.x / s, y: self.y / s, z: self.z / s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lanes() -> [Vec3; 4] {
        [
            Vec3::new(0.3, -1.2, 2.5),
            Vec3::new(-0.75, 0.0, 1e-3),
            Vec3::new(4.0, 3.0, -2.0),
            Vec3::new(-0.0, 1.5, 0.25),
        ]
    }

    #[test]
    fn arithmetic_matches_scalar_bit_for_bit() {
        let a = sample_lanes();
        let b = [
            Vec3::new(1.1, 0.4, -0.6),
            Vec3::new(0.0, -2.0, 3.5),
            Vec3::new(-1.0, 0.5, 0.125),
            Vec3::new(2.5, -0.3, 7.0),
        ];
        let pa = Vec3x4::from_lanes(a);
        let pb = Vec3x4::from_lanes(b);
        let sum = pa + pb;
        let dot = pa.dot(pb);
        let len = pa.length();
        for i in 0..LANES {
            assert_eq!(sum.lane(i), a[i] + b[i]);
            assert_eq!(dot.lane(i).to_bits(), a[i].dot(b[i]).to_bits());
            assert_eq!(len.lane(i).to_bits(), a[i].length().to_bits());
        }
    }

    #[test]
    fn min_max_abs_match_scalar() {
        let a = F32x4::new(1.0, -2.0, 0.0, -0.0);
        let b = F32x4::new(-1.0, 3.0, 0.5, 0.0);
        for i in 0..LANES {
            assert_eq!(a.min(b).lane(i).to_bits(), crate::min(a.lane(i), b.lane(i)).to_bits());
            assert_eq!(a.max(b).lane(i).to_bits(), crate::max(a.lane(i), b.lane(i)).to_bits());
            assert_eq!(a.abs().lane(i).to_bits(), a.lane(i).abs().to_bits());
        }
        // Expected bits, on the scalar helpers and on the lanes: ties (±0
        // included) keep the first operand, a NaN operand yields the other.
        let nan = f32::NAN;
        let cases: [(f32, f32, f32, f32); 4] = [
            // (a, b, min(a, b), max(a, b))
            (-0.0, 0.0, -0.0, -0.0),
            (0.0, -0.0, 0.0, 0.0),
            (nan, 2.5, 2.5, 2.5),
            (-1.5, nan, -1.5, -1.5),
        ];
        let lhs = F32x4(cases.map(|c| c.0));
        let rhs = F32x4(cases.map(|c| c.1));
        for (i, &(x, y, lo, hi)) in cases.iter().enumerate() {
            assert_eq!(crate::min(x, y).to_bits(), lo.to_bits(), "min({x:?}, {y:?})");
            assert_eq!(crate::max(x, y).to_bits(), hi.to_bits(), "max({x:?}, {y:?})");
            assert_eq!(lhs.min(rhs).lane(i).to_bits(), lo.to_bits(), "lane min({x:?}, {y:?})");
            assert_eq!(lhs.max(rhs).lane(i).to_bits(), hi.to_bits(), "lane max({x:?}, {y:?})");
        }
    }

    #[test]
    fn normalized_matches_scalar_including_degenerate_lanes() {
        let lanes =
            [Vec3::new(0.3, -1.2, 2.5), Vec3::ZERO, Vec3::new(4.0, 3.0, -2.0), Vec3::splat(1e-20)];
        let n = Vec3x4::from_lanes(lanes).normalized();
        for (i, v) in lanes.iter().enumerate() {
            let s = v.normalized();
            assert_eq!(n.x.lane(i).to_bits(), s.x.to_bits());
            assert_eq!(n.y.lane(i).to_bits(), s.y.to_bits());
            assert_eq!(n.z.lane(i).to_bits(), s.z.to_bits());
        }
    }

    #[test]
    fn max_component_matches_scalar_fold() {
        let lanes = sample_lanes();
        let m = Vec3x4::from_lanes(lanes).max_component();
        for (i, v) in lanes.iter().enumerate() {
            assert_eq!(m.lane(i).to_bits(), v.max_component().to_bits());
        }
    }

    #[test]
    fn select_and_masks() {
        let a = F32x4::new(1.0, 2.0, 3.0, 4.0);
        let b = F32x4::splat(0.0);
        let mask = a.lt(F32x4::splat(2.5));
        assert_eq!(mask, Mask4([true, true, false, false]));
        assert!(mask.any());
        assert_eq!(a.select(b, mask), F32x4::new(1.0, 2.0, 0.0, 0.0));
        assert!(!Mask4::NONE.any());
        assert_eq!(Mask4::ALL.and(mask), mask);
    }

    #[test]
    fn scalar_broadcast_ops() {
        let a = F32x4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a + 1.0, F32x4::new(2.0, 3.0, 4.0, 5.0));
        assert_eq!(a - 1.0, F32x4::new(0.0, 1.0, 2.0, 3.0));
        assert_eq!(a * 2.0, F32x4::new(2.0, 4.0, 6.0, 8.0));
        assert_eq!(a / 2.0, F32x4::new(0.5, 1.0, 1.5, 2.0));
        assert_eq!(-a, F32x4::new(-1.0, -2.0, -3.0, -4.0));
        assert_eq!(a.clamp(1.5, 3.5), F32x4::new(1.5, 2.0, 3.0, 3.5));
    }
}

#[cfg(test)]
mod lane_proptests {
    //! Every `F32x4` / `Vec3x4` operation is pinned bit-identical per lane
    //! to the scalar operation it replaces, over random inputs (the scene
    //! proptests pin the same contract end to end through the SDF trees; the
    //! fixed-input unit tests above pin edge cases such as ±0).

    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn pack(v: &[f32]) -> F32x4 {
        F32x4(std::array::from_fn(|i| v[i]))
    }

    fn vec_lanes(v: &[f32]) -> [Vec3; LANES] {
        std::array::from_fn(|i| Vec3::new(v[3 * i], v[3 * i + 1], v[3 * i + 2]))
    }

    proptest! {
        #[test]
        fn f32x4_arithmetic_is_bit_identical_to_scalar(
            xs in collection::vec(-100.0f32..100.0, 4..5),
            ys in collection::vec(-100.0f32..100.0, 4..5),
        ) {
            let (a, b) = (pack(&xs), pack(&ys));
            for i in 0..LANES {
                let (x, y) = (xs[i], ys[i]);
                prop_assert_eq!((a + b).lane(i).to_bits(), (x + y).to_bits());
                prop_assert_eq!((a - b).lane(i).to_bits(), (x - y).to_bits());
                prop_assert_eq!((a * b).lane(i).to_bits(), (x * y).to_bits());
                prop_assert_eq!((a / b).lane(i).to_bits(), (x / y).to_bits());
                prop_assert_eq!((-a).lane(i).to_bits(), (-x).to_bits());
            }
        }

        #[test]
        fn f32x4_scalar_broadcast_is_bit_identical_to_scalar(
            xs in collection::vec(-100.0f32..100.0, 4..5),
            s in -10.0f32..10.0,
        ) {
            let a = pack(&xs);
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!((a + s).lane(i).to_bits(), (x + s).to_bits());
                prop_assert_eq!((a - s).lane(i).to_bits(), (x - s).to_bits());
                prop_assert_eq!((a * s).lane(i).to_bits(), (x * s).to_bits());
                prop_assert_eq!((a / s).lane(i).to_bits(), (x / s).to_bits());
            }
        }

        #[test]
        fn f32x4_unary_helpers_are_bit_identical_to_scalar(
            xs in collection::vec(-100.0f32..100.0, 4..5),
            lo in -5.0f32..0.0,
            span in 0.0f32..10.0,
        ) {
            let a = pack(&xs);
            let hi = lo + span;
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!(a.abs().lane(i).to_bits(), x.abs().to_bits());
                // Negative lanes take the NaN branch in both paths.
                prop_assert_eq!(a.sqrt().lane(i).to_bits(), x.sqrt().to_bits());
                prop_assert_eq!(a.sin().lane(i).to_bits(), x.sin().to_bits());
                prop_assert_eq!(a.clamp(lo, hi).lane(i).to_bits(), x.clamp(lo, hi).to_bits());
            }
        }

        #[test]
        fn f32x4_comparisons_and_select_match_scalar(
            xs in collection::vec(-100.0f32..100.0, 4..5),
            ys in collection::vec(-100.0f32..100.0, 4..5),
        ) {
            let (a, b) = (pack(&xs), pack(&ys));
            for i in 0..LANES {
                let (x, y) = (xs[i], ys[i]);
                prop_assert_eq!(a.lt(b).lane(i), x < y);
                prop_assert_eq!(a.le(b).lane(i), x <= y);
                prop_assert_eq!(a.gt(b).lane(i), x > y);
                prop_assert_eq!(a.min(b).lane(i).to_bits(), crate::min(x, y).to_bits());
                prop_assert_eq!(a.max(b).lane(i).to_bits(), crate::max(x, y).to_bits());
                let sel = a.select(b, a.lt(b));
                prop_assert_eq!(sel.lane(i).to_bits(), if x < y { x } else { y }.to_bits());
            }
        }

        #[test]
        fn vec3x4_compound_helpers_are_bit_identical_to_scalar(
            xs in collection::vec(-10.0f32..10.0, 12..13),
            ys in collection::vec(-10.0f32..10.0, 12..13),
        ) {
            let (va, vb) = (vec_lanes(&xs), vec_lanes(&ys));
            let (pa, pb) = (Vec3x4::from_lanes(va), Vec3x4::from_lanes(vb));
            let dot = pa.dot(pb);
            let len = pa.length();
            let maxc = pa.max_component();
            let norm = pa.normalized();
            let sum = pa + pb;
            let diff = pa - pb;
            for i in 0..LANES {
                prop_assert_eq!(dot.lane(i).to_bits(), va[i].dot(vb[i]).to_bits());
                prop_assert_eq!(len.lane(i).to_bits(), va[i].length().to_bits());
                prop_assert_eq!(maxc.lane(i).to_bits(), va[i].max_component().to_bits());
                let n = va[i].normalized();
                prop_assert_eq!(norm.lane(i).x.to_bits(), n.x.to_bits());
                prop_assert_eq!(norm.lane(i).y.to_bits(), n.y.to_bits());
                prop_assert_eq!(norm.lane(i).z.to_bits(), n.z.to_bits());
                prop_assert_eq!(sum.lane(i), va[i] + vb[i]);
                prop_assert_eq!(diff.lane(i), va[i] - vb[i]);
            }
        }

        #[test]
        fn vec3x4_bound_clamps_are_bit_identical_to_scalar(
            xs in collection::vec(-10.0f32..10.0, 12..13),
            bound in collection::vec(-5.0f32..5.0, 3..4),
        ) {
            let va = vec_lanes(&xs);
            let pa = Vec3x4::from_lanes(va);
            let b = Vec3::new(bound[0], bound[1], bound[2]);
            let lo = pa.min_vec(b);
            let hi = pa.max_vec(b);
            for (i, v) in va.iter().enumerate() {
                prop_assert_eq!(lo.lane(i).x.to_bits(), crate::min(v.x, b.x).to_bits());
                prop_assert_eq!(lo.lane(i).y.to_bits(), crate::min(v.y, b.y).to_bits());
                prop_assert_eq!(lo.lane(i).z.to_bits(), crate::min(v.z, b.z).to_bits());
                prop_assert_eq!(hi.lane(i).x.to_bits(), crate::max(v.x, b.x).to_bits());
                prop_assert_eq!(hi.lane(i).y.to_bits(), crate::max(v.y, b.y).to_bits());
                prop_assert_eq!(hi.lane(i).z.to_bits(), crate::max(v.z, b.z).to_bits());
            }
        }
    }
}
