//! Small fixed-size vectors (`Vec2`, `Vec3`, `Vec4`) over `f32`.
//!
//! These are plain `Copy` value types with the usual component-wise
//! arithmetic, dot/cross products and normalisation helpers. They are used by
//! every geometric subsystem (SDF evaluation, ray marching, rasterisation).

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-component `f32` vector (texture coordinates, image positions).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component `f32` vector (positions, directions, colours).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component `f32` vector (homogeneous coordinates, RGBA).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

macro_rules! impl_binops {
    ($ty:ident, $($f:ident),+) => {
        impl Add for $ty {
            type Output = Self;
            fn add(self, o: Self) -> Self { Self { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $ty {
            type Output = Self;
            fn sub(self, o: Self) -> Self { Self { $($f: self.$f - o.$f),+ } }
        }
        impl Mul for $ty {
            type Output = Self;
            fn mul(self, o: Self) -> Self { Self { $($f: self.$f * o.$f),+ } }
        }
        impl Mul<f32> for $ty {
            type Output = Self;
            fn mul(self, s: f32) -> Self { Self { $($f: self.$f * s),+ } }
        }
        impl Mul<$ty> for f32 {
            type Output = $ty;
            fn mul(self, v: $ty) -> $ty { v * self }
        }
        impl Div<f32> for $ty {
            type Output = Self;
            fn div(self, s: f32) -> Self { Self { $($f: self.$f / s),+ } }
        }
        impl Neg for $ty {
            type Output = Self;
            fn neg(self) -> Self { Self { $($f: -self.$f),+ } }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, o: Self) { *self = *self + o; }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, o: Self) { *self = *self - o; }
        }
        impl MulAssign<f32> for $ty {
            fn mul_assign(&mut self, s: f32) { *self = *self * s; }
        }
        impl DivAssign<f32> for $ty {
            fn div_assign(&mut self, s: f32) { *self = *self / s; }
        }
        impl $ty {
            /// Component-wise [`crate::min`] (ties keep `self`'s component).
            pub fn min(self, o: Self) -> Self { Self { $($f: crate::min(self.$f, o.$f)),+ } }
            /// Component-wise [`crate::max`] (ties keep `self`'s component).
            pub fn max(self, o: Self) -> Self { Self { $($f: crate::max(self.$f, o.$f)),+ } }
            /// Component-wise absolute value.
            pub fn abs(self) -> Self { Self { $($f: self.$f.abs()),+ } }
            /// Dot product.
            pub fn dot(self, o: Self) -> f32 { 0.0 $(+ self.$f * o.$f)+ }
            /// Squared Euclidean length.
            pub fn length_squared(self) -> f32 { self.dot(self) }
            /// Euclidean length.
            pub fn length(self) -> f32 { self.length_squared().sqrt() }
            /// Euclidean distance to `o`.
            pub fn distance(self, o: Self) -> f32 { (self - o).length() }
            /// Returns the unit vector in the same direction, or `self`
            /// unchanged when the length is (near) zero.
            pub fn normalized(self) -> Self {
                let len = self.length();
                if len > 1e-12 { self / len } else { self }
            }
            /// Linear interpolation between `self` and `o`.
            pub fn lerp(self, o: Self, t: f32) -> Self { self + (o - self) * t }
            /// The largest component, folded through [`crate::max`] from
            /// `-∞` in component order.
            pub fn max_component(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $( m = crate::max(m, self.$f); )+
                m
            }
            /// The smallest component, folded through [`crate::min`] from
            /// `+∞` in component order.
            pub fn min_component(self) -> f32 {
                let mut m = f32::INFINITY;
                $( m = crate::min(m, self.$f); )+
                m
            }
            /// `true` when every component is finite.
            pub fn is_finite(self) -> bool { true $(&& self.$f.is_finite())+ }
        }
    };
}

impl_binops!(Vec2, x, y);
impl_binops!(Vec3, x, y, z);
impl_binops!(Vec4, x, y, z, w);

impl Vec2 {
    /// Creates a vector from components.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Creates a vector with every component equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v }
    }

    /// The zero vector.
    pub const ZERO: Self = Self::splat(0.0);
    /// The one vector.
    pub const ONE: Self = Self::splat(1.0);

    /// 2-D "cross product" (z component of the 3-D cross of the embedded
    /// vectors); its sign gives the winding of a triangle.
    pub fn perp_dot(self, o: Self) -> f32 {
        self.x * o.y - self.y * o.x
    }
}

impl Vec3 {
    /// Creates a vector from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with every component equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// The zero vector.
    pub const ZERO: Self = Self::splat(0.0);
    /// The one vector.
    pub const ONE: Self = Self::splat(1.0);
    /// Unit X axis.
    pub const X: Self = Self::new(1.0, 0.0, 0.0);
    /// Unit Y axis.
    pub const Y: Self = Self::new(0.0, 1.0, 0.0);
    /// Unit Z axis.
    pub const Z: Self = Self::new(0.0, 0.0, 1.0);

    /// Cross product.
    pub fn cross(self, o: Self) -> Self {
        Self {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Extends to homogeneous coordinates with the given `w`.
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }

    /// Drops the `z` component.
    pub fn truncate(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Reflects `self` around the (unit) normal `n`.
    pub fn reflect(self, n: Self) -> Self {
        self - n * (2.0 * self.dot(n))
    }
}

impl Vec4 {
    /// Creates a vector from components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Creates a vector with every component equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v, w: v }
    }

    /// The zero vector.
    pub const ZERO: Self = Self::splat(0.0);

    /// Drops the `w` component.
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective division: divides the spatial components by `w`.
    ///
    /// # Panics
    ///
    /// Does not panic; when `w` is zero the result contains infinities which
    /// callers (the rasteriser clip stage) reject explicitly.
    pub fn perspective_divide(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

impl From<(f32, f32)> for Vec2 {
    fn from(v: (f32, f32)) -> Self {
        Self::new(v.0, v.1)
    }
}

impl From<(f32, f32, f32)> for Vec3 {
    fn from(v: (f32, f32, f32)) -> Self {
        Self::new(v.0, v.1, v.2)
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(v: [f32; 3]) -> Self {
        Self::new(v[0], v[1], v[2])
    }
}

impl From<Vec3> for [f32; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Vec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.z, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn dot_and_cross_are_consistent() {
        let a = Vec3::X;
        let b = Vec3::Y;
        assert_eq!(a.cross(b), Vec3::Z);
        assert_eq!(a.dot(b), 0.0);
        assert!(close(a.cross(b).dot(a), 0.0));
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, -4.0, 12.0);
        assert!(close(v.normalized().length(), 1.0));
        // Degenerate input is passed through unchanged rather than producing NaN.
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn reflect_preserves_length() {
        let v = Vec3::new(1.0, -1.0, 0.0);
        let r = v.reflect(Vec3::Y);
        assert!(close(r.length(), v.length()));
        assert!(close(r.y, 1.0));
    }

    #[test]
    fn perspective_divide() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.perspective_divide(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn component_extrema() {
        let v = Vec3::new(-2.0, 7.0, 0.0);
        assert_eq!(v.max_component(), 7.0);
        assert_eq!(v.min_component(), -2.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    proptest! {
        #[test]
        fn prop_dot_is_commutative(ax in -10f32..10.0, ay in -10f32..10.0, az in -10f32..10.0,
                                   bx in -10f32..10.0, by in -10f32..10.0, bz in -10f32..10.0) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-4);
        }

        #[test]
        fn prop_cross_is_orthogonal(ax in -10f32..10.0, ay in -10f32..10.0, az in -10f32..10.0,
                                    bx in -10f32..10.0, by in -10f32..10.0, bz in -10f32..10.0) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            // |a·(a×b)| scales with |a||b||a| so normalise the tolerance.
            let scale = 1.0 + a.length() * b.length() * (a.length() + b.length());
            prop_assert!(c.dot(a).abs() / scale < 1e-3);
            prop_assert!(c.dot(b).abs() / scale < 1e-3);
        }

        #[test]
        fn prop_lerp_stays_in_segment(t in 0f32..1.0, ax in -5f32..5.0, bx in -5f32..5.0) {
            let a = Vec3::splat(ax);
            let b = Vec3::splat(bx);
            let l = a.lerp(b, t).x;
            let (lo, hi) = if ax < bx { (ax, bx) } else { (bx, ax) };
            prop_assert!(l >= lo - 1e-4 && l <= hi + 1e-4);
        }
    }
}
