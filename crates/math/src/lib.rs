//! # nerflex-math
//!
//! Linear-algebra, geometry and statistics substrate for the NeRFlex
//! reproduction.
//!
//! The crate is intentionally dependency-free: it provides exactly the
//! primitives the rest of the workspace needs — small fixed-size vectors and
//! matrices ([`Vec2`], [`Vec3`], [`Vec4`], [`Mat3`], [`Mat4`]), rays and
//! axis-aligned bounding boxes ([`Ray`], [`Aabb`]), camera/viewing transforms
//! ([`transform`]), low-discrepancy and spherical sampling ([`sampling`]) and
//! summary statistics / least-squares helpers ([`stats`]).
//!
//! Geometry uses `f32` (it feeds the software rasteriser and the ray
//! marcher); statistics and fitting use `f64` (they feed the profiler and the
//! configuration solver where conditioning matters).
//!
//! ```
//! use nerflex_math::{Vec3, Ray, Aabb};
//!
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
//! let cube = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
//! let hit = cube.intersect_ray(&ray).expect("ray points at the cube");
//! assert!((hit.0 - 4.0).abs() < 1e-6);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aabb;
pub mod mat;
pub mod pool;
pub mod ray;
pub mod sampling;
pub mod simd;
pub mod stats;
pub mod transform;
pub mod vec;

pub use aabb::Aabb;
pub use mat::{Mat3, Mat4};
pub use pool::{PoolStats, WorkerPool};
pub use ray::Ray;
pub use simd::{F32x4, LaneWidth, Mask4, Vec3x4};
pub use vec::{Vec2, Vec3, Vec4};

/// The smaller of `a` and `b`: `b` when `b < a` or `a` is NaN, else `a`.
///
/// Ties keep `a`, so the sign of a zero result is defined: `min(-0.0, 0.0)`
/// is `-0.0` and `min(0.0, -0.0)` is `+0.0`. A NaN operand yields the other
/// operand, as [`f32::min`] documents. [`f32::min`] leaves the ±0 result
/// unspecified, so every scalar minimum a lane op must match, and the lane
/// op itself ([`F32x4::min`]), is this function.
///
/// ```
/// use nerflex_math::min;
/// assert_eq!(min(-0.0f32, 0.0).to_bits(), (-0.0f32).to_bits());
/// assert_eq!(min(0.0f32, -0.0).to_bits(), 0.0f32.to_bits());
/// assert_eq!(min(f32::NAN, 2.0), 2.0);
/// ```
#[inline]
pub fn min(a: f32, b: f32) -> f32 {
    if b < a || a.is_nan() {
        b
    } else {
        a
    }
}

/// The larger of `a` and `b`: `b` when `b > a` or `a` is NaN, else `a`.
///
/// The tie and NaN rules are those of [`min`]: `max(-0.0, 0.0)` is `-0.0`,
/// `max(0.0, -0.0)` is `+0.0`, and a NaN operand yields the other operand.
///
/// ```
/// use nerflex_math::max;
/// assert_eq!(max(-0.0f32, 0.0).to_bits(), (-0.0f32).to_bits());
/// assert_eq!(max(2.0, f32::NAN), 2.0);
/// ```
#[inline]
pub fn max(a: f32, b: f32) -> f32 {
    if b > a || a.is_nan() {
        b
    } else {
        a
    }
}

/// Clamps `x` into `[lo, hi]`.
///
/// Unlike [`f32::clamp`] this never panics: if `lo > hi` the bounds are
/// swapped first, which is convenient when the interval is derived from data.
///
/// ```
/// assert_eq!(nerflex_math::clamp(5.0, 0.0, 1.0), 1.0);
/// assert_eq!(nerflex_math::clamp(5.0, 1.0, 0.0), 1.0);
/// ```
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    x.max(lo).min(hi)
}

/// Linear interpolation between `a` and `b` by factor `t` in `[0, 1]`.
///
/// ```
/// assert_eq!(nerflex_math::lerp(2.0, 4.0, 0.5), 3.0);
/// ```
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Smoothstep interpolation (C¹ continuous) of `x` between `edge0` and `edge1`.
///
/// ```
/// assert_eq!(nerflex_math::smoothstep(0.0, 1.0, 0.5), 0.5);
/// assert_eq!(nerflex_math::smoothstep(0.0, 1.0, -1.0), 0.0);
/// ```
pub fn smoothstep(edge0: f32, edge1: f32, x: f32) -> f32 {
    let t = clamp((x - edge0) / (edge1 - edge0), 0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_orders_bounds() {
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        assert_eq!(clamp(-3.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(-3.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(1.0, 9.0, 0.0), 1.0);
        assert_eq!(lerp(1.0, 9.0, 1.0), 9.0);
    }

    #[test]
    fn smoothstep_monotone() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = smoothstep(0.0, 1.0, i as f32 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }
}
