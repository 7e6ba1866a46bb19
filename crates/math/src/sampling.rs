//! Deterministic low-discrepancy sequences and procedural value noise.
//!
//! The scene generator uses these to place procedural detail and to pick
//! camera poses; everything is seed-free and deterministic so experiment
//! outputs are reproducible.

use crate::vec::{Vec2, Vec3};

/// Radical-inverse (van der Corput) sequence in the given integer `base`.
///
/// # Panics
///
/// Panics if `base < 2`.
pub fn radical_inverse(mut index: u32, base: u32) -> f32 {
    assert!(base >= 2, "radical inverse base must be at least 2");
    let inv_base = 1.0 / base as f64;
    let mut inv = inv_base;
    let mut result = 0.0f64;
    while index > 0 {
        result += (index % base) as f64 * inv;
        index /= base;
        inv *= inv_base;
    }
    result as f32
}

/// The `index`-th point of the 2-D Halton sequence (bases 2 and 3).
pub fn halton2(index: u32) -> Vec2 {
    Vec2::new(radical_inverse(index, 2), radical_inverse(index, 3))
}

/// Deterministic hash of a 32-bit integer to `[0, 1)` (PCG-style mix).
pub fn hash_u32(mut x: u32) -> f32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    (x >> 8) as f32 / (1u32 << 24) as f32
}

/// Deterministic hash of a 3-D lattice cell to `[0, 1)`.
pub fn hash_cell(x: i32, y: i32, z: i32) -> f32 {
    let h = (x as u32)
        .wrapping_mul(0x8da6_b343)
        .wrapping_add((y as u32).wrapping_mul(0xd816_3841))
        .wrapping_add((z as u32).wrapping_mul(0xcb1a_b31f));
    hash_u32(h)
}

/// Tri-linearly interpolated value noise in `[0, 1)`, period-free, with
/// features of size roughly `1 / frequency`.
///
/// The one-shot case of [`NoiseCell::value_noise`].
pub fn value_noise(p: Vec3, frequency: f32) -> f32 {
    NoiseCell::default().value_noise(p, frequency)
}

/// Fractal Brownian motion: `octaves` layers of [`value_noise`] with
/// per-octave frequency doubling and amplitude halving, normalised to `[0, 1)`.
///
/// The one-shot case of [`fbm_cached`].
pub fn fbm(p: Vec3, base_frequency: f32, octaves: u32) -> f32 {
    fbm_cached(p, base_frequency, octaves, &mut [])
}

/// [`fbm`] with octave `i` evaluated through `cells[i]`, so consecutive
/// points that stay in one lattice cell of an octave reuse its corner
/// hashes. Octaves past `cells.len()` are evaluated uncached. The result is
/// bit-identical to [`fbm`] whatever the cells held before.
pub fn fbm_cached(p: Vec3, base_frequency: f32, octaves: u32, cells: &mut [NoiseCell]) -> f32 {
    let mut amplitude = 0.5;
    let mut frequency = base_frequency;
    let mut total = 0.0;
    let mut norm = 0.0;
    for octave in 0..octaves.max(1) as usize {
        let mut uncached = NoiseCell::default();
        let cell = cells.get_mut(octave).unwrap_or(&mut uncached);
        total += amplitude * cell.value_noise(p, frequency);
        norm += amplitude;
        amplitude *= 0.5;
        frequency *= 2.0;
    }
    total / norm
}

/// The eight lattice-corner hashes of the value-noise cell evaluated last.
///
/// [`hash_cell`] is a pure function of the integer cell, so keeping the
/// corners of the last cell and reusing them while consecutive points stay
/// in it changes no bit of the noise: it only skips recomputing the same
/// eight hashes. A fresh cell holds no corners.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseCell {
    /// The lattice cell whose corners `corners` holds; `None` until the
    /// first evaluation. (`as i32` saturates, so every `i32` cell,
    /// `i32::MIN` included, can be a real one.)
    cell: Option<[i32; 3]>,
    /// `hash_cell` of the corners, `dx` fastest, then `dy`, then `dz`.
    corners: [f32; 8],
}

impl NoiseCell {
    /// Tri-linearly interpolated value noise at `p` ([`value_noise`]),
    /// recomputing the corner hashes only when `p` lands in another lattice
    /// cell than the previous call.
    pub fn value_noise(&mut self, p: Vec3, frequency: f32) -> f32 {
        let q = p * frequency;
        let base = Vec3::new(q.x.floor(), q.y.floor(), q.z.floor());
        let f = q - base;
        // Smooth the interpolation weights (C¹) to avoid lattice artefacts.
        let w = Vec3::new(
            f.x * f.x * (3.0 - 2.0 * f.x),
            f.y * f.y * (3.0 - 2.0 * f.y),
            f.z * f.z * (3.0 - 2.0 * f.z),
        );
        let (x0, y0, z0) = (base.x as i32, base.y as i32, base.z as i32);
        if self.cell != Some([x0, y0, z0]) {
            for (i, corner) in self.corners.iter_mut().enumerate() {
                let (dx, dy, dz) = ((i & 1) as i32, ((i >> 1) & 1) as i32, (i >> 2) as i32);
                // `as i32` saturates, so the far corner of the `i32::MAX`
                // cell wraps to `i32::MIN`, in every build profile.
                *corner = hash_cell(x0.wrapping_add(dx), y0.wrapping_add(dy), z0.wrapping_add(dz));
            }
            self.cell = Some([x0, y0, z0]);
        }
        let mut accum = 0.0;
        for (i, corner) in self.corners.iter().enumerate() {
            let wx = if i & 1 == 1 { w.x } else { 1.0 - w.x };
            let wy = if (i >> 1) & 1 == 1 { w.y } else { 1.0 - w.y };
            let wz = if i >> 2 == 1 { w.z } else { 1.0 - w.z };
            accum += corner * wx * wy * wz;
        }
        accum
    }
}

/// Evenly distributed directions on the unit sphere (Fibonacci lattice).
pub fn fibonacci_sphere(count: usize) -> Vec<Vec3> {
    let golden = std::f32::consts::PI * (3.0 - 5.0f32.sqrt());
    (0..count)
        .map(|i| {
            let y = 1.0 - 2.0 * (i as f32 + 0.5) / count as f32;
            let radius = (1.0 - y * y).max(0.0).sqrt();
            let theta = golden * i as f32;
            Vec3::new(radius * theta.cos(), y, radius * theta.sin())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn radical_inverse_first_values_base2() {
        assert_eq!(radical_inverse(0, 2), 0.0);
        assert!((radical_inverse(1, 2) - 0.5).abs() < 1e-6);
        assert!((radical_inverse(2, 2) - 0.25).abs() < 1e-6);
        assert!((radical_inverse(3, 2) - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn radical_inverse_rejects_base_one() {
        let _ = radical_inverse(5, 1);
    }

    #[test]
    fn halton_points_fill_unit_square() {
        let pts: Vec<Vec2> = (0..256).map(halton2).collect();
        // Each quadrant should receive a reasonable share of points.
        let mut quads = [0usize; 4];
        for p in &pts {
            let idx = (p.x >= 0.5) as usize + 2 * (p.y >= 0.5) as usize;
            quads[idx] += 1;
        }
        for &q in &quads {
            assert!(q > 32, "quadrant starved: {quads:?}");
        }
    }

    #[test]
    fn value_noise_is_deterministic_and_bounded() {
        let p = Vec3::new(0.3, 1.7, -2.2);
        let a = value_noise(p, 4.0);
        let b = value_noise(p, 4.0);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }

    /// The value noise `NoiseCell` memoises, as one trilinear pass that
    /// hashes every corner.
    fn reference_value_noise(p: Vec3, frequency: f32) -> f32 {
        let q = p * frequency;
        let base = Vec3::new(q.x.floor(), q.y.floor(), q.z.floor());
        let f = q - base;
        let w = Vec3::new(
            f.x * f.x * (3.0 - 2.0 * f.x),
            f.y * f.y * (3.0 - 2.0 * f.y),
            f.z * f.z * (3.0 - 2.0 * f.z),
        );
        let (x0, y0, z0) = (base.x as i32, base.y as i32, base.z as i32);
        let mut accum = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let corner =
                        hash_cell(x0.wrapping_add(dx), y0.wrapping_add(dy), z0.wrapping_add(dz));
                    let wx = if dx == 1 { w.x } else { 1.0 - w.x };
                    let wy = if dy == 1 { w.y } else { 1.0 - w.y };
                    let wz = if dz == 1 { w.z } else { 1.0 - w.z };
                    accum += corner * wx * wy * wz;
                }
            }
        }
        accum
    }

    #[test]
    fn noise_cells_reuse_corners_without_changing_a_bit() {
        // A walk that stays in cells, leaves and revisits them, starts in
        // cell (0, 0, 0) (what a zeroed sentinel would claim to hold) and
        // reaches the saturated cells `i32::MIN` and `i32::MAX` (whose far
        // corners wrap) and a NaN point.
        let mut points = vec![Vec3::new(0.1, 0.2, 0.3), Vec3::new(0.15, 0.25, 0.35)];
        points.extend((0..64).map(|i| Vec3::new(i as f32 * 0.07, -0.4, 1.3 - i as f32 * 0.02)));
        points.push(Vec3::new(0.1, 0.2, 0.3));
        points.extend([Vec3::splat(-1e12), Vec3::new(-1e12, -1e12, -1e12 + 1.0)]);
        points.extend([Vec3::splat(1e10), Vec3::new(6e8, 0.1, 0.2)]);
        points.push(Vec3::new(f32::NAN, 0.0, 0.0));
        points.push(Vec3::ZERO);
        let bits = |x: f32| x.to_bits();
        let reference_fbm = |p: Vec3| {
            let (mut amplitude, mut frequency, mut total, mut norm) = (0.5, 2.0, 0.0, 0.0);
            for _ in 0..5 {
                total += amplitude * reference_value_noise(p, frequency);
                norm += amplitude;
                amplitude *= 0.5;
                frequency *= 2.0;
            }
            total / norm
        };
        let mut cell = NoiseCell::default();
        let mut cells = [NoiseCell::default(); 3];
        for &p in &points {
            assert_eq!(bits(cell.value_noise(p, 4.0)), bits(reference_value_noise(p, 4.0)));
            assert_eq!(bits(value_noise(p, 4.0)), bits(reference_value_noise(p, 4.0)));
            // Five octaves over three cells: the last two run uncached.
            assert_eq!(bits(fbm_cached(p, 2.0, 5, &mut cells)), bits(reference_fbm(p)));
            assert_eq!(bits(fbm(p, 2.0, 5)), bits(reference_fbm(p)));
        }
        assert_eq!(cell.cell, Some([0, 0, 0]));
        // Pinned to the release build's values (overflow checks off, so a
        // plain `+` wrapped there too): every build profile agrees.
        assert_eq!(bits(value_noise(Vec3::splat(1e10), 4.0)), 0x3e7f_843c);
        assert_eq!(bits(fbm(Vec3::splat(1e10), 2.0, 5)), 0x3e7f_843c);
        assert_eq!(bits(value_noise(Vec3::new(6e8, 0.1, 0.2), 4.0)), 0x3ea1_2ea4);
        assert_eq!(bits(fbm(Vec3::new(6e8, 0.1, 0.2), 2.0, 5)), 0x3f06_6ce7);
    }

    #[test]
    fn fbm_higher_frequency_adds_detail() {
        // fbm with more octaves should differ from the single-octave value at
        // most points (it adds high-frequency energy) while staying bounded.
        let mut diff = 0.0;
        for i in 0..100 {
            let p = Vec3::new(i as f32 * 0.11, 0.5, -0.3);
            let one = fbm(p, 2.0, 1);
            let many = fbm(p, 2.0, 5);
            assert!((0.0..=1.0).contains(&many));
            diff += (one - many).abs();
        }
        assert!(diff > 0.1);
    }

    #[test]
    fn fibonacci_sphere_points_are_unit_and_spread() {
        let pts = fibonacci_sphere(128);
        assert_eq!(pts.len(), 128);
        let mut mean = Vec3::ZERO;
        for p in &pts {
            assert!((p.length() - 1.0).abs() < 1e-4);
            mean += *p;
        }
        // A well-spread set has a near-zero mean direction.
        assert!((mean / 128.0).length() < 0.05);
    }

    proptest! {
        #[test]
        fn prop_hash_is_in_unit_interval(x in any::<u32>()) {
            let h = hash_u32(x);
            prop_assert!((0.0..1.0).contains(&h));
        }

        #[test]
        fn prop_noise_bounded(px in -20f32..20.0, py in -20f32..20.0, pz in -20f32..20.0) {
            let n = value_noise(Vec3::new(px, py, pz), 3.0);
            prop_assert!((0.0..=1.0).contains(&n));
        }
    }
}
