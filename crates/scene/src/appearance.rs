//! Procedural surface appearance with controllable spatial-frequency content.
//!
//! Each canonical object pairs its SDF geometry with an [`Appearance`] whose
//! detail frequency controls how much high-frequency texture the ground-truth
//! images contain. The baking simulator band-limits this appearance according
//! to the texture patch size `p`, which is exactly the quality/size trade-off
//! the NeRFlex profiler models.

use nerflex_image::Color;
use nerflex_math::sampling::{fbm, fbm_cached, NoiseCell};
use nerflex_math::Vec3;
use serde::{Deserialize, Serialize};

/// A procedural appearance: position (+ normal) → albedo colour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Appearance {
    /// A single flat colour (no texture detail).
    Solid {
        /// Albedo.
        color: Color,
    },
    /// Two-tone 3-D checker pattern.
    Checker {
        /// First colour.
        a: Color,
        /// Second colour.
        b: Color,
        /// Checker cells per unit length.
        scale: f32,
    },
    /// Value-noise marbling between two colours.
    Noise {
        /// Base colour.
        base: Color,
        /// Accent colour.
        accent: Color,
        /// Spatial frequency of the noise.
        frequency: f32,
        /// Number of fBm octaves (more octaves = more fine detail).
        octaves: u32,
    },
    /// Stripes along the Y axis (planks, hull strakes).
    Stripes {
        /// First colour.
        a: Color,
        /// Second colour.
        b: Color,
        /// Stripes per unit length.
        frequency: f32,
    },
    /// Regular stud/grid pattern (Lego-like), the highest-frequency option.
    Studs {
        /// Base colour.
        base: Color,
        /// Stud highlight colour.
        highlight: Color,
        /// Studs per unit length.
        frequency: f32,
    },
}

impl Appearance {
    /// Albedo at surface point `p` with surface normal `n`.
    pub fn albedo(&self, p: Vec3, n: Vec3) -> Color {
        match self {
            Appearance::Solid { color } => *color,
            Appearance::Checker { a, b, scale } => {
                let q = p * *scale;
                let parity =
                    (q.x.floor() as i64 + q.y.floor() as i64 + q.z.floor() as i64).rem_euclid(2);
                if parity == 0 {
                    *a
                } else {
                    *b
                }
            }
            Appearance::Noise { base, accent, frequency, octaves } => {
                let t = fbm(p, *frequency, *octaves);
                base.lerp(*accent, t)
            }
            Appearance::Stripes { a, b, frequency } => {
                let t = 0.5 + 0.5 * (p.y * frequency * std::f32::consts::TAU).sin();
                a.lerp(*b, t)
            }
            Appearance::Studs { base, highlight, frequency } => {
                // Bumps on up-facing surfaces, grid lines elsewhere.
                let gx = (p.x * frequency).fract().abs();
                let gz = (p.z * frequency).fract().abs();
                let cell = ((gx - 0.5).powi(2) + (gz - 0.5).powi(2)).sqrt();
                let stud = if cell < 0.3 { 1.0 } else { 0.0 };
                let facing_up = n.y.max(0.0);
                let line = if gx < 0.06 || gz < 0.06 { 0.6 } else { 0.0 };
                let t = (stud * facing_up + line).min(1.0);
                base.lerp(*highlight, t)
            }
        }
    }

    /// A nominal spatial-frequency score for this appearance in `[0, 1]`,
    /// used by tests and by the synthetic object catalogue to reason about
    /// expected segmentation decisions (the *measured* detail frequency comes
    /// from `nerflex_image::frequency` on rendered views).
    pub fn nominal_detail(&self) -> f32 {
        match self {
            Appearance::Solid { .. } => 0.0,
            Appearance::Checker { scale, .. } => (scale / 16.0).min(1.0),
            Appearance::Noise { frequency, octaves, .. } => {
                ((frequency * (1u32 << (*octaves).min(6)) as f32) / 128.0).min(1.0)
            }
            Appearance::Stripes { frequency, .. } => (frequency / 16.0).min(1.0),
            Appearance::Studs { frequency, .. } => (frequency / 8.0).clamp(0.5, 1.0),
        }
    }

    /// Band-limited albedo: the appearance evaluated with detail above the
    /// cut-off frequency removed (approximated by smoothing the procedural
    /// parameters). `cutoff` is in texels-per-unit — the baking simulator
    /// passes the texel density implied by the texture patch size so smaller
    /// patches yield blurrier baked colours.
    ///
    /// The one-shot case of [`Appearance::band_limited`]; resolve the
    /// sampler once to evaluate many points at one cut-off.
    pub fn albedo_band_limited(&self, p: Vec3, n: Vec3, cutoff: f32) -> Color {
        self.band_limited(cutoff).albedo(p, n)
    }

    /// This appearance with its band limit resolved for `cutoff`: which
    /// detail survives the cut-off is decided here, once, instead of at
    /// every point [`BandLimited::albedo`] evaluates.
    pub fn band_limited(&self, cutoff: f32) -> BandLimited<'_> {
        let resolved = match self {
            Appearance::Solid { color } => Resolved::Flat(*color),
            Appearance::Checker { a, b, scale } => {
                if *scale <= cutoff {
                    Resolved::Full(self)
                } else {
                    // Pattern unresolvable: average of the two tones.
                    Resolved::Flat(a.lerp(*b, 0.5))
                }
            }
            Appearance::Noise { base, accent, frequency, octaves } => {
                // Drop the octaves whose frequency exceeds the cut-off.
                let mut usable = 0u32;
                let mut f = *frequency;
                for _ in 0..*octaves {
                    if f <= cutoff {
                        usable += 1;
                    }
                    f *= 2.0;
                }
                let (base, accent, frequency) = (*base, *accent, *frequency);
                if usable == 0 {
                    let frequency = cutoff.min(frequency);
                    Resolved::Blurred { base, accent, frequency, cell: NoiseCell::default() }
                } else {
                    let cells = vec![NoiseCell::default(); usable as usize];
                    Resolved::Octaves { base, accent, frequency, cells }
                }
            }
            Appearance::Stripes { a, b, frequency } => {
                if *frequency <= cutoff {
                    Resolved::Full(self)
                } else {
                    Resolved::Flat(a.lerp(*b, 0.5))
                }
            }
            Appearance::Studs { base, highlight, frequency } => {
                if *frequency <= cutoff {
                    Resolved::Full(self)
                } else {
                    Resolved::Tint { base: *base, highlight: *highlight }
                }
            }
        };
        BandLimited { resolved }
    }
}

/// An [`Appearance`] with its band limit resolved for one cut-off
/// ([`Appearance::band_limited`]).
///
/// Each kept noise octave remembers the corner hashes of the lattice cell
/// it evaluated last ([`NoiseCell`]), so consecutive points in one cell
/// skip rehashing it. That memoises a pure function: every colour is
/// bit-identical to [`Appearance::albedo_band_limited`] at the same point,
/// whatever was evaluated before.
#[derive(Debug, Clone)]
pub struct BandLimited<'a> {
    resolved: Resolved<'a>,
}

#[derive(Debug, Clone)]
enum Resolved<'a> {
    /// Every detail is below the cut-off: the full albedo.
    Full(&'a Appearance),
    /// No position-dependent detail survives.
    Flat(Color),
    /// The first `cells.len()` fBm octaves survive, one cell each.
    Octaves { base: Color, accent: Color, frequency: f32, cells: Vec<NoiseCell> },
    /// No octave survives: one value-noise layer at `frequency`, in a
    /// narrower contrast band.
    Blurred { base: Color, accent: Color, frequency: f32, cell: NoiseCell },
    /// Studs unresolvable: only the broad up-facing tint survives.
    Tint { base: Color, highlight: Color },
}

impl BandLimited<'_> {
    /// Whether [`BandLimited::albedo`] reads its normal argument: only
    /// studs do, so other callers may pass any normal.
    pub fn reads_normal(&self) -> bool {
        matches!(self.resolved, Resolved::Full(Appearance::Studs { .. }) | Resolved::Tint { .. })
    }

    /// Band-limited albedo at surface point `p` with surface normal `n`.
    pub fn albedo(&mut self, p: Vec3, n: Vec3) -> Color {
        match &mut self.resolved {
            Resolved::Full(appearance) => appearance.albedo(p, n),
            Resolved::Flat(color) => *color,
            Resolved::Octaves { base, accent, frequency, cells } => {
                let t = fbm_cached(p, *frequency, cells.len() as u32, cells);
                base.lerp(*accent, t)
            }
            Resolved::Blurred { base, accent, frequency, cell } => {
                let t = cell.value_noise(p, *frequency);
                base.lerp(*accent, 0.25 + 0.5 * t)
            }
            Resolved::Tint { base, highlight } => base.lerp(*highlight, 0.3 * n.y.max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_ignores_position() {
        let a = Appearance::Solid { color: Color::new(0.2, 0.4, 0.6) };
        assert_eq!(a.albedo(Vec3::ZERO, Vec3::Y), a.albedo(Vec3::splat(3.7), Vec3::X));
        assert_eq!(a.nominal_detail(), 0.0);
    }

    #[test]
    fn checker_alternates_cells() {
        let a = Appearance::Checker { a: Color::BLACK, b: Color::WHITE, scale: 1.0 };
        let c0 = a.albedo(Vec3::new(0.5, 0.5, 0.5), Vec3::Y);
        let c1 = a.albedo(Vec3::new(1.5, 0.5, 0.5), Vec3::Y);
        assert_ne!(c0, c1);
    }

    #[test]
    fn noise_appearance_is_deterministic_and_bounded() {
        let a = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 4.0,
            octaves: 4,
        };
        let p = Vec3::new(0.3, -0.7, 1.1);
        let c1 = a.albedo(p, Vec3::Y);
        let c2 = a.albedo(p, Vec3::Y);
        assert_eq!(c1, c2);
        assert!(c1.r >= 0.0 && c1.r <= 1.0);
    }

    #[test]
    fn higher_frequency_means_higher_nominal_detail() {
        let coarse = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 2.0,
            octaves: 2,
        };
        let fine = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 16.0,
            octaves: 5,
        };
        assert!(fine.nominal_detail() > coarse.nominal_detail());
    }

    #[test]
    fn band_limiting_removes_checker_contrast() {
        let a = Appearance::Checker { a: Color::BLACK, b: Color::WHITE, scale: 8.0 };
        // With a generous cut-off the pattern is preserved; with a tiny one it
        // collapses to the mean.
        let sharp = a.albedo_band_limited(Vec3::new(0.51, 0.0, 0.0), Vec3::Y, 32.0);
        let blurred = a.albedo_band_limited(Vec3::new(0.51, 0.0, 0.0), Vec3::Y, 1.0);
        assert_ne!(sharp, blurred);
        assert!((blurred.r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn band_limiting_is_identity_above_the_full_bandwidth() {
        let a = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 4.0,
            octaves: 6,
        };
        let mut changed = 0;
        for i in 0..200 {
            let p = Vec3::new(i as f32 * 0.033, 0.0, 0.5);
            let full = a.albedo(p, Vec3::Y).r;
            // Cut-off above every octave frequency (4·2⁵ = 128): identical.
            assert!((a.albedo_band_limited(p, Vec3::Y, 256.0).r - full).abs() < 1e-6);
            // Cut-off below the base frequency: the texture loses detail.
            if (a.albedo_band_limited(p, Vec3::Y, 1.0).r - full).abs() > 1e-3 {
                changed += 1;
            }
        }
        assert!(changed > 100, "low cut-off changed only {changed}/200 samples");
    }

    #[test]
    fn studs_respond_to_normal_direction() {
        let a =
            Appearance::Studs { base: Color::gray(0.3), highlight: Color::WHITE, frequency: 6.0 };
        let up = a.albedo(Vec3::new(0.58, 1.0, 0.58), Vec3::Y);
        let side = a.albedo(Vec3::new(0.58, 1.0, 0.58), Vec3::X);
        assert!(up.luminance() >= side.luminance());
    }
}
