//! Texture atlas: `p × p` texels baked per quad face.
//!
//! "For each quad face, they allocate p×p pixels for its final appearance
//! texture" (paper §III-B). Texels are stored quantised to 8 bits per
//! channel — the same storage format the real systems ship as PNGs — so the
//! atlas byte size is exactly `quad_count · p² · 3`.

use crate::mesh::QuadMesh;
use nerflex_image::Color;
use nerflex_math::Vec3;
use nerflex_scene::appearance::Appearance;
use serde::{Deserialize, Serialize};

/// A per-quad texture atlas with `patch × patch` texels per quad.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextureAtlas {
    patch: u32,
    quad_count: usize,
    /// Quantised RGB texels, `quad_count · patch · patch` entries.
    data: Vec<[u8; 3]>,
}

impl TextureAtlas {
    /// Bakes the atlas for `mesh` from the object's procedural `appearance`.
    ///
    /// `texel_density_cutoff` is the highest spatial frequency (cycles per
    /// world unit) the atlas can represent; it is derived from the patch size
    /// and quad size by [`crate::BakeSurface::texel_cutoff`] and resolves the
    /// band-limited appearance sampler once for the whole atlas
    /// ([`Appearance::band_limited`]), so small patches yield blurrier
    /// textures, mirroring how a low-resolution baked texture loses detail.
    /// Every texel is bit-identical to evaluating
    /// [`Appearance::albedo_band_limited`] at the texel's
    /// [`QuadMesh::quad_point`] and [`QuadMesh::quad_normal`].
    ///
    /// # Panics
    ///
    /// Panics when `patch` is zero.
    pub fn bake(
        mesh: &QuadMesh,
        appearance: &Appearance,
        patch: u32,
        texel_density_cutoff: f32,
    ) -> Self {
        let mut sampler = appearance.band_limited(texel_density_cutoff);
        let normals = sampler.reads_normal();
        Self::bake_texels(mesh, patch, normals, |pos, normal| sampler.albedo(pos, normal))
    }

    /// Bakes the atlas with an arbitrary per-texel sampler `sampler(position,
    /// normal) → albedo`. Used by the Single-NeRF baseline, whose scene-level
    /// mesh spans objects with different appearances.
    ///
    /// # Panics
    ///
    /// Panics when `patch` is zero.
    pub fn bake_with(
        mesh: &QuadMesh,
        patch: u32,
        sampler: impl FnMut(Vec3, Vec3) -> Color,
    ) -> Self {
        Self::bake_texels(mesh, patch, true, sampler)
    }

    /// The texel loop of [`TextureAtlas::bake`] and
    /// [`TextureAtlas::bake_with`]. A quad's edge lerps depend only on the
    /// texel column, so they are computed once per column; the per-texel
    /// lerp between them is [`QuadMesh::quad_point`]'s last step. Normals
    /// are interpolated only when `normals` is set; otherwise the sampler
    /// receives [`Vec3::ZERO`].
    fn bake_texels(
        mesh: &QuadMesh,
        patch: u32,
        normals: bool,
        mut sampler: impl FnMut(Vec3, Vec3) -> Color,
    ) -> Self {
        assert!(patch > 0, "patch size must be positive");
        let p = patch as usize;
        let quad_count = mesh.quad_count();
        let mut data = vec![[0u8; 3]; quad_count * p * p];
        // Texel centres in patch space, the same along u and v.
        let centres: Vec<f32> = (0..p).map(|t| (t as f32 + 0.5) / patch as f32).collect();
        let mut edges = vec![(Vec3::ZERO, Vec3::ZERO); p];
        let mut normal_edges = vec![(Vec3::ZERO, Vec3::ZERO); if normals { p } else { 0 }];
        for (quad, texels) in mesh.quads.iter().zip(data.chunks_exact_mut(p * p)) {
            let corners = |values: &[Vec3]| quad.vertices.map(|i| values[i as usize]);
            let [p0, p1, p2, p3] = corners(&mesh.positions);
            for (edge, &u) in edges.iter_mut().zip(&centres) {
                *edge = (p0.lerp(p1, u), p3.lerp(p2, u));
            }
            if normals {
                let [n0, n1, n2, n3] = corners(&mesh.normals);
                for (edge, &u) in normal_edges.iter_mut().zip(&centres) {
                    *edge = (n0.lerp(n1, u), n3.lerp(n2, u));
                }
            }
            for (row, &v) in texels.chunks_exact_mut(p).zip(&centres) {
                for (tx, texel) in row.iter_mut().enumerate() {
                    let (bottom, top) = edges[tx];
                    let normal = match normal_edges.get(tx) {
                        Some(&(bottom, top)) => bottom.lerp(top, v).normalized(),
                        None => Vec3::ZERO,
                    };
                    let color = sampler(bottom.lerp(top, v), normal).clamped();
                    *texel = [
                        (color.r * 255.0).round() as u8,
                        (color.g * 255.0).round() as u8,
                        (color.b * 255.0).round() as u8,
                    ];
                }
            }
        }
        Self { patch, quad_count, data }
    }

    /// Reassembles an atlas from its raw parts (the persistence codec's
    /// inverse of [`TextureAtlas::texel_data`]).
    ///
    /// # Panics
    ///
    /// Panics when `patch` is zero or `data` does not hold exactly
    /// `quad_count · patch²` texels.
    pub fn from_raw(patch: u32, quad_count: usize, data: Vec<[u8; 3]>) -> Self {
        assert!(patch > 0, "patch size must be positive");
        assert_eq!(
            data.len(),
            quad_count * (patch as usize) * (patch as usize),
            "texel buffer does not match quad_count · patch²"
        );
        Self { patch, quad_count, data }
    }

    /// The raw quantised texel buffer (row-major per quad), as stored on disk.
    pub fn texel_data(&self) -> &[[u8; 3]] {
        &self.data
    }

    /// Texture patch side length in texels.
    pub fn patch(&self) -> u32 {
        self.patch
    }

    /// Number of quads covered by the atlas.
    pub fn quad_count(&self) -> usize {
        self.quad_count
    }

    /// Total number of texels.
    pub fn texel_count(&self) -> usize {
        self.data.len()
    }

    /// Storage size in bytes (3 bytes per texel).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 3
    }

    /// The colour of texel `(tx, ty)` of quad `q`.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn texel(&self, q: usize, tx: u32, ty: u32) -> Color {
        assert!(q < self.quad_count, "quad index {q} out of range");
        assert!(tx < self.patch && ty < self.patch, "texel ({tx},{ty}) out of range");
        let p = self.patch as usize;
        let [r, g, b] = self.data[(q * p + ty as usize) * p + tx as usize];
        Color::new(r as f32 / 255.0, g as f32 / 255.0, b as f32 / 255.0)
    }

    /// Bilinearly filtered sample of quad `q` at patch coordinates `(u, v)` in
    /// `[0, 1]²` (clamped).
    pub fn sample(&self, q: usize, u: f32, v: f32) -> Color {
        let p = self.patch as f32;
        let x = (u.clamp(0.0, 1.0) * p - 0.5).clamp(0.0, p - 1.0);
        let y = (v.clamp(0.0, 1.0) * p - 0.5).clamp(0.0, p - 1.0);
        let x0 = x.floor() as u32;
        let y0 = y.floor() as u32;
        let x1 = (x0 + 1).min(self.patch - 1);
        let y1 = (y0 + 1).min(self.patch - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let top = self.texel(q, x0, y0).lerp(self.texel(q, x1, y0), fx);
        let bottom = self.texel(q, x0, y1).lerp(self.texel(q, x1, y1), fx);
        top.lerp(bottom, fy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voxel::VoxelGrid;
    use nerflex_math::sampling::{fbm, value_noise};
    use nerflex_scene::object::CanonicalObject;
    use nerflex_scene::sdf::Sdf;

    fn small_mesh() -> QuadMesh {
        let sdf = Sdf::Sphere { radius: 0.8 };
        let grid = VoxelGrid::from_sdf(&sdf, 8);
        QuadMesh::extract(&grid, &sdf)
    }

    #[test]
    fn atlas_size_accounting_is_exact() {
        let mesh = small_mesh();
        let app = Appearance::Solid { color: Color::new(0.2, 0.5, 0.9) };
        let atlas = TextureAtlas::bake(&mesh, &app, 5, 100.0);
        assert_eq!(atlas.quad_count(), mesh.quad_count());
        assert_eq!(atlas.texel_count(), mesh.quad_count() * 25);
        assert_eq!(atlas.size_bytes(), mesh.quad_count() * 25 * 3);
    }

    #[test]
    fn solid_appearance_bakes_uniform_texels() {
        let mesh = small_mesh();
        let app = Appearance::Solid { color: Color::new(0.25, 0.5, 0.75) };
        let atlas = TextureAtlas::bake(&mesh, &app, 3, 100.0);
        let c = atlas.texel(0, 1, 1);
        assert!((c.r - 0.25).abs() < 0.01 && (c.g - 0.5).abs() < 0.01 && (c.b - 0.75).abs() < 0.01);
        // Bilinear sample of a uniform patch is the same colour.
        let s = atlas.sample(0, 0.37, 0.81);
        assert!(s.max_channel_diff(c) < 0.01);
    }

    #[test]
    fn larger_patches_reduce_texture_error_against_full_appearance() {
        let mesh = small_mesh();
        let app = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 8.0,
            octaves: 3,
        };
        // Mean error of baked texels relative to the full-bandwidth appearance;
        // the cut-off grows with the patch size (as in `bake_object`), so
        // larger patches must reproduce the texture more faithfully.
        let mean_error = |patch: u32| {
            let cutoff = patch as f32 / 0.2; // pretend quads are 0.2 units wide
            let atlas = TextureAtlas::bake(&mesh, &app, patch, cutoff);
            let mut err = 0.0f64;
            let mut count = 0.0f64;
            for q in 0..atlas.quad_count() {
                for ty in 0..patch {
                    for tx in 0..patch {
                        let u = (tx as f32 + 0.5) / patch as f32;
                        let v = (ty as f32 + 0.5) / patch as f32;
                        let reference =
                            app.albedo(mesh.quad_point(q, u, v), mesh.quad_normal(q, u, v));
                        err += atlas.texel(q, tx, ty).max_channel_diff(reference) as f64;
                        count += 1.0;
                    }
                }
            }
            err / count
        };
        let coarse = mean_error(3);
        let fine = mean_error(9);
        assert!(fine < coarse, "texture error should shrink with patch size: {coarse} -> {fine}");
        assert!(fine < 0.02, "full-bandwidth bake should be near-exact, got {fine}");
    }

    /// The per-texel band limit the resolved sampler replaced, decided
    /// again at every point through the one-shot noise functions (whose
    /// cached form `nerflex-math` pins against the uncached trilinear loop).
    fn reference_albedo(app: &Appearance, p: Vec3, n: Vec3, cutoff: f32) -> Color {
        match app {
            Appearance::Solid { color } => *color,
            Appearance::Checker { a, b, scale } => {
                if *scale <= cutoff {
                    app.albedo(p, n)
                } else {
                    a.lerp(*b, 0.5)
                }
            }
            Appearance::Noise { base, accent, frequency, octaves } => {
                let mut usable = 0u32;
                let mut f = *frequency;
                for _ in 0..*octaves {
                    if f <= cutoff {
                        usable += 1;
                    }
                    f *= 2.0;
                }
                if usable == 0 {
                    let t = value_noise(p, cutoff.min(*frequency));
                    return base.lerp(*accent, 0.25 + 0.5 * t);
                }
                let t = fbm(p, *frequency, usable);
                base.lerp(*accent, t)
            }
            Appearance::Stripes { a, b, frequency } => {
                if *frequency <= cutoff {
                    app.albedo(p, n)
                } else {
                    a.lerp(*b, 0.5)
                }
            }
            Appearance::Studs { base, highlight, frequency } => {
                if *frequency <= cutoff {
                    app.albedo(p, n)
                } else {
                    base.lerp(*highlight, 0.3 * n.y.max(0.0))
                }
            }
        }
    }

    /// The per-texel atlas loop the column lerps replaced: position and
    /// normal interpolated at every texel, whatever the appearance reads.
    fn reference_bake(mesh: &QuadMesh, app: &Appearance, patch: u32, cutoff: f32) -> Vec<[u8; 3]> {
        let p = patch as usize;
        let mut data = vec![[0u8; 3]; mesh.quad_count() * p * p];
        for q in 0..mesh.quad_count() {
            for ty in 0..p {
                for tx in 0..p {
                    let u = (tx as f32 + 0.5) / patch as f32;
                    let v = (ty as f32 + 0.5) / patch as f32;
                    let pos = mesh.quad_point(q, u, v);
                    let normal = mesh.quad_normal(q, u, v);
                    let color = reference_albedo(app, pos, normal, cutoff).clamped();
                    data[(q * p + ty) * p + tx] = [
                        (color.r * 255.0).round() as u8,
                        (color.g * 255.0).round() as u8,
                        (color.b * 255.0).round() as u8,
                    ];
                }
            }
        }
        data
    }

    #[test]
    fn bake_matches_the_per_texel_reference_bit_for_bit() {
        let (a, b) = (Color::new(0.9, 0.2, 0.1), Color::new(0.1, 0.3, 0.8));
        let noise = |octaves| Appearance::Noise { base: a, accent: b, frequency: 3.0, octaves };
        let appearances = [
            Appearance::Solid { color: a },
            Appearance::Checker { a, b, scale: 8.0 },
            // Octaves at 3, 6, 12, 24: cut-offs 2, 10 and 100 keep 0, 2 and 4.
            noise(4),
            noise(0),
            Appearance::Stripes { a, b, frequency: 6.0 },
            Appearance::Studs { base: a, highlight: b, frequency: 6.0 },
        ];
        let lego = CanonicalObject::Lego.build().sdf;
        let meshes = [(Sdf::Sphere { radius: 0.8 }, 8), (lego, 6)].map(|(sdf, g)| {
            let grid = VoxelGrid::from_sdf(&sdf, g);
            QuadMesh::extract(&grid, &sdf)
        });
        for (m, mesh) in meshes.iter().enumerate() {
            for app in &appearances {
                for patch in [1, 3, 6, 9] {
                    for cutoff in [2.0, 10.0, 100.0] {
                        let baked = TextureAtlas::bake(mesh, app, patch, cutoff);
                        let reference = reference_bake(mesh, app, patch, cutoff);
                        let first_diff =
                            baked.texel_data().iter().zip(&reference).position(|(x, y)| x != y);
                        assert_eq!(
                            first_diff, None,
                            "mesh {m}, {app:?}, patch {patch}, cutoff {cutoff}"
                        );
                        assert_eq!(baked.texel_count(), reference.len());
                    }
                }
            }
        }
    }

    #[test]
    fn quantisation_error_is_bounded() {
        let mesh = small_mesh();
        let app = Appearance::Solid { color: Color::new(0.1234, 0.5678, 0.9012) };
        let atlas = TextureAtlas::bake(&mesh, &app, 3, 10.0);
        let c = atlas.texel(0, 0, 0);
        assert!(c.max_channel_diff(Color::new(0.1234, 0.5678, 0.9012)) <= 0.5 / 255.0 + 1e-4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_texel_panics() {
        let mesh = small_mesh();
        let atlas = TextureAtlas::bake(&mesh, &Appearance::Solid { color: Color::WHITE }, 3, 10.0);
        let _ = atlas.texel(0, 3, 0);
    }
}
