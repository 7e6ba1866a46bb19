//! Texture atlas: `p × p` texels baked per quad face.
//!
//! "For each quad face, they allocate p×p pixels for its final appearance
//! texture" (paper §III-B). Texels are stored quantised to 8 bits per
//! channel — the same storage format the real systems ship as PNGs — so the
//! atlas byte size is exactly `quad_count · p² · 3`.
//!
//! An atlas holds its texels in one of two ways. A *baked* atlas
//! ([`TextureAtlas::bake`], [`TextureAtlas::from_raw`]) holds every texel
//! in one contiguous buffer. The atlas a bake surface finishes is *on
//! demand*: it textures a quad at the quad's first read
//! ([`TextureAtlas::quad_texels`], and so [`TextureAtlas::texel`] and
//! [`TextureAtlas::sample`]), once, with the same per-quad loop as
//! [`TextureAtlas::bake`]. Profiling needs an atlas's size, which reads no
//! texel, and two small probe renders, which read a fraction of its quads;
//! only the persistence encoder reads them all. A texel is a pure function
//! of (mesh, quad, appearance, patch, cut-off), so which thread textures a
//! quad, and when, never changes a bit (`docs/determinism.md`).

use crate::mesh::QuadMesh;
use nerflex_image::Color;
use nerflex_math::Vec3;
use nerflex_scene::appearance::{Appearance, BandLimited};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A per-quad texture atlas with `patch × patch` texels per quad.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TextureAtlas {
    patch: u32,
    quad_count: usize,
    texels: Texels,
}

#[derive(Debug, Clone)]
enum Texels {
    /// Quantised RGB texels, `quad_count · patch²` entries, quad after
    /// quad, each quad row-major.
    Baked(Vec<[u8; 3]>),
    /// Each quad's texels, textured at the quad's first read.
    OnDemand(OnDemand),
}

/// One quad's quantised texels, row-major.
type QuadTexels = Box<[[u8; 3]]>;

/// What an on-demand atlas textures its quads from, and the quads
/// textured so far.
#[derive(Debug, Clone)]
struct OnDemand {
    mesh: Arc<QuadMesh>,
    /// The appearance with its band limit resolved once for the atlas;
    /// each quad's texturing runs its own clone.
    sampler: BandLimited,
    quads: Box<[OnceLock<QuadTexels>]>,
    /// Runs of the per-quad loop, so tests can check that each quad is
    /// textured at most once.
    #[cfg(test)]
    texturings: Arc<std::sync::atomic::AtomicUsize>,
}

impl OnDemand {
    /// Textures quad `q` through the per-quad loop, with a clone of the
    /// atlas's resolved sampler.
    fn texture(&self, patch: u32, q: usize) -> QuadTexels {
        #[cfg(test)]
        self.texturings.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut sampler = self.sampler.clone();
        let mut texturer = QuadTexturer::new(patch, sampler.reads_normal());
        let mut texels = vec![[0u8; 3]; texturer.texels_per_quad()].into_boxed_slice();
        texturer
            .texture(&self.mesh, q, &mut texels, &mut |pos, normal| sampler.albedo(pos, normal));
        texels
    }
}

/// The per-quad texel loop of every atlas: the texel centres in patch
/// space (the same along u and v) and the column edge-lerp scratch,
/// reused across the quads an eager bake textures.
struct QuadTexturer {
    centres: Vec<f32>,
    edges: Vec<(Vec3, Vec3)>,
    /// Empty when the sampler does not read normals.
    normal_edges: Vec<(Vec3, Vec3)>,
}

impl QuadTexturer {
    /// # Panics
    ///
    /// Panics when `patch` is zero.
    fn new(patch: u32, normals: bool) -> Self {
        assert!(patch > 0, "patch size must be positive");
        let p = patch as usize;
        Self {
            centres: (0..p).map(|t| (t as f32 + 0.5) / patch as f32).collect(),
            edges: vec![(Vec3::ZERO, Vec3::ZERO); p],
            normal_edges: vec![(Vec3::ZERO, Vec3::ZERO); if normals { p } else { 0 }],
        }
    }

    fn texels_per_quad(&self) -> usize {
        self.centres.len() * self.centres.len()
    }

    /// Textures quad `q` of `mesh` into `texels` (row-major). A quad's
    /// edge lerps depend only on the texel column, so they are computed
    /// once per column; the per-texel lerp between them is
    /// [`QuadMesh::quad_point`]'s last step. Normals are interpolated only
    /// when the texturer was made for a sampler that reads them; otherwise
    /// the sampler receives [`Vec3::ZERO`].
    fn texture(
        &mut self,
        mesh: &QuadMesh,
        q: usize,
        texels: &mut [[u8; 3]],
        sampler: &mut impl FnMut(Vec3, Vec3) -> Color,
    ) {
        let quad = &mesh.quads[q];
        let corners = |values: &[Vec3]| quad.vertices.map(|i| values[i as usize]);
        let [p0, p1, p2, p3] = corners(&mesh.positions);
        for (edge, &u) in self.edges.iter_mut().zip(&self.centres) {
            *edge = (p0.lerp(p1, u), p3.lerp(p2, u));
        }
        if !self.normal_edges.is_empty() {
            let [n0, n1, n2, n3] = corners(&mesh.normals);
            for (edge, &u) in self.normal_edges.iter_mut().zip(&self.centres) {
                *edge = (n0.lerp(n1, u), n3.lerp(n2, u));
            }
        }
        for (row, &v) in texels.chunks_exact_mut(self.centres.len()).zip(&self.centres) {
            for (tx, texel) in row.iter_mut().enumerate() {
                let (bottom, top) = self.edges[tx];
                let normal = match self.normal_edges.get(tx) {
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
}

/// The colour a quantised texel stands for.
fn texel_color([r, g, b]: [u8; 3]) -> Color {
    Color::new(r as f32 / 255.0, g as f32 / 255.0, b as f32 / 255.0)
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
    /// This bakes every texel now; a bake surface's atlas is the same
    /// atlas textured on demand.
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

    /// Every quad of [`TextureAtlas::bake`] and [`TextureAtlas::bake_with`]
    /// through the per-quad loop, into one buffer.
    fn bake_texels(
        mesh: &QuadMesh,
        patch: u32,
        normals: bool,
        mut sampler: impl FnMut(Vec3, Vec3) -> Color,
    ) -> Self {
        let mut texturer = QuadTexturer::new(patch, normals);
        let quad_count = mesh.quad_count();
        let mut data = vec![[0u8; 3]; quad_count * texturer.texels_per_quad()];
        for (q, texels) in data.chunks_exact_mut(texturer.texels_per_quad()).enumerate() {
            texturer.texture(mesh, q, texels, &mut sampler);
        }
        Self { patch, quad_count, texels: Texels::Baked(data) }
    }

    /// The atlas [`TextureAtlas::bake`] bakes from the same arguments,
    /// textured one quad at a time at each quad's first read. The band
    /// limit is resolved here, once.
    ///
    /// # Panics
    ///
    /// Panics when `patch` is zero.
    pub(crate) fn on_demand(
        mesh: Arc<QuadMesh>,
        appearance: &Appearance,
        patch: u32,
        texel_density_cutoff: f32,
    ) -> Self {
        assert!(patch > 0, "patch size must be positive");
        let quad_count = mesh.quad_count();
        let texels = Texels::OnDemand(OnDemand {
            mesh,
            sampler: appearance.band_limited(texel_density_cutoff),
            quads: (0..quad_count).map(|_| OnceLock::new()).collect(),
            #[cfg(test)]
            texturings: Arc::default(),
        });
        Self { patch, quad_count, texels }
    }

    /// Reassembles an atlas from its raw parts (the persistence codec's
    /// inverse of writing [`TextureAtlas::quad_texels`] quad after quad).
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
        Self { patch, quad_count, texels: Texels::Baked(data) }
    }

    /// The quantised texels of quad `q`, row-major, as stored on disk. The
    /// first read of a quad of an on-demand atlas textures it; concurrent
    /// first readers wait for that one texturing.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn quad_texels(&self, q: usize) -> &[[u8; 3]] {
        assert!(q < self.quad_count, "quad index {q} out of range");
        match &self.texels {
            Texels::Baked(data) => {
                let len = (self.patch as usize).pow(2);
                &data[q * len..(q + 1) * len]
            }
            Texels::OnDemand(lazy) => lazy.quads[q].get_or_init(|| lazy.texture(self.patch, q)),
        }
    }

    /// Texture patch side length in texels.
    pub fn patch(&self) -> u32 {
        self.patch
    }

    /// Number of quads covered by the atlas.
    pub fn quad_count(&self) -> usize {
        self.quad_count
    }

    /// Total number of texels (whether textured yet or not).
    pub fn texel_count(&self) -> usize {
        self.quad_count * (self.patch as usize) * (self.patch as usize)
    }

    /// Storage size in bytes (3 bytes per texel); textures nothing.
    pub fn size_bytes(&self) -> usize {
        self.texel_count() * 3
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
        texel_color(self.quad_texels(q)[ty as usize * p + tx as usize])
    }

    /// Bilinearly filtered sample of quad `q` at patch coordinates `(u, v)` in
    /// `[0, 1]²` (clamped).
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn sample(&self, q: usize, u: f32, v: f32) -> Color {
        let texels = self.quad_texels(q);
        let p = self.patch as f32;
        let x = (u.clamp(0.0, 1.0) * p - 0.5).clamp(0.0, p - 1.0);
        let y = (v.clamp(0.0, 1.0) * p - 0.5).clamp(0.0, p - 1.0);
        let side = self.patch as usize;
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(side - 1);
        let y1 = (y0 + 1).min(side - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let at = |tx: usize, ty: usize| texel_color(texels[ty * side + tx]);
        let top = at(x0, y0).lerp(at(x1, y0), fx);
        let bottom = at(x0, y1).lerp(at(x1, y1), fx);
        top.lerp(bottom, fy)
    }
}

impl PartialEq for TextureAtlas {
    /// Texel-for-texel equality, quad by quad (reading, and so texturing,
    /// every quad of an on-demand atlas).
    fn eq(&self, other: &Self) -> bool {
        self.patch == other.patch
            && self.quad_count == other.quad_count
            && (0..self.quad_count).all(|q| self.quad_texels(q) == other.quad_texels(q))
    }
}

impl Eq for TextureAtlas {}

#[cfg(test)]
impl TextureAtlas {
    /// Runs of the per-quad loop on this on-demand atlas so far (0 for a
    /// baked one).
    pub(crate) fn texturings(&self) -> usize {
        match &self.texels {
            Texels::Baked(_) => 0,
            Texels::OnDemand(lazy) => lazy.texturings.load(std::sync::atomic::Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::BakeSurface;
    use crate::voxel::VoxelGrid;
    use nerflex_math::sampling::{fbm, value_noise};
    use nerflex_math::WorkerPool;
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
            Arc::new(QuadMesh::extract(&grid, &sdf))
        });
        for (m, mesh) in meshes.iter().enumerate() {
            let n = mesh.quad_count();
            // On-demand atlases read their quads in reverse, and in a
            // stride-7 order that revisits the start on every pass.
            let reverse: Vec<usize> = (0..n).rev().collect();
            let stride: Vec<usize> = (0..7).flat_map(|start| (start..n).step_by(7)).collect();
            for app in &appearances {
                for patch in [1, 3, 6, 9] {
                    let texels = (patch * patch) as usize;
                    for cutoff in [2.0, 10.0, 100.0] {
                        let case = format!("mesh {m}, {app:?}, patch {patch}, cutoff {cutoff}");
                        let reference = reference_bake(mesh, app, patch, cutoff);
                        let expected = |q: usize| &reference[q * texels..(q + 1) * texels];
                        let baked = TextureAtlas::bake(mesh, app, patch, cutoff);
                        let first_diff = (0..n).position(|q| baked.quad_texels(q) != expected(q));
                        assert_eq!(first_diff, None, "{case}");
                        assert_eq!(baked.texel_count(), reference.len());
                        for order in [&reverse, &stride] {
                            let lazy =
                                TextureAtlas::on_demand(Arc::clone(mesh), app, patch, cutoff);
                            let first_diff =
                                order.iter().position(|&q| lazy.quad_texels(q) != expected(q));
                            assert_eq!(first_diff, None, "on demand, {case}");
                            assert_eq!(lazy.texturings(), n, "each quad once, {case}");
                            assert_eq!(lazy.texel_count(), reference.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_readers_texture_each_quad_once() {
        let model = CanonicalObject::Hotdog.build();
        let surface = BakeSurface::mesh(&model.sdf, 12);
        let mesh = surface.quad_mesh().expect("a mesh surface");
        let (patch, cutoff) = (5, surface.texel_cutoff(5));
        let eager = TextureAtlas::bake(mesh, &model.appearance, patch, cutoff);
        let n = mesh.quad_count();
        // Four overlapping orders: forward, forward with each pair of
        // quads swapped, and the same two backwards, so the jobs keep
        // reaching the same untextured quads at the same time.
        let swapped = |i: usize| if i ^ 1 < n { i ^ 1 } else { i };
        let orders: [Vec<usize>; 4] = [
            (0..n).collect(),
            (0..n).map(swapped).collect(),
            (0..n).rev().collect(),
            (0..n).rev().map(swapped).collect(),
        ];
        for round in 0..3 {
            let lazy = TextureAtlas::on_demand(Arc::clone(mesh), &model.appearance, patch, cutoff);
            let mismatches = WorkerPool::shared().run(orders.len(), orders.len(), |job| {
                orders[job].iter().filter(|&&q| lazy.quad_texels(q) != eager.quad_texels(q)).count()
            });
            assert_eq!(mismatches, [0; 4], "round {round}");
            assert_eq!(lazy.texturings(), n, "round {round}: each quad textured exactly once");
            assert!(lazy == eager);
        }
    }

    #[test]
    fn sampling_reads_the_quad_it_samples() {
        let mesh = Arc::new(small_mesh());
        let app = Appearance::Noise {
            base: Color::BLACK,
            accent: Color::WHITE,
            frequency: 8.0,
            octaves: 3,
        };
        let eager = TextureAtlas::bake(&mesh, &app, 4, 10.0);
        let lazy = TextureAtlas::on_demand(Arc::clone(&mesh), &app, 4, 10.0);
        assert_eq!((lazy.size_bytes(), lazy.texturings()), (eager.size_bytes(), 0));
        for (q, u, v) in [(3, 0.1, 0.9), (3, 0.6, 0.2), (0, 1.0, 0.0), (7, 0.5, 0.5)] {
            assert_eq!(lazy.sample(q, u, v), eager.sample(q, u, v));
            assert_eq!(lazy.texel(q, 3, 0), eager.texel(q, 3, 0));
        }
        assert_eq!(lazy.texturings(), 3, "only quads 0, 3 and 7 were read");
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
