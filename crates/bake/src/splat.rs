//! Gaussian-splat extraction — the second baked-representation family
//! (ISSUE 10).
//!
//! A [`SplatCloud`] approximates the object's surface with oriented
//! anisotropic gaussians instead of a quad mesh + texture atlas. Seed
//! points come from the boundary cells of the same [`VoxelGrid`] the mesh
//! family extracts from; each seed is refined onto the zero level set with
//! Newton steps along [`Sdf::normal`](nerflex_scene::sdf::Sdf::normal),
//! coloured by the appearance model, and flattened along its surface
//! normal. The splat count is the family's quality axis — more splats
//! means smaller, denser gaussians and a sharper reconstruction — playing
//! the role the patch size plays for the mesh family.
//!
//! The device-side counterpart lives in `nerflex-render::splat`: a
//! deterministic depth-sorted back-to-front compositor under the
//! repo-wide bit-identity contract (`docs/determinism.md`); the full
//! family design is documented in `docs/splats.md`.
//!
//! Extraction is deterministic: boundary cells are walked in the fixed
//! `z, y, x` grid order (the same order as
//! [`VoxelGrid::boundary_face_count`]), subsampling is a pure function of
//! (seed index, target count), and every per-splat value is scalar
//! sequential arithmetic — so extraction is trivially cacheable through
//! the content-addressed [`BakeCache`](crate::BakeCache).

use crate::config::BakeConfig;
use crate::voxel::VoxelGrid;
use nerflex_math::{Aabb, Vec3};
use nerflex_scene::object::ObjectModel;

/// Exact on-device (and on-disk payload) size of one splat in bytes:
/// position 3×f32 + scale 3×f32 + Y-rotation f32 + RGB u8×3 + opacity u8.
pub const SPLAT_BYTES: usize = 32;

/// Opacity assigned to every extracted splat (≈ 0.9 — high enough that a
/// few overlapping layers saturate, low enough that edges blend).
pub const SPLAT_OPACITY: u8 = 230;

/// One oriented anisotropic gaussian in the object's local frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Splat {
    /// Centre, on the SDF zero level set (local frame).
    pub position: Vec3,
    /// Per-local-axis standard deviations. The cloud is flattened along
    /// the surface normal (see [`SplatCloud::extract`]).
    pub scale: Vec3,
    /// Rotation about the local Y axis in radians, chosen so the local
    /// `+z` axis points along the horizontal component of the surface
    /// normal (the same single-angle orientation convention as
    /// [`Placement`](crate::Placement)).
    pub rotation_y: f32,
    /// Quantised sRGB albedo at the splat centre.
    pub color: [u8; 3],
    /// Quantised opacity (255 = opaque).
    pub opacity: u8,
}

/// An immutable cloud of [`Splat`]s — the splat family's entire baked
/// payload (no mesh, no atlas, no MLP).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SplatCloud {
    splats: Vec<Splat>,
}

impl SplatCloud {
    /// Wraps an already-built splat list (used by the disk codec).
    pub fn from_splats(splats: Vec<Splat>) -> Self {
        Self { splats }
    }

    /// The splats, in extraction order (fixed `z, y, x` seed order).
    pub fn splats(&self) -> &[Splat] {
        &self.splats
    }

    /// Number of splats actually extracted (≤ the requested count when the
    /// surface has fewer boundary cells than the budget).
    pub fn len(&self) -> usize {
        self.splats.len()
    }

    /// `true` when the cloud holds no splats.
    pub fn is_empty(&self) -> bool {
        self.splats.is_empty()
    }

    /// Exact payload size in bytes ([`SPLAT_BYTES`] per splat).
    pub fn size_bytes(&self) -> usize {
        self.splats.len() * SPLAT_BYTES
    }

    /// Local-frame bounding box: every centre inflated by its 3σ radius
    /// (the compositor's evaluation cut-off). Empty clouds return the
    /// empty box.
    pub fn bounding_box(&self) -> Aabb {
        let mut b = Aabb::empty();
        for s in &self.splats {
            let r = 3.0 * s.scale.max_component();
            b.expand_point(s.position - Vec3::splat(r));
            b.expand_point(s.position + Vec3::splat(r));
        }
        b
    }

    /// Extracts a splat cloud from the object's SDF surface.
    ///
    /// Seeds are the centres of the voxel grid's boundary cells (occupied
    /// with at least one empty 6-neighbour), walked in `z, y, x` order.
    /// When more seeds exist than the configuration's splat count, an
    /// even-stride subsample keeps exactly `count` of them. Each kept seed
    /// is projected onto the zero level set with two Newton steps
    /// `p ← p − d(p)·n(p)`, coloured by the appearance model at the
    /// refined point, and given an anisotropic scale: an in-surface radius
    /// sized so the kept splats still cover the boundary area, and a ~3×
    /// thinner radius along the surface normal (expressed through the
    /// single Y-rotation: the thin axis is local `z` for horizontal
    /// normals, local `y` for vertical ones, blended by `|n_y|`).
    ///
    /// # Panics
    ///
    /// Panics when `config` is not a splat-family configuration.
    pub fn extract(model: &ObjectModel, config: BakeConfig) -> Self {
        let target =
            config.splat_count().expect("splat extraction needs a splat-family config") as usize;
        let grid = VoxelGrid::from_sdf(&model.sdf, config.grid);
        Self::refine(model, &boundary_cell_centers(&grid), grid.cell_size().max_component(), target)
    }

    /// The count-dependent half of [`SplatCloud::extract`]: subsamples
    /// `target` of the boundary-cell `seeds` (cells of side `cell`),
    /// refines, colours and sizes them. The seeds depend only on
    /// `(model, grid)`, so every splat count of one grid shares them
    /// ([`crate::BakeSurface`]).
    pub(crate) fn refine(model: &ObjectModel, seeds: &[Vec3], cell: f32, target: usize) -> Self {
        if seeds.is_empty() {
            return Self::default();
        }

        // Even-stride subsample: seed (i·n)/kept for i in 0..kept — a pure
        // function of (i, n, target), independent of everything else.
        // Below the budget (kept = n) it keeps every seed.
        let n = seeds.len();
        let kept = n.min(target);

        // In-surface radius: boundary cells tile the surface at one cell
        // per cell-width; keeping `kept` of `n` seeds spreads each splat
        // over n/kept cells of area, i.e. √(n/kept) cell widths.
        let spread = (n as f32 / kept as f32).sqrt();
        let radius = (0.85 * cell * spread).clamp(0.5 * cell, 6.0 * cell);
        let thin = 0.35 * radius;

        let splats = (0..kept)
            .map(|i| {
                let mut p = seeds[i * n / kept];
                for _ in 0..2 {
                    p = p - model.sdf.normal(p) * model.sdf.distance(p);
                }
                let normal = model.sdf.normal(p);
                let c = model.appearance.albedo(p, normal).clamped();
                let quantize = |v: f32| (v * 255.0).round() as u8;
                // Blend the thin axis between local z (horizontal normal)
                // and local y (vertical normal) — the two orientations a
                // single Y-rotation can express.
                let ny = normal.y.abs();
                Splat {
                    position: p,
                    scale: Vec3::new(
                        radius,
                        radius + (thin - radius) * ny,
                        thin + (radius - thin) * ny,
                    ),
                    rotation_y: normal.x.atan2(normal.z),
                    color: [quantize(c.r), quantize(c.g), quantize(c.b)],
                    opacity: SPLAT_OPACITY,
                }
            })
            .collect();
        Self { splats }
    }
}

/// Centres of every boundary cell (occupied, ≥ 1 empty 6-neighbour), in
/// the fixed `z, y, x` order of [`VoxelGrid::boundary_face_count`].
pub(crate) fn boundary_cell_centers(grid: &VoxelGrid) -> Vec<Vec3> {
    let r = grid.resolution() as i64;
    let half = grid.cell_size() * 0.5;
    let mut centers = Vec::new();
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                if !grid.occupied(x, y, z) {
                    continue;
                }
                let exposed = !grid.occupied(x - 1, y, z)
                    || !grid.occupied(x + 1, y, z)
                    || !grid.occupied(x, y - 1, z)
                    || !grid.occupied(x, y + 1, z)
                    || !grid.occupied(x, y, z - 1)
                    || !grid.occupied(x, y, z + 1);
                if exposed {
                    centers.push(grid.corner_position(x as u32, y as u32, z as u32) + half);
                }
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    fn cloud(count: u32) -> SplatCloud {
        let model = CanonicalObject::Hotdog.build();
        SplatCloud::extract(&model, BakeConfig::splat(20, count))
    }

    #[test]
    fn extraction_respects_the_requested_count() {
        let big = cloud(4096);
        let small = cloud(256);
        assert_eq!(small.len(), 256, "dense surface must saturate the budget");
        assert!(big.len() > small.len());
        assert!(big.len() <= 4096);
        assert_eq!(small.size_bytes(), 256 * SPLAT_BYTES);
    }

    #[test]
    fn splats_sit_on_the_surface() {
        let model = CanonicalObject::Hotdog.build();
        let cloud = SplatCloud::extract(&model, BakeConfig::splat(24, 1024));
        assert!(!cloud.is_empty());
        let cell = VoxelGrid::from_sdf(&model.sdf, 24).cell_size().max_component();
        for s in cloud.splats() {
            let d = model.sdf.distance(s.position).abs();
            assert!(d < cell, "splat {d} further than a cell from the surface");
            assert_eq!(s.opacity, SPLAT_OPACITY);
            assert!(s.scale.x > 0.0 && s.scale.y > 0.0 && s.scale.z > 0.0);
        }
    }

    #[test]
    fn fewer_splats_grow_larger_radii() {
        // Coverage compensation: a smaller budget must spread each splat
        // over more surface, not leave holes.
        let sparse = cloud(128);
        let dense = cloud(2048);
        let radius = |c: &SplatCloud| c.splats()[0].scale.x;
        assert!(radius(&sparse) > radius(&dense));
    }

    #[test]
    fn extraction_is_deterministic() {
        assert_eq!(cloud(512), cloud(512));
    }

    #[test]
    fn bounding_box_contains_every_splat() {
        let c = cloud(512);
        let b = c.bounding_box();
        assert!(!b.is_empty());
        for s in c.splats() {
            assert!(b.contains(s.position));
        }
        assert_eq!(SplatCloud::default().bounding_box(), Aabb::empty());
    }

    #[test]
    #[should_panic(expected = "splat-family")]
    fn mesh_config_is_rejected() {
        let model = CanonicalObject::Hotdog.build();
        let _ = SplatCloud::extract(&model, BakeConfig::new(20, 5));
    }
}
