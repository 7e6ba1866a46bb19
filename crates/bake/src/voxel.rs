//! Occupancy voxel grids sampled from a signed distance field.
//!
//! "During training, NeRF divides the entire rendering space into g³ voxels,
//! and meshes are subsequently formed based on neighboring voxels"
//! (paper §III-B). The grid is built over the object's bounding box, so the
//! effective cell size — and therefore the geometric fidelity — scales with
//! the granularity knob `g`.

use nerflex_math::simd::LANES;
use nerflex_math::{F32x4, Vec3, Vec3x4};
use nerflex_scene::sdf::Sdf;

/// A dense boolean occupancy grid of `g³` cells over an object's bounds.
#[derive(Debug, Clone)]
pub struct VoxelGrid {
    resolution: u32,
    origin: Vec3,
    cell_size: Vec3,
    occupancy: Vec<bool>,
}

impl VoxelGrid {
    /// Samples the SDF at every cell centre of a `resolution³` grid over the
    /// SDF's (slightly inflated) bounding box.
    ///
    /// Each row of cells is evaluated four centres along x per
    /// [`Sdf::distance_x4`] call, which is bit-identical per lane to
    /// [`Sdf::distance`]. A short last packet repeats its last centre and
    /// discards the extra lanes.
    ///
    /// # Panics
    ///
    /// Panics when `resolution` is zero.
    pub fn from_sdf(sdf: &Sdf, resolution: u32) -> Self {
        assert!(resolution > 0, "voxel resolution must be positive");
        let bounds = sdf.bounding_box().inflate(1e-3);
        let r = resolution as usize;
        let extent = bounds.extent();
        let cell_size = extent / resolution as f32;
        // A cell is occupied when its centre is within half a cell diagonal
        // of the surface interior; this keeps thin features (masts, studs)
        // present even at coarse granularities.
        let threshold = F32x4::splat(cell_size.max_component() * 0.5);
        let center = |i: usize, origin: f32, size: f32| origin + (i as f32 + 0.5) * size;
        let xs: Vec<f32> = (0..r).map(|x| center(x, bounds.min.x, cell_size.x)).collect();
        let mut occupancy = vec![false; r * r * r];
        for (z, slab) in occupancy.chunks_exact_mut(r * r).enumerate() {
            let cz = F32x4::splat(center(z, bounds.min.z, cell_size.z));
            for (y, row) in slab.chunks_exact_mut(r).enumerate() {
                let cy = F32x4::splat(center(y, bounds.min.y, cell_size.y));
                for (cells, xs) in row.chunks_mut(LANES).zip(xs.chunks(LANES)) {
                    let cx = F32x4(std::array::from_fn(|i| xs[i.min(xs.len() - 1)]));
                    let inside = sdf.distance_x4(Vec3x4::new(cx, cy, cz)).le(threshold);
                    for (lane, cell) in cells.iter_mut().enumerate() {
                        *cell = inside.lane(lane);
                    }
                }
            }
        }
        Self { resolution, origin: bounds.min, cell_size, occupancy }
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// World-space position of the grid origin (minimum corner).
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// World-space size of one cell.
    pub fn cell_size(&self) -> Vec3 {
        self.cell_size
    }

    /// Whether the cell `(x, y, z)` is occupied; out-of-range cells are empty.
    pub fn occupied(&self, x: i64, y: i64, z: i64) -> bool {
        let r = self.resolution as i64;
        if x < 0 || y < 0 || z < 0 || x >= r || y >= r || z >= r {
            return false;
        }
        self.occupancy[((z * r + y) * r + x) as usize]
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.occupancy.iter().filter(|&&b| b).count()
    }

    /// Fraction of occupied cells.
    pub fn occupancy_ratio(&self) -> f64 {
        self.occupied_count() as f64 / self.occupancy.len() as f64
    }

    /// World-space position of the lattice corner `(x, y, z)` (corner `(0,0,0)`
    /// is the grid origin).
    pub fn corner_position(&self, x: u32, y: u32, z: u32) -> Vec3 {
        self.origin
            + Vec3::new(
                x as f32 * self.cell_size.x,
                y as f32 * self.cell_size.y,
                z as f32 * self.cell_size.z,
            )
    }

    /// Number of boundary faces (occupied cell next to an empty cell); this is
    /// exactly the number of quads the mesh extractor will emit.
    pub fn boundary_face_count(&self) -> usize {
        let r = self.resolution as i64;
        let mut count = 0;
        for z in 0..r {
            for y in 0..r {
                for x in 0..r {
                    if !self.occupied(x, y, z) {
                        continue;
                    }
                    for (dx, dy, dz) in [
                        (1i64, 0i64, 0i64),
                        (-1, 0, 0),
                        (0, 1, 0),
                        (0, -1, 0),
                        (0, 0, 1),
                        (0, 0, -1),
                    ] {
                        if !self.occupied(x + dx, y + dy, z + dz) {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    #[test]
    fn sphere_occupancy_scales_with_volume() {
        let sphere = Sdf::Sphere { radius: 1.0 };
        let grid = VoxelGrid::from_sdf(&sphere, 24);
        // Sphere volume / bounding-box volume ≈ π/6 ≈ 0.52; the half-cell
        // tolerance inflates it slightly.
        let ratio = grid.occupancy_ratio();
        assert!(ratio > 0.4 && ratio < 0.75, "ratio = {ratio}");
    }

    #[test]
    fn out_of_range_cells_are_empty() {
        let grid = VoxelGrid::from_sdf(&Sdf::Sphere { radius: 0.5 }, 8);
        assert!(!grid.occupied(-1, 0, 0));
        assert!(!grid.occupied(8, 0, 0));
        assert!(grid.occupied(4, 4, 4));
    }

    #[test]
    fn finer_grids_have_more_boundary_faces() {
        let model = CanonicalObject::Chair.build();
        let coarse = VoxelGrid::from_sdf(&model.sdf, 12);
        let fine = VoxelGrid::from_sdf(&model.sdf, 36);
        assert!(fine.boundary_face_count() > coarse.boundary_face_count());
    }

    #[test]
    fn complexity_ordering_matches_canonical_ranks_at_fixed_grid() {
        // The measured geometric complexity (boundary faces at a reference
        // granularity) must respect hotdog < chair < lego, the extremes and
        // middle of the paper's ordering.
        let faces =
            |o: CanonicalObject| VoxelGrid::from_sdf(&o.build().sdf, 28).boundary_face_count();
        let hotdog = faces(CanonicalObject::Hotdog);
        let chair = faces(CanonicalObject::Chair);
        let lego = faces(CanonicalObject::Lego);
        assert!(hotdog < lego, "hotdog {hotdog} !< lego {lego}");
        assert!(chair < lego, "chair {chair} !< lego {lego}");
    }

    #[test]
    fn corner_positions_span_the_bounds() {
        let sphere = Sdf::Sphere { radius: 1.0 };
        let grid = VoxelGrid::from_sdf(&sphere, 10);
        let low = grid.corner_position(0, 0, 0);
        let high = grid.corner_position(10, 10, 10);
        let bb = sphere.bounding_box().inflate(1e-3);
        assert!((low - bb.min).length() < 1e-5);
        assert!((high - bb.max).length() < 1e-4);
    }

    /// The scalar voxelisation the lane packets replaced, kept as the
    /// reference: one [`Sdf::distance`] per cell centre.
    fn scalar_occupancy(sdf: &Sdf, resolution: u32) -> Vec<bool> {
        let bounds = sdf.bounding_box().inflate(1e-3);
        let r = resolution as usize;
        let cell_size = bounds.extent() / resolution as f32;
        let mut occupancy = vec![false; r * r * r];
        for z in 0..r {
            for y in 0..r {
                for x in 0..r {
                    let center = bounds.min
                        + Vec3::new(
                            (x as f32 + 0.5) * cell_size.x,
                            (y as f32 + 0.5) * cell_size.y,
                            (z as f32 + 0.5) * cell_size.z,
                        );
                    let d = sdf.distance(center);
                    occupancy[(z * r + y) * r + x] = d <= cell_size.max_component() * 0.5;
                }
            }
        }
        occupancy
    }

    #[test]
    fn lane_voxelisation_matches_the_scalar_loop_for_every_packet_tail() {
        // The real-world scenes' ground slab + displaced wall.
        let backdrop = Sdf::Box { half_extent: Vec3::new(3.2, 0.05, 3.2) }
            .translated(Vec3::new(0.0, -0.08, 0.0))
            .union(
                Sdf::Box { half_extent: Vec3::new(3.2, 1.4, 0.08) }
                    .translated(Vec3::new(0.0, 1.3, -2.8))
                    .displaced(0.02, 9.0),
            );
        let shapes = CanonicalObject::ALL.iter().map(|o| o.build().sdf).chain([backdrop]);
        for (i, sdf) in shapes.enumerate() {
            // Every `g mod 4`, so every length of short last packet.
            for g in [1, 2, 3, 5, 7, 24, 40] {
                let grid = VoxelGrid::from_sdf(&sdf, g);
                let r = g as i64;
                let lanes: Vec<bool> = (0..r)
                    .flat_map(|z| (0..r).flat_map(move |y| (0..r).map(move |x| (x, y, z))))
                    .map(|(x, y, z)| grid.occupied(x, y, z))
                    .collect();
                assert_eq!(lanes, scalar_occupancy(&sdf, g), "shape {i}, g={g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        let _ = VoxelGrid::from_sdf(&Sdf::Sphere { radius: 1.0 }, 0);
    }
}
