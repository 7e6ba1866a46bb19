//! Bake surfaces: the part of a bake that depends only on `(model, family,
//! g)`.
//!
//! A mesh-family bake is voxelise → extract + project the quad mesh →
//! texture the atlas at patch `p`. Only the last step reads `p`: the quad
//! mesh depends on `g` alone, and the patch size only sizes the per-quad
//! texture atlas (MobileNeRF's mesh + texture split). Likewise a splat
//! bake's boundary-cell seeds depend on the seed grid alone; only the
//! subsample + Newton refinement reads the splat count. A [`BakeSurface`]
//! is that shared part, and its `finish` is the per-config rest, so every
//! patch size (or splat count) of one grid can be baked from one surface.
//! [`crate::bake_object`] is the batch-of-one case of this composition,
//! and [`crate::BakeCache::get_or_bake_batch_placed`] shares one surface
//! across a batch's configurations of one `(family, g)`.

use crate::asset::{BakedAsset, Placement};
use crate::atlas::TextureAtlas;
use crate::config::{BakeConfig, BakeFamily};
use crate::mesh::QuadMesh;
use crate::splat::{boundary_cell_centers, SplatCloud};
use crate::voxel::VoxelGrid;
use nerflex_math::Vec3;
use nerflex_scene::object::ObjectModel;
use nerflex_scene::sdf::Sdf;
use std::sync::Arc;

/// The `(model, family, g)` part of a bake, shared by every configuration
/// of that family and grid: the projected quad mesh for the mesh family,
/// the boundary-cell seeds for the splat family, plus the voxel cell size
/// both finishes are scaled by.
#[derive(Debug)]
pub struct BakeSurface {
    grid: u32,
    /// Largest side of one voxel cell.
    cell: f32,
    shape: Shape,
}

#[derive(Debug)]
enum Shape {
    /// The projected quad mesh every patch size textures.
    Mesh(Arc<QuadMesh>),
    /// The boundary-cell centres every splat count subsamples.
    Splat(Vec<Vec3>),
}

impl BakeSurface {
    /// The surface every configuration of `config`'s family and grid
    /// shares.
    pub(crate) fn build(sdf: &Sdf, config: BakeConfig) -> Self {
        match config.family {
            BakeFamily::Mesh => Self::mesh(sdf, config.grid),
            BakeFamily::Splat { .. } => {
                let voxels = VoxelGrid::from_sdf(sdf, config.grid);
                Self {
                    grid: config.grid,
                    cell: voxels.cell_size().max_component(),
                    shape: Shape::Splat(boundary_cell_centers(&voxels)),
                }
            }
        }
    }

    /// The mesh-family surface of `sdf` at granularity `grid`: the quad
    /// mesh extracted from its `grid³` occupancy grid and projected onto
    /// the surface.
    pub fn mesh(sdf: &Sdf, grid: u32) -> Self {
        let voxels = VoxelGrid::from_sdf(sdf, grid);
        Self {
            grid,
            cell: voxels.cell_size().max_component(),
            shape: Shape::Mesh(Arc::new(QuadMesh::extract(&voxels, sdf))),
        }
    }

    /// The projected quad mesh (`None` for a splat-family surface).
    pub fn quad_mesh(&self) -> Option<&Arc<QuadMesh>> {
        match &self.shape {
            Shape::Mesh(mesh) => Some(mesh),
            Shape::Splat(_) => None,
        }
    }

    /// Highest texture frequency an atlas of `patch × patch` texels per
    /// quad can represent on this surface: half the texel sampling rate
    /// over a quad of one cell size (Nyquist).
    pub fn texel_cutoff(&self, patch: u32) -> f32 {
        0.5 * patch as f32 / self.cell.max(1e-6)
    }

    /// Finishes the local-frame bake of `model` at `config` from this
    /// surface: an atlas of the shared mesh at `config.patch`, textured on
    /// demand (each quad at its first read), or the shared seeds
    /// subsampled and refined to the splat count.
    ///
    /// # Panics
    ///
    /// Panics when `config`'s family or grid differs from the surface's.
    pub(crate) fn finish(&self, model: &ObjectModel, config: BakeConfig) -> BakedAsset {
        assert_eq!(config.grid, self.grid, "configuration grid differs from the surface's");
        let (mesh, atlas, splats) = match (&self.shape, config.family) {
            (Shape::Mesh(mesh), BakeFamily::Mesh) => {
                let atlas = TextureAtlas::on_demand(
                    Arc::clone(mesh),
                    &model.appearance,
                    config.patch,
                    self.texel_cutoff(config.patch),
                );
                (Arc::clone(mesh), atlas, None)
            }
            (Shape::Splat(seeds), BakeFamily::Splat { count }) => {
                let cloud = SplatCloud::refine(model, seeds, self.cell, count as usize);
                let atlas = TextureAtlas::from_raw(config.patch, 0, vec![]);
                (Arc::new(QuadMesh::default()), atlas, Some(Arc::new(cloud)))
            }
            _ => panic!("configuration family differs from the surface's"),
        };
        BakedAsset {
            name: model.name.clone(),
            object_id: 0,
            config,
            mesh,
            atlas: Arc::new(atlas),
            mlp: None,
            splats,
            placement: Placement::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    #[test]
    #[should_panic(expected = "family differs")]
    fn finishing_another_family_panics() {
        let model = CanonicalObject::Hotdog.build();
        let surface = BakeSurface::mesh(&model.sdf, 10);
        let _ = surface.finish(&model, BakeConfig::splat(10, 64));
    }

    #[test]
    #[should_panic(expected = "grid differs")]
    fn finishing_another_grid_panics() {
        let model = CanonicalObject::Hotdog.build();
        let surface = BakeSurface::mesh(&model.sdf, 10);
        let _ = surface.finish(&model, BakeConfig::new(12, 3));
    }
}
