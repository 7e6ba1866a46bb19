//! # nerflex-render
//!
//! Software renderer for baked assets — the stand-in for the WebGL rendering
//! engine the paper runs on the phones. Baked quad meshes are rasterised
//! with a z-buffer, textured from the atlas and shaded with the shared
//! analytic shading model, so the images it produces can be compared
//! pixel-for-pixel against the ray-marched ground truth.
//!
//! ```
//! use nerflex_bake::{bake_object, BakeConfig};
//! use nerflex_render::{render_assets, RenderOptions};
//! use nerflex_scene::object::CanonicalObject;
//! use nerflex_scene::camera_path::orbit_path;
//! use nerflex_math::Vec3;
//!
//! let asset = bake_object(&CanonicalObject::Hotdog.build(), BakeConfig::new(16, 5));
//! let pose = orbit_path(Vec3::new(0.0, 0.2, 0.0), 2.5, 0.4, 4)[0];
//! let (image, stats) = render_assets(&[asset], &pose, 64, 64, &RenderOptions::default());
//! assert_eq!(image.width(), 64);
//! assert!(stats.quads_submitted > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod camera;
pub mod framebuffer;
pub mod raster;
pub mod renderer;
pub mod splat;

pub use framebuffer::Framebuffer;
pub use renderer::{render_assets, RenderOptions, RenderStats};
pub use splat::composite_splats;
