//! Versioned binary on-disk format for cached [`BakedAsset`]s.
//!
//! The vendored `serde` shim is a capability marker with no wire format, so
//! persistence is a small hand-rolled codec: explicit little-endian fields,
//! a magic number, a format version, and a trailing checksum. This module is
//! **pure codec** — the bake store's [`crate::store::EntryCodec`] half. The
//! store policy (lazy index, flush, pruning) lives in [`crate::store`]; the
//! storage mechanism lives in [`crate::backend`].
//!
//! Every entry file is self-contained and self-validating:
//!
//! ```text
//! magic "NFBC" | version u32 | fingerprint u64
//! family u8 (0 = mesh, 1 = splat) | grid u32 | axis2 u32
//!   (axis2 is the family's second knob: patch side for meshes, splat
//!    count for splats)
//! name (u32 len + UTF-8 bytes)
//! family 0 payload:
//!   mesh:  vertex count u32, quad count u32,
//!          positions [3×f32]*, normals [3×f32]*,
//!          quads [4×u32 indices + 3×f32 face normal]*
//!   atlas: patch u32, quad count u64, texel count u64, texels [3×u8]*
//!   mlp:   present u8, then per layer: rows u32 × cols u32 + row-major
//!          f32 weights, and the bias vectors
//! family 1 payload:
//!   splat count u64, then per splat: position 3×f32, scale 3×f32,
//!   rotation_y f32, rgb 3×u8, opacity u8 (32 bytes)
//! checksum: FNV-1a u64 over every preceding byte
//! ```
//!
//! Decoding is total: any truncation, bad magic, version mismatch or
//! checksum failure yields a [`DecodeError`] instead of a panic, so a
//! corrupted cache directory degrades to re-baking the damaged entries.

use crate::asset::{BakedAsset, Placement};
use crate::atlas::TextureAtlas;
use crate::cache::{fnv1a, Fnv1a};
use crate::config::{BakeConfig, BakeFamily};
use crate::mesh::{Quad, QuadMesh};
use crate::mlp::TinyMlp;
use crate::splat::{Splat, SplatCloud, SPLAT_BYTES};
use nerflex_math::Vec3;
use std::sync::Arc;

/// Version of the on-disk entry format. Bump on ANY layout change: readers
/// reject foreign versions (no migration — entries are a cache, re-baking is
/// always correct), so a bump simply invalidates persisted entries.
/// Version 2 added the representation-family tag and the splat payload
/// (ISSUE 10).
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Magic bytes identifying a NeRFlex bake-cache entry file.
pub const MAGIC: [u8; 4] = *b"NFBC";

/// File extension used for entry files.
pub const ENTRY_EXTENSION: &str = "nfbake";

/// Why a persisted entry failed to decode. All variants are recoverable: the
/// caller skips the entry and re-bakes on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the expected field.
    Truncated,
    /// The magic bytes are not [`MAGIC`].
    BadMagic,
    /// The entry was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// A decoded field is structurally impossible (e.g. a quad index out of
    /// range, a zero patch size, mismatched layer shapes).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "entry truncated"),
            DecodeError::BadMagic => write!(f, "not a bake-cache entry"),
            DecodeError::VersionMismatch { found } => {
                write!(f, "format version {found} (expected {CACHE_FORMAT_VERSION})")
            }
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f32(out, v.x);
    put_f32(out, v.y);
    put_f32(out, v.z);
}

/// Serializes one local-frame cache entry (`fingerprint` is the content key
/// the entry is stored under; the asset's placement and object id are *not*
/// persisted — the cache stores placement-free assets).
pub fn encode_entry(fingerprint: u64, asset: &BakedAsset) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + asset.size_bytes());
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, CACHE_FORMAT_VERSION);
    put_u64(&mut out, fingerprint);
    out.push(asset.config.family.tag());
    put_u32(&mut out, asset.config.grid);
    put_u32(&mut out, asset.config.axis2());

    put_u32(&mut out, asset.name.len() as u32);
    out.extend_from_slice(asset.name.as_bytes());

    // Splat-family entries carry only the cloud — no mesh/atlas/MLP
    // sections at all.
    if let BakeFamily::Splat { .. } = asset.config.family {
        let cloud = asset.splats.as_deref();
        let splats = cloud.map_or(&[][..], SplatCloud::splats);
        put_u64(&mut out, splats.len() as u64);
        for s in splats {
            put_vec3(&mut out, s.position);
            put_vec3(&mut out, s.scale);
            put_f32(&mut out, s.rotation_y);
            out.extend_from_slice(&s.color);
            out.push(s.opacity);
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        return out;
    }

    // Mesh.
    let mesh = &asset.mesh;
    put_u32(&mut out, mesh.vertex_count() as u32);
    put_u32(&mut out, mesh.quad_count() as u32);
    for p in &mesh.positions {
        put_vec3(&mut out, *p);
    }
    for n in &mesh.normals {
        put_vec3(&mut out, *n);
    }
    for quad in &mesh.quads {
        for idx in quad.vertices {
            put_u32(&mut out, idx);
        }
        put_vec3(&mut out, quad.face_normal);
    }

    // Atlas: the one reader of every texel, so this is where an on-demand
    // atlas textures the quads no render has read.
    let atlas = &asset.atlas;
    put_u32(&mut out, atlas.patch());
    put_u64(&mut out, atlas.quad_count() as u64);
    put_u64(&mut out, atlas.texel_count() as u64);
    for q in 0..atlas.quad_count() {
        for texel in atlas.quad_texels(q) {
            out.extend_from_slice(texel);
        }
    }

    // Optional deferred-shading MLP.
    match &asset.mlp {
        None => out.push(0),
        Some(mlp) => {
            out.push(1);
            let (weights, biases) = mlp.parameters();
            put_u32(&mut out, weights.len() as u32);
            for (layer, bias) in weights.iter().zip(biases) {
                put_u32(&mut out, layer.len() as u32);
                put_u32(&mut out, layer.first().map_or(0, Vec::len) as u32);
                for row in layer {
                    for &w in row {
                        put_f32(&mut out, w);
                    }
                }
                for &b in bias {
                    put_f32(&mut out, b);
                }
            }
        }
    }

    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over an entry buffer.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Guards an upcoming `count`-element allocation: the elements occupy at
    /// least `count · elem_bytes` of the remaining buffer, so a declared
    /// count that cannot possibly fit is rejected *before* any allocation.
    /// This is what keeps decoding total even for checksum-consistent files
    /// that declare absurd counts (a buggy writer, a hand-crafted file): the
    /// entry is skipped instead of aborting the process on a huge
    /// `Vec::with_capacity`.
    fn expect_elements(&self, count: usize, elem_bytes: usize) -> Result<(), DecodeError> {
        let needed = count.checked_mul(elem_bytes).ok_or(DecodeError::Truncated)?;
        if needed > self.bytes.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn vec3(&mut self) -> Result<Vec3, DecodeError> {
        Ok(Vec3::new(self.f32()?, self.f32()?, self.f32()?))
    }
}

/// Deserializes one cache entry, returning the content key it was stored
/// under and the reconstructed local-frame asset.
pub fn decode_entry(bytes: &[u8]) -> Result<(u64, BakeConfig, Arc<BakedAsset>), DecodeError> {
    // Validate the envelope before touching the payload: magic, version,
    // then the trailing checksum over everything that precedes it.
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(DecodeError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut cursor = Cursor { bytes, pos: MAGIC.len() };
    let version = cursor.u32()?;
    if version != CACHE_FORMAT_VERSION {
        return Err(DecodeError::VersionMismatch { found: version });
    }
    let body_len = bytes.len() - 8;
    let stored_checksum = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    if fnv1a(&bytes[..body_len]) != stored_checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    let mut cursor = Cursor { bytes: &bytes[..body_len], pos: cursor.pos };

    let fingerprint = cursor.u64()?;
    let family_tag = cursor.take(1)?[0];
    let grid = cursor.u32()?;
    let axis2 = cursor.u32()?;
    if grid == 0 || axis2 == 0 {
        return Err(DecodeError::Malformed("zero configuration knob"));
    }
    let config = match family_tag {
        0 => BakeConfig::new(grid, axis2),
        1 => BakeConfig::splat(grid, axis2),
        _ => return Err(DecodeError::Malformed("unknown representation family")),
    };

    let name_len = cursor.u32()? as usize;
    let name = std::str::from_utf8(cursor.take(name_len)?)
        .map_err(|_| DecodeError::Malformed("name is not UTF-8"))?
        .to_string();

    // Splat payload: the cloud is the entire asset.
    if family_tag == 1 {
        let stored = cursor.u64()? as usize;
        if stored > axis2 as usize {
            return Err(DecodeError::Malformed("more splats than the configured count"));
        }
        cursor.expect_elements(stored, SPLAT_BYTES)?;
        let mut splats = Vec::with_capacity(stored);
        for _ in 0..stored {
            let position = cursor.vec3()?;
            let scale = cursor.vec3()?;
            let rotation_y = cursor.f32()?;
            let rgba = cursor.take(4)?;
            splats.push(Splat {
                position,
                scale,
                rotation_y,
                color: [rgba[0], rgba[1], rgba[2]],
                opacity: rgba[3],
            });
        }
        if cursor.pos != body_len {
            return Err(DecodeError::Malformed("trailing bytes after payload"));
        }
        let asset = BakedAsset {
            name,
            object_id: 0,
            config,
            mesh: Arc::new(QuadMesh::default()),
            atlas: Arc::new(TextureAtlas::from_raw(config.patch, 0, vec![])),
            mlp: None,
            splats: Some(Arc::new(SplatCloud::from_splats(splats))),
            placement: Placement::default(),
        };
        return Ok((fingerprint, config, Arc::new(asset)));
    }

    // Mesh.
    let vertex_count = cursor.u32()? as usize;
    let quad_count = cursor.u32()? as usize;
    // Positions and normals are 12 bytes each, quads 28 (4×u32 + Vec3).
    cursor.expect_elements(vertex_count, 24)?;
    cursor.expect_elements(quad_count, 28)?;
    let mut positions = Vec::with_capacity(vertex_count);
    for _ in 0..vertex_count {
        positions.push(cursor.vec3()?);
    }
    let mut normals = Vec::with_capacity(vertex_count);
    for _ in 0..vertex_count {
        normals.push(cursor.vec3()?);
    }
    let mut quads = Vec::with_capacity(quad_count);
    for _ in 0..quad_count {
        let mut vertices = [0u32; 4];
        for v in &mut vertices {
            *v = cursor.u32()?;
            if *v as usize >= vertex_count {
                return Err(DecodeError::Malformed("quad index out of range"));
            }
        }
        quads.push(Quad { vertices, face_normal: cursor.vec3()? });
    }
    let mesh = QuadMesh { positions, normals, quads };

    // Atlas.
    let atlas_patch = cursor.u32()?;
    let atlas_quads = cursor.u64()? as usize;
    let texel_count = cursor.u64()? as usize;
    if atlas_patch == 0 {
        return Err(DecodeError::Malformed("zero atlas patch"));
    }
    // The key's patch size is what the selector budgeted: an atlas of any
    // other patch size must not be served under it.
    if atlas_patch != config.patch {
        return Err(DecodeError::Malformed("atlas patch differs from the configuration"));
    }
    // The atlas allocates one patch per mesh quad; a mismatch would decode
    // fine but panic at render time on the first out-of-range quad index.
    if atlas_quads != quad_count {
        return Err(DecodeError::Malformed("atlas quad count differs from mesh"));
    }
    let expected_texels = (atlas_patch as usize)
        .checked_mul(atlas_patch as usize)
        .and_then(|pp| pp.checked_mul(atlas_quads));
    if expected_texels != Some(texel_count) {
        return Err(DecodeError::Malformed("atlas texel count mismatch"));
    }
    cursor.expect_elements(texel_count, 3)?;
    let mut data = Vec::with_capacity(texel_count);
    for _ in 0..texel_count {
        let t = cursor.take(3)?;
        data.push([t[0], t[1], t[2]]);
    }
    let atlas = TextureAtlas::from_raw(atlas_patch, atlas_quads, data);

    // Optional MLP.
    let mlp = match cursor.take(1)?[0] {
        0 => None,
        1 => {
            let layer_count = cursor.u32()? as usize;
            if layer_count == 0 || layer_count > 64 {
                return Err(DecodeError::Malformed("implausible MLP layer count"));
            }
            let mut weights = Vec::with_capacity(layer_count);
            let mut biases = Vec::with_capacity(layer_count);
            for _ in 0..layer_count {
                let rows = cursor.u32()? as usize;
                let cols = cursor.u32()? as usize;
                if rows == 0 || cols == 0 {
                    return Err(DecodeError::Malformed("empty MLP layer"));
                }
                // rows × cols weights plus rows biases, 4 bytes each.
                cursor.expect_elements(rows, cols.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
                let mut layer = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(cursor.f32()?);
                    }
                    layer.push(row);
                }
                let mut bias = Vec::with_capacity(rows);
                for _ in 0..rows {
                    bias.push(cursor.f32()?);
                }
                weights.push(layer);
                biases.push(bias);
            }
            Some(
                TinyMlp::from_parameters(weights, biases)
                    .map_err(|_| DecodeError::Malformed("inconsistent MLP shapes"))?,
            )
        }
        _ => return Err(DecodeError::Malformed("bad MLP presence flag")),
    };

    if cursor.pos != body_len {
        return Err(DecodeError::Malformed("trailing bytes after payload"));
    }

    let asset = BakedAsset {
        name,
        object_id: 0,
        config,
        mesh: Arc::new(mesh),
        atlas: Arc::new(atlas),
        mlp,
        splats: None,
        placement: Placement::default(),
    };
    Ok((fingerprint, config, Arc::new(asset)))
}

/// The canonical file name of an entry:
/// `"{fingerprint:016x}-g{g}-p{p}.nfbake"` for the mesh family,
/// `"{fingerprint:016x}-g{g}-s{count}.nfbake"` for the splat family.
pub fn entry_file_name(fingerprint: u64, config: BakeConfig) -> String {
    match config.family {
        BakeFamily::Mesh => {
            format!("{fingerprint:016x}-g{}-p{}.{ENTRY_EXTENSION}", config.grid, config.patch)
        }
        BakeFamily::Splat { count } => {
            format!("{fingerprint:016x}-g{}-s{count}.{ENTRY_EXTENSION}", config.grid)
        }
    }
}

/// Parses an [`entry_file_name`] back into its `(fingerprint, config)` key.
/// Returns `None` for foreign file names — the basis of the store's lazy
/// index: [`crate::BakeCache::open`] keys the directory by file name alone
/// and defers decoding to the first lookup.
pub fn parse_entry_file_name(name: &str) -> Option<(u64, BakeConfig)> {
    let stem = name.strip_suffix(&format!(".{ENTRY_EXTENSION}"))?;
    let mut parts = stem.split('-');
    let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
    let grid: u32 = parts.next()?.strip_prefix('g')?.parse().ok()?;
    // The third part's prefix selects the family: `p` = mesh patch,
    // `s` = splat count.
    let axis2 = parts.next()?;
    let (splat, axis2) = match axis2.strip_prefix('p') {
        Some(rest) => (false, rest),
        None => (true, axis2.strip_prefix('s')?),
    };
    let axis2: u32 = axis2.parse().ok()?;
    // Reject zero knobs here: the config constructors assert positivity,
    // and a foreign `-g0-`/`-p0-`/`-s0-` file name must be ignored, not a
    // panic.
    if grid == 0 || axis2 == 0 || parts.next().is_some() {
        return None;
    }
    let config = if splat { BakeConfig::splat(grid, axis2) } else { BakeConfig::new(grid, axis2) };
    Some((fingerprint, config))
}

/// The canonical byte representation of one *placed* asset: its entry
/// encoding (keyed by instance id) followed by the placement bit patterns.
/// This is the single definition of "byte-identical deployment output" —
/// the fig9 `deployment_fingerprint` and the shared-store integration tests
/// both build on it, so the two checks can never drift apart.
pub fn placed_asset_bytes(asset: &BakedAsset) -> Vec<u8> {
    let mut bytes = encode_entry(asset.object_id as u64, asset);
    for v in [
        asset.placement.translation.x,
        asset.placement.translation.y,
        asset.placement.translation.z,
        asset.placement.scale,
        asset.placement.rotation_y,
    ] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    bytes
}

/// FNV-1a over every asset's [`placed_asset_bytes`]: a stable byte-level
/// fingerprint of a whole deployment.
pub fn deployment_fingerprint(assets: &[BakedAsset]) -> u64 {
    let mut h = Fnv1a::new();
    for asset in assets {
        h.write(&placed_asset_bytes(asset));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::bake_object;
    use crate::surface::BakeSurface;
    use nerflex_scene::object::CanonicalObject;

    fn sample_asset(with_mlp: bool) -> BakedAsset {
        let model = CanonicalObject::Hotdog.build();
        let mut asset = bake_object(&model, BakeConfig::new(12, 3));
        if with_mlp {
            asset.mlp = Some(TinyMlp::shading_model(7));
        }
        asset
    }

    fn splat_asset() -> BakedAsset {
        let model = CanonicalObject::Hotdog.build();
        bake_object(&model, BakeConfig::splat(16, 512))
    }

    /// Offset of the first payload count field (mesh vertex count / stored
    /// splat count): the fixed header (magic, version, fingerprint, family
    /// tag, grid, axis2, name length) plus the name bytes.
    fn payload_count_offset(asset: &BakedAsset) -> usize {
        MAGIC.len() + 4 + 8 + 1 + 4 + 4 + 4 + asset.name.len()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        for with_mlp in [false, true] {
            let asset = sample_asset(with_mlp);
            let bytes = encode_entry(0xdead_beef, &asset);
            let (fp, config, decoded) = decode_entry(&bytes).expect("decodes");
            assert_eq!(fp, 0xdead_beef);
            assert_eq!(config, asset.config);
            assert_eq!(decoded.name, asset.name);
            assert_eq!(*decoded.mesh, *asset.mesh);
            assert_eq!(*decoded.atlas, *asset.atlas);
            assert_eq!(decoded.mlp, asset.mlp);
            assert_eq!(decoded.size_bytes(), asset.size_bytes());
            // Placement is never persisted: entries are local-frame.
            assert_eq!(decoded.placement, Placement::default());
            assert_eq!(decoded.object_id, 0);
        }
    }

    #[test]
    fn splat_round_trip_preserves_every_field() {
        let asset = splat_asset();
        let bytes = encode_entry(0xfeed_f00d, &asset);
        let (fp, config, decoded) = decode_entry(&bytes).expect("decodes");
        assert_eq!(fp, 0xfeed_f00d);
        assert_eq!(config, asset.config);
        assert_eq!(config.splat_count(), Some(512));
        assert_eq!(decoded.name, asset.name);
        assert_eq!(
            decoded.splats.as_deref().expect("cloud survives"),
            asset.splats.as_deref().expect("cloud baked")
        );
        assert_eq!(decoded.size_bytes(), asset.size_bytes());
        assert_eq!(decoded.mesh.quad_count(), 0);
        assert_eq!(decoded.placement, Placement::default());
        // Re-encoding a decoded entry is byte-identical: cached and fresh
        // assets produce the same `placed_asset_bytes`.
        assert_eq!(encode_entry(0xfeed_f00d, &decoded), bytes);
    }

    #[test]
    fn on_demand_assets_size_and_encode_like_eager_ones() {
        let model = CanonicalObject::Lego.build();
        let splat = bake_object(&model, BakeConfig::splat(12, 128));
        for config in [BakeConfig::new(12, 3), BakeConfig::new(10, 6)] {
            let cutoff = BakeSurface::mesh(&model.sdf, config.grid).texel_cutoff(config.patch);
            let eager_of = |lazy: &BakedAsset| BakedAsset {
                atlas: Arc::new(TextureAtlas::bake(
                    &lazy.mesh,
                    &model.appearance,
                    config.patch,
                    cutoff,
                )),
                ..lazy.clone()
            };
            let untouched = bake_object(&model, config);
            let eager = eager_of(&untouched);
            assert_eq!(untouched.size_mb().to_bits(), eager.size_mb().to_bits(), "{config:?}");
            assert_eq!(untouched.atlas.texturings(), 0, "sizing textures nothing");
            // A partly read atlas (a probe render's reads) and an untouched
            // one both encode to the eager bytes, and only encoding forces
            // the rest.
            let partly = bake_object(&model, config);
            let quads = partly.atlas.quad_count();
            for q in (0..quads).rev().step_by(3) {
                let _ = partly.atlas.quad_texels(q);
            }
            assert_eq!(partly.atlas.texturings(), quads.div_ceil(3));
            for lazy in [&untouched, &partly] {
                assert!(encode_entry(7, lazy) == encode_entry(7, &eager), "{config:?}");
                assert_eq!(lazy.atlas.texturings(), quads, "each quad textured once");
            }
            // A deployment mixing on-demand mesh assets with a splat asset
            // fingerprints like the eager one.
            let fresh = bake_object(&model, config);
            assert_eq!(
                deployment_fingerprint(&[fresh, splat.clone()]),
                deployment_fingerprint(&[eager_of(&untouched), splat.clone()])
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for asset in [sample_asset(false), splat_asset()] {
            let bytes = encode_entry(1, &asset);
            // Every strict prefix must fail cleanly (checksum or
            // truncation), never panic.
            for len in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
                assert!(decode_entry(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
            }
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        for asset in [sample_asset(false), splat_asset()] {
            let bytes = encode_entry(1, &asset);
            for pos in [MAGIC.len() + 4, bytes.len() / 2, bytes.len() - 9] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 0x40;
                assert!(decode_entry(&corrupt).is_err(), "bit flip at {pos} not detected");
            }
        }
    }

    #[test]
    fn foreign_versions_are_rejected_not_misread() {
        for asset in [sample_asset(false), splat_asset()] {
            let mut bytes = encode_entry(1, &asset);
            bytes[4..8].copy_from_slice(&(CACHE_FORMAT_VERSION + 1).to_le_bytes());
            // Fix up the checksum so only the version differs.
            let body = bytes.len() - 8;
            let sum = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                decode_entry(&bytes).err(),
                Some(DecodeError::VersionMismatch { found: CACHE_FORMAT_VERSION + 1 })
            );
        }
    }

    #[test]
    fn unknown_family_tags_are_rejected() {
        let asset = sample_asset(false);
        let mut bytes = encode_entry(1, &asset);
        let family_offset = MAGIC.len() + 4 + 8;
        assert_eq!(bytes[family_offset], 0, "offset arithmetic drifted from the format");
        bytes[family_offset] = 9;
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_entry(&bytes).err(),
            Some(DecodeError::Malformed("unknown representation family"))
        );
    }

    #[test]
    fn checksum_consistent_absurd_counts_are_rejected_without_allocating() {
        // A hostile or buggy-writer entry can be checksum-consistent yet
        // declare counts that would allocate terabytes. Decoding must reject
        // it (skip-one-entry semantics), not abort the process.
        let asset = sample_asset(false);
        let bytes = encode_entry(1, &asset);
        // vertex_count sits right after the fixed header and the name.
        let vertex_count_offset = payload_count_offset(&asset);
        assert_eq!(
            u32::from_le_bytes(
                bytes[vertex_count_offset..vertex_count_offset + 4].try_into().expect("4")
            ) as usize,
            asset.mesh.vertex_count(),
            "offset arithmetic drifted from the format"
        );
        let mut hostile = bytes.clone();
        hostile[vertex_count_offset..vertex_count_offset + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let body = hostile.len() - 8;
        let sum = fnv1a(&hostile[..body]);
        hostile[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_entry(&hostile).err(), Some(DecodeError::Truncated));
    }

    #[test]
    fn checksum_consistent_atlas_of_another_patch_is_rejected() {
        // A writer that files a p=3 atlas under a p=5 key produces an entry
        // whose checksum, counts and texels are all self-consistent; only
        // the header/atlas patch comparison catches it.
        let mut asset = sample_asset(false);
        assert_eq!(asset.atlas.patch(), 3);
        asset.config = BakeConfig::new(asset.config.grid, 5);
        let hostile = encode_entry(1, &asset);
        assert_eq!(
            decode_entry(&hostile).err(),
            Some(DecodeError::Malformed("atlas patch differs from the configuration"))
        );
    }

    #[test]
    fn checksum_consistent_absurd_splat_counts_are_rejected() {
        // Same guard for the splat payload: an inflated stored-splat count
        // is caught by the configured-count bound, never allocated.
        let asset = splat_asset();
        let bytes = encode_entry(1, &asset);
        let count_offset = payload_count_offset(&asset);
        let stored =
            u64::from_le_bytes(bytes[count_offset..count_offset + 8].try_into().expect("8"))
                as usize;
        assert_eq!(
            stored,
            asset.splats.as_deref().expect("cloud").len(),
            "offset arithmetic drifted from the format"
        );
        let mut hostile = bytes.clone();
        hostile[count_offset..count_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = hostile.len() - 8;
        let sum = fnv1a(&hostile[..body]);
        hostile[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_entry(&hostile).err(),
            Some(DecodeError::Malformed("more splats than the configured count"))
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_entry(1, &sample_asset(false));
        bytes[0] = b'X';
        assert_eq!(decode_entry(&bytes).err(), Some(DecodeError::BadMagic));
        assert!(decode_entry(&[]).is_err());
    }

    #[test]
    fn entry_file_names_are_unique_per_key() {
        let a = entry_file_name(7, BakeConfig::new(10, 3));
        let b = entry_file_name(7, BakeConfig::new(10, 5));
        let c = entry_file_name(8, BakeConfig::new(10, 3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.ends_with(".nfbake"));
        // The family is part of the name: a splat entry with the same grid
        // and numeric second knob never collides with a mesh entry.
        let s = entry_file_name(7, BakeConfig::splat(10, 3));
        assert_ne!(a, s);
        assert!(s.contains("-s3."));
    }

    #[test]
    fn entry_file_names_parse_back_to_their_key() {
        let key = (0x2f1c_66aa_0194_5f10u64, BakeConfig::new(30, 6));
        assert_eq!(parse_entry_file_name(&entry_file_name(key.0, key.1)), Some(key));
        let splat_key = (0x2f1c_66aa_0194_5f10u64, BakeConfig::splat(24, 2048));
        assert_eq!(
            parse_entry_file_name(&entry_file_name(splat_key.0, splat_key.1)),
            Some(splat_key)
        );
        assert_eq!(parse_entry_file_name("garbage.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10-p3-extra.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10-p3.other"), None);
        assert_eq!(parse_entry_file_name("zz-g10-p3.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10-q3.nfbake"), None);
        // Zero knobs must be ignored, not panic via the config constructors.
        assert_eq!(parse_entry_file_name("0123-g0-p3.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10-p0.nfbake"), None);
        assert_eq!(parse_entry_file_name("0123-g10-s0.nfbake"), None);
    }
}
