//! Decoder totality: the bake-entry decoder (`disk::decode_entry`) and the
//! ground-truth codec's decoder return a value or an error on any input
//! and never panic.
//!
//! Random bytes mostly stop at the envelope (magic, version, checksum), so
//! the stronger properties mutate valid mesh, mesh + MLP, splat and
//! ground-truth entries (byte flips, truncations, header-field overwrites,
//! splices) and reseal each mutant with a fresh FNV-1a checksum: the body
//! parsers then run on every mutant.

use nerflex::bake::disk::{decode_entry, encode_entry, MAGIC};
use nerflex::bake::store::EntryCodec;
use nerflex::bake::{bake_object, fnv1a, BakeConfig, TinyMlp, CACHE_FORMAT_VERSION};
use nerflex::image::{Color, Image};
use nerflex::profile::ground_truth::{GtEntryCodec, GT_FORMAT_VERSION, GT_MAGIC};
use nerflex::profile::measurement::{MeasurementSettings, ObjectGroundTruth};
use nerflex::scene::object::{CanonicalObject, ObjectModel};
use proptest::collection;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Mutants drawn per property case and entry.
const MUTANTS: usize = 8;

/// SplitMix64: the mutation choices of one property case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Rewrites the trailing FNV-1a checksum over everything before it, so the
/// decoder's envelope check passes and its body parser runs.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// One to four mutations of `entry`, resealed. `fields` are the byte
/// offsets and widths of the entry's header fields.
fn mutate(entry: &[u8], fields: &[(usize, usize)], mix: &mut Mix) -> Vec<u8> {
    let mut m = entry.to_vec();
    for _ in 0..1 + mix.below(4) {
        let len = m.len();
        match mix.below(5) {
            // Byte flip.
            0 if len > 0 => {
                let at = mix.below(len);
                m[at] ^= 1 + mix.below(255) as u8;
            }
            // Truncation.
            1 => m.truncate(mix.below(len + 1)),
            // Header-field overwrite with a boundary or random value.
            2 => {
                let (at, width) = fields[mix.below(fields.len())];
                let value = match mix.below(5) {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX,
                    3 => u64::from(u32::MAX),
                    _ => mix.next() >> mix.below(64),
                };
                if at + width <= len {
                    m[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                }
            }
            // Splice: a copy of one range of the entry over another place.
            3 if len > 0 => {
                let from = mix.below(len);
                let span = mix.below(len - from + 1);
                let chunk = m[from..from + span].to_vec();
                let to = mix.below(len);
                let end = (to + span).min(len);
                m[to..end].copy_from_slice(&chunk[..end - to]);
            }
            // Splice: insert or delete a run of bytes.
            _ => {
                let at = mix.below(len + 1);
                if mix.below(2) == 0 {
                    let run: Vec<u8> = (0..1 + mix.below(64)).map(|_| mix.next() as u8).collect();
                    m.splice(at..at, run);
                } else {
                    let end = (at + 1 + mix.below(64)).min(len);
                    m.drain(at..end);
                }
            }
        }
    }
    reseal(&mut m);
    m
}

fn panics(decode: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(decode)).is_err()
}

/// An entry's bytes and its header fields as `(offset, width)`.
type Entry = (Vec<u8>, Vec<(usize, usize)>);

/// Valid bake entries: mesh, mesh + MLP, splat, with their header fields
/// (version, fingerprint, family, grid, axis2, name length, first payload
/// count), built and round-trip checked once.
fn bake_entries() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(build_bake_entries)
}

/// A 6-16-16-3 network (the shape `DEFAULT_MLP_BYTES` charges) whose
/// parameters are fixed and pairwise distinct.
fn fixed_mlp() -> TinyMlp {
    let widths = [6, 16, 16, 3];
    let mut k = 0u16;
    let mut next = || {
        k += 1;
        f32::from(k) / 64.0 - 2.0
    };
    let weights = widths
        .windows(2)
        .map(|w| (0..w[1]).map(|_| (0..w[0]).map(|_| next()).collect()).collect())
        .collect();
    let biases = widths[1..].iter().map(|&n| (0..n).map(|_| next()).collect()).collect();
    TinyMlp::from_parameters(weights, biases).expect("consistent shapes")
}

fn build_bake_entries() -> Vec<Entry> {
    let model = CanonicalObject::Hotdog.build();
    let mesh = bake_object(&model, BakeConfig::new(6, 2));
    let mut with_mlp = mesh.clone();
    with_mlp.mlp = Some(fixed_mlp());
    let splat = bake_object(&model, BakeConfig::splat(8, 64));
    [mesh, with_mlp, splat]
        .into_iter()
        .map(|asset| {
            let bytes = encode_entry(0x5eed, &asset);
            let (_, config, decoded) = decode_entry(&bytes).expect("a valid entry decodes");
            assert_eq!(config, asset.config);
            assert_eq!(encode_entry(0x5eed, &decoded), bytes, "unmutated entries round-trip");
            let payload = MAGIC.len() + 4 + 8 + 1 + 4 + 4 + 4 + asset.name.len();
            let fields = vec![
                (4, 4),
                (8, 8),
                (16, 1),
                (17, 4),
                (21, 4),
                (25, 4),
                (payload, 8),
                (payload + 4, 4),
            ];
            (bytes, fields)
        })
        .collect()
}

fn gt_settings() -> MeasurementSettings {
    MeasurementSettings { views: 2, resolution: 6, ..MeasurementSettings::default() }
}

/// A valid ground-truth entry, its key, and its header fields (version,
/// fingerprint, views, resolution, first image's width and height).
fn gt_entry(model: &ObjectModel) -> ((u64, usize, usize), Entry) {
    let settings = gt_settings();
    let images = (0..settings.views)
        .map(|v| Image::from_fn(6, 6, |x, y| Color::new(x as f32 * 0.1, y as f32 * 0.2, v as f32)))
        .collect();
    let gt = ObjectGroundTruth::from_images(model, &settings, images).expect("images fit");
    let key = (0x5eed_u64, settings.views, settings.resolution);
    let bytes = GtEntryCodec::encode(&key, &gt);
    let decoded = GtEntryCodec::decode(&key, &bytes, (model, &settings)).expect("round trip");
    assert_eq!(decoded.images, gt.images, "unmutated entries round-trip");
    (key, (bytes, vec![(4, 4), (8, 8), (16, 4), (20, 4), (24, 4), (28, 4)]))
}

proptest! {
    #[test]
    fn bake_decoder_is_total_on_random_bytes(
        body in collection::vec(0u32..256, 0..600),
        enveloped in any::<bool>(),
    ) {
        let mut bytes: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        if enveloped {
            let mut head = MAGIC.to_vec();
            head.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
            bytes.splice(0..0, head);
            bytes.extend_from_slice(&[0; 8]);
            reseal(&mut bytes);
        }
        prop_assert!(!panics(|| drop(decode_entry(&bytes))), "panicked on {bytes:?}");
    }

    #[test]
    fn bake_decoder_is_total_on_resealed_mutations(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        for (entry, fields) in bake_entries() {
            for _ in 0..MUTANTS {
                let mutant = mutate(entry, fields, &mut mix);
                prop_assert!(
                    !panics(|| drop(decode_entry(&mutant))),
                    "panicked on a {}-byte mutant of a {}-byte entry", mutant.len(), entry.len()
                );
            }
        }
    }

    #[test]
    fn ground_truth_decoder_is_total_on_random_bytes(
        body in collection::vec(0u32..256, 0..600),
        enveloped in any::<bool>(),
    ) {
        let model = CanonicalObject::Hotdog.build();
        let settings = gt_settings();
        let key = (0x5eed_u64, settings.views, settings.resolution);
        let mut bytes: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        if enveloped {
            let mut head = GT_MAGIC.to_vec();
            head.extend_from_slice(&GT_FORMAT_VERSION.to_le_bytes());
            head.extend_from_slice(&key.0.to_le_bytes());
            head.extend_from_slice(&(key.1 as u32).to_le_bytes());
            head.extend_from_slice(&(key.2 as u32).to_le_bytes());
            bytes.splice(0..0, head);
            bytes.extend_from_slice(&[0; 8]);
            reseal(&mut bytes);
        }
        let decode = || drop(GtEntryCodec::decode(&key, &bytes, (&model, &settings)));
        prop_assert!(!panics(decode), "panicked on {bytes:?}");
    }

    #[test]
    fn ground_truth_decoder_is_total_on_resealed_mutations(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let model = CanonicalObject::Hotdog.build();
        let settings = gt_settings();
        let (key, (entry, fields)) = gt_entry(&model);
        for _ in 0..MUTANTS {
            let mutant = mutate(&entry, &fields, &mut mix);
            let decode = || drop(GtEntryCodec::decode(&key, &mutant, (&model, &settings)));
            prop_assert!(
                !panics(decode),
                "panicked on a {}-byte mutant of a {}-byte entry", mutant.len(), entry.len()
            );
        }
    }
}
