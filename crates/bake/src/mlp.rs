//! The tiny deferred-shading MLP, carried as a size charge.
//!
//! Mesh-assisted NeRF renderers (MobileNeRF, NeRF2Mesh) store view-dependent
//! appearance in a minimal MLP that the device evaluates per fragment. The
//! paper notes the MLP "is extremely small, around only a few KB" and
//! excludes it from the configuration knobs. We do the same and go one step
//! further: nothing here trains or evaluates a network. Every mesh asset is
//! charged the bytes of a 6-16-16-3 network
//! ([`BakedAsset::mlp_size_bytes`](crate::BakedAsset::mlp_size_bytes)), and
//! the renderer shades with the analytic model the ground truth uses.
//! [`TinyMlp`] is only the shape-checked parameter block that
//! `BakedAsset::mlp` and a bake entry may carry; no production bake
//! attaches one.

use serde::{Deserialize, Serialize};

/// The parameters of a small fully-connected network: one weight matrix and
/// one bias vector per layer, each layer's input width chaining onto the
/// previous layer's output width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TinyMlp {
    /// Per-layer weight matrices, row-major `[out][in]`.
    weights: Vec<Vec<Vec<f32>>>,
    /// Per-layer bias vectors.
    biases: Vec<Vec<f32>>,
}

impl TinyMlp {
    /// The raw per-layer weight matrices and bias vectors (the persistence
    /// codec's view of the network).
    pub fn parameters(&self) -> (&[Vec<Vec<f32>>], &[Vec<f32>]) {
        (&self.weights, &self.biases)
    }

    /// Reassembles a network from raw parameters, validating that every
    /// layer's weight matrix is rectangular, matches its bias vector, and
    /// chains onto the previous layer's width.
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape inconsistency found.
    pub fn from_parameters(
        weights: Vec<Vec<Vec<f32>>>,
        biases: Vec<Vec<f32>>,
    ) -> Result<Self, &'static str> {
        if weights.is_empty() || weights.len() != biases.len() {
            return Err("layer count mismatch");
        }
        let mut prev_width: Option<usize> = None;
        for (layer, bias) in weights.iter().zip(&biases) {
            if layer.len() != bias.len() {
                return Err("bias width differs from layer output width");
            }
            let cols = layer.first().map_or(0, Vec::len);
            if cols == 0 || layer.iter().any(|row| row.len() != cols) {
                return Err("weight matrix is not rectangular");
            }
            if let Some(prev) = prev_width {
                if cols != prev {
                    return Err("layer input width does not chain");
                }
            }
            prev_width = Some(layer.len());
        }
        Ok(Self { weights, biases })
    }

    /// Number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.iter().map(|layer| layer.iter().map(Vec::len).sum::<usize>()).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Storage size in bytes (32-bit parameters), "around only a few KB".
    pub fn size_bytes(&self) -> usize {
        self.parameter_count() * 4
    }
}

/// A network with the given layer widths whose parameters are fixed and
/// pairwise distinct, so that a codec which drops, swaps or reorders one
/// fails a round trip.
#[cfg(test)]
pub(crate) fn fixed_network(widths: &[usize]) -> TinyMlp {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_count_and_size() {
        let mlp = fixed_network(&[6, 16, 16, 3]);
        // 6*16+16 + 16*16+16 + 16*3+3 = 112 + 272 + 51 = 435 parameters.
        assert_eq!(mlp.parameter_count(), 435);
        assert_eq!(mlp.size_bytes(), 435 * 4);
        assert!(mlp.size_bytes() < 8 * 1024, "MLP must stay 'a few KB'");
    }

    #[test]
    fn from_parameters_rejects_every_inconsistent_shape() {
        let network = fixed_network(&[4, 3, 2]);
        let (weights, biases) = network.parameters();
        let rebuilt = TinyMlp::from_parameters(weights.to_vec(), biases.to_vec());
        assert_eq!(rebuilt.as_ref(), Ok(&network), "a consistent network rebuilds");

        type Parameters = (Vec<Vec<Vec<f32>>>, Vec<Vec<f32>>);
        let edited = |edit: fn(&mut Parameters)| {
            let mut parameters = (weights.to_vec(), biases.to_vec());
            edit(&mut parameters);
            TinyMlp::from_parameters(parameters.0, parameters.1)
        };
        assert_eq!(TinyMlp::from_parameters(Vec::new(), Vec::new()), Err("layer count mismatch"));
        assert_eq!(edited(|(_, b)| b.truncate(1)), Err("layer count mismatch"));
        assert_eq!(
            edited(|(_, b)| b[1].push(0.5)),
            Err("bias width differs from layer output width")
        );
        assert_eq!(edited(|(w, _)| w[0][2].truncate(3)), Err("weight matrix is not rectangular"));
        assert_eq!(
            edited(|(w, _)| w[0].iter_mut().for_each(Vec::clear)),
            Err("weight matrix is not rectangular")
        );
        assert_eq!(
            edited(|(w, _)| w[1].iter_mut().for_each(|row| row.push(0.5))),
            Err("layer input width does not chain")
        );
    }
}
