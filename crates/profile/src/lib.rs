//! # nerflex-profile
//!
//! The lightweight white-box profiler (paper §III-B): closed-form models
//! mapping a baking configuration θ = (g, p) to predicted baked-data size and
//! rendering quality, fitted from a handful of sample bakes chosen by a
//! variable-step search.
//!
//! The paper's Eq. (1) as printed is inconsistent with its own Fig. 3 (see
//! DESIGN.md, "Eq. (1) transcription"): we implement the physically
//! consistent forms —
//!
//! * size grows polynomially: `S(g, p) = k·(g+a)³·(p+b)² + m`,
//! * quality saturates:        `Q(g, p) = q∞ − k′ / ((g+a′)³·(p+b′)²)`.
//!
//! ```
//! use nerflex_profile::model::{QualityModel, SizeModel};
//!
//! let size = SizeModel { k: 2.0e-8, a: 0.0, b: 0.0, m: 1.0 };
//! assert!(size.predict(128, 17) > size.predict(64, 17));
//! let quality = QualityModel { q_inf: 0.9, k: 5.0e4, a: 0.0, b: 0.0 };
//! assert!(quality.predict(128, 17) > quality.predict(32, 5));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod fit;
pub mod ground_truth;
pub mod measurement;
pub mod model;
pub mod profiler;
pub mod sampling;

pub use ground_truth::GroundTruthCache;
pub use measurement::{measure_object, measure_object_in, Measurement};
pub use model::{
    QualityModel, SizeModel, SizeQualityModel, SplatModels, SplatQualityModel, SplatSizeModel,
};
pub use profiler::{build_profile, build_profile_in, ObjectProfile, ProfilerOptions};
pub use sampling::{sample_configurations, splat_sample_configurations, SplatSampleRange};
