//! # nerflex-core
//!
//! The NeRFlex system: the end-to-end pipeline (detail-based segmentation →
//! lightweight profiling → DP configuration selection → parallel baking →
//! on-device rendering), the baselines it is evaluated against (Single
//! NeRF / MobileNeRF, Block-NeRF, and the MipNeRF-360 / Instant-NGP quality
//! references), the evaluation harness that measures quality, size and FPS,
//! and the scene constructions used by every experiment in the paper.
//!
//! The pipeline is a staged, parallel, cache-aware **execution engine**
//! (see [`pipeline`]): profiling and baking fan out over a worker pool, all
//! bakes flow through a shared content-addressed
//! [`BakeCache`](nerflex_bake::BakeCache) so a configuration the profiler
//! probed is never re-baked, and
//! [`NerflexPipeline::try_deploy_fleet`](pipeline::NerflexPipeline::try_deploy_fleet)
//! amortises segmentation and profiling across a whole fleet of devices —
//! only selection and incremental baking run per device budget.
//!
//! ```no_run
//! use nerflex_core::experiments::EvaluationScene;
//! use nerflex_core::pipeline::{NerflexPipeline, PipelineOptions};
//! use nerflex_device::DeviceSpec;
//!
//! let scene = EvaluationScene::Scene4.build(42);
//! let dataset = scene.dataset(6, 2, 96);
//! let pipeline = NerflexPipeline::new(PipelineOptions::quick());
//! let deployment = pipeline
//!     .try_run(&scene.scene, &dataset, &DeviceSpec::iphone_13())
//!     .expect("non-empty scene and dataset");
//! println!("deployed {} MB", deployment.workload().data_size_mb);
//! ```
//!
//! For a continuous stream of deployment requests — many devices, many
//! duplicates — use the [`service`] layer instead of blocking calls:
//!
//! ```no_run
//! use nerflex_core::pipeline::PipelineOptions;
//! use nerflex_core::service::{DeployRequest, DeployService, ServiceOptions};
//! use nerflex_core::experiments::EvaluationScene;
//! use nerflex_device::DeviceSpec;
//! use std::sync::Arc;
//!
//! let scene = EvaluationScene::Scene4.build(42);
//! let dataset = Arc::new(scene.dataset(6, 2, 96));
//! let scene = Arc::new(scene.scene);
//! let service =
//!     DeployService::new(ServiceOptions::inline(PipelineOptions::quick()).with_executors(2));
//! for device in [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()] {
//!     service
//!         .submit(DeployRequest::new(Arc::clone(&scene), Arc::clone(&dataset), device))
//!         .expect("valid request");
//! }
//! for outcome in service.drain() {
//!     let done = outcome.into_success().expect("no store faults injected");
//!     println!("-> {:016x}", done.deployment_fingerprint);
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod clock;
pub mod evaluation;
pub mod experiments;
pub mod fault;
pub mod pipeline;
pub mod report;
pub mod service;

pub use baselines::{BaselineMethod, BaselineResult};
pub use clock::{Clock, TestClock, WallClock};
pub use evaluation::{evaluate_deployment, DeploymentEvaluation};
pub use fault::{
    StageFaultInjector, StageFaultMode, StageFaultPanic, StageFaultPlan, StageFaultStats, StageOp,
};
pub use pipeline::{
    FleetDeployment, NerflexDeployment, NerflexPipeline, PipelineError, PipelineOptions,
    StageTimings,
};
pub use service::{
    CompletedDeploy, DeployOutcome, DeployRequest, DeployService, DeployTicket, ServiceOptions,
    ServiceStats,
};
