//! The end-to-end NeRFlex pipeline: a staged, parallel, cache-aware
//! execution engine.
//!
//! Cloud side (Fig. 1): the training images flow through the segmentation
//! module, a lightweight profile is fitted per sub-scene, the DP selector
//! picks one configuration per sub-scene under the device budget, and the
//! sub-scenes are baked in parallel. The resulting multi-modal data plus the
//! device model form a deployment whose quality, size and smoothness the
//! evaluation harness measures.
//!
//! Three engine properties keep the cloud-side preparation cheap (the
//! paper's Fig. 9 overhead story):
//!
//! * **Stage parallelism** — profiling and baking fan out over a worker pool
//!   (one worker per core by default, [`PipelineOptions::worker_threads`]
//!   overrides; `1` reproduces the sequential path bit-for-bit).
//! * **Bake caching** — every sample bake the profiler pays for lands in a
//!   shared [`BakeCache`], and the final baking stage consults it first: a
//!   selected configuration that was already probed is never re-baked.
//!   [`StageTimings`] reports the hit/miss counters.
//! * **Fleet amortisation** — [`NerflexPipeline::try_deploy_fleet`] prepares one
//!   scene for many devices: segmentation and profiling run exactly once,
//!   and only selection plus incremental baking run per device budget, with
//!   all bakes shared through one cache.

use crate::fault::{StageFaultInjector, StageOp};
use crate::report::format_duration;
use nerflex_bake::cache::BakeEntryCodec;
use nerflex_bake::{
    BakeCache, BakeConfig, BakedAsset, CacheStats, EntryCodec, StoreLimits, StoreOptions,
};
use nerflex_device::{DeviceSpec, Workload};
use nerflex_math::WorkerPool;
use nerflex_profile::{build_profile_in, GroundTruthCache, ObjectProfile, ProfilerOptions};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::scene::Scene;
use nerflex_seg::{segment, SegmentationPolicy, SegmentationResult};
use nerflex_solve::{ConfigSelector, ConfigSpace, DpSelector, SelectionOutcome, SelectionProblem};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a deployment request (or a whole pipeline run) was rejected at
/// admission. These used to be `assert!` panics inside the entry points;
/// the `try_*` variants ([`NerflexPipeline::try_run`],
/// [`NerflexPipeline::try_deploy_fleet`],
/// [`crate::service::DeployService::submit`]) report them as values so a
/// long-running service can refuse one bad request without dying.
///
/// The `Display` strings deliberately keep the messages the old asserts
/// panicked with (`"cannot deploy an empty scene"`, `"need training
/// views"`, `"need at least one device"`), so callers and logs that match
/// on that text keep working.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The scene has no objects.
    EmptyScene,
    /// The dataset has no training views (segmentation input).
    EmptyDataset,
    /// A fleet deployment was requested with no devices.
    EmptyFleet,
    /// A memory-budget override is not a positive finite number of MB.
    InvalidBudget {
        /// The budget that was requested.
        requested_mb: f64,
    },
    /// A persistent-store fault took down the deployment mid-build (a
    /// [`nerflex_bake::StoreFaultPanic`] unwound out of the bake or
    /// ground-truth store). Transient remote faults are retried and a
    /// degraded remote is recomputed around, so this only fires for faults
    /// the store layer deliberately escalates — the deployment service
    /// reports it as a failed [`crate::service::DeployOutcome`] instead of
    /// dying.
    Store {
        /// The store entry name the faulting operation targeted.
        entry: String,
        /// Human-readable description of the fault.
        message: String,
    },
    /// A compute stage crashed or failed mid-build (a
    /// [`crate::fault::StageFaultPanic`] unwound out of segmentation,
    /// profiling, selection, or baking). Like [`PipelineError::Store`],
    /// this fails exactly one request, never the service.
    Stage {
        /// The stage that failed (`"segmentation"`, `"profiling"`,
        /// `"selection"`, `"baking"`).
        stage: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
    /// The request's deadline had passed — at admission, or at a stage
    /// boundary while the request was in flight. The work already done for
    /// a coalesced sibling is kept; only this request's outcome is dropped.
    DeadlineExceeded {
        /// The deadline, in service-clock ticks.
        deadline: u64,
        /// The clock reading that exceeded it.
        now: u64,
    },
    /// The request was cancelled via
    /// [`crate::service::DeployService::cancel`] — removed from the queue,
    /// or stopped at the next stage boundary while in flight.
    Cancelled,
    /// Admission (or a queued request) was shed because the service's
    /// bounded queue was full ([`crate::service::ServiceOptions::with_queue_limit`]),
    /// the service was draining with a shedding policy, or the service shut
    /// down with work still queued.
    Overloaded {
        /// Queue depth at the moment the request was shed.
        queue_depth: usize,
    },
    /// The service's stall watchdog gave up on this request: its executor
    /// made no observable progress for the configured number of virtual
    /// ticks ([`crate::service::ServiceOptions::with_watchdog_ticks`]).
    Stalled {
        /// Ticks without progress when the watchdog fired.
        idle_ticks: u64,
    },
    /// The request was refused because the service is draining or shut
    /// down — admission is closed.
    Draining,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyScene => write!(f, "cannot deploy an empty scene"),
            Self::EmptyDataset => write!(f, "need training views to deploy"),
            Self::EmptyFleet => write!(f, "need at least one device to deploy a fleet"),
            Self::InvalidBudget { requested_mb } => {
                write!(f, "invalid memory budget: {requested_mb} MB (must be positive and finite)")
            }
            Self::Store { entry, message } => {
                write!(f, "store fault on entry {entry:?}: {message}")
            }
            Self::Stage { stage, message } => {
                write!(f, "stage fault in {stage}: {message}")
            }
            Self::DeadlineExceeded { deadline, now } => {
                write!(f, "deadline exceeded: tick {now} is past deadline {deadline}")
            }
            Self::Cancelled => write!(f, "request cancelled"),
            Self::Overloaded { queue_depth } => {
                write!(f, "service overloaded: request shed at queue depth {queue_depth}")
            }
            Self::Stalled { idle_ticks } => {
                write!(f, "executor stalled: no progress for {idle_ticks} ticks (watchdog)")
            }
            Self::Draining => write!(f, "service is draining; admission is closed"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Options controlling a pipeline run.
#[derive(Clone)]
pub struct PipelineOptions {
    /// Segmentation policy (threshold rule, statistic, interpolation).
    pub segmentation: SegmentationPolicy,
    /// Profiler options (sample range, probe views).
    pub profiler: ProfilerOptions,
    /// Configuration space handed to the selector.
    pub space: ConfigSpace,
    /// The configuration selector (Algorithm 1 by default).
    pub selector: Arc<dyn ConfigSelector + Send + Sync>,
    /// Worker threads for the parallel stages (profiling, baking): `0` uses
    /// one worker per available core; `1` forces the sequential path (useful
    /// for determinism comparisons and single-core environments). Workers
    /// left over after fanning out across objects fan out *within* each
    /// profile, over its independent sample measurements.
    pub worker_threads: usize,
    /// How the persistent stores are opened — one [`StoreOptions`] builder
    /// covering location/backend, retention limits and read-only mode. The
    /// bake store lives at the root the options name and the ground-truth
    /// store under its `ground-truth/` child ([`StoreOptions::subdir`]), on
    /// every backend layer. When persistent, [`NerflexPipeline::try_run`] and
    /// [`NerflexPipeline::try_deploy_fleet`] open the stores before the run and
    /// flush new entries after it, so bakes and ground truths are shared
    /// across *processes* — and, with [`StoreOptions::shared`], across
    /// *machines* through a common remote. The in-memory default keeps both
    /// caches per-run.
    ///
    /// Retention limits apply **per store** (each is swept to the limits
    /// independently, local layer only), so a `max_bytes` of N bounds the
    /// store root at up to 2·N total; a pruned entry costs one re-bake /
    /// re-render on its next miss, never correctness.
    pub store: StoreOptions,
    /// Deterministic compute-stage fault injection
    /// ([`crate::fault::StageFaultInjector`]): when set, every stage entry
    /// (segmentation, profiling, selection, baking) is gated through the
    /// injector's seeded schedule. `None` (the default) costs nothing on
    /// the stage paths. Chaos tests hold the injector `Arc` to assert on
    /// its counters.
    pub stage_faults: Option<Arc<StageFaultInjector>>,
}

impl std::fmt::Debug for PipelineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineOptions")
            .field("segmentation", &self.segmentation)
            .field("space", &self.space)
            .field("selector", &self.selector.name())
            .field("worker_threads", &self.worker_threads)
            .field("store", &self.store)
            .field("stage_faults", &self.stage_faults)
            .finish()
    }
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            segmentation: SegmentationPolicy::default(),
            profiler: ProfilerOptions::default(),
            space: ConfigSpace::paper_default(),
            selector: Arc::new(DpSelector::default()),
            worker_threads: 0,
            store: StoreOptions::default(),
            stage_faults: None,
        }
    }
}

impl PipelineOptions {
    /// Reduced-cost options for tests and quick examples: small profiling
    /// probes, a compact configuration space, and a finer DP quantisation
    /// (asset sizes are only a few MB at this scale, so the paper's 1 MB
    /// capacity units would be too coarse).
    pub fn quick() -> Self {
        Self {
            profiler: ProfilerOptions::quick(),
            space: ConfigSpace::quick(),
            selector: Arc::new(DpSelector::with_quantization(0.05)),
            ..Self::default()
        }
    }

    /// Replaces the segmentation policy (threshold rule, statistic,
    /// interpolation — see [`PipelineOptions::segmentation`]).
    pub fn with_segmentation(mut self, segmentation: SegmentationPolicy) -> Self {
        self.segmentation = segmentation;
        self
    }

    /// Replaces the profiler options (sample range, probe views — see
    /// [`PipelineOptions::profiler`]).
    pub fn with_profiler(mut self, profiler: ProfilerOptions) -> Self {
        self.profiler = profiler;
        self
    }

    /// Replaces the configuration space handed to the selector (see
    /// [`PipelineOptions::space`]).
    pub fn with_space(mut self, space: ConfigSpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the selector (used by the Fig. 7 / Fig. 8 ablations).
    pub fn with_selector(mut self, selector: Arc<dyn ConfigSelector + Send + Sync>) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the worker-thread count for the parallel stages (`0` = one per
    /// core, `1` = sequential).
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Replaces the store options wholesale (location/backend, limits,
    /// read-only mode — see [`PipelineOptions::store`]).
    pub fn with_store(mut self, store: StoreOptions) -> Self {
        self.store = store;
        self
    }

    /// Convenience: persists the stores under one directory, sharing bakes
    /// and ground truths across processes (see [`PipelineOptions::store`]).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store.location = nerflex_bake::StoreLocation::Dir(dir.into());
        self
    }

    /// Sets the retention limits applied to the persistent stores on open
    /// (see [`PipelineOptions::store`]).
    pub fn with_cache_limits(mut self, limits: StoreLimits) -> Self {
        self.store.limits = limits;
        self
    }

    /// Gates every stage entry through a deterministic
    /// [`StageFaultPlan`](crate::fault::StageFaultPlan) (see
    /// [`PipelineOptions::stage_faults`]). Sugar over
    /// [`PipelineOptions::with_stage_fault_injector`] for callers that do
    /// not need to hold the injector.
    pub fn with_stage_faults(self, plan: crate::fault::StageFaultPlan) -> Self {
        self.with_stage_fault_injector(Arc::new(StageFaultInjector::new(plan)))
    }

    /// Installs a pre-built stage-fault injector, letting the caller keep
    /// the `Arc` to read [`StageFaultInjector::stats`] afterwards (see
    /// [`PipelineOptions::stage_faults`]).
    pub fn with_stage_fault_injector(mut self, injector: Arc<StageFaultInjector>) -> Self {
        self.stage_faults = Some(injector);
        self
    }
}

/// Wall-clock duration of each cloud-side stage (the Fig. 9 overhead
/// breakdown) plus the engine's parallelism and cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Detail-based segmentation (detection, frequency analysis, cropping).
    pub segmentation: Duration,
    /// Lightweight profiling (sample bakes + curve fitting), wall clock.
    pub profiling: Duration,
    /// Ground truths actually rendered by the profiling stage.
    pub ground_truth_builds: usize,
    /// Ground-truth lookups answered without rendering (in-memory or
    /// persistent-store hits).
    pub ground_truth_hits: usize,
    /// (Ground truth, render) pairs the profiling stage scored: the sum of
    /// `samples.len()` × probe views over the profiles it measured.
    pub metrics_evaluations: usize,
    /// Configuration selection (the DP solver).
    pub selection: Duration,
    /// Multi-NeRF baking of the selected configurations, wall clock.
    pub baking: Duration,
    /// Worker threads fanned out across objects by the profiling stage.
    pub profiling_workers: usize,
    /// Worker threads fanned out *within* each profile, over its independent
    /// sample measurements and its ground-truth render tiles (1 =
    /// sequential per object).
    pub profiling_sample_workers: usize,
    /// Worker threads used by the baking stage.
    pub baking_workers: usize,
    /// Final-bake requests answered by an entry baked earlier in this
    /// process (a selected configuration the profiler had already probed).
    pub cache_hits: usize,
    /// Final-bake requests answered by an entry loaded from the persistent
    /// on-disk store — work a *previous process* paid for.
    pub cache_disk_hits: usize,
    /// Final-bake requests that actually had to bake.
    pub cache_misses: usize,
    /// Splat-cloud extractions the baking stage performed (a subset of
    /// `cache_misses`: splat-family misses). Zero on a warm cache — the CI
    /// bench-smoke asserts this for the second run of the splat scenario.
    pub splat_extractions: usize,
    /// Worker-pool dispatches (batches entered, including inline sequential
    /// runs) during the profiling stage — the scheduling cost the batched
    /// whole-profile dispatch drives down (see `docs/pool.md`).
    pub pool_dispatches: u64,
    /// Jobs the worker pool executed during the profiling stage.
    pub pool_jobs: u64,
}

impl StageTimings {
    /// Total cloud-side preparation time excluding baking (the paper's
    /// "overhead cost ... excluding neural network training").
    pub fn overhead(&self) -> Duration {
        self.segmentation + self.profiling + self.selection
    }

    /// Final-bake requests answered without baking, from either the
    /// in-process cache or the persistent on-disk store.
    pub fn cache_served(&self) -> usize {
        self.cache_hits + self.cache_disk_hits
    }

    /// Share of final bakes served by the cache (in-process or disk), in
    /// `[0, 1]`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_served() + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_served() as f64 / total as f64
        }
    }

    /// Formats the breakdown as a one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "segmentation {} | profiler {} ({}x{} workers; ground truth {} built / {} cached; \
             {} metrics evaluations) | solver {} | total overhead {} | \
             bake cache {}/{} hits ({} from disk) | pool {} dispatches / {} jobs",
            format_duration(self.segmentation),
            format_duration(self.profiling),
            self.profiling_workers.max(1),
            self.profiling_sample_workers.max(1),
            self.ground_truth_builds,
            self.ground_truth_hits,
            self.metrics_evaluations,
            format_duration(self.selection),
            format_duration(self.overhead()),
            self.cache_served(),
            self.cache_served() + self.cache_misses,
            self.cache_disk_hits,
            self.pool_dispatches,
            self.pool_jobs,
        )
    }
}

/// The output of a pipeline run: everything needed to render on the device
/// and to analyse the decision the system made.
#[derive(Debug, Clone)]
pub struct NerflexDeployment {
    /// Device the deployment was prepared for.
    pub device: DeviceSpec,
    /// The memory budget that was enforced (MB).
    pub budget_mb: f64,
    /// Segmentation output (decision + per-object records). Shared, not
    /// copied, across a fleet's deployments — segmentation runs once.
    pub segmentation: Arc<SegmentationResult>,
    /// Fitted per-object profiles (index-aligned with the scene objects).
    /// Shared, not copied, across a fleet's deployments.
    pub profiles: Arc<Vec<ObjectProfile>>,
    /// The configuration selection outcome.
    pub selection: SelectionOutcome,
    /// Baked assets, one per scene object.
    pub assets: Vec<BakedAsset>,
    /// Cloud-side stage timings.
    pub timings: StageTimings,
}

impl NerflexDeployment {
    /// The on-device workload implied by the baked assets. Quads and splats
    /// both count as device-side primitives.
    pub fn workload(&self) -> Workload {
        Workload {
            data_size_mb: self.assets.iter().map(BakedAsset::size_mb).sum(),
            total_quads: self.assets.iter().map(BakedAsset::primitive_count).sum(),
        }
    }

    /// The configuration selected for a given object id (when it received one).
    pub fn config_for(&self, object_id: usize) -> Option<BakeConfig> {
        self.selection.assignment_for(object_id).map(|a| a.config)
    }
}

/// The output of [`NerflexPipeline::try_deploy_fleet`]: one deployment per
/// device, produced from a single segmentation + profiling pass and a shared
/// bake cache.
#[derive(Debug, Clone)]
pub struct FleetDeployment {
    /// One deployment per requested device, in input order.
    pub deployments: Vec<NerflexDeployment>,
    /// How many times the shared stages (segmentation + profiling) ran:
    /// once per fleet, whatever its size. Selection and baking run once per
    /// deployment.
    pub shared_stage_runs: usize,
    /// Final counters of the bake cache shared across profiling and every
    /// device's baking stage, over the whole run (including the entries
    /// indexed from a persistent store when it was opened).
    pub cache: CacheStats,
}

impl FleetDeployment {
    /// The deployment prepared for a given device name.
    pub fn for_device(&self, name: &str) -> Option<&NerflexDeployment> {
        self.deployments.iter().find(|d| d.device.name == name)
    }
}

/// The NeRFlex cloud-side pipeline engine.
#[derive(Debug, Clone)]
pub struct NerflexPipeline {
    options: PipelineOptions,
}

impl NerflexPipeline {
    /// Creates a pipeline with the given options.
    pub fn new(options: PipelineOptions) -> Self {
        Self { options }
    }

    /// The options this pipeline runs with.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The configured worker budget (`0` resolves to the `NERFLEX_WORKERS`
    /// override when set, else one per core).
    fn configured_workers(&self) -> usize {
        match self.options.worker_threads {
            0 => nerflex_math::pool::env_workers()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
        }
    }

    /// Resolved worker count for a stage with `jobs` independent jobs.
    fn workers_for(&self, jobs: usize) -> usize {
        self.configured_workers().min(jobs.max(1))
    }

    /// Opens the bake cache this pipeline's options call for: the store
    /// named by [`PipelineOptions::store`], falling back to an in-memory
    /// cache if the backing store is unusable (in-memory options cannot
    /// fail to open). The deployment service holds it for its lifetime and
    /// flushes it on shutdown.
    pub(crate) fn open_cache(&self) -> BakeCache {
        BakeCache::open(&self.options.store).unwrap_or_else(|err| {
            eprintln!(
                "nerflex: bake store [{}] unusable ({err}); continuing in-memory",
                self.options.store.describe()
            );
            BakeCache::new()
        })
    }

    /// Stage 1: detail-based segmentation.
    /// Applies the configured stage-fault injector (if any) at one stage
    /// entry. With no injector this is a branch on a resident `Option`.
    fn stage_gate(&self, stage: StageOp) {
        if let Some(injector) = &self.options.stage_faults {
            injector.gate(stage);
        }
    }

    fn stage_segmentation(&self, dataset: &Dataset) -> (SegmentationResult, Duration) {
        self.stage_gate(StageOp::Segmentation);
        let t = Instant::now();
        let segmentation = segment(dataset, &self.options.segmentation);
        (segmentation, t.elapsed())
    }

    /// Opens the ground-truth store this pipeline's options call for: the
    /// `ground-truth/` child of [`PipelineOptions::store`], falling back to
    /// in-memory if the backing store is unusable. Cached and freshly
    /// rendered ground truths are bit-identical, so this is purely a cost
    /// optimisation.
    pub(crate) fn open_ground_truth_cache(&self) -> GroundTruthCache {
        let options = self.options.store.subdir("ground-truth");
        GroundTruthCache::open(&options).unwrap_or_else(|err| {
            eprintln!(
                "nerflex: ground-truth store [{}] unusable ({err}); continuing in-memory",
                options.describe()
            );
            GroundTruthCache::new()
        })
    }

    /// Stage 2: lightweight profiling, one [`build_profile_in`] per scene
    /// object, fanned out over the shared worker pool at two levels: the
    /// outer fan-out covers the objects, and the worker budget left over
    /// fans out *within* each profile — over its sample bakes, its
    /// (configuration × view) scoring grid and the row tiles of its
    /// ground-truth renders. With one configured worker every level
    /// collapses to the bit-for-bit sequential path. Sample bakes land in
    /// `cache`; ground truths land in (and come from) `ground_truth`, so
    /// duplicate objects and warm persistent stores skip the ray marching.
    /// Returns the profiles and the profiling fields of [`StageTimings`]:
    /// the stage wall clock, the outer/inner worker counts, this run's
    /// ground-truth builds and hits, the metrics evaluations and the pool
    /// counter deltas.
    fn stage_profiling(
        &self,
        scene: &Scene,
        cache: &BakeCache,
        ground_truth: &GroundTruthCache,
    ) -> (Vec<ObjectProfile>, StageTimings) {
        self.stage_gate(StageOp::Profiling);
        let t = Instant::now();
        let workers = self.workers_for(scene.len());
        let sample_workers = (self.configured_workers() / workers).max(1);
        let mut profiler = self.options.profiler;
        profiler.measurement.worker_threads = sample_workers;
        let pool = WorkerPool::shared();
        let pool_before = pool.stats();
        // Snapshot the ground-truth counters so the stage reports *this
        // run's* deltas: a long-lived service reuses one cache across many
        // requests, and cumulative totals would misattribute earlier work.
        let gt_before = ground_truth.stats();
        let profiles = pool.run(scene.len(), workers, |idx| {
            let object = &scene.objects()[idx];
            build_profile_in(&object.model, object.id, &profiler, cache, ground_truth)
        });
        let gt_stats = ground_truth.stats();
        let pool_after = pool.stats();
        let samples: usize = profiles.iter().map(|profile| profile.samples.len()).sum();
        (
            profiles,
            StageTimings {
                profiling: t.elapsed(),
                profiling_workers: workers,
                profiling_sample_workers: sample_workers,
                ground_truth_builds: gt_stats.misses - gt_before.misses,
                ground_truth_hits: (gt_stats.hits + gt_stats.disk_hits)
                    - (gt_before.hits + gt_before.disk_hits),
                metrics_evaluations: samples * profiler.measurement.views,
                pool_dispatches: pool_after.dispatches - pool_before.dispatches,
                pool_jobs: pool_after.jobs - pool_before.jobs,
                ..StageTimings::default()
            },
        )
    }

    /// Stage 3: configuration selection under the device budget.
    fn stage_selection(
        &self,
        profiles: &[ObjectProfile],
        budget_mb: f64,
    ) -> (SelectionOutcome, Duration) {
        self.stage_gate(StageOp::Selection);
        let t = Instant::now();
        let problem = SelectionProblem::from_profiles(profiles, &self.options.space, budget_mb);
        let selection = self.options.selector.select(&problem);
        (selection, t.elapsed())
    }

    /// Stage 4: bake every object with its selected configuration, through
    /// the shared cache (a configuration the profiler already probed is a
    /// hit, not a re-bake). Returns the assets, the wall time, the stage's
    /// cache delta and the worker count used.
    fn stage_baking(
        &self,
        scene: &Scene,
        selection: &SelectionOutcome,
        cache: &BakeCache,
    ) -> (Vec<BakedAsset>, Duration, CacheStats, usize) {
        self.stage_gate(StageOp::Baking);
        let t = Instant::now();
        let before = cache.stats();
        let workers = self.workers_for(scene.len());
        let assets = WorkerPool::shared().run(scene.len(), workers, |idx| {
            let object = &scene.objects()[idx];
            // Bake exactly what the selector chose: clamping a selected
            // configuration would silently diverge from the prediction the
            // budget check was made against. Only the fallback (an object
            // the selector skipped) is clamped into range.
            let config = selection
                .assignment_for(object.id)
                .map(|a| a.config)
                .unwrap_or(BakeConfig::MOBILENERF_DEFAULT.clamped());
            let asset = cache.get_or_bake_placed(object, config);
            // Texture the atlas quads no render read here, on the pool, so
            // `deployment_fingerprint` on the request thread only copies
            // texels.
            BakeEntryCodec::prepare(&asset);
            asset
        });
        let delta = cache.stats().since(&before);
        (assets, t.elapsed(), delta, workers)
    }

    /// Runs segmentation → profiling against the service-owned stores and
    /// packages the shared stage outputs. The returned [`StageTimings`]
    /// carries the shared-stage fields only; [`NerflexPipeline::deploy_budget`]
    /// fills in selection and baking.
    pub(crate) fn shared_stages(
        &self,
        scene: &Scene,
        dataset: &Dataset,
        cache: &BakeCache,
        ground_truth: &GroundTruthCache,
    ) -> (Arc<SegmentationResult>, Arc<Vec<ObjectProfile>>, StageTimings) {
        let (segmentation, segmentation_time) = self.stage_segmentation(dataset);
        let (profiles, mut shared) = self.stage_profiling(scene, cache, ground_truth);
        shared.segmentation = segmentation_time;
        (Arc::new(segmentation), Arc::new(profiles), shared)
    }

    /// Checks the shared-stage inputs every entry point requires.
    pub(crate) fn validate_inputs(scene: &Scene, dataset: &Dataset) -> Result<(), PipelineError> {
        if scene.is_empty() {
            return Err(PipelineError::EmptyScene);
        }
        if dataset.train.is_empty() {
            return Err(PipelineError::EmptyDataset);
        }
        Ok(())
    }

    /// Resolves the memory budget for one request: the request's own
    /// override when given, else the device's recommended budget. Overrides
    /// must be positive and finite.
    pub(crate) fn resolve_budget_mb(
        &self,
        request_override_mb: Option<f64>,
        device: &DeviceSpec,
    ) -> Result<f64, PipelineError> {
        let budget_mb = request_override_mb.unwrap_or(device.recommended_budget_mb);
        if !budget_mb.is_finite() || budget_mb <= 0.0 {
            return Err(PipelineError::InvalidBudget { requested_mb: budget_mb });
        }
        Ok(budget_mb)
    }

    /// Runs segmentation → profiling → selection → baking for one scene and
    /// device, returning the deployment. All four stages share one
    /// [`BakeCache`]: the persistent store when [`PipelineOptions::store`]
    /// names one (opened before the run, flushed after, so bakes are shared
    /// across processes — and machines, for shared backends), a per-run
    /// in-memory cache otherwise. Use [`NerflexPipeline::try_deploy_fleet`]
    /// to amortise the shared stages over many devices, and
    /// [`crate::service::DeployService`] — which this delegates to — for a
    /// long-running request stream (one open service re-deploys at another
    /// budget, [`crate::service::DeployRequest::with_budget_mb`], without
    /// re-baking or re-profiling).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the scene or dataset is empty.
    pub fn try_run(
        &self,
        scene: &Scene,
        dataset: &Dataset,
        device: &DeviceSpec,
    ) -> Result<NerflexDeployment, PipelineError> {
        let fleet = self.try_deploy_fleet(scene, dataset, std::slice::from_ref(device))?;
        Ok(fleet.deployments.into_iter().next().expect("one device yields one deployment"))
    }

    /// Prepares one scene for a whole fleet of devices, amortising the
    /// device-independent work: segmentation and profiling run **exactly
    /// once**, their outputs are shared, and every device then pays only for
    /// selection under its own budget plus incremental baking through the
    /// shared cache (an asset baked for one device — or probed by the
    /// profiler — is reused by every other device that selects it).
    ///
    /// Since the deployment-service rework this is a thin wrapper over
    /// [`crate::service::DeployService`]: one request per device is admitted
    /// to an inline (same-thread) service, whose scene-level coalescing
    /// reproduces exactly the old one-shared-stage-run behaviour — and whose
    /// outputs are bit-identical to it (`docs/service.md`).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the scene, dataset or device list is
    /// empty, or a [`PipelineError::Store`] when a store fault escalated out
    /// of one of the per-device builds.
    pub fn try_deploy_fleet(
        &self,
        scene: &Scene,
        dataset: &Dataset,
        devices: &[DeviceSpec],
    ) -> Result<FleetDeployment, PipelineError> {
        Self::validate_inputs(scene, dataset)?;
        if devices.is_empty() {
            return Err(PipelineError::EmptyFleet);
        }
        let service = crate::service::DeployService::new(crate::service::ServiceOptions::inline(
            self.options.clone(),
        ));
        let scene = Arc::new(scene.clone());
        let dataset = Arc::new(dataset.clone());
        for device in devices {
            service.submit(crate::service::DeployRequest::new(
                Arc::clone(&scene),
                Arc::clone(&dataset),
                device.clone(),
            ))?;
        }
        let mut outcomes = service.drain();
        // Tickets are issued in submission order: sorting restores the
        // caller's device order regardless of the queue's scheduling.
        outcomes.sort_by_key(|outcome| outcome.ticket.id());
        let stats = service.stats();
        let cache = service.cache_stats();
        service.shutdown();
        let mut deployments = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            deployments.push(outcome.into_success()?.deployment);
        }
        Ok(FleetDeployment { deployments, shared_stage_runs: stats.shared_stage_runs, cache })
    }

    /// The per-budget tail of the pipeline (selection + baking) over shared
    /// segmentation/profiling outputs. The `Arc`s are cloned by reference
    /// count only — a fleet's deployments share one copy of the segmentation
    /// data and the profiles. `budget_mb` is resolved by the caller
    /// ([`NerflexPipeline::resolve_budget_mb`]) so per-request overrides
    /// flow through [`crate::service::DeployRequest`] instead of the
    /// options. The deployment's timings are `shared` with the selection
    /// and baking fields filled in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deploy_budget(
        &self,
        scene: &Scene,
        device: &DeviceSpec,
        budget_mb: f64,
        segmentation: &Arc<SegmentationResult>,
        profiles: &Arc<Vec<ObjectProfile>>,
        cache: &BakeCache,
        shared: StageTimings,
    ) -> NerflexDeployment {
        let (selection, selection_time) = self.stage_selection(profiles, budget_mb);
        let (assets, baking_time, cache_delta, baking_workers) =
            self.stage_baking(scene, &selection, cache);

        NerflexDeployment {
            device: device.clone(),
            budget_mb,
            segmentation: Arc::clone(segmentation),
            profiles: Arc::clone(profiles),
            selection,
            assets,
            timings: StageTimings {
                selection: selection_time,
                baking: baking_time,
                baking_workers,
                cache_hits: cache_delta.hits,
                cache_disk_hits: cache_delta.disk_hits,
                cache_misses: cache_delta.misses,
                splat_extractions: cache_delta.splat_extractions,
                ..shared
            },
        }
    }
}

impl Default for NerflexPipeline {
    fn default() -> Self {
        Self::new(PipelineOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;
    use nerflex_solve::FairnessSelector;

    fn small_scene_and_dataset() -> (Scene, Dataset) {
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21);
        let dataset = Dataset::generate(&scene, 3, 1, 48, 48);
        (scene, dataset)
    }

    #[test]
    fn quick_pipeline_produces_a_deployable_bundle() {
        let (scene, dataset) = small_scene_and_dataset();
        let pipeline = NerflexPipeline::new(PipelineOptions::quick());
        let deployment =
            pipeline.try_run(&scene, &dataset, &DeviceSpec::iphone_13()).expect("deploy");

        assert_eq!(deployment.assets.len(), 2);
        // No deployed asset carries a shading network: its bytes are a
        // constant charge, and every fragment takes the analytic shader.
        assert!(deployment.assets.iter().all(|asset| asset.mlp.is_none()));
        assert_eq!(deployment.profiles.len(), 2);
        assert_eq!(deployment.selection.assignments.len(), 2);
        assert!(deployment.selection.feasible);
        // The deployment respects the device budget (predicted sizes).
        assert!(deployment.selection.total_size_mb <= deployment.budget_mb + 1e-6);
        // Every object got a configuration from the quick space.
        for obj in scene.objects() {
            let config = deployment.config_for(obj.id).expect("assigned");
            assert!(config.grid >= 10 && config.grid <= 40);
        }
        // Timings were recorded.
        assert!(deployment.timings.segmentation > Duration::ZERO);
        assert!(deployment.timings.profiling > Duration::ZERO);
        assert!(deployment.timings.overhead() > Duration::ZERO);
        assert!(!deployment.timings.summary().is_empty());
        // The workload reflects the baked assets.
        let workload = deployment.workload();
        assert!(workload.data_size_mb > 0.0);
        assert!(workload.total_quads > 0);
        // The profiling stage dispatched through the persistent pool and
        // its scheduling counters made it into the timings.
        assert!(deployment.timings.pool_dispatches > 0, "{:?}", deployment.timings);
        assert!(deployment.timings.pool_jobs >= deployment.timings.pool_dispatches);
        assert!(deployment.timings.summary().contains("pool"));
    }

    #[test]
    fn selected_profiled_configurations_hit_the_bake_cache() {
        // With a generous budget the DP picks the best configuration in the
        // quick space, (40, 9) — which the quick profiler's variable-step
        // sampling also probes (g ∈ {10, 30, 40} × p ∈ {3, 6, 9} corners).
        // The final bake must therefore be answered by the cache.
        let (scene, dataset) = small_scene_and_dataset();
        let service = crate::service::DeployService::new(crate::service::ServiceOptions::inline(
            PipelineOptions::quick(),
        ));
        service
            .submit(
                crate::service::DeployRequest::new(
                    Arc::new(scene.clone()),
                    Arc::new(dataset),
                    DeviceSpec::iphone_13(),
                )
                .with_budget_mb(500.0),
            )
            .expect("valid request");
        let deployment = service
            .next_outcome()
            .expect("one outcome")
            .into_success()
            .expect("success")
            .deployment;
        let profiled: Vec<BakeConfig> =
            deployment.profiles[0].samples.iter().map(|s| s.config).collect();
        let picked_profiled =
            deployment.selection.assignments.iter().any(|a| profiled.contains(&a.config));
        assert!(picked_profiled, "generous budget must select a probed corner");
        assert!(
            deployment.timings.cache_hits >= 1,
            "a profiled selection must be a cache hit: {:?}",
            deployment.timings
        );
        assert_eq!(
            deployment.timings.cache_hits + deployment.timings.cache_misses,
            scene.len(),
            "every object's final bake is exactly one cache lookup"
        );
        assert!(deployment.timings.cache_hit_ratio() > 0.0);
    }

    #[test]
    fn ground_truth_is_rendered_once_per_distinct_object() {
        // Two instances of the same canonical object share one content
        // fingerprint: the profiling stage must render the ray-marched
        // ground truth once and serve the second profile from the cache.
        // Two workers profile both instances in parallel, so their lookups
        // can miss concurrently: the store's single-flight lookup makes the
        // second one wait on the first render instead of rendering again.
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Hotdog], 13);
        let dataset = Dataset::generate(&scene, 3, 1, 48, 48);
        let pipeline = NerflexPipeline::new(PipelineOptions::quick().with_worker_threads(2));
        let deployment =
            pipeline.try_run(&scene, &dataset, &DeviceSpec::pixel_4()).expect("deploy");
        let t = deployment.timings;
        assert_eq!(t.ground_truth_builds, 1, "duplicate object must hit the GT cache: {t:?}");
        assert_eq!(t.ground_truth_hits, 1);
        assert!(t.summary().contains("ground truth"));
        // Every sample of both profiles was scored once per probe view.
        let views = PipelineOptions::quick().profiler.measurement.views;
        let samples: usize = deployment.profiles.iter().map(|p| p.samples.len()).sum();
        assert!(t.metrics_evaluations > 0);
        assert_eq!(t.metrics_evaluations, samples * views, "{t:?}");
        assert!(t.summary().contains("metrics"));
    }

    #[test]
    fn parallel_engine_matches_the_sequential_path() {
        // The parallel stages must be pure restructuring: same selection,
        // same asset sizes as the one-worker (seed-equivalent) path.
        let (scene, dataset) = small_scene_and_dataset();
        let device = DeviceSpec::pixel_4();
        let sequential = NerflexPipeline::new(PipelineOptions::quick().with_worker_threads(1))
            .try_run(&scene, &dataset, &device)
            .expect("deploy");
        let parallel = NerflexPipeline::new(PipelineOptions::quick().with_worker_threads(4))
            .try_run(&scene, &dataset, &device)
            .expect("deploy");

        assert_eq!(sequential.timings.profiling_workers, 1);
        assert_eq!(parallel.timings.profiling_workers, 2); // capped by object count
        assert_eq!(sequential.selection.assignments.len(), parallel.selection.assignments.len());
        for (a, b) in sequential.selection.assignments.iter().zip(&parallel.selection.assignments) {
            assert_eq!(a.config, b.config, "selection must not depend on parallelism");
            assert_eq!(a.predicted_size_mb, b.predicted_size_mb);
        }
        for (a, b) in sequential.assets.iter().zip(&parallel.assets) {
            assert_eq!(a.size_bytes(), b.size_bytes(), "asset sizes must match");
            assert_eq!(a.mesh.quad_count(), b.mesh.quad_count());
        }
    }

    #[test]
    fn a_warm_repeat_request_rebakes_nothing() {
        let (scene, dataset) = small_scene_and_dataset();
        let scene = Arc::new(scene);
        let dataset = Arc::new(dataset);
        let service = crate::service::DeployService::new(crate::service::ServiceOptions::inline(
            PipelineOptions::quick(),
        ));
        let deploy = || {
            service
                .submit(crate::service::DeployRequest::new(
                    Arc::clone(&scene),
                    Arc::clone(&dataset),
                    DeviceSpec::pixel_4(),
                ))
                .expect("valid request");
            service.next_outcome().expect("one outcome").into_success().expect("success")
        };
        let first = deploy();
        let second = deploy();
        // The repeat rides the resident shared stages and the warm bake
        // cache: every final bake is a hit.
        assert!(!first.coalesced);
        assert!(second.coalesced, "the repeat must reuse the resident shared stages");
        assert_eq!(second.deployment.timings.cache_misses, 0, "warm cache must re-bake nothing");
        assert_eq!(second.deployment.timings.cache_hits, scene.len());
        // Its timings carry the reused shared stages' counters.
        assert_eq!(
            second.deployment.timings.metrics_evaluations,
            first.deployment.timings.metrics_evaluations
        );
        assert_eq!(first.deployment_fingerprint, second.deployment_fingerprint);
        assert_eq!(
            first.deployment.workload().total_quads,
            second.deployment.workload().total_quads
        );
    }

    #[test]
    fn budget_override_constrains_the_selection() {
        let (scene, dataset) = small_scene_and_dataset();
        // Budgets are per-request now: the same pipeline serves both through
        // the service's request builder.
        let service = crate::service::DeployService::new(crate::service::ServiceOptions::inline(
            PipelineOptions::quick(),
        ));
        let device = DeviceSpec::pixel_4();
        let scene = Arc::new(scene);
        let dataset = Arc::new(dataset);
        let deploy_at = |budget_mb: f64| {
            service
                .submit(
                    crate::service::DeployRequest::new(
                        Arc::clone(&scene),
                        Arc::clone(&dataset),
                        device.clone(),
                    )
                    .with_budget_mb(budget_mb),
                )
                .expect("valid request");
            service.next_outcome().expect("one outcome").into_success().expect("success").deployment
        };
        let d_tight = deploy_at(6.0);
        let d_generous = deploy_at(200.0);
        assert!(d_tight.selection.total_size_mb <= 6.0 + 1e-6 || !d_tight.selection.feasible);
        assert!(d_generous.selection.total_size_mb >= d_tight.selection.total_size_mb);
        assert!(d_generous.selection.total_quality >= d_tight.selection.total_quality - 1e-9);
    }

    #[test]
    fn alternative_selectors_plug_in() {
        let (scene, dataset) = small_scene_and_dataset();
        let pipeline = NerflexPipeline::new(
            PipelineOptions::quick().with_selector(Arc::new(FairnessSelector)),
        );
        let deployment =
            pipeline.try_run(&scene, &dataset, &DeviceSpec::pixel_4()).expect("deploy");
        assert_eq!(deployment.selection.selector, "Fairness");
        assert_eq!(deployment.assets.len(), 2);
    }

    #[test]
    fn fleet_deployment_shares_the_expensive_stages() {
        let (scene, dataset) = small_scene_and_dataset();
        let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
        let fleet = NerflexPipeline::new(PipelineOptions::quick())
            .try_deploy_fleet(&scene, &dataset, &devices)
            .expect("fleet deploy");

        // Segmentation and profiling ran exactly once for the whole fleet.
        assert_eq!(fleet.shared_stage_runs, 1);

        assert_eq!(fleet.deployments.len(), 2);
        assert!(fleet.for_device("iPhone 13").is_some());
        assert!(fleet.for_device("Pixel 4").is_some());
        for deployment in &fleet.deployments {
            assert_eq!(deployment.assets.len(), scene.len());
            assert!(deployment.selection.total_size_mb <= deployment.budget_mb + 1e-6);
            // Shared-stage timings are identical across the fleet.
            assert_eq!(deployment.timings.segmentation, fleet.deployments[0].timings.segmentation);
            assert_eq!(deployment.timings.profiling, fleet.deployments[0].timings.profiling);
        }
        // The shared segmentation/profile outputs were handed to every
        // deployment, not recomputed.
        assert_eq!(fleet.deployments[0].profiles.len(), fleet.deployments[1].profiles.len());
        // Both devices funnel their bakes through one cache: the fleet's
        // total misses stay below two independent runs' bake count.
        assert!(fleet.cache.hits >= 1, "fleet bakes must share the cache: {:?}", fleet.cache);
    }

    #[test]
    fn try_entry_points_report_invalid_inputs_as_errors() {
        let (scene, dataset) = small_scene_and_dataset();
        let empty_scene = Scene::new();
        let empty_dataset = Dataset { train: vec![], test: vec![], width: 32, height: 32 };
        let pipeline = NerflexPipeline::new(PipelineOptions::quick());
        let device = DeviceSpec::iphone_13();

        assert_eq!(
            pipeline.try_run(&empty_scene, &dataset, &device).err(),
            Some(PipelineError::EmptyScene)
        );
        assert_eq!(
            pipeline.try_run(&scene, &empty_dataset, &device).err(),
            Some(PipelineError::EmptyDataset)
        );
        assert_eq!(
            pipeline.try_deploy_fleet(&scene, &dataset, &[]).err(),
            Some(PipelineError::EmptyFleet)
        );
    }

    #[test]
    fn pipeline_errors_display_the_historic_panic_messages() {
        // The messages the entry points used to panic with must survive in
        // the errors' display strings.
        assert!(PipelineError::EmptyScene.to_string().contains("cannot deploy an empty scene"));
        assert!(PipelineError::EmptyDataset.to_string().contains("need training views"));
        assert!(PipelineError::EmptyFleet.to_string().contains("need at least one device"));
        let err = PipelineError::InvalidBudget { requested_mb: -3.0 };
        assert!(err.to_string().contains("invalid memory budget"));
        assert!(err.to_string().contains("-3"));
        let dynamic: &dyn std::error::Error = &err;
        assert!(!dynamic.to_string().is_empty());
        let store = PipelineError::Store {
            entry: "0000.nfbake".to_string(),
            message: "injected write fault".to_string(),
        };
        assert!(store.to_string().contains("store fault"));
        assert!(store.to_string().contains("0000.nfbake"));
    }

    #[test]
    fn options_builders_round_trip_the_default() {
        // Every PipelineOptions field has a `with_*` builder, and rebuilding
        // the default from its own parts changes nothing observable.
        let default = PipelineOptions::default();
        let rebuilt = PipelineOptions::default()
            .with_segmentation(default.segmentation)
            .with_profiler(default.profiler)
            .with_space(default.space.clone())
            .with_selector(Arc::clone(&default.selector))
            .with_worker_threads(default.worker_threads)
            .with_store(default.store.clone())
            .with_stage_faults(crate::fault::StageFaultPlan::none());
        assert_eq!(rebuilt.profiler.range, default.profiler.range);
        assert_eq!(rebuilt.space.configurations().len(), default.space.configurations().len());
        assert_eq!(rebuilt.worker_threads, default.worker_threads);
        assert_eq!(rebuilt.store.describe(), default.store.describe());
    }
}
