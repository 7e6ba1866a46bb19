//! The three workloads: inputs generated from the seed, set-up, the timed
//! operation, and the sequential reference every output is checked against.
//!
//! All three deploy through the public `DeployService` API with the quick
//! pipeline widened by the splat family, so both representation families
//! are on the path, and with fixed per-request budgets, so set-up does no
//! baseline bakes to derive device budgets.

use nerflex_bake::{BakedAsset, CacheStats, StoreOptions};
use nerflex_bench::ExperimentMode;
use nerflex_core::experiments::EvaluationScene;
use nerflex_core::pipeline::{PipelineOptions, StageTimings};
use nerflex_core::service::{CompletedDeploy, DeployRequest, DeployService, ServiceOptions};
use nerflex_device::DeviceSpec;
use nerflex_math::{PoolStats, WorkerPool};
use nerflex_profile::{ObjectProfile, SplatSampleRange};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::CanonicalObject;
use nerflex_scene::scene::Scene;
use nerflex_solve::ConfigSpace;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget of every cold-scene request: ships 3 splat and 3 mesh assets at
/// seed 42.
const COLD_BUDGET_MB: f64 = 0.35;

/// The warm-store budget ladder: deployed once in set-up, then cycled.
const LADDER_MB: [f64; 6] = [0.25, 0.35, 0.5, 0.8, 1.2, 2.0];

/// One service-burst operation: `(content, budget MB)` per request, in
/// submission order. Contents are {Hotdog, Chair} at the seed, the same
/// objects at seed + 1 (a different coalescing key over shared store
/// entries) and {Lego, Ficus} at the seed; the last request duplicates the
/// fourth exactly.
const BURST: [(usize, f64); 8] =
    [(0, 0.15), (1, 0.3), (2, 0.15), (0, 0.3), (1, 0.6), (2, 0.6), (0, 0.6), (0, 0.3)];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: a cold deploy of the fig9-smoke scene per
    /// request through a fresh in-memory service.
    ColdScene,
    /// Closed loop, one client: a read-only service over a populated
    /// on-disk store per request, cycling the budget ladder.
    WarmStore,
    /// Eight concurrent requests per operation into a fresh service with
    /// two executors.
    ServiceBurst,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::ColdScene, Workload::WarmStore, Workload::ServiceBurst];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScene => "cold-scene",
            Workload::WarmStore => "warm-store",
            Workload::ServiceBurst => "service-burst",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(executor threads, pipeline workers)` of the measured service.
    /// Executors × workers never exceeds the two cores the benchmark
    /// targets; `0` executors is the inline service.
    pub fn split(self) -> (usize, usize) {
        match self {
            Workload::ColdScene | Workload::WarmStore => (0, 2),
            Workload::ServiceBurst => (2, 1),
        }
    }

    /// The requests of operation number `op`, in submission order.
    fn requests(self, op: usize) -> Vec<RequestSpec> {
        match self {
            Workload::ColdScene => vec![RequestSpec { content: 0, budget_mb: COLD_BUDGET_MB }],
            Workload::WarmStore => {
                vec![RequestSpec { content: 0, budget_mb: LADDER_MB[op % LADDER_MB.len()] }]
            }
            Workload::ServiceBurst => BURST
                .iter()
                .map(|&(content, budget_mb)| RequestSpec { content, budget_mb })
                .collect(),
        }
    }

    /// The distinct requests of the workload, in first-submission order.
    pub fn distinct_requests(self) -> Vec<RequestSpec> {
        let all: Vec<RequestSpec> = match self {
            Workload::WarmStore => (0..LADDER_MB.len()).flat_map(|op| self.requests(op)).collect(),
            Workload::ColdScene | Workload::ServiceBurst => self.requests(0),
        };
        let mut distinct: Vec<RequestSpec> = Vec::new();
        for spec in all {
            if !distinct.iter().any(|d| d.key() == spec.key()) {
                distinct.push(spec);
            }
        }
        distinct
    }
}

/// The pipeline options every workload deploys with: the quick scale plus
/// the splat family, with an explicit worker count.
pub fn pipeline_options(workers: usize) -> PipelineOptions {
    let mut options = ExperimentMode::Quick.pipeline_options().with_worker_threads(workers);
    options.profiler = options.profiler.with_splats(SplatSampleRange::quick());
    options.space = ConfigSpace::quick().with_splats(24, vec![128, 256, 512, 1024]);
    options
}

/// A scene and the dataset it is deployed from.
pub struct Content {
    pub scene: Arc<Scene>,
    pub dataset: Arc<Dataset>,
}

impl Content {
    fn new(scene: Scene, train: usize, test: usize, resolution: usize) -> Self {
        let dataset = Dataset::generate(&scene, train, test, resolution, resolution);
        Self { scene: Arc::new(scene), dataset: Arc::new(dataset) }
    }
}

/// One deploy request: which content, at which budget.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    pub content: usize,
    pub budget_mb: f64,
}

impl RequestSpec {
    /// Identity of a distinct request.
    pub fn key(&self) -> (usize, u64) {
        (self.content, self.budget_mb.to_bits())
    }

    fn request(&self, contents: &[Content]) -> DeployRequest {
        let content = &contents[self.content];
        DeployRequest::new(
            Arc::clone(&content.scene),
            Arc::clone(&content.dataset),
            DeviceSpec::iphone_13(),
        )
        .with_budget_mb(self.budget_mb)
    }
}

/// Everything set-up produced: the contents and, for warm-store, the
/// populated store.
pub struct Inputs {
    pub contents: Vec<Content>,
    pub store: Option<PathBuf>,
}

/// Generates the workload's contents from the seed. Every scene placement
/// derives from it.
fn generate_contents(workload: Workload, seed: u64) -> Vec<Content> {
    match workload {
        // The fig9 smoke scale: the real-world scene (five objects plus a
        // backdrop) with 6 training and 2 test views at 56 px.
        Workload::ColdScene | Workload::WarmStore => {
            vec![Content::new(EvaluationScene::RealWorld.build(seed).scene, 6, 2, 56)]
        }
        // Two-object scenes with 4 training and 2 test views at 48 px.
        Workload::ServiceBurst => {
            let pair = [CanonicalObject::Hotdog, CanonicalObject::Chair];
            let other = [CanonicalObject::Lego, CanonicalObject::Ficus];
            [
                Scene::with_objects(&pair, seed),
                Scene::with_objects(&pair, seed.wrapping_add(1)),
                Scene::with_objects(&other, seed),
            ]
            .into_iter()
            .map(|scene| Content::new(scene, 4, 2, 48))
            .collect()
        }
    }
}

/// Runs set-up once: input generation, plus populating a fresh on-disk
/// store with the whole budget ladder on warm-store. `store_dir` is where
/// that store goes; it is replaced if it exists.
pub fn setup(workload: Workload, seed: u64, store_dir: &Path) -> Inputs {
    let contents = generate_contents(workload, seed);
    if workload != Workload::WarmStore {
        return Inputs { contents, store: None };
    }
    if store_dir.exists() {
        std::fs::remove_dir_all(store_dir).expect("remove the previous store");
    }
    let (_, workers) = workload.split();
    let service = DeployService::new(ServiceOptions::inline(
        pipeline_options(workers).with_store(StoreOptions::dir(store_dir)),
    ));
    for spec in workload.distinct_requests() {
        service.submit(spec.request(&contents)).expect("valid ladder request");
    }
    // Drain settles every request and flushes the store.
    for outcome in service.drain() {
        if let Err(err) = outcome.result {
            panic!("store population failed: {err}");
        }
    }
    Inputs { contents, store: Some(store_dir.to_path_buf()) }
}

/// What a completed request produced.
pub struct Completed {
    pub fingerprint: u64,
    pub timings: StageTimings,
    pub coalesced: bool,
    pub profiles: Arc<Vec<ObjectProfile>>,
}

impl Completed {
    fn of(done: &CompletedDeploy) -> Self {
        Self {
            fingerprint: done.deployment_fingerprint,
            timings: done.deployment.timings,
            coalesced: done.coalesced,
            profiles: Arc::clone(&done.deployment.profiles),
        }
    }
}

/// One request of a timed operation.
pub struct RequestRecord {
    pub spec: RequestSpec,
    /// Submit → outcome. For the closed-loop workloads the request starts
    /// before the fresh service is opened, so opening it is part of the
    /// request.
    pub latency: Duration,
    pub result: Result<Completed, String>,
}

/// One timed operation: a closed-loop request, or a whole burst.
pub struct OpRecord {
    pub requests: Vec<RequestRecord>,
    pub wall: Duration,
    pub cache: CacheStats,
    pub service: nerflex_core::service::ServiceStats,
    pub pool: PoolStats,
}

/// The pipeline options of the measured service: the workload's worker
/// count and, on warm-store, the populated store opened read-only.
pub fn service_options(workload: Workload, inputs: &Inputs) -> PipelineOptions {
    let mut options = pipeline_options(workload.split().1);
    if let Some(dir) = &inputs.store {
        options.store = StoreOptions::dir(dir).read_only(true);
    }
    options
}

/// Runs timed operation number `op` through a fresh service over `options`.
pub fn run_op(
    workload: Workload,
    inputs: &Inputs,
    op: usize,
    options: PipelineOptions,
) -> OpRecord {
    let specs = workload.requests(op);
    let (executors, _) = workload.split();
    let pool_before = WorkerPool::shared().stats();
    let started = Instant::now();
    let service = DeployService::new(ServiceOptions::inline(options).with_executors(executors));
    let mut submitted = HashMap::new();
    for (idx, spec) in specs.iter().enumerate() {
        let ticket = service.submit(spec.request(&inputs.contents)).expect("valid request");
        // The first request of a closed-loop operation also pays the
        // service open.
        let at = if executors == 0 && idx == 0 { started } else { Instant::now() };
        submitted.insert(ticket.id(), (*spec, at));
    }
    let mut requests = Vec::with_capacity(specs.len());
    while let Some(outcome) = service.next_outcome() {
        let received = Instant::now();
        let (spec, at) = submitted.remove(&outcome.ticket.id()).expect("one outcome per ticket");
        let result = outcome.into_success().map(|done| Completed::of(&done));
        requests.push(RequestRecord {
            spec,
            latency: received - at,
            result: result.map_err(|err| err.to_string()),
        });
    }
    let wall = started.elapsed();
    let cache = service.cache_stats();
    let stats = service.stats();
    service.shutdown();
    let pool_after = WorkerPool::shared().stats();
    assert!(submitted.is_empty(), "every admitted request settles");
    OpRecord {
        requests,
        wall,
        cache,
        service: stats,
        pool: PoolStats {
            dispatches: pool_after.dispatches - pool_before.dispatches,
            jobs: pool_after.jobs - pool_before.jobs,
        },
    }
}

/// The sequential reference for one distinct request.
pub struct Reference {
    pub completed: Completed,
    pub assets: Vec<BakedAsset>,
}

/// Recomputes every distinct request once on the sequential path (inline
/// service, one worker, fresh in-memory stores), keyed by
/// [`RequestSpec::key`].
pub fn references(
    workload: Workload,
    contents: &[Content],
) -> HashMap<(usize, u64), Result<Reference, String>> {
    let service = DeployService::new(ServiceOptions::inline(pipeline_options(1)));
    let mut keys = HashMap::new();
    for spec in workload.distinct_requests() {
        let ticket = service.submit(spec.request(contents)).expect("valid request");
        keys.insert(ticket.id(), spec.key());
    }
    service
        .drain()
        .into_iter()
        .map(|outcome| {
            let key = keys[&outcome.ticket.id()];
            let reference = outcome.into_success().map_err(|err| err.to_string()).map(|done| {
                Reference { completed: Completed::of(&done), assets: done.deployment.assets }
            });
            (key, reference)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_core::fault::{StageFaultMode, StageFaultPlan, StageOp};

    #[test]
    fn a_stage_fault_counts_its_request_as_failed() {
        // A one-object scene keeps the test cheap: the fault fires at
        // segmentation, before any profiling work.
        let scene = Scene::with_objects(&[CanonicalObject::Hotdog], 3);
        let inputs = Inputs { contents: vec![Content::new(scene, 2, 1, 32)], store: None };
        let faults =
            StageFaultPlan::none().fail_nth(StageOp::Segmentation, 0, StageFaultMode::Fail);
        let options = service_options(Workload::ColdScene, &inputs).with_stage_faults(faults);
        let op = run_op(Workload::ColdScene, &inputs, 0, options);
        let references = HashMap::new();
        let tally = crate::tally(&[op], &references);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn distinct_requests_drop_the_exact_duplicate() {
        assert_eq!(Workload::ServiceBurst.requests(0).len(), 8);
        assert_eq!(Workload::ServiceBurst.distinct_requests().len(), 7);
        assert_eq!(Workload::WarmStore.distinct_requests().len(), LADDER_MB.len());
        assert_eq!(Workload::ColdScene.distinct_requests().len(), 1);
    }
}
