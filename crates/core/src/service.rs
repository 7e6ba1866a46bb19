//! The fleet deployment service: a long-running, request-based layer above
//! the pipeline engine.
//!
//! [`NerflexPipeline::try_deploy_fleet`] is one blocking call for one scene.
//! A production fleet looks different: many devices continuously requesting
//! scene deployments, most of them duplicates of work already in flight or
//! already resident. [`DeployService`] admits [`DeployRequest`] values at
//! high rate, schedules them over the shared worker pool, and streams
//! [`DeployOutcome`]s out as they complete, with three mechanics on top of
//! the engine:
//!
//! * **Scene-level shared-stage coalescing** — requests for the same scene
//!   (by content fingerprint, not pointer) share **one** segmentation +
//!   profiling run. The first request claims the scene's stage cell and
//!   builds; concurrent requests wait on the cell — contributing to the
//!   builder's pool batches via [`WorkerPool::wait_until`] instead of
//!   sleeping — and reuse the `Arc`-shared outputs.
//! * **In-flight dedup by content fingerprint** — every store lookup is
//!   single-flight ([`nerflex_bake::KeyedStore::get_or_build`]), so two
//!   concurrent requests needing the same bake or ground truth wait on one
//!   in-flight computation, keyed by the same fingerprints the stores
//!   already use. The service opens its stores like any other caller.
//! * **Priority + warm-cache-first ordering** — the queue pops the highest
//!   priority first, prefers requests whose scene's shared stages are
//!   already resident (they complete without paying the expensive stages),
//!   and breaks ties by admission order.
//! * **Graceful store-fault degradation** — transient remote store errors
//!   are retried ([`nerflex_bake::RetryPolicy`]), a persistently failing
//!   remote degrades the shared store to local-only recomputation, and a
//!   store fault that still escalates ([`nerflex_bake::StoreFaultPanic`])
//!   fails only its own request — a failed [`DeployOutcome`] counted in
//!   [`ServiceStats::failed`] — never the service. `docs/faults.md` states
//!   the full resilience contract.
//! * **Request lifecycle** — per-request deadlines in virtual clock ticks
//!   ([`DeployRequest::with_deadline`], [`crate::clock::Clock`]),
//!   cooperative cancellation ([`DeployService::cancel`]), bounded
//!   admission with deterministic load shedding
//!   ([`ServiceOptions::with_queue_limit`]), graceful drain
//!   ([`DeployService::drain`] closes admission, settles every ticket and
//!   flushes the stores), and a stall watchdog
//!   ([`ServiceOptions::with_watchdog_ticks`]) that converts a hung
//!   executor into a failed outcome instead of a hung consumer. Compute
//!   stages can be fault-injected deterministically through
//!   [`PipelineOptions::with_stage_faults`]. `docs/service.md` states the
//!   lifecycle state machine.
//!
//! **Determinism:** given the same request set, the deployments (assets,
//! selections, `deployment_fingerprint`s) are bit-identical regardless of
//! admission order, executor count, worker count, or which request happened
//! to pay for a coalesced computation. Deadlines, cancellation and shedding
//! decide *whether* a request completes, never what a completing request
//! computes. Only the diagnostics (timings, who hit vs who built) depend on
//! scheduling. `docs/service.md` states the full contract.

use crate::clock::{Clock, WallClock};
use crate::pipeline::{
    NerflexDeployment, NerflexPipeline, PipelineError, PipelineOptions, StageTimings,
};
use nerflex_bake::{model_fingerprint, BakeCache, CacheStats, Fnv1a, StoreStats};
use nerflex_device::DeviceSpec;
use nerflex_math::WorkerPool;
use nerflex_profile::{GroundTruthCache, ObjectProfile};
use nerflex_scene::dataset::Dataset;
use nerflex_scene::scene::Scene;
use nerflex_seg::SegmentationResult;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Requests and tickets
// ---------------------------------------------------------------------------

/// One deployment request: a scene + dataset to prepare for one device,
/// with an optional per-request budget override and a scheduling priority.
///
/// This is the single request type every deploy path goes through — the
/// blocking [`NerflexPipeline::try_deploy_fleet`] wrapper builds these
/// internally. Budgets moved here from `PipelineOptions`: a budget belongs
/// to a request, not to the engine.
///
/// ```
/// use nerflex_core::service::DeployRequest;
/// use nerflex_device::DeviceSpec;
/// use nerflex_scene::{dataset::Dataset, scene::Scene};
/// use nerflex_scene::object::CanonicalObject;
///
/// let scene = Scene::with_objects(&[CanonicalObject::Hotdog], 7);
/// let dataset = Dataset::generate(&scene, 2, 1, 32, 32);
/// let request = DeployRequest::new(scene, dataset, DeviceSpec::pixel_4())
///     .with_budget_mb(96.0)
///     .with_priority(3);
/// assert_eq!(request.budget_override_mb(), Some(96.0));
/// assert_eq!(request.priority(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DeployRequest {
    scene: Arc<Scene>,
    dataset: Arc<Dataset>,
    device: DeviceSpec,
    budget_override_mb: Option<f64>,
    priority: i32,
    deadline: Option<u64>,
}

impl DeployRequest {
    /// A request to deploy `scene` (trained from `dataset`) to `device`,
    /// with default priority 0 and the device's recommended budget.
    /// `Arc`-wrapped scenes/datasets are accepted directly, so duplicate
    /// requests share one copy.
    pub fn new(
        scene: impl Into<Arc<Scene>>,
        dataset: impl Into<Arc<Dataset>>,
        device: DeviceSpec,
    ) -> Self {
        Self {
            scene: scene.into(),
            dataset: dataset.into(),
            device,
            budget_override_mb: None,
            priority: 0,
            deadline: None,
        }
    }

    /// Overrides the memory budget for this request only (MB). Must be
    /// positive and finite — [`DeployService::submit`] rejects the request
    /// with [`PipelineError::InvalidBudget`] otherwise.
    pub fn with_budget_mb(mut self, budget_mb: f64) -> Self {
        self.budget_override_mb = Some(budget_mb);
        self
    }

    /// Sets the scheduling priority (higher pops first; default 0).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline in ticks of the service's [`Clock`]
    /// ([`ServiceOptions::with_clock`]).
    /// A request whose deadline has already passed at admission settles
    /// immediately as a failed outcome; a request whose deadline passes
    /// mid-flight aborts at the next pipeline stage boundary. Either way the
    /// outcome is [`PipelineError::DeadlineExceeded`], counted in
    /// [`ServiceStats::deadline_exceeded`].
    pub fn with_deadline(mut self, deadline_ticks: u64) -> Self {
        self.deadline = Some(deadline_ticks);
        self
    }

    /// The scene to deploy.
    pub fn scene(&self) -> &Arc<Scene> {
        &self.scene
    }

    /// The dataset the scene is profiled/segmented against.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The per-request budget override, when set.
    pub fn budget_override_mb(&self) -> Option<f64> {
        self.budget_override_mb
    }

    /// The scheduling priority.
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// The absolute deadline in clock ticks, when set.
    pub fn deadline(&self) -> Option<u64> {
        self.deadline
    }
}

/// Handle to an admitted request, returned by [`DeployService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeployTicket {
    id: u64,
    scene_key: u64,
}

impl DeployTicket {
    /// Admission sequence number (strictly increasing per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The content fingerprint of the request's (scene, dataset) pair — the
    /// coalescing key. Requests with equal keys share one shared-stage run.
    pub fn scene_key(&self) -> u64 {
        self.scene_key
    }
}

/// One finished request: the ticket plus either the completed deployment
/// or the [`PipelineError`] that stopped it — a lifecycle decision
/// (cancelled, past deadline, shed, stalled) or a fault that deliberately
/// escalated out of its build ([`nerflex_bake::StoreFaultPanic`] →
/// [`PipelineError::Store`], [`crate::fault::StageFaultPanic`] →
/// [`PipelineError::Stage`]). Transient remote faults are retried and a
/// degraded remote is recomputed around, so those never surface here.
#[derive(Debug, Clone)]
pub struct DeployOutcome {
    /// The ticket [`DeployService::submit`] returned for this request.
    pub ticket: DeployTicket,
    /// The completed deployment, or why this request failed. One failed
    /// request never takes down the service or its siblings in a burst.
    pub result: Result<CompletedDeploy, PipelineError>,
}

impl DeployOutcome {
    /// `true` when the request completed with a deployment.
    pub fn is_success(&self) -> bool {
        self.result.is_ok()
    }

    /// The completed deployment, when the request succeeded.
    pub fn success(&self) -> Option<&CompletedDeploy> {
        self.result.as_ref().ok()
    }

    /// Consumes the outcome into its completed deployment or error.
    pub fn into_success(self) -> Result<CompletedDeploy, PipelineError> {
        self.result
    }

    /// The error that failed the request, when it did fail.
    pub fn error(&self) -> Option<&PipelineError> {
        self.result.as_ref().err()
    }
}

/// The successful half of a [`DeployOutcome`].
#[derive(Debug, Clone)]
pub struct CompletedDeploy {
    /// The finished deployment (identical to what the blocking engine path
    /// produces for the same inputs).
    pub deployment: NerflexDeployment,
    /// `true` when this request reused another request's shared-stage run
    /// instead of paying for segmentation + profiling itself.
    pub coalesced: bool,
    /// Canonical byte-level fingerprint of the deployment's baked assets
    /// ([`nerflex_bake::disk::deployment_fingerprint`]) — equal across
    /// admission orders, worker counts and dedup hits.
    pub deployment_fingerprint: u64,
}

// ---------------------------------------------------------------------------
// Stats and options
// ---------------------------------------------------------------------------

/// Counters describing what a [`DeployService`] has done (fig9 reports them
/// as JSON).
///
/// An outcome counter moves only when its ticket settles, in the same
/// critical section that takes the ticket out of the queue or out of
/// flight, so every snapshot balances: `admitted` plus the submits refused
/// as [`PipelineError::Overloaded`] equals `completed + failed + cancelled +
/// deadline_exceeded + shed + watchdog_trips + in_flight + queue_depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests admitted (tickets issued).
    pub admitted: u64,
    /// Requests rejected at admission (empty scene/dataset, bad budget).
    pub rejected: u64,
    /// Requests completed successfully (deployments produced).
    pub completed: u64,
    /// Requests that finished with a failed outcome: a store fault escalated
    /// as [`PipelineError::Store`] or a stage fault as
    /// [`PipelineError::Stage`]. Not counted in `completed`.
    pub failed: u64,
    /// Completed requests that reused another request's shared-stage run.
    pub coalesced: u64,
    /// Segmentation + profiling runs actually paid for — one per distinct
    /// scene content fingerprint, regardless of how many requests named it.
    pub shared_stage_runs: usize,
    /// Requests currently being processed.
    pub in_flight: usize,
    /// Requests admitted but not yet claimed by an executor.
    pub queue_depth: usize,
    /// Store-level dedup: bake lookups that waited on another lookup's
    /// in-flight bake instead of duplicating it.
    pub bake_coalesced: usize,
    /// Store-level dedup: ground-truth lookups that waited on another
    /// lookup's in-flight render.
    pub ground_truth_coalesced: usize,
    /// Requests cancelled by [`DeployService::cancel`] — removed from the
    /// queue outright or aborted at a stage boundary mid-flight.
    pub cancelled: u64,
    /// Requests that missed their [`DeployRequest::with_deadline`] — already
    /// expired at admission or aborted at a stage boundary.
    pub deadline_exceeded: u64,
    /// Requests shed by bounded admission ([`ServiceOptions::with_queue_limit`]:
    /// queued victims and refused submits alike) or by shutdown with work
    /// still queued.
    pub shed: u64,
    /// In-flight requests the stall watchdog gave up on
    /// ([`ServiceOptions::with_watchdog_ticks`]).
    pub watchdog_trips: u64,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} admitted / {} completed ({} coalesced onto {} shared-stage runs), {} queued, \
             {} in flight, store dedup {} bakes / {} ground truths, {} failed, {} rejected, \
             {} cancelled, {} past deadline, {} shed, {} watchdog trips",
            self.admitted,
            self.completed,
            self.coalesced,
            self.shared_stage_runs,
            self.queue_depth,
            self.in_flight,
            self.bake_coalesced,
            self.ground_truth_coalesced,
            self.failed,
            self.rejected,
            self.cancelled,
            self.deadline_exceeded,
            self.shed,
            self.watchdog_trips,
        )
    }
}

/// How to run a [`DeployService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Engine options (stores, pool, worker budget, profiler, selector).
    pub pipeline: PipelineOptions,
    /// Executor threads draining the queue. `0` is *inline mode*: no
    /// background threads — requests are processed on whichever thread
    /// calls [`DeployService::next_outcome`] / [`DeployService::drain`].
    /// Inline mode with one caller is the bit-for-bit sequential reference
    /// path (and what [`NerflexPipeline::try_deploy_fleet`] uses).
    pub executors: usize,
    /// Bounded admission: maximum queued (admitted, unclaimed) requests.
    /// `None` (default) is unbounded. When a submit would exceed the limit
    /// the lowest-priority-newest request is shed — see
    /// [`ServiceOptions::with_queue_limit`].
    pub queue_limit: Option<usize>,
    /// Stall watchdog: an in-flight request that makes no progress for this
    /// many clock ticks is given up on — see
    /// [`ServiceOptions::with_watchdog_ticks`]. `None` (default) disables
    /// the watchdog.
    pub watchdog_ticks: Option<u64>,
    /// The virtual clock deadlines and the watchdog are measured against.
    /// `None` (default) uses a [`WallClock`] started with the service.
    pub clock: Option<Arc<dyn Clock>>,
}

impl ServiceOptions {
    /// Inline mode (no executor threads) over the given engine options.
    pub fn inline(pipeline: PipelineOptions) -> Self {
        Self { pipeline, executors: 0, queue_limit: None, watchdog_ticks: None, clock: None }
    }

    /// Returns the options with `executors` background executor threads.
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors;
        self
    }

    /// Bounds the queue to `limit` admitted-but-unclaimed requests. When a
    /// submit finds the queue full, the lowest-priority request is shed —
    /// newest first among equals, so older work of the same priority keeps
    /// its place. If the incoming request itself is the lowest-priority-
    /// newest, [`DeployService::submit`] returns
    /// [`PipelineError::Overloaded`] and no ticket is issued; otherwise a
    /// queued victim settles as an `Overloaded` outcome and the incoming
    /// request takes its place. Shedding is deterministic: it depends only
    /// on queue contents, never on timing.
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// Enables the stall watchdog: an in-flight request with no progress
    /// (admission, stage boundary, shared-stage completion) for `ticks`
    /// clock ticks settles as a [`PipelineError::Stalled`] outcome, so a
    /// hung executor becomes a failed request instead of a hung consumer.
    /// The watchdog runs on consumer threads ([`DeployService::next_outcome`]),
    /// so it needs executor threads to be useful: in inline mode the consumer
    /// *is* the (potentially stalled) processor.
    pub fn with_watchdog_ticks(mut self, ticks: u64) -> Self {
        self.watchdog_ticks = Some(ticks);
        self
    }

    /// Pins the service to an explicit clock (e.g. a
    /// [`TestClock`](crate::clock::TestClock) for deterministic deadline
    /// tests). Defaults to a [`WallClock`] started with the service.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }
}

impl Default for ServiceOptions {
    fn default() -> Self {
        Self::inline(PipelineOptions::default())
    }
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// The outputs of one shared-stage (segmentation + profiling) run, shared
/// by reference count across every request that coalesced onto it.
/// `shared` carries the shared-stage fields of [`StageTimings`] only.
#[derive(Clone)]
struct SharedOutputs {
    segmentation: Arc<SegmentationResult>,
    profiles: Arc<Vec<ObjectProfile>>,
    shared: StageTimings,
}

/// Per-scene coalescing cell: the first request claims the build, everyone
/// else polls the state while helping the pool
/// ([`WorkerPool::wait_until`]).
struct StageCell {
    state: Mutex<StageState>,
}

enum StageState {
    /// Nobody has started (or the previous claimant panicked — retry).
    Idle,
    /// A request is running segmentation + profiling right now.
    Building,
    /// Outputs resident; every subsequent request reuses them. Boxed: the
    /// timings would make this variant far larger than the other two.
    Ready(Box<SharedOutputs>),
}

impl StageCell {
    fn new() -> Self {
        Self { state: Mutex::new(StageState::Idle) }
    }

    /// `true` when the cell's outputs are resident (the "warm" half of the
    /// warm-cache-first ordering).
    fn is_ready(&self) -> bool {
        matches!(*self.state.lock().expect("stage cell poisoned"), StageState::Ready(_))
    }
}

/// An admitted request waiting in (or claimed from) the queue.
struct Queued {
    ticket: DeployTicket,
    request: DeployRequest,
}

/// Lifecycle flags for one claimed (in-flight) request, shared between the
/// processing thread and [`DeployService::cancel`] / the watchdog.
struct InFlightState {
    ticket: DeployTicket,
    /// Set by `cancel`; observed cooperatively at stage boundaries.
    cancelled: AtomicBool,
    /// Clock tick of the last observed progress (claim, stage boundary,
    /// shared-stage handoff). The watchdog measures staleness against this.
    last_progress: AtomicU64,
}

/// Queue, flight and completion state behind one mutex.
struct QueueState {
    queued: Vec<Queued>,
    completed: VecDeque<DeployOutcome>,
    /// id → lifecycle flags for every claimed request not yet settled.
    inflight: HashMap<u64, Arc<InFlightState>>,
    /// Requests the watchdog settled whose thread has not returned yet.
    /// `shutdown` does not join the executors while any remain.
    abandoned: usize,
    /// The admission and outcome counters. The live fields (`in_flight`,
    /// `queue_depth`, the dedup counts, `shared_stage_runs`) stay zero here:
    /// [`DeployService::stats`] reads them where they live.
    counts: ServiceStats,
    /// Admission closed by `drain` or `shutdown`; submits fail with
    /// [`PipelineError::Draining`].
    draining: bool,
    shutdown: bool,
}

impl QueueState {
    /// Issues the next ticket (admission order) and counts it admitted.
    fn admit(&mut self, scene_key: u64) -> DeployTicket {
        let ticket = DeployTicket { id: self.counts.admitted, scene_key };
        self.counts.admitted += 1;
        ticket
    }

    /// Settles one ticket: counts its outcome and queues it for the
    /// consumers. Every outcome goes through here, under the same lock hold
    /// that took its ticket out of the queue or out of `inflight`.
    fn settle(&mut self, outcome: DeployOutcome) {
        self.counts.count(&outcome.result);
        self.completed.push_back(outcome);
    }
}

impl ServiceStats {
    /// Counts one settled outcome by its result — or a submit refused as
    /// [`PipelineError::Overloaded`], which sheds like a queued victim.
    fn count(&mut self, result: &Result<CompletedDeploy, PipelineError>) {
        let counter = match result {
            Ok(done) => {
                self.coalesced += u64::from(done.coalesced);
                &mut self.completed
            }
            Err(PipelineError::Cancelled) => &mut self.cancelled,
            Err(PipelineError::DeadlineExceeded { .. }) => &mut self.deadline_exceeded,
            Err(PipelineError::Overloaded { .. }) => &mut self.shed,
            Err(PipelineError::Stalled { .. }) => &mut self.watchdog_trips,
            Err(_) => &mut self.failed,
        };
        *counter += 1;
    }
}

struct ServiceShared {
    pipeline: NerflexPipeline,
    cache: BakeCache,
    ground_truth: GroundTruthCache,
    queue: Mutex<QueueState>,
    /// Signals executors: a request was admitted or shutdown requested.
    work: Condvar,
    /// Signals consumers: an outcome landed or a request left flight.
    done: Condvar,
    /// scene_key → coalescing cell. Lock order: `queue` → `stages` →
    /// `StageCell::state`; builds run with no lock held.
    stages: Mutex<HashMap<u64, Arc<StageCell>>>,
    /// Unclassified panic payloads from request threads, re-raised on the
    /// next consumer call so a dying request can't hang `drain`.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
    /// Virtual time source for deadlines and the watchdog.
    clock: Arc<dyn Clock>,
    queue_limit: Option<usize>,
    watchdog_ticks: Option<u64>,
}

/// Classifies an unwound request panic: a typed store-fault payload
/// ([`nerflex_bake::StoreFaultPanic`] — preserved verbatim even through the
/// worker pool's panic re-raise) becomes a [`PipelineError::Store`], and a
/// typed stage-fault payload ([`crate::fault::StageFaultPanic`], thrown by a
/// [`crate::fault::StageFaultInjector`] gate) becomes a
/// [`PipelineError::Stage`] — either way a failed outcome, so one broken
/// entry or injected stage fault cannot take down the service or the rest of
/// a burst. Any other payload is handed back for re-raising — an unknown
/// panic is a bug, not a fault to absorb.
fn classify_panic(payload: Box<dyn Any + Send>) -> Result<PipelineError, Box<dyn Any + Send>> {
    let payload = match payload.downcast::<nerflex_bake::StoreFaultPanic>() {
        Ok(fault) => {
            return Ok(PipelineError::Store {
                entry: fault.name.clone(),
                message: fault.to_string(),
            })
        }
        Err(payload) => payload,
    };
    match payload.downcast::<crate::fault::StageFaultPanic>() {
        Ok(fault) => {
            Ok(PipelineError::Stage { stage: fault.stage.name(), message: fault.to_string() })
        }
        Err(payload) => Err(payload),
    }
}

impl ServiceShared {
    /// Pops the best queued request: highest priority first, then warm
    /// scenes (shared stages already resident), then admission order.
    fn pop_best(&self, q: &mut QueueState) -> Option<Queued> {
        if q.queued.is_empty() {
            return None;
        }
        let stages = self.stages.lock().expect("stage map poisoned");
        let warm = |key: u64| -> bool { stages.get(&key).is_some_and(|cell| cell.is_ready()) };
        let best = q
            .queued
            .iter()
            .enumerate()
            .max_by_key(|(_, job)| {
                (job.request.priority, warm(job.ticket.scene_key), std::cmp::Reverse(job.ticket.id))
            })
            .map(|(idx, _)| idx)?;
        Some(q.queued.remove(best))
    }

    /// Claims the best queued request: registers its lifecycle flags in
    /// `inflight`. Caller holds the queue lock.
    fn claim(&self, q: &mut QueueState) -> Option<(Queued, Arc<InFlightState>)> {
        let job = self.pop_best(q)?;
        let flight = Arc::new(InFlightState {
            ticket: job.ticket,
            cancelled: AtomicBool::new(false),
            last_progress: AtomicU64::new(self.clock.now_ticks()),
        });
        q.inflight.insert(job.ticket.id, Arc::clone(&flight));
        Some((job, flight))
    }

    /// `true` when the request's deadline (if any) has passed.
    fn deadline_passed(&self, job: &Queued) -> bool {
        job.request.deadline.is_some_and(|deadline| self.clock.now_ticks() >= deadline)
    }

    /// The cooperative lifecycle gate, checked at every stage boundary:
    /// cancellation wins over deadline, and passing the gate records
    /// progress for the watchdog.
    fn lifecycle_check(&self, job: &Queued, flight: &InFlightState) -> Result<(), PipelineError> {
        if flight.cancelled.load(Ordering::Relaxed) {
            return Err(PipelineError::Cancelled);
        }
        let now = self.clock.now_ticks();
        if let Some(deadline) = job.request.deadline {
            if now >= deadline {
                return Err(PipelineError::DeadlineExceeded { deadline, now });
            }
        }
        flight.last_progress.store(now, Ordering::Relaxed);
        Ok(())
    }

    /// Runs (or reuses) the shared stages for one scene key. Returns the
    /// outputs plus whether this request coalesced onto another's run, or a
    /// lifecycle error if the request was cancelled / missed its deadline
    /// while waiting.
    ///
    /// Lifecycle aborts leave the cell in a consistent state: a *waiter*
    /// that gives up never touched the cell, so the builder (and every
    /// other waiter) is unaffected; a *claimant* that aborts before
    /// building rolls the cell back to Idle so a polling waiter re-claims,
    /// exactly like the panic path.
    fn acquire_stages(
        &self,
        job: &Queued,
        flight: &InFlightState,
    ) -> Result<(SharedOutputs, bool), PipelineError> {
        let cell = {
            let mut stages = self.stages.lock().expect("stage map poisoned");
            Arc::clone(
                stages.entry(job.ticket.scene_key).or_insert_with(|| Arc::new(StageCell::new())),
            )
        };
        loop {
            self.lifecycle_check(job, flight)?;
            {
                let mut state = cell.state.lock().expect("stage cell poisoned");
                match &*state {
                    StageState::Ready(outputs) => return Ok((SharedOutputs::clone(outputs), true)),
                    StageState::Idle => {
                        *state = StageState::Building;
                        break;
                    }
                    StageState::Building => {}
                }
            }
            // Someone else is building: contribute to their pool batches
            // instead of sleeping (WorkerPool::wait_until), then re-check.
            // The builder never waits on this request in return, so the
            // wait hierarchy (stage cell → store entries → pool batches) is
            // acyclic and cannot deadlock. Cancellation and deadlines are
            // part of the predicate so an abandoned waiter leaves promptly
            // — without touching the cell.
            WorkerPool::shared().wait_until(|| {
                flight.cancelled.load(Ordering::Relaxed)
                    || self.deadline_passed(job)
                    || !matches!(
                        *cell.state.lock().expect("stage cell poisoned"),
                        StageState::Building
                    )
            });
        }

        // This request claimed the build. Re-check the lifecycle gate first:
        // aborting here must roll the cell back so a coalesced waiter
        // re-claims instead of waiting forever on a build nobody is running.
        if let Err(error) = self.lifecycle_check(job, flight) {
            *cell.state.lock().expect("stage cell poisoned") = StageState::Idle;
            return Err(error);
        }
        // A panic likewise rolls the cell back to Idle so a waiter
        // re-claims.
        let built = catch_unwind(AssertUnwindSafe(|| {
            self.pipeline.shared_stages(
                &job.request.scene,
                &job.request.dataset,
                &self.cache,
                &self.ground_truth,
            )
        }));
        match built {
            Ok((segmentation, profiles, shared)) => {
                let outputs = SharedOutputs { segmentation, profiles, shared };
                *cell.state.lock().expect("stage cell poisoned") =
                    StageState::Ready(Box::new(outputs.clone()));
                Ok((outputs, false))
            }
            Err(payload) => {
                // The lock is released before unwinding, so it is not poisoned.
                *cell.state.lock().expect("stage cell poisoned") = StageState::Idle;
                resume_unwind(payload);
            }
        }
    }

    /// Processes one claimed request end to end, observing the cooperative
    /// lifecycle gates at stage boundaries.
    fn process(
        &self,
        job: &Queued,
        flight: &InFlightState,
    ) -> Result<CompletedDeploy, PipelineError> {
        self.lifecycle_check(job, flight)?;
        let (outputs, coalesced) = self.acquire_stages(job, flight)?;
        self.lifecycle_check(job, flight)?;
        let budget_mb = self
            .pipeline
            .resolve_budget_mb(job.request.budget_override_mb, &job.request.device)
            .expect("budget validated at admission");
        let deployment = self.pipeline.deploy_budget(
            &job.request.scene,
            &job.request.device,
            budget_mb,
            &outputs.segmentation,
            &outputs.profiles,
            &self.cache,
            outputs.shared,
        );
        let deployment_fingerprint = nerflex_bake::disk::deployment_fingerprint(&deployment.assets);
        Ok(CompletedDeploy { deployment, coalesced, deployment_fingerprint })
    }

    /// Processes one claimed request and settles its ticket: the one path
    /// for inline consumers and executors alike. A classified panic settles
    /// as a failed outcome; any other payload is stashed in `panics` for the
    /// next consumer call to re-raise. If the watchdog has already taken the
    /// ticket out of `inflight` (and settled it as `Stalled`), the late
    /// result is dropped, so no ticket settles twice.
    fn run_claimed(&self, (job, flight): (Queued, Arc<InFlightState>)) {
        let result = catch_unwind(AssertUnwindSafe(|| self.process(&job, &flight)))
            .or_else(|payload| classify_panic(payload).map(Err));
        let mut q = self.queue.lock().expect("service queue poisoned");
        if q.inflight.remove(&job.ticket.id).is_none() {
            q.abandoned -= 1;
        } else {
            match result {
                Ok(result) => q.settle(DeployOutcome { ticket: job.ticket, result }),
                Err(payload) => self.panics.lock().expect("panic list poisoned").push(payload),
            }
        }
        drop(q);
        self.done.notify_all();
    }

    /// Watchdog sweep (no-op unless [`ServiceOptions::with_watchdog_ticks`]
    /// is set): any in-flight request whose `last_progress` is at least the
    /// configured number of ticks stale is given up on — taken out of
    /// `inflight` and settled as a [`PipelineError::Stalled`] outcome, so the
    /// consumer is never hung on a stalled executor. The stalled thread
    /// itself is left alone; if it ever finishes, `run_claimed` drops its
    /// result.
    fn watchdog_scan(&self) {
        let Some(limit) = self.watchdog_ticks else { return };
        let now = self.clock.now_ticks();
        let mut q = self.queue.lock().expect("service queue poisoned");
        let mut stalled = Vec::new();
        q.inflight.retain(|_, flight| {
            let idle_ticks = now.saturating_sub(flight.last_progress.load(Ordering::Relaxed));
            if idle_ticks < limit {
                return true;
            }
            stalled.push(DeployOutcome {
                ticket: flight.ticket,
                result: Err(PipelineError::Stalled { idle_ticks }),
            });
            false
        });
        if stalled.is_empty() {
            return;
        }
        q.abandoned += stalled.len();
        for outcome in stalled {
            q.settle(outcome);
        }
        drop(q);
        self.done.notify_all();
    }

    /// Executor thread body: claim → run, until shutdown.
    fn executor_loop(&self) {
        loop {
            let claimed = {
                let mut q = self.queue.lock().expect("service queue poisoned");
                loop {
                    if q.shutdown {
                        return;
                    }
                    if let Some(claimed) = self.claim(&mut q) {
                        break claimed;
                    }
                    q = self.work.wait(q).expect("service queue poisoned");
                }
            };
            self.run_claimed(claimed);
        }
    }
}

// ---------------------------------------------------------------------------
// Content fingerprinting
// ---------------------------------------------------------------------------

/// Content fingerprint of one (scene, dataset) pair — the coalescing key.
///
/// Covers everything the shared stages read: every placed object (the same
/// `model_fingerprint` the bake store keys on, plus instance id and
/// placement bits) and every dataset view (pose, pixel bits, instance
/// masks). Two requests with equal keys therefore produce bit-identical
/// shared-stage outputs, which is what makes coalescing sound. Options
/// (profiler, space, selector) are fixed per service and need not be keyed.
pub fn scene_content_key(scene: &Scene, dataset: &Dataset) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(scene.len() as u64);
    for object in scene.objects() {
        h.write_u64(model_fingerprint(&object.model));
        h.write_u64(object.id as u64);
        h.write_f32(object.translation.x);
        h.write_f32(object.translation.y);
        h.write_f32(object.translation.z);
        h.write_f32(object.scale);
        h.write_f32(object.rotation_y);
    }
    h.write_u64(dataset.width as u64);
    h.write_u64(dataset.height as u64);
    for views in [&dataset.train, &dataset.test] {
        h.write_u64(views.len() as u64);
        for view in views {
            for v in [view.pose.eye, view.pose.target, view.pose.up] {
                h.write_f32(v.x);
                h.write_f32(v.y);
                h.write_f32(v.z);
            }
            h.write_f32(view.pose.fov_y);
            for pixel in view.image.pixels() {
                h.write_f32(pixel.r);
                h.write_f32(pixel.g);
                h.write_f32(pixel.b);
            }
            for instance in &view.instances {
                h.write_u64(instance.map_or(0, |id| id as u64 + 1));
            }
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// DeployService
// ---------------------------------------------------------------------------

/// A long-running deployment service over one [`NerflexPipeline`]: admit
/// requests with [`DeployService::submit`], consume results with
/// [`DeployService::next_outcome`] / [`DeployService::drain`]. See the
/// module docs for the coalescing, ordering and determinism contract.
///
/// ```
/// use nerflex_core::pipeline::PipelineOptions;
/// use nerflex_core::service::{DeployRequest, DeployService, ServiceOptions};
/// use nerflex_device::DeviceSpec;
/// use nerflex_scene::object::CanonicalObject;
/// use nerflex_scene::{dataset::Dataset, scene::Scene};
/// use std::sync::Arc;
///
/// let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
/// let scene = Arc::new(Scene::with_objects(&[CanonicalObject::Hotdog], 7));
/// let dataset = Arc::new(Dataset::generate(&scene, 2, 1, 32, 32));
/// for device in [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()] {
///     service
///         .submit(DeployRequest::new(Arc::clone(&scene), Arc::clone(&dataset), device))
///         .expect("valid request");
/// }
/// let outcomes = service.drain();
/// assert_eq!(outcomes.len(), 2);
/// // Both requests shared one segmentation + profiling run.
/// assert_eq!(service.stats().shared_stage_runs, 1);
/// assert_eq!(service.stats().coalesced, 1);
/// ```
pub struct DeployService {
    shared: Arc<ServiceShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    executors: usize,
}

impl std::fmt::Debug for DeployService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployService")
            .field("executors", &self.executors)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DeployService {
    /// Starts a service: opens the stores and spawns the executor threads
    /// (`options.executors`; 0 = inline).
    pub fn new(options: ServiceOptions) -> Self {
        let pipeline = NerflexPipeline::new(options.pipeline);
        let cache = pipeline.open_cache();
        let ground_truth = pipeline.open_ground_truth_cache();
        let shared = Arc::new(ServiceShared {
            pipeline,
            cache,
            ground_truth,
            queue: Mutex::new(QueueState {
                queued: Vec::new(),
                completed: VecDeque::new(),
                inflight: HashMap::new(),
                abandoned: 0,
                counts: ServiceStats::default(),
                draining: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            stages: Mutex::new(HashMap::new()),
            panics: Mutex::new(Vec::new()),
            clock: options.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
            queue_limit: options.queue_limit,
            watchdog_ticks: options.watchdog_ticks,
        });
        let handles = (0..options.executors)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.executor_loop())
            })
            .collect();
        Self { shared, handles: Mutex::new(handles), executors: options.executors }
    }

    /// Admits one request, returning its ticket. Validation happens here —
    /// a bad request is rejected as a value and the service keeps running.
    ///
    /// A request whose [`DeployRequest::with_deadline`] has already passed
    /// is admitted but settles immediately as a
    /// [`PipelineError::DeadlineExceeded`] outcome: its ticket still gets
    /// exactly one outcome, it just never runs.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyScene`] / [`PipelineError::EmptyDataset`] for
    /// empty inputs, [`PipelineError::InvalidBudget`] for a budget override
    /// that is not positive and finite, [`PipelineError::Draining`] after
    /// [`DeployService::drain`] or [`DeployService::shutdown`] closed
    /// admission, and [`PipelineError::Overloaded`] when the queue is at its
    /// [`ServiceOptions::with_queue_limit`] and the incoming request itself
    /// is the lowest-priority-newest (no ticket is issued — the request was
    /// never admitted).
    pub fn submit(&self, request: DeployRequest) -> Result<DeployTicket, PipelineError> {
        let scene_key = NerflexPipeline::validate_inputs(&request.scene, &request.dataset)
            .and_then(|()| {
                self.shared.pipeline.resolve_budget_mb(request.budget_override_mb, &request.device)
            })
            .map(|_| scene_content_key(&request.scene, &request.dataset));
        let mut q = self.shared.queue.lock().expect("service queue poisoned");
        let scene_key = match scene_key {
            Ok(scene_key) if !q.draining => scene_key,
            rejected => {
                q.counts.rejected += 1;
                return Err(rejected.err().unwrap_or(PipelineError::Draining));
            }
        };
        // Reject-on-admission for an already-expired deadline: settle the
        // ticket right away instead of queueing doomed work. An expired
        // request never occupies a queue slot, so this precedes the
        // bounded-admission check.
        let now = self.shared.clock.now_ticks();
        if let Some(deadline) = request.deadline.filter(|&deadline| now >= deadline) {
            let ticket = q.admit(scene_key);
            q.settle(DeployOutcome {
                ticket,
                result: Err(PipelineError::DeadlineExceeded { deadline, now }),
            });
            drop(q);
            self.shared.done.notify_all();
            return Ok(ticket);
        }
        // Bounded admission: at the limit, shed the lowest-priority request
        // — newest first among equals. The incoming request (newest of all)
        // loses that comparison unless it outranks a queued victim; with a
        // zero-length limit and an empty queue it is the only candidate.
        if let Some(limit) = self.shared.queue_limit {
            if q.queued.len() >= limit {
                let shed = PipelineError::Overloaded { queue_depth: q.queued.len() };
                let victim = q
                    .queued
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, job)| (job.request.priority, std::cmp::Reverse(job.ticket.id)))
                    .filter(|(_, job)| request.priority > job.request.priority)
                    .map(|(idx, _)| idx);
                let Some(idx) = victim else {
                    q.counts.count(&Err(shed.clone()));
                    return Err(shed);
                };
                let victim = q.queued.remove(idx);
                q.settle(DeployOutcome { ticket: victim.ticket, result: Err(shed) });
            }
        }
        let ticket = q.admit(scene_key);
        q.queued.push(Queued { ticket, request });
        drop(q);
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        Ok(ticket)
    }

    /// Cancels one admitted request. Returns `true` when the cancellation
    /// took hold:
    ///
    /// * **Queued** — removed outright; its ticket settles immediately as a
    ///   [`PipelineError::Cancelled`] outcome.
    /// * **In flight** — the cooperative cancel flag is set and observed at
    ///   the next pipeline stage boundary, where the request aborts as a
    ///   `Cancelled` outcome. If it was already past its last gate it may
    ///   still complete — cancellation never corrupts a result, and either
    ///   way the ticket settles exactly once.
    ///
    /// Returns `false` when the ticket is unknown or already settled
    /// (completed, failed, shed, stalled, or consumed). Cancelling never
    /// disturbs *other* requests: a cancelled waiter leaves a coalesced
    /// shared-stage build untouched for its survivors.
    pub fn cancel(&self, ticket: DeployTicket) -> bool {
        let mut q = self.shared.queue.lock().expect("service queue poisoned");
        if let Some(idx) = q.queued.iter().position(|job| job.ticket.id == ticket.id) {
            let job = q.queued.remove(idx);
            q.settle(DeployOutcome { ticket: job.ticket, result: Err(PipelineError::Cancelled) });
            drop(q);
            self.shared.done.notify_all();
            return true;
        }
        if let Some(flight) = q.inflight.get(&ticket.id) {
            flight.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Returns the next completed outcome, blocking while work is queued or
    /// in flight; `None` once the service is idle (nothing queued, nothing
    /// in flight, nothing completed). In inline mode the calling thread
    /// processes requests itself; with executors it only waits (and, when
    /// [`ServiceOptions::with_watchdog_ticks`] is set, runs the stall
    /// watchdog while waiting).
    ///
    /// Outcomes stream out in completion order, which scheduling determines
    /// — the outcome *contents* for a given ticket never depend on it.
    pub fn next_outcome(&self) -> Option<DeployOutcome> {
        loop {
            if let Some(payload) = self.shared.panics.lock().expect("panic list poisoned").pop() {
                resume_unwind(payload);
            }
            self.shared.watchdog_scan();
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            if let Some(outcome) = q.completed.pop_front() {
                return Some(outcome);
            }
            if self.executors == 0 {
                if let Some(claimed) = self.shared.claim(&mut q) {
                    drop(q);
                    self.shared.run_claimed(claimed);
                    continue;
                }
            }
            if q.queued.is_empty() && q.inflight.is_empty() {
                return None;
            }
            // Work is in flight on another thread: wait for it to land.
            // With the watchdog enabled the wait is bounded so stalls are
            // detected even though a stalled executor never signals.
            if self.shared.watchdog_ticks.is_some() {
                drop(q);
                let _progressed = WorkerPool::shared().wait_until_for(
                    || {
                        let q = self.shared.queue.lock().expect("service queue poisoned");
                        !q.completed.is_empty() || (q.queued.is_empty() && q.inflight.is_empty())
                    },
                    Duration::from_millis(5),
                );
            } else {
                let _unused = self.shared.done.wait(q).expect("service queue poisoned");
            }
        }
    }

    /// Gracefully drains the service: closes admission (subsequent submits
    /// fail with [`PipelineError::Draining`]), finishes every admitted
    /// ticket, then shuts down: joins the executors and flushes the
    /// persistent stores.
    ///
    /// Returns every remaining outcome. Completion order is
    /// scheduling-dependent; sort by [`DeployTicket::id`] for admission
    /// order.
    pub fn drain(&self) -> Vec<DeployOutcome> {
        self.shared.queue.lock().expect("service queue poisoned").draining = true;
        let outcomes = std::iter::from_fn(|| self.next_outcome()).collect();
        self.shutdown();
        outcomes
    }

    /// Current service counters. The admission and outcome counters and
    /// the live queue and flight sizes are read in one lock hold, so the
    /// snapshot balances (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        let stats = {
            let q = self.shared.queue.lock().expect("service queue poisoned");
            ServiceStats { in_flight: q.inflight.len(), queue_depth: q.queued.len(), ..q.counts }
        };
        // Every shared-stage run leaves its cell `Ready` for good, and a
        // rolled-back one leaves it `Idle`, so the ready cells count the runs.
        let shared_stage_runs = {
            let stages = self.shared.stages.lock().expect("stage map poisoned");
            stages.values().filter(|cell| cell.is_ready()).count()
        };
        ServiceStats {
            shared_stage_runs,
            bake_coalesced: self.shared.cache.stats().coalesced,
            ground_truth_coalesced: self.shared.ground_truth.stats().coalesced,
            ..stats
        }
    }

    /// Counters of the service-owned bake cache (misses = bakes actually
    /// paid for across the service's whole lifetime).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Counters of the service-owned ground-truth cache.
    pub fn ground_truth_stats(&self) -> StoreStats {
        self.shared.ground_truth.stats()
    }

    /// The engine options the service runs with.
    pub fn pipeline_options(&self) -> &PipelineOptions {
        self.shared.pipeline.options()
    }

    /// Stops the service: closes admission, sheds any still-queued request
    /// as a counted [`PipelineError::Overloaded`] outcome (consumable via
    /// [`DeployService::next_outcome`] afterwards — no ticket is silently
    /// dropped), stops the executors, and flushes the persistent stores.
    /// Called automatically on drop; idempotent.
    pub fn shutdown(&self) {
        let abandoned = {
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            let queue_depth = q.queued.len();
            for job in std::mem::take(&mut q.queued) {
                q.settle(DeployOutcome {
                    ticket: job.ticket,
                    result: Err(PipelineError::Overloaded { queue_depth }),
                });
            }
            q.draining = true;
            q.shutdown = true;
            q.abandoned > 0
        };
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        if abandoned {
            // A watchdog-tripped executor may be stalled forever: joining it
            // would hang shutdown. Its ticket was already settled; the
            // thread is abandoned to process exit.
            self.handles.lock().expect("service handles poisoned").clear();
        } else {
            for handle in self.handles.lock().expect("service handles poisoned").drain(..) {
                let _ = handle.join();
            }
        }
        // flush_report attempts every dirty entry: one unwritable entry
        // cannot block its siblings from persisting.
        for (entry, err) in &self.shared.cache.flush_report().failures {
            eprintln!(
                "nerflex service: bake-store flush of {entry:?} failed ({err}); next start is \
                 colder"
            );
        }
        for (entry, err) in &self.shared.ground_truth.flush_report().failures {
            eprintln!(
                "nerflex service: ground-truth flush of {entry:?} failed ({err}); next start \
                 re-renders"
            );
        }
    }
}

impl Drop for DeployService {
    /// Dropping the service runs [`DeployService::shutdown`]: still-queued
    /// requests shed as counted [`PipelineError::Overloaded`] outcomes
    /// (visible in [`ServiceStats::shed`]) rather than vanishing, in-flight
    /// work finishes, and the stores flush.
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nerflex_scene::object::CanonicalObject;

    fn scene_and_dataset(objects: &[CanonicalObject], seed: u64) -> (Scene, Dataset) {
        let scene = Scene::with_objects(objects, seed);
        let dataset = Dataset::generate(&scene, 2, 1, 32, 32);
        (scene, dataset)
    }

    #[test]
    fn scene_content_key_is_content_based() {
        let (scene_a, dataset_a) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        // An independently constructed clone of the same content keys equal.
        let (scene_b, dataset_b) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        assert_eq!(
            scene_content_key(&scene_a, &dataset_a),
            scene_content_key(&scene_b, &dataset_b),
            "equal content must coalesce regardless of allocation identity"
        );
        // A different seed perturbs placements and pixels: different key.
        let (scene_c, dataset_c) = scene_and_dataset(&[CanonicalObject::Hotdog], 8);
        assert_ne!(
            scene_content_key(&scene_a, &dataset_a),
            scene_content_key(&scene_c, &dataset_c)
        );
        // Same scene, different dataset: different key (segmentation and
        // profiling both read the views).
        let dataset_d = Dataset::generate(&scene_a, 3, 1, 32, 32);
        assert_ne!(
            scene_content_key(&scene_a, &dataset_a),
            scene_content_key(&scene_a, &dataset_d)
        );
    }

    #[test]
    fn idle_service_drains_empty_and_reports_zero_stats() {
        let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
        assert!(service.next_outcome().is_none());
        assert!(service.drain().is_empty());
        let stats = service.stats();
        assert_eq!(stats, ServiceStats::default());
        assert!(stats.to_string().contains("0 admitted"));
        service.shutdown();
        service.shutdown(); // idempotent
    }

    #[test]
    fn expired_deadline_settles_at_admission_without_running() {
        let (scene, dataset) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        let clock = Arc::new(crate::clock::TestClock::at(100));
        let service =
            DeployService::new(ServiceOptions::inline(PipelineOptions::quick()).with_clock(clock));
        let ticket = service
            .submit(DeployRequest::new(scene, dataset, DeviceSpec::pixel_4()).with_deadline(50))
            .expect("expired deadline still admits (and settles) the ticket");
        let outcome = service.next_outcome().expect("exactly one outcome for the ticket");
        assert_eq!(outcome.ticket, ticket);
        assert!(
            matches!(
                outcome.error(),
                Some(PipelineError::DeadlineExceeded { deadline: 50, now: 100 })
            ),
            "got {:?}",
            outcome.result
        );
        assert!(service.next_outcome().is_none(), "the ticket settles exactly once");
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.shared_stage_runs, 0, "the request never ran");
    }

    #[test]
    fn cancelling_a_queued_request_settles_it_without_running() {
        let (scene, dataset) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
        let ticket = service
            .submit(DeployRequest::new(scene, dataset, DeviceSpec::pixel_4()))
            .expect("valid request");
        assert!(service.cancel(ticket), "queued request cancels");
        assert!(!service.cancel(ticket), "a settled ticket cannot cancel twice");
        let outcome = service.next_outcome().expect("exactly one outcome for the ticket");
        assert_eq!(outcome.ticket, ticket);
        assert!(matches!(outcome.error(), Some(PipelineError::Cancelled)));
        assert!(service.next_outcome().is_none());
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.shared_stage_runs, 0, "the request never ran");
    }

    #[test]
    fn queue_limit_sheds_lowest_priority_newest_first() {
        let (scene, dataset) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        let (scene, dataset) = (Arc::new(scene), Arc::new(dataset));
        let service = DeployService::new(
            ServiceOptions::inline(PipelineOptions::quick()).with_queue_limit(2),
        );
        let request = |priority: i32| {
            DeployRequest::new(Arc::clone(&scene), Arc::clone(&dataset), DeviceSpec::pixel_4())
                .with_priority(priority)
        };
        let low_old = service.submit(request(0)).expect("fits");
        let _high = service.submit(request(5)).expect("fits");
        // Queue full. An incoming priority-0 request is the lowest-priority-
        // newest candidate: it is shed without a ticket.
        match service.submit(request(0)) {
            Err(PipelineError::Overloaded { queue_depth: 2 }) => {}
            other => panic!("incoming low-priority request must shed, got {other:?}"),
        }
        // An incoming higher-priority request evicts the queued priority-0
        // victim instead, which settles as an Overloaded outcome.
        let winner = service.submit(request(3)).expect("outranks the queued victim");
        let outcome = service.next_outcome().expect("the victim's outcome is queued");
        assert_eq!(outcome.ticket, low_old);
        assert!(matches!(outcome.error(), Some(PipelineError::Overloaded { queue_depth: 2 })));
        assert_eq!(service.stats().shed, 2);
        // The survivors still complete, bit-for-bit.
        let remaining = service.drain();
        assert_eq!(remaining.len(), 2);
        assert!(remaining.iter().all(DeployOutcome::is_success));
        assert!(remaining.iter().any(|o| o.ticket == winner));
        assert_eq!(service.stats().completed, 2);
    }

    #[test]
    fn submit_after_drain_is_rejected_as_draining() {
        let (scene, dataset) = scene_and_dataset(&[CanonicalObject::Hotdog], 7);
        let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
        assert!(service.drain().is_empty());
        match service.submit(DeployRequest::new(scene, dataset, DeviceSpec::pixel_4())) {
            Err(PipelineError::Draining) => {}
            other => panic!("admission must be closed after drain, got {other:?}"),
        }
        assert_eq!(service.stats().rejected, 1);
    }

    #[test]
    fn executor_service_completes_requests_without_consumer_side_processing() {
        let (scene, dataset) = scene_and_dataset(&[CanonicalObject::Chair], 3);
        let service =
            DeployService::new(ServiceOptions::inline(PipelineOptions::quick()).with_executors(2));
        let scene = Arc::new(scene);
        let dataset = Arc::new(dataset);
        for device in [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()] {
            service
                .submit(DeployRequest::new(Arc::clone(&scene), Arc::clone(&dataset), device))
                .expect("valid request");
        }
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(service.stats().shared_stage_runs, 1, "same scene coalesces");
        let ids: Vec<u64> = {
            let mut ids: Vec<u64> = outcomes.iter().map(|o| o.ticket.id()).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids, vec![0, 1], "tickets are issued in admission order");
    }
}
