//! Acceptance tests for the fleet deployment service: a duplicate-heavy
//! burst must coalesce to exactly one shared-stage run per distinct scene,
//! bake nothing twice, and produce deployments byte-identical to the
//! blocking `try_deploy_fleet` path — across admission orders, executor
//! counts and worker counts.

use nerflex::bake::disk::deployment_fingerprint;
use nerflex::core::clock::{Clock, TestClock};
use nerflex::core::fault::{StageFaultMode, StageFaultPlan, StageOp};
use nerflex::core::pipeline::{NerflexPipeline, PipelineError, PipelineOptions};
use nerflex::core::service::{
    DeployOutcome, DeployRequest, DeployService, DeployTicket, ServiceOptions, ServiceStats,
};
use nerflex::device::DeviceSpec;
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

fn two_scenes() -> [(Arc<Scene>, Arc<Dataset>); 2] {
    let a = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21);
    let dataset_a = Dataset::generate(&a, 2, 1, 32, 32);
    let b = Scene::with_objects(&[CanonicalObject::Lego], 4);
    let dataset_b = Dataset::generate(&b, 2, 1, 32, 32);
    [(Arc::new(a), Arc::new(dataset_a)), (Arc::new(b), Arc::new(dataset_b))]
}

/// The duplicate-heavy burst: 8 requests over 2 distinct scenes × 2 devices
/// (each (scene, device) pair twice). `scene_idx` per request, in admission
/// order.
const BURST: [usize; 8] = [0, 0, 1, 1, 0, 0, 1, 1];

fn burst_devices() -> [DeviceSpec; 8] {
    let iphone = DeviceSpec::iphone_13;
    let pixel = DeviceSpec::pixel_4;
    [iphone(), pixel(), iphone(), pixel(), iphone(), pixel(), iphone(), pixel()]
}

/// Runs the burst through a service and returns, per request slot,
/// `((scene_idx, device name), fingerprint)` plus the bake-miss total.
fn run_burst(
    executors: usize,
    workers: usize,
    reverse_admission: bool,
) -> (BTreeMap<(usize, String), u64>, u64, usize) {
    let scenes = two_scenes();
    let devices = burst_devices();
    let service = DeployService::new(
        ServiceOptions::inline(PipelineOptions::quick().with_worker_threads(workers))
            .with_executors(executors),
    );
    let mut slots: Vec<usize> = (0..BURST.len()).collect();
    if reverse_admission {
        slots.reverse();
    }
    let mut ticket_to_slot = BTreeMap::new();
    for slot in slots {
        let (scene, dataset) = &scenes[BURST[slot]];
        let ticket = service
            .submit(DeployRequest::new(
                Arc::clone(scene),
                Arc::clone(dataset),
                devices[slot].clone(),
            ))
            .expect("valid request");
        ticket_to_slot.insert(ticket.id(), slot);
    }
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), BURST.len(), "every admitted request completes");

    let stats = service.stats();
    assert_eq!(stats.admitted, BURST.len() as u64);
    assert_eq!(stats.completed, BURST.len() as u64);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    // Exactly one shared-stage (segmentation + profiling) run per distinct
    // scene, no matter how the burst was ordered or scheduled.
    assert_eq!(stats.shared_stage_runs, 2, "one shared-stage run per distinct scene: {stats}");
    // Everyone else coalesced: requests − distinct_work, and never less.
    let distinct_work = 2u64;
    assert!(
        stats.coalesced >= BURST.len() as u64 - distinct_work,
        "coalesced must cover the duplicates: {stats}"
    );
    assert_eq!(stats.coalesced + stats.shared_stage_runs as u64, BURST.len() as u64);

    let mut fingerprints = BTreeMap::new();
    for outcome in &outcomes {
        let slot = ticket_to_slot[&outcome.ticket.id()];
        let done = outcome.success().expect("no faults injected: every request succeeds");
        assert_eq!(
            deployment_fingerprint(&done.deployment.assets),
            done.deployment_fingerprint,
            "outcome fingerprint must be the canonical asset fingerprint"
        );
        let key = (BURST[slot], done.deployment.device.name.clone());
        // Duplicate (scene, device) requests must agree with each other.
        if let Some(&prior) = fingerprints.get(&key) {
            assert_eq!(
                prior, done.deployment_fingerprint,
                "duplicate requests must produce identical deployments: {key:?}"
            );
        }
        fingerprints.insert(key, done.deployment_fingerprint);
    }
    (fingerprints, stats.coalesced, service.cache_stats().misses)
}

#[test]
fn duplicate_heavy_burst_coalesces_and_matches_the_blocking_path() {
    // Reference: the blocking fleet path, one fleet per distinct scene.
    let scenes = two_scenes();
    let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let pipeline = NerflexPipeline::new(PipelineOptions::quick());
    let mut reference = BTreeMap::new();
    let mut reference_bakes = 0;
    for (scene_idx, (scene, dataset)) in scenes.iter().enumerate() {
        let fleet = pipeline.try_deploy_fleet(scene, dataset, &devices).expect("fleet deploy");
        reference_bakes += fleet.cache.misses;
        for deployment in &fleet.deployments {
            reference.insert(
                (scene_idx, deployment.device.name.clone()),
                deployment_fingerprint(&deployment.assets),
            );
        }
    }

    // The burst must reproduce the reference byte-for-byte across both
    // worker-count settings, both executor modes and both admission orders
    // (each axis covered at both values across the four runs).
    for (executors, workers, reverse) in [(0, 1, false), (0, 4, true), (3, 1, true), (3, 4, false)]
    {
        {
            let (fingerprints, coalesced, bake_misses) = run_burst(executors, workers, reverse);
            assert_eq!(
                fingerprints, reference,
                "service output must be byte-identical to the blocking path \
                 (executors={executors}, workers={workers}, reverse={reverse})"
            );
            assert!(coalesced >= 6);
            // Zero duplicate bakes: the burst pays exactly the bakes the
            // sequential reference pays, despite 4× the requests and
            // concurrent executors.
            assert_eq!(
                bake_misses, reference_bakes,
                "duplicate requests must not re-bake \
                 (executors={executors}, workers={workers}, reverse={reverse})"
            );
        }
    }
}

#[test]
fn priority_and_warm_scenes_order_the_queue() {
    let scenes = two_scenes();
    let device = DeviceSpec::pixel_4();
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));

    // Higher priority pops first regardless of admission order.
    let low = service
        .submit(
            DeployRequest::new(Arc::clone(&scenes[0].0), Arc::clone(&scenes[0].1), device.clone())
                .with_priority(-1),
        )
        .expect("valid");
    let high = service
        .submit(
            DeployRequest::new(Arc::clone(&scenes[1].0), Arc::clone(&scenes[1].1), device.clone())
                .with_priority(5),
        )
        .expect("valid");
    let first = service.next_outcome().expect("outcome");
    assert_eq!(first.ticket, high, "higher priority must complete first");
    let second = service.next_outcome().expect("outcome");
    assert_eq!(second.ticket, low);

    // Warm-cache-first: on a fresh service, warm scene 1 only, then queue a
    // cold request *before* a warm one at equal priority — the warm-scene
    // request still pops first.
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
    service
        .submit(DeployRequest::new(
            Arc::clone(&scenes[1].0),
            Arc::clone(&scenes[1].1),
            device.clone(),
        ))
        .expect("valid");
    service.next_outcome().expect("outcome");
    let cold = service
        .submit(DeployRequest::new(
            Arc::clone(&scenes[0].0),
            Arc::clone(&scenes[0].1),
            DeviceSpec::iphone_13(),
        ))
        .expect("valid");
    let warm = service
        .submit(DeployRequest::new(
            Arc::clone(&scenes[1].0),
            Arc::clone(&scenes[1].1),
            DeviceSpec::iphone_13(),
        ))
        .expect("valid");
    let third = service.next_outcome().expect("outcome");
    assert_eq!(third.ticket, warm, "warm-scene request must jump the cold one");
    assert!(third.success().expect("success").coalesced, "warm request rides the resident stages");
    let fourth = service.next_outcome().expect("outcome");
    assert_eq!(fourth.ticket, cold);
    assert!(service.next_outcome().is_none(), "service is idle");
}

#[test]
fn admission_rejects_bad_requests_without_stopping_the_service() {
    let scenes = two_scenes();
    let device = DeviceSpec::pixel_4();
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));

    let empty_scene = Arc::new(Scene::new());
    assert_eq!(
        service
            .submit(DeployRequest::new(empty_scene, Arc::clone(&scenes[0].1), device.clone()))
            .err(),
        Some(PipelineError::EmptyScene)
    );
    // NaN != NaN, so check the variant shape rather than full equality.
    let nan_err = service
        .submit(
            DeployRequest::new(Arc::clone(&scenes[0].0), Arc::clone(&scenes[0].1), device.clone())
                .with_budget_mb(f64::NAN),
        )
        .unwrap_err();
    assert!(
        matches!(nan_err, PipelineError::InvalidBudget { requested_mb } if requested_mb.is_nan())
    );
    let err = service
        .submit(
            DeployRequest::new(Arc::clone(&scenes[0].0), Arc::clone(&scenes[0].1), device.clone())
                .with_budget_mb(-10.0),
        )
        .unwrap_err();
    assert_eq!(err, PipelineError::InvalidBudget { requested_mb: -10.0 });

    let stats = service.stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.admitted, 0);

    // The service still serves good requests afterwards.
    service
        .submit(DeployRequest::new(Arc::clone(&scenes[1].0), Arc::clone(&scenes[1].1), device))
        .expect("valid request after rejections");
    let outcome = service.next_outcome().expect("outcome");
    assert!(!outcome.success().expect("success").coalesced);
    assert_eq!(service.stats().completed, 1);
    assert_eq!(service.stats().failed, 0);
}

/// Satellite: cancelling a request whose shared stages are claimed by (or
/// shared with) another live request must never disturb the survivor. The
/// build is slowed with an injected stage delay so the cancellation lands
/// while both requests are in flight on the same scene; whichever of the
/// two holds the stage cell at that instant, the survivor completes
/// bit-for-bit and exactly one shared-stage run is paid.
#[test]
fn cancelling_a_coalesced_request_leaves_the_survivor_intact() {
    let scenes = two_scenes();
    let reference = {
        let pipeline = NerflexPipeline::new(PipelineOptions::quick());
        let fleet = pipeline
            .try_deploy_fleet(&scenes[0].0, &scenes[0].1, &[DeviceSpec::iphone_13()])
            .expect("fleet deploy");
        deployment_fingerprint(&fleet.deployments[0].assets)
    };
    // Each of the (at most two) segmentation entries sleeps 300 ms, holding
    // the requests in flight long enough for the cancel to land mid-build.
    let plan = StageFaultPlan::none()
        .fail_nth(StageOp::Segmentation, 0, StageFaultMode::Delay(Duration::from_millis(300)))
        .fail_nth(StageOp::Segmentation, 1, StageFaultMode::Delay(Duration::from_millis(300)));
    let service = DeployService::new(
        ServiceOptions::inline(PipelineOptions::quick().with_stage_faults(plan)).with_executors(2),
    );
    let request = |device: DeviceSpec| {
        DeployRequest::new(Arc::clone(&scenes[0].0), Arc::clone(&scenes[0].1), device)
    };
    let survivor = service.submit(request(DeviceSpec::iphone_13())).expect("valid");
    let victim = service.submit(request(DeviceSpec::pixel_4())).expect("valid");
    // Wait until both executors picked their requests up, then cancel one.
    // The 300 ms injected delays hold the build open far longer than the
    // executors need to claim; the deadline only guards a broken service.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.stats().in_flight < 2 {
        assert!(std::time::Instant::now() < deadline, "executors never claimed the burst");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.cancel(victim), "an in-flight request accepts the cancel flag");
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 2, "both tickets settle exactly once");
    let of = |ticket| outcomes.iter().find(|o| o.ticket == ticket).expect("outcome");
    assert!(
        matches!(of(victim).error(), Some(PipelineError::Cancelled)),
        "the cancelled request settles as Cancelled: {:?}",
        of(victim).result
    );
    let done = of(survivor).success().expect("the survivor must complete untouched");
    assert_eq!(
        done.deployment_fingerprint, reference,
        "the survivor's deployment is byte-identical to the blocking path"
    );
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.shared_stage_runs, 1,
        "the cancellation must not roll back or duplicate the survivor's stage cell: {stats}"
    );
}

/// Satellite: dropping (or shutting down) a service with work still queued
/// sheds that work as counted, consumable outcomes — tickets never vanish.
#[test]
fn shutdown_sheds_queued_work_as_counted_outcomes() {
    let scenes = two_scenes();
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
    let tickets: Vec<_> = (0..2)
        .map(|idx| {
            service
                .submit(DeployRequest::new(
                    Arc::clone(&scenes[idx].0),
                    Arc::clone(&scenes[idx].1),
                    DeviceSpec::pixel_4(),
                ))
                .expect("valid")
        })
        .collect();
    service.shutdown();
    let stats = service.stats();
    assert_eq!(stats.shed, 2, "queued work sheds on shutdown: {stats}");
    assert_eq!(stats.completed, 0);
    for expected in &tickets {
        let outcome = service.next_outcome().expect("shed outcomes remain consumable");
        assert_eq!(outcome.ticket, *expected);
        assert!(
            matches!(outcome.error(), Some(PipelineError::Overloaded { queue_depth: 2 })),
            "shed work settles as Overloaded: {:?}",
            outcome.result
        );
    }
    assert!(service.next_outcome().is_none());
    assert!(
        matches!(
            service.submit(DeployRequest::new(
                Arc::clone(&scenes[0].0),
                Arc::clone(&scenes[0].1),
                DeviceSpec::pixel_4(),
            )),
            Err(PipelineError::Draining)
        ),
        "admission stays closed after shutdown"
    );
}

#[test]
fn per_request_budgets_flow_through_the_service() {
    let scenes = two_scenes();
    let device = DeviceSpec::pixel_4();
    let service = DeployService::new(ServiceOptions::inline(PipelineOptions::quick()));
    for budget in [6.0, 200.0] {
        service
            .submit(
                DeployRequest::new(
                    Arc::clone(&scenes[0].0),
                    Arc::clone(&scenes[0].1),
                    device.clone(),
                )
                .with_budget_mb(budget),
            )
            .expect("valid");
    }
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 2);
    let by_ticket = |id: u64| {
        let outcome = outcomes.iter().find(|o| o.ticket.id() == id).unwrap();
        &outcome.success().expect("success").deployment
    };
    let tight = by_ticket(0);
    let generous = by_ticket(1);
    assert_eq!(tight.budget_mb, 6.0);
    assert_eq!(generous.budget_mb, 200.0);
    assert!(generous.selection.total_quality >= tight.selection.total_quality - 1e-9);
    // Same scene → one shared-stage run even with different budgets.
    assert_eq!(service.stats().shared_stage_runs, 1);
}

// ---------------------------------------------------------------------------
// Model test: seeded operation sequences against a reference model
// ---------------------------------------------------------------------------

/// SplitMix64, the seeded source of the operation sequences.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

const MODEL_QUEUE_LIMIT: usize = 3;
const MODEL_SCENES: usize = 3;

/// An admitted, not yet settled request as the model sees it.
struct ModelQueued {
    id: u64,
    scene: usize,
    priority: i32,
    deadline: Option<u64>,
    budget_mb: Option<f64>,
}

/// The reference model of an inline service: what is queued, which
/// outcomes have settled but not been consumed (in settle order), which
/// scenes' shared stages are resident, and the counters every operation
/// must leave [`DeployService::stats`] at. Inline mode runs a request to
/// its outcome inside one `next_outcome`, so between operations nothing is
/// in flight.
#[derive(Default)]
struct ServiceModel {
    queued: Vec<ModelQueued>,
    pending: VecDeque<(u64, PipelineError)>,
    warm: [bool; MODEL_SCENES],
    counts: ServiceStats,
    refused_sheds: u64,
    /// Every ticket issued, and how many outcomes each has produced.
    issued: Vec<DeployTicket>,
    outcomes: BTreeMap<u64, usize>,
    /// (scene, budget bits) → fingerprint of the first completion.
    fingerprints: BTreeMap<(usize, Option<u64>), u64>,
}

impl ServiceModel {
    /// Settles `id` with `error`: counted now, consumed later in order.
    fn settle(&mut self, id: u64, error: PipelineError) {
        match error {
            PipelineError::Cancelled => self.counts.cancelled += 1,
            PipelineError::DeadlineExceeded { .. } => self.counts.deadline_exceeded += 1,
            PipelineError::Overloaded { .. } => self.counts.shed += 1,
            _ => unreachable!("the model settles only lifecycle outcomes ahead of time"),
        }
        self.pending.push_back((id, error));
    }

    fn submit(&mut self, service: &DeployService, request: DeployRequest, scene: usize, now: u64) {
        let budget_mb = request.budget_override_mb();
        let priority = request.priority();
        let deadline = request.deadline();
        let result = service.submit(request);
        if let Some(requested_mb) = budget_mb.filter(|mb| !(mb.is_finite() && *mb > 0.0)) {
            assert!(
                matches!(result, Err(PipelineError::InvalidBudget { requested_mb: got })
                    if got.to_bits() == requested_mb.to_bits()),
                "{result:?}"
            );
            self.counts.rejected += 1;
            return;
        }
        let expired = deadline.filter(|&deadline| now >= deadline);
        let mut evicted = None;
        if expired.is_none() && self.queued.len() >= MODEL_QUEUE_LIMIT {
            let queue_depth = self.queued.len();
            let (idx, victim) = self
                .queued
                .iter()
                .enumerate()
                .min_by_key(|(_, job)| (job.priority, std::cmp::Reverse(job.id)))
                .expect("a full queue has a victim");
            if priority <= victim.priority {
                assert_eq!(result, Err(PipelineError::Overloaded { queue_depth }));
                self.counts.shed += 1;
                self.refused_sheds += 1;
                return;
            }
            evicted = Some((idx, queue_depth));
        }
        let ticket = result.expect("admitted");
        assert_eq!(ticket.id(), self.counts.admitted, "tickets are issued in admission order");
        self.counts.admitted += 1;
        self.issued.push(ticket);
        if let Some((idx, queue_depth)) = evicted {
            let victim = self.queued.remove(idx);
            self.settle(victim.id, PipelineError::Overloaded { queue_depth });
        }
        match expired {
            Some(deadline) => {
                self.settle(ticket.id(), PipelineError::DeadlineExceeded { deadline, now })
            }
            None => self.queued.push(ModelQueued {
                id: ticket.id(),
                scene,
                priority,
                deadline,
                budget_mb,
            }),
        }
    }

    fn cancel(&mut self, service: &DeployService, ticket: DeployTicket) {
        let queued = self.queued.iter().position(|job| job.id == ticket.id());
        assert_eq!(service.cancel(ticket), queued.is_some(), "cancel holds exactly on queued work");
        if let Some(idx) = queued {
            let job = self.queued.remove(idx);
            self.settle(job.id, PipelineError::Cancelled);
        }
    }

    /// Checks one consumed outcome against the model: settled outcomes come
    /// out first, in settle order; otherwise the best queued request ran.
    fn observe(&mut self, outcome: DeployOutcome, now: u64) {
        let id = outcome.ticket.id();
        let seen = self.outcomes.entry(id).or_insert(0);
        *seen += 1;
        assert_eq!(*seen, 1, "ticket {id} has two outcomes");
        if let Some((expected_id, expected)) = self.pending.pop_front() {
            assert_eq!(id, expected_id, "settled outcomes are consumed in settle order");
            assert_eq!(outcome.error(), Some(&expected));
            return;
        }
        let warm = self.warm;
        let idx = (0..self.queued.len())
            .max_by_key(|&idx| {
                let job = &self.queued[idx];
                (job.priority, warm[job.scene], std::cmp::Reverse(job.id))
            })
            .expect("an outcome needs queued work");
        let job = self.queued.remove(idx);
        assert_eq!(id, job.id, "priority first, then warm scenes, then admission order");
        if let Some(deadline) = job.deadline.filter(|&deadline| now >= deadline) {
            assert_eq!(outcome.error(), Some(&PipelineError::DeadlineExceeded { deadline, now }));
            self.counts.deadline_exceeded += 1;
            return;
        }
        match outcome.result {
            Ok(done) => {
                assert_eq!(
                    done.coalesced, warm[job.scene],
                    "only a warm scene's request coalesces"
                );
                self.warm[job.scene] = true;
                self.counts.completed += 1;
                self.counts.coalesced += u64::from(done.coalesced);
                let key = (job.scene, job.budget_mb.map(f64::to_bits));
                let first = *self.fingerprints.entry(key).or_insert(done.deployment_fingerprint);
                assert_eq!(done.deployment_fingerprint, first, "equal requests deploy equal bytes");
            }
            // A profiling fault rolls the stage cell back; a fault in a
            // later stage leaves the shared stages resident.
            Err(PipelineError::Stage { stage, .. }) => {
                match stage {
                    "profiling" => assert!(!warm[job.scene], "a warm scene does not profile"),
                    "selection" | "baking" => self.warm[job.scene] = true,
                    other => panic!("no {other} faults are injected"),
                }
                self.counts.failed += 1;
            }
            Err(other) => panic!("unexpected outcome for ticket {id}: {other}"),
        }
    }

    /// The invariants every operation leaves standing.
    fn check(&self, service: &DeployService) {
        let stats = service.stats();
        assert_eq!(
            stats.admitted + self.refused_sheds,
            stats.completed
                + stats.failed
                + stats.cancelled
                + stats.deadline_exceeded
                + stats.shed
                + stats.watchdog_trips
                + stats.in_flight as u64
                + stats.queue_depth as u64,
            "the counters balance: {stats}"
        );
        let expected = ServiceStats {
            queue_depth: self.queued.len(),
            shared_stage_runs: self.warm.iter().filter(|&&warm| warm).count(),
            bake_coalesced: stats.bake_coalesced,
            ground_truth_coalesced: stats.ground_truth_coalesced,
            ..self.counts
        };
        assert_eq!(stats, expected);
        for ticket in &self.issued {
            if self.queued.iter().all(|job| job.id != ticket.id()) {
                assert!(!service.cancel(*ticket), "settled ticket {} cancels", ticket.id());
            }
        }
    }
}

/// Seeded operation sequences against [`ServiceModel`], in the
/// state-machine style of QuickCheck (Claessen & Hughes, ICFP 2000): submits
/// (priority; no, expired or future deadline; valid or invalid budget),
/// cancels of any issued ticket, clock advances and single `next_outcome`
/// calls on an inline service with a queue limit and seeded stage-fault
/// noise, then a final `drain`. After every operation the counters balance
/// and match the model, no ticket has two outcomes and no settled ticket
/// cancels; after the drain every ticket has exactly one outcome.
#[test]
fn seeded_operation_sequences_settle_every_ticket_exactly_once() {
    // Three scenes and two priorities: enough equal-priority requests for
    // a cold and a warm scene meet in the queue that warm-first ordering
    // decides between them.
    let scenes: [_; MODEL_SCENES] =
        [(CanonicalObject::Hotdog, 21), (CanonicalObject::Lego, 4), (CanonicalObject::Chair, 3)]
            .map(|(object, seed)| {
                let scene = Scene::with_objects(&[object], seed);
                let dataset = Dataset::generate(&scene, 2, 1, 32, 32);
                (Arc::new(scene), Arc::new(dataset))
            });
    for seed in 0..10u64 {
        let mut rng = SplitMix64(seed);
        let clock = Arc::new(TestClock::at(100));
        let plan = StageFaultPlan::none()
            .with_seed(seed)
            .with_noise(StageOp::Profiling, 15, StageFaultMode::Fail)
            .with_noise(StageOp::Selection, 10, StageFaultMode::Fail)
            .with_noise(StageOp::Baking, 15, StageFaultMode::Fail);
        let service = DeployService::new(
            ServiceOptions::inline(PipelineOptions::quick().with_stage_faults(plan))
                .with_queue_limit(MODEL_QUEUE_LIMIT)
                .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
        );
        let mut model = ServiceModel::default();
        for _ in 0..30 {
            let now = clock.now_ticks();
            match rng.below(20) {
                0..=8 => {
                    let scene = rng.below(MODEL_SCENES as u64) as usize;
                    let mut request = DeployRequest::new(
                        Arc::clone(&scenes[scene].0),
                        Arc::clone(&scenes[scene].1),
                        DeviceSpec::pixel_4(),
                    )
                    .with_priority(rng.below(2) as i32);
                    request = match rng.below(4) {
                        0 | 1 => request,
                        2 => request.with_deadline(now - rng.below(5)),
                        _ => request.with_deadline(now + 1 + rng.below(60)),
                    };
                    request = match rng.below(6) {
                        0..=2 => request,
                        3 | 4 => request.with_budget_mb(6.0),
                        _ => request.with_budget_mb([-1.0, 0.0, f64::NAN][rng.below(3) as usize]),
                    };
                    model.submit(&service, request, scene, now);
                }
                9..=11 if !model.issued.is_empty() => {
                    let ticket = model.issued[rng.below(model.issued.len() as u64) as usize];
                    model.cancel(&service, ticket);
                }
                12..=14 => clock.advance(1 + rng.below(20)),
                _ => match service.next_outcome() {
                    Some(outcome) => model.observe(outcome, now),
                    None => assert!(model.queued.is_empty() && model.pending.is_empty()),
                },
            }
            model.check(&service);
        }
        let now = clock.now_ticks();
        for outcome in service.drain() {
            model.observe(outcome, now);
        }
        assert!(model.queued.is_empty() && model.pending.is_empty(), "seed {seed}");
        model.check(&service);
        for ticket in &model.issued {
            assert_eq!(model.outcomes.get(&ticket.id()), Some(&1), "seed {seed}: {ticket:?}");
        }
    }
}
