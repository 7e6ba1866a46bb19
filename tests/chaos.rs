//! Chaos suite for the resilience layer (ISSUE 8) and the request
//! lifecycle (ISSUE 9): seeded, fully deterministic fault injection
//! ([`FaultPlan`] / [`FaultyBackend`] at the store layer,
//! [`StageFaultPlan`] at the compute layer) driven through the store and
//! service layers, plus deadlines, cancellation, bounded admission and the
//! stall watchdog.
//!
//! The invariant every scenario pins: **faults and lifecycle decisions
//! change who pays (or whether a request completes), never what comes
//! out.** Under any fault schedule that permits completion — transient
//! remote faults (retried), a persistently dead remote (degraded to
//! local-only recomputation), a fully faulty local layer (flush failures
//! collected, requests unaffected), seeded stage faults (failed requests
//! re-claimed by their coalesced duplicates) — every request that completes
//! does so with a deployment fingerprint byte-identical to the fault-free
//! blocking `try_deploy_fleet` path, and every admitted ticket settles
//! exactly once (never a hang, never a lost ticket).

use nerflex::bake::disk::deployment_fingerprint;
use nerflex::bake::{
    BakeCache, BakeConfig, CacheStats, DirBackend, FaultMode, FaultOp, FaultPlan, FaultyBackend,
    MemBackend, RetryPolicy, StoreBackend, StoreOptions, StoreStats,
};
use nerflex::core::clock::{Clock, TestClock};
use nerflex::core::fault::{StageFaultInjector, StageFaultMode, StageFaultPlan, StageOp};
use nerflex::core::pipeline::{NerflexPipeline, PipelineError, PipelineOptions};
use nerflex::core::service::{DeployRequest, DeployService, ServiceOptions};
use nerflex::device::DeviceSpec;
use nerflex::profile::ProfilerOptions;
use nerflex::scene::dataset::Dataset;
use nerflex::scene::object::CanonicalObject;
use nerflex::scene::scene::Scene;
use nerflex::solve::ConfigSpace;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique, self-cleaning temporary directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        Self(std::env::temp_dir().join(format!(
            "nerflex-chaos-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn two_scenes() -> [(Arc<Scene>, Arc<Dataset>); 2] {
    let a = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21);
    let dataset_a = Dataset::generate(&a, 2, 1, 32, 32);
    let b = Scene::with_objects(&[CanonicalObject::Lego], 4);
    let dataset_b = Dataset::generate(&b, 2, 1, 32, 32);
    [(Arc::new(a), Arc::new(dataset_a)), (Arc::new(b), Arc::new(dataset_b))]
}

/// The burst: 8 requests over 2 distinct scenes × 2 devices, each
/// (scene, device) pair requested twice — so even when one request of a
/// pair fails, its duplicate still covers the pair's fingerprint.
const BURST: [usize; 8] = [0, 0, 1, 1, 0, 0, 1, 1];

fn burst_devices() -> [DeviceSpec; 8] {
    let iphone = DeviceSpec::iphone_13;
    let pixel = DeviceSpec::pixel_4;
    [iphone(), pixel(), iphone(), pixel(), iphone(), pixel(), iphone(), pixel()]
}

/// Everything one burst through a service reports back.
struct BurstReport {
    /// Deployment fingerprint per completed (scene, device) pair.
    fingerprints: BTreeMap<(usize, String), u64>,
    completed: u64,
    failed: u64,
    errors: Vec<PipelineError>,
    /// Bake-store counters, captured after shutdown so flush-time store
    /// traffic (and its faults) is included.
    cache: CacheStats,
    ground_truth: StoreStats,
}

/// Runs the 8-request burst through a fresh inline service over `store`.
fn run_burst(store: StoreOptions) -> BurstReport {
    run_burst_with(ServiceOptions::inline(
        PipelineOptions::quick().with_worker_threads(2).with_store(store),
    ))
}

/// Runs the 8-request burst through a fresh service with full control over
/// the service options (stage faults, clocks, executors, …).
fn run_burst_with(options: ServiceOptions) -> BurstReport {
    let scenes = two_scenes();
    let devices = burst_devices();
    let service = DeployService::new(options);
    let mut scene_of_ticket = BTreeMap::new();
    for (slot, &scene_idx) in BURST.iter().enumerate() {
        let (scene, dataset) = &scenes[scene_idx];
        let ticket = service
            .submit(DeployRequest::new(
                Arc::clone(scene),
                Arc::clone(dataset),
                devices[slot].clone(),
            ))
            .expect("valid request");
        scene_of_ticket.insert(ticket.id(), scene_idx);
    }
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), BURST.len(), "every admitted request yields an outcome");
    let mut fingerprints = BTreeMap::new();
    let mut errors = Vec::new();
    for outcome in outcomes {
        let scene_idx = scene_of_ticket[&outcome.ticket.id()];
        match outcome.into_success() {
            Ok(done) => {
                fingerprints.insert(
                    (scene_idx, done.deployment.device.name.clone()),
                    done.deployment_fingerprint,
                );
            }
            Err(err) => errors.push(err),
        }
    }
    let stats = service.stats();
    // Shutdown flushes the stores — flush-time faults land in the counters
    // (and must not panic or abort the remaining entries).
    service.shutdown();
    BurstReport {
        fingerprints,
        completed: stats.completed,
        failed: stats.failed,
        errors,
        cache: service.cache_stats(),
        ground_truth: service.ground_truth_stats(),
    }
}

/// The fault-free reference: the blocking `try_deploy_fleet` path, one
/// fleet per distinct scene, in-memory stores.
fn reference_fingerprints() -> BTreeMap<(usize, String), u64> {
    let scenes = two_scenes();
    let devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let pipeline = NerflexPipeline::new(PipelineOptions::quick().with_worker_threads(2));
    let mut reference = BTreeMap::new();
    for (scene_idx, (scene, dataset)) in scenes.iter().enumerate() {
        let fleet = pipeline.try_deploy_fleet(scene, dataset, &devices).expect("fleet deploy");
        for deployment in &fleet.deployments {
            reference.insert(
                (scene_idx, deployment.device.name.clone()),
                deployment_fingerprint(&deployment.assets),
            );
        }
    }
    reference
}

#[test]
fn transient_remote_faults_retry_and_complete_bit_identically() {
    let reference = reference_fingerprints();
    let policy = RetryPolicy::new(4, Duration::ZERO);
    for seed in [1u64, 7, 42] {
        let local = TempDir::new("transient");
        // Seeded transient noise on the remote's list/read/write paths,
        // plus one scheduled transient on the very first remote write so
        // every seed provably exercises the retry loop.
        let remote: Arc<dyn StoreBackend> = Arc::new(FaultyBackend::new(
            Arc::new(MemBackend::new()),
            FaultPlan::seeded(seed).fail_nth(
                FaultOp::WriteAtomic,
                0,
                FaultMode::Transient(io::ErrorKind::TimedOut),
            ),
        ));
        let report = run_burst(StoreOptions::shared_with(&local.0, remote).with_retry(policy));
        assert_eq!(
            report.failed, 0,
            "transient remote faults must never fail a request (seed {seed}): {:?}",
            report.errors
        );
        assert_eq!(report.completed, BURST.len() as u64, "seed {seed}");
        assert_eq!(
            report.fingerprints, reference,
            "fingerprints must be byte-identical to the fault-free blocking path (seed {seed})"
        );
        let retries = report.cache.retries + report.ground_truth.retries;
        assert!(retries > 0, "the schedule injects at least one retried fault (seed {seed})");
        // Each remote operation retries at most max_attempts - 1 times.
        let bound = (report.cache.remote_ops + report.ground_truth.remote_ops)
            * (policy.max_attempts as usize - 1);
        assert!(
            retries <= bound,
            "retries must stay bounded by the policy (seed {seed}): {retries} > {bound}"
        );
    }
}

#[test]
fn a_dead_remote_degrades_to_local_recomputation() {
    let reference = reference_fingerprints();
    let local = TempDir::new("dead-remote");
    // Every remote operation fails persistently from the start: the shared
    // store must trip its breaker and keep serving builds from the local
    // layer instead of failing the run.
    let remote: Arc<dyn StoreBackend> =
        Arc::new(FaultyBackend::new(Arc::new(MemBackend::new()), FaultPlan::dead()));
    let report = run_burst(
        StoreOptions::shared_with(&local.0, remote).with_retry(RetryPolicy::new(2, Duration::ZERO)),
    );
    assert_eq!(report.failed, 0, "a dead remote degrades, it does not fail: {:?}", report.errors);
    assert_eq!(report.completed, BURST.len() as u64);
    assert_eq!(
        report.fingerprints, reference,
        "local-only recomputation must be byte-identical to the fault-free path"
    );
    assert!(
        report.cache.remote_errors + report.ground_truth.remote_errors >= 1,
        "the dead remote surfaces as counted remote errors: {:?}",
        report.cache
    );
    assert!(
        report.cache.degraded_ops + report.ground_truth.degraded_ops > 0,
        "after the breaker trips, remote ops are skipped and counted: {:?}",
        report.cache
    );
}

#[test]
fn a_fully_faulty_local_layer_collects_flush_failures_without_failing_requests() {
    let reference = reference_fingerprints();
    // Every write to the store's (only) layer fails persistently — the
    // flush report collects the failures entry by entry; the requests
    // themselves never touch an error because builds recompute.
    let faulty = Arc::new(FaultyBackend::new(
        Arc::new(MemBackend::new()),
        FaultPlan::none().persistent_from(FaultOp::WriteAtomic, 0, io::ErrorKind::PermissionDenied),
    ));
    let report = run_burst(StoreOptions::backend(faulty.clone() as Arc<dyn StoreBackend>));
    assert_eq!(
        report.failed, 0,
        "write faults are flush-time; they never fail a request: {:?}",
        report.errors
    );
    assert_eq!(report.completed, BURST.len() as u64);
    assert_eq!(report.fingerprints, reference);
    let stats = faulty.fault_stats();
    assert!(
        stats.op(FaultOp::WriteAtomic).injected() > 0,
        "shutdown flushed into the faulty layer and was refused: {stats}"
    );
}

#[test]
fn a_crashed_write_leaves_no_torn_entry_and_reopen_sweeps_the_orphan() {
    let tmp = TempDir::new("crash");
    let dir = Arc::new(DirBackend::create(&tmp.0, "nfbake").expect("create backend"));
    // The first write dies between writing its temporary and renaming it
    // into place — the classic torn-write crash window.
    let faulty = Arc::new(FaultyBackend::new(
        Arc::clone(&dir) as Arc<dyn StoreBackend>,
        FaultPlan::none().fail_nth(FaultOp::WriteAtomic, 0, FaultMode::CrashAfterTmpWrite),
    ));
    let cache = BakeCache::open(StoreOptions::backend(faulty as Arc<dyn StoreBackend>))
        .expect("open over faulty backend");
    let model_a = CanonicalObject::Hotdog.build();
    let model_b = CanonicalObject::Lego.build();
    let config = BakeConfig::new(16, 4);
    let asset_a = cache.get_or_bake(&model_a, config);
    let asset_b = cache.get_or_bake(&model_b, config);
    let report = cache.flush_report();
    assert_eq!(report.written, 1, "the non-crashed entry persists: {report}");
    assert_eq!(report.failures.len(), 1, "the crashed write is reported: {report}");

    let orphans = || -> Vec<String> {
        std::fs::read_dir(&tmp.0)
            .map(|listing| {
                listing
                    .flatten()
                    .filter_map(|f| f.file_name().to_str().map(str::to_string))
                    .filter(|name| name.contains(".tmp-"))
                    .collect()
            })
            .unwrap_or_default()
    };
    // The crash left a half-written `.tmp-` orphan on disk…
    assert_eq!(orphans().len(), 1, "the crash leaves its torn temporary behind");
    // …which the listing never exposes as an entry (no torn decode, ever).
    let listed = dir.list().expect("list");
    assert!(listed.iter().all(|entry| !entry.name.contains(".tmp-")));
    assert_eq!(listed.len(), 1, "only the cleanly renamed entry is listed");

    // Reopening the plain directory sweeps the orphan (KeyedStore::open
    // runs sweep_tmp), indexes only the clean entry, and re-bakes the lost
    // one to byte-identical output.
    drop(cache);
    let reopened = BakeCache::open(StoreOptions::dir(tmp.0.clone())).expect("reopen");
    assert!(orphans().is_empty(), "open sweeps crash orphans");
    assert_eq!(reopened.stats().loaded_from_disk, 1);
    let again_a = reopened.get_or_bake(&model_a, config);
    let again_b = reopened.get_or_bake(&model_b, config);
    assert_eq!(
        deployment_fingerprint(std::slice::from_ref(&*again_a)),
        deployment_fingerprint(std::slice::from_ref(&*asset_a)),
        "recovered and rebuilt assets are byte-identical"
    );
    assert_eq!(
        deployment_fingerprint(std::slice::from_ref(&*again_b)),
        deployment_fingerprint(std::slice::from_ref(&*asset_b)),
    );
    let stats = reopened.stats();
    assert_eq!(stats.disk_hits, 1, "the surviving entry decodes from disk");
    assert_eq!(stats.misses, 1, "the crashed entry costs exactly one re-bake");
}

#[test]
fn a_store_panic_fails_exactly_one_request_not_the_burst() {
    let reference = reference_fingerprints();
    let mem = Arc::new(MemBackend::new());
    // Warm run: populate the store so the faulty run has entries to read.
    let warm = run_burst(StoreOptions::backend(Arc::clone(&mem) as Arc<dyn StoreBackend>));
    assert_eq!(warm.failed, 0);
    assert_eq!(warm.fingerprints, reference);

    // The first read of the warmed store panics with a typed payload — the
    // one fault mode the layers below deliberately escalate.
    let faulty = Arc::new(FaultyBackend::new(
        Arc::clone(&mem) as Arc<dyn StoreBackend>,
        FaultPlan::none().fail_nth(FaultOp::Read, 0, FaultMode::Panic),
    ));
    let report = run_burst(StoreOptions::backend(faulty as Arc<dyn StoreBackend>));
    assert_eq!(report.failed, 1, "exactly the scheduled panic fails: {:?}", report.errors);
    assert_eq!(report.completed, BURST.len() as u64 - 1);
    assert_eq!(report.errors.len(), 1);
    assert!(
        matches!(&report.errors[0], PipelineError::Store { .. }),
        "the store fault is classified as a value, not re-panicked: {:?}",
        report.errors
    );
    // Each (scene, device) pair was requested twice, so the failed
    // request's duplicate still covers its pair — every fingerprint
    // present and byte-identical to the fault-free path.
    assert_eq!(report.fingerprints, reference);
}

#[test]
fn a_splat_heavy_scene_survives_transient_store_faults_bit_identically() {
    // The splat family rides the same store/codec/resilience machinery as
    // the mesh family (ISSUE 10): a splat-enabled space at a budget only
    // splats can satisfy, deployed over a remote with seeded transient
    // faults, must retry to completion with a fingerprint byte-identical
    // to the fault-free in-memory run.
    let options = || {
        PipelineOptions::quick()
            .with_worker_threads(2)
            .with_profiler(ProfilerOptions::quick_with_splats())
            .with_space(
                ConfigSpace::new(vec![40], vec![9]).with_splats(24, vec![128, 256, 512, 1024]),
            )
    };
    let run = |store: StoreOptions| {
        let scene =
            Arc::new(Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21));
        let dataset = Arc::new(Dataset::generate(&scene, 2, 1, 32, 32));
        let service = DeployService::new(ServiceOptions::inline(options().with_store(store)));
        // 0.1 MB: far below any (40, 9) mesh pair, comfortably above two
        // splat clouds — only splat-bearing assignments are feasible.
        let ticket = service
            .submit(DeployRequest::new(scene, dataset, DeviceSpec::pixel_4()).with_budget_mb(0.1))
            .expect("valid request");
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 1);
        let outcome = outcomes.into_iter().next().expect("one outcome");
        assert_eq!(outcome.ticket, ticket);
        let done = outcome.into_success().expect("the splat scene deploys");
        let splat_assets =
            done.deployment.assets.iter().filter(|asset| asset.splats.is_some()).count();
        service.shutdown();
        (done.deployment_fingerprint, splat_assets, service.cache_stats())
    };

    let (reference_fingerprint, reference_splats, _) = run(StoreOptions::in_memory());
    assert!(
        reference_splats >= 1,
        "the 0.1 MB budget must hand at least one object to the splat family"
    );
    let policy = RetryPolicy::new(4, Duration::ZERO);
    for seed in [1u64, 7, 42] {
        let local = TempDir::new("splat-transient");
        let remote: Arc<dyn StoreBackend> = Arc::new(FaultyBackend::new(
            Arc::new(MemBackend::new()),
            FaultPlan::seeded(seed).fail_nth(
                FaultOp::WriteAtomic,
                0,
                FaultMode::Transient(io::ErrorKind::TimedOut),
            ),
        ));
        let (fingerprint, splat_assets, cache) =
            run(StoreOptions::shared_with(&local.0, remote).with_retry(policy));
        assert_eq!(
            fingerprint, reference_fingerprint,
            "splat deployments under transient faults must be byte-identical (seed {seed})"
        );
        assert_eq!(splat_assets, reference_splats, "same family mix (seed {seed})");
        assert!(cache.retries > 0, "the schedule injects at least one retried fault (seed {seed})");
    }
}

// ---------------------------------------------------------------------------
// Request lifecycle (ISSUE 9): stage faults, deadlines, cancellation,
// bounded admission, watchdog
// ---------------------------------------------------------------------------

#[test]
fn an_injected_stage_panic_fails_exactly_one_request_and_rolls_back_the_cell() {
    let reference = reference_fingerprints();
    // The very first profiling invocation panics mid-shared-stages: the
    // building request fails, its stage cell rolls back to Idle, and a
    // coalesced duplicate re-claims and completes the build.
    let plan = StageFaultPlan::none().fail_nth(StageOp::Profiling, 0, StageFaultMode::Panic);
    let report = run_burst_with(ServiceOptions::inline(
        PipelineOptions::quick().with_worker_threads(2).with_stage_faults(plan),
    ));
    assert_eq!(report.failed, 1, "exactly the injected stage fault fails: {:?}", report.errors);
    assert_eq!(report.completed, BURST.len() as u64 - 1);
    assert!(
        matches!(&report.errors[0], PipelineError::Stage { stage: "profiling", .. }),
        "the stage fault is classified as a value, not re-panicked: {:?}",
        report.errors
    );
    // The failed request's duplicate re-claimed the rolled-back cell, so
    // every (scene, device) pair still lands, byte-identical.
    assert_eq!(report.fingerprints, reference);
}

#[test]
fn completions_under_seeded_stage_faults_are_bit_identical_and_replayable() {
    let reference = reference_fingerprints();
    for seed in [1u64, 7, 42] {
        let run = |seed: u64| {
            let plan = StageFaultPlan::none()
                .with_seed(seed)
                .with_noise(StageOp::Profiling, 20, StageFaultMode::Fail)
                .with_noise(StageOp::Baking, 20, StageFaultMode::Fail);
            run_burst_with(ServiceOptions::inline(
                PipelineOptions::quick().with_worker_threads(2).with_stage_faults(plan),
            ))
        };
        let report = run(seed);
        assert_eq!(
            report.completed + report.failed,
            BURST.len() as u64,
            "every ticket settles exactly once (seed {seed})"
        );
        for (key, fingerprint) in &report.fingerprints {
            assert_eq!(
                fingerprint, &reference[key],
                "every completing request is byte-identical to the fault-free blocking path \
                 (seed {seed}, {key:?})"
            );
        }
        assert!(
            report.errors.iter().all(|e| matches!(e, PipelineError::Stage { .. })),
            "seed {seed}: {:?}",
            report.errors
        );
        // Inline mode is sequential: the same seed replays the same run.
        let replay = run(seed);
        assert_eq!(replay.completed, report.completed, "seeded replay (seed {seed})");
        assert_eq!(replay.failed, report.failed, "seeded replay (seed {seed})");
        assert_eq!(replay.fingerprints, report.fingerprints, "seeded replay (seed {seed})");
    }
}

#[test]
fn deadlines_and_cancellation_settle_exactly_one_outcome_each() {
    let scenes = two_scenes();
    let reference = reference_fingerprints();
    let clock = Arc::new(TestClock::at(100));
    let service = DeployService::new(
        ServiceOptions::inline(PipelineOptions::quick().with_worker_threads(2))
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );
    let request = |scene_idx: usize, device: DeviceSpec| {
        DeployRequest::new(
            Arc::clone(&scenes[scene_idx].0),
            Arc::clone(&scenes[scene_idx].1),
            device,
        )
    };
    // (1) Already expired at admission: settles immediately, never runs.
    let expired = service
        .submit(request(0, DeviceSpec::iphone_13()).with_deadline(50))
        .expect("expired deadline still settles its ticket");
    // (2) Cancelled while queued: removed outright.
    let cancelled = service.submit(request(0, DeviceSpec::pixel_4())).expect("valid");
    assert!(service.cancel(cancelled));
    assert!(!service.cancel(cancelled), "a settled ticket cannot cancel twice");
    // (3) Deadline passes between admission and processing: aborts at the
    // first stage boundary.
    let late =
        service.submit(request(1, DeviceSpec::iphone_13()).with_deadline(200)).expect("valid");
    // (4) A plain request: completes bit-identically despite the carnage.
    let good = service.submit(request(1, DeviceSpec::pixel_4())).expect("valid");
    clock.advance(150); // now 250: past `late`'s deadline of 200.
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 4, "all four tickets settle exactly once");
    let of = |ticket| outcomes.iter().find(|o| o.ticket == ticket).expect("outcome");
    assert!(matches!(
        of(expired).error(),
        Some(PipelineError::DeadlineExceeded { deadline: 50, now: 100 })
    ));
    assert!(matches!(of(cancelled).error(), Some(PipelineError::Cancelled)));
    assert!(matches!(
        of(late).error(),
        Some(PipelineError::DeadlineExceeded { deadline: 200, now: 250 })
    ));
    let done = of(good).success().expect("the unconstrained request completes");
    assert_eq!(done.deployment_fingerprint, reference[&(1usize, "Pixel 4".to_string())]);
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 2, "{stats}");
    assert_eq!(stats.cancelled, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.shared_stage_runs, 1, "only the surviving scene ran: {stats}");
}

#[test]
fn a_queue_limit_burst_sheds_deterministically() {
    let reference = reference_fingerprints();
    let run = || {
        let scenes = two_scenes();
        let devices = burst_devices();
        let service = DeployService::new(
            ServiceOptions::inline(PipelineOptions::quick().with_worker_threads(2))
                .with_queue_limit(4),
        );
        // First half priority 0, second half priority 1: once the queue is
        // full, each late submit evicts the newest queued priority-0
        // victim, deterministically — so every submit is admitted.
        let mut slot_of = BTreeMap::new();
        for (slot, &scene_idx) in BURST.iter().enumerate() {
            let (scene, dataset) = &scenes[scene_idx];
            let request =
                DeployRequest::new(Arc::clone(scene), Arc::clone(dataset), devices[slot].clone())
                    .with_priority(i32::from(slot >= 4));
            let ticket = service.submit(request).expect("outranks every queued victim");
            slot_of.insert(ticket.id(), slot);
        }
        let mut shed_ids = Vec::new();
        let mut fingerprints = BTreeMap::new();
        for outcome in service.drain() {
            let slot = slot_of[&outcome.ticket.id()];
            let ticket_id = outcome.ticket.id();
            match outcome.into_success() {
                Ok(done) => {
                    fingerprints.insert(
                        (BURST[slot], done.deployment.device.name.clone()),
                        done.deployment_fingerprint,
                    );
                }
                Err(PipelineError::Overloaded { queue_depth }) => {
                    assert_eq!(queue_depth, 4, "sheds happen at the configured limit");
                    shed_ids.push(ticket_id);
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        shed_ids.sort_unstable();
        let stats = service.stats();
        assert_eq!(stats.shed, 4, "{stats}");
        assert_eq!(stats.completed, 4, "{stats}");
        (shed_ids, fingerprints)
    };
    let (shed_a, fingerprints_a) = run();
    // Lowest-priority-newest-first: the four priority-0 tickets shed, the
    // four priority-1 survivors (scenes [0, 0, 1, 1] × both devices) cover
    // every (scene, device) pair and reproduce the fault-free reference
    // byte-for-byte.
    assert_eq!(shed_a, vec![0, 1, 2, 3]);
    assert_eq!(fingerprints_a, reference);
    // The whole run replays identically: shedding depends only on queue
    // contents, never on timing.
    let (shed_b, fingerprints_b) = run();
    assert_eq!(shed_a, shed_b, "shed set is deterministic");
    assert_eq!(fingerprints_a, fingerprints_b, "surviving outputs are deterministic");
}

#[test]
fn the_watchdog_converts_a_stalled_executor_into_a_failed_outcome() {
    let scenes = two_scenes();
    let clock = Arc::new(TestClock::at(0));
    // The first selection invocation stalls forever — a hung executor, not
    // a panic. The watchdog (10 virtual ticks without progress) must settle
    // the ticket so the consumer is never hung.
    let injector = Arc::new(StageFaultInjector::new(StageFaultPlan::none().fail_nth(
        StageOp::Selection,
        0,
        StageFaultMode::Stall,
    )));
    let service = DeployService::new(
        ServiceOptions::inline(
            PipelineOptions::quick()
                .with_worker_threads(2)
                .with_stage_fault_injector(Arc::clone(&injector)),
        )
        .with_executors(1)
        .with_watchdog_ticks(10)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );
    let ticket = service
        .submit(DeployRequest::new(
            Arc::clone(&scenes[0].0),
            Arc::clone(&scenes[0].1),
            DeviceSpec::pixel_4(),
        ))
        .expect("valid");
    // Wait until the executor is parked in the stalled selection stage, then
    // let virtual time pass. Every stage-boundary progress mark precedes the
    // stall, so the request is then exactly 100 ticks stale. Advancing any
    // earlier races those marks: one taken after the advance leaves the
    // request 0 ticks stale, and the consumer would wait forever.
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    while injector.stats().selection.stalls < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "executor never reached the stalled selection stage"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    clock.advance(100);
    let outcome = service.next_outcome().expect("the watchdog settles the stalled ticket");
    assert_eq!(outcome.ticket, ticket);
    assert!(
        matches!(outcome.error(), Some(PipelineError::Stalled { idle_ticks }) if *idle_ticks >= 10),
        "the stall is classified: {:?}",
        outcome.result
    );
    assert!(!service.cancel(ticket), "a ticket the watchdog settled cannot be cancelled");
    assert!(service.next_outcome().is_none(), "the ticket settles exactly once");
    let stats = service.stats();
    assert_eq!(stats.watchdog_trips, 1, "{stats}");
    assert_eq!(stats.in_flight, 0, "the stalled slot was released: {stats}");
    // Shutdown must not join (and hang on) the abandoned executor.
    service.shutdown();
}

#[test]
fn a_stalled_request_that_finishes_late_is_counted_once() {
    let scenes = two_scenes();
    let clock = Arc::new(TestClock::at(0));
    // The first selection invocation sleeps 500 ms, far past the 10-tick
    // watchdog once virtual time moves, and then finishes: the watchdog has
    // settled it as Stalled by then, so its late result must be dropped —
    // not published, and not counted as completed either.
    let injector = Arc::new(StageFaultInjector::new(StageFaultPlan::none().fail_nth(
        StageOp::Selection,
        0,
        StageFaultMode::Delay(Duration::from_millis(500)),
    )));
    let service = DeployService::new(
        ServiceOptions::inline(
            PipelineOptions::quick()
                .with_worker_threads(2)
                .with_stage_fault_injector(Arc::clone(&injector)),
        )
        .with_executors(1)
        .with_watchdog_ticks(10)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );
    let request = || {
        DeployRequest::new(
            Arc::clone(&scenes[0].0),
            Arc::clone(&scenes[0].1),
            DeviceSpec::pixel_4(),
        )
    };
    let late = service.submit(request()).expect("valid");
    // As in the stall test: advance only once the executor sleeps in
    // selection, after its last progress mark.
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    while injector.stats().selection.delays < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "executor never reached the delayed selection stage"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    clock.advance(100);
    let outcome = service.next_outcome().expect("the watchdog settles the delayed ticket");
    assert_eq!(outcome.ticket, late);
    assert!(matches!(outcome.error(), Some(PipelineError::Stalled { .. })), "{:?}", outcome.result);
    // The single executor runs the second request only after the first
    // returns, so by the time this outcome lands the late result is in.
    let second = service.submit(request()).expect("valid");
    let outcome = service.next_outcome().expect("the second request completes");
    assert_eq!(outcome.ticket, second);
    assert!(outcome.is_success(), "{:?}", outcome.result);
    assert!(service.next_outcome().is_none(), "the late result is never published");
    let stats = service.stats();
    assert_eq!(stats.admitted, 2, "{stats}");
    assert_eq!(stats.completed, 1, "the late result is not counted: {stats}");
    assert_eq!(stats.watchdog_trips, 1, "{stats}");
    assert_eq!(stats.in_flight, 0, "{stats}");
}
