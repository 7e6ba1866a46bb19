//! Criterion benchmark for the fleet deployment service: a duplicate-heavy
//! request burst (8 requests over 2 distinct scenes × 2 devices) through
//! [`DeployService`], against handling every request independently with the
//! blocking single-request path.
//!
//! The service's scene-level coalescing runs segmentation + profiling once
//! per distinct scene and its store-level dedup bakes nothing twice, so the
//! burst costs roughly what 2 fleet deployments cost — while the
//! independent path pays the shared stages per request. The bench asserts
//! the correctness half before timing anything: `coalesced > 0`, zero
//! duplicate bakes relative to the sequential `try_deploy_fleet` reference,
//! and byte-identical deployment fingerprints per (scene, device) pair.
//!
//! Environment variables for the CI `bench-smoke` job:
//!
//! * `NERFLEX_BENCH_SMOKE` — shrink criterion sample counts.
//! * `NERFLEX_BENCH_JSON` — write the service counters and timings to the
//!   given path; uploaded as a CI artifact, where the job asserts
//!   `coalesced >= 1`, `duplicate_bakes == 0` and
//!   `fingerprint_mismatches == 0`.
//! * `NERFLEX_WORKERS` — worker budget for the pipeline stages.
//!
//! The `bench-service:` line printed at the end is stable and parseable.

use criterion::{criterion_group, criterion_main, Criterion};
use nerflex_bake::disk::deployment_fingerprint;
use nerflex_bench::JsonReport;
use nerflex_core::pipeline::{NerflexPipeline, PipelineOptions};
use nerflex_core::service::{DeployRequest, DeployService, ServiceOptions};
use nerflex_device::DeviceSpec;
use nerflex_math::pool::env_workers;
use nerflex_scene::dataset::Dataset;
use nerflex_scene::object::CanonicalObject;
use nerflex_scene::scene::Scene;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// `true` in the CI smoke job: fewer criterion samples.
fn smoke() -> bool {
    std::env::var_os("NERFLEX_BENCH_SMOKE").is_some()
}

fn samples(full: usize) -> usize {
    if smoke() {
        2
    } else {
        full
    }
}

fn workers() -> usize {
    env_workers().unwrap_or(2)
}

fn options() -> PipelineOptions {
    PipelineOptions::quick().with_worker_threads(workers())
}

/// The two distinct scenes of the burst.
fn scenes() -> [(Arc<Scene>, Arc<Dataset>); 2] {
    let a = Scene::with_objects(&[CanonicalObject::Hotdog, CanonicalObject::Chair], 21);
    let dataset_a = Dataset::generate(&a, 2, 1, 32, 32);
    let b = Scene::with_objects(&[CanonicalObject::Lego], 4);
    let dataset_b = Dataset::generate(&b, 2, 1, 32, 32);
    [(Arc::new(a), Arc::new(dataset_a)), (Arc::new(b), Arc::new(dataset_b))]
}

/// The duplicate-heavy burst: scene index per request — 8 requests, 2
/// distinct scenes, each (scene, device) pair requested twice.
const BURST: [usize; 8] = [0, 0, 1, 1, 0, 0, 1, 1];

fn burst_devices() -> Vec<DeviceSpec> {
    BURST
        .iter()
        .enumerate()
        .map(|(i, _)| if i % 2 == 0 { DeviceSpec::iphone_13() } else { DeviceSpec::pixel_4() })
        .collect()
}

/// Everything one burst through a fresh service reports back.
struct BurstOutcome {
    /// Deployment fingerprint per (scene, device).
    fingerprints: BTreeMap<(usize, String), u64>,
    coalesced: u64,
    failed: u64,
    bake_misses: usize,
    remote_errors: usize,
    retries: usize,
    degraded_ops: usize,
    cancelled: u64,
    deadline_exceeded: u64,
    shed: u64,
    watchdog_trips: u64,
}

/// One burst through a fresh service.
fn service_burst(scenes: &[(Arc<Scene>, Arc<Dataset>); 2]) -> BurstOutcome {
    let service = DeployService::new(ServiceOptions::inline(options()));
    let devices = burst_devices();
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
    let mut fingerprints = BTreeMap::new();
    for outcome in service.drain() {
        let scene_idx = scene_of_ticket[&outcome.ticket.id()];
        let done = outcome.into_success().expect("no faults injected: every request succeeds");
        fingerprints
            .insert((scene_idx, done.deployment.device.name.clone()), done.deployment_fingerprint);
    }
    let stats = service.stats();
    let cache = service.cache_stats();
    BurstOutcome {
        fingerprints,
        coalesced: stats.coalesced,
        failed: stats.failed,
        bake_misses: cache.misses,
        remote_errors: cache.remote_errors,
        retries: cache.retries,
        degraded_ops: cache.degraded_ops,
        cancelled: stats.cancelled,
        deadline_exceeded: stats.deadline_exceeded,
        shed: stats.shed,
        watchdog_trips: stats.watchdog_trips,
    }
}

/// The independent path: every request handled alone by the blocking
/// single-request entry point — no shared stages, no shared cache.
fn independent_burst(scenes: &[(Arc<Scene>, Arc<Dataset>); 2]) -> usize {
    let pipeline = NerflexPipeline::new(options());
    let devices = burst_devices();
    let mut assets = 0;
    for (slot, &scene_idx) in BURST.iter().enumerate() {
        let (scene, dataset) = &scenes[scene_idx];
        let deployment =
            pipeline.try_run(scene, dataset, &devices[slot]).expect("independent deploy");
        assets += deployment.assets.len();
    }
    assets
}

fn bench_service(c: &mut Criterion) {
    let scenes = scenes();
    let workers = workers();
    let requests = BURST.len();

    // Sequential reference: one blocking fleet deployment per distinct
    // scene — the canonical output the service must reproduce.
    let pipeline = NerflexPipeline::new(options());
    let fleet_devices = [DeviceSpec::iphone_13(), DeviceSpec::pixel_4()];
    let mut reference = BTreeMap::new();
    let mut reference_bakes = 0;
    for (scene_idx, (scene, dataset)) in scenes.iter().enumerate() {
        let fleet =
            pipeline.try_deploy_fleet(scene, dataset, &fleet_devices).expect("fleet deploy");
        reference_bakes += fleet.cache.misses;
        for deployment in &fleet.deployments {
            reference.insert(
                (scene_idx, deployment.device.name.clone()),
                deployment_fingerprint(&deployment.assets),
            );
        }
    }

    // Sanity before timing: coalescing happened, nothing baked twice, and
    // the outputs are byte-identical to the sequential try_deploy_fleet path.
    let burst = service_burst(&scenes);
    let coalesced = burst.coalesced;
    let service_bakes = burst.bake_misses;
    assert!(coalesced > 0, "a duplicate-heavy burst must coalesce");
    assert_eq!(burst.failed, 0, "no faults injected: nothing may fail");
    let duplicate_bakes = service_bakes.saturating_sub(reference_bakes);
    assert_eq!(duplicate_bakes, 0, "the service must not re-bake what the reference bakes once");
    let fingerprint_mismatches =
        reference.iter().filter(|(key, fp)| burst.fingerprints.get(*key) != Some(fp)).count();
    assert_eq!(
        fingerprint_mismatches, 0,
        "service deployments must be byte-identical to try_deploy_fleet"
    );

    let mut service_mean = Duration::ZERO;
    let mut independent_mean = Duration::ZERO;

    let mut group = c.benchmark_group("service");
    group.sample_size(samples(10));
    group.bench_function(format!("burst_{requests}req_service_{workers}workers"), |bench| {
        bench.iter(|| service_burst(&scenes).fingerprints.len());
        service_mean = bench.mean;
    });
    group.bench_function(format!("burst_{requests}req_independent_{workers}workers"), |bench| {
        bench.iter(|| independent_burst(&scenes));
        independent_mean = bench.mean;
    });
    group.finish();

    let speedup = if service_mean.as_secs_f64() > 0.0 {
        independent_mean.as_secs_f64() / service_mean.as_secs_f64()
    } else {
        1.0
    };
    // Stable, machine-readable summary parsed/archived by the CI job.
    println!(
        "bench-service: requests={requests} distinct_scenes=2 workers={workers} \
         coalesced={coalesced} duplicate_bakes={duplicate_bakes} \
         fingerprint_mismatches={fingerprint_mismatches} service_ms={:.3} \
         independent_ms={:.3} speedup={speedup:.2}",
        service_mean.as_secs_f64() * 1e3,
        independent_mean.as_secs_f64() * 1e3,
    );
    if let Some(path) = std::env::var_os("NERFLEX_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        let mut report = JsonReport::new();
        report
            .str_field("bench", "service")
            .int_field("smoke", u64::from(smoke()))
            .int_field("requests", requests as u64)
            .int_field("distinct_scenes", 2)
            .int_field("workers", workers as u64)
            .int_field("coalesced", coalesced)
            .int_field("duplicate_bakes", duplicate_bakes as u64)
            .int_field("fingerprint_mismatches", fingerprint_mismatches as u64)
            .int_field("service_bakes", service_bakes as u64)
            .int_field("reference_bakes", reference_bakes as u64)
            .int_field("failed", burst.failed)
            .int_field("remote_errors", burst.remote_errors as u64)
            .int_field("retries", burst.retries as u64)
            .int_field("degraded_ops", burst.degraded_ops as u64)
            .int_field("cancelled", burst.cancelled)
            .int_field("deadline_exceeded", burst.deadline_exceeded)
            .int_field("shed", burst.shed)
            .int_field("watchdog_trips", burst.watchdog_trips)
            .float_field("service_ms", service_mean.as_secs_f64() * 1e3)
            .float_field("independent_ms", independent_mean.as_secs_f64() * 1e3)
            .float_field("speedup", speedup);
        match report.write(&path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("service bench: writing {} failed: {err}", path.display()),
        }
    }
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
