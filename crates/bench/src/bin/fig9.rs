//! Fig. 9 — execution-time (overhead) analysis of the cloud-side pipeline
//! for a twenty-image training set: segmentation, profiler and solver time
//! and their shares of the total.
//!
//! ```bash
//! cargo run --release -p nerflex-bench --bin fig9 [-- --full] \
//!     [--smoke] [--cache-dir DIR] [--remote-dir DIR] [--json PATH]
//! ```
//!
//! `--cache-dir` opens the persistent on-disk bake store before the run and
//! flushes it afterwards: a second invocation against the same directory
//! answers every bake from disk and re-bakes nothing (the CI `bench-smoke`
//! job asserts exactly that). Adding `--remote-dir` layers the local store
//! over a shared remote (read-through/write-through): a second *machine* —
//! a cold `--cache-dir` sharing the same remote — also re-bakes nothing and
//! produces byte-identical output (`deployment_fingerprint` in the JSON;
//! the CI two-store run asserts it). `--json` writes a machine-readable
//! summary of the timings and cache counters; `--smoke` further reduces the
//! quick scale for CI while keeping the cache keys identical.
//!
//! `--splats` enables the gaussian-splat representation family: the profiler
//! samples the splat count axis, the configuration space gains splat
//! candidates, and the device budget is tightened (`--budget-mb MB`,
//! default 0.35 with `--splats`) so the selector actually reaches for the
//! compact family. The JSON gains a per-family byte breakdown plus the
//! `splat_assets` / `splat_extractions` counters the CI splat scenario
//! asserts on (second warm run: zero extractions, identical fingerprint).

use nerflex_bench::{
    arg_value, json_path_from_args, print_header, seed_from_args, smoke_from_args,
    store_options_from_args, ExperimentMode, JsonReport,
};
use nerflex_core::baselines::{bake_block_nerf, bake_single_nerf};
use nerflex_core::experiments::EvaluationScene;
use nerflex_core::pipeline::NerflexPipeline;
use nerflex_core::report::{fmt_f64, format_duration, Table};

fn main() {
    let mode = ExperimentMode::from_args();
    let seed = seed_from_args();
    let smoke = smoke_from_args();
    let splats = std::env::args().any(|a| a == "--splats");
    print_header("Fig. 9 — overhead analysis (20 training images)", mode, seed);

    let built = EvaluationScene::RealWorld.build(seed);
    // The paper reports the total processing time for twenty training
    // images; smoke mode trims the dataset (segmentation input) without
    // touching the profiler's sample space, so its cache keys — and the
    // cross-run reuse the CI job checks — match a regular quick run.
    let train_views = if smoke { 6 } else { 20 };
    let resolution = if smoke { 56 } else { mode.resolution() };
    let dataset = built.dataset(train_views, 2, resolution);
    let single = bake_single_nerf(&built.scene, mode.baseline_config());
    let block = bake_block_nerf(&built.scene, mode.baseline_config());
    let (mut iphone, _) = mode.devices(&single, &block);

    let mut options = mode.pipeline_options();
    options.store = store_options_from_args();
    if splats {
        // Splat scenario: profile the splat count axis, offer splat
        // candidates to the selector, and tighten the budget so the compact
        // family actually wins for at least one object. The splat sample
        // grid (24) matches the candidate grid so every candidate count is
        // an interpolation of the fitted curves, never an extrapolation.
        options.profiler = options.profiler.with_splats(nerflex_profile::SplatSampleRange::quick());
        options.space = options.space.clone().with_splats(24, vec![128, 256, 512, 1024]);
        // 0.35 MB sits between "everything fits as mesh" and "everything
        // must go splat" at smoke/quick scale, so the deployment mixes
        // families — the story the splat scenario exists to tell.
        let budget_mb =
            arg_value("--budget-mb").and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.35);
        iphone.recommended_budget_mb = budget_mb;
        println!("splat family enabled: budget tightened to {budget_mb} MB\n");
    }
    let pipeline = NerflexPipeline::new(options);
    // The fleet's cache counters cover the whole run, so the report can
    // distinguish what this process baked from what a previous process left
    // on disk. The deploy flushes the stores when it finishes.
    let fleet = pipeline
        .try_deploy_fleet(&built.scene, &dataset, std::slice::from_ref(&iphone))
        .expect("fig9 deploy");
    let run_cache = fleet.cache;
    let deployment = &fleet.deployments[0];
    let t = deployment.timings;
    let overhead = t.overhead().as_secs_f64();

    let mut table = Table::new(
        "Fig. 9: cloud-side processing time (excluding NeRF training / baking)",
        &["module", "time", "share of overhead"],
    );
    for (label, d) in [
        ("detail-based segmentation", t.segmentation),
        ("performance profiler", t.profiling),
        ("DP solver", t.selection),
    ] {
        table.push_row(vec![
            label.to_string(),
            format_duration(d),
            format!("{}%", fmt_f64(d.as_secs_f64() / overhead.max(1e-9) * 100.0, 1)),
        ]);
    }
    println!("{table}");
    println!("total one-shot overhead: {}", format_duration(t.overhead()));
    println!(
        "(baking / multi-NeRF training stage, reported separately: {})",
        format_duration(t.baking)
    );

    // Engine effects: how much the parallel, cache-aware engine saves on top
    // of the stage breakdown above.
    let mut engine =
        Table::new("Execution engine: parallelism and bake-cache effect", &["metric", "value"]);
    engine.push_row(vec![
        "profiler workers (objects × samples)".to_string(),
        format!("{} × {}", t.profiling_workers, t.profiling_sample_workers),
    ]);
    engine.push_row(vec![
        "profiler serial-equivalent time".to_string(),
        format_duration(t.profiling_serial),
    ]);
    engine.push_row(vec![
        "ground-truth ray marching".to_string(),
        format!(
            "{} ({} rendered, {} served from cache)",
            format_duration(t.ground_truth),
            t.ground_truth_builds,
            t.ground_truth_hits
        ),
    ]);
    engine.push_row(vec![
        "fused quality metrics".to_string(),
        format!("{} ({} evaluations)", format_duration(t.metrics), t.metrics_evaluations),
    ]);
    engine.push_row(vec![
        "profiler parallel speedup".to_string(),
        format!("{}x", fmt_f64(t.profiling_speedup(), 2)),
    ]);
    engine.push_row(vec![
        "worker pool (profiling stage)".to_string(),
        format!(
            "{} persistent threads, {} dispatches / {} jobs{}",
            nerflex_math::pool::WorkerPool::shared().threads(),
            t.pool_dispatches,
            t.pool_jobs,
            match nerflex_math::pool::env_workers() {
                Some(n) => format!(" (NERFLEX_WORKERS={n})"),
                None => String::new(),
            }
        ),
    ]);
    engine.push_row(vec![
        "final bakes served from cache".to_string(),
        format!(
            "{} of {} ({}%, {} from disk)",
            t.cache_served(),
            t.cache_served() + t.cache_misses,
            fmt_f64(t.cache_hit_ratio() * 100.0, 0),
            t.cache_disk_hits
        ),
    ]);
    engine.push_row(vec![
        "splat-cloud extractions (baking stage)".to_string(),
        format!(
            "{} this deploy, {} whole-run (0 on a warm cache)",
            t.splat_extractions, run_cache.splat_extractions
        ),
    ]);
    engine.push_row(vec![
        "persistent store".to_string(),
        if pipeline.options().store.is_persistent() {
            format!(
                "{} ({} entries loaded, {} baked this run)",
                pipeline.options().store.describe(),
                run_cache.loaded_from_disk,
                run_cache.misses
            )
        } else {
            "disabled (in-memory cache)".to_string()
        },
    ]);
    engine.push_row(vec![
        "store resilience".to_string(),
        format!(
            "{} remote ops, {} retries, {} remote errors, {} degraded ops",
            run_cache.remote_ops,
            run_cache.retries,
            run_cache.remote_errors,
            run_cache.degraded_ops
        ),
    ]);
    // Request-lifecycle demo (zero extra compute): a tiny service over the
    // same options with a pinned virtual clock and a queue limit of 1 —
    // one request expires at admission, one is shed by bounded admission,
    // one is cancelled while queued. Nothing runs; every ticket settles.
    let lifecycle = {
        use nerflex_core::clock::{Clock, TestClock};
        use nerflex_core::service::{DeployRequest, DeployService, ServiceOptions};
        let clock: std::sync::Arc<dyn Clock> = std::sync::Arc::new(TestClock::at(100));
        let service = DeployService::new(
            ServiceOptions::inline(mode.pipeline_options()).with_queue_limit(1).with_clock(clock),
        );
        let scene = std::sync::Arc::new(built.scene.clone());
        let dataset = std::sync::Arc::new(dataset.clone());
        let request = || {
            DeployRequest::new(
                std::sync::Arc::clone(&scene),
                std::sync::Arc::clone(&dataset),
                iphone.clone(),
            )
        };
        let queued = service.submit(request()).expect("fills the queue");
        let _expired = service.submit(request().with_deadline(50)).expect("settles at admission");
        assert!(service.submit(request()).is_err(), "bounded admission sheds the newest");
        assert!(service.cancel(queued), "queued request cancels");
        let settled = service.drain();
        assert_eq!(settled.len(), 2, "every issued ticket settles exactly once");
        service.stats()
    };
    engine.push_row(vec![
        "request lifecycle (demo burst)".to_string(),
        format!(
            "{} cancelled, {} past deadline, {} shed, {} watchdog trips",
            lifecycle.cancelled,
            lifecycle.deadline_exceeded,
            lifecycle.shed,
            lifecycle.watchdog_trips
        ),
    ]);
    println!("{engine}");
    println!("whole-run bake cache: {run_cache}");

    // Per-family byte breakdown of the deployed assets: where the deployed
    // megabytes actually live (mesh quads, texture atlas, deferred-shading
    // MLP, gaussian splat clouds) and which representation family each
    // object ended up with. The CI splat scenario asserts `splat_assets ≥ 1`
    // from the JSON mirror of this table.
    let fmt_kib = |bytes: usize| format!("{:.1} KiB", bytes as f64 / 1024.0);
    let mut breakdown = Table::new(
        "Deployed bytes by representation family",
        &["object", "family", "mesh", "atlas", "mlp", "splats", "total"],
    );
    let (mut mesh_bytes, mut atlas_bytes, mut mlp_bytes, mut splat_bytes) = (0, 0, 0, 0);
    let mut splat_assets = 0usize;
    for asset in &deployment.assets {
        mesh_bytes += asset.mesh_size_bytes();
        atlas_bytes += asset.texture_size_bytes();
        mlp_bytes += asset.mlp_size_bytes();
        splat_bytes += asset.splat_size_bytes();
        splat_assets += usize::from(asset.splats.is_some());
        breakdown.push_row(vec![
            asset.name.clone(),
            asset.config.family.name().to_string(),
            fmt_kib(asset.mesh_size_bytes()),
            fmt_kib(asset.texture_size_bytes()),
            fmt_kib(asset.mlp_size_bytes()),
            fmt_kib(asset.splat_size_bytes()),
            fmt_kib(asset.size_bytes()),
        ]);
    }
    let total_bytes = mesh_bytes + atlas_bytes + mlp_bytes + splat_bytes;
    breakdown.push_row(vec![
        "total".to_string(),
        format!("{splat_assets} splat / {} mesh", deployment.assets.len() - splat_assets),
        fmt_kib(mesh_bytes),
        fmt_kib(atlas_bytes),
        fmt_kib(mlp_bytes),
        fmt_kib(splat_bytes),
        fmt_kib(total_bytes),
    ]);
    println!("{breakdown}");

    // Byte-level fingerprint of the deployment output: every baked asset's
    // canonical entry encoding plus its placement bits. Two processes (or
    // machines) that really produced identical output agree on this value —
    // the CI two-store run asserts it across a shared remote.
    let fingerprint = nerflex_bake::disk::deployment_fingerprint(&deployment.assets);
    println!("deployment fingerprint: {fingerprint:016x}");

    if let Some(path) = json_path_from_args() {
        let mut report = JsonReport::new();
        report
            .str_field("figure", "fig9")
            .str_field("mode", mode.label())
            .str_field("store", &pipeline.options().store.describe())
            .str_field("deployment_fingerprint", &format!("{fingerprint:016x}"))
            .int_field("seed", seed)
            .int_field("smoke", u64::from(smoke))
            .int_field("cache_format_version", u64::from(nerflex_bake::CACHE_FORMAT_VERSION))
            .int_field("train_views", train_views as u64)
            .float_field("segmentation_seconds", t.segmentation.as_secs_f64())
            .float_field("profiling_seconds", t.profiling.as_secs_f64())
            .float_field("selection_seconds", t.selection.as_secs_f64())
            .float_field("overhead_seconds", overhead)
            .float_field("baking_seconds", t.baking.as_secs_f64())
            .float_field("profiling_speedup", t.profiling_speedup())
            .float_field("ground_truth_ms", t.ground_truth_ms())
            .int_field("ground_truth_builds", t.ground_truth_builds as u64)
            .int_field("ground_truth_hits", t.ground_truth_hits as u64)
            .float_field("metrics_ms", t.metrics_ms())
            .int_field("metrics_evaluations", t.metrics_evaluations as u64)
            .int_field("profiling_workers", t.profiling_workers as u64)
            .int_field("profiling_sample_workers", t.profiling_sample_workers as u64)
            .int_field("pool_dispatches", t.pool_dispatches)
            .int_field("pool_jobs", t.pool_jobs)
            .int_field("pool_threads", nerflex_math::pool::WorkerPool::shared().threads() as u64)
            .int_field("env_workers", nerflex_math::pool::env_workers().unwrap_or(0) as u64)
            .int_field("stage_cache_hits", t.cache_hits as u64)
            .int_field("stage_cache_disk_hits", t.cache_disk_hits as u64)
            .int_field("stage_cache_misses", t.cache_misses as u64)
            .int_field("splat_extractions", t.splat_extractions as u64)
            .int_field("cache_splat_extractions", run_cache.splat_extractions as u64)
            .int_field("splat_assets", splat_assets as u64)
            .int_field("mesh_assets", (deployment.assets.len() - splat_assets) as u64)
            .int_field("bytes_mesh", mesh_bytes as u64)
            .int_field("bytes_atlas", atlas_bytes as u64)
            .int_field("bytes_mlp", mlp_bytes as u64)
            .int_field("bytes_splat", splat_bytes as u64)
            .int_field("bytes_total", total_bytes as u64)
            .int_field("cache_hits", run_cache.hits as u64)
            .int_field("cache_disk_hits", run_cache.disk_hits as u64)
            .int_field("cache_served", run_cache.total_hits() as u64)
            .int_field("cache_misses", run_cache.misses as u64)
            .int_field("cache_entries", run_cache.entries as u64)
            .int_field("cache_loaded_from_disk", run_cache.loaded_from_disk as u64)
            .int_field("remote_ops", run_cache.remote_ops as u64)
            .int_field("remote_errors", run_cache.remote_errors as u64)
            .int_field("retries", run_cache.retries as u64)
            .int_field("degraded_ops", run_cache.degraded_ops as u64)
            .int_field("lifecycle_cancelled", lifecycle.cancelled)
            .int_field("lifecycle_deadline_exceeded", lifecycle.deadline_exceeded)
            .int_field("lifecycle_shed", lifecycle.shed)
            .int_field("lifecycle_watchdog_trips", lifecycle.watchdog_trips);
        match report.write(&path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("fig9: writing {} failed: {err}", path.display()),
        }
    }

    println!(
        "\npaper (full scale): segmentation ≈3.8 s (64 %), profiler ≈0.277 s (4.7 %),\n\
         solver ≈1.87 s (31 %), total ≈5.9 s. Our profiler stage is relatively more\n\
         expensive because it bakes and renders real sample configurations instead of\n\
         training NeRF networks on a GPU farm (see DESIGN.md)."
    );
}
