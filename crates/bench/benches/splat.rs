//! Criterion benchmark for the deterministic gaussian-splat compositor:
//! one worker against the parallel worker count on the same frame, with the
//! determinism contract asserted before anything is timed — every worker
//! count must produce bit-identical pixels, so the numbers below are pure
//! throughput differences, never output drift.
//!
//! Environment variables for the CI `bench-smoke` job:
//!
//! * `NERFLEX_BENCH_SMOKE` — shrink criterion sample counts.
//! * `NERFLEX_BENCH_JSON` — write the mean serial and parallel frame times
//!   and the worker speedup to the given path (uploaded as a CI artifact).
//! * `NERFLEX_WORKERS` — override the parallel worker count.
//!
//! The `bench-splat:` line printed at the end is stable and parseable.

use criterion::{criterion_group, criterion_main, Criterion};
use nerflex_bake::{bake_object, BakeConfig, BakedAsset};
use nerflex_bench::JsonReport;
use nerflex_math::pool::env_workers;
use nerflex_render::{render_assets, RenderOptions};
use nerflex_scene::camera_path::{orbit_path, CameraPose};
use nerflex_scene::object::CanonicalObject;
use std::time::Duration;

/// Frame resolution: large enough for multi-row footprints and several
/// SIMD packets per splat row.
const RES: usize = 128;
/// Splat budget for the benchmark cloud (below the grid-24 boundary-seed
/// budget, so the baked count is exact).
const COUNT: u32 = 1024;

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

/// The parallel worker count benchmarked against the single-worker path.
fn workers() -> usize {
    env_workers().unwrap_or(4)
}

/// The benchmark scene: one splat-family asset and a camera framing it.
fn fixture() -> (BakedAsset, CameraPose) {
    let asset = bake_object(&CanonicalObject::Hotdog.build(), BakeConfig::splat(24, COUNT));
    let bb = asset.world_bounding_box();
    let pose = orbit_path(bb.center(), bb.diagonal().max(1.0) * 1.4, 0.4, 8)[0];
    (asset, pose)
}

fn render(asset: &BakedAsset, pose: &CameraPose, workers: usize) -> nerflex_image::Image {
    let options = RenderOptions { splat_workers: workers };
    render_assets(std::slice::from_ref(asset), pose, RES, RES, &options).0
}

fn bench_splat(c: &mut Criterion) {
    let (asset, pose) = fixture();
    let workers = workers();
    let splats = asset.splats.as_ref().expect("splat-family asset").len();

    // The determinism contract, asserted before timing: worker counts never
    // change output bits (docs/determinism.md).
    let reference = render(&asset, &pose, 1);
    for w in [1, workers, 0] {
        let img = render(&asset, &pose, w);
        assert!(
            reference.pixels().iter().zip(img.pixels()).all(|(a, b)| {
                a.r.to_bits() == b.r.to_bits()
                    && a.g.to_bits() == b.g.to_bits()
                    && a.b.to_bits() == b.b.to_bits()
            }),
            "bits changed at workers={w}"
        );
    }

    let mut serial = Duration::ZERO;
    let mut parallel = Duration::ZERO;

    let mut group = c.benchmark_group("splat");
    group.sample_size(samples(10));
    group.bench_function(format!("composite_{splats}splats_1worker"), |bench| {
        bench.iter(|| render(&asset, &pose, 1).pixels().len());
        serial = bench.mean;
    });
    group.bench_function(format!("composite_{splats}splats_{workers}workers"), |bench| {
        bench.iter(|| render(&asset, &pose, workers).pixels().len());
        parallel = bench.mean;
    });
    group.finish();

    let worker_speedup = if parallel.as_secs_f64() > 0.0 {
        serial.as_secs_f64() / parallel.as_secs_f64()
    } else {
        1.0
    };
    // Stable, machine-readable summary parsed/archived by the CI job.
    println!(
        "bench-splat: splats={splats} res={RES} workers={workers} serial_ms={:.3} \
         parallel_ms={:.3} worker_speedup={worker_speedup:.2}",
        serial.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
    );
    if let Some(path) = std::env::var_os("NERFLEX_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        let mut report = JsonReport::new();
        report
            .str_field("bench", "splat")
            .int_field("smoke", u64::from(smoke()))
            .int_field("splats", splats as u64)
            .int_field("resolution", RES as u64)
            .int_field("workers", workers as u64)
            .float_field("serial_ms", serial.as_secs_f64() * 1e3)
            .float_field("parallel_ms", parallel.as_secs_f64() * 1e3)
            .float_field("worker_speedup", worker_speedup);
        match report.write(&path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("splat bench: writing {} failed: {err}", path.display()),
        }
    }
}

criterion_group!(benches, bench_splat);
criterion_main!(benches);
