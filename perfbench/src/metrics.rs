//! The metric catalogue (names, units, directions, and for each per-layer
//! metric the end-to-end metric and workloads it should move) and the
//! computation of every metric's value from one run.

use crate::stats::median;
use crate::trace::{Pass, REQUEST_LAYERS, SETUP_LAYERS};
use crate::workload::OpRecord;
use std::collections::BTreeMap;

/// One metric of the catalogue. `BENCHMARK.json` lists the same names,
/// units and directions (checked by a self-test).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Per-layer metrics: the end-to-end metric a change to this layer
    /// should move.
    pub moves: &'static str,
    /// Per-layer metrics: the workloads it is measured to matter on.
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, moves: "", on: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, moves, on }
}

/// Printed with `--trace 0`, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("deploy_s_p50", "s", "lower"),
    e2e("deploys_per_s", "1/s", "higher"),
    e2e("cpu_s_per_deploy", "s", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("setup_s", "s", "lower"),
    e2e("deploy_ssim", "ssim", "higher"),
];

const P50: &str = "deploy_s_p50";
const P50_CPU: &str = "deploy_s_p50, cpu_s_per_deploy";

/// Printed with `--trace 1`: the program's own counters from the timed
/// phase, then the traced replay's layers.
pub const PER_LAYER: [MetricDef; 40] = [
    layer("core.pipeline.segmentation_s", "s", "lower", P50, "all (under 1%)"),
    layer("core.pipeline.profiling_s", "s", "lower", P50, "cold-scene (~99%), warm-store"),
    layer("core.pipeline.selection_s", "s", "lower", P50, "all (under 1%)"),
    layer("core.pipeline.baking_s", "s", "lower", P50, "all (under 1%)"),
    layer("bake.cache.misses", "count", "lower", P50_CPU, "cold-scene (72/request); 0 warm"),
    layer("bake.cache.splat_extractions", "count", "lower", P50_CPU, "cold-scene; 0 on warm-store"),
    layer("bake.cache.disk_hits", "count", "higher", P50, "warm-store"),
    layer("bake.cache.hit_ratio", "ratio", "higher", P50, "warm-store"),
    layer("bake.store.entries_indexed", "count", "lower", P50, "warm-store"),
    layer("profile.ground_truth_builds", "count", "lower", P50, "cold-scene (6 builds)"),
    layer("profile.ground_truth_hits", "count", "higher", P50, "warm-store (6 hits)"),
    layer("profile.metrics_evaluations", "count", "lower", P50, "all"),
    layer("math.pool.dispatches", "count", "lower", "cpu_s_per_deploy", "cold-scene"),
    layer("math.pool.jobs", "count", "lower", "cpu_s_per_deploy", "cold-scene"),
    layer("core.service.shared_stage_runs", "count", "lower", "deploys_per_s", "service-burst"),
    layer("core.service.coalesced", "count", "higher", "deploys_per_s", "service-burst"),
    layer("core.service.bake_coalesced", "count", "higher", "deploys_per_s", "service-burst"),
    layer(
        "core.service.ground_truth_coalesced",
        "count",
        "higher",
        "deploys_per_s",
        "service-burst",
    ),
    layer("core.service.wait_s_p50", "s", "lower", P50, "service-burst"),
    layer("seg.segment_s", "s", "lower", P50, "all (under 1%)"),
    layer("scene.raymarch_s", "s", "lower", P50, "cold-scene"),
    layer("bake.voxelise_s", "s", "lower", P50_CPU, "cold-scene; absent on warm-store"),
    layer("bake.mesh_extract_s", "s", "lower", P50_CPU, "cold-scene; absent on warm-store"),
    layer("bake.atlas_s", "s", "lower", P50_CPU, "cold-scene; absent on warm-store"),
    layer("bake.splat_extract_s", "s", "lower", P50_CPU, "cold-scene; absent on warm-store"),
    layer("bake.cache.key_s", "s", "lower", P50, "warm-store"),
    layer("render.raster_s", "s", "lower", P50, "warm-store (~50%); cold-scene"),
    layer("render.splat_s", "s", "lower", P50, "warm-store; cold-scene"),
    layer("image.metrics_s", "s", "lower", P50, "warm-store"),
    layer("profile.fit_s", "s", "lower", P50, "all"),
    layer("solve.select_s", "s", "lower", P50, "all (about 0)"),
    layer("bake.store.read_s", "s", "lower", P50, "warm-store"),
    layer("bake.store.bytes_read", "bytes", "lower", P50, "warm-store"),
    layer("bake.store.decode_s", "s", "lower", P50, "warm-store (~30%)"),
    layer("profile.gt_decode_s", "s", "lower", P50, "warm-store"),
    layer("bake.store.encode_s", "s", "lower", "setup_s", "warm-store"),
    layer("bake.store.write_s", "s", "lower", "setup_s", "warm-store"),
    layer("core.pipeline.fingerprint_s", "s", "lower", P50, "all"),
    layer("trace.coverage", "ratio", "higher", "n/a", "all"),
    layer("trace.overhead_s", "s", "lower", "n/a", "all"),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpRecord>,
    /// Process CPU seconds over the timed phase.
    pub cpu_s: f64,
    /// Peak resident set size of each operation (MB).
    pub peak_rss_mb: Vec<f64>,
    /// Deployed-quality SSIM of each distinct request.
    pub ssim: Vec<f64>,
    /// The traced passes (empty with tracing off).
    pub passes: Vec<Pass>,
}

impl Run {
    /// Submit → outcome latency of every completed request.
    pub fn latencies(&self) -> Vec<f64> {
        self.completed().map(|(request, _)| request.latency.as_secs_f64()).collect()
    }

    fn completed(
        &self,
    ) -> impl Iterator<Item = (&crate::workload::RequestRecord, &crate::workload::Completed)> {
        self.ops
            .iter()
            .flat_map(|op| &op.requests)
            .filter_map(|request| request.result.as_ref().ok().map(|done| (request, done)))
    }

    fn completed_count(&self) -> usize {
        self.completed().count()
    }

    /// Untraced CPU seconds per operation.
    fn cpu_s_per_op(&self) -> f64 {
        self.cpu_s / self.ops.len().max(1) as f64
    }

    /// The median over completed requests of `field`.
    fn per_request(&self, field: impl Fn(&crate::workload::Completed) -> f64) -> f64 {
        let values: Vec<f64> = self.completed().map(|(_, done)| field(done)).collect();
        median(&values).unwrap_or(0.0)
    }

    /// The median over operations of `field`.
    fn per_op(&self, field: impl Fn(&OpRecord) -> f64) -> f64 {
        let values: Vec<f64> = self.ops.iter().map(field).collect();
        median(&values).unwrap_or(0.0)
    }

    /// The median over traced passes of `field`.
    fn per_pass(&self, field: impl Fn(&Pass) -> f64) -> f64 {
        let values: Vec<f64> = self.passes.iter().map(field).collect();
        median(&values).unwrap_or(0.0)
    }

    /// Busy seconds per operation of the request-path layers, summed.
    fn traced_busy_s(pass: &Pass) -> f64 {
        REQUEST_LAYERS.iter().filter_map(|name| pass.request_layers.get(name)).map(|l| l.0).sum()
    }

    /// The value of every metric in the catalogue.
    pub fn values(&self) -> BTreeMap<&'static str, f64> {
        let mut v = BTreeMap::new();
        let secs = |d: std::time::Duration| d.as_secs_f64();
        // End to end.
        v.insert("deploy_s_p50", median(&self.latencies()).unwrap_or(0.0));
        v.insert(
            "deploys_per_s",
            self.per_op(|op| {
                op.requests.iter().filter(|r| r.result.is_ok()).count() as f64 / secs(op.wall)
            }),
        );
        v.insert("cpu_s_per_deploy", self.cpu_s / self.completed_count().max(1) as f64);
        v.insert("peak_rss_mb", median(&self.peak_rss_mb).unwrap_or(0.0));
        v.insert("setup_s", median(&self.setup_s).unwrap_or(0.0));
        v.insert("deploy_ssim", self.ssim.iter().sum::<f64>() / self.ssim.len().max(1) as f64);
        // The program's counters.
        v.insert(
            "core.pipeline.segmentation_s",
            self.per_request(|d| secs(d.timings.segmentation)),
        );
        v.insert("core.pipeline.profiling_s", self.per_request(|d| secs(d.timings.profiling)));
        v.insert("core.pipeline.selection_s", self.per_request(|d| secs(d.timings.selection)));
        v.insert("core.pipeline.baking_s", self.per_request(|d| secs(d.timings.baking)));
        v.insert("bake.cache.misses", self.per_op(|op| op.cache.misses as f64));
        v.insert(
            "bake.cache.splat_extractions",
            self.per_op(|op| op.cache.splat_extractions as f64),
        );
        v.insert("bake.cache.disk_hits", self.per_op(|op| op.cache.disk_hits as f64));
        v.insert("bake.cache.hit_ratio", self.per_op(|op| op.cache.hit_ratio()));
        v.insert("bake.store.entries_indexed", self.per_op(|op| op.cache.loaded_from_disk as f64));
        v.insert(
            "profile.ground_truth_builds",
            self.per_request(|d| d.timings.ground_truth_builds as f64),
        );
        v.insert(
            "profile.ground_truth_hits",
            self.per_request(|d| d.timings.ground_truth_hits as f64),
        );
        v.insert(
            "profile.metrics_evaluations",
            self.per_request(|d| d.timings.metrics_evaluations as f64),
        );
        v.insert("math.pool.dispatches", self.per_op(|op| op.pool.dispatches as f64));
        v.insert("math.pool.jobs", self.per_op(|op| op.pool.jobs as f64));
        v.insert(
            "core.service.shared_stage_runs",
            self.per_op(|op| op.service.shared_stage_runs as f64),
        );
        v.insert("core.service.coalesced", self.per_op(|op| op.service.coalesced as f64));
        v.insert("core.service.bake_coalesced", self.per_op(|op| op.service.bake_coalesced as f64));
        v.insert(
            "core.service.ground_truth_coalesced",
            self.per_op(|op| op.service.ground_truth_coalesced as f64),
        );
        // Waiting: latency minus the stages the request ran itself (a
        // coalesced request reuses another's segmentation and profiling).
        let waits: Vec<f64> = self
            .completed()
            .map(|(request, done)| {
                let t = &done.timings;
                let mut own = t.selection + t.baking;
                if !done.coalesced {
                    own += t.segmentation + t.profiling;
                }
                secs(request.latency) - secs(own)
            })
            .collect();
        v.insert("core.service.wait_s_p50", median(&waits).unwrap_or(0.0));
        // The traced replay.
        for name in REQUEST_LAYERS {
            v.insert(
                metric_name(name),
                self.per_pass(|p| p.request_layers.get(name).map_or(0.0, |l| l.0)),
            );
        }
        for name in SETUP_LAYERS {
            v.insert(
                metric_name(name),
                self.per_pass(|p| p.setup_layers.get(name).map_or(0.0, |l| l.0)),
            );
        }
        v.insert("bake.store.bytes_read", self.per_pass(|p| p.bytes_read));
        let cpu_per_op = self.cpu_s_per_op();
        v.insert(
            "trace.coverage",
            self.per_pass(|p| Self::traced_busy_s(p) / cpu_per_op.max(1e-9)),
        );
        v.insert("trace.overhead_s", self.per_pass(|p| p.wall_s - cpu_per_op));
        v
    }
}

/// The metric name of a layer span: busy seconds.
fn metric_name(span: &'static str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|def| def.name)
        .find(|name| name.strip_suffix("_s") == Some(span))
        .unwrap_or_else(|| panic!("layer {span} has no catalogue entry"))
}

/// Renders the final result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let value = values[def.name];
            assert!(value.is_finite(), "metric {} is not finite: {value}", def.name);
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_and_units_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), catalogue(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        let ours: Vec<String> =
            crate::workload::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        // Every catalogue metric gets a value, and nothing else does; the
        // printed line carries each with its catalogue unit.
        let values = Run::default().values();
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        assert_eq!(values.keys().copied().collect::<Vec<_>>(), names);
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = Json::parse(&result_json(true, 1, 0, defs, &values)).expect("valid JSON");
            let metrics = line.get("metrics").and_then(Json::as_object).expect("metrics");
            assert_eq!(metrics.len(), defs.len());
            for def in defs {
                let printed = &metrics.iter().find(|(k, _)| k == def.name).expect("printed").1;
                assert_eq!(printed.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(printed.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }
}
