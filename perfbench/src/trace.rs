//! The traced run. The benchmark replays each distinct request's layer calls
//! itself, on one thread and in pipeline order — segmentation, then per
//! object the ground truth, the sample bakes, the probe renders and their
//! metrics and the curve fit, then selection, the final bakes and the
//! deployment fingerprint — wrapping every call into a layer's public
//! function in a span. The replay must reproduce the service's
//! `deployment_fingerprint` and every sample measurement bit for bit, so
//! its spans account for the work the service really did.

use crate::workload::{Completed, Content, Inputs, RequestSpec, Workload};
use nerflex_bake::disk::{decode_entry, deployment_fingerprint, encode_entry, entry_file_name};
use nerflex_bake::store::EntryCodec;
use nerflex_bake::{
    model_fingerprint, BakeConfig, BakeFamily, BakedAsset, DirBackend, Placement, QuadMesh,
    SplatCloud, StoreBackend, TextureAtlas, VoxelGrid,
};
use nerflex_core::pipeline::PipelineOptions;
use nerflex_image::{metrics, MetricsScratch};
use nerflex_profile::ground_truth::GtEntryCodec;
use nerflex_profile::measurement::{Measurement, MeasurementSettings, ObjectGroundTruth};
use nerflex_profile::profiler::build_profile_from_measurements;
use nerflex_profile::{sample_configurations, splat_sample_configurations, ObjectProfile};
use nerflex_render::{render_assets, RenderOptions};
use nerflex_scene::object::ObjectModel;
use nerflex_scene::scene::PlacedObject;
use nerflex_seg::segment;
use nerflex_solve::SelectionProblem;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers on a request's path, as span names. A layer's metric is its
/// name plus `_s`: busy seconds per operation.
pub const REQUEST_LAYERS: [&str; 16] = [
    "seg.segment",
    "scene.raymarch",
    "bake.voxelise",
    "bake.mesh_extract",
    "bake.atlas",
    "bake.splat_extract",
    "bake.cache.key",
    "render.raster",
    "render.splat",
    "image.metrics",
    "profile.fit",
    "solve.select",
    "bake.store.read",
    "bake.store.decode",
    "profile.gt_decode",
    "core.pipeline.fingerprint",
];

/// The layers of the warm-store set-up's store population, reported per
/// population.
pub const SETUP_LAYERS: [&str; 2] = ["bake.store.encode", "bake.store.write"];

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("a span is open");
        self.spans[idx].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Tags the spans opened from now on with a new request id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Busy (self) time and call count per span name over
    /// `spans[from..to]`: a span's self time is its duration minus the
    /// durations of its children.
    pub fn layers(&self, from: usize, to: usize) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut child_time = vec![Duration::ZERO; to - from];
        for span in &self.spans[from..to] {
            if let Some(parent) = span.parent.filter(|&p| p >= from) {
                child_time[parent - from] += span.end - span.start;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans[from..to].iter().zip(child_time) {
            let entry = layers.entry(span.name).or_insert((Duration::ZERO, 0));
            entry.0 += (span.end - span.start).saturating_sub(children);
            entry.1 += 1;
        }
        layers
    }

    /// Writes every span as Chrome trace-event JSON (viewable in Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (idx, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"span\":{idx},\"parent\":{parent},\"request\":{}}}}}",
                if idx == 0 { "" } else { ",\n" },
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.request,
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Where the replay's assets and ground truths come from.
enum Source {
    /// Built from scratch, as a cold in-memory store does.
    Build,
    /// Read from the populated on-disk store (bake entries and its
    /// `ground-truth/` child).
    Store { bake: DirBackend, ground_truth: DirBackend },
}

/// A store entry the replay read, kept for re-encoding.
enum ReadEntry {
    Bake { fingerprint: u64, bytes: Vec<u8>, asset: Arc<BakedAsset> },
    GroundTruth { key: (u64, usize, usize), bytes: Vec<u8>, value: Arc<ObjectGroundTruth> },
}

/// The in-memory half of a service's stores during a replayed operation:
/// content-keyed bakes and ground truths, like `BakeCache` and
/// `GroundTruthCache`.
#[derive(Default)]
struct Memo {
    assets: HashMap<(u64, BakeConfig), Arc<BakedAsset>>,
    ground_truths: HashMap<u64, Arc<ObjectGroundTruth>>,
}

/// Replays requests against one [`Source`].
struct Replayer<'a> {
    options: &'a PipelineOptions,
    source: Source,
    tracer: &'a mut Tracer,
    memo: Memo,
    scratch: MetricsScratch,
    bytes_read: u64,
    read: BTreeMap<String, ReadEntry>,
    /// Profiles per content already built in this operation: requests for
    /// the same content share one segmentation + profiling run, as the
    /// service's scene-level coalescing shares it.
    shared: HashMap<usize, Arc<Vec<ObjectProfile>>>,
}

/// The replayed output of one request.
struct Replayed {
    fingerprint: u64,
    profiles: Arc<Vec<ObjectProfile>>,
}

impl Replayer<'_> {
    fn request(&mut self, content: &Content, spec: RequestSpec) -> Replayed {
        self.tracer.next_request();
        self.tracer.begin("request");
        let options = self.options;
        let profiles = match self.shared.get(&spec.content) {
            Some(profiles) => Arc::clone(profiles),
            None => {
                let _segmentation = self
                    .tracer
                    .span("seg.segment", || segment(&content.dataset, &options.segmentation));
                let profiles: Arc<Vec<ObjectProfile>> = Arc::new(
                    content.scene.objects().iter().map(|object| self.profile(object)).collect(),
                );
                self.shared.insert(spec.content, Arc::clone(&profiles));
                profiles
            }
        };
        let selection = self.tracer.span("solve.select", || {
            let problem =
                SelectionProblem::from_profiles(&profiles, &options.space, spec.budget_mb);
            options.selector.select(&problem)
        });
        let assets: Vec<BakedAsset> = content
            .scene
            .objects()
            .iter()
            .map(|object| {
                let config = selection
                    .assignment_for(object.id)
                    .map(|a| a.config)
                    .unwrap_or(BakeConfig::MOBILENERF_DEFAULT.clamped());
                self.placed_asset(object, config)
            })
            .collect();
        let fingerprint =
            self.tracer.span("core.pipeline.fingerprint", || deployment_fingerprint(&assets));
        self.tracer.end();
        Replayed { fingerprint, profiles }
    }

    /// One object's profile, as the batched measurement builds it: ground
    /// truth, every sample bake, then the (configuration × view) renders
    /// scored against the ground truth and folded per configuration in
    /// view order.
    fn profile(&mut self, object: &PlacedObject) -> ObjectProfile {
        self.tracer.begin("profile.object");
        let settings = self.options.profiler.measurement;
        let ground_truth = self.ground_truth(&object.model, &settings);
        let probe = &ground_truth.scene.objects()[0];
        let mut configs = sample_configurations(&self.options.profiler.range);
        configs.extend(splat_sample_configurations(&self.options.profiler.splats));
        let assets: Vec<BakedAsset> =
            configs.iter().map(|&config| self.placed_asset(probe, config)).collect();
        let resolution = ground_truth.resolution;
        let mut samples = Vec::with_capacity(assets.len());
        for asset in &assets {
            let layer = if asset.splats.is_some() { "render.splat" } else { "render.raster" };
            let mut ssim_sum = 0.0;
            for (pose, truth) in ground_truth.poses.iter().zip(&ground_truth.images) {
                let (image, _) = self.tracer.span(layer, || {
                    render_assets(
                        std::slice::from_ref(asset),
                        pose,
                        resolution,
                        resolution,
                        &RenderOptions::default(),
                    )
                });
                let scratch = &mut self.scratch;
                ssim_sum += self.tracer.span("image.metrics", || {
                    metrics::quality_metrics_scratch(truth, &image, settings.lane_width, scratch)
                        .ssim
                });
            }
            samples.push(Measurement {
                config: asset.config,
                size_mb: asset.size_mb(),
                ssim: ssim_sum / ground_truth.poses.len() as f64,
                quad_count: asset.primitive_count(),
            });
        }
        let profile = self.tracer.span("profile.fit", || {
            build_profile_from_measurements(&object.model, object.id, samples)
        });
        self.tracer.end();
        profile
    }

    fn ground_truth(
        &mut self,
        model: &ObjectModel,
        settings: &MeasurementSettings,
    ) -> Arc<ObjectGroundTruth> {
        let fingerprint = self.tracer.span("bake.cache.key", || model_fingerprint(model));
        if let Some(hit) = self.memo.ground_truths.get(&fingerprint) {
            return Arc::clone(hit);
        }
        let value = match &self.source {
            Source::Build => Arc::new(
                self.tracer.span("scene.raymarch", || ObjectGroundTruth::build(model, settings)),
            ),
            Source::Store { ground_truth, .. } => {
                let key = (fingerprint, settings.views, settings.resolution);
                let name = GtEntryCodec::file_name(&key);
                let bytes = self
                    .tracer
                    .span("bake.store.read", || ground_truth.read(&name))
                    .unwrap_or_else(|err| panic!("ground-truth entry {name}: {err}"));
                self.bytes_read += bytes.len() as u64;
                let value = self
                    .tracer
                    .span("profile.gt_decode", || {
                        GtEntryCodec::decode(&key, &bytes, (model, settings))
                    })
                    .unwrap_or_else(|| panic!("ground-truth entry {name} does not decode"));
                self.read.entry(name).or_insert(ReadEntry::GroundTruth {
                    key,
                    bytes,
                    value: Arc::clone(&value),
                });
                value
            }
        };
        self.memo.ground_truths.insert(fingerprint, Arc::clone(&value));
        value
    }

    /// The asset for `(object, config)` with the object's placement and id
    /// stamped on, as `BakeCache::get_or_bake_placed` returns it.
    fn placed_asset(&mut self, object: &PlacedObject, config: BakeConfig) -> BakedAsset {
        let fingerprint = self.tracer.span("bake.cache.key", || model_fingerprint(&object.model));
        let shared = match self.memo.assets.get(&(fingerprint, config)) {
            Some(hit) => Arc::clone(hit),
            None => {
                let asset = self.local_asset(&object.model, fingerprint, config);
                self.memo.assets.insert((fingerprint, config), Arc::clone(&asset));
                asset
            }
        };
        let mut asset = (*shared).clone();
        asset.object_id = object.id;
        asset.placement = Placement {
            translation: object.translation,
            scale: object.scale,
            rotation_y: object.rotation_y,
        };
        asset
    }

    fn local_asset(
        &mut self,
        model: &ObjectModel,
        fingerprint: u64,
        config: BakeConfig,
    ) -> Arc<BakedAsset> {
        match &self.source {
            Source::Build => Arc::new(bake_local(self.tracer, model, config)),
            Source::Store { bake, .. } => {
                let name = entry_file_name(fingerprint, config);
                let bytes = self
                    .tracer
                    .span("bake.store.read", || bake.read(&name))
                    .unwrap_or_else(|err| panic!("bake entry {name}: {err}"));
                self.bytes_read += bytes.len() as u64;
                let (_, _, asset) = self
                    .tracer
                    .span("bake.store.decode", || decode_entry(&bytes))
                    .unwrap_or_else(|err| panic!("bake entry {name}: {err}"));
                self.read.entry(name).or_insert(ReadEntry::Bake {
                    fingerprint,
                    bytes,
                    asset: Arc::clone(&asset),
                });
                asset
            }
        }
    }
}

/// Bakes one local-frame asset through the layer functions, exactly as
/// `nerflex_bake::bake_object` composes them.
fn bake_local(tracer: &mut Tracer, model: &ObjectModel, config: BakeConfig) -> BakedAsset {
    if let BakeFamily::Splat { .. } = config.family {
        let cloud = tracer.span("bake.splat_extract", || SplatCloud::extract(model, config));
        return BakedAsset {
            name: model.name.clone(),
            object_id: 0,
            config,
            mesh: Arc::new(QuadMesh::default()),
            atlas: Arc::new(TextureAtlas::from_raw(config.patch, 0, vec![])),
            mlp: None,
            splats: Some(Arc::new(cloud)),
            placement: Placement::default(),
        };
    }
    let grid = tracer.span("bake.voxelise", || VoxelGrid::from_sdf(&model.sdf, config.grid));
    let mesh = tracer.span("bake.mesh_extract", || QuadMesh::extract(&grid, &model.sdf));
    let cell = grid.cell_size().max_component().max(1e-6);
    let cutoff = 0.5 * config.patch as f32 / cell;
    let atlas = tracer
        .span("bake.atlas", || TextureAtlas::bake(&mesh, &model.appearance, config.patch, cutoff));
    BakedAsset {
        name: model.name.clone(),
        object_id: 0,
        config,
        mesh: Arc::new(mesh),
        atlas: Arc::new(atlas),
        mlp: None,
        splats: None,
        placement: Placement::default(),
    }
}

/// Per-layer results of one traced pass over a workload's distinct
/// requests.
pub struct Pass {
    /// Busy seconds and calls per operation, per request-path layer.
    pub request_layers: BTreeMap<&'static str, (f64, f64)>,
    /// Busy seconds and calls per store population, per set-up layer.
    pub setup_layers: BTreeMap<&'static str, (f64, f64)>,
    /// Store bytes read per operation.
    pub bytes_read: f64,
    /// Replay wall time per operation.
    pub wall_s: f64,
    /// Ways the replay diverged from the service; empty when faithful.
    pub mismatches: Vec<String>,
}

/// One traced pass: replays every distinct request of `workload` the way
/// the timed phase ran it, and checks the replay against the first
/// completed service result for each request (`measured`).
pub fn pass(
    workload: Workload,
    inputs: &Inputs,
    measured: &HashMap<(usize, u64), &Completed>,
    tracer: &mut Tracer,
    scratch_dir: &Path,
) -> Pass {
    let options = crate::workload::pipeline_options(1);
    let source = || match &inputs.store {
        Some(dir) => Source::Store {
            bake: DirBackend::create(dir, nerflex_bake::disk::ENTRY_EXTENSION)
                .expect("open the bake store"),
            ground_truth: DirBackend::create(
                dir.join("ground-truth"),
                nerflex_profile::ground_truth::GT_EXTENSION,
            )
            .expect("open the ground-truth store"),
        },
        None => Source::Build,
    };
    // Operations as the timed phase groups them: a closed-loop request
    // per fresh service, or one burst sharing one service's stores.
    let ops: Vec<Vec<RequestSpec>> = match workload {
        Workload::ServiceBurst => vec![workload.distinct_requests()],
        Workload::ColdScene | Workload::WarmStore => {
            workload.distinct_requests().into_iter().map(|spec| vec![spec]).collect()
        }
    };
    let mut mismatches = Vec::new();
    let mut bytes_read = 0;
    let mut read = BTreeMap::new();
    let first = tracer.len();
    let started = Instant::now();
    for op in &ops {
        // A fresh replayer per operation: each operation runs on a fresh
        // service with fresh in-memory stores.
        let mut replayer = Replayer {
            options: &options,
            source: source(),
            tracer: &mut *tracer,
            memo: Memo::default(),
            scratch: MetricsScratch::new(),
            bytes_read: 0,
            read: BTreeMap::new(),
            shared: HashMap::new(),
        };
        for &spec in op {
            let replayed = replayer.request(&inputs.contents[spec.content], spec);
            compare(spec, &replayed, measured.get(&spec.key()).copied(), &mut mismatches);
        }
        bytes_read += replayer.bytes_read;
        read.append(&mut replayer.read);
    }
    let wall = started.elapsed();
    let requests_end = tracer.len();
    // Set-up's store population, replayed from the entries the requests
    // read: each re-encodes to the very bytes it was read from.
    if !read.is_empty() {
        let bake_dir = scratch_dir.join("replay-store");
        let bake = DirBackend::create(&bake_dir, nerflex_bake::disk::ENTRY_EXTENSION)
            .expect("create the replay store");
        let ground_truth = DirBackend::create(
            bake_dir.join("ground-truth"),
            nerflex_profile::ground_truth::GT_EXTENSION,
        )
        .expect("create the replay ground-truth store");
        tracer.next_request();
        tracer.begin("store.populate");
        for (name, entry) in &read {
            let (encoded, original, backend) = match entry {
                ReadEntry::Bake { fingerprint, bytes, asset } => (
                    tracer.span("bake.store.encode", || encode_entry(*fingerprint, asset)),
                    bytes,
                    &bake,
                ),
                ReadEntry::GroundTruth { key, bytes, value } => (
                    tracer.span("bake.store.encode", || GtEntryCodec::encode(key, value)),
                    bytes,
                    &ground_truth,
                ),
            };
            if &encoded != original {
                mismatches.push(format!("store entry {name} re-encodes to different bytes"));
            }
            tracer
                .span("bake.store.write", || backend.write_atomic(name, &encoded))
                .unwrap_or_else(|err| panic!("replay store write of {name}: {err}"));
        }
        tracer.end();
        let _ = std::fs::remove_dir_all(&bake_dir);
    }
    let per_op = |layers: BTreeMap<&'static str, (Duration, u64)>, ops: f64| {
        layers
            .into_iter()
            .map(|(name, (busy, calls))| (name, (busy.as_secs_f64() / ops, calls as f64 / ops)))
            .collect::<BTreeMap<_, _>>()
    };
    Pass {
        request_layers: per_op(tracer.layers(first, requests_end), ops.len() as f64),
        setup_layers: per_op(tracer.layers(requests_end, tracer.len()), 1.0),
        bytes_read: bytes_read as f64 / ops.len() as f64,
        wall_s: wall.as_secs_f64() / ops.len() as f64,
        mismatches,
    }
}

/// Checks one replayed request against the service's result: the
/// deployment fingerprint and every sample measurement, bit for bit.
fn compare(
    spec: RequestSpec,
    replayed: &Replayed,
    measured: Option<&Completed>,
    mismatches: &mut Vec<String>,
) {
    let label = format!("request (content {}, {} MB)", spec.content, spec.budget_mb);
    let Some(measured) = measured else {
        mismatches.push(format!("{label}: no service result to compare with"));
        return;
    };
    if replayed.fingerprint != measured.fingerprint {
        mismatches.push(format!(
            "{label}: replay fingerprint {:016x} != service {:016x}",
            replayed.fingerprint, measured.fingerprint
        ));
    }
    let bits = |m: &Measurement| (m.config, m.size_mb.to_bits(), m.ssim.to_bits(), m.quad_count);
    for (object, (replay, service)) in
        replayed.profiles.iter().zip(measured.profiles.iter()).enumerate()
    {
        let same = replay.samples.len() == service.samples.len()
            && replay.samples.iter().zip(&service.samples).all(|(a, b)| bits(a) == bits(b));
        if !same {
            mismatches.push(format!("{label}: object {object} sample measurements differ"));
        }
    }
    if replayed.profiles.len() != measured.profiles.len() {
        mismatches.push(format!("{label}: profile count differs"));
    }
}
