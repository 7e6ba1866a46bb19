//! The NeRFlex deploy benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-scene|warm-store|service-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run: set-up (repeated, `setup_s` is the median), a timed phase that
//! runs whole operations until `--seconds` have passed, a check of every
//! output against a sequential recompute, and with `--trace 1` a traced
//! replay of every distinct request. Human-readable lines come first; the
//! last line of standard output is the JSON result. Scratch files live
//! under `.perfbench/` in the working directory.

mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod json;

use metrics::{result_json, MetricDef, Run, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{OpRecord, Reference, Workload};

const USAGE: &str = "usage: perfbench --workload <cold-scene|warm-store|service-burst> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Traced passes per run; the per-layer values are their medians.
const TRACE_PASSES: usize = 3;

/// Set-up runs at least this many times, and until [`SETUP_MIN_TOTAL`] has
/// accumulated; `setup_s` is the median. Input generation takes tens of
/// milliseconds, so one set-up would sample a single moment of the
/// machine's speed; store population takes seconds.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Requests attempted and failed in the timed phase, and why each failed.
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Checks every timed request against the sequential reference of its
/// distinct request: an error outcome, a failed reference or a fingerprint
/// mismatch fails it.
pub fn tally(
    ops: &[OpRecord],
    references: &HashMap<(usize, u64), Result<Reference, String>>,
) -> Tally {
    let mut tally = Tally { attempted: 0, failed: 0, problems: Vec::new() };
    for request in ops.iter().flat_map(|op| &op.requests) {
        tally.attempted += 1;
        let problem = match (&request.result, references.get(&request.spec.key())) {
            (Err(err), _) => Some(format!("error outcome: {err}")),
            (Ok(_), None) => Some("no reference result".to_string()),
            (Ok(_), Some(Err(err))) => Some(format!("reference failed: {err}")),
            (Ok(done), Some(Ok(reference))) => {
                let expected = reference.completed.fingerprint;
                (done.fingerprint != expected).then(|| {
                    format!("fingerprint {:016x} != sequential {expected:016x}", done.fingerprint)
                })
            }
        };
        if let Some(problem) = problem {
            tally.failed += 1;
            let spec = request.spec;
            tally.problems.push(format!(
                "request (content {}, {} MB): {problem}",
                spec.content, spec.budget_mb
            ));
        }
    }
    tally
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Worker counts are passed explicitly; the program's own auto widths
    // (the shared pool's size, the splat compositor's default) must resolve
    // from the machine, not from an override left in the environment. Still
    // single-threaded here, so changing the environment is sound.
    std::env::remove_var("NERFLEX_WORKERS");
    let work_dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(err) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {err}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// One benchmark run; returns the JSON result line.
fn run(args: &Args, work_dir: &std::path::Path) -> Result<String, String> {
    let workload = args.workload;
    let io = |err: std::io::Error| err.to_string();
    let (executors, workers) = workload.split();
    // Spawn the process-wide pool before anything is timed.
    let _ = nerflex_math::WorkerPool::shared();

    let mut run = Run::default();
    let mut inputs = None;
    let setups_started = Instant::now();
    while run.setup_s.len() < SETUP_MIN_REPEATS || setups_started.elapsed() < SETUP_MIN_TOTAL {
        let started = Instant::now();
        inputs = Some(workload::setup(workload, args.seed, &work_dir.join("store")));
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let options = workload::service_options(workload, &inputs);

    let cpu_before = probe::process_cpu_s().map_err(io)?;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget {
        probe::release_free_memory();
        probe::reset_peak_rss().map_err(io)?;
        run.ops.push(workload::run_op(workload, &inputs, run.ops.len(), options.clone()));
        run.peak_rss_mb.push(probe::peak_rss_mb().map_err(io)?);
    }
    run.cpu_s = probe::process_cpu_s().map_err(io)? - cpu_before;

    // Outside timing: the sequential reference, the check, deployed quality.
    let references = workload::references(workload, &inputs.contents);
    let tally = tally(&run.ops, &references);
    for spec in workload.distinct_requests() {
        if let Some(Ok(reference)) = references.get(&spec.key()) {
            let content = &inputs.contents[spec.content];
            let (ssim, _, _) = nerflex_core::evaluation::quality_against_dataset(
                &reference.assets,
                &content.scene,
                &content.dataset,
            );
            run.ssim.push(ssim);
        }
    }

    let mut faithful = true;
    if args.trace {
        // The replay must match what the service produced: the first
        // completed timed result per distinct request, or the sequential
        // reference for a request the timed phase never reached.
        let mut first_completed = HashMap::new();
        for request in run.ops.iter().flat_map(|op| &op.requests) {
            if let Ok(done) = &request.result {
                first_completed.entry(request.spec.key()).or_insert(done);
            }
        }
        for (key, reference) in &references {
            if let Ok(reference) = reference {
                first_completed.entry(*key).or_insert(&reference.completed);
            }
        }
        let mut tracer = trace::Tracer::new();
        for _ in 0..TRACE_PASSES {
            let pass = trace::pass(workload, &inputs, &first_completed, &mut tracer, work_dir);
            for mismatch in &pass.mismatches {
                println!("replay mismatch: {mismatch}");
            }
            faithful &= pass.mismatches.is_empty();
            run.passes.push(pass);
        }
        let path = PathBuf::from(".perfbench").join(format!(
            "trace-{}-seed{}.json",
            workload.name(),
            args.seed
        ));
        tracer.write_chrome_trace(&path).map_err(io)?;
        println!("spans: {} written to {}", tracer.len(), path.display());
    }

    let values = run.values();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {} seconds {} trace {}: available_parallelism {parallelism}, \
         {executors} executors (0 = inline) x {workers} pipeline workers",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    for problem in &tally.problems {
        println!("failed: {problem}");
    }
    print_end_to_end(&run, &values);
    if args.trace {
        print_per_layer(&run, &values);
    }
    let correct = tally.failed == 0 && faithful;
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok(result_json(correct, tally.attempted, tally.failed, defs, &values))
}

fn print_end_to_end(run: &Run, values: &std::collections::BTreeMap<&'static str, f64>) {
    let latencies = run.latencies();
    let samples = |name: &str| match name {
        "deploy_s_p50" => format!("{} requests", latencies.len()),
        "deploys_per_s" => format!("{} operations", run.ops.len()),
        "cpu_s_per_deploy" => format!("{:.2} CPU-s over {} requests", run.cpu_s, latencies.len()),
        "setup_s" => format!("{} set-ups", run.setup_s.len()),
        "deploy_ssim" => format!("{} distinct requests", run.ssim.len()),
        "peak_rss_mb" => format!("median of {} operations", run.peak_rss_mb.len()),
        _ => String::new(),
    };
    for def in &END_TO_END {
        println!(
            "{:<18} {:>12.6} {:<5} {:<6} ({})",
            def.name,
            values[def.name],
            def.unit,
            def.better,
            samples(def.name)
        );
    }
    match stats::percentile(&latencies, 90.0) {
        Some(p90) => {
            println!("{:<18} {p90:>12.6} s     ({} requests)", "deploy_s_p90", latencies.len())
        }
        None => println!(
            "deploy_s_p90: not reported: {} requests leave fewer than {} beyond p90",
            latencies.len(),
            stats::MIN_TAIL_SAMPLES
        ),
    }
}

fn print_per_layer(run: &Run, values: &std::collections::BTreeMap<&'static str, f64>) {
    println!(
        "per-layer (counters: median per request or operation over {} operations; traced: \
         median of {} passes, per operation; trace.coverage {:.3})",
        run.ops.len(),
        run.passes.len(),
        values["trace.coverage"],
    );
    println!(
        "{:<38} {:>14} {:<6} {:<6} {:>9}  should move / on",
        "metric", "value", "unit", "better", "calls/op"
    );
    for def in &PER_LAYER {
        let span = def.name.strip_suffix("_s").unwrap_or(def.name);
        let calls: Vec<f64> = run
            .passes
            .iter()
            .filter_map(|p| p.request_layers.get(span).or_else(|| p.setup_layers.get(span)))
            .map(|l| l.1)
            .collect();
        let calls = stats::median(&calls).map_or(String::new(), |c| format!("{c:.1}"));
        println!(
            "{:<38} {:>14.6} {:<6} {:<6} {:>9}  {} / {}",
            def.name, values[def.name], def.unit, def.better, calls, def.moves, def.on
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let ok =
            parse(&["--workload", "warm-store", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .expect("valid arguments");
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::WarmStore, 7, 3, true));
        assert!(parse(&["--workload", "warm-store", "--seed", "7", "--seconds", "3"]).is_err());
        assert!(
            parse(&["--workload", "hot", "--seed", "7", "--seconds", "3", "--trace", "0"]).is_err()
        );
        assert!(parse(&[
            "--workload",
            "cold-scene",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "cold-scene",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
