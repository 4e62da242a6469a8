//! The repository's benchmark: three fixed-shape workloads, timed end to end
//! with tracing off, and per layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <torus-1m|ensemble-torus|serve-mix> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input (engine seed, replica seeds, job mix) is generated from `--seed`.
//! The run prints a context line (seed, `nproc`, `PP_RUNNER_CLASS`, git
//! revision), a table of every metric with its unit, and, as the last line
//! of standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the span file. See `perfbench/README.md`.

mod checks;
mod ensemble;
mod serve_mix;
mod stats;
mod torus;
mod trace;

use pp_obs::json::quote;
use stats::Report;
use std::path::PathBuf;
use trace::{Open, Tracer};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not touch did no work there and reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("graph.build_s", "s"),
        ("graph.cut_frac", "fraction"),
        ("engine.new_s", "s"),
        ("engine.run_s", "s"),
        ("engine.run_calls", "count"),
        ("engine.run_call_p50_ms", "ms"),
        ("engine.run_call_p99_ms", "ms"),
        ("engine.observe_s", "s"),
        ("sharded.p1_steps_per_s", "1/s"),
        ("sharded.p2_over_p1", "ratio"),
        ("sharded.short_call_ns_per_step", "ns"),
        ("sharded.long_call_ns_per_step", "ns"),
        ("vec.group_s", "s"),
        ("vec.group_skew_s", "s"),
        ("vec.turbo_replica_steps_per_s", "1/s"),
        ("dense.run_s", "s"),
        ("dense.leap_batches", "count"),
        ("dense.exact_events", "count"),
        ("dense.one_call_run_s", "s"),
        ("dense.one_call_leap_batches", "count"),
        ("dense.one_call_exact_events", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for tier in serve_mix::TIERS.iter().map(|t| t.engine) {
        names.push((format!("engine.save_snapshot_ms.{tier}"), "ms"));
        names.push((format!("engine.restore_snapshot_ms.{tier}"), "ms"));
        names.push((format!("snapshot.bytes.{tier}"), "bytes"));
        names.push((format!("serve.snapshot_render_us.{tier}"), "us"));
        names.push((format!("serve.snapshot_parse_us.{tier}"), "us"));
    }
    for (n, u) in [
        ("serve.parse_us", "us"),
        ("serve.queue_wait_p90_ms", "ms"),
        ("serve.snapshot_s", "s"),
        ("serve.resume_s", "s"),
        ("serve.slices", "count"),
        ("serve.steps_per_slice", "steps"),
        ("serve.events_per_job", "count"),
        ("serve.event_bytes_per_job", "bytes"),
        ("serve.overshoot_steps", "steps"),
        ("trace.wall_s", "s"),
        ("trace.self_s.bench", "s"),
        ("trace.self_s.engine", "s"),
        ("trace.self_s.vec", "s"),
        ("trace.self_s.serve", "s"),
        ("trace.steps_per_s", "1/s"),
        ("trace.overhead_steps_per_s", "1/s"),
        ("trace.spans", "count"),
        ("job.samples", "count"),
        ("diversity_error", "fraction"),
        ("failed_frac", "fraction"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// What a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files and scratch files go: `<cargo target dir>/perfbench-out`.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <torus-1m|ensemble-torus|serve-mix> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<(String, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed `{value}`: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds `{value}`: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((
        workload.ok_or("missing --workload")?,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.ok_or("missing --trace")?,
    ))
}

/// Trace files and scratch files live next to the build, under the cargo
/// target directory (`<target>/release/perfbench` → `<target>/perfbench-out`).
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .and_then(|release| release.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("perfbench-out")
}

/// The checkout's git revision, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// The common tail of every traced run: the timed phase's wall clock and
/// its split into layer self times (the `bench` remainder is the
/// benchmark's own time), the traced rate and the tracing overhead against
/// the untraced phase, and the job sample count.
pub fn trace_summary(
    report: &mut Report,
    tr: &Tracer,
    timed_root: Open,
    traced_rate: f64,
    untraced_rate: f64,
    jobs: usize,
) {
    let self_times = tr.self_times(timed_root);
    report.layer("trace.wall_s", self_times.values().sum(), "s");
    for (layer, self_s) in self_times {
        report.layer(&format!("trace.self_s.{layer}"), self_s, "s");
    }
    report.layer("trace.steps_per_s", traced_rate, "1/s");
    report.layer(
        "trace.overhead_steps_per_s",
        traced_rate - untraced_rate,
        "1/s",
    );
    report.layer("job.samples", jobs as f64, "count");
}

/// Writes the span file of a traced run and counts its spans.
pub fn finish_trace(ctx: &Ctx, tr: &Tracer, report: &mut Report) {
    if !ctx.trace {
        return;
    }
    report.layer("trace.spans", tr.len() as f64, "count");
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    match tr.write_chrome(
        &path,
        &format!("perfbench {} seed {}", ctx.workload, ctx.seed),
    ) {
        Ok(()) => report.trace_file = Some(path.display().to_string()),
        Err(e) => eprintln!("perfbench: cannot write trace {}: {e}", path.display()),
    }
}

fn number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    format!("{x}")
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let report = match ctx.workload.as_str() {
        "torus-1m" => torus::torus_1m(&ctx),
        "ensemble-torus" => ensemble::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if ctx.trace {
        let mut layer = report.per_layer.clone();
        layer.push(stats::Metric {
            name: "failed_frac".into(),
            value: report.checks.failed_frac(),
            unit: "fraction",
        });
        let names = per_layer_names();
        for m in &layer {
            assert!(
                names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "per-layer metric {} ({}) is not in the published list",
                m.name,
                m.unit
            );
        }
        for (name, unit) in names {
            let value = layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metrics.push((name, value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let m = report
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            assert_eq!(m.unit, unit, "unit of {name}");
            metrics.push((name.to_string(), m.value, unit));
        }
    }

    let runner_class = std::env::var("PP_RUNNER_CLASS")
        .ok()
        .map_or("null".to_string(), |v| quote(&v));
    let git = git_revision().map_or("null".to_string(), |v| quote(&v));
    println!(
        "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"pool_threads\":{},\"runner_class\":{runner_class},\"git_revision\":{git},\"trace_file\":{}}}}}",
        quote(&ctx.workload),
        ctx.seed,
        number(ctx.seconds),
        ctx.trace,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        pp_engine::pool::parallelism(),
        report
            .trace_file
            .as_deref()
            .map_or("null".to_string(), quote),
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
    if let Some(f) = &report.checks.first_failure {
        eprintln!("perfbench: check failed: {f}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.checks.failed == 0 && report.checks.attempted > 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        fields.join(",")
    );
}
