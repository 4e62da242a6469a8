//! `torus-1m`: one Diversification trajectory on the 1000×1000 torus
//! (`n = 10⁶`) on the sharded tier at its default layout, driven in
//! `n`-step `Engine::run` calls with a `class_counts` check after each call.
//!
//! The torus cuts about 0.1% of its edges between shards, so cross-shard
//! work is small: the step kernel and the per-call `class_counts` tally
//! (about 40% of the timed wall) bound it. A "job" is five parallel rounds
//! — `n`-step calls, each with its observation and check — about 0.08 s, so
//! a run holds hundreds of them.

use crate::checks::{self, Checks};
use crate::stats::{self, median, quantile, Blocks, Job, Pool, Report};
use crate::trace::{Open, Tracer};
use crate::Ctx;
use pp_core::{init, Diversification, Weights};
use pp_engine::{Engine, ShardedSimulator};
use pp_graph::{Csr, Torus2d};
use std::time::Instant;

/// Population of the workload.
pub const N: usize = 1_000_000;

/// Set-ups per run; `setup_s` is their median. Each takes ~10 ms, and its
/// page faults vary, so many repeats keep the median steady.
const SETUP_REPEATS: usize = 41;

/// `n`-step calls per job.
const JOB_ROUNDS: u64 = 5;

/// Blocks the end-to-end figures are taken from: every call synchronises
/// the two shards many times, so bursts of outside load lengthen the job
/// tail wherever they land.
const POOL: Pool = Pool::Fastest;

/// Diversity band after the horizon (hundreds of rounds): the balanced
/// start sits 0.25 from the fair shares.
const BAND: f64 = 0.05;

/// Steps per call in the short-call probe: the `pp-serve` slice quantum.
const SHORT_CALL: u64 = pp_serve::server::DEFAULT_QUANTUM;

/// Wall-clock budget of each traced-run probe (thread scaling, call
/// length); every probe also runs at least three rounds.
const PROBE_SECONDS: f64 = 2.0;

type Sim = ShardedSimulator<Diversification, Torus2d, u8>;

/// The weights `(1, 1, 2, 4)` every workload runs.
pub fn weights() -> Weights {
    pp_bench::runner::standard_weights()
}

/// One timed phase's tally.
struct Phase {
    jobs: Vec<Job>,
    root: Open,
}

pub fn torus_1m(ctx: &Ctx) -> Report {
    let weights = weights();
    let k = weights.len();
    let mut tr = Tracer::new(ctx.trace);
    let mut report = Report::default();

    // Set-up, repeated: graph, initial states, engine. The last engine is
    // the one timed.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut built: Option<Sim> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let root = tr.begin("bench.setup", None);
        let s = tr.begin("graph.build", None);
        let graph = Torus2d::new(1000, 1000);
        tr.end(s);
        let s = tr.begin("core.init", None);
        let states = init::all_dark_balanced(N, &weights);
        tr.end(s);
        let s = tr.begin("engine.new", None);
        let sim = Sim::new(
            Diversification::new(weights.clone()),
            graph,
            &states,
            ctx.seed,
        );
        tr.end(s);
        tr.end(root);
        setup.push(t0.elapsed().as_secs_f64());
        built = Some(sim);
    }
    let mut sim = built.expect("at least one set-up");

    let mut checks = Checks::default();
    let untraced = ctx.trace.then(|| {
        tr.set_on(false);
        let p = timed(&mut sim, ctx.seconds, &mut tr, &mut checks, k);
        tr.set_on(true);
        p
    });
    let phase = timed(&mut sim, ctx.seconds, &mut tr, &mut checks, k);

    // After the horizon: diversity within the band, plus the negative
    // control on the same counts.
    let counts = Engine::class_counts(&sim);
    checks.record(checks::diversity(&counts, &weights, BAND));
    checks.expect_rejected(
        "class counts with one agent deleted",
        checks::population(&checks::tampered(&counts), N as u64, k),
    );

    let e2e = untraced.as_ref().unwrap_or(&phase);
    let e2e_blocks = Blocks::of(&e2e.jobs, POOL);
    report.e2e("setup_s", median(&setup), "s");
    report.e2e("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    e2e_blocks.report(&mut report);

    if ctx.trace {
        let probe = tr.begin("bench.probe", None);
        let (p1, p2) = thread_scaling(&mut sim, &mut tr, &mut checks, k);
        let (short, long) = call_length(&mut sim, &mut tr, &mut checks, k);
        let s = tr.begin("graph.cut_frac", None);
        let cut = sim
            .partition()
            .cross_edge_fraction(&Csr::from_topology(sim.topology()));
        tr.end(s);
        tr.end(probe);

        let run_ms: Vec<f64> = tr.durations("engine.run").iter().map(|d| d * 1e3).collect();
        report.layer("graph.build_s", median(&tr.durations("graph.build")), "s");
        report.layer("graph.cut_frac", cut, "fraction");
        report.layer("engine.new_s", median(&tr.durations("engine.new")), "s");
        report.layer("engine.run_s", tr.total("engine.run"), "s");
        report.layer("engine.run_calls", run_ms.len() as f64, "count");
        report.layer("engine.run_call_p50_ms", median(&run_ms), "ms");
        report.layer("engine.run_call_p99_ms", quantile(&run_ms, 0.99), "ms");
        report.layer("engine.observe_s", tr.total("engine.observe"), "s");
        report.layer("sharded.p1_steps_per_s", p1, "1/s");
        report.layer("sharded.p2_over_p1", p2 / p1, "ratio");
        report.layer("sharded.short_call_ns_per_step", short, "ns");
        report.layer("sharded.long_call_ns_per_step", long, "ns");
        report.layer(
            "diversity_error",
            checks::diversity_error(&counts, &weights),
            "fraction",
        );
        crate::trace_summary(
            &mut report,
            &tr,
            phase.root,
            Blocks::of(&phase.jobs, POOL).steps_per_s,
            e2e_blocks.steps_per_s,
            phase.jobs.len(),
        );
    }
    report.checks = checks;
    crate::finish_trace(ctx, &tr, &mut report);
    report
}

/// Runs jobs of [`JOB_ROUNDS`] `n`-step calls until `seconds` of wall
/// clock have passed and [`stats::MIN_BLOCK_JOBS`] jobs are done, checking
/// conservation and sustainability after every call.
fn timed(sim: &mut Sim, seconds: f64, tr: &mut Tracer, checks: &mut Checks, k: usize) -> Phase {
    let n = Engine::len(sim) as u64;
    let mut jobs = Vec::new();
    let root = tr.begin("bench.timed", None);
    let start = Instant::now();
    let mut call = 0u64;
    while start.elapsed().as_secs_f64() < seconds || jobs.len() < stats::MIN_BLOCK_JOBS {
        let t0 = Instant::now();
        for _ in 0..JOB_ROUNDS {
            let s = tr.begin("engine.run", Some(call));
            Engine::run(sim, n);
            tr.end(s);
            let s = tr.begin("engine.observe", Some(call));
            let counts = Engine::class_counts(sim);
            tr.end(s);
            checks.record(checks::population(&counts, n, k));
            call += 1;
        }
        jobs.push(Job {
            latency: t0.elapsed().as_secs_f64(),
            steps: JOB_ROUNDS * n,
            end: start.elapsed().as_secs_f64(),
        });
    }
    tr.end(root);
    Phase { jobs, root }
}

/// The same engine at one worker thread and at two, alternating `n`-step
/// calls so drift hits both sides alike. Returns `(p1, p2)` steps/s.
fn thread_scaling(sim: &mut Sim, tr: &mut Tracer, checks: &mut Checks, k: usize) -> (f64, f64) {
    let n = Engine::len(sim) as u64;
    let mut time = [0.0f64; 2];
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 3 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        for (slot, threads) in [(0usize, 1usize), (1, 2)] {
            let t0 = Instant::now();
            let s = tr.begin(
                if threads == 1 {
                    "sharded.run_p1"
                } else {
                    "sharded.run_p2"
                },
                None,
            );
            sim.run_with_threads(n, threads);
            tr.end(s);
            time[slot] += t0.elapsed().as_secs_f64();
            checks.record(checks::population(&Engine::class_counts(sim), n, k));
        }
        rounds += 1;
    }
    let steps = (rounds * n) as f64;
    (steps / time[0], steps / time[1])
}

/// Cost per step of quantum-sized calls (what a `pp-serve` slice makes)
/// against `n`-step calls, on the same engine. Returns ns/step
/// `(short, long)`.
fn call_length(sim: &mut Sim, tr: &mut Tracer, checks: &mut Checks, k: usize) -> (f64, f64) {
    let n = Engine::len(sim) as u64;
    let shorts = n / SHORT_CALL;
    let mut time = [0.0f64; 2];
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 3 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t0 = Instant::now();
        let s = tr.begin("sharded.short_calls", None);
        for _ in 0..shorts {
            Engine::run(sim, SHORT_CALL);
        }
        tr.end(s);
        time[0] += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let s = tr.begin("sharded.long_call", None);
        Engine::run(sim, n);
        tr.end(s);
        time[1] += t0.elapsed().as_secs_f64();
        checks.record(checks::population(&Engine::class_counts(sim), n, k));
        rounds += 1;
    }
    (
        time[0] * 1e9 / (rounds * shorts * SHORT_CALL) as f64,
        time[1] * 1e9 / (rounds * n) as f64,
    )
}
