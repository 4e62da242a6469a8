//! `ensemble-torus`: 64 replicas of the 250×400 torus (`n = 10⁵`) through
//! `replicate_vec` with 32 lanes, a fixed number of steps per replica. That
//! is one lane group per core on a 2-core machine, so the lane kernel and
//! the pool do all of the work and the comparison with scalar `replicate`
//! (the traced run's `vec.turbo_replica_steps_per_s`) runs at equal core
//! counts. A "job" is one ensemble call: the 64 replicas a caller waits for.

use crate::checks::{self, Checks};
use crate::stats::{self, mean, median, mix, Blocks, Job, Pool, Report};
use crate::torus::weights;
use crate::trace::{Open, Tracer};
use crate::Ctx;
use pp_core::{init, Diversification};
use pp_engine::{replicate, replicate_vec, Engine, TurboSimulator};
use pp_graph::Torus2d;
use std::sync::Mutex;
use std::time::Instant;

/// Replicas per ensemble call.
const REPLICAS: usize = 64;
/// Set-up repeats; `setup_s` is their median. Set-up is sub-millisecond
/// here, so many repeats keep the median steady.
const SETUP_REPEATS: usize = 21;
/// Lanes per `VecSimulator` group.
const LANES: usize = 32;
/// Steps per replica per call: 5 parallel rounds at `n = 10⁵`.
const STEPS: u64 = 500_000;
/// Blocks the end-to-end figures are taken from: the lane groups meet once
/// per call, and on a shared 2-core VM the call time moves between two
/// levels (~0.055 and ~0.083 s) for minutes at a time.
const POOL: Pool = Pool::Middle;
/// Diversity band at the 5-round horizon. The balanced start sits 0.25
/// from the fair shares; correct replicas have closed part of that gap.
const BAND: f64 = 0.2;

/// Sub-seed streams of the ensemble calls (see [`mix`]): call `c` of a
/// phase runs master seed `mix(seed, stream ^ c)`. The scalar baseline
/// reuses the traced phase's first seeds.
const UNTRACED_STREAM: u64 = 0;
const TRACED_STREAM: u64 = 1 << 40;

/// Tallies a packed population by word (the `Engine::class_counts` shape).
fn tally(packed: &[u32], k: usize) -> Vec<u64> {
    let mut counts = vec![0u64; 2 * k];
    for &w in packed {
        let w = w as usize;
        if w >= counts.len() {
            counts.resize(w + 1, 0);
        }
        counts[w] += 1;
    }
    counts
}

struct Phase {
    jobs: Vec<Job>,
    /// Per call: completion time of each lane group, seconds from the call.
    groups: Vec<Vec<f64>>,
    /// Class counts of the last replica finished.
    last: Vec<u64>,
    root: Open,
}

pub fn run(ctx: &Ctx) -> Report {
    let weights = weights();
    let k = weights.len();
    let mut tr = Tracer::new(ctx.trace);
    let mut report = Report::default();

    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let root = tr.begin("bench.setup", None);
        let topology = Torus2d::new(250, 400);
        let s = tr.begin("core.init", None);
        let states = init::all_dark_balanced(250 * 400, &weights);
        tr.end(s);
        let protocol = Diversification::new(weights.clone());
        tr.end(root);
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((topology, states, protocol));
    }
    let (topology, states, protocol) = built.expect("at least one set-up");
    let n = states.len() as u64;

    let mut checks = Checks::default();
    let timed = |tr: &mut Tracer, checks: &mut Checks, salt: u64| -> Phase {
        let mut jobs = Vec::new();
        let mut groups = Vec::new();
        let mut last = Vec::new();
        let root = tr.begin("bench.timed", None);
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed().as_secs_f64() < ctx.seconds || jobs.len() < stats::MIN_BLOCK_JOBS {
            let master = mix(ctx.seed, salt ^ calls);
            let seeds: Vec<u64> = (0..REPLICAS as u64).map(|r| mix(master, r)).collect();
            let done = Mutex::new(Vec::with_capacity(REPLICAS));
            let t0 = Instant::now();
            let s = tr.begin("vec.replicate_vec", Some(calls));
            let counts = replicate_vec::<_, _, u8, LANES, _>(
                &protocol,
                &topology,
                &states,
                master,
                &seeds,
                STEPS,
                |seed, packed| {
                    done.lock()
                        .expect("no extract callback panics")
                        .push((seed, Instant::now()));
                    tally(packed, k)
                },
            );
            tr.end(s);
            let latency = t0.elapsed().as_secs_f64();
            // A group's results are extracted right after its last step, so
            // its first extract marks its completion.
            let done = done.into_inner().expect("no extract callback panics");
            let finished: Vec<f64> = seeds
                .chunks(LANES)
                .enumerate()
                .map(|(g, chunk)| {
                    let at = done
                        .iter()
                        .filter(|(seed, _)| chunk.contains(seed))
                        .map(|&(_, t)| t)
                        .min()
                        .unwrap_or(t0);
                    tr.record("vec.group", 1 + g as u32, (t0, at), None, Some(calls));
                    at.saturating_duration_since(t0).as_secs_f64()
                })
                .collect();
            groups.push(finished);
            for c in &counts {
                checks.record(checks::population(c, n, k));
                checks.record(checks::diversity(c, &weights, BAND));
            }
            last = counts.into_iter().last().unwrap_or_default();
            calls += 1;
            jobs.push(Job {
                latency,
                steps: REPLICAS as u64 * STEPS,
                end: start.elapsed().as_secs_f64(),
            });
        }
        tr.end(root);
        Phase {
            jobs,
            groups,
            last,
            root,
        }
    };

    let untraced = ctx.trace.then(|| {
        tr.set_on(false);
        let p = timed(&mut tr, &mut checks, UNTRACED_STREAM);
        tr.set_on(true);
        p
    });
    let phase = timed(&mut tr, &mut checks, TRACED_STREAM);
    checks.expect_rejected(
        "class counts with one agent deleted",
        checks::population(&checks::tampered(&phase.last), n, k),
    );

    let e2e = untraced.as_ref().unwrap_or(&phase);
    let e2e_blocks = Blocks::of(&e2e.jobs, POOL);
    report.e2e("setup_s", median(&setup), "s");
    report.e2e("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    e2e_blocks.report(&mut report);

    if ctx.trace {
        // Scalar baseline on the same seeds and step count: one turbo
        // engine per replica, work-stealing across cores.
        let probe = tr.begin("bench.probe", None);
        let mut turbo_time = 0.0;
        let rounds = 3u64;
        for round in 0..rounds {
            let master = mix(ctx.seed, TRACED_STREAM ^ round);
            let seeds: Vec<u64> = (0..REPLICAS as u64).map(|r| mix(master, r)).collect();
            let t0 = Instant::now();
            let s = tr.begin("vec.replicate_turbo", Some(round));
            let counts = replicate(seeds, |seed| {
                let mut sim =
                    TurboSimulator::<_, _, u8>::new(protocol.clone(), topology, &states, seed);
                sim.run(STEPS);
                Engine::class_counts(&sim)
            });
            tr.end(s);
            turbo_time += t0.elapsed().as_secs_f64();
            for c in &counts {
                checks.record(checks::population(c, n, k));
            }
        }
        tr.end(probe);

        let group_times: Vec<f64> = phase.groups.iter().flatten().copied().collect();
        let skews: Vec<f64> = phase
            .groups
            .iter()
            .map(|g| {
                let max = g.iter().copied().fold(f64::MIN, f64::max);
                let min = g.iter().copied().fold(f64::MAX, f64::min);
                max - min
            })
            .collect();
        report.layer("vec.group_s", mean(&group_times), "s");
        report.layer(
            "diversity_error",
            checks::diversity_error(&phase.last, &weights),
            "fraction",
        );
        report.layer("vec.group_skew_s", mean(&skews), "s");
        report.layer(
            "vec.turbo_replica_steps_per_s",
            (rounds * REPLICAS as u64 * STEPS) as f64 / turbo_time,
            "1/s",
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
