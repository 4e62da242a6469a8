//! `serve-mix`: `pp_serve::server::run` in-process, driven as a closed loop
//! by three tenant clients with one job outstanding each, at the default
//! quantum.
//!
//! The job mix is drawn from the seed across five tiers (dense on the
//! complete graph at `n = 10⁶` from the single-minority start, turbo on a
//! 10⁵ torus, sharded on a 10⁶ torus, packed on a 10⁴ cycle, vec on a 10⁵
//! cycle). The draw is stratified: every 20 consecutive jobs hold each
//! tier four times, in a seeded order, so every seed runs the same work per
//! tier.
//! Every 4th job is snapshotted with `stop` at mid-clock and resumed by its
//! client; every 5th carries a shock. The engine layer sees thousands of
//! quantum-sized calls here instead of a few long ones, and the workload
//! also exercises DRR scheduling, wire parsing, snapshot I/O and dense
//! τ-leaps under slicing. A "job" is one submitted job, from the submit
//! line to its `done` event.

use crate::checks::{self, Checks};
use crate::stats::{self, mean, median, mix, quantile, Report, MIN_JOBS};
use crate::torus::weights;
use crate::trace::{Open, Tracer};
use crate::Ctx;
use pp_bench::schema::{parse, Value};
use pp_bench::{build_engine, build_graph_engine, DivEngine};
use pp_core::{init, Diversification, Weights};
use pp_dense::DenseEngine;
use pp_engine::Engine;
use pp_graph::{Cycle, Torus2d};
use pp_obs::json::quote;
use pp_serve::server::{self, Config, DEFAULT_QUANTUM};
use pp_serve::wire::{validate_event, InitKind, JobSpec, Request, TopologySpec};
use pp_serve::SnapshotFile;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::io::{BufRead, BufReader, BufWriter, PipeReader, PipeWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The closed-loop clients, one job outstanding each.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Set-up repeats; `setup_s` is their median. Set-up is sub-millisecond
/// here, so many repeats keep the median steady.
const SETUP_REPEATS: usize = 21;

enum Topo {
    Complete,
    Cycle,
    Torus(usize, usize),
}

/// One tier of the job mix.
pub struct Tier {
    pub engine: &'static str,
    topology: Topo,
    n: usize,
    steps: u64,
    init: &'static str,
}

/// The five tiers, sized so each job is on the order of 0.1 s of engine
/// work at the default quantum.
pub const TIERS: [Tier; 5] = [
    Tier {
        engine: "dense",
        topology: Topo::Complete,
        n: 1_000_000,
        steps: 2_000_000,
        init: "single_minority",
    },
    Tier {
        engine: "turbo",
        topology: Topo::Torus(250, 400),
        n: 100_000,
        steps: 4_000_000,
        init: "balanced",
    },
    Tier {
        engine: "sharded",
        topology: Topo::Torus(1000, 1000),
        n: 1_000_000,
        steps: 2_000_000,
        init: "balanced",
    },
    Tier {
        engine: "packed",
        topology: Topo::Cycle,
        n: 10_000,
        steps: 2_000_000,
        init: "balanced",
    },
    Tier {
        engine: "vec",
        topology: Topo::Cycle,
        n: 100_000,
        steps: 4_000_000,
        init: "balanced",
    },
];

/// Shocks a topology accepts: resizing ones need a resizable family.
fn shock_kinds(topology: &Topo) -> &'static [&'static str] {
    match topology {
        Topo::Torus(..) => &["inject_colour", "retire_colour"],
        _ => &pp_serve::wire::SHOCK_KINDS,
    }
}

/// A job spec on the wire; `seed` is cut to 53 bits, the largest integer
/// the wire format carries exactly.
fn spec_json(tier: &Tier, seed: u64, shock: Option<(&str, u64)>) -> String {
    let seed = seed >> 11;
    let topology = match tier.topology {
        Topo::Complete => "\"topology\":\"complete\"".to_string(),
        Topo::Cycle => "\"topology\":\"cycle\"".to_string(),
        Topo::Torus(rows, cols) => {
            format!("\"topology\":\"torus\",\"rows\":{rows},\"cols\":{cols}")
        }
    };
    let shock = shock.map_or("null".to_string(), |(kind, at)| {
        format!("{{\"kind\":{},\"at\":{at}}}", quote(kind))
    });
    format!(
        "{{\"protocol\":\"diversification\",\"weights\":[1.0,1.0,2.0,4.0],{topology},\"n\":{},\
         \"engine\":{},\"seed\":{seed},\"steps\":{},\"observe_every\":{},\"init\":{},\"shock\":{shock}}}",
        tier.n,
        quote(tier.engine),
        tier.steps,
        tier.steps / 4,
        quote(tier.init),
    )
}

/// Sub-seed stream of the job mix (see [`mix`]).
const JOB_MIX_STREAM: u64 = 2;
/// Sub-seed stream of the dense replay.
const DENSE_PROBE_STREAM: u64 = 3;

/// One planned job.
struct Planned {
    tier: usize,
    spec: String,
    snapshot: bool,
}

/// Jobs per stratum of the mix: the least common multiple of the
/// snapshot period (4) and the shock period (5).
const BLOCK: usize = 20;

/// Index of the sharded tier in [`TIERS`].
const SHARDED: usize = 2;

/// Tier order of one stratum: each tier four times. Snapshots (`j % 4 ==
/// 3`) never land on the sharded 10⁶ jobs: rendering and parsing their
/// 2 MB snapshot text makes ~50 MB of short-lived allocations, and the heap
/// fragmentation that leaves swings the process's peak RSS between 77 and
/// 120 MiB on runs of one seed. The traced run's per-tier probe measures
/// the sharded snapshot path instead.
fn draw_block(rng: &mut StdRng) -> [usize; BLOCK] {
    let mut shuffle = |v: &mut Vec<usize>| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.random_range(0..=i));
        }
    };
    let mut open: Vec<usize> = (0..BLOCK).filter(|p| p % 4 != 3).collect();
    shuffle(&mut open);
    let per_tier = BLOCK / TIERS.len();
    let mut others: Vec<usize> = (0..TIERS.len())
        .filter(|&t| t != SHARDED)
        .flat_map(|t| std::iter::repeat_n(t, per_tier))
        .collect();
    shuffle(&mut others);
    let mut block = [SHARDED; BLOCK];
    let mut others = others.into_iter();
    for p in (0..BLOCK).filter(|p| !open[..per_tier].contains(p)) {
        block[p] = others.next().expect("sixteen jobs of the other tiers");
    }
    block
}

/// The job mix: `count` jobs drawn from the seed — tier order, job seeds,
/// shock kinds and clocks. Client `c` runs jobs `c`, `c + 3`, `c + 6`, …
fn plan(seed: u64, count: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(mix(seed, JOB_MIX_STREAM));
    let mut block = [0; BLOCK];
    (0..count)
        .map(|j| {
            if j % BLOCK == 0 {
                block = draw_block(&mut rng);
            }
            let tier = block[j % BLOCK];
            let t = &TIERS[tier];
            let shock = (j % 5 == 4).then(|| {
                let kinds = shock_kinds(&t.topology);
                let kind = kinds[rng.random_range(0..kinds.len())];
                (kind, rng.random_range(t.steps / 8..3 * t.steps / 8))
            });
            Planned {
                tier,
                spec: spec_json(t, rng.next_u64(), shock),
                snapshot: j % 4 == 3,
            }
        })
        .collect()
}

/// The two pipes between the server and its clients.
struct Transport {
    server_in: BufReader<PipeReader>,
    server_out: PipeWriter,
    client: Client,
}

/// The clients' ends of the pipes.
struct Client {
    requests: PipeWriter,
    events: BufReader<PipeReader>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.requests
            .write_all(format!("{line}\n").as_bytes())
            .expect("server request pipe open");
    }
}

fn connect() -> std::io::Result<Transport> {
    let (req_r, req_w) = std::io::pipe()?;
    let (ev_r, ev_w) = std::io::pipe()?;
    Ok(Transport {
        server_in: BufReader::new(req_r),
        server_out: ev_w,
        client: Client {
            requests: req_w,
            events: BufReader::new(ev_r),
        },
    })
}

/// A client's job in flight.
struct Live {
    job: usize,
    name: String,
    n_now: u64,
    target: u64,
    snapshot_at: Option<u64>,
    submitted: Instant,
    accepted: Option<Instant>,
    due: Option<Instant>,
    snapshotted: Option<Instant>,
    resume_sent: Option<Instant>,
    resumed: Option<Instant>,
}

/// Everything one session measured.
#[derive(Default)]
struct Session {
    wall: f64,
    jobs: Vec<f64>,
    total_steps: u64,
    queue_wait: Vec<f64>,
    snapshot: Vec<f64>,
    resume: Vec<f64>,
    overshoot: Vec<f64>,
    job_events: u64,
    job_event_bytes: u64,
    slices: u64,
    lines: Vec<String>,
    /// The last `done` event's class counts and expected population, for
    /// the negative control.
    last_counts: (Vec<u64>, u64),
    root: Option<Open>,
}

impl Session {
    fn rate(&self) -> f64 {
        self.total_steps as f64 / self.wall
    }
}

fn counter(name: &str) -> u64 {
    pp_obs::dump()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn u64_of(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// Runs the server's control plane on the calling thread — as the
/// `pp-serve` binary does — while the clients run on a second thread.
fn session(
    transport: Transport,
    plan: &[Planned],
    seconds: f64,
    dir: &Path,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Session {
    let Transport {
        server_in,
        server_out,
        client,
    } = transport;
    let slices_before = counter("serve.slices");
    let root = tr.begin("bench.timed", None);
    let start = Instant::now();
    let (code, returned, mut out) = std::thread::scope(|scope| {
        let clients = scope.spawn(|| drive(client, plan, seconds, dir, start, tr, checks));
        let mut events = BufWriter::new(server_out);
        let code = server::run(server_in, &mut events, Config::default());
        let _ = events.flush();
        drop(events);
        let returned = Instant::now();
        (
            code,
            returned,
            clients.join().expect("client thread panicked"),
        )
    });
    checks.record(if code == 0 {
        Ok(())
    } else {
        Err(format!("server exited with code {code}"))
    });
    checks.record(if out.jobs.len() >= MIN_JOBS {
        Ok(())
    } else {
        Err(format!("only {} jobs completed", out.jobs.len()))
    });
    tr.record("serve.run", 0, (start, returned), root.index(), None);
    tr.end(root);
    out.slices = counter("serve.slices") - slices_before;
    out.root = Some(root);
    out
}

/// The closed loop: keeps one job in flight per tenant until `seconds`
/// have passed and [`MIN_JOBS`] jobs are done, lets the jobs in flight
/// finish, then asks the server to shut down and reads to the end of its
/// event stream.
fn drive(
    mut server: Client,
    plan: &[Planned],
    seconds: f64,
    dir: &Path,
    start: Instant,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Session {
    let mut out = Session::default();
    let mut live: Vec<Option<Live>> = (0..TENANTS.len()).map(|_| None).collect();
    let mut next: Vec<usize> = (0..TENANTS.len()).collect();
    let mut stopping = false;
    let mut last_done = start;

    let submit = |t: usize,
                  next: &mut Vec<usize>,
                  server: &mut Client,
                  lines: &mut Vec<String>|
     -> Option<Live> {
        let j = next[t];
        let p = plan.get(j)?;
        next[t] += TENANTS.len();
        let tier = &TIERS[p.tier];
        let name = format!("j{j}");
        let mut sent = vec![format!(
            "{{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"{}\",\"job\":\"{name}\",\"spec\":{}}}",
            TENANTS[t], p.spec
        )];
        let snapshot_at = p.snapshot.then_some(tier.steps / 2);
        if let Some(at) = snapshot_at {
            let path = dir.join(format!("{}-{name}.ppsnap", TENANTS[t]));
            sent.push(format!(
                "{{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"{}\",\"job\":\"{name}\",\
                 \"path\":{},\"at\":{at},\"stop\":true}}",
                TENANTS[t],
                quote(&path.display().to_string())
            ));
        }
        let submitted = Instant::now();
        server.send(&sent.join("\n"));
        lines.extend(sent);
        Some(Live {
            job: j,
            name,
            n_now: tier.n as u64,
            target: tier.steps,
            snapshot_at,
            submitted,
            accepted: None,
            due: None,
            snapshotted: None,
            resume_sent: None,
            resumed: None,
        })
    };

    for (t, slot) in live.iter_mut().enumerate() {
        *slot = submit(t, &mut next, &mut server, &mut out.lines);
    }
    let mut line = String::new();
    loop {
        line.clear();
        match server.events.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let now = Instant::now();
        let text = line.trim_end();
        let doc = match parse(text) {
            Ok(d) => d,
            Err(e) => {
                checks.record(Err(format!("unparseable event `{text}`: {e}")));
                continue;
            }
        };
        checks.record(validate_event(&doc).map_err(|e| format!("invalid event `{text}`: {e}")));
        let kind = doc.get("event").and_then(Value::as_str).unwrap_or("");
        let tenant = doc
            .get("tenant")
            .and_then(Value::as_str)
            .and_then(|t| TENANTS.iter().position(|x| *x == t));
        match kind {
            "shutdown" => continue,
            "error" => {
                checks.record(Err(format!("server error: {text}")));
                continue;
            }
            _ => {}
        }
        let Some(t) = tenant else {
            checks.record(Err(format!("event without a known tenant: {text}")));
            continue;
        };
        let Some(job) = live[t].as_mut() else {
            checks.record(Err(format!("event for an idle tenant: {text}")));
            continue;
        };
        if doc.get("job").and_then(Value::as_str) != Some(job.name.as_str()) {
            checks.record(Err(format!("event for a job not in flight: {text}")));
            continue;
        }
        out.job_events += 1;
        out.job_event_bytes += line.len() as u64;
        match kind {
            "accepted" => job.accepted = Some(now),
            "progress"
                if job.due.is_none()
                    && job
                        .snapshot_at
                        .is_some_and(|at| u64_of(&doc, "clock") >= at) =>
            {
                job.due = Some(now);
            }
            "shock" => job.n_now = u64_of(&doc, "n_after"),
            "snapshot" => {
                job.snapshotted = Some(now);
                let path = doc.get("path").and_then(Value::as_str).unwrap_or("");
                let resume = format!(
                    "{{\"schema_version\":1,\"op\":\"resume\",\"path\":{}}}",
                    quote(path)
                );
                job.resume_sent = Some(Instant::now());
                server.send(&resume);
                out.lines.push(resume);
            }
            "resumed" => job.resumed = Some(now),
            "done" => {
                let clock = u64_of(&doc, "clock");
                checks.record(if clock >= job.target {
                    Ok(())
                } else {
                    Err(format!(
                        "job {} done at {clock} before its target {}",
                        job.name, job.target
                    ))
                });
                let counts: Vec<u64> = doc
                    .get("class_counts")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().map(|v| v.as_f64().unwrap_or(0.0) as u64).collect())
                    .unwrap_or_default();
                checks.record(
                    checks::conserved(&counts, job.n_now)
                        .map_err(|e| format!("job {}: {e}", job.name)),
                );
                out.last_counts = (counts, job.n_now);
                out.total_steps = out.total_steps.max(u64_of(&doc, "total_steps"));
                out.jobs.push((now - job.submitted).as_secs_f64());
                out.overshoot.push(clock.saturating_sub(job.target) as f64);
                let accepted = job.accepted.unwrap_or(now);
                out.queue_wait
                    .push((accepted - job.submitted).as_secs_f64());
                let id = Some(job.job as u64);
                let track = 1 + t as u32;
                let span = tr.record("serve.job", track, (job.submitted, now), None, id);
                tr.record(
                    "serve.queue_wait",
                    track,
                    (job.submitted, accepted),
                    span,
                    id,
                );
                if let (Some(due), Some(at)) = (job.due, job.snapshotted) {
                    out.snapshot.push((at - due).as_secs_f64());
                    tr.record("serve.snapshot", track, (due, at), span, id);
                }
                if let (Some(sent), Some(at)) = (job.resume_sent, job.resumed) {
                    out.resume.push((at - sent).as_secs_f64());
                    tr.record("serve.resume", track, (sent, at), span, id);
                }
                last_done = now;
                if !stopping && (now - start).as_secs_f64() >= seconds && out.jobs.len() >= MIN_JOBS
                {
                    stopping = true;
                }
                live[t] = if stopping {
                    None
                } else {
                    submit(t, &mut next, &mut server, &mut out.lines)
                };
                if live.iter().all(Option::is_none) {
                    let shutdown = "{\"schema_version\":1,\"op\":\"shutdown\"}".to_string();
                    server.send(&shutdown);
                    out.lines.push(shutdown);
                }
            }
            _ => {}
        }
    }
    out.wall = (last_done - start).as_secs_f64();
    out
}

/// Rebuilds the engine a spec describes, the way the server does.
fn build(spec: &JobSpec) -> DivEngine {
    let weights = Weights::new(spec.weights.clone()).expect("spec weights are valid");
    let states = match spec.init {
        InitKind::Balanced => init::all_dark_balanced(spec.n, &weights),
        InitKind::SingleMinority => init::all_dark_single_minority(spec.n, &weights),
    };
    match spec.topology {
        TopologySpec::Complete => build_engine(spec.engine, &weights, states, spec.seed),
        TopologySpec::Cycle => {
            build_graph_engine(spec.engine, &weights, Cycle::new(spec.n), states, spec.seed)
        }
        TopologySpec::Torus { rows, cols } => build_graph_engine(
            spec.engine,
            &weights,
            Torus2d::new(rows, cols),
            states,
            spec.seed,
        ),
    }
}

fn parse_spec(spec: &str) -> JobSpec {
    JobSpec::from_doc(&parse(spec).expect("planned spec is JSON")).expect("planned spec is valid")
}

/// Snapshot costs of one tier at mid-clock: save, render, parse and
/// restore, each the median of three. Returns `[save_ms, restore_ms,
/// bytes, render_us, parse_us]`.
fn snapshot_probe(tier: usize, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> [f64; 5] {
    let spec = parse_spec(&spec_json(&TIERS[tier], seed, None));
    let mut engine = build(&spec);
    let s = tr.begin("engine.run_to_mid", None);
    engine.run(spec.steps / 2);
    tr.end(s);
    let (mut save, mut restore, mut render, mut parse_t) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0.0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let s = tr.begin("engine.save_snapshot", None);
        let snap = engine.save_snapshot();
        tr.end(s);
        save.push(t0.elapsed().as_secs_f64() * 1e3);
        let file = SnapshotFile {
            tenant: TENANTS[0].to_string(),
            job: "probe".to_string(),
            spec: spec.clone(),
            shock_applied: false,
            engine: snap,
        };
        let t0 = Instant::now();
        let s = tr.begin("serve.snapshot_render", None);
        let text = file.render();
        tr.end(s);
        render.push(t0.elapsed().as_secs_f64() * 1e6);
        bytes = text.len() as f64;
        let t0 = Instant::now();
        let s = tr.begin("serve.snapshot_parse", None);
        let parsed = SnapshotFile::parse(&text);
        tr.end(s);
        parse_t.push(t0.elapsed().as_secs_f64() * 1e6);
        let parsed = match parsed {
            Ok(p) if p == file => p,
            Ok(_) => {
                checks.record(Err(format!(
                    "{} snapshot did not round-trip",
                    spec.engine.name()
                )));
                continue;
            }
            Err(e) => {
                checks.record(Err(format!(
                    "{} snapshot rejected: {e}",
                    spec.engine.name()
                )));
                continue;
            }
        };
        let mut fresh = build(&spec);
        let t0 = Instant::now();
        let s = tr.begin("engine.restore_snapshot", None);
        let restored = fresh.restore_snapshot(&parsed.engine);
        tr.end(s);
        restore.push(t0.elapsed().as_secs_f64() * 1e3);
        checks.record(match restored {
            Ok(()) if fresh.class_counts() == engine.class_counts() => Ok(()),
            Ok(()) => Err(format!(
                "{} restore changed the class counts",
                spec.engine.name()
            )),
            Err(e) => Err(format!("{} restore failed: {e}", spec.engine.name())),
        });
    }
    [
        median(&save),
        median(&restore),
        bytes,
        median(&render),
        median(&parse_t),
    ]
}

/// The dense job spec replayed in quantum-sized calls and in one call.
/// Returns `(seconds, leap batches, exact events)` for each.
fn dense_probe(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> [(f64, u64, u64); 2] {
    let tier = &TIERS[0];
    let weights = weights();
    let k = weights.len();
    let states = init::all_dark_single_minority(tier.n, &weights);
    let mut out = [(0.0, 0, 0); 2];
    for (slot, quantum) in [(0usize, DEFAULT_QUANTUM), (1, tier.steps)] {
        let mut engine =
            DenseEngine::from_states(Diversification::new(weights.clone()), &states, k, seed);
        let t0 = Instant::now();
        let s = tr.begin(
            if slot == 0 {
                "dense.run"
            } else {
                "dense.run_one_call"
            },
            None,
        );
        while Engine::step_count(&engine) < tier.steps {
            let left = tier.steps - Engine::step_count(&engine);
            Engine::run(&mut engine, quantum.min(left));
        }
        tr.end(s);
        let sim = engine.simulator();
        out[slot] = (
            t0.elapsed().as_secs_f64(),
            sim.leap_batches(),
            sim.exact_events(),
        );
        checks.record(checks::population(
            &Engine::class_counts(&engine),
            tier.n as u64,
            k,
        ));
    }
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut tr = Tracer::new(ctx.trace);
    // Done-job envelopes and snapshot files go to a scratch directory of
    // this run, removed at the end. Set before any server thread starts.
    let scratch = ctx.out_dir.join(format!("serve-{}", std::process::id()));
    std::env::set_var("PP_BENCH_DIR", &scratch);
    let session_dir = |i: usize| -> PathBuf {
        let d = scratch.join(format!("session{i}"));
        std::fs::create_dir_all(&d).expect("scratch directory is writable");
        d
    };
    // More jobs than a run of this length can finish (about 25 jobs/s).
    let planned = 2 * MIN_JOBS.max((ctx.seconds * 60.0) as usize);

    // Set-up, repeated: generate the job mix and open the server's pipes.
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t0 = Instant::now();
        let root = tr.begin("bench.setup", None);
        let jobs = plan(ctx.seed, planned);
        let transport = connect().expect("pipes for the server");
        tr.end(root);
        setup.push(t0.elapsed().as_secs_f64());
        ready = Some((jobs, transport));
    }
    let (jobs, transport) = ready.expect("at least one set-up");

    let (untraced, transport) = if ctx.trace {
        tr.set_on(false);
        let s = session(
            transport,
            &jobs,
            ctx.seconds,
            &session_dir(0),
            &mut tr,
            &mut checks,
        );
        tr.set_on(true);
        (Some(s), connect().expect("pipes for the server"))
    } else {
        (None, transport)
    };
    let traced = session(
        transport,
        &jobs,
        ctx.seconds,
        &session_dir(1),
        &mut tr,
        &mut checks,
    );
    checks.expect_rejected(
        "done class counts with one agent deleted",
        checks::conserved(
            &checks::tampered(&traced.last_counts.0),
            traced.last_counts.1,
        ),
    );

    let e2e = untraced.as_ref().unwrap_or(&traced);
    report.e2e("setup_s", median(&setup), "s");
    report.e2e("steps_per_s", e2e.rate(), "1/s");
    report.e2e("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    report.e2e("job_p50_s", median(&e2e.jobs), "s");
    report.e2e("job_p90_s", quantile(&e2e.jobs, 0.9), "s");
    report.e2e("jobs_per_s", e2e.jobs.len() as f64 / e2e.wall, "1/s");

    if ctx.trace {
        let probe = tr.begin("bench.probe", None);
        // Wire parsing on the session's own request lines.
        for l in &traced.lines {
            checks.record(Request::parse_line(l).map(|_| ()));
        }
        let t0 = Instant::now();
        let s = tr.begin("serve.parse", None);
        let mut parsed = 0u64;
        while parsed == 0 || t0.elapsed().as_secs_f64() < 0.05 {
            for l in &traced.lines {
                std::hint::black_box(Request::parse_line(std::hint::black_box(l)).is_ok());
                parsed += 1;
            }
        }
        tr.end(s);
        let parse_us = t0.elapsed().as_secs_f64() * 1e6 / parsed as f64;
        let dense = dense_probe(mix(ctx.seed, DENSE_PROBE_STREAM), &mut tr, &mut checks);
        let snapshots: Vec<[f64; 5]> = (0..TIERS.len())
            .map(|t| snapshot_probe(t, mix(ctx.seed, t as u64), &mut tr, &mut checks))
            .collect();
        tr.end(probe);

        report.layer("dense.run_s", dense[0].0, "s");
        report.layer("dense.leap_batches", dense[0].1 as f64, "count");
        report.layer("dense.exact_events", dense[0].2 as f64, "count");
        report.layer("dense.one_call_run_s", dense[1].0, "s");
        report.layer("dense.one_call_leap_batches", dense[1].1 as f64, "count");
        report.layer("dense.one_call_exact_events", dense[1].2 as f64, "count");
        for (tier, [save, restore, bytes, render, parse_t]) in TIERS.iter().zip(snapshots) {
            report.layer(
                &format!("engine.save_snapshot_ms.{}", tier.engine),
                save,
                "ms",
            );
            report.layer(
                &format!("engine.restore_snapshot_ms.{}", tier.engine),
                restore,
                "ms",
            );
            report.layer(&format!("snapshot.bytes.{}", tier.engine), bytes, "bytes");
            report.layer(
                &format!("serve.snapshot_render_us.{}", tier.engine),
                render,
                "us",
            );
            report.layer(
                &format!("serve.snapshot_parse_us.{}", tier.engine),
                parse_t,
                "us",
            );
        }
        let done = traced.jobs.len() as f64;
        let queue_ms: Vec<f64> = traced.queue_wait.iter().map(|s| s * 1e3).collect();
        report.layer("serve.parse_us", parse_us, "us");
        report.layer("serve.queue_wait_p90_ms", quantile(&queue_ms, 0.9), "ms");
        report.layer("serve.snapshot_s", mean(&traced.snapshot), "s");
        report.layer("serve.resume_s", mean(&traced.resume), "s");
        report.layer("serve.slices", traced.slices as f64, "count");
        report.layer(
            "serve.steps_per_slice",
            traced.total_steps as f64 / traced.slices.max(1) as f64,
            "steps",
        );
        report.layer(
            "serve.events_per_job",
            traced.job_events as f64 / done,
            "count",
        );
        report.layer(
            "serve.event_bytes_per_job",
            traced.job_event_bytes as f64 / done,
            "bytes",
        );
        report.layer("serve.overshoot_steps", mean(&traced.overshoot), "steps");
        if let Some(root) = traced.root {
            crate::trace_summary(
                &mut report,
                &tr,
                root,
                traced.rate(),
                e2e.rate(),
                traced.jobs.len(),
            );
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("perfbench: cannot remove {}: {e}", scratch.display());
    }
    report.checks = checks;
    crate::finish_trace(ctx, &tr, &mut report);
    report
}
