//! The `pp serve` event loop: control plane, slice execution, snapshots.
//!
//! One control thread owns every engine between rounds and runs [`run`] —
//! a loop alternating between two planes (slice execution fans out to
//! parked workers, but all state transitions are decided and observed on
//! the control thread):
//!
//! * **Control plane.** A reader thread forwards request lines over a
//!   channel; the loop drains it between slices (and blocks on it when no
//!   job is backlogged), so submissions land promptly without interrupting
//!   a running slice. Input EOF with no work left is a clean shutdown.
//! * **Data plane.** Each iteration asks the [deficit-round-robin
//!   scheduler](crate::sched) for one **round** of grants — one
//!   `(tenant, budget)` slice per distinct backlogged tenant, the DRR
//!   rotation's natural unit — and runs each granted tenant's oldest job
//!   for up to its budget through the uniform `Box<dyn Engine>` dispatch,
//!   so a slice costs one virtual call and the per-interaction loops stay
//!   monomorphized inside whichever tier the job chose. The round's
//!   slices target pairwise-distinct engines, so they execute in
//!   parallel: on the control thread and on the engine [`pool`]'s parked
//!   worker threads, which are shared with the sharded tier and outlive
//!   any one `run`. Each round leases tokens from the pool, checks out no
//!   more parked workers than the lease grants (all inline when the pool
//!   is exhausted or the round has one slice), and moves each granted job
//!   to its worker by value and back. Every observable effect —
//!   charges, shock firings, progress events — is applied after the
//!   round completes, strictly in grant order, so the event stream is a
//!   function of the request stream alone, never of the worker count.
//!
//! Slices are clamped at a scheduled shock's `at` clock so the shock fires
//! at exactly the requested step; pending snapshot requests are serviced
//! once their clock threshold is reached **and** any scheduled shock has
//! fired (saving earlier would let the sharded tier's boundary drain step
//! over the shock). Every fail-closed rejection — malformed request,
//! unknown job, corrupt snapshot file — emits an `error` event and exits
//! with [`EXIT_SCHEMA_ERROR`]; nothing is skipped-and-continued, matching
//! the result-JSON envelope convention.

use crate::sched::Drr;
use crate::snapshot::SnapshotFile;
use crate::wire::{Event, JobSpec, Request, ShockSpec, TopologySpec};
use pp_adversary::Shock;
use pp_bench::experiments::Report;
use pp_bench::output::{self, EXIT_OK, EXIT_SCHEMA_ERROR};
use pp_bench::{build_engine, build_graph_engine, DivEngine};
use pp_core::{init, Weights};
use pp_engine::pool;
use pp_graph::{Cycle, Torus2d};
use pp_stats::Table;
use rand::{rngs::StdRng, SeedableRng};
use std::io::{BufRead, Write};
use std::sync::mpsc::{self, TryRecvError};
use std::time::Instant;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Steps granted per tenant per scheduler round (see [`Drr`]).
    /// Smaller quanta interleave tenants more finely at the cost of
    /// more virtual-dispatch boundaries.
    pub quantum: u64,
}

/// Default slice quantum: fine enough that two tenants visibly interleave
/// within one `observe_every` window, coarse enough that dispatch overhead
/// stays invisible next to the engines' step costs.
pub const DEFAULT_QUANTUM: u64 = 2048;

impl Default for Config {
    fn default() -> Config {
        Config {
            quantum: DEFAULT_QUANTUM,
        }
    }
}

impl Config {
    /// Reads the configuration from the environment: `PP_SERVE_QUANTUM`
    /// overrides the slice quantum.
    ///
    /// # Panics
    ///
    /// Panics on a non-integer or zero value, matching the fail-fast
    /// convention of `PP_ENGINE`/`PP_PRESET`/`PP_OBS`.
    pub fn from_env() -> Config {
        let quantum = match std::env::var("PP_SERVE_QUANTUM") {
            Err(_) => DEFAULT_QUANTUM,
            Ok(v) => match v.parse::<u64>() {
                Ok(q) if q >= 1 => q,
                _ => panic!("PP_SERVE_QUANTUM must be a positive integer, got `{v}`"),
            },
        };
        Config { quantum }
    }
}

struct Job {
    tenant: String,
    name: String,
    spec: JobSpec,
    engine: DivEngine,
    shock_applied: bool,
    next_observe: u64,
    start_clock: u64,
    started: Instant,
}

struct SnapReq {
    tenant: String,
    job: String,
    path: String,
    at: u64,
    stop: bool,
}

enum Flow {
    Continue,
    Shutdown,
}

fn emit(out: &mut impl Write, event: &Event) {
    // A consumer that closed the pipe cannot receive a report about the
    // closed pipe; warn once per process and keep completing the work.
    if writeln!(out, "{}", event.render())
        .and_then(|_| out.flush())
        .is_err()
    {
        static WARNED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
        WARNED.get_or_init(|| eprintln!("warning: event stream closed; continuing unobserved"));
    }
}

fn fail(out: &mut impl Write, message: String) -> i32 {
    emit(out, &Event::Error { message });
    EXIT_SCHEMA_ERROR
}

/// Builds the engine a spec describes, over a population of `n` agents
/// (`n` differs from `spec.n` only when resuming a job whose resizing
/// shock already fired). The initial states are the spec's init layout;
/// a resume overwrites them via `restore_snapshot` immediately after.
fn build_job_engine(spec: &JobSpec, n: usize) -> DivEngine {
    let weights = Weights::new(spec.weights.clone()).expect("weights validated at parse");
    let states = match spec.init {
        crate::wire::InitKind::Balanced => init::all_dark_balanced(n, &weights),
        crate::wire::InitKind::SingleMinority => init::all_dark_single_minority(n, &weights),
    };
    match spec.topology {
        TopologySpec::Complete => build_engine(spec.engine, &weights, states, spec.seed),
        TopologySpec::Cycle => {
            build_graph_engine(spec.engine, &weights, Cycle::new(n), states, spec.seed)
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

/// Applies the job's scheduled shock. Deterministic by construction: the
/// representative [`Shock::enumerate`] instance is picked by label from
/// the population size at the firing clock, and the shock RNG is keyed by
/// `(spec.seed, shock.at)` — a resumed run that re-fires nothing and an
/// uninterrupted run that fires here see the same mutation.
fn apply_shock(job: &mut Job, shock: &ShockSpec) {
    let k = job.spec.weights.len();
    let inst = Shock::enumerate(job.engine.len(), k)
        .into_iter()
        .find(|s| s.label() == shock.kind)
        .expect("shock kind validated at parse");
    let mut rng = StdRng::seed_from_u64(
        job.spec
            .seed
            .wrapping_add(shock.at.wrapping_mul(rand::rngs::GOLDEN)),
    );
    pp_adversary::apply(&inst, &mut *job.engine, &mut rng);
}

fn tenant_steps_counter(tenant: &str) -> String {
    format!("serve.steps.{tenant}")
}

fn serve_counters() -> Vec<(String, u64)> {
    pp_obs::dump()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .collect()
}

/// Runs the service over any line-based transport: requests from `input`,
/// events to `out`. Returns the process exit code — [`EXIT_OK`] after a
/// clean shutdown (explicit op, or EOF with all work finished),
/// [`EXIT_SCHEMA_ERROR`] after any fail-closed rejection.
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
///
/// let requests = concat!(
///     "{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"demo\",\"job\":\"j\",",
///     "\"spec\":{\"protocol\":\"diversification\",\"weights\":[1.0,1.0],",
///     "\"topology\":\"complete\",\"n\":16,\"engine\":\"agent\",\"seed\":1,",
///     "\"steps\":500,\"observe_every\":250,\"init\":\"balanced\",\"shock\":null}}\n",
/// );
/// let mut events = Vec::new();
/// let code = pp_serve::server::run(Cursor::new(requests), &mut events, Default::default());
/// assert_eq!(code, 0);
/// let text = String::from_utf8(events).unwrap();
/// assert!(text.contains("\"event\":\"done\""));
/// ```
pub fn run<R, W>(input: R, out: &mut W, cfg: Config) -> i32
where
    R: BufRead + Send + 'static,
    W: Write,
{
    serve(input, out, cfg, build_job_engine)
}

/// Builds the engine for a job spec over `n` agents; [`run`] passes
/// [`build_job_engine`], tests pass instrumented engines.
type BuildEngine = fn(&JobSpec, usize) -> DivEngine;

fn serve<R, W>(input: R, out: &mut W, cfg: Config, build: BuildEngine) -> i32
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = mpsc::channel::<String>();
    // The reader thread is detached on purpose: it may sit blocked on a
    // live pipe when the loop decides to exit (explicit shutdown), and the
    // process exit reaps it. With finite inputs (tests) it ends at EOF.
    std::thread::spawn(move || {
        for line in input.lines() {
            match line {
                Ok(l) if l.trim().is_empty() => continue,
                Ok(l) => {
                    if tx.send(l).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    });

    let mut jobs: Vec<Job> = Vec::new();
    let mut pending: Vec<SnapReq> = Vec::new();
    let mut drr = Drr::new(cfg.quantum);
    let mut completed: u64 = 0;
    let mut eof = false;

    loop {
        // Control plane: drain everything that arrived since last slice.
        // A shutdown op stops the intake but drains queued work first —
        // the same graceful semantics as input EOF.
        while !eof {
            match rx.try_recv() {
                Ok(line) => match handle_line(&line, &mut jobs, &mut pending, &mut drr, build, out)
                {
                    Ok(Flow::Continue) => {}
                    Ok(Flow::Shutdown) => eof = true,
                    Err(code) => return code,
                },
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => eof = true,
            }
        }
        // Requests that were ready on arrival (resume past a snapshot
        // threshold, zero-work jobs) are serviced before any slice runs.
        if let Err(code) = service_snapshots(&mut jobs, &mut pending, &mut drr, out) {
            return code;
        }
        if let Err(code) = finish_ready_jobs(&mut jobs, &mut pending, &mut drr, &mut completed, out)
        {
            return code;
        }

        if jobs.is_empty() {
            if eof {
                if !pending.is_empty() {
                    return fail(
                        out,
                        "input ended with snapshot requests that can never trigger".into(),
                    );
                }
                emit(out, &Event::Shutdown { completed });
                return EXIT_OK;
            }
            // Idle: block until the next request (or EOF).
            match rx.recv() {
                Ok(line) => match handle_line(&line, &mut jobs, &mut pending, &mut drr, build, out)
                {
                    Ok(Flow::Continue) => {}
                    Ok(Flow::Shutdown) => eof = true,
                    Err(code) => return code,
                },
                Err(_) => eof = true,
            }
            continue;
        }

        // Data plane: one deficit-round-robin round. The rotation visits
        // each backlogged tenant exactly once per round, so collecting
        // that many grants yields slices over pairwise-distinct tenants —
        // and each tenant's oldest job is a distinct engine, so the
        // slices are free of aliasing and run concurrently. Burst clamps
        // (job target, un-fired shock) are computed up front from the
        // pre-round clocks; bookkeeping and events happen after the
        // barrier, in grant order.
        let backlogged = jobs
            .iter()
            .map(|j| j.tenant.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let mut slices: Vec<(String, usize, u64)> = Vec::with_capacity(backlogged);
        for _ in 0..backlogged {
            let (tenant, budget) = drr.grant().expect("jobs imply backlog");
            let idx = jobs
                .iter()
                .position(|j| j.tenant == tenant)
                .expect("scheduler backlog tracks the job list");
            let job = &jobs[idx];
            let clock = job.engine.step_count();
            let mut burst = budget.min(job.spec.steps.saturating_sub(clock));
            if let Some(shock) = &job.spec.shock {
                if !job.shock_applied && clock < shock.at {
                    burst = burst.min(shock.at - clock);
                }
            }
            slices.push((tenant, idx, burst));
        }
        run_round(&mut jobs, &slices);

        for (tenant, idx, burst) in &slices {
            let job = &mut jobs[*idx];
            drr.charge(tenant, *burst);
            pp_obs::counter_add_dyn(&tenant_steps_counter(tenant), *burst);
            pp_obs::counter_add_dyn("serve.slices", 1);
            let clock = job.engine.step_count();

            if let Some(shock) = job.spec.shock.clone() {
                if !job.shock_applied && clock >= shock.at {
                    apply_shock(job, &shock);
                    job.shock_applied = true;
                    pp_obs::counter_add_dyn("serve.shocks", 1);
                    let n_after = job.engine.len();
                    let (tenant, name) = (job.tenant.clone(), job.name.clone());
                    emit(
                        out,
                        &Event::Shock {
                            tenant,
                            job: name,
                            kind: shock.kind.clone(),
                            at: shock.at,
                            n_after,
                        },
                    );
                }
            }

            let job = &mut jobs[*idx];
            if clock >= job.next_observe && clock < job.spec.steps {
                job.next_observe = (clock / job.spec.observe_every + 1) * job.spec.observe_every;
                let ev = Event::Progress {
                    tenant: job.tenant.clone(),
                    job: job.name.clone(),
                    clock,
                    target: job.spec.steps,
                    class_counts: job.engine.class_counts(),
                    tenant_steps: drr.executed(tenant),
                    total_steps: drr.total_executed(),
                    counters: serve_counters(),
                };
                emit(out, &ev);
            }
        }

        if let Err(code) = service_snapshots(&mut jobs, &mut pending, &mut drr, out) {
            return code;
        }
        if let Err(code) = finish_ready_jobs(&mut jobs, &mut pending, &mut drr, &mut completed, out)
        {
            return code;
        }
    }
}

/// Executes one round's slices — `(tenant, job index, burst)` triples
/// over pairwise-distinct jobs. The round leases `slices − 1` tokens from
/// the shared engine pool and checks out that many parked pool workers;
/// slice `i` in job-index order goes to thread `i % threads` (the control
/// thread is thread 0), each granted job moving to its worker by value
/// and back into its place in `jobs`. With no tokens granted (pool
/// exhausted, or a single-slice round) every slice runs inline. Each job
/// runs exactly its precomputed burst, so the post-round state is
/// identical whichever thread executes it. A worker's panic is re-raised
/// here.
fn run_round(jobs: &mut Vec<Job>, slices: &[(String, usize, u64)]) {
    let mut work: Vec<(usize, u64)> = slices
        .iter()
        .filter(|(_, _, burst)| *burst > 0)
        .map(|(_, idx, burst)| (*idx, *burst))
        .collect();
    work.sort_unstable();
    let lease = pool::lease(work.len().saturating_sub(1));
    if lease.workers() == 0 {
        for (idx, burst) in work {
            jobs[idx].engine.run(burst);
        }
        return;
    }
    pp_obs::counter_add_dyn("serve.parallel_rounds", 1);
    let mut crew = pool::Crew::check_out(lease.workers());
    let threads = crew.workers() + 1;
    let mut batches: Vec<Vec<(usize, Job, u64)>> = (0..threads).map(|_| Vec::new()).collect();
    // Taking the jobs from the highest index down leaves every lower
    // index in place.
    for (i, &(idx, burst)) in work.iter().enumerate().rev() {
        batches[i % threads].push((idx, jobs.remove(idx), burst));
    }
    let mut batches = batches.into_iter();
    let mut done = batches.next().expect("threads >= 1");
    for (k, mut batch) in batches.enumerate() {
        crew.send(k, move || {
            for (_, job, burst) in &mut batch {
                job.engine.run(*burst);
            }
            batch
        });
    }
    for (_, job, burst) in &mut done {
        job.engine.run(*burst);
    }
    for _ in 1..threads {
        done.extend(crew.recv());
    }
    done.sort_unstable_by_key(|(idx, _, _)| *idx);
    for (idx, job, _) in done {
        jobs.insert(idx, job);
    }
}

fn handle_line(
    line: &str,
    jobs: &mut Vec<Job>,
    pending: &mut Vec<SnapReq>,
    drr: &mut Drr,
    build: BuildEngine,
    out: &mut impl Write,
) -> Result<Flow, i32> {
    let req = match Request::parse_line(line) {
        Ok(r) => r,
        Err(e) => return Err(fail(out, format!("invalid request: {e}"))),
    };
    match req {
        Request::Submit { tenant, job, spec } => {
            if jobs.iter().any(|j| j.tenant == tenant && j.name == job) {
                return Err(fail(out, format!("job {tenant}/{job} already queued")));
            }
            let engine = build(&spec, spec.n);
            emit(
                out,
                &Event::Accepted {
                    tenant: tenant.clone(),
                    job: job.clone(),
                    engine: spec.engine.name(),
                    n: spec.n,
                    steps: spec.steps,
                },
            );
            drr.enqueue(&tenant);
            jobs.push(Job {
                tenant,
                name: job,
                next_observe: spec.observe_every,
                start_clock: 0,
                started: Instant::now(),
                shock_applied: false,
                spec,
                engine,
            });
            Ok(Flow::Continue)
        }
        Request::Snapshot {
            tenant,
            job,
            path,
            at,
            stop,
        } => {
            let Some(target) = jobs.iter().find(|j| j.tenant == tenant && j.name == job) else {
                return Err(fail(out, format!("snapshot of unknown job {tenant}/{job}")));
            };
            if at > target.spec.steps {
                return Err(fail(
                    out,
                    format!(
                        "snapshot at clock {at} can never trigger: job {tenant}/{job} \
                         finishes at {}",
                        target.spec.steps
                    ),
                ));
            }
            pending.push(SnapReq {
                tenant,
                job,
                path,
                at,
                stop,
            });
            Ok(Flow::Continue)
        }
        Request::Resume { path } => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return Err(fail(out, format!("cannot read snapshot `{path}`: {e}"))),
            };
            let file = match SnapshotFile::parse(&text) {
                Ok(f) => f,
                Err(e) => return Err(fail(out, format!("snapshot `{path}` rejected: {e}"))),
            };
            if jobs
                .iter()
                .any(|j| j.tenant == file.tenant && j.name == file.job)
            {
                return Err(fail(
                    out,
                    format!("job {}/{} already queued", file.tenant, file.job),
                ));
            }
            let mut engine = build(&file.spec, file.engine.n as usize);
            if let Err(e) = engine.restore_snapshot(&file.engine) {
                return Err(fail(out, format!("snapshot `{path}` rejected: {e}")));
            }
            let clock = engine.step_count();
            emit(
                out,
                &Event::Resumed {
                    tenant: file.tenant.clone(),
                    job: file.job.clone(),
                    clock,
                    target: file.spec.steps,
                },
            );
            drr.enqueue(&file.tenant);
            let next_observe = (clock / file.spec.observe_every + 1) * file.spec.observe_every;
            jobs.push(Job {
                tenant: file.tenant,
                name: file.job,
                next_observe,
                start_clock: clock,
                started: Instant::now(),
                shock_applied: file.shock_applied,
                spec: file.spec,
                engine,
            });
            Ok(Flow::Continue)
        }
        Request::Shutdown => Ok(Flow::Shutdown),
    }
}

/// Services every pending snapshot whose job has reached its clock
/// threshold with its shock (if any) resolved. `stop` requests remove the
/// job after the capture — the "kill, resume elsewhere" half of the cycle.
fn service_snapshots(
    jobs: &mut Vec<Job>,
    pending: &mut Vec<SnapReq>,
    drr: &mut Drr,
    out: &mut impl Write,
) -> Result<(), i32> {
    let mut i = 0;
    while i < pending.len() {
        let req = &pending[i];
        let Some(idx) = jobs
            .iter()
            .position(|j| j.tenant == req.tenant && j.name == req.job)
        else {
            // finish_ready_jobs flushes matching requests before removing
            // a job, so a vanished target is loop-state corruption.
            return Err(fail(
                out,
                format!("snapshot target {}/{} vanished", req.tenant, req.job),
            ));
        };
        let job = &jobs[idx];
        let shock_resolved = job.spec.shock.is_none() || job.shock_applied;
        if job.engine.step_count() >= req.at && shock_resolved {
            let req = pending.remove(i);
            take_snapshot(jobs, idx, &req, drr, out)?;
        } else {
            i += 1;
        }
    }
    Ok(())
}

fn take_snapshot(
    jobs: &mut Vec<Job>,
    idx: usize,
    req: &SnapReq,
    drr: &mut Drr,
    out: &mut impl Write,
) -> Result<(), i32> {
    let job = &mut jobs[idx];
    let before = job.engine.step_count();
    let snap = job.engine.save_snapshot();
    // The sharded tier drains to its block boundary inside save_snapshot;
    // those steps ran for this tenant and count toward its share.
    let drained = snap.clock - before;
    if drained > 0 {
        drr.charge(&job.tenant, drained);
        pp_obs::counter_add_dyn(&tenant_steps_counter(&job.tenant), drained);
    }
    pp_obs::counter_add_dyn("serve.snapshots", 1);
    let clock = snap.clock;
    let file = SnapshotFile {
        tenant: job.tenant.clone(),
        job: job.name.clone(),
        spec: job.spec.clone(),
        shock_applied: job.shock_applied,
        engine: snap,
    };
    if let Err(e) = std::fs::write(&req.path, file.render()) {
        return Err(fail(
            out,
            format!("cannot write snapshot `{}`: {e}", req.path),
        ));
    }
    emit(
        out,
        &Event::Snapshot {
            tenant: job.tenant.clone(),
            job: job.name.clone(),
            path: req.path.clone(),
            clock,
            stopped: req.stop,
        },
    );
    if req.stop {
        let job = jobs.remove(idx);
        drr.dequeue(&job.tenant);
    }
    Ok(())
}

/// Finishes every job whose clock reached its target: flushes any pending
/// snapshot requests for it (all necessarily ready), writes the
/// result-JSON v1 envelope, emits `done`, and removes the job.
fn finish_ready_jobs(
    jobs: &mut Vec<Job>,
    pending: &mut Vec<SnapReq>,
    drr: &mut Drr,
    completed: &mut u64,
    out: &mut impl Write,
) -> Result<(), i32> {
    loop {
        let Some(idx) = jobs
            .iter()
            .position(|j| j.engine.step_count() >= j.spec.steps)
        else {
            return Ok(());
        };
        // Snapshot requests for a finishing job trigger at done at the
        // latest (their `at` is bounded by the target). A `stop` request
        // here removes the job without an envelope — resuming the
        // snapshot finishes it.
        service_snapshots(jobs, pending, drr, out)?;
        let Some(idx) = jobs
            .get(idx)
            .filter(|j| j.engine.step_count() >= j.spec.steps)
            .map(|_| idx)
            .or_else(|| {
                jobs.iter()
                    .position(|j| j.engine.step_count() >= j.spec.steps)
            })
        else {
            continue;
        };
        let job = jobs.remove(idx);
        let clock = job.engine.step_count();
        let counts = job.engine.class_counts();
        let elapsed = job.started.elapsed().as_secs_f64();
        let wall_ms = elapsed * 1e3;
        let executed = clock - job.start_clock;
        drr.dequeue(&job.tenant);
        pp_obs::counter_add_dyn("serve.jobs_done", 1);

        let mut table = Table::new(["class", "count"]);
        for (word, count) in counts.iter().enumerate() {
            table.row([word.to_string(), count.to_string()]);
        }
        let mut report = Report::new(
            format!("pp serve {}/{}: final class counts", job.tenant, job.name),
            table,
        );
        report.set_engine(job.spec.engine.name());
        report.param("tenant", &job.tenant);
        report.param("job", &job.name);
        report.param("topology", job.spec.topology.kind());
        report.param("n", job.spec.n);
        report.param("seed", job.spec.seed);
        report.param("steps", clock);
        report.param("init", job.spec.init.name());
        if let Some(shock) = &job.spec.shock {
            report.note(format!(
                "shock `{}` fired at clock {}",
                shock.kind, shock.at
            ));
        }
        if job.start_clock > 0 {
            report.note(format!(
                "resumed from a snapshot at clock {}",
                job.start_clock
            ));
        }
        if elapsed > 0.0 {
            report.set_steps_per_sec(executed as f64 / elapsed);
        }
        let name = format!("serve_{}_{}", job.tenant, job.name);
        let json = output::result_json_v1(&name, &report, "serve", wall_ms, None);
        if let Err(e) = output::validate_json(&json) {
            return Err(fail(
                out,
                format!("refusing to write invalid envelope for `{name}`: {e}"),
            ));
        }
        let bench = match output::write_json(&name, &json) {
            Ok(path) => Some(path.display().to_string()),
            Err(e) => {
                eprintln!("warning: could not write BENCH_{name}.json: {e}");
                None
            }
        };
        emit(
            out,
            &Event::Done {
                tenant: job.tenant.clone(),
                job: job.name.clone(),
                clock,
                class_counts: counts,
                tenant_steps: drr.executed(&job.tenant),
                total_steps: drr.total_executed(),
                bench,
            },
        );
        *completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::AgentState;
    use pp_engine::{Engine, EngineSnapshot, SnapshotError};
    use std::collections::HashSet;
    use std::io::Cursor;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Routes envelopes to a scratch directory and pins a 4-thread pool so
    /// multi-slice rounds fan out even on a one-core machine (as the
    /// integration tests do), then takes the test lock: the pool budget
    /// is process-global, so these tests take turns leasing it.
    fn setup() -> MutexGuard<'static, ()> {
        static ENV: OnceLock<()> = OnceLock::new();
        ENV.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("pp_serve_unit_{}", std::process::id()));
            std::env::set_var("PP_BENCH_DIR", dir);
            std::env::set_var("PP_POOL_THREADS", "4");
        });
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn submit(tenant: &str, steps: u64) -> String {
        format!(
            "{{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"{tenant}\",\"job\":\"j\",\
             \"spec\":{{\"protocol\":\"diversification\",\"weights\":[1.0,2.0],\
             \"topology\":\"complete\",\"n\":32,\"engine\":\"packed\",\"seed\":5,\
             \"steps\":{steps},\"observe_every\":{steps},\"init\":\"balanced\",\"shock\":null}}}}\n"
        )
    }

    /// A real engine whose `run` calls `hook` first.
    struct Probe {
        inner: DivEngine,
        hook: fn(),
    }

    impl Engine for Probe {
        type State = AgentState;
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn step_count(&self) -> u64 {
            self.inner.step_count()
        }
        fn seed(&self) -> u64 {
            self.inner.seed()
        }
        fn run(&mut self, steps: u64) {
            (self.hook)();
            self.inner.run(steps);
        }
        fn class_counts(&self) -> Vec<u64> {
            self.inner.class_counts()
        }
        fn visit_states(&self, f: &mut dyn FnMut(usize, &AgentState)) {
            self.inner.visit_states(f);
        }
        fn state(&self, u: usize) -> AgentState {
            self.inner.state(u)
        }
        fn set_state(&mut self, u: usize, state: &AgentState) {
            self.inner.set_state(u, state);
        }
        fn set_states(&mut self, states: &[AgentState]) {
            self.inner.set_states(states);
        }
        fn push_agent(&mut self, state: &AgentState) {
            self.inner.push_agent(state);
        }
        fn swap_remove_agent(&mut self, u: usize) {
            self.inner.swap_remove_agent(u);
        }
        fn topology_name(&self) -> String {
            self.inner.topology_name()
        }
        fn supports_resize(&self) -> bool {
            self.inner.supports_resize()
        }
        fn save_snapshot(&mut self) -> EngineSnapshot {
            self.inner.save_snapshot()
        }
        fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
            self.inner.restore_snapshot(snapshot)
        }
    }

    static RUN_THREADS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

    fn record_thread() {
        RUN_THREADS
            .lock()
            .unwrap()
            .push(std::thread::current().id());
    }

    /// The threads other than this one that ran a slice since the last
    /// clear.
    fn worker_threads() -> HashSet<ThreadId> {
        let control = std::thread::current().id();
        RUN_THREADS
            .lock()
            .unwrap()
            .iter()
            .copied()
            .filter(|&id| id != control)
            .collect()
    }

    fn recording_engine(spec: &JobSpec, n: usize) -> DivEngine {
        Box::new(Probe {
            inner: build_job_engine(spec, n),
            hook: record_thread,
        })
    }

    fn parallel_rounds() -> u64 {
        serve_counters()
            .into_iter()
            .find(|(name, _)| name == "serve.parallel_rounds")
            .map_or(0, |(_, v)| v)
    }

    #[test]
    fn round_workers_are_parked_pool_workers_reused_across_runs() {
        let _turn = setup();
        // Park as many pool workers as a round can lease, and learn their
        // threads: how many slices a round gets depends on when the
        // reader thread delivers each submit, so a run may use fewer.
        let mut crew = pool::Crew::check_out(pool::parallelism() - 1);
        for k in 0..crew.workers() {
            crew.send(k, || std::thread::current().id());
        }
        let parked: HashSet<ThreadId> = (0..crew.workers()).map(|_| crew.recv()).collect();
        drop(crew);
        let requests = ["a", "b", "c"].map(|t| submit(t, 20 * 256)).concat();
        // Two runs in one process, as the benchmark's traced run makes.
        for run in 0..2 {
            RUN_THREADS.lock().unwrap().clear();
            let rounds_before = parallel_rounds();
            let mut events = Vec::new();
            let cfg = Config { quantum: 256 };
            let code = serve(
                Cursor::new(requests.clone()),
                &mut events,
                cfg,
                recording_engine,
            );
            assert_eq!(code, EXIT_OK, "{}", String::from_utf8_lossy(&events));
            let rounds = parallel_rounds() - rounds_before;
            assert!(rounds >= 10, "only {rounds} rounds fanned out");
            let workers = worker_threads();
            assert!(!workers.is_empty(), "no slice ran off the control thread");
            assert!(
                workers.is_subset(&parked),
                "run {run} started new worker threads: {workers:?} beyond the parked {parked:?}"
            );
        }
    }

    fn job(tenant: &str, hook: fn()) -> Job {
        let Ok(Request::Submit { tenant, job, spec }) = Request::parse_line(&submit(tenant, 4096))
        else {
            unreachable!("the test request is well formed");
        };
        Job {
            tenant,
            name: job,
            engine: Box::new(Probe {
                inner: build_job_engine(&spec, spec.n),
                hook,
            }),
            shock_applied: false,
            next_observe: spec.observe_every,
            start_clock: 0,
            started: Instant::now(),
            spec,
        }
    }

    #[test]
    fn a_worker_panic_fails_the_round_instead_of_hanging_it() {
        let _turn = setup();
        fn fine() {}
        fn broken() {
            panic!("probe engine failed");
        }
        // Slice 0 runs on the control thread, slice 1 on the worker.
        let mut jobs = vec![job("a", fine), job("b", broken)];
        let slices = vec![("a".to_string(), 0, 1024), ("b".to_string(), 1, 1024)];
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_round(&mut jobs, &slices);
            }));
            let message = outcome
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the round blocked instead of failing");
        assert_eq!(message.as_deref(), Some("probe engine failed"));
    }

    #[test]
    fn a_panicked_round_worker_serves_the_next_round() {
        let _turn = setup();
        fn record_then_fail() {
            record_thread();
            panic!("probe engine failed");
        }
        let slices = vec![("a".to_string(), 0, 1024), ("b".to_string(), 1, 1024)];
        RUN_THREADS.lock().unwrap().clear();
        let mut jobs = vec![job("a", record_thread), job("b", record_then_fail)];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_round(&mut jobs, &slices);
        }));
        let payload = outcome.expect_err("the broken slice must fail the round");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"probe engine failed"));
        let failed = worker_threads();
        assert_eq!(failed.len(), 1, "slice 1 runs on one worker");

        RUN_THREADS.lock().unwrap().clear();
        let mut jobs = vec![job("a", record_thread), job("b", record_thread)];
        run_round(&mut jobs, &slices);
        assert!(jobs.iter().all(|j| j.engine.step_count() == 1024));
        assert_eq!(
            worker_threads(),
            failed,
            "the next round must run on the parked worker whose task panicked"
        );
    }
}
