//! The `pp serve` wire format: request and event documents.
//!
//! Both directions are **line-delimited JSON** — one complete document per
//! line, no framing beyond the newline — parsed and validated with the same
//! hand-rolled `pp_bench::schema` machinery as the result-JSON v1 envelopes
//! (the workspace has no serde). Validation is fail-closed in the envelope
//! tradition: every field is type- and range-checked, and **unknown fields
//! are rejected** at every nesting level, so a typo'd option surfaces as an
//! error event instead of silently running a different experiment.
//!
//! ## Requests (client → server), `pp-serve-request-v1`
//!
//! Every request is an object with `"schema_version": 1` and an `"op"`:
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `submit` | `tenant`, `job`, `spec` | enqueue a job under a tenant |
//! | `snapshot` | `tenant`, `job`, `path`, `at`, `stop`? | write a `pp-snapshot-v1` file once the job's clock reaches `at` |
//! | `resume` | `path` | re-enqueue a job from a snapshot file |
//! | `shutdown` | — | stop the intake, finish queued jobs, then exit |
//!
//! The job `spec` (see [`JobSpec`]) names the protocol, weights, topology,
//! engine tier, seed, step target, observation cadence, initial condition,
//! and an optional mid-run adversarial [shock](pp_adversary::Shock).
//!
//! ## Events (server → client), `pp-serve-event-v1`
//!
//! One JSON object per line on stdout, each with `"schema_version": 1` and
//! an `"event"` discriminator: `accepted`, `progress`, `shock`, `snapshot`,
//! `resumed`, `done`, `error`, `shutdown`. Progress and done events carry
//! the live class counts plus the deficit-round-robin bookkeeping
//! (`tenant_steps`, `total_steps`) that makes fairness externally
//! checkable, and the `serve.*` slice counters from the `pp-obs` recorder.
//! See ARCHITECTURE.md ("pp serve wire format") for one worked example of
//! every document kind.

use pp_bench::schema::{parse, Value};
use pp_bench::EngineKind;
use pp_obs::json::quote;
use std::collections::BTreeMap;

/// Shock labels accepted in a job spec — exactly the
/// [`Shock::label`](pp_adversary::Shock::label) vocabulary.
pub const SHOCK_KINDS: [&str; 4] = [
    "add_agents",
    "inject_colour",
    "retire_colour",
    "remove_agents",
];

/// Upper bound on `n` in a submitted spec: large enough for every tier's
/// real workloads, small enough that a corrupt size field cannot OOM the
/// server before validation finishes.
pub const MAX_POPULATION: u64 = 100_000_000;

/// Largest integer a result-JSON number can carry exactly (f64 mantissa);
/// integer fields beyond this are rejected rather than silently rounded.
pub const MAX_EXACT_INT: u64 = 1 << 53;

fn as_obj<'a>(v: &'a Value, what: &str) -> Result<&'a BTreeMap<String, Value>, String> {
    match v {
        Value::Obj(m) => Ok(m),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

fn no_unknown_fields(
    m: &BTreeMap<String, Value>,
    known: &[&str],
    what: &str,
) -> Result<(), String> {
    for key in m.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` in {what}"));
        }
    }
    Ok(())
}

fn field<'a>(m: &'a BTreeMap<String, Value>, key: &str, what: &str) -> Result<&'a Value, String> {
    m.get(key)
        .ok_or_else(|| format!("missing field `{key}` in {what}"))
}

fn str_field(m: &BTreeMap<String, Value>, key: &str, what: &str) -> Result<String, String> {
    match field(m, key, what)? {
        Value::Str(s) if !s.is_empty() => Ok(s.clone()),
        _ => Err(format!(
            "field `{key}` in {what} must be a non-empty string"
        )),
    }
}

fn u64_field(m: &BTreeMap<String, Value>, key: &str, what: &str) -> Result<u64, String> {
    match field(m, key, what)? {
        Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT as f64 => {
            Ok(*x as u64)
        }
        _ => Err(format!(
            "field `{key}` in {what} must be a non-negative integer below 2^53"
        )),
    }
}

fn bool_field_or(
    m: &BTreeMap<String, Value>,
    key: &str,
    what: &str,
    default: bool,
) -> Result<bool, String> {
    match m.get(key) {
        None => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{key}` in {what} must be a boolean")),
    }
}

/// A tenant or job identifier: non-empty, at most 64 bytes, drawn from
/// `[a-z0-9_-]` so identifiers can ride in file names (`BENCH_serve_<tenant>_
/// <job>.json`) and counter names without escaping.
pub fn check_ident(s: &str, what: &str) -> Result<(), String> {
    if s.is_empty() || s.len() > 64 {
        return Err(format!("{what} must be 1..=64 bytes, got {}", s.len()));
    }
    if !s
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
    {
        return Err(format!(
            "{what} `{s}` must match [a-z0-9_-]+ (it becomes part of file and counter names)"
        ));
    }
    Ok(())
}

/// Parses an engine tier name (the [`EngineKind::name`] vocabulary).
pub fn engine_from_name(s: &str) -> Result<EngineKind, String> {
    EngineKind::from_name(s).ok_or_else(|| {
        format!("engine must be one of agent, dense, packed, turbo, sharded, vec; got `{s}`")
    })
}

/// The interaction graph a job runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// All-pairs interactions (`pp_graph::Complete`) — the paper's model,
    /// and the only topology the dense tier accepts.
    Complete,
    /// The `n`-cycle (`pp_graph::Cycle`).
    Cycle,
    /// A `rows × cols` 2-D torus (`pp_graph::Torus2d`); `rows * cols`
    /// must equal `n`.
    Torus {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

impl TopologySpec {
    /// The wire spelling (`complete`, `cycle`, `torus`).
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Complete => "complete",
            TopologySpec::Cycle => "cycle",
            TopologySpec::Torus { .. } => "torus",
        }
    }

    /// Whether the family has a canonical resize (resizing shocks are
    /// only accepted on families that do; see
    /// [`Topology::resized`](pp_graph::Topology::resized)).
    pub fn supports_resize(&self) -> bool {
        !matches!(self, TopologySpec::Torus { .. })
    }
}

/// How the initial population is laid out (the `pp_core::init`
/// constructors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitKind {
    /// `init::all_dark_balanced`: colours as even as the weights allow.
    Balanced,
    /// `init::all_dark_single_minority`: one agent of the last colour,
    /// the rest on colour 0 — the worst-case survival start.
    SingleMinority,
}

impl InitKind {
    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            InitKind::Balanced => "balanced",
            InitKind::SingleMinority => "single_minority",
        }
    }
}

/// An optional mid-run adversarial shock: the representative
/// [`Shock::enumerate`](pp_adversary::Shock::enumerate) instance with the
/// given label, applied exactly when the job's clock reaches `at` (slices
/// are clamped so the clock lands on `at` precisely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShockSpec {
    /// One of [`SHOCK_KINDS`].
    pub kind: String,
    /// Clock at which the shock fires; must be below the job's `steps`.
    pub at: u64,
}

/// A validated job specification — everything needed to (re)build the
/// engine deterministically, which is what makes snapshot files
/// self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Colour weights (`w_i > 0`, at least two colours); their count is
    /// the protocol's `k`.
    pub weights: Vec<f64>,
    /// Interaction graph.
    pub topology: TopologySpec,
    /// Population size.
    pub n: usize,
    /// Engine tier to run on.
    pub engine: EngineKind,
    /// RNG seed (also keys the shock RNG).
    pub seed: u64,
    /// Target clock; the job is done once `step_count() >= steps`.
    pub steps: u64,
    /// Progress-event cadence in steps.
    pub observe_every: u64,
    /// Initial population layout.
    pub init: InitKind,
    /// Optional mid-run shock.
    pub shock: Option<ShockSpec>,
}

impl JobSpec {
    /// Validates a parsed `spec` object. Fail-closed: unknown fields and
    /// out-of-range values are errors, including cross-field rules (the
    /// dense tier demands the complete graph; resizing shocks demand a
    /// resizable topology; `shock.at` must precede `steps`).
    pub fn from_doc(doc: &Value) -> Result<JobSpec, String> {
        let m = as_obj(doc, "spec")?;
        no_unknown_fields(
            m,
            &[
                "protocol",
                "weights",
                "topology",
                "rows",
                "cols",
                "n",
                "engine",
                "seed",
                "steps",
                "observe_every",
                "init",
                "shock",
            ],
            "spec",
        )?;
        let protocol = str_field(m, "protocol", "spec")?;
        if protocol != "diversification" {
            return Err(format!(
                "spec.protocol must be `diversification` (the only protocol served), got `{protocol}`"
            ));
        }
        let weights = match field(m, "weights", "spec")? {
            Value::Arr(items) if items.len() >= 2 => {
                let mut w = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match item.as_f64() {
                        Some(x) if x.is_finite() && x > 0.0 => w.push(x),
                        _ => {
                            return Err(format!(
                                "spec.weights[{i}] must be a finite positive number"
                            ))
                        }
                    }
                }
                w
            }
            _ => return Err("spec.weights must be an array of at least 2 numbers".into()),
        };
        let n = u64_field(m, "n", "spec")?;
        if n < 2 * weights.len() as u64 || n > MAX_POPULATION {
            return Err(format!(
                "spec.n must be in [2k, {MAX_POPULATION}] (k = {} colours), got {n}",
                weights.len()
            ));
        }
        let n = n as usize;
        let topology = match str_field(m, "topology", "spec")?.as_str() {
            "complete" => TopologySpec::Complete,
            "cycle" => TopologySpec::Cycle,
            "torus" => {
                let rows = u64_field(m, "rows", "spec")? as usize;
                let cols = u64_field(m, "cols", "spec")? as usize;
                if rows < 2 || cols < 2 || rows.checked_mul(cols) != Some(n) {
                    return Err(format!(
                        "spec torus needs rows >= 2, cols >= 2, rows*cols == n; \
                         got {rows}x{cols} with n = {n}"
                    ));
                }
                TopologySpec::Torus { rows, cols }
            }
            other => {
                return Err(format!(
                    "spec.topology must be complete, cycle, or torus; got `{other}`"
                ))
            }
        };
        if !matches!(topology, TopologySpec::Torus { .. })
            && (m.contains_key("rows") || m.contains_key("cols"))
        {
            return Err("spec.rows/cols are only meaningful for the torus topology".into());
        }
        let engine = engine_from_name(&str_field(m, "engine", "spec")?)?;
        if engine == EngineKind::Dense && topology != TopologySpec::Complete {
            return Err("the dense tier is count-based and runs only on the complete graph".into());
        }
        let seed = u64_field(m, "seed", "spec")?;
        let steps = u64_field(m, "steps", "spec")?;
        if steps == 0 {
            return Err("spec.steps must be at least 1".into());
        }
        let observe_every = u64_field(m, "observe_every", "spec")?;
        if observe_every == 0 {
            return Err("spec.observe_every must be at least 1".into());
        }
        let init = match str_field(m, "init", "spec")?.as_str() {
            "balanced" => InitKind::Balanced,
            "single_minority" => InitKind::SingleMinority,
            other => {
                return Err(format!(
                    "spec.init must be balanced or single_minority; got `{other}`"
                ))
            }
        };
        let shock = match m.get("shock") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let sm = as_obj(v, "spec.shock")?;
                no_unknown_fields(sm, &["kind", "at"], "spec.shock")?;
                let kind = str_field(sm, "kind", "spec.shock")?;
                if !SHOCK_KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "spec.shock.kind must be one of {SHOCK_KINDS:?}, got `{kind}`"
                    ));
                }
                let at = u64_field(sm, "at", "spec.shock")?;
                if at == 0 || at >= steps {
                    return Err(format!(
                        "spec.shock.at must be in [1, steps); got {at} with steps = {steps}"
                    ));
                }
                let resizes = kind == "add_agents" || kind == "remove_agents";
                if resizes && !topology.supports_resize() {
                    return Err(format!(
                        "shock `{kind}` resizes the population, but topology `{}` has no \
                         canonical resize",
                        topology.kind()
                    ));
                }
                Some(ShockSpec { kind, at })
            }
        };
        Ok(JobSpec {
            weights,
            topology,
            n,
            engine,
            seed,
            steps,
            observe_every,
            init,
            shock,
        })
    }

    /// Renders the spec back to its wire form (the exact object
    /// [`JobSpec::from_doc`] accepts — round-trips bit-exactly, which is
    /// how snapshot files stay self-contained).
    pub fn to_json(&self) -> String {
        let weights: Vec<String> = self.weights.iter().map(|w| fmt_f64(*w)).collect();
        let mut s = format!(
            "{{\"protocol\":\"diversification\",\"weights\":[{}],\"topology\":{}",
            weights.join(","),
            quote(self.topology.kind()),
        );
        if let TopologySpec::Torus { rows, cols } = self.topology {
            s.push_str(&format!(",\"rows\":{rows},\"cols\":{cols}"));
        }
        s.push_str(&format!(
            ",\"n\":{},\"engine\":{},\"seed\":{},\"steps\":{},\"observe_every\":{},\"init\":{}",
            self.n,
            quote(self.engine.name()),
            self.seed,
            self.steps,
            self.observe_every,
            quote(self.init.name()),
        ));
        match &self.shock {
            None => s.push_str(",\"shock\":null}"),
            Some(sh) => s.push_str(&format!(
                ",\"shock\":{{\"kind\":{},\"at\":{}}}}}",
                quote(&sh.kind),
                sh.at
            )),
        }
        s
    }
}

fn fmt_f64(x: f64) -> String {
    // Rust's shortest round-trip Display; keep a `.0` so the value stays
    // visibly a float in the document.
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A validated client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job under a tenant.
    Submit {
        /// Tenant identifier ([`check_ident`] rules).
        tenant: String,
        /// Job identifier, unique within the tenant.
        job: String,
        /// What to run.
        spec: JobSpec,
    },
    /// Write a `pp-snapshot-v1` file for a running job once its clock
    /// reaches `at` (and any pending shock has fired).
    Snapshot {
        /// Owning tenant.
        tenant: String,
        /// Job to snapshot.
        job: String,
        /// Destination file path.
        path: String,
        /// Clock threshold: the snapshot is taken at the first slice
        /// boundary at or after this clock.
        at: u64,
        /// When true the job is removed after the snapshot — the
        /// "kill for later resume" half of the snapshot/resume cycle.
        stop: bool,
    },
    /// Re-enqueue a job from a snapshot file written by `snapshot`.
    Resume {
        /// Path of the `pp-snapshot-v1` file.
        path: String,
    },
    /// Stop the intake, finish queued jobs, then exit — the same
    /// graceful drain as input EOF.
    Shutdown,
}

impl Request {
    /// Validates a parsed request document.
    pub fn from_doc(doc: &Value) -> Result<Request, String> {
        let m = as_obj(doc, "request")?;
        match doc.get("schema_version").and_then(Value::as_f64) {
            Some(1.0) => {}
            _ => return Err("request must carry `\"schema_version\": 1`".into()),
        }
        let op = str_field(m, "op", "request")?;
        match op.as_str() {
            "submit" => {
                no_unknown_fields(
                    m,
                    &["schema_version", "op", "tenant", "job", "spec"],
                    "submit request",
                )?;
                let tenant = str_field(m, "tenant", "submit request")?;
                check_ident(&tenant, "tenant")?;
                let job = str_field(m, "job", "submit request")?;
                check_ident(&job, "job")?;
                let spec = JobSpec::from_doc(field(m, "spec", "submit request")?)?;
                Ok(Request::Submit { tenant, job, spec })
            }
            "snapshot" => {
                no_unknown_fields(
                    m,
                    &[
                        "schema_version",
                        "op",
                        "tenant",
                        "job",
                        "path",
                        "at",
                        "stop",
                    ],
                    "snapshot request",
                )?;
                let tenant = str_field(m, "tenant", "snapshot request")?;
                check_ident(&tenant, "tenant")?;
                let job = str_field(m, "job", "snapshot request")?;
                check_ident(&job, "job")?;
                Ok(Request::Snapshot {
                    tenant,
                    job,
                    path: str_field(m, "path", "snapshot request")?,
                    at: u64_field(m, "at", "snapshot request")?,
                    stop: bool_field_or(m, "stop", "snapshot request", false)?,
                })
            }
            "resume" => {
                no_unknown_fields(m, &["schema_version", "op", "path"], "resume request")?;
                Ok(Request::Resume {
                    path: str_field(m, "path", "resume request")?,
                })
            }
            "shutdown" => {
                no_unknown_fields(m, &["schema_version", "op"], "shutdown request")?;
                Ok(Request::Shutdown)
            }
            other => Err(format!(
                "op must be submit, snapshot, resume, or shutdown; got `{other}`"
            )),
        }
    }

    /// Parses and validates one request line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = parse(line).map_err(|e| e.to_string())?;
        Request::from_doc(&doc)
    }
}

/// A server event, rendered as exactly one stdout line. Field order is
/// stable (`schema_version`, `event`, then the event's fields in the order
/// documented in ARCHITECTURE.md) so shell harnesses can grep lines
/// without a JSON parser; proper consumers parse with `pp_bench::schema`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A submit was validated and enqueued.
    Accepted {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Engine tier the job will run on.
        engine: &'static str,
        /// Population size.
        n: usize,
        /// Target clock.
        steps: u64,
    },
    /// Periodic observation, emitted whenever a slice crosses an
    /// `observe_every` boundary.
    Progress {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Engine clock after the slice.
        clock: u64,
        /// The job's target clock.
        target: u64,
        /// Live class counts (population tallied by packed word).
        class_counts: Vec<u64>,
        /// Cumulative steps the scheduler has granted this tenant.
        tenant_steps: u64,
        /// Cumulative steps granted across all tenants.
        total_steps: u64,
        /// Current `serve.*` counters from the `pp-obs` recorder.
        counters: Vec<(String, u64)>,
    },
    /// A scheduled shock fired.
    Shock {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Shock label.
        kind: String,
        /// Clock at which it fired.
        at: u64,
        /// Population size after the shock (resizing shocks change it).
        n_after: usize,
    },
    /// A snapshot file was written.
    Snapshot {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// File written.
        path: String,
        /// Clock captured in the file.
        clock: u64,
        /// Whether the job was stopped (removed) after the capture.
        stopped: bool,
    },
    /// A job was re-enqueued from a snapshot file.
    Resumed {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Clock the job resumes from.
        clock: u64,
        /// The job's target clock.
        target: u64,
    },
    /// A job reached its target clock; its result-JSON v1 envelope was
    /// written (unless the bench directory was unwritable, in which case
    /// `bench` is null and a warning went to stderr).
    Done {
        /// Owning tenant.
        tenant: String,
        /// Job name.
        job: String,
        /// Final clock (>= target; the sharded tier can overshoot to a
        /// block boundary after a snapshot drain).
        clock: u64,
        /// Final class counts.
        class_counts: Vec<u64>,
        /// Cumulative steps granted to this tenant.
        tenant_steps: u64,
        /// Cumulative steps granted across all tenants.
        total_steps: u64,
        /// Path of the `BENCH_serve_<tenant>_<job>.json` envelope.
        bench: Option<String>,
    },
    /// Fail-closed rejection; the server exits 2 right after emitting it.
    Error {
        /// What was rejected and why.
        message: String,
    },
    /// Clean shutdown (explicit op, or input EOF with no work left).
    Shutdown {
        /// Jobs that ran to completion during this server's lifetime.
        completed: u64,
    },
}

fn counts_json(counts: &[u64]) -> String {
    let items: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl Event {
    /// Renders the event as its single JSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Event::Accepted {
                tenant,
                job,
                engine,
                n,
                steps,
            } => format!(
                "{{\"schema_version\":1,\"event\":\"accepted\",\"tenant\":{},\"job\":{},\
                 \"engine\":{},\"n\":{n},\"steps\":{steps}}}",
                quote(tenant),
                quote(job),
                quote(engine),
            ),
            Event::Progress {
                tenant,
                job,
                clock,
                target,
                class_counts,
                tenant_steps,
                total_steps,
                counters,
            } => {
                let counters: Vec<String> = counters
                    .iter()
                    .map(|(k, v)| format!("{}:{v}", quote(k)))
                    .collect();
                format!(
                    "{{\"schema_version\":1,\"event\":\"progress\",\"tenant\":{},\"job\":{},\
                     \"clock\":{clock},\"target\":{target},\"class_counts\":{},\
                     \"tenant_steps\":{tenant_steps},\"total_steps\":{total_steps},\
                     \"counters\":{{{}}}}}",
                    quote(tenant),
                    quote(job),
                    counts_json(class_counts),
                    counters.join(","),
                )
            }
            Event::Shock {
                tenant,
                job,
                kind,
                at,
                n_after,
            } => format!(
                "{{\"schema_version\":1,\"event\":\"shock\",\"tenant\":{},\"job\":{},\
                 \"kind\":{},\"at\":{at},\"n_after\":{n_after}}}",
                quote(tenant),
                quote(job),
                quote(kind),
            ),
            Event::Snapshot {
                tenant,
                job,
                path,
                clock,
                stopped,
            } => format!(
                "{{\"schema_version\":1,\"event\":\"snapshot\",\"tenant\":{},\"job\":{},\
                 \"path\":{},\"clock\":{clock},\"stopped\":{stopped}}}",
                quote(tenant),
                quote(job),
                quote(path),
            ),
            Event::Resumed {
                tenant,
                job,
                clock,
                target,
            } => format!(
                "{{\"schema_version\":1,\"event\":\"resumed\",\"tenant\":{},\"job\":{},\
                 \"clock\":{clock},\"target\":{target}}}",
                quote(tenant),
                quote(job),
            ),
            Event::Done {
                tenant,
                job,
                clock,
                class_counts,
                tenant_steps,
                total_steps,
                bench,
            } => format!(
                "{{\"schema_version\":1,\"event\":\"done\",\"tenant\":{},\"job\":{},\
                 \"clock\":{clock},\"class_counts\":{},\
                 \"tenant_steps\":{tenant_steps},\"total_steps\":{total_steps},\"bench\":{}}}",
                quote(tenant),
                quote(job),
                counts_json(class_counts),
                match bench {
                    Some(p) => quote(p),
                    None => "null".to_string(),
                },
            ),
            Event::Error { message } => format!(
                "{{\"schema_version\":1,\"event\":\"error\",\"message\":{}}}",
                quote(message),
            ),
            Event::Shutdown { completed } => {
                format!("{{\"schema_version\":1,\"event\":\"shutdown\",\"completed\":{completed}}}")
            }
        }
    }
}

/// Validates a parsed event document against the `pp-serve-event-v1`
/// shape — the consumer-side mirror of [`Event::render`], used by the
/// wire tests and the ARCHITECTURE.md worked-example gate.
pub fn validate_event(doc: &Value) -> Result<(), String> {
    let m = as_obj(doc, "event")?;
    match doc.get("schema_version").and_then(Value::as_f64) {
        Some(1.0) => {}
        _ => return Err("event must carry `\"schema_version\": 1`".into()),
    }
    let kind = str_field(m, "event", "event")?;
    let base = ["schema_version", "event"];
    let ident_pair = |m: &BTreeMap<String, Value>| -> Result<(), String> {
        check_ident(&str_field(m, "tenant", "event")?, "tenant")?;
        check_ident(&str_field(m, "job", "event")?, "job")
    };
    let counts_ok = |m: &BTreeMap<String, Value>| -> Result<(), String> {
        match m.get("class_counts") {
            Some(Value::Arr(items)) if !items.is_empty() => {
                for (i, c) in items.iter().enumerate() {
                    match c.as_f64() {
                        Some(x) if x >= 0.0 && x.fract() == 0.0 => {}
                        _ => return Err(format!("class_counts[{i}] must be a whole number")),
                    }
                }
                Ok(())
            }
            _ => Err("event field `class_counts` must be a non-empty array".into()),
        }
    };
    match kind.as_str() {
        "accepted" => {
            let known: Vec<&str> = base
                .iter()
                .chain(["tenant", "job", "engine", "n", "steps"].iter())
                .copied()
                .collect();
            no_unknown_fields(m, &known, "accepted event")?;
            ident_pair(m)?;
            engine_from_name(&str_field(m, "engine", "event")?)?;
            u64_field(m, "n", "event")?;
            u64_field(m, "steps", "event")?;
        }
        "progress" => {
            let known: Vec<&str> = base
                .iter()
                .chain(
                    [
                        "tenant",
                        "job",
                        "clock",
                        "target",
                        "class_counts",
                        "tenant_steps",
                        "total_steps",
                        "counters",
                    ]
                    .iter(),
                )
                .copied()
                .collect();
            no_unknown_fields(m, &known, "progress event")?;
            ident_pair(m)?;
            counts_ok(m)?;
            for f in ["clock", "target", "tenant_steps", "total_steps"] {
                u64_field(m, f, "progress event")?;
            }
            match field(m, "counters", "progress event")? {
                Value::Obj(c) => {
                    for (k, v) in c {
                        if v.as_f64().is_none() {
                            return Err(format!("counters entry `{k}` must be a number"));
                        }
                    }
                }
                _ => return Err("progress event field `counters` must be an object".into()),
            }
        }
        "shock" => {
            let known: Vec<&str> = base
                .iter()
                .chain(["tenant", "job", "kind", "at", "n_after"].iter())
                .copied()
                .collect();
            no_unknown_fields(m, &known, "shock event")?;
            ident_pair(m)?;
            let sk = str_field(m, "kind", "event")?;
            if !SHOCK_KINDS.contains(&sk.as_str()) {
                return Err(format!("shock event kind `{sk}` is not a shock label"));
            }
            u64_field(m, "at", "event")?;
            u64_field(m, "n_after", "event")?;
        }
        "snapshot" => {
            let known: Vec<&str> = base
                .iter()
                .chain(["tenant", "job", "path", "clock", "stopped"].iter())
                .copied()
                .collect();
            no_unknown_fields(m, &known, "snapshot event")?;
            ident_pair(m)?;
            str_field(m, "path", "event")?;
            u64_field(m, "clock", "event")?;
            bool_field_or(m, "stopped", "snapshot event", false)?;
        }
        "resumed" => {
            let known: Vec<&str> = base
                .iter()
                .chain(["tenant", "job", "clock", "target"].iter())
                .copied()
                .collect();
            no_unknown_fields(m, &known, "resumed event")?;
            ident_pair(m)?;
            u64_field(m, "clock", "event")?;
            u64_field(m, "target", "event")?;
        }
        "done" => {
            let known: Vec<&str> = base
                .iter()
                .chain(
                    [
                        "tenant",
                        "job",
                        "clock",
                        "class_counts",
                        "tenant_steps",
                        "total_steps",
                        "bench",
                    ]
                    .iter(),
                )
                .copied()
                .collect();
            no_unknown_fields(m, &known, "done event")?;
            ident_pair(m)?;
            counts_ok(m)?;
            for f in ["clock", "tenant_steps", "total_steps"] {
                u64_field(m, f, "done event")?;
            }
            match field(m, "bench", "done event")? {
                Value::Str(_) | Value::Null => {}
                _ => return Err("done event field `bench` must be a string or null".into()),
            }
        }
        "error" => {
            let known: Vec<&str> = base.iter().chain(["message"].iter()).copied().collect();
            no_unknown_fields(m, &known, "error event")?;
            str_field(m, "message", "event")?;
        }
        "shutdown" => {
            let known: Vec<&str> = base.iter().chain(["completed"].iter()).copied().collect();
            no_unknown_fields(m, &known, "shutdown event")?;
            u64_field(m, "completed", "event")?;
        }
        other => return Err(format!("unknown event kind `{other}`")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec_json() -> String {
        concat!(
            "{\"protocol\":\"diversification\",\"weights\":[1.0,1.0,2.0],",
            "\"topology\":\"torus\",\"rows\":8,\"cols\":8,\"n\":64,\"engine\":\"turbo\",",
            "\"seed\":42,\"steps\":10000,\"observe_every\":1000,\"init\":\"balanced\",",
            "\"shock\":{\"kind\":\"inject_colour\",\"at\":5000}}"
        )
        .to_string()
    }

    #[test]
    fn every_engine_name_round_trips_and_matching_is_exact() {
        for kind in pp_bench::runner::ALL_ENGINES {
            assert_eq!(engine_from_name(kind.name()), Ok(kind));
        }
        assert_eq!(
            engine_from_name("Turbo"),
            Err(
                "engine must be one of agent, dense, packed, turbo, sharded, vec; got `Turbo`"
                    .to_string()
            )
        );
    }

    #[test]
    fn spec_round_trips_through_its_own_writer() {
        let doc = parse(&sample_spec_json()).unwrap();
        let spec = JobSpec::from_doc(&doc).unwrap();
        assert_eq!(spec.topology, TopologySpec::Torus { rows: 8, cols: 8 });
        assert_eq!(spec.engine, EngineKind::Turbo);
        let re = JobSpec::from_doc(&parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(spec, re);
    }

    #[test]
    fn spec_rejections_are_fail_closed() {
        let ok = sample_spec_json();
        let cases = [
            // (mutation, why)
            (
                ok.replace("\"seed\":42", "\"seed\":42,\"sed\":1"),
                "unknown field",
            ),
            (ok.replace("diversification", "voter"), "foreign protocol"),
            (ok.replace("[1.0,1.0,2.0]", "[1.0]"), "single colour"),
            (ok.replace("[1.0,1.0,2.0]", "[1.0,-1.0]"), "negative weight"),
            (ok.replace("\"n\":64", "\"n\":3"), "n below 2k"),
            (ok.replace("\"rows\":8", "\"rows\":9"), "rows*cols != n"),
            (ok.replace("\"turbo\"", "\"warp\""), "unknown engine"),
            (ok.replace("\"steps\":10000", "\"steps\":0"), "zero steps"),
            (
                ok.replace("\"observe_every\":1000", "\"observe_every\":0"),
                "zero cadence",
            ),
            (
                ok.replace("\"at\":5000", "\"at\":10000"),
                "shock at >= steps",
            ),
            (
                ok.replace("inject_colour", "add_agents"),
                "resizing shock on torus",
            ),
            (
                ok.replace("\"turbo\"", "\"dense\""),
                "dense off the complete graph",
            ),
            (
                ok.replace("\"seed\":42", "\"seed\":1e300"),
                "seed beyond 2^53",
            ),
        ];
        for (bad, why) in cases {
            let doc = parse(&bad).unwrap();
            assert!(JobSpec::from_doc(&doc).is_err(), "accepted {why}: {bad}");
        }
    }

    #[test]
    fn requests_parse_and_reject() {
        let submit = format!(
            "{{\"schema_version\":1,\"op\":\"submit\",\"tenant\":\"alice\",\"job\":\"j1\",\"spec\":{}}}",
            sample_spec_json()
        );
        assert!(matches!(
            Request::parse_line(&submit).unwrap(),
            Request::Submit { .. }
        ));
        let snap = "{\"schema_version\":1,\"op\":\"snapshot\",\"tenant\":\"alice\",\
                    \"job\":\"j1\",\"path\":\"/tmp/s.json\",\"at\":100,\"stop\":true}";
        assert_eq!(
            Request::parse_line(snap).unwrap(),
            Request::Snapshot {
                tenant: "alice".into(),
                job: "j1".into(),
                path: "/tmp/s.json".into(),
                at: 100,
                stop: true,
            }
        );
        assert!(matches!(
            Request::parse_line("{\"schema_version\":1,\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        ));
        for bad in [
            "not json",
            "{\"op\":\"submit\"}",                      // no version
            "{\"schema_version\":1,\"op\":\"reboot\"}", // unknown op
            "{\"schema_version\":1,\"op\":\"shutdown\",\"now\":1}", // unknown field
            "{\"schema_version\":2,\"op\":\"shutdown\"}", // wrong version
            "{\"schema_version\":1,\"op\":\"resume\"}", // missing path
        ] {
            assert!(Request::parse_line(bad).is_err(), "accepted {bad}");
        }
        let bad_tenant = submit.replace("\"alice\"", "\"Alice In Chains\"");
        assert!(
            Request::parse_line(&bad_tenant).is_err(),
            "idents are [a-z0-9_-]"
        );
    }

    #[test]
    fn every_event_kind_validates_against_its_own_renderer() {
        let events = [
            Event::Accepted {
                tenant: "alice".into(),
                job: "j1".into(),
                engine: "turbo",
                n: 64,
                steps: 10_000,
            },
            Event::Progress {
                tenant: "alice".into(),
                job: "j1".into(),
                clock: 2048,
                target: 10_000,
                class_counts: vec![30, 4, 30],
                tenant_steps: 2048,
                total_steps: 4096,
                counters: vec![("serve.steps.alice".into(), 2048)],
            },
            Event::Shock {
                tenant: "alice".into(),
                job: "j1".into(),
                kind: "inject_colour".into(),
                at: 5_000,
                n_after: 64,
            },
            Event::Snapshot {
                tenant: "alice".into(),
                job: "j1".into(),
                path: "/tmp/s.json".into(),
                clock: 6_144,
                stopped: true,
            },
            Event::Resumed {
                tenant: "alice".into(),
                job: "j1".into(),
                clock: 6_144,
                target: 10_000,
            },
            Event::Done {
                tenant: "alice".into(),
                job: "j1".into(),
                clock: 10_240,
                class_counts: vec![30, 4, 30],
                tenant_steps: 10_240,
                total_steps: 20_480,
                bench: Some("out/BENCH_serve_alice_j1.json".into()),
            },
            Event::Error {
                message: "bad request".into(),
            },
            Event::Shutdown { completed: 2 },
        ];
        for e in events {
            let line = e.render();
            let doc = parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            validate_event(&doc).unwrap_or_else(|err| panic!("{line}: {err}"));
        }
        // And the validator is not a rubber stamp.
        let doc = parse("{\"schema_version\":1,\"event\":\"done\",\"tenant\":\"a\"}").unwrap();
        assert!(validate_event(&doc).is_err());
        let doc =
            parse("{\"schema_version\":1,\"event\":\"shutdown\",\"completed\":1,\"x\":2}").unwrap();
        assert!(
            validate_event(&doc).is_err(),
            "unknown event field accepted"
        );
    }
}
