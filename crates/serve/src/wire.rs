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

use pp_bench::output::format_f64;
use pp_bench::runner::ALL_ENGINES;
use pp_bench::schema::{parse, tag, whole, Fields, Value, MAX_EXACT_INT};
use pp_bench::EngineKind;
use pp_obs::json::quote;

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

/// The identifier field `key` ([`check_ident`] rules).
pub(crate) fn ident(f: &Fields, key: &str) -> Result<String, String> {
    let s = f.str(key)?;
    check_ident(s, key)?;
    Ok(s.to_string())
}

/// Parses an engine tier name (the [`EngineKind::name`] vocabulary).
pub fn engine_from_name(s: &str) -> Result<EngineKind, String> {
    EngineKind::from_name(s).ok_or_else(|| {
        let names = ALL_ENGINES.map(EngineKind::name).join(", ");
        format!("engine must be one of {names}; got `{s}`")
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
        let f = Fields::new(
            doc,
            "spec",
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
        )?;
        let protocol = f.str("protocol")?;
        if protocol != "diversification" {
            return Err(format!(
                "spec.protocol must be `diversification` (the only protocol served), got `{protocol}`"
            ));
        }
        let weights = f.array("weights", "a finite positive number", |v| {
            v.as_f64().filter(|x| x.is_finite() && *x > 0.0)
        })?;
        if weights.len() < 2 {
            return Err("spec.weights must be an array of at least 2 numbers".into());
        }
        let n = f.uint_in("n", 2 * weights.len() as u64, MAX_POPULATION)? as usize;
        let topology = match f.str("topology")? {
            "complete" => TopologySpec::Complete,
            "cycle" => TopologySpec::Cycle,
            "torus" => {
                let rows = f.uint_in("rows", 2, MAX_EXACT_INT)? as usize;
                let cols = f.uint_in("cols", 2, MAX_EXACT_INT)? as usize;
                if rows.checked_mul(cols) != Some(n) {
                    return Err(format!(
                        "spec torus needs rows*cols == n; got {rows}x{cols} with n = {n}"
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
        if !matches!(topology, TopologySpec::Torus { .. }) && (f.has("rows") || f.has("cols")) {
            return Err("spec.rows/cols are only meaningful for the torus topology".into());
        }
        let engine = engine_from_name(f.str("engine")?)?;
        if engine == EngineKind::Dense && topology != TopologySpec::Complete {
            return Err("the dense tier is count-based and runs only on the complete graph".into());
        }
        let seed = f.uint("seed")?;
        let steps = f.uint_in("steps", 1, MAX_EXACT_INT)?;
        let observe_every = f.uint_in("observe_every", 1, MAX_EXACT_INT)?;
        let init = match f.str("init")? {
            "balanced" => InitKind::Balanced,
            "single_minority" => InitKind::SingleMinority,
            other => {
                return Err(format!(
                    "spec.init must be balanced or single_minority; got `{other}`"
                ))
            }
        };
        let shock = match f.opt("shock") {
            None => None,
            Some(v) => {
                let sf = Fields::new(v, "spec.shock", &["kind", "at"])?;
                let kind = sf.str("kind")?;
                if !SHOCK_KINDS.contains(&kind) {
                    return Err(format!(
                        "spec.shock.kind must be one of {SHOCK_KINDS:?}, got `{kind}`"
                    ));
                }
                let at = sf.uint_in("at", 1, steps - 1)?;
                let resizes = kind == "add_agents" || kind == "remove_agents";
                if resizes && !topology.supports_resize() {
                    return Err(format!(
                        "shock `{kind}` resizes the population, but topology `{}` has no \
                         canonical resize",
                        topology.kind()
                    ));
                }
                Some(ShockSpec {
                    kind: kind.to_string(),
                    at,
                })
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
        let weights: Vec<String> = self.weights.iter().map(|w| format_f64(*w)).collect();
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
        let op = tag(doc, "request", "op")?;
        let known: &[&str] = match op {
            "submit" => &["schema_version", "op", "tenant", "job", "spec"],
            "snapshot" => &[
                "schema_version",
                "op",
                "tenant",
                "job",
                "path",
                "at",
                "stop",
            ],
            "resume" => &["schema_version", "op", "path"],
            "shutdown" => &["schema_version", "op"],
            other => {
                return Err(format!(
                    "op must be submit, snapshot, resume, or shutdown; got `{other}`"
                ))
            }
        };
        let f = Fields::new(doc, format!("{op} request"), known)?;
        Ok(match op {
            "submit" => Request::Submit {
                tenant: ident(&f, "tenant")?,
                job: ident(&f, "job")?,
                spec: JobSpec::from_doc(f.field("spec")?)?,
            },
            "snapshot" => Request::Snapshot {
                tenant: ident(&f, "tenant")?,
                job: ident(&f, "job")?,
                path: f.str("path")?.to_string(),
                at: f.uint("at")?,
                stop: f.bool_or("stop", Some(false))?,
            },
            "resume" => Request::Resume {
                path: f.str("path")?.to_string(),
            },
            _ => Request::Shutdown,
        })
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
    let kind = tag(doc, "event", "event")?;
    let fields: &[&str] = match kind {
        "accepted" => &["tenant", "job", "engine", "n", "steps"],
        "progress" => &[
            "tenant",
            "job",
            "clock",
            "target",
            "class_counts",
            "tenant_steps",
            "total_steps",
            "counters",
        ],
        "shock" => &["tenant", "job", "kind", "at", "n_after"],
        "snapshot" => &["tenant", "job", "path", "clock", "stopped"],
        "resumed" => &["tenant", "job", "clock", "target"],
        "done" => &[
            "tenant",
            "job",
            "clock",
            "class_counts",
            "tenant_steps",
            "total_steps",
            "bench",
        ],
        "error" => &["message"],
        "shutdown" => &["completed"],
        other => return Err(format!("unknown event kind `{other}`")),
    };
    let known: Vec<&str> = ["schema_version", "event"]
        .iter()
        .chain(fields)
        .copied()
        .collect();
    let f = Fields::new(doc, format!("{kind} event"), &known)?;
    // A field name means the same thing in every event that carries it;
    // every field not named here is a clock or a count.
    for &key in fields {
        match key {
            "tenant" | "job" => ident(&f, key).map(drop),
            "engine" => engine_from_name(f.str(key)?).map(drop),
            "kind" => f.read(key, "a shock label", |v| {
                v.as_str().filter(|k| SHOCK_KINDS.contains(k)).map(drop)
            }),
            "path" | "message" => f.str(key).map(drop),
            "stopped" => f.bool_or(key, Some(false)).map(drop),
            "bench" => f.str_or_null(key).map(drop),
            "class_counts" => {
                if f.array(key, "a whole number", whole)?.is_empty() {
                    Err(format!("field `{key}` in {kind} event must be non-empty"))
                } else {
                    Ok(())
                }
            }
            "counters" => f.read(key, "an object of numbers", |v| match v {
                Value::Obj(m) => m.values().all(|c| c.as_f64().is_some()).then_some(()),
                _ => None,
            }),
            _ => f.uint(key).map(drop),
        }?;
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
