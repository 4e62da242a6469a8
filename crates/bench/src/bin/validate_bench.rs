//! Validates `BENCH_*.json` artifacts against the result-JSON v1 schema and
//! runs the CI regression gate, with the stable exit codes the
//! Observability contract defines (EXPERIMENTS.md):
//!
//! - `0` — every file validated (and every requested gate passed);
//! - `2` — a file is unreadable, unparseable, or violates the v1 schema;
//! - `3` — schemas are fine but the gate failed (step-rate regression).
//!
//! Usage:
//!
//! ```text
//! validate_bench FILE.json...
//!     [--gate BASELINE.json FRESH.json]   # per-(n, engine) Msteps/s ratio
//!     [--min-ratio 0.70]                  # gate threshold (fresh/baseline)
//! ```
//!
//! The gate reproduces the bench-regression contract previously inlined as
//! CI python: every (n, engine) row present in both the baseline and the
//! fresh throughput report must retain at least `--min-ratio` of its
//! baseline step rate. The gate keys on the envelopes' `runner_class`
//! labels: when baseline and fresh carry the same non-null class the
//! floor is raised to at least 0.80 (same hardware answers for a 20%
//! band; unlabelled or cross-class comparisons keep the loose default).

use pp_bench::output::{EXIT_GATE_FAILURE, EXIT_SCHEMA_ERROR};
use pp_bench::schema::{self, Value};
use std::collections::BTreeMap;
use std::process::exit;

fn load_validated(path: &str) -> Value {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("schema error: cannot read `{path}`: {e}");
            exit(EXIT_SCHEMA_ERROR);
        }
    };
    let doc = match schema::parse(&body) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("schema error: `{path}`: {e}");
            exit(EXIT_SCHEMA_ERROR);
        }
    };
    if let Err(e) = schema::validate_v1(&doc) {
        eprintln!("schema error: `{path}` is not result-JSON v1: {e}");
        exit(EXIT_SCHEMA_ERROR);
    }
    doc
}

fn column_index(doc: &Value, name: &str) -> Option<usize> {
    doc.get("columns")?
        .as_arr()?
        .iter()
        .position(|c| c.as_str() == Some(name))
}

/// Rows excluded from the step-rate gates **by engine name**: the
/// obs-probe row reports ns/call, not a step rate (its `Msteps/s` cell
/// is `-`), so it is never a regression claim. A named list — rather
/// than a shape heuristic like "non-numeric `n`" — keeps the exclusion
/// explicit and greppable when new microbenchmark rows appear.
const GATE_EXCLUDED_ENGINES: &[&str] = &["obs-probe"];

/// `(n, engine) -> Msteps/s` for every gate-eligible row. Eligibility is
/// the named [`GATE_EXCLUDED_ENGINES`] list plus the key requirements:
/// a numeric population `n` and a numeric rate (both needed to form a
/// comparable `(n, engine)` entry).
fn rates(doc: &Value, path: &str) -> BTreeMap<String, f64> {
    let (Some(n_col), Some(e_col), Some(r_col)) = (
        column_index(doc, "n"),
        column_index(doc, "engine"),
        column_index(doc, "Msteps/s"),
    ) else {
        eprintln!("schema error: `{path}` lacks the n/engine/Msteps/s columns the gate needs");
        exit(EXIT_SCHEMA_ERROR);
    };
    let mut out = BTreeMap::new();
    for row in doc.get("rows").and_then(Value::as_arr).unwrap_or(&[]) {
        let cells = row.as_arr().unwrap_or(&[]);
        let (Some(n), Some(engine), Some(rate)) = (
            cells.get(n_col),
            cells.get(e_col).and_then(Value::as_str),
            cells.get(r_col).and_then(Value::as_f64),
        ) else {
            continue;
        };
        if GATE_EXCLUDED_ENGINES.iter().any(|ex| engine.contains(ex)) {
            continue;
        }
        let Value::Num(x) = n else { continue };
        let n_key = format!("{x}");
        out.insert(format!("n={n_key} engine={engine}"), rate);
    }
    out
}

/// The `runner_class` label of an artifact (absent and `null` are both
/// "unlabelled" — pre-label artifacts and ad-hoc local runs).
fn runner_class_of(doc: &Value) -> Option<String> {
    doc.get("runner_class")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Same-hardware comparisons answer for a tighter band than
/// cross-hardware ones: when baseline and fresh carry the same non-null
/// `runner_class`, the floor rises to at least this value (a 20% band
/// instead of the default 30%).
const SAME_CLASS_MIN_RATIO: f64 = 0.80;

/// The floor the gate actually enforces, given both artifacts' labels:
/// raised to [`SAME_CLASS_MIN_RATIO`] when the classes match and are
/// non-null, the caller's `min_ratio` otherwise (never lowered — a
/// stricter explicit `--min-ratio` always wins).
fn effective_min_ratio(min_ratio: f64, base: Option<&str>, fresh: Option<&str>) -> f64 {
    match (base, fresh) {
        (Some(b), Some(f)) if b == f => min_ratio.max(SAME_CLASS_MIN_RATIO),
        _ => min_ratio,
    }
}

fn gate(baseline_path: &str, fresh_path: &str, min_ratio: f64) -> bool {
    let base_doc = load_validated(baseline_path);
    let fresh_doc = load_validated(fresh_path);
    let (base_class, fresh_class) = (runner_class_of(&base_doc), runner_class_of(&fresh_doc));
    let min_ratio = effective_min_ratio(min_ratio, base_class.as_deref(), fresh_class.as_deref());
    println!(
        "gate: runner classes {} vs {} — min ratio {min_ratio}",
        base_class.as_deref().unwrap_or("(unlabelled)"),
        fresh_class.as_deref().unwrap_or("(unlabelled)"),
    );
    let baseline = rates(&base_doc, baseline_path);
    let fresh = rates(&fresh_doc, fresh_path);
    let mut ok = true;
    let mut compared = 0usize;
    for (key, &base) in &baseline {
        let Some(&new) = fresh.get(key) else {
            println!("gate: {key}: missing from fresh run (skipped)");
            continue;
        };
        compared += 1;
        let ratio = if base > 0.0 {
            new / base
        } else {
            f64::INFINITY
        };
        let verdict = if ratio >= min_ratio {
            "ok"
        } else {
            "REGRESSION"
        };
        println!("gate: {key}: baseline {base:.2} fresh {new:.2} ratio {ratio:.3} {verdict}");
        if ratio < min_ratio {
            ok = false;
        }
    }
    if compared == 0 {
        eprintln!("gate: no (n, engine) rows in common between baseline and fresh");
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut gate_paths: Option<(String, String)> = None;
    let mut min_ratio = 0.70_f64;
    let mut i = 0;
    let usage = "usage: validate_bench FILE.json... [--gate BASELINE FRESH] [--min-ratio R]";
    let arg_at = |args: &[String], i: usize| -> String {
        args.get(i).cloned().unwrap_or_else(|| {
            eprintln!("{usage}");
            exit(EXIT_SCHEMA_ERROR);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--gate" => {
                gate_paths = Some((arg_at(&args, i + 1), arg_at(&args, i + 2)));
                i += 3;
            }
            "--min-ratio" => {
                min_ratio = arg_at(&args, i + 1).parse().unwrap_or_else(|_| {
                    eprintln!("{usage}");
                    exit(EXIT_SCHEMA_ERROR);
                });
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`\n{usage}");
                exit(EXIT_SCHEMA_ERROR);
            }
            file => {
                files.push(file.to_string());
                i += 1;
            }
        }
    }
    if files.is_empty() && gate_paths.is_none() {
        eprintln!("{usage}");
        exit(EXIT_SCHEMA_ERROR);
    }

    for path in &files {
        load_validated(path);
        println!("valid: {path}");
    }
    if let Some((baseline, fresh)) = gate_paths {
        if !gate(&baseline, &fresh, min_ratio) {
            exit(EXIT_GATE_FAILURE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_class_tightens_the_floor_and_nothing_else_does() {
        let cases = [
            (Some("ci-4core"), Some("ci-4core"), 0.80),
            (Some("ci-4core"), Some("ci-2core"), 0.70),
            (Some("ci-4core"), None, 0.70),
            (None, Some("ci-4core"), 0.70),
            (None, None, 0.70),
        ];
        for (base, fresh, want) in cases {
            assert_eq!(
                effective_min_ratio(0.70, base, fresh),
                want,
                "classes {base:?} vs {fresh:?}"
            );
        }
        // An explicitly stricter CLI floor is never relaxed.
        assert_eq!(
            effective_min_ratio(0.90, Some("x"), Some("x")),
            0.90,
            "same-class must not lower a stricter explicit floor"
        );
    }

    #[test]
    fn runner_class_of_reads_string_and_treats_null_as_unlabelled() {
        let doc = schema::parse("{\"runner_class\":\"ci-4core\"}").unwrap();
        assert_eq!(runner_class_of(&doc).as_deref(), Some("ci-4core"));
        let doc = schema::parse("{\"runner_class\":null}").unwrap();
        assert_eq!(runner_class_of(&doc), None);
        let doc = schema::parse("{}").unwrap();
        assert_eq!(runner_class_of(&doc), None);
    }
}
