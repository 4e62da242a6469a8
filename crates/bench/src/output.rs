//! The result-JSON v1 writer: one machine-readable envelope for every bin.
//!
//! Every experiment bin goes through [`run_bin`] (via
//! [`crate::experiments::main`]), which runs the experiment, prints the
//! human table, wraps the [`Report`] in the versioned envelope documented
//! in [`crate::schema`], **self-validates** it with the hand-rolled parser,
//! and writes `BENCH_<name>.json` (into `PP_BENCH_DIR`, created if
//! missing, else the working directory).
//!
//! Exit codes are part of the contract (EXPERIMENTS.md "Observability"):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | run completed, envelope written (or write warned on read-only dirs) |
//! | 2    | schema error — the envelope failed v1 validation |
//! | 3    | gate failure — the report's gate failed (t16) or a regression gate tripped (`validate_bench`) |
//!
//! Cells from [`pp_stats::Table`] are strings; the writer types them:
//! integer-looking cells become JSON integers, finite float-looking cells
//! become JSON numbers, everything else stays a string. String escaping is
//! shared with the recorder ([`pp_obs::json`]), so the workspace has exactly
//! one JSON escaper.

use crate::experiments::Report;
use crate::schema;
use pp_obs::json::quote;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The envelope version this writer emits.
pub const SCHEMA_VERSION: u32 = 1;

/// Process exit code: run completed and the envelope validated.
pub const EXIT_OK: i32 = 0;
/// Process exit code: the result JSON failed v1 schema validation.
pub const EXIT_SCHEMA_ERROR: i32 = 2;
/// Process exit code: a gate failed (a step-rate regression or a model-check
/// invariant).
pub const EXIT_GATE_FAILURE: i32 = 3;

fn string_array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let quoted: Vec<String> = items.into_iter().map(|s| quote(s.as_ref())).collect();
    format!("[{}]", quoted.join(", "))
}

/// Types a table cell for the envelope: integers and finite floats become
/// JSON numbers (only when the text round-trips, so `007` or `1_000` stay
/// strings), everything else is a JSON string.
pub fn json_cell(cell: &str) -> String {
    let t = cell.trim();
    if let Ok(i) = t.parse::<i64>() {
        if i.to_string() == t {
            return i.to_string();
        }
    }
    let digits = t.trim_start_matches(['+', '-']);
    let leading_zero = digits.len() > 1 && digits.starts_with('0') && !digits.starts_with("0.");
    if !leading_zero
        && t.bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        if let Ok(x) = t.parse::<f64>() {
            if x.is_finite() {
                return format_f64(x);
            }
        }
    }
    quote(cell)
}

/// Formats a finite float as a JSON number (Rust's shortest round-trip
/// `Display`, with a `.0` appended to integral values so the cell stays
/// visibly a float).
pub fn format_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The hardware-class label this process stamps into envelopes:
/// `PP_RUNNER_CLASS` when set and non-empty, else `None` (written as
/// `null`). Free-form — CI sets e.g. `ci-4core` so the regression gate
/// can tell same-hardware comparisons (tight band) from cross-hardware
/// ones (loose band).
pub fn runner_class() -> Option<String> {
    std::env::var("PP_RUNNER_CLASS")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Renders a [`Report`] as a result-JSON v1 envelope.
///
/// `recorder_json` is the pre-rendered [`pp_obs::Dump::to_json`] object when
/// `PP_OBS=json`, else `None` (serialized as `null`).
pub fn result_json_v1(
    name: &str,
    report: &Report,
    preset: &str,
    wall_ms: f64,
    recorder_json: Option<&str>,
) -> String {
    let rows: Vec<String> = report
        .table
        .rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|c| json_cell(c)).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), json_cell(v)))
        .collect();
    format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"name\": {name},\n  \"title\": {title},\n  \
         \"engine\": {engine},\n  \"preset\": {preset},\n  \"params\": {{{params}}},\n  \
         \"columns\": {columns},\n  \"rows\": [\n    {rows}\n  ],\n  \"notes\": {notes},\n  \
         \"wall_ms\": {wall_ms},\n  \"steps_per_sec\": {rate},\n  \
         \"runner_class\": {class},\n  \"recorder\": {recorder}\n}}\n",
        name = quote(name),
        title = quote(&report.title),
        engine = match &report.engine {
            Some(e) => quote(e),
            None => "null".to_string(),
        },
        preset = quote(preset),
        params = params.join(", "),
        columns = string_array(report.table.header().iter()),
        rows = rows.join(",\n    "),
        notes = string_array(report.notes.iter()),
        wall_ms = format_f64(wall_ms.max(0.0)),
        rate = match report.steps_per_sec {
            Some(r) if r.is_finite() && r >= 0.0 => format_f64(r),
            _ => "null".to_string(),
        },
        class = match runner_class() {
            Some(c) => quote(&c),
            None => "null".to_string(),
        },
        recorder = recorder_json.unwrap_or("null"),
    )
}

/// The output path for experiment `name`: `$PP_BENCH_DIR/BENCH_<name>.json`
/// (or the working directory when `PP_BENCH_DIR` is unset).
pub fn bench_path(name: &str) -> PathBuf {
    let dir = std::env::var("PP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    PathBuf::from(dir).join(format!("BENCH_{name}.json"))
}

/// Writes `json` to `dir/BENCH_<name>.json`, **creating the directory** if
/// it does not exist; returns the path written.
///
/// # Errors
///
/// Returns an error naming the directory when it cannot be created, or
/// propagates the write failure.
pub fn write_json_to(dir: &Path, name: &str, json: &str) -> std::io::Result<PathBuf> {
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(dir).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("cannot create bench dir `{}`: {e}", dir.display()),
            )
        })?;
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(json.as_bytes())?;
    Ok(path)
}

/// Writes `json` to [`bench_path`]`(name)`, creating `PP_BENCH_DIR` if it
/// does not exist (previously a missing directory made every write fail
/// silently at the `File::create`).
///
/// # Errors
///
/// See [`write_json_to`].
pub fn write_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = bench_path(name);
    let dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
    write_json_to(&dir, name, json)
}

/// Validates `json` against the v1 schema.
///
/// # Errors
///
/// Returns the first parse or schema violation, human-readable.
pub fn validate_json(json: &str) -> Result<(), String> {
    let doc = schema::parse(json).map_err(|e| e.to_string())?;
    schema::validate_v1(&doc)
}

/// The standard main body of every experiment bin: validates `PP_OBS`,
/// reads the preset, runs `f`, prints the report, and writes the
/// self-validated result-JSON v1 envelope to `BENCH_<name>.json`. Never
/// returns; the process exits with [`EXIT_SCHEMA_ERROR`] if the envelope
/// is invalid, else with [`EXIT_GATE_FAILURE`] if the report's gate
/// failed, else with [`EXIT_OK`].
///
/// A failed *write* (e.g. read-only working directory) warns but still
/// exits 0 — the run itself succeeded, and CI treats the artifact as
/// optional in that configuration.
pub fn run_bin(name: &str, f: impl FnOnce(crate::Preset) -> Report) -> ! {
    pp_obs::init_from_env();
    let preset = crate::Preset::from_env();
    let start = Instant::now();
    let report = f(preset);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    report.print();
    let recorder_json = if pp_obs::sink() == pp_obs::Sink::Json {
        Some(pp_obs::dump().to_json())
    } else {
        None
    };
    let json = result_json_v1(
        name,
        &report,
        preset.name(),
        wall_ms,
        recorder_json.as_deref(),
    );
    if let Err(e) = validate_json(&json) {
        eprintln!("error: refusing to write invalid result JSON for `{name}`: {e}");
        std::process::exit(EXIT_SCHEMA_ERROR);
    }
    match write_json(name, &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_{name}.json: {err}"),
    }
    pp_obs::flush_to_stderr();
    std::process::exit(if report.gate_failed {
        EXIT_GATE_FAILURE
    } else {
        EXIT_OK
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_stats::Table;

    fn sample_report() -> Report {
        let mut table = Table::new(["n", "weights", "err"]);
        table.row(["1024", "(1,3.0)", "0.0316"]);
        table.row(["2048", "naïve 🦀", "-1.5e3"]);
        let mut report = Report::new("demo \"quoted\"", table);
        report.note("slope = 1.0\nsecond line");
        report.set_engine("dense");
        report.param("seed", 100);
        report.param("topology", "complete");
        report
    }

    #[test]
    fn envelope_validates_and_escapes() {
        let json = result_json_v1("unit_demo", &sample_report(), "quick", 12.5, None);
        validate_json(&json).expect("writer must emit valid v1");
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("demo \\\"quoted\\\""));
        assert!(json.contains("slope = 1.0\\nsecond line"));
        // Typed cells: ints as ints, floats as floats, text quoted.
        assert!(json.contains("[1024, \"(1,3.0)\", 0.0316]"));
        assert!(json.contains("[2048, \"naïve 🦀\", -1500.0]"));
        assert!(json.contains("\"seed\": 100"));
    }

    #[test]
    fn cells_round_trip_through_the_parser() {
        let json = result_json_v1("unit_demo", &sample_report(), "quick", 1.0, None);
        let doc = schema::parse(&json).unwrap();
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[0].as_f64(), Some(1024.0));
        assert_eq!(
            rows[0].as_arr().unwrap()[1].as_str(),
            Some("(1,3.0)"),
            "comma cells stay strings"
        );
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("naïve 🦀"));
        assert_eq!(rows[1].as_arr().unwrap()[2].as_f64(), Some(-1500.0));
        assert_eq!(
            doc.get("params").unwrap().get("seed").unwrap().as_f64(),
            Some(100.0)
        );
    }

    #[test]
    fn json_cell_typing_rules() {
        assert_eq!(json_cell("42"), "42");
        assert_eq!(json_cell("-7"), "-7");
        assert_eq!(json_cell("0.5"), "0.5");
        assert_eq!(json_cell("1.5e3"), "1500.0");
        assert_eq!(json_cell("007"), "\"007\"", "leading zeros stay text");
        assert_eq!(json_cell("1_000"), "\"1_000\"");
        assert_eq!(json_cell("NaN"), "\"NaN\"", "non-finite stays text");
        assert_eq!(json_cell("inf"), "\"inf\"");
        assert_eq!(json_cell("3/4"), "\"3/4\"");
        assert_eq!(json_cell(""), "\"\"");
        assert_eq!(json_cell("1.2.3"), "\"1.2.3\"");
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let mut table = Table::new(["payload"]);
        let hostile = "quote:\" backslash:\\ newline:\n tab:\t bell:\u{7} unicode:héllo…🦀";
        table.row([hostile]);
        let mut report = Report::new("hostile", table);
        report.note(hostile);
        let json = result_json_v1("unit_hostile", &report, "quick", 0.0, None);
        validate_json(&json).expect("hostile strings must still validate");
        let doc = schema::parse(&json).unwrap();
        let cell = doc.get("rows").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap()[0]
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(cell, hostile, "escape/parse must round-trip exactly");
        assert_eq!(
            doc.get("notes").unwrap().as_arr().unwrap()[0].as_str(),
            Some(hostile)
        );
    }

    #[test]
    fn recorder_embeds_as_object() {
        let dump_json =
            "{\"counters\":{\"x\":1},\"histograms\":{},\"events\":[],\"dropped_events\":0}";
        let json = result_json_v1("unit_rec", &sample_report(), "full", 3.0, Some(dump_json));
        validate_json(&json).unwrap();
        let doc = schema::parse(&json).unwrap();
        assert_eq!(
            doc.get("recorder")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("x")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn runner_class_rides_the_envelope() {
        // Single test owns PP_RUNNER_CLASS (sibling tests never set it),
        // so the unset → set → unset sequence is race-free in practice.
        std::env::remove_var("PP_RUNNER_CLASS");
        let json = result_json_v1("unit_class", &sample_report(), "quick", 1.0, None);
        validate_json(&json).unwrap();
        assert!(json.contains("\"runner_class\": null"));

        std::env::set_var("PP_RUNNER_CLASS", "ci-4core");
        let json = result_json_v1("unit_class", &sample_report(), "quick", 1.0, None);
        std::env::remove_var("PP_RUNNER_CLASS");
        validate_json(&json).unwrap();
        let doc = schema::parse(&json).unwrap();
        assert_eq!(
            doc.get("runner_class").unwrap().as_str(),
            Some("ci-4core"),
            "the label must round-trip through the parser"
        );
    }

    #[test]
    fn write_creates_missing_directory() {
        // The satellite fix: PP_BENCH_DIR pointing at a not-yet-existing
        // directory must be created, not silently fail the write. Uses the
        // explicit-directory writer (mutating PP_BENCH_DIR would race
        // sibling tests reading the environment).
        let dir = std::env::temp_dir()
            .join("pp_bench_output_test")
            .join("nested")
            .join("deeper");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!dir.exists());
        let json = result_json_v1("unit_mkdir", &sample_report(), "quick", 1.0, None);
        let path = write_json_to(&dir, "unit_mkdir", &json).unwrap();
        assert!(path.ends_with("BENCH_unit_mkdir.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        validate_json(&body).unwrap();
        std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).unwrap();
    }

    #[test]
    fn empty_table_still_validates() {
        let report = Report::new("empty", Table::new(["only_header"]));
        let json = result_json_v1("unit_empty", &report, "quick", 0.0, None);
        validate_json(&json).expect("zero-row envelope must validate");
    }
}
