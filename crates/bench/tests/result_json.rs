//! Integration tests for the result-JSON v1 contract:
//!
//! - property tests pushing hostile strings (control characters, quotes,
//!   backslashes, non-ASCII, astral planes) through the writer and back
//!   through the hand-rolled parser, asserting exact round-trips;
//! - a schema-conformance pass building an envelope for every experiment
//!   of `experiments::ALL` through the real writer and validating each one;
//! - the bins against the registry, and the `engine` label the bins write.

use pp_bench::experiments::{Report, ALL};
use pp_bench::output::{json_cell, result_json_v1, validate_json};
use pp_bench::schema::{self, Value};
use pp_stats::Table;
use proptest::prelude::*;

/// Arbitrary Unicode strings, surrogates excluded by `char::from_u32`.
fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..32)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Strings drawn from the characters most likely to break a JSON escaper.
fn hostile_string() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> =
        "\"\\\n\r\t\u{0}\u{7}\u{1b}\u{7f}/<>&'\u{2028}\u{2029}é…🦀\u{10FFFF} a0."
            .chars()
            .collect();
    prop::collection::vec(0usize..alphabet.len(), 0..48)
        .prop_map(move |idxs| idxs.into_iter().map(|i| alphabet[i]).collect())
}

/// Builds an envelope carrying `s` in every string position (title, note,
/// param value, table cell), parses it back, and checks the round-trip.
fn assert_round_trips(s: &str) -> Result<(), TestCaseError> {
    let mut table = Table::new(["payload"]);
    table.row([s.to_string()]);
    // v1 requires a non-empty title, so the payload rides behind a prefix
    // there; notes, params, and cells carry it verbatim.
    let title = format!("t:{s}");
    let mut report = Report::new(&title, table);
    report.note(s);
    report.param("p", s);
    let json = result_json_v1("prop_round_trip", &report, "quick", 1.0, None);
    prop_assert!(
        validate_json(&json).is_ok(),
        "writer emitted invalid v1 for {s:?}: {:?}",
        validate_json(&json)
    );
    let doc = schema::parse(&json)
        .map_err(|e| TestCaseError::fail(format!("unparseable envelope for {s:?}: {e}")))?;
    prop_assert_eq!(
        doc.get("title").and_then(Value::as_str),
        Some(title.as_str())
    );
    prop_assert_eq!(
        doc.get("notes")
            .and_then(Value::as_arr)
            .and_then(|a| a[0].as_str()),
        Some(s)
    );
    // Cells and params are *typed* by the writer: numeric-looking text
    // becomes a JSON number, everything else must survive verbatim.
    let cell = &doc.get("rows").unwrap().as_arr().unwrap()[0]
        .as_arr()
        .unwrap()[0];
    let param = doc.get("params").unwrap().get("p").unwrap();
    for v in [cell, param] {
        match v {
            Value::Str(got) => prop_assert_eq!(got.as_str(), s),
            Value::Num(x) => {
                let expect: f64 = s.trim().parse().map_err(|_| {
                    TestCaseError::fail(format!("{s:?} typed as number {x} but does not parse"))
                })?;
                prop_assert_eq!(*x, expect);
            }
            other => prop_assert!(false, "cell for {s:?} became {other:?}"),
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_unicode_round_trips(s in any_string()) {
        assert_round_trips(&s)?;
    }

    #[test]
    fn hostile_characters_round_trip(s in hostile_string()) {
        assert_round_trips(&s)?;
    }

    #[test]
    fn typed_cells_agree_with_the_parser(s in hostile_string()) {
        // Whatever `json_cell` emits must be exactly one parseable JSON
        // value — no cell may corrupt the surrounding envelope.
        let rendered = json_cell(&s);
        let parsed = schema::parse(&rendered);
        prop_assert!(parsed.is_ok(), "json_cell({s:?}) = {rendered} unparseable");
    }
}

#[test]
fn every_bin_envelope_conforms_to_v1() {
    // The conformance pass: one envelope per experiment bin, through the
    // real writer, with the report shapes the bins actually produce
    // (engine set or null, params, multi-line notes, typed cells).
    for (i, name) in ALL.iter().map(|e| e.id).enumerate() {
        let mut table = Table::new(["n", "engine", "value"]);
        table.row(["1000".to_string(), "dense".to_string(), "0.5".to_string()]);
        table.row(["-".to_string(), format!("{name} row"), "3.2e9".to_string()]);
        let mut report = Report::new(format!("conformance sweep for {name}"), table);
        report.note(format!("bin #{i}: line one\nline two"));
        report.param("seed", 100 + i);
        if i % 2 == 0 {
            report.set_engine("multi");
        }
        if i % 3 == 0 {
            report.set_steps_per_sec(1.25e9);
        }
        let json = result_json_v1(name, &report, "quick", 7.5, None);
        validate_json(&json)
            .unwrap_or_else(|e| panic!("bin `{name}` envelope failed v1 validation: {e}"));
        let doc = schema::parse(&json).unwrap();
        assert_eq!(doc.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_f64),
            Some(1.0),
            "bin `{name}` must stamp schema_version 1"
        );
    }
}

#[test]
fn bins_are_exactly_the_registry() {
    let mut ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate id in experiments::ALL");
    let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut stems: Vec<String> = std::fs::read_dir(bin_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .filter(|stem| stem != "validate_bench")
        .collect();
    stems.sort_unstable();
    assert_eq!(
        stems, ids,
        "bins other than validate_bench must be the ALL ids"
    );
}

#[test]
fn envelopes_name_the_tier_their_rows_ran_on() {
    // The label comes from the experiment, never from PP_ENGINE's default
    // (dense): fig1 runs the agent simulator only, t15 the per-agent tier
    // nearest dense (packed), and t14 every tier.
    let dir = std::env::temp_dir().join(format!("pp_bench_engine_label_{}", std::process::id()));
    for (name, bin, engine) in [
        ("fig1_phases", env!("CARGO_BIN_EXE_fig1_phases"), "agent"),
        (
            "t15_sbm_blocks",
            env!("CARGO_BIN_EXE_t15_sbm_blocks"),
            "packed",
        ),
        (
            "t14_adversary",
            env!("CARGO_BIN_EXE_t14_adversary"),
            "multi",
        ),
    ] {
        let out = std::process::Command::new(bin)
            .env_remove("PP_ENGINE")
            .env_remove("PP_PRESET")
            .env_remove("PP_OBS")
            .env("PP_BENCH_DIR", &dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{name} exited {}", out.status);
        let json = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).unwrap();
        let doc = schema::parse(&json).unwrap();
        let label = doc.get("engine").and_then(Value::as_str);
        assert_eq!(label, Some(engine), "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recorder_dump_embeds_and_validates() {
    // The recorder's own JSON must compose with the envelope: record through
    // the always-compiled API, embed the dump, and validate the result.
    pp_obs::reset();
    pp_obs::counter_add("it.counter", 3);
    pp_obs::record_value("it.hist", 17);
    pp_obs::event("it.event", "tag", "detail with \"quotes\" and \\slashes\\");
    let dump = pp_obs::dump().to_json();
    let mut table = Table::new(["k"]);
    table.row(["v"]);
    let report = Report::new("recorder embed", table);
    let json = result_json_v1("it_recorder", &report, "full", 2.0, Some(&dump));
    validate_json(&json).expect("envelope with embedded recorder must validate");
    let doc = schema::parse(&json).unwrap();
    let recorder = doc.get("recorder").expect("recorder object present");
    assert_eq!(
        recorder
            .get("counters")
            .and_then(|c| c.get("it.counter"))
            .and_then(Value::as_f64),
        Some(3.0)
    );
    assert!(recorder
        .get("histograms")
        .and_then(|h| h.get("it.hist"))
        .is_some());
    pp_obs::reset();
}
