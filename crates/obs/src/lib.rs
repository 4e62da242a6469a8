//! Run-level instrumentation for the simulation engines and bench harness.
//!
//! The recorder is a process-wide set of **named monotonic counters**,
//! **log2-bucketed histograms**, and **timestamped trace events**. It is
//! always compiled in. Hot code reports through the [`obs_count!`],
//! [`obs_value!`], and [`obs_event!`] macros, which guard every argument
//! behind [`enabled()`]: one read of the sink that `PP_OBS` selected,
//! parsed once per process. With `PP_OBS` unset a call site costs that
//! branch and nothing else, and its arguments are never evaluated; call
//! sites instrument block/batch boundaries, never per-step inner loops.
//!
//! `PP_OBS` selects where recordings go (unknown values panic with the
//! accepted list, matching the `PP_PRESET`/`PP_ENGINE` convention):
//!
//! | value   | behaviour |
//! |---------|-----------|
//! | unset / `off` | recorder disabled |
//! | `table` | human-readable dump to stderr at end of run |
//! | `jsonl` | events stream to stderr as they happen; counters/histograms follow as JSONL at end of run |
//! | `json`  | dump embedded in the bin's result-JSON envelope under `"recorder"` |
//!
//! The crate is dependency-free; the result-JSON writer in `pp-bench` reuses
//! [`json::escape`] so the whole workspace has exactly one JSON string
//! escaper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b >= 1`
/// holds values in `[2^(b-1), 2^b - 1]` (b = bit length), up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// Trace events beyond this cap are counted in `dropped_events` instead of
/// stored, so a hot loop wired to `obs_event!` by mistake cannot OOM a run.
pub const EVENT_CAP: usize = 65_536;

/// Where recordings go, selected once per process from `PP_OBS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Recorder disabled (the default).
    Off,
    /// Human-readable dump to stderr at end of run.
    Table,
    /// Events stream to stderr immediately; summary as JSONL at end of run.
    Jsonl,
    /// Dump embedded in the result-JSON envelope by the bench writer.
    Json,
}

impl Sink {
    /// The `PP_OBS` spelling of this sink.
    pub fn name(self) -> &'static str {
        match self {
            Sink::Off => "off",
            Sink::Table => "table",
            Sink::Jsonl => "jsonl",
            Sink::Json => "json",
        }
    }

    /// Parses a `PP_OBS` value.
    ///
    /// # Panics
    ///
    /// Panics on anything other than `off`/`table`/`jsonl`/`json`
    /// (case-insensitive), listing the accepted values — the same fail-fast
    /// convention as `Preset::from_env` and `EngineKind::from_env`.
    pub fn parse(v: &str) -> Sink {
        match v.to_ascii_lowercase().as_str() {
            "" | "off" => Sink::Off,
            "table" => Sink::Table,
            "jsonl" => Sink::Jsonl,
            "json" => Sink::Json,
            other => panic!(
                "PP_OBS must be one of `off`, `table`, `jsonl`, `json` (unset = off), got `{other}`"
            ),
        }
    }
}

/// The sink selected by `PP_OBS`, parsed (and validated) once per process.
pub fn sink() -> Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    *SINK.get_or_init(|| match std::env::var("PP_OBS") {
        Ok(v) => Sink::parse(&v),
        Err(_) => Sink::Off,
    })
}

/// Whether the recorder is live. This is the guard the macros expand to.
#[inline]
pub fn enabled() -> bool {
    sink() != Sink::Off
}

/// Validates `PP_OBS`. Bench bins call this on startup so a typo fails
/// before the run instead of after it.
///
/// # Panics
///
/// Panics on an unknown `PP_OBS` value (see [`Sink::parse`]).
pub fn init_from_env() {
    sink();
}

/// Increments counter `name` by `delta` **if** the recorder is live.
///
/// Call sites should sit on batch/block boundaries, accumulating in locals
/// inside hot loops and flushing once per batch.
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, $delta as u64);
        }
    };
}

/// Records `value` into the log2 histogram `name` **if** the recorder is
/// live.
#[macro_export]
macro_rules! obs_value {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::record_value($name, $value as u64);
        }
    };
}

/// Records a timestamped trace event **if** the recorder is live. The
/// `detail` format arguments are not evaluated when disabled.
#[macro_export]
macro_rules! obs_event {
    ($name:expr, $tag:expr, $($detail:tt)*) => {
        if $crate::enabled() {
            $crate::event($name, $tag, &format!($($detail)*));
        }
    };
}

#[derive(Debug, Clone, Copy)]
struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The log2 bucket index of a value: 0 for 0, else the bit length.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The half-open value range `[lo, hi]` covered by a bucket index.
pub fn bucket_range(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        (1u64 << (b - 1), (1u64 << (b - 1)) | ((1u64 << (b - 1)) - 1))
    }
}

struct EventBuf {
    events: Vec<Event>,
    dropped: u64,
}

#[derive(Debug, Clone)]
struct Event {
    t_us: u64,
    name: &'static str,
    tag: &'static str,
    detail: String,
}

struct Recorder {
    start: Instant,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<&'static str, Hist>>,
    events: Mutex<EventBuf>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        start: Instant::now(),
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        events: Mutex::new(EventBuf {
            events: Vec::new(),
            dropped: 0,
        }),
    })
}

/// Adds `delta` to the named monotonic counter, whether or not a sink is
/// selected. Prefer [`obs_count!`], which skips the call (and the lock)
/// when the recorder is off; this entry point is for code that already
/// checked [`enabled()`] once for a batch of counters.
pub fn counter_add(name: &'static str, delta: u64) {
    counter_add_dyn(name, delta);
}

/// Adds `delta` to a counter whose name is built at run time — e.g. the
/// per-tenant `serve.steps.<tenant>` counters in `pp-serve`, where the set
/// of tenants is only known when jobs arrive. Hot loops should prefer
/// [`obs_count!`] with a static name; this entry point allocates the key on
/// first use of each name.
pub fn counter_add_dyn(name: &str, delta: u64) {
    let r = recorder();
    let mut c = r.counters.lock().unwrap();
    if let Some(slot) = c.get_mut(name) {
        *slot += delta;
    } else {
        c.insert(name.to_string(), delta);
    }
}

/// Records `value` into the named log2 histogram. Prefer [`obs_value!`].
pub fn record_value(name: &'static str, value: u64) {
    let r = recorder();
    let mut h = r.hists.lock().unwrap();
    h.entry(name).or_insert_with(Hist::new).record(value);
}

/// Records a timestamped trace event. Prefer [`obs_event!`]. With the
/// `jsonl` sink active the event is also streamed to stderr immediately.
pub fn event(name: &'static str, tag: &'static str, detail: &str) {
    let r = recorder();
    let t_us = r.start.elapsed().as_micros() as u64;
    if sink() == Sink::Jsonl {
        eprintln!(
            "{{\"t_us\":{t_us},\"event\":{},\"tag\":{},\"detail\":{}}}",
            json::quote(name),
            json::quote(tag),
            json::quote(detail)
        );
    }
    let mut buf = r.events.lock().unwrap();
    if buf.events.len() < EVENT_CAP {
        buf.events.push(Event {
            t_us,
            name,
            tag,
            detail: detail.to_string(),
        });
    } else {
        buf.dropped += 1;
    }
}

/// One histogram in a [`Dump`]: summary statistics plus the sparse list of
/// non-empty `(bucket, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistDump {
    /// Histogram name as passed to [`obs_value!`].
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs; see [`bucket_range`].
    pub buckets: Vec<(u32, u64)>,
}

/// One trace event in a [`Dump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDump {
    /// Microseconds since the recorder was first touched.
    pub t_us: u64,
    /// Event name as passed to [`obs_event!`].
    pub name: String,
    /// Event tag (a short category within the name).
    pub tag: String,
    /// Rendered detail text.
    pub detail: String,
}

/// An immutable snapshot of the recorder, renderable as JSON (for the
/// result envelope) or as an aligned human table (for stderr).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dump {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Log2 histograms, sorted by name.
    pub histograms: Vec<HistDump>,
    /// Trace events in recording order (capped at [`EVENT_CAP`]).
    pub events: Vec<EventDump>,
    /// Events discarded after the cap was hit.
    pub dropped_events: u64,
}

impl Dump {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
    }

    /// The dump as a self-contained JSON object (the `"recorder"` field of
    /// the result-JSON v1 envelope).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::quote(name)));
        }
        s.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            s.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json::quote(&h.name),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                buckets.join(",")
            ));
        }
        s.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"t_us\":{},\"event\":{},\"tag\":{},\"detail\":{}}}",
                e.t_us,
                json::quote(&e.name),
                json::quote(&e.tag),
                json::quote(&e.detail)
            ));
        }
        s.push_str(&format!("],\"dropped_events\":{}}}", self.dropped_events));
        s
    }

    /// The dump as an aligned human-readable block (the `table` sink).
    pub fn render_table(&self) -> String {
        let mut out = String::from("== recorder dump ==\n");
        if self.is_empty() {
            out.push_str("(nothing recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<w$}  {v}\n"));
            }
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram {} (count {}, min {}, max {}, mean {:.1}):\n",
                h.name,
                h.count,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                }
            ));
            for &(b, c) in &h.buckets {
                let (lo, hi) = bucket_range(b as usize);
                out.push_str(&format!("  [{lo:>12} .. {hi:>12}]  {c}\n"));
            }
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            out.push_str(&format!(
                "events ({} recorded, {} dropped):\n",
                self.events.len(),
                self.dropped_events
            ));
            for e in &self.events {
                out.push_str(&format!(
                    "  {:>10} us  {} [{}] {}\n",
                    e.t_us, e.name, e.tag, e.detail
                ));
            }
        }
        out
    }
}

/// Snapshots the recorder.
pub fn dump() -> Dump {
    let r = recorder();
    let counters = r
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(n, &v)| (n.clone(), v))
        .collect();
    let histograms = r
        .hists
        .lock()
        .unwrap()
        .iter()
        .map(|(&n, h)| HistDump {
            name: n.to_string(),
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: (0..HIST_BUCKETS)
                .filter(|&b| h.buckets[b] > 0)
                .map(|b| (b as u32, h.buckets[b]))
                .collect(),
        })
        .collect();
    let buf = r.events.lock().unwrap();
    Dump {
        counters,
        histograms,
        events: buf
            .events
            .iter()
            .map(|e| EventDump {
                t_us: e.t_us,
                name: e.name.to_string(),
                tag: e.tag.to_string(),
                detail: e.detail.clone(),
            })
            .collect(),
        dropped_events: buf.dropped,
    }
}

/// Clears all counters, histograms, and events (tests and A/B loops).
pub fn reset() {
    let r = recorder();
    r.counters.lock().unwrap().clear();
    r.hists.lock().unwrap().clear();
    let mut buf = r.events.lock().unwrap();
    buf.events.clear();
    buf.dropped = 0;
}

/// End-of-run flush for the stderr sinks: `table` renders the human dump,
/// `jsonl` emits one summary line per counter/histogram. The `json` sink is
/// flushed by the result-JSON writer instead, and `off` does nothing.
pub fn flush_to_stderr() {
    match sink() {
        Sink::Off | Sink::Json => {}
        Sink::Table => eprint!("{}", dump().render_table()),
        Sink::Jsonl => {
            let d = dump();
            for (name, v) in &d.counters {
                eprintln!("{{\"counter\":{},\"value\":{v}}}", json::quote(name));
            }
            for h in &d.histograms {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(b, c)| format!("[{b},{c}]"))
                    .collect();
                eprintln!(
                    "{{\"histogram\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    json::quote(&h.name),
                    h.count,
                    h.sum,
                    buckets.join(",")
                );
            }
            if d.dropped_events > 0 {
                eprintln!("{{\"dropped_events\":{}}}", d.dropped_events);
            }
        }
    }
}

/// JSON string escaping shared by the recorder and the bench result writer.
pub mod json {
    /// Escapes a string for inclusion inside JSON quotes: `"`, `\`, the
    /// common control escapes, and `\u00XX` for remaining control bytes.
    /// Non-ASCII text passes through as UTF-8.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// `escape` wrapped in quotes.
    pub fn quote(s: &str) -> String {
        format!("\"{}\"", escape(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_dump_sorted() {
        counter_add("test.z_counter", 2);
        counter_add("test.a_counter", 1);
        counter_add("test.z_counter", 3);
        let d = dump();
        let get = |n: &str| {
            d.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|&(_, v)| v)
        };
        assert_eq!(get("test.z_counter"), Some(5));
        assert_eq!(get("test.a_counter"), Some(1));
        let names: Vec<&str> = d.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "dump must be deterministically ordered");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(3), (4, 7));
        for v in [0u64, 1, 7, 8, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        for v in [1u64, 2, 3, 100] {
            record_value("test.hist_stats", v);
        }
        let d = dump();
        let h = d
            .histograms
            .iter()
            .find(|h| h.name == "test.hist_stats")
            .expect("histogram recorded");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4);
    }

    #[test]
    fn events_record_and_render() {
        event("test.shock", "inject_colour", "recruits=5");
        let d = dump();
        let e = d
            .events
            .iter()
            .find(|e| e.name == "test.shock")
            .expect("event recorded");
        assert_eq!(e.tag, "inject_colour");
        assert_eq!(e.detail, "recruits=5");
        let json = d.to_json();
        assert!(json.contains("\"inject_colour\""));
        let table = d.render_table();
        assert!(table.contains("inject_colour"));
    }

    #[test]
    fn dump_json_is_minimally_wellformed() {
        counter_add("test.json \"quoted\"\n", 1);
        record_value("test.json_hist", 9);
        let json = dump().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"quoted\\\"\\n"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces in {json}"
        );
    }

    #[test]
    fn sink_parse_accepts_known_values() {
        assert_eq!(Sink::parse("off"), Sink::Off);
        assert_eq!(Sink::parse(""), Sink::Off);
        assert_eq!(Sink::parse("TABLE"), Sink::Table);
        assert_eq!(Sink::parse("jsonl"), Sink::Jsonl);
        assert_eq!(Sink::parse("json"), Sink::Json);
    }

    #[test]
    #[should_panic(expected = "PP_OBS must be one of")]
    fn sink_parse_rejects_unknown_values() {
        Sink::parse("tables");
    }

    #[test]
    fn macros_do_nothing_when_disabled() {
        // With no PP_OBS sink the macro arguments must not be evaluated.
        if !enabled() {
            let mut evaluated = false;
            obs_count!("test.macro_off", {
                evaluated = true;
                1u64
            });
            obs_value!("test.macro_off", {
                evaluated = true;
                1u64
            });
            obs_event!("test.macro_off", "tag", "{}", {
                evaluated = true;
                1u64
            });
            assert!(!evaluated, "disabled macros must not evaluate arguments");
            let d = dump();
            assert!(!d.counters.iter().any(|(n, _)| n == "test.macro_off"));
        }
    }

    #[test]
    fn escape_round_trip_basics() {
        assert_eq!(json::escape("plain"), "plain");
        assert_eq!(json::escape("a\"b"), "a\\\"b");
        assert_eq!(json::escape("a\\b"), "a\\\\b");
        assert_eq!(json::escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
        assert_eq!(json::escape("naïve 🦀"), "naïve 🦀");
        assert_eq!(json::quote("x"), "\"x\"");
    }
}
