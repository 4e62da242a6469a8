//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the simulator. A span's layer is the prefix of its
//! name before the first `.` (`engine.run` belongs to `engine`); the
//! benchmark's own spans use the `bench` layer. Spans on track 0 form one
//! call tree on the benchmark thread, so a span's self time is its duration
//! minus its children's. Other tracks hold intervals observed from outside
//! (one serve job per tenant, one ensemble group per lane group); they show
//! in the trace file but are not part of the self-time accounting.
//!
//! Nothing is written while the workload runs: [`Tracer::write_chrome`]
//! writes every span once, at the end, as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`).

use pp_obs::json::quote;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `engine.run`.
    pub name: String,
    /// 0 for the benchmark thread's call tree, >0 for observed intervals.
    pub track: u32,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job, call or replica id the span belongs to.
    pub id: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Handle of an open span; a no-op when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, if one was recorded.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// The recorder. With tracing off every call is a branch and nothing is
/// stored.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that starts in state `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced run measures an untraced
    /// phase first, for the overhead figure).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span on track 0, nested in the innermost open span.
    pub fn begin(&mut self, name: &str, id: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.secs(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            track: 0,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.secs(Instant::now());
            while let Some(top) = self.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    /// Records an interval measured elsewhere — on another thread, or
    /// between two events the benchmark observed.
    pub fn record(
        &mut self,
        name: &str,
        track: u32,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        id: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            track,
            start: self.secs(start),
            end: self.secs(end),
            parent,
            id,
        });
        Some(idx)
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Total duration (seconds) of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer over the track-0 subtree rooted at `root`:
    /// each span's duration minus its children's, summed by layer. The
    /// root's own self time — the wall clock no layer span covers — lands
    /// under the root's layer (`bench` for the benchmark's phase spans).
    pub fn self_times(&self, root: Open) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some(root) = root.0 else {
            return out;
        };
        let mut children_time = vec![0.0f64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents precede children in record order on track 0.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if s.track != 0 {
                continue;
            }
            if let Some(p) = s.parent.filter(|&p| in_tree[p]) {
                in_tree[i] = true;
                children_time[p] += s.dur();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                *out.entry(s.layer().to_string()).or_insert(0.0) += s.dur() - children_time[i];
            }
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a Chrome trace-event JSON array.
    pub fn write_chrome(&self, path: &Path, context: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            quote(context)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"span\":{i}");
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some(id) = s.id {
                args.push_str(&format!(",\"id\":{id}"));
            }
            writeln!(
                out,
                ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                quote(&s.name),
                quote(s.layer()),
                s.start * 1e6,
                s.dur() * 1e6,
                s.track,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.timed", None);
        let a = t.begin("engine.run", Some(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(a);
        t.end(root);
        let st = t.self_times(root);
        let total: f64 = st.values().sum();
        assert!((total - t.total("bench.timed")).abs() < 1e-9);
        assert!(st["engine"] >= 0.004);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("engine.run", None);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
