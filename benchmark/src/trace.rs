//! Spans around the benchmark's calls into each layer of the program.
//!
//! A span has a name (`layer.operation`), a parent, the workload and phase
//! it belongs to, and start/end offsets from the run's origin. Spans are
//! kept in memory and written out once, at the end. A span's self time is
//! its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `netsim.step`.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Phase of the workload the span belongs to (`setup`, `collect`, ...).
    pub phase: String,
    /// Microseconds from the run's origin to the span's start.
    pub start_us: f64,
    /// Microseconds from the run's origin to the span's end.
    pub end_us: f64,
}

/// Records spans. Timing happens whether or not spans are kept, so traced
/// and untraced runs measure the same intervals.
#[derive(Debug)]
pub struct Tracer {
    keep: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    phase: String,
}

/// Handle for an open span; pass it back to [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
#[derive(Debug)]
pub struct Open(usize);

impl Tracer {
    /// A tracer for `workload`; spans are kept only when `keep` is set.
    pub fn new(workload: &str, keep: bool) -> Tracer {
        Tracer {
            keep,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: String::new(),
        }
    }

    /// Set the phase that new spans are attributed to.
    pub fn phase(&mut self, phase: &str) {
        self.phase = phase.to_string();
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let now = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|(i, _)| *i),
            phase: self.phase.clone(),
            start_us: self.offset_us(now),
            end_us: f64::NAN,
        });
        self.open.push((index, now));
        Open(index)
    }

    /// Close `span` (which must be the innermost open one) and return its
    /// duration.
    pub fn exit(&mut self, span: Open) -> Duration {
        let now = Instant::now();
        let (index, started) = self.open.pop().expect("exit without enter");
        assert_eq!(index, span.0, "spans must close innermost first");
        self.spans[index].end_us = self.offset_us(now);
        now - started
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.enter(name);
        let out = f();
        (out, self.exit(span))
    }

    fn offset_us(&self, at: Instant) -> f64 {
        (at - self.origin).as_secs_f64() * 1e6
    }

    /// The finished spans (empty unless spans are kept).
    pub fn spans(&self) -> &[Span] {
        if self.keep {
            &self.spans
        } else {
            &[]
        }
    }

    /// Self time per span name, summed over all spans of that name, in
    /// seconds.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.end_us - span.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans().iter().zip(&child_us) {
            *out.entry(span.name.clone()).or_insert(0.0) +=
                (span.end_us - span.start_us - children) / 1e6;
        }
        out
    }

    /// The spans as one JSON object: `{"workload": ..., "spans": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"workload\":{},\"spans\":[", json_str(&self.workload));
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"parent\":{},\"workload\":{},\"phase\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                json_str(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&self.workload),
                json_str(&s.phase),
                s.start_us,
                s.end_us
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w", true);
        t.phase("p");
        let outer = t.enter("a.outer");
        let ((), inner) = t.time("b.inner", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(10));
        let total = t.exit(outer);
        let selfs = t.self_seconds();
        let outer_self = selfs["a.outer"];
        assert!((outer_self - (total - inner).as_secs_f64()).abs() < 1e-3);
        assert!(selfs["b.inner"] >= 0.02);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.to_json().contains("\"phase\":\"p\""));
    }

    #[test]
    fn untraced_runs_time_but_keep_nothing() {
        let mut t = Tracer::new("w", false);
        let ((), d) = t.time("a.x", || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        assert!(t.spans().is_empty() && t.self_seconds().is_empty());
    }
}
