//! The instrument registry and its Prometheus text exposition.
//!
//! A [`Registry`] is a cheap-clone handle (an `Arc` internally) to a set of
//! named instruments. Registration is **idempotent** on `(name, label)`:
//! asking twice returns handles to the same atomics, so independent layers
//! (the gate, the service, the readers) can share one registry
//! without coordinating who creates what.
//!
//! [`Registry::render`] produces the Prometheus text format. Histograms
//! render as cumulative `_bucket{le="..."}` series over one fixed edge per
//! octave (the internal resolution stays 16× finer; exposition edges
//! coincide with internal bucket edges, so cumulative counts are exact),
//! plus `_sum` (seconds) and `_count`.

use std::sync::{Arc, Mutex, OnceLock};

use crate::counter::{Counter, Gauge};
use crate::hist::{bucket_upper_ns, Hist, HistSnapshot};

/// Exposition edges: one per octave, `2^(e+1) - 1` ns for `e` in this
/// range — ≈ 1 µs up to ≈ 34 s, then `+Inf`.
const EDGE_EXP_MIN: u32 = 9;
const EDGE_EXP_MAX: u32 = 34;

#[derive(Clone)]
enum Kind {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Hist),
}

impl Kind {
    fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => "counter",
            Kind::Gauge(_) => "gauge",
            Kind::Hist(_) => "histogram",
        }
    }
}

#[derive(Clone)]
struct Entry {
    name: String,
    /// One optional `key="value"` label pair distinguishing series of the
    /// same instrument name (e.g. per-route request histograms).
    label: Option<(String, String)>,
    help: String,
    kind: Kind,
}

/// A shared set of named instruments. See the module docs.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Registry").field("instruments", &n).finish()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Prometheus-style float rendering (`+Inf` / `-Inf` / `NaN`).
fn fmt_f64(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, label: Option<(&str, &str)>, help: &str, make: Kind) -> Kind {
        assert!(valid_name(name), "invalid metric name {name:?}");
        if let Some((k, _)) = label {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let mut entries = self.entries.lock().expect("registry lock");
        let wanted = label.map(|(k, v)| (k.to_string(), v.to_string()));
        if let Some(existing) = entries.iter().find(|e| e.name == name && e.label == wanted) {
            assert_eq!(
                std::mem::discriminant(&existing.kind),
                std::mem::discriminant(&make),
                "instrument {name:?} re-registered as a different type"
            );
            return existing.kind.clone();
        }
        if let Some(other) = entries.iter().find(|e| e.name == name) {
            assert_eq!(
                std::mem::discriminant(&other.kind),
                std::mem::discriminant(&make),
                "instrument {name:?} series re-registered as a different type"
            );
        }
        entries.push(Entry {
            name: name.to_string(),
            label: wanted,
            help: help.to_string(),
            kind: make.clone(),
        });
        make
    }

    /// A histogram with no labels. Idempotent: the same name always returns
    /// handles to the same counters.
    pub fn histogram(&self, name: &str, help: &str) -> Hist {
        match self.register(name, None, help, Kind::Hist(Hist::new())) {
            Kind::Hist(h) => h,
            _ => unreachable!("type checked in register"),
        }
    }

    /// One labeled series of a histogram instrument (e.g. per-route
    /// latency: same `name`, one series per `label_value`).
    pub fn histogram_with_label(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
        help: &str,
    ) -> Hist {
        let kind = Kind::Hist(Hist::new());
        match self.register(name, Some((label_key, label_value)), help, kind) {
            Kind::Hist(h) => h,
            _ => unreachable!("type checked in register"),
        }
    }

    /// A monotonic counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, None, help, Kind::Counter(Counter::new())) {
            Kind::Counter(c) => c,
            _ => unreachable!("type checked in register"),
        }
    }

    /// One labeled series of a counter instrument.
    pub fn counter_with_label(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
        help: &str,
    ) -> Counter {
        let kind = Kind::Counter(Counter::new());
        match self.register(name, Some((label_key, label_value)), help, kind) {
            Kind::Counter(c) => c,
            _ => unreachable!("type checked in register"),
        }
    }

    /// A last-value gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, None, help, Kind::Gauge(Gauge::new())) {
            Kind::Gauge(g) => g,
            _ => unreachable!("type checked in register"),
        }
    }

    /// Merged snapshot of **every** series of histogram `name` (exact: the
    /// log-linear buckets add). Empty snapshot if the name is unknown.
    pub fn merged_histogram(&self, name: &str) -> HistSnapshot {
        let entries = self.entries.lock().expect("registry lock");
        let mut merged = HistSnapshot::empty();
        for e in entries.iter().filter(|e| e.name == name) {
            if let Kind::Hist(h) = &e.kind {
                merged.merge_from(&h.snapshot());
            }
        }
        merged
    }

    /// Renders every instrument in the Prometheus text exposition format,
    /// in first-registration order, `# HELP`/`# TYPE` once per name.
    pub fn render(&self) -> String {
        let entries: Vec<Entry> = self.entries.lock().expect("registry lock").clone();
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for e in &entries {
            if seen.contains(&e.name.as_str()) {
                continue;
            }
            seen.push(&e.name);
            out.push_str("# HELP ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(&e.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(e.kind.type_name());
            out.push('\n');
            for series in entries.iter().filter(|s| s.name == e.name) {
                render_series(series, &mut out);
            }
        }
        out
    }
}

/// Appends `{key="value"` (no closing brace) or nothing.
fn open_label(label: &Option<(String, String)>, out: &mut String) -> bool {
    match label {
        Some((k, v)) => {
            out.push('{');
            out.push_str(k);
            out.push_str("=\"");
            escape_label(v, out);
            out.push('"');
            true
        }
        None => false,
    }
}

fn render_series(e: &Entry, out: &mut String) {
    use std::fmt::Write as _;
    match &e.kind {
        Kind::Counter(c) => {
            out.push_str(&e.name);
            if open_label(&e.label, out) {
                out.push('}');
            }
            let _ = writeln!(out, " {}", c.get());
        }
        Kind::Gauge(g) => {
            out.push_str(&e.name);
            if open_label(&e.label, out) {
                out.push('}');
            }
            out.push(' ');
            fmt_f64(g.get(), out);
            out.push('\n');
        }
        Kind::Hist(h) => {
            let snap = h.snapshot();
            let bucket_line = |out: &mut String, le: &str, cum: u64| {
                out.push_str(&e.name);
                out.push_str("_bucket");
                if open_label(&e.label, out) {
                    out.push(',');
                } else {
                    out.push('{');
                }
                out.push_str("le=\"");
                out.push_str(le);
                let _ = writeln!(out, "\"}} {cum}");
            };
            // One pass over the buckets: each edge takes the running
            // count of the buckets whose upper edge is at or below it.
            let counts = snap.bucket_counts();
            let (mut cum, mut next) = (0u64, 0usize);
            for (edge_ns, le) in exposition_labels() {
                while next < counts.len() && bucket_upper_ns(next) <= *edge_ns {
                    cum += counts[next];
                    next += 1;
                }
                bucket_line(out, le, cum);
            }
            bucket_line(out, "+Inf", snap.count());
            out.push_str(&e.name);
            out.push_str("_sum");
            if open_label(&e.label, out) {
                out.push('}');
            }
            out.push(' ');
            fmt_f64(snap.sum_seconds(), out);
            out.push('\n');
            out.push_str(&e.name);
            out.push_str("_count");
            if open_label(&e.label, out) {
                out.push('}');
            }
            let _ = writeln!(out, " {}", snap.count());
        }
    }
}

/// Each exposition edge in nanoseconds with its `le` label text,
/// formatted once per process.
fn exposition_labels() -> &'static [(u64, String)] {
    static LABELS: OnceLock<Vec<(u64, String)>> = OnceLock::new();
    LABELS.get_or_init(|| {
        exposition_edges_ns()
            .into_iter()
            .map(|edge_ns| {
                let mut le = String::new();
                fmt_f64(edge_ns as f64 * 1e-9, &mut le);
                (edge_ns, le)
            })
            .collect()
    })
}

/// The exposition edge values in nanoseconds (useful for tests asserting
/// cumulative exactness at the published edges).
pub fn exposition_edges_ns() -> Vec<u64> {
    (EDGE_EXP_MIN..=EDGE_EXP_MAX)
        .map(|exp| (1u64 << (exp + 1)) - 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.histogram("cos_x_seconds", "x");
        let b = r.histogram("cos_x_seconds", "x");
        a.record_ns(100);
        assert_eq!(b.count(), 1);
        assert!(a.same_instrument(&b));
        let c1 = r.counter("cos_n_total", "n");
        let c2 = r.counter("cos_n_total", "n");
        c1.inc();
        assert_eq!(c2.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        r.histogram("cos_x", "x");
        r.counter("cos_x", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("bad name", "n");
    }

    #[test]
    fn labeled_series_share_one_header() {
        let r = Registry::new();
        r.histogram_with_label("cos_req_seconds", "route", "/a", "per-route")
            .record_ns(1_000_000);
        r.histogram_with_label("cos_req_seconds", "route", "/b", "per-route")
            .record_ns(2_000_000);
        let text = r.render();
        assert_eq!(text.matches("# TYPE cos_req_seconds histogram").count(), 1);
        assert!(text.contains("cos_req_seconds_count{route=\"/a\"} 1"));
        assert!(text.contains("cos_req_seconds_count{route=\"/b\"} 1"));
        assert!(text.contains("route=\"/a\",le=\"+Inf\"}"));
    }

    #[test]
    fn merged_histogram_spans_all_series() {
        let r = Registry::new();
        r.histogram_with_label("cos_req_seconds", "route", "/a", "h")
            .record_ns(10);
        r.histogram_with_label("cos_req_seconds", "route", "/b", "h")
            .record_ns(20);
        let merged = r.merged_histogram("cos_req_seconds");
        assert_eq!(merged.count(), 2);
        assert_eq!(r.merged_histogram("cos_missing").count(), 0);
    }

    #[test]
    fn cumulative_counts_at_edges_are_exact_and_monotone() {
        let r = Registry::new();
        let h = r.histogram("cos_t_seconds", "t");
        for v in [500u64, 1_000, 2_000, 1_000_000, 40_000_000_000] {
            h.record_ns(v);
        }
        let snap = h.snapshot();
        let mut prev = 0;
        for edge in exposition_edges_ns() {
            let cum = snap.cumulative_le_ns(edge);
            assert!(cum >= prev, "cumulative must be monotone");
            prev = cum;
        }
        assert_eq!(snap.cumulative_le_ns(1023), 2, "500 and 1000 ≤ 1023 ns");
        // 40 s lies beyond the largest edge (~34 s): only +Inf catches it.
        assert_eq!(prev, 4);
        assert_eq!(snap.count(), 5);
    }

    #[test]
    fn gauge_rendering_uses_prometheus_float_forms() {
        let r = Registry::new();
        let g = r.gauge("cos_g", "g");
        g.set(f64::INFINITY);
        assert!(r.render().contains("cos_g +Inf"));
        g.set(0.25);
        assert!(r.render().contains("cos_g 0.25"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with_label("cos_c_total", "path", "a\"b\\c\nd", "c");
        let text = r.render();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""), "{text}");
    }
}
