//! What a run records: timed spans around calls into the workspace crates,
//! and the named metrics computed from them.
//!
//! Spans are kept in memory and written once, at the end of a traced run,
//! as Chrome trace-event JSON (`ph: "X"` complete events plus `ph: "C"`
//! counters), which Perfetto and `chrome://tracing` open directly. An
//! untraced run still times every call but records no span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    depth: usize,
}

/// One counter sample (a count recorded at a layer boundary).
struct Counter {
    name: String,
    ts_us: f64,
    value: f64,
}

/// An open span (see [`Tracer::start`]).
pub struct Open {
    t0: Instant,
    depth: usize,
}

/// Span recorder. Single-threaded: every span is opened and closed on the
/// benchmark's main thread, around one public call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    depth: usize,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            depth: 0,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; close it with [`Tracer::stop`]. Spans opened while
    /// another is open nest under it.
    pub fn start(&mut self) -> Open {
        let open = Open {
            t0: Instant::now(),
            depth: self.depth,
        };
        self.depth += 1;
        open
    }

    /// Close `open`, returning its wall time in seconds; when tracing is
    /// on, record it as a span named `name` in layer `cat`.
    pub fn stop(&mut self, open: Open, cat: &'static str, name: &str) -> f64 {
        let secs = open.t0.elapsed().as_secs_f64();
        self.depth -= 1;
        assert_eq!(self.depth, open.depth, "spans must close innermost first");
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                cat,
                start_us: (open.t0 - self.origin).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
                depth: open.depth,
            });
        }
        secs
    }

    /// Run `f` inside a span; returns its output and wall time in seconds.
    pub fn time<T>(&mut self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.start();
        let out = std::hint::black_box(f());
        let secs = self.stop(open, cat, name);
        (out, secs)
    }

    /// Record a counter value at the current instant (traced runs only).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                name: name.to_string(),
                ts_us: self.origin.elapsed().as_secs_f64() * 1e6,
                value,
            });
        }
    }

    /// Share of `[0, wall]` that no top-level span covers. Top-level spans
    /// are sequential on one thread, so their durations add up without
    /// overlap.
    pub fn unattributed_share(&self, wall: f64) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_us * 1e-6)
            .sum();
        1.0 - covered / wall
    }

    /// The Chrome trace-event document; `meta` lands in `otherData`.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                json_str(&s.name),
                json_str(s.cat),
                s.start_us,
                s.dur_us
            );
        }
        for c in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"value\":{}}}}}",
                json_str(&c.name),
                c.ts_us,
                json_num(c.value)
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{meta}}}\n"
        );
        out
    }
}

/// Where a metric's samples came from: the position of the phase in the
/// run, the workload's main phases first. Of the phases that record a
/// metric, the first one's samples are reported (a main phase wins over the
/// small companion phases, and construct wins over NN-SENS for the
/// `pointproc` metrics both record).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Source(pub usize);

impl Source {
    /// The run's first phase; run-wide metrics are recorded under it.
    pub const FIRST: Source = Source(0);
}

struct Series {
    unit: &'static str,
    samples: BTreeMap<Source, Vec<f64>>,
}

/// Named metrics, each a list of samples reported as their median.
#[derive(Default)]
pub struct Metrics {
    series: BTreeMap<String, Series>,
}

impl Metrics {
    /// Add one sample of `name` (unit `unit`) from phase `src`.
    pub fn add(&mut self, src: Source, name: &str, unit: &'static str, value: f64) {
        let s = self.series.entry(name.to_string()).or_insert(Series {
            unit,
            samples: BTreeMap::new(),
        });
        assert_eq!(s.unit, unit, "metric {name} recorded in two units");
        s.samples.entry(src).or_default().push(value);
    }

    /// `(name, unit, median)` of every metric, using the samples of the
    /// first phase that recorded it.
    pub fn medians(&self) -> Vec<(String, &'static str, f64)> {
        self.series
            .iter()
            .map(|(name, s)| {
                let (_, v) = s.samples.iter().next().expect("series has a sample");
                (name.clone(), s.unit, median(v))
            })
            .collect()
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn first_phase_samples_win() {
        let mut m = Metrics::default();
        m.add(Source(1), "x", "s", 9.0);
        m.add(Source(0), "x", "s", 1.0);
        assert_eq!(m.medians(), vec![("x".to_string(), "s", 1.0)]);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut t = Tracer::new(true);
        let (v, _) = t.time("rgg", "outer", || 7);
        t.count("edges", 3.0);
        assert_eq!(v, 7);
        let doc = t.to_chrome_json("{}");
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("\"ph\":\"C\""));
        assert!(t.unattributed_share(1.0) < 1.0);
    }
}
