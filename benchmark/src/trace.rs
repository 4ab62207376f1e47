//! What the benchmark records while it measures: spans around each
//! call into a layer, and samples of how fast the host is running.
//! Both are kept in memory; `write_json` dumps the spans when the run
//! ends.
//!
//! The untraced run goes through the same `span` calls with recording
//! off, so traced and untraced reps execute the same code and their
//! ratio is the tracing overhead. Host samples are taken either way.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (rep or round) this span belongs to.
    pub op: u64,
}

/// All spans of one name, added up.
pub struct SpanTotal {
    pub name: &'static str,
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl SpanTotal {
    pub fn mean_s(&self) -> f64 {
        self.total_s / self.calls as f64
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Seconds the calibration loop took, each time it ran.
    host: Vec<f64>,
}

/// Seconds the calibration loop takes on the reference box when the
/// host is calm. Only the ratio of a sample to it is used.
const CALIBRATION_NOMINAL_S: f64 = 0.00188;
const CALIBRATION_ROUNDS: usize = 4_000;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            host: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Samples the host's speed: times a fixed amount of integer work
    /// owned by the benchmark (so no change to the program can move
    /// it) — four independent multiply-xorshift chains over a buffer
    /// that fits in L1. Callers stop their own clocks around it.
    pub fn calibrate(&mut self) {
        let mut buf = [0u64; 1024];
        let mut acc = [0x9e37_79b9_7f4a_7c15u64, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb, 1];
        let t = Instant::now();
        for _ in 0..CALIBRATION_ROUNDS {
            for x in buf.chunks_exact_mut(4) {
                for (a, v) in acc.iter_mut().zip(x) {
                    *a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(*v);
                    *v ^= *a >> 29;
                }
            }
        }
        std::hint::black_box((buf, acc));
        self.host.push(t.elapsed().as_secs_f64());
    }

    /// How many calibration samples there are so far.
    pub fn samples(&self) -> usize {
        self.host.len()
    }

    /// The host's slowdown over the samples from index `from` on: their
    /// mean over the nominal time. 1.0 is the calm reference box.
    pub fn slowdown_since(&self, from: usize) -> f64 {
        let s = &self.host[from..];
        s.iter().sum::<f64>() / s.len() as f64 / CALIBRATION_NOMINAL_S
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` as a span of `layer`; a child of whichever span is open.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            layer,
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// One row per span name; self time is the span minus what its child
    /// spans cover.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<SpanTotal> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let dur = s.end_us - s.start_us;
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    rows.push(SpanTotal { name: s.name, calls: 0, total_s: 0.0, self_s: 0.0 });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.total_s += dur / 1e6;
            row.self_s += (dur - child) / 1e6;
        }
        rows
    }

    /// Mean seconds of the spans called `name`; 0 if there were none.
    pub fn mean_seconds(&self, name: &str) -> f64 {
        self.totals().iter().find(|r| r.name == name).map_or(0.0, SpanTotal::mean_s)
    }

    pub fn write_json(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"workload\": \"{workload}\", \"op\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{sep}",
                s.op, s.layer, s.name, s.start_us, s.end_us
            )
            .expect("write to String");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
