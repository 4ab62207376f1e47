//! Exposition: rendering a [`Snapshot`] as Prometheus text format or
//! as a `pvr-bench-v1`-compatible JSON fragment.
//!
//! Both renderers are pure functions of the canonical snapshot, so
//! their output inherits its determinism: same traffic, same bytes,
//! whatever engine produced the numbers. Counters render with a
//! `_total` suffix already baked into their names, histograms render
//! cumulatively with Prometheus `le` semantics plus the implicit
//! `+Inf` bucket, and gauges render with Rust's shortest-roundtrip
//! float formatting (deterministic for a given bit pattern).

use crate::registry::{Snapshot, Value};
use std::fmt::Write;

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn fmt_gauge(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the snapshot in Prometheus text exposition format: one
/// `# TYPE` line per metric name (the snapshot is sorted, so series of
/// a metric are consecutive), then one sample line per series.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            writeln!(out, "# TYPE {} {}", s.name, kind).expect("write to String cannot fail");
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            Value::Counter(v) => {
                writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), v)
                    .expect("write to String cannot fail");
            }
            Value::Gauge(v) => {
                writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), fmt_gauge(*v))
                    .expect("write to String cannot fail");
            }
            Value::Histogram(h) => {
                for (le, cum) in h.bounds().iter().zip(h.cumulative()) {
                    writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        label_block(&s.labels, Some(("le", le.to_string()))),
                        cum
                    )
                    .expect("write to String cannot fail");
                }
                writeln!(
                    out,
                    "{}_bucket{} {}",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf".to_string()))),
                    h.count()
                )
                .expect("write to String cannot fail");
                writeln!(out, "{}_sum{} {}", s.name, label_block(&s.labels, None), h.sum())
                    .expect("write to String cannot fail");
                writeln!(out, "{}_count{} {}", s.name, label_block(&s.labels, None), h.count())
                    .expect("write to String cannot fail");
            }
        }
    }
    out
}

/// Escapes `s` for a JSON string literal (quotes, backslashes and
/// everything below 0x20). The one escape function behind every JSON
/// document the workspace writes: this module's exposition and the
/// harness's `pvr-bench-v1` report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

/// Renders the snapshot as a compact JSON array of series objects, the
/// shape embedded under `"series"` in the harness's `pvr-bench-v1`
/// output. Counters/gauges carry `"value"`; histograms carry
/// cumulative `"buckets"` (`[le, count]` pairs), `"sum"`, `"count"`.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("[");
    for (i, s) in snap.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(&s.name))
            .expect("write to String cannot fail");
        for (j, (k, v)) in s.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v))
                .expect("write to String cannot fail");
        }
        out.push_str("},");
        match &s.value {
            Value::Counter(v) => {
                write!(out, "\"type\":\"counter\",\"value\":{v}")
                    .expect("write to String cannot fail");
            }
            Value::Gauge(v) => {
                write!(out, "\"type\":\"gauge\",\"value\":{}", fmt_gauge(*v))
                    .expect("write to String cannot fail");
            }
            Value::Histogram(h) => {
                out.push_str("\"type\":\"histogram\",\"buckets\":[");
                for (j, (le, cum)) in h.bounds().iter().zip(h.cumulative()).enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write!(out, "[{le},{cum}]").expect("write to String cannot fail");
                }
                write!(out, "],\"sum\":{},\"count\":{}", h.sum(), h.count())
                    .expect("write to String cannot fail");
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LabelSet, MetricsRegistry};

    fn demo_snapshot() -> Snapshot {
        let mut r = MetricsRegistry::new();
        let signed: LabelSet = vec![("security_mode", "signed".to_string())];
        let plain: LabelSet = vec![("security_mode", "plain".to_string())];
        let c = r.counter("pvr_router_updates_rx_total", &signed);
        r.inc(c, 42);
        let c = r.counter("pvr_router_updates_rx_total", &plain);
        r.inc(c, 40);
        let g = r.gauge("pvr_verify_cache_hit_ratio", &signed);
        r.set_gauge(g, 0.25);
        let h = r.histogram(
            "pvr_attack_detection_latency_us",
            &vec![("strategy", "route-leak".to_string())],
            &[1_000, 100_000],
        );
        r.observe(h, 500);
        r.observe(h, 50_000);
        r.observe(h, 200_000);
        r.snapshot()
    }

    /// The Prometheus golden test: exact bytes, so any formatting
    /// drift (ordering, le semantics, +Inf bucket) fails loudly.
    #[test]
    fn prometheus_golden() {
        let expected = "\
# TYPE pvr_attack_detection_latency_us histogram
pvr_attack_detection_latency_us_bucket{strategy=\"route-leak\",le=\"1000\"} 1
pvr_attack_detection_latency_us_bucket{strategy=\"route-leak\",le=\"100000\"} 2
pvr_attack_detection_latency_us_bucket{strategy=\"route-leak\",le=\"+Inf\"} 3
pvr_attack_detection_latency_us_sum{strategy=\"route-leak\"} 250500
pvr_attack_detection_latency_us_count{strategy=\"route-leak\"} 3
# TYPE pvr_router_updates_rx_total counter
pvr_router_updates_rx_total{security_mode=\"plain\"} 40
pvr_router_updates_rx_total{security_mode=\"signed\"} 42
# TYPE pvr_verify_cache_hit_ratio gauge
pvr_verify_cache_hit_ratio{security_mode=\"signed\"} 0.25
";
        assert_eq!(to_prometheus(&demo_snapshot()), expected);
    }

    #[test]
    fn json_golden() {
        let expected = "[\
{\"name\":\"pvr_attack_detection_latency_us\",\"labels\":{\"strategy\":\"route-leak\"},\
\"type\":\"histogram\",\"buckets\":[[1000,1],[100000,2]],\"sum\":250500,\"count\":3},\
{\"name\":\"pvr_router_updates_rx_total\",\"labels\":{\"security_mode\":\"plain\"},\
\"type\":\"counter\",\"value\":40},\
{\"name\":\"pvr_router_updates_rx_total\",\"labels\":{\"security_mode\":\"signed\"},\
\"type\":\"counter\",\"value\":42},\
{\"name\":\"pvr_verify_cache_hit_ratio\",\"labels\":{\"security_mode\":\"signed\"},\
\"type\":\"gauge\",\"value\":0.25}]";
        assert_eq!(to_json(&demo_snapshot()), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("pvr_x_total", &vec![("router", "a\"b\\c".to_string())]);
        r.inc(c, 1);
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("router=\"a\\\"b\\\\c\""));
    }
}
