//! Exposition: rendering a [`Snapshot`] as Prometheus text format.
//!
//! The renderer is a pure function of the canonical snapshot, so its
//! output inherits its determinism: same traffic, same bytes, whatever
//! engine produced the numbers. Counters render with a `_total` suffix
//! already baked into their names, histograms render cumulatively with
//! Prometheus `le` semantics plus the implicit `+Inf` bucket, and
//! gauges render through [`gauge_text`].

use crate::snapshot::{Snapshot, Value};
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

fn label_block(labels: &[(&str, String)], extra: Option<(&str, String)>) -> String {
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

/// A gauge's text in every exposition: Rust's shortest-roundtrip float
/// formatting (deterministic for a given bit pattern), `0` when the
/// value is not finite.
pub fn gauge_text(v: f64) -> String {
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
    for s in snap.series() {
        if last_name != Some(s.name) {
            let kind = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            writeln!(out, "# TYPE {} {}", s.name, kind).expect("write to String cannot fail");
            last_name = Some(s.name);
        }
        match &s.value {
            Value::Counter(v) => {
                writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), v)
                    .expect("write to String cannot fail");
            }
            Value::Gauge(v) => {
                writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), gauge_text(*v))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::snapshot::LabelSet;

    fn demo_snapshot() -> Snapshot {
        let signed: LabelSet = vec![("security_mode", "signed".to_string())];
        let plain: LabelSet = vec![("security_mode", "plain".to_string())];
        let mut latency = Histogram::new(&[1_000, 100_000]);
        for v in [500, 50_000, 200_000] {
            latency.observe(v);
        }
        let mut s = Snapshot::default();
        s.add("pvr_router_updates_rx_total", &signed, Value::Counter(42));
        s.add("pvr_router_updates_rx_total", &plain, Value::Counter(40));
        s.add("pvr_verify_cache_hit_ratio", &signed, Value::Gauge(0.25));
        s.add(
            "pvr_attack_detection_latency_us",
            &vec![("strategy", "route-leak".to_string())],
            Value::Histogram(latency),
        );
        s
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
    fn label_values_are_escaped() {
        let mut s = Snapshot::default();
        s.add("pvr_x_total", &vec![("router", "a\"b\\c".to_string())], Value::Counter(1));
        let text = to_prometheus(&s);
        assert!(text.contains("router=\"a\\\"b\\\\c\""));
    }
}
