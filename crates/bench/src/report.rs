//! The one report shape every experiment returns, and the one place
//! that knows which reported values the determinism contract covers.
//!
//! A row struct is declared once through [`report_struct!`](crate::report_struct); the field
//! list yields the struct, its JSON object (the `pvr-bench-v1` record)
//! and its *deterministic projection* — the same object minus every
//! [`Wall`] field. [`across_shards`] is the shard-invariance gate: it
//! runs an experiment body once per shard count and requires each
//! count's projection to equal the first's.

use pvr_obs::{ConvergenceTimeline, Series, Snapshot, Value};
use std::path::PathBuf;

/// What an experiment hands back to the harness.
pub struct Report {
    /// The human table, exactly as printed.
    pub table: String,
    /// Keys appended to the experiment's `pvr-bench-v1` record after
    /// `rows` (`metrics`, plus e15's `timeline`).
    pub metrics: Vec<(&'static str, Box<dyn ToJson>)>,
    /// Files the experiment offers: (where the command line asked for
    /// it, if it did; the content).
    pub artifacts: Vec<(Option<PathBuf>, String)>,
}

impl From<String> for Report {
    /// A report that is only a table (e1–e13).
    fn from(table: String) -> Self {
        Report { table, metrics: Vec::new(), artifacts: Vec::new() }
    }
}

/// Marks a reported value the determinism contract does *not* cover:
/// it may differ between two runs of the same experiment, on another
/// host or at another shard count. Three things carry it — wall-clock
/// measurements and what is derived from them, shard-shaped values
/// (the shard count itself and e18's `last_checkpoint_bytes`, whose
/// ENGINE section holds one calendar per shard), and verify-cache hit
/// counts (caches are per shard). The hit counts live inside `pvr-obs`
/// snapshots and timelines, so for those two types the projection is
/// their own carve-out (`Snapshot::shard_invariant`, `zero_cache_hits`)
/// rather than a field wrapper.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Wall<T>(pub T);

/// A JSON value, rendered compactly in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, a bool or an already-rendered fragment, emitted as is.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// The compact rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        let sep = |out: &mut String, i: usize| {
            if i > 0 {
                out.push(',');
            }
        };
        match self {
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    sep(out, i);
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    sep(out, i);
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The first place `self` and `other` differ, as `path: a != b`
    /// with the path spelled `[index].field`; `None` when equal.
    pub fn diff(&self, other: &Json) -> Option<String> {
        match (self, other) {
            (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => a
                .iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| x.diff(y).map(|d| format!("[{i}]{d}"))),
            (Json::Obj(a), Json::Obj(b))
                if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0) =>
            {
                a.iter().zip(b).find_map(|((k, x), (_, y))| x.diff(y).map(|d| format!(".{k}{d}")))
            }
            (a, b) if a == b => None,
            (a, b) => {
                let (a, b) = (a.render(), b.render());
                if a.len().max(b.len()) <= 80 {
                    return Some(format!(": {a} != {b}"));
                }
                // A long value (a whole metrics exposition) is shown
                // around its first differing byte, with enough before
                // it to name the series or window.
                let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
                let show = |s: &str| -> String {
                    let from = at.saturating_sub(90);
                    String::from_utf8_lossy(&s.as_bytes()[from..]).chars().take(120).collect()
                };
                Some(format!(": at byte {at}: …{}… != …{}…", show(&a), show(&b)))
            }
        }
    }
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes
/// and everything below 0x20.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Renders a reported value as [`Json`].
pub trait ToJson {
    /// The value's JSON, or `None` when `det` asks for the
    /// deterministic projection and the value is outside it. `dp` is
    /// the number of decimals a float renders with — set per field by
    /// [`report_struct!`](crate::report_struct), ignored by everything that is not a float.
    fn to_json(&self, det: bool, dp: usize) -> Option<Json>;
}

impl<T: ToJson> ToJson for Wall<T> {
    fn to_json(&self, det: bool, dp: usize) -> Option<Json> {
        if det {
            None
        } else {
            self.0.to_json(det, dp)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self, det: bool, dp: usize) -> Option<Json> {
        Some(Json::Arr(self.iter().filter_map(|v| v.to_json(det, dp)).collect()))
    }
}

impl ToJson for f64 {
    fn to_json(&self, _det: bool, dp: usize) -> Option<Json> {
        Some(Json::Raw(format!("{self:.dp$}")))
    }
}

macro_rules! impl_to_json_display {
    ($variant:ident: $($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self, _det: bool, _dp: usize) -> Option<Json> {
                Some(Json::$variant(self.to_string()))
            }
        }
    )*};
}
impl_to_json_display!(Raw: u32, u64, usize, bool);
impl_to_json_display!(Str: &'static str, String);

impl ToJson for pvr_bgp::SmcBatchStats {
    /// An object from the `metric_struct!` field reflection.
    fn to_json(&self, det: bool, dp: usize) -> Option<Json> {
        Some(Json::Obj(
            self.fields().iter().filter_map(|(k, v)| Some((*k, v.to_json(det, dp)?))).collect(),
        ))
    }
}

fn raw(v: impl ToString) -> Json {
    Json::Raw(v.to_string())
}

/// One series as an object: name, labels, type, then a counter's or
/// gauge's `value`, or a histogram's cumulative `buckets` (`[le,
/// count]` pairs), `sum` and `count`.
fn series_json(s: &Series) -> Json {
    let labels = s.labels.iter().map(|(k, v)| (*k, Json::Str(v.clone())));
    let mut fields =
        vec![("name", Json::Str(s.name.to_string())), ("labels", Json::Obj(labels.collect()))];
    let kind = |kind: &str| ("type", Json::Str(kind.to_string()));
    match &s.value {
        Value::Counter(v) => fields.extend([kind("counter"), ("value", raw(v))]),
        Value::Gauge(v) => {
            fields.extend([kind("gauge"), ("value", raw(pvr_obs::expo::gauge_text(*v)))])
        }
        Value::Histogram(h) => {
            let buckets = h.bounds().iter().zip(h.cumulative());
            let buckets = buckets.map(|(le, n)| Json::Arr(vec![raw(le), raw(n)])).collect();
            fields.extend([
                kind("histogram"),
                ("buckets", Json::Arr(buckets)),
                ("sum", raw(h.sum())),
                ("count", raw(h.count())),
            ]);
        }
    }
    Json::Obj(fields)
}

impl ToJson for Snapshot {
    /// The array of series; the projection is
    /// [`Snapshot::shard_invariant`].
    fn to_json(&self, det: bool, _dp: usize) -> Option<Json> {
        let snapshot = if det { self.shard_invariant() } else { self.clone() };
        Some(Json::Arr(snapshot.series().iter().map(series_json).collect()))
    }
}

impl ToJson for ConvergenceTimeline {
    /// The window array; the projection zeroes `verify_cache_hits`.
    fn to_json(&self, det: bool, _dp: usize) -> Option<Json> {
        let timeline = if det { self.zero_cache_hits() } else { self.clone() };
        let window = |w: &pvr_obs::TimelineWindow| {
            Json::Obj(vec![
                ("start_us", raw(w.start_us)),
                ("events", raw(w.events)),
                ("delivered", raw(w.delivered)),
                ("queue_depth", raw(w.queue_depth)),
                ("rib_churn", raw(w.rib_churn)),
                ("withdraws", raw(w.withdraws)),
                ("verify_calls", raw(w.verify_calls)),
                ("verify_cache_hits", raw(w.verify_cache_hits)),
            ])
        };
        Some(Json::Arr(timeline.windows.iter().map(window).collect()))
    }
}

impl ToJson for pvr_obs::TimelineRecorder {
    /// The cells' `Debug` form: compared across shard counts (e17's
    /// SMC timeline), never emitted into a document.
    fn to_json(&self, _det: bool, _dp: usize) -> Option<Json> {
        Some(Json::Raw(format!("{:?}", self.cells())))
    }
}

/// Declares a report row once and derives, from the single field list,
/// the struct and its [`ToJson`] object: every field in declaration
/// order under its own name, [`Wall`] fields dropped from the
/// deterministic projection. `=> N` after a float field's type is the
/// number of decimals it renders with.
#[macro_export]
macro_rules! report_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: $ty:ty $(=> $dp:literal)?,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                $fvis $field: $ty,
            )*
        }

        impl $crate::report::ToJson for $name {
            fn to_json(&self, det: bool, _dp: usize) -> Option<$crate::report::Json> {
                let mut fields = Vec::new();
                $(
                    let dp = 0 $(+ $dp)?;
                    if let Some(v) = $crate::report::ToJson::to_json(&self.$field, det, dp) {
                        fields.push((stringify!($field), v));
                    }
                )*
                Some($crate::report::Json::Obj(fields))
            }
        }
    };
}

/// `Ok` when the deterministic projections of `a` and `b` are equal,
/// otherwise the first differing field (see [`Json::diff`]).
pub fn same_projection<R: ToJson + ?Sized>(a: &R, b: &R) -> Result<(), String> {
    match (a.to_json(true, 0), b.to_json(true, 0)) {
        (Some(a), Some(b)) => a.diff(&b).map_or(Ok(()), Err),
        _ => Ok(()),
    }
}

/// The shard-invariance gate: runs `run` once per shard count, in
/// order, and returns the results.
///
/// # Panics
/// If any count's deterministic projection differs from the first
/// count's, naming `what`, the two shard counts and the field.
pub fn across_shards<R: ToJson>(
    what: &str,
    shard_counts: &[usize],
    mut run: impl FnMut(usize) -> R,
) -> Vec<R> {
    let mut runs: Vec<R> = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let r = run(shards);
        if let Some(first) = runs.first() {
            if let Err(field) = same_projection(first, &r) {
                panic!(
                    "{what}: shards {shards} diverged from shards {} at {field}",
                    shard_counts[0]
                );
            }
        }
        runs.push(r);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_obs::timeline::{RT_CHANNELS, RT_RIB_CHURN, RT_VERIFY_CALLS, RT_VERIFY_HITS};
    use pvr_obs::timeline::{SIM_CHANNELS, SIM_EVENTS, SIM_QUEUE_DEPTH};
    use pvr_obs::{Histogram, LabelSet, TimelineRecorder};

    fn render(value: &impl ToJson, det: bool) -> String {
        value.to_json(det, 0).expect("rendered").render()
    }

    #[test]
    fn snapshot_json_golden() {
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
        let expected = "[\
{\"name\":\"pvr_attack_detection_latency_us\",\"labels\":{\"strategy\":\"route-leak\"},\
\"type\":\"histogram\",\"buckets\":[[1000,1],[100000,2]],\"sum\":250500,\"count\":3},\
{\"name\":\"pvr_router_updates_rx_total\",\"labels\":{\"security_mode\":\"plain\"},\
\"type\":\"counter\",\"value\":40},\
{\"name\":\"pvr_router_updates_rx_total\",\"labels\":{\"security_mode\":\"signed\"},\
\"type\":\"counter\",\"value\":42},\
{\"name\":\"pvr_verify_cache_hit_ratio\",\"labels\":{\"security_mode\":\"signed\"},\
\"type\":\"gauge\",\"value\":0.25}]";
        assert_eq!(render(&s, false), expected);
        // The projection drops the hit-ratio gauge and nothing else.
        let (kept, _) = expected.split_once(",{\"name\":\"pvr_verify_cache_hit_ratio\"").unwrap();
        assert_eq!(render(&s, true), format!("{kept}]"));
    }

    #[test]
    fn timeline_json_golden() {
        let mut sim = TimelineRecorder::new(1000, SIM_CHANNELS);
        sim.add(100, SIM_EVENTS, 4);
        sim.set(100, SIM_QUEUE_DEPTH, 2);
        let mut rt = TimelineRecorder::new(1000, RT_CHANNELS);
        rt.add(100, RT_RIB_CHURN, 1);
        rt.add(1500, RT_VERIFY_CALLS, 2);
        rt.add(1500, RT_VERIFY_HITS, 1);
        let t = ConvergenceTimeline::assemble(&sim, &rt);
        let expected =
            "[{\"start_us\":0,\"events\":4,\"delivered\":0,\"queue_depth\":2,\"rib_churn\":1,\
             \"withdraws\":0,\"verify_calls\":0,\"verify_cache_hits\":0},\
             {\"start_us\":1000,\"events\":0,\"delivered\":0,\"queue_depth\":0,\"rib_churn\":0,\
             \"withdraws\":0,\"verify_calls\":2,\"verify_cache_hits\":1}]";
        assert_eq!(render(&t, false), expected);
        // The projection zeroes the hits column.
        assert_eq!(
            render(&t, true),
            expected.replace("\"verify_cache_hits\":1", "\"verify_cache_hits\":0")
        );
    }
}
