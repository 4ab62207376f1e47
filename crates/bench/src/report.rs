//! The one report shape every experiment returns, and the one place
//! that knows which reported values the determinism contract covers.
//!
//! A row struct is declared once through [`report_struct!`](crate::report_struct); the field
//! list yields the struct, its JSON object (the `pvr-bench-v1` record)
//! and its *deterministic projection* — the same object minus every
//! [`Wall`] field. [`across_shards`] is the shard-invariance gate: it
//! runs an experiment body once per shard count and requires each
//! count's projection to equal the first's.

use pvr_obs::expo::json_escape;
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
/// the existing carve-out (`Snapshot::without`, `zero_cache_hits`)
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
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
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
                    out.push_str(&format!("\"{k}\":"));
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

impl ToJson for pvr_obs::Snapshot {
    /// The pvr-obs JSON exposition; the projection drops the
    /// `verify_cache_hit*` series (per-shard caches).
    fn to_json(&self, det: bool, _dp: usize) -> Option<Json> {
        let hit_series = |name: &str| name.contains("verify_cache_hit");
        Some(Json::Raw(match det {
            true => pvr_obs::expo::to_json(&self.without(hit_series)),
            false => pvr_obs::expo::to_json(self),
        }))
    }
}

impl ToJson for pvr_obs::ConvergenceTimeline {
    /// The window array; the projection zeroes `verify_cache_hits`.
    fn to_json(&self, det: bool, _dp: usize) -> Option<Json> {
        Some(Json::Raw(if det { self.zero_cache_hits().to_json() } else { self.to_json() }))
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
