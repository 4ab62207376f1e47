//! # pvr-obs — deterministic telemetry for the PVR workspace
//!
//! Counters tell you *what* happened; this crate also records *when*,
//! without ever consulting a wall clock. Everything here is built
//! around one rule, stated once and enforced everywhere:
//!
//! > **The sim-time-only tracing rule.** Every timestamp on the
//! > determinism-critical path is simulator virtual time (`u64`
//! > microseconds, as produced by `pvr_netsim::SimTime::as_micros`).
//! > Wall-clock time may appear only in fields the CI determinism gate
//! > already strips (`wall_secs`, `events_per_sec`), never in a metric
//! > sample, journal entry, or timeline window.
//!
//! Under that rule, two runs of the same workload — one shard or
//! sixteen — produce byte-identical telemetry, so the
//! observability layer inherits the engine's determinism contract
//! instead of eroding it. The one documented exception is the
//! verify-cache hit family (`*verify_cache_hit*`): caches are per
//! shard and legitimately see fewer hits than one shard's network-wide
//! cache, so those series are excluded from cross-shard-count
//! comparisons (see [`Snapshot::without`]).
//!
//! The pieces:
//!
//! * [`registry`] — typed counters, gauges, and fixed-bucket
//!   histograms with label sets; allocation-light [`CounterId`]-style
//!   handles cached at call sites; deterministic [`Snapshot`] and
//!   merge so registries fold into one network view whatever the
//!   order.
//! * [`histogram`] — the fixed-bucket histogram behind the registry
//!   (`le` buckets are inclusive upper bounds, Prometheus-style).
//! * [`journal`] — per-router ring-buffered event journal stamped
//!   with sim-time; the BGP layer merges the journals into one JSONL
//!   trace for forensic replay.
//! * [`timeline`] — per-window accumulators (events, queue depth, RIB
//!   churn, verify traffic) rendered as a convergence timeline table.
//! * [`expo`] — Prometheus text format and `pvr-bench-v1`-compatible
//!   JSON exposition of a [`Snapshot`].
//!
//! The [`metric_struct!`] macro declares a stats struct's fields once
//! and generates the struct, its `add` fold, and its registry export,
//! keeping legacy views (`RouterStats`, `SimStats`) in lockstep with
//! the registry by construction.

pub mod expo;
pub mod histogram;
pub mod journal;
pub mod registry;
pub mod timeline;

pub use histogram::Histogram;
pub use journal::{EventJournal, JournalEntry};
pub use registry::{
    CounterId, GaugeId, HistogramId, LabelSet, MetricsRegistry, Series, Snapshot, Value,
};
pub use timeline::{ConvergenceTimeline, TimelineRecorder, TimelineWindow};

/// Declares a stats struct once and derives everything the workspace
/// needs from the single field list: the struct itself (all fields
/// `pub u64`, with docs), the commutative [`add`](MetricsRegistry)
/// fold, a `fields()` reflection used by tests and expositions, and
/// `export_metrics`, which registers every field as a
/// `<prefix>_<field>_total` counter in a [`MetricsRegistry`].
///
/// Struct-specific projections (e.g. `RouterStats::shard_invariant`,
/// the verify-cache carve-out) stay handwritten next to the macro
/// invocation — the macro guarantees field parity between the struct
/// and the registry, not policy.
#[macro_export]
macro_rules! metric_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, prefix = $prefix:literal {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: u64,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )*
        }

        impl $name {
            /// Accumulates `other` into `self`, field by field. The
            /// fold is commutative and associative, so totals are
            /// independent of visit order (serial ASN order or
            /// per-shard then across shards).
            pub fn add(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }

            /// Every field as a `(name, value)` pair, in declaration
            /// order. This is the parity contract between the struct
            /// and the registry: expositions and tests enumerate
            /// fields through here, so a field added to the struct
            /// cannot be silently missing from the metrics.
            pub fn fields(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![ $( (stringify!($field), self.$field), )* ]
            }

            /// Rebuilds the struct from `(name, value)` pairs — the
            /// inverse of [`fields`](Self::fields). Every declared
            /// field must appear exactly once and no unknown names may
            /// appear, so a checkpoint written by a build with a
            /// different field list is rejected instead of silently
            /// zero-filled or misassigned.
            pub fn from_fields<'a, I>(pairs: I) -> ::std::option::Option<$name>
            where
                I: ::std::iter::IntoIterator<Item = (&'a str, u64)>,
            {
                const FIELD_COUNT: usize = [$(stringify!($field)),*].len();
                let mut out = <$name as ::std::default::Default>::default();
                let mut seen = [false; FIELD_COUNT];
                for (name, value) in pairs {
                    let mut matched = false;
                    let mut slot = 0usize;
                    $(
                        if name == stringify!($field) {
                            if seen[slot] {
                                return ::std::option::Option::None;
                            }
                            seen[slot] = true;
                            out.$field = value;
                            matched = true;
                        }
                        slot += 1;
                    )*
                    let _ = slot;
                    if !matched {
                        return ::std::option::Option::None;
                    }
                }
                if seen.iter().all(|s| *s) {
                    ::std::option::Option::Some(out)
                } else {
                    ::std::option::Option::None
                }
            }

            /// Registers every field as a counter named
            /// `<prefix>_<field>_total` under `labels` and adds the
            /// current values. Safe to call repeatedly (counters
            /// accumulate), so per-shard views can be folded straight
            /// into one registry.
            pub fn export_metrics(
                &self,
                registry: &mut $crate::MetricsRegistry,
                labels: &$crate::LabelSet,
            ) {
                $(
                    let id = registry.counter(
                        concat!($prefix, "_", stringify!($field), "_total"),
                        labels,
                    );
                    registry.inc(id, self.$field);
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::registry::{LabelSet, MetricsRegistry};

    metric_struct! {
        /// A test stats struct.
        pub struct DemoStats, prefix = "pvr_demo" {
            /// Things seen.
            pub seen: u64,
            /// Things kept.
            pub kept: u64,
        }
    }

    #[test]
    fn macro_generates_fields_add_and_export() {
        let mut a = DemoStats { seen: 3, kept: 1 };
        let b = DemoStats { seen: 2, kept: 5 };
        a.add(&b);
        assert_eq!(a, DemoStats { seen: 5, kept: 6 });
        assert_eq!(a.fields(), vec![("seen", 5), ("kept", 6)]);

        let mut reg = MetricsRegistry::new();
        let labels: LabelSet = vec![("security_mode", "plain".to_string())];
        a.export_metrics(&mut reg, &labels);
        a.export_metrics(&mut reg, &labels); // accumulates
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("pvr_demo_seen_total"), Some(10));
        assert_eq!(snap.counter_value("pvr_demo_kept_total"), Some(12));
    }

    #[test]
    fn from_fields_inverts_fields() {
        let a = DemoStats { seen: 3, kept: 9 };
        let pairs = a.fields();
        assert_eq!(DemoStats::from_fields(pairs.iter().copied()), Some(a));
        // Unknown, missing, and duplicate names are all rejected.
        assert_eq!(DemoStats::from_fields([("seen", 1), ("bogus", 2)]), None);
        assert_eq!(DemoStats::from_fields([("seen", 1)]), None);
        assert_eq!(DemoStats::from_fields([("seen", 1), ("seen", 2), ("kept", 0)]), None);
    }
}
