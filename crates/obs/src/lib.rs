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
//! comparisons (see [`Snapshot::shard_invariant`]).
//!
//! The pieces:
//!
//! * [`snapshot`] — counters, gauges, and fixed-bucket histograms with
//!   label sets, in a canonically sorted [`Snapshot`] that the code
//!   reading the numbers writes into directly; snapshots merge
//!   commutatively, so per-shard views fold into one network view
//!   whatever the order.
//! * [`histogram`] — the fixed-bucket histogram behind a histogram
//!   series (`le` buckets are inclusive upper bounds, Prometheus-style).
//! * [`journal`] — per-router ring-buffered event journal stamped
//!   with sim-time; the BGP layer merges the journals into one JSONL
//!   trace for forensic replay.
//! * [`timeline`] — per-window accumulators (events, queue depth, RIB
//!   churn, verify traffic) rendered as a convergence timeline table.
//! * [`expo`] — Prometheus text exposition of a [`Snapshot`].
//!
//! The [`metric_struct!`] macro declares a stats struct's fields once
//! and generates the struct, its `add` fold, and its snapshot export,
//! keeping the stats structs (`RouterStats`, `SimStats`) and their
//! metric series in lockstep by construction.

pub mod expo;
pub mod histogram;
pub mod journal;
pub mod snapshot;
pub mod timeline;

pub use histogram::Histogram;
pub use journal::{EventJournal, JournalEntry};
pub use snapshot::{LabelSet, Series, Snapshot, Value};
pub use timeline::{ConvergenceTimeline, TimelineRecorder, TimelineWindow};

/// Declares a stats struct once and derives everything the workspace
/// needs from the single field list: the struct itself (all fields
/// `pub u64`, with docs), its commutative `add` fold, a `fields()`
/// reflection used by tests and expositions, and `export_metrics`,
/// which adds every field to a [`Snapshot`] as a
/// `<prefix>_<field>_total` counter.
///
/// Struct-specific projections (e.g. `RouterStats::shard_invariant`,
/// the verify-cache carve-out) stay handwritten next to the macro
/// invocation — the macro guarantees field parity between the struct
/// and its metric series, not policy.
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
            /// and its metric series: expositions and tests enumerate
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

            /// Adds every field to `snapshot` as the counter
            /// `<prefix>_<field>_total{labels}`. Safe to call
            /// repeatedly (counters accumulate), so per-shard views can
            /// be folded straight into one snapshot.
            pub fn export_metrics(
                &self,
                snapshot: &mut $crate::Snapshot,
                labels: &$crate::LabelSet,
            ) {
                $(
                    snapshot.add(
                        concat!($prefix, "_", stringify!($field), "_total"),
                        labels,
                        $crate::Value::Counter(self.$field),
                    );
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::snapshot::{LabelSet, Snapshot};

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

        let mut snap = Snapshot::default();
        let labels: LabelSet = vec![("security_mode", "plain".to_string())];
        a.export_metrics(&mut snap, &labels);
        a.export_metrics(&mut snap, &labels); // accumulates
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
