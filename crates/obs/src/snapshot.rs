//! Metrics snapshots: counters, gauges and fixed-bucket histograms,
//! addressed by `(name, label set)`.
//!
//! A [`Snapshot`] is a plain value, built by the code that reads the
//! numbers: [`Snapshot::add`] folds one value into the series
//! `name{labels}`, creating it in sorted position. Per-shard code
//! builds its own snapshot and the coordinator [`merge`](Snapshot::merge)s
//! them afterwards, which keeps the determinism story trivial (sums
//! commute) instead of relying on atomic-ordering arguments.
//!
//! Snapshots are canonical: series sorted by `(name, labels)`, label
//! pairs in the order the caller passed them. Two snapshots fed the
//! same values — in any order, folded any way — are equal.

use crate::histogram::Histogram;

/// A label set: `(key, value)` pairs. Keys are static (label schemas
/// are code, not data); values are runtime strings (`router="64"`,
/// `security_mode="signed"`, `strategy="route-leak"`, `shard="3"`).
pub type LabelSet = Vec<(&'static str, String)>;

/// One series in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Metric name (`pvr_router_updates_rx_total`, ...).
    pub name: &'static str,
    /// Label pairs, in the order the series was first added with.
    pub labels: LabelSet,
    /// The sampled value.
    pub value: Value,
}

/// A sampled value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Monotonic count; merges by addition.
    Counter(u64),
    /// Point-in-time value; merges by addition, so a ratio gauge means
    /// something only in a snapshot that adds it once per label set.
    Gauge(f64),
    /// Fixed-bucket histogram; merges bucket-for-bucket.
    Histogram(Histogram),
}

/// A canonical, order-independent set of series, sorted by
/// `(name, labels)`. This is the unit of comparison in determinism
/// tests and the input to the exposition formats.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// Sorted by `(name, labels)`, one series per pair: only
    /// [`add`](Snapshot::add) inserts.
    series: Vec<Series>,
}

impl Snapshot {
    /// The series, in canonical order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Adds `value` to the series `name{labels}`, creating the series
    /// in sorted position. Counters and gauges add and histograms merge
    /// bucket-for-bucket, so the result does not depend on the order
    /// values arrive in.
    ///
    /// # Panics
    /// If the series exists with another value type or histogram
    /// shape.
    pub fn add(&mut self, name: &'static str, labels: &LabelSet, value: Value) {
        match self.series.binary_search_by(|s| (s.name, &s.labels).cmp(&(name, labels))) {
            Ok(i) => match (&mut self.series[i].value, value) {
                (Value::Counter(a), Value::Counter(b)) => *a += b,
                (Value::Gauge(a), Value::Gauge(b)) => *a += b,
                (Value::Histogram(a), Value::Histogram(b)) => a.merge(&b),
                _ => panic!("series {name} added to with a different type"),
            },
            Err(i) => self.series.insert(i, Series { name, labels: labels.clone(), value }),
        }
    }

    /// Folds `other` into `self`, series by series through
    /// [`add`](Self::add): folding snapshots in any order yields the
    /// same snapshot as adding everything to one.
    ///
    /// # Panics
    /// If a series appears with two different value types or histogram
    /// shapes.
    pub fn merge(&mut self, other: &Snapshot) {
        for s in &other.series {
            self.add(s.name, &s.labels, s.value.clone());
        }
    }

    /// The part of the snapshot that must not depend on the shard
    /// count: a copy without the series derived from verify-cache hits
    /// (`pvr_router_verify_cache_hits_total`,
    /// `pvr_verify_cache_hit_ratio`), since caches are per shard — the
    /// snapshot side of `RouterStats::shard_invariant`.
    pub fn shard_invariant(&self) -> Snapshot {
        let series = self.series.iter().filter(|s| !s.name.contains("verify_cache_hit"));
        Snapshot { series: series.cloned().collect() }
    }

    /// Convenience for tests: the value of the unique counter `name`
    /// (any labels), summed across label sets.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let mut found = None;
        for s in &self.series {
            if s.name == name {
                if let Value::Counter(v) = s.value {
                    *found.get_or_insert(0) += v;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(mode: &str) -> LabelSet {
        vec![("security_mode", mode.to_string())]
    }

    #[test]
    fn adds_to_one_series_per_name_and_labels() {
        let mut s = Snapshot::default();
        s.add("pvr_x_total", &labels("plain"), Value::Counter(2));
        s.add("pvr_x_total", &labels("plain"), Value::Counter(3));
        s.add("pvr_x_total", &labels("signed"), Value::Counter(1));
        assert_eq!(s.series.len(), 2);
        assert_eq!(s.series[0].value, Value::Counter(5));
        assert_eq!(s.counter_value("pvr_x_total"), Some(6));
    }

    #[test]
    fn snapshot_order_is_canonical() {
        // Add in one order...
        let mut s1 = Snapshot::default();
        s1.add("pvr_b_total", &labels("plain"), Value::Counter(1));
        s1.add("pvr_a_total", &labels("plain"), Value::Counter(2));
        // ...and the reverse order.
        let mut s2 = Snapshot::default();
        s2.add("pvr_a_total", &labels("plain"), Value::Counter(2));
        s2.add("pvr_b_total", &labels("plain"), Value::Counter(1));
        assert_eq!(s1, s2);
        assert_eq!(s1.series[0].name, "pvr_a_total");
    }

    #[test]
    fn merge_folds_shards_into_the_serial_view() {
        let observed = |values: &[u64]| {
            let mut h = Histogram::new(&[10, 100]);
            for &v in values {
                h.observe(v);
            }
            Value::Histogram(h)
        };
        // "Serial": one snapshot sees everything.
        let mut serial = Snapshot::default();
        serial.add("pvr_events_total", &labels("plain"), Value::Counter(10));
        serial.add("pvr_lat", &labels("plain"), observed(&[5, 50]));

        // "Sharded": two snapshots split the same traffic.
        let mut s0 = Snapshot::default();
        s0.add("pvr_events_total", &labels("plain"), Value::Counter(4));
        s0.add("pvr_lat", &labels("plain"), observed(&[5]));
        let mut s1 = Snapshot::default();
        s1.add("pvr_events_total", &labels("plain"), Value::Counter(6));
        s1.add("pvr_lat", &labels("plain"), observed(&[50]));

        let mut folded = s0.clone();
        folded.merge(&s1);
        assert_eq!(folded, serial);

        // Fold order does not matter.
        let mut folded_rev = s1;
        folded_rev.merge(&s0);
        assert_eq!(folded_rev, serial);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn a_series_keeps_its_type() {
        let mut s = Snapshot::default();
        s.add("pvr_x", &labels("plain"), Value::Counter(1));
        s.add("pvr_x", &labels("plain"), Value::Gauge(1.0));
    }

    #[test]
    fn shard_invariant_drops_the_carve_out() {
        let mut s = Snapshot::default();
        s.add("pvr_router_verify_cache_hits_total", &labels("signed"), Value::Counter(1));
        s.add("pvr_router_verify_calls_total", &labels("signed"), Value::Counter(2));
        s.add("pvr_verify_cache_hit_ratio", &labels("signed"), Value::Gauge(0.5));
        let snap = s.shard_invariant();
        assert_eq!(snap.counter_value("pvr_router_verify_cache_hits_total"), None);
        assert_eq!(snap.counter_value("pvr_router_verify_calls_total"), Some(2));
        assert_eq!(snap.series.len(), 1);
    }
}
