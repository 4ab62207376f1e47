//! Sim-time event journal: a bounded ring buffer of `(virtual time,
//! kind, value)` records, one per router.
//!
//! The journal is the forensic layer: where a snapshot answers "how
//! many", the journal answers "in what order, and when (in sim-time)".
//! It follows the crate's sim-time-only tracing rule — entries are
//! stamped with the simulator's virtual clock, never the wall clock —
//! so a journal dump from a deterministic run is itself deterministic
//! and can be diffed across replays.
//!
//! Capacity is a hard bound: when full, the oldest entry is evicted
//! and counted in [`EventJournal::evicted`]. That makes the journal
//! safe to leave enabled on big runs (memory is `O(capacity)` per
//! router) at the price of keeping only the *most recent* window —
//! exactly what forensic replay of an attack wants, since the
//! interesting events are the ones nearest the incident.

use std::collections::VecDeque;

/// One journal record. `kind` is a static label (`"best_change"`,
/// `"verify"`, ...); `value` is a kind-specific magnitude (count,
/// latency, prefix index — the emitter documents it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Simulator virtual time, microseconds.
    pub t_us: u64,
    /// Static event label.
    pub kind: &'static str,
    /// Kind-specific magnitude.
    pub value: u64,
}

/// A bounded, per-router ring buffer of [`JournalEntry`] records.
#[derive(Clone, Debug, Default)]
pub struct EventJournal {
    cap: usize,
    entries: VecDeque<JournalEntry>,
    evicted: u64,
}

impl EventJournal {
    /// A journal holding at most `capacity` entries. `capacity == 0`
    /// builds a disabled journal that records nothing. The bound is
    /// logical — the ring grows as entries arrive — so a capacity read
    /// from a checkpoint never sizes an allocation.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal { cap: capacity, entries: VecDeque::new(), evicted: 0 }
    }

    /// Appends a point event, evicting the oldest entry when full.
    pub fn record(&mut self, t_us: u64, kind: &'static str, value: u64) {
        if self.cap == 0 {
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(JournalEntry { t_us, kind, value });
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Rebuilds a journal from checkpointed state: `entries` oldest
    /// first, with the eviction counter restored. Oversized inputs keep
    /// the newest `capacity` entries (without bumping the counter —
    /// the counter is part of the restored state, not of this call).
    /// `kind` labels are static strings, so checkpoint codecs must
    /// re-intern decoded labels against the emitting crate's kind
    /// table before calling.
    pub fn restore(capacity: usize, evicted: u64, entries: Vec<JournalEntry>) -> EventJournal {
        let keep = entries.len().min(capacity);
        let skip = entries.len() - keep;
        let mut j = EventJournal::new(capacity);
        j.evicted = evicted;
        j.entries.extend(entries.into_iter().skip(skip));
        j
    }

    /// Number of entries evicted by the ring bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut j = EventJournal::new(2);
        j.record(1, "a", 0);
        j.record(2, "b", 0);
        j.record(3, "c", 0);
        let kinds: Vec<_> = j.entries().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["b", "c"]);
        assert_eq!(j.evicted(), 1);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut j = EventJournal::new(0);
        j.record(1, "a", 0);
        assert!(j.is_empty());
        assert_eq!(j.evicted(), 0);
    }

    #[test]
    fn capacity_never_sizes_an_allocation() {
        // What a hostile checkpoint can claim; `with_capacity` would
        // panic with "capacity overflow".
        let mut j = EventJournal::restore(usize::MAX, 3, vec![]);
        j.record(1, "a", 0);
        assert_eq!((j.capacity(), j.len(), j.evicted()), (usize::MAX, 1, 3));
    }
}
