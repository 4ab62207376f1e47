//! The pending-event calendar.
//!
//! Event ordering is `(time, insertion order)` — the
//! binary-heap-with-sequence-numbers contract — but discrete-event
//! routing workloads concentrate events on a small set of delivery
//! times (link latencies are quantized), so a FIFO per distinct time
//! beats a heap: a push is an O(log #distinct-times) map walk plus an
//! O(1) append, and a whole window leaves the map in one operation.
//!
//! A FIFO is a run of chunks, each allocated at its final capacity and
//! never grown: a bucket's first chunk holds [`FIRST_CHUNK`] entries,
//! each next one twice its predecessor, up to [`CHUNK`]. So a bucket
//! never holds more than one chunk of room beyond its live entries — a
//! deque that doubles can hold nearly as much room as entries, which at
//! the wave front of a 3 000-AS convergence was 37 MB of empty slots
//! over 30 MB of events — and the many one-event buckets that jittered
//! timers create cost [`FIRST_CHUNK`] slots each, not a full chunk.
//! Drained chunks wait, at most [`SPARE_CHUNKS`] of each capacity, for
//! the next bucket that needs one, so a calendar whose windows repeat
//! in shape allocates nothing in steady state.
//!
//! A taken bucket's items leave their slots in whatever order the
//! engine dispatches them (node by node), so a slot holds an `Option`:
//! no byte more than the item for a calendar entry, whose event kind
//! leaves the option a spare discriminant value.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Most entries one chunk holds (64 KiB of 64-byte calendar entries).
const CHUNK: usize = 1024;

/// Entries in a bucket's first chunk.
const FIRST_CHUNK: usize = 4;

/// Chunk capacities are `FIRST_CHUNK << class` for `class < CLASSES`.
const CLASSES: usize = (CHUNK / FIRST_CHUNK).trailing_zeros() as usize + 1;

/// Most drained chunks of one capacity kept for reuse.
const SPARE_CHUNKS: usize = 16;

/// The pending-event queue: one [`Bucket`] per distinct pending time.
pub(crate) struct EventQueue<E> {
    buckets: BTreeMap<SimTime, Bucket<E>>,
    len: usize,
    /// Drained chunks by capacity class, reused before allocating.
    spares: [Vec<VecDeque<Option<E>>>; CLASSES],
}

/// The capacity class of a chunk.
fn class_of(capacity: usize) -> usize {
    (capacity / FIRST_CHUNK).trailing_zeros() as usize
}

/// Where an item sits in a taken [`Bucket`]: its chunk's index times
/// [`CHUNK`] plus its index within the chunk. Slots rise with pop order.
pub(crate) type Slot = u32;

/// The items scheduled at one time, in pop order. Items of a taken
/// bucket may leave their slots in any order ([`take`](Self::take));
/// [`drop_taken`](Self::drop_taken) then frees the vacated front.
pub(crate) struct Bucket<E> {
    /// Chunks in FIFO order: the first `head` are drained (they wait for
    /// [`EventQueue::put_back`] to recycle them), every later one holds
    /// at least one slot. A slot is `None` only between its item's
    /// `take` and the `drop_taken` that removes it.
    chunks: Vec<VecDeque<Option<E>>>,
    head: usize,
}

impl<E> Bucket<E> {
    fn new() -> Bucket<E> {
        Bucket { chunks: Vec::new(), head: 0 }
    }

    /// The items in pop order, each with its slot. Call it before any
    /// [`take`](Self::take).
    pub(crate) fn slots(&self) -> impl Iterator<Item = (Slot, &E)> {
        assert!(self.chunks.len() <= (Slot::MAX as usize + 1) / CHUNK, "bucket exceeds slot range");
        self.chunks.iter().enumerate().skip(self.head).flat_map(|(c, chunk)| {
            chunk.iter().enumerate().map(move |(i, item)| {
                ((c * CHUNK + i) as Slot, item.as_ref().expect("slots are listed before takes"))
            })
        })
    }

    /// Moves the item at `slot` out, leaving the slot vacant.
    pub(crate) fn take(&mut self, slot: Slot) -> E {
        let (c, i) = (slot as usize / CHUNK, slot as usize % CHUNK);
        self.chunks[c][i].take().expect("each slot is taken once")
    }

    /// Removes the first `n` slots, every one of them taken.
    pub(crate) fn drop_taken(&mut self, mut n: usize) {
        while n > 0 {
            let chunk = &mut self.chunks[self.head];
            let drained = n.min(chunk.len());
            debug_assert!(chunk.range(..drained).all(Option::is_none), "dropping a live item");
            if drained == chunk.len() {
                chunk.clear();
                self.head += 1;
            } else {
                chunk.drain(..drained);
            }
            n -= drained;
        }
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(VecDeque::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = &E> {
        self.chunks.iter().flatten().flatten()
    }
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue { buckets: BTreeMap::new(), len: 0, spares: std::array::from_fn(|_| Vec::new()) }
    }

    pub(crate) fn push(&mut self, time: SimTime, item: E) {
        let chunks = &mut self.buckets.entry(time).or_insert_with(Bucket::new).chunks;
        match chunks.last_mut() {
            Some(back) if back.len() < back.capacity() => back.push_back(Some(item)),
            back => {
                let capacity = back.map_or(FIRST_CHUNK, |back| (2 * back.capacity()).min(CHUNK));
                let spare = self.spares[class_of(capacity)].pop();
                let mut chunk = spare.unwrap_or_else(|| VecDeque::with_capacity(capacity));
                chunk.push_back(Some(item));
                chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Earliest pending event time.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.buckets.keys().next().copied()
    }

    /// Total number of pending items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The items scheduled exactly at `time`, in pop order.
    pub(crate) fn bucket_at(&self, time: SimTime) -> impl Iterator<Item = &E> {
        self.buckets.get(&time).into_iter().flat_map(Bucket::iter)
    }

    /// Number of items scheduled exactly at `time`.
    pub(crate) fn len_at(&self, time: SimTime) -> usize {
        self.buckets.get(&time).map_or(0, Bucket::len)
    }

    /// Removes and returns the head bucket if it is scheduled exactly
    /// at `time` — the window-draining primitive. Whatever the caller
    /// leaves in it goes back through [`put_back`](Self::put_back).
    pub(crate) fn take_head(&mut self, time: SimTime) -> Option<Bucket<E>> {
        let entry = self.buckets.first_entry().filter(|e| *e.key() == time)?;
        let bucket = entry.remove();
        self.len -= bucket.len();
        Some(bucket)
    }

    /// Returns a bucket taken by [`take_head`](Self::take_head): its
    /// unpopped items stay at the front of `time`, and its drained
    /// chunks join the spare pool while their class has room.
    pub(crate) fn put_back(&mut self, time: SimTime, mut bucket: Bucket<E>) {
        for chunk in bucket.chunks.drain(..bucket.head) {
            let spares = &mut self.spares[class_of(chunk.capacity())];
            if spares.len() < SPARE_CHUNKS {
                spares.push(chunk);
            }
        }
        bucket.head = 0;
        if !bucket.chunks.is_empty() {
            debug_assert!(!self.buckets.contains_key(&time), "bucket re-created while taken");
            self.len += bucket.len();
            self.buckets.insert(time, bucket);
        }
    }

    /// Iterates pending items in pop order (ascending time, FIFO per
    /// bucket) without draining — the checkpoint codec's view of the
    /// calendar.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.buckets.iter().flat_map(|(&t, bucket)| bucket.iter().map(move |e| (t, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Takes every item of `bucket` below `cutoff` (a prefix, as items
    /// rise within a bucket) in a scrambled order, drops the vacated
    /// slots, and returns the items in pop order.
    fn drain_below(bucket: &mut Bucket<u64>, cutoff: u64) -> Vec<u64> {
        let listed: Vec<(Slot, u64)> =
            bucket.slots().take_while(|&(_, &item)| item < cutoff).map(|(s, &i)| (s, i)).collect();
        assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "slots rise with pop order");
        let mut order: Vec<usize> = (0..listed.len()).collect();
        order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
        for i in order {
            assert_eq!(bucket.take(listed[i].0), listed[i].1);
        }
        bucket.drop_taken(listed.len());
        listed.into_iter().map(|(_, item)| item).collect()
    }

    /// Slots allocated for the items at `time`.
    fn slots_at<E>(queue: &EventQueue<E>, time: SimTime) -> usize {
        queue.buckets.get(&time).map_or(0, |b| b.chunks.iter().map(VecDeque::capacity).sum())
    }

    /// A bucket's room beyond its live items is at most one chunk: at
    /// most `2·len + 4` slots below one chunk of items, at most
    /// `len + CHUNK` above — whichever bucket the items land in first.
    #[test]
    fn bucket_slots_stay_within_one_chunk_of_len() {
        let (t, u) = (SimTime(10), SimTime(20));
        let mut queue = EventQueue::new();
        for len in 1..=5 * CHUNK {
            queue.push(t, len as u64);
            let slots = slots_at(&queue, t);
            let bound = if len < CHUNK { 2 * len + 4 } else { len + CHUNK };
            assert!(slots <= bound, "{len} items in {slots} slots, bound {bound}");
        }
        // Drained full chunks are recycled into the next bucket, and a
        // recycled chunk never pins a whole chunk to a small bucket.
        // 1 020 of the 5 120 items filled the 4-to-512 chunks, the other
        // 4 100 five full ones.
        let mut drained = queue.take_head(t).expect("head bucket");
        assert_eq!(drain_below(&mut drained, u64::MAX).len(), 5 * CHUNK);
        queue.put_back(t, drained);
        assert_eq!(queue.spares[CLASSES - 1].len(), 5);
        queue.push(u, 0);
        assert_eq!(slots_at(&queue, u), 4);
        for len in 2..=3 * CHUNK {
            queue.push(u, len as u64);
            let bound = if len < CHUNK { 2 * len + 4 } else { len + CHUNK };
            assert!(slots_at(&queue, u) <= bound, "{len} items after recycling");
        }
        assert_eq!(queue.spares[CLASSES - 1].len(), 2, "three full chunks came from the pool");
    }

    proptest! {
        /// Random pushes, whole-window drains, partial drains (items
        /// taken out of order) and put-backs against a `BTreeMap` of
        /// `VecDeque`s: the same pop order, the
        /// same `len`, `len_at`, `bucket_at` and `iter()` after every
        /// step. Bursts of up to three chunks at one time cover chunk
        /// growth, full chunks and the spare pool.
        #[test]
        fn calendar_matches_a_map_of_deques(
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0usize..3 * CHUNK), 1..40),
        ) {
            let mut queue = EventQueue::new();
            let mut model: BTreeMap<SimTime, VecDeque<u64>> = BTreeMap::new();
            let mut next = 0u64;
            for (op, time, n) in ops {
                let time = SimTime(time);
                match op {
                    // A burst at one time (small ones most of the time).
                    0 | 1 => {
                        let n = if op == 0 { n % 8 } else { n };
                        for _ in 0..n {
                            queue.push(time, next);
                            model.entry(time).or_default().push_back(next);
                            next += 1;
                        }
                    }
                    // Drain the head bucket below a cutoff (items rise
                    // within a bucket, as sequence numbers do), or all
                    // of it, then put it back.
                    _ => {
                        let Some(head) = queue.peek_time() else {
                            prop_assert!(model.is_empty());
                            continue;
                        };
                        prop_assert_eq!(Some(&head), model.keys().next());
                        prop_assert!(queue.take_head(SimTime(head.0 + 1)).is_none());
                        let mut bucket = queue.take_head(head).expect("head bucket");
                        let mut expected = model.remove(&head).expect("model head");
                        let cutoff = match op {
                            2 => expected.front().map_or(0, |&first| first + n as u64),
                            _ => u64::MAX,
                        };
                        for item in drain_below(&mut bucket, cutoff) {
                            prop_assert_eq!(Some(item), expected.pop_front());
                        }
                        prop_assert!(expected.front().is_none_or(|&item| item >= cutoff));
                        prop_assert_eq!(bucket.len(), expected.len());
                        queue.put_back(head, bucket);
                        if !expected.is_empty() {
                            model.insert(head, expected);
                        }
                    }
                }
                prop_assert_eq!(queue.len(), model.values().map(VecDeque::len).sum::<usize>());
                prop_assert_eq!(queue.peek_time(), model.keys().next().copied());
                for t in 0..6 {
                    let t = SimTime(t);
                    let want = model.get(&t);
                    prop_assert_eq!(queue.len_at(t), want.map_or(0, VecDeque::len));
                    prop_assert!(queue.bucket_at(t).eq(want.into_iter().flatten()));
                }
                let flat = model.iter().flat_map(|(&t, q)| q.iter().map(move |e| (t, e)));
                prop_assert!(queue.iter().eq(flat));
                prop_assert!(queue.spares.iter().all(|spares| spares.len() <= SPARE_CHUNKS));
            }
        }
    }
}
