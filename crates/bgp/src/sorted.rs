//! A flat sorted-vector map for the RIB hot path.
//!
//! Router RIBs are small per key-space (a few hundred prefixes, a
//! handful of neighbors) but are hit on every delivered UPDATE across
//! millions of events. At that shape a contiguous sorted vector beats a
//! `BTreeMap`: lookups are a binary search over adjacent memory with no
//! pointer chasing or per-node allocation, replacement (the dominant
//! write — BGP implicit withdraw) is in place, and iteration — which
//! must stay key-ordered for the simulator's determinism guarantees —
//! is a linear walk. Inserts of *new* keys memmove the tail, which is
//! O(n) but happens once per (router, key) over a whole convergence
//! run.

/// A map over `Copy + Ord` keys stored as a sorted vector of pairs.
#[derive(Clone, Debug)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap { entries: Vec::new() }
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// An empty map.
    pub fn new() -> SortedMap<K, V> {
        SortedMap { entries: Vec::new() }
    }

    /// The map holding `entries`, or `None` unless their keys are
    /// strictly ascending.
    pub(crate) fn from_sorted(entries: Vec<(K, V)>) -> Option<SortedMap<K, V>> {
        let ascending = entries.windows(2).all(|pair| pair[0].0 < pair[1].0);
        ascending.then_some(SortedMap { entries })
    }

    /// The entries, in key order.
    pub(crate) fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    fn position(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.position(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                // Most maps here stay tiny (a stub hears a prefix from
                // one or two neighbors), and `Vec`'s first allocation
                // is four slots: grow the first few one at a time,
                // amortized doubling after that.
                if self.entries.len() < 4 {
                    self.entries.reserve_exact(1);
                }
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`; returns its value if it was present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value for `key`, inserting a default first if absent.
    pub fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.position(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Key-ordered iteration.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Key-ordered keys.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }

    /// Key-ordered values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Removes and yields all entries in key order, leaving the
    /// allocation in place for reuse.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> + '_ {
        self.entries.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: SortedMap<u32, &str> = SortedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "THREE"), Some("three"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(3), Some(&"THREE"));
        assert_eq!(m.get(2), None);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.remove(1), Some("one"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn small_maps_allocate_exactly() {
        let mut m: SortedMap<u32, u64> = SortedMap::new();
        for k in 0..4 {
            m.insert(k, 0);
            assert_eq!(m.entries.capacity(), k as usize + 1);
        }
        m.insert(4, 0);
        assert!(m.entries.capacity() >= 8, "doubling past four entries");
    }

    #[test]
    fn iteration_is_key_ordered_regardless_of_insertion() {
        let mut m: SortedMap<u32, u32> = SortedMap::new();
        for k in [9, 2, 7, 1, 8, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 7, 8, 9]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![10, 20, 30, 70, 80, 90]);
    }

    #[test]
    fn get_or_default_inserts_once() {
        let mut m: SortedMap<u32, Vec<u32>> = SortedMap::new();
        m.get_or_default(4).push(1);
        m.get_or_default(4).push(2);
        assert_eq!(m.get(4), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }
}
