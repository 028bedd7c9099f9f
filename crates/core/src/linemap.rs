//! `LineMap` — a fast open-addressing hash map keyed by cache-line
//! addresses.
//!
//! Directory and SCI state only exists for lines that are actually
//! cached somewhere, so a sparse map is the right structure. This map
//! sits on the miss path of every simulated access; `std::HashMap`'s
//! SipHash is needless overhead for 64-bit integer keys, so we use a
//! Fibonacci multiply hash with linear probing and tombstone-free
//! backshift deletion. Values move rather than clone: removal, the
//! backshift and growth never copy a `V`, so a `Vec`-valued map costs
//! no heap allocation beyond its values' own.

/// Sparse map from line address to `V`.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    // slots: key is line+1 (0 = empty) so line address 0 is usable.
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    mask: usize,
}

const EMPTY: u64 = 0;

/// Table slots of a [`LineMap::new`] map, allocated on its first insert.
const FIRST_SLOTS: usize = 32;

#[inline]
fn hash(key: u64) -> u64 {
    // Fibonacci hashing: multiply by 2^64/phi, use high bits via mask
    // after a xor-fold so low bits are well mixed.
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl<V: Default> LineMap<V> {
    /// Create an empty map. It allocates nothing until the first
    /// insert, so a machine's many per-CPU and per-node maps cost no
    /// heap until they are used.
    pub fn new() -> Self {
        LineMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            mask: 0,
        }
    }

    /// Create a map pre-sized for roughly `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let n = (cap.max(8) * 2).next_power_of_two();
        LineMap {
            keys: vec![EMPTY; n],
            vals: Vec::new(),
            len: 0,
            mask: n - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> Option<usize> {
        let k = key + 1;
        let mut i = (hash(k) as usize) & self.mask;
        loop {
            // Only an unallocated table has no slot `i`.
            let s = *self.keys.get(i)?;
            if s == EMPTY {
                return None;
            }
            if s == k {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Get a reference to the value for `line`.
    #[inline]
    pub fn get(&self, line: u64) -> Option<&V> {
        self.slot_of(line).map(|i| &self.vals[i])
    }

    /// Get a mutable reference to the value for `line`.
    #[inline]
    pub fn get_mut(&mut self, line: u64) -> Option<&mut V> {
        match self.slot_of(line) {
            Some(i) => Some(&mut self.vals[i]),
            None => None,
        }
    }

    /// Insert or overwrite; returns the previous value if present.
    pub fn insert(&mut self, line: u64, v: V) -> Option<V> {
        if (self.len + 1) * 10 >= self.keys.len() * 7 {
            self.grow();
        }
        // `vals` runs parallel to `keys`, padded with defaults on the
        // first insert after a grow or clear.
        if self.vals.len() < self.keys.len() {
            self.vals.resize_with(self.keys.len(), V::default);
        }
        let k = line + 1;
        let mut i = (hash(k) as usize) & self.mask;
        loop {
            let s = self.keys[i];
            if s == EMPTY {
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
                return None;
            }
            if s == k {
                return Some(std::mem::replace(&mut self.vals[i], v));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Get the value for `line`, inserting `default()` if absent. One
    /// probe: the walk that misses the key ends on the slot the insert
    /// fills (a second walk only when the insert grows the table).
    pub fn entry_or_insert_with(&mut self, line: u64, default: impl FnOnce() -> V) -> &mut V {
        let k = line + 1;
        let mut i = (hash(k) as usize) & self.mask;
        loop {
            match self.keys.get(i) {
                Some(&s) if s == k => return &mut self.vals[i],
                Some(&s) if s != EMPTY => i = (i + 1) & self.mask,
                // An empty slot, or an unallocated table.
                _ => break,
            }
        }
        if (self.len + 1) * 10 >= self.keys.len() * 7 {
            self.insert(line, default());
            let i = self.slot_of(line).expect("just inserted");
            return &mut self.vals[i];
        }
        if self.vals.len() < self.keys.len() {
            self.vals.resize_with(self.keys.len(), V::default);
        }
        self.keys[i] = k;
        self.vals[i] = default();
        self.len += 1;
        &mut self.vals[i]
    }

    /// Remove the entry for `line`, returning its value.
    pub fn remove(&mut self, line: u64) -> Option<V> {
        let i = self.slot_of(line)?;
        Some(self.remove_slot(i))
    }

    /// Remove the entry in occupied slot `i`, returning its value.
    fn remove_slot(&mut self, mut i: usize) -> V {
        let out = std::mem::take(&mut self.vals[i]);
        // Backshift deletion keeps probe chains intact without
        // tombstones.
        self.keys[i] = EMPTY;
        self.len -= 1;
        let mut j = (i + 1) & self.mask;
        while self.keys[j] != EMPTY {
            let k = self.keys[j];
            let home = (hash(k) as usize) & self.mask;
            // Can slot j's entry legally move to the hole at i?
            let between = if i <= j {
                home <= i || home > j
            } else {
                home <= i && home > j
            };
            if between {
                self.keys[i] = k;
                self.vals.swap(i, j);
                self.keys[j] = EMPTY;
                i = j;
            }
            j = (j + 1) & self.mask;
        }
        out
    }

    /// Remove the entry for `line` if `pred` accepts its value,
    /// returning it: one probe where a `get` and a `remove` take two.
    pub fn remove_if(&mut self, line: u64, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let i = self.slot_of(line)?;
        if !pred(&self.vals[i]) {
            return None;
        }
        Some(self.remove_slot(i))
    }

    fn grow(&mut self) {
        let n = (self.keys.len() * 2).max(FIRST_SLOTS);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; n]);
        let old_vals = std::mem::take(&mut self.vals);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k - 1, v);
            }
        }
    }

    /// Iterate over `(line, &value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, k)| **k != EMPTY)
            .map(move |(i, k)| (*k - 1, &self.vals[i]))
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = EMPTY);
        self.vals.clear();
        self.len = 0;
    }
}

impl<V: Default> Default for LineMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(42, "a"), None);
        assert_eq!(m.insert(42, "b"), Some("a"));
        assert_eq!(m.get(42), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(42), Some("b"));
        assert_eq!(m.get(42), None);
        assert!(m.is_empty());
    }

    #[test]
    fn a_new_map_allocates_on_first_insert() {
        let mut m = LineMap::new();
        assert_eq!(m.keys.capacity(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.remove(7), None);
        assert_eq!(m.iter().count(), 0);
        m.insert(7, 1u8);
        assert_eq!(m.keys.len(), FIRST_SLOTS);
        assert_eq!(m.get(7), Some(&1));
    }

    #[test]
    fn remove_if_removes_only_accepted_values() {
        let mut m = LineMap::new();
        m.insert(9, 3u8);
        assert_eq!(m.remove_if(9, |v| *v == 4), None);
        assert_eq!(m.get(9), Some(&3));
        assert_eq!(m.remove_if(9, |v| *v == 3), Some(3));
        assert!(m.is_empty());
        assert_eq!(m.remove_if(9, |_| true), None);
    }

    #[test]
    fn line_zero_is_a_valid_key() {
        let mut m = LineMap::new();
        m.insert(0, 7u32);
        assert_eq!(m.get(0), Some(&7));
        assert_eq!(m.remove(0), Some(7));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = LineMap::with_capacity(4);
        for i in 0..10_000u64 {
            m.insert(i * 32, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i * 32), Some(&i), "key {i}");
        }
    }

    #[test]
    fn entry_or_insert_with() {
        let mut m = LineMap::new();
        *m.entry_or_insert_with(5, || 10) += 1;
        *m.entry_or_insert_with(5, || 10) += 1;
        assert_eq!(m.get(5), Some(&12));
    }

    #[test]
    fn backshift_deletion_preserves_probe_chains() {
        // Force collisions by using a tiny map and many keys.
        let mut m = LineMap::with_capacity(8);
        let keys: Vec<u64> = (0..64).map(|i| i * 1024).collect();
        for &k in &keys {
            m.insert(k, k);
        }
        // Remove every other key, then verify the rest still resolve.
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for &k in keys.iter().skip(1).step_by(2) {
            assert_eq!(m.get(k), Some(&k), "key {k} lost after deletions");
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut m = LineMap::new();
        for i in 0..100u64 {
            m.insert(i, i * 2);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_empties_the_map() {
        let mut m = LineMap::new();
        for i in 0..50u64 {
            m.insert(i, ());
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(10), None);
        m.insert(10, ());
        assert_eq!(m.len(), 1);
    }

    /// A value that counts its clones.
    #[derive(Debug, Default, PartialEq)]
    struct CloneCounted(u64);

    static CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl Clone for CloneCounted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CloneCounted(self.0)
        }
    }

    #[test]
    fn values_move_and_are_never_cloned() {
        let mut m = LineMap::with_capacity(8);
        let cap = m.keys.len();
        // Past two grows, with keys that collide into probe chains.
        let keys: Vec<u64> = (0..(cap as u64 * 2)).map(|i| i * 1024).collect();
        for &k in &keys {
            m.insert(k, CloneCounted(k));
        }
        assert!(m.keys.len() >= cap * 4, "two grows");
        m.insert(keys[0], CloneCounted(7));
        // Removals backshift the chains behind them.
        for &k in keys.iter().step_by(2).skip(1) {
            assert_eq!(m.remove(k), Some(CloneCounted(k)));
        }
        for &k in keys.iter().skip(1).step_by(2) {
            assert_eq!(m.get(k), Some(&CloneCounted(k)), "key {k}");
        }
        assert_eq!(m.get(keys[0]), Some(&CloneCounted(7)));
        assert_eq!(CLONES.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
