//! Per-CPU external data cache model: direct-mapped, 1 MB, 32-byte
//! lines (paper §2.2).
//!
//! The PA-7100's caches are physically external SRAM; the SPP-1000's
//! CCMC keeps them coherent. We model the data cache only — the paper
//! folds instruction fetch into its "one data access and one
//! instruction fetch per cycle" throughput statement, which we absorb
//! into the per-flop compute cost.
//!
//! Line states cover all three pluggable protocols: the DASH+SCI
//! stack uses the MSI subset, the snooping MESI backend adds
//! [`LineState::Exclusive`], and the update-based Dragon backend adds
//! [`LineState::OwnedShared`] (its `Sm` state).
//!
//! Storage takes one of two forms, chosen once by
//! [`Cache::for_machine`] from the machine's CPU count:
//!
//! * *Dense* on machines with at most [`DENSE_MAX_CPUS`] CPUs (the
//!   paper's two-hypernode testbed): each slot is one `u64` word
//!   `line << 3 | state` (0 = empty), like the hardware's tag array.
//!   Slots live in 256-slot pages; the page table is
//!   allocated on the cache's first fill and each page on the first
//!   fill that lands in it, so building a machine allocates nothing
//!   and a cache costs memory only for the pages its working set
//!   touches. A hit is an indexed load, not a hash probe.
//! * *Sparse* on larger machines: a [`LineMap`] keyed by the slot
//!   index holds the same packed words for the touched slots only, so
//!   a 128-hypernode × 1024-CPU machine allocates memory proportional
//!   to its working set. There, a sweep touching a few lines per CPU
//!   256 slots apart would allocate a dense page per line.
//!
//! The two forms are observationally identical: an invalidated slot
//! behaves exactly like an empty one (lookup misses, a refill is not
//! an eviction, `entries` skips it), and [`Cache::entries`] reports
//! lines in ascending slot order — the order every downstream
//! consumer (checker sweep, snapshot capture, GCB degrade) was built
//! on.

use crate::linemap::LineMap;

/// Machines with at most this many CPUs give every CPU cache and GCB
/// dense storage (see the [module docs](self)).
pub const DENSE_MAX_CPUS: usize = 16;

/// Slots per dense page.
const PAGE_SLOTS: usize = 256;

/// The largest line address a cache holds: a slot packs the line
/// above three state bits. Allocated addresses stay far below it.
pub(crate) const MAX_LINE: u64 = u64::MAX >> 3;

/// Coherence state of a cached line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LineState {
    /// Not present (or invalidated).
    #[default]
    Invalid,
    /// Present, read-only, possibly shared by other caches.
    Shared,
    /// Present, writable, this cache holds the only valid copy.
    Modified,
    /// Present, clean, sole cached copy system-wide (MESI `E`): a
    /// write promotes it to [`LineState::Modified`] silently.
    Exclusive,
    /// Present, dirty, shared with other caches (Dragon `Sm`): this
    /// cache owns the line and supplies/updates the other copies.
    OwnedShared,
}

/// Dense-slot state codes: a word's low three bits, indexed by
/// `LineState as u64` when packing. Code 0 (and the unused 5..=7) is
/// `Invalid`, so an empty word decodes as a miss for any line.
const STATES: [LineState; 8] = [
    LineState::Invalid,
    LineState::Shared,
    LineState::Modified,
    LineState::Exclusive,
    LineState::OwnedShared,
    LineState::Invalid,
    LineState::Invalid,
    LineState::Invalid,
];

impl LineState {
    /// True when the line holds a dirty copy that must be written
    /// back on displacement ([`LineState::Modified`] or
    /// [`LineState::OwnedShared`]).
    #[inline]
    pub fn is_dirty(&self) -> bool {
        matches!(self, LineState::Modified | LineState::OwnedShared)
    }
}

/// What a lookup found, and which victim (if any) a fill would evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the evicted victim.
    pub line: u64,
    /// Victim state at eviction (never `Invalid`).
    pub state: LineState,
}

/// One dense page of packed `line << 3 | state` slot words.
type Page = Box<[u64; PAGE_SLOTS]>;

/// The slot store behind a [`Cache`].
#[derive(Debug, Clone)]
enum Slots {
    /// Touched slots only: slot → packed word (never 0).
    Sparse(LineMap<u64>),
    /// Lazily allocated pages of packed slot words; `len` counts the
    /// nonzero words.
    Dense {
        pages: Vec<Option<Page>>,
        len: usize,
    },
}

/// The packed word's `(line, state)`, if it holds a valid line.
#[inline]
fn unpack(word: u64) -> Option<Evicted> {
    (word != 0).then(|| Evicted {
        line: word >> 3,
        state: STATES[(word & 7) as usize],
    })
}

/// True when the packed `word` holds `line` valid.
#[inline]
fn holds(word: u64, line: u64) -> bool {
    word != 0 && word >> 3 == line
}

/// Slot `i`'s word; 0 (empty) when its page is not allocated.
#[inline]
fn dense_get(pages: &[Option<Page>], i: usize) -> u64 {
    match pages.get(i / PAGE_SLOTS) {
        Some(Some(page)) => page[i % PAGE_SLOTS],
        _ => 0,
    }
}

/// Slot `i`'s word, if its page is allocated.
#[inline]
fn dense_word(pages: &mut [Option<Page>], i: usize) -> Option<&mut u64> {
    pages
        .get_mut(i / PAGE_SLOTS)?
        .as_mut()
        .map(|p| &mut p[i % PAGE_SLOTS])
}

/// A direct-mapped cache: slot `line_addr % num_lines` → `(line,
/// state)`, dense or sparse (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Slots,
    num_lines: usize,
    mask: u64,
}

impl Cache {
    /// The cache of one CPU or GCB on a machine with `num_cpus` CPUs:
    /// dense when `num_cpus <= DENSE_MAX_CPUS`, sparse otherwise.
    /// Every cache a machine builds comes from here.
    #[inline]
    pub fn for_machine(num_cpus: usize, num_lines: usize) -> Self {
        if num_cpus <= DENSE_MAX_CPUS {
            Self::dense(num_lines)
        } else {
            Self::new(num_lines)
        }
    }

    /// A sparse cache of `num_lines` lines (must be a power of two).
    #[inline]
    pub fn new(num_lines: usize) -> Self {
        Self::with_slots(num_lines, Slots::Sparse(LineMap::new()))
    }

    /// A dense cache of `num_lines` lines (must be a power of two).
    /// Allocates nothing until the first fill.
    #[inline]
    fn dense(num_lines: usize) -> Self {
        Self::with_slots(
            num_lines,
            Slots::Dense {
                pages: Vec::new(),
                len: 0,
            },
        )
    }

    #[inline]
    fn with_slots(num_lines: usize, slots: Slots) -> Self {
        assert!(num_lines.is_power_of_two(), "cache lines must be 2^k");
        Cache {
            slots,
            num_lines,
            mask: num_lines as u64 - 1,
        }
    }

    /// True when this cache uses dense storage.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.slots, Slots::Dense { .. })
    }

    #[inline]
    fn idx(&self, line: u64) -> u64 {
        line & self.mask
    }

    /// State of `line` in this cache.
    #[inline]
    pub fn lookup(&self, line: u64) -> LineState {
        let i = self.idx(line);
        match &self.slots {
            // An empty word decodes as `Invalid` even for line 0.
            Slots::Dense { pages, .. } => match dense_get(pages, i as usize) {
                w if w >> 3 == line => STATES[(w & 7) as usize],
                _ => LineState::Invalid,
            },
            Slots::Sparse(map) => match map.get(i) {
                Some(&w) if w >> 3 == line => STATES[(w & 7) as usize],
                _ => LineState::Invalid,
            },
        }
    }

    /// Install `line` with `state`, returning the victim this fill
    /// displaced (if the slot held a different valid line).
    #[inline]
    pub fn fill(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        debug_assert_ne!(state, LineState::Invalid);
        assert!(line <= MAX_LINE, "line {line:#x} does not pack");
        let i = self.idx(line);
        let word = line << 3 | state as u64;
        let prior = match &mut self.slots {
            Slots::Dense { pages, len } => {
                let i = i as usize;
                if pages.is_empty() {
                    pages.resize(self.num_lines.div_ceil(PAGE_SLOTS), None);
                }
                let page = pages[i / PAGE_SLOTS].get_or_insert_with(|| Box::new([0; PAGE_SLOTS]));
                let slot = &mut page[i % PAGE_SLOTS];
                let prior = unpack(*slot);
                if prior.is_none() {
                    *len += 1;
                }
                *slot = word;
                prior
            }
            Slots::Sparse(map) => map.insert(i, word).and_then(unpack),
        };
        prior.filter(|e| e.line != line)
    }

    /// The victim a [`Cache::fill`] of `line` would displace, without
    /// changing any state (used by cost peeking).
    #[inline]
    pub fn peek_victim(&self, line: u64) -> Option<Evicted> {
        let i = self.idx(line);
        let prior = match &self.slots {
            Slots::Dense { pages, .. } => unpack(dense_get(pages, i as usize)),
            Slots::Sparse(map) => map.get(i).and_then(|&w| unpack(w)),
        };
        prior.filter(|e| e.line != line)
    }

    /// Change the state of a resident line (e.g. Shared -> Modified on
    /// a write upgrade, Modified -> Shared on a downgrade).
    #[inline]
    pub fn set_state(&mut self, line: u64, state: LineState) {
        debug_assert_ne!(state, LineState::Invalid, "use invalidate instead");
        let i = self.idx(line);
        let resident = match &mut self.slots {
            Slots::Dense { pages, .. } => match dense_word(pages, i as usize) {
                Some(w) if holds(*w, line) => {
                    *w = line << 3 | state as u64;
                    true
                }
                _ => false,
            },
            Slots::Sparse(map) => match map.get_mut(i) {
                Some(w) if holds(*w, line) => {
                    *w = line << 3 | state as u64;
                    true
                }
                _ => false,
            },
        };
        debug_assert!(resident, "set_state on non-resident line");
    }

    /// Invalidate `line` if resident; returns its prior state.
    #[inline]
    pub fn invalidate(&mut self, line: u64) -> LineState {
        let i = self.idx(line);
        match &mut self.slots {
            Slots::Dense { pages, len } => match dense_word(pages, i as usize) {
                Some(w) if holds(*w, line) => {
                    let state = STATES[(*w & 7) as usize];
                    *w = 0;
                    *len -= 1;
                    state
                }
                _ => LineState::Invalid,
            },
            Slots::Sparse(map) => map
                .remove_if(i, |w| holds(*w, line))
                .map_or(LineState::Invalid, |w| STATES[(w & 7) as usize]),
        }
    }

    /// Drop every line (used between benchmark repetitions). A dense
    /// cache also frees its pages.
    pub fn flush(&mut self) {
        match &mut self.slots {
            Slots::Dense { pages, len } => {
                *pages = Vec::new();
                *len = 0;
            }
            Slots::Sparse(map) => map.clear(),
        }
    }

    /// Number of currently valid lines (O(1)).
    pub fn valid_lines(&self) -> usize {
        match &self.slots {
            Slots::Dense { len, .. } => *len,
            Slots::Sparse(map) => map.len(),
        }
    }

    /// Total line slots.
    pub fn capacity(&self) -> usize {
        self.num_lines
    }

    /// Iterate over the valid `(line, state)` pairs in ascending slot
    /// order — the order the checker sweep, snapshot capture, and GCB
    /// degrade path rely on for determinism. Dense storage walks its
    /// allocated pages in place; sparse storage collects and sorts.
    pub fn entries(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        let (dense, sparse) = match &self.slots {
            Slots::Dense { pages, .. } => (Some(pages), None),
            Slots::Sparse(map) => {
                let mut v: Vec<(u64, u64)> = map.iter().map(|(slot, w)| (slot, *w)).collect();
                v.sort_unstable_by_key(|(slot, _)| *slot);
                (None, Some(v))
            }
        };
        let dense = dense
            .into_iter()
            .flatten()
            .flatten()
            .flat_map(|page| page.iter().filter_map(|&w| unpack(w)));
        let sparse = sparse.into_iter().flatten().filter_map(|(_, w)| unpack(w));
        dense.chain(sparse).map(|e| (e.line, e.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The line an op in [`dense_and_sparse_agree`] touches: slot
    /// `page * PAGE_SLOTS + {0, 1, 255}` (mod capacity), aliased by
    /// one of four tags so that fills conflict.
    fn op_line(cap: usize, page: u64, off: u64, alias: u64) -> u64 {
        let slot = (page * PAGE_SLOTS as u64 + [0, 1, 255][off as usize]) % cap as u64;
        slot + [0, 1, 2, 1 << 30][alias as usize] * cap as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dense and sparse storage give the same answer to every call
        /// of one random stream, and hold the same lines in the same
        /// order after each.
        #[test]
        fn dense_and_sparse_agree(ops in proptest::collection::vec(
            (0u8..12, 0u64..16, 0u64..3, 0u64..4, 1usize..5), 1..300)) {
            for cap in [1, 32, 1 << 15] {
                let (mut d, mut s) = (Cache::dense(cap), Cache::new(cap));
                for &(op, page, off, alias, code) in &ops {
                    let line = op_line(cap, page, off, alias);
                    let state = STATES[code];
                    match op {
                        0..=3 => prop_assert_eq!(d.fill(line, state), s.fill(line, state)),
                        4 | 5 => {
                            if s.lookup(line) != LineState::Invalid {
                                d.set_state(line, state);
                                s.set_state(line, state);
                            }
                        }
                        6 | 7 => prop_assert_eq!(d.invalidate(line), s.invalidate(line)),
                        8 | 9 => prop_assert_eq!(d.lookup(line), s.lookup(line)),
                        10 => prop_assert_eq!(d.peek_victim(line), s.peek_victim(line)),
                        _ => {
                            d.flush();
                            s.flush();
                        }
                    }
                    prop_assert_eq!(d.valid_lines(), s.valid_lines());
                    prop_assert!(d.entries().eq(s.entries()), "cap {cap}: entries differ");
                }
                prop_assert!(d.is_dense() && !s.is_dense());
            }
        }
    }

    #[test]
    fn the_storage_rule_is_dense_up_to_sixteen_cpus() {
        assert!(Cache::for_machine(8, 64).is_dense());
        assert!(Cache::for_machine(DENSE_MAX_CPUS, 64).is_dense());
        assert!(!Cache::for_machine(DENSE_MAX_CPUS + 1, 64).is_dense());
    }

    #[test]
    fn dense_pages_are_allocated_on_first_fill() {
        let mut c = Cache::dense(1 << 15);
        let pages = |c: &Cache| match &c.slots {
            Slots::Dense { pages, .. } => (pages.len(), pages.iter().flatten().count()),
            Slots::Sparse(_) => unreachable!(),
        };
        assert_eq!(pages(&c), (0, 0), "a new cache allocates nothing");
        c.fill(3, LineState::Shared);
        c.fill(255, LineState::Modified);
        assert_eq!(pages(&c), (128, 1));
        c.fill(256 + 7, LineState::Shared);
        assert_eq!(pages(&c), (128, 2));
        let lines: Vec<u64> = c.entries().map(|(l, _)| l).collect();
        assert_eq!(lines, [3, 255, 263]);
        c.flush();
        assert_eq!(pages(&c), (0, 0), "flush frees the pages");
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = Cache::new(8);
        assert_eq!(c.lookup(3), LineState::Invalid);
        assert_eq!(c.fill(3, LineState::Shared), None);
        assert_eq!(c.lookup(3), LineState::Shared);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = Cache::new(8);
        c.fill(3, LineState::Modified);
        // Line 11 maps to the same slot (11 % 8 == 3).
        let ev = c.fill(11, LineState::Shared).expect("conflict eviction");
        assert_eq!(ev.line, 3);
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(c.lookup(3), LineState::Invalid);
        assert_eq!(c.lookup(11), LineState::Shared);
    }

    #[test]
    fn refill_same_line_is_not_an_eviction() {
        let mut c = Cache::new(8);
        c.fill(5, LineState::Shared);
        assert_eq!(c.fill(5, LineState::Modified), None);
        assert_eq!(c.lookup(5), LineState::Modified);
    }

    #[test]
    fn invalidate_reports_prior_state() {
        let mut c = Cache::new(8);
        c.fill(2, LineState::Modified);
        assert_eq!(c.invalidate(2), LineState::Modified);
        assert_eq!(c.invalidate(2), LineState::Invalid);
        assert_eq!(c.lookup(2), LineState::Invalid);
    }

    #[test]
    fn fill_over_invalidated_slot_is_not_an_eviction() {
        let mut c = Cache::new(8);
        c.fill(3, LineState::Shared);
        c.invalidate(3);
        assert_eq!(c.fill(11, LineState::Shared), None);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::new(8);
        for l in 0..8 {
            c.fill(l, LineState::Shared);
        }
        assert_eq!(c.valid_lines(), 8);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn capacity_distinct_lines_coexist() {
        let mut c = Cache::new(16);
        for l in 0..16 {
            assert!(c.fill(l, LineState::Shared).is_none());
        }
        for l in 0..16 {
            assert_eq!(c.lookup(l), LineState::Shared);
        }
    }

    #[test]
    fn entries_are_slot_sorted() {
        let mut c = Cache::new(64);
        for l in [37, 5, 61, 12, 40] {
            c.fill(l, LineState::Shared);
        }
        let slots: Vec<u64> = c.entries().map(|(l, _)| l % 64).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted, "entries must come out in slot order");
        assert_eq!(c.entries().count(), 5);
    }

    #[test]
    fn mesi_and_dragon_states_behave_like_valid_lines() {
        let mut c = Cache::new(8);
        c.fill(1, LineState::Exclusive);
        assert_eq!(c.lookup(1), LineState::Exclusive);
        assert!(!LineState::Exclusive.is_dirty());
        c.set_state(1, LineState::OwnedShared);
        assert!(LineState::OwnedShared.is_dirty());
        // An Sm victim is dirty, so a conflicting fill reports it.
        let ev = c.fill(9, LineState::Shared).expect("conflict eviction");
        assert_eq!(ev.state, LineState::OwnedShared);
    }

    #[test]
    fn sparse_footprint_tracks_touched_lines_only() {
        let mut c = Cache::new(1 << 15); // 32768 slots, as spp1000
        assert_eq!(c.valid_lines(), 0);
        for l in 0..100u64 {
            c.fill(l, LineState::Shared);
        }
        assert_eq!(c.valid_lines(), 100);
        assert_eq!(c.capacity(), 1 << 15);
    }
}
