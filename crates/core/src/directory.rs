//! Intra-hypernode directory (paper §2.4): a direct-mapped,
//! directory-based scheme "similar to the experimental DASH system".
//!
//! Each hypernode's CCMC logic tracks, for every line present in the
//! node (whether homed in the node's memory or held in its global
//! cache buffer), which of the node's eight CPUs hold copies and
//! whether one of them holds the line modified.
//!
//! Like the caches (see [`crate::cache`]), a [`Directory`] takes one
//! of two storage forms, chosen once by [`Directory::for_machine`]
//! from the machine's CPU count:
//!
//! * *Dense* on machines with at most [`DENSE_MAX_CPUS`] CPUs: one
//!   [`DirEntry`] per line, as in the hardware's direct-mapped
//!   directory, held in 256-line pages indexed by `line / 256`. The
//!   page table grows and each page is allocated on the first entry
//!   that lands in it, so a directory costs memory only for the pages
//!   its node's working set touches, and every probe is an indexed
//!   load. An empty entry is an absent one.
//! * *Sparse* on larger machines: a [`LineMap`] over the lines with
//!   live state, so a 1024-CPU machine's directories hold memory
//!   proportional to the lines actually cached.
//!
//! The two forms answer every call identically; only
//! [`Directory::lines`] differs in order (ascending for dense, map
//! order for sparse), and every consumer either sorts or does not
//! depend on it.

use crate::cache::DENSE_MAX_CPUS;
use crate::linemap::LineMap;

/// Directory state for one line within one hypernode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of CPUs *within this node* holding the line
    /// Shared/Modified (bit = CPU index in node, 0..8).
    pub sharers: u8,
    /// CPU index in node holding the line Modified, if any. When set,
    /// `sharers` contains exactly that bit.
    pub owner: Option<u8>,
}

impl DirEntry {
    /// True if no CPU in the node holds the line.
    pub fn is_empty(&self) -> bool {
        self.sharers == 0 && self.owner.is_none()
    }

    /// Number of sharers excluding `cpu_in_node`.
    pub fn other_sharers(&self, cpu_in_node: u8) -> u32 {
        (self.sharers & !(1 << cpu_in_node)).count_ones()
    }
}

/// Lines per dense directory page.
const PAGE_LINES: usize = 256;

/// One dense page of directory entries.
type Page = Box<[DirEntry; PAGE_LINES]>;

/// The entry store behind a [`Directory`].
#[derive(Debug, Clone)]
enum Entries {
    /// Lines with live state only; an entry that empties is removed.
    Sparse(LineMap<DirEntry>),
    /// Lazily allocated pages indexed by `line / PAGE_LINES`; `len`
    /// counts the non-empty entries.
    Dense {
        pages: Vec<Option<Page>>,
        len: usize,
    },
}

/// Per-hypernode directory, dense or sparse (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Directory {
    entries: Entries,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// The directory of one hypernode on a machine with `num_cpus`
    /// CPUs: dense when `num_cpus <= DENSE_MAX_CPUS`, sparse otherwise.
    /// Every directory a machine builds comes from here.
    pub fn for_machine(num_cpus: usize) -> Self {
        if num_cpus <= DENSE_MAX_CPUS {
            Directory {
                entries: Entries::Dense {
                    pages: Vec::new(),
                    len: 0,
                },
            }
        } else {
            Self::new()
        }
    }

    /// An empty sparse directory.
    pub fn new() -> Self {
        Directory {
            entries: Entries::Sparse(LineMap::new()),
        }
    }

    /// True when this directory uses dense storage.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.entries, Entries::Dense { .. })
    }

    /// Run `f` on `line`'s entry with one probe and return its result.
    /// An absent line gets a fresh empty entry when `insert`, and
    /// otherwise `f` does not run (`None`). An entry `f` leaves empty
    /// is dropped.
    #[inline]
    fn update<R>(
        &mut self,
        line: u64,
        insert: bool,
        f: impl FnOnce(&mut DirEntry) -> R,
    ) -> Option<R> {
        match &mut self.entries {
            Entries::Dense { pages, len } => {
                let (p, i) = (line as usize / PAGE_LINES, line as usize % PAGE_LINES);
                let e = if insert {
                    if p >= pages.len() {
                        pages.resize(p + 1, None);
                    }
                    &mut pages[p].get_or_insert_with(|| Box::new([DirEntry::default(); PAGE_LINES]))
                        [i]
                } else {
                    match pages.get_mut(p) {
                        Some(Some(page)) if !page[i].is_empty() => &mut page[i],
                        _ => return None,
                    }
                };
                let was_live = !e.is_empty();
                let r = f(e);
                match (was_live, e.is_empty()) {
                    (false, false) => *len += 1,
                    (true, true) => *len -= 1,
                    _ => {}
                }
                Some(r)
            }
            Entries::Sparse(map) => {
                let e = if insert {
                    map.entry_or_insert_with(line, DirEntry::default)
                } else {
                    map.get_mut(line)?
                };
                let r = f(e);
                if e.is_empty() {
                    map.remove(line);
                }
                Some(r)
            }
        }
    }

    /// Current entry for `line` (copy), if any CPU in the node holds it.
    #[inline]
    pub fn get(&self, line: u64) -> Option<DirEntry> {
        match &self.entries {
            Entries::Dense { pages, .. } => match pages.get(line as usize / PAGE_LINES) {
                Some(Some(page)) => {
                    Some(page[line as usize % PAGE_LINES]).filter(|e| !e.is_empty())
                }
                _ => None,
            },
            Entries::Sparse(map) => map.get(line).copied(),
        }
    }

    /// Record that `cpu_in_node` now shares `line`.
    #[inline]
    pub fn add_sharer(&mut self, line: u64, cpu_in_node: u8) {
        self.update(line, true, |e| e.sharers |= 1 << cpu_in_node);
    }

    /// Record that `cpu_in_node` holds `line` modified (it becomes the
    /// sole sharer).
    #[inline]
    pub fn set_owner(&mut self, line: u64, cpu_in_node: u8) {
        self.update(line, true, |e| {
            e.sharers = 1 << cpu_in_node;
            e.owner = Some(cpu_in_node);
        });
    }

    /// Downgrade the owner of `line` to an ordinary sharer unless it
    /// is `keep`, returning the downgraded owner. One probe reads and
    /// clears the owner together.
    #[inline]
    pub fn take_owner(&mut self, line: u64, keep: Option<u8>) -> Option<u8> {
        self.update(line, false, |e| {
            let owner = e.owner.filter(|o| Some(*o) != keep)?;
            e.owner = None;
            Some(owner)
        })
        .flatten()
    }

    /// Remove `cpu_in_node` from the sharer set (cache eviction or
    /// invalidation). Drops the entry when it empties.
    #[inline]
    pub fn remove_sharer(&mut self, line: u64, cpu_in_node: u8) {
        self.update(line, false, |e| {
            e.sharers &= !(1 << cpu_in_node);
            if e.owner == Some(cpu_in_node) {
                e.owner = None;
            }
        });
    }

    /// Drop every sharer of `line` except `keep` (a write's
    /// invalidation within one node), returning the dropped sharers'
    /// mask. The entry goes when it empties. One probe for the whole
    /// sharer set, where [`Directory::remove_sharer`] takes one per
    /// sharer.
    #[inline]
    pub fn remove_sharers_except(&mut self, line: u64, keep: Option<u8>) -> u8 {
        self.update(line, false, |e| {
            let kept = keep.map_or(0, |b| 1u8 << b);
            let gone = e.sharers & !kept;
            if gone != 0 {
                e.sharers &= kept;
                if e.owner.is_some_and(|o| gone & (1 << o) != 0) {
                    e.owner = None;
                }
            }
            gone
        })
        .unwrap_or(0)
    }

    /// Remove the whole entry (node-wide invalidation), returning the
    /// CPUs that held copies.
    #[inline]
    pub fn take(&mut self, line: u64) -> Option<DirEntry> {
        match &mut self.entries {
            Entries::Dense { .. } => self.update(line, false, std::mem::take),
            Entries::Sparse(map) => map.remove(line),
        }
    }

    /// Number of lines with live directory state (diagnostics).
    pub fn live_lines(&self) -> usize {
        match &self.entries {
            Entries::Dense { len, .. } => *len,
            Entries::Sparse(map) => map.len(),
        }
    }

    /// Iterate over all lines with live state (coherence checker,
    /// snapshot capture): in ascending order when dense, in map order
    /// when sparse.
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        let (dense, sparse) = match &self.entries {
            Entries::Dense { pages, .. } => (Some(pages), None),
            Entries::Sparse(map) => (None, Some(map)),
        };
        let dense = dense
            .into_iter()
            .flatten()
            .enumerate()
            .flat_map(|(p, page)| {
                page.iter().flat_map(move |page| {
                    page.iter()
                        .enumerate()
                        .filter(|(_, e)| !e.is_empty())
                        .map(move |(i, _)| (p * PAGE_LINES + i) as u64)
                })
            });
        let sparse = sparse.into_iter().flat_map(|m| m.iter().map(|(l, _)| l));
        dense.chain(sparse)
    }
}

/// Inter-hypernode SCI reference-tree state (paper §2.5): for each
/// line shared beyond its home hypernode, a distributed linked list of
/// sharing nodes, walked serially on invalidation.
#[derive(Debug, Clone, Default)]
pub struct SciEntry {
    /// Sharing hypernodes, most recent first (the SCI list head).
    /// Never contains the home node.
    pub list: Vec<u8>,
    /// Node holding the line dirty (home memory stale), if any.
    pub dirty: Option<u8>,
}

/// Global map of SCI reference trees.
#[derive(Debug, Clone, Default)]
pub struct SciDirectory {
    map: LineMap<SciEntry>,
    /// The emptied list buffers of dropped entries. A new entry takes
    /// one, so a line that keeps entering and leaving remote sharing
    /// (a remote read, then a home write) allocates nothing once warm.
    spare: Vec<Vec<u8>>,
}

impl SciDirectory {
    /// Create an empty SCI directory.
    pub fn new() -> Self {
        SciDirectory {
            map: LineMap::new(),
            spare: Vec::new(),
        }
    }

    /// `line`'s entry, created with a spare list buffer if absent.
    #[inline]
    fn entry(&mut self, line: u64) -> &mut SciEntry {
        let spare = &mut self.spare;
        self.map.entry_or_insert_with(line, || SciEntry {
            list: spare.pop().unwrap_or_default(),
            dirty: None,
        })
    }

    /// Drop `line`'s entry, keeping its list buffer for reuse.
    #[inline]
    fn drop_entry(&mut self, line: u64) {
        if let Some(mut e) = self.map.remove(line) {
            e.list.clear();
            self.spare.push(e.list);
        }
    }

    /// The entry for `line`, if it is shared beyond its home node.
    pub fn get(&self, line: u64) -> Option<&SciEntry> {
        self.map.get(line)
    }

    /// Node currently holding `line` dirty, if any.
    pub fn dirty_node(&self, line: u64) -> Option<u8> {
        self.map.get(line).and_then(|e| e.dirty)
    }

    /// Prepend `node` to the sharing list (SCI inserts new sharers at
    /// the head). Idempotent.
    pub fn add_sharer(&mut self, line: u64, node: u8) {
        let e = self.entry(line);
        if !e.list.contains(&node) {
            e.list.insert(0, node);
        }
    }

    /// Mark `node` as holding the dirty copy.
    pub fn set_dirty(&mut self, line: u64, node: u8) {
        let e = self.entry(line);
        e.dirty = Some(node);
        if !e.list.contains(&node) {
            e.list.insert(0, node);
        }
    }

    /// Clear the dirty marker if a node other than `node` holds it,
    /// returning that node (a reader on `node` fetched the data). One
    /// probe reads and clears the marker together.
    pub fn take_dirty_except(&mut self, line: u64, node: u8) -> Option<u8> {
        let e = self.map.get_mut(line)?;
        let d = e.dirty.filter(|d| *d != node)?;
        e.dirty = None;
        Some(d)
    }

    /// Detach `line`'s sharing list for a write's invalidation walk.
    /// The entry keeps its slot, with an empty list and no dirty
    /// marker, until [`SciDirectory::finish_write`] settles it.
    pub fn take_list(&mut self, line: u64) -> Option<Vec<u8>> {
        let e = self.map.get_mut(line)?;
        e.dirty = None;
        Some(std::mem::take(&mut e.list))
    }

    /// Settle a write whose walk detached `list`: a remote `writer`
    /// node becomes the only sharer, reusing the list's buffer; a home
    /// writer (`None`) drops the entry and keeps the buffer spare.
    pub fn finish_write(&mut self, line: u64, mut list: Vec<u8>, writer: Option<u8>) {
        match writer {
            Some(node) => {
                list.clear();
                list.push(node);
                self.map.entry_or_insert_with(line, SciEntry::default).list = list;
            }
            None => {
                self.map.remove(line);
                list.clear();
                self.spare.push(list);
            }
        }
    }

    /// Clear the dirty marker (data written back / downgraded).
    pub fn clear_dirty(&mut self, line: u64) {
        if let Some(e) = self.map.get_mut(line) {
            e.dirty = None;
        }
    }

    /// Remove `node` from the list (GCB rollout or invalidation).
    pub fn remove_sharer(&mut self, line: u64, node: u8) {
        let remove = if let Some(e) = self.map.get_mut(line) {
            e.list.retain(|n| *n != node);
            if e.dirty == Some(node) {
                e.dirty = None;
            }
            e.list.is_empty() && e.dirty.is_none()
        } else {
            false
        };
        if remove {
            self.drop_entry(line);
        }
    }

    /// Number of lines with remote-sharing state (diagnostics).
    pub fn live_lines(&self) -> usize {
        self.map.len()
    }

    /// Iterate over all lines with remote-sharing state (coherence
    /// checker).
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.iter().map(|(l, _)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both storage forms, for tests that must hold on each.
    fn both() -> [Directory; 2] {
        [Directory::new(), Directory::for_machine(DENSE_MAX_CPUS)]
    }

    #[test]
    fn sharers_accumulate_and_drain() {
        for mut d in both() {
            d.add_sharer(10, 0);
            d.add_sharer(10, 3);
            let e = d.get(10).unwrap();
            assert_eq!(e.sharers, 0b1001);
            assert_eq!(e.other_sharers(0), 1);
            d.remove_sharer(10, 0);
            d.remove_sharer(10, 3);
            assert!(d.get(10).is_none());
            assert_eq!(d.live_lines(), 0);
        }
    }

    #[test]
    fn set_owner_makes_sole_sharer() {
        for mut d in both() {
            d.add_sharer(5, 1);
            d.add_sharer(5, 2);
            d.set_owner(5, 7);
            let e = d.get(5).unwrap();
            assert_eq!(e.sharers, 1 << 7);
            assert_eq!(e.owner, Some(7));
            assert_eq!(d.take_owner(5, Some(7)), None, "kept owner stays");
            assert_eq!(d.take_owner(5, None), Some(7));
            assert_eq!(d.get(5).unwrap().owner, None);
            assert_eq!(d.get(5).unwrap().sharers, 1 << 7);
            assert_eq!(d.take_owner(5, None), None);
        }
    }

    #[test]
    fn remove_sharers_except_keeps_one_and_drops_empty_entries() {
        for mut d in both() {
            d.add_sharer(5, 1);
            d.add_sharer(5, 2);
            d.add_sharer(5, 6);
            assert_eq!(d.remove_sharers_except(5, Some(2)), 0b0100_0010);
            let e = d.get(5).unwrap();
            assert_eq!((e.sharers, e.owner), (1 << 2, None));
            assert_eq!(d.remove_sharers_except(5, Some(2)), 0);
            d.set_owner(5, 3);
            assert_eq!(d.remove_sharers_except(5, None), 1 << 3);
            assert!(d.get(5).is_none(), "an emptied entry is dropped");
            assert_eq!(d.remove_sharers_except(5, None), 0);
        }
    }

    #[test]
    fn removing_owner_clears_ownership() {
        for mut d in both() {
            d.set_owner(5, 3);
            d.remove_sharer(5, 3);
            assert!(d.get(5).is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dense and sparse storage give the same answer to every call
        /// of one random stream, and hold the same entries after each.
        #[test]
        fn dense_and_sparse_agree(ops in proptest::collection::vec(
            (0u8..7, 0u64..6, 0u64..3, 0u8..8, 0u8..9), 1..300)) {
            let (mut d, mut s) = (Directory::for_machine(DENSE_MAX_CPUS), Directory::new());
            assert!(d.is_dense() && !s.is_dense());
            for &(op, page, off, cpu, keep) in &ops {
                // Lines at the start, the second slot and the end of
                // six pages, the last one far from the others.
                let page = if page == 5 { 4000 } else { page };
                let line = page * PAGE_LINES as u64 + [0, 1, 255][off as usize];
                let keep = (keep < 8).then_some(keep);
                match op {
                    0 => {
                        d.add_sharer(line, cpu);
                        s.add_sharer(line, cpu);
                    }
                    1 => {
                        d.set_owner(line, cpu);
                        s.set_owner(line, cpu);
                    }
                    2 => prop_assert_eq!(d.take_owner(line, keep), s.take_owner(line, keep)),
                    3 => {
                        d.remove_sharer(line, cpu);
                        s.remove_sharer(line, cpu);
                    }
                    4 => prop_assert_eq!(
                        d.remove_sharers_except(line, keep),
                        s.remove_sharers_except(line, keep)
                    ),
                    5 => prop_assert_eq!(d.take(line), s.take(line)),
                    _ => prop_assert_eq!(d.get(line), s.get(line)),
                }
                prop_assert_eq!(d.get(line), s.get(line));
                prop_assert_eq!(d.live_lines(), s.live_lines());
                let dense: Vec<u64> = d.lines().collect();
                let mut sparse: Vec<u64> = s.lines().collect();
                sparse.sort_unstable();
                prop_assert_eq!(&dense, &sparse, "dense lines come out ascending");
                for l in dense {
                    prop_assert_eq!(d.get(l), s.get(l));
                }
            }
        }
    }

    #[test]
    fn the_storage_rule_is_dense_up_to_sixteen_cpus() {
        assert!(Directory::for_machine(DENSE_MAX_CPUS).is_dense());
        assert!(!Directory::for_machine(DENSE_MAX_CPUS + 1).is_dense());
    }

    #[test]
    fn dense_pages_are_allocated_on_first_entry() {
        let mut d = Directory::for_machine(DENSE_MAX_CPUS);
        let pages = |d: &Directory| match &d.entries {
            Entries::Dense { pages, .. } => (pages.len(), pages.iter().flatten().count()),
            Entries::Sparse(_) => unreachable!(),
        };
        assert_eq!(pages(&d), (0, 0), "a new directory allocates nothing");
        assert_eq!(d.take_owner(1000, None), None);
        d.remove_sharer(1000, 2);
        assert_eq!(pages(&d), (0, 0), "probes of absent lines allocate nothing");
        d.add_sharer(1000, 2);
        assert_eq!(pages(&d), (4, 1));
        d.add_sharer(3, 1);
        d.set_owner(1023, 0);
        assert_eq!(pages(&d), (4, 2));
        assert_eq!(d.lines().collect::<Vec<_>>(), [3, 1000, 1023]);
        assert_eq!(d.take(1000).map(|e| e.sharers), Some(1 << 2));
        assert_eq!(d.live_lines(), 2);
    }

    #[test]
    fn dropped_sci_entries_leave_their_buffers_spare() {
        let mut s = SciDirectory::new();
        s.add_sharer(3, 1);
        let list = s.take_list(3).unwrap();
        s.finish_write(3, list, None);
        assert_eq!(s.spare.len(), 1, "a home write keeps the walked list");
        s.add_sharer(4, 2);
        assert!(s.spare.is_empty(), "a new entry takes the spare");
        assert_eq!(s.get(4).unwrap().list, vec![2]);
        s.remove_sharer(4, 2);
        assert_eq!(s.spare.len(), 1);
        assert!(s.spare[0].is_empty() && s.get(4).is_none());
    }

    #[test]
    fn sci_list_prepends_newest_sharer() {
        let mut s = SciDirectory::new();
        s.add_sharer(100, 1);
        s.add_sharer(100, 2);
        s.add_sharer(100, 1); // idempotent
        assert_eq!(s.get(100).unwrap().list, vec![2, 1]);
    }

    #[test]
    fn sci_dirty_tracking() {
        let mut s = SciDirectory::new();
        s.set_dirty(7, 3);
        assert_eq!(s.dirty_node(7), Some(3));
        assert_eq!(s.get(7).unwrap().list, vec![3]);
        s.clear_dirty(7);
        assert_eq!(s.dirty_node(7), None);
        s.remove_sharer(7, 3);
        assert!(s.get(7).is_none());
    }

    #[test]
    fn sci_remove_dirty_sharer_clears_dirty() {
        let mut s = SciDirectory::new();
        s.add_sharer(9, 1);
        s.set_dirty(9, 2);
        s.remove_sharer(9, 2);
        assert_eq!(s.dirty_node(9), None);
        assert_eq!(s.get(9).unwrap().list, vec![1]);
    }

    #[test]
    fn sci_take_dirty_except_spares_the_reader_node() {
        let mut s = SciDirectory::new();
        s.set_dirty(4, 2);
        assert_eq!(s.take_dirty_except(4, 2), None);
        assert_eq!(s.dirty_node(4), Some(2));
        assert_eq!(s.take_dirty_except(4, 0), Some(2));
        assert_eq!(s.dirty_node(4), None);
        assert_eq!(s.get(4).unwrap().list, vec![2], "the list is untouched");
    }

    #[test]
    fn sci_write_walk_reuses_the_entry() {
        let mut s = SciDirectory::new();
        s.add_sharer(3, 1);
        s.set_dirty(3, 2);
        let list = s.take_list(3).unwrap();
        assert_eq!(list, vec![2, 1]);
        assert!(s.get(3).unwrap().list.is_empty());
        assert_eq!(s.dirty_node(3), None);
        s.finish_write(3, list, Some(5));
        assert_eq!(s.get(3).unwrap().list, vec![5]);
        let list = s.take_list(3).unwrap();
        s.finish_write(3, list, None);
        assert!(s.get(3).is_none(), "a home writer drops the entry");
        assert_eq!(s.take_list(3), None);
    }
}
