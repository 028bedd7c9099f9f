//! Intra-hypernode directory (paper §2.4): a direct-mapped,
//! directory-based scheme "similar to the experimental DASH system".
//!
//! Each hypernode's CCMC logic tracks, for every line present in the
//! node (whether homed in the node's memory or held in its global
//! cache buffer), which of the node's eight CPUs hold copies and
//! whether one of them holds the line modified. We model the directory
//! as a sparse map over lines with live state.

use crate::linemap::LineMap;

/// Directory state for one line within one hypernode.
#[derive(Debug, Clone, Copy, Default)]
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

/// Per-hypernode directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    map: LineMap<DirEntry>,
}

impl Directory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Directory {
            map: LineMap::new(),
        }
    }

    /// Current entry for `line` (copy), if any CPU in the node holds it.
    pub fn get(&self, line: u64) -> Option<DirEntry> {
        self.map.get(line).copied()
    }

    /// Record that `cpu_in_node` now shares `line`.
    pub fn add_sharer(&mut self, line: u64, cpu_in_node: u8) {
        let e = self.map.entry_or_insert_with(line, DirEntry::default);
        e.sharers |= 1 << cpu_in_node;
    }

    /// Record that `cpu_in_node` holds `line` modified (it becomes the
    /// sole sharer).
    pub fn set_owner(&mut self, line: u64, cpu_in_node: u8) {
        let e = self.map.entry_or_insert_with(line, DirEntry::default);
        e.sharers = 1 << cpu_in_node;
        e.owner = Some(cpu_in_node);
    }

    /// Downgrade the owner of `line` to an ordinary sharer unless it
    /// is `keep`, returning the downgraded owner. One probe reads and
    /// clears the owner together.
    pub fn take_owner(&mut self, line: u64, keep: Option<u8>) -> Option<u8> {
        let e = self.map.get_mut(line)?;
        let owner = e.owner.filter(|o| Some(*o) != keep)?;
        e.owner = None;
        Some(owner)
    }

    /// Remove `cpu_in_node` from the sharer set (cache eviction or
    /// invalidation). Drops the entry when it empties.
    pub fn remove_sharer(&mut self, line: u64, cpu_in_node: u8) {
        let remove = if let Some(e) = self.map.get_mut(line) {
            e.sharers &= !(1 << cpu_in_node);
            if e.owner == Some(cpu_in_node) {
                e.owner = None;
            }
            e.is_empty()
        } else {
            false
        };
        if remove {
            self.map.remove(line);
        }
    }

    /// Drop every sharer of `line` except `keep` (a write's
    /// invalidation within one node), returning the dropped sharers'
    /// mask. The entry goes when it empties. One probe for the whole
    /// sharer set, where [`Directory::remove_sharer`] takes one per
    /// sharer.
    pub fn remove_sharers_except(&mut self, line: u64, keep: Option<u8>) -> u8 {
        let Some(e) = self.map.get_mut(line) else {
            return 0;
        };
        let kept = keep.map_or(0, |b| 1u8 << b);
        let gone = e.sharers & !kept;
        if gone == 0 {
            return 0;
        }
        e.sharers &= kept;
        if e.owner.is_some_and(|o| gone & (1 << o) != 0) {
            e.owner = None;
        }
        if e.is_empty() {
            self.map.remove(line);
        }
        gone
    }

    /// Remove the whole entry (node-wide invalidation), returning the
    /// CPUs that held copies.
    pub fn take(&mut self, line: u64) -> Option<DirEntry> {
        self.map.remove(line)
    }

    /// Number of lines with live directory state (diagnostics).
    pub fn live_lines(&self) -> usize {
        self.map.len()
    }

    /// Iterate over all lines with live state (coherence checker).
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.iter().map(|(l, _)| l)
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
}

impl SciDirectory {
    /// Create an empty SCI directory.
    pub fn new() -> Self {
        SciDirectory {
            map: LineMap::new(),
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
        let e = self.map.entry_or_insert_with(line, SciEntry::default);
        if !e.list.contains(&node) {
            e.list.insert(0, node);
        }
    }

    /// Mark `node` as holding the dirty copy.
    pub fn set_dirty(&mut self, line: u64, node: u8) {
        let e = self.map.entry_or_insert_with(line, SciEntry::default);
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
    /// writer (`None`) drops the entry.
    pub fn finish_write(&mut self, line: u64, mut list: Vec<u8>, writer: Option<u8>) {
        match writer {
            Some(node) => {
                list.clear();
                list.push(node);
                self.map.entry_or_insert_with(line, SciEntry::default).list = list;
            }
            None => {
                self.map.remove(line);
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
            self.map.remove(line);
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

    #[test]
    fn sharers_accumulate_and_drain() {
        let mut d = Directory::new();
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

    #[test]
    fn set_owner_makes_sole_sharer() {
        let mut d = Directory::new();
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

    #[test]
    fn remove_sharers_except_keeps_one_and_drops_empty_entries() {
        let mut d = Directory::new();
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

    #[test]
    fn removing_owner_clears_ownership() {
        let mut d = Directory::new();
        d.set_owner(5, 3);
        d.remove_sharer(5, 3);
        assert!(d.get(5).is_none());
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
