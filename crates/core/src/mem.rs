//! Simulated virtual memory: the five Convex memory classes and the
//! page-placement rules that decide which hypernode/FU is *home* for
//! every address (paper §3.2).
//!
//! * **Thread private** — one copy per thread, homed at the owning
//!   thread's FU.
//! * **Node private** — one copy per hypernode, homed there.
//! * **Near shared** — a single copy, all pages on one hypernode
//!   (interleaved across its FUs).
//! * **Far shared** — pages distributed round-robin across all
//!   hypernodes (and interleaved across FUs within each).
//! * **Block shared** — like far shared, but distributed in
//!   user-specified blocks rather than pages.

use crate::config::{FuId, MachineConfig, NodeId};
use crate::error::SimError;

/// Placement class for a simulated allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
    /// Private to one thread; homed where that thread runs.
    ThreadPrivate {
        /// FU of the owning thread.
        home: FuId,
    },
    /// Private to (one copy per) a hypernode.
    NodePrivate {
        /// The owning hypernode.
        node: NodeId,
    },
    /// One shared copy, hosted entirely by a single hypernode.
    NearShared {
        /// The hosting hypernode.
        node: NodeId,
    },
    /// One shared copy, pages round-robin across all hypernodes.
    FarShared,
    /// One shared copy, fixed-size blocks round-robin across all
    /// hypernodes.
    BlockShared {
        /// Distribution unit in bytes (must be a multiple of the page
        /// size).
        block_bytes: usize,
    },
}

/// A simulated allocation: a contiguous range of simulated virtual
/// addresses with a placement rule.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// First simulated address of the region (line-aligned).
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Placement class.
    pub class: MemClass,
}

impl Region {
    /// Address of byte `offset` within the region.
    #[inline]
    pub fn addr(&self, offset: u64) -> u64 {
        debug_assert!(offset < self.len, "offset {offset} >= len {}", self.len);
        self.base + offset
    }
}

/// Pages the home table covers: 2^20 pages, 4 GB of address space at
/// the SPP-1000's 4 KB pages, in at most 4 MB of table. Pages above it
/// (only a far larger address space reaches them) are resolved from
/// the region list instead.
const HOME_TABLE_PAGES: u64 = 1 << 20;

/// A home-table entry for a page no region maps (page 0, guard pages).
const NO_HOME: u32 = u32::MAX;

/// The region table: allocates address space and answers "who is home
/// for this address".
#[derive(Debug, Clone)]
pub struct AddressSpace {
    regions: Vec<Region>,
    /// Home of every page below the allocation cursor (up to
    /// [`HOME_TABLE_PAGES`]), indexed by page number and packed as
    /// `node << 16 | fu`; [`NO_HOME`] for unmapped pages. Filled by
    /// [`AddressSpace::try_alloc`], so a home lookup is one indexed
    /// load.
    homes: Vec<u32>,
    /// Observability-only labels, parallel to `regions`. Names never
    /// influence placement, snapshots, or digests, and are lost on
    /// snapshot restore (replay goes through `try_alloc`).
    names: Vec<Option<String>>,
    cursor: u64,
    page: u64,
    /// `log2(page)`: a validated configuration's page size is a power
    /// of two, so page arithmetic on the home-lookup path shifts
    /// instead of dividing.
    page_shift: u32,
    fus_per_node: usize,
    hypernodes: usize,
}

impl AddressSpace {
    /// Create an address space for the given machine, whose page size
    /// must be a power of two (as [`MachineConfig::validate`] requires).
    pub fn new(cfg: &MachineConfig) -> Self {
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page_bytes {} is not a power of two",
            cfg.page_bytes
        );
        AddressSpace {
            regions: Vec::new(),
            // Page 0 stays unmapped.
            homes: vec![NO_HOME],
            names: Vec::new(),
            // Start above 0 so address 0 stays invalid, and keep
            // allocations page-aligned.
            cursor: cfg.page_bytes as u64,
            page: cfg.page_bytes as u64,
            page_shift: cfg.page_bytes.trailing_zeros(),
            fus_per_node: cfg.fus_per_node,
            hypernodes: cfg.hypernodes,
        }
    }

    /// Allocate `len` bytes with the given class. Allocations are
    /// page-aligned so placement rules operate on whole pages.
    ///
    /// Panics on a zero-length or malformed block-shared request; use
    /// [`AddressSpace::try_alloc`] to get the typed error instead.
    pub fn alloc(&mut self, class: MemClass, len: u64) -> Region {
        self.try_alloc(class, len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AddressSpace::alloc`].
    pub fn try_alloc(&mut self, class: MemClass, len: u64) -> Result<Region, SimError> {
        if len == 0 {
            return Err(SimError::ZeroLengthAlloc);
        }
        if let MemClass::BlockShared { block_bytes } = class {
            if block_bytes == 0 || !(block_bytes as u64).is_multiple_of(self.page) {
                return Err(SimError::BadBlockSize {
                    page: self.page,
                    got: block_bytes,
                });
            }
        }
        let base = self.cursor;
        let padded = self.page_round_up(len);
        // Guard page between regions: staggers equal-sized arrays so
        // they don't land at exact multiples of the (power-of-two)
        // cache size and alias to the same direct-mapped slot — the
        // padding every performance-aware allocator/code applies.
        self.cursor += padded + self.page;
        let r = Region { base, len, class };
        // Tabulate the region's pages (up to the table's reach) and
        // its guard page.
        let first = base >> self.page_shift;
        let guard = (self.cursor >> self.page_shift) - 1;
        for page in first..guard.min(HOME_TABLE_PAGES) {
            let (node, fu) = self.home_in(&r, page << self.page_shift);
            self.homes.push(u32::from(node.0) << 16 | u32::from(fu.0));
        }
        if guard < HOME_TABLE_PAGES {
            self.homes.push(NO_HOME);
        }
        self.regions.push(r);
        self.names.push(None);
        Ok(r)
    }

    /// Find the region containing `addr`.
    pub fn region_of(&self, addr: u64) -> Option<&Region> {
        self.region_index_of(addr).map(|i| &self.regions[i])
    }

    /// Index (allocation order) of the region containing `addr`.
    pub fn region_index_of(&self, addr: u64) -> Option<usize> {
        // Regions are allocated in ascending order; binary search.
        let i = self.regions.partition_point(|r| r.base <= addr);
        if i == 0 {
            return None;
        }
        let r = &self.regions[i - 1];
        (addr < r.base + self.page_round_up(r.len.max(1))).then_some(i - 1)
    }

    /// `len` rounded up to whole pages.
    #[inline]
    fn page_round_up(&self, len: u64) -> u64 {
        (((len - 1) >> self.page_shift) + 1) << self.page_shift
    }

    /// Label the region whose base address is `base` (no-op for an
    /// address that is not a region base). Labels exist purely for
    /// observability — reports, heatmaps, traces.
    pub fn set_region_name(&mut self, base: u64, name: &str) {
        if let Some(i) = self.region_index_of(base) {
            if self.regions[i].base == base {
                self.names[i] = Some(name.to_string());
            }
        }
    }

    /// The label of the region containing `addr`, if any was set.
    pub fn region_name(&self, addr: u64) -> Option<&str> {
        self.region_index_of(addr)
            .and_then(|i| self.names[i].as_deref())
    }

    /// The label of region `index` (allocation order), if any was set.
    pub fn region_name_at(&self, index: usize) -> Option<&str> {
        self.names.get(index).and_then(|n| n.as_deref())
    }

    /// Base address of region `index` (allocation order).
    ///
    /// Panics if `index` is out of range.
    pub fn region_base_at(&self, index: usize) -> u64 {
        self.regions[index].base
    }

    /// The home (hypernode, FU) of `addr`: the memory bank that
    /// physically hosts the containing page.
    ///
    /// Panics on an unmapped address; use
    /// [`AddressSpace::try_home_of`] to get the typed error instead.
    pub fn home_of(&self, addr: u64) -> (NodeId, FuId) {
        self.try_home_of(addr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AddressSpace::home_of`].
    #[inline]
    pub fn try_home_of(&self, addr: u64) -> Result<(NodeId, FuId), SimError> {
        match self.homes.get((addr >> self.page_shift) as usize) {
            Some(&NO_HOME) => Err(SimError::UnmappedAddress { addr }),
            Some(&h) => Ok((NodeId((h >> 16) as u8), FuId(h as u16))),
            None => self
                .region_of(addr)
                .map(|r| self.home_in(r, addr))
                .ok_or(SimError::UnmappedAddress { addr }),
        }
    }

    /// The home of `addr` within its region `r`, by the region's
    /// placement rule.
    fn home_in(&self, r: &Region, addr: u64) -> (NodeId, FuId) {
        let page_in_region = (addr - r.base) >> self.page_shift;
        match r.class {
            MemClass::ThreadPrivate { home } => {
                (NodeId((home.0 as usize / self.fus_per_node) as u8), home)
            }
            MemClass::NodePrivate { node } | MemClass::NearShared { node } => {
                // Interleave pages across the node's FUs.
                let fu_in_node = (page_in_region as usize) % self.fus_per_node;
                (
                    node,
                    FuId((node.0 as usize * self.fus_per_node + fu_in_node) as u16),
                )
            }
            MemClass::FarShared => self.round_robin(page_in_region),
            MemClass::BlockShared { block_bytes } => {
                let block = (addr - r.base) / block_bytes as u64;
                self.round_robin(block)
            }
        }
    }

    /// Round-robin a distribution unit across hypernodes, interleaving
    /// across FUs within each node as units wrap around.
    fn round_robin(&self, unit: u64) -> (NodeId, FuId) {
        let node = (unit as usize) % self.hypernodes;
        let fu_in_node = (unit as usize / self.hypernodes) % self.fus_per_node;
        (
            NodeId(node as u8),
            FuId((node * self.fus_per_node + fu_in_node) as u16),
        )
    }

    /// Total bytes of simulated address space allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.cursor - self.page
    }

    /// Number of regions allocated.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// All regions in allocation order (checkpoint support: replaying
    /// the sequence through [`AddressSpace::try_alloc`] reproduces the
    /// layout bit-identically).
    pub(crate) fn regions(&self) -> &[Region] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(&MachineConfig::spp1000(2))
    }

    #[test]
    fn allocations_are_disjoint_and_page_aligned() {
        let mut s = space();
        let a = s.alloc(MemClass::FarShared, 100);
        let b = s.alloc(MemClass::FarShared, 5000);
        assert_eq!(a.base % 4096, 0);
        assert_eq!(b.base % 4096, 0);
        assert!(b.base >= a.base + 4096);
        assert_eq!(s.num_regions(), 2);
    }

    #[test]
    fn region_lookup_finds_the_right_region() {
        let mut s = space();
        let a = s.alloc(MemClass::FarShared, 8192);
        let b = s.alloc(MemClass::NearShared { node: NodeId(1) }, 64);
        assert_eq!(s.region_of(a.addr(0)).unwrap().base, a.base);
        assert_eq!(s.region_of(a.addr(8191)).unwrap().base, a.base);
        assert_eq!(s.region_of(b.addr(0)).unwrap().base, b.base);
        assert!(s.region_of(0).is_none());
    }

    #[test]
    fn near_shared_stays_on_its_node() {
        let mut s = space();
        let r = s.alloc(MemClass::NearShared { node: NodeId(1) }, 64 * 4096);
        for p in 0..64u64 {
            let (node, fu) = s.home_of(r.addr(p * 4096));
            assert_eq!(node, NodeId(1));
            // Interleaved over the node's four FUs (4..8 on node 1).
            assert!((4..8).contains(&fu.0));
        }
    }

    #[test]
    fn far_shared_round_robins_across_nodes() {
        let mut s = space();
        let r = s.alloc(MemClass::FarShared, 8 * 4096);
        let homes: Vec<u8> = (0..8).map(|p| s.home_of(r.addr(p * 4096)).0 .0).collect();
        assert_eq!(homes, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        // FU interleave advances once per node wrap.
        let fus: Vec<u16> = (0..8).map(|p| s.home_of(r.addr(p * 4096)).1 .0).collect();
        assert_eq!(fus, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn block_shared_distributes_in_blocks() {
        let mut s = space();
        let r = s.alloc(
            MemClass::BlockShared {
                block_bytes: 2 * 4096,
            },
            8 * 4096,
        );
        let homes: Vec<u8> = (0..8).map(|p| s.home_of(r.addr(p * 4096)).0 .0).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn thread_private_homed_at_owner() {
        let mut s = space();
        let r = s.alloc(MemClass::ThreadPrivate { home: FuId(5) }, 4096);
        let (node, fu) = s.home_of(r.addr(100));
        assert_eq!(fu, FuId(5));
        assert_eq!(node, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn block_shared_requires_page_multiple() {
        let mut s = space();
        s.alloc(MemClass::BlockShared { block_bytes: 100 }, 4096);
    }

    #[test]
    #[should_panic(expected = "not in any simulated region")]
    fn home_of_unmapped_address_panics() {
        let s = space();
        s.home_of(0x10_0000_0000);
    }

    #[test]
    fn block_shared_with_block_equal_to_page_matches_far_shared() {
        // A one-page block degenerates to page-granular round-robin:
        // the placement must agree with FarShared page for page.
        let mut s = space();
        let blk = s.alloc(MemClass::BlockShared { block_bytes: 4096 }, 8 * 4096);
        let far = s.alloc(MemClass::FarShared, 8 * 4096);
        for p in 0..8u64 {
            assert_eq!(
                s.home_of(blk.addr(p * 4096)),
                s.home_of(far.addr(p * 4096)),
                "page {p}"
            );
        }
    }

    #[test]
    fn block_shared_accepts_any_page_multiple() {
        let mut s = space();
        for mult in [1usize, 2, 3, 8] {
            let block_bytes = mult * 4096;
            let r = s.alloc(MemClass::BlockShared { block_bytes }, 16 * 4096);
            // Every page of one block is homed identically, and
            // consecutive blocks alternate nodes.
            for b in 0..(16 / mult as u64) {
                let first = s.home_of(r.addr(b * block_bytes as u64));
                for p in 1..mult as u64 {
                    assert_eq!(
                        first,
                        s.home_of(r.addr(b * block_bytes as u64 + p * 4096)),
                        "block {b} page {p} (mult {mult})"
                    );
                }
                assert_eq!(first.0, NodeId((b % 2) as u8), "block {b} (mult {mult})");
            }
        }
    }

    #[test]
    fn region_boundaries_resolve_at_line_granularity() {
        // Lines at the very start, the last line before a page break,
        // and the first line after it must resolve inside the region;
        // one line past the padded end must not leak into a neighbour.
        let mut s = space();
        let a = s.alloc(MemClass::FarShared, 2 * 4096);
        let b = s.alloc(MemClass::NearShared { node: NodeId(1) }, 32);
        for off in [0u64, 32, 4096 - 32, 4096, 2 * 4096 - 32] {
            assert_eq!(
                s.region_of(a.addr(off)).unwrap().base,
                a.base,
                "offset {off}"
            );
        }
        // Page straddle: last line of page 0 and first line of page 1
        // have different homes under FarShared.
        assert_ne!(s.home_of(a.addr(4096 - 32)), s.home_of(a.addr(4096)));
        // A short region still owns its whole padded page, but not the
        // guard page after it.
        assert_eq!(s.region_of(b.base + 4095).unwrap().base, b.base);
        assert!(
            s.region_of(b.base + 4096).is_none(),
            "guard page is unmapped"
        );
        assert!(s.try_home_of(b.base + 4096).is_err());
    }

    #[test]
    fn try_alloc_error_paths_leave_the_space_usable() {
        let mut s = space();
        assert!(matches!(
            s.try_alloc(MemClass::BlockShared { block_bytes: 0 }, 4096),
            Err(SimError::BadBlockSize { page: 4096, got: 0 })
        ));
        assert!(matches!(
            s.try_alloc(MemClass::BlockShared { block_bytes: 4095 }, 4096),
            Err(SimError::BadBlockSize { .. })
        ));
        assert!(matches!(
            s.try_alloc(MemClass::NearShared { node: NodeId(0) }, 0),
            Err(SimError::ZeroLengthAlloc)
        ));
        // Failed attempts must not consume address space or regions.
        assert_eq!(s.num_regions(), 0);
        assert_eq!(s.allocated_bytes(), 0);
        let ok = s.try_alloc(MemClass::FarShared, 4096).unwrap();
        assert_eq!(s.home_of(ok.addr(0)).0, NodeId(0));
        assert_eq!(s.num_regions(), 1);
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let mut s = space();
        assert!(matches!(
            s.try_alloc(MemClass::FarShared, 0),
            Err(SimError::ZeroLengthAlloc)
        ));
        assert!(matches!(
            s.try_alloc(MemClass::BlockShared { block_bytes: 100 }, 4096),
            Err(SimError::BadBlockSize {
                page: 4096,
                got: 100
            })
        ));
        assert!(matches!(
            s.try_home_of(0x10_0000_0000),
            Err(SimError::UnmappedAddress { .. })
        ));
    }

    /// The home by the region rule alone, bypassing the table.
    fn by_region(s: &AddressSpace, addr: u64) -> Option<(NodeId, FuId)> {
        s.region_of(addr).map(|r| s.home_in(r, addr))
    }

    #[test]
    fn the_home_table_agrees_with_the_region_rules_page_for_page() {
        let mut s = AddressSpace::new(&MachineConfig::spp1000(4));
        for (class, len) in [
            (MemClass::FarShared, 13 * 4096 + 5),
            (MemClass::ThreadPrivate { home: FuId(9) }, 100),
            (MemClass::NodePrivate { node: NodeId(3) }, 7 * 4096),
            (MemClass::NearShared { node: NodeId(2) }, 9 * 4096 - 1),
            (
                MemClass::BlockShared {
                    block_bytes: 3 * 4096,
                },
                20 * 4096,
            ),
        ] {
            s.alloc(class, len);
        }
        let end = s.allocated_bytes() + 2 * 4096;
        for addr in (0..end + 4 * 4096).step_by(1024) {
            let want = by_region(&s, addr);
            assert_eq!(s.try_home_of(addr).ok(), want, "addr {addr:#x}");
        }
        assert!(matches!(
            s.try_home_of(0),
            Err(SimError::UnmappedAddress { addr: 0 })
        ));
    }

    #[test]
    fn pages_beyond_the_home_table_resolve_from_the_regions() {
        let mut s = space();
        let a = s.alloc(MemClass::FarShared, 4096);
        // A region straddling the table's reach, and one wholly above.
        let big = s.alloc(MemClass::FarShared, HOME_TABLE_PAGES * 4096);
        let above = s.alloc(MemClass::NearShared { node: NodeId(1) }, 3 * 4096);
        assert_eq!(
            s.homes.len() as u64,
            HOME_TABLE_PAGES,
            "the table stops at its reach"
        );
        let reach = HOME_TABLE_PAGES * 4096;
        for addr in [
            a.base,
            big.base,
            reach - 4096,
            reach - 1,
            reach,
            big.base + big.len - 1,
            big.base + big.len, // guard page
            above.base,
            above.base + 2 * 4096,
            above.base + 3 * 4096, // guard page
        ] {
            assert_eq!(
                s.try_home_of(addr).ok(),
                by_region(&s, addr),
                "addr {addr:#x}"
            );
        }
        assert!(s.try_home_of(big.base + big.len).is_err());
        assert!(s.try_home_of(above.base + 3 * 4096).is_err());
        assert_eq!(s.home_of(above.base).0, NodeId(1));
    }
}
