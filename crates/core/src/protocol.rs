//! Pluggable cache-coherence protocols behind one seam.
//!
//! [`Machine::read`] / [`Machine::write`] wrap every access in the
//! protocol-independent machinery — hard-fault triggering, access
//! counters, hit classification, ring-stall/reroute and transient
//! fault injection, the clock, the per-access observers and tracer.
//! A read hit (any valid state) and a write hit (`Modified`) mean the
//! same under every protocol, so the machine charges those itself and
//! dispatches only the rest — misses, upgrades, and the protocol's
//! own write transitions (state changes, miss service, pricing) — to
//! the machine's selected [`ProtocolKind`]:
//!
//! * [`DashSci`] — the SPP-1000's real stack: DASH-style intra-node
//!   directories, per-(node, ring) global cache buffers, and SCI
//!   linked-list sharing between hypernodes (paper §2.4–2.6). The
//!   default, and bit-identical — cycles and [`crate::MemStats`] —
//!   to the historical hardwired access paths it was extracted from.
//! * [`Mesi`] — a bus-snooping invalidation protocol with the
//!   Exclusive optimization: misses broadcast to every cache, a dirty
//!   peer supplies data cache-to-cache, and a write to a Shared line
//!   invalidates the other holders. The counterfactual the paper's
//!   §2.4 comparison with bus-based SMPs gestures at.
//! * [`Dragon`] — a write-update protocol: a write to a shared line
//!   broadcasts the new data to the other holders instead of
//!   invalidating them, leaving the writer in the owned-shared `Sm`
//!   state ([`LineState::OwnedShared`]).
//!
//! MESI and Dragon model a flat snooping interconnect spanning the
//! whole machine. Holders are tracked sparsely by a `SnoopFilter`
//! (a line → holder-list map), so a 128-hypernode, 1024-CPU machine
//! allocates memory proportional to its touched lines, never to CPU
//! count × capacity. Remote-homed memory still pays the SCI distance
//! of the latency model (`sci_fetch` over the home's ring hops), so
//! NUMA topology effects survive the protocol swap; the hypernode
//! GCBs and DASH directories sit idle under both snooping backends
//! and their counters stay zero. Conversely [`crate::MemStats::snoops`]
//! and [`crate::MemStats::updates`] stay zero under DASH+SCI, and the
//! miss-partition invariant (`local + gcb + sci + c2c == misses`)
//! holds under every backend.

use crate::cache::{Evicted, LineState};
use crate::config::{CpuId, FuId, NodeId};
use crate::latency::Cycles;
use crate::linemap::LineMap;
use crate::machine::Machine;
use crate::trace::{MissKind, TraceEvent};

/// Which coherence protocol a [`Machine`] runs (see the
/// [module docs](self)). Select one with [`Machine::with_protocol`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// DASH-style directories + SCI rings (the SPP-1000 hardware).
    #[default]
    DashSci,
    /// Bus-snooping MESI invalidation protocol.
    Mesi,
    /// Dragon write-update protocol.
    Dragon,
}

impl ProtocolKind {
    /// All protocols, in tag order (sweep order for experiments).
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::DashSci,
        ProtocolKind::Mesi,
        ProtocolKind::Dragon,
    ];

    /// Stable lowercase label (scenario TOML, reports, CLI).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::DashSci => "dash-sci",
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Dragon => "dragon",
        }
    }

    /// Parse a [`ProtocolKind::label`] back; `None` for unknown names.
    pub fn from_label(s: &str) -> Option<ProtocolKind> {
        match s {
            "dash-sci" => Some(ProtocolKind::DashSci),
            "mesi" => Some(ProtocolKind::Mesi),
            "dragon" => Some(ProtocolKind::Dragon),
            _ => None,
        }
    }

    /// Stable one-byte tag (snapshot streams).
    pub fn tag(&self) -> u8 {
        match self {
            ProtocolKind::DashSci => 0,
            ProtocolKind::Mesi => 1,
            ProtocolKind::Dragon => 2,
        }
    }

    /// Parse a [`ProtocolKind::tag`] back; `None` for unknown tags.
    pub fn from_tag(t: u8) -> Option<ProtocolKind> {
        match t {
            0 => Some(ProtocolKind::DashSci),
            1 => Some(ProtocolKind::Mesi),
            2 => Some(ProtocolKind::Dragon),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The seam every backend implements. The machine's access wrappers
/// decide plain hits themselves and call at most one of these per
/// cached access, with the line, its home `(node, FU)` and the
/// issuer's looked-up state already computed; implementations mutate
/// coherence state, count into the access's [`crate::MemStats`] delta
/// (hit or exactly one miss class per access — the conservation
/// invariant), and return the cycles the issuing CPU observes.
pub trait CoherenceProtocol {
    /// Service a read miss of `line`, homed at `home`, by `cpu`.
    fn read_miss(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) -> Cycles;
    /// Service a write to `line`, homed at `home`, by `cpu`, whose
    /// copy is in `state` (never [`LineState::Modified`]: that is a
    /// plain hit).
    fn write_access(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        state: LineState,
    ) -> Cycles;
    /// Price a read miss of `line` against the current state without
    /// mutating anything (the twin of [`Machine::peek_read_cost`]).
    fn peek_read_miss(m: &Machine, cpu: CpuId, addr: u64, line: u64) -> Cycles;
}

/// Sparse holder tracking for the snooping backends: which CPUs hold
/// each line, so a "bus broadcast" touches the actual holders instead
/// of scanning every cache. Empty under DASH+SCI (the directories and
/// SCI lists carry that information there).
#[derive(Debug, Clone)]
pub(crate) struct SnoopFilter {
    holders: LineMap<Vec<u16>>,
    /// The emptied holder lists of lines no cache holds any more. A
    /// newly cached line takes one, so lines that keep entering and
    /// leaving the caches allocate nothing once warm.
    spare: Vec<Vec<u16>>,
}

/// Room a new holder list starts with: enough that a line shared by
/// up to this many CPUs never regrows its list (4 → 8 → 16).
const HOLDERS_ROOM: usize = 16;

impl SnoopFilter {
    /// An empty filter.
    pub(crate) fn new() -> Self {
        SnoopFilter {
            holders: LineMap::new(),
            spare: Vec::new(),
        }
    }

    /// `line`'s holder list, created from a spare buffer if absent.
    fn entry(&mut self, line: u64) -> &mut Vec<u16> {
        let spare = &mut self.spare;
        self.holders.entry_or_insert_with(line, || {
            spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(HOLDERS_ROOM))
        })
    }

    /// Record that `cpu` now holds `line` (idempotent).
    pub(crate) fn add(&mut self, line: u64, cpu: u16) {
        let v = self.entry(line);
        if !v.contains(&cpu) {
            v.push(cpu);
        }
    }

    /// Drop `cpu` from `line`'s holder list; an emptied list is removed.
    pub(crate) fn remove(&mut self, line: u64, cpu: u16) {
        self.retain(line, |c| c != cpu);
    }

    /// Make `cpu` the only holder of `line` (a write's invalidation
    /// broadcast) in one probe, reusing the list's buffer.
    pub(crate) fn set_sole_holder(&mut self, line: u64, cpu: u16) {
        let v = self.entry(line);
        v.clear();
        v.push(cpu);
    }

    /// Drop every holder of `line` that `keep` rejects; an emptied
    /// list is removed and its buffer kept spare.
    fn retain(&mut self, line: u64, keep: impl Fn(u16) -> bool) {
        let empty = match self.holders.get_mut(line) {
            Some(v) => {
                v.retain(|c| keep(*c));
                v.is_empty()
            }
            None => false,
        };
        if empty {
            if let Some(v) = self.holders.remove(line) {
                self.spare.push(v);
            }
        }
    }

    /// All holders of `line`.
    pub(crate) fn holders(&self, line: u64) -> &[u16] {
        self.holders.get(line).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of lines with at least one holder (the touched-line
    /// footprint the sparse representation pays for).
    pub(crate) fn live_lines(&self) -> usize {
        self.holders.len()
    }

    /// Iterate over the lines with holders (checker sweep).
    pub(crate) fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.holders.iter().map(|(l, _)| l)
    }

    /// Drop everything (cache flush between benchmark repetitions).
    pub(crate) fn clear(&mut self) {
        self.holders.clear();
    }
}

/// Run `f` on the holders of `line` other than `cpu` (the caches a
/// broadcast from `cpu` reaches), gathered with one filter probe into
/// the machine's reusable scratch buffer, so a snoop allocates nothing
/// once the buffer has grown.
fn with_other_holders<R>(
    m: &mut Machine,
    line: u64,
    cpu: CpuId,
    f: impl FnOnce(&mut Machine, &[u16]) -> R,
) -> R {
    let mut others = std::mem::take(&mut m.scratch);
    others.clear();
    others.extend(m.snoop.holders(line).iter().filter(|&&c| c != cpu.0));
    let r = f(m, &others);
    m.scratch = others;
    r
}

/// The SPP-1000's DASH + SCI stack (see the [module docs](self)).
///
/// The implementation bodies live in [`crate::machine`]'s historical
/// `read_miss` / `invalidate_others` helpers; this backend is the
/// extraction of the pre-seam hardwired dispatch, verbatim, and is
/// pinned bit-identical by the fig2/fig8 goldens and the
/// scalar/batched cross-validation suite.
#[derive(Debug, Clone, Copy, Default)]
pub struct DashSci;

impl DashSci {
    /// The writer takes ownership: its copy goes Modified, its node
    /// directory records it as owner, and a remote-homed line is
    /// marked dirty in the GCB and the SCI tree.
    fn own(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) {
        let (my_node, in_node) = m.place(cpu);
        m.caches[cpu.0 as usize].set_state(line, LineState::Modified);
        m.dirs[my_node.0 as usize].set_owner(line, in_node);
        m.mark_dirty_if_remote(cpu, line, home);
    }
}

impl CoherenceProtocol for DashSci {
    fn read_miss(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) -> Cycles {
        m.read_miss(cpu, line, home)
    }

    fn write_access(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        state: LineState,
    ) -> Cycles {
        match state {
            LineState::Shared => {
                // Write upgrade: the data is present (a hit), but
                // exclusivity must be obtained.
                m.delta.hits += 1;
                let cost = m.invalidate_others(cpu, line, home);
                m.delta.upgrades += 1;
                m.emit(cpu, TraceEvent::Upgrade { line });
                Self::own(m, cpu, line, home);
                m.cfg.latency.cache_hit + m.cfg.latency.dir_op + cost
            }
            LineState::Invalid => {
                // Read-exclusive: fetch + invalidate + own.
                let fetch = m.read_miss(cpu, line, home);
                let inv = m.invalidate_others(cpu, line, home);
                m.delta.upgrades += 1;
                m.emit(cpu, TraceEvent::Upgrade { line });
                // A dead CPU's drained store is serviced by the node
                // controller (write-through): it never takes
                // ownership, so the line ends up Shared at node level
                // with no CPU copy.
                if !m.is_cpu_dead(cpu) {
                    Self::own(m, cpu, line, home);
                }
                fetch + inv
            }
            // Modified is the machine's hit; E/Sm never occur here.
            s => unreachable!("DASH+SCI write to a {s:?} line"),
        }
    }

    fn peek_read_miss(m: &Machine, cpu: CpuId, addr: u64, line: u64) -> Cycles {
        let lat = &m.cfg.latency;
        let (my_node, in_node) = m.place(cpu);
        let (hnode, hfu) = m.space.home_of(addr);
        let mut cost;

        let local_owner = m.dirs[my_node.0 as usize]
            .get(line)
            .and_then(|e| e.owner)
            .filter(|o| *o != in_node);

        if local_owner.is_some() {
            cost = lat.local_miss + lat.c2c_extra;
        } else if hnode == my_node {
            if let Some(d) = m.sci.dirty_node(line).filter(|d| *d != my_node.0) {
                let hops = m.cfg.ring_round_trip_hops(my_node, NodeId(d));
                cost = lat.local_miss + lat.sci_fetch(hops);
            } else {
                cost = lat.local_miss;
            }
        } else {
            let g = m.gcb_index(my_node, m.ring_of(hfu));
            match m.gcbs[g].lookup(line) {
                LineState::Invalid => {
                    let hops = m.cfg.ring_round_trip_hops(my_node, hnode);
                    cost = lat.local_miss + lat.sci_fetch(hops);
                    if let Some(d) = m
                        .sci
                        .dirty_node(line)
                        .filter(|d| *d != my_node.0 && *d != hnode.0)
                    {
                        cost += lat.sci_list_op
                            + m.cfg.ring_round_trip_hops(hnode, NodeId(d)) * lat.ring_hop / 2;
                    }
                    if m.dirs[hnode.0 as usize]
                        .get(line)
                        .and_then(|e| e.owner)
                        .is_some()
                    {
                        cost += lat.c2c_extra;
                    }
                    if let Some(victim) = m.gcbs[g].peek_victim(line) {
                        cost += m.peek_gcb_rollout_cost(my_node, victim);
                    }
                }
                _ => {
                    cost = lat.local_miss;
                }
            }
        }

        if let Some(victim) = m.caches[cpu.0 as usize].peek_victim(line) {
            if victim.state == LineState::Modified {
                cost += lat.writeback;
            }
        }
        cost
    }
}

/// A CPU cache eviction under the snooping backends: drop the victim
/// from the holder filter; dirty victims (`M` or `Sm`) write back.
fn snoop_evict(m: &mut Machine, cpu: CpuId, victim: Evicted) -> Cycles {
    m.delta.evictions += 1;
    m.snoop.remove(victim.line, cpu.0);
    if victim.state.is_dirty() {
        m.delta.writebacks += 1;
        m.cfg.latency.writeback
    } else {
        0
    }
}

/// Install `line` in `cpu`'s cache in `state` under a snooping
/// backend: a displaced victim leaves the filter (and writes back if
/// dirty), and `cpu` joins the line's holders. Returns the victim's
/// cost.
fn snoop_fill(m: &mut Machine, cpu: CpuId, line: u64, state: LineState) -> Cycles {
    let cost = match m.caches[cpu.0 as usize].fill(line, state) {
        Some(victim) => snoop_evict(m, cpu, victim),
        None => 0,
    };
    m.snoop.add(line, cpu.0);
    cost
}

/// Memory supplies a snooping miss: at home-local cost when `cpu`'s
/// node is the line's home, otherwise over the SCI distance to it.
/// Counts and traces the miss.
fn snoop_memory_fetch(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) -> Cycles {
    let my_node = m.place(cpu).0;
    let (hnode, _) = home;
    if hnode == my_node {
        m.delta.local_misses += 1;
        m.emit(
            cpu,
            TraceEvent::Miss {
                kind: MissKind::Local,
                line,
            },
        );
        m.cfg.latency.local_miss
    } else {
        let hops = m.cfg.ring_round_trip_hops(my_node, hnode);
        m.delta.sci_fetches += 1;
        m.emit(
            cpu,
            TraceEvent::Miss {
                kind: MissKind::Sci,
                line,
            },
        );
        m.cfg.latency.local_miss + m.cfg.latency.sci_fetch(hops)
    }
}

/// A dirty peer supplies a snooping miss cache-to-cache. Counts and
/// traces the transfer.
fn snoop_c2c(m: &mut Machine, cpu: CpuId, line: u64) -> Cycles {
    m.delta.c2c_transfers += 1;
    m.emit(
        cpu,
        TraceEvent::Miss {
            kind: MissKind::C2c,
            line,
        },
    );
    m.cfg.latency.local_miss + m.cfg.latency.c2c_extra
}

/// The first of `others` holding `line` dirty, if any.
fn dirty_holder(m: &Machine, line: u64, others: &[u16]) -> Option<u16> {
    others
        .iter()
        .copied()
        .find(|&c| m.caches[c as usize].lookup(line).is_dirty())
}

/// Demote the `Exclusive` copies among `others` to `Shared` (another
/// cache now holds the line too).
fn demote_exclusive(m: &mut Machine, line: u64, others: &[u16]) {
    for &h in others {
        if m.caches[h as usize].lookup(line) == LineState::Exclusive {
            m.caches[h as usize].set_state(line, LineState::Shared);
        }
    }
}

/// The read-miss pricing both snooping backends share: a dirty peer
/// supplies cache-to-cache, otherwise memory supplies at home-local
/// or SCI-remote cost; a displaced dirty victim writes back. Pure —
/// the peek twin of the mutating miss paths.
fn snoop_peek_read_miss(m: &Machine, cpu: CpuId, addr: u64, line: u64) -> Cycles {
    let lat = &m.cfg.latency;
    let dirty = m
        .snoop
        .holders(line)
        .iter()
        .any(|&c| c != cpu.0 && m.caches[c as usize].lookup(line).is_dirty());
    let mut cost = if dirty {
        lat.local_miss + lat.c2c_extra
    } else {
        let my_node = m.place(cpu).0;
        let (hnode, _) = m.space.home_of(addr);
        if hnode == my_node {
            lat.local_miss
        } else {
            lat.local_miss + lat.sci_fetch(m.cfg.ring_round_trip_hops(my_node, hnode))
        }
    };
    if let Some(victim) = m.caches[cpu.0 as usize].peek_victim(line) {
        if victim.state.is_dirty() {
            cost += lat.writeback;
        }
    }
    cost
}

/// Bus-snooping MESI (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mesi;

impl Mesi {
    /// Service a miss: broadcast a snoop, take data from a dirty peer
    /// or from memory, transition the other holders (`for_write`
    /// invalidates them; a read demotes `M`/`E` to `S`), and install
    /// the line — `M` for writes, `E` when this is the sole copy, `S`
    /// otherwise.
    fn miss_fetch(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        for_write: bool,
    ) -> Cycles {
        m.delta.snoops += 1;
        m.emit(cpu, TraceEvent::Snoop { line });
        with_other_holders(m, line, cpu, |m, others| {
            let mut cost;
            if let Some(owner) = dirty_holder(m, line, others) {
                // Dirty peer supplies cache-to-cache (and writes back).
                cost = snoop_c2c(m, cpu, line);
                if !for_write {
                    m.caches[owner as usize].set_state(line, LineState::Shared);
                }
            } else {
                cost = snoop_memory_fetch(m, cpu, line, home);
            }
            if for_write {
                cost += Self::invalidate(m, cpu, line, others);
            } else {
                demote_exclusive(m, line, others);
            }
            // A dead CPU's drained request is serviced but never
            // refills the dead cache (as under DASH+SCI).
            if m.is_cpu_dead(cpu) {
                return cost;
            }
            let state = if for_write {
                LineState::Modified
            } else if others.is_empty() {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            cost + snoop_fill(m, cpu, line, state)
        })
    }

    /// Invalidate the copies of `line` held by `others`, leaving the
    /// writer `cpu` the line's only listed holder (none when `cpu` is
    /// dead: its drained write refills nothing); returns the
    /// serialized cost.
    fn invalidate(m: &mut Machine, cpu: CpuId, line: u64, others: &[u16]) -> Cycles {
        if others.is_empty() {
            return 0;
        }
        for &h in others {
            m.caches[h as usize].invalidate(line);
        }
        if m.is_cpu_dead(cpu) {
            m.snoop.retain(line, |_| false);
        } else {
            m.snoop.set_sole_holder(line, cpu.0);
        }
        let n = others.len() as u64;
        m.delta.invalidations += n;
        n * m.cfg.latency.inv_local
    }
}

impl CoherenceProtocol for Mesi {
    fn read_miss(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) -> Cycles {
        Self::miss_fetch(m, cpu, line, home, false)
    }

    fn write_access(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        state: LineState,
    ) -> Cycles {
        let hit = m.cfg.latency.cache_hit;
        match state {
            LineState::Exclusive => {
                // The MESI payoff: sole clean copy upgrades silently.
                m.delta.hits += 1;
                m.caches[cpu.0 as usize].set_state(line, LineState::Modified);
                hit
            }
            LineState::Shared => {
                // Upgrade: data present (a hit), broadcast invalidates
                // the other holders.
                m.delta.hits += 1;
                m.delta.snoops += 1;
                m.emit(cpu, TraceEvent::Snoop { line });
                let inv = with_other_holders(m, line, cpu, |m, others| {
                    Self::invalidate(m, cpu, line, others)
                });
                m.delta.upgrades += 1;
                m.emit(cpu, TraceEvent::Upgrade { line });
                m.caches[cpu.0 as usize].set_state(line, LineState::Modified);
                hit + m.cfg.latency.dir_op + inv
            }
            LineState::Invalid => {
                let cost = Self::miss_fetch(m, cpu, line, home, true);
                m.delta.upgrades += 1;
                m.emit(cpu, TraceEvent::Upgrade { line });
                cost
            }
            // Modified is the machine's hit; Sm never occurs here.
            s => unreachable!("MESI write to a {s:?} line"),
        }
    }

    fn peek_read_miss(m: &Machine, cpu: CpuId, addr: u64, line: u64) -> Cycles {
        snoop_peek_read_miss(m, cpu, addr, line)
    }
}

/// Write-update Dragon (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dragon;

impl Dragon {
    /// Broadcast the written word to the other holders; the previous
    /// owner (if any) demotes to plain Shared — the writer owns the
    /// line after the update.
    fn update_others(m: &mut Machine, cpu: CpuId, line: u64, others: &[u16]) -> Cycles {
        m.delta.updates += 1;
        m.emit(
            cpu,
            TraceEvent::Update {
                line,
                sharers: u8::try_from(others.len()).unwrap_or(u8::MAX),
            },
        );
        for &h in others {
            let s = m.caches[h as usize].lookup(line);
            if s.is_dirty() || s == LineState::Exclusive {
                m.caches[h as usize].set_state(line, LineState::Shared);
            }
        }
        let lat = &m.cfg.latency;
        lat.dir_op + others.len() as u64 * lat.inv_local
    }

    /// Fetch a missing line: dirty peer supplies (an `M` supplier
    /// moves to `Sm`), otherwise memory at home-local or SCI cost.
    fn fetch(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        others: &[u16],
    ) -> Cycles {
        match dirty_holder(m, line, others) {
            Some(owner) => {
                let cost = snoop_c2c(m, cpu, line);
                if m.caches[owner as usize].lookup(line) == LineState::Modified {
                    m.caches[owner as usize].set_state(line, LineState::OwnedShared);
                }
                cost
            }
            None => {
                let cost = snoop_memory_fetch(m, cpu, line, home);
                demote_exclusive(m, line, others);
                cost
            }
        }
    }
}

impl CoherenceProtocol for Dragon {
    fn read_miss(m: &mut Machine, cpu: CpuId, line: u64, home: (NodeId, FuId)) -> Cycles {
        with_other_holders(m, line, cpu, |m, others| {
            let cost = Self::fetch(m, cpu, line, home, others);
            // A dead CPU's drained request never refills its cache.
            if m.is_cpu_dead(cpu) {
                return cost;
            }
            let state = if others.is_empty() {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            cost + snoop_fill(m, cpu, line, state)
        })
    }

    fn write_access(
        m: &mut Machine,
        cpu: CpuId,
        line: u64,
        home: (NodeId, FuId),
        state: LineState,
    ) -> Cycles {
        let hit = m.cfg.latency.cache_hit;
        match state {
            LineState::Exclusive => {
                m.delta.hits += 1;
                m.caches[cpu.0 as usize].set_state(line, LineState::Modified);
                hit
            }
            LineState::Shared | LineState::OwnedShared => {
                // The Dragon signature: a write to a shared line is a
                // hit that broadcasts the new data instead of
                // invalidating; the writer becomes the owner (`Sm`).
                m.delta.hits += 1;
                with_other_holders(m, line, cpu, |m, others| {
                    if others.is_empty() {
                        m.caches[cpu.0 as usize].set_state(line, LineState::Modified);
                        hit
                    } else {
                        let cost = hit + Self::update_others(m, cpu, line, others);
                        m.caches[cpu.0 as usize].set_state(line, LineState::OwnedShared);
                        cost
                    }
                })
            }
            LineState::Invalid => with_other_holders(m, line, cpu, |m, others| {
                let mut cost = Self::fetch(m, cpu, line, home, others);
                // The bus write reaches surviving holders even when
                // the issuing CPU is dead (drained write-through).
                if !others.is_empty() {
                    cost += Self::update_others(m, cpu, line, others);
                }
                if m.is_cpu_dead(cpu) {
                    return cost;
                }
                let state = if others.is_empty() {
                    LineState::Modified
                } else {
                    LineState::OwnedShared
                };
                cost + snoop_fill(m, cpu, line, state)
            }),
            // Modified is the machine's hit.
            LineState::Modified => unreachable!("Dragon write to a Modified line"),
        }
    }

    fn peek_read_miss(m: &Machine, cpu: CpuId, addr: u64, line: u64) -> Cycles {
        snoop_peek_read_miss(m, cpu, addr, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_tags_round_trip() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_label(p.label()), Some(p));
            assert_eq!(ProtocolKind::from_tag(p.tag()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(ProtocolKind::from_label("moesi"), None);
        assert_eq!(ProtocolKind::from_tag(3), None);
        assert_eq!(ProtocolKind::default(), ProtocolKind::DashSci);
    }

    #[test]
    fn snoop_filter_tracks_holders_sparsely() {
        let mut f = SnoopFilter::new();
        f.add(10, 3);
        f.add(10, 7);
        f.add(10, 3); // idempotent
        assert_eq!(f.holders(10), &[3, 7]);
        assert_eq!(f.live_lines(), 1);
        f.set_sole_holder(10, 7);
        assert_eq!(f.holders(10), &[7]);
        f.add(10, 3);
        f.remove(10, 3);
        f.remove(10, 7);
        assert_eq!(f.live_lines(), 0);
        assert!(f.holders(10).is_empty());
    }
}
