//! `spp-insight`: opt-in cycle attribution and contention heatmaps.
//!
//! The paper's analysis method is *attribution*: every figure's shape
//! is explained by decomposing latency into the SPP-1000's service
//! levels — CPU cache hit, hypernode-local memory, the global cache
//! buffer, an SCI ring transaction, an intra-node cache-to-cache
//! transfer — and blaming specific structures for the remote traffic.
//! [`MemStats`] reproduces the *totals*; this module reproduces the
//! *blame*: an opt-in [`HeatMap`] mounted on the
//! [`crate::Machine`] accumulates, per cache line, the cycles
//! and protocol events of every access, classified by the service
//! level that priced it. Joined with the named-region registry on
//! [`crate::AddressSpace`] (apps label their arrays at alloc time via
//! `SimArray::set_label`), the heatmap answers "which array, which
//! lines, which service level" for every simulated cycle.
//!
//! ## Partition invariant
//!
//! The heatmap is a *decomposition*, not an estimate: from the moment
//! it is mounted, every cycle the machine clock advances is attributed
//! to exactly one (line, service level) cell, and every attributed
//! protocol counter matches the global [`MemStats`] delta it
//! decomposes. [`HeatMap::partition_check`] (surfaced as
//! `Machine::heat_partition_check`) enforces this bit-exactly,
//! alongside the existing [`MemStats::miss_partition_check`].
//!
//! ## Zero overhead when off
//!
//! Same contract as [`crate::trace`] and [`crate::race`]: with no
//! heatmap mounted every access site pays a single `Option`
//! discriminant test, and mounting one never changes simulated cycles
//! or [`MemStats`] — attribution-on runs are bit-identical to
//! attribution-off runs (the machine's unit tests hold it to that).

use crate::json::Json;
use crate::latency::Cycles;
use crate::linemap::LineMap;
use crate::machine::Machine;
use crate::stats::MemStats;

/// Which level of the memory hierarchy serviced an access. The six
/// levels partition all priced traffic: every access is classified by
/// the *furthest* service it required (an SCI fetch that also missed
/// locally is `Sci`, not `Local`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceLevel {
    /// Serviced by the issuing CPU's cache.
    Hit,
    /// Serviced by memory within the hypernode.
    Local,
    /// Serviced by the hypernode's global cache buffer.
    Gcb,
    /// Required an SCI ring transaction.
    Sci,
    /// Cache-to-cache transfer within the hypernode.
    C2c,
    /// An uncached (semaphore) operation; bypasses all caches.
    Uncached,
}

/// Number of [`ServiceLevel`] variants.
pub const N_SERVICE_LEVELS: usize = 6;

impl ServiceLevel {
    /// All levels, in [`ServiceLevel::index`] order.
    pub const ALL: [ServiceLevel; N_SERVICE_LEVELS] = [
        ServiceLevel::Hit,
        ServiceLevel::Local,
        ServiceLevel::Gcb,
        ServiceLevel::Sci,
        ServiceLevel::C2c,
        ServiceLevel::Uncached,
    ];

    /// Dense index into a `[_; N_SERVICE_LEVELS]` array.
    pub fn index(self) -> usize {
        match self {
            ServiceLevel::Hit => 0,
            ServiceLevel::Local => 1,
            ServiceLevel::Gcb => 2,
            ServiceLevel::Sci => 3,
            ServiceLevel::C2c => 4,
            ServiceLevel::Uncached => 5,
        }
    }

    /// Stable short label (exporters and reports).
    pub fn label(self) -> &'static str {
        match self {
            ServiceLevel::Hit => "hit",
            ServiceLevel::Local => "local",
            ServiceLevel::Gcb => "gcb",
            ServiceLevel::Sci => "sci",
            ServiceLevel::C2c => "c2c",
            ServiceLevel::Uncached => "uncached",
        }
    }

    /// Classify one access from its bracketed [`MemStats`] delta: the
    /// furthest service level whose counter moved, or [`Hit`] when
    /// none did.
    ///
    /// [`Hit`]: ServiceLevel::Hit
    pub fn of_delta(delta: &MemStats) -> ServiceLevel {
        if delta.uncached_ops > 0 {
            ServiceLevel::Uncached
        } else if delta.c2c_transfers > 0 {
            ServiceLevel::C2c
        } else if delta.sci_fetches > 0 {
            ServiceLevel::Sci
        } else if delta.gcb_hits > 0 {
            ServiceLevel::Gcb
        } else if delta.local_misses > 0 {
            ServiceLevel::Local
        } else {
            ServiceLevel::Hit
        }
    }

    /// The dominant *miss* level of a bracketed delta: the miss kind
    /// with the highest count (`Hit` when there were no misses). Ties
    /// go to the nearer level. Used by the barrier-interval critical
    /// path analysis to name a straggler's bottleneck.
    pub fn dominant_miss(delta: &MemStats) -> ServiceLevel {
        let kinds = [
            (ServiceLevel::Local, delta.local_misses),
            (ServiceLevel::Gcb, delta.gcb_hits),
            (ServiceLevel::Sci, delta.sci_fetches),
            (ServiceLevel::C2c, delta.c2c_transfers),
        ];
        let mut best = (ServiceLevel::Hit, 0u64);
        for (lvl, n) in kinds {
            if n > best.1 {
                best = (lvl, n);
            }
        }
        best.0
    }
}

/// Per-cache-line attribution cell: cycles by service level plus the
/// protocol-event counters charged to the line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeatCell {
    /// Cycles attributed to the line, by [`ServiceLevel::index`].
    pub cycles: [Cycles; N_SERVICE_LEVELS],
    /// Priced accesses (cached reads/writes plus uncached ops).
    pub accesses: u64,
    /// Misses serviced by hypernode-local memory.
    pub local_misses: u64,
    /// Misses serviced by the global cache buffer.
    pub gcb_hits: u64,
    /// Misses requiring an SCI ring transaction.
    pub sci_fetches: u64,
    /// Intra-node cache-to-cache transfers.
    pub c2c_transfers: u64,
    /// Write upgrades (Shared -> Modified).
    pub upgrades: u64,
    /// Remote hypernodes invalidated via SCI list walks triggered by
    /// accesses to this line.
    pub inval_walks: u64,
    /// Uncached (semaphore) operations.
    pub uncached_ops: u64,
}

impl HeatCell {
    /// Total cycles attributed to the line across all service levels.
    pub fn total_cycles(&self) -> Cycles {
        self.cycles.iter().sum()
    }

    /// The service level that consumed the most cycles on this line
    /// (ties go to the nearer level).
    pub fn dominant_level(&self) -> ServiceLevel {
        let mut best = ServiceLevel::Hit;
        let mut best_c = self.cycles[0];
        for lvl in ServiceLevel::ALL {
            if self.cycles[lvl.index()] > best_c {
                best_c = self.cycles[lvl.index()];
                best = lvl;
            }
        }
        best
    }

    fn merge(&mut self, other: &HeatCell) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
        self.accesses += other.accesses;
        self.local_misses += other.local_misses;
        self.gcb_hits += other.gcb_hits;
        self.sci_fetches += other.sci_fetches;
        self.c2c_transfers += other.c2c_transfers;
        self.upgrades += other.upgrades;
        self.inval_walks += other.inval_walks;
        self.uncached_ops += other.uncached_ops;
    }
}

/// The cycle-attribution accumulator, keyed by cache line. Mounted
/// with `Machine::with_heatmap`; see the [module docs](self) for the
/// partition invariant and the zero-overhead contract.
#[derive(Debug, Clone)]
pub struct HeatMap {
    /// Machine clock at mount time: the attribution origin.
    start_clock: Cycles,
    /// Global counters at mount time.
    start_stats: MemStats,
    cells: LineMap<HeatCell>,
}

impl HeatMap {
    /// A heatmap whose attribution origin is the given clock/stats
    /// snapshot (the machine's state at mount time).
    pub fn new(start_clock: Cycles, start_stats: MemStats) -> Self {
        HeatMap {
            start_clock,
            start_stats,
            cells: LineMap::new(),
        }
    }

    /// Machine clock at mount time.
    pub fn start_clock(&self) -> Cycles {
        self.start_clock
    }

    /// Attribute one priced access: `cost` cycles on `line`, with the
    /// access's bracketed [`MemStats`] delta deciding the service
    /// level and the counter charges.
    pub fn note(&mut self, line: u64, cost: Cycles, delta: &MemStats) {
        let level = ServiceLevel::of_delta(delta);
        let cell = self.cells.entry_or_insert_with(line, HeatCell::default);
        cell.cycles[level.index()] += cost;
        cell.accesses += delta.reads + delta.writes + delta.uncached_ops;
        cell.local_misses += delta.local_misses;
        cell.gcb_hits += delta.gcb_hits;
        cell.sci_fetches += delta.sci_fetches;
        cell.c2c_transfers += delta.c2c_transfers;
        cell.upgrades += delta.upgrades;
        cell.inval_walks += delta.sci_invalidations;
        cell.uncached_ops += delta.uncached_ops;
    }

    /// Number of distinct lines attributed so far.
    pub fn touched_lines(&self) -> usize {
        self.cells.len()
    }

    /// Sum of every cell, as one aggregate cell.
    pub fn totals(&self) -> HeatCell {
        let mut t = HeatCell::default();
        for (_, c) in self.cells.iter() {
            t.merge(c);
        }
        t
    }

    /// The partition invariant: heatmap cycles sum exactly to the
    /// machine clock advance since mount, and every attributed counter
    /// sums exactly to the global [`MemStats`] delta it decomposes.
    /// `clock` and `stats` are the machine's *current* clock and
    /// global counters.
    pub fn partition_check(&self, clock: Cycles, stats: &MemStats) -> bool {
        let t = self.totals();
        let d = stats.since(&self.start_stats);
        t.total_cycles() == clock.saturating_sub(self.start_clock)
            && t.accesses == d.reads + d.writes + d.uncached_ops
            && t.local_misses == d.local_misses
            && t.gcb_hits == d.gcb_hits
            && t.sci_fetches == d.sci_fetches
            && t.c2c_transfers == d.c2c_transfers
            && t.upgrades == d.upgrades
            && t.inval_walks == d.sci_invalidations
            && t.uncached_ops == d.uncached_ops
    }

    /// The `n` hottest lines by attributed cycles, hottest first
    /// (ties broken by line index, so the order is deterministic).
    pub fn hottest(&self, n: usize) -> Vec<(u64, HeatCell)> {
        let mut all: Vec<(u64, HeatCell)> = self.cells.iter().map(|(l, c)| (l, *c)).collect();
        all.sort_by(|a, b| {
            b.1.total_cycles()
                .cmp(&a.1.total_cycles())
                .then(a.0.cmp(&b.0))
        });
        all.truncate(n);
        all
    }

    /// Every attributed line in ascending line order (deterministic
    /// full dump for exporters).
    pub fn lines(&self) -> Vec<(u64, HeatCell)> {
        let mut all: Vec<(u64, HeatCell)> = self.cells.iter().map(|(l, c)| (l, *c)).collect();
        all.sort_by_key(|(l, _)| *l);
        all
    }
}

/// One region's aggregate in a [`heat_by_region`] rollup.
#[derive(Debug, Clone)]
pub struct RegionHeat {
    /// The region's label (from `Machine::label_region` /
    /// `SimArray::set_label`), or `alloc#<index>` when unnamed.
    pub name: String,
    /// Base address of the region, for disambiguation.
    pub base: u64,
    /// Aggregate cell over the region's lines.
    pub cell: HeatCell,
    /// Lines of this region carrying a false-sharing warning from the
    /// race detector (empty when detection is off).
    pub false_shared_lines: u64,
}

/// Roll the heatmap up by named region, hottest region first. Lines
/// outside any region (there should be none) aggregate under `"?"`.
/// False-sharing flags are joined from the mounted race detector's
/// line-granularity warnings.
pub fn heat_by_region(m: &Machine) -> Vec<RegionHeat> {
    let Some(h) = m.heatmap() else {
        return Vec::new();
    };
    let line_shift = m.config().line_bytes.trailing_zeros();
    let warned = warned_lines(m);
    let space = m.address_space();
    // index into out, keyed by region index (+1; slot 0 = unmapped).
    let mut slots: Vec<Option<usize>> = vec![None; space.num_regions() + 1];
    let mut out: Vec<RegionHeat> = Vec::new();
    for (line, cell) in h.lines() {
        let addr = line << line_shift;
        let idx = space.region_index_of(addr).map(|i| i + 1).unwrap_or(0);
        let slot = match slots[idx] {
            Some(s) => s,
            None => {
                let name = if idx == 0 {
                    "?".to_string()
                } else {
                    space
                        .region_name_at(idx - 1)
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| format!("alloc#{}", idx - 1))
                };
                let base = if idx == 0 {
                    0
                } else {
                    space.region_base_at(idx - 1)
                };
                out.push(RegionHeat {
                    name,
                    base,
                    cell: HeatCell::default(),
                    false_shared_lines: 0,
                });
                slots[idx] = Some(out.len() - 1);
                out.len() - 1
            }
        };
        out[slot].cell.merge(&cell);
        if warned.contains(&line) {
            out[slot].false_shared_lines += 1;
        }
    }
    out.sort_by(|a, b| {
        b.cell
            .total_cycles()
            .cmp(&a.cell.total_cycles())
            .then(a.base.cmp(&b.base))
    });
    out
}

/// Lines flagged with false-sharing warnings by the mounted race
/// detector (empty set when detection is off).
fn warned_lines(m: &Machine) -> std::collections::HashSet<u64> {
    m.race_report().warnings.iter().map(|w| w.line).collect()
}

/// Resolve a line to `region_name` (or `alloc#i`, or `?`).
fn line_region_name(m: &Machine, line: u64) -> String {
    let addr = line << m.config().line_bytes.trailing_zeros();
    let space = m.address_space();
    match space.region_index_of(addr) {
        Some(i) => space
            .region_name_at(i)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("alloc#{i}")),
        None => "?".to_string(),
    }
}

/// Human-readable top-`n` hottest lines and regions report (the
/// `spp-top` of attribution). Deterministic for a deterministic run.
pub fn heat_report(m: &Machine, n: usize) -> String {
    let Some(h) = m.heatmap() else {
        return "heatmap: not mounted\n".to_string();
    };
    let warned = warned_lines(m);
    let mut out = String::new();
    let t = h.totals();
    out.push_str(&format!(
        "heat: {} lines attributed, {} cycles, partition {}\n",
        h.touched_lines(),
        t.total_cycles(),
        if m.heat_partition_check() {
            "ok"
        } else {
            "VIOLATED"
        }
    ));
    out.push_str("cycles by service level:");
    for lvl in ServiceLevel::ALL {
        out.push_str(&format!(" {}={}", lvl.label(), t.cycles[lvl.index()]));
    }
    out.push('\n');
    out.push_str(
        "line             region            cycles  dominant accesses    local      gcb      sci      c2c upgrades    walks\n",
    );
    for (line, cell) in h.hottest(n) {
        let fs = if warned.contains(&line) { " FS" } else { "" };
        out.push_str(&format!(
            "{:<16x} {:<16} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}{}\n",
            line,
            line_region_name(m, line),
            cell.total_cycles(),
            cell.dominant_level().label(),
            cell.accesses,
            cell.local_misses,
            cell.gcb_hits,
            cell.sci_fetches,
            cell.c2c_transfers,
            cell.upgrades,
            cell.inval_walks,
            fs,
        ));
    }
    out.push_str("regions by cycles:\n");
    for r in heat_by_region(m) {
        out.push_str(&format!(
            "  {:<20} cycles {:>10}  accesses {:>8}  dominant {}  false-shared-lines {}\n",
            r.name,
            r.cell.total_cycles(),
            r.cell.accesses,
            r.cell.dominant_level().label(),
            r.false_shared_lines,
        ));
    }
    out
}

fn cell_json(cell: &HeatCell) -> Json {
    let cycles = ServiceLevel::ALL
        .iter()
        .map(|lvl| {
            (
                lvl.label().to_string(),
                Json::from(cell.cycles[lvl.index()]),
            )
        })
        .collect();
    Json::obj()
        .with("cycles", Json::Obj(cycles))
        .with("accesses", cell.accesses)
        .with("local", cell.local_misses)
        .with("gcb", cell.gcb_hits)
        .with("sci", cell.sci_fetches)
        .with("c2c", cell.c2c_transfers)
        .with("upgrades", cell.upgrades)
        .with("inval_walks", cell.inval_walks)
        .with("uncached", cell.uncached_ops)
        .with("dominant", cell.dominant_level().label())
}

/// Machine-readable attribution snapshot: clock, partition verdict,
/// service-level totals, the per-region rollup, and the `top` hottest
/// lines. Integers, strings and booleans only — no floats — so the
/// output is byte-stable and CI can `cmp` double runs directly.
pub fn insight_json(m: &Machine, top: usize) -> String {
    let doc = Json::obj().with("clock", m.clock());
    let Some(h) = m.heatmap() else {
        return doc.with("heatmap", false).report();
    };
    let warned = warned_lines(m);
    let regions: Json = heat_by_region(m)
        .iter()
        .map(|r| {
            Json::obj()
                .with("name", &r.name)
                .with("false_shared_lines", r.false_shared_lines)
                .with("heat", cell_json(&r.cell))
        })
        .collect();
    let lines: Json = h
        .hottest(top)
        .iter()
        .map(|(line, cell)| {
            Json::obj()
                .with("line", *line)
                .with("region", line_region_name(m, *line))
                .with("false_sharing", warned.contains(line))
                .with("heat", cell_json(cell))
        })
        .collect();
    doc.with("heatmap", true)
        .with("attributed_cycles", h.totals().total_cycles())
        .with("heat_partition_check", m.heat_partition_check())
        .with("touched_lines", h.touched_lines())
        .with("totals", cell_json(&h.totals()))
        .with("regions", regions)
        .with("top_lines", lines)
        .report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insight_json_bytes_are_pinned() {
        use crate::{CpuId, MemClass};
        let mut m = Machine::spp1000(1).with_heatmap().with_race_detection();
        let r = m.alloc(MemClass::FarShared, 4096);
        m.label_region(r.base, "g\"rid");
        m.write(CpuId(0), r.addr(0));
        m.read(CpuId(1), r.addr(0));
        m.read(CpuId(2), r.addr(64));
        assert_eq!(
            insight_json(&m, 2),
            "{\n\
             \x20 \"clock\": 190,\n\
             \x20 \"heatmap\": true,\n\
             \x20 \"attributed_cycles\": 190,\n\
             \x20 \"heat_partition_check\": true,\n\
             \x20 \"touched_lines\": 2,\n\
             \x20 \"totals\": {\"cycles\": {\"hit\": 0, \"local\": 110, \"gcb\": 0, \"sci\": 0, \"c2c\": 80, \"uncached\": 0}, \"accesses\": 3, \"local\": 2, \"gcb\": 0, \"sci\": 0, \"c2c\": 1, \"upgrades\": 1, \"inval_walks\": 0, \"uncached\": 0, \"dominant\": \"local\"},\n\
             \x20 \"regions\": [\n\
             \x20   {\"name\": \"g\\\"rid\", \"false_shared_lines\": 0, \"heat\": {\"cycles\": {\"hit\": 0, \"local\": 110, \"gcb\": 0, \"sci\": 0, \"c2c\": 80, \"uncached\": 0}, \"accesses\": 3, \"local\": 2, \"gcb\": 0, \"sci\": 0, \"c2c\": 1, \"upgrades\": 1, \"inval_walks\": 0, \"uncached\": 0, \"dominant\": \"local\"}}\n\
             \x20 ],\n\
             \x20 \"top_lines\": [\n\
             \x20   {\"line\": 128, \"region\": \"g\\\"rid\", \"false_sharing\": false, \"heat\": {\"cycles\": {\"hit\": 0, \"local\": 55, \"gcb\": 0, \"sci\": 0, \"c2c\": 80, \"uncached\": 0}, \"accesses\": 2, \"local\": 1, \"gcb\": 0, \"sci\": 0, \"c2c\": 1, \"upgrades\": 1, \"inval_walks\": 0, \"uncached\": 0, \"dominant\": \"c2c\"}},\n\
             \x20   {\"line\": 130, \"region\": \"g\\\"rid\", \"false_sharing\": false, \"heat\": {\"cycles\": {\"hit\": 0, \"local\": 55, \"gcb\": 0, \"sci\": 0, \"c2c\": 0, \"uncached\": 0}, \"accesses\": 1, \"local\": 1, \"gcb\": 0, \"sci\": 0, \"c2c\": 0, \"upgrades\": 0, \"inval_walks\": 0, \"uncached\": 0, \"dominant\": \"local\"}}\n\
             \x20 ]\n\
             }\n\
             "
        );
        assert_eq!(
            insight_json(&Machine::spp1000(1), 2),
            "{\n\
             \x20 \"clock\": 0,\n\
             \x20 \"heatmap\": false\n\
             }\n\
             "
        );
    }

    #[test]
    fn service_level_classification_prefers_the_furthest_level() {
        let mut d = MemStats {
            reads: 1,
            local_misses: 1,
            ..Default::default()
        };
        assert_eq!(ServiceLevel::of_delta(&d), ServiceLevel::Local);
        d.gcb_hits = 1;
        assert_eq!(ServiceLevel::of_delta(&d), ServiceLevel::Gcb);
        d.sci_fetches = 1;
        assert_eq!(ServiceLevel::of_delta(&d), ServiceLevel::Sci);
        d.c2c_transfers = 1;
        assert_eq!(ServiceLevel::of_delta(&d), ServiceLevel::C2c);
        d.uncached_ops = 1;
        assert_eq!(ServiceLevel::of_delta(&d), ServiceLevel::Uncached);
        assert_eq!(
            ServiceLevel::of_delta(&MemStats::default()),
            ServiceLevel::Hit
        );
    }

    #[test]
    fn dominant_miss_picks_the_largest_kind() {
        let d = MemStats {
            local_misses: 2,
            sci_fetches: 5,
            gcb_hits: 1,
            ..Default::default()
        };
        assert_eq!(ServiceLevel::dominant_miss(&d), ServiceLevel::Sci);
        assert_eq!(
            ServiceLevel::dominant_miss(&MemStats::default()),
            ServiceLevel::Hit
        );
    }

    #[test]
    fn note_accumulates_and_partition_checks() {
        let mut h = HeatMap::new(100, MemStats::default());
        let miss = MemStats {
            reads: 1,
            local_misses: 1,
            ..Default::default()
        };
        let hit = MemStats {
            reads: 1,
            hits: 1,
            ..Default::default()
        };
        h.note(7, 40, &miss);
        h.note(7, 1, &hit);
        h.note(9, 1, &hit);
        let global = MemStats {
            reads: 3,
            hits: 2,
            local_misses: 1,
            ..Default::default()
        };
        assert!(h.partition_check(142, &global));
        assert!(!h.partition_check(143, &global), "one cycle unattributed");
        let cell = h.hottest(1)[0];
        assert_eq!(cell.0, 7);
        assert_eq!(cell.1.total_cycles(), 41);
        assert_eq!(cell.1.dominant_level(), ServiceLevel::Local);
        assert_eq!(h.touched_lines(), 2);
    }

    #[test]
    fn hottest_order_is_deterministic_under_ties() {
        let mut h = HeatMap::new(0, MemStats::default());
        let hit = MemStats {
            reads: 1,
            hits: 1,
            ..Default::default()
        };
        for line in [42u64, 3, 17] {
            h.note(line, 5, &hit);
        }
        let order: Vec<u64> = h.hottest(3).iter().map(|(l, _)| *l).collect();
        assert_eq!(order, vec![3, 17, 42], "ties break by line index");
    }
}
