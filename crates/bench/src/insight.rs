//! Cycle-attribution campaign (`spp repro insight`): every shared-memory
//! application × every coherence protocol with the heatmap mounted,
//! demonstrating
//!
//! * **partition** — per-line attributed cycles and counters sum
//!   bit-exactly to the global clock and [`spp_core::MemStats`]
//!   (`heat_partition_check`) in every cell;
//! * **transparency** — mounting the heatmap (and race detector)
//!   never changes simulated cycles or stats: each cell is re-run
//!   without attribution and compared bit-for-bit;
//! * **attribution** — the hottest line and region per cell, with the
//!   dominant service level (hit / local / GCB / SCI / cache-to-cache
//!   / uncached) explaining *where* the cycles went — the same
//!   decomposition the paper's CXpa profiles drive (§4).
//!
//! Writes an integers-only, byte-stable `BENCH_insight.json` that
//! ci.sh byte-compares across a double run.

use crate::protocol::run_app;
use crate::{emit, Opts, Table};
use spp_core::json::Json;
use spp_core::{heat_by_region, heat_report, Machine, MemStats, ProtocolKind};
use spp_scenario::WorkloadApp;

/// The applications the campaign sweeps (all four of the paper's), at
/// their campaign sizes.
pub const APPS: [WorkloadApp; 4] = [
    WorkloadApp::Pic { mesh: (8, 8, 8) },
    WorkloadApp::Nbody { bodies: 2048 },
    WorkloadApp::Fem { nx: 24, ny: 24 },
    WorkloadApp::Ppm,
];

/// Hypernodes per cell (16 CPUs: enough for cross-node SCI traffic
/// without making the 12-cell sweep expensive).
const HYPERNODES: usize = 2;

/// One (application, protocol) cell of the campaign.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Protocol label (`dash-sci`, `mesi`, `dragon`).
    pub protocol: &'static str,
    /// Application label.
    pub app: &'static str,
    /// Elapsed simulated cycles of the measured steps.
    pub cycles: u64,
    /// Machine clock at the end of the run (what attribution
    /// partitions).
    pub clock: u64,
    /// Cycles the heatmap attributed across all lines.
    pub attributed: u64,
    /// Distinct cache lines touched.
    pub touched_lines: usize,
    /// The partition invariant: attributed cycles and counters sum
    /// bit-exactly to the machine totals.
    pub partition_ok: bool,
    /// The identical run without attribution produced bit-identical
    /// cycles and stats.
    pub transparent: bool,
    /// Hottest line (line index, attributed cycles, dominant service
    /// level label).
    pub hottest_line: (u64, u64, &'static str),
    /// Hottest region (name, attributed cycles).
    pub hottest_region: (String, u64),
    /// Lines carrying a false-sharing warning from the race detector.
    pub false_shared: u64,
    /// Final memory-system counters.
    pub stats: MemStats,
}

/// Run one cell: the attributed run (heatmap + race detector mounted)
/// plus a plain run for the transparency check.
pub fn run_cell(kind: ProtocolKind, app: WorkloadApp, steps: usize) -> Cell {
    attributed_cell(kind, app, steps).0
}

/// [`run_cell`], also handing back the attributed machine.
fn attributed_cell(kind: ProtocolKind, app: WorkloadApp, steps: usize) -> (Cell, Machine) {
    let attributed_machine = Machine::spp1000(HYPERNODES)
        .with_protocol(kind)
        .with_heatmap()
        .with_race_detection();
    let (cycles, m) = run_app(attributed_machine, app, steps);

    let plain = Machine::spp1000(HYPERNODES).with_protocol(kind);
    let (plain_cycles, plain_m) = run_app(plain, app, steps);
    let transparent =
        cycles == plain_cycles && m.clock() == plain_m.clock() && m.stats == plain_m.stats;

    let h = m.heatmap().expect("heatmap mounted");
    let hottest_line = h
        .hottest(1)
        .first()
        .map(|(line, cell)| (*line, cell.total_cycles(), cell.dominant_level().label()))
        .unwrap_or((0, 0, "hit"));
    let regions = heat_by_region(&m);
    let hottest_region = regions
        .first()
        .map(|r| (r.name.clone(), r.cell.total_cycles()))
        .unwrap_or_else(|| ("?".to_string(), 0));
    let false_shared = regions.iter().map(|r| r.false_shared_lines).sum();

    let cell = Cell {
        protocol: kind.label(),
        app: app.label(),
        cycles,
        clock: m.clock(),
        attributed: h.totals().total_cycles(),
        touched_lines: h.touched_lines(),
        partition_ok: m.heat_partition_check(),
        transparent,
        hottest_line,
        hottest_region,
        false_shared,
        stats: m.stats,
    };
    (cell, m)
}

/// The full campaign: every application × every protocol, plus the
/// full per-line heat report of the first cell (PIC on DASH+SCI) as a
/// worked example.
pub fn sweep(o: &Opts) -> (Vec<Cell>, String) {
    let mut cells = Vec::new();
    let mut example = String::new();
    for kind in ProtocolKind::ALL {
        for app in APPS {
            let (cell, m) = attributed_cell(kind, app, o.steps);
            if cells.is_empty() {
                example = heat_report(&m, 5);
            }
            cells.push(cell);
        }
    }
    (cells, example)
}

/// True when every cell partitions and is transparent (the `"passed"`
/// JSON field).
pub fn passed(cells: &[Cell]) -> bool {
    cells
        .iter()
        .all(|c| c.partition_ok && c.transparent && c.touched_lines > 0)
}

/// Machine-readable form (the `BENCH_insight.json` ci.sh
/// byte-compares across a double run). Integers, strings, and bools
/// only — no floats, no timestamps — so identical inputs serialize
/// identically.
pub fn to_json(cells: &[Cell], steps: usize) -> Json {
    let rows: Json = cells
        .iter()
        .map(|c| {
            Json::obj()
                .with("protocol", c.protocol)
                .with("app", c.app)
                .with("cycles", c.cycles)
                .with("clock", c.clock)
                .with("attributed_cycles", c.attributed)
                .with("touched_lines", c.touched_lines)
                .with("heat_partition_check", c.partition_ok)
                .with("attribution_transparent", c.transparent)
                .with("hottest_line", c.hottest_line.0)
                .with("hottest_line_cycles", c.hottest_line.1)
                .with("hottest_line_level", c.hottest_line.2)
                .with("hottest_region", &c.hottest_region.0)
                .with("hottest_region_cycles", c.hottest_region.1)
                .with("false_shared_lines", c.false_shared)
                .with("sci_fetches", c.stats.sci_fetches)
                .with("c2c_transfers", c.stats.c2c_transfers)
                .with("upgrades", c.stats.upgrades)
        })
        .collect();
    spp_scenario::report_head("insight")
        .with("steps", steps)
        .with("passed", passed(cells))
        .with("cells", rows)
}

/// Render the campaign table plus one full heat report as a worked
/// example.
pub fn report(cells: &[Cell]) -> String {
    let mut out = String::new();
    let mut t = Table::new(&[
        "app",
        "protocol",
        "cycles",
        "attributed",
        "lines",
        "partition",
        "transparent",
        "hottest region",
        "level",
    ]);
    for c in cells {
        t.row(vec![
            c.app.to_string(),
            c.protocol.to_string(),
            c.cycles.to_string(),
            c.attributed.to_string(),
            c.touched_lines.to_string(),
            if c.partition_ok { "ok" } else { "VIOLATED" }.to_string(),
            if c.transparent { "yes" } else { "NO" }.to_string(),
            c.hottest_region.0.clone(),
            c.hottest_line.2.to_string(),
        ]);
    }
    out.push_str(&emit(
        "repro-insight: cycle attribution, all apps x all protocols",
        &format!(
            "{}\nEvery cell's heatmap cycles sum bit-exactly to its machine\n\
             totals (heat_partition_check), and attribution never changes\n\
             the simulation: the same cell without the heatmap is\n\
             bit-identical. The dominant service level of the hottest line\n\
             is the paper's latency story told per cache line.",
            t.render()
        ),
    ));
    out
}

/// Regenerate the attribution campaign. Writes `BENCH_insight.json`
/// under `target/repro` (override with `SPP_REPRO_DIR`), then panics
/// if any invariant failed so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let (cells, example) = sweep(o);
    let mut text = report(&cells);
    text.push_str(&emit(
        "repro-insight: heat report (PIC, dash-sci)",
        example.trim_end(),
    ));

    text.push_str(&crate::write_bench(
        "BENCH_insight.json",
        &to_json(&cells, o.steps),
    ));
    text.push('\n');
    assert!(passed(&cells), "insight attribution invariants failed");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_bytes_are_pinned() {
        let cell = Cell {
            protocol: "dash-sci",
            app: "nbody",
            cycles: 100,
            clock: 120,
            attributed: 110,
            touched_lines: 7,
            partition_ok: true,
            transparent: true,
            hottest_line: (42, 60, "sci"),
            hottest_region: ("bodies".to_string(), 80),
            false_shared: 2,
            stats: MemStats {
                sci_fetches: 3,
                c2c_transfers: 4,
                upgrades: 5,
                ..MemStats::default()
            },
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"insight\",\n\
            \x20 \"steps\": 2,\n\
            \x20 \"passed\": true,\n\
            \x20 \"cells\": [\n\
            \x20   {\"protocol\": \"dash-sci\", \"app\": \"nbody\", \"cycles\": 100, \"clock\": 120, \"attributed_cycles\": 110, \"touched_lines\": 7, \"heat_partition_check\": true, \"attribution_transparent\": true, \"hottest_line\": 42, \"hottest_line_cycles\": 60, \"hottest_line_level\": \"sci\", \"hottest_region\": \"bodies\", \"hottest_region_cycles\": 80, \"false_shared_lines\": 2, \"sci_fetches\": 3, \"c2c_transfers\": 4, \"upgrades\": 5}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(to_json(&[cell], 2).report(), expected);
    }

    #[test]
    fn every_protocol_cell_partitions_and_is_transparent() {
        for kind in ProtocolKind::ALL {
            let c = run_cell(kind, APPS[0], 1);
            assert!(c.partition_ok, "{} partition violated", c.protocol);
            assert!(
                c.transparent,
                "{} attribution perturbed the run",
                c.protocol
            );
            assert!(c.touched_lines > 0);
            assert!(c.attributed > 0);
            assert!(c.attributed <= c.clock);
        }
    }

    #[test]
    fn hottest_region_carries_an_application_label() {
        let c = run_cell(ProtocolKind::DashSci, APPS[1], 1);
        // nbody labels its arrays at alloc time; the hottest region
        // must resolve to one of them, never the "?" fallback.
        assert_ne!(c.hottest_region.0, "?", "{:?}", c.hottest_region);
        assert!(c.hottest_region.1 > 0);
    }

    #[test]
    fn json_is_byte_stable_and_integers_only() {
        let cells = vec![
            run_cell(ProtocolKind::DashSci, APPS[2], 1),
            run_cell(ProtocolKind::Mesi, APPS[2], 1),
        ];
        let a = to_json(&cells, 1);
        let again = vec![
            run_cell(ProtocolKind::DashSci, APPS[2], 1),
            run_cell(ProtocolKind::Mesi, APPS[2], 1),
        ];
        let b = to_json(&again, 1);
        assert_eq!(a.report(), b.report());
        assert!(
            !a.report().contains('.'),
            "floats leaked into the report: {a}"
        );
        let doc = crate::parse_report(&a);
        assert_eq!(doc.bool_field("passed"), Some(true));
        for row in crate::report_array(&doc, "cells") {
            assert_eq!(row.str_field("app"), Some("fem"));
            assert_eq!(row.bool_field("heat_partition_check"), Some(true));
            assert_eq!(row.bool_field("attribution_transparent"), Some(true));
        }
    }

    #[test]
    fn report_lands_on_disk() {
        let cells = vec![run_cell(ProtocolKind::Dragon, APPS[3], 1)];
        let dir = std::env::temp_dir().join("spp-insight-report-test");
        let json =
            spp_scenario::write_report(&dir, "BENCH_insight.json", &to_json(&cells, 1)).unwrap();
        assert!(json.ends_with("BENCH_insight.json"));
        let doc = crate::parse_file(&json);
        assert_eq!(doc.str_field("experiment"), Some("insight"));
        let row = &crate::report_array(&doc, "cells")[0];
        assert_eq!(row.str_field("protocol"), Some("dragon"));
        assert_eq!(row.str_field("app"), Some("ppm"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
