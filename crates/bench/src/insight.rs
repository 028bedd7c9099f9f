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

    Cell {
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
    }
}

/// The full campaign: every application × every protocol.
pub fn sweep(o: &Opts) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in ProtocolKind::ALL {
        for app in APPS {
            cells.push(run_cell(kind, app, o.steps));
        }
    }
    cells
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
pub fn to_json(cells: &[Cell], steps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"experiment\": \"insight\",\n",
        crate::BENCH_SCHEMA_VERSION
    ));
    out.push_str(&format!(
        "  \"steps\": {},\n  \"passed\": {},\n  \"cells\": [\n",
        steps,
        passed(cells)
    ));
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"app\": \"{}\", \"cycles\": {}, \
             \"clock\": {}, \"attributed_cycles\": {}, \"touched_lines\": {}, \
             \"heat_partition_check\": {}, \"attribution_transparent\": {}, \
             \"hottest_line\": {}, \"hottest_line_cycles\": {}, \
             \"hottest_line_level\": \"{}\", \"hottest_region\": \"{}\", \
             \"hottest_region_cycles\": {}, \"false_shared_lines\": {}, \
             \"sci_fetches\": {}, \"c2c_transfers\": {}, \"upgrades\": {}}}{comma}\n",
            c.protocol,
            c.app,
            c.cycles,
            c.clock,
            c.attributed,
            c.touched_lines,
            c.partition_ok,
            c.transparent,
            c.hottest_line.0,
            c.hottest_line.1,
            c.hottest_line.2,
            c.hottest_region.0,
            c.hottest_region.1,
            c.false_shared,
            c.stats.sci_fetches,
            c.stats.c2c_transfers,
            c.stats.upgrades,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_insight.json` under `dir` (created if needed).
/// Returns the JSON path.
pub fn write_report(
    cells: &[Cell],
    steps: usize,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = dir.join("BENCH_insight.json");
    spp_core::atomic_write_str(&json, &to_json(cells, steps))?;
    Ok(json)
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
    let cells = sweep(o);
    let mut text = report(&cells);

    // A worked example of the full per-line report on the PIC cell.
    let m = {
        let machine = Machine::spp1000(HYPERNODES)
            .with_protocol(ProtocolKind::DashSci)
            .with_heatmap()
            .with_race_detection();
        run_app(machine, APPS[0], o.steps).1
    };
    text.push_str(&emit(
        "repro-insight: heat report (PIC, dash-sci)",
        heat_report(&m, 5).trim_end(),
    ));

    match write_report(&cells, o.steps, &crate::repro_dir()) {
        Ok(json) => text.push_str(&format!("[report written to {}]\n", json.display())),
        Err(e) => text.push_str(&format!("[could not write report: {e}]\n")),
    }
    assert!(passed(&cells), "insight attribution invariants failed");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a, b);
        assert!(!a.contains('.'), "floats leaked into the report: {a}");
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
        let json = write_report(&cells, 1, &dir).unwrap();
        assert!(json.ends_with("BENCH_insight.json"));
        let doc = crate::parse_report(&std::fs::read_to_string(&json).unwrap());
        assert_eq!(doc.str_field("experiment"), Some("insight"));
        let row = &crate::report_array(&doc, "cells")[0];
        assert_eq!(row.str_field("protocol"), Some("dragon"));
        assert_eq!(row.str_field("app"), Some("ppm"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
