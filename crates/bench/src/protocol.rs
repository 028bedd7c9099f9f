//! Coherence-protocol comparison — the counterfactual the paper could
//! not run. The SPP-1000 shipped DASH-style intra-hypernode
//! directories bridged by SCI distributed lists (§2); this experiment
//! replays the paper's four shared-memory applications under that
//! protocol *and* under two classic alternatives priced through the
//! same latency model:
//!
//! * `mesi` — invalidation-based snooping with an Exclusive state
//!   (silent E→M upgrades, cache-to-cache supplies);
//! * `dragon` — update-based snooping (shared writes broadcast the
//!   new value instead of invalidating, via an owned-shared state).
//!
//! The sweep crosses protocol × topology × application, climbing past
//! the paper's 2-hypernode testbed to 32 hypernodes (256 CPUs) and —
//! under `--full` — the 128-hypernode, 1024-CPU architectural limit.
//! Caches and the per-node directories are dense (indexed) on machines
//! of at most 16 CPUs — the paper's 2-hypernode testbed — and sparse
//! above that, which is what makes 256 and 1024 CPUs affordable. The
//! report records each cell's live coherence-entry and cached-line
//! counts, which stay proportional to the lines the application
//! touched rather than to the address space or CPU count.
//!
//! Each cell is the run of a `WorkloadSpec` cell with 8 threads per
//! hypernode placed Uniform: both go through
//! [`spp_scenario::run_shared_app`].
//!
//! The machine-readable summary is `BENCH_protocol.json` under
//! `target/repro/` (override with `SPP_REPRO_DIR`), following the
//! `BENCH_*.json` convention. Every recorded quantity is an
//! integer produced by the deterministic simulator, so back-to-back
//! runs are byte-identical — ci.sh double-runs the quick sweep and
//! `cmp`s the JSON.

use crate::{emit, Opts, Table};
use spp_core::json::Json;
use spp_core::{CancelToken, Machine, MemStats, ProtocolKind};
use spp_runtime::{Placement, Runtime, Team};
use spp_scenario::{run_shared_app, WorkloadApp};

/// Hypernode counts swept by default: the paper's testbed and the
/// 256-CPU point.
pub const NODES_QUICK: [usize; 2] = [2, 32];

/// `--full` adds the architectural limit (1024 CPUs).
pub const NODES_FULL: [usize; 3] = [2, 32, 128];

/// The four applications the sweep replays, at their sweep sizes.
pub const APPS: [WorkloadApp; 4] = [
    WorkloadApp::Pic { mesh: (8, 8, 8) },
    WorkloadApp::Nbody { bodies: 4096 },
    WorkloadApp::Fem { nx: 32, ny: 32 },
    WorkloadApp::Ppm,
];

/// One (protocol, topology, application) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Protocol label (`dash-sci`, `mesi`, `dragon`).
    pub protocol: &'static str,
    /// Hypernodes simulated.
    pub hypernodes: usize,
    /// CPUs simulated (8 per hypernode).
    pub cpus: usize,
    /// Application label.
    pub app: &'static str,
    /// Elapsed simulated cycles over the measured steps.
    pub cycles: u64,
    /// Final memory-system counters.
    pub stats: MemStats,
    /// Live coherence-tracking entries (directories + SCI + snoop
    /// filter) at the end of the run — the sparse-memory proxy.
    pub footprint: usize,
    /// Valid lines across all per-CPU caches at the end of the run.
    pub cached: usize,
}

/// Run `app` on every CPU of `machine`, placed Uniform: set-up, one
/// untimed warm-up step, then `steps` measured steps, FEM at CFL 0.2.
/// Returns the measured cycles and the machine. The insight campaign
/// runs its cells through here too.
pub fn run_app(machine: Machine, app: WorkloadApp, steps: usize) -> (u64, Machine) {
    let rt = Runtime::new(machine);
    let cpus = rt.machine.config().num_cpus();
    let team = Team::place(rt.machine.config(), cpus, &Placement::Uniform);
    let run = run_shared_app(app, rt, &team, steps, 0.2, &CancelToken::new())
        .expect("an uncancelled shared-memory run finishes");
    (run.totals.cycles, run.rt.machine)
}

/// Run one application for `steps` measured steps (after one untimed
/// warm-up step) on a machine of `hypernodes` nodes under `kind`,
/// using every CPU.
pub fn run_cell(kind: ProtocolKind, hypernodes: usize, app: WorkloadApp, steps: usize) -> Cell {
    let machine = Machine::spp1000(hypernodes).with_protocol(kind);
    let (cycles, m) = run_app(machine, app, steps);
    Cell {
        protocol: kind.label(),
        hypernodes,
        cpus: 8 * hypernodes,
        app: app.label(),
        cycles,
        stats: m.stats,
        footprint: m.coherence_footprint(),
        cached: m.cached_lines(),
    }
}

/// The full sweep: protocol × topology × application.
pub fn sweep(o: &Opts) -> Vec<Cell> {
    let nodes: &[usize] = if o.full { &NODES_FULL } else { &NODES_QUICK };
    let mut cells = Vec::new();
    for kind in ProtocolKind::ALL {
        for &h in nodes {
            for app in APPS {
                cells.push(run_cell(kind, h, app, o.steps));
            }
        }
    }
    cells
}

/// Machine-readable form (the `BENCH_protocol.json` ci.sh
/// byte-compares across a double run). Integers only — no floats, no
/// timestamps — so identical inputs serialize identically.
pub fn to_json(cells: &[Cell], steps: usize) -> Json {
    let rows: Json = cells
        .iter()
        .map(|c| {
            Json::obj()
                .with("protocol", c.protocol)
                .with("hypernodes", c.hypernodes)
                .with("cpus", c.cpus)
                .with("app", c.app)
                .with("cycles", c.cycles)
                .with("hits", c.stats.hits)
                .with("local_misses", c.stats.local_misses)
                .with("sci_fetches", c.stats.sci_fetches)
                .with("invalidations", c.stats.invalidations)
                .with("c2c_transfers", c.stats.c2c_transfers)
                .with("snoops", c.stats.snoops)
                .with("updates", c.stats.updates)
                .with("footprint_lines", c.footprint)
                .with("cached_lines", c.cached)
        })
        .collect();
    spp_scenario::report_head("protocol")
        .with("steps", steps)
        .with("cells", rows)
}

/// Run the protocol comparison. Writes `BENCH_protocol.json`, then
/// asserts the structural properties the sweep exists to demonstrate:
/// protocol-foreign counters stay zero, and the line-tracking
/// footprint stays proportional to touched lines at every topology.
pub fn run(o: &Opts) -> String {
    let cells = sweep(o);
    let mut t = Table::new(&[
        "protocol",
        "nodes",
        "cpus",
        "app",
        "cycles",
        "hits",
        "inval",
        "snoops",
        "updates",
        "footprint",
    ]);
    for c in &cells {
        t.row(vec![
            c.protocol.to_string(),
            c.hypernodes.to_string(),
            c.cpus.to_string(),
            c.app.to_string(),
            c.cycles.to_string(),
            c.stats.hits.to_string(),
            c.stats.invalidations.to_string(),
            c.stats.snoops.to_string(),
            c.stats.updates.to_string(),
            c.footprint.to_string(),
        ]);
    }
    let mut text = emit(
        "Coherence protocols: DASH+SCI vs snooping MESI vs Dragon",
        &format!(
            "{}\nSame applications, same latency model, three coherence designs.\n\
             Dragon trades MESI's invalidation misses for update traffic; the\n\
             directory protocol localizes coherence inside a hypernode. The\n\
             footprint column counts live line-tracking entries — sparse, so it\n\
             follows the working set, not the 1024-CPU address space.",
            t.render()
        ),
    );
    text.push_str(&crate::write_bench(
        "BENCH_protocol.json",
        &to_json(&cells, o.steps),
    ));
    text.push('\n');
    for c in &cells {
        match c.protocol {
            "dash-sci" => assert_eq!(
                (c.stats.snoops, c.stats.updates),
                (0, 0),
                "snoop counters leaked into DASH+SCI ({} at {} nodes)",
                c.app,
                c.hypernodes
            ),
            "mesi" => assert_eq!(
                c.stats.updates, 0,
                "update counter leaked into MESI ({} at {} nodes)",
                c.app, c.hypernodes
            ),
            _ => {}
        }
        // Sparse line tracking: the footprint is bounded by lines
        // touched (≤ one entry per structure per distinct line, and
        // far fewer lines than accesses), never by topology. A dense
        // 128-node layout would hold 2^12 slots per directory before
        // the first access.
        let distinct_upper = c.cached + c.stats.evictions as usize + 1;
        assert!(
            c.footprint <= 3 * distinct_upper,
            "footprint {} not proportional to touched lines (~{}) for {} {} at {} nodes",
            c.footprint,
            distinct_upper,
            c.protocol,
            c.app,
            c.hypernodes
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_bytes_are_pinned() {
        let cell = |protocol, app| Cell {
            protocol,
            hypernodes: 2,
            cpus: 16,
            app,
            cycles: 1000,
            stats: MemStats {
                hits: 1,
                local_misses: 2,
                sci_fetches: 3,
                invalidations: 4,
                c2c_transfers: 5,
                snoops: 6,
                updates: 7,
                ..MemStats::default()
            },
            footprint: 8,
            cached: 9,
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"protocol\",\n\
            \x20 \"steps\": 3,\n\
            \x20 \"cells\": [\n\
            \x20   {\"protocol\": \"mesi\", \"hypernodes\": 2, \"cpus\": 16, \"app\": \"pic\", \"cycles\": 1000, \"hits\": 1, \"local_misses\": 2, \"sci_fetches\": 3, \"invalidations\": 4, \"c2c_transfers\": 5, \"snoops\": 6, \"updates\": 7, \"footprint_lines\": 8, \"cached_lines\": 9},\n\
            \x20   {\"protocol\": \"dragon\", \"hypernodes\": 2, \"cpus\": 16, \"app\": \"fem\", \"cycles\": 1000, \"hits\": 1, \"local_misses\": 2, \"sci_fetches\": 3, \"invalidations\": 4, \"c2c_transfers\": 5, \"snoops\": 6, \"updates\": 7, \"footprint_lines\": 8, \"cached_lines\": 9}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(
            to_json(&[cell("mesi", "pic"), cell("dragon", "fem")], 3).report(),
            expected
        );
    }

    fn quick(kind: ProtocolKind, h: usize) -> Cell {
        run_cell(kind, h, APPS[2], 1)
    }

    #[test]
    fn all_three_protocols_run_the_same_app_deterministically() {
        for kind in ProtocolKind::ALL {
            let a = quick(kind, 2);
            let b = quick(kind, 2);
            assert_eq!(a.cycles, b.cycles, "{kind}");
            assert_eq!(a.stats, b.stats, "{kind}");
            assert!(a.cycles > 0);
        }
    }

    #[test]
    fn protocol_foreign_counters_stay_zero() {
        let dash = quick(ProtocolKind::DashSci, 2);
        assert_eq!(dash.stats.snoops, 0);
        assert_eq!(dash.stats.updates, 0);
        let mesi = quick(ProtocolKind::Mesi, 2);
        assert!(mesi.stats.snoops > 0);
        assert_eq!(mesi.stats.updates, 0);
        let dragon = quick(ProtocolKind::Dragon, 2);
        assert!(dragon.stats.updates > 0);
    }

    #[test]
    fn footprint_follows_the_working_set_not_the_topology() {
        // Same problem, 16x the topology: the sparse structures must
        // not balloon with the address space. The per-CPU share of a
        // fixed problem shrinks as CPUs grow, so total tracked lines
        // stay in the same ballpark; a dense layout would jump by
        // 126 * 4096 directory slots.
        for kind in ProtocolKind::ALL {
            let small = quick(kind, 2);
            let big = quick(kind, 32);
            assert!(
                big.footprint < small.footprint * 8 + 4096,
                "{kind}: footprint {} at 32 nodes vs {} at 2",
                big.footprint,
                small.footprint
            );
        }
    }

    #[test]
    fn cells_run_at_256_cpus_under_every_protocol() {
        for kind in ProtocolKind::ALL {
            let c = run_cell(kind, 32, APPS[1], 1);
            assert_eq!(c.cpus, 256);
            assert!(c.cycles > 0);
            assert!(c.stats.miss_partition_check(), "{kind}");
        }
    }

    #[test]
    fn json_is_reproducible_and_carries_every_cell() {
        // Byte-identity on the paper's testbed size; ci.sh double-runs
        // the full sweep and `cmp`s the report for the same property.
        let cells: Vec<Cell> = ProtocolKind::ALL.map(|k| quick(k, 2)).to_vec();
        let again: Vec<Cell> = ProtocolKind::ALL.map(|k| quick(k, 2)).to_vec();
        assert_eq!(to_json(&cells, 1).report(), to_json(&again, 1).report());
        let doc = crate::parse_report(&to_json(&cells, 1));
        assert_eq!(doc.str_field("experiment"), Some("protocol"));
        let rows = crate::report_array(&doc, "cells");
        assert_eq!(rows.len(), cells.len());
        for (row, (c, k)) in rows.iter().zip(cells.iter().zip(ProtocolKind::ALL)) {
            assert_eq!(row.str_field("protocol"), Some(k.label()));
            assert_eq!(row.str_field("app"), Some("fem"));
            assert_eq!(row.int_field("cycles"), Some(c.cycles as i64));
            assert_eq!(row.int_field("footprint_lines"), Some(c.footprint as i64));
        }
    }
}
