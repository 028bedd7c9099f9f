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
//! That scale is only affordable because every line-tracking
//! structure is sparse: the report records each cell's live
//! coherence-entry and cached-line counts, which stay proportional to
//! the lines the application touched rather than to the address space
//! or CPU count.
//!
//! The machine-readable summary is `BENCH_protocol.json` under
//! `target/repro/` (override with `SPP_REPRO_DIR`), following the
//! `BENCH_*.json` convention. Every recorded quantity is an
//! integer produced by the deterministic simulator, so back-to-back
//! runs are byte-identical — ci.sh double-runs the quick sweep and
//! `cmp`s the JSON.

use crate::{emit, Opts, Table};
use fem::{Coding, SharedFem};
use nbody::{NbodyProblem, SharedNbody};
use pic::{PicProblem, SharedPic};
use ppm::{PpmProblem, SharedPpm};
use spp_core::{Machine, MemStats, ProtocolKind};
use spp_runtime::{Placement, Runtime, Team};

/// Hypernode counts swept by default: the paper's testbed and the
/// 256-CPU point.
pub const NODES_QUICK: [usize; 2] = [2, 32];

/// `--full` adds the architectural limit (1024 CPUs).
pub const NODES_FULL: [usize; 3] = [2, 32, 128];

/// The four applications the sweep replays.
pub const APPS: [&str; 4] = ["pic", "nbody", "fem", "ppm"];

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

/// Run one application for `steps` measured steps (after one untimed
/// warm-up step) on a machine of `hypernodes` nodes under `kind`,
/// using every CPU.
pub fn run_cell(kind: ProtocolKind, hypernodes: usize, app: &'static str, steps: usize) -> Cell {
    let machine = Machine::spp1000(hypernodes).with_protocol(kind);
    let mut rt = Runtime::new(machine);
    let team = Team::place(rt.machine.config(), 8 * hypernodes, &Placement::Uniform);
    let mut cycles = 0u64;
    match app {
        "pic" => {
            let mut sim = SharedPic::new(&mut rt, PicProblem::with_mesh(8, 8, 8), &team);
            sim.step(&mut rt, &team); // warm-up
            for _ in 0..steps {
                cycles += sim.step(&mut rt, &team).elapsed;
            }
        }
        "nbody" => {
            let mut sim = SharedNbody::new(&mut rt, NbodyProblem::with_n(4096), &team);
            sim.step(&mut rt, &team);
            for _ in 0..steps {
                cycles += sim.step(&mut rt, &team).0;
            }
        }
        "fem" => {
            let mut sim =
                SharedFem::new(&mut rt, fem::structured(32, 32), Coding::ScatterAdd, &team);
            sim.step(&mut rt, &team, 0.2);
            for _ in 0..steps {
                cycles += sim.step(&mut rt, &team, 0.2).0;
            }
        }
        "ppm" => {
            let mut sim = SharedPpm::new(&mut rt, PpmProblem::tiny(), &team);
            sim.step(&mut rt, &team);
            for _ in 0..steps {
                cycles += sim.step(&mut rt, &team).0;
            }
        }
        other => panic!("unknown app {other:?}"),
    }
    Cell {
        protocol: kind.label(),
        hypernodes,
        cpus: 8 * hypernodes,
        app,
        cycles,
        stats: rt.machine.stats,
        footprint: rt.machine.coherence_footprint(),
        cached: rt.machine.cached_lines(),
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
pub fn to_json(cells: &[Cell], steps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"experiment\": \"protocol\",\n",
        crate::BENCH_SCHEMA_VERSION
    ));
    out.push_str(&format!("  \"steps\": {steps},\n  \"cells\": [\n"));
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"hypernodes\": {}, \"cpus\": {}, \
             \"app\": \"{}\", \"cycles\": {}, \"hits\": {}, \"local_misses\": {}, \
             \"sci_fetches\": {}, \"invalidations\": {}, \"c2c_transfers\": {}, \
             \"snoops\": {}, \"updates\": {}, \"footprint_lines\": {}, \
             \"cached_lines\": {}}}{comma}\n",
            c.protocol,
            c.hypernodes,
            c.cpus,
            c.app,
            c.cycles,
            c.stats.hits,
            c.stats.local_misses,
            c.stats.sci_fetches,
            c.stats.invalidations,
            c.stats.c2c_transfers,
            c.stats.snoops,
            c.stats.updates,
            c.footprint,
            c.cached,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_protocol.json` under `dir` (created if needed).
/// Returns the JSON path.
pub fn write_report(
    cells: &[Cell],
    steps: usize,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = dir.join("BENCH_protocol.json");
    spp_core::atomic_write_str(&json, &to_json(cells, steps))?;
    Ok(json)
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
    match write_report(&cells, o.steps, &crate::repro_dir()) {
        Ok(json) => text.push_str(&format!("[report written to {}]\n", json.display())),
        Err(e) => text.push_str(&format!("[could not write report: {e}]\n")),
    }
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

    fn quick(kind: ProtocolKind, h: usize) -> Cell {
        run_cell(kind, h, "fem", 1)
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
            let c = run_cell(kind, 32, "nbody", 1);
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
        assert_eq!(to_json(&cells, 1), to_json(&again, 1));
        let json = to_json(&cells, 1);
        assert!(json.contains("\"experiment\": \"protocol\""));
        assert!(json.contains("\"footprint_lines\""));
        for k in ProtocolKind::ALL {
            assert!(json.contains(k.label()), "{json}");
        }
    }
}
