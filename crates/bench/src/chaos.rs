//! Chaos campaign (`spp repro chaos`): sweep seeds × fault intensities ×
//! failure sites over the PIC, N-body, and FEM applications, running
//! every cell under the coherence-invariant checker and a
//! simulated-cycle watchdog. A failing cell's fault-event list is
//! *shrunk* by greedy delta debugging to a minimal reproducer, so a
//! degraded-mode bug arrives as "these ≤N events break invariant X on
//! workload Y at seed Z" instead of a 40-cell wall of red. The cells,
//! runner, shrinker and report writer are the shared fault grid
//! ([`crate::grid`]); this module holds the grid, the budget check and
//! the columns.
//!
//! The campaign's machine-readable summary is `BENCH_chaos.json`
//! (written by `spp repro chaos` under `target/repro`, or
//! `SPP_REPRO_DIR`), following the `BENCH_*.json` convention.

use crate::grid::{Campaign, Cell, GridOutcome, Reject, Workload};
use crate::Opts;
use spp_core::json::Json;
use spp_core::{Cycles, FaultEvent, FaultPlan, ProtocolKind, StallKind, Watchdog};

/// A faulty run taking over this many times the clean run's simulated
/// cycles is livelocked, not slow.
pub const BUDGET_FACTOR: u64 = 50;

/// Simulated-state observations from one completed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Elapsed simulated cycles of the measured steps.
    pub elapsed: Cycles,
    /// SCI ring stalls injected.
    pub ring_stalls: u64,
    /// Transactions rerouted around a failed link.
    pub link_reroutes: u64,
    /// CPUs dead at the end of the run.
    pub dead_cpus: usize,
    /// Bitmask of severed rings at the end of the run.
    pub failed_rings: u8,
    /// Bitmask of GCB-degraded nodes at the end of the run.
    pub degraded_nodes: u128,
}

impl GridOutcome for CellStats {
    const EXPERIMENT: &'static str = "chaos";
    const KEY_COLUMNS: &'static [&'static str] = &["workload", "seed", "events"];
    const PASS: &'static str = "pass";
    const PASS_COLUMNS: &'static [&'static str] =
        &["cycles", "stalls", "reroutes", "dead", "rings", "gcb"];
    // Only non-default backends carry a protocol field, so the
    // historical DASH+SCI rows keep their exact bytes.
    const TAG_DASH_SCI: bool = false;

    fn key_cells(cell: &Cell) -> Vec<String> {
        let wl = match cell.protocol {
            ProtocolKind::DashSci => cell.workload.label().to_string(),
            p => format!("{}:{}", cell.workload.label(), p.label()),
        };
        let events: Vec<&str> = cell.events.iter().map(FaultEvent::label).collect();
        vec![wl, cell.seed.to_string(), events.join("+")]
    }

    fn pass_cells(&self) -> Vec<String> {
        vec![
            self.elapsed.to_string(),
            self.ring_stalls.to_string(),
            self.link_reroutes.to_string(),
            self.dead_cpus.to_string(),
            format!("{:04b}", self.failed_rings),
            format!("{:02b}", self.degraded_nodes),
        ]
    }

    fn pass_fields(&self, row: Json) -> Json {
        row.with("elapsed", self.elapsed)
            .with("ring_stalls", self.ring_stalls)
            .with("link_reroutes", self.link_reroutes)
            .with("dead_cpus", self.dead_cpus)
            .with("failed_rings", self.failed_rings)
            .with("degraded_nodes", self.degraded_nodes)
    }
}

/// Check one campaign cell: its workload under the cell's fault plan
/// must finish within `budget` simulated cycles (a run blowing past it
/// is reported as a watchdog trip, not left to crawl forever). The
/// grid runner turns the coherence checker's violations and any other
/// panic into failures.
pub fn check_cell(cell: &Cell, budget: &Watchdog, steps: usize) -> Result<CellStats, Reject> {
    let run = cell
        .workload
        .run_under(cell.protocol, Some(cell.plan()), steps);
    let m = &run.rt.machine;
    let stats = CellStats {
        elapsed: run.totals.cycles,
        ring_stalls: m.stats.ring_stalls,
        link_reroutes: m.stats.link_reroutes,
        dead_cpus: m.dead_cpu_list().len(),
        failed_rings: m.failed_rings(),
        degraded_nodes: m.degraded_nodes(),
    };
    if budget.expired(stats.elapsed) {
        let trip = budget.trip(
            StallKind::RetryLoop,
            stats.elapsed,
            format!(
                "{} cell exceeded its simulated-cycle budget",
                cell.workload.label()
            ),
        );
        return Err(Reject::Shrink(trip.to_string()));
    }
    Ok(stats)
}

/// The event lists the grid layers onto each (workload, seed) pair.
/// Low intensity: transient stalls plus one mid-run CPU death. High
/// intensity: every failure site at once.
fn intensities() -> Vec<Vec<FaultEvent>> {
    vec![
        vec![
            FaultEvent::RingStalls {
                prob: 0.01,
                stall: 500,
            },
            FaultEvent::CpuFail {
                cpu: 2,
                at_cycle: 400_000,
            },
        ],
        vec![
            FaultEvent::RingStalls {
                prob: 0.05,
                stall: 1_000,
            },
            FaultEvent::MsgFaults {
                drop: 0.05,
                dup: 0.02,
            },
            FaultEvent::SpawnFail { prob: 0.05 },
            FaultEvent::CpuFail {
                cpu: 2,
                at_cycle: 500_000,
            },
            FaultEvent::LinkFail {
                ring: 0,
                at_cycle: 300_000,
                reroute_cycles: 600,
            },
            FaultEvent::GcbDegrade {
                node: 1,
                at_cycle: 1_200_000,
            },
        ],
    ]
}

/// The campaign grid: workloads × seeds × fault intensities. The
/// default grid keeps ci.sh's smoke run under half a minute; `full`
/// doubles the seed set.
pub fn default_grid(full: bool) -> Vec<Cell> {
    let seeds: &[u64] = if full { &[11, 23, 47, 61] } else { &[11, 23] };
    // The alternative backends ride along after the historical
    // DASH+SCI rows (appending keeps those rows byte-stable in
    // BENCH_chaos.json) with a reduced seed set so the smoke grid
    // stays fast.
    let alt_seeds: &[u64] = if full { &[11, 23] } else { &[11] };
    let mut cells = Vec::new();
    for (protocol, seeds) in [
        (ProtocolKind::DashSci, seeds),
        (ProtocolKind::Mesi, alt_seeds),
        (ProtocolKind::Dragon, alt_seeds),
    ] {
        for workload in Workload::FAULTED {
            for &seed in seeds {
                for events in intensities() {
                    cells.push(Cell {
                        workload,
                        protocol,
                        seed,
                        events,
                    });
                }
            }
        }
    }
    cells
}

/// Run a campaign over `cells`. Each (workload, protocol) pair's clean
/// (fault-free) elapsed time, run once, sets the cells' simulated-cycle
/// budget at [`BUDGET_FACTOR`]× that time. Failing cells are shrunk to
/// minimal reproducers before returning.
pub fn run_campaign(cells: &[Cell], steps: usize, full: bool) -> Campaign<CellStats> {
    Campaign::run(
        cells,
        steps,
        full,
        |w, p| {
            let clean = w.run_under(p, Some(FaultPlan::new(0)), steps).totals.cycles;
            Watchdog::new(clean.saturating_mul(BUDGET_FACTOR))
        },
        |cell, budget| check_cell(cell, budget, steps),
    )
}

/// Regenerate the chaos-campaign report. Writes `BENCH_chaos.json`
/// so a `spp repro all` or scenario-engine sweep leaves the same artifact
/// as the standalone binary, then panics when the campaign fails so
/// the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let c = run_campaign(&default_grid(o.full), o.steps, o.full);
    c.finish(
        "repro-chaos: degraded-mode chaos campaign",
        &format!(
            "Every cell runs a real application under transient + hard faults\n\
             with the coherence checker armed and a {BUDGET_FACTOR}x-clean cycle budget; a\n\
             failing cell's event list is delta-debugged to a minimal reproducer.\n\
             campaign passed: {}",
            c.passed()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CellResult, Failure};

    fn short_events() -> Vec<FaultEvent> {
        vec![
            FaultEvent::RingStalls {
                prob: 0.02,
                stall: 500,
            },
            FaultEvent::CpuFail {
                cpu: 2,
                at_cycle: 100_000,
            },
            FaultEvent::LinkFail {
                ring: 1,
                at_cycle: 200_000,
                reroute_cycles: 600,
            },
            FaultEvent::GcbDegrade {
                node: 1,
                at_cycle: 300_000,
            },
        ]
    }

    fn cell(workload: Workload, protocol: ProtocolKind, seed: u64, events: &[FaultEvent]) -> Cell {
        Cell {
            workload,
            protocol,
            seed,
            events: events.to_vec(),
        }
    }

    #[test]
    fn healthy_cells_pass_under_checker_and_budget() {
        let wd = Watchdog::new(u64::MAX - 1);
        for w in [Workload::Pic, Workload::Fem] {
            let c = cell(w, ProtocolKind::DashSci, 11, &short_events());
            let s = check_cell(&c, &wd, 1)
                .unwrap_or_else(|e| panic!("{} cell failed: {e:?}", w.label()));
            assert!(s.elapsed > 0);
            assert_eq!(s.dead_cpus, 1, "{}: cpu 2 must have died", w.label());
            assert_eq!(s.failed_rings, 0b10, "{}", w.label());
            assert_eq!(s.degraded_nodes, 0b10, "{}", w.label());
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let wd = Watchdog::new(u64::MAX - 1);
        let c = cell(Workload::Nbody, ProtocolKind::DashSci, 23, &short_events());
        let a = check_cell(&c, &wd, 1).unwrap();
        let b = check_cell(&c, &wd, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_overrun_is_reported_as_a_watchdog_trip() {
        // A 1-cycle budget: any real run exceeds it.
        let c = cell(Workload::Pic, ProtocolKind::DashSci, 11, &[]);
        let err = check_cell(&c, &Watchdog::new(1), 1).expect_err("1-cycle budget must trip");
        let Reject::Shrink(err) = err else {
            panic!("a budget trip is shrunk: {err:?}")
        };
        assert!(err.contains("watchdog trip [retry-loop]"), "{err}");
        assert!(err.contains("simulated-cycle budget"), "{err}");
    }

    #[test]
    fn grid_appends_protocol_cells_after_the_historical_rows() {
        let grid = default_grid(false);
        // The historical DASH+SCI prefix is untouched: 3 workloads ×
        // 2 seeds × 2 intensities, all on the default backend.
        assert_eq!(grid.len(), 24);
        assert!(grid[..12]
            .iter()
            .all(|c| c.protocol == ProtocolKind::DashSci));
        assert!(grid[12..]
            .iter()
            .all(|c| c.protocol != ProtocolKind::DashSci));
        for proto in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
            assert_eq!(grid.iter().filter(|c| c.protocol == proto).count(), 6);
        }
    }

    #[test]
    fn protocol_cells_run_and_tag_their_json_rows() {
        let cells = vec![
            cell(Workload::Pic, ProtocolKind::DashSci, 11, &short_events()),
            cell(Workload::Pic, ProtocolKind::Mesi, 11, &short_events()),
        ];
        let c = run_campaign(&cells, 1, false);
        assert!(c.passed(), "{}", c.render());
        let j = c.to_json().report();
        // The default-backend row keeps its historical shape…
        assert!(j.contains("{\"workload\": \"pic\", \"seed\": 11"), "{j}");
        // …and the alternative backend is tagged.
        assert!(
            j.contains("{\"workload\": \"pic\", \"protocol\": \"mesi\", \"seed\": 11"),
            "{j}"
        );
        assert!(c.render().contains("pic:mesi"), "{}", c.render());
    }

    #[test]
    fn json_report_is_well_formed() {
        let cells = vec![cell(
            Workload::Pic,
            ProtocolKind::DashSci,
            11,
            &short_events(),
        )];
        let c = run_campaign(&cells, 1, false);
        assert!(c.passed());
        let doc = crate::parse_report(&c.to_json());
        assert_eq!(doc.bool_field("passed"), Some(true));
        assert_eq!(doc.int_field("cells"), Some(1));
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.str_field("workload"), Some("pic"));
        assert_eq!(row.bool_field("pass"), Some(true));
        let events = crate::report_array(row, "events");
        assert_eq!(events[1].as_str(), Some("cpu-fail(cpu=2@100000)"));
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let stats = CellStats {
            elapsed: 1234,
            ring_stalls: 5,
            link_reroutes: 2,
            dead_cpus: 1,
            failed_rings: 0b0010,
            degraded_nodes: 1 << 127,
        };
        let c = Campaign {
            results: vec![
                CellResult {
                    cell: cell(
                        Workload::Nbody,
                        ProtocolKind::DashSci,
                        7,
                        &short_events()[..2],
                    ),
                    outcome: Ok(stats),
                },
                CellResult {
                    cell: cell(Workload::Nbody, ProtocolKind::Dragon, 7, &[]),
                    outcome: Ok(stats),
                },
                CellResult {
                    cell: cell(Workload::Nbody, ProtocolKind::Mesi, 7, &short_events()[2..]),
                    outcome: Err(Failure {
                        message: "bad \"x\"\n".to_string(),
                        reproducer: short_events()[3..].to_vec(),
                    }),
                },
            ],
            steps: 2,
            full: true,
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"chaos\",\n\
            \x20 \"full\": true,\n\
            \x20 \"steps\": 2,\n\
            \x20 \"cells\": 3,\n\
            \x20 \"passed\": false,\n\
            \x20 \"grid\": [\n\
            \x20   {\"workload\": \"nbody\", \"seed\": 7, \"events\": [\"ring-stalls(p=0.02, 500cy)\", \"cpu-fail(cpu=2@100000)\"], \"pass\": true, \"elapsed\": 1234, \"ring_stalls\": 5, \"link_reroutes\": 2, \"dead_cpus\": 1, \"failed_rings\": 2, \"degraded_nodes\": 170141183460469231731687303715884105728},\n\
            \x20   {\"workload\": \"nbody\", \"protocol\": \"dragon\", \"seed\": 7, \"events\": [], \"pass\": true, \"elapsed\": 1234, \"ring_stalls\": 5, \"link_reroutes\": 2, \"dead_cpus\": 1, \"failed_rings\": 2, \"degraded_nodes\": 170141183460469231731687303715884105728},\n\
            \x20   {\"workload\": \"nbody\", \"protocol\": \"mesi\", \"seed\": 7, \"events\": [\"link-fail(ring=1@200000, +600cy)\", \"gcb-degrade(node=1@300000)\"], \"pass\": false, \"failure\": \"bad \\\"x\\\"\\n\", \"reproducer\": [\"gcb-degrade(node=1@300000)\"]}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(c.to_json().report(), expected);
        let empty = Campaign::<CellStats> {
            results: Vec::new(),
            steps: 1,
            full: false,
        };
        assert!(empty.to_json().report().ends_with("\"grid\": [\n  ]\n}\n"));
    }

    #[test]
    fn failing_cells_carry_a_reproducer_in_the_json() {
        // A 1-cycle budget fails every run, so the runner's greedy pass
        // shrinks the plan all the way to the empty list.
        let cells = [cell(
            Workload::Pic,
            ProtocolKind::DashSci,
            11,
            &short_events(),
        )];
        let c = Campaign::run(
            &cells,
            1,
            false,
            |_, _| Watchdog::new(1),
            |cell, budget| check_cell(cell, budget, 1),
        );
        assert!(!c.passed());
        let doc = crate::parse_report(&c.to_json());
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.bool_field("pass"), Some(false));
        assert!(row
            .str_field("failure")
            .is_some_and(|m| m.contains("watchdog trip")));
        assert!(crate::report_array(row, "reproducer").is_empty());
        assert!(c.render().contains("FAIL"));
    }
}
