//! Chaos campaign (`spp repro chaos`): sweep seeds × fault intensities ×
//! failure sites over the PIC, N-body, and FEM applications, running
//! every cell under the coherence-invariant checker and a
//! simulated-cycle watchdog. A failing cell's fault-event list is
//! *shrunk* by greedy delta debugging to a minimal reproducer, so a
//! degraded-mode bug arrives as "these ≤N events break invariant X on
//! workload Y at seed Z" instead of a 40-cell wall of red.
//!
//! The campaign's machine-readable summary is `BENCH_chaos.json`
//! (written by `spp repro chaos` under `target/repro`, or
//! `SPP_REPRO_DIR`), following the `BENCH_*.json` convention.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{emit, Opts, Table};
use spp_core::json::Json;
use spp_core::{
    panic_message, CancelToken, Cycles, FaultEvent, FaultPlan, Machine, ProtocolKind, StallKind,
    Watchdog,
};
use spp_runtime::{Placement, Runtime, Team};
use spp_scenario::{report_head, run_shared_app, SharedRun, WorkloadApp};

/// The campaign workloads: the four shared-memory applications on a
/// 2-hypernode machine with 8 threads — PIC on an 8x8x8 mesh and
/// N-body with 1024 bodies placed Uniform, FEM on a 32x32 mesh (CFL
/// 0.3) and tiny PPM placed HighLocality. The chaos and recovery
/// campaigns sweep [`Workload::FAULTED`]; the race campaign all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Particle-in-cell.
    Pic,
    /// N-body tree code.
    Nbody,
    /// FEM, scatter-add coding.
    Fem,
    /// PPM gas dynamics.
    Ppm,
}

impl Workload {
    /// The workloads the fault campaigns sweep, in grid order.
    pub const FAULTED: [Workload; 3] = [Workload::Pic, Workload::Nbody, Workload::Fem];

    /// Every workload, in campaign order.
    pub fn all() -> [Workload; 4] {
        [Workload::Pic, Workload::Nbody, Workload::Fem, Workload::Ppm]
    }

    /// Short stable label.
    pub fn label(&self) -> &'static str {
        self.app().label()
    }

    /// The application and its size.
    pub fn app(self) -> WorkloadApp {
        match self {
            Workload::Pic => WorkloadApp::Pic { mesh: (8, 8, 8) },
            Workload::Nbody => WorkloadApp::Nbody { bodies: 1024 },
            Workload::Fem => WorkloadApp::Fem { nx: 32, ny: 32 },
            Workload::Ppm => WorkloadApp::Ppm,
        }
    }

    /// Run on `rt` (a 2-hypernode machine): set-up, one warm-up step,
    /// then `steps` measured steps.
    pub(crate) fn run(self, rt: Runtime, steps: usize) -> SharedRun {
        let placement = match self {
            Workload::Pic | Workload::Nbody => Placement::Uniform,
            Workload::Fem | Workload::Ppm => Placement::HighLocality,
        };
        let team = Team::place(rt.machine.config(), 8, &placement);
        run_shared_app(self.app(), rt, &team, steps, 0.3, &CancelToken::new())
            .expect("an uncancelled shared-memory run finishes")
    }
}

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

fn workload_run(w: Workload, proto: ProtocolKind, plan: FaultPlan, steps: usize) -> CellStats {
    let rt = Runtime::new(Machine::spp1000(2).with_protocol(proto).with_faults(plan));
    let run = w.run(rt, steps);
    let m = &run.rt.machine;
    CellStats {
        elapsed: run.totals.cycles,
        ring_stalls: m.stats.ring_stalls,
        link_reroutes: m.stats.link_reroutes,
        dead_cpus: m.dead_cpu_list().len(),
        failed_rings: m.failed_rings(),
        degraded_nodes: m.degraded_nodes(),
    }
}

/// Run one campaign cell: `workload` under the fault plan of `events`
/// seeded by `seed`, inside `catch_unwind` (the coherence checker's
/// violations and any other panic become the error string) and under
/// a simulated-cycle budget (a run blowing past it is reported as a
/// watchdog trip, not left to crawl forever).
pub fn run_cell(
    w: Workload,
    proto: ProtocolKind,
    seed: u64,
    events: &[FaultEvent],
    steps: usize,
    budget: &Watchdog,
) -> Result<CellStats, String> {
    let plan = FaultPlan::from_events(seed, events);
    let out = catch_unwind(AssertUnwindSafe(|| workload_run(w, proto, plan, steps)));
    match out {
        Err(p) => Err(panic_message(p)),
        Ok(stats) => {
            if budget.expired(stats.elapsed) {
                Err(budget
                    .trip(
                        StallKind::RetryLoop,
                        stats.elapsed,
                        format!("{} cell exceeded its simulated-cycle budget", w.label()),
                    )
                    .to_string())
            } else {
                Ok(stats)
            }
        }
    }
}

/// Greedy delta-debugging shrinker: drop one item at a time, keeping
/// each removal that preserves the failure, until no single removal
/// does. `fails` must be deterministic (the campaign's cells are).
/// The input must itself fail; the result is a locally-minimal failing
/// subset in the original order. Shared with the race campaign, which
/// shrinks schedule transpositions instead of fault events.
pub fn shrink<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = items.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut candidate = cur.clone();
            candidate.remove(i);
            if fails(&candidate) {
                cur = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// `events` as one table cell.
pub(crate) fn joined_events(events: &[FaultEvent]) -> String {
    let descs: Vec<String> = events.iter().map(FaultEvent::desc).collect();
    descs.join(" + ")
}

/// One grid cell (what to run).
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application.
    pub workload: Workload,
    /// The coherence protocol the simulated machine runs.
    pub protocol: ProtocolKind,
    /// Fault-plan seed.
    pub seed: u64,
    /// Fault events layered onto the plan.
    pub events: Vec<FaultEvent>,
}

/// One grid cell's outcome (what happened).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// Observations on success.
    pub stats: Option<CellStats>,
    /// Panic / watchdog message on failure.
    pub failure: Option<String>,
    /// Minimal failing event subset (present only on failure).
    pub shrunk: Option<Vec<FaultEvent>>,
}

impl CellResult {
    /// Did the cell pass?
    pub fn pass(&self) -> bool {
        self.failure.is_none()
    }
}

/// A completed campaign.
pub struct Campaign {
    /// Per-cell outcomes, in grid order.
    pub results: Vec<CellResult>,
    /// Measured steps per cell.
    pub steps: usize,
    /// Whether the full grid ran.
    pub full: bool,
}

impl Campaign {
    /// True when every cell passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.pass())
    }

    /// The human-readable campaign table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workload", "seed", "events", "result", "cycles", "stalls", "reroutes", "dead",
            "rings", "gcb",
        ]);
        for r in &self.results {
            let wl = match r.cell.protocol {
                ProtocolKind::DashSci => r.cell.workload.label().to_string(),
                p => format!("{}:{}", r.cell.workload.label(), p.label()),
            };
            let events = r
                .cell
                .events
                .iter()
                .map(|e| e.label())
                .collect::<Vec<_>>()
                .join("+");
            match (&r.stats, &r.failure) {
                (Some(s), None) => t.row(vec![
                    wl.clone(),
                    r.cell.seed.to_string(),
                    events,
                    "pass".to_string(),
                    s.elapsed.to_string(),
                    s.ring_stalls.to_string(),
                    s.link_reroutes.to_string(),
                    s.dead_cpus.to_string(),
                    format!("{:04b}", s.failed_rings),
                    format!("{:02b}", s.degraded_nodes),
                ]),
                (_, Some(msg)) => {
                    let shrunk = joined_events(r.shrunk.as_deref().unwrap_or_default());
                    t.row(vec![
                        wl,
                        r.cell.seed.to_string(),
                        events,
                        format!("FAIL [{shrunk}] {msg}"),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
                (None, None) => unreachable!("cell with neither stats nor failure"),
            }
        }
        t.render()
    }

    /// Machine-readable form (the `BENCH_chaos.json` ci.sh asserts on,
    /// following the `BENCH_*.json` convention).
    pub fn to_json(&self) -> Json {
        let grid: Json = self
            .results
            .iter()
            .map(|r| {
                let mut row = Json::obj().with("workload", r.cell.workload.label());
                // Only non-default backends carry a protocol field, so
                // the historical DASH+SCI rows keep their exact bytes.
                if r.cell.protocol != ProtocolKind::DashSci {
                    row.push("protocol", r.cell.protocol.label());
                }
                let row = row
                    .with("seed", r.cell.seed)
                    .with("events", descs(&r.cell.events))
                    .with("pass", r.stats.is_some());
                match &r.stats {
                    Some(s) => row
                        .with("elapsed", s.elapsed)
                        .with("ring_stalls", s.ring_stalls)
                        .with("link_reroutes", s.link_reroutes)
                        .with("dead_cpus", s.dead_cpus)
                        .with("failed_rings", s.failed_rings)
                        .with("degraded_nodes", s.degraded_nodes),
                    None => row
                        .with("failure", r.failure.as_deref().unwrap_or(""))
                        .with("reproducer", descs(r.shrunk.as_deref().unwrap_or_default())),
                }
            })
            .collect();
        report_head("chaos")
            .with("full", self.full)
            .with("steps", self.steps)
            .with("cells", self.results.len())
            .with("passed", self.passed())
            .with("grid", grid)
    }
}

/// `events` as a JSON array of their descriptions.
pub(crate) fn descs(events: &[FaultEvent]) -> Json {
    events.iter().map(FaultEvent::desc).collect()
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
    let mut cells = Vec::new();
    for w in Workload::FAULTED {
        for &seed in seeds {
            for events in intensities() {
                cells.push(Cell {
                    workload: w,
                    protocol: ProtocolKind::DashSci,
                    seed,
                    events,
                });
            }
        }
    }
    // The alternative backends ride along after the historical
    // DASH+SCI rows (appending keeps those rows byte-stable in
    // BENCH_chaos.json) with a reduced seed set so the smoke grid
    // stays fast.
    let alt_seeds: &[u64] = if full { &[11, 23] } else { &[11] };
    for proto in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
        for w in Workload::FAULTED {
            for &seed in alt_seeds {
                for events in intensities() {
                    cells.push(Cell {
                        workload: w,
                        protocol: proto,
                        seed,
                        events,
                    });
                }
            }
        }
    }
    cells
}

/// Run a campaign over `cells`. Each workload's clean (fault-free)
/// elapsed time seeds a per-cell simulated-cycle budget — a faulty run
/// taking over `BUDGET_FACTOR`× the clean run is livelocked, not slow.
/// Failing cells are shrunk to minimal reproducers before returning.
pub fn run_campaign(cells: &[Cell], steps: usize, full: bool) -> Campaign {
    const BUDGET_FACTOR: u64 = 50;
    let mut clean: HashMap<(Workload, ProtocolKind), Cycles> = HashMap::new();
    let results = cells
        .iter()
        .map(|cell| {
            let base = *clean
                .entry((cell.workload, cell.protocol))
                .or_insert_with(|| {
                    workload_run(cell.workload, cell.protocol, FaultPlan::new(0), steps).elapsed
                });
            let budget = Watchdog::new(base.saturating_mul(BUDGET_FACTOR));
            match run_cell(
                cell.workload,
                cell.protocol,
                cell.seed,
                &cell.events,
                steps,
                &budget,
            ) {
                Ok(stats) => CellResult {
                    cell: cell.clone(),
                    stats: Some(stats),
                    failure: None,
                    shrunk: None,
                },
                Err(msg) => {
                    let shrunk = shrink(&cell.events, |ev| {
                        run_cell(cell.workload, cell.protocol, cell.seed, ev, steps, &budget)
                            .is_err()
                    });
                    CellResult {
                        cell: cell.clone(),
                        stats: None,
                        failure: Some(msg),
                        shrunk: Some(shrunk),
                    }
                }
            }
        })
        .collect();
    Campaign {
        results,
        steps,
        full,
    }
}

/// Run the default campaign for `o` (used by `spp repro chaos`
/// and tests).
pub fn campaign(o: &Opts) -> Campaign {
    run_campaign(&default_grid(o.full), o.steps, o.full)
}

/// Regenerate the chaos-campaign report. Writes `BENCH_chaos.json`
/// so a `spp repro all` or scenario-engine sweep leaves the same artifact
/// as the standalone binary, then panics when the campaign fails so
/// the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let c = campaign(o);
    let report = crate::write_bench("BENCH_chaos.json", &c.to_json());
    let text = emit(
        "repro-chaos: degraded-mode chaos campaign",
        &format!(
            "{}\nEvery cell runs a real application under transient + hard faults\n\
             with the coherence checker armed and a {}x-clean cycle budget; a\n\
             failing cell's event list is delta-debugged to a minimal reproducer.\n\
             campaign passed: {}\n{report}",
            c.render(),
            50,
            c.passed()
        ),
    );
    assert!(c.passed(), "chaos campaign failed:\n{}", c.render());
    text
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn healthy_cells_pass_under_checker_and_budget() {
        let wd = Watchdog::new(u64::MAX - 1);
        for w in [Workload::Pic, Workload::Fem] {
            let s = run_cell(w, ProtocolKind::DashSci, 11, &short_events(), 1, &wd)
                .unwrap_or_else(|e| panic!("{} cell failed: {e}", w.label()));
            assert!(s.elapsed > 0);
            assert_eq!(s.dead_cpus, 1, "{}: cpu 2 must have died", w.label());
            assert_eq!(s.failed_rings, 0b10, "{}", w.label());
            assert_eq!(s.degraded_nodes, 0b10, "{}", w.label());
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let wd = Watchdog::new(u64::MAX - 1);
        let a = run_cell(
            Workload::Nbody,
            ProtocolKind::DashSci,
            23,
            &short_events(),
            1,
            &wd,
        )
        .unwrap();
        let b = run_cell(
            Workload::Nbody,
            ProtocolKind::DashSci,
            23,
            &short_events(),
            1,
            &wd,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_overrun_is_reported_as_a_watchdog_trip() {
        // A 1-cycle budget: any real run exceeds it.
        let err = run_cell(
            Workload::Pic,
            ProtocolKind::DashSci,
            11,
            &[],
            1,
            &Watchdog::new(1),
        )
        .expect_err("1-cycle budget must trip");
        assert!(err.contains("watchdog trip [retry-loop]"), "{err}");
        assert!(err.contains("simulated-cycle budget"), "{err}");
    }

    #[test]
    fn shrinker_finds_the_minimal_failing_subset() {
        // Failure predicate: the "bug" triggers whenever a CPU failure
        // and a GCB degrade are both present (a planted two-event
        // interaction inside a six-event plan).
        let events = intensities().remove(1);
        assert_eq!(events.len(), 6);
        let fails = |ev: &[FaultEvent]| {
            ev.iter().any(|e| matches!(e, FaultEvent::CpuFail { .. }))
                && ev
                    .iter()
                    .any(|e| matches!(e, FaultEvent::GcbDegrade { .. }))
        };
        assert!(fails(&events));
        let min = shrink(&events, fails);
        assert_eq!(min.len(), 2, "minimal reproducer: {min:?}");
        assert!(matches!(min[0], FaultEvent::CpuFail { .. }));
        assert!(matches!(min[1], FaultEvent::GcbDegrade { .. }));
    }

    #[test]
    fn an_injected_invariant_bug_is_caught_and_shrunk_small() {
        // End-to-end through the campaign machinery: a cell runner
        // stand-in panics (as the coherence checker would) whenever the
        // planted event pair is present. The campaign-side predicate —
        // catch_unwind + shrink — must catch it and reduce the
        // six-event plan to the ≤3-event reproducer.
        let events = intensities().remove(1);
        let buggy = |ev: &[FaultEvent]| -> Result<(), String> {
            let trips = ev.iter().any(|e| matches!(e, FaultEvent::LinkFail { .. }))
                && ev.iter().any(|e| matches!(e, FaultEvent::SpawnFail { .. }));
            let out = catch_unwind(AssertUnwindSafe(|| {
                if trips {
                    panic!("coherence violation: sci-well-formed (injected test bug)");
                }
            }));
            out.map_err(panic_message)
        };
        let msg = buggy(&events).expect_err("the planted bug must fire on the full plan");
        assert!(msg.contains("coherence violation"), "{msg}");
        let min = shrink(&events, |ev| buggy(ev).is_err());
        assert!(min.len() <= 3, "reproducer too large: {min:?}");
        assert!(buggy(&min).is_err(), "shrunk plan must still fail");
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
            Cell {
                workload: Workload::Pic,
                protocol: ProtocolKind::DashSci,
                seed: 11,
                events: short_events(),
            },
            Cell {
                workload: Workload::Pic,
                protocol: ProtocolKind::Mesi,
                seed: 11,
                events: short_events(),
            },
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
        let cells = vec![Cell {
            workload: Workload::Pic,
            protocol: ProtocolKind::DashSci,
            seed: 11,
            events: short_events(),
        }];
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
    fn control_characters_in_a_failure_message_stay_valid_json() {
        let msg = "checker said \"no\"\tat\u{1} line\r\nC:\\path";
        let c = Campaign {
            results: vec![CellResult {
                cell: Cell {
                    workload: Workload::Fem,
                    protocol: ProtocolKind::Mesi,
                    seed: 11,
                    events: short_events(),
                },
                stats: None,
                failure: Some(msg.to_string()),
                shrunk: Some(short_events()[..1].to_vec()),
            }],
            steps: 1,
            full: false,
        };
        let doc = crate::parse_report(&c.to_json());
        assert_eq!(doc.bool_field("passed"), Some(false));
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.str_field("failure"), Some(msg));
        assert_eq!(row.str_field("protocol"), Some("mesi"));
        assert_eq!(crate::report_array(row, "reproducer").len(), 1);
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
        let cell = |protocol, events: &[FaultEvent]| Cell {
            workload: Workload::Nbody,
            protocol,
            seed: 7,
            events: events.to_vec(),
        };
        let c = Campaign {
            results: vec![
                CellResult {
                    cell: cell(ProtocolKind::DashSci, &short_events()[..2]),
                    stats: Some(stats),
                    failure: None,
                    shrunk: None,
                },
                CellResult {
                    cell: cell(ProtocolKind::Dragon, &[]),
                    stats: Some(stats),
                    failure: None,
                    shrunk: None,
                },
                CellResult {
                    cell: cell(ProtocolKind::Mesi, &short_events()[2..]),
                    stats: None,
                    failure: Some("bad \"x\"\n".to_string()),
                    shrunk: Some(short_events()[3..].to_vec()),
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
        let empty = Campaign {
            results: Vec::new(),
            steps: 1,
            full: false,
        };
        assert!(empty.to_json().report().ends_with("\"grid\": [\n  ]\n}\n"));
    }

    #[test]
    fn failing_cells_carry_a_reproducer_in_the_json() {
        // Force a failure with an absurd budget by running the
        // campaign plumbing against a cell whose budget the clean
        // baseline cannot satisfy: a zero-event cell is its own clean
        // baseline, so instead exercise the failure path through
        // run_cell directly and assemble the result by hand.
        let cell = Cell {
            workload: Workload::Pic,
            protocol: ProtocolKind::DashSci,
            seed: 11,
            events: short_events(),
        };
        let failure = run_cell(
            cell.workload,
            cell.protocol,
            cell.seed,
            &cell.events,
            1,
            &Watchdog::new(1),
        )
        .expect_err("must trip");
        let shrunk = shrink(&cell.events, |ev| {
            run_cell(
                cell.workload,
                cell.protocol,
                cell.seed,
                ev,
                1,
                &Watchdog::new(1),
            )
            .is_err()
        });
        // Every subset trips a 1-cycle budget, so the greedy pass
        // shrinks all the way to the empty list.
        assert!(shrunk.is_empty());
        let c = Campaign {
            results: vec![CellResult {
                cell,
                stats: None,
                failure: Some(failure),
                shrunk: Some(shrunk),
            }],
            steps: 1,
            full: false,
        };
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
