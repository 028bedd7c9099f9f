//! The fault-campaign grid the chaos (`spp repro chaos`) and recovery
//! (`spp repro recovery`) campaigns share: one [`Cell`] type, one
//! runner that builds each (workload, protocol) baseline once and
//! checks every cell against it under `catch_unwind`, one greedy
//! delta-debugging [`shrink`] of a failing cell's fault events, and
//! one [`Campaign`] that renders the table and writes
//! `BENCH_<experiment>.json`. A campaign supplies its grid, its
//! baseline and check, and the columns and fields of a passing cell
//! ([`GridOutcome`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{emit, Table};
use spp_core::json::Json;
use spp_core::{panic_message, CancelToken, FaultEvent, FaultPlan, Machine, ProtocolKind};
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

    /// Run on a fresh 2-hypernode machine under `protocol`, with
    /// `plan` mounted if there is one.
    pub(crate) fn run_under(
        self,
        protocol: ProtocolKind,
        plan: Option<FaultPlan>,
        steps: usize,
    ) -> SharedRun {
        let mut m = Machine::spp1000(2).with_protocol(protocol);
        if let Some(plan) = plan {
            m = m.with_faults(plan);
        }
        self.run(Runtime::new(m), steps)
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

impl Cell {
    /// The cell's fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::from_events(self.seed, &self.events)
    }
}

/// A failed check, as the check reports it.
#[derive(Debug)]
pub enum Reject {
    /// A failure the runner delta-debugs to a minimal reproducer.
    Shrink(String),
    /// A failure reported as it is, with an empty reproducer.
    Keep(String),
}

/// How a cell failed.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Panic, watchdog or contract message.
    pub message: String,
    /// Minimal failing subset of the cell's events (empty when the
    /// check marked the failure not to be shrunk).
    pub reproducer: Vec<FaultEvent>,
}

/// One grid cell's outcome (what happened).
#[derive(Debug, Clone)]
pub struct CellResult<O> {
    /// The cell that ran.
    pub cell: Cell,
    /// The passing cell's observations, or its failure.
    pub outcome: Result<O, Failure>,
}

impl<O> CellResult<O> {
    /// Did the cell pass?
    pub fn pass(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// The per-campaign half of the table and of the JSON report: what a
/// passing cell shows, and how a row names its cell.
pub trait GridOutcome: Sized {
    /// The report is `BENCH_<EXPERIMENT>.json` and carries this
    /// `experiment` field.
    const EXPERIMENT: &'static str;
    /// Table headers before the `result` column.
    const KEY_COLUMNS: &'static [&'static str];
    /// The `result` cell of a passing row.
    const PASS: &'static str;
    /// Table headers after the `result` column.
    const PASS_COLUMNS: &'static [&'static str];
    /// Whether every row carries a `protocol` field; `false` writes it
    /// only for the non-default backends.
    const TAG_DASH_SCI: bool;
    /// A row's cells before the `result` column.
    fn key_cells(cell: &Cell) -> Vec<String>;
    /// A passing row's cells after the `result` column.
    fn pass_cells(&self) -> Vec<String>;
    /// A passing row with its observations appended.
    fn pass_fields(&self, row: Json) -> Json;
    /// The report head with the campaign's own summary fields, written
    /// just before the grid.
    fn head_fields(_results: &[CellResult<Self>], head: Json) -> Json {
        head
    }
}

/// Run `check` on `cell` against `base`, a panic becoming a shrinkable
/// failure (the coherence checker's violations arrive as panics).
fn checked<B, O>(
    check: &impl Fn(&Cell, &B) -> Result<O, Reject>,
    cell: &Cell,
    base: &B,
) -> Result<O, Reject> {
    catch_unwind(AssertUnwindSafe(|| check(cell, base)))
        .unwrap_or_else(|p| Err(Reject::Shrink(panic_message(p))))
}

/// A completed campaign.
pub struct Campaign<O> {
    /// Per-cell outcomes, in grid order.
    pub results: Vec<CellResult<O>>,
    /// Measured steps per cell.
    pub steps: usize,
    /// Whether the full grid ran.
    pub full: bool,
}

impl<O> Campaign<O> {
    /// Run `check` on every cell in grid order against its (workload,
    /// protocol) baseline, which `baseline` builds the first time the
    /// pair comes up. A shrinkable failure is delta-debugged with the
    /// same check to a minimal reproducer: a subset reproduces it when
    /// the check fails it shrinkably too.
    pub fn run<B>(
        cells: &[Cell],
        steps: usize,
        full: bool,
        mut baseline: impl FnMut(Workload, ProtocolKind) -> B,
        check: impl Fn(&Cell, &B) -> Result<O, Reject>,
    ) -> Self {
        let mut baselines = HashMap::new();
        let results = cells
            .iter()
            .map(|cell| {
                let base = baselines
                    .entry((cell.workload, cell.protocol))
                    .or_insert_with(|| baseline(cell.workload, cell.protocol));
                let outcome = checked(&check, cell, base).map_err(|r| match r {
                    Reject::Keep(message) => Failure {
                        message,
                        reproducer: Vec::new(),
                    },
                    Reject::Shrink(message) => Failure {
                        message,
                        reproducer: shrink(&cell.events, |events| {
                            let sub = Cell {
                                events: events.to_vec(),
                                ..cell.clone()
                            };
                            matches!(checked(&check, &sub, base), Err(Reject::Shrink(_)))
                        }),
                    },
                });
                CellResult {
                    cell: cell.clone(),
                    outcome,
                }
            })
            .collect();
        Campaign {
            results,
            steps,
            full,
        }
    }

    /// True when every cell passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(CellResult::pass)
    }
}

impl<O: GridOutcome> Campaign<O> {
    /// The human-readable campaign table.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = O::KEY_COLUMNS
            .iter()
            .chain(&["result"])
            .chain(O::PASS_COLUMNS)
            .copied()
            .collect();
        let mut t = Table::new(&headers);
        for r in &self.results {
            let mut row = O::key_cells(&r.cell);
            match &r.outcome {
                Ok(o) => {
                    row.push(O::PASS.to_string());
                    row.extend(o.pass_cells());
                }
                Err(f) => {
                    let descs: Vec<String> = f.reproducer.iter().map(FaultEvent::desc).collect();
                    row.push(format!("FAIL [{}] {}", descs.join(" + "), f.message));
                    row.extend(O::PASS_COLUMNS.iter().map(|_| "-".to_string()));
                }
            }
            t.row(row);
        }
        t.render()
    }

    /// Machine-readable form (`BENCH_<experiment>.json`).
    pub fn to_json(&self) -> Json {
        let grid: Json = self
            .results
            .iter()
            .map(|r| {
                let mut row = Json::obj().with("workload", r.cell.workload.label());
                if O::TAG_DASH_SCI || r.cell.protocol != ProtocolKind::DashSci {
                    row.push("protocol", r.cell.protocol.label());
                }
                let row = row
                    .with("seed", r.cell.seed)
                    .with("events", descs(&r.cell.events))
                    .with("pass", r.pass());
                match &r.outcome {
                    Ok(o) => o.pass_fields(row),
                    Err(f) => row
                        .with("failure", f.message.as_str())
                        .with("reproducer", descs(&f.reproducer)),
                }
            })
            .collect();
        let head = report_head(O::EXPERIMENT)
            .with("full", self.full)
            .with("steps", self.steps)
            .with("cells", self.results.len())
            .with("passed", self.passed());
        O::head_fields(&self.results, head).with("grid", grid)
    }

    /// The campaign's report: write `BENCH_<experiment>.json`, print the
    /// table under `title` followed by `about`, then panic when a cell
    /// failed so the harness records a FAIL.
    pub fn finish(&self, title: &str, about: &str) -> String {
        let report = crate::write_bench(&format!("BENCH_{}.json", O::EXPERIMENT), &self.to_json());
        let text = emit(title, &format!("{}\n{about}\n{report}", self.render()));
        assert!(
            self.passed(),
            "{} campaign failed:\n{}",
            O::EXPERIMENT,
            self.render()
        );
        text
    }
}

/// `events` as a JSON array of their descriptions.
fn descs(events: &[FaultEvent]) -> Json {
    events.iter().map(FaultEvent::desc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as Counter;

    /// A stand-in outcome: key fields like recovery's, one pass column.
    #[derive(Debug)]
    struct Probe(u64);

    impl GridOutcome for Probe {
        const EXPERIMENT: &'static str = "probe";
        const KEY_COLUMNS: &'static [&'static str] = &["workload", "protocol"];
        const PASS: &'static str = "pass";
        const PASS_COLUMNS: &'static [&'static str] = &["n"];
        const TAG_DASH_SCI: bool = true;
        fn key_cells(cell: &Cell) -> Vec<String> {
            vec![
                cell.workload.label().to_string(),
                cell.protocol.label().to_string(),
            ]
        }
        fn pass_cells(&self) -> Vec<String> {
            vec![self.0.to_string()]
        }
        fn pass_fields(&self, row: Json) -> Json {
            row.with("n", self.0)
        }
    }

    fn six_events() -> Vec<FaultEvent> {
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
        ]
    }

    fn cell(workload: Workload, protocol: ProtocolKind, seed: u64) -> Cell {
        Cell {
            workload,
            protocol,
            seed,
            events: six_events(),
        }
    }

    fn has(events: &[FaultEvent], f: impl Fn(&FaultEvent) -> bool) -> bool {
        events.iter().any(f)
    }

    #[test]
    fn the_baseline_runs_once_per_workload_and_protocol() {
        let mut cells = Vec::new();
        for protocol in [ProtocolKind::DashSci, ProtocolKind::Mesi] {
            for w in [Workload::Pic, Workload::Fem] {
                for seed in [1, 2, 3] {
                    cells.push(cell(w, protocol, seed));
                }
            }
        }
        let built = Counter::new(0);
        let checks = Counter::new(0);
        let c = Campaign::run(
            &cells,
            1,
            false,
            |w, p| {
                built.set(built.get() + 1);
                (w, p)
            },
            |cell, base| {
                checks.set(checks.get() + 1);
                assert_eq!(*base, (cell.workload, cell.protocol));
                Ok(Probe(cell.seed))
            },
        );
        assert!(c.passed());
        assert_eq!(built.get(), 4, "one baseline per (workload, protocol)");
        assert_eq!(checks.get(), cells.len());
    }

    #[test]
    fn a_failing_check_is_shrunk_with_the_same_check() {
        // The planted bug: a CPU failure together with a GCB degrade.
        // The check panics, as the coherence checker would.
        let calls = Counter::new(0);
        let c = Campaign::run(
            &[cell(Workload::Nbody, ProtocolKind::Dragon, 7)],
            1,
            false,
            |_, _| (),
            |cell, _| {
                calls.set(calls.get() + 1);
                let cpu = has(&cell.events, |e| matches!(e, FaultEvent::CpuFail { .. }));
                let gcb = has(&cell.events, |e| matches!(e, FaultEvent::GcbDegrade { .. }));
                if cpu && gcb {
                    panic!("coherence violation: sci-well-formed (injected test bug)");
                }
                Ok(Probe(0))
            },
        );
        assert!(!c.passed());
        let f = c.results[0].outcome.as_ref().expect_err("must fail");
        assert!(f.message.contains("coherence violation"), "{}", f.message);
        assert_eq!(f.reproducer.len(), 2, "{:?}", f.reproducer);
        assert!(matches!(f.reproducer[0], FaultEvent::CpuFail { .. }));
        assert!(matches!(f.reproducer[1], FaultEvent::GcbDegrade { .. }));
        assert!(
            calls.get() > 1,
            "the reproducer came from re-running the check"
        );
        assert!(c.render().contains(
            "FAIL [cpu-fail(cpu=2@500000) + gcb-degrade(node=1@1200000)] coherence violation"
        ));
    }

    #[test]
    fn a_failure_marked_not_to_shrink_has_an_empty_reproducer() {
        let calls = Counter::new(0);
        let c = Campaign::run(
            &[cell(Workload::Pic, ProtocolKind::Mesi, 3)],
            1,
            false,
            |_, _| (),
            |_, _| -> Result<Probe, Reject> {
                calls.set(calls.get() + 1);
                Err(Reject::Keep("vacuous".to_string()))
            },
        );
        let f = c.results[0].outcome.as_ref().expect_err("must fail");
        assert_eq!(f.message, "vacuous");
        assert!(f.reproducer.is_empty());
        assert_eq!(calls.get(), 1, "an unshrunk failure is not re-run");
        let doc = crate::parse_report(&c.to_json());
        let row = &crate::report_array(&doc, "grid")[0];
        assert!(crate::report_array(row, "reproducer").is_empty());
        assert!(c.render().contains("FAIL [] vacuous"));
    }

    #[test]
    fn control_characters_in_a_failure_message_stay_valid_json() {
        let failed = |cell: Cell, message: &str, reproducer: Vec<FaultEvent>| CellResult {
            cell,
            outcome: Err::<Probe, _>(Failure {
                message: message.to_string(),
                reproducer,
            }),
        };
        let checker = "checker said \"no\"\tat\u{1} line\r\nC:\\path";
        let scrub = "scrub \"gave up\"\tat\u{1} line\r\nC:\\path";
        let dragon = Cell {
            workload: Workload::Nbody,
            protocol: ProtocolKind::Dragon,
            seed: 17,
            events: vec![
                FaultEvent::UpdateLoss { prob: 0.05 },
                FaultEvent::TransientPersist { prob: 0.1 },
            ],
        };
        let c = Campaign {
            results: vec![
                failed(
                    cell(Workload::Fem, ProtocolKind::Mesi, 11),
                    checker,
                    six_events()[..1].to_vec(),
                ),
                failed(dragon.clone(), scrub, dragon.events),
            ],
            steps: 1,
            full: false,
        };
        let doc = crate::parse_report(&c.to_json());
        assert_eq!(doc.bool_field("passed"), Some(false));
        let grid = crate::report_array(&doc, "grid");
        assert_eq!(grid[0].str_field("failure"), Some(checker));
        assert_eq!(grid[0].str_field("protocol"), Some("mesi"));
        assert_eq!(crate::report_array(&grid[0], "reproducer").len(), 1);
        assert_eq!(grid[1].str_field("failure"), Some(scrub));
        assert_eq!(grid[1].str_field("workload"), Some("nbody"));
        assert_eq!(crate::report_array(&grid[1], "reproducer").len(), 2);
    }

    #[test]
    fn shrinker_finds_the_minimal_failing_subset() {
        // Failure predicate: the "bug" triggers whenever a CPU failure
        // and a GCB degrade are both present (a planted two-event
        // interaction inside a six-event plan).
        let events = six_events();
        let fails = |ev: &[FaultEvent]| {
            has(ev, |e| matches!(e, FaultEvent::CpuFail { .. }))
                && has(ev, |e| matches!(e, FaultEvent::GcbDegrade { .. }))
        };
        assert!(fails(&events));
        let min = shrink(&events, fails);
        assert_eq!(min.len(), 2, "minimal reproducer: {min:?}");
        assert!(matches!(min[0], FaultEvent::CpuFail { .. }));
        assert!(matches!(min[1], FaultEvent::GcbDegrade { .. }));
    }
}
