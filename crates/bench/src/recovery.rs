//! Self-healing coherence campaign (`spp repro recovery`): sweep
//! protocol × transient-fault kind × intensity over the PIC, N-body,
//! and FEM applications, and enforce the recovery contract in-run:
//! a run that hits seeded transient coherence faults (dropped or
//! duplicated invalidations, lost Dragon updates, stale directory
//! acks, corrupted line state) must detect them, scrub them through
//! the machine's bounded retry path, and finish with elapsed cycles,
//! the machine clock, the coherence-state digest, and every memory
//! counter **bit-identical** to the fault-free run — only the
//! `recoveries`/`recovery_retries` counters may differ. A cell that
//! diverges, escalates, or panics is delta-debugged with the chaos
//! shrinker to a minimal non-recovering plan.
//!
//! The machine-readable summary is `BENCH_recovery.json` (written by
//! `spp repro recovery` under `target/repro`, or
//! `SPP_REPRO_DIR`), integers only so two runs diff byte-for-byte.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::chaos::{descs, joined_events, shrink, Workload};
use crate::{emit, Opts, Table};
use spp_core::json::Json;
use spp_core::{panic_message, Cycles, FaultEvent, FaultPlan, Machine, MemStats, ProtocolKind};
use spp_runtime::Runtime;

/// Probability of each transient kind at standard intensity.
pub const STANDARD_PROB: f64 = 0.05;
/// Probability at high intensity (the `--full` grid adds these cells).
pub const HIGH_PROB: f64 = 0.15;
/// Probability that a detected fault survives one scrub attempt —
/// low enough that the in-machine retry path always wins within its
/// budget, high enough that multi-attempt scrubs actually occur.
pub const PERSIST_PROB: f64 = 0.1;

/// The deterministic signature the recovery contract compares: every
/// observable of a run except the recovery counters themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSignature {
    /// Elapsed simulated cycles over the measured steps.
    pub elapsed: Cycles,
    /// Final machine clock.
    pub clock: Cycles,
    /// FNV-1a digest of the full coherence state (caches, directories,
    /// GCBs, SCI lists, snoop filter).
    pub digest: u64,
    /// Final memory-system counters.
    pub stats: MemStats,
}

/// Run one workload under `proto` with an optional fault plan and
/// return its signature. Panics propagate to the caller (the campaign
/// wraps this in `catch_unwind`; an exhausted scrub budget surfaces
/// here as the machine's `RecoveryExhausted` panic).
fn workload_run(
    w: Workload,
    proto: ProtocolKind,
    plan: Option<FaultPlan>,
    steps: usize,
) -> RunSignature {
    let mut m = Machine::spp1000(2).with_protocol(proto);
    if let Some(p) = plan {
        m = m.with_faults(p);
    }
    let run = w.run(Runtime::new(m), steps);
    let m = &run.rt.machine;
    RunSignature {
        elapsed: run.totals.cycles,
        clock: m.clock(),
        digest: m.coherence_digest(),
        stats: m.stats,
    }
}

/// One campaign cell: a (workload, protocol, fault-kind) triple at a
/// given intensity.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application.
    pub workload: Workload,
    /// The coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Fault-plan seed.
    pub seed: u64,
    /// The transient events layered onto the plan (one kind plus the
    /// shared persistence stream).
    pub events: Vec<FaultEvent>,
}

/// Observations from a cell that upheld the recovery contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOutcome {
    /// Elapsed simulated cycles (bit-equal to the fault-free run).
    pub elapsed: Cycles,
    /// Transient faults detected and fully scrubbed.
    pub recoveries: u64,
    /// Scrub retry attempts spent across all recoveries.
    pub retries: u64,
}

/// One grid cell's result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// Observations when the contract held.
    pub outcome: Option<CellOutcome>,
    /// Contract violation / panic message otherwise.
    pub failure: Option<String>,
    /// Minimal non-recovering event subset (only on shrinkable
    /// failures — a vacuous cell that injected nothing is reported
    /// without a reproducer).
    pub shrunk: Option<Vec<FaultEvent>>,
}

impl CellResult {
    /// Did the cell uphold the contract?
    pub fn pass(&self) -> bool {
        self.failure.is_none()
    }
}

/// Run one cell against a precomputed fault-free signature: the
/// faulted run must finish (no escalation) and match the baseline on
/// everything but the recovery counters. Returns `Err(message)` on
/// any divergence, escalation, or panic.
pub fn check_cell(cell: &Cell, baseline: &RunSignature, steps: usize) -> Result<MemStats, String> {
    let plan = FaultPlan::from_events(cell.seed, &cell.events);
    let got = catch_unwind(AssertUnwindSafe(|| {
        workload_run(cell.workload, cell.protocol, Some(plan), steps)
    }))
    .map_err(panic_message)?;
    if got.elapsed != baseline.elapsed {
        return Err(format!(
            "elapsed diverged: fault-free {} vs recovered {}",
            baseline.elapsed, got.elapsed
        ));
    }
    if got.clock != baseline.clock {
        return Err(format!(
            "machine clock diverged: fault-free {} vs recovered {}",
            baseline.clock, got.clock
        ));
    }
    if got.digest != baseline.digest {
        return Err(format!(
            "coherence-state digest diverged: fault-free {:#018x} vs recovered {:#018x}",
            baseline.digest, got.digest
        ));
    }
    if !got.stats.eq_modulo_recovery(&baseline.stats) {
        return Err("memory counters diverged beyond recoveries/recovery_retries".to_string());
    }
    Ok(got.stats)
}

/// The transient fault kinds applicable to `proto`, as
/// `(label, event)` pairs at probability `prob`.
pub fn fault_kinds(proto: ProtocolKind, prob: f64) -> Vec<(&'static str, FaultEvent)> {
    let mut kinds = vec![
        ("inval-drop", FaultEvent::InvalDrop { prob }),
        ("inval-dup", FaultEvent::InvalDup { prob }),
        ("inval-delay", FaultEvent::InvalDelay { prob }),
        ("line-corrupt", FaultEvent::LineCorrupt { prob }),
    ];
    match proto {
        ProtocolKind::Dragon => kinds.push(("update-loss", FaultEvent::UpdateLoss { prob })),
        ProtocolKind::DashSci => kinds.push(("ack-stale", FaultEvent::AckStale { prob })),
        ProtocolKind::Mesi => {}
    }
    kinds
}

fn cell(w: Workload, proto: ProtocolKind, event: FaultEvent) -> Cell {
    Cell {
        workload: w,
        protocol: proto,
        seed: 17,
        events: vec![event, FaultEvent::TransientPersist { prob: PERSIST_PROB }],
    }
}

/// The campaign grid. The smoke grid covers **every**
/// protocol × fault-kind pair at standard intensity, rotating the
/// application so each workload appears; `full` crosses every pair
/// with every workload and adds a high-intensity sweep.
pub fn default_grid(full: bool) -> Vec<Cell> {
    const APPS: [Workload; 3] = Workload::FAULTED;
    let mut cells = Vec::new();
    if full {
        for proto in ProtocolKind::ALL {
            for (_, ev) in fault_kinds(proto, STANDARD_PROB) {
                for w in APPS {
                    cells.push(cell(w, proto, ev));
                }
            }
        }
        let mut i = 0usize;
        for proto in ProtocolKind::ALL {
            for (_, ev) in fault_kinds(proto, HIGH_PROB) {
                cells.push(cell(APPS[i % APPS.len()], proto, ev));
                i += 1;
            }
        }
    } else {
        let mut i = 0usize;
        for proto in ProtocolKind::ALL {
            for (_, ev) in fault_kinds(proto, STANDARD_PROB) {
                cells.push(cell(APPS[i % APPS.len()], proto, ev));
                i += 1;
            }
        }
    }
    cells
}

/// A completed campaign.
pub struct Campaign {
    /// Per-cell results, in grid order.
    pub results: Vec<CellResult>,
    /// Measured steps per cell.
    pub steps: usize,
    /// Whether the full grid ran.
    pub full: bool,
}

/// Run the campaign over `cells`, caching one fault-free baseline per
/// (workload, protocol) pair.
pub fn run_campaign(cells: &[Cell], steps: usize, full: bool) -> Campaign {
    let mut baselines = HashMap::new();
    let results = cells
        .iter()
        .map(|c| {
            let baseline = *baselines
                .entry((c.workload, c.protocol))
                .or_insert_with(|| workload_run(c.workload, c.protocol, None, steps));
            match check_cell(c, &baseline, steps) {
                Ok(stats) if stats.recoveries == 0 => CellResult {
                    cell: c.clone(),
                    outcome: None,
                    failure: Some(
                        "vacuous cell: no transient fault was ever injected and recovered"
                            .to_string(),
                    ),
                    shrunk: None,
                },
                Ok(stats) => CellResult {
                    cell: c.clone(),
                    outcome: Some(CellOutcome {
                        elapsed: baseline.elapsed,
                        recoveries: stats.recoveries,
                        retries: stats.recovery_retries,
                    }),
                    failure: None,
                    shrunk: None,
                },
                Err(msg) => {
                    // Delta-debug the non-recovering plan to a minimal
                    // reproducer (an empty or recovery-clean subset
                    // passes the predicate, so shrinking terminates).
                    let shrunk = shrink(&c.events, |ev| {
                        let sub = Cell {
                            events: ev.to_vec(),
                            ..c.clone()
                        };
                        check_cell(&sub, &baseline, steps).is_err()
                    });
                    CellResult {
                        cell: c.clone(),
                        outcome: None,
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

impl Campaign {
    /// True when every cell upheld the recovery contract.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.pass())
    }

    /// Total recoveries across all passing cells.
    pub fn total_recoveries(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.recoveries)
            .sum()
    }

    /// The human-readable campaign table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workload",
            "protocol",
            "fault",
            "result",
            "cycles",
            "recoveries",
            "retries",
        ]);
        for r in &self.results {
            let kind = r.cell.events.first().map(|e| e.label()).unwrap_or("none");
            match (&r.outcome, &r.failure) {
                (Some(o), None) => t.row(vec![
                    r.cell.workload.label().to_string(),
                    r.cell.protocol.label().to_string(),
                    kind.to_string(),
                    "recovered".to_string(),
                    o.elapsed.to_string(),
                    o.recoveries.to_string(),
                    o.retries.to_string(),
                ]),
                (_, Some(msg)) => {
                    let shrunk = joined_events(r.shrunk.as_deref().unwrap_or_default());
                    t.row(vec![
                        r.cell.workload.label().to_string(),
                        r.cell.protocol.label().to_string(),
                        kind.to_string(),
                        format!("FAIL [{shrunk}] {msg}"),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
                (None, None) => unreachable!("cell with neither outcome nor failure"),
            }
        }
        t.render()
    }

    /// Machine-readable form (`BENCH_recovery.json`). Integers only —
    /// the probabilities live inside event-description strings — so
    /// two identical campaigns produce byte-identical files.
    pub fn to_json(&self) -> Json {
        let grid: Json = self
            .results
            .iter()
            .map(|r| {
                let row = Json::obj()
                    .with("workload", r.cell.workload.label())
                    .with("protocol", r.cell.protocol.label())
                    .with("seed", r.cell.seed)
                    .with("events", descs(&r.cell.events))
                    .with("pass", r.outcome.is_some());
                match &r.outcome {
                    Some(o) => row
                        .with("elapsed", o.elapsed)
                        .with("recoveries", o.recoveries)
                        .with("retries", o.retries),
                    None => row
                        .with("failure", r.failure.as_deref().unwrap_or(""))
                        .with("reproducer", descs(r.shrunk.as_deref().unwrap_or_default())),
                }
            })
            .collect();
        spp_scenario::report_head("recovery")
            .with("full", self.full)
            .with("steps", self.steps)
            .with("cells", self.results.len())
            .with("passed", self.passed())
            .with("total_recoveries", self.total_recoveries())
            .with("grid", grid)
    }
}

/// Run the default campaign for `o`.
pub fn campaign(o: &Opts) -> Campaign {
    run_campaign(&default_grid(o.full), o.steps, o.full)
}

/// Regenerate the recovery-campaign report: write
/// `BENCH_recovery.json`, then panic when any cell broke the
/// recovery contract so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let c = campaign(o);
    let report = crate::write_bench("BENCH_recovery.json", &c.to_json());
    let text = emit(
        "repro-recovery: transient-fault recovery contract",
        &format!(
            "{}\nEvery cell seeds one transient coherence-fault kind into a real\n\
             application and requires the machine's detect-and-retry path to\n\
             finish bit-identical to the fault-free run (elapsed cycles, clock,\n\
             coherence-state digest, and all counters except recoveries/retries).\n\
             Non-recovering plans are delta-debugged to minimal reproducers.\n\
             campaign passed: {} ({} transient faults recovered)\n{report}",
            c.render(),
            c.passed(),
            c.total_recoveries()
        ),
    );
    assert!(c.passed(), "recovery campaign failed:\n{}", c.render());
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_every_protocol_kind_pair() {
        let grid = default_grid(false);
        assert_eq!(grid.len(), 14); // 5 dash-sci + 4 mesi + 5 dragon
        for proto in ProtocolKind::ALL {
            for (label, _) in fault_kinds(proto, STANDARD_PROB) {
                assert!(
                    grid.iter().any(|c| c.protocol == proto
                        && c.events.first().is_some_and(|e| e.label() == label)),
                    "missing {proto} x {label}"
                );
            }
        }
        // Every cell carries the persistence stream so multi-attempt
        // scrubs happen.
        assert!(grid
            .iter()
            .all(|c| matches!(c.events[1], FaultEvent::TransientPersist { .. })));
    }

    #[test]
    fn a_recovering_cell_matches_its_fault_free_baseline() {
        let c = cell(
            Workload::Fem,
            ProtocolKind::Mesi,
            FaultEvent::InvalDup {
                prob: STANDARD_PROB,
            },
        );
        let baseline = workload_run(c.workload, c.protocol, None, 1);
        let stats = check_cell(&c, &baseline, 1).expect("contract must hold");
        assert!(stats.recoveries > 0, "cell never exercised recovery");
    }

    #[test]
    fn a_diverging_baseline_is_reported_with_a_reproducer() {
        // Hand the checker a wrong baseline: the mismatch must be
        // caught, and the shrinker must produce a subset that still
        // "fails" against that baseline.
        let c = cell(
            Workload::Pic,
            ProtocolKind::DashSci,
            FaultEvent::InvalDrop {
                prob: STANDARD_PROB,
            },
        );
        let mut bogus = workload_run(c.workload, c.protocol, None, 1);
        bogus.digest ^= 1;
        let err = check_cell(&c, &bogus, 1).expect_err("must diverge");
        assert!(err.contains("digest"), "{err}");
        let campaign = {
            let baseline = bogus;
            let shrunk = shrink(&c.events, |ev| {
                let sub = Cell {
                    events: ev.to_vec(),
                    ..c.clone()
                };
                check_cell(&sub, &baseline, 1).is_err()
            });
            // Every subset diverges from a corrupted digest, so the
            // greedy pass shrinks to empty.
            assert!(shrunk.is_empty());
            Campaign {
                results: vec![CellResult {
                    cell: c,
                    outcome: None,
                    failure: Some(err),
                    shrunk: Some(shrunk),
                }],
                steps: 1,
                full: false,
            }
        };
        assert!(!campaign.passed());
        let doc = crate::parse_report(&campaign.to_json());
        assert_eq!(doc.bool_field("passed"), Some(false));
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.bool_field("pass"), Some(false));
        assert!(row
            .str_field("failure")
            .is_some_and(|m| m.contains("digest")));
        assert!(crate::report_array(row, "reproducer").is_empty());
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let c = |w| Cell {
            workload: w,
            protocol: ProtocolKind::Mesi,
            seed: 3,
            events: vec![FaultEvent::InvalDrop { prob: 0.5 }],
        };
        let campaign = Campaign {
            results: vec![
                CellResult {
                    cell: c(Workload::Pic),
                    outcome: Some(CellOutcome {
                        elapsed: 900,
                        recoveries: 4,
                        retries: 6,
                    }),
                    failure: None,
                    shrunk: None,
                },
                CellResult {
                    cell: c(Workload::Fem),
                    outcome: None,
                    failure: Some("tab\there".to_string()),
                    shrunk: Some(Vec::new()),
                },
            ],
            steps: 1,
            full: false,
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"recovery\",\n\
            \x20 \"full\": false,\n\
            \x20 \"steps\": 1,\n\
            \x20 \"cells\": 2,\n\
            \x20 \"passed\": false,\n\
            \x20 \"total_recoveries\": 4,\n\
            \x20 \"grid\": [\n\
            \x20   {\"workload\": \"pic\", \"protocol\": \"mesi\", \"seed\": 3, \"events\": [\"inval-drop(p=0.5)\"], \"pass\": true, \"elapsed\": 900, \"recoveries\": 4, \"retries\": 6},\n\
            \x20   {\"workload\": \"fem\", \"protocol\": \"mesi\", \"seed\": 3, \"events\": [\"inval-drop(p=0.5)\"], \"pass\": false, \"failure\": \"tab\\there\", \"reproducer\": []}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(campaign.to_json().report(), expected);
    }

    #[test]
    fn control_characters_in_a_failure_message_stay_valid_json() {
        let msg = "scrub \"gave up\"\tat\u{1} line\r\nC:\\path";
        let c = cell(
            Workload::Nbody,
            ProtocolKind::Dragon,
            FaultEvent::UpdateLoss {
                prob: STANDARD_PROB,
            },
        );
        let campaign = Campaign {
            results: vec![CellResult {
                shrunk: Some(c.events.clone()),
                cell: c,
                outcome: None,
                failure: Some(msg.to_string()),
            }],
            steps: 1,
            full: false,
        };
        let doc = crate::parse_report(&campaign.to_json());
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.str_field("failure"), Some(msg));
        assert_eq!(row.str_field("workload"), Some("nbody"));
        assert_eq!(crate::report_array(row, "reproducer").len(), 2);
    }

    #[test]
    fn json_is_integers_only_and_deterministic() {
        let cells = default_grid(false)
            .into_iter()
            .filter(|c| c.workload == Workload::Pic && c.protocol == ProtocolKind::Mesi)
            .collect::<Vec<_>>();
        assert!(!cells.is_empty());
        let a = run_campaign(&cells, 1, false);
        assert!(a.passed(), "{}", a.render());
        let b = run_campaign(&cells, 1, false);
        assert_eq!(a.to_json().report(), b.to_json().report());
        let doc = crate::parse_report(&a.to_json());
        assert_eq!(doc.str_field("experiment"), Some("recovery"));
        assert_eq!(doc.bool_field("passed"), Some(true));
        let grid = crate::report_array(&doc, "grid");
        assert_eq!(grid.len(), cells.len());
        assert!(grid
            .iter()
            .all(|r| r.int_field("recoveries").is_some_and(|n| n > 0)));
        // No bare floats outside the quoted event descriptions.
        for line in a.to_json().report().lines() {
            let mut outside = String::new();
            let mut in_str = false;
            for ch in line.chars() {
                match ch {
                    '"' => in_str = !in_str,
                    c if !in_str => outside.push(c),
                    _ => {}
                }
            }
            assert!(!outside.contains('.'), "float leaked into JSON: {line}");
        }
    }
}
