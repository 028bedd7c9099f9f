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
//! diverges, escalates, or panics is delta-debugged to a minimal
//! non-recovering plan. The cells, runner, shrinker and report writer
//! are the shared fault grid ([`crate::grid`]); this module holds the
//! grid, the contract check and the columns.
//!
//! The machine-readable summary is `BENCH_recovery.json` (written by
//! `spp repro recovery` under `target/repro`, or
//! `SPP_REPRO_DIR`), integers only so two runs diff byte-for-byte.

use crate::grid::{Campaign, Cell, CellResult, GridOutcome, Reject, Workload};
use crate::Opts;
use spp_core::json::Json;
use spp_core::{Cycles, FaultEvent, FaultPlan, MemStats, ProtocolKind};

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
/// return its signature. Panics propagate to the caller (the grid
/// runner catches them; an exhausted scrub budget surfaces here as the
/// machine's `RecoveryExhausted` panic).
fn signature(
    w: Workload,
    proto: ProtocolKind,
    plan: Option<FaultPlan>,
    steps: usize,
) -> RunSignature {
    let run = w.run_under(proto, plan, steps);
    let m = &run.rt.machine;
    RunSignature {
        elapsed: run.totals.cycles,
        clock: m.clock(),
        digest: m.coherence_digest(),
        stats: m.stats,
    }
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

impl GridOutcome for CellOutcome {
    const EXPERIMENT: &'static str = "recovery";
    const KEY_COLUMNS: &'static [&'static str] = &["workload", "protocol", "fault"];
    const PASS: &'static str = "recovered";
    const PASS_COLUMNS: &'static [&'static str] = &["cycles", "recoveries", "retries"];
    const TAG_DASH_SCI: bool = true;

    fn key_cells(cell: &Cell) -> Vec<String> {
        let kind = cell.events.first().map_or("none", FaultEvent::label);
        vec![
            cell.workload.label().to_string(),
            cell.protocol.label().to_string(),
            kind.to_string(),
        ]
    }

    fn pass_cells(&self) -> Vec<String> {
        vec![
            self.elapsed.to_string(),
            self.recoveries.to_string(),
            self.retries.to_string(),
        ]
    }

    fn pass_fields(&self, row: Json) -> Json {
        row.with("elapsed", self.elapsed)
            .with("recoveries", self.recoveries)
            .with("retries", self.retries)
    }

    fn head_fields(results: &[CellResult<Self>], head: Json) -> Json {
        head.with("total_recoveries", total_recoveries(results))
    }
}

/// Total recoveries across all passing cells.
pub fn total_recoveries(results: &[CellResult<CellOutcome>]) -> u64 {
    results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| o.recoveries)
        .sum()
}

/// Check one cell against its fault-free signature: the faulted run
/// must finish (no escalation) and match the baseline on everything
/// but the recovery counters. A divergence is a failure the runner
/// shrinks; a cell that never recovered a fault is vacuous, a failure
/// with nothing to shrink.
pub fn check_cell(
    cell: &Cell,
    baseline: &RunSignature,
    steps: usize,
) -> Result<CellOutcome, Reject> {
    let got = signature(cell.workload, cell.protocol, Some(cell.plan()), steps);
    if got.elapsed != baseline.elapsed {
        return Err(Reject::Shrink(format!(
            "elapsed diverged: fault-free {} vs recovered {}",
            baseline.elapsed, got.elapsed
        )));
    }
    if got.clock != baseline.clock {
        return Err(Reject::Shrink(format!(
            "machine clock diverged: fault-free {} vs recovered {}",
            baseline.clock, got.clock
        )));
    }
    if got.digest != baseline.digest {
        return Err(Reject::Shrink(format!(
            "coherence-state digest diverged: fault-free {:#018x} vs recovered {:#018x}",
            baseline.digest, got.digest
        )));
    }
    if !got.stats.eq_modulo_recovery(&baseline.stats) {
        return Err(Reject::Shrink(
            "memory counters diverged beyond recoveries/recovery_retries".to_string(),
        ));
    }
    if got.stats.recoveries == 0 {
        return Err(Reject::Keep(
            "vacuous cell: no transient fault was ever injected and recovered".to_string(),
        ));
    }
    Ok(CellOutcome {
        elapsed: got.elapsed,
        recoveries: got.stats.recoveries,
        retries: got.stats.recovery_retries,
    })
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
    }
    // The smoke grid at standard intensity, or the full grid's
    // high-intensity sweep, one application per pair in rotation.
    let prob = if full { HIGH_PROB } else { STANDARD_PROB };
    let mut i = 0usize;
    for proto in ProtocolKind::ALL {
        for (_, ev) in fault_kinds(proto, prob) {
            cells.push(cell(APPS[i % APPS.len()], proto, ev));
            i += 1;
        }
    }
    cells
}

/// Run the campaign over `cells`, one fault-free baseline per
/// (workload, protocol) pair.
pub fn run_campaign(cells: &[Cell], steps: usize, full: bool) -> Campaign<CellOutcome> {
    Campaign::run(
        cells,
        steps,
        full,
        |w, p| signature(w, p, None, steps),
        |cell, baseline| check_cell(cell, baseline, steps),
    )
}

/// Regenerate the recovery-campaign report: write
/// `BENCH_recovery.json`, then panic when any cell broke the
/// recovery contract so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let c = run_campaign(&default_grid(o.full), o.steps, o.full);
    c.finish(
        "repro-recovery: transient-fault recovery contract",
        &format!(
            "Every cell seeds one transient coherence-fault kind into a real\n\
             application and requires the machine's detect-and-retry path to\n\
             finish bit-identical to the fault-free run (elapsed cycles, clock,\n\
             coherence-state digest, and all counters except recoveries/retries).\n\
             Non-recovering plans are delta-debugged to minimal reproducers.\n\
             campaign passed: {} ({} transient faults recovered)",
            c.passed(),
            total_recoveries(&c.results)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Failure;

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
        let baseline = signature(c.workload, c.protocol, None, 1);
        let outcome = check_cell(&c, &baseline, 1).expect("contract must hold");
        assert!(outcome.recoveries > 0, "cell never exercised recovery");
        assert_eq!(outcome.elapsed, baseline.elapsed);
    }

    #[test]
    fn a_diverging_baseline_is_reported_with_a_reproducer() {
        // Hand the runner a wrong baseline: the mismatch must be
        // caught, and the shrinker must produce a subset that still
        // "fails" against that baseline.
        let c = cell(
            Workload::Pic,
            ProtocolKind::DashSci,
            FaultEvent::InvalDrop {
                prob: STANDARD_PROB,
            },
        );
        let mut bogus = signature(c.workload, c.protocol, None, 1);
        bogus.digest ^= 1;
        let err = check_cell(&c, &bogus, 1).expect_err("must diverge");
        assert!(
            matches!(&err, Reject::Shrink(m) if m.contains("digest")),
            "{err:?}"
        );
        let campaign = Campaign::run(
            &[c],
            1,
            false,
            |_, _| bogus,
            |cell, baseline| check_cell(cell, baseline, 1),
        );
        assert!(!campaign.passed());
        let doc = crate::parse_report(&campaign.to_json());
        assert_eq!(doc.bool_field("passed"), Some(false));
        let row = &crate::report_array(&doc, "grid")[0];
        assert_eq!(row.bool_field("pass"), Some(false));
        assert!(row
            .str_field("failure")
            .is_some_and(|m| m.contains("digest")));
        // Every subset diverges from a corrupted digest, so the
        // greedy pass shrinks to empty.
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
                    outcome: Ok(CellOutcome {
                        elapsed: 900,
                        recoveries: 4,
                        retries: 6,
                    }),
                },
                CellResult {
                    cell: c(Workload::Fem),
                    outcome: Err(Failure {
                        message: "tab\there".to_string(),
                        reproducer: Vec::new(),
                    }),
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
