//! # spp-scenario — declarative scenario specs and the supervised fleet
//!
//! The evaluation matrix of this repo — which application, on which
//! topology, under which fault plan, with which schedule and
//! placement, gated against which golden counters — used to live as
//! hand-rolled per-experiment binaries. This crate turns each cell into a
//! **declarative TOML spec** ([`spec`]) and runs matrices of them
//! under a **supervised fleet** ([`engine`]):
//!
//! * crash isolation: a panicking cell is caught and classified, not
//!   allowed to take the fleet down;
//! * wall-clock supervision: a hanging cell is cancelled and recorded
//!   as a timeout;
//! * self-healing: failed cells retry with exponential backoff,
//!   kernel-stream cells resume from their latest SPPSNAP1
//!   checkpoint, and repeat offenders are quarantined;
//! * golden gating: bit-exact cycle/counter expectations produce
//!   structured diffs, never panics;
//! * the report (`BENCH_scenarios.json`) is deterministic and always
//!   written, even when every cell fails.
//!
//! ```
//! use spp_scenario::{run_fleet, FleetConfig, Registry, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml_str(r#"
//!     schema = 1
//!     [scenario]
//!     name = "smoke"
//!     kind = "workload"
//!     steps = 1
//!     [workload]
//!     app = "kernel-stream"
//!     elems = 64
//! "#).unwrap();
//! let report = run_fleet(&[spec], &Registry::new(), &FleetConfig::default());
//! assert!(report.all_as_expected());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod spec;
pub mod toml;
pub mod workload;

pub use engine::{
    read_heartbeat_stream, report_head, run_attempt, run_fleet, write_report, ExperimentFn,
    FleetConfig, FleetReport, Registry, ScenarioResult, Status, REPORT_SCHEMA,
};
pub use spec::{
    BuiltinOp, Expectation, ExperimentOpts, ExperimentSpec, GoldenSpec, PlacementPolicy,
    ScenarioKind, ScenarioSpec, SchedulePolicySpec, SpecError, WorkloadApp, WorkloadSpec,
    SPEC_SCHEMA,
};
pub use workload::{
    run_builtin, run_shared_app, run_workload, CheckpointPaths, SharedApp, SharedRun, StepTotals,
    WorkloadOutcome,
};
