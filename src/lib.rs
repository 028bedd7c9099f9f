//! # spp1000 — a simulator-based reproduction of the SC'95 Convex
//! SPP-1000 performance evaluation
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`spp_core`] — the machine: topology, caches, DASH-style
//!   intra-hypernode directory, SCI inter-hypernode coherence, memory
//!   classes, latency model;
//! * [`spp_runtime`] — CPSlib-style threads, fork-join, barriers,
//!   placement;
//! * [`spp_pvm`] — ConvexPVM-style message passing;
//! * [`spp_kernels`] — FFT, Morton, sorting, RNG substrates;
//! * [`c90_model`] — the Cray C90 vector baseline;
//! * the four applications: [`pic`], [`fem`], [`nbody`], [`ppm`].
//!
//! ```
//! use spp1000::prelude::*;
//!
//! // The paper's 16-processor testbed.
//! let mut rt = Runtime::spp1000(2);
//! let report = rt.fork_join(16, &Placement::Uniform, |ctx| {
//!     ctx.flops(10_000);
//! });
//! assert!(report.elapsed_us() > 100.0); // fork-join isn't free (Fig. 2)
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record, and `crates/bench` for the `spp` binary
//! whose `spp repro <id>` regenerates every table and figure.

#![warn(missing_docs)]

pub use c90_model;
pub use fem;
pub use nbody;
pub use pic;
pub use ppm;
pub use spp_core;
pub use spp_kernels;
pub use spp_pvm;
pub use spp_runtime;

/// The most common imports in one place.
pub mod prelude {
    pub use c90_model::{LoopSpec, C90};
    pub use spp_core::{
        cycles_to_us, CoherenceChecker, ConfigError, CpuId, Cycles, FaultPlan, LatencyModel,
        Machine, MachineConfig, MemClass, MemPort, MemStats, NodeId, SimArray, SimError, Trace,
        TracePort, Violation,
    };
    pub use spp_kernels::{Complex, Rng64};
    pub use spp_pvm::Pvm;
    pub use spp_runtime::{Placement, Runtime, SchedulePolicy, SimBarrier, Team, ThreadCtx};
}
