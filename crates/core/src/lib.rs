//! # spp-core — a cycle-accounting simulator of the Convex SPP-1000
//!
//! This crate is the substrate for reproducing *"A Performance
//! Evaluation of the Convex SPP-1000 Scalable Shared Memory Parallel
//! Computer"* (Sterling et al., SC 1995). The paper measures real
//! hardware; the hardware is gone, so this crate rebuilds its memory
//! hierarchy as a deterministic simulator:
//!
//! * three-level topology — functional units (2× PA-7100 + memory),
//!   hypernodes (4 FUs on a 5-port crossbar), and up to 16 hypernodes
//!   on four SCI rings ([`config`]);
//! * per-CPU 1 MB direct-mapped caches with 32-byte lines ([`cache`]);
//! * DASH-style intra-hypernode directory coherence and SCI
//!   distributed-linked-list inter-hypernode coherence with per-ring
//!   global cache buffers ([`directory`], [`machine`]);
//! * the five Convex memory classes (thread private, node private,
//!   near shared, far shared, block shared) with their page-placement
//!   rules ([`mem`]);
//! * a latency model calibrated to the paper's published figures
//!   ([`latency`]) and hardware-style event counters ([`stats`]).
//!
//! Applications keep their real data in [`SimArray`]s so the simulator
//! prices the *genuine* address stream of the genuine algorithm.
//!
//! ```
//! use spp_core::{Machine, MemClass, NodeId, CpuId, SimArray};
//!
//! let mut m = Machine::spp1000(2); // the paper's 16-CPU testbed
//! let mut a = SimArray::<f64>::from_elem(
//!     &mut m, MemClass::FarShared, 1024, 0.0);
//! let cost_miss = a.write(&mut m, CpuId(0), 0, 1.0);
//! let (v, cost_hit) = a.read(&mut m, CpuId(0), 0);
//! assert_eq!(v, 1.0);
//! assert!(cost_miss > cost_hit);
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod cache;
pub mod check;
pub mod config;
pub mod diagram;
pub mod directory;
pub mod error;
pub mod fault;
pub mod heat;
pub mod json;
pub mod jsonl;
pub mod latency;
pub mod linemap;
pub mod machine;
pub mod mem;
pub mod port;
pub mod protocol;
pub mod race;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod traceport;
pub mod watchdog;

pub use array::SimArray;
pub use cache::{Cache, LineState};
pub use check::{CoherenceChecker, Violation};
pub use config::{CpuId, FuId, MachineConfig, NodeId, RingId};
pub use diagram::system_diagram;
pub use error::{ConfigError, SimError};
pub use fault::{FaultEvent, FaultPlan, HardFault, N_FAULT_SITES};
pub use heat::{
    heat_by_region, heat_report, insight_json, HeatCell, HeatMap, RegionHeat, ServiceLevel,
    N_SERVICE_LEVELS,
};
pub use jsonl::{atomic_write, atomic_write_str, read_jsonl_tolerant, JsonlAppender, JsonlRead};
pub use latency::{cycles_to_us, us_to_cycles, Cycles, LatencyModel};
pub use machine::Machine;
pub use mem::{AddressSpace, MemClass, Region};
pub use port::MemPort;
pub use protocol::{CoherenceProtocol, DashSci, Dragon, Mesi, ProtocolKind};
pub use race::{RaceEvent, RaceFinding, RaceKind, RaceReport, RaceSink, SharingWarning};
pub use snapshot::Snapshot;
pub use stats::MemStats;
pub use trace::{MissKind, NullSink, RingSink, TraceEvent, TraceRecord, TraceSink};
pub use traceport::{Trace, TracePort};
pub use watchdog::{
    panic_message, retry_backoff, CancelToken, HostSupervisor, StallKind, Supervised, Watchdog,
    WatchdogReport,
};
