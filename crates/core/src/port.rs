//! The pluggable memory-port abstraction.
//!
//! [`MemPort`] is the seam between workload *drivers* (the runtime's
//! fork-join layer, the PVM layer, and the application kernels) and
//! the memory-system *cost model*. Everything above spp-core is
//! generic over it. There is one cost model and two ports onto it:
//!
//! * [`crate::Machine`] — the cycle-accurate coherence model. The
//!   trait impl delegates to the inherent methods, so a
//!   `Runtime<Machine>` is bit-identical to the pre-trait code and
//!   the paper anchors do not move.
//! * [`crate::TracePort`] — wraps a `Machine`, charging real costs
//!   while recording a compact binary trace that can be replayed into
//!   a fresh cycle-accurate machine ([`crate::Trace::replay`]).
//!
//! No analytic model prices the stream: the paper's findings are
//! properties of coherence state (GCB hits, SCI sharing lists,
//! cross-hypernode fetches) that only the cycle model keeps.
//!
//! ## Batched runs
//!
//! [`MemPort::read_run`] / [`MemPort::write_run`] price `n`
//! consecutive `elem_bytes`-strided accesses starting at `addr` in
//! one call. The **run-equivalence invariant** every port must
//! uphold: a run call returns exactly the total cycles, and produces
//! exactly the [`crate::MemStats`] delta, of the equivalent scalar
//! loop. `Machine` implements them with a fast path that performs one
//! coherence transaction per cache line and prices the rest as hits —
//! valid because the model is single-threaded, so after the first
//! access of a run the line deterministically stays resident for the
//! remainder of that line's elements; `TracePort` records one run op
//! and forwards it. `tests/cross_validation.rs` enforces the
//! invariant bit-for-bit.

use crate::config::{CpuId, FuId, MachineConfig, NodeId};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::latency::Cycles;
use crate::machine::Machine;
use crate::mem::{MemClass, Region};
use crate::race::RaceEvent;
use crate::stats::MemStats;
use crate::trace::TraceRecord;

/// A memory system that allocates simulated addresses and prices
/// accesses in cycles. See the [module docs](self) for the contract.
pub trait MemPort {
    /// The machine topology and latency model this port prices
    /// against (line geometry lives here).
    fn config(&self) -> &MachineConfig;

    /// A cached read of the line containing `addr` by `cpu`; returns
    /// the latency the issuing CPU observes.
    fn read(&mut self, cpu: CpuId, addr: u64) -> Cycles;

    /// A cached write to the line containing `addr` by `cpu`.
    fn write(&mut self, cpu: CpuId, addr: u64) -> Cycles;

    /// An uncached atomic operation (counting semaphores, §4.2).
    fn uncached_op(&mut self, cpu: CpuId, addr: u64) -> Cycles;

    /// Allocate simulated memory with the given placement class.
    fn try_alloc(&mut self, class: MemClass, bytes: u64) -> Result<Region, SimError>;

    /// Panicking variant of [`MemPort::try_alloc`].
    fn alloc(&mut self, class: MemClass, bytes: u64) -> Region {
        self.try_alloc(class, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Home (node, FU) of an address under the port's placement rules.
    fn home_of(&self, addr: u64) -> (NodeId, FuId);

    /// Event counters accumulated so far.
    fn stats(&self) -> &MemStats;

    /// Drop all cached state (between benchmark repetitions);
    /// counters are left untouched.
    fn flush_all_caches(&mut self);

    /// Price `n` reads at `addr, addr + elem_bytes, ...` as `cpu`.
    ///
    /// Must be cycle- and stats-equivalent to the scalar loop (the
    /// run-equivalence invariant, see the [module docs](self)).
    fn read_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles;

    /// Price `n` writes at `addr, addr + elem_bytes, ...` as `cpu`.
    /// Same equivalence contract as [`MemPort::read_run`].
    fn write_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles;

    /// True if `cpu` has been taken offline by a hard fault (see
    /// [`crate::HardFault::CpuFail`]). Backends without a hard-failure
    /// model always answer `false`; the runtime watchdog consults this
    /// to distinguish a dead participant from a slow one.
    fn is_cpu_dead(&self, cpu: CpuId) -> bool {
        let _ = cpu;
        false
    }

    /// The deterministic fault schedule, if this backend models one.
    /// The runtime and PVM layers draw spawn/message decisions here.
    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }

    /// Mutable access to the fault schedule, if any.
    fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        None
    }

    /// True when this backend has a trace sink mounted. Layers above
    /// the machine (runtime, PVM) guard their event construction on
    /// this so tracing off costs them a single branch per sync point.
    fn tracing(&self) -> bool {
        false
    }

    /// Deliver one externally-stamped trace record (see
    /// [`crate::trace`]); dropped by backends without a sink.
    fn trace(&mut self, rec: TraceRecord) {
        let _ = rec;
    }

    /// True when this backend has a race detector mounted (see
    /// [`crate::race`]). The runtime guards its segment-boundary
    /// event construction on this, so detection off costs one branch
    /// per sync point — the same contract as [`MemPort::tracing`].
    fn racing(&self) -> bool {
        false
    }

    /// Deliver one segment-boundary event to the race detector;
    /// dropped by backends without one.
    fn race(&mut self, ev: RaceEvent) {
        let _ = ev;
    }

    /// Label the region based at `base` for observability (heatmap
    /// and report region names); dropped by backends without a region
    /// registry.
    fn label_region(&mut self, base: u64, label: &str) {
        let _ = (base, label);
    }
}

impl MemPort for Machine {
    fn config(&self) -> &MachineConfig {
        Machine::config(self)
    }

    fn read(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        Machine::read(self, cpu, addr)
    }

    fn write(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        Machine::write(self, cpu, addr)
    }

    fn uncached_op(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        Machine::uncached_op(self, cpu, addr)
    }

    fn try_alloc(&mut self, class: MemClass, bytes: u64) -> Result<Region, SimError> {
        Machine::try_alloc(self, class, bytes)
    }

    fn home_of(&self, addr: u64) -> (NodeId, FuId) {
        Machine::home_of(self, addr)
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn flush_all_caches(&mut self) {
        Machine::flush_all_caches(self)
    }

    fn read_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        Machine::read_run(self, cpu, addr, elem_bytes, n)
    }

    fn write_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        Machine::write_run(self, cpu, addr, elem_bytes, n)
    }

    fn is_cpu_dead(&self, cpu: CpuId) -> bool {
        Machine::is_cpu_dead(self, cpu)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Machine::fault_plan(self)
    }

    fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        Machine::faults_mut(self)
    }

    fn tracing(&self) -> bool {
        Machine::tracing_enabled(self)
    }

    fn trace(&mut self, rec: TraceRecord) {
        if let Some(t) = self.tracer_mut() {
            t.record(rec);
        }
    }

    fn racing(&self) -> bool {
        Machine::race_detection_enabled(self)
    }

    fn race(&mut self, ev: RaceEvent) {
        if let Some(r) = self.race_sink_mut() {
            r.handle(ev);
        }
    }

    fn label_region(&mut self, base: u64, label: &str) {
        Machine::label_region(self, base, label)
    }
}
