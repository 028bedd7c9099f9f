//! Trace recording and replay for the cycle-accurate backend.
//!
//! [`TracePort`] wraps a [`Machine`]: every port operation is charged
//! its real cycle-accurate cost *and* appended to a compact binary
//! [`Trace`]. Replaying the trace into a fresh, identically
//! configured machine ([`Trace::replay`]) re-executes the identical
//! port-level operation stream, so the replay's total cycles and
//! [`crate::MemStats`] are bit-identical to the recording run — the
//! E11 cross-validation of EXPERIMENTS.md.
//!
//! The trace records the *port-level* stream: allocations (which
//! rebuild the identical deterministic address-space layout), cache
//! flushes, scalar and batched reads/writes, and uncached ops.
//! Driver-level costs above the port (fork/join software costs, PVM
//! packing, flop accounting) are not memory traffic and are not
//! recorded. Fault-plan draws happen *inside* the replayed
//! operations, so installing the same seeded plan on the replay
//! machine reproduces them exactly.
//!
//! Record encoding (little-endian, byte-packed): an opcode byte, then
//! the operands of that opcode. Runs store `(cpu: u16, addr: u64,
//! elem_bytes: u32, n: u32)` — a 2M-access PPM sweep strip costs 19
//! bytes, not 2M records.

use crate::config::{CpuId, FuId, MachineConfig, NodeId};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::latency::Cycles;
use crate::machine::Machine;
use crate::mem::{MemClass, Region};
use crate::port::MemPort;
use crate::race::RaceEvent;
use crate::stats::MemStats;
use crate::trace::TraceRecord;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_UNCACHED: u8 = 2;
const OP_READ_RUN: u8 = 3;
const OP_WRITE_RUN: u8 = 4;
const OP_ALLOC: u8 = 5;
const OP_FLUSH: u8 = 6;

const CLASS_THREAD_PRIVATE: u8 = 0;
const CLASS_NODE_PRIVATE: u8 = 1;
const CLASS_NEAR_SHARED: u8 = 2;
const CLASS_FAR_SHARED: u8 = 3;
const CLASS_BLOCK_SHARED: u8 = 4;

/// A recorded port-operation stream (compact binary form).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    bytes: Vec<u8>,
    records: u64,
}

impl Trace {
    fn op(&mut self, op: u8) {
        self.bytes.push(op);
        self.records += 1;
    }

    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn access(&mut self, op: u8, cpu: CpuId, addr: u64) {
        self.op(op);
        self.u16(cpu.0);
        self.u64(addr);
    }

    fn run(&mut self, op: u8, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) {
        debug_assert!(elem_bytes <= u32::MAX as u64 && n <= u32::MAX as usize);
        self.op(op);
        self.u16(cpu.0);
        self.u64(addr);
        self.u32(elem_bytes as u32);
        self.u32(n as u32);
    }

    fn alloc(&mut self, class: MemClass, bytes: u64) {
        self.op(OP_ALLOC);
        match class {
            MemClass::ThreadPrivate { home } => {
                self.bytes.push(CLASS_THREAD_PRIVATE);
                self.u16(home.0);
            }
            MemClass::NodePrivate { node } => {
                self.bytes.push(CLASS_NODE_PRIVATE);
                self.bytes.push(node.0);
            }
            MemClass::NearShared { node } => {
                self.bytes.push(CLASS_NEAR_SHARED);
                self.bytes.push(node.0);
            }
            MemClass::FarShared => self.bytes.push(CLASS_FAR_SHARED),
            MemClass::BlockShared { block_bytes } => {
                self.bytes.push(CLASS_BLOCK_SHARED);
                self.u64(block_bytes as u64);
            }
        }
        self.u64(bytes);
    }

    /// Number of records (one run counts once, however long).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encoded size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Re-execute the recorded stream against `m`, returning the total
    /// cycles charged. `m` must be freshly built with the same
    /// configuration (and fault plan, if any) as the recording
    /// machine; the replay then reproduces cycles and stats
    /// bit-identically.
    ///
    /// # Panics
    /// On a malformed or truncated trace (traces are only produced by
    /// [`TracePort`], so this indicates corruption).
    pub fn replay(&self, m: &mut Machine) -> Cycles {
        let b = &self.bytes;
        let mut p = 0usize;
        let mut total: Cycles = 0;
        let u16_at = |p: &mut usize| {
            let v = u16::from_le_bytes(
                b[*p..*p + 2]
                    .try_into()
                    .expect("record framing guarantees 2 bytes"),
            );
            *p += 2;
            v
        };
        let u32_at = |p: &mut usize| {
            let v = u32::from_le_bytes(
                b[*p..*p + 4]
                    .try_into()
                    .expect("record framing guarantees 4 bytes"),
            );
            *p += 4;
            v
        };
        let u64_at = |p: &mut usize| {
            let v = u64::from_le_bytes(
                b[*p..*p + 8]
                    .try_into()
                    .expect("record framing guarantees 8 bytes"),
            );
            *p += 8;
            v
        };
        while p < b.len() {
            let op = b[p];
            p += 1;
            match op {
                OP_READ | OP_WRITE | OP_UNCACHED => {
                    let cpu = CpuId(u16_at(&mut p));
                    let addr = u64_at(&mut p);
                    total += match op {
                        OP_READ => m.read(cpu, addr),
                        OP_WRITE => m.write(cpu, addr),
                        _ => m.uncached_op(cpu, addr),
                    };
                }
                OP_READ_RUN | OP_WRITE_RUN => {
                    let cpu = CpuId(u16_at(&mut p));
                    let addr = u64_at(&mut p);
                    let elem = u32_at(&mut p) as u64;
                    let n = u32_at(&mut p) as usize;
                    total += if op == OP_READ_RUN {
                        m.read_run(cpu, addr, elem, n)
                    } else {
                        m.write_run(cpu, addr, elem, n)
                    };
                }
                OP_ALLOC => {
                    let class = match b[p] {
                        CLASS_THREAD_PRIVATE => {
                            p += 1;
                            MemClass::ThreadPrivate {
                                home: FuId(u16_at(&mut p)),
                            }
                        }
                        CLASS_NODE_PRIVATE => {
                            let node = NodeId(b[p + 1]);
                            p += 2;
                            MemClass::NodePrivate { node }
                        }
                        CLASS_NEAR_SHARED => {
                            let node = NodeId(b[p + 1]);
                            p += 2;
                            MemClass::NearShared { node }
                        }
                        CLASS_FAR_SHARED => {
                            p += 1;
                            MemClass::FarShared
                        }
                        CLASS_BLOCK_SHARED => {
                            p += 1;
                            MemClass::BlockShared {
                                block_bytes: u64_at(&mut p) as usize,
                            }
                        }
                        other => panic!("corrupt trace: unknown class tag {other}"),
                    };
                    let bytes = u64_at(&mut p);
                    let _ = m.alloc(class, bytes);
                }
                OP_FLUSH => m.flush_all_caches(),
                other => panic!("corrupt trace: unknown opcode {other}"),
            }
        }
        total
    }
}

/// The recording backend: a cycle-accurate [`Machine`] plus a
/// [`Trace`] of every port operation it priced.
#[derive(Debug, Clone)]
pub struct TracePort {
    inner: Machine,
    trace: Trace,
    total: Cycles,
}

impl TracePort {
    /// Wrap a machine; all port traffic is charged by it and recorded.
    pub fn new(inner: Machine) -> Self {
        TracePort {
            inner,
            trace: Trace::default(),
            total: 0,
        }
    }

    /// The wrapped cycle-accurate machine.
    pub fn inner(&self) -> &Machine {
        &self.inner
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total cycles charged through this port so far (the number
    /// [`Trace::replay`] must reproduce).
    pub fn total_cycles(&self) -> Cycles {
        self.total
    }

    /// Unwrap into the machine and the recorded trace.
    pub fn into_parts(self) -> (Machine, Trace) {
        (self.inner, self.trace)
    }
}

impl MemPort for TracePort {
    fn config(&self) -> &MachineConfig {
        self.inner.config()
    }

    fn read(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.trace.access(OP_READ, cpu, addr);
        let c = self.inner.read(cpu, addr);
        self.total += c;
        c
    }

    fn write(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.trace.access(OP_WRITE, cpu, addr);
        let c = self.inner.write(cpu, addr);
        self.total += c;
        c
    }

    fn uncached_op(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.trace.access(OP_UNCACHED, cpu, addr);
        let c = self.inner.uncached_op(cpu, addr);
        self.total += c;
        c
    }

    fn try_alloc(&mut self, class: MemClass, bytes: u64) -> Result<Region, SimError> {
        let r = self.inner.try_alloc(class, bytes)?;
        self.trace.alloc(class, bytes);
        Ok(r)
    }

    fn home_of(&self, addr: u64) -> (NodeId, FuId) {
        self.inner.home_of(addr)
    }

    fn stats(&self) -> &MemStats {
        &self.inner.stats
    }

    fn flush_all_caches(&mut self) {
        self.trace.op(OP_FLUSH);
        self.inner.flush_all_caches();
    }

    fn read_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        self.trace.run(OP_READ_RUN, cpu, addr, elem_bytes, n);
        let c = self.inner.read_run(cpu, addr, elem_bytes, n);
        self.total += c;
        c
    }

    fn write_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        self.trace.run(OP_WRITE_RUN, cpu, addr, elem_bytes, n);
        let c = self.inner.write_run(cpu, addr, elem_bytes, n);
        self.total += c;
        c
    }

    fn is_cpu_dead(&self, cpu: CpuId) -> bool {
        self.inner.is_cpu_dead(cpu)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.inner.faults_mut()
    }

    // Trace records, race events and labels are observability-only:
    // pass them through to the inner machine's sinks and registry, but
    // keep them out of the recorded op stream (replay reproduces
    // cycles and stats, not reports).
    fn tracing(&self) -> bool {
        MemPort::tracing(&self.inner)
    }

    fn trace(&mut self, rec: TraceRecord) {
        MemPort::trace(&mut self.inner, rec)
    }

    fn racing(&self) -> bool {
        MemPort::racing(&self.inner)
    }

    fn race(&mut self, ev: RaceEvent) {
        MemPort::race(&mut self.inner, ev)
    }

    fn label_region(&mut self, base: u64, label: &str) {
        self.inner.label_region(base, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream touching every opcode: allocs in several classes,
    /// scalar and batched traffic from multiple CPUs, uncached ops,
    /// and a mid-stream flush.
    fn drive<P: MemPort>(p: &mut P) -> Cycles {
        let near = p.alloc(MemClass::NearShared { node: NodeId(0) }, 8192);
        let far = p.alloc(MemClass::FarShared, 1 << 14);
        let blk = p.alloc(MemClass::BlockShared { block_bytes: 4096 }, 1 << 14);
        let mut t = 0;
        for i in 0..256u64 {
            t += p.read(CpuId((i % 16) as u16), near.addr((i * 32) % 8192));
            t += p.write(CpuId(0), far.addr(i * 8));
        }
        t += p.read_run(CpuId(3), blk.addr(0), 8, 2048);
        t += p.write_run(CpuId(9), blk.addr(0), 8, 2048);
        t += p.uncached_op(CpuId(0), near.addr(0));
        t += p.uncached_op(CpuId(8), near.addr(0));
        p.flush_all_caches();
        t += p.read_run(CpuId(3), blk.addr(0), 8, 512);
        t
    }

    #[test]
    fn replay_reproduces_cycles_and_stats_bit_identically() {
        let mut rec = TracePort::new(Machine::spp1000(2));
        let total = drive(&mut rec);
        assert_eq!(total, rec.total_cycles());
        let (machine, trace) = rec.into_parts();
        assert!(trace.records() > 0);

        let mut fresh = Machine::spp1000(2);
        let replayed = trace.replay(&mut fresh);
        assert_eq!(replayed, total);
        assert_eq!(fresh.stats, machine.stats);
    }

    #[test]
    fn replay_reproduces_fault_draws_with_same_seed() {
        let plan = FaultPlan::new(7).with_ring_stalls(0.3, 400);
        let mut rec = TracePort::new(Machine::spp1000(2).with_faults(plan.clone()));
        let total = drive(&mut rec);
        let (machine, trace) = rec.into_parts();
        assert!(machine.stats.ring_stalls > 0, "stream must cross the ring");

        let mut fresh = Machine::spp1000(2).with_faults(plan);
        let replayed = trace.replay(&mut fresh);
        assert_eq!(replayed, total);
        assert_eq!(fresh.stats, machine.stats);
    }

    #[test]
    fn hard_faults_and_observer_events_reach_the_inner_machine() {
        use crate::trace::{TraceEvent, NO_CPU, NO_NODE};
        let plan = FaultPlan::new(1).with_cpu_failure(3, 1_000);
        let mut p = TracePort::new(
            Machine::spp1000(2)
                .with_faults(plan)
                .with_tracing()
                .with_race_detection(),
        );
        let r = p.alloc(MemClass::FarShared, 1 << 14);
        assert!(!MemPort::is_cpu_dead(&p, CpuId(3)));
        for i in 0..64u64 {
            p.read(CpuId((i % 16) as u16), r.addr(i * 32));
        }
        assert!(p.inner().is_cpu_dead(CpuId(3)), "the failure must fire");
        assert!(MemPort::is_cpu_dead(&p, CpuId(3)));
        assert!(!MemPort::is_cpu_dead(&p, CpuId(4)));

        assert!(MemPort::tracing(&p) && MemPort::racing(&p));
        let records = p.trace().records();
        MemPort::trace(
            &mut p,
            TraceRecord {
                at: 7,
                cpu: NO_CPU,
                node: NO_NODE,
                event: TraceEvent::BarrierRelease,
            },
        );
        MemPort::race(&mut p, RaceEvent::RegionBegin);
        MemPort::race(&mut p, RaceEvent::RegionEnd);
        assert!(p
            .inner()
            .trace_events()
            .iter()
            .any(|r| r.at == 7 && matches!(r.event, TraceEvent::BarrierRelease)));
        assert_eq!(p.inner().race_report().regions, 1);
        assert_eq!(
            p.trace().records(),
            records,
            "observability is not recorded"
        );
    }

    #[test]
    fn runs_are_recorded_compactly() {
        let mut rec = TracePort::new(Machine::spp1000(1));
        let r = rec.alloc(MemClass::NearShared { node: NodeId(0) }, 1 << 20);
        let before = rec.trace().len_bytes();
        rec.read_run(CpuId(0), r.addr(0), 8, 100_000);
        let grew = rec.trace().len_bytes() - before;
        assert!(grew < 32, "one run record, got {grew} bytes");
    }

    #[test]
    #[should_panic(expected = "corrupt trace")]
    fn corrupt_traces_are_rejected() {
        let t = Trace {
            bytes: vec![200],
            records: 1,
        };
        t.replay(&mut Machine::spp1000(1));
    }
}
