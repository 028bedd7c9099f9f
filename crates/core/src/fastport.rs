//! An analytic hit/miss-counting backend for quick parameter sweeps.
//!
//! [`FastPort`] prices accesses with the same cache geometry and the
//! same placement rules as [`crate::Machine`] but keeps **no
//! coherence state**: no node directories, no SCI reference trees, no
//! global cache buffers. A miss costs `local_miss` when the address
//! is homed on the issuing CPU's hypernode and `local_miss +
//! sci_fetch(hops)` otherwise — the two headline latencies of the
//! paper's Table 1 — so sweeps over placement, problem size, and
//! thread count run at host-memory speed while preserving the
//! hit/miss structure of the workload.
//!
//! ## Documented tolerance vs. the cycle-accurate backend
//!
//! For single-writer streaming workloads the per-CPU caches see the
//! same fills and conflicts as the cycle model, so `hits`,
//! `local_misses` + `sci_fetches`, and `evictions` agree *exactly*.
//! Divergence appears only where coherence actions change occupancy:
//! cross-CPU invalidations (a re-read the cycle model counts as a
//! miss can count as a hit here), GCB hits (counted as plain local
//! misses here since there is no GCB), and cache-to-cache supplies.
//! The backend-validation experiment (`spp repro all --backend fast`)
//! asserts total hit and miss counts stay within 10% of the
//! cycle-accurate backend on the workloads it sweeps.

use crate::cache::{Cache, LineState};
use crate::config::{CpuId, FuId, MachineConfig, NodeId};
use crate::error::{ConfigError, SimError};
use crate::latency::Cycles;
use crate::mem::{AddressSpace, MemClass, Region};
use crate::port::MemPort;
use crate::stats::MemStats;

/// The analytic backend: per-CPU tag arrays plus closed-form miss
/// pricing. See the [module docs](self) for the accuracy contract.
#[derive(Debug, Clone)]
pub struct FastPort {
    cfg: MachineConfig,
    space: AddressSpace,
    caches: Vec<Cache>,
    /// Event counters (hits, misses, evictions; coherence counters
    /// that require directory state stay zero).
    pub stats: MemStats,
    line_shift: u32,
}

impl FastPort {
    /// Build the analytic model of a machine configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`FastPort::new`].
    pub fn try_new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let cpus = cfg.num_cpus();
        let caches = (0..cpus)
            .map(|_| Cache::for_machine(cpus, cfg.cache_lines()))
            .collect();
        Ok(FastPort {
            space: AddressSpace::new(&cfg),
            caches,
            stats: MemStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        })
    }

    /// The paper's testbed geometry, analytically priced.
    pub fn spp1000(hypernodes: usize) -> Self {
        Self::new(MachineConfig::spp1000(hypernodes))
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Closed-form miss price: local or one SCI round trip.
    #[inline]
    fn miss_cost(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        let my_node = self.cfg.node_of_cpu(cpu);
        let (hnode, _) = self.space.home_of(addr);
        if hnode == my_node {
            self.stats.local_misses += 1;
            self.cfg.latency.local_miss
        } else {
            self.stats.sci_fetches += 1;
            let hops = self.cfg.ring_round_trip_hops(my_node, hnode);
            self.cfg.latency.local_miss + self.cfg.latency.sci_fetch(hops)
        }
    }

    /// Account for the victim a fill displaced.
    #[inline]
    fn evict(&mut self, victim: Option<crate::cache::Evicted>) -> Cycles {
        match victim {
            Some(v) => {
                self.stats.evictions += 1;
                if v.state == LineState::Modified {
                    self.stats.writebacks += 1;
                    self.cfg.latency.writeback
                } else {
                    0
                }
            }
            None => 0,
        }
    }
}

impl MemPort for FastPort {
    fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn read(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.stats.reads += 1;
        let line = self.line_of(addr);
        match self.caches[cpu.0 as usize].lookup(line) {
            LineState::Invalid => {
                let mut cost = self.miss_cost(cpu, addr);
                let victim = self.caches[cpu.0 as usize].fill(line, LineState::Shared);
                cost += self.evict(victim);
                cost
            }
            // Shared | Modified (this backend installs nothing else).
            _ => {
                self.stats.hits += 1;
                self.cfg.latency.cache_hit
            }
        }
    }

    fn write(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.stats.writes += 1;
        let line = self.line_of(addr);
        match self.caches[cpu.0 as usize].lookup(line) {
            LineState::Shared => {
                self.stats.hits += 1;
                self.stats.upgrades += 1;
                self.caches[cpu.0 as usize].set_state(line, LineState::Modified);
                self.cfg.latency.cache_hit + self.cfg.latency.dir_op
            }
            LineState::Invalid => {
                self.stats.upgrades += 1;
                let mut cost = self.miss_cost(cpu, addr);
                let victim = self.caches[cpu.0 as usize].fill(line, LineState::Modified);
                cost += self.evict(victim);
                cost
            }
            // Modified (this backend installs nothing else).
            _ => {
                self.stats.hits += 1;
                self.cfg.latency.cache_hit
            }
        }
    }

    fn uncached_op(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        self.stats.uncached_ops += 1;
        let (hnode, _) = self.space.home_of(addr);
        let local = self.cfg.latency.uncached_local;
        if hnode == self.cfg.node_of_cpu(cpu) {
            local
        } else {
            local + self.cfg.latency.uncached_remote_extra
        }
    }

    fn try_alloc(&mut self, class: MemClass, bytes: u64) -> Result<Region, SimError> {
        self.space.try_alloc(class, bytes)
    }

    fn home_of(&self, addr: u64) -> (NodeId, FuId) {
        self.space.home_of(addr)
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn flush_all_caches(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::port::MemPort;

    #[test]
    fn streaming_hit_miss_structure_matches_machine_exactly() {
        // A single-CPU stride-8 stream over far-shared memory: no
        // coherence actions, so FastPort's counters must agree exactly
        // with the cycle-accurate machine.
        let mut fast = FastPort::spp1000(2);
        let mut cycle = Machine::spp1000(2);
        let rf = fast.alloc(MemClass::FarShared, 1 << 16);
        let rc = Machine::alloc(&mut cycle, MemClass::FarShared, 1 << 16);
        for i in 0..(1u64 << 13) {
            fast.read(CpuId(0), rf.addr(i * 8));
            cycle.read(CpuId(0), rc.addr(i * 8));
        }
        assert_eq!(fast.stats.reads, cycle.stats.reads);
        assert_eq!(fast.stats.hits, cycle.stats.hits);
        assert_eq!(
            fast.stats.local_misses + fast.stats.sci_fetches,
            cycle.stats.local_misses + cycle.stats.sci_fetches + cycle.stats.gcb_hits
        );
    }

    #[test]
    fn remote_miss_still_about_8x_local() {
        let mut p = FastPort::spp1000(2);
        let near = p.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        let far = p.alloc(MemClass::NearShared { node: NodeId(1) }, 4096);
        let local = p.read(CpuId(0), near.addr(0));
        let remote = p.read(CpuId(0), far.addr(0));
        let ratio = remote as f64 / local as f64;
        assert!((6.0..=10.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn second_read_hits_and_flush_forgets() {
        let mut p = FastPort::spp1000(1);
        let r = p.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        assert!(p.read(CpuId(0), r.addr(0)) > 1);
        assert_eq!(p.read(CpuId(0), r.addr(0)), 1);
        p.flush_all_caches();
        assert!(p.read(CpuId(0), r.addr(0)) > 1);
    }

    #[test]
    fn default_run_methods_equal_scalar_loops() {
        let scalar = {
            let mut p = FastPort::spp1000(2);
            let r = p.alloc(MemClass::FarShared, 1 << 14);
            let mut t = 0;
            for i in 0..2048u64 {
                t += p.read(CpuId(0), r.addr(i * 8));
            }
            for i in 0..2048u64 {
                t += p.write(CpuId(1), r.addr(i * 8));
            }
            (t, p.stats)
        };
        let batched = {
            let mut p = FastPort::spp1000(2);
            let r = p.alloc(MemClass::FarShared, 1 << 14);
            let mut t = p.read_run(CpuId(0), r.addr(0), 8, 2048);
            t += p.write_run(CpuId(1), r.addr(0), 8, 2048);
            (t, p.stats)
        };
        assert_eq!(scalar, batched);
    }

    #[test]
    fn no_fault_plan_on_the_analytic_backend() {
        let mut p = FastPort::spp1000(1);
        assert!(p.fault_plan().is_none());
        assert!(p.faults_mut().is_none());
    }
}
