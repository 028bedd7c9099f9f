//! Typed arrays in simulated memory.
//!
//! A [`SimArray<T>`] owns real host data (a `Vec<T>`) *and* a range of
//! simulated addresses with a placement class. Application kernels
//! compute on the real data while every indexed access is priced by
//! the machine model — the simulator sees the genuine address stream
//! of the genuine algorithm. All pricing goes through the pluggable
//! [`MemPort`], so the same kernel can run against the cycle-accurate
//! machine or a trace recorder.

use crate::config::CpuId;
use crate::latency::Cycles;
use crate::mem::{MemClass, Region};
use crate::port::MemPort;

/// A typed array living in simulated memory.
#[derive(Debug, Clone)]
pub struct SimArray<T> {
    data: Vec<T>,
    region: Region,
    elem_bytes: u64,
}

impl<T: Copy> SimArray<T> {
    /// Allocate simulated backing for `data` with the given placement.
    pub fn new<P: MemPort>(m: &mut P, class: MemClass, data: Vec<T>) -> Self {
        let elem_bytes = std::mem::size_of::<T>() as u64;
        let bytes = (data.len() as u64 * elem_bytes).max(1);
        let region = m.alloc(class, bytes);
        SimArray {
            data,
            region,
            elem_bytes,
        }
    }

    /// Allocate a `len`-element array filled with `v`.
    pub fn from_elem<P: MemPort>(m: &mut P, class: MemClass, len: usize, v: T) -> Self {
        Self::new(m, class, vec![v; len])
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len());
        self.region.base + i as u64 * self.elem_bytes
    }

    /// The allocation this array occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Name this array for observability: registers the label in the
    /// backend's region registry (heatmap/report region names, see
    /// [`crate::heat`]) and, when a race detector is mounted, refines
    /// its default `alloc@...` registration with the real label and
    /// element size so findings read `rho[42]` instead of a raw
    /// address.
    pub fn set_label<P: MemPort>(&self, m: &mut P, label: &str) {
        m.label_region(self.region.base, label);
        if m.racing() {
            m.race(crate::race::RaceEvent::Register {
                base: self.region.base,
                len: self.region.len,
                elem_bytes: self.elem_bytes,
                label: label.to_string(),
            });
        }
    }

    /// Priced read of element `i` as `cpu`.
    #[inline]
    pub fn read<P: MemPort>(&self, m: &mut P, cpu: CpuId, i: usize) -> (T, Cycles) {
        let c = m.read(cpu, self.addr(i));
        (self.data[i], c)
    }

    /// Priced write of element `i` as `cpu`.
    #[inline]
    pub fn write<P: MemPort>(&mut self, m: &mut P, cpu: CpuId, i: usize, v: T) -> Cycles {
        let c = m.write(cpu, self.addr(i));
        self.data[i] = v;
        c
    }

    /// Priced streaming read of `range`, appended to `out`. One
    /// batched port run; cycle- and stats-equivalent to elementwise
    /// [`SimArray::read`]s (the run-equivalence invariant of
    /// [`crate::port`]).
    pub fn read_run<P: MemPort>(
        &self,
        m: &mut P,
        cpu: CpuId,
        range: std::ops::Range<usize>,
        out: &mut Vec<T>,
    ) -> Cycles {
        if range.is_empty() {
            return 0;
        }
        debug_assert!(range.end <= self.data.len());
        let c = m.read_run(cpu, self.addr(range.start), self.elem_bytes, range.len());
        out.extend_from_slice(&self.data[range]);
        c
    }

    /// Priced streaming write of `vals` into `start..start + vals.len()`.
    /// One batched port run; same equivalence contract as
    /// [`SimArray::read_run`].
    pub fn write_run<P: MemPort>(
        &mut self,
        m: &mut P,
        cpu: CpuId,
        start: usize,
        vals: &[T],
    ) -> Cycles {
        if vals.is_empty() {
            return 0;
        }
        debug_assert!(start + vals.len() <= self.data.len());
        let c = m.write_run(cpu, self.addr(start), self.elem_bytes, vals.len());
        self.data[start..start + vals.len()].copy_from_slice(vals);
        c
    }

    /// Priced streaming fill of `range` with `v`; the constant-value
    /// form of [`SimArray::write_run`].
    pub fn fill_run<P: MemPort>(
        &mut self,
        m: &mut P,
        cpu: CpuId,
        range: std::ops::Range<usize>,
        v: T,
    ) -> Cycles {
        if range.is_empty() {
            return 0;
        }
        debug_assert!(range.end <= self.data.len());
        let c = m.write_run(cpu, self.addr(range.start), self.elem_bytes, range.len());
        self.data[range].fill(v);
        c
    }

    /// Unpriced access to the host data (initialization, verification
    /// — *not* for simulated kernels).
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Unpriced mutable access to the host data.
    pub fn host_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the array, returning the host data.
    pub fn into_host(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeId;
    use crate::machine::Machine;

    #[test]
    fn addresses_are_contiguous_and_typed() {
        let mut m = Machine::spp1000(1);
        let a =
            SimArray::<f64>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 16, 0.0);
        assert_eq!(a.addr(1) - a.addr(0), 8);
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
    }

    #[test]
    fn read_write_round_trip_with_costs() {
        let mut m = Machine::spp1000(1);
        let mut a =
            SimArray::<f64>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 8, 0.0);
        let c_w = a.write(&mut m, CpuId(0), 3, 2.5);
        assert!(c_w > 1, "first write misses");
        let (v, c_r) = a.read(&mut m, CpuId(0), 3);
        assert_eq!(v, 2.5);
        assert_eq!(c_r, 1, "read after write hits in cache");
    }

    #[test]
    fn four_f64_per_line() {
        let mut m = Machine::spp1000(1);
        let a =
            SimArray::<f64>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 8, 0.0);
        let (_, c0) = a.read(&mut m, CpuId(0), 0);
        let (_, c1) = a.read(&mut m, CpuId(0), 1);
        let (_, c2) = a.read(&mut m, CpuId(0), 3);
        let (_, c4) = a.read(&mut m, CpuId(0), 4);
        assert!(c0 > 1);
        assert_eq!(c1, 1);
        assert_eq!(c2, 1);
        assert!(c4 > 1, "element 4 starts a new 32 B line");
    }

    #[test]
    fn distinct_arrays_do_not_alias() {
        let mut m = Machine::spp1000(1);
        let a = SimArray::<u32>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 4, 0);
        let b = SimArray::<u32>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 4, 0);
        assert!(a.addr(3) < b.addr(0));
    }

    #[test]
    fn host_access_bypasses_simulation() {
        let mut m = Machine::spp1000(1);
        let mut a =
            SimArray::<u32>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 4, 7);
        let before = m.stats;
        a.host_mut()[2] = 9;
        assert_eq!(a.host()[2], 9);
        assert_eq!(m.stats, before);
        assert_eq!(a.into_host(), vec![7, 7, 9, 7]);
    }

    #[test]
    fn run_helpers_move_data_and_match_scalar_costs() {
        let run = |batched: bool| {
            let mut m = Machine::spp1000(2);
            let mut a = SimArray::<f64>::from_elem(&mut m, MemClass::FarShared, 4096, 0.0);
            let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
            let mut total;
            let mut out = Vec::new();
            if batched {
                total = a.write_run(&mut m, CpuId(0), 10, &vals);
                total += a.fill_run(&mut m, CpuId(1), 2000..3000, 7.0);
                total += a.read_run(&mut m, CpuId(2), 10..1010, &mut out);
            } else {
                total = 0;
                for (k, v) in vals.iter().enumerate() {
                    total += a.write(&mut m, CpuId(0), 10 + k, *v);
                }
                for i in 2000..3000 {
                    total += a.write(&mut m, CpuId(1), i, 7.0);
                }
                for i in 10..1010 {
                    let (v, c) = a.read(&mut m, CpuId(2), i);
                    out.push(v);
                    total += c;
                }
            }
            assert_eq!(out.len(), 1000);
            assert_eq!(out[5], 5.0);
            assert_eq!(a.host()[2500], 7.0);
            (total, m.stats)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn empty_runs_cost_nothing() {
        let mut m = Machine::spp1000(1);
        let mut a =
            SimArray::<f64>::from_elem(&mut m, MemClass::NearShared { node: NodeId(0) }, 8, 0.0);
        let before = m.stats;
        let mut out = Vec::new();
        assert_eq!(a.read_run(&mut m, CpuId(0), 3..3, &mut out), 0);
        assert_eq!(a.write_run(&mut m, CpuId(0), 0, &[]), 0);
        assert_eq!(a.fill_run(&mut m, CpuId(0), 0..0, 1.0), 0);
        assert_eq!(m.stats, before);
    }
}
