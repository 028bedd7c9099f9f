//! Heap allocations on the coherence-miss path.
//!
//! A priced access should cost model work only: no per-access heap
//! traffic for counter bookkeeping, broadcast holder lists or SCI
//! sharing lists. This test counts the allocator calls of the
//! kernel-stream read-modify-write sweep — element `i` of step `s` is
//! read and then written by CPU `(i + s) % n` — once the first step has
//! laid down the per-line state, under every protocol on a small and a
//! large machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spp_core::{CpuId, Machine, MemClass, ProtocolKind};

/// Counts the calling thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ELEMS: u64 = 8192;

/// One kernel-stream step: every element read then written by the CPU
/// `(i + step) % cpus`.
fn step(m: &mut Machine, base: u64, cpus: u64, step: u64) {
    for i in 0..ELEMS {
        let cpu = CpuId(((i + step) % cpus) as u16);
        m.read(cpu, base + i * 8);
        m.write(cpu, base + i * 8);
    }
}

#[test]
fn the_miss_path_allocates_almost_nothing_per_access() {
    // The coherence checker audits every access and allocates as it
    // goes; this test measures the model alone, so it runs without it
    // even when the suite is run with SPP_CHECK=1. This file holds one
    // test, so no other test reads the variable concurrently.
    std::env::set_var("SPP_CHECK", "0");
    for hypernodes in [2, 32] {
        for protocol in ProtocolKind::ALL {
            let mut m = Machine::spp1000(hypernodes).with_protocol(protocol);
            let cpus = m.config().num_cpus() as u64;
            let base = m.alloc(MemClass::FarShared, ELEMS * 8).base;
            step(&mut m, base, cpus, 0);
            let before = ALLOCS.with(Cell::get);
            let accesses_before = m.stats.accesses();
            for s in 1..3 {
                step(&mut m, base, cpus, s);
            }
            let allocs = ALLOCS.with(Cell::get) - before;
            let accesses = m.stats.accesses() - accesses_before;
            let per_access = allocs as f64 / accesses as f64;
            let bound = match protocol {
                ProtocolKind::DashSci => 0.25,
                ProtocolKind::Mesi | ProtocolKind::Dragon => 0.10,
            };
            println!(
                "{protocol} on {hypernodes} hypernodes: {per_access:.3} allocations per access"
            );
            assert!(
                m.stats.misses() * 4 >= accesses,
                "{protocol}/{hypernodes}: the sweep must keep missing ({})",
                m.stats
            );
            assert!(
                per_access <= bound,
                "{protocol} on {hypernodes} hypernodes: {allocs} allocations over \
                 {accesses} accesses ({per_access:.3} each, bound {bound})"
            );
        }
    }
}
