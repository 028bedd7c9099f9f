//! Heap allocations on the coherence-miss path.
//!
//! A priced access should cost model work only: no per-access heap
//! traffic for counter bookkeeping, broadcast holder lists, SCI
//! sharing lists or directory entries. These tests count the
//! allocator calls of warm steps, once the first step has laid down
//! the per-line state: the kernel-stream read-modify-write sweep —
//! element `i` of step `s` is read and then written by CPU
//! `(i + s) % n` — under every protocol on a small and a large
//! machine, and a PPM step (§5.4) on the paper's 16-CPU machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

use ppm::{PpmProblem, SharedPpm};
use spp_core::{CpuId, Machine, MemClass, ProtocolKind};
use spp_runtime::{Placement, Runtime, Team};

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

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The coherence checker audits every access and allocates as it
/// goes; these tests measure the model alone, so they run without it
/// even when the suite is run with SPP_CHECK=1. Every test sets the
/// variable through here before it builds a machine, so none reads it
/// while another writes it.
fn checker_off() {
    static OFF: Once = Once::new();
    OFF.call_once(|| std::env::set_var("SPP_CHECK", "0"));
}

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
    checker_off();
    for hypernodes in [2, 32] {
        for protocol in ProtocolKind::ALL {
            let mut m = Machine::spp1000(hypernodes).with_protocol(protocol);
            let cpus = m.config().num_cpus() as u64;
            let base = m.alloc(MemClass::FarShared, ELEMS * 8).base;
            step(&mut m, base, cpus, 0);
            let before = allocs();
            let accesses_before = m.stats.accesses();
            for s in 1..3 {
                step(&mut m, base, cpus, s);
            }
            let allocs = allocs() - before;
            let accesses = m.stats.accesses() - accesses_before;
            let per_access = allocs as f64 / accesses as f64;
            let bound = 0.02;
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

#[test]
fn a_warm_ppm_step_allocates_nothing_per_strip_or_directory_probe() {
    checker_off();
    for protocol in ProtocolKind::ALL {
        let p = PpmProblem::base();
        let mut rt = Runtime::new(Machine::spp1000(2).with_protocol(protocol));
        let team = Team::place(rt.machine.config(), 16, &Placement::Uniform);
        let mut s = SharedPpm::new(&mut rt, p.clone(), &team);
        // The first step touches every line (directory pages are
        // allocated on first touch) and grows every strip buffer.
        s.step(&mut rt, &team);
        let before = allocs();
        let stats_before = rt.machine.stats;
        s.step(&mut rt, &team);
        let allocs = allocs() - before;
        let misses = rt.machine.stats.misses() - stats_before.misses();
        // One strip per row (plus the 3-row margins) in the x sweep and
        // one per column in the y sweep, for every tile.
        let (w, h) = p.tile_shape();
        let strips = (p.num_tiles() * ((h + 6) + w)) as u64;
        let threads = team.cpus().len() as u64;
        println!(
            "warm PPM step under {protocol}: {allocs} allocations over {threads} threads, \
             {strips} strips, {misses} misses"
        );
        assert!(misses > strips, "the step must miss ({misses} misses)");
        // What remains is each thread's strip buffers and sweep
        // workspace, set up once per sweep phase. Lines that capacity
        // misses push out of every cache and back in reuse their
        // snoop-filter holder lists.
        assert!(
            allocs <= 64 * threads,
            "{protocol}: {allocs} allocations in a warm step of {strips} strips and \
             {misses} misses: a strip, a directory probe or a holder list allocates"
        );
    }
}
