//! Bit-identity pins for the PPM physics.
//!
//! The perfbench goldens pin simulated cycles and `MemStats`, which do
//! not depend on the gas state, and the host-vs-tiled comparison runs
//! the same sweep kernel on both sides. These hashes pin the state
//! itself: an FNV-1a fold over the `to_bits()` of every value, so any
//! change to the arithmetic of the sweep or the Riemann solver — even
//! one that moves a single rounding — fails here.

use ppm::host::Grid;
use ppm::{PpmProblem, SharedPpm};
use spp_runtime::{Placement, Runtime, Team};

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn host_grid_state_after_six_base_steps_is_pinned() {
    let p = PpmProblem::base();
    let mut g = Grid::new(&p);
    for _ in 0..6 {
        g.step(p.cfl);
    }
    let h = fnv(g
        .cells
        .iter()
        .flat_map(|c| [c.rho, c.mu, c.mv, c.e])
        .chain([g.dt]));
    assert_eq!(
        h, 0xdaa4_8c81_44f4_3188,
        "host Grid state hash moved: {h:#018x}"
    );
}

/// `SharedPpm::prim` over every zone after three steps of the
/// perfbench-size problem on a team of `threads` CPUs.
fn shared_hash(threads: usize, placement: Placement) -> u64 {
    let p = PpmProblem::table2(60, 240, 2, 8);
    let mut rt = Runtime::spp1000(2);
    let team = Team::place(rt.machine.config(), threads, &placement);
    let mut s = SharedPpm::new(&mut rt, p.clone(), &team);
    s.run(&mut rt, &team, 3);
    fnv((0..p.ny)
        .flat_map(|y| (0..p.nx).map(move |x| (x, y)))
        .flat_map(|(x, y)| {
            let z = s.prim(x, y);
            [z.rho, z.u, z.v, z.p]
        }))
}

#[test]
fn shared_state_after_three_steps_on_8_cpus_is_pinned() {
    let h = shared_hash(8, Placement::HighLocality);
    assert_eq!(
        h, 0xbbda_31ba_a97f_4605,
        "8-CPU SharedPpm state hash moved: {h:#018x}"
    );
}

#[test]
fn shared_state_after_three_steps_on_16_cpus_is_pinned() {
    let h = shared_hash(16, Placement::Uniform);
    assert_eq!(
        h, 0xbbda_31ba_a97f_4605,
        "16-CPU SharedPpm state hash moved: {h:#018x}"
    );
}
