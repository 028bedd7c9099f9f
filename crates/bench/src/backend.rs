//! Port validation — the port-layer counterpart of the figure
//! experiments. Three parts:
//!
//! 1. an application sweep on the cycle-accurate machine, with host
//!    wall-clock per thread count;
//! 2. the batched-run fast path: run calls must reproduce the scalar
//!    loop's cycles and [`MemStats`] bit for bit;
//! 3. the E11 trace cross-validation: record a full application step
//!    through [`TracePort`], replay the trace into a fresh machine,
//!    and assert cycles and [`MemStats`] are bit-identical.

use std::time::Instant;

use crate::{emit, f, Opts, Table};
use pic::{PicProblem, SharedPic};
use spp_core::{Machine, MemPort, MemStats, TracePort};
use spp_runtime::{Placement, Runtime, Team};

/// Regenerate the backend-validation experiment.
pub fn run(o: &Opts) -> String {
    let mut out = String::new();
    let prob = PicProblem::tiny();

    // Part 1: the sweep. A CPU-cache miss is served from local
    // memory, the hypernode's GCB, or across the SCI ring.
    let mut t = Table::new(&["procs", "Mcycles", "hits", "misses", "host ms"]);
    for procs in [1, 2, 4, 8] {
        let t0 = Instant::now();
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), procs, &Placement::HighLocality);
        let mut sim = SharedPic::new(&mut rt, prob.clone(), &team);
        let r = sim.run(&mut rt, &team, o.steps);
        let s = rt.machine.stats;
        t.row(vec![
            procs.to_string(),
            f(r.elapsed as f64 / 1e6, 2),
            s.hits.to_string(),
            (s.local_misses + s.gcb_hits + s.sci_fetches).to_string(),
            f(t0.elapsed().as_secs_f64() * 1e3, 1),
        ]);
    }
    out.push_str(&emit("Backend sweep: PIC 8x8x8", &t.render()));

    // Part 2: the batched-run fast path. The run APIs collapse
    // consecutive same-line accesses into one coherence transaction
    // plus constant-cost hit accounting; cycles and stats must not
    // move while host time drops on streaming traffic.
    {
        // One cold fill, then repeated read sweeps by CPUs on both
        // hypernodes. After the first sweep the lines are shared and
        // every access hits — the streaming case the run APIs target,
        // where batching replaces one priced port call per element by
        // one per 32-byte line.
        const N: u64 = 1 << 16;
        const SWEEPS: usize = 48;
        let stream = |batched: bool| {
            let t0 = Instant::now();
            let mut m = Machine::spp1000(2);
            let r = m.alloc(spp_core::MemClass::FarShared, 8 * N);
            let mut cycles = 0u64;
            if batched {
                cycles += m.write_run(spp_core::CpuId(0), r.addr(0), 8, N as usize);
            } else {
                for i in 0..N {
                    cycles += m.write(spp_core::CpuId(0), r.addr(8 * i));
                }
            }
            for _ in 0..SWEEPS {
                for cpu in [0u16, 8] {
                    if batched {
                        cycles += m.read_run(spp_core::CpuId(cpu), r.addr(0), 8, N as usize);
                    } else {
                        for i in 0..N {
                            cycles += m.read(spp_core::CpuId(cpu), r.addr(8 * i));
                        }
                    }
                }
            }
            (cycles, *m.stats(), t0.elapsed().as_secs_f64())
        };
        // Interleaved best-of-3 trials: host timings on a shared box
        // are noisy, the minimum is the honest cost of each path.
        let (mut bt, mut st) = (f64::INFINITY, f64::INFINITY);
        let (mut bc, mut bs, mut sc, mut ss) = (0, MemStats::default(), 0, MemStats::default());
        for _ in 0..3 {
            let (c, s, t) = stream(true);
            (bc, bs) = (c, s);
            bt = bt.min(t);
            let (c, s, t) = stream(false);
            (sc, ss) = (c, s);
            st = st.min(t);
        }
        assert_eq!(bc, sc, "batched runs must not move the cycle total");
        assert_eq!(bs, ss, "batched runs must not move MemStats");

        // And end-to-end through an application: the runtime batching
        // toggle replays the identical access stream both ways.
        use ppm::{PpmProblem, SharedPpm};
        let app = |batching: bool| {
            let mut rt = Runtime::new(Machine::spp1000(2)).with_batching(batching);
            let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
            let mut sim = SharedPpm::new(&mut rt, PpmProblem::tiny(), &team);
            let r = sim.run(&mut rt, &team, o.steps);
            (r.elapsed, *rt.machine.stats())
        };
        assert_eq!(app(true), app(false), "PPM batched vs scalar");
        out.push_str(&emit(
            "Backend fast path: batched vs scalar access (cycle backend)",
            &format!(
                "one fill plus 48 two-CPU read sweeps over a 64K-element region\n\
                 (best of 3 interleaved trials): scalar {:.1} ms host, batched\n\
                 {:.1} ms host ({:.2}x) — identical {} simulated cycles and\n\
                 bit-identical MemStats either way; PPM end-to-end agrees\n\
                 batched vs scalar.",
                st * 1e3,
                bt * 1e3,
                st / bt.max(1e-9),
                sc,
            ),
        ));
    }

    // Part 3: E11 — trace record then replay, bit-identical.
    let mut rt = Runtime::new(TracePort::new(Machine::spp1000(2)));
    let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
    let mut sim = SharedPic::new(&mut rt, prob.clone(), &team);
    let rep = sim.run(&mut rt, &team, 1);
    let recorded = rt.machine.total_cycles();
    let (machine, trace) = rt.machine.into_parts();
    let mut fresh = Machine::spp1000(2);
    let replayed = trace.replay(&mut fresh);
    assert_eq!(replayed, recorded, "trace replay must reproduce cycles");
    assert_eq!(
        fresh.stats, machine.stats,
        "trace replay must reproduce MemStats bit-identically"
    );
    out.push_str(&emit(
        "Backend validation: trace record/replay (E11)",
        &format!(
            "recorded {} port records ({} bytes) over one 4-thread PIC step\n\
             ({:.2} simulated Mcycles); replay into a fresh machine reproduced\n\
             {} port cycles and all MemStats counters bit-identically.",
            trace.records(),
            trace.len_bytes(),
            rep.elapsed as f64 / 1e6,
            replayed,
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_experiment_passes_at_one_and_five_steps() {
        for steps in [1, 5] {
            let out = run(&Opts {
                steps,
                ..Opts::default()
            });
            assert!(out.contains("Backend sweep: PIC 8x8x8"));
            assert!(out.contains("bit-identically"));
        }
    }
}
