//! Bit-reproducibility across the full stack: every experiment must
//! produce identical results on repeated runs (the property the whole
//! harness depends on).

use spp1000::prelude::*;

#[test]
fn machine_accounting_is_deterministic() {
    let run = || {
        let mut m = Machine::spp1000(2);
        let r = m.alloc(MemClass::FarShared, 1 << 16);
        let mut total = 0u64;
        for i in 0..2048u64 {
            total += m.read(CpuId((i % 16) as u16), r.addr((i * 37) % (1 << 16)));
            if i % 3 == 0 {
                total += m.write(CpuId(((i + 5) % 16) as u16), r.addr((i * 53) % (1 << 16)));
            }
        }
        (total, m.stats)
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}

#[test]
fn fork_join_timing_is_deterministic() {
    let run = || {
        let mut rt = Runtime::spp1000(2);
        (0..4)
            .map(|_| {
                rt.fork_join(16, &Placement::Uniform, |ctx| ctx.flops(100))
                    .elapsed
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn pic_run_is_bit_reproducible() {
    let run = || {
        let p = pic::PicProblem::tiny();
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut s = pic::SharedPic::new(&mut rt, p, &team);
        let r = s.run(&mut rt, &team, 2);
        (r.elapsed, r.flops, s.field_energy().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn nbody_run_is_bit_reproducible() {
    let run = || {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
        let mut s = nbody::SharedNbody::new(&mut rt, nbody::NbodyProblem::with_n(1024), &team);
        let (c, f, i) = s.step(&mut rt, &team);
        let b = s.bodies();
        (c, f, i, b.x[17].to_bits(), b.vz[900].to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn fem_and_ppm_runs_are_bit_reproducible() {
    let fem_run = || {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut s = fem::SharedFem::new(&mut rt, fem::Mesh::tiny(), fem::Coding::Gather, &team);
        let (c, p) = s.step(&mut rt, &team, 0.3);
        (c, p, s.state().e[33].to_bits())
    };
    assert_eq!(fem_run(), fem_run());

    let ppm_run = || {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut s = ppm::SharedPpm::new(&mut rt, ppm::PpmProblem::tiny(), &team);
        let (c, f) = s.step(&mut rt, &team);
        (c, f, s.prim(10, 20).rho.to_bits())
    };
    assert_eq!(ppm_run(), ppm_run());
}

#[test]
fn pvm_sessions_are_deterministic() {
    let run = || {
        let cpus: Vec<CpuId> = (0..4u16).map(CpuId).collect();
        let mut pvm = Pvm::spp1000(2, &cpus);
        let mut s = nbody::pvm::PvmNbody::new(&mut pvm, nbody::NbodyProblem::with_n(512));
        let r = s.run(&mut pvm, 2);
        (r.elapsed, r.flops, s.kinetic_energy().to_bits())
    };
    assert_eq!(run(), run());
}

/// A trace recorded under an active fault plan — transient ring
/// stalls plus hard CPU/link/GCB failures firing mid-stream — replays
/// bit-identically (cycles, MemStats, and degraded-mode state) into a
/// fresh machine carrying the same plan.
#[test]
fn trace_replay_is_bit_identical_under_an_active_fault_plan() {
    let plan = || {
        FaultPlan::new(99)
            .with_ring_stalls(0.2, 400)
            .with_cpu_failure(3, 20_000)
            .with_link_failure(0, 40_000, 700)
            .with_gcb_degrade(1, 60_000)
    };
    let mut p = TracePort::new(Machine::spp1000(2).with_faults(plan()));
    let r = p.alloc(MemClass::FarShared, 1 << 16);
    for i in 0..1024u64 {
        p.read(CpuId((i % 16) as u16), r.addr((i * 37) % (1 << 16)));
        if i % 3 == 0 {
            p.write(CpuId(((i + 5) % 16) as u16), r.addr((i * 53) % (1 << 16)));
        }
        if i % 7 == 0 {
            p.uncached_op(CpuId((i % 16) as u16), r.addr((i * 11) % (1 << 16)));
        }
    }
    // Runs from a dead CPU take the scalar fallback; runs from a live
    // one take the batched fast path — both must replay exactly.
    p.read_run(CpuId(3), r.addr(0), 8, 2048);
    p.write_run(CpuId(9), r.addr(8192), 8, 1024);
    let recorded = p.total_cycles();
    let (m, trace) = p.into_parts();
    assert!(m.is_cpu_dead(CpuId(3)), "cpu hard fault must have fired");
    assert_ne!(m.failed_rings(), 0, "link hard fault must have fired");
    assert_ne!(m.degraded_nodes(), 0, "gcb hard fault must have fired");
    assert!(m.stats.ring_stalls > 0, "transient stalls must have fired");

    let mut fresh = Machine::spp1000(2).with_faults(plan());
    let replayed = trace.replay(&mut fresh);
    assert_eq!(replayed, recorded, "replayed cycles diverged");
    assert_eq!(fresh.stats, m.stats, "replayed MemStats diverged");
    assert_eq!(fresh.dead_cpu_list(), m.dead_cpu_list());
    assert_eq!(fresh.failed_rings(), m.failed_rings());
    assert_eq!(fresh.degraded_nodes(), m.degraded_nodes());
}

/// The full coherence state (`Machine::coherence_digest`) after one
/// step of PPM and of FEM on the paper's 16-CPU machine, pinned: the
/// directory, cache and SCI storage may change form, never content.
#[test]
fn coherence_digest_after_one_ppm_and_one_fem_step_is_pinned() {
    let mut rt = Runtime::spp1000(2);
    let team = Team::place(rt.machine.config(), 16, &Placement::Uniform);
    let mut s = ppm::SharedPpm::new(&mut rt, ppm::PpmProblem::table2(60, 240, 2, 8), &team);
    s.step(&mut rt, &team);
    let d = rt.machine.coherence_digest();
    assert_eq!(
        d, 0x3f8b_38d4_d87c_9565,
        "PPM coherence digest moved: {d:#018x}"
    );

    let mut rt = Runtime::spp1000(2);
    let team = Team::place(rt.machine.config(), 16, &Placement::Uniform);
    let mut s = fem::SharedFem::new(
        &mut rt,
        fem::structured(64, 48),
        fem::Coding::ScatterAdd,
        &team,
    );
    s.step(&mut rt, &team, 0.3);
    let d = rt.machine.coherence_digest();
    assert_eq!(
        d, 0x8e8e_f9a4_ed5b_c85e,
        "FEM coherence digest moved: {d:#018x}"
    );
}
