//! Cross-implementation validation through the `spp1000` facade:
//! every execution style of every application must agree on the
//! physics, whatever it costs on the simulated machine.

use spp1000::prelude::*;

/// PIC: host reference, shared-memory (1 and 8 threads, on the
/// machine and through the recording port) and replicated-grid PVM
/// all produce the same field energy.
#[test]
fn pic_all_implementations_agree() {
    use spp1000::pic::{host, load_particles, PicProblem, SharedPic};
    let p = PicProblem::tiny();
    let steps = 2;

    // Host reference.
    let mut parts = load_particles(&p);
    let mut fields = host::Fields::new(&p);
    for _ in 0..steps {
        host::step(&p, &mut parts, &mut fields);
    }
    let reference = fields.field_energy();

    // Shared memory at two team sizes.
    fn shared<P: MemPort>(mut rt: Runtime<P>, p: &PicProblem, threads: usize, steps: usize) -> f64 {
        let team = Team::place(rt.machine.config(), threads, &Placement::HighLocality);
        let mut sim = SharedPic::new(&mut rt, p.clone(), &team);
        for _ in 0..steps {
            sim.step(&mut rt, &team);
        }
        sim.field_energy()
    }
    let mut energy = 0.0;
    for threads in [1usize, 8] {
        energy = shared(Runtime::spp1000(2), &p, threads, steps);
        let rel = (energy - reference).abs() / reference;
        assert!(rel < 1e-6, "shared({threads}) field energy off by {rel}");
    }
    // The physics does not depend on the port: recording through
    // `TracePort` gives the same field, bit for bit.
    let traced = shared(
        Runtime::new(TracePort::new(Machine::spp1000(2))),
        &p,
        8,
        steps,
    );
    assert_eq!(traced.to_bits(), energy.to_bits(), "traced field energy");

    // PVM.
    let cpus: Vec<CpuId> = (0..4u16).map(CpuId).collect();
    let mut pvm = Pvm::spp1000(2, &cpus);
    let mut sim = spp1000::pic::pvm::PvmPic::new(&mut pvm, p.clone());
    for _ in 0..steps {
        sim.step(&mut pvm);
    }
    // Compare kinetic energy (the PVM version exposes KE).
    let ke_ref = parts.kinetic_energy();
    let rel = (sim.kinetic_energy() - ke_ref).abs() / ke_ref;
    assert!(rel < 1e-9, "pvm kinetic energy off by {rel}");
}

/// PIC: the slab-decomposed PVM variant also matches.
#[test]
fn pic_slab_pvm_matches_host() {
    use spp1000::pic::{host, load_particles, pvm_slab::SlabPvmPic, PicProblem};
    let p = PicProblem::tiny();
    let cpus: Vec<CpuId> = (0..4u16).map(CpuId).collect();
    let mut pvm = Pvm::spp1000(2, &cpus);
    let mut sim = SlabPvmPic::new(&mut pvm, p.clone());
    let mut parts = load_particles(&p);
    let mut fields = host::Fields::new(&p);
    for _ in 0..2 {
        sim.step(&mut pvm);
        host::step(&p, &mut parts, &mut fields);
    }
    assert_eq!(sim.num_particles(), parts.len());
}

/// N-body: shared memory (different placements) and PVM agree with
/// the host integrator.
#[test]
fn nbody_all_implementations_agree() {
    use spp1000::nbody::{host, plummer, problem::sort_by_morton, NbodyProblem, SharedNbody};
    let p = NbodyProblem::with_n(512);
    let mut b = sort_by_morton(&plummer(&p));
    host::step(&p, &mut b);
    let ke_ref = b.kinetic_energy();

    for placement in [Placement::HighLocality, Placement::Uniform] {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 6, &placement);
        let mut sim = SharedNbody::new(&mut rt, p.clone(), &team);
        sim.step(&mut rt, &team);
        let ke = sim.bodies().kinetic_energy();
        let rel = (ke - ke_ref).abs() / ke_ref;
        assert!(rel < 1e-9, "shared {placement:?} KE off by {rel}");
    }

    let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
    let mut pvm = Pvm::spp1000(2, &cpus);
    let mut sim = spp1000::nbody::pvm::PvmNbody::new(&mut pvm, p.clone());
    sim.step(&mut pvm);
    let rel = (sim.kinetic_energy() - ke_ref).abs() / ke_ref;
    assert!(rel < 1e-9, "pvm KE off by {rel}");
}

/// FEM: both codings, any team size, match the host scheme.
#[test]
fn fem_all_codings_agree() {
    use spp1000::fem::{host, Coding, Mesh, SharedFem};
    let mesh = Mesh::tiny();
    let mut s = host::State::pulse(&mesh);
    for _ in 0..2 {
        let dt = host::timestep(&s, 0.3);
        host::step(&mesh, &mut s, dt);
    }
    let e_ref = s.total_energy(&mesh);

    for coding in [Coding::ScatterAdd, Coding::Gather] {
        for threads in [1usize, 7] {
            let mut rt = Runtime::spp1000(2);
            let team = Team::place(rt.machine.config(), threads, &Placement::HighLocality);
            let mut sim = SharedFem::new(&mut rt, Mesh::tiny(), coding, &team);
            for _ in 0..2 {
                sim.step(&mut rt, &team, 0.3);
            }
            let e = sim.state().total_energy(&mesh);
            let rel = (e - e_ref).abs() / e_ref.abs();
            assert!(rel < 1e-9, "{coding:?}/{threads}: energy off by {rel}");
        }
    }
}

/// PPM: the tiled machine version matches the host grid for several
/// tilings.
#[test]
fn ppm_tilings_agree() {
    use spp1000::ppm::{host::Grid, PpmProblem, SharedPpm};
    let base = PpmProblem::tiny();
    let mut g = Grid::new(&base);
    for _ in 0..3 {
        g.step(base.cfl);
    }
    let m_ref = g.total_mass();
    let p_probe = g.prim(10, 20).p;

    for (tx, ty) in [(2usize, 4usize), (4, 8), (1, 1)] {
        let prob = PpmProblem::table2(base.nx, base.ny, tx, ty);
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut sim = SharedPpm::new(&mut rt, prob, &team);
        for _ in 0..3 {
            sim.step(&mut rt, &team);
        }
        let rel_m = (sim.total_mass() - m_ref).abs() / m_ref;
        assert!(rel_m < 1e-11, "{tx}x{ty}: mass off by {rel_m}");
        let rel_p = (sim.prim(10, 20).p - p_probe).abs() / p_probe;
        assert!(rel_p < 1e-9, "{tx}x{ty}: pressure off by {rel_p}");
    }
}

/// The tentpole invariant of the port layer: batched run accesses
/// (`read_run`/`write_run`/`fill_run`) must be *bit-identical* in
/// cycles and every `MemStats` counter to elementwise access, on the
/// cycle-accurate backend. Checked end-to-end on a figure benchmark
/// workload (Figure 6's PIC, which batches its field loops) and two
/// application kernels (PPM's 1-D sweep strips, FEM's point update),
/// by running the same simulation with the runtime's batching toggle
/// on and off.
#[test]
fn batched_runs_bit_identical_to_scalar_on_cycle_backend() {
    use spp1000::fem::{structured, Coding, SharedFem};
    use spp1000::pic::{PicProblem, SharedPic};
    use spp1000::ppm::{PpmProblem, SharedPpm};

    fn pic_fig6(batching: bool) -> (Cycles, MemStats) {
        let mut rt = Runtime::spp1000(2).with_batching(batching);
        let team = Team::place(rt.machine.config(), 8, &Placement::HighLocality);
        let mut sim = SharedPic::new(&mut rt, PicProblem::tiny(), &team);
        let r = sim.run(&mut rt, &team, 2);
        (r.elapsed, rt.machine.stats)
    }
    fn ppm_sweep(batching: bool) -> (Cycles, MemStats) {
        let mut rt = Runtime::spp1000(2).with_batching(batching);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut sim = SharedPpm::new(&mut rt, PpmProblem::tiny(), &team);
        let r = sim.run(&mut rt, &team, 2);
        (r.elapsed, rt.machine.stats)
    }
    fn fem_update(batching: bool) -> (Cycles, MemStats) {
        let mut rt = Runtime::spp1000(2).with_batching(batching);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut sim = SharedFem::new(&mut rt, structured(24, 24), Coding::ScatterAdd, &team);
        let r = sim.run(&mut rt, &team, 0.3, 2);
        (r.elapsed, rt.machine.stats)
    }

    for (name, f) in [
        ("pic/fig6", pic_fig6 as fn(bool) -> (Cycles, MemStats)),
        ("ppm/sweep", ppm_sweep),
        ("fem/update", fem_update),
    ] {
        let (batched_cycles, batched_stats) = f(true);
        let (scalar_cycles, scalar_stats) = f(false);
        assert_eq!(batched_cycles, scalar_cycles, "{name}: cycle totals moved");
        assert_eq!(batched_stats, scalar_stats, "{name}: MemStats moved");
        assert!(batched_cycles > 0, "{name}: nothing simulated");
    }
}

/// E11: recording a run through `TracePort` and replaying the trace
/// into a fresh machine reproduces the port cycle total and every
/// `MemStats` counter bit-identically — for a figure benchmark
/// workload (Figure 2's fork-join over shared arrays) and an
/// application kernel (FEM).
#[test]
fn trace_replay_bit_identical_for_figure_and_app_workloads() {
    use spp1000::fem::{structured, Coding, SharedFem};

    // Figure-2-style fork-join workload: spawn costs, barrier
    // traffic, and a strided shared-array sweep all flow through the
    // recording port.
    {
        let mut rt = Runtime::new(TracePort::new(Machine::spp1000(2)));
        let mut arr = SimArray::from_elem(&mut rt.machine, MemClass::FarShared, 4096, 1.0f64);
        for threads in [1usize, 8, 16] {
            rt.fork_join(threads, &Placement::Uniform, |ctx| {
                let r = ctx.chunk(4096);
                for i in r.clone() {
                    let v = ctx.read(&arr, i);
                    ctx.write(&mut arr, i, v + 1.0);
                }
                ctx.flops(r.len() as u64);
            });
        }
        let recorded = rt.machine.total_cycles();
        let (machine, trace) = rt.machine.into_parts();
        assert!(trace.records() > 0);
        let mut fresh = Machine::spp1000(2);
        assert_eq!(trace.replay(&mut fresh), recorded, "fig2 replay cycles");
        assert_eq!(fresh.stats, machine.stats, "fig2 replay stats");
    }

    // Application kernel: one FEM step, batched runs included.
    {
        let mut rt = Runtime::new(TracePort::new(Machine::spp1000(2)));
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut sim = SharedFem::new(&mut rt, structured(16, 16), Coding::ScatterAdd, &team);
        sim.step(&mut rt, &team, 0.3);
        let recorded = rt.machine.total_cycles();
        let (machine, trace) = rt.machine.into_parts();
        let mut fresh = Machine::spp1000(2);
        assert_eq!(trace.replay(&mut fresh), recorded, "fem replay cycles");
        assert_eq!(fresh.stats, machine.stats, "fem replay stats");
    }
}
