//! Workload runners: turn a [`WorkloadSpec`] into an assembled
//! simulation and run it to completion.
//!
//! Every runner is a pure function of its spec (plus an optional
//! checkpoint to resume from), returning the final simulated cycles
//! and memory-system counters — the quantities the golden gate
//! compares bit-exactly. Runners poll the supervisor's
//! [`CancelToken`] between steps so a timed-out cell winds down
//! instead of leaking a busy thread.

use crate::spec::{BuiltinOp, PlacementPolicy, SchedulePolicySpec, WorkloadApp, WorkloadSpec};
use fem::{Coding, SharedFem};
use nbody::{NbodyProblem, SharedNbody};
use pic::pvm::PvmPic;
use pic::{PicProblem, SharedPic};
use ppm::{PpmProblem, SharedPpm};
use spp_core::json::Json;
use spp_core::{
    CancelToken, CpuId, FaultPlan, Machine, MachineConfig, MemClass, MemStats, RingSink, SimError,
    Snapshot,
};
use spp_pvm::Pvm;
use spp_runtime::{Placement, Runtime, SchedulePolicy, Team};
use std::path::{Path, PathBuf};

/// The deterministic observables of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadOutcome {
    /// Elapsed simulated cycles over the measured steps.
    pub cycles: u64,
    /// Final memory-system counters of the simulated machine.
    pub stats: MemStats,
    /// Steps actually executed in this process (fewer than
    /// `spec.steps` after a resume).
    pub steps_run: usize,
    /// Step index this run resumed from, if it restored a checkpoint.
    pub resumed_from: Option<usize>,
    /// Checkpoints written during this run.
    pub checkpoints_written: usize,
    /// Checkpoint rollbacks performed in-run after a transient
    /// coherence fault exhausted its scrub budget.
    pub rollbacks: u32,
}

impl WorkloadOutcome {
    /// `doc` with the outcome's replay-stable observables appended:
    /// simulated cycles and the headline memory-system counters, the
    /// fields every report and result line carries.
    pub fn with_observables(&self, doc: Json) -> Json {
        doc.with("cycles", self.cycles)
            .with("reads", self.stats.reads)
            .with("writes", self.stats.writes)
            .with("hits", self.stats.hits)
            .with("sci_fetches", self.stats.sci_fetches)
            .with("ring_stalls", self.stats.ring_stalls)
            .with("uncached_ops", self.stats.uncached_ops)
    }
}

/// The checkpoint pair for a scenario: the SPPSNAP1 machine image and
/// a tiny sidecar carrying the host-side loop state (step counter and
/// accumulated cycles), which the machine snapshot intentionally does
/// not cover.
///
/// The sidecar's third field is the workload array's **region base
/// address**: restoring a snapshot replays the machine's allocation
/// sequence, so the region already exists in the restored machine and
/// must *not* be allocated a second time — the resume path reads the
/// base from the sidecar instead of calling `alloc` again. The fourth
/// field is the machine clock at capture time, which lets resume
/// detect a snapshot/sidecar pair torn apart by a `kill -9` between
/// the two (individually atomic) writes. A sidecar without its
/// snapshot (or vice versa) is treated as no checkpoint at all;
/// always gate resume on [`CheckpointPaths::exists`]. Any unusable
/// pair is discarded and the run restarts from scratch — the final
/// result is byte-identical either way.
#[derive(Debug, Clone)]
pub struct CheckpointPaths {
    /// SPPSNAP1 snapshot file.
    pub snap: PathBuf,
    /// Sidecar (`<step> <cycles> <region base> <machine clock>` as text).
    pub side: PathBuf,
}

impl CheckpointPaths {
    /// The conventional pair under `dir` for scenario `name`.
    pub fn new(dir: &Path, name: &str) -> Self {
        CheckpointPaths {
            snap: dir.join(format!("{name}.snap")),
            side: dir.join(format!("{name}.step")),
        }
    }

    /// True when both halves exist.
    #[must_use]
    pub fn exists(&self) -> bool {
        self.snap.is_file() && self.side.is_file()
    }

    /// Remove both halves (ignoring missing files).
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.snap);
        let _ = std::fs::remove_file(&self.side);
    }
}

fn placement(p: PlacementPolicy) -> Placement {
    match p {
        PlacementPolicy::Uniform => Placement::Uniform,
        PlacementPolicy::HighLocality => Placement::HighLocality,
    }
}

fn schedule(s: SchedulePolicySpec) -> SchedulePolicy {
    match s {
        SchedulePolicySpec::Identity => SchedulePolicy::Identity,
        SchedulePolicySpec::Reversed => SchedulePolicy::Reversed,
        SchedulePolicySpec::Shuffled { seed } => SchedulePolicy::Shuffled { seed },
    }
}

fn build_machine(spec: &WorkloadSpec) -> Machine {
    let mut m = Machine::spp1000(spec.hypernodes).with_protocol(spec.protocol);
    if !spec.faults.is_empty() {
        m = m.with_faults(FaultPlan::from_events(spec.fault_seed, &spec.faults));
    }
    if spec.trace {
        m = m.with_trace_sink(Box::new(RingSink::new(spec.trace_capacity)));
    }
    if spec.insight {
        m = m.with_heatmap();
    }
    m
}

/// Enforce the attribution partition invariant at workload end: when
/// `[insight]` mounted a heatmap, its cycles and counters must sum
/// bit-exactly to the machine's. A violation is a cell failure, not a
/// silent report artifact.
fn check_insight(spec: &WorkloadSpec, m: &Machine) -> Result<(), String> {
    if spec.insight && !m.heat_partition_check() {
        return Err(
            "heat_partition_check failed: attributed cycles/counters do not sum \
                    to the machine totals"
                .to_string(),
        );
    }
    Ok(())
}

fn cancelled<T>() -> Result<T, String> {
    Err("cancelled by supervisor".to_string())
}

/// Run a workload spec to completion.
///
/// `ckpt` enables checkpoint/resume for the kernel-stream workload:
/// when the pair exists the run resumes from it, and when
/// `spec.checkpoint_every > 0` the run rewrites it every N steps.
/// Other workloads ignore `ckpt` (spec validation already rejects
/// `checkpoint_every` on them).
pub fn run_workload(
    spec: &WorkloadSpec,
    cancel: &CancelToken,
    ckpt: Option<&CheckpointPaths>,
) -> Result<WorkloadOutcome, String> {
    match spec.app {
        WorkloadApp::KernelStream { elems } => kernel_stream(spec, elems, cancel, ckpt),
        WorkloadApp::PicPvm { mesh } => pic_pvm(spec, mesh, cancel),
        _ => shared_app(spec, cancel),
    }
}

/// Run a builtin cell. `panic` panics (by design — the supervisor
/// must contain it), `hang` sleeps until cancelled, `noop` returns.
pub fn run_builtin(op: &BuiltinOp, cancel: &CancelToken) -> Result<(), String> {
    match op {
        BuiltinOp::Panic { message } => panic!("{message}"),
        BuiltinOp::Hang => {
            while !cancel.is_cancelled() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            cancelled()
        }
        BuiltinOp::Noop => Ok(()),
    }
}

/// One of the four shared-memory applications, set up on a runtime by
/// [`run_shared_app`] and handed back with the run for inspection.
/// Boxed: the application structs differ in size by a kilobyte.
pub enum SharedApp {
    /// Particle-in-cell.
    Pic(Box<SharedPic>),
    /// N-body tree code.
    Nbody(Box<SharedNbody>),
    /// Finite elements, scatter-add coding.
    Fem(Box<SharedFem>),
    /// PPM gas dynamics (the tiny problem).
    Ppm(Box<SharedPpm>),
}

/// Totals over the measured steps of a [`run_shared_app`] run. A
/// counter an application does not keep stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Elapsed simulated cycles.
    pub cycles: u64,
    /// Flops (PIC, N-body, PPM).
    pub flops: u64,
    /// Body-node interactions (N-body).
    pub interactions: u64,
    /// Point updates (FEM).
    pub point_updates: u64,
}

impl SharedApp {
    fn new(rt: &mut Runtime, app: WorkloadApp, team: &Team) -> Result<Self, String> {
        Ok(match app {
            WorkloadApp::Pic { mesh } => SharedApp::Pic(Box::new(SharedPic::new(
                rt,
                PicProblem::with_mesh(mesh.0, mesh.1, mesh.2),
                team,
            ))),
            WorkloadApp::Nbody { bodies } => SharedApp::Nbody(Box::new(SharedNbody::new(
                rt,
                NbodyProblem::with_n(bodies),
                team,
            ))),
            WorkloadApp::Fem { nx, ny } => SharedApp::Fem(Box::new(SharedFem::new(
                rt,
                fem::structured(nx, ny),
                Coding::ScatterAdd,
                team,
            ))),
            WorkloadApp::Ppm => {
                SharedApp::Ppm(Box::new(SharedPpm::new(rt, PpmProblem::tiny(), team)))
            }
            WorkloadApp::PicPvm { .. } | WorkloadApp::KernelStream { .. } => {
                return Err(format!(
                    "{} is not a shared-memory application",
                    app.label()
                ))
            }
        })
    }

    fn step(&mut self, rt: &mut Runtime, team: &Team, fem_cfl: f64) -> StepTotals {
        let mut t = StepTotals::default();
        match self {
            SharedApp::Pic(sim) => {
                let r = sim.step(rt, team);
                (t.cycles, t.flops) = (r.elapsed, r.flops);
            }
            SharedApp::Nbody(sim) => (t.cycles, t.flops, t.interactions) = sim.step(rt, team),
            SharedApp::Fem(sim) => (t.cycles, t.point_updates) = sim.step(rt, team, fem_cfl),
            SharedApp::Ppm(sim) => (t.cycles, t.flops) = sim.step(rt, team),
        }
        t
    }
}

/// A finished [`run_shared_app`] run.
pub struct SharedRun {
    /// The runtime, machine included, after the last step.
    pub rt: Runtime,
    /// The application after the last step.
    pub app: SharedApp,
    /// Totals over the measured steps (the warm-up step excluded).
    pub totals: StepTotals,
}

/// The one runner of the four shared-memory applications: set `app`
/// up on the caller's runtime and team, run one untimed warm-up step,
/// then `steps` measured steps, and hand the runtime and application
/// back. FEM steps at `fem_cfl`. Before each measured step the runner
/// publishes the machine clock to `cancel` and returns an error if
/// the run was cancelled; a PVM or kernel-stream `app` is an error.
///
/// Spec cells ([`run_workload`]) and the `spp-bench` campaigns all
/// run through here, so a campaign cell and the matching spec cell
/// are the same run.
pub fn run_shared_app(
    app: WorkloadApp,
    mut rt: Runtime,
    team: &Team,
    steps: usize,
    fem_cfl: f64,
    cancel: &CancelToken,
) -> Result<SharedRun, String> {
    let mut sim = SharedApp::new(&mut rt, app, team)?;
    sim.step(&mut rt, team, fem_cfl); // warm-up
    let mut totals = StepTotals::default();
    for _ in 0..steps {
        cancel.note_progress(rt.machine.clock());
        if cancel.is_cancelled() {
            return cancelled();
        }
        let t = sim.step(&mut rt, team, fem_cfl);
        totals.cycles += t.cycles;
        totals.flops += t.flops;
        totals.interactions += t.interactions;
        totals.point_updates += t.point_updates;
    }
    Ok(SharedRun {
        rt,
        app: sim,
        totals,
    })
}

/// The CFL number spec cells step FEM at.
const SPEC_FEM_CFL: f64 = 0.2;

fn shared_app(spec: &WorkloadSpec, cancel: &CancelToken) -> Result<WorkloadOutcome, String> {
    let rt = Runtime::new(build_machine(spec)).with_schedule(schedule(spec.schedule));
    let team = Team::try_place(
        rt.machine.config(),
        spec.threads,
        &placement(spec.placement),
    )
    .map_err(|e| e.to_string())?;
    let run = run_shared_app(spec.app, rt, &team, spec.steps, SPEC_FEM_CFL, cancel)?;
    let m = &run.rt.machine;
    cancel.note_progress(m.clock());
    check_insight(spec, m)?;
    Ok(WorkloadOutcome {
        cycles: run.totals.cycles,
        stats: m.stats,
        steps_run: spec.steps,
        resumed_from: None,
        checkpoints_written: 0,
        rollbacks: 0,
    })
}

fn pic_pvm(
    spec: &WorkloadSpec,
    mesh: (usize, usize, usize),
    cancel: &CancelToken,
) -> Result<WorkloadOutcome, String> {
    let machine = build_machine(spec);
    let team = Team::try_place(machine.config(), spec.threads, &placement(spec.placement))
        .map_err(|e| e.to_string())?;
    let cpus: Vec<CpuId> = team.cpus().to_vec();
    let mut pvm = Pvm::new(machine, &cpus);
    let mut app = PvmPic::new(&mut pvm, PicProblem::with_mesh(mesh.0, mesh.1, mesh.2));
    app.step(&mut pvm); // warm-up
    let mut cycles = 0;
    for _ in 0..spec.steps {
        cancel.note_progress(pvm.machine.clock());
        if cancel.is_cancelled() {
            return cancelled();
        }
        cycles += app.step(&mut pvm).0;
    }
    cancel.note_progress(pvm.machine.clock());
    check_insight(spec, &pvm.machine)?;
    Ok(WorkloadOutcome {
        cycles,
        stats: pvm.machine.stats,
        steps_run: spec.steps,
        resumed_from: None,
        checkpoints_written: 0,
        rollbacks: 0,
    })
}

/// The kernel-stream workload: a seeded strided read-modify-write
/// sweep over a far-shared array, round-robined across the team's
/// CPUs. Its entire state is (machine, step counter, cycle
/// accumulator), so an SPPSNAP1 checkpoint plus the tiny sidecar is a
/// complete resume point and resumed runs are bit-identical to
/// uninterrupted ones (asserted in `tests/supervision.rs`).
fn kernel_stream(
    spec: &WorkloadSpec,
    elems: usize,
    cancel: &CancelToken,
    ckpt: Option<&CheckpointPaths>,
) -> Result<WorkloadOutcome, String> {
    let cfg = MachineConfig::spp1000(spec.hypernodes);
    let team = Team::try_place(&cfg, spec.threads, &placement(spec.placement))
        .map_err(|e| e.to_string())?;
    let plan =
        (!spec.faults.is_empty()).then(|| FaultPlan::from_events(spec.fault_seed, &spec.faults));

    let mut start_step = 0usize;
    let mut cycles: u64 = 0;
    let mut resumed_from = None;
    let mut machine;
    let base;
    // Try to resume. A checkpoint that cannot be used — torn by a
    // kill mid-write (impossible now that both halves are written
    // atomically, but older files may predate that), or a snapshot
    // and sidecar from *different* checkpoints because the kill
    // landed between the two renames — is discarded and the run
    // starts from scratch: the result is byte-identical either way,
    // resuming is only a time saver.
    let try_resume = |c: &CheckpointPaths| -> Result<(Machine, usize, u64, u64), String> {
        let snap = Snapshot::load(&c.snap).map_err(|e| e.to_string())?;
        // Restore replays the allocation sequence, so the region
        // already exists in the restored machine; its base comes
        // from the sidecar rather than a second alloc.
        let machine = snap
            .restore_expecting(cfg.clone(), plan.clone(), spec.protocol)
            .map_err(|e| e.to_string())?;
        let side = std::fs::read_to_string(&c.side)
            .map_err(|e| format!("checkpoint sidecar {}: {e}", c.side.display()))?;
        let mut it = side.split_whitespace();
        let mut parse = || {
            it.next()
                .and_then(|x| x.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed checkpoint sidecar {}", c.side.display()))
        };
        let step = parse()? as usize;
        let cycles = parse()?;
        let base = parse()?;
        let clock = parse()?;
        if machine.clock() != clock {
            return Err(format!(
                "sidecar clock {clock} does not match snapshot clock {} \
                 (snapshot and sidecar are from different checkpoints)",
                machine.clock()
            ));
        }
        Ok((machine, step, cycles, base))
    };
    let resumed = ckpt
        .filter(|c| c.exists())
        .and_then(|c| match try_resume(c) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!(
                    "[spp-scenario] discarding unusable checkpoint {}: {e}",
                    c.snap.display()
                );
                None
            }
        });
    match resumed {
        Some((m, step, cyc, b)) => {
            machine = m;
            start_step = step;
            cycles = cyc;
            base = b;
            resumed_from = Some(start_step);
        }
        None => {
            machine = build_machine(spec);
            base = machine.alloc(MemClass::FarShared, (elems * 8) as u64).base;
        }
    }

    let cpus = team.cpus();
    let mut checkpoints_written = 0;
    // In-memory rollback point for transient-fault escalations: the
    // latest checkpoint snapshot plus the host-side loop state it
    // corresponds to. Seeded from the start of the run so the first
    // checkpoint interval is covered too.
    let mut rollback_point =
        (spec.rollbacks > 0).then(|| (Snapshot::capture(&machine), start_step, cycles));
    let mut rollbacks: u32 = 0;
    let mut step = start_step;
    'steps: while step < spec.steps {
        cancel.note_progress(machine.clock());
        if cancel.is_cancelled() {
            return cancelled();
        }
        // A deterministic strided sweep: each element is read and
        // rewritten by a CPU chosen by (step, index), so lines
        // migrate between caches and the coherence machinery earns
        // its keep.
        for i in 0..elems {
            let cpu = cpus[(i + step) % cpus.len()];
            let addr = base + (i as u64) * 8;
            let access = machine
                .try_read(cpu, addr)
                .and_then(|r| machine.try_write(cpu, addr).map(|w| r + w));
            match access {
                Ok(c) => cycles += c,
                Err(e @ SimError::RecoveryExhausted { .. }) => {
                    // Detect-and-retry inside the machine gave up on
                    // this line; escalate to checkpoint rollback.
                    let Some((snap, rb_step, rb_cycles)) = &rollback_point else {
                        return Err(format!("{e} (no [recovery] rollback budget)"));
                    };
                    if rollbacks >= spec.rollbacks {
                        return Err(format!(
                            "{e} (rollback budget of {} exhausted)",
                            spec.rollbacks
                        ));
                    }
                    rollbacks += 1;
                    // Replaying the same draw positions would re-fire
                    // the exact same escalation: advance the restored
                    // plan's per-site counters past every decision
                    // the failed attempt consumed.
                    let floor = machine
                        .fault_plan()
                        .expect("escalation implies a fault plan")
                        .draws();
                    machine = snap
                        .restore_expecting(cfg.clone(), plan.clone(), spec.protocol)
                        .map_err(|e| format!("rollback restore: {e}"))?;
                    machine
                        .faults_mut()
                        .expect("restored machine keeps its plan")
                        .advance_draws(floor);
                    cycles = *rb_cycles;
                    step = *rb_step;
                    continue 'steps;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        step += 1;
        if spec.checkpoint_every > 0 && step.is_multiple_of(spec.checkpoint_every) {
            if let Some(rb) = rollback_point.as_mut() {
                *rb = (Snapshot::capture(&machine), step, cycles);
            }
            if let Some(c) = ckpt {
                Snapshot::capture(&machine)
                    .save(&c.snap)
                    .map_err(|e| format!("checkpoint {}: {e}", c.snap.display()))?;
                // The fourth field ties the sidecar to its snapshot:
                // resume rejects a pair whose clocks disagree (a kill
                // can land between the two atomic renames).
                spp_core::atomic_write_str(
                    &c.side,
                    &format!("{} {} {} {}\n", step, cycles, base, machine.clock()),
                )
                .map_err(|e| format!("checkpoint sidecar {}: {e}", c.side.display()))?;
                checkpoints_written += 1;
            }
        }
    }

    cancel.note_progress(machine.clock());
    check_insight(spec, &machine)?;
    Ok(WorkloadOutcome {
        cycles,
        stats: machine.stats,
        steps_run: spec.steps - start_step,
        resumed_from,
        checkpoints_written,
        rollbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScenarioKind, ScenarioSpec};

    fn kernel_spec(steps: usize, checkpoint_every: usize) -> WorkloadSpec {
        let mut s = ScenarioSpec::workload("k", WorkloadApp::KernelStream { elems: 256 });
        let ScenarioKind::Workload(ref mut w) = s.kind else {
            unreachable!()
        };
        w.steps = steps;
        w.checkpoint_every = checkpoint_every;
        w.threads = 4;
        w.clone()
    }

    #[test]
    fn kernel_stream_is_deterministic() {
        let spec = kernel_spec(3, 0);
        let cancel = CancelToken::new();
        let a = run_workload(&spec, &cancel, None).unwrap();
        let b = run_workload(&spec, &cancel, None).unwrap();
        assert_eq!(a, b);
        assert!(a.cycles > 0);
        assert!(a.stats.reads > 0);
    }

    #[test]
    fn kernel_stream_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join("spp-scenario-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = CheckpointPaths::new(&dir, "resume-test");
        paths.remove();

        let spec = kernel_spec(4, 2);
        let cancel = CancelToken::new();
        let uninterrupted = run_workload(&spec, &cancel, None).unwrap();

        // First run: stop after the step-2 checkpoint by cancelling
        // via a truncated spec.
        let mut half = spec.clone();
        half.steps = 2;
        let first = run_workload(&half, &cancel, Some(&paths)).unwrap();
        assert_eq!(first.checkpoints_written, 1);
        assert!(paths.exists());

        // Second run resumes from the checkpoint and finishes.
        let resumed = run_workload(&spec, &cancel, Some(&paths)).unwrap();
        assert_eq!(resumed.resumed_from, Some(2));
        assert_eq!(resumed.steps_run, 2);
        assert_eq!(resumed.cycles, uninterrupted.cycles);
        assert_eq!(resumed.stats, uninterrupted.stats);
        paths.remove();
    }

    #[test]
    fn unusable_checkpoints_fall_back_to_a_fresh_byte_identical_run() {
        let dir = std::env::temp_dir().join("spp-scenario-torn-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = CheckpointPaths::new(&dir, "torn-test");
        let spec = kernel_spec(4, 2);
        let cancel = CancelToken::new();
        let uninterrupted = run_workload(&spec, &cancel, None).unwrap();

        // A snapshot torn by a kill mid-write (predating atomic
        // saves): resume must discard it and start over.
        paths.remove();
        std::fs::write(&paths.snap, b"SPPSNAP1 but truncated garbage").unwrap();
        std::fs::write(&paths.side, "2 12345 0 999\n").unwrap();
        let fresh = run_workload(&spec, &cancel, Some(&paths)).unwrap();
        assert_eq!(fresh.resumed_from, None);
        assert_eq!(fresh.cycles, uninterrupted.cycles);
        assert_eq!(fresh.stats, uninterrupted.stats);

        // A valid snapshot paired with a sidecar from a *different*
        // checkpoint (kill between the two renames): the clock field
        // disagrees, so resume must discard the pair too.
        paths.remove();
        let mut half = spec.clone();
        half.steps = 2;
        run_workload(&half, &cancel, Some(&paths)).unwrap();
        let side = std::fs::read_to_string(&paths.side).unwrap();
        let mut fields: Vec<String> = side.split_whitespace().map(str::to_string).collect();
        let skewed_clock: u64 = fields[3].parse::<u64>().unwrap() + 1;
        fields[3] = skewed_clock.to_string();
        std::fs::write(&paths.side, format!("{}\n", fields.join(" "))).unwrap();
        let fresh = run_workload(&spec, &cancel, Some(&paths)).unwrap();
        assert_eq!(fresh.resumed_from, None);
        assert_eq!(fresh.cycles, uninterrupted.cycles);
        assert_eq!(fresh.stats, uninterrupted.stats);
        paths.remove();
    }

    /// A kernel-stream spec whose transient faults always persist, so
    /// every detected injection exhausts its scrub budget and the only
    /// way to finish is checkpoint rollback-and-replay.
    fn recovering_spec(rollbacks: u32) -> WorkloadSpec {
        use spp_core::FaultEvent;
        let mut w = kernel_spec(4, 2);
        w.app = WorkloadApp::KernelStream { elems: 64 };
        w.fault_seed = 61;
        w.faults = vec![
            FaultEvent::InvalDup { prob: 0.002 },
            FaultEvent::TransientPersist { prob: 1.0 },
        ];
        w.rollbacks = rollbacks;
        w
    }

    #[test]
    fn rollback_recovers_bit_identically_to_the_fault_free_run() {
        let cancel = CancelToken::new();
        let mut clean = recovering_spec(50);
        clean.faults.clear();
        clean.fault_seed = 0;
        clean.rollbacks = 0;
        let baseline = run_workload(&clean, &cancel, None).unwrap();

        let recovered = run_workload(&recovering_spec(50), &cancel, None).unwrap();
        assert!(recovered.rollbacks > 0, "no escalation ever happened");
        assert_eq!(recovered.cycles, baseline.cycles);
        assert!(
            recovered.stats.eq_modulo_recovery(&baseline.stats),
            "recovered stats diverged beyond recovery counters"
        );
        // Deterministic end to end: same spec, same rollbacks.
        let again = run_workload(&recovering_spec(50), &cancel, None).unwrap();
        assert_eq!(recovered, again);
    }

    #[test]
    fn exhausted_rollback_budget_is_a_typed_cell_failure() {
        let cancel = CancelToken::new();
        let err = run_workload(&recovering_spec(0), &cancel, None).unwrap_err();
        assert!(err.contains("scrub attempts"), "{err}");
        assert!(err.contains("no [recovery] rollback budget"), "{err}");

        let mut one_shot = recovering_spec(1);
        // Guarantee more than one escalation: every access detects.
        let Some(spp_core::FaultEvent::InvalDup { prob }) = one_shot.faults.first_mut() else {
            unreachable!()
        };
        *prob = 1.0;
        let err = run_workload(&one_shot, &cancel, None).unwrap_err();
        assert!(err.contains("rollback budget of 1 exhausted"), "{err}");
    }

    #[test]
    fn insight_runs_pass_the_partition_check_and_stay_bit_identical() {
        let cancel = CancelToken::new();
        let plain = kernel_spec(3, 0);
        let mut attributed = plain.clone();
        attributed.insight = true;

        let off = run_workload(&plain, &cancel, None).unwrap();
        let on = run_workload(&attributed, &cancel, None).unwrap();
        // Attribution observes the run; it must not perturb it.
        assert_eq!(off, on);
    }

    #[test]
    fn builtin_noop_passes_and_hang_honours_cancel() {
        let cancel = CancelToken::new();
        assert!(run_builtin(&BuiltinOp::Noop, &cancel).is_ok());
        cancel.cancel();
        let r = run_builtin(&BuiltinOp::Hang, &cancel);
        assert!(r.is_err());
    }

    #[test]
    fn cancelled_shared_app_returns_early() {
        let spec = match ScenarioSpec::workload("p", WorkloadApp::Ppm).kind {
            ScenarioKind::Workload(w) => w,
            _ => unreachable!(),
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let r = run_workload(&spec, &cancel, None);
        assert!(r.is_err());
    }
}
