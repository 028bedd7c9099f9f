//! Fault-injection reproducibility (`spp repro faults`): PIC and N-body
//! under a seeded [`FaultPlan`] are bit-identical run to run, and the
//! retry overhead the reliability layers pay scales with the injected
//! fault rates. This is the demonstration that fault injection
//! perturbs simulated *cost* deterministically without perturbing
//! simulated *state*.

use crate::{emit, f, Opts, Table};
use nbody::{NbodyProblem, SharedNbody};
use pic::pvm::PvmPic;
use pic::{PicProblem, SharedPic};
use spp_core::json::Json;
use spp_core::{CpuId, FaultPlan, Machine};
use spp_pvm::Pvm;
use spp_runtime::{Placement, Runtime, Team};

/// Outcome of one workload run under a fault plan.
pub struct FaultRun {
    /// Elapsed simulated cycles.
    pub elapsed: u64,
    /// Sustained Mflop/s.
    pub mflops: f64,
    /// SCI ring stalls the plan injected.
    pub ring_stalls: u64,
    /// PVM send retries paid (zero for shared-memory workloads).
    pub retries: u64,
}

impl FaultRun {
    /// Bit-exact equality (u64 cycles plus the raw bits of the rate).
    pub fn bit_identical(&self, other: &FaultRun) -> bool {
        self.elapsed == other.elapsed
            && self.mflops.to_bits() == other.mflops.to_bits()
            && self.ring_stalls == other.ring_stalls
            && self.retries == other.retries
    }
}

/// Shared-memory PIC (16x16x16 mesh, 8 CPUs across two hypernodes)
/// under `plan`.
pub fn pic_shared(plan: FaultPlan, steps: usize) -> FaultRun {
    let mut rt = Runtime::new(Machine::spp1000(2).with_faults(plan));
    let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
    let mut sim = SharedPic::new(&mut rt, PicProblem::with_mesh(16, 16, 16), &team);
    sim.step(&mut rt, &team); // warm-up
    let r = sim.run(&mut rt, &team, steps);
    FaultRun {
        elapsed: r.elapsed,
        mflops: r.mflops(),
        ring_stalls: rt.machine.stats.ring_stalls,
        retries: 0,
    }
}

/// Shared-memory N-body (8192 bodies, 8 CPUs across two hypernodes)
/// under `plan`.
pub fn nbody_shared(plan: FaultPlan, steps: usize) -> FaultRun {
    let mut rt = Runtime::new(Machine::spp1000(2).with_faults(plan));
    let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
    let mut sim = SharedNbody::new(&mut rt, NbodyProblem::with_n(8192), &team);
    sim.step(&mut rt, &team); // warm-up
    let r = sim.run(&mut rt, &team, steps);
    FaultRun {
        elapsed: r.elapsed,
        mflops: r.mflops(),
        ring_stalls: rt.machine.stats.ring_stalls,
        retries: 0,
    }
}

/// PVM PIC (16x16x16 mesh, 8 tasks across two hypernodes) under
/// `plan`.
pub fn pic_pvm(plan: FaultPlan, steps: usize) -> FaultRun {
    let cpus: Vec<CpuId> = (0..8u16).map(CpuId).collect();
    let mut pvm = Pvm::new(Machine::spp1000(2).with_faults(plan), &cpus);
    let mut sim = PvmPic::new(&mut pvm, PicProblem::with_mesh(16, 16, 16));
    sim.step(&mut pvm); // warm-up
    let r = sim.run(&mut pvm, steps);
    FaultRun {
        elapsed: r.elapsed,
        mflops: r.mflops(),
        ring_stalls: pvm.machine.stats.ring_stalls,
        retries: pvm.fault_stats().retries,
    }
}

/// One determinism case: a workload under `FaultPlan::standard(seed)`,
/// run twice.
pub struct CaseResult {
    /// Workload label.
    pub workload: &'static str,
    /// Fault-plan seed.
    pub seed: u64,
    /// First run.
    pub a: FaultRun,
    /// Second run (must be bit-identical to the first).
    pub b: FaultRun,
}

impl CaseResult {
    /// Did the two runs match bit for bit?
    pub fn identical(&self) -> bool {
        self.a.bit_identical(&self.b)
    }
}

/// Run the determinism sweep: each workload twice under each seed.
pub fn determinism_sweep(steps: usize) -> Vec<CaseResult> {
    let mut cases = Vec::new();
    for seed in [42u64, 43] {
        type Case = (&'static str, Box<dyn Fn() -> FaultRun>);
        let runners: [Case; 3] = [
            (
                "PIC shared",
                Box::new(move || pic_shared(FaultPlan::standard(seed), steps)),
            ),
            (
                "N-body shared",
                Box::new(move || nbody_shared(FaultPlan::standard(seed), steps)),
            ),
            (
                "PIC PVM",
                Box::new(move || pic_pvm(FaultPlan::standard(seed), steps)),
            ),
        ];
        for (workload, runner) in runners {
            cases.push(CaseResult {
                workload,
                seed,
                a: runner(),
                b: runner(),
            });
        }
    }
    cases
}

/// Machine-readable form of the determinism sweep (the
/// `BENCH_faults.json` that `spp repro faults` writes under
/// `target/repro`, following the `BENCH_*.json` convention).
pub fn to_json(cases: &[CaseResult], steps: usize) -> Json {
    let rows: Json = cases
        .iter()
        .map(|c| {
            Json::obj()
                .with("workload", c.workload)
                .with("seed", c.seed)
                .with("identical", c.identical())
                .with("elapsed", c.a.elapsed)
                .with("ring_stalls", c.a.ring_stalls)
                .with("retries", c.a.retries)
        })
        .collect();
    spp_scenario::report_head("faults")
        .with("steps", steps)
        .with("passed", cases.iter().all(|c| c.identical()))
        .with("cases", rows)
}

/// Regenerate the fault-injection reproducibility report. Writes
/// `BENCH_faults.json` so a `spp repro all` or scenario-engine sweep
/// leaves the same artifact as the standalone binary, then panics if
/// any case was not bit-identical so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let cases = determinism_sweep(o.steps);
    let mut text = report(o, &cases);
    text.push_str(&crate::write_bench(
        "BENCH_faults.json",
        &to_json(&cases, o.steps),
    ));
    text.push('\n');
    assert!(
        cases.iter().all(|c| c.identical()),
        "fault determinism sweep found a non-reproducible case"
    );
    text
}

/// Render the full report from an already-computed determinism sweep
/// (lets `spp repro faults` print the tables and write the JSON
/// from one sweep).
pub fn report(o: &Opts, cases: &[CaseResult]) -> String {
    let mut out = String::new();

    // Determinism: the same seed reproduces the exact same schedule
    // and therefore bit-identical results; different seeds differ.
    let mut t = Table::new(&[
        "workload",
        "seed",
        "run A cycles",
        "run B cycles",
        "identical",
        "ring stalls",
        "retries",
    ]);
    for c in cases {
        t.row(vec![
            c.workload.to_string(),
            c.seed.to_string(),
            c.a.elapsed.to_string(),
            c.b.elapsed.to_string(),
            if c.identical() { "yes" } else { "NO" }.to_string(),
            c.a.ring_stalls.to_string(),
            c.a.retries.to_string(),
        ]);
    }
    out.push_str(&emit(
        "repro-faults: seeded fault schedules are reproducible",
        &format!(
            "{}\nEach workload runs twice under FaultPlan::standard(seed): elapsed\n\
             cycles, Mflop/s bits, and fault counters must match exactly.",
            t.render()
        ),
    ));

    // Retry overhead scales with the injected message drop rate (the
    // PVM reliability layer pays a priced timeout per retry).
    let clean = pic_pvm(FaultPlan::new(7), o.steps);
    let mut t = Table::new(&["drop prob", "cycles", "retries", "overhead vs clean"]);
    for drop in [0.0f64, 0.05, 0.15] {
        let r = pic_pvm(
            FaultPlan::new(7).with_message_faults(drop, drop / 2.0),
            o.steps,
        );
        t.row(vec![
            f(drop, 2),
            r.elapsed.to_string(),
            r.retries.to_string(),
            format!(
                "{}%",
                f((r.elapsed as f64 / clean.elapsed as f64 - 1.0) * 100.0, 1)
            ),
        ]);
    }
    out.push_str(&emit(
        "repro-faults: PVM retry overhead vs drop rate",
        &format!(
            "{}\nHigher drop probability means more priced retries and a longer\n\
             simulated run; the clean (0.00) row matches a fault-free session.",
            t.render()
        ),
    ));

    // Spawn failures: the runtime's fork path retries with backoff;
    // overhead shows up as fork-join elapsed time.
    let mut t = Table::new(&["spawn-fail prob", "fork-join us", "spawn retries"]);
    for prob in [0.0f64, 0.2, 0.4] {
        let mut rt = Runtime::new(
            Machine::spp1000(2).with_faults(FaultPlan::new(9).with_spawn_failures(prob)),
        );
        let team = Team::place(rt.machine.config(), 16, &Placement::Uniform);
        let rep = rt.team_fork_join(&team, |ctx| ctx.cycles(100));
        t.row(vec![
            f(prob, 1),
            f(rep.elapsed as f64 / 100.0, 1),
            rep.spawn_retries.to_string(),
        ]);
    }
    out.push_str(&emit(
        "repro-faults: runtime spawn-retry overhead",
        &format!(
            "{}\nA 16-thread fork across two hypernodes under increasing spawn\n\
             failure rates: each retry pays the spawn cost again plus an\n\
             exponential backoff.",
            t.render()
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_bytes_are_pinned() {
        let run = |elapsed| FaultRun {
            elapsed,
            mflops: 1.5,
            ring_stalls: 3,
            retries: 4,
        };
        let cases = [
            CaseResult {
                workload: "PIC shared",
                seed: 42,
                a: run(100),
                b: run(100),
            },
            CaseResult {
                workload: "N-body shared",
                seed: 43,
                a: run(200),
                b: run(201),
            },
        ];
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"faults\",\n\
            \x20 \"steps\": 2,\n\
            \x20 \"passed\": false,\n\
            \x20 \"cases\": [\n\
            \x20   {\"workload\": \"PIC shared\", \"seed\": 42, \"identical\": true, \"elapsed\": 100, \"ring_stalls\": 3, \"retries\": 4},\n\
            \x20   {\"workload\": \"N-body shared\", \"seed\": 43, \"identical\": false, \"elapsed\": 200, \"ring_stalls\": 3, \"retries\": 4}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(to_json(&cases, 2).report(), expected);
    }

    #[test]
    fn same_fault_seed_is_bit_identical() {
        let a = pic_shared(FaultPlan::standard(42), 1);
        let b = pic_shared(FaultPlan::standard(42), 1);
        assert!(a.bit_identical(&b));
        assert!(
            a.ring_stalls > 0,
            "standard plan should stall some ring ops"
        );
        let c = nbody_shared(FaultPlan::standard(42), 1);
        let d = nbody_shared(FaultPlan::standard(42), 1);
        assert!(c.bit_identical(&d));
    }

    #[test]
    fn different_fault_seeds_differ() {
        let a = pic_shared(FaultPlan::standard(42), 1);
        let b = pic_shared(FaultPlan::standard(1042), 1);
        assert_ne!(
            (a.elapsed, a.ring_stalls),
            (b.elapsed, b.ring_stalls),
            "different seeds should give different schedules"
        );
    }

    #[test]
    fn faults_only_add_cost() {
        let clean = pic_shared(FaultPlan::new(0), 1);
        let faulty = pic_shared(FaultPlan::standard(42), 1);
        assert_eq!(clean.ring_stalls, 0);
        assert!(faulty.elapsed > clean.elapsed);
    }

    #[test]
    fn json_report_is_well_formed_and_lands_on_disk() {
        let cases = vec![CaseResult {
            workload: "PIC shared",
            seed: 42,
            a: pic_shared(FaultPlan::standard(42), 1),
            b: pic_shared(FaultPlan::standard(42), 1),
        }];
        let dir = std::env::temp_dir().join("spp-faults-report-test");
        let json =
            spp_scenario::write_report(&dir, "BENCH_faults.json", &to_json(&cases, 1)).unwrap();
        assert!(json.ends_with("BENCH_faults.json"));
        let doc = crate::parse_file(&json);
        assert_eq!(doc.str_field("experiment"), Some("faults"));
        assert_eq!(doc.bool_field("passed"), Some(true));
        let case = &crate::report_array(&doc, "cases")[0];
        assert_eq!(case.str_field("workload"), Some("PIC shared"));
        assert_eq!(case.int_field("seed"), Some(42));
        assert_eq!(case.bool_field("identical"), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pvm_retry_overhead_scales_with_drop_rate() {
        let r0 = pic_pvm(FaultPlan::new(7), 1);
        let r5 = pic_pvm(FaultPlan::new(7).with_message_faults(0.05, 0.0), 1);
        let r15 = pic_pvm(FaultPlan::new(7).with_message_faults(0.15, 0.0), 1);
        assert_eq!(r0.retries, 0);
        assert!(r5.retries > 0);
        assert!(r15.retries > r5.retries);
        assert!(r15.elapsed > r5.elapsed);
        assert!(r5.elapsed > r0.elapsed);
    }
}
