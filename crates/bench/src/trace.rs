//! Trace/observability study (`spp repro trace`): small PIC and N-body
//! runs with the event tracer mounted, demonstrating
//!
//! * **determinism** — the same workload traced twice produces a
//!   byte-identical Perfetto timeline and metrics document;
//! * **reconciliation** — trace event counts agree exactly with the
//!   hardware-style [`spp_core::MemStats`] counters, per-CPU stats sum
//!   to the global counters, and the miss kinds partition the misses;
//! * **span nesting** — the hierarchical profile is balanced (every
//!   `enter` matched by an `exit`);
//! * **overhead** — simulated cycles are bit-identical with tracing on
//!   or off, and the host-time cost of the disabled path on the
//!   batched run fast path is measured (a single branch per coherence
//!   event; see DESIGN.md §4e).

use crate::{emit, f, Opts, Table};
use nbody::{NbodyProblem, SharedNbody};
use pic::{PicProblem, SharedPic};
use spp_core::json::Json;
use spp_core::trace::{metrics_json, perfetto_json, spp_top, N_EVENT_KINDS};
use spp_core::{Machine, MemClass, SimArray, TraceEvent};
use spp_runtime::{Placement, Profile, Runtime, Team};

/// Everything observed from one traced workload run.
pub struct TraceOutcome {
    /// Workload label.
    pub workload: &'static str,
    /// Elapsed simulated cycles.
    pub elapsed: u64,
    /// Events captured in the ring.
    pub events: usize,
    /// Events dropped past the ring capacity (must be 0 at this size).
    pub dropped: u64,
    /// Exact per-kind event counts (survive ring drops).
    pub counts: [u64; N_EVENT_KINDS],
    /// Perfetto/Chrome `trace_event` JSON timeline.
    pub perfetto: String,
    /// Flat metrics JSON (global + per-node + per-CPU + events).
    pub metrics: String,
    /// Human `spp-top` summary.
    pub top: String,
    /// CXpa-style hierarchical profile report.
    pub profile: String,
    /// Span-nesting invariant: every `enter` had its `exit`.
    pub balanced: bool,
    /// Event counts reconcile with the MemStats counters.
    pub reconciled: bool,
}

/// Check every counter-level invariant the tracer promises: miss-kind
/// event counts equal the stats counters, upgrade/rollout events
/// match, per-CPU stats sum to the global counters, and the miss
/// kinds partition the misses globally and per hypernode.
pub fn reconciles(m: &Machine) -> bool {
    let t = m.tracer().expect("tracer mounted");
    let c = t.counts();
    let s = &m.stats;
    let events_match = c[0] == s.local_misses
        && c[1] == s.gcb_hits
        && c[2] == s.sci_fetches
        && c[3] == s.c2c_transfers
        && c[4] == s.upgrades
        && c[6] == s.gcb_rollouts;
    let mut summed = spp_core::MemStats::default();
    for per in m.per_cpu_stats() {
        summed.merge(per);
    }
    let nodes = m.config().hypernodes;
    let nodes_partition = (0..nodes).all(|n| {
        m.node_stats(spp_core::NodeId(n as u8))
            .miss_partition_check()
    });
    events_match && summed == *s && s.miss_partition_check() && nodes_partition
}

/// Traced shared-memory PIC (16x16x16 mesh, 8 CPUs across two
/// hypernodes) with a hierarchical profile over its phase loop.
pub fn pic_traced(steps: usize) -> TraceOutcome {
    let mut rt = Runtime::new(Machine::spp1000(2).with_tracing());
    let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
    let mut sim = SharedPic::new(&mut rt, PicProblem::with_mesh(16, 16, 16), &team);
    let mut prof = Profile::new();
    let mut elapsed = 0u64;
    prof.enter("pic");
    for _ in 0..steps {
        prof.enter("step");
        let rep = sim.step_profiled(&mut rt, &team, Some(&mut prof));
        prof.exit();
        elapsed += rep.elapsed;
    }
    prof.exit();
    outcome("PIC shared", elapsed, &rt.machine, &prof)
}

/// Traced shared-memory N-body (2048 bodies, 8 CPUs across two
/// hypernodes) with a hierarchical profile over its phase loop.
pub fn nbody_traced(steps: usize) -> TraceOutcome {
    let mut rt = Runtime::new(Machine::spp1000(2).with_tracing());
    let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
    let mut sim = SharedNbody::new(&mut rt, NbodyProblem::with_n(2048), &team);
    let mut prof = Profile::new();
    let mut elapsed = 0u64;
    prof.enter("nbody");
    for _ in 0..steps {
        prof.enter("step");
        let (c, _, _) = sim.step_profiled(&mut rt, &team, Some(&mut prof));
        prof.exit();
        elapsed += c;
    }
    prof.exit();
    outcome("N-body shared", elapsed, &rt.machine, &prof)
}

fn outcome(workload: &'static str, elapsed: u64, m: &Machine, prof: &Profile) -> TraceOutcome {
    let events = m.trace_events();
    let t = m.tracer().expect("tracer mounted");
    TraceOutcome {
        workload,
        elapsed,
        events: events.len(),
        dropped: t.dropped(),
        counts: t.counts(),
        perfetto: perfetto_json(&events),
        metrics: metrics_json(m),
        top: spp_top(m),
        profile: prof.report(),
        balanced: prof.balanced(),
        reconciled: reconciles(m),
    }
}

/// Host-time overhead of the tracing seam on the batched run fast
/// path, measured by running the same strided sweep with the tracer
/// absent and mounted.
pub struct OverheadStudy {
    /// Simulated cycles with the tracer absent.
    pub cycles_off: u64,
    /// Simulated cycles with the tracer mounted (must match exactly).
    pub cycles_on: u64,
    /// Host nanoseconds, tracer absent (best of the repetitions).
    pub ns_off: u64,
    /// Host nanoseconds, tracer mounted (best of the repetitions).
    pub ns_on: u64,
    /// Stats equality across the two runs.
    pub stats_identical: bool,
}

impl OverheadStudy {
    /// Host overhead of mounting the tracer, as a fraction of the
    /// untraced run (negative values are measurement noise).
    pub fn overhead(&self) -> f64 {
        self.ns_on as f64 / self.ns_off.max(1) as f64 - 1.0
    }
}

/// Sweep a far-shared array with `read_run`/`fill_run` (the batched
/// fast path) over 16 CPUs; time the best of `reps` passes.
pub fn overhead_study(reps: usize) -> OverheadStudy {
    fn sweep(traced: bool, reps: usize) -> (u64, u64, spp_core::MemStats) {
        let m = Machine::spp1000(2);
        let m = if traced { m.with_tracing() } else { m };
        let mut rt = Runtime::new(m);
        let team = Team::place(rt.machine.config(), 16, &Placement::Uniform);
        let n = 1usize << 16;
        let mut a = SimArray::<f64>::from_elem(&mut rt.machine, MemClass::FarShared, n, 0.0);
        let mut cycles = 0u64;
        let mut best = u64::MAX;
        for _ in 0..reps.max(1) {
            let arr = &mut a;
            let t0 = std::time::Instant::now();
            let rep = rt.team_fork_join(&team, |ctx| {
                let r = ctx.chunk(n);
                let mut buf: Vec<f64> = Vec::with_capacity(r.len());
                ctx.read_run(arr, r.clone(), &mut buf);
                ctx.fill_run(arr, r, 1.0);
            });
            best = best.min(t0.elapsed().as_nanos() as u64);
            cycles += rep.elapsed;
        }
        (cycles, best, rt.machine.stats)
    }
    let (cycles_off, ns_off, stats_off) = sweep(false, reps);
    let (cycles_on, ns_on, stats_on) = sweep(true, reps);
    OverheadStudy {
        cycles_off,
        cycles_on,
        ns_off,
        ns_on,
        stats_identical: stats_off == stats_on,
    }
}

/// The full study one `spp repro trace` invocation performs: both
/// workloads traced twice (for the determinism check) plus the
/// overhead sweep.
pub struct TraceReport {
    /// First run of each workload.
    pub runs: Vec<TraceOutcome>,
    /// Byte-identity of timeline + metrics across the repeated runs.
    pub deterministic: bool,
    /// The batched-path overhead measurement.
    pub overhead: OverheadStudy,
}

impl TraceReport {
    /// Overall verdict (what the `"passed"` JSON field reports).
    pub fn passed(&self) -> bool {
        self.deterministic
            && self.overhead.cycles_off == self.overhead.cycles_on
            && self.overhead.stats_identical
            && self
                .runs
                .iter()
                .all(|r| r.balanced && r.reconciled && r.dropped == 0 && r.events > 0)
    }
}

/// Run the whole study.
pub fn study(steps: usize) -> TraceReport {
    let runners: [fn(usize) -> TraceOutcome; 2] = [pic_traced, nbody_traced];
    let mut runs = Vec::new();
    let mut deterministic = true;
    for r in runners {
        let first = r(steps);
        let second = r(steps);
        deterministic &= first.perfetto == second.perfetto && first.metrics == second.metrics;
        runs.push(first);
    }
    TraceReport {
        runs,
        deterministic,
        overhead: overhead_study(3),
    }
}

/// Machine-readable form (the `BENCH_trace.json` the `spp repro trace`
/// binary writes under `target/repro`).
pub fn to_json(rep: &TraceReport, steps: usize) -> Json {
    let overhead = Json::obj()
        .with(
            "cycles_identical",
            rep.overhead.cycles_off == rep.overhead.cycles_on,
        )
        .with("stats_identical", rep.overhead.stats_identical)
        .with("ns_off", rep.overhead.ns_off)
        .with("ns_on", rep.overhead.ns_on)
        // A percentage to two decimals (host-timed, so never pinned).
        .with(
            "overhead_pct",
            (rep.overhead.overhead() * 10_000.0).round() / 100.0,
        );
    let workloads: Json = rep
        .runs
        .iter()
        .map(|r| {
            let counts = r
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(k, c)| (TraceEvent::kind_label(k).to_string(), Json::from(*c)))
                .collect();
            Json::obj()
                .with("workload", r.workload)
                .with("elapsed", r.elapsed)
                .with("events", r.events)
                .with("dropped", r.dropped)
                .with("balanced", r.balanced)
                .with("reconciled", r.reconciled)
                .with("counts", Json::Obj(counts))
        })
        .collect();
    spp_scenario::report_head("trace")
        .with("steps", steps)
        .with("passed", rep.passed())
        .with("deterministic", rep.deterministic)
        .with("overhead", overhead)
        .with("workloads", workloads)
}

/// Write the Perfetto timelines under `dir` (created if needed): one
/// `trace_<workload>.json` per run plus the canonical
/// `trace_timeline.json` (load in ui.perfetto.dev).
pub fn write_timelines(rep: &TraceReport, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for r in &rep.runs {
        let slug: String = r
            .workload
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        spp_core::atomic_write_str(&dir.join(format!("trace_{slug}.json")), &r.perfetto)?;
    }
    spp_core::atomic_write_str(&dir.join("trace_timeline.json"), &rep.runs[0].perfetto)
}

/// Regenerate the observability report. Writes `BENCH_trace.json`
/// plus the Perfetto timelines so a `spp repro all` or scenario-engine
/// sweep leaves the same artifacts as the standalone binary, then
/// panics if any invariant failed so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let rep = study(o.steps);
    let mut text = report(o, &rep);
    text.push_str(&crate::write_bench(
        "BENCH_trace.json",
        &to_json(&rep, o.steps),
    ));
    text.push('\n');
    if let Err(e) = write_timelines(&rep, &crate::repro_dir()) {
        text.push_str(&format!("[could not write timelines: {e}]\n"));
    }
    assert!(rep.passed(), "trace observability invariants failed");
    text
}

/// Render the report from an already-computed study (lets
/// `spp repro trace` print and write from one study).
pub fn report(_o: &Opts, rep: &TraceReport) -> String {
    let mut out = String::new();

    let mut t = Table::new(&[
        "workload",
        "sim cycles",
        "events",
        "dropped",
        "balanced",
        "reconciled",
    ]);
    for r in &rep.runs {
        t.row(vec![
            r.workload.to_string(),
            r.elapsed.to_string(),
            r.events.to_string(),
            r.dropped.to_string(),
            if r.balanced { "yes" } else { "NO" }.to_string(),
            if r.reconciled { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&emit(
        "repro-trace: traced workloads",
        &format!(
            "{}\nDeterminism (same seed => byte-identical timeline + metrics): {}\n\
             Event counts reconcile with the MemStats counters; per-CPU stats\n\
             sum to the global counters; miss kinds partition the misses.",
            t.render(),
            if rep.deterministic { "yes" } else { "NO" }
        ),
    ));

    let o = &rep.overhead;
    let mut t = Table::new(&["tracer", "sim cycles", "host ns (best)"]);
    t.row(vec![
        "absent".into(),
        o.cycles_off.to_string(),
        o.ns_off.to_string(),
    ]);
    t.row(vec![
        "mounted".into(),
        o.cycles_on.to_string(),
        o.ns_on.to_string(),
    ]);
    out.push_str(&emit(
        "repro-trace: batched-path overhead",
        &format!(
            "{}\nSimulated cycles are bit-identical with tracing on or off\n\
             (identical: {}); mounting the tracer cost {}% host time on this\n\
             batched sweep. With the tracer absent the seam is one branch per\n\
             coherence event.",
            t.render(),
            o.cycles_off == o.cycles_on && o.stats_identical,
            f(o.overhead() * 100.0, 1)
        ),
    ));

    let first = &rep.runs[0];
    out.push_str(&emit(
        "repro-trace: spp-top (PIC shared)",
        first.top.trim_end(),
    ));
    out.push_str(&emit(
        "repro-trace: CXpa-style profile (PIC shared)",
        first.profile.trim_end(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_bytes_are_pinned() {
        let mut counts = [0u64; N_EVENT_KINDS];
        counts[0] = 3;
        counts[9] = 2;
        let run = |workload, counts| TraceOutcome {
            workload,
            elapsed: 500,
            events: 5,
            dropped: 0,
            counts,
            perfetto: String::new(),
            metrics: String::new(),
            top: String::new(),
            profile: String::new(),
            balanced: true,
            reconciled: true,
        };
        let rep = TraceReport {
            runs: vec![
                run("PIC (shared)", counts),
                run("N-body", [0; N_EVENT_KINDS]),
            ],
            deterministic: true,
            overhead: OverheadStudy {
                cycles_off: 9,
                cycles_on: 9,
                ns_off: 10_000,
                ns_on: 11_234,
                stats_identical: true,
            },
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"trace\",\n\
            \x20 \"steps\": 1,\n\
            \x20 \"passed\": true,\n\
            \x20 \"deterministic\": true,\n\
            \x20 \"overhead\": {\"cycles_identical\": true, \"stats_identical\": true, \"ns_off\": 10000, \"ns_on\": 11234, \"overhead_pct\": 12.34},\n\
            \x20 \"workloads\": [\n\
            \x20   {\"workload\": \"PIC (shared)\", \"elapsed\": 500, \"events\": 5, \"dropped\": 0, \"balanced\": true, \"reconciled\": true, \"counts\": {\"miss-local\": 3, \"fork-span\": 2}},\n\
            \x20   {\"workload\": \"N-body\", \"elapsed\": 500, \"events\": 5, \"dropped\": 0, \"balanced\": true, \"reconciled\": true, \"counts\": {}}\n\
            \x20 ]\n\
            }\n";
        assert_eq!(to_json(&rep, 1).report(), expected);
    }

    #[test]
    fn traced_pic_reconciles_and_balances() {
        let r = pic_traced(1);
        assert!(r.events > 0);
        assert_eq!(r.dropped, 0);
        assert!(r.balanced);
        assert!(r.reconciled);
        assert!(r.perfetto.contains("traceEvents"));
        assert!(r.profile.contains("pic/step/deposit"), "{}", r.profile);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = pic_traced(1);
        let b = pic_traced(1);
        assert_eq!(a.perfetto, b.perfetto);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn tracing_never_changes_simulated_cycles() {
        let o = overhead_study(1);
        assert_eq!(o.cycles_off, o.cycles_on);
        assert!(o.stats_identical);
    }

    #[test]
    fn json_report_is_well_formed_and_lands_on_disk() {
        let rep = TraceReport {
            runs: vec![nbody_traced(1)],
            deterministic: true,
            overhead: overhead_study(1),
        };
        let dir = std::env::temp_dir().join("spp-trace-report-test");
        let json = spp_scenario::write_report(&dir, "BENCH_trace.json", &to_json(&rep, 1)).unwrap();
        write_timelines(&rep, &dir).unwrap();
        let doc = crate::parse_file(&json);
        assert_eq!(doc.str_field("experiment"), Some("trace"));
        assert_eq!(doc.bool_field("passed"), Some(true));
        let overhead = doc.get("overhead").expect("overhead object");
        assert_eq!(overhead.bool_field("cycles_identical"), Some(true));
        let run = &crate::report_array(&doc, "workloads")[0];
        assert!(run.get("counts").and_then(|c| c.int_field("miss-sci")) > Some(0));
        crate::parse_file(&dir.join("trace_timeline.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
