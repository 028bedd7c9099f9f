//! Race campaign (`spp repro race`): every application runs under the
//! happens-before race detector (which must report zero races), and
//! the fork/join replay order is fuzzed with seeded [`SchedulePolicy`]
//! permutations — final memory state, results, and memory-system
//! counters must be permutation-invariant. A deliberately racy
//! negative-control kernel (the proptest shim's `racy_sum`) must be
//! flagged by the detector AND diverge under permutation; its failing
//! schedule is shrunk with the chaos delta-debug machinery
//! ([`crate::grid::shrink`]) over adjacent transpositions, then the
//! team is reduced, yielding a ≤ 2-thread minimal reproducer written
//! as a replayable artifact (`race_repro.json`).
//!
//! The campaign's machine-readable summary is `BENCH_race.json`
//! (written by `spp repro race` under `target/repro`, or
//! `SPP_REPRO_DIR`), following the `BENCH_*.json` convention.

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use crate::grid::Workload;
use crate::{emit, Opts, Table};
use proptest::racy;
use spp_core::json::Json;
use spp_core::{panic_message, Fnv1a, Machine, MemStats, RaceReport};
use spp_runtime::{Runtime, SchedulePolicy};
use spp_scenario::SharedApp;

/// What one run leaves behind: an FNV-1a digest of the final simulated
/// memory state and the run's result counters, plus the machine's
/// cumulative [`MemStats`].
///
/// The permutation invariant has three tiers:
/// 1. `digest` must match bit-for-bit — the program's answer cannot
///    depend on the replay order.
/// 2. Issued traffic (`reads`, `writes`, `uncached_ops`) must match
///    exactly — what the program *asks* the memory system is a
///    property of the program, not the schedule.
/// 3. The service-kind attribution (hit vs c2c vs GCB vs remote-dirty
///    fetch, …) legitimately depends on which CPU touches a line
///    first, so those counters only have to stay within a scale-aware
///    drift bound ([`drift_limit`]). Elapsed cycles are not compared
///    at all — the critical path genuinely shifts with the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Digest of final memory state + results.
    pub digest: u64,
    /// Machine-wide memory-system counters.
    pub stats: MemStats,
}

/// The exactly-invariant issued-traffic projection of [`MemStats`].
fn issued(s: &MemStats) -> [u64; 3] {
    [s.reads, s.writes, s.uncached_ops]
}

/// The order-attributed service-kind counters (everything else).
fn attribution(s: &MemStats) -> [(&'static str, u64); 12] {
    [
        ("hits", s.hits),
        ("local_misses", s.local_misses),
        ("gcb_hits", s.gcb_hits),
        ("sci_fetches", s.sci_fetches),
        ("remote_dirty_fetches", s.remote_dirty_fetches),
        ("c2c_transfers", s.c2c_transfers),
        ("upgrades", s.upgrades),
        ("invalidations", s.invalidations),
        ("sci_invalidations", s.sci_invalidations),
        ("evictions", s.evictions),
        ("writebacks", s.writebacks),
        ("gcb_rollouts", s.gcb_rollouts),
    ]
}

/// Allowed per-counter attribution drift for a run issuing this much
/// traffic: one per mille of the issued accesses, floored at 64. Far
/// below any double-counted phase, far above observed first-toucher
/// noise.
pub fn drift_limit(baseline: &MemStats) -> u64 {
    (baseline.reads + baseline.writes) / 1000 + 64
}

/// Compare a permuted run against the identity baseline. Returns the
/// maximum attribution drift on success, or a human-readable mismatch
/// description when the invariant is violated.
pub fn invariant_check(id: &Outcome, o: &Outcome) -> Result<u64, String> {
    if o.digest != id.digest {
        return Err("final state/results digest differs".to_string());
    }
    if issued(&o.stats) != issued(&id.stats) {
        return Err(format!(
            "issued traffic differs: {:?} vs {:?}",
            issued(&id.stats),
            issued(&o.stats)
        ));
    }
    let limit = drift_limit(&id.stats);
    let mut max_drift = 0;
    for ((name, a), (_, b)) in attribution(&id.stats)
        .into_iter()
        .zip(attribution(&o.stats))
    {
        let drift = a.abs_diff(b);
        if drift > limit {
            return Err(format!("{name} drifted past {limit}: {a} vs {b}"));
        }
        max_drift = max_drift.max(drift);
    }
    Ok(max_drift)
}

/// Run one workload to completion under `policy` and digest its
/// observable outcome. `detect` mounts the race detector (which must
/// not perturb the priced stream — the campaign cross-checks this).
pub fn run_app(
    w: Workload,
    policy: &SchedulePolicy,
    steps: usize,
    detect: bool,
) -> (Outcome, RaceReport) {
    let mut m = Machine::spp1000(2);
    if detect {
        m = m.with_race_detection();
    }
    let run = w.run(Runtime::new(m).with_schedule(policy.clone()), steps);
    let t = run.totals;
    let mut h = Fnv1a::new();
    match &run.app {
        SharedApp::Pic(sim) => {
            let (x, y, z) = sim.positions();
            let (vx, vy, vz) = sim.velocities();
            for s in [x, y, z, vx, vy, vz] {
                h.f64s(s);
            }
            h.word(sim.field_energy().to_bits());
            h.word(t.flops);
        }
        SharedApp::Nbody(sim) => {
            let b = sim.bodies();
            for s in [&b.x, &b.y, &b.z, &b.vx, &b.vy, &b.vz, &b.m] {
                h.f64s(s);
            }
            let (ax, ay, az) = sim.accelerations();
            for s in [ax, ay, az] {
                h.f64s(s);
            }
            h.word(t.flops);
            h.word(t.interactions);
        }
        SharedApp::Fem(sim) => {
            let s = sim.state();
            for a in [&s.rho, &s.mu, &s.mv, &s.e] {
                h.f64s(a);
            }
            h.word(t.point_updates);
        }
        SharedApp::Ppm(sim) => {
            let p = &sim.problem;
            for y in 0..p.ny {
                for x in 0..p.nx {
                    let q = sim.prim(x, y);
                    h.f64s(&[q.rho, q.u, q.v, q.p]);
                }
            }
            h.word(sim.total_mass().to_bits());
            h.word(t.flops);
        }
    }
    let m = &run.rt.machine;
    (
        Outcome {
            digest: h.finish(),
            stats: m.stats,
        },
        m.race_report(),
    )
}

/// The campaign's schedule set: identity, reversed, and seeded
/// shuffles (6 by default, 12 under `--full`) — at least 8 schedules
/// total either way.
pub fn schedules(full: bool) -> Vec<(String, SchedulePolicy)> {
    let mut out = vec![
        ("identity".to_string(), SchedulePolicy::Identity),
        ("reversed".to_string(), SchedulePolicy::Reversed),
    ];
    let nshuffles = if full { 12 } else { 6 };
    for seed in 1..=nshuffles {
        out.push((
            format!("shuffled-{seed}"),
            SchedulePolicy::Shuffled { seed },
        ));
    }
    out
}

/// One application's verdict.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// The application.
    pub workload: Workload,
    /// Races the detector reported on the identity schedule.
    pub races: u64,
    /// False-sharing warnings (informational; do not fail the cell).
    pub warnings: u64,
    /// Parallel regions analysed.
    pub regions: u64,
    /// Accesses the detector observed.
    pub accesses: u64,
    /// Schedules compared against the identity baseline.
    pub schedules: usize,
    /// `label: reason` for schedules that violated the invariant.
    pub divergent: Vec<String>,
    /// Worst attribution drift seen across passing schedules.
    pub max_drift: u64,
    /// The drift bound those counters were held to.
    pub drift_limit: u64,
    /// Panic message when any run crashed.
    pub failure: Option<String>,
}

impl AppResult {
    /// Did this application pass (no crash, zero races, permutation-
    /// invariant)?
    pub fn pass(&self) -> bool {
        self.failure.is_none() && self.races == 0 && self.divergent.is_empty()
    }
}

/// Run one application cell: detector-on identity run (race check +
/// zero-overhead cross-check), then the detector-off permutation
/// sweep, all inside `catch_unwind`.
pub fn check_app(w: Workload, steps: usize, full: bool) -> AppResult {
    let sched = schedules(full);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let (detected_outcome, report) = run_app(w, &SchedulePolicy::Identity, steps, true);
        let (baseline, _) = run_app(w, &SchedulePolicy::Identity, steps, false);
        if detected_outcome != baseline {
            panic!(
                "{}: race detector perturbed the run (outcome differs with detection on)",
                w.label()
            );
        }
        let mut divergent = Vec::new();
        let mut max_drift = 0;
        for (label, policy) in sched.iter().skip(1) {
            let (o, _) = run_app(w, policy, steps, false);
            match invariant_check(&baseline, &o) {
                Ok(drift) => max_drift = max_drift.max(drift),
                Err(reason) => divergent.push(format!("{label}: {reason}")),
            }
        }
        (report, divergent, max_drift, drift_limit(&baseline.stats))
    }));
    match out {
        Ok((report, divergent, max_drift, limit)) => AppResult {
            workload: w,
            races: report.total_races,
            warnings: report.total_warnings,
            regions: report.regions,
            accesses: report.accesses,
            schedules: sched.len(),
            divergent,
            max_drift,
            drift_limit: limit,
            failure: None,
        },
        Err(p) => AppResult {
            workload: w,
            races: 0,
            warnings: 0,
            regions: 0,
            accesses: 0,
            schedules: sched.len(),
            divergent: Vec::new(),
            max_drift: 0,
            drift_limit: 0,
            failure: Some(panic_message(p)),
        },
    }
}

/// Negative-control geometry: the racy sum runs 8 threads over 256
/// adversarial (mixed-magnitude) values, so schedule permutations
/// change the floating-point fold order.
pub const CONTROL_THREADS: usize = 8;
/// Values summed by the control kernel.
pub const CONTROL_VALUES: usize = 256;
/// Seed of the adversarial value stream.
pub const CONTROL_SEED: u64 = 2;

/// Bit pattern of the racy sum under `policy` with `nthreads` threads
/// (detector off; single hypernode — the kernel is tiny).
fn racy_bits(policy: SchedulePolicy, nthreads: usize, values: &[f64]) -> u64 {
    let mut rt = Runtime::new(Machine::spp1000(1)).with_schedule(policy);
    racy::racy_sum(&mut rt, nthreads, values).to_bits()
}

/// Decompose a permutation into adjacent transpositions: applying
/// `swap(i, i+1)` for each returned `i`, in order, to the identity
/// yields `perm` (bubble-sort decomposition).
pub fn adjacent_decomposition(perm: &[usize]) -> Vec<usize> {
    let mut cur = perm.to_vec();
    let mut ops = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..cur.len().saturating_sub(1) {
            if cur[i] > cur[i + 1] {
                cur.swap(i, i + 1);
                ops.push(i);
                changed = true;
            }
        }
    }
    ops.reverse();
    ops
}

/// Apply an adjacent-transposition list to the identity permutation.
pub fn apply_transpositions(n: usize, ops: &[usize]) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for &i in ops {
        p.swap(i, i + 1);
    }
    p
}

/// The replayable minimal reproducer the shrinker emits: enough to
/// re-run the diverging pair from scratch (`race_repro.json`).
#[derive(Debug, Clone)]
pub struct MinimalRepro {
    /// The kernel (currently always the racy sum).
    pub kernel: &'static str,
    /// Number of values summed.
    pub nvalues: usize,
    /// Seed of the adversarial value stream.
    pub values_seed: u64,
    /// Team size after shrinking.
    pub threads: usize,
    /// The minimal diverging replay order.
    pub schedule: Vec<usize>,
    /// `f64::to_bits` of the identity-order sum.
    pub identity_bits: u64,
    /// `f64::to_bits` of the permuted-order sum.
    pub permuted_bits: u64,
}

impl MinimalRepro {
    /// Re-run both orders from the recorded fields alone and confirm
    /// the divergence reproduces.
    pub fn replay_diverges(&self) -> bool {
        let values = racy::adversarial_values(self.nvalues, self.values_seed);
        let id = racy_bits(SchedulePolicy::Identity, self.threads, &values);
        let perm = racy_bits(
            SchedulePolicy::Explicit(self.schedule.clone()),
            self.threads,
            &values,
        );
        id == self.identity_bits && perm == self.permuted_bits && id != perm
    }

    /// Machine-readable form (`race_repro.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kernel", self.kernel)
            .with("nvalues", self.nvalues)
            .with("values_seed", self.values_seed)
            .with("threads", self.threads)
            .with("schedule", self.schedule.clone())
            .with("identity_bits", self.identity_bits)
            .with("permuted_bits", self.permuted_bits)
    }
}

/// The negative control's verdict.
#[derive(Debug, Clone)]
pub struct ControlResult {
    /// Races the detector reported (must be > 0).
    pub races: u64,
    /// Whether a finding names the `racy_acc` array.
    pub flagged_array: bool,
    /// Schedules whose sum diverged from identity (must be nonempty).
    pub diverged: Vec<String>,
    /// The shrunk reproducer.
    pub repro: Option<MinimalRepro>,
    /// Whether the reproducer replays from its recorded fields.
    pub replay_ok: bool,
    /// Panic message when the control crashed.
    pub failure: Option<String>,
}

impl ControlResult {
    /// Did the control behave as a negative control must: flagged by
    /// the detector, schedule-divergent, shrunk to ≤ 2 threads, and
    /// replayable?
    pub fn pass(&self) -> bool {
        self.failure.is_none()
            && self.races > 0
            && self.flagged_array
            && !self.diverged.is_empty()
            && self
                .repro
                .as_ref()
                .is_some_and(|r| r.threads <= 2 && !r.schedule.is_empty())
            && self.replay_ok
    }
}

/// Run the negative control: detect, fuzz, shrink, replay.
pub fn check_control(full: bool) -> ControlResult {
    let sched = schedules(full);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let values = racy::adversarial_values(CONTROL_VALUES, CONTROL_SEED);

        // 1. The detector must flag the unprotected read-modify-write.
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        racy::racy_sum(&mut rt, CONTROL_THREADS, &values);
        let report = rt.machine.race_report();
        let flagged_array = report.races.iter().any(|f| f.array == "racy_acc");

        // 2. The fuzzer must observe diverging sums under permutation.
        let identity_bits = racy_bits(SchedulePolicy::Identity, CONTROL_THREADS, &values);
        let mut diverged = Vec::new();
        let mut first_diverging: Option<SchedulePolicy> = None;
        for (label, policy) in sched.iter().skip(1) {
            let bits = racy_bits(policy.clone(), CONTROL_THREADS, &values);
            if bits != identity_bits {
                diverged.push(label.clone());
                if first_diverging.is_none() {
                    first_diverging = Some(policy.clone());
                }
            }
        }

        // 3. Shrink the failing permutation to a minimal transposition
        //    set with the fault grid's delta-debugger, then reduce the team:
        //    the smallest team where a single adjacent swap still
        //    diverges is the minimal reproducer.
        let repro = first_diverging.map(|policy| {
            let ops = adjacent_decomposition(&policy.order(CONTROL_THREADS));
            let shrunk = crate::grid::shrink(&ops, |subset| {
                let perm = apply_transpositions(CONTROL_THREADS, subset);
                racy_bits(SchedulePolicy::Explicit(perm), CONTROL_THREADS, &values) != identity_bits
            });
            let mut best: Option<(usize, Vec<usize>, u64, u64)> = None;
            for nt in 2..=CONTROL_THREADS {
                let perm = apply_transpositions(nt, &[0]);
                let id = racy_bits(SchedulePolicy::Identity, nt, &values);
                let swapped = racy_bits(SchedulePolicy::Explicit(perm.clone()), nt, &values);
                if swapped != id {
                    best = Some((nt, perm, id, swapped));
                    break;
                }
            }
            let (threads, schedule, id_bits, perm_bits) = best.unwrap_or_else(|| {
                // Fallback: keep the shrunk permutation at full size.
                let perm = apply_transpositions(CONTROL_THREADS, &shrunk);
                let bits = racy_bits(
                    SchedulePolicy::Explicit(perm.clone()),
                    CONTROL_THREADS,
                    &values,
                );
                (CONTROL_THREADS, perm, identity_bits, bits)
            });
            MinimalRepro {
                kernel: "racy-sum",
                nvalues: CONTROL_VALUES,
                values_seed: CONTROL_SEED,
                threads,
                schedule,
                identity_bits: id_bits,
                permuted_bits: perm_bits,
            }
        });
        let replay_ok = repro.as_ref().is_some_and(|r| r.replay_diverges());
        (report, flagged_array, diverged, repro, replay_ok)
    }));
    match out {
        Ok((report, flagged_array, diverged, repro, replay_ok)) => ControlResult {
            races: report.total_races,
            flagged_array,
            diverged,
            repro,
            replay_ok,
            failure: None,
        },
        Err(p) => ControlResult {
            races: 0,
            flagged_array: false,
            diverged: Vec::new(),
            repro: None,
            replay_ok: false,
            failure: Some(panic_message(p)),
        },
    }
}

/// A completed race campaign.
pub struct Campaign {
    /// Per-application verdicts.
    pub apps: Vec<AppResult>,
    /// The negative control's verdict.
    pub control: ControlResult,
    /// Measured steps per application.
    pub steps: usize,
    /// Whether the full schedule set ran.
    pub full: bool,
}

impl Campaign {
    /// True when every application passed and the control behaved.
    pub fn passed(&self) -> bool {
        self.apps.iter().all(|a| a.pass()) && self.control.pass()
    }

    /// The human-readable campaign table plus the control summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "workload",
            "races",
            "warnings",
            "regions",
            "accesses",
            "schedules",
            "drift",
            "limit",
            "divergent",
            "result",
        ]);
        for a in &self.apps {
            let result = match (&a.failure, a.pass()) {
                (Some(msg), _) => format!("FAIL {msg}"),
                (None, true) => "pass".to_string(),
                (None, false) => "FAIL".to_string(),
            };
            t.row(vec![
                a.workload.label().to_string(),
                a.races.to_string(),
                a.warnings.to_string(),
                a.regions.to_string(),
                a.accesses.to_string(),
                a.schedules.to_string(),
                a.max_drift.to_string(),
                a.drift_limit.to_string(),
                if a.divergent.is_empty() {
                    "none".to_string()
                } else {
                    a.divergent.join(" | ")
                },
                result,
            ]);
        }
        let mut out = t.render();
        let c = &self.control;
        out.push_str(&format!(
            "\nnegative control: racy-sum, {} threads, {} values, seed {}\n",
            CONTROL_THREADS, CONTROL_VALUES, CONTROL_SEED
        ));
        if let Some(msg) = &c.failure {
            out.push_str(&format!("  FAIL: {msg}\n"));
            return out;
        }
        out.push_str(&format!(
            "  detector: {} race(s){}\n",
            c.races,
            if c.flagged_array {
                " on racy_acc"
            } else {
                " (racy_acc NOT named)"
            }
        ));
        out.push_str(&format!(
            "  fuzzer:   diverged on {} of {} permuted schedules\n",
            c.diverged.len(),
            self.apps.first().map_or(0, |a| a.schedules - 1)
        ));
        match &c.repro {
            Some(r) => out.push_str(&format!(
                "  shrunk:   {} thread(s), schedule {:?}, replay {}\n",
                r.threads,
                r.schedule,
                if c.replay_ok {
                    "diverges"
                } else {
                    "DID NOT reproduce"
                }
            )),
            None => out.push_str("  shrunk:   no reproducer (fuzzer saw no divergence)\n"),
        }
        out.push_str(&format!(
            "  verdict:  {}\n",
            if c.pass() { "pass" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable form (the `BENCH_race.json` ci.sh asserts on,
    /// following the `BENCH_*.json` convention).
    pub fn to_json(&self) -> Json {
        let apps: Json = self
            .apps
            .iter()
            .map(|a| {
                let mut row = Json::obj()
                    .with("workload", a.workload.label())
                    .with("pass", a.pass())
                    .with("races", a.races)
                    .with("warnings", a.warnings)
                    .with("regions", a.regions)
                    .with("accesses", a.accesses)
                    .with("schedules", a.schedules)
                    .with("max_drift", a.max_drift)
                    .with("drift_limit", a.drift_limit)
                    .with("divergent", a.divergent.clone());
                if let Some(msg) = &a.failure {
                    row.push("failure", msg);
                }
                row
            })
            .collect();
        let c = &self.control;
        let (threads, schedule) = match &c.repro {
            Some(r) => (r.threads, r.schedule.clone()),
            None => (0, Vec::new()),
        };
        let control = Json::obj()
            .with("pass", c.pass())
            .with("races", c.races)
            .with("flagged_array", c.flagged_array)
            .with("diverged", c.diverged.clone())
            .with("repro_threads", threads)
            .with("repro_schedule", schedule)
            .with("replay_diverges", c.replay_ok);
        spp_scenario::report_head("race")
            .with("full", self.full)
            .with("steps", self.steps)
            .with("passed", self.passed())
            .with("apps", apps)
            .with("control", control)
    }
}

/// Run the full campaign at the harness options.
pub fn campaign(o: &Opts) -> Campaign {
    let apps = Workload::all()
        .into_iter()
        .map(|w| check_app(w, o.steps, o.full))
        .collect();
    Campaign {
        apps,
        control: check_control(o.full),
        steps: o.steps,
        full: o.full,
    }
}

/// Experiment entry point (`spp repro race`, and the `race` row of
/// `spp repro all`). Writes `BENCH_race.json` (plus `race_repro.json`
/// when a reproducer was shrunk) so a `spp repro all` sweep leaves the
/// same artifacts as the standalone binary, then panics when the
/// campaign fails so the harness records a FAIL.
pub fn run(o: &Opts) -> String {
    let c = campaign(o);
    let mut report = crate::write_bench("BENCH_race.json", &c.to_json());
    if let Some(r) = &c.control.repro {
        if let Err(e) =
            spp_scenario::write_report(&crate::repro_dir(), "race_repro.json", &r.to_json())
        {
            report = format!("[could not write report: {e}]");
        }
    }
    let text = emit(
        "race: happens-before detection + schedule-permutation fuzzing",
        &format!("{}\n{report}", c.render()),
    );
    assert!(c.passed(), "race campaign failed:\n{}", c.render());
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_decomposition_round_trips() {
        for policy in [
            SchedulePolicy::Reversed,
            SchedulePolicy::Shuffled { seed: 3 },
            SchedulePolicy::Shuffled { seed: 7 },
        ] {
            for n in [2, 5, 8] {
                let perm = policy.order(n);
                let ops = adjacent_decomposition(&perm);
                assert_eq!(apply_transpositions(n, &ops), perm, "{policy:?} n={n}");
            }
        }
    }

    #[test]
    fn the_schedule_set_has_at_least_eight_entries() {
        assert!(schedules(false).len() >= 8);
        assert!(schedules(true).len() > schedules(false).len());
        assert_eq!(schedules(false)[0].1, SchedulePolicy::Identity);
    }

    #[test]
    fn the_negative_control_is_flagged_diverging_and_shrinks_to_two_threads() {
        let c = check_control(false);
        assert!(c.failure.is_none(), "control crashed: {:?}", c.failure);
        assert!(c.races > 0, "detector missed the racy sum");
        assert!(c.flagged_array, "finding does not name racy_acc");
        assert!(!c.diverged.is_empty(), "no schedule diverged");
        let r = c.repro.as_ref().expect("no reproducer");
        assert!(
            r.threads <= 2,
            "reproducer not minimal: {} threads",
            r.threads
        );
        assert!(c.replay_ok, "reproducer does not replay");
        assert!(c.pass());
    }

    #[test]
    fn ppm_is_race_free_and_permutation_invariant_at_one_step() {
        let a = check_app(Workload::Ppm, 1, false);
        assert!(a.failure.is_none(), "ppm crashed: {:?}", a.failure);
        assert_eq!(a.races, 0, "ppm reported races");
        assert!(a.divergent.is_empty(), "ppm diverged: {:?}", a.divergent);
    }

    #[test]
    fn ppm_outcome_digest_is_pinned() {
        // The digest folds every state word byte by byte; pinning one
        // value shows a change of hasher leaves it where it was.
        let (o, _) = run_app(Workload::Ppm, &SchedulePolicy::Identity, 1, false);
        assert_eq!(o.digest, 0xa767_7ad0_defd_1196, "{:#018x}", o.digest);
    }

    fn repro() -> MinimalRepro {
        MinimalRepro {
            kernel: "racy-sum",
            nvalues: 4,
            values_seed: 9,
            threads: 2,
            schedule: vec![1, 0],
            identity_bits: 1,
            permuted_bits: 2,
        }
    }

    #[test]
    fn repro_json_has_the_replay_fields() {
        let doc = crate::parse_report(&repro().to_json());
        assert_eq!(doc.str_field("kernel"), Some("racy-sum"));
        assert_eq!(doc.int_field("threads"), Some(2));
        assert_eq!(doc.int_field("values_seed"), Some(9));
        let sched: Vec<_> = crate::report_array(&doc, "schedule")
            .iter()
            .map(|t| t.as_int())
            .collect();
        assert_eq!(sched, [Some(1), Some(0)]);
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        assert_eq!(
            repro().to_json().report(),
            "{\n\
             \x20 \"kernel\": \"racy-sum\",\n\
             \x20 \"nvalues\": 4,\n\
             \x20 \"values_seed\": 9,\n\
             \x20 \"threads\": 2,\n\
             \x20 \"schedule\": [1, 0],\n\
             \x20 \"identity_bits\": 1,\n\
             \x20 \"permuted_bits\": 2\n\
             }\n"
        );
        let app = |workload, divergent: &[&str], failure: Option<&str>| AppResult {
            workload,
            races: 1,
            warnings: 2,
            regions: 3,
            accesses: 4,
            schedules: 8,
            divergent: divergent.iter().map(|d| d.to_string()).collect(),
            max_drift: 5,
            drift_limit: 64,
            failure: failure.map(str::to_string),
        };
        let c = Campaign {
            apps: vec![
                app(Workload::Pic, &[], None),
                app(Workload::Fem, &["reversed", "shuffled-1"], Some("a\"b")),
            ],
            control: ControlResult {
                races: 3,
                flagged_array: true,
                diverged: vec!["reversed".to_string(), "shuffled-2".to_string()],
                repro: None,
                replay_ok: false,
                failure: None,
            },
            steps: 1,
            full: true,
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"race\",\n\
            \x20 \"full\": true,\n\
            \x20 \"steps\": 1,\n\
            \x20 \"passed\": false,\n\
            \x20 \"apps\": [\n\
            \x20   {\"workload\": \"pic\", \"pass\": false, \"races\": 1, \"warnings\": 2, \"regions\": 3, \"accesses\": 4, \"schedules\": 8, \"max_drift\": 5, \"drift_limit\": 64, \"divergent\": []},\n\
            \x20   {\"workload\": \"fem\", \"pass\": false, \"races\": 1, \"warnings\": 2, \"regions\": 3, \"accesses\": 4, \"schedules\": 8, \"max_drift\": 5, \"drift_limit\": 64, \"divergent\": [\"reversed\", \"shuffled-1\"], \"failure\": \"a\\\"b\"}\n\
            \x20 ],\n\
            \x20 \"control\": {\"pass\": false, \"races\": 3, \"flagged_array\": true, \"diverged\": [\"reversed\", \"shuffled-2\"], \"repro_threads\": 0, \"repro_schedule\": [], \"replay_diverges\": false}\n\
            }\n";
        assert_eq!(c.to_json().report(), expected);
    }

    #[test]
    fn campaign_json_parses_with_control_characters_in_a_failure() {
        let msg = "panicked \"here\"\tat\u{1} line\r\nC:\\path";
        let failed = AppResult {
            workload: Workload::Ppm,
            races: 0,
            warnings: 0,
            regions: 0,
            accesses: 0,
            schedules: 8,
            divergent: vec!["reversed: final state/results digest differs".to_string()],
            max_drift: 0,
            drift_limit: 64,
            failure: Some(msg.to_string()),
        };
        let c = Campaign {
            apps: vec![failed],
            control: ControlResult {
                races: 3,
                flagged_array: true,
                diverged: vec!["reversed".to_string()],
                repro: Some(repro()),
                replay_ok: true,
                failure: None,
            },
            steps: 1,
            full: false,
        };
        let doc = crate::parse_report(&c.to_json());
        assert_eq!(doc.str_field("experiment"), Some("race"));
        assert_eq!(doc.bool_field("passed"), Some(false));
        let app = &crate::report_array(&doc, "apps")[0];
        assert_eq!(app.str_field("workload"), Some("ppm"));
        assert_eq!(app.str_field("failure"), Some(msg));
        assert_eq!(crate::report_array(app, "divergent").len(), 1);
        let control = doc.get("control").expect("control object");
        assert_eq!(control.bool_field("pass"), Some(true));
        assert_eq!(control.int_field("repro_threads"), Some(2));
    }
}
