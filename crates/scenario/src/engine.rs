//! The supervised fleet runner.
//!
//! [`run_fleet`] executes a matrix of [`ScenarioSpec`]s across host
//! worker threads. Supervision is the point:
//!
//! * every cell runs under a [`HostSupervisor`] — a panic is caught
//!   and classified, a wall-clock overrun cancels the cell's
//!   [`CancelToken`] and detaches it;
//! * failed or timed-out cells are retried with exponential backoff,
//!   up to the spec's `retries`; cells that exhaust their retries are
//!   **quarantined** so the report calls out repeat offenders;
//! * kernel-stream cells that died mid-run resume from their latest
//!   SPPSNAP1 checkpoint on retry instead of starting over;
//! * golden expectations are gated bit-exactly, producing structured
//!   mismatch reports (field, expected, got) rather than panics;
//! * the fleet always finishes: `BENCH_scenarios.json` and the
//!   PASS/FAIL summary are produced even when every cell dies.
//!
//! The JSON report is deterministic — results are emitted in spec
//! order and host wall-clock times are kept out of it — so CI can
//! diff two runs byte-for-byte.

use crate::spec::{Expectation, ExperimentOpts, GoldenSpec, ScenarioKind, ScenarioSpec};
use crate::workload::{run_builtin, run_workload, CheckpointPaths, WorkloadOutcome};
use spp_core::json::Json;
use spp_core::{CancelToken, HostSupervisor, JsonlAppender, JsonlRead, MemStats, Supervised};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema version of every `BENCH_*.json` report; bump on breaking
/// layout changes so downstream tooling can dispatch.
pub const REPORT_SCHEMA: i64 = 1;

/// The head every `BENCH_*.json` report starts with: the schema
/// version and the experiment that wrote it.
pub fn report_head(experiment: &str) -> Json {
    Json::obj()
        .with("schema_version", REPORT_SCHEMA)
        .with("experiment", experiment)
}

/// Write `doc` in the report layout to `dir/name` (the directory is
/// created if needed) atomically, so a byte-pin gate never reads a
/// torn report. Returns the file's path. Every `BENCH_*.json` is
/// written here.
pub fn write_report(dir: &Path, name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    spp_core::atomic_write_str(&path, &doc.report())?;
    Ok(path)
}

/// A registered experiment runner: the experiments are injected by
/// the caller (the bench crate) so the engine does not depend on
/// them.
pub type ExperimentFn = fn(&ExperimentOpts) -> String;

/// The experiment registry: ordered `(id, runner)` pairs.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(String, ExperimentFn)>,
}

impl Registry {
    /// An empty registry (workload/builtin-only fleets).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `id`, replacing any previous binding.
    pub fn register(&mut self, id: &str, f: ExperimentFn) {
        self.entries.retain(|(n, _)| n != id);
        self.entries.push((id.to_string(), f));
    }

    /// Look up `id`.
    pub fn get(&self, id: &str) -> Option<ExperimentFn> {
        self.entries.iter().find(|(n, _)| n == id).map(|(_, f)| *f)
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// How a cell's final attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Completed and matched its golden expectations (if any).
    Pass,
    /// Panicked or returned an error.
    Fail {
        /// The panic payload or error string.
        error: String,
    },
    /// Exceeded its wall-clock budget.
    Timeout,
    /// Completed but diverged from its golden expectations.
    GoldenMismatch {
        /// Structured `(field, expected, got)` rows.
        diffs: Vec<(String, u64, u64)>,
    },
}

impl Status {
    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Fail { .. } => "fail",
            Status::Timeout => "timeout",
            Status::GoldenMismatch { .. } => "golden-mismatch",
        }
    }

    /// The expectation this status fulfils.
    fn as_expectation(&self) -> Expectation {
        match self {
            Status::Pass => Expectation::Pass,
            Status::Fail { .. } => Expectation::Fail,
            Status::Timeout => Expectation::Timeout,
            Status::GoldenMismatch { .. } => Expectation::GoldenMismatch,
        }
    }
}

/// The full record of one scenario's execution.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Final status.
    pub status: Status,
    /// Attempts made (1 = no retries needed).
    pub attempts: u32,
    /// True when the cell exhausted its retries and was quarantined.
    pub quarantined: bool,
    /// True when the final status matches the spec's declared
    /// expectation — the fleet's pass criterion.
    pub as_expected: bool,
    /// Deterministic observables of the last completed run (workload
    /// cells only).
    pub outcome: Option<WorkloadOutcome>,
    /// True when some attempt resumed from a checkpoint.
    pub resumed: bool,
    /// Host seconds for the cell (all attempts; reported in the text
    /// summary only, never in the JSON).
    pub host_secs: f64,
}

/// The whole fleet's report.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-scenario results, in spec order.
    pub results: Vec<ScenarioResult>,
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Host worker threads executing cells (min 1).
    pub workers: usize,
    /// Directory for checkpoints (kernel-stream resume); `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Cap applied on top of each spec's own timeout, seconds
    /// (`None` = spec timeouts used as-is).
    pub max_timeout_secs: Option<f64>,
    /// When set, the fleet appends one JSON line per cell lifecycle
    /// event (`start`, `retry`, `end`) to this file as it runs, so
    /// long fleets are observable live, not just post-mortem. The
    /// stream carries host wall-clock times and therefore never feeds
    /// `BENCH_scenarios.json`.
    pub heartbeat_path: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            checkpoint_dir: None,
            max_timeout_secs: None,
            heartbeat_path: None,
        }
    }
}

/// Shared JSONL telemetry sink: one fleet-wide file, one line per
/// event, each line written whole under a mutex so concurrent worker
/// threads never interleave bytes mid-line, and flushed per record
/// (the [`JsonlAppender`] policy) so a crash can tear at most the
/// final line — which [`read_heartbeat_stream`] skips with a count.
/// IO failures are swallowed — telemetry must never fail a cell.
struct HeartbeatLog {
    file: Mutex<JsonlAppender>,
    t0: Instant,
}

/// Read a heartbeat JSONL stream back tolerantly: complete records in
/// order, with a truncated final record (the partial line a crash
/// mid-append leaves) skipped and counted in [`JsonlRead::truncated`]
/// rather than surfaced as a parse error.
pub fn read_heartbeat_stream(path: &Path) -> std::io::Result<JsonlRead> {
    spp_core::read_jsonl_tolerant(path)
}

impl HeartbeatLog {
    fn create(path: &Path) -> Option<HeartbeatLog> {
        // A fresh stream per fleet: remove any previous run's file,
        // then append (flushing per record).
        let _ = std::fs::remove_file(path);
        let file = JsonlAppender::open(path, false).ok()?;
        Some(HeartbeatLog {
            file: Mutex::new(file),
            t0: Instant::now(),
        })
    }

    /// Emit one heartbeat. `progress` is the cell's simulated clock as
    /// last published through its [`CancelToken`] — the watchdog clock
    /// made host-visible — and `wall_ms` is derived from the fleet's
    /// start so events from different cells share one timeline.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        cell: &str,
        event: &str,
        state: &str,
        attempt: u32,
        retries: u32,
        progress: u64,
        quarantined: Option<bool>,
        error: Option<&str>,
    ) {
        let mut line = Json::obj()
            .with("cell", cell)
            .with("event", event)
            .with("state", state)
            .with("attempt", attempt)
            .with("retries", retries)
            .with("progress_cycles", progress)
            .with("wall_ms", self.t0.elapsed().as_millis());
        if let Some(q) = quarantined {
            line.push("quarantined", q);
        }
        if let Some(e) = error {
            line.push("error", e);
        }
        if let Ok(mut f) = self.file.lock() {
            let _ = f.append(&line.compact());
        }
    }
}

fn golden_diffs(golden: &GoldenSpec, out: &WorkloadOutcome) -> Vec<(String, u64, u64)> {
    let got = |name: &str| -> u64 {
        let s: &MemStats = &out.stats;
        match name {
            "cycles" => out.cycles,
            "reads" => s.reads,
            "writes" => s.writes,
            "hits" => s.hits,
            "sci_fetches" => s.sci_fetches,
            "ring_stalls" => s.ring_stalls,
            "uncached_ops" => s.uncached_ops,
            _ => unreachable!("unknown golden field {name}"),
        }
    };
    golden
        .fields()
        .into_iter()
        .filter_map(|(name, want)| {
            let have = got(name);
            (have != want).then(|| (name.to_string(), want, have))
        })
        .collect()
}

/// Execute one attempt of one scenario under supervision: the cell
/// runs on a crash-isolated thread with a wall-clock budget, panics
/// are contained and classified, golden expectations are gated, and a
/// kernel-stream cell resumes from `ckpt` when the pair exists.
///
/// This is the fleet's unit of work, exported so long-running callers
/// (the `spp-serve` job service) can drive their own admission,
/// retry, and preemption policies around the same supervised core the
/// fleet uses.
pub fn run_attempt(
    spec: &ScenarioSpec,
    registry: &Registry,
    ckpt: Option<&CheckpointPaths>,
    timeout: Duration,
    cancel: &CancelToken,
) -> (Status, Option<WorkloadOutcome>) {
    let supervisor = HostSupervisor::new(timeout);

    // Clone what the worker closure needs; specs are cheap.
    let spec2 = spec.clone();
    let ckpt2 = ckpt.cloned();
    let exp = match &spec.kind {
        ScenarioKind::Experiment(e) => {
            let Some(f) = registry.get(&e.id) else {
                return (
                    Status::Fail {
                        error: format!("no experiment {:?} in the registry", e.id),
                    },
                    None,
                );
            };
            Some((f, e.opts.clone()))
        }
        _ => None,
    };

    let cancel2 = cancel.clone();
    let supervised = supervisor.supervise(
        cancel,
        move || -> Result<Option<WorkloadOutcome>, String> {
            match &spec2.kind {
                ScenarioKind::Workload(w) => run_workload(w, &cancel2, ckpt2.as_ref()).map(Some),
                ScenarioKind::Builtin(op) => run_builtin(op, &cancel2).map(|_| None),
                ScenarioKind::Experiment(_) => {
                    let (f, opts) = exp.expect("experiment runner resolved above");
                    f(&opts);
                    Ok(None)
                }
            }
        },
    );

    match supervised {
        Supervised::Finished(Ok(outcome)) => {
            if let Some(out) = outcome {
                let diffs = golden_diffs(&spec.golden, &out);
                if diffs.is_empty() {
                    (Status::Pass, Some(out))
                } else {
                    (Status::GoldenMismatch { diffs }, Some(out))
                }
            } else {
                (Status::Pass, None)
            }
        }
        Supervised::Finished(Err(e)) => (Status::Fail { error: e }, None),
        Supervised::Panicked(msg) => (Status::Fail { error: msg }, None),
        Supervised::TimedOut { .. } => (Status::Timeout, None),
    }
}

/// Run the whole matrix. Always returns a complete report — a
/// panicking, hanging, or diverging cell is contained and classified,
/// never allowed to abort the fleet.
pub fn run_fleet(specs: &[ScenarioSpec], registry: &Registry, cfg: &FleetConfig) -> FleetReport {
    let n = specs.len();
    let slots: Vec<Mutex<Option<ScenarioResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.max(1).min(n.max(1));
    let heartbeat = cfg.heartbeat_path.as_deref().and_then(HeartbeatLog::create);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run_cell(&specs[i], registry, cfg, heartbeat.as_ref());
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });

    FleetReport {
        results: slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("every cell ran"))
            .collect(),
    }
}

/// Run one cell: attempts, backoff, checkpoint resume, quarantine.
fn run_cell(
    spec: &ScenarioSpec,
    registry: &Registry,
    cfg: &FleetConfig,
    heartbeat: Option<&HeartbeatLog>,
) -> ScenarioResult {
    let t0 = std::time::Instant::now();
    let mut timeout_secs = spec.timeout_secs;
    if let Some(cap) = cfg.max_timeout_secs {
        timeout_secs = timeout_secs.min(cap);
    }
    let timeout = Duration::from_secs_f64(timeout_secs);

    let wants_checkpoint = matches!(
        &spec.kind,
        ScenarioKind::Workload(w) if w.checkpoint_every > 0
    );
    let ckpt = match (&cfg.checkpoint_dir, wants_checkpoint) {
        (Some(dir), true) => {
            let _ = std::fs::create_dir_all(dir);
            let paths = CheckpointPaths::new(dir, &spec.name);
            // A stale checkpoint from a previous fleet must not seed
            // attempt 1.
            paths.remove();
            Some(paths)
        }
        _ => None,
    };

    let mut attempts = 0;
    let mut resumed = false;
    let mut progress = 0u64;
    let mut last = (
        Status::Fail {
            error: "scenario never attempted".into(),
        },
        None,
    );
    if let Some(hb) = heartbeat {
        hb.emit(&spec.name, "start", "running", 1, 0, 0, None, None);
    }
    while attempts <= spec.retries {
        if attempts > 0 {
            let backoff = spp_core::retry_backoff(spec.backoff_ms, attempts - 1);
            std::thread::sleep(Duration::from_millis(backoff));
        }
        attempts += 1;
        // A fresh token per attempt: a cancelled token from a
        // timed-out attempt must not abort the retry. Its progress
        // clock survives the attempt for telemetry.
        let cancel = CancelToken::new();
        last = run_attempt(spec, registry, ckpt.as_ref(), timeout, &cancel);
        progress = cancel.progress();
        if let Some(out) = &last.1 {
            if out.resumed_from.is_some() {
                resumed = true;
            }
        }
        match &last.0 {
            // Pass and golden-mismatch are both *completed* runs —
            // deterministic cells won't golden-diverge differently on
            // retry, so only failures and timeouts retry.
            Status::Pass | Status::GoldenMismatch { .. } => break,
            Status::Fail { .. } | Status::Timeout => {
                if attempts <= spec.retries {
                    if let Some(hb) = heartbeat {
                        hb.emit(
                            &spec.name,
                            "retry",
                            last.0.label(),
                            attempts,
                            attempts - 1,
                            progress,
                            None,
                            None,
                        );
                    }
                }
            }
        }
    }
    if let Some(c) = &ckpt {
        c.remove();
    }

    let (status, outcome) = last;
    let exhausted =
        attempts > spec.retries && matches!(status, Status::Fail { .. } | Status::Timeout);
    let quarantined = exhausted && spec.retries > 0;
    if let Some(hb) = heartbeat {
        hb.emit(
            &spec.name,
            "end",
            status.label(),
            attempts,
            attempts - 1,
            progress,
            Some(quarantined),
            match &status {
                Status::Fail { error } => Some(error.as_str()),
                _ => None,
            },
        );
    }
    ScenarioResult {
        as_expected: status.as_expectation() == spec.expect,
        quarantined,
        name: spec.name.clone(),
        status,
        attempts,
        resumed,
        outcome,
        host_secs: t0.elapsed().as_secs_f64(),
    }
}

impl FleetReport {
    /// True when every cell's final status matches its declared
    /// expectation — the fleet's (and CI's) pass criterion.
    pub fn all_as_expected(&self) -> bool {
        self.results.iter().all(|r| r.as_expected)
    }

    /// Counts by final status label, plus quarantines:
    /// `(pass, fail, timeout, golden_mismatch, quarantined)`.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for r in &self.results {
            match r.status {
                Status::Pass => c.0 += 1,
                Status::Fail { .. } => c.1 += 1,
                Status::Timeout => c.2 += 1,
                Status::GoldenMismatch { .. } => c.3 += 1,
            }
            if r.quarantined {
                c.4 += 1;
            }
        }
        c
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<28} {:>16} {:>9} {:>8} {:>6} {:>8}  notes\n",
            "scenario", "status", "attempts", "retries", "ok?", "secs"
        ));
        for r in &self.results {
            let mut notes = Vec::new();
            if r.quarantined {
                notes.push("QUARANTINED".to_string());
            }
            if r.resumed {
                notes.push("resumed-from-checkpoint".to_string());
            }
            if let Some(out) = &r.outcome {
                if out.rollbacks > 0 {
                    notes.push(format!("rolled-back-{}x", out.rollbacks));
                }
            }
            match &r.status {
                Status::Fail { error } => {
                    let mut e = error.replace('\n', " ");
                    if e.len() > 60 {
                        e.truncate(60);
                        e.push('…');
                    }
                    notes.push(e);
                }
                Status::GoldenMismatch { diffs } => {
                    for (f, want, got) in diffs {
                        notes.push(format!("{f}: want {want}, got {got}"));
                    }
                }
                _ => {}
            }
            s.push_str(&format!(
                "{:<28} {:>16} {:>9} {:>8} {:>6} {:>8.2}  {}\n",
                r.name,
                r.status.label(),
                r.attempts,
                r.attempts.saturating_sub(1),
                if r.as_expected { "yes" } else { "NO" },
                r.host_secs,
                notes.join("; ")
            ));
        }
        let (p, f, t, g, q) = self.counts();
        s.push_str(&format!(
            "\n{} scenarios: {p} pass, {f} fail, {t} timeout, {g} golden-mismatch, {q} quarantined — {}\n",
            self.results.len(),
            if self.all_as_expected() {
                "ALL AS EXPECTED"
            } else {
                "UNEXPECTED OUTCOMES"
            }
        ));
        s
    }

    /// Deterministic JSON for `BENCH_scenarios.json`: spec order, no
    /// host wall-clock, stable field order — two identical fleets
    /// produce byte-identical files.
    pub fn to_json(&self) -> Json {
        let (p, f, t, g, q) = self.counts();
        let summary = Json::obj()
            .with("total", self.results.len())
            .with("pass", p)
            .with("fail", f)
            .with("timeout", t)
            .with("golden_mismatch", g)
            .with("quarantined", q)
            .with("all_as_expected", self.all_as_expected());
        let results: Json = self.results.iter().map(result_json).collect();
        report_head("scenarios")
            .with("summary", summary)
            .with("results", results)
    }
}

/// One `results` row of `BENCH_scenarios.json`.
fn result_json(r: &ScenarioResult) -> Json {
    let mut row = Json::obj()
        .with("name", &r.name)
        .with("status", r.status.label())
        .with("attempts", r.attempts)
        .with("as_expected", r.as_expected)
        .with("quarantined", r.quarantined)
        .with("resumed", r.resumed);
    match &r.status {
        Status::Fail { error } => row.push("error", error),
        Status::GoldenMismatch { diffs } => {
            let diffs: Json = diffs
                .iter()
                .map(|(field, want, got)| {
                    Json::obj()
                        .with("field", field)
                        .with("expected", *want)
                        .with("got", *got)
                })
                .collect();
            row.push("golden_diffs", diffs);
        }
        _ => {}
    }
    if let Some(out) = &r.outcome {
        row = out.with_observables(row);
        // Appended only when nonzero so pre-recovery reports stay
        // byte-identical.
        if out.stats.recoveries > 0 || out.rollbacks > 0 {
            row.push("recoveries", out.stats.recoveries);
            row.push("rollbacks", out.rollbacks);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BuiltinOp, ScenarioSpec, WorkloadApp};

    fn quick(mut spec: ScenarioSpec, timeout: f64) -> ScenarioSpec {
        spec.timeout_secs = timeout;
        spec
    }

    #[test]
    fn a_panicking_cell_is_contained_and_classified() {
        let specs = vec![
            {
                let mut s = ScenarioSpec::builtin(
                    "boom",
                    BuiltinOp::Panic {
                        message: "deliberate".into(),
                    },
                );
                s.expect = Expectation::Fail;
                s
            },
            ScenarioSpec::builtin("fine", BuiltinOp::Noop),
        ];
        let report = run_fleet(&specs, &Registry::new(), &FleetConfig::default());
        assert_eq!(report.results.len(), 2);
        let boom = &report.results[0];
        assert!(matches!(&boom.status, Status::Fail { error } if error.contains("deliberate")));
        assert!(boom.as_expected);
        assert!(report.results[1].as_expected);
        assert!(report.all_as_expected());
    }

    #[test]
    fn a_hanging_cell_times_out_without_stalling_the_fleet() {
        let mut hang = quick(ScenarioSpec::builtin("hang", BuiltinOp::Hang), 0.2);
        hang.expect = Expectation::Timeout;
        let specs = vec![hang, ScenarioSpec::builtin("ok", BuiltinOp::Noop)];
        let report = run_fleet(&specs, &Registry::new(), &FleetConfig::default());
        assert_eq!(report.results[0].status, Status::Timeout);
        assert!(report.all_as_expected());
    }

    #[test]
    fn golden_mismatch_is_a_structured_diff_not_a_panic() {
        let mut s = ScenarioSpec::workload("tiny-kernel", WorkloadApp::KernelStream { elems: 64 });
        s.golden.cycles = Some(1); // wrong on purpose
        s.expect = Expectation::GoldenMismatch;
        let report = run_fleet(&[s], &Registry::new(), &FleetConfig::default());
        let r = &report.results[0];
        let Status::GoldenMismatch { diffs } = &r.status else {
            panic!("expected golden mismatch, got {:?}", r.status);
        };
        assert_eq!(diffs[0].0, "cycles");
        assert_eq!(diffs[0].1, 1);
        assert!(diffs[0].2 > 1);
        assert!(r.as_expected);
    }

    #[test]
    fn retries_exhausted_means_quarantine() {
        let mut s = ScenarioSpec::builtin(
            "flaky",
            BuiltinOp::Panic {
                message: "always".into(),
            },
        );
        s.retries = 2;
        s.backoff_ms = 1;
        s.expect = Expectation::Fail;
        let report = run_fleet(&[s], &Registry::new(), &FleetConfig::default());
        let r = &report.results[0];
        assert_eq!(r.attempts, 3);
        assert!(r.quarantined);
        assert!(r.as_expected);
        let (_, _, _, _, q) = report.counts();
        assert_eq!(q, 1);
    }

    #[test]
    fn json_is_deterministic_across_runs() {
        let specs = vec![
            ScenarioSpec::workload("k64", WorkloadApp::KernelStream { elems: 64 }),
            ScenarioSpec::builtin("nop", BuiltinOp::Noop),
        ];
        let a = run_fleet(&specs, &Registry::new(), &FleetConfig::default())
            .to_json()
            .report();
        let b = run_fleet(&specs, &Registry::new(), &FleetConfig::default())
            .to_json()
            .report();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
    }

    #[test]
    fn heartbeats_cover_every_cell_and_leave_the_json_untouched() {
        let dir = std::env::temp_dir().join("spp-scenario-heartbeat-test");
        std::fs::create_dir_all(&dir).unwrap();
        let hb_path = dir.join("heartbeat.jsonl");

        let mut flaky = ScenarioSpec::builtin(
            "flaky",
            BuiltinOp::Panic {
                message: "always".into(),
            },
        );
        flaky.retries = 2;
        flaky.backoff_ms = 1;
        flaky.expect = Expectation::Fail;
        let specs = vec![
            flaky,
            ScenarioSpec::workload("k64", WorkloadApp::KernelStream { elems: 64 }),
            ScenarioSpec::builtin("nop", BuiltinOp::Noop),
        ];

        let silent = run_fleet(&specs, &Registry::new(), &FleetConfig::default())
            .to_json()
            .report();
        let cfg = FleetConfig {
            heartbeat_path: Some(hb_path.clone()),
            ..FleetConfig::default()
        };
        let observed = run_fleet(&specs, &Registry::new(), &cfg);
        // Telemetry never perturbs the deterministic report.
        assert_eq!(observed.to_json().report(), silent);

        let stream = std::fs::read_to_string(&hb_path).unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        for l in &lines {
            assert!(l.starts_with("{\"cell\": \""), "unparseable line: {l}");
            assert!(l.ends_with('}'), "unparseable line: {l}");
            for field in [
                "\"event\": ",
                "\"state\": ",
                "\"retries\": ",
                "\"progress_cycles\": ",
                "\"wall_ms\": ",
            ] {
                assert!(l.contains(field), "line missing {field}: {l}");
            }
        }
        let of = |cell: &str, event: &str| -> Vec<&&str> {
            lines
                .iter()
                .filter(|l| {
                    let v = spp_core::json::parse(l).unwrap();
                    v.str_field("cell") == Some(cell) && v.str_field("event") == Some(event)
                })
                .collect()
        };
        // Every cell starts and ends, including the quarantined one.
        for cell in ["flaky", "k64", "nop"] {
            assert_eq!(of(cell, "start").len(), 1, "{stream}");
            assert_eq!(of(cell, "end").len(), 1, "{stream}");
        }
        // Two retries show up as two retry heartbeats, and the end
        // event records the quarantine.
        assert_eq!(of("flaky", "retry").len(), 2, "{stream}");
        let end = of("flaky", "end")[0];
        assert!(end.contains("\"state\": \"fail\""), "{end}");
        assert!(end.contains("\"retries\": 2"), "{end}");
        assert!(end.contains("\"quarantined\": true"), "{end}");
        // A failed cell's end event carries its error text; others
        // carry none.
        assert!(
            end.contains("\"error\": \"") && end.contains("always"),
            "{end}"
        );
        assert!(!of("nop", "end")[0].contains("\"error\""), "{stream}");
        // The workload published its simulated clock on the way out.
        let kend = of("k64", "end")[0];
        assert!(!kend.contains("\"progress_cycles\": 0,"), "{kend}");
        std::fs::remove_file(&hb_path).unwrap();
    }

    #[test]
    fn control_characters_in_errors_never_reach_a_report_raw() {
        let dir = std::env::temp_dir().join("spp-scenario-escape-test");
        std::fs::create_dir_all(&dir).unwrap();
        let hb_path = dir.join("heartbeat.jsonl");
        let mut cell = ScenarioSpec::builtin(
            "ctl",
            BuiltinOp::Panic {
                message: "tab\there, start-of-heading \u{1}".into(),
            },
        );
        cell.expect = Expectation::Fail;
        let cfg = FleetConfig {
            heartbeat_path: Some(hb_path.clone()),
            ..FleetConfig::default()
        };
        let json = run_fleet(&[cell], &Registry::new(), &cfg)
            .to_json()
            .report();
        let stream = std::fs::read_to_string(&hb_path).unwrap();
        assert!(
            json.contains("tab\\there, start-of-heading \\u0001"),
            "{json}"
        );
        assert!(
            stream.contains("tab\\there, start-of-heading \\u0001"),
            "{stream}"
        );
        // Newlines separate records and fields; no other byte below
        // 0x20 may appear, so none sits raw inside a string.
        for doc in [&json, &stream] {
            assert!(doc.bytes().all(|b| b >= 0x20 || b == b'\n'), "{doc:?}");
        }
        std::fs::remove_file(&hb_path).unwrap();
    }

    #[test]
    fn heartbeat_reader_tolerates_a_crash_torn_final_line() {
        let dir = std::env::temp_dir().join("spp-scenario-heartbeat-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let hb_path = dir.join("heartbeat.jsonl");
        let specs = vec![ScenarioSpec::builtin("nop", BuiltinOp::Noop)];
        let cfg = FleetConfig {
            heartbeat_path: Some(hb_path.clone()),
            ..FleetConfig::default()
        };
        run_fleet(&specs, &Registry::new(), &cfg);
        let clean = read_heartbeat_stream(&hb_path).unwrap();
        assert_eq!(clean.lines.len(), 2, "start + end");
        assert_eq!(clean.truncated, 0);

        // Simulate a kill mid-append: the stream ends in a partial
        // record. Every complete record must survive, the torn one is
        // counted, and nothing errors.
        let mut bytes = std::fs::read(&hb_path).unwrap();
        bytes.extend_from_slice(b"{\"cell\": \"nop\", \"event\": \"st");
        std::fs::write(&hb_path, &bytes).unwrap();
        let torn = read_heartbeat_stream(&hb_path).unwrap();
        assert_eq!(torn.lines, clean.lines);
        assert_eq!(torn.truncated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_has_host_columns_the_json_never_sees() {
        let mut s = ScenarioSpec::builtin(
            "flaky",
            BuiltinOp::Panic {
                message: "always".into(),
            },
        );
        s.retries = 1;
        s.backoff_ms = 1;
        s.expect = Expectation::Fail;
        let report = run_fleet(&[s], &Registry::new(), &FleetConfig::default());
        let text = report.render();
        assert!(text.contains("retries"), "{text}");
        assert!(text.contains("secs"), "{text}");
        // One retry consumed, rendered in its own column.
        let row = text.lines().nth(1).unwrap();
        assert!(row.contains("flaky"), "{row}");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[2], "2", "attempts column: {row}");
        assert_eq!(cols[3], "1", "retries column: {row}");
        // Host wall-clock stays out of the byte-stable JSON.
        let json = report.to_json().report();
        assert!(!json.contains("secs"), "{json}");
        assert!(!json.contains("wall_ms"), "{json}");
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let report = FleetReport {
            results: vec![
                ScenarioResult {
                    name: "alpha".into(),
                    status: Status::Pass,
                    attempts: 1,
                    quarantined: false,
                    as_expected: true,
                    outcome: None,
                    resumed: false,
                    host_secs: 12.5,
                },
                ScenarioResult {
                    name: "beta".into(),
                    status: Status::Fail {
                        error: "boom".into(),
                    },
                    attempts: 3,
                    quarantined: true,
                    as_expected: false,
                    outcome: None,
                    resumed: false,
                    host_secs: 0.25,
                },
            ],
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"scenarios\",\n\
            \x20 \"summary\": {\"total\": 2, \"pass\": 1, \"fail\": 1, \"timeout\": 0, \"golden_mismatch\": 0, \"quarantined\": 1, \"all_as_expected\": false},\n\
            \x20 \"results\": [\n\
            \x20   {\"name\": \"alpha\", \"status\": \"pass\", \"attempts\": 1, \"as_expected\": true, \"quarantined\": false, \"resumed\": false},\n\
            \x20   {\"name\": \"beta\", \"status\": \"fail\", \"attempts\": 3, \"as_expected\": false, \"quarantined\": true, \"resumed\": false, \"error\": \"boom\"}\n\
            \x20 ]\n}\n";
        assert_eq!(report.to_json().report(), expected);
    }

    #[test]
    fn report_json_bytes_are_pinned_for_outcomes_and_golden_diffs() {
        let outcome = |recoveries, rollbacks| WorkloadOutcome {
            cycles: 900,
            stats: MemStats {
                reads: 1,
                writes: 2,
                hits: 3,
                sci_fetches: 4,
                ring_stalls: 5,
                uncached_ops: 6,
                recoveries,
                ..MemStats::default()
            },
            steps_run: 2,
            resumed_from: Some(1),
            checkpoints_written: 1,
            rollbacks,
        };
        let result = |name: &str, status, outcome| ScenarioResult {
            name: name.into(),
            status,
            attempts: 2,
            quarantined: false,
            as_expected: true,
            outcome: Some(outcome),
            resumed: true,
            host_secs: 1.0,
        };
        let report = FleetReport {
            results: vec![
                result(
                    "g\u{e9}m",
                    Status::GoldenMismatch {
                        diffs: vec![("cycles".into(), 800, 900), ("hits".into(), 2, 3)],
                    },
                    outcome(0, 0),
                ),
                result("rec", Status::Pass, outcome(7, 1)),
                result("t", Status::Timeout, outcome(0, 0)),
            ],
        };
        let expected = "{\n\
            \x20 \"schema_version\": 1,\n\
            \x20 \"experiment\": \"scenarios\",\n\
            \x20 \"summary\": {\"total\": 3, \"pass\": 1, \"fail\": 0, \"timeout\": 1, \"golden_mismatch\": 1, \"quarantined\": 0, \"all_as_expected\": true},\n\
            \x20 \"results\": [\n\
            \x20   {\"name\": \"g\\u00e9m\", \"status\": \"golden-mismatch\", \"attempts\": 2, \"as_expected\": true, \"quarantined\": false, \"resumed\": true, \"golden_diffs\": [{\"field\": \"cycles\", \"expected\": 800, \"got\": 900}, {\"field\": \"hits\", \"expected\": 2, \"got\": 3}], \"cycles\": 900, \"reads\": 1, \"writes\": 2, \"hits\": 3, \"sci_fetches\": 4, \"ring_stalls\": 5, \"uncached_ops\": 6},\n\
            \x20   {\"name\": \"rec\", \"status\": \"pass\", \"attempts\": 2, \"as_expected\": true, \"quarantined\": false, \"resumed\": true, \"cycles\": 900, \"reads\": 1, \"writes\": 2, \"hits\": 3, \"sci_fetches\": 4, \"ring_stalls\": 5, \"uncached_ops\": 6, \"recoveries\": 7, \"rollbacks\": 1},\n\
            \x20   {\"name\": \"t\", \"status\": \"timeout\", \"attempts\": 2, \"as_expected\": true, \"quarantined\": false, \"resumed\": true, \"cycles\": 900, \"reads\": 1, \"writes\": 2, \"hits\": 3, \"sci_fetches\": 4, \"ring_stalls\": 5, \"uncached_ops\": 6}\n\
            \x20 ]\n}\n";
        assert_eq!(report.to_json().report(), expected);
        let empty = FleetReport {
            results: Vec::new(),
        };
        assert!(empty
            .to_json()
            .report()
            .ends_with("\"results\": [\n  ]\n}\n"));
    }

    #[test]
    fn heartbeat_line_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("spp-hb-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let log = HeartbeatLog::create(&path).unwrap();
        log.emit("c\"1", "start", "running", 1, 0, 0, None, None);
        log.emit("c\"1", "end", "fail", 3, 2, 77, Some(true), Some("boom\tx"));
        let lines = read_heartbeat_stream(&path).unwrap().lines;
        // wall_ms is the one host-clock field; blank its digits.
        let lines: Vec<String> = lines
            .iter()
            .map(|l| {
                let key = "\"wall_ms\": ";
                let at = l.find(key).unwrap() + key.len();
                let end = at + l[at..].bytes().take_while(u8::is_ascii_digit).count();
                format!("{}W{}", &l[..at], &l[end..])
            })
            .collect();
        assert_eq!(
            lines,
            [
                "{\"cell\": \"c\\\"1\", \"event\": \"start\", \"state\": \"running\", \"attempt\": 1, \"retries\": 0, \"progress_cycles\": 0, \"wall_ms\": W}",
                "{\"cell\": \"c\\\"1\", \"event\": \"end\", \"state\": \"fail\", \"attempt\": 3, \"retries\": 2, \"progress_cycles\": 77, \"wall_ms\": W, \"quarantined\": true, \"error\": \"boom\\tx\"}",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_cells_go_through_the_registry() {
        fn fake(_o: &ExperimentOpts) -> String {
            "ran".into()
        }
        let mut reg = Registry::new();
        reg.register("fake", fake);
        let spec = ScenarioSpec::experiment("fake-cell", "fake");
        let report = run_fleet(&[spec], &reg, &FleetConfig::default());
        assert_eq!(report.results[0].status, Status::Pass);

        let missing = ScenarioSpec::experiment("ghost", "not-there");
        let report = run_fleet(&[missing], &reg, &FleetConfig::default());
        assert!(
            matches!(&report.results[0].status, Status::Fail { error } if error.contains("registry"))
        );
    }
}
