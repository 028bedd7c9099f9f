//! The declarative scenario spec.
//!
//! One TOML file describes one cell of the evaluation matrix: the
//! machine topology, the workload, the thread placement, the fault
//! plan, the schedule policy, the trace sink, the supervision limits,
//! and optional golden expectations. [`ScenarioSpec::from_toml_str`]
//! parses and validates a file; [`ScenarioSpec::to_toml_string`]
//! emits the canonical form (parse → serialize → parse round-trips,
//! property-tested in `tests/roundtrip.rs`).

use crate::toml::{self, Table, Value};
use spp_core::{FaultEvent, FaultPlan, ProtocolKind};
use std::fmt;

/// The spec schema this build reads and writes.
pub const SPEC_SCHEMA: i64 = 1;

/// A spec-level error (parse or validation).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn serr<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// What kind of cell this scenario is.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// One of the registered legacy experiments (`fig2` … `race`),
    /// dispatched through the caller-supplied registry.
    Experiment(ExperimentSpec),
    /// A direct simulator run assembled from the spec's topology /
    /// workload / placement / faults / schedule sections.
    Workload(WorkloadSpec),
    /// A deliberately misbehaving cell for supervision tests and the
    /// CI containment gate.
    Builtin(BuiltinOp),
}

/// Parameters for an experiment-kind scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Registered experiment id (`"fig2"`, `"latency"`, …).
    pub id: String,
    /// The options the experiment's `run` function receives.
    pub opts: ExperimentOpts,
}

/// The options every experiment's `run` function takes: the
/// `[experiment]` section of a spec and the `spp repro` command line
/// both parse into this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOpts {
    /// Run paper-size workloads even where they are expensive
    /// (notably the 2M-particle N-body). Off by default; the default
    /// sweep substitutes documented scaled sizes.
    pub full: bool,
    /// Measured steps per application configuration (after one
    /// untimed warm-up step).
    pub steps: usize,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            full: false,
            steps: 2,
        }
    }
}

impl ExperimentOpts {
    /// The usage text `spp repro` prints on a bad command line.
    pub fn usage() -> &'static str {
        "usage: spp repro <id>|all [--full] [--steps N]\n\
         \x20 --full         run paper-size workloads (expensive)\n\
         \x20 --steps N      measured steps per configuration (positive integer)"
    }

    /// Parse `--full` and `--steps N` from an argument list.
    pub fn try_parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut o = ExperimentOpts::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => o.full = true,
                "--steps" => {
                    let v = args
                        .next()
                        .ok_or_else(|| "--steps needs a value".to_string())?;
                    o.steps = v
                        .parse()
                        .map_err(|_| format!("--steps needs a positive integer, got {v:?}"))?;
                    if o.steps == 0 {
                        return Err("--steps must be at least 1".to_string());
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }
}

/// The applications a workload-kind scenario can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadApp {
    /// Shared-memory particle-in-cell on an `nx × ny × nz` mesh.
    Pic {
        /// Mesh shape.
        mesh: (usize, usize, usize),
    },
    /// Shared-memory N-body tree code.
    Nbody {
        /// Body count.
        bodies: usize,
    },
    /// Shared-memory FEM on an `nx × ny` structured mesh.
    Fem {
        /// Mesh columns.
        nx: usize,
        /// Mesh rows.
        ny: usize,
    },
    /// Shared-memory PPM gas dynamics (the tiny problem).
    Ppm,
    /// Message-passing PIC over the PVM layer.
    PicPvm {
        /// Mesh shape.
        mesh: (usize, usize, usize),
    },
    /// A seeded streaming kernel whose entire state is the machine
    /// itself — the one workload that supports SPPSNAP1
    /// checkpoint/resume (see the engine docs).
    KernelStream {
        /// Elements swept per step.
        elems: usize,
    },
}

impl WorkloadApp {
    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadApp::Pic { .. } => "pic",
            WorkloadApp::Nbody { .. } => "nbody",
            WorkloadApp::Fem { .. } => "fem",
            WorkloadApp::Ppm => "ppm",
            WorkloadApp::PicPvm { .. } => "pic-pvm",
            WorkloadApp::KernelStream { .. } => "kernel-stream",
        }
    }
}

/// Thread placement policy (mirrors `spp_runtime::Placement`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Fill one hypernode before spilling to the next.
    HighLocality,
    /// Round-robin across hypernodes.
    Uniform,
}

/// Fork/join replay-order policy (mirrors
/// `spp_runtime::SchedulePolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicySpec {
    /// Historical order (bit-identical default).
    Identity,
    /// Reversed order.
    Reversed,
    /// Seeded pseudo-random permutation.
    Shuffled {
        /// Permutation seed.
        seed: u64,
    },
}

/// A workload-kind scenario: everything needed to assemble and run
/// one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The application.
    pub app: WorkloadApp,
    /// Measured steps (after one untimed warm-up step; the
    /// kernel-stream workload has no warm-up).
    pub steps: usize,
    /// Hypernode count of the simulated machine.
    pub hypernodes: usize,
    /// Coherence protocol the machine runs
    /// (`dash-sci` when the spec has no `[protocol]` table).
    pub protocol: ProtocolKind,
    /// Team size (threads or PVM tasks).
    pub threads: usize,
    /// Thread placement.
    pub placement: PlacementPolicy,
    /// Fork/join replay order.
    pub schedule: SchedulePolicySpec,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Fault-plan ingredients (empty = no plan installed).
    pub faults: Vec<FaultEvent>,
    /// Record a trace into a deterministic ring sink.
    pub trace: bool,
    /// Ring-sink capacity when tracing.
    pub trace_capacity: usize,
    /// Mount the cycle-attribution heatmap (`[insight] enabled =
    /// true`). Attribution never changes cycles or counters; the
    /// runner asserts `heat_partition_check` at workload end.
    pub insight: bool,
    /// Write an SPPSNAP1 checkpoint every N steps (0 = off; only the
    /// kernel-stream workload supports it).
    pub checkpoint_every: usize,
    /// In-run checkpoint rollbacks allowed when a transient coherence
    /// fault exhausts its scrub budget (`[recovery] rollbacks = N`;
    /// 0 = escalation fails the cell). Requires `checkpoint_every`,
    /// which sets the rollback granularity.
    pub rollbacks: u32,
}

/// Deliberately misbehaving builtin cells.
#[derive(Debug, Clone, PartialEq)]
pub enum BuiltinOp {
    /// Panic with the given message.
    Panic {
        /// The panic payload.
        message: String,
    },
    /// Never finish: spin (sleeping) until the supervisor cancels.
    Hang,
    /// Return immediately.
    Noop,
}

impl BuiltinOp {
    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            BuiltinOp::Panic { .. } => "panic",
            BuiltinOp::Hang => "hang",
            BuiltinOp::Noop => "noop",
        }
    }
}

/// What the scenario author expects the supervisor to observe — the
/// CI containment gate runs deliberately panicking / hanging /
/// golden-diverging cells and passes when each is *contained and
/// classified as declared*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The cell completes and (if golden expectations are present)
    /// matches them.
    Pass,
    /// The cell fails (panic or reported error).
    Fail,
    /// The cell exceeds its wall-clock timeout.
    Timeout,
    /// The cell completes but diverges from its golden expectations.
    GoldenMismatch,
}

impl Expectation {
    /// Stable spelling used in specs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Expectation::Pass => "pass",
            Expectation::Fail => "fail",
            Expectation::Timeout => "timeout",
            Expectation::GoldenMismatch => "golden-mismatch",
        }
    }
}

/// Bit-exact expectations on a workload cell's final cycles and
/// memory-system counters. Only the fields present in the spec are
/// gated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoldenSpec {
    /// Expected elapsed simulated cycles.
    pub cycles: Option<u64>,
    /// Expected issued reads.
    pub reads: Option<u64>,
    /// Expected issued writes.
    pub writes: Option<u64>,
    /// Expected cache hits.
    pub hits: Option<u64>,
    /// Expected SCI fetches.
    pub sci_fetches: Option<u64>,
    /// Expected injected ring stalls.
    pub ring_stalls: Option<u64>,
    /// Expected uncached operations.
    pub uncached_ops: Option<u64>,
}

impl GoldenSpec {
    /// The gated fields as `(name, expected)` pairs, in stable order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        let mut push = |name, v: Option<u64>| {
            if let Some(x) = v {
                out.push((name, x));
            }
        };
        push("cycles", self.cycles);
        push("reads", self.reads);
        push("writes", self.writes);
        push("hits", self.hits);
        push("sci_fetches", self.sci_fetches);
        push("ring_stalls", self.ring_stalls);
        push("uncached_ops", self.uncached_ops);
        out
    }

    /// True when no field is gated.
    pub fn is_empty(&self) -> bool {
        self.fields().is_empty()
    }
}

/// One declarative scenario (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (the quarantine and report key).
    pub name: String,
    /// What to run.
    pub kind: ScenarioKind,
    /// Wall-clock budget per attempt, in seconds.
    pub timeout_secs: f64,
    /// Retries after a failed or timed-out attempt.
    pub retries: u32,
    /// Base backoff between retries, milliseconds (doubles per
    /// attempt).
    pub backoff_ms: u64,
    /// The outcome the author declares correct.
    pub expect: Expectation,
    /// Golden expectations (workload cells only).
    pub golden: GoldenSpec,
}

impl ScenarioSpec {
    /// A minimal passing workload spec (used as a base by tests and
    /// builders).
    pub fn workload(name: &str, app: WorkloadApp) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            kind: ScenarioKind::Workload(WorkloadSpec {
                app,
                steps: 1,
                hypernodes: 2,
                protocol: ProtocolKind::DashSci,
                threads: 8,
                placement: PlacementPolicy::Uniform,
                schedule: SchedulePolicySpec::Identity,
                fault_seed: 0,
                faults: Vec::new(),
                trace: false,
                trace_capacity: 1 << 16,
                insight: false,
                checkpoint_every: 0,
                rollbacks: 0,
            }),
            timeout_secs: 300.0,
            retries: 0,
            backoff_ms: 100,
            expect: Expectation::Pass,
            golden: GoldenSpec::default(),
        }
    }

    /// A builtin cell.
    pub fn builtin(name: &str, op: BuiltinOp) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            kind: ScenarioKind::Builtin(op),
            timeout_secs: 300.0,
            retries: 0,
            backoff_ms: 100,
            expect: Expectation::Pass,
            golden: GoldenSpec::default(),
        }
    }

    /// An experiment cell with harness defaults.
    pub fn experiment(name: &str, id: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            kind: ScenarioKind::Experiment(ExperimentSpec {
                id: id.to_string(),
                opts: ExperimentOpts::default(),
            }),
            timeout_secs: 3600.0,
            retries: 0,
            backoff_ms: 100,
            expect: Expectation::Pass,
            golden: GoldenSpec::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// TOML binding
// ---------------------------------------------------------------------------

fn get_str(t: &Table, key: &str) -> Result<Option<String>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(s) => Ok(Some(s.to_string())),
            None => serr(format!("{key} must be a string")),
        },
    }
}

fn get_usize(t: &Table, key: &str) -> Result<Option<usize>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) if i >= 0 => Ok(Some(i as usize)),
            _ => serr(format!("{key} must be a non-negative integer")),
        },
    }
}

/// `steps`, which like `--steps` must be at least 1.
fn get_steps(t: &Table) -> Result<Option<usize>, SpecError> {
    match get_usize(t, "steps")? {
        Some(0) => serr("steps must be at least 1"),
        steps => Ok(steps),
    }
}

fn get_u64(t: &Table, key: &str) -> Result<Option<u64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) if i >= 0 => Ok(Some(i as u64)),
            _ => serr(format!("{key} must be a non-negative integer")),
        },
    }
}

/// Seeds are full-range `u64`; TOML integers are `i64`. The canonical
/// serializer writes the seed's bit pattern (so seeds above
/// `i64::MAX` appear negative), and this reader reverses the cast —
/// an exact round trip for every seed.
fn get_seed(t: &Table, key: &str) -> Result<Option<u64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) => Ok(Some(i as u64)),
            None => serr(format!("{key} must be an integer seed")),
        },
    }
}

fn get_f64(t: &Table, key: &str) -> Result<Option<f64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_float() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => serr(format!("{key} must be a finite number")),
        },
    }
}

fn get_bool(t: &Table, key: &str) -> Result<Option<bool>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_bool() {
            Some(b) => Ok(Some(b)),
            None => serr(format!("{key} must be a boolean")),
        },
    }
}

fn get_table<'a>(t: &'a Table, key: &str) -> Result<Option<&'a Table>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => match v.as_table() {
            Some(tt) => Ok(Some(tt)),
            None => serr(format!("[{key}] must be a table")),
        },
    }
}

fn mesh3(t: &Table, key: &str) -> Result<Option<(usize, usize, usize)>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => {
            let a = v
                .as_array()
                .ok_or_else(|| SpecError(format!("{key} must be an array of 3 integers")))?;
            let dims: Vec<usize> = a
                .iter()
                .map(|x| x.as_int().filter(|i| *i > 0).map(|i| i as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| SpecError(format!("{key} must hold positive integers")))?;
            if dims.len() != 3 {
                return serr(format!("{key} must have exactly 3 entries"));
            }
            Ok(Some((dims[0], dims[1], dims[2])))
        }
    }
}

fn parse_fault_event(t: &Table) -> Result<FaultEvent, SpecError> {
    let kind = get_str(t, "kind")?.ok_or_else(|| SpecError("fault event needs a kind".into()))?;
    let need_f64 =
        |key: &str| get_f64(t, key)?.ok_or_else(|| SpecError(format!("{kind} event needs {key}")));
    let need_u64 =
        |key: &str| get_u64(t, key)?.ok_or_else(|| SpecError(format!("{kind} event needs {key}")));
    Ok(match kind.as_str() {
        "ring-stalls" => FaultEvent::RingStalls {
            prob: need_f64("prob")?,
            stall: need_u64("stall_cycles")?,
        },
        "msg-faults" => FaultEvent::MsgFaults {
            drop: need_f64("drop")?,
            dup: need_f64("dup")?,
        },
        "spawn-fail" => FaultEvent::SpawnFail {
            prob: need_f64("prob")?,
        },
        "cpu-fail" => FaultEvent::CpuFail {
            cpu: need_u64("cpu")? as u16,
            at_cycle: need_u64("at_cycle")?,
        },
        "link-fail" => FaultEvent::LinkFail {
            ring: need_u64("ring")? as u8,
            at_cycle: need_u64("at_cycle")?,
            reroute_cycles: need_u64("reroute_cycles")?,
        },
        "gcb-degrade" => FaultEvent::GcbDegrade {
            node: need_u64("node")? as u8,
            at_cycle: need_u64("at_cycle")?,
        },
        "inval-drop" => FaultEvent::InvalDrop {
            prob: need_f64("prob")?,
        },
        "inval-dup" => FaultEvent::InvalDup {
            prob: need_f64("prob")?,
        },
        "inval-delay" => FaultEvent::InvalDelay {
            prob: need_f64("prob")?,
        },
        "update-loss" => FaultEvent::UpdateLoss {
            prob: need_f64("prob")?,
        },
        "ack-stale" => FaultEvent::AckStale {
            prob: need_f64("prob")?,
        },
        "line-corrupt" => FaultEvent::LineCorrupt {
            prob: need_f64("prob")?,
        },
        "transient-persist" => FaultEvent::TransientPersist {
            prob: need_f64("prob")?,
        },
        other => return serr(format!("unknown fault event kind {other:?}")),
    })
}

impl ScenarioSpec {
    /// Parse and validate one scenario from TOML text.
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        let root = toml::parse(text).map_err(|e| SpecError(e.to_string()))?;
        Self::from_table(&root)
    }

    /// Parse and validate one scenario from an already-parsed root
    /// table.
    pub fn from_table(root: &Table) -> Result<Self, SpecError> {
        match root.get("schema").and_then(Value::as_int) {
            Some(SPEC_SCHEMA) => {}
            Some(v) => {
                return serr(format!(
                    "schema {v} not supported (this build reads {SPEC_SCHEMA})"
                ))
            }
            None => return serr("missing `schema = 1` at top level"),
        }
        let sc = get_table(root, "scenario")?
            .ok_or_else(|| SpecError("missing [scenario] section".into()))?;
        let name =
            get_str(sc, "name")?.ok_or_else(|| SpecError("[scenario] needs a name".into()))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
        {
            return serr(format!(
                "scenario name {name:?} must be non-empty [A-Za-z0-9._-]"
            ));
        }
        let kind_label =
            get_str(sc, "kind")?.ok_or_else(|| SpecError("[scenario] needs a kind".into()))?;

        let expect = match get_str(sc, "expect")?.as_deref() {
            None | Some("pass") => Expectation::Pass,
            Some("fail") => Expectation::Fail,
            Some("timeout") => Expectation::Timeout,
            Some("golden-mismatch") => Expectation::GoldenMismatch,
            Some(other) => return serr(format!("unknown expect {other:?}")),
        };

        let golden = match get_table(root, "golden")? {
            None => GoldenSpec::default(),
            Some(g) => GoldenSpec {
                cycles: get_u64(g, "cycles")?,
                reads: get_u64(g, "reads")?,
                writes: get_u64(g, "writes")?,
                hits: get_u64(g, "hits")?,
                sci_fetches: get_u64(g, "sci_fetches")?,
                ring_stalls: get_u64(g, "ring_stalls")?,
                uncached_ops: get_u64(g, "uncached_ops")?,
            },
        };

        let kind = match kind_label.as_str() {
            "experiment" => {
                let e = get_table(root, "experiment")?.ok_or_else(|| {
                    SpecError("experiment scenarios need an [experiment] section".into())
                })?;
                // `backend` is a removed key. Specs and journals written
                // before the analytic model was deleted carry
                // `backend = "cycle"`, which names the one cost model
                // left; any other value asked for a model that is gone.
                if let Some(b) = get_str(e, "backend")?.filter(|b| b != "cycle") {
                    return serr(format!(
                        "backend {b:?}: the analytic backend was removed; \
                         every experiment runs on the cycle model"
                    ));
                }
                ScenarioKind::Experiment(ExperimentSpec {
                    id: get_str(e, "id")?
                        .ok_or_else(|| SpecError("[experiment] needs an id".into()))?,
                    opts: ExperimentOpts {
                        full: get_bool(e, "full")?.unwrap_or(false),
                        steps: get_steps(e)?.unwrap_or(2),
                    },
                })
            }
            "workload" => {
                let w = get_table(root, "workload")?.ok_or_else(|| {
                    SpecError("workload scenarios need a [workload] section".into())
                })?;
                let app_label = get_str(w, "app")?
                    .ok_or_else(|| SpecError("[workload] needs an app".into()))?;
                let app = match app_label.as_str() {
                    "pic" => WorkloadApp::Pic {
                        mesh: mesh3(w, "mesh")?.unwrap_or((8, 8, 8)),
                    },
                    "nbody" => WorkloadApp::Nbody {
                        bodies: get_usize(w, "bodies")?.unwrap_or(1024),
                    },
                    "fem" => WorkloadApp::Fem {
                        nx: get_usize(w, "nx")?.unwrap_or(32),
                        ny: get_usize(w, "ny")?.unwrap_or(32),
                    },
                    "ppm" => WorkloadApp::Ppm,
                    "pic-pvm" => WorkloadApp::PicPvm {
                        mesh: mesh3(w, "mesh")?.unwrap_or((8, 8, 8)),
                    },
                    "kernel-stream" => WorkloadApp::KernelStream {
                        elems: get_usize(w, "elems")?.unwrap_or(1 << 14),
                    },
                    other => return serr(format!("unknown workload app {other:?}")),
                };

                let topo = get_table(root, "topology")?;
                let hypernodes = topo
                    .map(|t| get_usize(t, "hypernodes"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(2);

                let protocol = match get_table(root, "protocol")? {
                    None => ProtocolKind::DashSci,
                    Some(p) => {
                        let pname = get_str(p, "name")?
                            .ok_or_else(|| SpecError("[protocol] needs a name".into()))?;
                        ProtocolKind::from_label(&pname).ok_or_else(|| {
                            SpecError(format!(
                                "unknown protocol {pname:?} (valid: dash-sci, mesi, dragon)"
                            ))
                        })?
                    }
                };

                let pl = get_table(root, "placement")?;
                let threads = pl
                    .map(|t| get_usize(t, "threads"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(8);
                let placement = match pl
                    .map(|t| get_str(t, "policy"))
                    .transpose()?
                    .flatten()
                    .as_deref()
                {
                    None | Some("uniform") => PlacementPolicy::Uniform,
                    Some("high-locality") => PlacementPolicy::HighLocality,
                    Some(other) => return serr(format!("unknown placement policy {other:?}")),
                };

                let sch = get_table(root, "schedule")?;
                let schedule = match sch
                    .map(|t| get_str(t, "policy"))
                    .transpose()?
                    .flatten()
                    .as_deref()
                {
                    None | Some("identity") => SchedulePolicySpec::Identity,
                    Some("reversed") => SchedulePolicySpec::Reversed,
                    Some("shuffled") => SchedulePolicySpec::Shuffled {
                        seed: sch
                            .map(|t| get_seed(t, "seed"))
                            .transpose()?
                            .flatten()
                            .unwrap_or(1),
                    },
                    Some(other) => return serr(format!("unknown schedule policy {other:?}")),
                };

                let (fault_seed, faults) = match get_table(root, "faults")? {
                    None => (0, Vec::new()),
                    Some(ft) => {
                        let seed = get_seed(ft, "seed")?.unwrap_or(0);
                        let events = match ft.get("events") {
                            None => Vec::new(),
                            Some(v) => {
                                let a = v.as_array().ok_or_else(|| {
                                    SpecError("[[faults.events]] must be an array of tables".into())
                                })?;
                                a.iter()
                                    .map(|x| {
                                        x.as_table()
                                            .ok_or_else(|| {
                                                SpecError("fault events must be tables".into())
                                            })
                                            .and_then(parse_fault_event)
                                    })
                                    .collect::<Result<Vec<_>, _>>()?
                            }
                        };
                        (seed, events)
                    }
                };

                let tr = get_table(root, "trace")?;
                let trace = tr
                    .map(|t| get_bool(t, "enabled"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(false);
                let trace_capacity = tr
                    .map(|t| get_usize(t, "capacity"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(1 << 16);

                let insight = get_table(root, "insight")?
                    .map(|t| get_bool(t, "enabled"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(false);

                let rollbacks = get_table(root, "recovery")?
                    .map(|t| get_u64(t, "rollbacks"))
                    .transpose()?
                    .flatten()
                    .unwrap_or(0) as u32;

                ScenarioKind::Workload(WorkloadSpec {
                    app,
                    steps: get_steps(sc)?.unwrap_or(1),
                    hypernodes,
                    protocol,
                    threads,
                    placement,
                    schedule,
                    fault_seed,
                    faults,
                    trace,
                    trace_capacity,
                    insight,
                    checkpoint_every: get_usize(sc, "checkpoint_every")?.unwrap_or(0),
                    rollbacks,
                })
            }
            "builtin" => {
                let b = get_table(root, "builtin")?.ok_or_else(|| {
                    SpecError("builtin scenarios need a [builtin] section".into())
                })?;
                let op = match get_str(b, "op")?.as_deref() {
                    Some("panic") => BuiltinOp::Panic {
                        message: get_str(b, "message")?.unwrap_or_else(|| "injected panic".into()),
                    },
                    Some("hang") => BuiltinOp::Hang,
                    Some("noop") => BuiltinOp::Noop,
                    Some(other) => return serr(format!("unknown builtin op {other:?}")),
                    None => return serr("[builtin] needs an op"),
                };
                ScenarioKind::Builtin(op)
            }
            other => return serr(format!("unknown scenario kind {other:?}")),
        };

        let spec = ScenarioSpec {
            name,
            kind,
            timeout_secs: get_f64(sc, "timeout_secs")?.unwrap_or(300.0),
            retries: get_u64(sc, "retries")?.unwrap_or(0) as u32,
            backoff_ms: get_u64(sc, "backoff_ms")?.unwrap_or(100),
            expect,
            golden,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation beyond what parsing enforces.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.timeout_secs <= 0.0 {
            return serr("timeout_secs must be positive");
        }
        match &self.kind {
            ScenarioKind::Workload(w) => {
                if w.threads == 0 {
                    return serr("placement threads must be at least 1");
                }
                if w.hypernodes == 0 || w.hypernodes > 128 {
                    return serr("topology hypernodes must be in 1..=128");
                }
                if w.checkpoint_every > 0 && !matches!(w.app, WorkloadApp::KernelStream { .. }) {
                    return serr(format!(
                        "checkpoint_every is only supported by the kernel-stream workload, not {}",
                        w.app.label()
                    ));
                }
                if matches!(w.app, WorkloadApp::KernelStream { elems: 0 }) {
                    return serr("kernel-stream elems must be at least 1");
                }
                if w.rollbacks > 0 && !matches!(w.app, WorkloadApp::KernelStream { .. }) {
                    return serr(format!(
                        "[recovery] rollbacks is only supported by the kernel-stream \
                         workload, not {}",
                        w.app.label()
                    ));
                }
                let hard = w.faults.iter().filter(|e| e.is_hard()).count();
                if let Err(e) = FaultPlan::check_hard_count(hard) {
                    return serr(format!("[faults] {e}"));
                }
                if w.rollbacks > 0 && w.checkpoint_every == 0 {
                    return serr(
                        "[recovery] rollbacks needs checkpoint_every > 0 \
                         (checkpoints set the rollback granularity)",
                    );
                }
            }
            ScenarioKind::Experiment(e) => {
                if !self.golden.is_empty() {
                    return serr(format!(
                        "experiment scenario {:?} cannot carry [golden] expectations \
                         (experiments gate themselves)",
                        e.id
                    ));
                }
            }
            ScenarioKind::Builtin(_) => {}
        }
        Ok(())
    }

    /// The scenario's **canonical digest**: an FNV-1a fold over the
    /// canonical TOML serialization. Because parse → serialize is a
    /// fixpoint (property-tested in `tests/spec_roundtrip.rs`), two
    /// spec files that differ only in formatting, comments, key
    /// order, or defaulted fields digest identically — which is what
    /// makes the digest a safe results-cache key: it names the
    /// *simulation*, not the bytes the author happened to type.
    /// Deterministic responses mean `(digest, code version)` fully
    /// determines the result.
    ///
    /// The scenario `name` is part of the canonical form and thus of
    /// the digest; callers that want name-independent identity can
    /// normalize the name before digesting.
    pub fn digest(&self) -> u64 {
        spp_core::fnv1a(self.to_toml_string().as_bytes())
    }

    /// Serialize back to canonical TOML.
    pub fn to_toml_string(&self) -> String {
        let mut root = Table::new();
        root.insert("schema".into(), Value::Int(SPEC_SCHEMA));

        let mut sc = Table::new();
        sc.insert("name".into(), Value::Str(self.name.clone()));
        sc.insert("timeout_secs".into(), Value::Float(self.timeout_secs));
        sc.insert("retries".into(), Value::Int(self.retries as i64));
        sc.insert("backoff_ms".into(), Value::Int(self.backoff_ms as i64));
        sc.insert("expect".into(), Value::Str(self.expect.label().into()));

        match &self.kind {
            ScenarioKind::Experiment(e) => {
                sc.insert("kind".into(), Value::Str("experiment".into()));
                let mut t = Table::new();
                t.insert("id".into(), Value::Str(e.id.clone()));
                t.insert("full".into(), Value::Bool(e.opts.full));
                t.insert("steps".into(), Value::Int(e.opts.steps as i64));
                root.insert("experiment".into(), Value::Table(t));
            }
            ScenarioKind::Builtin(op) => {
                sc.insert("kind".into(), Value::Str("builtin".into()));
                let mut t = Table::new();
                t.insert("op".into(), Value::Str(op.label().into()));
                if let BuiltinOp::Panic { message } = op {
                    t.insert("message".into(), Value::Str(message.clone()));
                }
                root.insert("builtin".into(), Value::Table(t));
            }
            ScenarioKind::Workload(w) => {
                sc.insert("kind".into(), Value::Str("workload".into()));
                sc.insert("steps".into(), Value::Int(w.steps as i64));
                if w.checkpoint_every > 0 {
                    sc.insert(
                        "checkpoint_every".into(),
                        Value::Int(w.checkpoint_every as i64),
                    );
                }

                let mut wt = Table::new();
                wt.insert("app".into(), Value::Str(w.app.label().into()));
                match &w.app {
                    WorkloadApp::Pic { mesh } | WorkloadApp::PicPvm { mesh } => {
                        wt.insert(
                            "mesh".into(),
                            Value::Array(vec![
                                Value::Int(mesh.0 as i64),
                                Value::Int(mesh.1 as i64),
                                Value::Int(mesh.2 as i64),
                            ]),
                        );
                    }
                    WorkloadApp::Nbody { bodies } => {
                        wt.insert("bodies".into(), Value::Int(*bodies as i64));
                    }
                    WorkloadApp::Fem { nx, ny } => {
                        wt.insert("nx".into(), Value::Int(*nx as i64));
                        wt.insert("ny".into(), Value::Int(*ny as i64));
                    }
                    WorkloadApp::Ppm => {}
                    WorkloadApp::KernelStream { elems } => {
                        wt.insert("elems".into(), Value::Int(*elems as i64));
                    }
                }
                root.insert("workload".into(), Value::Table(wt));

                let mut topo = Table::new();
                topo.insert("hypernodes".into(), Value::Int(w.hypernodes as i64));
                root.insert("topology".into(), Value::Table(topo));

                // The default protocol stays implicit so pre-protocol
                // specs round-trip byte-identically.
                if w.protocol != ProtocolKind::DashSci {
                    let mut pt = Table::new();
                    pt.insert("name".into(), Value::Str(w.protocol.label().into()));
                    root.insert("protocol".into(), Value::Table(pt));
                }

                let mut pl = Table::new();
                pl.insert("threads".into(), Value::Int(w.threads as i64));
                pl.insert(
                    "policy".into(),
                    Value::Str(
                        match w.placement {
                            PlacementPolicy::Uniform => "uniform",
                            PlacementPolicy::HighLocality => "high-locality",
                        }
                        .into(),
                    ),
                );
                root.insert("placement".into(), Value::Table(pl));

                let mut st = Table::new();
                match w.schedule {
                    SchedulePolicySpec::Identity => {
                        st.insert("policy".into(), Value::Str("identity".into()));
                    }
                    SchedulePolicySpec::Reversed => {
                        st.insert("policy".into(), Value::Str("reversed".into()));
                    }
                    SchedulePolicySpec::Shuffled { seed } => {
                        st.insert("policy".into(), Value::Str("shuffled".into()));
                        st.insert("seed".into(), Value::Int(seed as i64));
                    }
                }
                root.insert("schedule".into(), Value::Table(st));

                if w.fault_seed != 0 || !w.faults.is_empty() {
                    let mut ft = Table::new();
                    ft.insert("seed".into(), Value::Int(w.fault_seed as i64));
                    if !w.faults.is_empty() {
                        let events: Vec<Value> = w
                            .faults
                            .iter()
                            .map(|e| Value::Table(fault_event_table(e)))
                            .collect();
                        ft.insert("events".into(), Value::Array(events));
                    }
                    root.insert("faults".into(), Value::Table(ft));
                }

                if w.trace {
                    let mut tt = Table::new();
                    tt.insert("enabled".into(), Value::Bool(true));
                    tt.insert("capacity".into(), Value::Int(w.trace_capacity as i64));
                    root.insert("trace".into(), Value::Table(tt));
                }

                if w.insight {
                    let mut it = Table::new();
                    it.insert("enabled".into(), Value::Bool(true));
                    root.insert("insight".into(), Value::Table(it));
                }

                if w.rollbacks > 0 {
                    let mut rt = Table::new();
                    rt.insert("rollbacks".into(), Value::Int(w.rollbacks as i64));
                    root.insert("recovery".into(), Value::Table(rt));
                }
            }
        }
        root.insert("scenario".into(), Value::Table(sc));

        if !self.golden.is_empty() {
            let mut g = Table::new();
            for (name, v) in self.golden.fields() {
                g.insert(name.into(), Value::Int(v as i64));
            }
            root.insert("golden".into(), Value::Table(g));
        }

        toml::to_toml(&root)
    }
}

fn fault_event_table(e: &FaultEvent) -> Table {
    let mut t = Table::new();
    t.insert("kind".into(), Value::Str(e.label().into()));
    match *e {
        FaultEvent::RingStalls { prob, stall } => {
            t.insert("prob".into(), Value::Float(prob));
            t.insert("stall_cycles".into(), Value::Int(stall as i64));
        }
        FaultEvent::MsgFaults { drop, dup } => {
            t.insert("drop".into(), Value::Float(drop));
            t.insert("dup".into(), Value::Float(dup));
        }
        FaultEvent::SpawnFail { prob } => {
            t.insert("prob".into(), Value::Float(prob));
        }
        FaultEvent::CpuFail { cpu, at_cycle } => {
            t.insert("cpu".into(), Value::Int(cpu as i64));
            t.insert("at_cycle".into(), Value::Int(at_cycle as i64));
        }
        FaultEvent::LinkFail {
            ring,
            at_cycle,
            reroute_cycles,
        } => {
            t.insert("ring".into(), Value::Int(ring as i64));
            t.insert("at_cycle".into(), Value::Int(at_cycle as i64));
            t.insert("reroute_cycles".into(), Value::Int(reroute_cycles as i64));
        }
        FaultEvent::GcbDegrade { node, at_cycle } => {
            t.insert("node".into(), Value::Int(node as i64));
            t.insert("at_cycle".into(), Value::Int(at_cycle as i64));
        }
        // All transient coherence-fault kinds carry one probability.
        FaultEvent::InvalDrop { prob }
        | FaultEvent::InvalDup { prob }
        | FaultEvent::InvalDelay { prob }
        | FaultEvent::UpdateLoss { prob }
        | FaultEvent::AckStale { prob }
        | FaultEvent::LineCorrupt { prob }
        | FaultEvent::TransientPersist { prob } => {
            t.insert("prob".into(), Value::Float(prob));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_WORKLOAD: &str = r#"
schema = 1

[scenario]
name = "pic-faulty-8"
kind = "workload"
steps = 2
timeout_secs = 60.0
retries = 1
backoff_ms = 50
expect = "pass"

[workload]
app = "pic"
mesh = [8, 8, 8]

[topology]
hypernodes = 2

[placement]
threads = 8
policy = "uniform"

[schedule]
policy = "shuffled"
seed = 9

[faults]
seed = 7

[[faults.events]]
kind = "ring-stalls"
prob = 0.01
stall_cycles = 500

[[faults.events]]
kind = "cpu-fail"
cpu = 2
at_cycle = 400000

[golden]
cycles = 123456
reads = 1000
"#;

    #[test]
    fn parses_a_full_workload_spec() {
        let s = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        assert_eq!(s.name, "pic-faulty-8");
        assert_eq!(s.retries, 1);
        assert_eq!(s.expect, Expectation::Pass);
        let ScenarioKind::Workload(w) = &s.kind else {
            panic!("expected workload kind");
        };
        assert_eq!(w.app, WorkloadApp::Pic { mesh: (8, 8, 8) });
        assert_eq!(w.schedule, SchedulePolicySpec::Shuffled { seed: 9 });
        assert_eq!(w.fault_seed, 7);
        assert_eq!(w.faults.len(), 2);
        assert_eq!(w.faults[1].label(), "cpu-fail");
        assert_eq!(s.golden.cycles, Some(123456));
        assert_eq!(s.golden.fields().len(), 2);
    }

    #[test]
    fn round_trips_canonical_toml() {
        let s = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        let text = s.to_toml_string();
        let s2 = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(s, s2, "canonical form:\n{text}");
    }

    #[test]
    fn insight_table_round_trips_and_stays_out_of_plain_specs() {
        // insight defaults off and an off spec serializes without the table,
        // so pre-existing spec files keep their exact bytes.
        let plain = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        let ScenarioKind::Workload(ref w) = plain.kind else {
            panic!("expected workload kind");
        };
        assert!(!w.insight);
        assert!(!plain.to_toml_string().contains("[insight]"));

        let text = format!("{FULL_WORKLOAD}\n[insight]\nenabled = true\n");
        let s = ScenarioSpec::from_toml_str(&text).unwrap();
        let ScenarioKind::Workload(ref w) = s.kind else {
            panic!("expected workload kind");
        };
        assert!(w.insight);
        let canon = s.to_toml_string();
        assert!(canon.contains("[insight]"), "{canon}");
        let s2 = ScenarioSpec::from_toml_str(&canon).unwrap();
        assert_eq!(s, s2, "canonical form:\n{canon}");
    }

    #[test]
    fn experiment_and_builtin_specs_parse() {
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"fig2\"\nkind = \"experiment\"\n[experiment]\nid = \"fig2\"\n",
        )
        .unwrap();
        assert!(matches!(e.kind, ScenarioKind::Experiment(ref x) if x.id == "fig2"));
        let b = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"boom\"\nkind = \"builtin\"\nexpect = \"fail\"\n[builtin]\nop = \"panic\"\nmessage = \"pow\"\n",
        )
        .unwrap();
        assert!(matches!(
            b.kind,
            ScenarioKind::Builtin(BuiltinOp::Panic { ref message }) if message == "pow"
        ));
        assert_eq!(b.expect, Expectation::Fail);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        // Missing schema.
        assert!(ScenarioSpec::from_toml_str(
            "[scenario]\nname = \"x\"\nkind = \"builtin\"\n[builtin]\nop = \"noop\"\n"
        )
        .is_err());
        // Unknown kind.
        assert!(ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"magic\"\n"
        )
        .is_err());
        // Checkpoint on a non-kernel workload.
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\ncheckpoint_every = 1\n[workload]\napp = \"pic\"\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("kernel-stream"), "{e}");
        // Golden on an experiment.
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"experiment\"\n[experiment]\nid = \"fig2\"\n[golden]\ncycles = 1\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("golden"), "{e}");
        // Bad fault event.
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\n[workload]\napp = \"pic\"\n[faults]\nseed = 1\n[[faults.events]]\nkind = \"meteor\"\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("meteor"), "{e}");
        // Zero steps, on either kind: `--steps 0` is refused too.
        for spec in [
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"experiment\"\n[experiment]\nid = \"fig2\"\nsteps = 0\n",
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\nsteps = 0\n[workload]\napp = \"pic\"\n",
        ] {
            let e = ScenarioSpec::from_toml_str(spec).unwrap_err();
            assert!(e.to_string().contains("steps must be at least 1"), "{e}");
        }
        // The removed `backend` key: "cycle" (in every older journal)
        // still parses and drops out of the canonical form; "fast" is
        // refused rather than run on the cycle model.
        let exp = |backend: &str| {
            ScenarioSpec::from_toml_str(&format!(
                "schema = 1\n[scenario]\nname = \"x\"\nkind = \"experiment\"\n\
                 [experiment]\nid = \"backend\"\nbackend = \"{backend}\"\n"
            ))
        };
        let cycle = exp("cycle").unwrap();
        assert!(!cycle.to_toml_string().contains("backend ="));
        let e = exp("fast").unwrap_err();
        assert!(
            e.to_string().contains("analytic backend was removed"),
            "{e}"
        );
    }

    #[test]
    fn more_than_64_hard_faults_are_rejected() {
        let spec = |n: usize| {
            let mut t = String::from(
                "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\n\
                 [workload]\napp = \"pic\"\n[faults]\nseed = 1\n",
            );
            for i in 0..n {
                t += &format!("[[faults.events]]\nkind = \"cpu-fail\"\ncpu = 1\nat_cycle = {i}\n");
            }
            ScenarioSpec::from_toml_str(&t)
        };
        let w = spec(64).expect("64 hard faults fit");
        let ScenarioKind::Workload(w) = &w.kind else {
            panic!("workload spec expected");
        };
        assert_eq!(w.faults.len(), 64);
        let e = spec(65).unwrap_err();
        assert!(
            e.to_string().contains("at most 64 hard faults, got 65"),
            "{e}"
        );
    }

    #[test]
    fn protocol_table_selects_backend_and_round_trips() {
        let text = "schema = 1\n[scenario]\nname = \"w\"\nkind = \"workload\"\n\
                    [workload]\napp = \"nbody\"\n[topology]\nhypernodes = 32\n\
                    [protocol]\nname = \"dragon\"\n";
        let s = ScenarioSpec::from_toml_str(text).unwrap();
        let ScenarioKind::Workload(w) = &s.kind else {
            panic!()
        };
        assert_eq!(w.protocol, ProtocolKind::Dragon);
        assert_eq!(w.hypernodes, 32);
        let canonical = s.to_toml_string();
        assert!(canonical.contains("[protocol]"), "{canonical}");
        assert_eq!(ScenarioSpec::from_toml_str(&canonical).unwrap(), s);
    }

    #[test]
    fn default_protocol_stays_implicit_in_canonical_form() {
        let s = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        let ScenarioKind::Workload(w) = &s.kind else {
            panic!()
        };
        assert_eq!(w.protocol, ProtocolKind::DashSci);
        assert!(!s.to_toml_string().contains("[protocol]"));
    }

    #[test]
    fn unknown_protocol_name_is_rejected_with_valid_labels() {
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"w\"\nkind = \"workload\"\n\
             [workload]\napp = \"nbody\"\n[protocol]\nname = \"moesi\"\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("moesi"), "{e}");
        assert!(e.to_string().contains("dash-sci"), "{e}");
    }

    #[test]
    fn hypernodes_bound_extends_to_128() {
        let at = |n: usize| {
            ScenarioSpec::from_toml_str(&format!(
                "schema = 1\n[scenario]\nname = \"w\"\nkind = \"workload\"\n\
                 [workload]\napp = \"nbody\"\n[topology]\nhypernodes = {n}\n"
            ))
        };
        assert!(at(128).is_ok());
        let e = at(129).unwrap_err();
        assert!(e.to_string().contains("1..=128"), "{e}");
    }

    #[test]
    fn recovery_table_parses_validates_and_round_trips() {
        let text = "schema = 1\n[scenario]\nname = \"k\"\nkind = \"workload\"\n\
                    steps = 8\ncheckpoint_every = 2\n\
                    [workload]\napp = \"kernel-stream\"\nelems = 64\n\
                    [faults]\nseed = 3\n\
                    [[faults.events]]\nkind = \"inval-dup\"\nprob = 0.01\n\
                    [[faults.events]]\nkind = \"transient-persist\"\nprob = 1.0\n\
                    [recovery]\nrollbacks = 4\n";
        let s = ScenarioSpec::from_toml_str(text).unwrap();
        let ScenarioKind::Workload(w) = &s.kind else {
            panic!()
        };
        assert_eq!(w.rollbacks, 4);
        assert_eq!(w.faults.len(), 2);
        assert_eq!(w.faults[0].label(), "inval-dup");
        let canonical = s.to_toml_string();
        assert!(canonical.contains("[recovery]"), "{canonical}");
        assert_eq!(ScenarioSpec::from_toml_str(&canonical).unwrap(), s);

        // No budget → no table in canonical form.
        let ScenarioKind::Workload(w) = &ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap().kind
        else {
            panic!()
        };
        assert_eq!(w.rollbacks, 0);

        // Rollbacks demand a kernel-stream workload…
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\n\
             [workload]\napp = \"pic\"\n[recovery]\nrollbacks = 1\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("kernel-stream"), "{e}");
        // …and a checkpoint cadence to roll back to.
        let e = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"x\"\nkind = \"workload\"\n\
             [workload]\napp = \"kernel-stream\"\nelems = 8\n\
             [recovery]\nrollbacks = 1\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("checkpoint_every"), "{e}");
    }

    #[test]
    fn digest_names_the_simulation_not_the_formatting() {
        let s = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        // Reformatting (extra whitespace, comments, defaulted fields
        // spelled out) must not move the digest…
        let reformatted = format!(
            "# a comment\n{}\n# trailing comment\n",
            FULL_WORKLOAD.replace("steps = 2", "steps   =   2")
        );
        let s2 = ScenarioSpec::from_toml_str(&reformatted).unwrap();
        assert_eq!(s.digest(), s2.digest());
        // …while any semantic change must.
        let mut renamed = s.clone();
        renamed.name = "pic-faulty-9".into();
        assert_ne!(s.digest(), renamed.digest());
        let mut retimed = s.clone();
        retimed.timeout_secs = 61.0;
        assert_ne!(s.digest(), retimed.digest());
        // Stable across calls.
        assert_eq!(s.digest(), s.digest());
    }

    #[test]
    fn digest_bytes_are_pinned() {
        // Serve's results cache keys on this value: a hasher change
        // that moved it would orphan every cached result.
        let s = ScenarioSpec::from_toml_str(FULL_WORKLOAD).unwrap();
        assert_eq!(s.digest(), 0xf2df_403d_9126_6307, "{:#018x}", s.digest());
    }

    #[test]
    fn defaults_are_sane() {
        let s = ScenarioSpec::from_toml_str(
            "schema = 1\n[scenario]\nname = \"w\"\nkind = \"workload\"\n[workload]\napp = \"nbody\"\n",
        )
        .unwrap();
        let ScenarioKind::Workload(w) = &s.kind else {
            panic!()
        };
        assert_eq!(w.hypernodes, 2);
        assert_eq!(w.threads, 8);
        assert_eq!(w.placement, PlacementPolicy::Uniform);
        assert_eq!(w.schedule, SchedulePolicySpec::Identity);
        assert!(w.faults.is_empty());
        assert!(!w.trace);
        assert_eq!(s.timeout_secs, 300.0);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn default_experiment_opts() {
        let o = ExperimentOpts::default();
        assert!(!o.full);
        assert_eq!(o.steps, 2);
    }

    fn parse(args: &[&str]) -> Result<ExperimentOpts, String> {
        ExperimentOpts::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn try_parse_accepts_supported_flags() {
        let o = parse(&["--full", "--steps", "5"]).unwrap();
        assert!(o.full);
        assert_eq!(o.steps, 5);
        assert!(!parse(&[]).unwrap().full);
    }

    #[test]
    fn try_parse_rejects_bad_command_lines() {
        assert!(parse(&["--bogus"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse(&["--steps"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--steps", "x"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--steps", "0"]).unwrap_err().contains("at least 1"));
    }
}
