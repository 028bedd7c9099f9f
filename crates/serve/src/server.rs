//! The job server: admission, execution, preemption, liveness, and
//! the TCP/JSONL control plane.
//!
//! One mutex guards the whole control plane (`Core`: job table,
//! queue, journal, cache); simulation attempts run outside it on
//! worker threads via [`spp_scenario::run_attempt`]. Every state
//! transition is journaled *before* the server acts on it, so a
//! `kill -9` at any instant reconstructs the same job table on
//! restart — interrupted jobs re-enqueue and checkpointable cells
//! resume from their latest SPPSNAP1 snapshot, bit-identically.
//!
//! The wire protocol is deliberately tiny: one JSON line request, one
//! JSON line reply, connection per exchange. Commands: `submit`,
//! `status`, `result`, `cancel`, `health`, `drain`, `shutdown`.

use crate::cache::{code_version, ResultCache};
use crate::journal::{Journal, Record};
use crate::queue::{AdmissionQueue, Priority};
use spp_core::json::{parse, Json};
use spp_core::{retry_backoff, CancelToken};
use spp_scenario::{
    run_attempt, CheckpointPaths, Registry, ScenarioKind, ScenarioSpec, Status, WorkloadOutcome,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. Everything has a serviceable default; tests and
/// the CLI override what they need.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Durable state root: journal, snapshot, checkpoints, cache,
    /// endpoint file.
    pub state_dir: PathBuf,
    /// Bind address (`127.0.0.1:0` picks a free port; the actual
    /// address lands in `<state_dir>/endpoint`).
    pub addr: String,
    /// Worker threads executing attempts.
    pub workers: usize,
    /// Per-lane admission cap.
    pub lane_cap: usize,
    /// Total backlog cap across lanes.
    pub total_cap: usize,
    /// A running job whose progress clock hasn't moved for this long
    /// is reported `stalled` (slow-but-progressing jobs are not).
    pub stall_after: Duration,
    /// Compact the journal into a snapshot every N records.
    pub compact_every: usize,
}

impl ServeConfig {
    /// Defaults rooted at `state_dir`.
    pub fn new(state_dir: &Path) -> Self {
        ServeConfig {
            state_dir: state_dir.to_path_buf(),
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            lane_cap: 16,
            total_cap: 32,
            stall_after: Duration::from_secs(10),
            compact_every: 64,
        }
    }
}

/// Job lifecycle: `pending → running → {done, failed, quarantined,
/// cancelled, deadline-expired}`, with preemption looping a running
/// job back to pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Pending,
    /// An attempt is executing (or backing off between attempts).
    Running,
    /// Completed; its deterministic result line is available.
    Done,
    /// Failed with no retry budget.
    Failed,
    /// Exhausted its retry budget — the repeat-offender terminal.
    Quarantined,
    /// Cancelled by a client.
    Cancelled,
    /// Shed: its deadline passed before execution started.
    Expired,
}

impl JobState {
    /// Wire/journal label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Quarantined => "quarantined",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "deadline-expired",
        }
    }

    /// Parse a journal/snapshot label. Unknown labels and transient
    /// states collapse to `Pending` (a restart restarts them).
    pub fn from_label(s: &str) -> JobState {
        match s {
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "quarantined" => JobState::Quarantined,
            "cancelled" => JobState::Cancelled,
            "deadline-expired" => JobState::Expired,
            _ => JobState::Pending,
        }
    }

    /// True for states a job never leaves.
    pub fn terminal(&self) -> bool {
        !matches!(self, JobState::Pending | JobState::Running)
    }
}

/// One job in the table.
struct Job {
    seq: u64,
    digest: String,
    priority: Priority,
    deadline_ms: u64,
    deadline: Option<Instant>,
    spec_toml: String,
    spec: Option<ScenarioSpec>,
    state: JobState,
    attempts: u32,
    /// Failed attempts this process run (retry budget accounting).
    failures: u32,
    preempts: u32,
    resumed: bool,
    result: Option<String>,
    error: Option<String>,
    cancel: Option<CancelToken>,
    cancel_requested: bool,
    preempt_requested: bool,
    progress: u64,
    progress_at: Instant,
}

fn id_of(seq: u64) -> String {
    format!("j{seq}")
}

fn seq_of(id: &str) -> Option<u64> {
    id.strip_prefix('j')?.parse().ok()
}

/// Everything behind the control-plane mutex.
struct Core {
    jobs: BTreeMap<u64, Job>,
    /// digest → representative job (done, else latest non-terminal) —
    /// the in-memory half of the results cache plus in-flight
    /// coalescing.
    by_digest: BTreeMap<String, u64>,
    queue: AdmissionQueue,
    journal: Journal,
    cache: ResultCache,
    next_seq: u64,
    busy: usize,
    draining: bool,
    stop: bool,
    journal_truncated: usize,
    journal_malformed: usize,
    /// Jobs found mid-flight at startup and re-enqueued.
    interrupted_at_boot: usize,
}

struct Inner {
    cfg: ServeConfig,
    registry: Registry,
    core: Mutex<Core>,
    /// Wakes workers (new work, stop).
    work: Condvar,
    /// Wakes drain/wait callers (terminal transitions, stop).
    done: Condvar,
    /// Lock-free stop signal for backoff sleeps and the accept loop.
    stopping: AtomicBool,
    addr: SocketAddr,
}

/// A running service instance: listener, workers, and the durable
/// state underneath. Tests drive it in-process; the CLI wraps it in a
/// binary.
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

/// The deterministic result line for a completed job. Contains
/// **only** replay-stable observables — digest, status, simulated
/// cycles, memory-system counters, golden diffs — never host facts
/// (attempts, resume points, wall-clock), so an interrupted-and-
/// resumed run produces byte-identical result lines to an
/// uninterrupted one, and cache hits are byte-exact.
fn result_line(digest: &str, status: &Status, outcome: Option<&WorkloadOutcome>) -> String {
    let label = match status {
        Status::GoldenMismatch { .. } => "golden-mismatch",
        _ => "pass",
    };
    let mut line = Json::obj().with("digest", digest).with("status", label);
    if let Some(o) = outcome {
        line = o.with_observables(line);
    }
    if let Status::GoldenMismatch { diffs } = status {
        let diffs: Json = diffs
            .iter()
            .map(|(field, want, got)| {
                Json::obj()
                    .with("field", field)
                    .with("want", *want)
                    .with("got", *got)
            })
            .collect();
        line.push("golden_diffs", diffs);
    }
    line.compact()
}

fn error_reply(label: &str, detail: &str) -> Json {
    Json::obj()
        .with("ok", false)
        .with("error", label)
        .with("detail", detail)
}

/// The head of every successful reply.
fn ok_reply() -> Json {
    Json::obj().with("ok", true)
}

/// A successful submission: the job that answers it and whether the
/// cache did.
fn submitted(seq: u64, digest: &str, cached: bool) -> Json {
    ok_reply()
        .with("job", id_of(seq))
        .with("digest", digest)
        .with("cached", cached)
}

/// True when the spec writes checkpoints a preempted or killed run
/// can resume from.
fn checkpointable(spec: &ScenarioSpec) -> bool {
    matches!(&spec.kind, ScenarioKind::Workload(w) if w.checkpoint_every > 0)
}

fn refresh_liveness(job: &mut Job) {
    if let Some(t) = &job.cancel {
        let p = t.progress();
        if p != job.progress {
            job.progress = p;
            job.progress_at = Instant::now();
        }
    }
}

fn stalled(job: &Job, stall_after: Duration) -> bool {
    job.state == JobState::Running && job.progress_at.elapsed() > stall_after
}

impl Core {
    /// Snapshot the whole job table as the `state.json` document.
    /// Transient states are snapshotted as `pending` — a restart
    /// restarts them.
    fn snapshot_json(&self) -> String {
        let jobs: Json = self
            .jobs
            .values()
            .map(|job| {
                let state = if job.state.terminal() {
                    job.state.label()
                } else {
                    "pending"
                };
                let mut j = Json::obj()
                    .with("job", id_of(job.seq))
                    .with("digest", &job.digest)
                    .with("priority", job.priority.label())
                    .with("deadline_ms", job.deadline_ms)
                    .with("state", state)
                    .with("attempts", job.attempts)
                    .with("preempts", job.preempts)
                    .with("resumed", job.resumed)
                    .with("spec", &job.spec_toml);
                if let Some(r) = &job.result {
                    j.push("result", r);
                }
                if let Some(e) = &job.error {
                    j.push("error", e);
                }
                j
            })
            .collect();
        Json::obj()
            .with("schema", 1)
            .with("version", code_version())
            .with("next_seq", self.next_seq)
            .with("jobs", jobs)
            .compact()
    }

    fn maybe_compact(&mut self, cfg: &ServeConfig) {
        if self.journal.since_compact >= cfg.compact_every {
            let snap = self.snapshot_json();
            if let Err(e) = self.journal.compact(&snap) {
                eprintln!("[spp serve] journal compaction failed: {e}");
            }
        }
    }

    /// Jobs per state label, every label present, keys sorted.
    fn counts(&self) -> Json {
        let mut c: BTreeMap<&'static str, usize> = BTreeMap::new();
        for label in [
            "pending",
            "running",
            "done",
            "failed",
            "quarantined",
            "cancelled",
            "deadline-expired",
        ] {
            c.insert(label, 0);
        }
        for job in self.jobs.values() {
            *c.entry(job.state.label()).or_insert(0) += 1;
        }
        Json::Obj(
            c.into_iter()
                .map(|(label, n)| (label.to_string(), Json::from(n)))
                .collect(),
        )
    }

    fn all_terminal(&self) -> bool {
        self.jobs.values().all(|j| j.state.terminal())
    }

    /// Drop the digest mapping when it points at `seq` and `seq`
    /// ended without a result (failed/cancelled/expired jobs must not
    /// coalesce future submissions).
    fn unmap_digest(&mut self, seq: u64) {
        let Some(job) = self.jobs.get(&seq) else {
            return;
        };
        if self.by_digest.get(&job.digest) == Some(&seq) {
            let digest = job.digest.clone();
            self.by_digest.remove(&digest);
        }
    }
}

fn insert_replayed_job(core: &mut Core, seq: u64, mut job: Job) {
    core.next_seq = core.next_seq.max(seq + 1);
    // Replay never resumes mid-attempt; transient states restart.
    if !job.state.terminal() {
        job.state = JobState::Pending;
    }
    core.jobs.insert(seq, job);
}

fn job_from_parts(
    seq: u64,
    digest: String,
    priority: Priority,
    deadline_ms: u64,
    spec_toml: String,
    boot: Instant,
) -> Job {
    let spec = ScenarioSpec::from_toml_str(&spec_toml).ok();
    let error = if spec.is_none() {
        Some("journaled spec no longer parses".to_string())
    } else {
        None
    };
    Job {
        seq,
        digest,
        priority,
        // Deadlines are promises about this process's clock; a
        // restart re-arms them from boot.
        deadline: (deadline_ms > 0).then(|| boot + Duration::from_millis(deadline_ms)),
        deadline_ms,
        spec_toml,
        state: if error.is_some() {
            JobState::Failed
        } else {
            JobState::Pending
        },
        spec,
        attempts: 0,
        failures: 0,
        preempts: 0,
        resumed: false,
        result: None,
        error,
        cancel: None,
        cancel_requested: false,
        preempt_requested: false,
        progress: 0,
        progress_at: boot,
    }
}

/// Fold one journal record into the table. Idempotent: re-applying
/// records already reflected in the snapshot changes nothing, which
/// is what makes the compaction crash window safe.
fn apply_record(core: &mut Core, rec: &Record, boot: Instant) {
    match rec {
        Record::Submit {
            job,
            digest,
            priority,
            deadline_ms,
            spec,
        } => {
            let Some(seq) = seq_of(job) else { return };
            if core.jobs.contains_key(&seq) {
                core.next_seq = core.next_seq.max(seq + 1);
                return;
            }
            let j = job_from_parts(
                seq,
                digest.clone(),
                *priority,
                *deadline_ms,
                spec.clone(),
                boot,
            );
            insert_replayed_job(core, seq, j);
        }
        Record::Start { job, attempt } => {
            if let Some(j) = seq_of(job).and_then(|s| core.jobs.get_mut(&s)) {
                if !j.state.terminal() {
                    j.attempts = j.attempts.max(*attempt);
                }
            }
        }
        Record::Preempt { job } => {
            if let Some(j) = seq_of(job).and_then(|s| core.jobs.get_mut(&s)) {
                if !j.state.terminal() {
                    j.preempts += 1;
                }
            }
        }
        Record::Cancel { job } => {
            // The client asked; honor it even if the confirming `end`
            // never made it to disk.
            if let Some(j) = seq_of(job).and_then(|s| core.jobs.get_mut(&s)) {
                if !j.state.terminal() {
                    j.state = JobState::Cancelled;
                    j.error = Some("cancelled by client".to_string());
                }
            }
        }
        Record::End {
            job,
            state,
            result,
            error,
            attempts,
            resumed,
        } => {
            if let Some(j) = seq_of(job).and_then(|s| core.jobs.get_mut(&s)) {
                j.state = JobState::from_label(state);
                j.result = result.clone();
                j.error = error.clone();
                j.attempts = (*attempts).max(j.attempts);
                j.resumed = *resumed;
            }
        }
    }
}

/// Rebuild the digest index after replay: done jobs win, then the
/// latest non-terminal job; failure terminals don't memoize.
fn rebuild_digest_index(core: &mut Core) {
    let mut index: BTreeMap<String, u64> = BTreeMap::new();
    for job in core.jobs.values() {
        let replace = match index.get(&job.digest).map(|s| &core.jobs[s]) {
            None => job.state == JobState::Done || !job.state.terminal(),
            Some(cur) => match (cur.state == JobState::Done, job.state == JobState::Done) {
                (true, true) => job.seq > cur.seq,
                (true, false) => false,
                (false, true) => true,
                (false, false) => !job.state.terminal(),
            },
        };
        if replace {
            index.insert(job.digest.clone(), job.seq);
        }
    }
    core.by_digest = index;
}

impl Server {
    /// Recover state from `cfg.state_dir`, re-enqueue interrupted
    /// work, bind the listener, publish the endpoint file, and start
    /// workers + accept loop.
    pub fn start(cfg: ServeConfig, registry: Registry) -> std::io::Result<Server> {
        let boot = Instant::now();
        let (journal, replay) = Journal::open(&cfg.state_dir)?;
        std::fs::create_dir_all(cfg.state_dir.join("checkpoints"))?;

        let mut core = Core {
            jobs: BTreeMap::new(),
            by_digest: BTreeMap::new(),
            queue: AdmissionQueue::new(cfg.lane_cap, cfg.total_cap),
            journal,
            cache: ResultCache::new(&cfg.state_dir.join("cache")),
            next_seq: 1,
            busy: 0,
            draining: false,
            stop: false,
            journal_truncated: replay.truncated,
            journal_malformed: replay.malformed.len(),
            interrupted_at_boot: 0,
        };
        if replay.truncated > 0 {
            eprintln!(
                "[spp serve] journal: skipped {} torn final line(s) from a previous crash",
                replay.truncated
            );
        }
        for m in &replay.malformed {
            eprintln!("[spp serve] journal: skipped malformed record: {m}");
        }

        // Snapshot first, then the journal tail on top — idempotent.
        if let Some(snap) = &replay.snapshot {
            if let Some(Json::Arr(jobs)) = snap.get("jobs") {
                for obj in jobs {
                    let Some(seq) = obj.str_field("job").and_then(seq_of) else {
                        continue;
                    };
                    let mut j = job_from_parts(
                        seq,
                        obj.str_field("digest").unwrap_or_default().to_string(),
                        Priority::from_label(obj.str_field("priority").unwrap_or("normal"))
                            .unwrap_or(Priority::Normal),
                        obj.int_field("deadline_ms").unwrap_or(0).max(0) as u64,
                        obj.str_field("spec").unwrap_or_default().to_string(),
                        boot,
                    );
                    if j.error.is_none() {
                        j.state = JobState::from_label(obj.str_field("state").unwrap_or("pending"));
                        j.result = obj.str_field("result").map(str::to_string);
                        j.error = obj.str_field("error").map(str::to_string);
                    }
                    j.attempts = obj.int_field("attempts").unwrap_or(0).max(0) as u32;
                    j.preempts = obj.int_field("preempts").unwrap_or(0).max(0) as u32;
                    j.resumed = obj.bool_field("resumed").unwrap_or(false);
                    insert_replayed_job(&mut core, seq, j);
                }
            }
            if let Some(n) = snap.int_field("next_seq") {
                core.next_seq = core.next_seq.max(n.max(1) as u64);
            }
        }
        for rec in &replay.records {
            apply_record(&mut core, rec, boot);
        }
        rebuild_digest_index(&mut core);

        // Re-enqueue survivors, oldest first (push_front in reverse).
        let mut pending: Vec<(u64, Priority, u32)> = core
            .jobs
            .values()
            .filter(|j| !j.state.terminal())
            .map(|j| (j.seq, j.priority, j.attempts))
            .collect();
        pending.sort_by_key(|(seq, _, _)| *seq);
        core.interrupted_at_boot = pending.iter().filter(|(_, _, att)| *att > 0).count();
        for (seq, priority, _) in pending.iter().rev() {
            core.queue.push_front(id_of(*seq), *priority);
        }
        if !pending.is_empty() {
            eprintln!(
                "[spp serve] recovered {} unfinished job(s) ({} interrupted mid-run)",
                pending.len(),
                core.interrupted_at_boot
            );
        }

        // Startup compaction: fold what we just replayed into the
        // snapshot so journals stay bounded across crash loops.
        let snap = core.snapshot_json();
        core.journal.compact(&snap)?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        spp_core::atomic_write_str(&cfg.state_dir.join("endpoint"), &format!("{addr}\n"))?;

        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            registry,
            core: Mutex::new(core),
            work: Condvar::new(),
            done: Condvar::new(),
            stopping: AtomicBool::new(false),
            addr,
        });

        let mut threads = Vec::new();
        for _ in 0..workers {
            let i = inner.clone();
            threads.push(std::thread::spawn(move || worker_loop(&i)));
        }
        {
            let i = inner.clone();
            threads.push(std::thread::spawn(move || accept_loop(&i, listener)));
        }
        Ok(Server { inner, threads })
    }

    /// The bound address (the endpoint file holds the same).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Block until a `shutdown` request (or [`Server::stop`]) stops
    /// the server, then join all threads.
    pub fn wait(mut self) {
        {
            let mut core = self.inner.core.lock().unwrap();
            while !core.stop {
                core = self
                    .inner
                    .done
                    .wait_timeout(core, Duration::from_millis(200))
                    .unwrap()
                    .0;
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stop now, crash-style: running attempts are cancelled and
    /// **not** journaled as ended, exactly as if the process had been
    /// killed — restart re-enqueues and resumes them. Use `drain`
    /// then `shutdown` over the wire for a graceful stop.
    pub fn stop(mut self) {
        request_stop(&self.inner);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn request_stop(inner: &Inner) {
    inner.stopping.store(true, Ordering::SeqCst);
    {
        let mut core = inner.core.lock().unwrap();
        core.stop = true;
        for job in core.jobs.values() {
            if let Some(t) = &job.cancel {
                t.cancel();
            }
        }
    }
    inner.work.notify_all();
    inner.done.notify_all();
    // Unblock the accept loop.
    let _ = TcpStream::connect(inner.addr);
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if inner.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let i = inner.clone();
        std::thread::spawn(move || handle_conn(&i, stream));
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    let ckpt_dir = inner.cfg.state_dir.join("checkpoints");
    let mut core = inner.core.lock().unwrap();
    'jobs: loop {
        // === pop phase ===
        let (seq, spec, priority, retries, backoff_ms, timeout, ckpt) = loop {
            if core.stop {
                return;
            }
            let c = &mut *core;
            if let Some(id) = c.queue.pop() {
                let Some(seq) = seq_of(&id) else { continue };
                let Some(job) = c.jobs.get_mut(&seq) else {
                    continue;
                };
                if job.state != JobState::Pending {
                    continue; // cancelled while queued, or replay noise
                }
                if job.cancel_requested {
                    job.state = JobState::Cancelled;
                    job.error = Some("cancelled by client".to_string());
                    let rec = Record::End {
                        job: id.clone(),
                        state: "cancelled".to_string(),
                        result: None,
                        error: job.error.clone(),
                        attempts: job.attempts,
                        resumed: job.resumed,
                    };
                    let _ = c.journal.append(&rec);
                    c.unmap_digest(seq);
                    c.maybe_compact(&inner.cfg);
                    inner.done.notify_all();
                    continue;
                }
                if job.deadline.is_some_and(|d| Instant::now() >= d) {
                    // Load shedding: the deadline passed while queued.
                    job.state = JobState::Expired;
                    job.error = Some(format!(
                        "deadline of {}ms expired before execution",
                        job.deadline_ms
                    ));
                    let rec = Record::End {
                        job: id.clone(),
                        state: "deadline-expired".to_string(),
                        result: None,
                        error: job.error.clone(),
                        attempts: job.attempts,
                        resumed: job.resumed,
                    };
                    let _ = c.journal.append(&rec);
                    c.unmap_digest(seq);
                    c.maybe_compact(&inner.cfg);
                    inner.done.notify_all();
                    continue;
                }
                let Some(spec) = job.spec.clone() else {
                    job.state = JobState::Failed;
                    job.error = Some("spec unavailable".to_string());
                    c.unmap_digest(seq);
                    inner.done.notify_all();
                    continue;
                };
                let timeout = if spec.timeout_secs > 0.0 {
                    Duration::from_secs_f64(spec.timeout_secs)
                } else {
                    Duration::from_secs(30)
                };
                let ckpt =
                    checkpointable(&spec).then(|| CheckpointPaths::new(&ckpt_dir, &id_of(seq)));
                let (priority, retries, backoff_ms) = (job.priority, spec.retries, spec.backoff_ms);
                break (seq, spec, priority, retries, backoff_ms, timeout, ckpt);
            }
            core = inner
                .work
                .wait_timeout(core, Duration::from_millis(100))
                .unwrap()
                .0;
        };

        core.busy += 1;
        let id = id_of(seq);

        // === attempt phase ===
        loop {
            let c = &mut *core;
            let job = c.jobs.get_mut(&seq).expect("job table never shrinks");
            if c.stop {
                // Crash-style stop mid-job: leave the journal with a
                // start-without-end so restart resumes it.
                c.busy -= 1;
                return;
            }
            if job.cancel_requested {
                job.state = JobState::Cancelled;
                job.error = Some("cancelled by client".to_string());
                job.cancel = None;
                let rec = Record::End {
                    job: id.clone(),
                    state: "cancelled".to_string(),
                    result: None,
                    error: job.error.clone(),
                    attempts: job.attempts,
                    resumed: job.resumed,
                };
                let _ = c.journal.append(&rec);
                c.unmap_digest(seq);
                if let Some(p) = &ckpt {
                    p.remove();
                }
                break;
            }
            if job.preempt_requested {
                // Evicted for a higher-priority job: back to the
                // front of its lane; its checkpoint stays for resume.
                job.preempt_requested = false;
                job.preempts += 1;
                job.state = JobState::Pending;
                job.cancel = None;
                let _ = c.journal.append(&Record::Preempt { job: id.clone() });
                c.queue.push_front(id.clone(), priority);
                inner.work.notify_one();
                break;
            }

            job.state = JobState::Running;
            job.attempts += 1;
            let cancel = CancelToken::new();
            job.cancel = Some(cancel.clone());
            job.progress = 0;
            job.progress_at = Instant::now();
            let rec = Record::Start {
                job: id.clone(),
                attempt: job.attempts,
            };
            let _ = c.journal.append(&rec);

            drop(core);
            let (status, outcome) =
                run_attempt(&spec, &inner.registry, ckpt.as_ref(), timeout, &cancel);
            core = inner.core.lock().unwrap();

            let c = &mut *core;
            if c.stop {
                c.busy -= 1;
                return;
            }
            let job = c.jobs.get_mut(&seq).expect("job table never shrinks");
            match &status {
                Status::Pass | Status::GoldenMismatch { .. } => {
                    if outcome.as_ref().is_some_and(|o| o.resumed_from.is_some()) {
                        job.resumed = true;
                    }
                    let line = result_line(&job.digest, &status, outcome.as_ref());
                    job.state = JobState::Done;
                    job.result = Some(line.clone());
                    job.cancel = None;
                    let digest = job.digest.clone();
                    let rec = Record::End {
                        job: id.clone(),
                        state: "done".to_string(),
                        result: Some(line.clone()),
                        error: None,
                        attempts: job.attempts,
                        resumed: job.resumed,
                    };
                    let _ = c.journal.append(&rec);
                    if let Err(e) = c.cache.put(&digest, &line) {
                        eprintln!("[spp serve] cache put failed for {digest}: {e}");
                    }
                    c.by_digest.insert(digest, seq);
                    if let Some(p) = &ckpt {
                        p.remove();
                    }
                    break;
                }
                Status::Fail { .. } | Status::Timeout => {
                    if job.cancel_requested || job.preempt_requested {
                        // Resolved at the top of the next iteration.
                        continue;
                    }
                    job.failures += 1;
                    let error = match &status {
                        Status::Fail { error } => error.clone(),
                        _ => format!("timed out after {:.1}s", timeout.as_secs_f64()),
                    };
                    if job.failures > retries {
                        job.state = if retries > 0 {
                            JobState::Quarantined
                        } else {
                            JobState::Failed
                        };
                        job.error = Some(error);
                        job.cancel = None;
                        let rec = Record::End {
                            job: id.clone(),
                            state: job.state.label().to_string(),
                            result: None,
                            error: job.error.clone(),
                            attempts: job.attempts,
                            resumed: job.resumed,
                        };
                        let _ = c.journal.append(&rec);
                        c.unmap_digest(seq);
                        if let Some(p) = &ckpt {
                            p.remove();
                        }
                        break;
                    }
                    // Shared backoff discipline; sleep outside the
                    // lock, in slices, so stop stays responsive.
                    let wait = retry_backoff(backoff_ms, job.failures.saturating_sub(1));
                    drop(core);
                    let deadline = Instant::now() + Duration::from_millis(wait);
                    while Instant::now() < deadline && !inner.stopping.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    core = inner.core.lock().unwrap();
                    continue;
                }
            }
        }

        let c = &mut *core;
        c.busy -= 1;
        c.maybe_compact(&inner.cfg);
        inner.done.notify_all();
        continue 'jobs;
    }
}

// ---------------------------------------------------------------------------
// Protocol handlers
// ---------------------------------------------------------------------------

fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let (reply, stop_after) = dispatch(inner, line);
    let mut stream = stream;
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
    // The shutdown reply must reach the client before the listener
    // dies with the process, so the stop happens only after the flush.
    if stop_after {
        request_stop(inner);
    }
}

fn dispatch(inner: &Arc<Inner>, line: &str) -> (String, bool) {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply("bad-request", &e.to_string()).compact(), false),
    };
    let reply = match req.str_field("cmd") {
        Some("submit") => handle_submit(inner, &req),
        Some("status") => handle_status(inner, &req),
        Some("result") => handle_result(inner, &req),
        Some("cancel") => handle_cancel(inner, &req),
        Some("health") => handle_health(inner),
        Some("drain") => handle_drain(inner),
        Some("shutdown") => return (ok_reply().with("stopping", true).compact(), true),
        other => error_reply("bad-request", &format!("unknown cmd {other:?}")),
    };
    (reply.compact(), false)
}

fn handle_submit(inner: &Arc<Inner>, req: &Json) -> Json {
    let Some(spec_text) = req.str_field("spec") else {
        return error_reply("bad-request", "submit without a spec");
    };
    let spec = match ScenarioSpec::from_toml_str(spec_text) {
        Ok(s) => s,
        Err(e) => return error_reply("bad-spec", &e.to_string()),
    };
    let priority = match req.str_field("priority") {
        None => Priority::Normal,
        Some(p) => match Priority::from_label(p) {
            Some(p) => p,
            None => return error_reply("bad-request", &format!("unknown priority {p:?}")),
        },
    };
    let deadline_ms = req.int_field("deadline_ms").unwrap_or(0).max(0) as u64;
    let digest = format!("{:016x}", spec.digest());
    let spec_toml = spec.to_toml_string();

    let mut core = inner.core.lock().unwrap();
    let c = &mut *core;
    if c.stop {
        return error_reply("draining", "server is stopping");
    }

    // Results cache, layer 1: a live job with the same canonical
    // digest (done → serve it; in flight → coalesce onto it). Checked
    // ahead of the draining gate: a cache hit admits no new work, so
    // a draining server still answers it.
    if let Some(&existing) = c.by_digest.get(&digest) {
        let job = &c.jobs[&existing];
        if job.state == JobState::Done {
            c.cache.hits += 1;
            return submitted(existing, &digest, true);
        }
        if !job.state.terminal() {
            return submitted(existing, &digest, false).with("coalesced", true);
        }
    }

    // Results cache, layer 2: an on-disk entry from a previous server
    // lifetime (same digest, same code version).
    if let Some(bytes) = c.cache.get(&digest) {
        let seq = c.next_seq;
        c.next_seq += 1;
        let id = id_of(seq);
        let _ = c.journal.append(&Record::Submit {
            job: id.clone(),
            digest: digest.clone(),
            priority,
            deadline_ms,
            spec: spec_toml.clone(),
        });
        let _ = c.journal.append(&Record::End {
            job: id.clone(),
            state: "done".to_string(),
            result: Some(bytes.clone()),
            error: None,
            attempts: 0,
            resumed: false,
        });
        let mut job = job_from_parts(
            seq,
            digest.clone(),
            priority,
            deadline_ms,
            spec_toml,
            Instant::now(),
        );
        job.state = JobState::Done;
        job.result = Some(bytes);
        c.jobs.insert(seq, job);
        c.by_digest.insert(digest.clone(), seq);
        c.maybe_compact(&inner.cfg);
        inner.done.notify_all();
        return submitted(seq, &digest, true);
    }

    // Fresh work: refused while draining, else bounded admission with
    // typed rejection.
    if c.draining {
        return error_reply(
            crate::queue::AdmissionError::Draining.label(),
            &crate::queue::AdmissionError::Draining.to_string(),
        );
    }
    let id = id_of(c.next_seq);
    if let Err(e) = c.queue.push(id.clone(), priority) {
        return error_reply(e.label(), &e.to_string());
    }
    let seq = c.next_seq;
    c.next_seq += 1;
    let _ = c.journal.append(&Record::Submit {
        job: id.clone(),
        digest: digest.clone(),
        priority,
        deadline_ms,
        spec: spec_toml.clone(),
    });
    c.jobs.insert(
        seq,
        job_from_parts(
            seq,
            digest.clone(),
            priority,
            deadline_ms,
            spec_toml,
            Instant::now(),
        ),
    );
    c.by_digest.insert(digest.clone(), seq);

    // Checkpoint preemption: a high-priority arrival with every
    // worker busy evicts the lowest-priority running checkpointable
    // job; it requeues at its lane front and later resumes from its
    // snapshot.
    if priority == Priority::High && c.busy >= inner.cfg.workers.max(1) {
        let candidate = c
            .jobs
            .values_mut()
            .filter(|j| {
                j.state == JobState::Running
                    && j.priority > Priority::High
                    && !j.preempt_requested
                    && !j.cancel_requested
                    && j.cancel.is_some()
                    && j.spec.as_ref().is_some_and(checkpointable)
            })
            .max_by_key(|j| (j.priority, j.seq));
        if let Some(victim) = candidate {
            victim.preempt_requested = true;
            if let Some(t) = &victim.cancel {
                t.cancel();
            }
        }
    }

    c.maybe_compact(&inner.cfg);
    inner.work.notify_one();
    submitted(seq, &digest, false)
}

fn handle_status(inner: &Arc<Inner>, req: &Json) -> Json {
    let Some(id) = req.str_field("job") else {
        return error_reply("bad-request", "status without a job id");
    };
    let mut core = inner.core.lock().unwrap();
    let stall_after = inner.cfg.stall_after;
    let Some(job) = seq_of(id).and_then(|s| core.jobs.get_mut(&s)) else {
        return error_reply("no-such-job", &format!("unknown job {id:?}"));
    };
    refresh_liveness(job);
    let mut reply = ok_reply()
        .with("job", id_of(job.seq))
        .with("digest", &job.digest)
        .with("state", job.state.label())
        .with("priority", job.priority.label())
        .with("attempts", job.attempts)
        .with("preempts", job.preempts)
        .with("resumed", job.resumed)
        .with("progress_cycles", job.progress)
        .with("stalled", stalled(job, stall_after));
    if let Some(e) = &job.error {
        reply.push("error", e);
    }
    reply
}

fn handle_result(inner: &Arc<Inner>, req: &Json) -> Json {
    let Some(id) = req.str_field("job") else {
        return error_reply("bad-request", "result without a job id");
    };
    let core = inner.core.lock().unwrap();
    let Some(job) = seq_of(id).and_then(|s| core.jobs.get(&s)) else {
        return error_reply("no-such-job", &format!("unknown job {id:?}"));
    };
    match (&job.result, job.state) {
        (Some(r), JobState::Done) => ok_reply().with("job", id_of(job.seq)).with("result", r),
        _ => {
            let mut reply = Json::obj()
                .with("ok", false)
                .with("error", "not-done")
                .with("state", job.state.label());
            if let Some(e) = &job.error {
                reply.push("detail", e);
            }
            reply
        }
    }
}

fn handle_cancel(inner: &Arc<Inner>, req: &Json) -> Json {
    let Some(id) = req.str_field("job") else {
        return error_reply("bad-request", "cancel without a job id");
    };
    let mut core = inner.core.lock().unwrap();
    let c = &mut *core;
    let Some(seq) = seq_of(id) else {
        return error_reply("no-such-job", &format!("unknown job {id:?}"));
    };
    let Some(job) = c.jobs.get_mut(&seq) else {
        return error_reply("no-such-job", &format!("unknown job {id:?}"));
    };
    let reply = |state: &str| ok_reply().with("job", id_of(seq)).with("state", state);
    if job.state.terminal() {
        return reply(job.state.label());
    }
    // Record the intent durably before acting, so a crash between
    // request and confirmation still honours the cancel on replay.
    let _ = c.journal.append(&Record::Cancel { job: id_of(seq) });
    if job.state == JobState::Pending {
        job.state = JobState::Cancelled;
        job.error = Some("cancelled by client".to_string());
        let rec = Record::End {
            job: id_of(seq),
            state: "cancelled".to_string(),
            result: None,
            error: job.error.clone(),
            attempts: job.attempts,
            resumed: job.resumed,
        };
        let _ = c.journal.append(&rec);
        let queued = c.queue.remove(&id_of(seq));
        debug_assert!(queued, "pending jobs are queued");
        c.unmap_digest(seq);
        c.maybe_compact(&inner.cfg);
        inner.done.notify_all();
        return reply("cancelled");
    }
    job.cancel_requested = true;
    if let Some(t) = &job.cancel {
        t.cancel();
    }
    reply("cancelling")
}

fn handle_health(inner: &Arc<Inner>) -> Json {
    let mut core = inner.core.lock().unwrap();
    let stall_after = inner.cfg.stall_after;
    let c = &mut *core;
    let mut running = Vec::new();
    for job in c.jobs.values_mut() {
        if job.state == JobState::Running {
            refresh_liveness(job);
            running.push(
                Json::obj()
                    .with("job", id_of(job.seq))
                    .with("progress_cycles", job.progress)
                    .with("stalled", stalled(job, stall_after)),
            );
        }
    }
    let backlog = Json::obj()
        .with("high", c.queue.lane_len(Priority::High))
        .with("normal", c.queue.lane_len(Priority::Normal))
        .with("low", c.queue.lane_len(Priority::Low));
    let journal = Json::obj()
        .with("since_compact", c.journal.since_compact)
        .with("truncated", c.journal_truncated)
        .with("malformed", c.journal_malformed);
    ok_reply()
        .with("version", code_version())
        .with("draining", c.draining)
        .with("workers", inner.cfg.workers.max(1))
        .with("busy", c.busy)
        .with("backlog", backlog)
        .with("jobs", c.counts())
        .with("cache_hits", c.cache.hits)
        .with("journal", journal)
        .with("interrupted_resumed", c.interrupted_at_boot)
        .with("running_jobs", running)
}

fn handle_drain(inner: &Arc<Inner>) -> Json {
    let mut core = inner.core.lock().unwrap();
    core.draining = true;
    while !(core.stop || (core.all_terminal() && core.busy == 0)) {
        core = inner
            .done
            .wait_timeout(core, Duration::from_millis(100))
            .unwrap()
            .0;
    }
    let snap = core.snapshot_json();
    let _ = core.journal.compact(&snap);
    ok_reply().with("drained", true).with("jobs", core.counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::MemStats;

    #[test]
    fn job_state_labels_round_trip_and_classify() {
        for s in [
            JobState::Done,
            JobState::Failed,
            JobState::Quarantined,
            JobState::Cancelled,
            JobState::Expired,
        ] {
            assert!(s.terminal());
            assert_eq!(JobState::from_label(s.label()), s);
        }
        for s in [JobState::Pending, JobState::Running] {
            assert!(!s.terminal());
            assert_eq!(JobState::from_label(s.label()), JobState::Pending);
        }
        assert_eq!(JobState::Expired.label(), "deadline-expired");
    }

    #[test]
    fn result_lines_carry_only_replay_stable_observables() {
        let out = WorkloadOutcome {
            cycles: 123,
            stats: MemStats {
                reads: 10,
                writes: 5,
                hits: 8,
                sci_fetches: 2,
                uncached_ops: 1,
                ..MemStats::default()
            },
            // Host facts that differ between an interrupted-and-
            // resumed run and an uninterrupted one:
            steps_run: 7,
            resumed_from: Some(3),
            checkpoints_written: 2,
            rollbacks: 0,
        };
        let line = result_line("00ff00ff00ff00ff", &Status::Pass, Some(&out));
        assert_eq!(
            line,
            "{\"digest\": \"00ff00ff00ff00ff\", \"status\": \"pass\", \"cycles\": 123, \
             \"reads\": 10, \"writes\": 5, \"hits\": 8, \"sci_fetches\": 2, \
             \"ring_stalls\": 0, \"uncached_ops\": 1}"
        );
        assert!(!line.contains("resumed"), "resume point is a host fact");
        assert!(!line.contains("steps_run"), "steps_run is a host fact");

        let mismatch = Status::GoldenMismatch {
            diffs: vec![("cycles".to_string(), 100, 123), ("h\"x".to_string(), 1, 2)],
        };
        let line = result_line("aa", &mismatch, Some(&out));
        assert_eq!(
            line,
            "{\"digest\": \"aa\", \"status\": \"golden-mismatch\", \"cycles\": 123, \
             \"reads\": 10, \"writes\": 5, \"hits\": 8, \"sci_fetches\": 2, \
             \"ring_stalls\": 0, \"uncached_ops\": 1, \"golden_diffs\": [{\"field\": \"cycles\", \
             \"want\": 100, \"got\": 123}, {\"field\": \"h\\\"x\", \"want\": 1, \"got\": 2}]}"
        );
        assert_eq!(
            result_line("bb", &Status::Pass, None),
            "{\"digest\": \"bb\", \"status\": \"pass\"}"
        );
        assert_eq!(
            error_reply("no-such-job", "unknown job \"j9\"").compact(),
            "{\"ok\": false, \"error\": \"no-such-job\", \"detail\": \"unknown job \\\"j9\\\"\"}"
        );
        parse(&line).expect("result lines are valid JSON");
    }

    #[test]
    fn job_ids_round_trip() {
        assert_eq!(seq_of(&id_of(17)), Some(17));
        assert_eq!(seq_of("nope"), None);
        assert_eq!(seq_of("j-1"), None);
    }
}
