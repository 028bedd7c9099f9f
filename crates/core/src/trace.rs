//! `spp-trace`: structured event tracing and exporters.
//!
//! The paper's §6 credits the SPP-1000's hardware event counters and
//! the CXpa profiler for making the applications tunable "rapidly and
//! to good effect". Aggregate [`MemStats`] totals reproduce the
//! *counters*; this module reproduces the *event view*: a typed,
//! bounded, deterministic stream of protocol events — coherence
//! misses, SCI invalidation walks, GCB rollouts, barrier arrivals and
//! releases, fork/join spans, PVM message traffic, fault and watchdog
//! firings — each stamped with simulated cycles, the issuing CPU and
//! its hypernode.
//!
//! ## Determinism contract
//!
//! The simulator is single-threaded and deterministic, and the trace
//! layer preserves that: no wall-clock time, host addresses or
//! randomness ever enter a [`TraceRecord`], and events are recorded in
//! the exact order the simulation produces them. Running the same
//! seeded workload twice therefore yields **byte-identical** exported
//! streams ([`perfetto_json`] output included), which CI diffs
//! directly. Timestamps are *simulated* cycles: machine-level events
//! carry the machine's cumulative access clock at the start of the
//! triggering access; runtime and PVM events carry the emitting
//! layer's own simulated clock (region start times, task clocks).
//!
//! ## Zero overhead when off
//!
//! Tracing is off by default. The machine's hot paths pay exactly one
//! `Option` discriminant test per *event site* (miss service,
//! invalidation walk, rollout — never per hit), and the batched run
//! fast path is untouched for the hit-priced remainder of each line,
//! so simulated cycle counts are bit-identical with tracing on or off
//! and host-time overhead with tracing off is below the noise floor
//! (`spp repro trace` measures it).

use crate::config::NodeId;
use crate::fault::HardFault;
use crate::latency::Cycles;
use crate::machine::Machine;
use crate::stats::MemStats;
use crate::watchdog::StallKind;
use std::collections::VecDeque;

/// Sentinel CPU id for events not attributable to a single CPU
/// (asynchronous GCB rollouts, link failures).
pub const NO_CPU: u16 = u16::MAX;

/// Sentinel node id for events not attributable to a hypernode.
pub const NO_NODE: u8 = u8::MAX;

/// Which service path a cache miss took. The four kinds partition
/// [`MemStats::misses`] exactly (see
/// [`MemStats::miss_partition_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// Serviced by memory within the hypernode.
    Local,
    /// Serviced by the hypernode's global cache buffer.
    Gcb,
    /// Required an SCI ring transaction (including remote-dirty
    /// forwarding).
    Sci,
    /// Cache-to-cache transfer within the hypernode.
    C2c,
}

impl MissKind {
    /// Stable short label.
    pub fn label(&self) -> &'static str {
        match self {
            MissKind::Local => "local",
            MissKind::Gcb => "gcb",
            MissKind::Sci => "sci",
            MissKind::C2c => "c2c",
        }
    }
}

/// One typed simulation event. All payloads are plain integers so
/// records are `Copy` and serialize deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A cache miss was serviced (one per miss; `kind` selects the
    /// protocol path — a coherence transition out of Invalid).
    Miss {
        /// Service path.
        kind: MissKind,
        /// Cache line index (address >> line_shift).
        line: u64,
    },
    /// A write upgrade (Shared/Invalid -> Modified) by the stamped CPU.
    Upgrade {
        /// Cache line index.
        line: u64,
    },
    /// A serial SCI invalidation walk over remote sharing nodes.
    SciInvalWalk {
        /// Cache line index.
        line: u64,
        /// Remote hypernodes invalidated in the walk.
        nodes: u8,
    },
    /// A line was displaced from a global cache buffer.
    GcbRollout {
        /// The displaced line.
        line: u64,
    },
    /// A thread arrived at a barrier (stamp is the arrival time).
    BarrierArrive,
    /// A thread resumed past a barrier (stamp is the release time).
    BarrierRelease,
    /// One fork-join parallel region (stamp is the region start in
    /// runtime time; `dur` is fork-to-join elapsed).
    ForkSpan {
        /// Team size.
        threads: u16,
        /// Fork-to-join elapsed cycles.
        dur: Cycles,
    },
    /// A PVM message left the sender (stamp is its arrival time at
    /// the receiver's inbox, in the sender's task clock).
    PvmSend {
        /// Sending task index.
        from: u16,
        /// Receiving task index.
        to: u16,
        /// Message length.
        bytes: u64,
        /// User tag.
        tag: u32,
    },
    /// A PVM message was consumed by a receive (stamp is the
    /// receiver's clock after the receive path).
    PvmRecv {
        /// Sending task index.
        from: u16,
        /// Receiving task index.
        to: u16,
        /// Message length.
        bytes: u64,
        /// User tag.
        tag: u32,
    },
    /// A dropped send was retried after the retry timeout.
    PvmRetry {
        /// Sending task index.
        from: u16,
        /// Receiving task index.
        to: u16,
        /// User tag.
        tag: u32,
    },
    /// A scheduled hard fault fired.
    Fault(HardFault),
    /// A watchdog tripped on a protocol-level stall.
    Watchdog {
        /// What stalled.
        kind: StallKind,
    },
    /// A snoop transaction broadcast by the MESI backend (one per
    /// miss or upgrade that had to interrogate the other caches).
    Snoop {
        /// Cache line index.
        line: u64,
    },
    /// A write-update broadcast by the Dragon backend (one per write
    /// to a line with remote sharers).
    Update {
        /// Cache line index.
        line: u64,
        /// Caches whose copy was refreshed.
        sharers: u8,
    },
    /// A transient coherence fault was injected on a line (one per
    /// injection; `site` is the [`crate::FaultPlan`] decision-stream
    /// index of the fault kind).
    TransientFault {
        /// The corrupted cache line index.
        line: u64,
        /// Fault-site index (4..10; see `spp_core::fault`).
        site: u8,
    },
    /// The scrub-and-retry path repaired a transient coherence fault
    /// (one per recovery; `attempts` counts the scrubs it took).
    Recovery {
        /// The repaired cache line index.
        line: u64,
        /// Scrub attempts spent (>= 1).
        attempts: u32,
    },
    /// The stamped CPU was the straggler of a barrier interval: the
    /// last arrival, holding every other thread for `stall` cycles in
    /// total (see `spp_runtime::interval`).
    Straggler {
        /// Sum of the other threads' wait for this straggler.
        stall: Cycles,
    },
    /// A liveness heartbeat from a supervised fleet cell (see the
    /// scenario engine): `seq` increments per beat, `progress` is the
    /// watchdog clock's simulated-cycle progress at the beat.
    Heartbeat {
        /// Beat sequence number within the cell.
        seq: u32,
        /// Simulated cycles of progress at the beat.
        progress: Cycles,
    },
}

/// Number of distinct event-kind slots in [`TraceSink::counts`]
/// (misses occupy one slot per [`MissKind`]).
pub const N_EVENT_KINDS: usize = 21;

impl TraceEvent {
    /// Dense kind index into a `[u64; N_EVENT_KINDS]` count array.
    pub fn kind_index(&self) -> usize {
        match self {
            TraceEvent::Miss {
                kind: MissKind::Local,
                ..
            } => 0,
            TraceEvent::Miss {
                kind: MissKind::Gcb,
                ..
            } => 1,
            TraceEvent::Miss {
                kind: MissKind::Sci,
                ..
            } => 2,
            TraceEvent::Miss {
                kind: MissKind::C2c,
                ..
            } => 3,
            TraceEvent::Upgrade { .. } => 4,
            TraceEvent::SciInvalWalk { .. } => 5,
            TraceEvent::GcbRollout { .. } => 6,
            TraceEvent::BarrierArrive => 7,
            TraceEvent::BarrierRelease => 8,
            TraceEvent::ForkSpan { .. } => 9,
            TraceEvent::PvmSend { .. } => 10,
            TraceEvent::PvmRecv { .. } => 11,
            TraceEvent::PvmRetry { .. } => 12,
            TraceEvent::Fault(_) => 13,
            TraceEvent::Watchdog { .. } => 14,
            TraceEvent::Snoop { .. } => 15,
            TraceEvent::Update { .. } => 16,
            TraceEvent::TransientFault { .. } => 17,
            TraceEvent::Recovery { .. } => 18,
            TraceEvent::Straggler { .. } => 19,
            TraceEvent::Heartbeat { .. } => 20,
        }
    }

    /// Stable label for a kind index (exporters and reports).
    pub fn kind_label(index: usize) -> &'static str {
        const LABELS: [&str; N_EVENT_KINDS] = [
            "miss-local",
            "miss-gcb",
            "miss-sci",
            "miss-c2c",
            "upgrade",
            "sci-inval-walk",
            "gcb-rollout",
            "barrier-arrive",
            "barrier-release",
            "fork-span",
            "pvm-send",
            "pvm-recv",
            "pvm-retry",
            "hard-fault",
            "watchdog",
            "snoop",
            "update",
            "transient-fault",
            "recovery",
            "straggler",
            "heartbeat",
        ];
        LABELS[index]
    }

    /// This event's label.
    pub fn label(&self) -> &'static str {
        Self::kind_label(self.kind_index())
    }
}

/// One stamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated-cycle stamp (see the module docs for which clock).
    pub at: Cycles,
    /// Issuing CPU, or [`NO_CPU`].
    pub cpu: u16,
    /// Issuing CPU's hypernode, or [`NO_NODE`].
    pub node: u8,
    /// The event.
    pub event: TraceEvent,
}

/// Where trace records go. Implementations must be deterministic:
/// recording the same sequence twice must leave the sink in the same
/// observable state.
pub trait TraceSink: std::fmt::Debug {
    /// Accept one record.
    fn record(&mut self, rec: TraceRecord);
    /// Snapshot of retained records, oldest first.
    fn events(&self) -> Vec<TraceRecord>;
    /// Total records seen per kind index — counted even when the
    /// bounded buffer had to drop the record itself, so counts always
    /// reconcile with [`MemStats`] deltas.
    fn counts(&self) -> [u64; N_EVENT_KINDS];
    /// Records dropped because the buffer was full.
    fn dropped(&self) -> u64;
    /// Forget all retained records and counts.
    fn clear(&mut self);
    /// Clone into a box (lets `Machine` stay `Clone`).
    fn box_clone(&self) -> Box<dyn TraceSink>;
}

impl Clone for Box<dyn TraceSink> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A sink that discards everything (mounting it is equivalent to
/// tracing being off, minus the per-site branch).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: TraceRecord) {}
    fn events(&self) -> Vec<TraceRecord> {
        Vec::new()
    }
    fn counts(&self) -> [u64; N_EVENT_KINDS] {
        [0; N_EVENT_KINDS]
    }
    fn dropped(&self) -> u64 {
        0
    }
    fn clear(&mut self) {}
    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(*self)
    }
}

/// A bounded ring of the most recent records plus total per-kind
/// counts (the counts are exact even past capacity).
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    counts: [u64; N_EVENT_KINDS],
    dropped: u64,
}

impl RingSink {
    /// Default capacity (enough for the repro workloads' full streams).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A ring retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            cap: capacity.max(1),
            buf: VecDeque::new(),
            counts: [0; N_EVENT_KINDS],
            dropped: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: TraceRecord) {
        self.counts[rec.event.kind_index()] += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
    fn events(&self) -> Vec<TraceRecord> {
        self.buf.iter().copied().collect()
    }
    fn counts(&self) -> [u64; N_EVENT_KINDS] {
        self.counts
    }
    fn dropped(&self) -> u64 {
        self.dropped
    }
    fn clear(&mut self) {
        self.buf.clear();
        self.counts = [0; N_EVENT_KINDS];
        self.dropped = 0;
    }
    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }
}

/// Format a cycle stamp as microseconds with two decimals (100 cycles
/// = 1 µs at the SPP-1000's 100 MHz), in pure integer arithmetic so
/// the output is byte-stable.
fn ts_us(cycles: Cycles) -> String {
    format!("{}.{:02}", cycles / 100, cycles % 100)
}

fn json_args(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Miss { kind, line } => {
            format!("{{\"kind\":\"{}\",\"line\":{}}}", kind.label(), line)
        }
        TraceEvent::Upgrade { line } => format!("{{\"line\":{line}}}"),
        TraceEvent::SciInvalWalk { line, nodes } => {
            format!("{{\"line\":{line},\"nodes\":{nodes}}}")
        }
        TraceEvent::GcbRollout { line } => format!("{{\"line\":{line}}}"),
        TraceEvent::BarrierArrive | TraceEvent::BarrierRelease => "{}".to_string(),
        TraceEvent::ForkSpan { threads, dur } => {
            format!("{{\"threads\":{threads},\"dur_cycles\":{dur}}}")
        }
        TraceEvent::PvmSend {
            from,
            to,
            bytes,
            tag,
        }
        | TraceEvent::PvmRecv {
            from,
            to,
            bytes,
            tag,
        } => format!("{{\"from\":{from},\"to\":{to},\"bytes\":{bytes},\"tag\":{tag}}}"),
        TraceEvent::PvmRetry { from, to, tag } => {
            format!("{{\"from\":{from},\"to\":{to},\"tag\":{tag}}}")
        }
        TraceEvent::Fault(h) => format!("{{\"fault\":\"{}\"}}", h.label()),
        TraceEvent::Watchdog { kind } => format!("{{\"stall\":\"{}\"}}", kind.label()),
        TraceEvent::Snoop { line } => format!("{{\"line\":{line}}}"),
        TraceEvent::Update { line, sharers } => {
            format!("{{\"line\":{line},\"sharers\":{sharers}}}")
        }
        TraceEvent::TransientFault { line, site } => {
            format!("{{\"line\":{line},\"site\":{site}}}")
        }
        TraceEvent::Recovery { line, attempts } => {
            format!("{{\"line\":{line},\"attempts\":{attempts}}}")
        }
        TraceEvent::Straggler { stall } => format!("{{\"stall_cycles\":{stall}}}"),
        TraceEvent::Heartbeat { seq, progress } => {
            format!("{{\"seq\":{seq},\"progress\":{progress}}}")
        }
    }
}

/// Escape a string for embedding inside a JSON string literal:
/// quotes, backslashes, and every control or non-ASCII character
/// become escape sequences (`\uXXXX` with UTF-16 surrogate pairs for
/// astral code points), so exporter output stays well-formed and
/// byte-stable no matter what labels callers pick.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (' '..='\u{7e}').contains(&c) => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{:04x}", u));
                }
            }
        }
    }
    out
}

/// Export records as Chrome/Perfetto `trace_event` JSON (load the
/// output directly in `ui.perfetto.dev` or `chrome://tracing`).
///
/// Track mapping: `pid` is the hypernode (255 = machine-level), `tid`
/// the global CPU id (65535 = node-level). [`TraceEvent::ForkSpan`]
/// becomes a complete (`"X"`) slice; everything else is an instant
/// (`"i"`) event. Timestamps are simulated microseconds. The output
/// is byte-deterministic for a deterministic record stream.
pub fn perfetto_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // All built-in labels are plain ASCII, so escaping changes no
        // bytes for them — it exists for externally supplied names.
        let name = json_escape(r.event.label());
        let args = json_args(&r.event);
        match r.event {
            TraceEvent::ForkSpan { dur, .. } => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{args}}}",
                    ts_us(r.at),
                    ts_us(dur),
                    r.node,
                    r.cpu
                ));
            }
            _ => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{args}}}",
                    ts_us(r.at),
                    r.node,
                    r.cpu
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Like [`perfetto_json`], with Perfetto counter (`"C"`) tracks
/// riding the same timeline: cumulative miss-mix counters (one track
/// per [`MissKind`]) plus upgrades, emitted at every record whose
/// event moves them. Counter events live on pid 255 (machine level)
/// so they render as machine-wide tracks above the per-node rows. A
/// single pass, byte-deterministic for a deterministic record stream.
pub fn perfetto_json_with_counters(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut miss = [0u64; 4];
    let mut upgrades = 0u64;
    let mut first = true;
    let mut push = |out: &mut String, s: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&s);
    };
    for r in records {
        let name = json_escape(r.event.label());
        let args = json_args(&r.event);
        match r.event {
            TraceEvent::ForkSpan { dur, .. } => {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{args}}}",
                        ts_us(r.at),
                        ts_us(dur),
                        r.node,
                        r.cpu
                    ),
                );
            }
            _ => {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{args}}}",
                        ts_us(r.at),
                        r.node,
                        r.cpu
                    ),
                );
            }
        }
        let counter = match r.event {
            TraceEvent::Miss { kind, .. } => {
                let i = match kind {
                    MissKind::Local => 0,
                    MissKind::Gcb => 1,
                    MissKind::Sci => 2,
                    MissKind::C2c => 3,
                };
                miss[i] += 1;
                Some((format!("miss-{}", kind.label()), miss[i]))
            }
            TraceEvent::Upgrade { .. } => {
                upgrades += 1;
                Some(("upgrades".to_string(), upgrades))
            }
            _ => None,
        };
        if let Some((track, value)) = counter {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{track}\",\"ph\":\"C\",\"ts\":{},\"pid\":255,\
                     \"args\":{{\"count\":{value}}}}}",
                    ts_us(r.at)
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// The single source of truth mapping every [`MemStats`] field to its
/// exported name, in struct-declaration order. Exporters iterate this
/// table, and the `exporters_cover_every_memstats_field` test fails
/// whenever a field is added to the struct without a row here — the
/// audit that keeps [`memstats_json`] and [`spp_top`] complete.
#[allow(clippy::type_complexity)]
pub const MEMSTATS_FIELDS: [(&str, fn(&MemStats) -> u64); 21] = [
    ("reads", |s| s.reads),
    ("writes", |s| s.writes),
    ("hits", |s| s.hits),
    ("local_misses", |s| s.local_misses),
    ("gcb_hits", |s| s.gcb_hits),
    ("sci_fetches", |s| s.sci_fetches),
    ("remote_dirty_fetches", |s| s.remote_dirty_fetches),
    ("c2c_transfers", |s| s.c2c_transfers),
    ("upgrades", |s| s.upgrades),
    ("invalidations", |s| s.invalidations),
    ("sci_invalidations", |s| s.sci_invalidations),
    ("evictions", |s| s.evictions),
    ("writebacks", |s| s.writebacks),
    ("gcb_rollouts", |s| s.gcb_rollouts),
    ("uncached_ops", |s| s.uncached_ops),
    ("ring_stalls", |s| s.ring_stalls),
    ("link_reroutes", |s| s.link_reroutes),
    ("snoops", |s| s.snoops),
    ("updates", |s| s.updates),
    ("recoveries", |s| s.recoveries),
    ("recovery_retries", |s| s.recovery_retries),
];

/// One `MemStats` as a flat JSON object (hand-rolled: the workspace
/// has no serde). Fields come from [`MEMSTATS_FIELDS`], so the output
/// always covers the whole struct.
pub fn memstats_json(s: &MemStats) -> String {
    let mut out = String::from("{");
    for (i, (name, get)) in MEMSTATS_FIELDS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", name, get(s)));
    }
    out.push('}');
    out
}

/// Flat metrics snapshot of a machine as JSON: clock, global stats,
/// the per-hypernode and per-CPU breakdowns, and (when a tracer is
/// mounted) the per-kind event counts. Consumed by the repro binaries.
pub fn metrics_json(m: &Machine) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"clock\": {},\n", m.clock()));
    out.push_str(&format!("  \"global\": {},\n", memstats_json(&m.stats)));
    out.push_str("  \"nodes\": [\n");
    for n in 0..m.config().hypernodes {
        let s = m.node_stats(NodeId(n as u8));
        out.push_str(&format!(
            "    {}{}\n",
            memstats_json(&s),
            if n + 1 < m.config().hypernodes {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"cpus\": [\n");
    let per_cpu = m.per_cpu_stats();
    for (c, s) in per_cpu.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            memstats_json(s),
            if c + 1 < per_cpu.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if let Some(t) = m.tracer() {
        let counts = t.counts();
        out.push_str(",\n  \"events\": {");
        for (i, c) in counts.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {}{}",
                TraceEvent::kind_label(i),
                c,
                if i + 1 < counts.len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!("}},\n  \"events_dropped\": {}", t.dropped()));
    }
    out.push_str("\n}\n");
    out
}

/// A human `spp-top`-style summary: per-hypernode and per-CPU miss
/// mix, plus event totals when tracing is on.
pub fn spp_top(m: &Machine) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "machine: {} hypernode(s), {} cpus, clock {} cycles ({:.1} ms)\n",
        m.config().hypernodes,
        m.config().num_cpus(),
        m.clock(),
        m.clock() as f64 * 1e-5,
    ));
    out.push_str(
        "unit     accesses     hit%    local      gcb      sci      c2c  rollout\n\
         -----------------------------------------------------------------------\n",
    );
    let mut row = |label: String, s: &MemStats| {
        out.push_str(&format!(
            "{:<8} {:>8} {:>8.2} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            label,
            s.accesses(),
            100.0 * s.hit_rate(),
            s.local_misses,
            s.gcb_hits,
            s.sci_fetches,
            s.c2c_transfers,
            s.gcb_rollouts
        ));
    };
    row("machine".to_string(), &m.stats);
    for n in 0..m.config().hypernodes {
        let s = m.node_stats(NodeId(n as u8));
        row(format!("node {n}"), &s);
    }
    for (c, s) in m.per_cpu_stats().iter().enumerate() {
        if s.accesses() == 0 && s.uncached_ops == 0 {
            continue;
        }
        row(format!("cpu {c}"), s);
    }
    out.push_str("counters:");
    for (name, get) in MEMSTATS_FIELDS.iter() {
        out.push_str(&format!(" {}={}", name, get(&m.stats)));
    }
    out.push('\n');
    if let Some(t) = m.tracer() {
        out.push_str("events:");
        for (i, c) in t.counts().iter().enumerate() {
            if *c > 0 {
                out.push_str(&format!(" {}={}", TraceEvent::kind_label(i), c));
            }
        }
        if t.dropped() > 0 {
            out.push_str(&format!(" (dropped={})", t.dropped()));
        }
        out.push('\n');
    }
    out
}

/// Convenience: a record stamped from a machine-external layer. Takes
/// raw ids so the [`NO_CPU`]/[`NO_NODE`] sentinels can be passed
/// directly for system-level events.
pub fn record(at: Cycles, cpu: u16, node: u8, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        at,
        cpu,
        node,
        event,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: Cycles, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            at,
            cpu: 0,
            node: 0,
            event: ev,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_past_capacity() {
        let mut ring = RingSink::new(4);
        for i in 0..10 {
            ring.record(rec(
                i,
                TraceEvent::Miss {
                    kind: MissKind::Local,
                    line: i,
                },
            ));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.counts()[0], 10, "counts are exact past capacity");
        let evs = ring.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].at, 6, "oldest retained record");
        assert_eq!(evs[3].at, 9);
    }

    #[test]
    fn null_sink_retains_nothing() {
        let mut s = NullSink;
        s.record(rec(1, TraceEvent::BarrierArrive));
        assert!(s.events().is_empty());
        assert_eq!(s.counts(), [0; N_EVENT_KINDS]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut ring = RingSink::new(8);
        ring.record(rec(1, TraceEvent::Upgrade { line: 3 }));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.counts(), [0; N_EVENT_KINDS]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn kind_labels_are_distinct_and_total() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..N_EVENT_KINDS {
            assert!(seen.insert(TraceEvent::kind_label(i)));
        }
    }

    #[test]
    fn timestamps_are_integer_formatted_microseconds() {
        assert_eq!(ts_us(0), "0.00");
        assert_eq!(ts_us(150), "1.50");
        assert_eq!(ts_us(12_345), "123.45");
    }

    #[test]
    fn ring_counts_stay_exact_when_the_kind_mix_changes_mid_run() {
        let mut ring = RingSink::new(8);
        // Phase 1: misses and upgrades well past capacity.
        for i in 0..20 {
            ring.record(rec(
                i,
                TraceEvent::Miss {
                    kind: MissKind::Sci,
                    line: i,
                },
            ));
            ring.record(rec(i, TraceEvent::Upgrade { line: i }));
        }
        // Phase 2: the mix changes — new insight/telemetry kinds.
        for i in 0..15 {
            ring.record(rec(100 + i, TraceEvent::Straggler { stall: 10 * i }));
            ring.record(rec(
                100 + i,
                TraceEvent::Heartbeat {
                    seq: i as u32,
                    progress: i,
                },
            ));
        }
        let c = ring.counts();
        assert_eq!(c[2], 20, "sci misses exact past capacity");
        assert_eq!(c[4], 20, "upgrades exact past capacity");
        assert_eq!(c[19], 15, "stragglers exact");
        assert_eq!(c[20], 15, "heartbeats exact");
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.dropped(), 70 - 8);
        // The retained window is the newest records only.
        assert!(ring.events().iter().all(|r| matches!(
            r.event,
            TraceEvent::Straggler { .. } | TraceEvent::Heartbeat { .. }
        )));
    }

    #[test]
    fn json_escape_handles_quotes_controls_and_non_ascii() {
        assert_eq!(json_escape("plain-ascii_42"), "plain-ascii_42");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("café"), "caf\\u00e9");
        // Astral code point: UTF-16 surrogate pair.
        assert_eq!(json_escape("𝕏"), "\\ud835\\udd4f");
    }

    #[test]
    fn exporters_cover_every_memstats_field() {
        // Exhaustive destructuring: adding a MemStats field without
        // updating this test (and MEMSTATS_FIELDS) fails to compile.
        let s = MemStats {
            reads: 1,
            writes: 2,
            hits: 3,
            local_misses: 4,
            gcb_hits: 5,
            sci_fetches: 6,
            remote_dirty_fetches: 7,
            c2c_transfers: 8,
            upgrades: 9,
            invalidations: 10,
            sci_invalidations: 11,
            evictions: 12,
            writebacks: 13,
            gcb_rollouts: 14,
            uncached_ops: 15,
            ring_stalls: 16,
            link_reroutes: 17,
            snoops: 18,
            updates: 19,
            recoveries: 20,
            recovery_retries: 21,
        };
        let MemStats {
            reads,
            writes,
            hits,
            local_misses,
            gcb_hits,
            sci_fetches,
            remote_dirty_fetches,
            c2c_transfers,
            upgrades,
            invalidations,
            sci_invalidations,
            evictions,
            writebacks,
            gcb_rollouts,
            uncached_ops,
            ring_stalls,
            link_reroutes,
            snoops,
            updates,
            recoveries,
            recovery_retries,
        } = s;
        let values = [
            reads,
            writes,
            hits,
            local_misses,
            gcb_hits,
            sci_fetches,
            remote_dirty_fetches,
            c2c_transfers,
            upgrades,
            invalidations,
            sci_invalidations,
            evictions,
            writebacks,
            gcb_rollouts,
            uncached_ops,
            ring_stalls,
            link_reroutes,
            snoops,
            updates,
            recoveries,
            recovery_retries,
        ];
        assert_eq!(
            values.len(),
            MEMSTATS_FIELDS.len(),
            "MEMSTATS_FIELDS must cover every MemStats field"
        );
        // The table's accessors read the fields in declaration order.
        for ((name, get), v) in MEMSTATS_FIELDS.iter().zip(values.iter()) {
            assert_eq!(get(&s), *v, "accessor for {name} reads the wrong field");
        }
        // And both exporters surface every field by name.
        let json = memstats_json(&s);
        let m = Machine::spp1000(1);
        let top = spp_top(&m);
        for (name, _) in MEMSTATS_FIELDS.iter() {
            assert!(
                json.contains(&format!("\"{name}\": ")),
                "{name} not in json"
            );
            assert!(top.contains(&format!(" {name}=")), "{name} not in spp_top");
        }
    }

    #[test]
    fn counter_tracks_ride_the_timeline() {
        let records = vec![
            rec(
                10,
                TraceEvent::Miss {
                    kind: MissKind::Sci,
                    line: 1,
                },
            ),
            rec(20, TraceEvent::Upgrade { line: 1 }),
            rec(
                30,
                TraceEvent::Miss {
                    kind: MissKind::Sci,
                    line: 2,
                },
            ),
            rec(40, TraceEvent::BarrierArrive),
        ];
        let a = perfetto_json_with_counters(&records);
        let b = perfetto_json_with_counters(&records);
        assert_eq!(a, b, "byte-deterministic");
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"name\":\"miss-sci\",\"ph\":\"C\""));
        assert!(a.contains("\"count\":2"), "cumulative counter: {a}");
        assert!(a.contains("\"name\":\"upgrades\",\"ph\":\"C\""));
        // The plain instant events are still all present.
        assert_eq!(a.matches("\"ph\":\"i\"").count(), 4);
    }

    #[test]
    fn perfetto_export_is_deterministic_and_wellformed() {
        let records = vec![
            rec(
                100,
                TraceEvent::Miss {
                    kind: MissKind::Sci,
                    line: 42,
                },
            ),
            rec(
                250,
                TraceEvent::ForkSpan {
                    threads: 8,
                    dur: 1_000,
                },
            ),
            rec(
                300,
                TraceEvent::Watchdog {
                    kind: StallKind::Barrier,
                },
            ),
        ];
        let a = perfetto_json(&records);
        let b = perfetto_json(&records);
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"miss-sci\""));
        assert!(a.contains("\"ph\":\"X\""), "fork span is a slice: {a}");
        assert!(a.contains("\"dur\":10.00"));
        assert!(a.ends_with("]}\n"));
    }
}
