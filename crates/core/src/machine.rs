//! The machine: ties caches, directories, global cache buffers and the
//! SCI protocol together and prices every access in cycles.
//!
//! Every simulated memory reference from a simulated CPU enters
//! through [`Machine::read`] / [`Machine::write`]; the returned cycle
//! count is the full latency the issuing CPU observes, including any
//! coherence actions (invalidation walks, dirty forwarding, rollouts)
//! that the SPP-1000 performs synchronously with the access.
//!
//! The model is deterministic and single-threaded by design: replaying
//! thread access streams in a fixed order against shared coherence
//! state is the standard trace-interleaving approximation (DESIGN.md
//! §2). Queueing/contention at banks and links is not modelled except
//! for the hot-line serialization the barrier study needs, which the
//! runtime layers on top.

use crate::cache::{Cache, Evicted, LineState};
use crate::check::CoherenceChecker;
use crate::config::{CpuId, MachineConfig, NodeId, RingId};
use crate::directory::{Directory, SciDirectory};
use crate::error::{ConfigError, SimError};
use crate::fault::{FaultPlan, HardFault};
use crate::heat::HeatMap;
use crate::latency::Cycles;
use crate::mem::{AddressSpace, MemClass, Region};
use crate::protocol::{CoherenceProtocol, DashSci, Dragon, Mesi, ProtocolKind, SnoopFilter};
use crate::race::{RaceReport, RaceSink};
use crate::stats::MemStats;
use crate::trace::{MissKind, RingSink, TraceEvent, TraceRecord, TraceSink, NO_CPU};

/// The simulated SPP-1000.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) space: AddressSpace,
    /// Per-CPU data caches, indexed by `CpuId`.
    pub(crate) caches: Vec<Cache>,
    /// Per-hypernode directories (local sharers of any line present in
    /// the node).
    pub(crate) dirs: Vec<Directory>,
    /// Global cache buffers, one per (node, ring): `node * rings + ring`.
    pub(crate) gcbs: Vec<Cache>,
    /// SCI distributed reference trees.
    pub(crate) sci: SciDirectory,
    /// Which coherence protocol prices accesses (see [`crate::protocol`]).
    pub(crate) protocol: ProtocolKind,
    /// Sparse line → holder tracking for the snooping backends; empty
    /// under DASH+SCI.
    pub(crate) snoop: SnoopFilter,
    /// Event counters.
    pub stats: MemStats,
    /// Per-CPU event counters: every access is also charged to the
    /// issuing CPU — a fault-free hit bumps the same counters here and
    /// in `stats`, any other access merges its [`MemStats`] delta — so
    /// `cpu_stats` sums to `stats` for as long as both started from
    /// zero together (restoring a snapshot restarts the breakdown at
    /// zero; the global counters are part of the snapshot, the
    /// breakdown is observability-only).
    pub(crate) cpu_stats: Vec<MemStats>,
    pub(crate) line_shift: u32,
    /// The opt-in per-access observers (checker, race detector,
    /// heatmap); `None` means all are off and every access pays one
    /// branch for them.
    obs: Option<Box<Observers>>,
    /// Structured event sink (see [`crate::trace`]); `None` means
    /// tracing is off and every event site is a single branch.
    tracer: Option<Box<dyn TraceSink>>,
    /// Deterministic fault schedule, if installed.
    pub(crate) faults: Option<FaultPlan>,
    /// Cumulative cycles charged across all accesses: the machine's
    /// notion of simulated time, driving hard-fault triggering and
    /// watchdog deadlines.
    pub(crate) clock: Cycles,
    /// Bitmask of CPUs taken down by a fired [`HardFault::CpuFail`],
    /// packed 64 CPUs per word (word `cpu / 64`, bit `cpu % 64`) so
    /// 1024-CPU topologies fit.
    pub(crate) dead_cpus: Vec<u64>,
    /// Bitmask of rings severed by a fired [`HardFault::LinkFail`]
    /// (bit index = `RingId`).
    pub(crate) failed_rings: u8,
    /// Bitmask of nodes whose GCBs were halved by
    /// [`HardFault::GcbDegrade`] (bit index = `NodeId`; 128 nodes).
    pub(crate) degraded_gcbs: u128,
    /// Which entries of the plan's hard-fault schedule have fired
    /// (bit index into [`FaultPlan::hard_faults`]).
    pub(crate) hard_applied: u64,
    /// Set when a transient coherence fault persisted through the
    /// whole scrub budget. [`Machine::read`]/[`Machine::write`] panic
    /// on it; [`Machine::try_read`]/[`Machine::try_write`] return it
    /// as a typed error so callers can roll back to a checkpoint.
    pending_recovery_failure: Option<SimError>,
}

/// The opt-in observers every priced access is fed to, gathered
/// behind one [`Machine`] field so that with none mounted the access
/// path tests a single `Option`. Each never changes simulated cycles
/// or [`MemStats`]; they only audit, record and attribute.
#[derive(Debug, Clone, Default)]
struct Observers {
    /// Per-access invariant checker (see [`crate::check`]).
    checker: Option<CoherenceChecker>,
    /// Happens-before race detector (see [`crate::race`]).
    racer: Option<RaceSink>,
    /// Per-line cycle-attribution heatmap (see [`crate::heat`]).
    heat: Option<HeatMap>,
}

/// Whether an access that finds the issuer's copy in `state` is a
/// plain hit: any valid copy for a read, a `Modified` one for a
/// write. This holds under DASH+SCI, MESI and Dragon alike, so the
/// machine decides it once instead of each backend.
#[inline]
fn is_hit(state: LineState, write: bool) -> bool {
    if write {
        state == LineState::Modified
    } else {
        state != LineState::Invalid
    }
}

/// The [`MemStats`] delta of one plain hit.
fn hit_delta(write: bool) -> MemStats {
    MemStats {
        reads: u64::from(!write),
        writes: u64::from(write),
        hits: 1,
        ..MemStats::default()
    }
}

/// The full coherence footprint of one line, captured before a
/// transient fault is injected: every valid CPU-cache copy, each
/// hypernode directory's entry, and the snoop filter's holder list
/// (in order — list order is protocol state). The scrub path restores
/// exactly this; the injected corruptions mutate nothing else.
#[derive(Debug, Clone)]
struct LineImage {
    /// `(cpu, state)` for every CPU caching the line valid.
    cache: Vec<(usize, LineState)>,
    /// Per-node directory entry: `(sharer mask, owner)`.
    dirs: Vec<Option<(u8, Option<u8>)>>,
    /// Snoop-filter holders, in filter order.
    snoop: Vec<u16>,
}

/// The transient coherence-fault kinds the protocol seam can inject
/// (each drawing from its own [`FaultPlan`] decision stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransientKind {
    InvalDrop,
    InvalDup,
    InvalDelay,
    UpdateLoss,
    AckStale,
    LineCorrupt,
}

impl TransientKind {
    /// The kind's [`FaultPlan`] decision-stream (site) index, as
    /// reported in [`TraceEvent::TransientFault`].
    fn site(self) -> u8 {
        match self {
            TransientKind::InvalDrop => 4,
            TransientKind::InvalDup => 5,
            TransientKind::InvalDelay => 6,
            TransientKind::UpdateLoss => 7,
            TransientKind::AckStale => 8,
            TransientKind::LineCorrupt => 9,
        }
    }
}

/// Scrub-attempt budget for one injected transient, spent in
/// [`crate::retry_backoff`] units (1 + 2 + 4 + ... per attempt): 255
/// units buys exactly 8 doubling attempts before the machine gives up
/// and escalates to [`SimError::RecoveryExhausted`].
const SCRUB_BUDGET: u64 = 255;

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// Panics on an invalid configuration; use [`Machine::try_new`] to
    /// get the typed [`ConfigError`] instead.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a machine, validating the configuration first.
    ///
    /// The per-access coherence checker is enabled when the
    /// `SPP_CHECK` environment variable is set to anything but `0`
    /// (and always in spp-core's own unit tests); [`Machine::with_checker`]
    /// enables it unconditionally.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let line_shift = cfg.line_bytes.trailing_zeros();
        let caches = (0..cfg.num_cpus())
            .map(|_| Cache::new(cfg.cache_lines()))
            .collect();
        let dirs = (0..cfg.hypernodes).map(|_| Directory::new()).collect();
        let gcbs = (0..cfg.hypernodes * cfg.fus_per_node)
            .map(|_| Cache::new(cfg.gcb_lines().next_power_of_two()))
            .collect();
        let mut m = Machine {
            space: AddressSpace::new(&cfg),
            caches,
            dirs,
            gcbs,
            sci: SciDirectory::new(),
            protocol: ProtocolKind::default(),
            snoop: SnoopFilter::new(),
            stats: MemStats::default(),
            cpu_stats: vec![MemStats::default(); cfg.num_cpus()],
            line_shift,
            dead_cpus: vec![0u64; cfg.num_cpus().div_ceil(64)],
            cfg,
            obs: None,
            tracer: None,
            faults: None,
            clock: 0,
            failed_rings: 0,
            degraded_gcbs: 0,
            hard_applied: 0,
            pending_recovery_failure: None,
        };
        let enable = std::env::var("SPP_CHECK")
            .map(|v| v != "0")
            .unwrap_or(cfg!(test));
        if enable {
            m = m.with_checker();
        }
        Ok(m)
    }

    /// The paper's testbed: two hypernodes, 16 CPUs.
    pub fn spp1000(hypernodes: usize) -> Self {
        Self::new(MachineConfig::spp1000(hypernodes))
    }

    /// Select the coherence protocol (default:
    /// [`ProtocolKind::DashSci`]). Must be called before any traffic —
    /// coherence state laid down by one protocol is meaningless to
    /// another.
    pub fn with_protocol(mut self, kind: ProtocolKind) -> Self {
        debug_assert_eq!(
            self.clock, 0,
            "select the protocol before issuing any accesses"
        );
        self.protocol = kind;
        self
    }

    /// The protocol this machine prices accesses with.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Total live coherence-tracking entries: per-hypernode DASH
    /// directory lines, SCI distributed-list lines, and snoop-filter
    /// lines. Every one of these structures is a sparse map, so this
    /// count — and the memory behind it — is proportional to the
    /// lines actually touched, not to the address space or the
    /// topology (the property that lets a 128-hypernode, 1024-CPU
    /// machine run small workloads in small host memory).
    pub fn coherence_footprint(&self) -> usize {
        self.dirs.iter().map(Directory::live_lines).sum::<usize>()
            + self.sci.live_lines()
            + self.snoop.live_lines()
    }

    /// Total valid lines across every per-CPU cache (each cache is a
    /// sparse map too; together with [`Machine::coherence_footprint`]
    /// this bounds the machine's line-tracking memory).
    pub fn cached_lines(&self) -> usize {
        self.caches.iter().map(Cache::valid_lines).sum()
    }

    /// Enable the per-access coherence checker (idempotent).
    pub fn with_checker(mut self) -> Self {
        let n = self.cfg.num_cpus();
        self.observers_mut()
            .checker
            .get_or_insert_with(|| CoherenceChecker::new(n));
        self
    }

    /// The observer set, mounting an empty one if none is.
    fn observers_mut(&mut self) -> &mut Observers {
        self.obs.get_or_insert_with(Default::default)
    }

    /// Install a deterministic fault schedule (replacing any previous
    /// one). The machine draws SCI ring stalls from it; the runtime
    /// and PVM layers consult it via [`Machine::faults_mut`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Mount a bounded event ring (capacity
    /// [`RingSink::DEFAULT_CAPACITY`]) and start tracing. Tracing
    /// never changes simulated cycles or [`MemStats`]; it only
    /// records.
    pub fn with_tracing(self) -> Self {
        self.with_trace_sink(Box::new(RingSink::new(RingSink::DEFAULT_CAPACITY)))
    }

    /// Mount an arbitrary [`TraceSink`] (replacing any previous one).
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.tracer = Some(sink);
        self
    }

    /// The mounted trace sink, if tracing is on.
    pub fn tracer(&self) -> Option<&dyn TraceSink> {
        self.tracer.as_deref()
    }

    /// Mutable access to the mounted trace sink (e.g. to
    /// [`TraceSink::clear`] between bracketed regions).
    pub fn tracer_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.tracer.as_deref_mut()
    }

    /// True when a trace sink is mounted.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Snapshot of the retained trace records, oldest first (empty
    /// when tracing is off).
    pub fn trace_events(&self) -> Vec<TraceRecord> {
        self.tracer
            .as_deref()
            .map(|t| t.events())
            .unwrap_or_default()
    }

    /// Mount the happens-before race detector (see [`crate::race`]).
    /// Detection never changes simulated cycles or [`MemStats`]; it
    /// only records and analyzes.
    pub fn with_race_detection(mut self) -> Self {
        self.observers_mut().racer.get_or_insert_with(RaceSink::new);
        self
    }

    /// True when the race detector is mounted.
    pub fn race_detection_enabled(&self) -> bool {
        self.race_sink().is_some()
    }

    /// The mounted race detector, if any.
    pub fn race_sink(&self) -> Option<&RaceSink> {
        self.obs.as_deref().and_then(|o| o.racer.as_ref())
    }

    /// Mutable access to the mounted race detector.
    pub fn race_sink_mut(&mut self) -> Option<&mut RaceSink> {
        self.obs.as_deref_mut().and_then(|o| o.racer.as_mut())
    }

    /// The detector's accumulated findings (empty report when
    /// detection is off).
    pub fn race_report(&self) -> RaceReport {
        self.race_sink()
            .map(|r| r.report().clone())
            .unwrap_or_default()
    }

    /// Mount the cycle-attribution heatmap (see [`crate::heat`]).
    /// Attribution starts from the machine's current clock and
    /// counters, and never changes simulated cycles or [`MemStats`].
    pub fn with_heatmap(mut self) -> Self {
        let clock = self.clock;
        let stats = self.stats;
        self.observers_mut()
            .heat
            .get_or_insert_with(|| HeatMap::new(clock, stats));
        self
    }

    /// True when the attribution heatmap is mounted.
    pub fn heatmap_enabled(&self) -> bool {
        self.heatmap().is_some()
    }

    /// The mounted heatmap, if any.
    pub fn heatmap(&self) -> Option<&HeatMap> {
        self.obs.as_deref().and_then(|o| o.heat.as_ref())
    }

    /// True when an observer that needs every access individually —
    /// the race detector or the heatmap — is mounted (the batched runs
    /// fall back to the scalar loop for these).
    fn per_access_observers(&self) -> bool {
        self.obs
            .as_deref()
            .is_some_and(|o| o.racer.is_some() || o.heat.is_some())
    }

    /// The heatmap's partition invariant: attributed cycles sum
    /// exactly to the clock advance since mount, and every attributed
    /// counter to the global [`MemStats`] delta it decomposes. Always
    /// true with no heatmap mounted.
    pub fn heat_partition_check(&self) -> bool {
        self.heatmap()
            .is_none_or(|h| h.partition_check(self.clock, &self.stats))
    }

    /// Label the region based at `base` for observability (heatmap and
    /// report region names). No-op for an unknown base.
    pub fn label_region(&mut self, base: u64, label: &str) {
        self.space.set_region_name(base, label);
    }

    /// Per-CPU counter breakdown for one CPU.
    pub fn cpu_stats(&self, cpu: CpuId) -> &MemStats {
        &self.cpu_stats[cpu.0 as usize]
    }

    /// The whole per-CPU breakdown, indexed by global CPU id.
    pub fn per_cpu_stats(&self) -> &[MemStats] {
        &self.cpu_stats
    }

    /// Per-hypernode rollup: the merged counters of the node's CPUs.
    pub fn node_stats(&self, node: NodeId) -> MemStats {
        let per = self.cfg.cpus_per_node();
        let base = node.0 as usize * per;
        let mut s = MemStats::default();
        for c in base..(base + per).min(self.cpu_stats.len()) {
            s.merge(&self.cpu_stats[c]);
        }
        s
    }

    /// Zero the global counters *and* the per-CPU breakdown together
    /// (resetting `stats` alone would let the breakdown drift from
    /// the machine-global totals).
    pub fn reset_all_stats(&mut self) {
        self.stats.reset();
        for s in &mut self.cpu_stats {
            s.reset();
        }
    }

    /// The installed checker, if any.
    pub fn checker(&self) -> Option<&CoherenceChecker> {
        self.obs.as_deref().and_then(|o| o.checker.as_ref())
    }

    /// Mutable access to the installed checker (e.g. to set
    /// [`CoherenceChecker::panic_on_violation`]).
    pub fn checker_mut(&mut self) -> Option<&mut CoherenceChecker> {
        self.obs.as_deref_mut().and_then(|o| o.checker.as_mut())
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access to the fault schedule — the runtime and PVM
    /// layers draw their spawn/message fault decisions through this.
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Allocate simulated memory (see [`MemClass`] for placement).
    pub fn alloc(&mut self, class: MemClass, bytes: u64) -> Region {
        self.space.alloc(class, bytes)
    }

    /// Fallible variant of [`Machine::alloc`].
    pub fn try_alloc(&mut self, class: MemClass, bytes: u64) -> Result<Region, SimError> {
        let r = self.space.try_alloc(class, bytes)?;
        // Auto-register each allocation so race findings resolve to at
        // least a stable range; `SimArray::set_label` refines these
        // with real names and element sizes.
        if let Some(sink) = self.race_sink_mut() {
            let n = r.base;
            sink.register(r.base, r.len, 1, format!("alloc@{n:#x}"));
        }
        Ok(r)
    }

    /// Home (node, FU) of an address.
    pub fn home_of(&self, addr: u64) -> (NodeId, crate::config::FuId) {
        self.space.home_of(addr)
    }

    /// Drop all cached state (between benchmark repetitions). Counters
    /// are left untouched.
    pub fn flush_all_caches(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
        for g in &mut self.gcbs {
            g.flush();
        }
        self.dirs = (0..self.cfg.hypernodes).map(|_| Directory::new()).collect();
        self.sci = SciDirectory::new();
        self.snoop.clear();
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    pub(crate) fn gcb_index(&self, node: NodeId, ring: RingId) -> usize {
        node.0 as usize * self.cfg.fus_per_node + ring.0 as usize
    }

    /// A cached read of the line containing `addr` by `cpu`. Returns
    /// the access latency in cycles.
    ///
    /// Panics if a transient coherence fault persisted through the
    /// whole scrub budget (the state is already restored, so nothing
    /// wrong is ever returned); [`Machine::try_read`] surfaces that
    /// case as a typed error instead.
    pub fn read(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        let cost = self.access(cpu, addr, false);
        if let Some(e) = self.pending_recovery_failure.take() {
            panic!("{e}");
        }
        cost
    }

    /// Fallible twin of [`Machine::read`]: returns
    /// [`SimError::RecoveryExhausted`] instead of panicking when a
    /// transient coherence fault survives every scrub attempt. The
    /// machine state is already restored to the pre-fault footprint
    /// when this returns `Err` — the caller escalates (typically
    /// checkpoint rollback-and-replay) rather than consuming data.
    pub fn try_read(&mut self, cpu: CpuId, addr: u64) -> Result<Cycles, SimError> {
        let cost = self.access(cpu, addr, false);
        match self.pending_recovery_failure.take() {
            Some(e) => Err(e),
            None => Ok(cost),
        }
    }

    /// A cached write to the line containing `addr` by `cpu`. Returns
    /// the access latency in cycles.
    ///
    /// Panics if a transient coherence fault persisted through the
    /// whole scrub budget, exactly like [`Machine::read`];
    /// [`Machine::try_write`] is the typed-error twin.
    pub fn write(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        let cost = self.access(cpu, addr, true);
        if let Some(e) = self.pending_recovery_failure.take() {
            panic!("{e}");
        }
        cost
    }

    /// Fallible twin of [`Machine::write`]; see [`Machine::try_read`]
    /// for the recovery-escalation contract.
    pub fn try_write(&mut self, cpu: CpuId, addr: u64) -> Result<Cycles, SimError> {
        let cost = self.access(cpu, addr, true);
        match self.pending_recovery_failure.take() {
            Some(e) => Err(e),
            None => Ok(cost),
        }
    }

    /// One cached access. Without a fault plan the issuer's cache is
    /// looked up once: a hit (see [`is_hit`]) is charged right here —
    /// the access counter, `hits` and the clock, in `stats` and in the
    /// issuer's `cpu_stats` row alike — and anything else goes to
    /// [`Machine::priced_access`] with the state already in hand.
    /// With a plan installed every access takes the priced path, which
    /// fires due hard faults before it looks anything up.
    #[inline]
    fn access(&mut self, cpu: CpuId, addr: u64, write: bool) -> Cycles {
        let line = self.line_of(addr);
        if self.faults.is_some() {
            return self.priced_access(cpu, addr, line, None, write);
        }
        let c = cpu.0 as usize;
        let state = self.caches[c].lookup(line);
        if !is_hit(state, write) {
            return self.priced_access(cpu, addr, line, Some(state), write);
        }
        let hit = self.cfg.latency.cache_hit;
        let per = &mut self.cpu_stats[c];
        if write {
            self.stats.writes += 1;
            per.writes += 1;
        } else {
            self.stats.reads += 1;
            per.reads += 1;
        }
        self.stats.hits += 1;
        per.hits += 1;
        self.clock += hit;
        if self.obs.is_some() {
            self.observe(cpu, addr, hit, write, &hit_delta(write));
        }
        hit
    }

    /// Price an access the hit path did not settle: a miss, upgrade or
    /// other protocol write transition, or any access while a fault
    /// plan is installed. `looked_up` is the issuer's cache state when
    /// [`Machine::access`] already read it (`None` under a fault plan:
    /// a due hard fault may purge the cache first). The issuer's
    /// breakdown is charged by snapshot-diff, since a backend or fault
    /// path may bump any counter.
    fn priced_access(
        &mut self,
        cpu: CpuId,
        addr: u64,
        line: u64,
        looked_up: Option<LineState>,
        write: bool,
    ) -> Cycles {
        let before = self.stats;
        self.apply_due_hard_faults();
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let state = looked_up.unwrap_or_else(|| self.caches[cpu.0 as usize].lookup(line));
        let sci_before = self.stats.sci_fetches + self.stats.sci_invalidations;
        let mut cost = if is_hit(state, write) {
            self.stats.hits += 1;
            self.cfg.latency.cache_hit
        } else if write {
            match self.protocol {
                ProtocolKind::DashSci => DashSci::write_access(self, cpu, addr, line, state),
                ProtocolKind::Mesi => Mesi::write_access(self, cpu, addr, line, state),
                ProtocolKind::Dragon => Dragon::write_access(self, cpu, addr, line, state),
            }
        } else {
            match self.protocol {
                ProtocolKind::DashSci => DashSci::read_miss(self, cpu, addr, line),
                ProtocolKind::Mesi => Mesi::read_miss(self, cpu, addr, line),
                ProtocolKind::Dragon => Dragon::read_miss(self, cpu, addr, line),
            }
        };
        self.inject_transient(cpu, addr, line);
        cost += self.inject_ring_stall(sci_before);
        cost += self.inject_link_reroute(addr, sci_before);
        self.clock += cost;
        self.account(cpu, &before);
        if self.obs.is_some() {
            let delta = self.stats.since(&before);
            self.observe(cpu, addr, cost, write, &delta);
        }
        cost
    }

    /// Charge the global-counter delta since `before` to `cpu`'s
    /// breakdown: the snapshot-diff half of per-CPU accounting, run
    /// by priced (non-hit or faulted) accesses and uncached ops.
    /// Fault-free hits bump `cpu_stats` directly instead.
    #[inline]
    fn account(&mut self, cpu: CpuId, before: &MemStats) {
        let delta = self.stats.since(before);
        self.cpu_stats[cpu.0 as usize].merge(&delta);
    }

    /// Feed one priced access to every mounted observer: the heatmap
    /// attributes `cost` and the counter `delta` to the line, the
    /// checker audits the line and the counters, and the race
    /// detector records the access. Only called when some observer is
    /// mounted.
    #[cold]
    fn observe(&mut self, cpu: CpuId, addr: u64, cost: Cycles, write: bool, delta: &MemStats) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        let line = self.line_of(addr);
        if let Some(h) = obs.heat.as_mut() {
            h.note(line, cost, delta);
        }
        if let Some(ck) = obs.checker.as_mut() {
            ck.after_access(self, cpu, line, cost);
        }
        if let Some(r) = obs.racer.as_mut() {
            r.record_access(addr, write, self.clock);
        }
        self.obs = Some(obs);
    }

    /// Record a trace event stamped with the machine clock and
    /// `cpu`'s hypernode; a single branch when tracing is off.
    #[inline]
    pub(crate) fn emit(&mut self, cpu: CpuId, event: TraceEvent) {
        if self.tracer.is_some() {
            self.emit_cold(cpu, event);
        }
    }

    #[cold]
    fn emit_cold(&mut self, cpu: CpuId, event: TraceEvent) {
        let node = if cpu.0 == NO_CPU {
            crate::trace::NO_NODE
        } else {
            self.cfg.node_of_cpu(cpu).0
        };
        let rec = TraceRecord {
            at: self.clock,
            cpu: cpu.0,
            node,
            event,
        };
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(rec);
        }
    }

    /// Draw one ring-stall decision from the fault plan, counting it.
    fn ring_stall_draw(&mut self) -> Cycles {
        match self.faults.as_mut().and_then(|f| f.ring_stall()) {
            Some(stall) => {
                self.stats.ring_stalls += 1;
                stall
            }
            None => 0,
        }
    }

    /// If the access since `sci_before` crossed the SCI ring, consult
    /// the fault plan for a transient link stall.
    fn inject_ring_stall(&mut self, sci_before: u64) -> Cycles {
        if self.faults.is_none()
            || self.stats.sci_fetches + self.stats.sci_invalidations == sci_before
        {
            return 0;
        }
        self.ring_stall_draw()
    }

    /// If the access since `sci_before` crossed the SCI ring and the
    /// home ring is severed by a hard link failure, pay the
    /// rerouted-path penalty.
    fn inject_link_reroute(&mut self, addr: u64, sci_before: u64) -> Cycles {
        if self.failed_rings == 0
            || self.stats.sci_fetches + self.stats.sci_invalidations == sci_before
        {
            return 0;
        }
        let (_, hfu) = self.space.home_of(addr);
        self.reroute_penalty(self.cfg.ring_of_fu(hfu))
    }

    /// The extra cycles for rerouting traffic around a severed segment
    /// of `ring`, if it is down; each reroute is counted in
    /// [`MemStats::link_reroutes`].
    fn reroute_penalty(&mut self, ring: RingId) -> Cycles {
        if self.failed_rings & (1 << ring.0) == 0 {
            return 0;
        }
        let pen = self
            .faults
            .as_ref()
            .map(|f| {
                f.hard_faults()
                    .iter()
                    .filter_map(|h| match h {
                        HardFault::LinkFail {
                            ring: r,
                            reroute_cycles,
                            ..
                        } if *r == ring.0 => Some(*reroute_cycles),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        self.stats.link_reroutes += 1;
        pen
    }

    /// Fire any scheduled hard faults whose trigger cycle has been
    /// reached, in schedule order. Triggering is driven by the
    /// machine's cumulative access clock, so for a given access
    /// stream the faults land on exactly the same access every run.
    fn apply_due_hard_faults(&mut self) {
        let Some(n) = self.faults.as_ref().map(|p| p.hard_faults().len()) else {
            return;
        };
        // Firing a fault moves neither the clock nor the plan, so
        // testing each entry in turn matches testing all of them first.
        for i in 0..n {
            let bit = 1u64 << i;
            let h = self
                .faults
                .as_ref()
                .expect("plan checked above")
                .hard_faults()[i];
            if self.hard_applied & bit == 0 && h.at_cycle() <= self.clock {
                self.hard_applied |= bit;
                self.apply_hard_fault(h);
            }
        }
    }

    /// Apply one hard fault to the machine state.
    fn apply_hard_fault(&mut self, fault: HardFault) {
        if self.tracer.is_some() {
            let (cpu, node) = match fault {
                HardFault::CpuFail { cpu, .. } => (cpu, self.cfg.node_of_cpu(CpuId(cpu)).0),
                HardFault::LinkFail { .. } => (NO_CPU, crate::trace::NO_NODE),
                HardFault::GcbDegrade { node, .. } => (NO_CPU, node),
            };
            let rec = TraceRecord {
                at: self.clock,
                cpu,
                node,
                event: TraceEvent::Fault(fault),
            };
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(rec);
            }
        }
        match fault {
            HardFault::CpuFail { cpu, .. } => self.kill_cpu(CpuId(cpu)),
            HardFault::LinkFail { ring, .. } => {
                self.failed_rings |= 1 << ring;
            }
            HardFault::GcbDegrade { node, .. } => self.degrade_node_gcbs(NodeId(node)),
        }
    }

    /// Take `cpu` offline: purge its cache (dirty lines drain to the
    /// node like ordinary writebacks), drop it from its node
    /// directory, and mark it dead. Subsequent accesses issued on its
    /// behalf are serviced by the node controller but never refill
    /// the dead cache.
    fn kill_cpu(&mut self, cpu: CpuId) {
        if cpu.0 as usize >= self.cfg.num_cpus() || self.is_cpu_dead(cpu) {
            return;
        }
        self.dead_cpus[cpu.0 as usize >> 6] |= 1u64 << (cpu.0 & 63);
        let node = self.cfg.node_of_cpu(cpu);
        let in_node = self.cfg.cpu_index_in_node(cpu) as u8;
        let entries: Vec<(u64, LineState)> = self.caches[cpu.0 as usize].entries().collect();
        for (line, state) in entries {
            self.caches[cpu.0 as usize].invalidate(line);
            self.dirs[node.0 as usize].remove_sharer(line, in_node);
            self.snoop.remove(line, cpu.0);
            self.stats.evictions += 1;
            if state.is_dirty() {
                // Remote-homed dirty lines keep their Modified GCB
                // copy (inclusion), so the SCI dirty marker stays
                // backed; home-local dirty data lands in memory.
                self.stats.writebacks += 1;
            }
        }
    }

    /// Halve the capacity of every GCB on `node` (degraded network
    /// cache hardware): surviving entries re-insert in slot order and
    /// conflicts roll out exactly like capacity displacements, with
    /// the rollout cost charged lazily to stats only (the degrade
    /// event is asynchronous to any access).
    fn degrade_node_gcbs(&mut self, node: NodeId) {
        if node.0 as usize >= self.cfg.hypernodes || self.degraded_gcbs & (1u128 << node.0) != 0 {
            return;
        }
        self.degraded_gcbs |= 1u128 << node.0;
        for r in 0..self.cfg.fus_per_node {
            let ring = RingId(r as u8);
            let g = self.gcb_index(node, ring);
            let cap = self.gcbs[g].capacity();
            let old = std::mem::replace(&mut self.gcbs[g], Cache::new((cap / 2).max(1)));
            let entries: Vec<(u64, LineState)> = old.entries().collect();
            for (line, state) in entries {
                if let Some(victim) = self.gcbs[g].fill(line, state) {
                    self.gcb_rollout(node, ring, victim);
                }
            }
        }
    }

    /// True if `cpu` has been taken down by a fired
    /// [`HardFault::CpuFail`].
    pub fn is_cpu_dead(&self, cpu: CpuId) -> bool {
        self.dead_cpus[cpu.0 as usize >> 6] & (1u64 << (cpu.0 & 63)) != 0
    }

    /// The CPUs currently dead, in ascending id order.
    pub fn dead_cpu_list(&self) -> Vec<CpuId> {
        (0..self.cfg.num_cpus() as u16)
            .map(CpuId)
            .filter(|c| self.is_cpu_dead(*c))
            .collect()
    }

    /// Cumulative cycles charged across all accesses — the machine's
    /// notion of simulated time (hard-fault triggering, watchdog
    /// deadlines).
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// Rings currently severed by hard link failures (bit = ring id).
    pub fn failed_rings(&self) -> u8 {
        self.failed_rings
    }

    /// Nodes whose GCBs have been degraded to half capacity
    /// (bit = node id; `u128` covers the full 128-hypernode range).
    pub fn degraded_nodes(&self) -> u128 {
        self.degraded_gcbs
    }

    /// True while the installed plan still has unfired hard faults.
    pub fn hard_faults_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            // One fired bit per entry, at most FaultPlan::MAX_HARD_FAULTS.
            let n = f.hard_faults().len() as u32;
            let all = u64::MAX.checked_shr(64 - n).unwrap_or(0);
            self.hard_applied & all != all
        })
    }

    /// Batched runs fall back to the scalar loop while hard faults
    /// are pending (a mid-run trigger must land on exactly the access
    /// the scalar loop would give it) or the issuing CPU is dead (its
    /// cache never refills, so the run's hit assumption is void).
    fn degraded_path(&self, cpu: CpuId) -> bool {
        self.is_cpu_dead(cpu) || self.hard_faults_pending()
    }

    /// True when the installed fault plan can inject transient
    /// coherence faults. Drives the scalar fallback in the batched
    /// runs: every element must pass through the protocol seam so the
    /// per-site decision streams advance exactly as in the scalar
    /// loop.
    fn transients_active(&self) -> bool {
        self.faults
            .as_ref()
            .map(|f| f.transients_active())
            .unwrap_or(false)
    }

    /// The transient coherence-fault seam, called once per cached
    /// access after the hit charge or the protocol backend, under
    /// every protocol. Draws the per-kind
    /// decision streams, injects at most one corruption into the
    /// accessed line's footprint, detects it with the line-local
    /// invariant audit, and repairs it with a bounded scrub loop.
    ///
    /// Recovery is free in simulated time: the access's cycle cost
    /// and the machine clock are never touched, only the
    /// [`MemStats::recoveries`]/[`MemStats::recovery_retries`]
    /// counters move — which is what makes a recovered run
    /// bit-identical to the fault-free run
    /// ([`MemStats::eq_modulo_recovery`]).
    fn inject_transient(&mut self, cpu: CpuId, addr: u64, line: u64) {
        if !self.transients_active() || self.is_cpu_dead(cpu) {
            // Dead CPUs' drained accesses carry no new coherence
            // traffic for a transient to land on.
            return;
        }
        self.inject_transient_cold(cpu, addr, line);
    }

    #[cold]
    fn inject_transient_cold(&mut self, cpu: CpuId, addr: u64, line: u64) {
        // Draw every enabled, protocol-applicable stream in fixed
        // site order; the first that fires picks the fault kind.
        // Unconditional draws keep each site's counter advancing at
        // the same per-access rate no matter which kind lands.
        let dragon = self.protocol == ProtocolKind::Dragon;
        let dashsci = self.protocol == ProtocolKind::DashSci;
        let Some(p) = self.faults.as_mut() else {
            return;
        };
        let hits = [
            p.inval_dropped(),
            p.inval_duplicated(),
            p.inval_delayed(),
            if dragon { p.update_lost() } else { false },
            if dashsci { p.ack_stales() } else { false },
            p.line_corrupts(),
        ];
        const KINDS: [TransientKind; 6] = [
            TransientKind::InvalDrop,
            TransientKind::InvalDup,
            TransientKind::InvalDelay,
            TransientKind::UpdateLoss,
            TransientKind::AckStale,
            TransientKind::LineCorrupt,
        ];
        let Some(kind) = KINDS
            .iter()
            .zip(hits)
            .find(|(_, hit)| *hit)
            .map(|(k, _)| *k)
        else {
            return;
        };
        let image = self.capture_line_image(line);
        if !self.apply_transient_corruption(kind, cpu, addr, line) {
            // No victim candidate (e.g. no second holder to lose an
            // update): the fault lands on nothing.
            return;
        }
        let mut found = Vec::new();
        self.check_line(line, &mut found);
        if found.is_empty() || found.iter().any(|v| !v.recoverable()) {
            // Masked (or mis-modelled) corruption: never leave wrong
            // data behind — put the footprint back and move on.
            self.restore_line_image(line, &image);
            return;
        }
        self.emit(
            cpu,
            TraceEvent::TransientFault {
                line,
                site: kind.site(),
            },
        );
        // Bounded detect-and-retry: each scrub restores the captured
        // footprint (a directory-directed re-fetch of the line); a
        // persisting transient reasserts the same corruption until
        // the doubling retry_backoff budget is spent.
        let mut attempts: u32 = 0;
        let mut spent: u64 = 0;
        loop {
            attempts += 1;
            self.stats.recovery_retries += 1;
            spent = spent.saturating_add(crate::retry_backoff(1, attempts - 1));
            self.restore_line_image(line, &image);
            let persists = self
                .faults
                .as_mut()
                .map(|f| f.transient_persists())
                .unwrap_or(false);
            if !persists {
                break;
            }
            if spent >= SCRUB_BUDGET {
                // Exhausted. State is restored (the access returns
                // correct data or nothing), but the line cannot be
                // trusted going forward: escalate.
                self.pending_recovery_failure = Some(SimError::RecoveryExhausted {
                    cpu: cpu.0,
                    line,
                    attempts,
                });
                return;
            }
            self.apply_transient_corruption(kind, cpu, addr, line);
        }
        self.stats.recoveries += 1;
        self.emit(cpu, TraceEvent::Recovery { line, attempts });
        debug_assert!(
            {
                let mut v = Vec::new();
                self.check_line(line, &mut v);
                v.is_empty()
            },
            "scrub left line {line:#x} in violation"
        );
    }

    /// Capture the full coherence footprint of `line` (see
    /// [`LineImage`]).
    fn capture_line_image(&self, line: u64) -> LineImage {
        let cache = (0..self.cfg.num_cpus())
            .filter_map(|c| {
                let s = self.caches[c].lookup(line);
                (s != LineState::Invalid).then_some((c, s))
            })
            .collect();
        let dirs = self
            .dirs
            .iter()
            .map(|d| d.get(line).map(|e| (e.sharers, e.owner)))
            .collect();
        let snoop = self.snoop.holders(line).to_vec();
        LineImage { cache, dirs, snoop }
    }

    /// Restore `line`'s coherence footprint to `img`, touching
    /// nothing else. The injected corruptions only mutate existing
    /// entries or this line's own slots, so the refill below can
    /// never displace an unrelated line.
    fn restore_line_image(&mut self, line: u64, img: &LineImage) {
        for c in 0..self.cfg.num_cpus() {
            let cur = self.caches[c].lookup(line);
            let want = img.cache.iter().find(|(cpu, _)| *cpu == c).map(|(_, s)| *s);
            match (cur, want) {
                (LineState::Invalid, Some(s)) => {
                    let evicted = self.caches[c].fill(line, s);
                    debug_assert!(
                        evicted.is_none(),
                        "scrub refill displaced an unrelated line"
                    );
                }
                (_, Some(s)) if cur != s => self.caches[c].set_state(line, s),
                (_, None) if cur != LineState::Invalid => {
                    self.caches[c].invalidate(line);
                }
                _ => {}
            }
        }
        for (n, want) in img.dirs.iter().enumerate() {
            self.dirs[n].take(line);
            if let Some((sharers, owner)) = want {
                if let Some(o) = owner {
                    self.dirs[n].set_owner(line, *o);
                }
                for b in 0..8u8 {
                    if sharers & (1 << b) != 0 && Some(b) != *owner {
                        self.dirs[n].add_sharer(line, b);
                    }
                }
            }
        }
        let cur: Vec<u16> = self.snoop.holders(line).to_vec();
        for c in cur {
            self.snoop.remove(line, c);
        }
        for c in &img.snoop {
            self.snoop.add(line, *c);
        }
    }

    /// Apply `kind`'s corruption to `line`'s footprint, picking a
    /// deterministic victim from the current state (lowest-index
    /// candidate, preferring one that is not the accessor). Returns
    /// false when no candidate exists, in which case nothing was
    /// mutated. Re-invoked with identical state (after a scrub
    /// restore), this reproduces the exact same mutation.
    fn apply_transient_corruption(
        &mut self,
        kind: TransientKind,
        cpu: CpuId,
        addr: u64,
        line: u64,
    ) -> bool {
        let accessor = cpu.0 as usize;
        let holders: Vec<usize> = (0..self.cfg.num_cpus())
            .filter(|&c| self.caches[c].lookup(line) != LineState::Invalid)
            .collect();
        let other_holder = holders.iter().copied().find(|&c| c != accessor);
        match kind {
            TransientKind::InvalDrop => {
                // A dropped invalidation leaves a stale copy alive in
                // a cache the metadata believes clean of it.
                let victim = (0..self.cfg.num_cpus()).find(|&c| {
                    c != accessor
                        && !self.is_cpu_dead(CpuId(c as u16))
                        && self.caches[c].lookup(line) == LineState::Invalid
                        && self.caches[c].peek_victim(line).is_none()
                });
                let Some(v) = victim else { return false };
                self.caches[v].fill(line, LineState::Shared);
                true
            }
            TransientKind::InvalDup => {
                // A duplicated invalidation tears down a copy the
                // metadata still records.
                let Some(v) = other_holder.or_else(|| holders.first().copied()) else {
                    return false;
                };
                self.caches[v].invalidate(line);
                true
            }
            TransientKind::InvalDelay => {
                // A delayed invalidation's stale record lingers in
                // the metadata for a CPU that no longer holds it.
                let victim = (0..self.cfg.num_cpus()).find(|&c| {
                    c != accessor
                        && !self.is_cpu_dead(CpuId(c as u16))
                        && self.caches[c].lookup(line) == LineState::Invalid
                });
                let Some(v) = victim else { return false };
                self.phantom_metadata(line, v);
                true
            }
            TransientKind::UpdateLoss => {
                // Dragon only: an update broadcast never reached one
                // sharer, whose copy drops out of the coherent set
                // while the filter still lists it.
                let Some(v) = other_holder else { return false };
                self.caches[v].invalidate(line);
                true
            }
            TransientKind::AckStale => {
                // DASH+SCI only: the home directory records a sharer
                // from a stale invalidation ack.
                let hnode = self.space.home_of(addr).0;
                let cpn = self.cfg.cpus_per_node();
                let base = hnode.0 as usize * cpn;
                let victim = (base..base + cpn).find(|&c| {
                    c != accessor
                        && !self.is_cpu_dead(CpuId(c as u16))
                        && self.caches[c].lookup(line) == LineState::Invalid
                });
                let Some(v) = victim else { return false };
                self.phantom_metadata(line, v);
                true
            }
            TransientKind::LineCorrupt => {
                // Single-event upset in a tag/state array: flip a
                // Shared copy to Modified when that breaks the
                // single-writer invariant, otherwise knock the sole
                // holder out of the metadata.
                if holders.len() >= 2 {
                    let shared = holders
                        .iter()
                        .copied()
                        .find(|&c| {
                            c != accessor && self.caches[c].lookup(line) == LineState::Shared
                        })
                        .or_else(|| {
                            holders
                                .iter()
                                .copied()
                                .find(|&c| self.caches[c].lookup(line) == LineState::Shared)
                        });
                    if let Some(v) = shared {
                        self.caches[v].set_state(line, LineState::Modified);
                        return true;
                    }
                }
                let Some(&v) = holders.first() else {
                    return false;
                };
                self.drop_metadata(line, v);
                true
            }
        }
    }

    /// Record `cpu` in `line`'s coherence metadata (directory sharer
    /// bit under DASH+SCI, snoop-filter holder otherwise) without
    /// giving it a cache copy.
    fn phantom_metadata(&mut self, line: u64, cpu: usize) {
        if self.protocol == ProtocolKind::DashSci {
            let node = self.cfg.node_of_cpu(CpuId(cpu as u16));
            let b = self.cfg.cpu_index_in_node(CpuId(cpu as u16)) as u8;
            self.dirs[node.0 as usize].add_sharer(line, b);
        } else {
            self.snoop.add(line, cpu as u16);
        }
    }

    /// Erase `cpu` from `line`'s coherence metadata while its cache
    /// copy survives.
    fn drop_metadata(&mut self, line: u64, cpu: usize) {
        if self.protocol == ProtocolKind::DashSci {
            let node = self.cfg.node_of_cpu(CpuId(cpu as u16));
            let b = self.cfg.cpu_index_in_node(CpuId(cpu as u16)) as u8;
            self.dirs[node.0 as usize].remove_sharer(line, b);
        } else {
            self.snoop.remove(line, cpu as u16);
        }
    }

    /// A canonical FNV-1a digest of the machine's complete coherence
    /// state: every cache's valid lines, each hypernode directory,
    /// the SCI reference trees, the GCBs, and the snoop filter. Two
    /// machines with bit-identical coherence state digest equal; the
    /// `spp repro recovery` experiment uses this to prove a recovered run
    /// converged to the fault-free run's exact final state.
    pub fn coherence_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn put(h: &mut u64, x: u64) {
            *h ^= x;
            *h = h.wrapping_mul(PRIME);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        put(&mut h, self.protocol.tag() as u64);
        for (c, cache) in self.caches.iter().enumerate() {
            let mut lines: Vec<(u64, LineState)> = cache.entries().collect();
            lines.sort_unstable_by_key(|(l, _)| *l);
            for (l, s) in lines {
                put(&mut h, c as u64);
                put(&mut h, l);
                put(&mut h, s as u64);
            }
        }
        for (g, gcb) in self.gcbs.iter().enumerate() {
            let mut lines: Vec<(u64, LineState)> = gcb.entries().collect();
            lines.sort_unstable_by_key(|(l, _)| *l);
            for (l, s) in lines {
                put(&mut h, g as u64);
                put(&mut h, l);
                put(&mut h, s as u64);
            }
        }
        for (n, d) in self.dirs.iter().enumerate() {
            let mut lines: Vec<u64> = d.lines().collect();
            lines.sort_unstable();
            for l in lines {
                let e = d.get(l).unwrap_or_default();
                put(&mut h, n as u64);
                put(&mut h, l);
                put(&mut h, e.sharers as u64);
                put(&mut h, e.owner.map(|o| o as u64 + 1).unwrap_or(0));
            }
        }
        let mut sci_lines: Vec<u64> = self.sci.lines().collect();
        sci_lines.sort_unstable();
        for l in sci_lines {
            put(&mut h, l);
            if let Some(e) = self.sci.get(l) {
                for n in &e.list {
                    put(&mut h, *n as u64 + 1);
                }
                put(&mut h, e.dirty.map(|d| d as u64 + 1).unwrap_or(0));
            }
        }
        let mut snoop_lines: Vec<u64> = self.snoop.lines().collect();
        snoop_lines.sort_unstable();
        for l in snoop_lines {
            put(&mut h, l);
            for c in self.snoop.holders(l) {
                put(&mut h, *c as u64 + 1);
            }
        }
        h
    }

    /// An uncached atomic operation (counting semaphores, §4.2).
    /// Bypasses all caches; cost depends only on where the semaphore
    /// lives.
    pub fn uncached_op(&mut self, cpu: CpuId, addr: u64) -> Cycles {
        let before = self.stats;
        self.apply_due_hard_faults();
        self.stats.uncached_ops += 1;
        let (hnode, hfu) = self.space.home_of(addr);
        let local = self.cfg.latency.uncached_local;
        let extra = self.cfg.latency.uncached_remote_extra;
        let cost = if hnode == self.cfg.node_of_cpu(cpu) {
            local
        } else {
            // Remote semaphore traffic crosses the ring and is subject
            // to the same injected stalls and hard link failures as
            // coherence traffic.
            local + extra + self.ring_stall_draw() + self.reroute_penalty(self.cfg.ring_of_fu(hfu))
        };
        self.clock += cost;
        self.account(cpu, &before);
        // Only the heatmap attributes uncached ops; the checker and the
        // race detector see cached accesses.
        let line = self.line_of(addr);
        if let Some(h) = self.obs.as_deref_mut().and_then(|o| o.heat.as_mut()) {
            h.note(line, cost, &self.stats.since(&before));
        }
        cost
    }

    /// Batched fast path for `n` consecutive reads at `addr`,
    /// `addr + elem_bytes`, ...: one full coherence transaction per
    /// cache line touched, with the remaining elements of each line
    /// priced as the cache hits the scalar loop would see.
    ///
    /// Bit-identical in cycles and [`MemStats`] to calling
    /// [`Machine::read`] once per element (the run-equivalence
    /// invariant of [`crate::port`]): the model is single-threaded, so
    /// after the first access of a line nothing can displace it until
    /// the run moves past that line; and hits never change SCI
    /// counters, so no fault-plan draw is burned for them — exactly as
    /// in the scalar path.
    pub fn read_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        debug_assert!(elem_bytes > 0, "read_run with zero stride");
        // Degraded CPUs need per-access fault application; the race
        // detector needs every element's record; transient injection
        // draws a decision per element through the protocol seam; the
        // heatmap attributes per access. All take the scalar loop,
        // which the run-equivalence invariant makes bit-identical.
        if self.degraded_path(cpu) || self.per_access_observers() || self.transients_active() {
            let mut total = 0;
            for i in 0..n {
                total += self.read(cpu, addr + i as u64 * elem_bytes);
            }
            return total;
        }
        // Read hits leave coherence state untouched under every
        // protocol, so the rest-are-hits batching below is valid for
        // DASH+SCI, MESI and Dragon alike.
        let hit = self.cfg.latency.cache_hit;
        let mut total = 0;
        let mut i = 0usize;
        while i < n {
            let a = addr + i as u64 * elem_bytes;
            total += self.read(cpu, a);
            // Elements after `a` that stay within its line all hit.
            let line = self.line_of(a);
            let line_end = (line + 1) << self.line_shift;
            let rem = (((line_end - a - 1) / elem_bytes) as usize).min(n - i - 1);
            if rem > 0 {
                self.stats.reads += rem as u64;
                self.stats.hits += rem as u64;
                let per = &mut self.cpu_stats[cpu.0 as usize];
                per.reads += rem as u64;
                per.hits += rem as u64;
                total += rem as u64 * hit;
                self.clock += rem as u64 * hit;
                if self.obs.is_some() {
                    // Only the checker can be mounted here (the other
                    // observers take the scalar loop); it audits every
                    // element.
                    for _ in 0..rem {
                        self.observe(cpu, a, hit, false, &hit_delta(false));
                    }
                }
            }
            i += 1 + rem;
        }
        total
    }

    /// Batched fast path for `n` consecutive writes; the write twin of
    /// [`Machine::read_run`] (after the first write of a run to a line
    /// the writer holds it Modified, so the rest are scalar-equivalent
    /// write hits).
    pub fn write_run(&mut self, cpu: CpuId, addr: u64, elem_bytes: u64, n: usize) -> Cycles {
        debug_assert!(elem_bytes > 0, "write_run with zero stride");
        // Same scalar fallback as read_run: per-element records for
        // the race detector and per-access attribution for the
        // heatmap, bit-identical by run equivalence. Dragon always
        // takes the scalar loop: a write to a line with other holders
        // stays a broadcasting hit (never Modified), so the
        // rest-are-plain-hits assumption does not hold there.
        if self.degraded_path(cpu)
            || self.per_access_observers()
            || self.transients_active()
            || self.protocol == ProtocolKind::Dragon
        {
            let mut total = 0;
            for i in 0..n {
                total += self.write(cpu, addr + i as u64 * elem_bytes);
            }
            return total;
        }
        let hit = self.cfg.latency.cache_hit;
        let mut total = 0;
        let mut i = 0usize;
        while i < n {
            let a = addr + i as u64 * elem_bytes;
            total += self.write(cpu, a);
            let line = self.line_of(a);
            let line_end = (line + 1) << self.line_shift;
            let rem = (((line_end - a - 1) / elem_bytes) as usize).min(n - i - 1);
            if rem > 0 {
                self.stats.writes += rem as u64;
                self.stats.hits += rem as u64;
                let per = &mut self.cpu_stats[cpu.0 as usize];
                per.writes += rem as u64;
                per.hits += rem as u64;
                total += rem as u64 * hit;
                self.clock += rem as u64 * hit;
                if self.obs.is_some() {
                    // Only the checker can be mounted here (the other
                    // observers take the scalar loop); it audits every
                    // element.
                    for _ in 0..rem {
                        self.observe(cpu, a, hit, true, &hit_delta(true));
                    }
                }
            }
            i += 1 + rem;
        }
        total
    }

    /// Service a read miss under DASH+SCI: find the data, maintain
    /// coherence state, fill the cache. Installs the line Shared.
    pub(crate) fn read_miss(&mut self, cpu: CpuId, addr: u64, line: u64) -> Cycles {
        let lat = self.cfg.latency.clone();
        let my_node = self.cfg.node_of_cpu(cpu);
        let in_node = self.cfg.cpu_index_in_node(cpu) as u8;
        let (hnode, hfu) = self.space.home_of(addr);
        let mut cost;

        // Another CPU in this node may hold the only valid copy.
        let local_owner = self.dirs[my_node.0 as usize]
            .get(line)
            .and_then(|e| e.owner)
            .filter(|o| *o != in_node);

        if let Some(owner_in_node) = local_owner {
            // Cache-to-cache transfer through the node directory.
            cost = lat.local_miss + lat.c2c_extra;
            self.stats.c2c_transfers += 1;
            self.emit(
                cpu,
                TraceEvent::Miss {
                    kind: MissKind::C2c,
                    line,
                },
            );
            let owner_cpu = my_node.0 as usize * self.cfg.cpus_per_node() + owner_in_node as usize;
            self.caches[owner_cpu].set_state(line, LineState::Shared);
            self.dirs[my_node.0 as usize].clear_owner(line);
            // The supplying cache's data also refreshes the local copy
            // (home memory or GCB); dirty tracking is unchanged.
        } else if hnode == my_node {
            // Home is local. Check whether a remote node holds it dirty.
            if let Some(d) = self.sci.dirty_node(line).filter(|d| *d != my_node.0) {
                let hops = self.cfg.ring_round_trip_hops(my_node, NodeId(d));
                cost = lat.local_miss + lat.sci_fetch(hops);
                self.stats.remote_dirty_fetches += 1;
                self.stats.sci_fetches += 1;
                self.emit(
                    cpu,
                    TraceEvent::Miss {
                        kind: MissKind::Sci,
                        line,
                    },
                );
                self.downgrade_node(NodeId(d), hfu, line);
                self.sci.clear_dirty(line);
            } else {
                cost = lat.local_miss;
                self.stats.local_misses += 1;
                self.emit(
                    cpu,
                    TraceEvent::Miss {
                        kind: MissKind::Local,
                        line,
                    },
                );
            }
        } else {
            // Remote line: go through the global cache buffer on the
            // gateway FU for the home's ring.
            let ring = self.cfg.ring_of_fu(hfu);
            let g = self.gcb_index(my_node, ring);
            match self.gcbs[g].lookup(line) {
                // Shared | Modified (GCBs never hold the MESI/Dragon
                // states): GCB hit, serviced within the hypernode
                // (§2.6).
                s if s != LineState::Invalid => {
                    cost = lat.local_miss;
                    self.stats.gcb_hits += 1;
                    self.emit(
                        cpu,
                        TraceEvent::Miss {
                            kind: MissKind::Gcb,
                            line,
                        },
                    );
                }
                _ => {
                    let hops = self.cfg.ring_round_trip_hops(my_node, hnode);
                    cost = lat.local_miss + lat.sci_fetch(hops);
                    self.stats.sci_fetches += 1;
                    self.emit(
                        cpu,
                        TraceEvent::Miss {
                            kind: MissKind::Sci,
                            line,
                        },
                    );
                    // Dirty elsewhere? Home forwards to the owner.
                    if let Some(d) = self
                        .sci
                        .dirty_node(line)
                        .filter(|d| *d != my_node.0 && *d != hnode.0)
                    {
                        cost += lat.sci_list_op
                            + self.cfg.ring_round_trip_hops(hnode, NodeId(d)) * lat.ring_hop / 2;
                        self.stats.remote_dirty_fetches += 1;
                        self.downgrade_node(NodeId(d), hfu, line);
                        self.sci.clear_dirty(line);
                    } else if self.sci.dirty_node(line) == Some(hnode.0) {
                        self.sci.clear_dirty(line);
                    }
                    // A CPU *in the home node* may hold the line
                    // Modified: the home directory supplies the data
                    // from that cache and downgrades it to Shared
                    // (classified as a dirty supply within the one SCI
                    // fetch already counted).
                    if let Some(owner) = self.dirs[hnode.0 as usize].get(line).and_then(|e| e.owner)
                    {
                        let owner_cpu =
                            hnode.0 as usize * self.cfg.cpus_per_node() + owner as usize;
                        self.caches[owner_cpu].set_state(line, LineState::Shared);
                        self.dirs[hnode.0 as usize].clear_owner(line);
                        cost += lat.c2c_extra;
                        self.stats.remote_dirty_fetches += 1;
                    }
                    // Install in the GCB; displaced remote lines roll out.
                    if let Some(victim) = self.gcbs[g].fill(line, LineState::Shared) {
                        cost += self.gcb_rollout(my_node, ring, victim);
                    }
                    self.sci.add_sharer(line, my_node.0);
                }
            }
        }

        // A dead CPU's drained request is serviced by the node but
        // never refills the dead cache or re-enters the directory.
        if self.is_cpu_dead(cpu) {
            return cost;
        }
        // Fill the CPU cache and account for its victim.
        if let Some(victim) = self.caches[cpu.0 as usize].fill(line, LineState::Shared) {
            cost += self.cpu_evict(cpu, my_node, victim);
        }
        self.dirs[my_node.0 as usize].add_sharer(line, in_node);
        cost
    }

    /// Invalidate every copy of `line` other than `cpu`'s via the
    /// DASH directories and SCI lists, pricing the serial walk the
    /// writer observes.
    pub(crate) fn invalidate_others(&mut self, cpu: CpuId, addr: u64, line: u64) -> Cycles {
        let lat = self.cfg.latency.clone();
        let my_node = self.cfg.node_of_cpu(cpu);
        let in_node = self.cfg.cpu_index_in_node(cpu) as u8;
        let (hnode, hfu) = self.space.home_of(addr);
        let mut cost = 0;

        // 1. Local sharers, serialized at the node directory.
        cost += self.invalidate_in_node(my_node, line, Some(in_node), &lat);

        // 2. Remote sharers via the SCI reference tree.
        let entry = self.sci.take(line);
        if let Some(e) = entry {
            // A remote writer first negotiates with the home node.
            if hnode != my_node {
                cost += lat.sci_base + self.cfg.ring_round_trip_hops(my_node, hnode) * lat.ring_hop;
                // Home-node CPUs caching the line are invalidated by
                // the home directory.
                cost += self.invalidate_in_node(hnode, line, None, &lat);
            }
            let mut walked = 0u8;
            for n in e.list {
                if n == my_node.0 {
                    continue; // our own GCB copy stays (we own the line now)
                }
                let hops = self.cfg.ring_round_trip_hops(hnode, NodeId(n));
                cost += lat.sci_invalidate_one(hops);
                self.stats.sci_invalidations += 1;
                walked += 1;
                self.invalidate_node_copy(NodeId(n), hfu, line, &lat, &mut cost);
            }
            if walked > 0 {
                self.emit(
                    cpu,
                    TraceEvent::SciInvalWalk {
                        line,
                        nodes: walked,
                    },
                );
            }
            // If we are remote, we remain the sole sharing node.
            if hnode != my_node {
                self.sci.add_sharer(line, my_node.0);
            }
        } else if hnode != my_node {
            // No other sharers, but a remote writer still tells home.
            cost += lat.sci_base + self.cfg.ring_round_trip_hops(my_node, hnode) * lat.ring_hop;
            // Home-node CPUs might share it without an SCI entry
            // (they're tracked by the home directory, not SCI).
            cost += self.invalidate_in_node(hnode, line, None, &lat);
            self.sci.add_sharer(line, my_node.0);
        }
        cost
    }

    /// Invalidate all CPU copies of `line` within `node`, except
    /// `keep` (CPU index in node).
    fn invalidate_in_node(
        &mut self,
        node: NodeId,
        line: u64,
        keep: Option<u8>,
        lat: &crate::latency::LatencyModel,
    ) -> Cycles {
        let mut cost = 0;
        if let Some(e) = self.dirs[node.0 as usize].get(line) {
            for b in 0..self.cfg.cpus_per_node() as u8 {
                if e.sharers & (1 << b) == 0 || keep == Some(b) {
                    continue;
                }
                let cpu = node.0 as usize * self.cfg.cpus_per_node() + b as usize;
                self.caches[cpu].invalidate(line);
                self.dirs[node.0 as usize].remove_sharer(line, b);
                self.stats.invalidations += 1;
                cost += lat.inv_local;
            }
        }
        cost
    }

    /// Remove node `n`'s copy of a remote `line` entirely: its GCB
    /// entry and any CPU caches holding it.
    fn invalidate_node_copy(
        &mut self,
        n: NodeId,
        hfu: crate::config::FuId,
        line: u64,
        lat: &crate::latency::LatencyModel,
        cost: &mut Cycles,
    ) {
        let ring = self.cfg.ring_of_fu(hfu);
        let g = self.gcb_index(n, ring);
        self.gcbs[g].invalidate(line);
        if let Some(e) = self.dirs[n.0 as usize].take(line) {
            for b in 0..self.cfg.cpus_per_node() as u8 {
                if e.sharers & (1 << b) != 0 {
                    let cpu = n.0 as usize * self.cfg.cpus_per_node() + b as usize;
                    self.caches[cpu].invalidate(line);
                    self.stats.invalidations += 1;
                    *cost += lat.inv_local;
                }
            }
        }
    }

    /// Downgrade node `d`'s dirty copy of `line` to Shared (a reader
    /// elsewhere fetched the data).
    fn downgrade_node(&mut self, d: NodeId, hfu: crate::config::FuId, line: u64) {
        if let Some(owner) = self.dirs[d.0 as usize].get(line).and_then(|e| e.owner) {
            let cpu = d.0 as usize * self.cfg.cpus_per_node() + owner as usize;
            self.caches[cpu].set_state(line, LineState::Shared);
            self.dirs[d.0 as usize].clear_owner(line);
        }
        let ring = self.cfg.ring_of_fu(hfu);
        let g = self.gcb_index(d, ring);
        if self.gcbs[g].lookup(line) == LineState::Modified {
            self.gcbs[g].set_state(line, LineState::Shared);
            self.stats.writebacks += 1;
        }
    }

    /// If `cpu` just took ownership of a line homed remotely, record
    /// the dirty copy in its node's GCB and the SCI tree.
    pub(crate) fn mark_dirty_if_remote(&mut self, cpu: CpuId, addr: u64, line: u64) {
        let my_node = self.cfg.node_of_cpu(cpu);
        let (hnode, hfu) = self.space.home_of(addr);
        if hnode != my_node {
            self.sci.set_dirty(line, my_node.0);
            let ring = self.cfg.ring_of_fu(hfu);
            let g = self.gcb_index(my_node, ring);
            // Inclusion: a CPU caching a remote line implies a GCB copy.
            if self.gcbs[g].lookup(line) == LineState::Invalid {
                if let Some(victim) = self.gcbs[g].fill(line, LineState::Modified) {
                    // Rollout cost is charged lazily to stats only; the
                    // triggering write already paid its SCI transaction.
                    self.gcb_rollout(my_node, ring, victim);
                }
            } else {
                self.gcbs[g].set_state(line, LineState::Modified);
            }
        } else {
            // Home writer: home memory will be updated on eviction; no
            // remote dirty state remains (sharers were invalidated).
            self.sci.clear_dirty(line);
        }
    }

    /// A CPU cache eviction: update the node directory; write dirty
    /// data back toward home.
    fn cpu_evict(&mut self, cpu: CpuId, my_node: NodeId, victim: Evicted) -> Cycles {
        let lat = self.cfg.latency.clone();
        let in_node = self.cfg.cpu_index_in_node(cpu) as u8;
        self.stats.evictions += 1;
        self.dirs[my_node.0 as usize].remove_sharer(victim.line, in_node);
        if victim.state == LineState::Modified {
            self.stats.writebacks += 1;
            // Dirty data lands in local memory (home-local line) or in
            // the node's GCB (remote line, which stays Modified there);
            // either way it is a within-node transfer.
            return lat.writeback;
        }
        0
    }

    /// Displace a line from a global cache buffer: detach from the SCI
    /// list, invalidate local CPU copies (inclusion), write back if
    /// dirty.
    fn gcb_rollout(&mut self, node: NodeId, ring: RingId, victim: Evicted) -> Cycles {
        let lat = self.cfg.latency.clone();
        self.stats.gcb_rollouts += 1;
        if self.tracer.is_some() {
            let rec = TraceRecord {
                at: self.clock,
                cpu: NO_CPU,
                node: node.0,
                event: TraceEvent::GcbRollout { line: victim.line },
            };
            if let Some(t) = self.tracer.as_deref_mut() {
                t.record(rec);
            }
        }
        let mut cost = lat.sci_list_op;
        if let Some(e) = self.dirs[node.0 as usize].take(victim.line) {
            for b in 0..self.cfg.cpus_per_node() as u8 {
                if e.sharers & (1 << b) != 0 {
                    let cpu = node.0 as usize * self.cfg.cpus_per_node() + b as usize;
                    self.caches[cpu].invalidate(victim.line);
                    self.stats.invalidations += 1;
                    cost += lat.inv_local;
                }
            }
        }
        self.sci.remove_sharer(victim.line, node.0);
        if victim.state == LineState::Modified {
            self.stats.writebacks += 1;
            cost += lat.writeback;
        }
        let _ = ring;
        cost
    }

    /// Read latency for the *line state as it stands* without changing
    /// any state — used by protocol-level simulations (barrier) that
    /// need "what would this cost" before committing.
    ///
    /// Mirrors [`Machine::read`]'s pricing exactly (every branch of
    /// the private `read_miss`, including cache-to-cache supplies,
    /// remote-dirty fetches, victim writebacks and GCB rollouts), with
    /// one documented exception: fault-injected ring stalls are draws
    /// from the [`FaultPlan`], which a non-mutating peek cannot
    /// consume, so they are excluded.
    pub fn peek_read_cost(&self, cpu: CpuId, addr: u64) -> Cycles {
        let line = self.line_of(addr);
        if is_hit(self.caches[cpu.0 as usize].lookup(line), false) {
            return self.cfg.latency.cache_hit;
        }
        match self.protocol {
            ProtocolKind::DashSci => DashSci::peek_read_miss(self, cpu, addr, line),
            ProtocolKind::Mesi => Mesi::peek_read_miss(self, cpu, addr, line),
            ProtocolKind::Dragon => Dragon::peek_read_miss(self, cpu, addr, line),
        }
    }

    /// Non-mutating twin of [`Machine::gcb_rollout`]'s cost accounting.
    pub(crate) fn peek_gcb_rollout_cost(&self, node: NodeId, victim: Evicted) -> Cycles {
        let lat = &self.cfg.latency;
        let mut cost = lat.sci_list_op;
        if let Some(e) = self.dirs[node.0 as usize].get(victim.line) {
            cost += lat.inv_local * e.sharers.count_ones() as u64;
        }
        if victim.state == LineState::Modified {
            cost += lat.writeback;
        }
        cost
    }

    /// Direct access to the address space (diagnostics, tests).
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuId;

    fn m2() -> Machine {
        Machine::spp1000(2)
    }

    #[test]
    fn second_read_hits() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        let c1 = m.read(CpuId(0), r.addr(0));
        let c2 = m.read(CpuId(0), r.addr(0));
        assert!(c1 > c2);
        assert_eq!(c2, m.config().latency.cache_hit);
        assert_eq!(m.stats.hits, 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.read(CpuId(0), r.addr(0));
        let c = m.read(CpuId(0), r.addr(24)); // same 32 B line
        assert_eq!(c, 1);
    }

    // Paper anchor (§3.1, Table 1): CPU-line load from hypernode
    // memory measured at ~0.55 µs = 55 cycles. The 50..=60 window is
    // intentionally tight — it pins the latency model's headline
    // number; loosen it only if the model is deliberately recalibrated.
    #[test]
    fn local_miss_costs_50_to_60_cycles() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        let c = m.read(CpuId(0), r.addr(0));
        assert!((50..=60).contains(&c), "local miss = {c}");
    }

    // Paper anchor (§3.1): remote/local miss latency ratio ~8 (2 µs
    // SCI fetch vs 0.55 µs local). Tight on purpose: this ratio is the
    // paper's central NUMA characterization.
    #[test]
    fn remote_miss_is_roughly_8x_local() {
        let mut m = m2();
        let near = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        let far = m.alloc(MemClass::NearShared { node: NodeId(1) }, 4096);
        let local = m.read(CpuId(0), near.addr(0));
        let remote = m.read(CpuId(0), far.addr(0));
        let ratio = remote as f64 / local as f64;
        assert!((6.0..=10.0).contains(&ratio), "ratio = {ratio}");
        assert_eq!(m.stats.sci_fetches, 1);
    }

    #[test]
    fn gcb_caches_remote_lines_for_the_whole_node() {
        let mut m = m2();
        let far = m.alloc(MemClass::NearShared { node: NodeId(1) }, 4096);
        let c0 = m.read(CpuId(0), far.addr(0)); // SCI fetch, fills GCB
        let c1 = m.read(CpuId(1), far.addr(0)); // different CPU, same node
        assert!(
            c1 < c0 / 3,
            "GCB hit {c1} should be far below SCI fetch {c0}"
        );
        assert_eq!(m.stats.gcb_hits, 1);
    }

    #[test]
    fn write_hit_after_ownership() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.write(CpuId(0), r.addr(0));
        let c = m.write(CpuId(0), r.addr(0));
        assert_eq!(c, 1);
    }

    #[test]
    fn write_invalidates_local_sharers() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        for cpu in 0..8 {
            m.read(CpuId(cpu), r.addr(0));
        }
        let base = m.stats;
        let _ = m.write(CpuId(0), r.addr(0));
        let d = m.stats.since(&base);
        assert_eq!(d.invalidations, 7);
        assert_eq!(d.upgrades, 1);
        // Invalidated caches miss on their next read.
        let c = m.read(CpuId(1), r.addr(0));
        assert!(c > 1);
    }

    #[test]
    fn write_invalidates_remote_nodes_via_sci() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.read(CpuId(0), r.addr(0));
        m.read(CpuId(8), r.addr(0)); // node 1 shares via SCI
        let base = m.stats;
        m.write(CpuId(0), r.addr(0));
        let d = m.stats.since(&base);
        assert_eq!(d.sci_invalidations, 1);
        // Node 1's copy is gone: next read there is an SCI fetch again.
        let c = m.read(CpuId(8), r.addr(0));
        assert!(c > 100, "should re-fetch over SCI, cost {c}");
    }

    #[test]
    fn remote_write_then_home_read_fetches_dirty_data() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.write(CpuId(8), r.addr(0)); // node 1 dirties node-0-homed line
        let base = m.stats;
        let c = m.read(CpuId(0), r.addr(0)); // home node reads it back
        let d = m.stats.since(&base);
        assert_eq!(d.remote_dirty_fetches, 1);
        assert!(c > 100, "dirty remote fetch should be expensive, got {c}");
    }

    #[test]
    fn cache_to_cache_within_node() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.write(CpuId(0), r.addr(0)); // CPU 0 owns it Modified
        let base = m.stats;
        let c = m.read(CpuId(1), r.addr(0));
        let d = m.stats.since(&base);
        assert_eq!(d.c2c_transfers, 1);
        let lat = &m.config().latency;
        assert_eq!(c, lat.local_miss + lat.c2c_extra);
    }

    #[test]
    fn capacity_misses_in_tiny_cache() {
        let mut m = Machine::new(MachineConfig::tiny(1));
        let lines = m.config().cache_lines();
        let r = m.alloc(
            MemClass::NearShared { node: NodeId(0) },
            (lines as u64 * 2) * 32,
        );
        // Two sweeps over twice the cache capacity: everything misses.
        for sweep in 0..2 {
            for i in 0..(lines as u64 * 2) {
                m.read(CpuId(0), r.addr(i * 32));
            }
            let _ = sweep;
        }
        assert_eq!(m.stats.hits, 0);
        assert!(m.stats.evictions > 0);
    }

    #[test]
    fn uncached_remote_costs_more() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        let local = m.uncached_op(CpuId(0), r.addr(0));
        let remote = m.uncached_op(CpuId(8), r.addr(0));
        assert!(remote > local * 2);
        assert_eq!(m.stats.uncached_ops, 2);
    }

    #[test]
    fn thread_private_is_always_local() {
        let mut m = m2();
        // Private to a thread on node 1's FU 5.
        let r = m.alloc(MemClass::ThreadPrivate { home: FuId(5) }, 4096);
        let c = m.read(CpuId(10), r.addr(0)); // CPU 10 is on FU 5
        assert_eq!(c, m.config().latency.local_miss);
        assert_eq!(m.stats.sci_fetches, 0);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.read(CpuId(0), r.addr(0));
        m.flush_all_caches();
        let c = m.read(CpuId(0), r.addr(0));
        assert!(c > 1, "flushed line must miss");
    }

    #[test]
    fn far_shared_mixes_local_and_remote() {
        let mut m = m2();
        let r = m.alloc(MemClass::FarShared, 16 * 4096);
        let mut local = 0;
        let mut remote = 0;
        for p in 0..16u64 {
            let c = m.read(CpuId(0), r.addr(p * 4096));
            if c > 100 {
                remote += 1;
            } else {
                local += 1;
            }
        }
        assert_eq!(local, 8);
        assert_eq!(remote, 8);
    }

    #[test]
    fn gcb_rollout_detaches_from_sci_list() {
        // A tiny GCB forces rollouts: after sweeping twice the GCB
        // capacity of remote lines, rollouts must have occurred and
        // re-reading an early line must cost a full SCI fetch again.
        let mut m = Machine::new(MachineConfig::tiny(2));
        let lines = m.config().gcb_lines() as u64;
        let r = m.alloc(MemClass::NearShared { node: NodeId(1) }, lines * 2 * 32);
        for i in 0..lines * 2 {
            m.read(CpuId(0), r.addr(i * 32));
        }
        assert!(m.stats.gcb_rollouts > 0, "no rollouts in tiny GCB");
        // Line 0 was displaced: the CPU cache also lost it (inclusion),
        // so this is a fresh SCI fetch.
        let before = m.stats;
        let c = m.read(CpuId(0), r.addr(0));
        assert!(c > 100, "expected SCI re-fetch, got {c}");
        assert_eq!(m.stats.since(&before).sci_fetches, 1);
    }

    #[test]
    fn write_walks_multi_node_sci_list_serially() {
        // Sharers on three remote nodes: the home write's cost grows
        // with the list length (serial SCI walk).
        let mut m = Machine::spp1000(4);
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 4096);
        m.read(CpuId(0), r.addr(0));
        m.read(CpuId(8), r.addr(0));
        let one_sharer = m.write(CpuId(0), r.addr(0));
        // Rebuild a 3-node sharing list.
        m.read(CpuId(0), r.addr(0));
        m.read(CpuId(8), r.addr(0));
        m.read(CpuId(16), r.addr(0));
        m.read(CpuId(24), r.addr(0));
        let three_sharers = m.write(CpuId(0), r.addr(0));
        assert!(
            three_sharers > one_sharer + 50,
            "3-node walk {three_sharers} should exceed 1-node {one_sharer}"
        );
        assert_eq!(m.stats.sci_invalidations, 4);
    }

    #[test]
    fn node_private_lines_never_cross_the_ring() {
        let mut m = Machine::spp1000(2);
        let r = m.alloc(MemClass::NodePrivate { node: NodeId(1) }, 64 * 4096);
        for p in 0..64u64 {
            m.read(CpuId(8), r.addr(p * 4096));
            m.write(CpuId(9), r.addr(p * 4096 + 32));
        }
        assert_eq!(m.stats.sci_fetches, 0);
        assert_eq!(m.stats.sci_invalidations, 0);
    }

    #[test]
    fn peek_matches_actual_read_cost() {
        let mut m = m2();
        let r = m.alloc(MemClass::NearShared { node: NodeId(1) }, 4096);
        let peek = m.peek_read_cost(CpuId(0), r.addr(0));
        let real = m.read(CpuId(0), r.addr(0));
        assert_eq!(peek, real);
        // After the read it's cached: peek sees a hit.
        assert_eq!(m.peek_read_cost(CpuId(0), r.addr(0)), 1);
    }

    /// Exhaustive peek-vs-read drift guard: every placement class
    /// crossed with every reachable cache/coherence state of the
    /// probed line (cold, own copy, local peer owner, remote sharer,
    /// remote dirty, home-node owner seen from a remote reader).
    #[test]
    fn peek_read_cost_matches_read_across_classes_and_states() {
        type Setup = (&'static str, fn(&mut Machine, u64));
        let classes: Vec<(&'static str, MemClass)> = vec![
            ("thread-private", MemClass::ThreadPrivate { home: FuId(0) }),
            ("node-private", MemClass::NodePrivate { node: NodeId(0) }),
            ("near-home", MemClass::NearShared { node: NodeId(0) }),
            ("near-remote", MemClass::NearShared { node: NodeId(1) }),
            ("far-shared", MemClass::FarShared),
            ("block-shared", MemClass::BlockShared { block_bytes: 4096 }),
        ];
        let setups: Vec<Setup> = vec![
            ("cold", |_, _| {}),
            ("own-shared", |m, a| {
                m.read(CpuId(0), a);
            }),
            ("own-modified", |m, a| {
                m.write(CpuId(0), a);
            }),
            ("peer-owns-modified", |m, a| {
                m.write(CpuId(1), a);
            }),
            ("remote-node-shares", |m, a| {
                m.read(CpuId(8), a);
            }),
            ("remote-node-dirty", |m, a| {
                m.write(CpuId(8), a);
            }),
            ("remote-reads-then-home-owns", |m, a| {
                m.read(CpuId(8), a);
                m.write(CpuId(1), a);
            }),
        ];
        for (cname, class) in &classes {
            for (sname, setup) in &setups {
                let mut m = m2();
                let r = m.alloc(*class, 4096);
                let a = r.addr(64);
                setup(&mut m, a);
                let peek = m.peek_read_cost(CpuId(0), a);
                let real = m.read(CpuId(0), a);
                assert_eq!(peek, real, "peek drift: class {cname}, state {sname}");
            }
        }
    }

    #[test]
    fn peek_read_cost_matches_read_under_evictions_and_rollouts() {
        // March far past the tiny cache and GCB capacities so peeks
        // must price victim writebacks and GCB rollouts too.
        let mut m = Machine::new(MachineConfig::tiny(2));
        let lines = m.config().cache_lines() as u64;
        let r = m.alloc(MemClass::NearShared { node: NodeId(1) }, lines * 4 * 32);
        for i in 0..lines * 4 {
            let a = r.addr(i * 32);
            let peek = m.peek_read_cost(CpuId(0), a);
            let real = m.read(CpuId(0), a);
            assert_eq!(peek, real, "line {i}");
            if i % 3 == 0 {
                m.write(CpuId(0), a); // leave Modified victims behind
            }
        }
        assert!(m.stats.gcb_rollouts > 0, "sweep must roll the GCB");
        assert!(m.stats.writebacks > 0, "sweep must write back victims");
    }

    #[test]
    fn peek_read_cost_covers_third_node_dirty_forwarding() {
        let mut m = Machine::spp1000(4);
        let r = m.alloc(MemClass::NearShared { node: NodeId(1) }, 4096);
        m.write(CpuId(16), r.addr(0)); // node 2 dirties a node-1 line
        let peek = m.peek_read_cost(CpuId(0), r.addr(0));
        let real = m.read(CpuId(0), r.addr(0));
        assert_eq!(peek, real, "home-forwarded dirty fetch");
    }

    /// A mixed streaming workload shared by the scalar/batched
    /// equivalence tests: several CPUs, line-unaligned bases, read
    /// and write runs, and a degenerate wide-stride run (one element
    /// per line).
    fn run_workload(m: &mut Machine, batched: bool) -> Cycles {
        let far = m.alloc(MemClass::FarShared, 1 << 16);
        let near = m.alloc(MemClass::NearShared { node: NodeId(0) }, 1 << 14);
        let mut total = 0;
        for row in 0..8u64 {
            let cpu = CpuId((row * 3 % 16) as u16);
            let base = far.addr(row * 8192 + 4); // unaligned in its line
            if batched {
                total += m.read_run(cpu, base, 8, 600);
                total += m.write_run(cpu, base, 8, 600);
            } else {
                for i in 0..600u64 {
                    total += m.read(cpu, base + i * 8);
                }
                for i in 0..600u64 {
                    total += m.write(cpu, base + i * 8);
                }
            }
        }
        // Wide stride: every element its own line (runs degenerate).
        if batched {
            total += m.read_run(CpuId(0), near.addr(0), 64, 200);
        } else {
            for i in 0..200u64 {
                total += m.read(CpuId(0), near.addr(i * 64));
            }
        }
        total
    }

    #[test]
    fn batched_runs_are_bit_identical_to_scalar_loops() {
        let scalar = {
            let mut m = m2();
            let t = run_workload(&mut m, false);
            (t, m.stats)
        };
        let batched = {
            let mut m = m2();
            let t = run_workload(&mut m, true);
            (t, m.stats)
        };
        assert_eq!(scalar, batched, "run-equivalence invariant violated");
    }

    #[test]
    fn batched_runs_preserve_fault_draw_streams() {
        let run = |batched: bool| {
            let plan = FaultPlan::new(13).with_ring_stalls(0.4, 333);
            let mut m = Machine::spp1000(2).with_faults(plan);
            let t = run_workload(&mut m, batched);
            (t, m.stats, m.fault_plan().unwrap().draws())
        };
        assert_eq!(run(false), run(true), "hits must not burn fault draws");
    }

    #[test]
    fn batched_runs_feed_the_checker_per_element() {
        let checks = |batched: bool| {
            let mut m = Machine::spp1000(2).with_checker();
            run_workload(&mut m, batched);
            assert!(m.check_all().is_empty());
            m.checker().unwrap().checks()
        };
        assert_eq!(checks(false), checks(true));
    }

    #[test]
    fn try_new_rejects_bad_config_with_typed_error() {
        let mut cfg = MachineConfig::spp1000(2);
        cfg.line_bytes = 48;
        assert!(matches!(
            Machine::try_new(cfg),
            Err(crate::ConfigError::NotPowerOfTwo { .. })
        ));
    }

    /// A ring-crossing access stream for fault tests: every page of a
    /// remote region, twice, with enough writes to force SCI traffic.
    fn remote_traffic(m: &mut Machine) -> Cycles {
        let r = m.alloc(MemClass::NearShared { node: NodeId(1) }, 64 * 4096);
        let mut total = 0;
        for p in 0..64u64 {
            total += m.read(CpuId(0), r.addr(p * 4096));
            total += m.write(CpuId(0), r.addr(p * 4096));
            total += m.read(CpuId(8), r.addr(p * 4096));
        }
        total
    }

    #[test]
    fn ring_stalls_inflate_cost_deterministically() {
        let run = |plan: Option<FaultPlan>| {
            let mut m = Machine::spp1000(2);
            if let Some(p) = plan {
                m = m.with_faults(p);
            }
            (remote_traffic(&mut m), m.stats.ring_stalls)
        };
        let (clean, stalls0) = run(None);
        assert_eq!(stalls0, 0);
        let plan = FaultPlan::new(11).with_ring_stalls(0.5, 500);
        let (faulty_a, stalls_a) = run(Some(plan.clone()));
        let (faulty_b, stalls_b) = run(Some(plan));
        assert!(stalls_a > 0, "50% stall rate must fire on SCI traffic");
        assert_eq!(
            faulty_a,
            clean + stalls_a * 500,
            "stall pricing is additive"
        );
        // Same seed, same stream: bit-identical cost and stall count.
        assert_eq!((faulty_a, stalls_a), (faulty_b, stalls_b));
    }

    #[test]
    fn faults_never_fire_on_node_local_traffic() {
        let plan = FaultPlan::new(3).with_ring_stalls(1.0, 500);
        let mut m = Machine::spp1000(2).with_faults(plan);
        let r = m.alloc(MemClass::NodePrivate { node: NodeId(0) }, 64 * 4096);
        for p in 0..64u64 {
            m.read(CpuId(0), r.addr(p * 4096));
            m.write(CpuId(1), r.addr(p * 4096));
        }
        assert_eq!(m.stats.ring_stalls, 0);
        assert_eq!(m.fault_plan().unwrap().draws()[0], 0, "no draws burned");
    }

    #[test]
    fn checker_runs_during_faulty_traffic() {
        // Fault injection perturbs costs, never coherence state: the
        // per-access checker must stay quiet under heavy stalls.
        let plan = FaultPlan::new(5).with_ring_stalls(0.8, 700);
        let mut m = Machine::spp1000(2).with_faults(plan).with_checker();
        remote_traffic(&mut m);
        assert!(m.checker().unwrap().checks() > 0);
        assert!(m.check_all().is_empty());
    }

    #[test]
    fn cpu_failure_purges_cache_and_blocks_refill() {
        let plan = FaultPlan::new(7).with_cpu_failure(0, 200);
        let mut m = Machine::spp1000(2).with_faults(plan);
        let r = m.alloc(MemClass::NearShared { node: NodeId(0) }, 8 * 4096);
        // Warm CPU 0's cache (including a dirty line) before the fault.
        m.read(CpuId(0), r.addr(0));
        m.write(CpuId(0), r.addr(4096));
        assert!(!m.is_cpu_dead(CpuId(0)));
        // Push the clock past the trigger.
        while m.clock() < 200 {
            m.read(CpuId(1), r.addr(2 * 4096));
            m.read(CpuId(1), r.addr(3 * 4096));
            m.write(CpuId(1), r.addr(2 * 4096));
        }
        m.read(CpuId(1), r.addr(0)); // any access fires the fault first
        assert!(m.is_cpu_dead(CpuId(0)));
        assert_eq!(m.dead_cpu_list(), vec![CpuId(0)]);
        // The dead CPU's accesses are serviced but never cached again.
        let hits_before = m.stats.hits;
        let c1 = m.read(CpuId(0), r.addr(0));
        let c2 = m.read(CpuId(0), r.addr(0));
        assert!(c1 > 1 && c2 > 1, "dead CPU must never hit ({c1}, {c2})");
        assert_eq!(m.stats.hits, hits_before);
        m.write(CpuId(0), r.addr(4096)); // drained store, no ownership
        assert!(m.check_all().is_empty(), "degraded invariants must hold");
    }

    #[test]
    fn dead_cpu_remote_traffic_keeps_invariants() {
        // A dead CPU whose drained requests cross the ring exercises
        // the GCB/SCI paths without CPU fills.
        let plan = FaultPlan::new(7).with_cpu_failure(0, 0);
        let mut m = Machine::spp1000(2).with_faults(plan);
        let far = m.alloc(MemClass::NearShared { node: NodeId(1) }, 8 * 4096);
        m.read(CpuId(8), far.addr(0)); // triggers the fault, node 1 shares
        assert!(m.is_cpu_dead(CpuId(0)));
        for p in 0..8u64 {
            m.read(CpuId(0), far.addr(p * 4096));
            m.write(CpuId(0), far.addr(p * 4096));
        }
        assert!(m.check_all().is_empty());
        assert!(m.stats.sci_fetches > 0);
    }

    #[test]
    fn link_failure_prices_reroutes_additively() {
        let run = |plan: Option<FaultPlan>| {
            let mut m = Machine::spp1000(2);
            if let Some(p) = plan {
                m = m.with_faults(p);
            }
            (remote_traffic(&mut m), m.stats.link_reroutes)
        };
        let (clean, r0) = run(None);
        assert_eq!(r0, 0);
        // Sever every ring from cycle 0 so all SCI traffic reroutes.
        let mut plan = FaultPlan::new(1);
        for ring in 0..4 {
            plan = plan.with_link_failure(ring, 0, 900);
        }
        let (faulty_a, ra) = run(Some(plan.clone()));
        let (faulty_b, rb) = run(Some(plan));
        assert!(ra > 0, "SCI traffic must reroute on severed rings");
        assert_eq!(faulty_a, clean + ra * 900, "reroute pricing is additive");
        assert_eq!((faulty_a, ra), (faulty_b, rb), "reroutes are deterministic");
    }

    #[test]
    fn gcb_degrade_halves_capacity_and_keeps_invariants() {
        let plan = FaultPlan::new(2).with_gcb_degrade(0, 0);
        let mut m = Machine::new(MachineConfig::tiny(2)).with_faults(plan);
        let full_cap = m.gcbs[0].capacity();
        let far = m.alloc(MemClass::NearShared { node: NodeId(1) }, 64 * 32);
        for i in 0..64u64 {
            m.read(CpuId(0), far.addr(i * 32));
        }
        assert_eq!(m.degraded_nodes(), 1);
        for g in 0..m.cfg.fus_per_node {
            assert_eq!(m.gcbs[g].capacity(), (full_cap / 2).max(1));
        }
        assert!(m.check_all().is_empty());
    }

    #[test]
    fn gcb_degrade_mid_run_rolls_out_survivors_consistently() {
        // Warm the GCB first, then degrade: surviving entries must be
        // re-inserted or rolled out without breaking SCI agreement.
        let plan = FaultPlan::new(2).with_gcb_degrade(0, 5_000);
        let mut m = Machine::new(MachineConfig::tiny(2)).with_faults(plan);
        let far = m.alloc(MemClass::NearShared { node: NodeId(1) }, 128 * 32);
        for i in 0..128u64 {
            m.read(CpuId(0), far.addr(i * 32));
            m.write(CpuId(1), far.addr(i * 32));
        }
        assert!(m.clock() > 5_000, "workload must cross the trigger");
        assert_eq!(m.degraded_nodes(), 1);
        assert!(m.check_all().is_empty());
    }

    #[test]
    fn hard_faults_do_not_fire_before_their_cycle() {
        let plan = FaultPlan::new(9).with_cpu_failure(0, u64::MAX);
        let mut m = Machine::spp1000(2).with_faults(plan);
        remote_traffic(&mut m);
        assert!(!m.is_cpu_dead(CpuId(0)));
        assert!(m.hard_faults_pending());
    }

    #[test]
    fn empty_plan_with_hard_faults_matches_clean_costs_until_trigger() {
        // A schedule that never triggers must not perturb pricing.
        let run = |plan: Option<FaultPlan>| {
            let mut m = Machine::spp1000(2);
            if let Some(p) = plan {
                m = m.with_faults(p);
            }
            (remote_traffic(&mut m), m.stats)
        };
        let clean = run(None);
        let armed = run(Some(FaultPlan::new(4).with_cpu_failure(3, u64::MAX)));
        assert_eq!(clean, armed);
    }

    #[test]
    fn batched_runs_match_scalar_under_hard_faults() {
        // With hard faults pending (or fired), runs fall back to the
        // scalar loop, so equivalence must hold bit-for-bit.
        let run = |batched: bool| {
            let plan = FaultPlan::new(21)
                .with_cpu_failure(3, 40_000)
                .with_link_failure(1, 10_000, 450)
                .with_gcb_degrade(0, 20_000);
            let mut m = Machine::spp1000(2).with_faults(plan);
            let t = run_workload(&mut m, batched);
            (t, m.stats, m.clock())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn clock_advances_identically_scalar_and_batched() {
        let clock = |batched: bool| {
            let mut m = m2();
            run_workload(&mut m, batched);
            m.clock()
        };
        assert_eq!(clock(false), clock(true));
    }

    /// A small cross-node workload that exercises misses, upgrades,
    /// SCI walks and semaphores on `m`.
    fn mixed_workload(m: &mut Machine) {
        let r = m.alloc(MemClass::FarShared, 64 * 1024);
        let sem = m.alloc(MemClass::NearShared { node: NodeId(0) }, 64);
        for i in 0..256u64 {
            let cpu = CpuId((i % 16) as u16);
            m.read(cpu, r.addr(i * 32));
            if i % 3 == 0 {
                m.write(cpu, r.addr(i * 32));
            }
            if i % 17 == 0 {
                m.uncached_op(cpu, sem.addr(0));
            }
        }
        m.read_run(CpuId(1), r.addr(0), 8, 512);
        m.write_run(CpuId(9), r.addr(4096), 8, 512);
    }

    #[test]
    fn per_cpu_stats_sum_to_global() {
        let mut m = m2();
        mixed_workload(&mut m);
        let sum = sum_of(m.per_cpu_stats());
        assert_eq!(sum, m.stats, "per-CPU breakdown must sum to global");
        // And the per-node rollup is the same partition at node grain.
        let mut nodes = MemStats::default();
        for n in 0..m.config().hypernodes {
            nodes.merge(&m.node_stats(NodeId(n as u8)));
        }
        assert_eq!(nodes, m.stats);
    }

    /// A mixed stream for the hit-path tests on a tiny-cache machine:
    /// misses, read and write hits, upgrades, direct-mapped conflict
    /// evictions, uncached ops and batched runs, then a MESI `E`→`M`
    /// write and a Dragon shared write (each checked under its
    /// protocol).
    fn hit_path_stream(m: &mut Machine) -> Cycles {
        let r = m.alloc(MemClass::FarShared, 16 * 1024);
        let sem = m.alloc(MemClass::NearShared { node: NodeId(1) }, 64);
        let conflict = m.config().cache_bytes as u64; // same slot
        let mut total = 0;
        for i in 0..512u64 {
            let cpu = CpuId((i * 5 % 16) as u16);
            let a = r.addr(i * 24 % (8 * 1024));
            total += m.read(cpu, a);
            total += m.read(cpu, a);
            if i % 3 == 0 {
                total += m.write(cpu, a);
                total += m.write(cpu, a);
            }
            total += m.read(cpu, a + conflict);
            if i % 37 == 0 {
                total += m.uncached_op(cpu, sem.addr(0));
            }
        }
        total += m.read_run(CpuId(2), r.addr(4), 8, 700);
        total += m.write_run(CpuId(10), r.addr(8192), 8, 700);

        // A line only CPU 7 has read: MESI installs it E, and the
        // write promotes it silently.
        let e = r.addr(15 * 1024);
        total += m.read(CpuId(7), e);
        if m.protocol() == ProtocolKind::Mesi {
            assert_eq!(m.caches[7].lookup(m.line_of(e)), LineState::Exclusive);
        }
        total += m.write(CpuId(7), e);
        assert_eq!(m.caches[7].lookup(m.line_of(e)), LineState::Modified);

        // Two readers, then writes by one: under Dragon a broadcast
        // update leaving the writer in Sm.
        let sh = r.addr(15 * 1024 + 512);
        total += m.read(CpuId(4), sh);
        total += m.read(CpuId(12), sh);
        let updates = m.stats.updates;
        total += m.write(CpuId(4), sh);
        total += m.write(CpuId(4), sh);
        if m.protocol() == ProtocolKind::Dragon {
            assert_eq!(m.stats.updates, updates + 2);
            assert_eq!(m.caches[4].lookup(m.line_of(sh)), LineState::OwnedShared);
        }
        total
    }

    fn sum_of(per_cpu: &[MemStats]) -> MemStats {
        let mut sum = MemStats::default();
        for s in per_cpu {
            sum.merge(s);
        }
        sum
    }

    #[test]
    fn hit_path_is_identical_with_and_without_observers() {
        for proto in ProtocolKind::ALL {
            let run = |observed: bool| {
                let mut m = Machine::new(MachineConfig::tiny(2))
                    .with_protocol(proto)
                    .with_checker();
                if !observed {
                    // The checker is the only observer mounted, so
                    // this takes every access down the observer-off
                    // path.
                    m.obs = None;
                }
                let cycles = hit_path_stream(&mut m);
                let per_cpu = m.per_cpu_stats().to_vec();
                (cycles, m.clock(), m.stats, per_cpu, m.coherence_digest())
            };
            let observed = run(true);
            let plain = run(false);
            assert_eq!(observed, plain, "{proto:?}: observers changed the run");
            let s = plain.2;
            assert_eq!(sum_of(&plain.3), s, "{proto:?}");
            assert_eq!(plain.1, plain.0, "{proto:?}: clock is the cycle sum");
            assert!(
                s.hits > s.misses() && s.evictions > 0 && s.uncached_ops > 0,
                "{proto:?}: stream must hit, miss and conflict: {s}"
            );
        }
    }

    #[test]
    fn per_cpu_stats_sum_to_global_under_fault_plans() {
        let transient = FaultPlan::new(31)
            .with_ring_stalls(0.3, 200)
            .with_inval_dups(0.05)
            .with_line_corruption(0.02);
        let hard = FaultPlan::new(32)
            .with_cpu_failure(9, 20_000)
            .with_link_failure(1, 5_000, 400)
            .with_gcb_degrade(0, 10_000);
        for proto in ProtocolKind::ALL {
            let mut m = Machine::new(MachineConfig::tiny(2))
                .with_protocol(proto)
                .with_faults(transient.clone());
            hit_path_stream(&mut m);
            assert!(m.stats.recoveries > 0, "{proto:?}: no transient landed");
            assert_eq!(sum_of(m.per_cpu_stats()), m.stats, "{proto:?} transient");

            let mut m = Machine::new(MachineConfig::tiny(2))
                .with_protocol(proto)
                .with_faults(hard.clone());
            hit_path_stream(&mut m);
            assert!(!m.hard_faults_pending(), "{proto:?}: hard faults pending");
            assert_eq!(m.dead_cpu_list(), vec![CpuId(9)]);
            assert_eq!(sum_of(m.per_cpu_stats()), m.stats, "{proto:?} hard");
        }
    }

    #[test]
    fn a_full_64_entry_hard_fault_schedule_fires_every_entry() {
        let mut plan = FaultPlan::new(5);
        for i in 0..FaultPlan::MAX_HARD_FAULTS as u64 {
            plan = match i % 3 {
                0 => plan.with_cpu_failure(15, i * 50),
                1 => plan.with_gcb_degrade(1, i * 50),
                _ => plan.with_link_failure(2, i * 50, 300),
            };
        }
        let mut m = Machine::spp1000(2).with_faults(plan);
        assert!(m.hard_faults_pending());
        remote_traffic(&mut m);
        assert!(m.clock() > 64 * 50);
        assert!(!m.hard_faults_pending());
        assert_eq!(m.hard_applied, u64::MAX, "entry 63 must get its own bit");
        assert!(m.is_cpu_dead(CpuId(15)));
    }

    #[test]
    fn miss_partition_holds_on_a_real_workload() {
        let mut m = m2();
        mixed_workload(&mut m);
        assert!(m.stats.misses() > 0);
        assert!(m.stats.miss_partition_check(), "{}", m.stats);
        for (c, s) in m.per_cpu_stats().iter().enumerate() {
            assert!(s.miss_partition_check(), "cpu {c}: {s}");
        }
    }

    #[test]
    fn tracing_does_not_change_cycles_or_stats() {
        let mut plain = m2();
        mixed_workload(&mut plain);
        let mut traced = m2().with_tracing();
        mixed_workload(&mut traced);
        assert_eq!(plain.clock(), traced.clock());
        assert_eq!(plain.stats, traced.stats);
        assert!(!plain.tracing_enabled());
        assert!(traced.tracing_enabled());
        assert!(!traced.trace_events().is_empty());
    }

    #[test]
    fn race_detection_does_not_change_cycles_or_stats() {
        let mut plain = m2();
        mixed_workload(&mut plain);
        let mut raced = m2().with_race_detection();
        mixed_workload(&mut raced);
        assert_eq!(plain.clock(), raced.clock());
        assert_eq!(plain.stats, raced.stats);
        assert!(!plain.race_detection_enabled());
        assert!(raced.race_detection_enabled());
    }

    #[test]
    fn heatmap_does_not_change_cycles_or_stats() {
        let mut plain = m2();
        mixed_workload(&mut plain);
        let mut heated = m2().with_heatmap();
        mixed_workload(&mut heated);
        assert_eq!(plain.clock(), heated.clock());
        assert_eq!(plain.stats, heated.stats);
        assert!(!plain.heatmap_enabled());
        assert!(heated.heatmap_enabled());
    }

    #[test]
    fn heat_partition_holds_on_a_real_workload() {
        let mut m = m2().with_heatmap();
        mixed_workload(&mut m);
        assert!(m.heat_partition_check(), "attribution must partition");
        let h = m.heatmap().unwrap();
        assert!(h.touched_lines() > 0);
        assert_eq!(h.totals().total_cycles(), m.clock());
        let hottest = h.hottest(5);
        assert!(!hottest.is_empty());
        // Remote traffic exists, so some line must be attributed
        // beyond the local level.
        assert!(hottest
            .iter()
            .any(|(_, c)| c.dominant_level() != crate::heat::ServiceLevel::Hit));
    }

    #[test]
    fn heatmap_mounted_mid_run_partitions_the_suffix() {
        let mut m = m2();
        mixed_workload(&mut m);
        let mid = m.clock();
        assert!(mid > 0);
        m = m.with_heatmap();
        mixed_workload(&mut m);
        assert!(m.heat_partition_check());
        let h = m.heatmap().unwrap();
        assert_eq!(h.start_clock(), mid);
        assert_eq!(h.totals().total_cycles(), m.clock() - mid);
    }

    #[test]
    fn region_labels_flow_into_heat_reports() {
        let mut m = m2().with_heatmap();
        let r = m.alloc(MemClass::FarShared, 4096);
        m.label_region(r.base, "grid");
        for i in 0..32 {
            m.read(CpuId((i % 16) as u16), r.addr(i as u64 * 64));
        }
        assert_eq!(m.address_space().region_name(r.addr(100)), Some("grid"));
        let report = crate::heat::heat_report(&m, 4);
        assert!(report.contains("grid"), "{report}");
        let json = crate::heat::insight_json(&m, 4);
        assert!(json.contains("\"name\": \"grid\""), "{json}");
        assert!(json.contains("\"heat_partition_check\": true"), "{json}");
    }

    #[test]
    fn race_detector_flags_a_planted_cross_cpu_conflict() {
        use crate::race::RaceEvent as Ev;
        let mut m = m2().with_race_detection();
        let r = m.alloc(MemClass::FarShared, 256);
        let ev = |m: &mut Machine, e: Ev| m.race_sink_mut().unwrap().handle(e);
        ev(
            &mut m,
            Ev::Register {
                base: r.base,
                len: r.len,
                elem_bytes: 8,
                label: "planted".into(),
            },
        );
        ev(&mut m, Ev::RegionBegin);
        ev(&mut m, Ev::BodyBegin { tid: 0, cpu: 0 });
        m.write(CpuId(0), r.base + 8);
        ev(&mut m, Ev::BodyEnd);
        ev(&mut m, Ev::BodyBegin { tid: 1, cpu: 4 });
        m.write(CpuId(4), r.base + 8);
        ev(&mut m, Ev::BodyEnd);
        ev(&mut m, Ev::RegionEnd);
        let report = m.race_report();
        assert_eq!(report.total_races, 1, "{report}");
        assert!(report.races[0].to_string().contains("planted[1]"));
    }

    #[test]
    fn trace_counts_reconcile_with_memstats() {
        let mut m = m2().with_tracing();
        mixed_workload(&mut m);
        let counts = m.tracer().unwrap().counts();
        assert_eq!(counts[0], m.stats.local_misses, "miss-local");
        assert_eq!(counts[1], m.stats.gcb_hits, "miss-gcb");
        assert_eq!(counts[2], m.stats.sci_fetches, "miss-sci");
        assert_eq!(counts[3], m.stats.c2c_transfers, "miss-c2c");
        assert_eq!(counts[4], m.stats.upgrades, "upgrade");
        assert_eq!(counts[6], m.stats.gcb_rollouts, "gcb-rollout");
    }

    #[test]
    fn trace_stream_is_deterministic() {
        let run = || {
            let mut m = m2().with_tracing();
            mixed_workload(&mut m);
            crate::trace::perfetto_json(&m.trace_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn perfetto_export_is_byte_stable_per_protocol() {
        for proto in [
            ProtocolKind::DashSci,
            ProtocolKind::Mesi,
            ProtocolKind::Dragon,
        ] {
            let run = || {
                let mut m = m2().with_protocol(proto).with_tracing();
                mixed_workload(&mut m);
                let evs = m.trace_events();
                (
                    crate::trace::perfetto_json(&evs),
                    crate::trace::perfetto_json_with_counters(&evs),
                )
            };
            let (a1, a2) = run();
            let (b1, b2) = run();
            assert_eq!(a1, b1, "{proto:?} perfetto_json not byte-stable");
            assert_eq!(a2, b2, "{proto:?} counter export not byte-stable");
            assert!(!a1.is_empty() && !a2.is_empty());
        }
    }

    #[test]
    fn reset_all_stats_keeps_breakdown_in_sync() {
        let mut m = m2();
        mixed_workload(&mut m);
        m.reset_all_stats();
        assert_eq!(m.stats, MemStats::default());
        for s in m.per_cpu_stats() {
            assert_eq!(*s, MemStats::default());
        }
        // Bracketing with since() across the reset is safe (saturating).
        let before = m.stats;
        mixed_workload(&mut m);
        let delta = m.stats.since(&before);
        assert_eq!(delta, m.stats);
    }

    /// A sharing-heavy cross-node stream: several CPUs from both
    /// hypernodes read and write the same lines, so every transient
    /// kind finds holders, directory entries and filter lists to
    /// corrupt.
    fn shared_traffic(m: &mut Machine) -> Cycles {
        let r = m.alloc(MemClass::FarShared, 64 * 4096);
        let mut total = 0;
        for p in 0..48u64 {
            let a = r.addr(p * 4096);
            total += m.read(CpuId(0), a);
            total += m.read(CpuId(3), a);
            total += m.read(CpuId(9), a);
            total += m.write(CpuId((p % 16) as u16), a);
            total += m.read(CpuId(5), a);
        }
        total
    }

    /// A transient fault kind: scenario label, prob builder, and the
    /// protocols it applies to.
    type TransientKind = (
        &'static str,
        fn(FaultPlan, f64) -> FaultPlan,
        &'static [ProtocolKind],
    );

    /// Every transient fault kind.
    fn transient_kinds() -> [TransientKind; 6] {
        use crate::protocol::ProtocolKind::*;
        const ALL3: &[ProtocolKind] = &[DashSci, Mesi, Dragon];
        [
            ("inval-drop", |p, x| p.with_inval_drops(x), ALL3),
            ("inval-dup", |p, x| p.with_inval_dups(x), ALL3),
            ("inval-delay", |p, x| p.with_inval_delays(x), ALL3),
            ("update-loss", |p, x| p.with_update_loss(x), &[Dragon]),
            ("ack-stale", |p, x| p.with_ack_stale(x), &[DashSci]),
            ("line-corrupt", |p, x| p.with_line_corruption(x), ALL3),
        ]
    }

    #[test]
    fn recovered_runs_are_bit_identical_to_fault_free() {
        for proto in ProtocolKind::ALL {
            let baseline = {
                let mut m = Machine::spp1000(2).with_protocol(proto);
                let t = shared_traffic(&mut m);
                (t, m.clock(), m.coherence_digest(), m.stats)
            };
            for (label, build, applies) in transient_kinds() {
                let plan = build(FaultPlan::new(41), 0.2);
                let mut m = Machine::spp1000(2).with_protocol(proto).with_faults(plan);
                let t = shared_traffic(&mut m);
                assert_eq!(t, baseline.0, "{proto:?}/{label}: cycles diverged");
                assert_eq!(m.clock(), baseline.1, "{proto:?}/{label}: clock diverged");
                assert_eq!(
                    m.coherence_digest(),
                    baseline.2,
                    "{proto:?}/{label}: final coherence state diverged"
                );
                assert!(
                    m.stats.eq_modulo_recovery(&baseline.3),
                    "{proto:?}/{label}: stats diverged beyond recovery counters"
                );
                assert!(m.check_all().is_empty(), "{proto:?}/{label}: audit failed");
                if applies.contains(&proto) {
                    assert!(
                        m.stats.recoveries > 0,
                        "{proto:?}/{label}: no transient ever landed"
                    );
                    assert!(m.stats.recovery_retries >= m.stats.recoveries);
                } else {
                    assert_eq!(
                        m.stats.recoveries, 0,
                        "{proto:?}/{label}: kind fired on a protocol it cannot affect"
                    );
                }
            }
        }
    }

    #[test]
    fn exhausted_scrubs_escalate_to_a_typed_error() {
        for proto in ProtocolKind::ALL {
            let plan = FaultPlan::new(9)
                .with_inval_dups(1.0)
                .with_transient_persistence(1.0);
            let mut m = Machine::spp1000(2).with_protocol(proto).with_faults(plan);
            let r = m.alloc(MemClass::FarShared, 1 << 14);
            // The first access fills the issuer's cache and the
            // injected duplicate invalidation immediately tears it
            // down; with full persistence every scrub fails.
            let err = m.try_read(CpuId(0), r.addr(0));
            let Err(SimError::RecoveryExhausted { cpu, attempts, .. }) = err else {
                panic!("{proto:?}: expected RecoveryExhausted, got {err:?}");
            };
            assert_eq!(cpu, 0);
            assert_eq!(attempts, 8, "doubling backoff budget buys 8 attempts");
            // Escalation restored the footprint first: the machine is
            // clean and usable (e.g. for checkpoint rollback).
            assert!(m.check_all().is_empty(), "{proto:?}: dirty state escaped");
            assert_eq!(m.stats.recoveries, 0);
            assert_eq!(m.stats.recovery_retries, 8);
        }
    }

    #[test]
    #[should_panic(expected = "scrub attempts")]
    fn plain_read_panics_when_recovery_is_exhausted() {
        let plan = FaultPlan::new(9)
            .with_inval_dups(1.0)
            .with_transient_persistence(1.0);
        let mut m = Machine::spp1000(2).with_faults(plan);
        let r = m.alloc(MemClass::FarShared, 4096);
        m.read(CpuId(0), r.addr(0));
    }

    #[test]
    fn batched_runs_fall_back_under_transient_injection() {
        let run = |batched: bool| {
            let plan = FaultPlan::new(21)
                .with_inval_drops(0.1)
                .with_inval_delays(0.1)
                .with_line_corruption(0.1);
            let mut m = Machine::spp1000(2).with_faults(plan);
            let t = run_workload(&mut m, batched);
            (t, m.stats, m.fault_plan().unwrap().draws())
        };
        assert_eq!(
            run(false),
            run(true),
            "transient draws must advance per element"
        );
    }

    #[test]
    fn recovery_trace_events_reconcile_with_memstats() {
        let plan = FaultPlan::new(33)
            .with_inval_dups(0.3)
            .with_inval_delays(0.2);
        let mut m = Machine::spp1000(2).with_faults(plan).with_tracing();
        shared_traffic(&mut m);
        assert!(m.stats.recoveries > 0, "no transient landed");
        let counts = m.tracer().unwrap().counts();
        // One transient-fault event per detected injection; one
        // recovery event per successful scrub (no escalations here).
        assert_eq!(counts[17], m.stats.recoveries, "transient-fault");
        assert_eq!(counts[18], m.stats.recoveries, "recovery");
    }

    #[test]
    fn try_read_and_try_write_match_the_panicking_twins_when_clean() {
        let mut a = Machine::spp1000(2);
        let mut b = Machine::spp1000(2);
        let ra = a.alloc(MemClass::FarShared, 8192);
        let rb = b.alloc(MemClass::FarShared, 8192);
        for i in 0..16u64 {
            let x = a.read(CpuId(1), ra.addr(i * 512));
            let y = b.try_read(CpuId(1), rb.addr(i * 512)).unwrap();
            assert_eq!(x, y);
            let x = a.write(CpuId(2), ra.addr(i * 512));
            let y = b.try_write(CpuId(2), rb.addr(i * 512)).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.coherence_digest(), b.coherence_digest());
    }
}
