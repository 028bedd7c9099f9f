//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded pseudo-random schedule of transient
//! faults that the layers above consult at well-defined *sites*:
//!
//! * **SCI ring stalls** — an access whose service crossed the ring
//!   pays an extra fixed stall (retried link-level transaction);
//!   charged by [`crate::Machine`] and counted in
//!   [`crate::MemStats::ring_stalls`].
//! * **Dropped / duplicated PVM messages** — consulted by the PVM
//!   layer's send path, which retries dropped sends on a priced
//!   timeout and discards duplicate deliveries by sequence number.
//! * **Failed thread spawns** — consulted by the runtime's fork paths,
//!   which retry with exponential backoff.
//! * **Transient coherence faults** — dropped, duplicated, or delayed
//!   invalidations, lost Dragon update broadcasts, stale directory
//!   acks, and single-line state corruption, injected through the
//!   protocol seam after each access. [`crate::Machine`] detects the
//!   resulting invariant violations with the coherence checker's
//!   per-protocol invariant sets and repairs them with a bounded
//!   scrub-and-retry loop (see `DESIGN.md` §4i); whether a corruption
//!   *persists* across a scrub attempt is its own decision stream.
//!
//! Each site draws from its own counter-indexed stream: whether the
//! *n*-th event at a site faults is a pure function of `(seed, site,
//! n)`. Streams are therefore independent of how events at different
//! sites interleave, so a fixed seed reproduces the exact same fault
//! schedule — and bit-identical simulation results — on every run
//! (`spp repro faults` demonstrates this for PIC and N-body). The plan
//! never consults wall-clock time or OS randomness.
//!
//! Beyond the transient sites, a plan may schedule **hard failures**
//! ([`HardFault`]): persistent, cycle-triggered losses of a CPU, an
//! SCI ring segment, or half a node's global cache buffer capacity.
//! These change the latency hierarchy itself rather than perturbing
//! individual events; [`crate::Machine`] applies them when its
//! cumulative access clock reaches each fault's trigger cycle, and the
//! coherence checker validates the degraded invariants afterwards.

use crate::error::SimError;
use crate::latency::{us_to_cycles, Cycles};

/// One scheduled persistent failure. Unlike the transient sites, a
/// hard fault fires exactly once — when [`crate::Machine`]'s
/// cumulative access clock first reaches `at_cycle` — and stays in
/// effect for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HardFault {
    /// CPU `cpu` goes dead: its cache is purged (dirty lines written
    /// back), it can never cache a line again, and its accesses are
    /// serviced memory-to-memory at degraded cost.
    CpuFail {
        /// Global CPU id that fails.
        cpu: u16,
        /// Machine clock (cumulative access cycles) at which it dies.
        at_cycle: Cycles,
    },
    /// An SCI ring segment goes down: every subsequent coherence
    /// transaction homed on ring `ring` pays `reroute_cycles` extra
    /// (the rerouted-path penalty), counted in
    /// [`crate::MemStats::link_reroutes`].
    LinkFail {
        /// The SCI ring (0..fus_per_node) that loses a segment.
        ring: u8,
        /// Machine clock at which the segment fails.
        at_cycle: Cycles,
        /// Extra cycles per rerouted ring transaction.
        reroute_cycles: Cycles,
    },
    /// Node `node`'s global cache buffers drop to half capacity
    /// (a bank failure): resident remote lines that no longer fit are
    /// rolled out through the normal protocol.
    GcbDegrade {
        /// The hypernode whose GCBs degrade.
        node: u8,
        /// Machine clock at which the capacity halves.
        at_cycle: Cycles,
    },
}

impl HardFault {
    /// The machine clock at which this fault fires.
    pub fn at_cycle(&self) -> Cycles {
        match self {
            HardFault::CpuFail { at_cycle, .. }
            | HardFault::LinkFail { at_cycle, .. }
            | HardFault::GcbDegrade { at_cycle, .. } => *at_cycle,
        }
    }

    /// Short stable label for reports (`"cpu-fail"`, `"link-fail"`,
    /// `"gcb-degrade"`).
    pub fn label(&self) -> &'static str {
        match self {
            HardFault::CpuFail { .. } => "cpu-fail",
            HardFault::LinkFail { .. } => "link-fail",
            HardFault::GcbDegrade { .. } => "gcb-degrade",
        }
    }
}

/// One composable fault-plan ingredient: a transient fault class or a
/// scheduled hard failure. An event list plus a seed fully determines
/// a [`FaultPlan`] (see [`FaultPlan::from_events`]) — the shared
/// vocabulary of the chaos campaign, the fault-reproducibility sweep,
/// and the declarative scenario specs, and the unit their shrinkers
/// and spec parsers all operate on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Transient SCI ring stalls at `prob`, `stall` cycles each.
    RingStalls {
        /// Per-crossing stall probability.
        prob: f64,
        /// Extra cycles per stalled transaction.
        stall: Cycles,
    },
    /// Transient PVM message faults (drops retried, dups discarded).
    MsgFaults {
        /// Per-send drop probability.
        drop: f64,
        /// Per-delivery duplication probability.
        dup: f64,
    },
    /// Transient thread-spawn failures (retried with backoff).
    SpawnFail {
        /// Per-attempt failure probability.
        prob: f64,
    },
    /// Hard failure: CPU `cpu` dies at machine clock `at_cycle`.
    CpuFail {
        /// Global CPU id.
        cpu: u16,
        /// Trigger clock in cumulative access cycles.
        at_cycle: Cycles,
    },
    /// Hard failure: SCI ring `ring` loses a segment at `at_cycle`.
    LinkFail {
        /// The ring (0..fus_per_node).
        ring: u8,
        /// Trigger clock.
        at_cycle: Cycles,
        /// Extra cycles per rerouted transaction.
        reroute_cycles: Cycles,
    },
    /// Hard failure: node `node`'s GCBs halve in capacity at
    /// `at_cycle`.
    GcbDegrade {
        /// The hypernode.
        node: u8,
        /// Trigger clock.
        at_cycle: Cycles,
    },
    /// Transient coherence fault: an invalidation is dropped in
    /// flight, leaving a stale valid copy behind (detected and
    /// scrubbed by the machine's recovery path).
    InvalDrop {
        /// Per-access injection probability.
        prob: f64,
    },
    /// Transient coherence fault: an invalidation is duplicated, the
    /// twin tearing down a copy the metadata still records.
    InvalDup {
        /// Per-access injection probability.
        prob: f64,
    },
    /// Transient coherence fault: an invalidation is delayed past the
    /// access, a stale buffered copy surviving alongside the writer.
    InvalDelay {
        /// Per-access injection probability.
        prob: f64,
    },
    /// Transient coherence fault: a Dragon write-update broadcast is
    /// lost, a sharer's copy vanishing while the holder filter still
    /// lists it (Dragon backend only).
    UpdateLoss {
        /// Per-access injection probability.
        prob: f64,
    },
    /// Transient coherence fault: a directory ack arrives stale,
    /// recording a sharer that no longer holds the line (DASH+SCI
    /// backend only).
    AckStale {
        /// Per-access injection probability.
        prob: f64,
    },
    /// Transient coherence fault: a single line's cache state is
    /// corrupted (bit-flip class — e.g. a Shared copy reads back
    /// Modified).
    LineCorrupt {
        /// Per-access injection probability.
        prob: f64,
    },
    /// How likely an injected transient is to *persist* across one
    /// scrub attempt (0 = every fault heals on the first retry; near
    /// 1 escalates to checkpoint rollback).
    TransientPersist {
        /// Per-scrub persistence probability.
        prob: f64,
    },
}

impl FaultEvent {
    /// True for the scheduled hard failures (CPU, link, GCB), which
    /// count against [`FaultPlan::MAX_HARD_FAULTS`].
    pub fn is_hard(&self) -> bool {
        matches!(
            self,
            FaultEvent::CpuFail { .. }
                | FaultEvent::LinkFail { .. }
                | FaultEvent::GcbDegrade { .. }
        )
    }

    /// Short stable label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEvent::RingStalls { .. } => "ring-stalls",
            FaultEvent::MsgFaults { .. } => "msg-faults",
            FaultEvent::SpawnFail { .. } => "spawn-fail",
            FaultEvent::CpuFail { .. } => "cpu-fail",
            FaultEvent::LinkFail { .. } => "link-fail",
            FaultEvent::GcbDegrade { .. } => "gcb-degrade",
            FaultEvent::InvalDrop { .. } => "inval-drop",
            FaultEvent::InvalDup { .. } => "inval-dup",
            FaultEvent::InvalDelay { .. } => "inval-delay",
            FaultEvent::UpdateLoss { .. } => "update-loss",
            FaultEvent::AckStale { .. } => "ack-stale",
            FaultEvent::LineCorrupt { .. } => "line-corrupt",
            FaultEvent::TransientPersist { .. } => "transient-persist",
        }
    }

    /// Full description with parameters (JSON-safe: no quotes or
    /// backslashes).
    pub fn desc(&self) -> String {
        match self {
            FaultEvent::RingStalls { prob, stall } => format!("ring-stalls(p={prob}, {stall}cy)"),
            FaultEvent::MsgFaults { drop, dup } => format!("msg-faults(drop={drop}, dup={dup})"),
            FaultEvent::SpawnFail { prob } => format!("spawn-fail(p={prob})"),
            FaultEvent::CpuFail { cpu, at_cycle } => format!("cpu-fail(cpu={cpu}@{at_cycle})"),
            FaultEvent::LinkFail {
                ring,
                at_cycle,
                reroute_cycles,
            } => format!("link-fail(ring={ring}@{at_cycle}, +{reroute_cycles}cy)"),
            FaultEvent::GcbDegrade { node, at_cycle } => {
                format!("gcb-degrade(node={node}@{at_cycle})")
            }
            FaultEvent::InvalDrop { prob } => format!("inval-drop(p={prob})"),
            FaultEvent::InvalDup { prob } => format!("inval-dup(p={prob})"),
            FaultEvent::InvalDelay { prob } => format!("inval-delay(p={prob})"),
            FaultEvent::UpdateLoss { prob } => format!("update-loss(p={prob})"),
            FaultEvent::AckStale { prob } => format!("ack-stale(p={prob})"),
            FaultEvent::LineCorrupt { prob } => format!("line-corrupt(p={prob})"),
            FaultEvent::TransientPersist { prob } => format!("transient-persist(p={prob})"),
        }
    }

    /// Fold this event into a fault plan.
    pub fn apply(&self, plan: FaultPlan) -> FaultPlan {
        match *self {
            FaultEvent::RingStalls { prob, stall } => plan.with_ring_stalls(prob, stall),
            FaultEvent::MsgFaults { drop, dup } => plan.with_message_faults(drop, dup),
            FaultEvent::SpawnFail { prob } => plan.with_spawn_failures(prob),
            FaultEvent::CpuFail { cpu, at_cycle } => plan.with_cpu_failure(cpu, at_cycle),
            FaultEvent::LinkFail {
                ring,
                at_cycle,
                reroute_cycles,
            } => plan.with_link_failure(ring, at_cycle, reroute_cycles),
            FaultEvent::GcbDegrade { node, at_cycle } => plan.with_gcb_degrade(node, at_cycle),
            FaultEvent::InvalDrop { prob } => plan.with_inval_drops(prob),
            FaultEvent::InvalDup { prob } => plan.with_inval_dups(prob),
            FaultEvent::InvalDelay { prob } => plan.with_inval_delays(prob),
            FaultEvent::UpdateLoss { prob } => plan.with_update_loss(prob),
            FaultEvent::AckStale { prob } => plan.with_ack_stale(prob),
            FaultEvent::LineCorrupt { prob } => plan.with_line_corruption(prob),
            FaultEvent::TransientPersist { prob } => plan.with_transient_persistence(prob),
        }
    }
}

/// Number of independent fault-decision streams (sites). Grows only
/// by appending: existing sites keep their indices and salts forever,
/// so adding a stream can never perturb another site's n-th decision.
pub const N_FAULT_SITES: usize = 11;

/// Fault-site indices into the per-site counters.
const SITE_RING: usize = 0;
const SITE_DROP: usize = 1;
const SITE_DUP: usize = 2;
const SITE_SPAWN: usize = 3;
const SITE_TDROP: usize = 4;
const SITE_TDUP: usize = 5;
const SITE_TDELAY: usize = 6;
const SITE_TUPD: usize = 7;
const SITE_TACK: usize = 8;
const SITE_TCORR: usize = 9;
const SITE_TPERSIST: usize = 10;

/// Per-site salts keep the decision streams independent even for
/// equal counters.
const SALTS: [u64; N_FAULT_SITES] = [
    0x5249_4E47_u64, // "RING"
    0x4452_4F50_u64, // "DROP"
    0x4455_505F_u64, // "DUP_"
    0x5350_574E_u64, // "SPWN"
    0x5444_5250_u64, // "TDRP"
    0x5444_5550_u64, // "TDUP"
    0x5444_4C59_u64, // "TDLY"
    0x5455_5044_u64, // "TUPD"
    0x5441_434B_u64, // "TACK"
    0x5443_4F52_u64, // "TCOR"
    0x5450_4552_u64, // "TPER"
];

/// A seeded, deterministic schedule of transient faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that a ring-crossing access stalls.
    pub ring_stall_prob: f64,
    /// Extra cycles a stalled ring transaction pays.
    pub ring_stall_cycles: Cycles,
    /// Probability that a PVM send is dropped (sender retries on a
    /// priced timeout).
    pub msg_drop_prob: f64,
    /// Probability that a delivered PVM message is duplicated (the
    /// receiver discards the twin by sequence number).
    pub msg_dup_prob: f64,
    /// Probability that a thread spawn fails (runtime retries with
    /// backoff).
    pub spawn_fail_prob: f64,
    /// Probability that an access's invalidation is dropped in flight.
    pub inval_drop_prob: f64,
    /// Probability that an access's invalidation is duplicated.
    pub inval_dup_prob: f64,
    /// Probability that an access's invalidation is delayed past it.
    pub inval_delay_prob: f64,
    /// Probability that a Dragon update broadcast is lost.
    pub update_loss_prob: f64,
    /// Probability that a directory ack arrives stale.
    pub ack_stale_prob: f64,
    /// Probability that an access corrupts a single line's state.
    pub line_corrupt_prob: f64,
    /// Probability that an injected transient survives one scrub
    /// attempt (drives the detect-and-retry loop toward rollback).
    pub transient_persist_prob: f64,
    counters: [u64; N_FAULT_SITES],
    /// Scheduled persistent failures, applied by the machine when its
    /// access clock reaches each trigger cycle.
    hard_faults: Vec<HardFault>,
}

impl FaultPlan {
    /// The most hard faults one plan may schedule: the machine tracks
    /// which have fired in a 64-bit mask. The hard-fault builders
    /// panic past it; [`FaultPlan::try_with_hard_fault`] and
    /// [`FaultPlan::try_from_events`] return
    /// [`SimError::TooManyHardFaults`] instead.
    pub const MAX_HARD_FAULTS: usize = 64;

    /// A plan with the given seed and no faults enabled. Chain the
    /// `with_*` builders to switch fault classes on.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ring_stall_prob: 0.0,
            ring_stall_cycles: us_to_cycles(5.0),
            msg_drop_prob: 0.0,
            msg_dup_prob: 0.0,
            spawn_fail_prob: 0.0,
            inval_drop_prob: 0.0,
            inval_dup_prob: 0.0,
            inval_delay_prob: 0.0,
            update_loss_prob: 0.0,
            ack_stale_prob: 0.0,
            line_corrupt_prob: 0.0,
            transient_persist_prob: 0.0,
            counters: [0; N_FAULT_SITES],
            hard_faults: Vec::new(),
        }
    }

    /// Assemble a seeded plan from an event list — the one shared
    /// constructor behind the chaos campaign, the fault sweep, and the
    /// scenario specs (equivalent to folding [`FaultEvent::apply`]
    /// over `events` starting from [`FaultPlan::new`]).
    ///
    /// Panics on more than [`FaultPlan::MAX_HARD_FAULTS`] hard-fault
    /// events; [`FaultPlan::try_from_events`] is the typed-error twin.
    pub fn from_events(seed: u64, events: &[FaultEvent]) -> Self {
        Self::try_from_events(seed, events).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`FaultPlan::from_events`]: rejects an event
    /// list with more than [`FaultPlan::MAX_HARD_FAULTS`] hard faults.
    pub fn try_from_events(seed: u64, events: &[FaultEvent]) -> Result<Self, SimError> {
        let hard = events.iter().filter(|e| e.is_hard()).count();
        Self::check_hard_count(hard)?;
        Ok(events.iter().fold(Self::new(seed), |p, e| e.apply(p)))
    }

    /// `Ok` when a plan may hold `n` hard faults.
    pub fn check_hard_count(n: usize) -> Result<(), SimError> {
        if n > Self::MAX_HARD_FAULTS {
            return Err(SimError::TooManyHardFaults {
                got: n,
                max: Self::MAX_HARD_FAULTS,
            });
        }
        Ok(())
    }

    /// A plan exercising every fault class at modest rates — the
    /// default schedule `spp repro faults` and the robustness tests use.
    pub fn standard(seed: u64) -> Self {
        Self::new(seed)
            .with_ring_stalls(0.02, us_to_cycles(5.0))
            .with_message_faults(0.05, 0.02)
            .with_spawn_failures(0.05)
    }

    /// Enable SCI ring stalls: each ring-crossing access stalls with
    /// probability `prob`, paying `stall` extra cycles.
    pub fn with_ring_stalls(mut self, prob: f64, stall: Cycles) -> Self {
        self.ring_stall_prob = prob;
        self.ring_stall_cycles = stall;
        self
    }

    /// Enable message faults: drop each send with probability `drop`,
    /// duplicate each delivery with probability `dup`.
    pub fn with_message_faults(mut self, drop: f64, dup: f64) -> Self {
        self.msg_drop_prob = drop;
        self.msg_dup_prob = dup;
        self
    }

    /// Enable spawn failures with probability `prob` per spawn attempt.
    pub fn with_spawn_failures(mut self, prob: f64) -> Self {
        self.spawn_fail_prob = prob;
        self
    }

    /// Enable dropped-invalidation transients at `prob` per access.
    pub fn with_inval_drops(mut self, prob: f64) -> Self {
        self.inval_drop_prob = prob;
        self
    }

    /// Enable duplicated-invalidation transients at `prob` per access.
    pub fn with_inval_dups(mut self, prob: f64) -> Self {
        self.inval_dup_prob = prob;
        self
    }

    /// Enable delayed-invalidation transients at `prob` per access.
    pub fn with_inval_delays(mut self, prob: f64) -> Self {
        self.inval_delay_prob = prob;
        self
    }

    /// Enable lost Dragon update broadcasts at `prob` per access.
    pub fn with_update_loss(mut self, prob: f64) -> Self {
        self.update_loss_prob = prob;
        self
    }

    /// Enable stale directory acks at `prob` per access.
    pub fn with_ack_stale(mut self, prob: f64) -> Self {
        self.ack_stale_prob = prob;
        self
    }

    /// Enable single-line state corruption at `prob` per access.
    pub fn with_line_corruption(mut self, prob: f64) -> Self {
        self.line_corrupt_prob = prob;
        self
    }

    /// Set the probability that an injected transient persists across
    /// one scrub attempt (default 0: the first retry always heals).
    pub fn with_transient_persistence(mut self, prob: f64) -> Self {
        self.transient_persist_prob = prob;
        self
    }

    /// Schedule CPU `cpu` to die once the machine clock reaches
    /// `at_cycle`. Like every hard-fault builder, panics past
    /// [`FaultPlan::MAX_HARD_FAULTS`].
    pub fn with_cpu_failure(self, cpu: u16, at_cycle: Cycles) -> Self {
        self.with_hard_fault(HardFault::CpuFail { cpu, at_cycle })
    }

    /// Schedule SCI ring `ring` to lose a segment at `at_cycle`;
    /// rerouted traffic pays `reroute_cycles` extra per transaction.
    pub fn with_link_failure(self, ring: u8, at_cycle: Cycles, reroute_cycles: Cycles) -> Self {
        self.with_hard_fault(HardFault::LinkFail {
            ring,
            at_cycle,
            reroute_cycles,
        })
    }

    /// Schedule node `node`'s global cache buffers to halve in
    /// capacity at `at_cycle`.
    pub fn with_gcb_degrade(self, node: u8, at_cycle: Cycles) -> Self {
        self.with_hard_fault(HardFault::GcbDegrade { node, at_cycle })
    }

    /// Append an already-built hard fault (used by the chaos harness
    /// to assemble plans from event lists). Panics past
    /// [`FaultPlan::MAX_HARD_FAULTS`]; see
    /// [`FaultPlan::try_with_hard_fault`].
    pub fn with_hard_fault(self, fault: HardFault) -> Self {
        self.try_with_hard_fault(fault)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`FaultPlan::with_hard_fault`]: returns
    /// [`SimError::TooManyHardFaults`] instead of growing the schedule
    /// past [`FaultPlan::MAX_HARD_FAULTS`].
    pub fn try_with_hard_fault(mut self, fault: HardFault) -> Result<Self, SimError> {
        Self::check_hard_count(self.hard_faults.len() + 1)?;
        self.hard_faults.push(fault);
        Ok(self)
    }

    /// The scheduled persistent failures, in insertion order.
    pub fn hard_faults(&self) -> &[HardFault] {
        &self.hard_faults
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.ring_stall_prob > 0.0
            || self.msg_drop_prob > 0.0
            || self.msg_dup_prob > 0.0
            || self.spawn_fail_prob > 0.0
            || self.transients_active()
            || !self.hard_faults.is_empty()
    }

    /// True if any transient *coherence* fault class is enabled (the
    /// machine's protocol seam only pays for injection when so).
    pub fn transients_active(&self) -> bool {
        self.inval_drop_prob > 0.0
            || self.inval_dup_prob > 0.0
            || self.inval_delay_prob > 0.0
            || self.update_loss_prob > 0.0
            || self.ack_stale_prob > 0.0
            || self.line_corrupt_prob > 0.0
    }

    /// Events drawn so far at each site — diagnostics for determinism
    /// tests and the checkpoint-rollback replay path. Sites 0..4 are
    /// the historical streams (ring, drop, dup, spawn); 4..10 the
    /// transient-coherence streams (inval drop/dup/delay, update loss,
    /// stale ack, line corruption); 10 the scrub-persistence stream.
    pub fn draws(&self) -> [u64; N_FAULT_SITES] {
        self.counters
    }

    /// Advance each site's draw counter to at least the given value —
    /// never backwards. Rollback-and-replay uses this after restoring
    /// a checkpoint: replayed accesses then draw *later* decisions, so
    /// the transient that forced the rollback cannot re-fire
    /// identically forever.
    pub fn advance_draws(&mut self, floor: [u64; N_FAULT_SITES]) {
        for (c, f) in self.counters.iter_mut().zip(floor) {
            *c = (*c).max(f);
        }
    }

    /// Restore the per-site draw counters (checkpoint/restart support:
    /// a resumed plan continues its decision streams where the
    /// snapshot left off).
    pub(crate) fn restore_counters(&mut self, counters: [u64; N_FAULT_SITES]) {
        self.counters = counters;
    }

    /// splitmix64-style finalizer over (seed, site salt, event index):
    /// a uniform `[0, 1)` value that is a pure function of its inputs.
    fn unit(&self, site: usize, n: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(SALTS[site].wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn decide(&mut self, site: usize, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let n = self.counters[site];
        self.counters[site] += 1;
        self.unit(site, n) < prob
    }

    /// Does the next ring-crossing access stall? Returns the stall
    /// cycles if so.
    pub fn ring_stall(&mut self) -> Option<Cycles> {
        self.decide(SITE_RING, self.ring_stall_prob)
            .then_some(self.ring_stall_cycles)
    }

    /// Is the next message send dropped?
    pub fn drops_message(&mut self) -> bool {
        self.decide(SITE_DROP, self.msg_drop_prob)
    }

    /// Is the next delivered message duplicated?
    pub fn duplicates_message(&mut self) -> bool {
        self.decide(SITE_DUP, self.msg_dup_prob)
    }

    /// Does the next thread spawn attempt fail?
    pub fn spawn_fails(&mut self) -> bool {
        self.decide(SITE_SPAWN, self.spawn_fail_prob)
    }

    /// Is the next access's invalidation dropped in flight?
    pub fn inval_dropped(&mut self) -> bool {
        self.decide(SITE_TDROP, self.inval_drop_prob)
    }

    /// Is the next access's invalidation duplicated?
    pub fn inval_duplicated(&mut self) -> bool {
        self.decide(SITE_TDUP, self.inval_dup_prob)
    }

    /// Is the next access's invalidation delayed past it?
    pub fn inval_delayed(&mut self) -> bool {
        self.decide(SITE_TDELAY, self.inval_delay_prob)
    }

    /// Is the next Dragon update broadcast lost?
    pub fn update_lost(&mut self) -> bool {
        self.decide(SITE_TUPD, self.update_loss_prob)
    }

    /// Does the next directory ack arrive stale?
    pub fn ack_stales(&mut self) -> bool {
        self.decide(SITE_TACK, self.ack_stale_prob)
    }

    /// Does the next access corrupt a line's state?
    pub fn line_corrupts(&mut self) -> bool {
        self.decide(SITE_TCORR, self.line_corrupt_prob)
    }

    /// Does an injected transient persist across this scrub attempt?
    pub fn transient_persists(&mut self) -> bool {
        self.decide(SITE_TPERSIST, self.transient_persist_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_decision_streams() {
        let stream = |seed| {
            let mut p = FaultPlan::standard(seed);
            (0..200)
                .map(|_| {
                    (
                        p.ring_stall().is_some(),
                        p.drops_message(),
                        p.duplicates_message(),
                        p.spawn_fails(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43), "different seeds should differ");
    }

    #[test]
    fn sites_are_interleaving_independent() {
        // Drawing message decisions between ring decisions must not
        // perturb the ring stream.
        let mut a = FaultPlan::standard(7);
        let mut b = FaultPlan::standard(7);
        let ring_a: Vec<bool> = (0..50).map(|_| a.ring_stall().is_some()).collect();
        let ring_b: Vec<bool> = (0..50)
            .map(|_| {
                b.drops_message();
                b.duplicates_message();
                b.ring_stall().is_some()
            })
            .collect();
        assert_eq!(ring_a, ring_b);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = FaultPlan::new(1).with_message_faults(0.25, 0.0);
        let drops = (0..4000).filter(|_| p.drops_message()).count();
        assert!((800..=1200).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn from_events_matches_the_builder_chain() {
        let events = [
            FaultEvent::RingStalls {
                prob: 0.02,
                stall: 500,
            },
            FaultEvent::MsgFaults {
                drop: 0.05,
                dup: 0.02,
            },
            FaultEvent::SpawnFail { prob: 0.05 },
            FaultEvent::CpuFail {
                cpu: 2,
                at_cycle: 400_000,
            },
            FaultEvent::LinkFail {
                ring: 1,
                at_cycle: 200_000,
                reroute_cycles: 600,
            },
            FaultEvent::GcbDegrade {
                node: 1,
                at_cycle: 300_000,
            },
        ];
        let from_events = FaultPlan::from_events(42, &events);
        let chained = FaultPlan::new(42)
            .with_ring_stalls(0.02, 500)
            .with_message_faults(0.05, 0.02)
            .with_spawn_failures(0.05)
            .with_cpu_failure(2, 400_000)
            .with_link_failure(1, 200_000, 600)
            .with_gcb_degrade(1, 300_000);
        assert_eq!(from_events, chained);
        assert_eq!(from_events.hard_faults().len(), 3);
    }

    #[test]
    fn more_than_64_hard_faults_are_a_typed_error() {
        let cpu_fail = |i: u64| FaultEvent::CpuFail {
            cpu: 1,
            at_cycle: i,
        };
        let events: Vec<FaultEvent> = (0..64).map(cpu_fail).collect();
        let full = FaultPlan::try_from_events(1, &events).expect("64 hard faults fit");
        assert_eq!(full.hard_faults().len(), FaultPlan::MAX_HARD_FAULTS);
        let over = SimError::TooManyHardFaults { got: 65, max: 64 };
        assert_eq!(
            full.clone()
                .try_with_hard_fault(HardFault::CpuFail {
                    cpu: 1,
                    at_cycle: 64
                })
                .unwrap_err(),
            over
        );
        let events: Vec<FaultEvent> = (0..65).map(cpu_fail).collect();
        assert_eq!(FaultPlan::try_from_events(1, &events).unwrap_err(), over);
        // Transient events do not count against the limit.
        let mut mixed = events[..64].to_vec();
        mixed.push(FaultEvent::SpawnFail { prob: 0.1 });
        assert!(FaultPlan::try_from_events(1, &mixed).is_ok());
        let panic = std::panic::catch_unwind(|| full.with_gcb_degrade(0, 1)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("at most 64 hard faults, got 65"), "{msg}");
    }

    #[test]
    fn event_labels_and_descriptions_are_stable() {
        let e = FaultEvent::CpuFail {
            cpu: 3,
            at_cycle: 1_000,
        };
        assert_eq!(e.label(), "cpu-fail");
        assert_eq!(e.desc(), "cpu-fail(cpu=3@1000)");
        let e = FaultEvent::RingStalls {
            prob: 0.5,
            stall: 10,
        };
        assert_eq!(e.desc(), "ring-stalls(p=0.5, 10cy)");
    }

    #[test]
    fn disabled_sites_never_fire_and_draw_nothing() {
        let mut p = FaultPlan::new(9);
        assert!(!p.is_active());
        for _ in 0..100 {
            assert!(p.ring_stall().is_none());
            assert!(!p.drops_message());
            assert!(!p.spawn_fails());
            assert!(!p.inval_dropped());
            assert!(!p.update_lost());
            assert!(!p.line_corrupts());
            assert!(!p.transient_persists());
        }
        assert_eq!(p.draws(), [0; N_FAULT_SITES]);
    }

    #[test]
    fn transient_streams_do_not_perturb_historical_sites() {
        // A plan that additionally draws every transient stream must
        // reproduce the exact ring/drop/dup/spawn decisions of a plan
        // that never touches them: the new sites are appended, salted
        // streams — not interleaved into the old ones.
        let transients = |p: FaultPlan| {
            p.with_inval_drops(0.3)
                .with_inval_dups(0.3)
                .with_inval_delays(0.3)
                .with_update_loss(0.3)
                .with_ack_stale(0.3)
                .with_line_corruption(0.3)
                .with_transient_persistence(0.3)
        };
        let mut a = FaultPlan::standard(7);
        let mut b = transients(FaultPlan::standard(7));
        let old_a: Vec<_> = (0..80)
            .map(|_| {
                (
                    a.ring_stall().is_some(),
                    a.drops_message(),
                    a.duplicates_message(),
                    a.spawn_fails(),
                )
            })
            .collect();
        let old_b: Vec<_> = (0..80)
            .map(|_| {
                b.inval_dropped();
                b.inval_duplicated();
                b.inval_delayed();
                b.update_lost();
                b.ack_stales();
                b.line_corrupts();
                b.transient_persists();
                (
                    b.ring_stall().is_some(),
                    b.drops_message(),
                    b.duplicates_message(),
                    b.spawn_fails(),
                )
            })
            .collect();
        assert_eq!(old_a, old_b);
        assert_eq!(a.draws()[..4], b.draws()[..4]);
    }

    #[test]
    fn transient_event_labels_and_descriptions_are_stable() {
        let cases = [
            (
                FaultEvent::InvalDrop { prob: 0.1 },
                "inval-drop",
                "inval-drop(p=0.1)",
            ),
            (
                FaultEvent::InvalDup { prob: 0.1 },
                "inval-dup",
                "inval-dup(p=0.1)",
            ),
            (
                FaultEvent::InvalDelay { prob: 0.1 },
                "inval-delay",
                "inval-delay(p=0.1)",
            ),
            (
                FaultEvent::UpdateLoss { prob: 0.1 },
                "update-loss",
                "update-loss(p=0.1)",
            ),
            (
                FaultEvent::AckStale { prob: 0.1 },
                "ack-stale",
                "ack-stale(p=0.1)",
            ),
            (
                FaultEvent::LineCorrupt { prob: 0.1 },
                "line-corrupt",
                "line-corrupt(p=0.1)",
            ),
            (
                FaultEvent::TransientPersist { prob: 0.9 },
                "transient-persist",
                "transient-persist(p=0.9)",
            ),
        ];
        for (e, label, desc) in cases {
            assert_eq!(e.label(), label);
            assert_eq!(e.desc(), desc);
            let plan = FaultPlan::from_events(5, &[e]);
            assert_eq!(plan, e.apply(FaultPlan::new(5)));
        }
        let active = FaultPlan::new(1).with_ack_stale(0.2);
        assert!(active.is_active() && active.transients_active());
        let persist_only = FaultPlan::new(1).with_transient_persistence(0.9);
        assert!(!persist_only.transients_active());
    }

    #[test]
    fn advance_draws_is_a_monotone_floor() {
        let mut p = FaultPlan::new(3).with_line_corruption(1.0);
        for _ in 0..5 {
            p.line_corrupts();
        }
        let mut floor = [0; N_FAULT_SITES];
        floor[9] = 3; // behind: must not move backwards
        floor[10] = 7; // ahead: must jump forward
        p.advance_draws(floor);
        assert_eq!(p.draws()[9], 5);
        assert_eq!(p.draws()[10], 7);
    }
}
