//! Fork-join execution of simulated thread teams.
//!
//! A parallel region runs each simulated thread's body *sequentially*
//! (deterministic trace interleaving, DESIGN.md §2) while per-thread
//! clocks advance independently; the region's elapsed time is
//!
//! ```text
//! fork (serial spawns) -> max over threads(start + busy) -> join barrier
//! ```
//!
//! Spawn costs and the join barrier reproduce the paper's Figure 2;
//! the join barrier is the full protocol simulation of Figure 3.

use crate::barrier::{BarrierResult, SimBarrier};
use crate::cost::RuntimeCostModel;
use crate::noise::OsNoise;
use crate::team::{chunk_range, Placement, Team};
use spp_core::trace::{record, TraceEvent, NO_CPU, NO_NODE};
use spp_core::{
    CpuId, Cycles, Machine, MemPort, MemStats, NodeId, RaceEvent, SimArray, SimError, StallKind,
    Watchdog, WatchdogReport,
};

/// The order in which a region's thread bodies are replayed.
///
/// The simulator executes bodies *sequentially* (deterministic trace
/// interleaving, DESIGN.md §2), and a correct data-parallel program's
/// results must not depend on that order. This policy makes the order
/// pluggable so the schedule-permutation fuzzer (`spp repro race` in
/// spp-bench) can sweep it: [`SchedulePolicy::Identity`] — the default
/// — replays tids in `0..n` order and is bit-identical to the
/// historical behavior; the other variants permute the replay while
/// leaving every per-thread cost model untouched.
///
/// Caveat: under an *active fault plan*, permuting the replay order
/// legitimately changes outcomes — soft-fault draws (e.g. ring
/// stalls) come from one per-site stream shared by all CPUs, so
/// reordering accesses reassigns which of them stall. Schedule
/// fuzzing is therefore only meaningful on fault-free machines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// tid order `0..n` — the historical, calibrated order.
    #[default]
    Identity,
    /// Reverse tid order `n-1..=0`.
    Reversed,
    /// A seeded Fisher-Yates shuffle of the tid order (splitmix64).
    Shuffled {
        /// The shuffle seed; equal seeds give equal orders.
        seed: u64,
    },
    /// An explicit replay order, e.g. from a shrunk fuzzer artifact.
    /// Used verbatim when it is a permutation of `0..n`; teams of any
    /// other size fall back to identity order.
    Explicit(Vec<usize>),
}

impl SchedulePolicy {
    /// The replay order for a team of `n` bodies — always a
    /// permutation of `0..n`.
    pub fn order(&self, n: usize) -> Vec<usize> {
        match self {
            SchedulePolicy::Identity => (0..n).collect(),
            SchedulePolicy::Reversed => (0..n).rev().collect(),
            SchedulePolicy::Shuffled { seed } => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut state = *seed;
                let mut next = move || {
                    // splitmix64: the repo's standard seedable stream.
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            }
            SchedulePolicy::Explicit(o) => {
                if o.len() == n {
                    let mut seen = vec![false; n];
                    let valid = o
                        .iter()
                        .all(|&t| t < n && !std::mem::replace(&mut seen[t], true));
                    if valid {
                        return o.clone();
                    }
                }
                (0..n).collect()
            }
        }
    }
}

/// Execution context handed to each simulated thread's body.
///
/// Generic over the memory backend; defaults to the cycle-accurate
/// [`Machine`] so existing `ThreadCtx<'_>` call sites are unchanged.
pub struct ThreadCtx<'a, P: MemPort = Machine> {
    /// This thread's index within the team (0 = parent).
    pub tid: usize,
    /// Team size.
    pub nthreads: usize,
    /// The CPU this thread runs on.
    pub cpu: CpuId,
    /// Locality-aligned chunk index (see [`Team::chunk_rank`]).
    pub rank: usize,
    machine: &'a mut P,
    cost: &'a RuntimeCostModel,
    clock: Cycles,
    flops: u64,
    batching: bool,
    /// Semaphore addresses of the gates this thread currently holds
    /// (innermost last) — [`crate::SimGate`] uses it to reject
    /// self-deadlocking re-entry with a typed error.
    pub(crate) gates: Vec<u64>,
}

impl<'a, P: MemPort> ThreadCtx<'a, P> {
    /// Priced read of `a[i]`.
    #[inline]
    pub fn read<T: Copy>(&mut self, a: &SimArray<T>, i: usize) -> T {
        let (v, c) = a.read(self.machine, self.cpu, i);
        self.clock += c;
        v
    }

    /// Priced write of `a[i] = v`.
    #[inline]
    pub fn write<T: Copy>(&mut self, a: &mut SimArray<T>, i: usize, v: T) {
        let c = a.write(self.machine, self.cpu, i, v);
        self.clock += c;
    }

    /// Priced read-modify-write: `a[i] = f(a[i])`.
    #[inline]
    pub fn update<T: Copy>(&mut self, a: &mut SimArray<T>, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.read(a, i);
        self.write(a, i, f(v));
    }

    /// Priced streaming read of `a[range]`, appended to `out`. With
    /// batching enabled (the default) this is one port run; otherwise
    /// it degrades to elementwise [`ThreadCtx::read`]s. Both paths are
    /// cycle- and stats-identical by the port run-equivalence
    /// invariant — the cross-validation tests hold them to it.
    pub fn read_run<T: Copy>(
        &mut self,
        a: &SimArray<T>,
        range: std::ops::Range<usize>,
        out: &mut Vec<T>,
    ) {
        if self.batching {
            let c = a.read_run(self.machine, self.cpu, range, out);
            self.clock += c;
        } else {
            for i in range {
                out.push(self.read(a, i));
            }
        }
    }

    /// Priced streaming write of `vals` into `a[start..]`. Batched to
    /// one port run when batching is enabled; elementwise otherwise.
    pub fn write_run<T: Copy>(&mut self, a: &mut SimArray<T>, start: usize, vals: &[T]) {
        if self.batching {
            let c = a.write_run(self.machine, self.cpu, start, vals);
            self.clock += c;
        } else {
            for (k, v) in vals.iter().enumerate() {
                self.write(a, start + k, *v);
            }
        }
    }

    /// Priced streaming fill of `a[range]` with `v`. Batched to one
    /// port run when batching is enabled; elementwise otherwise.
    pub fn fill_run<T: Copy>(&mut self, a: &mut SimArray<T>, range: std::ops::Range<usize>, v: T) {
        if self.batching {
            let c = a.fill_run(self.machine, self.cpu, range, v);
            self.clock += c;
        } else {
            for i in range {
                self.write(a, i, v);
            }
        }
    }

    /// Account for `n` floating-point operations of register-resident
    /// compute.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.flops += n;
        self.clock += self.cost.flop_cycles(n);
    }

    /// Account for `n` cycles of non-FP work (integer, branches,
    /// address arithmetic beyond what `flops` folds in).
    #[inline]
    pub fn cycles(&mut self, n: Cycles) {
        self.clock += n;
    }

    /// This thread's simulated clock (cycles of busy time so far).
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// FLOPs counted so far.
    pub fn flop_count(&self) -> u64 {
        self.flops
    }

    /// The contiguous chunk of `0..n` this thread owns under static,
    /// locality-aligned scheduling (chunk indices follow
    /// [`Team::chunk_rank`], so chunks line up with block-shared data
    /// placement).
    pub fn chunk(&self, n: usize) -> std::ops::Range<usize> {
        chunk_range(n, self.nthreads, self.rank)
    }

    /// Escape hatch to the memory port (e.g. uncached semaphore ops).
    pub fn machine(&mut self) -> &mut P {
        self.machine
    }

    /// Run `body` with its accesses marked as targeting the logical
    /// *back buffer* of a double-buffered structure whose pricing
    /// aliases both buffers onto one address range (the N-body
    /// permutation sort prices its scatter this way). The annotation
    /// only informs a mounted race detector — with detection off it is
    /// a single dead branch and cycles/stats are untouched.
    pub fn back_buffer<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        let racing = self.machine.racing();
        if racing {
            self.machine.race(RaceEvent::AliasBegin);
        }
        let r = body(self);
        if racing {
            self.machine.race(RaceEvent::AliasEnd);
        }
        r
    }

    /// The runtime cost model in force.
    pub fn cost_model(&self) -> &RuntimeCostModel {
        self.cost
    }

    /// Build a context outside any team — used by other execution
    /// layers (PVM tasks) that price compute through the same machine.
    /// The clock starts at zero; read it back with [`ThreadCtx::clock`].
    pub fn detached(machine: &'a mut P, cost: &'a RuntimeCostModel, cpu: CpuId) -> Self {
        ThreadCtx {
            tid: 0,
            nthreads: 1,
            cpu,
            rank: 0,
            machine,
            cost,
            clock: 0,
            flops: 0,
            batching: true,
            gates: Vec::new(),
        }
    }
}

/// Timing report for one parallel region.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Total elapsed simulated cycles, fork through join.
    pub elapsed: Cycles,
    /// When each thread began executing its body (spawn skew).
    pub start: Vec<Cycles>,
    /// Pure compute/memory busy time per thread.
    pub busy: Vec<Cycles>,
    /// The join barrier's timing.
    pub join: BarrierResult,
    /// FLOPs summed over the team.
    pub flops: u64,
    /// Spawn retries paid during the fork (fault injection; zero
    /// without an active fault plan).
    pub spawn_retries: u64,
}

impl RegionReport {
    /// Elapsed time in microseconds.
    pub fn elapsed_us(&self) -> f64 {
        spp_core::cycles_to_us(self.elapsed)
    }

    /// Mflop/s over the region.
    pub fn mflops(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            // One cycle is 10 ns = 1e-8 s.
            self.flops as f64 / (self.elapsed as f64 * 1e-8) / 1e6
        }
    }
}

/// Handle to a set of asynchronous threads in flight (their bodies
/// have been replayed; the simulated completion times are recorded).
#[derive(Debug, Clone)]
pub struct AsyncHandle {
    /// Completion time of each child, measured from the fork instant.
    pub finish: Vec<Cycles>,
    /// Busy time of each child.
    pub busy: Vec<Cycles>,
    /// FLOPs over all children.
    pub flops: u64,
    /// Spawn retries paid during the fork (fault injection; zero
    /// without an active fault plan).
    pub spawn_retries: u64,
}

/// The threaded runtime: a machine plus thread-management costs.
///
/// Generic over the memory backend; defaults to the cycle-accurate
/// [`Machine`] so plain `Runtime` keeps meaning what it always did.
pub struct Runtime<P: MemPort = Machine> {
    /// The simulated machine (any [`MemPort`] backend).
    pub machine: P,
    /// Thread-management cost constants.
    pub cost: RuntimeCostModel,
    join_barrier: SimBarrier,
    /// Running total of simulated time across regions and serial
    /// sections (advanced by [`Runtime::fork_join`] and
    /// [`Runtime::serial`]).
    pub now: Cycles,
    /// Optional multitasking-interference model (§6 of the paper).
    /// `None` (the default) keeps all measurements noise-free.
    pub noise: Option<OsNoise>,
    /// Whether [`ThreadCtx`] run helpers use the batched port fast
    /// path (`true`, the default) or expand to scalar accesses.
    /// Cycle totals are identical either way; the scalar mode exists
    /// so cross-validation tests can prove it.
    pub batching: bool,
    /// Replay order for thread bodies within each region. The default
    /// [`SchedulePolicy::Identity`] is bit-identical to the historical
    /// behavior; other policies drive the schedule-permutation fuzzer.
    pub schedule: SchedulePolicy,
    regions: u64,
    /// Barrier used between the phases of
    /// [`Runtime::team_fork_join_phases`]; allocated on first use so
    /// non-phased workloads see no extra simulated allocations.
    phase_barrier: Option<SimBarrier>,
}

impl Runtime {
    /// The paper's testbed with `hypernodes` hypernodes.
    pub fn spp1000(hypernodes: usize) -> Self {
        Self::new(Machine::spp1000(hypernodes))
    }
}

impl<P: MemPort> Runtime<P> {
    /// Wrap a memory backend with the standard runtime cost model.
    pub fn new(mut machine: P) -> Self {
        let join_barrier = SimBarrier::new(&mut machine, NodeId(0));
        Runtime {
            machine,
            cost: RuntimeCostModel::spp1000(),
            join_barrier,
            now: 0,
            noise: None,
            batching: true,
            schedule: SchedulePolicy::Identity,
            regions: 0,
            phase_barrier: None,
        }
    }

    /// Set the replay order for subsequent regions' thread bodies.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enable the OS-multitasking noise model for subsequent regions.
    pub fn with_noise(mut self, noise: OsNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Disable (or re-enable) the batched run fast path in thread
    /// contexts; used by cross-validation tests.
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Price one thread spawn, retrying with exponential backoff when
    /// the machine's fault plan fails it. Panics with
    /// [`SimError::SpawnFailed`] once `spawn_max_attempts` is
    /// exhausted (consecutive failures signal a broken node, not a
    /// transient).
    fn priced_spawn(
        &mut self,
        cpu: CpuId,
        same_node: bool,
        activated: &mut bool,
        retries: &mut u64,
    ) -> Cycles {
        self.try_priced_spawn(cpu, same_node, activated, retries)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible core of [`Runtime::priced_spawn`]: returns
    /// [`SimError::SpawnFailed`] instead of panicking when the retry
    /// budget is exhausted, so watched fork paths can turn a livelocked
    /// spawn loop into a [`WatchdogReport`].
    fn try_priced_spawn(
        &mut self,
        cpu: CpuId,
        same_node: bool,
        activated: &mut bool,
        retries: &mut u64,
    ) -> Result<Cycles, SimError> {
        let mut t = 0;
        if !same_node && !*activated {
            t += self.cost.node_activation;
            *activated = true;
        }
        let spawn = if same_node {
            self.cost.spawn_local
        } else {
            self.cost.spawn_remote
        };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            t += spawn;
            let failed = self
                .machine
                .faults_mut()
                .map(|f| f.spawn_fails())
                .unwrap_or(false);
            if !failed {
                return Ok(t);
            }
            *retries += 1;
            if attempts >= self.cost.spawn_max_attempts {
                return Err(SimError::SpawnFailed {
                    cpu: cpu.0,
                    attempts,
                });
            }
            t += spp_core::retry_backoff(self.cost.spawn_retry_backoff, attempts - 1);
        }
    }

    /// Run a parallel region over a freshly placed team.
    pub fn fork_join(
        &mut self,
        n: usize,
        placement: &Placement,
        body: impl FnMut(&mut ThreadCtx<P>),
    ) -> RegionReport {
        let team = Team::place(self.machine.config(), n, placement);
        self.team_fork_join(&team, body)
    }

    /// Run a parallel region over an existing team.
    pub fn team_fork_join(
        &mut self,
        team: &Team,
        mut body: impl FnMut(&mut ThreadCtx<P>),
    ) -> RegionReport {
        match self.team_fork_join_impl(team, &mut body, None) {
            Ok(r) => r,
            Err(rep) => unreachable!("watchdog trip without a watchdog: {rep}"),
        }
    }

    /// Watched variant of [`Runtime::fork_join`]: places the team and
    /// delegates to [`Runtime::watched_team_fork_join`].
    pub fn watched_fork_join(
        &mut self,
        n: usize,
        placement: &Placement,
        wd: &Watchdog,
        body: impl FnMut(&mut ThreadCtx<P>),
    ) -> Result<RegionReport, WatchdogReport> {
        let team = Team::place(self.machine.config(), n, placement);
        self.watched_team_fork_join(&team, wd, body)
    }

    /// Watched variant of [`Runtime::team_fork_join`]: detects regions
    /// that can never complete instead of hanging or panicking.
    ///
    /// Trips with a [`WatchdogReport`] when
    ///
    /// * a team CPU is already dead under the machine's hard-fault
    ///   model (its thread would never reach the join barrier),
    /// * a spawn exhausts its retry budget (a livelocked retry loop —
    ///   the report's detail carries the [`SimError::SpawnFailed`]
    ///   message), or
    /// * the join barrier trips (a CPU died mid-region, or the arrival
    ///   spread exceeded the deadline — see
    ///   [`SimBarrier::simulate_watched`]).
    pub fn watched_team_fork_join(
        &mut self,
        team: &Team,
        wd: &Watchdog,
        mut body: impl FnMut(&mut ThreadCtx<P>),
    ) -> Result<RegionReport, WatchdogReport> {
        self.team_fork_join_impl(team, &mut body, Some(wd))
    }

    fn team_fork_join_impl(
        &mut self,
        team: &Team,
        body: &mut dyn FnMut(&mut ThreadCtx<P>),
        wd: Option<&Watchdog>,
    ) -> Result<RegionReport, WatchdogReport> {
        let n = team.len();

        // With a watchdog installed, refuse to fork onto dead CPUs:
        // their threads would never arrive at the join barrier.
        if let Some(w) = wd {
            let mut alive = 0u64;
            let mut dead: Vec<u16> = Vec::new();
            for (i, cpu) in team.cpus().iter().enumerate() {
                if self.machine.is_cpu_dead(*cpu) {
                    dead.push(cpu.0);
                } else if i < 64 {
                    alive |= 1 << i;
                }
            }
            if !dead.is_empty() {
                if self.machine.tracing() {
                    self.machine.trace(record(
                        self.now,
                        NO_CPU,
                        NO_NODE,
                        TraceEvent::Watchdog {
                            kind: StallKind::Barrier,
                        },
                    ));
                }
                return Err(w
                    .trip(
                        StallKind::Barrier,
                        0,
                        format!("team cpu(s) {dead:?} are dead; the join can never complete"),
                    )
                    .with_arrival_bitmap(alive)
                    .with_cpu_clocks(team.cpus().iter().map(|c| (c.0, 0)).collect()));
            }
        }
        let parent_node = self.machine.config().node_of_cpu(team.cpu(0));

        // Fork: the parent issues spawns serially; the first spawn on
        // a foreign hypernode pays the cross-kernel activation.
        let mut t = self.cost.fork_base;
        let mut start = vec![0u64; n];
        let mut activated = false;
        let mut spawn_retries = 0u64;
        for (tid, s) in start.iter_mut().enumerate().skip(1) {
            let node = self.machine.config().node_of_cpu(team.cpu(tid));
            let spawn = self.try_priced_spawn(
                team.cpu(tid),
                node == parent_node,
                &mut activated,
                &mut spawn_retries,
            );
            match spawn {
                Ok(c) => t += c,
                Err(e) => match wd {
                    Some(w) => {
                        if self.machine.tracing() {
                            self.machine.trace(record(
                                self.now + t,
                                NO_CPU,
                                NO_NODE,
                                TraceEvent::Watchdog {
                                    kind: StallKind::RetryLoop,
                                },
                            ));
                        }
                        return Err(w
                            .trip(StallKind::RetryLoop, t, e.to_string())
                            .with_cpu_clocks(team.cpus().iter().map(|c| (c.0, 0)).collect()));
                    }
                    None => panic!("{e}"),
                },
            }
            *s = t;
        }
        // The parent begins its own chunk after issuing all spawns.
        start[0] = t;

        // Execute bodies sequentially, one per simulated thread, in
        // the schedule policy's replay order (identity by default —
        // a correct program's results don't depend on the order, and
        // the race fuzzer sweeps it to prove that).
        let mut busy = vec![0u64; n];
        let mut flops = 0u64;
        let racing = self.machine.racing();
        if racing {
            self.machine.race(RaceEvent::RegionBegin);
        }
        for tid in self.schedule.order(n) {
            let cpu = team.cpu(tid);
            if racing {
                self.machine.race(RaceEvent::BodyBegin {
                    tid: tid as u32,
                    cpu: cpu.0,
                });
            }
            let mut ctx = ThreadCtx {
                tid,
                nthreads: n,
                cpu,
                rank: team.chunk_rank(tid),
                machine: &mut self.machine,
                cost: &self.cost,
                clock: 0,
                flops: 0,
                batching: self.batching,
                gates: Vec::new(),
            };
            body(&mut ctx);
            busy[tid] = ctx.clock;
            flops += ctx.flops;
            if racing {
                self.machine.race(RaceEvent::BodyEnd);
            }
        }
        if racing {
            self.machine.race(RaceEvent::RegionEnd);
        }

        // Optional multitasking interference (§6): the OS steals
        // quanta from every thread, plus a full timeslice from one
        // victim when the team occupies the whole machine.
        self.regions += 1;
        if let Some(noise) = &self.noise {
            let full = n == self.machine.config().num_cpus();
            for (tid, b) in busy.iter_mut().enumerate() {
                *b += noise.stolen(self.regions, tid, n, *b, full);
            }
        }

        // Join: a barrier whose arrivals are the thread finish times.
        let arrivals: Vec<(CpuId, Cycles)> = (0..n)
            .map(|tid| (team.cpu(tid), start[tid] + busy[tid]))
            .collect();
        let join = if n == 1 {
            BarrierResult {
                release: vec![arrivals[0].1],
                last_arrival: arrivals[0].1,
            }
        } else {
            match wd {
                Some(w) => self.join_barrier.simulate_watched(
                    &mut self.machine,
                    &self.cost,
                    &arrivals,
                    w,
                )?,
                None => self
                    .join_barrier
                    .simulate(&mut self.machine, &self.cost, &arrivals),
            }
        };
        let elapsed = join.end() + self.cost.join_base;
        if self.machine.tracing() {
            let parent = team.cpu(0);
            self.machine.trace(record(
                self.now,
                parent.0,
                parent_node.0,
                TraceEvent::ForkSpan {
                    threads: n as u16,
                    dur: elapsed,
                },
            ));
        }
        self.now += elapsed;
        Ok(RegionReport {
            elapsed,
            start,
            busy,
            join,
            flops,
            spawn_retries,
        })
    }

    /// Run a *phased* (bulk-synchronous) parallel region: `nphases`
    /// phases over an existing team, with a full in-region barrier
    /// simulation between consecutive phases. The body receives the
    /// phase index; per-thread clocks carry across phases, and after
    /// each barrier a thread resumes at its simulated release time.
    ///
    /// Apps use this to *order* work that would otherwise conflict —
    /// colored FEM assembly runs one color per phase, PIC separates
    /// private charge deposit from the cross-thread reduction — and
    /// the race detector honors the ordering through its phase
    /// counter (accesses in different phases never race).
    pub fn team_fork_join_phases(
        &mut self,
        team: &Team,
        nphases: usize,
        mut body: impl FnMut(&mut ThreadCtx<P>, usize),
    ) -> RegionReport {
        let n = team.len();
        let parent_node = self.machine.config().node_of_cpu(team.cpu(0));

        // Fork: identical to team_fork_join.
        let mut t = self.cost.fork_base;
        let mut start = vec![0u64; n];
        let mut activated = false;
        let mut spawn_retries = 0u64;
        for (tid, s) in start.iter_mut().enumerate().skip(1) {
            let node = self.machine.config().node_of_cpu(team.cpu(tid));
            t += self.priced_spawn(
                team.cpu(tid),
                node == parent_node,
                &mut activated,
                &mut spawn_retries,
            );
            *s = t;
        }
        start[0] = t;

        let mut busy = vec![0u64; n];
        let mut flops = 0u64;
        let racing = self.machine.racing();
        if racing {
            self.machine.race(RaceEvent::RegionBegin);
        }
        for phase in 0..nphases {
            if phase > 0 {
                if n > 1 {
                    // In-region barrier: arrivals at each thread's
                    // current finish time; it resumes at its release.
                    let arrivals: Vec<(CpuId, Cycles)> = (0..n)
                        .map(|tid| (team.cpu(tid), start[tid] + busy[tid]))
                        .collect();
                    if self.phase_barrier.is_none() {
                        self.phase_barrier = Some(SimBarrier::new(&mut self.machine, parent_node));
                    }
                    let pb = self.phase_barrier.take().unwrap();
                    let res = pb.simulate(&mut self.machine, &self.cost, &arrivals);
                    self.phase_barrier = Some(pb);
                    for tid in 0..n {
                        busy[tid] = res.release[tid] - start[tid];
                    }
                }
                if racing {
                    self.machine.race(RaceEvent::PhaseBarrier);
                }
            }
            for tid in self.schedule.order(n) {
                let cpu = team.cpu(tid);
                if racing {
                    self.machine.race(RaceEvent::BodyBegin {
                        tid: tid as u32,
                        cpu: cpu.0,
                    });
                }
                let mut ctx = ThreadCtx {
                    tid,
                    nthreads: n,
                    cpu,
                    rank: team.chunk_rank(tid),
                    machine: &mut self.machine,
                    cost: &self.cost,
                    clock: busy[tid],
                    flops: 0,
                    batching: self.batching,
                    gates: Vec::new(),
                };
                body(&mut ctx, phase);
                busy[tid] = ctx.clock;
                flops += ctx.flops;
                if racing {
                    self.machine.race(RaceEvent::BodyEnd);
                }
            }
        }
        if racing {
            self.machine.race(RaceEvent::RegionEnd);
        }

        self.regions += 1;
        if let Some(noise) = &self.noise {
            let full = n == self.machine.config().num_cpus();
            for (tid, b) in busy.iter_mut().enumerate() {
                *b += noise.stolen(self.regions, tid, n, *b, full);
            }
        }

        let arrivals: Vec<(CpuId, Cycles)> = (0..n)
            .map(|tid| (team.cpu(tid), start[tid] + busy[tid]))
            .collect();
        let join = if n == 1 {
            BarrierResult {
                release: vec![arrivals[0].1],
                last_arrival: arrivals[0].1,
            }
        } else {
            self.join_barrier
                .simulate(&mut self.machine, &self.cost, &arrivals)
        };
        let elapsed = join.end() + self.cost.join_base;
        if self.machine.tracing() {
            let parent = team.cpu(0);
            self.machine.trace(record(
                self.now,
                parent.0,
                parent_node.0,
                TraceEvent::ForkSpan {
                    threads: n as u16,
                    dur: elapsed,
                },
            ));
        }
        self.now += elapsed;
        RegionReport {
            elapsed,
            start,
            busy,
            join,
            flops,
            spawn_retries,
        }
    }

    /// Place a team and run a phased region over it — the
    /// [`Runtime::fork_join`] convenience for
    /// [`Runtime::team_fork_join_phases`].
    pub fn fork_join_phases(
        &mut self,
        n: usize,
        placement: &Placement,
        nphases: usize,
        body: impl FnMut(&mut ThreadCtx<P>, usize),
    ) -> RegionReport {
        let team = Team::place(self.machine.config(), n, placement);
        self.team_fork_join_phases(&team, nphases, body)
    }

    /// Spawn *asynchronous* threads (§3.2: "Asynchronous threads
    /// continue execution independent of one another; the parent
    /// thread continues to execute without waiting for its children to
    /// terminate"). The children's bodies are replayed immediately;
    /// the returned handle carries their completion times. The parent
    /// resumes at the returned clock (after issuing the spawns) and
    /// reclaims the children with [`Runtime::join_async`].
    pub fn fork_async(
        &mut self,
        team: &Team,
        mut body: impl FnMut(&mut ThreadCtx<P>),
    ) -> (Cycles, AsyncHandle) {
        let n = team.len();
        let parent_node = self.machine.config().node_of_cpu(team.cpu(0));
        // Children are tids 0..n of the handle; the parent is not part
        // of the team here. Spawns are priced first (they happen in
        // issue order regardless of replay order), then the bodies are
        // replayed in the schedule policy's order. With identity
        // scheduling this split is bit-identical to the historical
        // interleaved loop: spawn draws and body accesses come from
        // different per-site fault streams.
        let mut t = self.cost.fork_base;
        let mut spawn_done = vec![0u64; n];
        let mut finish = vec![0u64; n];
        let mut busy = vec![0u64; n];
        let mut activated = false;
        let mut flops = 0u64;
        let mut spawn_retries = 0u64;
        for (tid, s) in spawn_done.iter_mut().enumerate() {
            let node = self.machine.config().node_of_cpu(team.cpu(tid));
            t += self.priced_spawn(
                team.cpu(tid),
                node == parent_node,
                &mut activated,
                &mut spawn_retries,
            );
            *s = t;
        }
        let racing = self.machine.racing();
        if racing {
            self.machine.race(RaceEvent::RegionBegin);
        }
        for tid in self.schedule.order(n) {
            let cpu = team.cpu(tid);
            if racing {
                self.machine.race(RaceEvent::BodyBegin {
                    tid: tid as u32,
                    cpu: cpu.0,
                });
            }
            let mut ctx = ThreadCtx {
                tid,
                nthreads: n,
                cpu,
                rank: team.chunk_rank(tid),
                machine: &mut self.machine,
                cost: &self.cost,
                clock: 0,
                flops: 0,
                batching: self.batching,
                gates: Vec::new(),
            };
            body(&mut ctx);
            busy[tid] = ctx.clock;
            flops += ctx.flops;
            finish[tid] = spawn_done[tid] + ctx.clock;
            if racing {
                self.machine.race(RaceEvent::BodyEnd);
            }
        }
        if racing {
            self.machine.race(RaceEvent::RegionEnd);
        }
        self.regions += 1;
        if let Some(noise) = &self.noise {
            let full = n == self.machine.config().num_cpus();
            for tid in 0..n {
                let extra = noise.stolen(self.regions, tid, n, busy[tid], full);
                busy[tid] += extra;
                finish[tid] += extra;
            }
        }
        (
            t,
            AsyncHandle {
                finish,
                busy,
                flops,
                spawn_retries,
            },
        )
    }

    /// Wait for asynchronous children: given the parent's own clock
    /// (measured from the same fork instant), returns the time at
    /// which the join completes. Costs nothing beyond `join_base` if
    /// the children already finished.
    pub fn join_async(&mut self, handle: &AsyncHandle, parent_clock: Cycles) -> Cycles {
        let children = handle.finish.iter().copied().max().unwrap_or(0);
        let done = children.max(parent_clock) + self.cost.join_base;
        self.now += done;
        done
    }

    /// Run serial (single-thread) work on `cpu` with no fork/join
    /// overhead; returns its busy time and advances [`Runtime::now`].
    pub fn serial(&mut self, cpu: CpuId, body: impl FnOnce(&mut ThreadCtx<P>)) -> RegionReport {
        let mut ctx = ThreadCtx {
            tid: 0,
            nthreads: 1,
            cpu,
            rank: 0,
            machine: &mut self.machine,
            cost: &self.cost,
            clock: 0,
            flops: 0,
            batching: self.batching,
            gates: Vec::new(),
        };
        body(&mut ctx);
        let busy = ctx.clock;
        let flops = ctx.flops;
        self.now += busy;
        RegionReport {
            elapsed: busy,
            start: vec![0],
            busy: vec![busy],
            join: BarrierResult {
                release: vec![busy],
                last_arrival: busy,
            },
            flops,
            spawn_retries: 0,
        }
    }

    /// Total simulated time so far, microseconds.
    pub fn now_us(&self) -> f64 {
        spp_core::cycles_to_us(self.now)
    }
}

impl Runtime<Machine> {
    /// [`Runtime::team_fork_join_phases`] with barrier-interval
    /// critical-path profiling (see [`crate::interval`]): runs the
    /// phased region bit-identically to the unprofiled path — same
    /// cycles, same [`spp_core::MemStats`], same [`RegionReport`] —
    /// while snapshotting each thread's busy time and per-CPU counter
    /// deltas around every phase, and returns one
    /// [`IntervalReport`](crate::interval::IntervalReport) per barrier
    /// interval. Requires the cycle-accurate [`Machine`] backend for
    /// its per-CPU counter breakdown. When tracing is mounted, each
    /// interval also emits a [`TraceEvent::Straggler`] stamped at the
    /// straggler's arrival.
    pub fn team_fork_join_phases_profiled(
        &mut self,
        team: &Team,
        nphases: usize,
        mut body: impl FnMut(&mut ThreadCtx<Machine>, usize),
    ) -> (RegionReport, Vec<crate::interval::IntervalReport>) {
        use crate::interval::IntervalReport;
        let n = team.len();
        let parent_node = self.machine.config().node_of_cpu(team.cpu(0));
        let cpus: Vec<u16> = (0..n).map(|tid| team.cpu(tid).0).collect();

        // Fork: identical to team_fork_join_phases.
        let mut t = self.cost.fork_base;
        let mut start = vec![0u64; n];
        let mut activated = false;
        let mut spawn_retries = 0u64;
        for (tid, s) in start.iter_mut().enumerate().skip(1) {
            let node = self.machine.config().node_of_cpu(team.cpu(tid));
            t += self.priced_spawn(
                team.cpu(tid),
                node == parent_node,
                &mut activated,
                &mut spawn_retries,
            );
            *s = t;
        }
        start[0] = t;

        let mut busy = vec![0u64; n];
        let mut flops = 0u64;
        let racing = self.machine.racing();
        if racing {
            self.machine.race(RaceEvent::RegionBegin);
        }

        let mut intervals: Vec<IntervalReport> = Vec::with_capacity(nphases);
        // Busy values at the start of the open interval, plus the
        // per-CPU counter deltas over its bodies — held until the
        // closing barrier's release times are known.
        let mut open: Option<(Vec<Cycles>, Vec<MemStats>)> = None;
        for phase in 0..nphases {
            if phase > 0 {
                if n > 1 {
                    let arrivals: Vec<(CpuId, Cycles)> = (0..n)
                        .map(|tid| (team.cpu(tid), start[tid] + busy[tid]))
                        .collect();
                    if self.phase_barrier.is_none() {
                        self.phase_barrier = Some(SimBarrier::new(&mut self.machine, parent_node));
                    }
                    let pb = self.phase_barrier.take().unwrap();
                    let res = pb.simulate(&mut self.machine, &self.cost, &arrivals);
                    self.phase_barrier = Some(pb);
                    if let Some((entry, deltas)) = open.take() {
                        self.close_interval(
                            &mut intervals,
                            phase - 1,
                            &cpus,
                            &start,
                            &busy,
                            &entry,
                            res.release.clone(),
                            &deltas,
                        );
                    }
                    for tid in 0..n {
                        busy[tid] = res.release[tid] - start[tid];
                    }
                } else if let Some((entry, deltas)) = open.take() {
                    // Single thread: no barrier; release == arrival.
                    let release = vec![start[0] + busy[0]];
                    self.close_interval(
                        &mut intervals,
                        phase - 1,
                        &cpus,
                        &start,
                        &busy,
                        &entry,
                        release,
                        &deltas,
                    );
                }
                if racing {
                    self.machine.race(RaceEvent::PhaseBarrier);
                }
            }
            let before: Vec<MemStats> = (0..n)
                .map(|tid| *self.machine.cpu_stats(team.cpu(tid)))
                .collect();
            let entry = busy.clone();
            for tid in self.schedule.order(n) {
                let cpu = team.cpu(tid);
                if racing {
                    self.machine.race(RaceEvent::BodyBegin {
                        tid: tid as u32,
                        cpu: cpu.0,
                    });
                }
                let mut ctx = ThreadCtx {
                    tid,
                    nthreads: n,
                    cpu,
                    rank: team.chunk_rank(tid),
                    machine: &mut self.machine,
                    cost: &self.cost,
                    clock: busy[tid],
                    flops: 0,
                    batching: self.batching,
                    gates: Vec::new(),
                };
                body(&mut ctx, phase);
                busy[tid] = ctx.clock;
                flops += ctx.flops;
                if racing {
                    self.machine.race(RaceEvent::BodyEnd);
                }
            }
            let deltas: Vec<MemStats> = (0..n)
                .map(|tid| self.machine.cpu_stats(team.cpu(tid)).since(&before[tid]))
                .collect();
            open = Some((entry, deltas));
        }
        if racing {
            self.machine.race(RaceEvent::RegionEnd);
        }

        self.regions += 1;
        if let Some(noise) = &self.noise {
            let full = n == self.machine.config().num_cpus();
            for (tid, b) in busy.iter_mut().enumerate() {
                *b += noise.stolen(self.regions, tid, n, *b, full);
            }
        }

        let arrivals: Vec<(CpuId, Cycles)> = (0..n)
            .map(|tid| (team.cpu(tid), start[tid] + busy[tid]))
            .collect();
        let join = if n == 1 {
            BarrierResult {
                release: vec![arrivals[0].1],
                last_arrival: arrivals[0].1,
            }
        } else {
            self.join_barrier
                .simulate(&mut self.machine, &self.cost, &arrivals)
        };
        // The final interval closes at the join barrier. Noise steal
        // (applied above to total busy) lands in this interval, so the
        // per-interval busy columns always sum back to the report.
        if let Some((entry, deltas)) = open.take() {
            self.close_interval(
                &mut intervals,
                nphases - 1,
                &cpus,
                &start,
                &busy,
                &entry,
                join.release.clone(),
                &deltas,
            );
        }
        let elapsed = join.end() + self.cost.join_base;
        if self.machine.tracing() {
            let parent = team.cpu(0);
            self.machine.trace(record(
                self.now,
                parent.0,
                parent_node.0,
                TraceEvent::ForkSpan {
                    threads: n as u16,
                    dur: elapsed,
                },
            ));
        }
        self.now += elapsed;
        (
            RegionReport {
                elapsed,
                start,
                busy,
                join,
                flops,
                spawn_retries,
            },
            intervals,
        )
    }

    /// Finalize one barrier interval from its captured entry state and
    /// the closing barrier's release times; emits the straggler trace
    /// event when tracing is mounted.
    #[allow(clippy::too_many_arguments)]
    fn close_interval(
        &mut self,
        intervals: &mut Vec<crate::interval::IntervalReport>,
        index: usize,
        cpus: &[u16],
        start: &[Cycles],
        busy: &[Cycles],
        entry: &[Cycles],
        release: Vec<Cycles>,
        deltas: &[MemStats],
    ) {
        let n = cpus.len();
        let iv_busy: Vec<Cycles> = (0..n).map(|tid| busy[tid] - entry[tid]).collect();
        let arrival: Vec<Cycles> = (0..n).map(|tid| start[tid] + busy[tid]).collect();
        let iv = crate::interval::IntervalReport::from_timings(
            index,
            cpus.to_vec(),
            iv_busy,
            arrival,
            release,
            deltas,
        );
        if self.machine.tracing() {
            let cpu = iv.straggler_cpu();
            let node = self.machine.config().node_of_cpu(CpuId(cpu));
            self.machine.trace(record(
                self.now + iv.critical_arrival(),
                cpu,
                node.0,
                TraceEvent::Straggler {
                    stall: iv.straggler_held,
                },
            ));
        }
        intervals.push(iv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::{cycles_to_us, MemClass};

    #[test]
    fn empty_fork_join_cost_rises_with_threads() {
        let mut rt = Runtime::spp1000(2);
        let us = |n: usize, rt: &mut Runtime| {
            rt.fork_join(n, &Placement::HighLocality, |_| {})
                .elapsed_us()
        };
        let t2 = us(2, &mut rt);
        let t4 = us(4, &mut rt);
        let t8 = us(8, &mut rt);
        assert!(t2 < t4 && t4 < t8, "{t2} {t4} {t8}");
        // Paper anchor (§4.1, Fig. 2): ~10 µs per extra pair of local
        // threads. The 7..=18 window is intentionally tight around that
        // slope (the join barrier adds a sublinear term on top); loosen
        // only with a deliberate recalibration.
        let slope = (t8 - t2) / 3.0;
        assert!((7.0..=18.0).contains(&slope), "local slope = {slope}");
    }

    #[test]
    fn crossing_hypernodes_costs_about_50us_extra() {
        let mut rt = Runtime::spp1000(2);
        let t8 = rt
            .fork_join(8, &Placement::HighLocality, |_| {})
            .elapsed_us();
        let t10 = rt
            .fork_join(10, &Placement::HighLocality, |_| {})
            .elapsed_us();
        // Paper anchor (§4.1): "once threads start to be spawned on
        // two hypernodes" a one-time ~50 µs activation appears. Two
        // more threads cost ~20 µs remotely, so the observed jump is
        // activation + spawns; 40..=90 µs pins it intentionally tight.
        let jump = t10 - t8;
        assert!((40.0..=90.0).contains(&jump), "jump = {jump} us");
    }

    #[test]
    fn uniform_placement_costs_more_than_local() {
        let mut rt = Runtime::spp1000(2);
        let local = rt
            .fork_join(8, &Placement::HighLocality, |_| {})
            .elapsed_us();
        let mut rt2 = Runtime::spp1000(2);
        let uniform = rt2.fork_join(8, &Placement::Uniform, |_| {}).elapsed_us();
        assert!(uniform > local, "{uniform} vs {local}");
    }

    #[test]
    fn work_splits_across_threads() {
        let mut rt = Runtime::spp1000(1);
        let mut hits = [0usize; 4];
        rt.fork_join(4, &Placement::HighLocality, |ctx| {
            let r = ctx.chunk(100);
            hits[ctx.tid] = r.len();
        });
        assert_eq!(hits.iter().sum::<usize>(), 100);
        assert!(hits.iter().all(|h| *h == 25));
    }

    #[test]
    fn parallel_speedup_on_compute_bound_work() {
        // 1 ms of pure flops per thread-share: near-linear scaling.
        let work = 4_000_000u64; // flops
        let elapsed = |n: usize| {
            let mut rt = Runtime::spp1000(2);
            rt.fork_join(n, &Placement::HighLocality, |ctx| {
                let share = work / ctx.nthreads as u64;
                ctx.flops(share);
            })
            .elapsed
        };
        let t1 = elapsed(1);
        let t8 = elapsed(8);
        let speedup = t1 as f64 / t8 as f64;
        assert!(speedup > 6.5, "speedup = {speedup}");
    }

    #[test]
    fn region_counts_flops_and_mflops() {
        let mut rt = Runtime::spp1000(1);
        let r = rt.fork_join(2, &Placement::HighLocality, |ctx| {
            ctx.flops(1000);
        });
        assert_eq!(r.flops, 2000);
        assert!(r.mflops() > 0.0);
    }

    #[test]
    fn memory_traffic_advances_the_clock() {
        let mut rt = Runtime::spp1000(1);
        let mut arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            1024,
            0.0,
        );
        let r = rt.fork_join(2, &Placement::HighLocality, |ctx| {
            for i in ctx.chunk(1024) {
                ctx.write(&mut arr, i, i as f64);
            }
        });
        assert!(r.busy[0] > 0);
        assert_eq!(arr.host()[100], 100.0);
    }

    #[test]
    fn serial_section_has_no_fork_overhead() {
        let mut rt = Runtime::spp1000(1);
        let r = rt.serial(CpuId(0), |ctx| ctx.flops(100));
        assert_eq!(r.elapsed, rt.cost.flop_cycles(100));
    }

    #[test]
    fn now_accumulates_across_regions() {
        let mut rt = Runtime::spp1000(1);
        assert_eq!(rt.now, 0);
        let a = rt.fork_join(2, &Placement::HighLocality, |_| {}).elapsed;
        let b = rt.serial(CpuId(0), |ctx| ctx.flops(50)).elapsed;
        assert_eq!(rt.now, a + b);
        assert!(cycles_to_us(rt.now) > 0.0);
    }

    #[test]
    fn async_threads_overlap_with_the_parent() {
        // Parent does 1 ms of its own work while 4 async children do
        // 0.5 ms each: the join should complete at ~parent time, not
        // parent + children.
        let mut rt = Runtime::spp1000(1);
        let team = Team::place(
            rt.machine.config(),
            4,
            &Placement::Explicit(vec![CpuId(1), CpuId(2), CpuId(3), CpuId(4)]),
        );
        let (spawn_done, handle) = rt.fork_async(&team, |ctx| ctx.flops(25_000)); // 0.5 ms
        assert_eq!(handle.flops, 100_000);
        // The parent continues immediately after the spawns.
        assert!(spp_core::cycles_to_us(spawn_done) < 50.0);
        let parent_clock = spawn_done + rt.cost.flop_cycles(50_000); // 1 ms own work
        let done = rt.join_async(&handle, parent_clock);
        // Children finished well before the parent; join adds only its
        // base cost.
        assert!(done < parent_clock + rt.cost.join_base + 10);
        // Sequential execution would exceed parent + 4 x child.
        let sequential = parent_clock + 4 * rt.cost.flop_cycles(25_000);
        assert!(done < sequential);
    }

    #[test]
    fn join_async_waits_for_slow_children() {
        let mut rt = Runtime::spp1000(1);
        let team = Team::place(
            rt.machine.config(),
            2,
            &Placement::Explicit(vec![CpuId(1), CpuId(2)]),
        );
        let (_, handle) = rt.fork_async(&team, |ctx| ctx.flops(1_000_000));
        let slowest = *handle.finish.iter().max().unwrap();
        let done = rt.join_async(&handle, 100);
        assert_eq!(done, slowest + rt.cost.join_base);
    }

    #[test]
    fn os_noise_reproduces_the_16_on_16_problem() {
        // §6: codes needing all 16 processors shared them with the OS;
        // with the noise model on, a 16-thread region is hurt more
        // than a 15-thread one relative to the noise-free baseline.
        let work = 16 * 4_000_000u64; // ~40 ms per thread at 16 threads
        let elapsed = |threads: usize, noisy: bool| {
            let mut rt = Runtime::spp1000(2);
            if noisy {
                rt = rt.with_noise(crate::noise::OsNoise::unix90s(5));
            }
            let mut total = 0u64;
            for _ in 0..8 {
                total += rt
                    .fork_join(threads, &Placement::Uniform, |ctx| {
                        ctx.flops(work / ctx.nthreads as u64)
                    })
                    .elapsed;
            }
            total
        };
        let inflate16 = elapsed(16, true) as f64 / elapsed(16, false) as f64;
        let inflate15 = elapsed(15, true) as f64 / elapsed(15, false) as f64;
        assert!(
            inflate16 > inflate15 + 0.02,
            "16-thread inflation {inflate16:.3} should exceed 15-thread {inflate15:.3}"
        );
        assert!(inflate16 > 1.05, "noise too weak: {inflate16:.3}");
    }

    #[test]
    fn noise_runs_stay_deterministic() {
        let run = || {
            let mut rt = Runtime::spp1000(1).with_noise(crate::noise::OsNoise::unix90s(9));
            rt.fork_join(8, &Placement::HighLocality, |ctx| ctx.flops(1_000_000))
                .elapsed
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spawn_retries_add_deterministic_overhead() {
        use spp_core::{FaultPlan, Machine};
        let run = |prob: f64| {
            let m = Machine::spp1000(2).with_faults(FaultPlan::new(4).with_spawn_failures(prob));
            let mut rt = Runtime::new(m);
            let r = rt.fork_join(16, &Placement::HighLocality, |_| {});
            (r.elapsed, r.spawn_retries)
        };
        let (clean, retries0) = run(0.0);
        assert_eq!(retries0, 0);
        let (a, ra) = run(0.35);
        let (b, rb) = run(0.35);
        assert_eq!((a, ra), (b, rb), "same seed must reproduce exactly");
        assert!(ra > 0, "35% failure over 15 spawns should retry");
        assert!(a > clean, "retries must cost time: {a} vs {clean}");
    }

    #[test]
    fn async_fork_counts_spawn_retries() {
        use spp_core::{FaultPlan, Machine};
        let m = Machine::spp1000(1).with_faults(FaultPlan::new(2).with_spawn_failures(0.5));
        let mut rt = Runtime::new(m);
        let team = Team::place(
            rt.machine.config(),
            4,
            &Placement::Explicit(vec![CpuId(1), CpuId(2), CpuId(3), CpuId(4)]),
        );
        let (_, handle) = rt.fork_async(&team, |_| {});
        assert!(handle.spawn_retries > 0);
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn certain_spawn_failure_exhausts_retry_budget() {
        use spp_core::{FaultPlan, Machine};
        let m = Machine::spp1000(2).with_faults(FaultPlan::new(1).with_spawn_failures(1.0));
        let mut rt = Runtime::new(m);
        rt.fork_join(2, &Placement::HighLocality, |_| {});
    }

    #[test]
    fn watched_region_matches_plain_when_healthy() {
        let elapsed = |watched: bool| {
            let mut rt = Runtime::spp1000(2);
            if watched {
                let r = rt
                    .watched_fork_join(
                        8,
                        &Placement::HighLocality,
                        &spp_core::Watchdog::new(u64::MAX - 1),
                        |ctx| ctx.flops(1_000),
                    )
                    .expect("healthy region must not trip");
                r.elapsed
            } else {
                rt.fork_join(8, &Placement::HighLocality, |ctx| ctx.flops(1_000))
                    .elapsed
            }
        };
        assert_eq!(elapsed(true), elapsed(false));
    }

    #[test]
    fn watched_region_trips_on_pre_dead_team_cpu() {
        use spp_core::{FaultPlan, Machine, MemClass, StallKind};
        let m = Machine::spp1000(1).with_faults(FaultPlan::new(8).with_cpu_failure(2, 0));
        let mut rt = Runtime::new(m);
        // Fire the scheduled failure with one priming access.
        let scratch = rt
            .machine
            .alloc(MemClass::NearShared { node: NodeId(0) }, 64);
        let _ = rt.machine.read(CpuId(0), scratch.base);
        let rep = rt
            .watched_fork_join(
                4,
                &Placement::HighLocality,
                &spp_core::Watchdog::new(1_000_000),
                |_| {},
            )
            .expect_err("dead team cpu must trip");
        assert_eq!(rep.kind, StallKind::Barrier);
        assert_eq!(rep.arrival_bitmap, Some(0b1011));
        assert!(rep.to_string().contains("dead"), "{rep}");
    }

    #[test]
    fn watched_region_trips_when_a_cpu_dies_mid_region() {
        use spp_core::{FaultPlan, Machine, MemClass, StallKind};
        // The failure is scheduled at cycle 0 but nothing has touched
        // memory yet, so the fork-time check passes; the first body
        // access fires it and the join barrier reports the dead CPU.
        let m = Machine::spp1000(1).with_faults(FaultPlan::new(8).with_cpu_failure(1, 0));
        let mut rt = Runtime::new(m);
        let arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            64,
            0.0,
        );
        let rep = rt
            .watched_fork_join(
                4,
                &Placement::HighLocality,
                &spp_core::Watchdog::new(u64::MAX - 1),
                |ctx| {
                    let _ = ctx.read(&arr, 0);
                },
            )
            .expect_err("mid-region death must trip at the join");
        assert_eq!(rep.kind, StallKind::Barrier);
        assert!(rep.to_string().contains("dead cpu(s) [1]"), "{rep}");
    }

    #[test]
    fn watched_region_reports_spawn_retry_livelock() {
        use spp_core::{FaultPlan, Machine, StallKind};
        let m = Machine::spp1000(2).with_faults(FaultPlan::new(1).with_spawn_failures(1.0));
        let mut rt = Runtime::new(m);
        let rep = rt
            .watched_fork_join(
                2,
                &Placement::HighLocality,
                &spp_core::Watchdog::new(1_000_000),
                |_| {},
            )
            .expect_err("certain spawn failure must trip, not panic");
        assert_eq!(rep.kind, StallKind::RetryLoop);
        assert!(rep.to_string().contains("failed after"), "{rep}");
    }

    #[test]
    fn traced_region_emits_fork_span_and_barrier_events() {
        use spp_core::{Machine, TraceEvent};
        let mut rt = Runtime::new(Machine::spp1000(1).with_tracing());
        let rep = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(1_000));
        let events = rt.machine.trace_events();
        let spans: Vec<_> = events
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::ForkSpan { threads, dur } => Some((r.at, threads, dur)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0], (0, 4, rep.elapsed), "span covers the region");
        let arrives = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::BarrierArrive))
            .count();
        let releases = events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::BarrierRelease))
            .count();
        assert_eq!(arrives, 4, "one arrival per team member");
        assert_eq!(releases, 4, "one release per team member");
    }

    #[test]
    fn tracing_does_not_change_region_timing() {
        use spp_core::Machine;
        let run = |traced: bool| {
            let m = Machine::spp1000(2);
            let m = if traced { m.with_tracing() } else { m };
            let mut rt = Runtime::new(m);
            let mut totals = Vec::new();
            for _ in 0..3 {
                let rep = rt.fork_join(8, &Placement::Uniform, |ctx| ctx.flops(500));
                totals.push((rep.elapsed, rep.busy.clone(), rep.start.clone()));
            }
            (totals, *rt.machine.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn watched_trip_emits_a_watchdog_event() {
        use spp_core::{FaultPlan, Machine, StallKind, TraceEvent};
        let m = Machine::spp1000(2)
            .with_faults(FaultPlan::new(1).with_spawn_failures(1.0))
            .with_tracing();
        let mut rt = Runtime::new(m);
        let rep = rt
            .watched_fork_join(
                2,
                &Placement::HighLocality,
                &spp_core::Watchdog::new(1_000_000),
                |_| {},
            )
            .expect_err("certain spawn failure must trip");
        assert_eq!(rep.kind, StallKind::RetryLoop);
        assert!(rt.machine.trace_events().iter().any(|r| matches!(
            r.event,
            TraceEvent::Watchdog {
                kind: StallKind::RetryLoop
            }
        )));
    }

    #[test]
    fn schedule_orders_are_valid_permutations() {
        for n in [0usize, 1, 2, 7, 16] {
            for policy in [
                SchedulePolicy::Identity,
                SchedulePolicy::Reversed,
                SchedulePolicy::Shuffled { seed: 42 },
                SchedulePolicy::Explicit((0..n).rev().collect()),
            ] {
                let mut o = policy.order(n);
                o.sort_unstable();
                assert_eq!(o, (0..n).collect::<Vec<_>>(), "{policy:?} n={n}");
            }
        }
        assert_eq!(SchedulePolicy::Identity.order(4), vec![0, 1, 2, 3]);
        assert_eq!(SchedulePolicy::Reversed.order(4), vec![3, 2, 1, 0]);
        assert_eq!(
            SchedulePolicy::Shuffled { seed: 7 }.order(16),
            SchedulePolicy::Shuffled { seed: 7 }.order(16),
            "same seed, same order"
        );
        assert_ne!(
            SchedulePolicy::Shuffled { seed: 7 }.order(16),
            SchedulePolicy::Shuffled { seed: 8 }.order(16),
            "different seeds should disagree on 16 elements"
        );
        // A malformed explicit order falls back to identity.
        assert_eq!(
            SchedulePolicy::Explicit(vec![0, 0, 1]).order(3),
            vec![0, 1, 2]
        );
        assert_eq!(SchedulePolicy::Explicit(vec![1, 0]).order(3), vec![0, 1, 2]);
    }

    #[test]
    fn identity_schedule_is_bit_identical_to_default() {
        let run = |rt: &mut Runtime| {
            let mut arr =
                SimArray::<f64>::from_elem(&mut rt.machine, MemClass::FarShared, 512, 0.0);
            let rep = rt.fork_join(8, &Placement::Uniform, |ctx| {
                for i in ctx.chunk(512) {
                    ctx.update(&mut arr, i, |v| v + 1.0);
                }
            });
            (rep.elapsed, rep.busy.clone(), *rt.machine.stats())
        };
        let mut plain = Runtime::spp1000(2);
        let mut identity = Runtime::spp1000(2).with_schedule(SchedulePolicy::Identity);
        assert_eq!(run(&mut plain), run(&mut identity));
    }

    #[test]
    fn permuted_schedules_agree_on_disjoint_work() {
        // Chunked (owner-computes) work must be schedule-invariant:
        // same data, same flops, same per-thread busy times.
        let run = |policy: SchedulePolicy| {
            let mut rt = Runtime::spp1000(2).with_schedule(policy);
            let mut arr =
                SimArray::<f64>::from_elem(&mut rt.machine, MemClass::FarShared, 512, 0.0);
            let rep = rt.fork_join(8, &Placement::Uniform, |ctx| {
                for i in ctx.chunk(512) {
                    ctx.write(&mut arr, i, i as f64);
                }
                ctx.flops(100);
            });
            (rep.busy.clone(), rep.flops, arr.into_host())
        };
        let base = run(SchedulePolicy::Identity);
        assert_eq!(base, run(SchedulePolicy::Reversed));
        assert_eq!(base, run(SchedulePolicy::Shuffled { seed: 3 }));
    }

    #[test]
    fn phased_region_orders_cross_thread_reads() {
        // Phase 0: every thread writes its own slot. Phase 1: every
        // thread reads its neighbor's slot — only safe because the
        // inter-phase barrier orders the two.
        let mut rt = Runtime::spp1000(1);
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            4,
            0.0,
        );
        let mut seen = vec![0.0; 4];
        let rep = rt.team_fork_join_phases(&team, 2, |ctx, phase| {
            if phase == 0 {
                ctx.write(&mut arr, ctx.tid, ctx.tid as f64 + 1.0);
            } else {
                seen[ctx.tid] = ctx.read(&arr, (ctx.tid + 1) % 4);
            }
        });
        assert_eq!(seen, vec![2.0, 3.0, 4.0, 1.0]);
        assert!(rep.elapsed > 0);
        assert_eq!(rep.busy.len(), 4);
    }

    #[test]
    fn phase_barrier_costs_time() {
        let elapsed = |phases: usize| {
            let mut rt = Runtime::spp1000(1);
            let team = Team::place(rt.machine.config(), 8, &Placement::HighLocality);
            rt.team_fork_join_phases(&team, phases, |ctx, _| ctx.flops(100))
                .elapsed
        };
        // Two phases do twice the compute plus one barrier.
        assert!(elapsed(2) > 2 * 100 / 2, "sanity");
        assert!(
            elapsed(2) > elapsed(1) + 100,
            "the inter-phase barrier must cost real cycles"
        );
    }

    #[test]
    fn single_phase_region_matches_team_fork_join() {
        let run = |phased: bool| {
            let mut rt = Runtime::spp1000(2);
            let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
            let rep = if phased {
                rt.team_fork_join_phases(&team, 1, |ctx, _| ctx.flops(500))
            } else {
                rt.team_fork_join(&team, |ctx| ctx.flops(500))
            };
            (
                rep.elapsed,
                rep.busy.clone(),
                rep.start.clone(),
                *rt.machine.stats(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiled_phases_are_bit_identical_to_plain_phases() {
        let body = |ctx: &mut ThreadCtx<Machine>, phase: usize| {
            ctx.flops(200 * (ctx.tid as u64 + 1) + 50 * phase as u64);
        };
        let mut plain = Runtime::spp1000(2);
        let team = Team::place(plain.machine.config(), 8, &Placement::Uniform);
        let rep_p = plain.team_fork_join_phases(&team, 3, body);

        let mut prof = Runtime::spp1000(2);
        let team2 = Team::place(prof.machine.config(), 8, &Placement::Uniform);
        let (rep_q, intervals) = prof.team_fork_join_phases_profiled(&team2, 3, body);

        assert_eq!(plain.machine.clock(), prof.machine.clock());
        assert_eq!(plain.machine.stats, prof.machine.stats);
        assert_eq!(rep_p.elapsed, rep_q.elapsed);
        assert_eq!(rep_p.busy, rep_q.busy);
        assert_eq!(rep_p.start, rep_q.start);
        assert_eq!(rep_p.join.release, rep_q.join.release);
        assert_eq!(intervals.len(), 3);
    }

    #[test]
    fn interval_decomposition_reconciles_with_the_region_report() {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), 8, &Placement::Uniform);
        let mut arr =
            SimArray::<f64>::from_elem(&mut rt.machine, spp_core::MemClass::FarShared, 4096, 0.0);
        let (rep, intervals) = rt.team_fork_join_phases_profiled(&team, 3, |ctx, phase| {
            // Unbalanced: higher tids touch more remote lines.
            let n = 64 * (ctx.tid + 1) + 16 * phase;
            for i in 0..n {
                arr.write(ctx.machine, ctx.cpu, (ctx.tid * 512 + i) % 4096, 1.0);
                ctx.clock += 1;
            }
        });
        assert_eq!(intervals.len(), 3);
        let n = team.len();
        for tid in 0..n {
            // Total busy = per-interval body time plus every
            // inter-phase barrier wait (the join wait is not busy).
            let body: Cycles = intervals.iter().map(|iv| iv.busy[tid]).sum();
            let waits: Cycles = intervals[..intervals.len() - 1]
                .iter()
                .map(|iv| iv.stall[tid])
                .sum();
            assert_eq!(rep.busy[tid], body + waits, "tid {tid}");
        }
        let last = intervals.last().unwrap();
        assert_eq!(last.critical_arrival(), rep.join.last_arrival);
        for iv in &intervals {
            // The straggler is the interval's last arrival, and other
            // threads' waits are consistent with it.
            let max = *iv.arrival.iter().max().unwrap();
            assert_eq!(iv.arrival[iv.straggler], max);
            // Remote-heavy traffic: dominant level must be a miss.
            assert_ne!(iv.dominant, spp_core::heat::ServiceLevel::Hit);
        }
        // Interval 0 has no release skew yet, so the unbalanced body
        // makes the top tid the straggler there.
        assert_eq!(intervals[0].straggler, n - 1);
        let table = crate::interval::intervals_report(&intervals);
        assert_eq!(table.lines().count(), 1 + intervals.len());
    }

    #[test]
    fn profiled_phases_emit_straggler_events_when_tracing() {
        let mut rt = Runtime::new(Machine::spp1000(1).with_tracing());
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let (_, intervals) = rt.team_fork_join_phases_profiled(&team, 2, |ctx, _| {
            ctx.flops(100 * (ctx.tid as u64 + 1))
        });
        let stragglers: Vec<_> = rt
            .machine
            .trace_events()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::Straggler { .. }))
            .collect();
        assert_eq!(stragglers.len(), intervals.len());
        assert_eq!(stragglers[0].cpu, intervals[0].straggler_cpu());
    }

    #[test]
    fn phased_clocks_carry_across_phases() {
        let mut rt = Runtime::spp1000(1);
        let team = Team::place(rt.machine.config(), 2, &Placement::HighLocality);
        let mut clocks = Vec::new();
        rt.team_fork_join_phases(&team, 2, |ctx, phase| {
            ctx.flops(100);
            clocks.push((phase, ctx.tid, ctx.clock()));
        });
        // Phase-1 clocks include phase-0 work plus the barrier.
        let p0: Vec<_> = clocks.iter().filter(|c| c.0 == 0).collect();
        let p1: Vec<_> = clocks.iter().filter(|c| c.0 == 1).collect();
        for (a, b) in p0.iter().zip(&p1) {
            assert!(b.2 > a.2 + 100, "{clocks:?}");
        }
    }

    #[test]
    fn race_detection_flags_nothing_on_disjoint_regions() {
        use spp_core::Machine;
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        let mut arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            256,
            0.0,
        );
        arr.set_label(&mut rt.machine, "arr");
        rt.fork_join(4, &Placement::HighLocality, |ctx| {
            for i in ctx.chunk(256) {
                ctx.update(&mut arr, i, |v| v + 1.0);
            }
        });
        let report = rt.machine.race_report();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.regions, 1);
        assert!(report.accesses > 0);
    }

    #[test]
    fn race_detection_flags_a_real_conflict() {
        use spp_core::Machine;
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        let mut shared = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            1,
            0.0,
        );
        shared.set_label(&mut rt.machine, "acc");
        rt.fork_join(4, &Placement::HighLocality, |ctx| {
            // Every thread read-modify-writes element 0 unguarded.
            ctx.update(&mut shared, 0, |v| v + 1.0);
        });
        let report = rt.machine.race_report();
        assert!(!report.is_clean());
        assert!(report.total_races > 0, "{report}");
        assert!(report.races[0].to_string().contains("acc[0]"), "{report}");
    }

    #[test]
    fn a_trace_port_passes_runtime_events_to_the_inner_sinks() {
        use spp_core::{Machine, TraceEvent, TracePort};
        let m = Machine::spp1000(1).with_tracing().with_race_detection();
        let mut rt = Runtime::new(TracePort::new(m));
        let mut shared = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            1,
            0.0,
        );
        shared.set_label(&mut rt.machine, "acc");
        rt.fork_join(4, &Placement::HighLocality, |ctx| {
            ctx.update(&mut shared, 0, |v| v + 1.0);
        });
        let inner = rt.machine.inner();
        assert!(inner
            .trace_events()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::ForkSpan { threads: 4, .. })));
        let report = inner.race_report();
        assert_eq!(report.regions, 1, "{report}");
        assert!(report.total_races > 0, "{report}");
        assert!(report.races[0].to_string().contains("acc[0]"), "{report}");
    }

    #[test]
    fn gated_updates_do_not_race() {
        use spp_core::Machine;
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        let mut gate = crate::gate::SimGate::new(&mut rt.machine, NodeId(0));
        let mut shared = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            1,
            0.0,
        );
        rt.fork_join(4, &Placement::HighLocality, |ctx| {
            gate.critical(ctx, |ctx| ctx.update(&mut shared, 0, |v| v + 1.0));
        });
        let report = rt.machine.race_report();
        assert!(report.is_clean(), "{report}");
        assert_eq!(shared.host()[0], 4.0);
    }

    #[test]
    fn phased_writes_then_reads_do_not_race() {
        use spp_core::Machine;
        let mut rt = Runtime::new(Machine::spp1000(1).with_race_detection());
        let team = Team::place(rt.machine.config(), 4, &Placement::HighLocality);
        let mut arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            4,
            0.0,
        );
        rt.team_fork_join_phases(&team, 2, |ctx, phase| {
            if phase == 0 {
                ctx.write(&mut arr, ctx.tid, 1.0);
            } else {
                let _ = ctx.read(&arr, (ctx.tid + 1) % 4);
            }
        });
        let report = rt.machine.race_report();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn update_reads_then_writes() {
        let mut rt = Runtime::spp1000(1);
        let mut arr = SimArray::<f64>::from_elem(
            &mut rt.machine,
            MemClass::NearShared { node: NodeId(0) },
            4,
            1.0,
        );
        rt.serial(CpuId(0), |ctx| {
            ctx.update(&mut arr, 2, |v| v + 2.5);
        });
        assert_eq!(arr.host()[2], 3.5);
    }
}
