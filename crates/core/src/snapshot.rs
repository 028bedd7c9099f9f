//! Versioned, deterministic checkpoint/restart for the simulator.
//!
//! [`Snapshot::capture`] serializes a [`Machine`]'s complete mutable
//! state — the address-space layout, every cache/GCB/directory/SCI
//! entry, the [`crate::MemStats`] counters, the cumulative clock, the
//! hard-fault progress, and the fault plan's draw counters — into a
//! compact little-endian byte stream (the same encoding idiom as
//! [`crate::TracePort`]'s traces). [`Snapshot::restore`] rebuilds a
//! machine that continues **bit-identically**: a run snapshotted
//! mid-stream and resumed produces exactly the cycles and stats of
//! the uninterrupted run (asserted by this module's equivalence
//! tests and `tests/checkpoint.rs`).
//!
//! The stream is versioned (magic `SPPSNAP1`) and fingerprints the
//! machine geometry **and coherence protocol**: a one-byte
//! [`crate::ProtocolKind`] tag follows the geometry, the stream
//! carries a per-protocol state section (the DASH directories, GCBs
//! and SCI lists under DASH+SCI; a snoop-filter line count under MESI
//! and Dragon, whose holder sets are an invariant-determined function
//! of the cache contents and are rebuilt from them), and restoring
//! against a different configuration fails with a typed
//! [`SimError::SnapshotMismatch`] instead of silently diverging.
//! [`Snapshot::restore`] adopts the captured protocol (the stream is
//! self-describing); [`Snapshot::restore_expecting`] additionally
//! rejects a protocol tag different from the caller's expectation
//! with the same typed error. The *probability configuration* of the fault
//! plan is deliberately not serialized: the caller supplies the same
//! plan it started the run with (exactly as it supplies the same
//! [`MachineConfig`]), and the snapshot restores the plan's
//! *progress* — draw counters and which hard faults have fired. The
//! supplied plan is validated against the captured seed and schedule
//! length.

use crate::cache::{Cache, LineState, MAX_LINE};
use crate::config::MachineConfig;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::machine::Machine;
use crate::mem::MemClass;
use crate::protocol::ProtocolKind;
use crate::stats::MemStats;

const MAGIC: &[u8; 8] = b"SPPSNAP1";
const VERSION: u16 = 3;

/// Byte offset of the protocol tag: magic (8) + version (2) +
/// geometry fingerprint (3×u32 + 4×u64 = 44).
const PROTOCOL_OFFSET: usize = 54;

/// A captured machine state (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

fn corrupt(detail: impl Into<String>) -> SimError {
    SimError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

fn mismatch(detail: impl Into<String>) -> SimError {
    SimError::SnapshotMismatch {
        detail: detail.into(),
    }
}

fn w8(v: &mut Vec<u8>, x: u8) {
    v.push(x);
}

fn w16(v: &mut Vec<u8>, x: u16) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn w32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn w64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn state_code(s: LineState) -> u8 {
    match s {
        LineState::Invalid => 0,
        LineState::Shared => 1,
        LineState::Modified => 2,
        LineState::Exclusive => 3,
        LineState::OwnedShared => 4,
    }
}

fn code_state(c: u8) -> Result<LineState, SimError> {
    match c {
        1 => Ok(LineState::Shared),
        2 => Ok(LineState::Modified),
        3 => Ok(LineState::Exclusive),
        4 => Ok(LineState::OwnedShared),
        _ => Err(corrupt(format!("invalid line-state code {c}"))),
    }
}

/// Little-endian stream reader over the snapshot bytes.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        if self.pos + n > self.b.len() {
            return Err(corrupt(format!(
                "truncated stream: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len() - self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SimError> {
        // take(2) already length-checked the slice, so the array
        // conversion cannot fail.
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("take(2) returns 2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) returns 4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) returns 8 bytes"),
        ))
    }
}

fn write_mem_class(v: &mut Vec<u8>, class: MemClass) {
    match class {
        MemClass::ThreadPrivate { home } => {
            w8(v, 0);
            w16(v, home.0);
        }
        MemClass::NodePrivate { node } => {
            w8(v, 1);
            w8(v, node.0);
        }
        MemClass::NearShared { node } => {
            w8(v, 2);
            w8(v, node.0);
        }
        MemClass::FarShared => w8(v, 3),
        MemClass::BlockShared { block_bytes } => {
            w8(v, 4);
            w64(v, block_bytes as u64);
        }
    }
}

fn read_mem_class(r: &mut Reader<'_>) -> Result<MemClass, SimError> {
    Ok(match r.u8()? {
        0 => MemClass::ThreadPrivate {
            home: crate::config::FuId(r.u16()?),
        },
        1 => MemClass::NodePrivate {
            node: crate::config::NodeId(r.u8()?),
        },
        2 => MemClass::NearShared {
            node: crate::config::NodeId(r.u8()?),
        },
        3 => MemClass::FarShared,
        4 => MemClass::BlockShared {
            block_bytes: r.u64()? as usize,
        },
        t => return Err(corrupt(format!("invalid memory-class tag {t}"))),
    })
}

fn write_cache(v: &mut Vec<u8>, c: &Cache) {
    let entries: Vec<(u64, LineState)> = c.entries().collect();
    w64(v, c.capacity() as u64);
    w32(v, entries.len() as u32);
    for (line, state) in entries {
        w64(v, line);
        w8(v, state_code(state));
    }
}

/// Refill `c` from the stream, rebuilding it at the captured capacity
/// (by the storage rule for a `num_cpus`-CPU machine) when that
/// differs, as a degraded GCB's does.
fn read_cache_into(r: &mut Reader<'_>, c: &mut Cache, num_cpus: usize) -> Result<(), SimError> {
    let cap = r.u64()? as usize;
    if !cap.is_power_of_two() {
        return Err(corrupt(format!("cache capacity {cap} not a power of two")));
    }
    // Bound the rebuild: a corrupted capacity field must become a typed
    // error, not a gigantic cache allocation. 2^24 lines is far
    // beyond any machine this simulator models.
    if cap > 1 << 24 {
        return Err(corrupt(format!("cache capacity {cap} implausibly large")));
    }
    if cap != c.capacity() {
        *c = Cache::for_machine(num_cpus, cap);
    }
    let n = r.u32()?;
    for _ in 0..n {
        let line = r.u64()?;
        let state = code_state(r.u8()?)?;
        if line > MAX_LINE {
            return Err(corrupt(format!("cache line {line:#x} out of range")));
        }
        if c.fill(line, state).is_some() {
            return Err(corrupt(format!(
                "cache entries conflict on line {line:#x} (slot collision)"
            )));
        }
    }
    Ok(())
}

fn stats_fields(s: &MemStats) -> [u64; 21] {
    [
        s.reads,
        s.writes,
        s.hits,
        s.local_misses,
        s.gcb_hits,
        s.sci_fetches,
        s.remote_dirty_fetches,
        s.c2c_transfers,
        s.upgrades,
        s.invalidations,
        s.sci_invalidations,
        s.evictions,
        s.writebacks,
        s.gcb_rollouts,
        s.uncached_ops,
        s.ring_stalls,
        s.link_reroutes,
        s.snoops,
        s.updates,
        s.recoveries,
        s.recovery_retries,
    ]
}

fn stats_from_fields(f: [u64; 21]) -> MemStats {
    MemStats {
        reads: f[0],
        writes: f[1],
        hits: f[2],
        local_misses: f[3],
        gcb_hits: f[4],
        sci_fetches: f[5],
        remote_dirty_fetches: f[6],
        c2c_transfers: f[7],
        upgrades: f[8],
        invalidations: f[9],
        sci_invalidations: f[10],
        evictions: f[11],
        writebacks: f[12],
        gcb_rollouts: f[13],
        uncached_ops: f[14],
        ring_stalls: f[15],
        link_reroutes: f[16],
        snoops: f[17],
        updates: f[18],
        recoveries: f[19],
        recovery_retries: f[20],
    }
}

impl Snapshot {
    /// Capture the complete mutable state of `m`.
    pub fn capture(m: &Machine) -> Snapshot {
        let mut v = Vec::with_capacity(4096);
        v.extend_from_slice(MAGIC);
        w16(&mut v, VERSION);

        // Geometry fingerprint.
        let cfg = m.config();
        w32(&mut v, cfg.hypernodes as u32);
        w32(&mut v, cfg.fus_per_node as u32);
        w32(&mut v, cfg.cpus_per_fu as u32);
        w64(&mut v, cfg.cache_bytes as u64);
        w64(&mut v, cfg.line_bytes as u64);
        w64(&mut v, cfg.page_bytes as u64);
        w64(&mut v, cfg.gcb_bytes as u64);

        // Coherence protocol (offset `PROTOCOL_OFFSET`; the stream's
        // state sections are protocol-specific).
        w8(&mut v, m.protocol.tag());

        // Degraded-mode state and the clock that drives triggering.
        w64(&mut v, m.clock);
        w32(&mut v, m.dead_cpus.len() as u32);
        for word in &m.dead_cpus {
            w64(&mut v, *word);
        }
        w8(&mut v, m.failed_rings);
        w64(&mut v, (m.degraded_gcbs & u128::from(u64::MAX)) as u64);
        w64(&mut v, (m.degraded_gcbs >> 64) as u64);
        w64(&mut v, m.hard_applied);

        // Event counters.
        for f in stats_fields(&m.stats) {
            w64(&mut v, f);
        }

        // Address-space layout (replayed through try_alloc on restore).
        let regions = m.space.regions();
        w32(&mut v, regions.len() as u32);
        for r in regions {
            write_mem_class(&mut v, r.class);
            w64(&mut v, r.base);
            w64(&mut v, r.len);
        }

        // CPU caches and GCBs (capacity stored per cache: a degraded
        // GCB is smaller than a fresh machine's).
        w32(&mut v, m.caches.len() as u32);
        for c in &m.caches {
            write_cache(&mut v, c);
        }
        w32(&mut v, m.gcbs.len() as u32);
        for g in &m.gcbs {
            write_cache(&mut v, g);
        }

        // Node directories. Machines with dense directories (at most
        // `DENSE_MAX_CPUS` CPUs) list their lines in ascending order,
        // sparse ones in map order; restore does not depend on the
        // order, and neither the format nor `coherence_digest` changes.
        w32(&mut v, m.dirs.len() as u32);
        for d in &m.dirs {
            let lines: Vec<u64> = d.lines().collect();
            w32(&mut v, lines.len() as u32);
            for line in lines {
                let e = d.get(line).expect("live directory line");
                w64(&mut v, line);
                w8(&mut v, e.sharers);
                w8(&mut v, e.owner.map_or(0xff, |o| o));
            }
        }

        // SCI reference trees (list order is protocol state).
        let sci_lines: Vec<u64> = m.sci.lines().collect();
        w32(&mut v, sci_lines.len() as u32);
        for line in sci_lines {
            let e = m.sci.get(line).expect("live SCI line");
            w64(&mut v, line);
            w8(&mut v, e.list.len() as u8);
            for n in &e.list {
                w8(&mut v, *n);
            }
            w8(&mut v, e.dirty.map_or(0xff, |d| d));
        }

        // Per-protocol state section. The snooping backends' filter is
        // an invariant-determined function of the cache contents
        // (holders of a line == CPUs caching it valid), so only its
        // live-line count is stored, as a restore-time cross-check;
        // the filter itself is rebuilt from the caches.
        match m.protocol {
            ProtocolKind::DashSci => {}
            ProtocolKind::Mesi | ProtocolKind::Dragon => {
                w32(&mut v, m.snoop.live_lines() as u32);
            }
        }

        // Fault-plan progress (the plan's configuration is supplied by
        // the caller on restore and validated against this).
        match m.fault_plan() {
            None => w8(&mut v, 0),
            Some(p) => {
                w8(&mut v, 1);
                w64(&mut v, p.seed());
                for c in p.draws() {
                    w64(&mut v, c);
                }
                w32(&mut v, p.hard_faults().len() as u32);
            }
        }

        Snapshot { bytes: v }
    }

    /// The raw byte stream (write it to disk, hash it, ship it).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the snapshot, returning the byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Wrap a byte stream, validating the magic and version header.
    /// Full structural validation happens in [`Snapshot::restore`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SimError> {
        if bytes.len() < MAGIC.len() + 2 {
            return Err(corrupt("stream shorter than the header"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic (not an SPP snapshot)"));
        }
        let ver = u16::from_le_bytes([bytes[8], bytes[9]]);
        if ver != VERSION {
            return Err(mismatch(format!(
                "snapshot version {ver}, this build reads {VERSION}"
            )));
        }
        Ok(Snapshot { bytes })
    }

    /// Write the snapshot stream to `path` (checkpoint file). The
    /// parent directory must exist. The write is atomic (temp file in
    /// the same directory, then rename), so a reader — or a process
    /// killed mid-checkpoint — never observes a torn snapshot.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::atomic_write(path, &self.bytes)
    }

    /// Read a snapshot stream back from `path`, validating the header
    /// (see [`Snapshot::from_bytes`]). I/O errors are reported as
    /// [`SimError::SnapshotCorrupt`] with the path in the detail.
    pub fn load(path: &std::path::Path) -> Result<Snapshot, SimError> {
        let bytes = std::fs::read(path)
            .map_err(|e| corrupt(format!("cannot read {}: {e}", path.display())))?;
        Snapshot::from_bytes(bytes)
    }

    /// Rebuild a machine from this snapshot.
    ///
    /// `cfg` and `plan` must be the configuration and fault plan the
    /// captured run started with; geometry and plan identity (seed,
    /// schedule length) are validated. The restored machine continues
    /// bit-identically to the captured one. The coherence checker is
    /// re-armed by the usual rules (`SPP_CHECK`, tests) rather than
    /// restored — enable it with [`Machine::with_checker`] if needed.
    pub fn restore(
        &self,
        cfg: MachineConfig,
        plan: Option<FaultPlan>,
    ) -> Result<Machine, SimError> {
        let mut r = Reader {
            b: &self.bytes,
            pos: MAGIC.len() + 2,
        };
        let mut m = Machine::try_new(cfg).map_err(SimError::Config)?;

        // Geometry fingerprint.
        let got = (
            r.u32()? as usize,
            r.u32()? as usize,
            r.u32()? as usize,
            r.u64()? as usize,
            r.u64()? as usize,
            r.u64()? as usize,
            r.u64()? as usize,
        );
        let cfg = m.config();
        let want = (
            cfg.hypernodes,
            cfg.fus_per_node,
            cfg.cpus_per_fu,
            cfg.cache_bytes,
            cfg.line_bytes,
            cfg.page_bytes,
            cfg.gcb_bytes,
        );
        if got != want {
            return Err(mismatch(format!(
                "geometry {got:?} captured, {want:?} supplied"
            )));
        }

        let tag = r.u8()?;
        m.protocol = ProtocolKind::from_tag(tag)
            .ok_or_else(|| corrupt(format!("unknown protocol tag {tag}")))?;

        m.clock = r.u64()?;
        let ndead = r.u32()? as usize;
        if ndead != m.dead_cpus.len() {
            return Err(mismatch(format!(
                "{ndead} dead-CPU words captured, machine has {}",
                m.dead_cpus.len()
            )));
        }
        for word in &mut m.dead_cpus {
            *word = r.u64()?;
        }
        m.failed_rings = r.u8()?;
        m.degraded_gcbs = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
        m.hard_applied = r.u64()?;

        let mut fields = [0u64; 21];
        for f in &mut fields {
            *f = r.u64()?;
        }
        m.stats = stats_from_fields(fields);

        // Replay the allocation sequence; the deterministic allocator
        // must reproduce the captured layout exactly.
        let nregions = r.u32()?;
        for i in 0..nregions {
            let class = read_mem_class(&mut r)?;
            let base = r.u64()?;
            let len = r.u64()?;
            let region = m.space.try_alloc(class, len)?;
            if region.base != base {
                return Err(mismatch(format!(
                    "region {i} replayed at {:#x}, captured at {base:#x}",
                    region.base
                )));
            }
        }

        let ncaches = r.u32()? as usize;
        if ncaches != m.caches.len() {
            return Err(mismatch(format!(
                "{ncaches} CPU caches captured, machine has {}",
                m.caches.len()
            )));
        }
        let cpus = m.cfg.num_cpus();
        for c in &mut m.caches {
            read_cache_into(&mut r, c, cpus)?;
        }
        let ngcbs = r.u32()? as usize;
        if ngcbs != m.gcbs.len() {
            return Err(mismatch(format!(
                "{ngcbs} GCBs captured, machine has {}",
                m.gcbs.len()
            )));
        }
        for g in &mut m.gcbs {
            read_cache_into(&mut r, g, cpus)?;
        }

        let ndirs = r.u32()? as usize;
        if ndirs != m.dirs.len() {
            return Err(mismatch(format!(
                "{ndirs} directories captured, machine has {}",
                m.dirs.len()
            )));
        }
        for d in &mut m.dirs {
            let nlines = r.u32()?;
            for _ in 0..nlines {
                let line = r.u64()?;
                let sharers = r.u8()?;
                let owner = r.u8()?;
                // A directory only tracks lines of mapped memory (and a
                // dense one indexes its pages by line), so anything
                // else is stream corruption.
                let mapped = line
                    .checked_mul(m.cfg.line_bytes as u64)
                    .is_some_and(|a| m.space.try_home_of(a).is_ok());
                if !mapped {
                    return Err(corrupt(format!(
                        "directory line {line:#x} is not in mapped memory"
                    )));
                }
                // The sharer mask is 8 bits wide, so a valid owner is
                // 0..8; anything else is stream corruption (and would
                // overflow the `1 << owner` shift inside `set_owner`).
                if owner != 0xff && owner >= 8 {
                    return Err(corrupt(format!(
                        "directory owner {owner} out of range (node has 8 CPUs)"
                    )));
                }
                if owner != 0xff {
                    d.set_owner(line, owner);
                }
                for b in 0..8u8 {
                    if sharers & (1 << b) != 0 && owner != b {
                        d.add_sharer(line, b);
                    }
                }
            }
        }

        let nsci = r.u32()?;
        let nnodes = m.config().hypernodes as u8;
        for _ in 0..nsci {
            let line = r.u64()?;
            let llen = r.u8()? as usize;
            let mut list = Vec::with_capacity(llen);
            for _ in 0..llen {
                let n = r.u8()?;
                if n >= nnodes {
                    return Err(corrupt(format!(
                        "SCI sharer node {n} out of range ({nnodes} hypernodes)"
                    )));
                }
                list.push(n);
            }
            // add_sharer prepends: insert in reverse to rebuild the
            // exact list order (it is protocol state — walks are
            // priced serially along it).
            for n in list.iter().rev() {
                m.sci.add_sharer(line, *n);
            }
            let dirty = r.u8()?;
            if dirty != 0xff && dirty >= nnodes {
                return Err(corrupt(format!(
                    "SCI dirty node {dirty} out of range ({nnodes} hypernodes)"
                )));
            }
            if dirty != 0xff {
                m.sci.set_dirty(line, dirty);
            }
        }

        // Per-protocol state section: rebuild the snooping backends'
        // holder filter from the restored caches (holders of a line
        // are exactly the CPUs caching it valid — a checked protocol
        // invariant) and cross-check the captured live-line count.
        if matches!(m.protocol, ProtocolKind::Mesi | ProtocolKind::Dragon) {
            let captured_lines = r.u32()? as usize;
            for cpu in 0..m.caches.len() {
                let entries: Vec<u64> = m.caches[cpu].entries().map(|(l, _)| l).collect();
                for line in entries {
                    m.snoop.add(line, cpu as u16);
                }
            }
            if m.snoop.live_lines() != captured_lines {
                return Err(corrupt(format!(
                    "snoop filter rebuilt with {} live lines, {captured_lines} captured",
                    m.snoop.live_lines()
                )));
            }
        }

        // Fault-plan progress.
        let has_plan = r.u8()? != 0;
        match (has_plan, plan) {
            (false, None) => {}
            (false, Some(_)) => {
                return Err(mismatch(
                    "captured run had no fault plan, but one was supplied",
                ));
            }
            (true, None) => {
                return Err(mismatch(
                    "captured run had a fault plan; supply the same plan to restore",
                ));
            }
            (true, Some(mut p)) => {
                let seed = r.u64()?;
                let mut counters = [0u64; crate::fault::N_FAULT_SITES];
                for c in &mut counters {
                    *c = r.u64()?;
                }
                let nhard = r.u32()? as usize;
                if p.seed() != seed {
                    return Err(mismatch(format!(
                        "fault plan seed {} supplied, {seed} captured",
                        p.seed()
                    )));
                }
                if p.hard_faults().len() != nhard {
                    return Err(mismatch(format!(
                        "{} hard faults supplied, {nhard} captured",
                        p.hard_faults().len()
                    )));
                }
                p.restore_counters(counters);
                m.faults = Some(p);
            }
        }

        Ok(m)
    }

    /// The coherence protocol this snapshot was captured under.
    pub fn protocol(&self) -> Result<ProtocolKind, SimError> {
        let tag = *self
            .bytes
            .get(PROTOCOL_OFFSET)
            .ok_or_else(|| corrupt("stream shorter than the protocol tag"))?;
        ProtocolKind::from_tag(tag).ok_or_else(|| corrupt(format!("unknown protocol tag {tag}")))
    }

    /// [`Snapshot::restore`], additionally requiring the captured
    /// protocol to be `expect`. A checkpoint taken under one protocol
    /// is meaningless to another; callers that know which protocol
    /// they are resuming (e.g. a scenario spec's `[protocol]` table)
    /// use this to get a typed [`SimError::SnapshotMismatch`] instead
    /// of silently adopting the captured protocol.
    pub fn restore_expecting(
        &self,
        cfg: MachineConfig,
        plan: Option<FaultPlan>,
        expect: ProtocolKind,
    ) -> Result<Machine, SimError> {
        let got = self.protocol()?;
        if got != expect {
            return Err(mismatch(format!(
                "snapshot captured under protocol {got}, restore expected {expect}"
            )));
        }
        self.restore(cfg, plan)
    }
}

impl Machine {
    /// Capture this machine's state (see [`Snapshot::capture`]).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuId, NodeId};
    use crate::directory::Directory;
    use crate::latency::Cycles;

    /// A mixed cross-node access stream; `range` selects the slice of
    /// the stream to run so tests can split it around a checkpoint.
    fn drive(m: &mut Machine, range: std::ops::Range<u64>) -> Cycles {
        let far = if m.space.num_regions() == 0 {
            m.alloc(MemClass::FarShared, 1 << 16)
        } else {
            *m.space.regions().first().unwrap()
        };
        let mut total = 0;
        for i in range {
            let cpu = CpuId((i * 5 % 16) as u16);
            let a = far.addr((i * 104) % (1 << 16));
            total += m.read(cpu, a);
            if i % 3 == 0 {
                total += m.write(cpu, a);
            }
            if i % 17 == 0 {
                total += m.uncached_op(cpu, far.addr(0));
            }
        }
        total
    }

    fn faulty_plan() -> FaultPlan {
        FaultPlan::new(77)
            .with_ring_stalls(0.3, 400)
            .with_cpu_failure(5, 30_000)
            .with_link_failure(2, 15_000, 600)
            .with_gcb_degrade(1, 45_000)
    }

    #[test]
    fn resume_is_bit_identical_to_straight_through() {
        let straight = {
            let mut m = Machine::spp1000(2).with_faults(faulty_plan());
            let a = drive(&mut m, 0..600);
            let b = drive(&mut m, 600..1200);
            (a, b, m.stats, m.clock(), m.fault_plan().unwrap().draws())
        };
        let resumed = {
            let mut m = Machine::spp1000(2).with_faults(faulty_plan());
            let a = drive(&mut m, 0..600);
            let snap = m.snapshot();
            let snap = Snapshot::from_bytes(snap.into_bytes()).expect("header ok");
            let mut m2 = snap
                .restore(MachineConfig::spp1000(2), Some(faulty_plan()))
                .expect("restore");
            let b = drive(&mut m2, 600..1200);
            (a, b, m2.stats, m2.clock(), m2.fault_plan().unwrap().draws())
        };
        assert_eq!(straight, resumed, "resume diverged from straight-through");
    }

    #[test]
    fn restore_passes_the_coherence_checker() {
        let mut m = Machine::spp1000(2).with_faults(faulty_plan());
        drive(&mut m, 0..800);
        let m2 = m
            .snapshot()
            .restore(MachineConfig::spp1000(2), Some(faulty_plan()))
            .expect("restore");
        assert!(m2.check_all().is_empty(), "restored state inconsistent");
        assert_eq!(m2.stats, m.stats);
        assert_eq!(m2.dead_cpus, m.dead_cpus);
        assert_eq!(m2.failed_rings, m.failed_rings);
        assert_eq!(m2.degraded_gcbs, m.degraded_gcbs);
    }

    #[test]
    fn restore_without_faults_roundtrips() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..200);
        let m2 = m
            .snapshot()
            .restore(MachineConfig::spp1000(2), None)
            .expect("restore");
        assert_eq!(m2.stats, m.stats);
        assert_eq!(m2.clock(), m.clock());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..10);
        let mut bytes = m.snapshot().into_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..50);
        let mut bytes = m.snapshot().into_bytes();
        bytes.truncate(bytes.len() / 2);
        let snap = Snapshot::from_bytes(bytes).expect("header intact");
        assert!(matches!(
            snap.restore(MachineConfig::spp1000(2), None),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..10);
        let snap = m.snapshot();
        assert!(matches!(
            snap.restore(MachineConfig::spp1000(4), None),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_fault_plan_is_rejected() {
        let mut m = Machine::spp1000(2).with_faults(faulty_plan());
        drive(&mut m, 0..10);
        let snap = m.snapshot();
        assert!(matches!(
            snap.restore(MachineConfig::spp1000(2), None),
            Err(SimError::SnapshotMismatch { .. })
        ));
        let wrong_seed = FaultPlan::new(78);
        assert!(matches!(
            snap.restore(MachineConfig::spp1000(2), Some(wrong_seed)),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_after_hard_faults_preserves_degraded_state() {
        let plan = FaultPlan::new(3)
            .with_cpu_failure(2, 0)
            .with_gcb_degrade(0, 0);
        let mut m = Machine::spp1000(2).with_faults(plan.clone());
        drive(&mut m, 0..100);
        assert!(m.is_cpu_dead(CpuId(2)));
        assert_eq!(m.degraded_nodes(), 1);
        let m2 = m
            .snapshot()
            .restore(MachineConfig::spp1000(2), Some(plan))
            .expect("restore");
        assert!(m2.is_cpu_dead(CpuId(2)));
        assert_eq!(m2.degraded_nodes(), 1);
        assert!(!m2.hard_faults_pending());
        // And the degraded machine keeps running identically.
        let _ = NodeId(0);
        assert!(m2.check_all().is_empty());
    }

    #[test]
    fn snapshot_round_trips_under_every_protocol() {
        for kind in ProtocolKind::ALL {
            let mut m = Machine::spp1000(2).with_protocol(kind);
            drive(&mut m, 0..400);
            let snap = m.snapshot();
            assert_eq!(snap.protocol().unwrap(), kind);
            let m2 = snap
                .restore(MachineConfig::spp1000(2), None)
                .expect("restore");
            assert_eq!(m2.protocol(), kind);
            assert_eq!(m2.stats, m.stats);
            assert_eq!(m2.clock(), m.clock());
            assert!(m2.check_all().is_empty(), "{kind}: restored inconsistent");
            // Capturing the restored machine and restoring *that* is a
            // fixed point (byte layouts may reorder map entries, but
            // the state they decode to must not drift).
            let m3 = m2
                .snapshot()
                .restore(MachineConfig::spp1000(2), None)
                .expect("second restore");
            assert_eq!(m3.protocol(), kind);
            assert_eq!(m3.stats, m.stats);
            assert_eq!(m3.clock(), m.clock());
            assert!(m3.check_all().is_empty());
        }
    }

    #[test]
    fn snooping_resume_is_bit_identical_to_straight_through() {
        for kind in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
            let straight = {
                let mut m = Machine::spp1000(2).with_protocol(kind);
                let a = drive(&mut m, 0..500);
                let b = drive(&mut m, 500..1000);
                (a, b, m.stats, m.clock())
            };
            let resumed = {
                let mut m = Machine::spp1000(2).with_protocol(kind);
                let a = drive(&mut m, 0..500);
                let mut m2 = m
                    .snapshot()
                    .restore_expecting(MachineConfig::spp1000(2), None, kind)
                    .expect("restore");
                let b = drive(&mut m2, 500..1000);
                (a, b, m2.stats, m2.clock())
            };
            assert_eq!(straight, resumed, "{kind}: resume diverged");
        }
    }

    #[test]
    fn restore_with_wrong_protocol_tag_is_a_typed_mismatch() {
        let mut m = Machine::spp1000(2).with_protocol(ProtocolKind::Mesi);
        drive(&mut m, 0..50);
        let snap = m.snapshot();
        let err = snap
            .restore_expecting(MachineConfig::spp1000(2), None, ProtocolKind::DashSci)
            .unwrap_err();
        match err {
            SimError::SnapshotMismatch { detail } => {
                assert!(
                    detail.contains("mesi") && detail.contains("dash-sci"),
                    "{detail}"
                );
            }
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
        // Self-describing restore still works on the same bytes.
        assert_eq!(
            snap.restore(MachineConfig::spp1000(2), None)
                .expect("restore")
                .protocol(),
            ProtocolKind::Mesi
        );
    }

    #[test]
    fn rollback_preserves_fired_and_pending_hard_faults_under_each_protocol() {
        for proto in ProtocolKind::ALL {
            // Probe the clean clock so the link failure can be pinned
            // strictly between the capture point and the end of the
            // run: fired-before-capture (cpu) and pending-at-capture
            // (link) states must both survive the rollback.
            let probe = {
                let mut m = Machine::spp1000(2).with_protocol(proto);
                let _ = drive(&mut m, 0..700);
                let mid = m.clock();
                let _ = drive(&mut m, 700..1400);
                (mid, m.clock())
            };
            let link_at = (probe.0 + probe.1) / 2;
            let plan = || {
                FaultPlan::new(5)
                    .with_cpu_failure(3, probe.0 / 4)
                    .with_link_failure(1, link_at, 700)
                    .with_inval_dups(0.05)
            };
            let straight = {
                let mut m = Machine::spp1000(2).with_protocol(proto).with_faults(plan());
                let a = drive(&mut m, 0..700);
                let b = drive(&mut m, 700..1400);
                (
                    a,
                    b,
                    m.stats,
                    m.clock(),
                    m.fault_plan().unwrap().draws(),
                    m.failed_rings(),
                )
            };
            let resumed = {
                let mut m = Machine::spp1000(2).with_protocol(proto).with_faults(plan());
                let a = drive(&mut m, 0..700);
                assert!(
                    m.is_cpu_dead(CpuId(3)),
                    "{proto}: cpu-fail fired pre-capture"
                );
                assert!(m.hard_faults_pending(), "{proto}: link-fail still pending");
                let mut m2 = m
                    .snapshot()
                    .restore_expecting(MachineConfig::spp1000(2), Some(plan()), proto)
                    .expect("restore");
                assert!(m2.is_cpu_dead(CpuId(3)), "{proto}: fired fault lost");
                assert!(
                    m2.hard_faults_pending(),
                    "{proto}: pending fault must survive rollback unfired"
                );
                // Restore must not re-fire the dead CPU's purge: its
                // eviction/writeback charges appear exactly once.
                assert_eq!(m2.stats.evictions, m.stats.evictions);
                assert_eq!(m2.stats.writebacks, m.stats.writebacks);
                let b = drive(&mut m2, 700..1400);
                (
                    a,
                    b,
                    m2.stats,
                    m2.clock(),
                    m2.fault_plan().unwrap().draws(),
                    m2.failed_rings(),
                )
            };
            assert_eq!(straight, resumed, "{proto}: rollback replay diverged");
            assert_ne!(straight.5, 0, "{proto}: link-fail never fired post-capture");
        }
    }

    #[test]
    fn transient_draw_counters_survive_the_snapshot_round_trip() {
        let plan = || {
            FaultPlan::new(23)
                .with_inval_drops(0.2)
                .with_inval_delays(0.2)
                .with_line_corruption(0.1)
        };
        let straight = {
            let mut m = Machine::spp1000(2).with_faults(plan());
            let a = drive(&mut m, 0..500);
            let b = drive(&mut m, 500..1000);
            (a, b, m.stats, m.clock(), m.fault_plan().unwrap().draws())
        };
        let resumed = {
            let mut m = Machine::spp1000(2).with_faults(plan());
            let a = drive(&mut m, 0..500);
            assert!(m.stats.recoveries > 0, "no transient landed pre-capture");
            let mut m2 = m
                .snapshot()
                .restore(MachineConfig::spp1000(2), Some(plan()))
                .expect("restore");
            assert_eq!(
                m2.fault_plan().unwrap().draws(),
                m.fault_plan().unwrap().draws(),
                "per-site draw counters lost in the round trip"
            );
            assert_eq!(m2.stats.recoveries, m.stats.recoveries);
            assert_eq!(m2.stats.recovery_retries, m.stats.recovery_retries);
            let b = drive(&mut m2, 500..1000);
            (a, b, m2.stats, m2.clock(), m2.fault_plan().unwrap().draws())
        };
        assert_eq!(straight, resumed, "transient resume diverged");
        // The new sites really drew through the snapshot boundary.
        let draws = straight.4;
        assert!(draws[4] > 0 && draws[6] > 0 && draws[9] > 0, "{draws:?}");
    }

    /// Fallible twin of [`drive`]: surfaces `RecoveryExhausted` with
    /// the step it happened on instead of panicking.
    fn try_drive(m: &mut Machine, range: std::ops::Range<u64>) -> Result<(), (u64, SimError)> {
        let far = if m.space.num_regions() == 0 {
            m.alloc(MemClass::FarShared, 1 << 16)
        } else {
            *m.space.regions().first().unwrap()
        };
        for i in range {
            let cpu = CpuId((i * 5 % 16) as u16);
            let a = far.addr((i * 104) % (1 << 16));
            m.try_read(cpu, a).map_err(|e| (i, e))?;
            if i % 3 == 0 {
                m.try_write(cpu, a).map_err(|e| (i, e))?;
            }
            if i % 17 == 0 {
                m.uncached_op(cpu, far.addr(0));
            }
        }
        Ok(())
    }

    #[test]
    fn restore_keeps_dense_storage_and_degraded_capacity() {
        let plan = || FaultPlan::new(2).with_gcb_degrade(0, 0);
        let mut m = Machine::new(MachineConfig::tiny(2)).with_faults(plan());
        drive(&mut m, 0..200);
        assert_eq!(m.degraded_nodes(), 1);
        let back = m
            .snapshot()
            .restore(MachineConfig::tiny(2), Some(plan()))
            .expect("restore");
        assert!(back.caches.iter().chain(&back.gcbs).all(Cache::is_dense));
        let caps = |m: &Machine| m.gcbs.iter().map(Cache::capacity).collect::<Vec<_>>();
        let fus = m.config().fus_per_node;
        assert_eq!(caps(&back), caps(&m));
        assert_eq!(back.gcbs[0].capacity() * 2, back.gcbs[fus].capacity());
        assert_eq!(back.snapshot().into_bytes(), m.snapshot().into_bytes());
    }

    #[test]
    fn dense_directories_round_trip_byte_identically() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..900);
        assert!(m.dirs.iter().all(Directory::is_dense));
        let live: Vec<usize> = m.dirs.iter().map(Directory::live_lines).collect();
        assert!(live.iter().all(|&n| n > 0), "both directories hold lines");
        let first = m.snapshot();
        let back = first
            .restore(MachineConfig::spp1000(2), None)
            .expect("restore");
        assert!(back.dirs.iter().all(Directory::is_dense));
        assert_eq!(
            back.dirs
                .iter()
                .map(Directory::live_lines)
                .collect::<Vec<_>>(),
            live
        );
        for d in &back.dirs {
            let lines: Vec<u64> = d.lines().collect();
            assert!(lines.windows(2).all(|w| w[0] < w[1]), "ascending lines");
        }
        assert_eq!(back.coherence_digest(), m.coherence_digest());
        assert_eq!(back.snapshot().into_bytes(), first.into_bytes());
    }

    #[test]
    fn a_directory_line_outside_mapped_memory_is_corrupt() {
        let mut m = Machine::spp1000(2);
        drive(&mut m, 0..50);
        // The first line past the allocated address space.
        let beyond = (m.space.allocated_bytes() + 2 * 4096) >> m.line_shift;
        m.dirs[0].add_sharer(beyond, 1);
        let err = m
            .snapshot()
            .restore(MachineConfig::spp1000(2), None)
            .expect_err("an unmapped directory line must not restore");
        assert!(
            matches!(&err, SimError::SnapshotCorrupt { detail } if detail.contains("not in mapped memory")),
            "{err}"
        );
    }

    #[test]
    fn rollback_and_replay_converges_bit_identically_after_escalations() {
        for proto in ProtocolKind::ALL {
            let clean = {
                let mut m = Machine::spp1000(2).with_protocol(proto);
                drive(&mut m, 0..360);
                (m.clock(), m.coherence_digest(), m.stats)
            };
            // Fully persistent transients: every detected injection
            // exhausts its scrub budget and escalates, so recovery
            // can only complete via checkpoint rollback-and-replay
            // with the draw floor advanced past the poisoned window.
            let plan = || {
                FaultPlan::new(11)
                    .with_inval_dups(0.01)
                    .with_transient_persistence(1.0)
            };
            let mut m = Machine::spp1000(2).with_protocol(proto).with_faults(plan());
            let mut snap = m.snapshot();
            let mut step = 0u64;
            let mut rollbacks = 0u32;
            while step < 360 {
                let next = (step + 60).min(360);
                match try_drive(&mut m, step..next) {
                    Ok(()) => {
                        step = next;
                        snap = m.snapshot();
                    }
                    Err((_, SimError::RecoveryExhausted { .. })) => {
                        rollbacks += 1;
                        assert!(rollbacks < 200, "{proto}: replay never converges");
                        let floor = m.fault_plan().unwrap().draws();
                        m = snap
                            .clone()
                            .restore_expecting(MachineConfig::spp1000(2), Some(plan()), proto)
                            .expect("rollback restore");
                        // Replaying the exact same draws would hit the
                        // exact same escalation: skip past them.
                        m.faults_mut().unwrap().advance_draws(floor);
                    }
                    Err((i, e)) => panic!("{proto}: step {i}: unexpected error {e}"),
                }
            }
            assert!(rollbacks > 0, "{proto}: no escalation ever happened");
            assert_eq!(m.clock(), clean.0, "{proto}: clock diverged");
            assert_eq!(
                m.coherence_digest(),
                clean.1,
                "{proto}: recovered state diverged from fault-free"
            );
            assert!(
                m.stats.eq_modulo_recovery(&clean.2),
                "{proto}: stats diverged beyond recovery counters"
            );
            assert!(m.check_all().is_empty());
        }
    }

    #[test]
    fn wrong_tag_and_truncation_are_typed_errors_under_recovery_plans() {
        let plan = || FaultPlan::new(7).with_inval_dups(0.2).with_update_loss(0.1);
        let mut m = Machine::spp1000(2)
            .with_protocol(ProtocolKind::Dragon)
            .with_faults(plan());
        drive(&mut m, 0..200);
        assert!(m.stats.recoveries > 0, "no transient landed");
        let snap = m.snapshot();
        assert!(matches!(
            snap.restore_expecting(MachineConfig::spp1000(2), Some(plan()), ProtocolKind::Mesi),
            Err(SimError::SnapshotMismatch { .. })
        ));
        let mut bytes = snap.clone().into_bytes();
        bytes.truncate(bytes.len() - 24);
        let truncated = Snapshot::from_bytes(bytes).expect("header intact");
        assert!(matches!(
            truncated.restore(MachineConfig::spp1000(2), Some(plan())),
            Err(SimError::SnapshotCorrupt { .. })
        ));
        // The untouched stream still restores, recovery counters intact.
        let m2 = snap
            .restore_expecting(
                MachineConfig::spp1000(2),
                Some(plan()),
                ProtocolKind::Dragon,
            )
            .expect("restore");
        assert_eq!(m2.stats.recoveries, m.stats.recoveries);
    }
}
