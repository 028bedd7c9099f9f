//! Event counters, mirroring the hardware instrumentation the paper
//! praises in §6 ("counters for cache miss enumeration and timing").

/// Memory-system event counters. All counts are cumulative since the
/// machine was created or [`MemStats::reset`] was called.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Cached read accesses issued.
    pub reads: u64,
    /// Cached write accesses issued.
    pub writes: u64,
    /// Accesses that hit in the issuing CPU's cache.
    pub hits: u64,
    /// Misses serviced by memory within the hypernode.
    pub local_misses: u64,
    /// Misses serviced by the hypernode's global cache buffer.
    pub gcb_hits: u64,
    /// Misses requiring an SCI ring transaction.
    pub sci_fetches: u64,
    /// Fetches that had to be forwarded to a dirty remote node.
    pub remote_dirty_fetches: u64,
    /// Cache-to-cache transfers within a hypernode.
    pub c2c_transfers: u64,
    /// Write upgrades (Shared -> Modified) that invalidated sharers.
    pub upgrades: u64,
    /// Invalidations delivered to CPU caches.
    pub invalidations: u64,
    /// Remote hypernodes invalidated via SCI list walks.
    pub sci_invalidations: u64,
    /// CPU cache evictions (capacity/conflict).
    pub evictions: u64,
    /// Dirty-line writebacks (CPU cache or GCB rollout).
    pub writebacks: u64,
    /// GCB rollouts (remote lines displaced from the network cache).
    pub gcb_rollouts: u64,
    /// Uncached (semaphore) operations.
    pub uncached_ops: u64,
    /// Injected SCI ring stalls (fault injection; see
    /// [`crate::FaultPlan`]). Zero unless a fault plan is installed.
    pub ring_stalls: u64,
    /// SCI transactions rerouted around a hard link failure (see
    /// [`crate::HardFault`]). Zero unless a link failure has fired.
    pub link_reroutes: u64,
    /// Bus snoop transactions broadcast by the snooping MESI
    /// protocol. Zero under DASH+SCI and Dragon.
    pub snoops: u64,
    /// Write-update broadcasts issued by the Dragon protocol. Zero
    /// under DASH+SCI and MESI.
    pub updates: u64,
    /// Transient coherence faults detected and repaired by the
    /// machine's scrub-and-retry path. Zero unless a fault plan with
    /// transient coherence faults is installed.
    pub recoveries: u64,
    /// Scrub attempts spent repairing transient coherence faults
    /// (>= `recoveries`; the excess counts faults that persisted
    /// across scrubs).
    pub recovery_retries: u64,
}

impl MemStats {
    /// Total cached accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses of any kind.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits
    }

    /// Fraction of accesses that hit, in [0, 1]. Returns 1.0 for an
    /// idle machine.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Fraction of misses that left the hypernode.
    pub fn global_miss_fraction(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            0.0
        } else {
            self.sci_fetches as f64 / m as f64
        }
    }

    /// Zero all counters.
    pub fn reset(&mut self) {
        *self = MemStats::default();
    }

    /// Per-field difference (`self - earlier`); use to bracket a
    /// region of interest. Saturating: if counters were [`reset`]
    /// between the two snapshots the delta clamps to zero instead of
    /// panicking in debug builds (or wrapping in release).
    ///
    /// [`reset`]: MemStats::reset
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            hits: self.hits.saturating_sub(earlier.hits),
            local_misses: self.local_misses.saturating_sub(earlier.local_misses),
            gcb_hits: self.gcb_hits.saturating_sub(earlier.gcb_hits),
            sci_fetches: self.sci_fetches.saturating_sub(earlier.sci_fetches),
            remote_dirty_fetches: self
                .remote_dirty_fetches
                .saturating_sub(earlier.remote_dirty_fetches),
            c2c_transfers: self.c2c_transfers.saturating_sub(earlier.c2c_transfers),
            upgrades: self.upgrades.saturating_sub(earlier.upgrades),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            sci_invalidations: self
                .sci_invalidations
                .saturating_sub(earlier.sci_invalidations),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            gcb_rollouts: self.gcb_rollouts.saturating_sub(earlier.gcb_rollouts),
            uncached_ops: self.uncached_ops.saturating_sub(earlier.uncached_ops),
            ring_stalls: self.ring_stalls.saturating_sub(earlier.ring_stalls),
            link_reroutes: self.link_reroutes.saturating_sub(earlier.link_reroutes),
            snoops: self.snoops.saturating_sub(earlier.snoops),
            updates: self.updates.saturating_sub(earlier.updates),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            recovery_retries: self
                .recovery_retries
                .saturating_sub(earlier.recovery_retries),
        }
    }

    /// Per-field accumulation (`self += other`); the merge the
    /// per-hypernode rollups use.
    pub fn merge(&mut self, other: &MemStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.hits += other.hits;
        self.local_misses += other.local_misses;
        self.gcb_hits += other.gcb_hits;
        self.sci_fetches += other.sci_fetches;
        self.remote_dirty_fetches += other.remote_dirty_fetches;
        self.c2c_transfers += other.c2c_transfers;
        self.upgrades += other.upgrades;
        self.invalidations += other.invalidations;
        self.sci_invalidations += other.sci_invalidations;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.gcb_rollouts += other.gcb_rollouts;
        self.uncached_ops += other.uncached_ops;
        self.ring_stalls += other.ring_stalls;
        self.link_reroutes += other.link_reroutes;
        self.snoops += other.snoops;
        self.updates += other.updates;
        self.recoveries += other.recoveries;
        self.recovery_retries += other.recovery_retries;
    }

    /// Equality modulo the recovery counters. A run that injected and
    /// repaired transient coherence faults must end with every *other*
    /// counter bit-identical to the fault-free run — the recovery
    /// bit-identity invariant `spp repro recovery` and the recovering
    /// scenario goldens enforce.
    pub fn eq_modulo_recovery(&self, other: &MemStats) -> bool {
        let scrub = |s: &MemStats| MemStats {
            recoveries: 0,
            recovery_retries: 0,
            ..*s
        };
        scrub(self) == scrub(other)
    }

    /// Check that the miss-kind counters partition [`MemStats::misses`]
    /// exactly: every miss is serviced by exactly one of local memory,
    /// the GCB, an SCI fetch, or an intra-node cache-to-cache transfer
    /// (`remote_dirty_fetches` annotates SCI fetches rather than
    /// forming a fifth kind). Holds for any bracketed delta of a
    /// cycle-accurate machine's counters.
    pub fn miss_partition_check(&self) -> bool {
        self.local_misses + self.gcb_hits + self.sci_fetches + self.c2c_transfers == self.misses()
    }
}

impl std::fmt::Display for MemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "accesses {} (r {} / w {})  hit rate {:.4}",
            self.accesses(),
            self.reads,
            self.writes,
            self.hit_rate()
        )?;
        writeln!(
            f,
            "misses: local {}  gcb {}  sci {} (dirty {})  c2c {}",
            self.local_misses,
            self.gcb_hits,
            self.sci_fetches,
            self.remote_dirty_fetches,
            self.c2c_transfers
        )?;
        write!(
            f,
            "coherence: upgrades {}  inv {}  sci-inv {}  evict {}  wb {}  rollout {}  uncached {}",
            self.upgrades,
            self.invalidations,
            self.sci_invalidations,
            self.evictions,
            self.writebacks,
            self.gcb_rollouts,
            self.uncached_ops
        )?;
        if self.ring_stalls > 0 || self.link_reroutes > 0 {
            write!(
                f,
                "\nfaults: ring stalls {}  link reroutes {}",
                self.ring_stalls, self.link_reroutes
            )?;
        }
        if self.snoops > 0 || self.updates > 0 {
            write!(
                f,
                "\nprotocol traffic: snoops {}  updates {}",
                self.snoops, self.updates
            )?;
        }
        if self.recoveries > 0 || self.recovery_retries > 0 {
            write!(
                f,
                "\nrecovery: recovered {}  scrub retries {}",
                self.recoveries, self.recovery_retries
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_of_idle_machine_is_one() {
        assert_eq!(MemStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = MemStats {
            reads: 10,
            hits: 8,
            ..Default::default()
        };
        let b = MemStats {
            reads: 25,
            hits: 20,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.reads, 15);
        assert_eq!(d.hits, 12);
        assert_eq!(d.misses(), 3);
    }

    #[test]
    fn since_saturates_across_a_reset() {
        let mut s = MemStats {
            reads: 100,
            writes: 40,
            hits: 120,
            ..Default::default()
        };
        let bracket = s; // snapshot taken before...
        s.reset(); // ...someone resets between the brackets
        s.reads = 5;
        let d = s.since(&bracket);
        assert_eq!(d.reads, 0, "clamped, not wrapped");
        assert_eq!(d.writes, 0);
        assert_eq!(d.hits, 0);
    }

    #[test]
    fn merge_accumulates_fieldwise() {
        let mut a = MemStats {
            reads: 10,
            sci_fetches: 2,
            ..Default::default()
        };
        let b = MemStats {
            reads: 5,
            writes: 7,
            sci_fetches: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 15);
        assert_eq!(a.writes, 7);
        assert_eq!(a.sci_fetches, 3);
    }

    #[test]
    fn miss_partition_check_accepts_partitioned_counters() {
        let s = MemStats {
            reads: 100,
            hits: 90,
            local_misses: 4,
            gcb_hits: 2,
            sci_fetches: 3,
            c2c_transfers: 1,
            remote_dirty_fetches: 2, // annotates sci fetches; not a kind
            ..Default::default()
        };
        assert!(s.miss_partition_check());
        let bad = MemStats {
            local_misses: 5,
            ..s
        };
        assert!(!bad.miss_partition_check());
    }

    #[test]
    fn misses_partition() {
        let s = MemStats {
            reads: 100,
            writes: 0,
            hits: 90,
            local_misses: 6,
            gcb_hits: 2,
            sci_fetches: 2,
            ..Default::default()
        };
        assert_eq!(s.misses(), 10);
        assert!((s.global_miss_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn eq_modulo_recovery_ignores_only_the_recovery_counters() {
        let base = MemStats {
            reads: 10,
            hits: 9,
            local_misses: 1,
            ..Default::default()
        };
        let recovered = MemStats {
            recoveries: 3,
            recovery_retries: 5,
            ..base
        };
        assert_ne!(base, recovered);
        assert!(base.eq_modulo_recovery(&recovered));
        let diverged = MemStats {
            hits: 8,
            ..recovered
        };
        assert!(!base.eq_modulo_recovery(&diverged));
    }

    #[test]
    fn display_is_reasonable() {
        let s = MemStats::default();
        let out = format!("{s}");
        assert!(out.contains("hit rate"));
        assert!(out.contains("coherence"));
    }
}
