//! The latency-optimised Alloy Cache baseline (Qureshi & Loh, MICRO'12).

use chameleon_os::isa::IsaHook;
use chameleon_simkit::fastmod::FastMod;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{base_lifecycle, HmaPolicy, ModeDistribution, PolicyBase};
use crate::tag_word::TagWord;
use crate::HmaConfig;

/// A direct-mapped DRAM cache with 64-byte TAD (tag-and-data) units: one
/// stacked-DRAM access returns tag and data together, so a hit costs a
/// single stacked access and a miss adds one off-chip access.
///
/// The stacked DRAM is **not** OS-visible (the OS runs with
/// `Visibility::OffchipOnly`), which is exactly the capacity loss the
/// paper's Figure 18 charges this design with.
///
/// # Example
///
/// ```
/// use chameleon_core::{AlloyPolicy, HmaConfig, policy::HmaPolicy};
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut alloy = AlloyPolicy::new(cfg);
/// let miss = alloy.access(off_base, false, 0);
/// let hit = alloy.access(off_base, false, 1_000_000);
/// assert!(hit < miss);
/// ```
#[derive(Debug)]
pub struct AlloyPolicy {
    base: PolicyBase,
    /// One TAD's tag word per set, tagged with the off-chip line.
    tags: Vec<TagWord>,
    /// `tags.len()`, the direct-mapped set count.
    sets: FastMod,
    /// Number of valid TADs.
    valid: u64,
    stacked_base: u64,
}

impl AlloyPolicy {
    /// Builds the Alloy cache over the configured stacked device.
    pub fn new(cfg: HmaConfig) -> Self {
        let sets = (cfg.stacked.capacity.bytes() / 64) as usize;
        Self {
            tags: vec![TagWord::default(); sets],
            sets: FastMod::new(sets as u64),
            valid: 0,
            stacked_base: cfg.stacked.capacity.bytes(),
            base: PolicyBase::new(cfg),
        }
    }

    /// Number of direct-mapped sets.
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    fn set_of(&self, line: u64) -> usize {
        self.sets.modulo(line) as usize
    }
}

impl IsaHook for AlloyPolicy {
    // The Alloy cache is software-transparent: OS allocation activity is
    // invisible to it.
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

impl HmaPolicy for AlloyPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        assert!(
            paddr >= self.stacked_base,
            "Alloy receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.base.stats.demand_accesses.inc();
        let rel = paddr - self.stacked_base;
        let line = rel / 64;
        let set = self.set_of(line);
        let op = if write { MemOp::Write } else { MemOp::Read };

        // One TAD access reads tag+data from the stacked device; on a
        // predicted miss the off-chip access is dispatched in parallel
        // (Alloy's memory access predictor — the latency-optimised part
        // of the design).
        let probe = self
            .base
            .devices
            .stacked
            .access(set as u64 * 64, 64, MemOp::Read, now);
        let entry = self.tags[set];
        let latency = if entry.holds(line) {
            // Hit: data arrived with the tag.
            if write {
                self.tags[set].mark_dirty();
                // The dirty data is written in place.
                self.base
                    .devices
                    .stacked
                    .access(set as u64 * 64, 64, MemOp::Write, probe.done);
            }
            self.base.stats.stacked_hits.inc();
            probe.latency
        } else {
            // Miss: fetch from off-chip (dispatched in parallel with the
            // probe), fill the set, write back the dirty victim as bulk.
            if entry.is_dirty() {
                let victim_addr = entry.tag() * 64;
                self.base
                    .devices
                    .offchip
                    .bulk(victim_addr, 64, MemOp::Write, now);
                self.base.stats.writebacks.inc();
            }
            let mem = self.base.devices.offchip.access(rel, 64, op, now);
            self.base
                .devices
                .stacked
                .bulk(set as u64 * 64, 64, MemOp::Write, now);
            self.valid += u64::from(!entry.is_valid());
            self.tags[set] = TagWord::filled(line, write);
            self.base.stats.fills.inc();
            mem.latency.max(probe.latency)
        };
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        assert!(
            paddr >= self.stacked_base,
            "Alloy receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.base.stats.llc_writebacks.inc();
        let rel = paddr - self.stacked_base;
        let line = rel / 64;
        let set = self.set_of(line);
        let entry = self.tags[set];
        if entry.holds(line) {
            // Write the cached copy in place (it becomes dirty).
            self.tags[set].mark_dirty();
            self.base
                .devices
                .stacked
                .access(set as u64 * 64, 64, MemOp::Write, now);
        } else {
            // No allocate-on-writeback: drain straight to off-chip.
            self.base.devices.offchip.access(rel, 64, MemOp::Write, now);
        }
    }

    base_lifecycle!();

    fn mode_distribution(&self) -> ModeDistribution {
        // The whole stacked device is a cache.
        ModeDistribution {
            cache_groups: self.tags.len() as u64,
            pom_groups: 0,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        debug_assert_eq!(
            self.valid,
            self.tags.iter().filter(|t| t.is_valid()).count() as u64,
            "Alloy valid-TAD count drifted from its tags"
        );
        (self.valid * 64, self.base.cfg.stacked.capacity.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simkit::mem::ByteSize;

    fn cfg() -> HmaConfig {
        let mut c = HmaConfig::scaled_laptop();
        c.stacked.capacity = ByteSize::mib(2);
        c.offchip.capacity = ByteSize::mib(10);
        c
    }

    fn off(paddr: u64) -> u64 {
        (2 << 20) + paddr
    }

    #[test]
    fn fill_then_hit() {
        let mut a = AlloyPolicy::new(cfg());
        a.access(off(0), false, 0);
        assert_eq!(a.stats().stacked_hits.value(), 0);
        a.access(off(0), false, 10_000_000);
        assert_eq!(a.stats().stacked_hits.value(), 1);
        assert_eq!(a.stats().fills.value(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut a = AlloyPolicy::new(cfg());
        let stride = a.sets() as u64 * 64;
        a.access(off(0), true, 0); // dirty
        a.access(off(stride), false, 10_000_000); // conflicts, evicts dirty
        assert_eq!(a.stats().writebacks.value(), 1);
        a.access(off(0), false, 20_000_000);
        assert_eq!(a.stats().stacked_hits.value(), 0, "line 0 was evicted");
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut a = AlloyPolicy::new(cfg());
        let stride = a.sets() as u64 * 64;
        a.access(off(0), false, 0);
        a.access(off(stride), false, 10_000_000);
        assert_eq!(a.stats().writebacks.value(), 0);
    }

    #[test]
    fn hit_rate_reported() {
        let mut a = AlloyPolicy::new(cfg());
        for i in 0..4u64 {
            a.access(off(i * 64), false, i * 10_000_000);
        }
        for i in 0..4u64 {
            a.access(off(i * 64), false, (i + 10) * 10_000_000);
        }
        assert!((a.stats().stacked_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "off-chip OS addresses")]
    fn stacked_address_rejected() {
        AlloyPolicy::new(cfg()).access(0, false, 0);
    }
}
