//! The hardware-managed Part-of-Memory baseline (Sim et al., MICRO'14).

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use crate::machine::{Flavor, RemapMachine};
use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

/// Segment-restricted remapping PoM: both memories are OS-visible; hot
/// off-chip segments are swapped into the stacked slot of their group
/// under a competing-counter policy. Free-space agnostic (the paper's
/// criticism in Section III-E): `ISA-Alloc`/`ISA-Free` only update the
/// ABV for bookkeeping, never reconfigure.
///
/// With [`HmaConfig::with_cameo_segments`] (64-byte segments) this models
/// a CAMEO-style line-granularity organisation instead.
///
/// # Example
///
/// ```
/// use chameleon_core::{HmaConfig, PomPolicy, policy::HmaPolicy};
///
/// let mut pom = PomPolicy::new(HmaConfig::scaled_laptop());
/// let latency = pom.access(0, false, 0);
/// assert!(latency > 0);
/// assert_eq!(pom.stats().stacked_hits.value(), 1, "stacked addresses start resident");
/// ```
#[derive(Debug)]
pub struct PomPolicy {
    machine: RemapMachine,
}

impl PomPolicy {
    /// Builds the PoM baseline.
    pub fn new(cfg: HmaConfig) -> Self {
        Self {
            machine: RemapMachine::new(cfg, Flavor::Pom, "PoM"),
        }
    }

    /// Builds a CAMEO-style variant (64-byte segments).
    pub fn new_cameo(cfg: HmaConfig) -> Self {
        Self {
            machine: RemapMachine::new(cfg.with_cameo_segments(), Flavor::Pom, "CAMEO"),
        }
    }

    /// Read access to the SRRT (diagnostics, tests, mode census).
    pub fn srrt(&self) -> &crate::SegmentGroupTable {
        &self.machine.table
    }
}

impl IsaHook for PomPolicy {
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
        self.machine.isa_alloc_range(addr, len, now);
    }

    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        self.machine.isa_free_range(addr, len, now);
    }
}

impl HmaPolicy for PomPolicy {
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        self.machine.access(paddr, write, now)
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        self.machine.writeback(paddr, now);
    }

    fn stats(&self) -> &HmaStats {
        &self.machine.stats
    }

    fn reset_stats(&mut self) {
        self.machine.stats = HmaStats::default();
        self.machine.trace.clear();
        self.machine.devices.stacked.reset_stats();
        self.machine.devices.offchip.reset_stats();
    }

    fn settle(&mut self) {
        self.machine.settle();
    }

    fn name(&self) -> &str {
        self.machine.name()
    }

    fn devices(&self) -> &HmaDevices {
        &self.machine.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        self.machine.mode_distribution()
    }

    fn stacked_residency(&self) -> (u64, u64) {
        (
            self.machine.stacked_resident_bytes(),
            self.machine.geom.stacked_bytes(),
        )
    }

    fn events(&self) -> Option<&chameleon_simkit::metrics::EventTrace> {
        Some(&self.machine.trace)
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

    #[test]
    fn never_enters_cache_mode() {
        let mut p = PomPolicy::new(cfg());
        p.isa_alloc(0, 12 << 20, 0);
        p.isa_free(0, 12 << 20, 0);
        assert_eq!(p.mode_distribution().cache_groups, 0);
        assert_eq!(p.mode_distribution().pom_groups, 1024);
    }

    #[test]
    fn cameo_uses_line_segments_with_more_metadata() {
        let pom = PomPolicy::new(cfg());
        let cameo = PomPolicy::new_cameo(cfg());
        assert_eq!(cameo.name(), "CAMEO");
        assert!(
            cameo.srrt().metadata_bytes() > 16 * pom.srrt().metadata_bytes(),
            "64B segments need ~32x the SRRT entries of 2KB segments"
        );
    }

    #[test]
    fn repeated_offchip_access_eventually_hits_stacked() {
        let mut p = PomPolicy::new(cfg());
        p.isa_alloc(0, 12 << 20, 0);
        let offchip_addr = 2 << 20; // first off-chip segment
        let mut now = 0;
        for _ in 0..=HmaConfig::scaled_laptop().swap_threshold + 1 {
            now += 10_000_000;
            p.access(offchip_addr, false, now);
        }
        assert!(
            p.stats().stacked_hits.value() > 0,
            "hot segment was promoted"
        );
        assert_eq!(p.stats().swaps.value(), 1);
    }

    #[test]
    fn amat_tracks_accesses() {
        let mut p = PomPolicy::new(cfg());
        p.access(0, false, 0);
        p.access(64, false, 1000);
        assert_eq!(p.stats().access_latency.count(), 2);
        assert!(p.stats().amat() > 0.0);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut p = PomPolicy::new(cfg());
        p.access(0, false, 0);
        p.reset_stats();
        assert_eq!(p.stats().demand_accesses.value(), 0);
        assert_eq!(p.devices().stacked.stats().reads.value(), 0);
    }
}
