//! Homogeneous off-chip-only baselines (Figure 18's
//! `baseline_20GB_DDR3` / `baseline_24GB_DDR3`).

use chameleon_os::isa::IsaHook;
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::Cycle;

use chameleon_dram::{DramModel, MemOp};

use crate::policy::{base_lifecycle, HmaPolicy, ModeDistribution, PolicyBase};
use crate::HmaConfig;

/// A flat memory system: every access goes to the off-chip device; the
/// stacked device exists but is never referenced (the baselines in the
/// paper simply have no stacked DRAM).
///
/// # Example
///
/// ```
/// use chameleon_core::{FlatPolicy, HmaConfig, policy::HmaPolicy};
/// use chameleon_simkit::mem::ByteSize;
///
/// let mut flat = FlatPolicy::new(HmaConfig::scaled_laptop(), ByteSize::mib(384));
/// let lat = flat.access(1 << 20, false, 0);
/// assert!(lat > 0);
/// assert_eq!(flat.stats().stacked_hit_rate(), 0.0);
/// ```
#[derive(Debug)]
pub struct FlatPolicy {
    base: PolicyBase,
}

impl FlatPolicy {
    /// Builds a flat baseline whose off-chip device has `capacity` total
    /// bytes (e.g. the 20GB and 24GB baselines of Figure 18).
    pub fn new(mut cfg: HmaConfig, capacity: ByteSize) -> Self {
        cfg.offchip.capacity = capacity;
        Self {
            base: PolicyBase::new(cfg),
        }
    }
}

impl IsaHook for FlatPolicy {
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

impl HmaPolicy for FlatPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        self.base.stats.demand_accesses.inc();
        let op = if write { MemOp::Write } else { MemOp::Read };
        // The device wraps addresses modulo its capacity, so any OS
        // physical address is acceptable.
        let latency = self.base.devices.offchip.access(paddr, 64, op, now).latency;
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        self.base.stats.llc_writebacks.inc();
        self.base
            .devices
            .offchip
            .access(paddr, 64, MemOp::Write, now);
    }

    base_lifecycle!();

    fn mode_distribution(&self) -> ModeDistribution {
        ModeDistribution::default()
    }

    fn stacked_residency(&self) -> (u64, u64) {
        // The stacked device exists but is never populated.
        (0, self.base.cfg.stacked.capacity.bytes())
    }
}

/// A static NUMA mapping: stacked-range addresses go to the stacked
/// device, off-chip-range addresses to the off-chip device, with no
/// hardware remapping. This is the substrate for the OS-managed
/// comparisons (first-touch allocation and AutoNUMA, Figures 2 and 20) —
/// data placement is entirely the OS's problem.
///
/// # Example
///
/// ```
/// use chameleon_core::{HmaConfig, StaticNumaPolicy, policy::HmaPolicy};
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut numa = StaticNumaPolicy::new(cfg);
/// numa.access(0, false, 0); // stacked node
/// numa.access(off_base, false, 0); // off-chip node
/// assert_eq!(numa.stats().stacked_hit_rate(), 0.5);
/// ```
#[derive(Debug)]
pub struct StaticNumaPolicy {
    base: PolicyBase,
    stacked_bytes: u64,
}

impl StaticNumaPolicy {
    /// Builds the static NUMA substrate.
    pub fn new(cfg: HmaConfig) -> Self {
        Self {
            stacked_bytes: cfg.stacked.capacity.bytes(),
            base: PolicyBase::new(cfg),
        }
    }

    /// The node device behind physical address `addr`, and the address
    /// within that device: the stacked node sits below `stacked_bytes`,
    /// the off-chip node above it.
    #[inline]
    fn device(&mut self, addr: u64) -> (&mut DramModel, u64) {
        let devices = &mut self.base.devices;
        if addr < self.stacked_bytes {
            (&mut devices.stacked, addr)
        } else {
            (&mut devices.offchip, addr - self.stacked_bytes)
        }
    }
}

impl IsaHook for StaticNumaPolicy {
    // For the OS-managed systems the only steady-state ISA traffic is
    // AutoNUMA page migration (alloc of the target frame, free of the
    // source): charge the page copy as bulk traffic on both devices so
    // migrations consume real bandwidth like the paper's.
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
        let (dev, dev_addr) = self.device(addr);
        // INVARIANT: len is a page-copy length, not an address —
        // allocations are page-granular and fit u32.
        dev.bulk(dev_addr, len as u32, MemOp::Write, now);
    }

    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        let (dev, dev_addr) = self.device(addr);
        // INVARIANT: page-copy length, fits u32 — see isa_alloc.
        dev.bulk(dev_addr, len as u32, MemOp::Read, now);
    }
}

impl HmaPolicy for StaticNumaPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        self.base.stats.demand_accesses.inc();
        if paddr < self.stacked_bytes {
            self.base.stats.stacked_hits.inc();
        }
        let op = if write { MemOp::Write } else { MemOp::Read };
        let (dev, dev_addr) = self.device(paddr);
        let latency = dev.access(dev_addr, 64, op, now).latency;
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        self.base.stats.llc_writebacks.inc();
        let (dev, dev_addr) = self.device(paddr);
        dev.access(dev_addr, 64, MemOp::Write, now);
    }

    base_lifecycle!();

    fn mode_distribution(&self) -> ModeDistribution {
        ModeDistribution::default()
    }

    fn stacked_residency(&self) -> (u64, u64) {
        // The stacked range is plain OS memory: always fully resident.
        (self.stacked_bytes, self.stacked_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_numa_routes_by_address() {
        let cfg = HmaConfig::scaled_laptop();
        let off_base = cfg.stacked.capacity.bytes();
        let mut p = StaticNumaPolicy::new(cfg);
        p.access(4096, false, 0);
        p.access(off_base + 4096, true, 0);
        assert_eq!(p.devices().stacked.stats().reads.value(), 1);
        assert_eq!(p.devices().offchip.stats().writes.value(), 1);
        assert_eq!(p.stats().stacked_hits.value(), 1);
    }

    #[test]
    fn static_numa_stacked_is_faster() {
        let cfg = HmaConfig::scaled_laptop();
        let off_base = cfg.stacked.capacity.bytes();
        let mut p = StaticNumaPolicy::new(cfg);
        let fast = p.access(0, false, 0);
        let slow = p.access(off_base, false, 0);
        assert!(
            slow > fast,
            "off-chip ({slow}) should exceed stacked ({fast})"
        );
    }

    #[test]
    fn all_traffic_is_offchip() {
        let mut f = FlatPolicy::new(HmaConfig::scaled_laptop(), ByteSize::mib(384));
        for i in 0..100u64 {
            f.access(i * 64, i % 3 == 0, 0);
        }
        assert_eq!(f.stats().demand_accesses.value(), 100);
        assert_eq!(f.stats().stacked_hits.value(), 0);
        assert_eq!(f.devices().stacked.stats().reads.value(), 0);
        assert_eq!(
            f.devices().offchip.stats().reads.value() + f.devices().offchip.stats().writes.value(),
            100
        );
    }

    #[test]
    fn capacity_sizes_the_offchip_device() {
        let f = FlatPolicy::new(HmaConfig::scaled_laptop(), ByteSize::mib(384));
        assert_eq!(f.base.cfg.offchip.capacity, ByteSize::mib(384));
    }

    #[test]
    fn isa_hooks_are_inert() {
        let mut f = FlatPolicy::new(HmaConfig::scaled_laptop(), ByteSize::mib(384));
        f.isa_alloc(0, 4096, 0);
        f.isa_free(0, 4096, 0);
        assert_eq!(f.mode_distribution().cache_fraction(), 0.0);
    }
}
