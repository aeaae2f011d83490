//! The policy interface every heterogeneous memory architecture
//! implements.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::metrics::EventTrace;
use chameleon_simkit::Cycle;
use serde::{Deserialize, Serialize};

use crate::{HmaConfig, HmaDevices, HmaStats};

/// Census of segment-group operating modes (Figures 16 and 21).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeDistribution {
    /// Groups currently operating as a hardware-managed cache.
    pub cache_groups: u64,
    /// Groups currently operating as part of memory.
    pub pom_groups: u64,
}

impl ModeDistribution {
    /// Fraction of groups in cache mode.
    pub fn cache_fraction(&self) -> f64 {
        let total = self.cache_groups + self.pom_groups;
        if total == 0 {
            0.0
        } else {
            self.cache_groups as f64 / total as f64
        }
    }
}

/// A heterogeneous memory architecture: services LLC-miss demand traffic
/// and reacts to OS allocation notifications (`ISA-Alloc`/`ISA-Free` are
/// delivered through the [`IsaHook`] supertrait).
pub trait HmaPolicy: IsaHook {
    /// Services one demand access (a 64B line) at OS physical address
    /// `paddr`, returning the requester-visible latency in CPU cycles.
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle;

    /// Drains one dirty LLC victim line to memory. Posted: consumes
    /// bandwidth at the line's current location but never promotes,
    /// fills, or trains the hot-segment counters (no allocate-on-
    /// writeback).
    fn writeback(&mut self, paddr: u64, now: Cycle);

    /// Accumulated statistics.
    fn stats(&self) -> &HmaStats;

    /// Resets statistics after warm-up (device state is preserved).
    fn reset_stats(&mut self);

    /// Completes all in-flight transfers and quiesces device timing state
    /// (bank/bus clocks), so setup traffic from a pre-fault phase does not
    /// pollute timed measurement. Remapping/cache contents are preserved.
    fn settle(&mut self);

    /// The DRAM devices (bandwidth/row-buffer statistics).
    fn devices(&self) -> &HmaDevices;

    /// Current cache/PoM mode census. Architectures without
    /// reconfigurable groups report everything as PoM.
    fn mode_distribution(&self) -> ModeDistribution;

    /// Stacked-DRAM occupancy accounting as `(resident, capacity)` bytes:
    /// how much live data (OS memory plus cached copies) the stacked
    /// device currently holds, against its capacity. Every implementation
    /// must keep `resident <= capacity` at all times — the cross-scheme
    /// conformance battery asserts this at every epoch.
    fn stacked_residency(&self) -> (u64, u64);

    /// The discrete-event trace (mode transitions, swaps, ISA calls,
    /// writebacks), if this architecture records one.
    fn events(&self) -> Option<&EventTrace> {
        None
    }
}

/// What every policy owns: its configuration, the two DRAM devices and
/// the statistics. The lifecycle of [`HmaPolicy`] (`stats`,
/// `reset_stats`, `settle`, `devices`) is written here once and expanded
/// into each policy by [`base_lifecycle`].
#[derive(Debug)]
pub(crate) struct PolicyBase {
    pub(crate) cfg: HmaConfig,
    pub(crate) devices: HmaDevices,
    pub(crate) stats: HmaStats,
}

impl PolicyBase {
    pub(crate) fn new(cfg: HmaConfig) -> Self {
        Self {
            devices: HmaDevices::new(&cfg),
            stats: HmaStats::default(),
            cfg,
        }
    }

    /// Zeroes the policy and device statistics; device timing state and
    /// policy state are kept.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = HmaStats::default();
        self.devices.stacked.reset_stats();
        self.devices.offchip.reset_stats();
    }

    /// Completes every in-flight transfer by rebuilding the devices idle.
    pub(crate) fn settle(&mut self) {
        self.devices = HmaDevices::new(&self.cfg);
    }

    /// The segment size as a transfer length.
    pub(crate) fn segment_len(&self) -> u32 {
        // INVARIANT: the segment size is a transfer length (a few KiB),
        // not an address — fits u32.
        self.cfg.segment.bytes() as u32
    }
}

/// Expands, inside an `impl HmaPolicy` whose type keeps a [`PolicyBase`]
/// in a `base` field, the lifecycle methods that only touch the base.
/// `base_lifecycle!(accessors)` expands just `stats` and `devices`, for a
/// policy whose reset and settle add steps of their own.
macro_rules! base_lifecycle {
    () => {
        $crate::policy::base_lifecycle!(accessors);

        fn reset_stats(&mut self) {
            self.base.reset_stats();
        }

        fn settle(&mut self) {
            self.base.settle();
        }
    };
    (accessors) => {
        fn stats(&self) -> &$crate::HmaStats {
            &self.base.stats
        }

        fn devices(&self) -> &$crate::HmaDevices {
            &self.base.devices
        }
    };
}
pub(crate) use base_lifecycle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fraction_math() {
        let d = ModeDistribution {
            cache_groups: 2,
            pom_groups: 6,
        };
        assert!((d.cache_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(ModeDistribution::default().cache_fraction(), 0.0);
    }
}
