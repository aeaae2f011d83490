//! The Chameleon and Chameleon-Opt policies (the paper's contribution),
//! and the Polymorphic-Memory baseline they are compared against in
//! Figure 22.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use crate::machine::{Flavor, RemapMachine};
use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

macro_rules! delegate_policy {
    ($ty:ty) => {
        impl IsaHook for $ty {
            fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
                self.machine.isa_alloc_range(addr, len, now);
            }

            fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
                self.machine.isa_free_range(addr, len, now);
            }
        }

        impl HmaPolicy for $ty {
            // lint: hot-path
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
    };
}

/// The dynamically reconfigurable Chameleon architecture.
///
/// Groups whose stacked segment is OS-free operate as a hardware-managed
/// cache (no swap threshold, no capacity loss); fully allocated groups
/// operate as hardware-managed PoM. `ISA-Alloc`/`ISA-Free` drive the
/// transitions (Figures 8–11); the Opt variant ([`ChameleonPolicy::new_opt`])
/// additionally remaps allocated stacked segments into free off-chip
/// segments so that *any* free space becomes stacked cache space
/// (Figures 12–14).
///
/// # Example
///
/// ```
/// use chameleon_core::{ChameleonPolicy, HmaConfig, policy::HmaPolicy};
/// use chameleon_os::isa::IsaHook;
///
/// let cfg = HmaConfig::scaled_laptop();
/// let mut ch = ChameleonPolicy::new_basic(cfg.clone());
/// // Allocate one off-chip page; its group keeps caching because the
/// // stacked segment is still free.
/// let off_base = cfg.stacked.capacity.bytes();
/// ch.isa_alloc(off_base, 4096, 0);
/// ch.access(off_base, false, 100); // miss + fill
/// ch.access(off_base, false, 100_000_000); // stacked hit
/// assert_eq!(ch.stats().stacked_hits.value(), 1);
/// ```
#[derive(Debug)]
pub struct ChameleonPolicy {
    machine: RemapMachine,
}

impl ChameleonPolicy {
    /// The basic design: only stacked-DRAM free space becomes cache.
    pub fn new_basic(cfg: HmaConfig) -> Self {
        Self {
            machine: RemapMachine::new(cfg, Flavor::Chameleon { opt: false }, "Chameleon"),
        }
    }

    /// Chameleon-Opt: proactive remapping converts free space anywhere in
    /// a group into stacked cache space.
    pub fn new_opt(cfg: HmaConfig) -> Self {
        Self {
            machine: RemapMachine::new(cfg, Flavor::Chameleon { opt: true }, "Chameleon-Opt"),
        }
    }

    /// Read access to the SRRT (diagnostics, tests, mode census).
    pub fn srrt(&self) -> &crate::SegmentGroupTable {
        &self.machine.table
    }
}

delegate_policy!(ChameleonPolicy);

/// The Polymorphic Memory baseline (Chung et al. patent, Figure 22):
/// OS-free stacked space is used as a cache exactly like basic Chameleon,
/// but allocated pages are never hot-swapped between the memories, so
/// fully allocated groups behave like a static NUMA mapping.
#[derive(Debug)]
pub struct PolymorphicPolicy {
    machine: RemapMachine,
}

impl PolymorphicPolicy {
    /// Builds the Polymorphic Memory baseline.
    pub fn new(cfg: HmaConfig) -> Self {
        Self {
            machine: RemapMachine::new(cfg, Flavor::Polymorphic, "Polymorphic"),
        }
    }
}

delegate_policy!(PolymorphicPolicy);

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

    fn alloc_all(p: &mut impl HmaPolicy) {
        p.isa_alloc(0, 12 << 20, 0);
    }

    #[test]
    fn names() {
        assert_eq!(ChameleonPolicy::new_basic(cfg()).name(), "Chameleon");
        assert_eq!(ChameleonPolicy::new_opt(cfg()).name(), "Chameleon-Opt");
        assert_eq!(PolymorphicPolicy::new(cfg()).name(), "Polymorphic");
    }

    #[test]
    fn fully_allocated_system_is_all_pom() {
        for p in [
            &mut ChameleonPolicy::new_basic(cfg()),
            &mut ChameleonPolicy::new_opt(cfg()),
        ] {
            alloc_all(p);
            assert_eq!(p.mode_distribution().cache_groups, 0, "{}", p.name());
        }
    }

    #[test]
    fn boot_state_is_all_cache_mode() {
        let p = ChameleonPolicy::new_basic(cfg());
        assert_eq!(p.mode_distribution().cache_fraction(), 1.0);
    }

    #[test]
    fn opt_converts_more_free_space_than_basic() {
        // Allocate everything, then free 20% of the *off-chip* segments.
        let mut basic = ChameleonPolicy::new_basic(cfg());
        let mut opt = ChameleonPolicy::new_opt(cfg());
        alloc_all(&mut basic);
        alloc_all(&mut opt);
        for g in 0..8u64 {
            let addr = (2 << 20) + g * 2048; // slot-1 segment of group g
            basic.isa_free(addr, 2048, 0);
            opt.isa_free(addr, 2048, 0);
        }
        assert_eq!(basic.mode_distribution().cache_groups, 0);
        assert_eq!(opt.mode_distribution().cache_groups, 8);
    }

    #[test]
    fn chameleon_beats_pom_hit_rate_with_free_space() {
        // One group with its stacked segment free: Chameleon caches the
        // hot off-chip segment on first touch, PoM needs the counter to
        // reach the threshold.
        let mut ch = ChameleonPolicy::new_basic(cfg());
        let mut pom = crate::PomPolicy::new(cfg());
        // Allocate all but the stacked segments.
        ch.isa_alloc(2 << 20, 10 << 20, 0);
        pom.isa_alloc(2 << 20, 10 << 20, 0);
        let addr = 2 << 20;
        let mut now = 0;
        for _ in 0..8 {
            now += 10_000_000;
            ch.access(addr, false, now);
            pom.access(addr, false, now);
        }
        assert!(
            ch.stats().stacked_hit_rate() > pom.stats().stacked_hit_rate(),
            "chameleon {} <= pom {}",
            ch.stats().stacked_hit_rate(),
            pom.stats().stacked_hit_rate()
        );
    }

    #[test]
    fn polymorphic_underperforms_chameleon_when_full() {
        // Fully allocated: Chameleon swaps hot data in (PoM behaviour),
        // Polymorphic does not.
        let mut ch = ChameleonPolicy::new_basic(cfg());
        let mut poly = PolymorphicPolicy::new(cfg());
        alloc_all(&mut ch);
        alloc_all(&mut poly);
        let addr = 2 << 20;
        let mut now = 0;
        for _ in 0..=cfg().swap_threshold + 1 {
            now += 10_000_000;
            ch.access(addr, false, now);
            poly.access(addr, false, now);
        }
        assert!(ch.stats().stacked_hits.value() > 0);
        assert_eq!(poly.stats().stacked_hits.value(), 0);
    }
}
