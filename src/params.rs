//! Scaled system parameters for laptop-scale experiment runs.

use chameleon_cache::CacheConfig;
use chameleon_core::HmaConfig;
use chameleon_cpu::CoreConfig;
use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// All knobs of one simulated system, pre-scaled so full experiments run
/// in minutes.
///
/// The paper's Table I system (12 cores, 4GB + 20GB, 12MB LLC) is scaled
/// 1/64 by default: capacities and footprints shrink together, DRAM
/// timing/bandwidth and core parameters are unchanged, so the relative
/// behaviour (who wins, where crossovers fall) is preserved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaledParams {
    /// Number of cores (the paper uses 12).
    pub cores: usize,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Heterogeneous memory configuration (devices, segment size).
    pub hma: HmaConfig,
    /// Scale factor applied to workload footprints (must match the
    /// capacity scaling of `hma`).
    pub footprint_scale: u64,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 private cache.
    pub l2: CacheConfig,
    /// L3 shared cache.
    pub l3: CacheConfig,
    /// Instructions per core in a measured run.
    pub instructions_per_core: u64,
    /// Enable the Section VI-G extension: the OS mirrors per-group ABV
    /// state and places allocations to preserve cache-capable groups.
    #[serde(default)]
    pub group_aware_placement: bool,
    /// Attach an explicit per-core stride prefetcher (the default core
    /// model folds prefetching into its effective MLP, so this is an
    /// ablation knob).
    #[serde(default)]
    pub prefetcher: Option<chameleon_cache::PrefetchConfig>,
}

impl ScaledParams {
    /// The default laptop-scale configuration: Table I divided by 64
    /// (64MiB stacked + 320MiB off-chip, 12 cores, caches scaled so the
    /// LLC:footprint ratio matches the paper).
    pub fn laptop() -> Self {
        Self {
            cores: 12,
            core: CoreConfig::default(),
            hma: HmaConfig::scaled_laptop(),
            footprint_scale: 64,
            l1: CacheConfig::table1_l1(),
            l2: CacheConfig {
                capacity: ByteSize::kib(64),
                ..CacheConfig::table1_l2()
            },
            l3: CacheConfig {
                capacity: ByteSize::kib(256),
                ..CacheConfig::table1_l3()
            },
            instructions_per_core: 2_000_000,
            group_aware_placement: false,
            prefetcher: None,
        }
    }

    /// A very small configuration for unit tests and doc examples: two
    /// cores, 16MiB + 80MiB, tiny runs.
    pub fn tiny() -> Self {
        let mut p = Self::laptop();
        p.cores = 2;
        p.hma.stacked.capacity = ByteSize::mib(16);
        p.hma.offchip.capacity = ByteSize::mib(80);
        p.footprint_scale = 256;
        p.instructions_per_core = 50_000;
        p
    }

    /// Changes the stacked:off-chip ratio keeping total capacity constant
    /// (Figures 21/23: 1:3 and 1:7).
    ///
    /// # Errors
    ///
    /// Returns an error if `ratio` is zero or the total capacity does not
    /// divide into `ratio + 1` parts.
    pub fn with_ratio(mut self, ratio: u64) -> Result<Self, String> {
        let cfg = HmaConfig::scaled_with_ratio(self.hma.total_capacity(), ratio)?;
        self.hma.stacked = cfg.stacked;
        self.hma.offchip = cfg.offchip;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_keeps_table1_ratio() {
        let p = ScaledParams::laptop();
        assert_eq!(p.cores, 12);
        assert_eq!(
            p.hma.offchip.capacity.bytes() / p.hma.stacked.capacity.bytes(),
            5
        );
        assert!(p.l1.capacity < p.l2.capacity);
        assert!(p.l2.capacity < p.l3.capacity);
    }

    #[test]
    fn ratio_override() {
        let p = ScaledParams::laptop().with_ratio(3).unwrap();
        assert_eq!(
            p.hma.offchip.capacity.bytes() / p.hma.stacked.capacity.bytes(),
            3
        );
        assert_eq!(
            p.hma.total_capacity(),
            ScaledParams::laptop().hma.total_capacity()
        );
    }

    #[test]
    fn tiny_is_small() {
        let p = ScaledParams::tiny();
        assert_eq!(p.cores, 2);
        assert!(p.hma.total_capacity().bytes() < ByteSize::mib(128).bytes());
    }
}
