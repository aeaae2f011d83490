//! Configuration shared by the heterogeneous-memory policies.

use chameleon_dram::DramConfig;
use chameleon_simkit::mem::ByteSize;
use chameleon_simkit::{ClockDomain, Cycle};
use serde::{Deserialize, Serialize};

/// Configuration of a heterogeneous memory architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmaConfig {
    /// Stacked DRAM device.
    pub stacked: DramConfig,
    /// Off-chip DRAM device.
    pub offchip: DramConfig,
    /// CPU clock domain all latencies are expressed in.
    pub cpu_clock: ClockDomain,
    /// Segment size (2KB in the paper's PoM baseline; 64B for CAMEO).
    pub segment: ByteSize,
    /// Competing-counter threshold before a hot off-chip segment is
    /// swapped into the stacked slot (PoM fast-swap policy).
    pub swap_threshold: u16,
    /// Accesses a segment needs before a cache-mode group fills it.
    /// The paper's Chameleon uses 0 (fill on first touch — Section VI-B
    /// explicitly notes the absence of a threshold); non-zero values are
    /// the DESIGN.md D1 ablation.
    #[serde(default)]
    pub cache_fill_threshold: u16,
    /// Latency of servicing an access from the in-transit local buffers
    /// (Section V-D1).
    pub buffer_latency: Cycle,
    /// Zero segments on cache/PoM transitions to prevent information
    /// leakage (Section V-D2). Adds write traffic on every transition.
    pub secure_clear: bool,
    /// Skip moving dead data when an `ISA-Free`-triggered relocation only
    /// needs to move one live segment (ablation; the paper's hardware
    /// performs full swaps, which `false` models).
    pub elide_dead_copy: bool,
}

impl HmaConfig {
    /// The paper's Table I configuration: 4GB stacked + 20GB off-chip,
    /// 2KB segments, 3.6GHz cores.
    pub fn table1() -> Self {
        Self {
            stacked: DramConfig::stacked_4gb(),
            offchip: DramConfig::offchip_20gb(),
            cpu_clock: ClockDomain::from_ghz(3.6),
            segment: ByteSize::kib(2),
            swap_threshold: 16,
            cache_fill_threshold: 0,
            buffer_latency: 40,
            secure_clear: false,
            elide_dead_copy: false,
        }
    }

    /// Table I scaled 1/64 for laptop-scale experiment runs: 64MiB
    /// stacked + 320MiB off-chip. Timings, bandwidths and ratios are
    /// unchanged, so behaviour shape is preserved.
    pub fn scaled_laptop() -> Self {
        Self {
            stacked: DramConfig::stacked_scaled(ByteSize::mib(64)),
            offchip: DramConfig::offchip_scaled(ByteSize::mib(320)),
            ..Self::table1()
        }
    }

    /// A scaled configuration with an explicit stacked:off-chip ratio
    /// (Figures 21/23 use 1:3 and 1:7 at constant total capacity).
    ///
    /// # Errors
    ///
    /// Returns an error if `ratio` is zero (no off-chip memory) or
    /// `total` does not divide evenly into `ratio + 1` parts.
    pub fn scaled_with_ratio(total: ByteSize, ratio: u64) -> Result<Self, String> {
        if ratio == 0 {
            return Err("ratio must be at least 1 (1:0 leaves no off-chip memory)".to_owned());
        }
        let parts = ratio.saturating_add(1);
        if !total.bytes().is_multiple_of(parts) {
            return Err(format!("total {total} does not divide into {parts} parts"));
        }
        let stacked = ByteSize::bytes_exact(total.bytes() / parts);
        let offchip = ByteSize::bytes_exact(total.bytes() - stacked.bytes());
        Ok(Self {
            stacked: DramConfig::stacked_scaled(stacked),
            offchip: DramConfig::offchip_scaled(offchip),
            ..Self::table1()
        })
    }

    /// CAMEO-style variant: 64-byte segments.
    pub fn with_cameo_segments(mut self) -> Self {
        self.segment = ByteSize::bytes_exact(64);
        self
    }

    /// Total OS-visible capacity when both devices are part of memory.
    pub fn total_capacity(&self) -> ByteSize {
        self.stacked.capacity + self.offchip.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = HmaConfig::table1();
        assert_eq!(c.stacked.capacity, ByteSize::gib(4));
        assert_eq!(c.offchip.capacity, ByteSize::gib(20));
        assert_eq!(c.segment, ByteSize::kib(2));
        assert_eq!(c.total_capacity(), ByteSize::gib(24));
    }

    #[test]
    fn scaled_keeps_ratio() {
        let c = HmaConfig::scaled_laptop();
        assert_eq!(c.offchip.capacity.bytes() / c.stacked.capacity.bytes(), 5);
    }

    #[test]
    fn ratio_configs() {
        let c3 = HmaConfig::scaled_with_ratio(ByteSize::mib(384), 3).unwrap();
        assert_eq!(c3.stacked.capacity, ByteSize::mib(96));
        assert_eq!(c3.offchip.capacity, ByteSize::mib(288));
        let c7 = HmaConfig::scaled_with_ratio(ByteSize::mib(384), 7).unwrap();
        assert_eq!(c7.stacked.capacity, ByteSize::mib(48));
        // 384 MiB does not split into five parts, and 1:0 has no off-chip
        // memory at all.
        assert!(HmaConfig::scaled_with_ratio(ByteSize::mib(384), 4).is_err());
        assert!(HmaConfig::scaled_with_ratio(ByteSize::mib(384), 0).is_err());
    }

    #[test]
    fn cameo_variant_shrinks_segments() {
        let c = HmaConfig::scaled_laptop().with_cameo_segments();
        assert_eq!(c.segment.bytes(), 64);
    }
}
