//! Cache geometry configuration.

use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// Geometry and access latency of one cache level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Display name ("L1D", "L2", "L3").
    pub name: String,
    /// Total data capacity.
    pub capacity: ByteSize,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in CPU cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Table I L1: 32KB, 4-way, 64B lines.
    pub fn table1_l1() -> Self {
        Self {
            name: "L1D".to_owned(),
            capacity: ByteSize::kib(32),
            ways: 4,
            line_bytes: 64,
            latency: 4,
        }
    }

    /// Table I L2: 256KB private, 8-way, 64B lines.
    pub fn table1_l2() -> Self {
        Self {
            name: "L2".to_owned(),
            capacity: ByteSize::kib(256),
            ways: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Table I L3: 12MB shared, 16-way, 64B lines.
    pub fn table1_l3() -> Self {
        Self {
            name: "L3".to_owned(),
            capacity: ByteSize::mib(12),
            ways: 16,
            line_bytes: 64,
            latency: 35,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Self::validate`]).
    pub fn sets(&self) -> usize {
        // INVARIANT: documented panic; geometries are validated at construction.
        self.validate().expect("invalid cache config");
        (self.capacity.bytes() / (self.ways as u64 * self.line_bytes as u64)) as usize
    }

    /// The physical memory this level can hold: addresses below
    /// `line_bytes << 30` (64 GiB for 64-byte lines), since a way's
    /// 32-bit key keeps the whole line address beside its dirty and
    /// valid bits.
    pub fn addressable_bytes(&self) -> u64 {
        u64::from(self.line_bytes) << crate::set_assoc::KEY_LINE_BITS
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("associativity must be non-zero".to_owned());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size must be a power of two, got {}",
                self.line_bytes
            ));
        }
        let set_bytes = self.ways as u64 * self.line_bytes as u64;
        let cap = self.capacity.bytes();
        if cap == 0 || !cap.is_multiple_of(set_bytes) {
            return Err(format!(
                "capacity {} must be a multiple of way*line ({set_bytes})",
                self.capacity
            ));
        }
        // Set count need not be a power of two (Table I's 12MB LLC has
        // 12288 sets); the cache indexes sets with a modulo.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::table1_l1().sets(), 128);
        assert_eq!(CacheConfig::table1_l2().sets(), 512);
        assert_eq!(
            CacheConfig::table1_l3().sets(),
            12 * 1024 * 1024 / (16 * 64)
        );
    }

    #[test]
    fn keys_address_64_gib_of_64_byte_lines() {
        for cfg in [
            CacheConfig::table1_l1(),
            CacheConfig::table1_l2(),
            CacheConfig::table1_l3(),
        ] {
            assert_eq!(cfg.addressable_bytes(), ByteSize::gib(64).bytes());
        }
    }

    #[test]
    fn non_pow2_set_count_is_valid() {
        // 12MB / (16 ways * 64B) = 12288 sets -- not a power of two; the
        // cache indexes sets modulo the count, so this must validate.
        let cfg = CacheConfig::table1_l3();
        cfg.validate().unwrap();
        assert_eq!(cfg.sets(), 12288);
    }

    #[test]
    fn validate_rejects_zero_ways() {
        let mut c = CacheConfig::table1_l1();
        c.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_pow2_line() {
        let mut c = CacheConfig::table1_l1();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_misaligned_capacity() {
        let mut c = CacheConfig::table1_l1();
        c.capacity = ByteSize::bytes_exact(1000);
        assert!(c.validate().is_err());
    }
}
