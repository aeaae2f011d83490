//! Property-based tests for the cache models.

use chameleon_cache::{AccessKind, CacheConfig, Hierarchy, HitLevel, LookupResult, SetAssocCache};
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;

fn small_cfg(ways: u32, sets: u64) -> CacheConfig {
    CacheConfig {
        name: "prop".to_owned(),
        capacity: ByteSize::bytes_exact(sets * ways as u64 * 64),
        ways,
        line_bytes: 64,
        latency: 1,
    }
}

proptest! {
    /// An access immediately after a miss to the same line always hits.
    #[test]
    fn fill_then_hit(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..200),
        ways in 1u32..8,
    ) {
        let mut c = SetAssocCache::new(small_cfg(ways, 16));
        for a in addrs {
            c.access(a, AccessKind::Read);
            prop_assert_eq!(c.access(a, AccessKind::Read), LookupResult::Hit);
        }
    }

    /// hits + misses == accesses, and a cache never reports more resident
    /// lines than its capacity allows (checked via probe over the trace).
    #[test]
    fn stats_partition_and_capacity(
        addrs in prop::collection::vec(0u64..(1 << 16), 1..500),
    ) {
        let ways = 2u32;
        let sets = 8u64;
        let mut c = SetAssocCache::new(small_cfg(ways, sets));
        for &a in &addrs {
            c.access(a, AccessKind::Read);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits.value() + s.misses.value(), addrs.len() as u64);
        let resident = (0..(1u64 << 16) / 64)
            .filter(|&l| c.probe(l * 64))
            .count() as u64;
        prop_assert!(resident <= ways as u64 * sets);
    }

    /// Writing a line then evicting it always produces exactly one
    /// writeback for that line.
    #[test]
    fn dirty_lines_are_never_lost(line in 0u64..64) {
        let sets = 4u64;
        let ways = 2u32;
        let mut c = SetAssocCache::new(small_cfg(ways, sets));
        let addr = line * 64;
        c.access(addr, AccessKind::Write);
        // Thrash the same set until the dirty line is evicted.
        let set = line % sets;
        let mut seen_wb = false;
        for k in 1..=ways as u64 {
            let conflicting = (line + k * sets) * 64;
            debug_assert_eq!(conflicting / 64 % sets, set);
            if let LookupResult::Miss { writeback: Some(wb) } =
                c.access(conflicting, AccessKind::Read)
            {
                prop_assert_eq!(wb, addr);
                seen_wb = true;
            }
        }
        prop_assert!(seen_wb, "dirty line must have been written back");
    }

    /// The hierarchy's reported level ordering is consistent: once a line
    /// hits in L1 it keeps hitting in L1 until capacity pressure.
    #[test]
    fn hierarchy_levels_consistent(addr in (0u64..(1 << 24)).prop_map(|a| a & !63)) {
        let mut h = Hierarchy::new(
            1,
            CacheConfig::table1_l1(),
            CacheConfig::table1_l2(),
            CacheConfig::table1_l3(),
        );
        prop_assert_eq!(h.access(0, addr, false).level, HitLevel::Memory);
        prop_assert_eq!(h.access(0, addr, false).level, HitLevel::L1);
        prop_assert_eq!(h.access(0, addr, false).level, HitLevel::L1);
    }
}
