//! Property-based tests for the cache models.

use chameleon_cache::{
    AccessKind, CacheConfig, Hierarchy, HitLevel, LookupResult, PrefetchBuf, SetAssocCache,
    WritebackBuf,
};
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;

#[path = "support/lru_model.rs"]
mod lru_model;
use lru_model::LruModel;

fn small_cfg(ways: u32, sets: u64) -> CacheConfig {
    CacheConfig {
        name: "prop".to_owned(),
        capacity: ByteSize::bytes_exact(sets * ways as u64 * 64),
        ways,
        line_bytes: 64,
        latency: 1,
    }
}

/// A `W`-way cache of `sets` sets of 64B lines.
fn small_cache<const W: usize>(sets: u64) -> SetAssocCache<W> {
    SetAssocCache::new(small_cfg(W as u32, sets))
}

/// Fills each address then reads it again, which must hit.
fn fill_then_hit_at<const W: usize>(addrs: &[u64]) -> Result<(), TestCaseError> {
    let mut c = small_cache::<W>(16);
    for &a in addrs {
        c.access(a, AccessKind::Read);
        prop_assert_eq!(
            c.access(a, AccessKind::Read),
            LookupResult::Hit,
            "{}-way",
            W
        );
    }
    Ok(())
}

proptest! {
    /// An access immediately after a miss to the same line always hits.
    #[test]
    fn fill_then_hit(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..200),
    ) {
        fill_then_hit_at::<1>(&addrs)?;
        fill_then_hit_at::<2>(&addrs)?;
        fill_then_hit_at::<3>(&addrs)?;
        fill_then_hit_at::<4>(&addrs)?;
        fill_then_hit_at::<5>(&addrs)?;
        fill_then_hit_at::<6>(&addrs)?;
        fill_then_hit_at::<7>(&addrs)?;
    }

    /// hits + misses == accesses, and a cache never reports more resident
    /// lines than its capacity allows (checked via probe over the trace).
    #[test]
    fn stats_partition_and_capacity(
        addrs in prop::collection::vec(0u64..(1 << 16), 1..500),
    ) {
        let ways = 2u32;
        let sets = 8u64;
        let mut c = small_cache::<2>(sets);
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
        let mut c = small_cache::<2>(sets);
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
        let (mut wbs, mut pfs) = (WritebackBuf::new(), PrefetchBuf::new());
        let mut level = || h.access_into(0, addr, false, &mut wbs, &mut pfs).0;
        prop_assert_eq!(level(), HitLevel::Memory);
        prop_assert_eq!(level(), HitLevel::L1);
        prop_assert_eq!(level(), HitLevel::L1);
    }
}

/// One step of a reference-model run: a read or a write (`Some`), or a
/// prefetch `touch` (`None`), of a line drawn from the run's pool.
fn any_step() -> impl Strategy<Value = (Option<AccessKind>, u64)> {
    let op = prop::sample::select(vec![Some(AccessKind::Read), Some(AccessKind::Write), None]);
    (op, any::<u64>())
}

/// Runs `steps` through a `W`-way cache and the recency-list model,
/// checking after every step the hit or miss, the written-back address
/// and `probe` of every line in the pool.
fn check_against_lru<const W: usize>(
    steps: &[(Option<AccessKind>, u64)],
    sets: u64,
    offset: u64,
) -> Result<(), TestCaseError> {
    let ways = W as u32;
    let mut cache = small_cache::<W>(sets);
    let mut model = LruModel::new(ways, sets);
    // Three times the capacity: plenty of hits and of evictions.
    let pool = 3 * sets * u64::from(ways);
    for (i, &(op, line)) in steps.iter().enumerate() {
        let addr = line % pool * 64 + offset;
        match op {
            Some(kind) => {
                let (hit, writeback) = model.reference(addr, kind == AccessKind::Write);
                let expected = if hit {
                    LookupResult::Hit
                } else {
                    LookupResult::Miss { writeback }
                };
                prop_assert_eq!(
                    cache.access(addr, kind),
                    expected,
                    "{}-way, step {}: {:?} of {:#x}",
                    ways,
                    i,
                    op,
                    addr
                );
            }
            None => {
                let (_, writeback) = model.reference(addr, false);
                prop_assert_eq!(
                    cache.touch(addr),
                    writeback,
                    "{}-way, step {}: {:?} of {:#x}",
                    ways,
                    i,
                    op,
                    addr
                );
            }
        }
        for l in 0..pool {
            prop_assert_eq!(
                cache.probe(l * 64),
                model.probe(l * 64),
                "{}-way, step {}: probe of line {}",
                ways,
                i,
                l
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SetAssocCache` behaves as a per-set recency-list LRU at every
    /// associativity: the Table I widths (4, 8, 16) and odd ones (1, 2,
    /// 3), whose victim tree carries an unpaired way up a level, over
    /// power-of-two and reciprocal set indexing.
    #[test]
    fn set_assoc_matches_recency_list_lru(
        steps in prop::collection::vec(any_step(), 1..300),
        sets in prop::sample::select(vec![1u64, 3, 4]),
        offset in 0u64..64,
    ) {
        check_against_lru::<1>(&steps, sets, offset)?;
        check_against_lru::<2>(&steps, sets, offset)?;
        check_against_lru::<3>(&steps, sets, offset)?;
        check_against_lru::<4>(&steps, sets, offset)?;
        check_against_lru::<8>(&steps, sets, offset)?;
        check_against_lru::<16>(&steps, sets, offset)?;
    }
}
