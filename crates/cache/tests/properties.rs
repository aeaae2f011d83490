//! Property-based tests for the cache models.

use std::collections::HashSet;

use chameleon_cache::{
    AccessKind, CacheConfig, Hierarchy, HitLevel, LookupResult, PrefetchBuf, PrefetchConfig,
    SetAssocCache, WritebackBuf,
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

/// A hierarchy of small levels (4 KiB L1, 16 KiB L2, 48 KiB L3) at
/// Table I's widths (4/8/16-way), or with a 4-way L3. The L3's set
/// count (48 or 192) is not a power of two, so its reciprocal set
/// indexing runs too.
fn small_hierarchy<const L3: usize>(cores: usize, prefetcher: bool) -> Hierarchy<4, 8, L3> {
    let l3_lines = 768;
    let h = Hierarchy::with_widths(
        cores,
        small_cfg(4, 16),
        small_cfg(8, 32),
        small_cfg(L3 as u32, l3_lines / L3 as u64),
    );
    if prefetcher {
        h.with_prefetcher(PrefetchConfig::default())
    } else {
        h
    }
}

/// Walks `refs` through `h`, installing every prefetch candidate,
/// checking that each memory writeback (the walk's or an install's)
/// names a line the sequence has stored to, and that an immediate
/// re-reference on the same core hits L1.
fn check_walk<const L3: usize>(
    mut h: Hierarchy<4, 8, L3>,
    refs: &[(usize, u64, bool)],
) -> Result<(), TestCaseError> {
    let (mut wbs, mut pfs) = (WritebackBuf::new(), PrefetchBuf::new());
    let mut stored = HashSet::new();
    for (i, &(core, addr, write)) in refs.iter().enumerate() {
        h.access_into(core, addr, write, &mut wbs, &mut pfs);
        let mut written_back = wbs.to_vec();
        written_back.extend(pfs.iter().filter_map(|&pf| h.install_prefetch(pf)));
        for wb in written_back {
            prop_assert!(
                stored.contains(&wb),
                "ref {}: wrote back {:#x}, never stored",
                i,
                wb
            );
        }
        if write {
            stored.insert(addr);
        }
        let (level, _) = h.access_into(core, addr, false, &mut wbs, &mut pfs);
        prop_assert_eq!(
            level,
            HitLevel::L1,
            "ref {}: re-reference of {:#x}",
            i,
            addr
        );
    }
    Ok(())
}

/// `(core, line address, write)` sequences of short strided runs, so
/// the prefetcher confirms strides, each over a hot 64-line pool or a
/// footprint several times the L3, so dirty lines leave every level.
/// The core is drawn from two and reduced modulo the core count.
fn any_refs() -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    let run = (
        0..2usize,
        0u64..4096,
        any::<bool>(),
        1u64..4,
        1u64..8,
        any::<bool>(),
    )
        .prop_map(|(core, line, hot, stride, len, write)| {
            let start = if hot { line % 64 } else { line };
            (0..len)
                .map(|k| (core, (start + k * stride) * 64, write))
                .collect::<Vec<_>>()
        });
    prop::collection::vec(run, 1..300).prop_map(|runs| runs.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one hierarchy walk, `access_into`, with one or two cores, the
    /// prefetcher on or off and a 16- or 4-way L3: an immediate
    /// re-reference hits L1, and every memory writeback is of a line
    /// the sequence stored to.
    #[test]
    fn hierarchy_walk_rehits_l1_and_writes_back_only_stored_lines(
        cores in 1usize..3,
        prefetcher in any::<bool>(),
        narrow_l3 in any::<bool>(),
        refs in any_refs(),
    ) {
        let refs: Vec<_> = refs.into_iter().map(|(c, a, w)| (c % cores, a, w)).collect();
        if narrow_l3 {
            check_walk(small_hierarchy::<4>(cores, prefetcher), &refs)?;
        } else {
            check_walk(small_hierarchy::<16>(cores, prefetcher), &refs)?;
        }
    }
}
