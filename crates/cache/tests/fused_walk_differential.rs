//! Differential proptest for the fused L1/L2 fast path:
//! [`Hierarchy::fast_access`] must be observationally *and* internally
//! indistinguishable from the reference walk. Two identical hierarchies
//! run the same reference sequence — one through the fast path with
//! fallback, one through [`Hierarchy::access_into`] alone — and every
//! divergence in outcome or in the full `Debug`-rendered cache state
//! (tags, dirty bits, recency stamps, statistics) fails the test.
//!
//! The fast path's contract is sharper than "same outcome": when it
//! returns `Some`, the reference walk must have produced *no* memory
//! writebacks and *no* prefetch candidates (the caller skips both
//! buffers entirely), and when it returns `None` it must not have
//! mutated anything. The state comparison after every reference checks
//! both directions.

use chameleon_cache::{
    CacheConfig, Hierarchy, HitLevel, PrefetchBuf, PrefetchConfig, WritebackBuf,
};
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;

/// A small hierarchy so the full-state comparison stays cheap while
/// still exercising multi-set, multi-way behaviour and evictions.
fn small_hierarchy<const L3: usize>(
    cores: usize,
    l3_ways: u32,
    prefetcher: bool,
) -> Hierarchy<4, 8, L3> {
    let cfg = |name: &str, kib: u64, ways: u32, latency: u32| CacheConfig {
        name: name.to_owned(),
        capacity: ByteSize::kib(kib),
        ways,
        line_bytes: 64,
        latency,
    };
    let h = Hierarchy::with_widths(
        cores,
        cfg("L1D", 4, 4, 4),
        cfg("L2", 16, 8, 12),
        cfg("L3", 64, l3_ways, 35),
    );
    if prefetcher {
        h.with_prefetcher(PrefetchConfig::default())
    } else {
        h
    }
}

/// One full walk, returning its level, latency, writebacks and
/// prefetch candidates.
fn walk<const L3: usize>(
    h: &mut Hierarchy<4, 8, L3>,
    core: usize,
    addr: u64,
    is_write: bool,
) -> (HitLevel, u32, WritebackBuf, PrefetchBuf) {
    let (mut wbs, mut pfs) = (WritebackBuf::new(), PrefetchBuf::new());
    let (level, latency) = h.access_into(core, addr, is_write, &mut wbs, &mut pfs);
    (level, latency, wbs, pfs)
}

/// Runs the same reference sequence through the fast path (with
/// fallback) and the reference walk, asserting step-by-step outcome
/// equality and periodic full-state equality.
fn assert_fused_matches_reference<const L3: usize>(
    cores: usize,
    l3_ways: u32,
    prefetcher: bool,
    refs: &[(usize, u64, bool)],
) -> Result<(), TestCaseError> {
    let mut fused = small_hierarchy::<L3>(cores, l3_ways, prefetcher);
    let mut reference = small_hierarchy::<L3>(cores, l3_ways, prefetcher);
    for (i, &(core, addr, is_write)) in refs.iter().enumerate() {
        let expected = walk(&mut reference, core, addr, is_write);
        let (level, sram_latency, writebacks, prefetches) = expected;
        match fused.fast_access(core, addr, is_write) {
            Some(fast) => {
                prop_assert_eq!(fast.0, level, "ref {i}: level diverged");
                prop_assert_eq!(fast.1, sram_latency, "ref {i}: latency diverged");
                prop_assert!(
                    writebacks.is_empty(),
                    "ref {i}: fast path claimed a walk that wrote back"
                );
                prop_assert!(
                    prefetches.is_empty(),
                    "ref {i}: fast path claimed a walk that prefetched"
                );
            }
            None => {
                let out = walk(&mut fused, core, addr, is_write);
                prop_assert_eq!(out, expected, "ref {i}: fallback walk diverged");
            }
        }
        // Full-state checkpoint: every line, stamp, dirty bit and stat
        // in every cache must match. Cheap enough on the small config
        // to do densely; the final reference is always checked.
        if i % 61 == 0 || i + 1 == refs.len() {
            prop_assert_eq!(
                format!("{reference:?}"),
                format!("{fused:?}"),
                "ref {i}: internal state diverged"
            );
        }
    }
    Ok(())
}

/// Reference sequences concentrated on a small line pool (lots of L1/L2
/// hits — the fast path's home turf) mixed with a sparse tail that
/// forces misses, evictions, and dirty writebacks through the fallback.
fn any_refs(cores: usize) -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    let one = (0..cores, 0u64..4096, any::<bool>(), any::<bool>()).prop_map(
        |(core, line, far, is_write)| {
            // Half the draws reuse a 64-line hot pool; the rest roam a
            // footprint several times the L3 to breed dirty victims.
            let line = if far { line } else { line % 64 };
            (core, line * 64, is_write)
        },
    );
    prop::collection::vec(one, 1..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-core, plain LRU walk, no prefetcher.
    #[test]
    fn fused_matches_reference_single_core(refs in any_refs(1)) {
        assert_fused_matches_reference::<16>(1, 16, false, &refs)?;
    }

    /// Two cores sharing the L3: cross-core interleavings churn the
    /// shared level while the private levels stay per-core.
    #[test]
    fn fused_matches_reference_two_cores(refs in any_refs(2)) {
        assert_fused_matches_reference::<16>(2, 16, false, &refs)?;
    }

    /// With the stride prefetcher attached, LLC misses emit candidates —
    /// the fast path must never swallow them.
    #[test]
    fn fused_matches_reference_with_prefetcher(refs in any_refs(1)) {
        assert_fused_matches_reference::<16>(1, 16, true, &refs)?;
    }

    /// A non-power-of-two-friendly L3 associativity exercises the
    /// reciprocal set indexing alongside the fused probes.
    #[test]
    fn fused_matches_reference_narrow_l3(refs in any_refs(1)) {
        assert_fused_matches_reference::<4>(1, 4, false, &refs)?;
    }
}
