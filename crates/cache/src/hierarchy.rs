//! The three-level cache hierarchy: private L1/L2 per core, shared L3.

use serde::{Deserialize, Serialize};

use crate::{
    AccessKind, CacheConfig, InlineVec, LookupResult, PrefetchBuf, PrefetchConfig, SetAssocCache,
    StridePrefetcher,
};

/// Dirty-victim buffer of one hierarchy walk: the L1 victim's cascade can
/// displace one dirty line from the L3, and so can the L2 victim's and
/// the demand fill itself — three memory writebacks at most.
pub type WritebackBuf = InlineVec<3>;

/// Which level serviced a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Private first-level cache.
    L1,
    /// Private second-level cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Missed everywhere; must go to memory.
    Memory,
}

/// Private-L1/L2-per-core plus shared-L3 hierarchy.
///
/// Each level's associativity is a compile-time width (`L1`, `L2`, `L3`
/// ways), defaulting to Table I's 4/8/16, so every set scan is unrolled
/// for its level. [`CacheConfig::ways`] still describes the geometry and
/// keys sweep jobs; the constructors check that it agrees.
///
/// Inclusion is not enforced (GEM5's classic caches in the paper's setup
/// are mostly-inclusive); displaced L1/L2 dirty lines are installed in the
/// next level rather than written to memory directly.
#[derive(Debug, Clone)]
pub struct Hierarchy<const L1: usize = 4, const L2: usize = 8, const L3: usize = 16> {
    l1: Vec<SetAssocCache<L1>>,
    l2: Vec<SetAssocCache<L2>>,
    l3: SetAssocCache<L3>,
    l1_latency: u32,
    l2_latency: u32,
    l3_latency: u32,
    prefetchers: Option<Vec<StridePrefetcher>>,
}

/// Panics unless `cfg` is `ways`-way, naming `level`.
fn check_width(level: &str, ways: usize, cfg: &CacheConfig) {
    assert!(
        cfg.ways as usize == ways,
        "{level} is {ways}-way, config says {}",
        cfg.ways
    );
}

impl Hierarchy {
    /// Builds a hierarchy of Table I's widths (4-way L1, 8-way L2, 16-way
    /// L3) for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, if any configuration is invalid, or if a
    /// level's [`CacheConfig::ways`] is not its Table I width (the
    /// message names the level: "L2 is 8-way, config says 16").
    pub fn new(cores: usize, l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        Self::with_widths(cores, l1, l2, l3)
    }
}

impl<const L1: usize, const L2: usize, const L3: usize> Hierarchy<L1, L2, L3> {
    /// Builds a hierarchy of the widths the type names
    /// (`Hierarchy::<4, 8, 2>::with_widths`) for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, if any configuration is invalid, or if a
    /// level's [`CacheConfig::ways`] is not its compile-time width (the
    /// message names the level: "L2 is 8-way, config says 16").
    pub fn with_widths(cores: usize, l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        assert!(cores > 0, "at least one core required");
        check_width("L1", L1, &l1);
        check_width("L2", L2, &l2);
        check_width("L3", L3, &l3);
        let l1_latency = l1.latency;
        let l2_latency = l2.latency;
        let l3_latency = l3.latency;
        Self {
            l1: (0..cores).map(|_| SetAssocCache::new(l1.clone())).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(l2.clone())).collect(),
            l3: SetAssocCache::new(l3),
            l1_latency,
            l2_latency,
            l3_latency,
            prefetchers: None,
        }
    }

    /// Attaches a per-core stride prefetcher (off by default; the core
    /// model's effective MLP already folds typical prefetching in, so
    /// this is an explicit-ablation knob).
    pub fn with_prefetcher(mut self, cfg: PrefetchConfig) -> Self {
        let cores = self.l1.len();
        self.prefetchers = Some((0..cores).map(|_| StridePrefetcher::new(cfg)).collect());
        self
    }

    /// Installs a prefetched line into the shared L3 (counted as no
    /// access). Returns the address of a dirty line the fill displaced;
    /// the caller must write it back to memory.
    pub fn install_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.l3.touch(addr)
    }

    /// Performs one reference from `core` for the line containing `addr`,
    /// returning where it was serviced and the SRAM hit latency
    /// accumulated on the way (the memory latency of a
    /// [`HitLevel::Memory`] reference is the caller's to charge). This is
    /// the one walk the per-reference spine (`System::access`) makes:
    /// each level is scanned once, and the hit scan and (on a miss) the
    /// victim scan are all a level costs.
    ///
    /// The walk writes into caller-provided buffers the dirty lines it
    /// displaced out of the L3, which the caller must write back to
    /// memory, and the stride prefetcher's candidates on an LLC miss,
    /// which the caller fetches and installs with
    /// [`Hierarchy::install_prefetch`]. Both are inline (no heap
    /// allocation per reference): writebacks are bounded by the
    /// three-level walk, prefetch bursts by the configured degree.
    ///
    /// On return the buffers hold exactly this reference's writebacks and
    /// prefetch candidates. Clearing them is two length stores, not a
    /// rebuild, so a caller keeps one pair for the whole run
    /// (`System::access` holds them in the `System`) and zero-fills
    /// nothing per reference.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    // lint: hot-path
    #[inline]
    pub fn access_into(
        &mut self,
        core: usize,
        addr: u64,
        is_write: bool,
        memory_writebacks: &mut WritebackBuf,
        prefetches: &mut PrefetchBuf,
    ) -> (HitLevel, u32) {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        memory_writebacks.clear();
        prefetches.clear();
        let mut latency = self.l1_latency;

        // L1.
        match self.l1[core].access(addr, kind) {
            LookupResult::Hit => return (HitLevel::L1, latency),
            LookupResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    // Dirty L1 victim lands in L2.
                    if let LookupResult::Miss {
                        writeback: Some(wb2),
                    } = self.l2[core].access(wb, AccessKind::Write)
                    {
                        if let LookupResult::Miss {
                            writeback: Some(wb3),
                        } = self.l3.access(wb2, AccessKind::Write)
                        {
                            memory_writebacks.push(wb3);
                        }
                    }
                }
            }
        }

        // L2.
        latency += self.l2_latency;
        match self.l2[core].access(addr, kind) {
            LookupResult::Hit => return (HitLevel::L2, latency),
            LookupResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    if let LookupResult::Miss {
                        writeback: Some(wb2),
                    } = self.l3.access(wb, AccessKind::Write)
                    {
                        memory_writebacks.push(wb2);
                    }
                }
            }
        }

        // L3 (shared).
        latency += self.l3_latency;
        match self.l3.access(addr, kind) {
            LookupResult::Hit => (HitLevel::L3, latency),
            LookupResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    memory_writebacks.push(wb);
                }
                if let Some(pf) = self.prefetchers.as_mut() {
                    *prefetches = pf[core].observe(addr);
                }
                (HitLevel::Memory, latency)
            }
        }
    }

    /// Always `None`: every reference takes [`Hierarchy::access_into`].
    /// Kept only for the two calls in `perfbench/src/rate.rs` (lines 443
    /// and 464), whose contract is "`None` mutates nothing, walk through
    /// `access_into`"; the next benchmark change deletes it with them.
    pub fn fast_access(
        &mut self,
        _core: usize,
        _addr: u64,
        _is_write: bool,
    ) -> Option<(HitLevel, u32)> {
        None
    }

    /// The shared L3 cache (stats access).
    pub fn l3(&self) -> &SetAssocCache<L3> {
        &self.l3
    }

    /// Per-core L1 (stats access).
    pub fn l1(&self, core: usize) -> &SetAssocCache<L1> {
        &self.l1[core]
    }

    /// Per-core L2 (stats access).
    pub fn l2(&self, core: usize) -> &SetAssocCache<L2> {
        &self.l2[core]
    }

    /// Resets all statistics, preserving contents (post-warm-up).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One walk, returning its level, latency, writebacks and prefetches.
    fn walk<const A: usize, const B: usize, const C: usize>(
        h: &mut Hierarchy<A, B, C>,
        core: usize,
        addr: u64,
        is_write: bool,
    ) -> (HitLevel, u32, WritebackBuf, PrefetchBuf) {
        let (mut wbs, mut pfs) = (WritebackBuf::new(), PrefetchBuf::new());
        let (level, latency) = h.access_into(core, addr, is_write, &mut wbs, &mut pfs);
        (level, latency, wbs, pfs)
    }

    /// A Table I hierarchy for `cores` cores.
    fn table1(cores: usize) -> Hierarchy {
        Hierarchy::new(
            cores,
            CacheConfig::table1_l1(),
            CacheConfig::table1_l2(),
            CacheConfig::table1_l3(),
        )
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = table1(1);
        assert_eq!(walk(&mut h, 0, 0x1000, false).0, HitLevel::Memory);
        assert_eq!(walk(&mut h, 0, 0x1000, false).0, HitLevel::L1);
    }

    #[test]
    fn latency_accumulates_down_the_hierarchy() {
        let mut h = table1(1);
        assert_eq!(walk(&mut h, 0, 0x2000, false).1, 4 + 12 + 35);
        assert_eq!(walk(&mut h, 0, 0x2000, false).1, 4);
    }

    #[test]
    fn private_caches_do_not_share() {
        let mut h = table1(2);
        walk(&mut h, 0, 0x3000, false);
        // Core 1 misses its private L1/L2 but hits shared L3.
        assert_eq!(walk(&mut h, 1, 0x3000, false).0, HitLevel::L3);
    }

    #[test]
    fn capacity_evictions_writeback_dirty_lines() {
        let mut h = table1(1);
        // Dirty many distinct lines far exceeding L1+L2+L3 capacity so
        // dirty L3 victims appear.
        let mut wrote_back = 0;
        for i in 0..1_000_000u64 {
            wrote_back += walk(&mut h, 0, i * 64, true).2.len();
        }
        assert!(wrote_back > 0, "expected dirty L3 victims");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        table1(0);
    }

    #[test]
    #[should_panic(expected = "L2 is 8-way, config says 16")]
    fn width_mismatch_names_the_level() {
        let l2 = CacheConfig {
            ways: 16,
            ..CacheConfig::table1_l2()
        };
        Hierarchy::new(1, CacheConfig::table1_l1(), l2, CacheConfig::table1_l3());
    }

    #[test]
    fn other_widths_are_named() {
        let l3 = CacheConfig {
            ways: 2,
            ..CacheConfig::table1_l3()
        };
        let mut h = Hierarchy::<4, 8, 2>::with_widths(
            1,
            CacheConfig::table1_l1(),
            CacheConfig::table1_l2(),
            l3,
        );
        assert_eq!(walk(&mut h, 0, 0x1000, false).0, HitLevel::Memory);
        assert_eq!(walk(&mut h, 0, 0x1000, false).0, HitLevel::L1);
    }

    #[test]
    fn prefetcher_emits_on_streaming_misses() {
        let mut h = table1(1).with_prefetcher(crate::PrefetchConfig::default());
        let mut emitted = 0;
        for i in 0..16u64 {
            emitted += walk(&mut h, 0, (1 << 20) + i * 64, false).3.len();
        }
        assert!(emitted > 0, "stream must trigger prefetches");
        // Installing a prefetched line makes it an L3 hit.
        h.install_prefetch(1 << 22);
        assert_eq!(walk(&mut h, 0, 1 << 22, false).0, HitLevel::L3);
    }

    #[test]
    fn prefetch_install_writes_back_a_dirty_victim() {
        let tiny = |name: &str, ways: u32| CacheConfig {
            name: name.to_owned(),
            capacity: chameleon_simkit::mem::ByteSize::bytes_exact(u64::from(ways) * 64),
            ways,
            line_bytes: 64,
            latency: 1,
        };
        // One 2-way L3 set: a demand write leaves line 0 dirty in it.
        let mut h =
            Hierarchy::<1, 1, 2>::with_widths(1, tiny("L1", 1), tiny("L2", 1), tiny("L3", 2));
        walk(&mut h, 0, 0, true);
        assert_eq!(h.install_prefetch(64), None, "fills the invalid way");
        assert_eq!(h.install_prefetch(128), Some(0), "displaces dirty line 0");
        assert_eq!(h.l3().stats().evictions.value(), 1);
        assert_eq!(h.l3().stats().writebacks.value(), 1);
    }

    #[test]
    fn no_prefetcher_no_candidates() {
        let mut h = table1(1);
        for i in 0..16u64 {
            assert!(walk(&mut h, 0, i * 64, false).3.is_empty());
        }
    }
}
