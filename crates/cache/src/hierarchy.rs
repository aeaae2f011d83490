//! The three-level cache hierarchy: private L1/L2 per core, shared L3.

use serde::{Deserialize, Serialize};

use crate::set_assoc::Classify;
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

/// Outcome of a hierarchy reference.
///
/// Both result buffers are inline (no heap allocation per reference):
/// writebacks are bounded by the three-level walk, prefetch bursts by the
/// configured degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the reference was serviced.
    pub level: HitLevel,
    /// SRAM hit latency accumulated walking the hierarchy (the memory
    /// latency for `HitLevel::Memory` is charged by the caller).
    pub sram_latency: u32,
    /// Dirty line addresses displaced out of the L3 by this reference;
    /// the caller must write them back to memory.
    pub memory_writebacks: WritebackBuf,
    /// Prefetch candidate addresses emitted by the (optional) stride
    /// prefetcher on an LLC miss; the caller fetches them from memory and
    /// installs them with [`Hierarchy::install_prefetch`].
    pub prefetches: PrefetchBuf,
}

/// Private-L1/L2-per-core plus shared-L3 hierarchy.
///
/// Inclusion is not enforced (GEM5's classic caches in the paper's setup
/// are mostly-inclusive); displaced L1/L2 dirty lines are installed in the
/// next level rather than written to memory directly.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
    l1_latency: u32,
    l2_latency: u32,
    l3_latency: u32,
    prefetchers: Option<Vec<StridePrefetcher>>,
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or any configuration is invalid.
    pub fn new(cores: usize, l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        assert!(cores > 0, "at least one core required");
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

    /// Performs one reference from `core` for the line containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    // lint: hot-path
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> HierarchyOutcome {
        let mut memory_writebacks = WritebackBuf::new();
        let mut prefetches = PrefetchBuf::new();
        let (level, sram_latency) = self.access_into(
            core,
            addr,
            is_write,
            &mut memory_writebacks,
            &mut prefetches,
        );
        HierarchyOutcome {
            level,
            sram_latency,
            memory_writebacks,
            prefetches,
        }
    }

    /// [`Hierarchy::access`] writing its result buffers into
    /// caller-provided storage (cleared first): the per-reference spine
    /// reuses two persistent buffers instead of copying a
    /// [`HierarchyOutcome`] (which is over a hundred bytes wide) out of
    /// the walk on every access.
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

    /// The fused L1/L2 fast path: handles the common clean SRAM hit —
    /// an L1 hit, or an L1 miss whose victim is clean followed by an L2
    /// hit — with single-pass probe-and-commit lookups, and returns
    /// `None` for everything else *without mutating any state*, so the
    /// caller can fall back to the unchanged [`Hierarchy::access_into`].
    ///
    /// On `Some`, the committed state, statistics and latency are
    /// bit-identical to what the full walk would have produced, and the
    /// walk is guaranteed to have emitted no writebacks and no prefetch
    /// candidates (both only arise beyond the L2). Enforced by a
    /// differential proptest (`fused_walk_differential.rs`).
    // lint: hot-path
    #[inline]
    pub fn fast_access(
        &mut self,
        core: usize,
        addr: u64,
        is_write: bool,
    ) -> Option<(HitLevel, u32)> {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // The common case — an L1 hit — is one fused probe-and-commit,
        // exactly as cheap as the reference L1 lookup; a miss leaves the
        // L1 untouched (not even its clock moves).
        if self.l1[core].try_hit(addr, kind) {
            return Some((HitLevel::L1, self.l1_latency));
        }
        match self.l1[core].classify_victim(addr) {
            Classify::CleanVictim { idx } => {
                // The L1 fill is clean (no cascade into L2/L3), so the
                // only remaining question is whether the L2 hits. Its
                // probe-and-commit only mutates on a hit, so an L2 miss
                // still leaves every cache untouched for the reference
                // walk. (L1 and L2 share no state, so committing the L2
                // hit before the L1 fill is observationally identical to
                // the reference walk's L1-fill-then-L2-access order.)
                if self.l2[core].try_hit(addr, kind) {
                    self.l1[core].commit_clean_fill(addr, idx, kind);
                    Some((HitLevel::L2, self.l1_latency + self.l2_latency))
                } else {
                    None
                }
            }
            Classify::Bail => None,
        }
    }

    /// The shared L3 cache (stats access).
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Per-core L1 (stats access).
    pub fn l1(&self, core: usize) -> &SetAssocCache {
        &self.l1[core]
    }

    /// Per-core L2 (stats access).
    pub fn l2(&self, core: usize) -> &SetAssocCache {
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
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::L1);
    }

    #[test]
    fn latency_accumulates_down_the_hierarchy() {
        let mut h = table1(1);
        let miss = h.access(0, 0x2000, false);
        assert_eq!(miss.sram_latency, 4 + 12 + 35);
        let hit = h.access(0, 0x2000, false);
        assert_eq!(hit.sram_latency, 4);
    }

    #[test]
    fn private_caches_do_not_share() {
        let mut h = table1(2);
        h.access(0, 0x3000, false);
        // Core 1 misses its private L1/L2 but hits shared L3.
        assert_eq!(h.access(1, 0x3000, false).level, HitLevel::L3);
    }

    #[test]
    fn capacity_evictions_writeback_dirty_lines() {
        let mut h = table1(1);
        // Dirty many distinct lines far exceeding L1+L2+L3 capacity so
        // dirty L3 victims appear.
        let mut wrote_back = 0;
        for i in 0..1_000_000u64 {
            let out = h.access(0, i * 64, true);
            wrote_back += out.memory_writebacks.len();
        }
        assert!(wrote_back > 0, "expected dirty L3 victims");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        table1(0);
    }

    #[test]
    fn prefetcher_emits_on_streaming_misses() {
        let mut h = table1(1).with_prefetcher(crate::PrefetchConfig::default());
        let mut emitted = 0;
        for i in 0..16u64 {
            let out = h.access(0, (1 << 20) + i * 64, false);
            emitted += out.prefetches.len();
        }
        assert!(emitted > 0, "stream must trigger prefetches");
        // Installing a prefetched line makes it an L3 hit.
        h.install_prefetch(1 << 22);
        assert_eq!(h.access(0, 1 << 22, false).level, HitLevel::L3);
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
        let mut h = Hierarchy::new(1, tiny("L1", 1), tiny("L2", 1), tiny("L3", 2));
        h.access(0, 0, true);
        assert_eq!(h.install_prefetch(64), None, "fills the invalid way");
        assert_eq!(h.install_prefetch(128), Some(0), "displaces dirty line 0");
        assert_eq!(h.l3().stats().evictions.value(), 1);
        assert_eq!(h.l3().stats().writebacks.value(), 1);
    }

    #[test]
    fn no_prefetcher_no_candidates() {
        let mut h = table1(1);
        for i in 0..16u64 {
            assert!(h.access(0, i * 64, false).prefetches.is_empty());
        }
    }
}
