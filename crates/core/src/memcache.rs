//! The MemCache hybrid baseline (after Bakhshalipour et al.): the stacked
//! DRAM is a page-granularity cache, but pages are only brought in once
//! they have proven hot — cold pages are served flat from off-chip and
//! never pollute the cache. A per-page access counter implements the hot
//! filter; evicted pages keep half their threshold as hysteresis so a
//! page ping-ponging at the margin does not thrash.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::page_index::PageIndex;
use crate::policy::{base_lifecycle, HmaPolicy, ModeDistribution, PolicyBase};
use crate::HmaConfig;

/// MemCache: a hot-filtered page-granularity stacked-DRAM cache. The
/// stacked DRAM is not OS-visible (`Visibility::OffchipOnly`).
///
/// # Example
///
/// ```
/// use chameleon_core::{HmaConfig, MemCachePolicy, policy::HmaPolicy};
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut mc = MemCachePolicy::new(cfg);
/// // A single touch is below the hot threshold: no fill happens.
/// mc.access(off_base, false, 0);
/// assert_eq!(mc.stats().fills.value(), 0);
/// ```
#[derive(Debug)]
pub struct MemCachePolicy {
    base: PolicyBase,
    /// The page frames; a frame's state is its dirty bit.
    index: PageIndex<bool>,
    /// Number of valid frames.
    valid: u64,
    /// Per-off-chip-page access counters (the hot filter).
    heat: Vec<u16>,
    threshold: u16,
}

impl MemCachePolicy {
    /// Builds the MemCache hybrid; the hot threshold is the configured
    /// PoM swap threshold, so the schemes compete on equal training.
    pub fn new(cfg: HmaConfig) -> Self {
        let geom = cfg.geometry();
        let offchip_pages = (cfg.offchip.capacity.bytes() / geom.segment_bytes()) as usize;
        Self {
            index: PageIndex::new(geom),
            valid: 0,
            heat: vec![0; offchip_pages],
            threshold: cfg.swap_threshold.max(1),
            base: PolicyBase::new(cfg),
        }
    }

    /// Number of sets in the page cache.
    pub fn sets(&self) -> u64 {
        self.index.sets()
    }
}

impl IsaHook for MemCachePolicy {
    // Software-transparent, like the other OffchipOnly caches.
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

impl HmaPolicy for MemCachePolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        let (page, offset, rel) = self.index.locate(paddr);
        self.base.stats.demand_accesses.inc();
        self.index.tick();
        let op = if write { MemOp::Write } else { MemOp::Read };

        let latency = if let Some(idx) = self.index.lookup(page) {
            let data =
                self.base
                    .devices
                    .stacked
                    .access(self.index.frame_addr(idx) + offset, 64, op, now);
            self.index.frames[idx].state |= write;
            self.index.touch(idx);
            self.base.stats.stacked_hits.inc();
            self.base.stats.stacked_latency.record(data.latency as f64);
            data.latency
        } else {
            // Cold (or not yet resident): serve flat from off-chip and
            // train the hot filter.
            let mem = self.base.devices.offchip.access(rel, 64, op, now);
            let heat = &mut self.heat[page as usize];
            *heat = heat.saturating_add(1);
            if *heat >= self.threshold {
                // The page proved hot: evict the LRU way and fill it.
                let victim = self.index.victim(page);
                let old = self.index.install(victim, page, write);
                let frame_addr = self.index.frame_addr(victim);
                let len = self.base.segment_len();
                let devices = &mut self.base.devices;
                if old.valid {
                    if old.state {
                        let home = self.index.page_addr(old.tag);
                        devices.writeback_segment(frame_addr, home, len, now);
                        self.base.stats.writebacks.inc();
                    }
                    // Hysteresis: an evicted page restarts halfway to hot.
                    self.heat[old.tag as usize] = self.threshold / 2;
                }
                devices.fill_segment(self.index.page_addr(page), frame_addr, len, now);
                self.base.stats.fills.inc();
                self.valid += u64::from(!old.valid);
                self.heat[page as usize] = 0;
            }
            self.base.stats.offchip_latency.record(mem.latency as f64);
            mem.latency
        };
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        let (page, offset, rel) = self.index.locate(paddr);
        self.base.stats.llc_writebacks.inc();
        if let Some(idx) = self.index.lookup(page) {
            self.index.frames[idx].state = true;
            let addr = self.index.frame_addr(idx) + offset;
            self.base
                .devices
                .stacked
                .access(addr, 64, MemOp::Write, now);
        } else {
            // No allocate-on-writeback, and no hot-filter training: posted
            // victims are not demand heat.
            self.base.devices.offchip.access(rel, 64, MemOp::Write, now);
        }
    }

    base_lifecycle!();

    fn mode_distribution(&self) -> ModeDistribution {
        // The whole stacked device operates as a cache.
        ModeDistribution {
            cache_groups: self.index.frames.len() as u64,
            pom_groups: 0,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        debug_assert_eq!(
            self.valid,
            self.index.frames.iter().filter(|f| f.valid).count() as u64,
            "MemCache valid-frame count drifted from its frames"
        );
        let geom = &self.index.geom;
        (self.valid * geom.segment_bytes(), geom.stacked_bytes())
    }
}

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

    fn off(paddr: u64) -> u64 {
        (2 << 20) + paddr
    }

    #[test]
    fn cold_pages_stay_flat() {
        let mut mc = MemCachePolicy::new(cfg());
        for i in 0..u64::from(mc.threshold - 1) {
            mc.access(off(0), false, i * 10_000_000);
        }
        assert_eq!(mc.stats().fills.value(), 0);
        assert_eq!(mc.stats().stacked_hits.value(), 0);
    }

    #[test]
    fn hot_page_gets_cached_then_hits() {
        let mut mc = MemCachePolicy::new(cfg());
        let n = u64::from(mc.threshold);
        for i in 0..n {
            mc.access(off(0), false, i * 10_000_000);
        }
        assert_eq!(mc.stats().fills.value(), 1);
        mc.access(off(64), false, (n + 1) * 10_000_000);
        assert_eq!(mc.stats().stacked_hits.value(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut mc = MemCachePolicy::new(cfg());
        let n = u64::from(mc.threshold);
        let stride = 2048 * mc.sets(); // same set, different page
        let mut now = 0;
        // Heat page 0 to residency, dirty it.
        for i in 0..n {
            now += 10_000_000;
            mc.access(off(0), i + 1 == n, now);
        }
        // Heat 4 conflicting pages to evict it.
        for way in 1..=4u64 {
            for _ in 0..n {
                now += 10_000_000;
                mc.access(off(way * stride), false, now);
            }
        }
        assert_eq!(mc.stats().writebacks.value(), 1);
        // The evicted page restarts with hysteresis: it needs only
        // threshold/2 more touches to come back.
        let before = mc.stats().fills.value();
        for _ in 0..u64::from(mc.threshold / 2).max(1) {
            now += 10_000_000;
            mc.access(off(0), false, now);
        }
        assert_eq!(mc.stats().fills.value(), before + 1);
    }

    #[test]
    fn residency_counts_whole_pages() {
        let mut mc = MemCachePolicy::new(cfg());
        let n = u64::from(mc.threshold);
        for i in 0..n {
            mc.access(off(0), false, i * 10_000_000);
        }
        let (resident, cap) = mc.stacked_residency();
        assert_eq!(resident, 2048);
        assert_eq!(cap, 2 << 20);
    }

    #[test]
    #[should_panic(expected = "off-chip OS addresses")]
    fn stacked_address_rejected() {
        MemCachePolicy::new(cfg()).access(0, false, 0);
    }
}
