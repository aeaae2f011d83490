//! The MemCache hybrid baseline (after Bakhshalipour et al.): the stacked
//! DRAM is a page-granularity cache, but pages are only brought in once
//! they have proven hot — cold pages are served flat from off-chip and
//! never pollute the cache. A per-page access counter implements the hot
//! filter; evicted pages keep half their threshold as hysteresis so a
//! page ping-ponging at the margin does not thrash.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

/// Associativity of the page cache.
const WAYS: usize = 4;

/// One page frame of the stacked cache.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Off-chip page number.
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp (monotonic access sequence number).
    stamp: u64,
}

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
    cfg: HmaConfig,
    devices: HmaDevices,
    frames: Vec<Frame>,
    /// Per-off-chip-page access counters (the hot filter).
    heat: Vec<u16>,
    threshold: u16,
    stacked_base: u64,
    page_bytes: u64,
    ways: usize,
    sets: u64,
    tick: u64,
    stats: HmaStats,
}

impl MemCachePolicy {
    /// Builds the MemCache hybrid; the hot threshold is the configured
    /// PoM swap threshold, so the schemes compete on equal training.
    pub fn new(cfg: HmaConfig) -> Self {
        let page_bytes = cfg.segment.bytes();
        let frames = (cfg.stacked.capacity.bytes() / page_bytes) as usize;
        assert!(frames > 0, "stacked device must hold at least one page");
        let ways = WAYS.min(frames);
        let sets = (frames / ways) as u64;
        let offchip_pages = (cfg.offchip.capacity.bytes() / page_bytes) as usize;
        Self {
            devices: HmaDevices::new(&cfg),
            frames: vec![Frame::default(); sets as usize * ways],
            heat: vec![0; offchip_pages],
            threshold: cfg.swap_threshold.max(1),
            stacked_base: cfg.stacked.capacity.bytes(),
            page_bytes,
            ways,
            sets,
            tick: 0,
            stats: HmaStats::default(),
            cfg,
        }
    }

    /// Number of sets in the page cache.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Device-relative stacked base address of a frame.
    fn frame_addr(&self, frame_idx: usize) -> u64 {
        frame_idx as u64 * self.page_bytes
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
        assert!(
            paddr >= self.stacked_base,
            "MemCache receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.demand_accesses.inc();
        self.tick += 1;
        let rel = paddr - self.stacked_base;
        let page = rel / self.page_bytes;
        let offset = rel % self.page_bytes;
        let set = page % self.sets;
        let base = (set as usize) * self.ways;
        let op = if write { MemOp::Write } else { MemOp::Read };

        let hit_way = self.frames[base..base + self.ways]
            .iter()
            .position(|f| f.valid && f.tag == page);
        let latency = if let Some(w) = hit_way {
            let idx = base + w;
            let data = self
                .devices
                .stacked
                .access(self.frame_addr(idx) + offset, 64, op, now);
            if write {
                self.frames[idx].dirty = true;
            }
            self.frames[idx].stamp = self.tick;
            self.stats.stacked_hits.inc();
            self.stats.stacked_latency.record(data.latency as f64);
            data.latency
        } else {
            // Cold (or not yet resident): serve flat from off-chip and
            // train the hot filter.
            let mem = self.devices.offchip.access(rel, 64, op, now);
            let heat = &mut self.heat[page as usize];
            *heat = heat.saturating_add(1);
            if *heat >= self.threshold {
                // The page proved hot: evict the LRU way and fill it.
                let mut victim = base;
                let mut best = u64::MAX;
                for (i, f) in self.frames[base..base + self.ways].iter().enumerate() {
                    if !f.valid {
                        victim = base + i;
                        break;
                    }
                    if f.stamp < best {
                        best = f.stamp;
                        victim = base + i;
                    }
                }
                let old = self.frames[victim];
                if old.valid {
                    if old.dirty {
                        self.devices.writeback_segment(
                            self.frame_addr(victim),
                            old.tag * self.page_bytes,
                            self.page_bytes as u32,
                            now,
                        );
                        self.stats.writebacks.inc();
                    }
                    // Hysteresis: an evicted page restarts halfway to hot.
                    self.heat[old.tag as usize] = self.threshold / 2;
                }
                self.devices.fill_segment(
                    page * self.page_bytes,
                    self.frame_addr(victim),
                    self.page_bytes as u32,
                    now,
                );
                self.stats.fills.inc();
                self.heat[page as usize] = 0;
                self.frames[victim] = Frame {
                    tag: page,
                    valid: true,
                    dirty: write,
                    stamp: self.tick,
                };
            }
            self.stats.offchip_latency.record(mem.latency as f64);
            mem.latency
        };
        self.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        assert!(
            paddr >= self.stacked_base,
            "MemCache receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.llc_writebacks.inc();
        let rel = paddr - self.stacked_base;
        let page = rel / self.page_bytes;
        let offset = rel % self.page_bytes;
        let set = page % self.sets;
        let base = (set as usize) * self.ways;
        let hit = self.frames[base..base + self.ways]
            .iter()
            .position(|f| f.valid && f.tag == page);
        if let Some(w) = hit {
            let idx = base + w;
            self.frames[idx].dirty = true;
            self.devices
                .stacked
                .access(self.frame_addr(idx) + offset, 64, MemOp::Write, now);
        } else {
            // No allocate-on-writeback, and no hot-filter training: posted
            // victims are not demand heat.
            self.devices.offchip.access(rel, 64, MemOp::Write, now);
        }
    }

    fn stats(&self) -> &HmaStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HmaStats::default();
        self.devices.stacked.reset_stats();
        self.devices.offchip.reset_stats();
    }

    fn settle(&mut self) {
        self.devices = HmaDevices::new(&self.cfg);
    }

    fn name(&self) -> &str {
        "MemCache"
    }

    fn devices(&self) -> &HmaDevices {
        &self.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        // The whole stacked device operates as a cache.
        ModeDistribution {
            cache_groups: self.frames.len() as u64,
            pom_groups: 0,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        let resident = self.frames.iter().filter(|f| f.valid).count() as u64 * self.page_bytes;
        (resident, self.cfg.stacked.capacity.bytes())
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
