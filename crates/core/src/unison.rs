//! The Unison-Cache baseline (Jevdjic et al., MICRO'14): a set-associative
//! page-granularity DRAM cache with *footprint prediction* — on a page
//! miss only the lines the page is predicted to touch are fetched, and
//! the prediction is trained from the touched-bitvec of evicted pages.
//!
//! The organisation follows the zsim-hybrid2 model (SNIPPETS.md snippet
//! 1): per-page `fetched`/`touched`/`dirty` bitvecs at 64B-line
//! granularity, an SRAM tag buffer that caches recently probed in-DRAM
//! tags, and a footprint history table indexed by page number.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

/// Associativity of the page cache.
const WAYS: usize = 4;
/// Slots in the footprint history table.
const PREDICTOR_SLOTS: usize = 1024;
/// Slots in the SRAM tag buffer (direct-mapped page tags).
const TAG_BUFFER_SLOTS: usize = 256;
/// Sentinel for an empty tag-buffer slot.
const NO_TAG: u64 = u64::MAX;

/// One page frame of the stacked cache.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Off-chip page number.
    tag: u64,
    valid: bool,
    /// Lines present in the frame (demand line ∪ predicted footprint).
    fetched: u64,
    /// Lines actually referenced while resident; trains the predictor.
    touched: u64,
    /// Lines dirtied while resident; only these are written back.
    dirty: u64,
    /// LRU stamp (monotonic access sequence number).
    stamp: u64,
}

/// The footprint history table: a direct-mapped, tagged store of the
/// touched-bitvec a page exhibited during its last residency. Untrained
/// pages predict the full page (fetch everything), so prediction can only
/// *reduce* fill traffic, never miss data the previous residency proved
/// unused.
#[derive(Debug, Clone)]
pub struct FootprintPredictor {
    tags: Vec<u64>,
    masks: Vec<u64>,
    full_mask: u64,
}

impl FootprintPredictor {
    /// Builds a predictor for pages of `lines_per_page` 64B lines
    /// (at most 64).
    pub fn new(lines_per_page: u32) -> Self {
        assert!(
            (1..=64).contains(&lines_per_page),
            "footprint bitvecs hold 1..=64 lines"
        );
        let full_mask = if lines_per_page == 64 {
            u64::MAX
        } else {
            (1u64 << lines_per_page) - 1
        };
        Self {
            tags: vec![NO_TAG; PREDICTOR_SLOTS],
            masks: vec![full_mask; PREDICTOR_SLOTS],
            full_mask,
        }
    }

    /// The all-lines mask (the untrained prediction).
    pub fn full_mask(&self) -> u64 {
        self.full_mask
    }

    /// Predicted footprint for `page`: the recorded touched-bitvec if this
    /// page trained its slot, the full page otherwise.
    pub fn predict(&self, page: u64) -> u64 {
        let slot = (page % PREDICTOR_SLOTS as u64) as usize;
        if self.tags[slot] == page {
            self.masks[slot]
        } else {
            self.full_mask
        }
    }

    /// Trains the predictor with the touched-bitvec observed when `page`
    /// was evicted. A page that was filled but never touched records the
    /// full mask: predicting an empty footprint would make every future
    /// access to it a sector miss.
    pub fn record(&mut self, page: u64, touched: u64) {
        let slot = (page % PREDICTOR_SLOTS as u64) as usize;
        self.tags[slot] = page;
        // Clamp before the emptiness test: out-of-page bits must not
        // smuggle an all-zero prediction past the full-mask fallback.
        let clamped = touched & self.full_mask;
        self.masks[slot] = if clamped == 0 {
            self.full_mask
        } else {
            clamped
        };
    }
}

/// Unison-Cache: footprint-predicting page-granularity stacked-DRAM
/// cache. The stacked DRAM is not OS-visible (`Visibility::OffchipOnly`),
/// like Alloy.
///
/// # Example
///
/// ```
/// use chameleon_core::{HmaConfig, UnisonPolicy, policy::HmaPolicy};
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut unison = UnisonPolicy::new(cfg);
/// let miss = unison.access(off_base, false, 0);
/// let hit = unison.access(off_base, false, 1_000_000);
/// assert!(hit < miss);
/// ```
#[derive(Debug)]
pub struct UnisonPolicy {
    cfg: HmaConfig,
    devices: HmaDevices,
    frames: Vec<Frame>,
    predictor: FootprintPredictor,
    tag_buffer: Vec<u64>,
    stacked_base: u64,
    page_bytes: u64,
    ways: usize,
    sets: u64,
    tick: u64,
    stats: HmaStats,
}

impl UnisonPolicy {
    /// Builds the Unison cache over the configured stacked device, with
    /// pages equal to the configured segment size.
    pub fn new(cfg: HmaConfig) -> Self {
        let page_bytes = cfg.segment.bytes();
        let lines_per_page = (page_bytes / 64) as u32;
        let frames = (cfg.stacked.capacity.bytes() / page_bytes) as usize;
        assert!(frames > 0, "stacked device must hold at least one page");
        let ways = WAYS.min(frames);
        let sets = (frames / ways) as u64;
        Self {
            devices: HmaDevices::new(&cfg),
            frames: vec![Frame::default(); sets as usize * ways],
            predictor: FootprintPredictor::new(lines_per_page),
            tag_buffer: vec![NO_TAG; TAG_BUFFER_SLOTS],
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

    /// Structural invariant of every resident page: `dirty ⊆ touched ⊆
    /// fetched ⊆ full page`, and invalid frames carry no state bits.
    /// The conformance/property suites call this after arbitrary drives.
    pub fn check_invariants(&self) -> bool {
        let full = self.predictor.full_mask();
        self.frames.iter().all(|f| {
            if f.valid {
                f.dirty & !f.touched == 0 && f.touched & !f.fetched == 0 && f.fetched & !full == 0
            } else {
                f.fetched == 0 && f.touched == 0 && f.dirty == 0
            }
        })
    }

    /// Device-relative stacked address of a frame's line.
    fn frame_addr(&self, frame_idx: usize, line_in_page: u64) -> u64 {
        frame_idx as u64 * self.page_bytes + line_in_page * 64
    }

    /// Probes the in-DRAM tags unless the SRAM tag buffer already knows
    /// this page's set, returning the probe latency (0 on a buffer hit).
    fn probe_tags(&mut self, page: u64, set: u64, now: Cycle) -> Cycle {
        let slot = (page % TAG_BUFFER_SLOTS as u64) as usize;
        if self.tag_buffer[slot] == page {
            return 0;
        }
        self.tag_buffer[slot] = page;
        // One 64B stacked read returns the set's tag bundle.
        let probe_addr = self.frame_addr(set as usize * self.ways, 0);
        self.devices
            .stacked
            .access(probe_addr, 64, MemOp::Read, now)
            .latency
    }
}

impl IsaHook for UnisonPolicy {
    // Like Alloy, the cache is software-transparent: OS allocation
    // activity is invisible to it.
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

impl HmaPolicy for UnisonPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        assert!(
            paddr >= self.stacked_base,
            "Unison receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.demand_accesses.inc();
        self.tick += 1;
        let rel = paddr - self.stacked_base;
        let page = rel / self.page_bytes;
        let line = (rel % self.page_bytes) / 64;
        let bit = 1u64 << line;
        let set = page % self.sets;
        let base = (set as usize) * self.ways;
        let op = if write { MemOp::Write } else { MemOp::Read };

        let probe = self.probe_tags(page, set, now);
        let hit_way = self.frames[base..base + self.ways]
            .iter()
            .position(|f| f.valid && f.tag == page);

        let latency = if let Some(w) = hit_way {
            let idx = base + w;
            if self.frames[idx].fetched & bit != 0 {
                // Page and line resident: a stacked hit.
                let data =
                    self.devices
                        .stacked
                        .access(self.frame_addr(idx, line), 64, op, now + probe);
                self.frames[idx].touched |= bit;
                if write {
                    self.frames[idx].dirty |= bit;
                }
                self.frames[idx].stamp = self.tick;
                self.stats.stacked_hits.inc();
                self.stats.stacked_latency.record(data.latency as f64);
                probe + data.latency
            } else {
                // Footprint under-prediction: the page is resident but
                // this line was not fetched — fetch it alone and install.
                let mem = self.devices.offchip.access(rel, 64, op, now + probe);
                self.devices.stacked.bulk(
                    self.frame_addr(idx, line),
                    64,
                    MemOp::Write,
                    now + probe,
                );
                self.frames[idx].fetched |= bit;
                self.frames[idx].touched |= bit;
                if write {
                    self.frames[idx].dirty |= bit;
                }
                self.frames[idx].stamp = self.tick;
                self.stats.sector_fetches.inc();
                self.stats.offchip_latency.record(mem.latency as f64);
                probe + mem.latency
            }
        } else {
            // Page miss: evict the LRU way, train the predictor with the
            // victim's observed footprint, fill the predicted lines.
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
                let dirty_lines = old.dirty.count_ones();
                if dirty_lines > 0 {
                    // Write back only the dirty lines, as bulk traffic on
                    // both devices (read stacked, write off-chip).
                    let bytes = dirty_lines * 64;
                    self.devices
                        .stacked
                        .bulk(self.frame_addr(victim, 0), bytes, MemOp::Read, now);
                    self.devices
                        .offchip
                        .bulk(old.tag * self.page_bytes, bytes, MemOp::Write, now);
                    self.stats.writebacks.inc();
                }
                self.predictor.record(old.tag, old.touched);
            }
            let mask = self.predictor.predict(page) | bit;
            let fill_bytes = mask.count_ones() * 64;
            self.devices
                .offchip
                .bulk(page * self.page_bytes, fill_bytes, MemOp::Read, now);
            self.devices
                .stacked
                .bulk(self.frame_addr(victim, 0), fill_bytes, MemOp::Write, now);
            self.stats.fills.inc();
            // The demand line is on the critical path; the rest of the
            // footprint streams in behind it.
            let mem = self.devices.offchip.access(rel, 64, op, now + probe);
            self.frames[victim] = Frame {
                tag: page,
                valid: true,
                fetched: mask,
                touched: bit,
                dirty: if write { bit } else { 0 },
                stamp: self.tick,
            };
            self.stats.offchip_latency.record(mem.latency as f64);
            probe + mem.latency
        };
        self.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        assert!(
            paddr >= self.stacked_base,
            "Unison receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.llc_writebacks.inc();
        let rel = paddr - self.stacked_base;
        let page = rel / self.page_bytes;
        let line = (rel % self.page_bytes) / 64;
        let bit = 1u64 << line;
        let set = page % self.sets;
        let base = (set as usize) * self.ways;
        let hit = self.frames[base..base + self.ways]
            .iter()
            .position(|f| f.valid && f.tag == page && f.fetched & bit != 0);
        if let Some(w) = hit {
            let idx = base + w;
            self.frames[idx].touched |= bit;
            self.frames[idx].dirty |= bit;
            self.devices
                .stacked
                .access(self.frame_addr(idx, line), 64, MemOp::Write, now);
        } else {
            // No allocate-on-writeback: drain straight to off-chip.
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
        "Unison-Cache"
    }

    fn devices(&self) -> &HmaDevices {
        &self.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        // The whole stacked device is a cache.
        ModeDistribution {
            cache_groups: self.frames.len() as u64,
            pom_groups: 0,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        let resident: u64 = self
            .frames
            .iter()
            .filter(|f| f.valid)
            .map(|f| u64::from(f.fetched.count_ones()) * 64)
            .sum();
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
    fn fill_then_hit() {
        let mut u = UnisonPolicy::new(cfg());
        u.access(off(0), false, 0);
        assert_eq!(u.stats().stacked_hits.value(), 0);
        assert_eq!(u.stats().fills.value(), 1);
        u.access(off(0), false, 10_000_000);
        assert_eq!(u.stats().stacked_hits.value(), 1);
    }

    #[test]
    fn untrained_page_fetches_full_footprint() {
        let mut u = UnisonPolicy::new(cfg());
        u.access(off(0), false, 0);
        // Every line of the page was fetched, so no sector misses.
        for line in 1..32u64 {
            u.access(off(line * 64), false, line * 10_000_000);
        }
        assert_eq!(u.stats().sector_fetches.value(), 0);
        assert_eq!(u.stats().stacked_hits.value(), 31);
    }

    #[test]
    fn trained_page_fetches_only_its_footprint() {
        let mut u = UnisonPolicy::new(cfg());
        let sets = u.sets();
        let page_stride = 2048 * sets; // same set, different tag
                                       // Touch only line 0 of page 0, then evict it with 4 conflicting
                                       // pages (associativity), training the predictor.
        u.access(off(0), false, 0);
        for way in 1..=4u64 {
            u.access(off(way * page_stride), false, way * 10_000_000);
        }
        let fills_before = u.stats().fills.value();
        // Refill page 0: the predictor says "line 0 only".
        u.access(off(0), false, 100_000_000);
        assert_eq!(u.stats().fills.value(), fills_before + 1);
        // Line 5 was not predicted: a sector fetch, not a page miss.
        u.access(off(5 * 64), false, 110_000_000);
        assert_eq!(u.stats().sector_fetches.value(), 1);
        assert_eq!(u.stats().fills.value(), fills_before + 1);
        assert!(u.check_invariants());
    }

    #[test]
    fn dirty_lines_written_back_on_eviction() {
        let mut u = UnisonPolicy::new(cfg());
        let page_stride = 2048 * u.sets();
        u.access(off(0), true, 0); // dirty line 0
        for way in 1..=4u64 {
            u.access(off(way * page_stride), false, way * 10_000_000);
        }
        assert_eq!(u.stats().writebacks.value(), 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut u = UnisonPolicy::new(cfg());
        let page_stride = 2048 * u.sets();
        u.access(off(0), false, 0);
        for way in 1..=4u64 {
            u.access(off(way * page_stride), false, way * 10_000_000);
        }
        assert_eq!(u.stats().writebacks.value(), 0);
    }

    #[test]
    fn predictor_round_trips_and_never_predicts_empty() {
        let mut p = FootprintPredictor::new(32);
        assert_eq!(p.predict(7), p.full_mask());
        p.record(7, 0b1010);
        assert_eq!(p.predict(7), 0b1010);
        p.record(7, 0);
        assert_eq!(p.predict(7), p.full_mask());
    }

    #[test]
    fn residency_counts_fetched_lines() {
        let mut u = UnisonPolicy::new(cfg());
        let (r0, cap) = u.stacked_residency();
        assert_eq!(r0, 0);
        assert_eq!(cap, 2 << 20);
        u.access(off(0), false, 0);
        let (r1, _) = u.stacked_residency();
        assert_eq!(r1, 2048, "full page fetched for an untrained page");
    }

    #[test]
    #[should_panic(expected = "off-chip OS addresses")]
    fn stacked_address_rejected() {
        UnisonPolicy::new(cfg()).access(0, false, 0);
    }
}
