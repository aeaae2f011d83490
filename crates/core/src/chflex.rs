//! CH-Flex: a consistent-hashing *resizable* DRAM cache (after Chang et
//! al.'s flexible-capacity proposal). Both memories are OS-visible, like
//! Chameleon: a stacked segment whose address range is OS-free serves as
//! a cache frame; allocating it shrinks the cache, freeing it grows the
//! cache back. Off-chip segments are placed on the surviving frames with
//! consistent hashing, so a capacity change remaps only the minimal key
//! range — the cached copies whose assignment actually moved — instead of
//! reshuffling the whole index space the way a modulo-indexed cache
//! would.

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

/// Virtual points per frame on the hash ring (evens out key ownership).
const REPLICAS: u32 = 8;

/// SplitMix64 finaliser: a deterministic, well-mixed 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over cache frame indices.
///
/// Each frame contributes [`REPLICAS`] virtual points; a key is owned by
/// the frame whose point follows the key's hash clockwise. Removing a
/// frame moves only the keys it owned; adding one back steals only the
/// keys it will own — every other assignment is untouched (the property
/// suite proves this for arbitrary rings).
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Sorted `(point, frame)` pairs; ties break on frame index so the
    /// ring is a deterministic function of its membership set.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of virtual points on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn point(frame: u32, replica: u32) -> u64 {
        mix((u64::from(frame) << 32) | u64::from(replica))
    }

    /// Adds a frame's virtual points. Adding a frame twice is a no-op.
    pub fn add(&mut self, frame: u32) {
        if self.points.iter().any(|&(_, f)| f == frame) {
            return;
        }
        for replica in 0..REPLICAS {
            let entry = (Self::point(frame, replica), frame);
            let pos = self.points.partition_point(|&p| p < entry);
            self.points.insert(pos, entry);
        }
    }

    /// Removes a frame's virtual points.
    pub fn remove(&mut self, frame: u32) {
        self.points.retain(|&(_, f)| f != frame);
    }

    /// The frame owning `key`, or `None` if the ring is empty.
    pub fn lookup(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix(key);
        let pos = self.points.partition_point(|&(p, _)| p < h);
        let (_, frame) = self.points[pos % self.points.len()];
        Some(frame)
    }
}

/// One cache frame (a stacked segment currently OS-free).
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Off-chip segment index of the cached copy.
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// CH-Flex: consistent-hashing resizable stacked cache with
/// `Visibility::Both` (the stacked range is allocatable OS memory).
///
/// # Example
///
/// ```
/// use chameleon_core::{ChFlexPolicy, HmaConfig, policy::HmaPolicy};
/// use chameleon_os::isa::IsaHook;
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut ch = ChFlexPolicy::new(cfg);
/// ch.isa_alloc(off_base, 4096, 0);
/// ch.access(off_base, false, 100); // miss + fill
/// ch.access(off_base, false, 100_000_000); // stacked hit
/// assert_eq!(ch.stats().stacked_hits.value(), 1);
/// ```
#[derive(Debug)]
pub struct ChFlexPolicy {
    cfg: HmaConfig,
    devices: HmaDevices,
    frames: Vec<Frame>,
    /// Frame is on the ring (its stacked segment is OS-free).
    active: Vec<bool>,
    /// OS allocation state of each stacked segment.
    allocated: Vec<bool>,
    ring: HashRing,
    seg_bytes: u64,
    stacked_bytes: u64,
    total_bytes: u64,
    stats: HmaStats,
}

impl ChFlexPolicy {
    /// Builds CH-Flex; at boot nothing is allocated, so every stacked
    /// segment is a cache frame.
    pub fn new(cfg: HmaConfig) -> Self {
        let seg_bytes = cfg.segment.bytes();
        let stacked_bytes = cfg.stacked.capacity.bytes();
        assert!(
            stacked_bytes.is_multiple_of(seg_bytes)
                && cfg.offchip.capacity.bytes().is_multiple_of(seg_bytes),
            "capacities must be segment-aligned"
        );
        let frames = (stacked_bytes / seg_bytes) as usize;
        // Every frame joins at boot: sort all points once, rather than
        // `add` each frame, whose duplicate scan makes that quadratic.
        let mut points: Vec<(u64, u32)> = (0..frames as u32)
            .flat_map(|f| (0..REPLICAS).map(move |r| (HashRing::point(f, r), f)))
            .collect();
        points.sort_unstable();
        let ring = HashRing { points };
        Self {
            devices: HmaDevices::new(&cfg),
            frames: vec![Frame::default(); frames],
            active: vec![true; frames],
            allocated: vec![false; frames],
            ring,
            seg_bytes,
            stacked_bytes,
            total_bytes: stacked_bytes + cfg.offchip.capacity.bytes(),
            stats: HmaStats::default(),
            cfg,
        }
    }

    /// Frames currently serving as cache.
    pub fn active_frames(&self) -> u64 {
        self.active.iter().filter(|&&a| a).count() as u64
    }

    /// Device-relative stacked base address of a frame.
    fn frame_addr(&self, frame: u32) -> u64 {
        u64::from(frame) * self.seg_bytes
    }

    /// Writes a frame's dirty copy home and invalidates it.
    fn flush_frame(&mut self, frame: u32, now: Cycle) {
        let f = self.frames[frame as usize];
        if f.valid && f.dirty {
            self.devices.writeback_segment(
                self.frame_addr(frame),
                f.tag * self.seg_bytes,
                self.seg_bytes as u32,
                now,
            );
            self.stats.writebacks.inc();
        }
        self.frames[frame as usize] = Frame::default();
    }

    /// Takes a frame off the ring because its stacked segment was
    /// allocated: the cache shrinks by one segment.
    fn deactivate(&mut self, frame: u32, now: Cycle) {
        if !self.active[frame as usize] {
            return;
        }
        self.flush_frame(frame, now);
        self.ring.remove(frame);
        self.active[frame as usize] = false;
    }

    /// Puts a freed stacked segment back on the ring: the cache grows by
    /// one segment. Consistent hashing moves only the keys the new frame
    /// now owns, but copies elsewhere whose assignment moved must be
    /// dropped for coherence — each one counts as a `ring_remap`.
    fn activate(&mut self, frame: u32, now: Cycle) {
        if self.active[frame as usize] {
            return;
        }
        self.ring.add(frame);
        self.active[frame as usize] = true;
        for other in 0..self.frames.len() as u32 {
            let f = self.frames[other as usize];
            if f.valid && self.ring.lookup(f.tag) != Some(other) {
                self.flush_frame(other, now);
                self.stats.ring_remaps.inc();
            }
        }
    }

    /// How many segments a `[addr, addr+len)` OS range covers: one
    /// `ISA-Alloc`/`ISA-Free` segment notification each, counted the way
    /// the SRRT policies count them.
    fn covered_segments(&self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (addr + len - 1) / self.seg_bytes - addr / self.seg_bytes + 1
    }

    /// The stacked segments a `[addr, addr+len)` OS range overlaps.
    fn stacked_segments(&self, addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        let end = (addr + len).min(self.stacked_bytes);
        let first = addr / self.seg_bytes;
        let last = end.saturating_sub(1) / self.seg_bytes;
        first..=last
    }
}

impl IsaHook for ChFlexPolicy {
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
        self.stats.isa_allocs.add(self.covered_segments(addr, len));
        if addr >= self.stacked_bytes || len == 0 {
            return; // off-chip allocations don't change cache capacity
        }
        for seg in self.stacked_segments(addr, len) {
            self.allocated[seg as usize] = true;
            self.deactivate(seg as u32, now);
        }
    }

    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        self.stats.isa_frees.add(self.covered_segments(addr, len));
        if len == 0 {
            return;
        }
        if addr >= self.stacked_bytes {
            // A freed off-chip segment's cached copy is dead data: drop
            // it without a writeback.
            let first = (addr - self.stacked_bytes) / self.seg_bytes;
            let last = (addr - self.stacked_bytes + len - 1) / self.seg_bytes;
            for f in self.frames.iter_mut() {
                if f.valid && (first..=last).contains(&f.tag) {
                    *f = Frame::default();
                }
            }
            return;
        }
        for seg in self.stacked_segments(addr, len) {
            self.allocated[seg as usize] = false;
            self.activate(seg as u32, now);
        }
    }
}

impl HmaPolicy for ChFlexPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        assert!(
            paddr < self.total_bytes,
            "physical address {paddr:#x} out of range"
        );
        self.stats.demand_accesses.inc();
        let op = if write { MemOp::Write } else { MemOp::Read };

        let latency = if paddr < self.stacked_bytes {
            // Stacked range: plain OS memory (when allocated) at stacked
            // speed; accesses to freed segments are stale SRAM-hierarchy
            // traffic serviced without touching live data.
            let seg = (paddr / self.seg_bytes) as usize;
            if self.allocated[seg] {
                let data = self.devices.stacked.access(paddr, 64, op, now);
                self.stats.stacked_hits.inc();
                self.stats.stacked_latency.record(data.latency as f64);
                data.latency
            } else {
                self.stats.stale_accesses.inc();
                self.cfg.buffer_latency
            }
        } else {
            let rel = paddr - self.stacked_bytes;
            let key = rel / self.seg_bytes;
            let offset = rel % self.seg_bytes;
            match self.ring.lookup(key) {
                None => {
                    // Cache fully allocated away: flat off-chip service.
                    let mem = self.devices.offchip.access(rel, 64, op, now);
                    self.stats.offchip_latency.record(mem.latency as f64);
                    mem.latency
                }
                Some(frame) => {
                    let f = self.frames[frame as usize];
                    if f.valid && f.tag == key {
                        let data = self.devices.stacked.access(
                            self.frame_addr(frame) + offset,
                            64,
                            op,
                            now,
                        );
                        if write {
                            self.frames[frame as usize].dirty = true;
                        }
                        self.stats.stacked_hits.inc();
                        self.stats.stacked_latency.record(data.latency as f64);
                        data.latency
                    } else {
                        // Miss: serve the demand line off-chip, evict the
                        // frame's current copy, fill on first touch (like
                        // Chameleon's cache mode).
                        let mem = self.devices.offchip.access(rel, 64, op, now);
                        if f.valid && f.dirty {
                            self.devices.writeback_segment(
                                self.frame_addr(frame),
                                f.tag * self.seg_bytes,
                                self.seg_bytes as u32,
                                now,
                            );
                            self.stats.writebacks.inc();
                        }
                        self.devices.fill_segment(
                            key * self.seg_bytes,
                            self.frame_addr(frame),
                            // INVARIANT: seg_bytes is a transfer length (a
                            // few KiB segment), not an address — fits u32.
                            self.seg_bytes as u32,
                            now,
                        );
                        self.stats.fills.inc();
                        self.frames[frame as usize] = Frame {
                            tag: key,
                            valid: true,
                            dirty: write,
                        };
                        self.stats.offchip_latency.record(mem.latency as f64);
                        mem.latency
                    }
                }
            }
        };
        self.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        assert!(
            paddr < self.total_bytes,
            "physical address {paddr:#x} out of range"
        );
        self.stats.llc_writebacks.inc();
        if paddr < self.stacked_bytes {
            let seg = (paddr / self.seg_bytes) as usize;
            if self.allocated[seg] {
                self.devices.stacked.access(paddr, 64, MemOp::Write, now);
            } else {
                self.stats.stale_accesses.inc();
            }
            return;
        }
        let rel = paddr - self.stacked_bytes;
        let key = rel / self.seg_bytes;
        let offset = rel % self.seg_bytes;
        let cached = self.ring.lookup(key).filter(|&frame| {
            let f = self.frames[frame as usize];
            f.valid && f.tag == key
        });
        if let Some(frame) = cached {
            self.frames[frame as usize].dirty = true;
            self.devices
                .stacked
                .access(self.frame_addr(frame) + offset, 64, MemOp::Write, now);
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

    fn devices(&self) -> &HmaDevices {
        &self.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        let cache = self.active_frames();
        ModeDistribution {
            cache_groups: cache,
            pom_groups: self.frames.len() as u64 - cache,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        // An allocated stacked segment holds OS memory; an active frame
        // holds data only while a cached copy is valid. A segment is
        // never both (allocation deactivates the frame), so the sum is
        // bounded by capacity.
        let cached = self.frames.iter().filter(|f| f.valid).count() as u64;
        let memory = self.allocated.iter().filter(|&&a| a).count() as u64;
        ((cached + memory) * self.seg_bytes, self.stacked_bytes)
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

    const OFF_BASE: u64 = 2 << 20;

    #[test]
    fn isa_counters_count_segments_like_the_srrt_policies() {
        let mut flex = ChFlexPolicy::new(cfg());
        let mut srrt = crate::RemapPolicy::new(cfg(), crate::Flavor::Chameleon { opt: false });
        // A stacked 4 KiB page, an off-chip one, and a 2 MiB huge page.
        for (addr, len) in [(0, 4096), (OFF_BASE, 4096), (OFF_BASE, 2 << 20)] {
            flex.isa_alloc(addr, len, 0);
            srrt.isa_alloc(addr, len, 0);
            flex.isa_free(addr, len, 0);
            srrt.isa_free(addr, len, 0);
        }
        let segments = 2 + 2 + 1024;
        assert_eq!(srrt.stats().isa_allocs.value(), segments);
        assert_eq!(flex.stats().isa_allocs.value(), segments);
        assert_eq!(
            flex.stats().isa_frees.value(),
            srrt.stats().isa_frees.value()
        );
    }

    #[test]
    fn boot_state_is_all_cache() {
        let ch = ChFlexPolicy::new(cfg());
        assert_eq!(ch.active_frames(), 1024);
        assert_eq!(ch.mode_distribution().cache_fraction(), 1.0);
        let mut ring = HashRing::new();
        for f in 0..1024 {
            ring.add(f);
        }
        assert_eq!(ch.ring.points, ring.points, "boot ring = every frame added");
    }

    #[test]
    fn fill_then_hit() {
        let mut ch = ChFlexPolicy::new(cfg());
        ch.isa_alloc(OFF_BASE, 2048, 0);
        ch.access(OFF_BASE, false, 0);
        assert_eq!(ch.stats().fills.value(), 1);
        ch.access(OFF_BASE + 64, false, 10_000_000);
        assert_eq!(ch.stats().stacked_hits.value(), 1);
    }

    #[test]
    fn allocating_stacked_space_shrinks_the_cache() {
        let mut ch = ChFlexPolicy::new(cfg());
        ch.isa_alloc(0, 1 << 20, 0); // half the stacked range
        assert_eq!(ch.active_frames(), 512);
        assert_eq!(ch.mode_distribution().pom_groups, 512);
        // Freeing it grows the cache back.
        ch.isa_free(0, 1 << 20, 0);
        assert_eq!(ch.active_frames(), 1024);
    }

    #[test]
    fn fully_allocated_stacked_range_serves_flat() {
        let mut ch = ChFlexPolicy::new(cfg());
        ch.isa_alloc(0, 12 << 20, 0);
        assert_eq!(ch.active_frames(), 0);
        ch.access(OFF_BASE, false, 0);
        ch.access(OFF_BASE, false, 10_000_000);
        assert_eq!(ch.stats().stacked_hits.value(), 0);
        assert_eq!(ch.stats().fills.value(), 0);
    }

    #[test]
    fn stacked_addresses_are_memory() {
        let mut ch = ChFlexPolicy::new(cfg());
        ch.isa_alloc(0, 2048, 0);
        ch.access(0, false, 0);
        assert_eq!(ch.stats().stacked_hits.value(), 1);
        // A freed segment's access is stale traffic.
        ch.isa_free(0, 2048, 0);
        ch.access(64, false, 10_000_000);
        assert_eq!(ch.stats().stale_accesses.value(), 1);
    }

    #[test]
    fn resize_drops_only_reassigned_copies() {
        let mut ch = ChFlexPolicy::new(cfg());
        // Cache a spread of off-chip segments.
        let mut now = 0;
        for k in 0..64u64 {
            now += 10_000_000;
            ch.isa_alloc(OFF_BASE + k * 2048, 2048, now);
            ch.access(OFF_BASE + k * 2048, false, now);
        }
        let cached_before: Vec<(usize, u64)> = ch
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.valid)
            .map(|(i, f)| (i, f.tag))
            .collect();
        assert!(!cached_before.is_empty());
        // Shrink by one frame, then grow back: only copies whose ring
        // assignment moved may be dropped.
        let victim = cached_before[0].0 as u64;
        now += 10_000_000;
        ch.isa_alloc(victim * 2048, 2048, now);
        now += 10_000_000;
        ch.isa_free(victim * 2048, 2048, now);
        let remaps = ch.stats().ring_remaps.value();
        assert!(
            remaps < cached_before.len() as u64,
            "a one-frame resize must not flush the whole cache \
             ({remaps} of {})",
            cached_before.len()
        );
        // Every surviving copy still agrees with the ring.
        for (i, f) in ch.frames.iter().enumerate() {
            if f.valid {
                assert_eq!(ch.ring.lookup(f.tag), Some(i as u32));
            }
        }
    }

    #[test]
    fn ring_lookup_is_deterministic_and_total() {
        let mut ring = HashRing::new();
        for f in 0..16 {
            ring.add(f);
        }
        assert_eq!(ring.len(), 16 * REPLICAS as usize);
        for key in 0..1000u64 {
            let a = ring.lookup(key);
            let b = ring.lookup(key);
            assert_eq!(a, b);
            assert!(a.is_some_and(|f| f < 16));
        }
        ring.remove(3);
        for key in 0..1000u64 {
            assert!(ring.lookup(key).is_some_and(|f| f != 3));
        }
        assert!(HashRing::new().lookup(42).is_none());
    }

    #[test]
    fn freed_offchip_segment_dropped_without_writeback() {
        let mut ch = ChFlexPolicy::new(cfg());
        ch.isa_alloc(OFF_BASE, 2048, 0);
        ch.access(OFF_BASE, true, 0); // dirty cached copy
        let wb_before = ch.stats().writebacks.value();
        ch.isa_free(OFF_BASE, 2048, 10_000_000);
        assert_eq!(ch.stats().writebacks.value(), wb_before);
        // The copy is gone: the next access misses.
        ch.isa_alloc(OFF_BASE, 2048, 20_000_000);
        ch.access(OFF_BASE, false, 30_000_000);
        assert_eq!(ch.stats().fills.value(), 2);
    }

    #[test]
    fn residency_never_exceeds_capacity() {
        let mut ch = ChFlexPolicy::new(cfg());
        let mut now = 0;
        for k in 0..200u64 {
            now += 5_000_000;
            ch.isa_alloc(OFF_BASE + k * 2048, 2048, now);
            ch.access(OFF_BASE + k * 2048, false, now);
            if k % 3 == 0 {
                ch.isa_alloc((k % 1024) * 2048, 2048, now);
            }
            if k % 7 == 0 {
                ch.isa_free((k % 1024) * 2048, 2048, now);
            }
            let (resident, cap) = ch.stacked_residency();
            assert!(resident <= cap, "step {k}: {resident} > {cap}");
        }
    }
}
