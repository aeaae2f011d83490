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
use chameleon_os::SegmentGeometry;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{base_lifecycle, HmaPolicy, ModeDistribution, PolicyBase};
use crate::HmaConfig;

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
/// the member frame whose point follows the key's hash clockwise.
/// Removing a frame moves only the keys it owned; adding one back steals
/// only the keys it will own — every other assignment is untouched (the
/// property suite proves this for arbitrary rings).
///
/// The frame universe `0..frames` is fixed at construction and every
/// frame's points stay on the ring; membership is a flag, so `add` and
/// `remove` are O(1). The member points are a subsequence of `points` in
/// the same order, so the first member point clockwise of a hash is the
/// owner a ring holding only the members' points would give: a ring over
/// `0..n` with some frames removed owns keys exactly as a ring built
/// from the remaining frames alone.
///
/// The points are indexed by a directory over the top `floor(log2 n)`
/// bits of their hash (`n` points in all), in the manner of a small
/// hardware lookup table: construction buckets the points in linear time
/// and orders only each bucket's run, and a search starts at its hash's
/// bucket, about one point from its answer, instead of binary-searching
/// the whole ring.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, frame)` pairs of every frame; ties break on frame
    /// index so ownership is a deterministic function of the membership
    /// set.
    points: Vec<(u64, u32)>,
    /// Bucket `b` → index in `points` of the first point whose hash has
    /// top bits `b`, or of the next non-empty bucket's first point when
    /// `b` holds none. One entry per bucket, at most one per point.
    dir: Vec<u32>,
    /// `64 - log2(dir.len())`: a hash's bucket is `h >> shift` (0 when
    /// the shift is the full width).
    shift: u32,
    /// Frame index → the frame is a member.
    member: Vec<bool>,
    /// Number of member frames.
    members: usize,
}

impl HashRing {
    /// A ring whose members are frames `0..frames`.
    ///
    /// # Panics
    ///
    /// Panics if the ring would hold more than `u32::MAX` points.
    pub fn new(frames: u32) -> Self {
        let len = frames as usize * REPLICAS as usize;
        assert!(
            u32::try_from(len).is_ok(),
            "{frames} frames exceed the ring's u32 point index"
        );
        let bits = len.max(1).ilog2();
        let shift = 64 - bits;
        let bucket = |h: u64| Self::bucket(shift, h);
        let all = || (0..frames).flat_map(|f| (0..REPLICAS).map(move |r| (Self::point(f, r), f)));
        // Counting pass: `dir[b]` counts bucket `b`'s points, then the
        // running sum turns each count into the bucket's end.
        let mut dir = vec![0u32; 1 << bits];
        for (p, _) in all() {
            dir[bucket(p)] += 1;
        }
        let mut end = 0;
        for d in &mut dir {
            end += *d;
            *d = end;
        }
        // Placement pass: each bucket fills from its end backwards, which
        // leaves `dir[b]` at the bucket's first point.
        let mut points = vec![(0, 0); len];
        for entry in all() {
            let d = &mut dir[bucket(entry.0)];
            *d -= 1;
            points[*d as usize] = entry;
        }
        // Every point of a bucket precedes every point of a later one, so
        // ordering each (about one point long) run orders the ring.
        for (b, &start) in dir.iter().enumerate() {
            let end = dir.get(b + 1).map_or(len, |&e| e as usize);
            points[start as usize..end].sort_unstable();
        }
        Self {
            points,
            dir,
            shift,
            member: vec![true; frames as usize],
            members: frames as usize,
        }
    }

    /// Number of member virtual points on the ring.
    pub fn len(&self) -> usize {
        self.members * REPLICAS as usize
    }

    /// Number of member frames.
    pub(crate) fn members(&self) -> usize {
        self.members
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Whether `frame` is a member.
    pub(crate) fn contains(&self, frame: u32) -> bool {
        self.member.get(frame as usize).copied().unwrap_or(false)
    }

    fn point(frame: u32, replica: u32) -> u64 {
        mix((u64::from(frame) << 32) | u64::from(replica))
    }

    /// Adds a frame to membership. Adding a member is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is outside the ring's frame universe.
    pub fn add(&mut self, frame: u32) {
        if !self.member[frame as usize] {
            self.member[frame as usize] = true;
            self.members += 1;
        }
    }

    /// Removes a frame from membership. Removing a non-member is a no-op.
    pub fn remove(&mut self, frame: u32) {
        if self.contains(frame) {
            self.member[frame as usize] = false;
            self.members -= 1;
        }
    }

    /// The directory bucket of hash `h` under `shift`.
    fn bucket(shift: u32, h: u64) -> usize {
        h.checked_shr(shift).unwrap_or(0) as usize
    }

    /// Index of the first point at or after `entry` in ring order
    /// (`points.len()` past the last): the `partition_point` of `entry`,
    /// found by walking from the first point of `entry`'s bucket.
    fn position(&self, entry: (u64, u32)) -> usize {
        let mut pos = self.dir[Self::bucket(self.shift, entry.0)] as usize;
        while self.points.get(pos).is_some_and(|&p| p < entry) {
            pos += 1;
        }
        pos
    }

    /// The frame of the first member point at or clockwise after index
    /// `pos` of `points`, other than `skip`.
    fn member_from(&self, pos: usize, skip: Option<u32>) -> Option<u32> {
        let (head, tail) = self.points.split_at(pos);
        tail.iter()
            .chain(head)
            .map(|&(_, f)| f)
            .find(|&f| Some(f) != skip && self.member[f as usize])
    }

    /// The frame owning `key`, or `None` if the ring has no members.
    pub fn lookup(&self, key: u64) -> Option<u32> {
        if self.members == 0 {
            return None;
        }
        // No point sorts below `(h, 0)` unless its hash is below `h`.
        self.member_from(self.position((mix(key), 0)), None)
    }

    /// For each point of `frame`, the next member clockwise other than
    /// `frame`: while `frame` is not a member, that frame owns the keys
    /// hashing just before the point, so these are the owners whose keys
    /// `frame` takes when it joins. `None` where no other frame is a
    /// member.
    pub(crate) fn arc_owners(&self, frame: u32) -> [Option<u32>; REPLICAS as usize] {
        let mut owners = [None; REPLICAS as usize];
        for (replica, owner) in (0..REPLICAS).zip(owners.iter_mut()) {
            let entry = (Self::point(frame, replica), frame);
            *owner = self.member_from(self.position(entry) + 1, Some(frame));
        }
        owners
    }
}

/// One cache frame (a stacked segment currently OS-free).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
    base: PolicyBase,
    frames: Vec<Frame>,
    /// The cache frames: a frame is a member iff its stacked segment is
    /// OS-free, so a stacked segment is allocated iff its frame is not a
    /// member. A valid frame is always its own key's owner.
    ring: HashRing,
    /// Number of frames holding a valid copy.
    cached: u64,
    geom: SegmentGeometry,
}

impl ChFlexPolicy {
    /// Builds CH-Flex; at boot nothing is allocated, so every stacked
    /// segment is a cache frame.
    pub fn new(cfg: HmaConfig) -> Self {
        let geom = cfg.geometry();
        let frames = geom.groups() as usize;
        Self {
            frames: vec![Frame::default(); frames],
            // Every frame joins at boot.
            ring: HashRing::new(frames as u32),
            cached: 0,
            geom,
            base: PolicyBase::new(cfg),
        }
    }

    /// Frames currently serving as cache.
    pub fn active_frames(&self) -> u64 {
        self.ring.members() as u64
    }

    /// Device-relative stacked base address of a frame.
    fn frame_addr(&self, frame: u32) -> u64 {
        self.geom.slot_addr(u64::from(frame), 0)
    }

    /// Device-relative off-chip base address of a key's segment.
    fn key_addr(&self, key: u64) -> u64 {
        key * self.geom.segment_bytes()
    }

    /// Writes a frame's dirty copy of `f.tag` home.
    fn write_home(&mut self, frame: u32, f: Frame, now: Cycle) {
        self.base.devices.writeback_segment(
            self.frame_addr(frame),
            self.key_addr(f.tag),
            self.base.segment_len(),
            now,
        );
        self.base.stats.writebacks.inc();
    }

    /// Writes a frame's dirty copy home and invalidates it.
    fn flush_frame(&mut self, frame: u32, now: Cycle) {
        let f = self.frames[frame as usize];
        if f.valid && f.dirty {
            self.write_home(frame, f, now);
        }
        self.cached -= u64::from(f.valid);
        self.frames[frame as usize] = Frame::default();
    }

    /// Takes a frame off the ring because its stacked segment was
    /// allocated: the cache shrinks by one segment.
    fn deactivate(&mut self, frame: u32, now: Cycle) {
        if !self.ring.contains(frame) {
            return;
        }
        self.flush_frame(frame, now);
        self.ring.remove(frame);
    }

    /// Puts a freed stacked segment back on the ring: the cache grows by
    /// one segment. Consistent hashing moves only the keys the new frame
    /// now owns, but copies elsewhere whose assignment moved must be
    /// dropped for coherence — each one counts as a `ring_remap`.
    ///
    /// Every valid frame owns its key, so the only copies that can move
    /// are held by the frames that owned the arcs the new frame takes;
    /// only those are checked, in ascending frame order.
    fn activate(&mut self, frame: u32, now: Cycle) {
        if self.ring.contains(frame) {
            return;
        }
        let mut owners = self.ring.arc_owners(frame);
        self.ring.add(frame);
        owners.sort_unstable();
        for (i, &owner) in owners.iter().enumerate() {
            let Some(other) = owner else { continue };
            if i > 0 && owners[i - 1] == owner {
                continue;
            }
            let f = self.frames[other as usize];
            if f.valid && self.ring.lookup(f.tag) != Some(other) {
                self.flush_frame(other, now);
                self.base.stats.ring_remaps.inc();
            }
        }
    }

    /// How many segments a `[addr, addr+len)` OS range covers: one
    /// `ISA-Alloc`/`ISA-Free` segment notification each, counted the way
    /// the SRRT policies count them.
    fn covered_segments(&self, addr: u64, len: u64) -> u64 {
        let segs = self.geom.segments(addr, len);
        segs.end - segs.start
    }

    /// The stacked segments (= frames) a `[addr, addr+len)` OS range
    /// starting in the stacked range overlaps.
    fn stacked_segments(&self, addr: u64, len: u64) -> std::ops::Range<u64> {
        self.geom
            .segments(addr, len.min(self.geom.stacked_bytes() - addr))
    }
}

impl IsaHook for ChFlexPolicy {
    fn isa_alloc(&mut self, addr: u64, len: u64, now: u64) {
        self.base
            .stats
            .isa_allocs
            .add(self.covered_segments(addr, len));
        if addr >= self.geom.stacked_bytes() {
            return; // off-chip allocations don't change cache capacity
        }
        for seg in self.stacked_segments(addr, len) {
            self.deactivate(seg as u32, now);
        }
    }

    fn isa_free(&mut self, addr: u64, len: u64, now: u64) {
        self.base
            .stats
            .isa_frees
            .add(self.covered_segments(addr, len));
        if addr >= self.geom.stacked_bytes() {
            // A freed off-chip segment's cached copy is dead data: drop
            // it without a writeback. A cached copy sits in its key's
            // owner, so only the owners need checking.
            for seg in self.geom.segments(addr, len) {
                let key = seg - self.geom.groups();
                let Some(owner) = self.ring.lookup(key) else {
                    break; // no members: nothing is cached
                };
                let f = &mut self.frames[owner as usize];
                if f.valid && f.tag == key {
                    *f = Frame::default();
                    self.cached -= 1;
                }
            }
            return;
        }
        for seg in self.stacked_segments(addr, len) {
            self.activate(seg as u32, now);
        }
    }
}

impl HmaPolicy for ChFlexPolicy {
    // lint: hot-path
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        let (seg, offset) = self.geom.segment_of(paddr);
        self.base.stats.demand_accesses.inc();
        let op = if write { MemOp::Write } else { MemOp::Read };

        let latency = if seg < self.geom.groups() {
            // Stacked range: plain OS memory (when allocated) at stacked
            // speed; accesses to freed segments are stale SRAM-hierarchy
            // traffic serviced without touching live data.
            // INVARIANT: a stacked segment index is a frame index, which
            // fits u32.
            if !self.ring.contains(seg as u32) {
                let data = self.base.devices.stacked.access(paddr, 64, op, now);
                self.base.stats.stacked_hits.inc();
                self.base.stats.stacked_latency.record(data.latency as f64);
                data.latency
            } else {
                self.base.stats.stale_accesses.inc();
                self.base.cfg.buffer_latency
            }
        } else {
            let key = seg - self.geom.groups();
            let rel = self.geom.offchip_rel(paddr);
            match self.ring.lookup(key) {
                None => {
                    // Cache fully allocated away: flat off-chip service.
                    let mem = self.base.devices.offchip.access(rel, 64, op, now);
                    self.base.stats.offchip_latency.record(mem.latency as f64);
                    mem.latency
                }
                Some(frame) => {
                    let f = self.frames[frame as usize];
                    if f.valid && f.tag == key {
                        let data = self.base.devices.stacked.access(
                            self.frame_addr(frame) + offset,
                            64,
                            op,
                            now,
                        );
                        if write {
                            self.frames[frame as usize].dirty = true;
                        }
                        self.base.stats.stacked_hits.inc();
                        self.base.stats.stacked_latency.record(data.latency as f64);
                        data.latency
                    } else {
                        // Miss: serve the demand line off-chip, evict the
                        // frame's current copy, fill on first touch (like
                        // Chameleon's cache mode).
                        let mem = self.base.devices.offchip.access(rel, 64, op, now);
                        if f.valid && f.dirty {
                            self.write_home(frame, f, now);
                        }
                        self.base.devices.fill_segment(
                            self.key_addr(key),
                            self.frame_addr(frame),
                            self.base.segment_len(),
                            now,
                        );
                        self.base.stats.fills.inc();
                        self.cached += u64::from(!f.valid);
                        self.frames[frame as usize] = Frame {
                            tag: key,
                            valid: true,
                            dirty: write,
                        };
                        self.base.stats.offchip_latency.record(mem.latency as f64);
                        mem.latency
                    }
                }
            }
        };
        self.base.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        let (seg, offset) = self.geom.segment_of(paddr);
        self.base.stats.llc_writebacks.inc();
        let Some(key) = seg.checked_sub(self.geom.groups()) else {
            // INVARIANT: a stacked segment index is a frame index, which
            // fits u32.
            if !self.ring.contains(seg as u32) {
                self.base
                    .devices
                    .stacked
                    .access(paddr, 64, MemOp::Write, now);
            } else {
                self.base.stats.stale_accesses.inc();
            }
            return;
        };
        let rel = self.geom.offchip_rel(paddr);
        let cached = self.ring.lookup(key).filter(|&frame| {
            let f = self.frames[frame as usize];
            f.valid && f.tag == key
        });
        if let Some(frame) = cached {
            self.frames[frame as usize].dirty = true;
            self.base.devices.stacked.access(
                self.frame_addr(frame) + offset,
                64,
                MemOp::Write,
                now,
            );
        } else {
            // No allocate-on-writeback: drain straight to off-chip.
            self.base.devices.offchip.access(rel, 64, MemOp::Write, now);
        }
    }

    base_lifecycle!();

    fn mode_distribution(&self) -> ModeDistribution {
        let cache = self.active_frames();
        ModeDistribution {
            cache_groups: cache,
            pom_groups: self.frames.len() as u64 - cache,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        // An allocated stacked segment (a frame off the ring) holds OS
        // memory; an active frame holds data only while a cached copy is
        // valid. A segment is never both (allocation deactivates the
        // frame), so the sum is bounded by capacity.
        debug_assert_eq!(
            self.cached,
            self.frames.iter().filter(|f| f.valid).count() as u64,
            "CH-Flex valid-frame count drifted from its frames"
        );
        let memory = self.frames.len() as u64 - self.active_frames();
        (
            (self.cached + memory) * self.geom.segment_bytes(),
            self.geom.stacked_bytes(),
        )
    }
}

/// CH-Flex as it was before membership flags, kept as the reference the
/// differential test checks the policy against: a ring that physically
/// removes a frame's points, a coherence scan of every frame when a frame
/// joins, and a scan of every frame on an off-chip free.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::{HmaDevices, HmaStats};

    #[derive(Default)]
    pub(super) struct Ring {
        points: Vec<(u64, u32)>,
    }

    impl Ring {
        pub(super) fn add(&mut self, frame: u32) {
            if self.points.iter().any(|&(_, f)| f == frame) {
                return;
            }
            for replica in 0..REPLICAS {
                let entry = (HashRing::point(frame, replica), frame);
                let pos = self.points.partition_point(|&p| p < entry);
                self.points.insert(pos, entry);
            }
        }

        fn remove(&mut self, frame: u32) {
            self.points.retain(|&(_, f)| f != frame);
        }

        pub(super) fn lookup(&self, key: u64) -> Option<u32> {
            if self.points.is_empty() {
                return None;
            }
            let h = mix(key);
            let pos = self.points.partition_point(|&(p, _)| p < h);
            Some(self.points[pos % self.points.len()].1)
        }

        /// For each point of `frame`, the first point strictly clockwise
        /// of it whose frame is not `frame`.
        pub(super) fn arc_owners(&self, frame: u32) -> [Option<u32>; REPLICAS as usize] {
            let mut owners = [None; REPLICAS as usize];
            for (replica, owner) in (0..REPLICAS).zip(owners.iter_mut()) {
                let entry = (HashRing::point(frame, replica), frame);
                let (head, tail) = self
                    .points
                    .split_at(self.points.partition_point(|&p| p <= entry));
                *owner = tail
                    .iter()
                    .chain(head)
                    .map(|&(_, f)| f)
                    .find(|&f| f != frame);
            }
            owners
        }
    }

    pub(super) struct ReferenceChFlex {
        cfg: HmaConfig,
        devices: HmaDevices,
        pub(super) frames: Vec<Frame>,
        pub(super) active: Vec<bool>,
        allocated: Vec<bool>,
        ring: Ring,
        seg_bytes: u64,
        stacked_bytes: u64,
        pub(super) stats: HmaStats,
    }

    impl ReferenceChFlex {
        pub(super) fn new(cfg: HmaConfig) -> Self {
            let seg_bytes = cfg.segment.bytes();
            let stacked_bytes = cfg.stacked.capacity.bytes();
            let frames = (stacked_bytes / seg_bytes) as usize;
            let mut ring = Ring::default();
            for f in 0..frames as u32 {
                ring.add(f);
            }
            Self {
                devices: HmaDevices::new(&cfg),
                frames: vec![Frame::default(); frames],
                active: vec![true; frames],
                allocated: vec![false; frames],
                ring,
                seg_bytes,
                stacked_bytes,
                stats: HmaStats::default(),
                cfg,
            }
        }

        fn flush_frame(&mut self, frame: u32, now: Cycle) {
            let f = self.frames[frame as usize];
            if f.valid && f.dirty {
                self.devices.writeback_segment(
                    u64::from(frame) * self.seg_bytes,
                    f.tag * self.seg_bytes,
                    self.seg_bytes as u32,
                    now,
                );
                self.stats.writebacks.inc();
            }
            self.frames[frame as usize] = Frame::default();
        }

        fn segments(&self, addr: u64, len: u64) -> u64 {
            (addr + len - 1) / self.seg_bytes - addr / self.seg_bytes + 1
        }

        fn stacked_segments(&self, addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
            let end = (addr + len).min(self.stacked_bytes);
            addr / self.seg_bytes..=(end - 1) / self.seg_bytes
        }

        /// Takes `len > 0` bytes at `addr`.
        pub(super) fn isa_alloc(&mut self, addr: u64, len: u64, now: Cycle) {
            self.stats.isa_allocs.add(self.segments(addr, len));
            if addr >= self.stacked_bytes {
                return;
            }
            for seg in self.stacked_segments(addr, len) {
                self.allocated[seg as usize] = true;
                if self.active[seg as usize] {
                    self.flush_frame(seg as u32, now);
                    self.ring.remove(seg as u32);
                    self.active[seg as usize] = false;
                }
            }
        }

        /// Frees `len > 0` bytes at `addr`.
        pub(super) fn isa_free(&mut self, addr: u64, len: u64, now: Cycle) {
            self.stats.isa_frees.add(self.segments(addr, len));
            if addr >= self.stacked_bytes {
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
                if self.active[seg as usize] {
                    continue;
                }
                self.ring.add(seg as u32);
                self.active[seg as usize] = true;
                for other in 0..self.frames.len() as u32 {
                    let f = self.frames[other as usize];
                    if f.valid && self.ring.lookup(f.tag) != Some(other) {
                        self.flush_frame(other, now);
                        self.stats.ring_remaps.inc();
                    }
                }
            }
        }

        pub(super) fn access(&mut self, paddr: u64, write: bool, now: Cycle) {
            self.stats.demand_accesses.inc();
            let op = if write { MemOp::Write } else { MemOp::Read };
            let latency = if paddr < self.stacked_bytes {
                if self.allocated[(paddr / self.seg_bytes) as usize] {
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
                match self.ring.lookup(key) {
                    None => {
                        let mem = self.devices.offchip.access(rel, 64, op, now);
                        self.stats.offchip_latency.record(mem.latency as f64);
                        mem.latency
                    }
                    Some(frame) => {
                        let base = u64::from(frame) * self.seg_bytes;
                        let f = self.frames[frame as usize];
                        if f.valid && f.tag == key {
                            let offset = rel % self.seg_bytes;
                            let data = self.devices.stacked.access(base + offset, 64, op, now);
                            self.frames[frame as usize].dirty |= write;
                            self.stats.stacked_hits.inc();
                            self.stats.stacked_latency.record(data.latency as f64);
                            data.latency
                        } else {
                            let mem = self.devices.offchip.access(rel, 64, op, now);
                            self.flush_frame(frame, now);
                            let len = self.seg_bytes as u32;
                            self.devices
                                .fill_segment(key * self.seg_bytes, base, len, now);
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
        }

        pub(super) fn writeback(&mut self, paddr: u64, now: Cycle) {
            self.stats.llc_writebacks.inc();
            if paddr < self.stacked_bytes {
                if self.allocated[(paddr / self.seg_bytes) as usize] {
                    self.devices.stacked.access(paddr, 64, MemOp::Write, now);
                } else {
                    self.stats.stale_accesses.inc();
                }
                return;
            }
            let rel = paddr - self.stacked_bytes;
            let key = rel / self.seg_bytes;
            let cached = self.ring.lookup(key).filter(|&frame| {
                let f = self.frames[frame as usize];
                f.valid && f.tag == key
            });
            if let Some(frame) = cached {
                self.frames[frame as usize].dirty = true;
                let addr = u64::from(frame) * self.seg_bytes + rel % self.seg_bytes;
                self.devices.stacked.access(addr, 64, MemOp::Write, now);
            } else {
                self.devices.offchip.access(rel, 64, MemOp::Write, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{ReferenceChFlex, Ring};
    use super::*;
    use chameleon_simkit::mem::ByteSize;
    use proptest::prelude::*;

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
        let mut ring = HashRing::new(16);
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
        assert!(HashRing::new(0).lookup(42).is_none());
    }

    /// A universe size: any in `0..=max`, with the degenerate 0 and 1
    /// drawn often.
    fn universe(max: u32) -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(1), 0..max + 1]
    }

    proptest! {
        /// The directory build orders the points exactly as one
        /// comparison sort of all of them does, for any universe size
        /// (powers of two or not), with one directory entry per point at
        /// most.
        #[test]
        fn directory_build_equals_a_full_sort(frames in universe(3000)) {
            let ring = HashRing::new(frames);
            let mut sorted: Vec<(u64, u32)> = (0..frames)
                .flat_map(|f| (0..REPLICAS).map(move |r| (HashRing::point(f, r), f)))
                .collect();
            sorted.sort_unstable();
            prop_assert_eq!(&ring.points, &sorted);
            prop_assert!(ring.dir.len() <= ring.points.len().max(1));
        }

        /// Starting from the directory finds the same owners as a ring
        /// that physically holds only the members' points: `lookup` for
        /// arbitrary keys, and `arc_owners` for members and non-members.
        #[test]
        fn directory_lookups_match_the_physical_removal_ring(
            frames in universe(400),
            removed in prop::collection::vec(any::<u32>(), 0..500),
            keys in prop::collection::vec(any::<u64>(), 1..64),
        ) {
            let mut ring = HashRing::new(frames);
            for &f in &removed {
                ring.remove(f % frames.max(1));
            }
            let mut reference = Ring::default();
            for f in (0..frames).filter(|&f| ring.contains(f)) {
                reference.add(f);
            }
            for key in keys {
                prop_assert_eq!(ring.lookup(key), reference.lookup(key), "key {}", key);
            }
            for frame in 0..frames {
                prop_assert_eq!(ring.arc_owners(frame), reference.arc_owners(frame), "frame {}", frame);
            }
        }
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

    /// One step of the CH-Flex differential test. Addresses are segment
    /// indices, of the stacked range or of the off-chip one.
    #[derive(Debug, Clone)]
    enum Step {
        Alloc {
            stacked: bool,
            seg: u64,
            segs: u64,
        },
        Free {
            stacked: bool,
            seg: u64,
            segs: u64,
        },
        Access {
            stacked: bool,
            seg: u64,
            line: u64,
            write: bool,
        },
        Writeback {
            stacked: bool,
            seg: u64,
            line: u64,
        },
    }

    /// 32 frames and 128 off-chip keys, so resizes move a visible share
    /// of the keys and cached copies collide.
    const DIFF_FRAMES: u64 = 32;
    const DIFF_KEYS: u64 = 128;

    fn step() -> impl Strategy<Value = Step> {
        (0u8..8, any::<bool>(), 0u64..DIFF_KEYS, 1u64..4, 0u64..32).prop_map(
            |(kind, stacked, seg, segs, line)| {
                let seg = if stacked { seg % DIFF_FRAMES } else { seg };
                match kind {
                    0 | 1 => Step::Alloc { stacked, seg, segs },
                    2 | 3 => Step::Free { stacked, seg, segs },
                    4..=6 => Step::Access {
                        stacked,
                        seg,
                        line,
                        write: line % 3 == 0,
                    },
                    _ => Step::Writeback { stacked, seg, line },
                }
            },
        )
    }

    proptest! {
        /// Membership flags, the targeted coherence check on `activate`
        /// and the owner lookup on an off-chip free change nothing: after
        /// every step the policy's statistics, frames and ring membership
        /// equal the pre-flag reference's, and every valid frame owns its
        /// key.
        #[test]
        fn matches_the_physical_removal_reference(
            steps in prop::collection::vec(step(), 1..300),
        ) {
            let mut c = cfg();
            c.stacked.capacity = ByteSize::bytes_exact(DIFF_FRAMES * 2048);
            c.offchip.capacity = ByteSize::bytes_exact(DIFF_KEYS * 2048);
            let seg_bytes = c.segment.bytes();
            let off_base = c.stacked.capacity.bytes();
            let mut ch = ChFlexPolicy::new(c.clone());
            let mut r = ReferenceChFlex::new(c);
            let addr = |stacked: bool, seg: u64| seg * seg_bytes + if stacked { 0 } else { off_base };
            let range = |stacked: bool, seg: u64, segs: u64| {
                let limit = if stacked { DIFF_FRAMES } else { DIFF_KEYS };
                (addr(stacked, seg), segs.min(limit - seg) * seg_bytes)
            };
            let mut now = 0;
            for step in steps {
                now += 1_000;
                match step {
                    Step::Alloc { stacked, seg, segs } => {
                        let (a, len) = range(stacked, seg, segs);
                        ch.isa_alloc(a, len, now);
                        r.isa_alloc(a, len, now);
                    }
                    Step::Free { stacked, seg, segs } => {
                        let (a, len) = range(stacked, seg, segs);
                        ch.isa_free(a, len, now);
                        r.isa_free(a, len, now);
                    }
                    Step::Access { stacked, seg, line, write } => {
                        let a = addr(stacked, seg) + line * 64;
                        ch.access(a, write, now);
                        r.access(a, write, now);
                    }
                    Step::Writeback { stacked, seg, line } => {
                        let a = addr(stacked, seg) + line * 64;
                        ch.writeback(a, now);
                        r.writeback(a, now);
                    }
                }
                prop_assert_eq!(format!("{:?}", ch.stats()), format!("{:?}", r.stats));
                prop_assert_eq!(&ch.frames, &r.frames);
                for (i, &active) in r.active.iter().enumerate() {
                    prop_assert_eq!(ch.ring.contains(i as u32), active, "frame {}", i);
                }
                for (i, f) in ch.frames.iter().enumerate() {
                    if f.valid {
                        prop_assert_eq!(ch.ring.lookup(f.tag), Some(i as u32), "frame {}", i);
                    }
                }
            }
        }
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
