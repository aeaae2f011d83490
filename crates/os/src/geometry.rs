//! Segment and segment-group address arithmetic.
//!
//! The physical address space is `[0, stacked)` for stacked DRAM and
//! `[stacked, stacked + offchip)` for off-chip DRAM (Section V of the
//! paper). Both are tiled into equal *segments*; one stacked segment plus
//! the `ratio` off-chip segments congruent to it form a *segment group*
//! (Figure 6). Within a group, *logical slot* 0 names the stacked-range
//! address and slots `1..=ratio` name the off-chip-range addresses; the
//! same indices name the *physical* locations, so a remapping is a
//! permutation of slot indices.
//!
//! Segments are numbered in address order: stacked segments `0..groups`,
//! then off-chip segment `j` as `groups + j`. This module is the only code
//! that turns an address into a segment, group or slot; the hardware SRRT,
//! CH-Flex, the MemCache and Unison page caches and the OS-side group
//! ledger all go through it.

use std::ops::Range;

use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// Where a physical address falls: which group, and which logical slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegLoc {
    /// Segment-group index.
    pub group: u64,
    /// Logical slot within the group (0 = stacked-range address).
    pub slot: u8,
    /// Byte offset within the segment.
    pub offset: u64,
}

/// Fixed geometry of the segmented heterogeneous address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentGeometry {
    segment_bytes: u64,
    stacked_bytes: u64,
    offchip_bytes: u64,
    stacked_segments: u64,
    ratio: u64,
}

impl SegmentGeometry {
    /// Builds a geometry.
    ///
    /// # Panics
    ///
    /// Panics if capacities are not segment-aligned, the off-chip capacity
    /// is not a non-zero integer multiple of the stacked capacity, or the
    /// group's slot count (ratio + 1) does not fit a `u8`.
    pub fn new(stacked: ByteSize, offchip: ByteSize, segment: ByteSize) -> Self {
        let seg = segment.bytes();
        assert!(
            seg > 0 && seg.is_power_of_two(),
            "segment size must be a power of two"
        );
        assert!(
            stacked.bytes().is_multiple_of(seg),
            "stacked capacity must be segment-aligned"
        );
        assert!(
            offchip.bytes().is_multiple_of(seg),
            "off-chip capacity must be segment-aligned"
        );
        let stacked_segments = stacked.bytes() / seg;
        assert!(
            stacked_segments > 0,
            "stacked memory must hold at least one segment"
        );
        assert!(
            offchip.bytes().is_multiple_of(stacked.bytes()),
            "off-chip capacity must be an integer multiple of stacked capacity \
             (got {} vs {})",
            offchip,
            stacked
        );
        let ratio = offchip.bytes() / stacked.bytes();
        assert!(ratio >= 1, "segment groups need off-chip memory");
        assert!(
            ratio < u64::from(u8::MAX),
            "segment groups need an off-chip:stacked ratio of at most 254, got {ratio}"
        );
        Self {
            segment_bytes: seg,
            stacked_bytes: stacked.bytes(),
            offchip_bytes: offchip.bytes(),
            stacked_segments,
            ratio,
        }
    }

    /// Segment size in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Number of segment groups (= stacked segments).
    pub fn groups(&self) -> u64 {
        self.stacked_segments
    }

    /// Slots per group, including the stacked slot.
    pub fn slots_per_group(&self) -> u8 {
        (self.ratio + 1) as u8
    }

    /// Total capacity covered.
    pub fn total_bytes(&self) -> u64 {
        self.stacked_bytes + self.offchip_bytes
    }

    /// Stacked capacity.
    pub fn stacked_bytes(&self) -> u64 {
        self.stacked_bytes
    }

    /// The segments `[addr, addr + len)` overlaps; empty when `len` is 0.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the total capacity.
    pub fn segments(&self, addr: u64, len: u64) -> Range<u64> {
        if len == 0 {
            return 0..0;
        }
        assert!(
            addr.checked_add(len)
                .is_some_and(|end| end <= self.total_bytes()),
            "range {addr:#x}+{len:#x} out of range"
        );
        let shift = self.segment_bytes.trailing_zeros();
        (addr >> shift)..((addr + len - 1) >> shift) + 1
    }

    /// The segment holding `paddr` and the byte offset within it.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond the total capacity.
    #[inline]
    pub fn segment_of(&self, paddr: u64) -> (u64, u64) {
        assert!(
            paddr < self.total_bytes(),
            "physical address {paddr:#x} out of range"
        );
        // The segment size is asserted to be a power of two at
        // construction, so divide/modulo reduce to shift/mask on this
        // per-reference path.
        (
            paddr >> self.segment_bytes.trailing_zeros(),
            paddr & (self.segment_bytes - 1),
        )
    }

    /// The group and logical slot of segment `seg`, one of the indices
    /// [`Self::segments`] or [`Self::segment_of`] returns (a stacked
    /// segment is slot 0 of its own group; off-chip segment `j` belongs
    /// to group `j mod groups`).
    #[inline]
    pub fn group_slot(&self, seg: u64) -> (u64, u8) {
        let Some(j) = seg.checked_sub(self.stacked_segments) else {
            return (seg, 0);
        };
        let (group, wrap) = if self.stacked_segments.is_power_of_two() {
            (
                j & (self.stacked_segments - 1),
                j >> self.stacked_segments.trailing_zeros(),
            )
        } else {
            (j % self.stacked_segments, j / self.stacked_segments)
        };
        (group, 1 + wrap as u8)
    }

    /// Locates a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond the total capacity.
    #[inline]
    pub fn locate(&self, paddr: u64) -> SegLoc {
        let (seg, offset) = self.segment_of(paddr);
        let (group, slot) = self.group_slot(seg);
        SegLoc {
            group,
            slot,
            offset,
        }
    }

    /// Base physical address of a group's slot (logical or physical — the
    /// two index spaces share addresses).
    ///
    /// # Panics
    ///
    /// Panics if the group or slot is out of range.
    #[inline]
    pub fn slot_addr(&self, group: u64, slot: u8) -> u64 {
        assert!(group < self.stacked_segments, "group {group} out of range");
        assert!(slot <= self.ratio as u8, "slot {slot} out of range");
        if slot == 0 {
            group * self.segment_bytes
        } else {
            let j = (slot as u64 - 1) * self.stacked_segments + group;
            self.stacked_bytes + j * self.segment_bytes
        }
    }

    /// Device-relative address for an off-chip physical address.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is not in the off-chip range.
    #[inline]
    pub fn offchip_rel(&self, paddr: u64) -> u64 {
        assert!(
            (self.stacked_bytes..self.total_bytes()).contains(&paddr),
            "{paddr:#x} is not an off-chip address"
        );
        paddr - self.stacked_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> SegmentGeometry {
        // 8KiB stacked + 40KiB off-chip, 2KiB segments -> 4 groups of 6.
        SegmentGeometry::new(ByteSize::kib(8), ByteSize::kib(40), ByteSize::kib(2))
    }

    #[test]
    fn basic_shape() {
        let g = geo();
        assert_eq!(g.groups(), 4);
        assert_eq!(g.ratio, 5);
        assert_eq!(g.slots_per_group(), 6);
        assert_eq!(g.total_bytes(), 48 << 10);
    }

    #[test]
    fn stacked_addresses_are_slot_zero() {
        let g = geo();
        let loc = g.locate(2048 * 3 + 17);
        assert_eq!(loc.group, 3);
        assert_eq!(loc.slot, 0);
        assert_eq!(loc.offset, 17);
    }

    #[test]
    fn offchip_addresses_are_congruent() {
        let g = geo();
        // Off-chip segment j=5 -> group 1, slot 2.
        let paddr = (8 << 10) + 5 * 2048 + 100;
        let loc = g.locate(paddr);
        assert_eq!(loc.group, 1);
        assert_eq!(loc.slot, 2);
        assert_eq!(loc.offset, 100);
    }

    #[test]
    fn slot_addr_roundtrips_locate() {
        let g = geo();
        for group in 0..g.groups() {
            for slot in 0..g.slots_per_group() {
                let addr = g.slot_addr(group, slot);
                let loc = g.locate(addr);
                assert_eq!((loc.group, loc.slot, loc.offset), (group, slot, 0));
            }
        }
    }

    #[test]
    fn table1_geometry() {
        // 4GB + 20GB with 2KB segments: 2M groups of 6 (the paper's
        // running configuration).
        let g = SegmentGeometry::new(ByteSize::gib(4), ByteSize::gib(20), ByteSize::kib(2));
        assert_eq!(g.groups(), 2 << 20);
        assert_eq!(g.ratio, 5);
    }

    #[test]
    fn ratios_three_and_seven() {
        let g3 = SegmentGeometry::new(ByteSize::gib(6), ByteSize::gib(18), ByteSize::kib(2));
        assert_eq!(g3.slots_per_group(), 4);
        let g7 = SegmentGeometry::new(ByteSize::gib(3), ByteSize::gib(21), ByteSize::kib(2));
        assert_eq!(g7.slots_per_group(), 8);
    }

    #[test]
    fn offchip_rel() {
        let g = geo();
        assert_eq!(g.offchip_rel(8 << 10), 0);
        assert_eq!(g.offchip_rel((8 << 10) + 4096), 4096);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_out_of_range_panics() {
        geo().locate(48 << 10);
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn non_integer_ratio_rejected() {
        SegmentGeometry::new(ByteSize::kib(8), ByteSize::kib(20), ByteSize::kib(2));
    }

    #[test]
    fn ratio_254_is_the_largest_u8_group() {
        let g = SegmentGeometry::new(ByteSize::kib(2), ByteSize::kib(2 * 254), ByteSize::kib(2));
        assert_eq!(g.slots_per_group(), 255);
    }

    #[test]
    #[should_panic(expected = "ratio of at most 254, got 255")]
    fn ratio_beyond_u8_slots_rejected() {
        SegmentGeometry::new(ByteSize::kib(2), ByteSize::kib(2 * 255), ByteSize::kib(2));
    }

    #[test]
    #[should_panic(expected = "need off-chip memory")]
    fn zero_ratio_rejected() {
        SegmentGeometry::new(ByteSize::kib(8), ByteSize::kib(0), ByteSize::kib(2));
    }

    #[test]
    fn segments_cover_every_overlapped_segment() {
        let g = geo();
        assert!(g.segments(100, 0).is_empty());
        assert_eq!(g.segments(0, 1), 0..1);
        assert_eq!(g.segments(2047, 2), 0..2);
        assert_eq!(g.segments(2048, 4096), 1..3);
        assert_eq!(g.segments(0, 48 << 10), 0..24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segments_beyond_capacity_panic() {
        geo().segments(46 << 10, 4096);
    }

    #[test]
    fn segment_numbering_matches_locate() {
        let g = geo();
        for seg in g.segments(0, g.total_bytes()) {
            let addr = seg * g.segment_bytes();
            assert_eq!(g.segment_of(addr + 5), (seg, 5));
            let loc = g.locate(addr);
            assert_eq!(g.group_slot(seg), (loc.group, loc.slot));
        }
    }
}
