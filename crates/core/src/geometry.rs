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

use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

use crate::srrt::MAX_SLOTS;

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
    /// is not an integer multiple of the stacked capacity, or the
    /// resulting group would exceed [`MAX_SLOTS`] slots.
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
        assert!(
            (ratio + 1) as usize <= MAX_SLOTS,
            "capacity ratio 1:{ratio} exceeds the supported group size"
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

    /// Locates a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond the total capacity.
    pub fn locate(&self, paddr: u64) -> SegLoc {
        assert!(
            paddr < self.total_bytes(),
            "physical address {paddr:#x} out of range"
        );
        // The segment size is asserted to be a power of two at
        // construction, so divide/modulo reduce to shift/mask on this
        // per-reference path.
        let seg_shift = self.segment_bytes.trailing_zeros();
        let off_mask = self.segment_bytes - 1;
        if paddr < self.stacked_bytes {
            SegLoc {
                group: paddr >> seg_shift,
                slot: 0,
                offset: paddr & off_mask,
            }
        } else {
            let rel = paddr - self.stacked_bytes;
            let j = rel >> seg_shift;
            let (group, wrap) = if self.stacked_segments.is_power_of_two() {
                (
                    j & (self.stacked_segments - 1),
                    j >> self.stacked_segments.trailing_zeros(),
                )
            } else {
                (j % self.stacked_segments, j / self.stacked_segments)
            };
            SegLoc {
                group,
                slot: 1 + wrap as u8,
                offset: rel & off_mask,
            }
        }
    }

    /// Base physical address of a group's slot (logical or physical — the
    /// two index spaces share addresses).
    ///
    /// # Panics
    ///
    /// Panics if the group or slot is out of range.
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
    #[should_panic(expected = "exceeds the supported group size")]
    fn huge_ratio_rejected() {
        SegmentGeometry::new(ByteSize::kib(2), ByteSize::kib(32), ByteSize::kib(2));
    }
}
