//! OS-side segment-group free-space ledger — the paper's Section VI-G
//! future-work extension.
//!
//! Segment-restricted remapping can only use a group's free space if the
//! free segments are spread across groups: a group with two free segments
//! wastes one, while a group with none cannot cache at all. The paper
//! proposes exposing the ABV state to the OS so allocation placement can
//! keep free space balanced. [`GroupLedger`] is that OS-side mirror: the
//! kernel updates it on every allocation/reclamation and consults it to
//! score candidate frames, avoiding allocations that consume a group's
//! *last* free segment.

use crate::geometry::SegmentGeometry;
use crate::page_table::PAGE_SIZE;

/// The groups of the segments `[addr, addr + len)` overlaps.
fn groups(geom: &SegmentGeometry, addr: u64, len: u64) -> impl Iterator<Item = usize> + '_ {
    geom.segments(addr, len)
        .map(|s| geom.group_slot(s).0 as usize)
}

/// Per-group free-segment counts, kept in sync by the kernel.
///
/// # Example
///
/// ```
/// use chameleon_os::{ledger::GroupLedger, SegmentGeometry};
/// use chameleon_simkit::mem::ByteSize;
///
/// // 8 groups of 6 segments (1:5, 2KB segments).
/// let geom = SegmentGeometry::new(ByteSize::kib(16), ByteSize::kib(80), ByteSize::kib(2));
/// let mut ledger = GroupLedger::new(geom);
/// ledger.on_alloc(0, 4096); // stacked segments 0 and 1: groups 0 and 1
/// assert_eq!(ledger.cache_capable_fraction(), 1.0, "every group keeps a free segment");
/// ```
#[derive(Debug, Clone)]
pub struct GroupLedger {
    geom: SegmentGeometry,
    free_per_group: Vec<u8>,
}

impl GroupLedger {
    /// Creates a ledger with every segment free.
    pub fn new(geom: SegmentGeometry) -> Self {
        Self {
            free_per_group: vec![geom.slots_per_group(); geom.groups() as usize],
            geom,
        }
    }

    /// Records an allocation of `[addr, addr + len)`.
    ///
    /// Runs on the page-fault path (reachable from the hot access loop),
    /// so the group walk stays allocation-free.
    pub fn on_alloc(&mut self, addr: u64, len: u64) {
        for g in groups(&self.geom, addr, len) {
            self.free_per_group[g] = self.free_per_group[g].saturating_sub(1);
        }
    }

    /// Records a free of `[addr, addr + len)`. Allocation-free like
    /// [`Self::on_alloc`] (the migration path frees frames too).
    pub fn on_free(&mut self, addr: u64, len: u64) {
        let slots = self.geom.slots_per_group();
        for g in groups(&self.geom, addr, len) {
            self.free_per_group[g] = (self.free_per_group[g] + 1).min(slots);
        }
    }

    /// Scores allocating the page frame at `frame`: higher is better.
    /// Consuming a group's *last* free segment destroys its ability to
    /// cache, so such placements are penalised hard; otherwise groups
    /// with more slack are preferred.
    pub fn score_frame(&self, frame: u64) -> i64 {
        groups(&self.geom, frame, PAGE_SIZE)
            .map(|g| match self.free_per_group[g] {
                0 => 0,    // already incapable; nothing lost
                1 => -100, // would destroy a cache-capable group
                n => n as i64,
            })
            .sum()
    }

    /// Fraction of groups with at least one free segment — an upper bound
    /// on Chameleon-Opt's cache-mode coverage.
    pub fn cache_capable_fraction(&self) -> f64 {
        let capable = self.free_per_group.iter().filter(|&&f| f > 0).count();
        capable as f64 / self.free_per_group.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use chameleon_simkit::mem::ByteSize;

    fn ledger() -> GroupLedger {
        // 8 groups of 6 slots, 2KB segments.
        GroupLedger::new(SegmentGeometry::new(
            ByteSize::kib(16),
            ByteSize::kib(80),
            ByteSize::kib(2),
        ))
    }

    #[test]
    fn starts_fully_free() {
        let l = ledger();
        assert_eq!(l.cache_capable_fraction(), 1.0);
        assert_eq!(l.free_per_group[0], 6);
    }

    #[test]
    fn alloc_and_free_track_groups() {
        let mut l = ledger();
        // A 4KB page in the stacked range covers segments 0 and 1 ->
        // groups 0 and 1.
        l.on_alloc(0, 4096);
        assert_eq!(l.free_per_group[0], 5);
        assert_eq!(l.free_per_group[1], 5);
        l.on_free(0, 4096);
        assert_eq!(l.free_per_group[0], 6);
    }

    #[test]
    fn offchip_addresses_map_by_congruence() {
        let mut l = ledger();
        // Off-chip segment j=9 -> group 1.
        let addr = 8 * 2048 + 9 * 2048;
        l.on_alloc(addr, 2048);
        assert_eq!(l.free_per_group[1], 5);
        assert_eq!(l.free_per_group[0], 6);
    }

    #[test]
    fn scoring_penalises_last_free_segment() {
        let mut l = ledger();
        // Drain group 0 down to one free segment (its stacked slot 0 plus
        // off-chip ones; 6 slots total -> allocate 5 of them).
        for k in 0..5u64 {
            let addr = 8 * 2048 + (k * 8) * 2048; // off-chip segments j=0,8,16,24,32 -> group 0
            l.on_alloc(addr, 2048);
        }
        assert_eq!(l.free_per_group[0], 1);
        // Frame covering group 0's stacked segment 0 (and group 1's).
        let bad = l.score_frame(0);
        // Frame entirely within fresh groups 4 and 5.
        let good = l.score_frame(4 * 2048);
        assert!(bad < good, "bad {bad} should score below good {good}");
    }

    #[test]
    fn capable_fraction_drops_when_groups_fill() {
        let mut l = ledger();
        for k in 0..6u64 {
            // All six segments of group 0: stacked seg 0 + off-chip j=0,8,16,24,32.
            let addr = if k == 0 {
                0
            } else {
                8 * 2048 + ((k - 1) * 8) * 2048
            };
            l.on_alloc(addr, 2048);
        }
        assert_eq!(l.free_per_group[0], 0);
        assert!((l.cache_capable_fraction() - 7.0 / 8.0).abs() < 1e-12);
    }
}
