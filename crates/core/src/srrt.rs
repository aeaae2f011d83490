//! The Segment Restricted Remapping Table (SRRT).
//!
//! One [`SrrtEntry`] per segment group holds the paper's Figure 7 state:
//! remapping tag bits (`physical_of(logical)`), the Alloc Bit Vector
//! (ABV), the mode bit, the dirty bit and the shared competing counter of
//! the PoM baseline, plus the controller's cached slot, counter candidate
//! and in-flight transfer. Entries are pure metadata — data movement
//! costs are charged by the policies.

use chameleon_simkit::Cycle;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// Maximum slots per segment group (supports capacity ratios up to 1:7).
pub const MAX_SLOTS: usize = 8;

/// A segment group's operating mode (the SRRT mode bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Part-of-memory: every segment is OS-visible; hot segments swap.
    Pom,
    /// The stacked slot caches one off-chip segment of the group.
    Cache,
}

// The fields of `SrrtEntry::word`, LSB first. A fresh entry holds the
// identity tags and the preset ABV bits; every other field is zero.
/// Bits per remapping tag: enough for [`MAX_SLOTS`] slots.
const TAG_BITS: u32 = 3;
/// Mask of one tag, of one slot index and of the competing-counter
/// candidate.
const SLOT_MASK: u64 = 0b111;
/// Bits 0..24: the tag of logical slot `l` at bit `3 * l`.
const IDENTITY_TAGS: u64 = 0o7654_3210;
/// Bits 24..32: the ABV, bit `l` set iff logical slot `l` is allocated.
/// Bits of slots the group lacks are preset, so they read as allocated.
const ABV_SHIFT: u32 = 24;
/// Bit 32: the mode bit, set in cache mode.
const CACHE_MODE: u64 = 1 << 32;
/// Bit 33: the dirty bit of the cached copy.
const DIRTY: u64 = 1 << 33;
/// Bits 34..38: the cached logical slot plus one, 0 when none is.
const CACHED_SHIFT: u32 = 34;
/// Bits 38..41: the competing-counter candidate.
const CAND_SHIFT: u32 = 38;
/// Bits 41..47: the two logical slots of the last transfer, three bits
/// each. A one-segment transfer stores its slot twice, which reads as a
/// slot with no partner. `clear_busy` stores slot 0 twice and zeroes
/// `busy_until`, so no slot reads as in transit or partnered.
const TRANSIT_SHIFT: u32 = 41;
/// Bits 48..64: the competing-counter value.
const COUNT_SHIFT: u32 = 48;

/// Per-group SRRT state: the busy-until cycle and one packed word.
///
/// The slot count is the table's ([`SegmentGroupTable::slots_per_group`]),
/// not the entry's: the ABV bits of slots a group lacks are preset, so
/// [`Self::all_allocated`] and [`Self::free_logical_except`] need no
/// count, and the tags of those slots stay the identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrrtEntry {
    /// Cycle until which an in-flight swap/fill occupies this group.
    busy_until: Cycle,
    /// The Figure 7 fields and the controller state, laid out as the
    /// `*_SHIFT` constants above say.
    word: u64,
}

const _: () = assert!(std::mem::size_of::<SrrtEntry>() == 16);

impl SrrtEntry {
    /// A fresh identity-mapped entry in PoM mode with nothing allocated,
    /// for a group of `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0 or exceeds [`MAX_SLOTS`].
    pub fn new(slots: u8) -> Self {
        assert!(
            (1..=MAX_SLOTS as u8).contains(&slots),
            "slots must be 1..={MAX_SLOTS}, got {slots}"
        );
        let absent = (0xFF_u64 << slots) & 0xFF;
        Self {
            busy_until: 0,
            word: IDENTITY_TAGS | absent << ABV_SHIFT,
        }
    }

    fn field(&self, shift: u32, mask: u64) -> u64 {
        (self.word >> shift) & mask
    }

    fn set_field(&mut self, shift: u32, mask: u64, value: u64) {
        debug_assert!(value <= mask, "{value} overflows the field at bit {shift}");
        self.word = (self.word & !(mask << shift)) | (value << shift);
    }

    /// Physical slot currently holding logical segment `l`'s home data.
    // lint: hot-path
    pub fn physical_of(&self, l: u8) -> u8 {
        debug_assert!(usize::from(l) < MAX_SLOTS);
        self.field(TAG_BITS * u32::from(l), SLOT_MASK) as u8
    }

    /// Logical segment whose home data occupies physical slot `p`: the
    /// inverse of the tags, found by scanning them (only swaps,
    /// transitions and ISA calls ask).
    pub fn logical_in(&self, p: u8) -> u8 {
        debug_assert!(usize::from(p) < MAX_SLOTS);
        (0..MAX_SLOTS as u8)
            .find(|&l| self.physical_of(l) == p)
            // INVARIANT: the tags are a permutation of 0..MAX_SLOTS.
            .expect("the SRRT tags are a permutation")
    }

    /// Swaps the homes of logical segments `a` and `b`.
    // lint: hot-path
    pub fn swap_homes(&mut self, a: u8, b: u8) {
        let (pa, pb) = (self.physical_of(a), self.physical_of(b));
        self.set_field(TAG_BITS * u32::from(a), SLOT_MASK, u64::from(pb));
        self.set_field(TAG_BITS * u32::from(b), SLOT_MASK, u64::from(pa));
    }

    /// Marks logical segment `l` allocated or free.
    pub fn set_allocated(&mut self, l: u8, allocated: bool) {
        debug_assert!(usize::from(l) < MAX_SLOTS);
        self.set_field(ABV_SHIFT + u32::from(l), 1, u64::from(allocated));
    }

    /// Whether logical segment `l` is allocated.
    pub fn is_allocated(&self, l: u8) -> bool {
        debug_assert!(usize::from(l) < MAX_SLOTS);
        self.field(ABV_SHIFT + u32::from(l), 1) != 0
    }

    /// Whether every segment in the group is allocated.
    pub fn all_allocated(&self) -> bool {
        self.field(ABV_SHIFT, 0xFF) == 0xFF
    }

    /// The lowest free logical segment other than `except`, if one
    /// exists.
    pub fn free_logical_except(&self, except: u8) -> Option<u8> {
        debug_assert!(usize::from(except) < MAX_SLOTS);
        let free = !(self.field(ABV_SHIFT, 0xFF) | 1 << except) & 0xFF;
        (free != 0).then(|| free.trailing_zeros() as u8)
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        if self.word & CACHE_MODE != 0 {
            Mode::Cache
        } else {
            Mode::Pom
        }
    }

    /// Sets the mode, resetting the competing counter on change.
    pub fn set_mode(&mut self, mode: Mode) {
        if self.mode() != mode {
            self.set_field(COUNT_SHIFT, 0xFFFF, 0);
            self.set_field(CAND_SHIFT, SLOT_MASK, 0);
        }
        match mode {
            Mode::Cache => self.word |= CACHE_MODE,
            Mode::Pom => self.word &= !CACHE_MODE,
        }
    }

    /// The logical segment cached in the stacked slot (cache mode).
    pub fn cached(&self) -> Option<u8> {
        (self.field(CACHED_SHIFT, 0xF) as u8).checked_sub(1)
    }

    /// Installs or clears the cached segment; clears the dirty bit.
    pub fn set_cached(&mut self, l: Option<u8>) {
        debug_assert!(l.is_none_or(|l| usize::from(l) < MAX_SLOTS));
        self.set_field(CACHED_SHIFT, 0xF, l.map_or(0, |l| u64::from(l) + 1));
        self.word &= !DIRTY;
    }

    /// The cache-mode dirty bit.
    pub fn is_dirty(&self) -> bool {
        self.word & DIRTY != 0
    }

    /// Marks the cached copy dirty.
    pub fn mark_dirty(&mut self) {
        self.word |= DIRTY;
    }

    /// Competing-counter update for a PoM-mode access to logical `l`
    /// currently resident off-chip. Returns `true` when the counter has
    /// reached `threshold` and `l` should be swapped into the stacked
    /// slot (the counter then resets).
    pub fn note_offchip_access(&mut self, l: u8, threshold: u16) -> bool {
        debug_assert!(usize::from(l) < MAX_SLOTS);
        let mut cand = self.field(CAND_SHIFT, SLOT_MASK) as u8;
        let mut count = self.counter();
        if cand == l {
            count = count.saturating_add(1);
        } else if count > 0 {
            count -= 1;
        } else {
            cand = l;
            count = 1;
        }
        let promote = cand == l && count >= threshold;
        if promote {
            count = 0;
        }
        self.set_field(CAND_SHIFT, SLOT_MASK, u64::from(cand));
        self.set_counter(count);
        promote
    }

    /// Competing-counter decay on a stacked-slot hit.
    pub fn note_stacked_access(&mut self) {
        self.set_counter(self.counter().saturating_sub(1));
    }

    /// Raw shared-counter value (the Figure 7 field).
    pub fn counter(&self) -> u16 {
        (self.word >> COUNT_SHIFT) as u16
    }

    /// Sets the raw shared-counter value (used when unpacking a
    /// hardware-encoded entry).
    pub fn set_counter(&mut self, value: u16) {
        self.set_field(COUNT_SHIFT, 0xFFFF, u64::from(value));
    }

    /// Whether a bulk transfer is still in flight at `now` (no new swap
    /// or fill may start for this group until it drains).
    pub fn is_busy(&self, now: Cycle) -> bool {
        now < self.busy_until
    }

    /// Records an in-flight transfer of up to two logical segments,
    /// completing at `until`.
    pub fn set_transit(&mut self, a: u8, b: Option<u8>, until: Cycle) {
        debug_assert!(usize::from(a.max(b.unwrap_or(a))) < MAX_SLOTS);
        self.busy_until = self.busy_until.max(until);
        let pair = u64::from(a) | u64::from(b.unwrap_or(a)) << TAG_BITS;
        self.set_field(TRANSIT_SHIFT, 0o77, pair);
    }

    /// The two logical segments of the last transfer.
    fn transit(&self) -> (u8, u8) {
        let pair = self.field(TRANSIT_SHIFT, 0o77);
        ((pair & SLOT_MASK) as u8, (pair >> TAG_BITS) as u8)
    }

    /// Whether logical segment `l` is one of the segments in transit at
    /// `now`.
    pub fn in_transit(&self, l: u8, now: Cycle) -> bool {
        let (a, b) = self.transit();
        self.is_busy(now) && (a == l || b == l)
    }

    /// Physical slot where an in-transit segment's data can still be
    /// found: for a swapped pair that is the partner's (post-swap) slot,
    /// i.e. the segment's own pre-swap location; for a single-segment
    /// transfer the mapping is unchanged.
    pub fn pre_transit_physical(&self, l: u8) -> u8 {
        let partner = match self.transit() {
            (a, b) if a == l => b,
            (a, b) if b == l => a,
            _ => l,
        };
        self.physical_of(partner)
    }

    /// Marks all in-flight transfers complete (warm-up settling).
    pub fn clear_busy(&mut self) {
        self.busy_until = 0;
        self.set_field(TRANSIT_SHIFT, 0o77, 0);
    }

    /// Debug invariant: the tags of logical slots `0..slots` are a
    /// permutation of `0..slots`, and every other slot is unmapped
    /// (its tag the identity, its ABV bit preset).
    pub fn check_permutation(&self, slots: u8) -> bool {
        let mut seen = [false; MAX_SLOTS];
        for l in 0..MAX_SLOTS as u8 {
            let p = self.physical_of(l);
            let mapped = if l < slots {
                p < slots && !seen[usize::from(p)]
            } else {
                p == l && self.is_allocated(l)
            };
            if !mapped {
                return false;
            }
            seen[usize::from(p)] = true;
        }
        true
    }
}

/// The full table: one entry per segment group.
///
/// The table keeps the per-group mode census (Figure 16) as two counters
/// that every write updates, so reading it costs nothing however many
/// groups there are. An entry changes only through [`Self::store`] (and
/// [`Self::clear_busy_all`], which touches neither counted field), so no
/// mode or cached copy can change behind the counters' back.
#[derive(Debug, Clone)]
pub struct SegmentGroupTable {
    entries: Vec<SrrtEntry>,
    slots: u8,
    /// Groups in cache mode.
    cache_groups: u64,
    /// Groups in cache mode whose stacked slot holds no cached copy.
    empty_cache_groups: u64,
}

impl SegmentGroupTable {
    /// Builds a table of `groups` identity-mapped entries in `mode`, with
    /// nothing allocated or cached.
    pub fn with_mode(groups: u64, slots: u8, mode: Mode) -> Self {
        let mut entry = SrrtEntry::new(slots);
        entry.set_mode(mode);
        let cache_groups = if mode == Mode::Cache { groups } else { 0 };
        Self {
            entries: vec![entry; groups as usize],
            slots,
            cache_groups,
            empty_cache_groups: cache_groups,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slots per group.
    pub fn slots_per_group(&self) -> u8 {
        self.slots
    }

    /// Shared access to a group entry.
    pub fn entry(&self, group: u64) -> &SrrtEntry {
        &self.entries[group as usize]
    }

    /// Writes a group's entry, updating the mode census.
    // lint: hot-path
    pub fn store(&mut self, group: u64, entry: SrrtEntry) {
        let old = std::mem::replace(&mut self.entries[group as usize], entry);
        let cache = |e: &SrrtEntry| u64::from(e.mode() == Mode::Cache);
        let empty = |e: &SrrtEntry| u64::from(e.mode() == Mode::Cache && e.cached().is_none());
        self.cache_groups = self.cache_groups + cache(&entry) - cache(&old);
        self.empty_cache_groups = self.empty_cache_groups + empty(&entry) - empty(&old);
    }

    /// Marks every group's in-flight transfers complete (warm-up
    /// settling); modes and cached copies are untouched.
    pub fn clear_busy_all(&mut self) {
        self.entries.iter_mut().for_each(SrrtEntry::clear_busy);
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = &SrrtEntry> {
        self.entries.iter()
    }

    /// Counts groups currently in cache mode.
    pub fn cache_mode_groups(&self) -> u64 {
        debug_assert_eq!(
            self.cache_groups,
            self.iter().filter(|e| e.mode() == Mode::Cache).count() as u64,
            "SRRT cache-mode census drifted from the table"
        );
        self.cache_groups
    }

    /// Counts cache-mode groups holding no cached copy: the only groups
    /// whose stacked slot holds no data.
    pub fn empty_cache_groups(&self) -> u64 {
        debug_assert_eq!(
            self.empty_cache_groups,
            self.iter()
                .filter(|e| e.mode() == Mode::Cache && e.cached().is_none())
                .count() as u64,
            "SRRT empty-cache census drifted from the table"
        );
        self.empty_cache_groups
    }

    /// Metadata size in bytes of a hardware SRRT with this many groups
    /// (paper Figure 7: one [`crate::encoding::entry_bits`] entry per
    /// group), for the overhead discussion of Sections V and VII.
    pub fn metadata_bytes(&self) -> u64 {
        (u64::from(crate::encoding::entry_bits(self.slots)) * self.entries.len() as u64).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceEntry;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_entry_is_identity_pom() {
        let e = SrrtEntry::new(6);
        assert_eq!(e.mode(), Mode::Pom);
        for l in 0..6 {
            assert_eq!(e.physical_of(l), l);
            assert_eq!(e.logical_in(l), l);
            assert!(!e.is_allocated(l));
        }
        assert!(e.check_permutation(6));
        assert!(!e.all_allocated());
    }

    #[test]
    fn swap_homes_keeps_permutation() {
        let mut e = SrrtEntry::new(6);
        e.swap_homes(0, 3);
        assert_eq!(e.physical_of(0), 3);
        assert_eq!(e.physical_of(3), 0);
        assert_eq!(e.logical_in(0), 3);
        assert!(e.check_permutation(6));
        e.swap_homes(3, 5);
        assert_eq!(e.physical_of(3), 5);
        assert_eq!(e.physical_of(5), 0);
        assert!(e.check_permutation(6));
    }

    #[test]
    fn abv_bookkeeping() {
        let mut e = SrrtEntry::new(3);
        e.set_allocated(0, true);
        e.set_allocated(2, true);
        assert!(e.is_allocated(0));
        assert!(!e.is_allocated(1));
        assert!(e.is_allocated(2));
        assert_eq!(e.free_logical_except(1), None);
        assert_eq!(e.free_logical_except(0), Some(1));
        e.set_allocated(1, true);
        assert!(e.all_allocated());
        e.set_allocated(0, false);
        assert!(!e.all_allocated());
    }

    #[test]
    fn mode_change_resets_counter() {
        let mut e = SrrtEntry::new(6);
        e.note_offchip_access(2, 100);
        e.note_offchip_access(2, 100);
        e.set_mode(Mode::Cache);
        e.set_mode(Mode::Pom);
        // Counter was reset: a fresh candidate needs `threshold` accesses.
        assert!(!e.note_offchip_access(2, 2));
        assert!(e.note_offchip_access(2, 2));
    }

    #[test]
    fn competing_counter_promotes_after_threshold() {
        let mut e = SrrtEntry::new(6);
        assert!(!e.note_offchip_access(3, 3)); // cand=3, count=1
        assert!(!e.note_offchip_access(3, 3)); // count=2
        assert!(e.note_offchip_access(3, 3)); // count=3 -> promote
                                              // Counter reset after promotion.
        assert!(!e.note_offchip_access(3, 3));
    }

    #[test]
    fn competing_counter_competes() {
        let mut e = SrrtEntry::new(6);
        e.note_offchip_access(3, 10); // cand=3 count=1
        e.note_offchip_access(4, 10); // count=0
        e.note_offchip_access(4, 10); // cand=4 count=1
        assert!(!e.note_offchip_access(3, 10)); // count=0
                                                // Stacked hits decay the counter.
        e.note_offchip_access(4, 10);
        e.note_stacked_access();
        assert!(!e.note_offchip_access(4, 2)); // count back to 1... then 2? promote
    }

    #[test]
    fn dirty_and_cached_flags() {
        let mut e = SrrtEntry::new(6);
        e.set_cached(Some(4));
        assert_eq!(e.cached(), Some(4));
        assert!(!e.is_dirty());
        e.mark_dirty();
        assert!(e.is_dirty());
        e.set_cached(None);
        assert!(!e.is_dirty(), "clearing the cache clears dirty");
    }

    #[test]
    fn busy_until_is_monotonic() {
        let mut e = SrrtEntry::new(6);
        e.set_transit(1, None, 100);
        e.set_transit(2, Some(3), 50);
        assert!(e.is_busy(99));
        assert!(!e.is_busy(100));
    }

    #[test]
    fn transit_membership() {
        let mut e = SrrtEntry::new(6);
        e.set_transit(2, Some(4), 100);
        assert!(e.in_transit(2, 50));
        assert!(e.in_transit(4, 50));
        assert!(!e.in_transit(3, 50));
        assert!(!e.in_transit(2, 100), "transit over once drained");
        e.clear_busy();
        assert!(!e.in_transit(2, 0));
    }

    #[test]
    fn table_mode_census() {
        let mut t = SegmentGroupTable::with_mode(10, 6, Mode::Pom);
        assert_eq!(t.len(), 10);
        assert_eq!(t.cache_mode_groups(), 0);
        for g in [3, 7] {
            let mut e = *t.entry(g);
            e.set_mode(Mode::Cache);
            t.store(g, e);
        }
        assert_eq!(t.cache_mode_groups(), 2);
    }

    #[test]
    fn census_counts_empty_cache_groups() {
        let mut t = SegmentGroupTable::with_mode(4, 6, Mode::Cache);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (4, 4));
        let mut e = *t.entry(1);
        e.set_cached(Some(2));
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (4, 3));
        // Leaving cache mode with a copy still recorded counts as neither.
        e.set_mode(Mode::Pom);
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
        e.set_cached(None);
        t.store(1, e);
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
        t.clear_busy_all();
        assert_eq!((t.cache_mode_groups(), t.empty_cache_groups()), (3, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "census drifted")]
    fn census_is_checked_against_the_table() {
        let mut t = SegmentGroupTable::with_mode(4, 6, Mode::Pom);
        t.cache_groups += 1;
        t.cache_mode_groups();
    }

    #[test]
    fn metadata_overhead_is_small() {
        // Paper scale: 2M groups of 6 slots. Tags: 3 bits * 6 + 6 ABV + 1
        // + 1 + 16 counter = 42 bits -> ~11MB total, i.e. ~0.26% of the
        // 4GB stacked DRAM.
        let t = SegmentGroupTable::with_mode(2 << 20, 6, Mode::Pom);
        let bytes = t.metadata_bytes();
        assert_eq!(bytes, (2 << 20) * 42 / 8);
        assert!(bytes < 16 << 20, "metadata {bytes} too large");
        assert!(bytes > 8 << 20);
    }

    /// One step of the packed-entry differential. Slot arguments are
    /// taken modulo the group's slot count.
    #[derive(Debug, Clone)]
    enum Op {
        Swap(u8, u8),
        Allocate(u8, bool),
        SetMode(Mode),
        SetCached(Option<u8>),
        MarkDirty,
        Offchip(u8, u16),
        Stacked,
        SetCounter(u16),
        Transit(u8, Option<u8>, Cycle),
        ClearBusy,
    }

    /// A slot index, or `None` one time in two.
    fn maybe_slot() -> impl Strategy<Value = Option<u8>> {
        (0u8..8, any::<bool>()).prop_map(|(l, some)| some.then_some(l))
    }

    fn op() -> impl Strategy<Value = Op> {
        let slot = 0u8..8;
        prop_oneof![
            (slot.clone(), slot.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
            (slot.clone(), any::<bool>()).prop_map(|(l, a)| Op::Allocate(l, a)),
            prop_oneof![Just(Mode::Pom), Just(Mode::Cache)].prop_map(Op::SetMode),
            maybe_slot().prop_map(Op::SetCached),
            Just(Op::MarkDirty),
            (slot.clone(), prop_oneof![1u16..4, any::<u16>()]).prop_map(|(l, t)| Op::Offchip(l, t)),
            Just(Op::Stacked),
            prop_oneof![0u16..4, Just(u16::MAX), any::<u16>()].prop_map(Op::SetCounter),
            (slot, maybe_slot(), 0u64..256).prop_map(|(a, b, until)| Op::Transit(a, b, until)),
            Just(Op::ClearBusy),
        ]
    }

    /// Every accessor of `packed` reads as the reference entry's does.
    fn same_state(
        packed: &SrrtEntry,
        oracle: &ReferenceEntry,
        slots: u8,
    ) -> Result<(), TestCaseError> {
        const PROBES: [Cycle; 5] = [0, 1, 64, 128, 255];
        prop_assert_eq!(packed.check_permutation(slots), oracle.check_permutation());
        prop_assert_eq!(packed.all_allocated(), oracle.all_allocated());
        prop_assert_eq!(packed.mode(), oracle.mode());
        prop_assert_eq!(packed.cached(), oracle.cached());
        prop_assert_eq!(packed.is_dirty(), oracle.is_dirty());
        prop_assert_eq!(packed.counter(), oracle.counter());
        for now in PROBES {
            prop_assert_eq!(packed.is_busy(now), oracle.is_busy(now), "now {}", now);
        }
        for l in 0..slots {
            prop_assert_eq!(packed.physical_of(l), oracle.physical_of(l), "slot {}", l);
            prop_assert_eq!(packed.logical_in(l), oracle.logical_in(l), "slot {}", l);
            prop_assert_eq!(packed.is_allocated(l), oracle.is_allocated(l), "slot {}", l);
            prop_assert_eq!(
                packed.free_logical_except(l),
                oracle.free_logical_except(l),
                "slot {}",
                l
            );
            prop_assert_eq!(
                packed.pre_transit_physical(l),
                oracle.pre_transit_physical(l),
                "slot {}",
                l
            );
            for now in PROBES {
                prop_assert_eq!(
                    packed.in_transit(l, now),
                    oracle.in_transit(l, now),
                    "slot {} now {}",
                    l,
                    now
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed 16-byte entry behaves exactly as the 40-byte
        /// reference through arbitrary operation sequences, for every
        /// group size: after each step every accessor agrees.
        #[test]
        fn packed_entry_matches_the_reference(
            slots in 1u8..9,
            ops in prop::collection::vec(op(), 1..120),
        ) {
            let mut packed = SrrtEntry::new(slots);
            let mut oracle = ReferenceEntry::new(slots);
            same_state(&packed, &oracle, slots)?;
            for op in ops {
                let slot = |l: u8| l % slots;
                match op {
                    Op::Swap(a, b) => {
                        packed.swap_homes(slot(a), slot(b));
                        oracle.swap_homes(slot(a), slot(b));
                    }
                    Op::Allocate(l, a) => {
                        packed.set_allocated(slot(l), a);
                        oracle.set_allocated(slot(l), a);
                    }
                    Op::SetMode(m) => {
                        packed.set_mode(m);
                        oracle.set_mode(m);
                    }
                    Op::SetCached(l) => {
                        packed.set_cached(l.map(slot));
                        oracle.set_cached(l.map(slot));
                    }
                    Op::MarkDirty => {
                        packed.mark_dirty();
                        oracle.mark_dirty();
                    }
                    Op::Offchip(l, threshold) => prop_assert_eq!(
                        packed.note_offchip_access(slot(l), threshold),
                        oracle.note_offchip_access(slot(l), threshold)
                    ),
                    Op::Stacked => {
                        packed.note_stacked_access();
                        oracle.note_stacked_access();
                    }
                    Op::SetCounter(v) => {
                        packed.set_counter(v);
                        oracle.set_counter(v);
                    }
                    Op::Transit(a, b, until) => {
                        packed.set_transit(slot(a), b.map(slot), until);
                        oracle.set_transit(slot(a), b.map(slot), until);
                    }
                    Op::ClearBusy => {
                        packed.clear_busy();
                        oracle.clear_busy();
                    }
                }
                same_state(&packed, &oracle, slots)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "slots must be")]
    fn zero_slots_rejected() {
        SrrtEntry::new(0);
    }

    #[test]
    #[should_panic(expected = "slots must be")]
    fn too_many_slots_rejected() {
        SrrtEntry::new(9);
    }
}
