//! Bit-level SRRT entry encoding (the hardware layout of Figure 7).
//!
//! The simulator's [`crate::SrrtEntry`] is itself packed, into a
//! busy-until cycle and one 64-bit word, but that word is sized for the
//! largest group: 3-bit tags for [`crate::MAX_SLOTS`] slots whatever the
//! group size, plus the controller state a hardware table does not hold
//! (the cached slot, the counter candidate and the in-flight transfer).
//! This module packs only the architecturally visible fields into the
//! exact bit budget a hardware table of a given group size would use —
//! per-slot tag bits, the ABV, the mode bit, the dirty bit and the
//! shared counter — and proves the roundtrip is lossless. It grounds the
//! metadata-overhead numbers the paper discusses (Sections V and VII).

use crate::srrt::{Mode, SrrtEntry};

/// A packed SRRT entry: the Figure 7 fields in `ceil(bits/8)` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedEntry {
    /// Raw bits, LSB-first: tags, ABV, mode, dirty, counter.
    pub bits: u128,
    /// Number of meaningful bits.
    pub width: u8,
}

/// Bits needed per remapping tag for a group with `slots` slots (at
/// least one, so a one-slot group still has a tag).
pub fn tag_bits(slots: u8) -> u32 {
    u32::BITS - u32::leading_zeros(slots.max(2) as u32 - 1)
}

/// Total bits of one packed entry for a group size.
pub fn entry_bits(slots: u8) -> u32 {
    slots as u32 * tag_bits(slots)  // tags
        + slots as u32              // ABV
        + 1                         // mode
        + 1                         // dirty
        + 16 // shared counter
}

/// Packs the architecturally visible state of an entry of a group with
/// `slots` slots.
///
/// The competing-counter *candidate* and in-flight transit state are
/// microarchitectural (they live in the controller pipeline, not the
/// table) and are not part of the encoding.
pub fn pack(e: &SrrtEntry, slots: u8) -> PackedEntry {
    let tb = tag_bits(slots);
    let mut bits: u128 = 0;
    let mut pos = 0u32;
    for l in 0..slots {
        bits |= (e.physical_of(l) as u128) << pos;
        pos += tb;
    }
    for l in 0..slots {
        bits |= (e.is_allocated(l) as u128) << pos;
        pos += 1;
    }
    bits |= ((e.mode() == Mode::Cache) as u128) << pos;
    pos += 1;
    bits |= (e.is_dirty() as u128) << pos;
    pos += 1;
    bits |= (e.counter() as u128) << pos;
    pos += 16;
    debug_assert_eq!(pos, entry_bits(slots));
    PackedEntry {
        bits,
        width: pos as u8,
    }
}

/// Unpacks an entry for a group with `slots` slots.
///
/// # Panics
///
/// Panics if the packed tags do not form a permutation (corrupt entry).
pub fn unpack(p: &PackedEntry, slots: u8) -> SrrtEntry {
    let tb = tag_bits(slots);
    let mut e = SrrtEntry::new(slots);
    let mut pos = 0u32;
    // Tags: rebuild the permutation via successive swaps.
    let mut target = vec![0u8; slots as usize];
    for t in target.iter_mut() {
        *t = ((p.bits >> pos) & ((1 << tb) - 1)) as u8;
        pos += tb;
    }
    for l in 0..slots {
        // Find which logical currently maps to target[l] and swap into
        // place. (Selection-sort over a permutation.)
        let want = target[l as usize];
        if e.physical_of(l) != want {
            let other = e.logical_in(want);
            e.swap_homes(l, other);
        }
    }
    for l in 0..slots {
        e.set_allocated(l, (p.bits >> pos) & 1 == 1);
        pos += 1;
    }
    let cache = (p.bits >> pos) & 1 == 1;
    pos += 1;
    e.set_mode(if cache { Mode::Cache } else { Mode::Pom });
    if (p.bits >> pos) & 1 == 1 {
        // Reconstructing the dirty bit requires a cached slot; the
        // hardware's dirty bit refers to the stacked physical slot, so
        // mark whatever logical occupies it as cached-dirty.
        let occupant = e.logical_in(0);
        e.set_cached(Some(occupant));
        e.mark_dirty();
    }
    pos += 1;
    e.set_counter(((p.bits >> pos) & 0xFFFF) as u16);
    assert!(e.check_permutation(slots), "corrupt packed entry");
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_budget_matches_paper_shape() {
        // 1:5 ratio -> 6 slots -> 3-bit tags.
        assert_eq!(tag_bits(6), 3);
        assert_eq!(entry_bits(6), 6 * 3 + 6 + 1 + 1 + 16);
        // 1:7 -> 8 slots -> 3-bit tags; 1:3 -> 4 slots -> 2-bit tags.
        assert_eq!(tag_bits(8), 3);
        assert_eq!(tag_bits(4), 2);
        // A 6-slot entry fits in 42 bits -> under 6 bytes.
        assert!(entry_bits(6) <= 48);
    }

    #[test]
    fn roundtrip_identity_entry() {
        let e = SrrtEntry::new(6);
        let p = pack(&e, 6);
        let back = unpack(&p, 6);
        for l in 0..6 {
            assert_eq!(back.physical_of(l), e.physical_of(l));
            assert_eq!(back.is_allocated(l), e.is_allocated(l));
        }
        assert_eq!(back.mode(), e.mode());
    }

    #[test]
    fn roundtrip_scrambled_entry() {
        let mut e = SrrtEntry::new(6);
        e.swap_homes(0, 3);
        e.swap_homes(3, 5);
        e.swap_homes(1, 2);
        e.set_allocated(0, true);
        e.set_allocated(4, true);
        e.set_mode(Mode::Cache);
        e.set_counter(12345);
        let back = unpack(&pack(&e, 6), 6);
        for l in 0..6 {
            assert_eq!(back.physical_of(l), e.physical_of(l), "tag {l}");
            assert_eq!(back.is_allocated(l), e.is_allocated(l), "abv {l}");
        }
        assert_eq!(back.mode(), Mode::Cache);
        assert_eq!(back.counter(), 12345);
        assert!(back.check_permutation(6));
    }

    #[test]
    fn dirty_bit_survives() {
        let mut e = SrrtEntry::new(6);
        e.set_mode(Mode::Cache);
        e.set_cached(Some(2));
        e.mark_dirty();
        let back = unpack(&pack(&e, 6), 6);
        assert!(back.is_dirty());
    }

    #[test]
    fn table_scale_metadata() {
        // Full-scale Table I: 2M entries of 42 bits ~ 10.5MB -- matches
        // the "low metadata overhead" claim for 2KB segments vs CAMEO's
        // 64B lines (32x the entries).
        let bytes_2kb = (2u64 << 20) * entry_bits(6) as u64 / 8;
        let bytes_64b = (64u64 << 20) * entry_bits(6) as u64 / 8;
        assert!(bytes_2kb < 12 << 20);
        assert_eq!(bytes_64b, bytes_2kb * 32);
    }
}
