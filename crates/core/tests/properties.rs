//! Property-based tests for the Chameleon remapping architectures.
//!
//! These drive random interleavings of `ISA-Alloc`, `ISA-Free` and demand
//! accesses through the policies and check the structural invariants the
//! paper's hardware relies on.

use chameleon_core::{
    encoding, policy::HmaPolicy, Flavor, FootprintPredictor, HashRing, HmaConfig, Mode,
    ModeDistribution, RemapPolicy, SrrtEntry, UnisonPolicy,
};
use chameleon_os::isa::IsaHook;
use chameleon_os::SegmentGeometry;
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;

const SEG: u64 = 2048;

fn cfg() -> HmaConfig {
    let mut c = HmaConfig::scaled_laptop();
    c.stacked.capacity = ByteSize::mib(2);
    c.offchip.capacity = ByteSize::mib(10);
    c
}

fn geometry() -> SegmentGeometry {
    SegmentGeometry::new(ByteSize::mib(2), ByteSize::mib(10), ByteSize::kib(2))
}

#[derive(Debug, Clone)]
enum OpKind {
    Alloc { group: u64, slot: u8 },
    Free { group: u64, slot: u8 },
    Access { group: u64, slot: u8, write: bool },
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0u64..64, 0u8..6, 0u8..3, any::<bool>()).prop_map(|(group, slot, kind, write)| match kind {
        0 => OpKind::Alloc { group, slot },
        1 => OpKind::Free { group, slot },
        _ => OpKind::Access { group, slot, write },
    })
}

/// Drives a policy with a random op sequence, keeping a software model of
/// which segments are allocated so accesses only target live segments
/// (like a real OS).
fn drive(policy: &mut RemapPolicy, ops: &[OpKind]) {
    let geo = geometry();
    let mut allocated = std::collections::HashSet::new();
    let mut now = 0u64;
    for op in ops {
        now += 5_000_000;
        match *op {
            OpKind::Alloc { group, slot } => {
                if allocated.insert((group, slot)) {
                    policy.isa_alloc(geo.slot_addr(group, slot), SEG, now);
                }
            }
            OpKind::Free { group, slot } => {
                if allocated.remove(&(group, slot)) {
                    policy.isa_free(geo.slot_addr(group, slot), SEG, now);
                }
            }
            OpKind::Access { group, slot, write } => {
                if allocated.contains(&(group, slot)) {
                    policy.access(geo.slot_addr(group, slot) + 64, write, now);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SRRT remains a permutation and the mode bit tracks the ABV for
    /// basic Chameleon: a group is in cache mode iff its stacked-range
    /// segment is free.
    #[test]
    fn basic_chameleon_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut p = RemapPolicy::new(cfg(), Flavor::Chameleon { opt: false });
        drive(&mut p, &ops);
        for g in 0..64u64 {
            let e = p.srrt().entry(g);
            prop_assert!(e.check_permutation(), "group {g} remap corrupted");
            let cache = e.mode() == Mode::Cache;
            prop_assert_eq!(
                cache,
                !e.is_allocated(0),
                "group {} mode/ABV mismatch", g
            );
            if cache {
                // Invariant C: the stacked physical slot is backed by the
                // free stacked-range segment.
                prop_assert_eq!(e.physical_of(0), 0);
                // Anything cached must be a live off-chip segment.
                if let Some(c) = e.cached() {
                    prop_assert!(e.is_allocated(c));
                    prop_assert_ne!(c, 0);
                }
            }
        }
    }

    /// Chameleon-Opt: a group is in cache mode iff it has at least one
    /// free segment, and in cache mode the stacked physical slot is
    /// always backed by a free segment.
    #[test]
    fn opt_chameleon_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut p = RemapPolicy::new(cfg(), Flavor::Chameleon { opt: true });
        drive(&mut p, &ops);
        for g in 0..64u64 {
            let e = p.srrt().entry(g);
            prop_assert!(e.check_permutation(), "group {g} remap corrupted");
            let cache = e.mode() == Mode::Cache;
            prop_assert_eq!(cache, !e.all_allocated(), "group {} mode census", g);
            if cache {
                let backing = e.logical_in(0);
                prop_assert!(
                    !e.is_allocated(backing),
                    "group {} stacked slot backed by live segment {}",
                    g,
                    backing
                );
                if let Some(c) = e.cached() {
                    prop_assert!(e.is_allocated(c));
                }
            }
        }
    }

    /// PoM ignores ISA traffic entirely: any alloc/free sequence leaves
    /// every group in PoM mode with an intact permutation.
    #[test]
    fn pom_is_free_space_agnostic(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let mut p = RemapPolicy::new(cfg(), Flavor::Pom);
        let geo = geometry();
        let mut now = 0;
        for op in &ops {
            now += 5_000_000;
            match *op {
                OpKind::Alloc { group, slot } => p.isa_alloc(geo.slot_addr(group, slot), SEG, now),
                OpKind::Free { group, slot } => p.isa_free(geo.slot_addr(group, slot), SEG, now),
                OpKind::Access { group, slot, write } => {
                    p.access(geo.slot_addr(group, slot), write, now);
                }
            }
        }
        prop_assert_eq!(p.mode_distribution().cache_groups, 0);
        for g in 0..64u64 {
            prop_assert!(p.srrt().entry(g).check_permutation());
        }
    }

    /// Accesses always return a positive, bounded latency, and the
    /// stacked hit counters never exceed total accesses.
    #[test]
    fn latency_and_counter_sanity(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut p = RemapPolicy::new(cfg(), Flavor::Chameleon { opt: true });
        let geo = geometry();
        let mut allocated = std::collections::HashSet::new();
        let mut now = 0u64;
        for op in &ops {
            now += 5_000_000;
            match *op {
                OpKind::Alloc { group, slot } => {
                    if allocated.insert((group, slot)) {
                        p.isa_alloc(geo.slot_addr(group, slot), SEG, now);
                    }
                }
                OpKind::Free { group, slot } => {
                    if allocated.remove(&(group, slot)) {
                        p.isa_free(geo.slot_addr(group, slot), SEG, now);
                    }
                }
                OpKind::Access { group, slot, write } => {
                    if allocated.contains(&(group, slot)) {
                        let lat = p.access(geo.slot_addr(group, slot), write, now);
                        prop_assert!(lat > 0);
                        prop_assert!(lat < 1_000_000, "latency {lat} absurd");
                    }
                }
            }
        }
        let s = p.stats();
        prop_assert!(
            s.stacked_hits.value() + s.buffer_hits.value() + s.stale_accesses.value()
                <= s.demand_accesses.value()
        );
        prop_assert!(s.stacked_hit_rate() <= 1.0);
    }
}

proptest! {
    /// The maintained inverse permutation stays consistent with the
    /// forward remap through arbitrary `swap_homes` sequences:
    /// `logical_in` (one array read) always agrees with a linear scan of
    /// `physical_of`, and the two maps are mutual inverses.
    #[test]
    fn srrt_inverse_tracks_forward_permutation(
        swaps in prop::collection::vec((0u8..8, 0u8..8), 0..64),
        slots in prop::sample::select(vec![1u8, 4, 6, 8]),
    ) {
        let mut e = SrrtEntry::new(slots);
        for (a, b) in swaps {
            e.swap_homes(a % slots, b % slots);
            prop_assert!(e.check_permutation());
        }
        for l in 0..slots {
            prop_assert_eq!(e.logical_in(e.physical_of(l)), l);
        }
        for p in 0..slots {
            let scan = (0..slots).find(|&l| e.physical_of(l) == p).unwrap();
            prop_assert_eq!(e.logical_in(p), scan);
            prop_assert_eq!(e.physical_of(e.logical_in(p)), p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The footprint predictor is bounded (never empty, never beyond the
    /// page) and recalls exactly what was recorded: after `record(page,
    /// touched)` the prediction for `page` is `touched ∩ full` — or the
    /// full page when the recorded footprint was empty, since predicting
    /// nothing would make every future access a sector miss.
    #[test]
    fn footprint_predictor_is_bounded_and_recalls(
        records in prop::collection::vec((0u64..4096, any::<u64>()), 1..100),
        probes in prop::collection::vec(0u64..4096, 1..50),
        lines in prop::sample::select(vec![1u32, 8, 32, 64]),
    ) {
        let mut p = FootprintPredictor::new(lines);
        let full = p.full_mask();
        for &(page, touched) in &records {
            p.record(page, touched);
            let got = p.predict(page);
            let expect = if touched & full == 0 { full } else { touched & full };
            prop_assert_eq!(got, expect);
        }
        for &page in &probes {
            let got = p.predict(page);
            prop_assert!(got != 0, "prediction must never be empty");
            prop_assert_eq!(got & !full, 0, "prediction must stay within the page");
        }
    }

    /// Unison under arbitrary traffic: every access is exactly one of
    /// {stacked hit, sector fetch, page fill}, the per-frame bitvec
    /// ordering `dirty ⊆ touched ⊆ fetched` holds, and fetched-line
    /// residency never exceeds the stacked capacity.
    #[test]
    fn unison_invariants_hold_under_random_traffic(
        refs in prop::collection::vec((0u64..5120, 0u64..32, any::<bool>()), 1..300),
    ) {
        let mut u = UnisonPolicy::new(cfg());
        let mut now = 0u64;
        for &(page, line, write) in &refs {
            now += 5_000_000;
            let addr = (2 << 20) + page * 2048 + line * 64;
            let lat = u.access(addr, write, now);
            prop_assert!(lat > 0);
        }
        prop_assert!(u.check_invariants(), "frame bitvec ordering violated");
        let (resident, capacity) = u.stacked_residency();
        prop_assert!(resident <= capacity);
        let s = u.stats();
        prop_assert_eq!(s.demand_accesses.value(), refs.len() as u64);
        prop_assert_eq!(
            s.stacked_hits.value() + s.sector_fetches.value() + s.fills.value(),
            s.demand_accesses.value(),
            "each access must be exactly one of hit/sector-fetch/fill"
        );
    }

    /// Consistent hashing's defining property: removing a frame moves
    /// only the keys that frame owned — every key owned by a surviving
    /// frame keeps its assignment — and adding the frame back restores
    /// the original assignment exactly.
    #[test]
    fn ring_resize_moves_only_the_affected_keys(
        frames in prop::collection::vec(0u32..64, 2..32),
        victim_sel in any::<u16>(),
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        // A ring over 0..64 with the unlisted frames removed owns keys
        // as a ring of only the listed frames would.
        let mut ring = HashRing::new(64);
        for f in (0..64).filter(|f| !frames.contains(f)) {
            ring.remove(f);
        }
        let victim = frames[victim_sel as usize % frames.len()];
        let before: Vec<u32> = keys.iter().map(|&k| ring.lookup(k).unwrap()).collect();
        ring.remove(victim);
        let survivors_exist = frames.iter().any(|&f| f != victim);
        for (&k, &owner) in keys.iter().zip(&before) {
            match ring.lookup(k) {
                Some(after) => {
                    prop_assert_ne!(after, victim, "removed frame still owns key {}", k);
                    if owner != victim {
                        prop_assert_eq!(
                            after, owner,
                            "key {} moved although its owner survived", k
                        );
                    }
                }
                None => prop_assert!(!survivors_exist),
            }
        }
        ring.add(victim);
        for (&k, &owner) in keys.iter().zip(&before) {
            prop_assert_eq!(ring.lookup(k).unwrap(), owner, "re-adding must restore key {}", k);
        }
    }
}

proptest! {
    /// The hardware bit encoding of an SRRT entry roundtrips losslessly
    /// for every reachable (permutation, ABV, mode, counter) combination.
    #[test]
    fn srrt_encoding_roundtrips(
        swaps in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        abv_bits in 0u8..64,
        cache_mode in any::<bool>(),
        counter in any::<u16>(),
        slots in prop::sample::select(vec![4u8, 6, 8]),
    ) {
        let mut e = SrrtEntry::new(slots);
        for (a, b) in swaps {
            e.swap_homes(a % slots, b % slots);
        }
        for l in 0..slots {
            e.set_allocated(l, abv_bits & (1 << (l % 6)) != 0);
        }
        e.set_mode(if cache_mode { Mode::Cache } else { Mode::Pom });
        e.set_counter(counter);
        let packed = encoding::pack(&e);
        prop_assert_eq!(packed.width as u32, encoding::entry_bits(slots));
        let back = encoding::unpack(&packed, slots);
        for l in 0..slots {
            prop_assert_eq!(back.physical_of(l), e.physical_of(l));
            prop_assert_eq!(back.is_allocated(l), e.is_allocated(l));
        }
        prop_assert_eq!(back.mode(), e.mode());
        prop_assert_eq!(back.counter(), e.counter());
        prop_assert!(back.check_permutation());
    }
}

/// One step of the census test, over the first groups of the table.
#[derive(Debug, Clone)]
enum CensusStep {
    Alloc { group: u64, slot: u8 },
    Free { group: u64, slot: u8 },
    Access { group: u64, slot: u8, write: bool },
    Writeback { group: u64, slot: u8 },
    Settle,
}

fn census_step() -> impl Strategy<Value = CensusStep> {
    (0u8..9, 0u64..64, 0u8..8, any::<bool>()).prop_map(|(kind, group, slot, write)| match kind {
        0 | 1 => CensusStep::Alloc { group, slot },
        2 | 3 => CensusStep::Free { group, slot },
        4..=6 => CensusStep::Access { group, slot, write },
        7 => CensusStep::Writeback { group, slot },
        _ => CensusStep::Settle,
    })
}

/// Every `RemapPolicy` flavor, plus PoM over CAMEO's 64-byte segments
/// (on a small device, so every table has 1,024 groups).
fn census_policies() -> Vec<(HmaConfig, Flavor)> {
    let mut cameo = cfg().with_cameo_segments();
    cameo.stacked.capacity = ByteSize::kib(64);
    cameo.offchip.capacity = ByteSize::kib(320);
    vec![
        (cfg(), Flavor::Pom),
        (cfg(), Flavor::Chameleon { opt: false }),
        (cfg(), Flavor::Chameleon { opt: true }),
        (cfg(), Flavor::Polymorphic),
        (cameo, Flavor::Pom),
    ]
}

/// The mode census and stacked residency by a scan of the whole SRRT.
fn scanned_census(p: &RemapPolicy, segment: u64) -> (ModeDistribution, u64) {
    let cache = p.srrt().iter().filter(|e| e.mode() == Mode::Cache).count() as u64;
    let resident = p
        .srrt()
        .iter()
        .filter(|e| e.mode() == Mode::Pom || e.cached().is_some())
        .count() as u64
        * segment;
    let modes = ModeDistribution {
        cache_groups: cache,
        pom_groups: p.srrt().len() as u64 - cache,
    };
    (modes, resident)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SRRT's counted census never drifts from the table: after every
    /// ISA-Alloc, ISA-Free, demand access, LLC writeback and settle,
    /// `mode_distribution` and `stacked_residency` equal a scan of
    /// `srrt()`, for every flavor. Allocation follows the OS discipline
    /// (a segment is allocated only while free and freed only while
    /// allocated); accesses and writebacks go anywhere, and steps land
    /// close enough together for transfers to still be in flight.
    #[test]
    fn srrt_census_matches_a_table_scan(
        steps in prop::collection::vec((census_step(), 1u64..2_000_000), 1..150),
    ) {
        for (cfg, flavor) in census_policies() {
            let geo = cfg.geometry();
            let (c, seg_bytes) = (geo.slots_per_group(), geo.segment_bytes());
            let mut p = RemapPolicy::new(cfg, flavor);
            let (modes, resident) = scanned_census(&p, seg_bytes);
            prop_assert_eq!(p.mode_distribution(), modes, "at boot");
            prop_assert_eq!(p.stacked_residency().0, resident, "at boot");
            let mut allocated = std::collections::HashSet::new();
            let mut now = 0u64;
            for (step, gap) in &steps {
                now += gap;
                match *step {
                    CensusStep::Alloc { group, slot } => {
                        let slot = slot % c;
                        if allocated.insert((group, slot)) {
                            p.isa_alloc(geo.slot_addr(group, slot), seg_bytes, now);
                        }
                    }
                    CensusStep::Free { group, slot } => {
                        let slot = slot % c;
                        if allocated.remove(&(group, slot)) {
                            p.isa_free(geo.slot_addr(group, slot), seg_bytes, now);
                        }
                    }
                    CensusStep::Access { group, slot, write } => {
                        p.access(geo.slot_addr(group, slot % c), write, now);
                    }
                    CensusStep::Writeback { group, slot } => {
                        p.writeback(geo.slot_addr(group, slot % c), now);
                    }
                    CensusStep::Settle => p.settle(),
                }
                let (modes, resident) = scanned_census(&p, seg_bytes);
                prop_assert_eq!(p.mode_distribution(), modes, "after {:?}", step);
                prop_assert_eq!(p.stacked_residency().0, resident, "after {:?}", step);
            }
        }
    }
}
