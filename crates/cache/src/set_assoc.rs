//! A set-associative, write-back/write-allocate cache with LRU replacement.

use chameleon_simkit::fastmod::FastMod;

use crate::{CacheConfig, CacheStats};

/// Whether a reference reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (marks the line dirty).
    Write,
}

/// Result of a lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; a dirty victim (if any)
    /// must be written back to the next level at the given line address.
    Miss {
        /// Line-aligned address of an evicted dirty line, if one exists.
        writeback: Option<u64>,
    },
}

/// A way's key word: `line << TAG_SHIFT | dirty << 1 | valid`.
const VALID: u32 = 0b1;
const DIRTY: u32 = 0b10;
const TAG_SHIFT: u32 = 2;

/// Line-address bits a 32-bit key holds beside its dirty and valid
/// bits: a cache of `line_bytes` lines covers physical addresses below
/// `line_bytes << KEY_LINE_BITS` (64 GiB for 64-byte lines).
pub(crate) const KEY_LINE_BITS: u32 = u32::BITS - TAG_SHIFT;

/// The key of a freshly filled (valid) line.
#[inline(always)]
fn fill_key(tag: u64, dirty: bool) -> u32 {
    // INVARIANT: `tag` is a line address below 2^KEY_LINE_BITS (the
    // memory-map bound `System::new` enforces), so the key keeps it whole.
    (tag << TAG_SHIFT) as u32 | u32::from(dirty) << 1 | VALID
}

/// One set's state: the `tag|dirty|valid` key every lookup scans, then
/// the LRU stamp only hits (one store) and fills (the victim scan)
/// touch. 64-byte aligned, so an 8-way set is exactly one host cache
/// line and a 16-way set two (keys in one, stamps in the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct Set<const W: usize> {
    keys: [u32; W],
    /// Last-use stamp of each way. An invalid way has stamp 0 and every
    /// valid way a distinct stamp ≥ 1 (each stamp is a fresh `clock`
    /// value, the wrap pass keeps them distinct, and ways never turn
    /// invalid again), so the first minimum of a set is its first
    /// invalid way, else its LRU way.
    stamps: [u32; W],
}

const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<Set<16>>() == 128 && align_of::<Set<16>>() == 64);
    assert!(size_of::<Set<8>>() == 64 && align_of::<Set<8>>() == 64);
};

/// One set-associative cache level of `W` ways.
///
/// The associativity is a compile-time constant, so each set is one
/// 64-byte-aligned record of `W` 32-bit keys and `W` 32-bit LRU stamps
/// that the hit and victim scans walk with no runtime width: one
/// implementation of each serves every associativity, fully unrolled.
/// The hit scan compares 32-bit lanes, which SSE2 does four at a time.
///
/// A key holds the whole line address, so the cache covers physical
/// addresses below `line_bytes << 30` (64 GiB for 64-byte lines).
/// Stamps come from a 32-bit clock: when it would overflow, a cold pass
/// renumbers each set's valid stamps to their rank and restarts the
/// clock at `W`, which keeps every set's recency order and so every
/// victim.
///
/// # Example
///
/// ```
/// use chameleon_cache::{AccessKind, CacheConfig, LookupResult, SetAssocCache};
///
/// let mut c = SetAssocCache::<4>::new(CacheConfig::table1_l1());
/// assert!(matches!(c.access(0x80, AccessKind::Read), LookupResult::Miss { .. }));
/// assert_eq!(c.access(0x80, AccessKind::Read), LookupResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<const W: usize> {
    /// Every set, one contiguous allocation indexed by set.
    sets: Vec<Set<W>>,
    /// The set count, as a mask or a reciprocal (the Table I L3 has
    /// 12288 sets).
    set_count: FastMod,
    line_shift: u32,
    clock: u32,
    stats: CacheStats,
}

impl<const W: usize> SetAssocCache<W> {
    /// The hit scan folds one bit per way into a `u64` mask.
    const WIDTH_FITS: () = assert!(W >= 1 && W <= 64, "1 to 64 ways");

    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`] or its `ways` is
    /// not `W`.
    pub fn new(cfg: CacheConfig) -> Self {
        let () = Self::WIDTH_FITS;
        let sets = cfg.sets();
        assert!(
            cfg.ways as usize == W,
            "{} is {W}-way, config says {}",
            cfg.name,
            cfg.ways
        );
        let empty = Set {
            keys: [0; W],
            stamps: [0; W],
        };
        Self {
            sets: vec![empty; sets],
            set_count: FastMod::new(sets as u64),
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set and tag (the line address) of `addr`.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (self.set_count.modulo(line) as usize, line)
    }

    /// Advances the LRU clock by one reference, renumbering the stamps
    /// first when it would overflow.
    // lint: hot-path
    #[inline(always)]
    fn tick(&mut self) {
        if self.clock == u32::MAX {
            self.renumber_stamps();
        }
        self.clock += 1;
    }

    /// The clock-wrap pass: rewrites each set's valid stamps to their
    /// rank (1 for the least recent, up to the set's valid-way count),
    /// leaves invalid ways at 0 and restarts the clock at `W`, above
    /// every rank. The victim rule compares stamps only within a set,
    /// so every later victim and writeback is unchanged.
    #[cold]
    #[inline(never)]
    fn renumber_stamps(&mut self) {
        for set in &mut self.sets {
            let old = set.stamps;
            for (stamp, &s) in set.stamps.iter_mut().zip(&old) {
                if s != 0 {
                    let older = old.iter().filter(|&&o| o != 0 && o < s).count();
                    // INVARIANT: a rank is at most W ≤ 64 (`WIDTH_FITS`).
                    *stamp = older as u32 + 1;
                }
            }
        }
        // INVARIANT: W ≤ 64 (`WIDTH_FITS`).
        self.clock = W as u32;
    }

    /// Looks up `addr`; on a miss the line is allocated (write-allocate)
    /// and the LRU victim evicted.
    ///
    /// The hit path is branchless over the set: every way's key is
    /// compared as one u32 lane (dirty bit forced so equality means
    /// valid-and-tag-matches), the per-way results fold into a bitmask,
    /// and `trailing_zeros` picks the matching way — one data-dependent
    /// branch per lookup instead of one per way. The miss path picks its
    /// victim with a branchless first-minimum over the set's stamps.
    // lint: hot-path
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> LookupResult {
        self.tick();
        let (set, tag) = self.locate(addr);
        if let Some(way) = self.find(set, tag) {
            let s = &mut self.sets[set];
            s.stamps[way] = self.clock;
            s.keys[way] |= u32::from(kind == AccessKind::Write) << 1;
            self.stats.record(kind, true);
            return LookupResult::Hit;
        }
        self.miss_fill(set, tag, kind)
    }

    /// The way of `set` that holds `tag`, if any: a branchless scan that
    /// folds the per-way compares into a bitmask.
    // lint: hot-path
    #[inline(always)]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let want = fill_key(tag, true);
        let mut mask = 0u64;
        for (i, &k) in self.sets[set].keys.iter().enumerate() {
            mask |= u64::from(k | DIRTY == want) << i;
        }
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// The miss path: victim selection, eviction accounting, fill.
    // lint: hot-path
    fn miss_fill(&mut self, set: usize, tag: u64, kind: AccessKind) -> LookupResult {
        let way = self.victim(set);
        let writeback = self.evict(set, way);
        self.fill(set, way, tag, kind == AccessKind::Write);
        self.stats.record(kind, false);
        LookupResult::Miss { writeback }
    }

    /// The one victim rule, shared by every fill: the first invalid way
    /// of `set`, else the least recently used one. Both are the set's
    /// first minimum stamp (invalid ways hold 0, valid ones distinct
    /// stamps ≥ 1), found with a pairwise tree over adjacent ways: each
    /// level keeps the left (lower) way on a tie, an odd way out moves
    /// up unpaired, and the compares of a level run in parallel.
    // lint: hot-path
    #[inline(always)]
    fn victim(&self, set: usize) -> usize {
        let mut val = self.sets[set].stamps;
        let mut way: [usize; W] = std::array::from_fn(|i| i);
        let mut n = W;
        while n > 1 {
            let half = n / 2;
            for i in 0..half {
                let right = val[2 * i + 1] < val[2 * i];
                way[i] = if right { way[2 * i + 1] } else { way[2 * i] };
                val[i] = if right { val[2 * i + 1] } else { val[2 * i] };
            }
            if n % 2 == 1 {
                way[half] = way[n - 1];
                val[half] = val[n - 1];
            }
            n = half + n % 2;
        }
        debug_assert!(
            self.stamps_consistent(set, way[0]),
            "stamp 0 must mean invalid, and the LRU stamp be unique"
        );
        way[0]
    }

    /// Whether `set` keeps the stamp invariant the victim rule relies on:
    /// stamp 0 exactly on invalid ways, and a valid victim `way` whose
    /// stamp no other way shares (debug builds check it on every fill).
    fn stamps_consistent(&self, set: usize, way: usize) -> bool {
        let Set { keys, stamps } = &self.sets[set];
        let oldest = stamps[way];
        keys.iter()
            .zip(stamps)
            .all(|(&k, &s)| (k & VALID != 0) == (s != 0))
            && (oldest == 0 || stamps.iter().filter(|&&s| s == oldest).count() == 1)
    }

    /// Counts the eviction of `way` of `set` (if valid) and returns its
    /// address when it is dirty and must be written back.
    // lint: hot-path
    #[inline(always)]
    fn evict(&mut self, set: usize, way: usize) -> Option<u64> {
        let key = self.sets[set].keys[way];
        if key & VALID == 0 {
            return None;
        }
        self.stats.evictions.inc();
        if key & DIRTY == 0 {
            return None;
        }
        self.stats.writebacks.inc();
        Some(u64::from(key >> TAG_SHIFT) << self.line_shift)
    }

    /// Installs `tag` in `way` of `set`, stamped with the current clock.
    // lint: hot-path
    #[inline(always)]
    fn fill(&mut self, set: usize, way: usize, tag: u64, dirty: bool) {
        debug_assert!(
            tag >> KEY_LINE_BITS == 0,
            "line {tag:#x} is beyond the {KEY_LINE_BITS}-bit key"
        );
        let s = &mut self.sets[set];
        s.keys[way] = fill_key(tag, dirty);
        s.stamps[way] = self.clock;
    }

    /// Whether `addr`'s line is currently present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    /// Marks `addr` present without counting an access (a prefetch
    /// install). A fill evicts by the same rule as a miss and counts the
    /// eviction; returns the address of a displaced dirty line, which the
    /// caller must write back.
    pub fn touch(&mut self, addr: u64) -> Option<u64> {
        self.tick();
        let (set, tag) = self.locate(addr);
        if let Some(way) = self.find(set, tag) {
            self.sets[set].stamps[way] = self.clock;
            return None;
        }
        let way = self.victim(set);
        let writeback = self.evict(set, way);
        self.fill(set, way, tag, false);
        writeback
    }
}

#[cfg(test)]
#[path = "../tests/support/lru_model.rs"]
mod lru_model;

#[cfg(test)]
mod tests {
    use super::lru_model::LruModel;
    use super::*;
    use chameleon_simkit::mem::ByteSize;
    use proptest::prelude::*;

    fn tiny() -> SetAssocCache<2> {
        // 2 sets, 2 ways, 64B lines = 256B.
        SetAssocCache::new(CacheConfig {
            name: "tiny".to_owned(),
            capacity: ByteSize::bytes_exact(256),
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    /// One set of `W` 64B lines: line `i` lives at `i * 64`.
    fn one_set<const W: usize>() -> SetAssocCache<W> {
        SetAssocCache::new(CacheConfig {
            name: "one-set".to_owned(),
            capacity: ByteSize::bytes_exact(W as u64 * 64),
            ways: W as u32,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(
            c.access(0, AccessKind::Read),
            LookupResult::Miss { writeback: None }
        ));
        assert_eq!(c.access(0, AccessKind::Read), LookupResult::Hit);
        assert_eq!(
            c.access(63, AccessKind::Read),
            LookupResult::Hit,
            "same line"
        );
        assert!(
            matches!(c.access(64, AccessKind::Read), LookupResult::Miss { .. }),
            "next line"
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose line-index is even (2 sets).
        c.access(0, AccessKind::Read); // line 0 -> set 0
        c.access(128, AccessKind::Read); // line 2 -> set 0
        c.access(0, AccessKind::Read); // touch line 0 (now MRU)
        c.access(256, AccessKind::Read); // line 4 -> set 0, evicts line 2
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));

        // 4 ways: a line hit after every other fill outlives them all.
        let mut c = one_set::<4>();
        for i in 0..4u64 {
            c.access(i * 64, AccessKind::Read);
        }
        for _ in 0..10 {
            c.access(0, AccessKind::Read);
        }
        c.access(4 * 64, AccessKind::Read);
        assert!(c.probe(0), "LRU protects the reused line");
        assert!(!c.probe(64), "the least recent line goes");
    }

    #[test]
    fn touch_evicts_the_way_access_would() {
        // Touching an absent line leaves the set exactly as a read miss
        // would, and reports the same writeback; returns it.
        let check = |c: &SetAssocCache<4>, addr: u64| {
            let mut touched = c.clone();
            let writeback = touched.touch(addr);
            let mut accessed = c.clone();
            let LookupResult::Miss {
                writeback: expected,
            } = accessed.access(addr, AccessKind::Read)
            else {
                panic!("{addr:#x} is absent");
            };
            assert_eq!(writeback, expected);
            assert_eq!(touched.sets, accessed.sets);
            let (t, a) = (touched.stats(), accessed.stats());
            assert_eq!(t.evictions.value(), a.evictions.value());
            assert_eq!(t.writebacks.value(), a.writebacks.value());
            assert_eq!(t.accesses(), c.stats().accesses(), "touch counts no access");
            writeback
        };
        let mut c = one_set::<4>();
        // Reads and writes with reuse, so LRU order differs from fill
        // order: the first steps fill invalid ways, the last evicts.
        for (line, kind) in [
            (0, AccessKind::Write),
            (1, AccessKind::Read),
            (0, AccessKind::Read),
            (2, AccessKind::Write),
            (3, AccessKind::Read),
            (1, AccessKind::Read),
        ] {
            check(&c, 0x1000);
            c.access(line * 64, kind);
        }
        // Line 0 is now the dirty LRU line.
        assert_eq!(check(&c, 0x1000), Some(0));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(128, AccessKind::Read);
        // Third distinct line in set 0 evicts LRU (line 0, dirty).
        match c.access(256, AccessKind::Read) {
            LookupResult::Miss { writeback } => assert_eq!(writeback, Some(0)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks.value(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(128, AccessKind::Read);
        match c.access(256, AccessKind::Read) {
            LookupResult::Miss { writeback } => assert_eq!(writeback, None),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn touch_warms_without_stats() {
        let mut c = tiny();
        c.touch(0);
        assert!(c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0, AccessKind::Read), LookupResult::Hit);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        assert_eq!(c.stats().accesses(), 3);
        assert_eq!(c.stats().hits.value(), 2);
        assert_eq!(c.stats().misses.value(), 1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn non_pow2_set_cache_works() {
        let mut c = SetAssocCache::<16>::new(CacheConfig::table1_l3());
        for i in 0..100_000u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.stats().accesses(), 100_000);
    }

    #[test]
    fn wrap_pass_ranks_valid_stamps_and_restarts_the_clock() {
        let mut c = one_set::<4>();
        for line in [0, 1, 2, 0] {
            c.access(line * 64, AccessKind::Read);
        }
        assert_eq!(c.sets[0].stamps, [4, 2, 3, 0]);
        c.clock = u32::MAX;
        // The wrap pass runs before this access stamps way 3.
        c.access(3 * 64, AccessKind::Read);
        assert_eq!(c.sets[0].stamps, [3, 1, 2, 5]);
        assert_eq!(c.clock, 5, "restarts at W, then ticks once");
        // Line 1 is still the LRU line.
        assert_eq!(
            c.access(4 * 64, AccessKind::Write),
            LookupResult::Miss { writeback: None }
        );
        assert!(!c.probe(64));
    }

    /// One step of the stamp-wrap differential. Every step ticks the
    /// clock exactly once.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A read or write through [`SetAssocCache::access`].
        Access(AccessKind),
        /// A prefetch install.
        Touch,
    }

    fn any_step() -> impl Strategy<Value = (Step, u64)> {
        let kind = || prop::sample::select(vec![AccessKind::Read, AccessKind::Write]);
        let step = prop_oneof![kind().prop_map(Step::Access), Just(Step::Touch),];
        (step, any::<u64>())
    }

    /// Runs `step` on `addr`: whether it hit, and the writeback.
    fn run_step<const W: usize>(
        c: &mut SetAssocCache<W>,
        step: Step,
        addr: u64,
    ) -> (bool, Option<u64>) {
        match step {
            Step::Access(kind) => match c.access(addr, kind) {
                LookupResult::Hit => (true, None),
                LookupResult::Miss { writeback } => (false, writeback),
            },
            Step::Touch => (c.probe(addr), c.touch(addr)),
        }
    }

    /// Each way's recency rank within its set (0 for an invalid way).
    fn ranks<const W: usize>(c: &SetAssocCache<W>) -> Vec<[usize; W]> {
        c.sets
            .iter()
            .map(|s| {
                s.stamps.map(|x| match x {
                    0 => 0,
                    _ => 1 + s.stamps.iter().filter(|&&o| o != 0 && o < x).count(),
                })
            })
            .collect()
    }

    /// Runs `steps` through a fresh `W`-way cache and one whose clock
    /// starts `below` ticks under `u32::MAX`, checking both against the
    /// recency-list model after every step, then that the second cache
    /// holds the same lines, dirty bits, recency order and statistics.
    fn check_wrap<const W: usize>(
        steps: &[(Step, u64)],
        sets: u64,
        below: u32,
    ) -> Result<(), TestCaseError> {
        let ways = W as u32;
        let mut fresh = SetAssocCache::<W>::new(CacheConfig {
            name: "wrap".to_owned(),
            capacity: ByteSize::bytes_exact(sets * u64::from(ways) * 64),
            ways,
            line_bytes: 64,
            latency: 1,
        });
        let mut wrapping = fresh.clone();
        wrapping.clock = u32::MAX - below;
        let mut model = LruModel::new(ways, sets);
        let pool = 3 * sets * u64::from(ways);
        for (i, &(step, line)) in steps.iter().enumerate() {
            let addr = line % pool * 64;
            let write = matches!(step, Step::Access(AccessKind::Write));
            let expected = model.reference(addr, write);
            let ctx = format!("{ways}-way, step {i}: {step:?} of {addr:#x}");
            prop_assert_eq!(run_step(&mut fresh, step, addr), expected, "fresh, {}", ctx);
            prop_assert_eq!(
                run_step(&mut wrapping, step, addr),
                expected,
                "wrapping, {}",
                ctx
            );
            prop_assert_eq!(fresh.probe(addr), model.probe(addr), "{}", ctx);
            for (f, w) in fresh.sets.iter().zip(&wrapping.sets) {
                prop_assert_eq!(f.keys, w.keys, "{}", ctx);
            }
            prop_assert_eq!(ranks(&fresh), ranks(&wrapping), "{}", ctx);
        }
        let (f, w) = (fresh.stats(), wrapping.stats());
        prop_assert_eq!(f.hits.value(), w.hits.value());
        prop_assert_eq!(f.misses.value(), w.misses.value());
        prop_assert_eq!(f.evictions.value(), w.evictions.value());
        prop_assert_eq!(f.writebacks.value(), w.writebacks.value());
        // Every step ticks once, and the tick from u32::MAX wraps.
        let n = steps.len() as u32;
        let clock = if n > below {
            ways + (n - below)
        } else {
            u32::MAX - below + n
        };
        prop_assert_eq!(wrapping.clock, clock);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The clock wrap changes no outcome: reads, writes and touches
        /// give the same hits, writebacks, lines and recency order as in
        /// a cache whose clock never wraps, and both match the
        /// recency-list LRU model, at the Table I widths and odd ones.
        #[test]
        fn stamp_wrap_matches_a_fresh_cache_and_the_lru_model(
            steps in prop::collection::vec(any_step(), 1..300),
            sets in prop::sample::select(vec![1u64, 3, 4]),
            below in 0u32..64,
        ) {
            check_wrap::<1>(&steps, sets, below)?;
            check_wrap::<2>(&steps, sets, below)?;
            check_wrap::<3>(&steps, sets, below)?;
            check_wrap::<4>(&steps, sets, below)?;
            check_wrap::<8>(&steps, sets, below)?;
            check_wrap::<16>(&steps, sets, below)?;
        }
    }

    #[test]
    #[should_panic(expected = "prop is 8-way, config says 16")]
    fn width_mismatch_rejected() {
        SetAssocCache::<8>::new(CacheConfig {
            name: "prop".to_owned(),
            ..CacheConfig::table1_l3()
        });
    }
}
