//! A set-associative, write-back/write-allocate cache with LRU replacement.

use crate::{CacheConfig, CacheStats};

/// Whether a reference reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (marks the line dirty).
    Write,
}

/// What a non-mutating [`SetAssocCache::classify_victim`] pass found —
/// the fused fast path's deferred-commit protocol (see
/// [`crate::Hierarchy::fast_access`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Classify {
    /// The victim way is invalid or clean;
    /// [`SetAssocCache::commit_clean_fill`] reproduces the miss path
    /// exactly (no writeback).
    CleanVictim {
        /// Absolute index of the victim line (`set * ways + way`), so
        /// the commit needs no second set computation.
        idx: usize,
    },
    /// The victim is dirty, so the reference access would emit a
    /// writeback: the caller must take the full path against the
    /// untouched cache.
    Bail,
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

/// A way's key word: `tag << TAG_SHIFT | dirty << 1 | valid`.
const VALID: u64 = 0b1;
const DIRTY: u64 = 0b10;
const TAG_SHIFT: u32 = 2;

/// The key of a freshly filled (valid) line.
#[inline(always)]
fn fill_key(tag: u64, dirty: bool) -> u64 {
    tag << TAG_SHIFT | u64::from(dirty) << 1 | VALID
}

/// One set-associative cache level.
///
/// Each way's state lives in two parallel set-major arrays: the hot
/// `tag|dirty|valid` key every lookup scans, and the LRU stamp only
/// hits (one store) and fills (the victim scan) touch. A 16-way set's
/// keys fill two host cache lines instead of the four an interleaved
/// key-and-stamp line would.
///
/// # Example
///
/// ```
/// use chameleon_cache::{AccessKind, CacheConfig, LookupResult, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::table1_l1());
/// assert!(matches!(c.access(0x80, AccessKind::Read), LookupResult::Miss { .. }));
/// assert_eq!(c.access(0x80, AccessKind::Read), LookupResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Every way's key, flattened set-major (`set * ways + way`): one
    /// contiguous allocation instead of a `Vec` per set, so a lookup is
    /// one dependent load, not two.
    keys: Vec<u64>,
    /// Last-use stamp of each way, parallel to `keys`. An invalid way has
    /// stamp 0 and every valid way a distinct stamp ≥ 1 (each stamp is a
    /// fresh `clock` value and ways never turn invalid again), so the
    /// first minimum of a set is its first invalid way, else its LRU way.
    stamps: Vec<u64>,
    num_sets: usize,
    ways: usize,
    /// `num_sets - 1` when the set count is a power of two (index with a
    /// mask); 0 otherwise.
    set_mask: u64,
    /// `floor(2^64 / num_sets)` when the set count is *not* a power of
    /// two (the Table I L3 has 12288 sets): an exact modulo via one
    /// multiply-high instead of a hardware divide. 0 for pow2 counts.
    set_magic: u64,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let line_shift = cfg.line_bytes.trailing_zeros();
        Self {
            keys: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            num_sets: sets,
            ways,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            set_magic: if sets.is_power_of_two() {
                0
            } else {
                ((1u128 << 64) / sets as u128) as u64
            },
            line_shift,
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

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = if self.set_magic == 0 {
            // Power-of-two set count (mask is `sets - 1`, which is also
            // correct for a single set).
            (line & self.set_mask) as usize
        } else {
            // Exact `line % num_sets` by reciprocal: the estimated
            // quotient `q` is at most 1 low, so one conditional
            // subtract corrects the remainder.
            let n = self.num_sets as u64;
            let q = ((line as u128 * self.set_magic as u128) >> 64) as u64;
            let mut r = line - q * n;
            if r >= n {
                r -= n;
            }
            r as usize
        };
        (set, line)
    }

    /// Looks up `addr`; on a miss the line is allocated (write-allocate)
    /// and the LRU victim evicted.
    ///
    /// The hit path is branchless over the set: every way's key is
    /// compared as one u64 lane (dirty bit forced so equality means
    /// valid-and-tag-matches), the per-way results fold into a bitmask,
    /// and `trailing_zeros` picks the matching way — one data-dependent
    /// branch per lookup instead of one per way. The miss path picks its
    /// victim with a branchless first-minimum over the set's stamps. The
    /// common associativities (4/8/16, Table I) get fixed-width
    /// specialisations the compiler fully unrolls.
    // lint: hot-path
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> LookupResult {
        self.clock += 1;
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        if let Some(i) = self.find(base, tag) {
            self.commit_hit(base + i, kind);
            return LookupResult::Hit;
        }
        self.miss_fill(base, tag, kind)
    }

    /// The way of the set starting at `base` that holds `tag`, if any.
    // lint: hot-path
    #[inline(always)]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let want = fill_key(tag, true);
        let keys = &self.keys[base..];
        match self.ways {
            4 => Self::find_hit::<4>(keys, want),
            8 => Self::find_hit::<8>(keys, want),
            16 => Self::find_hit::<16>(keys, want),
            _ => keys[..self.ways].iter().position(|&k| k | DIRTY == want),
        }
    }

    /// Branchless hit scan over one `W`-way set starting at `keys[0]`.
    // lint: hot-path
    #[inline(always)]
    fn find_hit<const W: usize>(keys: &[u64], want: u64) -> Option<usize> {
        // INVARIANT: `keys` starts at a set boundary of a cache whose
        // associativity is W, so at least W keys follow.
        let set: &[u64; W] = keys[..W].try_into().expect("set holds W ways");
        let mut mask = 0u32;
        for (i, &k) in set.iter().enumerate() {
            mask |= u32::from(k | DIRTY == want) << i;
        }
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// The miss path: victim selection, eviction accounting, fill.
    // lint: hot-path
    fn miss_fill(&mut self, base: usize, tag: u64, kind: AccessKind) -> LookupResult {
        let idx = self.victim(base);
        let writeback = self.evict(idx);
        self.fill(idx, tag, kind == AccessKind::Write);
        self.stats.record(kind, false);
        LookupResult::Miss { writeback }
    }

    /// The one victim rule, shared by every fill: the first invalid way
    /// of the set starting at `base`, else the least recently used one.
    /// Both are the set's first minimum stamp (invalid ways hold 0, valid
    /// ones distinct stamps ≥ 1). Returns the absolute way index.
    // lint: hot-path
    #[inline(always)]
    fn victim(&self, base: usize) -> usize {
        let stamps = &self.stamps[base..];
        let way = match self.ways {
            4 => Self::first_min::<4>(stamps),
            8 => Self::first_min::<8>(stamps),
            16 => Self::first_min::<16>(stamps),
            _ => (1..self.ways).fold(0, |m, i| if stamps[i] < stamps[m] { i } else { m }),
        };
        debug_assert!(
            self.stamps_consistent(base, way),
            "stamp 0 must mean invalid, and the LRU stamp be unique"
        );
        base + way
    }

    /// Branchless first minimum over one `W`-way set starting at
    /// `stamps[0]`: a pairwise tree over adjacent halves, so each level
    /// keeps the left (lower) way on a tie and the compares of a level
    /// run in parallel.
    // lint: hot-path
    #[inline(always)]
    fn first_min<const W: usize>(stamps: &[u64]) -> usize {
        // INVARIANT: `stamps` starts at a set boundary of a cache whose
        // associativity is W, so at least W stamps follow.
        let mut val: [u64; W] = stamps[..W].try_into().expect("set holds W ways");
        let mut way: [usize; W] = std::array::from_fn(|i| i);
        let mut n = W;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                let right = val[2 * i + 1] < val[2 * i];
                way[i] = if right { way[2 * i + 1] } else { way[2 * i] };
                val[i] = if right { val[2 * i + 1] } else { val[2 * i] };
            }
        }
        way[0]
    }

    /// Whether the set starting at `base` keeps the stamp invariant the
    /// victim rule relies on: stamp 0 exactly on invalid ways, and a
    /// valid victim `way` whose stamp no other way shares (debug builds
    /// check it on every fill).
    fn stamps_consistent(&self, base: usize, way: usize) -> bool {
        let keys = &self.keys[base..][..self.ways];
        let stamps = &self.stamps[base..][..self.ways];
        let oldest = stamps[way];
        keys.iter()
            .zip(stamps)
            .all(|(&k, &s)| (k & VALID != 0) == (s != 0))
            && (oldest == 0 || stamps.iter().filter(|&&s| s == oldest).count() == 1)
    }

    /// Counts the eviction of way `idx` (if valid) and returns its
    /// address when it is dirty and must be written back.
    // lint: hot-path
    #[inline(always)]
    fn evict(&mut self, idx: usize) -> Option<u64> {
        let key = self.keys[idx];
        if key & VALID == 0 {
            return None;
        }
        self.stats.evictions.inc();
        if key & DIRTY == 0 {
            return None;
        }
        self.stats.writebacks.inc();
        Some(key >> TAG_SHIFT << self.line_shift)
    }

    /// Installs `tag` in way `idx`, stamped with the current clock.
    // lint: hot-path
    #[inline(always)]
    fn fill(&mut self, idx: usize, tag: u64, dirty: bool) {
        self.keys[idx] = fill_key(tag, dirty);
        self.stamps[idx] = self.clock;
    }

    /// The hit mutation shared by [`Self::access`] and [`Self::try_hit`]:
    /// LRU stamp, dirty merge, stats.
    // lint: hot-path
    #[inline(always)]
    fn commit_hit(&mut self, idx: usize, kind: AccessKind) {
        self.stamps[idx] = self.clock;
        self.keys[idx] |= u64::from(kind == AccessKind::Write) << 1;
        self.stats.record(kind, true);
    }

    /// The fused fast path's hit probe: scans for `addr` exactly like
    /// [`Self::access`] and, *only on a hit*, commits the identical hit
    /// mutation (clock advance, LRU stamp, dirty merge, stats) in the
    /// same pass. On a miss nothing is touched — not even the clock —
    /// so the caller may probe other caches or fall back to the full
    /// reference walk against an unchanged cache.
    ///
    /// A hit therefore costs exactly what the reference hit path costs
    /// (one [`Self::find`] scan plus one key and one stamp write), and a
    /// miss costs only the scan.
    // lint: hot-path
    #[inline]
    pub(crate) fn try_hit(&mut self, addr: u64, kind: AccessKind) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        if let Some(i) = self.find(base, tag) {
            // `access` advances the clock before its scan; the scan does
            // not read it, so advancing here yields the same stamp.
            self.clock += 1;
            self.commit_hit(base + i, kind);
            true
        } else {
            false
        }
    }

    /// The victim [`Self::miss_fill`] would pick for an `addr` the caller
    /// has already established to be absent (via a failed
    /// [`Self::try_hit`]), found without mutating anything. Returns
    /// [`Classify::Bail`] when that victim is dirty, since committing
    /// later could not reproduce the writeback of [`Self::access`].
    // lint: hot-path
    #[inline]
    pub(crate) fn classify_victim(&self, addr: u64) -> Classify {
        let (set_idx, _) = self.locate(addr);
        let idx = self.victim(set_idx * self.ways);
        if self.keys[idx] & DIRTY != 0 {
            return Classify::Bail;
        }
        Classify::CleanVictim { idx }
    }

    /// Commits the clean-victim fill that [`Self::classify_victim`]
    /// prepared: bit-identical to the miss half of [`Self::access`] for
    /// a victim with no writeback (eviction accounting, LRU stamp,
    /// stats). `idx` is the absolute victim index from
    /// [`Classify::CleanVictim`]; only the tag shift is recomputed.
    // lint: hot-path
    #[inline]
    pub(crate) fn commit_clean_fill(&mut self, addr: u64, idx: usize, kind: AccessKind) {
        self.clock += 1;
        let tag = addr >> self.line_shift;
        let writeback = self.evict(idx);
        debug_assert!(writeback.is_none(), "classify_victim vetted a clean victim");
        self.fill(idx, tag, kind == AccessKind::Write);
        self.stats.record(kind, false);
    }

    /// Whether `addr`'s line is currently present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.find(set_idx * self.ways, tag).is_some()
    }

    /// Marks `addr` present without counting an access (a prefetch
    /// install). A fill evicts by the same rule as a miss and counts the
    /// eviction; returns the address of a displaced dirty line, which the
    /// caller must write back.
    pub fn touch(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        if let Some(i) = self.find(base, tag) {
            self.stamps[base + i] = self.clock;
            return None;
        }
        let idx = self.victim(base);
        let writeback = self.evict(idx);
        self.fill(idx, tag, false);
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simkit::mem::ByteSize;

    fn tiny() -> SetAssocCache {
        // 2 sets, 2 ways, 64B lines = 256B.
        SetAssocCache::new(CacheConfig {
            name: "tiny".to_owned(),
            capacity: ByteSize::bytes_exact(256),
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    /// One set of `ways` 64B lines: line `i` lives at `i * 64`.
    fn one_set(ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            name: "one-set".to_owned(),
            capacity: ByteSize::bytes_exact(u64::from(ways) * 64),
            ways,
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
        let mut c = one_set(4);
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
        let check = |c: &SetAssocCache, addr: u64| {
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
            assert_eq!(touched.keys, accessed.keys);
            assert_eq!(touched.stamps, accessed.stamps);
            let (t, a) = (touched.stats(), accessed.stats());
            assert_eq!(t.evictions.value(), a.evictions.value());
            assert_eq!(t.writebacks.value(), a.writebacks.value());
            assert_eq!(t.accesses(), c.stats().accesses(), "touch counts no access");
            writeback
        };
        let mut c = one_set(4);
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
    fn classify_victim_matches_miss_fill_and_bails_only_on_dirty() {
        // Checks that `classify_victim(addr)` names `miss_fill`'s way.
        let check = |c: &SetAssocCache, addr: u64| {
            let verdict = c.classify_victim(addr);
            let mut filled = c.clone();
            let LookupResult::Miss { writeback } = filled.access(addr, AccessKind::Read) else {
                panic!("{addr:#x} is absent");
            };
            match verdict {
                Classify::CleanVictim { idx } => {
                    assert_eq!(
                        filled.keys[idx] | DIRTY,
                        fill_key(addr >> 6, true),
                        "same way as miss_fill"
                    );
                    assert_eq!(writeback, None);
                }
                Classify::Bail => assert!(writeback.is_some(), "bail only on a dirty victim"),
            }
            verdict
        };
        let mut c = one_set(4);
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.access(128, AccessKind::Read);
        // An invalid way wins over the dirty LRU line.
        assert_eq!(check(&c, 0x1000), Classify::CleanVictim { idx: 3 });
        c.access(192, AccessKind::Read);
        // Full set, dirty LRU victim (line 0).
        assert_eq!(check(&c, 0x1000), Classify::Bail);
        // Reusing line 0 makes the clean line 1 the LRU victim.
        c.access(0, AccessKind::Read);
        assert_eq!(check(&c, 0x1000), Classify::CleanVictim { idx: 1 });
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
        let mut c = SetAssocCache::new(CacheConfig::table1_l3());
        for i in 0..100_000u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.stats().accesses(), 100_000);
    }

    #[test]
    fn reciprocal_set_index_matches_modulo() {
        let c = SetAssocCache::new(CacheConfig::table1_l3());
        let sets = c.num_sets as u64;
        assert!(!sets.is_power_of_two(), "test needs the reciprocal path");
        // Dense low lines, a stride that never revisits a set in-order,
        // and the extremes of the address space.
        let probe = (0..10_000u64)
            .chain((0..10_000).map(|i| i * 0x1_0001))
            .chain([u64::MAX >> 6, (u64::MAX >> 6) - 1, sets, sets - 1, sets + 1]);
        for line in probe {
            let (set, tag) = c.locate(line << 6);
            assert_eq!(set as u64, line % sets, "line {line}");
            assert_eq!(tag, line);
        }
    }
}
