//! A set-associative, write-back/write-allocate cache with LRU replacement.

use crate::{CacheConfig, CacheStats, ReplacementPolicy};

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
    /// Committing later could not reproduce the reference access (dirty
    /// victim, or a mutating victim-selection policy): the caller must
    /// take the full path against the untouched cache.
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

/// One way's state, packed into two words (16 bytes) so a 4-way set scan
/// touches a single host cache line: `key = tag << 4 | rrpv << 2 |
/// dirty << 1 | valid`. The RRPV saturates at 3, so two bits suffice.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    key: u64,
    /// Last-use stamp for LRU (insertion stamp for FIFO).
    used: u64,
}

impl Line {
    const VALID: u64 = 0b1;
    const DIRTY: u64 = 0b10;
    const RRPV_MASK: u64 = 0b1100;
    const RRPV_SHIFT: u32 = 2;
    const TAG_SHIFT: u32 = 4;

    fn fill(tag: u64, dirty: bool, used: u64, rrpv: u8) -> Self {
        Self {
            key: tag << Self::TAG_SHIFT
                | u64::from(rrpv) << Self::RRPV_SHIFT
                | u64::from(dirty) << 1
                | Self::VALID,
            used,
        }
    }

    fn matches(&self, tag: u64) -> bool {
        self.key & Self::VALID != 0 && self.key >> Self::TAG_SHIFT == tag
    }

    fn valid(&self) -> bool {
        self.key & Self::VALID != 0
    }

    fn dirty(&self) -> bool {
        self.key & Self::DIRTY != 0
    }

    fn tag(&self) -> u64 {
        self.key >> Self::TAG_SHIFT
    }

    fn rrpv(&self) -> u8 {
        ((self.key & Self::RRPV_MASK) >> Self::RRPV_SHIFT) as u8
    }

    fn set_rrpv(&mut self, v: u8) {
        self.key = (self.key & !Self::RRPV_MASK) | u64::from(v.min(3)) << Self::RRPV_SHIFT;
    }
}

/// One set-associative cache level.
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
    /// All lines, flattened set-major (`set * ways + way`): one
    /// contiguous allocation instead of a `Vec` per set, so a lookup is
    /// one dependent load, not two.
    lines: Vec<Line>,
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
    policy: ReplacementPolicy,
    /// xorshift state for the Random policy.
    rng_state: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_policy(cfg, ReplacementPolicy::Lru)
    }

    /// Builds an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn with_policy(cfg: CacheConfig, policy: ReplacementPolicy) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let line_shift = cfg.line_bytes.trailing_zeros();
        Self {
            lines: vec![Line::default(); sets * ways],
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
            policy,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
        }
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
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
    /// The hit path is branchless over the set: every way's 16-byte
    /// packed key is compared as one u64 lane (rrpv/dirty bits forced so
    /// equality means valid-and-tag-matches), the per-way results fold
    /// into a bitmask, and `trailing_zeros` picks the matching way — one
    /// data-dependent branch per lookup instead of one per way. The
    /// common associativities (4/8/16, Table I) get fixed-width
    /// specialisations the compiler fully unrolls.
    // lint: hot-path
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> LookupResult {
        self.clock += 1;
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        let want = tag << Line::TAG_SHIFT | Line::RRPV_MASK | Line::DIRTY | Line::VALID;
        let hit = match self.ways {
            4 => Self::find_hit::<4>(&self.lines[base..], want),
            8 => Self::find_hit::<8>(&self.lines[base..], want),
            16 => Self::find_hit::<16>(&self.lines[base..], want),
            _ => self.lines[base..][..self.ways]
                .iter()
                .position(|l| l.matches(tag)),
        };
        if let Some(i) = hit {
            let line = &mut self.lines[base + i];
            if self.policy != ReplacementPolicy::Fifo {
                line.used = self.clock;
            }
            // One read-modify-write resets the RRPV and merges the dirty
            // bit (equivalent to `set_rrpv(0)` + conditional `mark_dirty`).
            line.key = (line.key & !Line::RRPV_MASK) | u64::from(kind == AccessKind::Write) << 1;
            self.stats.record(kind, true);
            return LookupResult::Hit;
        }
        self.miss_fill(base, tag, kind)
    }

    /// Branchless hit scan over one `W`-way set starting at `lines[0]`.
    // lint: hot-path
    #[inline(always)]
    fn find_hit<const W: usize>(lines: &[Line], want: u64) -> Option<usize> {
        // INVARIANT: `lines` starts at a set boundary of a cache whose
        // associativity is W, so at least W lines follow.
        let set: &[Line; W] = lines[..W].try_into().expect("set holds W ways");
        let mut mask = 0u32;
        for (i, l) in set.iter().enumerate() {
            mask |= u32::from(l.key | Line::RRPV_MASK | Line::DIRTY == want) << i;
        }
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// The miss path: victim selection, eviction accounting, fill. One
    /// fused scan finds the first invalid way and the oldest-stamped way
    /// (the LRU/FIFO victim: strict `<` keeps the first minimum, like
    /// `min_by_key`), so a miss costs a single pass.
    // lint: hot-path
    fn miss_fill(&mut self, base: usize, tag: u64, kind: AccessKind) -> LookupResult {
        let clock = self.clock;
        let policy = self.policy;
        let set = &mut self.lines[base..][..self.ways];
        let mut first_invalid = usize::MAX;
        let mut oldest_idx = 0;
        let mut oldest_used = u64::MAX;
        for (i, l) in set.iter().enumerate() {
            if !l.valid() && first_invalid == usize::MAX {
                first_invalid = i;
            }
            if l.used < oldest_used {
                oldest_used = l.used;
                oldest_idx = i;
            }
        }
        // Pick an invalid way, else the policy's victim.
        let victim_idx = if first_invalid != usize::MAX {
            first_invalid
        } else {
            match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest_idx,
                _ => {
                    let mut rng_state = self.rng_state;
                    let v = Self::pick_victim(set, policy, &mut rng_state);
                    self.rng_state = rng_state;
                    v
                }
            }
        };
        let victim = set[victim_idx];
        let writeback = (victim.valid() && victim.dirty()).then(|| victim.tag() << self.line_shift);
        if victim.valid() {
            self.stats.evictions.inc();
            if writeback.is_some() {
                self.stats.writebacks.inc();
            }
        }
        // SRRIP inserts with a long re-reference prediction.
        set[victim_idx] = Line::fill(tag, kind == AccessKind::Write, clock, 2);
        self.stats.record(kind, false);
        LookupResult::Miss { writeback }
    }

    fn pick_victim(set: &mut [Line], policy: ReplacementPolicy, rng: &mut u64) -> usize {
        match policy {
            // LRU and FIFO both evict the smallest stamp; they differ in
            // whether hits refresh it.
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.used)
                .map(|(i, _)| i)
                // INVARIANT: ways >= 1 (CacheConfig::validate), set is non-empty.
                .expect("associativity is non-zero"),
            ReplacementPolicy::Random => {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                (*rng % set.len() as u64) as usize
            }
            ReplacementPolicy::Srrip => loop {
                if let Some(i) = set.iter().position(|l| l.rrpv() >= 3) {
                    break i;
                }
                for l in set.iter_mut() {
                    l.set_rrpv(l.rrpv() + 1);
                }
            },
        }
    }

    /// The fused fast path's hit probe: scans for `addr` exactly like
    /// [`Self::access`] and, *only on a hit*, commits the identical hit
    /// mutation (clock advance, LRU stamp, RRPV/dirty merge, stats) in
    /// the same pass. On a miss nothing is touched — not even the clock
    /// — so the caller may probe other caches or fall back to the full
    /// reference walk against an unchanged cache.
    ///
    /// A hit therefore costs exactly what the reference hit path costs
    /// (one [`Self::find_hit`] scan plus one line write), and a miss
    /// costs only the scan.
    // lint: hot-path
    #[inline]
    pub(crate) fn try_hit(&mut self, addr: u64, kind: AccessKind) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        let want = tag << Line::TAG_SHIFT | Line::RRPV_MASK | Line::DIRTY | Line::VALID;
        let hit = match self.ways {
            4 => Self::find_hit::<4>(&self.lines[base..], want),
            8 => Self::find_hit::<8>(&self.lines[base..], want),
            16 => Self::find_hit::<16>(&self.lines[base..], want),
            _ => self.lines[base..][..self.ways]
                .iter()
                .position(|l| l.matches(tag)),
        };
        if let Some(i) = hit {
            // `access` advances the clock before its scan; the scan does
            // not read it, so advancing here yields the same stamp.
            self.clock += 1;
            let line = &mut self.lines[base + i];
            if self.policy != ReplacementPolicy::Fifo {
                line.used = self.clock;
            }
            line.key = (line.key & !Line::RRPV_MASK) | u64::from(kind == AccessKind::Write) << 1;
            self.stats.record(kind, true);
            true
        } else {
            false
        }
    }

    /// One non-mutating victim scan for an `addr` the caller has already
    /// established to be absent (via a failed [`Self::try_hit`]) — the
    /// same fused first-invalid/oldest pass as [`Self::miss_fill`].
    /// Returns [`Classify::Bail`] whenever committing later could not
    /// reproduce [`Self::access`] exactly: a dirty victim (writeback),
    /// or a valid-victim choice under a policy whose selection mutates
    /// state (Random advances its RNG, SRRIP ages the set).
    // lint: hot-path
    #[inline]
    pub(crate) fn classify_victim(&self, addr: u64) -> Classify {
        let (set_idx, _) = self.locate(addr);
        let base = set_idx * self.ways;
        let set = &self.lines[base..][..self.ways];
        let mut first_invalid = usize::MAX;
        let mut oldest_idx = 0;
        let mut oldest_used = u64::MAX;
        for (i, l) in set.iter().enumerate() {
            if !l.valid() && first_invalid == usize::MAX {
                first_invalid = i;
            }
            if l.used < oldest_used {
                oldest_used = l.used;
                oldest_idx = i;
            }
        }
        // Same victim choice as `miss_fill`: first invalid way, else the
        // policy's pick — which only the stamp-based policies make
        // without mutating.
        let victim = if first_invalid != usize::MAX {
            first_invalid
        } else {
            match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest_idx,
                _ => return Classify::Bail,
            }
        };
        let line = &set[victim];
        if line.valid() && line.dirty() {
            return Classify::Bail;
        }
        Classify::CleanVictim { idx: base + victim }
    }

    /// Commits the clean-victim fill that [`Self::classify_victim`]
    /// prepared: bit-identical to the miss half of [`Self::access`] for
    /// a victim with no writeback (eviction accounting, SRRIP insertion
    /// stamp, stats). `idx` is the absolute victim index from
    /// [`Classify::CleanVictim`]; only the tag shift is recomputed.
    // lint: hot-path
    #[inline]
    pub(crate) fn commit_clean_fill(&mut self, addr: u64, idx: usize, kind: AccessKind) {
        self.clock += 1;
        let tag = addr >> self.line_shift;
        let line = &mut self.lines[idx];
        if line.valid() {
            self.stats.evictions.inc();
        }
        *line = Line::fill(tag, kind == AccessKind::Write, self.clock, 2);
        self.stats.record(kind, false);
    }

    /// Whether `addr`'s line is currently present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.lines[set_idx * self.ways..][..self.ways]
            .iter()
            .any(|l| l.matches(tag))
    }

    /// Marks `addr` present without counting an access (used to warm up).
    pub fn touch(&mut self, addr: u64) {
        self.clock += 1;
        let (set_idx, tag) = self.locate(addr);
        let clock = self.clock;
        let set = &mut self.lines[set_idx * self.ways..][..self.ways];
        if let Some(line) = set.iter_mut().find(|l| l.matches(tag)) {
            line.used = clock;
            return;
        }
        let victim_idx = set.iter().position(|l| !l.valid()).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.used)
                .map(|(i, _)| i)
                // INVARIANT: ways >= 1 (CacheConfig::validate), set is non-empty.
                .expect("associativity is non-zero")
        });
        set[victim_idx] = Line::fill(tag, false, clock, 2);
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
