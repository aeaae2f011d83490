//! Precomputed decode tables for the generators' hot paths.
//!
//! The address synthesisers ([`crate::AppStream`], [`crate::ZipfStream`],
//! [`crate::LoopStream`]) decide every memory op from one RNG draw. The
//! reference decoders are floating-point: a Bernoulli draw compares the
//! draw's `f64` against a probability (`rng.unit() < p`), and
//! a Zipf rank inverts a power-law CDF with a `powf` per draw
//! (`ZipfTable::rank_of_m`). This module precomputes that work into
//! integer tables built once per stream:
//!
//! * [`Bernoulli`] — the probability collapses to a 53-bit integer
//!   threshold ([`DeterministicRng::chance_threshold`]), so each draw is
//!   one RNG step and one integer compare. Exact by construction: the
//!   threshold counts precisely the accepting draws of the float
//!   compare.
//! * [`ZipfTable`] — the first [`ZipfTable::HEAD_RANKS`] ranks (which
//!   absorb most of the u-measure at realistic skews) get exact draw
//!   boundaries, found by bracketed bisection *of the float formula
//!   itself*, so a head draw is a guide-table index plus a short scan —
//!   no `powf`. Tail draws evaluate the float formula.
//!
//! Every table replays its float reference *draw-for-draw*: same RNG
//! consumption, same outputs. The proptests below check each table
//! against its reference over arbitrary parameters and draws.

use chameleon_simkit::rng::DeterministicRng;

/// Draws per unit interval: the RNG's f64 helpers use the high 53 bits
/// of one raw draw, so `[0, 1)` has exactly `2^53` representable draws.
const FULL: u64 = 1 << 53;

/// An integer-threshold Bernoulli gate: the table form of the float
/// draw `rng.unit() < p`. One RNG step per draw, identical accept
/// set (see [`DeterministicRng::chance_threshold`] for the exactness
/// argument).
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    /// Precomputes the gate for probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Self {
            threshold: DeterministicRng::chance_threshold(p),
        }
    }

    /// `true` with the configured probability; draw-for-draw identical
    /// to `rng.unit() < p`.
    // lint: hot-path
    #[inline]
    pub fn draw(&self, rng: &mut DeterministicRng) -> bool {
        rng.chance_with(self.threshold)
    }
}

/// The Table-II op-mix decode table for one application: every per-op
/// Bernoulli decision [`crate::AppStream`] makes (population selection
/// and store/load kind), precomputed as integer-threshold gates. Built
/// by [`crate::AppSpec::op_gates`].
#[derive(Debug, Clone, Copy)]
pub struct OpMixGates {
    /// Streaming-vs-hot population gate (`stream_fraction`).
    pub stream: Bernoulli,
    /// Medium-working-set share within the streaming population
    /// (`medium_share`).
    pub medium: Bernoulli,
    /// Store-vs-load gate (`write_fraction`).
    pub write: Bernoulli,
}

/// Exact decode table for [`crate::ZipfStream`]'s bounded power-law rank
/// draw.
///
/// The reference draw (`rank_of_m`) maps one RNG step `m ∈ [0, 2^53)` through
/// `u = min(m·2⁻⁵³, 1−10⁻¹²)` and the inverse CDF
/// `x(u) = ((nᵉ−1)·u + 1)^(1/e)` (or `n^u` at `s ≈ 1`), then truncates
/// and clamps to a rank. Every step of that pipeline is monotone
/// non-decreasing in `m` (correctly-rounded multiply/add, `pow`, integer
/// truncation), so each rank owns one contiguous interval of draws and
/// the map is fully described by its interval boundaries.
///
/// The table stores the boundaries of the first [`Self::HEAD_RANKS`]
/// ranks. Each boundary is found by bisecting the reference rank function
/// over `m` — the table is exact by construction, not by re-deriving the
/// math — bracketed around an analytic first guess so the build costs a
/// handful of `powf` calls per rank. A coarse guide array (buckets of
/// `2^`[`Self::GUIDE_SHIFT`] draws) turns a head decode into one guide
/// load plus a short boundary scan. Draws past the last head boundary
/// take the reference formula.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    lines: u64,
    /// Whether the `s ≈ 1` (`n^u`) branch applies.
    skew_is_one: bool,
    n: f64,
    /// `1 − skew` (general branch only).
    e: f64,
    inv_e: f64,
    /// `n^e − 1`, the float formula's per-draw constant.
    c: f64,
    /// `bounds[r]` = smallest draw `m` whose rank exceeds `r`.
    bounds: Vec<u64>,
    /// `bounds.last()`: draws below this decode from the table alone.
    head_limit: u64,
    /// `guide[m >> GUIDE_SHIFT]` = first candidate rank for `m`.
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Ranks with precomputed boundaries. 4096 head ranks absorb ~75% of
    /// the u-measure at the default skew 0.99 over a 4 MiB footprint,
    /// and build in well under a millisecond.
    pub const HEAD_RANKS: usize = 4096;

    /// Guide bucket width (`2^42` draws ⇒ at most 2049 buckets).
    const GUIDE_SHIFT: u32 = 42;

    /// Builds the table for a footprint of `lines` lines and skew `skew`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `skew` is negative.
    pub fn new(lines: u64, skew: f64) -> Self {
        assert!(lines > 0, "zipf table requires a non-empty footprint");
        assert!(skew >= 0.0, "zipf skew must be non-negative");
        let n = lines as f64;
        let skew_is_one = (skew - 1.0).abs() < 1e-9;
        let e = 1.0 - skew;
        let mut t = Self {
            lines,
            skew_is_one,
            n,
            e,
            inv_e: 1.0 / e,
            c: n.powf(e) - 1.0,
            bounds: Vec::new(),
            head_limit: 0,
            guide: Vec::new(),
        };
        let head = Self::HEAD_RANKS.min(lines as usize);
        t.bounds.reserve(head);
        let mut prev = 0u64;
        for r in 0..head as u64 {
            let b = t.boundary(r, prev);
            t.bounds.push(b);
            prev = b;
            if b == FULL {
                // Every draw already decodes from the table; further
                // ranks are unreachable.
                break;
            }
        }
        t.head_limit = *t.bounds.last().unwrap_or(&0);
        // Guide: for each bucket, the rank of the bucket's first draw.
        let buckets = (t.head_limit >> Self::GUIDE_SHIFT) as usize + 1;
        t.guide.reserve(buckets);
        let mut r = 0usize;
        for b in 0..buckets as u64 {
            let m = b << Self::GUIDE_SHIFT;
            while r < t.bounds.len() && t.bounds[r] <= m {
                r += 1;
            }
            t.guide.push(r as u32);
        }
        t
    }

    /// The float reference rank for draw `m` (the high 53 bits of one
    /// raw draw): `u = m·2⁻⁵³`, which is [`DeterministicRng::unit`] of
    /// the same draw, clamped below 1 and pushed through the inverse CDF.
    /// The table's tail path and the oracle its proptests check against.
    fn rank_of_m(&self, m: u64) -> u64 {
        let u = ((m as f64) * (1.0 / FULL as f64)).clamp(0.0, 1.0 - 1e-12);
        let x = if self.skew_is_one {
            self.n.powf(u)
        } else {
            (self.c * u + 1.0).powf(self.inv_e)
        };
        (x as u64).clamp(1, self.lines) - 1
    }

    /// Smallest `m >= lo` with `rank_of_m(m) > r`, or [`FULL`] if none:
    /// an analytic guess, a doubling bracket, then bisection — every
    /// probe evaluates the reference formula, so the result is exact.
    fn boundary(&self, r: u64, lo_hint: u64) -> u64 {
        if self.rank_of_m(FULL - 1) <= r {
            return FULL;
        }
        // Analytic inverse of `x(u) = r + 2` (the truncation threshold
        // where the rank first exceeds `r`), as a starting guess.
        let x = (r + 2) as f64;
        let u_guess = if self.skew_is_one {
            x.ln() / self.n.ln()
        } else {
            (x.powf(self.e) - 1.0) / self.c
        };
        let m0 = if u_guess.is_finite() && u_guess > 0.0 {
            ((u_guess * FULL as f64) as u64).min(FULL - 1).max(lo_hint)
        } else {
            lo_hint
        };
        // Bracket [lo, hi) with rank(lo) <= r < rank(hi); rank(0) = 0.
        let (mut lo, mut hi);
        let mut step = 1u64;
        if self.rank_of_m(m0) > r {
            hi = m0;
            loop {
                let cand = hi.saturating_sub(step).max(lo_hint);
                if self.rank_of_m(cand) <= r {
                    lo = cand;
                    break;
                }
                if cand == lo_hint {
                    // The hint itself exceeds r (possible only for
                    // hint 0, where rank(0) = 0 <= r; unreachable
                    // otherwise because bounds are built in rank order).
                    lo = cand;
                    break;
                }
                step <<= 1;
            }
        } else {
            lo = m0;
            loop {
                let cand = lo.checked_add(step).map_or(FULL - 1, |c| c.min(FULL - 1));
                if self.rank_of_m(cand) > r {
                    hi = cand;
                    break;
                }
                lo = cand;
                step <<= 1;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.rank_of_m(mid) > r {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Decodes one raw RNG draw (`rng.raw()`) to a rank, identical to
    /// `rank_of_m(raw >> 11)`.
    // lint: hot-path
    #[inline]
    pub fn rank(&self, raw: u64) -> u64 {
        let m = raw >> 11;
        if m < self.head_limit {
            let mut r = self.guide[(m >> Self::GUIDE_SHIFT) as usize] as usize;
            // `m < head_limit = bounds[last]` bounds the scan.
            while self.bounds[r] <= m {
                r += 1;
            }
            r as u64
        } else {
            self.rank_of_m(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Probabilities at the edges, on the 2⁻⁵³ draw grid (where an
    /// off-by-one threshold would show), decimal, and tiny.
    fn any_probability() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            any::<u64>().prop_map(|raw| (raw >> 11) as f64 / FULL as f64),
            (0u32..10_001).prop_map(|k| f64::from(k) / 10_000.0),
            (1i32..1075).prop_map(|k| 2f64.powi(-k)),
        ]
    }

    /// Skews that exercise every branch of the rank formula: uniform,
    /// moderate, the `|s - 1| < 1e-9` log branch (exactly and from both
    /// sides), YCSB-style 0.99, and strongly concentrated.
    fn any_skew() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(0.5),
            Just(0.99),
            Just(1.0),
            Just(1.0 - 5e-10),
            Just(1.0 + 5e-10),
            Just(1.2),
            Just(1.8),
            (1u32..200).prop_map(|m| f64::from(m) / 100.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The integer gate accepts exactly the draws the float compare
        /// accepts, one generator step each.
        #[test]
        fn bernoulli_replays_the_float_draw(p in any_probability(), seed in any::<u64>()) {
            let gate = Bernoulli::new(p);
            let mut a = DeterministicRng::seed(seed);
            let mut b = DeterministicRng::seed(seed);
            for i in 0..512 {
                prop_assert_eq!(gate.draw(&mut a), b.unit() < p, "p={} draw {}", p, i);
            }
        }

        /// The head table plus tail fallback decodes every draw to the
        /// float reference's rank: at, just below and just above every
        /// head boundary, and at random draws.
        #[test]
        fn zipf_table_rank_matches_the_float_reference(
            skew in any_skew(),
            lines in prop_oneof![1u64..64, 64u64..(1 << 26)],
            seed in any::<u64>(),
        ) {
            let t = ZipfTable::new(lines, skew);
            for &b in &t.bounds {
                for m in [b.saturating_sub(1), b, b + 1].into_iter().filter(|&m| m < FULL) {
                    prop_assert_eq!(t.rank(m << 11), t.rank_of_m(m), "skew {} draw {}", skew, m);
                }
            }
            let mut rng = DeterministicRng::seed(seed);
            for _ in 0..2048 {
                let raw = rng.raw();
                let r = t.rank(raw);
                prop_assert!(r < lines);
                prop_assert_eq!(r, t.rank_of_m(raw >> 11), "skew {}", skew);
            }
        }
    }

    #[test]
    fn boundaries_are_strictly_increasing_until_full() {
        for skew in [0.0, 0.5, 0.99, 1.0, 1.2] {
            let t = ZipfTable::new(64 << 10, skew);
            for w in t.bounds.windows(2) {
                assert!(w[0] < w[1], "skew {skew}: bounds must increase");
            }
            assert_eq!(t.head_limit, *t.bounds.last().unwrap());
        }
    }

    #[test]
    fn tiny_footprint_covers_every_rank_in_table() {
        // lines < HEAD_RANKS: the table covers the whole draw space and
        // the fallback is never needed.
        let t = ZipfTable::new(64, 0.99);
        assert_eq!(t.head_limit, FULL);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_lines_rejected() {
        ZipfTable::new(0, 1.0);
    }
}
