//! Deterministic random number generation.
//!
//! All stochastic behaviour in the simulator (workload address streams,
//! allocation jitter, sampling) flows through [`DeterministicRng`] so that
//! every experiment is exactly reproducible from its seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small, fast, seedable RNG with convenience helpers for the patterns
/// the simulator needs (bounded draws, Bernoulli draws).
///
/// # Example
///
/// ```
/// use chameleon_simkit::rng::DeterministicRng;
/// let mut a = DeterministicRng::seed(7);
/// let mut b = DeterministicRng::seed(7);
/// assert_eq!(a.below(100), b.below(100));
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    inner: SmallRng,
}

impl DeterministicRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.inner.gen::<f64>() < p
    }

    /// One raw 64-bit draw — exactly one generator step, the same step
    /// every other single-draw helper consumes. Exposed so precomputed
    /// decode tables (`chameleon-workloads`) can replay a helper's draw
    /// with pure integer arithmetic.
    pub fn raw(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }

    /// The integer threshold that makes [`Self::chance_with`] replay
    /// [`Self::chance`]`(p)` exactly.
    ///
    /// `chance(p)` compares `m * 2^-53 < p`, where `m` is the high 53
    /// bits of one raw draw. Both sides are exact: `m * 2^-53` scales an
    /// integer below 2^53 by a power of two, and `p * 2^53` likewise only
    /// shifts `p`'s exponent. An integer `m` satisfies `m < p * 2^53`
    /// iff `m < ceil(p * 2^53)`, so the ceiling is the exact count of
    /// accepting draws and the comparison can be done in integers.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance_threshold(p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Integer-only Bernoulli draw: `true` iff the high 53 bits of one
    /// raw draw fall below `threshold` (from [`Self::chance_threshold`]).
    /// Draw-for-draw identical to [`Self::chance`] — same accept set,
    /// same single generator step — without the int→float convert and
    /// float compare.
    pub fn chance_with(&mut self, threshold: u64) -> bool {
        (self.raw() >> 11) < threshold
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed(42);
        let mut b = DeterministicRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.below(1 << 40), b.below(1 << 40));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DeterministicRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::seed(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_bound_panics() {
        DeterministicRng::seed(0).below(0);
    }

    #[test]
    fn chance_with_replays_chance_exactly() {
        // Mirrored generators, probabilities spanning subnormal-adjacent,
        // non-dyadic, and boundary values: every draw must agree, and the
        // generators must stay in lockstep (one step per draw).
        for p in [
            0.0,
            1e-300,
            1e-12,
            0.3,
            0.5,
            0.25706,
            0.95,
            1.0 - 1e-12,
            1.0,
        ] {
            let thr = DeterministicRng::chance_threshold(p);
            let mut a = DeterministicRng::seed(0xD1CE);
            let mut b = DeterministicRng::seed(0xD1CE);
            for i in 0..50_000 {
                assert_eq!(a.chance(p), b.chance_with(thr), "p={p} draw {i}");
            }
            assert_eq!(a.raw(), b.raw(), "generators must stay in lockstep");
        }
    }

    #[test]
    fn chance_threshold_extremes() {
        assert_eq!(DeterministicRng::chance_threshold(0.0), 0);
        assert_eq!(DeterministicRng::chance_threshold(1.0), 1 << 53);
        let mut r = DeterministicRng::seed(4);
        assert!(!r.chance_with(0));
        assert!(r.chance_with(1 << 53));
    }
}
