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

    /// One raw 64-bit draw — exactly one generator step, the same step
    /// every other single-draw helper consumes. Exposed so precomputed
    /// decode tables (`chameleon-workloads`) can replay a helper's draw
    /// with pure integer arithmetic.
    pub fn raw(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }

    /// The integer threshold that makes [`Self::chance_with`] replay the
    /// float Bernoulli draw `unit() < p` exactly.
    ///
    /// `unit() < p` compares `m * 2^-53 < p`, where `m` is the high 53
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
    /// Draw-for-draw identical to `unit() < p` — same accept set, same
    /// single generator step — without the int→float convert and float
    /// compare.
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
    use proptest::prelude::*;

    /// 2⁻⁵³: the value of one draw step of `unit()`.
    const STEP: f64 = 1.0 / (1u64 << 53) as f64;

    /// Probabilities at the edges, on the draw grid (where an off-by-one
    /// threshold would show), decimal, and tiny.
    fn any_probability() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            any::<u64>().prop_map(|raw| (raw >> 11) as f64 * STEP),
            (0u32..10_001).prop_map(|k| f64::from(k) / 10_000.0),
            (1i32..1075).prop_map(|k| 2f64.powi(-k)),
        ]
    }

    proptest! {
        /// The threshold is the exact accept count of `unit() < p`: the
        /// last accepted draw value sits just below it and the first
        /// rejected one at it. With `unit()` monotone in `raw() >> 11`
        /// (next test), `chance_with` accepts exactly the same draws.
        #[test]
        fn chance_threshold_is_the_exact_accept_count(p in any_probability()) {
            let t = DeterministicRng::chance_threshold(p);
            prop_assert!(t <= 1 << 53);
            if t > 0 {
                prop_assert!(((t - 1) as f64 * STEP) < p, "p={} t={}", p, t);
            }
            if t < 1 << 53 {
                prop_assert!((t as f64 * STEP) >= p, "p={} t={}", p, t);
            }
        }

        /// `unit()` is the high 53 bits of the same step's raw draw,
        /// scaled by 2⁻⁵³: the identity that lets integer decode tables
        /// work on `raw() >> 11` in place of a float draw.
        #[test]
        fn unit_is_the_scaled_high_bits_of_raw(seed in any::<u64>()) {
            let mut a = DeterministicRng::seed(seed);
            let mut b = DeterministicRng::seed(seed);
            for i in 0..512 {
                let scaled = (b.raw() >> 11) as f64 * STEP;
                prop_assert_eq!(a.unit().to_bits(), scaled.to_bits(), "draw {}", i);
            }
        }
    }

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
    #[should_panic(expected = "positive bound")]
    fn below_zero_bound_panics() {
        DeterministicRng::seed(0).below(0);
    }

    #[test]
    fn chance_with_replays_the_float_draw_exactly() {
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
                assert_eq!(a.unit() < p, b.chance_with(thr), "p={p} draw {i}");
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
