//! Precomputed decode tables for the generators' hot paths.
//!
//! The address synthesisers ([`crate::AppStream`], [`crate::ZipfStream`],
//! [`crate::LoopStream`]) gate each memory op's kind (store or load),
//! and [`crate::AppStream`] also its population, on Bernoulli draws.
//! The reference decode is floating-point: it compares the draw's `f64`
//! against a probability (`rng.unit() < p`). [`Bernoulli`] collapses the
//! probability to a 53-bit integer threshold
//! ([`DeterministicRng::chance_threshold`]) once per stream, so each draw
//! is one RNG step and one integer compare. It is exact by construction:
//! the threshold counts precisely the accepting draws of the float
//! compare, and the proptest below checks the gate against the float
//! draw over arbitrary probabilities and seeds.
//!
//! The Zipf rank is not table-driven: each stream serves too few draws to
//! repay a table build (see [`crate::ZipfStream`]).

use chameleon_simkit::rng::DeterministicRng;

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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Draws per unit interval: the RNG's f64 helpers use the high 53
    /// bits of one raw draw, so `[0, 1)` has exactly `2^53` draws.
    const FULL: u64 = 1 << 53;

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
    }
}
