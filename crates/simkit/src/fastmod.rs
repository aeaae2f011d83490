//! `x % n` for a divisor fixed at construction, without a hardware
//! divide.

/// `x % n` for a divisor `n` fixed at construction.
///
/// Set-indexed tables (the SRAM cache levels, the DRAM-cache policies)
/// build one per table and index with [`FastMod::modulo`] on every access.
/// A power-of-two `n` takes a mask. Any other `n` takes a precomputed
/// reciprocal, `floor(2^64 / n)`: the multiply-high quotient estimate is
/// at most one low, so one conditional subtract makes the remainder
/// exact for every `u64`.
///
/// # Example
///
/// ```
/// use chameleon_simkit::fastmod::FastMod;
///
/// let sets = FastMod::new(12_288); // the Table I L3
/// assert_eq!(sets.modulo(1 << 40), (1u64 << 40) % 12_288);
/// assert_eq!(sets.divisor(), 12_288);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod {
    n: u64,
    /// `n - 1` when `n` is a power of two (0 for `n == 1`); unused
    /// otherwise.
    mask: u64,
    /// `floor(2^64 / n)` when `n` is not a power of two; 0 otherwise.
    magic: u64,
}

impl FastMod {
    /// The modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "modulus must be non-zero");
        if n.is_power_of_two() {
            Self {
                n,
                mask: n - 1,
                magic: 0,
            }
        } else {
            Self {
                n,
                mask: 0,
                magic: ((1u128 << 64) / u128::from(n)) as u64,
            }
        }
    }

    /// The divisor `n`.
    pub fn divisor(self) -> u64 {
        self.n
    }

    /// `x % n`.
    // lint: hot-path
    #[inline(always)]
    pub fn modulo(self, x: u64) -> u64 {
        if self.magic == 0 {
            x & self.mask
        } else {
            let q = ((u128::from(x) * u128::from(self.magic)) >> 64) as u64;
            let r = x - q * self.n;
            if r >= self.n {
                r - self.n
            } else {
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `rem` against `%` on dense low values, a stride that never
    /// revisits a residue in order, and the extremes of `u64`.
    fn check(n: u64) {
        let m = FastMod::new(n);
        let probe = (0..10_000u64)
            .chain((0..10_000).map(|i| i * 0x1_0001))
            .chain((0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .chain([
                u64::MAX >> 6,
                (u64::MAX >> 6) - 1,
                n,
                n - 1,
                n.saturating_add(1),
            ])
            .chain([u64::MAX, u64::MAX - 1, u64::MAX - n, u64::MAX / n * n]);
        for x in probe {
            assert_eq!(m.modulo(x), x % n, "{x} % {n}");
        }
    }

    #[test]
    fn reciprocal_set_index_matches_modulo() {
        // The Table I L3: 12 MiB of 16-way 64 B lines.
        check(12 * 1024 * 1024 / (16 * 64));
        // A one-set table: everything is residue 0.
        check(1);
        // 48 MiB of stacked DRAM, the laptop scale's 1:7 ratio: Alloy's
        // 64 B direct-mapped sets, and MemCache's and Unison's 4-way
        // sets of 2 KiB pages.
        check(48 * 1024 * 1024 / 64);
        check(48 * 1024 * 1024 / 2048 / 4);
        // Powers of two take the mask; the largest divisors of all.
        for n in [2, 4096, 1 << 63, u64::MAX, u64::MAX - 1, 3] {
            check(n);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_modulus_rejected() {
        FastMod::new(0);
    }
}
