//! A stride prefetcher.
//!
//! The paper's GEM5 cores run with hardware prefetchers; this module makes
//! that machinery explicit: a reference-prediction table tracks the last
//! address and stride per region, and emits prefetch candidates once a
//! stride repeats. The system model issues candidates to the memory
//! system as low-priority traffic and installs them in the LLC.
//!
//! The default core model already folds prefetching into its effective
//! MLP, so the explicit prefetcher is off by default and exercised by the
//! ablation harness.

use serde::{Deserialize, Serialize};

use crate::InlineVec;

/// Upper bound on [`PrefetchConfig::degree`]: a newly confirmed stride
/// emits up to `degree` candidates in one burst, and the burst buffer is
/// inline (no allocation on the access path), so the degree is capped at
/// its capacity.
pub const MAX_PREFETCH_DEGREE: usize = 8;

/// Prefetch candidates of one observation, at most
/// [`MAX_PREFETCH_DEGREE`] of them.
pub type PrefetchBuf = InlineVec<MAX_PREFETCH_DEGREE>;

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Number of reference-prediction table entries.
    pub table_entries: usize,
    /// Lines fetched ahead once a stride is confirmed.
    pub degree: u8,
    /// Region granularity used to index the table (bytes, power of two).
    pub region_bytes: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self {
            table_entries: 64,
            degree: 4,
            region_bytes: 4096,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RptEntry {
    region: u64,
    last_addr: u64,
    stride: i64,
    confirmed: bool,
    valid: bool,
}

/// A per-core stride prefetcher (reference prediction table).
///
/// # Example
///
/// ```
/// use chameleon_cache::{PrefetchConfig, StridePrefetcher};
///
/// let mut p = StridePrefetcher::new(PrefetchConfig::default());
/// assert!(p.observe(0).is_empty());   // first touch trains
/// assert!(p.observe(64).is_empty());  // stride candidate
/// let pf = p.observe(128);            // stride confirmed: prefetch ahead
/// assert_eq!(pf[0], 192);
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: PrefetchConfig,
    table: Vec<RptEntry>,
}

impl StridePrefetcher {
    /// Builds an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: PrefetchConfig) -> Self {
        assert!(cfg.table_entries > 0, "table must have entries");
        assert!(
            cfg.region_bytes.is_power_of_two(),
            "region must be a power of two"
        );
        assert!(cfg.degree > 0, "degree must be positive");
        assert!(
            cfg.degree as usize <= MAX_PREFETCH_DEGREE,
            "degree {} exceeds MAX_PREFETCH_DEGREE {MAX_PREFETCH_DEGREE}",
            cfg.degree
        );
        Self {
            table: vec![RptEntry::default(); cfg.table_entries],
            cfg,
        }
    }

    /// Observes a demand access and returns prefetch candidate addresses
    /// (possibly empty).
    pub fn observe(&mut self, addr: u64) -> PrefetchBuf {
        let region = addr / self.cfg.region_bytes;
        let idx = (region as usize) % self.cfg.table_entries;
        let e = &mut self.table[idx];

        let mut out = PrefetchBuf::new();
        if !e.valid || e.region != region {
            *e = RptEntry {
                region,
                last_addr: addr,
                stride: 0,
                confirmed: false,
                valid: true,
            };
            return out;
        }

        let stride = addr as i64 - e.last_addr as i64;
        if stride != 0 && stride == e.stride {
            if e.confirmed {
                // Steady state: fetch just the next line ahead of the run.
                let ahead = addr as i64 + stride * self.cfg.degree as i64;
                if ahead >= 0 {
                    out.push(ahead as u64);
                }
            } else {
                e.confirmed = true;
                // Newly confirmed: fetch the whole degree window.
                for k in 1..=self.cfg.degree as i64 {
                    let a = addr as i64 + stride * k;
                    if a >= 0 {
                        out.push(a as u64);
                    }
                }
            }
        } else {
            e.confirmed = false;
        }
        e.stride = stride;
        e.last_addr = addr;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_then_streams() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        assert!(p.observe(1000).is_empty());
        assert!(p.observe(1064).is_empty());
        let burst = p.observe(1128);
        assert_eq!(burst, vec![1192, 1256, 1320, 1384]);
        // Steady state: one line ahead per access.
        assert_eq!(p.observe(1192), vec![1448]);
    }

    #[test]
    fn negative_strides_supported() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        p.observe(10_000);
        p.observe(10_000 - 64);
        let burst = p.observe(10_000 - 128);
        assert_eq!(burst[0], 10_000 - 192);
    }

    #[test]
    fn random_traffic_emits_nothing() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        let mut total = 0;
        let mut x: u64 = 12345;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            total += p.observe((x % (1 << 20)) & !63).len();
        }
        assert!(total < 20, "random traffic prefetched {total} lines");
    }

    #[test]
    fn stride_break_resets_confirmation() {
        let mut p = StridePrefetcher::new(PrefetchConfig::default());
        p.observe(0);
        p.observe(64);
        assert!(!p.observe(128).is_empty());
        assert!(p.observe(640).is_empty(), "stride broken");
        assert!(p.observe(704).is_empty(), "needs re-confirmation");
        assert!(!p.observe(768).is_empty(), "re-confirmed");
    }

    #[test]
    fn region_conflicts_retrain() {
        let cfg = PrefetchConfig {
            table_entries: 1,
            ..PrefetchConfig::default()
        };
        let mut p = StridePrefetcher::new(cfg);
        p.observe(0);
        p.observe(64);
        // A different region steals the single entry.
        p.observe(1 << 30);
        assert!(p.observe(128).is_empty(), "entry was stolen; retraining");
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn zero_degree_rejected() {
        StridePrefetcher::new(PrefetchConfig {
            degree: 0,
            ..PrefetchConfig::default()
        });
    }
}
