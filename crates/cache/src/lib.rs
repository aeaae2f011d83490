#![forbid(unsafe_code)]
//! SRAM cache hierarchy model.
//!
//! Implements the on-chip cache levels of the paper's Table I: per-core
//! 32KB 4-way L1 and 256KB 8-way L2, plus a 12MB 16-way shared L3, all with
//! 64B lines, LRU replacement and write-back/write-allocate semantics.
//!
//! The hierarchy tells the caller *where* a reference hit and which dirty
//! lines were displaced; the caller (the CPU/system model) charges latency
//! and forwards misses and writebacks to the memory system.
//!
//! # Example
//!
//! ```
//! use chameleon_cache::{CacheConfig, Hierarchy, HitLevel, PrefetchBuf, WritebackBuf};
//!
//! let mut h = Hierarchy::new(2, CacheConfig::table1_l1(), CacheConfig::table1_l2(),
//!                            CacheConfig::table1_l3());
//! let (mut writebacks, mut prefetches) = (WritebackBuf::new(), PrefetchBuf::new());
//! let (first, _) = h.access_into(0, 0x4000, false, &mut writebacks, &mut prefetches);
//! assert_eq!(first, HitLevel::Memory);
//! let (second, _) = h.access_into(0, 0x4000, false, &mut writebacks, &mut prefetches);
//! assert_eq!(second, HitLevel::L1);
//! ```

mod config;
mod hierarchy;
mod inline_vec;
mod prefetch;
mod set_assoc;
mod stats;

pub use config::CacheConfig;
pub use hierarchy::{Hierarchy, HitLevel, WritebackBuf};
pub use inline_vec::InlineVec;
pub use prefetch::{PrefetchBuf, PrefetchConfig, StridePrefetcher, MAX_PREFETCH_DEGREE};
pub use set_assoc::{AccessKind, LookupResult, SetAssocCache};
pub use stats::CacheStats;
