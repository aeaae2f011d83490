#![forbid(unsafe_code)]
//! CHAMELEON: a dynamically reconfigurable heterogeneous memory system.
//!
//! This crate implements the paper's contribution and all the hardware
//! memory-organisation baselines it is evaluated against:
//!
//! * [`policy::HmaPolicy`] — the interface every heterogeneous-memory
//!   architecture implements: service a demand access, receive
//!   `ISA-Alloc`/`ISA-Free` notifications from the OS, report statistics.
//! * [`RemapPolicy`] — one segment-restricted remapping table (SRRT)
//!   and swap datapath, in the [`Flavor`] of each architecture built on
//!   it:
//!   - [`Flavor::Pom`] — the hardware-managed Part-of-Memory baseline
//!     (Sim et al., MICRO'14) with a competing-counter swap policy; over
//!     [`HmaConfig::with_cameo_segments`] (64-byte segments) it is the
//!     CAMEO-style organisation;
//!   - [`Flavor::Chameleon`] — the paper's contribution: basic Chameleon
//!     (stacked free space becomes cache) and Chameleon-Opt (proactive
//!     remapping converts *any* free space into stacked cache space);
//!   - [`Flavor::Polymorphic`] — the Polymorphic-Memory patent baseline
//!     (Figure 22): free stacked space as cache, but no hot-data
//!     swapping.
//! * [`AlloyPolicy`] — the latency-optimised direct-mapped DRAM cache
//!   (Qureshi & Loh).
//! * [`UnisonPolicy`] — Unison-Cache (Jevdjic et al.): page-granularity
//!   DRAM cache with footprint prediction and a tag buffer.
//! * [`MemCachePolicy`] — hot-filtered hybrid (after Bakhshalipour et
//!   al.): only proven-hot pages enter the stacked cache.
//! * [`ChFlexPolicy`] — consistent-hashing resizable cache (after Chang
//!   et al.): OS allocations shrink the cache, frees grow it, with
//!   minimal remapping on each capacity change.
//! * [`FlatPolicy`] — homogeneous off-chip-only baselines.
//! * [`StaticNumaPolicy`] — a fixed stacked/off-chip NUMA mapping with
//!   no hardware remapping: the substrate of the OS-managed first-touch,
//!   AutoNUMA and guided-placement systems.
//!
//! # Example
//!
//! ```
//! use chameleon_core::{policy::HmaPolicy, Flavor, HmaConfig, RemapPolicy};
//! use chameleon_os::isa::IsaHook;
//!
//! let cfg = HmaConfig::scaled_laptop();
//! let mut hma = RemapPolicy::new(cfg.clone(), Flavor::Chameleon { opt: true });
//! // The OS allocates the first two segments...
//! hma.isa_alloc(0, cfg.segment.bytes() * 2, 0);
//! // ...and the CPU reads from the first one.
//! let latency = hma.access(64, false, 1_000);
//! assert!(latency > 0);
//! ```

mod alloy;
mod chflex;
mod config;
mod devices;
pub mod encoding;
mod flat;
mod memcache;
mod page_index;
pub mod policy;
mod remap;
mod srrt;
mod stats;
mod unison;

pub use alloy::AlloyPolicy;
pub use chflex::{ChFlexPolicy, HashRing};
pub use config::HmaConfig;
pub use devices::HmaDevices;
pub use flat::{FlatPolicy, StaticNumaPolicy};
pub use memcache::MemCachePolicy;
pub use policy::{HmaPolicy, ModeDistribution};
pub use remap::{Flavor, RemapPolicy};
pub use srrt::{Mode, SegmentGroupTable, SrrtEntry, MAX_SLOTS};
pub use stats::HmaStats;
pub use unison::{FootprintPredictor, UnisonPolicy};
