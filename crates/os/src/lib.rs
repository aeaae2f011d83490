#![forbid(unsafe_code)]
//! Operating-system model for the Chameleon heterogeneous memory system.
//!
//! Implements the software half of the paper's hardware–software co-design:
//!
//! * a per-node buddy [`frame::BuddyAllocator`] over physical frames,
//! * the [`SegmentGeometry`] that tiles the physical address space into
//!   the paper's segment groups, shared by the hardware policies and the
//!   OS-side [`ledger::GroupLedger`],
//! * per-process [`page_table::PageTable`]s with demand paging and an
//!   SSD-backed swap (100K-cycle page faults, Table I),
//! * the [`isa::IsaHook`] trait carrying `ISA-Alloc` / `ISA-Free`
//!   notifications from the allocator/reclaimer to the memory controller
//!   (Algorithms 1 and 2 of the paper),
//! * NUMA policies for the OS-managed comparisons: the first-touch
//!   allocator and [`numa::AutoNuma`] balancing (Section III-A), and the
//!   [`guidance::GuidanceEngine`] tier, whose hints are page migrations.
//!
//! # Example
//!
//! ```
//! use chameleon_os::{MemoryMap, OsConfig, OsKernel, isa::RecordingHook};
//! use chameleon_simkit::mem::ByteSize;
//!
//! let map = MemoryMap::new(ByteSize::mib(4), ByteSize::mib(20));
//! let mut os = OsKernel::new(OsConfig::default(), map);
//! let mut hook = RecordingHook::default();
//! let pid = os.spawn(ByteSize::mib(1));
//! let touch = os.touch(pid, 0x0, true, 0, &mut hook).unwrap();
//! assert!(touch.fault.is_some(), "first touch demand-allocates");
//! assert!(!hook.allocs.is_empty(), "allocation reported via ISA-Alloc");
//! ```

pub mod buffer_cache;
pub mod frame;
mod geometry;
pub mod guidance;
pub mod isa;
pub mod kernel;
pub mod ledger;
pub mod numa;
pub mod page_table;
pub mod stats;
pub mod swap;

pub use frame::{BuddyAllocator, MemoryMap, NodeId, NodePreference};
pub use geometry::{SegLoc, SegmentGeometry};
pub use kernel::{
    FaultKind, HintOutcome, OsConfig, OsError, OsKernel, Pid, PlacementHint, TouchOutcome,
    Visibility,
};
pub use stats::OsStats;
