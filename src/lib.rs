#![forbid(unsafe_code)]
//! # Chameleon
//!
//! A full reproduction of *CHAMELEON: A Dynamically Reconfigurable
//! Heterogeneous Memory System* (Kotra et al., MICRO 2018) as a Rust
//! library, including every substrate the paper's evaluation depends on:
//!
//! * a bank/bus-level DRAM timing model ([`dram`]),
//! * a three-level SRAM cache hierarchy ([`cache`]),
//! * a multi-core processor model with bounded MLP ([`cpu`]),
//! * an OS model with demand paging, swap, `ISA-Alloc`/`ISA-Free`
//!   instrumentation and NUMA policies ([`os`]),
//! * the Chameleon/Chameleon-Opt architectures and all baselines
//!   ([`core_policies`]): PoM, CAMEO-style and Polymorphic Memory are
//!   flavors of the one SRRT policy that also runs Chameleon
//!   (`RemapPolicy`), beside Alloy Cache, Unison, MemCache, CH-Flex,
//!   static NUMA and flat DDR,
//! * synthetic Table II workloads ([`workloads`]).
//!
//! This facade crate wires them into a runnable [`System`] and re-exports
//! the public API of every sub-crate.
//!
//! ## Quickstart
//!
//! ```
//! use chameleon::{Architecture, ScaledParams, System};
//!
//! // A small system: Chameleon-Opt with two cores.
//! let params = ScaledParams::tiny();
//! let mut system = System::new(Architecture::ChameleonOpt, &params);
//! let streams = system.spawn_rate_workload("mcf", 20_000, 7).unwrap();
//! system.prefault_all().unwrap();
//! system.reset_measurement();
//! let report = system.run(streams);
//! assert!(report.run.geomean_ipc() > 0.0);
//! ```

mod arch;
mod params;
mod system;

pub use arch::Architecture;
pub use params::ScaledParams;
pub use system::{System, SystemReport};

pub use chameleon_cache as cache;
pub use chameleon_core as core_policies;
pub use chameleon_cpu as cpu;
pub use chameleon_dram as dram;
pub use chameleon_os as os;
pub use chameleon_simkit as simkit;
pub use chameleon_workloads as workloads;
