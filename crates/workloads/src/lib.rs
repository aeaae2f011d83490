#![forbid(unsafe_code)]
//! Synthetic application and datacenter workload models.
//!
//! The paper evaluates 14 applications from SPEC2006, NAS, Mantevo and
//! STREAM, each characterised by its LLC MPKI and memory footprint
//! (Table II), run in *rate mode* — 12 copies of the same application,
//! one per core. No benchmark binaries exist in this reproduction, so
//! [`AppSpec`] captures exactly the properties the experiments depend on
//! (footprint, memory intensity, spatial/temporal locality) and
//! [`AppStream`] turns a spec into a deterministic instruction stream for
//! the CPU model.
//!
//! The datacenter free-space study of Figure 3 is modelled by
//! [`schedule::DatacenterSchedule`], a sequential arrival/departure
//! sequence over the same applications.
//!
//! # Example
//!
//! ```
//! use chameleon_workloads::{AppSpec, AppStream};
//! use chameleon_cpu::InstructionStream;
//!
//! let spec = AppSpec::by_name("mcf").unwrap();
//! let mut stream = AppStream::new(&spec.scaled(64), 10_000, 42);
//! let mut ops = 0;
//! while stream.next_op().is_some() {
//!     ops += 1;
//! }
//! assert!(ops > 0);
//! ```

mod app;
pub mod decode;
pub mod schedule;
mod stream;
pub mod synth;
pub mod trace;

pub use app::{AppSpec, Suite};
pub use decode::Bernoulli;
pub use stream::AppStream;
pub use synth::{LoopConfig, LoopStream, ZipfConfig, ZipfStream};
