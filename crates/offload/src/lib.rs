//! # arbalest-offload
//!
//! A from-scratch, simulated OpenMP-style *target offloading* runtime.
//!
//! This crate is the substrate for the ARBALEST reproduction: it provides
//! everything the paper's tool assumes from the LLVM OpenMP runtime and the
//! OMPT interface, implemented the same way ARBALEST itself ran — with the
//! host acting as a *virtual accelerator*: compute kernels execute on CPU
//! threads, device memory is a logical address space, and memory transfers
//! are word-wise copies between address spaces.
//!
//! The pieces:
//!
//! * [`mem::AddressSpace`] — paged, atomically-accessed logical memories,
//!   one per device, with bump allocation, optional red zones, and live
//!   block tracking (so tool models can reason about heap blocks).
//! * [`mapping`] — the OpenMP data environment: `map` clauses with the
//!   exact Table I reference-counting semantics, array sections,
//!   `target update`, and the present table.
//! * [`runtime::Runtime`] — `target`, `target data`, `target enter/exit
//!   data`, `nowait` asynchronous kernels with `depend` edges and
//!   `taskwait`, kernel teams (`par_for`), and a unified-memory mode.
//! * [`events`] — the OMPT-analogue: a [`events::Tool`] callback interface
//!   receiving every construct event, data operation, transfer, and tracked
//!   memory access. All detectors (ARBALEST and the four baseline models)
//!   consume this one stream.
//!
//! ## Quick taste
//!
//! ```
//! use arbalest_offload::prelude::*;
//!
//! let rt = Runtime::new(Config::default());
//! let a = rt.alloc::<f64>("a", 8);
//! for i in 0..8 { rt.write(&a, i, i as f64); }
//! rt.target().map(Map::tofrom(&a)).run(move |k| {
//!     k.for_each(0..8, |k, i| {
//!         let v = k.read(&a, i);
//!         k.write(&a, i, v * 2.0);
//!     });
//! });
//! assert_eq!(rt.read(&a, 3), 6.0);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod buffer;
pub mod error;
pub mod events;
pub mod fault;
pub mod json;
pub mod mapping;
pub mod mem;
pub mod report;
pub mod runtime;
pub mod scalar;
pub mod sections;
mod team;
pub mod trace;
pub mod wire;

pub mod prelude {
    //! Convenient glob import for programs written against the runtime.
    pub use crate::addr::DeviceId;
    pub use crate::buffer::{Buffer, BufferId};
    pub use crate::error::RuntimeError;
    pub use crate::events::{
        AccessEvent, ConstructEvent, DataOpEvent, DataOpKind, SyncEvent, TaskId, Tool,
        TransferEvent, TransferKind,
    };
    pub use crate::fault::{FaultConfig, FaultOutcome, FaultSite};
    pub use crate::mapping::{Map, MapType};
    pub use crate::report::{Effect, Report, ReportKind};
    pub use crate::runtime::{Config, Depend, KernelCtx, Runtime, TaskHandle};
    pub use crate::scalar::Scalar;
}
