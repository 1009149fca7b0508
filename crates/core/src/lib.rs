//! # jade-core — the Jade programming model and dependency engine
//!
//! This crate implements the heart of the SC '92 paper *Heterogeneous
//! Parallel Programming in Jade* (Rinard, Scales, Lam): an implicitly
//! parallel programming model in which a sequential, imperative
//! program is augmented with *access specifications* describing how
//! each task reads and writes *shared objects*, and a runtime extracts
//! the concurrency automatically while preserving the program's serial
//! semantics.
//!
//! The crate provides:
//!
//! * the language surface — [`Shared<T>`](handle::Shared) handles,
//!   [`SpecBuilder`](spec::SpecBuilder) (`rd`/`wr`/`rd_wr`/`df_rd`/
//!   `df_wr`), [`ContBuilder`](spec::ContBuilder) (`to_rd`/`to_wr`/
//!   `no_rd`/`no_wr`), and the [`JadeCtx`](ctx::JadeCtx) trait with
//!   `withonly` and `with_cont`;
//! * the dependency engine — per-object serial-order declaration
//!   queues ([`queue`]) under the one task state machine ([`engine`])
//!   that decides which tasks may run, on every backend; [`graph`]
//!   holds its vocabulary and its single-owner handle;
//! * dynamic access checking (guards in [`ctx`], checks in
//!   [`engine::ShardedEngine::check_access`]);
//! * type-erased object storage with heterogeneous marshalling
//!   ([`store`]), built on `jade-transport`;
//! * the serial elision executor ([`serial`]) — the reference
//!   semantics — plus trace capture ([`trace`]) and statistics
//!   ([`stats`]).
//!
//! Parallel executors live in sibling crates: `jade-threads` (shared
//! memory) and `jade-sim` (heterogeneous message passing, simulated).
//!
//! ## A tiny Jade program
//!
//! ```
//! use jade_core::prelude::*;
//!
//! fn program<C: JadeCtx>(ctx: &mut C) -> f64 {
//!     let a = ctx.create_named("a", 1.0f64);
//!     let b = ctx.create_named("b", 2.0f64);
//!     // Two independent writers: Jade runs them concurrently.
//!     ctx.withonly("double-a", |s| { s.rd_wr(a); }, move |c| {
//!         *c.wr(&a) *= 2.0;
//!     });
//!     ctx.withonly("triple-b", |s| { s.rd_wr(b); }, move |c| {
//!         *c.wr(&b) *= 3.0;
//!     });
//!     // The main program reads the results, implicitly waiting.
//!     let r = *ctx.rd(&a) + *ctx.rd(&b);
//!     r
//! }
//!
//! let (result, stats) = jade_core::serial::run(program);
//! assert_eq!(result, 8.0);
//! assert_eq!(stats.tasks_created, 2);
//! ```

#![cfg_attr(test, deny(deprecated))]

pub mod ctx;
pub mod error;
#[macro_use]
pub mod macros;
pub mod engine;
pub mod fasthash;
pub mod graph;
pub mod handle;
pub mod ids;
pub mod ir;
pub mod kernels;
pub mod observe;
pub mod parts;
pub mod place;
pub mod queue;
pub mod readyq;
pub mod runtime;
pub mod serial;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod store;
pub mod sync;
pub mod trace;

/// Convenient glob-import for writing Jade programs.
pub mod prelude {
    pub use crate::ctx::{JadeCtx, ReadGuard, WriteGuard};
    pub use crate::error::{JadeError, JadeFault};
    pub use crate::handle::{Object, Shared};
    pub use crate::ids::{DeviceClass, MachineId, ObjectId, Placement, TaskId};
    pub use crate::ir::{IrDst, IrSrc, IrStep, TaskBodyIr};
    pub use crate::kernels::{KernelFn, KernelRegistry};
    pub use crate::observe::{Event, EventCollector, EventKind, RuntimeObserver};
    pub use crate::parts::PartedVec;
    pub use crate::runtime::{CancelSignal, Report, RunConfig, Runtime, Throttle};
    pub use crate::serve::{JobHandle, JobId, JobStatus, ServeConfig, Session, SubmitError};
    pub use crate::spec::{AccessKind, ContBuilder, SpecBuilder};
    pub use crate::stats::{FaultStats, NetStats, RuntimeStats, ServeStats};
}
