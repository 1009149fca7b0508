//! # jade-threads — the shared-memory Jade implementation
//!
//! Executes Jade programs on a pool of real OS threads sharing one
//! address space, the way the paper's implementation ran on the SGI
//! 4D/240S and the Stanford DASH (§7). The hardware (here: the Rust
//! memory model plus one `RwLock` per object) provides the shared
//! address space, so this executor "only needs to synchronize the
//! computation" (§1): it drives the sharded
//! [`jade_core::engine::ShardedEngine`] dependency engine and
//! schedules ready tasks onto workers through per-worker
//! work-stealing deques ([`StealQueue`]).
//!
//! Implemented runtime policies from §5:
//!
//! * **Dynamic load balancing** — per-worker work-stealing deques plus
//!   a global injector; a worker that enables a task keeps it local,
//!   placement hints route tasks to a specific worker's deque, and any
//!   idle worker steals from its peers, so every ready task gets
//!   picked up.
//! * **Matching exploited with available concurrency** — optional task
//!   creation throttling (`RunConfig::with_throttle`, [`Throttle`]):
//!   suspend the main program while too many tasks are outstanding.
//!   Deadlock-free because the serial semantics guarantees a task
//!   never waits on a *later* task (§3.3).
//! * **Suspended tasks release their processor** — when a task blocks
//!   (a `with-cont` conversion or a ceded access), the executor borrows
//!   a compensation worker if ready tasks would otherwise starve, so
//!   the effective parallelism stays at the configured width.
//! * **Threads are created once, not per run**, as the paper's
//!   shared-memory implementation created its processes once: a
//!   [`ThreadedExecutor`] and its clones keep the OS threads their runs
//!   borrow for pool lanes and compensation workers; they exit when
//!   the last clone drops.
//!
//! Programs run through the uniform entry point
//! [`jade_core::runtime::Runtime::execute`] with a
//! [`RunConfig`](jade_core::runtime::RunConfig); the report carries
//! the result, statistics and any requested artifacts:
//!
//! ```
//! use jade_core::prelude::*;
//! use jade_threads::ThreadedExecutor;
//!
//! let exec = ThreadedExecutor::new(4);
//! let report = exec
//!     .execute(RunConfig::new(), |ctx| {
//!         let parts: Vec<Shared<f64>> = (0..8).map(|i| ctx.create(i as f64)).collect();
//!         for &p in &parts {
//!             ctx.withonly("square", |s| { s.rd_wr(p); }, move |c| {
//!                 let v = *c.rd(&p);
//!                 *c.wr(&p) = v * v;
//!             });
//!         }
//!         parts.iter().map(|p| *ctx.rd(p)).sum::<f64>()
//!     })
//!     .expect("clean run");
//! assert_eq!(report.result, (0..8).map(|i| (i * i) as f64).sum());
//! assert_eq!(report.stats.tasks_created, 8);
//! ```
//!
//! ## Access specifications
//!
//! Task specifications use the shared builders from `jade_core::spec`,
//! re-exported here so both frontends present the identical surface:
//! [`SpecBuilder`] with `rd`/`wr`/`rd_wr` (immediate declarations),
//! `df_rd`/`df_wr` (deferred declarations), and [`ContBuilder`] with
//! `to_rd`/`to_wr` (convert deferred to immediate) and `no_rd`/`no_wr`
//! (retire a declaration early).

#![cfg_attr(test, deny(deprecated))]

mod executor;
mod steal;

pub use executor::{
    Admission, AdmitRequest, DispatchGate, EventSink, ThreadCtx, ThreadedExecutor, Throttle,
};
pub use steal::StealQueue;

// The spec-builder surface, identical in jade-threads and jade-sim.
pub use jade_core::runtime::{CancelSignal, Report, RunConfig, Runtime};
pub use jade_core::spec::{ContBuilder, SpecBuilder};

// The job-submission surface, identical in every backend crate: apps
// need exactly one import path per backend to run as a server.
pub use jade_core::serve::{
    DrainSummary, JobHandle, JobId, JobReport, JobStatus, ServeConfig, Session, SubmitError,
};
pub use jade_core::stats::ServeStats;
