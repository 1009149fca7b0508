//! # jade-sim — the heterogeneous message-passing Jade implementation
//!
//! A deterministic discrete-event simulation of the environments the
//! paper ran on — the Stanford DASH, the Intel iPSC/860, the Mica
//! Ethernet array of SPARC ELCs, heterogeneous networks of Suns and
//! DECstations, and the HRV video workstation — together with the
//! distributed Jade runtime that executes unmodified Jade programs on
//! them: object migration/replication with typed format conversion,
//! dynamic load balancing, the locality heuristic, latency hiding and
//! task throttling (paper §5).
//!
//! Task bodies are real Rust closures computing real values: the
//! simulation's *results* are bit-identical to the serial elision (the
//! determinism tests assert this), while its *timing* comes from the
//! platform models. This is what lets the benchmark harness regenerate
//! the shape of the paper's Figures 9 and 10 on a laptop.
//!
//! ```
//! use jade_core::prelude::*;
//! use jade_sim::{Platform, SimExecutor};
//!
//! let exec = SimExecutor::new(Platform::mica(4));
//! let (v, report) = exec.run(|ctx| {
//!     let xs: Vec<Shared<f64>> = (0..8).map(|i| ctx.create(i as f64)).collect();
//!     for &x in &xs {
//!         ctx.withonly("square", |s| { s.rd_wr(x); }, move |c| {
//!             c.charge(1e5); // simulated work units
//!             let v = *c.rd(&x);
//!             *c.wr(&x) = v * v;
//!         });
//!     }
//!     xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
//! });
//! assert_eq!(v, (0..8).map(|i| (i * i) as f64).sum::<f64>());
//! assert!(report.time > jade_sim::SimTime::ZERO);
//! ```
//!
//! `run` is shorthand for the uniform entry point
//! [`jade_core::runtime::Runtime::execute`] with the default
//! [`RunConfig`](jade_core::runtime::RunConfig), which is where
//! throttling, artifacts (timeline, task graph) and
//! observers are requested; the full [`SimReport`] rides in
//! [`Report::extras`](jade_core::runtime::Report::extras). A run's
//! event stream renders as the paper's Figure 7 with [`narrative()`].
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

pub mod event;
pub mod faults;
pub mod machine;
pub mod narrative;
pub mod network;
pub mod objmgr;
pub mod platform;
pub(crate) mod proc;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod time;

pub use faults::{CrashSpec, FaultPlan, FaultStats, SlowdownWindow};
pub use machine::MachineSpec;
pub use narrative::narrative;
pub use network::NetStats;
pub use objmgr::Granularity;
pub use platform::{NetworkKind, Platform};
pub use report::{ObjTraffic, SimReport};
pub use runtime::{SimCtx, SimExecutor};
pub use time::{SimSpan, SimTime};

// The spec-builder surface, identical in jade-threads and jade-sim.
pub use jade_core::runtime::{CancelSignal, Report, RunConfig, Runtime};
pub use jade_core::spec::{ContBuilder, SpecBuilder};

// The job-submission surface, identical in every backend crate.
pub use jade_core::serve::{
    DrainSummary, JobHandle, JobId, JobReport, JobStatus, ServeConfig, Session, SubmitError,
};
pub use jade_core::stats::ServeStats;
