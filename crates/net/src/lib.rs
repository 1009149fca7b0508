//! # jade-net — the crash-tolerant multi-process Jade backend
//!
//! The paper's implementation ran one Jade program across a
//! heterogeneous collection of *machines* connected by a network,
//! with PVM carrying typed messages between them. This crate is that
//! configuration made real (and made crash-tolerant): one
//! **coordinator** process owns the dependency engine, object store
//! and closure bodies, and N **worker** machines — OS processes
//! running the `jade-net-worker` binary, or in-process threads in
//! tests — execute shipped task bodies over Unix-domain or TCP
//! sockets. A worker is used in exactly one way: a task's portable
//! body and the objects it declares are sent to it, converted to its
//! data format on the way, and its written objects come back.
//!
//! The moving parts, bottom-up:
//!
//! * [`wire`] — the protocol messages, marshalled per-machine with
//!   `jade-transport` [`DataLayout`](jade_transport::DataLayout)s
//!   (workers rotate through the paper's machine presets, so every
//!   run crosses byte orders) and framed by `jade_transport::frame`,
//!   each written once: the stream socket is the reliable transport;
//! * [`directory`] — the coordinator's replica directory: which worker
//!   holds which object payload at which version, with
//!   write-invalidation and dead-worker eviction; feeds the shared
//!   locality placement policy ([`jade_core::place`]);
//! * [`cluster`] — coordinator-side worker lifecycle: heartbeat
//!   liveness, death detection (EOF or socket error, heartbeat loss),
//!   and the one dispatch state machine — ship a task, wait for its
//!   result, re-ship on worker death;
//! * [`gate`] — plugs cluster dispatch into the jade-threads executor
//!   skeleton: ships portable task bodies (with their object
//!   payloads) to workers; a closure-only task runs on the
//!   coordinator with no wire traffic;
//! * [`NetExecutor`] — the [`Runtime`](jade_core::runtime::Runtime)
//!   entry point: same `execute(RunConfig)` surface as every other
//!   backend, with [`NetStats`](jade_core::stats::NetStats) and
//!   [`FaultStats`](jade_core::stats::FaultStats) in the report.
//!
//! ## Failure model
//!
//! Workers may die (`SIGKILL`) or hang at any point, and a link may
//! fail as a whole, but a stream socket never loses a single frame.
//! The coordinator detects death, re-ships in-flight task bodies to
//! survivors (bounded re-execution — kernels must be deterministic),
//! and with no survivors degrades to running each task's closure
//! coordinator-locally. A completed run reports what happened through
//! `Report::{net, faults}`; unrecoverable states surface as typed
//! [`JadeFault`](jade_core::error::JadeFault)s, never panics.

#![cfg_attr(test, deny(deprecated))]

pub mod cluster;
pub mod directory;
pub mod gate;
pub mod sock;
pub mod wire;
pub mod worker;

mod runtime;

pub use cluster::{Cluster, NetConfig, PlacementPolicy, Shared, Transport, WorkerMode};
pub use directory::Directory;
pub use gate::ShipGate;
pub use jade_core::kernels::KernelRegistry;
pub use runtime::NetExecutor;
pub use worker::{run_worker, worker_main, Chaos, Die, WorkerOpts};

// The spec-builder and job-submission surfaces, identical in every
// backend crate.
pub use jade_core::runtime::{CancelSignal, Report, RunConfig, Runtime};
pub use jade_core::serve::{
    DrainSummary, JobHandle, JobId, JobReport, JobStatus, ServeConfig, Session, SubmitError,
};
pub use jade_core::spec::{ContBuilder, SpecBuilder};
pub use jade_core::stats::ServeStats;
