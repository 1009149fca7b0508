//! # The layered ledger
//!
//! One benchmark for the Jade reproduction: seven workloads from
//! dispatch grain to the paper's applications, measured end to end
//! (binary `e2e`, stable surface only) and layer by layer (binary
//! `layers`, which may reach into engine, queue, wire and cluster
//! APIs). See `README.md` beside this package for every workload,
//! metric and bound.
//!
//! The library holds what both binaries and the tests share and uses
//! only the surface a Jade user programs against.

pub mod baseline;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
