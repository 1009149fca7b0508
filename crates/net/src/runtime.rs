//! [`NetExecutor`]: the [`Runtime`] implementation over a worker
//! cluster.
//!
//! The executor reuses the jade-threads pool for the dependency
//! engine, object store and task bodies — the same executor skeleton
//! the shared-memory and simulated backends use — and gates every
//! dispatch through [`crate::gate`]: portable task bodies ship to
//! workers whole, closure-only tasks run on the coordinator. The gate
//! reports liveness (joins, heartbeat misses, losses, reassignments)
//! into the pool's event stream as it happens, so observers and the
//! timeline see the network's hiccups in order with the tasks they
//! delayed, whether the run finishes or faults. After the run, the
//! cluster's aggregate [`NetStats`](jade_core::stats::NetStats) and
//! [`FaultStats`](jade_core::stats::FaultStats) land in the
//! [`Report`].
//!
//! All per-job state — the kernel registry, the replica directory,
//! the cluster itself — lives in the job's own [`Cluster`], so a
//! [`Session`](jade_core::serve::Session) over this backend runs
//! concurrent jobs like any other: there is no process-global state
//! to cross wires on.

use std::sync::Arc;

use jade_core::error::JadeFault;
use jade_core::ids::TaskId;
use jade_core::kernels::KernelRegistry;
use jade_core::runtime::{Report, RunConfig, Runtime};
use jade_threads::{ThreadCtx, ThreadedExecutor};

use crate::cluster::{Cluster, NetConfig};
use crate::gate::ShipGate;

/// The distributed backend: a coordinator (this process) plus
/// `cfg.workers` worker machines over real sockets.
#[derive(Debug, Default, Clone)]
pub struct NetExecutor {
    cfg: NetConfig,
}

impl NetExecutor {
    /// An executor over the given cluster configuration.
    pub fn new(cfg: NetConfig) -> Self {
        NetExecutor { cfg }
    }

    /// `n` thread-mode workers with default tuning.
    pub fn with_workers(n: usize) -> Self {
        NetExecutor { cfg: NetConfig::threads(n) }
    }

    /// Replace the kernel registry shipped tasks (and thread-mode
    /// workers) execute against, builder-style.
    pub fn with_registry(mut self, registry: KernelRegistry) -> Self {
        self.cfg.registry = registry;
        self
    }
}

impl Runtime for NetExecutor {
    type Ctx = ThreadCtx;

    fn run_job<R, F>(&self, cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut Self::Ctx) -> R + Send + 'static,
    {
        let cluster = Cluster::start(self.cfg.clone()).map_err(|e| JadeFault::TaskPanicked {
            task: TaskId::ROOT,
            message: format!("net backend startup failed: {e}"),
        })?;
        let lanes = cfg.workers.unwrap_or(self.cfg.workers).max(1);
        let pool =
            ThreadedExecutor::new(lanes).with_gate(Arc::new(ShipGate::new(cluster.shared.clone())));
        let result = pool.run_job(cfg, program);
        let (net, faults) = cluster.shutdown();
        result.map(|mut rep| {
            rep.net = Some(net);
            rep.faults = Some(faults);
            rep
        })
    }
}
