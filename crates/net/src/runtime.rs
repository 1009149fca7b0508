//! [`NetExecutor`]: the [`Runtime`] implementation over a worker
//! cluster.
//!
//! The executor reuses the jade-threads pool for the dependency
//! engine, object store and task bodies — the same executor skeleton
//! the shared-memory and simulated backends use — and gates every
//! dispatch through [`crate::gate`]: portable task bodies ship to
//! workers whole, closure-only tasks run on the coordinator. After the
//! run, the cluster's aggregate
//! [`NetStats`](jade_core::stats::NetStats) and
//! [`FaultStats`](jade_core::stats::FaultStats) land in the
//! [`Report`], liveness events are replayed to user observers, and
//! heartbeat/reconnect markers are stamped onto the timeline so a
//! Chrome trace shows exactly where the network stalled.
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
use jade_core::observe::{Event, EventKind, RuntimeObserver};
use jade_core::runtime::{Report, RunConfig, Runtime};
use jade_threads::{ThreadCtx, ThreadedExecutor};
use parking_lot::Mutex;

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

    /// The cluster configuration this executor will start.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }
}

/// Tee wrapper: lets the coordinator keep a handle on observers that
/// were moved into the pool, so post-run liveness events still reach
/// them.
struct SharedObs(Arc<Mutex<Box<dyn RuntimeObserver + Send>>>);

impl RuntimeObserver for SharedObs {
    fn on_event(&mut self, ev: &Event) {
        self.0.lock().on_event(ev);
    }
}

/// Timeline marker text for a liveness event (matches the labels the
/// in-band `TimelineObserver` would produce).
fn net_marker(ev: &Event) -> Option<(usize, String)> {
    match ev.kind {
        EventKind::WorkerJoined { worker } => Some((worker, format!("worker {worker} joined"))),
        EventKind::HeartbeatMiss { worker, missed } => {
            Some((worker, format!("heartbeat miss #{missed} (worker {worker})")))
        }
        EventKind::WorkerLost { worker, in_flight } => {
            Some((worker, format!("worker {worker} lost ({in_flight} in flight)")))
        }
        EventKind::TaskReassigned { from, to } => {
            Some((to, format!("task reassigned {from}\u{2192}{to}")))
        }
        _ => None,
    }
}

impl Runtime for NetExecutor {
    type Ctx = ThreadCtx;

    fn run_job<R, F>(&self, mut cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut Self::Ctx) -> R + Send + 'static,
    {
        // Tee user observers so liveness events recorded by the
        // cluster threads can be replayed to them after the run.
        let tees: Vec<Arc<Mutex<Box<dyn RuntimeObserver + Send>>>> =
            cfg.observers.drain(..).map(|o| Arc::new(Mutex::new(o))).collect();
        for t in &tees {
            cfg.observers.push(Box::new(SharedObs(t.clone())));
        }

        let cluster = Cluster::start(self.cfg.clone()).map_err(|e| JadeFault::TaskPanicked {
            task: TaskId::ROOT,
            message: format!("net backend startup failed: {e}"),
        })?;
        let shared = cluster.shared.clone();

        let lanes = cfg.workers.unwrap_or(self.cfg.workers).max(1);
        let pool = ThreadedExecutor::new(lanes).with_gate(Arc::new(ShipGate::new(shared)));
        let result = pool.run_job(cfg, program);

        let (net, faults, events) = cluster.shutdown();
        match result {
            Ok(mut rep) => {
                rep.net = Some(net);
                rep.faults = Some(faults);
                for ev in &events {
                    for t in &tees {
                        t.lock().on_event(ev);
                    }
                }
                if let Some(tl) = rep.timeline.as_mut() {
                    for ev in &events {
                        if let Some((worker, label)) = net_marker(ev) {
                            tl.push_marker(ev.nanos, worker, label);
                        }
                    }
                }
                Ok(rep)
            }
            Err(fault) => Err(fault),
        }
    }
}
