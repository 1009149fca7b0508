//! The dispatch gate: where the thread pool's dispatch meets the wire.
//!
//! The coordinator keeps the dependency engine, object store and
//! closure bodies; the gate decides per task how the body's effects
//! happen:
//!
//! 1. **Ship the body.** A task created with `withonly_ir` carries a
//!    portable kernel program over its declared footprint. If the
//!    coordinator's registry knows every kernel and every accessed
//!    object lowers to the IR's flat `f64` domain, the gate lowers the
//!    inputs, ships whatever the chosen worker's replica cache is
//!    missing, and blocks for the [`TaskResult`](crate::wire::NetMsg);
//!    the returned outputs are lifted into the store and the pool
//!    settles the task with no closure run ([`Admission::Remote`]).
//!    Worker death mid-task re-dispatches to a survivor (bounded by
//!    `max_task_attempts`); with the dispatch budget or the worker
//!    pool exhausted the closure runs here instead, and the
//!    degradation is recorded in
//!    [`FaultStats`](jade_core::stats::FaultStats) rather than raised
//!    as an error.
//! 2. **Run the closure here.** A task that cannot be shipped for
//!    static reasons — no IR at all, an unknown kernel, an object type
//!    with no registered lowering — is [`Admission::Local`] at once,
//!    with no wire traffic and no degradation count: that is a program
//!    shape, not a fault.

use std::sync::Arc;

use jade_core::ids::ObjectId;
use jade_core::ir::TaskBodyIr;
use jade_threads::{Admission, AdmitRequest, DispatchGate, EventSink};

use crate::cluster::{RemoteOutcome, Shared};
use crate::wire::MAX_TASK_DECLS;

/// [`DispatchGate`] implementation backed by a [`Shared`] cluster.
pub struct ShipGate {
    shared: Arc<Shared>,
}

impl ShipGate {
    /// Gate dispatches through the given cluster.
    pub fn new(shared: Arc<Shared>) -> Self {
        ShipGate { shared }
    }

    /// Try to execute the task's portable body on a worker.
    /// `Some(admission)` settles the dispatch; `None` means the task
    /// is not shippable (or the attempt must not be retried) and the
    /// closure runs here.
    fn admit_ir(&self, req: &AdmitRequest<'_>, ir: &TaskBodyIr) -> Option<Admission> {
        let sh = &self.shared;
        if !sh.can_ship(ir.kernel_names()) {
            // The registry cannot express this program; the closure is
            // the only rendering. Not a fault.
            return None;
        }
        let read_idx = ir.read_decls();
        let write_idx = ir.written_decls();
        if req.decls.len() > MAX_TASK_DECLS
            || read_idx.iter().chain(write_idx.iter()).any(|&d| d as usize >= req.decls.len())
        {
            // The spec is wider than a worker accepts, or the program
            // names a declaration the spec never made (the closure
            // path will surface whatever is actually wrong).
            return None;
        }

        // Lower the footprint out of the store. Written objects are
        // lowered too: it proves their types can round-trip *before*
        // anything is mutated, and the pre-images double as an undo
        // log should a lift fail halfway.
        let mut reads: Vec<(u32, u64, Vec<f64>)> = Vec::with_capacity(read_idx.len());
        let mut writes: Vec<(u32, u64)> = Vec::with_capacity(write_idx.len());
        let mut undo: Vec<(u32, u64, Vec<f64>)> = Vec::with_capacity(write_idx.len());
        {
            let store = req.store.read();
            for &d in &read_idx {
                let obj = req.decls[d as usize].object;
                let data = store.get(obj).ok()?.lower()?;
                reads.push((d, obj.0, data));
            }
            for &d in &write_idx {
                let obj = req.decls[d as usize].object;
                let pre = store.get(obj).ok()?.lower()?;
                undo.push((d, obj.0, pre));
                writes.push((d, obj.0));
            }
        }
        // The store lock is released across the network wait: sibling
        // tasks keep creating objects and taking guards. The engine
        // already serialized every conflicting access to this
        // footprint, so nobody mutates it while we block.

        match sh.run_task_remote(req.task.0, ir, &reads, &writes) {
            RemoteOutcome::Done(results) => {
                let store = req.store.read();
                let mut lifted = 0usize;
                let clean = results.iter().all(|(d, data)| {
                    let ok = req
                        .decls
                        .get(*d as usize)
                        .and_then(|decl| store.get(decl.object).ok())
                        .is_some_and(|slot| slot.lift(data));
                    if ok {
                        lifted += 1;
                    }
                    ok
                });
                if clean && lifted == writes.len() {
                    return Some(Admission::Remote);
                }
                // A lift failed (the program produced a shape its
                // object cannot absorb) or the worker skipped an
                // output: restore the pre-images so the closure reruns
                // against unmutated state.
                for (d, _, pre) in &undo {
                    if let Some(decl) = req.decls.get(*d as usize) {
                        if let Ok(slot) = store.get(decl.object) {
                            slot.lift(pre);
                        }
                    }
                }
                None
            }
            // Deterministic worker-side failure: rerunning elsewhere
            // cannot help, and the closure is the canonical rendering
            // — let it raise the canonical fault (or succeed, if only
            // the IR was wrong).
            RemoteOutcome::Failed(_) => None,
            RemoteOutcome::Exhausted => {
                sh.bump_degraded();
                Some(Admission::Local)
            }
            RemoteOutcome::Aborted => Some(Admission::Refused),
        }
    }
}

impl DispatchGate for ShipGate {
    fn admit(&self, req: &AdmitRequest<'_>) -> Admission {
        req.ir.and_then(|ir| self.admit_ir(req, ir)).unwrap_or(Admission::Local)
    }

    fn abort(&self) {
        self.shared.abort();
    }

    fn note_write(&self, object: ObjectId) {
        self.shared.note_local_write(object.0);
    }

    fn attach_events(&self, sink: EventSink) {
        self.shared.attach_events(sink);
    }
}
