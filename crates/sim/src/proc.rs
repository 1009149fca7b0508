//! Task processes: running real Rust task bodies under simulated time.
//!
//! Task bodies are ordinary closures (the same closures the serial and
//! threaded executors run), so the simulation computes *real data
//! values* — determinism tests compare them bitwise against the serial
//! elision. Each *started* task runs on its own OS thread, but the
//! simulator enforces strict alternation: exactly one thread (either
//! the event loop or a single task process) runs at any moment,
//! synchronized by rendezvous channels. The event loop *steps* a task
//! by sending it a response and blocking until the task's next
//! request. This makes the simulation fully deterministic while
//! letting task bodies block mid-execution (`with-cont`, ceded
//! accesses) exactly like the paper's tasks do.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel::{bounded, Receiver, Sender};
use jade_core::error::JadeError;
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::spec::{ContOp, Declaration};
use jade_core::store::Slot;

/// A task body as shipped to the simulator.
pub type SimBody = Box<dyn FnOnce(&mut crate::runtime::SimCtx) + Send + 'static>;

/// Requests a task process sends to the event loop.
pub enum ProcReq {
    /// Account compute work (advances the machine's clock).
    Charge(f64),
    /// `withonly`: create a child task.
    Withonly {
        /// Task label for traces.
        label: String,
        /// Built declarations.
        decls: Vec<Declaration>,
        /// Placement request.
        placement: Placement,
        /// The child's body.
        body: SimBody,
    },
    /// `with-cont`: update the access specification.
    WithCont(Vec<(ObjectId, ContOp)>),
    /// Checked access to an object; the loop replies with the local
    /// version's slot once the access is enabled and resident.
    Access {
        /// Object to access.
        object: ObjectId,
        /// Read or write.
        kind: jade_core::spec::AccessKind,
    },
    /// Allocate a shared object (the slot carries the initial value).
    CreateObject {
        /// Debug name.
        name: String,
        /// Initial local version.
        slot: Slot,
    },
    /// Body returned normally.
    Done,
    /// Body panicked; the message describes the panic. When the panic
    /// was raised by `jade_core::ctx::violation`, the typed error is
    /// recovered from the proc thread's thread-local and carried
    /// alongside so the loop can surface a typed `JadeFault`.
    Panicked {
        /// The panic payload rendered as text.
        message: String,
        /// The typed violation, when the panic came from `violation`.
        violation: Option<JadeError>,
    },
}

impl std::fmt::Debug for ProcReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcReq::Charge(w) => write!(f, "Charge({w})"),
            ProcReq::Withonly { label, .. } => write!(f, "Withonly({label})"),
            ProcReq::WithCont(ops) => write!(f, "WithCont({} ops)", ops.len()),
            ProcReq::Access { object, kind } => write!(f, "Access({object}, {kind})"),
            ProcReq::CreateObject { name, .. } => write!(f, "CreateObject({name})"),
            ProcReq::Done => write!(f, "Done"),
            ProcReq::Panicked { message, .. } => write!(f, "Panicked({message})"),
        }
    }
}

/// Responses the event loop sends to a task process.
pub enum ProcResp {
    /// Continue (charge elapsed, child created, with-cont satisfied).
    Proceed,
    /// The requested object's local version.
    Object(Slot),
    /// The new object's id.
    Created(ObjectId),
    /// A programming-model violation; the ctx panics with it.
    Violation(JadeError),
}

impl std::fmt::Debug for ProcResp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcResp::Proceed => write!(f, "Proceed"),
            ProcResp::Object(_) => write!(f, "Object"),
            ProcResp::Created(o) => write!(f, "Created({o})"),
            ProcResp::Violation(e) => write!(f, "Violation({e})"),
        }
    }
}

/// The event-loop side of one task process.
pub struct ProcHandle {
    req_rx: Receiver<ProcReq>,
    resp_tx: Sender<ProcResp>,
    _join: std::thread::JoinHandle<()>,
}

impl ProcHandle {
    /// Send a response to the task and block until its next request —
    /// the strict-alternation step that keeps the simulation
    /// deterministic.
    pub fn step(&self, resp: ProcResp) -> ProcReq {
        self.resp_tx
            .send(resp)
            .expect("task process hung up before its Done/Panicked request");
        self.req_rx.recv().unwrap_or_else(|_| ProcReq::Panicked {
            message: "task process vanished".to_string(),
            violation: None,
        })
    }
}

/// Channel set a [`crate::runtime::SimCtx`] uses to talk to the loop.
pub struct ProcChannels {
    /// Send requests to the event loop.
    pub req_tx: Sender<ProcReq>,
    /// Receive responses from the event loop.
    pub resp_rx: Receiver<ProcResp>,
}

/// Spawn a task process. The returned handle is parked until the loop
/// performs its first [`ProcHandle::step`] (which delivers
/// `ProcResp::Proceed` and waits for the body's first request).
pub fn spawn_proc(
    task: TaskId,
    machines: usize,
    body: SimBody,
) -> ProcHandle {
    // Rendezvous-ish channels: capacity 1 is enough since alternation
    // guarantees at most one message in flight per direction.
    let (req_tx, req_rx) = bounded::<ProcReq>(1);
    let (resp_tx, resp_rx) = bounded::<ProcResp>(1);
    let join = std::thread::Builder::new()
        .name(format!("jade-sim-{task}"))
        .stack_size(1 << 20)
        .spawn(move || {
            let chans = ProcChannels { req_tx: req_tx.clone(), resp_rx };
            let mut ctx = crate::runtime::SimCtx::new(task, machines, chans);
            // Wait for the loop's go signal.
            match ctx.wait_go() {
                Ok(()) => {}
                Err(()) => return,
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
            let msg = match outcome {
                Ok(()) => {
                    if ctx.holds_any() {
                        ProcReq::Panicked {
                            message: format!(
                                "task {task} completed while still holding an access guard"
                            ),
                            violation: Some(JadeError::GuardLeaked { task }),
                        }
                    } else {
                        ProcReq::Done
                    }
                }
                Err(p) => {
                    let (message, violation) = jade_core::ctx::classify_panic(p.as_ref());
                    ProcReq::Panicked { message, violation }
                }
            };
            let _ = req_tx.send(msg);
        })
        .expect("spawn task process");
    ProcHandle { req_rx, resp_tx, _join: join }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_step_done_handshake() {
        let h = spawn_proc(TaskId(1), 1, Box::new(|_ctx| {}));
        // First step delivers Proceed; an empty body immediately Done-s.
        match h.step(ProcResp::Proceed) {
            ProcReq::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn panicking_body_reports() {
        let h = spawn_proc(TaskId(2), 1, Box::new(|_ctx| panic!("boom {}", 42)));
        match h.step(ProcResp::Proceed) {
            ProcReq::Panicked { message, violation } => {
                assert!(message.contains("boom 42"));
                assert!(violation.is_none(), "plain panic carries no violation");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn charge_roundtrip() {
        let h = spawn_proc(
            TaskId(3),
            1,
            Box::new(|ctx| {
                use jade_core::ctx::JadeCtx;
                ctx.charge(5.0);
            }),
        );
        match h.step(ProcResp::Proceed) {
            ProcReq::Charge(w) => assert_eq!(w, 5.0),
            other => panic!("expected Charge, got {other:?}"),
        }
        match h.step(ProcResp::Proceed) {
            ProcReq::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
    }
}
