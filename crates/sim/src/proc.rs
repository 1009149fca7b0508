//! Task processes: running real Rust task bodies under simulated time.
//!
//! Task bodies are ordinary closures (the same closures the serial and
//! threaded executors run), so the simulation computes *real data
//! values* — determinism tests compare them bitwise against the serial
//! elision. A body may block mid-execution (`with-cont`, ceded
//! accesses, a `charge`) exactly like the paper's tasks do, so every
//! body that has begun and not returned owns the stack of an OS thread
//! — a *context thread*. The simulator enforces strict alternation:
//! exactly one thread runs at any moment, which keeps the simulation
//! fully deterministic.
//!
//! The event loop has no thread of its own. It lives behind one
//! uncontended lock ([`Sim::lp`]) and **whichever thread is running
//! carries it**: a body's request is interpreted on the body's own
//! thread ([`Host::request`] → `Loop::carry`), so a request answered at
//! the current virtual time costs no thread switch. A request that
//! must wait in virtual time makes that thread pump the event queue
//! itself; it returns straight into its body when its own resumption
//! comes up and hands the loop on ([`Next::HandOff`], one one-way
//! switch) only when *another* context's body has to run. A thread
//! whose body returned keeps carrying the loop and runs the next body
//! to begin in place; when it has to give the loop away it idles, and
//! a beginning body that finds the current thread occupied takes the
//! most recently idled thread, else a new one. A run therefore creates
//! about as many threads as it ever has begun-and-unfinished bodies,
//! all of them joined before [`run`] returns.
//!
//! **Interpretation order is unchanged by who carries the loop.** A
//! resumption the pump finds at its top level (`Resume`, the last
//! fetch arriving) is in tail position: nothing of the event's handler
//! remains to run after the body, so the loop may migrate with it. A
//! resumption found *inside* a handler (a wake applied in the middle
//! of a `withonly` or a task's completion, the throttled main program
//! released by `check_throttle`) is not: the handler's remainder must
//! run after the woken body blocks again. There the thread that is
//! mid-handler keeps the loop and steps the woken body synchronously
//! ([`Threads::step`], [`Cue::Step`]): that body sends its requests
//! back until one has to wait. Both paths go through the one
//! `Loop::interpret`, in the order a dedicated loop thread would have
//! taken them, so every `observe::Event`, the virtual makespan and
//! every message count are those of that loop. (Task *ids* name slab
//! slots of the thread that created them and are not part of that
//! order; `golden_schedule.rs` canonicalises them.)

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use jade_core::ctx::{classify_panic, HoldSet};
use jade_core::error::JadeError;
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::spec::{AccessKind, ContOp, Declaration};
use jade_core::store::Slot;
use jade_core::sync::Mutex;

use crate::runtime::{Loop, SimCtx};

/// A task body as shipped to the simulator.
pub(crate) type SimBody = Box<dyn FnOnce(&mut SimCtx) + Send + 'static>;

/// What a task body asks of the event loop.
pub(crate) enum ProcReq {
    /// Account compute work (advances the machine's clock).
    Charge(f64),
    /// `withonly`: create a child task.
    Withonly { label: String, decls: Vec<Declaration>, placement: Placement, body: SimBody },
    /// `with-cont`: update the access specification.
    WithCont(Vec<(ObjectId, ContOp)>),
    /// Checked access to an object; the loop replies with the local
    /// version's slot once the access is enabled and resident.
    Access { object: ObjectId, kind: AccessKind },
    /// Allocate a shared object (the slot carries the initial value).
    CreateObject(Slot),
    /// Body returned normally.
    Done,
    /// Body panicked; the message describes the panic. When the panic
    /// was raised by `jade_core::ctx::violation`, the typed error is
    /// recovered from the context thread's thread-local and carried
    /// alongside so the loop can surface a typed `JadeFault`.
    Panicked { message: String, violation: Option<JadeError> },
}

/// The event loop's answer to a request.
#[derive(Debug)]
pub(crate) enum ProcResp {
    /// Continue (charge elapsed, child created, with-cont satisfied).
    Proceed,
    /// The requested object's local version.
    Object(Slot),
    /// The new object's id.
    Created(ObjectId),
    /// A programming-model violation; the ctx panics with it.
    Violation(JadeError),
}

/// What a parked context thread is woken with.
pub(crate) enum Cue {
    /// The answer to its body's pending request, and the loop with it:
    /// the thread interprets its body's next request itself.
    Carry(ProcResp),
    /// The answer to its body's pending request from a thread that is
    /// mid-handler and keeps the loop: the next request goes back to it.
    Step(ProcResp),
    /// A body to begin, and the loop with it.
    Start(TaskId, SimBody),
    /// The run is over: an idle thread exits, a suspended body unwinds.
    Exit,
}

/// Where a context thread receives its [`Cue`].
pub(crate) type Seat = SyncSender<Cue>;

/// What a thread does once it has let go of the loop's lock.
pub(crate) enum Next {
    /// Go on at once.
    Here(Cue),
    /// Cue that thread with the loop, then park.
    HandOff(Seat, Cue),
    /// Report the end of the run, then park until released.
    Finished,
}

/// Unwind payload that releases a suspended body at the end of a run;
/// raised with `resume_unwind`, so no panic hook runs.
pub(crate) struct Released;

/// One run's shared state: the event loop behind its lock, and the two
/// channels that do not travel with it.
pub(crate) struct Sim {
    /// The event loop; held by the one thread that is interpreting.
    pub(crate) lp: Mutex<Loop>,
    /// Machine count of the platform (`JadeCtx::machines`).
    pub(crate) machines: usize,
    /// A stepped body's next request, to the thread that is mid-handler.
    step_tx: SyncSender<ProcReq>,
    /// The end of the run, to the thread inside [`run`]: `None`, or
    /// the payload of a panic in the loop's own code.
    done_tx: SyncSender<Option<Box<dyn Any + Send>>>,
}

/// The loop's side of the run's context threads.
pub(crate) struct Threads {
    all: Vec<(Seat, JoinHandle<()>)>,
    /// OS threads the run created.
    pub(crate) created: u64,
    /// Parked threads without a body, most recently idled last.
    pub(crate) idle: Vec<Seat>,
    step_rx: Receiver<ProcReq>,
    /// One-way OS-thread switches the run made: one per hand-off of
    /// the loop, two (there and back) per nested step.
    pub(crate) switches: u64,
}

impl Threads {
    /// A thread for a body that begins while the current thread is
    /// occupied: the most recently idled one, else a new one.
    pub(crate) fn free(&mut self, sim: &Arc<Sim>) -> Seat {
        self.idle.pop().unwrap_or_else(|| {
            let (seat, rx) = sync_channel(1);
            let host =
                Host { sim: sim.clone(), seat: seat.clone(), rx, stepped: false, in_loop: false };
            // 1 MiB for the body as ever, and as much again for the
            // loop's handlers, which now run on top of it.
            let join = std::thread::Builder::new()
                .name(format!("jade-sim-ctx{}", self.created))
                .stack_size(2 << 20)
                .spawn(move || host.run())
                .expect("spawn context thread");
            self.all.push((seat.clone(), join));
            self.created += 1;
            seat
        })
    }

    /// Answer the parked body at `seat` from inside a handler and wait
    /// for its next request — the loop stays with the calling thread.
    pub(crate) fn step(&mut self, seat: &Seat, resp: ProcResp) -> ProcReq {
        self.switches += 2;
        seat.send(Cue::Step(resp)).expect("a suspended body's thread is parked");
        self.step_rx.recv().expect("a stepped body sends its next request")
    }
}

/// A context thread's own side: its seat, whether its body is
/// currently being stepped by another thread, and whether it is inside
/// the loop's code (a panic there is the loop's, not the body's).
pub(crate) struct Host {
    pub(crate) sim: Arc<Sim>,
    pub(crate) seat: Seat,
    rx: Receiver<Cue>,
    stepped: bool,
    in_loop: bool,
}

impl Host {
    /// Put `task`'s request to the event loop — carried on this thread
    /// unless the body is being stepped — and return what this thread
    /// does next: the answer, a new body, or the end of the run.
    pub(crate) fn request(&mut self, task: TaskId, req: ProcReq) -> Cue {
        if self.stepped {
            self.sim.step_tx.send(req).expect("the stepping thread awaits this request");
            return self.park();
        }
        self.in_loop = true;
        let next = {
            // The lock is released before anyone is woken.
            let mut lp = self.sim.lp.lock();
            lp.carry(task, req, self)
        };
        self.in_loop = false;
        match next {
            Next::Here(cue) => return cue,
            Next::HandOff(seat, cue) => {
                seat.send(cue).expect("a context thread outlives the run's last hand-off")
            }
            Next::Finished => {
                let _ = self.sim.done_tx.send(None);
            }
        }
        self.park()
    }

    /// Wait for another thread's cue; it says who interprets this
    /// thread's next request.
    fn park(&mut self) -> Cue {
        let cue = self.rx.recv().unwrap_or(Cue::Exit);
        self.stepped = matches!(cue, Cue::Step(_));
        cue
    }

    /// A context thread's life: run each body it is handed to its end,
    /// carrying the loop in between, until the run is over.
    fn run(self) {
        let sim = self.sim.clone();
        let mut host = self;
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let mut cue = host.park();
            while let Cue::Start(task, body) = cue {
                // A body that swallowed a violation panic must not lend
                // its typed error to the next body on this thread.
                let _ = classify_panic(&());
                let mut ctx = SimCtx { task, host, holds: HoldSet::new() };
                let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                host = ctx.host;
                let req = match outcome {
                    Ok(()) if ctx.holds.any_held() => ProcReq::Panicked {
                        message: format!(
                            "task {task} completed while still holding an access guard"
                        ),
                        violation: Some(JadeError::GuardLeaked { task }),
                    },
                    Ok(()) => ProcReq::Done,
                    Err(p) if p.is::<Released>() => return,
                    Err(p) if host.in_loop => resume_unwind(p),
                    Err(p) => {
                        let (message, violation) = classify_panic(p.as_ref());
                        ProcReq::Panicked { message, violation }
                    }
                };
                cue = host.request(task, req);
            }
        }));
        // Only the loop's own code can panic out here (bodies are
        // caught above): hand the payload to the caller of `run`.
        if let Err(payload) = crashed {
            let _ = sim.done_tx.send(Some(payload));
        }
    }
}

/// Run `root` as the main program of `make_loop`'s event loop and block
/// until the run is over — finished, faulted or cancelled — and every
/// context thread has been released and joined; returns the loop. A
/// panic in the loop's own code resumes on the calling thread.
pub(crate) fn run(machines: usize, make_loop: impl FnOnce(Threads) -> Loop, root: SimBody) -> Loop {
    let (step_tx, step_rx) = sync_channel(1);
    let (done_tx, done_rx) = sync_channel(1);
    let threads = Threads { all: Vec::new(), created: 0, idle: Vec::new(), step_rx, switches: 0 };
    let sim = Arc::new(Sim { lp: Mutex::new(make_loop(threads)), machines, step_tx, done_tx });
    let first = sim.lp.lock().begin(&sim);
    first.send(Cue::Start(TaskId::ROOT, root)).expect("the first context thread is parked");
    let end = done_rx.recv().expect("the thread that ends the run reports it");
    // Every surviving context thread is parked now: the one that
    // reported parks next, the others were parked when it ran.
    let all = std::mem::take(&mut sim.lp.lock().threads.all);
    for (seat, _) in &all {
        let _ = seat.send(Cue::Exit);
    }
    for (_, join) in all {
        let _ = join.join();
    }
    if let Some(payload) = end {
        resume_unwind(payload);
    }
    let sim = Arc::try_unwrap(sim).ok().expect("every context thread has exited");
    sim.lp.into_inner()
}
