//! The distributed Jade runtime over the discrete-event simulator.
//!
//! [`SimExecutor`] executes an unmodified Jade program on a simulated
//! heterogeneous message-passing platform, implementing the runtime
//! responsibilities the paper lists in §5:
//!
//! * **Parallel execution** — the dependency engine every backend
//!   runs (`jade_core::engine::ShardedEngine`, owned by the event loop
//!   through its [`DepGraph`] handle) decides which tasks may run;
//!   ready tasks are distributed over machines. A task's id is a slab
//!   slot and goes stale when the task finishes, so the loop asks the
//!   engine about a task only while it is unfinished.
//! * **Object management** — the [`ObjDirectory`] moves/copies object
//!   versions; every transfer passes through the typed transport with
//!   the sender's data layout, so heterogeneous runs exercise format
//!   conversion on real bytes.
//! * **Dynamic load balancing & locality** — see [`crate::sched`].
//! * **Latency hiding** — ready tasks are assigned to machines up to a
//!   configurable lookahead; their object fetches proceed while the
//!   machine executes other tasks (Figure 7(f)).
//! * **Throttling** — `RunConfig::throttle` watermarks suspend the
//!   main program while too many tasks are outstanding.
//!
//! Every transition is reported once, as a `jade_core::observe` event
//! to the run's hub; [`crate::narrative()`] renders the stream as the
//! paper's Figure 7.
//!
//! The loop follows each task as one record (`SimTask`), from its
//! creation to its finish: its body or the thread that runs it, its
//! machine, the fetches it waits for, what it is blocked on and its
//! crash re-executions. Nothing of a task outlives its finish, and the
//! run's work is done when no record is left.
//!
//! Each machine's CPU is a preemptive, time-sliced run queue (compute
//! bursts execute in quanta; runtime work such as task creation and
//! dispatch is prioritized). Any number of *suspended* tasks may be
//! resident on a machine — a task blocked in a `with-cont` releases
//! the CPU, which is what lets the pipelined back-substitution of
//! §4.2 overlap with the factorization.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

use jade_core::ctx::{child_spec, violation, HoldSet, JadeCtx, ReadGuard, WriteGuard};
use jade_core::error::JadeFault;
use jade_core::fasthash::FastMap;
use jade_core::graph::{AccessStatus, DepGraph, Wake};
use jade_core::handle::{Object, Shared};
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::observe::{Event as ObsEvent, EventKind as ObsKind, ObserverHub, Timeline};
use jade_core::runtime::{CancelSignal, Report, RunConfig, Runtime, Throttle};
use jade_core::spec::{AccessKind, ContBuilder, ContOp, DeclRights, DeclState, SpecBuilder};
use jade_core::store::{ObjectStore, Slot};
use jade_core::sync::OwnedRwLock;
use jade_core::trace::TaskGraphTrace;
use jade_transport::message::HEADER_WIRE_BYTES;
use jade_transport::{PortDecoder, PortEncoder};

use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultInjector, FaultPlan, FaultStats};
use crate::network::Network;
use crate::objmgr::{Granularity, ObjDirectory, CTRL_BYTES};
use crate::platform::Platform;
use crate::proc::{self, Cue, Host, Next, ProcReq, ProcResp, Seat, Sim, SimBody, Threads};
use crate::report::{ObjTraffic, SimReport};
use crate::sched::{choose, eligible, Candidate};
use crate::time::{SimSpan, SimTime};

/// Wire size of a shipped task descriptor (id, spec, closure token).
const DESC_BYTES: usize = 256;

/// A task's declarations as the engine reports them: object and rights.
type Decls = Vec<(ObjectId, DeclRights)>;

/// Entry point: a simulated platform and the runtime policies the
/// ablations vary. Everything that belongs to one run — throttle,
/// artifacts, observers, cancellation — is the [`RunConfig`]'s.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    /// The platform to simulate.
    platform: Platform,
    /// Enable the locality heuristic (§5). Ablation A1.
    locality: bool,
    /// Tasks (beyond the one executing) that may be assigned to a
    /// machine so their fetches overlap execution (§5 latency hiding,
    /// Figure 7(f)). 0 disables prefetching. Ablation A2.
    lookahead: usize,
    /// Coherence granularity: Jade objects, or the page-DSM baseline
    /// of §6.1 (experiment B-DSM).
    granularity: Granularity,
    /// Deterministic fault injection: seeded message delay spikes,
    /// transient machine crashes (the tasks queued there re-execute
    /// elsewhere), slowdown windows. Every message is delivered.
    /// `None` = fault-free.
    faults: Option<FaultPlan>,
}

impl SimExecutor {
    /// Executor for `platform` with the defaults: locality on,
    /// lookahead 2, object granularity, fault-free.
    pub fn new(platform: Platform) -> Self {
        SimExecutor {
            platform,
            locality: true,
            lookahead: 2,
            granularity: Granularity::Object,
            faults: None,
        }
    }

    /// Toggle the locality heuristic.
    pub fn locality(mut self, on: bool) -> Self {
        self.locality = on;
        self
    }

    /// Set the per-machine assignment lookahead (latency hiding).
    pub fn lookahead(mut self, n: usize) -> Self {
        self.lookahead = n;
        self
    }

    /// Use the page-DSM baseline coherence granularity.
    pub fn granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Inject the given deterministic fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// [`Runtime::execute`] with the default [`RunConfig`], split into
    /// the program's result and the [`SimReport`]; panics on a fault.
    pub fn run<R, F>(&self, program: F) -> (R, SimReport)
    where
        R: Send + 'static,
        F: FnOnce(&mut SimCtx) -> R + Send + 'static,
    {
        let rep = self.execute(RunConfig::new(), program).unwrap_or_else(|fault| panic!("{fault}"));
        let sim = rep.extra::<SimReport>().expect("run_job attaches a SimReport").clone();
        (rep.result, sim)
    }
}

#[derive(Debug)]
enum BlockedOp {
    /// Engine said MustWait on an access; retry residency after wake.
    AccessWait { object: ObjectId, kind: AccessKind },
    /// Access granted; waiting for the object to arrive.
    AccessFetch { object: ObjectId },
    /// Engine said MustWait inside a with-cont.
    ContWait { converted: Vec<(ObjectId, AccessKind)> },
    /// with-cont granted; waiting for converted objects to arrive.
    ContFetch,
    /// Creator suspended by the throttle watermarks.
    Throttle,
}

/// A live task: the one record the loop keeps of it besides the
/// engine's. Inserted when a `withonly` creates the task (the main
/// program's at [`Loop::begin`]), removed when it finishes.
struct SimTask {
    /// The body until the task begins, the thread it runs on after.
    ctx: TaskCtx,
    /// Whether its machine has started it; the body begins at the
    /// `Resume` that ends the dispatch overhead.
    started: bool,
    /// The machine it is queued or runs on, once assigned.
    machine: Option<usize>,
    /// The machine its descriptor travels from: its creator's, or that
    /// of the queue the load balancer stole it from.
    from: usize,
    /// Fetches in flight that it waits for.
    fetches: usize,
    /// Fetches in flight for an assignment a crash revoked; their
    /// arrivals are swallowed instead of waking anyone.
    stale: usize,
    /// What its suspended body waits for.
    blocked: Option<BlockedOp>,
    /// Re-executions under crash recovery.
    attempts: u32,
}

/// Where a task's body is: not begun yet, or on a context thread.
enum TaskCtx {
    Body(SimBody),
    Seat(Seat),
}

impl SimTask {
    fn new(ctx: TaskCtx, from: usize) -> Self {
        SimTask {
            ctx,
            started: false,
            machine: None,
            from,
            fetches: 0,
            stale: 0,
            blocked: None,
            attempts: 0,
        }
    }
}

/// One simulated machine's dynamic state. The CPU is a time-sliced
/// run queue: compute bursts execute in quanta so that short runtime
/// operations (task creation, dispatch) are not starved behind long
/// application charges — modelling a preemptive 1992 Unix scheduler.
struct Mach {
    runq: VecDeque<(TaskId, f64)>,
    active: Option<(TaskId, f64)>,
    busy: SimSpan,
    load: i64,
    /// Started, unfinished, unblocked tasks (the machine executes one
    /// task context at a time, like a real Jade node; queued tasks
    /// stay stealable until started).
    running: i64,
    pending: VecDeque<TaskId>,
}

/// Scheduling quantum of the simulated machines' CPUs.
const QUANTUM_SECS: f64 = 0.01;

/// The event loop's state. It has no thread of its own: whichever
/// context thread is running carries it (see [`crate::proc`]).
pub(crate) struct Loop {
    cfg: SimExecutor,
    throttle: Throttle,
    now: SimTime,
    events: EventQueue,
    engine: DepGraph,
    net: Network,
    mach: Vec<Mach>,
    stores: Vec<ObjectStore>,
    dir: ObjDirectory,
    /// Every created, unfinished task; the run's work is done when
    /// this is empty.
    tasks: FastMap<TaskId, SimTask>,
    pub(crate) threads: Threads,
    /// Enabled tasks not yet placed on a machine, in enable order, each
    /// with the placement it requested.
    ready_pool: VecDeque<(TaskId, Placement)>,
    /// `schedule_assignments`' per-scan buffers, kept between scans:
    /// the placements made (with the declarations read to make them)
    /// and the load they add per machine.
    picks: Vec<(TaskId, usize, Decls)>,
    picked_load: Vec<i64>,
    /// Ready-pool entries whose candidate machines a scan computed.
    placement_probes: u64,
    /// Set when wake application queued ready tasks; the event loop
    /// flushes it with one `schedule_assignments` pass per iteration,
    /// so a burst of same-tick wakes is coalesced into one placement
    /// scan instead of one per wake wave.
    dispatch_pending: bool,
    traffic: ObjTraffic,
    /// Why the event loop stopped early: a task panicked (possibly a
    /// typed programming-model violation), scheduling became
    /// impossible, or `cancel` tripped.
    fault: Option<JadeFault>,
    /// External cooperative cancellation, polled once per event-loop
    /// iteration (the simulator's natural task boundary).
    cancel: Option<CancelSignal>,
    hub: ObserverHub,
    injector: Option<FaultInjector>,
    /// Per-machine end of the current outage (ZERO = never crashed).
    down_until: Vec<SimTime>,
    /// Tasks started per machine — the crash-arming clock.
    starts: Vec<u64>,
    fstats: FaultStats,
}

impl Loop {
    /// Run `root_body` as the main program under `run`'s throttle,
    /// trace, cancellation and observer options. A loop that stopped
    /// early surfaces its typed fault (a panic of the main program
    /// itself resumes unwinding, exactly like an un-Jade program
    /// would); the hub has seen every event either way.
    fn execute(
        cfg: SimExecutor,
        mut run: RunConfig,
        root_body: SimBody,
    ) -> Result<(SimReport, Option<TaskGraphTrace>, Option<Timeline>), JadeFault> {
        let n = cfg.platform.len();
        assert!(n > 0, "platform needs at least one machine");
        let mut engine = DepGraph::new();
        if run.trace {
            engine.enable_trace();
        }
        let mut lp = proc::run(
            n,
            |threads| Loop {
                throttle: run.throttle,
                now: SimTime::ZERO,
                events: EventQueue::new(),
                engine,
                net: Network::new(cfg.platform.network, n),
                mach: (0..n)
                    .map(|_| Mach {
                        runq: VecDeque::new(),
                        active: None,
                        busy: SimSpan::ZERO,
                        load: 0,
                        running: 0,
                        pending: VecDeque::new(),
                    })
                    .collect(),
                stores: (0..n).map(|_| ObjectStore::new()).collect(),
                dir: ObjDirectory::new(cfg.granularity),
                tasks: FastMap::default(),
                threads,
                ready_pool: VecDeque::new(),
                picks: Vec::new(),
                picked_load: Vec::new(),
                placement_probes: 0,
                dispatch_pending: false,
                traffic: ObjTraffic::default(),
                fault: None,
                cancel: run.cancel.take(),
                injector: cfg.faults.clone().map(FaultInjector::new),
                down_until: vec![SimTime::ZERO; n],
                starts: vec![0; n],
                fstats: FaultStats::default(),
                hub: run.take_hub(),
                cfg,
            },
            root_body,
        );
        let report = lp.report();
        let hub = std::mem::replace(&mut lp.hub, ObserverHub::inactive());
        let timeline = hub.finish(report.time.0.max(1));
        match lp.fault.take() {
            None => Ok((report, lp.engine.take_trace(), timeline)),
            Some(JadeFault::TaskPanicked { task: TaskId::ROOT, message }) => {
                resume_unwind(Box::new(message))
            }
            Some(fault) => Err(fault),
        }
    }

    /// The main program is the root task on machine 0; returns the
    /// seat of the first context thread, where its body is to start.
    pub(crate) fn begin(&mut self, sim: &Arc<Sim>) -> Seat {
        self.mach[0].load += 1;
        self.mach[0].running += 1;
        let seat = self.threads.free(sim);
        let root = SimTask::new(TaskCtx::Seat(seat.clone()), 0);
        self.tasks.insert(TaskId::ROOT, SimTask { started: true, machine: Some(0), ..root });
        seat
    }

    /// Interpret `req` of the body running on `host`'s thread and, if
    /// it cannot be answered at the current virtual time, carry the
    /// loop on that thread until there is something for it to do.
    pub(crate) fn carry(&mut self, task: TaskId, req: ProcReq, host: &Host) -> Next {
        let last = matches!(req, ProcReq::Done | ProcReq::Panicked { .. });
        match self.interpret(task, req) {
            Some(resp) if self.fault.is_none() => Next::Here(Cue::Carry(resp)),
            _ => self.pump((!last).then_some(task), host),
        }
    }

    /// Process events on `host`'s thread, whose body `me` (if it has
    /// one) is suspended in a request, until a body has to run: its own
    /// (return into it), another context's (hand the loop over), or one
    /// that begins (in place if this thread is free) — or the run ends.
    fn pump(&mut self, me: Option<TaskId>, host: &Host) -> Next {
        loop {
            // One placement scan per event (or body segment), however
            // many wake waves it produced.
            self.flush_dispatch();
            if self.tasks.is_empty() {
                return Next::Finished;
            }
            if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                self.fault.get_or_insert(JadeFault::Cancelled { task: TaskId::ROOT });
            }
            if self.fault.is_some() {
                return Next::Finished;
            }
            let Some((t, ev)) = self.events.pop() else {
                panic!(
                    "jade-sim: simulation stalled with {} unfinished task(s) \
                     — this indicates a runtime bug",
                    self.tasks.len()
                );
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            // A resumption of a body is in tail position in every
            // handler below that makes one, so it is made after the
            // match, on the thread that body lives on.
            let resumed = match ev {
                EventKind::Resume(tid) => self
                    .tasks
                    .get(&tid)
                    .is_some_and(|e| e.started)
                    .then_some((tid, ProcResp::Proceed)),
                EventKind::FetchArrive { task, .. } => {
                    // Fetches started for an assignment a crash later
                    // revoked still arrive, perhaps after the task
                    // finished; swallow them.
                    let Some(e) = self.tasks.get_mut(&task) else { continue };
                    if e.stale > 0 {
                        e.stale -= 1;
                        continue;
                    }
                    e.fetches = e.fetches.checked_sub(1).expect("an arriving fetch is counted");
                    if e.fetches > 0 {
                        continue;
                    }
                    self.on_fetches_done(task)
                }
                EventKind::TryStart(m) => {
                    self.try_start(m);
                    None
                }
                EventKind::SliceDone(m) => {
                    self.on_slice_done(m);
                    None
                }
                EventKind::Rejoin(m) => {
                    self.observe(TaskId::ROOT, ObsKind::WorkerJoined { worker: m });
                    // Ready tasks that found no surviving candidate
                    // can place now, and the machine may start work.
                    self.schedule_assignments();
                    self.events.push(self.now, EventKind::TryStart(m));
                    None
                }
            };
            let Some((tid, resp)) = resumed else { continue };
            if me == Some(tid) {
                return Next::Here(Cue::Carry(resp));
            }
            let (seat, cue) = match &self.tasks[&tid].ctx {
                TaskCtx::Seat(seat) => (seat.clone(), Cue::Carry(resp)),
                // The body begins: here if this thread is free.
                TaskCtx::Body(_) => {
                    let seat = match me {
                        None => host.seat.clone(),
                        Some(_) => self.threads.free(&host.sim),
                    };
                    let ctx =
                        std::mem::replace(&mut self.task(tid).ctx, TaskCtx::Seat(seat.clone()));
                    let TaskCtx::Body(body) = ctx else { unreachable!("the body was just seen") };
                    if me.is_none() {
                        return Next::Here(Cue::Start(tid, body));
                    }
                    (seat, Cue::Start(tid, body))
                }
            };
            if me.is_none() {
                self.threads.idle.push(host.seat.clone());
            }
            self.threads.switches += 1;
            return Next::HandOff(seat, cue);
        }
    }

    /// What the run reports, once it is over.
    fn report(&self) -> SimReport {
        SimReport {
            platform: self.cfg.platform.name.clone(),
            machines: self.cfg.platform.len(),
            time: self.now,
            stats: self.engine.stats(),
            net: self.net.stats(),
            traffic: self.traffic,
            faults: self.fstats,
            busy: self.mach.iter().map(|m| m.busy).collect(),
            host_threads: self.threads.created,
            host_switches: self.threads.switches,
            placement_probes: self.placement_probes,
        }
    }

    /// `object`'s version on `m`, for a granted access with no fetch in flight.
    fn resident(&self, m: usize, object: ObjectId) -> Slot {
        self.stores[m].get(object).expect("a granted, fetched access finds its version").clone()
    }

    fn task(&mut self, t: TaskId) -> &mut SimTask {
        self.tasks.get_mut(&t).expect("a task is looked up while it is live")
    }

    fn machine_of(&self, t: TaskId) -> usize {
        self.tasks[&t].machine.expect("a task is asked for its machine once assigned")
    }

    /// Deliver one lifecycle event to the observer hub at the current
    /// simulated time (no-op when no observer is installed).
    fn observe(&mut self, task: TaskId, kind: ObsKind) {
        if self.hub.is_active() {
            self.hub.emit(ObsEvent { nanos: self.now.0, task, kind });
        }
    }

    /// Whether `m` is inside a crash outage at the current time.
    fn is_down(&self, m: usize) -> bool {
        self.now < self.down_until[m]
    }

    // ------------------------------------------------------------------
    // Message delivery and fault injection
    // ------------------------------------------------------------------

    /// Send `bytes` from `src` to `dst`, no earlier than `t`: one
    /// network transfer, which a fault plan's seeded delay spike may
    /// make arrive late. Messages to or from a machine in a crash
    /// outage wait for its rejoin (the recovery protocol replays them).
    /// Returns the arrival time.
    fn send(&mut self, t: SimTime, src: usize, dst: usize, bytes: usize) -> SimTime {
        let base = t.max(self.down_until[src]).max(self.down_until[dst]);
        let mut arrival = self.net.transfer(base, src, dst, bytes);
        if let Some(spike) = self.injector.as_mut().and_then(FaultInjector::roll_spike) {
            arrival += spike;
        }
        if self.hub.is_active() {
            // Message traffic is runtime-level work, attributed to the
            // root task; the machine pair rides in the payload.
            let b = bytes as u64;
            self.hub.emit(ObsEvent {
                nanos: base.0,
                task: TaskId::ROOT,
                kind: ObsKind::MessageSend { from: src, to: dst, bytes: b },
            });
            self.hub.emit(ObsEvent {
                nanos: arrival.0,
                task: TaskId::ROOT,
                kind: ObsKind::MessageRecv { from: src, to: dst, bytes: b },
            });
        }
        arrival
    }

    /// Fire an armed transient crash of `m` if it is at a clean task
    /// boundary (no live task contexts). Returns whether it fired.
    fn maybe_crash(&mut self, m: usize) -> bool {
        let Some(inj) = &mut self.injector else { return false };
        let Some(idx) = inj.armed_crash(m, self.starts[m]) else { return false };
        // Only crash between tasks: a consumed FnOnce body cannot be
        // re-executed, so a machine with live or suspended task
        // contexts defers its crash to the next clean boundary. (This
        // is also what guarantees no uncommitted writes are lost —
        // Jade effects commit at task completion.)
        let has_ctx = self.mach[m].running != 0
            || self.mach[m].active.is_some()
            || !self.mach[m].runq.is_empty()
            || self.tasks.values().any(|e| e.started && e.machine == Some(m));
        if has_ctx {
            return false;
        }
        let down_for = inj.fire_crash(idx);
        let budget = inj.plan().max_task_attempts;
        self.fstats.crashes += 1;
        self.down_until[m] = self.now + down_for;
        let in_flight = self.mach[m].pending.len() as u64;
        self.observe(TaskId::ROOT, ObsKind::WorkerLost { worker: m, in_flight });
        self.events.push(self.down_until[m], EventKind::Rejoin(m));
        // Surviving replicas take over residency for what m owned.
        let _moved = self.dir.fail_machine(m);
        // Unstarted tasks queued on m are recovered: their bodies were
        // never consumed, so they re-execute elsewhere from scratch.
        let victims: Vec<TaskId> = self.mach[m].pending.drain(..).collect();
        self.mach[m].load -= victims.len() as i64;
        for t in victims {
            let e = self.task(t);
            e.stale += std::mem::take(&mut e.fetches);
            e.attempts += 1;
            let tries = e.attempts;
            self.observe(t, ObsKind::TaskReassigned { from: m, to: None });
            self.fstats.recoveries += 1;
            let placement = self.engine.placement(t);
            if tries >= budget {
                // Budget exhausted: degrade to the first surviving
                // eligible machine and stop gambling on placement.
                self.fstats.degraded += 1;
                let fallback = (0..self.cfg.platform.len()).find(|&mi| {
                    !self.is_down(mi) && eligible(&self.cfg.platform.machines[mi], mi, placement)
                });
                match fallback {
                    Some(mi) => {
                        let decls = self.engine.declarations_of(t);
                        self.assign(t, mi, ObsKind::TaskDispatched { worker: mi }, &decls);
                    }
                    None => self.ready_pool.push_back((t, placement)),
                }
            } else {
                self.ready_pool.push_back((t, placement));
            }
        }
        self.schedule_assignments();
        true
    }

    fn set_block(&mut self, t: TaskId, op: BlockedOp) {
        match &op {
            BlockedOp::AccessWait { object, kind } => {
                self.observe(t, ObsKind::AccessWaitBegin { object: *object, kind: *kind });
            }
            BlockedOp::ContWait { .. } => self.observe(t, ObsKind::ContBlock),
            BlockedOp::AccessFetch { object } => {
                self.observe(t, ObsKind::FetchWaitBegin { object: Some(*object) });
            }
            BlockedOp::ContFetch => self.observe(t, ObsKind::FetchWaitBegin { object: None }),
            BlockedOp::Throttle => self.observe(t, ObsKind::CreatorSuspended),
        }
        let m = self.machine_of(t);
        if self.task(t).blocked.replace(op).is_none() {
            // A suspended task releases its machine: another queued
            // task may start meanwhile (this is what overlaps the
            // §4.2 pipelined consumer with its producers), and the
            // room it leaves may take a ready task.
            self.mach[m].load -= 1;
            self.dispatch_pending = true;
            self.mach[m].running -= 1;
            self.events.push(self.now, EventKind::TryStart(m));
        }
    }

    fn clear_block(&mut self, t: TaskId) -> Option<BlockedOp> {
        let op = self.task(t).blocked.take();
        if let Some(inner) = &op {
            match inner {
                BlockedOp::AccessWait { object, kind } => {
                    self.observe(t, ObsKind::AccessWaitEnd { object: *object, kind: *kind });
                }
                BlockedOp::ContWait { .. } => self.observe(t, ObsKind::ContUnblock),
                BlockedOp::AccessFetch { .. } | BlockedOp::ContFetch => {
                    self.observe(t, ObsKind::FetchWaitEnd);
                }
                BlockedOp::Throttle => self.observe(t, ObsKind::CreatorResumed),
            }
            let m = self.machine_of(t);
            self.mach[m].load += 1;
            self.mach[m].running += 1;
        }
        op
    }

    /// Queue `work` units of compute for `t` on machine `m`'s
    /// time-sliced CPU. When the burst completes, a `Resume(t)` event
    /// fires. `priority` bursts (runtime work: task creation/dispatch,
    /// and the main program) go to the front of the run queue.
    fn enqueue_burst(&mut self, m: usize, t: TaskId, work: f64, priority: bool) {
        if priority {
            self.mach[m].runq.push_front((t, work));
        } else {
            self.mach[m].runq.push_back((t, work));
        }
        self.kick_cpu(m);
    }

    /// Queue a fixed runtime-overhead span as priority work.
    fn enqueue_overhead(&mut self, m: usize, t: TaskId, span: SimSpan) {
        let work = span.as_secs_f64() * self.cfg.platform.machines[m].speed;
        self.enqueue_burst(m, t, work, true);
    }

    /// Start the next CPU slice on `m` if the CPU is idle. Slowdown
    /// windows from the fault plan divide the effective speed.
    fn kick_cpu(&mut self, m: usize) {
        if self.mach[m].active.is_some() {
            return;
        }
        let Some((t, work)) = self.mach[m].runq.pop_front() else { return };
        let slow = self.injector.as_ref().map_or(1.0, |i| i.slowdown(m, self.now));
        let speed = self.cfg.platform.machines[m].speed / slow;
        let quantum = QUANTUM_SECS * speed;
        let slice = work.min(quantum);
        let span = SimSpan::from_work(slice, speed);
        self.mach[m].busy = self.mach[m].busy + span;
        self.mach[m].active = Some((t, work - slice));
        self.events.push(self.now + span, EventKind::SliceDone(m));
    }

    /// A CPU slice ended: either the burst is done (resume the task)
    /// or it rotates to the back of the run queue.
    fn on_slice_done(&mut self, m: usize) {
        let (t, remaining) = self.mach[m].active.take().expect("a slice ends with a burst active");
        if remaining > 0.0 {
            self.mach[m].runq.push_back((t, remaining));
        } else {
            self.events.push(self.now, EventKind::Resume(t));
        }
        self.kick_cpu(m);
    }

    // ------------------------------------------------------------------
    // Driving task processes
    // ------------------------------------------------------------------

    /// Resume `tid`'s suspended body from inside a handler whose
    /// remainder must run after it: the calling thread keeps the loop
    /// and steps the body synchronously until a request has to wait.
    fn drive(&mut self, tid: TaskId, first: ProcResp) {
        let TaskCtx::Seat(seat) = &self.tasks[&tid].ctx else {
            panic!("a suspended body has a thread")
        };
        let seat = seat.clone();
        let mut resp = first;
        while self.fault.is_none() {
            let req = self.threads.step(&seat, resp);
            let last = matches!(req, ProcReq::Done);
            match self.interpret(tid, req) {
                Some(next) => resp = next,
                None => {
                    if last {
                        self.threads.idle.push(seat);
                    }
                    return;
                }
            }
        }
    }

    /// Interpret one request of `tid`'s body — the only place any
    /// request of any body is interpreted, whichever thread carries the
    /// loop. `Some` answers it at the current virtual time; on `None`
    /// the body stays suspended until an event (or a wake) resumes it.
    fn interpret(&mut self, tid: TaskId, req: ProcReq) -> Option<ProcResp> {
        match req {
            ProcReq::Charge(work) => {
                let m = self.machine_of(tid);
                self.enqueue_burst(m, tid, work.max(0.0), tid.is_root());
                None
            }
            ProcReq::CreateObject(slot) => {
                let m = self.machine_of(tid);
                let oid = self.engine.create_object(tid);
                self.dir.register(oid, m, slot.wire_size());
                self.stores[m].insert(oid, slot);
                Some(ProcResp::Created(oid))
            }
            ProcReq::Withonly { label, decls, placement, body } => {
                match self.engine.create_task(tid, &label, decls, placement) {
                    Err(e) => Some(ProcResp::Violation(e)),
                    Ok((new, wakes)) => {
                        let m = self.machine_of(tid);
                        self.tasks.insert(new, SimTask::new(TaskCtx::Body(body), m));
                        self.observe(new, ObsKind::TaskCreated { parent: tid, label });
                        self.apply_wakes(wakes);
                        // Only the main program suspends (see
                        // `Throttle::SuspendCreator`).
                        if let Throttle::SuspendCreator { hi, .. } = self.throttle {
                            if tid.is_root() && self.engine.live_tasks() >= hi {
                                self.set_block(tid, BlockedOp::Throttle);
                                return None;
                            }
                        }
                        let span = self.cfg.platform.task_create_overhead;
                        self.enqueue_overhead(m, tid, span);
                        None
                    }
                }
            }
            ProcReq::WithCont(ops) => {
                let converted: Vec<(ObjectId, AccessKind)> = ops
                    .iter()
                    .filter_map(|&(o, op)| match op {
                        ContOp::ToRd => Some((o, AccessKind::Read)),
                        ContOp::ToWr => Some((o, AccessKind::Write)),
                        _ => None,
                    })
                    .collect();
                match self.engine.with_cont(tid, ops) {
                    Err(e) => Some(ProcResp::Violation(e)),
                    Ok((must_block, wakes)) => {
                        self.apply_wakes(wakes);
                        if must_block {
                            self.set_block(tid, BlockedOp::ContWait { converted });
                            return None;
                        }
                        let m = self.machine_of(tid);
                        let n = self.start_fetches(tid, m, &converted, self.now);
                        if n > 0 {
                            self.set_block(tid, BlockedOp::ContFetch);
                            return None;
                        }
                        Some(ProcResp::Proceed)
                    }
                }
            }
            ProcReq::Access { object, kind } => match self.engine.check_access(tid, object, kind) {
                Err(e) => Some(ProcResp::Violation(e)),
                Ok(AccessStatus::MustWait) => {
                    self.set_block(tid, BlockedOp::AccessWait { object, kind });
                    None
                }
                Ok(AccessStatus::Granted) => {
                    let m = self.machine_of(tid);
                    let n = self.start_fetches(tid, m, &[(object, kind)], self.now);
                    if n > 0 {
                        self.set_block(tid, BlockedOp::AccessFetch { object });
                        return None;
                    }
                    Some(ProcResp::Object(self.resident(m, object)))
                }
            },
            ProcReq::Done => {
                self.on_task_done(tid);
                None
            }
            ProcReq::Panicked { message, violation } => {
                self.fault = Some(match violation {
                    Some(error) => {
                        JadeFault::SpecViolation { task: error.task_hint().unwrap_or(tid), error }
                    }
                    None => JadeFault::TaskPanicked { task: tid, message },
                });
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Wakes, blocking, completion
    // ------------------------------------------------------------------

    fn apply_wakes(&mut self, wakes: Vec<Wake>) {
        for w in wakes {
            match w {
                Wake::Ready(t) => {
                    debug_assert!(
                        matches!(self.tasks[&t].ctx, TaskCtx::Body(_)),
                        "ready task without a body"
                    );
                    self.observe(t, ObsKind::TaskEnabled);
                    self.ready_pool.push_back((t, self.engine.placement(t)));
                }
                Wake::Unblocked(t) => self.on_unblocked(t),
            }
        }
        // Ready pushes are dispatched lazily: tasks only ever *start*
        // via a later TryStart event, so deferring the placement scan
        // to the end of the current event-loop iteration is
        // unobservable except in the number of scans performed.
        self.dispatch_pending = true;
    }

    /// Run the deferred placement scan if any wake wave queued one.
    fn flush_dispatch(&mut self) {
        if self.dispatch_pending {
            self.dispatch_pending = false;
            self.schedule_assignments();
        }
    }

    fn on_unblocked(&mut self, t: TaskId) {
        // Re-validate a woken access before ending its wait: several
        // waiters can be woken by one grant wave (e.g. commuting
        // updates, which serialize at access time); only the first to
        // re-check wins the exclusivity, the rest stay suspended — one
        // wait, reported once.
        if let Some(&BlockedOp::AccessWait { object, kind }) = self.tasks[&t].blocked.as_ref() {
            match self.engine.check_access(t, object, kind) {
                Err(e) => {
                    self.clear_block(t);
                    self.drive(t, ProcResp::Violation(e));
                    return;
                }
                Ok(AccessStatus::MustWait) => {
                    self.events.push(self.now, EventKind::TryStart(self.machine_of(t)));
                    return;
                }
                Ok(AccessStatus::Granted) => {}
            }
        }
        match self.clear_block(t) {
            Some(BlockedOp::AccessWait { object, kind }) => {
                let m = self.machine_of(t);
                let n = self.start_fetches(t, m, &[(object, kind)], self.now);
                if n > 0 {
                    self.set_block(t, BlockedOp::AccessFetch { object });
                } else {
                    let slot = self.resident(m, object);
                    self.drive(t, ProcResp::Object(slot));
                }
            }
            Some(BlockedOp::ContWait { converted }) => {
                let m = self.machine_of(t);
                let n = self.start_fetches(t, m, &converted, self.now);
                if n > 0 {
                    self.set_block(t, BlockedOp::ContFetch);
                } else {
                    self.drive(t, ProcResp::Proceed);
                }
            }
            other => panic!("unexpected unblock of {t}: {other:?}"),
        }
    }

    /// The last fetch `t` was waiting for arrived: the task and the
    /// answer to resume its body with, if it has begun.
    fn on_fetches_done(&mut self, t: TaskId) -> Option<(TaskId, ProcResp)> {
        let e = &self.tasks[&t];
        if !e.started {
            // Pre-start fetches complete: the machine may start it.
            if let Some(m) = e.machine {
                self.events.push(self.now, EventKind::TryStart(m));
            }
            return None;
        }
        match self.clear_block(t) {
            Some(BlockedOp::AccessFetch { object }) => {
                let m = self.machine_of(t);
                Some((t, ProcResp::Object(self.resident(m, object))))
            }
            Some(BlockedOp::ContFetch) => Some((t, ProcResp::Proceed)),
            other => panic!("unexpected fetch completion for {t}: {other:?}"),
        }
    }

    fn on_task_done(&mut self, tid: TaskId) {
        let m = self.machine_of(tid);
        // Refresh directory sizes for objects this task could write
        // (accounting for growing vectors etc.).
        for (oid, rights) in self.engine.declarations_of(tid) {
            if rights.write == DeclState::Immediate {
                if let Ok(slot) = self.stores[m].get(oid) {
                    let sz = slot.wire_size();
                    self.dir.update_size(oid, sz);
                }
            }
        }
        let wakes = self.engine.finish_task(tid);
        self.tasks.remove(&tid);
        self.mach[m].load -= 1;
        self.mach[m].running -= 1;
        // The main program's end is reported too: it is a line of the
        // Figure 7 narrative.
        self.observe(tid, ObsKind::TaskFinished { worker: m });
        self.apply_wakes(wakes);
        self.check_throttle();
        self.rebalance();
        self.events.push(self.now, EventKind::TryStart(m));
    }

    /// Resume the throttled main program once the backlog has drained
    /// below `lo` (it re-suspends itself at `hi`).
    fn check_throttle(&mut self) {
        if let Throttle::SuspendCreator { lo, .. } = self.throttle {
            let root = self.tasks.get(&TaskId::ROOT).and_then(|e| e.blocked.as_ref());
            let throttled = matches!(root, Some(BlockedOp::Throttle));
            if throttled && self.engine.live_tasks() < lo {
                self.clear_block(TaskId::ROOT);
                self.drive(TaskId::ROOT, ProcResp::Proceed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduling and object movement
    // ------------------------------------------------------------------

    /// Dynamic load balancing (§5): move *unstarted* tasks from busy
    /// machines' queues to idle machines. Started tasks never migrate
    /// (as in Jade: a task moves before it executes, Figure 7(b)-(c)).
    fn rebalance(&mut self) {
        loop {
            let n = self.cfg.platform.len();
            let Some(idle) = (0..n).find(|&m| self.mach[m].load == 0 && !self.is_down(m)) else {
                return;
            };
            // Victim: the machine with the most queued (unstarted)
            // work beyond what it is currently executing.
            let victim = (0..n)
                .filter(|&v| {
                    v != idle && !self.mach[v].pending.is_empty() && self.mach[v].load >= 2
                })
                .max_by_key(|&v| self.mach[v].pending.len());
            let Some(victim) = victim else { return };
            // Steal the most recently queued eligible task.
            let spec = &self.cfg.platform.machines[idle];
            let Some(pos) = (0..self.mach[victim].pending.len()).rev().find(|&i| {
                let t = self.mach[victim].pending[i];
                eligible(spec, idle, self.engine.placement(t))
            }) else {
                return;
            };
            let t = self.mach[victim].pending.remove(pos).expect("the index was just found");
            self.mach[victim].load -= 1;
            // The descriptor now travels from the victim machine.
            self.task(t).from = victim;
            let decls = self.engine.declarations_of(t);
            self.assign(t, idle, ObsKind::TaskReassigned { from: victim, to: Some(idle) }, &decls);
        }
    }

    /// Place ready tasks in enable (FIFO) order. Decisions are computed
    /// against the live machine loads plus the loads this very scan has
    /// already committed (`picked_load`), then applied after the scan —
    /// the pool is out of `self` while it is filtered, so the filter
    /// must not mutate the simulation.
    ///
    /// The scan costs what it places: an entry's candidate machines are
    /// computed only while some machine has room (`room`), and its
    /// declarations are read only once it has a candidate — and then
    /// serve both the locality heuristic and the fetch plan. Any other
    /// entry costs one eligibility probe of the placement the pool
    /// carries, kept so that a task no machine of the platform can ever
    /// run faults in the scan that first meets it.
    fn schedule_assignments(&mut self) {
        let cap = 1 + self.cfg.lookahead as i64;
        let machines = &self.cfg.platform.machines;
        let mut picked_load = std::mem::take(&mut self.picked_load);
        picked_load.clear();
        picked_load.resize(machines.len(), 0);
        let mut room =
            (0..machines.len()).filter(|&m| self.mach[m].load < cap && !self.is_down(m)).count();
        let mut picks = std::mem::take(&mut self.picks);
        let mut cands: Vec<Candidate> = Vec::new();
        let mut probes = 0;
        let mut unplaceable: Option<JadeFault> = None;
        let mut pool = std::mem::take(&mut self.ready_pool);
        pool.retain(|&(t, placement)| {
            if unplaceable.is_some() {
                return true;
            }
            cands.clear();
            if room > 0 {
                probes += 1;
                for (mi, spec) in machines.iter().enumerate() {
                    let load = self.mach[mi].load + picked_load[mi];
                    if load < cap && !self.is_down(mi) && eligible(spec, mi, placement) {
                        let load = load.max(0) as usize;
                        cands.push(Candidate { machine: mi, load, speed: spec.speed, affinity: 0 });
                    }
                }
            }
            if cands.is_empty() {
                if !machines.iter().enumerate().any(|(mi, spec)| eligible(spec, mi, placement)) {
                    unplaceable = Some(JadeFault::TaskPanicked {
                        task: t,
                        message: format!(
                            "task {t} ('{}') requests placement {placement:?}, which no machine \
                             of platform '{}' satisfies",
                            self.engine.label(t),
                            self.cfg.platform.name
                        ),
                    });
                }
                return true;
            }
            let decls = self.engine.declarations_of(t);
            // Affinity in 4 KiB classes: small resident objects should
            // not override load balancing. A sole candidate is picked
            // whatever its affinity.
            if self.cfg.locality && cands.len() > 1 {
                for c in &mut cands {
                    let objs = decls.iter().map(|&(o, _)| o);
                    c.affinity = self.dir.resident_bytes(objs, c.machine) / 4096;
                }
            }
            let Some(m) = choose(&cands) else { return true };
            picked_load[m] += 1;
            if self.mach[m].load + picked_load[m] == cap {
                room -= 1;
            }
            picks.push((t, m, decls));
            false
        });
        self.ready_pool = pool;
        self.placement_probes += probes;
        for (t, m, decls) in picks.drain(..) {
            self.assign(t, m, ObsKind::TaskDispatched { worker: m }, &decls);
        }
        self.picks = picks;
        self.picked_load = picked_load;
        if unplaceable.is_some() {
            self.fault = unplaceable;
        }
    }

    /// Queue `t` on machine `m`, shipping its descriptor and starting
    /// the fetches its declarations `decls` call for. `how` is the
    /// event reported: a dispatch from the ready pool, or the load
    /// balancer's reassignment.
    fn assign(&mut self, t: TaskId, m: usize, how: ObsKind, decls: &[(ObjectId, DeclRights)]) {
        let e = self.task(t);
        e.machine = Some(m);
        let from = e.from;
        self.mach[m].load += 1;
        self.mach[m].pending.push_back(t);
        self.observe(t, how);
        let base = if from != m {
            self.send(self.now, from, m, DESC_BYTES + HEADER_WIRE_BYTES)
        } else {
            self.now
        };
        // Fetch every immediately-declared read/write object; deferred
        // declarations are fetched at conversion, and commuting
        // declarations at access time (their order — and therefore the
        // object's next location — is decided by whichever commuter
        // touches it first).
        let items: Vec<(ObjectId, AccessKind)> = decls
            .iter()
            .filter_map(|&(o, r)| {
                if r.write == DeclState::Immediate {
                    Some((o, AccessKind::Write))
                } else if r.read == DeclState::Immediate {
                    Some((o, AccessKind::Read))
                } else {
                    None
                }
            })
            .collect();
        let n = self.start_fetches(t, m, &items, base);
        if n == 0 {
            self.events.push(base, EventKind::TryStart(m));
        }
    }

    fn try_start(&mut self, m: usize) {
        // A crashed machine starts nothing until it rejoins; and the
        // start boundary is where armed transient crashes fire.
        if self.is_down(m) || self.maybe_crash(m) {
            return;
        }
        // One task context executes at a time (suspended tasks do not
        // count); the rest of the queue stays stealable.
        if self.mach[m].running > 0 {
            return;
        }
        let Some(i) = (0..self.mach[m].pending.len())
            .find(|&i| self.tasks[&self.mach[m].pending[i]].fetches == 0)
        else {
            return;
        };
        let t = self.mach[m].pending.remove(i).expect("the index was just found");
        self.mach[m].running += 1;
        self.starts[m] += 1;
        self.engine.start_task(t);
        self.observe(t, ObsKind::TaskStarted { worker: m });
        // Its body begins, on whichever thread suits then, at the
        // `Resume` that ends the dispatch overhead.
        self.task(t).started = true;
        let span = self.cfg.platform.task_dispatch_overhead;
        self.enqueue_overhead(m, t, span);
    }

    /// Plan and schedule the transfers needed for `t` (on machine `m`)
    /// to access `items`; returns the number of in-flight fetches.
    fn start_fetches(
        &mut self,
        t: TaskId,
        m: usize,
        items: &[(ObjectId, AccessKind)],
        base: SimTime,
    ) -> usize {
        let mut count = 0;
        for &(oid, kind) in items {
            // A commuting update needs the authoritative version and
            // exclusivity at the destination, exactly like a write.
            let write = kind != AccessKind::Read;
            let plan = self.dir.plan_fetch(oid, m, write);
            // Materialize the value at the destination *before*
            // invalidating replicas — the source may be among them.
            let mut converted = false;
            if plan.need_value && plan.value_source != m {
                converted = self.sync_value(t, oid, plan.value_source, m);
                if converted {
                    self.traffic.conversions += 1;
                }
            }
            for &inv in &plan.invalidate {
                self.stores[inv].remove(oid);
                self.traffic.invalidations += 1;
            }
            for tr in &plan.transfers {
                // Request to the holder, then the data/control reply.
                let t_req = self.send(base.max(self.now), m, tr.from, CTRL_BYTES);
                let mut t_arr = self.send(t_req, tr.from, m, tr.bytes + HEADER_WIRE_BYTES);
                if converted && tr.data {
                    t_arr += SimSpan(self.cfg.platform.convert_cost_per_byte.0 * tr.bytes as u64);
                }
                count += 1;
                self.task(t).fetches += 1;
                self.events.push(t_arr, EventKind::FetchArrive { task: t, bytes: tr.bytes as u64 });
                if tr.data {
                    let (object, from, bytes) = (oid, tr.from, tr.bytes as u64);
                    if write {
                        self.traffic.moves += 1;
                        self.observe(
                            t,
                            ObsKind::ObjectMoved { object, from, to: m, bytes, converted },
                        );
                    } else {
                        self.traffic.copies += 1;
                        self.observe(
                            t,
                            ObsKind::ObjectCopied { object, from, to: m, bytes, converted },
                        );
                    }
                } else {
                    self.traffic.upgrades += 1;
                }
            }
        }
        count
    }

    /// Move the object's value bytes from one machine's store to
    /// another through the typed transport (exercising data-format
    /// conversion) for `t`'s fetch. Returns whether conversion was
    /// required.
    fn sync_value(&mut self, t: TaskId, oid: ObjectId, from: usize, to: usize) -> bool {
        let slot = self.stores[from]
            .get(oid)
            .unwrap_or_else(|_| panic!("the directory names m{from} as {oid}'s value source"))
            .clone();
        let src_layout = self.cfg.platform.machines[from].layout;
        let dst_layout = self.cfg.platform.machines[to].layout;
        let mut enc = PortEncoder::with_capacity(src_layout, slot.wire_size());
        slot.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = PortDecoder::new(&bytes, src_layout);
        // Delivery is reliable, so a version that does not decode has a
        // `Portable` impl that does not round-trip: that faults the task
        // (the destination keeps the source's version until the loop stops).
        let fresh = slot.decode_version(&mut dec).unwrap_or_else(|e| {
            let message = format!("{oid} does not decode after transfer m{from}->m{to}: {e}");
            self.fault.get_or_insert(JadeFault::TaskPanicked { task: t, message });
            slot.clone()
        });
        self.stores[to].insert(oid, fresh);
        src_layout.conversion_required(&dst_layout)
    }
}

/// Execution context for simulated task bodies. Every method is one
/// request to the event loop, interpreted in strict alternation with
/// everything else the simulator does, so every operation happens at a
/// well-defined simulated time.
pub struct SimCtx {
    pub(crate) task: TaskId,
    /// The context thread the body runs on; it outlives the body.
    pub(crate) host: Host,
    pub(crate) holds: HoldSet,
}

impl SimCtx {
    fn call(&mut self, req: ProcReq) -> ProcResp {
        match self.host.request(self.task, req) {
            Cue::Carry(resp) | Cue::Step(resp) => resp,
            Cue::Exit => resume_unwind(Box::new(proc::Released)),
            Cue::Start(..) => unreachable!("a thread with a suspended body is handed no other"),
        }
    }

    /// The access request behind `rd`/`wr`/`cm`: returns once the event
    /// loop has granted `kind` and the object's version is local.
    fn checked_access<T: Object>(
        &mut self,
        h: &Shared<T>,
        kind: AccessKind,
    ) -> Arc<OwnedRwLock<T>> {
        match self.call(ProcReq::Access { object: h.id(), kind }) {
            ProcResp::Object(slot) => slot.typed::<T>(),
            ProcResp::Violation(e) => violation(e),
            other => panic!("unexpected response to Access: {other:?}"),
        }
    }
}

impl JadeCtx for SimCtx {
    fn create_named<T: Object>(&mut self, name: &str, value: T) -> Shared<T> {
        match self.call(ProcReq::CreateObject(Slot::new(name, value))) {
            ProcResp::Created(oid) => Shared::from_raw(oid),
            ProcResp::Violation(e) => violation(e),
            other => panic!("unexpected response to CreateObject: {other:?}"),
        }
    }

    fn withonly<S, F>(&mut self, label: &str, spec: S, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let (decls, placement) = child_spec(self.task, &self.holds, spec);
        match self.call(ProcReq::Withonly {
            label: label.to_string(),
            decls,
            placement,
            body: Box::new(body),
        }) {
            ProcResp::Proceed => {}
            ProcResp::Violation(e) => violation(e),
            other => panic!("unexpected response to Withonly: {other:?}"),
        }
    }

    fn with_cont<C>(&mut self, changes: C)
    where
        C: FnOnce(&mut ContBuilder),
    {
        let mut builder = ContBuilder::new();
        changes(&mut builder);
        match self.call(ProcReq::WithCont(builder.build())) {
            ProcResp::Proceed => {}
            ProcResp::Violation(e) => violation(e),
            other => panic!("unexpected response to WithCont: {other:?}"),
        }
    }

    fn rd<T: Object>(&mut self, h: &Shared<T>) -> ReadGuard<T> {
        let lock = self.checked_access(h, AccessKind::Read);
        ReadGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Read))
    }

    fn wr<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Write);
        WriteGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Write))
    }

    fn cm<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Commute);
        WriteGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Commute))
    }

    fn charge(&mut self, work: f64) {
        match self.call(ProcReq::Charge(work)) {
            ProcResp::Proceed => {}
            other => panic!("unexpected response to Charge: {other:?}"),
        }
    }

    fn machines(&self) -> usize {
        self.host.sim.machines
    }

    fn task(&self) -> TaskId {
        self.task
    }
}

/// The uniform entry point over the simulator.
///
/// `RunConfig::workers` is ignored — the machine count is the
/// platform's. The full [`SimReport`] (network traffic, fault
/// statistics, per-machine busy spans) rides in [`Report::extras`]
/// and is recovered with `report.extra::<SimReport>()`.
impl Runtime for SimExecutor {
    type Ctx = SimCtx;

    fn run_job<R, F>(&self, cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut SimCtx) -> R + Send + 'static,
    {
        let (tx, rx) = sync_channel::<R>(1);
        let body: SimBody = Box::new(move |ctx| {
            let r = program(ctx);
            let _ = tx.send(r);
        });
        let (srep, trace, timeline) = Loop::execute(self.clone(), cfg, body)?;
        let result = rx.try_recv().expect("a run without a fault has the main program's result");
        let mut rep = Report::new(result, srep.stats, srep.time.0, srep.machines);
        rep.trace = trace;
        rep.timeline = timeline;
        // Surface the network and fault counters in the uniform report
        // vocabulary (the sim-specific detail stays in extras).
        rep.net = Some(jade_core::stats::NetStats {
            messages: srep.net.messages,
            bytes: srep.net.bytes,
            ..Default::default()
        });
        rep.faults = Some(srep.faults);
        rep.extras = Some(Box::new(srep));
        Ok(rep)
    }
}
