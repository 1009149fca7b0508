//! Worker-pool executor over the sharded Jade dependency engine.
//!
//! The entry point is [`Runtime::execute`] with a [`RunConfig`]: one
//! call that returns a typed [`Report`] bundling the result,
//! statistics and any captured artifacts (task graph, per-worker
//! timeline).
//!
//! Scheduling structure — no global lock sits on the task lifecycle:
//!
//! * Dependence decisions run in [`ShardedEngine`]: per-object queues
//!   in sharded locks, per-task leaf state, atomic readiness counters.
//!   Two tasks touching disjoint objects never contend.
//! * Dispatch runs over [`StealQueue`]: one work-stealing deque per
//!   pool worker plus a global injector. A worker that enables a task
//!   keeps it local; placement hints route a task to the target
//!   worker's deque; idle workers steal.
//! * The pool condvar is used **only** to park and unpark threads
//!   (idle workers, the root's final join, throttle suspension); it is
//!   never held across engine or queue operations.
//!
//! Fault handling: a task body that panics (or violates its access
//! specification) does not take the process down. The first fault is
//! recorded as a typed [`JadeFault`], pending tasks are cancelled, the
//! engine is poisoned so blocked siblings and the root unwind with a
//! private cancellation token, and every worker drains before
//! `execute` returns the fault as a value.
//!
//! Observability: when the [`RunConfig`] installs observers, lifecycle
//! [`Event`]s are appended to per-worker buffers outside the engine's
//! sharded locks, each stamped with the run's clock and a global
//! sequence number; a [`DispatchGate`]'s own threads append to the
//! same buffers through an [`EventSink`]. The buffers are merged into
//! one causally ordered stream and delivered when the run ends,
//! whether it finished or faulted. With no observer installed the
//! emission path is a single branch. Worker lane 0 is the root task's thread; pool workers are
//! 1..=N; compensation workers get fresh lanes beyond N.
//!
//! Thread ownership: an executor and its clones share one set of OS
//! threads, which outlive runs. A run borrows a parked thread for each
//! pool lane and each compensation worker, a lane's thread parks again
//! when the lane ends, and a run returns only once all its lanes have.
//! A thread is created only when none is parked, so the set is bounded
//! by the executor's peak concurrent demand; parked threads exit when
//! the last clone drops. Everything else — engine, store, queues, body
//! slab, event buffers — is built fresh for each run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jade_core::ctx::{
    child_spec, classify_panic, violation, HoldSet, JadeCtx, ReadGuard, WriteGuard,
};
use jade_core::engine::{EngineScratch, ShardedEngine};
use jade_core::error::{JadeError, JadeFault};
use jade_core::graph::{AccessStatus, Wake};
use jade_core::handle::{Object, Shared};
use jade_core::ids::{Placement, TaskId};
use jade_core::ir::TaskBodyIr;
use jade_core::observe::{Event, EventKind, ObserverHub};
use jade_core::readyq::ReadyQueue;
use jade_core::runtime::{Report, RunConfig, Runtime};
use jade_core::store::{ObjectStore, Slot};
use jade_core::sync::{CachePadded, Condvar, Mutex, OwnedRwLock, RwLock};

use crate::steal::StealQueue;

// The throttle policy moved to jade-core so `RunConfig` can carry it
// uniformly across backends; re-exported here for compatibility.
pub use jade_core::runtime::Throttle;

/// Private panic payload used to unwind task bodies (and the root)
/// during structured shutdown. Recognized and swallowed by the
/// executor's catch sites; never escapes to the caller.
struct CancelToken;

/// What the gate decided for one pool-dispatched task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the closure body here, on this pool thread.
    Local,
    /// A remote worker already executed the task's portable body and
    /// its results have been lifted into the object store; the pool
    /// only settles the task's engine lifecycle (no closure runs).
    Remote,
    /// The task must not run at all — only during shutdown (the run
    /// faulted and [`DispatchGate::abort`] released the waiters); the
    /// pool discards it and continues its fault path.
    Refused,
}

/// Everything a coordinator needs to place one pool-dispatched task:
/// its identity, the declared object footprint (the same declarations
/// the engine checked), the portable body when the task was created
/// with [`JadeCtx::withonly_ir`], and the object store to lower
/// payloads out of and lift results back into.
pub struct AdmitRequest<'a> {
    /// The task being dispatched.
    pub task: TaskId,
    /// The pool lane dispatching it.
    pub lane: usize,
    /// The task's declared accesses, in declaration order. Empty when
    /// no gate was installed at creation time.
    pub decls: &'a [Declaration],
    /// The portable task body, if the program supplied one.
    pub ir: Option<&'a TaskBodyIr>,
    /// The run's object store (lower inputs / lift outputs).
    pub store: &'a RwLock<ObjectStore>,
}

/// Hook a distributed coordinator installs on the pool: every
/// pool-dispatched task must be *admitted* before its body runs.
///
/// This is the seam the `jade-net` backend plugs into. The coordinator
/// keeps the engine, object store and closure bodies local, and the
/// gate decides per task how the body's effects happen:
///
/// * a task with a portable body ([`AdmitRequest::ir`]) can be shipped
///   whole — the gate sends the IR plus any object replicas the chosen
///   worker is missing, the worker executes the kernel program against
///   its replica cache, and the gate lifts the returned object values
///   into the store before answering [`Admission::Remote`];
/// * a task that cannot be shipped (closure only, or a body the
///   coordinator cannot lower) runs here ([`Admission::Local`]).
///
/// Exactly-once execution holds because the body (or its remote
/// rendering) runs only after an admission, and an admission is issued
/// once per attempt. The default pool has no gate and pays a single
/// `Option` check.
pub trait DispatchGate: Send + Sync {
    /// Block until the coordinator has decided where `req.task`
    /// executes; see [`Admission`].
    fn admit(&self, req: &AdmitRequest<'_>) -> Admission;
    /// Release every blocked `admit` immediately (returning
    /// [`Admission::Refused`]). Called from the pool's fault shutdown;
    /// must be idempotent.
    fn abort(&self);
    /// A gated task wrote `object` through a guard on this process
    /// (the closure path). Coordinators use this to advance the
    /// object's master version and invalidate remote replicas.
    fn note_write(&self, object: jade_core::ids::ObjectId) {
        let _ = object;
    }
    /// The run is observed: events the gate's own threads produce
    /// (worker joins, heartbeat misses, losses, reassignments) go
    /// through `sink`, which stamps them with the pool's clock and
    /// merges them into the run's one event stream. Called once,
    /// before the pool starts; never called on an unobserved run.
    fn attach_events(&self, sink: EventSink) {
        let _ = sink;
    }
}

/// Appends one event to the observed run it was handed out by (see
/// [`DispatchGate::attach_events`]).
pub type EventSink = Arc<dyn Fn(TaskId, EventKind) + Send + Sync>;

type Body = Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>;

/// A created task waiting for dispatch: its closure body, plus the
/// declaration footprint and optional portable body captured for the
/// gate. Without a gate the extras stay empty — `Vec::new()` does not
/// allocate and `None` is a tag — so the fast path only grows by two
/// stores.
struct TaskPayload {
    body: Body,
    decls: Vec<Declaration>,
    ir: Option<TaskBodyIr>,
}

/// One shard of the pending-body slab (see [`Inner::bodies`]): a dense
/// vector of identity-tagged payloads slotted by task index.
type BodyShard = Vec<Option<(TaskId, TaskPayload)>>;

/// Thread-pool bookkeeping, touched only when a thread parks, blocks,
/// or a compensation worker is spawned — never on the dispatch path.
struct Pool {
    live_workers: usize,
    idle_workers: usize,
    blocked_tasks: usize,
    /// Next lane index handed to a compensation worker.
    next_lane: usize,
}

/// The OS threads an executor and its clones share (see the module
/// docs): a run lends each of its lanes to a parked thread, or to a
/// new one when none is parked.
#[derive(Default)]
struct ThreadSet {
    parked: Mutex<Parked>,
    /// Wakes parked threads: one per lane handed over, all on close.
    cv: Condvar,
}

#[derive(Default)]
struct Parked {
    /// Parked threads not yet promised a lane.
    idle: usize,
    /// Lanes promised to parked threads and not yet taken up.
    handed: VecDeque<(Arc<Inner>, usize)>,
    /// Threads created so far; the next is `jade-worker-{created + 1}`.
    created: usize,
    /// The last executor clone dropped: parked threads exit.
    closed: bool,
}

impl ThreadSet {
    /// Run `lane` of `inner` on a parked thread, or on a new one.
    fn lend(self: &Arc<Self>, inner: Arc<Inner>, lane: usize) {
        let mut p = self.parked.lock();
        if p.idle > 0 {
            p.idle -= 1;
            p.handed.push_back((inner, lane));
            self.cv.notify_one();
            return;
        }
        // Rare (the set only grows to its peak demand), so the lock is
        // simply held across the spawn.
        p.created += 1;
        let set = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("jade-worker-{}", p.created))
            .spawn(move || set.serve(inner, lane))
            .expect("spawn a pool thread");
    }

    /// A pool thread's life: run a lane, park, run the next lane handed
    /// over, until the set closes.
    fn serve(&self, mut inner: Arc<Inner>, mut lane: usize) {
        loop {
            let lease = Lease(inner);
            worker_loop(&lease.0, lane);
            // Counted idle before the lease settles the lane, so a run
            // that has seen its lanes settle finds their threads free.
            // (Never under the run's pool lock: `compensate` takes the
            // two locks in the other order.)
            self.parked.lock().idle += 1;
            drop(lease);
            let mut p = self.parked.lock();
            (inner, lane) = loop {
                if let Some(next) = p.handed.pop_front() {
                    break next;
                }
                if p.closed {
                    p.idle -= 1;
                    return;
                }
                p = self.cv.wait(p);
            };
        }
    }
}

/// A lane's claim on its run. Dropping it — when the lane ends, or if
/// it unwinds — settles `live_workers`, so the root's final join and
/// `drain` never wait on a lane that is gone.
struct Lease(Arc<Inner>);

impl Drop for Lease {
    fn drop(&mut self) {
        let mut p = self.0.pool.lock();
        p.live_workers -= 1;
        self.0.cv_done.notify_all();
    }
}

/// The executor clones' hold on their [`ThreadSet`]. When the last one
/// drops, parked threads exit; nothing joins them, because the last
/// hold can drop on a pool thread.
#[derive(Default)]
struct Threads(Arc<ThreadSet>);

impl Drop for Threads {
    fn drop(&mut self) {
        self.0.parked.lock().closed = true;
        self.0.cv.notify_all();
    }
}

/// Sequence-stamped per-lane event buffers. Emission appends to the
/// emitting lane's buffer (its mutex is effectively uncontended);
/// merging sorts by `(nanos, seq)`, which respects causal order —
/// both timestamps and sequence numbers are monotone across
/// happens-before edges — so every task's lifecycle events come out
/// in lifecycle order.
/// One lane's buffer of `(sequence, event)` records.
type EventLane = Mutex<Vec<(u64, Event)>>;

struct EventBuffers {
    /// Run epoch; event timestamps are nanoseconds since this instant.
    start: Instant,
    seq: AtomicU64,
    lanes: Box<[EventLane]>,
}

impl EventBuffers {
    fn new(lanes: usize) -> Self {
        EventBuffers {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            lanes: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn push(&self, lane: usize, task: TaskId, kind: EventKind) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let n = self.lanes.len();
        self.lanes[lane % n].lock().push((seq, Event { nanos, task, kind }));
    }

    /// Deliver everything buffered so far to `hub`, merged into
    /// `(nanos, seq)` order.
    fn flush_into(&self, hub: &mut ObserverHub) {
        let mut all: Vec<(u64, Event)> =
            self.lanes.iter().flat_map(|l| std::mem::take(&mut *l.lock())).collect();
        all.sort_by_key(|(seq, e)| (e.nanos, *seq));
        for (_, e) in all {
            hub.emit(e);
        }
    }
}

/// Shard count for the task-body map; like the engine's lock table,
/// sized so unrelated tasks rarely share a mutex.
const BODY_SHARDS: usize = 64;

struct Inner {
    engine: ShardedEngine,
    store: RwLock<ObjectStore>,
    queue: StealQueue,
    /// Bodies of created-but-not-yet-dispatched tasks, sharded by
    /// `TaskId` so concurrent creators and dispatchers do not
    /// serialize on one store. A body is stored *before* the task's
    /// specification is attached to the engine, so a remote worker can
    /// never pop a body-less task. Each shard is a dense slab indexed
    /// by `index / BODY_SHARDS`: task slot indices recycle through the
    /// engine's generational slab, so the vectors stay as small as the
    /// peak live-set and the per-task probe is an index, not a hash.
    /// Every created task has an entry here until a worker claims it
    /// (or fault shutdown cancels it).
    bodies: Box<[Mutex<BodyShard>]>,
    /// Created-but-not-finished task bodies the root must outwait.
    /// Every creation and every finish writes it; padded, those writes
    /// do not evict `root_done`/`faulted`, which every worker-loop
    /// iteration reads.
    unfinished: CachePadded<AtomicI64>,
    root_done: AtomicBool,
    faulted: AtomicBool,
    fault: Mutex<Option<JadeFault>>,
    pool: Mutex<Pool>,
    /// Parks idle workers; notified when a task is queued (one wake
    /// per task — no thundering herd) and on shutdown.
    cv_work: Condvar,
    /// Parks the root: its final join and its throttle suspension;
    /// notified when a task finishes and on shutdown. Separate from
    /// `cv_work` so a queued task never wastes its (single) wake on
    /// the root, and a completion never stampedes the workers.
    cv_done: Condvar,
    /// Workers currently parked (or about to park) on `cv_work`.
    /// Producers skip the pool lock and the notify entirely while this
    /// is zero — the common case when every worker is busy.
    sleepers_work: AtomicUsize,
    /// Ditto for `cv_done`.
    sleepers_done: AtomicUsize,
    /// Round-robin cursor distributing un-hinted pushes from threads
    /// without a deque (the root) across the worker deques.
    spread: AtomicUsize,
    throttle: Throttle,
    base_workers: usize,
    /// Distributed-dispatch gate, if a coordinator installed one.
    gate: Option<Arc<dyn DispatchGate>>,
    /// The executor's threads, which this run's lanes borrow.
    threads: Arc<ThreadSet>,
    observing: bool,
    events: Arc<EventBuffers>,
}

impl Inner {
    /// Append a lifecycle event to `lane`'s buffer. A no-op branch
    /// when no observer is installed.
    fn emit(&self, lane: usize, task: TaskId, kind: EventKind) {
        if self.observing {
            self.events.push(lane, task, kind);
        }
    }

    // Body-slab access. Slotted by task index; every entry carries the
    // full (generational) TaskId and `body_take` compares it, so a pop
    // that races fault shutdown's cancellation misses instead of
    // claiming whatever occupies the index.

    fn body_put(&self, t: TaskId, payload: TaskPayload) {
        let mut shard = self.bodies[t.index() % BODY_SHARDS].lock();
        let at = t.index() / BODY_SHARDS;
        if shard.len() <= at {
            shard.resize_with(at + 1, || None);
        }
        debug_assert!(shard[at].is_none(), "body slot reused before being claimed");
        shard[at] = Some((t, payload));
    }

    fn body_take(&self, t: TaskId) -> Option<TaskPayload> {
        let mut shard = self.bodies[t.index() % BODY_SHARDS].lock();
        let entry = shard.get_mut(t.index() / BODY_SHARDS)?;
        match entry {
            Some((id, _)) if *id == t => entry.take().map(|(_, p)| p),
            _ => None,
        }
    }

    /// Tell parked workers that `pushed` tasks were queued (or, with
    /// `pushed == usize::MAX`, that they must wake for shutdown).
    /// Cheap when nobody sleeps: sleepers register *before* re-checking
    /// their wait condition, so either this load observes the sleeper
    /// (and notifies it) or the sleeper's re-check observes the
    /// condition change (and never parks) — no lost wakeup either way,
    /// and the busy-pool fast path is one atomic load.
    fn notify_work(&self, pushed: usize) {
        if self.sleepers_work.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _guard = self.pool.lock();
        if pushed == 1 {
            self.cv_work.notify_one();
        } else {
            self.cv_work.notify_all();
        }
    }

    /// Tell the (joining or throttled) root that a task finished (the
    /// unfinished and live counts dropped) or that a fault arrived.
    /// Same no-lost-wakeup protocol as [`Self::notify_work`].
    fn notify_done(&self) {
        if self.sleepers_done.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _guard = self.pool.lock();
        self.cv_done.notify_all();
    }

    /// Queue every newly enabled task from `scratch.wakes` (drained).
    /// `lane` is the emitting thread's lane; `home` its deque slot,
    /// used for un-hinted tasks so enabled work stays local to the
    /// worker that enabled it. Un-hinted ready tasks are staged in
    /// `scratch.ready` and dispatched as one batch — one deque touch
    /// and one worker wake per wave instead of per task.
    fn handle_wakes(&self, scratch: &mut EngineScratch, lane: usize, home: Option<usize>) {
        let EngineScratch { wakes, ready, .. } = scratch;
        ready.clear();
        let mut hinted = 0usize;
        for w in wakes.drain(..) {
            if let Wake::Ready(t) = w {
                self.emit(lane, t, EventKind::TaskEnabled);
                match self.engine.placement(t) {
                    Placement::Machine(m) => {
                        self.queue.push(t, Some(m.0 as usize % self.base_workers));
                        hinted += 1;
                    }
                    _ => ready.push(t),
                }
            }
            // Wake::Unblocked threads are signalled by the engine's
            // per-task condvars; nothing to do here.
        }
        let batched = ready.len();
        if batched > 0 {
            // Deque-less threads (the root) spread their batches
            // round-robin over the worker deques instead of
            // serializing on the injector.
            let hint = home
                .or_else(|| Some(self.spread.fetch_add(1, Ordering::Relaxed) % self.base_workers));
            self.queue.push_batch(ready, hint);
            ready.clear();
        }
        if batched + hinted > 0 {
            self.notify_work(batched + hinted);
        }
    }

    /// [`Self::handle_wakes`] specialised for the creator path: when
    /// the only wake is the just-created task itself — the dominant
    /// case for independent fine-grained tasks — its placement is
    /// already in hand, so the engine placement lookup and the batch
    /// staging in `scratch.ready` are skipped and the task is pushed
    /// straight onto a deque.
    fn handle_wakes_created(
        &self,
        scratch: &mut EngineScratch,
        created: TaskId,
        placement: Placement,
        lane: usize,
        home: Option<usize>,
    ) {
        if let [Wake::Ready(t)] = scratch.wakes[..] {
            if t == created {
                scratch.wakes.clear();
                self.emit(lane, t, EventKind::TaskEnabled);
                let hint = match placement {
                    Placement::Machine(m) => Some(m.0 as usize % self.base_workers),
                    _ => home.or_else(|| {
                        Some(self.spread.fetch_add(1, Ordering::Relaxed) % self.base_workers)
                    }),
                };
                self.queue.push(t, hint);
                self.notify_work(1);
                return;
            }
        }
        self.handle_wakes(scratch, lane, home);
    }

    /// Record a fault. The first fault wins; cancellation cascades
    /// triggered by it must not overwrite the root cause.
    fn record_fault(&self, fault: JadeFault) {
        let mut f = self.fault.lock();
        if f.is_none() {
            *f = Some(fault);
            self.faulted.store(true, Ordering::Release);
        }
    }

    /// Classify a caught panic payload from `task`'s body and record
    /// the resulting fault. A [`CancelToken`] records nothing (the
    /// causing fault is already present). Must run on the thread that
    /// panicked so the violation thread-local is visible.
    fn record_panic(&self, task: TaskId, payload: &(dyn std::any::Any + Send)) {
        if payload.downcast_ref::<CancelToken>().is_some() {
            return;
        }
        let fault = match classify_panic(payload) {
            (_, Some(error)) => JadeFault::SpecViolation { task, error },
            (message, None) => JadeFault::TaskPanicked { task, message },
        };
        self.record_fault(fault);
    }

    /// Cancel all not-yet-started tasks and release every waiter:
    /// clear the ready queue and stored bodies, poison the engine so
    /// blocked tasks unwind, and wake all parked threads. Idempotent.
    fn fault_shutdown(&self) {
        let mut cancelled = 0i64;
        for shard in self.bodies.iter() {
            let mut b = shard.lock();
            cancelled += b.iter_mut().filter_map(Option::take).count() as i64;
        }
        self.queue.clear();
        self.unfinished.fetch_sub(cancelled, Ordering::AcqRel);
        self.engine.poison();
        // Release pool threads blocked in a gate admission before waking
        // the rest, or drain() would deadlock on them.
        if let Some(g) = &self.gate {
            g.abort();
        }
        self.notify_work(usize::MAX);
        self.notify_done();
    }

    fn finished(&self) -> bool {
        self.root_done.load(Ordering::Acquire) && self.unfinished.load(Ordering::Acquire) <= 0
    }

    /// Ensure ready tasks cannot starve while the calling task blocks:
    /// if no worker is idle, borrow a compensation worker from the
    /// executor's threads (the surplus returns its thread once the pool
    /// is over-provisioned again).
    fn compensate(self: &Arc<Self>, p: &mut Pool) {
        if p.idle_workers == 0 && !self.faulted.load(Ordering::Acquire) && !self.finished() {
            p.live_workers += 1;
            let lane = p.next_lane;
            p.next_lane += 1;
            self.threads.lend(Arc::clone(self), lane);
        }
    }

    /// Mark the calling task-thread blocked (spawning a compensation
    /// worker if needed), run `wait`, and unmark. If the engine was
    /// poisoned while waiting, the task unwinds with a [`CancelToken`]
    /// — this is what guarantees shutdown wakes every sibling.
    fn blocking_wait(self: &Arc<Self>, wait: impl FnOnce() -> bool) {
        {
            let mut p = self.pool.lock();
            p.blocked_tasks += 1;
            self.compensate(&mut p);
        }
        let ok = wait();
        self.pool.lock().blocked_tasks -= 1;
        if !ok {
            std::panic::panic_any(CancelToken);
        }
    }

    /// Park on the pool condvar until `done()` holds; cancels with a
    /// [`CancelToken`] if a fault arrives first. Used by the
    /// suspend-creator throttle.
    fn pool_wait(self: &Arc<Self>, mut done: impl FnMut() -> bool) {
        if done() {
            return;
        }
        let mut p = self.pool.lock();
        p.blocked_tasks += 1;
        self.compensate(&mut p);
        // Register as a sleeper before each condition re-check (see
        // `notify_work` for why this ordering prevents lost wakeups).
        self.sleepers_done.fetch_add(1, Ordering::SeqCst);
        loop {
            if self.faulted.load(Ordering::Acquire) {
                p.blocked_tasks -= 1;
                self.sleepers_done.fetch_sub(1, Ordering::SeqCst);
                drop(p);
                std::panic::panic_any(CancelToken);
            }
            if done() {
                break;
            }
            p = self.cv_done.wait(p);
        }
        p.blocked_tasks -= 1;
        self.sleepers_done.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wait for every lane (pool and compensation) to end, so each has
    /// returned its thread to the executor's set.
    fn join_lanes(self: &Arc<Self>) {
        // Lanes no thread has taken up yet are taken back: the run is
        // over, so they would only start in order to end.
        let mut set = self.threads.parked.lock();
        let before = set.handed.len();
        set.handed.retain(|(run, _)| !Arc::ptr_eq(run, self));
        let reclaimed = before - set.handed.len();
        set.idle += reclaimed;
        drop(set);
        let mut p = self.pool.lock();
        p.live_workers -= reclaimed;
        while p.live_workers > 0 {
            p = self.cv_done.wait(p);
        }
    }

    /// Shut down, wait for every lane to end, then return the recorded
    /// fault.
    fn drain(self: &Arc<Self>) -> JadeFault {
        self.fault_shutdown();
        self.join_lanes();
        self.fault.lock().clone().expect("drain is only reached after a fault was recorded")
    }
}

/// Failed pop attempts (with a `yield_now` each) before a worker
/// parks on the condvar. Spinning keeps the task hand-off futex-free
/// while a producer is actively enabling work — and the yield donates
/// the time slice to that producer on oversubscribed hosts.
const SPIN_YIELDS: u32 = 32;

fn worker_loop(inner: &Arc<Inner>, lane: usize) {
    // Pool workers (lanes 1..=N) own deque slot `lane - 1`; the root
    // thread and compensation workers have no local deque.
    let home = lane.checked_sub(1).filter(|&slot| slot < inner.base_workers);
    let slot = home.unwrap_or_else(|| inner.queue.remote_slot());
    // Reused across every task this worker runs: wake/dispatch staging
    // plus the engine's internal buffers, so the steady-state task
    // lifecycle allocates nothing.
    let mut scratch = EngineScratch::default();
    let mut spins = 0u32;
    loop {
        if inner.faulted.load(Ordering::Acquire) {
            break;
        }
        if let Some(tid) = inner.queue.pop(slot) {
            spins = 0;
            // A fault between pop and this lookup may have cancelled
            // the body; skip and fall out on the next fault check.
            let Some(payload) = inner.body_take(tid) else {
                continue;
            };
            let TaskPayload { mut body, decls, ir } = payload;
            if let Some(g) = &inner.gate {
                let req = AdmitRequest {
                    task: tid,
                    lane,
                    decls: &decls,
                    ir: ir.as_ref(),
                    store: &inner.store,
                };
                // An admission that panics (a coordinator's lowering
                // closure, say) faults the task as its body would have;
                // the task is then refused like any other at shutdown.
                let admission =
                    catch_unwind(AssertUnwindSafe(|| g.admit(&req))).unwrap_or_else(|payload| {
                        inner.record_panic(tid, payload.as_ref());
                        inner.fault_shutdown();
                        Admission::Refused
                    });
                match admission {
                    Admission::Local => {}
                    Admission::Remote => {
                        // The worker already produced the task's
                        // effects (lifted into the store by the gate);
                        // run the lifecycle with an empty body so
                        // events, wakes and completion accounting stay
                        // identical to local execution.
                        body = Box::new(|_| {});
                    }
                    Admission::Refused => {
                        // Shutdown released the admission wait (or the
                        // admission panicked): the body is consumed
                        // and will never run, so settle its accounting
                        // and fall out on the fault check.
                        inner.unfinished.fetch_sub(1, Ordering::AcqRel);
                        inner.notify_done();
                        continue;
                    }
                }
            }
            inner.emit(lane, tid, EventKind::TaskDispatched { worker: lane });
            inner.engine.start_task(tid);
            inner.emit(lane, tid, EventKind::TaskStarted { worker: lane });
            execute_task(inner, tid, body, lane, home, &mut scratch);
            continue;
        }
        if inner.finished() {
            break;
        }
        if spins < SPIN_YIELDS {
            spins += 1;
            std::thread::yield_now();
            continue;
        }
        spins = 0;
        let mut p = inner.pool.lock();
        // Register as a sleeper, *then* re-check every wake condition:
        // a producer either sees the registration (and notifies) or
        // this re-check sees its change — no lost wakeup (the pool
        // lock alone is not enough, because producers publish changes
        // without taking it).
        inner.sleepers_work.fetch_add(1, Ordering::SeqCst);
        if inner.faulted.load(Ordering::Acquire) || inner.finished() || !inner.queue.is_empty() {
            inner.sleepers_work.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if p.live_workers > inner.base_workers + p.blocked_tasks {
            inner.sleepers_work.fetch_sub(1, Ordering::SeqCst);
            break; // surplus compensation worker retires
        }
        p.idle_workers += 1;
        p = inner.cv_work.wait(p);
        p.idle_workers -= 1;
        inner.sleepers_work.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run one popped task's body and settle its lifecycle: finish it in
/// the engine, queue what the finish enabled, and count it done.
fn execute_task(
    inner: &Arc<Inner>,
    tid: TaskId,
    body: Body,
    lane: usize,
    home: Option<usize>,
    scratch: &mut EngineScratch,
) {
    let mut ctx = ThreadCtx {
        inner: Arc::clone(inner),
        task: tid,
        holds: HoldSet::new(),
        worker: lane,
        home,
        scratch: std::mem::take(scratch),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
    let leaked = ctx.holds.any_held();
    // Recover the buffers even when the body unwound, so a panicky
    // workload does not shed its warmed-up capacity.
    *scratch = std::mem::take(&mut ctx.scratch);
    match outcome {
        Ok(()) if !leaked => {
            inner.engine.finish_task_with(tid, scratch);
            inner.emit(lane, tid, EventKind::TaskFinished { worker: lane });
            inner.handle_wakes(scratch, lane, home);
        }
        Ok(()) => {
            inner.record_fault(JadeFault::SpecViolation {
                task: tid,
                error: JadeError::GuardLeaked { task: tid },
            });
            inner.fault_shutdown();
        }
        Err(payload) => {
            inner.record_panic(tid, payload.as_ref());
            inner.fault_shutdown();
        }
    }
    inner.unfinished.fetch_sub(1, Ordering::AcqRel);
    inner.notify_done();
}

/// Configuration and entry point for shared-memory execution. Clones
/// share the executor's threads: runs borrow their lanes from them,
/// and they exit when the last clone drops (see the module docs).
#[derive(Clone)]
pub struct ThreadedExecutor {
    workers: usize,
    gate: Option<Arc<dyn DispatchGate>>,
    threads: Arc<Threads>,
}

impl std::fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedExecutor")
            .field("workers", &self.workers)
            .field("gate", &self.gate.is_some())
            .finish()
    }
}

impl ThreadedExecutor {
    /// A pool of `workers` lanes (the root task's thread is extra). Its
    /// threads are created on first use and kept for later runs.
    pub fn new(workers: usize) -> Self {
        ThreadedExecutor { workers: workers.max(1), gate: None, threads: Arc::default() }
    }

    /// Install a [`DispatchGate`]: every pool-dispatched task performs
    /// a gate round-trip before its body runs. Used by distributed
    /// coordinators; `None` (the default) costs one branch per task.
    pub fn with_gate(mut self, gate: Arc<dyn DispatchGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Runtime for ThreadedExecutor {
    type Ctx = ThreadCtx;

    /// Execute on the thread pool. `cfg.workers` overrides the pool
    /// width; throttle, trace, timeline and observers are all
    /// honored, and observers receive the run's events on every
    /// exit, fault included. Worker lane 0 is the root's thread; pool workers are
    /// 1..=N. A [`RunConfig::cancel`] signal aborts promptly through
    /// the panic-safe fault-shutdown machinery: not-yet-started tasks
    /// are cancelled, blocked tasks unwind, and the run returns
    /// [`JadeFault::Cancelled`].
    fn run_job<R, F>(&self, mut cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut ThreadCtx) -> R + Send + 'static,
    {
        let workers = cfg.workers.unwrap_or(self.workers).max(1);
        let mut hub = cfg.take_hub();
        let observing = hub.is_active();
        let engine = ShardedEngine::new();
        if cfg.trace {
            engine.enable_trace();
        }
        let inner = Arc::new(Inner {
            engine,
            store: RwLock::new(ObjectStore::new()),
            queue: StealQueue::new(workers),
            bodies: (0..BODY_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            unfinished: CachePadded(AtomicI64::new(0)),
            root_done: AtomicBool::new(false),
            faulted: AtomicBool::new(false),
            fault: Mutex::new(None),
            pool: Mutex::new(Pool {
                live_workers: workers,
                idle_workers: 0,
                blocked_tasks: 0,
                next_lane: workers + 1,
            }),
            cv_work: Condvar::new(),
            cv_done: Condvar::new(),
            sleepers_work: AtomicUsize::new(0),
            sleepers_done: AtomicUsize::new(0),
            spread: AtomicUsize::new(0),
            throttle: cfg.throttle,
            base_workers: workers,
            gate: self.gate.clone(),
            threads: Arc::clone(&self.threads.0),
            observing,
            // One buffer per pool lane plus the root; compensation
            // lanes fold onto these modulo the buffer count.
            events: Arc::new(EventBuffers::new(workers + 1)),
        });
        if let (true, Some(gate)) = (observing, &inner.gate) {
            // The gate's threads share the root's lane.
            let events = Arc::clone(&inner.events);
            gate.attach_events(Arc::new(move |task, kind| events.push(0, task, kind)));
        }
        if let Some(signal) = cfg.cancel.clone() {
            // The hook downgrades to Weak so a signal outliving the
            // run never pins the pool; tripping it rides the existing
            // panic-safe fault machinery (first fault wins, shutdown
            // wakes every parked or blocked thread).
            let weak = Arc::downgrade(&inner);
            signal.on_cancel(Box::new(move || {
                if let Some(inner) = weak.upgrade() {
                    inner.record_fault(JadeFault::Cancelled { task: TaskId::ROOT });
                    inner.fault_shutdown();
                }
            }));
        }
        for lane in 1..=workers {
            inner.threads.lend(Arc::clone(&inner), lane);
        }

        let mut ctx = ThreadCtx {
            inner: Arc::clone(&inner),
            task: TaskId::ROOT,
            holds: HoldSet::new(),
            worker: 0,
            home: None,
            scratch: EngineScratch::default(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| program(&mut ctx)));

        inner.root_done.store(true, Ordering::Release);
        inner.notify_work(usize::MAX);
        match outcome {
            Ok(result) => {
                {
                    let mut p = inner.pool.lock();
                    inner.sleepers_done.fetch_add(1, Ordering::SeqCst);
                    while inner.unfinished.load(Ordering::Acquire) > 0
                        && !inner.faulted.load(Ordering::Acquire)
                    {
                        p = inner.cv_done.wait(p);
                    }
                    inner.sleepers_done.fetch_sub(1, Ordering::SeqCst);
                }
                if inner.faulted.load(Ordering::Acquire) {
                    let fault = inner.drain();
                    inner.events.flush_into(&mut hub);
                    return Err(fault);
                }
                // Wake any parked workers so they observe the finished
                // state and end their lanes while the report is built.
                inner.notify_work(usize::MAX);
                // Every task has finished: in debug builds, scan what
                // the run left in the engine (a no-op in release).
                inner.engine.check_invariants();
                let stats = inner.engine.stats.snapshot();
                let tr = inner.engine.take_trace();
                let elapsed = inner.events.start.elapsed().as_nanos() as u64;
                let mut rep = Report::new(result, stats, elapsed, workers);
                rep.trace = tr;
                inner.events.flush_into(&mut hub);
                if observing {
                    rep.timeline = hub.finish(elapsed.max(1));
                }
                inner.join_lanes();
                Ok(rep)
            }
            Err(payload) => {
                // The root unwound: either its own panic, or a
                // CancelToken raised because a child faulted while the
                // root was blocked.
                inner.record_panic(TaskId::ROOT, payload.as_ref());
                let fault = inner.drain();
                inner.events.flush_into(&mut hub);
                if let JadeFault::TaskPanicked { task: TaskId::ROOT, .. } = &fault {
                    // The root's own panic is the caller's panic, not a
                    // child fault: re-raise the original payload so
                    // `catch_unwind` callers see it unchanged.
                    resume_unwind(payload);
                }
                Err(fault)
            }
        }
    }
}

/// Execution context handed to task bodies on the thread pool.
pub struct ThreadCtx {
    inner: Arc<Inner>,
    task: TaskId,
    holds: HoldSet,
    /// The lane this task is executing on (0 = root's thread).
    worker: usize,
    /// The lane's deque slot, if it owns one.
    home: Option<usize>,
    /// Per-thread reusable engine buffers (wake lists, declaration and
    /// transition staging); travels with the context so task creation
    /// and continuation changes allocate nothing in steady state.
    scratch: EngineScratch,
}

impl JadeCtx for ThreadCtx {
    fn create_named<T: Object>(&mut self, name: &str, value: T) -> Shared<T> {
        let oid = self.inner.engine.create_object(self.task);
        self.inner.store.write().insert(oid, Slot::new(name, value));
        Shared::from_raw(oid)
    }

    fn withonly<S, F>(&mut self, label: &str, spec: S, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        self.spawn(label, spec, None, body);
    }

    fn withonly_ir<S, F>(&mut self, label: &str, spec: S, ir: TaskBodyIr, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        self.spawn(label, spec, Some(ir), body);
    }

    fn with_cont<C>(&mut self, changes: C)
    where
        C: FnOnce(&mut ContBuilder),
    {
        let mut builder = ContBuilder::new();
        changes(&mut builder);
        let ops = builder.build();
        let must_block = self
            .inner
            .engine
            .with_cont_with(self.task, &ops, &mut self.scratch)
            .unwrap_or_else(|e| violation(e));
        self.inner.handle_wakes(&mut self.scratch, self.worker, self.home);
        if must_block {
            let task = self.task;
            self.inner.emit(self.worker, task, EventKind::ContBlock);
            let inner = Arc::clone(&self.inner);
            let engine = &inner.engine;
            inner.blocking_wait(|| engine.wait_until_runnable(task));
            self.inner.emit(self.worker, task, EventKind::ContUnblock);
        }
    }

    fn rd<T: Object>(&mut self, h: &Shared<T>) -> ReadGuard<T> {
        let lock = self.checked_access(h, AccessKind::Read);
        ReadGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Read))
    }

    fn wr<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Write);
        if let Some(g) = &self.inner.gate {
            g.note_write(h.id());
        }
        WriteGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Write))
    }

    fn cm<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Commute);
        if let Some(g) = &self.inner.gate {
            g.note_write(h.id());
        }
        WriteGuard::new(lock, self.holds.acquire(h.id(), AccessKind::Commute))
    }

    fn charge(&mut self, _work: f64) {
        // Real execution: wall-clock time is real; nothing to account.
    }

    fn machines(&self) -> usize {
        self.inner.base_workers
    }

    fn task(&self) -> TaskId {
        self.task
    }
}

impl ThreadCtx {
    /// Create one task: check and attach its specification, store its
    /// body (and, for a gate, its footprint and portable body `ir`)
    /// and queue it if it is already enabled.
    fn spawn<S, F>(&mut self, label: &str, spec: S, ir: Option<TaskBodyIr>, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let (decls, placement) = child_spec(self.task, &self.holds, spec);
        if self.inner.faulted.load(Ordering::Acquire) {
            // A sibling already faulted; unwind this creator as part of
            // the structured shutdown rather than adding new work.
            std::panic::panic_any(CancelToken);
        }
        // Only the main program suspends (see `Throttle::SuspendCreator`).
        if let Throttle::SuspendCreator { hi, lo } = self.inner.throttle {
            if self.task.is_root() && self.inner.engine.live_tasks() >= hi {
                let inner = Arc::clone(&self.inner);
                inner.emit(self.worker, self.task, EventKind::CreatorSuspended);
                inner.pool_wait(|| inner.engine.live_tasks() < lo);
                inner.emit(self.worker, self.task, EventKind::CreatorResumed);
            }
        }

        let tid = self.inner.engine.alloc_task(self.task, label, placement);
        self.inner.unfinished.fetch_add(1, Ordering::AcqRel);
        if self.inner.observing {
            let created = EventKind::TaskCreated { parent: self.task, label: label.to_string() };
            self.inner.events.push(self.worker, tid, created);
        }
        // The gate (when present) needs the declared footprint and any
        // portable body at dispatch time; the ungated pool stores empty
        // extras (no allocation, one tag).
        let gated = self.inner.gate.is_some();
        let payload = TaskPayload {
            body: Box::new(body),
            decls: if gated { decls.clone() } else { Vec::new() },
            ir: ir.filter(|_| gated),
        };
        // The body must be in place before the spec attaches: the
        // moment the engine enables the task, any worker may claim it.
        self.inner.body_put(tid, payload);
        self.inner
            .engine
            .attach_task_with(tid, &decls, &mut self.scratch)
            .unwrap_or_else(|e| violation(e));
        self.inner.handle_wakes_created(&mut self.scratch, tid, placement, self.worker, self.home);
    }

    fn checked_access<T: Object>(
        &mut self,
        h: &Shared<T>,
        kind: AccessKind,
    ) -> Arc<OwnedRwLock<T>> {
        // Loop: one grant wave can wake several waiters (commuting
        // updates serialize at access time); re-check until this task
        // actually holds the access.
        loop {
            match self.inner.engine.check_access(self.task, h.id(), kind) {
                Ok(AccessStatus::Granted) => break,
                Ok(AccessStatus::MustWait) => {
                    let task = self.task;
                    self.inner.emit(
                        self.worker,
                        task,
                        EventKind::AccessWaitBegin { object: h.id(), kind },
                    );
                    let inner = Arc::clone(&self.inner);
                    let engine = &inner.engine;
                    inner.blocking_wait(|| engine.wait_until_runnable(task));
                    self.inner.emit(
                        self.worker,
                        task,
                        EventKind::AccessWaitEnd { object: h.id(), kind },
                    );
                }
                Err(e) => violation(e),
            }
        }
        self.inner.store.read().typed(h).unwrap_or_else(|e| violation(e))
    }
}

// Spec builders are re-exported through the crate root; local aliases
// keep the trait impl readable.
use jade_core::spec::{AccessKind, ContBuilder, Declaration, SpecBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::stats::RuntimeStats;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `execute` with default options, unwrapped like the old `run`.
    fn run<R: Send + 'static>(
        exec: &ThreadedExecutor,
        program: impl FnOnce(&mut ThreadCtx) -> R + Send + 'static,
    ) -> (R, RuntimeStats) {
        run_throttled(exec, Throttle::None, program)
    }

    /// [`run`] under a task-creation throttle.
    fn run_throttled<R: Send + 'static>(
        exec: &ThreadedExecutor,
        throttle: Throttle,
        program: impl FnOnce(&mut ThreadCtx) -> R + Send + 'static,
    ) -> (R, RuntimeStats) {
        match exec.execute(RunConfig::new().with_throttle(throttle), program) {
            Ok(rep) => rep.into_parts(),
            Err(fault) => panic!("{fault}"),
        }
    }

    #[test]
    fn independent_tasks_run_and_root_collects() {
        let exec = ThreadedExecutor::new(4);
        let (v, stats) = run(&exec, |ctx| {
            let xs: Vec<Shared<f64>> = (0..16).map(|i| ctx.create(i as f64)).collect();
            for &x in &xs {
                ctx.withonly(
                    "inc",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| {
                        *c.wr(&x) += 1.0;
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
        });
        assert_eq!(v, (0..16).map(|i| i as f64 + 1.0).sum::<f64>());
        assert_eq!(stats.tasks_created, 16);
    }

    #[test]
    fn conflicting_tasks_serialize_deterministically() {
        // A chain of read-modify-write tasks on one object must apply
        // in serial order on every run.
        for _ in 0..20 {
            let exec = ThreadedExecutor::new(8);
            let (v, _) = run(&exec, |ctx| {
                let x = ctx.create(1.0f64);
                for i in 1..=6 {
                    let k = i as f64;
                    ctx.withonly(
                        "step",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c| {
                            let cur = *c.rd(&x);
                            *c.wr(&x) = cur * k + 1.0;
                        },
                    );
                }
                *ctx.rd(&x)
            });
            // Serial evaluation of x = x*k + 1 for k = 1..=6 from 1.0.
            let mut expect = 1.0f64;
            for k in 1..=6 {
                expect = expect * k as f64 + 1.0;
            }
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn readers_actually_run_concurrently() {
        // Two readers of one object must be in flight at the same time
        // at least once across attempts (scheduling-dependent but the
        // runtime must allow it).
        let peak = Arc::new(AtomicU64::new(0));
        let cur = Arc::new(AtomicU64::new(0));
        let exec = ThreadedExecutor::new(4);
        let peak2 = peak.clone();
        let cur2 = cur.clone();
        let (peak_seen, _) = run(&exec, move |ctx| {
            let x = ctx.create(7.0f64);
            for _ in 0..8 {
                let peak = peak2.clone();
                let cur = cur2.clone();
                ctx.withonly(
                    "reader",
                    |s| {
                        s.rd(x);
                    },
                    move |c| {
                        let _v = *c.rd(&x);
                        let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        cur.fetch_sub(1, Ordering::SeqCst);
                    },
                );
            }
            0
        });
        let _ = peak_seen;
        assert!(peak.load(Ordering::SeqCst) >= 2, "readers never overlapped");
    }

    #[test]
    fn hierarchical_parent_waits_for_child_write() {
        let exec = ThreadedExecutor::new(4);
        let (v, _) = run(&exec, |ctx| {
            let x = ctx.create(0.0f64);
            ctx.withonly(
                "parent",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    *c.wr(&x) = 1.0;
                    c.withonly(
                        "child",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c2| {
                            *c2.wr(&x) += 10.0;
                        },
                    );
                    // Serial semantics: this read sees the child's write.
                    let seen = *c.rd(&x);
                    *c.wr(&x) = seen * 2.0;
                },
            );
            *ctx.rd(&x)
        });
        assert_eq!(v, 22.0);
    }

    #[test]
    fn deferred_pipeline_overlaps_and_preserves_values() {
        let exec = ThreadedExecutor::new(4);
        let (sum, stats) = run(&exec, |ctx| {
            let cols: Vec<Shared<f64>> = (0..6).map(|_| ctx.create(0.0f64)).collect();
            let out = ctx.create(0.0f64);
            // Producers, in order.
            for (i, &c) in cols.iter().enumerate() {
                ctx.withonly(
                    "produce",
                    |s| {
                        s.rd_wr(c);
                    },
                    move |cc| {
                        *cc.wr(&c) = (i + 1) as f64;
                    },
                );
            }
            // Consumer with deferred reads: starts immediately,
            // converts column by column (§4.2 backsubst pattern).
            let cols_spec = cols.clone();
            let cols2 = cols.clone();
            ctx.withonly(
                "consume",
                |s| {
                    s.rd_wr(out);
                    for &c in &cols_spec {
                        s.df_rd(c);
                    }
                },
                move |cc| {
                    let mut acc = 0.0;
                    for &c in &cols2 {
                        cc.with_cont(|b| {
                            b.to_rd(c);
                        });
                        acc += *cc.rd(&c);
                        cc.with_cont(|b| {
                            b.no_rd(c);
                        });
                    }
                    *cc.wr(&out) = acc;
                },
            );
            *ctx.rd(&out)
        });
        assert_eq!(sum, 21.0);
        assert_eq!(stats.with_conts, 12);
    }

    #[test]
    fn suspend_creator_throttling_bounds_live_tasks() {
        let exec = ThreadedExecutor::new(2);
        let throttle = Throttle::SuspendCreator { hi: 8, lo: 4 };
        let (v, stats) = run_throttled(&exec, throttle, |ctx| {
            let xs: Vec<Shared<f64>> = (0..64).map(|i| ctx.create(i as f64)).collect();
            for &x in &xs {
                ctx.withonly(
                    "inc",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| {
                        *c.wr(&x) += 1.0;
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
        });
        assert_eq!(v, (0..64).map(|i| i as f64 + 1.0).sum::<f64>());
        assert!(stats.peak_live_tasks <= 9, "peak {}", stats.peak_live_tasks);
    }

    /// Tasks that create tasks never suspend, so no watermark can
    /// leave every live task waiting on a suspended creator: the
    /// parents here hold commute exclusivity their peers queue behind,
    /// at the lowest marks `validate` accepts.
    #[test]
    fn nested_creators_under_a_low_watermark_terminate() {
        for (hi, lo) in [(1, 1), (2, 1), (2, 2)] {
            let exec = ThreadedExecutor::new(2);
            let throttle = Throttle::SuspendCreator { hi, lo };
            let (v, stats) = run_throttled(&exec, throttle, |ctx| {
                let sum = ctx.create(0.0f64);
                let xs: Vec<Shared<f64>> = (0..8).map(|i| ctx.create(i as f64)).collect();
                for &x in &xs {
                    ctx.withonly(
                        "parent",
                        |s| {
                            s.cm(sum);
                            s.rd_wr(x);
                        },
                        move |c| {
                            *c.cm(&sum) += 1.0;
                            for _ in 0..3 {
                                c.withonly(
                                    "child",
                                    |s| {
                                        s.rd_wr(x);
                                    },
                                    move |c| {
                                        *c.wr(&x) += 1.0;
                                    },
                                );
                            }
                        },
                    );
                }
                *ctx.rd(&sum) + xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
            });
            assert_eq!(v, 8.0 + (0..8).map(|i| i as f64 + 3.0).sum::<f64>(), "hi {hi} lo {lo}");
            assert_eq!(stats.tasks_created, 32);
        }
    }

    #[test]
    fn matches_serial_elision_bitwise() {
        fn program<C: JadeCtx>(ctx: &mut C) -> Vec<f64> {
            let n = 12;
            let cells: Vec<Shared<f64>> =
                (0..n).map(|i| ctx.create(1.0 / (1.0 + i as f64))).collect();
            // Stencil-ish chain with overlapping declarations.
            for i in 1..n {
                let a = cells[i - 1];
                let b = cells[i];
                ctx.withonly(
                    "stencil",
                    |s| {
                        s.rd(a);
                        s.rd_wr(b);
                    },
                    move |c| {
                        let left = *c.rd(&a);
                        let mut bw = c.wr(&b);
                        *bw = (*bw + left) * 1.000244140625; // exact in f64
                    },
                );
            }
            cells.iter().map(|c| *ctx.rd(c)).collect()
        }
        let (serial, _) = jade_core::serial::run(program);
        for workers in [1, 2, 4, 8] {
            let exec = ThreadedExecutor::new(workers);
            let (par, _) = run(&exec, program);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn placement_hints_are_scheduling_neutral() {
        // Machine placements route tasks to specific worker deques;
        // results must be identical to unplaced execution.
        let exec = ThreadedExecutor::new(4);
        let (v, stats) = run(&exec, |ctx| {
            let xs: Vec<Shared<f64>> = (0..32).map(|i| ctx.create(i as f64)).collect();
            for (i, &x) in xs.iter().enumerate() {
                ctx.withonly(
                    "placed",
                    |s| {
                        s.rd_wr(x);
                        s.place(jade_core::ids::Placement::Machine(jade_core::ids::MachineId(
                            (i % 7) as u32,
                        )));
                    },
                    move |c| {
                        *c.wr(&x) += 1.0;
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
        });
        assert_eq!(v, (0..32).map(|i| i as f64 + 1.0).sum::<f64>());
        assert_eq!(stats.tasks_created, 32);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_access_panics_through_pool() {
        let exec = ThreadedExecutor::new(2);
        run(&exec, |ctx| {
            let a = ctx.create(0.0f64);
            let b = ctx.create(0.0f64);
            ctx.withonly(
                "bad",
                |s| {
                    s.rd(a);
                },
                move |c| {
                    let _ = *c.rd(&b);
                },
            );
            // Force the root to wait for the task result.
            let _ = *ctx.rd(&a);
        });
    }

    #[test]
    fn try_run_returns_task_panic_as_value_and_pool_is_reusable() {
        let exec = ThreadedExecutor::new(4);
        let err = exec
            .execute(RunConfig::new(), |ctx| {
                let a = ctx.create(0.0f64);
                ctx.withonly(
                    "boom",
                    |s| {
                        s.rd_wr(a);
                    },
                    move |_| {
                        panic!("task exploded: 42");
                    },
                );
                let _ = *ctx.rd(&a);
            })
            .expect_err("faulted run must return Err");
        match &err {
            JadeFault::TaskPanicked { message, .. } => {
                assert_eq!(message, "task exploded: 42")
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // The same executor value runs cleanly afterwards.
        let rep = exec
            .execute(RunConfig::new(), |ctx| {
                let a = ctx.create(1.0f64);
                ctx.withonly(
                    "inc",
                    |s| {
                        s.rd_wr(a);
                    },
                    move |c| {
                        *c.wr(&a) += 1.0;
                    },
                );
                *ctx.rd(&a)
            })
            .expect("clean run succeeds");
        assert_eq!(rep.result, 2.0);
    }

    #[test]
    fn panic_with_blocked_siblings_completes_without_hang() {
        // One writer panics while several siblings (and the root) are
        // blocked waiting on its result. Structured shutdown must wake
        // and cancel them all; the run returns instead of hanging.
        let exec = ThreadedExecutor::new(4);
        let err = exec
            .execute(RunConfig::new(), |ctx| {
                let x = ctx.create(0.0f64);
                ctx.withonly(
                    "bad-writer",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |_| {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("writer died");
                    },
                );
                for _ in 0..6 {
                    ctx.withonly(
                        "reader",
                        |s| {
                            s.rd(x);
                        },
                        move |c| {
                            let _ = *c.rd(&x);
                        },
                    );
                }
                let _ = *ctx.rd(&x);
            })
            .expect_err("writer panic must surface");
        assert!(matches!(err, JadeFault::TaskPanicked { .. }), "got {err:?}");
    }

    #[test]
    fn spec_violation_is_typed_not_stringly() {
        let exec = ThreadedExecutor::new(2);
        let err = exec
            .execute(RunConfig::new(), |ctx| {
                let a = ctx.create(0.0f64);
                let b = ctx.create(0.0f64);
                ctx.withonly(
                    "bad",
                    |s| {
                        s.rd(a);
                    },
                    move |c| {
                        let _ = *c.rd(&b);
                    },
                );
                let _ = *ctx.rd(&a);
            })
            .expect_err("undeclared access must fault");
        match &err {
            JadeFault::SpecViolation { error: JadeError::UndeclaredAccess { .. }, .. } => {}
            other => panic!("expected typed UndeclaredAccess violation, got {other:?}"),
        }
        // Source chain reaches the JadeError.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn leaked_guard_surfaces_as_typed_fault() {
        let exec = ThreadedExecutor::new(2);
        let err = exec
            .execute(RunConfig::new(), |ctx| {
                let a = ctx.create(0.0f64);
                ctx.withonly(
                    "leaky",
                    |s| {
                        s.rd(a);
                    },
                    move |c| {
                        let g = c.rd(&a);
                        std::mem::forget(g);
                    },
                );
                let _ = *ctx.rd(&a);
            })
            .expect_err("leaked guard must fault");
        assert!(
            matches!(&err, JadeFault::SpecViolation { error: JadeError::GuardLeaked { .. }, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn root_panic_is_reraised_not_wrapped() {
        let exec = ThreadedExecutor::new(2);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.execute(RunConfig::new(), |ctx| {
                let a = ctx.create(0.0f64);
                ctx.withonly(
                    "ok",
                    |s| {
                        s.rd_wr(a);
                    },
                    move |c| {
                        *c.wr(&a) += 1.0;
                    },
                );
                panic!("root gave up");
            })
        }))
        .expect_err("root panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "root gave up");
    }

    #[test]
    fn many_small_tasks_stress() {
        let exec = ThreadedExecutor::new(8);
        let (total, stats) = run(&exec, |ctx| {
            let buckets: Vec<Shared<f64>> = (0..32).map(|_| ctx.create(0.0f64)).collect();
            for i in 0..512 {
                let b = buckets[i % 32];
                ctx.withonly(
                    "bump",
                    |s| {
                        s.rd_wr(b);
                    },
                    move |c| {
                        *c.wr(&b) += 1.0;
                    },
                );
            }
            buckets.iter().map(|b| *ctx.rd(b)).sum::<f64>()
        });
        assert_eq!(total, 512.0);
        assert_eq!(stats.tasks_created, 512);
        assert_eq!(stats.tasks_finished, 512);
    }

    #[test]
    fn run_config_sets_workers_and_throttle() {
        let exec = ThreadedExecutor::new(1);
        let rep = exec
            .execute(
                RunConfig::new()
                    .with_workers(4)
                    .with_throttle(Throttle::SuspendCreator { hi: 8, lo: 4 }),
                |ctx| {
                    let xs: Vec<Shared<f64>> = (0..32).map(|i| ctx.create(i as f64)).collect();
                    for &x in &xs {
                        ctx.withonly(
                            "inc",
                            |s| {
                                s.rd_wr(x);
                            },
                            move |c| {
                                *c.wr(&x) += 1.0;
                            },
                        );
                    }
                    assert_eq!(ctx.machines(), 4);
                    xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
                },
            )
            .expect("clean run");
        assert_eq!(rep.workers, 4);
        assert_eq!(rep.result, (0..32).map(|i| i as f64 + 1.0).sum::<f64>());
        assert!(rep.stats.peak_live_tasks <= 9, "peak {}", rep.stats.peak_live_tasks);
    }

    #[test]
    fn execute_captures_timeline_and_contention() {
        let exec = ThreadedExecutor::new(4);
        let rep = exec
            .execute(RunConfig::new().profiled(), |ctx| {
                let x = ctx.create(0.0f64);
                for _ in 0..6 {
                    ctx.withonly(
                        "bump",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c| {
                            let cur = *c.rd(&x);
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            *c.wr(&x) = cur + 1.0;
                        },
                    );
                }
                *ctx.rd(&x)
            })
            .expect("clean run");
        assert_eq!(rep.result, 6.0);
        let tl = rep.timeline.as_ref().expect("timeline requested");
        assert_eq!(tl.slices().len(), 6);
        assert!(tl.slices().iter().all(|s| s.end_nanos >= s.start_nanos));
        // A serializing chain on one object: the contention profile
        // sees it whenever at least one access actually waited.
        let cp = tl.contention();
        if rep.stats.access_waits > 0 {
            assert!(cp.total_wait_nanos() > 0 || !cp.entries().is_empty());
        }
        // Critical path over a serializing chain covers every task,
        // and the bound can never promise less than what was measured.
        let crit = rep.critical_path().expect("trace + timeline present");
        assert_eq!(crit.length_tasks(), 6);
        assert!(crit.parallelism_bound() >= crit.measured_speedup() - 1e-9);
        let json = tl.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("bump"));
    }

    /// Observers hear about a run that faulted: the buffered events
    /// are delivered on the fault exit too, so the faulting task's own
    /// start is in the stream.
    #[test]
    fn faulted_run_still_delivers_its_events() {
        use jade_core::observe::EventCollector;
        let col = EventCollector::new();
        let fault = ThreadedExecutor::new(2)
            .execute(RunConfig::new().with_observer(col.observer()), |ctx| {
                let a = ctx.create(0.0f64);
                ctx.withonly(
                    "boom",
                    |s| {
                        s.rd_wr(a);
                    },
                    move |_| panic!("task exploded"),
                );
                let _ = *ctx.rd(&a);
            })
            .expect_err("the task panics");
        let JadeFault::TaskPanicked { task, .. } = fault else {
            panic!("expected TaskPanicked, got {fault:?}");
        };
        let started = col
            .events()
            .iter()
            .any(|e| e.task == task && matches!(e.kind, EventKind::TaskStarted { .. }));
        assert!(started, "the faulting task's TaskStarted must reach the observer");
    }

    #[test]
    fn no_observer_means_no_artifacts() {
        let exec = ThreadedExecutor::new(2);
        let rep = exec
            .execute(RunConfig::new(), |ctx| {
                let x = ctx.create(0.0f64);
                ctx.withonly(
                    "t",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| {
                        *c.wr(&x) += 1.0;
                    },
                );
                *ctx.rd(&x)
            })
            .expect("clean run");
        assert!(rep.trace.is_none());
        assert!(rep.timeline.is_none());
        assert!(rep.critical_path().is_none());
    }

    /// A serializing chain of `len` read-modify-write tasks on one
    /// object: each finish enables exactly one successor.
    fn chain_program(len: usize) -> impl FnOnce(&mut ThreadCtx) -> f64 + Send + 'static {
        move |ctx| {
            let x = ctx.create(0.0f64);
            for _ in 0..len {
                ctx.withonly(
                    "link",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| {
                        *c.wr(&x) += 1.0;
                    },
                );
            }
            *ctx.rd(&x)
        }
    }

    #[test]
    fn a_chain_runs_link_by_link() {
        let exec = ThreadedExecutor::new(2);
        let rep = exec.execute(RunConfig::new(), chain_program(64)).expect("clean run");
        assert_eq!(rep.result, 64.0);
        assert_eq!(rep.stats.tasks_created, 64);
        assert_eq!(rep.stats.tasks_finished, 64);
    }

    #[test]
    fn two_interleaved_chains_run_to_completion() {
        // Two independent chains created alternately: both finish and
        // the joint result is exact regardless of interleaving.
        let exec = ThreadedExecutor::new(2);
        let (v, stats) = run(&exec, |ctx| {
            let a = ctx.create(0.0f64);
            let b = ctx.create(0.0f64);
            for _ in 0..30 {
                ctx.withonly(
                    "a",
                    |s| {
                        s.rd_wr(a);
                    },
                    move |c| {
                        *c.wr(&a) += 1.0;
                    },
                );
                ctx.withonly(
                    "b",
                    |s| {
                        s.rd_wr(b);
                    },
                    move |c| {
                        *c.wr(&b) += 2.0;
                    },
                );
            }
            *ctx.rd(&a) + *ctx.rd(&b)
        });
        assert_eq!(v, 30.0 + 60.0);
        assert_eq!(stats.tasks_created, 60);
        assert_eq!(stats.tasks_finished, 60);
    }
}
