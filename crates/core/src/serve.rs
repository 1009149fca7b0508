//! Jade as a service: a long-running job server over any [`Runtime`].
//!
//! Every entry point used to be batch — build one program,
//! `execute(RunConfig)`, exit. This module redesigns the entry point
//! into a *session* API for the serving scenario (continuous traffic
//! from many clients):
//!
//! ```text
//! Runtime::open_session(ServeConfig) -> Session
//! Session::submit(RunConfig, program) -> JobHandle
//! JobHandle::wait() / cancel() / report()
//! ```
//!
//! A [`Session`] multiplexes many concurrent jobs onto one backend:
//!
//! * **Bounded admission.** At most `queue_cap` jobs wait for a slot;
//!   past that, [`Session::submit`] refuses with
//!   [`SubmitError::Saturated`] — a typed backpressure signal the
//!   client retries on, instead of unbounded queue growth.
//! * **Weighted fair dispatch.** Each registered client owns a lane in
//!   a stride-scheduling [`WeightedFairQueue`] (the same [`ReadyQueue`]
//!   policy boundary the executors dispatch through), so backlogged
//!   clients receive throughput proportional to their weight and no
//!   client starves.
//! * **Per-job isolation.** Every job gets its own [`RunConfig`],
//!   observers, [`Report`] and [`CancelSignal`]; a fault in one job is
//!   returned on that job's handle and touches nothing else.
//! * **Graceful drain.** [`Session::drain`] stops admission, runs the
//!   backlog dry, and joins the execution slots; [`Session::abort`]
//!   instead cancel-completes the backlog and trips every running
//!   job's signal (the backends' panic-safe cancel+shutdown machinery
//!   does the prompt part). Dropping a session drains gracefully.
//!
//! The one-shot [`Runtime::execute`] survives as [`run_one`]: validate
//! the config the way `submit` does, then run the job on the calling
//! thread — no session, no runner, so every pre-session caller keeps
//! its behavior (and its trait bounds).

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::{JadeError, JadeFault};
use crate::ids::TaskId;
use crate::observe::{Event, EventKind, RuntimeObserver};
use crate::readyq::{ReadyQueue, WeightedFairQueue};
use crate::runtime::{CancelSignal, Report, RunConfig, Runtime};
use crate::stats::ServeStats;
use crate::sync::{Condvar, Mutex};

// ----------------------------------------------------------------------
// Identifiers and small public types
// ----------------------------------------------------------------------

/// A client of the job server: the unit of fairness. Each client owns
/// one weighted lane in the session's fair queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub usize);

impl ClientId {
    /// The default client every session starts with (weight
    /// [`ServeConfig::default_weight`]); [`Session::submit`] submits
    /// on its behalf.
    pub const DEFAULT: ClientId = ClientId(0);
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// A job admitted into a session, in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for an execution slot.
    Queued,
    /// Executing on the backend.
    Running,
    /// Finished with an `Ok` report.
    Completed,
    /// Finished with a fault (or a root panic, which
    /// [`JobHandle::wait`] re-raises).
    Faulted,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobStatus {
    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Faulted | JobStatus::Cancelled)
    }
}

/// Why a submission was refused. Refusals are *admission* decisions —
/// nothing was queued and no resources are held; the caller may retry
/// ([`SubmitError::Saturated`] is the backpressure signal to do so
/// after easing off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; retry later.
    Saturated {
        /// Jobs currently waiting.
        queued: usize,
        /// The configured admission cap.
        cap: usize,
    },
    /// The session is draining and accepts no new work.
    Draining,
    /// The job's [`RunConfig`] failed [`RunConfig::validate`].
    Invalid(JadeError),
    /// The [`ClientId`] was never registered with this session.
    UnknownClient(ClientId),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { queued, cap } => {
                write!(f, "session saturated: {queued} jobs queued (cap {cap}); retry later")
            }
            SubmitError::Draining => write!(f, "session is draining; no new jobs accepted"),
            SubmitError::Invalid(e) => write!(f, "job rejected: {e}"),
            SubmitError::UnknownClient(c) => {
                write!(f, "{c} is not registered with this session")
            }
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Options for one [`Runtime::open_session`] call.
///
/// ```
/// use jade_core::serve::ServeConfig;
/// let cfg = ServeConfig::new().with_slots(4).with_queue_cap(128);
/// ```
#[non_exhaustive]
pub struct ServeConfig {
    /// Concurrent execution slots (runner threads): at least 1 (`0`
    /// opens a 1-slot session) and at most the backend's
    /// [`Runtime::max_concurrent_jobs`].
    pub slots: usize,
    /// Admission cap: jobs allowed to *wait* for a slot before
    /// [`SubmitError::Saturated`] pushes back.
    pub queue_cap: usize,
    /// Weight of the default client lane ([`ClientId::DEFAULT`]).
    pub default_weight: u64,
    /// Session-level observers receiving the `Job*` lifecycle events
    /// (per-job observers go in each job's [`RunConfig`]).
    pub observers: Vec<Box<dyn RuntimeObserver + Send>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { slots: 2, queue_cap: 64, default_weight: 1, observers: Vec::new() }
    }
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructuring: new fields cannot silently fall
        // out of the Debug rendering (same guard as RunConfig's).
        let ServeConfig { slots, queue_cap, default_weight, observers } = self;
        f.debug_struct("ServeConfig")
            .field("slots", slots)
            .field("queue_cap", queue_cap)
            .field("default_weight", default_weight)
            .field("observers", &observers.len())
            .finish()
    }
}

impl ServeConfig {
    /// The default server shape: 2 slots, a 64-job admission queue,
    /// one weight-1 default client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of concurrent execution slots.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Set the admission-queue capacity.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Set the default client's fairness weight.
    pub fn with_default_weight(mut self, weight: u64) -> Self {
        self.default_weight = weight.max(1);
        self
    }

    /// Install a session-level observer (sees `Job*` events).
    pub fn with_observer(mut self, observer: Box<dyn RuntimeObserver + Send>) -> Self {
        self.observers.push(observer);
        self
    }
}

/// What a finished (or dying) session hands back.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct DrainSummary {
    /// Final admission/completion counters. For a graceful drain
    /// [`ServeStats::is_settled`] holds: every admitted job completed,
    /// faulted, or was cancelled before the session returned.
    pub stats: ServeStats,
}

/// Run one job on a backend the validated way: reject a malformed
/// [`RunConfig`] with a typed [`JadeError::InvalidConfig`] (surfaced
/// as a root [`JadeFault::SpecViolation`]), then hand it to the
/// backend's raw engine. This *is* [`Runtime::execute`].
pub fn run_one<B, R, F>(backend: &B, cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
where
    B: Runtime + ?Sized,
    R: Send + 'static,
    F: FnOnce(&mut B::Ctx) -> R + Send + 'static,
{
    cfg.validate().map_err(|error| JadeFault::SpecViolation { task: TaskId::ROOT, error })?;
    backend.run_job(cfg, program)
}

// ----------------------------------------------------------------------
// Job plumbing (type-erased server side, typed handle side)
// ----------------------------------------------------------------------

/// How the server invokes a stored job closure.
enum JobMode {
    /// Run it on the backend.
    Execute,
    /// Complete it as cancelled without running it.
    Cancel,
}

/// What invoking a job closure concluded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DoneKind {
    Completed,
    Faulted,
    Cancelled,
}

/// A queued job, type-erased: the closure captures the backend, the
/// config, the program and the typed result cell, so the session core
/// never needs the job's result type — not even to cancel-complete it.
type ErasedJob = Box<dyn FnOnce(JobMode) -> DoneKind + Send>;

/// The typed outcome cell shared by the job closure and its handle.
enum Outcome<R> {
    Pending,
    /// Boxed: a `Report` is large, and the cell spends its life as
    /// `Pending`/`Taken`.
    Ready(Box<Result<Report<R>, JadeFault>>),
    /// The job's *root* panicked; [`JobHandle::wait`] resumes the
    /// unwind in the waiter, matching `execute`'s contract.
    Panicked(Box<dyn Any + Send>),
    Taken,
}

/// Untyped per-job state: status + latency bookkeeping, and the
/// condvar [`JobHandle::wait`] blocks on. The outcome-cell write
/// happens-before the terminal-status write (both orderings via the
/// `meta` lock), so a waiter that observes a terminal status can read
/// the cell without racing.
struct JobCore {
    id: JobId,
    client: ClientId,
    cancel: CancelSignal,
    submitted_at: Instant,
    meta: Mutex<JobMeta>,
    done_cv: Condvar,
}

struct JobMeta {
    status: JobStatus,
    queue_nanos: u64,
    run_nanos: u64,
}

impl JobCore {
    fn new(id: JobId, client: ClientId, cancel: CancelSignal) -> Arc<Self> {
        Arc::new(JobCore {
            id,
            client,
            cancel,
            submitted_at: Instant::now(),
            meta: Mutex::new(JobMeta { status: JobStatus::Queued, queue_nanos: 0, run_nanos: 0 }),
            done_cv: Condvar::new(),
        })
    }

    fn finish(&self, status: JobStatus, run_nanos: u64) {
        let mut meta = self.meta.lock();
        meta.status = status;
        meta.run_nanos = run_nanos;
        drop(meta);
        self.done_cv.notify_all();
    }
}

/// Metadata snapshot of one job, from [`JobHandle::report`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct JobReport {
    /// The job.
    pub id: JobId,
    /// The client it was submitted for.
    pub client: ClientId,
    /// Lifecycle position at snapshot time.
    pub status: JobStatus,
    /// Time spent waiting for an execution slot (0 while queued).
    pub queue_nanos: u64,
    /// Time spent executing (0 until finished).
    pub run_nanos: u64,
}

/// The caller's side of one submitted job.
///
/// [`wait`](JobHandle::wait) blocks for the job's own
/// [`Report`] — per-job isolation means a fault here is *this* job's
/// fault; [`cancel`](JobHandle::cancel) revokes a queued job outright
/// and trips a running job's [`CancelSignal`];
/// [`report`](JobHandle::report) snapshots status and latency without
/// consuming the handle.
pub struct JobHandle<R> {
    core: Arc<JobCore>,
    cell: Arc<Mutex<Outcome<R>>>,
    session: std::sync::Weak<SessionCore>,
}

impl<R> fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.core.id)
            .field("client", &self.core.client)
            .field("status", &self.status())
            .finish()
    }
}

impl<R> JobHandle<R> {
    /// This job's id.
    pub fn id(&self) -> JobId {
        self.core.id
    }

    /// The client the job was submitted for.
    pub fn client(&self) -> ClientId {
        self.core.client
    }

    /// Current lifecycle position.
    pub fn status(&self) -> JobStatus {
        self.core.meta.lock().status
    }

    /// Whether [`wait`](JobHandle::wait) would return immediately.
    pub fn is_finished(&self) -> bool {
        self.status().is_terminal()
    }

    /// Snapshot the job's metadata (status + queue/run latency).
    pub fn report(&self) -> JobReport {
        let meta = self.core.meta.lock();
        JobReport {
            id: self.core.id,
            client: self.core.client,
            status: meta.status,
            queue_nanos: meta.queue_nanos,
            run_nanos: meta.run_nanos,
        }
    }

    /// Request cancellation. A job still in the admission queue is
    /// revoked outright (its `wait` returns
    /// [`JadeFault::Cancelled`]); a running job has its
    /// [`CancelSignal`] tripped and stops at the backend's next
    /// cancellation point. A job that already finished is unaffected.
    /// Cancellation is a request: a racing completion wins.
    pub fn cancel(&self) {
        if let Some(session) = self.session.upgrade() {
            if SessionCore::revoke_queued(&session, self.core.id) {
                return;
            }
        }
        self.core.cancel.cancel();
    }

    /// Block until the job finishes and take its outcome: the job's
    /// own [`Report`] on success, its [`JadeFault`] otherwise. A panic
    /// in the job's main program resumes unwinding here, exactly as
    /// [`Runtime::execute`] would in its caller.
    pub fn wait(self) -> Result<Report<R>, JadeFault> {
        let mut meta = self.core.meta.lock();
        while !meta.status.is_terminal() {
            meta = self.core.done_cv.wait(meta);
        }
        drop(meta);
        let outcome = std::mem::replace(&mut *self.cell.lock(), Outcome::Taken);
        match outcome {
            Outcome::Ready(res) => *res,
            Outcome::Panicked(payload) => resume_unwind(payload),
            Outcome::Pending | Outcome::Taken => {
                unreachable!("terminal job without a stored outcome")
            }
        }
    }
}

// ----------------------------------------------------------------------
// The session
// ----------------------------------------------------------------------

/// A live (queued or running) job as the server tracks it. `work` is
/// `Some` while queued; the runner (or a revoking cancel) takes it.
struct LiveJob {
    work: Option<ErasedJob>,
    cancel: CancelSignal,
}

struct ServeState {
    jobs: HashMap<u64, LiveJob>,
    queued: usize,
    running: usize,
    draining: bool,
    next_job: u64,
    clients: usize,
    stats: ServeStats,
    observers: Vec<Box<dyn RuntimeObserver + Send>>,
}

/// The non-generic heart of a session, shared by runners and handles.
struct SessionCore {
    state: Mutex<ServeState>,
    /// Runners sleep here for admissions; drain wakes everyone.
    work_cv: Condvar,
    /// Drain sleeps here for quiescence (queued == 0 && running == 0).
    idle_cv: Condvar,
    /// Admitted-but-unclaimed jobs in weighted-fair dispatch order
    /// (`TaskId` carries the `JobId`, the push hint the client lane).
    /// Lock order: `state` before the queue's internal lock.
    queue: WeightedFairQueue,
    queue_cap: usize,
    opened_at: Instant,
}

impl SessionCore {
    fn emit(&self, state: &mut ServeState, kind: EventKind) {
        if state.observers.is_empty() {
            return;
        }
        let ev = Event {
            nanos: self.opened_at.elapsed().as_nanos() as u64,
            task: TaskId::ROOT,
            kind,
        };
        for obs in &mut state.observers {
            obs.on_event(&ev);
        }
    }

    fn note_idle(&self, state: &ServeState) {
        if state.queued == 0 && state.running == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Revoke a still-queued job: complete it as cancelled without
    /// running it. Returns false if the job already left the queue
    /// (running or finished) — the caller falls back to the signal.
    fn revoke_queued(core: &Arc<SessionCore>, id: JobId) -> bool {
        let work = {
            let mut state = core.state.lock();
            let Some(live) = state.jobs.get_mut(&id.0) else { return false };
            let Some(work) = live.work.take() else { return false };
            state.jobs.remove(&id.0);
            state.queued -= 1;
            state.stats.cancelled += 1;
            core.emit(&mut state, EventKind::JobCancelled { job: id.0 });
            if state.draining && state.queued == 0 {
                core.work_cv.notify_all();
            }
            core.note_idle(&state);
            work
        };
        // The stale TaskId stays in the fair queue; runners skip ids
        // with no live entry.
        work(JobMode::Cancel);
        true
    }

    /// One execution slot: claim jobs in fair order, run them, account
    /// for them; exit once the session drains dry.
    fn runner_loop(core: Arc<SessionCore>, slot: usize) {
        loop {
            let (id, work) = {
                let mut state = core.state.lock();
                let claimed = loop {
                    let mut claimed = None;
                    while let Some(tid) = core.queue.pop(slot) {
                        if let Some(live) = state.jobs.get_mut(&tid.0) {
                            if let Some(work) = live.work.take() {
                                claimed = Some((tid.0, work));
                                break;
                            }
                        }
                        // Stale id: the job was revoked while queued.
                    }
                    if let Some(c) = claimed {
                        break c;
                    }
                    if state.draining && state.queued == 0 {
                        return;
                    }
                    state = core.work_cv.wait(state);
                };
                state.queued -= 1;
                state.running += 1;
                state.stats.peak_running = state.stats.peak_running.max(state.running as u64);
                core.emit(&mut state, EventKind::JobDispatched { job: claimed.0, slot });
                if state.draining && state.queued == 0 {
                    core.work_cv.notify_all();
                }
                claimed
            };
            let kind = work(JobMode::Execute);
            let mut state = core.state.lock();
            state.running -= 1;
            state.jobs.remove(&id);
            match kind {
                DoneKind::Completed => {
                    state.stats.completed += 1;
                    core.emit(&mut state, EventKind::JobCompleted { job: id, ok: true });
                }
                DoneKind::Faulted => {
                    state.stats.faulted += 1;
                    core.emit(&mut state, EventKind::JobCompleted { job: id, ok: false });
                }
                DoneKind::Cancelled => {
                    state.stats.cancelled += 1;
                    core.emit(&mut state, EventKind::JobCancelled { job: id });
                }
            }
            core.note_idle(&state);
        }
    }
}

/// A long-running job server over one backend: the session API that
/// replaces one-shot `execute` for the serving scenario. Open with
/// [`Runtime::open_session`]; share between submitter threads behind
/// an `Arc`. Dropping the session drains it gracefully.
pub struct Session<B> {
    backend: Arc<B>,
    core: Arc<SessionCore>,
    runners: Mutex<Vec<JoinHandle<()>>>,
    drained: AtomicBool,
}

impl<B> fmt::Debug for Session<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.core.state.lock();
        f.debug_struct("Session")
            .field("queued", &state.queued)
            .field("running", &state.running)
            .field("draining", &state.draining)
            .finish()
    }
}

impl<B> Session<B>
where
    B: Runtime + Send + Sync + 'static,
{
    /// Open a session: spawn the execution slots (bounded by the
    /// backend's [`Runtime::max_concurrent_jobs`]) and register the
    /// default client. Prefer [`Runtime::open_session`].
    pub fn open(backend: B, cfg: ServeConfig) -> Self {
        let slots = cfg.slots.min(backend.max_concurrent_jobs()).max(1);
        let core = Arc::new(SessionCore {
            state: Mutex::new(ServeState {
                jobs: HashMap::new(),
                queued: 0,
                running: 0,
                draining: false,
                next_job: 0,
                clients: 1,
                stats: ServeStats::default(),
                observers: cfg.observers,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            queue: WeightedFairQueue::new(),
            queue_cap: cfg.queue_cap,
            opened_at: Instant::now(),
        });
        let lane = core.queue.add_lane(cfg.default_weight);
        debug_assert_eq!(lane, ClientId::DEFAULT.0);
        let runners = (0..slots)
            .map(|slot| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("jade-serve-{slot}"))
                    .spawn(move || SessionCore::runner_loop(core, slot))
                    .expect("spawn session runner")
            })
            .collect();
        Session {
            backend: Arc::new(backend),
            core,
            runners: Mutex::new(runners),
            drained: AtomicBool::new(false),
        }
    }

    /// Register a client lane with a fairness weight; jobs submitted
    /// via [`Session::submit_for`] with the returned id share dispatch
    /// throughput proportional to `weight` while backlogged.
    pub fn register_client(&self, weight: u64) -> ClientId {
        let mut state = self.core.state.lock();
        let lane = self.core.queue.add_lane(weight);
        debug_assert_eq!(lane, state.clients);
        state.clients += 1;
        ClientId(lane)
    }

    /// Submit a job for the default client. See
    /// [`Session::submit_for`].
    pub fn submit<R, F>(&self, cfg: RunConfig, program: F) -> Result<JobHandle<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut B::Ctx) -> R + Send + 'static,
    {
        self.submit_for(ClientId::DEFAULT, cfg, program)
    }

    /// Submit a job for `client`: validate its config, admit it if the
    /// queue has room, and return the typed [`JobHandle`] immediately.
    /// The job runs when the fair scheduler reaches it.
    pub fn submit_for<R, F>(
        &self,
        client: ClientId,
        mut cfg: RunConfig,
        program: F,
    ) -> Result<JobHandle<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut B::Ctx) -> R + Send + 'static,
    {
        let mut state = self.core.state.lock();
        if state.draining {
            state.stats.rejected_draining += 1;
            return Err(SubmitError::Draining);
        }
        if client.0 >= state.clients {
            return Err(SubmitError::UnknownClient(client));
        }
        if let Err(e) = cfg.validate() {
            state.stats.rejected_invalid += 1;
            return Err(SubmitError::Invalid(e));
        }
        if state.queued >= self.core.queue_cap {
            state.stats.rejected_saturated += 1;
            return Err(SubmitError::Saturated {
                queued: state.queued,
                cap: self.core.queue_cap,
            });
        }

        let id = JobId(state.next_job);
        state.next_job += 1;
        // The job's cancel signal: the caller's, if one is installed,
        // so external cancellation and handle cancellation coincide.
        let cancel = cfg.cancel.get_or_insert_with(CancelSignal::new).clone();
        let jcore = JobCore::new(id, client, cancel.clone());
        let cell: Arc<Mutex<Outcome<R>>> = Arc::new(Mutex::new(Outcome::Pending));
        let work: ErasedJob = {
            let backend = Arc::clone(&self.backend);
            let jcore = Arc::clone(&jcore);
            let cell = Arc::clone(&cell);
            Box::new(move |mode| match mode {
                JobMode::Cancel => {
                    *cell.lock() =
                        Outcome::Ready(Box::new(Err(JadeFault::Cancelled { task: TaskId::ROOT })));
                    jcore.finish(JobStatus::Cancelled, 0);
                    DoneKind::Cancelled
                }
                JobMode::Execute => {
                    {
                        let mut meta = jcore.meta.lock();
                        meta.status = JobStatus::Running;
                        meta.queue_nanos = jcore.submitted_at.elapsed().as_nanos() as u64;
                    }
                    let started = Instant::now();
                    let res = catch_unwind(AssertUnwindSafe(|| backend.run_job(cfg, program)));
                    let run_nanos = started.elapsed().as_nanos() as u64;
                    let (kind, status, outcome) = match res {
                        Ok(Ok(report)) => (
                            DoneKind::Completed,
                            JobStatus::Completed,
                            Outcome::Ready(Box::new(Ok(report))),
                        ),
                        Ok(Err(fault)) => {
                            if matches!(fault, JadeFault::Cancelled { .. }) {
                                (DoneKind::Cancelled, JobStatus::Cancelled,
                                 Outcome::Ready(Box::new(Err(fault))))
                            } else {
                                (DoneKind::Faulted, JobStatus::Faulted,
                                 Outcome::Ready(Box::new(Err(fault))))
                            }
                        }
                        Err(payload) => {
                            (DoneKind::Faulted, JobStatus::Faulted, Outcome::Panicked(payload))
                        }
                    };
                    *cell.lock() = outcome;
                    jcore.finish(status, run_nanos);
                    kind
                }
            })
        };

        state.stats.submitted += 1;
        self.core.emit(&mut state, EventKind::JobSubmitted { job: id.0, client: client.0 });
        let handle =
            JobHandle { core: jcore, cell, session: Arc::downgrade(&self.core) };

        state.jobs.insert(id.0, LiveJob { work: Some(work), cancel });
        state.queued += 1;
        state.stats.peak_queued = state.stats.peak_queued.max(state.queued as u64);
        self.core.queue.push(TaskId(id.0), Some(client.0));
        self.core.work_cv.notify_one();
        Ok(handle)
    }

    /// Snapshot the session's admission/completion counters.
    pub fn stats(&self) -> ServeStats {
        self.core.state.lock().stats
    }

    /// Jobs currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.core.state.lock().queued
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.core.state.lock().running
    }

    /// Stop admission, run the backlog dry, join the execution slots.
    /// Every job admitted before the drain completes normally; every
    /// handle already returned stays valid.
    pub fn drain(self) -> DrainSummary {
        let stats = self.drain_impl();
        DrainSummary { stats }
    }

    /// Stop admission and shut down *promptly*: revoke every queued
    /// job (their handles see [`JadeFault::Cancelled`]) and trip every
    /// running job's [`CancelSignal`], then drain what remains.
    pub fn abort(self) -> DrainSummary {
        let (queued, running): (Vec<JobId>, Vec<CancelSignal>) = {
            let mut state = self.core.state.lock();
            state.draining = true;
            self.core.work_cv.notify_all();
            let queued = state
                .jobs
                .iter()
                .filter(|(_, j)| j.work.is_some())
                .map(|(&id, _)| JobId(id))
                .collect();
            let running = state
                .jobs
                .values()
                .filter(|j| j.work.is_none())
                .map(|j| j.cancel.clone())
                .collect();
            (queued, running)
        };
        for id in queued {
            SessionCore::revoke_queued(&self.core, id);
        }
        for signal in running {
            signal.cancel();
        }
        let stats = self.drain_impl();
        DrainSummary { stats }
    }
}

// No bound on `B`: `Drop` drains too, and a `Drop` impl cannot add one.
impl<B> Session<B> {
    fn drain_impl(&self) -> ServeStats {
        if self.drained.swap(true, Ordering::SeqCst) {
            return self.core.state.lock().stats;
        }
        let stats = {
            let mut state = self.core.state.lock();
            state.draining = true;
            self.core.work_cv.notify_all();
            while state.queued > 0 || state.running > 0 {
                state = self.core.idle_cv.wait(state);
            }
            state.stats
        };
        for runner in self.runners.lock().drain(..) {
            let _ = runner.join();
        }
        debug_assert!(stats.is_settled(), "drained session with unaccounted jobs: {stats}");
        stats
    }
}

impl<B> Drop for Session<B> {
    fn drop(&mut self) {
        // Graceful by default: a dropped session behaves like drain().
        self.drain_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::JadeCtx;
    use crate::serial::SerialRuntime;
    use std::sync::mpsc;

    fn tiny(ctx: &mut impl JadeCtx) -> f64 {
        let x = ctx.create_named("x", 2.0f64);
        ctx.withonly("square", |s| { s.rd_wr(x); }, move |c| {
            let v = *c.rd(&x);
            *c.wr(&x) = v * v;
        });
        *ctx.rd(&x)
    }

    #[test]
    fn zero_slots_opens_a_working_one_slot_session() {
        let session = SerialRuntime.open_session(ServeConfig::new().with_slots(0));
        let handles: Vec<_> =
            (0..3).map(|_| session.submit(RunConfig::new(), tiny).unwrap()).collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().result, 4.0);
        }
        let stats = session.drain().stats;
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.peak_running, 1, "slots clamp to exactly one runner");
        assert!(stats.is_settled());
    }

    #[test]
    fn invalid_config_is_rejected_at_submit() {
        let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1));
        let err = session.submit::<f64, _>(RunConfig::new().with_workers(0), tiny).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Invalid(JadeError::InvalidConfig { field: "workers", .. })
        ));
        // The execute shim rejects the same way, as a root fault.
        let fault = SerialRuntime.execute(RunConfig::new().with_workers(0), tiny).unwrap_err();
        assert!(matches!(
            fault,
            JadeFault::SpecViolation { error: JadeError::InvalidConfig { .. }, .. }
        ));
        assert_eq!(session.stats().rejected_invalid, 1);
        drop(session);
    }

    #[test]
    fn saturation_pushes_back_and_drain_settles() {
        // One slot, occupied by a job blocked on `release`; cap 2.
        let session =
            Arc::new(SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(2)));
        let (release, blocked) = mpsc::channel::<()>();
        let blocker = session
            .submit(RunConfig::new(), move |_ctx| {
                blocked.recv().unwrap();
                0u32
            })
            .unwrap();
        // Wait until the blocker occupies the slot so admission
        // decisions below are deterministic.
        while session.running() == 0 {
            std::thread::yield_now();
        }
        let q1 = session.submit(RunConfig::new(), |_ctx| 1u32).unwrap();
        let q2 = session.submit(RunConfig::new(), |_ctx| 2u32).unwrap();
        let err = session.submit::<u32, _>(RunConfig::new(), |_ctx| 3u32).unwrap_err();
        assert!(matches!(err, SubmitError::Saturated { queued: 2, cap: 2 }), "{err:?}");
        assert_eq!(session.stats().rejected_saturated, 1);
        assert_eq!(session.queued(), 2, "the refused job was never admitted");

        release.send(()).unwrap();
        assert_eq!(blocker.wait().unwrap().result, 0);
        assert_eq!(q1.wait().unwrap().result, 1);
        assert_eq!(q2.wait().unwrap().result, 2);
        let stats = Arc::into_inner(session).expect("sole owner").drain().stats;
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.peak_queued, 2);
        assert!(stats.is_settled());
    }

    #[test]
    fn queued_job_cancels_without_running() {
        let session =
            Arc::new(SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(8)));
        let (release, blocked) = mpsc::channel::<()>();
        let blocker = session
            .submit(RunConfig::new(), move |_ctx| {
                blocked.recv().unwrap();
            })
            .unwrap();
        while session.running() == 0 {
            std::thread::yield_now();
        }
        let victim = session.submit(RunConfig::new(), |_ctx| 7u32).unwrap();
        assert_eq!(victim.status(), JobStatus::Queued);
        victim.cancel();
        assert_eq!(victim.status(), JobStatus::Cancelled);
        let fault = victim.wait().unwrap_err();
        assert!(matches!(fault, JadeFault::Cancelled { .. }));

        release.send(()).unwrap();
        blocker.wait().unwrap();
        let stats = Arc::into_inner(session).expect("sole owner").drain().stats;
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.is_settled());
    }

    #[test]
    fn draining_session_refuses_new_jobs() {
        let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1));
        let h = session.submit(RunConfig::new(), tiny).unwrap();
        let stats = session.drain().stats;
        assert_eq!(stats.submitted, 1);
        assert!(stats.is_settled());
        // The handle outlives the session.
        assert_eq!(h.wait().unwrap().result, 4.0);
    }

    #[test]
    fn job_panic_resumes_in_waiter() {
        let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1));
        let h = session
            .submit(RunConfig::new(), |_ctx| -> u32 { panic!("root exploded") })
            .unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| h.wait())).unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "root exploded");
        let stats = session.drain().stats;
        assert_eq!(stats.faulted, 1, "a panicked root counts as a faulted job");
        assert!(stats.is_settled());
    }

    #[test]
    fn abort_revokes_queued_and_report_tracks_latency() {
        let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(8));
        let (release, blocked) = mpsc::channel::<()>();
        let blocker = session
            .submit(RunConfig::new(), move |_ctx| {
                blocked.recv().unwrap();
            })
            .unwrap();
        while session.running() == 0 {
            std::thread::yield_now();
        }
        let queued = session.submit(RunConfig::new(), |_ctx| 1u8).unwrap();
        let rep = queued.report();
        assert_eq!(rep.status, JobStatus::Queued);
        assert_eq!(rep.run_nanos, 0);

        // Abort while the blocker still holds the only slot, so the
        // queued job cannot be started by a freed slot first: `abort`
        // revokes it, then drains — blocked on the blocker, because a
        // serial job has no cancellation point inside a blocked body.
        // Only once the revocation is visible is the blocker released.
        let aborter = std::thread::spawn(move || session.abort().stats);
        while queued.status() != JobStatus::Cancelled {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let stats = aborter.join().expect("abort does not panic");
        blocker.wait().unwrap();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.is_settled());
        assert!(matches!(queued.wait().unwrap_err(), JadeFault::Cancelled { .. }));
    }

    #[test]
    fn session_events_cover_the_job_lifecycle() {
        use crate::observe::EventCollector;
        let collector = EventCollector::new();
        let session = SerialRuntime
            .open_session(ServeConfig::new().with_slots(1).with_observer(collector.observer()));
        session.submit(RunConfig::new(), tiny).unwrap().wait().unwrap();
        drop(session);
        let kinds: Vec<EventKind> = collector.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::JobSubmitted { job: 0, client: 0 },
                EventKind::JobDispatched { job: 0, slot: 0 },
                EventKind::JobCompleted { job: 0, ok: true },
            ]
        );
    }
}
