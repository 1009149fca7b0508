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
//! * **FIFO dispatch under one lock.** Admitted jobs wait in one
//!   queue, in admission order, inside the session's state; a free
//!   slot takes the oldest. Serial semantics makes every start order
//!   correct, so the session picks the simplest one.
//! * **Per-job isolation.** Every job gets its own [`RunConfig`],
//!   observers, [`Report`] and [`CancelSignal`]; a fault in one job is
//!   returned on that job's handle and touches nothing else.
//! * **Graceful drain.** [`Session::drain`] stops admission, runs the
//!   backlog dry, and joins the execution slots; [`Session::abort`]
//!   instead cancel-completes the backlog and trips every running
//!   job's signal (the backends' panic-safe cancel+shutdown machinery
//!   does the prompt part). Dropping a session drains gracefully.
//!
//! A job's path takes two kinds of lock: the session's state lock
//! (admission, dispatch, accounting) and its own cell's lock (status,
//! latency, outcome), never one inside the other.
//!
//! The one-shot [`Runtime::execute`] survives as [`run_one`]: validate
//! the config the way `submit` does, then run the job on the calling
//! thread — no session, no runner, so every pre-session caller keeps
//! its behavior (and its trait bounds).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::error::{JadeError, JadeFault};
use crate::ids::TaskId;
use crate::observe::{Event, EventKind, RuntimeObserver};
use crate::runtime::{CancelSignal, Report, RunConfig, Runtime};
use crate::stats::ServeStats;
use crate::sync::{Condvar, Mutex};

// ----------------------------------------------------------------------
// Identifiers and small public types
// ----------------------------------------------------------------------

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
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { queued, cap } => {
                write!(f, "session saturated: {queued} jobs queued (cap {cap}); retry later")
            }
            SubmitError::Draining => write!(f, "session is draining; no new jobs accepted"),
            SubmitError::Invalid(e) => write!(f, "job rejected: {e}"),
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
    /// opens a 1-slot session).
    pub slots: usize,
    /// Admission cap: jobs allowed to *wait* for a slot before
    /// [`SubmitError::Saturated`] pushes back.
    pub queue_cap: usize,
    /// Session-level observers receiving the `Job*` lifecycle events
    /// (per-job observers go in each job's [`RunConfig`]).
    pub observers: Vec<Box<dyn RuntimeObserver + Send>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { slots: 2, queue_cap: 64, observers: Vec::new() }
    }
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructuring: new fields cannot silently fall
        // out of the Debug rendering (same guard as RunConfig's).
        let ServeConfig { slots, queue_cap, observers } = self;
        f.debug_struct("ServeConfig")
            .field("slots", slots)
            .field("queue_cap", queue_cap)
            .field("observers", &observers.len())
            .finish()
    }
}

impl ServeConfig {
    /// The default server shape: 2 slots, a 64-job admission queue.
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

/// A queued job, type-erased: the closure captures the backend, the
/// config, the program and the job's cell, so the session core never
/// needs the job's result type — not even to cancel-complete it. It
/// returns the terminal status it published.
type ErasedJob = Box<dyn FnOnce(JobMode) -> JobStatus + Send>;

/// What a job ends with: its report or fault, or the payload of a
/// panic in its main program, which [`JobHandle::wait`] resumes.
type Outcome<R> = std::thread::Result<Result<Report<R>, JadeFault>>;

/// One job's cell, shared by its erased closure and its handle: one
/// lock over everything that changes, one condvar to wait for the end.
struct JobCell<R> {
    id: JobId,
    submitted_at: Instant,
    state: Mutex<JobState<R>>,
    done: Condvar,
}

struct JobState<R> {
    status: JobStatus,
    queue_nanos: u64,
    run_nanos: u64,
    /// Set with the terminal status; taken by [`JobHandle::wait`].
    outcome: Option<Outcome<R>>,
}

impl<R> JobCell<R> {
    /// Run the job (or, for [`JobMode::Cancel`], don't) and publish
    /// its outcome with its terminal status.
    fn complete(
        &self,
        mode: JobMode,
        run: impl FnOnce() -> Result<Report<R>, JadeFault>,
    ) -> JobStatus {
        let (status, run_nanos, outcome) = match mode {
            JobMode::Cancel => {
                (JobStatus::Cancelled, 0, Ok(Err(JadeFault::Cancelled { task: TaskId::ROOT })))
            }
            JobMode::Execute => {
                {
                    let mut st = self.state.lock();
                    st.status = JobStatus::Running;
                    st.queue_nanos = self.submitted_at.elapsed().as_nanos() as u64;
                }
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(run));
                let status = match &outcome {
                    Ok(Ok(_)) => JobStatus::Completed,
                    Ok(Err(JadeFault::Cancelled { .. })) => JobStatus::Cancelled,
                    _ => JobStatus::Faulted,
                };
                (status, started.elapsed().as_nanos() as u64, outcome)
            }
        };
        let mut st = self.state.lock();
        st.status = status;
        st.run_nanos = run_nanos;
        st.outcome = Some(outcome);
        drop(st);
        self.done.notify_all();
        status
    }
}

/// Metadata snapshot of one job, from [`JobHandle::report`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct JobReport {
    /// The job.
    pub id: JobId,
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
    cell: Arc<JobCell<R>>,
    session: Weak<SessionCore>,
}

impl<R> fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.cell.id)
            .field("status", &self.status())
            .finish()
    }
}

impl<R> JobHandle<R> {
    /// This job's id.
    pub fn id(&self) -> JobId {
        self.cell.id
    }

    /// Current lifecycle position.
    pub fn status(&self) -> JobStatus {
        self.cell.state.lock().status
    }

    /// Whether [`wait`](JobHandle::wait) would return immediately.
    pub fn is_finished(&self) -> bool {
        self.status().is_terminal()
    }

    /// Snapshot the job's metadata (status + queue/run latency).
    pub fn report(&self) -> JobReport {
        let st = self.cell.state.lock();
        JobReport {
            id: self.cell.id,
            status: st.status,
            queue_nanos: st.queue_nanos,
            run_nanos: st.run_nanos,
        }
    }

    /// Request cancellation. A job still in the admission queue is
    /// revoked outright (its `wait` returns
    /// [`JadeFault::Cancelled`]); a running job has its
    /// [`CancelSignal`] tripped and stops at the backend's next
    /// cancellation point. A job that already finished is unaffected.
    /// Cancellation is a request: a racing completion wins.
    pub fn cancel(&self) {
        // A session that is gone has settled every job it admitted.
        if let Some(session) = self.session.upgrade() {
            session.cancel(self.cell.id);
        }
    }

    /// Block until the job finishes and take its outcome: the job's
    /// own [`Report`] on success, its [`JadeFault`] otherwise. A panic
    /// in the job's main program resumes unwinding here, exactly as
    /// [`Runtime::execute`] would in its caller.
    pub fn wait(self) -> Result<Report<R>, JadeFault> {
        let mut st = self.cell.state.lock();
        while !st.status.is_terminal() {
            st = self.cell.done.wait(st);
        }
        let outcome = st.outcome.take().expect("terminal job without a stored outcome");
        drop(st);
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

// ----------------------------------------------------------------------
// The session
// ----------------------------------------------------------------------

/// An admitted job waiting for a slot.
struct Queued {
    id: JobId,
    cancel: CancelSignal,
    work: ErasedJob,
}

struct ServeState {
    /// Admitted jobs waiting for a slot, in admission order.
    queue: VecDeque<Queued>,
    /// The cancel signals of the jobs executing now.
    running: HashMap<JobId, CancelSignal>,
    draining: bool,
    next_job: u64,
    stats: ServeStats,
    observers: Vec<Box<dyn RuntimeObserver + Send>>,
}

/// The non-generic heart of a session, shared by runners and handles.
struct SessionCore {
    state: Mutex<ServeState>,
    /// Runners sleep here for admissions; drain wakes everyone.
    work_cv: Condvar,
    /// Drain sleeps here for quiescence (nothing queued or running).
    idle_cv: Condvar,
    queue_cap: usize,
    opened_at: Instant,
}

impl SessionCore {
    fn emit(&self, state: &mut ServeState, kind: EventKind) {
        if state.observers.is_empty() {
            return;
        }
        let ev =
            Event { nanos: self.opened_at.elapsed().as_nanos() as u64, task: TaskId::ROOT, kind };
        for obs in &mut state.observers {
            obs.on_event(&ev);
        }
    }

    fn note_idle(&self, state: &ServeState) {
        if state.queue.is_empty() && state.running.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    /// Account for jobs taken out of the queue unrun; the caller
    /// cancel-completes them once the state lock is released.
    fn revoke(&self, state: &mut ServeState, jobs: &[Queued]) {
        for job in jobs {
            state.stats.cancelled += 1;
            self.emit(state, EventKind::JobCancelled { job: job.id.0 });
        }
        self.note_idle(state);
    }

    /// Revoke `id` if it is still queued, or trip its signal if it is
    /// running; a finished job is left alone.
    fn cancel(&self, id: JobId) {
        let mut state = self.state.lock();
        if let Some(signal) = state.running.get(&id).cloned() {
            drop(state);
            signal.cancel();
        } else if let Some(pos) = state.queue.iter().position(|q| q.id == id) {
            let job = state.queue.remove(pos).expect("position is in range");
            self.revoke(&mut state, std::slice::from_ref(&job));
            drop(state);
            (job.work)(JobMode::Cancel);
        }
    }

    /// One execution slot: take the oldest queued job, run it, account
    /// for it; exit once the session drains dry.
    fn runner_loop(core: Arc<SessionCore>, slot: usize) {
        loop {
            let (id, work) = {
                let mut state = core.state.lock();
                let Queued { id, cancel, work } = loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.draining {
                        return;
                    }
                    state = core.work_cv.wait(state);
                };
                state.running.insert(id, cancel);
                state.stats.peak_running = state.stats.peak_running.max(state.running.len() as u64);
                core.emit(&mut state, EventKind::JobDispatched { job: id.0, slot });
                (id, work)
            };
            let status = work(JobMode::Execute);
            let mut state = core.state.lock();
            state.running.remove(&id);
            let kind = match status {
                JobStatus::Completed => {
                    state.stats.completed += 1;
                    EventKind::JobCompleted { job: id.0, ok: true }
                }
                JobStatus::Faulted => {
                    state.stats.faulted += 1;
                    EventKind::JobCompleted { job: id.0, ok: false }
                }
                _ => {
                    state.stats.cancelled += 1;
                    EventKind::JobCancelled { job: id.0 }
                }
            };
            core.emit(&mut state, kind);
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
            .field("queued", &state.queue.len())
            .field("running", &state.running.len())
            .field("draining", &state.draining)
            .finish()
    }
}

impl<B> Session<B>
where
    B: Runtime + Send + Sync + 'static,
{
    /// Open a session: spawn the execution slots. Prefer
    /// [`Runtime::open_session`].
    pub fn open(backend: B, cfg: ServeConfig) -> Self {
        let core = Arc::new(SessionCore {
            state: Mutex::new(ServeState {
                queue: VecDeque::new(),
                running: HashMap::new(),
                draining: false,
                next_job: 0,
                stats: ServeStats::default(),
                observers: cfg.observers,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            queue_cap: cfg.queue_cap,
            opened_at: Instant::now(),
        });
        let runners = (0..cfg.slots.max(1))
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

    /// Submit a job: validate its config, admit it if the queue has
    /// room, and return the typed [`JobHandle`] immediately. The job
    /// runs when a slot reaches it, in admission order.
    pub fn submit<R, F>(&self, mut cfg: RunConfig, program: F) -> Result<JobHandle<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut B::Ctx) -> R + Send + 'static,
    {
        let mut state = self.core.state.lock();
        if state.draining {
            state.stats.rejected_draining += 1;
            return Err(SubmitError::Draining);
        }
        if let Err(e) = cfg.validate() {
            state.stats.rejected_invalid += 1;
            return Err(SubmitError::Invalid(e));
        }
        if state.queue.len() >= self.core.queue_cap {
            state.stats.rejected_saturated += 1;
            return Err(SubmitError::Saturated {
                queued: state.queue.len(),
                cap: self.core.queue_cap,
            });
        }

        let id = JobId(state.next_job);
        state.next_job += 1;
        // The job's cancel signal: the caller's, if one is installed,
        // so external cancellation and handle cancellation coincide.
        let cancel = cfg.cancel.get_or_insert_with(CancelSignal::new).clone();
        let cell = Arc::new(JobCell {
            id,
            submitted_at: Instant::now(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                queue_nanos: 0,
                run_nanos: 0,
                outcome: None,
            }),
            done: Condvar::new(),
        });
        let work: ErasedJob = {
            let backend = Arc::clone(&self.backend);
            let cell = Arc::clone(&cell);
            Box::new(move |mode| cell.complete(mode, || backend.run_job(cfg, program)))
        };

        state.stats.submitted += 1;
        self.core.emit(&mut state, EventKind::JobSubmitted { job: id.0 });
        state.queue.push_back(Queued { id, cancel, work });
        state.stats.peak_queued = state.stats.peak_queued.max(state.queue.len() as u64);
        self.core.work_cv.notify_one();
        Ok(JobHandle { cell, session: Arc::downgrade(&self.core) })
    }

    /// Snapshot the session's admission/completion counters.
    pub fn stats(&self) -> ServeStats {
        self.core.state.lock().stats
    }

    /// Jobs currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.core.state.lock().queue.len()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.core.state.lock().running.len()
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
        let (revoked, running): (Vec<Queued>, Vec<CancelSignal>) = {
            let mut state = self.core.state.lock();
            state.draining = true;
            self.core.work_cv.notify_all();
            let revoked: Vec<Queued> = state.queue.drain(..).collect();
            self.core.revoke(&mut state, &revoked);
            (revoked, state.running.values().cloned().collect())
        };
        for job in revoked {
            (job.work)(JobMode::Cancel);
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
            while !state.queue.is_empty() || !state.running.is_empty() {
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
        ctx.withonly(
            "square",
            |s| {
                s.rd_wr(x);
            },
            move |c| {
                let v = *c.rd(&x);
                *c.wr(&x) = v * v;
            },
        );
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
        let session = Arc::new(
            SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(2)),
        );
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
        let session = Arc::new(
            SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(8)),
        );
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
    fn cancelled_queued_job_leaves_the_rest_in_admission_order() {
        use crate::observe::EventCollector;
        let collector = EventCollector::new();
        let session = Arc::new(SerialRuntime.open_session(
            ServeConfig::new().with_slots(1).with_queue_cap(8).with_observer(collector.observer()),
        ));
        let (release, blocked) = mpsc::channel::<()>();
        let blocker = session
            .submit(RunConfig::new(), move |_ctx| {
                blocked.recv().unwrap();
            })
            .unwrap();
        while session.running() == 0 {
            std::thread::yield_now();
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let [first, middle, last] = [1u32, 2, 3].map(|k| {
            let order = Arc::clone(&order);
            session.submit(RunConfig::new(), move |_ctx| order.lock().push(k)).unwrap()
        });
        middle.cancel();
        assert_eq!(session.queued(), 2, "the revoked job left the queue");

        release.send(()).unwrap();
        blocker.wait().unwrap();
        first.wait().unwrap();
        last.wait().unwrap();
        assert!(matches!(middle.wait().unwrap_err(), JadeFault::Cancelled { .. }));
        let stats = Arc::into_inner(session).expect("sole owner").drain().stats;
        assert_eq!((stats.completed, stats.cancelled), (3, 1));
        assert_eq!(*order.lock(), vec![1, 3]);
        let dispatched: Vec<u64> = collector
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::JobDispatched { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched, vec![0, 1, 3], "the revoked job 2 is never dispatched");
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
        let h =
            session.submit(RunConfig::new(), |_ctx| -> u32 { panic!("root exploded") }).unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| h.wait())).unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "root exploded");
        let stats = session.drain().stats;
        assert_eq!(stats.faulted, 1, "a panicked root counts as a faulted job");
        assert!(stats.is_settled());
    }

    #[test]
    fn abort_revokes_queued_and_report_tracks_latency() {
        let session =
            SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(8));
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
                EventKind::JobSubmitted { job: 0 },
                EventKind::JobDispatched { job: 0, slot: 0 },
                EventKind::JobCompleted { job: 0, ok: true },
            ]
        );
    }
}
