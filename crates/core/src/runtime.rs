//! The uniform entry point for executing a Jade program.
//!
//! The paper's Jade has exactly one way to run a program — the serial
//! semantics, extracted in parallel. Our reproduction grew three:
//! `run`, `try_run` and `run_traced` on the thread pool, plus a
//! separate jade-sim surface, each exposing a different incompatible
//! slice of introspection. This module collapses them into one:
//!
//! ```text
//! Runtime::execute(RunConfig, program) -> Result<Report<R>, JadeFault>
//! ```
//!
//! implemented uniformly by the serial elision
//! ([`crate::serial::SerialRuntime`]), the shared-memory thread pool
//! (`jade_threads::ThreadedExecutor`) and the heterogeneous simulator
//! (`jade_sim::SimExecutor`). [`RunConfig`] carries workers, throttle,
//! trace and observer options; [`Report`] bundles the program result,
//! [`RuntimeStats`], and every captured artifact (dynamic task graph,
//! per-worker timeline, backend extras).
//!
//! Since the job-server redesign ([`crate::serve`]), `execute` is the
//! *one-shot shim* over a richer submission surface: backends
//! implement the raw single-job engine [`Runtime::run_job`], and the
//! trait provides `execute` (validate the config, then `run_job` on
//! the calling thread) and
//! [`Runtime::open_session`], which returns a long-running
//! [`Session`](crate::serve::Session) multiplexing many concurrent
//! jobs onto the backend with bounded admission, dispatch in
//! admission order and graceful drain.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::ctx::JadeCtx;
use crate::error::{JadeError, JadeFault};
use crate::ids::TaskId;
use crate::observe::{ObserverHub, RuntimeObserver, Timeline};
use crate::serve::{ServeConfig, Session};
use crate::stats::{FaultStats, NetStats, RuntimeStats};
use crate::sync::Mutex;
use crate::trace::TaskGraphTrace;

/// A cooperative cancellation signal for one run (one job).
///
/// Cloned handles share the same flag: [`CancelSignal::cancel`] trips
/// it once and runs any hooks a backend registered. Executors honor
/// the signal at task boundaries — the thread pool additionally aborts
/// promptly through its panic-safe fault-shutdown machinery, so a
/// cancelled run returns [`JadeFault::Cancelled`] instead of finishing
/// its remaining tasks. Cancellation is a *request*: a run that
/// completes before observing the signal still returns its report.
#[derive(Clone, Default)]
pub struct CancelSignal {
    inner: Arc<CancelInner>,
}

#[derive(Default)]
struct CancelInner {
    flag: AtomicBool,
    hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl CancelSignal {
    /// A fresh, untripped signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the signal. Idempotent; the first call runs every
    /// registered hook (backends use hooks to wake blocked workers).
    pub fn cancel(&self) {
        if !self.inner.flag.swap(true, Ordering::SeqCst) {
            let hooks = std::mem::take(&mut *self.inner.hooks.lock());
            for h in hooks {
                h();
            }
        }
    }

    /// Whether [`CancelSignal::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::SeqCst)
    }

    /// Register a hook to run when the signal trips. If the signal is
    /// already tripped the hook runs immediately on this thread.
    /// No-lost-hook protocol: the flag is set *before* the hook list
    /// is drained, and this registration checks the flag *under* the
    /// list lock, so a concurrently tripping `cancel` either drains
    /// this hook or this call observes the flag and runs it directly.
    pub fn on_cancel(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let mut hooks = self.inner.hooks.lock();
        if self.inner.flag.load(Ordering::SeqCst) {
            drop(hooks);
            hook();
        } else {
            hooks.push(hook);
        }
    }
}

impl fmt::Debug for CancelSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelSignal")
            .field("cancelled", &self.is_cancelled())
            .field("hooks", &self.inner.hooks.lock().len())
            .finish()
    }
}

/// Task-creation throttling policy (§3.3 of the paper discusses the
/// cost of excess task creation; the executors bound it by suspending
/// the main program).
///
/// Honored by the thread pool, `jade-net` and the simulator; the
/// serial elision has nothing to throttle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Throttle {
    /// No throttling: create tasks as fast as the program does.
    #[default]
    None,
    /// Suspend the main program when it creates a task while `hi` are
    /// outstanding, and resume it when the backlog drains below `lo`.
    ///
    /// Only the main program (the root task) suspends, which is what
    /// makes any `1 <= lo <= hi` deadlock-free: the root's remainder
    /// follows every existing task in serial order, so no task waits
    /// on it and the backlog always drains. A task that creates tasks
    /// is never suspended — it holds access rights (and any commute
    /// exclusivity it acquired) that other outstanding tasks may be
    /// queued behind — so its children are not bounded by `hi`.
    SuspendCreator {
        /// Outstanding-task high-water mark.
        hi: u64,
        /// Resume threshold.
        lo: u64,
    },
}

/// Options for one [`Runtime::execute`] call: worker count, throttle,
/// which artifacts to capture, and observers to install.
///
/// ```
/// use jade_core::runtime::{RunConfig, Throttle};
/// let cfg = RunConfig::new()
///     .with_workers(4)
///     .with_throttle(Throttle::SuspendCreator { hi: 256, lo: 128 })
///     .with_trace()
///     .with_timeline();
/// ```
#[derive(Default)]
#[non_exhaustive]
pub struct RunConfig {
    /// Worker override; `None` uses the executor's own configuration.
    pub workers: Option<usize>,
    /// Task-creation throttle for this run (the one place it is set;
    /// executors carry none of their own).
    pub throttle: Throttle,
    /// Capture the dynamic task graph ([`Report::trace`]).
    pub trace: bool,
    /// Capture a per-worker timeline ([`Report::timeline`]).
    pub timeline: bool,
    /// User observers receiving every lifecycle event.
    pub observers: Vec<Box<dyn RuntimeObserver + Send>>,
    /// Cooperative cancellation signal for this run; installed by
    /// [`crate::serve::JobHandle::cancel`] or directly by the caller.
    pub cancel: Option<CancelSignal>,
}

impl fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exhaustive destructuring, not field access: adding a field
        // to RunConfig without listing it here is a compile error, so
        // new fields cannot silently fall out of the Debug rendering.
        let RunConfig { workers, throttle, trace, timeline, observers, cancel } = self;
        f.debug_struct("RunConfig")
            .field("workers", workers)
            .field("throttle", throttle)
            .field("trace", trace)
            .field("timeline", timeline)
            .field("observers", &observers.len())
            .field("cancel", &cancel.is_some())
            .finish()
    }
}

impl RunConfig {
    /// The default configuration: executor's own worker count, no
    /// throttle, no artifacts, no observers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the executor's worker (machine) count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Set the task-creation throttle policy.
    pub fn with_throttle(mut self, throttle: Throttle) -> Self {
        self.throttle = throttle;
        self
    }

    /// Capture the dynamic task graph.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Capture a per-worker timeline (enables Chrome-trace export and
    /// critical-path analysis).
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }

    /// Install a user observer.
    pub fn with_observer(mut self, observer: Box<dyn RuntimeObserver + Send>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Install a cooperative cancellation signal for the run.
    pub fn with_cancel(mut self, signal: CancelSignal) -> Self {
        self.cancel = Some(signal);
        self
    }

    /// Everything on: trace + timeline (and so the contention
    /// profile, [`Timeline::contention`]).
    pub fn profiled(self) -> Self {
        self.with_trace().with_timeline()
    }

    /// Validate the configuration, rejecting values no backend can
    /// honor meaningfully. Called by the submission surface
    /// ([`Runtime::execute`] and [`crate::serve::Session::submit`]),
    /// so a malformed config is a typed [`JadeError::InvalidConfig`]
    /// at submit time instead of backend-dependent clamping.
    pub fn validate(&self) -> Result<(), JadeError> {
        if self.workers == Some(0) {
            return Err(JadeError::InvalidConfig {
                field: "workers",
                reason: "worker count must be >= 1",
            });
        }
        if let Throttle::SuspendCreator { hi, lo } = self.throttle {
            // `lo == 0` would never resume; `1 <= lo <= hi` implies `hi >= 1`.
            if lo == 0 || lo > hi {
                return Err(JadeError::InvalidConfig {
                    field: "throttle",
                    reason: "SuspendCreator needs 1 <= lo <= hi",
                });
            }
        }
        Ok(())
    }

    /// Move the observer configuration out into the hub the executor
    /// emits into (leaves this config with no observers).
    pub fn take_hub(&mut self) -> ObserverHub {
        ObserverHub::new(self.timeline, std::mem::take(&mut self.observers))
    }
}

/// Everything one execution produced: the program's result, engine
/// statistics, elapsed time, and whichever artifacts [`RunConfig`]
/// requested.
#[derive(Debug)]
#[non_exhaustive]
pub struct Report<R> {
    /// The program's return value.
    pub result: R,
    /// Engine statistics for the run.
    pub stats: RuntimeStats,
    /// Elapsed time: wall-clock nanoseconds for real executors,
    /// simulated nanoseconds for jade-sim. Always ≥ 1.
    pub elapsed_nanos: u64,
    /// Workers (machines) the run was configured with.
    pub workers: usize,
    /// Dynamic task graph, if `RunConfig::with_trace` was set.
    pub trace: Option<TaskGraphTrace>,
    /// Per-worker timeline, if `RunConfig::with_timeline` was set.
    pub timeline: Option<Timeline>,
    /// Message-layer statistics, for backends that move data over a
    /// network (simulated or real sockets). `None` for shared-memory
    /// backends.
    pub net: Option<NetStats>,
    /// Fault-handling statistics: populated by fault-tolerant backends
    /// so a run that *recovered* from worker deaths reports what
    /// happened instead of erroring. `None` when the backend has no
    /// fault machinery.
    pub faults: Option<FaultStats>,
    /// Backend-specific extras (e.g. jade-sim's `SimReport` with
    /// network and fault statistics); access via [`Report::extra`].
    pub extras: Option<Box<dyn Any + Send>>,
}

impl<R> Report<R> {
    /// Build a report from the mandatory fields; artifact fields start
    /// empty and are filled in by the executor.
    ///
    /// Checks the lifecycle accounting identity: every created task
    /// ran to completion on the engine.
    pub fn new(result: R, stats: RuntimeStats, elapsed_nanos: u64, workers: usize) -> Self {
        debug_assert_eq!(
            stats.tasks_created, stats.tasks_finished,
            "task accounting out of balance: {} created vs {} finished",
            stats.tasks_created, stats.tasks_finished
        );
        Report {
            result,
            stats,
            elapsed_nanos: elapsed_nanos.max(1),
            workers,
            trace: None,
            timeline: None,
            net: None,
            faults: None,
            extras: None,
        }
    }

    /// Split into the legacy `(result, stats)` pair.
    pub fn into_parts(self) -> (R, RuntimeStats) {
        (self.result, self.stats)
    }

    /// Downcast the backend-specific extras.
    pub fn extra<T: 'static>(&self) -> Option<&T> {
        self.extras.as_deref().and_then(|e| e.downcast_ref::<T>())
    }

    /// Critical-path analysis over the captured task graph, weighting
    /// each task by its measured busy time. Requires both
    /// [`RunConfig::with_trace`] and [`RunConfig::with_timeline`].
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let trace = self.trace.as_ref()?;
        let timeline = self.timeline.as_ref()?;
        let busy = timeline.busy_by_task();
        let (critical_nanos, path) =
            trace.critical_path_weighted(|t| busy.get(&t).copied().unwrap_or(0));
        Some(CriticalPath {
            path,
            critical_nanos,
            work_nanos: busy.values().sum(),
            elapsed_nanos: self.elapsed_nanos,
        })
    }
}

/// The longest weighted dependence chain of a run and the speedup
/// bound it implies — the quantitative form of the paper's §8
/// discussion of how much parallelism the specifications expose.
///
/// With task weights taken as measured *busy* time (body span minus
/// engine waits), chains of immediately-declared tasks occupy disjoint
/// intervals of the run, so `critical_nanos ≤ elapsed_nanos` and the
/// bound dominates the measured speedup. Programs that pipeline via
/// `with_cont`/deferred declarations may overlap a consumer with its
/// producer; for those the bound is conservative (it assumes no
/// pipelining) and is reported as such.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Tasks along the longest weighted chain, in dependence order.
    pub path: Vec<TaskId>,
    /// Total busy time along that chain (`T_∞`, the span).
    pub critical_nanos: u64,
    /// Total busy time over all tasks (`W`, the work).
    pub work_nanos: u64,
    /// The run's elapsed time (`T_p`).
    pub elapsed_nanos: u64,
}

impl CriticalPath {
    /// Number of tasks on the critical path.
    pub fn length_tasks(&self) -> usize {
        self.path.len()
    }

    /// Achievable speedup bound `W / T_∞` (work over span). `1.0` for
    /// an empty program.
    pub fn parallelism_bound(&self) -> f64 {
        if self.critical_nanos == 0 {
            return if self.work_nanos == 0 { 1.0 } else { f64::INFINITY };
        }
        self.work_nanos as f64 / self.critical_nanos as f64
    }

    /// Measured speedup `W / T_p` (work over elapsed): how much faster
    /// the run was than executing its task bodies back-to-back.
    pub fn measured_speedup(&self) -> f64 {
        self.work_nanos as f64 / self.elapsed_nanos as f64
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "critical path {} tasks, {:.3}ms of {:.3}ms work; bound {:.2}x, measured {:.2}x",
            self.length_tasks(),
            self.critical_nanos as f64 / 1e6,
            self.work_nanos as f64 / 1e6,
            self.parallelism_bound(),
            self.measured_speedup()
        )
    }
}

/// A backend that can execute Jade programs: implemented by the
/// serial elision, the thread pool, the simulator and the
/// multi-process network backend, so every app binary is written once
/// against this trait.
///
/// Backends implement exactly one method — the raw single-job engine
/// [`Runtime::run_job`]. Callers use the provided submission surface:
/// [`Runtime::execute`] for a validated one-shot run, or
/// [`Runtime::open_session`] for a long-running job server
/// ([`crate::serve::Session`]) that accepts a continuous stream of
/// jobs with bounded admission, dispatch in admission order and
/// graceful drain.
///
/// ```
/// use jade_core::prelude::*;
/// use jade_core::serial::SerialRuntime;
///
/// let report = SerialRuntime
///     .execute(RunConfig::new(), |ctx| {
///         let x = ctx.create_named("x", 1.0f64);
///         ctx.withonly("double", |s| { s.rd_wr(x); }, move |c| {
///             *c.wr(&x) *= 2.0;
///         });
///         *ctx.rd(&x)
///     })
///     .expect("clean run");
/// assert_eq!(report.result, 2.0);
/// assert_eq!(report.stats.tasks_created, 1);
/// ```
pub trait Runtime {
    /// The execution context handed to the program.
    type Ctx: JadeCtx;

    /// The backend's raw single-job engine: run `program` under `cfg`
    /// to completion and return its [`Report`]. This is the method
    /// backends implement; callers should prefer [`Runtime::execute`]
    /// (which validates the config first) or a
    /// [`Session`](crate::serve::Session) from
    /// [`Runtime::open_session`].
    ///
    /// Programming-model violations surface as
    /// [`JadeFault::SpecViolation`]; a panic in a task body surfaces
    /// as [`JadeFault::TaskPanicked`]; a tripped
    /// [`RunConfig::cancel`] signal surfaces as
    /// [`JadeFault::Cancelled`]; a panic in the main program (the root
    /// task) resumes unwinding in the caller.
    fn run_job<R, F>(&self, cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut Self::Ctx) -> R + Send + 'static;

    /// Execute one job on the calling thread: the config is validated
    /// ([`RunConfig::validate`], as [`Session::submit`] does) and
    /// handed to [`Runtime::run_job`] — [`crate::serve::run_one`].
    fn execute<R, F>(&self, cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        Self: Sized,
        R: Send + 'static,
        F: FnOnce(&mut Self::Ctx) -> R + Send + 'static,
    {
        crate::serve::run_one(self, cfg, program)
    }

    /// Open a long-running job-server session on this backend: many
    /// concurrent jobs multiplexed onto the shared execution resources
    /// with bounded admission (queue cap + typed
    /// [`SubmitError::Saturated`](crate::serve::SubmitError)
    /// backpressure), dispatch in admission order and graceful drain.
    /// The backend is cloned into the session; clones share their
    /// configuration and the backend's threads (a `ThreadedExecutor`'s
    /// pool threads), not per-run state.
    fn open_session(&self, cfg: ServeConfig) -> Session<Self>
    where
        Self: Sized + Clone + Send + Sync + 'static,
    {
        Session::open(self.clone(), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_builders_compose() {
        let mut cfg = RunConfig::new()
            .with_workers(3)
            .with_throttle(Throttle::SuspendCreator { hi: 8, lo: 4 })
            .profiled();
        assert_eq!(cfg.workers, Some(3));
        assert_eq!(cfg.throttle, Throttle::SuspendCreator { hi: 8, lo: 4 });
        assert!(cfg.trace && cfg.timeline);
        let hub = cfg.take_hub();
        assert!(hub.is_active());
        // A bare config yields an inactive hub.
        let mut bare = RunConfig::new();
        assert!(!bare.take_hub().is_active());
    }

    #[test]
    fn run_config_debug_lists_every_field() {
        // Companion to the exhaustive destructuring in the Debug impl:
        // the destructuring makes *omitting* a new field a compile
        // error, and this test pins the rendering for the fields that
        // exist today (including the ones a naive impl would skip —
        // timeline, observers-as-count, cancel).
        let dbg = format!(
            "{:?}",
            RunConfig::new().with_workers(2).profiled().with_cancel(CancelSignal::new())
        );
        for field in ["workers", "throttle", "trace", "timeline", "observers", "cancel"] {
            assert!(dbg.contains(field), "RunConfig Debug output lost field {field:?}: {dbg}");
        }
        assert!(dbg.contains("observers: 0"), "observers renders as a count: {dbg}");
        assert!(dbg.contains("cancel: true"), "cancel renders as presence: {dbg}");
    }

    #[test]
    fn run_config_validation() {
        assert!(RunConfig::new().validate().is_ok());
        assert!(RunConfig::new().with_workers(1).validate().is_ok());
        let err = RunConfig::new().with_workers(0).validate().unwrap_err();
        assert!(matches!(err, JadeError::InvalidConfig { field: "workers", .. }), "{err:?}");
        assert!(err.to_string().contains("worker count must be >= 1"));

        let err = RunConfig::new()
            .with_throttle(Throttle::SuspendCreator { hi: 0, lo: 0 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, JadeError::InvalidConfig { field: "throttle", .. }));
        let err = RunConfig::new()
            .with_throttle(Throttle::SuspendCreator { hi: 4, lo: 9 })
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("1 <= lo <= hi"));
        let err = RunConfig::new()
            .with_throttle(Throttle::SuspendCreator { hi: 4, lo: 0 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, JadeError::InvalidConfig { field: "throttle", .. }), "never resumes");
        assert!(RunConfig::new()
            .with_throttle(Throttle::SuspendCreator { hi: 4, lo: 2 })
            .validate()
            .is_ok());
    }

    #[test]
    fn cancel_signal_hooks_fire_once_and_late_hooks_run_inline() {
        use std::sync::atomic::AtomicUsize;
        let sig = CancelSignal::new();
        assert!(!sig.is_cancelled());
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        sig.on_cancel(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        let clone = sig.clone();
        clone.cancel();
        clone.cancel(); // idempotent: hooks run exactly once
        assert!(sig.is_cancelled());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Registering after the trip runs the hook immediately.
        let f = fired.clone();
        sig.on_cancel(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert!(format!("{sig:?}").contains("cancelled: true"));
    }

    #[test]
    fn report_accounting_identity_holds() {
        let stats = RuntimeStats { tasks_created: 5, tasks_finished: 5, ..RuntimeStats::default() };
        let rep = Report::new(42u32, stats, 0, 4);
        assert_eq!(rep.result, 42);
        assert_eq!(rep.elapsed_nanos, 1, "elapsed is clamped to >= 1");
        assert_eq!(rep.workers, 4);
        assert!(rep.trace.is_none() && rep.timeline.is_none());
        let (r, s) = rep.into_parts();
        assert_eq!(r, 42);
        assert_eq!(s.tasks_created, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "task accounting out of balance")]
    fn report_accounting_imbalance_is_caught() {
        let stats = RuntimeStats { tasks_created: 5, tasks_finished: 3, ..RuntimeStats::default() };
        let _ = Report::new((), stats, 1, 1);
    }

    #[test]
    fn critical_path_numbers() {
        let cp = CriticalPath {
            path: vec![TaskId(1), TaskId(2)],
            critical_nanos: 250,
            work_nanos: 1000,
            elapsed_nanos: 500,
        };
        assert_eq!(cp.length_tasks(), 2);
        assert!((cp.parallelism_bound() - 4.0).abs() < 1e-12);
        assert!((cp.measured_speedup() - 2.0).abs() < 1e-12);
        assert!(cp.parallelism_bound() >= cp.measured_speedup());
        assert!(cp.summary().contains("bound 4.00x"));
        let empty =
            CriticalPath { path: vec![], critical_nanos: 0, work_nanos: 0, elapsed_nanos: 1 };
        assert_eq!(empty.parallelism_bound(), 1.0);
    }
}
