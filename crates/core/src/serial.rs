//! The serial elision: run a Jade program exactly as its underlying
//! sequential program, with full dynamic access checking.
//!
//! Every `withonly` body executes inline at its creation point — the
//! definition of the serial semantics every parallel execution must
//! reproduce. This executor is therefore:
//!
//! * the *reference* against which the determinism tests compare the
//!   threaded and simulated executions bit-for-bit;
//! * a debugging tool, exactly as the paper advertises: "Jade
//!   programmers can employ the same standard techniques used to
//!   debug serial programs" — specification errors (undeclared
//!   accesses, uncovered child declarations) surface here without any
//!   concurrency involved.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use crate::ctx::{child_spec, classify_panic, violation, HoldSet, JadeCtx, ReadGuard, WriteGuard};
use crate::error::JadeFault;
use crate::graph::{AccessStatus, DepGraph, Wake};
use crate::handle::{Object, Shared};
use crate::ids::TaskId;
use crate::observe::{Event, EventKind, ObserverHub};
use crate::runtime::{CancelSignal, Report, RunConfig, Runtime};
use crate::spec::{AccessKind, ContBuilder, SpecBuilder};
use crate::stats::RuntimeStats;
use crate::store::{ObjectStore, Slot};
use crate::sync::OwnedRwLock;
use crate::trace::TaskGraphTrace;

/// Execution context for the serial elision.
pub struct SerialCtx {
    engine: DepGraph,
    store: ObjectStore,
    current: TaskId,
    holds: Vec<(TaskId, HoldSet)>,
    virtual_work: f64,
    hub: ObserverHub,
    t0: Instant,
    cancel: Option<CancelSignal>,
}

/// Marker payload the serial elision unwinds with when a run observes
/// its [`CancelSignal`] at a task boundary; `run_job` catches it and
/// classifies the run as [`JadeFault::Cancelled`].
struct SerialCancelMarker;

impl SerialCtx {
    fn new(trace: bool, hub: ObserverHub) -> Self {
        let mut engine = DepGraph::new();
        if trace {
            engine.enable_trace();
        }
        SerialCtx {
            engine,
            store: ObjectStore::new(),
            current: TaskId::ROOT,
            holds: vec![(TaskId::ROOT, HoldSet::new())],
            virtual_work: 0.0,
            hub,
            t0: Instant::now(),
            cancel: None,
        }
    }

    fn emit(&mut self, task: TaskId, kind: EventKind) {
        let nanos = self.t0.elapsed().as_nanos() as u64;
        self.hub.emit(Event { nanos, task, kind });
    }

    fn hold_set(&self) -> &HoldSet {
        &self.holds.last().expect("hold stack never empty").1
    }

    /// The dynamic access check behind `rd`/`wr`/`cm`.
    fn checked_access<T: Object>(
        &mut self,
        h: &Shared<T>,
        kind: AccessKind,
    ) -> Arc<OwnedRwLock<T>> {
        match self.engine.check_access(self.current, h.id(), kind) {
            Ok(AccessStatus::Granted) => {}
            Ok(AccessStatus::MustWait) => {
                unreachable!("serial elision: access by {} to {} cannot wait", self.current, h.id())
            }
            Err(e) => violation(e),
        }
        self.store.typed(h).unwrap_or_else(|e| violation(e))
    }

    /// Total abstract work charged so far (all tasks).
    pub fn charged_work(&self) -> f64 {
        self.virtual_work
    }

    /// Engine statistics accumulated so far.
    pub fn stats(&self) -> RuntimeStats {
        self.engine.stats()
    }
}

/// Run a Jade program serially; returns its result and the runtime
/// statistics (declarations, checks, conflicts...).
pub fn run<R>(program: impl FnOnce(&mut SerialCtx) -> R) -> (R, RuntimeStats) {
    let mut ctx = SerialCtx::new(false, ObserverHub::inactive());
    let r = program(&mut ctx);
    let stats = ctx.engine.stats();
    (r, stats)
}

/// Run serially with dynamic task-graph capture (Figure 4).
pub fn run_traced<R>(program: impl FnOnce(&mut SerialCtx) -> R) -> (R, TaskGraphTrace) {
    let mut ctx = SerialCtx::new(true, ObserverHub::inactive());
    let r = program(&mut ctx);
    let trace = ctx.engine.take_trace().expect("trace enabled");
    (r, trace)
}

/// The serial elision as a [`Runtime`] backend: same inline execution
/// as [`run`], surfaced through the uniform `execute` entry point so
/// conformance tests and app binaries can swap it in for the parallel
/// executors. `workers`/`throttle` options are ignored (there is one
/// lane and nothing to throttle); trace, timeline and observers are
/// honored.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialRuntime;

impl Runtime for SerialRuntime {
    type Ctx = SerialCtx;

    fn run_job<R, F>(&self, mut cfg: RunConfig, program: F) -> Result<Report<R>, JadeFault>
    where
        R: Send + 'static,
        F: FnOnce(&mut SerialCtx) -> R + Send + 'static,
    {
        let hub = cfg.take_hub();
        let mut ctx = SerialCtx::new(cfg.trace, hub);
        ctx.cancel = cfg.cancel.clone();
        match catch_unwind(AssertUnwindSafe(|| program(&mut ctx))) {
            Ok(result) => {
                let elapsed = ctx.t0.elapsed().as_nanos() as u64;
                let stats = ctx.engine.stats();
                let trace = ctx.engine.take_trace();
                let hub = std::mem::replace(&mut ctx.hub, ObserverHub::inactive());
                let mut rep = Report::new(result, stats, elapsed, 1);
                rep.trace = trace;
                rep.timeline = hub.finish(elapsed.max(1));
                Ok(rep)
            }
            Err(payload) => {
                if payload.is::<SerialCancelMarker>() {
                    return Err(JadeFault::Cancelled { task: TaskId::ROOT });
                }
                let (message, violation) = classify_panic(payload.as_ref());
                if let Some(error) = violation {
                    let task = error.task_hint().unwrap_or(ctx.current);
                    return Err(JadeFault::SpecViolation { task, error });
                }
                if ctx.current.is_root() {
                    // The main program itself panicked: not a task
                    // fault, propagate to the caller unchanged.
                    resume_unwind(payload);
                }
                Err(JadeFault::TaskPanicked { task: ctx.current, message })
            }
        }
    }
}

impl JadeCtx for SerialCtx {
    fn create_named<T: Object>(&mut self, name: &str, value: T) -> Shared<T> {
        let oid = self.engine.create_object(self.current);
        self.store.insert(oid, Slot::new(name, value));
        Shared::from_raw(oid)
    }

    fn withonly<S, F>(&mut self, label: &str, spec: S, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        // The serial elision's cancellation point: between tasks, so a
        // cancelled run never tears a task body in half.
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            std::panic::panic_any(SerialCancelMarker);
        }
        let (decls, placement) = child_spec(self.current, self.hold_set(), spec);
        let (tid, wakes) = self
            .engine
            .create_task(self.current, label, decls, placement)
            .unwrap_or_else(|e| violation(e));
        debug_assert!(
            wakes.contains(&Wake::Ready(tid)),
            "serial elision: every earlier task already completed, so the new task \
             must be immediately ready"
        );
        if self.hub.is_active() {
            let parent = self.current;
            self.emit(tid, EventKind::TaskCreated { parent, label: label.to_string() });
            self.emit(tid, EventKind::TaskEnabled);
            self.emit(tid, EventKind::TaskDispatched { worker: 0 });
        }
        self.engine.start_task(tid);
        if self.hub.is_active() {
            self.emit(tid, EventKind::TaskStarted { worker: 0 });
        }
        let saved = self.current;
        self.current = tid;
        self.holds.push((tid, HoldSet::new()));
        body(self);
        let (_, holds) = self.holds.pop().expect("frame pushed above");
        debug_assert!(!holds.any_held(), "task body leaked an access guard");
        self.current = saved;
        self.engine.finish_task(tid);
        if self.hub.is_active() {
            self.emit(tid, EventKind::TaskFinished { worker: 0 });
        }
    }

    fn with_cont<C>(&mut self, changes: C)
    where
        C: FnOnce(&mut ContBuilder),
    {
        let mut builder = ContBuilder::new();
        changes(&mut builder);
        let (must_block, _wakes) =
            self.engine.with_cont(self.current, builder.build()).unwrap_or_else(|e| violation(e));
        debug_assert!(
            !must_block,
            "serial elision: no earlier task can be outstanding, so with-cont never blocks"
        );
    }

    fn rd<T: Object>(&mut self, h: &Shared<T>) -> ReadGuard<T> {
        let lock = self.checked_access(h, AccessKind::Read);
        ReadGuard::new(lock, self.hold_set().acquire(h.id(), AccessKind::Read))
    }

    fn wr<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Write);
        WriteGuard::new(lock, self.hold_set().acquire(h.id(), AccessKind::Write))
    }

    fn cm<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let lock = self.checked_access(h, AccessKind::Commute);
        WriteGuard::new(lock, self.hold_set().acquire(h.id(), AccessKind::Commute))
    }

    fn charge(&mut self, work: f64) {
        self.virtual_work += work;
    }

    fn machines(&self) -> usize {
        1
    }

    fn task(&self) -> TaskId {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_run_inline_in_order() {
        let (result, stats) = run(|ctx| {
            let acc = ctx.create_named("acc", Vec::<f64>::new());
            for i in 0..5 {
                ctx.withonly(
                    &format!("push{i}"),
                    |s| {
                        s.rd_wr(acc);
                    },
                    move |c| {
                        c.wr(&acc).push(i as f64);
                    },
                );
            }
            ctx.rd(&acc).clone()
        });
        assert_eq!(result, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(stats.tasks_created, 5);
    }

    #[test]
    fn nested_tasks_respect_serial_order() {
        let (result, _) = run(|ctx| {
            let log = ctx.create_named("log", Vec::<u64>::new());
            ctx.withonly(
                "outer",
                |s| {
                    s.rd_wr(log);
                },
                move |c| {
                    c.wr(&log).push(1);
                    c.withonly(
                        "inner",
                        |s| {
                            s.rd_wr(log);
                        },
                        move |c2| {
                            c2.wr(&log).push(2);
                        },
                    );
                    c.wr(&log).push(3);
                },
            );
            ctx.rd(&log).clone()
        });
        assert_eq!(result, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_access_panics() {
        run(|ctx| {
            let a = ctx.create(1.0f64);
            let b = ctx.create(2.0f64);
            ctx.withonly(
                "bad",
                |s| {
                    s.rd(a);
                },
                move |c| {
                    let _ = *c.rd(&b); // b was never declared
                },
            );
        });
    }

    #[test]
    #[should_panic(expected = "did not declare")]
    fn uncovered_child_panics() {
        run(|ctx| {
            let a = ctx.create(0.0f64);
            ctx.withonly(
                "parent",
                |s| {
                    s.rd(a);
                },
                move |c| {
                    c.withonly(
                        "child",
                        |s| {
                            s.wr(a);
                        },
                        move |c2| {
                            *c2.wr(&a) = 1.0;
                        },
                    );
                },
            );
        });
    }

    #[test]
    #[should_panic(expected = "holding a conflicting access guard")]
    fn spawning_while_holding_conflicting_guard_panics() {
        run(|ctx| {
            let a = ctx.create(0.0f64);
            ctx.withonly(
                "parent",
                |s| {
                    s.rd_wr(a);
                },
                move |c| {
                    let _g = c.rd(&a);
                    c.withonly(
                        "child",
                        |s| {
                            s.wr(a);
                        },
                        move |c2| {
                            *c2.wr(&a) = 1.0;
                        },
                    );
                },
            );
        });
    }

    #[test]
    fn with_cont_pipeline_executes_serially() {
        let (v, stats) = run(|ctx| {
            let col = ctx.create_named("col", 0.0f64);
            ctx.withonly(
                "producer",
                |s| {
                    s.rd_wr(col);
                },
                move |c| {
                    *c.wr(&col) = 42.0;
                },
            );
            ctx.withonly(
                "consumer",
                |s| {
                    s.df_rd(col);
                },
                move |c| {
                    c.with_cont(|cb| {
                        cb.to_rd(col);
                    });
                    let _v = *c.rd(&col);
                    c.with_cont(|cb| {
                        cb.no_rd(col);
                    });
                },
            );
            *ctx.rd(&col)
        });
        assert_eq!(v, 42.0);
        assert_eq!(stats.with_conts, 2);
    }

    #[test]
    fn charge_accumulates_virtual_work() {
        let mut total = 0.0;
        let ((), _) = run(|ctx| {
            ctx.withonly("w", |_| {}, |c| c.charge(5.0));
            ctx.charge(2.0);
            total = ctx.charged_work();
        });
        assert_eq!(total, 7.0);
    }

    #[test]
    fn machines_is_one() {
        run(|ctx| assert_eq!(ctx.machines(), 1));
    }

    #[test]
    fn execute_reports_stats_and_requested_artifacts() {
        let rep = SerialRuntime
            .execute(RunConfig::new().profiled(), |ctx| {
                let acc = ctx.create_named("acc", 0.0f64);
                for i in 0..3 {
                    ctx.withonly(
                        &format!("add{i}"),
                        |s| {
                            s.rd_wr(acc);
                        },
                        move |c| {
                            *c.wr(&acc) += i as f64;
                        },
                    );
                }
                *ctx.rd(&acc)
            })
            .expect("clean run");
        assert_eq!(rep.result, 3.0);
        assert_eq!(rep.stats.tasks_created, 3);
        assert_eq!(rep.stats.tasks_finished, 3);
        assert_eq!(rep.workers, 1);
        let trace = rep.trace.as_ref().expect("trace requested");
        assert_eq!(trace.tasks().iter().filter(|t| !t.is_root()).count(), 3);
        let tl = rep.timeline.as_ref().expect("timeline requested");
        assert_eq!(tl.slices().len(), 3);
        assert!(tl.slices().iter().all(|s| s.worker == 0));
        assert!(rep.critical_path().is_some());
    }

    #[test]
    fn execute_without_artifacts_captures_nothing() {
        let rep = SerialRuntime
            .execute(RunConfig::new(), |ctx| {
                let x = ctx.create(1u64);
                ctx.withonly(
                    "t",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| *c.wr(&x) += 1,
                );
                *ctx.rd(&x)
            })
            .expect("clean run");
        assert_eq!(rep.result, 2);
        assert!(rep.trace.is_none() && rep.timeline.is_none());
    }

    #[test]
    fn execute_surfaces_violation_as_typed_fault() {
        let fault = SerialRuntime
            .execute(RunConfig::new(), |ctx| {
                let a = ctx.create(1.0f64);
                let b = ctx.create(2.0f64);
                ctx.withonly(
                    "bad",
                    |s| {
                        s.rd(a);
                    },
                    move |c| {
                        let _ = *c.rd(&b);
                    },
                );
            })
            .expect_err("undeclared access must fault");
        match fault {
            crate::error::JadeFault::SpecViolation { error, .. } => {
                assert!(matches!(error, crate::error::JadeError::UndeclaredAccess { .. }));
            }
            other => panic!("expected SpecViolation, got {other:?}"),
        }
    }

    #[test]
    fn execute_surfaces_task_panic_as_typed_fault() {
        let fault = SerialRuntime
            .execute(RunConfig::new(), |ctx| {
                ctx.withonly("boom", |_| {}, |_| panic!("task exploded"));
            })
            .expect_err("panicking task must fault");
        match fault {
            crate::error::JadeFault::TaskPanicked { message, .. } => {
                assert!(message.contains("task exploded"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }
}
