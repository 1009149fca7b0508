//! A [`JadeCtx`] that records a span around every construct a program
//! executes, then hands the call to the real context unchanged.
//!
//! This is how the traced run sees inside programs it does not own
//! (`jade_apps::cholesky::factor_program`, `lws::run_jade`,
//! `pmake::make_jade`): they are generic over `JadeCtx`, so running
//! them on `Traced<C>` brackets each `withonly`, each task body and
//! each guard acquisition from the outside, with no change to the
//! program or the runtime. The untraced run never constructs a
//! `Traced`, so it carries none of this code.
//!
//! Span names: `withonly` (creator-side call), `queue` (creation stamp
//! to body entry), `body`, `guard` (a `rd`/`wr`/`cm` acquisition inside
//! a task body), `join` (the same in the root program, where it waits
//! for outstanding tasks), `with_cont`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use jade_core::prelude::*;

use crate::spans::{self, NO_REQ};

/// Task index in creation order: the request id every span of one task
/// shares.
static NEXT_TASK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The task whose body this thread is running ([`NO_REQ`] outside
    /// any body, i.e. in the root program).
    static CURRENT: Cell<u64> = const { Cell::new(NO_REQ) };
}

/// Restart task numbering (call between repetitions).
pub fn reset_task_index() {
    NEXT_TASK.store(0, Ordering::Relaxed);
}

#[repr(transparent)]
pub struct Traced<C>(C);

impl<C: JadeCtx> Traced<C> {
    /// View a context as a traced one.
    pub fn wrap(ctx: &mut C) -> &mut Traced<C> {
        // SAFETY: `Traced<C>` is `#[repr(transparent)]` over its only
        // field `C`, so both types have the same layout and validity
        // and the pointer cast is exact. The returned borrow has the
        // lifetime of `ctx` and is the only live reference to it, and
        // `Traced` adds no invariant over `C`. Safe code has no
        // operation for this reborrow: task bodies receive `&mut C`
        // from the runtime and the wrapped body must be handed
        // `&mut Traced<C>`.
        unsafe { &mut *(ctx as *mut C).cast::<Traced<C>>() }
    }

    fn wrap_body<F>(body: F, req: u64, cause: u64) -> impl FnOnce(&mut C) + Send + 'static
    where
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let created = spans::now();
        move |ctx: &mut C| {
            let started = spans::now();
            spans::interval("queue", created, started, req, cause);
            let outer = CURRENT.with(|c| c.replace(req));
            {
                let _body = spans::span_caused_by("body", req, cause);
                body(Traced::wrap(ctx));
            }
            CURRENT.with(|c| c.set(outer));
        }
    }

    fn guard_span() -> spans::SpanGuard {
        let req = CURRENT.with(Cell::get);
        spans::span(if req == NO_REQ { "join" } else { "guard" }, req)
    }
}

impl<C: JadeCtx> JadeCtx for Traced<C> {
    fn create_named<T: Object>(&mut self, name: &str, value: T) -> Shared<T> {
        self.0.create_named(name, value)
    }

    fn withonly<S, F>(&mut self, label: &str, spec: S, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let req = NEXT_TASK.fetch_add(1, Ordering::Relaxed);
        let call = spans::span("withonly", req);
        let body = Self::wrap_body(body, req, call.id());
        self.0.withonly(label, spec, body);
    }

    fn withonly_ir<S, F>(&mut self, label: &str, spec: S, ir: TaskBodyIr, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let req = NEXT_TASK.fetch_add(1, Ordering::Relaxed);
        let call = spans::span("withonly", req);
        let body = Self::wrap_body(body, req, call.id());
        self.0.withonly_ir(label, spec, ir, body);
    }

    fn kernel(&mut self, name: &str, args: &[f64]) -> Result<Vec<f64>, JadeFault> {
        self.0.kernel(name, args)
    }

    fn with_cont<B>(&mut self, changes: B)
    where
        B: FnOnce(&mut ContBuilder),
    {
        let _s = spans::span("with_cont", CURRENT.with(Cell::get));
        self.0.with_cont(changes);
    }

    fn rd<T: Object>(&mut self, h: &Shared<T>) -> ReadGuard<T> {
        let _s = Self::guard_span();
        self.0.rd(h)
    }

    fn wr<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let _s = Self::guard_span();
        self.0.wr(h)
    }

    fn cm<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T> {
        let _s = Self::guard_span();
        self.0.cm(h)
    }

    fn charge(&mut self, work: f64) {
        self.0.charge(work);
    }

    fn machines(&self) -> usize {
        self.0.machines()
    }

    fn task(&self) -> TaskId {
        self.0.task()
    }
}
