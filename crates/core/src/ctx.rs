//! The Jade programming interface: what a task body sees.
//!
//! [`JadeCtx`] is the Rust rendering of the paper's language
//! constructs. A Jade program is a function generic over `C: JadeCtx`;
//! the same program text runs unmodified on the serial elision, the
//! shared-memory thread pool, and the heterogeneous message-passing
//! simulator — reproducing the paper's central portability claim
//! ("There are no source code modifications required to port Jade
//! applications between these platforms", §7).
//!
//! | Paper construct                      | This API                          |
//! |--------------------------------------|-----------------------------------|
//! | `double shared *v`                   | `Shared<Vec<f64>>`                |
//! | `withonly { spec } do (args) { ... }` | `ctx.withonly(label, spec, body)` |
//! | `rd(o); wr(o); rd_wr(o)`             | `SpecBuilder::{rd,wr,rd_wr}`      |
//! | `df_rd(o); df_wr(o)`                 | `SpecBuilder::{df_rd,df_wr}`      |
//! | `with { rd(o) } cont;`               | `ctx.with_cont(\|c\| { c.to_rd(o); })` |
//! | `with { no_rd(o) } cont;`            | `ctx.with_cont(\|c\| { c.no_rd(o); })` |
//! | §4.3 commuting update                | `SpecBuilder::cm` + `ctx.cm(&h)`  |
//! | reading/writing a shared object      | `ctx.rd(&h)` / `ctx.wr(&h)` guards |
//!
//! Guards perform Jade's *dynamic access checking*: acquiring one
//! verifies the declaration and its enabling, and the check is
//! amortized over every raw access made through the guard — exactly
//! the global-to-local translation + check the paper describes.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

use crate::error::{JadeError, JadeFault};
use crate::handle::{Object, Shared};
use crate::ids::{ObjectId, Placement, TaskId};
use crate::ir::TaskBodyIr;
use crate::spec::{AccessKind, ContBuilder, DeclRights, Declaration, SpecBuilder};
use crate::sync::{OwnedReadGuard, OwnedRwLock, OwnedWriteGuard, RwLock};

/// Per-object read/write hold counters. Guard acquisition and release
/// are plain atomic increments/decrements — no lock is taken on the
/// guard hot path once an object's cell exists.
#[derive(Debug, Default)]
struct HoldCell {
    reads: AtomicU32,
    writes: AtomicU32,
}

/// Tracks which guards a running task currently holds, so the runtime
/// can reject creating a child whose declarations conflict with a
/// guard still held by the creator (the child's serial position would
/// be ambiguous otherwise).
///
/// Counters are per-object atomics; the map of cells is behind an
/// `RwLock` that is write-locked only the first time a task touches an
/// object, so repeated guard acquisitions are lock-free on release and
/// read-locked (shared, uncontended) on acquire. The map itself hashes
/// with [`crate::fasthash::FastHasher`] — guard acquisition is on the
/// per-access hot path, where SipHash is measurable overhead.
#[derive(Debug, Clone, Default)]
pub struct HoldSet {
    cells: Arc<RwLock<crate::fasthash::FastMap<ObjectId, Arc<HoldCell>>>>,
}

impl HoldSet {
    /// Create an empty hold set.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, object: ObjectId) -> Arc<HoldCell> {
        if let Some(c) = self.cells.read().get(&object) {
            return c.clone();
        }
        self.cells.write().entry(object).or_default().clone()
    }

    /// Record acquisition of a guard; the returned token releases the
    /// hold when dropped. Commuting-update guards count as writes
    /// (they grant exclusive mutable access).
    pub fn acquire(&self, object: ObjectId, kind: AccessKind) -> HoldToken {
        let cell = self.cell(object);
        match kind {
            AccessKind::Read => cell.reads.fetch_add(1, Relaxed),
            AccessKind::Write | AccessKind::Commute => cell.writes.fetch_add(1, Relaxed),
        };
        HoldToken { cell, kind }
    }

    /// Whether a child declaring `rights` on `object` would conflict
    /// with guards currently held.
    pub fn conflicts(&self, object: ObjectId, rights: DeclRights) -> bool {
        match self.cells.read().get(&object) {
            None => false,
            Some(cell) => {
                let (reads, writes) = (cell.reads.load(Relaxed), cell.writes.load(Relaxed));
                if reads == 0 && writes == 0 {
                    return false;
                }
                // A held write guard conflicts with any child access;
                // a held read guard conflicts with a child write.
                writes > 0 || rights.write.is_active()
            }
        }
    }

    /// Whether any guard is currently held (used by executors to
    /// assert clean task completion).
    pub fn any_held(&self) -> bool {
        self.cells.read().values().any(|c| c.reads.load(Relaxed) > 0 || c.writes.load(Relaxed) > 0)
    }
}

/// RAII token recording one held guard.
#[derive(Debug)]
pub struct HoldToken {
    cell: Arc<HoldCell>,
    kind: AccessKind,
}

impl Drop for HoldToken {
    fn drop(&mut self) {
        match self.kind {
            AccessKind::Read => self.cell.reads.fetch_sub(1, Relaxed),
            AccessKind::Write | AccessKind::Commute => self.cell.writes.fetch_sub(1, Relaxed),
        };
    }
}

/// Shared read access to a shared object, checked against the task's
/// access specification.
pub struct ReadGuard<T: Object> {
    inner: OwnedReadGuard<T>,
    _hold: HoldToken,
}

impl<T: Object> ReadGuard<T> {
    /// Build a guard from the local version's lock and a hold token.
    /// Executor-internal; applications receive guards from `ctx.rd`.
    pub fn new(lock: Arc<OwnedRwLock<T>>, hold: HoldToken) -> Self {
        ReadGuard { inner: lock.read_owned(), _hold: hold }
    }
}

impl<T: Object> Deref for ReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive write access to a shared object, checked against the
/// task's access specification.
pub struct WriteGuard<T: Object> {
    inner: OwnedWriteGuard<T>,
    _hold: HoldToken,
}

impl<T: Object> WriteGuard<T> {
    /// Build a guard from the local version's lock and a hold token.
    pub fn new(lock: Arc<OwnedRwLock<T>>, hold: HoldToken) -> Self {
        WriteGuard { inner: lock.write_owned(), _hold: hold }
    }
}

impl<T: Object> Deref for WriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: Object> DerefMut for WriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// The execution context a Jade program runs against.
///
/// All Jade applications in this repository are written as functions
/// generic over `C: JadeCtx`, which is what makes them run unmodified
/// on every executor.
pub trait JadeCtx: Sized {
    /// Allocate a shared object with a debug name, returning its
    /// globally valid handle. The creating task holds an implicit
    /// immediate `rd_wr` declaration so it can initialize the object.
    fn create_named<T: Object>(&mut self, name: &str, value: T) -> Shared<T>;

    /// Allocate an anonymous shared object.
    fn create<T: Object>(&mut self, value: T) -> Shared<T> {
        self.create_named("object", value)
    }

    /// The `withonly { spec } do (args) { body }` construct: create a
    /// task whose body will execute with only the accesses declared by
    /// `spec`. The body runs asynchronously (or inline, in the serial
    /// elision); Jade guarantees the observable results equal those of
    /// inline execution here.
    ///
    /// # Panics
    /// Panics with a [`JadeError`] description if the specification
    /// violates the Jade rules (uncovered child access, unknown
    /// object, conflict with a guard the creator still holds).
    fn withonly<S, F>(&mut self, label: &str, spec: S, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static;

    /// `withonly` with a portable task-body IR attached: `ir` is a
    /// declarative rendering of `body` as kernel calls over the
    /// declared objects (see [`crate::ir`]), and `body` is the closure
    /// fallback with identical observable behavior. Executors that
    /// cannot ship bodies ignore the IR and run the closure — which is
    /// exactly this default. The distributed backend overrides this to
    /// execute the IR on a remote worker against object replicas.
    ///
    /// The contract mirrors the paper's determinism requirement for
    /// task bodies: `ir` and `body` must compute bit-identical values
    /// for the declared objects, or backends diverge.
    fn withonly_ir<S, F>(&mut self, label: &str, spec: S, ir: TaskBodyIr, body: F)
    where
        S: FnOnce(&mut SpecBuilder),
        F: FnOnce(&mut Self) + Send + 'static,
    {
        let _ = ir;
        self.withonly(label, spec, body);
    }

    /// Run a named kernel from the builtin registry, on the machine
    /// executing the calling body. No backend overrides this: work
    /// reaches another machine only as a whole task body
    /// ([`JadeCtx::withonly_ir`]).
    fn kernel(&mut self, name: &str, args: &[f64]) -> Result<Vec<f64>, JadeFault> {
        match crate::kernels::KernelRegistry::builtin().lookup(name) {
            Some(k) => Ok(k(args)),
            None => Err(JadeFault::TaskPanicked {
                task: self.task(),
                message: format!("no kernel named '{name}' in the registry"),
            }),
        }
    }

    /// The `with { changes } cont;` construct: update the running
    /// task's access specification. Converting a deferred declaration
    /// to immediate may suspend the task until the access is enabled.
    fn with_cont<C>(&mut self, changes: C)
    where
        C: FnOnce(&mut ContBuilder);

    /// Checked read access (`rd` declared or converted). May suspend
    /// until the declaration is enabled (e.g. after a child task was
    /// created that writes the object).
    fn rd<T: Object>(&mut self, h: &Shared<T>) -> ReadGuard<T>;

    /// Checked write access (`wr`/`rd_wr` declared or converted).
    fn wr<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T>;

    /// Checked commuting-update access (`cm` declared, §4.3): grants
    /// exclusive mutable access like a write, but the runtime may
    /// schedule the declaring tasks' updates in any order. The update
    /// performed through the guard must genuinely commute with the
    /// other declared updates for results to stay deterministic.
    /// The exclusivity is held until the task completes or issues
    /// `no_cm` in a `with-cont`.
    fn cm<T: Object>(&mut self, h: &Shared<T>) -> WriteGuard<T>;

    /// Account `work` abstract work units to the running task. Real
    /// executors ignore this (wall-clock time is real); the
    /// discrete-event simulator advances the executing machine's clock
    /// by `work / machine_speed`.
    fn charge(&mut self, work: f64);

    /// Number of machines (or worker threads) in the executing
    /// platform — the paper's §4.5 gives programs access to this for
    /// granularity decisions.
    fn machines(&self) -> usize;

    /// The identity of the currently executing task.
    fn task(&self) -> TaskId;
}

std::thread_local! {
    static LAST_VIOLATION: std::cell::RefCell<Option<JadeError>> =
        const { std::cell::RefCell::new(None) };
}

/// Panic with a uniform message for programming-model violations.
///
/// The structured [`JadeError`] is stashed in a thread-local before
/// unwinding so executors that catch the panic can recover the typed
/// error (see [`classify_panic`]) instead of parsing the message.
#[cold]
pub fn violation(err: JadeError) -> ! {
    LAST_VIOLATION.with(|c| *c.borrow_mut() = Some(err.clone()));
    panic!("Jade programming model violation: {err}")
}

/// Classify a caught panic payload, on the thread that panicked (the
/// violation thread-local must be visible): its message, and the typed
/// error (taken from, and clearing, the thread-local) when the panic
/// came from [`violation`]. The thread-local is trusted only when the
/// payload is the exact message `violation` raised — a body that
/// caught a violation panic and then panicked differently is an
/// ordinary task panic.
pub fn classify_panic(payload: &(dyn std::any::Any + Send)) -> (String, Option<JadeError>) {
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "task panicked".to_string());
    let error = LAST_VIOLATION
        .with(|c| c.borrow_mut().take())
        .filter(|err| message == format!("Jade programming model violation: {err}"));
    (message, error)
}

/// Build the access specification of a child `parent` is creating and
/// reject it ([`JadeError::ChildConflictsWithHeldGuard`]) when a
/// declaration conflicts with a guard the parent still holds.
pub fn child_spec(
    parent: TaskId,
    holds: &HoldSet,
    spec: impl FnOnce(&mut SpecBuilder),
) -> (Vec<Declaration>, Placement) {
    let mut builder = SpecBuilder::new();
    spec(&mut builder);
    let (decls, placement) = builder.build();
    for d in &decls {
        if holds.conflicts(d.object, d.rights) {
            violation(JadeError::ChildConflictsWithHeldGuard { parent, object: d.object });
        }
    }
    (decls, placement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_set_counts_and_conflicts() {
        let hs = HoldSet::new();
        let o = ObjectId(1);
        assert!(!hs.conflicts(o, DeclRights::WR));
        let t = hs.acquire(o, AccessKind::Read);
        // Held read conflicts with child write but not child read.
        assert!(hs.conflicts(o, DeclRights::WR));
        assert!(!hs.conflicts(o, DeclRights::RD));
        drop(t);
        assert!(!hs.conflicts(o, DeclRights::WR));
    }

    #[test]
    fn held_write_conflicts_with_any_child_access() {
        let hs = HoldSet::new();
        let o = ObjectId(2);
        let _t = hs.acquire(o, AccessKind::Write);
        assert!(hs.conflicts(o, DeclRights::RD));
        assert!(hs.conflicts(o, DeclRights::WR));
        assert!(hs.any_held());
    }

    #[test]
    fn guards_deref_to_value() {
        let hs = HoldSet::new();
        let lock = Arc::new(OwnedRwLock::new(vec![1.0f64, 2.0]));
        {
            let g = ReadGuard::new(lock.clone(), hs.acquire(ObjectId(1), AccessKind::Read));
            assert_eq!(g[1], 2.0);
        }
        {
            let mut g = WriteGuard::new(lock.clone(), hs.acquire(ObjectId(1), AccessKind::Write));
            g[0] = 9.0;
        }
        assert!(!hs.any_held());
        assert_eq!(lock.read_owned()[0], 9.0);
    }
}
