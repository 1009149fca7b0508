//! The dependency engine's vocabulary, and its single-owner handle.
//!
//! Jade's serial-semantics state machine — per-object declaration
//! queues, task slots, §4.4 coverage, `with-cont`, access checks —
//! exists once, in [`crate::engine::ShardedEngine`]. This module holds
//! what every executor shares with it:
//!
//! * the types an executor sees: [`TaskState`], [`Wake`],
//!   [`AccessStatus`];
//! * the serial order of hierarchical tasks ([`path_precedes`]);
//! * [`DepGraph`], the engine as a *passive*, exclusively owned value
//!   for executors that drive it from one thread (the serial elision in
//!   [`crate::serial`] and the `jade-sim` event loop). It keeps no
//!   state of its own: it pairs one `ShardedEngine` with the one
//!   [`EngineScratch`] a single driver needs, and fuses the engine's
//!   two-phase task creation into one call.
//!
//! ## Serial order of hierarchical tasks
//!
//! Every task carries a *path*: the root is `[]`, the k-th child of a
//! task with path `p` is `p ++ [k]`. Serial execution order of two
//! distinct tasks is the lexicographic order of paths **except** that
//! an ancestor sorts *after* its descendants — a child's body runs at
//! its creation point, before the remainder of the parent. Queue
//! nodes are kept sorted by this order; inserting a new child's
//! declaration immediately before its parent's node preserves it
//! (children are created in index order).
//!
//! When a task needs a queue position on an object its parent never
//! declared (possible for objects created dynamically by other
//! subtrees), the engine materializes zero-rights *anchor* nodes for
//! the ancestor chain at the correct serial position; anchors never
//! block or grant anything, they only mark where a subtree's accesses
//! belong.

use crate::engine::{EngineScratch, ShardedEngine};
use crate::error::Result;
use crate::ids::{ObjectId, Placement, TaskId};
use crate::spec::{AccessKind, ContOp, DeclRights, Declaration};
use crate::stats::RuntimeStats;
use crate::trace::TaskGraphTrace;

/// Lifecycle of a task inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Created; some immediate declaration not yet enabled.
    Pending,
    /// All immediate declarations enabled; may start executing.
    Ready,
    /// Body executing.
    Running,
    /// Body suspended mid-execution waiting for a declaration to be
    /// enabled (a blocking `with-cont` conversion or a revoked access
    /// being re-acquired).
    Blocked,
    /// Body finished and queue positions released.
    Finished,
}

/// Scheduling notification produced by engine transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A pending task became ready to start.
    Ready(TaskId),
    /// A blocked (suspended) task may resume.
    Unblocked(TaskId),
}

/// Result of an access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessStatus {
    /// The access may proceed immediately.
    Granted,
    /// The task must suspend; the engine recorded what it waits for
    /// and will emit [`Wake::Unblocked`] when the wait is satisfied.
    MustWait,
}

/// `true` iff the task with path `a` strictly precedes the task with
/// path `b` in the serial execution order. An ancestor sorts *after*
/// all of its descendants.
pub fn path_precedes(a: &[u32], b: &[u32]) -> bool {
    let min = a.len().min(b.len());
    for i in 0..min {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    // One is a prefix of the other (or equal): the longer path is the
    // descendant and precedes its ancestor.
    a.len() > b.len()
}

/// The dependency engine, exclusively owned: every method delegates to
/// the [`ShardedEngine`] inside, whose documentation is the reference.
///
/// A finished task's id goes stale once its slab slot is recycled:
/// [`is_current`](Self::is_current) turns `false`, fallible methods
/// return [`JadeError::StaleTask`](crate::error::JadeError::StaleTask)
/// and the infallible accessors panic, so drivers must not query a
/// task after finishing it.
#[derive(Debug, Default)]
pub struct DepGraph {
    engine: ShardedEngine,
    scratch: EngineScratch,
}

impl DepGraph {
    /// Create an engine with a running root task (the main program).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable dynamic task-graph capture (Figure 4 reproduction).
    pub fn enable_trace(&mut self) {
        self.engine.enable_trace();
    }

    /// Take the captured trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<TaskGraphTrace> {
        self.engine.take_trace()
    }

    /// Current lifecycle state of a task.
    pub fn state(&self, t: TaskId) -> TaskState {
        self.engine.state(t)
    }

    /// Label given at creation.
    pub fn label(&self, t: TaskId) -> String {
        self.engine.label(t)
    }

    /// Placement requested for the task.
    pub fn placement(&self, t: TaskId) -> Placement {
        self.engine.placement(t)
    }

    /// Whether `t` still names its task (the slot was not recycled).
    pub fn is_current(&self, t: TaskId) -> bool {
        self.engine.is_current(t)
    }

    /// Number of created-but-unfinished tasks (root excluded); the
    /// executors' throttling policies read this.
    pub fn live_tasks(&self) -> u64 {
        self.engine.live_tasks()
    }

    /// The task's declarations: object and current rights (anchors
    /// excluded). The simulator uses this to drive object fetches.
    pub fn declarations_of(&self, t: TaskId) -> Vec<(ObjectId, DeclRights)> {
        self.engine.declarations_of(t)
    }

    /// A snapshot of the counters describing the engine's work.
    pub fn stats(&self) -> RuntimeStats {
        self.engine.stats.snapshot()
    }

    /// Debug-build consistency scan of every queue and pending task.
    pub fn check_invariants(&self) {
        self.engine.check_invariants();
    }

    /// Register a new shared object created by `creator`.
    pub fn create_object(&mut self, creator: TaskId) -> ObjectId {
        self.engine.create_object(creator)
    }

    /// Create a task: the engine half of `withonly`, allocation and
    /// specification attachment in one step. Returns the new task id
    /// and any wakes (including `Ready(new)` if it can start
    /// immediately). On a specification error the run is over: the
    /// half-created task stays allocated and is never dispatched.
    pub fn create_task(
        &mut self,
        parent: TaskId,
        label: &str,
        decls: Vec<Declaration>,
        placement: Placement,
    ) -> Result<(TaskId, Vec<Wake>)> {
        let tid = self.engine.alloc_task(parent, label, placement);
        self.engine.attach_task_with(tid, &decls, &mut self.scratch)?;
        Ok((tid, std::mem::take(&mut self.scratch.wakes)))
    }

    /// Mark a ready task as running (an executor picked it up).
    pub fn start_task(&mut self, tid: TaskId) {
        self.engine.start_task(tid);
    }

    /// The engine half of task-body completion: release all queue
    /// positions and wake whoever becomes enabled.
    pub fn finish_task(&mut self, tid: TaskId) -> Vec<Wake> {
        self.engine.finish_task_with(tid, &mut self.scratch);
        std::mem::take(&mut self.scratch.wakes)
    }

    /// The engine half of `with { ... } cont;`. Returns whether the
    /// task must suspend (a conversion to immediate is not yet
    /// enabled) plus wakes for other tasks released by retirements.
    pub fn with_cont(
        &mut self,
        tid: TaskId,
        ops: Vec<(ObjectId, ContOp)>,
    ) -> Result<(bool, Vec<Wake>)> {
        let must_block = self.engine.with_cont_with(tid, &ops, &mut self.scratch)?;
        Ok((must_block, std::mem::take(&mut self.scratch.wakes)))
    }

    /// Dynamic access check: may `tid` perform `kind` on `oid` right
    /// now?
    pub fn check_access(
        &mut self,
        tid: TaskId,
        oid: ObjectId,
        kind: AccessKind,
    ) -> Result<AccessStatus> {
        self.engine.check_access(tid, oid, kind)
    }

    /// Does the task currently hold an enabled right of this kind?
    pub fn is_granted(&self, tid: TaskId, oid: ObjectId, kind: AccessKind) -> bool {
        self.engine.is_granted(tid, oid, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JadeError;
    use crate::spec::SpecBuilder;

    fn decls(f: impl FnOnce(&mut SpecBuilder)) -> Vec<Declaration> {
        let mut b = SpecBuilder::new();
        f(&mut b);
        b.build().0
    }

    #[test]
    fn path_order_rules() {
        assert!(path_precedes(&[0], &[1]));
        assert!(!path_precedes(&[1], &[0]));
        assert!(path_precedes(&[0, 5], &[0])); // descendant before ancestor
        assert!(!path_precedes(&[0], &[0, 5]));
        assert!(path_precedes(&[0, 9], &[1, 0]));
        assert!(!path_precedes(&[2], &[2]));
        assert!(path_precedes(&[1], &[])); // everything precedes root
    }

    #[test]
    fn concurrent_readers_then_writer() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (r1, _) = g
            .create_task(
                TaskId::ROOT,
                "r1",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (r2, _) = g
            .create_task(
                TaskId::ROOT,
                "r2",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (w, _) = g
            .create_task(
                TaskId::ROOT,
                "w",
                decls(|s| {
                    s.wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(r1), TaskState::Ready);
        assert_eq!(g.state(r2), TaskState::Ready);
        assert_eq!(g.state(w), TaskState::Pending);
        g.start_task(r1);
        g.start_task(r2);
        assert!(g.finish_task(r1).is_empty());
        assert_eq!(g.finish_task(r2), vec![Wake::Ready(w)]);
    }

    #[test]
    fn deferred_read_pipeline() {
        // The §4.2 backsubst pattern: a consumer with df_rd starts
        // immediately, converts per column, and releases with no_rd.
        let mut g = DepGraph::new();
        let c0 = g.create_object(TaskId::ROOT);
        let c1 = g.create_object(TaskId::ROOT);
        let (f0, _) = g
            .create_task(
                TaskId::ROOT,
                "factor0",
                decls(|s| {
                    s.rd_wr(c0);
                }),
                Placement::Any,
            )
            .unwrap();
        let (f1, _) = g
            .create_task(
                TaskId::ROOT,
                "factor1",
                decls(|s| {
                    s.rd_wr(c1);
                }),
                Placement::Any,
            )
            .unwrap();
        let (b, wakes) = g
            .create_task(
                TaskId::ROOT,
                "backsubst",
                decls(|s| {
                    s.df_rd(c0);
                    s.df_rd(c1);
                }),
                Placement::Any,
            )
            .unwrap();
        // Starts immediately despite factor0/1 still outstanding.
        assert!(wakes.contains(&Wake::Ready(b)));
        g.start_task(b);
        // Convert c0: must block (factor0 unfinished).
        let (blocked, _) = g.with_cont(b, vec![(c0, ContOp::ToRd)]).unwrap();
        assert!(blocked);
        g.start_task(f0);
        let w = g.finish_task(f0);
        assert!(w.contains(&Wake::Unblocked(b)));
        assert_eq!(g.check_access(b, c0, AccessKind::Read).unwrap(), AccessStatus::Granted);
        // Release c0 early; later writers of c0 would now be free.
        let (blocked2, _) = g.with_cont(b, vec![(c0, ContOp::NoRd)]).unwrap();
        assert!(!blocked2);
        // Accessing after retirement is an error.
        assert!(matches!(
            g.check_access(b, c0, AccessKind::Read),
            Err(JadeError::RetiredAccess { .. })
        ));
        g.start_task(f1);
        g.finish_task(f1);
        let (blocked3, _) = g.with_cont(b, vec![(c1, ContOp::ToRd)]).unwrap();
        assert!(!blocked3, "factor1 already done; no wait");
    }

    #[test]
    fn no_wr_releases_successor_before_completion() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (w, _) = g
            .create_task(
                TaskId::ROOT,
                "w",
                decls(|s| {
                    s.rd_wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (r, _) = g
            .create_task(
                TaskId::ROOT,
                "r",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(r), TaskState::Pending);
        g.start_task(w);
        // Writer finishes with the object mid-body and releases it.
        let (_, wakes) = g.with_cont(w, vec![(a, ContOp::NoWr), (a, ContOp::NoRd)]).unwrap();
        assert!(wakes.contains(&Wake::Ready(r)), "reader released before writer completes");
    }

    #[test]
    fn undeclared_access_is_error() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let b = g.create_object(TaskId::ROOT);
        let (t, _) = g
            .create_task(
                TaskId::ROOT,
                "t",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        g.start_task(t);
        assert!(matches!(
            g.check_access(t, b, AccessKind::Read),
            Err(JadeError::UndeclaredAccess { .. })
        ));
        // Declared read does not allow write.
        assert!(matches!(
            g.check_access(t, a, AccessKind::Write),
            Err(JadeError::UndeclaredAccess { .. })
        ));
    }

    #[test]
    fn deferred_access_without_conversion_is_error() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (t, _) = g
            .create_task(
                TaskId::ROOT,
                "t",
                decls(|s| {
                    s.df_rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        g.start_task(t);
        assert!(matches!(
            g.check_access(t, a, AccessKind::Read),
            Err(JadeError::DeferredAccess { .. })
        ));
    }

    #[test]
    fn object_created_by_task_is_initialized_by_it() {
        let mut g = DepGraph::new();
        let (t, _) = g.create_task(TaskId::ROOT, "maker", decls(|_| {}), Placement::Any).unwrap();
        g.start_task(t);
        let o = g.create_object(t);
        assert_eq!(g.check_access(t, o, AccessKind::Write).unwrap(), AccessStatus::Granted);
        // Its child may use it (covered by the implicit rd_wr).
        let (c, _) = g
            .create_task(
                t,
                "kid",
                decls(|s| {
                    s.rd(o);
                }),
                Placement::Any,
            )
            .unwrap();
        // Child waits: creator holds an active immediate write.
        assert_eq!(g.state(c), TaskState::Ready, "child inserts before creator; nothing earlier");
    }

    #[test]
    fn sibling_order_through_anchors() {
        // Two sibling subtrees touch an object only through their
        // children; serial order between the cousins must hold.
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (p1, _) = g
            .create_task(
                TaskId::ROOT,
                "p1",
                decls(|s| {
                    s.rd_wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (p2, _) = g
            .create_task(
                TaskId::ROOT,
                "p2",
                decls(|s| {
                    s.rd_wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(p1), TaskState::Ready);
        assert_eq!(g.state(p2), TaskState::Pending);
        g.start_task(p1);
        // p1 spawns a writing child; p2 spawns one as well when it runs.
        let (c1, _) = g
            .create_task(
                p1,
                "c1",
                decls(|s| {
                    s.wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(c1), TaskState::Ready);
        g.start_task(c1);
        g.finish_task(c1);
        let w = g.finish_task(p1);
        assert!(w.contains(&Wake::Ready(p2)));
        g.start_task(p2);
        let (c2, _) = g
            .create_task(
                p2,
                "c2",
                decls(|s| {
                    s.wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(c2), TaskState::Ready);
    }

    #[test]
    fn trace_captures_cholesky_like_edges() {
        let mut g = DepGraph::new();
        g.enable_trace();
        let c0 = g.create_object(TaskId::ROOT);
        let c3 = g.create_object(TaskId::ROOT);
        let (i0, _) = g
            .create_task(
                TaskId::ROOT,
                "Internal(0)",
                decls(|s| {
                    s.rd_wr(c0);
                }),
                Placement::Any,
            )
            .unwrap();
        let (e03, _) = g
            .create_task(
                TaskId::ROOT,
                "External(0->3)",
                decls(|s| {
                    s.rd(c0);
                    s.rd_wr(c3);
                }),
                Placement::Any,
            )
            .unwrap();
        let tr = g.take_trace().unwrap();
        assert!(
            tr.edges().iter().any(|e| e.from == i0 && e.to == e03),
            "External depends on Internal"
        );
    }

    #[test]
    fn ready_wake_emitted_exactly_once() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let b = g.create_object(TaskId::ROOT);
        for decl_count in 1..=2 {
            let (tid, wakes) = g
                .create_task(
                    TaskId::ROOT,
                    "t",
                    decls(|s| {
                        s.rd_wr(a);
                        if decl_count == 2 {
                            s.rd(b);
                        }
                    }),
                    Placement::Any,
                )
                .unwrap();
            let ready_count =
                wakes.iter().filter(|w| matches!(w, Wake::Ready(t) if *t == tid)).count();
            assert_eq!(ready_count, 1, "decls={decl_count}: {wakes:?}");
            g.start_task(tid);
            g.finish_task(tid);
        }
    }

    #[test]
    fn commuting_tasks_are_unordered_but_serialized() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (t1, _) = g
            .create_task(
                TaskId::ROOT,
                "acc1",
                decls(|s| {
                    s.cm(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (t2, _) = g
            .create_task(
                TaskId::ROOT,
                "acc2",
                decls(|s| {
                    s.cm(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (r, _) = g
            .create_task(
                TaskId::ROOT,
                "reader",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        // Both commuters start immediately; the reader waits for both.
        assert_eq!(g.state(t1), TaskState::Ready);
        assert_eq!(g.state(t2), TaskState::Ready);
        assert_eq!(g.state(r), TaskState::Pending);
        g.start_task(t1);
        g.start_task(t2);
        // t2 touches the object first: perfectly legal (unordered).
        assert_eq!(g.check_access(t2, a, AccessKind::Commute).unwrap(), AccessStatus::Granted);
        // t1 must now wait until t2 completes or relinquishes.
        assert_eq!(g.check_access(t1, a, AccessKind::Commute).unwrap(), AccessStatus::MustWait);
        let wakes = g.finish_task(t2);
        assert!(wakes.contains(&Wake::Unblocked(t1)));
        assert_eq!(g.check_access(t1, a, AccessKind::Commute).unwrap(), AccessStatus::Granted);
        let wakes2 = g.finish_task(t1);
        assert!(wakes2.contains(&Wake::Ready(r)));
    }

    #[test]
    fn no_cm_releases_exclusivity_early() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (t1, _) = g
            .create_task(
                TaskId::ROOT,
                "acc1",
                decls(|s| {
                    s.cm(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (t2, _) = g
            .create_task(
                TaskId::ROOT,
                "acc2",
                decls(|s| {
                    s.cm(a);
                }),
                Placement::Any,
            )
            .unwrap();
        g.start_task(t1);
        g.start_task(t2);
        assert_eq!(g.check_access(t1, a, AccessKind::Commute).unwrap(), AccessStatus::Granted);
        assert_eq!(g.check_access(t2, a, AccessKind::Commute).unwrap(), AccessStatus::MustWait);
        // t1 releases with no_cm while still running: t2 proceeds.
        let (_, wakes) = g.with_cont(t1, vec![(a, ContOp::NoCm)]).unwrap();
        assert!(wakes.contains(&Wake::Unblocked(t2)));
        // Accessing after no_cm is an error.
        assert!(matches!(
            g.check_access(t1, a, AccessKind::Commute),
            Err(JadeError::RetiredAccess { .. })
        ));
    }

    #[test]
    fn commute_waits_for_writer_and_blocks_writer() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (w, _) = g
            .create_task(
                TaskId::ROOT,
                "w",
                decls(|s| {
                    s.wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (c, _) = g
            .create_task(
                TaskId::ROOT,
                "c",
                decls(|s| {
                    s.cm(a);
                }),
                Placement::Any,
            )
            .unwrap();
        let (w2, _) = g
            .create_task(
                TaskId::ROOT,
                "w2",
                decls(|s| {
                    s.wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        assert_eq!(g.state(w), TaskState::Ready);
        assert_eq!(g.state(c), TaskState::Pending, "commute waits for earlier writer");
        assert_eq!(g.state(w2), TaskState::Pending, "write waits for earlier commute");
        g.start_task(w);
        let wk = g.finish_task(w);
        assert!(wk.contains(&Wake::Ready(c)));
        g.start_task(c);
        let wk2 = g.finish_task(c);
        assert!(wk2.contains(&Wake::Ready(w2)));
    }

    #[test]
    fn parent_write_covers_child_commute() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (p, _) = g
            .create_task(
                TaskId::ROOT,
                "p",
                decls(|s| {
                    s.rd_wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        g.start_task(p);
        let ok = g.create_task(
            p,
            "kid",
            decls(|s| {
                s.cm(a);
            }),
            Placement::Any,
        );
        assert!(ok.is_ok());
        // But a read-only parent does not cover a commuting child.
        let (p2, _) = g
            .create_task(
                TaskId::ROOT,
                "p2",
                decls(|s| {
                    s.rd(a);
                }),
                Placement::Any,
            )
            .unwrap();
        // p2 is pending (kid above is active); force-start is not
        // needed for the coverage check, which happens at creation.
        let _ = p2;
    }

    #[test]
    fn stats_track_engine_work() {
        let mut g = DepGraph::new();
        let a = g.create_object(TaskId::ROOT);
        let (t, _) = g
            .create_task(
                TaskId::ROOT,
                "t",
                decls(|s| {
                    s.rd_wr(a);
                }),
                Placement::Any,
            )
            .unwrap();
        g.start_task(t);
        g.check_access(t, a, AccessKind::Read).unwrap();
        g.finish_task(t);
        let stats = g.stats();
        assert_eq!(stats.tasks_created, 1);
        assert_eq!(stats.objects_created, 1);
        assert!(stats.access_checks >= 1);
        assert_eq!(g.live_tasks(), 0);
    }
}
