//! The ready-queue boundary of the shared-memory executor.
//!
//! Once the dependency engine enables a task, *which runnable task a
//! processor picks next* is pure scheduling policy — the serial
//! semantics guarantees any order is correct. [`ReadyQueue`] is that
//! policy boundary: `jade-threads` implements it with per-worker
//! work-stealing deques (`StealQueue`). The simulator's ready pool is
//! a plain FIFO its single-owner event loop holds, and a session's job
//! queue is a FIFO under the session's lock; neither needs a shared
//! queue type.
//!
//! Methods take `&self`: the implementation uses interior mutability
//! (mostly-uncontended per-worker deques) so the queue can be shared
//! between workers without an enclosing lock.

use crate::ids::TaskId;

/// A queue of enabled-but-not-yet-dispatched tasks.
pub trait ReadyQueue: Send + Sync {
    /// Make a task available for dispatch. `hint` optionally routes
    /// the task toward a preferred worker index (the paper's
    /// placement-driven scheduling); policies may ignore it.
    fn push(&self, task: TaskId, hint: Option<usize>);

    /// Make a batch of tasks available for dispatch in one operation,
    /// sharing one placement `hint` (one lock and one deque touch per
    /// batch instead of per task).
    fn push_batch(&self, tasks: &[TaskId], hint: Option<usize>);

    /// Take the next task to run from the perspective of `worker`.
    /// Returns `None` when no queued task is available to that worker.
    fn pop(&self, worker: usize) -> Option<TaskId>;

    /// Number of queued tasks.
    fn len(&self) -> usize;

    /// Whether no task is queued.
    fn is_empty(&self) -> bool;
}
