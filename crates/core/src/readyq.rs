//! The ready-queue abstraction shared by the parallel executors.
//!
//! Once the dependency engine enables a task, *which runnable task a
//! processor picks next* is pure scheduling policy — the serial
//! semantics guarantees any order is correct. [`ReadyQueue`] is that
//! policy boundary: the discrete-event simulator queues enabled tasks
//! FIFO and scans them against machine eligibility
//! ([`FifoReadyQueue`]), while the shared-memory backend distributes
//! them over per-worker work-stealing deques (`jade-threads`). Both
//! implement this one trait, so the dispatch abstraction — and the
//! conformance argument that the dynamic task graph is independent of
//! it — is shared.
//!
//! Methods take `&self`: implementations use interior mutability
//! (a mutex for the FIFO policy, mostly-uncontended per-worker deques
//! for work stealing) so the queue can be shared between workers
//! without an enclosing lock.

use std::collections::VecDeque;

use crate::ids::TaskId;
use crate::sync::Mutex;

/// A queue of enabled-but-not-yet-dispatched tasks.
pub trait ReadyQueue: Send + Sync {
    /// Make a task available for dispatch. `hint` optionally routes
    /// the task toward a preferred worker/machine index (the paper's
    /// placement-driven scheduling); policies may ignore it.
    fn push(&self, task: TaskId, hint: Option<usize>);

    /// Make a batch of tasks available for dispatch in one operation.
    /// All tasks share one placement `hint`. Implementations override
    /// this to amortize synchronization (one lock/one deque touch per
    /// batch instead of per task); the default just loops.
    fn push_batch(&self, tasks: &[TaskId], hint: Option<usize>) {
        for &t in tasks {
            self.push(t, hint);
        }
    }

    /// Take the next task to run from the perspective of `worker`.
    /// Returns `None` when no queued task is available to that worker.
    fn pop(&self, worker: usize) -> Option<TaskId>;

    /// Number of queued tasks.
    fn len(&self) -> usize;

    /// Whether no task is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Strict FIFO policy behind one mutex — the discrete-event
/// simulator's ready pool. Dispatch order equals enable order, which
/// keeps simulated executions deterministic.
#[derive(Debug, Default)]
pub struct FifoReadyQueue {
    q: Mutex<VecDeque<TaskId>>,
}

impl FifoReadyQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan queued tasks in FIFO order, removing each task for which
    /// `take` returns `true` and retaining the rest (in order). The
    /// simulator dispatches this way: only a subset of the queue fits
    /// the machines free at one instant.
    pub fn dispatch_where(&self, take: &mut dyn FnMut(TaskId) -> bool) {
        self.q.lock().retain(|&t| !take(t));
    }
}

impl ReadyQueue for FifoReadyQueue {
    fn push(&self, task: TaskId, _hint: Option<usize>) {
        self.q.lock().push_back(task);
    }

    fn push_batch(&self, tasks: &[TaskId], _hint: Option<usize>) {
        self.q.lock().extend(tasks.iter().copied());
    }

    fn pop(&self, _worker: usize) -> Option<TaskId> {
        self.q.lock().pop_front()
    }

    fn len(&self) -> usize {
        self.q.lock().len()
    }
}

/// Pass increment for a weight-1 lane. Weights divide into this, so
/// with the weight cap in [`WeightedFairQueue::add_lane`] every stride
/// is a distinct positive integer and relative rates are exact.
const STRIDE_ONE: u64 = 1 << 20;

/// Stride-scheduling weighted fair queue: tasks are partitioned into
/// *lanes* (one per client of the job server), each lane carrying a
/// weight, and dispatch interleaves lanes so that over any window each
/// backlogged lane receives throughput proportional to its weight.
///
/// Classic stride scheduling: a lane's *stride* is `STRIDE_ONE /
/// weight`; every dispatch from a lane advances its *pass* by its
/// stride, and [`pop`](ReadyQueue::pop) always serves the backlogged
/// lane with the minimum pass (ties break toward the lower lane index,
/// which makes the interleave deterministic — weights 2:1 dispatch
/// `A B A A B A …`). A lane that goes idle has its pass clamped
/// forward to the current minimum when it becomes backlogged again, so
/// sleeping never banks credit to monopolize the queue later.
///
/// Implements [`ReadyQueue`] with the push `hint` carrying the lane
/// index, so the job server layers per-client fairness on the same
/// dispatch abstraction the executors already share.
#[derive(Debug, Default)]
pub struct WeightedFairQueue {
    state: Mutex<WfqState>,
}

#[derive(Debug, Default)]
struct WfqState {
    lanes: Vec<Lane>,
    queued: usize,
    /// Global virtual time: the highest pass at which any dispatch was
    /// served. Lanes (re)joining the backlogged set clamp their pass
    /// forward to this, so idle time never banks dispatch credit.
    vtime: u64,
}

#[derive(Debug)]
struct Lane {
    stride: u64,
    pass: u64,
    q: VecDeque<TaskId>,
}

impl WfqState {
    /// Index of the backlogged lane with the minimum pass (stable
    /// toward lower indices).
    fn min_pass_lane(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if !lane.q.is_empty() && best.is_none_or(|b| lane.pass < self.lanes[b].pass) {
                best = Some(i);
            }
        }
        best
    }
}

impl WeightedFairQueue {
    /// An empty queue with no lanes. Pushes with no hint (or an
    /// unknown lane) land in a weight-1 lane 0 created on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a lane with the given weight and return its index (the
    /// value to pass as the push `hint`). Weights are clamped to
    /// `1..=STRIDE_ONE`; a higher weight means proportionally more
    /// dispatches when backlogged.
    pub fn add_lane(&self, weight: u64) -> usize {
        let mut st = self.state.lock();
        let weight = weight.clamp(1, STRIDE_ONE);
        // Join at the current virtual time: no retroactive credit.
        let pass = st.vtime;
        st.lanes.push(Lane { stride: STRIDE_ONE / weight, pass, q: VecDeque::new() });
        st.lanes.len() - 1
    }

    /// Number of lanes currently registered.
    pub fn lanes(&self) -> usize {
        self.state.lock().lanes.len()
    }

    /// Queued tasks in one lane (0 for an unknown lane).
    pub fn lane_len(&self, lane: usize) -> usize {
        self.state.lock().lanes.get(lane).map_or(0, |l| l.q.len())
    }
}

impl ReadyQueue for WeightedFairQueue {
    fn push(&self, task: TaskId, hint: Option<usize>) {
        let mut st = self.state.lock();
        if st.lanes.is_empty() {
            st.lanes.push(Lane { stride: STRIDE_ONE, pass: 0, q: VecDeque::new() });
        }
        let lane = hint.filter(|&l| l < st.lanes.len()).unwrap_or(0);
        if st.lanes[lane].q.is_empty() {
            // Re-entering the backlogged set: clamp forward to the
            // virtual time so idle time does not accumulate as future
            // dispatch credit.
            let vtime = st.vtime;
            let l = &mut st.lanes[lane];
            l.pass = l.pass.max(vtime);
        }
        st.lanes[lane].q.push_back(task);
        st.queued += 1;
    }

    fn pop(&self, _worker: usize) -> Option<TaskId> {
        let mut st = self.state.lock();
        let lane = st.min_pass_lane()?;
        let l = &mut st.lanes[lane];
        let task = l.q.pop_front();
        let served_at = l.pass;
        l.pass += l.stride;
        st.vtime = st.vtime.max(served_at);
        st.queued -= 1;
        task
    }

    fn len(&self) -> usize {
        self.state.lock().queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_pops_in_push_order() {
        let q = FifoReadyQueue::new();
        q.push(TaskId(1), None);
        q.push(TaskId(2), Some(3));
        q.push(TaskId(3), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(0), Some(TaskId(1)));
        assert_eq!(q.pop(7), Some(TaskId(2)), "hint and worker are policy-irrelevant here");
        assert_eq!(q.pop(0), Some(TaskId(3)));
        assert_eq!(q.pop(0), None);
        assert!(q.is_empty());
    }

    #[test]
    fn dispatch_where_removes_matches_in_order() {
        let q = FifoReadyQueue::new();
        for i in 1..=5 {
            q.push(TaskId(i), None);
        }
        let mut taken = Vec::new();
        q.dispatch_where(&mut |t| {
            if t.0 % 2 == 1 {
                taken.push(t);
                true
            } else {
                false
            }
        });
        assert_eq!(taken, vec![TaskId(1), TaskId(3), TaskId(5)]);
        assert_eq!(q.pop(0), Some(TaskId(2)), "unmatched tasks keep their order");
        assert_eq!(q.pop(0), Some(TaskId(4)));
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_preserves_fifo_order() {
        let q = FifoReadyQueue::new();
        q.push(TaskId(1), None);
        q.push_batch(&[TaskId(2), TaskId(3), TaskId(4)], Some(1));
        assert_eq!(q.len(), 4);
        for i in 1..=4 {
            assert_eq!(q.pop(0), Some(TaskId(i)));
        }
    }

    /// Drain the queue, mapping each popped task back to its lane via
    /// the id encoding `TaskId(lane * 100 + seq)`.
    fn drain_lanes(q: &WeightedFairQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop(0)).map(|t| t.0 / 100).collect()
    }

    #[test]
    fn wfq_equal_weights_round_robin() {
        let q = WeightedFairQueue::new();
        let a = q.add_lane(1);
        let b = q.add_lane(1);
        for i in 0..3 {
            q.push(TaskId(100 + i), Some(a));
            q.push(TaskId(200 + i), Some(b));
        }
        assert_eq!(q.len(), 6);
        assert_eq!(drain_lanes(&q), vec![1, 2, 1, 2, 1, 2], "ties break to the lower lane");
        assert!(q.is_empty());
    }

    #[test]
    fn wfq_weighted_interleave_is_proportional_and_deterministic() {
        let q = WeightedFairQueue::new();
        let a = q.add_lane(2);
        let b = q.add_lane(1);
        for i in 0..6 {
            q.push(TaskId(100 + i), Some(a));
        }
        for i in 0..3 {
            q.push(TaskId(200 + i), Some(b));
        }
        // Stride 2:1 — passes A:.5,1,1.5,… B:1,2,3,… → A B A A B A A B A.
        assert_eq!(drain_lanes(&q), vec![1, 2, 1, 1, 2, 1, 1, 2, 1]);
    }

    #[test]
    fn wfq_fifo_within_a_lane_and_unknown_hints_fall_back() {
        let q = WeightedFairQueue::new();
        // No lanes yet: hintless pushes materialize lane 0.
        q.push(TaskId(1), None);
        q.push(TaskId(2), Some(99)); // unknown lane → lane 0
        q.push(TaskId(3), None);
        assert_eq!(q.lanes(), 1);
        assert_eq!(q.lane_len(0), 3);
        assert_eq!(q.pop(0), Some(TaskId(1)));
        assert_eq!(q.pop(0), Some(TaskId(2)));
        assert_eq!(q.pop(0), Some(TaskId(3)));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn wfq_idle_lane_gets_no_banked_credit() {
        let q = WeightedFairQueue::new();
        let a = q.add_lane(1);
        let b = q.add_lane(1);
        // Lane A runs alone for a while (its pass advances far)…
        for i in 0..4 {
            q.push(TaskId(100 + i), Some(a));
        }
        for _ in 0..4 {
            q.pop(0);
        }
        // …then B wakes up. Without the clamp B's pass (0) would owe it
        // four back-to-back dispatches; with it, service interleaves.
        for i in 0..2 {
            q.push(TaskId(200 + i), Some(b));
            q.push(TaskId(104 + i), Some(a));
        }
        assert_eq!(drain_lanes(&q), vec![2, 1, 2, 1], "B leads the tie but does not monopolize");
    }
}
