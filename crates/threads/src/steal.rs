//! Work-stealing ready-queue policy for the thread pool.
//!
//! One deque per pool worker plus a global injector implements the
//! [`ReadyQueue`] policy boundary: a worker that enables a task keeps
//! it on its own deque (LIFO — the freshest task's working set is the
//! hottest), placement-hinted tasks are pushed directly onto the
//! target worker's deque (the paper's placement-driven scheduling),
//! and threads without a deque of their own — the root task's thread,
//! compensation workers — go through the FIFO injector. An idle worker
//! drains its own deque, then the injector, then steals from its
//! peers, so no enabled task can be stranded.
//!
//! Stealing is *batched* and starts at a *randomized victim*:
//!
//! * A successful steal moves roughly half the victim's deque (bounded)
//!   into the thief's own deque, so a thief that found work does not
//!   immediately go hunting again — and the surplus it took stays
//!   visible to other thieves, which keeps the compensation-worker
//!   protocol deadlock-free (batches land in deques, never in private
//!   buffers).
//! * The scan *starting victim* is randomized per steal attempt, so
//!   concurrent thieves fan out over different victims instead of all
//!   converging on the same deque (the old policy always started at
//!   index 0, serializing thieves behind one victim's lock).
//!
//! Which runnable task runs first is pure policy: Jade's serial
//! semantics makes every dispatch order produce the same results and
//! the same dynamic task graph (see `tests/conformance.rs`), which is
//! what licenses swapping the old single shared FIFO for this
//! structure without touching the dependency engine.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use jade_core::ids::TaskId;
use jade_core::readyq::ReadyQueue;

/// Per-worker deques + global injector behind the [`ReadyQueue`] trait.
///
/// Queue slots `0..workers` address the pool workers' deques; any
/// larger slot index means "no local deque" (root thread, compensation
/// workers) and operates on the injector and the stealers only.
pub struct StealQueue {
    injector: Injector<TaskId>,
    locals: Vec<Worker<TaskId>>,
    stealers: Vec<Stealer<TaskId>>,
    /// Scrambled per-attempt to pick the scan's starting victim.
    seed: AtomicUsize,
}

impl StealQueue {
    /// A queue serving `workers` pool workers.
    pub fn new(workers: usize) -> Self {
        let locals: Vec<Worker<TaskId>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        StealQueue { injector: Injector::new(), locals, stealers, seed: AtomicUsize::new(0) }
    }

    /// The slot index meaning "no local deque".
    pub fn remote_slot(&self) -> usize {
        self.locals.len()
    }

    /// Drop every queued task (fault shutdown).
    pub fn clear(&self) {
        while let Steal::Success(_) = self.injector.steal() {}
        for l in &self.locals {
            while l.pop().is_some() {}
        }
    }

    /// Pick a starting victim for a steal scan. A Weyl-sequence step
    /// through a SplitMix scramble: deterministic, lock-free, and
    /// successive calls spread over all of `0..n` — no global RNG.
    fn next_start(&self, n: usize) -> usize {
        let s = self.seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let mut z = s as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % n
    }

    /// Steal into `worker`'s own deque, scanning every peer once from
    /// a randomized starting victim. On success the surplus of the
    /// batch is already in the local deque (still stealable by others)
    /// and one task is returned to run now.
    fn steal_into(&self, worker: usize) -> Option<TaskId> {
        let local = &self.locals[worker];
        let n = self.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = self.next_start(n);
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == worker {
                continue;
            }
            loop {
                match self.stealers[victim].steal_batch_and_pop(local) {
                    Steal::Success(t) => return Some(t),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }
}

impl ReadyQueue for StealQueue {
    fn push(&self, task: TaskId, hint: Option<usize>) {
        match hint {
            Some(w) if w < self.locals.len() => self.locals[w].push(task),
            _ => self.injector.push(task),
        }
    }

    fn push_batch(&self, tasks: &[TaskId], hint: Option<usize>) {
        match hint {
            Some(w) if w < self.locals.len() => self.locals[w].push_batch(tasks.iter().copied()),
            _ => self.injector.push_batch(tasks.iter().copied()),
        }
    }

    fn pop(&self, worker: usize) -> Option<TaskId> {
        if let Some(local) = self.locals.get(worker) {
            if let Some(t) = local.pop() {
                return Some(t);
            }
            // Drain the injector in batches too: one task to run, the
            // rest parked on the local deque where peers can steal it.
            loop {
                match self.injector.steal_batch_and_pop(local) {
                    Steal::Success(t) => return Some(t),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            return self.steal_into(worker);
        }
        // No local deque (root thread, compensation workers): take
        // single tasks — there is no deque to park a batch on, and
        // hoarding tasks in a private buffer could strand them.
        loop {
            match self.injector.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        let n = self.stealers.len();
        if n == 0 {
            return None;
        }
        let start = self.next_start(n);
        for i in 0..n {
            let victim = (start + i) % n;
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(t) => return Some(t),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.injector.len() + self.locals.iter().map(Worker::len).sum::<usize>()
    }

    /// Short-circuiting emptiness probe. The default `len() == 0`
    /// sums every deque; this is on the worker park/recheck path
    /// (sleep-gate revalidation), where any non-empty deque should
    /// answer immediately without touching the rest.
    fn is_empty(&self) -> bool {
        self.injector.is_empty() && self.locals.iter().all(|l| l.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn hinted_pushes_land_on_the_target_deque() {
        let q = StealQueue::new(2);
        q.push(TaskId(1), Some(0));
        q.push(TaskId(2), Some(1));
        q.push(TaskId(3), None); // injector
        assert_eq!(q.len(), 3);
        // Each worker prefers its own deque over the injector.
        assert_eq!(q.pop(0), Some(TaskId(1)));
        assert_eq!(q.pop(1), Some(TaskId(2)));
        assert_eq!(q.pop(0), Some(TaskId(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn idle_worker_steals_from_a_loaded_peer() {
        let q = StealQueue::new(4);
        q.push(TaskId(7), Some(2));
        // Worker 0's deque and the injector are empty: it must steal.
        assert_eq!(q.pop(0), Some(TaskId(7)));
        assert_eq!(q.pop(2), None);
    }

    #[test]
    fn remote_slot_reaches_all_work() {
        let q = StealQueue::new(2);
        q.push(TaskId(1), Some(0));
        q.push(TaskId(2), None);
        let remote = q.remote_slot();
        // A thread without a deque drains the injector first, then
        // steals from the workers.
        assert_eq!(q.pop(remote), Some(TaskId(2)));
        assert_eq!(q.pop(remote), Some(TaskId(1)));
        assert_eq!(q.pop(remote), None);
    }

    #[test]
    fn clear_drops_everything() {
        let q = StealQueue::new(2);
        for i in 0..10 {
            q.push(TaskId(i), Some((i % 3) as usize));
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn out_of_range_hint_falls_back_to_injector() {
        let q = StealQueue::new(1);
        q.push(TaskId(5), Some(42));
        assert_eq!(q.pop(0), Some(TaskId(5)));
    }

    #[test]
    fn push_batch_targets_one_deque_and_stays_poppable() {
        let q = StealQueue::new(2);
        q.push_batch(&[TaskId(1), TaskId(2), TaskId(3)], Some(1));
        q.push_batch(&[TaskId(4), TaskId(5)], None); // injector
        assert_eq!(q.len(), 5);
        let mut got = HashSet::new();
        while let Some(t) = q.pop(1) {
            got.insert(t.0);
        }
        assert_eq!(got, HashSet::from([1, 2, 3, 4, 5]));
    }

    #[test]
    fn batch_steal_moves_surplus_into_the_thief_deque() {
        let q = StealQueue::new(2);
        q.push_batch(&[TaskId(1), TaskId(2), TaskId(3), TaskId(4)], Some(1));
        // Worker 0 steals: gets one task now, and about half the
        // victim's deque parks on its own deque.
        let first = q.pop(0).expect("steal succeeds");
        assert_eq!(q.locals[0].len(), 1, "surplus of the stolen batch stays stealable");
        assert_eq!(q.locals[1].len(), 2, "victim keeps the other half");
        let mut got = HashSet::from([first.0]);
        while let Some(t) = q.pop(0) {
            got.insert(t.0);
        }
        assert_eq!(got, HashSet::from([1, 2, 3, 4]), "no task is lost or duplicated");
    }

    #[test]
    fn steal_scan_start_is_randomized_not_pinned_to_zero() {
        let q = StealQueue::new(8);
        let mut starts = HashSet::new();
        for _ in 0..256 {
            starts.insert(q.next_start(8));
        }
        assert_eq!(starts.len(), 8, "every victim index must be a possible scan start");
    }

    #[test]
    fn repeated_steals_spread_over_victims() {
        // The old policy always began scanning at victim 0, so a thief
        // hammered the same peer. With randomized starts, the first
        // victim actually robbed must vary across attempts.
        let q = StealQueue::new(4);
        let mut first_victims = HashSet::new();
        for _ in 0..64 {
            q.push(TaskId(1), Some(1));
            q.push(TaskId(2), Some(2));
            q.push(TaskId(3), Some(3));
            let got = q.pop(0).expect("peers have work");
            first_victims.insert(got.0); // task id == victim it sat on
            q.clear();
        }
        assert_eq!(
            first_victims,
            HashSet::from([1, 2, 3]),
            "steals must reach every victim as the *first* choice, not only victim 1"
        );
    }

    #[test]
    fn is_empty_agrees_with_len_across_queue_shapes() {
        let q = StealQueue::new(3);
        assert!(q.is_empty());
        q.push(TaskId(1), Some(2)); // deque only
        assert!(!q.is_empty());
        assert_eq!(q.pop(2), Some(TaskId(1)));
        assert!(q.is_empty());
        q.push(TaskId(2), None); // injector only
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }
}
