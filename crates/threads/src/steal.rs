//! Work-stealing ready-queue policy for the thread pool.
//!
//! One deque per pool worker plus a global injector — each a mutexed
//! `VecDeque`, uncontended in the common case because a worker pushes
//! what it enables onto its own deque — implements the [`ReadyQueue`]
//! policy boundary: a worker that enables a task keeps it on its own deque
//! (LIFO — the freshest task's working set is the hottest),
//! placement-hinted tasks are pushed directly onto the
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use jade_core::ids::TaskId;
use jade_core::readyq::ReadyQueue;
use jade_core::sync::Mutex;

/// Most tasks one steal moves (a steal takes half the victim's queue,
/// at least one task, at most this many).
const STEAL_BATCH: usize = 32;

type Deque = Mutex<VecDeque<TaskId>>;

/// Take the oldest half of `victim` (bounded by [`STEAL_BATCH`]):
/// return the oldest task and append the rest to `dest` in the
/// victim's order, where they stay visible to further thieves. The
/// victim's lock is released before `dest`'s is taken, so two thieves
/// robbing each other cannot deadlock.
fn steal_half(victim: &Deque, dest: &Deque) -> Option<TaskId> {
    let mut q = victim.lock();
    let first = q.pop_front()?;
    let surplus = (q.len() / 2).min(STEAL_BATCH - 1);
    if surplus > 0 {
        let batch: Vec<TaskId> = q.drain(..surplus).collect();
        drop(q);
        dest.lock().extend(batch);
    }
    Some(first)
}

/// Per-worker deques + global injector behind the [`ReadyQueue`] trait.
///
/// Queue slots `0..workers` address the pool workers' deques; any
/// larger slot index means "no local deque" (root thread, compensation
/// workers) and operates on the injector and single steals only. A
/// deque's owner pushes and pops at the back (LIFO); thieves take from
/// the front (FIFO — the oldest, likely largest-grained work
/// migrates); the injector is FIFO at both ends.
pub struct StealQueue {
    injector: Deque,
    locals: Box<[Deque]>,
    /// Scrambled per-attempt to pick the scan's starting victim.
    seed: AtomicUsize,
}

impl StealQueue {
    /// A queue serving `workers` pool workers.
    pub fn new(workers: usize) -> Self {
        StealQueue {
            injector: Deque::default(),
            locals: (0..workers).map(|_| Deque::default()).collect(),
            seed: AtomicUsize::new(0),
        }
    }

    /// The slot index meaning "no local deque".
    pub fn remote_slot(&self) -> usize {
        self.locals.len()
    }

    /// Drop every queued task (fault shutdown).
    pub fn clear(&self) {
        for q in self.queues() {
            q.lock().clear();
        }
    }

    /// The injector, then every worker deque.
    fn queues(&self) -> impl Iterator<Item = &Deque> {
        std::iter::once(&self.injector).chain(self.locals.iter())
    }

    /// The deque `hint` routes to: the hinted worker's, else the
    /// injector.
    fn target(&self, hint: Option<usize>) -> &Deque {
        hint.and_then(|w| self.locals.get(w)).unwrap_or(&self.injector)
    }

    /// Every worker deque once, from a randomized starting victim. A
    /// Weyl-sequence step through a SplitMix scramble picks the start:
    /// deterministic, lock-free, and successive calls spread over all
    /// of `0..n` — no global RNG.
    fn victims(&self) -> impl Iterator<Item = usize> {
        let n = self.locals.len();
        let start = if n == 0 { 0 } else { self.next_start(n) };
        (0..n).map(move |i| (start + i) % n)
    }

    fn next_start(&self, n: usize) -> usize {
        let s = self.seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let mut z = s as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % n
    }
}

impl ReadyQueue for StealQueue {
    fn push(&self, task: TaskId, hint: Option<usize>) {
        self.target(hint).lock().push_back(task);
    }

    fn push_batch(&self, tasks: &[TaskId], hint: Option<usize>) {
        self.target(hint).lock().extend(tasks);
    }

    fn pop(&self, worker: usize) -> Option<TaskId> {
        let Some(local) = self.locals.get(worker) else {
            // No local deque (root thread, compensation workers): take
            // single tasks — there is no deque to park a batch on, and
            // hoarding tasks in a private buffer could strand them.
            let oldest = self.injector.lock().pop_front();
            return oldest
                .or_else(|| self.victims().find_map(|v| self.locals[v].lock().pop_front()));
        };
        let newest = local.lock().pop_back();
        // Drain the injector in batches too: one task to run, the rest
        // parked on the local deque where peers can steal it. Then the
        // peers, each at most once.
        newest.or_else(|| steal_half(&self.injector, local)).or_else(|| {
            let mut peers = self.victims().filter(|&v| v != worker);
            peers.find_map(|v| steal_half(&self.locals[v], local))
        })
    }

    fn len(&self) -> usize {
        self.queues().map(|q| q.lock().len()).sum()
    }

    /// Short-circuiting emptiness probe. `len() == 0` would sum every
    /// deque; this is on the worker park/recheck path
    /// (sleep-gate revalidation), where any non-empty deque should
    /// answer immediately without touching the rest.
    fn is_empty(&self) -> bool {
        self.queues().all(|q| q.lock().is_empty())
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
        assert_eq!(q.locals[0].lock().len(), 1, "surplus of the stolen batch stays stealable");
        assert_eq!(q.locals[1].lock().len(), 2, "victim keeps the other half");
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

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let q = StealQueue::new(2);
        for i in 1..=3 {
            q.push(TaskId(i), Some(0));
        }
        assert_eq!(q.pop(0), Some(TaskId(3)), "owner pops newest");
        assert_eq!(q.pop(1), Some(TaskId(1)), "thief steals oldest");
        assert_eq!(q.pop(0), Some(TaskId(2)));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn batch_steal_moves_half_bounded() {
        let q = StealQueue::new(2);
        let ids: Vec<TaskId> = (0..10).map(TaskId).collect();
        q.push_batch(&ids, Some(1));
        // Steals ceil(10/2) = 5: returns the oldest, lands 4 locally.
        assert_eq!(q.pop(0), Some(TaskId(0)));
        assert_eq!(q.locals[1].lock().len(), 5);
        assert_eq!(*q.locals[0].lock(), [1, 2, 3, 4].map(TaskId), "victim's order kept");
        // The moved tasks stay visible to further thieves, oldest first.
        assert_eq!(q.pop(q.remote_slot()), Some(TaskId(1)));
        q.clear();

        // A long deque gives up at most STEAL_BATCH tasks per steal.
        let ids: Vec<TaskId> = (0..100).map(TaskId).collect();
        q.push_batch(&ids, Some(1));
        assert_eq!(q.pop(0), Some(TaskId(0)));
        assert_eq!(q.locals[0].lock().len(), STEAL_BATCH - 1);
        assert_eq!(q.locals[1].lock().len(), 100 - STEAL_BATCH);

        // An empty victim leaves the thief's deque untouched.
        q.locals[1].lock().clear();
        q.locals[0].lock().truncate(1);
        assert_eq!(q.pop(1), Some(TaskId(1)));
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn injector_is_fifo_and_drains_in_batches() {
        let q = StealQueue::new(1);
        let ids: Vec<TaskId> = (0..10).map(TaskId).collect();
        q.push_batch(&ids, None);
        // A deque-less slot takes single tasks, oldest first.
        assert_eq!(q.pop(q.remote_slot()), Some(TaskId(0)));
        assert_eq!(q.pop(q.remote_slot()), Some(TaskId(1)));
        // A worker takes half of the remaining 8: one to run, 3 parked.
        assert_eq!(q.pop(0), Some(TaskId(2)));
        assert_eq!(q.injector.lock().len(), 4);
        assert_eq!(q.locals[0].lock().len(), 3);
        assert_eq!(q.len(), 7, "no task lost or duplicated");
    }

    /// Producers (hinted, un-hinted, batched) race pool workers and a
    /// deque-less slot: every pushed id is popped exactly once, and
    /// the queue reads empty once everyone is done.
    #[test]
    fn concurrent_push_and_steal_delivers_every_task_exactly_once() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        const WORKERS: usize = 3;
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 6_000;
        let q = Arc::new(StealQueue::new(WORKERS));
        let producing = Arc::new(AtomicBool::new(true));

        let consumers: Vec<_> = (0..=WORKERS) // the last slot is deque-less
            .map(|slot| {
                let (q, producing) = (Arc::clone(&q), Arc::clone(&producing));
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        // Read the flag first: a miss after it cleared
                        // means nothing is left for this slot to find.
                        let more = producing.load(Ordering::Acquire);
                        match q.pop(slot) {
                            Some(t) => got.push(t.0),
                            None if more => std::thread::yield_now(),
                            None => break got,
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let ids: Vec<TaskId> =
                        (p * PER_PRODUCER..(p + 1) * PER_PRODUCER).map(TaskId).collect();
                    match p {
                        0 => ids.iter().for_each(|&t| q.push(t, Some(t.0 as usize % WORKERS))),
                        1 => ids.iter().for_each(|&t| q.push(t, None)),
                        _ => ids.chunks(7).enumerate().for_each(|(i, c)| {
                            q.push_batch(c, (i % 2 == 0).then_some(i % WORKERS));
                        }),
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        producing.store(false, Ordering::Release);
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        // Nothing is left behind: surplus in flight during a peer's
        // last miss lands on the thief's own deque, which the thief
        // drains before its own last miss.
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }
}
