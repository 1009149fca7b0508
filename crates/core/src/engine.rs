//! The dependency engine: Jade's serial-semantics state machine, the
//! one implementation every backend runs.
//!
//! [`ShardedEngine`] is a *passive* data structure driven by an
//! executor. It owns the per-object serial-order declaration queues,
//! the task slots and the hierarchical serial-order bookkeeping
//! (paths, anchors, §4.4 coverage, `with-cont`, commuting updates —
//! the vocabulary is in [`crate::graph`]), and it answers the only
//! question that matters for correctness: *which tasks may run (or
//! resume) now without violating the serial semantics of the original
//! program?* The `jade-threads` pool and the `jade-net` coordinator
//! share one engine between their workers; the serial elision and the
//! `jade-sim` event loop own one exclusively through
//! [`DepGraph`](crate::graph::DepGraph) and pay only uncontended locks.
//!
//! All mutable state is partitioned so that concurrent executors never
//! rendezvous on one mutex:
//!
//! * **Shard table.** Object queues live in `SHARD_COUNT` shards, each
//!   its own [`QueueArena`] behind its own mutex; an object's shard is
//!   `ObjectId % SHARD_COUNT`. Operations on disjoint objects run
//!   fully in parallel.
//! * **Cross-object commit.** A multi-object operation (a `withonly`
//!   specification or a `with-cont` batch) locks the shards of every
//!   object it touches *jointly, in ascending shard order* — the
//!   classic total-order argument makes the commit deadlock-free —
//!   mutates the queues, and releases. The commit holds no other
//!   locks, so its span is a few queue-node updates.
//! * **Task slots.** Per-task mutable state (lifecycle state, blocked
//!   waits, child counters) sits in per-task *leaf* mutexes: they may
//!   be taken under shard locks, but nothing is ever acquired while
//!   one is held, so they cannot participate in a cycle.
//! * **Generational slot slab.** Task slots live in `TASK_SHARDS`
//!   slab shards (slot index modulo the shard count), each an
//!   append-only array of segments (8, 16, 32, … slots) that are
//!   allocated once and never move, so a lookup is two loads and an
//!   index and hands out a plain `&TaskSlot` — no lock, no refcount.
//!   A thread allocates from its home shard; slots are *recycled*
//!   through per-shard free-lists, which a creator shares with the
//!   workers finishing its tasks: a slot returns to its shard's
//!   free-list once its task has finished **and** every child's slot
//!   has been recycled (a `pins` refcount — one self-pin released at
//!   finish plus one per live child — enforces this, which also keeps
//!   every ancestor of a live task lookupable for coverage walks and
//!   anchor materialization). Recycling bumps the slot's generation,
//!   and [`TaskId`] carries `(index, generation)`, so a stale id held
//!   across a reuse fails validation instead of aliasing the new
//!   occupant (ABA-safe). Slot interiors (`waiting`, `decls`, label,
//!   path) are reset in place, so the steady-state task lifecycle
//!   performs no allocation and the slab's high-water mark
//!   (`peak_task_slots`) is bounded by the live-set, not the task
//!   count.
//! * **Readiness counting.** Instead of re-scanning a task's
//!   declarations on every queue change (which would need all its
//!   shards at once), each task carries an atomic `missing` counter of
//!   immediate-mode rights not yet enabled. Every [`QueueArena`]
//!   mutator reports the [`Transition`]s it caused — grants
//!   decrement, revocations increment — and the 1→0 edge promotes the
//!   task to `Ready` exactly once (a state check under the task's leaf
//!   mutex deduplicates racing promoters). A creation *guard* of +1
//!   keeps the counter positive until the whole specification is
//!   attached, so a task can never be dispatched half-created.
//!
//! A task promoted to `Ready` may subsequently *lose* a grant (a
//! hierarchical child's declaration inserts ahead of its parent's —
//! see `queue.rs`). This is benign: actually touching an object goes
//! through [`check_access`](ShardedEngine::check_access) at guard
//! time, which blocks the task until the right is re-enabled. The
//! serial semantics never depended on `Ready` meaning "still enabled",
//! only on "was fully enabled once and will be again".
//!
//! Statistics are [`AtomicStats`]; the dynamic task-graph trace is
//! captured per-shard (edges) plus an engine-level creation log
//! (tasks — the slab reuses ids, so creation order must be recorded
//! at allocation time) and stitched into one [`TaskGraphTrace`] when
//! taken.

use crate::fasthash::FastMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{MutexGuard, OnceLock};

use crate::error::{JadeError, Result};
use crate::graph::{path_precedes, AccessStatus, TaskState, Wake};
use crate::ids::{ObjectId, Placement, TaskId};
use crate::queue::{NodeRef, QueueArena, Transition};
use crate::spec::{AccessKind, ContOp, DeclRights, DeclState, Declaration};
use crate::stats::AtomicStats;
use crate::sync::{CachePadded, Condvar, Mutex, RwLock};
use crate::trace::{TaskGraphTrace, TraceEdge};

/// Number of object-queue shards. A power of two comfortably above
/// typical worker counts: collisions cost contention, not correctness.
pub const SHARD_COUNT: usize = 64;

#[inline]
fn shard_of(oid: ObjectId) -> usize {
    (oid.0 as usize) % SHARD_COUNT
}

/// Number of task-slab shards. Slot index `i` lives in shard
/// `i % TASK_SHARDS` at position `i / TASK_SHARDS`; each allocating
/// thread takes its slots from one home shard, so concurrent creators
/// rarely contend on one free-list.
pub const TASK_SHARDS: usize = 16;

/// Segments per slab shard. Segment `k` holds `8 << k` slots, so 25
/// segments hold the `2^32 / TASK_SHARDS` positions a `u32` slot index
/// can name.
const SEGMENTS: usize = 25;

/// The segment holding slab position `pos`, and the offset in it.
#[inline]
fn segment_of(pos: usize) -> (usize, usize) {
    let q = pos + 8;
    let seg = q.ilog2() as usize - 3;
    (seg, q - (8 << seg))
}

/// One shard: the declaration queues of every object mapped here,
/// plus (when tracing) the per-object logical access history and the
/// dependence edges discovered on these objects.
#[derive(Debug, Default)]
struct Shard {
    arena: QueueArena,
    /// Serial access history per object. Unlike the live queue (whose
    /// completed entries are gone) it captures the *logical*
    /// dependences of the serial order, so Figure 4-style task graphs
    /// are complete even under the serial elision. Feeds the
    /// `conflicts` counter always and the trace when one is attached.
    hist: FastMap<ObjectId, AccessHist>,
    edges: Vec<TraceEdge>,
    /// Reusable transition scratch for the mutate→apply step of every
    /// operation on this shard's queues; only touched with the shard
    /// lock held.
    trs: Vec<Transition>,
}

/// One object's serial access history: the last writer and the readers
/// since that write. O(1) memory however many tasks read an object
/// that is never re-written; the readers' ids are needed only to draw
/// trace edges, so they are kept only while tracing.
#[derive(Debug, Default)]
struct AccessHist {
    writer: Option<TaskId>,
    readers: u64,
    /// The latest reader — all an attach needs to count a task once
    /// when its spec names the object twice (the shard stays locked
    /// for the whole attach, so its own entry can only be the last).
    last_reader: Option<TaskId>,
    reader_ids: Vec<TaskId>,
}

/// Per-task mutable state, protected by the slot's leaf mutex.
#[derive(Debug)]
struct TaskSync {
    state: TaskState,
    /// Outstanding waits while `Blocked`.
    waiting: Vec<(ObjectId, AccessKind)>,
}

/// A task's identity: written only while the slot is being
/// (re)initialized — when no valid id for it is in circulation — and
/// read-shared for the rest of its occupancy. The `RwLock` makes slot
/// reuse race-free for readers that lost a lookup race with a recycle.
#[derive(Debug, Default)]
struct TaskIdent {
    label: String,
    parent: Option<TaskId>,
    path: Vec<u32>,
    placement: Placement,
}

/// One slot of the generational task slab. The slot itself is
/// allocated once (in a segment its slab shard never frees) and then
/// recycled: identity and interior state are reset in place for each
/// new occupant, and `gen` is bumped on every recycle so stale
/// [`TaskId`]s fail validation.
#[derive(Debug)]
struct TaskSlot {
    /// This slot's fixed slab index (never changes across occupants).
    index: u32,
    /// Generation of the current occupant; bumped at recycle time.
    gen: AtomicU32,
    /// Recycle refcount: one self-pin (released when the task
    /// finishes) plus one per child whose slot is still occupied.
    /// Reaching zero recycles the slot and unpins the parent. The
    /// transitive effect: every ancestor of a live task stays
    /// lookupable (coverage walks, anchor materialization), and the
    /// root — whose self-pin is never released — is never recycled.
    pins: AtomicU32,
    ident: RwLock<TaskIdent>,
    /// Immediate-mode rights not yet enabled, plus the creation guard.
    /// Signed: transient drift below the true count is possible for
    /// *running* tasks (whose readiness no longer matters) — see
    /// module docs.
    missing: AtomicI64,
    sync: Mutex<TaskSync>,
    /// Signalled on `Blocked` → `Running` transitions and on poison.
    cv: Condvar,
    /// Declaration/anchor nodes of this task, in declaration order.
    decls: Mutex<Vec<(ObjectId, NodeRef)>>,
    /// Serial index handed to this task's next child. Atomic (not under
    /// `sync`) so the task-creation hot path allocates a child index
    /// with one uncontended RMW instead of a parent lock round-trip;
    /// readers ([`ShardedEngine::is_newest_child_position`]) run with
    /// the relevant object shard held, whose lock ordering makes every
    /// already-inserted sibling's increment visible.
    next_child: AtomicU32,
}

impl TaskSlot {
    /// A blank slot at `index`, generation 0; the caller initializes
    /// identity and state before publishing an id for it.
    fn blank(index: u32) -> Self {
        TaskSlot {
            index,
            gen: AtomicU32::new(0),
            pins: AtomicU32::new(0),
            ident: RwLock::new(TaskIdent::default()),
            missing: AtomicI64::new(1),
            sync: Mutex::new(TaskSync { state: TaskState::Pending, waiting: Vec::new() }),
            cv: Condvar::new(),
            decls: Mutex::new(Vec::new()),
            next_child: AtomicU32::new(0),
        }
    }

    /// This task's node on `oid`, whose (locked) queue is in `arena`.
    /// The root's is by construction the queue's tail — its implicit
    /// declaration is pushed when the object is created and every
    /// other task sorts before the root — which spares a search of
    /// every object the program ever created.
    fn decl(&self, arena: &QueueArena, oid: ObjectId) -> Option<NodeRef> {
        if self.index == 0 {
            return arena.tail(oid).filter(|&n| arena.node(n).task.is_root());
        }
        self.decls.lock().iter().find(|(o, _)| *o == oid).map(|(_, n)| *n)
    }
}

/// One shard of the task slab: the slots whose index maps here and
/// the free-list of recycled indices awaiting reuse. Slots never move:
/// the shard grows by whole segments, each allocated once by the
/// thread that grows the shard (holding `free`) and published through
/// its `OnceLock`, and `len` — the positions handed out — is stored
/// after the slot's segment exists, so a lookup is two loads and an
/// index. The free-list, which the creator pops and finishing workers
/// push for every task, is padded off the lines every lookup reads.
#[derive(Debug, Default)]
struct TaskShard {
    len: AtomicUsize,
    segments: [OnceLock<Box<[TaskSlot]>>; SEGMENTS],
    free: CachePadded<Mutex<Vec<u32>>>,
}

impl TaskShard {
    /// The slot at `pos`, if that position has been handed out.
    fn get(&self, pos: usize) -> Option<&TaskSlot> {
        (pos < self.len.load(Ordering::Acquire)).then(|| self.at(pos))
    }

    /// The slot at a handed-out position.
    fn at(&self, pos: usize) -> &TaskSlot {
        let (seg, off) = segment_of(pos);
        &self.segments[seg].get().expect("a handed-out position's segment is published")[off]
    }

    /// Every slot handed out so far.
    fn slots(&self) -> impl Iterator<Item = &TaskSlot> {
        (0..self.len.load(Ordering::Acquire)).map(|p| self.at(p))
    }
}

/// A set of jointly held shard guards, acquired in ascending shard
/// order (the deadlock-freedom invariant of the cross-object commit).
/// The one-shard case — every single-object spec, the overwhelmingly
/// common shape — carries its guard inline, with no allocation.
enum ShardSet<'a> {
    One(usize, MutexGuard<'a, Shard>),
    Many(Vec<(usize, MutexGuard<'a, Shard>)>),
}

impl<'a> ShardSet<'a> {
    fn get(&mut self, oid: ObjectId) -> &mut Shard {
        let idx = shard_of(oid);
        match self {
            ShardSet::One(i, g) => {
                debug_assert_eq!(*i, idx, "object's shard not part of this commit");
                &mut *g
            }
            ShardSet::Many(guards) => {
                let pos = guards
                    .iter()
                    .position(|(i, _)| *i == idx)
                    .expect("object's shard not part of this commit");
                &mut guards[pos].1
            }
        }
    }
}

/// Caller-owned reusable buffers for the engine's hot-path
/// operations ([`attach_task_with`](ShardedEngine::attach_task_with),
/// [`finish_task_with`](ShardedEngine::finish_task_with),
/// [`with_cont_with`](ShardedEngine::with_cont_with)). Executors keep
/// one per worker; after warm-up the steady-state task lifecycle then
/// allocates nothing. The `Vec`-returning engine methods are thin
/// wrappers that use a throwaway scratch.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Wakes produced by the last operation; the caller drains them.
    pub wakes: Vec<Wake>,
    /// Staging buffer executors use to batch ready-task dispatch
    /// pushes derived from `wakes`.
    pub ready: Vec<TaskId>,
    pnodes: Vec<Option<NodeRef>>,
    objects: Vec<ObjectId>,
    decls: Vec<(ObjectId, NodeRef)>,
    converted: Vec<(ObjectId, AccessKind)>,
    touched: Vec<(ObjectId, NodeRef, DeclRights)>,
    waits: Vec<(ObjectId, AccessKind)>,
}

/// The sharded dependency engine. All methods take `&self`: the
/// engine is shared between worker threads without an enclosing lock.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Box<[Mutex<Shard>]>,
    /// The generational task slab (see module docs).
    task_shards: Box<[TaskShard]>,
    /// Hands a thread its home slab shard on its first allocation. The
    /// home shard is a process-wide thread-local, not per engine: the
    /// first engine a thread ever allocated in decides it for every
    /// engine after.
    alloc_cursor: AtomicU64,
    /// Slab positions handed out (the slab never shrinks, so this is
    /// also its size; segment capacity not yet handed out is not
    /// counted); mirrored into `peak_task_slots`.
    slots_total: AtomicU64,
    /// Creation-ordered (id, label) log backing the trace: with slot
    /// recycling the slab cannot be iterated to recover creation
    /// order or finished tasks' labels. Only written when tracing.
    trace_log: Mutex<Vec<(TaskId, String)>>,
    next_object: AtomicU64,
    /// Bumped by the creator and dropped by the finisher of every
    /// task, so it gets a cache line to itself.
    live: CachePadded<AtomicU64>,
    /// Counters describing the work the engine performed.
    pub stats: AtomicStats,
    tracing: AtomicBool,
    poisoned: AtomicBool,
}

impl Default for ShardedEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedEngine {
    /// Create an engine with a running root task (the main program).
    pub fn new() -> Self {
        let eng = ShardedEngine {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::default())).collect(),
            task_shards: (0..TASK_SHARDS).map(|_| TaskShard::default()).collect(),
            alloc_cursor: AtomicU64::new(1),
            slots_total: AtomicU64::new(0),
            trace_log: Mutex::new(Vec::new()),
            next_object: AtomicU64::new(0),
            live: CachePadded(AtomicU64::new(0)),
            stats: AtomicStats::new(),
            tracing: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        };
        let root = eng.grow_shard(0, &eng.task_shards[0].free.lock());
        root.sync.lock().state = TaskState::Running;
        root.missing.store(0, Ordering::Relaxed);
        // The root's self-pin is never released, so slot 0 is never
        // recycled and `TaskId::ROOT` stays valid for the whole run.
        root.pins.store(1, Ordering::Relaxed);
        root.ident.write().label.push_str("root");
        eng
    }

    /// Enable dynamic task-graph capture (Figure 4 reproduction).
    /// Switch it on before the program runs: the access history keeps
    /// reader ids (the sources of write-after-read edges) only from
    /// then on.
    pub fn enable_trace(&self) {
        let mut log = self.trace_log.lock();
        if log.is_empty() {
            log.push((TaskId::ROOT, "root".to_string()));
        }
        self.tracing.store(true, Ordering::Release);
    }

    #[inline]
    fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Acquire)
    }

    /// Stitch the creation log and per-shard edge fragments into one
    /// trace: tasks in creation order (the slab recycles slots, so
    /// order comes from the log, not the table) and edges deduplicated
    /// per from/to pair.
    pub fn take_trace(&self) -> Option<TaskGraphTrace> {
        if !self.tracing() {
            return None;
        }
        let mut tr = TaskGraphTrace::new();
        for (tid, label) in self.trace_log.lock().iter() {
            tr.task(*tid, label);
        }
        let mut edges = Vec::new();
        for sh in self.shards.iter() {
            edges.extend(std::mem::take(&mut sh.lock().edges));
        }
        // Canonical order so runs are byte-identical regardless of
        // which worker recorded which shard's edges first.
        edges.sort_by_key(|e| (e.to, e.from, e.object, e.kind as u8));
        for e in edges {
            tr.edge(e);
        }
        Some(tr)
    }

    /// Look up a task slot, validating the id's generation against the
    /// slot's current occupant. `None` means the id is stale (its task
    /// finished and the slot was recycled) or was never allocated.
    fn try_slot(&self, t: TaskId) -> Option<&TaskSlot> {
        let idx = t.index();
        let slot = self.task_shards[idx % TASK_SHARDS].get(idx / TASK_SHARDS)?;
        (slot.gen.load(Ordering::Acquire) == t.generation()).then_some(slot)
    }

    /// [`try_slot`](Self::try_slot) for an id the caller knows to be
    /// live; a stale one is a broken caller contract, which the public
    /// methods built on this document under "Panics".
    fn slot(&self, t: TaskId) -> &TaskSlot {
        self.try_slot(t).unwrap_or_else(|| panic!("stale or unknown task id {t} (slot recycled?)"))
    }

    /// Current lifecycle state of a task.
    ///
    /// # Panics
    ///
    /// If `t` is stale (its slot was recycled) or was never allocated.
    pub fn state(&self, t: TaskId) -> TaskState {
        self.slot(t).sync.lock().state
    }

    /// Label given at creation.
    ///
    /// # Panics
    ///
    /// If `t` is stale (its slot was recycled) or was never allocated.
    pub fn label(&self, t: TaskId) -> String {
        self.slot(t).ident.read().label.clone()
    }

    /// Parent task (`None` for the root).
    ///
    /// # Panics
    ///
    /// If `t` is stale (its slot was recycled) or was never allocated.
    pub fn parent(&self, t: TaskId) -> Option<TaskId> {
        self.slot(t).ident.read().parent
    }

    /// Placement requested for the task.
    ///
    /// # Panics
    ///
    /// If `t` is stale (its slot was recycled) or was never allocated.
    pub fn placement(&self, t: TaskId) -> Placement {
        self.slot(t).ident.read().placement
    }

    /// Whether `t` currently names a live slot occupant (its slot has
    /// not been recycled to a new generation).
    pub fn is_current(&self, t: TaskId) -> bool {
        self.try_slot(t).is_some()
    }

    /// Number of created-but-unfinished tasks (root excluded); the
    /// executors' throttling policies read this.
    pub fn live_tasks(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Number of tasks ever created, including the root. (With slot
    /// recycling this is a counter, not the slab size; see
    /// [`task_slots`](Self::task_slots) for the latter.)
    pub fn total_tasks(&self) -> usize {
        self.stats.tasks_created.load(Ordering::Relaxed) as usize + 1
    }

    /// Number of task slots the slab has materialized — the memory
    /// high-water mark. Bounded by the peak live-set (plus per-shard
    /// slack), not by `total_tasks`.
    pub fn task_slots(&self) -> u64 {
        self.slots_total.load(Ordering::Relaxed)
    }

    /// The task's declarations: object and current rights (anchors
    /// excluded). The simulator uses this to drive object fetches.
    ///
    /// # Panics
    ///
    /// If `t` is stale (its slot was recycled) or was never allocated.
    pub fn declarations_of(&self, t: TaskId) -> Vec<(ObjectId, DeclRights)> {
        // Copy the node list out first: a slot's leaf mutex is never
        // held while a shard lock is taken.
        let nodes = self.slot(t).decls.lock().clone();
        nodes
            .into_iter()
            .filter_map(|(oid, nr)| {
                let rights = self.shard(oid).arena.node(nr).rights;
                rights.is_declared().then_some((oid, rights))
            })
            .collect()
    }

    /// Debug builds only (a no-op otherwise): assert every object
    /// queue against a from-scratch evaluation
    /// ([`QueueArena::check_invariants`]) and every `Pending` task's
    /// `missing` against its ungranted immediate sides. A full scan
    /// for tests, to be called between engine operations — never from
    /// a hot path, and not while an attach is in flight (its creation
    /// guard is counted in `missing`).
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for sh in self.shards.iter() {
            sh.lock().arena.check_invariants();
        }
        for slot in self.task_shards.iter().flat_map(TaskShard::slots) {
            if slot.sync.lock().state != TaskState::Pending {
                continue;
            }
            // Copied out first: a leaf mutex is never held while a
            // shard lock is taken.
            let nodes = slot.decls.lock().clone();
            let ungranted: usize = nodes
                .iter()
                .map(|&(oid, nr)| {
                    let sh = self.shard(oid);
                    let n = sh.arena.node(nr);
                    let waits = |k: &AccessKind| {
                        n.rights.side(*k) == DeclState::Immediate && !n.granted(*k)
                    };
                    AccessKind::ALL.iter().filter(|k| waits(k)).count()
                })
                .sum();
            let missing = slot.missing.load(Ordering::Acquire);
            assert_eq!(missing, ungranted as i64, "missing of pending {}", slot.ident.read().label);
        }
    }

    // ------------------------------------------------------------------
    // Shard locking
    // ------------------------------------------------------------------

    fn shard(&self, oid: ObjectId) -> MutexGuard<'_, Shard> {
        self.shards[shard_of(oid)].lock()
    }

    /// Jointly lock the shards of all given objects in ascending shard
    /// order (deduplicated) — the cross-object commit.
    fn lock_shards(&self, oids: &[ObjectId]) -> ShardSet<'_> {
        if let [oid] = oids {
            let i = shard_of(*oid);
            return ShardSet::One(i, self.shards[i].lock());
        }
        let mut idxs: Vec<usize> = oids.iter().map(|&o| shard_of(o)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        if let [i] = idxs[..] {
            return ShardSet::One(i, self.shards[i].lock());
        }
        ShardSet::Many(idxs.into_iter().map(|i| (i, self.shards[i].lock())).collect())
    }

    // ------------------------------------------------------------------
    // Transition processing (grants and revocations)
    // ------------------------------------------------------------------

    /// Fold queue-flag transitions into task readiness. May be called
    /// with shard locks held: it takes only task leaf mutexes.
    ///
    /// Transitions arrive in queue order, so one task's grants are
    /// adjacent (a task has at most one node per queue and the grants
    /// of one mutation come from one queue); each run is folded into
    /// a single slot lookup and a single `missing` update.
    fn apply_transitions(&self, trs: &[Transition], wakes: &mut Vec<Wake>) {
        let mut i = 0;
        while i < trs.len() {
            let task = trs[i].task;
            let mut j = i;
            let mut granted = 0i64;
            while j < trs.len() && trs[j].task == task {
                granted += if trs[j].granted { 1 } else { -1 };
                j += 1;
            }
            let slot = self.slot(task);
            if granted < 0 {
                // Net revocation: a Ready/Running task re-validates at
                // guard time, so only the counter needs correcting.
                slot.missing.fetch_add(-granted, Ordering::AcqRel);
            } else if granted > 0 {
                let before = slot.missing.fetch_sub(granted, Ordering::AcqRel);
                let mut s = slot.sync.lock();
                match s.state {
                    TaskState::Pending if before == granted => {
                        s.state = TaskState::Ready;
                        wakes.push(Wake::Ready(task));
                    }
                    TaskState::Blocked => {
                        for tr in &trs[i..j] {
                            if !tr.granted {
                                continue;
                            }
                            if let Some(pos) =
                                s.waiting.iter().position(|w| *w == (tr.object, tr.kind))
                            {
                                s.waiting.remove(pos);
                            }
                        }
                        if s.waiting.is_empty() {
                            s.state = TaskState::Running;
                            wakes.push(Wake::Unblocked(task));
                            slot.cv.notify_all();
                        }
                    }
                    _ => {}
                }
            }
            i = j;
        }
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Register a new shared object created by `creator`. The creator
    /// receives an implicit immediate `rd_wr` declaration at its serial
    /// position (so it can initialize the object and cover its
    /// children), and the root receives its implicit deferred `rd_wr`
    /// declaration at the queue tail (so the main program can always
    /// collect results, waiting for every task in serial order).
    ///
    /// # Panics
    ///
    /// If `creator` is stale (its slot was recycled) or was never allocated.
    pub fn create_object(&self, creator: TaskId) -> ObjectId {
        let oid = ObjectId(self.next_object.fetch_add(1, Ordering::Relaxed));
        self.stats.objects_created.fetch_add(1, Ordering::Relaxed);
        let mut sh = self.shard(oid);
        sh.arena.register_object(oid);
        let root_rights = DeclRights {
            read: DeclState::Deferred,
            write: DeclState::Deferred,
            commute: DeclState::None,
        };
        let Shard { arena, trs, .. } = &mut *sh;
        let root_node = arena.push_tail(oid, TaskId::ROOT, root_rights, trs);
        self.slot(TaskId::ROOT).decls.lock().push((oid, root_node));
        if !creator.is_root() {
            self.ensure_positioned_node(&mut sh, creator, oid, DeclRights::RD_WR);
        }
        // The only nodes are the creator's (freshly granted) and the
        // root's deferred tail: no third task can be affected, so the
        // transitions need no counting (the creator is running).
        sh.trs.clear();
        oid
    }

    /// Whether an object id has been registered.
    pub fn has_object(&self, oid: ObjectId) -> bool {
        self.shard(oid).arena.has_object(oid)
    }

    /// Find the node of `task` on `oid` inside the (locked) shard, or
    /// create one with `rights` at the task's serial position,
    /// materializing ancestor anchors as needed. All queue nodes for
    /// `oid` live in this one shard; transitions land in its `trs`.
    fn ensure_positioned_node(
        &self,
        sh: &mut Shard,
        task: TaskId,
        oid: ObjectId,
        rights: DeclRights,
    ) -> NodeRef {
        let slot = self.slot(task);
        if let Some(nr) = slot.decl(&sh.arena, oid) {
            return nr;
        }
        let ident = slot.ident.read();
        let nr = match ident.parent {
            None => {
                // Root without a node: append at tail (root sorts last).
                sh.arena.push_tail(oid, task, rights, &mut sh.trs)
            }
            Some(parent) => {
                let pnode = self.ensure_positioned_node(sh, parent, oid, DeclRights::NONE);
                // A *newly created* task may always insert directly
                // before its parent (it is the parent's newest child);
                // an older task must find its position by order walk.
                if self.is_newest_child_position(parent, &ident.path) {
                    sh.arena.insert_before(pnode, task, rights, &mut sh.trs)
                } else {
                    self.insert_by_order(sh, task, &ident.path, oid, rights)
                }
            }
        };
        drop(ident);
        slot.decls.lock().push((oid, nr));
        nr
    }

    fn is_newest_child_position(&self, parent: TaskId, path: &[u32]) -> bool {
        let idx = *path.last().expect("non-root task has a path");
        self.slot(parent).next_child.load(Ordering::Relaxed) == idx + 1
    }

    fn insert_by_order(
        &self,
        sh: &mut Shard,
        task: TaskId,
        my_path: &[u32],
        oid: ObjectId,
        rights: DeclRights,
    ) -> NodeRef {
        let mut before: Option<NodeRef> = None;
        for (nr, node) in sh.arena.iter(oid) {
            // A node whose task id no longer validates is an inert
            // anchor of a fully finished-and-recycled subtree (live
            // tasks and ancestors of live tasks are pinned): order
            // relative to it is semantically irrelevant, so skip it.
            let Some(other) = self.try_slot(node.task) else { continue };
            if path_precedes(my_path, &other.ident.read().path) {
                before = Some(nr);
                break;
            }
        }
        match before {
            Some(b) => sh.arena.insert_before(b, task, rights, &mut sh.trs),
            None => sh.arena.push_tail(oid, task, rights, &mut sh.trs),
        }
    }

    // ------------------------------------------------------------------
    // Task creation (two-phase)
    // ------------------------------------------------------------------

    /// Phase 1 of `withonly`: allocate the task id, path and slot. The
    /// slot is born `Pending` with its creation guard held, so nothing
    /// can dispatch it until [`attach_task`](Self::attach_task)
    /// releases the guard. Split from attachment so the executor can
    /// record the task (body, creation event) before any declaration
    /// becomes visible to other workers.
    ///
    /// # Panics
    ///
    /// If `parent` is stale (its slot was recycled) or was never allocated.
    pub fn alloc_task(&self, parent: TaskId, label: &str, placement: Placement) -> TaskId {
        let pslot = self.slot(parent);
        debug_assert!(
            matches!(pslot.sync.lock().state, TaskState::Running | TaskState::Ready),
            "only an executing task can create children"
        );
        let child_idx = pslot.next_child.fetch_add(1, Ordering::Relaxed);
        // Pin the parent: its slot (and transitively every ancestor's)
        // must stay valid while this child can still reference it.
        pslot.pins.fetch_add(1, Ordering::AcqRel);
        let (tid, slot) = self.acquire_slot();
        // Reset the slot in place for its new occupant. Writing under
        // the ident write lock is race-free: the only readers that can
        // reach a just-acquired slot are stale-id holders, and they
        // synchronize on the same lock.
        {
            let pident = pslot.ident.read();
            let mut id = slot.ident.write();
            id.label.clear();
            id.label.push_str(label);
            id.parent = Some(parent);
            id.path.clear();
            id.path.extend_from_slice(&pident.path);
            id.path.push(child_idx);
            id.placement = placement;
        }
        slot.pins.store(1, Ordering::Release);
        // The creation guard: held until the spec is attached.
        slot.missing.store(1, Ordering::Release);
        {
            let mut s = slot.sync.lock();
            s.state = TaskState::Pending;
            s.waiting.clear();
        }
        slot.decls.lock().clear();
        slot.next_child.store(0, Ordering::Relaxed);
        if self.tracing() {
            self.trace_log.lock().push((tid, label.to_string()));
        }
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.tasks_created.fetch_add(1, Ordering::Relaxed);
        self.stats.observe_live(live);
        tid
    }

    /// Pop a recycled slot from the free-list of this thread's home
    /// slab shard, or grow that shard by one slot. Shard choice is
    /// thread-affine rather than round-robin per call: a slot returns
    /// to the free-list of *its* shard, whichever worker finished it,
    /// so a creator keeps reusing its own most-recently-retired slots,
    /// and different creators allocate from different shards. The
    /// free-list mutex is the one lock a creator shares with the
    /// workers that finish its tasks.
    fn acquire_slot(&self) -> (TaskId, &TaskSlot) {
        thread_local! {
            static HOME_SHARD: std::cell::Cell<usize> =
                const { std::cell::Cell::new(usize::MAX) };
        }
        let shard_idx = HOME_SHARD.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                v = self.alloc_cursor.fetch_add(1, Ordering::Relaxed) as usize % TASK_SHARDS;
                s.set(v);
            }
            v
        });
        let tsh = &self.task_shards[shard_idx];
        let mut free = tsh.free.lock();
        if let Some(idx) = free.pop() {
            drop(free);
            let slot = tsh.at(idx as usize / TASK_SHARDS);
            return (TaskId::new(idx, slot.gen.load(Ordering::Acquire)), slot);
        }
        let slot = self.grow_shard(shard_idx, &free);
        (TaskId::new(slot.index, 0), slot)
    }

    /// Hand out the next position of slab shard `shard`, allocating
    /// its segment if it is the first of one. `_free` is the shard's
    /// free-list guard: holding it serializes growth.
    fn grow_shard(&self, shard: usize, _free: &MutexGuard<'_, Vec<u32>>) -> &TaskSlot {
        let tsh = &self.task_shards[shard];
        // Only growers store `len`, and they hold `free`.
        let pos = tsh.len.load(Ordering::Relaxed);
        let (seg, off) = segment_of(pos);
        let base = pos - off;
        let segment = tsh.segments[seg].get_or_init(|| {
            let index = |p: usize| (p * TASK_SHARDS + shard) as u32;
            (base..base + (8 << seg)).map(|p| TaskSlot::blank(index(p))).collect()
        });
        // Pairs with the `Acquire` loads in `TaskShard::get`/`slots`:
        // a reader that sees this length sees the segment.
        tsh.len.store(pos + 1, Ordering::Release);
        let total = self.slots_total.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.observe_slots(total);
        &segment[off]
    }

    /// Drop one pin from `slot`; at zero, recycle the slot (bump its
    /// generation, return its index to the free-list) and cascade the
    /// release to the parent, whose pin this occupant held. Zero pins
    /// implies the task finished (self-pin released) and every child's
    /// slot was already recycled.
    fn release_pin(&self, slot: &TaskSlot) {
        let mut cur = slot;
        loop {
            if cur.pins.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            // Read the parent before publishing the slot for reuse:
            // after the free-list push another thread may reinitialize
            // the slot at any moment.
            let parent = cur.ident.read().parent;
            debug_assert!(parent.is_some(), "the root's self-pin is never released");
            let idx = cur.index;
            cur.gen.fetch_add(1, Ordering::Release);
            self.task_shards[idx as usize % TASK_SHARDS].free.lock().push(idx);
            match parent {
                Some(p) => cur = self.slot(p),
                None => return,
            }
        }
    }

    /// Phase 2 of `withonly`: validate coverage and insert the task's
    /// declarations at its serial position — the cross-object commit.
    /// Shards of all declared objects are locked jointly in ascending
    /// shard order; on return the creation guard is released, and the
    /// returned wakes include `Ready(tid)` if the task may start.
    ///
    /// # Panics
    ///
    /// If `tid` is the root, which is never attached. A stale `tid` is
    /// [`JadeError::StaleTask`].
    pub fn attach_task(&self, tid: TaskId, decls: Vec<Declaration>) -> Result<Vec<Wake>> {
        let mut scratch = EngineScratch::default();
        self.attach_task_with(tid, &decls, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.wakes))
    }

    /// [`attach_task`](Self::attach_task) with caller-owned scratch:
    /// the produced wakes land in `scratch.wakes` (cleared on entry)
    /// and no transient buffers are allocated after warm-up.
    ///
    /// # Panics
    ///
    /// If `tid` is the root, which is never attached. A stale `tid` is
    /// [`JadeError::StaleTask`].
    pub fn attach_task_with(
        &self,
        tid: TaskId,
        decls: &[Declaration],
        scratch: &mut EngineScratch,
    ) -> Result<()> {
        let slot = self.try_slot(tid).ok_or(JadeError::StaleTask { task: tid })?;
        let ident = slot.ident.read();
        let parent = ident.parent.expect("attach_task is never called for the root");
        let pslot = self.slot(parent);
        self.stats.declarations.fetch_add(decls.len() as u64, Ordering::Relaxed);

        let EngineScratch { wakes, pnodes, objects, .. } = scratch;
        wakes.clear();
        pnodes.clear();

        // Single-declaration specs — the common shape — lock their one
        // shard straight away; only multi-object commits build the
        // sorted object list.
        let mut set = match decls {
            [d] => self.lock_shards(std::slice::from_ref(&d.object)),
            _ => {
                objects.clear();
                objects.extend(decls.iter().map(|d| d.object));
                objects.sort_unstable();
                objects.dedup();
                self.lock_shards(objects)
            }
        };
        // Validate before mutating any queue, remembering the parent's
        // queue position on each object when it already has one.
        for d in decls {
            if !set.get(d.object).arena.has_object(d.object) {
                return Err(JadeError::UnknownObject(d.object));
            }
            pnodes.push(self.check_coverage(&mut set, parent, pslot, &ident.label, d)?);
        }

        let tracing = self.tracing();
        for (d, &cached) in decls.iter().zip(pnodes.iter()) {
            let sh = set.get(d.object);
            let pnode = match cached {
                Some(nr) => nr,
                None => self.ensure_positioned_node(sh, parent, d.object, DeclRights::NONE),
            };
            // Count the immediate sides into the readiness counter
            // (the guard still holds the task un-promotable), then
            // insert: the node's own grants and the revocations behind
            // it come back as transitions, in queue order.
            let immediate = |k: &AccessKind| d.rights.side(*k) == DeclState::Immediate;
            let imm = AccessKind::ALL.iter().filter(|k| immediate(k)).count() as i64;
            if imm > 0 {
                slot.missing.fetch_add(imm, Ordering::AcqRel);
            }
            sh.trs.clear();
            let nr = sh.arena.insert_before(pnode, tid, d.rights, &mut sh.trs);
            slot.decls.lock().push((d.object, nr));
            self.apply_transitions(&sh.trs, wakes);
            // Dependence accounting from the per-object access history
            // (last writer + readers since): the dynamic dependence
            // edges of the task graph (Figure 4), O(edges) instead of
            // an O(queue-depth) predecessor walk.
            let hist = sh.hist.entry(d.object).or_default();
            let mut edge = |from: TaskId, kind: AccessKind| {
                if tracing {
                    sh.edges.push(TraceEdge { from, to: tid, object: d.object, kind });
                }
            };
            let mut new_edges = 0u64;
            if let Some(w) = hist.writer.filter(|&w| w != tid) {
                for kind in AccessKind::ALL.into_iter().filter(|&k| d.rights.side(k).is_active()) {
                    new_edges += 1;
                    edge(w, kind);
                }
            }
            let read_already = hist.last_reader == Some(tid);
            if d.rights.write.is_active() {
                new_edges += hist.readers - read_already as u64;
                hist.reader_ids
                    .iter()
                    .filter(|&&r| r != tid)
                    .for_each(|&r| edge(r, AccessKind::Write));
                hist.writer = Some(tid);
                hist.readers = 0;
                hist.last_reader = None;
                hist.reader_ids.clear();
            } else if d.rights.read.is_active() && !read_already {
                hist.readers += 1;
                hist.last_reader = Some(tid);
                if tracing {
                    hist.reader_ids.push(tid);
                }
            }
            self.stats.conflicts.fetch_add(new_edges, Ordering::Relaxed);
        }
        drop(set);

        // Release the creation guard; the 1→0 edge promotes.
        if slot.missing.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut s = slot.sync.lock();
            if s.state == TaskState::Pending {
                s.state = TaskState::Ready;
                wakes.push(Wake::Ready(tid));
            }
        }
        Ok(())
    }

    /// Enforce §4.4: a child's declaration must be covered by the
    /// nearest ancestor that holds rights on the object. Subtrees may
    /// access dynamically created objects that escaped their creator
    /// (no ancestor holds rights); serial correctness is then ensured
    /// purely by queue position.
    /// On success returns the parent's own node on `d.object` if it
    /// has one (declared or anchor), so `attach_task` can insert
    /// before it without re-scanning the parent's declaration list.
    fn check_coverage(
        &self,
        set: &mut ShardSet<'_>,
        parent: TaskId,
        pslot: &TaskSlot,
        child_label: &str,
        d: &Declaration,
    ) -> Result<Option<NodeRef>> {
        // Fast path: the immediate parent (whose slot the caller
        // already holds) usually carries the declaration itself.
        let arena = &set.get(d.object).arena;
        if let Some(nr) = pslot.decl(arena, d.object) {
            let rights = arena.node(nr).rights;
            if rights.is_declared() {
                return Self::coverage_verdict(parent, rights, child_label, d).map(|()| Some(nr));
            }
            // Anchor node: the covering rights (if any) live further
            // up, but the parent's queue position is this node.
            self.check_coverage_walk(set, pslot.ident.read().parent, child_label, d)?;
            return Ok(Some(nr));
        }
        self.check_coverage_walk(set, pslot.ident.read().parent, child_label, d)?;
        Ok(None)
    }

    fn check_coverage_walk(
        &self,
        set: &mut ShardSet<'_>,
        from: Option<TaskId>,
        child_label: &str,
        d: &Declaration,
    ) -> Result<()> {
        let mut cur = from;
        while let Some(t) = cur {
            let slot = self.slot(t);
            let arena = &set.get(d.object).arena;
            if let Some(nr) = slot.decl(arena, d.object) {
                let rights = arena.node(nr).rights;
                if rights.is_declared() {
                    return Self::coverage_verdict(t, rights, child_label, d);
                }
            }
            cur = slot.ident.read().parent;
        }
        Ok(())
    }

    fn coverage_verdict(
        holder: TaskId,
        rights: DeclRights,
        child_label: &str,
        d: &Declaration,
    ) -> Result<()> {
        if rights.covers(d.rights) {
            return Ok(());
        }
        let kind = if d.rights.write.is_active() && !rights.write.is_active() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Err(JadeError::NotCovered {
            parent: holder,
            child_label: child_label.to_string(),
            object: d.object,
            kind,
        })
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    /// Mark a ready task as running (an executor picked it up).
    ///
    /// # Panics
    ///
    /// If `tid` is stale (its slot was recycled) or was never allocated.
    pub fn start_task(&self, tid: TaskId) {
        let slot = self.slot(tid);
        let mut s = slot.sync.lock();
        debug_assert_eq!(s.state, TaskState::Ready, "start of non-ready task");
        s.state = TaskState::Running;
    }

    /// Task-body completion: release all queue positions (one
    /// cross-object commit) and wake whoever becomes enabled.
    ///
    /// # Panics
    ///
    /// If `tid` is stale (its slot was recycled) or was never allocated.
    pub fn finish_task(&self, tid: TaskId) -> Vec<Wake> {
        let mut scratch = EngineScratch::default();
        self.finish_task_with(tid, &mut scratch);
        std::mem::take(&mut scratch.wakes)
    }

    /// [`finish_task`](Self::finish_task) with caller-owned scratch:
    /// wakes land in `scratch.wakes` (cleared on entry). After the
    /// queues are released the task's self-pin is dropped, recycling
    /// its slab slot once all children's slots are recycled too.
    ///
    /// # Panics
    ///
    /// If `tid` is stale (its slot was recycled) or was never allocated.
    pub fn finish_task_with(&self, tid: TaskId, scratch: &mut EngineScratch) {
        let slot = self.slot(tid);
        {
            let mut s = slot.sync.lock();
            debug_assert!(
                matches!(s.state, TaskState::Running),
                "finish of non-running task {tid}"
            );
            s.state = TaskState::Finished;
        }
        let EngineScratch { wakes, decls, objects, .. } = scratch;
        wakes.clear();
        decls.clear();
        {
            // Copy the declarations out and clear in place, keeping
            // the slot's capacity for its next occupant.
            let mut d = slot.decls.lock();
            decls.extend_from_slice(&d);
            d.clear();
        }

        // Single-declaration tasks — the common shape — skip the
        // sorted object list and lock their one shard directly.
        let mut set = match &decls[..] {
            [(oid, _)] => self.lock_shards(std::slice::from_ref(oid)),
            _ => {
                objects.clear();
                objects.extend(decls.iter().map(|&(o, _)| o));
                objects.sort_unstable();
                objects.dedup();
                self.lock_shards(objects)
            }
        };
        for &(oid, nr) in decls.iter() {
            let Shard { arena, trs, .. } = set.get(oid);
            trs.clear();
            arena.remove(nr, trs);
            self.apply_transitions(trs, wakes);
        }
        drop(set);

        if !tid.is_root() {
            self.live.fetch_sub(1, Ordering::Relaxed);
            self.stats.tasks_finished.fetch_add(1, Ordering::Relaxed);
            self.release_pin(slot);
        }
    }

    // ------------------------------------------------------------------
    // with-cont and access checking
    // ------------------------------------------------------------------

    /// The engine half of `with { ... } cont;`: one cross-object
    /// commit over every object the batch names, so the must-block
    /// decision is atomic with the rights changes.
    pub fn with_cont(
        &self,
        tid: TaskId,
        ops: Vec<(ObjectId, ContOp)>,
    ) -> Result<(bool, Vec<Wake>)> {
        let mut scratch = EngineScratch::default();
        let must_block = self.with_cont_with(tid, &ops, &mut scratch)?;
        Ok((must_block, std::mem::take(&mut scratch.wakes)))
    }

    /// [`with_cont`](Self::with_cont) with caller-owned scratch: wakes
    /// land in `scratch.wakes` (cleared on entry); returns whether the
    /// task must block for a conversion.
    pub fn with_cont_with(
        &self,
        tid: TaskId,
        ops: &[(ObjectId, ContOp)],
        scratch: &mut EngineScratch,
    ) -> Result<bool> {
        self.stats.with_conts.fetch_add(1, Ordering::Relaxed);
        let slot = self.try_slot(tid).ok_or(JadeError::StaleTask { task: tid })?;
        let EngineScratch { wakes, objects, converted, touched, waits, .. } = scratch;
        wakes.clear();
        converted.clear();
        touched.clear();
        waits.clear();
        objects.clear();
        objects.extend(ops.iter().map(|&(o, _)| o));
        objects.sort_unstable();
        objects.dedup();
        let mut set = self.lock_shards(objects);
        // Validate the whole batch, folding it into each node's new
        // rights, before any queue changes.
        for &(oid, op) in ops {
            let arena = &set.get(oid).arena;
            let unknown = JadeError::UnknownDeclaration { task: tid, object: oid };
            let nr = slot.decl(arena, oid).ok_or(unknown.clone())?;
            let pos = touched.iter().position(|t| t.0 == oid).unwrap_or_else(|| {
                touched.push((oid, nr, arena.node(nr).rights));
                touched.len() - 1
            });
            let rights = &mut touched[pos].2;
            let (side, kind) = match op {
                ContOp::ToRd | ContOp::NoRd => (&mut rights.read, AccessKind::Read),
                ContOp::ToWr | ContOp::NoWr => (&mut rights.write, AccessKind::Write),
                ContOp::NoCm => (&mut rights.commute, AccessKind::Commute),
            };
            let convert = matches!(op, ContOp::ToRd | ContOp::ToWr);
            match *side {
                DeclState::None => return Err(unknown),
                DeclState::Retired if convert => {
                    return Err(JadeError::RetiredAccess { task: tid, object: oid, kind })
                }
                _ if convert => {
                    *side = DeclState::Immediate;
                    converted.push((oid, kind));
                }
                _ => *side = DeclState::Retired,
            }
        }
        touched.sort_unstable_by_key(|t| t.0);
        for &(oid, nr, rights) in touched.iter() {
            let Shard { arena, trs, .. } = set.get(oid);
            trs.clear();
            arena.set_rights(nr, rights, trs);
            self.apply_transitions(trs, wakes);
        }
        // Compute waits from the (stable, still locked) flags and
        // register the block *before* releasing the shards — a grant
        // can then only arrive after the waits are visible, so no
        // wakeup is lost.
        for &(oid, kind) in converted.iter() {
            let nr = touched.iter().find(|t| t.0 == oid).expect("converted node was touched").1;
            if !set.get(oid).arena.node(nr).granted(kind) && !waits.contains(&(oid, kind)) {
                waits.push((oid, kind));
            }
        }
        let must_block = !waits.is_empty();
        if must_block {
            self.stats.with_cont_blocks.fetch_add(1, Ordering::Relaxed);
            let mut s = slot.sync.lock();
            s.waiting.clear();
            s.waiting.extend_from_slice(waits);
            s.state = TaskState::Blocked;
        }
        drop(set);
        Ok(must_block)
    }

    /// Dynamic access check (the guard layer's slow path). Single
    /// shard lock; blocking registers the wait while that lock is
    /// still held, so the granting transition cannot be missed.
    pub fn check_access(
        &self,
        tid: TaskId,
        oid: ObjectId,
        kind: AccessKind,
    ) -> Result<AccessStatus> {
        self.stats.access_checks.fetch_add(1, Ordering::Relaxed);
        let slot = self.try_slot(tid).ok_or(JadeError::StaleTask { task: tid })?;
        let mut sh = self.shard(oid);
        let nr = slot.decl(&sh.arena, oid).ok_or(JadeError::UndeclaredAccess {
            task: tid,
            object: oid,
            kind,
        })?;
        let Shard { arena, trs, .. } = &mut *sh;
        let mut rights = arena.node(nr).rights;
        // The root's implicit declaration has no commute side; a root
        // commuting access is satisfied by its (stronger) write right.
        let kind =
            if kind == AccessKind::Commute && tid.is_root() && rights.commute == DeclState::None {
                AccessKind::Write
            } else {
                kind
            };
        let side = match kind {
            AccessKind::Read => &mut rights.read,
            AccessKind::Write => &mut rights.write,
            AccessKind::Commute => &mut rights.commute,
        };
        trs.clear();
        match *side {
            DeclState::None => {
                return Err(JadeError::UndeclaredAccess { task: tid, object: oid, kind })
            }
            DeclState::Retired => {
                return Err(JadeError::RetiredAccess { task: tid, object: oid, kind })
            }
            // The root's deferred sides convert on first use. Flags do
            // not depend on a node's own rights: nothing flips.
            DeclState::Deferred if tid.is_root() => {
                *side = DeclState::Immediate;
                arena.set_rights(nr, rights, trs);
            }
            DeclState::Deferred => {
                return Err(JadeError::DeferredAccess { task: tid, object: oid, kind })
            }
            DeclState::Immediate => {}
        }
        if arena.node(nr).granted(kind) {
            if kind == AccessKind::Commute {
                // Acquire the object's update exclusivity: other
                // commuting tasks now wait until this one finishes or
                // issues no_cm (§4.3 — serialized but unordered). Only
                // revocations of peer commuters can result.
                arena.set_commute_holding(nr, true, trs);
                let mut wakes = Vec::new();
                self.apply_transitions(trs, &mut wakes);
                debug_assert!(wakes.is_empty(), "acquiring exclusivity cannot wake anyone");
            }
            Ok(AccessStatus::Granted)
        } else {
            self.stats.access_waits.fetch_add(1, Ordering::Relaxed);
            let mut s = slot.sync.lock();
            s.waiting.clear();
            s.waiting.push((oid, kind));
            s.state = TaskState::Blocked;
            Ok(AccessStatus::MustWait)
        }
    }

    /// Does the task currently hold an enabled right of this kind?
    /// A stale `tid` holds none.
    pub fn is_granted(&self, tid: TaskId, oid: ObjectId, kind: AccessKind) -> bool {
        let Some(slot) = self.try_slot(tid) else { return false };
        let sh = self.shard(oid);
        let Some(nr) = slot.decl(&sh.arena, oid) else { return false };
        let n = sh.arena.node(nr);
        n.granted(kind) && n.rights.side(kind) == DeclState::Immediate
    }

    // ------------------------------------------------------------------
    // Blocking and cancellation
    // ------------------------------------------------------------------

    /// Park the calling thread until `tid` leaves `Blocked` (returns
    /// `true`) or the engine is poisoned (returns `false`). The
    /// blocked→running transition in [`apply_transitions`] signals the
    /// slot's condvar, so no executor-wide broadcast is involved.
    ///
    /// # Panics
    ///
    /// If `tid` is stale (its slot was recycled) or was never allocated.
    pub fn wait_until_runnable(&self, tid: TaskId) -> bool {
        let slot = self.slot(tid);
        let mut s = slot.sync.lock();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if s.state != TaskState::Blocked {
                return true;
            }
            s = slot.cv.wait(s);
        }
    }

    /// Abort all engine-level waits: every thread parked in
    /// [`wait_until_runnable`] returns `false`. Used by the executor's
    /// fault path to cancel blocked tasks.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for slot in self.task_shards.iter().flat_map(TaskShard::slots) {
            let _guard = slot.sync.lock();
            slot.cv.notify_all();
        }
    }

    /// Whether [`poison`](Self::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;
    use std::sync::Arc;

    fn decls(f: impl FnOnce(&mut SpecBuilder)) -> Vec<Declaration> {
        let mut b = SpecBuilder::new();
        f(&mut b);
        b.build().0
    }

    fn create(
        e: &ShardedEngine,
        parent: TaskId,
        label: &str,
        f: impl FnOnce(&mut SpecBuilder),
    ) -> (TaskId, Vec<Wake>) {
        let tid = e.alloc_task(parent, label, Placement::Any);
        let wakes = e.attach_task(tid, decls(f)).unwrap();
        (tid, wakes)
    }

    #[test]
    fn independent_tasks_both_ready() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let b = e.create_object(TaskId::ROOT);
        let (t1, w1) = create(&e, TaskId::ROOT, "t1", |s| {
            s.wr(a);
        });
        let (t2, w2) = create(&e, TaskId::ROOT, "t2", |s| {
            s.wr(b);
        });
        assert!(w1.contains(&Wake::Ready(t1)));
        assert!(w2.contains(&Wake::Ready(t2)));
        assert_eq!(e.live_tasks(), 2);
    }

    #[test]
    fn write_read_conflict_serializes() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (w, wakes) = create(&e, TaskId::ROOT, "writer", |s| {
            s.wr(a);
        });
        assert!(wakes.contains(&Wake::Ready(w)));
        let (r, wakes2) = create(&e, TaskId::ROOT, "reader", |s| {
            s.rd(a);
        });
        assert!(wakes2.is_empty(), "reader must wait for the writer");
        assert_eq!(e.state(r), TaskState::Pending);
        e.start_task(w);
        let wakes3 = e.finish_task(w);
        assert_eq!(wakes3, vec![Wake::Ready(r)]);
        assert_eq!(e.state(r), TaskState::Ready);
    }

    #[test]
    fn child_insertion_revokes_and_restores_parent_grant() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (t, w) = create(&e, TaskId::ROOT, "parent", |s| {
            s.rd_wr(a);
        });
        assert!(w.contains(&Wake::Ready(t)));
        e.start_task(t);
        assert!(e.is_granted(t, a, AccessKind::Write));
        // The running parent spawns a child writer: the child's node
        // inserts ahead and takes the grant.
        let (c, cw) = create(&e, t, "child", |s| {
            s.wr(a);
        });
        assert!(cw.contains(&Wake::Ready(c)));
        assert!(!e.is_granted(t, a, AccessKind::Write), "parent grant revoked");
        // Parent re-validates at guard time and blocks.
        assert_eq!(e.check_access(t, a, AccessKind::Write).unwrap(), AccessStatus::MustWait);
        e.start_task(c);
        let wakes = e.finish_task(c);
        assert!(wakes.contains(&Wake::Unblocked(t)), "parent resumes after the child");
        assert!(e.is_granted(t, a, AccessKind::Write));
    }

    #[test]
    fn multi_object_spec_is_atomic() {
        let e = ShardedEngine::new();
        // Objects spread over distinct shards.
        let os: Vec<ObjectId> = (0..4).map(|_| e.create_object(TaskId::ROOT)).collect();
        let (t, w) = create(&e, TaskId::ROOT, "all", |s| {
            for &o in &os {
                s.rd_wr(o);
            }
        });
        assert!(w.contains(&Wake::Ready(t)));
        e.start_task(t);
        for &o in &os {
            assert_eq!(e.check_access(t, o, AccessKind::Write).unwrap(), AccessStatus::Granted);
        }
        assert!(e.finish_task(t).is_empty());
        assert_eq!(e.stats.snapshot().tasks_finished, 1);
    }

    #[test]
    fn with_cont_conversion_blocks_until_enabled() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (w, _) = create(&e, TaskId::ROOT, "writer", |s| {
            s.wr(a);
        });
        let (r, rw) = create(&e, TaskId::ROOT, "deferred-reader", |s| {
            s.df_rd(a);
        });
        // The deferred reader starts immediately (deferred sides don't
        // gate readiness).
        assert!(rw.contains(&Wake::Ready(r)));
        e.start_task(r);
        let (blocked, _) = e.with_cont(r, vec![(a, ContOp::ToRd)]).unwrap();
        assert!(blocked, "conversion waits for the earlier writer");
        assert_eq!(e.state(r), TaskState::Blocked);
        e.start_task(w);
        let wakes = e.finish_task(w);
        assert!(wakes.contains(&Wake::Unblocked(r)));
        assert_eq!(e.state(r), TaskState::Running);
    }

    #[test]
    fn retiring_rights_releases_successors() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (h, _) = create(&e, TaskId::ROOT, "holder", |s| {
            s.df_wr(a);
        });
        let (r, rw) = create(&e, TaskId::ROOT, "reader", |s| {
            s.rd(a);
        });
        assert!(rw.is_empty());
        e.start_task(h);
        let (blocked, wakes) = e.with_cont(h, vec![(a, ContOp::NoWr)]).unwrap();
        assert!(!blocked);
        assert!(wakes.contains(&Wake::Ready(r)));
    }

    #[test]
    fn uncovered_child_access_is_rejected() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (t, _) = create(&e, TaskId::ROOT, "reader", |s| {
            s.rd(a);
        });
        e.start_task(t);
        let c = e.alloc_task(t, "writer-child", Placement::Any);
        let err = e.attach_task(
            c,
            decls(|s| {
                s.wr(a);
            }),
        );
        assert!(matches!(err, Err(JadeError::NotCovered { .. })));
    }

    #[test]
    fn commuting_updates_serialize_via_exclusivity() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (c1, w1) = create(&e, TaskId::ROOT, "c1", |s| {
            s.cm(a);
        });
        let (c2, w2) = create(&e, TaskId::ROOT, "c2", |s| {
            s.cm(a);
        });
        assert!(w1.contains(&Wake::Ready(c1)));
        assert!(w2.contains(&Wake::Ready(c2)), "commuters are unordered");
        e.start_task(c1);
        e.start_task(c2);
        assert_eq!(e.check_access(c1, a, AccessKind::Commute).unwrap(), AccessStatus::Granted);
        // c1 holds the exclusivity: c2 must wait.
        assert_eq!(e.check_access(c2, a, AccessKind::Commute).unwrap(), AccessStatus::MustWait);
        let wakes = e.finish_task(c1);
        assert!(wakes.contains(&Wake::Unblocked(c2)));
        assert_eq!(e.check_access(c2, a, AccessKind::Commute).unwrap(), AccessStatus::Granted);
    }

    #[test]
    fn root_deferred_access_auto_converts_and_waits() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let (w, _) = create(&e, TaskId::ROOT, "writer", |s| {
            s.wr(a);
        });
        // Root reads the result: auto-converts its deferred rd and
        // must wait for the writer.
        assert_eq!(
            e.check_access(TaskId::ROOT, a, AccessKind::Read).unwrap(),
            AccessStatus::MustWait
        );
        e.start_task(w);
        let wakes = e.finish_task(w);
        assert!(wakes.contains(&Wake::Unblocked(TaskId::ROOT)));
        assert_eq!(
            e.check_access(TaskId::ROOT, a, AccessKind::Read).unwrap(),
            AccessStatus::Granted
        );
    }

    #[test]
    fn concurrent_creators_on_disjoint_objects() {
        // Many threads hammer create/attach/start/finish on their own
        // objects: nothing shared but the engine itself.
        let e = Arc::new(ShardedEngine::new());
        let objects: Vec<ObjectId> = (0..8).map(|_| e.create_object(TaskId::ROOT)).collect();
        // Root-created top tasks, one per object, each then exercised
        // from its own thread.
        let tops: Vec<TaskId> = objects
            .iter()
            .map(|&o| {
                let (t, w) = create(&e, TaskId::ROOT, "top", |s| {
                    s.rd_wr(o);
                });
                assert!(w.contains(&Wake::Ready(t)));
                e.start_task(t);
                t
            })
            .collect();
        let handles: Vec<_> = tops
            .into_iter()
            .zip(objects)
            .map(|(t, o)| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let c = e.alloc_task(t, "c", Placement::Any);
                        let wakes = e
                            .attach_task(
                                c,
                                decls(|s| {
                                    s.rd_wr(o);
                                }),
                            )
                            .unwrap();
                        assert!(wakes.contains(&Wake::Ready(c)));
                        e.start_task(c);
                        e.finish_task(c);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = e.stats.snapshot();
        assert_eq!(s.tasks_created, 8 + 8 * 50);
        assert_eq!(s.tasks_finished, 8 * 50);
    }

    #[test]
    fn poison_releases_engine_waiters() {
        let e = Arc::new(ShardedEngine::new());
        let a = e.create_object(TaskId::ROOT);
        let (w, _) = create(&e, TaskId::ROOT, "writer", |s| {
            s.wr(a);
        });
        e.start_task(w);
        // Root tries to read → must wait behind the writer.
        assert_eq!(
            e.check_access(TaskId::ROOT, a, AccessKind::Read).unwrap(),
            AccessStatus::MustWait
        );
        let waiter = {
            let e = e.clone();
            std::thread::spawn(move || e.wait_until_runnable(TaskId::ROOT))
        };
        e.poison();
        assert!(!waiter.join().unwrap(), "poison aborts the wait");
    }

    #[test]
    fn stale_task_id_is_rejected_not_aliased() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        // Sequentially create and finish enough tasks that slot indices
        // are reused (this thread allocates from its one home shard,
        // whose free-list hands the finished task's slot straight back).
        let mut by_index: std::collections::HashMap<usize, TaskId> =
            std::collections::HashMap::new();
        let mut reused = None;
        for i in 0..(4 * TASK_SHARDS) {
            let (t, _) = create(&e, TaskId::ROOT, &format!("churn{i}"), |s| {
                s.rd(a);
            });
            if let Some(&old) = by_index.get(&t.index()) {
                assert_ne!(
                    old.generation(),
                    t.generation(),
                    "recycled slot must advance its generation"
                );
                reused.get_or_insert((old, t));
            }
            by_index.insert(t.index(), t);
            e.start_task(t);
            for w in e.finish_task(t) {
                assert!(matches!(w, Wake::Ready(_) | Wake::Unblocked(_)));
            }
        }
        let (old, new) = reused.expect("slot indices are reused under churn");
        assert_eq!(old.index(), new.index());
        // The stale id fails fast instead of aliasing the new occupant.
        assert_eq!(
            e.check_access(old, a, AccessKind::Read),
            Err(JadeError::StaleTask { task: old }),
        );
        assert!(!e.is_current(old));
        assert!(e.try_slot(old).is_none());
        assert!(!e.is_granted(old, a, AccessKind::Read), "a stale id holds no right");
    }

    #[test]
    fn task_ids_are_a_function_of_the_create_finish_sequence() {
        // A fresh thread takes its home slab shard from this fresh
        // engine's cursor (shard 1), so every id below follows from
        // the sequence alone: index = position * TASK_SHARDS + 1,
        // recycled indices come back LIFO with their generation bumped.
        let ids = std::thread::spawn(|| {
            let e = ShardedEngine::new();
            let a = e.create_object(TaskId::ROOT);
            let mut ids = vec![TaskId::ROOT];
            let reader = |parent: TaskId, label: &str| {
                create(&e, parent, label, |s| {
                    s.rd(a);
                })
                .0
            };
            // One task created and finished: its slot recycles.
            let t1 = reader(TaskId::ROOT, "t1");
            ids.push(t1);
            e.start_task(t1);
            e.finish_task(t1);
            // Ten live tasks: the first reuses t1's slot, the rest
            // grow the shard past its first eight positions.
            let live: Vec<TaskId> =
                (0..10).map(|i| reader(TaskId::ROOT, &format!("l{i}"))).collect();
            ids.extend(&live);
            // Two children of a running task, which then finishes
            // while they still pin its slot.
            e.start_task(live[0]);
            let c1 = reader(live[0], "c1");
            let c2 = reader(live[0], "c2");
            ids.extend([c1, c2]);
            e.finish_task(live[0]);
            ids.push(reader(TaskId::ROOT, "after-parent"));
            // The children finish: c2, c1, then (cascading) the parent
            // return to the free-list, and come back in reverse.
            for c in [c2, c1] {
                e.start_task(c);
                e.finish_task(c);
            }
            ids.extend((0..4).map(|i| reader(TaskId::ROOT, &format!("r{i}"))));
            ids
        })
        .join()
        .unwrap();
        let got: Vec<(usize, u32)> = ids.iter().map(|t| (t.index(), t.generation())).collect();
        assert_eq!(
            got,
            [
                (0, 0),
                (1, 0),
                (1, 1),
                (17, 0),
                (33, 0),
                (49, 0),
                (65, 0),
                (81, 0),
                (97, 0),
                (113, 0),
                (129, 0),
                (145, 0),
                (161, 0),
                (177, 0),
                (193, 0),
                (1, 2),
                (161, 1),
                (177, 1),
                (209, 0),
            ]
        );
    }

    #[test]
    fn slab_high_water_is_bounded_by_live_set_under_churn() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        // Warm up: create/finish one task to materialize a slot.
        for i in 0..256 {
            let (t, _) = create(&e, TaskId::ROOT, &format!("c{i}"), |s| {
                s.rd(a);
            });
            e.start_task(t);
            e.finish_task(t);
        }
        let peak = e.stats.snapshot().peak_task_slots;
        // Live set is 1 (plus root); with recycling the slab must not
        // grow per task. This thread allocates from its one home shard
        // and gets each finished slot straight back, so the peak is the
        // root plus one; the bound leaves a slot of slack per shard.
        assert!(
            peak <= 1 + TASK_SHARDS as u64,
            "peak {peak} slots for a live-set of 1 — slab is leaking"
        );
        assert_eq!(e.stats.snapshot().tasks_created, 256, "work actually happened");
    }

    #[test]
    fn reader_history_keeps_ids_only_while_tracing() {
        for tracing in [false, true] {
            let e = ShardedEngine::new();
            if tracing {
                e.enable_trace();
            }
            let a = e.create_object(TaskId::ROOT);
            for i in 0..100 {
                create(&e, TaskId::ROOT, &format!("r{i}"), |s| {
                    s.rd(a);
                });
            }
            {
                let sh = e.shard(a);
                assert_eq!(sh.hist[&a].readers, 100);
                assert_eq!(sh.hist[&a].reader_ids.len(), if tracing { 100 } else { 0 });
            }
            // Either way the writer depends on all hundred.
            create(&e, TaskId::ROOT, "w", |s| {
                s.wr(a);
            });
            assert_eq!(e.stats.snapshot().conflicts, 100);
            assert_eq!(e.take_trace().map(|t| t.edges().len()), tracing.then_some(100));
        }
    }

    #[test]
    fn retired_right_no_longer_covers_a_child() {
        let e = ShardedEngine::new();
        let a = e.create_object(TaskId::ROOT);
        let mut scratch = EngineScratch::default();
        let (p, _) = create(&e, TaskId::ROOT, "parent", |s| {
            s.rd_wr(a);
        });
        e.start_task(p);
        // While the parent holds the write side, children are covered.
        for i in 0..2 {
            let c = e.alloc_task(p, &format!("c{i}"), Placement::Any);
            e.attach_task_with(
                c,
                &decls(|s| {
                    s.wr(a);
                }),
                &mut scratch,
            )
            .unwrap();
            scratch.wakes.clear();
            assert_eq!(e.state(c), TaskState::Ready, "a covered child is enabled at once");
            e.start_task(c);
            e.finish_task_with(c, &mut scratch);
            scratch.wakes.clear();
        }
        // The parent retires its write side: the same child spec is
        // now uncoverable.
        e.with_cont_with(p, &[(a, ContOp::NoWr)], &mut scratch).unwrap();
        scratch.wakes.clear();
        let c = e.alloc_task(p, "uncovered", Placement::Any);
        let err = e.attach_task_with(
            c,
            &decls(|s| {
                s.wr(a);
            }),
            &mut scratch,
        );
        assert!(
            matches!(err, Err(JadeError::NotCovered { .. })),
            "a retired right must not cover a child, got {err:?}"
        );
    }
}
