//! Per-object serial-order declaration queues.
//!
//! The Jade implementation keeps, for every shared object, a queue of
//! access declarations ordered by the *serial execution order* of the
//! declaring tasks. The enabling rules over this queue are what turn
//! access specifications into synchronization (paper §2, §3.3):
//!
//! * a **read** declaration is enabled when no active write-capable
//!   (write or commuting-update) declaration precedes it;
//! * a **write** declaration is enabled when no active declaration of
//!   any kind precedes it (it must be at the effective head);
//! * a **commuting-update** declaration (§4.3) is enabled when no
//!   active read/write precedes it — other commuting updates do not
//!   order it, but an access-time exclusivity token serializes the
//!   actual updates;
//! * **deferred** declarations hold their queue position (blocking
//!   conflicting successors) but do not gate their own task's start;
//! * retiring a side (`no_rd`/`no_wr`/`no_cm`) or removing the node
//!   (task completion) may enable successors.
//!
//! Queues are stored as doubly-linked lists inside a single slab
//! ([`QueueArena`]) so that hierarchical task creation can insert a
//! child's declaration *immediately before its parent's* in O(1).
//!
//! ## Grants propagate from the point of change
//!
//! Every node caches a three-bit **summary**: which kinds (read,
//! write, commute) are active on some node *before* it. Two equations
//! define the whole queue state:
//!
//! * `summary(X) = summary(prev(X)) ∪ active(prev(X))`, empty at the
//!   head — so summaries only grow towards the tail;
//! * `flags(X) = f(summary(X), holder)`: read needs no write/commute
//!   in the summary, write needs an empty summary, commute needs no
//!   read/write in it and the queue's exclusivity holder to be nobody
//!   or X itself.
//!
//! Every mutator restores both before it returns, starting where the
//! change is instead of at the head. A mutation at node X (insertion,
//! rights change; for a removal, X's successor) re-derives X from its
//! predecessor, re-evaluates it, and walks on only **while a
//! successor's summary changes** — the first unchanged summary proves
//! everything after it unchanged too, because a summary is a function
//! of the nodes before it alone. A change of the exclusivity holder
//! re-evaluates just the *commute-eligible prefix* (the nodes whose
//! summary has no read or write; a prefix, by monotonicity). The cost
//! of an operation is O(1 + flags flipped), whatever the queue's
//! length: one more reader among ten thousand, or one of them leaving,
//! touches a node or two. Flips are reported as [`Transition`]s in
//! queue order.

use crate::fasthash::FastMap;
use crate::ids::{ObjectId, TaskId};
use crate::spec::{AccessKind, DeclRights, DeclState};

/// Handle to a node in the [`QueueArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u32);

impl NodeRef {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Summary bits: a read / write / commuting update is active.
const RD: u8 = 1;
const WR: u8 = 2;
const CM: u8 = 4;

/// The kinds `rights` keeps active, as summary bits.
#[inline]
fn active_bits(rights: DeclRights) -> u8 {
    (rights.read.is_active() as u8 * RD)
        | (rights.write.is_active() as u8 * WR)
        | (rights.commute.is_active() as u8 * CM)
}

/// The enabling rules: `[read, write, commute]` flags of a node whose
/// summary is `before`; `exclusive` says the commute exclusivity is
/// free or the node's own.
#[inline]
fn enabled(before: u8, exclusive: bool) -> [bool; 3] {
    [before & (WR | CM) == 0, before == 0, before & (RD | WR) == 0 && exclusive]
}

/// One declaration (or position anchor) in an object's queue.
#[derive(Debug)]
pub struct QNode {
    /// The declaring task.
    pub task: TaskId,
    /// The object whose queue this node lives in.
    pub object: ObjectId,
    /// Current rights. Pure anchors have `DeclRights::NONE`.
    pub rights: DeclRights,
    /// Cached enabling flag for the read side.
    pub read_granted: bool,
    /// Cached enabling flag for the write side.
    pub write_granted: bool,
    /// Cached enabling flag for the commuting-update side.
    pub commute_granted: bool,
    /// The kinds active on some node before this one (module docs).
    before: u8,
    prev: Option<NodeRef>,
    next: Option<NodeRef>,
    /// Slot-in-use marker for the free list.
    live: bool,
}

impl QNode {
    /// Whether the given access kind is currently granted.
    #[inline]
    pub fn granted(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_granted,
            AccessKind::Write => self.write_granted,
            AccessKind::Commute => self.commute_granted,
        }
    }

    /// Whether this node is a pure position anchor (no rights, never
    /// blocks anyone).
    #[inline]
    pub fn is_anchor(&self) -> bool {
        !self.rights.is_declared()
    }

    /// Recompute the three flags from the summary, reporting every
    /// immediate side whose flag flipped.
    fn evaluate(&mut self, exclusive: bool, out: &mut Vec<Transition>) {
        let flags = enabled(self.before, exclusive);
        for (kind, granted) in AccessKind::ALL.into_iter().zip(flags) {
            if self.rights.side(kind) == DeclState::Immediate && granted != self.granted(kind) {
                out.push(Transition { task: self.task, object: self.object, kind, granted });
            }
        }
        [self.read_granted, self.write_granted, self.commute_granted] = flags;
    }
}

/// A grant-flag transition produced by a [`QueueArena`] mutator: an
/// *immediate* right of `task` on `object` changed enabledness.
/// `granted == false` is a revocation — reachable when a newly created
/// task's declaration is inserted ahead of an already-enabled one
/// (hierarchical creation inserts the child before its parent's node).
/// The engine keeps per-task readiness counters (`missing` = immediate
/// sides not yet granted), so it needs both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Task whose declaration changed state.
    pub task: TaskId,
    /// Object concerned.
    pub object: ObjectId,
    /// Which side changed.
    pub kind: AccessKind,
    /// `true` = became enabled, `false` = became disabled.
    pub granted: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct Ends {
    head: Option<NodeRef>,
    tail: Option<NodeRef>,
    /// The node holding the object's commuting-update exclusivity
    /// (taken on the first checked commute access; given up by
    /// `no_cm` or completion). While held, other commute declarations
    /// wait — serialized but unordered, the §4.3 semantics.
    holder: Option<NodeRef>,
}

/// Slab of queue nodes plus per-object head/tail pointers.
///
/// Every mutator leaves all summaries and flags consistent and
/// *appends* the flips it caused to `out`, a caller-owned buffer the
/// caller clears between operations.
#[derive(Debug, Default)]
pub struct QueueArena {
    nodes: Vec<QNode>,
    free: Vec<NodeRef>,
    ends: FastMap<ObjectId, Ends>,
    evaluated: u64,
}

impl QueueArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an object, creating its (empty) queue.
    pub fn register_object(&mut self, object: ObjectId) {
        self.ends.entry(object).or_default();
    }

    /// Whether an object has been registered.
    pub fn has_object(&self, object: ObjectId) -> bool {
        self.ends.contains_key(&object)
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, r: NodeRef) -> &QNode {
        let n = &self.nodes[r.idx()];
        debug_assert!(n.live, "use of freed queue node");
        n
    }

    /// The last node of an object's queue.
    pub fn tail(&self, object: ObjectId) -> Option<NodeRef> {
        self.ends.get(&object).and_then(|e| e.tail)
    }

    /// The node holding the object's commute exclusivity, if any.
    pub fn holder(&self, object: ObjectId) -> Option<NodeRef> {
        self.ends.get(&object).and_then(|e| e.holder)
    }

    /// How many node evaluations the mutators have performed so far —
    /// the work counter the flat-cost regression tests read.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Link a blank node between `prev` and `next` and settle from it.
    fn insert(
        &mut self,
        object: ObjectId,
        prev: Option<NodeRef>,
        next: Option<NodeRef>,
        task: TaskId,
        rights: DeclRights,
        out: &mut Vec<Transition>,
    ) -> NodeRef {
        let node = QNode {
            task,
            object,
            rights,
            read_granted: false,
            write_granted: false,
            commute_granted: false,
            before: 0,
            prev,
            next,
            live: true,
        };
        let r = match self.free.pop() {
            Some(r) => {
                self.nodes[r.idx()] = node;
                r
            }
            None => {
                self.nodes.push(node);
                NodeRef(self.nodes.len() as u32 - 1)
            }
        };
        let ends = self.ends.entry(object).or_default();
        match prev {
            Some(p) => self.nodes[p.idx()].next = Some(r),
            None => ends.head = Some(r),
        }
        match next {
            Some(n) => self.nodes[n.idx()].prev = Some(r),
            None => ends.tail = Some(r),
        }
        self.settle(object, Some(r), false, out);
        r
    }

    /// Append a declaration at the tail of the object's queue (used
    /// for the root task's implicit declaration).
    pub fn push_tail(
        &mut self,
        object: ObjectId,
        task: TaskId,
        rights: DeclRights,
        out: &mut Vec<Transition>,
    ) -> NodeRef {
        self.insert(object, self.tail(object), None, task, rights, out)
    }

    /// Insert a declaration immediately before `before` in the same
    /// object's queue — the hierarchical-creation primitive.
    pub fn insert_before(
        &mut self,
        before: NodeRef,
        task: TaskId,
        rights: DeclRights,
        out: &mut Vec<Transition>,
    ) -> NodeRef {
        let at = self.node(before);
        self.insert(at.object, at.prev, Some(before), task, rights, out)
    }

    /// Remove a node from its queue (task completion).
    pub fn remove(&mut self, r: NodeRef, out: &mut Vec<Transition>) {
        let n = &mut self.nodes[r.idx()];
        debug_assert!(n.live, "use of freed queue node");
        n.live = false;
        let (object, prev, next) = (n.object, n.prev.take(), n.next.take());
        let ends = self.ends.get_mut(&object).expect("unregistered object");
        let held = ends.holder == Some(r);
        if held {
            ends.holder = None;
        }
        match prev {
            Some(p) => self.nodes[p.idx()].next = next,
            None => ends.head = next,
        }
        match next {
            Some(nx) => self.nodes[nx.idx()].prev = prev,
            None => ends.tail = prev,
        }
        self.free.push(r);
        self.settle(object, next, held, out);
    }

    /// Replace a node's rights (a merge, a deferred→immediate
    /// conversion, a retirement). A holder whose commute side is no
    /// longer active gives the exclusivity up.
    pub fn set_rights(&mut self, r: NodeRef, rights: DeclRights, out: &mut Vec<Transition>) {
        let object = self.node(r).object;
        self.nodes[r.idx()].rights = rights;
        let ends = self.ends.get_mut(&object).expect("unregistered object");
        let released = ends.holder == Some(r) && !rights.commute.is_active();
        if released {
            ends.holder = None;
        }
        self.settle(object, Some(r), released, out);
    }

    /// Take (`true`) or give up (`false`) the object's commute
    /// exclusivity for node `r`.
    pub fn set_commute_holding(&mut self, r: NodeRef, holding: bool, out: &mut Vec<Transition>) {
        let object = self.node(r).object;
        let ends = self.ends.get_mut(&object).expect("unregistered object");
        let holder = if holding { Some(r) } else { ends.holder.filter(|&h| h != r) };
        if holder != ends.holder {
            ends.holder = holder;
            self.settle(object, None, true, out);
        }
    }

    /// Restore the module-doc equations after a mutation: `from` is
    /// the first node whose summary may be stale and which must be
    /// re-evaluated in any case (`None`: summaries are intact);
    /// `holder_changed` says the commute-eligible prefix must be too.
    /// One pass in queue order, O(1 + flags flipped).
    fn settle(
        &mut self,
        object: ObjectId,
        from: Option<NodeRef>,
        holder_changed: bool,
        out: &mut Vec<Transition>,
    ) {
        let Ends { head, holder, .. } = self.ends[&object];
        let exclusive = |r: NodeRef| holder.is_none_or(|h| h == r);
        // The eligible prefix ahead of `from`: summaries are valid.
        let mut cur = if holder_changed { head } else { None };
        while let Some(r) = cur.filter(|&r| Some(r) != from) {
            let node = &mut self.nodes[r.idx()];
            if node.before & (RD | WR) != 0 {
                break;
            }
            node.evaluate(exclusive(r), out);
            self.evaluated += 1;
            cur = node.next;
        }
        // From `from` on, carrying the summary forward until a node
        // already has it (and the holder change, if any, is past).
        let Some(first) = from else { return };
        let mut before = self.nodes[first.idx()].prev.map_or(0, |p| {
            let p = &self.nodes[p.idx()];
            p.before | active_bits(p.rights)
        });
        cur = from;
        while let Some(r) = cur {
            let node = &mut self.nodes[r.idx()];
            let unchanged = r != first && node.before == before;
            if unchanged && !(holder_changed && before & (RD | WR) == 0) {
                break;
            }
            node.before = before;
            node.evaluate(exclusive(r), out);
            self.evaluated += 1;
            before |= active_bits(node.rights);
            cur = node.next;
        }
    }

    /// Iterate over a queue head→tail.
    pub fn iter(&self, object: ObjectId) -> QueueIter<'_> {
        QueueIter { arena: self, cur: self.ends.get(&object).and_then(|e| e.head) }
    }

    /// Assert every queue against a from-scratch evaluation: links and
    /// ends, each node's summary and three flags, and that the holder
    /// is a live commute declaration of its queue. A full scan, for
    /// tests; never on a hot path.
    pub fn check_invariants(&self) {
        for (&object, ends) in &self.ends {
            let (mut prev, mut before, mut holder_seen) = (None, 0u8, ends.holder.is_none());
            let mut cur = ends.head;
            while let Some(r) = cur {
                let n = &self.nodes[r.idx()];
                assert!(n.live && n.object == object && n.prev == prev, "{object}: links at {n:?}");
                assert_eq!(n.before, before, "{object}: summary of {n:?}");
                let here = ends.holder == Some(r);
                assert_eq!(
                    [n.read_granted, n.write_granted, n.commute_granted],
                    enabled(before, ends.holder.is_none() || here),
                    "{object}: flags of {n:?}"
                );
                holder_seen |= here && n.rights.commute.is_active();
                before |= active_bits(n.rights);
                (prev, cur) = (cur, n.next);
            }
            assert_eq!(ends.tail, prev, "{object}: tail");
            assert!(holder_seen, "{object}: holder {:?} is not a live commuter", ends.holder);
        }
    }
}

/// Iterator over one object's queue.
pub struct QueueIter<'a> {
    arena: &'a QueueArena,
    cur: Option<NodeRef>,
}

impl<'a> Iterator for QueueIter<'a> {
    type Item = (NodeRef, &'a QNode);
    fn next(&mut self) -> Option<Self::Item> {
        let r = self.cur?;
        let n = self.arena.node(r);
        self.cur = n.next;
        Some((r, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: ObjectId = ObjectId(1);

    /// An arena with `O` registered, driven through helpers that
    /// return each mutation's transitions and re-check every invariant.
    struct Q(QueueArena);

    impl Q {
        fn new() -> Self {
            let mut a = QueueArena::new();
            a.register_object(O);
            Q(a)
        }

        fn run<T>(
            &mut self,
            f: impl FnOnce(&mut QueueArena, &mut Vec<Transition>) -> T,
        ) -> (T, Vec<Transition>) {
            let mut out = Vec::new();
            let v = f(&mut self.0, &mut out);
            self.0.check_invariants();
            (v, out)
        }

        fn push(&mut self, task: u64, rights: DeclRights) -> NodeRef {
            self.run(|a, out| a.push_tail(O, TaskId(task), rights, out)).0
        }

        fn insert(
            &mut self,
            before: NodeRef,
            task: u64,
            rights: DeclRights,
        ) -> (NodeRef, Vec<Transition>) {
            self.run(|a, out| a.insert_before(before, TaskId(task), rights, out))
        }

        fn remove(&mut self, r: NodeRef) -> Vec<Transition> {
            self.run(|a, out| a.remove(r, out)).1
        }

        fn retire(&mut self, r: NodeRef, f: impl FnOnce(&mut DeclRights)) -> Vec<Transition> {
            let mut rights = self.0.node(r).rights;
            f(&mut rights);
            self.run(|a, out| a.set_rights(r, rights, out)).1
        }

        fn hold(&mut self, r: NodeRef, holding: bool) -> Vec<Transition> {
            self.run(|a, out| a.set_commute_holding(r, holding, out)).1
        }

        fn order(&self) -> Vec<TaskId> {
            self.0.iter(O).map(|(_, n)| n.task).collect()
        }

        fn node(&self, r: NodeRef) -> &QNode {
            self.0.node(r)
        }
    }

    fn tr(task: u64, kind: AccessKind, granted: bool) -> Transition {
        Transition { task: TaskId(task), object: O, kind, granted }
    }

    use AccessKind::{Commute, Read, Write};

    #[test]
    fn tail_pushes_keep_order() {
        let mut q = Q::new();
        let n1 = q.push(1, DeclRights::RD);
        let n2 = q.push(2, DeclRights::WR);
        assert_eq!(q.order(), vec![TaskId(1), TaskId(2)]);
        assert_ne!(n1, n2);
    }

    #[test]
    fn insert_before_places_child_ahead_of_parent() {
        let mut q = Q::new();
        let parent = q.push(1, DeclRights::RD_WR);
        q.insert(parent, 2, DeclRights::RD);
        q.insert(parent, 3, DeclRights::WR);
        // c1 created first, then c2 — both before parent, in creation order.
        assert_eq!(q.order(), vec![TaskId(2), TaskId(3), TaskId(1)]);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let mut q = Q::new();
        let w = q.push(1, DeclRights::WR);
        let r1 = q.push(2, DeclRights::RD);
        let r2 = q.push(3, DeclRights::RD);
        assert!(q.node(w).write_granted);
        assert!(!q.node(r1).read_granted && !q.node(r2).read_granted);
        // Writer completes: both readers enable simultaneously.
        assert_eq!(q.remove(w), vec![tr(2, Read, true), tr(3, Read, true)]);
        assert!(q.node(r1).read_granted && q.node(r2).read_granted);
    }

    #[test]
    fn writer_waits_for_all_earlier_readers() {
        let mut q = Q::new();
        let r1 = q.push(1, DeclRights::RD);
        let r2 = q.push(2, DeclRights::RD);
        let w = q.push(3, DeclRights::WR);
        assert!(q.node(r1).read_granted && q.node(r2).read_granted);
        assert!(!q.node(w).write_granted);
        assert!(q.remove(r1).is_empty(), "one reader still active");
        assert_eq!(q.remove(r2), vec![tr(3, Write, true)]);
    }

    #[test]
    fn deferred_write_blocks_successors_but_reports_no_grant() {
        let mut q = Q::new();
        let (d, g) = q.run(|a, out| a.push_tail(O, TaskId(1), DeclRights::DF_WR, out));
        let r = q.push(2, DeclRights::RD);
        // The deferred write is not reported (not immediate), and it
        // blocks the reader behind it.
        assert!(g.is_empty());
        assert!(!q.node(r).read_granted);
        assert!(q.node(d).write_granted, "flag still tracks position");
        // no_wr: the deferred writer promises not to write after all.
        let g = q.retire(d, |r| r.write = DeclState::Retired);
        assert_eq!(g, vec![tr(2, Read, true)]);
    }

    #[test]
    fn anchors_neither_block_nor_grant() {
        let mut q = Q::new();
        let anchor = q.push(1, DeclRights::NONE);
        let (w, g) = q.run(|a, out| a.push_tail(O, TaskId(2), DeclRights::WR, out));
        assert!(q.node(anchor).is_anchor());
        assert_eq!(g, vec![tr(2, Write, true)]);
        assert!(q.node(w).write_granted);
        // Anchors carry the summary on: one behind a writer sees it.
        let behind = q.push(3, DeclRights::NONE);
        let r = q.push(4, DeclRights::RD);
        assert!(!q.node(behind).read_granted && !q.node(r).read_granted);
    }

    #[test]
    fn child_insertion_revokes_parent_grant_and_removal_restores_it() {
        let mut q = Q::new();
        let parent = q.push(1, DeclRights::RD_WR);
        assert!(q.node(parent).write_granted);
        // Parent spawns a child that writes: parent loses access until
        // the child completes (serial semantics: the child body runs
        // at its creation point). The child's own grant comes first —
        // transitions are in queue order.
        let (child, d) = q.insert(parent, 2, DeclRights::WR);
        assert_eq!(d, vec![tr(2, Write, true), tr(1, Read, false), tr(1, Write, false)]);
        assert!(!q.node(parent).write_granted && !q.node(parent).read_granted);
        assert!(q.node(child).write_granted);
        assert_eq!(q.remove(child), vec![tr(1, Read, true), tr(1, Write, true)]);
    }

    #[test]
    fn removal_recycles_slots() {
        let mut q = Q::new();
        let n1 = q.push(1, DeclRights::RD);
        q.remove(n1);
        let n2 = q.push(2, DeclRights::RD);
        assert_eq!(n1, n2, "slot reused");
        assert_eq!(q.order(), vec![TaskId(2)]);
    }

    #[test]
    fn commuting_updates_serialize_through_the_holder() {
        let mut q = Q::new();
        let c1 = q.push(1, DeclRights::CM);
        let c2 = q.push(2, DeclRights::CM);
        let r = q.push(3, DeclRights::RD);
        assert!(q.node(c1).commute_granted);
        assert!(q.node(c2).commute_granted, "commutes are unordered among themselves");
        assert!(!q.node(r).read_granted, "a read waits for earlier commutes");
        // Task 2 acquires the update exclusivity first (any order is
        // legal): task 1's grant is withheld until release.
        assert_eq!(q.hold(c2, true), vec![tr(1, Commute, false)]);
        assert!(q.hold(c2, true).is_empty(), "idempotent");
        assert_eq!(q.0.holder(O), Some(c2));
        // no_cm gives the exclusivity up with the right.
        let g = q.retire(c2, |r| r.commute = DeclState::Retired);
        assert_eq!(g, vec![tr(1, Commute, true)]);
        assert_eq!(q.0.holder(O), None);
        // So does completion; the reader follows the last commuter.
        q.hold(c1, true);
        q.remove(c2);
        assert_eq!(q.remove(c1), vec![tr(3, Read, true)]);
        assert_eq!(q.0.holder(O), None);
    }

    #[test]
    fn commute_waits_for_earlier_writer() {
        let mut q = Q::new();
        let w = q.push(1, DeclRights::WR);
        let c = q.push(2, DeclRights::CM);
        assert!(!q.node(c).commute_granted);
        assert_eq!(q.remove(w), vec![tr(2, Commute, true)]);
    }

    #[test]
    fn grants_emitted_in_queue_order() {
        let mut q = Q::new();
        let w = q.push(1, DeclRights::WR);
        q.push(5, DeclRights::RD);
        q.push(3, DeclRights::RD);
        let tasks: Vec<TaskId> = q.remove(w).iter().map(|t| t.task).collect();
        assert_eq!(tasks, vec![TaskId(5), TaskId(3)], "queue order, not id order");
    }
}
