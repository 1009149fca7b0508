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

use std::collections::HashMap;

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
    /// Whether this task currently holds the object's commuting-update
    /// exclusivity (set on first checked commute access; cleared by
    /// `no_cm` or completion). While held, other commute declarations
    /// wait — serialized but unordered, the §4.3 semantics.
    pub commute_holding: bool,
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
}

/// A grant-flag transition produced by [`QueueArena::recompute_diff`]:
/// an *immediate* right of `task` on `object` changed enabledness.
/// `granted == false` is a revocation — reachable when a newly created
/// task's declaration is inserted ahead of an already-enabled one
/// (hierarchical creation inserts the child before its parent's node).
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
    /// Cached commute-exclusivity holder, maintained by
    /// [`QueueArena::set_commute_holding`] and refreshed by the full
    /// [`QueueArena::recompute_diff`] scan. Lets the incremental
    /// recompute skip the O(queue) holder search.
    holder: Option<NodeRef>,
    /// Live node count (anchors included). Maintained by
    /// `push_tail`/`insert_before`/`remove` so occupancy queries —
    /// [`QueueArena::queue_len`], [`QueueArena::sole_occupant`] — are
    /// O(1) instead of a full list walk.
    len: u32,
}

/// Slab of queue nodes plus per-object head/tail pointers.
#[derive(Debug, Default)]
pub struct QueueArena {
    nodes: Vec<QNode>,
    free: Vec<NodeRef>,
    ends: HashMap<ObjectId, Ends>,
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

    /// Mutably borrow a node.
    #[inline]
    pub fn node_mut(&mut self, r: NodeRef) -> &mut QNode {
        let n = &mut self.nodes[r.idx()];
        debug_assert!(n.live, "use of freed queue node");
        n
    }

    fn alloc(&mut self, node: QNode) -> NodeRef {
        if let Some(r) = self.free.pop() {
            self.nodes[r.idx()] = node;
            r
        } else {
            let r = NodeRef(self.nodes.len() as u32);
            self.nodes.push(node);
            r
        }
    }

    fn blank(task: TaskId, object: ObjectId, rights: DeclRights) -> QNode {
        QNode {
            task,
            object,
            rights,
            read_granted: false,
            write_granted: false,
            commute_granted: false,
            commute_holding: false,
            prev: None,
            next: None,
            live: true,
        }
    }

    /// Append a declaration at the tail of the object's queue (used
    /// for the root task's implicit declaration).
    pub fn push_tail(&mut self, object: ObjectId, task: TaskId, rights: DeclRights) -> NodeRef {
        let r = self.alloc(Self::blank(task, object, rights));
        let ends = self.ends.entry(object).or_default();
        ends.len += 1;
        match ends.tail {
            None => {
                ends.head = Some(r);
                ends.tail = Some(r);
            }
            Some(t) => {
                self.nodes[t.idx()].next = Some(r);
                self.nodes[r.idx()].prev = Some(t);
                ends.tail = Some(r);
            }
        }
        r
    }

    /// Insert a declaration immediately before `before` in the same
    /// object's queue — the hierarchical-creation primitive.
    pub fn insert_before(
        &mut self,
        before: NodeRef,
        task: TaskId,
        rights: DeclRights,
    ) -> NodeRef {
        let object = self.node(before).object;
        let prev = self.node(before).prev;
        self.ends.get_mut(&object).expect("unregistered object").len += 1;
        let r = self.alloc(Self::blank(task, object, rights));
        self.nodes[r.idx()].prev = prev;
        self.nodes[r.idx()].next = Some(before);
        self.nodes[before.idx()].prev = Some(r);
        match prev {
            Some(p) => self.nodes[p.idx()].next = Some(r),
            None => self.ends.get_mut(&object).expect("unregistered object").head = Some(r),
        }
        r
    }

    /// Remove a node from its queue (task completion).
    pub fn remove(&mut self, r: NodeRef) {
        let (object, prev, next) = {
            let n = self.node(r);
            (n.object, n.prev, n.next)
        };
        {
            let ends = self.ends.get_mut(&object).expect("unregistered object");
            if ends.holder == Some(r) {
                ends.holder = None;
            }
            ends.len -= 1;
        }
        match prev {
            Some(p) => self.nodes[p.idx()].next = next,
            None => self.ends.get_mut(&object).expect("unregistered object").head = next,
        }
        match next {
            Some(nx) => self.nodes[nx.idx()].prev = prev,
            None => self.ends.get_mut(&object).expect("unregistered object").tail = prev,
        }
        let n = &mut self.nodes[r.idx()];
        n.live = false;
        n.prev = None;
        n.next = None;
        self.free.push(r);
    }

    /// Iterate over a queue head→tail.
    pub fn iter(&self, object: ObjectId) -> QueueIter<'_> {
        QueueIter { arena: self, cur: self.ends.get(&object).and_then(|e| e.head) }
    }

    /// Set or clear a node's commute-exclusivity flag, keeping the
    /// per-queue holder cache in sync. Engines must use this instead
    /// of writing `commute_holding` directly so that the incremental
    /// recompute can resolve the holder in O(1).
    pub fn set_commute_holding(&mut self, r: NodeRef, holding: bool) {
        let object = self.node(r).object;
        self.node_mut(r).commute_holding = holding;
        let ends = self.ends.get_mut(&object).expect("unregistered object");
        if holding {
            ends.holder = Some(r);
        } else if ends.holder == Some(r) {
            ends.holder = None;
        }
    }

    /// Recompute the cached grant flags of every node in `object`'s
    /// queue. Returns every immediate right whose enabledness flipped,
    /// in queue order (deterministic) and in *both* directions: the
    /// engine keeps per-task readiness counters (`missing` = immediate
    /// sides not yet granted), so it needs revocations too — a grant a
    /// pending task already counted can be taken back when a
    /// descendant's declaration is inserted ahead of it.
    ///
    /// Enabling rules: a read is blocked by earlier active writes and
    /// commuting updates; a write by earlier active anything; a
    /// commuting update by earlier active reads/writes but **not** by
    /// other commuting updates (they are unordered) — except that
    /// while one task *holds* the object's commute exclusivity, other
    /// commute grants are withheld (updates serialize).
    pub fn recompute_diff(&mut self, object: ObjectId) -> Vec<Transition> {
        // First pass: is any node currently holding commute access?
        // Refresh the holder cache while at it, so a direct
        // `commute_holding` write followed by a full recompute leaves
        // the cache consistent for later incremental calls.
        let mut holder: Option<NodeRef> = None;
        let mut cur = self.ends.get(&object).and_then(|e| e.head);
        while let Some(r) = cur {
            let node = &self.nodes[r.idx()];
            if node.commute_holding && node.rights.commute.is_active() {
                holder = Some(r);
                break;
            }
            cur = node.next;
        }
        if let Some(ends) = self.ends.get_mut(&object) {
            ends.holder = holder;
        }
        let mut out = Vec::new();
        let mut read_seen = false;
        let mut write_seen = false;
        let mut commute_seen = false;
        let mut cur = self.ends.get(&object).and_then(|e| e.head);
        while let Some(r) = cur {
            let node = &mut self.nodes[r.idx()];
            let read_ok = !write_seen && !commute_seen;
            let write_ok = !write_seen && !read_seen && !commute_seen;
            let commute_ok =
                !write_seen && !read_seen && (holder.is_none() || holder == Some(r));
            if node.rights.read == DeclState::Immediate && read_ok != node.read_granted {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Read,
                    granted: read_ok,
                });
            }
            if node.rights.write == DeclState::Immediate && write_ok != node.write_granted {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Write,
                    granted: write_ok,
                });
            }
            if node.rights.commute == DeclState::Immediate && commute_ok != node.commute_granted
            {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Commute,
                    granted: commute_ok,
                });
            }
            node.read_granted = read_ok;
            node.write_granted = write_ok;
            node.commute_granted = commute_ok;
            if node.rights.read.is_active() {
                read_seen = true;
            }
            if node.rights.write.is_active() {
                write_seen = true;
            }
            if node.rights.commute.is_active() {
                commute_seen = true;
            }
            cur = node.next;
        }
        out
    }

    /// [`recompute_diff`](Self::recompute_diff) restricted to the
    /// *prefix of the queue that can have changed*, for the engine hot
    /// path. Sound only under the incremental contract:
    ///
    /// * grant flags were consistent before the current mutation batch
    ///   (every public mutation is followed by a recompute), and
    /// * the batch consists of node removals, rights *retirements*,
    ///   holder changes made through
    ///   [`set_commute_holding`](Self::set_commute_holding), and
    ///   insertions whose new nodes are all listed in `fresh`.
    ///
    /// The scan walks head→tail exactly like the full recompute but
    /// stops once the *pre-existing* (non-`fresh`) nodes already seen
    /// block every kind: `old_write || (old_read && old_commute)`.
    /// Past that point no node's flag can have changed — the computed
    /// flags are all `false` (the blockers precede them now), and they
    /// were already `false` before the batch (the same blockers
    /// existed then: removals/retirements only shed blockers, and
    /// `fresh` nodes are excluded from the stop condition, so an
    /// insertion can never hide a revocation). Holder changes only
    /// affect commute nodes with no earlier active read/write, which
    /// always precede the stop point. For the common chain of
    /// exclusive declarations this makes attach and finish O(1) in the
    /// queue depth instead of O(depth).
    ///
    /// Transitions are *appended* to `out` (a caller-owned scratch
    /// buffer, typically per engine shard); the caller clears `out`
    /// between operations.
    pub fn recompute_diff_incremental_into(
        &mut self,
        object: ObjectId,
        fresh: &[NodeRef],
        out: &mut Vec<Transition>,
    ) {
        let Some(ends) = self.ends.get(&object).copied() else { return };
        // O(1) holder resolution from the cache (validated: the flag
        // or the right may have been retired since it was set).
        let holder = ends.holder.filter(|&h| {
            let n = &self.nodes[h.idx()];
            n.live && n.commute_holding && n.rights.commute.is_active()
        });
        let mut read_seen = false;
        let mut write_seen = false;
        let mut commute_seen = false;
        let mut old_read = false;
        let mut old_write = false;
        let mut old_commute = false;
        let mut cur = ends.head;
        while let Some(r) = cur {
            if old_write || (old_read && old_commute) {
                break;
            }
            let node = &mut self.nodes[r.idx()];
            let read_ok = !write_seen && !commute_seen;
            let write_ok = !write_seen && !read_seen && !commute_seen;
            let commute_ok =
                !write_seen && !read_seen && (holder.is_none() || holder == Some(r));
            if node.rights.read == DeclState::Immediate && read_ok != node.read_granted {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Read,
                    granted: read_ok,
                });
            }
            if node.rights.write == DeclState::Immediate && write_ok != node.write_granted {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Write,
                    granted: write_ok,
                });
            }
            if node.rights.commute == DeclState::Immediate && commute_ok != node.commute_granted
            {
                out.push(Transition {
                    task: node.task,
                    object,
                    kind: AccessKind::Commute,
                    granted: commute_ok,
                });
            }
            node.read_granted = read_ok;
            node.write_granted = write_ok;
            node.commute_granted = commute_ok;
            let is_fresh = fresh.contains(&r);
            if node.rights.read.is_active() {
                read_seen = true;
                old_read |= !is_fresh;
            }
            if node.rights.write.is_active() {
                write_seen = true;
                old_write |= !is_fresh;
            }
            if node.rights.commute.is_active() {
                commute_seen = true;
                old_commute |= !is_fresh;
            }
            cur = node.next;
        }
    }

    /// Length of an object's queue (anchors included). O(1) via the
    /// maintained per-queue counter.
    pub fn queue_len(&self, object: ObjectId) -> usize {
        self.ends.get(&object).map_or(0, |e| e.len as usize)
    }

    /// Whether `r` is the only live node in its object's queue — the
    /// single-owner case. A sole occupant has no peers to block or
    /// revoke, so enabling-state recomputes after its own transitions
    /// (e.g. acquiring commute exclusivity) are provably no-ops.
    pub fn sole_occupant(&self, r: NodeRef) -> bool {
        let object = self.node(r).object;
        self.ends
            .get(&object)
            .is_some_and(|e| e.len == 1 && e.head == Some(r))
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

    fn arena() -> QueueArena {
        let mut a = QueueArena::new();
        a.register_object(O);
        a
    }

    /// Full recompute, keeping only the rights that became enabled.
    fn grants(a: &mut QueueArena) -> Vec<(TaskId, AccessKind)> {
        a.recompute_diff(O).into_iter().filter(|t| t.granted).map(|t| (t.task, t.kind)).collect()
    }

    /// The incremental recompute's transitions as a fresh `Vec`.
    fn incremental(a: &mut QueueArena, fresh: &[NodeRef]) -> Vec<Transition> {
        let mut out = Vec::new();
        a.recompute_diff_incremental_into(O, fresh, &mut out);
        out
    }

    #[test]
    fn tail_pushes_keep_order() {
        let mut a = arena();
        let n1 = a.push_tail(O, TaskId(1), DeclRights::RD);
        let n2 = a.push_tail(O, TaskId(2), DeclRights::WR);
        let order: Vec<TaskId> = a.iter(O).map(|(_, n)| n.task).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(2)]);
        assert_ne!(n1, n2);
    }

    #[test]
    fn insert_before_places_child_ahead_of_parent() {
        let mut a = arena();
        let parent = a.push_tail(O, TaskId(1), DeclRights::RD_WR);
        let _c1 = a.insert_before(parent, TaskId(2), DeclRights::RD);
        let _c2 = a.insert_before(parent, TaskId(3), DeclRights::WR);
        let order: Vec<TaskId> = a.iter(O).map(|(_, n)| n.task).collect();
        // c1 created first, then c2 — both before parent, in creation order.
        assert_eq!(order, vec![TaskId(2), TaskId(3), TaskId(1)]);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let mut a = arena();
        let w = a.push_tail(O, TaskId(1), DeclRights::WR);
        let r1 = a.push_tail(O, TaskId(2), DeclRights::RD);
        let r2 = a.push_tail(O, TaskId(3), DeclRights::RD);
        a.recompute_diff(O);
        assert!(a.node(w).write_granted);
        assert!(!a.node(r1).read_granted);
        assert!(!a.node(r2).read_granted);
        // Writer completes: both readers enable simultaneously.
        a.remove(w);
        let g = grants(&mut a);
        assert_eq!(g.len(), 2);
        assert!(a.node(r1).read_granted && a.node(r2).read_granted);
    }

    #[test]
    fn writer_waits_for_all_earlier_readers() {
        let mut a = arena();
        let r1 = a.push_tail(O, TaskId(1), DeclRights::RD);
        let r2 = a.push_tail(O, TaskId(2), DeclRights::RD);
        let w = a.push_tail(O, TaskId(3), DeclRights::WR);
        a.recompute_diff(O);
        assert!(a.node(r1).read_granted && a.node(r2).read_granted);
        assert!(!a.node(w).write_granted);
        a.remove(r1);
        a.recompute_diff(O);
        assert!(!a.node(w).write_granted, "one reader still active");
        a.remove(r2);
        let g = grants(&mut a);
        assert_eq!(g, vec![(TaskId(3), AccessKind::Write)]);
    }

    #[test]
    fn deferred_write_blocks_successors_but_reports_no_grant() {
        let mut a = arena();
        let d = a.push_tail(O, TaskId(1), DeclRights::DF_WR);
        let r = a.push_tail(O, TaskId(2), DeclRights::RD);
        let g = grants(&mut a);
        // The deferred write is not reported (not immediate), and it
        // blocks the reader behind it.
        assert!(g.is_empty());
        assert!(!a.node(r).read_granted);
        assert!(a.node(d).write_granted, "flag still tracks position");
    }

    #[test]
    fn retiring_a_side_enables_successors() {
        let mut a = arena();
        let d = a.push_tail(O, TaskId(1), DeclRights::DF_WR);
        let r = a.push_tail(O, TaskId(2), DeclRights::RD);
        a.recompute_diff(O);
        assert!(!a.node(r).read_granted);
        // no_wr: the deferred writer promises not to write after all.
        a.node_mut(d).rights.write = DeclState::Retired;
        let g = grants(&mut a);
        assert_eq!(g, vec![(TaskId(2), AccessKind::Read)]);
    }

    #[test]
    fn anchors_neither_block_nor_grant() {
        let mut a = arena();
        let anchor = a.push_tail(O, TaskId(1), DeclRights::NONE);
        let w = a.push_tail(O, TaskId(2), DeclRights::WR);
        let g = grants(&mut a);
        assert!(a.node(anchor).is_anchor());
        assert_eq!(g.len(), 1);
        assert!(a.node(w).write_granted);
    }

    #[test]
    fn child_insertion_revokes_parent_grant() {
        let mut a = arena();
        let parent = a.push_tail(O, TaskId(1), DeclRights::RD_WR);
        a.recompute_diff(O);
        assert!(a.node(parent).write_granted);
        // Parent spawns a child that writes: parent loses access until
        // the child completes (serial semantics: the child body runs
        // at its creation point).
        let child = a.insert_before(parent, TaskId(2), DeclRights::WR);
        a.recompute_diff(O);
        assert!(!a.node(parent).write_granted && !a.node(parent).read_granted);
        assert!(a.node(child).write_granted);
        a.remove(child);
        let g = grants(&mut a);
        assert_eq!(g.len(), 2, "parent regains read and write");
    }

    #[test]
    fn removal_recycles_slots() {
        let mut a = arena();
        let n1 = a.push_tail(O, TaskId(1), DeclRights::RD);
        a.remove(n1);
        let n2 = a.push_tail(O, TaskId(2), DeclRights::RD);
        assert_eq!(n1, n2, "slot reused");
        assert_eq!(a.queue_len(O), 1);
    }

    #[test]
    fn commuting_updates_do_not_block_each_other() {
        let mut a = arena();
        let c1 = a.push_tail(O, TaskId(1), DeclRights::CM);
        let c2 = a.push_tail(O, TaskId(2), DeclRights::CM);
        let r = a.push_tail(O, TaskId(3), DeclRights::RD);
        a.recompute_diff(O);
        assert!(a.node(c1).commute_granted);
        assert!(a.node(c2).commute_granted, "commutes are unordered among themselves");
        assert!(!a.node(r).read_granted, "a read waits for earlier commutes");
        // Task 2 acquires the update exclusivity first (any order is
        // legal): task 1's grant is withheld until release.
        a.node_mut(c2).commute_holding = true;
        a.recompute_diff(O);
        assert!(!a.node(c1).commute_granted);
        assert!(a.node(c2).commute_granted);
        a.node_mut(c2).commute_holding = false;
        a.node_mut(c2).rights.commute = DeclState::Retired;
        let g = grants(&mut a);
        assert!(g.contains(&(TaskId(1), AccessKind::Commute)));
        a.remove(c1);
        a.remove(c2);
        let g2 = grants(&mut a);
        assert_eq!(g2, vec![(TaskId(3), AccessKind::Read)]);
    }

    #[test]
    fn commute_waits_for_earlier_writer() {
        let mut a = arena();
        let w = a.push_tail(O, TaskId(1), DeclRights::WR);
        let c = a.push_tail(O, TaskId(2), DeclRights::CM);
        a.recompute_diff(O);
        assert!(!a.node(c).commute_granted);
        a.remove(w);
        let g = grants(&mut a);
        assert_eq!(g, vec![(TaskId(2), AccessKind::Commute)]);
    }

    #[test]
    fn diff_reports_revocation_on_child_insertion() {
        let mut a = arena();
        let parent = a.push_tail(O, TaskId(1), DeclRights::RD_WR);
        let g = a.recompute_diff(O);
        assert_eq!(g.len(), 2, "parent granted read+write");
        assert!(g.iter().all(|t| t.granted));
        // A child writer inserted ahead takes both grants back.
        let child = a.insert_before(parent, TaskId(2), DeclRights::WR);
        let d = a.recompute_diff(O);
        let revoked: Vec<_> = d.iter().filter(|t| !t.granted).collect();
        assert_eq!(revoked.len(), 2, "parent loses read and write");
        assert!(revoked.iter().all(|t| t.task == TaskId(1)));
        assert!(d
            .iter()
            .any(|t| t.granted && t.task == TaskId(2) && t.kind == AccessKind::Write));
        // Idempotent: nothing changed, nothing reported.
        assert!(a.recompute_diff(O).is_empty());
        a.remove(child);
        let back = a.recompute_diff(O);
        assert_eq!(back.len(), 2);
        assert!(back.iter().all(|t| t.granted && t.task == TaskId(1)));
    }

    /// Every node's cached flags, for cross-checking the incremental
    /// scan against the full one.
    fn flags(a: &QueueArena) -> Vec<(TaskId, bool, bool, bool)> {
        a.iter(O)
            .map(|(_, n)| (n.task, n.read_granted, n.write_granted, n.commute_granted))
            .collect()
    }

    #[test]
    fn incremental_tail_attach_and_removal_match_full_recompute() {
        let mut a = arena();
        let mut refs = Vec::new();
        for t in 1..=20 {
            let rights = match t % 3 {
                0 => DeclRights::RD,
                1 => DeclRights::RD_WR,
                _ => DeclRights::CM,
            };
            let r = a.push_tail(O, TaskId(t), rights);
            let d = incremental(&mut a, &[r]);
            // Replaying the full scan must find nothing left to fix
            // and the flags must be byte-identical.
            let before = flags(&a);
            assert!(a.recompute_diff(O).is_empty(), "incremental missed a flip: {d:?}");
            assert_eq!(flags(&a), before);
            refs.push(r);
        }
        // Drain from the head: each removal's incremental diff leaves
        // the queue exactly as a full recompute would.
        for r in refs {
            a.remove(r);
            let _ = incremental(&mut a, &[]);
            let before = flags(&a);
            assert!(a.recompute_diff(O).is_empty());
            assert_eq!(flags(&a), before);
        }
    }

    #[test]
    fn incremental_insert_reports_revocation_past_early_exit() {
        let mut a = arena();
        let parent = a.push_tail(O, TaskId(1), DeclRights::RD_WR);
        a.recompute_diff(O);
        assert!(a.node(parent).write_granted);
        // The child writer is inserted ahead: were it counted toward
        // the early-exit condition, the scan would stop before ever
        // revoking the parent's grants.
        let child = a.insert_before(parent, TaskId(2), DeclRights::WR);
        let d = incremental(&mut a, &[child]);
        assert!(d.contains(&Transition { task: TaskId(1), object: O, kind: AccessKind::Write, granted: false }));
        assert!(d.contains(&Transition { task: TaskId(1), object: O, kind: AccessKind::Read, granted: false }));
        assert!(d.contains(&Transition { task: TaskId(2), object: O, kind: AccessKind::Write, granted: true }));
        assert!(a.recompute_diff(O).is_empty(), "incremental left stale flags");
    }

    #[test]
    fn set_commute_holding_keeps_holder_cache_for_incremental() {
        let mut a = arena();
        let c1 = a.push_tail(O, TaskId(1), DeclRights::CM);
        let c2 = a.push_tail(O, TaskId(2), DeclRights::CM);
        a.recompute_diff(O);
        assert!(a.node(c1).commute_granted && a.node(c2).commute_granted);
        a.set_commute_holding(c2, true);
        let d = incremental(&mut a, &[]);
        assert_eq!(
            d,
            vec![Transition { task: TaskId(1), object: O, kind: AccessKind::Commute, granted: false }]
        );
        // Removing the holder clears the cache and re-enables the peer.
        a.remove(c2);
        let d = incremental(&mut a, &[]);
        assert_eq!(
            d,
            vec![Transition { task: TaskId(1), object: O, kind: AccessKind::Commute, granted: true }]
        );
        assert!(a.recompute_diff(O).is_empty());
    }

    #[test]
    fn queue_len_counter_and_sole_occupant_track_mutations() {
        let mut a = arena();
        assert_eq!(a.queue_len(O), 0);
        let parent = a.push_tail(O, TaskId(1), DeclRights::RD_WR);
        assert_eq!(a.queue_len(O), 1);
        assert!(a.sole_occupant(parent));
        let child = a.insert_before(parent, TaskId(2), DeclRights::WR);
        assert_eq!(a.queue_len(O), 2);
        assert!(!a.sole_occupant(parent) && !a.sole_occupant(child));
        a.remove(child);
        assert_eq!(a.queue_len(O), 1);
        assert!(a.sole_occupant(parent));
        a.remove(parent);
        assert_eq!(a.queue_len(O), 0);
        // Counter survives slot recycling.
        let again = a.push_tail(O, TaskId(3), DeclRights::CM);
        assert_eq!(a.queue_len(O), 1);
        assert!(a.sole_occupant(again));
    }

    #[test]
    fn grants_emitted_in_queue_order() {
        let mut a = arena();
        let w = a.push_tail(O, TaskId(1), DeclRights::WR);
        let _r1 = a.push_tail(O, TaskId(5), DeclRights::RD);
        let _r2 = a.push_tail(O, TaskId(3), DeclRights::RD);
        a.recompute_diff(O);
        a.remove(w);
        let g = grants(&mut a);
        let tasks: Vec<TaskId> = g.iter().map(|g| g.0).collect();
        assert_eq!(tasks, vec![TaskId(5), TaskId(3)], "queue order, not id order");
    }
}
