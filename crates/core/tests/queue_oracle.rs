//! Property test of the queue's grant propagation — the code every
//! backend ships — against a brute-force model: after each of a random
//! sequence of insertions (anchors included), removals, retirements,
//! rights merges, deferred→immediate conversions and exclusivity
//! changes, every node's cached flags must equal a from-scratch
//! evaluation of the enabling rules, and the transitions the mutator
//! emitted must be exactly the before/after difference of that
//! evaluation, in queue order.

use proptest::prelude::*;

use jade_core::ids::{ObjectId, TaskId};
use jade_core::queue::{NodeRef, QueueArena, Transition};
use jade_core::spec::{AccessKind, DeclRights, DeclState};

const O: ObjectId = ObjectId(0);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append a node with the given rights-code at the tail.
    Push(u8),
    /// Insert before the k-th live node.
    InsertBefore(u8, usize),
    /// Remove the k-th live node.
    Remove(usize),
    /// Retire one side of the k-th live node (0=read,1=write,2=commute).
    Retire(usize, u8),
    /// Merge the rights-code into the k-th live node's rights.
    Merge(usize, u8),
    /// Convert one deferred side of the k-th live node to immediate.
    Convert(usize, u8),
    /// The k-th live node takes the commute exclusivity (if it is an
    /// active commuter and nobody holds it).
    Hold(usize),
    /// The k-th live node gives the exclusivity up (if it holds it).
    Release(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..9).prop_map(Op::Push),
        (0u8..9, 0usize..8).prop_map(|(r, k)| Op::InsertBefore(r, k)),
        (0usize..8).prop_map(Op::Remove),
        (0usize..8, 0u8..3).prop_map(|(k, s)| Op::Retire(k, s)),
        (0usize..8, 0u8..9).prop_map(|(k, r)| Op::Merge(k, r)),
        (0usize..8, 0u8..2).prop_map(|(k, s)| Op::Convert(k, s)),
        (0usize..8).prop_map(Op::Hold),
        (0usize..8).prop_map(Op::Release),
    ]
}

fn rights_of(code: u8) -> DeclRights {
    match code {
        0 => DeclRights::RD,
        1 => DeclRights::WR,
        2 => DeclRights::RD_WR,
        3 => DeclRights::DF_RD,
        4 => DeclRights::DF_WR,
        5 => DeclRights::NONE,
        // Commuters carry the holder protocol: weight them up.
        6 | 7 => DeclRights::CM,
        _ => DeclRights::CM.merge(DeclRights::RD),
    }
}

/// The brute-force model: the queue as a plain vector plus the holder.
#[derive(Debug, Clone, Default)]
struct Model {
    queue: Vec<(NodeRef, TaskId, DeclRights)>,
    holder: Option<NodeRef>,
}

impl Model {
    /// The enabling rules, evaluated from scratch: `[read, write,
    /// commute]` flags per node, in queue order.
    fn flags(&self) -> Vec<(NodeRef, [bool; 3])> {
        let (mut read_seen, mut write_seen, mut commute_seen) = (false, false, false);
        let mut out = Vec::with_capacity(self.queue.len());
        for &(r, _, rights) in &self.queue {
            let exclusive = self.holder.is_none() || self.holder == Some(r);
            out.push((
                r,
                [
                    !write_seen && !commute_seen,
                    !write_seen && !read_seen && !commute_seen,
                    !write_seen && !read_seen && exclusive,
                ],
            ));
            read_seen |= rights.read.is_active();
            write_seen |= rights.write.is_active();
            commute_seen |= rights.commute.is_active();
        }
        out
    }

    /// What a mutation that took `before` to `self` must report: every
    /// immediate side whose flag differs (a new node starts all-false),
    /// in queue order.
    fn transitions_since(&self, before: &Model) -> Vec<Transition> {
        let old = before.flags();
        let mut out = Vec::new();
        for (&(r, task, rights), (_, new)) in self.queue.iter().zip(self.flags()) {
            let was = old.iter().find(|(o, _)| *o == r).map_or([false; 3], |(_, f)| *f);
            let sides = [
                (AccessKind::Read, rights.read),
                (AccessKind::Write, rights.write),
                (AccessKind::Commute, rights.commute),
            ];
            for (i, (kind, side)) in sides.into_iter().enumerate() {
                if side == DeclState::Immediate && was[i] != new[i] {
                    out.push(Transition { task, object: O, kind, granted: new[i] });
                }
            }
        }
        out
    }

    fn set_rights(&mut self, k: usize, rights: DeclRights) {
        self.queue[k].2 = rights;
        if self.holder == Some(self.queue[k].0) && !rights.commute.is_active() {
            self.holder = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn propagation_matches_bruteforce(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut arena = QueueArena::new();
        arena.register_object(O);
        let mut model = Model::default();
        let mut next_task = 1u64;
        let mut out = Vec::new();

        for op in ops {
            let before = model.clone();
            let n = model.queue.len();
            out.clear();
            match op {
                Op::Push(code) => {
                    let (task, rights) = (TaskId(next_task), rights_of(code));
                    next_task += 1;
                    let r = arena.push_tail(O, task, rights, &mut out);
                    model.queue.push((r, task, rights));
                }
                Op::InsertBefore(code, k) if n > 0 => {
                    let (task, rights) = (TaskId(next_task), rights_of(code));
                    next_task += 1;
                    let r = arena.insert_before(model.queue[k % n].0, task, rights, &mut out);
                    model.queue.insert(k % n, (r, task, rights));
                }
                Op::Remove(k) if n > 0 => {
                    let (r, ..) = model.queue.remove(k % n);
                    if model.holder == Some(r) {
                        model.holder = None;
                    }
                    arena.remove(r, &mut out);
                }
                Op::Retire(k, side) if n > 0 => {
                    let (r, _, mut rights) = model.queue[k % n];
                    let side = [&mut rights.read, &mut rights.write, &mut rights.commute]
                        .into_iter()
                        .nth(side as usize)
                        .unwrap();
                    if side.is_active() {
                        *side = DeclState::Retired;
                    }
                    model.set_rights(k % n, rights);
                    arena.set_rights(r, rights, &mut out);
                }
                Op::Merge(k, code) if n > 0 => {
                    let (r, _, rights) = model.queue[k % n];
                    let rights = rights.merge(rights_of(code));
                    model.set_rights(k % n, rights);
                    arena.set_rights(r, rights, &mut out);
                }
                Op::Convert(k, side) if n > 0 => {
                    let (r, _, mut rights) = model.queue[k % n];
                    let side = if side == 0 { &mut rights.read } else { &mut rights.write };
                    if *side == DeclState::Deferred {
                        *side = DeclState::Immediate;
                    }
                    model.set_rights(k % n, rights);
                    arena.set_rights(r, rights, &mut out);
                }
                Op::Hold(k) if n > 0 => {
                    let (r, _, rights) = model.queue[k % n];
                    if model.holder.is_none() && rights.commute.is_active() {
                        model.holder = Some(r);
                        arena.set_commute_holding(r, true, &mut out);
                    }
                }
                Op::Release(k) if n > 0 => {
                    let (r, ..) = model.queue[k % n];
                    if model.holder == Some(r) {
                        model.holder = None;
                    }
                    arena.set_commute_holding(r, false, &mut out);
                }
                _ => continue,
            }

            // Same queue, same holder, same flags as the model …
            let got: Vec<(NodeRef, [bool; 3])> = arena
                .iter(O)
                .map(|(r, n)| (r, [n.read_granted, n.write_granted, n.commute_granted]))
                .collect();
            prop_assert_eq!(&got, &model.flags(), "after {:?} on {:?}", op, before);
            prop_assert_eq!(arena.holder(O), model.holder);
            for ((_, n), (_, task, rights)) in arena.iter(O).zip(&model.queue) {
                prop_assert_eq!((n.task, n.rights), (*task, *rights));
            }
            // … the mutator reported exactly what changed, in queue
            // order, and the arena agrees with its own full scan.
            prop_assert_eq!(&out, &model.transitions_since(&before), "after {:?} on {:?}", op, before);
            arena.check_invariants();
        }
    }
}
