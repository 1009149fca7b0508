//! Property test of the queue's incremental grant computation against
//! a brute-force oracle: after any random sequence of insertions,
//! retirements and removals, every node's cached grant flags must
//! equal what a from-scratch evaluation of the enabling rules gives.

use proptest::prelude::*;

use jade_core::ids::{ObjectId, TaskId};
use jade_core::queue::QueueArena;
use jade_core::spec::{DeclRights, DeclState};

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
    /// Toggle commute-holding on the k-th live node (if commute-active
    /// and no other holder).
    Hold(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Push),
        (0u8..6, 0usize..8).prop_map(|(r, k)| Op::InsertBefore(r, k)),
        (0usize..8).prop_map(Op::Remove),
        (0usize..8, 0u8..3).prop_map(|(k, s)| Op::Retire(k, s)),
        (0usize..8).prop_map(Op::Hold),
    ]
}

fn rights_of(code: u8) -> DeclRights {
    match code {
        0 => DeclRights::RD,
        1 => DeclRights::WR,
        2 => DeclRights::RD_WR,
        3 => DeclRights::DF_RD,
        4 => DeclRights::DF_WR,
        _ => DeclRights::CM,
    }
}

/// The enabling rules, evaluated from scratch over a snapshot.
fn oracle(
    snapshot: &[(DeclRights, bool)], // (rights, commute_holding)
) -> Vec<(bool, bool, bool)> {
    let holder = snapshot.iter().position(|(r, h)| *h && r.commute.is_active());
    let mut out = Vec::with_capacity(snapshot.len());
    let mut read_seen = false;
    let mut write_seen = false;
    let mut commute_seen = false;
    for (i, (r, _)) in snapshot.iter().enumerate() {
        let read_ok = !write_seen && !commute_seen;
        let write_ok = !write_seen && !read_seen && !commute_seen;
        let commute_ok = !write_seen && !read_seen && (holder.is_none() || holder == Some(i));
        out.push((read_ok, write_ok, commute_ok));
        read_seen |= r.read.is_active();
        write_seen |= r.write.is_active();
        commute_seen |= r.commute.is_active();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn cached_grants_match_bruteforce(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut arena = QueueArena::new();
        arena.register_object(O);
        let mut live: Vec<jade_core::queue::NodeRef> = Vec::new();
        let mut next_task = 1u64;

        for op in ops {
            match op {
                Op::Push(code) => {
                    let r = arena.push_tail(O, TaskId(next_task), rights_of(code));
                    next_task += 1;
                    live.push(r);
                }
                Op::InsertBefore(code, k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let at = live[k % live.len()];
                    let r = arena.insert_before(at, TaskId(next_task), rights_of(code));
                    next_task += 1;
                    live.push(r);
                }
                Op::Remove(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let r = live.remove(k % live.len());
                    arena.remove(r);
                }
                Op::Retire(k, side) => {
                    if live.is_empty() {
                        continue;
                    }
                    let r = live[k % live.len()];
                    let n = arena.node_mut(r);
                    match side {
                        0 if n.rights.read.is_active() => n.rights.read = DeclState::Retired,
                        1 if n.rights.write.is_active() => n.rights.write = DeclState::Retired,
                        2 if n.rights.commute.is_active() => {
                            n.rights.commute = DeclState::Retired;
                            n.commute_holding = false;
                        }
                        _ => {}
                    }
                }
                Op::Hold(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let any_holder = arena
                        .iter(O)
                        .any(|(_, n)| n.commute_holding && n.rights.commute.is_active());
                    let r = live[k % live.len()];
                    let n = arena.node_mut(r);
                    if !any_holder && n.rights.commute.is_active() {
                        n.commute_holding = true;
                    }
                }
            }
            arena.recompute_diff(O);

            // Snapshot in queue order and compare against the oracle.
            let snapshot: Vec<(DeclRights, bool)> =
                arena.iter(O).map(|(_, n)| (n.rights, n.commute_holding)).collect();
            let want = oracle(&snapshot);
            let got: Vec<(bool, bool, bool)> = arena
                .iter(O)
                .map(|(_, n)| (n.read_granted, n.write_granted, n.commute_granted))
                .collect();
            prop_assert_eq!(&got, &want, "queue state: {:?}", snapshot);

            // Structural sanity: queue length equals live set.
            prop_assert_eq!(arena.queue_len(O), live.len());
        }
    }
}
