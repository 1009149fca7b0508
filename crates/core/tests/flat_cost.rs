//! The engine's per-task cost must not grow with the number of tasks
//! that share an object. No timing: the queue counts the nodes its
//! propagation re-evaluates, and the engine's dependence count must
//! not notice that the reader history is bounded.

use jade_core::engine::{EngineScratch, ShardedEngine};
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::queue::{NodeRef, QueueArena};
use jade_core::spec::{DeclRights, DeclState, Declaration};

const O: ObjectId = ObjectId(0);
const N: usize = 10_000;

/// The root's implicit declaration: deferred read and write.
const ROOT: DeclRights =
    DeclRights { read: DeclState::Deferred, write: DeclState::Deferred, commute: DeclState::None };

/// `N` live declarations of `rights` ahead of the root's deferred tail.
fn shared_queue(rights: DeclRights) -> (QueueArena, Vec<NodeRef>, NodeRef) {
    let mut a = QueueArena::new();
    let mut out = Vec::new();
    let tail = a.push_tail(O, TaskId::ROOT, ROOT, &mut out);
    let nodes =
        (1..=N as u64).map(|t| a.insert_before(tail, TaskId(t), rights, &mut out)).collect();
    (a, nodes, tail)
}

/// Nodes re-evaluated and transitions reported by one mutation.
fn cost(
    a: &mut QueueArena,
    f: impl FnOnce(&mut QueueArena, &mut Vec<jade_core::queue::Transition>),
) -> (u64, usize) {
    let (before, mut out) = (a.evaluated(), Vec::new());
    f(a, &mut out);
    (a.evaluated() - before, out.len())
}

#[test]
fn sharing_an_object_with_ten_thousand_tasks_costs_a_node_or_two() {
    for rights in [DeclRights::RD, DeclRights::CM] {
        let (mut a, nodes, tail) = shared_queue(rights);
        let (attach, granted) = cost(&mut a, |a, out| {
            a.insert_before(tail, TaskId(N as u64 + 1), rights, out);
        });
        assert!(attach <= 3 && granted == 1, "{rights:?}: attach re-evaluated {attach}");
        let (middle, flips) = cost(&mut a, |a, out| a.remove(nodes[N / 2], out));
        assert!(middle <= 3 && flips == 0, "{rights:?}: finish mid-queue re-evaluated {middle}");
        let (head, flips) = cost(&mut a, |a, out| a.remove(nodes[0], out));
        assert!(head <= 3 && flips == 0, "{rights:?}: finish at the head re-evaluated {head}");
        a.check_invariants();
    }
}

#[test]
fn a_writer_leaving_pays_for_exactly_the_readers_it_grants() {
    let mut a = QueueArena::new();
    let mut out = Vec::new();
    let w = a.push_tail(O, TaskId(1), DeclRights::WR, &mut out);
    for t in 0..N as u64 {
        a.push_tail(O, TaskId(2 + t), DeclRights::RD, &mut out);
    }
    assert_eq!(out.len(), 1, "only the writer is enabled");
    assert_eq!(cost(&mut a, |a, out| a.remove(w, out)), (N as u64, N));
    a.check_invariants();
}

/// Attach one task to `e` under the root and leave it unstarted.
fn attach(
    e: &ShardedEngine,
    scratch: &mut EngineScratch,
    decls: &[(ObjectId, DeclRights)],
) -> TaskId {
    let decls: Vec<Declaration> =
        decls.iter().map(|&(object, rights)| Declaration { object, rights }).collect();
    let t = e.alloc_task(TaskId::ROOT, "t", Placement::Any);
    e.attach_task_with(t, &decls, scratch).unwrap();
    t
}

/// The dependence counts below are the parent commit's, where the
/// history kept (and searched) every reader's id.
#[test]
fn conflicts_do_not_notice_the_bounded_reader_history() {
    let e = ShardedEngine::new();
    let mut scratch = EngineScratch::default();
    let a = e.create_object(TaskId::ROOT);
    let conflicts = || e.stats.snapshot().conflicts;

    // A writer, N readers, a writer: N read-after-write edges, then
    // N write-after-read edges plus the write-after-write one.
    let w0 = attach(&e, &mut scratch, &[(a, DeclRights::WR)]);
    let readers: Vec<TaskId> =
        (0..N).map(|_| attach(&e, &mut scratch, &[(a, DeclRights::RD)])).collect();
    assert_eq!(conflicts(), N as u64);
    attach(&e, &mut scratch, &[(a, DeclRights::WR)]);
    assert_eq!(conflicts(), 2 * N as u64 + 1);
    e.check_invariants();

    // Finishing through the shared queue keeps every invariant.
    e.start_task(w0);
    e.finish_task_with(w0, &mut scratch);
    assert_eq!(scratch.wakes.len(), N, "the first writer releases every reader");
    for &r in [&readers[N / 2], &readers[0]] {
        e.start_task(r);
        e.finish_task_with(r, &mut scratch);
        assert!(scratch.wakes.is_empty());
    }
    e.check_invariants();

    // A hand-built spec naming one object twice reads it once: the
    // second task's own read is no dependence of its write.
    let b = e.create_object(TaskId::ROOT);
    let base = conflicts();
    attach(&e, &mut scratch, &[(b, DeclRights::RD), (b, DeclRights::RD)]);
    attach(&e, &mut scratch, &[(b, DeclRights::RD), (b, DeclRights::WR)]);
    assert_eq!(conflicts() - base, 1, "one edge, from the first task's read");
    attach(&e, &mut scratch, &[(b, DeclRights::WR)]);
    assert_eq!(conflicts() - base, 2, "a write after the second task's write");
    e.check_invariants();
}
