//! Model-checking the dependency engine against its specification.
//!
//! An adversarial executor drives the shipping engine
//! ([`ShardedEngine`](jade_core::engine::ShardedEngine), through its
//! single-owner handle [`DepGraph`]) through random interleavings of
//! create/start/access/finish for random flat task sets, checking
//! after every step:
//!
//! 1. **conflict-freedom** — the concurrently started tasks' rights
//!    never conflict (no reader with a writer, one writer at most,
//!    commuters exclude readers/writers but not each other);
//! 2. **serial-order safety** — when a task starts, every *earlier*
//!    conflicting task has already finished (Jade's serial semantics);
//! 3. **liveness** — while unfinished tasks remain, something is
//!    always ready, running, or startable (no lost wakeups);
//! 4. **internal consistency** — `check_invariants`: every queue's
//!    links, summaries and grant flags against a from-scratch
//!    evaluation, every pending task's readiness counter against its
//!    ungranted sides.
//!
//! Every case has more tasks than the executor keeps in flight, so
//! task-slab slots are recycled under it; a finished task's id must
//! then be rejected as stale, never alias the slot's new occupant.

use proptest::prelude::*;

use jade_core::error::JadeError;
use jade_core::graph::{AccessStatus, DepGraph, TaskState, Wake};
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::spec::{AccessKind, ContOp, Declaration, SpecBuilder};

#[derive(Debug, Clone, Copy, PartialEq)]
enum R {
    Rd,
    Wr,
    RdWr,
    Cm,
}

impl R {
    fn conflicts(self, other: R) -> bool {
        match (self, other) {
            (R::Rd, R::Rd) => false,
            (R::Cm, R::Cm) => false, // unordered among themselves
            _ => true,
        }
    }
}

#[derive(Debug, Clone)]
struct Gen {
    decls: Vec<(usize, R)>,
}

fn gen_strategy(n_objects: usize) -> impl Strategy<Value = Gen> {
    proptest::collection::vec(
        (0..n_objects, prop_oneof![Just(R::Rd), Just(R::Wr), Just(R::RdWr), Just(R::Cm)]),
        1..4,
    )
    .prop_map(|mut v| {
        v.sort_by_key(|(o, _)| *o);
        v.dedup_by_key(|(o, _)| *o);
        Gen { decls: v }
    })
}

fn build_decls(g: &Gen, objs: &[ObjectId]) -> Vec<Declaration> {
    let mut b = SpecBuilder::new();
    for &(o, r) in &g.decls {
        match r {
            R::Rd => b.rd(objs[o]),
            R::Wr => b.wr(objs[o]),
            R::RdWr => b.rd_wr(objs[o]),
            R::Cm => b.cm(objs[o]),
        };
    }
    b.build().0
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    NotCreated,
    Waiting,
    Started,
    Finished,
}

/// A finished task's id must be rejected, never alias whichever task
/// holds its slot now.
fn check_stale(engine: &mut DepGraph, t: TaskId, obj: ObjectId) -> Result<(), TestCaseError> {
    prop_assert!(!engine.is_current(t), "finished {t} still current");
    let stale = JadeError::StaleTask { task: t };
    prop_assert_eq!(engine.check_access(t, obj, AccessKind::Read), Err(stale.clone()));
    prop_assert_eq!(engine.with_cont(t, vec![(obj, ContOp::NoRd)]).err(), Some(stale));
    Ok(())
}

/// Create plan `i`'s task. When it lands in a slot a finished task
/// held, the two ids must differ in generation and the old one stay
/// stale while the new one is in flight; returns whether it did.
fn create(
    engine: &mut DepGraph,
    plan: &Gen,
    i: usize,
    objs: &[ObjectId],
    ids: &[Option<TaskId>],
) -> Result<(TaskId, Vec<Wake>, bool), TestCaseError> {
    let (tid, wakes) = engine
        .create_task(TaskId::ROOT, &format!("t{i}"), build_decls(plan, objs), Placement::Any)
        .unwrap();
    prop_assert!(engine.is_current(tid));
    let previous = ids.iter().flatten().rev().find(|old| old.index() == tid.index());
    if let Some(&old) = previous {
        prop_assert_ne!(old.generation(), tid.generation());
        check_stale(engine, old, objs[0])?;
    }
    Ok((tid, wakes, previous.is_some()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn adversarial_schedules_respect_serial_semantics(
        n_objects in 1usize..4,
        // At most `window` tasks are in flight and every case has more
        // tasks than that, so a creation always follows a finish and
        // slab slots recycle in every case.
        window in 2usize..8,
        raw in proptest::collection::vec(gen_strategy(4), 8..40),
        schedule in proptest::collection::vec(any::<u32>(), 1..400),
    ) {
        let plans: Vec<Gen> = raw
            .into_iter()
            .map(|mut g| {
                for d in &mut g.decls {
                    d.0 %= n_objects;
                }
                g.decls.sort_by_key(|(o, _)| *o);
                g.decls.dedup_by_key(|(o, _)| *o);
                g
            })
            .collect();

        let mut engine = DepGraph::new();
        let objs: Vec<ObjectId> =
            (0..n_objects).map(|_| engine.create_object(TaskId::ROOT)).collect();

        let n = plans.len();
        let mut ids: Vec<Option<TaskId>> = vec![None; n];
        let mut state: Vec<St> = vec![St::NotCreated; n];
        let mut next_create = 0usize;
        let mut recycled = 0usize;

        let by_id = |ids: &Vec<Option<TaskId>>, t: TaskId| -> usize {
            ids.iter().position(|x| *x == Some(t)).expect("known task")
        };

        let mut steps = schedule.into_iter();
        loop {
            if state.iter().all(|s| *s == St::Finished) && next_create == n {
                break;
            }
            let Some(choice) = steps.next() else { break };

            // Enumerate available actions.
            let mut actions: Vec<usize> = Vec::new(); // 0=create, 1+i = start i, 1+n+i = finish i
            let in_flight =
                state.iter().filter(|s| matches!(s, St::Waiting | St::Started)).count();
            if next_create < n && in_flight < window {
                actions.push(0);
            }
            for i in 0..n {
                if state[i] == St::Waiting {
                    if let Some(t) = ids[i] {
                        if engine.state(t) == TaskState::Ready {
                            actions.push(1 + i);
                        }
                    }
                }
                if state[i] == St::Started {
                    actions.push(1 + n + i);
                }
            }
            // Liveness: if nothing is startable/finishable/creatable
            // but unfinished tasks exist, the engine lost a wakeup.
            if actions.is_empty() {
                let unfinished: Vec<usize> = (0..n)
                    .filter(|&i| state[i] != St::Finished && state[i] != St::NotCreated)
                    .collect();
                prop_assert!(unfinished.is_empty(), "deadlock: waiting tasks {unfinished:?} never became ready");
                prop_assert_eq!(next_create, n);
                break;
            }
            let action = actions[(choice as usize) % actions.len()];

            if action == 0 {
                let i = next_create;
                next_create += 1;
                let (tid, wakes, reused) = create(&mut engine, &plans[i], i, &objs, &ids)?;
                recycled += reused as usize;
                ids[i] = Some(tid);
                state[i] = St::Waiting;
                // wakes may include Ready for this task (tracked via engine.state)
                for w in wakes {
                    if let Wake::Ready(t) = w {
                        let j = by_id(&ids, t);
                        prop_assert_eq!(state[j], St::Waiting);
                    }
                }
            } else if action <= n {
                let i = action - 1;
                let t = ids[i].unwrap();
                // SAFETY CHECK 2: every earlier conflicting task finished.
                for j in 0..i {
                    if state[j] == St::NotCreated || state[j] == St::Finished {
                        continue;
                    }
                    for &(o1, r1) in &plans[i].decls {
                        for &(o2, r2) in &plans[j].decls {
                            if o1 == o2 && r1.conflicts(r2) {
                                prop_assert!(
                                    false,
                                    "task {i} started while earlier conflicting task {j} unfinished \
                                     (object {o1}, {r1:?} vs {r2:?})"
                                );
                            }
                        }
                    }
                }
                engine.start_task(t);
                state[i] = St::Started;
                // SAFETY CHECK 1: started tasks are mutually conflict-free.
                for j in 0..n {
                    if j == i || state[j] != St::Started {
                        continue;
                    }
                    for &(o1, r1) in &plans[i].decls {
                        for &(o2, r2) in &plans[j].decls {
                            prop_assert!(
                                !(o1 == o2 && r1.conflicts(r2)),
                                "conflicting tasks {i} and {j} started concurrently"
                            );
                        }
                    }
                }
                // Commuting accesses: acquire each declared cm object
                // once (exercises the holder protocol). A MustWait here
                // can only be caused by another started commuter.
                for &(o, r) in &plans[i].decls {
                    if r == R::Cm {
                        match engine.check_access(t, objs[o], AccessKind::Commute).unwrap() {
                            AccessStatus::Granted => {}
                            AccessStatus::MustWait => {
                                // Re-grant will come when the holder
                                // finishes; to keep the oracle simple we
                                // don't model mid-task suspension —
                                // verify a started commuter holds it.
                                let holder_exists = (0..n).any(|j| {
                                    j != i
                                        && state[j] == St::Started
                                        && plans[j].decls.iter().any(|&(oj, rj)| {
                                            oj == o && rj == R::Cm
                                        })
                                });
                                prop_assert!(holder_exists, "MustWait without a holder");
                                // Put the task back to Running so the
                                // oracle can finish it (the engine allows
                                // finishing a task that never performed
                                // its access).
                                // The engine marked it Blocked; finishing
                                // requires Running: emulate the wake by
                                // the holder finishing later. Mark it so
                                // we skip finishing until then.
                                state[i] = St::Started; // unchanged
                            }
                        }
                    }
                }
            } else {
                let i = action - 1 - n;
                let t = ids[i].unwrap();
                // Skip finishing tasks the engine currently blocks
                // (commute waiters); they finish after their holder.
                if engine.state(t) == TaskState::Blocked {
                    continue;
                }
                let wakes = engine.finish_task(t);
                state[i] = St::Finished;
                check_stale(&mut engine, t, objs[0])?;
                for w in wakes {
                    match w {
                        Wake::Ready(t2) => {
                            let j = by_id(&ids, t2);
                            prop_assert_eq!(state[j], St::Waiting, "ready wake for non-waiting task");
                        }
                        Wake::Unblocked(t2) => {
                            // A commute waiter resumed; it is running again.
                            prop_assert!(engine.state(t2) == TaskState::Running);
                        }
                    }
                }
            }
            engine.check_invariants();
        }

        // Drain: run everything to completion to prove no deadlock.
        let mut guard = 0;
        while state.iter().any(|s| *s != St::Finished) || next_create < n {
            guard += 1;
            prop_assert!(guard < 10_000, "drain loop did not converge");
            let in_flight =
                state.iter().filter(|s| matches!(s, St::Waiting | St::Started)).count();
            if next_create < n && in_flight < window {
                let i = next_create;
                next_create += 1;
                let (tid, _, reused) = create(&mut engine, &plans[i], i, &objs, &ids)?;
                recycled += reused as usize;
                ids[i] = Some(tid);
                state[i] = St::Waiting;
                continue;
            }
            let mut progressed = false;
            for i in 0..n {
                let Some(t) = ids[i] else { continue };
                match state[i] {
                    St::Waiting if engine.state(t) == TaskState::Ready => {
                        engine.start_task(t);
                        state[i] = St::Started;
                        progressed = true;
                    }
                    St::Started if engine.state(t) != TaskState::Blocked => {
                        engine.finish_task(t);
                        state[i] = St::Finished;
                        check_stale(&mut engine, t, objs[0])?;
                        progressed = true;
                    }
                    _ => {}
                }
            }
            prop_assert!(progressed, "no progress possible: engine deadlocked");
            engine.check_invariants();
        }
        prop_assert!(recycled > 0, "{n} tasks through a window of {window} recycled no slot");
    }
}
