//! Task-slab lookups racing slab growth and slot recycling.
//!
//! Creator threads — each creating children of its own running task,
//! so each allocates from its own home slab shard — hand out waves of
//! up to 130 simultaneously live tasks, pushing their shard across the
//! segment boundaries at positions 8, 24, 56 and 120. A finisher per
//! creator starts and finishes each wave as it arrives, returning the
//! slots to the creator's free-list while the creator pops from it.
//! Checker threads meanwhile validate live ids, recycled ids and ids
//! that name positions being published right now.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use jade_core::engine::{ShardedEngine, TASK_SHARDS};
use jade_core::graph::{TaskState, Wake};
use jade_core::ids::{ObjectId, Placement, TaskId};
use jade_core::spec::SpecBuilder;

const CREATORS: usize = 3;
const CHECKERS: usize = 2;
const WAVES: [usize; 4] = [10, 30, 70, 130];
const ROUNDS: usize = 16;

/// Ids handed out and not yet finished; a finisher removes an id
/// before finishing it, so an id a checker reads here under the lock
/// is live for as long as it holds the lock.
type Live = Arc<Mutex<Vec<TaskId>>>;

/// Create and attach a child of `parent` declaring `rd_wr` (`write`)
/// or `rd` on `o`; either is covered, so it is ready at once.
fn child(e: &ShardedEngine, parent: TaskId, o: ObjectId, write: bool) -> TaskId {
    let t = e.alloc_task(parent, "c", Placement::Any);
    let mut sb = SpecBuilder::new();
    if write {
        sb.rd_wr(o);
    } else {
        sb.rd(o);
    }
    assert_eq!(e.attach_task(t, sb.build().0).unwrap(), vec![Wake::Ready(t)]);
    t
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn lookups_race_slab_growth_and_recycling() {
    let e = Arc::new(ShardedEngine::new());
    let live: Live = Arc::default();
    let dead: Arc<Mutex<Vec<TaskId>>> = Arc::default();
    let done = Arc::new(AtomicBool::new(false));
    let go = Arc::new(Barrier::new(CHECKERS + CREATORS));

    let objects: Vec<_> = (0..CREATORS).map(|_| e.create_object(TaskId::ROOT)).collect();
    let tops: Vec<TaskId> = objects
        .iter()
        .map(|&o| {
            let t = child(&e, TaskId::ROOT, o, true);
            e.start_task(t);
            t
        })
        .collect();

    let checkers: Vec<_> = (0..CHECKERS)
        .map(|k| {
            let (e, live, dead) = (e.clone(), live.clone(), dead.clone());
            let (done, go) = (done.clone(), go.clone());
            thread::spawn(move || {
                go.wait();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 + k as u64;
                let mut checked = 0u64;
                while !done.load(Ordering::Acquire) {
                    {
                        let l = live.lock().unwrap();
                        if !l.is_empty() {
                            let t = l[xorshift(&mut rng) as usize % l.len()];
                            assert!(e.is_current(t), "live {t} does not validate");
                            let s = e.state(t);
                            assert!(matches!(s, TaskState::Ready | TaskState::Running), "{s:?}");
                            checked += 1;
                        }
                    }
                    {
                        let d = dead.lock().unwrap();
                        if !d.is_empty() {
                            let t = d[xorshift(&mut rng) as usize % d.len()];
                            assert!(!e.is_current(t), "recycled {t} validates");
                        }
                    }
                    // Any position, including ones being published
                    // right now: the lookup must neither panic nor
                    // tear, whatever it answers.
                    let idx = xorshift(&mut rng) % (TASK_SHARDS as u64 * 160);
                    let gen = xorshift(&mut rng) % (ROUNDS as u64 + 2);
                    std::hint::black_box(e.is_current(TaskId::new(idx as u32, gen as u32)));
                }
                checked
            })
        })
        .collect();

    let workers: Vec<_> = tops
        .iter()
        .zip(&objects)
        .map(|(&top, &o)| {
            let (tx, rx) = mpsc::channel::<Vec<TaskId>>();
            let finisher = {
                let (e, live, dead) = (e.clone(), live.clone(), dead.clone());
                thread::spawn(move || {
                    for wave in rx {
                        for t in wave {
                            e.start_task(t);
                            {
                                let mut l = live.lock().unwrap();
                                let at = l.iter().position(|&x| x == t).expect("finished once");
                                l.swap_remove(at);
                            }
                            e.finish_task(t);
                            assert!(!e.is_current(t), "a finished childless task is recycled");
                            dead.lock().unwrap().push(t);
                        }
                    }
                })
            };
            let (e, live, go) = (e.clone(), live.clone(), go.clone());
            let creator = thread::spawn(move || {
                go.wait();
                let mut created: Vec<TaskId> = Vec::new();
                for _ in 0..ROUNDS {
                    for w in WAVES {
                        let wave: Vec<TaskId> = (0..w)
                            .map(|_| {
                                let c = child(&e, top, o, false);
                                let mut l = live.lock().unwrap();
                                assert!(l.iter().all(|x| x.index() != c.index()), "{c} live twice");
                                l.push(c);
                                c
                            })
                            .collect();
                        created.extend(&wave);
                        tx.send(wave).unwrap();
                    }
                }
                created
            });
            (creator, finisher)
        })
        .collect();

    let mut all = vec![TaskId::ROOT];
    all.extend(&tops);
    for (creator, finisher) in workers {
        all.extend(creator.join().unwrap());
        finisher.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let checked: u64 = checkers.into_iter().map(|h| h.join().unwrap()).sum();

    let ids: HashSet<TaskId> = all.iter().copied().collect();
    assert_eq!(ids.len(), all.len(), "an id was handed out twice");
    let positions: HashSet<usize> = all.iter().map(|t| t.index()).collect();
    assert_eq!(e.task_slots(), positions.len() as u64, "task_slots counts positions handed out");
    assert!(
        e.task_slots() >= (1 + CREATORS + CREATORS * 130) as u64,
        "each creator's shard held a wave of 130 at once"
    );
    assert!(checked > 0, "the checkers saw live tasks");
    // At rest only the root and the tops validate at generation 0,
    // which every recycled position has left behind — including the
    // positions of allocated segments that were never handed out.
    let mut live_now = vec![TaskId::ROOT];
    live_now.extend(&tops);
    live_now.sort();
    let gen0: Vec<TaskId> = (0..TASK_SHARDS as u32 * 256)
        .map(|i| TaskId::new(i, 0))
        .filter(|&t| e.is_current(t))
        .collect();
    assert_eq!(gen0, live_now);
    for t in tops {
        e.finish_task(t);
    }
    assert_eq!(e.live_tasks(), 0);
    let s = e.stats.snapshot();
    assert_eq!(s.tasks_created, s.tasks_finished);
}
