//! Scheduler stress conformance: the sharded work-stealing executor
//! must be *observationally serial*. Random fine-grained programs —
//! many tasks with random rights over a handful of objects, run at
//! worker counts well past the host's parallelism — must produce
//! bit-identical results and the same dynamic task graph as the
//! serial reference runtime.
//!
//! A second, targeted test drives the cross-shard commit path: tasks
//! declaring *multiple* objects in adversarial orders. Because every
//! multi-object commit locks its shards in ascending order (see
//! `jade_core::engine`), no lock-order cycle can form and the run
//! must always terminate.
//!
//! Every case also ends with the engine's debug-build
//! `check_invariants` scan (queue links, summaries, grant flags,
//! readiness counters): `ThreadedExecutor` runs it once all tasks of
//! a run have finished.

use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_core::trace::TaskGraphTrace;
use jade_threads::{ThreadedExecutor, Throttle};
use proptest::prelude::*;

/// Rights a generated task may declare on one object.
#[derive(Debug, Clone, Copy, PartialEq)]
enum R {
    Rd,
    Wr,
    RdWr,
    Cm,
}

/// One generated program: `tasks[i]` declares `(object index, rights)`
/// pairs (unique objects per task, ascending by construction).
#[derive(Debug, Clone)]
struct Program {
    n_objects: usize,
    tasks: Vec<Vec<(usize, R)>>,
}

const N_OBJECTS: usize = 4;

fn program_strategy(max_tasks: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..N_OBJECTS, prop_oneof![Just(R::Rd), Just(R::Wr), Just(R::RdWr), Just(R::Cm)]),
            1..4,
        )
        .prop_map(|mut decls| {
            decls.sort_by_key(|&(o, _)| o);
            decls.dedup_by_key(|&mut (o, _)| o);
            decls
        }),
        1..max_tasks + 1,
    )
    .prop_map(|tasks| Program { n_objects: N_OBJECTS, tasks })
}

/// Run `prog` on `rt` and return (per-object final values, trace,
/// runtime stats).
///
/// Bodies are schedule-sensitive on purpose: writers apply a
/// *non-commutative* update (multiply-add keyed by task index), so any
/// serial-order violation changes the result; commuters apply a
/// commutative add, so any legal interleaving of them agrees.
fn run_on<Rt: Runtime>(
    rt: &Rt,
    throttle: Throttle,
    prog: &Program,
) -> (Vec<u64>, TaskGraphTrace, jade_core::stats::RuntimeStats) {
    let prog = prog.clone();
    let rep = rt
        .execute(RunConfig::new().with_trace().with_throttle(throttle), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..prog.n_objects).map(|_| ctx.create(1u64)).collect();
            for (i, decls) in prog.tasks.iter().enumerate() {
                let decls = decls.clone();
                let body_xs = xs.clone();
                let label = format!("t{i}");
                ctx.withonly(
                    &label,
                    |s| {
                        for &(o, r) in &decls {
                            match r {
                                R::Rd => s.rd(xs[o]),
                                R::Wr => s.wr(xs[o]),
                                R::RdWr => s.rd_wr(xs[o]),
                                R::Cm => s.cm(xs[o]),
                            };
                        }
                    },
                    {
                        let decls = decls.clone();
                        move |c: &mut _| {
                            let k = i as u64 + 1;
                            for &(o, r) in &decls {
                                match r {
                                    R::Rd => {
                                        let v = *c.rd(&body_xs[o]);
                                        std::hint::black_box(v);
                                    }
                                    R::Wr | R::RdWr => {
                                        let g = &mut *c.wr(&body_xs[o]);
                                        *g = g.wrapping_mul(31).wrapping_add(k);
                                    }
                                    R::Cm => {
                                        let g = &mut *c.cm(&body_xs[o]);
                                        *g = g.wrapping_add(k);
                                    }
                                }
                            }
                        }
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).collect::<Vec<u64>>()
        })
        .expect("stress program must run clean");
    let trace = rep.trace.clone().expect("trace was requested");
    (rep.result, trace, rep.stats)
}

/// Canonical view of a trace: label-keyed edges, sorted. Labels — not
/// task ids — are compared so the check does not depend on internal id
/// assignment.
fn edge_set(tr: &TaskGraphTrace) -> Vec<(String, String, u8)> {
    let mut es: Vec<_> = tr
        .edges()
        .iter()
        .map(|e| (tr.label(e.from).to_string(), tr.label(e.to).to_string(), e.kind as u8))
        .collect();
    es.sort();
    es
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random programs, many workers: results and task graphs must
    /// match the serial reference exactly.
    #[test]
    fn threaded_matches_serial_under_stress(prog in program_strategy(40)) {
        let (serial_vals, serial_tr, _) = run_on(&SerialRuntime, Throttle::None, &prog);
        let (par_vals, par_tr, _) = run_on(&ThreadedExecutor::new(8), Throttle::None, &prog);
        prop_assert_eq!(&par_vals, &serial_vals, "final object values diverged");
        prop_assert_eq!(edge_set(&par_tr), edge_set(&serial_tr), "task graphs diverged");
        prop_assert_eq!(par_tr.tasks().len(), serial_tr.tasks().len());
    }

    /// Slot recycling under churn: with the creator throttled to a
    /// small live-set, long random programs at 8 workers must (a) stay
    /// observationally serial — create/finish/steal interleavings with
    /// recycled `TaskId`s in flight change nothing — and (b) run inside
    /// a bounded slab: the slot high-water mark tracks the live-set,
    /// not the task count.
    #[test]
    fn recycling_churn_matches_serial_with_bounded_slab(prog in program_strategy(120)) {
        let (serial_vals, serial_tr, _) = run_on(&SerialRuntime, Throttle::None, &prog);
        let throttle = Throttle::SuspendCreator { hi: 8, lo: 4 };
        let (par_vals, par_tr, stats) = run_on(&ThreadedExecutor::new(8), throttle, &prog);
        prop_assert_eq!(&par_vals, &serial_vals, "final object values diverged");
        prop_assert_eq!(edge_set(&par_tr), edge_set(&serial_tr), "task graphs diverged");
        if prog.tasks.len() >= 40 {
            // Live-set ≤ throttle hi (8) + root; the slab adds at most
            // per-shard round-robin slack plus finished-but-unreleased
            // in-flight slots. 40 is a generous ceiling that a
            // one-slot-per-task (non-recycling) table blows through.
            prop_assert!(
                stats.peak_task_slots <= 40,
                "peak_task_slots {} for {} tasks — slots are not being recycled",
                stats.peak_task_slots, prog.tasks.len()
            );
        }
    }
}

/// What a generated pipeline task does with its deferred declaration:
/// convert it to an immediate access (`with { to_* } cont`) or retire
/// it (`with { no_* } cont`). The deferred side is chosen to match.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DefAct {
    ConvertRd,
    ConvertWr,
    RetireRd,
    RetireWr,
}

/// A random deferred-pipeline program: task `i` declares an immediate
/// `rd_wr` on one object and a deferred right on another, then issues
/// the matching `with-cont` mid-body. This drives exactly the paths
/// the dispatch fast paths must not break: `with_cont` retires weaken
/// what later specs may cover, conversions may block mid-task, and
/// finishes that enable a single successor take the inline-steal path.
#[derive(Debug, Clone)]
struct ContProgram {
    tasks: Vec<(usize, usize, DefAct)>,
}

fn cont_program_strategy(max_tasks: usize) -> impl Strategy<Value = ContProgram> {
    proptest::collection::vec(
        (
            0..N_OBJECTS,
            0..N_OBJECTS,
            prop_oneof![
                Just(DefAct::ConvertRd),
                Just(DefAct::ConvertWr),
                Just(DefAct::RetireRd),
                Just(DefAct::RetireWr),
            ],
        )
            .prop_map(|(a, b, act)| {
                // Distinct immediate/deferred objects keep the spec simple
                // (one declaration per object).
                let b = if a == b { (b + 1) % N_OBJECTS } else { b };
                (a, b, act)
            }),
        1..max_tasks + 1,
    )
    .prop_map(|tasks| ContProgram { tasks })
}

fn run_cont_on<Rt: Runtime>(
    rt: &Rt,
    prog: &ContProgram,
) -> (Vec<u64>, TaskGraphTrace, jade_core::stats::RuntimeStats) {
    let prog = prog.clone();
    let rep = rt
        .execute(RunConfig::new().with_trace(), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..N_OBJECTS).map(|_| ctx.create(1u64)).collect();
            for (i, &(a, b, act)) in prog.tasks.iter().enumerate() {
                let (xa, xb) = (xs[a], xs[b]);
                let label = format!("t{i}");
                ctx.withonly(
                    &label,
                    |s| {
                        s.rd_wr(xa);
                        match act {
                            DefAct::ConvertRd | DefAct::RetireRd => s.df_rd(xb),
                            DefAct::ConvertWr | DefAct::RetireWr => s.df_wr(xb),
                        };
                    },
                    move |c: &mut _| {
                        let k = i as u64 + 1;
                        {
                            let g = &mut *c.wr(&xa);
                            *g = g.wrapping_mul(31).wrapping_add(k);
                        }
                        match act {
                            DefAct::ConvertRd => {
                                c.with_cont(|cb| {
                                    cb.to_rd(xb);
                                });
                                std::hint::black_box(*c.rd(&xb));
                            }
                            DefAct::ConvertWr => {
                                c.with_cont(|cb| {
                                    cb.to_wr(xb);
                                });
                                let g = &mut *c.wr(&xb);
                                *g = g.wrapping_mul(31).wrapping_add(k);
                            }
                            DefAct::RetireRd => c.with_cont(|cb| {
                                cb.no_rd(xb);
                            }),
                            DefAct::RetireWr => c.with_cont(|cb| {
                                cb.no_wr(xb);
                            }),
                        }
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).collect::<Vec<u64>>()
        })
        .expect("with-cont stress program must run clean");
    let trace = rep.trace.clone().expect("trace was requested");
    (rep.result, trace, rep.stats)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random deferred-pipeline programs at 8 workers must be
    /// bit-identical to the serial reference.
    #[test]
    fn with_cont_pipelines_match_serial_under_stress(prog in cont_program_strategy(40)) {
        let (serial_vals, serial_tr, serial_stats) = run_cont_on(&SerialRuntime, &prog);
        let (par_vals, par_tr, par_stats) = run_cont_on(&ThreadedExecutor::new(8), &prog);
        prop_assert_eq!(&par_vals, &serial_vals, "final object values diverged");
        prop_assert_eq!(edge_set(&par_tr), edge_set(&serial_tr), "task graphs diverged");
        prop_assert_eq!(par_stats.with_conts, serial_stats.with_conts);
        prop_assert_eq!(par_stats.tasks_created, serial_stats.tasks_created);
    }
}

/// A crafted chain of identically-specified read-modify-write tasks
/// (every finish enables exactly one successor), with repeated guard
/// acquisitions in one body, matches the serial reference.
#[test]
fn fast_paths_are_exercised_and_stay_serial() {
    fn chain_on<Rt: Runtime>(rt: &Rt) -> (u64, jade_core::stats::RuntimeStats) {
        let rep = rt
            .execute(RunConfig::new(), |ctx| {
                let x: Shared<u64> = ctx.create(0u64);
                for _ in 0..200 {
                    ctx.withonly(
                        "link",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c| {
                            for _ in 0..4 {
                                let cur = *c.rd(&x);
                                *c.wr(&x) = cur + 1;
                            }
                        },
                    );
                }
                *ctx.rd(&x)
            })
            .expect("clean run");
        (rep.result, rep.stats)
    }
    let (serial_v, _) = chain_on(&SerialRuntime);
    let (par_v, stats) = chain_on(&ThreadedExecutor::new(8));
    assert_eq!(par_v, serial_v);
    assert_eq!(par_v, 800);
    assert_eq!(stats.tasks_finished, 200);
}

/// Cross-shard commit ordering: tasks declaring several objects in
/// *descending* program order still commit with shard locks taken in
/// ascending order, so two opposite-order multi-object tasks can never
/// deadlock. A bounded watchdog turns a deadlock into a test failure
/// instead of a hang.
#[test]
fn opposite_order_multi_object_specs_cannot_deadlock() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..50 {
            let rep = ThreadedExecutor::new(4)
                .execute(RunConfig::new(), move |ctx| {
                    let xs: Vec<Shared<u64>> = (0..6).map(|_| ctx.create(0u64)).collect();
                    for i in 0..40u64 {
                        // Alternate between ascending and descending
                        // declaration order over an overlapping window,
                        // the classic AB/BA deadlock shape.
                        let a = xs[(i as usize + round) % 6];
                        let b = xs[(i as usize + round + 3) % 6];
                        let (first, second) = if i % 2 == 0 { (a, b) } else { (b, a) };
                        ctx.withonly(
                            "ab",
                            |s| {
                                s.rd_wr(first);
                                s.rd_wr(second);
                            },
                            move |c| {
                                *c.wr(&first) += 1;
                                *c.wr(&second) += 1;
                            },
                        );
                    }
                    xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
                })
                .expect("clean run");
            assert_eq!(rep.result, 80, "each task increments two objects");
        }
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("multi-object commits deadlocked (lock ordering violated)");
}
