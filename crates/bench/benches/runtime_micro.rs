//! Microbenchmarks of the runtime costs the paper's §8 discusses:
//! "The run-time overhead associated with detecting and managing
//! dynamic concurrency limits the grain size that Jade programs can
//! efficiently use." Task creation/retirement, dynamic access checks,
//! with-cont updates, and the typed transport with and without format
//! conversion.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use jade_core::graph::DepGraph;
use jade_core::ids::{Placement, TaskId};
use jade_core::prelude::*;
use jade_core::spec::SpecBuilder;
use jade_threads::{RunConfig, Runtime, ThreadedExecutor};
use jade_transport::{DataLayout, Message, MsgKind, PortDecoder, PortEncoder, Portable};

fn engine_task_lifecycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(1));
    g.bench_function("create+finish independent task", |b| {
        b.iter_batched_ref(
            || {
                let mut g = DepGraph::new();
                let o = g.create_object(TaskId::ROOT);
                (g, o)
            },
            |(g, o)| {
                let mut sb = SpecBuilder::new();
                sb.rd_wr(*o);
                let (tid, _) =
                    g.create_task(TaskId::ROOT, "t", sb.build().0, Placement::Any).unwrap();
                g.start_task(tid);
                g.finish_task(tid);
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("access check (granted)", |b| {
        let mut g = DepGraph::new();
        let o = g.create_object(TaskId::ROOT);
        let mut sb = SpecBuilder::new();
        sb.rd_wr(o);
        let (tid, _) = g.create_task(TaskId::ROOT, "t", sb.build().0, Placement::Any).unwrap();
        g.start_task(tid);
        b.iter(|| {
            black_box(g.check_access(tid, o, AccessKind::Read).unwrap());
        })
    });
    g.bench_function("with_cont convert+retire", |b| {
        b.iter_batched_ref(
            || {
                let mut g = DepGraph::new();
                let o = g.create_object(TaskId::ROOT);
                let mut sb = SpecBuilder::new();
                sb.df_rd(o);
                let (t1, _) =
                    g.create_task(TaskId::ROOT, "t1", sb.build().0, Placement::Any).unwrap();
                g.start_task(t1);
                (g, o, t1)
            },
            |(g, o, t1)| {
                let (blocked, _) =
                    g.with_cont(*t1, vec![(*o, jade_core::spec::ContOp::ToRd)]).unwrap();
                assert!(!blocked);
                g.with_cont(*t1, vec![(*o, jade_core::spec::ContOp::NoRd)]).unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn threaded_task_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded");
    g.sample_size(10);
    for tasks in [256u64, 1024] {
        g.throughput(Throughput::Elements(tasks));
        g.bench_function(format!("{tasks} tasks, 4 workers"), |b| {
            let exec = ThreadedExecutor::new(4);
            b.iter(|| {
                let rep = exec
                    .execute(RunConfig::new(), move |ctx| {
                        let xs: Vec<Shared<f64>> = (0..32).map(|i| ctx.create(i as f64)).collect();
                        for i in 0..tasks {
                            let x = xs[(i % 32) as usize];
                            ctx.withonly(
                                "inc",
                                |s| {
                                    s.rd_wr(x);
                                },
                                move |c| {
                                    *c.wr(&x) += 1.0;
                                },
                            );
                        }
                        xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
                    })
                    .expect("clean run");
                black_box(rep.result);
            })
        });
    }
    g.finish();
}

fn sharded_engine_lifecycle(c: &mut Criterion) {
    // The sharded engine's counterpart of the `engine` group above:
    // the same one-task lifecycle through the lock-table commit path
    // the work-stealing executor uses.
    use jade_core::engine::ShardedEngine;
    let mut g = c.benchmark_group("sharded-engine");
    g.throughput(Throughput::Elements(1));
    g.bench_function("alloc+attach+start+finish independent task", |b| {
        b.iter_batched_ref(
            || {
                let eng = ShardedEngine::new();
                let o = eng.create_object(TaskId::ROOT);
                (eng, o)
            },
            |(eng, o)| {
                let mut sb = SpecBuilder::new();
                sb.rd_wr(*o);
                let tid = eng.alloc_task(TaskId::ROOT, "t", Placement::Any);
                eng.attach_task(tid, sb.build().0).unwrap();
                eng.start_task(tid);
                eng.finish_task(tid);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Create/finish churn at a fixed live-set size: the steady-state
/// regime the generational slot slab is built for. Every iteration
/// retires the oldest live task and creates a replacement through the
/// caller-owned scratch buffers, so after warm-up the engine performs
/// zero slab growth and zero transient allocation — the measured cost
/// is pure slot-recycling plus queue maintenance.
fn slot_recycle_churn(c: &mut Criterion) {
    use jade_core::engine::{EngineScratch, ShardedEngine};
    use std::collections::VecDeque;
    let mut g = c.benchmark_group("slot-recycle");
    g.throughput(Throughput::Elements(1));
    for live in [1usize, 8, 64] {
        g.bench_function(format!("create/finish churn, live-set {live}"), |b| {
            let eng = ShardedEngine::new();
            let objs: Vec<_> = (0..live).map(|_| eng.create_object(TaskId::ROOT)).collect();
            let mut scratch = EngineScratch::default();
            let mut window: VecDeque<(jade_core::ids::TaskId, usize)> = VecDeque::new();
            for (i, &o) in objs.iter().enumerate() {
                let mut sb = SpecBuilder::new();
                sb.rd_wr(o);
                let tid = eng.alloc_task(TaskId::ROOT, "t", Placement::Any);
                eng.attach_task_with(tid, &sb.build().0, &mut scratch).unwrap();
                eng.start_task(tid);
                window.push_back((tid, i));
            }
            b.iter(|| {
                let (tid, slot) = window.pop_front().expect("window is non-empty");
                eng.finish_task_with(tid, &mut scratch);
                let mut sb = SpecBuilder::new();
                sb.rd_wr(objs[slot]);
                let t2 = eng.alloc_task(TaskId::ROOT, "t", Placement::Any);
                eng.attach_task_with(t2, &sb.build().0, &mut scratch).unwrap();
                eng.start_task(t2);
                window.push_back((t2, slot));
            });
            while let Some((tid, _)) = window.pop_front() {
                eng.finish_task_with(tid, &mut scratch);
            }
            // The whole point: the slab never outgrows the live-set
            // (modulo per-shard slack), however long the bench ran.
            let peak = eng.stats.snapshot().peak_task_slots;
            assert!(
                peak <= (live as u64) + 17,
                "slab leaked: peak {peak} slots for live-set {live}"
            );
            black_box(peak);
        });
    }
    g.finish();
}

/// The engine lifecycle split across two threads the way an executor
/// runs it: this thread creates and attaches (the main program), a
/// second one starts and finishes whatever is ready (a worker). Unlike
/// `slot_recycle_churn`, the slots, counters and free-list are written
/// from both ends, so the per-task figure includes the cache-line
/// traffic between the two threads — which a one-thread replay of the
/// same calls cannot see.
fn engine_two_thread_lifecycle(c: &mut Criterion) {
    use jade_core::engine::{EngineScratch, ShardedEngine};
    use jade_core::graph::Wake;
    const TASKS: usize = 4096;
    let mut g = c.benchmark_group("engine-two-thread");
    g.throughput(Throughput::Elements(TASKS as u64));
    for objects in [1usize, 64] {
        g.bench_function(format!("create+attach | start+finish, {objects} objects"), |b| {
            b.iter(|| {
                let eng = ShardedEngine::new();
                let objs: Vec<_> = (0..objects).map(|_| eng.create_object(TaskId::ROOT)).collect();
                let (tx, rx) = std::sync::mpsc::channel::<Vec<TaskId>>();
                let eng = &eng;
                std::thread::scope(|s| {
                    s.spawn(move || {
                        let mut scratch = EngineScratch::default();
                        let (mut ready, mut finished) = (Vec::new(), 0);
                        while finished < TASKS {
                            let Some(t) = ready.pop() else {
                                ready = rx.recv().expect("every task is created");
                                continue;
                            };
                            eng.start_task(t);
                            eng.finish_task_with(t, &mut scratch);
                            finished += 1;
                            ready.extend(scratch.wakes.iter().filter_map(|w| match w {
                                Wake::Ready(t) => Some(*t),
                                Wake::Unblocked(_) => None,
                            }));
                        }
                    });
                    let mut scratch = EngineScratch::default();
                    let mut batch = Vec::new();
                    for i in 0..TASKS {
                        let mut sb = SpecBuilder::new();
                        sb.rd_wr(objs[i % objects]);
                        let t = eng.alloc_task(TaskId::ROOT, "t", Placement::Any);
                        eng.attach_task_with(t, &sb.build().0, &mut scratch).unwrap();
                        batch.extend(scratch.wakes.iter().filter_map(|w| match w {
                            Wake::Ready(t) => Some(*t),
                            Wake::Unblocked(_) => None,
                        }));
                        if batch.len() >= 32 || i + 1 == TASKS {
                            tx.send(std::mem::take(&mut batch)).unwrap();
                        }
                    }
                });
                black_box(eng.stats.snapshot().tasks_finished)
            });
        });
    }
    g.finish();
}

/// Spawn/dispatch throughput of the work-stealing scheduler on the
/// E-SCHED fine-grained independent workload (trivial bodies, one
/// object per in-flight task slot), swept across worker counts. The
/// interesting read-out is the *shape*: the sharded scheduler must not
/// lose throughput as workers are added the way a global-lock
/// scheduler convoys.
fn dispatch_throughput(c: &mut Criterion) {
    const TASKS: u64 = 2048;
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TASKS));
    for workers in [1usize, 2, 4, 8, 16] {
        g.bench_function(format!("independent tasks, {workers} workers"), |b| {
            let exec = ThreadedExecutor::new(workers);
            b.iter(|| {
                let rep = exec
                    .execute(RunConfig::new(), move |ctx| {
                        let xs: Vec<Shared<u64>> = (0..64).map(|_| ctx.create(0u64)).collect();
                        for i in 0..TASKS {
                            let x = xs[(i % 64) as usize];
                            ctx.withonly(
                                "t",
                                |s| {
                                    s.rd_wr(x);
                                },
                                move |c| {
                                    *c.wr(&x) += 1;
                                },
                            );
                        }
                        xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
                    })
                    .expect("clean run");
                assert_eq!(black_box(rep.result), TASKS);
            })
        });
    }
    g.finish();
}

/// The rayon-parity reference points: the same independent and
/// fork-join task shapes as the `dispatch` group, but run on a plain
/// scoped-threads pool with per-task dispatch and no Jade semantics
/// (see `jade_bench::baseline`). Read next to the `dispatch` group:
/// the ratio is the dynamic-concurrency-detection overhead.
fn baseline_pool_throughput(c: &mut Criterion) {
    const TASKS: u64 = 2048;
    let mut g = c.benchmark_group("baseline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TASKS));
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("independent tasks (scoped pool), {workers} workers"), |b| {
            b.iter(|| black_box(jade_bench::baseline::independent_rate(workers, TASKS, 64)))
        });
    }
    const FAN: usize = 8;
    const WAVES: u64 = TASKS / (FAN as u64 + 1);
    g.throughput(Throughput::Elements(WAVES * (FAN as u64 + 1)));
    for workers in [1usize, 4, 8] {
        g.bench_function(format!("fork-join fan=8 (scoped pool), {workers} workers"), |b| {
            b.iter(|| black_box(jade_bench::baseline::forkjoin_rate(workers, WAVES, FAN)))
        });
    }
    g.finish();
}

/// Jade fork-join waves (fan writers + a joining reader per wave) at
/// the shape the `baseline` group mirrors without semantics.
fn forkjoin_throughput(c: &mut Criterion) {
    const FAN: usize = 8;
    const WAVES: u64 = 227;
    let mut g = c.benchmark_group("forkjoin");
    g.sample_size(10);
    g.throughput(Throughput::Elements(WAVES * (FAN as u64 + 1)));
    for workers in [1usize, 4, 8] {
        g.bench_function(format!("fork-join fan=8, {workers} workers"), |b| {
            let exec = ThreadedExecutor::new(workers);
            b.iter(|| {
                let rep = exec
                    .execute(RunConfig::new(), move |ctx| {
                        let xs: Vec<Shared<u64>> = (0..FAN).map(|_| ctx.create(0u64)).collect();
                        for _ in 0..WAVES {
                            for &x in &xs {
                                ctx.withonly(
                                    "fork",
                                    |s| {
                                        s.rd_wr(x);
                                    },
                                    move |c| {
                                        *c.wr(&x) += 1;
                                    },
                                );
                            }
                            let ys = xs.clone();
                            ctx.withonly(
                                "join",
                                |s| {
                                    for &x in &xs {
                                        s.rd(x);
                                    }
                                },
                                move |c| {
                                    black_box(ys.iter().map(|x| *c.rd(x)).sum::<u64>());
                                },
                            );
                        }
                        xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
                    })
                    .expect("clean run");
                assert_eq!(black_box(rep.result), WAVES * FAN as u64);
            })
        });
    }
    g.finish();
}

fn transport_conversion(c: &mut Criterion) {
    let column: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    let bytes = 8 * column.len() as u64;
    let mut g = c.benchmark_group("transport");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("encode+decode column, native layout", |b| {
        b.iter(|| {
            let mut e = PortEncoder::new(DataLayout::x86_64());
            column.encode(&mut e);
            let buf = e.finish();
            let mut d = PortDecoder::new(&buf, DataLayout::x86_64());
            black_box(Vec::<f64>::decode(&mut d).expect("intact buffer"));
        })
    });
    g.bench_function("encode+decode column, byte-swapped wire", |b| {
        b.iter(|| {
            let mut e = PortEncoder::new(DataLayout::sparc());
            column.encode(&mut e);
            let buf = e.finish();
            let mut d = PortDecoder::new(&buf, DataLayout::sparc());
            black_box(Vec::<f64>::decode(&mut d).expect("intact buffer"));
        })
    });
    g.bench_function("message pack+unpack (typed, sparc wire)", |b| {
        b.iter(|| {
            let msg = Message::pack(MsgKind::ObjectMove, 0, 1, 7, DataLayout::sparc(), &column);
            black_box(msg.unpack::<Vec<f64>>());
        })
    });
    g.finish();
}

fn serial_elision_overhead(c: &mut Criterion) {
    // The cost of running a Jade program serially versus plain code:
    // the paper's hierarchical-model argument wants this small.
    let mut g = c.benchmark_group("elision");
    g.throughput(Throughput::Elements(512));
    g.bench_function("serial elision, 512 checked tasks", |b| {
        b.iter(|| {
            let (v, _) = jade_core::serial::run(|ctx| {
                let acc = ctx.create(0.0f64);
                for _ in 0..512 {
                    ctx.withonly(
                        "t",
                        |s| {
                            s.rd_wr(acc);
                        },
                        move |c| {
                            *c.wr(&acc) += 1.0;
                        },
                    );
                }
                *ctx.rd(&acc)
            });
            black_box(v)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    engine_task_lifecycle,
    sharded_engine_lifecycle,
    slot_recycle_churn,
    engine_two_thread_lifecycle,
    dispatch_throughput,
    forkjoin_throughput,
    baseline_pool_throughput,
    threaded_task_throughput,
    transport_conversion,
    serial_elision_overhead
);
criterion_main!(benches);
