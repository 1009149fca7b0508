//! Backend conformance: the serial elision, the shared-memory
//! executor, the message-passing simulation, and the multi-process
//! network backend all implement the one [`Runtime`] trait, and for a
//! deterministic Jade program they must produce the identical result
//! *and* the identical dynamic task graph — the serial semantics
//! (paper §3) pins both down regardless of how the implementation
//! exploits the exposed concurrency (or of which machine granted the
//! dispatch lease).

#![deny(deprecated)]

use std::collections::HashMap;

use jade_apps::{cholesky, lws, pmake};
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_core::serve::ServeConfig;
use jade_net::NetExecutor;
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

/// The net backend with the application kernel registry linked in —
/// the same registry the `jade-net-worker` binary links — so the
/// applications' task-body IRs resolve and ship to workers instead of
/// falling back to the closure/lease path.
fn net_rt(workers: usize) -> NetExecutor {
    NetExecutor::with_workers(workers).with_registry(jade_apps::kernels::registry())
}

/// Run `program` on one backend with tracing and return the result
/// plus the task graph rendered to canonical text.
fn graph_of<RT, R, F>(rt: &RT, program: F) -> (R, String)
where
    RT: Runtime,
    R: Send + 'static,
    F: FnOnce(&mut RT::Ctx) -> R + Send + 'static,
{
    let rep: Report<R> = rt
        .execute(RunConfig::new().with_trace(), program)
        .unwrap_or_else(|fault| panic!("{fault}"));
    let graph = rep.trace.as_ref().expect("tracing was requested").to_text();
    (rep.result, graph)
}

fn assert_conform<R: PartialEq + std::fmt::Debug>(
    name: &str,
    serial: (R, String),
    threads: (R, String),
    sim: (R, String),
    net: (R, String),
) {
    assert_eq!(serial.0, threads.0, "{name}: threads result differs from serial");
    assert_eq!(serial.0, sim.0, "{name}: sim result differs from serial");
    assert_eq!(serial.0, net.0, "{name}: net result differs from serial");
    assert_eq!(serial.1, threads.1, "{name}: threads task graph differs from serial");
    assert_eq!(serial.1, sim.1, "{name}: sim task graph differs from serial");
    assert_eq!(serial.1, net.1, "{name}: net task graph differs from serial");
}

/// The one-shot entry point and the job-server path must be two doors
/// into the same room: for a given backend and program, a `Report`
/// obtained from `execute` and one obtained from
/// `open_session().submit().wait()` must agree on everything the
/// serial semantics pins down — the result, the dynamic task graph,
/// and the schedule-independent counters. `full_stats` additionally
/// requires the complete counter set to match, which only holds on
/// backends whose scheduling is deterministic (serial, sim).
fn session_matches_execute<RT, R, F, M>(name: &str, rt: RT, full_stats: bool, make: M)
where
    RT: Runtime + Clone + Send + Sync + 'static,
    R: PartialEq + std::fmt::Debug + Send + 'static,
    F: FnOnce(&mut RT::Ctx) -> R + Send + 'static,
    M: Fn() -> F,
{
    let one: Report<R> = rt
        .execute(RunConfig::new().with_trace(), make())
        .unwrap_or_else(|fault| panic!("{name}: execute faulted: {fault}"));

    let session = rt.open_session(ServeConfig::new().with_slots(2));
    let handle = session
        .submit(RunConfig::new().with_trace(), make())
        .unwrap_or_else(|err| panic!("{name}: submit rejected: {err}"));
    let two: Report<R> =
        handle.wait().unwrap_or_else(|fault| panic!("{name}: session job faulted: {fault}"));
    let summary = session.drain();
    assert!(summary.stats.is_settled(), "{name}: drain left jobs unaccounted");

    assert_eq!(one.result, two.result, "{name}: session result differs from execute");
    assert_eq!(
        one.trace.as_ref().unwrap().to_text(),
        two.trace.as_ref().unwrap().to_text(),
        "{name}: session task graph differs from execute"
    );
    if full_stats {
        assert_eq!(one.stats, two.stats, "{name}: session stats differ from execute");
    } else {
        // Schedule-dependent counters (access checks retried after
        // waits, peaks) may differ run to run on a preemptive backend;
        // the structural ones may not.
        for (label, a, b) in [
            ("tasks_created", one.stats.tasks_created, two.stats.tasks_created),
            ("declarations", one.stats.declarations, two.stats.declarations),
            ("conflicts", one.stats.conflicts, two.stats.conflicts),
            ("objects_created", one.stats.objects_created, two.stats.objects_created),
        ] {
            assert_eq!(a, b, "{name}: session {label} differs from execute");
        }
    }
}

#[test]
fn session_submit_matches_execute_on_every_backend() {
    let mk = pmake::Makefile::random_dag(16, 3);
    {
        let mk = mk.clone();
        session_matches_execute("serial", SerialRuntime, true, move || {
            let mk = mk.clone();
            move |ctx: &mut jade_core::serial::SerialCtx| pmake::make_jade(ctx, &mk)
        });
    }
    {
        let mk = mk.clone();
        session_matches_execute("sim", SimExecutor::new(Platform::dash(4)), true, move || {
            let mk = mk.clone();
            move |ctx: &mut jade_sim::SimCtx| pmake::make_jade(ctx, &mk)
        });
    }
    {
        let mk = mk.clone();
        session_matches_execute("threads", ThreadedExecutor::new(4), false, move || {
            let mk = mk.clone();
            move |ctx: &mut jade_threads::ThreadCtx| pmake::make_jade(ctx, &mk)
        });
    }
    {
        let mk = mk.clone();
        session_matches_execute("net", net_rt(2), false, move || {
            let mk = mk.clone();
            move |ctx: &mut jade_threads::ThreadCtx| pmake::make_jade(ctx, &mk)
        });
    }
}

#[test]
fn cholesky_conforms_across_backends() {
    let a = cholesky::SparseSym::random_spd(32, 4, 11);
    let serial = {
        let a = a.clone();
        graph_of(&SerialRuntime, move |ctx| cholesky::factor_program(ctx, &a))
    };
    let threads = {
        let a = a.clone();
        graph_of(&ThreadedExecutor::new(4), move |ctx| cholesky::factor_program(ctx, &a))
    };
    let sim = {
        let a = a.clone();
        graph_of(&SimExecutor::new(Platform::dash(4)), move |ctx| cholesky::factor_program(ctx, &a))
    };
    let net = graph_of(&net_rt(2), move |ctx| cholesky::factor_program(ctx, &a));
    assert_conform("cholesky", serial, threads, sim, net);
}

#[test]
fn lws_conforms_across_backends() {
    let sys = lws::WaterSystem::new(24, 5);
    let serial = {
        let sys = sys.clone();
        graph_of(&SerialRuntime, move |ctx| lws::run_jade(ctx, &sys, 6, 2, 0.002))
    };
    let threads = {
        let sys = sys.clone();
        graph_of(&ThreadedExecutor::new(4), move |ctx| lws::run_jade(ctx, &sys, 6, 2, 0.002))
    };
    let sim = {
        let sys = sys.clone();
        graph_of(&SimExecutor::new(Platform::dash(4)), move |ctx| {
            lws::run_jade(ctx, &sys, 6, 2, 0.002)
        })
    };
    let net = graph_of(&net_rt(2), move |ctx| lws::run_jade(ctx, &sys, 6, 2, 0.002));
    assert_conform("lws", serial, threads, sim, net);
}

#[test]
fn pmake_conforms_across_backends() {
    let mk = pmake::Makefile::random_dag(16, 3);
    let serial = {
        let mk = mk.clone();
        graph_of(&SerialRuntime, move |ctx| pmake::make_jade(ctx, &mk))
    };
    let threads = {
        let mk = mk.clone();
        graph_of(&ThreadedExecutor::new(4), move |ctx| pmake::make_jade(ctx, &mk))
    };
    let sim = {
        let mk = mk.clone();
        graph_of(&SimExecutor::new(Platform::dash(4)), move |ctx| pmake::make_jade(ctx, &mk))
    };
    let net = graph_of(&net_rt(2), move |ctx| pmake::make_jade(ctx, &mk));
    assert_conform("pmake", serial, threads, sim, net);
}

/// With the application registry linked, every task body of every
/// paper workload lowers to IR and executes on a *worker* — zero
/// bodies run coordinator-locally (no lease fallback, no degradation)
/// and the replica directory sees every object input.
#[test]
fn apps_task_bodies_ship_whole_to_workers() {
    fn assert_all_shipped<R: Send + 'static>(
        name: &str,
        program: impl FnOnce(&mut jade_threads::ThreadCtx) -> R + Send + 'static,
    ) {
        let rep = net_rt(2)
            .execute(RunConfig::new(), program)
            .unwrap_or_else(|fault| panic!("{name}: {fault}"));
        let net = rep.net.expect("net backend reports NetStats");
        let faults = rep.faults.expect("net backend reports FaultStats");
        assert_eq!(
            net.tasks_shipped, rep.stats.tasks_created,
            "{name}: every task body must ship as IR, none may fall back"
        );
        assert!(faults.is_clean(), "{name}: clean run expected, got {faults}");
        assert!(
            net.replica_hits + net.replica_misses > 0,
            "{name}: shipped tasks must consult the replica directory"
        );
    }

    let a = cholesky::SparseSym::random_spd(24, 3, 7);
    assert_all_shipped("cholesky", move |ctx| cholesky::factor_program(ctx, &a));
    let sys = lws::WaterSystem::new(18, 2);
    assert_all_shipped("lws", move |ctx| lws::run_jade(ctx, &sys, 4, 2, 0.002));
    let mk = pmake::Makefile::project(4, 1e5, 2e5);
    assert_all_shipped("pmake", move |ctx| pmake::make_jade(ctx, &mk));
}

/// The one well-formedness oracle for an observed run, whatever the
/// backend. Every non-root task is created → enabled → dispatched →
/// started → finished, each exactly once, in that order in the stream
/// and with `nanos` non-decreasing along the way; the stream accounts
/// for every task the engine created; and every task's waits (access
/// waits, `with-cont` blocks, throttle suspensions) are properly
/// nested: closed before the next opens and before the task finishes.
/// `time_sorted` additionally requires the whole stream in `nanos`
/// order (the simulator stamps message deliveries ahead of time).
fn assert_wellformed(name: &str, events: &[Event], tasks_created: u64, time_sorted: bool) {
    const STAGES: [&str; 5] = ["created", "enabled", "dispatched", "started", "finished"];
    // Per task, the stream positions at which each stage was reported.
    let mut stages: HashMap<TaskId, [Vec<usize>; 5]> = HashMap::new();
    let mut open_wait: HashMap<TaskId, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let stage = match ev.kind {
            EventKind::TaskCreated { .. } => 0,
            EventKind::TaskEnabled => 1,
            EventKind::TaskDispatched { .. } => 2,
            EventKind::TaskStarted { .. } => 3,
            EventKind::TaskFinished { .. } => 4,
            EventKind::AccessWaitBegin { .. }
            | EventKind::ContBlock
            | EventKind::CreatorSuspended => {
                let nested = open_wait.insert(ev.task, i);
                assert!(nested.is_none(), "{name}: {} opens a wait inside a wait", ev.task);
                continue;
            }
            EventKind::AccessWaitEnd { .. }
            | EventKind::ContUnblock
            | EventKind::CreatorResumed => {
                let begun = open_wait.remove(&ev.task);
                let begun = begun.unwrap_or_else(|| panic!("{name}: {} ends no wait", ev.task));
                assert!(events[begun].nanos <= ev.nanos, "{name}: {} wait ends early", ev.task);
                continue;
            }
            _ => continue,
        };
        if stage == 4 {
            assert!(!open_wait.contains_key(&ev.task), "{name}: {} finishes waiting", ev.task);
        }
        if !ev.task.is_root() {
            stages.entry(ev.task).or_default()[stage].push(i);
        }
    }
    assert!(open_wait.is_empty(), "{name}: waits left open: {open_wait:?}");
    assert_eq!(stages.len() as u64, tasks_created, "{name}: tasks in the stream");
    for (task, seen) in &stages {
        for (stage, at) in STAGES.iter().zip(seen) {
            assert_eq!(at.len(), 1, "{name}: {task} was {stage} {} times", at.len());
        }
        for pair in seen.windows(2) {
            let (a, b) = (pair[0][0], pair[1][0]);
            assert!(a < b, "{name}: {task} lifecycle out of order");
            assert!(events[a].nanos <= events[b].nanos, "{name}: {task} time went backwards");
        }
    }
    if time_sorted {
        assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos), "{name}: stream unsorted");
    }
}

/// Hierarchy and `with-cont` together: stage tasks spawn children
/// that write their cells (the parent cedes and regains access), a
/// commuting accumulator is updated by every stage, and a pipelined
/// consumer converts deferred reads one cell at a time.
fn hierarchy_with_cont<C: JadeCtx>(ctx: &mut C) -> (f64, f64) {
    let cells: Vec<Vec<Shared<f64>>> =
        (0..4).map(|s| (0..3).map(|k| ctx.create((s * 3 + k) as f64)).collect()).collect();
    let total = ctx.create(0.0f64);
    let out = ctx.create(0.0f64);
    for (s, stage) in cells.iter().enumerate() {
        let (spec, body) = (stage.clone(), stage.clone());
        ctx.withonly(
            &format!("stage{s}"),
            |b| {
                for &c in &spec {
                    b.rd_wr(c);
                }
                b.cm(total);
            },
            move |c| {
                for (k, &cell) in body.iter().enumerate() {
                    c.withonly(
                        &format!("leaf{s}.{k}"),
                        |b| {
                            b.rd_wr(cell);
                        },
                        move |cc| {
                            cc.charge(1e5);
                            *cc.wr(&cell) += 0.5;
                        },
                    );
                }
                let sum: f64 = body.iter().map(|cell| *c.rd(cell)).sum();
                *c.cm(&total) += sum;
                c.with_cont(|b| {
                    b.no_cm(total);
                });
            },
        );
    }
    let flat: Vec<Shared<f64>> = cells.iter().flatten().copied().collect();
    let spec = flat.clone();
    ctx.withonly(
        "consume",
        |b| {
            b.rd_wr(out);
            for &c in &spec {
                b.df_rd(c);
            }
        },
        move |c| {
            let mut acc = 0.0;
            for &cell in &flat {
                c.with_cont(|b| {
                    b.to_rd(cell);
                });
                acc += *c.rd(&cell);
                c.with_cont(|b| {
                    b.no_rd(cell);
                });
            }
            *c.wr(&out) = acc;
        },
    );
    (*ctx.rd(&total), *ctx.rd(&out))
}

/// Every backend reports a run in the one event vocabulary, and the
/// one oracle accepts all four streams. The simulator's "exactly
/// once" is the check that no transition is reported twice.
#[test]
fn observed_runs_are_wellformed_on_every_backend() {
    fn check<RT: Runtime>(name: &str, rt: &RT, time_sorted: bool)
    where
        RT::Ctx: 'static,
    {
        let a = cholesky::SparseSym::random_spd(24, 3, 7);
        let events = EventCollector::new();
        let rep = rt
            .execute(RunConfig::new().with_observer(events.observer()), move |ctx| {
                cholesky::factor_program(ctx, &a)
            })
            .unwrap_or_else(|fault| panic!("{name}: {fault}"));
        assert_wellformed(
            &format!("{name}/cholesky"),
            &events.events(),
            rep.stats.tasks_created,
            time_sorted,
        );

        // Under a throttle, so creator suspensions are in the stream.
        let events = EventCollector::new();
        let cfg = RunConfig::new()
            .with_throttle(Throttle::SuspendCreator { hi: 4, lo: 2 })
            .with_observer(events.observer());
        let rep =
            rt.execute(cfg, hierarchy_with_cont).unwrap_or_else(|fault| panic!("{name}: {fault}"));
        assert_eq!(rep.result, (72.0, 72.0), "{name}: hierarchy result");
        assert_wellformed(
            &format!("{name}/hierarchy"),
            &events.events(),
            rep.stats.tasks_created,
            time_sorted,
        );
    }
    check("serial", &SerialRuntime, true);
    check("threads", &ThreadedExecutor::new(4), true);
    check("sim", &SimExecutor::new(Platform::dash(4)), false);
    check("net", &net_rt(2), true);
}
