//! What a simulated task costs the *host*, counted rather than timed:
//! the OS threads a run creates and the one-way thread switches it
//! makes (`SimReport::{host_threads, host_switches}`), and the ready
//! tasks a placement scan weighs (`placement_probes`). All repeat
//! exactly — the event loop is carried by whichever thread is running
//! and the choice of thread is deterministic — so they are compared
//! against bounds derived from the program's shape, not against a
//! clock.

use jade_core::prelude::*;
use jade_sim::{Platform, SimCtx, SimExecutor, SimReport};

/// Columns of the Cholesky below; column `i` updates `i+1`, `i+3`, `i+4`.
const N: usize = 500;

/// Column Cholesky with the declaration shape of
/// `jade_apps::cholesky::factor_jade` (one `Internal` task per column,
/// one `External` per below-diagonal entry): about `4 N` leaf tasks of
/// one `charge` and two or three accesses each.
fn cholesky<C: JadeCtx>(ctx: &mut C) -> f64 {
    let rows: Vec<Vec<usize>> =
        (0..N).map(|i| [i + 1, i + 3, i + 4].into_iter().filter(|&j| j < N).collect()).collect();
    let cols: Vec<Shared<Vec<f64>>> = (0..N)
        .map(|i| {
            let mut col = vec![8.0 + (i % 7) as f64];
            col.extend(rows[i].iter().map(|&j| 1.0 / (1 + i % 5 + j % 3) as f64));
            ctx.create(col)
        })
        .collect();
    for i in 0..N {
        let col_i = cols[i];
        ctx.withonly(
            "Internal",
            |s| {
                s.rd_wr(col_i);
            },
            move |c| {
                c.charge(4e4);
                let mut col = c.wr(&col_i);
                let d = col[0].sqrt();
                col.iter_mut().for_each(|v| *v /= d);
            },
        );
        for (k, &j) in rows[i].iter().enumerate() {
            let col_j = cols[j];
            ctx.withonly(
                "External",
                |s| {
                    s.rd_wr(col_j);
                    s.rd(col_i);
                },
                move |c| {
                    c.charge(6e4);
                    let l = c.rd(&col_i)[k + 1];
                    c.wr(&col_j)[0] -= l * l;
                },
            );
        }
    }
    cols.iter().map(|h| ctx.rd(h)[0]).sum()
}

/// Run `program` on `platform` under an event collector.
fn observed<R: Send + 'static>(
    platform: Platform,
    program: fn(&mut SimCtx) -> R,
) -> (R, SimReport, Vec<Event>) {
    let events = EventCollector::new();
    let rep = SimExecutor::new(platform)
        .execute(RunConfig::new().with_observer(events.observer()), program)
        .expect("clean run");
    let sim = rep.extra::<SimReport>().expect("sim runs report a SimReport").clone();
    (rep.result, sim, events.events())
}

#[test]
fn cholesky_needs_a_thread_per_live_context_and_three_switches_per_task() {
    let (serial, _) = jade_core::serial::run(cholesky);
    let (got, sim, events) = observed(Platform::ipsc860(8), cholesky);
    assert_eq!(got, serial);
    let tasks = sim.stats.tasks_created;
    assert!(tasks >= 1_900, "the workload should be about 2 000 tasks, is {tasks}");

    // Started and unfinished contexts over the run; the main program
    // is one from the start.
    let (mut live, mut peak) = (1i64, 1i64);
    for ev in &events {
        match ev.kind {
            EventKind::TaskStarted { .. } => live += 1,
            EventKind::TaskFinished { .. } => live -= 1,
            _ => continue,
        }
        peak = peak.max(live);
    }
    assert!(
        sim.host_threads <= peak as u64 + 1,
        "{} threads for at most {peak} live contexts",
        sim.host_threads
    );
    assert!(sim.host_threads <= 12, "no thread per task: {}", sim.host_threads);
    // Into the body at its start, into it again when its `charge` has
    // elapsed, and back into the main program: three per task.
    assert!(
        sim.host_switches <= 3 * tasks + N as u64,
        "{} switches for {tasks} tasks",
        sim.host_switches
    );

    let (_, again, _) = observed(Platform::ipsc860(8), cholesky);
    assert_eq!(
        (again.host_threads, again.host_switches),
        (sim.host_threads, sim.host_switches),
        "the choice of thread is deterministic"
    );
}

/// Independent tasks, one object each: the main program creates them
/// faster than eight machines run them, so hundreds wait in the ready
/// pool behind full machines.
fn independent(ctx: &mut SimCtx) -> f64 {
    let xs: Vec<Shared<f64>> = (0..400).map(|i| ctx.create(i as f64)).collect();
    for &x in &xs {
        ctx.withonly(
            "leaf",
            |s| {
                s.rd_wr(x);
            },
            move |c| {
                c.charge(1e5);
                *c.wr(&x) += 1.0;
            },
        );
    }
    xs.iter().map(|x| *ctx.rd(x)).sum()
}

#[test]
fn placement_scans_probe_only_what_they_place() {
    // Every machine is eligible for every task and none fails, so a
    // ready task whose candidates are computed — some machine has room
    // — is placed: the scans' work is the dispatch count, however long
    // the ready pool grows behind full machines.
    for (program, min_backlog) in [(cholesky as fn(&mut SimCtx) -> f64, 0), (independent, 100)] {
        let (_, sim, events) = observed(Platform::ipsc860(8), program);
        let (mut waiting, mut backlog, mut dispatched) = (0, 0, 0);
        for ev in &events {
            match ev.kind {
                EventKind::TaskEnabled => waiting += 1,
                EventKind::TaskDispatched { .. } => {
                    waiting -= 1;
                    dispatched += 1;
                }
                _ => continue,
            }
            backlog = backlog.max(waiting);
        }
        assert!(backlog >= min_backlog, "{backlog} ready tasks at most");
        assert_eq!(dispatched, sim.stats.tasks_created, "every task is dispatched once");
        assert_eq!(sim.placement_probes, dispatched);
    }
}

/// One leaf task on one machine; `ACCESSES` decides whether its body
/// touches its three objects after the `charge` or returns at once.
fn one_leaf<const ACCESSES: bool>(ctx: &mut SimCtx) -> f64 {
    let (a, b, out) = (ctx.create(2.0f64), ctx.create(3.0f64), ctx.create(0.0f64));
    ctx.withonly(
        "leaf",
        |s| {
            s.rd(a);
            s.rd(b);
            s.rd_wr(out);
        },
        move |c| {
            c.charge(1e5);
            if ACCESSES {
                let v = *c.rd(&a) * *c.rd(&b);
                *c.wr(&out) = v;
            }
        },
    );
    *ctx.rd(&out)
}

#[test]
fn granted_resident_accesses_switch_no_thread() {
    // Everything is resident on the one machine and the declarations
    // are immediate, so each access is answered at the current virtual
    // time — on the body's own thread.
    let (v, with, _) = observed(Platform::mica(1), one_leaf::<true>);
    let (_, without, _) = observed(Platform::mica(1), one_leaf::<false>);
    assert_eq!(v, 6.0);
    assert_eq!(with.time, without.time, "accesses cost no virtual time either");
    assert_eq!(
        with.host_switches, without.host_switches,
        "no switch between the charge resuming and Done"
    );
    // Into the leaf's body when it begins, and the main program's final
    // read stepped (there and back) from inside the leaf's completion.
    assert_eq!((with.host_threads, with.host_switches), (2, 3));
}
