//! Job-server behavior that needs real backends and real threads:
//! dispatch in admission order on one slot, cancellation of a running
//! job through the shared-memory executor's fault-shutdown machinery,
//! submit-time config validation, and the identical serve surface
//! re-exported by every backend crate.

#![deny(deprecated)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jade_core::ctx::JadeCtx;
use jade_core::error::{JadeError, JadeFault};
use jade_core::handle::Shared;
use jade_core::observe::{Event, EventCollector, EventKind};
use jade_core::runtime::{CancelSignal, RunConfig, Runtime};
use jade_core::serial::SerialRuntime;
use jade_core::serve::{JobStatus, ServeConfig, SubmitError};
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

/// One slot and a backlog of six jobs queued behind a gate job: the
/// slot takes them in admission order. The gate holds the slot until
/// the whole backlog is queued, so the first dispatch decision sees all
/// six — which makes the schedule, and therefore this test,
/// deterministic.
#[test]
fn one_slot_dispatches_in_admission_order() {
    let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1).with_queue_cap(16));

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();

    // Occupy the only slot until the whole backlog is in the queue.
    let gate = session
        .submit(RunConfig::new(), move |_ctx| {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("gate admitted");
    started_rx.recv().unwrap();

    let handles: Vec<_> = ["a1", "a2", "a3", "b1", "b2", "b3"]
        .into_iter()
        .map(|label| {
            let order = order.clone();
            session
                .submit(RunConfig::new(), move |_ctx| order.lock().unwrap().push(label))
                .expect("backlog job admitted")
        })
        .collect();
    assert_eq!(session.queued(), 6);

    gate_tx.send(()).unwrap();
    gate.wait().expect("gate job completes");
    for h in handles {
        h.wait().expect("backlog job completes");
    }
    let summary = session.drain();
    assert!(summary.stats.is_settled());
    assert_eq!(summary.stats.submitted, 7);
    assert_eq!(summary.stats.completed, 7);

    let got = order.lock().unwrap().clone();
    assert_eq!(got, vec!["a1", "a2", "a3", "b1", "b2", "b3"]);
}

/// Cancelling a *running* job on the shared-memory executor: the
/// session trips the job's [`CancelSignal`], the hook poisons the
/// engine through the panic-safe fault-shutdown path, and the job's
/// handle — no one else's — sees [`JadeFault::Cancelled`]. The job
/// holds at a channel until the cancel has been delivered, so the test
/// never races the signal against a fast completion.
#[test]
fn cancel_interrupts_a_running_threaded_job() {
    let exec = ThreadedExecutor::new(2);
    let session = exec.open_session(ServeConfig::new().with_slots(2));

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let victim = session
        .submit(RunConfig::new(), move |ctx| {
            started_tx.send(()).unwrap();
            resume_rx.recv().unwrap();
            // The signal has fired by now: the engine is poisoned and
            // the next construct unwinds this root promptly instead of
            // grinding through the remaining task creations.
            for i in 0..100_000u64 {
                let x = ctx.create(i);
                ctx.withonly(
                    "spin",
                    |s| {
                        s.rd_wr(x);
                    },
                    move |c| {
                        *c.wr(&x) += 1;
                    },
                );
            }
        })
        .expect("victim admitted");
    started_rx.recv().unwrap();

    let bystander = session
        .submit(RunConfig::new(), |ctx| {
            let x = ctx.create(1u64);
            ctx.withonly(
                "ok",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    *c.wr(&x) += 41;
                },
            );
            *ctx.rd(&x)
        })
        .expect("bystander admitted");

    victim.cancel();
    resume_tx.send(()).unwrap();
    match victim.wait() {
        Err(JadeFault::Cancelled { .. }) => {}
        other => panic!("expected Cancelled fault, got {other:?}"),
    }

    // Per-job isolation: the neighbor on the same session is untouched.
    assert_eq!(bystander.wait().expect("bystander unaffected").result, 42);
    let summary = session.drain();
    assert_eq!(summary.stats.cancelled, 1);
    assert_eq!(summary.stats.completed, 1);
}

/// Job *k+2* of the isolation test below: rounds of read-modify-write
/// tasks whose result depends on serial order.
fn rounds<C: JadeCtx>(ctx: &mut C) -> u64 {
    let xs: Vec<Shared<u64>> = (0..8).map(|i| ctx.create(i)).collect();
    for round in 0..4u64 {
        for &x in &xs {
            ctx.withonly(
                "k2-step",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    let v = *c.rd(&x);
                    *c.wr(&x) = v * 3 + round;
                },
            );
        }
    }
    xs.iter().map(|x| *ctx.rd(x)).sum()
}

/// Per-job isolation on the executor's shared threads: one slot runs
/// three jobs in turn over one `ThreadedExecutor`, so each borrows the
/// threads the one before it returned. Job *k* faults while its
/// siblings and its root are blocked, so compensation workers run it;
/// job *k+1* is cancelled mid-run; job *k+2* still returns the serial
/// result, with exact counts and no event from the jobs before it.
#[test]
fn a_faulted_and_a_cancelled_job_leave_the_next_one_on_the_same_threads_untouched() {
    let exec = ThreadedExecutor::new(2);
    let session = exec.open_session(ServeConfig::new().with_slots(1));

    // Job k: six siblings start on a deferred read of `x` and block
    // converting it; the writer panics once all six have started.
    let started = Arc::new(AtomicUsize::new(0));
    let seen = started.clone();
    let faulted = session
        .submit(RunConfig::new(), move |ctx| {
            let x = ctx.create(0u64);
            ctx.withonly(
                "k-writer",
                |s| {
                    s.rd_wr(x);
                },
                move |_| {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while seen.load(Ordering::SeqCst) < 6 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    panic!("job k's writer died");
                },
            );
            for _ in 0..6 {
                let (own, started) = (ctx.create(0u64), started.clone());
                ctx.withonly(
                    "k-sibling",
                    |s| {
                        s.rd_wr(own);
                        s.df_rd(x);
                    },
                    move |c| {
                        started.fetch_add(1, Ordering::SeqCst);
                        c.with_cont(|b| {
                            b.to_rd(x);
                        });
                        *c.wr(&own) += *c.rd(&x);
                    },
                );
            }
            let _ = *ctx.rd(&x);
        })
        .expect("job k admitted");

    // Job k+1: the root waits on a task that holds the run open until
    // the cancel has been delivered.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let cancelled = session
        .submit(RunConfig::new(), move |ctx| {
            let x = ctx.create(0u64);
            ctx.withonly(
                "k1-holder",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    started_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                    *c.wr(&x) += 1;
                },
            );
            *ctx.rd(&x)
        })
        .expect("job k+1 admitted");

    match faulted.wait() {
        Err(JadeFault::TaskPanicked { message, .. }) => assert_eq!(message, "job k's writer died"),
        other => panic!("job k: expected TaskPanicked, got {other:?}"),
    }
    started_rx.recv().unwrap();
    cancelled.cancel();
    resume_tx.send(()).unwrap();
    match cancelled.wait() {
        Err(JadeFault::Cancelled { .. }) => {}
        other => panic!("job k+1: expected Cancelled, got {other:?}"),
    }

    // Job k+2, observed: only its own 32 tasks, each exactly once.
    let serial = SerialRuntime.execute(RunConfig::new(), rounds).expect("serial oracle");
    let events = EventCollector::new();
    let clean = session
        .submit(RunConfig::new().with_observer(events.observer()), rounds)
        .expect("job k+2 admitted");
    let rep = clean.wait().expect("job k+2 runs clean");
    assert_eq!(rep.result, serial.result);
    assert_eq!((rep.stats.tasks_created, rep.stats.tasks_finished), (32, 32));
    let events = events.events();
    let tasks: Vec<&Event> = events.iter().filter(|e| !e.task.is_root()).collect();
    for e in &tasks {
        if let EventKind::TaskCreated { label, .. } = &e.kind {
            assert_eq!(label, "k2-step", "an earlier job's task reached job k+2's stream");
        }
    }
    let count = |kind: fn(&EventKind) -> bool| tasks.iter().filter(|e| kind(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::TaskCreated { .. })), 32);
    assert_eq!(count(|k| matches!(k, EventKind::TaskStarted { .. })), 32);
    assert_eq!(count(|k| matches!(k, EventKind::TaskFinished { .. })), 32);

    let summary = session.drain();
    assert!(summary.stats.is_settled());
    assert_eq!(
        (summary.stats.faulted, summary.stats.cancelled, summary.stats.completed),
        (1, 1, 1)
    );
}

/// A pre-tripped signal makes the cancellation paths of the serial
/// elision and the simulator deterministic to test: the job starts,
/// the backend notices the flag at its first poll point, and the
/// handle reports a cancelled run — no timing involved.
#[test]
fn pre_cancelled_signal_stops_serial_and_sim_jobs() {
    let signal = CancelSignal::new();
    signal.cancel();

    let session = SerialRuntime.open_session(ServeConfig::new().with_slots(1));
    let h = session
        .submit(RunConfig::new().with_cancel(signal.clone()), |ctx| {
            let x = ctx.create(0u64);
            ctx.withonly(
                "never",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    *c.wr(&x) = 1;
                },
            );
        })
        .expect("admitted");
    match h.wait() {
        Err(JadeFault::Cancelled { .. }) => {}
        other => panic!("serial: expected Cancelled, got {other:?}"),
    }
    session.drain();

    let sim = SimExecutor::new(Platform::dash(2));
    let session = sim.open_session(ServeConfig::new().with_slots(1));
    let h = session
        .submit(RunConfig::new().with_cancel(signal), |ctx| {
            let x = ctx.create(0u64);
            ctx.withonly(
                "never",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    c.charge(1e6);
                    *c.wr(&x) = 1;
                },
            );
        })
        .expect("admitted");
    match h.wait() {
        Err(JadeFault::Cancelled { .. }) => {}
        other => panic!("sim: expected Cancelled, got {other:?}"),
    }
    session.drain();
}

/// `with_workers(0)` is rejected *at the submission boundary* with a
/// typed error, on both doors: `submit` refuses admission with
/// [`SubmitError::Invalid`], `execute` faults with the same
/// [`JadeError::InvalidConfig`] wrapped as a root spec violation.
/// Nothing runs, and the session keeps serving afterwards.
#[test]
fn zero_workers_is_rejected_at_both_entry_points() {
    let exec = ThreadedExecutor::new(2);

    match exec.execute(RunConfig::new().with_workers(0), |_ctx| ()) {
        Err(JadeFault::SpecViolation {
            error: JadeError::InvalidConfig { field: "workers", .. },
            ..
        }) => {}
        other => panic!("execute: expected InvalidConfig fault, got {other:?}"),
    }

    let session = exec.open_session(ServeConfig::new().with_slots(1));
    match session.submit(RunConfig::new().with_workers(0), |_ctx| ()) {
        Err(SubmitError::Invalid(JadeError::InvalidConfig { field: "workers", .. })) => {}
        other => panic!("submit: expected Invalid rejection, got {other:?}"),
    }

    // The rejection was an admission decision: the session is intact.
    let ok = session.submit(RunConfig::new(), |_ctx| 7u32).expect("valid job still admitted");
    assert_eq!(ok.wait().expect("runs fine").result, 7);
    let summary = session.drain();
    assert_eq!(summary.stats.rejected_invalid, 1);
    assert_eq!(summary.stats.completed, 1);
}

/// Queued-job cancellation reports `Cancelled` without the job ever
/// running, even through a backend-crate re-export path.
#[test]
fn queued_job_cancels_cleanly_through_backend_reexports() {
    let session = SerialRuntime
        .open_session(jade_threads::ServeConfig::new().with_slots(1).with_queue_cap(8));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate = session
        .submit(RunConfig::new(), move |_ctx| {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("gate admitted");
    started_rx.recv().unwrap();

    let queued = session.submit(RunConfig::new(), |_ctx| 1u8).expect("queued");
    assert_eq!(queued.status(), JobStatus::Queued);
    queued.cancel();
    gate_tx.send(()).unwrap();
    gate.wait().expect("gate completes");
    match queued.wait() {
        Err(JadeFault::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let summary = session.drain();
    assert_eq!(summary.stats.cancelled, 1);
}

/// Every backend crate re-exports the one `jade_core::serve` surface:
/// these assignments only type-check if the paths all name the same
/// definitions.
#[test]
fn serve_surface_is_reexported_identically() {
    let cfg: jade_threads::ServeConfig = jade_sim::ServeConfig::new();
    let cfg: jade_net::ServeConfig = cfg;
    let _: jade_core::serve::ServeConfig = cfg;

    let err: jade_threads::SubmitError = jade_net::SubmitError::Draining;
    let _: jade_sim::SubmitError = err;

    let id: jade_sim::JobId = jade_threads::JobId(3);
    let _: jade_net::JobId = id;

    let stats: jade_threads::ServeStats = jade_sim::ServeStats::default();
    let _: jade_net::ServeStats = stats;
}
