//! Job-server soak: many concurrent submitter threads hammering one
//! session on the shared-memory executor. Checks the three serving
//! invariants end to end: every job's `Report` matches the serial
//! one-shot oracle bit for bit (result and dynamic task graph), the
//! admission queue pushes back with `Saturated` instead of growing
//! without bound, and a drain after the storm settles every counter.
//!
//! Scaled by `JADE_SOAK_CLIENTS` / `JADE_SOAK_JOBS` (defaults: 8
//! clients x 4 jobs — the CI shape).

#![deny(deprecated)]

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use jade_apps::pmake;
use jade_core::runtime::{RunConfig, Runtime};
use jade_core::serial::SerialRuntime;
use jade_core::serve::{ServeConfig, SubmitError};
use jade_threads::ThreadedExecutor;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// N client threads, each submitting J traced pmake builds and
/// retrying on saturation. Every report must equal the serial oracle.
#[test]
fn concurrent_clients_get_oracle_identical_reports() {
    let clients = env_or("JADE_SOAK_CLIENTS", 8);
    let jobs_per_client = env_or("JADE_SOAK_JOBS", 4);

    let mk = Arc::new(pmake::Makefile::random_dag(16, 3));
    let oracle = {
        let mk = mk.clone();
        SerialRuntime
            .execute(RunConfig::new().with_trace(), move |ctx| pmake::make_jade(ctx, &mk))
            .expect("oracle run")
    };
    let oracle_graph = oracle.trace.as_ref().unwrap().to_text();

    let exec = ThreadedExecutor::new(4);
    // A deliberately tight queue so the storm actually saturates and
    // the retry loop below gets exercised.
    let session = Arc::new(exec.open_session(ServeConfig::new().with_slots(3).with_queue_cap(4)));

    let submitters: Vec<_> = (0..clients)
        .map(|c| {
            let session = session.clone();
            let mk = mk.clone();
            let oracle_result = oracle.result.clone();
            let oracle_graph = oracle_graph.clone();
            std::thread::Builder::new()
                .name(format!("soak-client-{c}"))
                .spawn(move || {
                    let mut saturated_hits = 0u64;
                    for j in 0..jobs_per_client {
                        let handle = loop {
                            let mk = mk.clone();
                            match session.submit(RunConfig::new().with_trace(), move |ctx| {
                                pmake::make_jade(ctx, &mk)
                            }) {
                                Ok(h) => break h,
                                Err(SubmitError::Saturated { .. }) => {
                                    saturated_hits += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                Err(other) => panic!("client {c} job {j}: {other}"),
                            }
                        };
                        let rep = handle
                            .wait()
                            .unwrap_or_else(|f| panic!("client {c} job {j} faulted: {f}"));
                        assert_eq!(
                            rep.result, oracle_result,
                            "client {c} job {j}: result differs from serial oracle"
                        );
                        assert_eq!(
                            rep.trace.as_ref().unwrap().to_text(),
                            oracle_graph,
                            "client {c} job {j}: task graph differs from serial oracle"
                        );
                        // Slab recycling must hold under serving too:
                        // the slot high-water mark tracks the live-set,
                        // not the accumulated job count.
                        assert!(
                            rep.stats.peak_task_slots <= 64,
                            "client {c} job {j}: peak_task_slots {} is unbounded",
                            rep.stats.peak_task_slots
                        );
                    }
                    saturated_hits
                })
                .expect("spawn submitter")
        })
        .collect();

    for s in submitters {
        s.join().expect("submitter thread clean");
    }

    let total = (clients * jobs_per_client) as u64;
    let session = Arc::into_inner(session).expect("submitters dropped their handles");
    let summary = session.drain();
    assert!(summary.stats.is_settled(), "drain left jobs unaccounted: {}", summary.stats);
    assert_eq!(summary.stats.submitted, total);
    assert_eq!(summary.stats.completed, total);
    assert_eq!(summary.stats.faulted, 0);
    assert_eq!(summary.stats.cancelled, 0);
    assert!(
        summary.stats.peak_queued <= 4,
        "admission queue exceeded its cap: {}",
        summary.stats.peak_queued
    );
}

/// Forced saturation: one slot held hostage by a gated job and a
/// 2-deep queue. The overflow submissions must be refused with
/// `Saturated` (typed backpressure, not queue growth), and releasing
/// the gate drains everything cleanly.
#[test]
fn forced_saturation_pushes_back_and_drains_clean() {
    let exec = ThreadedExecutor::new(2);
    let session = exec.open_session(ServeConfig::new().with_slots(1).with_queue_cap(2));

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate = session
        .submit(RunConfig::new(), move |_ctx| {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("gate admitted");
    started_rx.recv().unwrap();

    let q1 = session.submit(RunConfig::new(), |_ctx| 1u32).expect("first queued");
    let q2 = session.submit(RunConfig::new(), |_ctx| 2u32).expect("second queued");
    let mut refusals = 0;
    for _ in 0..5 {
        match session.submit(RunConfig::new(), |_ctx| 0u32) {
            Err(SubmitError::Saturated { queued, cap }) => {
                assert_eq!((queued, cap), (2, 2));
                refusals += 1;
            }
            Ok(_) => panic!("admission past the cap"),
            Err(other) => panic!("expected Saturated, got {other}"),
        }
    }
    assert_eq!(refusals, 5);
    assert_eq!(session.queued(), 2);

    gate_tx.send(()).unwrap();
    gate.wait().expect("gate completes");
    assert_eq!(q1.wait().expect("q1 runs").result, 1);
    assert_eq!(q2.wait().expect("q2 runs").result, 2);

    let summary = session.drain();
    assert!(summary.stats.is_settled());
    assert_eq!(summary.stats.submitted, 3);
    assert_eq!(summary.stats.completed, 3);
    assert_eq!(summary.stats.rejected_saturated, 5);
    assert_eq!(summary.stats.peak_queued, 2);
}
