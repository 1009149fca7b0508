//! Threads outlive runs: a `ThreadedExecutor` keeps the OS threads its
//! runs borrow, so back-to-back runs create none after the first, its
//! clones share them, and they exit once the last clone is dropped.
//!
//! One `#[test]` only: it reads the process's thread count from
//! `/proc/self/task`, and the harness would run a second test beside it.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::Duration;

use jade_core::prelude::*;
use jade_threads::ThreadedExecutor;

/// OS threads of this process.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("linux procfs").count()
}

/// An exiting thread leaves the kernel's count a moment after it
/// returns; wait for it (at most 1 s) rather than race it.
fn settles_to(want: usize) -> bool {
    (0..200).any(|_| {
        os_threads() == want || {
            std::thread::sleep(Duration::from_millis(5));
            false
        }
    })
}

/// One run on a one-lane executor in which the root blocks while that
/// lane is busy, so the run must borrow a compensation worker: `hold`
/// keeps the lane until `release` has run, and `release` is queued
/// only once `hold` has started, so no thread but a compensation
/// worker can run it.
fn blocking_run(exec: &ThreadedExecutor) {
    let rep = exec
        .execute(RunConfig::new(), |ctx| {
            let x = ctx.create(0u64);
            let (started_tx, started_rx) = mpsc::channel::<()>();
            let (go_tx, go_rx) = mpsc::channel::<()>();
            ctx.withonly(
                "hold",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    started_tx.send(()).expect("the root waits for hold");
                    go_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("release runs on a compensation worker");
                    *c.wr(&x) += 1;
                },
            );
            started_rx.recv().expect("hold starts");
            ctx.withonly(
                "release",
                |_s| {},
                move |_c| {
                    go_tx.send(()).expect("hold waits for release");
                },
            );
            *ctx.rd(&x)
        })
        .expect("clean run");
    assert_eq!(rep.result, 1);
}

#[test]
fn runs_borrow_the_executors_threads_until_its_last_clone_drops() {
    let baseline = os_threads();
    let exec = ThreadedExecutor::new(1);
    let clone = exec.clone();

    blocking_run(&exec);
    let after_first = os_threads();
    assert_eq!(after_first, baseline + 2, "one pool lane and one compensation worker");
    for run in 1..500 {
        blocking_run(if run % 2 == 0 { &exec } else { &clone });
        assert!(os_threads() <= after_first, "run {run}: {} threads", os_threads());
    }

    // A clone keeps the set alive and keeps using it.
    drop(exec);
    blocking_run(&clone);
    assert!(os_threads() <= after_first, "{} threads after the first drop", os_threads());

    drop(clone);
    assert!(settles_to(baseline), "{} threads, {baseline} before the executor", os_threads());
}
