//! A dispatch gate's admission runs under the same fault handling as a
//! task body: a gate that panics while admitting a task (a
//! coordinator's lowering closure, say) faults the run with a typed
//! `TaskPanicked` for that task instead of leaving the root waiting on
//! it for ever, and the executor keeps serving afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use jade_core::prelude::*;
use jade_threads::{Admission, AdmitRequest, DispatchGate, ThreadCtx, ThreadedExecutor};

/// Panics on its first admission and admits every later task locally.
#[derive(Default)]
struct PanicsOnce(AtomicBool);

impl DispatchGate for PanicsOnce {
    fn admit(&self, _req: &AdmitRequest<'_>) -> Admission {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("admission lowered a bad body");
        }
        Admission::Local
    }

    fn abort(&self) {}
}

/// One task on an object the root then reads.
fn one_task(ctx: &mut ThreadCtx) -> u64 {
    let x = ctx.create(41u64);
    ctx.withonly(
        "admitted",
        |s| {
            s.rd_wr(x);
        },
        move |c| *c.wr(&x) += 1,
    );
    *ctx.rd(&x)
}

#[test]
fn a_panicking_admission_faults_the_run_and_the_executor_keeps_serving() {
    let (done_tx, done_rx) = mpsc::channel();
    // Runs off the test thread so a hang fails at the watchdog below.
    std::thread::spawn(move || {
        let exec = ThreadedExecutor::new(2).with_gate(Arc::new(PanicsOnce::default()));
        let first = exec.execute(RunConfig::new(), one_task).map(|rep| rep.result);
        let second = exec.execute(RunConfig::new(), one_task).map(|rep| rep.result);
        done_tx.send((first, second)).ok();
    });
    let (first, second) =
        done_rx.recv_timeout(Duration::from_secs(5)).expect("a panicking admission hung the run");
    match first {
        Err(JadeFault::TaskPanicked { task, message }) => {
            assert!(!task.is_root(), "the admitted task faults, not the root");
            assert_eq!(message, "admission lowered a bad body");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    assert_eq!(second.expect("the next run is clean"), 42);
}
