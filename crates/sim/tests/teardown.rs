//! A run leaves nothing behind, however it ends: every context thread
//! is joined before `Runtime::execute` returns, suspended bodies are
//! released without a panic-hook message each, and what they captured
//! is dropped; and a thread that goes on to another body carries no
//! violation over from the last.
//!
//! One `#[test]` only: the process's thread count and its panic hook
//! are process-wide, and the harness would run a second test beside it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use jade_core::error::JadeFault;
use jade_core::prelude::*;
use jade_sim::{Platform, SimCtx, SimExecutor};

/// Waiter tasks of each run below; all but at most one (which may sit
/// unstarted behind the gate on the gate's machine) are suspended when
/// the run ends.
const K: usize = 6;

/// OS threads of this process (`Threads:` in `/proc/self/status`).
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("linux procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

/// A joined thread leaves the kernel's count a moment after `join`
/// returns; wait for it (bounded) rather than race it.
fn settles_to(want: usize) -> bool {
    (0..400).any(|_| {
        os_threads() == want || {
            std::thread::sleep(Duration::from_millis(5));
            false
        }
    })
}

/// How the main program ends once `K` tasks are suspended.
#[derive(Clone, Copy, Debug)]
enum Ending {
    TaskPanics,
    Cancelled,
    MainPanics,
    LoopPanics,
    Clean,
}

/// A value that cannot be sent: the event loop's own code encodes an
/// object it ships to another machine, so the panic is no task's.
struct Unsendable;

impl jade_transport::Portable for Unsendable {
    fn encode(&self, _enc: &mut jade_transport::PortEncoder) {
        panic!("this value cannot be sent");
    }

    fn decode(_dec: &mut jade_transport::PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        Ok(Unsendable)
    }
}

/// A gate task holds `gate` through a long charge. Behind it `K` tasks
/// start and suspend — half in a `with_cont` converting a deferred read
/// of `gate`, half in a read of their own cell that waits for a child
/// — each holding a clone of `sentinel`. Then the run ends as `ending`
/// says, with the waiters still suspended (except `Clean`, which waits).
fn program(ctx: &mut SimCtx, ending: Ending, sentinel: &Arc<()>, cancel: &CancelSignal) -> f64 {
    let gate = ctx.create(1.0f64);
    let cells: Vec<Shared<f64>> = (0..K).map(|i| ctx.create(i as f64)).collect();
    ctx.withonly(
        "gate",
        |s| {
            s.rd_wr(gate);
        },
        move |c| {
            c.charge(1e9);
            *c.wr(&gate) += 1.0;
        },
    );
    for (i, &cell) in cells.iter().enumerate() {
        let held = sentinel.clone();
        ctx.withonly(
            "waiter",
            |s| {
                s.rd_wr(cell);
                s.df_rd(gate);
            },
            move |c| {
                let _held = held;
                if i % 2 == 0 {
                    c.with_cont(|b| {
                        b.to_rd(gate);
                    });
                    *c.wr(&cell) += *c.rd(&gate);
                } else {
                    c.withonly(
                        "child",
                        |s| {
                            s.rd_wr(cell);
                            s.rd(gate);
                        },
                        move |cc| {
                            let g = *cc.rd(&gate);
                            *cc.wr(&cell) += g;
                        },
                    );
                    let _ = *c.rd(&cell);
                }
            },
        );
    }
    match ending {
        Ending::TaskPanics => ctx.withonly(
            "bomb",
            |_s| {},
            |c| {
                c.charge(1e8);
                panic!("boom after the waiters suspended");
            },
        ),
        Ending::Cancelled => {
            ctx.charge(1e8);
            cancel.cancel();
        }
        Ending::MainPanics => {
            ctx.charge(1e8);
            panic!("main program gives up");
        }
        Ending::LoopPanics => {
            ctx.charge(1e8);
            let sealed = ctx.create(Unsendable);
            ctx.withonly(
                "reader",
                |s| {
                    s.rd(sealed);
                    s.place(Placement::Machine(MachineId(1)));
                },
                move |c| {
                    let _ = c.rd(&sealed);
                },
            );
        }
        Ending::Clean => {}
    }
    cells.iter().map(|c| *ctx.rd(c)).sum()
}

/// Two tasks in turn on one machine, so the second body reuses the
/// first one's context thread. The first swallows a violation panic
/// and returns; the second panics with the very same text. That is an
/// ordinary panic: the typed error must not have stayed on the thread.
fn a_reused_thread_forgets_a_swallowed_violation() {
    let seen = Arc::new(Mutex::new((String::new(), Vec::new())));
    let (first, second) = (seen.clone(), seen.clone());
    let fault = SimExecutor::new(Platform::mica(1))
        .execute(RunConfig::new(), move |ctx| {
            let (turn, secret) = (ctx.create(0u8), ctx.create(1.0f64));
            ctx.withonly(
                "swallow",
                |s| {
                    s.rd_wr(turn);
                },
                move |c| {
                    let undeclared = catch_unwind(AssertUnwindSafe(|| *c.rd(&secret)));
                    let text = undeclared.expect_err("an undeclared read is a violation");
                    let mut seen = first.lock().unwrap();
                    seen.0 = text.downcast_ref::<String>().expect("violations carry text").clone();
                    seen.1.push(std::thread::current().id());
                },
            );
            ctx.withonly(
                "forge",
                |s| {
                    s.rd_wr(turn);
                },
                move |_c| {
                    let text = {
                        let mut seen = second.lock().unwrap();
                        seen.1.push(std::thread::current().id());
                        seen.0.clone()
                    };
                    panic!("{text}");
                },
            );
        })
        .expect_err("the second task panics");
    let seen = seen.lock().unwrap();
    assert_eq!(seen.1[0], seen.1[1], "the second body should reuse the first one's thread");
    match fault {
        JadeFault::TaskPanicked { message, .. } => assert_eq!(message, seen.0),
        other => panic!("a forged message is an ordinary panic, not {other:?}"),
    }
}

#[test]
fn every_ending_joins_its_threads_and_unwinds_suspended_bodies_quietly() {
    let hooked = Arc::new(AtomicUsize::new(0));
    let (count, default_hook) = (hooked.clone(), std::panic::take_hook());
    std::panic::set_hook(Box::new(move |info| {
        count.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let at_rest = os_threads();

    for (ending, panics) in [
        (Ending::TaskPanics, 1),
        (Ending::Cancelled, 0),
        (Ending::MainPanics, 1),
        (Ending::LoopPanics, 1),
        (Ending::Clean, 0),
    ] {
        let sentinel = Arc::new(());
        let cancel = CancelSignal::new();
        let events = EventCollector::new();
        let cfg = RunConfig::new().with_cancel(cancel.clone()).with_observer(events.observer());
        let before = hooked.load(Ordering::SeqCst);
        let (held, signal) = (sentinel.clone(), cancel.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            SimExecutor::new(Platform::dash(4))
                .execute(cfg, move |ctx| program(ctx, ending, &held, &signal))
        }));

        // Every body — suspended, unstarted or finished — is gone by now.
        assert_eq!(Arc::strong_count(&sentinel), 1, "{ending:?}: a body outlived the run");
        assert!(settles_to(at_rest), "{ending:?}: {} threads, {at_rest} at rest", os_threads());
        assert_eq!(
            hooked.load(Ordering::SeqCst) - before,
            panics,
            "{ending:?}: releasing a suspended body must not reach the panic hook"
        );
        let waiters = events.events().into_iter().filter(|ev| !ev.task.is_root());
        let suspended = waiters.fold(0usize, |n, ev| match ev.kind {
            EventKind::ContBlock | EventKind::AccessWaitBegin { .. } => n + 1,
            EventKind::ContUnblock | EventKind::AccessWaitEnd { .. } => n - 1,
            _ => n,
        });
        match (ending, outcome) {
            (Ending::TaskPanics, Ok(Err(JadeFault::TaskPanicked { message, .. }))) => {
                assert!(message.contains("boom after"), "{message}");
                assert!(suspended >= K - 1, "only {suspended} tasks were suspended");
            }
            (Ending::Cancelled, Ok(Err(JadeFault::Cancelled { .. }))) => {
                assert!(suspended >= K - 1, "only {suspended} tasks were suspended");
            }
            (Ending::MainPanics, Err(payload)) => {
                let text = payload.downcast_ref::<String>().expect("the message travels");
                assert!(text.contains("main program gives up"), "{text}");
                assert!(suspended >= K - 1, "only {suspended} tasks were suspended");
            }
            // A panic in the loop's code, on whichever context thread
            // carries the loop, resumes on the caller after the join.
            (Ending::LoopPanics, Err(payload)) => {
                let text = payload.downcast_ref::<&str>().expect("the message travels");
                assert!(text.contains("cannot be sent"), "{text}");
                assert!(suspended >= K - 1, "only {suspended} tasks were suspended");
            }
            (Ending::Clean, Ok(Ok(rep))) => {
                let want: f64 = (0..K).map(|i| i as f64 + 2.0).sum();
                assert_eq!(rep.result, want);
                assert_eq!(suspended, 0);
            }
            (_, Ok(Ok(_))) => panic!("{ending:?}: the run should not have finished"),
            (_, Ok(Err(fault))) => panic!("{ending:?}: unexpected fault {fault}"),
            (_, Err(_)) => panic!("{ending:?}: unexpected panic"),
        }
    }
    a_reused_thread_forgets_a_swallowed_violation();
}
