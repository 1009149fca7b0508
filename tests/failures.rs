//! Failure injection: programming-model violations and task panics
//! must surface as clean, descriptive failures on every executor —
//! Jade's "the implementation generates an error" (§5), not a hang or
//! a corrupted result.

#![deny(deprecated)]

use jade_apps::{cholesky, lws, pmake};
use jade_core::prelude::*;
use jade_sim::{FaultPlan, Platform, SimExecutor, SimSpan};
use jade_threads::ThreadedExecutor;
use proptest::prelude::*;

/// `Runtime::execute` with the legacy `(result, stats)` shape,
/// panicking on a fault the way `ThreadedExecutor::run` used to.
fn trun<R, F>(workers: usize, f: F) -> (R, RuntimeStats)
where
    R: Send + 'static,
    F: FnOnce(&mut jade_threads::ThreadCtx) -> R + Send + 'static,
{
    ThreadedExecutor::new(workers)
        .execute(RunConfig::new(), f)
        .unwrap_or_else(|fault| panic!("{fault}"))
        .into_parts()
}

fn catch(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected panics
    let r = std::panic::catch_unwind(f);
    std::panic::set_hook(hook);
    match r {
        Ok(()) => panic!("expected a panic"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn task_panic_propagates_from_thread_pool() {
    let msg = catch(|| {
        trun(2, |ctx| {
            let a = ctx.create(0.0f64);
            ctx.withonly("boom", |s| { s.rd_wr(a); }, move |_c| {
                panic!("task exploded: {}", 42);
            });
            let _ = *ctx.rd(&a); // forces the root to meet the panic
        });
    });
    assert!(msg.contains("task exploded: 42"), "got: {msg}");
}

#[test]
fn task_panic_propagates_from_simulator() {
    let msg = catch(|| {
        SimExecutor::new(Platform::dash(2)).run(|ctx| {
            let a = ctx.create(0.0f64);
            ctx.withonly("boom", |s| { s.rd_wr(a); }, move |_c| {
                panic!("sim task exploded");
            });
            *ctx.rd(&a)
        });
    });
    assert!(msg.contains("sim task exploded"), "got: {msg}");
}

#[test]
fn undeclared_write_is_descriptive_on_all_executors() {
    fn bad<C: JadeCtx>(ctx: &mut C) {
        let a = ctx.create(0.0f64);
        ctx.withonly("sneaky", |s| { s.rd(a); }, move |c| {
            *c.wr(&a) = 1.0; // only rd was declared
        });
        let _ = *ctx.rd(&a);
    }
    for msg in [
        catch(|| {
            jade_core::serial::run(bad);
        }),
        catch(|| {
            trun(2, bad);
        }),
        catch(|| {
            SimExecutor::new(Platform::mica(2)).run(bad);
        }),
    ] {
        assert!(msg.contains("undeclared write"), "got: {msg}");
    }
}

#[test]
fn leaked_guard_is_reported() {
    // Completing a task while an access guard is still alive would
    // leave the hold bookkeeping dangling; the pool reports it.
    let msg = catch(|| {
        trun(2, |ctx| {
            let a = ctx.create(vec![0.0f64]);
            ctx.withonly("leaker", |s| { s.rd(a); }, move |c| {
                let guard = c.rd(&a);
                std::mem::forget(guard);
            });
            let _ = ctx.rd(&a).len();
        });
    });
    assert!(msg.contains("holding an access guard"), "got: {msg}");
}

#[test]
fn spawning_with_held_conflicting_guard_is_reported_everywhere() {
    fn bad<C: JadeCtx>(ctx: &mut C) {
        let a = ctx.create(0.0f64);
        ctx.withonly("parent", |s| { s.rd_wr(a); }, move |c| {
            let _g = c.wr(&a);
            c.withonly("child", |s| { s.rd(a); }, move |cc| {
                let _ = *cc.rd(&a);
            });
        });
    }
    for msg in [
        catch(|| {
            jade_core::serial::run(bad);
        }),
        catch(|| {
            trun(2, bad);
        }),
        catch(|| {
            SimExecutor::new(Platform::dash(2)).run(bad);
        }),
    ] {
        assert!(msg.contains("conflicting access guard"), "got: {msg}");
    }
}

#[test]
fn with_cont_on_undeclared_object_is_reported() {
    let msg = catch(|| {
        jade_core::serial::run(|ctx| {
            let a = ctx.create(0.0f64);
            let b = ctx.create(0.0f64);
            ctx.withonly("bad-cont", |s| { s.df_rd(a); }, move |c| {
                c.with_cont(|cb| {
                    cb.to_rd(b); // never declared b
                });
            });
        });
    });
    assert!(msg.contains("without a prior declaration"), "got: {msg}");
}

#[test]
fn executors_remain_usable_after_a_failed_run() {
    // A panicked run must not poison subsequent, independent runs.
    let _ = catch(|| {
        trun(2, |ctx| {
            let a = ctx.create(0.0f64);
            ctx.withonly("boom", |s| { s.rd_wr(a); }, move |_c| panic!("first run dies"));
            let _ = *ctx.rd(&a);
        });
    });
    let (v, _) = trun(2, |ctx| {
        let a = ctx.create(21.0f64);
        ctx.withonly("fine", |s| { s.rd_wr(a); }, move |c| {
            *c.wr(&a) *= 2.0;
        });
        *ctx.rd(&a)
    });
    assert_eq!(v, 42.0);
}

// ---------------------------------------------------------------------------
// Property: machine faults never change application results. For any
// seeded fault plan with delay spikes on up to 80% of messages and
// fewer transient crashes than machines, the real applications —
// sparse Cholesky, liquid-water simulation, parallel make — stay
// bit-identical to the serial elision: Jade's access specifications
// fence every effect and effects commit only at task completion, so
// late messages and crashing machines can change timing but never
// values.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn faulted_apps_match_the_serial_oracle(
        seed in any::<u64>(),
        spike_milli in 0u32..800,
        crashes in 0usize..3,
        extra_machines in 0usize..2,
    ) {
        let machines = 3 + extra_machines; // 3..=4: always > crashes
        let mut plan = FaultPlan::new(seed)
            .delay_spikes(f64::from(spike_milli) / 1000.0, SimSpan::from_millis(2));
        for m in 0..crashes.min(machines - 1) {
            // Crash distinct non-zero machines once each, early in the
            // run, leaving at least one machine alive throughout.
            plan = plan.crash(m + 1, 1, SimSpan::from_millis(20));
        }

        // Sparse Cholesky factorization.
        let a = cholesky::SparseSym::random_spd(36, 3, seed ^ 0x5eed);
        let (want_l, _) = {
            let a = a.clone();
            jade_core::serial::run(move |ctx| cholesky::factor_program(ctx, &a))
        };
        let (got_l, _) = {
            let a = a.clone();
            SimExecutor::new(Platform::mica(machines))
                .faults(plan.clone())
                .run(move |ctx| cholesky::factor_program(ctx, &a))
        };
        prop_assert_eq!(got_l, want_l, "cholesky diverged under faults");

        // Liquid-water molecular dynamics (one timestep).
        let sys = lws::WaterSystem::new(16, seed ^ 0xaa);
        let blocks = 2 * machines;
        let (want_w, _) = {
            let sys = sys.clone();
            jade_core::serial::run(move |ctx| lws::run_jade(ctx, &sys, blocks, 1, 0.002))
        };
        let (got_w, _) = {
            let sys = sys.clone();
            SimExecutor::new(Platform::mica(machines))
                .faults(plan.clone())
                .run(move |ctx| lws::run_jade(ctx, &sys, blocks, 1, 0.002))
        };
        prop_assert_eq!(got_w, want_w, "lws diverged under faults");

        // Parallel make over a random dependency DAG.
        let mk = pmake::Makefile::random_dag(10, seed ^ 0x17);
        let (want_m, _) = {
            let mk = mk.clone();
            jade_core::serial::run(move |ctx| pmake::make_jade(ctx, &mk))
        };
        let (got_m, _) = {
            let mk = mk.clone();
            SimExecutor::new(Platform::mica(machines))
                .faults(plan)
                .run(move |ctx| pmake::make_jade(ctx, &mk))
        };
        prop_assert_eq!(got_m, want_m, "pmake diverged under faults");
    }
}
