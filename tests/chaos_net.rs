//! Chaos for the distributed backend, process edition: real worker
//! *processes* running the `jade-net-worker` binary get `kill -9`'d at
//! seeded, randomized points mid-run, and the surviving pool must
//! produce results identical to [`SerialRuntime`] — with the mayhem
//! reported through `Report::{faults, net}` rather than an error.
//!
//! Thread-mode chaos (same detectors, faster) lives in
//! `crates/net/tests/net_proto.rs`; this suite is the end-to-end proof
//! that an abrupt OS-level death — no unwinding, no goodbye frame —
//! is recovered from. CI runs it with `--test-threads=1` under a
//! timeout so a recovery bug shows up as a failure, not a wedge.

#![deny(deprecated)]

use jade_apps::cholesky;
use jade_core::runtime::{RunConfig, Runtime};
use jade_core::serial::SerialRuntime;
use jade_net::{Chaos, NetConfig, NetExecutor, PlacementPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_jade-net-worker")
}

/// `n` worker processes with the application kernels registered on the
/// coordinator too, so every Cholesky task body ships — the only way a
/// task reaches a worker, and so the only way a kill plan can fire.
fn processes(n: usize) -> NetConfig {
    NetConfig { registry: jade_apps::kernels::registry(), ..NetConfig::processes(n, worker_bin()) }
}

/// [`processes`] for tests whose kill plan counts the tasks a victim
/// accepts: locality placement makes that count depend on timing,
/// rotation does not.
fn rotating(n: usize) -> NetConfig {
    NetConfig { placement: PlacementPolicy::RoundRobin, ..processes(n) }
}

fn serial_cholesky(a: &cholesky::SparseSym) -> Vec<Vec<f64>> {
    let a = a.clone();
    SerialRuntime
        .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
        .expect("serial oracle")
        .result
        .cols
}

#[test]
fn clean_process_run_matches_serial() {
    let a = cholesky::SparseSym::random_spd(24, 4, 9);
    let want = serial_cholesky(&a);
    let cfg = processes(2);
    let rep = {
        let a = a.clone();
        NetExecutor::new(cfg)
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("clean process-mode run")
    };
    assert_eq!(rep.result.cols, want);
    let faults = rep.faults.expect("stats");
    assert!(faults.is_clean(), "{faults}");
    assert!(rep.net.expect("stats").messages > 0);
}

#[test]
fn sigkilled_worker_mid_run_is_recovered_from() {
    // A seeded plan of randomized kill points: each round SIGKILLs one
    // worker process *instead of* it accepting some mid-run shipped
    // task, so the task is genuinely in flight when the process dies.
    let a = cholesky::SparseSym::random_spd(24, 4, 9);
    let want = serial_cholesky(&a);
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    for round in 0..3 {
        let victim = rng.gen_range(0..3u32);
        let kill_after = rng.gen_range(0..6u32);
        let cfg = NetConfig {
            chaos: vec![(
                victim,
                Chaos { kill_after_grants: Some(kill_after), ..Chaos::default() },
            )],
            ..rotating(3)
        };
        let rep = {
            let a = a.clone();
            NetExecutor::new(cfg)
                .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
                .unwrap_or_else(|f| {
                    panic!("round {round}: worker loss must be recovered, got fault {f}")
                })
        };
        assert_eq!(
            rep.result.cols, want,
            "round {round} (victim {victim}, kill after {kill_after} grants): \
             result must be identical to SerialRuntime"
        );
        let faults = rep.faults.expect("stats");
        assert_eq!(faults.crashes, 1, "round {round}: exactly one process died: {faults}");
        assert!(
            faults.recoveries + faults.degraded > 0,
            "round {round}: the in-flight task must be reassigned: {faults}"
        );
    }
}

#[test]
fn losing_two_of_three_workers_still_completes() {
    let a = cholesky::SparseSym::random_spd(24, 4, 9);
    let want = serial_cholesky(&a);
    let cfg = NetConfig {
        chaos: vec![
            (0, Chaos { kill_after_grants: Some(1), ..Chaos::default() }),
            (2, Chaos { kill_after_grants: Some(3), ..Chaos::default() }),
        ],
        ..rotating(3)
    };
    let rep = {
        let a = a.clone();
        NetExecutor::new(cfg)
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("two deaths, one survivor: still a clean completion")
    };
    assert_eq!(rep.result.cols, want);
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.crashes, 2, "{faults}");
}

#[test]
fn sigkilled_dirty_replica_holder_forces_reshipping() {
    // The replica-eviction path under a real SIGKILL, made
    // deterministic by a serial chain over ONE object: every task
    // reads its predecessor's output, and the placement tie-break
    // (equal load, then affinity, then index) pins the whole chain to
    // worker 0 — which commits two links, becoming the sole holder of
    // the latest version, then the process dies executing the third,
    // before the result frame leaves. The successor can only run on
    // worker 1, whose read of the evicted sole replica must be
    // re-shipped from the coordinator's master copy, and the run must
    // still be bit-identical to SerialRuntime.
    use jade_core::prelude::*;

    fn program(ctx: &mut jade_threads::ThreadCtx) -> f64 {
        let p: Shared<f64> = ctx.create(3.0);
        for _ in 0..8 {
            let ir = TaskBodyIr::new().step("scale2", vec![IrSrc::Obj(0)], IrDst::Obj(0));
            ctx.withonly_ir(
                "scale",
                |s| {
                    s.rd_wr(p);
                },
                ir,
                move |c| {
                    let v = *c.rd(&p);
                    *c.wr(&p) = v * 2.0;
                },
            );
        }
        *ctx.rd(&p)
    }

    let want =
        SerialRuntime.execute(RunConfig::new(), program_serial).expect("serial oracle").result;
    fn program_serial(ctx: &mut jade_core::serial::SerialCtx) -> f64 {
        let p: Shared<f64> = ctx.create(3.0);
        for _ in 0..8 {
            let ir = TaskBodyIr::new().step("scale2", vec![IrSrc::Obj(0)], IrDst::Obj(0));
            ctx.withonly_ir(
                "scale",
                |s| {
                    s.rd_wr(p);
                },
                ir,
                move |c| {
                    let v = *c.rd(&p);
                    *c.wr(&p) = v * 2.0;
                },
            );
        }
        *ctx.rd(&p)
    }

    let cfg = NetConfig {
        chaos: vec![(0, Chaos { kill_after_tasks: Some(2), ..Chaos::default() })],
        ..processes(2)
    };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new(), program)
        .expect("the run must survive the dirty-holder SIGKILL");
    assert_eq!(rep.result, want, "recovery must not change the answer");
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.crashes, 1, "exactly one process died: {faults}");
    assert!(faults.recoveries > 0, "the in-flight shipped task must be re-dispatched: {faults}");
    assert!(faults.reshipped > 0, "evicted sole-holder replicas must be re-shipped: {faults}");
}

#[test]
fn hung_worker_process_is_caught_by_heartbeat() {
    let a = cholesky::SparseSym::random_spd(24, 4, 9);
    let want = serial_cholesky(&a);
    let cfg = NetConfig {
        heartbeat: std::time::Duration::from_millis(10),
        miss_budget: 2,
        chaos: vec![(1, Chaos { hang_after_grants: Some(2), ..Chaos::default() })],
        ..rotating(2)
    };
    let rep = {
        let a = a.clone();
        NetExecutor::new(cfg)
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("hang must be survived")
    };
    assert_eq!(rep.result.cols, want);
    assert_eq!(rep.faults.expect("stats").crashes, 1);
}

#[test]
fn faulted_run_reports_every_lost_worker() {
    // A run that ends in a fault still tells its observers what the
    // network did. Both worker processes are SIGKILLed instead of
    // accepting their first shipped task, so the serial chain loses
    // worker 0, then worker 1, and degrades to the coordinator; the
    // last link then panics. The liveness events were buffered when
    // the fault arrived and must reach the observer all the same.
    use jade_core::prelude::*;

    fn program(ctx: &mut jade_threads::ThreadCtx) -> f64 {
        let p: Shared<f64> = ctx.create(3.0);
        for _ in 0..3 {
            let ir = TaskBodyIr::new().step("scale2", vec![IrSrc::Obj(0)], IrDst::Obj(0));
            ctx.withonly_ir(
                "scale",
                |s| {
                    s.rd_wr(p);
                },
                ir,
                move |c| {
                    let v = *c.rd(&p);
                    *c.wr(&p) = v * 2.0;
                },
            );
        }
        ctx.withonly(
            "bomb",
            |s| {
                s.rd_wr(p);
            },
            move |_| panic!("last link exploded"),
        );
        *ctx.rd(&p)
    }

    let kill_at_once = |worker| (worker, Chaos { kill_after_grants: Some(0), ..Chaos::default() });
    let cfg = NetConfig { chaos: vec![kill_at_once(0), kill_at_once(1)], ..processes(2) };
    let events = EventCollector::new();
    let fault = NetExecutor::new(cfg)
        .execute(RunConfig::new().with_observer(events.observer()), program)
        .expect_err("the last link panics");
    assert!(matches!(fault, JadeFault::TaskPanicked { .. }), "got {fault:?}");
    let events = events.events();
    for w in 0..2 {
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::WorkerLost { worker, .. } if worker == w)),
            "worker {w}'s loss must reach the observer of a faulted run"
        );
    }
}
