//! Fault-injection integration tests: a simulated run with delay
//! spikes, transient machine crashes, and slowdown windows must still
//! produce results bit-identical to the fault-free run —
//! Jade's access specifications fence every effect and effects commit
//! at task completion, so faults change *timing*, never *values* —
//! and the same fault plan must reproduce the same event trace.

use jade_core::prelude::*;
use jade_sim::{narrative, FaultPlan, Platform, SimExecutor, SimReport, SimSpan, SimTime};

/// Run [`workload`] on four Micas under [`plan`] and an event
/// collector; its result, the sim report and the run's narrative.
fn run_narrated() -> (Vec<f64>, SimReport, String) {
    let events = EventCollector::new();
    let rep = SimExecutor::new(Platform::mica(4))
        .faults(plan())
        .execute(RunConfig::new().with_observer(events.observer()), workload)
        .expect("faults are recovered from");
    let sim = rep.extra::<SimReport>().expect("sim report rides in extras").clone();
    (rep.result, sim, narrative(&events.events()))
}

/// A wide fan of independent tasks plus a dependent chain over them:
/// enough work that every machine keeps a backlog (so a crashing
/// machine has queued tasks to recover) and enough object traffic
/// that delay spikes hit many messages.
fn workload<C: JadeCtx>(ctx: &mut C) -> Vec<f64> {
    let cells: Vec<Shared<f64>> = (0..24).map(|i| ctx.create(1.0 + i as f64)).collect();
    for &c in &cells {
        ctx.withonly(
            "scale",
            |s| {
                s.rd_wr(c);
            },
            move |cc| {
                cc.charge(3e6);
                *cc.wr(&c) *= 1.25;
            },
        );
    }
    for i in 1..cells.len() {
        let a = cells[i - 1];
        let b = cells[i];
        ctx.withonly(
            "link",
            |s| {
                s.rd(a);
                s.rd_wr(b);
            },
            move |cc| {
                cc.charge(1e6);
                let left = *cc.rd(&a);
                *cc.wr(&b) += left * 0.5;
            },
        );
    }
    cells.iter().map(|c| *ctx.rd(c)).collect()
}

fn crash() -> FaultPlan {
    FaultPlan::new(42).crash(1, 1, SimSpan::from_millis(40))
}

fn plan() -> FaultPlan {
    crash().delay_spikes(0.1, SimSpan::from_millis(2))
}

#[test]
fn faulted_run_matches_fault_free_bitwise() {
    let (clean, _) = SimExecutor::new(Platform::mica(4)).run(workload);
    let (serial, _) = jade_core::serial::run(workload);
    assert_eq!(clean, serial, "fault-free sim must match the serial elision");

    let (faulted, report) = SimExecutor::new(Platform::mica(4)).faults(plan()).run(workload);
    assert_eq!(faulted, clean, "faults must change timing, never values");
    let (_, crashed) = SimExecutor::new(Platform::mica(4)).faults(crash()).run(workload);
    assert_ne!(report.time, crashed.time, "10% spikes should move the completion time:\n{report}");
    assert!(report.faults.crashes >= 1, "the armed crash should fire:\n{report}");
    assert!(
        report.faults.recoveries >= 1,
        "the crashed machine should have had queued tasks to recover:\n{report}"
    );
}

#[test]
fn same_seed_reproduces_the_same_event_trace() {
    let (v1, r1, log1) = run_narrated();
    let (v2, r2, log2) = run_narrated();
    assert_eq!(v1, v2);
    assert_eq!(r1.time, r2.time, "same plan, same completion time");
    assert_eq!(r1.net, r2.net, "same plan, same network counters");
    assert_eq!(r1.faults, r2.faults, "same plan, same fault counters");
    assert_eq!(log1, log2, "same seed must reproduce the event trace verbatim");
}

#[test]
fn different_seeds_still_agree_on_values() {
    let (clean, _) = SimExecutor::new(Platform::mica(4)).run(workload);
    let mut times = Vec::new();
    for seed in [1, 7, 1234] {
        let p = FaultPlan::new(seed).delay_spikes(0.4, SimSpan::from_millis(2)).crash(
            2,
            1,
            SimSpan::from_millis(25),
        );
        let (v, report) = SimExecutor::new(Platform::mica(4)).faults(p).run(workload);
        assert_eq!(v, clean, "seed {seed} diverged");
        times.push(report.time);
    }
    times.sort();
    times.dedup();
    assert_eq!(times.len(), 3, "each seed should spike different messages: {times:?}");
}

#[test]
fn crash_narrative_appears_in_the_log() {
    let (_, report, log) = run_narrated();
    assert!(log.contains("crashes (transient)"), "missing crash line:\n{log}");
    assert!(log.contains("rejoins the platform"), "missing rejoin line:\n{log}");
    if report.faults.recoveries > 0 {
        assert!(log.contains("recovered from crashed machine"), "missing recovery line:\n{log}");
    }
}

#[test]
fn exhausted_attempt_budget_degrades_to_a_surviving_machine() {
    // With a budget of one attempt, the first recovery immediately
    // degrades the task to direct placement on a surviving machine.
    let p = FaultPlan::new(9).crash(1, 1, SimSpan::from_millis(40)).max_task_attempts(1);
    let (clean, _) = SimExecutor::new(Platform::mica(4)).run(workload);
    let (v, report) = SimExecutor::new(Platform::mica(4)).faults(p).run(workload);
    assert_eq!(v, clean);
    if report.faults.recoveries > 0 {
        assert_eq!(
            report.faults.degraded, report.faults.recoveries,
            "budget 1: every recovery must degrade:\n{report}"
        );
    }
}

#[test]
fn delay_spikes_and_slowdowns_cost_time_but_not_correctness() {
    let base = SimExecutor::new(Platform::mica(4)).run(workload);
    // Every message spikes 5ms late; machine 0 runs 8x slower for the
    // first simulated minute (covering the whole run).
    let p = FaultPlan::new(3).delay_spikes(1.0, SimSpan::from_millis(5)).slowdown(
        0,
        SimTime::ZERO,
        SimTime(60_000_000_000),
        8.0,
    );
    let (v, report) = SimExecutor::new(Platform::mica(4)).faults(p).run(workload);
    assert_eq!(v, base.0);
    assert!(
        report.time > base.1.time,
        "spikes + slowdown should cost time: faulted {} vs clean {}",
        report.time,
        base.1.time
    );
    // Spikes alone, on every message, cost time too.
    let spiked = FaultPlan::new(3).delay_spikes(1.0, SimSpan::from_millis(5));
    let (v, report) = SimExecutor::new(Platform::mica(4)).faults(spiked).run(workload);
    assert_eq!(v, base.0);
    assert!(report.time > base.1.time, "spikes alone should cost time:\n{report}");
}

#[test]
fn fault_free_plan_changes_nothing() {
    // An empty plan (seed only) must not perturb the simulation at
    // all: identical values, identical completion time.
    let (v1, r1) = SimExecutor::new(Platform::ipsc860(4)).run(workload);
    let (v2, r2) = SimExecutor::new(Platform::ipsc860(4)).faults(FaultPlan::new(7)).run(workload);
    assert_eq!(v1, v2);
    assert_eq!(r1.time, r2.time, "an empty fault plan must be a no-op");
    assert_eq!(r2.faults.crashes, 0);
    assert_eq!(r1.net, r2.net, "an empty fault plan must not touch the network");
}
