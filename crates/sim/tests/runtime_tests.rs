//! Integration tests for the simulated distributed Jade runtime:
//! serial-semantics preservation, heterogeneity, and the §5 runtime
//! optimizations.

#![deny(deprecated)]

use jade_core::error::{JadeError, JadeFault};
use jade_core::prelude::*;
use jade_sim::{narrative, Platform, SimCtx, SimExecutor, SimReport, SimTime};

/// Run `program` under `throttle`; its result and the sim report.
fn run_throttled<R: Send + 'static>(
    exec: &SimExecutor,
    throttle: Throttle,
    program: fn(&mut SimCtx) -> R,
) -> (R, SimReport) {
    let rep = exec.execute(RunConfig::new().with_throttle(throttle), program).expect("clean run");
    let sim = rep.extra::<SimReport>().expect("sim report rides in extras").clone();
    (rep.result, sim)
}

/// Run `program` under an event collector; its result, the sim report
/// and the Figure 7 narrative of the run.
fn run_narrated<R: Send + 'static>(
    exec: &SimExecutor,
    program: fn(&mut SimCtx) -> R,
) -> (R, SimReport, String) {
    let events = EventCollector::new();
    let rep = exec
        .execute(RunConfig::new().with_observer(events.observer()), program)
        .expect("clean run");
    let sim = rep.extra::<SimReport>().expect("sim report rides in extras").clone();
    (rep.result, sim, narrative(&events.events()))
}

/// A program with real data dependencies: a chain of read-modify-write
/// tasks plus an independent strand, exercising migration and
/// replication.
fn chain_program<C: JadeCtx>(ctx: &mut C) -> Vec<f64> {
    let n = 10usize;
    let cells: Vec<Shared<f64>> = (0..n).map(|i| ctx.create(1.0 + i as f64)).collect();
    for i in 1..n {
        let a = cells[i - 1];
        let b = cells[i];
        ctx.withonly(
            "link",
            |s| {
                s.rd(a);
                s.rd_wr(b);
            },
            move |c| {
                c.charge(2e5);
                let left = *c.rd(&a);
                let mut bw = c.wr(&b);
                *bw = *bw * 1.5 + left;
            },
        );
    }
    cells.iter().map(|c| *ctx.rd(c)).collect()
}

#[test]
fn sim_matches_serial_elision_bitwise() {
    let (serial, _) = jade_core::serial::run(chain_program);
    for machines in [1, 2, 4, 7] {
        for platform in [
            Platform::dash(machines),
            Platform::ipsc860(machines),
            Platform::mica(machines),
            Platform::workstations(machines),
        ] {
            let name = platform.name.clone();
            let (got, _) = SimExecutor::new(platform).run(chain_program);
            assert_eq!(got, serial, "{name} x{machines}");
        }
    }
}

#[test]
fn sim_is_deterministic_across_runs() {
    let run = || {
        let (v, r) = SimExecutor::new(Platform::ipsc860(4)).run(chain_program);
        (v, r.time, r.net.messages, r.net.bytes)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn independent_tasks_speed_up_with_machines() {
    fn wide<C: JadeCtx>(ctx: &mut C) -> f64 {
        let xs: Vec<Shared<f64>> = (0..16).map(|i| ctx.create(i as f64)).collect();
        for &x in &xs {
            ctx.withonly(
                "work",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    c.charge(5e6);
                    *c.wr(&x) += 1.0;
                },
            );
        }
        xs.iter().map(|x| *ctx.rd(x)).sum()
    }
    let (_, r1) = SimExecutor::new(Platform::dash(1)).run(wide);
    let (_, r8) = SimExecutor::new(Platform::dash(8)).run(wide);
    let speedup = r1.time.as_secs_f64() / r8.time.as_secs_f64();
    assert!(speedup > 4.0, "speedup {speedup:.2} too low (t1={}, t8={})", r1.time, r8.time);
}

#[test]
fn heterogeneous_network_actually_converts() {
    // SPARC (big endian) and DECstation (little endian) on the same
    // Ethernet: transfers between them must be format-converted and
    // the values must survive exactly.
    let (vals, report) = SimExecutor::new(Platform::workstations(4)).run(chain_program);
    let (serial, _) = jade_core::serial::run(chain_program);
    assert_eq!(vals, serial);
    assert!(report.traffic.conversions > 0, "no format conversions happened");
}

#[test]
fn deferred_pipeline_overlaps_in_sim() {
    // §4.2: a consumer with deferred reads overlaps the producers.
    // With task-boundary sync only, the consumer would add its whole
    // runtime after the last producer.
    fn pipelined<C: JadeCtx>(ctx: &mut C) -> f64 {
        let cols: Vec<Shared<f64>> = (0..8).map(|_| ctx.create(0.0)).collect();
        let out = ctx.create(0.0);
        for (i, &c) in cols.iter().enumerate() {
            ctx.withonly(
                "produce",
                |s| {
                    s.rd_wr(c);
                },
                move |cc| {
                    cc.charge(4e6);
                    *cc.wr(&c) = (i + 1) as f64;
                },
            );
        }
        let spec_cols = cols.clone();
        let body_cols = cols.clone();
        ctx.withonly(
            "consume",
            |s| {
                s.rd_wr(out);
                for &c in &spec_cols {
                    s.df_rd(c);
                }
            },
            move |cc| {
                let mut acc = 0.0;
                for &c in &body_cols {
                    cc.with_cont(|b| {
                        b.to_rd(c);
                    });
                    cc.charge(4e6); // consumer work per column
                    acc += *cc.rd(&c);
                    cc.with_cont(|b| {
                        b.no_rd(c);
                    });
                }
                *cc.wr(&out) = acc;
            },
        );
        *ctx.rd(&out)
    }
    fn unpipelined<C: JadeCtx>(ctx: &mut C) -> f64 {
        let cols: Vec<Shared<f64>> = (0..8).map(|_| ctx.create(0.0)).collect();
        let out = ctx.create(0.0);
        for (i, &c) in cols.iter().enumerate() {
            ctx.withonly(
                "produce",
                |s| {
                    s.rd_wr(c);
                },
                move |cc| {
                    cc.charge(4e6);
                    *cc.wr(&c) = (i + 1) as f64;
                },
            );
        }
        let spec_cols = cols.clone();
        let body_cols = cols.clone();
        ctx.withonly(
            "consume",
            |s| {
                s.rd_wr(out);
                for &c in &spec_cols {
                    s.rd(c); // immediate: waits for ALL producers
                }
            },
            move |cc| {
                let mut acc = 0.0;
                for &c in &body_cols {
                    cc.charge(4e6);
                    acc += *cc.rd(&c);
                }
                *cc.wr(&out) = acc;
            },
        );
        *ctx.rd(&out)
    }
    let exec = SimExecutor::new(Platform::dash(2));
    let (v1, rp) = exec.run(pipelined);
    let (v2, ru) = exec.run(unpipelined);
    assert_eq!(v1, v2);
    assert_eq!(v1, 36.0);
    assert!(
        rp.time < ru.time,
        "pipelined ({}) should beat task-boundary sync ({})",
        rp.time,
        ru.time
    );
}

#[test]
fn throttle_bounds_live_tasks_in_sim() {
    fn flood<C: JadeCtx>(ctx: &mut C) -> f64 {
        let acc = ctx.create(0.0);
        for _ in 0..64 {
            ctx.withonly(
                "bump",
                |s| {
                    s.rd_wr(acc);
                },
                move |c| {
                    c.charge(1e5);
                    *c.wr(&acc) += 1.0;
                },
            );
        }
        *ctx.rd(&acc)
    }
    let (v, r) = run_throttled(
        &SimExecutor::new(Platform::dash(4)),
        Throttle::SuspendCreator { hi: 8, lo: 4 },
        flood,
    );
    assert_eq!(v, 64.0);
    assert!(r.stats.peak_live_tasks <= 9, "peak {}", r.stats.peak_live_tasks);
    let (v2, r2) = SimExecutor::new(Platform::dash(4)).run(flood);
    assert_eq!(v2, 64.0);
    assert!(r2.stats.peak_live_tasks > 9, "unthrottled peak {}", r2.stats.peak_live_tasks);
}

/// Tasks that create tasks never suspend, so the lowest watermarks
/// cannot leave every live task waiting on a suspended creator.
#[test]
fn nested_creators_under_a_low_watermark_terminate_in_sim() {
    fn nested<C: JadeCtx>(ctx: &mut C) -> f64 {
        let sum = ctx.create(0.0f64);
        let xs: Vec<Shared<f64>> = (0..8).map(|i| ctx.create(i as f64)).collect();
        for &x in &xs {
            ctx.withonly(
                "parent",
                |s| {
                    s.cm(sum);
                    s.rd_wr(x);
                },
                move |c| {
                    *c.cm(&sum) += 1.0;
                    for _ in 0..3 {
                        c.withonly(
                            "child",
                            |s| {
                                s.rd_wr(x);
                            },
                            move |c| {
                                c.charge(1e4);
                                *c.wr(&x) += 1.0;
                            },
                        );
                    }
                },
            );
        }
        *ctx.rd(&sum) + xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
    }
    let (want, _) = jade_core::serial::run(nested);
    for (hi, lo) in [(1, 1), (2, 1), (2, 2)] {
        let (v, r) = run_throttled(
            &SimExecutor::new(Platform::dash(4)),
            Throttle::SuspendCreator { hi, lo },
            nested,
        );
        assert_eq!(v, want, "hi {hi} lo {lo}");
        assert_eq!(r.stats.tasks_created, 32);
    }
}

/// A parent that suspends in a read of its own object until its
/// children have written it releases its machine's room: the children
/// must be placed in it, or nothing is left to run on one machine.
#[test]
fn a_suspended_parent_leaves_room_for_its_children() {
    fn parents<C: JadeCtx>(ctx: &mut C) -> f64 {
        let sum = ctx.create(0.0f64);
        let xs: Vec<Shared<f64>> = (0..12).map(|i| ctx.create(i as f64)).collect();
        for &x in &xs {
            ctx.withonly(
                "parent",
                |s| {
                    s.cm(sum);
                    s.rd_wr(x);
                },
                move |c| {
                    *c.cm(&sum) += 1.0;
                    for _ in 0..3 {
                        c.withonly(
                            "child",
                            |s| {
                                s.rd_wr(x);
                            },
                            move |cc| *cc.wr(&x) += 1.0,
                        );
                    }
                    let _ = *c.rd(&x);
                },
            );
        }
        *ctx.rd(&sum) + xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
    }
    let (want, _) = jade_core::serial::run(parents);
    for platform in [Platform::mica(1), Platform::workstations(4), Platform::ipsc860(8)] {
        let name = platform.name.clone();
        let (got, _) = SimExecutor::new(platform).run(parents);
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn locality_heuristic_reduces_traffic() {
    // Tasks repeatedly touch the same pair of large objects; with the
    // locality heuristic they stick to one machine, without it they
    // spread and drag the objects around.
    fn affine<C: JadeCtx>(ctx: &mut C) -> f64 {
        let a = ctx.create(vec![0.0f64; 4096]);
        let b = ctx.create(vec![0.0f64; 4096]);
        for round in 0..12 {
            let big = if round % 2 == 0 { a } else { b };
            ctx.withonly(
                "touch",
                |s| {
                    s.rd_wr(big);
                },
                move |c| {
                    c.charge(5e5);
                    c.wr(&big)[0] += 1.0;
                },
            );
        }
        *ctx.rd(&a).first().unwrap() + *ctx.rd(&b).first().unwrap()
    }
    let (_, with) = SimExecutor::new(Platform::mica(4)).locality(true).run(affine);
    let (_, without) = SimExecutor::new(Platform::mica(4)).locality(false).run(affine);
    assert!(
        with.net.bytes <= without.net.bytes,
        "locality on moved {} bytes, off moved {}",
        with.net.bytes,
        without.net.bytes
    );
}

#[test]
fn placement_pins_tasks_to_devices() {
    // §7.2-style: tasks placed on accelerator machines of the HRV.
    fn pipeline<C: JadeCtx>(ctx: &mut C) -> f64 {
        let frame = ctx.create(vec![0.0f64; 256]);
        ctx.withonly(
            "capture",
            |s| {
                s.rd_wr(frame);
                s.place(Placement::Device(DeviceClass::FrameSource));
            },
            move |c| {
                c.charge(1e6);
                c.wr(&frame)[0] = 42.0;
            },
        );
        ctx.withonly(
            "transform",
            |s| {
                s.rd_wr(frame);
                s.place(Placement::Device(DeviceClass::Accelerator));
            },
            move |c| {
                c.charge(2e6);
                c.wr(&frame)[0] *= 2.0;
            },
        );
        ctx.rd(&frame)[0]
    }
    let (v, report, log) = run_narrated(&SimExecutor::new(Platform::hrv(2)), pipeline);
    assert_eq!(v, 84.0);
    // The transform must have executed on an accelerator (machine 1
    // or 2), requiring the frame to move off the SPARC host.
    assert!(report.traffic.moves >= 1, "frame never moved:\n{log}");
}

#[test]
fn explicit_machine_placement_honored() {
    fn program<C: JadeCtx>(ctx: &mut C) -> f64 {
        let x = ctx.create(0.0);
        ctx.withonly(
            "pinned",
            |s| {
                s.rd_wr(x);
                s.place(Placement::Machine(MachineId(3)));
            },
            move |c| {
                c.charge(1e5);
                *c.wr(&x) = 7.0;
            },
        );
        *ctx.rd(&x)
    }
    let (v, _, log) = run_narrated(&SimExecutor::new(Platform::dash(4)), program);
    assert_eq!(v, 7.0);
    assert!(log.contains("machine 3 starts"), "task not on machine 3:\n{log}");
}

#[test]
fn lookahead_hides_fetch_latency() {
    // Tasks each read a distinct large object resident on machine 0
    // and compute; with lookahead the next task's fetch overlaps the
    // current task's compute.
    fn readers<C: JadeCtx>(ctx: &mut C) -> f64 {
        let objs: Vec<Shared<Vec<f64>>> = (0..8).map(|_| ctx.create(vec![1.0f64; 8192])).collect();
        let outs: Vec<Shared<f64>> = (0..8).map(|_| ctx.create(0.0)).collect();
        for (&o, &t) in objs.iter().zip(&outs) {
            ctx.withonly(
                "consume",
                |s| {
                    s.rd(o);
                    s.rd_wr(t);
                },
                move |c| {
                    c.charge(8e6);
                    let sum: f64 = c.rd(&o).iter().sum();
                    *c.wr(&t) = sum;
                },
            );
        }
        outs.iter().map(|t| *ctx.rd(t)).sum()
    }
    let (v1, with) = SimExecutor::new(Platform::ipsc860(2)).lookahead(2).run(readers);
    let (v2, without) = SimExecutor::new(Platform::ipsc860(2)).lookahead(0).run(readers);
    assert_eq!(v1, v2);
    assert!(
        with.time <= without.time,
        "lookahead should not hurt: with={} without={}",
        with.time,
        without.time
    );
}

#[test]
fn faster_machines_get_more_work() {
    // Heterogeneous load balancing: on a platform with one fast and
    // one slow machine, the fast one should accumulate more busy time.
    use jade_sim::{MachineSpec, NetworkKind, SimSpan};
    use jade_transport::DataLayout;
    let platform = Platform {
        name: "mixed".into(),
        machines: vec![
            MachineSpec::cpu("slow", 10e6, DataLayout::sparc()),
            MachineSpec::cpu("fast", 40e6, DataLayout::mips_le()),
        ],
        network: NetworkKind::Ethernet { latency: SimSpan::from_millis(1), bandwidth: 1.1e6 },
        task_create_overhead: SimSpan::from_micros(50),
        task_dispatch_overhead: SimSpan::from_micros(200),
        convert_cost_per_byte: SimSpan(30),
    };
    fn wide<C: JadeCtx>(ctx: &mut C) -> f64 {
        let xs: Vec<Shared<f64>> = (0..24).map(|i| ctx.create(i as f64)).collect();
        for &x in &xs {
            ctx.withonly(
                "work",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    c.charge(6e6);
                    *c.wr(&x) += 1.0;
                },
            );
        }
        xs.iter().map(|x| *ctx.rd(x)).sum()
    }
    let (_, report) = SimExecutor::new(platform).run(wide);
    // The fast machine (index 1) should be busy at least as long in
    // completed work terms: compare processed work = busy * speed.
    let slow_work = report.busy[0].as_secs_f64() * 10e6;
    let fast_work = report.busy[1].as_secs_f64() * 40e6;
    assert!(fast_work > slow_work, "fast machine did {fast_work:.0} work vs slow {slow_work:.0}");
}

#[test]
fn fig7_style_log_narrates_execution() {
    fn tiny<C: JadeCtx>(ctx: &mut C) -> f64 {
        let col = ctx.create(vec![2.0f64; 64]);
        ctx.withonly(
            "Internal(0)",
            |s| {
                s.rd_wr(col);
            },
            move |c| {
                c.charge(1e6);
                c.wr(&col)[0] = 1.0;
            },
        );
        ctx.rd(&col)[0]
    }
    let (_, _, log) = run_narrated(&SimExecutor::new(Platform::mica(2)), tiny);
    assert!(log.contains("creates task"));
    assert!(log.contains("starts task"));
    assert!(log.contains("finishes task"));
}

#[test]
#[should_panic(expected = "undeclared")]
fn sim_detects_undeclared_access() {
    SimExecutor::new(Platform::dash(2)).run(|ctx| {
        let a = ctx.create(0.0f64);
        let b = ctx.create(0.0f64);
        ctx.withonly(
            "bad",
            |s| {
                s.rd(a);
            },
            move |c| {
                let _ = *c.rd(&b);
            },
        );
        *ctx.rd(&a)
    });
}

#[test]
fn unplaceable_task_faults_behind_full_machines() {
    // Sixteen long tasks fill both machines (no lookahead), so the scan
    // that meets the accelerator task has no machine with room: it must
    // still see that no machine of the platform could ever run it.
    fn program<C: JadeCtx>(ctx: &mut C) {
        for i in 0..16 {
            let x = ctx.create(0.0f64);
            ctx.withonly(
                &format!("fill{i}"),
                |s| {
                    s.rd_wr(x);
                },
                move |c| c.charge(1e7),
            );
        }
        let y = ctx.create(0.0f64);
        ctx.withonly(
            "accel",
            |s| {
                s.rd_wr(y);
                s.place(Placement::Device(DeviceClass::Accelerator));
            },
            move |c| *c.wr(&y) = 1.0,
        );
    }
    let events = EventCollector::new();
    let exec = SimExecutor::new(Platform::dash(2)).lookahead(0);
    match exec.execute(RunConfig::new().with_observer(events.observer()), program) {
        Err(JadeFault::TaskPanicked { task, message }) => {
            assert!(!task.is_root());
            assert!(message.contains("which no machine of platform 'dash'"), "{message}");
        }
        other => panic!("expected an unplaceable-task fault, got {:?}", other.map(|_| ())),
    }
    // The scan that met it faulted, not a later one with room.
    let events = events.events();
    assert!(!events.iter().any(|ev| matches!(ev.kind, EventKind::TaskFinished { .. })));
}

/// A value whose encoding does not decode: one byte out, eight back.
struct Lossy(u64);

impl jade_transport::Portable for Lossy {
    fn encode(&self, enc: &mut jade_transport::PortEncoder) {
        enc.put_u8(self.0 as u8);
    }

    fn decode(dec: &mut jade_transport::PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        dec.get_u64().map(Lossy)
    }
}

#[test]
fn an_object_that_does_not_decode_faults_the_task_that_fetched_it() {
    fn program<C: JadeCtx>(ctx: &mut C) -> u64 {
        let x = ctx.create(Lossy(7));
        ctx.withonly(
            "remote",
            |s| {
                s.rd_wr(x);
                s.place(Placement::Machine(MachineId(1)));
            },
            move |c| c.wr(&x).0 += 1,
        );
        ctx.rd(&x).0
    }
    match SimExecutor::new(Platform::dash(2)).execute(RunConfig::new(), program) {
        Err(JadeFault::TaskPanicked { task, message }) => {
            assert!(!task.is_root());
            assert!(message.contains("does not decode"), "{message}");
        }
        other => panic!("expected a decode fault, got {:?}", other.map(|r| r.result)),
    }
}

#[test]
fn single_machine_sim_completes() {
    let (v, report) = SimExecutor::new(Platform::mica(1)).run(chain_program);
    let (serial, _) = jade_core::serial::run(chain_program);
    assert_eq!(v, serial);
    assert!(report.time > SimTime::ZERO);
    assert_eq!(report.machines, 1);
}

// ----------------------------------------------------------------------
// The uniform Runtime::execute entry point over the simulator
// ----------------------------------------------------------------------

#[test]
fn execute_reports_artifacts_and_sim_extras() {
    let (serial, _) = jade_core::serial::run(chain_program);
    let exec = SimExecutor::new(Platform::dash(4));
    let rep = exec.execute(RunConfig::new().profiled(), chain_program).expect("clean run");
    assert_eq!(rep.result, serial);
    assert_eq!(rep.workers, 4);
    assert!(rep.elapsed_nanos > 0);

    let trace = rep.trace.as_ref().expect("trace requested");
    assert_eq!(trace.tasks().iter().filter(|t| !t.is_root()).count() as u64, 9);
    let timeline = rep.timeline.as_ref().expect("timeline requested");
    assert!(timeline.workers() <= 4, "lanes are machine indices");
    assert!(timeline.slices().iter().all(|sl| sl.worker < 4));

    let crit = rep.critical_path().expect("trace + timeline present");
    // The chain serializes all 9 link tasks.
    assert_eq!(crit.length_tasks(), 9);
    assert!(crit.parallelism_bound() + 1e-9 >= crit.measured_speedup());

    let srep = rep.extra::<SimReport>().expect("sim report rides in extras");
    assert_eq!(srep.machines, 4);
    assert!(srep.time > SimTime::ZERO);
}

#[test]
fn execute_maps_suspend_creator_throttle() {
    let exec = SimExecutor::new(Platform::mica(3));
    let rep = exec
        .execute(
            RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 4, lo: 2 }),
            chain_program,
        )
        .expect("clean run");
    let (serial, _) = jade_core::serial::run(chain_program);
    assert_eq!(rep.result, serial);
}

#[test]
fn execute_surfaces_violation_as_typed_fault() {
    let exec = SimExecutor::new(Platform::mica(2));
    let fault = exec
        .execute(RunConfig::new(), |ctx| {
            let x = ctx.create(1.0f64);
            ctx.withonly(
                "sneaky",
                |_s| {},
                move |c| {
                    let _ = *c.rd(&x); // undeclared
                },
            );
            ctx.rd(&x);
        })
        .expect_err("undeclared access must fault");
    match fault {
        JadeFault::SpecViolation { error: JadeError::UndeclaredAccess { .. }, .. } => {}
        other => panic!("expected UndeclaredAccess violation, got {other:?}"),
    }
}

#[test]
fn execute_surfaces_task_panic_as_typed_fault() {
    let exec = SimExecutor::new(Platform::mica(2));
    let fault = exec
        .execute(RunConfig::new(), |ctx| {
            ctx.withonly("bomb", |_s| {}, |_c| panic!("boom 77"));
        })
        .expect_err("panicking task must fault");
    match fault {
        JadeFault::TaskPanicked { message, .. } => assert!(message.contains("boom 77")),
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
}

#[test]
fn observer_sees_wellformed_event_sequence_in_sim() {
    use std::collections::HashMap;

    let collector = EventCollector::new();
    let exec = SimExecutor::new(Platform::dash(3));
    let rep = exec
        .execute(RunConfig::new().with_observer(collector.observer()), chain_program)
        .expect("clean run");
    let events = collector.events();
    assert!(!events.is_empty());

    // Emission index of each lifecycle stage per task.
    let mut created = HashMap::new();
    let mut enabled = HashMap::new();
    let mut dispatched = HashMap::new();
    let mut started = HashMap::new();
    let mut finished = HashMap::new();
    // Note: emission order is not globally time-sorted — message
    // deliveries are stamped with their (future) arrival time when the
    // send is planned. Per-task lifecycle order is what matters.
    let mut times = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        times.insert((ev.task, i), ev.nanos);
        match ev.kind {
            EventKind::TaskCreated { .. } => {
                created.insert(ev.task, i);
            }
            EventKind::TaskEnabled => {
                enabled.insert(ev.task, i);
            }
            EventKind::TaskDispatched { .. } => {
                dispatched.insert(ev.task, i);
            }
            EventKind::TaskStarted { .. } => {
                started.insert(ev.task, i);
            }
            EventKind::TaskFinished { .. } => {
                finished.insert(ev.task, i);
            }
            _ => {}
        }
    }
    assert_eq!(created.len() as u64, rep.stats.tasks_created);
    for (t, &c) in &created {
        let e = enabled[t];
        let d = dispatched[t];
        let s = started[t];
        let f = finished[t];
        assert!(c < e && e < d && d < s && s < f, "lifecycle order violated for {t}");
        let ts = |i| times[&(*t, i)];
        assert!(ts(c) <= ts(e) && ts(e) <= ts(d) && ts(d) <= ts(s) && ts(s) <= ts(f));
    }
}

#[test]
fn no_observer_means_no_artifacts_in_sim() {
    let exec = SimExecutor::new(Platform::mica(2));
    let rep = exec.execute(RunConfig::new(), chain_program).expect("clean run");
    assert!(rep.trace.is_none());
    assert!(rep.timeline.is_none());
    assert!(rep.extra::<SimReport>().is_some(), "extras always carry the sim report");
}
