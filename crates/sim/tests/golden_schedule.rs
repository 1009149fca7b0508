//! The simulator's schedule, pinned.
//!
//! Fixed programs run under an event collector; virtual completion
//! time, message count and a hash of the narrative rendered from the
//! events are compared against literals. Two run on
//! `Platform::ipsc860(4)` with the default configuration; two more
//! enter the paths those never reach — the throttled main program
//! resumed from inside another task's completion, and crash recovery
//! under delayed messages. Three pin the placement scan's decisions: an
//! affinity tie-break between equally idle machines (the locality
//! heuristic), device-placed stages on the HRV platform (a task no
//! machine with room is eligible for), and unlike workstations with
//! room for one task each (every machine full after almost every scan).
//! The simulator is deterministic, so any change in the order the
//! dependency engine wakes tasks shows up here as a different event
//! order or makespan.
//!
//! Task ids name slab slots and are therefore an engine implementation
//! detail; before hashing, every `task#…` token in the log is replaced
//! by the ordinal of its first appearance (its creation event), so the
//! hash pins *which task did what when*, not how ids are minted.

use std::collections::HashMap;

use jade_core::prelude::*;
use jade_sim::{narrative, FaultPlan, Platform, SimCtx, SimExecutor, SimReport, SimSpan};

/// Replace each distinct `task#<id>` token by `T<k>`, `k` counting
/// distinct tokens in order of first appearance.
fn canonical(log: &str) -> String {
    let mut names: HashMap<&str, usize> = HashMap::new();
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    while let Some(at) = rest.find("task#") {
        out.push_str(&rest[..at]);
        let tail = &rest[at..];
        let len = "task#".len()
            + tail["task#".len()..]
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(tail.len() - "task#".len());
        let next = names.len();
        let k = *names.entry(&tail[..len]).or_insert(next);
        out.push_str(&format!("T{k}"));
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Run `program` on the pinned platform; its result and the
/// `(time, messages, narrative hash)` fingerprint of the schedule.
fn pinned<R: Send + 'static>(program: fn(&mut SimCtx) -> R) -> (R, (u64, u64, u64)) {
    let (got, print, _) =
        pinned_with(SimExecutor::new(Platform::ipsc860(4)), RunConfig::new(), program);
    (got, print)
}

/// [`pinned`] under the given executor policies and run configuration;
/// also returns the report and the narrative, for asserting that the
/// run entered the path it is meant to pin.
fn pinned_with<R: Send + 'static>(
    exec: SimExecutor,
    cfg: RunConfig,
    program: fn(&mut SimCtx) -> R,
) -> (R, (u64, u64, u64), (SimReport, String)) {
    let events = EventCollector::new();
    let rep = exec.execute(cfg.with_observer(events.observer()), program).expect("clean run");
    let sim = rep.extra::<SimReport>().expect("sim runs report a SimReport").clone();
    let log = narrative(&events.events());
    let print = (sim.time.0, sim.net.messages, fnv1a(&canonical(&log)));
    (rep.result, print, (sim, log))
}

/// Column Cholesky with the declaration shape of
/// `jade_apps::cholesky::factor_jade` (Figure 6): per column one
/// `Internal` task on `{rd_wr col, rd pattern}` and per below-diagonal
/// entry one `External` task on `{rd_wr target, rd source, rd pattern}`.
fn cholesky<C: JadeCtx>(ctx: &mut C) -> Vec<Vec<f64>> {
    const N: usize = 14;
    // Fixed sparsity: column i updates columns i+1, i+3 and i+4.
    let rows: Vec<Vec<usize>> =
        (0..N).map(|i| [i + 1, i + 3, i + 4].into_iter().filter(|&j| j < N).collect()).collect();
    let pat = ctx.create_named("row_indices", rows.clone());
    // Diagonally dominant values keep every pivot positive.
    let cols: Vec<Shared<Vec<f64>>> = (0..N)
        .map(|i| {
            let mut col = vec![8.0 + i as f64];
            col.extend(rows[i].iter().map(|&j| 1.0 / (1 + i + j) as f64));
            ctx.create_named(&format!("column{i}"), col)
        })
        .collect();
    for i in 0..N {
        let col_i = cols[i];
        let len_i = rows[i].len() + 1;
        ctx.withonly(
            &format!("Internal({i})"),
            |s| {
                s.rd_wr(col_i);
                s.rd(pat);
            },
            move |c| {
                c.charge(2e4 * len_i as f64);
                let _pat = c.rd(&pat);
                let mut col = c.wr(&col_i);
                let d = col[0].sqrt();
                for v in col.iter_mut() {
                    *v /= d;
                }
            },
        );
        for (k, &j) in rows[i].iter().enumerate() {
            let col_j = cols[j];
            ctx.withonly(
                &format!("External({i}->{j})"),
                |s| {
                    s.rd_wr(col_j);
                    s.rd(col_i);
                    s.rd(pat);
                },
                move |c| {
                    c.charge(3e4 * (len_i - k) as f64);
                    let pat = c.rd(&pat);
                    let ci = c.rd(&col_i);
                    let mut cj = c.wr(&col_j);
                    let l = ci[k + 1];
                    cj[0] -= l * l;
                    // Scatter the rest of column i into column j's rows.
                    for (p, &r) in pat[i].iter().enumerate().skip(k + 1) {
                        if let Some(q) = pat[j].iter().position(|&rj| rj == r) {
                            cj[q + 1] -= l * ci[p + 1];
                        }
                    }
                },
            );
        }
    }
    cols.iter().map(|h| ctx.rd(h).clone()).collect()
}

/// Hierarchy and `with-cont` together: stage tasks spawn children that
/// write their cells (the parent cedes and regains access), a
/// pipelined consumer converts deferred reads one cell at a time and
/// retires them, and a commuting accumulator is updated by every stage.
fn hierarchy_with_cont<C: JadeCtx>(ctx: &mut C) -> (Vec<f64>, f64, f64) {
    const STAGES: usize = 4;
    const CELLS: usize = 3;
    let cells: Vec<Vec<Shared<f64>>> = (0..STAGES)
        .map(|s| (0..CELLS).map(|k| ctx.create((s * CELLS + k) as f64)).collect())
        .collect();
    let total = ctx.create(0.0f64);
    let out = ctx.create(0.0f64);
    for (s, stage) in cells.iter().enumerate() {
        let spec = stage.clone();
        let body = stage.clone();
        ctx.withonly(
            &format!("stage{s}"),
            |b| {
                for &c in &spec {
                    b.rd_wr(c);
                }
                b.cm(total);
            },
            move |c| {
                c.charge(1e5);
                for (k, &cell) in body.iter().enumerate() {
                    c.withonly(
                        &format!("leaf{s}.{k}"),
                        |b| {
                            b.rd_wr(cell);
                        },
                        move |cc| {
                            cc.charge(4e5 + 1e5 * k as f64);
                            *cc.wr(&cell) += 0.5;
                        },
                    );
                }
                // The parent resumes only after its children, in
                // serial order: this read waits for every leaf.
                let sum: f64 = body.iter().map(|cell| *c.rd(cell)).sum();
                *c.cm(&total) += sum;
                // Done with the accumulator: let the next stage in.
                c.with_cont(|b| {
                    b.no_cm(total);
                });
                c.charge(2e5);
            },
        );
    }
    let flat: Vec<Shared<f64>> = cells.iter().flatten().copied().collect();
    let (spec, body) = (flat.clone(), flat.clone());
    ctx.withonly(
        "consume",
        |b| {
            b.rd_wr(out);
            for &c in &spec {
                b.df_rd(c);
            }
        },
        move |c| {
            let mut acc = 0.0;
            for &cell in &body {
                c.with_cont(|b| {
                    b.to_rd(cell);
                });
                c.charge(5e4);
                acc += *c.rd(&cell);
                c.with_cont(|b| {
                    b.no_rd(cell);
                });
            }
            *c.wr(&out) = acc;
        },
    );
    let values = flat.iter().map(|c| *ctx.rd(c)).collect();
    (values, *ctx.rd(&total), *ctx.rd(&out))
}

/// Creators that create: eight parents update a commuting sum and
/// spawn three children each on their own cell. Under the lowest
/// watermarks the main program suspends after every `withonly` and is
/// resumed from inside the completion of whichever task drains the
/// backlog — a step of the root nested in another task's `Done`.
fn nested_creators<C: JadeCtx>(ctx: &mut C) -> f64 {
    let sum = ctx.create(0.0f64);
    let xs: Vec<Shared<f64>> = (0..8).map(|i| ctx.create(i as f64)).collect();
    for (i, &x) in xs.iter().enumerate() {
        ctx.withonly(
            &format!("parent{i}"),
            |s| {
                s.cm(sum);
                s.rd_wr(x);
            },
            move |c| {
                c.charge(5e4);
                *c.cm(&sum) += 1.0;
                for k in 0..3 {
                    c.withonly(
                        &format!("child{i}.{k}"),
                        |s| {
                            s.rd_wr(x);
                        },
                        move |cc| {
                            cc.charge(1e5 + 2e4 * k as f64);
                            *cc.wr(&x) += 1.0;
                        },
                    );
                }
                // Regain the cell after the children, in serial order.
                *c.wr(&x) *= 2.0;
            },
        );
    }
    *ctx.rd(&sum) + xs.iter().map(|x| *ctx.rd(x)).sum::<f64>()
}

/// Tasks that alternate between two 32 KiB objects, each task placed
/// while several machines are equally idle: the one already holding the
/// task's object wins on affinity (the locality heuristic of §5).
fn affine<C: JadeCtx>(ctx: &mut C) -> f64 {
    let a = ctx.create_named("a", vec![0.0f64; 4096]);
    let b = ctx.create_named("b", vec![0.0f64; 4096]);
    for round in 0..12 {
        let big = if round % 2 == 0 { a } else { b };
        ctx.withonly(
            &format!("touch{round}"),
            |s| {
                s.rd_wr(big);
            },
            move |c| {
                c.charge(5e5);
                c.wr(&big)[0] += 1.0;
            },
        );
    }
    ctx.rd(&a)[0] + ctx.rd(&b)[0]
}

/// A capture → transform → display pipeline shaped like
/// `jade_apps::video` (§7.2), written here because this crate cannot
/// depend on the applications: every stage names a device class, so on
/// the HRV platform captures run only on the SPARC host and transforms
/// and displays only on the accelerators. All captures are enabled at
/// once and queue behind the host's lookahead while the accelerators
/// still have room; displays update the screen in frame order.
fn video<C: JadeCtx>(ctx: &mut C) -> (Vec<u64>, u64) {
    const FRAMES: usize = 10;
    const PIXELS: u64 = 256;
    let screen = ctx.create_named("screen", 0u64);
    let mut shown = Vec::with_capacity(FRAMES);
    for f in 0..FRAMES {
        let frame = ctx.create_named(&format!("frame{f}"), Vec::<u64>::new());
        let out = ctx.create_named(&format!("shown{f}"), 0u64);
        shown.push(out);
        ctx.withonly(
            &format!("Capture({f})"),
            |s| {
                s.rd_wr(frame);
                s.place(Placement::Device(DeviceClass::FrameSource));
            },
            move |c| {
                c.charge(6e4);
                *c.wr(&frame) = (0..PIXELS).map(|p| p * 31 + f as u64).collect();
            },
        );
        ctx.withonly(
            &format!("Transform({f})"),
            |s| {
                s.rd_wr(frame);
                s.place(Placement::Device(DeviceClass::Accelerator));
            },
            move |c| {
                c.charge(3e5);
                c.wr(&frame).iter_mut().for_each(|p| *p = p.wrapping_mul(2_654_435_761) >> 7);
            },
        );
        ctx.withonly(
            &format!("Display({f})"),
            |s| {
                s.rd(frame);
                s.rd_wr(out);
                s.rd_wr(screen);
                s.place(Placement::Device(DeviceClass::Display));
            },
            move |c| {
                c.charge(1e5);
                let sum = c.rd(&frame).iter().fold(0u64, |h, &p| h.rotate_left(5) ^ p);
                *c.wr(&out) = sum;
                let mut scr = c.wr(&screen);
                *scr = scr.rotate_left(7) ^ sum;
            },
        );
    }
    (shown.iter().map(|s| *ctx.rd(s)).collect(), *ctx.rd(&screen))
}

#[test]
fn cholesky_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(cholesky);
    let (got, print) = pinned(cholesky);
    assert_eq!(got, serial);
    assert_eq!(print, (65_851_424, 143, 15_162_445_214_825_020_909));
}

#[test]
fn hierarchy_with_cont_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(hierarchy_with_cont);
    let (got, print) = pinned(hierarchy_with_cont);
    assert_eq!(got, serial);
    assert_eq!(print, (70_467_430, 94, 17_669_710_371_903_786_841));
}

#[test]
fn throttled_nested_creators_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(nested_creators);
    let (got, print, (_, log)) = pinned_with(
        SimExecutor::new(Platform::ipsc860(4)),
        RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 2, lo: 2 }),
        nested_creators,
    );
    assert_eq!(got, serial);
    let resumes = log.lines().filter(|l| l.contains("[root] resumes")).count();
    assert!(resumes >= 4, "the main program should suspend and resume repeatedly:\n{log}");
    assert_eq!(print, (87_286_860, 84, 13_357_633_377_620_464_099));
}

#[test]
fn spiked_crash_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(hierarchy_with_cont);
    // Seeded delay spikes perturb message timing. Machine 1 crashes at
    // its first start boundary with two stage tasks queued: both are
    // reassigned, and the fetch still in flight for one of them
    // arrives late and is swallowed (the task record's `stale` count;
    // confirmed by instrumenting the loop when this pin was taken).
    let plan = FaultPlan::new(7).delay_spikes(0.1, SimSpan::from_millis(2)).crash(
        1,
        0,
        SimSpan::from_millis(15),
    );
    let (got, print, (sim, log)) = pinned_with(
        SimExecutor::new(Platform::ipsc860(4)).faults(plan),
        RunConfig::new(),
        hierarchy_with_cont,
    );
    assert_eq!(got, serial);
    assert_eq!(sim.faults.crashes, 1, "the armed crash should fire:\n{sim}");
    assert_eq!(sim.faults.recoveries, 2, "the crash should strand two queued tasks:\n{sim}");
    assert!(log.contains("recovered from crashed machine 1"), "{log}");
    assert_eq!(print, (89_760_430, 109, 45_349_460_015_427_806));
}

#[test]
fn placement_constrained_pipeline_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(video);
    let events = EventCollector::new();
    let rep = SimExecutor::new(Platform::hrv(2))
        .execute(RunConfig::new().with_observer(events.observer()), video)
        .expect("clean run");
    let sim = rep.extra::<SimReport>().expect("sim runs report a SimReport").clone();
    assert_eq!(rep.result, serial);
    let events = events.events();
    // Some accelerator task is placed while an earlier-enabled capture
    // stays in the ready pool: a scan met a task no machine with room
    // is eligible for, and went on to place later ones.
    let mut labels: HashMap<TaskId, String> = HashMap::new();
    let mut waiting: Vec<TaskId> = Vec::new();
    let mut overtaken = 0;
    for ev in &events {
        match &ev.kind {
            EventKind::TaskCreated { label, .. } => {
                labels.insert(ev.task, label.clone());
            }
            EventKind::TaskEnabled => waiting.push(ev.task),
            EventKind::TaskDispatched { worker } => {
                let at =
                    waiting.iter().position(|&t| t == ev.task).expect("dispatched once enabled");
                let label = &labels[&ev.task];
                let capture_ahead = waiting[..at].iter().any(|t| labels[t].starts_with("Capture"));
                if capture_ahead && !label.starts_with("Capture") {
                    assert_ne!(*worker, 0, "{label} placed on the frame source");
                    overtaken += 1;
                }
                waiting.remove(at);
            }
            _ => {}
        }
    }
    assert!(overtaken > 0, "no capture waited while an accelerator had room");
    let print = (sim.time.0, sim.net.messages, fnv1a(&canonical(&narrative(&events))));
    assert_eq!(print, (55_770_480, 94, 10_156_824_670_750_259_509));
}

#[test]
fn lookahead_zero_on_heterogeneous_workstations_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(cholesky);
    // Unlike layouts and speeds, and room for one task per machine:
    // nearly every scan fills every machine and leaves tasks waiting.
    let (got, print, (sim, _)) = pinned_with(
        SimExecutor::new(Platform::workstations(4)).lookahead(0),
        RunConfig::new(),
        cholesky,
    );
    assert_eq!(got, serial);
    assert!(sim.traffic.conversions > 0, "transfers should cross data formats:\n{sim}");
    assert_eq!(print, (241_531_072, 164, 2_037_268_877_994_542_516));
}

#[test]
fn locality_decided_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(affine);
    let (got, print) = pinned(affine);
    assert_eq!(got, serial);
    let unaware = SimExecutor::new(Platform::ipsc860(4)).locality(false);
    let (_, without, _) = pinned_with(unaware, RunConfig::new(), affine);
    assert_ne!(print, without, "affinity should decide some placement");
    assert_eq!(print, (111_687_714, 20, 10_792_227_288_176_652_326));
}

#[test]
fn canonical_names_tasks_by_first_appearance() {
    let log = "creates task task#17 [a]\nstarts task#33g2 [b]\ntask#17 resumes, task#root waits\n";
    assert_eq!(canonical(log), "creates task T0 [a]\nstarts T1 [b]\nT0 resumes, T2 waits\n");
}
