//! The simulator's schedule, pinned.
//!
//! Fixed programs run on `Platform::ipsc860(4)` under an event
//! collector; virtual completion time, message count and a hash of the
//! narrative rendered from the events are compared against literals.
//! Two run with the default configuration; two more enter the paths
//! those never reach — the throttled main program resumed from inside
//! another task's completion, and crash recovery over a lossy network.
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
    let (got, print, _) = pinned_with(SimExecutor::new(Platform::ipsc860(4)), RunConfig::new(), program);
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
    assert_eq!(print, (70_467_430, 100, 8_673_295_841_905_109_862));
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
fn faulted_hierarchy_with_cont_schedule_is_pinned() {
    let (serial, _) = jade_core::serial::run(hierarchy_with_cont);
    // Machine 1 crashes at its first start boundary with two stage
    // tasks queued whose fetches are in flight: both are reassigned and
    // their late arrivals swallowed (`stale_fetches`; confirmed by
    // instrumenting the loop when this pin was taken).
    let plan = FaultPlan::new(7).drop_prob(0.1).crash(1, 0, SimSpan::from_millis(15));
    let (got, print, (sim, log)) = pinned_with(
        SimExecutor::new(Platform::ipsc860(4)).faults(plan),
        RunConfig::new(),
        hierarchy_with_cont,
    );
    assert_eq!(got, serial);
    assert!(sim.net.retransmits > 0, "10% loss should force a resend:\n{sim}");
    assert_eq!(sim.faults.crashes, 1, "the armed crash should fire:\n{sim}");
    assert_eq!(sim.faults.recoveries, 2, "the crash should strand two queued tasks:\n{sim}");
    assert!(log.contains("recovered from crashed machine 1"), "{log}");
    assert_eq!(print, (83_718_714, 115, 16_571_583_526_431_613_958));
}

#[test]
fn canonical_names_tasks_by_first_appearance() {
    let log = "creates task task#17 [a]\nstarts task#33g2 [b]\ntask#17 resumes, task#root waits\n";
    assert_eq!(canonical(log), "creates task T0 [a]\nstarts T1 [b]\nT0 resumes, T2 waits\n");
}
