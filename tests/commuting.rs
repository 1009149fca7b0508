//! Cross-executor tests of the §4.3 higher-level access
//! specifications: commuting updates (`cm` declarations) execute in
//! *any* order — but exclusively, and ordered against reads and writes
//! — so order-independent updates produce identical results on every
//! executor despite the scheduling freedom.

#![deny(deprecated)]

use jade_core::prelude::*;
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

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

/// N tasks add integer amounts into one shared accumulator with `cm`,
/// plus interleaved exact multiplications ordered by `wr`. Integer
/// adds commute exactly, so the result is executor-independent even
/// though the commuters run in arbitrary order.
fn histogram_program<C: JadeCtx>(ctx: &mut C) -> (f64, Vec<f64>) {
    let total = ctx.create_named("total", 0.0f64);
    let hist: Vec<Shared<f64>> =
        (0..4).map(|i| ctx.create_named(&format!("bin{i}"), 0.0)).collect();
    // Phase 1: 16 commuting accumulations.
    for i in 0..16u64 {
        let bin = hist[(i % 4) as usize];
        ctx.withonly(
            "accumulate",
            |s| {
                s.cm(total);
                s.cm(bin);
            },
            move |c| {
                c.charge(1e5);
                *c.cm(&total) += (i + 1) as f64;
                *c.cm(&bin) += 1.0;
            },
        );
    }
    // Phase 2: an ordered write must see all accumulations.
    ctx.withonly(
        "scale",
        |s| {
            s.rd_wr(total);
        },
        move |c| {
            c.charge(1e5);
            let v = *c.rd(&total);
            *c.wr(&total) = v * 2.0;
        },
    );
    // Phase 3: more commuters after the write.
    for _ in 0..4 {
        ctx.withonly(
            "post",
            |s| {
                s.cm(total);
            },
            move |c| {
                c.charge(1e5);
                *c.cm(&total) += 0.5;
            },
        );
    }
    let t = *ctx.rd(&total);
    let bins = hist.iter().map(|h| *ctx.rd(h)).collect();
    (t, bins)
}

#[test]
fn commuting_updates_deterministic_everywhere() {
    // sum(1..=16) = 136; doubled = 272; + 4*0.5 = 274.
    let (want, stats) = jade_core::serial::run(histogram_program);
    assert_eq!(want.0, 274.0);
    assert_eq!(want.1, vec![4.0; 4]);
    assert_eq!(stats.tasks_created, 21);
    for workers in [1, 4, 8] {
        let (got, _) = trun(workers, histogram_program);
        assert_eq!(got, want, "threaded x{workers}");
    }
    for platform in [Platform::dash(4), Platform::ipsc860(3), Platform::workstations(4)] {
        let name = platform.name.clone();
        let (got, _) = SimExecutor::new(platform).run(histogram_program);
        assert_eq!(got, want, "sim {name}");
    }
}

#[test]
fn commuters_overlap_outside_their_guards() {
    // Two commuting tasks can be in flight simultaneously (the
    // declaration doesn't serialize the *tasks*, only the accesses).
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let peak = Arc::new(AtomicU64::new(0));
    let cur = Arc::new(AtomicU64::new(0));
    let (peak2, cur2) = (peak.clone(), cur.clone());
    trun(4, move |ctx| {
        let acc = ctx.create(0.0f64);
        for _ in 0..6 {
            let peak = peak2.clone();
            let cur = cur2.clone();
            ctx.withonly(
                "cm-task",
                |s| {
                    s.cm(acc);
                },
                move |c| {
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    *c.cm(&acc) += 1.0;
                    cur.fetch_sub(1, Ordering::SeqCst);
                },
            );
        }
        *ctx.rd(&acc)
    });
    assert!(peak.load(Ordering::SeqCst) >= 2, "commuting tasks never overlapped");
}

#[test]
fn sim_commute_traffic_moves_ownership_lazily() {
    // On a message-passing platform, the accumulator migrates to each
    // commuter at access time; the reader afterwards sees the total.
    let (v, report) = SimExecutor::new(Platform::ipsc860(4)).run(|ctx| {
        let acc = ctx.create(0.0f64);
        for i in 0..8u64 {
            ctx.withonly(
                "add",
                |s| {
                    s.cm(acc);
                },
                move |c| {
                    c.charge(2e6);
                    *c.cm(&acc) += (i + 1) as f64;
                },
            );
        }
        *ctx.rd(&acc)
    });
    assert_eq!(v, 36.0);
    assert!(report.traffic.moves > 0, "the accumulator must migrate between commuters");
}

#[test]
#[should_panic(expected = "undeclared")]
fn cm_access_requires_cm_declaration() {
    jade_core::serial::run(|ctx| {
        let a = ctx.create(0.0f64);
        ctx.withonly(
            "bad",
            |s| {
                s.rd(a);
            },
            move |c| {
                *c.cm(&a) += 1.0;
            },
        );
    });
}

#[test]
#[should_panic(expected = "did not declare")]
fn child_commute_needs_parent_coverage() {
    jade_core::serial::run(|ctx| {
        let a = ctx.create(0.0f64);
        ctx.withonly(
            "parent-read-only",
            |s| {
                s.rd(a);
            },
            move |c| {
                c.withonly(
                    "kid",
                    |s| {
                        s.cm(a);
                    },
                    move |cc| {
                        *cc.cm(&a) += 1.0;
                    },
                );
            },
        );
    });
}
