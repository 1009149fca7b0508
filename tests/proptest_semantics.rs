//! Property-based testing of the core guarantee: for *arbitrary*
//! well-formed Jade programs — random object counts, random task
//! declaration sets (including deferred declarations converted and
//! retired mid-task), random nested children — the threaded executor
//! produces bitwise the same results as the serial elision.

#![deny(deprecated)]

use proptest::prelude::*;

use jade_core::prelude::*;
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

/// One declared access in a generated task.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Rd,
    RdWr,
    DfRd,
    DfRdWr,
}

/// A generated task: declarations plus an optional child (whose
/// declarations are a subset with covered modes).
#[derive(Debug, Clone)]
struct Plan {
    decls: Vec<(usize, Mode)>,
    child: Option<Vec<(usize, Mode)>>,
    salt: u32,
}

fn mode_strategy() -> impl Strategy<Value = Mode> {
    prop_oneof![Just(Mode::Rd), Just(Mode::RdWr), Just(Mode::DfRd), Just(Mode::DfRdWr),]
}

fn plan_strategy(n_objects: usize) -> impl Strategy<Value = Plan> {
    let decls =
        proptest::collection::vec((0..n_objects, mode_strategy()), 1..4).prop_map(|mut v| {
            // One declaration per object: keep the strongest-first one.
            v.sort_by_key(|(o, _)| *o);
            v.dedup_by_key(|(o, _)| *o);
            v
        });
    (decls, any::<u32>(), any::<bool>()).prop_map(|(decls, salt, with_child)| {
        let child = if with_child {
            // Child redeclares a subset; a child Rd is covered by any
            // parent mode here (all parent modes include read rights).
            Some(
                decls
                    .iter()
                    .filter(|(o, _)| o % 2 == 0)
                    .map(|&(o, m)| {
                        let cm = match m {
                            Mode::Rd | Mode::DfRd => Mode::Rd,
                            Mode::RdWr | Mode::DfRdWr => Mode::RdWr,
                        };
                        (o, cm)
                    })
                    .collect::<Vec<_>>(),
            )
            .filter(|c: &Vec<_>| !c.is_empty())
        } else {
            None
        };
        Plan { decls, child, salt }
    })
}

fn declare(s: &mut SpecBuilder, decls: &[(usize, Mode)], objs: &[Shared<f64>]) {
    for &(o, m) in decls {
        match m {
            Mode::Rd => {
                s.rd(objs[o]);
            }
            Mode::RdWr => {
                s.rd_wr(objs[o]);
            }
            Mode::DfRd => {
                s.df_rd(objs[o]);
            }
            Mode::DfRdWr => {
                s.df_rd(objs[o]);
                s.df_wr(objs[o]);
            }
        }
    }
}

fn body<C: JadeCtx>(c: &mut C, decls: &[(usize, Mode)], objs: &[Shared<f64>], salt: u32) {
    let mut acc = salt as f64 / 4096.0;
    for &(o, m) in decls {
        let h = objs[o];
        match m {
            Mode::Rd => {
                acc += *c.rd(&h);
            }
            Mode::RdWr => {
                let v = *c.rd(&h);
                *c.wr(&h) = v * 1.0009765625 + acc + 1.0;
                acc += v;
            }
            Mode::DfRd => {
                c.with_cont(|b| {
                    b.to_rd(h);
                });
                acc += *c.rd(&h);
                c.with_cont(|b| {
                    b.no_rd(h);
                });
            }
            Mode::DfRdWr => {
                c.with_cont(|b| {
                    b.to_rd(h);
                    b.to_wr(h);
                });
                let v = *c.rd(&h);
                *c.wr(&h) = v * 0.9990234375 - acc;
                c.with_cont(|b| {
                    b.no_rd(h);
                    b.no_wr(h);
                });
                acc -= v;
            }
        }
    }
}

/// Run a generated program on any executor.
fn program<C: JadeCtx>(ctx: &mut C, n_objects: usize, plans: &[Plan]) -> Vec<f64> {
    let objs: Vec<Shared<f64>> =
        (0..n_objects).map(|i| ctx.create_named(&format!("o{i}"), i as f64 + 0.5)).collect();
    for (i, plan) in plans.iter().enumerate() {
        let decls = plan.decls.clone();
        let child = plan.child.clone();
        let salt = plan.salt;
        let objs2 = objs.clone();
        let spec_decls = plan.decls.clone();
        let spec_objs = objs.clone();
        ctx.withonly(
            &format!("task{i}"),
            move |s| declare(s, &spec_decls, &spec_objs),
            move |c| {
                body(c, &decls, &objs2, salt);
                if let Some(cd) = child {
                    let inner_objs = objs2.clone();
                    let spec_cd = cd.clone();
                    let spec_objs = objs2.clone();
                    c.withonly(
                        "child",
                        move |s| declare(s, &spec_cd, &spec_objs),
                        move |cc| body(cc, &cd, &inner_objs, salt ^ 0xABCD),
                    );
                }
            },
        );
    }
    objs.iter().map(|o| *ctx.rd(o)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn threaded_matches_serial_elision(
        n_objects in 1usize..6,
        plans in proptest::collection::vec(plan_strategy(6), 1..10),
    ) {
        // Clamp declared object indices into range.
        let plans: Vec<Plan> = plans
            .into_iter()
            .map(|mut p| {
                for d in &mut p.decls {
                    d.0 %= n_objects;
                }
                let mut seen = vec![false; n_objects];
                p.decls.retain(|(o, _)| !std::mem::replace(&mut seen[*o], true));
                if let Some(c) = &mut p.child {
                    for d in c.iter_mut() {
                        d.0 %= n_objects;
                    }
                    let mut seen = vec![false; n_objects];
                    c.retain(|(o, _)| !std::mem::replace(&mut seen[*o], true));
                    // Child decls must be covered by parent decls.
                    let parent: Vec<usize> = p.decls.iter().map(|(o, _)| *o).collect();
                    c.retain(|(o, _)| parent.contains(o));
                    // And modes must be covered by rights the parent
                    // still holds when the child is created: the
                    // generated bodies retire deferred declarations
                    // (no_rd/no_wr) before spawning, so children may
                    // only use the parent's immediate declarations.
                    c.retain(|(o, m)| {
                        let pm = p.decls.iter().find(|(po, _)| po == o).unwrap().1;
                        match m {
                            Mode::Rd => matches!(pm, Mode::Rd | Mode::RdWr),
                            Mode::RdWr => matches!(pm, Mode::RdWr),
                            _ => false,
                        }
                    });
                    if c.is_empty() {
                        p.child = None;
                    }
                }
                p
            })
            .collect();

        let (want, _) = jade_core::serial::run(|ctx| program(ctx, n_objects, &plans));
        for workers in [1usize, 4] {
            let ps = plans.clone();
            let (got, _) = trun(workers, move |ctx| program(ctx, n_objects, &ps));
            prop_assert_eq!(&got, &want, "workers={}", workers);
        }
        // Throttling changes scheduling, never results — also when the
        // tasks the throttled main program creates create tasks.
        let ps = plans.clone();
        let (throttled, _) = ThreadedExecutor::new(2)
            .execute(
                RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 2, lo: 1 }),
                move |ctx| program(ctx, n_objects, &ps),
            )
            .unwrap_or_else(|fault| panic!("{fault}"))
            .into_parts();
        prop_assert_eq!(&throttled, &want);
    }
}
