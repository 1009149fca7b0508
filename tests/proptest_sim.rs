//! Property tests of the distributed runtime: arbitrary task DAGs run
//! on arbitrary simulated platforms produce the serial elision's
//! results bit for bit, and simulations replay deterministically.

use proptest::prelude::*;

use jade_core::prelude::*;
use jade_sim::{Granularity, Platform, SimExecutor};

#[derive(Debug, Clone)]
struct Step {
    obj: usize,
    write: bool,
    extra_read: usize,
    work: u32,
}

fn step_strategy(n_objects: usize) -> impl Strategy<Value = Step> {
    (0..n_objects, any::<bool>(), 0..n_objects, 1u32..2000)
        .prop_map(|(obj, write, extra_read, work)| Step { obj, write, extra_read, work })
}

fn program<C: JadeCtx>(ctx: &mut C, n_objects: usize, steps: &[Step]) -> Vec<f64> {
    let objs: Vec<Shared<f64>> =
        (0..n_objects).map(|i| ctx.create_named(&format!("o{i}"), 1.0 + i as f64)).collect();
    for (i, st) in steps.iter().enumerate() {
        let a = objs[st.obj];
        let b = objs[st.extra_read];
        let write = st.write && st.obj != st.extra_read;
        let work = st.work as f64 * 1e3;
        ctx.withonly(
            &format!("s{i}"),
            |s| {
                if write {
                    s.rd_wr(a);
                    s.rd(b);
                } else {
                    s.rd(a);
                }
            },
            move |c| {
                c.charge(work);
                if write {
                    let other = *c.rd(&b);
                    let v = *c.rd(&a);
                    *c.wr(&a) = v * 1.00048828125 + other;
                } else {
                    let _ = *c.rd(&a);
                }
            },
        );
    }
    objs.iter().map(|o| *ctx.rd(o)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn sim_preserves_serial_semantics(
        n_objects in 1usize..5,
        raw_steps in proptest::collection::vec(step_strategy(5), 1..12),
        machines in 1usize..6,
        platform_pick in 0usize..4,
    ) {
        let steps: Vec<Step> = raw_steps
            .into_iter()
            .map(|mut s| {
                s.obj %= n_objects;
                s.extra_read %= n_objects;
                s
            })
            .collect();
        let (want, _) = jade_core::serial::run(|ctx| program(ctx, n_objects, &steps));
        let platform = match platform_pick {
            0 => Platform::dash(machines),
            1 => Platform::ipsc860(machines),
            2 => Platform::mica(machines),
            _ => Platform::workstations(machines),
        };
        let name = platform.name.clone();
        let steps2 = steps.clone();
        let (got, report) =
            SimExecutor::new(platform.clone()).run(move |ctx| program(ctx, n_objects, &steps2));
        prop_assert_eq!(&got, &want, "platform {} x{}", name, machines);

        // Determinism: an identical run replays identically.
        let steps3 = steps.clone();
        let (got2, report2) =
            SimExecutor::new(platform.clone()).run(move |ctx| program(ctx, n_objects, &steps3));
        prop_assert_eq!(got2, got);
        prop_assert_eq!(report2.time, report.time);
        prop_assert_eq!(report2.net.messages, report.net.messages);
        prop_assert_eq!(report2.net.bytes, report.net.bytes);

        // The page-DSM baseline changes traffic, never values.
        let steps4 = steps.clone();
        let (dsm, _) = SimExecutor::new(platform)
            .granularity(Granularity::Page(4096))
            .run(move |ctx| program(ctx, n_objects, &steps4));
        prop_assert_eq!(dsm, want);
    }

    #[test]
    fn sim_knobs_never_change_results(
        n_objects in 1usize..4,
        raw_steps in proptest::collection::vec(step_strategy(4), 1..10),
        locality in any::<bool>(),
        lookahead in 0usize..4,
        throttle in any::<bool>(),
    ) {
        let steps: Vec<Step> = raw_steps
            .into_iter()
            .map(|mut s| {
                s.obj %= n_objects;
                s.extra_read %= n_objects;
                s
            })
            .collect();
        let (want, _) = jade_core::serial::run(|ctx| program(ctx, n_objects, &steps));
        let exec = SimExecutor::new(Platform::ipsc860(3))
            .locality(locality)
            .lookahead(lookahead);
        let cfg = RunConfig::new().with_throttle(if throttle {
            Throttle::SuspendCreator { hi: 4, lo: 2 }
        } else {
            Throttle::None
        });
        let steps2 = steps.clone();
        let got = exec
            .execute(cfg, move |ctx| program(ctx, n_objects, &steps2))
            .unwrap_or_else(|fault| panic!("{fault}"))
            .result;
        prop_assert_eq!(got, want);
    }
}
