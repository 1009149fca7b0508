//! Quickstart: a first Jade program.
//!
//! Jade programs are sequential, imperative programs plus *access
//! declarations*. You decompose data into shared objects, wrap parts
//! of the program in `withonly` tasks declaring how each task accesses
//! those objects, and the runtime extracts the parallelism while
//! preserving the serial program's results.
//!
//! Run with: `cargo run --release --example quickstart`

use jade_core::prelude::*;
use jade_sim::{Platform, SimExecutor, SimReport};
use jade_threads::ThreadedExecutor;

/// The Jade program: a tiny map/reduce over shared objects. Written
/// once, generic over the execution context, it runs unmodified on
/// every executor — the paper's portability claim.
fn program<C: JadeCtx>(ctx: &mut C) -> f64 {
    // 1. Decompose data into shared objects.
    let parts: Vec<Shared<Vec<f64>>> = (0..8)
        .map(|k| {
            ctx.create_named(
                &format!("part{k}"),
                (0..1000).map(|i| (k * 1000 + i) as f64).collect(),
            )
        })
        .collect();
    let total = ctx.create_named("total", 0.0f64);

    // 2. Independent tasks: square every element of each part.
    //    The specs don't conflict, so these run in parallel.
    for &part in &parts {
        ctx.withonly(
            "square",
            |spec| {
                spec.rd_wr(part);
            },
            move |c| {
                c.charge(2_000.0); // simulated work units (ignored on real executors)
                for v in c.wr(&part).iter_mut() {
                    *v = *v * *v;
                }
            },
        );
    }

    // 3. Reduction tasks: each reads one part and adds into the shared
    //    total. Integer-valued additions commute exactly, so we use
    //    the §4.3 higher-level declaration `cm`: the runtime may apply
    //    the updates in any order (serialized, but unordered) instead
    //    of enforcing the program order a `rd_wr` would imply.
    for &part in &parts {
        ctx.withonly(
            "reduce",
            |spec| {
                spec.rd(part);
                spec.cm(total);
            },
            move |c| {
                c.charge(1_000.0);
                let sum: f64 = c.rd(&part).iter().sum();
                *c.cm(&total) += sum;
            },
        );
    }

    // 4. The main program reads the result; Jade makes it wait for
    //    every task that touches `total`, in serial order.
    *ctx.rd(&total)
}

fn main() {
    // Serial elision: the reference semantics (and a debugging aid).
    let (serial, stats) = jade_core::serial::run(program);
    println!("serial elision:      {serial:.0}   ({} tasks)", stats.tasks_created);

    // Real shared-memory threads, through the uniform entry point.
    let threaded = ThreadedExecutor::new(4).execute(RunConfig::new(), program).expect("clean run");
    println!("4 threads:           {:.0}", threaded.result);

    // Simulated message-passing network of heterogeneous workstations.
    // The same `execute` call; the simulator's full report (network
    // traffic, simulated time) rides in `Report::extras`.
    let sim = SimExecutor::new(Platform::workstations(4))
        .execute(RunConfig::new(), program)
        .expect("clean run");
    let srep = sim.extra::<SimReport>().expect("sim extras");
    println!(
        "simulated hetnet x4: {:.0}   (simulated time {}, {} msgs, {} format conversions)",
        sim.result, srep.time, srep.net.messages, srep.traffic.conversions
    );

    assert_eq!(serial, threaded.result);
    assert_eq!(serial, sim.result);
    println!("all executions produced identical results — Jade's serial semantics");
}
