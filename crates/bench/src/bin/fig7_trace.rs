//! Figure 7 — tracing a Jade execution on two message-passing
//! machines: task shipping to the idle machine, object moves (with
//! invalidation of the old version), read replication, suspension on
//! dynamic conflicts, and latency hiding.
//!
//! Run: `cargo run --release -p jade-bench --bin fig7_trace`

use jade_apps::cholesky::{self, SparseSym};
use jade_core::prelude::*;
use jade_sim::{narrative, Platform, SimExecutor, SimReport};

fn main() {
    // The paper's example factors a 5-column sparse matrix on two
    // machines connected by a network (a Mica-like pair here).
    let a = SparseSym::paper_example();
    let events = EventCollector::new();
    let rep = SimExecutor::new(Platform::mica(2))
        .execute(RunConfig::new().with_observer(events.observer()), move |ctx| {
            cholesky::factor_program(ctx, &a)
        })
        .unwrap_or_else(|fault| panic!("{fault}"));
    let report = rep.extra::<SimReport>().expect("sim runs report a SimReport");
    let log = narrative(&events.events());

    println!("== Figure 7: executing the Jade sparse Cholesky on two machines ==\n");
    print!("{log}");

    println!("\n== summary ==");
    println!("simulated completion: {}", report.time);
    println!(
        "object moves: {}   read copies: {}   ownership upgrades: {}   invalidations: {}",
        report.traffic.moves,
        report.traffic.copies,
        report.traffic.upgrades,
        report.traffic.invalidations
    );
    println!(
        "messages: {}   bytes: {}   medium contention: {:.3}ms",
        report.net.messages,
        report.net.bytes,
        report.net.contention.as_secs_f64() * 1e3
    );

    // The checks that correspond to the paper's narration:
    assert!(
        log.contains("moved from machine 0 to idle machine 1"),
        "some task must be shipped to the idle machine (Fig 7(b)-(c))"
    );
    assert!(report.traffic.moves > 0, "write access must move a column (Fig 7(c))");
    assert!(report.traffic.copies > 0, "read access must replicate (Fig 7(c))");
    assert!(report.traffic.invalidations > 0, "old versions must be invalidated");
    // The factored matrix is still correct.
    let a2 = SparseSym::paper_example();
    let mut want = a2.clone();
    cholesky::serial::factor(&mut want);
    assert_eq!(rep.result.cols, want.cols, "distributed execution preserved serial semantics");
    println!("\nresult identical to the serial factorization — serial semantics preserved.");
}
