//! The paper's running example: sparse Cholesky factorization with
//! dynamically discovered, data-dependent concurrency (§3), composed
//! with the §4.2 pipelined back substitution.
//!
//! Run with: `cargo run --release --example sparse_cholesky`

use jade_apps::cholesky::{self, SparseSym, SubstMode};
use jade_sim::{Platform, RunConfig, Runtime, SimExecutor, SimReport};
use jade_threads::ThreadedExecutor;

fn main() {
    let n = 200;
    let a = SparseSym::random_spd(n, 6, 2026);
    println!("matrix: n={n}, below-diagonal nnz (with fill) = {}", a.pattern.nnz());

    // Reference: the plain serial program.
    let mut l_serial = a.clone();
    cholesky::serial::factor(&mut l_serial);

    // The Jade program on real threads.
    let a1 = a.clone();
    let frep = ThreadedExecutor::new(4)
        .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a1))
        .expect("clean run");
    let stats = frep.stats;
    assert_eq!(frep.result.cols, l_serial.cols, "parallel factor must equal serial");
    println!(
        "threaded factor: {} tasks, {} dependence conflicts detected",
        stats.tasks_created, stats.conflicts
    );

    // Solve A·x = b, pipelining the substitution into the
    // factorization with deferred reads.
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();
    let a2 = a.clone();
    let b2 = b.clone();
    let y = ThreadedExecutor::new(4)
        .execute(RunConfig::new(), move |ctx| {
            cholesky::factor_then_subst(ctx, &a2, &b2, SubstMode::Pipelined)
        })
        .expect("clean run")
        .result;
    let y_ref = cholesky::serial::forward_subst(&l_serial, &b);
    assert_eq!(y, y_ref);
    println!("pipelined forward substitution matches the serial solve");

    // The same program on a simulated 8-node iPSC/860, with the
    // task-boundary vs pipelined comparison the paper motivates.
    for mode in [SubstMode::TaskBoundary, SubstMode::Pipelined] {
        let a3 = a.clone();
        let b3 = b.clone();
        let srep = SimExecutor::new(Platform::ipsc860(8))
            .execute(RunConfig::new(), move |ctx| cholesky::factor_then_subst(ctx, &a3, &b3, mode))
            .expect("clean run");
        let report = srep.extra::<SimReport>().expect("sim extras");
        println!(
            "iPSC/860 x8, {mode:?}: simulated time {}, {} object moves, {} copies",
            report.time, report.traffic.moves, report.traffic.copies
        );
    }

    // Supernodal variant: coarser objects and tasks (§3.2).
    let a4 = a.clone();
    let sn_stats = ThreadedExecutor::new(4)
        .execute(RunConfig::new(), move |ctx| cholesky::factor_super_program(ctx, &a4))
        .expect("clean run")
        .stats;
    println!(
        "supernodal factor: {} tasks (columnwise used {})",
        sn_stats.tasks_created, stats.tasks_created
    );
}
