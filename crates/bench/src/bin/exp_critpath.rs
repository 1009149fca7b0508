//! E-CRITPATH — critical-path analysis of the dynamic task graphs.
//!
//! Runs sparse Cholesky, the liquid water simulation (LWS), and
//! parallel make through the uniform [`Runtime::execute`] entry point
//! with full profiling, then reports for each application:
//!
//! * the critical path (longest dependence chain weighted by each
//!   task's measured busy time — `T_∞`, the span),
//! * the achievable speedup bound `W / T_∞` the access specifications
//!   expose (the quantitative form of the paper's §8 discussion), and
//! * the measured speedup `W / T_p` the simulated platform achieved.
//!
//! The bound must dominate the measured speedup on every run; the
//! binary asserts it. `--small` shrinks the inputs for CI;
//! `--trace-out PATH` additionally writes the Cholesky run's
//! per-machine timeline as Chrome-trace JSON (load it in
//! `chrome://tracing` or Perfetto).
//!
//! Run with: `cargo run --release -p jade-bench --bin exp_critpath`

use jade_apps::{cholesky, lws, pmake};
use jade_bench::platform_by_name;
use jade_core::runtime::{Report, RunConfig, Runtime};
use jade_sim::SimExecutor;

fn analyze<R>(name: &str, rep: &Report<R>) {
    let crit = rep.critical_path().expect("profiled run has trace + timeline");
    let bound = crit.parallelism_bound();
    let measured = crit.measured_speedup();
    println!("{name:>10}: {}", crit.summary());
    assert!(
        bound + 1e-9 >= measured,
        "{name}: critical-path bound {bound:.3}x fell below measured speedup {measured:.3}x"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());

    let machines = 4;
    let platform = || platform_by_name("dash", machines);
    println!("critical-path analysis on simulated {} x{machines}", platform().name);

    // Sparse Cholesky factorization (§3).
    let n = if small { 24 } else { 120 };
    let a = cholesky::SparseSym::random_spd(n, 4, 92);
    let chol = SimExecutor::new(platform())
        .execute(RunConfig::new().profiled(), move |ctx| cholesky::factor_program(ctx, &a))
        .expect("clean run");
    analyze("cholesky", &chol);
    if let Some(path) = trace_out {
        let json = chol.timeline.as_ref().expect("profiled").to_chrome_json();
        std::fs::write(&path, json).expect("write chrome trace");
        println!("            wrote Chrome-trace JSON to {path}");
    }

    // Liquid water simulation, one timestep (§7.3).
    let molecules = if small { 24 } else { 120 };
    let sys = lws::WaterSystem::new(molecules, 7);
    let blocks = 2 * machines;
    let water = SimExecutor::new(platform())
        .execute(RunConfig::new().profiled(), move |ctx| lws::run_jade(ctx, &sys, blocks, 1, 0.002))
        .expect("clean run");
    analyze("lws", &water);

    // Parallel make over a random dependency DAG (§7.1).
    let targets = if small { 10 } else { 40 };
    let mk = pmake::Makefile::random_dag(targets, 17);
    let make = SimExecutor::new(platform())
        .execute(RunConfig::new().profiled(), move |ctx| pmake::make_jade(ctx, &mk))
        .expect("clean run");
    analyze("pmake", &make);

    println!("bound >= measured speedup held for every application");
}
