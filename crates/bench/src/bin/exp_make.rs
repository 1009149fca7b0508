//! §7.1 — parallel make. "The performance of the make program is
//! limited by the amount of parallelism in the recompilation process":
//! we sweep makefile shapes (chain = none, wide = maximal, project =
//! realistic) across machine counts and report simulated build times.
//!
//! Run: `cargo run --release -p jade-bench --bin exp_make`

use jade_apps::pmake::{self, Makefile};
use jade_bench::row;
use jade_sim::{Platform, SimExecutor};

fn build_time(mk: &Makefile, machines: usize) -> f64 {
    let mk = mk.clone();
    let (_, report) = SimExecutor::new(Platform::workstations(machines))
        .run(move |ctx| pmake::make_jade(ctx, &mk));
    report.time.as_secs_f64()
}

fn main() {
    let shapes: Vec<(&str, Makefile)> = vec![
        ("chain(12)", Makefile::chain(12, 8e6)),
        ("wide(12)", Makefile::wide(12, 8e6)),
        ("project(12)", Makefile::project(12, 8e6, 12e6)),
        ("random_dag(24)", Makefile::random_dag(24, 7)),
    ];
    let procs = [1usize, 2, 4, 8];

    println!("parallel make on a workstation network (simulated seconds)\n");
    let header: Vec<String> = std::iter::once("makefile".to_string())
        .chain(procs.iter().map(|p| format!("{p} ws")))
        .chain(std::iter::once("speedup@8".to_string()))
        .collect();
    println!("{}", row(&header, 14));

    for (name, mk) in &shapes {
        let times: Vec<f64> = procs.iter().map(|&p| build_time(mk, p)).collect();
        let mut cells = vec![name.to_string()];
        cells.extend(times.iter().map(|t| format!("{t:.3}")));
        cells.push(format!("{:.2}", times[0] / times[3]));
        println!("{}", row(&cells, 14));
    }

    // Shape checks: chain gains ~nothing, wide gains a lot, project in
    // between (its link step serializes the tail).
    let chain_speed = build_time(&shapes[0].1, 1) / build_time(&shapes[0].1, 8);
    let wide_speed = build_time(&shapes[1].1, 1) / build_time(&shapes[1].1, 8);
    let proj_speed = build_time(&shapes[2].1, 1) / build_time(&shapes[2].1, 8);
    assert!(chain_speed < 1.3, "chain must not speed up ({chain_speed:.2})");
    assert!(wide_speed > 3.0, "wide must speed up ({wide_speed:.2})");
    assert!(
        proj_speed > chain_speed && proj_speed < wide_speed + 0.5,
        "project ({proj_speed:.2}) should land between chain and wide"
    );
    println!(
        "\nconcurrency is the makefile DAG's: chain ~1x, wide ~linear, project in between (§7.1)."
    );
}
