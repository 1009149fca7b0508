//! Figure 4 — the dynamic task graph of the sparse Cholesky
//! factorization on the paper's small example matrix.
//!
//! Prints the tasks the Jade implementation creates, the dependence
//! edges it discovers between conflicting access declarations, the
//! critical path, and a Graphviz rendering.
//!
//! Run: `cargo run --release -p jade-bench --bin fig4_taskgraph`

use jade_apps::cholesky::{self, SparseSym};
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;

fn main() {
    let a = SparseSym::paper_example();
    println!("matrix: n=5, pattern (below-diagonal rows per column):");
    for (i, rows) in a.pattern.rows.iter().enumerate() {
        println!("  column {i}: {rows:?}");
    }
    let trace = SerialRuntime
        .execute(RunConfig::new().with_trace(), move |ctx| cholesky::factor_program(ctx, &a))
        .unwrap_or_else(|fault| panic!("{fault}"))
        .trace
        .expect("tracing was requested");

    println!("\n== dynamic task graph (task <- [predecessors]) ==");
    print!("{}", trace.to_text());

    let tasks = trace.tasks().iter().filter(|t| !t.is_root()).count();
    let edges = trace.edges().iter().filter(|e| !e.from.is_root() && !e.to.is_root()).count();
    println!(
        "\ntasks: {tasks}   edges: {edges}   critical path: {} tasks",
        trace.critical_path_len()
    );

    println!("\n== graphviz ==");
    print!("{}", trace.to_dot());

    // Sanity: the structure the paper draws.
    let find = |label: &str| {
        *trace
            .tasks()
            .iter()
            .find(|t| trace.label(**t) == label)
            .unwrap_or_else(|| panic!("missing task {label}"))
    };
    let i0 = find("Internal(0)");
    let e03 = find("External(0->3)");
    let e04 = find("External(0->4)");
    assert!(trace.successors(i0).contains(&e03));
    assert!(trace.successors(i0).contains(&e04));
    let i1 = find("Internal(1)");
    let e12 = find("External(1->2)");
    assert!(trace.successors(i1).contains(&e12));
    assert!(!trace.successors(i0).contains(&i1), "Internal(0) and Internal(1) are independent");
    println!("\nstructure checks out: externals depend on their internal update,");
    println!("columns 0 and 1 factor concurrently — the concurrency of Figure 4.");
}
