//! Run every experiment binary in sequence and summarize pass/fail —
//! the one-command reproduction of the paper's evaluation.
//!
//! Run: `cargo run --release -p jade-bench --bin run_all`
//! (expects to be invoked from the workspace, via cargo)

use std::process::Command;

fn main() {
    let bins = [
        ("fig4_taskgraph", "Figure 4: dynamic task graph"),
        ("fig7_trace", "Figure 7: two-machine execution trace"),
        ("fig9_lws_times", "Figure 9: LWS running times"),
        ("fig10_lws_speedup", "Figure 10: LWS speedups"),
        ("t1_constructs", "§7.3 construct/line counts"),
        ("exp_make", "§7.1 parallel make"),
        ("exp_video", "§7.2 HRV video pipeline"),
        ("exp_dsm_baseline", "§6.1 page-DSM baseline"),
        ("exp_ablations", "§5 runtime-optimization ablations"),
        ("exp_faults", "fault-injection sweep (delay spikes × crashes)"),
        ("exp_critpath", "critical path: speedup bound vs measured"),
    ];
    let mut failures = 0;
    for (bin, what) in bins {
        // Each binary asserts its own expected shape; exit status is
        // the verdict.
        let status = Command::new("cargo")
            .args(["run", "--release", "-q", "-p", "jade-bench", "--bin", bin])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn cargo");
        let ok = status.success();
        println!("{} {:22} {}", if ok { "PASS" } else { "FAIL" }, bin, what);
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} experiment(s) failed shape checks");
        std::process::exit(1);
    }
    println!("\nall paper artifacts reproduced (shapes asserted inside each binary).");
}
