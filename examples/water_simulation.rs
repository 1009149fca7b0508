//! LWS — the liquid water simulation of §7.3, the application behind
//! Figures 9 and 10. Runs the same Jade program on real threads and
//! on the three simulated platforms of the paper.
//!
//! Run with: `cargo run --release --example water_simulation`

use jade_apps::lws::{self, WaterSystem};
use jade_sim::{Platform, RunConfig, Runtime, SimExecutor, SimReport};
use jade_threads::ThreadedExecutor;

fn main() {
    let n = 400; // molecules (the paper's runs use 2197; see tests/paper.rs)
    let steps = 2;
    let sys = WaterSystem::new(n, 1992);

    // Serial reference physics.
    let mut serial_sys = sys.clone();
    let serial_e = lws::serial::run(&mut serial_sys, steps, 0.002);
    println!("serial:        potential energies {serial_e:?}");

    // Jade on threads.
    let s1 = sys.clone();
    let trep = ThreadedExecutor::new(4)
        .execute(RunConfig::new(), move |ctx| lws::run_jade(ctx, &s1, 8, steps, 0.002))
        .expect("clean run");
    let (e_thr, _) = trep.result;
    println!("4 threads:     potential energies {e_thr:?} ({} tasks)", trep.stats.tasks_created);
    for (a, b) in e_thr.iter().zip(&serial_e) {
        assert!((a - b).abs() < 1e-9, "physics diverged: {a} vs {b}");
    }

    // The same program on the paper's three platforms, 8 machines each.
    for platform in [Platform::dash(8), Platform::ipsc860(8), Platform::mica(8)] {
        let name = platform.name.clone();
        let s2 = sys.clone();
        let blocks = 4 * platform.len();
        let srep = SimExecutor::new(platform)
            .execute(RunConfig::new(), move |ctx| lws::run_jade(ctx, &s2, blocks, steps, 0.002))
            .expect("clean run");
        let report = srep.extra::<SimReport>().expect("sim extras");
        println!(
            "{name:>8} x8:  simulated time {:>12}   utilization {:>4.0}%   {} msgs / {} bytes",
            report.time.to_string(),
            report.utilization() * 100.0,
            report.net.messages,
            report.net.bytes
        );
    }
    println!("(DASH scales best, the iPSC/860 close behind, Mica's shared Ethernet lags — Figure 9/10's shape)");
}
