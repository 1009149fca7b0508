//! Fault-tolerance sweep: delay-spike rate × transient crash count.
//!
//! For each point the same LWS workload runs under a seeded
//! [`FaultPlan`] whose spiked messages arrive 2 ms late; the table
//! reports completion time and crash-recovery re-executions.
//! Invariants checked on every point:
//!
//! * the computed result is bit-identical to the fault-free run
//!   (serial semantics hold under failure);
//! * spikes > 0 move the completion time away from the spike-free run
//!   with the same crashes, so the perturbation reached the schedule;
//! * every armed crash fires once;
//! * faults only ever cost time, never correctness.
//!
//! Run: `cargo run --release -p jade-bench --bin exp_faults`

use jade_apps::lws::{self, WaterSystem};
use jade_bench::row;
use jade_sim::{FaultPlan, Platform, SimExecutor, SimReport, SimSpan};

const MACHINES: usize = 4;
const MOLECULES: usize = 48;
const STEPS: usize = 2;

fn lws_faulted(plan: Option<FaultPlan>) -> ((Vec<f64>, WaterSystem), SimReport) {
    let sys = WaterSystem::new(MOLECULES, 7);
    let blocks = 4 * MACHINES;
    let mut exec = SimExecutor::new(Platform::mica(MACHINES));
    if let Some(p) = plan {
        exec = exec.faults(p);
    }
    exec.run(move |ctx| lws::run_jade(ctx, &sys, blocks, STEPS, 0.002))
}

fn main() {
    let spikes = [0.0, 0.04, 0.10, 0.20];
    let crash_counts = [0usize, 1, 2];

    let (clean_value, clean) = lws_faulted(None);
    println!(
        "fault sweep: LWS, {MOLECULES} molecules x {STEPS} steps on {MACHINES} Mica workstations"
    );
    println!("fault-free baseline: {:.3}s\n", clean.time.as_secs_f64());

    let w = 12;
    println!(
        "{}",
        row(
            &["spikes".into(), "crashes".into(), "time".into(), "slowdown".into(),
              "recoveries".into(), "degraded".into()],
            w
        )
    );

    // Completion time of the spike-free run, per crash count.
    let mut unspiked = vec![None; crash_counts.len()];
    for &spike in &spikes {
        for &crashes in &crash_counts {
            let mut plan = FaultPlan::new(0xFA017 + crashes as u64)
                .delay_spikes(spike, SimSpan::from_millis(2));
            for m in 0..crashes {
                // Crash distinct non-zero machines (machine 0 hosts the
                // root task's home store in this sweep's narrative, and
                // at least one machine must survive).
                plan = plan.crash(m + 1, 1 + m as u64, SimSpan::from_millis(30));
            }
            let (value, r) = lws_faulted(Some(plan));

            assert_eq!(
                value, clean_value,
                "spikes={spike} crashes={crashes}: faults changed the computed result"
            );
            match unspiked[crashes] {
                None => unspiked[crashes] = Some(r.time),
                Some(t) => assert_ne!(
                    r.time, t,
                    "spikes={spike} crashes={crashes}: spikes should move the completion time"
                ),
            }
            assert_eq!(r.faults.crashes, crashes as u64, "every armed crash fires once");

            println!(
                "{}",
                row(
                    &[
                        format!("{:.0}%", spike * 100.0),
                        format!("{crashes}"),
                        format!("{:.3}s", r.time.as_secs_f64()),
                        format!("{:.2}x", r.time.as_secs_f64() / clean.time.as_secs_f64()),
                        format!("{}", r.faults.recoveries),
                        format!("{}", r.faults.degraded),
                    ],
                    w
                )
            );
        }
    }

    println!("\nevery point matched the fault-free result bit-for-bit.");
}
