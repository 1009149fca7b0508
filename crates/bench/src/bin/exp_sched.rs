//! E-SCHED — scheduler dispatch-throughput sweep.
//!
//! Floods the shared-memory executor with fine-grained *independent*
//! tasks (each task owns its object, so the dependency engine grants
//! every task immediately) and measures how many tasks per second the
//! scheduler can create, enable, dispatch, and retire at 1–16 workers.
//! Because the bodies are trivial, the number is a direct probe of the
//! scheduling/dependency hot path itself — the lock structure, not the
//! work, is what's being timed.
//!
//! A second workload ("shared") makes all tasks update one of a few
//! shared objects so the per-object serial-order queues, not just the
//! dispatch path, carry traffic.
//!
//! Run with: `cargo run --release -p jade-bench --bin exp_sched`
//! (`--small` shrinks the task count for CI, `--tasks N` overrides it.)

use jade_bench::baseline;
use jade_bench::row;
use jade_core::prelude::*;
use jade_threads::{RunConfig, Runtime, ThreadedExecutor, Throttle};
use std::time::Instant;

const WORKERS: &[usize] = &[1, 2, 4, 8, 16];

/// Run `tasks` independent fine-grained tasks and return tasks/second.
fn independent_rate(workers: usize, tasks: u64, objects: usize) -> f64 {
    let exec = ThreadedExecutor::new(workers);
    let start = Instant::now();
    let rep = exec
        .execute(RunConfig::new(), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..objects).map(|_| ctx.create(0u64)).collect();
            for i in 0..tasks {
                let x = xs[(i as usize) % objects];
                ctx.withonly("t", |s| { s.rd_wr(x); }, move |c| {
                    *c.wr(&x) += 1;
                });
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
        })
        .expect("clean run");
    assert_eq!(rep.result, tasks, "every increment must land exactly once");
    tasks as f64 / start.elapsed().as_secs_f64()
}

/// All tasks funnel through `objects` shared counters: the per-object
/// serial-order queues serialize execution, so this measures queue
/// maintenance under dependence pressure rather than raw dispatch.
fn shared_rate(workers: usize, tasks: u64, objects: usize) -> f64 {
    let exec = ThreadedExecutor::new(workers);
    let start = Instant::now();
    let rep = exec
        .execute(RunConfig::new(), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..objects).map(|_| ctx.create(0u64)).collect();
            for i in 0..tasks {
                let x = xs[(i as usize) % objects];
                ctx.withonly("t", |s| { s.rd_wr(x); }, move |c| {
                    *c.wr(&x) += 1;
                });
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
        })
        .expect("clean run");
    assert_eq!(rep.result, tasks);
    tasks as f64 / start.elapsed().as_secs_f64()
}

/// Fork-join waves through Jade declarations: `fan` writer tasks on
/// distinct objects per wave, then one join task reading all of them.
/// Each wave's joiner is enabled only once every forked writer
/// retires, so this exercises the multi-predecessor wake path (and,
/// for the writers of the *next* wave, the single-successor inline
/// continuation steal off the joiner). Returns tasks/second over
/// `waves * (fan + 1)` tasks.
fn forkjoin_rate(workers: usize, waves: u64, fan: usize) -> f64 {
    let exec = ThreadedExecutor::new(workers);
    let tasks = waves * (fan as u64 + 1);
    let start = Instant::now();
    let rep = exec
        .execute(RunConfig::new(), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..fan).map(|_| ctx.create(0u64)).collect();
            for _ in 0..waves {
                for &x in &xs {
                    ctx.withonly("fork", |s| { s.rd_wr(x); }, move |c| {
                        *c.wr(&x) += 1;
                    });
                }
                let ys = xs.clone();
                ctx.withonly(
                    "join",
                    |s| {
                        for &x in &xs {
                            s.rd(x);
                        }
                    },
                    move |c| {
                        let sum: u64 = ys.iter().map(|x| *c.rd(x)).sum();
                        std::hint::black_box(sum);
                    },
                );
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
        })
        .expect("clean run");
    assert_eq!(rep.result, waves * fan as u64);
    tasks as f64 / start.elapsed().as_secs_f64()
}

/// One instrumented shared×N run: same body as [`shared_rate`] but
/// returns the runtime counters so the continuation-steal rate can be
/// reported per dispatched task.
fn shared_stats(workers: usize, tasks: u64, objects: usize) -> (f64, RuntimeStats) {
    let exec = ThreadedExecutor::new(workers);
    let start = Instant::now();
    let rep = exec
        .execute(RunConfig::new(), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..objects).map(|_| ctx.create(0u64)).collect();
            for i in 0..tasks {
                let x = xs[(i as usize) % objects];
                ctx.withonly("t", |s| { s.rd_wr(x); }, move |c| {
                    *c.wr(&x) += 1;
                });
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
        })
        .expect("clean run");
    assert_eq!(rep.result, tasks);
    (tasks as f64 / start.elapsed().as_secs_f64(), rep.stats)
}

/// Steady-state churn: the creator is throttled so the live-set stays
/// small while many times that number of tasks stream through.
/// Returns (tasks/second, peak task slots, tasks created) — the slot
/// high-water mark is the direct probe of slab recycling: without it
/// the table grows one slot per task; with it the peak tracks the
/// throttle's live-set bound.
fn churn_stats(workers: usize, tasks: u64) -> (f64, u64, u64) {
    let exec = ThreadedExecutor::new(workers);
    let throttle = Throttle::SuspendCreator { hi: 32, lo: 16 };
    let start = Instant::now();
    let rep = exec
        .execute(RunConfig::new().with_throttle(throttle), move |ctx| {
            let xs: Vec<Shared<u64>> = (0..64).map(|_| ctx.create(0u64)).collect();
            for i in 0..tasks {
                let x = xs[(i as usize) % 64];
                ctx.withonly("t", |s| { s.rd_wr(x); }, move |c| {
                    *c.wr(&x) += 1;
                });
            }
            xs.iter().map(|x| *ctx.rd(x)).sum::<u64>()
        })
        .expect("clean run");
    assert_eq!(rep.result, tasks);
    let rate = tasks as f64 / start.elapsed().as_secs_f64();
    (rate, rep.stats.peak_task_slots, rep.stats.tasks_created)
}

fn sweep(name: &str, tasks: u64, f: impl Fn(usize, u64) -> f64) -> Vec<f64> {
    println!("\n{name} ({tasks} tasks; ktasks/s by worker count)");
    let header: Vec<String> =
        std::iter::once("workers".to_string()).chain(WORKERS.iter().map(|w| w.to_string())).collect();
    println!("{}", row(&header, 9));
    let mut rates = Vec::new();
    for &w in WORKERS {
        // Warm-up run, then take the best of three timed runs: on a
        // shared CI host the scheduler, not the noise, should be rated.
        f(w, tasks / 4);
        let best = (0..3).map(|_| f(w, tasks)).fold(f64::MIN, f64::max);
        rates.push(best);
    }
    let cells: Vec<String> = std::iter::once("ktask/s".to_string())
        .chain(rates.iter().map(|r| format!("{:.1}", r / 1e3)))
        .collect();
    println!("{}", row(&cells, 9));
    rates
}

/// Render one `"name": [v, v, ...]` JSON line of per-worker rates.
fn json_rates(name: &str, rates: &[f64]) -> String {
    let vals: Vec<String> = rates.iter().map(|r| format!("{:.1}", r / 1e3)).collect();
    format!("    \"{}\": [{}]", name, vals.join(", "))
}

/// Emit the machine-readable summary consumed by CI. Hand-rolled: the
/// bench crate deliberately has no serde dependency, and the schema is
/// a flat map of ktask/s arrays plus the continuation-steal rate.
fn write_json(
    path: &str,
    tasks: u64,
    sweeps: &[(&str, Vec<f64>)],
    hits: &RuntimeStats,
    hit_rate: f64,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"tasks\": {tasks},\n"));
    s.push_str(&format!(
        "  \"workers\": [{}],\n",
        WORKERS.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(", ")
    ));
    s.push_str("  \"ktask_per_s\": {\n");
    let lines: Vec<String> = sweeps.iter().map(|(n, r)| json_rates(n, r)).collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  },\n");
    s.push_str("  \"fast_paths_shared_x4_w8\": {\n");
    s.push_str(&format!("    \"tasks_created\": {},\n", hits.tasks_created));
    s.push_str(&format!("    \"cont_steals\": {},\n", hits.cont_steals));
    s.push_str(&format!("    \"cont_steal_rate\": {:.4},\n", hits.cont_steals as f64 / hits.tasks_created.max(1) as f64));
    s.push_str(&format!("    \"ktask_per_s\": {:.1}\n", hit_rate / 1e3));
    s.push_str("  }\n}\n");
    std::fs::write(path, s).expect("write BENCH_dispatch.json");
    println!("\nwrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let tasks: u64 = args
        .iter()
        .position(|a| a == "--tasks")
        .map(|i| args[i + 1].parse().expect("--tasks needs a number"))
        .unwrap_or(if small { 2_000 } else { 20_000 });

    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args[i + 1].clone())
        .unwrap_or_else(|| "BENCH_dispatch.json".to_string());

    println!(
        "scheduler dispatch throughput sweep ({} hardware threads on this host)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    // Independent tasks, one object per in-flight task slot: the pure
    // dispatch path. 64 objects keeps queue depth ~1 per object.
    let indep = sweep("independent", tasks, |w, n| independent_rate(w, n, 64));
    let base_indep =
        sweep("baseline independent (scoped threads)", tasks, |w, n| baseline::independent_rate(w, n, 64));

    // All traffic through 4 shared counters: queue-pressure regime.
    let shared = sweep("shared x4", tasks / 4, |w, n| shared_rate(w, n, 4));

    // Fork-join waves: fan=8 writers + 1 joiner per wave, Jade vs the
    // plain pool. Wave count chosen so total task count ≈ `tasks`.
    let fan = 8;
    let waves = (tasks / (fan as u64 + 1)).max(1);
    let fj = sweep("fork-join fan=8", waves, |w, n| forkjoin_rate(w, n, fan));
    let base_fj =
        sweep("baseline fork-join fan=8 (scoped threads)", waves, |w, n| baseline::forkjoin_rate(w, n, fan));

    // Gap table: Jade as a multiple of the no-semantics pool. <1.0×
    // means Jade is *faster* (its work-stealing deques beat the single
    // mutex-protected FIFO under contention).
    println!("\ngap vs scoped-threads baseline (Jade time ÷ baseline time; lower is better)");
    let header: Vec<String> =
        std::iter::once("shape".to_string()).chain(WORKERS.iter().map(|w| w.to_string())).collect();
    println!("{}", row(&header, 13));
    for (name, jade, base) in
        [("independent", &indep, &base_indep), ("fork-join", &fj, &base_fj)]
    {
        let cells: Vec<String> = std::iter::once(name.to_string())
            .chain(jade.iter().zip(base.iter()).map(|(j, b)| format!("{:.2}x", b / j)))
            .collect();
        println!("{}", row(&cells, 13));
    }

    // Instrumented run at the reference config for the JSON summary.
    let (hit_rate, hits) = shared_stats(8, tasks / 4, 4);
    println!(
        "\nfast paths @ shared x4, 8 workers: {} tasks, {} cont-steals",
        hits.tasks_created, hits.cont_steals
    );

    write_json(
        &json_path,
        tasks,
        &[
            ("independent", indep.clone()),
            ("baseline_independent", base_indep),
            ("shared_x4", shared),
            ("forkjoin_fan8", fj),
            ("baseline_forkjoin_fan8", base_fj),
        ],
        &hits,
        hit_rate,
    );

    // Throttled churn: live-set pinned at ≤32 while `tasks` stream
    // through — the slab-recycling regime. Peak slot count must track
    // the live-set, not the task count.
    println!("\nchurn (SuspendCreator hi=32/lo=16; slot slab recycling)");
    println!("{}", row(&["workers".into(), "ktask/s".into(), "peak slots".into(), "tasks".into()], 11));
    for &w in WORKERS {
        churn_stats(w, tasks / 4); // warm-up
        let (rate, peak, created) = churn_stats(w, tasks);
        println!(
            "{}",
            row(
                &[w.to_string(), format!("{:.1}", rate / 1e3), peak.to_string(), created.to_string()],
                11
            )
        );
        assert!(
            peak <= 96,
            "slab grew with task count ({peak} slots for {created} tasks): recycling broken"
        );
    }

    // The scheduler must not collapse as workers are added: the rate at
    // the largest worker count must hold a reasonable fraction of the
    // single-worker rate even on an oversubscribed host.
    let w1 = indep[0];
    let wmax = *indep.last().unwrap();
    println!("\nindependent: {:.1} ktask/s @1 worker, {:.1} ktask/s @16 workers", w1 / 1e3, wmax / 1e3);
    assert!(
        wmax > w1 * 0.05,
        "dispatch throughput collapsed with workers: {w1:.0} -> {wmax:.0} tasks/s"
    );
    println!("dispatch throughput held up under added workers");
}
