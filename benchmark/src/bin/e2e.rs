//! End-to-end run: what a user of the system sees, tracing off.
//!
//! `e2e --workload NAME` measures one workload and prints every
//! end-to-end metric by name with its unit, then the one-line JSON
//! result. `e2e` (or `--workload all`) runs the set as one process per
//! workload and writes `out/e2e.json`; `--aa` runs the set twice and
//! fails when any workload x metric pair disagrees beyond its bound.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use jade_benchmark::harness::{self, Args, Measured, Watchdog};
use jade_benchmark::metrics::END_TO_END;
use jade_benchmark::stats::{median, percentile, tail_percentile};
use jade_benchmark::workloads::{self, Mode, Rep, Workload};

/// Set-up is repeated for about this long, 3 to 15 times; `setup_s` is
/// the median. Most set-ups take tens of milliseconds, too short to
/// time steadily once.
const SETUP_SECONDS: f64 = 1.0;
const SETUPS: std::ops::RangeInclusive<usize> = 3..=15;
/// Timed repetitions a run never goes below, however short `--seconds`.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args = harness::args_or_exit();
    harness::prepare_process();
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let watchdog = Watchdog::arm(w, Watchdog::limit_for(args));

    let mut setup_s = Vec::new();
    let begun = Instant::now();
    let bench = loop {
        let start = Instant::now();
        let bench = workloads::setup(w, args.seed, args.size());
        setup_s.push(start.elapsed().as_secs_f64());
        let spent = begun.elapsed().as_secs_f64();
        if setup_s.len() >= *SETUPS.end()
            || (setup_s.len() >= *SETUPS.start() && spent >= SETUP_SECONDS)
        {
            break bench;
        }
    };
    watchdog.set_ops(bench.ops());

    // One untimed repetition at full size, checked like the rest.
    let warm = bench.rep(Mode::Plain);
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    let mut reps: Vec<Rep> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        reps.push(bench.rep(Mode::Plain));
        // Start another repetition only while at least half of it
        // still fits, so a slow workload overshoots by little.
        let typical = median(&reps.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
        let room = deadline.saturating_duration_since(Instant::now()).as_secs_f64();
        if reps.len() >= MIN_REPS && room < typical / 2.0 {
            break;
        }
    }
    watchdog.disarm();

    for r in &reps {
        attempted += r.attempted;
        failed += r.failed;
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.tasks as f64 / r.wall.as_secs_f64()).collect();
    let jobs: Vec<f64> =
        reps.iter().flat_map(|r| &r.jobs).map(|j| j.latency_ns as f64 / 1e6).collect();
    let tail = tail_percentile(jobs.len());
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "wall_s" => median(&walls),
        "tasks_per_s" => median(&rates),
        "job_p50_ms" => median(&jobs),
        "job_tail_ms" => percentile(&jobs, tail),
        other => unreachable!("metric {other} has no measurement"),
    };
    let metrics: Vec<Measured> = END_TO_END
        .iter()
        .map(|m| Measured { name: m.name, value: value(m.name), unit: m.unit })
        .collect();

    println!(
        "{}: {} set-ups ({:.4}..{:.4} s), 1 warm-up, {} timed repetitions (wall min {:.4} s, max {:.4} s); \
         {} jobs, tail = p{tail:.1}; process peak RSS {:.1} MB",
        w.name(),
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
        reps.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        jobs.len(),
        harness::peak_rss_mb(),
    );
    harness::report(w, args, attempted, failed, &metrics)
}

fn run_all(args: &Args) -> ExitCode {
    let first = harness::run_set(args);
    let out = harness::out_dir().join("e2e.json");
    std::fs::write(&out, harness::set_ledger(args, "e2e", &first).to_pretty())
        .expect("write the e2e ledger");
    eprintln!("wrote {}", out.display());
    let mut ok = harness::set_is_correct(&first);
    if args.aa {
        let second = harness::run_set(args);
        ok &= harness::set_is_correct(&second);
        ok &= harness::compare_sets(&first, &second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
