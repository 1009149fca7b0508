//! The central Jade property, tested across the whole system:
//! "all parallel executions of a Jade program deterministically
//! generate the same result as a serial execution of the program" —
//! and the same program text runs unmodified on every platform
//! (paper §1, §7).
//!
//! Each application runs on the serial elision, on the shared-memory
//! thread pool with several widths, and on simulated DASH, iPSC/860,
//! Mica and heterogeneous-workstation platforms; results must be
//! bit-identical everywhere.

#![deny(deprecated)]

use jade_core::serial::SerialRuntime;
use jade_core::stats::RuntimeStats;
use jade_sim::{Platform, SimExecutor};
use jade_threads::{RunConfig, Runtime, ThreadedExecutor, Throttle};

/// `Runtime::execute` with the legacy `(result, stats)` shape,
/// panicking on a fault the way `ThreadedExecutor::run` used to.
fn trun<R, F>(workers: usize, f: F) -> (R, RuntimeStats)
where
    R: Send + 'static,
    F: FnOnce(&mut jade_threads::ThreadCtx) -> R + Send + 'static,
{
    ThreadedExecutor::new(workers)
        .execute(RunConfig::new(), f)
        .unwrap_or_else(|fault| panic!("{fault}"))
        .into_parts()
}

use jade_apps::barneshut;
use jade_apps::cholesky::{self, SparseSym, SubstMode};
use jade_apps::lws::{self, WaterSystem};
use jade_apps::pmake::{self, Makefile};
use jade_apps::video;

/// Run the same Jade program on every executor and assert
/// bitwise-equal results. Each case re-derives the program from shared
/// inputs (executor signatures take `FnOnce`, so closures cannot be
/// reused directly).
fn run_everywhere<R>(
    name: &str,
    serial: impl Fn() -> R,
    threaded: impl Fn(usize) -> R,
    simulated: impl Fn(Platform) -> R,
) where
    R: PartialEq + std::fmt::Debug,
{
    let want = serial();
    for workers in [1, 3, 8] {
        let got = threaded(workers);
        assert_eq!(got, want, "{name}: threaded x{workers} diverged");
    }
    for platform in [
        Platform::dash(4),
        Platform::ipsc860(5),
        Platform::mica(3),
        Platform::workstations(4),
        Platform::hrv(2),
    ] {
        let pname = platform.name.clone();
        let m = platform.len();
        let got = simulated(platform);
        assert_eq!(got, want, "{name}: sim {pname} x{m} diverged");
    }
}

#[test]
fn cholesky_factorization_is_deterministic_everywhere() {
    let a = SparseSym::random_spd(40, 4, 77);
    run_everywhere(
        "cholesky",
        || {
            let a = a.clone();
            jade_core::serial::run(move |ctx| cholesky::factor_program(ctx, &a)).0.cols
        },
        |w| {
            let a = a.clone();
            trun(w, move |ctx| cholesky::factor_program(ctx, &a)).0.cols
        },
        |p| {
            let a = a.clone();
            SimExecutor::new(p).run(move |ctx| cholesky::factor_program(ctx, &a)).0.cols
        },
    );
}

#[test]
fn supernodal_cholesky_is_deterministic_everywhere() {
    let a = SparseSym::random_spd(36, 5, 21);
    run_everywhere(
        "cholesky-supernodal",
        || {
            let a = a.clone();
            jade_core::serial::run(move |ctx| cholesky::factor_super_program(ctx, &a)).0.cols
        },
        |w| {
            let a = a.clone();
            trun(w, move |ctx| cholesky::factor_super_program(ctx, &a)).0.cols
        },
        |p| {
            let a = a.clone();
            SimExecutor::new(p).run(move |ctx| cholesky::factor_super_program(ctx, &a)).0.cols
        },
    );
}

#[test]
fn pipelined_solve_is_deterministic_everywhere() {
    let a = SparseSym::random_spd(30, 3, 5);
    let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.31).sin() + 2.0).collect();
    for mode in [SubstMode::TaskBoundary, SubstMode::Pipelined] {
        let b2 = b.clone();
        let a2 = a.clone();
        run_everywhere(
            "factor+backsubst",
            || {
                let (a, b) = (a2.clone(), b2.clone());
                jade_core::serial::run(move |ctx| cholesky::factor_then_subst(ctx, &a, &b, mode)).0
            },
            |w| {
                let (a, b) = (a2.clone(), b2.clone());
                trun(w, move |ctx| cholesky::factor_then_subst(ctx, &a, &b, mode)).0
            },
            |p| {
                let (a, b) = (a2.clone(), b2.clone());
                SimExecutor::new(p).run(move |ctx| cholesky::factor_then_subst(ctx, &a, &b, mode)).0
            },
        );
    }
}

#[test]
fn lws_is_deterministic_everywhere() {
    let sys = WaterSystem::new(48, 12);
    run_everywhere(
        "lws",
        || {
            let s = sys.clone();
            jade_core::serial::run(move |ctx| lws::run_jade(ctx, &s, 4, 2, 0.002)).0
        },
        |w| {
            let s = sys.clone();
            trun(w, move |ctx| lws::run_jade(ctx, &s, 4, 2, 0.002)).0
        },
        |p| {
            let s = sys.clone();
            SimExecutor::new(p).run(move |ctx| lws::run_jade(ctx, &s, 4, 2, 0.002)).0
        },
    );
}

/// 64-bit FNV-1a over the bit patterns of `values`: changes when any
/// bit of any value does, and is stable across toolchains.
fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every position coordinate, then every velocity coordinate.
fn lws_state(sys: &WaterSystem) -> impl Iterator<Item = f64> + '_ {
    sys.pos.iter().chain(&sys.vel).flatten().copied()
}

/// The serial LWS's numbers, pinned. The tests above compare the Jade
/// program with the serial one, and both call the same force kernel: a
/// kernel change that moves both sides' bits passes them, not this.
#[test]
fn lws_serial_numbers_are_pinned() {
    let mut sys = WaterSystem::new(343, 5);
    let energies = lws::serial::run(&mut sys, 4, 0.002);
    assert_eq!(fnv1a_bits(lws_state(&sys).chain(energies)), 0xa49d_dd9e_3179_dd4f);
}

/// The Jade LWS's final positions and velocities, pinned on the serial
/// elision, the thread pool and the simulator.
#[test]
fn lws_jade_numbers_are_pinned_on_every_backend() {
    fn digest<Rt: Runtime>(rt: &Rt) -> u64 {
        let sys = WaterSystem::new(343, 5);
        let ((_, end), _) = rt
            .execute(RunConfig::new(), move |ctx| lws::run_jade(ctx, &sys, 4, 4, 0.002))
            .unwrap_or_else(|fault| panic!("{fault}"))
            .into_parts();
        fnv1a_bits(lws_state(&end))
    }
    for (backend, got) in [
        ("serial", digest(&SerialRuntime)),
        ("threads x2", digest(&ThreadedExecutor::new(2))),
        ("sim dash x4", digest(&SimExecutor::new(Platform::dash(4)))),
    ] {
        assert_eq!(got, 0xcce9_1eaf_e555_b148, "{backend}");
    }
}

#[test]
fn make_is_deterministic_everywhere() {
    let mk = Makefile::random_dag(30, 99);
    run_everywhere(
        "pmake",
        || {
            let mk = mk.clone();
            let out = jade_core::serial::run(move |ctx| pmake::make_jade(ctx, &mk)).0;
            (sorted_files(&out), sorted_set(&out))
        },
        |w| {
            let mk = mk.clone();
            let out = trun(w, move |ctx| pmake::make_jade(ctx, &mk)).0;
            (sorted_files(&out), sorted_set(&out))
        },
        |p| {
            let mk = mk.clone();
            let out = SimExecutor::new(p).run(move |ctx| pmake::make_jade(ctx, &mk)).0;
            (sorted_files(&out), sorted_set(&out))
        },
    );
}

fn sorted_files(out: &pmake::MakeOutcome) -> Vec<(String, u64, usize)> {
    let mut v: Vec<(String, u64, usize)> =
        out.files.iter().map(|(k, f)| (k.clone(), f.version, f.size)).collect();
    v.sort();
    v
}

fn sorted_set(out: &pmake::MakeOutcome) -> Vec<String> {
    let mut v: Vec<String> = out.rebuilt.iter().cloned().collect();
    v.sort();
    v
}

#[test]
fn video_pipeline_is_deterministic_everywhere() {
    // The pipeline pins tasks to FrameSource/Accelerator devices, so
    // the simulated platforms must provide them (HRV variants); the
    // serial and threaded executors ignore placement.
    let want = jade_core::serial::run(|ctx| video::video_pipeline(ctx, 6, 48, 32)).0;
    for workers in [1, 3, 8] {
        let got = trun(workers, |ctx| video::video_pipeline(ctx, 6, 48, 32)).0;
        assert_eq!(got, want, "video: threaded x{workers}");
    }
    for accels in [1, 2, 4] {
        let got = SimExecutor::new(Platform::hrv(accels))
            .run(|ctx| video::video_pipeline(ctx, 6, 48, 32))
            .0;
        assert_eq!(got, want, "video: hrv with {accels} accelerators");
    }
}

#[test]
#[should_panic(expected = "no machine")]
fn unsatisfiable_placement_is_reported() {
    // DASH has no frame digitizer: the runtime reports the impossible
    // placement instead of stalling.
    SimExecutor::new(Platform::dash(2)).run(|ctx| video::video_pipeline(ctx, 1, 16, 16));
}

#[test]
fn barneshut_is_deterministic_everywhere() {
    let bodies = barneshut::cluster(90, 31);
    let project =
        |bs: Vec<barneshut::Body>| -> Vec<[f64; 3]> { bs.into_iter().map(|b| b.pos).collect() };
    run_everywhere(
        "barneshut",
        || {
            let b = bodies.clone();
            project(
                jade_core::serial::run(move |ctx| barneshut::run_jade(ctx, &b, 4, 2, 0.6, 0.01)).0,
            )
        },
        |w| {
            let b = bodies.clone();
            project(trun(w, move |ctx| barneshut::run_jade(ctx, &b, 4, 2, 0.6, 0.01)).0)
        },
        |p| {
            let b = bodies.clone();
            project(
                SimExecutor::new(p).run(move |ctx| barneshut::run_jade(ctx, &b, 4, 2, 0.6, 0.01)).0,
            )
        },
    );
}

#[test]
fn barneshut_parallel_tree_build_is_deterministic_everywhere() {
    let bodies = barneshut::cluster(70, 17);
    let project =
        |bs: Vec<barneshut::Body>| -> Vec<[f64; 3]> { bs.into_iter().map(|b| b.pos).collect() };
    run_everywhere(
        "barneshut-partree",
        || {
            let b = bodies.clone();
            project(
                jade_core::serial::run(move |ctx| barneshut::run_partree(ctx, &b, 4, 2, 0.6, 0.01))
                    .0,
            )
        },
        |w| {
            let b = bodies.clone();
            project(trun(w, move |ctx| barneshut::run_partree(ctx, &b, 4, 2, 0.6, 0.01)).0)
        },
        |p| {
            let b = bodies.clone();
            project(
                SimExecutor::new(p)
                    .run(move |ctx| barneshut::run_partree(ctx, &b, 4, 2, 0.6, 0.01))
                    .0,
            )
        },
    );
}

#[test]
fn throttled_executions_also_match() {
    // Throttling changes the schedule, never the results.
    let a = SparseSym::random_spd(24, 3, 55);
    let want = {
        let a = a.clone();
        jade_core::serial::run(move |ctx| cholesky::factor_program(ctx, &a)).0.cols
    };
    let a1 = a.clone();
    let (got_threads, stats) = ThreadedExecutor::new(4)
        .execute(
            RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 4, lo: 2 }),
            move |ctx| cholesky::factor_program(ctx, &a1),
        )
        .unwrap_or_else(|fault| panic!("{fault}"))
        .into_parts();
    assert_eq!(got_threads.cols, want);
    assert!(stats.peak_live_tasks <= 5, "peak {}", stats.peak_live_tasks);
    let a2 = a.clone();
    let (got_sim, sim_stats) = SimExecutor::new(Platform::dash(4))
        .execute(
            RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 6, lo: 3 }),
            move |ctx| cholesky::factor_program(ctx, &a2),
        )
        .unwrap_or_else(|fault| panic!("{fault}"))
        .into_parts();
    assert_eq!(got_sim.cols, want);
    assert!(sim_stats.peak_live_tasks <= 7);
}
