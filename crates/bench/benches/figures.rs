//! Figure-level workloads under Criterion, at reduced size so the
//! statistical runner stays fast. The full-size Figure 9/10 tables come
//! from the root package's `tests/paper.rs`; these benches
//! track the *wall-clock cost of simulating them* and the real
//! shared-memory performance of the applications.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use jade_apps::cholesky::{self, SparseSym};
use jade_apps::lws::{self, WaterSystem};
use jade_apps::video;
use jade_bench::lws_sim;
use jade_sim::{Platform, SimExecutor};
use jade_threads::{RunConfig, Runtime, ThreadedExecutor};

fn fig9_small(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9-small");
    g.sample_size(10);
    for name in ["dash", "ipsc860", "mica"] {
        g.bench_function(format!("lws n=300 x8 on {name}"), |b| {
            b.iter(|| {
                let platform = jade_bench::platform_by_name(name, 8);
                black_box(lws_sim(platform, 300, 1, 42).time)
            })
        });
    }
    g.finish();
}

fn cholesky_threaded(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky");
    g.sample_size(10);
    let a = SparseSym::random_spd(150, 6, 9);
    g.bench_function("serial factor n=150", |b| {
        b.iter_batched_ref(|| a.clone(), cholesky::serial::factor, criterion::BatchSize::SmallInput)
    });
    for workers in [1usize, 4] {
        g.bench_function(format!("jade threaded factor n=150, {workers}w"), |b| {
            let exec = ThreadedExecutor::new(workers);
            b.iter(|| {
                let a = a.clone();
                black_box(
                    exec.execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
                        .expect("clean run")
                        .result,
                )
            })
        });
    }
    g.finish();
}

fn lws_threaded(c: &mut Criterion) {
    let mut g = c.benchmark_group("lws-threads");
    g.sample_size(10);
    let sys = WaterSystem::new(512, 3);
    g.bench_function("serial n=512 1 step", |b| {
        b.iter_batched_ref(
            || sys.clone(),
            |s| black_box(lws::serial::run(s, 1, 0.002)),
            criterion::BatchSize::SmallInput,
        )
    });
    for workers in [1usize, 4] {
        g.bench_function(format!("jade threaded n=512 1 step, {workers}w"), |b| {
            let exec = ThreadedExecutor::new(workers);
            b.iter(|| {
                let s = sys.clone();
                black_box(
                    exec.execute(RunConfig::new(), move |ctx| lws::run_jade(ctx, &s, 8, 1, 0.002))
                        .expect("clean run")
                        .result,
                )
            })
        });
    }
    g.finish();
}

fn video_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("video");
    g.sample_size(10);
    g.bench_function("hrv pipeline 8 frames x2 accels (simulated)", |b| {
        b.iter(|| {
            let (r, _) = SimExecutor::new(Platform::hrv(2))
                .run(|ctx| video::video_pipeline(ctx, 8, 160, 120));
            black_box(r)
        })
    });
    g.finish();
}

criterion_group!(benches, fig9_small, cholesky_threaded, lws_threaded, video_sim);
criterion_main!(benches);
