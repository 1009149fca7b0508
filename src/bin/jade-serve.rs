//! `jade-serve` — stream Jade jobs from stdin into one long-running
//! session, GNU-parallel style.
//!
//! Every line of stdin is one job submitted into a
//! [`Session`](jade_core::serve::Session) over the chosen backend; the
//! session multiplexes them onto its execution slots with bounded
//! admission, and the driver retries with backoff when the server
//! pushes back with `Saturated`. EOF triggers a graceful drain: the
//! backlog runs dry, every result is printed, and the final
//! [`ServeStats`](jade_core::stats::ServeStats) go to stderr.
//!
//! ```text
//! jade-serve [--backend serial|threads|sim|net] [--slots N]
//!            [--queue-cap N] [--workers N]
//!
//! job lines (blank lines and '#' comments are skipped):
//!     pmake <targets> [seed]       parallel make on a random DAG
//!     cholesky <n> [nnz] [seed]    sparse Cholesky factorization
//!     lws <molecules> [steps]      the Water simulation
//!     spin <tasks>                 independent fine-grained tasks
//! ```
//!
//! Example:
//!
//! ```text
//! $ printf 'pmake 24\ncholesky 32\nlws 16 2\n' | jade-serve --slots 4
//! ```

use std::io::BufRead;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use jade_core::ctx::JadeCtx;
use jade_core::prelude::Shared;
use jade_core::runtime::{RunConfig, Runtime};
use jade_core::serial::SerialRuntime;
use jade_core::serve::{JobHandle, ServeConfig, SubmitError};
use jade_core::stats::ServeStats;
use jade_net::NetExecutor;
use jade_sim::{Platform, SimExecutor};
use jade_threads::ThreadedExecutor;

/// One parsed job line.
#[derive(Debug, Clone)]
enum JobSpec {
    Pmake { targets: usize, seed: u64 },
    Cholesky { n: usize, nnz: usize, seed: u64 },
    Lws { molecules: usize, steps: usize },
    Spin { tasks: u64 },
}

impl JobSpec {
    fn parse(line: &str) -> Result<JobSpec, String> {
        let mut it = line.split_whitespace();
        let app = it.next().expect("caller skips blank lines");
        let mut num = |default: Option<u64>| -> Result<u64, String> {
            match it.next() {
                Some(tok) => tok.parse().map_err(|_| format!("bad number '{tok}'")),
                None => default.ok_or_else(|| format!("{app}: missing argument")),
            }
        };
        match app {
            "pmake" => Ok(JobSpec::Pmake { targets: num(None)? as usize, seed: num(Some(3))? }),
            "cholesky" => Ok(JobSpec::Cholesky {
                n: num(None)? as usize,
                nnz: num(Some(4))? as usize,
                seed: num(Some(11))?,
            }),
            "lws" => {
                Ok(JobSpec::Lws { molecules: num(None)? as usize, steps: num(Some(2))? as usize })
            }
            "spin" => Ok(JobSpec::Spin { tasks: num(None)? }),
            other => Err(format!("unknown app '{other}' (pmake|cholesky|lws|spin)")),
        }
    }

    /// Run the job on any backend, reduced to a small printable digest.
    fn run<C: JadeCtx>(&self, ctx: &mut C) -> u64 {
        match *self {
            JobSpec::Pmake { targets, seed } => {
                let mk = jade_apps::pmake::Makefile::random_dag(targets, seed);
                jade_apps::pmake::make_jade(ctx, &mk).rebuilt.len() as u64
            }
            JobSpec::Cholesky { n, nnz, seed } => {
                let a = jade_apps::cholesky::SparseSym::random_spd(n, nnz, seed);
                let l = jade_apps::cholesky::factor_program(ctx, &a);
                let sum: f64 = l.cols.iter().flatten().sum();
                sum.to_bits()
            }
            JobSpec::Lws { molecules, steps } => {
                let sys = jade_apps::lws::WaterSystem::new(molecules, 5);
                let (energies, _) = jade_apps::lws::run_jade(ctx, &sys, 4, steps, 0.002);
                energies.iter().sum::<f64>().to_bits()
            }
            JobSpec::Spin { tasks } => {
                let xs: Vec<Shared<u64>> =
                    (0..64.min(tasks.max(1))).map(|_| ctx.create(0u64)).collect();
                for i in 0..tasks {
                    let x = xs[(i % xs.len() as u64) as usize];
                    ctx.withonly(
                        "spin",
                        |s| {
                            s.rd_wr(x);
                        },
                        move |c| {
                            *c.wr(&x) += 1;
                        },
                    );
                }
                xs.iter().map(|x| *ctx.rd(x)).sum()
            }
        }
    }
}

#[derive(Debug)]
struct Opts {
    backend: String,
    slots: usize,
    queue_cap: usize,
    workers: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: jade-serve [--backend serial|threads|sim|net] [--slots N] \
         [--queue-cap N] [--workers N]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut opts = Opts { backend: "threads".to_string(), slots: 2, queue_cap: 64, workers: None };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).map(String::as_str).unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--backend" => opts.backend = val(&mut i).to_string(),
            "--slots" => opts.slots = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => opts.queue_cap = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => opts.workers = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    opts
}

/// The streaming loop, generic over the backend. The main thread
/// parses and submits; a printer thread reports each job as it
/// finishes, so output streams while later jobs are still queued.
fn serve<B>(backend: B, opts: &Opts) -> ServeStats
where
    B: Runtime + Clone + Send + Sync + 'static,
{
    let session = backend
        .open_session(ServeConfig::new().with_slots(opts.slots).with_queue_cap(opts.queue_cap));

    let (tx, rx) = mpsc::channel::<(String, Instant, JobHandle<u64>)>();
    let printer = std::thread::spawn(move || {
        let mut ok = 0u64;
        while let Ok((line, accepted_at, handle)) = rx.recv() {
            let id = handle.id();
            match handle.wait() {
                Ok(rep) => {
                    ok += 1;
                    println!(
                        "{id}\t{line}\tok\tdigest={}\ttasks={}\tlatency={:.1}ms",
                        rep.result,
                        rep.stats.tasks_created,
                        accepted_at.elapsed().as_secs_f64() * 1e3,
                    );
                }
                Err(fault) => println!("{id}\t{line}\tFAULT\t{fault}"),
            }
        }
        ok
    });

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin readable");
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let spec = match JobSpec::parse(trimmed) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping '{trimmed}': {e}");
                continue;
            }
        };
        let mut backoff = Duration::from_millis(1);
        loop {
            let spec = spec.clone();
            let mut cfg = RunConfig::new();
            if let Some(w) = opts.workers {
                cfg = cfg.with_workers(w);
            }
            match session.submit(cfg, move |ctx| spec.run(ctx)) {
                Ok(handle) => {
                    tx.send((trimmed.to_string(), Instant::now(), handle)).expect("printer alive");
                    break;
                }
                Err(SubmitError::Saturated { queued, cap }) => {
                    // Typed backpressure: ease off and resubmit.
                    eprintln!("saturated ({queued}/{cap} queued); retrying in {backoff:?}");
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
                Err(e) => {
                    eprintln!("rejected '{trimmed}': {e}");
                    break;
                }
            }
        }
    }
    drop(tx);

    // EOF: stop admission, run the backlog dry, join the slots.
    let summary = session.drain();
    let ok = printer.join().expect("printer thread clean");
    eprintln!("drained: {ok} ok\n{}", summary.stats);
    summary.stats
}

fn main() {
    let opts = parse_opts();
    let stats = match opts.backend.as_str() {
        "serial" => serve(SerialRuntime, &opts),
        "threads" => serve(ThreadedExecutor::new(opts.workers.unwrap_or(4)), &opts),
        "sim" => serve(SimExecutor::new(Platform::dash(opts.workers.unwrap_or(4))), &opts),
        // The application kernels must be registered on the
        // coordinator for a job's task bodies to ship; without them
        // every task would run here and the workers would sit idle.
        "net" => serve(
            NetExecutor::with_workers(opts.workers.unwrap_or(2))
                .with_registry(jade_apps::kernels::registry()),
            &opts,
        ),
        _ => usage(),
    };
    if !stats.is_settled() {
        eprintln!("warning: session did not settle: {stats}");
        std::process::exit(1);
    }
}
