//! The seven workloads: inputs from a seed, one repetition through the
//! stable surface, and the oracle every repetition is checked against.
//!
//! Only the surface a user programs against appears here —
//! `Runtime::execute`, `JadeCtx`, `Session::submit` / `JobHandle::wait`,
//! the `jade_apps` entry points and `Report` — so no refactor beneath
//! that surface can stop the end-to-end benchmark compiling.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jade_apps::cholesky::{self, SparseSym};
use jade_apps::lws::{self, WaterSystem};
use jade_apps::pmake::{self, FileState, MakeOutcome, Makefile};
use jade_core::prelude::*;
use jade_net::{NetConfig, NetExecutor};
use jade_sim::{Platform, SimExecutor, SimReport};
use jade_threads::ThreadedExecutor;

use crate::inputs::{cholesky_tasks, counter_seeds, spd_matrix, MatrixShape, Size, SplitMix};
use crate::spans::{self, NO_REQ};
use crate::traced::{self, Traced};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FineIndependent,
    FineChain,
    CholeskyThreads,
    LwsThreads,
    ServePmake,
    CholeskyNet,
    CholeskySim,
}

pub const ALL: [Workload; 7] = [
    Workload::FineIndependent,
    Workload::FineChain,
    Workload::CholeskyThreads,
    Workload::LwsThreads,
    Workload::ServePmake,
    Workload::CholeskyNet,
    Workload::CholeskySim,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::FineIndependent => "fine-independent",
            Workload::FineChain => "fine-chain",
            Workload::CholeskyThreads => "cholesky-threads",
            Workload::LwsThreads => "lws-threads",
            Workload::ServePmake => "serve-pmake",
            Workload::CholeskyNet => "cholesky-net",
            Workload::CholeskySim => "cholesky-sim",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the
    /// same text and a test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FineIndependent => "400k one-object tasks over 64 counters on jade-threads: always ready, so the single creator's spec/alloc/attach/push path and steal/wake do all the work",
            Workload::FineChain => "200k tasks over 4 counters: every task queues behind a predecessor, so finish/enable/inline continuation steal do the work and the ready queue is bypassed",
            Workload::CholeskyThreads => "paper sec. 3 sparse Cholesky, n=400 (~33k tasks, queues up to 200 deep) on jade-threads: dependence-dense fine grain where engine queue upkeep dominates",
            Workload::LwsThreads => "paper Fig. 9 water simulation, 2197 molecules, 160 tasks of ~4 ms: body-dominated control on which engine and dispatch changes predict no change",
            Workload::ServePmake => "closed loop of W clients submitting 16-target pmake jobs (a mix of 64 DAGs) into one Session: per-job admission wait, fair dispatch and a new engine and thread pool per job, not per-task cost",
            Workload::CholeskyNet => "Cholesky n=200 (~8.5k tasks) on jade-net thread-mode workers over Unix sockets: every body ships as IR, so encode/frame, ack, directory and replica cache do the work",
            Workload::CholeskySim => "the same n=200 matrix on jade-sim iPSC/860 x8: the only workload on DepGraph, sim/runtime, objmgr and the proc-thread handoff; virtual makespan repeats exactly",
        }
    }
}

/// Worker count every workload runs with: the host's parallelism,
/// capped at 4 so ledgers from small and large hosts stay comparable.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// ----------------------------------------------------------------------
// What one repetition reports
// ----------------------------------------------------------------------

/// One job: a whole `execute` on the batch workloads, one
/// submit-to-wait on `serve-pmake`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Job {
    pub latency_ns: u64,
    /// Session phases, filled on traced `serve-pmake` repetitions only
    /// (from the session's `Job*` events).
    pub queue_ns: u64,
    pub run_ns: u64,
}

/// Figures the simulator reports about one run; all but the host wall
/// repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSummary {
    pub time_ns: u64,
    pub messages: u64,
    pub bytes: u64,
    pub moves: u64,
    pub copies: u64,
    pub invalidations: u64,
    pub utilization: f64,
}

/// Work and span of a profiled repetition, from
/// `Report::critical_path()`.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Busy time summed over all task bodies.
    pub work_ns: u64,
    /// Busy time along the longest dependence chain.
    pub critical_ns: u64,
    pub elapsed_ns: u64,
    /// What computing `Report::critical_path()` itself took.
    pub analysis_ns: u64,
}

/// How a repetition runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// As a user would: default `RunConfig`, the backend's own context.
    Plain,
    /// On a [`Traced`] context; spans are recorded only while
    /// [`spans::set_enabled`] is on.
    Traced,
    /// With `RunConfig::profiled()` (task graph, timeline, contention),
    /// to read work and span off the report. `serve-pmake` has no
    /// profiled form and runs plain.
    Profiled,
}

#[derive(Debug, Default)]
pub struct Rep {
    pub wall: Duration,
    /// `stats.tasks_created`, summed over jobs.
    pub tasks: u64,
    /// Operations attempted and failed. An operation is a task (a job
    /// on `serve-pmake`); a fault, an oracle mismatch, a refused
    /// submission or an unsettled drain all count as failures.
    pub attempted: u64,
    pub failed: u64,
    pub jobs: Vec<Job>,
    pub stats: RuntimeStats,
    pub net: Option<NetStats>,
    pub faults: Option<FaultStats>,
    pub serve: Option<ServeStats>,
    pub sim: Option<SimSummary>,
    pub profile: Option<Profile>,
}

/// A workload after set-up: inputs generated, oracle computed, backend
/// built.
pub trait Bench {
    /// Run once and check the result against the oracle.
    fn rep(&self, mode: Mode) -> Rep;

    /// Operations one repetition attempts (to fail them all when a
    /// repetition never returns).
    fn ops(&self) -> u64;
}

/// Matrix of `cholesky-threads` at each size.
pub fn threads_matrix(size: Size) -> MatrixShape {
    match size {
        Size::Full => MatrixShape { n: 400, nnz_per_col: 4, tasks: Some(32_972) },
        Size::Mid => net_sim_matrix(Size::Full),
        Size::Quick => MatrixShape { n: 60, nnz_per_col: 4, tasks: None },
    }
}

/// Matrix of `cholesky-net` and `cholesky-sim` at each size.
pub fn net_sim_matrix(size: Size) -> MatrixShape {
    match size {
        Size::Full => MatrixShape { n: 200, nnz_per_col: 4, tasks: Some(8_466) },
        Size::Mid => MatrixShape { n: 80, nnz_per_col: 4, tasks: None },
        Size::Quick => MatrixShape { n: 40, nnz_per_col: 3, tasks: None },
    }
}

/// Molecules, blocks and timesteps of `lws-threads` at each size.
pub fn lws_shape(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (2197, 8, 16),
        Size::Mid => (729, 8, 4),
        Size::Quick => (125, 4, 2),
    }
}

/// Set a workload up for `seed`: generate the inputs, compute the
/// plain-serial oracle, construct the backend. The whole call is what
/// `setup_s` times. Nothing is run on the backend here: a warm-up run
/// small enough to repeat is dominated by the 10 ms polling ticks of a
/// cluster start and flips between two values from process to process;
/// the harness runs one untimed full-size repetition instead.
pub fn setup(w: Workload, seed: u64, size: Size) -> Box<dyn Bench> {
    let pick = |full, mid, quick| match size {
        Size::Full => full,
        Size::Mid => mid,
        Size::Quick => quick,
    };
    let workers = workers();
    match w {
        Workload::FineIndependent => fine(workers, 64, pick(400_000, 40_000, 20_000), seed),
        Workload::FineChain => fine(workers, 4, pick(200_000, 20_000, 10_000), seed),
        Workload::CholeskyThreads => {
            cholesky(ThreadedExecutor::new(workers), threads_matrix(size), seed, |_, _| {})
        }
        Workload::LwsThreads => {
            let (n, blocks, steps) = lws_shape(size);
            lws(workers, n, blocks, steps, seed)
        }
        Workload::ServePmake => Box::new(Serve::new(workers, pick(4_000, 400, 100) as usize, seed)),
        Workload::CholeskyNet => {
            let exec = NetExecutor::new(NetConfig::threads(workers))
                .with_registry(jade_apps::kernels::registry());
            cholesky(exec, net_sim_matrix(size), seed, |report, rep| {
                // Every body must have shipped as IR and none may have
                // fallen back to the coordinator.
                let shipped = report.net.map_or(0, |n| n.tasks_shipped);
                let degraded = report.faults.map_or(0, |f| f.degraded);
                let unshipped = report.stats.tasks_created.saturating_sub(shipped);
                rep.failed = rep.failed.max(unshipped + degraded);
            })
        }
        Workload::CholeskySim => {
            let exec = SimExecutor::new(Platform::ipsc860(8));
            cholesky(exec, net_sim_matrix(size), seed, |report, rep| {
                match report.extra::<SimReport>() {
                    Some(sim) => {
                        rep.sim = Some(SimSummary {
                            time_ns: sim.time.0,
                            messages: sim.net.messages,
                            bytes: sim.net.bytes,
                            moves: sim.traffic.moves,
                            copies: sim.traffic.copies,
                            invalidations: sim.traffic.invalidations,
                            utilization: sim.utilization(),
                        });
                    }
                    None => rep.failed = rep.attempted,
                }
            })
        }
    }
}

// ----------------------------------------------------------------------
// Batch workloads: one program, one `execute` per repetition
// ----------------------------------------------------------------------

/// A Jade program as a value, so the same text can run on the
/// backend's own context or on [`Traced`] over it.
pub trait Program: Clone + Send + 'static {
    type Out: Send + 'static;
    fn run<C: JadeCtx>(self, ctx: &mut C) -> Self::Out;
}

/// `Runtime::execute` with the harness's spans around it.
pub fn execute<RT: Runtime, P: Program>(
    rt: &RT,
    program: P,
    mode: Mode,
) -> Result<Report<P::Out>, JadeFault> {
    let _execute = spans::span("execute", NO_REQ);
    match mode {
        Mode::Plain => rt.execute(RunConfig::new(), move |ctx| program.run(ctx)),
        Mode::Profiled => rt.execute(RunConfig::new().profiled(), move |ctx| program.run(ctx)),
        Mode::Traced => {
            traced::reset_task_index();
            rt.execute(RunConfig::new(), move |ctx| {
                let _program = spans::span("program", NO_REQ);
                program.run(Traced::wrap(ctx))
            })
        }
    }
}

/// Checks one report: returns how many operations the oracle rejects
/// and may copy backend extras into the [`Rep`].
type Judge<Out> = Box<dyn Fn(&Report<Out>, &mut Rep) -> u64>;

struct Batch<RT, P: Program> {
    rt: RT,
    program: P,
    ops: u64,
    judge: Judge<P::Out>,
}

impl<RT: Runtime, P: Program> Bench for Batch<RT, P> {
    fn rep(&self, mode: Mode) -> Rep {
        let program = self.program.clone();
        let start = Instant::now();
        let outcome = execute(&self.rt, program, mode);
        let wall = start.elapsed();
        let mut rep = Rep {
            wall,
            attempted: self.ops,
            jobs: vec![Job { latency_ns: wall.as_nanos() as u64, ..Job::default() }],
            ..Rep::default()
        };
        match outcome {
            Ok(report) => {
                rep.tasks = report.stats.tasks_created;
                rep.stats = report.stats;
                rep.net = report.net;
                rep.faults = report.faults;
                let analysis = Instant::now();
                rep.profile = report.critical_path().map(|cp| Profile {
                    work_ns: cp.work_nanos,
                    critical_ns: cp.critical_nanos,
                    elapsed_ns: cp.elapsed_nanos,
                    analysis_ns: analysis.elapsed().as_nanos() as u64,
                });
                let wrong = (self.judge)(&report, &mut rep);
                let miscounted = report.stats.tasks_created.abs_diff(self.ops);
                rep.failed = rep.failed.max(wrong).max(miscounted).min(rep.attempted);
            }
            Err(fault) => {
                eprintln!("fault: {fault}");
                rep.failed = rep.attempted;
            }
        }
        rep
    }

    fn ops(&self) -> u64 {
        self.ops
    }
}

/// `fine-*`: `tasks` single-object `rd_wr` increments, round-robin
/// over the counters.
#[derive(Clone)]
struct Fine {
    tasks: u64,
    init: Arc<Vec<u64>>,
}

impl Program for Fine {
    type Out = Vec<u64>;

    fn run<C: JadeCtx>(self, ctx: &mut C) -> Vec<u64> {
        let xs: Vec<Shared<u64>> = self.init.iter().map(|&v| ctx.create(v)).collect();
        for i in 0..self.tasks {
            let x = xs[i as usize % xs.len()];
            ctx.withonly(
                "t",
                |s| {
                    s.rd_wr(x);
                },
                move |c| {
                    *c.wr(&x) += 1;
                },
            );
        }
        xs.iter().map(|x| *ctx.rd(x)).collect()
    }
}

fn fine(workers: usize, objects: usize, tasks: u64, seed: u64) -> Box<dyn Bench> {
    let init = Arc::new(counter_seeds(objects, seed));
    // The plain-serial program: the same increments on plain integers.
    let mut want = (*init).clone();
    for i in 0..tasks {
        want[i as usize % objects] += 1;
    }
    Box::new(Batch {
        rt: ThreadedExecutor::new(workers),
        program: Fine { tasks, init },
        ops: tasks,
        judge: Box::new(move |report, _| {
            let got = &report.result;
            if got.len() != want.len() {
                return u64::MAX;
            }
            got.iter().zip(&want).map(|(g, w)| g.abs_diff(*w)).sum()
        }),
    })
}

#[derive(Clone)]
struct Cholesky(Arc<SparseSym>);

impl Program for Cholesky {
    type Out = SparseSym;

    fn run<C: JadeCtx>(self, ctx: &mut C) -> SparseSym {
        cholesky::factor_program(ctx, &self.0)
    }
}

fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

fn cholesky<RT: Runtime + 'static>(
    rt: RT,
    shape: MatrixShape,
    seed: u64,
    extras: impl Fn(&Report<SparseSym>, &mut Rep) + 'static,
) -> Box<dyn Bench> {
    let a = Arc::new(spd_matrix(shape, seed));
    let mut want = (*a).clone();
    cholesky::serial::factor(&mut want);
    let ops = cholesky_tasks(&a) as u64;
    Box::new(Batch {
        rt,
        program: Cholesky(a),
        ops,
        judge: Box::new(move |report, rep| {
            extras(report, rep);
            let got = &report.result;
            if got.cols.len() != want.cols.len() {
                return u64::MAX;
            }
            // A wrong column means at least the task that last wrote
            // it went wrong.
            got.cols.iter().zip(&want.cols).filter(|(g, w)| bits_differ(g, w)).count() as u64
        }),
    })
}

#[derive(Clone)]
struct Lws {
    sys: Arc<WaterSystem>,
    blocks: usize,
    steps: usize,
}

const LWS_DT: f64 = 0.002;

impl Program for Lws {
    type Out = (Vec<f64>, WaterSystem);

    fn run<C: JadeCtx>(self, ctx: &mut C) -> Self::Out {
        lws::run_jade(ctx, &self.sys, self.blocks, self.steps, LWS_DT)
    }
}

fn lws(workers: usize, n: usize, blocks: usize, steps: usize, seed: u64) -> Box<dyn Bench> {
    let sys = Arc::new(WaterSystem::new(n, seed));
    let mut want = (*sys).clone();
    let want_energy = lws::serial::run(&mut want, steps, LWS_DT);
    Box::new(Batch {
        rt: ThreadedExecutor::new(workers),
        program: Lws { sys, blocks, steps },
        // Per step: one force task per block, a reduce and an integrate.
        ops: (steps * (blocks + 2)) as u64,
        judge: Box::new(move |report, rep| {
            let (energy, sys) = &report.result;
            let flat = |v: &[[f64; 3]]| v.iter().flatten().copied().collect::<Vec<f64>>();
            // Positions accumulate in serial order and must match bit
            // for bit; energies are summed per block, so a tolerance.
            let state_ok = !bits_differ(&flat(&sys.pos), &flat(&want.pos))
                && !bits_differ(&flat(&sys.vel), &flat(&want.vel));
            let energy_ok = energy.len() == want_energy.len()
                && energy.iter().zip(&want_energy).all(|(a, b)| (a - b).abs() < 1e-9);
            if state_ok && energy_ok {
                0
            } else {
                rep.attempted
            }
        }),
    })
}

// ----------------------------------------------------------------------
// serve-pmake: a closed loop of clients over one Session
// ----------------------------------------------------------------------

#[derive(Clone)]
struct Pmake(Arc<Makefile>);

impl Program for Pmake {
    type Out = MakeOutcome;

    fn run<C: JadeCtx>(self, ctx: &mut C) -> MakeOutcome {
        pmake::make_jade(ctx, &self.0)
    }
}

/// One makefile of the job mix with what plain-serial `make` does to it.
struct MakeJob {
    program: Pmake,
    want_files: HashMap<String, FileState>,
    want_rebuilt: HashSet<String>,
}

/// Distinct makefiles the jobs cycle through. A job's cost follows the
/// shape of its DAG (±7 % from one random DAG to the next), so a run
/// serves a mix wide enough that every seed offers about the same load.
const JOB_MIX: usize = 64;

struct Serve {
    exec: ThreadedExecutor,
    mix: Vec<MakeJob>,
    clients: usize,
    slots: usize,
    queue_cap: usize,
    jobs: usize,
}

impl Serve {
    fn new(workers: usize, jobs: usize, seed: u64) -> Serve {
        let mut rng = SplitMix(seed);
        let mix = (0..JOB_MIX)
            .map(|_| {
                let mk = Makefile::random_dag(16, rng.next_u64());
                let want = pmake::serial::make_serial(&mk);
                MakeJob {
                    program: Pmake(Arc::new(mk)),
                    want_files: want.files,
                    want_rebuilt: want.rebuilt.into_iter().collect(),
                }
            })
            .collect();
        Serve {
            exec: ThreadedExecutor::new(workers),
            mix,
            // One job outstanding per client and fewer slots than
            // clients: a job always waits, so admission wait is
            // non-zero and measured, and the queue never fills.
            clients: workers,
            slots: (workers / 2).max(1),
            queue_cap: 2 * workers,
            jobs,
        }
    }

    /// One client's share of the repetition: submit, wait, check.
    fn client(
        &self,
        session: &Session<ThreadedExecutor>,
        first: usize,
        count: usize,
    ) -> (Vec<(u64, Job)>, RuntimeStats, u64) {
        let _client = spans::span("client", NO_REQ);
        let mut jobs = Vec::with_capacity(count);
        let mut stats = RuntimeStats::default();
        let mut failed = 0;
        for k in first..first + count {
            let job = &self.mix[k % self.mix.len()];
            let program = job.program.clone();
            let req = k as u64;
            let start = Instant::now();
            let submitted = {
                let _submit = spans::span("submit", req);
                session.submit(RunConfig::new(), move |ctx| program.run(ctx))
            };
            let handle = match submitted {
                Ok(handle) => handle,
                Err(refused) => {
                    eprintln!("job {k} refused: {refused}");
                    failed += 1;
                    continue;
                }
            };
            let id = handle.id().0;
            let outcome = {
                let _wait = spans::span("wait", req);
                handle.wait()
            };
            let latency_ns = start.elapsed().as_nanos() as u64;
            jobs.push((id, Job { latency_ns, ..Job::default() }));
            match outcome {
                Ok(report) => {
                    stats.merge(&report.stats);
                    let out = &report.result;
                    if out.files != job.want_files || out.rebuilt != job.want_rebuilt {
                        failed += 1;
                    }
                }
                Err(fault) => {
                    eprintln!("job {k} fault: {fault}");
                    failed += 1;
                }
            }
        }
        (jobs, stats, failed)
    }
}

/// Session observer keeping when each job was admitted, dispatched and
/// completed (nanoseconds since the session opened).
#[derive(Clone, Default)]
struct JobEvents(Arc<Mutex<HashMap<u64, [u64; 3]>>>);

impl RuntimeObserver for JobEvents {
    fn on_event(&mut self, ev: &Event) {
        let (job, phase) = match ev.kind {
            EventKind::JobSubmitted { job, .. } => (job, 0),
            EventKind::JobDispatched { job, .. } => (job, 1),
            EventKind::JobCompleted { job, .. } => (job, 2),
            _ => return,
        };
        let mut map = self.0.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(job).or_default()[phase] = ev.nanos;
    }
}

impl Bench for Serve {
    fn rep(&self, mode: Mode) -> Rep {
        let traced = mode == Mode::Traced;
        let events = JobEvents::default();
        let mut cfg = ServeConfig::new().with_slots(self.slots).with_queue_cap(self.queue_cap);
        if traced {
            cfg = cfg.with_observer(Box::new(events.clone()));
        }
        let session = self.exec.open_session(cfg);
        let share = self.jobs.div_ceil(self.clients);
        let start = Instant::now();
        let per_client: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let first = c * share;
                    let count = share.min(self.jobs.saturating_sub(first));
                    let session = &session;
                    scope.spawn(move || self.client(session, first, count))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = start.elapsed();
        let serve = session.drain().stats;

        let mut rep =
            Rep { wall, attempted: self.jobs as u64, serve: Some(serve), ..Rep::default() };
        let timeline = events.0.lock().unwrap_or_else(|p| p.into_inner());
        for (jobs, stats, failed) in per_client {
            rep.failed += failed;
            rep.stats.merge(&stats);
            for (id, mut job) in jobs {
                if let Some([submitted, dispatched, completed]) = timeline.get(&id) {
                    job.queue_ns = dispatched.saturating_sub(*submitted);
                    job.run_ns = completed.saturating_sub(*dispatched);
                }
                rep.jobs.push(job);
            }
        }
        rep.tasks = rep.stats.tasks_created;
        // Every job either completed or was already counted as failed.
        if !serve.is_settled() || serve.completed + rep.failed < self.jobs as u64 {
            eprintln!("drain did not settle: {serve}");
            rep.failed = rep.attempted;
        }
        rep
    }

    fn ops(&self) -> u64 {
        self.jobs as u64
    }
}
