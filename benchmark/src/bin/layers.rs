//! Traced run: the per-layer numbers behind the end-to-end ones.
//!
//! `layers --workload NAME` does three things and prints every
//! per-layer metric by name with its unit, then the one-line result:
//!
//! 1. re-runs the workload in pairs of one untraced and one traced
//!    repetition, the traced one on a `Traced` context with the span
//!    recorder on; per-task and per-job metrics, the tracing overhead
//!    and the span coverage come from those spans;
//! 2. reads the exact counters off the untraced repetition's reports;
//! 3. times direct calls into the layers the workload leans on — the
//!    dependency engine replaying the workload's own declaration
//!    stream, the ready queue, the wire format, the cluster — which is
//!    why this binary, unlike `e2e`, uses deep public APIs.
//!
//! The last traced repetition's spans go to `out/trace-<workload>.json`
//! in Chrome trace format. A layer off the workload's path reads 0.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jade_apps::cholesky::serial::external_update;
use jade_apps::cholesky::SparseSym;
use jade_apps::lws::{self, WaterSystem};
use jade_apps::pmake::{self, Makefile};
use jade_benchmark::harness::{self, Args, Measured, Watchdog};
use jade_benchmark::inputs::{spd_matrix, Size};
use jade_benchmark::json::Json;
use jade_benchmark::metrics::PER_LAYER;
use jade_benchmark::spans::{self, Span};
use jade_benchmark::stats::{median, percentile};
use jade_benchmark::workloads::{
    self, execute, lws_shape, net_sim_matrix, threads_matrix, Mode, Program, Rep, Workload,
};
use jade_benchmark::{baseline, workloads::workers};
use jade_core::engine::{EngineScratch, ShardedEngine};
use jade_core::graph::{DepGraph, Wake};
use jade_core::ir::run_ir;
use jade_core::prelude::*;
use jade_core::readyq::ReadyQueue;
use jade_core::serial::SerialRuntime;
use jade_net::{Cluster, NetConfig, NetExecutor};
use jade_threads::{StealQueue, ThreadedExecutor};
use jade_transport::{
    encode_frame, DataLayout, FrameReader, Message, MsgKind, PortDecoder, PortEncoder, Portable,
};

/// Share of `--seconds` spent on untraced/traced pairs; the probes
/// take the rest.
const PAIR_SHARE: f64 = 0.45;
/// Pairs beyond this add memory (every span is kept for percentiles)
/// and no information.
const MAX_PAIRS: usize = 4;
/// Spans written to the trace file (the earliest ones).
const TRACE_FILE_SPANS: usize = 200_000;

fn main() -> ExitCode {
    let args = harness::args_or_exit();
    harness::prepare_process();
    match args.workload {
        Some(w) => run_one(w, &args),
        None => {
            let args = Args { trace: true, ..args };
            let set = harness::run_set(&args);
            let out = harness::out_dir().join("layers.json");
            std::fs::write(&out, harness::set_ledger(&args, "layers", &set).to_pretty())
                .expect("write the layers ledger");
            eprintln!("wrote {}", out.display());
            if harness::set_is_correct(&set) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// The metric values of one run, by catalogue name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not in the catalogue");
        self.0.insert(name, value);
    }

    /// Every catalogue metric, 0 where the layer was not exercised.
    fn measured(&self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|m| Measured {
                name: m.name,
                value: self.0.get(m.name).copied().unwrap_or(0.0),
                unit: m.unit,
            })
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let watchdog = Watchdog::arm(w, Watchdog::limit_for(args));
    let size = args.size();
    let full = size == Size::Full;
    let bench = workloads::setup(w, args.seed, args.size());
    watchdog.set_ops(bench.ops());
    let mut v = Values::default();
    v.set("bench.timer_ns", timer_ns());

    // 1. Untraced/traced pairs.
    let started = Instant::now();
    let pair_budget = Duration::from_secs_f64(args.seconds * PAIR_SHARE);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut last_spans = Vec::new();
    while plain.is_empty() || (plain.len() < MAX_PAIRS && started.elapsed() < pair_budget) {
        plain.push(bench.rep(Mode::Plain));
        if plain.len() == 1 {
            // Peak memory of set-up plus one untraced repetition, read
            // before any span is recorded.
            v.set("bench.peak_rss_mb", harness::peak_rss_mb());
        }
        spans::set_enabled(true);
        let rep = {
            let _rep = spans::span("rep", spans::NO_REQ);
            bench.rep(Mode::Traced)
        };
        spans::set_enabled(false);
        traced.push(rep);
        last_spans = spans::drain();
        coverage.push(span_coverage(&last_spans));
        for s in &last_spans {
            durations.entry(s.name).or_default().push(s.dur() as f64);
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    for r in plain.iter().chain(&traced) {
        attempted += r.attempted;
        failed += r.failed;
    }
    let wall =
        |reps: &[Rep]| median(&reps.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>());
    let (plain_wall, traced_wall) = (wall(&plain), wall(&traced));
    v.set("bench.untraced_wall_s", plain_wall);
    v.set("bench.traced_wall_s", traced_wall);
    v.set("bench.trace_overhead_x", traced_wall / plain_wall);
    v.set("bench.span_coverage", median(&coverage));
    v.set("bench.spans_recorded", last_spans.len() as f64);
    span_metrics(&mut v, &durations, &traced);
    write_trace(w, args, &last_spans);
    drop(last_spans);
    drop(durations);

    // 2. Exact counters of the last untraced repetition.
    let last = plain.last().expect("at least one pair ran");
    count_metrics(&mut v, last);
    if w == Workload::ServePmake {
        serve_metrics(&mut v, &traced, last);
    }

    // 3. Direct calls into the layers on this workload's path.
    let tasks_per_s = last.tasks as f64 / plain_wall;
    match w {
        Workload::FineIndependent => {
            spec_build(&mut v);
            engine_replay(&mut v, &fine_stream(64, if full { 100_000 } else { 5_000 }), 16);
            steal_queue(&mut v, if full { 200_000 } else { 10_000 });
            // The plain pool settles at either of two rates from one run
            // to the next, so take the median of several.
            let rates: Vec<f64> =
                (0..5).map(|_| baseline::independent_rate(workers(), last.tasks / 2, 64)).collect();
            let scoped = median(&rates);
            v.set("baseline.scoped_tasks_per_s", scoped);
            v.set("threads.gap_vs_scoped_x", scoped / tasks_per_s);
            empty_execute(&mut v, if full { 1_000 } else { 50 });
        }
        Workload::FineChain => {
            engine_replay(&mut v, &fine_stream(4, if full { 100_000 } else { 5_000 }), 1_024);
            profiled(&mut v, w, args, &mut attempted, &mut failed);
            empty_execute(&mut v, if full { 1_000 } else { 50 });
        }
        Workload::CholeskyThreads => {
            let a = spd_matrix(threads_matrix(size), args.seed);
            engine_replay(&mut v, &cholesky_stream(&a), 2_048);
            profiled(&mut v, w, args, &mut attempted, &mut failed);
            cholesky_serial(&mut v, &a, plain_wall);
            v.set("apps.cholesky.body_ns", closure_body_ns(&a));
        }
        Workload::LwsThreads => {
            profiled(&mut v, w, args, &mut attempted, &mut failed);
            lws_serial(&mut v, args.seed, size, plain_wall);
        }
        Workload::ServePmake => {
            empty_execute(&mut v, if full { 1_000 } else { 50 });
            let mk = Makefile::random_dag(16, args.seed);
            let n = if full { 2_000 } else { 100 };
            let start = Instant::now();
            for _ in 0..n {
                black_box(pmake::serial::make_serial(black_box(&mk)));
            }
            v.set("apps.pmake.plain_serial_us", start.elapsed().as_secs_f64() * 1e6 / n as f64);
        }
        Workload::CholeskyNet => {
            let a = spd_matrix(net_sim_matrix(size), args.seed);
            engine_replay(&mut v, &cholesky_stream(&a), 2_048);
            transport(&mut v, &a);
            cluster(&mut v, if full { 10 } else { 2 });
            v.set("net.task_rtt_us", task_rtt_us(if full { 500 } else { 50 }));
            v.set("apps.cholesky.body_ns", closure_body_ns(&a));
            v.set("core.ir.run_ns", ir_body_ns(&a));
            cholesky_serial(&mut v, &a, plain_wall);
        }
        Workload::CholeskySim => {
            let a = spd_matrix(net_sim_matrix(size), args.seed);
            graph_replay(&mut v, &cholesky_stream(&a), 2_048);
            serial_runtime(&mut v, &spd_matrix(threads_matrix(size), args.seed));
            cholesky_serial(&mut v, &a, plain_wall);
        }
    }
    watchdog.disarm();

    v.set("bench.tasks", last.tasks as f64);
    v.set("bench.ops_attempted", attempted as f64);
    v.set("bench.ops_failed", failed as f64);
    println!(
        "{}: {} untraced/traced pairs (untraced wall {plain_wall:.4} s, traced {traced_wall:.4} s)",
        w.name(),
        plain.len()
    );
    harness::report(w, args, attempted, failed, &v.measured())
}

/// Cost of one `Instant::now()`: every per-call figure below carries
/// one start and one stop, so subtract this to compare with untimed
/// code.
fn timer_ns() -> f64 {
    let n = 200_000;
    let start = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

// ----------------------------------------------------------------------
// Spans of the traced repetitions
// ----------------------------------------------------------------------

/// Share of the driving threads' time the trace attributes to a call
/// into a layer. The harness's own containers — the program closure
/// on a batch workload, a client loop on `serve-pmake` — hold what is
/// left: loop overhead, input cloning, result checks, span bookkeeping.
fn span_coverage(spans: &[Span]) -> f64 {
    let sum = |name: &str, f: fn(&Span) -> u64| -> u64 {
        spans.iter().filter(|s| s.name == name).map(f).sum()
    };
    let clients = sum("client", Span::dur);
    let (outer, unattributed) = if clients > 0 {
        (clients, sum("client", Span::self_ns))
    } else {
        (sum("execute", Span::dur), sum("program", Span::self_ns))
    };
    if outer == 0 {
        0.0
    } else {
        1.0 - unattributed as f64 / outer as f64
    }
}

fn span_metrics(v: &mut Values, durations: &BTreeMap<&'static str, Vec<f64>>, traced: &[Rep]) {
    let mut both = |name: &str, p50: &'static str, p99: Option<&'static str>| {
        if let Some(d) = durations.get(name) {
            v.set(p50, median(d));
            if let Some(p99) = p99 {
                v.set(p99, percentile(d, 99.0));
            }
        }
    };
    both("withonly", "threads.executor.withonly_ns", Some("threads.executor.withonly_p99_ns"));
    both(
        "queue",
        "threads.executor.create_to_start_ns",
        Some("threads.executor.create_to_start_p99_ns"),
    );
    both("body", "threads.executor.body_ns", Some("threads.executor.body_p99_ns"));
    both("guard", "core.ctx.guard_ns", None);
    if let Some(joins) = durations.get("join") {
        // The root's reads at the end of the program: time per
        // repetition it spent waiting for outstanding tasks.
        v.set(
            "threads.executor.join_wait_us",
            joins.iter().sum::<f64>() / 1e3 / traced.len() as f64,
        );
    }
    if let Some(d) = durations.get("submit") {
        v.set("core.serve.submit_us", median(d) / 1e3);
    }
}

fn write_trace(w: Workload, args: &Args, spans: &[Span]) {
    let mut meta = harness::meta(args);
    meta.push(("workload", Json::str(w.name())));
    let path = harness::out_dir().join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, spans::chrome_trace(spans, TRACE_FILE_SPANS, meta).to_line())
        .expect("write the trace file");
    eprintln!("wrote {}", path.display());
}

// ----------------------------------------------------------------------
// Counters off the reports
// ----------------------------------------------------------------------

fn count_metrics(v: &mut Values, rep: &Rep) {
    let s = &rep.stats;
    v.set("core.engine.declarations", s.declarations as f64);
    v.set("core.engine.conflicts", s.conflicts as f64);
    v.set("core.engine.access_checks", s.access_checks as f64);
    v.set("core.engine.access_wait_ratio", ratio(s.access_waits, s.access_checks));
    v.set("core.engine.spec_cache_hit_ratio", ratio(s.spec_cache_hits, s.tasks_created));
    v.set("core.engine.grant_cache_hit_ratio", ratio(s.grant_cache_hits, s.access_checks));
    v.set("core.engine.peak_live_tasks", s.peak_live_tasks as f64);
    v.set("core.engine.peak_task_slots", s.peak_task_slots as f64);
    v.set("threads.executor.cont_steal_ratio", ratio(s.cont_steals, s.tasks_created));
    v.set("threads.executor.tasks_inlined", s.tasks_inlined as f64);
    // The simulator fills `Report.net` too; these names are the socket
    // backend's.
    if let (Some(net), None) = (rep.net, rep.sim) {
        let tasks = s.tasks_created;
        v.set("net.messages_per_task", ratio(net.messages, tasks));
        v.set("net.wire_bytes_per_task", ratio(net.bytes, tasks));
        v.set("net.payload_bytes_per_task", ratio(net.payload_bytes, tasks));
        v.set("net.replica_hit_ratio", net.replica_hit_rate());
        v.set("net.retransmit_ratio", ratio(net.retransmits, net.messages));
        v.set("net.tasks_shipped_ratio", ratio(net.tasks_shipped, tasks));
        v.set("net.degraded", rep.faults.map_or(0, |f| f.degraded) as f64);
    }
    if let Some(sim) = rep.sim {
        v.set("sim.time_s", sim.time_ns as f64 / 1e9);
        v.set("sim.host_us_per_task", rep.wall.as_secs_f64() * 1e6 / rep.tasks as f64);
        v.set("sim.messages", sim.messages as f64);
        v.set("sim.bytes", sim.bytes as f64);
        v.set("sim.objmgr.moves", sim.moves as f64);
        v.set("sim.objmgr.copies", sim.copies as f64);
        v.set("sim.objmgr.invalidations", sim.invalidations as f64);
        v.set("sim.utilization", sim.utilization);
    }
}

/// Session phases of the traced repetitions' jobs: wait for a slot,
/// run, and what is left of the client's latency (submit, wake-up of
/// the waiting client, result hand-over). The session stamps a job
/// completed after it has woken the waiter, so the remainder can come
/// out below zero; it is reported as 0 then: nothing unaccounted.
fn serve_metrics(v: &mut Values, traced: &[Rep], plain: &Rep) {
    let jobs: Vec<_> = traced.iter().flat_map(|r| &r.jobs).collect();
    let us = |f: fn(&workloads::Job) -> u64| -> Vec<f64> {
        jobs.iter().map(|j| f(j) as f64 / 1e3).collect()
    };
    let (queue, run) = (us(|j| j.queue_ns), us(|j| j.run_ns));
    let handoff: Vec<f64> =
        jobs.iter().map(|j| (j.latency_ns as f64 - (j.queue_ns + j.run_ns) as f64) / 1e3).collect();
    v.set("core.serve.queue_wait_us", median(&queue));
    v.set("core.serve.queue_wait_p99_us", percentile(&queue, 99.0));
    v.set("core.serve.run_us", median(&run));
    v.set("core.serve.run_p99_us", percentile(&run, 99.0));
    v.set("core.serve.handoff_us", median(&handoff).max(0.0));
    v.set("core.serve.jobs_per_s", plain.jobs.len() as f64 / plain.wall.as_secs_f64());
    if let Some(serve) = plain.serve {
        v.set("core.serve.rejected_saturated", serve.rejected_saturated as f64);
        v.set("core.serve.peak_queued", serve.peak_queued as f64);
        v.set("core.serve.peak_running", serve.peak_running as f64);
    }
}

/// The workload plain and then under `RunConfig::profiled()`: what the
/// observers cost, and the work and span they report. At mid size,
/// because task-graph capture and `Report::critical_path()` grow
/// faster than the task count — at full size `fine-chain` alone would
/// take minutes; `lws-threads` has 160 tasks and is profiled whole.
fn profiled(v: &mut Values, w: Workload, args: &Args, attempted: &mut u64, failed: &mut u64) {
    let size = match args.size() {
        Size::Full if w != Workload::LwsThreads => Size::Mid,
        size => size,
    };
    let bench = workloads::setup(w, args.seed, size);
    let plain = bench.rep(Mode::Plain);
    let rep = bench.rep(Mode::Profiled);
    *attempted += plain.attempted + rep.attempted;
    *failed += plain.failed + rep.failed;
    v.set("core.observe.profiled_overhead_x", rep.wall.as_secs_f64() / plain.wall.as_secs_f64());
    if let Some(p) = rep.profile {
        v.set("core.observe.critical_path_ms", p.analysis_ns as f64 / 1e6);
        v.set("threads.executor.body_busy_s", p.work_ns as f64 / 1e9);
        v.set("threads.executor.critical_path_s", p.critical_ns as f64 / 1e9);
        v.set("threads.executor.parallelism_x", p.work_ns as f64 / p.elapsed_ns as f64);
        // Share of the pool's time not spent inside task bodies:
        // runtime work plus idling. The root's thread runs tasks while
        // it waits, so the pool is the workers plus one.
        let capacity = p.elapsed_ns as f64 * (workers() + 1) as f64;
        v.set("threads.executor.overhead_share", 1.0 - p.work_ns as f64 / capacity);
    }
}

// ----------------------------------------------------------------------
// Dependency engines: replay of a declaration stream
// ----------------------------------------------------------------------

/// A workload's declarations, task by task, as (object index, writes?).
struct Stream {
    objects: usize,
    decls: Vec<(u32, bool)>,
    /// `decls[ends[i - 1]..ends[i]]` belong to task `i`.
    ends: Vec<u32>,
}

impl Stream {
    fn tasks(&self) -> usize {
        self.ends.len()
    }

    fn spec(&self, task: usize, oids: &[ObjectId]) -> Vec<jade_core::spec::Declaration> {
        let from = if task == 0 { 0 } else { self.ends[task - 1] as usize };
        let mut sb = SpecBuilder::new();
        for &(obj, writes) in &self.decls[from..self.ends[task] as usize] {
            if writes {
                sb.rd_wr(oids[obj as usize]);
            } else {
                sb.rd(oids[obj as usize]);
            }
        }
        sb.build().0
    }
}

/// `fine-*`: one `rd_wr` per task, round-robin over the counters.
fn fine_stream(objects: usize, tasks: usize) -> Stream {
    Stream {
        objects,
        decls: (0..tasks).map(|i| ((i % objects) as u32, true)).collect(),
        ends: (1..=tasks as u32).collect(),
    }
}

/// The declarations `cholesky::factor_jade` issues for `a`: object
/// `i` is column `i`, object `n` the shared pattern.
fn cholesky_stream(a: &SparseSym) -> Stream {
    let n = a.pattern.n;
    let pat = n as u32;
    let mut s = Stream { objects: n + 1, decls: Vec::new(), ends: Vec::new() };
    for i in 0..n {
        s.decls.extend([(i as u32, true), (pat, false)]);
        s.ends.push(s.decls.len() as u32);
        for &j in &a.pattern.rows[i] {
            s.decls.extend([(j as u32, true), (i as u32, false), (pat, false)]);
            s.ends.push(s.decls.len() as u32);
        }
    }
    s
}

/// The tasks a batch of wakes made ready to start.
fn ready_of(wakes: impl IntoIterator<Item = Wake>) -> impl Iterator<Item = TaskId> {
    wakes.into_iter().filter_map(|w| match w {
        Wake::Ready(t) => Some(t),
        Wake::Unblocked(_) => None,
    })
}

/// Per-call times of one replay.
#[derive(Default)]
struct CallTimes {
    create: Vec<f64>,
    attach: Vec<f64>,
    start: Vec<f64>,
    finish: Vec<f64>,
}

fn ns(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_nanos() as f64
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Drive `ShardedEngine` through the stream on one thread, reading the
/// clock around every call: the creator runs `lookahead` tasks ahead
/// of retirement (about the depth the real run reaches), ready tasks
/// retire first come first served.
fn engine_replay(v: &mut Values, stream: &Stream, lookahead: usize) {
    let eng = ShardedEngine::new();
    let oids: Vec<ObjectId> =
        (0..stream.objects).map(|_| eng.create_object(TaskId::ROOT)).collect();
    let mut scratch = EngineScratch::default();
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    let mut times = CallTimes::default();
    let mut live = 0usize;
    let retire =
        |scratch: &mut EngineScratch, ready: &mut VecDeque<TaskId>, times: &mut CallTimes| {
            let Some(tid) = ready.pop_front() else { return false };
            let t0 = Instant::now();
            eng.start_task(tid);
            let t1 = Instant::now();
            eng.finish_task_with(tid, scratch);
            let t2 = Instant::now();
            times.start.push(ns(t0, t1));
            times.finish.push(ns(t1, t2));
            ready.extend(ready_of(scratch.wakes.drain(..)));
            true
        };
    for task in 0..stream.tasks() {
        let decls = stream.spec(task, &oids);
        let t0 = Instant::now();
        let tid = eng.alloc_task(TaskId::ROOT, "t", Placement::Any);
        let t1 = Instant::now();
        eng.attach_task_with(tid, &decls, &mut scratch).expect("replayed spec is valid");
        let t2 = Instant::now();
        times.create.push(ns(t0, t1));
        times.attach.push(ns(t1, t2));
        ready.extend(ready_of(scratch.wakes.drain(..)));
        live += 1;
        while live > lookahead && retire(&mut scratch, &mut ready, &mut times) {
            live -= 1;
        }
    }
    while retire(&mut scratch, &mut ready, &mut times) {
        live -= 1;
    }
    assert_eq!(live, 0, "replay left tasks unfinished");
    let (alloc, attach) = (mean(&times.create), mean(&times.attach));
    let (start, finish) = (mean(&times.start), mean(&times.finish));
    v.set("core.engine.alloc_ns", alloc);
    v.set("core.engine.attach_ns", attach);
    v.set("core.engine.attach_p99_ns", percentile(&times.attach, 99.0));
    v.set("core.engine.start_ns", start);
    v.set("core.engine.finish_ns", finish);
    v.set("core.engine.finish_p99_ns", percentile(&times.finish, 99.0));
    v.set("core.engine.lifecycle_ns", alloc + attach + start + finish);
}

/// The same replay against `DepGraph`, the engine under the serial
/// elision and the simulator.
fn graph_replay(v: &mut Values, stream: &Stream, lookahead: usize) {
    let mut g = DepGraph::new();
    let oids: Vec<ObjectId> = (0..stream.objects).map(|_| g.create_object(TaskId::ROOT)).collect();
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    let mut times = CallTimes::default();
    let mut live = 0usize;
    let retire = |g: &mut DepGraph, ready: &mut VecDeque<TaskId>, times: &mut CallTimes| {
        let Some(tid) = ready.pop_front() else { return false };
        let t0 = Instant::now();
        g.start_task(tid);
        let t1 = Instant::now();
        let wakes = g.finish_task(tid);
        let t2 = Instant::now();
        times.start.push(ns(t0, t1));
        times.finish.push(ns(t1, t2));
        ready.extend(ready_of(wakes));
        true
    };
    for task in 0..stream.tasks() {
        let decls = stream.spec(task, &oids);
        let t0 = Instant::now();
        let (_, wakes) = g
            .create_task(TaskId::ROOT, "t", decls, Placement::Any)
            .expect("replayed spec is valid");
        times.create.push(ns(t0, Instant::now()));
        ready.extend(ready_of(wakes));
        live += 1;
        while live > lookahead && retire(&mut g, &mut ready, &mut times) {
            live -= 1;
        }
    }
    while retire(&mut g, &mut ready, &mut times) {
        live -= 1;
    }
    assert_eq!(live, 0, "replay left tasks unfinished");
    v.set("core.graph.create_ns", mean(&times.create));
    v.set("core.graph.start_ns", mean(&times.start));
    v.set("core.graph.finish_ns", mean(&times.finish));
}

fn spec_build(v: &mut Values) {
    let eng = ShardedEngine::new();
    let oids: Vec<ObjectId> = (0..9).map(|_| eng.create_object(TaskId::ROOT)).collect();
    let mut time = |objects: usize, name: &'static str| {
        let n = 200_000;
        let start = Instant::now();
        for _ in 0..n {
            let mut sb = SpecBuilder::new();
            for &o in &oids[..objects] {
                sb.rd_wr(black_box(o));
            }
            black_box(sb.build());
        }
        v.set(name, start.elapsed().as_nanos() as f64 / n as f64);
    };
    time(1, "core.spec.build_1obj_ns");
    time(2, "core.spec.build_2obj_ns");
    time(9, "core.spec.build_9obj_ns");
}

/// `SerialRuntime` on the n=400 factorization: the serial elision's
/// whole cost per task.
fn serial_runtime(v: &mut Values, a: &SparseSym) {
    #[derive(Clone)]
    struct Factor(std::sync::Arc<SparseSym>);
    impl Program for Factor {
        type Out = SparseSym;
        fn run<C: JadeCtx>(self, ctx: &mut C) -> SparseSym {
            jade_apps::cholesky::factor_program(ctx, &self.0)
        }
    }
    let program = Factor(std::sync::Arc::new(a.clone()));
    let start = Instant::now();
    let report = execute(&SerialRuntime, program, Mode::Plain).expect("serial elision runs clean");
    let wall = start.elapsed();
    v.set("core.serial.us_per_task", wall.as_secs_f64() * 1e6 / report.stats.tasks_created as f64);
}

// ----------------------------------------------------------------------
// Thread-pool executor and ready queue
// ----------------------------------------------------------------------

/// An empty program through `execute`: what every run and every
/// session job pays before its first task and after its last.
fn empty_execute(v: &mut Values, runs: usize) {
    #[derive(Clone)]
    struct Empty;
    impl Program for Empty {
        type Out = ();
        fn run<C: JadeCtx>(self, _: &mut C) {}
    }
    let exec = ThreadedExecutor::new(workers());
    spans::set_enabled(true);
    for _ in 0..runs {
        execute(&exec, Empty, Mode::Traced).expect("empty program runs clean");
    }
    spans::set_enabled(false);
    let spans = spans::drain();
    let executes: Vec<&Span> = spans.iter().filter(|s| s.name == "execute").collect();
    let programs: Vec<&Span> = spans.iter().filter(|s| s.name == "program").collect();
    assert_eq!(executes.len(), programs.len());
    let us = |f: fn(&Span, &Span) -> u64| -> f64 {
        median(
            &executes.iter().zip(&programs).map(|(e, p)| f(e, p) as f64 / 1e3).collect::<Vec<_>>(),
        )
    };
    v.set("threads.executor.execute_empty_us", us(|e, _| e.dur()));
    v.set("threads.executor.spinup_us", us(|e, p| p.start.saturating_sub(e.start)));
    v.set("threads.executor.teardown_us", us(|e, p| e.end.saturating_sub(p.end)));
}

/// `StealQueue` through the `ReadyQueue` trait, one thread: own-deque
/// push and pop, a sibling's batch steal, and a batched push.
fn steal_queue(v: &mut Values, n: usize) {
    let q = StealQueue::new(2);
    let per = |start: Instant| start.elapsed().as_nanos() as f64 / n as f64;

    let start = Instant::now();
    for i in 0..n {
        q.push(TaskId(i as u64 + 1), Some(0));
        black_box(q.pop(0));
    }
    v.set("threads.steal.push_pop_ns", per(start));

    for i in 0..n {
        q.push(TaskId(i as u64 + 1), Some(0));
    }
    let start = Instant::now();
    let mut taken = 0;
    while q.pop(1).is_some() {
        taken += 1;
    }
    v.set("threads.steal.steal_ns", per(start));
    assert_eq!(taken, n, "worker 1 must drain worker 0's deque");

    let batch: Vec<TaskId> = (1..=32).map(TaskId).collect();
    let start = Instant::now();
    for _ in 0..n / 32 {
        q.push_batch(&batch, Some(0));
    }
    v.set(
        "threads.steal.push_batch_ns_per_task",
        start.elapsed().as_nanos() as f64 / (n / 32 * 32) as f64,
    );
    while q.pop(0).is_some() {}
}

// ----------------------------------------------------------------------
// Task bodies and plain-serial programs
// ----------------------------------------------------------------------

/// One `ExternalUpdate` per below-diagonal entry, in factorization
/// order: what the task bodies of a Cholesky workload compute.
fn external_updates(a: &SparseSym) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..a.pattern.n).flat_map(move |i| a.pattern.rows[i].iter().map(move |&j| (i, j)))
}

/// The closure form of the body: `external_update` on the workload's
/// own columns, mean over the whole factorization.
fn closure_body_ns(a: &SparseSym) -> f64 {
    let passes = 5;
    let mut total = Duration::ZERO;
    let mut updates = 0;
    for _ in 0..passes {
        let mut m = a.clone();
        let start = Instant::now();
        for (i, j) in external_updates(a) {
            let (head, tail) = m.cols.split_at_mut(j);
            external_update(&mut tail[0], &head[i], &a.pattern.rows[i], &a.pattern.rows[j], j);
            updates += 1;
        }
        total += start.elapsed();
        black_box(&m);
    }
    total.as_nanos() as f64 / updates as f64
}

/// The IR form of the same bodies: `run_ir` with the `chol_external`
/// kernel, inputs lowered as the socket backend ships them.
fn ir_body_ns(a: &SparseSym) -> f64 {
    let registry = jade_apps::kernels::registry();
    let rows = &a.pattern.rows;
    let bodies: Vec<(TaskBodyIr, Vec<Option<Vec<f64>>>)> = external_updates(a)
        .map(|(i, j)| {
            // Argument layout of `chol_external`, as `factor_jade`
            // builds it: decl 0 is column j, decl 1 column i.
            let mut meta = vec![j as f64, rows[i].len() as f64];
            meta.extend(rows[i].iter().map(|&r| r as f64));
            meta.push(rows[j].len() as f64);
            meta.extend(rows[j].iter().map(|&r| r as f64));
            let ir = TaskBodyIr::new().step(
                "chol_external",
                vec![IrSrc::Lit(meta), IrSrc::Obj(1), IrSrc::Obj(0)],
                IrDst::Obj(0),
            );
            (ir, vec![Some(a.cols[j].clone()), Some(a.cols[i].clone())])
        })
        .collect();
    let passes = 5;
    let start = Instant::now();
    for _ in 0..passes {
        for (ir, inputs) in &bodies {
            black_box(run_ir(ir, inputs, &registry).expect("kernel is registered"));
        }
    }
    start.elapsed().as_nanos() as f64 / (passes * bodies.len()) as f64
}

fn cholesky_serial(v: &mut Values, a: &SparseSym, wall: f64) {
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let mut m = a.clone();
            let start = Instant::now();
            jade_apps::cholesky::serial::factor(&mut m);
            black_box(&m);
            start.elapsed().as_secs_f64()
        })
        .collect();
    v.set("apps.cholesky.plain_serial_s", median(&times));
    v.set("apps.speedup_x", median(&times) / wall);
}

fn lws_serial(v: &mut Values, seed: u64, size: Size, wall: f64) {
    let (n, _, steps) = lws_shape(size);
    let sys = WaterSystem::new(n, seed);
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let mut s = sys.clone();
            let start = Instant::now();
            black_box(lws::serial::run(&mut s, steps, 0.002));
            start.elapsed().as_secs_f64()
        })
        .collect();
    v.set("apps.lws.plain_serial_s", median(&times));
    v.set("apps.speedup_x", median(&times) / wall);
    let forces: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(lws::serial::compute_forces(black_box(&sys)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.set("apps.lws.forces_ms", median(&forces));
}

// ----------------------------------------------------------------------
// Wire format and cluster
// ----------------------------------------------------------------------

fn encoded<T: Portable>(value: &T, layout: DataLayout) -> jade_transport::Bytes {
    let mut enc = PortEncoder::new(layout);
    value.encode(&mut enc);
    enc.finish()
}

/// Marshalling the workload's own columns: native layout both ways,
/// then through a big-endian, 4-byte-aligned peer; and one frame of
/// the median column through `encode_frame` and `FrameReader`.
fn transport(v: &mut Values, a: &SparseSym) {
    let passes = 20;
    let native = DataLayout::x86_64();
    let foreign = DataLayout::sparc();
    let kb = |layout| {
        a.cols.iter().map(|c| encoded(c, layout).len()).sum::<usize>() as f64 / 1024.0
            * passes as f64
    };

    let start = Instant::now();
    for _ in 0..passes {
        for col in &a.cols {
            black_box(encoded(black_box(col), native));
        }
    }
    v.set("transport.encode_ns_per_kb", start.elapsed().as_nanos() as f64 / kb(native));

    let decode = |layout: DataLayout| {
        let wire: Vec<_> = a.cols.iter().map(|c| encoded(c, layout)).collect();
        let start = Instant::now();
        for _ in 0..passes {
            for bytes in &wire {
                let mut dec = PortDecoder::new(bytes, layout);
                black_box(Vec::<f64>::decode(&mut dec).expect("just encoded"));
            }
        }
        start.elapsed().as_nanos() as f64 / kb(layout)
    };
    v.set("transport.decode_ns_per_kb", decode(native));
    // Encode on the foreign machine and decode here: the cost of the
    // conversion a heterogeneous peer adds.
    let start = Instant::now();
    for _ in 0..passes {
        for col in &a.cols {
            black_box(encoded(black_box(col), foreign));
        }
    }
    let foreign_encode = start.elapsed().as_nanos() as f64 / kb(foreign);
    v.set("transport.convert_ns_per_kb", foreign_encode + decode(foreign));

    let mut by_len: Vec<&Vec<f64>> = a.cols.iter().collect();
    by_len.sort_by_key(|c| c.len());
    let typical = by_len[by_len.len() / 2];
    let msg = Message::pack(MsgKind::ObjectCopy, 0, 1, 1, native, typical);
    let n = 20_000;
    let mut reader = FrameReader::new();
    let start = Instant::now();
    for _ in 0..n {
        let frame = encode_frame(black_box(&msg));
        reader.push(&frame);
        black_box(reader.next_frame().expect("own frame decodes").expect("whole frame pushed"));
    }
    v.set("transport.frame_ns", start.elapsed().as_nanos() as f64 / n as f64);
}

fn net_config(workers: usize) -> NetConfig {
    NetConfig { registry: jade_apps::kernels::registry(), ..NetConfig::threads(workers) }
}

/// Bring a cluster up and down: the part of every `cholesky-net`
/// repetition that is not task traffic.
fn cluster(v: &mut Values, rounds: usize) {
    let (mut up, mut down) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let start = Instant::now();
        let cluster = Cluster::start(net_config(workers())).expect("cluster starts");
        up.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        black_box(cluster.shutdown());
        down.push(start.elapsed().as_secs_f64() * 1e3);
    }
    v.set("net.cluster_start_ms", median(&up));
    v.set("net.cluster_shutdown_ms", median(&down));
}

/// Round trip of one shipped task: a chain of `chain` dependent
/// `id`-kernel IR tasks on a single worker, less the same run with no
/// tasks, per task.
fn task_rtt_us(chain: usize) -> f64 {
    #[derive(Clone)]
    struct Chain(usize);
    impl Program for Chain {
        type Out = Vec<f64>;
        fn run<C: JadeCtx>(self, ctx: &mut C) -> Vec<f64> {
            let x = ctx.create(vec![1.0f64; 8]);
            for _ in 0..self.0 {
                let ir = TaskBodyIr::new().step("id", vec![IrSrc::Obj(0)], IrDst::Obj(0));
                ctx.withonly_ir(
                    "id",
                    |s| {
                        s.rd_wr(x);
                    },
                    ir,
                    move |c| {
                        let same = c.rd(&x).clone();
                        *c.wr(&x) = same;
                    },
                );
            }
            ctx.rd(&x).clone()
        }
    }
    let exec = NetExecutor::new(net_config(1));
    let wall = |tasks: usize| {
        let start = Instant::now();
        let report = execute(&exec, Chain(tasks), Mode::Plain).expect("chain runs clean");
        assert_eq!(report.result, vec![1.0; 8]);
        assert_eq!(report.net.map(|n| n.tasks_shipped), Some(tasks as u64), "every body ships");
        start.elapsed().as_secs_f64()
    };
    let empty = median(&[wall(0), wall(0), wall(0)]);
    let loaded = median(&[wall(chain), wall(chain), wall(chain)]);
    (loaded - empty).max(0.0) * 1e6 / chain as f64
}
