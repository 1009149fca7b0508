//! Protocol-level integration tests for the distributed backend, all
//! in thread mode: workers are in-process threads over real sockets,
//! so chaos "kill" is an abrupt socket shutdown and "hang" is going
//! silent — the two failure signatures the coordinator's detectors
//! (EOF and heartbeat) must catch. Process-mode `SIGKILL` chaos lives
//! in the root crate's `tests/chaos_net.rs`, which can reach the
//! `jade-net-worker` binary.
//!
//! Every test builds its config through [`base`], which honors
//! `JADE_NET_TEST_TRANSPORT=tcp`: CI runs this whole suite twice, once
//! over Unix-domain sockets and once over loopback TCP.

#![deny(deprecated)]

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use jade_apps::cholesky::{self, SparseSym};
use jade_core::ir::{IrDst, IrSrc, TaskBodyIr};
use jade_core::prelude::*;
use jade_core::serial::SerialRuntime;
use jade_net::sock::{is_timeout, Sock};
use jade_net::wire::{pack_msg, send_msg, unpack_msg, NetMsg};
use jade_net::{
    run_worker, Chaos, Die, KernelRegistry, NetConfig, NetExecutor, PlacementPolicy, Transport,
    WorkerOpts,
};
use jade_transport::{encode_frame, Bytes, DataLayout, FrameReader, LayoutId, Message, MsgKind};

/// `n` thread-mode workers over the transport CI asked for
/// (`JADE_NET_TEST_TRANSPORT=tcp` switches the whole suite to TCP).
fn base(n: usize) -> NetConfig {
    let mut cfg = NetConfig::threads(n);
    if std::env::var("JADE_NET_TEST_TRANSPORT").as_deref() == Ok("tcp") {
        cfg.transport = Transport::Tcp;
    }
    cfg
}

/// [`base`] for tests whose fault plan counts the tasks a victim
/// accepts: locality placement breaks ties toward worker 0, so how
/// many ships reach each worker depends on timing; rotation makes the
/// count certain.
fn rotating(n: usize) -> NetConfig {
    NetConfig { placement: PlacementPolicy::RoundRobin, ..base(n) }
}

/// A deterministic little program with real dependencies: square each
/// part, then sum. Closure bodies only, so nothing here can cross the
/// wire.
fn square_sum_program<C: JadeCtx>(ctx: &mut C) -> f64 {
    let parts: Vec<Shared<f64>> = (0..12).map(|i| ctx.create(i as f64)).collect();
    for &p in &parts {
        ctx.withonly(
            "square",
            |s| {
                s.rd_wr(p);
            },
            move |c| {
                let v = *c.rd(&p);
                *c.wr(&p) = v * v;
            },
        );
    }
    parts.iter().map(|p| *ctx.rd(p)).sum()
}

/// The same program with portable task bodies: each task carries a
/// one-step IR program (`sq_norm` over a one-element object computes
/// the square) alongside the closure fallback. Every protocol and
/// fault test below runs this one, because shipping a body is the only
/// way a task reaches a worker.
fn square_sum_ir_program<C: JadeCtx>(ctx: &mut C) -> f64 {
    let parts: Vec<Shared<f64>> = (0..12).map(|i| ctx.create(i as f64)).collect();
    for &p in &parts {
        let ir = TaskBodyIr::new().step("sq_norm", vec![IrSrc::Obj(0)], IrDst::Obj(0));
        ctx.withonly_ir(
            "square",
            |s| {
                s.rd_wr(p);
            },
            ir,
            move |c| {
                let v = *c.rd(&p);
                *c.wr(&p) = v * v;
            },
        );
    }
    parts.iter().map(|p| *ctx.rd(p)).sum()
}

/// A worker thread serving one end of a socketpair, and the other end
/// for the test to play coordinator on.
fn paired_worker() -> (UnixStream, std::thread::JoinHandle<std::io::Result<()>>) {
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let opts = WorkerOpts { die: Die::Abrupt, registry: KernelRegistry::builtin() };
    (ours, std::thread::spawn(move || run_worker(Sock::Unix(theirs), opts)))
}

/// The `Welcome` a coordinator sends slot 0, naming `layout`.
fn welcome(layout: LayoutId) -> Message {
    let msg = NetMsg::Welcome { worker: 0, layout, chaos: Chaos::default() };
    pack_msg(&msg, 0, 0, DataLayout::x86_64())
}

/// The test's end of a [`paired_worker`] socket, playing coordinator
/// with raw frames.
struct Coordinator {
    sock: UnixStream,
    rd: FrameReader,
}

impl Coordinator {
    /// Take the worker's `Hello`.
    fn hello(sock: UnixStream) -> Coordinator {
        let mut c = Coordinator { sock, rd: FrameReader::new() };
        assert_eq!(c.next_msg(), Some(NetMsg::Hello));
        c
    }

    /// Take the worker's `Hello` and welcome it with a SPARC layout, so
    /// every frame it sends back crosses byte orders.
    fn handshake(sock: UnixStream) -> Coordinator {
        let mut c = Coordinator::hello(sock);
        c.write(&welcome(DataLayout::sparc().id));
        c
    }

    /// Frame and write a packed message as it is.
    fn write(&mut self, msg: &Message) {
        std::io::Write::write_all(&mut self.sock, &encode_frame(msg)).expect("write to the worker");
    }

    fn send(&mut self, msg: &NetMsg) {
        send_msg(&mut self.sock, msg, 0, 0, DataLayout::x86_64()).expect("send to the worker");
    }

    /// The next frame the worker wrote, or `None` once it hung up.
    fn next_msg(&mut self) -> Option<NetMsg> {
        loop {
            if let Some(m) = self.rd.next_frame().expect("well-formed frame") {
                return Some(unpack_msg(&m).expect("decodable frame"));
            }
            let mut buf = [0u8; 1024];
            match std::io::Read::read(&mut self.sock, &mut buf).expect("worker socket") {
                0 => return None,
                n => self.rd.push(&buf[..n]),
            }
        }
    }

    /// Whether the worker wrote nothing for `wait`.
    fn silent_for(&mut self, wait: Duration) -> bool {
        self.sock.set_read_timeout(Some(wait)).expect("read timeout");
        let mut buf = [0u8; 1024];
        let silent = match std::io::Read::read(&mut self.sock, &mut buf) {
            Ok(n) => {
                self.rd.push(&buf[..n]);
                false
            }
            Err(e) => is_timeout(&e),
        };
        self.sock.set_read_timeout(None).expect("read timeout");
        silent
    }

    /// Say goodbye; the worker must write nothing more and exit cleanly.
    fn shut_down(mut self, worker: std::thread::JoinHandle<std::io::Result<()>>) {
        self.send(&NetMsg::Shutdown);
        assert_eq!(self.next_msg(), None, "no frame may follow the last result");
        let exit = worker.join().expect("the worker loop must not panic");
        assert!(exit.is_ok(), "clean exit expected, got {exit:?}");
    }
}

fn serial_answer() -> f64 {
    SerialRuntime.execute(RunConfig::new(), square_sum_program).expect("serial oracle").result
}

#[test]
fn clean_run_matches_serial_and_reports_net_stats() {
    let rep = NetExecutor::new(base(2))
        .execute(RunConfig::new(), square_sum_ir_program)
        .expect("clean net run");
    assert_eq!(rep.result, serial_answer());
    let net = rep.net.expect("net backend always reports NetStats");
    assert!(net.messages > 0, "task-result traffic must be visible: {net:?}");
    let faults = rep.faults.expect("net backend always reports FaultStats");
    assert!(faults.is_clean(), "no chaos configured: {faults}");
}

#[test]
fn ir_bodies_execute_on_workers_not_the_coordinator() {
    let rep = NetExecutor::new(base(2))
        .execute(RunConfig::new(), square_sum_ir_program)
        .expect("clean IR run");
    assert_eq!(rep.result, serial_answer(), "IR and closure must agree bit-for-bit");
    let net = rep.net.expect("stats");
    assert_eq!(
        net.tasks_shipped, rep.stats.tasks_created,
        "with live workers every portable body must ship: {net:?}"
    );
    assert!(
        net.replica_hits + net.replica_misses > 0,
        "shipped tasks must exercise the replica cache: {net:?}"
    );
    let faults = rep.faults.expect("stats");
    assert!(
        faults.is_clean(),
        "no chaos: nothing may degrade to coordinator-local execution: {faults}"
    );
}

#[test]
fn ir_with_unknown_kernel_silently_runs_the_closure() {
    // The coordinator's registry cannot express this program, so the
    // closure runs on the coordinator — correct answer, no degradation.
    let rep = NetExecutor::new(base(2))
        .execute(RunConfig::new(), |ctx| {
            let p = ctx.create(3.0f64);
            let ir = TaskBodyIr::new().step("no-such-kernel", vec![IrSrc::Obj(0)], IrDst::Obj(0));
            ctx.withonly_ir(
                "sq",
                |s| {
                    s.rd_wr(p);
                },
                ir,
                move |c| {
                    let v = *c.rd(&p);
                    *c.wr(&p) = v * v;
                },
            );
            *ctx.rd(&p)
        })
        .expect("run completes on the closure path");
    assert_eq!(rep.result, 9.0);
    let net = rep.net.expect("stats");
    assert_eq!(net.tasks_shipped, 0, "an unshippable program must not ship: {net:?}");
    let faults = rep.faults.expect("stats");
    assert!(faults.is_clean(), "falling back to the closure is not a fault: {faults}");
}

#[test]
fn tcp_transport_conforms_too() {
    let cfg = NetConfig { transport: Transport::Tcp, ..NetConfig::threads(2) };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new(), square_sum_ir_program)
        .expect("clean tcp run");
    assert_eq!(rep.result, serial_answer());
}

#[test]
fn killed_worker_is_detected_and_survivors_finish() {
    let cfg = NetConfig {
        chaos: vec![(0, Chaos { kill_after_grants: Some(2), ..Chaos::default() })],
        ..rotating(2)
    };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new(), square_sum_ir_program)
        .expect("the run must survive the worker loss");
    assert_eq!(rep.result, serial_answer(), "recovery must not change the answer");
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.crashes, 1, "exactly one worker died: {faults}");
    assert!(
        faults.recoveries + faults.degraded > 0,
        "the in-flight task must have been reassigned or degraded: {faults}"
    );
}

#[test]
fn killed_dirty_replica_holder_forces_reshipping() {
    // A serial chain over ONE object makes the scenario
    // deterministic: the placement tie-break (equal load, then
    // affinity, then index) pins every link to worker 0, which
    // commits two of them — sole holder of the latest version — then
    // dies executing the third, before the result frame leaves. The
    // successor can only run on worker 1, whose read of the evicted
    // sole replica must be re-shipped from the master copy.
    let cfg = NetConfig {
        workers: 2,
        chaos: vec![(0, Chaos { kill_after_tasks: Some(2), ..Chaos::default() })],
        ..base(2)
    };
    let program = |ctx: &mut jade_threads::ThreadCtx| {
        let p: Shared<f64> = ctx.create(3.0);
        for _ in 0..8 {
            let ir = TaskBodyIr::new().step("scale2", vec![IrSrc::Obj(0)], IrDst::Obj(0));
            ctx.withonly_ir(
                "scale",
                |s| {
                    s.rd_wr(p);
                },
                ir,
                move |c| {
                    let v = *c.rd(&p);
                    *c.wr(&p) = v * 2.0;
                },
            );
        }
        *ctx.rd(&p)
    };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new(), program)
        .expect("the run must survive the dirty-holder loss");
    assert_eq!(rep.result, 3.0 * 256.0, "recovery must not change the answer");
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.crashes, 1, "exactly one worker died: {faults}");
    assert!(faults.recoveries > 0, "the in-flight chain link must be re-dispatched: {faults}");
    assert!(faults.reshipped > 0, "the evicted sole-holder replica must be re-shipped: {faults}");
}

#[test]
fn hung_worker_is_caught_by_heartbeat() {
    let cfg = NetConfig {
        heartbeat: Duration::from_millis(10),
        miss_budget: 2,
        chaos: vec![(1, Chaos { hang_after_grants: Some(1), ..Chaos::default() })],
        ..rotating(2)
    };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new().with_timeline(), square_sum_ir_program)
        .expect("the run must survive the hang");
    assert_eq!(rep.result, serial_answer());
    let faults = rep.faults.expect("stats");
    // At least the hung worker is declared dead. Under TCP the tight
    // 10 ms heartbeat can also (legitimately) time out the healthy
    // worker, so this is a lower bound, not an equality.
    assert!(faults.crashes >= 1, "the hung worker counts as crashed: {faults}");
    // The heartbeat detector leaves its trail in the timeline markers.
    let tl = rep.timeline.expect("timeline was requested");
    assert!(
        tl.markers().iter().any(|m| m.label.contains("lost")),
        "worker loss must be visible on the timeline"
    );
}

#[test]
fn all_workers_dead_degrades_to_local_execution() {
    let cfg = NetConfig {
        chaos: (0..2)
            .map(|w| (w, Chaos { kill_after_grants: Some(1), ..Chaos::default() }))
            .collect(),
        ..rotating(2)
    };
    let rep = NetExecutor::new(cfg)
        .execute(RunConfig::new(), square_sum_ir_program)
        .expect("a run with zero surviving workers still completes locally");
    assert_eq!(rep.result, serial_answer());
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.crashes, 2, "{faults}");
    assert!(faults.degraded > 0, "later tasks must degrade to local closures: {faults}");
}

#[test]
fn closure_only_program_runs_locally_with_no_wire_traffic() {
    // A task without a portable body is a program shape, not a fault:
    // it runs on the coordinator at once, and no task frame crosses
    // any link in either direction after the handshake.
    let rep = NetExecutor::new(base(2))
        .execute(RunConfig::new(), square_sum_program)
        .expect("closure-only run");
    assert_eq!(rep.result, serial_answer());
    let net = rep.net.expect("stats");
    assert_eq!(net.tasks_shipped, 0, "{net:?}");
    assert_eq!(
        (net.replica_misses, net.payload_bytes),
        (0, 0),
        "no coordinator-to-worker payload: {net:?}"
    );
    assert_eq!(
        (net.messages, net.bytes, net.retransmits),
        (0, 0, 0),
        "no worker-to-coordinator task result: {net:?}"
    );
    let faults = rep.faults.expect("stats");
    assert_eq!(faults.degraded, 0, "{faults}");
    assert!(faults.is_clean(), "{faults}");
}

#[test]
fn worker_fed_a_retired_tag_exits_cleanly() {
    // Tag 4 was the ack, and tags 5-9 the lease and remote-kernel
    // messages. A worker that receives one must treat it like any
    // undecodable frame: leave the loop and return, never panic.
    for tag in 4u8..=9 {
        let (ours, worker) = paired_worker();
        let mut coord = Coordinator::handshake(ours);
        // The old ack and lease-request shape: tag, then a u64.
        coord.write(&Message::pack(MsgKind::TaskShip, 0, 0, 1, DataLayout::x86_64(), &(tag, 7u64)));

        let exit = worker.join().expect("the worker loop must not panic");
        assert!(exit.is_ok(), "tag {tag}: clean exit expected, got {exit:?}");
    }
}

#[test]
fn worker_refuses_a_welcome_it_cannot_configure_itself_from() {
    // A `Welcome` naming a layout no machine family uses, or one cut
    // short, leaves the worker without a configuration: `run_worker`
    // must return an error at once — not panic, and not sit out the
    // handshake deadline (that would be `TimedOut`).
    let known = welcome(DataLayout::sparc().id);
    let truncated = Message {
        header: known.header,
        payload: Bytes::copy_from_slice(&known.payload[..known.payload.len() - 3]),
    };
    for (case, bad) in [("unknown layout", welcome(LayoutId(200))), ("truncated", truncated)] {
        let (ours, worker) = paired_worker();
        let mut coord = Coordinator::hello(ours);
        coord.write(&bad);
        let exit = worker.join().expect("the worker must not panic");
        let err = exit.expect_err(case);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case}: {err}");
    }
    // A coordinator that hangs up before answering ends the worker
    // cleanly.
    let (ours, worker) = paired_worker();
    drop(Coordinator::hello(ours));
    let exit = worker.join().expect("the worker must not panic");
    assert!(exit.is_ok(), "early EOF is a clean end, got {exit:?}");
}

#[test]
fn worker_refuses_hostile_task_indices_and_keeps_serving() {
    // Declaration indices in a `TaskShip` size the worker's slot table
    // and an `IrDst` index used to resize it: `u32::MAX` in either was
    // a multi-gigabyte allocation. Both must come back as
    // `ok: false`, and the next well-formed task must still run.
    let (ours, worker) = paired_worker();
    let mut coord = Coordinator::handshake(ours);
    let lit = |out| TaskBodyIr::new().step("sq_norm", vec![IrSrc::Lit(vec![3.0])], out);
    let ships = [
        // Slot-table width from a peer-supplied declaration index.
        (TaskBodyIr::new(), vec![(u32::MAX, 1u64, 1u64)], false),
        // A destination index past the (one-slot) table.
        (lit(IrDst::Obj(u32::MAX)), vec![(0, 2, 1)], false),
        (lit(IrDst::Obj(0)), vec![(0, 3, 1)], true),
    ];
    for (nonce, (ir, outs, want_ok)) in (1u64..).zip(ships) {
        coord.send(&NetMsg::TaskShip { nonce, ir, inputs: Vec::new(), outs });
        // The worker acknowledges nothing: the next frame is the result.
        let Some(NetMsg::TaskResult { nonce: got, ok, outs, .. }) = coord.next_msg() else {
            panic!("task {nonce}: the frame after a TaskShip must be its TaskResult");
        };
        assert_eq!((got, ok), (nonce, want_ok), "task {nonce}");
        if want_ok {
            assert_eq!(outs, vec![(0, vec![9.0])]);
        }
    }
    coord.shut_down(worker);
}

#[test]
fn a_task_shipped_ahead_of_its_payload_waits_for_it() {
    // Two pool threads shipping to one worker can put a task on the
    // socket before the payload it reads. The worker must hold the
    // task, write nothing, and answer with exactly one frame once the
    // payload lands.
    let (ours, worker) = paired_worker();
    let mut coord = Coordinator::handshake(ours);
    let ir = TaskBodyIr::new().step("sq_norm", vec![IrSrc::Obj(0)], IrDst::Obj(0));
    coord.send(&NetMsg::TaskShip { nonce: 7, ir, inputs: vec![(0, 5, 1)], outs: vec![(0, 5, 2)] });
    assert!(
        coord.silent_for(Duration::from_millis(100)),
        "a task whose input is missing must wait, and nothing acknowledges it"
    );
    coord.send(&NetMsg::ObjectShip { object: 5, version: 1, data: vec![3.0] });
    // The payload releases the task, and its result is the only reply.
    let outs = vec![(0, vec![9.0])];
    let result = NetMsg::TaskResult { nonce: 7, ok: true, err: String::new(), outs };
    assert_eq!(coord.next_msg(), Some(result));
    coord.shut_down(worker);
}

#[test]
fn worker_exits_when_its_coordinator_vanishes_mid_task() {
    // The coordinator dies after `Welcome` with a task outstanding
    // whose payload never comes: the worker, blocked in `read`, sees
    // EOF and returns cleanly.
    let (ours, worker) = paired_worker();
    let mut coord = Coordinator::handshake(ours);
    let ir = TaskBodyIr::new().step("sq_norm", vec![IrSrc::Obj(0)], IrDst::Obj(0));
    coord.send(&NetMsg::TaskShip { nonce: 1, ir, inputs: vec![(0, 5, 1)], outs: vec![(0, 5, 2)] });
    drop(coord);
    let deadline = Instant::now() + Duration::from_secs(1);
    while !worker.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(worker.is_finished(), "the worker must exit within 1 s of losing its coordinator");
    let exit = worker.join().expect("the worker loop must not panic");
    assert!(exit.is_ok(), "coordinator loss is a clean end, got {exit:?}");
}

#[test]
fn locality_placement_ships_fewer_payload_bytes_than_round_robin() {
    // Scoring workers by the replica bytes they already hold must cut
    // both the replica misses and the payload bytes shipped, against
    // rotation, on the identical workload.
    let a = SparseSym::random_spd(48, 5, 17);
    let want = {
        let a = a.clone();
        SerialRuntime
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("serial oracle")
            .result
            .cols
    };
    let run = |placement| {
        let a = a.clone();
        let rep = NetExecutor::new(NetConfig { placement, ..base(4) })
            .with_registry(jade_apps::kernels::registry())
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("clean Cholesky run");
        assert_eq!(rep.result.cols, want, "{placement:?} must match the serial oracle");
        rep.net.expect("stats")
    };
    let (local, rr) = (run(PlacementPolicy::Locality), run(PlacementPolicy::RoundRobin));
    assert!(
        local.replica_misses < rr.replica_misses && local.payload_bytes < rr.payload_bytes,
        "locality must cut payload re-shipping: {} vs {} misses, {} vs {} bytes",
        local.replica_misses,
        rr.replica_misses,
        local.payload_bytes,
        rr.payload_bytes
    );
}

#[test]
fn observers_receive_liveness_events_in_stream_order() {
    let collector = EventCollector::new();
    let cfg = NetConfig {
        chaos: vec![(0, Chaos { kill_after_grants: Some(1), ..Chaos::default() })],
        ..rotating(2)
    };
    NetExecutor::new(cfg)
        .execute(RunConfig::new().with_observer(collector.observer()), square_sum_ir_program)
        .expect("run");
    let evs = collector.events();
    let joined = evs.iter().filter(|e| matches!(e.kind, EventKind::WorkerJoined { .. })).count();
    assert_eq!(joined, 2, "both workers joined");
    let lost = evs
        .iter()
        .position(|e| matches!(e.kind, EventKind::WorkerLost { .. }))
        .expect("the kill must be visible to user observers");
    // Liveness is reported on the pool's clock, in band: the loss
    // sorts before the reassignment it caused and before the run's
    // last task finishes.
    assert!(evs.windows(2).all(|w| w[0].nanos <= w[1].nanos), "one clock, one order");
    let after = |kind: fn(&EventKind) -> bool| evs[lost..].iter().any(|e| kind(&e.kind));
    assert!(after(|k| matches!(k, EventKind::TaskFinished { .. })), "loss is mid-run");
    if let Some(moved) = evs.iter().position(|e| matches!(e.kind, EventKind::TaskReassigned { .. }))
    {
        assert!(lost < moved, "a loss precedes the reassignment it causes");
    }
}
