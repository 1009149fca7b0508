//! The worker side of the protocol: one single-threaded loop driving a
//! socket back to the coordinator.
//!
//! Every worker starts the same way: it connects, sends
//! [`NetMsg::Hello`], and reads [`NetMsg::Welcome`], which carries its
//! whole configuration — pool slot, data layout and chaos thresholds —
//! as the coordinator worked it out. Only what
//! depends on how the worker runs is its own ([`WorkerOpts`]), and the
//! loop runs in two modes:
//!
//! * **Process mode** — `src/bin/jade-net-worker.rs` (in the root
//!   package) calls [`worker_main`], which dials the address in
//!   `JADE_NET_ADDR`; the chaos "kill" threshold delivers a genuine
//!   `SIGKILL` to the worker's own pid, so the coordinator sees an
//!   abrupt socket EOF with no goodbye.
//! * **Thread mode** — [`Cluster::start`](crate::Cluster::start) runs
//!   [`run_worker`] on a thread; "kill" degrades to an abrupt socket
//!   shutdown (the observable effect at the coordinator is identical).
//!
//! In both modes "hang" is going silent, which exercises the heartbeat
//! path instead of the EOF path.
//!
//! A worker does one thing: it executes whole **task bodies**. The
//! coordinator lowers a task's objects and ships a [`TaskBodyIr`]
//! program ([`NetMsg::TaskShip`]) naming its input object versions.
//! Payloads arrive as [`NetMsg::ObjectShip`] and are
//! installed in a replica cache keyed by `(object, version)`; inputs
//! already resident are *not* re-sent (the locality win). A payload
//! can trail the task that needs it: when two coordinator pool threads
//! ship to one worker, the second sees the first's recorded ship as a
//! replica hit, and its `TaskShip` can overtake the first thread's
//! `ObjectShip`. So a task whose inputs have not all arrived waits in a
//! pending buffer and is retried after every payload arrival.
//! After running the program the worker installs its own outputs in
//! the cache at their new versions — which is what makes it the
//! natural home for the next task reading them — and returns them in a
//! [`NetMsg::TaskResult`].
//!
//! Every frame is written once, by [`send_msg`]: a connected stream
//! either delivers it or surfaces an error, so the worker acknowledges
//! nothing and answers each task with exactly one frame, its result.
//! Each side waits for the other's half of the handshake at most five
//! seconds; the coordinator treats a worker that never completes it as
//! dead on arrival. After `Welcome` the worker blocks in `read` until
//! `Shutdown` or EOF: a coordinator that hangs up, at any point, ends
//! the worker cleanly.

use std::collections::HashMap;
use std::io::{Error, ErrorKind, Read};
use std::time::Instant;

use jade_core::ir::{run_ir, TaskBodyIr};
use jade_core::kernels::KernelRegistry;
use jade_transport::{DataLayout, FrameReader};

use crate::sock::{is_timeout, Sock};
use crate::wire::{send_msg, unpack_msg, NetMsg, HANDSHAKE_TIMEOUT, MAX_TASK_DECLS};

/// How a worker "dies" when a chaos threshold fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Die {
    /// Deliver `SIGKILL` to our own process (process mode).
    Sigkill,
    /// Abruptly shut the socket down and return (thread mode).
    Abrupt,
}

/// Fault-injection thresholds. A worker counts grants (shipped task
/// bodies it accepted) and executed task bodies; when a threshold is
/// reached it dies (or hangs) *instead of* performing the next action,
/// so the coordinator always has that action genuinely in flight when
/// the failure lands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chaos {
    /// Die instead of accepting shipped task body number `n + 1`.
    pub kill_after_grants: Option<u32>,
    /// Go silent (stop answering pings and requests) after `n` grants.
    pub hang_after_grants: Option<u32>,
    /// Die instead of sending task result number `n + 1` — *after*
    /// executing the task and installing its outputs in the replica
    /// cache, so the worker dies holding dirty sole-copy replicas.
    pub kill_after_tasks: Option<u32>,
}

/// What a worker needs besides its socket and its `Welcome`: the parts
/// that depend on how it runs.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// What "die" means in this mode.
    pub die: Die,
    /// The kernels this worker can run (the steps of shipped bodies).
    pub registry: KernelRegistry,
}

/// Kill this worker the way the chaos spec asks. Never returns in
/// process mode (SIGKILL is uncatchable); returns `true` in thread
/// mode so the caller can exit its loop.
fn die_now(sock: &Sock, how: Die) -> bool {
    match how {
        Die::Sigkill => {
            // No libc in the tree: shell out for the signal. SIGKILL
            // cannot be handled, so the socket closes with no goodbye
            // frame — exactly the failure the chaos test wants.
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
            // If `kill` somehow failed, fall through to a hard abort so
            // the test still sees an abrupt death rather than a hang.
            std::process::abort();
        }
        Die::Abrupt => {
            sock.shutdown_both();
            true
        }
    }
}

/// Go silent: stop answering anything, but keep draining the socket so
/// a process-mode worker still notices coordinator shutdown (EOF) and
/// exits instead of lingering forever.
fn hang_until_eof(sock: &mut Sock) {
    let mut buf = [0u8; 4096];
    while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
}

/// A shipped task waiting for its input payloads.
struct PendingTask {
    nonce: u64,
    ir: TaskBodyIr,
    inputs: Vec<(u32, u64, u64)>,
    outs: Vec<(u32, u64, u64)>,
}

/// Replica cache: object id → (version, lowered payload).
type ReplicaCache = HashMap<u64, (u64, Vec<f64>)>;

/// Whether every input the task names is resident at *exactly* the
/// required version. Exact match is safe because the coordinator's
/// dependency engine serializes conflicting tasks: a newer version
/// cannot overwrite an input some in-flight task still needs.
fn inputs_ready(task: &PendingTask, cache: &ReplicaCache) -> bool {
    task.inputs.iter().all(|&(_, obj, ver)| cache.get(&obj).is_some_and(|(v, _)| *v == ver))
}

/// Run a shipped task body and install its outputs in the replica
/// cache at their new versions. Returns the `TaskResult` to send.
fn exec_task(task: PendingTask, cache: &mut ReplicaCache, registry: &KernelRegistry) -> NetMsg {
    let PendingTask { nonce, ir, inputs, outs } = task;
    let width =
        inputs.iter().chain(outs.iter()).map(|&(idx, _, _)| idx as usize + 1).max().unwrap_or(0);
    if width > MAX_TASK_DECLS {
        // Peer-supplied indices size the slot table: refuse before
        // allocating for them.
        let err = format!("declaration index {} exceeds {MAX_TASK_DECLS}", width - 1);
        return NetMsg::TaskResult { nonce, ok: false, err, outs: Vec::new() };
    }
    let mut slots: Vec<Option<Vec<f64>>> = vec![None; width];
    for &(idx, obj, _) in &inputs {
        // inputs_ready() vouched for the exact version.
        slots[idx as usize] = cache.get(&obj).map(|(_, d)| d.clone());
    }
    match run_ir(&ir, &slots, registry) {
        Ok(results) => {
            let mut reply = Vec::with_capacity(results.len());
            for (idx, data) in results {
                if let Some(&(_, obj, newver)) = outs.iter().find(|&&(i, _, _)| i == idx) {
                    cache.insert(obj, (newver, data.clone()));
                }
                reply.push((idx, data));
            }
            NetMsg::TaskResult { nonce, ok: true, err: String::new(), outs: reply }
        }
        Err(err) => NetMsg::TaskResult { nonce, ok: false, err, outs: Vec::new() },
    }
}

/// Say `Hello`, then wait for the coordinator's `Welcome` and return
/// what it carries: slot, layout and chaos thresholds. `None` if the
/// coordinator hangs up first. Bytes that arrive behind `Welcome` stay
/// in `rd`.
fn handshake(
    sock: &mut Sock,
    rd: &mut FrameReader,
) -> std::io::Result<Option<(u32, DataLayout, Chaos)>> {
    // Until the coordinator assigns a layout, speak its own.
    send_msg(sock, &NetMsg::Hello, 0, 0, DataLayout::x86_64())?;
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut buf = [0u8; 1024];
    let invalid = |why: String| Error::new(ErrorKind::InvalidData, why);
    let msg = loop {
        if let Some(m) = rd.next_frame().map_err(|e| invalid(e.to_string()))? {
            break m;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::new(ErrorKind::TimedOut, "no Welcome from the coordinator"));
        }
        sock.set_read_timeout(Some(left))?;
        match sock.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => rd.push(&buf[..n]),
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(e),
        }
    };
    match unpack_msg(&msg).map_err(|e| invalid(e.to_string()))? {
        NetMsg::Welcome { worker, layout: id, chaos } => {
            let layout = DataLayout::try_from_id(id)
                .ok_or_else(|| invalid(format!("Welcome names unknown data layout id {}", id.0)))?;
            Ok(Some((worker, layout, chaos)))
        }
        other => Err(invalid(format!("expected Welcome, got {other:?}"))),
    }
}

/// Run the worker protocol — handshake, then serve — until shutdown,
/// EOF, or chaos.
pub fn run_worker(mut sock: Sock, opts: WorkerOpts) -> std::io::Result<()> {
    let mut rd = FrameReader::new();
    let Some((id, layout, chaos)) = handshake(&mut sock, &mut rd)? else {
        return Ok(());
    };
    // The handshake bounded its reads; from here on block until the
    // coordinator sends something or hangs up.
    sock.set_read_timeout(None)?;
    let mut grants: u32 = 0;
    let mut tasks_done: u32 = 0;
    let mut cache: ReplicaCache = HashMap::new();
    let mut pending: Vec<PendingTask> = Vec::new();

    let mut buf = [0u8; 16 * 1024];
    'serve: loop {
        // Serve every complete frame buffered so far (the first ones
        // may have arrived with `Welcome`), then read more.
        loop {
            let msg = match rd.next_frame() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                // A corrupt inbound stream is unrecoverable for this
                // link; drop it and let the coordinator reassign.
                Err(_) => break 'serve,
            };
            let net = match unpack_msg(&msg) {
                Ok(m) => m,
                Err(_) => break 'serve,
            };
            match net {
                NetMsg::Ping { nonce } => {
                    send_msg(&mut sock, &NetMsg::Pong { nonce }, id, 0, layout)?;
                }
                NetMsg::ObjectShip { object, version, data } => {
                    // A payload may arrive *after* the task that reads
                    // it; the drain below retries the waiting room.
                    cache.insert(object, (version, data));
                }
                NetMsg::TaskShip { nonce, ir, inputs, outs } => {
                    if chaos.kill_after_grants.is_some_and(|n| grants >= n)
                        && die_now(&sock, opts.die)
                    {
                        break 'serve;
                    }
                    if chaos.hang_after_grants.is_some_and(|n| grants >= n) {
                        hang_until_eof(&mut sock);
                        break 'serve;
                    }
                    grants += 1;
                    pending.push(PendingTask { nonce, ir, inputs, outs });
                }
                NetMsg::Shutdown => break 'serve,
                // The handshake is over, and coordinator-bound
                // messages never arrive here.
                NetMsg::Hello
                | NetMsg::Welcome { .. }
                | NetMsg::Pong { .. }
                | NetMsg::TaskResult { .. } => {}
            }
            // Run every pending task whose inputs are now resident (a
            // payload or a task may just have arrived).
            let mut i = 0;
            while i < pending.len() {
                if !inputs_ready(&pending[i], &cache) {
                    i += 1;
                    continue;
                }
                let reply = exec_task(pending.remove(i), &mut cache, &opts.registry);
                if chaos.kill_after_tasks.is_some_and(|n| tasks_done >= n)
                    && die_now(&sock, opts.die)
                {
                    break 'serve;
                }
                tasks_done += 1;
                send_msg(&mut sock, &reply, id, 0, layout)?;
            }
        }
        match sock.read(&mut buf)? {
            0 => break,
            n => rd.push(&buf[..n]),
        }
    }
    sock.shutdown_both();
    Ok(())
}

/// Entry point for the process-mode binary: dial the coordinator at
/// `JADE_NET_ADDR` (`unix:<path>` or `tcp:<host:port>`, set when it
/// spawns the worker) and serve shipped task bodies with `registry`.
/// Everything else the worker needs arrives in `Welcome`. Exits the
/// process when the run ends.
///
/// The coordinator refuses to ship a task whose kernels its own
/// registry lacks, so a worker binary should serve a superset of the
/// coordinator's; a stale binary degrades to local execution rather
/// than failing.
pub fn worker_main(registry: KernelRegistry) -> ! {
    let addr = std::env::var("JADE_NET_ADDR").unwrap_or_else(|_| {
        eprintln!("jade-net-worker: JADE_NET_ADDR not set");
        std::process::exit(2);
    });
    let sock = Sock::connect(&addr).unwrap_or_else(|e| {
        eprintln!("jade-net-worker: connect to '{addr}' failed: {e}");
        std::process::exit(3);
    });
    match run_worker(sock, WorkerOpts { die: Die::Sigkill, registry }) {
        Ok(()) => std::process::exit(0),
        // The coordinator tearing the socket down mid-write is the
        // normal end of a run, not a protocol failure.
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::NotConnected
            ) =>
        {
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("jade-net-worker: protocol error: {e}");
            std::process::exit(4);
        }
    }
}
