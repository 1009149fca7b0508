//! The worker side of the protocol: one single-threaded loop driving a
//! socket back to the coordinator.
//!
//! The same loop runs in two modes:
//!
//! * **Process mode** — `src/bin/jade-net-worker.rs` (in the root
//!   package) parses [`env`](worker_main) and calls [`run_worker`]; the
//!   chaos "kill" knob delivers a genuine `SIGKILL` to the worker's own
//!   pid, so the coordinator sees an abrupt socket EOF with no goodbye.
//! * **Thread mode** — tests and the conformance suite spawn
//!   [`run_worker`] on a thread over one end of a socketpair; "kill"
//!   degrades to an abrupt socket shutdown (the observable effect at
//!   the coordinator is identical), and "hang" to going silent, which
//!   exercises the heartbeat path instead of the EOF path.
//!
//! A worker does one thing: it executes whole **task bodies**. The
//! coordinator lowers a task's objects and ships a [`TaskBodyIr`]
//! program ([`NetMsg::TaskShip`]) naming its input object versions.
//! Payloads arrive as [`NetMsg::ObjectShip`] and are
//! installed in a replica cache keyed by `(object, version)`; inputs
//! already resident are *not* re-sent (the locality win). Because the
//! reliability layer can reorder a retransmitted payload behind the
//! task that needs it, a task whose inputs have not all arrived waits
//! in a pending buffer and is retried after every payload arrival.
//! After running the program the worker installs its own outputs in
//! the cache at their new versions — which is what makes it the
//! natural home for the next task reading them — and returns them in a
//! [`NetMsg::TaskResult`].
//!
//! The handshake (`Hello`/`Welcome`) is written directly to the
//! socket with `seq == 0`: a connected stream either delivers it or
//! surfaces an error, and the coordinator treats a worker that never
//! completes the handshake as dead on arrival.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use jade_core::ir::{run_ir, TaskBodyIr};
use jade_core::kernels::KernelRegistry;
use jade_transport::{encode_frame, DataLayout, FrameReader};

use crate::reliable::{Accept, Reliable, ReliableConfig};
use crate::sock::{is_timeout, Sock};
use crate::wire::{pack_msg, unpack_msg, NetMsg, MAX_TASK_DECLS};

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
#[derive(Debug, Clone, Copy, Default)]
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

/// Everything a worker needs besides its socket.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// Pool index assigned at spawn (echoed in `Hello`).
    pub id: u32,
    /// The "machine architecture" this worker marshals with.
    pub layout: DataLayout,
    /// Reliability tuning (must match the coordinator's timescale).
    pub rel: ReliableConfig,
    /// Fault injection.
    pub chaos: Chaos,
    /// What "die" means in this mode.
    pub die: Die,
    /// The kernels this worker can run (the steps of shipped bodies).
    pub registry: KernelRegistry,
}

impl WorkerOpts {
    /// Defaults for thread-mode tests: worker 0, native layout,
    /// builtin kernels.
    pub fn thread_mode(id: u32, layout: DataLayout) -> Self {
        WorkerOpts {
            id,
            layout,
            rel: ReliableConfig::default(),
            chaos: Chaos::default(),
            die: Die::Abrupt,
            registry: KernelRegistry::builtin(),
        }
    }
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
    let _ = sock.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = [0u8; 4096];
    loop {
        match std::io::Read::read(sock, &mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {}
            Err(_) => return,
        }
    }
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
    task.inputs
        .iter()
        .all(|&(_, obj, ver)| cache.get(&obj).is_some_and(|(v, _)| *v == ver))
}

/// Run a shipped task body and install its outputs in the replica
/// cache at their new versions. Returns the `TaskResult` to send.
fn exec_task(task: PendingTask, cache: &mut ReplicaCache, registry: &KernelRegistry) -> NetMsg {
    let PendingTask { nonce, ir, inputs, outs } = task;
    let width = inputs
        .iter()
        .chain(outs.iter())
        .map(|&(idx, _, _)| idx as usize + 1)
        .max()
        .unwrap_or(0);
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

/// Run the worker protocol loop until shutdown, EOF, or chaos.
pub fn run_worker(mut sock: Sock, opts: WorkerOpts) -> std::io::Result<()> {
    let mut rel = Reliable::new(opts.rel);
    let mut rd = FrameReader::new();
    let mut grants: u32 = 0;
    let mut tasks_done: u32 = 0;
    let mut cache: ReplicaCache = HashMap::new();
    let mut pending: Vec<PendingTask> = Vec::new();

    // Handshake: a raw seq-0 frame, outside the reliability layer.
    let hello = encode_frame(&pack_msg(&NetMsg::Hello { worker: opts.id }, opts.id, 0, 0, opts.layout));
    sock.write_all(&hello)?;
    sock.flush()?;

    // Interleave receive with retransmission ticks.
    let tick = (opts.rel.retransmit_timeout / 2).max(Duration::from_millis(2));
    sock.set_read_timeout(Some(tick))?;

    let mut buf = [0u8; 16 * 1024];
    'outer: loop {
        let n = match std::io::Read::read(&mut sock, &mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                if !rel.tick(Instant::now(), &mut sock)? {
                    // The coordinator is unreachable; nothing useful
                    // left to do.
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        rd.push(&buf[..n]);
        loop {
            let msg = match rd.next_frame() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                // A corrupt inbound stream is unrecoverable for this
                // link; drop it and let the coordinator reassign.
                Err(_) => break 'outer,
            };
            let wire = msg.wire_bytes();
            let seq = msg.header.seq;
            let net = match unpack_msg(&msg) {
                Ok(m) => m,
                Err(_) => break 'outer,
            };
            if seq != 0 {
                let dup = rel.accept(seq, wire) == Accept::Duplicate;
                rel.send(Instant::now(), &mut sock, &NetMsg::Ack { seq }, opts.id, 0, opts.layout)?;
                if dup {
                    continue;
                }
            }
            match net {
                NetMsg::Ack { seq } => rel.on_ack(seq),
                NetMsg::Ping { nonce } => {
                    let pong = NetMsg::Pong { nonce };
                    rel.send(Instant::now(), &mut sock, &pong, opts.id, 0, opts.layout)?;
                }
                NetMsg::ObjectShip { object, version, data } => {
                    // A retransmitted payload may arrive *after* the
                    // task that reads it; the drain below retries the
                    // waiting room.
                    cache.insert(object, (version, data));
                }
                NetMsg::TaskShip { nonce, ir, inputs, outs } => {
                    if opts.chaos.kill_after_grants.is_some_and(|n| grants >= n)
                        && die_now(&sock, opts.die)
                    {
                        break 'outer;
                    }
                    if opts.chaos.hang_after_grants.is_some_and(|n| grants >= n) {
                        hang_until_eof(&mut sock);
                        break 'outer;
                    }
                    grants += 1;
                    pending.push(PendingTask { nonce, ir, inputs, outs });
                }
                NetMsg::Shutdown => break 'outer,
                // Handshake confirmation: nothing to do, the loop is
                // already serving.
                NetMsg::Welcome { .. } => {}
                // Coordinator-bound messages never arrive here.
                NetMsg::Hello { .. } | NetMsg::Pong { .. } | NetMsg::TaskResult { .. } => {}
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
                if opts.chaos.kill_after_tasks.is_some_and(|n| tasks_done >= n)
                    && die_now(&sock, opts.die)
                {
                    break 'outer;
                }
                tasks_done += 1;
                rel.send(Instant::now(), &mut sock, &reply, opts.id, 0, opts.layout)?;
            }
        }
    }
    sock.shutdown_both();
    Ok(())
}

/// Entry point for the process-mode binary: parse the environment,
/// dial the coordinator, run the loop with the builtin kernels. Exits
/// the process on error. Binaries whose applications register extra
/// kernels should call [`worker_main_with`] instead.
///
/// Recognised variables (set by the coordinator when spawning):
///
/// | variable | meaning |
/// |---|---|
/// | `JADE_NET_ADDR` | `unix:<path>` or `tcp:<host:port>` |
/// | `JADE_NET_WORKER_ID` | pool index |
/// | `JADE_NET_LAYOUT` | layout preset name (`sparc`, `i860`, ...) |
/// | `JADE_NET_RETRANS_US` | retransmit timeout, microseconds |
/// | `JADE_NET_BACKOFF_CAP` | backoff multiplier cap |
/// | `JADE_NET_MAX_ATTEMPTS` | transmissions before giving up |
/// | `JADE_NET_LOSS_SEED` / `JADE_NET_LOSS_PROB` | injected loss |
/// | `JADE_NET_KILL_AFTER` | SIGKILL instead of accepting shipped task `n + 1` |
/// | `JADE_NET_HANG_AFTER` | go silent after accepting `n` shipped tasks |
/// | `JADE_NET_KILL_AFTER_TASKS` | SIGKILL instead of task result `n + 1` |
pub fn worker_main() -> ! {
    worker_main_with(KernelRegistry::builtin())
}

/// [`worker_main`] with a caller-supplied kernel registry, so a worker
/// binary can serve application kernels (the coordinator refuses to
/// ship a task whose kernels the registry lacks, so a stale binary
/// degrades to local execution rather than failing).
pub fn worker_main_with(registry: KernelRegistry) -> ! {
    fn env_u64(key: &str) -> Option<u64> {
        std::env::var(key).ok().and_then(|v| v.parse().ok())
    }
    let addr = std::env::var("JADE_NET_ADDR").unwrap_or_else(|_| {
        eprintln!("jade-net-worker: JADE_NET_ADDR not set");
        std::process::exit(2);
    });
    let id = env_u64("JADE_NET_WORKER_ID").unwrap_or(0) as u32;
    let layout_name = std::env::var("JADE_NET_LAYOUT").unwrap_or_default();
    let layout = DataLayout::all_presets()
        .into_iter()
        .find(|l| l.name == layout_name)
        .unwrap_or_else(DataLayout::x86_64);
    let mut rel = ReliableConfig::default();
    if let Some(us) = env_u64("JADE_NET_RETRANS_US") {
        rel.retransmit_timeout = Duration::from_micros(us);
    }
    if let Some(c) = env_u64("JADE_NET_BACKOFF_CAP") {
        rel.backoff_cap = c as u32;
    }
    if let Some(a) = env_u64("JADE_NET_MAX_ATTEMPTS") {
        rel.max_attempts = a as u32;
    }
    if let (Some(seed), Ok(prob)) = (
        env_u64("JADE_NET_LOSS_SEED"),
        std::env::var("JADE_NET_LOSS_PROB").unwrap_or_default().parse::<f64>(),
    ) {
        if prob > 0.0 {
            rel.loss = Some((seed, prob));
        }
    }
    let chaos = Chaos {
        kill_after_grants: env_u64("JADE_NET_KILL_AFTER").map(|n| n as u32),
        hang_after_grants: env_u64("JADE_NET_HANG_AFTER").map(|n| n as u32),
        kill_after_tasks: env_u64("JADE_NET_KILL_AFTER_TASKS").map(|n| n as u32),
    };
    let sock = match addr.split_once(':') {
        Some(("unix", path)) => std::os::unix::net::UnixStream::connect(path).map(Sock::Unix),
        Some(("tcp", hostport)) => std::net::TcpStream::connect(hostport).map(Sock::Tcp),
        _ => {
            eprintln!("jade-net-worker: bad JADE_NET_ADDR '{addr}'");
            std::process::exit(2);
        }
    };
    let sock = match sock {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jade-net-worker: connect to '{addr}' failed: {e}");
            std::process::exit(3);
        }
    };
    let opts = WorkerOpts { id, layout, rel, chaos, die: Die::Sigkill, registry };
    match run_worker(sock, opts) {
        Ok(()) => std::process::exit(0),
        // The coordinator tearing the socket down mid-write is the
        // normal end of a run, not a protocol failure.
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::NotConnected
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
