//! The coordinator side: worker lifecycle, heartbeat liveness, task
//! shipping, and in-flight work recovery.
//!
//! [`Cluster::start`] brings up N workers — OS processes running the
//! `jade-net-worker` binary, or threads running the same protocol loop
//! in-process — each on its own Unix-domain or TCP socket, and
//! maintains per-link state: the socket's send half under a lock, a
//! reader thread draining frames, and heartbeat bookkeeping. The
//! stream socket is the reliable transport: a message is written once
//! and a frame that is read is delivered once.
//!
//! A worker is declared dead when *either* of two detectors fires:
//!
//! 1. **Socket EOF / read or write error** — the stream closed or
//!    failed (the `kill -9` case: the kernel closes the socket when the
//!    process dies).
//! 2. **Heartbeat loss** — the worker stops answering pings for more
//!    than `miss_budget` rounds (the hang and partition cases: the
//!    socket stays open but nothing comes back). With the defaults that
//!    is about 0.16 s (four rounds of 40 ms).
//!
//! [`Shared::declare_dead`] then marks every shipped task assigned to
//! that worker as dead and wakes all blocked waiters. There is one
//! dispatch state machine, [`Shared::run_task_remote`]: ship, wait on
//! the task's cell, and on `Dead` re-ship to a survivor (bounded by
//! `max_task_attempts`) or report the budget exhausted so the gate
//! runs the closure coordinator-locally. The backend never panics on
//! a lost worker.

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jade_core::ids::TaskId;
use jade_core::ir::TaskBodyIr;
use jade_core::kernels::KernelRegistry;
use jade_core::observe::EventKind;
use jade_core::place::{choose, Candidate};
use jade_core::stats::{FaultStats, NetStats};
use jade_core::sync::{Condvar, Mutex};
use jade_threads::EventSink;
use jade_transport::{DataLayout, FrameReader};

use crate::directory::Directory;
use crate::sock::{is_timeout, Sock};
use crate::wire::{send_msg, unpack_msg, NetMsg, HANDSHAKE_TIMEOUT};
use crate::worker::{run_worker, Chaos, Die, WorkerOpts};

/// Which socket family carries the coordinator/worker links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix-domain stream sockets (default; no ports to collide on).
    Unix,
    /// Loopback TCP (`127.0.0.1`, ephemeral port).
    Tcp,
}

/// How workers are spawned.
#[derive(Debug, Clone)]
pub enum WorkerMode {
    /// In-process threads running [`run_worker`] — the default for
    /// tests; chaos "kill" degrades to an abrupt socket shutdown.
    Threads,
    /// Real OS processes running the given worker binary; chaos "kill"
    /// is a genuine `SIGKILL`.
    Process {
        /// Path to the `jade-net-worker` binary.
        bin: PathBuf,
    },
}

/// How the coordinator picks the worker for a shipped task body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The paper's §5 heuristic through the shared
    /// [`jade_core::place::choose`]: lowest in-flight load first, then
    /// strongest affinity (resident replica bytes of the task's read
    /// set), then index.
    Locality,
    /// Rotate over live workers, ignoring residency (the baseline the
    /// locality experiment compares against).
    RoundRobin,
}

/// Configuration for the distributed backend.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of worker machines (and pool lanes).
    pub workers: usize,
    /// Socket family for the links.
    pub transport: Transport,
    /// Threads or real processes.
    pub worker_mode: WorkerMode,
    /// Heartbeat round interval.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeat rounds before a worker is dead.
    pub miss_budget: u32,
    /// Recovery: dispatch attempts per shipped task before degrading.
    pub max_task_attempts: u32,
    /// Fault injection: `(slot, thresholds)` per worker to strike.
    /// Slots are assigned in the order workers say `Hello`.
    pub chaos: Vec<(u32, Chaos)>,
    /// The kernels this job can ship (workers must serve a superset;
    /// the coordinator refuses to ship a task naming a kernel the
    /// registry lacks and runs its closure locally instead).
    pub registry: KernelRegistry,
    /// Worker selection for shipped task bodies.
    pub placement: PlacementPolicy,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 2,
            transport: Transport::Unix,
            worker_mode: WorkerMode::Threads,
            heartbeat: Duration::from_millis(40),
            miss_budget: 3,
            max_task_attempts: 3,
            chaos: Vec::new(),
            registry: KernelRegistry::builtin(),
            placement: PlacementPolicy::Locality,
        }
    }
}

impl NetConfig {
    /// `n` thread-mode workers over Unix sockets (the test default).
    pub fn threads(n: usize) -> Self {
        NetConfig { workers: n.max(1), ..NetConfig::default() }
    }

    /// `n` process-mode workers running `bin` over Unix sockets.
    pub fn processes(n: usize, bin: impl Into<PathBuf>) -> Self {
        NetConfig {
            workers: n.max(1),
            worker_mode: WorkerMode::Process { bin: bin.into() },
            ..NetConfig::default()
        }
    }
}

/// One coordinator↔worker link.
pub(crate) struct Link {
    pub(crate) id: usize,
    /// The send half; the lock keeps frames from interleaving.
    tx: Mutex<Sock>,
    /// Cloned descriptor for shutting the socket down without taking
    /// the tx lock (used by `declare_dead` from any thread).
    shutdown_handle: Sock,
    pub(crate) alive: AtomicBool,
    last_pong: Mutex<Instant>,
    misses: AtomicU32,
}

/// A shipped task's lifecycle as seen by its blocked pool thread.
enum TaskState {
    Pending,
    /// `Ok(outputs)` or `Err(worker-reported failure)`.
    Done(Result<Vec<(u32, Vec<f64>)>, String>),
    Dead,
}

/// One shipped task body awaiting its [`NetMsg::TaskResult`].
struct TaskCell {
    worker: usize,
    state: TaskState,
}

/// Everything the condvar protects. Lock ordering: a thread holding
/// `waiters` must NEVER take a link's `tx` lock (send first, wait
/// second).
struct Waiters {
    /// Shipped task bodies in flight, keyed by nonce (the task id).
    tasks: HashMap<u64, TaskCell>,
    /// Fault shutdown in progress: admit no new work.
    aborted: bool,
}

/// Coordinator state shared between the pool's gate, the reader
/// threads, and the heartbeat thread.
pub struct Shared {
    pub(crate) cfg: NetConfig,
    /// The coordinator machine's own representation.
    pub(crate) coord_layout: DataLayout,
    links: Vec<Arc<Link>>,
    waiters: Mutex<Waiters>,
    cv: Condvar,
    faults: Mutex<FaultStats>,
    /// Where liveness events go; unset on an unobserved run.
    sink: OnceLock<EventSink>,
    rr: AtomicUsize,
    stop: AtomicBool,
    next_nonce: AtomicU64,
    /// Replica directory: which worker holds which object version.
    directory: Mutex<Directory>,
    /// Shipped-but-unresolved task bodies per worker (placement load).
    in_flight: Vec<AtomicUsize>,
    tasks_shipped: AtomicU64,
    replica_hits: AtomicU64,
    replica_misses: AtomicU64,
    payload_bytes: AtomicU64,
    /// `TaskResult` frames received, and their wire bytes.
    results: AtomicU64,
    result_bytes: AtomicU64,
}

/// How a remote task-body dispatch resolved, for the gate.
pub(crate) enum RemoteOutcome {
    /// The worker ran the program; these are the written declarations'
    /// lowered values, ready to lift into the coordinator's store.
    Done(Vec<(u32, Vec<f64>)>),
    /// The worker reported a deterministic failure (the program itself
    /// is bad); retrying elsewhere cannot help — run the closure
    /// locally so the canonical fault surfaces. The message is kept
    /// for debugging even though the gate deliberately discards it.
    Failed(#[allow(dead_code)] String),
    /// Dispatch budget or live workers exhausted: degrade to local.
    Exhausted,
    /// The run is being cancelled.
    Aborted,
}

impl Shared {
    /// The pool is observed: report liveness through `sink` from here
    /// on, starting with the workers that joined at start-up.
    pub(crate) fn attach_events(&self, sink: EventSink) {
        let sink = self.sink.get_or_init(|| sink);
        for link in &self.links {
            sink(TaskId::ROOT, EventKind::WorkerJoined { worker: link.id });
        }
    }

    fn emit(&self, task: TaskId, kind: EventKind) {
        if let Some(sink) = self.sink.get() {
            sink(task, kind);
        }
    }

    /// Worker indices currently believed alive.
    pub fn live_workers(&self) -> Vec<usize> {
        self.links.iter().filter(|l| l.alive.load(Ordering::Acquire)).map(|l| l.id).collect()
    }

    /// Pick the worker for a shipped task body among the live workers,
    /// avoiding `exclude` when any other is alive. Under
    /// [`PlacementPolicy::Locality`] this scores them with the shared
    /// [`jade_core::place::choose`]: in-flight shipped tasks as load,
    /// resident replica bytes of the task's read set as affinity.
    /// [`PlacementPolicy::RoundRobin`] rotates over them instead.
    fn pick_worker_for(&self, read_objs: &[u64], exclude: Option<usize>) -> Option<usize> {
        let mut candidates = self.live_workers();
        if candidates.len() > 1 {
            candidates.retain(|&w| Some(w) != exclude);
        }
        if candidates.is_empty() {
            return None;
        }
        if self.cfg.placement == PlacementPolicy::RoundRobin {
            let i = self.rr.fetch_add(1, Ordering::Relaxed);
            return Some(candidates[i % candidates.len()]);
        }
        let dir = self.directory.lock();
        let scored: Vec<Candidate> = candidates
            .iter()
            .map(|&w| Candidate {
                machine: w,
                load: self.in_flight[w].load(Ordering::Relaxed),
                speed: 1.0,
                affinity: dir.resident_bytes(read_objs, w),
            })
            .collect();
        choose(&scored)
    }

    /// A coordinator-local body wrote `object`: advance the master
    /// version so every worker replica is invalidated.
    pub(crate) fn note_local_write(&self, object: u64) {
        self.directory.lock().note_local_write(object);
    }

    /// Whether the coordinator's registry can ship a task that calls
    /// these kernels.
    pub(crate) fn can_ship<'a>(&self, kernels: impl IntoIterator<Item = &'a str>) -> bool {
        self.cfg.registry.knows_all(kernels)
    }

    /// Ship a task body to a worker and block until it resolves, with
    /// bounded re-dispatch on worker death.
    ///
    /// `reads` are the task's readable declarations as
    /// `(decl index, object id, lowered payload)`; `writes` its
    /// written declarations as `(decl index, object id)`. Output
    /// versions are pre-assigned as `master + 1`, which is stable
    /// across re-dispatch because the master version only advances
    /// when a dispatch actually completes.
    pub(crate) fn run_task_remote(
        &self,
        task: u64,
        ir: &TaskBodyIr,
        reads: &[(u32, u64, Vec<f64>)],
        writes: &[(u32, u64)],
    ) -> RemoteOutcome {
        let read_objs: Vec<u64> = reads.iter().map(|&(_, o, _)| o).collect();
        let mut dispatches = 0u32;
        let mut dead_from: Option<usize> = None;
        loop {
            if self.aborted() {
                return RemoteOutcome::Aborted;
            }
            if dispatches >= self.cfg.max_task_attempts {
                return RemoteOutcome::Exhausted;
            }
            let Some(w) = self.pick_worker_for(&read_objs, dead_from) else {
                return RemoteOutcome::Exhausted;
            };
            if let Some(from) = dead_from.take() {
                self.bump_recovery(from, w, task);
            }
            dispatches += 1;

            // Version the footprint against the master directory and
            // ship whatever the worker does not already hold.
            let mut inputs = Vec::with_capacity(reads.len());
            let mut ships = Vec::new();
            let mut outs = Vec::with_capacity(writes.len());
            {
                let mut dir = self.directory.lock();
                for (idx, obj, data) in reads {
                    let ver = dir.version(*obj);
                    inputs.push((*idx, *obj, ver));
                    if dir.holds(*obj, ver, w) {
                        self.replica_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.replica_misses.fetch_add(1, Ordering::Relaxed);
                        let bytes = (data.len() * std::mem::size_of::<f64>()) as u64;
                        self.payload_bytes.fetch_add(bytes, Ordering::Relaxed);
                        if dir.record_ship(*obj, ver, w, bytes) {
                            self.faults.lock().reshipped += 1;
                        }
                        ships.push(NetMsg::ObjectShip {
                            object: *obj,
                            version: ver,
                            data: data.clone(),
                        });
                    }
                }
                for (idx, obj) in writes {
                    outs.push((*idx, *obj, dir.version(*obj) + 1));
                }
            }

            self.waiters
                .lock()
                .tasks
                .insert(task, TaskCell { worker: w, state: TaskState::Pending });
            self.in_flight[w].fetch_add(1, Ordering::Relaxed);
            self.tasks_shipped.fetch_add(1, Ordering::Relaxed);
            let mut send_failed = false;
            for ship in &ships {
                if self.send_to(w, ship).is_err() {
                    send_failed = true;
                    break;
                }
            }
            if !send_failed {
                let ship =
                    NetMsg::TaskShip { nonce: task, ir: ir.clone(), inputs, outs: outs.clone() };
                send_failed = self.send_to(w, &ship).is_err();
            }
            if send_failed {
                self.declare_dead(w, "send failed");
                self.waiters.lock().tasks.remove(&task);
                self.in_flight[w].fetch_sub(1, Ordering::Relaxed);
                dead_from = Some(w);
                continue;
            }

            let outcome = {
                let mut g = self.waiters.lock();
                loop {
                    if g.aborted {
                        g.tasks.remove(&task);
                        break None;
                    }
                    match g
                        .tasks
                        .get_mut(&task)
                        .map(|c| std::mem::replace(&mut c.state, TaskState::Pending))
                    {
                        Some(TaskState::Done(res)) => {
                            g.tasks.remove(&task);
                            break Some(Ok(res));
                        }
                        Some(TaskState::Dead) => {
                            g.tasks.remove(&task);
                            break Some(Err(w));
                        }
                        Some(TaskState::Pending) | None => g = self.cv.wait(g),
                    }
                }
            };
            self.in_flight[w].fetch_sub(1, Ordering::Relaxed);
            match outcome {
                None => return RemoteOutcome::Aborted,
                Some(Ok(Ok(results))) => {
                    // The worker installed these outputs in its own
                    // cache at the pre-assigned versions: commit them
                    // as the new masters with the worker as sole
                    // holder. That residency is the locality signal.
                    let mut dir = self.directory.lock();
                    for (idx, data) in &results {
                        if let Some(&(_, obj, newver)) = outs.iter().find(|&&(i, _, _)| i == *idx) {
                            let bytes = (data.len() * std::mem::size_of::<f64>()) as u64;
                            dir.commit_remote_write(obj, newver, w, bytes);
                        }
                    }
                    drop(dir);
                    return RemoteOutcome::Done(results);
                }
                Some(Ok(Err(msg))) => return RemoteOutcome::Failed(msg),
                Some(Err(from)) => dead_from = Some(from),
            }
        }
    }

    /// Send one protocol message to a worker. Callers must not hold
    /// the `waiters` lock.
    fn send_to(&self, worker: usize, msg: &NetMsg) -> std::io::Result<()> {
        let link = &self.links[worker];
        if !link.alive.load(Ordering::Acquire) {
            return Err(std::io::Error::new(std::io::ErrorKind::NotConnected, "worker is dead"));
        }
        send_msg(&mut *link.tx.lock(), msg, 0, worker as u32, self.coord_layout)
    }

    /// Mark a worker dead: fail its in-flight shipped tasks, wake every
    /// blocked waiter, record the fault, close the socket.
    /// Idempotent — only the first caller does the work. `_why` names
    /// the detector at the call site.
    fn declare_dead(&self, worker: usize, _why: &str) {
        // During teardown the coordinator closes every socket itself;
        // the resulting write errors are not worker deaths.
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let link = &self.links[worker];
        if !link.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        self.faults.lock().crashes += 1;
        // The worker's replica cache died with it; versions it solely
        // held must be re-shipped (recovery traffic) when needed next.
        // Evict before failing the cells below: a woken waiter
        // re-dispatches at once and must already see the eviction.
        self.directory.lock().evict_worker(worker);
        {
            let mut g = self.waiters.lock();
            let mut in_flight = 0u64;
            for cell in g.tasks.values_mut() {
                if cell.worker == worker && matches!(cell.state, TaskState::Pending) {
                    cell.state = TaskState::Dead;
                    in_flight += 1;
                }
            }
            // Reported before any waiter can act on the death, so the
            // loss precedes everything it causes in the event stream.
            self.emit(TaskId::ROOT, EventKind::WorkerLost { worker, in_flight });
            // Wake the failed cells' waiters now rather than at the
            // next heartbeat tick, which is the only other wake-up:
            // `jade_core::sync::Condvar` has no timed wait.
            self.cv.notify_all();
        }
        link.shutdown_handle.shutdown_both();
    }

    /// Fault shutdown: stop admitting work and wake all waiters.
    pub(crate) fn abort(&self) {
        let mut g = self.waiters.lock();
        g.aborted = true;
        self.cv.notify_all();
    }

    fn aborted(&self) -> bool {
        self.waiters.lock().aborted
    }

    fn bump_recovery(&self, from: usize, to: usize, task: u64) {
        self.faults.lock().recoveries += 1;
        self.emit(TaskId(task), EventKind::TaskReassigned { from, to: Some(to) });
    }

    pub(crate) fn bump_degraded(&self) {
        self.faults.lock().degraded += 1;
    }

    // ---- protocol threads ----

    /// Reader thread body: drain one link's socket, resolve waits,
    /// and detect EOF death. Blocks in `read`: teardown and
    /// `declare_dead` shut the socket down, which ends the read.
    fn reader_loop(self: &Arc<Self>, link: Arc<Link>) {
        let mut sock = match link.shutdown_handle.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        // Clear the bound the handshake polled with.
        let _ = sock.set_read_timeout(None);
        let mut rd = FrameReader::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            // `declare_dead` ignores teardown's own EOFs and errors.
            let n = match std::io::Read::read(&mut sock, &mut buf) {
                Ok(0) => {
                    self.declare_dead(link.id, "socket EOF");
                    return;
                }
                Ok(n) => n,
                Err(_) => {
                    self.declare_dead(link.id, "socket error");
                    return;
                }
            };
            rd.push(&buf[..n]);
            loop {
                let msg = match rd.next_frame() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        // A corrupt stream from this worker is
                        // indistinguishable from arbitrary misbehavior:
                        // treat the machine as lost.
                        self.declare_dead(link.id, "corrupt frame stream");
                        return;
                    }
                };
                let net = match unpack_msg(&msg) {
                    Ok(m) => m,
                    Err(_) => {
                        self.declare_dead(link.id, "undecodable message");
                        return;
                    }
                };
                match net {
                    NetMsg::Pong { .. } => {
                        *link.last_pong.lock() = Instant::now();
                        link.misses.store(0, Ordering::Release);
                    }
                    NetMsg::TaskResult { nonce, ok, err, outs } => {
                        self.results.fetch_add(1, Ordering::Relaxed);
                        self.result_bytes.fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
                        let mut g = self.waiters.lock();
                        if let Some(cell) = g.tasks.get_mut(&nonce) {
                            // Only the currently-assigned worker may
                            // resolve the cell; a link that was
                            // declared dead mid-task never delivers
                            // (its reader thread exited), so no stale
                            // attempt can race a re-dispatch.
                            if cell.worker == link.id && matches!(cell.state, TaskState::Pending) {
                                cell.state = TaskState::Done(if ok { Ok(outs) } else { Err(err) });
                                self.cv.notify_all();
                            }
                        }
                    }
                    // Worker-bound or handshake traffic: nothing to do.
                    _ => {}
                }
            }
        }
    }

    /// Heartbeat thread body: one ping per live link per round, miss
    /// accounting, and the periodic waiter wakeup that substitutes for
    /// a timed condvar wait.
    fn heartbeat_loop(self: &Arc<Self>) {
        let tick = (self.cfg.heartbeat / 2).max(Duration::from_millis(1));
        let mut last_round = Instant::now();
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(tick);
            // `jade_core::sync::Condvar` has no timed wait: wake all
            // waiters every tick, so none goes longer than one tick
            // without re-checking its predicate against newly-dead
            // workers.
            {
                let _g = self.waiters.lock();
                self.cv.notify_all();
            }
            if last_round.elapsed() < self.cfg.heartbeat {
                continue;
            }
            last_round = Instant::now();
            for link in &self.links {
                if !link.alive.load(Ordering::Acquire) {
                    continue;
                }
                let stale = link.last_pong.lock().elapsed() > self.cfg.heartbeat;
                if stale {
                    let missed = link.misses.fetch_add(1, Ordering::AcqRel) + 1;
                    self.emit(TaskId::ROOT, EventKind::HeartbeatMiss { worker: link.id, missed });
                    if missed > self.cfg.miss_budget {
                        self.declare_dead(link.id, "heartbeat lost");
                        continue;
                    }
                }
                let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
                if self.send_to(link.id, &NetMsg::Ping { nonce }).is_err() {
                    self.declare_dead(link.id, "socket write error");
                }
            }
        }
    }
}

/// Either listener family, with non-blocking accept for deadlines.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept_nonblocking(&self) -> std::io::Result<Option<Sock>> {
        match self {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Sock::Unix(s))),
                Err(e) if is_timeout(&e) => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Sock::tcp(s).map(Some),
                Err(e) if is_timeout(&e) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// A running worker pool plus its protocol threads.
pub struct Cluster {
    /// Coordinator state, shared with the gate.
    pub shared: Arc<Shared>,
    readers: Vec<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
    children: Vec<Child>,
    worker_threads: Vec<JoinHandle<()>>,
    unix_path: Option<PathBuf>,
}

/// Monotonic counter so concurrent clusters in one process get
/// distinct socket paths.
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

impl Cluster {
    /// Bring up the listener, spawn `cfg.workers` workers, complete
    /// the handshakes, and start the protocol threads.
    pub fn start(cfg: NetConfig) -> std::io::Result<Cluster> {
        let seq = CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut unix_path = None;
        let (listener, addr) = match cfg.transport {
            Transport::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "jade-net-{}-{}.sock",
                    std::process::id(),
                    seq
                ));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                let addr = format!("unix:{}", path.display());
                unix_path = Some(path);
                (Listener::Unix(l), addr)
            }
            Transport::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                (Listener::Tcp(l), addr)
            }
        };
        match &listener {
            Listener::Unix(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }

        // Spawn the worker side of every link. Both modes start the
        // same way: dial `addr`, say `Hello`, and take the rest of the
        // configuration from `Welcome`.
        let mut children = Vec::new();
        let mut worker_threads = Vec::new();
        for _ in 0..cfg.workers {
            match &cfg.worker_mode {
                WorkerMode::Threads => {
                    let opts = WorkerOpts { die: Die::Abrupt, registry: cfg.registry.clone() };
                    let addr = addr.clone();
                    worker_threads.push(std::thread::spawn(move || {
                        // A worker I/O error surfaces to the
                        // coordinator as link death; nothing else to
                        // do on this side.
                        if let Ok(sock) = Sock::connect(&addr) {
                            let _ = run_worker(sock, opts);
                        }
                    }));
                }
                WorkerMode::Process { bin } => children.push(
                    Command::new(bin).env("JADE_NET_ADDR", &addr).stdin(Stdio::null()).spawn()?,
                ),
            }
        }

        // Accept and handshake every worker. Slots go in the order
        // workers say `Hello`, and each `Welcome` carries its slot's
        // whole configuration.
        // Workers marshal with rotated layout presets, so every run
        // exercises heterogeneous data-format conversion (big-endian
        // "SPARCs" talking to the coordinator).
        let presets = DataLayout::all_presets();
        let coord_layout = DataLayout::x86_64();
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut pending: Vec<(Sock, FrameReader)> = Vec::new();
        let mut joined: Vec<Sock> = Vec::with_capacity(cfg.workers);
        while joined.len() < cfg.workers {
            if Instant::now() > deadline {
                let msg = format!(
                    "only {}/{} workers completed the handshake",
                    joined.len(),
                    cfg.workers
                );
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, msg));
            }
            if let Some(sock) = listener.accept_nonblocking()? {
                sock.set_read_timeout(Some(Duration::from_millis(5)))?;
                pending.push((sock, FrameReader::new()));
            }
            let mut still = Vec::new();
            for (mut sock, mut rd) in pending {
                let mut buf = [0u8; 1024];
                match std::io::Read::read(&mut sock, &mut buf) {
                    Ok(0) => continue, // connected then died: drop it
                    Ok(n) => rd.push(&buf[..n]),
                    Err(e) if is_timeout(&e) => {}
                    Err(_) => continue,
                }
                match rd.next_frame() {
                    Ok(Some(msg)) => {
                        if let Ok(NetMsg::Hello) = unpack_msg(&msg) {
                            let slot = joined.len();
                            let welcome = NetMsg::Welcome {
                                worker: slot as u32,
                                layout: presets[slot % presets.len()].id,
                                chaos: cfg
                                    .chaos
                                    .iter()
                                    .find(|&&(w, _)| w as usize == slot)
                                    .map_or_else(Chaos::default, |&(_, c)| c),
                            };
                            send_msg(&mut sock, &welcome, 0, slot as u32, coord_layout)?;
                            joined.push(sock);
                            continue;
                        }
                        // Anything else on a fresh connection: drop.
                    }
                    Ok(None) => still.push((sock, rd)),
                    Err(_) => continue,
                }
            }
            pending = still;
            std::thread::sleep(Duration::from_millis(2));
        }

        let mut links = Vec::with_capacity(cfg.workers);
        for (id, sock) in joined.into_iter().enumerate() {
            let shutdown_handle = sock.try_clone()?;
            links.push(Arc::new(Link {
                id,
                tx: Mutex::new(sock),
                shutdown_handle,
                alive: AtomicBool::new(true),
                last_pong: Mutex::new(Instant::now()),
                misses: AtomicU32::new(0),
            }));
        }

        let nworkers = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            coord_layout,
            links,
            waiters: Mutex::new(Waiters { tasks: HashMap::new(), aborted: false }),
            cv: Condvar::new(),
            faults: Mutex::new(FaultStats::default()),
            sink: OnceLock::new(),
            rr: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            next_nonce: AtomicU64::new(0),
            directory: Mutex::new(Directory::new(nworkers)),
            in_flight: (0..nworkers).map(|_| AtomicUsize::new(0)).collect(),
            tasks_shipped: AtomicU64::new(0),
            replica_hits: AtomicU64::new(0),
            replica_misses: AtomicU64::new(0),
            payload_bytes: AtomicU64::new(0),
            results: AtomicU64::new(0),
            result_bytes: AtomicU64::new(0),
        });
        let mut readers = Vec::new();
        for link in shared.links.clone() {
            let sh = shared.clone();
            readers.push(std::thread::spawn(move || sh.reader_loop(link)));
        }
        let hb = {
            let sh = shared.clone();
            std::thread::spawn(move || sh.heartbeat_loop())
        };

        Ok(Cluster { shared, readers, heartbeat: Some(hb), children, worker_threads, unix_path })
    }

    /// Stop the protocol threads, dismiss the workers, and collect the
    /// run's aggregate network and fault statistics.
    pub fn shutdown(mut self) -> (NetStats, FaultStats) {
        // Stop first so teardown-induced I/O errors are never
        // mistaken for worker deaths, then send the (best-effort)
        // goodbyes.
        self.shared.stop.store(true, Ordering::Release);
        for link in self.shared.live_workers() {
            let _ = self.shared.send_to(link, &NetMsg::Shutdown);
        }
        // Closing the sockets unblocks reader threads and makes
        // workers exit on EOF.
        for link in &self.shared.links {
            link.shutdown_handle.shutdown_both();
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        for mut c in self.children.drain(..) {
            // The worker exits on EOF; SIGKILLed chaos victims are
            // already gone. `wait` also reaps the zombie.
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match c.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = c.kill();
                        let _ = c.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
        }
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
        let sh = &self.shared;
        let net = NetStats {
            messages: sh.results.load(Ordering::Relaxed),
            bytes: sh.result_bytes.load(Ordering::Relaxed),
            tasks_shipped: sh.tasks_shipped.load(Ordering::Relaxed),
            replica_hits: sh.replica_hits.load(Ordering::Relaxed),
            replica_misses: sh.replica_misses.load(Ordering::Relaxed),
            payload_bytes: sh.payload_bytes.load(Ordering::Relaxed),
            ..NetStats::default()
        };
        let faults = *self.shared.faults.lock();
        (net, faults)
    }
}
