//! Runtime observability: typed lifecycle events and built-in
//! observers.
//!
//! The paper's §5/§8 argue Jade is viable because the runtime performs
//! synchronization, checking and object management "on the program's
//! behalf". [`crate::stats::RuntimeStats`] counts that work in
//! aggregate; this module shows *where* it goes. Executors emit typed
//! [`Event`]s at every task-lifecycle transition (created → enabled →
//! dispatched → started → finished), at every engine wait (access
//! waits, `with-cont` blocks), at throttle suspensions, at worker
//! joins and losses, and — in the simulator — at every message
//! send/receive and object move/copy. This is the only event type:
//! every backend reports in it, and everything that renders a run
//! (timeline, contention profile, the simulator's Figure 7 narrative)
//! is a function of the stream. Observers are *pull-free*: an
//! [`ObserverHub`] fans each event out to the built-in timeline
//! observer and to any user [`RuntimeObserver`]s. The contention
//! profile is a view of the timeline ([`Timeline::contention`]).
//!
//! Emission is strictly zero-cost when no observer is installed: every
//! executor gates event *construction* (not just delivery) on
//! [`ObserverHub::is_active`], so an unobserved run performs exactly
//! one branch per potential event.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::ids::{ObjectId, TaskId};
use crate::spec::AccessKind;

/// What happened. Worker indices identify the executing lane: thread-
/// pool workers in `jade-threads` (0 is the root's thread), machine
/// indices in `jade-sim`, always 0 in the serial elision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A `withonly` created a task.
    TaskCreated {
        /// The creating task.
        parent: TaskId,
        /// The label given at creation.
        label: String,
    },
    /// All immediate declarations enabled; the task may start.
    TaskEnabled,
    /// A worker/machine took responsibility for the task.
    TaskDispatched {
        /// The executing lane.
        worker: usize,
    },
    /// The task body began executing.
    TaskStarted {
        /// The executing lane.
        worker: usize,
    },
    /// The task body completed and released its queue positions.
    TaskFinished {
        /// The executing lane.
        worker: usize,
    },
    /// An access check returned `MustWait`; the task suspends.
    AccessWaitBegin {
        /// The contended object.
        object: ObjectId,
        /// The kind of access that had to wait.
        kind: AccessKind,
    },
    /// The suspended access resumed (granted, or re-checking).
    AccessWaitEnd {
        /// The contended object.
        object: ObjectId,
        /// The kind of access that waited.
        kind: AccessKind,
    },
    /// A `with-cont` conversion must wait for an earlier task.
    ContBlock,
    /// The blocked `with-cont` resumed.
    ContUnblock,
    /// The simulator sent a runtime message (attributed to the root
    /// task; machine indices are in the payload).
    MessageSend {
        /// Sending machine.
        from: usize,
        /// Receiving machine.
        to: usize,
        /// Payload size on the wire.
        bytes: u64,
    },
    /// The simulator delivered a runtime message.
    MessageRecv {
        /// Sending machine.
        from: usize,
        /// Receiving machine.
        to: usize,
        /// Payload size on the wire.
        bytes: u64,
    },
    /// The simulator moved an object's authoritative version for a
    /// write access of the event's task; the old version is
    /// invalidated.
    ObjectMoved {
        /// The object.
        object: ObjectId,
        /// Previous owner.
        from: usize,
        /// New owner.
        to: usize,
        /// Payload size on the wire.
        bytes: u64,
        /// Whether the transfer crossed data formats.
        converted: bool,
    },
    /// The simulator replicated an object for a read access of the
    /// event's task; the source keeps its version.
    ObjectCopied {
        /// The object.
        object: ObjectId,
        /// Source machine.
        from: usize,
        /// Replica destination.
        to: usize,
        /// Payload size on the wire.
        bytes: u64,
        /// Whether the transfer crossed data formats.
        converted: bool,
    },
    /// A started task's access was granted but the object is still in
    /// transit; the task suspends (the latency the simulator hides by
    /// running other tasks).
    FetchWaitBegin {
        /// The object in flight; `None` when a `with-cont` conversion
        /// fetches several objects at once.
        object: Option<ObjectId>,
    },
    /// Every fetch the task was suspended on has arrived.
    FetchWaitEnd,
    /// The throttle suspended the creating task (the main program) at
    /// the high-water mark.
    CreatorSuspended,
    /// The backlog drained below the low-water mark; the creator
    /// resumed.
    CreatorResumed,
    /// A worker connected (or reconnected) to the coordinator and
    /// completed its handshake; in the simulator, a crashed machine
    /// rejoined the platform.
    WorkerJoined {
        /// The worker's lane index.
        worker: usize,
    },
    /// A heartbeat deadline passed without a pong from the worker.
    /// Emitted once per missed beat; `missed` counts consecutive
    /// misses so far (the liveness budget drains at `miss_budget`).
    HeartbeatMiss {
        /// The silent worker's lane index.
        worker: usize,
        /// Consecutive misses including this one.
        missed: u32,
    },
    /// The coordinator declared a worker dead — heartbeat budget
    /// exhausted or its socket hit EOF — and began recovery; in the
    /// simulator, a machine crashed at a task boundary.
    WorkerLost {
        /// The dead worker's lane index.
        worker: usize,
        /// Tasks that were in flight on it and need reassignment.
        in_flight: u64,
    },
    /// A dispatched but unfinished task left its lane: stranded on a
    /// dead worker and taken over for re-execution, or (simulator)
    /// migrated unstarted to an idle machine by the load balancer.
    TaskReassigned {
        /// The lane the task left.
        from: usize,
        /// The lane that took it over; `None` when it went back to
        /// the ready pool and a fresh `TaskDispatched` follows.
        to: Option<usize>,
    },
    /// A job was admitted into a [`crate::serve::Session`]'s queue.
    /// Session-level events are attributed to `TaskId::ROOT`; the job
    /// is identified by `job` (a [`crate::serve::JobId`] value).
    JobSubmitted {
        /// The admitted job.
        job: u64,
    },
    /// A free execution slot took the job, the oldest queued one.
    JobDispatched {
        /// The dispatched job.
        job: u64,
        /// The session execution slot (not a backend worker index).
        slot: usize,
    },
    /// The job finished and its report is ready.
    JobCompleted {
        /// The finished job.
        job: u64,
        /// Whether the job produced an `Ok` report.
        ok: bool,
    },
    /// The job was cancelled (before or during execution).
    JobCancelled {
        /// The cancelled job.
        job: u64,
    },
}

/// One observed event: a timestamp (wall-clock nanoseconds since the
/// run started for real executors, simulated nanoseconds in jade-sim),
/// the task it concerns, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the start of the run (simulated time in sim).
    pub nanos: u64,
    /// The task the event concerns (`TaskId::ROOT` for runtime-level
    /// events such as message traffic).
    pub task: TaskId,
    /// What happened.
    pub kind: EventKind,
}

/// A hook receiving every runtime event, in emission order.
///
/// Events arrive serialized, so implementations need no internal
/// synchronization for ordering: the serial elision and the simulator
/// emit from their single thread as things happen; the thread pool
/// (and `jade-net` over it) buffers per lane and delivers the merged
/// stream in `(nanos, seq)` order when the run ends — on success *and*
/// on fault.
/// Observers are consumed by the run; to get data out, share state
/// (e.g. an `Arc<Mutex<_>>`, as [`EventCollector`] does).
pub trait RuntimeObserver: Send {
    /// Called once per event, in order.
    fn on_event(&mut self, ev: &Event);
}

/// Fan-out point the executors emit into. Holds the built-in
/// timeline observer plus any user observers; when none are installed
/// the hub is *inactive* and executors skip event construction
/// entirely.
#[derive(Default)]
pub struct ObserverHub {
    timeline: Option<TimelineObserver>,
    users: Vec<Box<dyn RuntimeObserver + Send>>,
    active: bool,
}

impl std::fmt::Debug for ObserverHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHub")
            .field("timeline", &self.timeline.is_some())
            .field("users", &self.users.len())
            .field("active", &self.active)
            .finish()
    }
}

impl ObserverHub {
    /// A hub with no observers: [`is_active`](Self::is_active) is
    /// `false` and [`emit`](Self::emit) is a no-op.
    pub fn inactive() -> Self {
        Self::default()
    }

    /// Build a hub from the timeline toggle plus user observers.
    pub fn new(timeline: bool, users: Vec<Box<dyn RuntimeObserver + Send>>) -> Self {
        let active = timeline || !users.is_empty();
        ObserverHub { timeline: timeline.then(TimelineObserver::default), users, active }
    }

    /// Whether any observer is installed. Executors must gate event
    /// construction on this so unobserved runs pay nothing.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Deliver one event to every installed observer.
    pub fn emit(&mut self, ev: Event) {
        if !self.active {
            return;
        }
        if let Some(t) = &mut self.timeline {
            t.on_event(&ev);
        }
        for u in &mut self.users {
            u.on_event(&ev);
        }
    }

    /// Finish the run: close the timeline, if one was requested.
    /// `span_nanos` is the run's total elapsed time.
    pub fn finish(self, span_nanos: u64) -> Option<Timeline> {
        self.timeline.map(|t| t.finish(span_nanos))
    }
}

// ----------------------------------------------------------------------
// Timeline capture
// ----------------------------------------------------------------------

/// One executed task occurrence on a worker's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSlice {
    /// The task.
    pub task: TaskId,
    /// Its creation label.
    pub label: String,
    /// The lane (worker thread / machine) it executed on.
    pub worker: usize,
    /// Body start, nanoseconds.
    pub start_nanos: u64,
    /// Body end, nanoseconds.
    pub end_nanos: u64,
}

/// One interval a task spent suspended waiting on the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitSlice {
    /// The waiting task.
    pub task: TaskId,
    /// The lane it was (last) executing on.
    pub worker: usize,
    /// The contended object (`None` for `with-cont` blocks).
    pub object: Option<ObjectId>,
    /// The access kind that waited (`None` for `with-cont` blocks).
    pub kind: Option<AccessKind>,
    /// Wait begin, nanoseconds.
    pub start_nanos: u64,
    /// Wait end, nanoseconds.
    pub end_nanos: u64,
}

/// An instantaneous annotation on a worker's timeline — a network
/// stall, a heartbeat miss, a worker death, a reassignment. Rendered
/// as a Chrome-trace instant event so distributed-runtime hiccups are
/// visible against the task slices they delayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// When it happened, nanoseconds since run start.
    pub nanos: u64,
    /// The lane it concerns.
    pub worker: usize,
    /// Short human-readable description (becomes the event name).
    pub label: String,
}

/// Per-worker timeline of an execution: where every task body ran and
/// where every engine wait occurred. Exports to the Chrome
/// `chrome://tracing` / Perfetto JSON format.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    slices: Vec<TaskSlice>,
    waits: Vec<WaitSlice>,
    markers: Vec<Marker>,
    span_nanos: u64,
}

impl Timeline {
    /// Executed task slices, in completion order.
    pub fn slices(&self) -> &[TaskSlice] {
        &self.slices
    }

    /// Recorded wait intervals, in completion order.
    pub fn waits(&self) -> &[WaitSlice] {
        &self.waits
    }

    /// Instant markers (network stalls, worker deaths), in emission
    /// order.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }

    /// Total elapsed time of the run.
    pub fn span_nanos(&self) -> u64 {
        self.span_nanos
    }

    /// Number of lanes that executed at least one slice.
    pub fn workers(&self) -> usize {
        self.slices.iter().map(|s| s.worker + 1).max().unwrap_or(0)
    }

    /// Busy time of every executed task — its body span minus the
    /// engine waits that occurred inside it — in one pass over the
    /// slices and waits. This is the weight the critical-path analysis
    /// assigns to each task; the values sum to the run's work, `W`.
    pub fn busy_by_task(&self) -> HashMap<TaskId, u64> {
        // task → (span start, span end, time waited inside the span)
        let mut spans: HashMap<TaskId, (u64, u64, u64)> = HashMap::with_capacity(self.slices.len());
        for s in &self.slices {
            spans.entry(s.task).or_insert((s.start_nanos, s.end_nanos, 0));
        }
        for w in &self.waits {
            if let Some((start, end, waited)) = spans.get_mut(&w.task) {
                *waited += w.end_nanos.min(*end).saturating_sub(w.start_nanos.max(*start));
            }
        }
        spans
            .into_iter()
            .map(|(t, (start, end, waited))| (t, end.saturating_sub(start).saturating_sub(waited)))
            .collect()
    }

    /// Which shared objects serialized the run: the waits that name an
    /// object, totalled per object, worst first. A wait still open when
    /// the run ended counts up to the end of the run.
    pub fn contention(&self) -> ContentionProfile {
        let mut totals: HashMap<ObjectId, (u64, u64)> = HashMap::new();
        for w in &self.waits {
            if let Some(object) = w.object {
                let e = totals.entry(object).or_insert((0, 0));
                e.0 += w.end_nanos.saturating_sub(w.start_nanos);
                e.1 += 1;
            }
        }
        let mut entries: Vec<ObjectContention> = totals
            .into_iter()
            .map(|(object, (total_wait_nanos, waits))| ObjectContention {
                object,
                total_wait_nanos,
                waits,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.total_wait_nanos.cmp(&a.total_wait_nanos).then(a.object.cmp(&b.object))
        });
        ContentionProfile { entries }
    }

    /// Render as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format" with complete `"X"` events).
    /// Timestamps and durations are microseconds.
    pub fn to_chrome_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        fn us(nanos: u64) -> String {
            format!("{:.3}", nanos as f64 / 1e3)
        }
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for w in 0..self.workers() {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        for sl in &self.slices {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"task\":\"{}\"}}}}",
                esc(&sl.label),
                us(sl.start_nanos),
                us(sl.end_nanos.saturating_sub(sl.start_nanos)),
                sl.worker,
                sl.task,
            );
        }
        for w in &self.waits {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let what = match (w.object, w.kind) {
                (Some(o), Some(k)) => format!("wait {o} ({k})"),
                (Some(o), None) => format!("wait {o}"),
                _ => "with-cont block".to_string(),
            };
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"wait\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"task\":\"{}\"}}}}",
                esc(&what),
                us(w.start_nanos),
                us(w.end_nanos.saturating_sub(w.start_nanos)),
                w.worker,
                w.task,
            );
        }
        for m in &self.markers {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":0,\"tid\":{}}}",
                esc(&m.label),
                us(m.nanos),
                m.worker,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Built-in observer assembling a [`Timeline`] from lifecycle events.
#[derive(Debug, Default)]
struct TimelineObserver {
    labels: HashMap<TaskId, String>,
    /// Last known lane of a task (set at start; used for wait lanes).
    lane: HashMap<TaskId, usize>,
    open: HashMap<TaskId, (usize, u64)>,
    open_waits: HashMap<TaskId, (Option<ObjectId>, Option<AccessKind>, u64)>,
    out: Timeline,
}

impl TimelineObserver {
    fn close_wait(&mut self, task: TaskId, nanos: u64) {
        if let Some((object, kind, start)) = self.open_waits.remove(&task) {
            let worker = self.lane.get(&task).copied().unwrap_or(0);
            self.out.waits.push(WaitSlice {
                task,
                worker,
                object,
                kind,
                start_nanos: start,
                end_nanos: nanos,
            });
        }
    }

    fn finish(mut self, span_nanos: u64) -> Timeline {
        // Close anything still open (e.g. a faulted run) at the span end.
        let open: Vec<TaskId> = self.open_waits.keys().copied().collect();
        for t in open {
            self.close_wait(t, span_nanos);
        }
        self.out.span_nanos = span_nanos;
        self.out
    }
}

impl RuntimeObserver for TimelineObserver {
    fn on_event(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::TaskCreated { label, .. } => {
                self.labels.insert(ev.task, label.clone());
            }
            EventKind::TaskStarted { worker } => {
                self.lane.insert(ev.task, *worker);
                self.open.insert(ev.task, (*worker, ev.nanos));
            }
            EventKind::TaskFinished { .. } => {
                if let Some((worker, start)) = self.open.remove(&ev.task) {
                    let label =
                        self.labels.get(&ev.task).cloned().unwrap_or_else(|| ev.task.to_string());
                    self.out.slices.push(TaskSlice {
                        task: ev.task,
                        label,
                        worker,
                        start_nanos: start,
                        end_nanos: ev.nanos,
                    });
                }
            }
            EventKind::AccessWaitBegin { object, kind } => {
                self.open_waits.insert(ev.task, (Some(*object), Some(*kind), ev.nanos));
            }
            EventKind::ContBlock => {
                self.open_waits.insert(ev.task, (None, None, ev.nanos));
            }
            EventKind::AccessWaitEnd { .. } | EventKind::ContUnblock => {
                self.close_wait(ev.task, ev.nanos);
            }
            kind => {
                let (worker, label) = match kind {
                    EventKind::WorkerJoined { worker } => {
                        (*worker, format!("worker {worker} joined"))
                    }
                    EventKind::HeartbeatMiss { worker, missed } => {
                        (*worker, format!("heartbeat miss #{missed} (worker {worker})"))
                    }
                    EventKind::WorkerLost { worker, in_flight } => {
                        (*worker, format!("worker {worker} lost ({in_flight} in flight)"))
                    }
                    EventKind::TaskReassigned { from, to: Some(to) } => {
                        (*to, format!("task reassigned {from}→{to}"))
                    }
                    EventKind::TaskReassigned { from, to: None } => {
                        (*from, format!("task recovered from worker {from}"))
                    }
                    _ => return,
                };
                self.out.markers.push(Marker { nanos: ev.nanos, worker, label });
            }
        }
    }
}

// ----------------------------------------------------------------------
// Contention profiling
// ----------------------------------------------------------------------

/// Aggregated wait time charged to one shared object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectContention {
    /// The object accesses waited on.
    pub object: ObjectId,
    /// Total time tasks spent suspended on it.
    pub total_wait_nanos: u64,
    /// Number of distinct wait intervals.
    pub waits: u64,
}

/// Which shared objects serialize the computation: per-object total
/// wait time, sorted worst-first.
#[derive(Debug, Clone, Default)]
pub struct ContentionProfile {
    entries: Vec<ObjectContention>,
}

impl ContentionProfile {
    /// Per-object totals, sorted by wait time descending.
    pub fn entries(&self) -> &[ObjectContention] {
        &self.entries
    }

    /// Total wait time across all objects.
    pub fn total_wait_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.total_wait_nanos).sum()
    }

    /// Human-readable table, worst objects first.
    pub fn render(&self) -> String {
        let mut s = String::from("object      waits   total wait\n");
        for e in &self.entries {
            let _ = writeln!(
                s,
                "{:<10} {:>6} {:>9.3}ms",
                e.object.to_string(),
                e.waits,
                e.total_wait_nanos as f64 / 1e6
            );
        }
        s
    }
}

// ----------------------------------------------------------------------
// Test/user helper
// ----------------------------------------------------------------------

/// A shareable event sink for tests and ad-hoc tooling: hand
/// [`observer`](Self::observer) to a [`crate::runtime::RunConfig`] and
/// read the recorded events back after the run.
#[derive(Debug, Clone, Default)]
pub struct EventCollector {
    events: Arc<Mutex<Vec<Event>>>,
}

impl EventCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A boxed observer feeding this collector.
    pub fn observer(&self) -> Box<dyn RuntimeObserver + Send> {
        Box::new(CollectorSink(Arc::clone(&self.events)))
    }

    /// Everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("collector poisoned").clone()
    }
}

struct CollectorSink(Arc<Mutex<Vec<Event>>>);

impl RuntimeObserver for CollectorSink {
    fn on_event(&mut self, ev: &Event) {
        self.0.lock().expect("collector poisoned").push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, task: u64, kind: EventKind) -> Event {
        Event { nanos, task: TaskId(task), kind }
    }

    #[test]
    fn inactive_hub_reports_inactive_and_drops_events() {
        let mut hub = ObserverHub::inactive();
        assert!(!hub.is_active());
        hub.emit(ev(1, 1, EventKind::TaskEnabled));
        assert!(hub.finish(10).is_none());
    }

    #[test]
    fn timeline_builds_slices_and_busy_excludes_waits() {
        let mut hub = ObserverHub::new(true, Vec::new());
        assert!(hub.is_active());
        hub.emit(ev(0, 1, EventKind::TaskCreated { parent: TaskId::ROOT, label: "a".into() }));
        hub.emit(ev(1, 1, EventKind::TaskStarted { worker: 2 }));
        hub.emit(ev(
            3,
            1,
            EventKind::AccessWaitBegin { object: ObjectId(7), kind: AccessKind::Read },
        ));
        hub.emit(ev(
            8,
            1,
            EventKind::AccessWaitEnd { object: ObjectId(7), kind: AccessKind::Read },
        ));
        hub.emit(ev(11, 1, EventKind::TaskFinished { worker: 2 }));
        let tl = hub.finish(20).expect("timeline requested");
        assert_eq!(tl.slices().len(), 1);
        assert_eq!(tl.slices()[0].label, "a");
        assert_eq!(tl.slices()[0].worker, 2);
        // 10ns span minus 5ns wait.
        assert_eq!(tl.busy_by_task(), HashMap::from([(TaskId(1), 5)]));
        assert_eq!(tl.workers(), 3);
        let cp = tl.contention();
        assert_eq!(cp.entries().len(), 1);
        assert_eq!(cp.entries()[0].object, ObjectId(7));
        assert_eq!(cp.entries()[0].total_wait_nanos, 5);
        assert_eq!(cp.total_wait_nanos(), 5);
        assert!(cp.render().contains("obj#7"));
    }

    /// The profile the contention observer built from access-wait
    /// begin/end pairs before the profile became a view of the
    /// timeline: the reference [`Timeline::contention`] must match.
    fn paired_waits_profile(events: &[Event]) -> Vec<ObjectContention> {
        let mut pending: HashMap<TaskId, (ObjectId, u64)> = HashMap::new();
        let mut totals: HashMap<ObjectId, (u64, u64)> = HashMap::new();
        for ev in events {
            match &ev.kind {
                EventKind::AccessWaitBegin { object, .. } => {
                    pending.insert(ev.task, (*object, ev.nanos));
                }
                EventKind::AccessWaitEnd { .. } => {
                    if let Some((object, start)) = pending.remove(&ev.task) {
                        let e = totals.entry(object).or_insert((0, 0));
                        e.0 += ev.nanos.saturating_sub(start);
                        e.1 += 1;
                    }
                }
                _ => {}
            }
        }
        let mut entries: Vec<ObjectContention> = totals
            .into_iter()
            .map(|(object, (total_wait_nanos, waits))| ObjectContention {
                object,
                total_wait_nanos,
                waits,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.total_wait_nanos.cmp(&a.total_wait_nanos).then(a.object.cmp(&b.object))
        });
        entries
    }

    #[test]
    fn timeline_contention_equals_the_paired_waits_profile() {
        // Eight tasks on three lanes wait on five objects, interleaved,
        // with `with-cont` blocks and other events among the waits;
        // every wait is closed before the run ends.
        let mut events = Vec::new();
        let mut open: HashMap<u64, Option<ObjectId>> = HashMap::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for task in 1..=8 {
            events.push(ev(0, task, EventKind::TaskStarted { worker: (task % 3) as usize }));
        }
        let mut nanos = 0;
        for _ in 0..400 {
            nanos += next() % 4;
            let task = 1 + next() % 8;
            let kind = match open.remove(&task) {
                Some(Some(object)) => EventKind::AccessWaitEnd { object, kind: AccessKind::Write },
                Some(None) => EventKind::ContUnblock,
                None => match next() % 7 {
                    0 => {
                        open.insert(task, None);
                        EventKind::ContBlock
                    }
                    1 => EventKind::TaskEnabled,
                    _ => {
                        let object = ObjectId(next() % 5);
                        open.insert(task, Some(object));
                        EventKind::AccessWaitBegin { object, kind: AccessKind::Write }
                    }
                },
            };
            events.push(ev(nanos, task, kind));
        }
        let mut still_open: Vec<_> = open.into_iter().collect();
        still_open.sort();
        for (task, object) in still_open {
            nanos += 1;
            events.push(match object {
                Some(object) => {
                    ev(nanos, task, EventKind::AccessWaitEnd { object, kind: AccessKind::Write })
                }
                None => ev(nanos, task, EventKind::ContUnblock),
            });
        }
        let mut hub = ObserverHub::new(true, Vec::new());
        for e in &events {
            hub.emit(e.clone());
        }
        let profile = hub.finish(nanos + 1).expect("timeline requested").contention();
        let reference = paired_waits_profile(&events);
        assert_eq!(reference.len(), 5, "every object is waited on");
        assert_eq!(profile.entries(), &reference[..]);
    }

    #[test]
    fn chrome_json_is_wellformed_and_escaped() {
        let mut hub = ObserverHub::new(true, Vec::new());
        hub.emit(ev(
            0,
            1,
            EventKind::TaskCreated { parent: TaskId::ROOT, label: "quo\"te\\x".into() },
        ));
        hub.emit(ev(1_000, 1, EventKind::TaskStarted { worker: 0 }));
        hub.emit(ev(5_000, 1, EventKind::TaskFinished { worker: 0 }));
        let json = hub.finish(10_000).unwrap().to_chrome_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("quo\\\"te\\\\x"));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":4.000"));
        // Balanced braces as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn collector_records_in_order() {
        let col = EventCollector::new();
        let mut hub = ObserverHub::new(false, vec![col.observer()]);
        assert!(hub.is_active());
        hub.emit(ev(1, 1, EventKind::TaskEnabled));
        hub.emit(ev(2, 1, EventKind::TaskDispatched { worker: 0 }));
        let evs = col.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::TaskEnabled);
        assert_eq!(evs[1].kind, EventKind::TaskDispatched { worker: 0 });
    }
}
