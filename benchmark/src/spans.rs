//! The benchmark's own span recorder.
//!
//! A span is one timed interval around a call into a layer: name,
//! start, end, the span that caused it, and the request (task index or
//! job id) it belongs to. Spans go into per-thread in-memory buffers
//! and are only written out after the measurement ends. Nothing here
//! touches the program under test: the program is timed from outside,
//! at the public calls the benchmark makes into it.
//!
//! Self time is kept as spans close: each open span on a thread
//! accumulates the time its nested spans covered, so
//! `self = duration - nested`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Request id of spans that belong to no task or job (the root
/// program, the harness itself).
pub const NO_REQ: u64 = u64::MAX;

/// Spans a fresh per-thread buffer has room for before it grows.
const BUFFER_SPANS: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Time covered by spans nested inside this one on the same thread.
    pub nested: u64,
    /// Unique id: recording thread in the high bits, sequence below.
    pub id: u64,
    /// Id of the span that caused this one (0 = none). For a task body
    /// this is the `withonly` span on the creating thread.
    pub parent: u64,
    pub req: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn self_ns(&self) -> u64 {
        self.dur().saturating_sub(self.nested)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

type Buffer = Arc<Mutex<Vec<Span>>>;

/// Every buffer ever handed out, plus the ones whose thread has ended
/// and that the next new thread reuses. The executors under test start
/// fresh threads for every run, so buffers must outlive threads and be
/// recycled or a traced serve run would allocate thousands of them.
#[derive(Default)]
struct Registry {
    all: Vec<Buffer>,
    free: Vec<Buffer>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    // A panic while the registry is held can only come from allocation
    // failure; the lists are valid at every step, so recover the guard.
    REGISTRY.get_or_init(Default::default).lock().unwrap_or_else(|p| p.into_inner())
}

struct Local {
    buf: Buffer,
    thread: u32,
    seq: u64,
    /// Open spans on this thread: (id, nested time so far).
    stack: Vec<(u64, u64)>,
}

impl Local {
    fn new() -> Local {
        let buf = {
            let mut reg = registry();
            reg.free.pop().unwrap_or_else(|| {
                let b: Buffer = Arc::new(Mutex::new(Vec::with_capacity(BUFFER_SPANS)));
                reg.all.push(Arc::clone(&b));
                b
            })
        };
        Local {
            buf,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            stack: Vec::with_capacity(16),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        (u64::from(self.thread) << 40) | self.seq
    }

    fn push(&self, span: Span) {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).push(span);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        registry().free.push(Arc::clone(&self.buf));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    // `try_with`: a span closing while its thread's locals are being
    // torn down is dropped rather than panicking in a destructor.
    LOCAL.try_with(|cell| f(cell.borrow_mut().get_or_insert_with(Local::new))).ok()
}

/// Nanoseconds since the recorder's epoch (fixed at first use).
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off. Off (the default) makes [`span`] a single
/// relaxed load.
pub fn set_enabled(on: bool) {
    now();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    open: Option<Open>,
}

struct Open {
    name: &'static str,
    start: u64,
    id: u64,
    parent: u64,
    req: u64,
}

impl SpanGuard {
    /// The span's id, to name it as the cause of spans on other
    /// threads (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end = now();
        with_local(|local| {
            // Guards drop in reverse order of creation, so the top of
            // the stack is this span.
            let nested = match local.stack.pop() {
                Some((id, nested)) if id == open.id => nested,
                _ => 0,
            };
            if let Some(outer) = local.stack.last_mut() {
                outer.1 += end - open.start;
            }
            local.push(Span {
                name: open.name,
                start: open.start,
                end,
                nested,
                id: open.id,
                parent: open.parent,
                req: open.req,
                thread: local.thread,
            });
        });
    }
}

fn open(name: &'static str, req: u64, cause: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let open = with_local(|local| {
        let id = local.next_id();
        let parent = cause.unwrap_or_else(|| local.stack.last().map_or(0, |s| s.0));
        local.stack.push((id, 0));
        Open { name, start: 0, id, parent, req }
    });
    // Read the clock last so the bookkeeping above is not billed to
    // the span.
    SpanGuard { open: open.map(|o| Open { start: now(), ..o }) }
}

/// Open a span caused by the innermost open span on this thread.
pub fn span(name: &'static str, req: u64) -> SpanGuard {
    open(name, req, None)
}

/// Open a span caused by `parent`, a span on another thread.
pub fn span_caused_by(name: &'static str, req: u64, parent: u64) -> SpanGuard {
    open(name, req, Some(parent))
}

/// Record an interval that was not bracketed by a guard (a wait that
/// began on one thread and ended on another). It nests in nothing and
/// takes no self time from any span.
pub fn interval(name: &'static str, start: u64, end: u64, req: u64, parent: u64) {
    if !enabled() {
        return;
    }
    with_local(|local| {
        let id = local.next_id();
        local.push(Span { name, start, end, nested: 0, id, parent, req, thread: local.thread });
    });
}

/// Take every recorded span out of every buffer, ordered by start.
pub fn drain() -> Vec<Span> {
    let buffers: Vec<Buffer> = registry().all.clone();
    let mut spans = Vec::new();
    for b in buffers {
        spans.append(&mut b.lock().unwrap_or_else(|p| p.into_inner()));
    }
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Render spans in the Chrome trace-event format (`chrome://tracing`,
/// Perfetto) the repository's own `Timeline::to_chrome_json` emits:
/// complete events (`ph: "X"`), microsecond timestamps. At most `cap`
/// spans are written — the earliest ones — and the file says how many
/// were recorded, so a 400 000-task run stays loadable.
pub fn chrome_trace(spans: &[Span], cap: usize, meta: Vec<(&str, Json)>) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .take(cap)
        .map(|s| {
            let mut args = vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("self_us", Json::Num(s.self_ns() as f64 / 1e3)),
            ];
            if s.req != NO_REQ {
                args.push(("req", Json::Num(s.req as f64)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start as f64 / 1e3)),
                ("dur", Json::Num(s.dur() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.thread))),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    let mut other = meta;
    other.push(("spans_recorded", Json::Num(spans.len() as f64)));
    other.push(("spans_written", Json::Num(spans.len().min(cap) as f64)));
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ns")),
        ("otherData", Json::obj(other)),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so everything that records runs
    // in this one test.
    #[test]
    fn nesting_self_time_causes_and_chrome_output() {
        assert_eq!(span("off", 1).id(), 0, "recording starts off");
        assert!(drain().is_empty());

        set_enabled(true);
        let cause;
        {
            let outer = span("outer", 7);
            cause = outer.id();
            {
                let _inner = span("inner", 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::spawn(move || {
            let _body = span_caused_by("body", 7, cause);
            interval("queue", 5, 9, 7, cause);
        })
        .join()
        .unwrap();
        set_enabled(false);

        let spans = drain();
        assert_eq!(spans.len(), 4);
        let by = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (outer, inner, body, queue) = (by("outer"), by("inner"), by("body"), by("queue"));
        assert_eq!(inner.parent, outer.id, "nested span is caused by the enclosing one");
        assert_eq!(outer.nested, inner.dur());
        assert!(outer.self_ns() >= 1_000_000 && outer.self_ns() < outer.dur());
        assert_eq!(inner.self_ns(), inner.dur());
        assert_eq!(body.parent, outer.id, "cross-thread cause is kept");
        assert_ne!(body.thread, outer.thread);
        assert_eq!((queue.start, queue.end, queue.nested), (5, 9, 0));
        assert!(spans.iter().all(|s| s.req == 7));

        let trace = chrome_trace(&spans, 3, vec![("workload", Json::str("test"))]);
        let parsed = Json::parse(&trace.to_line()).unwrap();
        assert_eq!(parsed.get("traceEvents").and_then(Json::as_array).unwrap().len(), 3);
        let other = parsed.get("otherData").unwrap();
        assert_eq!(other.get("spans_recorded").and_then(Json::as_f64), Some(4.0));
        assert!(drain().is_empty(), "drain empties the buffers");
    }
}
