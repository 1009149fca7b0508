//! The Figure 7 narrative: the paper's step-by-step picture of a Jade
//! program executing on message-passing machines (task shipping,
//! object moves/copies, latency hiding), rendered from the run's
//! [`Event`] stream — collect it with an
//! [`EventCollector`](jade_core::observe::EventCollector).

use std::collections::HashMap;
use std::fmt::Write as _;

use jade_core::ids::TaskId;
use jade_core::observe::{Event, EventKind};

use crate::time::SimTime;

/// Render a simulated run's events, in emission order, as one line
/// per scheduling or object-management step. Message traffic and
/// enablings are not narrated.
pub fn narrative(events: &[Event]) -> String {
    let mut labels: HashMap<TaskId, &str> = HashMap::from([(TaskId::ROOT, "root")]);
    // The machine a task runs on, and the machine its descriptor
    // ships from when it is next dispatched.
    let mut runs_on: HashMap<TaskId, usize> = HashMap::from([(TaskId::ROOT, 0)]);
    let mut ships_from: HashMap<TaskId, usize> = HashMap::new();
    let mut s = String::new();
    for ev in events {
        let t = ev.task;
        let label = labels.get(&t).copied().unwrap_or("?");
        let via = |converted: &bool| if *converted { ", format-converted" } else { "" };
        let line = match &ev.kind {
            EventKind::TaskCreated { parent, label } => {
                let machine = runs_on.get(parent).copied().unwrap_or(0);
                labels.insert(t, label);
                ships_from.insert(t, machine);
                format!("machine {machine} creates task {t} [{label}]")
            }
            EventKind::TaskDispatched { worker: to } => {
                match ships_from.get(&t).copied().unwrap_or(0) {
                    from if from == *to => {
                        format!("task {t} [{label}] assigned locally to machine {to}")
                    }
                    from => {
                        format!("task {t} [{label}] moved from machine {from} to idle machine {to}")
                    }
                }
            }
            EventKind::TaskReassigned { from, to: Some(to) } => {
                ships_from.insert(t, *from);
                format!("task {t} [{label}] moved from machine {from} to idle machine {to}")
            }
            EventKind::TaskReassigned { from, to: None } => {
                format!("task {t} [{label}] recovered from crashed machine {from} for re-execution")
            }
            EventKind::TaskStarted { worker } => {
                runs_on.insert(t, *worker);
                format!("machine {worker} starts task {t} [{label}]")
            }
            EventKind::TaskFinished { worker } => {
                format!("machine {worker} finishes task {t} [{label}]")
            }
            EventKind::AccessWaitBegin { .. }
            | EventKind::ContBlock
            | EventKind::CreatorSuspended => {
                format!("task {t} [{label}] suspends (waiting on earlier task)")
            }
            EventKind::AccessWaitEnd { .. }
            | EventKind::ContUnblock
            | EventKind::FetchWaitEnd
            | EventKind::CreatorResumed => format!("task {t} [{label}] resumes"),
            EventKind::ObjectMoved { object, from, to, bytes, converted } => format!(
                "{object} moved machine {from} -> {to} ({bytes} bytes{}); old version invalidated",
                via(converted)
            ),
            EventKind::ObjectCopied { object, from, to, bytes, converted } => format!(
                "{object} copied machine {from} -> {to} ({bytes} bytes{}); both may read concurrently",
                via(converted)
            ),
            EventKind::FetchWaitBegin { object: Some(object) } => format!(
                "task {t} [{label}] waits for {object} in transit (latency hidden by other tasks)"
            ),
            EventKind::WorkerLost { worker, .. } => format!(
                "machine {worker} crashes (transient); queued tasks will re-execute elsewhere"
            ),
            EventKind::WorkerJoined { worker } => format!("machine {worker} rejoins the platform"),
            _ => continue,
        };
        let _ = writeln!(s, "[{:>12}] {line}", SimTime(ev.nanos));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::ids::ObjectId;

    #[test]
    fn renders_shipping_and_conversion() {
        let ev = |nanos, task, kind| Event { nanos, task: TaskId(task), kind };
        let out = narrative(&[
            ev(
                1_000,
                1,
                EventKind::TaskCreated { parent: TaskId::ROOT, label: "Internal(0)".into() },
            ),
            ev(1_000, 1, EventKind::TaskEnabled),
            ev(2_000, 1, EventKind::TaskDispatched { worker: 1 }),
            ev(
                3_000,
                1,
                EventKind::ObjectMoved {
                    object: ObjectId(0),
                    from: 0,
                    to: 1,
                    bytes: 128,
                    converted: true,
                },
            ),
        ]);
        assert_eq!(out.lines().count(), 3, "enablings are not narrated:\n{out}");
        assert!(out.contains("machine 0 creates task task#1 [Internal(0)]"));
        assert!(out.contains("[Internal(0)] moved from machine 0 to idle machine 1"));
        assert!(out.contains("format-converted"));
    }
}
