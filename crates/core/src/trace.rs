//! Task-graph trace capture.
//!
//! When enabled, the engine records the dynamic task graph it
//! discovers — tasks and the dependence edges between conflicting
//! declarations — which is exactly the structure Figure 4 of the paper
//! draws for the sparse Cholesky factorization. The `fig4_taskgraph`
//! binary renders this trace.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ids::{ObjectId, TaskId};
use crate::spec::AccessKind;

/// One recorded dependence edge: `from` must complete (or retire the
/// conflicting right) before `to` may perform the conflicting access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEdge {
    /// The earlier task in serial order.
    pub from: TaskId,
    /// The later, dependent task.
    pub to: TaskId,
    /// The object the conflict is on.
    pub object: ObjectId,
    /// The dependent access kind.
    pub kind: AccessKind,
}

/// A captured dynamic task graph.
#[derive(Debug, Default, Clone)]
pub struct TaskGraphTrace {
    labels: HashMap<TaskId, String>,
    order: Vec<TaskId>,
    edges: Vec<TraceEdge>,
    /// Position in `edges` of the one edge kept per `(from, to)` pair.
    by_pair: HashMap<(TaskId, TaskId), usize>,
    /// Positions in `edges` of each task's incoming edges, ascending.
    by_to: HashMap<TaskId, Vec<usize>>,
}

impl TaskGraphTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a task creation.
    pub fn task(&mut self, id: TaskId, label: &str) {
        self.labels.insert(id, label.to_string());
        self.order.push(id);
    }

    /// Record a dependence edge (deduplicated per from/to pair).
    ///
    /// When two tasks conflict on several objects, the *canonical*
    /// representative — smallest `(object, kind)` — is kept regardless
    /// of recording order. Recording order is not serial order (the
    /// engine buffers edges per object shard and merges them at the
    /// end), so a first-one-wins rule would make traces disagree
    /// across backends for multi-object conflicts.
    pub fn edge(&mut self, edge: TraceEdge) {
        match self.by_pair.entry((edge.from, edge.to)) {
            Entry::Occupied(at) => {
                let e = &mut self.edges[*at.get()];
                if (edge.object, edge.kind as u8) < (e.object, e.kind as u8) {
                    *e = edge;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(self.edges.len());
                self.by_to.entry(edge.to).or_default().push(self.edges.len());
                self.edges.push(edge);
            }
        }
    }

    /// Label of a task ("?" if unknown).
    pub fn label(&self, id: TaskId) -> &str {
        self.labels.get(&id).map(String::as_str).unwrap_or("?")
    }

    /// Tasks in creation (serial) order.
    pub fn tasks(&self) -> &[TaskId] {
        &self.order
    }

    /// All recorded edges.
    pub fn edges(&self) -> &[TraceEdge] {
        &self.edges
    }

    /// Direct predecessors of a task, in [`edges`](Self::edges) order.
    pub fn predecessors(&self, id: TaskId) -> Vec<TaskId> {
        self.preds(id).collect()
    }

    fn preds(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.by_to.get(&id).into_iter().flatten().map(|&at| self.edges[at].from)
    }

    /// Direct successors of a task (a scan over every edge: meant for
    /// point queries, not per-task loops).
    pub fn successors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges.iter().filter(|e| e.from == id).map(|e| e.to).collect()
    }

    /// The length of the longest dependence chain (critical path) in
    /// tasks. Root/anchor edges are included as recorded.
    pub fn critical_path_len(&self) -> usize {
        let mut depth: HashMap<TaskId, usize> = HashMap::new();
        let mut best = 0;
        // Tasks are recorded in serial creation order, and every edge
        // points from an earlier to a later task, so one forward pass
        // suffices.
        for &t in &self.order {
            let d =
                1 + self.preds(t).map(|p| depth.get(&p).copied().unwrap_or(0)).max().unwrap_or(0);
            depth.insert(t, d);
            best = best.max(d);
        }
        best
    }

    /// The heaviest dependence chain under a per-task weight (e.g.
    /// measured busy nanoseconds): returns the chain's total weight
    /// and the tasks along it in dependence order. The root task and
    /// edges touching it are excluded — the root is the sequential
    /// program, not a schedulable task.
    pub fn critical_path_weighted(&self, weight: impl Fn(TaskId) -> u64) -> (u64, Vec<TaskId>) {
        let mut depth: HashMap<TaskId, u64> = HashMap::new();
        let mut back: HashMap<TaskId, TaskId> = HashMap::new();
        let mut best: Option<TaskId> = None;
        // Tasks are recorded in serial creation order and every edge
        // points earlier→later, so one forward pass suffices.
        for &t in &self.order {
            if t.is_root() {
                continue;
            }
            let mut pred_depth = 0u64;
            for p in self.preds(t) {
                if p.is_root() {
                    continue;
                }
                let d = depth.get(&p).copied().unwrap_or(0);
                if d > pred_depth {
                    pred_depth = d;
                    back.insert(t, p);
                }
            }
            let d = pred_depth + weight(t);
            depth.insert(t, d);
            if best.is_none_or(|b| d > depth[&b]) {
                best = Some(t);
            }
        }
        let Some(mut cur) = best else {
            return (0, Vec::new());
        };
        let total = depth[&cur];
        let mut path = vec![cur];
        while let Some(&p) = back.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (total, path)
    }

    /// Render as Graphviz DOT (used by the Fig 4 binary).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph jade_tasks {\n  rankdir=TB;\n");
        for &t in &self.order {
            if t.is_root() {
                continue;
            }
            let _ = writeln!(s, "  t{} [label=\"{}\"];", t.0, self.label(t));
        }
        for e in &self.edges {
            if e.from.is_root() || e.to.is_root() {
                continue;
            }
            let _ = writeln!(s, "  t{} -> t{};", e.from.0, e.to.0);
        }
        s.push_str("}\n");
        s
    }

    /// Render a compact text listing (task: preds) for golden tests.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for &t in &self.order {
            if t.is_root() {
                continue;
            }
            let mut preds: Vec<String> =
                self.preds(t).filter(|p| !p.is_root()).map(|p| self.label(p).to_string()).collect();
            preds.sort();
            let _ = writeln!(s, "{} <- [{}]", self.label(t), preds.join(", "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_dedupe_and_query() {
        let mut tr = TaskGraphTrace::new();
        tr.task(TaskId(1), "a");
        tr.task(TaskId(2), "b");
        let e = TraceEdge {
            from: TaskId(1),
            to: TaskId(2),
            object: ObjectId(1),
            kind: AccessKind::Read,
        };
        tr.edge(e);
        tr.edge(e);
        assert_eq!(tr.edges().len(), 1);
        assert_eq!(tr.predecessors(TaskId(2)), vec![TaskId(1)]);
        assert_eq!(tr.successors(TaskId(1)), vec![TaskId(2)]);
    }

    #[test]
    fn multi_object_conflict_keeps_the_smallest_representative_in_place() {
        let mut tr = TaskGraphTrace::new();
        let edge = |from, to, object, kind| TraceEdge {
            from: TaskId(from),
            to: TaskId(to),
            object: ObjectId(object),
            kind,
        };
        tr.edge(edge(1, 3, 7, AccessKind::Write));
        tr.edge(edge(2, 3, 0, AccessKind::Read));
        // The same pair again on a smaller object, then a larger one.
        tr.edge(edge(1, 3, 4, AccessKind::Write));
        tr.edge(edge(1, 3, 9, AccessKind::Read));
        assert_eq!(
            tr.edges(),
            &[edge(1, 3, 4, AccessKind::Write), edge(2, 3, 0, AccessKind::Read)],
            "representative replaced at its original position"
        );
        assert_eq!(tr.predecessors(TaskId(3)), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn hundred_thousand_edge_chain_is_not_quadratic() {
        // A scan per recorded edge and per task made this shape O(E²):
        // minutes at 100k edges. Indexed, it is milliseconds.
        let n = 100_000u64;
        let mut tr = TaskGraphTrace::new();
        for i in 1..=n + 1 {
            tr.task(TaskId(i), "link");
        }
        for i in 1..=n {
            tr.edge(TraceEdge {
                from: TaskId(i),
                to: TaskId(i + 1),
                object: ObjectId(0),
                kind: AccessKind::Write,
            });
        }
        assert_eq!(tr.edges().len(), n as usize);
        let (total, path) = tr.critical_path_weighted(|_| 2);
        assert_eq!(total, 2 * (n + 1));
        assert_eq!(path.len(), n as usize + 1);
        assert_eq!(tr.critical_path_len(), n as usize + 1);
    }

    #[test]
    fn critical_path_on_chain_and_diamond() {
        let mut tr = TaskGraphTrace::new();
        for i in 1..=4 {
            tr.task(TaskId(i), &format!("t{i}"));
        }
        // diamond: 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4
        for (f, t) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
            tr.edge(TraceEdge {
                from: TaskId(f),
                to: TaskId(t),
                object: ObjectId(0),
                kind: AccessKind::Write,
            });
        }
        assert_eq!(tr.critical_path_len(), 3);
    }

    #[test]
    fn weighted_critical_path_picks_heaviest_chain() {
        let mut tr = TaskGraphTrace::new();
        for i in 1..=4 {
            tr.task(TaskId(i), &format!("t{i}"));
        }
        // diamond: 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4
        for (f, t) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
            tr.edge(TraceEdge {
                from: TaskId(f),
                to: TaskId(t),
                object: ObjectId(0),
                kind: AccessKind::Write,
            });
        }
        // Branch through 3 is heavier than through 2.
        let w = |t: TaskId| match t.0 {
            1 => 10,
            2 => 1,
            3 => 100,
            4 => 10,
            _ => 0,
        };
        let (total, path) = tr.critical_path_weighted(w);
        assert_eq!(total, 120);
        assert_eq!(path, vec![TaskId(1), TaskId(3), TaskId(4)]);
        let (zero, empty) = TaskGraphTrace::new().critical_path_weighted(w);
        assert_eq!(zero, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let mut tr = TaskGraphTrace::new();
        tr.task(TaskId(1), "Internal(0)");
        tr.task(TaskId(2), "External(0->3)");
        tr.edge(TraceEdge {
            from: TaskId(1),
            to: TaskId(2),
            object: ObjectId(0),
            kind: AccessKind::Read,
        });
        let dot = tr.to_dot();
        assert!(dot.contains("Internal(0)"));
        assert!(dot.contains("t1 -> t2"));
    }

    #[test]
    fn text_listing_sorts_predecessors() {
        let mut tr = TaskGraphTrace::new();
        tr.task(TaskId(1), "b");
        tr.task(TaskId(2), "a");
        tr.task(TaskId(3), "c");
        for f in [1, 2] {
            tr.edge(TraceEdge {
                from: TaskId(f),
                to: TaskId(3),
                object: ObjectId(0),
                kind: AccessKind::Write,
            });
        }
        let text = tr.to_text();
        assert!(text.contains("c <- [a, b]"));
    }
}
