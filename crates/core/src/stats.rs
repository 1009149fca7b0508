//! Runtime statistics counters.
//!
//! The paper's §5 lists what the implementation does on the program's
//! behalf (synchronization, checking, object management, throttling).
//! These counters make that work observable; the benchmark harness
//! reports them alongside timing so the runtime-overhead discussion in
//! §8 can be reproduced quantitatively.

/// Counters accumulated by an execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks created with `withonly` (root excluded).
    pub tasks_created: u64,
    /// Always 0: no backend executes a task inline in its creator
    /// (throttling suspends the creator instead). Kept because the
    /// benchmark ledger reads it.
    pub tasks_inlined: u64,
    /// Tasks that ran to completion (root excluded);
    /// `tasks_created == tasks_finished` at the end of every run.
    pub tasks_finished: u64,
    /// Declarations processed across all specifications.
    pub declarations: u64,
    /// Dynamic access checks performed (each guard acquisition).
    pub access_checks: u64,
    /// Accesses that had to wait for an earlier task.
    pub access_waits: u64,
    /// `with-cont` constructs executed.
    pub with_conts: u64,
    /// `with-cont`s that blocked on a deferred→immediate conversion.
    pub with_cont_blocks: u64,
    /// Dependence edges in the dynamic task graph (Figure 4), from the
    /// per-object access history: last conflicting writer plus, for a
    /// writer, the readers since — the same edges a trace records.
    pub conflicts: u64,
    /// Always 0. It counted successors a finishing worker ran directly
    /// instead of queueing (inline continuation stealing); the path
    /// was removed with its depth knob (EXPERIMENTS.md § E-REAL-NAMES).
    /// The field stays because the benchmark ledger reads it.
    pub cont_steals: u64,
    /// Always 0. It counted `attach_task` hits in a per-worker
    /// spec-hash cache; the cache hit on two of seven benchmarked
    /// workloads and moved neither's wall time, and was removed. The
    /// field stays because the benchmark ledger reads it.
    pub spec_cache_hits: u64,
    /// Always 0. It counted guard acquisitions served from a per-task
    /// grant memo in `jade-threads`; the memo recorded no hit on any
    /// benchmarked workload and was removed. The field stays because
    /// the benchmark ledger reads it.
    pub grant_cache_hits: u64,
    /// Peak number of simultaneously live (created, unfinished) tasks.
    pub peak_live_tasks: u64,
    /// High-water mark of task slots materialized in the engine's
    /// generational slab. With slot recycling this is bounded by the
    /// live-set (plus per-shard slack), not by `tasks_created`: zero
    /// steady-state slab growth shows up as `peak_task_slots` staying
    /// flat while `tasks_created` keeps climbing.
    pub peak_task_slots: u64,
    /// Objects registered.
    pub objects_created: u64,
}

impl RuntimeStats {
    /// Merge counters from another execution (e.g. per-worker stats).
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.tasks_created += other.tasks_created;
        self.tasks_inlined += other.tasks_inlined;
        self.tasks_finished += other.tasks_finished;
        self.declarations += other.declarations;
        self.access_checks += other.access_checks;
        self.access_waits += other.access_waits;
        self.with_conts += other.with_conts;
        self.with_cont_blocks += other.with_cont_blocks;
        self.conflicts += other.conflicts;
        self.cont_steals += other.cont_steals;
        self.spec_cache_hits += other.spec_cache_hits;
        self.grant_cache_hits += other.grant_cache_hits;
        self.peak_live_tasks = self.peak_live_tasks.max(other.peak_live_tasks);
        self.peak_task_slots = self.peak_task_slots.max(other.peak_task_slots);
        self.objects_created += other.objects_created;
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "tasks created:     {}", self.tasks_created)?;
        writeln!(f, "tasks inlined:     {}", self.tasks_inlined)?;
        writeln!(f, "tasks finished:    {}", self.tasks_finished)?;
        writeln!(f, "declarations:      {}", self.declarations)?;
        writeln!(f, "access checks:     {}", self.access_checks)?;
        writeln!(f, "access waits:      {}", self.access_waits)?;
        writeln!(f, "with-conts:        {}", self.with_conts)?;
        writeln!(f, "with-cont blocks:  {}", self.with_cont_blocks)?;
        writeln!(f, "conflicts (edges): {}", self.conflicts)?;
        writeln!(f, "cont steals:       {}", self.cont_steals)?;
        writeln!(f, "spec cache hits:   {}", self.spec_cache_hits)?;
        writeln!(f, "grant cache hits:  {}", self.grant_cache_hits)?;
        writeln!(f, "peak live tasks:   {}", self.peak_live_tasks)?;
        writeln!(f, "peak task slots:   {}", self.peak_task_slots)?;
        write!(f, "objects created:   {}", self.objects_created)
    }
}

/// Message-layer statistics for backends that move data over a
/// network, real or simulated.
///
/// The simulator has always kept these internally (its `SimReport`);
/// the real multi-process backend produces the same counters from
/// actual socket traffic. Surfacing them uniformly through
/// [`crate::runtime::Report::net`] lets the same analysis read either
/// backend — the sim acting as the oracle for the wire.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered (payload frames, after deduplication).
    pub messages: u64,
    /// Payload + header bytes delivered.
    pub bytes: u64,
    /// Frames sent again after an ack timeout. No backend retransmits
    /// any more, so this stays 0; the benchmark ledger still reads it.
    pub retransmits: u64,
    /// Task bodies shipped to a worker as portable IR programs.
    pub tasks_shipped: u64,
    /// Object inputs a remote task needed that were already resident
    /// on the chosen worker at the current version (no payload sent).
    pub replica_hits: u64,
    /// Object inputs that had to be shipped because the chosen worker
    /// held no replica (or a stale one).
    pub replica_misses: u64,
    /// Object payload bytes shipped to workers (the cost of every
    /// replica miss and recovery re-ship; what locality-aware
    /// placement minimizes).
    pub payload_bytes: u64,
}

impl NetStats {
    /// Merge counters from another link or run.
    pub fn merge(&mut self, other: &NetStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.retransmits += other.retransmits;
        self.tasks_shipped += other.tasks_shipped;
        self.replica_hits += other.replica_hits;
        self.replica_misses += other.replica_misses;
        self.payload_bytes += other.payload_bytes;
    }

    /// Fraction of remote-task object inputs served from a resident
    /// replica instead of a wire payload (1.0 when nothing shipped).
    pub fn replica_hit_rate(&self) -> f64 {
        let total = self.replica_hits + self.replica_misses;
        if total == 0 {
            1.0
        } else {
            self.replica_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "messages {} ({} bytes), tasks shipped {}, replica hits {} / misses {} \
             ({} payload bytes)",
            self.messages,
            self.bytes,
            self.tasks_shipped,
            self.replica_hits,
            self.replica_misses,
            self.payload_bytes
        )
    }
}

/// Fault-handling statistics: what the runtime survived.
///
/// A run that recovered from failures still *completes* — the paper's
/// position is that the runtime, not the program, owns distribution
/// and its hazards. These counters are how a recovered run reports
/// that something happened, instead of returning an error.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker (machine) deaths detected — heartbeat loss, socket EOF,
    /// or a simulated crash.
    pub crashes: u64,
    /// Tasks re-executed to completion after their worker died.
    pub recoveries: u64,
    /// Runs (or phases) that degraded to coordinator-local serial
    /// execution because too few workers survived.
    pub degraded: u64,
    /// Object payloads shipped again because the only worker holding
    /// the replica of the current version died (replica eviction on
    /// recovery).
    pub reshipped: u64,
}

impl FaultStats {
    /// True when no fault machinery fired at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Merge counters from another run or worker pool.
    pub fn merge(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.degraded += other.degraded;
        self.reshipped += other.reshipped;
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crashes {}, recoveries {}, degraded {}, reshipped {}",
            self.crashes, self.recoveries, self.degraded, self.reshipped
        )
    }
}

/// Job-server statistics: what a [`crate::serve::Session`] admitted,
/// refused, and completed over its lifetime.
///
/// Where [`RuntimeStats`] counts the work *inside* one job, these
/// counters describe the intake discipline across jobs — the quantity
/// the ROADMAP's serving scenario is judged on (admission,
/// backpressure, drain), not kernel speed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted into the session (queued or started).
    pub submitted: u64,
    /// Jobs that ran to completion and produced an `Ok` report.
    pub completed: u64,
    /// Jobs that finished with a [`crate::error::JadeFault`] other
    /// than cancellation.
    pub faulted: u64,
    /// Jobs cancelled before or during execution.
    pub cancelled: u64,
    /// Submissions refused with `SubmitError::Saturated` because the
    /// admission queue was at capacity (the backpressure signal).
    pub rejected_saturated: u64,
    /// Submissions refused because their `RunConfig` failed
    /// validation.
    pub rejected_invalid: u64,
    /// Submissions refused because the session was draining.
    pub rejected_draining: u64,
    /// High-water mark of jobs waiting in the admission queue.
    pub peak_queued: u64,
    /// High-water mark of jobs executing concurrently.
    pub peak_running: u64,
}

impl ServeStats {
    /// Merge counters from another session (or a shard of one).
    pub fn merge(&mut self, other: &ServeStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.faulted += other.faulted;
        self.cancelled += other.cancelled;
        self.rejected_saturated += other.rejected_saturated;
        self.rejected_invalid += other.rejected_invalid;
        self.rejected_draining += other.rejected_draining;
        self.peak_queued = self.peak_queued.max(other.peak_queued);
        self.peak_running = self.peak_running.max(other.peak_running);
    }

    /// Every admitted job has been fully accounted for.
    pub fn is_settled(&self) -> bool {
        self.submitted == self.completed + self.faulted + self.cancelled
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted {} (completed {}, faulted {}, cancelled {}), \
             rejected {} saturated / {} invalid / {} draining, \
             peak queued {}, peak running {}",
            self.submitted,
            self.completed,
            self.faulted,
            self.cancelled,
            self.rejected_saturated,
            self.rejected_invalid,
            self.rejected_draining,
            self.peak_queued,
            self.peak_running
        )
    }
}

/// Lock-free counterpart of [`RuntimeStats`] for concurrent executors:
/// every field is a relaxed atomic, so workers account for their own
/// work without rendezvousing on a stats lock. The accounting identity
/// (`tasks_created == tasks_finished` at quiescence)
/// holds because each transition bumps exactly one counter and the
/// final [`snapshot`](AtomicStats::snapshot) happens after all workers
/// join. Each counter has a cache line of its own: the creating task
/// bumps `tasks_created`, `declarations`, `conflicts` and
/// `peak_live_tasks` for every task, the finishing worker
/// `tasks_finished` and `access_checks`, and adjacent counters would
/// bounce one line between the two.
#[derive(Debug, Default)]
pub struct AtomicStats {
    /// See [`RuntimeStats::tasks_created`].
    pub tasks_created: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::tasks_finished`].
    pub tasks_finished: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::declarations`].
    pub declarations: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::access_checks`].
    pub access_checks: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::access_waits`].
    pub access_waits: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::with_conts`].
    pub with_conts: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::with_cont_blocks`].
    pub with_cont_blocks: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::conflicts`].
    pub conflicts: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::peak_live_tasks`] (maintained as a CAS max).
    pub peak_live_tasks: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::peak_task_slots`] (maintained as a CAS max).
    pub peak_task_slots: CachePadded<AtomicU64>,
    /// See [`RuntimeStats::objects_created`].
    pub objects_created: CachePadded<AtomicU64>,
}

use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

impl AtomicStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a new live-task high-water mark candidate.
    pub fn observe_live(&self, live: u64) {
        self.peak_live_tasks.fetch_max(live, Relaxed);
    }

    /// Record a new slab-size high-water mark candidate.
    pub fn observe_slots(&self, slots: u64) {
        self.peak_task_slots.fetch_max(slots, Relaxed);
    }

    /// Materialize a plain [`RuntimeStats`] copy. Call at quiescence
    /// (after workers join) for exact totals; mid-run snapshots are
    /// approximate, which is fine for monitoring.
    pub fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            tasks_created: self.tasks_created.load(Relaxed),
            tasks_inlined: 0,
            tasks_finished: self.tasks_finished.load(Relaxed),
            declarations: self.declarations.load(Relaxed),
            access_checks: self.access_checks.load(Relaxed),
            access_waits: self.access_waits.load(Relaxed),
            with_conts: self.with_conts.load(Relaxed),
            with_cont_blocks: self.with_cont_blocks.load(Relaxed),
            conflicts: self.conflicts.load(Relaxed),
            cont_steals: 0,
            spec_cache_hits: 0,
            grant_cache_hits: 0,
            peak_live_tasks: self.peak_live_tasks.load(Relaxed),
            peak_task_slots: self.peak_task_slots.load(Relaxed),
            objects_created: self.objects_created.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = RuntimeStats { tasks_created: 2, peak_live_tasks: 5, ..Default::default() };
        let b = RuntimeStats { tasks_created: 3, peak_live_tasks: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.tasks_created, 5);
        assert_eq!(a.peak_live_tasks, 5);
    }

    #[test]
    fn atomic_snapshot_round_trips() {
        let a = AtomicStats::new();
        a.tasks_created.fetch_add(4, Relaxed);
        a.tasks_finished.fetch_add(4, Relaxed);
        a.observe_live(7);
        a.observe_live(5);
        let s = a.snapshot();
        assert_eq!(s.tasks_created, 4);
        assert_eq!(s.tasks_finished, s.tasks_created);
        assert_eq!(s.peak_live_tasks, 7, "max, not last");
    }

    #[test]
    fn serve_stats_merge_and_settlement() {
        let mut a = ServeStats {
            submitted: 3,
            completed: 2,
            cancelled: 1,
            peak_queued: 4,
            ..Default::default()
        };
        assert!(a.is_settled());
        let b = ServeStats { submitted: 2, faulted: 1, peak_queued: 2, ..Default::default() };
        assert!(!b.is_settled());
        a.merge(&b);
        assert_eq!(a.submitted, 5);
        assert_eq!(a.peak_queued, 4, "peaks max, not add");
        assert!(!a.is_settled(), "one of b's jobs is still outstanding");
        let s = a.to_string();
        for key in ["submitted", "saturated", "peak queued", "peak running"] {
            assert!(s.contains(key), "missing {key}");
        }
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = RuntimeStats::default().to_string();
        for key in [
            "tasks created",
            "inlined",
            "finished",
            "with-cont",
            "conflicts",
            "cont steals",
            "spec cache",
            "grant cache",
            "objects",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
