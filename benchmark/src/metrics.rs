//! The metric catalogue: every name the benchmark prints, with unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists
//! the same names; a test keeps the two files equal.

use crate::stats::Better::{self, Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one.
///
/// A *job* is one `Runtime::execute` call on the batch workloads and
/// one submit-to-wait on `serve-pmake`, so on a batch workload
/// `job_p50_ms` is `wall_s` in milliseconds; `job_tail_ms` is the
/// highest percentile with ten samples beyond it (p99 on
/// `serve-pmake`, the median where a run holds under twenty jobs).
///
/// All bounds sit at the contract's ceiling: `cholesky-threads` spreads
/// by 6–9 % from run to run, and a bound wants three times that
/// (README.md, "Bounds and the evidence for them").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "tasks_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "job_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "job_tail_ms", unit: "ms", better: Lower, bound: 0.25 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics, named `crate.module.metric`. A traced run
/// prints all of them; a layer that is not on a workload's path reads
/// 0 there (README.md has the table of which workload fills which).
pub const PER_LAYER: [PerLayer; 95] = [
    // Specification building (creator side).
    layer("core.spec.build_1obj_ns", "ns", Lower),
    layer("core.spec.build_2obj_ns", "ns", Lower),
    layer("core.spec.build_9obj_ns", "ns", Lower),
    // ShardedEngine: replay of the workload's own declaration stream.
    layer("core.engine.alloc_ns", "ns", Lower),
    layer("core.engine.attach_ns", "ns", Lower),
    layer("core.engine.attach_p99_ns", "ns", Lower),
    layer("core.engine.start_ns", "ns", Lower),
    layer("core.engine.finish_ns", "ns", Lower),
    layer("core.engine.finish_p99_ns", "ns", Lower),
    layer("core.engine.lifecycle_ns", "ns", Lower),
    // Exact counts from the untraced run's Report.stats.
    layer("core.engine.declarations", "count", Lower),
    layer("core.engine.conflicts", "count", Lower),
    layer("core.engine.access_checks", "count", Lower),
    layer("core.engine.access_wait_ratio", "ratio", Lower),
    layer("core.engine.spec_cache_hit_ratio", "ratio", Higher),
    layer("core.engine.grant_cache_hit_ratio", "ratio", Higher),
    layer("core.engine.peak_live_tasks", "count", Lower),
    layer("core.engine.peak_task_slots", "count", Lower),
    // DepGraph (serial and simulator engine) and the serial elision.
    layer("core.graph.create_ns", "ns", Lower),
    layer("core.graph.start_ns", "ns", Lower),
    layer("core.graph.finish_ns", "ns", Lower),
    layer("core.serial.us_per_task", "us", Lower),
    // Guards and task bodies.
    layer("core.ctx.guard_ns", "ns", Lower),
    layer("core.ir.run_ns", "ns", Lower),
    layer("apps.cholesky.body_ns", "ns", Lower),
    // Session layer.
    layer("core.serve.submit_us", "us", Lower),
    layer("core.serve.queue_wait_us", "us", Lower),
    layer("core.serve.queue_wait_p99_us", "us", Lower),
    layer("core.serve.run_us", "us", Lower),
    layer("core.serve.run_p99_us", "us", Lower),
    layer("core.serve.handoff_us", "us", Lower),
    layer("core.serve.jobs_per_s", "1/s", Higher),
    layer("core.serve.rejected_saturated", "count", Lower),
    layer("core.serve.peak_queued", "count", Lower),
    layer("core.serve.peak_running", "count", Higher),
    // Observability budget.
    layer("core.observe.profiled_overhead_x", "x", Lower),
    layer("core.observe.critical_path_ms", "ms", Lower),
    // Thread-pool executor, per run.
    layer("threads.executor.spinup_us", "us", Lower),
    layer("threads.executor.teardown_us", "us", Lower),
    layer("threads.executor.execute_empty_us", "us", Lower),
    // Thread-pool executor, per task (spans of the traced run).
    layer("threads.executor.withonly_ns", "ns", Lower),
    layer("threads.executor.withonly_p99_ns", "ns", Lower),
    layer("threads.executor.create_to_start_ns", "ns", Lower),
    layer("threads.executor.create_to_start_p99_ns", "ns", Lower),
    layer("threads.executor.body_ns", "ns", Lower),
    layer("threads.executor.body_p99_ns", "ns", Lower),
    layer("threads.executor.join_wait_us", "us", Lower),
    // Work and span of a profiled run.
    layer("threads.executor.body_busy_s", "s", Lower),
    layer("threads.executor.critical_path_s", "s", Lower),
    layer("threads.executor.parallelism_x", "x", Higher),
    layer("threads.executor.overhead_share", "ratio", Lower),
    layer("threads.executor.cont_steal_ratio", "ratio", Higher),
    layer("threads.executor.tasks_inlined", "count", Lower),
    // Ready queue and the scoped-threads yardstick.
    layer("threads.steal.push_pop_ns", "ns", Lower),
    layer("threads.steal.steal_ns", "ns", Lower),
    layer("threads.steal.push_batch_ns_per_task", "ns", Lower),
    layer("baseline.scoped_tasks_per_s", "1/s", Higher),
    layer("threads.gap_vs_scoped_x", "x", Lower),
    // Wire format.
    layer("transport.encode_ns_per_kb", "ns/KB", Lower),
    layer("transport.decode_ns_per_kb", "ns/KB", Lower),
    layer("transport.convert_ns_per_kb", "ns/KB", Lower),
    layer("transport.frame_ns", "ns", Lower),
    // Socket backend.
    layer("net.cluster_start_ms", "ms", Lower),
    layer("net.cluster_shutdown_ms", "ms", Lower),
    layer("net.task_rtt_us", "us", Lower),
    layer("net.messages_per_task", "count", Lower),
    layer("net.wire_bytes_per_task", "B", Lower),
    layer("net.payload_bytes_per_task", "B", Lower),
    layer("net.replica_hit_ratio", "ratio", Higher),
    layer("net.retransmit_ratio", "ratio", Lower),
    layer("net.tasks_shipped_ratio", "ratio", Higher),
    layer("net.degraded", "count", Lower),
    // Simulator.
    layer("sim.time_s", "s", Lower),
    layer("sim.host_us_per_task", "us", Lower),
    layer("sim.messages", "count", Lower),
    layer("sim.bytes", "B", Lower),
    layer("sim.objmgr.moves", "count", Lower),
    layer("sim.objmgr.copies", "count", Lower),
    layer("sim.objmgr.invalidations", "count", Lower),
    layer("sim.utilization", "ratio", Higher),
    // Plain-serial programs: the denominators of speed-up.
    layer("apps.cholesky.plain_serial_s", "s", Lower),
    layer("apps.lws.plain_serial_s", "s", Lower),
    layer("apps.lws.forces_ms", "ms", Lower),
    layer("apps.pmake.plain_serial_us", "us", Lower),
    layer("apps.speedup_x", "x", Higher),
    // The benchmark's own cost.
    layer("bench.untraced_wall_s", "s", Lower),
    layer("bench.traced_wall_s", "s", Lower),
    layer("bench.trace_overhead_x", "x", Lower),
    layer("bench.span_coverage", "ratio", Higher),
    layer("bench.spans_recorded", "count", Lower),
    layer("bench.peak_rss_mb", "MB", Lower),
    layer("bench.timer_ns", "ns", Lower),
    layer("bench.tasks", "count", Lower),
    layer("bench.ops_attempted", "count", Higher),
    layer("bench.ops_failed", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert_eq!(setup.bound, END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max));
    }
}
