//! Simulation results: what a run reports back.

use jade_core::stats::RuntimeStats;

use crate::faults::FaultStats;
use crate::network::NetStats;
use crate::time::{SimSpan, SimTime};

/// Object-manager traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObjTraffic {
    /// Authoritative versions moved (write fetches).
    pub moves: u64,
    /// Read replicas created.
    pub copies: u64,
    /// Ownership transfers satisfied without data (a valid replica was
    /// already resident at the new writer).
    pub upgrades: u64,
    /// Replicas invalidated by writes.
    pub invalidations: u64,
    /// Transfers that crossed data formats (byte order / padding).
    pub conversions: u64,
}

/// Everything a simulated execution reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Platform name ("dash", "ipsc860", "mica", ...).
    pub platform: String,
    /// Machine count.
    pub machines: usize,
    /// Simulated completion time (all tasks finished).
    pub time: SimTime,
    /// Dependency-engine counters.
    pub stats: RuntimeStats,
    /// Network counters.
    pub net: NetStats,
    /// Object-manager counters.
    pub traffic: ObjTraffic,
    /// Fault-injection and recovery counters (all zero without a
    /// fault plan).
    pub faults: FaultStats,
    /// Per-machine compute-busy time.
    pub busy: Vec<SimSpan>,
    /// Host cost, not simulated: OS threads the run created (about one
    /// per body that was ever begun and unfinished at the same time).
    pub host_threads: u64,
    /// Host cost, not simulated: one-way OS-thread switches the run
    /// made — one per hand-off of the event loop to another context's
    /// thread, two per body stepped from inside a handler. Both counts
    /// repeat exactly: the choice of thread is deterministic.
    pub host_switches: u64,
    /// Host cost, not simulated: ready-pool entries whose candidate
    /// machines a placement scan computed (an entry met while no
    /// machine has room costs only an eligibility probe and is not
    /// counted). Repeats exactly; on a homogeneous, fault-free platform
    /// it equals the number of dispatches.
    pub placement_probes: u64,
}

impl SimReport {
    /// Mean machine utilization over the run: busy time / (machines ×
    /// completion time).
    pub fn utilization(&self) -> f64 {
        if self.time == SimTime::ZERO || self.machines == 0 {
            return 0.0;
        }
        let busy: f64 = self.busy.iter().map(|b| b.as_secs_f64()).sum();
        busy / (self.machines as f64 * self.time.as_secs_f64())
    }

    /// Speedup relative to a baseline (typically the 1-machine run of
    /// the same workload): `base_time / this_time`.
    pub fn speedup_vs(&self, base: &SimReport) -> f64 {
        base.time.as_secs_f64() / self.time.as_secs_f64()
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} x{}: {} (util {:.0}%)",
            self.platform,
            self.machines,
            self.time,
            self.utilization() * 100.0
        )?;
        writeln!(
            f,
            "  net: {} msgs, {} bytes, contention {:.3}s",
            self.net.messages,
            self.net.bytes,
            self.net.contention.as_secs_f64()
        )?;
        write!(
            f,
            "  objects: {} moves, {} copies, {} upgrades, {} invalidations, {} conversions",
            self.traffic.moves,
            self.traffic.copies,
            self.traffic.upgrades,
            self.traffic.invalidations,
            self.traffic.conversions
        )?;
        write!(
            f,
            "\n  host: {} threads, {} switches, {} placement probes",
            self.host_threads, self.host_switches, self.placement_probes
        )?;
        if self.faults.crashes > 0 {
            write!(
                f,
                "\n  faults: {} crashes, {} recoveries, {} degraded",
                self.faults.crashes, self.faults.recoveries, self.faults.degraded
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(machines: usize, secs: f64, busy_each: f64) -> SimReport {
        SimReport {
            platform: "test".into(),
            machines,
            time: SimTime((secs * 1e9) as u64),
            stats: RuntimeStats::default(),
            net: NetStats::default(),
            traffic: ObjTraffic::default(),
            faults: FaultStats::default(),
            busy: vec![SimSpan((busy_each * 1e9) as u64); machines],
            host_threads: 1,
            host_switches: 0,
            placement_probes: 0,
        }
    }

    #[test]
    fn utilization_and_speedup() {
        let base = report(1, 10.0, 10.0);
        let par = report(4, 3.0, 2.5);
        assert!((base.utilization() - 1.0).abs() < 1e-9);
        assert!((par.utilization() - 2.5 / 3.0).abs() < 1e-9);
        assert!((par.speedup_vs(&base) - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_compiles_counters() {
        let s = report(2, 1.0, 0.5).to_string();
        assert!(s.contains("util"));
        assert!(s.contains("moves"));
        assert!(s.contains("placement probes"));
    }
}
