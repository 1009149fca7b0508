//! Deterministic fault injection for the simulated platform.
//!
//! A [`FaultPlan`] describes, from a single seed, every fault a run
//! will experience: per-message delay spikes, transient machine
//! crashes at task boundaries, and per-machine slowdown windows.
//! Messages are always delivered, as on the paper's platforms; a spike
//! only makes one arrive late. Because the event loop is deterministic
//! and every random draw comes from one seeded generator consumed in
//! loop order, the same plan produces the same fault sequence — and
//! therefore the same event trace — on every run.
//!
//! The recovery model follows from Jade's semantics: a task's access
//! specification fences all of its effects, and effects commit only
//! when the task finishes, so a task lost to a crash can simply be
//! re-executed elsewhere. Crashes fire at *task boundaries* (the
//! victim has no live task contexts), so there are never uncommitted
//! writes to roll back; the directory reassigns residency to surviving
//! replicas, and values solely resident on the crashed machine remain
//! on its stable store, reachable again when the machine rejoins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimSpan, SimTime};

/// One transient machine crash: `machine` goes down at its next clean
/// task boundary once it has started `after_starts` tasks, and rejoins
/// `down_for` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The machine that crashes.
    pub machine: usize,
    /// Task starts on the machine before the crash arms.
    pub after_starts: u64,
    /// Outage duration before the machine rejoins.
    pub down_for: SimSpan,
}

/// A window during which a machine runs slower (e.g. paging, a co-
/// scheduled job): its CPU speed is divided by `factor` while
/// simulated time is inside `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// The affected machine.
    pub machine: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Speed divisor (≥ 1.0).
    pub factor: f64,
}

/// A seeded, fully deterministic description of the faults a simulated
/// run experiences.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw (delay spikes).
    pub seed: u64,
    /// Probability a message suffers an extra delay spike.
    pub delay_spike_prob: f64,
    /// The extra delay added to spiked messages.
    pub delay_spike: SimSpan,
    /// Executions attempted per task before recovery degrades it to
    /// the first surviving machine (serial fallback).
    pub max_task_attempts: u32,
    /// Transient machine crashes.
    pub crashes: Vec<CrashSpec>,
    /// Per-machine slowdown windows.
    pub slowdowns: Vec<SlowdownWindow>,
}

impl FaultPlan {
    /// A plan with no faults, from which builder methods add them.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_spike_prob: 0.0,
            delay_spike: SimSpan::ZERO,
            max_task_attempts: 3,
            crashes: Vec::new(),
            slowdowns: Vec::new(),
        }
    }

    /// Add delay spikes: with probability `p` a message arrives
    /// `extra` late.
    pub fn delay_spikes(mut self, p: f64, extra: SimSpan) -> Self {
        self.delay_spike_prob = p.clamp(0.0, 1.0);
        self.delay_spike = extra;
        self
    }

    /// Add a transient crash of `machine` after it has started
    /// `after_starts` tasks, lasting `down_for`.
    pub fn crash(mut self, machine: usize, after_starts: u64, down_for: SimSpan) -> Self {
        self.crashes.push(CrashSpec { machine, after_starts, down_for });
        self
    }

    /// Add a slowdown window on `machine`.
    pub fn slowdown(mut self, machine: usize, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.slowdowns.push(SlowdownWindow { machine, from, until, factor: factor.max(1.0) });
        self
    }

    /// Override the re-execution budget per task.
    pub fn max_task_attempts(mut self, n: u32) -> Self {
        self.max_task_attempts = n.max(1);
        self
    }
}

/// Fault and recovery counters a faulted run reports.
///
/// This is the *uniform* fault vocabulary from `jade-core`, shared
/// with the real multi-process backend so both report recovery the
/// same way ([`jade_core::runtime::Report::faults`]). In the sim:
/// `crashes` counts transient machine crashes that fired, `recoveries`
/// counts forced task re-executions (a task reassigned twice counts
/// twice), and `degraded` counts tasks that exhausted their budget and
/// were pinned to the first surviving machine.
pub use jade_core::stats::FaultStats;

/// Live injection state for one run: the seeded generator plus which
/// crashes have fired.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    fired: Vec<bool>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        let fired = vec![false; plan.crashes.len()];
        FaultInjector { plan, rng, fired }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Extra latency this delivery suffers, if it spikes. Probability
    /// zero consumes no randomness.
    pub(crate) fn roll_spike(&mut self) -> Option<SimSpan> {
        if self.plan.delay_spike_prob > 0.0 && self.rng.gen_bool(self.plan.delay_spike_prob) {
            Some(self.plan.delay_spike)
        } else {
            None
        }
    }

    /// Index of an armed, unfired crash for `machine` given its start
    /// count, if any.
    pub(crate) fn armed_crash(&self, machine: usize, starts: u64) -> Option<usize> {
        self.plan
            .crashes
            .iter()
            .enumerate()
            .find(|(i, c)| !self.fired[*i] && c.machine == machine && starts >= c.after_starts)
            .map(|(i, _)| i)
    }

    /// Commit crash `idx` as fired; returns its outage duration.
    pub(crate) fn fire_crash(&mut self, idx: usize) -> SimSpan {
        self.fired[idx] = true;
        self.plan.crashes[idx].down_for
    }

    /// The CPU speed divisor for `machine` at `now` (1.0 when no
    /// window applies; overlapping windows compound).
    pub(crate) fn slowdown(&self, machine: usize, now: SimTime) -> f64 {
        self.plan
            .slowdowns
            .iter()
            .filter(|w| w.machine == machine && w.from <= now && now < w.until)
            .map(|w| w.factor)
            .product::<f64>()
            .max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates() {
        let p = FaultPlan::new(7)
            .delay_spikes(0.05, SimSpan::from_millis(3))
            .crash(1, 2, SimSpan::from_millis(50))
            .slowdown(0, SimTime(0), SimTime(1000), 2.0);
        assert_eq!(p.seed, 7);
        assert_eq!(p.crashes.len(), 1);
        assert_eq!(p.slowdowns.len(), 1);
        assert_eq!(p.delay_spike, SimSpan::from_millis(3));
    }

    #[test]
    fn crash_arms_at_threshold_and_fires_once() {
        let mut inj = FaultInjector::new(FaultPlan::new(0).crash(2, 3, SimSpan::from_millis(10)));
        assert!(inj.armed_crash(2, 2).is_none());
        assert!(inj.armed_crash(1, 99).is_none());
        let idx = inj.armed_crash(2, 3).expect("armed");
        assert_eq!(inj.fire_crash(idx), SimSpan::from_millis(10));
        assert!(inj.armed_crash(2, 99).is_none(), "a crash fires once");
    }

    #[test]
    fn slowdown_windows_apply_in_range_only() {
        let inj =
            FaultInjector::new(FaultPlan::new(0).slowdown(1, SimTime(100), SimTime(200), 3.0));
        assert_eq!(inj.slowdown(1, SimTime(50)), 1.0);
        assert_eq!(inj.slowdown(1, SimTime(150)), 3.0);
        assert_eq!(inj.slowdown(1, SimTime(200)), 1.0);
        assert_eq!(inj.slowdown(0, SimTime(150)), 1.0);
    }
}
