//! The interconnect of the platforms the paper evaluates on.
//!
//! One model answers one question for the object manager: *when does
//! a message of `n` bytes sent from machine `s` at time `t` arrive at
//! machine `d`?* — while tracking the occupancy that produces
//! contention. Every platform follows the same rule: the message waits
//! for its queue, holds it for `bytes / bandwidth`, then arrives after
//! the latency. [`NetworkKind`] supplies the parameters:
//!
//! * `Bus` — a fast shared interconnect: the DASH shared-memory
//!   machine (remote cache fills) and the HRV workstation's internal
//!   high-speed network. The fabric carries many transfers at once, so
//!   the queue is the sender's own link.
//! * `Hypercube` — the Intel iPSC/860: a per-sender link, and a latency
//!   that grows by one hop cost per bit in which the node numbers
//!   differ.
//! * `Ethernet` — the Mica array of SPARC ELCs on one shared 10 Mbit
//!   segment: every byte of every message queues for the single
//!   medium, which is what flattens Mica's speedup curve in
//!   Figures 9/10.

use crate::platform::NetworkKind;
use crate::time::{SimSpan, SimTime};

/// Accumulated network statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload + header bytes moved.
    pub bytes: u64,
    /// Total time messages spent queued for a busy medium/link.
    pub contention: SimSpan,
}

/// A platform's interconnect with its occupancy state: one serialising
/// queue per sender, or one for a shared Ethernet segment.
/// Deterministic.
#[derive(Debug)]
pub(crate) struct Network {
    kind: NetworkKind,
    /// When each queue is next free.
    free: Vec<SimTime>,
    stats: NetStats,
}

impl Network {
    /// The interconnect `kind` between `machines` machines, idle.
    pub(crate) fn new(kind: NetworkKind, machines: usize) -> Self {
        let queues = if matches!(kind, NetworkKind::Ethernet { .. }) { 1 } else { machines };
        Network { kind, free: vec![SimTime::ZERO; queues], stats: NetStats::default() }
    }

    /// Schedule a transfer; returns the arrival time at `dst`.
    pub(crate) fn transfer(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> SimTime {
        let (queue, bandwidth, latency) = match self.kind {
            NetworkKind::Bus { latency, bandwidth } => (src, bandwidth, latency),
            NetworkKind::Hypercube { base, hop, bandwidth } => {
                let hops = u64::from((src ^ dst).count_ones()).max(1);
                (src, bandwidth, base + SimSpan(hop.0 * hops))
            }
            NetworkKind::Ethernet { latency, bandwidth } => (0, bandwidth, latency),
        };
        let start = now.max(self.free[queue]);
        self.stats.contention = self.stats.contention + (start - now);
        let done = start + SimSpan::from_bytes(bytes, bandwidth);
        self.free[queue] = done;
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        done + latency
    }

    /// Statistics accumulated so far.
    pub(crate) fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(n: usize, latency: SimSpan, bandwidth: f64) -> Network {
        Network::new(NetworkKind::Bus { latency, bandwidth }, n)
    }

    fn hypercube(n: usize) -> Network {
        let (base, hop) = (SimSpan::from_micros(70), SimSpan::from_micros(10));
        Network::new(NetworkKind::Hypercube { base, hop, bandwidth: 2.8e6 }, n)
    }

    fn ethernet(latency: SimSpan, bandwidth: f64) -> Network {
        Network::new(NetworkKind::Ethernet { latency, bandwidth }, 4)
    }

    #[test]
    fn bus_is_fast_and_parallel_across_senders() {
        let mut net = bus(4, SimSpan::from_micros(1), 100e6);
        let a = net.transfer(SimTime::ZERO, 0, 1, 100_000);
        let b = net.transfer(SimTime::ZERO, 2, 3, 100_000);
        // Different senders do not contend.
        assert_eq!(a, b);
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn bus_serializes_per_sender() {
        let mut net = bus(2, SimSpan::ZERO, 1e6);
        let first = net.transfer(SimTime::ZERO, 0, 1, 1_000_000); // 1s on the wire
        let second = net.transfer(SimTime::ZERO, 0, 1, 1_000_000);
        assert_eq!(first, SimTime(1_000_000_000));
        assert_eq!(second, SimTime(2_000_000_000));
        assert_eq!(net.stats().contention, SimSpan(1_000_000_000));
    }

    #[test]
    fn hypercube_hop_count() {
        // An empty message arrives after the base latency plus one hop
        // per differing address bit, and at least one hop.
        let mut net = hypercube(8);
        assert_eq!(net.transfer(SimTime::ZERO, 0, 7, 0), SimTime(70_000 + 3 * 10_000));
        assert_eq!(net.transfer(SimTime::ZERO, 5, 4, 0), SimTime(70_000 + 10_000));
        assert_eq!(net.transfer(SimTime::ZERO, 3, 3, 0), SimTime(70_000 + 10_000));
    }

    #[test]
    fn hypercube_latency_grows_with_distance() {
        let near = hypercube(8).transfer(SimTime::ZERO, 0, 1, 0);
        let far = hypercube(8).transfer(SimTime::ZERO, 0, 7, 0);
        assert!(far > near);
    }

    #[test]
    fn ethernet_serializes_everything() {
        let mut net = ethernet(SimSpan::from_millis(1), 1.25e6);
        let t1 = net.transfer(SimTime::ZERO, 0, 1, 125_000); // 0.1 s on the wire
        let t2 = net.transfer(SimTime::ZERO, 2, 3, 125_000); // must queue behind it
        assert_eq!(t1, SimTime(101_000_000));
        assert_eq!(t2, SimTime(201_000_000));
        assert!(net.stats().contention > SimSpan::ZERO);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut net = ethernet(SimSpan::from_millis(2), 1.25e6);
            (0..10)
                .map(|i| net.transfer(SimTime(i * 1000), (i % 4) as usize, 3, 5000 * i as usize).0)
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
