//! Network models for the platforms the paper evaluates on.
//!
//! Each model answers one question for the object manager: *when does
//! a message of `n` bytes sent from machine `s` at time `t` arrive at
//! machine `d`?* — while tracking the occupancy state that produces
//! contention:
//!
//! * [`BusNetwork`] — a fast shared bus / interconnect: the DASH
//!   shared-memory machine (remote cache fills) and the HRV
//!   workstation's internal high-speed network. Low latency, high
//!   bandwidth, generous parallelism.
//! * [`HypercubeNetwork`] — the Intel iPSC/860: per-hop latency over a
//!   hypercube topology with per-node serialized send DMA.
//! * [`EthernetNetwork`] — the Mica array of SPARC ELCs on one shared
//!   10 Mbit Ethernet: every byte of every message competes for a
//!   single medium, which is what flattens Mica's speedup curve in
//!   Figures 9/10.

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

/// A point-to-point message-delivery model with internal occupancy
/// state. Implementations must be deterministic.
pub trait NetworkModel: Send {
    /// Schedule a transfer; returns the arrival time at `dst`.
    fn transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: usize) -> SimTime;

    /// Statistics accumulated so far.
    fn stats(&self) -> NetStats;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Shared high-bandwidth interconnect (DASH remote fills, HRV
/// internal network). Messages pay latency plus size/bandwidth;
/// the fabric supports many concurrent transfers, so only per-node
/// send serialization is modelled.
#[derive(Debug)]
pub struct BusNetwork {
    latency: SimSpan,
    bandwidth: f64,
    tx_free: Vec<SimTime>,
    stats: NetStats,
}

impl BusNetwork {
    /// Create a bus with the given per-message latency and per-link
    /// bandwidth (bytes/second) for `n` machines.
    pub fn new(n: usize, latency: SimSpan, bandwidth: f64) -> Self {
        BusNetwork { latency, bandwidth, tx_free: vec![SimTime::ZERO; n], stats: NetStats::default() }
    }
}

impl NetworkModel for BusNetwork {
    fn transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: usize) -> SimTime {
        let _ = dst;
        let start = now.max(self.tx_free[src]);
        self.stats.contention = self.stats.contention + (start - now);
        let xfer = SimSpan::from_bytes(bytes, self.bandwidth);
        let sender_done = start + xfer;
        self.tx_free[src] = sender_done;
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        sender_done + self.latency
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "bus"
    }
}

/// Hypercube message passing (iPSC/860): latency = base + hops × hop
/// cost, with hops the Hamming distance between node numbers; each
/// node's send DMA is serialized.
#[derive(Debug)]
pub struct HypercubeNetwork {
    base_latency: SimSpan,
    hop_latency: SimSpan,
    bandwidth: f64,
    tx_free: Vec<SimTime>,
    stats: NetStats,
}

impl HypercubeNetwork {
    /// Create a hypercube for `n` nodes (rounded up to a power of two
    /// for hop computation).
    pub fn new(n: usize, base_latency: SimSpan, hop_latency: SimSpan, bandwidth: f64) -> Self {
        HypercubeNetwork {
            base_latency,
            hop_latency,
            bandwidth,
            tx_free: vec![SimTime::ZERO; n],
            stats: NetStats::default(),
        }
    }

    fn hops(src: usize, dst: usize) -> u64 {
        ((src ^ dst) as u64).count_ones() as u64
    }
}

impl NetworkModel for HypercubeNetwork {
    fn transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: usize) -> SimTime {
        let start = now.max(self.tx_free[src]);
        self.stats.contention = self.stats.contention + (start - now);
        let xfer = SimSpan::from_bytes(bytes, self.bandwidth);
        let sender_done = start + xfer;
        self.tx_free[src] = sender_done;
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        let hops = Self::hops(src, dst).max(1);
        sender_done + self.base_latency + SimSpan(self.hop_latency.0 * hops)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "hypercube"
    }
}

/// A single shared Ethernet segment: all messages serialize through
/// one medium. High per-message latency (protocol stack) plus shared
/// bandwidth — the defining bottleneck of the Mica platform.
#[derive(Debug)]
pub struct EthernetNetwork {
    latency: SimSpan,
    bandwidth: f64,
    medium_free: SimTime,
    stats: NetStats,
}

impl EthernetNetwork {
    /// Create a shared segment with per-message latency and total
    /// medium bandwidth (bytes/second).
    pub fn new(latency: SimSpan, bandwidth: f64) -> Self {
        EthernetNetwork { latency, bandwidth, medium_free: SimTime::ZERO, stats: NetStats::default() }
    }
}

impl NetworkModel for EthernetNetwork {
    fn transfer(&mut self, now: SimTime, _src: usize, _dst: usize, bytes: usize) -> SimTime {
        let start = now.max(self.medium_free);
        self.stats.contention = self.stats.contention + (start - now);
        let xfer = SimSpan::from_bytes(bytes, self.bandwidth);
        let medium_done = start + xfer;
        self.medium_free = medium_done;
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        medium_done + self.latency
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "ethernet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_is_fast_and_parallel_across_senders() {
        let mut net = BusNetwork::new(4, SimSpan::from_micros(1), 100e6);
        let a = net.transfer(SimTime::ZERO, 0, 1, 100_000);
        let b = net.transfer(SimTime::ZERO, 2, 3, 100_000);
        // Different senders do not contend.
        assert_eq!(a, b);
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn bus_serializes_per_sender() {
        let mut net = BusNetwork::new(2, SimSpan::ZERO, 1e6);
        let first = net.transfer(SimTime::ZERO, 0, 1, 1_000_000); // 1s on the wire
        let second = net.transfer(SimTime::ZERO, 0, 1, 1_000_000);
        assert_eq!(first, SimTime(1_000_000_000));
        assert_eq!(second, SimTime(2_000_000_000));
        assert_eq!(net.stats().contention, SimSpan(1_000_000_000));
    }

    #[test]
    fn hypercube_hop_count() {
        assert_eq!(HypercubeNetwork::hops(0, 7), 3);
        assert_eq!(HypercubeNetwork::hops(5, 4), 1);
        assert_eq!(HypercubeNetwork::hops(3, 3), 0);
    }

    #[test]
    fn hypercube_latency_grows_with_distance() {
        let mut net =
            HypercubeNetwork::new(8, SimSpan::from_micros(70), SimSpan::from_micros(10), 2.8e6);
        let near = net.transfer(SimTime::ZERO, 0, 1, 0);
        let mut net2 =
            HypercubeNetwork::new(8, SimSpan::from_micros(70), SimSpan::from_micros(10), 2.8e6);
        let far = net2.transfer(SimTime::ZERO, 0, 7, 0);
        assert!(far > near);
    }

    #[test]
    fn ethernet_serializes_everything() {
        let mut net = EthernetNetwork::new(SimSpan::from_millis(1), 1.25e6);
        let t1 = net.transfer(SimTime::ZERO, 0, 1, 125_000); // 0.1 s on the wire
        let t2 = net.transfer(SimTime::ZERO, 2, 3, 125_000); // must queue behind it
        assert_eq!(t1, SimTime(101_000_000));
        assert_eq!(t2, SimTime(201_000_000));
        assert!(net.stats().contention > SimSpan::ZERO);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut net = EthernetNetwork::new(SimSpan::from_millis(2), 1.25e6);
            (0..10)
                .map(|i| net.transfer(SimTime(i * 1000), (i % 4) as usize, 3, 5000 * i as usize).0)
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
