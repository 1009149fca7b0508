//! Platform presets: the machines the paper measured on.
//!
//! The absolute constants are order-of-magnitude calibrations of the
//! 1992 hardware; the reproduction targets the *shape* of Figures 9
//! and 10 (DASH scales best, the iPSC/860 close behind, Mica's shared
//! Ethernet saturates early), not the absolute seconds.

use jade_core::ids::DeviceClass;
use jade_transport::DataLayout;

use crate::machine::MachineSpec;
use crate::time::SimSpan;

/// Which interconnect a platform uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkKind {
    /// Shared fast interconnect: `latency`, per-link bytes/second.
    Bus {
        /// Per-message latency.
        latency: SimSpan,
        /// Per-link bandwidth (bytes/second).
        bandwidth: f64,
    },
    /// Hypercube: base latency, per-hop latency, per-link bandwidth.
    Hypercube {
        /// Fixed protocol latency per message.
        base: SimSpan,
        /// Additional latency per hop.
        hop: SimSpan,
        /// Per-link bandwidth (bytes/second).
        bandwidth: f64,
    },
    /// Single shared segment: latency, total medium bytes/second.
    Ethernet {
        /// Per-message latency (protocol stack).
        latency: SimSpan,
        /// Shared medium bandwidth (bytes/second).
        bandwidth: f64,
    },
}

/// A complete platform: machines plus interconnect.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Short name used in reports ("dash", "ipsc860", "mica", ...).
    pub name: String,
    /// The machines, indexed by `MachineId`.
    pub machines: Vec<MachineSpec>,
    /// Interconnect model parameters.
    pub network: NetworkKind,
    /// Fixed runtime overhead charged on the creating machine per
    /// `withonly` (task-descriptor construction + queue insertion).
    pub task_create_overhead: SimSpan,
    /// Overhead charged on a machine when it starts a shipped task
    /// (descriptor unpack, global→local translation setup).
    pub task_dispatch_overhead: SimSpan,
    /// Per-byte CPU cost of data-format conversion on receive, applied
    /// only when sender and receiver layouts differ.
    pub convert_cost_per_byte: SimSpan,
}

impl Platform {
    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the platform has no machines (never true for presets).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The Stanford DASH: homogeneous MIPS nodes on a fast
    /// shared-memory interconnect. Transfers model remote cache/
    /// memory fills: microsecond latency, tens of MB/s.
    pub fn dash(n: usize) -> Platform {
        Platform {
            name: "dash".to_string(),
            machines: (0..n)
                .map(|i| MachineSpec::cpu(format!("dash-{i}"), 25e6, DataLayout::mips_be()))
                .collect(),
            network: NetworkKind::Bus { latency: SimSpan::from_micros(3), bandwidth: 60e6 },
            task_create_overhead: SimSpan::from_micros(30),
            task_dispatch_overhead: SimSpan::from_micros(20),
            convert_cost_per_byte: SimSpan(0),
        }
    }

    /// The Intel iPSC/860: i860 nodes (fast floating point) on a
    /// hypercube with ~70 µs message latency and ~2.8 MB/s links.
    pub fn ipsc860(n: usize) -> Platform {
        Platform {
            name: "ipsc860".to_string(),
            machines: (0..n)
                .map(|i| MachineSpec::cpu(format!("i860-{i}"), 40e6, DataLayout::i860()))
                .collect(),
            network: NetworkKind::Hypercube {
                base: SimSpan::from_micros(70),
                hop: SimSpan::from_micros(11),
                bandwidth: 2.8e6,
            },
            task_create_overhead: SimSpan::from_micros(60),
            task_dispatch_overhead: SimSpan::from_micros(120),
            convert_cost_per_byte: SimSpan(0),
        }
    }

    /// Mica: SPARC ELC workstations on one shared 10 Mbit Ethernet
    /// running PVM — multi-millisecond protocol latency, ~1 MB/s of
    /// usable shared bandwidth.
    pub fn mica(n: usize) -> Platform {
        Platform {
            name: "mica".to_string(),
            machines: (0..n)
                .map(|i| MachineSpec::cpu(format!("elc-{i}"), 18e6, DataLayout::sparc()))
                .collect(),
            network: NetworkKind::Ethernet { latency: SimSpan::from_millis(4), bandwidth: 1.0e6 },
            task_create_overhead: SimSpan::from_micros(120),
            task_dispatch_overhead: SimSpan::from_micros(800),
            convert_cost_per_byte: SimSpan(0),
        }
    }

    /// A heterogeneous network of workstations (§7): big-endian SPARC
    /// Suns and little-endian MIPS DECstations on one Ethernet, so
    /// every cross-architecture transfer exercises format conversion.
    pub fn workstations(n: usize) -> Platform {
        Platform {
            name: "hetnet".to_string(),
            machines: (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        MachineSpec::cpu(format!("sun-{i}"), 20e6, DataLayout::sparc())
                    } else {
                        MachineSpec::cpu(format!("dec-{i}"), 22e6, DataLayout::mips_le())
                    }
                })
                .collect(),
            network: NetworkKind::Ethernet { latency: SimSpan::from_millis(2), bandwidth: 1.1e6 },
            task_create_overhead: SimSpan::from_micros(80),
            task_dispatch_overhead: SimSpan::from_micros(400),
            convert_cost_per_byte: SimSpan(30), // ~33 MB/s byte-swap
        }
    }

    /// The Sun HRV workstation (§7.2): one SPARC host with the video
    /// digitizer, plus `accels` i860 boards that transform and display
    /// frames, on the internal high-speed network.
    pub fn hrv(accels: usize) -> Platform {
        let mut machines = vec![MachineSpec::cpu("sparc-host", 20e6, DataLayout::sparc())
            .with_device(DeviceClass::FrameSource)];
        for i in 0..accels.max(1) {
            machines.push(
                MachineSpec::cpu(format!("i860-{i}"), 50e6, DataLayout::i860())
                    .with_device(DeviceClass::Accelerator)
                    .with_device(DeviceClass::Display),
            );
        }
        Platform {
            name: "hrv".to_string(),
            machines,
            network: NetworkKind::Bus { latency: SimSpan::from_micros(15), bandwidth: 40e6 },
            task_create_overhead: SimSpan::from_micros(40),
            task_dispatch_overhead: SimSpan::from_micros(50),
            convert_cost_per_byte: SimSpan(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        assert_eq!(Platform::dash(8).len(), 8);
        assert_eq!(Platform::ipsc860(16).len(), 16);
        assert_eq!(Platform::mica(4).len(), 4);
        let hrv = Platform::hrv(3);
        assert_eq!(hrv.len(), 4);
        assert!(hrv.machines[0].has_device(DeviceClass::FrameSource));
        assert!(hrv.machines[1].has_device(DeviceClass::Accelerator));
    }

    #[test]
    fn heterogeneous_platforms_mix_layouts() {
        let p = Platform::workstations(4);
        assert!(p.machines[0].layout.conversion_required(&p.machines[1].layout));
    }

    #[test]
    fn network_presets_match_kind() {
        assert!(matches!(Platform::dash(2).network, NetworkKind::Bus { .. }));
        assert!(matches!(Platform::ipsc860(2).network, NetworkKind::Hypercube { .. }));
        assert!(matches!(Platform::mica(2).network, NetworkKind::Ethernet { .. }));
        assert!(matches!(Platform::workstations(2).network, NetworkKind::Ethernet { .. }));
        assert!(matches!(Platform::hrv(1).network, NetworkKind::Bus { .. }));
    }
}
