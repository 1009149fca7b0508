//! Scheduling policy helpers: placement eligibility and heterogeneous
//! load balancing. The locality heuristic scores a machine by the bytes
//! of a task's declared objects valid there
//! ([`crate::objmgr::ObjDirectory::resident_bytes`]).
//!
//! The paper's §5: the implementation "keeps track of which processors
//! may be idle and dynamically assigns executable tasks to processors
//! which may become idle" (load balancing — especially important when
//! machines have different speeds) and "uses a heuristic that attempts
//! to execute tasks on the same processor if they access some of the
//! same objects" (locality).

use jade_core::ids::{DeviceClass, Placement};
// The load/affinity/speed policy itself now lives in `jade-core` so
// the real distributed backend dispatches through the identical code
// path the simulator validates at scale.
pub use jade_core::place::{choose, Candidate};

use crate::machine::MachineSpec;

/// Whether a machine satisfies a task's placement request (§4.5).
pub fn eligible(spec: &MachineSpec, machine_index: usize, placement: Placement) -> bool {
    match placement {
        Placement::Any => true,
        Placement::Machine(m) => m.0 as usize == machine_index,
        Placement::Device(d) => {
            if d == DeviceClass::Cpu {
                true
            } else {
                spec.has_device(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::ids::MachineId;
    use jade_transport::DataLayout;

    fn cand(machine: usize, load: usize, speed: f64, affinity: u64) -> Candidate {
        Candidate { machine, load, speed, affinity }
    }

    #[test]
    fn placement_eligibility() {
        let cpu = MachineSpec::cpu("a", 1.0, DataLayout::x86_64());
        let accel =
            MachineSpec::cpu("b", 1.0, DataLayout::i860()).with_device(DeviceClass::Accelerator);
        assert!(eligible(&cpu, 0, Placement::Any));
        assert!(eligible(&cpu, 3, Placement::Machine(MachineId(3))));
        assert!(!eligible(&cpu, 2, Placement::Machine(MachineId(3))));
        assert!(!eligible(&cpu, 0, Placement::Device(DeviceClass::Accelerator)));
        assert!(eligible(&accel, 0, Placement::Device(DeviceClass::Accelerator)));
    }

    #[test]
    fn load_dominates_affinity() {
        // An idle machine wins even against strong affinity elsewhere:
        // the paper's load balancer feeds idle processors first.
        let got = choose(&[cand(0, 0, 2.0, 0), cand(1, 3, 1.0, 4096)]);
        assert_eq!(got, Some(0));
    }

    #[test]
    fn affinity_breaks_load_ties() {
        let got = choose(&[cand(0, 1, 1.0, 0), cand(1, 1, 1.0, 4096)]);
        assert_eq!(got, Some(1));
    }

    #[test]
    fn load_then_speed_then_index() {
        assert_eq!(choose(&[cand(0, 1, 1.0, 0), cand(1, 0, 1.0, 0)]), Some(1));
        assert_eq!(choose(&[cand(0, 0, 1.0, 0), cand(1, 0, 2.0, 0)]), Some(1));
        assert_eq!(choose(&[cand(0, 0, 1.0, 0), cand(1, 0, 1.0, 0)]), Some(0));
        assert_eq!(choose(&[]), None);
    }
}
