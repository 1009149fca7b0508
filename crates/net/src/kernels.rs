//! Compatibility shim over the shared kernel registry.
//!
//! The registry of named pure functions moved to
//! [`jade_core::kernels`] when the declarative task-body IR landed:
//! kernels are now the instruction set of portable task bodies
//! ([`jade_core::ir::TaskBodyIr`]) executed by *every* backend, not a
//! net-only feature. This module keeps the old free-function surface
//! for callers that only want the builtin set; clusters and workers
//! carry a [`KernelRegistry`](jade_core::kernels::KernelRegistry)
//! value instead (see [`crate::cluster::NetConfig::registry`] and
//! [`crate::worker::WorkerOpts::registry`]), so two jobs in one
//! process can serve different kernel sets.
//!
//! Kernels must be deterministic: worker-loss recovery re-executes an
//! in-flight task on a survivor, and the result must not depend on
//! which machine finished it.

pub use jade_core::kernels::KernelFn;

/// Look up a kernel in the *builtin* registry by name.
pub fn lookup(name: &str) -> Option<KernelFn> {
    jade_core::kernels::KernelRegistry::builtin().lookup(name)
}

/// Names of every builtin kernel (unordered).
pub fn names() -> Vec<&'static str> {
    jade_core::kernels::KernelRegistry::builtin().names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_kernel_resolves() {
        for n in names() {
            assert!(lookup(n).is_some(), "{n}");
        }
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn kernels_compute() {
        assert_eq!(lookup("sum").unwrap()(&[1.0, 2.0, 3.5]), vec![6.5]);
        assert_eq!(lookup("dot").unwrap()(&[1.0, 2.0, 3.0, 4.0]), vec![11.0]);
        assert_eq!(lookup("scale2").unwrap()(&[1.5, -2.0]), vec![3.0, -4.0]);
        assert_eq!(lookup("sq_norm").unwrap()(&[3.0, 4.0]), vec![25.0]);
        let col = lookup("cholesky_col").unwrap()(&[4.0, 2.0, 6.0]);
        assert_eq!(col, vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn kernels_are_deterministic_under_reexecution() {
        // Recovery re-runs a kernel on a different machine; same input
        // must give bit-identical output.
        for n in names() {
            let k = lookup(n).unwrap();
            let args: Vec<f64> = (0..16).map(|i| (i as f64) * 0.37 - 2.0).collect();
            assert_eq!(k(&args), k(&args), "{n}");
        }
    }
}
