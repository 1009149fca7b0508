//! The `jade-net` worker binary: one worker machine in the
//! distributed backend.
//!
//! Spawned by the coordinator ([`jade_net::Cluster`]) with one
//! environment variable, `JADE_NET_ADDR`, naming where to dial back.
//! It connects, says `Hello`, takes its whole configuration (pool slot,
//! data layout, link tuning, chaos thresholds) from the coordinator's
//! `Welcome`, and executes shipped task bodies until shutdown — or
//! until a chaos threshold SIGKILLs it mid-run, which is the point of
//! the chaos tests.
//!
//! The worker links the *application* kernel registry
//! ([`jade_apps::kernels::registry`]) — the paper's "program text
//! present on every machine" assumption: a shipped task body can only
//! run remotely if the worker binary resolves its kernel names.

fn main() -> ! {
    jade_net::worker_main(jade_apps::kernels::registry())
}
