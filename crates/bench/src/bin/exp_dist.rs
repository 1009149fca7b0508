//! Distributed-backend sweep: worker count × injected loss × worker
//! kills, over real sockets — § E-DIST of EXPERIMENTS.md.
//!
//! The same sparse-Cholesky workload runs under the `jade-net`
//! multi-process backend (thread-mode workers over Unix-domain
//! sockets, so the sweep is self-contained in one process; the wire
//! protocol, reliability layer, heartbeats and recovery paths are
//! identical to process mode). With the application kernel registry
//! linked, every task body lowers to the portable IR and executes on
//! a worker; the table reports wall-clock time, the run's
//! `NetStats`/`FaultStats`, bytes on the wire and the replica-cache
//! hit rate. Invariants checked on every point:
//!
//! * the factor is **bit-identical to `SerialRuntime`** — serial
//!   semantics hold through loss, retransmission and worker death;
//! * with live workers, **zero task bodies run coordinator-locally**:
//!   `tasks_shipped == tasks_created` and `degraded == 0` on clean
//!   points;
//! * injected loss shows up as retransmissions, never as an error;
//! * every armed kill is detected (`crashes` matches) and recovered
//!   (`recoveries + degraded > 0` when any work was in flight).
//!
//! A second table compares the locality-aware placement policy
//! against round-robin on the identical workload: scoring workers by
//! resident replica bytes must measurably cut both the miss rate and
//! the bytes shipped.
//!
//! Run: `cargo run --release -p jade-bench --bin exp_dist`

use std::time::{Duration, Instant};

use jade_apps::cholesky::{self, SparseSym};
use jade_bench::row;
use jade_core::runtime::{RunConfig, Runtime};
use jade_core::serial::SerialRuntime;
use jade_core::stats::NetStats;
use jade_net::{Chaos, NetConfig, NetExecutor, PlacementPolicy, ReliableConfig};

const N: usize = 48;
const BAND: usize = 5;
const SEED: u64 = 17;

fn run_point(cfg: NetConfig, a: &SparseSym, want: &[Vec<f64>]) -> (Duration, NetStats, u64, u64) {
    let t0 = Instant::now();
    let rep = {
        let a = a.clone();
        NetExecutor::new(cfg)
            .with_registry(jade_apps::kernels::registry())
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("every sweep point must complete")
    };
    let elapsed = t0.elapsed();
    assert_eq!(rep.result.cols, want, "result must match the serial oracle");
    let net = rep.net.expect("net backend reports NetStats");
    let faults = rep.faults.expect("net backend reports FaultStats");
    (elapsed, net, faults.crashes, faults.recoveries + faults.degraded + faults.reshipped)
}

fn main() {
    let a = SparseSym::random_spd(N, BAND, SEED);
    let serial = {
        let a = a.clone();
        SerialRuntime
            .execute(RunConfig::new(), move |ctx| cholesky::factor_program(ctx, &a))
            .expect("serial oracle")
    };
    let want = serial.result.cols;
    let tasks = serial.stats.tasks_created;

    println!("distributed-backend sweep: sparse Cholesky, n={N} band={BAND}, Unix sockets");
    println!("(thread-mode workers: same wire protocol as process mode, one-process sweep)");
    println!("(task bodies ship as portable IR; 'hit' = replica-cache hit rate)\n");
    let w = 11;
    println!(
        "{}",
        row(
            &[
                "workers".into(),
                "loss".into(),
                "kills".into(),
                "time".into(),
                "messages".into(),
                "kbytes".into(),
                "retrans".into(),
                "shipped".into(),
                "payload-kb".into(),
                "hit".into(),
                "crashes".into(),
                "recovered".into(),
            ],
            w
        )
    );

    for &workers in &[2usize, 4] {
        for &(loss, kills) in &[(0.0, 0u32), (0.05, 0), (0.15, 0), (0.0, 1), (0.05, 1)] {
            let chaos = (0..kills)
                .map(|k| {
                    let kill = Chaos { kill_after_grants: Some(2 + 3 * k), ..Chaos::default() };
                    (k % workers as u32, kill)
                })
                .collect();
            let cfg = NetConfig {
                reliable: ReliableConfig {
                    loss: (loss > 0.0).then_some((0xD157 + kills as u64, loss)),
                    retransmit_timeout: Duration::from_millis(5),
                    ..ReliableConfig::default()
                },
                chaos,
                ..NetConfig::threads(workers)
            };
            let (elapsed, net, crashes, recovered) = run_point(cfg, &a, &want);
            assert_eq!(crashes as u32, kills, "every armed kill must be detected");
            if loss > 0.0 {
                assert!(net.dropped > 0, "injected loss must be observable");
            }
            if kills == 0 {
                assert_eq!(
                    net.tasks_shipped, tasks,
                    "with live workers every task body must execute remotely"
                );
                assert_eq!(recovered, 0, "clean points must not degrade or recover");
            }
            println!(
                "{}",
                row(
                    &[
                        format!("{workers}"),
                        format!("{:.0}%", loss * 100.0),
                        format!("{kills}"),
                        format!("{:.3}s", elapsed.as_secs_f64()),
                        format!("{}", net.messages),
                        format!("{:.1}", net.bytes as f64 / 1024.0),
                        format!("{}", net.retransmits),
                        format!("{}", net.tasks_shipped),
                        format!("{:.1}", net.payload_bytes as f64 / 1024.0),
                        format!("{:.0}%", net.replica_hit_rate() * 100.0),
                        format!("{crashes}"),
                        format!("{recovered}"),
                    ],
                    w
                )
            );
        }
    }

    // Placement ablation: locality-aware vs round-robin on the
    // identical clean workload.
    println!("\nplacement ablation (4 workers, no loss, no kills):\n");
    println!(
        "{}",
        row(
            &["policy".into(), "payload-kb".into(), "misses".into(), "hits".into(), "hit".into()],
            w
        )
    );
    let mut bytes = [0u64; 2];
    let mut misses = [0u64; 2];
    for (slot, (label, policy)) in
        [("locality", PlacementPolicy::Locality), ("round-robin", PlacementPolicy::RoundRobin)]
            .into_iter()
            .enumerate()
    {
        let cfg = NetConfig { placement: policy, ..NetConfig::threads(4) };
        let (_, net, _, recovered) = run_point(cfg, &a, &want);
        assert_eq!(recovered, 0);
        bytes[slot] = net.payload_bytes;
        misses[slot] = net.replica_misses;
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    format!("{:.1}", net.payload_bytes as f64 / 1024.0),
                    format!("{}", net.replica_misses),
                    format!("{}", net.replica_hits),
                    format!("{:.0}%", net.replica_hit_rate() * 100.0),
                ],
                w
            )
        );
    }
    assert!(
        misses[0] < misses[1] && bytes[0] < bytes[1],
        "locality placement must cut payload re-shipping: \
         {} vs {} misses, {} vs {} bytes",
        misses[0],
        misses[1],
        bytes[0],
        bytes[1]
    );
    println!(
        "\nlocality placement shipped {:.0}% fewer payload bytes than round-robin",
        (1.0 - bytes[0] as f64 / bytes[1] as f64) * 100.0
    );
    println!("all points matched the serial oracle bit-for-bit");
}
