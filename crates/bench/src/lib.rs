//! # jade-bench — figure/table regeneration and benchmark helpers
//!
//! One binary per artifact of the paper's evaluation (see DESIGN.md's
//! experiment index):
//!
//! | binary             | paper artifact |
//! |--------------------|----------------|
//! | `fig4_taskgraph`   | Figure 4 — dynamic task graph of sparse Cholesky |
//! | `fig7_trace`       | Figure 7 — execution narrative on two message-passing machines |
//! | `t1_constructs`    | §7.3 in-text counts: lines + Jade constructs added |
//! | `exp_make`         | §7.1 — parallel make |
//! | `exp_video`        | §7.2 — HRV video pipeline throughput |
//! | `exp_ablations`    | §5 — locality, latency hiding, throttling, §4.2 pipelining |

#![cfg_attr(test, deny(deprecated))]

use jade_apps::lws::{self, WaterSystem};
use jade_sim::{Platform, SimExecutor, SimReport};

/// Run one LWS configuration on a simulated platform and report it.
pub fn lws_sim(platform: Platform, n: usize, steps: usize, seed: u64) -> SimReport {
    let sys = WaterSystem::new(n, seed);
    let blocks = (4 * platform.len()).max(4);
    SimExecutor::new(platform).run(move |ctx| lws::run_jade(ctx, &sys, blocks, steps, 0.002)).1
}

/// Build a platform preset by name.
pub fn platform_by_name(name: &str, machines: usize) -> Platform {
    match name {
        "dash" => Platform::dash(machines),
        "ipsc860" => Platform::ipsc860(machines),
        "mica" => Platform::mica(machines),
        "hetnet" => Platform::workstations(machines),
        other => panic!("unknown platform '{other}'"),
    }
}

/// Format a row of right-aligned cells.
pub fn row(cells: &[String], width: usize) -> String {
    cells.iter().map(|c| format!("{c:>width$}")).collect::<Vec<_>>().join(" ")
}

pub mod baseline {
    //! Scoped-threads baseline: what a plain pool with *per-task
    //! dispatch* costs without any of Jade's semantics. One
    //! mutex-protected FIFO of boxed closures with condvar parking —
    //! the rayon-style shape (spawn each task individually into a
    //! pool; workers park when dry). No declarations, no dependence
    //! tracking, no serial-order queues: the gap between this and the
    //! Jade executor is the price of the programming model's dynamic
    //! concurrency detection. Used by the `runtime_micro` criterion
    //! group; the ledger's `baseline.scoped_tasks_per_s` is the same
    //! pool inside `benchmark/`.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Instant;

    type Job = Box<dyn FnOnce() + Send + 'static>;

    struct BasePool {
        q: Mutex<(VecDeque<Job>, bool)>,
        cv: Condvar,
    }

    impl BasePool {
        fn new() -> Self {
            BasePool { q: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() }
        }

        fn push(&self, job: Job) {
            self.q.lock().unwrap().0.push_back(job);
            self.cv.notify_one();
        }

        fn close(&self) {
            self.q.lock().unwrap().1 = true;
            self.cv.notify_all();
        }

        fn worker(&self) {
            loop {
                let job = {
                    let mut g = self.q.lock().unwrap();
                    loop {
                        if let Some(j) = g.0.pop_front() {
                            break j;
                        }
                        if g.1 {
                            return;
                        }
                        g = self.cv.wait(g).unwrap();
                    }
                };
                job();
            }
        }
    }

    /// Baseline counterpart of the `fine-independent` workload:
    /// `tasks` closures, each bumping one of `objects` mutex-protected
    /// counters, dispatched one at a time through the pool. Returns
    /// tasks/second.
    pub fn independent_rate(workers: usize, tasks: u64, objects: usize) -> f64 {
        let slots: Arc<Vec<Mutex<u64>>> =
            Arc::new((0..objects).map(|_| Mutex::new(0u64)).collect());
        let pool = BasePool::new();
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| pool.worker());
            }
            for i in 0..tasks {
                let slots = slots.clone();
                let idx = (i as usize) % objects;
                pool.push(Box::new(move || {
                    *slots[idx].lock().unwrap() += 1;
                }));
            }
            pool.close();
        });
        let total: u64 = slots.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, tasks);
        tasks as f64 / start.elapsed().as_secs_f64()
    }

    /// Fork-join waves on the baseline pool: `fan` forked closures per
    /// wave, a counter join (condvar) between waves, and the join body
    /// dispatched as its own task — the same task shape as the Jade
    /// fork-join workload. Returns tasks/second over
    /// `waves * (fan + 1)` tasks.
    pub fn forkjoin_rate(workers: usize, waves: u64, fan: usize) -> f64 {
        let slots: Arc<Vec<Mutex<u64>>> = Arc::new((0..fan).map(|_| Mutex::new(0u64)).collect());
        let pool = BasePool::new();
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let tasks = waves * (fan as u64 + 1);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| pool.worker());
            }
            let wait_for = |n: usize| {
                let (m, cv) = &*gate;
                let mut done = m.lock().unwrap();
                while *done < n {
                    done = cv.wait(done).unwrap();
                }
                *done = 0;
            };
            let bump_done = |gate: &Arc<(Mutex<usize>, Condvar)>| {
                let (m, cv) = &**gate;
                *m.lock().unwrap() += 1;
                cv.notify_all();
            };
            for _ in 0..waves {
                for (idx, _) in slots.iter().enumerate() {
                    let slots = slots.clone();
                    let gate = gate.clone();
                    pool.push(Box::new(move || {
                        *slots[idx].lock().unwrap() += 1;
                        bump_done(&gate);
                    }));
                }
                wait_for(fan);
                let slots2 = slots.clone();
                let gate2 = gate.clone();
                pool.push(Box::new(move || {
                    let sum: u64 = slots2.iter().map(|m| *m.lock().unwrap()).sum();
                    std::hint::black_box(sum);
                    bump_done(&gate2);
                }));
                wait_for(1);
            }
            pool.close();
        });
        let total: u64 = slots.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, waves * fan as u64);
        tasks as f64 / start.elapsed().as_secs_f64()
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn baseline_shapes_complete_and_count() {
            // The rate functions assert the work landed exactly once;
            // a nonzero rate means the pool drained and joined cleanly.
            assert!(super::independent_rate(4, 500, 16) > 0.0);
            assert!(super::forkjoin_rate(4, 20, 8) > 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lws_sim_smoke() {
        let r = lws_sim(Platform::dash(2), 60, 1, 1);
        assert!(r.time > jade_sim::SimTime::ZERO);
        assert_eq!(r.machines, 2);
    }

    #[test]
    fn platform_lookup() {
        assert_eq!(platform_by_name("dash", 4).len(), 4);
        assert_eq!(platform_by_name("mica", 2).name, "mica");
    }

    #[test]
    #[should_panic(expected = "unknown platform")]
    fn unknown_platform_panics() {
        platform_by_name("cray", 1);
    }
}
