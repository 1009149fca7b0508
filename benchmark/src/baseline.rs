//! The scoped-threads yardstick: what per-task dispatch costs in a
//! plain pool with none of Jade's semantics — one mutex-protected FIFO
//! of boxed closures, workers parked on a condvar, no declarations, no
//! dependence tracking. The gap between this and `fine-independent`
//! is the price of the model's dynamic concurrency detection. A copy of
//! the repository's `jade_bench::baseline`, kept here so the benchmark
//! does not depend on the old experiment crate.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    /// The queue and whether it is closed.
    q: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl Pool {
    fn push(&self, job: Job) {
        self.q.lock().expect("pool poisoned").0.push_back(job);
        self.cv.notify_one();
    }

    fn close(&self) {
        self.q.lock().expect("pool poisoned").1 = true;
        self.cv.notify_all();
    }

    fn worker(&self) {
        loop {
            let job = {
                let mut g = self.q.lock().expect("pool poisoned");
                loop {
                    if let Some(j) = g.0.pop_front() {
                        break j;
                    }
                    if g.1 {
                        return;
                    }
                    g = self.cv.wait(g).expect("pool poisoned");
                }
            };
            job();
        }
    }
}

/// The `fine-independent` shape on the plain pool: `tasks` closures,
/// each bumping one of `objects` mutex-protected counters, pushed one
/// at a time. Returns tasks per second.
pub fn independent_rate(workers: usize, tasks: u64, objects: usize) -> f64 {
    let slots: Arc<Vec<Mutex<u64>>> = Arc::new((0..objects).map(|_| Mutex::new(0)).collect());
    let pool = Pool { q: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() };
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| pool.worker());
        }
        for i in 0..tasks {
            let slots = Arc::clone(&slots);
            let idx = i as usize % objects;
            pool.push(Box::new(move || {
                *slots[idx].lock().expect("slot poisoned") += 1;
            }));
        }
        pool.close();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = slots.iter().map(|m| *m.lock().expect("slot poisoned")).sum();
    assert_eq!(total, tasks, "the yardstick lost an increment");
    tasks as f64 / elapsed
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_increment_lands() {
        assert!(super::independent_rate(2, 5_000, 8) > 0.0);
    }
}
