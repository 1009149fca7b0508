//! Input generation. Everything a workload feeds the program derives
//! from `--seed`; the program itself is handed only the generated
//! values.

use jade_apps::cholesky::SparseSym;

/// Full-size inputs are what the ledger records. Quick-size inputs run
/// the same code in milliseconds, for `cargo test`. Mid-size inputs (about a tenth of full) serve the
/// one probe whose cost grows faster than the problem: a run under
/// `RunConfig::profiled()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Mid,
    Quick,
}

/// SplitMix64: the benchmark's only random source, so a seed names the
/// same inputs on every toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Starting values of the `fine-*` counters. Small enough that adding
/// every increment cannot overflow.
pub fn counter_seeds(objects: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    (0..objects).map(|_| rng.next_u64() >> 16).collect()
}

/// What a Cholesky workload asks of its matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixShape {
    pub n: usize,
    pub nnz_per_col: usize,
    /// Task count (`n` internal + one external update per non-zero
    /// after fill) the workload is sized for. `None` takes whatever
    /// the seed gives.
    pub tasks: Option<usize>,
}

/// Tasks `factor_program` creates for `a`.
pub fn cholesky_tasks(a: &SparseSym) -> usize {
    a.pattern.n + a.pattern.nnz()
}

/// Patterns tried per matrix when the shape states a task count.
const CANDIDATES: usize = 8;

/// A sparse SPD matrix for `seed`.
///
/// Fill makes the task count of `random_spd` swing by ±5 % from one
/// seed to the next, and run time follows it. A workload is one
/// problem size, so the generator draws a fixed number of candidate
/// patterns from a seed-derived sequence (the first is `seed` itself)
/// and keeps the one whose task count is nearest the size the workload
/// states. A fixed number, so set-up costs the same for every seed.
pub fn spd_matrix(shape: MatrixShape, seed: u64) -> SparseSym {
    let Some(want) = shape.tasks else {
        return SparseSym::random_spd(shape.n, shape.nnz_per_col, seed);
    };
    let mut rng = SplitMix(seed);
    (0..CANDIDATES)
        .map(|k| if k == 0 { seed } else { rng.next_u64() })
        .map(|candidate| SparseSym::random_spd(shape.n, shape.nnz_per_col, candidate))
        .min_by_key(|a| cholesky_tasks(a).abs_diff(want))
        .expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(counter_seeds(8, 17), counter_seeds(8, 17));
        assert_ne!(counter_seeds(8, 17), counter_seeds(8, 18));
        let shape = MatrixShape { n: 60, nnz_per_col: 4, tasks: None };
        assert_eq!(spd_matrix(shape, 3).cols, spd_matrix(shape, 3).cols);
    }

    #[test]
    fn matrix_size_is_held_near_the_stated_task_count() {
        let free = MatrixShape { n: 80, nnz_per_col: 4, tasks: None };
        let want = cholesky_tasks(&spd_matrix(free, 1));
        let held = MatrixShape { tasks: Some(want), ..free };
        let miss = |shape, seed| cholesky_tasks(&spd_matrix(shape, seed)).abs_diff(want);
        for seed in 1..12 {
            assert!(miss(held, seed) <= miss(free, seed), "seed {seed}");
        }
        let total = |shape| (1..12).map(|seed| miss(shape, seed)).sum::<usize>();
        assert!(total(held) * 3 <= total(free), "{} vs {}", total(held), total(free));
        assert_eq!(
            spd_matrix(held, 1).cols,
            spd_matrix(free, 1).cols,
            "the seed's own matrix wins a tie"
        );
    }
}
