//! Sparse symmetric matrix storage (the paper's Figures 1/2/5).
//!
//! The factor works on the lower triangle in column-compressed form:
//! each column `i` stores its diagonal followed by the values at the
//! below-diagonal rows listed (sorted) in the pattern. This mirrors
//! the paper's `column_data { start_row, column }` plus `row_indices`
//! structure, with one value vector per column — the unit of data
//! decomposition the Jade program declares accesses on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sparsity pattern of a lower-triangular matrix: for every
/// column, the sorted list of below-diagonal row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    /// Matrix dimension.
    pub n: usize,
    /// `rows[i]` = sorted below-diagonal row indices of column `i`.
    pub rows: Vec<Vec<usize>>,
}

impl SparsePattern {
    /// Construct from per-column row lists (sorted, deduplicated,
    /// validated to be strictly below the diagonal).
    pub fn new(n: usize, mut rows: Vec<Vec<usize>>) -> Self {
        assert_eq!(rows.len(), n);
        for (i, r) in rows.iter_mut().enumerate() {
            r.sort_unstable();
            r.dedup();
            assert!(r.iter().all(|&t| t > i && t < n), "row out of range in column {i}");
        }
        SparsePattern { n, rows }
    }

    /// Number of stored below-diagonal entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Compute the *filled* pattern: the pattern of the Cholesky
    /// factor `L`. Uses the elimination-tree identity — merging each
    /// column's below-diagonal pattern (minus its first row) into the
    /// column of that first row, in ascending column order — which
    /// yields exactly the fill-in of the factorization.
    pub fn with_fill(&self) -> SparsePattern {
        let mut rows = self.rows.clone();
        for i in 0..self.n {
            if let Some(&parent) = rows[i].first() {
                let push: Vec<usize> = rows[i][1..].to_vec();
                let dst = &mut rows[parent];
                for t in push {
                    if let Err(pos) = dst.binary_search(&t) {
                        dst.insert(pos, t);
                    }
                }
            }
        }
        SparsePattern { n: self.n, rows }
    }

    /// Position of row `t` within column `i`'s value vector (0 is the
    /// diagonal, 1.. are the below-diagonal entries in pattern order).
    pub fn value_index(&self, i: usize, t: usize) -> Option<usize> {
        self.rows[i].binary_search(&t).ok().map(|p| p + 1)
    }
}

/// A sparse symmetric positive-definite matrix (lower triangle).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSym {
    /// The (filled) sparsity pattern.
    pub pattern: SparsePattern,
    /// `cols[i][0]` is the diagonal of column `i`; `cols[i][k+1]` is
    /// the value at row `pattern.rows[i][k]`.
    pub cols: Vec<Vec<f64>>,
}

impl SparseSym {
    /// Dimension.
    pub fn n(&self) -> usize {
        self.pattern.n
    }

    /// Zero matrix with the given pattern.
    pub fn zero(pattern: SparsePattern) -> Self {
        let cols = pattern.rows.iter().map(|r| vec![0.0; r.len() + 1]).collect();
        SparseSym { pattern, cols }
    }

    /// Value at `(t, i)` with `t >= i` (lower triangle), 0 if not
    /// stored.
    pub fn get(&self, t: usize, i: usize) -> f64 {
        assert!(t >= i);
        if t == i {
            self.cols[i][0]
        } else {
            self.pattern.value_index(i, t).map_or(0.0, |p| self.cols[i][p])
        }
    }

    /// Dense reconstruction of the full symmetric matrix (tests only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let n = self.n();
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            out[i][i] = self.cols[i][0];
            for (k, &t) in self.pattern.rows[i].iter().enumerate() {
                out[t][i] = self.cols[i][k + 1];
                out[i][t] = self.cols[i][k + 1];
            }
        }
        out
    }

    /// Multiply the matrix by a dense vector (tests/benchmarks).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n();
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] += self.cols[i][0] * x[i];
            for (k, &t) in self.pattern.rows[i].iter().enumerate() {
                let v = self.cols[i][k + 1];
                y[t] += v * x[i];
                y[i] += v * x[t];
            }
        }
        y
    }

    /// Generate a random sparse SPD matrix: a random pattern with the
    /// requested average below-diagonal entries per column, closed
    /// under factorization fill, with diagonally dominant values.
    pub fn random_spd(n: usize, avg_nnz_per_col: usize, seed: u64) -> SparseSym {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, row) in rows.iter_mut().enumerate().take(n) {
            let remaining = n - i - 1;
            let k = avg_nnz_per_col.min(remaining);
            for _ in 0..k {
                if remaining == 0 {
                    break;
                }
                let t = i + 1 + rng.gen_range(0..remaining);
                if !row.contains(&t) {
                    row.push(t);
                }
            }
        }
        let base = SparsePattern::new(n, rows);
        let pattern = base.with_fill();
        let mut m = SparseSym::zero(pattern);
        // Random symmetric values, then make the diagonal dominant so
        // the matrix is comfortably positive definite.
        let mut row_sums = vec![0.0f64; n];
        for i in 0..n {
            for k in 0..m.pattern.rows[i].len() {
                let v: f64 = rng.gen_range(-1.0..1.0);
                m.cols[i][k + 1] = v;
                let t = m.pattern.rows[i][k];
                row_sums[i] += v.abs();
                row_sums[t] += v.abs();
            }
        }
        for i in 0..n {
            m.cols[i][0] = row_sums[i] + 1.0 + rng.gen_range(0.0..1.0);
        }
        m
    }

    /// The paper's small running example: a 5-column matrix whose
    /// dynamic task graph matches Figure 4 (column 0 updates columns
    /// 3 and 4; column 1 updates column 2; ...).
    pub fn paper_example() -> SparseSym {
        // Column 0 has below-diagonal entries at rows 3 and 4;
        // column 1 at row 2; column 2 at row 4; column 3 at row 4.
        let base = SparsePattern::new(5, vec![vec![3, 4], vec![2], vec![4], vec![4], vec![]]);
        let pattern = base.with_fill();
        let mut m = SparseSym::zero(pattern);
        for i in 0..5 {
            m.cols[i][0] = 10.0 + i as f64;
            for k in 0..m.pattern.rows[i].len() {
                m.cols[i][k + 1] = 1.0 / (1.0 + i as f64 + k as f64);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_adds_expected_entries() {
        // Column 0 hits rows 1 and 3 -> eliminating column 0 connects
        // rows 1 and 3, so column 1 gains row 3.
        let p = SparsePattern::new(4, vec![vec![1, 3], vec![], vec![], vec![]]);
        let f = p.with_fill();
        assert_eq!(f.rows[1], vec![3]);
    }

    #[test]
    fn fill_is_idempotent() {
        let p =
            SparsePattern::new(6, vec![vec![2, 4], vec![3, 5], vec![4], vec![5], vec![5], vec![]]);
        let f = p.with_fill();
        assert_eq!(f.with_fill(), f);
    }

    #[test]
    fn value_index_lookup() {
        let p = SparsePattern::new(4, vec![vec![1, 3], vec![], vec![], vec![]]);
        assert_eq!(p.value_index(0, 1), Some(1));
        assert_eq!(p.value_index(0, 3), Some(2));
        assert_eq!(p.value_index(0, 2), None);
    }

    #[test]
    fn dense_roundtrip_and_symmetry() {
        let m = SparseSym::random_spd(8, 2, 42);
        let d = m.to_dense();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(d[i][j], d[j][i]);
            }
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = SparseSym::random_spd(10, 3, 7);
        let x: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let d = m.to_dense();
        let dense_y: Vec<f64> =
            d.iter().map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum()).collect();
        let y = m.mul_vec(&x);
        for (a, b) in y.iter().zip(&dense_y) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn random_spd_is_positive_definite_ish() {
        // Diagonal dominance => positive definite; spot-check xᵀAx > 0.
        let m = SparseSym::random_spd(20, 3, 1);
        let x: Vec<f64> = (0..20).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect();
        let y = m.mul_vec(&x);
        let q: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(q > 0.0);
    }

    #[test]
    fn paper_example_pattern_matches_figure4() {
        let m = SparseSym::paper_example();
        assert_eq!(m.pattern.rows[0], vec![3, 4]);
        assert_eq!(m.pattern.rows[1], vec![2]);
        // Fill closes the pattern (3,4 both present beyond col 0).
        assert!(m.pattern.rows[3].contains(&4));
    }
}
