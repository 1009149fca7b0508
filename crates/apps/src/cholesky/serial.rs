//! The serial sparse Cholesky factorization and triangular solves —
//! the sequential program the Jade version annotates (paper §3.1).

use super::matrix::SparseSym;

/// The internal update of one column in place (paper §3.1: "this
/// update divides the column by the square root of its diagonal"):
/// every entry, the diagonal included, is divided by `√d` (`d/√d`, not
/// `√d`, which can differ in the last bit). Returns whether the column
/// was positive definite; when it was not, its entries come out NaN or
/// infinite, and the caller decides whether that is fatal.
pub fn internal_column(col: &mut [f64]) -> bool {
    let Some(&head) = col.first() else { return true };
    let d = head.sqrt();
    for v in col.iter_mut() {
        *v /= d;
    }
    d.is_finite() && d > 0.0
}

/// In-place right-looking internal update of column `i`.
pub fn internal_update(cols: &mut [Vec<f64>], i: usize) {
    let positive = internal_column(&mut cols[i]);
    assert!(positive, "matrix not positive definite at column {i}");
}

/// Right-looking external update: subtract the outer-product
/// contribution of (final) column `i` from column `j`, where `j` is
/// one of column `i`'s below-diagonal rows. `rows_i` is column `i`'s
/// row pattern; `rows_j` column `j`'s.
pub fn external_update(
    col_j: &mut [f64],
    col_i: &[f64],
    rows_i: &[usize],
    rows_j: &[usize],
    j: usize,
) {
    let ji = rows_i.binary_search(&j).expect("j must be a row of column i");
    let l_ji = col_i[ji + 1];
    // Diagonal of column j.
    col_j[0] -= l_ji * l_ji;
    // Entries below j that columns i and j share. The factor pattern
    // is closed under fill, so every row of i beyond j appears in j.
    for (k, &t) in rows_i.iter().enumerate().skip(ji + 1) {
        let l_ti = col_i[k + 1];
        let pos = rows_j.binary_search(&t).expect("fill-closed pattern") + 1;
        col_j[pos] -= l_ji * l_ti;
    }
}

/// Serial factorization: `A = L·Lᵀ` computed in place; the input's
/// column vectors become the factor's columns. This is the paper's
/// serial program of Figure 3.
pub fn factor(m: &mut SparseSym) {
    let n = m.n();
    for i in 0..n {
        internal_update(&mut m.cols, i);
        let rows_i = m.pattern.rows[i].clone();
        for &j in &rows_i {
            let (ci, cj) = split_two(&mut m.cols, i, j);
            external_update(cj, ci, &m.pattern.rows[i], &m.pattern.rows[j], j);
        }
    }
}

/// Borrow columns `i` and `j` (`i < j`) mutably at once.
pub(crate) fn split_two(cols: &mut [Vec<f64>], i: usize, j: usize) -> (&[f64], &mut [f64]) {
    assert!(i < j);
    let (a, b) = cols.split_at_mut(j);
    (&a[i], &mut b[0])
}

/// Forward substitution `L·y = b` (the paper's §4.1 back substitution
/// step reads the factor's columns left to right, which is what the
/// deferred-read pipeline exploits).
pub fn forward_subst(l: &SparseSym, b: &[f64]) -> Vec<f64> {
    let n = l.n();
    let mut y = b.to_vec();
    for j in 0..n {
        y[j] /= l.cols[j][0];
        for (k, &t) in l.pattern.rows[j].iter().enumerate() {
            y[t] -= l.cols[j][k + 1] * y[j];
        }
    }
    y
}

/// Backward substitution `Lᵀ·x = y`.
pub fn backward_subst(l: &SparseSym, y: &[f64]) -> Vec<f64> {
    let n = l.n();
    let mut x = y.to_vec();
    for j in (0..n).rev() {
        for (k, &t) in l.pattern.rows[j].iter().enumerate() {
            x[j] -= l.cols[j][k + 1] * x[t];
        }
        x[j] /= l.cols[j][0];
    }
    x
}

/// Full solve `A·x = b` given the factor `L`.
pub fn solve(l: &SparseSym, b: &[f64]) -> Vec<f64> {
    backward_subst(l, &forward_subst(l, b))
}

/// Flop-count cost of an internal update (used for `charge`).
pub fn internal_cost(col_len: usize) -> f64 {
    (col_len + 20) as f64
}

/// Flop-count cost of an external update from a column with `tail`
/// entries at-or-after the target row.
pub fn external_cost(tail: usize) -> f64 {
    (2 * tail + 10) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct_error(a: &SparseSym, l: &SparseSym) -> f64 {
        let n = a.n();
        let da = a.to_dense();
        let dl = l.to_dense();
        // L is stored symmetric by to_dense; take the lower triangle.
        let mut worst = 0.0f64;
        for r in 0..n {
            for c in 0..n {
                let mut v = 0.0;
                for k in 0..=r.min(c) {
                    let lrk = if k <= r { dl[r][k] } else { 0.0 };
                    let lck = if k <= c { dl[c][k] } else { 0.0 };
                    v += lrk * lck;
                }
                worst = worst.max((v - da[r][c]).abs());
            }
        }
        worst
    }

    #[test]
    fn factor_reconstructs_paper_example() {
        let a = SparseSym::paper_example();
        let mut l = a.clone();
        factor(&mut l);
        assert!(reconstruct_error(&a, &l) < 1e-10);
    }

    #[test]
    fn factor_reconstructs_random_matrices() {
        for seed in [1, 2, 3] {
            let a = SparseSym::random_spd(30, 3, seed);
            let mut l = a.clone();
            factor(&mut l);
            let err = reconstruct_error(&a, &l);
            assert!(err < 1e-9, "seed {seed}: reconstruction error {err}");
        }
    }

    #[test]
    fn solve_inverts_the_matrix() {
        let a = SparseSym::random_spd(25, 3, 9);
        let mut l = a.clone();
        factor(&mut l);
        let x_true: Vec<f64> = (0..25).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = solve(&l, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn forward_then_backward_substitution_consistent() {
        let a = SparseSym::random_spd(15, 2, 4);
        let mut l = a.clone();
        factor(&mut l);
        let b: Vec<f64> = (0..15).map(|i| 1.0 + i as f64).collect();
        let y = forward_subst(&l, &b);
        let x = backward_subst(&l, &y);
        let back = a.mul_vec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "positive definite")]
    fn indefinite_matrix_rejected() {
        let mut m = SparseSym::paper_example();
        m.cols[0][0] = -1.0;
        factor(&mut m);
    }

    #[test]
    fn costs_scale_with_sizes() {
        assert!(internal_cost(100) > internal_cost(10));
        assert!(external_cost(50) > external_cost(5));
    }
}
