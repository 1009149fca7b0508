//! Back substitution with and without pipelining — the paper's §4.1
//! and §4.2.
//!
//! Composed after the factorization, a back-substitution task reads
//! *all* the factor's columns. Declared with plain `rd`, it cannot
//! start until the entire factorization finishes — "this wastes
//! concurrency, since it should be possible to pipeline the two
//! computations." Declared with `df_rd` and converted column by
//! column with `with { rd(c[j].column) } cont;`, the task starts
//! immediately and consumes each column as soon as it reaches its
//! final value, releasing it again with `no_rd`.

use jade_core::prelude::*;

use super::jade::JadeMatrix;

/// How the substitution task declares its column accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstMode {
    /// Immediate `rd` on every column: synchronizes at the task
    /// boundary (waits for the whole factorization).
    TaskBoundary,
    /// `df_rd` plus per-column `with-cont` conversion/retirement: the
    /// §4.2 pipeline.
    Pipelined,
}

/// Create the forward-substitution task for `L·y = b` over a factored
/// (or still factoring!) [`JadeMatrix`]. Returns the handle of the
/// shared solution vector; read it in the main task to collect `y`.
pub fn forward_subst_task<C: JadeCtx>(
    ctx: &mut C,
    jm: &JadeMatrix,
    b: &[f64],
    mode: SubstMode,
) -> Shared<Vec<f64>> {
    let n = jm.pattern.n;
    assert_eq!(b.len(), n);
    let x = ctx.create_named("rhs", b.to_vec());
    let pat = jm.pat;
    let spec_cols = jm.cols.clone();
    let body_cols = jm.cols.clone();
    ctx.withonly(
        "backsubst",
        |s| {
            s.rd(pat);
            s.rd_wr(x);
            for &c in &spec_cols {
                match mode {
                    SubstMode::TaskBoundary => s.rd(c),
                    SubstMode::Pipelined => s.df_rd(c),
                };
            }
        },
        move |c| {
            for (j, &col) in body_cols.iter().enumerate() {
                if mode == SubstMode::Pipelined {
                    // with { rd(c[j].column); } cont;
                    c.with_cont(|b| {
                        b.to_rd(col);
                    });
                }
                {
                    let colv = c.rd(&col);
                    let pat = c.rd(&pat);
                    let mut xw = c.wr(&x);
                    c.charge((2 * pat[j].len() + 12) as f64);
                    xw[j] /= colv[0];
                    let xj = xw[j];
                    for (k, &t) in pat[j].iter().enumerate() {
                        xw[t] -= colv[k + 1] * xj;
                    }
                }
                if mode == SubstMode::Pipelined {
                    // with { no_rd(c[j].column); } cont;
                    c.with_cont(|b| {
                        b.no_rd(col);
                    });
                }
            }
        },
    );
    x
}

/// Factor and forward-substitute in one composed program, the way
/// §4.2 composes `factor` and `backsubst`.
pub fn factor_then_subst<C: JadeCtx>(
    ctx: &mut C,
    a: &super::matrix::SparseSym,
    b: &[f64],
    mode: SubstMode,
) -> Vec<f64> {
    let jm = super::jade::upload(ctx, a);
    super::jade::factor_jade(ctx, &jm);
    let x = forward_subst_task(ctx, &jm, b, mode);
    ctx.rd(&x).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::matrix::SparseSym;
    use crate::cholesky::serial;

    #[test]
    fn both_modes_match_serial_substitution() {
        let a = SparseSym::random_spd(20, 3, 5);
        let mut l = a.clone();
        serial::factor(&mut l);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).cos()).collect();
        let want = serial::forward_subst(&l, &b);
        for mode in [SubstMode::TaskBoundary, SubstMode::Pipelined] {
            let (got, _) = jade_core::serial::run(|ctx| factor_then_subst(ctx, &a, &b, mode));
            assert_eq!(got, want, "mode {mode:?}");
        }
    }

    #[test]
    fn pipelined_mode_uses_with_cont() {
        let a = SparseSym::random_spd(10, 2, 2);
        let b = vec![1.0; 10];
        let (_, stats) =
            jade_core::serial::run(|ctx| factor_then_subst(ctx, &a, &b, SubstMode::Pipelined));
        // One to_rd and one no_rd per column.
        assert_eq!(stats.with_conts, 20);
        let (_, stats2) =
            jade_core::serial::run(|ctx| factor_then_subst(ctx, &a, &b, SubstMode::TaskBoundary));
        assert_eq!(stats2.with_conts, 0);
    }
}
