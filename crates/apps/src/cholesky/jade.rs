//! The Jade sparse Cholesky factorization — the paper's Figure 6,
//! transliterated to the Rust `JadeCtx` API.
//!
//! Each matrix column is one shared object (`double shared *` in the
//! paper); the column structure and row indices are a read-shared
//! object (`c` and `r`). The program adds exactly two `withonly`
//! constructs to the serial code: one per `InternalUpdate`, one per
//! `ExternalUpdate`, with the access specifications
//!
//! ```c
//! withonly { rd_wr(c[i].column); rd(c); rd(r); } do (c, r, i) { ... }
//! withonly { rd_wr(c[r[j]].column); rd(c[i].column); rd(c); rd(r); } do ... { ... }
//! ```
//!
//! The Jade implementation — not the programmer — discovers the
//! dynamic, data-dependent concurrency between updates to independent
//! columns.

use jade_core::prelude::*;

use super::matrix::{SparsePattern, SparseSym};
use super::serial::{external_cost, external_update, internal_column, internal_cost};

/// A matrix uploaded into Jade shared objects: one object per column
/// plus the shared pattern (`c`/`r` in the paper).
#[derive(Clone)]
pub struct JadeMatrix {
    /// Host copy of the pattern, used by the *main task* to generate
    /// the dynamically resolved access specifications.
    pub pattern: SparsePattern,
    /// The pattern as a shared object the tasks read.
    pub pat: Shared<Vec<Vec<usize>>>,
    /// One shared object per column's value vector.
    pub cols: Vec<Shared<Vec<f64>>>,
}

/// Allocate the matrix's shared objects (paper Figure 5's declarations).
pub fn upload<C: JadeCtx>(ctx: &mut C, m: &SparseSym) -> JadeMatrix {
    let pat = ctx.create_named("row_indices", m.pattern.rows.clone());
    let cols = m
        .cols
        .iter()
        .enumerate()
        .map(|(i, c)| ctx.create_named(&format!("column{i}"), c.clone()))
        .collect();
    JadeMatrix { pattern: m.pattern.clone(), pat, cols }
}

/// Read the factored columns back into a host matrix. The main
/// program's reads implicitly wait for all outstanding update tasks —
/// Jade's serial semantics at work.
pub fn download<C: JadeCtx>(ctx: &mut C, jm: &JadeMatrix) -> SparseSym {
    let cols = jm.cols.iter().map(|h| ctx.rd(h).clone()).collect();
    SparseSym { pattern: jm.pattern.clone(), cols }
}

/// The parallel factorization (paper Figure 6). Creates one
/// `InternalUpdate` task per column and one `ExternalUpdate` task per
/// below-diagonal entry; the runtime's per-object queues provide all
/// synchronization.
///
/// Every task carries a portable body IR alongside its closure: the
/// kernels in [`crate::kernels`] compute the same arithmetic, and the
/// sparsity pattern each `ExternalUpdate` needs rides in the IR as
/// literals — resolved by the main task from its host copy, exactly
/// like the access declarations themselves. (The `pat` shared object
/// stays declared and read by the closure; the IR simply never
/// references that declaration, so backends that ship bodies do not
/// need to marshal the `Vec<Vec<usize>>`.)
pub fn factor_jade<C: JadeCtx>(ctx: &mut C, jm: &JadeMatrix) {
    let n = jm.pattern.n;
    let pat = jm.pat;
    for i in 0..n {
        let col_i = jm.cols[i];
        let len_i = jm.pattern.rows[i].len() + 1;
        // decl 0 = col_i (rd_wr), decl 1 = pat (rd, closure-only).
        let ir = TaskBodyIr::new().step("chol_internal", vec![IrSrc::Obj(0)], IrDst::Obj(0));
        ctx.withonly_ir(
            &format!("Internal({i})"),
            |s| {
                s.rd_wr(col_i);
                s.rd(pat);
            },
            ir,
            move |c| {
                c.charge(internal_cost(len_i));
                // rd(c); rd(r): the task declares (and checks) its
                // read of the structure even though the internal
                // update itself only needs the column.
                let _pat = c.rd(&pat);
                let positive = internal_column(&mut c.wr(&col_i));
                assert!(positive, "matrix not positive definite");
            },
        );
        // The main task resolves r[j] dynamically — the concurrency is
        // data dependent, which is exactly what defeats static
        // parallelization (paper §3.2).
        for &j in &jm.pattern.rows[i] {
            let col_j = jm.cols[j];
            let tail = jm.pattern.rows[i].iter().filter(|&&t| t >= j).count();
            // decl 0 = col_j, decl 1 = col_i, decl 2 = pat. The kernel
            // argument layout is `chol_external`'s:
            // [j, |rows_i|, rows_i.., |rows_j|, rows_j.., col_i.., col_j..].
            let mut meta = vec![j as f64, jm.pattern.rows[i].len() as f64];
            meta.extend(jm.pattern.rows[i].iter().map(|&r| r as f64));
            meta.push(jm.pattern.rows[j].len() as f64);
            meta.extend(jm.pattern.rows[j].iter().map(|&r| r as f64));
            let ir = TaskBodyIr::new().step(
                "chol_external",
                vec![IrSrc::Lit(meta), IrSrc::Obj(1), IrSrc::Obj(0)],
                IrDst::Obj(0),
            );
            ctx.withonly_ir(
                &format!("External({i}->{j})"),
                |s| {
                    s.rd_wr(col_j);
                    s.rd(col_i);
                    s.rd(pat);
                },
                ir,
                move |c| {
                    c.charge(external_cost(tail));
                    let pat = c.rd(&pat);
                    let ci = c.rd(&col_i);
                    let mut cj = c.wr(&col_j);
                    external_update(&mut cj, &ci, &pat[i], &pat[j], j);
                },
            );
        }
    }
}

/// Convenience: upload, factor, download in one call.
pub fn factor_program<C: JadeCtx>(ctx: &mut C, a: &SparseSym) -> SparseSym {
    let jm = upload(ctx, a);
    factor_jade(ctx, &jm);
    download(ctx, &jm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::serial;

    #[test]
    fn jade_factor_matches_serial_factor_bitwise() {
        let a = SparseSym::random_spd(24, 3, 11);
        let mut want = a.clone();
        serial::factor(&mut want);
        let (got, stats) = jade_core::serial::run(|ctx| factor_program(ctx, &a));
        assert_eq!(got.cols, want.cols, "jade serial elision must equal the plain serial code");
        // n internal + nnz external tasks.
        let nnz: usize = a.pattern.nnz();
        assert_eq!(stats.tasks_created as usize, 24 + nnz);
    }

    #[test]
    fn task_graph_matches_figure_4() {
        let a = SparseSym::paper_example();
        let (_, trace) = jade_core::serial::run_traced(|ctx| factor_program(ctx, &a));
        let text = trace.to_text();
        // Figure 4's structure: the externals from column 0 depend on
        // Internal(0); Internal(3) depends on External(0->3); the
        // external from 1 to 2 depends only on Internal(1).
        assert!(text.contains("External(0->3) <- [Internal(0)]"), "got:\n{text}");
        assert!(text.contains("External(1->2) <- [Internal(1)]"), "got:\n{text}");
        let i3_preds = trace
            .tasks()
            .iter()
            .find(|t| trace.label(**t) == "Internal(3)")
            .map(|t| trace.predecessors(*t))
            .unwrap();
        assert!(i3_preds.iter().any(|p| trace.label(*p) == "External(0->3)"));
    }

    #[test]
    fn independent_columns_have_no_cross_edges() {
        // Internal(0) and Internal(1) never conflict.
        let a = SparseSym::paper_example();
        let (_, trace) = jade_core::serial::run_traced(|ctx| factor_program(ctx, &a));
        let i0 = *trace.tasks().iter().find(|t| trace.label(**t) == "Internal(0)").unwrap();
        let i1 = *trace.tasks().iter().find(|t| trace.label(**t) == "Internal(1)").unwrap();
        assert!(!trace.successors(i0).contains(&i1));
        assert!(!trace.predecessors(i0).contains(&i1));
    }
}
