//! Supernodal sparse Cholesky: the paper's §3.2 grain-size extension.
//!
//! "In the more complex algorithm, the task grain size is increased
//! further by aggregating adjacent columns into groups called
//! 'supernodes'." Adjacent columns with nested sparsity patterns are
//! grouped; each supernode's columns become **one** shared object, so
//! both the data decomposition and the task decomposition coarsen —
//! fewer, bigger tasks, less runtime overhead per flop.

use jade_core::prelude::*;
use std::ops::Range;

use super::matrix::{SparsePattern, SparseSym};
use super::serial::{external_update, internal_column};

/// Partition columns into supernodes: maximal runs of consecutive
/// columns where each column's below-diagonal pattern is exactly
/// `{i+1} ∪ rows(i+1)` — the classic fundamental-supernode criterion.
pub fn supernodes(pattern: &SparsePattern) -> Vec<Range<usize>> {
    let n = pattern.n;
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..n {
        let extend = i + 1 < n && {
            let ri = &pattern.rows[i];
            let rn = &pattern.rows[i + 1];
            ri.len() == rn.len() + 1 && ri.first() == Some(&(i + 1)) && ri[1..] == rn[..]
        };
        if !extend {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out
}

/// Index of the supernode containing each column.
fn column_owner(sns: &[Range<usize>], n: usize) -> Vec<usize> {
    let mut owner = vec![0usize; n];
    for (s, r) in sns.iter().enumerate() {
        for i in r.clone() {
            owner[i] = s;
        }
    }
    owner
}

/// A matrix uploaded at supernode granularity: one shared object per
/// supernode holding that supernode's column vectors.
#[derive(Clone)]
pub struct SuperMatrix {
    /// Host pattern.
    pub pattern: SparsePattern,
    /// Supernode column ranges.
    pub sns: Vec<Range<usize>>,
    /// Supernode index of each column.
    pub owner: Vec<usize>,
    /// Shared pattern object.
    pub pat: Shared<Vec<Vec<usize>>>,
    /// One shared object per supernode: its columns' value vectors.
    pub blocks: Vec<Shared<Vec<Vec<f64>>>>,
}

/// Upload a matrix at supernode granularity.
pub fn upload_super<C: JadeCtx>(ctx: &mut C, m: &SparseSym) -> SuperMatrix {
    let sns = supernodes(&m.pattern);
    let owner = column_owner(&sns, m.n());
    let pat = ctx.create_named("row_indices", m.pattern.rows.clone());
    let blocks = sns
        .iter()
        .enumerate()
        .map(|(s, r)| ctx.create_named(&format!("supernode{s}"), m.cols[r.clone()].to_vec()))
        .collect();
    SuperMatrix { pattern: m.pattern.clone(), sns, owner, pat, blocks }
}

/// Read the factored supernode blocks back into a host matrix.
pub fn download_super<C: JadeCtx>(ctx: &mut C, sm: &SuperMatrix) -> SparseSym {
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(sm.pattern.n);
    for b in &sm.blocks {
        cols.extend(ctx.rd(b).clone());
    }
    SparseSym { pattern: sm.pattern.clone(), cols }
}

/// Factor one supernode's columns in place: internal updates plus the
/// external updates *within* the supernode.
fn internal_super(block: &mut [Vec<f64>], rows: &[Vec<usize>], range: &Range<usize>) {
    for ai in range.clone() {
        let li = ai - range.start;
        let positive = internal_column(&mut block[li]);
        assert!(positive, "matrix not positive definite");
        let targets: Vec<usize> = rows[ai].iter().copied().filter(|t| range.contains(t)).collect();
        for j in targets {
            let (head, tail) = block.split_at_mut(j - range.start);
            external_update(&mut tail[0], &head[li], &rows[ai], &rows[j], j);
        }
    }
}

/// Apply the external updates from source supernode `src` (final
/// values) to destination supernode `dst`.
fn external_super(
    dst_block: &mut [Vec<f64>],
    src_block: &[Vec<f64>],
    rows: &[Vec<usize>],
    src: &Range<usize>,
    dst: &Range<usize>,
) {
    for ai in src.clone() {
        let li = ai - src.start;
        for &j in rows[ai].iter().filter(|t| dst.contains(t)) {
            external_update(&mut dst_block[j - dst.start], &src_block[li], &rows[ai], &rows[j], j);
        }
    }
}

/// The supernodal Jade factorization: one `InternalSuper` task per
/// supernode, one `ExternalSuper` task per (source, destination)
/// supernode pair with a connecting entry.
pub fn factor_super_jade<C: JadeCtx>(ctx: &mut C, sm: &SuperMatrix) {
    let pat = sm.pat;
    for (s, range) in sm.sns.iter().enumerate() {
        let block_s = sm.blocks[s];
        let range_s = range.clone();
        let cost: f64 = range.clone().map(|i| (2 * sm.pattern.rows[i].len() + 20) as f64).sum();
        ctx.withonly(
            &format!("InternalSuper({s})"),
            |sp| {
                sp.rd_wr(block_s);
                sp.rd(pat);
            },
            move |c| {
                c.charge(cost);
                let pat = c.rd(&pat);
                let mut block = c.wr(&block_s);
                internal_super(&mut block, &pat, &range_s);
            },
        );
        // Destination supernodes this one updates, in ascending order.
        let mut dsts: Vec<usize> = range
            .clone()
            .flat_map(|i| sm.pattern.rows[i].iter().map(|&t| sm.owner[t]))
            .filter(|&t| t != s)
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        for t in dsts {
            let block_t = sm.blocks[t];
            let range_t = sm.sns[t].clone();
            let range_s2 = range.clone();
            let cost: f64 = range
                .clone()
                .map(|i| {
                    (2 * sm.pattern.rows[i].iter().filter(|r| sm.sns[t].contains(r)).count() * 8
                        + 10) as f64
                })
                .sum();
            ctx.withonly(
                &format!("ExternalSuper({s}->{t})"),
                |sp| {
                    sp.rd_wr(block_t);
                    sp.rd(block_s);
                    sp.rd(pat);
                },
                move |c| {
                    c.charge(cost);
                    let pat = c.rd(&pat);
                    let src = c.rd(&block_s);
                    let mut dst = c.wr(&block_t);
                    external_super(&mut dst, &src, &pat, &range_s2, &range_t);
                },
            );
        }
    }
}

/// Upload, factor supernodally, download.
pub fn factor_super_program<C: JadeCtx>(ctx: &mut C, a: &SparseSym) -> SparseSym {
    let sm = upload_super(ctx, a);
    factor_super_jade(ctx, &sm);
    download_super(ctx, &sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::serial;

    #[test]
    fn supernode_detection_basic() {
        // Dense-ish trailing block: columns 2,3,4 chain together.
        let p =
            SparsePattern::new(5, vec![vec![2], vec![3], vec![3, 4], vec![4], vec![]]).with_fill();
        let sns = supernodes(&p);
        // Every column belongs to exactly one supernode, in order.
        let covered: Vec<usize> = sns.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        // The trailing columns with nested patterns group together.
        assert!(sns.iter().any(|r| r.len() >= 2), "no multi-column supernode found: {sns:?}");
    }

    #[test]
    fn singleton_supernodes_for_empty_pattern() {
        let p = SparsePattern::new(3, vec![vec![], vec![], vec![]]);
        assert_eq!(supernodes(&p), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn supernodal_factor_matches_columnwise() {
        for seed in [3, 8] {
            let a = SparseSym::random_spd(32, 4, seed);
            let mut want = a.clone();
            serial::factor(&mut want);
            let (got, _) = jade_core::serial::run(|ctx| factor_super_program(ctx, &a));
            for i in 0..32 {
                for (g, w) in got.cols[i].iter().zip(&want.cols[i]) {
                    assert!((g - w).abs() < 1e-10, "seed {seed} col {i}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn supernodal_version_creates_fewer_tasks() {
        let a = SparseSym::random_spd(40, 5, 13);
        let (_, col_stats) =
            jade_core::serial::run(|ctx| super::super::jade::factor_program(ctx, &a));
        let (_, sn_stats) = jade_core::serial::run(|ctx| factor_super_program(ctx, &a));
        assert!(
            sn_stats.tasks_created <= col_stats.tasks_created,
            "supernodal {} vs columnwise {}",
            sn_stats.tasks_created,
            col_stats.tasks_created
        );
    }
}
