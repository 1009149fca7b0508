//! Data decomposition helpers (§3.2).
//!
//! "The programmer may need to decompose data structures so that the
//! pieces can be accessed independently; for example ... to allow the
//! application to concurrently write disjoint parts of the object."
//!
//! [`PartedVec`] packages the idiom every application in this
//! repository uses by hand: scatter a vector into per-part shared
//! objects (each a unit of declaration, migration and replication),
//! operate on the parts from independent tasks, and gather the result
//! in the main task.

use crate::ctx::JadeCtx;
use crate::handle::{Object, Shared};
use crate::spec::SpecBuilder;

/// A vector decomposed into contiguous part objects.
#[derive(Clone)]
pub struct PartedVec<T: Object> {
    parts: Vec<Shared<Vec<T>>>,
    chunk: usize,
    len: usize,
}

impl<T: Object + Clone> PartedVec<T> {
    /// Scatter `data` into `n_parts` contiguous part objects (the last
    /// part may be shorter).
    pub fn scatter<C: JadeCtx>(ctx: &mut C, data: Vec<T>, n_parts: usize) -> Self {
        let len = data.len();
        let n = n_parts.clamp(1, len.max(1));
        let chunk = len.div_ceil(n).max(1);
        let parts = data
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| ctx.create_named(&format!("part{i}"), c.to_vec()))
            .collect::<Vec<_>>();
        PartedVec { parts, chunk, len }
    }

    /// Gather the parts back into one vector. The main task's reads
    /// wait, in serial order, for every task that writes a part.
    pub fn gather<C: JadeCtx>(&self, ctx: &mut C) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for p in &self.parts {
            out.extend(ctx.rd(p).iter().cloned());
        }
        out
    }
}

impl<T: Object> PartedVec<T> {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.parts.len()
    }

    /// Elements per part (except possibly the last).
    pub fn chunk_len(&self) -> usize {
        self.chunk
    }

    /// Handle of part `i`.
    pub fn part(&self, i: usize) -> Shared<Vec<T>> {
        self.parts[i]
    }

    /// All part handles.
    pub fn parts(&self) -> &[Shared<Vec<T>>] {
        &self.parts
    }

    /// Which part holds global index `idx`, and at what offset.
    pub fn locate(&self, idx: usize) -> (usize, usize) {
        (idx / self.chunk, idx % self.chunk)
    }

    /// Declare a read of every part (e.g. for a task that consumes the
    /// whole structure, like the paper's backsubst declaring every
    /// column).
    pub fn declare_rd_all(&self, s: &mut SpecBuilder) {
        for p in &self.parts {
            s.rd(*p);
        }
    }

    /// Declare a deferred read of every part (the §4.2 pipeline form).
    pub fn declare_df_rd_all(&self, s: &mut SpecBuilder) {
        for p in &self.parts {
            s.df_rd(*p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::JadeCtx;

    #[test]
    fn scatter_gather_roundtrip() {
        let data: Vec<f64> = (0..37).map(|i| i as f64).collect();
        let (got, _) = crate::serial::run(|ctx| {
            let pv = PartedVec::scatter(ctx, data.clone(), 5);
            assert_eq!(pv.len(), 37);
            assert_eq!(pv.n_parts(), 5);
            pv.gather(ctx)
        });
        assert_eq!(got, data);
    }

    #[test]
    fn disjoint_parts_update_independently() {
        let (got, stats) = crate::serial::run(|ctx| {
            let pv = PartedVec::scatter(ctx, vec![1.0f64; 24], 4);
            for i in 0..pv.n_parts() {
                let p = pv.part(i);
                ctx.withonly(
                    "scale",
                    |s| {
                        s.rd_wr(p);
                    },
                    move |c| {
                        for v in c.wr(&p).iter_mut() {
                            *v *= (i + 1) as f64;
                        }
                    },
                );
            }
            pv.gather(ctx)
        });
        assert_eq!(stats.tasks_created, 4);
        assert_eq!(&got[0..6], &[1.0; 6]);
        assert_eq!(&got[18..24], &[4.0; 6]);
    }

    #[test]
    fn locate_maps_indices() {
        let ((), _) = crate::serial::run(|ctx| {
            let pv = PartedVec::scatter(ctx, vec![0u32; 10], 3);
            // chunk = ceil(10/3) = 4 -> parts of 4,4,2.
            assert_eq!(pv.locate(0), (0, 0));
            assert_eq!(pv.locate(5), (1, 1));
            assert_eq!(pv.locate(9), (2, 1));
        });
    }

    #[test]
    fn declare_helpers_cover_all_parts() {
        crate::serial::run(|ctx| {
            let pv = PartedVec::scatter(ctx, vec![0.0f64; 8], 4);
            let out = ctx.create(0.0f64);
            let pv2 = pv.clone();
            let pv3 = pv.clone();
            ctx.withonly(
                "sum-all",
                move |s| {
                    s.rd_wr(out);
                    pv2.declare_rd_all(s);
                },
                move |c| {
                    let mut total = 0.0;
                    for i in 0..pv3.n_parts() {
                        total += c.rd(&pv3.part(i)).iter().sum::<f64>();
                    }
                    *c.wr(&out) = total;
                },
            );
        });
    }

    #[test]
    fn empty_and_single_element_edge_cases() {
        crate::serial::run(|ctx| {
            let empty: PartedVec<f64> = PartedVec::scatter(ctx, vec![], 4);
            assert!(empty.is_empty());
            assert_eq!(empty.gather(ctx), Vec::<f64>::new());
            let single = PartedVec::scatter(ctx, vec![7.0f64], 4);
            assert_eq!(single.n_parts(), 1);
            assert_eq!(single.gather(ctx), vec![7.0]);
        });
    }
}
