//! The applications' kernel registry: every paper workload's task
//! bodies as named pure functions over flat `f64` slices, so the
//! distributed backend can ship them to worker machines as
//! [`TaskBodyIr`](jade_core::ir::TaskBodyIr) programs.
//!
//! Each kernel is the *same arithmetic as the closure it mirrors* —
//! the cholesky kernels call [`crate::cholesky::serial`]'s update
//! helpers, the LWS kernels call [`crate::lws::model`]'s
//! `block_forces`/`sum_energies`/`integrate`, as the closures do — so
//! the IR path and the closure fallback produce bit-identical values,
//! which is what keeps every
//! backend equal to the serial oracle. Shape data the kernel cannot
//! read from an object (sparsity patterns, block geometry, timestep
//! sizes) rides in the argument stream as `IrSrc::Lit` values: the
//! main task resolves it while generating the spec, exactly as it
//! resolves the access declarations themselves. Integers embedded
//! this way are exact as `f64` below 2⁵³.
//!
//! Argument layouts are documented per kernel. The generating code in
//! `cholesky::jade`, `lws::jade` and `pmake::jade` is the only
//! producer, and the conformance suites run every program on every
//! backend against the serial oracle, so layout and kernel cannot
//! drift apart silently.

use jade_core::kernels::KernelRegistry;

use crate::cholesky::serial::external_update;
use crate::lws::model::{block_forces, block_len, integrate, sum_energies};

/// The builtin registry extended with every application kernel.
/// Hand this to the distributed backend (coordinator *and* worker
/// binary) when running the paper workloads.
pub fn registry() -> KernelRegistry {
    KernelRegistry::builtin()
        .with("chol_internal", chol_internal)
        .with("chol_external", chol_external)
        .with("lws_forces", lws_forces)
        .with("lws_reduce", lws_reduce)
        .with("lws_integrate", lws_integrate)
        .with("pmake_build", pmake_build)
}

/// Sparse Cholesky `InternalUpdate`: `[col..] -> [col/√col[0]..]`.
///
/// Mirrors the closure in `cholesky::jade::factor_jade` exactly: the
/// whole column — *including* the diagonal — is divided by the square
/// root of the diagonal (`d/√d`, not `√d`, which can differ in the
/// last bit). Only valid (positive-definite) columns reach this
/// kernel; non-finite input propagates NaN rather than panicking a
/// worker.
fn chol_internal(args: &[f64]) -> Vec<f64> {
    let mut col = args.to_vec();
    if let Some(&head) = col.first() {
        let d = head.sqrt();
        for v in col.iter_mut() {
            *v /= d;
        }
    }
    col
}

/// Sparse Cholesky `ExternalUpdate`.
///
/// Layout: `[j, |rows_i|, rows_i.., |rows_j|, rows_j.., col_i..,
/// col_j..]` where `col_i` has `|rows_i| + 1` entries (diagonal
/// first) and `col_j` is the remainder. Returns the updated `col_j`.
/// The row-index lists are the sparsity pattern the main task reads
/// from its host copy while generating the spec (`IrSrc::Lit`).
fn chol_external(args: &[f64]) -> Vec<f64> {
    let j = args[0] as usize;
    let ri_len = args[1] as usize;
    let mut p = 2;
    let rows_i: Vec<usize> = args[p..p + ri_len].iter().map(|&x| x as usize).collect();
    p += ri_len;
    let rj_len = args[p] as usize;
    p += 1;
    let rows_j: Vec<usize> = args[p..p + rj_len].iter().map(|&x| x as usize).collect();
    p += rj_len;
    let col_i = &args[p..p + ri_len + 1];
    p += ri_len + 1;
    let mut col_j: Vec<f64> = args[p..].to_vec();
    external_update(&mut col_j, col_i, &rows_i, &rows_j, j);
    col_j
}

/// LWS owner-computes force task for one interleaved block.
///
/// Layout: `[k, blocks, owned, boxl, pos(3·n)..]` →
/// `[forces(3·owned).., energy]`: [`block_forces`] over the
/// unflattened positions.
fn lws_forces(args: &[f64]) -> Vec<f64> {
    let k = args[0] as usize;
    let blocks = args[1] as usize;
    let owned = args[2] as usize;
    let boxl = args[3];
    let pos: Vec<[f64; 3]> = args[4..].chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let mut forces = vec![[0.0f64; 3]; owned];
    let energy = block_forces(&pos, k, blocks, boxl, &mut forces);
    let mut out: Vec<f64> = forces.into_iter().flatten().collect();
    out.push(energy);
    out
}

/// LWS scalar energy reduction.
///
/// Layout: `[blocks, pe_0..pe_{blocks-1}, log..]` → `[log.., Σpe]`:
/// the per-block partial energies are summed in block order
/// ([`sum_energies`]) and appended to the energy log.
fn lws_reduce(args: &[f64]) -> Vec<f64> {
    let blocks = args[0] as usize;
    let mut log: Vec<f64> = args[1 + blocks..].to_vec();
    log.push(sum_energies(args[1..1 + blocks].iter().copied()));
    log
}

/// LWS Euler integration over the gathered per-block forces.
///
/// Layout: `[n, blocks, dt, boxl, f_0(3·len_0).., …,
/// f_{blocks-1}(..).., pos(3·n).., vel(3·n)..]` →
/// `[pos'(3·n).., vel'(3·n)..]`. Block `k`'s forces land on molecules
/// `k, k+blocks, …` (the interleaving `lws::jade` uses); the
/// per-block lengths are derived from `(n, blocks)`.
fn lws_integrate(args: &[f64]) -> Vec<f64> {
    let n = args[0] as usize;
    let blocks = args[1] as usize;
    let dt = args[2];
    let boxl = args[3];
    let mut p = 4;
    let mut flat = vec![[0.0f64; 3]; n];
    for k in 0..blocks {
        let len = block_len(n, blocks, k);
        for slot in 0..len {
            let c = &args[p + 3 * slot..p + 3 * slot + 3];
            flat[k + slot * blocks] = [c[0], c[1], c[2]];
        }
        p += 3 * len;
    }
    let mut pos: Vec<[f64; 3]> =
        args[p..p + 3 * n].chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    p += 3 * n;
    let mut vel: Vec<[f64; 3]> =
        args[p..p + 3 * n].chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    integrate(&mut pos, &mut vel, &flat, dt, boxl);
    let mut out = Vec::with_capacity(6 * n);
    for q in &pos {
        out.extend_from_slice(q);
    }
    for q in &vel {
        out.extend_from_slice(q);
    }
    out
}

/// `pmake` rebuild command: stamp the target newer than every
/// prerequisite.
///
/// Layout: `[ndeps, out_size, dep_0.version, dep_0.size, …]` →
/// `[max(version)+1, out_size]` (a lowered
/// [`FileState`](crate::pmake::makefile::FileState)). Versions stay
/// exact: they are small integers, far below 2⁵³.
fn pmake_build(args: &[f64]) -> Vec<f64> {
    let ndeps = args[0] as usize;
    let out_size = args[1];
    let mut newv = 0u64;
    for d in 0..ndeps {
        newv = newv.max(args[2 + 2 * d] as u64);
    }
    vec![(newv + 1) as f64, out_size]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::matrix::SparseSym;
    use crate::cholesky::serial as chol;
    use crate::lws::model::{pair_interaction, WaterSystem};

    #[test]
    fn registry_extends_builtin() {
        let reg = registry();
        assert!(reg.knows_all([
            "chol_internal",
            "chol_external",
            "lws_forces",
            "lws_reduce",
            "lws_integrate",
            "pmake_build",
            "sum",
            "id",
        ]));
    }

    #[test]
    fn chol_internal_matches_serial_update_bitwise() {
        let a = SparseSym::random_spd(12, 2, 5);
        for (i, col) in a.cols.iter().enumerate() {
            if !col.is_empty() && col[0] > 0.0 {
                let mut cols = a.cols.clone();
                chol::internal_update(&mut cols, i);
                assert_eq!(chol_internal(col), cols[i], "column {i}");
            }
        }
    }

    #[test]
    fn chol_external_matches_serial_update_bitwise() {
        // Drive a real factorization sequence so the kernel sees the
        // exact intermediate columns the Jade program would ship.
        let a = SparseSym::paper_example();
        let mut cols = a.cols.clone();
        let rows = &a.pattern.rows;
        for i in 0..a.pattern.n {
            chol::internal_update(&mut cols, i);
            for &j in &rows[i] {
                let mut args = vec![j as f64, rows[i].len() as f64];
                args.extend(rows[i].iter().map(|&r| r as f64));
                args.push(rows[j].len() as f64);
                args.extend(rows[j].iter().map(|&r| r as f64));
                args.extend_from_slice(&cols[i]);
                args.extend_from_slice(&cols[j]);
                let got = chol_external(&args);
                let (ci, cj) = (cols[i].clone(), &mut cols[j]);
                external_update(cj, &ci, &rows[i], &rows[j], j);
                assert_eq!(&got, cj, "external {i}->{j}");
            }
        }
        // The driven factorization itself must equal the library's.
        let mut want = a.clone();
        chol::factor(&mut want);
        assert_eq!(cols, want.cols);
    }

    #[test]
    fn lws_forces_counts_every_pair_once() {
        let sys = WaterSystem::new(24, 3);
        let n = sys.n();
        let flat: Vec<f64> = sys.pos.iter().flatten().copied().collect();
        let blocks = 3usize;
        let mut total = 0.0;
        for k in 0..blocks {
            let owned = block_len(n, blocks, k);
            let mut args = vec![k as f64, blocks as f64, owned as f64, sys.boxl];
            args.extend_from_slice(&flat);
            let out = lws_forces(&args);
            assert_eq!(out.len(), 3 * owned + 1);
            total += out[out.len() - 1];
        }
        // Summed per-block energies cover each pair exactly once.
        let mut want = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                want += pair_interaction(&sys.pos[i], &sys.pos[j], sys.boxl).1;
            }
        }
        assert!((total - want).abs() < 1e-9, "{total} vs {want}");
    }

    #[test]
    fn lws_integrate_round_trips_block_gather() {
        let sys = WaterSystem::new(10, 9);
        let n = sys.n();
        let blocks = 3usize;
        // Forces: f_i = [i, -i, 0.5i], stored interleaved by block.
        let mut args = vec![n as f64, blocks as f64, 0.01, sys.boxl];
        for k in 0..blocks {
            for slot in 0..block_len(n, blocks, k) {
                let i = (k + slot * blocks) as f64;
                args.extend_from_slice(&[i, -i, 0.5 * i]);
            }
        }
        args.extend(sys.pos.iter().flatten());
        args.extend(sys.vel.iter().flatten());
        let out = lws_integrate(&args);
        assert_eq!(out.len(), 6 * n);
        let mut pos = sys.pos.clone();
        let mut vel = sys.vel.clone();
        let forces: Vec<[f64; 3]> = (0..n).map(|i| [i as f64, -(i as f64), 0.5 * i as f64]).collect();
        integrate(&mut pos, &mut vel, &forces, 0.01, sys.boxl);
        let want: Vec<f64> =
            pos.iter().flatten().chain(vel.iter().flatten()).copied().collect();
        assert_eq!(out, want);
    }

    #[test]
    fn pmake_build_stamps_past_every_dep() {
        // deps at versions 3 and 7, sizes irrelevant to the stamp.
        let out = pmake_build(&[2.0, 4096.0, 3.0, 100.0, 7.0, 200.0]);
        assert_eq!(out, vec![8.0, 4096.0]);
        // No deps: version 1, like the closure's max().unwrap_or(0)+1.
        assert_eq!(pmake_build(&[0.0, 64.0]), vec![1.0, 64.0]);
    }
}
