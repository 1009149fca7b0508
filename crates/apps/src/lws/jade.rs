//! The Jade LWS: parallelize the O(n²) pairwise phase (§7.3).
//!
//! The decomposition is the replicated-data, owner-computes scheme
//! distributed molecular dynamics uses (and that makes the coarse
//! tasks the paper's port needs): molecule positions are one
//! read-shared object that the runtime replicates to every machine;
//! each `Forces(k)` task *owns* an interleaved block of molecules,
//! computes every interaction involving them, and writes only its own
//! block's force object. Newton's-third-law partner writes are traded
//! for recomputation so there is no n-sized force reduction on the
//! network — only the scalar per-task potential energies are reduced.
//! The O(n) reduction and integration phases run as single tasks,
//! "the O(n) phases serially" as in the paper.
//!
//! The accumulation order into each molecule's force is identical to
//! the serial program's (ascending partner index with exact
//! antisymmetry), so positions evolve **bitwise identically** to the
//! plain serial code.

use jade_core::prelude::*;

use super::model::{block_forces, block_len, scatter_block, sum_energies, WaterSystem, PAIR_COST};

/// Shared-object handles for one LWS run.
#[derive(Clone)]
pub struct LwsHandles {
    /// Molecule positions (read by every force task).
    pub pos: Shared<Vec<[f64; 3]>>,
    /// Molecule velocities (integration only).
    pub vel: Shared<Vec<[f64; 3]>>,
    /// Per-block force arrays: block `k` holds forces for molecules
    /// `k, k+B, k+2B, ...` (interleaved for load balance).
    pub forces: Vec<Shared<Vec<[f64; 3]>>>,
    /// Per-task partial potential energies (pairs counted once).
    pub penergy: Vec<Shared<f64>>,
    /// Per-step total potential energies, appended by `Reduce`.
    pub energy_log: Shared<Vec<f64>>,
    /// Periodic box size.
    pub boxl: f64,
}

/// Allocate the shared objects for a system decomposed into `blocks`
/// force tasks per step.
pub fn upload<C: JadeCtx>(ctx: &mut C, sys: &WaterSystem, blocks: usize) -> LwsHandles {
    let n = sys.n();
    LwsHandles {
        pos: ctx.create_named("positions", sys.pos.clone()),
        vel: ctx.create_named("velocities", sys.vel.clone()),
        forces: (0..blocks)
            .map(|k| {
                ctx.create_named(&format!("forces{k}"), vec![[0.0f64; 3]; block_len(n, blocks, k)])
            })
            .collect(),
        penergy: (0..blocks).map(|k| ctx.create_named(&format!("penergy{k}"), 0.0f64)).collect(),
        energy_log: ctx.create_named("energy_log", Vec::new()),
        boxl: sys.boxl,
    }
}

/// Create the tasks for one timestep: `blocks` owner-computes force
/// tasks, one (scalar) reduction, one integration.
///
/// Each task attaches a portable body IR over the kernels in
/// [`crate::kernels`] (same arithmetic as the closures, bit for bit).
/// Block geometry and the timestep ride as IR literals; a task whose
/// kernel produces several objects' values in one output (forces +
/// energy, positions + velocities) scatters it with `id` steps over
/// temporary slices.
pub fn timestep<C: JadeCtx>(ctx: &mut C, h: &LwsHandles, n: usize, dt: f64) {
    let blocks = h.forces.len();
    let boxl = h.boxl;
    // O(n²) pairwise phase.
    for k in 0..blocks {
        let pos = h.pos;
        let fk = h.forces[k];
        let pe = h.penergy[k];
        let owned = block_len(n, blocks, k);
        // decl 0 = pos (rd), decl 1 = forces (wr), decl 2 = energy (wr).
        let ir = TaskBodyIr::new()
            .step(
                "lws_forces",
                vec![IrSrc::Lit(vec![k as f64, blocks as f64, owned as f64, boxl]), IrSrc::Obj(0)],
                IrDst::Tmp(0),
            )
            .step(
                "id",
                vec![IrSrc::TmpSlice { tmp: 0, start: 0, len: 3 * owned as u32 }],
                IrDst::Obj(1),
            )
            .step(
                "id",
                vec![IrSrc::TmpSlice { tmp: 0, start: 3 * owned as u32, len: 1 }],
                IrDst::Obj(2),
            );
        ctx.withonly_ir(
            &format!("Forces({k})"),
            |s| {
                s.rd(pos);
                s.wr(fk);
                s.wr(pe);
            },
            ir,
            move |c| {
                // Each owned molecule interacts with all n−1 others.
                c.charge((owned * (n.saturating_sub(1))) as f64 * PAIR_COST);
                let pos = c.rd(&pos);
                let energy = block_forces(&pos, k, blocks, boxl, &mut c.wr(&fk));
                *c.wr(&pe) = energy;
            },
        );
    }
    // Scalar energy reduction (serial O(blocks) phase).
    {
        let energy_log = h.energy_log;
        let spec_pe = h.penergy.clone();
        let body_pe = h.penergy.clone();
        // decl 0 = energy_log (rd_wr), decls 1..=blocks = the partial
        // energies in block order (the closure's summation order).
        let mut rargs = vec![IrSrc::Lit(vec![blocks as f64])];
        rargs.extend((1..=blocks).map(|d| IrSrc::Obj(d as u32)));
        rargs.push(IrSrc::Obj(0));
        let ir = TaskBodyIr::new().step("lws_reduce", rargs, IrDst::Obj(0));
        ctx.withonly_ir(
            "Reduce",
            |s| {
                s.rd_wr(energy_log);
                for &p in &spec_pe {
                    s.rd(p);
                }
            },
            ir,
            move |c| {
                c.charge(body_pe.len() as f64 * 4.0);
                let energy = sum_energies(body_pe.iter().map(|ek| *c.rd(ek)));
                c.wr(&energy_log).push(energy);
            },
        );
    }
    // Integration (serial O(n) phase).
    {
        let pos = h.pos;
        let vel = h.vel;
        let spec_forces = h.forces.clone();
        let body_forces = h.forces.clone();
        // decl 0 = pos, decl 1 = vel (both rd_wr), decls 2.. = the
        // per-block forces. One kernel emits pos'++vel'; two id steps
        // scatter the halves.
        let mut iargs = vec![IrSrc::Lit(vec![n as f64, blocks as f64, dt, boxl])];
        iargs.extend((0..blocks).map(|k| IrSrc::Obj(2 + k as u32)));
        iargs.push(IrSrc::Obj(0));
        iargs.push(IrSrc::Obj(1));
        let ir = TaskBodyIr::new()
            .step("lws_integrate", iargs, IrDst::Tmp(0))
            .step(
                "id",
                vec![IrSrc::TmpSlice { tmp: 0, start: 0, len: 3 * n as u32 }],
                IrDst::Obj(0),
            )
            .step(
                "id",
                vec![IrSrc::TmpSlice { tmp: 0, start: 3 * n as u32, len: 3 * n as u32 }],
                IrDst::Obj(1),
            );
        ctx.withonly_ir(
            "Integrate",
            |s| {
                s.rd_wr(pos);
                s.rd_wr(vel);
                for &f in &spec_forces {
                    s.rd(f);
                }
            },
            ir,
            move |c| {
                c.charge((n * 12) as f64);
                let blocks = body_forces.len();
                let mut flat = vec![[0.0f64; 3]; n];
                for (k, fk) in body_forces.iter().enumerate() {
                    scatter_block(&mut flat, k, blocks, c.rd(fk).iter().copied());
                }
                let mut p = c.wr(&pos);
                let mut v = c.wr(&vel);
                super::model::integrate(&mut p, &mut v, &flat, dt, boxl);
            },
        );
    }
}

/// Run `steps` timesteps of the Jade LWS; returns the per-step
/// potential energies and the final system state.
pub fn run_jade<C: JadeCtx>(
    ctx: &mut C,
    sys: &WaterSystem,
    blocks: usize,
    steps: usize,
    dt: f64,
) -> (Vec<f64>, WaterSystem) {
    let n = sys.n();
    let blocks = blocks.clamp(1, n.max(1));
    let h = upload(ctx, sys, blocks);
    for _ in 0..steps {
        timestep(ctx, &h, n, dt);
    }
    let energies = ctx.rd(&h.energy_log).clone();
    let final_sys =
        WaterSystem { pos: ctx.rd(&h.pos).clone(), vel: ctx.rd(&h.vel).clone(), boxl: sys.boxl };
    (energies, final_sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lws::serial;

    #[test]
    fn jade_lws_positions_match_serial_bitwise() {
        let sys = WaterSystem::new(60, 9);
        let mut ref_sys = sys.clone();
        let ref_e = serial::run(&mut ref_sys, 3, 0.002);
        let ((jade_e, jade_sys), _) =
            jade_core::serial::run(|ctx| run_jade(ctx, &sys, 4, 3, 0.002));
        assert_eq!(jade_e.len(), 3);
        // Energies are summed in a different (per-block) order:
        // tolerance. Positions accumulate identically: bitwise.
        for (a, b) in jade_e.iter().zip(&ref_e) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(jade_sys.pos, ref_sys.pos, "positions must be bitwise identical");
        assert_eq!(jade_sys.vel, ref_sys.vel);
    }

    #[test]
    fn block_count_does_not_change_positions() {
        let sys = WaterSystem::new(40, 2);
        let ((e2, s2), _) = jade_core::serial::run(|ctx| run_jade(ctx, &sys, 2, 2, 0.002));
        let ((e8, s8), _) = jade_core::serial::run(|ctx| run_jade(ctx, &sys, 8, 2, 0.002));
        assert_eq!(s2.pos, s8.pos);
        for (a, b) in e2.iter().zip(&e8) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn task_count_per_step() {
        let sys = WaterSystem::new(30, 1);
        let (_, stats) = jade_core::serial::run(|ctx| run_jade(ctx, &sys, 5, 2, 0.002));
        // Per step: 5 force tasks + reduce + integrate.
        assert_eq!(stats.tasks_created, 2 * (5 + 2));
    }

    #[test]
    fn interleaved_blocks_cover_all_molecules() {
        for (n, b) in [(10, 3), (12, 4), (7, 7), (5, 1)] {
            let total: usize = (0..b).map(|k| block_len(n, b, k)).sum();
            assert_eq!(total, n, "n={n} blocks={b}");
        }
    }
}
