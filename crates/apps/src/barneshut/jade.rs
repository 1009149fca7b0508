//! The Jade Barnes-Hut kernel (§7: "we have implemented several
//! computational kernels, including ... the Barnes-Hut algorithm for
//! solving the N-body problem").
//!
//! Bodies are decomposed into group objects; a `BuildTree` task reads
//! every group and writes the shared octree; one `Force` task per
//! group reads the (replicated) tree and integrates its own group —
//! the tree is read-shared so the runtime replicates it to every
//! machine, while the group objects migrate to their force tasks.

use jade_core::prelude::*;

use super::body::Body;
use super::tree::Octree;

/// Work units per body-tree interaction (≈ log n cell visits).
const FORCE_COST_PER_BODY: f64 = 600.0;

/// Shared-object handles for a Barnes-Hut run.
#[derive(Clone)]
pub struct BhHandles {
    /// Contiguous body groups.
    pub groups: Vec<Shared<Vec<Body>>>,
    /// The shared octree, rebuilt each step.
    pub tree: Shared<Octree>,
}

/// Upload bodies split into `groups` contiguous chunks.
pub fn upload<C: JadeCtx>(ctx: &mut C, bodies: &[Body], groups: usize) -> BhHandles {
    let g = groups.max(1).min(bodies.len().max(1));
    let chunk = bodies.len().div_ceil(g);
    let groups = bodies
        .chunks(chunk.max(1))
        .enumerate()
        .map(|(i, c)| ctx.create_named(&format!("bodies{i}"), c.to_vec()))
        .collect();
    BhHandles { groups, tree: ctx.create_named("octree", Octree::default()) }
}

/// One Barnes-Hut timestep: rebuild the tree, then force+integrate
/// each group in parallel.
pub fn step<C: JadeCtx>(ctx: &mut C, h: &BhHandles, n: usize, theta: f64, dt: f64) {
    let tree = h.tree;
    // Build the octree from all groups.
    {
        let spec_groups = h.groups.clone();
        let body_groups = h.groups.clone();
        ctx.withonly(
            "BuildTree",
            |s| {
                s.rd_wr(tree);
                for &g in &spec_groups {
                    s.rd(g);
                }
            },
            move |c| {
                c.charge((n * 40) as f64);
                let mut all: Vec<Body> = Vec::with_capacity(n);
                for g in &body_groups {
                    all.extend(c.rd(g).iter().copied());
                }
                *c.wr(&tree) = Octree::build(&all);
            },
        );
    }
    // Force + integrate per group. Each group's bodies keep globally
    // consistent indices so self-interaction is excluded.
    let mut base = 0usize;
    for (gi, &group) in h.groups.iter().enumerate() {
        let group_base = base;
        // Group sizes are fixed at upload; recompute the chunk length
        // the same way upload did.
        let chunk = {
            let g = h.groups.len();
            n.div_ceil(g).max(1)
        };
        let len = chunk.min(n - base.min(n));
        base += len;
        ctx.withonly(
            &format!("Force({gi})"),
            |s| {
                s.rd(tree);
                s.rd_wr(group);
            },
            move |c| {
                c.charge(len as f64 * FORCE_COST_PER_BODY);
                let t = c.rd(&tree);
                let mut bodies = c.wr(&group);
                for (li, b) in bodies.iter_mut().enumerate() {
                    let a = t.accel(&b.pos, (group_base + li) as i64, theta);
                    for k in 0..3 {
                        b.vel[k] += a[k] * dt;
                        b.pos[k] += b.vel[k] * dt;
                    }
                }
            },
        );
    }
}

/// Run `steps` Barnes-Hut timesteps under Jade; returns the final
/// bodies.
pub fn run_jade<C: JadeCtx>(
    ctx: &mut C,
    bodies: &[Body],
    groups: usize,
    steps: usize,
    theta: f64,
    dt: f64,
) -> Vec<Body> {
    let h = upload(ctx, bodies, groups);
    for _ in 0..steps {
        step(ctx, &h, bodies.len(), theta, dt);
    }
    let mut out = Vec::with_capacity(bodies.len());
    for g in &h.groups {
        out.extend(ctx.rd(g).iter().copied());
    }
    out
}

/// Serial reference with the identical tree/traversal code.
pub fn run_serial(bodies: &[Body], steps: usize, theta: f64, dt: f64) -> Vec<Body> {
    let mut bodies = bodies.to_vec();
    for _ in 0..steps {
        let tree = Octree::build(&bodies);
        for (i, b) in bodies.iter_mut().enumerate() {
            let a = tree.accel(&b.pos, i as i64, theta);
            for k in 0..3 {
                b.vel[k] += a[k] * dt;
                b.pos[k] += b.vel[k] * dt;
            }
        }
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barneshut::body::cluster;

    #[test]
    fn jade_matches_serial_reference_bitwise() {
        let bodies = cluster(120, 4);
        let want = run_serial(&bodies, 2, 0.6, 0.01);
        for groups in [1, 3, 8] {
            let (got, _) =
                jade_core::serial::run(|ctx| run_jade(ctx, &bodies, groups, 2, 0.6, 0.01));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.pos, w.pos, "groups={groups}");
                assert_eq!(g.vel, w.vel);
            }
        }
    }

    #[test]
    fn force_tasks_depend_only_on_tree() {
        let bodies = cluster(40, 1);
        let (_, trace) =
            jade_core::serial::run_traced(|ctx| run_jade(ctx, &bodies, 4, 1, 0.6, 0.01));
        for &t in trace.tasks() {
            if trace.label(t).starts_with("Force(") {
                let preds: Vec<String> = trace
                    .predecessors(t)
                    .into_iter()
                    .filter(|p| !p.is_root())
                    .map(|p| trace.label(p).to_string())
                    .collect();
                assert_eq!(preds, vec!["BuildTree".to_string()], "{}", trace.label(t));
            }
        }
    }

    #[test]
    fn bodies_move_under_gravity() {
        let bodies = cluster(30, 6);
        let (after, _) = jade_core::serial::run(|ctx| run_jade(ctx, &bodies, 2, 3, 0.7, 0.01));
        assert!(bodies.iter().zip(&after).any(|(b, a)| b.pos != a.pos));
    }
}
