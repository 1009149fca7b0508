//! Parallel octree construction: the tree build itself as a Jade task
//! graph — a partition task, one subtree task per octant, and a merge
//! task. Combined with the per-group force tasks this makes the whole
//! Barnes-Hut timestep parallel.

use jade_core::prelude::*;

use super::body::Body;
use super::jade::BhHandles;
use super::tree::Octree;

/// Which octant of the cube centered at `center` contains `p`.
fn octant_of(center: &[f64; 3], p: &[f64; 3]) -> usize {
    usize::from(p[0] >= center[0])
        | (usize::from(p[1] >= center[1]) << 1)
        | (usize::from(p[2] >= center[2]) << 2)
}

fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let q = half / 2.0;
    [
        center[0] + if oct & 1 != 0 { q } else { -q },
        center[1] + if oct & 2 != 0 { q } else { -q },
        center[2] + if oct & 4 != 0 { q } else { -q },
    ]
}

/// Create the parallel tree-build tasks: `Partition` reads all body
/// groups and splits them into eight tagged octant lists; eight
/// `BuildOctant(k)` tasks build independent subtrees; `MergeTree`
/// stitches them into the shared octree.
pub fn build_tree_parallel<C: JadeCtx>(ctx: &mut C, h: &BhHandles, n: usize) {
    let tree = h.tree;
    // One shared object per octant's tagged body list, plus the cube.
    let octants: Vec<Shared<Vec<(i64, Body)>>> =
        (0..8).map(|k| ctx.create_named(&format!("octant{k}"), Vec::new())).collect();
    let cube: Shared<([f64; 3], f64)> = ctx.create_named("cube", ([0.0; 3], 0.0));

    // Partition.
    {
        let spec_groups = h.groups.clone();
        let body_groups = h.groups.clone();
        let spec_octants = octants.clone();
        let body_octants = octants.clone();
        ctx.withonly(
            "Partition",
            |s| {
                for &g in &spec_groups {
                    s.rd(g);
                }
                for &o in &spec_octants {
                    s.wr(o);
                }
                s.wr(cube);
            },
            move |c| {
                c.charge((n * 8) as f64);
                let mut all: Vec<Body> = Vec::with_capacity(n);
                for g in &body_groups {
                    all.extend(c.rd(g).iter().copied());
                }
                let (center, half) = Octree::bounding_cube(&all);
                *c.wr(&cube) = (center, half);
                let mut buckets: Vec<Vec<(i64, Body)>> = vec![Vec::new(); 8];
                for (i, b) in all.into_iter().enumerate() {
                    buckets[octant_of(&center, &b.pos)].push((i as i64, b));
                }
                for (bucket, out) in buckets.into_iter().zip(&body_octants) {
                    *c.wr(out) = bucket;
                }
            },
        );
    }
    // Eight independent subtree builds.
    let mut subtrees: Vec<Shared<Octree>> = Vec::with_capacity(8);
    for (k, &oct) in octants.iter().enumerate() {
        let subtree: Shared<Octree> = ctx.create_named(&format!("subtree{k}"), Octree::default());
        subtrees.push(subtree);
        ctx.withonly(
            &format!("BuildOctant({k})"),
            |s| {
                s.rd(oct);
                s.rd(cube);
                s.wr(subtree);
            },
            move |c| {
                let tagged = c.rd(&oct).clone();
                c.charge((tagged.len() * 40 + 20) as f64);
                let (center, half) = *c.rd(&cube);
                let sub_center = child_center(&center, half, k);
                *c.wr(&subtree) = Octree::build_in_cube(&tagged, sub_center, half / 2.0);
            },
        );
    }
    // Merge.
    {
        let spec_subs = subtrees.clone();
        let body_subs = subtrees.clone();
        ctx.withonly(
            "MergeTree",
            |s| {
                for &st in &spec_subs {
                    s.rd(st);
                }
                s.rd(cube);
                s.rd_wr(tree);
            },
            move |c| {
                c.charge((n * 4 + 50) as f64);
                let (center, half) = *c.rd(&cube);
                let subs: Vec<Octree> = body_subs.iter().map(|st| c.rd(st).clone()).collect();
                *c.wr(&tree) = Octree::merge_octants(center, half, subs);
            },
        );
    }
}

/// A full timestep with the parallel tree build followed by the
/// per-group force/integration tasks of [`super::jade`].
pub fn step_partree<C: JadeCtx>(ctx: &mut C, h: &BhHandles, n: usize, theta: f64, dt: f64) {
    build_tree_parallel(ctx, h, n);
    // Reuse the force/integrate tasks from the sequential-build step.
    let tree = h.tree;
    let mut base = 0usize;
    for (gi, &group) in h.groups.iter().enumerate() {
        let chunk = n.div_ceil(h.groups.len()).max(1);
        let len = chunk.min(n - base.min(n));
        let group_base = base;
        base += len;
        ctx.withonly(
            &format!("Force({gi})"),
            |s| {
                s.rd(tree);
                s.rd_wr(group);
            },
            move |c| {
                c.charge(len as f64 * 600.0);
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

/// Run `steps` Barnes-Hut timesteps with the parallel tree build.
pub fn run_partree<C: JadeCtx>(
    ctx: &mut C,
    bodies: &[Body],
    groups: usize,
    steps: usize,
    theta: f64,
    dt: f64,
) -> Vec<Body> {
    let h = super::jade::upload(ctx, bodies, groups);
    for _ in 0..steps {
        step_partree(ctx, &h, bodies.len(), theta, dt);
    }
    let mut out = Vec::with_capacity(bodies.len());
    for g in &h.groups {
        out.extend(ctx.rd(g).iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barneshut::body::{cluster, direct_accels};

    #[test]
    fn merged_tree_matches_physics() {
        let bodies = cluster(150, 8);
        let (center, half) = Octree::bounding_cube(&bodies);
        let mut buckets: Vec<Vec<(i64, Body)>> = vec![Vec::new(); 8];
        for (i, b) in bodies.iter().enumerate() {
            buckets[octant_of(&center, &b.pos)].push((i as i64, *b));
        }
        let subs: Vec<Octree> = buckets
            .iter()
            .enumerate()
            .map(|(k, t)| Octree::build_in_cube(t, child_center(&center, half, k), half / 2.0))
            .collect();
        let merged = Octree::merge_octants(center, half, subs);
        assert_eq!(merged.nodes[0].count as usize, bodies.len());
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((merged.nodes[0].mass - total).abs() < 1e-9);
        // Exact traversal of the merged tree equals direct summation.
        let direct = direct_accels(&bodies);
        for (i, b) in bodies.iter().enumerate() {
            let a = merged.accel(&b.pos, i as i64, 1e-9);
            for k in 0..3 {
                assert!((a[k] - direct[i][k]).abs() < 1e-6, "body {i}");
            }
        }
    }

    #[test]
    fn parallel_build_step_is_deterministic() {
        let bodies = cluster(80, 3);
        let (a, stats) = jade_core::serial::run(|ctx| run_partree(ctx, &bodies, 4, 2, 0.6, 0.01));
        let (b, _) = jade_core::serial::run(|ctx| run_partree(ctx, &bodies, 4, 2, 0.6, 0.01));
        assert_eq!(a.len(), bodies.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
        }
        // Per step: partition + 8 builds + merge + 4 forces.
        assert_eq!(stats.tasks_created, 2 * (1 + 8 + 1 + 4));
    }

    #[test]
    fn parallel_build_tracks_serial_build_physics() {
        // Different tree geometry (octant cubes vs global reinsert)
        // but equivalent physics within BH accuracy.
        let bodies = cluster(120, 5);
        let serial = super::super::jade::run_serial(&bodies, 2, 0.5, 0.005);
        let (par, _) = jade_core::serial::run(|ctx| run_partree(ctx, &bodies, 4, 2, 0.5, 0.005));
        let mut worst = 0.0f64;
        for (s, p) in serial.iter().zip(&par) {
            for k in 0..3 {
                worst = worst.max((s.pos[k] - p.pos[k]).abs());
            }
        }
        assert!(worst < 1e-3, "tree-build variant drifted: {worst}");
    }
}
