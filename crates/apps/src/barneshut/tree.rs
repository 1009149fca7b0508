//! The Barnes-Hut octree: build, mass summarization, and the θ-gated
//! force traversal. The tree is a [`Portable`] shared object so force
//! tasks on remote machines receive a replicated copy through the
//! typed transport.

use jade_transport::{PortDecoder, PortEncoder, Portable};

use super::body::{accel_from, Body};

/// Sentinel for "no child"/"no body".
const NONE: i64 = -1;

/// Maximum subdivision depth (guards against coincident positions).
const MAX_DEPTH: u32 = 32;

/// One octree cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctNode {
    /// Cell center.
    pub center: [f64; 3],
    /// Half edge length.
    pub half: f64,
    /// Total mass in the cell.
    pub mass: f64,
    /// Center of mass of the cell.
    pub com: [f64; 3],
    /// Child node indices (−1 = absent).
    pub children: [i64; 8],
    /// Body index if this is a singleton leaf, else −1.
    pub body: i64,
    /// Number of bodies in the cell.
    pub count: u32,
}

impl Portable for OctNode {
    fn encode(&self, enc: &mut PortEncoder) {
        self.center.encode(enc);
        enc.put_f64(self.half);
        enc.put_f64(self.mass);
        self.com.encode(enc);
        for c in self.children {
            enc.put_i64(c);
        }
        enc.put_i64(self.body);
        enc.put_u32(self.count);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        let center = <[f64; 3]>::decode(dec)?;
        let half = dec.get_f64()?;
        let mass = dec.get_f64()?;
        let com = <[f64; 3]>::decode(dec)?;
        let mut children = [NONE; 8];
        for c in children.iter_mut() {
            *c = dec.get_i64()?;
        }
        let body = dec.get_i64()?;
        let count = dec.get_u32()?;
        Ok(OctNode { center, half, mass, com, children, body, count })
    }
    fn size_hint(&self) -> usize {
        16 * 8
    }
}

/// A built octree (flat node arena, root at index 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Octree {
    /// Node arena; empty for an empty tree.
    pub nodes: Vec<OctNode>,
}

impl Portable for Octree {
    fn encode(&self, enc: &mut PortEncoder) {
        self.nodes.encode(enc);
    }
    fn decode(dec: &mut PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        Ok(Octree { nodes: Vec::<OctNode>::decode(dec)? })
    }
    fn size_hint(&self) -> usize {
        8 + self.nodes.len() * 128
    }
}

fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
    (usize::from(p[0] >= center[0]))
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

impl Octree {
    /// Bounding cube (center, half-edge) of a body set.
    pub fn bounding_cube(bodies: &[Body]) -> ([f64; 3], f64) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in bodies {
            for k in 0..3 {
                lo[k] = lo[k].min(b.pos[k]);
                hi[k] = hi[k].max(b.pos[k]);
            }
        }
        let center = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0];
        let half = (0..3).map(|k| (hi[k] - lo[k]) / 2.0).fold(1e-6f64, f64::max) * 1.0001;
        (center, half)
    }

    /// Build the tree over `bodies` (self-exclusion ids are the body
    /// positions in the slice).
    pub fn build(bodies: &[Body]) -> Octree {
        if bodies.is_empty() {
            return Octree { nodes: Vec::new() };
        }
        let (center, half) = Self::bounding_cube(bodies);
        let tagged: Vec<(i64, Body)> =
            bodies.iter().enumerate().map(|(i, b)| (i as i64, *b)).collect();
        Self::build_in_cube(&tagged, center, half)
    }

    /// Build a tree over explicitly tagged bodies inside a given cube.
    /// Used by the parallel build: octant tasks build subtrees in their
    /// assigned cube so the merged tree's geometry is well-formed.
    pub fn build_in_cube(tagged: &[(i64, Body)], center: [f64; 3], half: f64) -> Octree {
        let mut tree = Octree { nodes: Vec::new() };
        if tagged.is_empty() {
            return tree;
        }
        tree.nodes.push(OctNode {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [NONE; 8],
            body: NONE,
            count: 0,
        });
        let bodies: Vec<Body> = tagged.iter().map(|(_, b)| *b).collect();
        let ids: Vec<i64> = tagged.iter().map(|(i, _)| *i).collect();
        for local in 0..bodies.len() {
            tree.insert_local(0, local, &bodies, 0);
        }
        // Rewrite local leaf indices to the global ids, then summarize.
        for n in tree.nodes.iter_mut() {
            if n.body >= 0 {
                n.body = ids[n.body as usize];
            }
        }
        tree.summarize_tagged(0, tagged);
        tree
    }

    /// Merge per-octant subtrees (each built with [`Self::build_in_cube`]
    /// over one octant of the `(center, half)` cube) into one tree.
    pub fn merge_octants(center: [f64; 3], half: f64, subtrees: Vec<Octree>) -> Octree {
        let mut tree = Octree {
            nodes: vec![OctNode {
                center,
                half,
                mass: 0.0,
                com: [0.0; 3],
                children: [NONE; 8],
                body: NONE,
                count: 0,
            }],
        };
        let mut mass = 0.0;
        let mut com = [0.0f64; 3];
        let mut count = 0u32;
        for sub in subtrees {
            if sub.nodes.is_empty() {
                continue;
            }
            let oct = octant(&center, &sub.nodes[0].center);
            let base = tree.nodes.len() as i64;
            tree.nodes[0].children[oct] = base;
            for mut n in sub.nodes {
                for c in n.children.iter_mut() {
                    if *c >= 0 {
                        *c += base;
                    }
                }
                tree.nodes.push(n);
            }
            let root = &tree.nodes[base as usize];
            mass += root.mass;
            for k in 0..3 {
                com[k] += root.com[k] * root.mass;
            }
            count += root.count;
        }
        if mass > 0.0 {
            for k in 0..3 {
                com[k] /= mass;
            }
        }
        tree.nodes[0].mass = mass;
        tree.nodes[0].com = com;
        tree.nodes[0].count = count;
        tree
    }

    fn ensure_child(&mut self, node: usize, pos: &[f64; 3]) -> usize {
        let oct = octant(&self.nodes[node].center, pos);
        let child = self.nodes[node].children[oct];
        if child != NONE {
            return child as usize;
        }
        let c = self.nodes.len();
        let center = child_center(&self.nodes[node].center, self.nodes[node].half, oct);
        let half = self.nodes[node].half / 2.0;
        self.nodes.push(OctNode {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [NONE; 8],
            body: NONE,
            count: 0,
        });
        self.nodes[node].children[oct] = c as i64;
        c
    }

    fn insert_local(&mut self, node: usize, bi: usize, bodies: &[Body], depth: u32) {
        self.insert_at(node, bi as i64, bodies, depth)
    }

    fn insert_at(&mut self, node: usize, bi: i64, bodies: &[Body], depth: u32) {
        if self.nodes[node].count == 0 {
            self.nodes[node].count = 1;
            self.nodes[node].body = bi;
            return;
        }
        if depth >= MAX_DEPTH {
            // Depth cap (coincident positions): aggregate leaf; the
            // first body stays as representative, summarize() weights
            // it by the count.
            self.nodes[node].count += 1;
            return;
        }
        if self.nodes[node].count == 1 {
            // Split the singleton leaf: push the resident body down.
            let old = self.nodes[node].body;
            self.nodes[node].body = NONE;
            if old >= 0 {
                let old_pos = bodies[old as usize].pos;
                let c = self.ensure_child(node, &old_pos);
                self.insert_at(c, old, bodies, depth + 1);
            }
        }
        self.nodes[node].count += 1;
        let pos = bodies[bi as usize].pos;
        let c = self.ensure_child(node, &pos);
        self.insert_at(c, bi, bodies, depth + 1);
    }

    fn summarize_tagged(&mut self, node: usize, tagged: &[(i64, Body)]) -> (f64, [f64; 3]) {
        let n = self.nodes[node];
        let mut mass = 0.0;
        let mut com = [0.0f64; 3];
        if n.body >= 0 {
            let b = &tagged
                .iter()
                .find(|(id, _)| *id == n.body)
                .expect("leaf id present in body set")
                .1;
            // Aggregate leaves from the depth cap: weight by count.
            let w = n.count as f64;
            mass += b.mass * w;
            for k in 0..3 {
                com[k] += b.pos[k] * b.mass * w;
            }
        }
        for oct in 0..8 {
            let c = n.children[oct];
            if c >= 0 {
                let (m, cm) = self.summarize_tagged(c as usize, tagged);
                mass += m;
                for k in 0..3 {
                    com[k] += cm[k] * m;
                }
            }
        }
        if mass > 0.0 {
            for k in 0..3 {
                com[k] /= mass;
            }
        }
        let node_ref = &mut self.nodes[node];
        node_ref.mass = mass;
        node_ref.com = com;
        (mass, com)
    }

    /// Barnes-Hut acceleration at `pos`, excluding `self_body` if it
    /// is encountered as a singleton leaf.
    pub fn accel(&self, pos: &[f64; 3], self_body: i64, theta: f64) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        if self.nodes.is_empty() {
            return acc;
        }
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            let n = &self.nodes[node];
            if n.count == 0 || n.mass == 0.0 {
                continue;
            }
            if n.count == 1 {
                if n.body == self_body {
                    continue;
                }
                let a = accel_from(pos, &n.com, n.mass);
                for k in 0..3 {
                    acc[k] += a[k];
                }
                continue;
            }
            let dx = n.com[0] - pos[0];
            let dy = n.com[1] - pos[1];
            let dz = n.com[2] - pos[2];
            let dist = (dx * dx + dy * dy + dz * dz).sqrt();
            if (2.0 * n.half) / (dist + 1e-12) < theta {
                let a = accel_from(pos, &n.com, n.mass);
                for k in 0..3 {
                    acc[k] += a[k];
                }
            } else {
                let mut any_child = false;
                for oct in (0..8).rev() {
                    let c = n.children[oct];
                    if c >= 0 {
                        stack.push(c as usize);
                        any_child = true;
                    }
                }
                if !any_child {
                    // Aggregate leaf (depth cap): treat as point mass.
                    if n.body != self_body {
                        let a = accel_from(pos, &n.com, n.mass);
                        for k in 0..3 {
                            acc[k] += a[k];
                        }
                    }
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barneshut::body::{cluster, direct_accels};

    #[test]
    fn tree_counts_all_bodies() {
        let bodies = cluster(100, 5);
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count as usize, 100);
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((tree.nodes[0].mass - total_mass).abs() < 1e-9);
    }

    #[test]
    fn com_matches_weighted_mean() {
        let bodies = cluster(64, 9);
        let tree = Octree::build(&bodies);
        let m: f64 = bodies.iter().map(|b| b.mass).sum();
        for k in 0..3 {
            let want: f64 = bodies.iter().map(|b| b.pos[k] * b.mass).sum::<f64>() / m;
            assert!((tree.nodes[0].com[k] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn low_theta_matches_direct_summation() {
        let bodies = cluster(80, 2);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies);
        for (i, b) in bodies.iter().enumerate() {
            // theta -> 0 forces full traversal: exact (up to fp order).
            let a = tree.accel(&b.pos, i as i64, 1e-9);
            for k in 0..3 {
                assert!(
                    (a[k] - direct[i][k]).abs() < 1e-6,
                    "body {i} axis {k}: {} vs {}",
                    a[k],
                    direct[i][k]
                );
            }
        }
    }

    #[test]
    fn moderate_theta_approximates_direct() {
        let bodies = cluster(200, 7);
        let tree = Octree::build(&bodies);
        let direct = direct_accels(&bodies);
        // Normalize by the mean force magnitude: bodies near the
        // center of mass have near-zero net force, which would blow up
        // a per-body relative metric.
        let mean_mag: f64 =
            direct.iter().map(|f| f.iter().map(|x| x * x).sum::<f64>().sqrt()).sum::<f64>()
                / direct.len() as f64;
        let mut worst = 0.0f64;
        for (i, b) in bodies.iter().enumerate() {
            let a = tree.accel(&b.pos, i as i64, 0.5);
            let err: f64 = (0..3).map(|k| (a[k] - direct[i][k]).powi(2)).sum::<f64>().sqrt();
            worst = worst.max(err / mean_mag);
        }
        assert!(worst < 0.05, "normalized force error {worst}");
    }

    #[test]
    fn tree_is_portable() {
        use jade_transport::{roundtrip_same, DataLayout};
        let tree = Octree::build(&cluster(30, 1));
        for l in DataLayout::all_presets() {
            assert_eq!(roundtrip_same(&tree, l), tree);
        }
    }

    #[test]
    fn coincident_bodies_do_not_recurse_forever() {
        let b = Body { pos: [0.5; 3], vel: [0.0; 3], mass: 1.0 };
        let bodies = vec![b; 10];
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count, 10);
        // Force at a displaced point is finite.
        let a = tree.accel(&[0.6, 0.5, 0.5], NONE, 0.5);
        assert!(a.iter().all(|x| x.is_finite()));
    }
}
