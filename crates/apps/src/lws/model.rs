//! The liquid-water-simulation model.
//!
//! LWS derives from the Perfect Club benchmark MDG: it "evaluates
//! forces and potentials in a system of water molecules in the liquid
//! state", and "for the problem sizes that we are running, almost all
//! of the computation takes place inside the O(n²) phase that
//! determines the pairwise interactions of the n molecules" (§7.3).
//!
//! We model each molecule as a point site interacting through a
//! truncated, smoothly shifted Lennard-Jones potential (the original
//! MDG uses 3-site water; the paper's parallel structure — an O(n²)
//! all-pairs phase over read-shared positions with per-task partial
//! force accumulation — is independent of the site chemistry, and
//! that structure is what Figures 9/10 measure).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Abstract work units (≈flops) charged per molecular pair
/// interaction. Calibrated to the Perfect Club MDG's water-water
/// interaction (9 site-site distances, square roots, erfc-style
/// terms), which is several hundred flops per molecular pair.
pub const PAIR_COST: f64 = 400.0;

/// Interaction cutoff radius (in reduced units).
pub const CUTOFF: f64 = 2.5;

/// One simulated system of molecules.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterSystem {
    /// Molecule positions.
    pub pos: Vec<[f64; 3]>,
    /// Molecule velocities.
    pub vel: Vec<[f64; 3]>,
    /// Periodic box edge length.
    pub boxl: f64,
}

impl WaterSystem {
    /// Number of molecules.
    pub fn n(&self) -> usize {
        self.pos.len()
    }

    /// Build a system of `n` molecules on a perturbed cubic lattice at
    /// liquid-ish density, with small random velocities. Deterministic
    /// in `seed`.
    pub fn new(n: usize, seed: u64) -> WaterSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = (n as f64).cbrt().ceil() as usize;
        let boxl = cells as f64 * 1.2;
        let mut pos = Vec::with_capacity(n);
        'fill: for x in 0..cells {
            for y in 0..cells {
                for z in 0..cells {
                    if pos.len() == n {
                        break 'fill;
                    }
                    let jitter = |r: &mut StdRng| r.gen_range(-0.05..0.05);
                    pos.push([
                        (x as f64 + 0.5) * 1.2 + jitter(&mut rng),
                        (y as f64 + 0.5) * 1.2 + jitter(&mut rng),
                        (z as f64 + 0.5) * 1.2 + jitter(&mut rng),
                    ]);
                }
            }
        }
        let vel = (0..n)
            .map(|_| [rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1)])
            .collect();
        WaterSystem { pos, vel, boxl }
    }
}

/// Size of interleaved block `k` when `n` molecules are dealt into
/// `blocks` owner-computes blocks (molecule `i` belongs to block
/// `i % blocks`). Shared by the task generator and the integration
/// kernel, which must agree on the gather geometry.
pub fn block_len(n: usize, blocks: usize, k: usize) -> usize {
    if k < n % blocks {
        n / blocks + 1
    } else {
        n / blocks
    }
}

/// Minimum-image displacement from `a` to `b` in a periodic box.
#[inline]
pub fn min_image(a: &[f64; 3], b: &[f64; 3], boxl: f64) -> [f64; 3] {
    let mut d = [0.0; 3];
    for k in 0..3 {
        let mut x = b[k] - a[k];
        x -= (x / boxl).round() * boxl;
        d[k] = x;
    }
    d
}

/// Lennard-Jones pair interaction with cutoff: returns the force on
/// molecule `i` (negate for `j`) and the pair potential energy.
#[inline]
pub fn pair_interaction(pi: &[f64; 3], pj: &[f64; 3], boxl: f64) -> ([f64; 3], f64) {
    let d = min_image(pi, pj, boxl);
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 >= CUTOFF * CUTOFF || r2 == 0.0 {
        return ([0.0; 3], 0.0);
    }
    let inv_r2 = 1.0 / r2;
    let s6 = inv_r2 * inv_r2 * inv_r2;
    let s12 = s6 * s6;
    // F = 24ε(2 s12 − s6)/r² · d, pointing from j toward i when
    // repulsive (d points i→j, so the force on i is −f·d).
    let fmag = 24.0 * (2.0 * s12 - s6) * inv_r2;
    let force = [-fmag * d[0], -fmag * d[1], -fmag * d[2]];
    let energy = 4.0 * (s12 - s6);
    (force, energy)
}

/// The owner-computes force loop of interleaved block `k` of `blocks`:
/// writes the force on each owned molecule `i = k + slot·blocks` into
/// `out[slot]` and returns the block's share of the potential energy.
/// Each molecule interacts with all others in ascending partner order
/// (the accumulation order that makes the parallel program bitwise
/// equal to the serial one), and each pair's energy is counted once
/// (`j > i`).
pub fn block_forces(
    pos: &[[f64; 3]],
    k: usize,
    blocks: usize,
    boxl: f64,
    out: &mut [[f64; 3]],
) -> f64 {
    let mut energy = 0.0;
    for (slot, f) in out.iter_mut().enumerate() {
        let i = k + slot * blocks;
        let mut acc = [0.0f64; 3];
        for (j, pj) in pos.iter().enumerate() {
            if j == i {
                continue;
            }
            let (fij, e) = pair_interaction(&pos[i], pj, boxl);
            for d in 0..3 {
                acc[d] += fij[d];
            }
            if j > i {
                energy += e;
            }
        }
        *f = acc;
    }
    energy
}

/// Put block `k`'s forces, in slot order, into the per-molecule force
/// vector `flat`: slot `s` is molecule `k + s·blocks`, the interleaving
/// [`block_forces`] computes.
pub fn scatter_block(
    flat: &mut [[f64; 3]],
    k: usize,
    blocks: usize,
    forces: impl IntoIterator<Item = [f64; 3]>,
) {
    for (slot, f) in forces.into_iter().enumerate() {
        flat[k + slot * blocks] = f;
    }
}

/// The step's potential energy: the per-block partial energies summed
/// in block order.
pub fn sum_energies(partials: impl IntoIterator<Item = f64>) -> f64 {
    partials.into_iter().fold(0.0, |energy, e| energy + e)
}

/// Euler integration step (the paper runs the O(n) phases serially;
/// we do too).
pub fn integrate(
    pos: &mut [[f64; 3]],
    vel: &mut [[f64; 3]],
    forces: &[[f64; 3]],
    dt: f64,
    boxl: f64,
) {
    for i in 0..pos.len() {
        for k in 0..3 {
            vel[i][k] += forces[i][k] * dt;
            pos[i][k] += vel[i][k] * dt;
            // Wrap into the box.
            pos[i][k] -= (pos[i][k] / boxl).floor() * boxl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_is_deterministic_in_seed() {
        let a = WaterSystem::new(100, 7);
        let b = WaterSystem::new(100, 7);
        assert_eq!(a, b);
        let c = WaterSystem::new(100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn forces_are_antisymmetric() {
        let s = WaterSystem::new(20, 1);
        let (fij, e1) = pair_interaction(&s.pos[0], &s.pos[1], s.boxl);
        let (fji, e2) = pair_interaction(&s.pos[1], &s.pos[0], s.boxl);
        for k in 0..3 {
            assert!((fij[k] + fji[k]).abs() < 1e-12);
        }
        assert_eq!(e1, e2);
    }

    #[test]
    fn cutoff_zeroes_far_pairs() {
        let a = [0.0, 0.0, 0.0];
        let b = [3.0, 0.0, 0.0];
        let (f, e) = pair_interaction(&a, &b, 100.0);
        assert_eq!(f, [0.0; 3]);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn close_pairs_repel() {
        let a = [0.0, 0.0, 0.0];
        let b = [0.9, 0.0, 0.0];
        let (f, e) = pair_interaction(&a, &b, 100.0);
        assert!(f[0] < 0.0, "force on a points away from b (negative x)");
        assert!(e > 0.0, "overlapping LJ pair has positive energy");
    }

    #[test]
    fn min_image_wraps() {
        let a = [0.1, 0.0, 0.0];
        let b = [9.9, 0.0, 0.0];
        let d = min_image(&a, &b, 10.0);
        assert!((d[0] - (-0.2)).abs() < 1e-12);
    }

    #[test]
    fn integrate_moves_and_wraps() {
        let mut pos = vec![[9.95f64, 0.0, 0.0]];
        let mut vel = vec![[1.0f64, 0.0, 0.0]];
        let forces = vec![[0.0f64; 3]];
        integrate(&mut pos, &mut vel, &forces, 0.1, 10.0);
        assert!(pos[0][0] < 10.0 && pos[0][0] >= 0.0);
    }
}
