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

/// How far inside half a box [`wrap`]'s shortcut must land: 1e-12
/// (relative) short of it, far more than the few ulps by which a
/// product or a quotient can round.
const HALF_BELOW: f64 = 0.5 * (1.0 - 1e-12);

/// One axis of the minimum image, `x − round(x / boxl)·boxl`, bit for
/// bit, without the division and the `round` call (a libm call on the
/// x86-64 baseline, which has no `roundsd`). The candidate subtracts
/// `boxl` with `x`'s sign when `|x|` is past half a box, and a zero
/// with `x`'s sign otherwise; it is the expression's value whenever it
/// lands within `HALF_BELOW·boxl` of zero:
/// - nothing subtracted: `|x| < HALF_BELOW·boxl`, so the quotient
///   rounds to ±0 with `x`'s sign and the expression is `x − ±0` —
///   `x`, except that `−0 − −0` is `+0`, as the candidate has it too;
/// - `boxl` subtracted: the quotient is past ½ (`boxl / 2` is exact),
///   and `|x| − boxl` (exact by Sterbenz) is under half a box, so the
///   quotient is under 1½ by the margin and rounds to ±1 (`round`
///   takes ½ away from zero); the expression subtracts `±1·boxl`, the
///   same number.
///
/// Everything else takes the expression itself: `|x|` within the margin
/// of half a box or past 1½ boxes, NaN, ±∞, and a box that is not
/// positive and finite (an infinite box's bound is zero: `0·∞` is NaN
/// in the expression).
#[inline(always)]
fn wrap(x: f64, boxl: f64) -> f64 {
    let shift = if boxl * 0.5 < x.abs() { boxl } else { 0.0 };
    let d = x - shift.copysign(x);
    let bound = if boxl < f64::INFINITY { boxl * HALF_BELOW } else { 0.0 };
    if d.abs() < bound {
        d
    } else {
        wrap_exactly(x, boxl)
    }
}

/// [`wrap`]'s full expression, out of line: it is almost never taken,
/// and the `round` call in it would otherwise make the caller keep its
/// values in memory across the call.
#[cold]
#[inline(never)]
fn wrap_exactly(x: f64, boxl: f64) -> f64 {
    x - (x / boxl).round() * boxl
}

/// Minimum-image displacement from `a` to `b` in a periodic box.
#[inline]
pub fn min_image(a: &[f64; 3], b: &[f64; 3], boxl: f64) -> [f64; 3] {
    [wrap(b[0] - a[0], boxl), wrap(b[1] - a[1], boxl), wrap(b[2] - a[2], boxl)]
}

/// Lennard-Jones pair interaction with cutoff: returns the force on
/// molecule `i` (negate for `j`) and the pair potential energy.
///
/// Most pairs lie beyond the cutoff, so the squared distance is summed
/// one axis at a time and the pair is cut off as soon as the partial
/// sum reaches `CUTOFF²`: the squares still to come are non-negative
/// and rounding is monotone, so the whole sum would too — unless one of
/// them is NaN, which happens exactly when that axis's displacement is
/// not finite (a box for which the first axis's displacement is not
/// NaN is finite and non-zero). Those pairs go the whole way.
#[inline(always)]
pub fn pair_interaction(pi: &[f64; 3], pj: &[f64; 3], boxl: f64) -> ([f64; 3], f64) {
    const CUT2: f64 = CUTOFF * CUTOFF;
    const NONE: ([f64; 3], f64) = ([0.0; 3], 0.0);
    let (x1, x2) = (pj[1] - pi[1], pj[2] - pi[2]);
    let d0 = wrap(pj[0] - pi[0], boxl);
    let r0 = d0 * d0;
    if r0 >= CUT2 && x1.is_finite() && x2.is_finite() {
        return NONE;
    }
    let d1 = wrap(x1, boxl);
    let r01 = r0 + d1 * d1;
    if r01 >= CUT2 && x2.is_finite() {
        return NONE;
    }
    let d2 = wrap(x2, boxl);
    let r2 = r01 + d2 * d2;
    if r2 >= CUT2 || r2 == 0.0 {
        return NONE;
    }
    let inv_r2 = 1.0 / r2;
    let s6 = inv_r2 * inv_r2 * inv_r2;
    let s12 = s6 * s6;
    // F = 24ε(2 s12 − s6)/r² · d, pointing from j toward i when
    // repulsive (d points i→j, so the force on i is −f·d).
    let fmag = 24.0 * (2.0 * s12 - s6) * inv_r2;
    let force = [-fmag * d0, -fmag * d1, -fmag * d2];
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
        let pi = &pos[i];
        let mut acc = [0.0f64; 3];
        for pj in &pos[..i] {
            let (fij, _) = pair_interaction(pi, pj, boxl);
            for d in 0..3 {
                acc[d] += fij[d];
            }
        }
        for pj in &pos[i + 1..] {
            let (fij, e) = pair_interaction(pi, pj, boxl);
            for d in 0..3 {
                acc[d] += fij[d];
            }
            energy += e;
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

    /// The minimum image as the expression it stands for: the oracle
    /// [`min_image`] must equal bit for bit.
    fn reference_min_image(a: &[f64; 3], b: &[f64; 3], boxl: f64) -> [f64; 3] {
        let mut d = [0.0; 3];
        for k in 0..3 {
            let mut x = b[k] - a[k];
            x -= (x / boxl).round() * boxl;
            d[k] = x;
        }
        d
    }

    /// The pair kernel without its shortcuts: the oracle
    /// [`pair_interaction`] must equal bit for bit.
    fn reference_pair_interaction(pi: &[f64; 3], pj: &[f64; 3], boxl: f64) -> ([f64; 3], f64) {
        let d = reference_min_image(pi, pj, boxl);
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 >= CUTOFF * CUTOFF || r2 == 0.0 {
            return ([0.0; 3], 0.0);
        }
        let inv_r2 = 1.0 / r2;
        let s6 = inv_r2 * inv_r2 * inv_r2;
        let s12 = s6 * s6;
        let fmag = 24.0 * (2.0 * s12 - s6) * inv_r2;
        let force = [-fmag * d[0], -fmag * d[1], -fmag * d[2]];
        let energy = 4.0 * (s12 - s6);
        (force, energy)
    }

    /// The benchmark's box (2197 molecules) and three others.
    const BOXES: [f64; 4] = [15.6, 10.0, 7.3, 1.0];

    /// Boxes that are not positive and finite, or that sit at the ends
    /// of the range, where the products in the bounds round most.
    const ODD_BOXES: [f64; 9] =
        [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -10.0, f64::MAX, 1e300, 1e-310, 1.5e-323];

    /// The bits of each value, with every NaN as one pattern: Rust does
    /// not fix the sign or payload of a NaN an operation makes (the same
    /// expression folded at compile time and run on the target can give
    /// different NaNs), so NaN is equal to NaN here and nothing else is
    /// relaxed.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn bits3(v: [f64; 3]) -> [u64; 3] {
        v.map(bits)
    }

    /// `±x` for `x` within 2000 ulps of half a box, of 1½ boxes and of
    /// the three ends of the shortcuts (`HALF_BELOW·boxl` and one box
    /// either side of it), and ±0, ±1 box, ±2 boxes, NaN, ±∞, ±1e300
    /// and subnormals.
    fn edge_values(boxl: f64) -> Vec<f64> {
        let around = |c: f64| {
            (-2000i64..=2000).map(move |k| f64::from_bits(c.to_bits().wrapping_add(k as u64)))
        };
        let mut out = vec![
            0.0,
            boxl,
            2.0 * boxl,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
        ];
        let bound = boxl * HALF_BELOW;
        for c in [boxl / 2.0, 1.5 * boxl, bound, boxl - bound, boxl + bound] {
            out.extend(around(c));
        }
        out.iter().flat_map(|&x| [x, -x]).collect()
    }

    #[test]
    fn min_image_is_the_expression_bit_for_bit_at_the_edges() {
        for boxl in BOXES.into_iter().chain(ODD_BOXES) {
            for x in edge_values(boxl) {
                let b = [x, -x, x];
                assert_eq!(
                    bits3(min_image(&[0.0; 3], &b, boxl)),
                    bits3(reference_min_image(&[0.0; 3], &b, boxl)),
                    "boxl {boxl:e}, x {x:e} ({:#x})",
                    x.to_bits()
                );
            }
        }
    }

    /// The one value the first sweep found: `−0 − round(−0 / boxl)·boxl`
    /// is `+0`, so the shortcut must not return `x` itself.
    #[test]
    fn minus_zero_comes_out_as_plus_zero() {
        for boxl in BOXES {
            let d = min_image(&[0.0; 3], &[-0.0; 3], boxl);
            assert_eq!(d.map(f64::to_bits), [0; 3], "boxl {boxl}");
            assert_eq!(bits3(d), bits3(reference_min_image(&[0.0; 3], &[-0.0; 3], boxl)));
        }
    }

    /// `x / ∞` rounds to 0, and `0·∞` is NaN: an infinite box has no
    /// shortcut.
    #[test]
    fn an_infinite_box_takes_the_expression() {
        let d = min_image(&[0.0; 3], &[1.0, -1.0, 0.0], f64::INFINITY);
        assert!(d.iter().all(|x| x.is_nan()), "{d:?}");
        let want = reference_min_image(&[0.0; 3], &[1.0, -1.0, 0.0], f64::INFINITY);
        assert_eq!(bits3(d), bits3(want));
    }

    #[test]
    fn pair_interaction_is_the_kernel_bit_for_bit_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(48);
        for boxl in BOXES {
            let mut inside = 0;
            for _ in 0..100_000 {
                let mut p = || [(); 3].map(|_| rng.gen_range(-2.0 * boxl..2.0 * boxl));
                let (pi, pj) = (p(), p());
                let (f, e) = pair_interaction(&pi, &pj, boxl);
                let (rf, re) = reference_pair_interaction(&pi, &pj, boxl);
                assert_eq!(
                    (bits3(f), bits(e)),
                    (bits3(rf), bits(re)),
                    "boxl {boxl}, {pi:?} - {pj:?}"
                );
                inside += usize::from(re != 0.0);
            }
            assert!(inside > 1000, "boxl {boxl}: only {inside} pairs inside the cutoff");
        }
    }

    /// A pair already past the cutoff on its first axis is cut off early
    /// only if the later axes are finite: a NaN or infinite displacement
    /// there makes the whole squared distance NaN, and the full kernel
    /// returns NaN, not zero.
    #[test]
    fn a_non_finite_later_axis_is_not_cut_off() {
        let big = f64::MAX / 1.5;
        for (pi, pj) in [
            ([0.0, 0.0, 0.0], [5.0, f64::NAN, 0.0]),
            ([0.0, 0.0, 0.0], [5.0, 0.0, f64::INFINITY]),
            ([0.0, 0.0, 0.0], [0.5, 4.0, f64::NEG_INFINITY]),
            ([0.0, -big, 0.0], [5.0, big, 0.0]),
        ] {
            let (f, e) = pair_interaction(&pi, &pj, 15.6);
            assert!(e.is_nan(), "{pi:?} - {pj:?}: {e}");
            let (rf, re) = reference_pair_interaction(&pi, &pj, 15.6);
            assert_eq!((bits3(f), bits(e)), (bits3(rf), bits(re)), "{pi:?} - {pj:?}");
        }
    }

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
