//! One-dimensional PPM sweep (Colella & Woodward 1984): parabolic
//! reconstruction with monotonicity constraints, characteristic-domain
//! averaged interface states, two-shock Riemann fluxes, conservative
//! update. Directional splitting applies this routine along rows and
//! columns.

use crate::euler::{flux, riemann_lanes, Cons, Prim, PrimLanes, LANES, SMALL};

/// Stencil half-width: updating zone `j` touches zones `j-3 ..= j+3`.
pub const STENCIL: usize = 3;

/// Cost accounting of one sweep (the caller charges these to the
/// machine model).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Divide/sqrt operations (multi-cycle on the PA-7100).
    pub divsqrt: u64,
    /// Work-array accesses (cache-resident strip temporaries).
    pub work_accesses: u64,
}

impl SweepCost {
    /// Merge another cost.
    pub fn add(&mut self, o: SweepCost) {
        self.flops += o.flops;
        self.divsqrt += o.divsqrt;
        self.work_accesses += o.work_accesses;
    }
}

/// Per-zone reconstruction flops (4 variables).
const RECON_FLOPS: u64 = 88;
/// Per-interface trace flops.
const TRACE_FLOPS: u64 = 40;
/// Per-interface Riemann + flux flops.
const RIEMANN_FLOPS: u64 = 70;
/// Per-interface divide/sqrt count.
const RIEMANN_DIVSQRT: u64 = 10;
/// Per-updated-zone update flops.
const UPDATE_FLOPS: u64 = 30;
/// Work-array traffic per updated zone (strip temporaries).
const WORK_PER_ZONE: u64 = 45;

/// Monotonized parabola coefficients for one variable in one zone:
/// returns `(a_left, a_right, a6)`.
#[inline]
fn parabola(am2: f64, am1: f64, a0: f64, ap1: f64, ap2: f64) -> (f64, f64, f64) {
    // Fourth-order interface values.
    let mut al = (7.0 / 12.0) * (am1 + a0) - (1.0 / 12.0) * (am2 + ap1);
    let mut ar = (7.0 / 12.0) * (a0 + ap1) - (1.0 / 12.0) * (am1 + ap2);
    // CW84 monotonicity constraints.
    if (ar - a0) * (a0 - al) <= 0.0 {
        al = a0;
        ar = a0;
    } else {
        let da = ar - al;
        let mid = a0 - 0.5 * (al + ar);
        if da * mid > da * da / 6.0 {
            al = 3.0 * a0 - 2.0 * ar;
        } else if -da * da / 6.0 > da * mid {
            ar = 3.0 * a0 - 2.0 * al;
        }
    }
    let a6 = 6.0 * (a0 - 0.5 * (al + ar));
    (al, ar, a6)
}

/// Average of the parabola over the rightmost fraction `x` of the zone
/// (domain of dependence of a right-moving wave).
#[inline]
fn avg_right(al: f64, ar: f64, a6: f64, x: f64) -> f64 {
    ar - 0.5 * x * ((ar - al) - (1.0 - 2.0 * x / 3.0) * a6)
}

/// Average over the leftmost fraction `x`.
#[inline]
fn avg_left(al: f64, ar: f64, a6: f64, x: f64) -> f64 {
    al + 0.5 * x * ((ar - al) + (1.0 - 2.0 * x / 3.0) * a6)
}

/// Scratch arrays of [`sweep_strip`]. The caller keeps one across
/// strips, so once they have grown to the longest strip a sweep
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SweepWork {
    /// Primitive state of every zone the stencil touches.
    prim: Vec<Prim>,
    /// Sound speed of every zone that has a parabola.
    sound: Vec<f64>,
    /// `(al, ar, a6)` per variable [rho, u, v, p] per zone.
    coef: Vec<[(f64, f64, f64); 4]>,
    /// Interface fluxes.
    fluxes: Vec<Cons>,
}

/// Sweep one strip. `strip` holds conserved states including ghosts;
/// zones in `upd` are updated in place (each needs `STENCIL` valid
/// zones on both sides). `work` is scratch space the caller reuses
/// across strips. Returns the maximum signal speed seen and the cost
/// tally.
pub fn sweep_strip(
    strip: &mut [Cons],
    upd: std::ops::Range<usize>,
    dtdx: f64,
    work: &mut SweepWork,
) -> (f64, SweepCost) {
    let n = strip.len();
    assert!(
        upd.start >= STENCIL && upd.end + STENCIL <= n,
        "stencil out of bounds"
    );
    if upd.is_empty() {
        return (0.0, SweepCost::default());
    }
    let mut cost = SweepCost::default();
    let SweepWork {
        prim,
        sound,
        coef,
        fluxes,
    } = work;

    // Primitives over the zones the stencil touches.
    let lo = upd.start - STENCIL;
    let hi = upd.end + STENCIL;
    prim.clear();
    prim.extend(strip[lo..hi].iter().map(Cons::to_prim));
    cost.flops += (hi - lo) as u64 * 12;
    cost.divsqrt += (hi - lo) as u64 * 2;

    // Parabolas and sound speeds for zones upd.start-1 ..= upd.end.
    let plo = upd.start - 1;
    let phi = upd.end + 1;
    coef.clear();
    sound.clear();
    for z in prim[plo - 2 - lo..phi + 2 - lo].windows(5) {
        let para = |f: fn(&Prim) -> f64| parabola(f(&z[0]), f(&z[1]), f(&z[2]), f(&z[3]), f(&z[4]));
        coef.push([para(|s| s.rho), para(|s| s.u), para(|s| s.v), para(|s| s.p)]);
        sound.push(z[2].sound_speed());
        cost.flops += RECON_FLOPS;
    }

    // Fluxes at interfaces upd.start-1/2 .. upd.end+1/2 (interface i
    // separates zones i-1 and i), resolved LANES at a time. A short
    // last batch repeats its final interface in the spare lanes.
    fluxes.clear();
    let mut max_speed = 0.0f64;
    let mut i0 = upd.start;
    while i0 <= upd.end {
        let n = (upd.end + 1 - i0).min(LANES);
        let mut left = PrimLanes::default();
        let mut right = PrimLanes::default();
        for k in 0..LANES {
            let i = i0 + k.min(n - 1);
            // Left zone i-1: right-moving characteristic domain.
            let sl = prim[i - 1 - lo];
            let cl = sound[i - 1 - plo];
            let xl = ((sl.u + cl).max(0.0) * dtdx).min(1.0);
            let c_l = &coef[i - 1 - plo];
            left.set(
                k,
                Prim {
                    rho: avg_right(c_l[0].0, c_l[0].1, c_l[0].2, xl).max(SMALL),
                    u: avg_right(c_l[1].0, c_l[1].1, c_l[1].2, xl),
                    v: avg_right(c_l[2].0, c_l[2].1, c_l[2].2, xl),
                    p: avg_right(c_l[3].0, c_l[3].1, c_l[3].2, xl).max(SMALL),
                },
            );
            // Right zone i: left-moving characteristic domain.
            let sr = prim[i - lo];
            let cr = sound[i - plo];
            let xr = ((cr - sr.u).max(0.0) * dtdx).min(1.0);
            let c_r = &coef[i - plo];
            right.set(
                k,
                Prim {
                    rho: avg_left(c_r[0].0, c_r[0].1, c_r[0].2, xr).max(SMALL),
                    u: avg_left(c_r[1].0, c_r[1].1, c_r[1].2, xr),
                    v: avg_left(c_r[2].0, c_r[2].1, c_r[2].2, xr),
                    p: avg_left(c_r[3].0, c_r[3].1, c_r[3].2, xr).max(SMALL),
                },
            );
            if k < n {
                max_speed = max_speed.max(sl.u.abs() + cl).max(sr.u.abs() + cr);
            }
        }
        let resolved = riemann_lanes(&left, &right);
        fluxes.extend(resolved[..n].iter().map(flux));
        cost.flops += n as u64 * (TRACE_FLOPS + RIEMANN_FLOPS);
        cost.divsqrt += n as u64 * RIEMANN_DIVSQRT;
        i0 += n;
    }

    // Conservative update.
    for (j, s) in strip[upd.clone()].iter_mut().enumerate() {
        // Fluxes were computed for interfaces upd.start ..= upd.end,
        // which covers both faces of every updated zone.
        let (fl, fr) = (fluxes[j], fluxes[j + 1]);
        s.rho -= dtdx * (fr.rho - fl.rho);
        s.mu -= dtdx * (fr.mu - fl.mu);
        s.mv -= dtdx * (fr.mv - fl.mv);
        s.e -= dtdx * (fr.e - fl.e);
        cost.flops += UPDATE_FLOPS;
        cost.work_accesses += WORK_PER_ZONE;
    }

    (max_speed, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, s: Prim) -> Vec<Cons> {
        vec![s.to_cons(); n]
    }

    #[test]
    fn uniform_flow_is_preserved() {
        let s = Prim {
            rho: 1.0,
            u: 0.7,
            v: -0.3,
            p: 2.0,
        };
        let mut strip = uniform(32, s);
        let before = strip.clone();
        sweep_strip(&mut strip, 4..28, 0.1, &mut SweepWork::default());
        for (a, b) in strip.iter().zip(&before) {
            assert!((a.rho - b.rho).abs() < 1e-12);
            assert!((a.mu - b.mu).abs() < 1e-12);
            assert!((a.e - b.e).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_is_conserved_interior() {
        // A blob advecting: total mass over the updated zones changes
        // only by boundary fluxes; with symmetric far-field states the
        // interior sum is stable to machine precision when fluxes at
        // both ends are equal.
        let s = Prim {
            rho: 1.0,
            u: 0.0,
            v: 0.0,
            p: 1.0,
        };
        let mut strip = uniform(40, s);
        // Central density bump at rest.
        for c in strip.iter_mut().take(22).skip(18) {
            *c = Prim {
                rho: 2.0,
                u: 0.0,
                v: 0.0,
                p: 1.0,
            }
            .to_cons();
        }
        let total0: f64 = strip.iter().map(|c| c.rho).sum();
        sweep_strip(&mut strip, 4..36, 0.05, &mut SweepWork::default());
        let total1: f64 = strip.iter().map(|c| c.rho).sum();
        // Boundary fluxes are the uniform-state fluxes (zero mass flux
        // since u = 0 far from the bump).
        assert!((total1 - total0).abs() < 1e-10, "{total0} -> {total1}");
    }

    #[test]
    fn parabola_is_monotone() {
        // Monotone data must produce interface values within the
        // neighboring cell averages.
        let vals = [1.0, 2.0, 4.0, 8.0, 16.0];
        let (al, ar, _) = parabola(vals[0], vals[1], vals[2], vals[3], vals[4]);
        assert!(al >= vals[1] && al <= vals[2], "al = {al}");
        assert!(ar >= vals[2] && ar <= vals[3], "ar = {ar}");
    }

    #[test]
    fn parabola_flattens_extrema() {
        let (al, ar, a6) = parabola(1.0, 2.0, 5.0, 2.0, 1.0);
        assert_eq!(al, 5.0);
        assert_eq!(ar, 5.0);
        assert_eq!(a6, 0.0);
    }

    #[test]
    fn shock_tube_moves_right() {
        // High pressure left, low right: a shock travels right,
        // interface mass flux is positive.
        let l = Prim {
            rho: 1.0,
            u: 0.0,
            v: 0.0,
            p: 1.0,
        };
        let r = Prim {
            rho: 0.125,
            u: 0.0,
            v: 0.0,
            p: 0.1,
        };
        let mut strip: Vec<Cons> = (0..40)
            .map(|j| if j < 20 { l.to_cons() } else { r.to_cons() })
            .collect();
        sweep_strip(&mut strip, 4..36, 0.1, &mut SweepWork::default());
        // Gas starts moving rightward on both sides of the interface
        // (rarefaction accelerates the left zone, the shock the right
        // one); more distant zones are untouched after one sweep.
        assert!(
            strip[19].mu > 0.0,
            "left-of-interface momentum {}",
            strip[19].mu
        );
        assert!(
            strip[20].mu > 0.0,
            "right-of-interface momentum {}",
            strip[20].mu
        );
        assert!(strip[30].mu.abs() < 1e-12, "distant zone disturbed");
    }

    #[test]
    fn costs_scale_with_zones() {
        let s = Prim {
            rho: 1.0,
            u: 0.1,
            v: 0.0,
            p: 1.0,
        };
        let mut a = uniform(40, s);
        let (_, ca) = sweep_strip(&mut a, 4..36, 0.05, &mut SweepWork::default());
        let mut b = uniform(24, s);
        let (_, cb) = sweep_strip(&mut b, 4..20, 0.05, &mut SweepWork::default());
        assert!(ca.flops > cb.flops);
        assert!(ca.divsqrt > cb.divsqrt);
        assert!(ca.work_accesses == 32 * 45 && cb.work_accesses == 16 * 45);
    }

    #[test]
    #[should_panic(expected = "stencil out of bounds")]
    fn rejects_insufficient_ghosts() {
        let s = Prim {
            rho: 1.0,
            u: 0.0,
            v: 0.0,
            p: 1.0,
        };
        let mut strip = uniform(16, s);
        sweep_strip(&mut strip, 2..14, 0.1, &mut SweepWork::default());
    }

    /// The sweep before it took a workspace and resolved interfaces in
    /// lanes, kept verbatim (on the scalar solver) as the bitwise
    /// oracle for [`sweep_strip`].
    fn sweep_strip_scalar(
        strip: &mut [Cons],
        upd: std::ops::Range<usize>,
        dtdx: f64,
    ) -> (f64, SweepCost) {
        let mut cost = SweepCost::default();
        let lo = upd.start - STENCIL;
        let hi = upd.end + STENCIL;
        let prim: Vec<Prim> = strip[lo..hi].iter().map(|c| c.to_prim()).collect();
        let at = |j: usize| prim[j - lo];
        cost.flops += (hi - lo) as u64 * 12;
        cost.divsqrt += (hi - lo) as u64 * 2;
        let plo = upd.start - 1;
        let phi = upd.end + 1;
        let mut coef = vec![[(0.0f64, 0.0f64, 0.0f64); 4]; phi - plo];
        for j in plo..phi {
            let g = |f: fn(&Prim) -> f64, j: usize| f(&at(j));
            let fields: [fn(&Prim) -> f64; 4] = [|s| s.rho, |s| s.u, |s| s.v, |s| s.p];
            for (v, f) in fields.iter().enumerate() {
                coef[j - plo][v] = parabola(
                    g(*f, j - 2),
                    g(*f, j - 1),
                    g(*f, j),
                    g(*f, j + 1),
                    g(*f, j + 2),
                );
            }
            cost.flops += RECON_FLOPS;
        }
        let mut fluxes = vec![Cons::default(); upd.end - upd.start + 1];
        let mut max_speed = 0.0f64;
        for i in upd.start..=upd.end {
            let zl = i - 1;
            let sl = at(zl);
            let cl = sl.sound_speed();
            let xl = ((sl.u + cl).max(0.0) * dtdx).min(1.0);
            let c_l = &coef[zl - plo];
            let left = Prim {
                rho: avg_right(c_l[0].0, c_l[0].1, c_l[0].2, xl).max(SMALL),
                u: avg_right(c_l[1].0, c_l[1].1, c_l[1].2, xl),
                v: avg_right(c_l[2].0, c_l[2].1, c_l[2].2, xl),
                p: avg_right(c_l[3].0, c_l[3].1, c_l[3].2, xl).max(SMALL),
            };
            let sr = at(i);
            let cr = sr.sound_speed();
            let xr = ((cr - sr.u).max(0.0) * dtdx).min(1.0);
            let c_r = &coef[i - plo];
            let right = Prim {
                rho: avg_left(c_r[0].0, c_r[0].1, c_r[0].2, xr).max(SMALL),
                u: avg_left(c_r[1].0, c_r[1].1, c_r[1].2, xr),
                v: avg_left(c_r[2].0, c_r[2].1, c_r[2].2, xr),
                p: avg_left(c_r[3].0, c_r[3].1, c_r[3].2, xr).max(SMALL),
            };
            let resolved = crate::euler::riemann_scalar(&left, &right).0;
            fluxes[i - upd.start] = flux(&resolved);
            max_speed = max_speed.max(sl.u.abs() + cl).max(sr.u.abs() + cr);
            cost.flops += TRACE_FLOPS + RIEMANN_FLOPS;
            cost.divsqrt += RIEMANN_DIVSQRT;
        }
        for j in upd.clone() {
            let fl = fluxes[j - upd.start];
            let fr = fluxes[j + 1 - upd.start];
            let s = &mut strip[j];
            s.rho -= dtdx * (fr.rho - fl.rho);
            s.mu -= dtdx * (fr.mu - fl.mu);
            s.mv -= dtdx * (fr.mv - fl.mv);
            s.e -= dtdx * (fr.e - fl.e);
            cost.flops += UPDATE_FLOPS;
            cost.work_accesses += WORK_PER_ZONE;
        }
        (max_speed, cost)
    }

    #[test]
    fn lane_sweep_matches_the_scalar_sweep_bitwise() {
        // Strips of 1..=13 updated zones give 2..=14 interfaces: every
        // short last batch (1, 2 or 3 lanes) and full ones, with one
        // workspace reused across strips that grow and shrink.
        let mut rng = proptest::TestRng::new(0x0dd_1a9e);
        let mut work = SweepWork::default();
        for case in 0..600 {
            let w = 1 + case % 13;
            let mut strip: Vec<Cons> = (0..w + 2 * STENCIL)
                .map(|_| {
                    let jump = rng.below(3) == 0;
                    Prim {
                        rho: if jump { 0.05 } else { 1.0 } + 4.0 * rng.unit_f64(),
                        u: 6.0 * rng.unit_f64() - 3.0,
                        v: 2.0 * rng.unit_f64() - 1.0,
                        p: if jump { 20.0 } else { 0.1 } * (0.5 + rng.unit_f64()),
                    }
                    .to_cons()
                })
                .collect();
            let mut want = strip.clone();
            let dtdx = 0.02 + 0.2 * rng.unit_f64();
            let upd = STENCIL..STENCIL + w;
            let (ms, cost) = sweep_strip(&mut strip, upd.clone(), dtdx, &mut work);
            let (ms0, cost0) = sweep_strip_scalar(&mut want, upd, dtdx);
            assert_eq!(ms.to_bits(), ms0.to_bits(), "case {case}: max speed");
            assert_eq!(
                (cost.flops, cost.divsqrt, cost.work_accesses),
                (cost0.flops, cost0.divsqrt, cost0.work_accesses),
                "case {case}: cost"
            );
            for (j, (a, b)) in strip.iter().zip(&want).enumerate() {
                let bits = |c: &Cons| [c.rho, c.mu, c.mv, c.e].map(f64::to_bits);
                assert_eq!(bits(a), bits(b), "case {case} (w = {w}) zone {j}");
            }
        }
    }
}
