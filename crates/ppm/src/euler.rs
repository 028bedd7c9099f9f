//! Gamma-law Euler equations: state conversions and the two-shock
//! approximate Riemann solver of the PPM scheme (Colella & Woodward
//! 1984, §3 of their paper; PROMETHEUS uses the same solver).

/// Ratio of specific heats (PROMETHEUS runs mostly used 1.4 or 5/3;
/// we fix the classic 1.4).
pub const GAMMA: f64 = 1.4;

/// Floor applied to density and pressure to keep states physical.
pub const SMALL: f64 = 1e-10;

/// Primitive state (density, normal velocity, transverse velocity,
/// pressure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prim {
    /// Density.
    pub rho: f64,
    /// Normal velocity.
    pub u: f64,
    /// Transverse velocity.
    pub v: f64,
    /// Pressure.
    pub p: f64,
}

/// Conserved state (density, normal momentum, transverse momentum,
/// total energy density).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cons {
    /// Mass density.
    pub rho: f64,
    /// Normal momentum.
    pub mu: f64,
    /// Transverse momentum.
    pub mv: f64,
    /// Total energy per volume.
    pub e: f64,
}

impl Prim {
    /// Adiabatic sound speed.
    pub fn sound_speed(&self) -> f64 {
        (GAMMA * self.p / self.rho).sqrt()
    }

    /// Convert to conserved variables.
    pub fn to_cons(&self) -> Cons {
        Cons {
            rho: self.rho,
            mu: self.rho * self.u,
            mv: self.rho * self.v,
            e: self.p / (GAMMA - 1.0) + 0.5 * self.rho * (self.u * self.u + self.v * self.v),
        }
    }
}

impl Cons {
    /// Convert to primitive variables (with floors).
    pub fn to_prim(&self) -> Prim {
        let rho = self.rho.max(SMALL);
        let u = self.mu / rho;
        let v = self.mv / rho;
        let p = ((GAMMA - 1.0) * (self.e - 0.5 * rho * (u * u + v * v))).max(SMALL);
        Prim { rho, u, v, p }
    }
}

/// Interface flux of the conserved variables for a resolved state.
pub fn flux(s: &Prim) -> Cons {
    let c = s.to_cons();
    Cons {
        rho: c.mu,
        mu: c.mu * s.u + s.p,
        mv: c.mv * s.u,
        e: (c.e + s.p) * s.u,
    }
}

/// Interfaces the Riemann solver resolves in lock-step (see
/// [`riemann_lanes`]).
pub const LANES: usize = 4;

/// The primitive states of [`LANES`] interfaces, one array per
/// variable, so the solver runs each step across all lanes at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimLanes {
    /// Density per lane.
    pub rho: [f64; LANES],
    /// Normal velocity per lane.
    pub u: [f64; LANES],
    /// Transverse velocity per lane.
    pub v: [f64; LANES],
    /// Pressure per lane.
    pub p: [f64; LANES],
}

impl PrimLanes {
    /// Every lane holding `s`.
    pub fn splat(s: Prim) -> Self {
        PrimLanes {
            rho: [s.rho; LANES],
            u: [s.u; LANES],
            v: [s.v; LANES],
            p: [s.p; LANES],
        }
    }

    /// Lane `k`'s state.
    #[inline]
    pub fn get(&self, k: usize) -> Prim {
        Prim {
            rho: self.rho[k],
            u: self.u[k],
            v: self.v[k],
            p: self.p[k],
        }
    }

    /// Store `s` in lane `k`.
    #[inline]
    pub fn set(&mut self, k: usize, s: Prim) {
        self.rho[k] = s.rho;
        self.u[k] = s.u;
        self.v[k] = s.v;
        self.p[k] = s.p;
    }
}

/// Lagrangian wave speed `W(p*)` of a shock (or, in the two-shock
/// approximation, a rarefaction treated as a shock) connecting the
/// state `(rho, p)` to pressure `pstar`.
#[inline]
fn wave_speed(rho: f64, p: f64, pstar: f64) -> f64 {
    let g = GAMMA;
    (g * p * rho * (1.0 + (g + 1.0) / (2.0 * g) * (pstar / p - 1.0)).max(SMALL)).sqrt()
}

/// Two-shock approximate Riemann solver for one interface: returns
/// the resolved state at `x/t = 0`. Runs [`riemann_lanes`] with every
/// lane holding the same interface.
pub fn riemann(left: &Prim, right: &Prim) -> Prim {
    riemann_lanes(&PrimLanes::splat(*left), &PrimLanes::splat(*right))[0]
}

/// Two-shock approximate Riemann solver for [`LANES`] interfaces in
/// lock-step: returns each lane's resolved state at `x/t = 0`.
///
/// Every step of the secant iteration runs across all lanes before
/// the next one starts, so neighbouring interfaces' divide and sqrt
/// chains overlap; each lane still sees exactly the IEEE operations,
/// in the same order, of a solver run on that interface alone.
// Each lane loop reads and writes several per-lane arrays at index `k`.
#[allow(clippy::needless_range_loop)]
pub fn riemann_lanes(left: &PrimLanes, right: &PrimLanes) -> [Prim; LANES] {
    // Initial guess: PVRS (linearized) pressure.
    let mut pstar = [0.0; LANES];
    for k in 0..LANES {
        let cl = (GAMMA * left.p[k] / left.rho[k]).sqrt() * left.rho[k];
        let cr = (GAMMA * right.p[k] / right.rho[k]).sqrt() * right.rho[k];
        pstar[k] = ((cr * left.p[k] + cl * right.p[k] + cl * cr * (left.u[k] - right.u[k]))
            / (cl + cr))
            .max(SMALL);
    }
    // Newton-ish secant iterations on u*_L(p) = u*_R(p).
    let mut ustar = [0.0; LANES];
    for _ in 0..4 {
        for k in 0..LANES {
            let wl = wave_speed(left.rho[k], left.p[k], pstar[k]);
            let wr = wave_speed(right.rho[k], right.p[k], pstar[k]);
            let ul = left.u[k] - (pstar[k] - left.p[k]) / wl;
            let ur = right.u[k] + (pstar[k] - right.p[k]) / wr;
            ustar[k] = 0.5 * (ul + ur);
            // d(u*_L)/dp ~ -1/W, d(u*_R)/dp ~ 1/W.
            let dp = (ul - ur) / (1.0 / wl + 1.0 / wr);
            pstar[k] = (pstar[k] + dp).max(SMALL);
        }
    }

    // Sample the state at x/t = 0: pick each lane's upwind side, then
    // the post-wave density (Lagrangian jump relation) and the wave
    // velocity (shock front) on that side.
    let mut side = PrimLanes::default();
    let mut sign = [0.0; LANES];
    for k in 0..LANES {
        let (s, g) = if ustar[k] >= 0.0 {
            (left.get(k), 1.0)
        } else {
            (right.get(k), -1.0)
        };
        side.set(k, s);
        sign[k] = g;
    }
    let mut rho_star = [0.0; LANES];
    let mut wave_vel = [0.0; LANES];
    for k in 0..LANES {
        let w = wave_speed(side.rho[k], side.p[k], pstar[k]);
        rho_star[k] =
            (1.0 / (1.0 / side.rho[k] - (pstar[k] - side.p[k]) / (w * w)).max(SMALL)).max(SMALL);
        wave_vel[k] = side.u[k] - sign[k] * w / side.rho[k];
    }
    std::array::from_fn(|k| {
        sample(
            &side.get(k),
            sign[k],
            pstar[k],
            ustar[k],
            rho_star[k],
            wave_vel[k],
        )
    })
}

/// The state an interface sees, given its upwind side `s` (`sign` is
/// +1 for the left state, -1 for the right), the star-region
/// pressure, velocity and density, and the wave velocity on that side.
#[inline]
fn sample(s: &Prim, sign: f64, pstar: f64, ustar: f64, rho_star: f64, wave_vel: f64) -> Prim {
    let star = Prim {
        rho: rho_star,
        u: ustar,
        v: s.v,
        p: pstar,
    };
    if pstar >= s.p {
        // Shock: the interface sees the star state if the shock has
        // passed, else the pre-wave state.
        if sign * wave_vel <= 0.0 {
            star
        } else {
            *s
        }
    } else {
        // Rarefaction (two-shock approximation treats its head/tail
        // with the shock relations): sample head and tail speeds.
        let c_pre = s.sound_speed();
        let c_star = (GAMMA * pstar / rho_star).sqrt();
        let head = s.u - sign * c_pre;
        let tail = ustar - sign * c_star;
        if sign * head >= 0.0 {
            *s
        } else if sign * tail <= 0.0 {
            star
        } else {
            // Inside the fan: linear interpolation between pre and
            // star states (adequate within the two-shock approximation).
            let frac = (sign * head) / (sign * (head - tail)).max(SMALL);
            let frac = frac.clamp(0.0, 1.0);
            Prim {
                rho: s.rho + frac * (rho_star - s.rho),
                u: s.u + frac * (ustar - s.u),
                v: s.v,
                p: s.p + frac * (pstar - s.p),
            }
        }
    }
}

/// Which way [`riemann_scalar`] sampled an interface.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Branch {
    /// Shock, star state behind it.
    ShockStar,
    /// Shock not yet arrived: the pre-wave state.
    ShockPre,
    /// Rarefaction head not yet arrived.
    FanPre,
    /// Behind the rarefaction tail.
    FanStar,
    /// Inside the fan.
    FanInside,
}

/// The one-interface-at-a-time two-shock solver [`riemann_lanes`]
/// replaced, kept verbatim as the bitwise oracle for its tests. Also
/// reports the sampled branch and whether the secant iteration ever
/// hit the `SMALL` pressure floor.
#[cfg(test)]
pub(crate) fn riemann_scalar(left: &Prim, right: &Prim) -> (Prim, Branch, bool) {
    fn wave_speed(s: &Prim, pstar: f64) -> f64 {
        let g = GAMMA;
        (g * s.p * s.rho * (1.0 + (g + 1.0) / (2.0 * g) * (pstar / s.p - 1.0)).max(SMALL)).sqrt()
    }
    // Initial guess: PVRS (linearized) pressure.
    let cl = left.sound_speed() * left.rho;
    let cr = right.sound_speed() * right.rho;
    let mut pstar =
        ((cr * left.p + cl * right.p + cl * cr * (left.u - right.u)) / (cl + cr)).max(SMALL);
    let mut floored = pstar == SMALL;
    // Newton-ish secant iterations on u*_L(p) = u*_R(p).
    let mut ustar = 0.0;
    for _ in 0..4 {
        let wl = wave_speed(left, pstar);
        let wr = wave_speed(right, pstar);
        let ul = left.u - (pstar - left.p) / wl;
        let ur = right.u + (pstar - right.p) / wr;
        ustar = 0.5 * (ul + ur);
        // d(u*_L)/dp ~ -1/W, d(u*_R)/dp ~ 1/W.
        let dp = (ul - ur) / (1.0 / wl + 1.0 / wr);
        pstar = (pstar + dp).max(SMALL);
        floored |= pstar == SMALL;
    }

    // Sample the state at x/t = 0.
    let (s, sign) = if ustar >= 0.0 {
        (left, 1.0)
    } else {
        (right, -1.0)
    };
    let w = wave_speed(s, pstar);
    // Post-wave density from the Lagrangian jump relation.
    let rho_star = (1.0 / (1.0 / s.rho - (pstar - s.p) / (w * w)).max(SMALL)).max(SMALL);
    // Wave velocity (shock front) on this side.
    let wave_vel = s.u - sign * w / s.rho;
    let star = Prim {
        rho: rho_star,
        u: ustar,
        v: s.v,
        p: pstar,
    };
    let (out, branch) = if pstar >= s.p {
        if sign * wave_vel <= 0.0 {
            (star, Branch::ShockStar)
        } else {
            (*s, Branch::ShockPre)
        }
    } else {
        let c_pre = s.sound_speed();
        let c_star = (GAMMA * pstar / rho_star).sqrt();
        let head = s.u - sign * c_pre;
        let tail = ustar - sign * c_star;
        if sign * head >= 0.0 {
            (*s, Branch::FanPre)
        } else if sign * tail <= 0.0 {
            (star, Branch::FanStar)
        } else {
            let frac = (sign * head) / (sign * (head - tail)).max(SMALL);
            let frac = frac.clamp(0.0, 1.0);
            (
                Prim {
                    rho: s.rho + frac * (rho_star - s.rho),
                    u: s.u + frac * (ustar - s.u),
                    v: s.v,
                    p: s.p + frac * (pstar - s.p),
                },
                Branch::FanInside,
            )
        }
    };
    (out, branch, floored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(rho: f64, u: f64, p: f64) -> Prim {
        Prim { rho, u, v: 0.0, p }
    }

    #[test]
    fn conversions_round_trip() {
        let s = Prim {
            rho: 1.3,
            u: -0.4,
            v: 0.9,
            p: 2.1,
        };
        let back = s.to_cons().to_prim();
        assert!((back.rho - s.rho).abs() < 1e-12);
        assert!((back.u - s.u).abs() < 1e-12);
        assert!((back.v - s.v).abs() < 1e-12);
        assert!((back.p - s.p).abs() < 1e-12);
    }

    #[test]
    fn trivial_riemann_returns_the_state() {
        let s = prim(1.0, 0.5, 1.0);
        let r = riemann(&s, &s);
        assert!((r.rho - 1.0).abs() < 1e-9);
        assert!((r.u - 0.5).abs() < 1e-9);
        assert!((r.p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sod_star_values() {
        // Sod problem: exact p* = 0.30313, u* = 0.92745.
        let l = prim(1.0, 0.0, 1.0);
        let r = prim(0.125, 0.0, 0.1);
        // Extract pstar/ustar by sampling just left of the contact:
        // the resolved state at x/t = 0 for Sod is inside the star
        // region (u* > 0 -> left star state).
        let res = riemann(&l, &r);
        assert!(
            (res.p - 0.30313).abs() < 0.03,
            "p* = {} (exact 0.30313)",
            res.p
        );
        assert!(
            (res.u - 0.92745).abs() < 0.05,
            "u* = {} (exact 0.92745)",
            res.u
        );
    }

    #[test]
    fn symmetric_collision_is_stationary() {
        let l = prim(1.0, 2.0, 1.0);
        let r = prim(1.0, -2.0, 1.0);
        let res = riemann(&l, &r);
        assert!(res.u.abs() < 1e-9, "u = {}", res.u);
        assert!(res.p > 1.0, "colliding flows must compress: p = {}", res.p);
        assert!(res.rho > 1.0);
    }

    #[test]
    fn supersonic_advection_takes_upwind_state() {
        // Both states moving right supersonically: interface sees the
        // left state.
        let l = prim(1.0, 10.0, 1.0);
        let r = prim(0.5, 10.0, 1.0);
        let res = riemann(&l, &r);
        assert!((res.rho - 1.0).abs() < 0.05, "rho = {}", res.rho);
    }

    #[test]
    fn flux_of_static_state_is_pressure_only() {
        let s = prim(1.0, 0.0, 2.5);
        let f = flux(&s);
        assert_eq!(f.rho, 0.0);
        assert!((f.mu - 2.5).abs() < 1e-12);
        assert_eq!(f.e, 0.0);
    }

    #[test]
    fn riemann_is_mirror_symmetric() {
        let l = prim(1.0, 0.3, 1.2);
        let r = prim(0.6, -0.1, 0.4);
        let a = riemann(&l, &r);
        // Mirror: swap sides and negate velocities.
        let lm = prim(0.6, 0.1, 0.4);
        let rm = prim(1.0, -0.3, 1.2);
        let b = riemann(&lm, &rm);
        assert!((a.rho - b.rho).abs() < 1e-9);
        assert!((a.u + b.u).abs() < 1e-9);
        assert!((a.p - b.p).abs() < 1e-9);
    }

    /// A random primitive state: densities and pressures spread over
    /// ten decades (down to below `SMALL`), velocities up to ±20 so
    /// strong shocks, strong rarefactions and near-vacuum states all
    /// occur.
    fn random_state(rng: &mut proptest::TestRng) -> Prim {
        let positive = |rng: &mut proptest::TestRng| {
            if rng.below(16) == 0 {
                SMALL * rng.unit_f64()
            } else {
                10f64.powf(8.0 * rng.unit_f64() - 6.0)
            }
        };
        let rho = positive(rng);
        let p = positive(rng);
        let vel = |rng: &mut proptest::TestRng| match rng.below(4) {
            0 => 0.0,
            1 => 40.0 * rng.unit_f64() - 20.0,
            _ => 4.0 * rng.unit_f64() - 2.0,
        };
        let u = vel(rng);
        let v = vel(rng);
        Prim { rho, u, v, p }
    }

    fn same_bits(a: &Prim, b: &Prim) -> bool {
        [a.rho, a.u, a.v, a.p]
            .iter()
            .zip([b.rho, b.u, b.v, b.p])
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn lock_step_lanes_match_the_scalar_solver_bitwise() {
        use std::collections::HashSet;
        let mut rng = proptest::TestRng::new(0x5eed_4ee5);
        let mut branches = HashSet::new();
        let mut floored = 0;
        for case in 0..20_000 {
            let mut left = PrimLanes::default();
            let mut right = PrimLanes::default();
            let mut want = Vec::new();
            for k in 0..LANES {
                let (l, r) = (random_state(&mut rng), random_state(&mut rng));
                left.set(k, l);
                right.set(k, r);
                let (res, branch, floor) = riemann_scalar(&l, &r);
                branches.insert(branch);
                floored += usize::from(floor);
                want.push(res);
            }
            let got = riemann_lanes(&left, &right);
            for k in 0..LANES {
                assert!(
                    same_bits(&got[k], &want[k]),
                    "case {case} lane {k}: {:?} | {:?} -> {:?}, scalar {:?}",
                    left.get(k),
                    right.get(k),
                    got[k],
                    want[k]
                );
                let one = riemann(&left.get(k), &right.get(k));
                assert!(same_bits(&one, &want[k]), "case {case} lane {k} alone");
            }
        }
        for b in [
            Branch::ShockStar,
            Branch::ShockPre,
            Branch::FanPre,
            Branch::FanStar,
            Branch::FanInside,
        ] {
            assert!(branches.contains(&b), "no random case sampled {b:?}");
        }
        assert!(floored > 0, "no random case hit the SMALL pressure floor");
    }
}
