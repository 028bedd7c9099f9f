//! Host-side reference implementation: the full periodic grid swept
//! directionally with [`crate::ppm1d::sweep_strip`], no tiling, no
//! pricing. The physics oracle for the tiled simulated version.

use crate::euler::{Cons, Prim};
use crate::ppm1d::{sweep_strip, SweepWork};
use crate::problem::PpmProblem;

/// Ghost width used when assembling periodic strips.
pub const NG: usize = 4;

/// Full-grid state, zone-major (`idx = x + nx * y`).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Conserved state per zone.
    pub cells: Vec<Cons>,
    /// Zones in x.
    pub nx: usize,
    /// Zones in y.
    pub ny: usize,
    /// Current timestep (deferred CFL from the previous step).
    pub dt: f64,
}

impl Grid {
    /// Initialize from a problem definition.
    pub fn new(p: &PpmProblem) -> Self {
        let mut cells = Vec::with_capacity(p.zones());
        for y in 0..p.ny {
            for x in 0..p.nx {
                cells.push(p.initial(x, y).to_cons());
            }
        }
        let mut g = Grid {
            cells,
            nx: p.nx,
            ny: p.ny,
            dt: 0.0,
        };
        g.dt = p.cfl / g.max_signal_speed();
        g
    }

    /// Maximum `|u| + c` over the grid (host scan).
    pub fn max_signal_speed(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                let s = c.to_prim();
                s.u.abs().max(s.v.abs()) + s.sound_speed()
            })
            .fold(0.0, f64::max)
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.cells.iter().map(|c| c.rho).sum()
    }

    /// Total energy.
    pub fn total_energy(&self) -> f64 {
        self.cells.iter().map(|c| c.e).sum()
    }

    /// Primitive state of zone `(x, y)`.
    pub fn prim(&self, x: usize, y: usize) -> Prim {
        self.cells[x + self.nx * y].to_prim()
    }

    /// One directionally split timestep (x sweep then y sweep) with
    /// periodic boundaries. Returns the max signal speed observed.
    pub fn step(&mut self, cfl: f64) -> f64 {
        let dt = self.dt;
        let mut max_speed = 0.0f64;
        let mut work = SweepWork::default();

        // X sweeps.
        let nx = self.nx;
        let mut strip = vec![Cons::default(); nx + 2 * NG];
        for y in 0..self.ny {
            for (i, s) in strip.iter_mut().enumerate() {
                let x = (i + nx - NG) % nx;
                *s = self.cells[x + nx * y];
            }
            let (ms, _) = sweep_strip(&mut strip, NG..NG + nx, dt, &mut work);
            max_speed = max_speed.max(ms);
            for x in 0..nx {
                self.cells[x + nx * y] = strip[NG + x];
            }
        }

        // Y sweeps (transverse role of u/v swaps).
        let ny = self.ny;
        let mut strip = vec![Cons::default(); ny + 2 * NG];
        for x in 0..nx {
            for (i, s) in strip.iter_mut().enumerate() {
                let y = (i + ny - NG) % ny;
                *s = swap_uv(self.cells[x + nx * y]);
            }
            let (ms, _) = sweep_strip(&mut strip, NG..NG + ny, dt, &mut work);
            max_speed = max_speed.max(ms);
            for y in 0..ny {
                self.cells[x + nx * y] = swap_uv(strip[NG + y]);
            }
        }

        self.dt = cfl / max_speed.max(1e-12);
        max_speed
    }
}

/// Swap the roles of normal and transverse momentum (for y sweeps).
#[inline]
pub fn swap_uv(c: Cons) -> Cons {
    Cons {
        rho: c.rho,
        mu: c.mv,
        mv: c.mu,
        e: c.e,
    }
}

/// Analytic Sod-tube reference values at `t = 0.2` on `x in [0, 1]`
/// with the diaphragm at 0.5 (Toro, Table 4.1-ish samples):
/// `(x, density)` pairs in smooth regions.
pub fn sod_reference() -> [(f64, f64); 4] {
    [
        (0.1, 1.0),      // undisturbed left state
        (0.55, 0.42632), // between contact and shock... (post-contact)
        (0.75, 0.26557), // post-shock density
        (0.95, 0.125),   // undisturbed right state
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_on_periodic_grid() {
        let p = PpmProblem::tiny();
        let mut g = Grid::new(&p);
        let m0 = g.total_mass();
        let e0 = g.total_energy();
        for _ in 0..5 {
            g.step(p.cfl);
        }
        assert!((g.total_mass() - m0).abs() / m0 < 1e-11, "mass drift");
        assert!((g.total_energy() - e0).abs() / e0 < 1e-11, "energy drift");
    }

    #[test]
    fn uniform_gas_stays_uniform() {
        let p = PpmProblem {
            blast_pressure: 1.0, // no blast
            ..PpmProblem::tiny()
        };
        let mut g = Grid::new(&p);
        for _ in 0..3 {
            g.step(p.cfl);
        }
        for c in &g.cells {
            let s = c.to_prim();
            assert!((s.rho - 1.0).abs() < 1e-12);
            assert!(s.u.abs() < 1e-12);
            assert!((s.p - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn blast_expands_symmetrically() {
        let p = PpmProblem::table2(48, 48, 2, 2);
        let mut g = Grid::new(&p);
        for _ in 0..16 {
            g.step(p.cfl);
        }
        // Pressure pattern symmetric under x <-> nx-1-x.
        for y in 0..p.ny {
            for x in 0..p.nx / 2 {
                let a = g.prim(x, y).p;
                let b = g.prim(p.nx - 1 - x, y).p;
                assert!(
                    (a - b).abs() < 1e-9 * a.max(1.0),
                    "asymmetry at ({x},{y}): {a} vs {b}"
                );
            }
        }
        // The shock has moved outward: pressure just beyond the
        // initial blast edge has risen.
        let probe = g.prim(p.nx / 2 + (p.blast_radius as usize) + 2, p.ny / 2);
        assert!(probe.p > 1.01, "shock not yet arrived: p = {}", probe.p);
    }

    #[test]
    fn positivity_is_maintained() {
        let p = PpmProblem {
            blast_pressure: 100.0, // strong shock
            ..PpmProblem::tiny()
        };
        let mut g = Grid::new(&p);
        for _ in 0..10 {
            g.step(p.cfl);
            for c in &g.cells {
                let s = c.to_prim();
                assert!(s.rho > 0.0 && s.p > 0.0, "negative state {s:?}");
            }
        }
    }

    #[test]
    fn sod_tube_profile_matches_analytics() {
        // Periodic boundaries would contaminate a plain Sod setup, so
        // use the mirrored double domain: x in [0, 2] with the high
        // state in [0.5, 1.5]. The diaphragm at 1.5 reproduces the
        // standard Sod problem (standard coordinate = x - 1.0); the
        // mirror waves from x = 0.5 stay clear of the sampled region
        // until t = 0.2.
        let nx = 512;
        let dx = 2.0 / nx as f64;
        let mut g = Grid {
            cells: Vec::new(),
            nx,
            ny: 4,
            dt: 0.0,
        };
        for _y in 0..4 {
            for zx in 0..nx {
                let xp = (zx as f64 + 0.5) * dx;
                let high = (0.5..1.5).contains(&xp);
                g.cells.push(
                    Prim {
                        rho: if high { 1.0 } else { 0.125 },
                        u: 0.0,
                        v: 0.0,
                        p: if high { 1.0 } else { 0.1 },
                    }
                    .to_cons(),
                );
            }
        }
        g.dt = 0.4 / g.max_signal_speed();
        let mut t = 0.0;
        while t < 0.2 {
            let dt_phys = (g.dt * dx).min(0.2 - t + 1e-12);
            g.dt = dt_phys / dx;
            g.step(0.4);
            t += dt_phys;
        }
        for (xref, rho_ref) in sod_reference() {
            // Map standard Sod coordinate to the double domain.
            let xp = xref + 1.0;
            let zx = ((xp / dx) as usize).min(nx - 1);
            let got = g.prim(zx, 1).rho;
            assert!(
                (got - rho_ref).abs() / rho_ref < 0.08,
                "rho({xref}) = {got}, expected {rho_ref}"
            );
        }
    }
}
