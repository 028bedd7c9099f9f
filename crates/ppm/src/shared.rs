//! Tile-decomposed PPM on the simulated SPP-1000 (paper §5.4,
//! Table 2).
//!
//! The grid is divided into rectangular tiles, each surrounded by a
//! four-deep frame of ghost zones; "the only communication required
//! ... is that four rows of values must be exchanged between adjacent
//! tiles once per time step". After the single exchange, each tile
//! x-sweeps its interior plus a three-deep row margin (redundant
//! transport-flux work on ghost rows), which supplies the y-sweep
//! stencil without a second exchange — exactly the scheme the paper
//! describes. Tiles are assigned to processors round-robin and placed
//! block-shared so each tile is homed on its owner's hypernode.

use crate::euler::Cons;
use crate::host::NG;
use crate::ppm1d::{sweep_strip, SweepCost, SweepWork};
use crate::problem::PpmProblem;
use spp_core::{Cycles, MemClass, MemPort, SimArray};
use spp_runtime::{Runtime, Team, ThreadCtx};

/// Extra cycles per divide/sqrt beyond its counted flop (PA-7100
/// FDIV/FSQRT latency).
pub const DIVSQRT_EXTRA_CYCLES: u64 = 13;

/// Cumulative result of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunReport {
    /// Elapsed simulated cycles.
    pub elapsed: Cycles,
    /// Useful FLOPs (interior zone updates; redundant margin work is
    /// charged as time but not credited as useful flops).
    pub flops: u64,
    /// Steps executed.
    pub steps: usize,
}

impl RunReport {
    /// Sustained Mflop/s.
    pub fn mflops(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.flops as f64 / (self.elapsed as f64 * 1e-8) / 1e6
        }
    }

    /// Elapsed simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed as f64 * 1e-8
    }
}

/// PPM state: all tiles packed into four shared arrays (one per
/// conserved variable), tile-major with page-aligned tile strides so
/// block-shared placement homes each tile at its owner.
pub struct SharedPpm {
    /// Problem parameters.
    pub problem: PpmProblem,
    rho: SimArray<f64>,
    mu: SimArray<f64>,
    mv: SimArray<f64>,
    e: SimArray<f64>,
    /// Per-tile max signal speed from the last step.
    speeds: SimArray<f64>,
    /// Elements per tile slot (page-aligned).
    stride: usize,
    /// Ghosted tile width/height.
    gw: usize,
    gh: usize,
    /// Current dt/dx.
    dtdx: f64,
    /// Tile -> owning thread for the current team.
    owner: Vec<usize>,
}

impl SharedPpm {
    /// Initialize the blast problem on tiles placed for `team`.
    pub fn new<P: MemPort>(rt: &mut Runtime<P>, problem: PpmProblem, team: &Team) -> Self {
        let (w, h) = problem.tile_shape();
        let (gw, gh) = (w + 2 * NG, h + 2 * NG);
        // Page-aligned tile stride so BlockShared maps one tile per
        // block.
        let stride = (gw * gh).div_ceil(512) * 512;
        let tiles = problem.num_tiles();
        let total = stride * tiles;
        let class = if team.nodes_used() <= 1 {
            team.shared_class(rt.machine.config(), (total * 8) as u64)
        } else {
            MemClass::BlockShared {
                block_bytes: stride * 8,
            }
        };
        let m = &mut rt.machine;
        let mut s = SharedPpm {
            rho: SimArray::from_elem(m, class, total, 0.0),
            mu: SimArray::from_elem(m, class, total, 0.0),
            mv: SimArray::from_elem(m, class, total, 0.0),
            e: SimArray::from_elem(m, class, total, 0.0),
            speeds: SimArray::from_elem(
                m,
                MemClass::NearShared {
                    node: spp_core::NodeId(0),
                },
                tiles,
                0.0,
            ),
            stride,
            gw,
            gh,
            dtdx: 0.0,
            owner: assign_owners(tiles, team, m.config()),
            problem,
        };
        s.rho.set_label(m, "rho");
        s.mu.set_label(m, "mu");
        s.mv.set_label(m, "mv");
        s.e.set_label(m, "e");
        s.speeds.set_label(m, "speeds");
        // Host-side initialization of tile interiors.
        let p = s.problem.clone();
        let mut max_speed = 0.0f64;
        for t in 0..tiles {
            let (tx, ty) = (t % p.tiles_x, t / p.tiles_x);
            for j in 0..h {
                for i in 0..w {
                    let prim = p.initial(tx * w + i, ty * h + j);
                    let c = prim.to_cons();
                    let idx = s.tile_idx(t, i + NG, j + NG);
                    s.rho.host_mut()[idx] = c.rho;
                    s.mu.host_mut()[idx] = c.mu;
                    s.mv.host_mut()[idx] = c.mv;
                    s.e.host_mut()[idx] = c.e;
                    max_speed = max_speed.max(prim.u.abs().max(prim.v.abs()) + prim.sound_speed());
                }
            }
        }
        s.dtdx = p.cfl / max_speed;
        s
    }

    #[inline]
    fn tile_idx(&self, tile: usize, gx: usize, gy: usize) -> usize {
        tile * self.stride + gx + self.gw * gy
    }

    /// Tile id of the (wrapped) neighbour at offset `(dx, dy)`.
    fn neighbor(&self, tile: usize, dx: isize, dy: isize) -> usize {
        let p = &self.problem;
        let tx = (tile % p.tiles_x) as isize;
        let ty = (tile / p.tiles_x) as isize;
        let nx = (tx + dx).rem_euclid(p.tiles_x as isize) as usize;
        let ny = (ty + dy).rem_euclid(p.tiles_y as isize) as usize;
        ny * p.tiles_x + nx
    }

    /// One directionally split timestep. Returns (elapsed, flops).
    pub fn step<P: MemPort>(&mut self, rt: &mut Runtime<P>, team: &Team) -> (Cycles, u64) {
        self.step_profiled(rt, team, None)
    }

    /// One timestep, optionally recording each phase in a CXpa-style
    /// [`spp_runtime::Profile`].
    pub fn step_profiled<P: MemPort>(
        &mut self,
        rt: &mut Runtime<P>,
        team: &Team,
        mut prof: Option<&mut spp_runtime::Profile>,
    ) -> (Cycles, u64) {
        let track = |prof: &mut Option<&mut spp_runtime::Profile>,
                     name: &str,
                     rep: &spp_runtime::RegionReport| {
            if let Some(p) = prof.as_deref_mut() {
                p.record(name, rep);
            }
        };
        let mut elapsed = 0u64;
        let mut flops = 0u64;
        let tiles = self.problem.num_tiles();
        let (w, h) = self.problem.tile_shape();
        let (gw, gh) = (self.gw, self.gh);
        let dtdx = self.dtdx;

        // Phase 1: ghost exchange — each owner pulls 4-deep frames
        // (and corners) from its neighbours' interiors.
        {
            let owner = self.owner.clone();
            // Pre-compute source indices on the host (pure index math).
            let mut moves: Vec<(usize, usize)> = Vec::new(); // (dst, src)
            for t in 0..tiles {
                for gy in 0..gh {
                    for gx in 0..gw {
                        let in_x = (NG..NG + w).contains(&gx);
                        let in_y = (NG..NG + h).contains(&gy);
                        if in_x && in_y {
                            continue;
                        }
                        let dx = if gx < NG {
                            -1
                        } else if gx >= NG + w {
                            1
                        } else {
                            0
                        };
                        let dy = if gy < NG {
                            -1
                        } else if gy >= NG + h {
                            1
                        } else {
                            0
                        };
                        let nb = self.neighbor(t, dx, dy);
                        let sx = (gx as isize - dx * w as isize) as usize;
                        let sy = (gy as isize - dy * h as isize) as usize;
                        moves.push((self.tile_idx(t, gx, gy), self.tile_idx(nb, sx, sy)));
                    }
                }
            }
            let per_tile = moves.len() / tiles;
            let (rho, mu, mv, e) = (&mut self.rho, &mut self.mu, &mut self.mv, &mut self.e);
            let rep = rt.team_fork_join(team, |ctx| {
                for t in 0..tiles {
                    if owner[t] != ctx.tid {
                        continue;
                    }
                    for (dst, src) in &moves[t * per_tile..(t + 1) * per_tile] {
                        for arr in [&mut *rho, &mut *mu, &mut *mv, &mut *e] {
                            let v = ctx.read(arr, *src);
                            ctx.write(arr, *dst, v);
                        }
                    }
                }
            });
            track(&mut prof, "ghost", &rep);
            elapsed += rep.elapsed;
            flops += rep.flops;
        }

        // Phase 2: x sweeps over rows 1..gh-1, updating a 3-deep row
        // margin redundantly so the y sweep needs no second exchange.
        let rep = self.sweep_phase(rt, team, true, dtdx);
        track(&mut prof, "xsweep", &rep);
        elapsed += rep.elapsed;
        flops += rep.flops;

        // Phase 3: y sweeps over interior columns.
        let rep = self.sweep_phase(rt, team, false, dtdx);
        track(&mut prof, "ysweep", &rep);
        elapsed += rep.elapsed;
        flops += rep.flops;

        // Phase 4: global CFL reduction (thread 0 reads per-tile
        // speeds).
        {
            let speeds = &self.speeds;
            let mut global = 0.0f64;
            let g = &mut global;
            let rep = rt.team_fork_join(team, |ctx| {
                if ctx.tid == 0 {
                    for t in 0..tiles {
                        let v = ctx.read(speeds, t);
                        *g = g.max(v);
                        ctx.flops(1);
                    }
                }
            });
            track(&mut prof, "reduce", &rep);
            elapsed += rep.elapsed;
            flops += rep.flops;
            self.dtdx = self.problem.cfl / global.max(1e-12);
        }

        (elapsed, flops)
    }

    /// One sweep direction across all owned tiles.
    fn sweep_phase<P: MemPort>(
        &mut self,
        rt: &mut Runtime<P>,
        team: &Team,
        xdir: bool,
        dtdx: f64,
    ) -> spp_runtime::RegionReport {
        let tiles = self.problem.num_tiles();
        let (w, h) = self.problem.tile_shape();
        let (gw, gh) = (self.gw, self.gh);
        let stride = self.stride;
        let owner = self.owner.clone();
        let (rho, mu, mv, e) = (&mut self.rho, &mut self.mu, &mut self.mv, &mut self.e);
        let speeds = &mut self.speeds;
        let rep = rt.team_fork_join(team, |ctx| {
            let mut strip: Vec<Cons> = Vec::new();
            let mut work = SweepWork::default();
            let (mut rbuf, mut mubuf, mut mvbuf, mut ebuf) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (t, &own) in owner.iter().enumerate().take(tiles) {
                if own != ctx.tid {
                    continue;
                }
                let mut tile_speed = 0.0f64;
                if xdir {
                    // Rows 1..gh-1; update zones NG..NG+w plus nothing
                    // extra in x (the margin is in *rows*).
                    for r in 1..gh - 1 {
                        strip.clear();
                        let base = t * stride + gw * r;
                        rbuf.clear();
                        mubuf.clear();
                        mvbuf.clear();
                        ebuf.clear();
                        ctx.read_run(rho, base..base + gw, &mut rbuf);
                        ctx.read_run(mu, base..base + gw, &mut mubuf);
                        ctx.read_run(mv, base..base + gw, &mut mvbuf);
                        ctx.read_run(e, base..base + gw, &mut ebuf);
                        for i in 0..gw {
                            strip.push(Cons {
                                rho: rbuf[i],
                                mu: mubuf[i],
                                mv: mvbuf[i],
                                e: ebuf[i],
                            });
                        }
                        let (ms, cost) = sweep_strip(&mut strip, NG..NG + w, dtdx, &mut work);
                        tile_speed = tile_speed.max(ms);
                        // Interior rows produce useful flops; margin
                        // rows are redundant (time only).
                        let useful = (NG..NG + h).contains(&r);
                        charge(ctx, &cost, useful);
                        rbuf.clear();
                        mubuf.clear();
                        mvbuf.clear();
                        ebuf.clear();
                        for s in strip.iter().take(NG + w).skip(NG) {
                            rbuf.push(s.rho);
                            mubuf.push(s.mu);
                            mvbuf.push(s.mv);
                            ebuf.push(s.e);
                        }
                        ctx.write_run(rho, base + NG, &rbuf);
                        ctx.write_run(mu, base + NG, &mubuf);
                        ctx.write_run(mv, base + NG, &mvbuf);
                        ctx.write_run(e, base + NG, &ebuf);
                    }
                } else {
                    // Interior columns; swap u/v roles for the y sweep.
                    for cx in NG..NG + w {
                        strip.clear();
                        for r in 0..gh {
                            let idx = t * stride + cx + gw * r;
                            strip.push(Cons {
                                rho: ctx.read(rho, idx),
                                mu: ctx.read(mv, idx),
                                mv: ctx.read(mu, idx),
                                e: ctx.read(e, idx),
                            });
                        }
                        let (ms, cost) = sweep_strip(&mut strip, NG..NG + h, dtdx, &mut work);
                        tile_speed = tile_speed.max(ms);
                        charge(ctx, &cost, true);
                        for (r, s) in strip.iter().enumerate().take(NG + h).skip(NG) {
                            let idx = t * stride + cx + gw * r;
                            ctx.write(rho, idx, s.rho);
                            ctx.write(mu, idx, s.mv);
                            ctx.write(mv, idx, s.mu);
                            ctx.write(e, idx, s.e);
                        }
                    }
                }
                if xdir {
                    // Record after the x phase; the y phase maxes in.
                    ctx.write(speeds, t, tile_speed);
                } else {
                    let prev = ctx.read(speeds, t);
                    ctx.write(speeds, t, prev.max(tile_speed));
                }
            }
        });
        rep
    }

    /// Run `steps` timesteps.
    pub fn run<P: MemPort>(&mut self, rt: &mut Runtime<P>, team: &Team, steps: usize) -> RunReport {
        let mut out = RunReport {
            steps,
            ..Default::default()
        };
        for _ in 0..steps {
            let (c, f) = self.step(rt, team);
            out.elapsed += c;
            out.flops += f;
        }
        out
    }

    /// Host view: primitive state of global zone `(x, y)` (validation).
    pub fn prim(&self, x: usize, y: usize) -> crate::euler::Prim {
        let (w, h) = self.problem.tile_shape();
        let t = (x / w) + self.problem.tiles_x * (y / h);
        let idx = self.tile_idx(t, x % w + NG, y % h + NG);
        Cons {
            rho: self.rho.host()[idx],
            mu: self.mu.host()[idx],
            mv: self.mv.host()[idx],
            e: self.e.host()[idx],
        }
        .to_prim()
    }

    /// Total mass over tile interiors (validation).
    pub fn total_mass(&self) -> f64 {
        let (w, h) = self.problem.tile_shape();
        let mut total = 0.0;
        for t in 0..self.problem.num_tiles() {
            for j in NG..NG + h {
                for i in NG..NG + w {
                    total += self.rho.host()[self.tile_idx(t, i, j)];
                }
            }
        }
        total
    }
}

/// Credit a sweep's cost to the thread: flops (useful or redundant)
/// plus the multi-cycle divide/sqrt and work-array traffic.
fn charge<P: MemPort>(ctx: &mut ThreadCtx<'_, P>, cost: &SweepCost, useful: bool) {
    if useful {
        ctx.flops(cost.flops);
    } else {
        // Redundant margin work: same time, no useful-flop credit.
        ctx.cycles(ctx.cost_model().flop_cycles(cost.flops));
    }
    ctx.cycles(cost.divsqrt * DIVSQRT_EXTRA_CYCLES + cost.work_accesses);
}

/// Deal tiles to threads so a tile's block-shared home node matches
/// its owner's node: tile `t` goes to node group `t % groups`, round
/// robin within the group.
fn assign_owners(tiles: usize, team: &Team, cfg: &spp_core::MachineConfig) -> Vec<usize> {
    // Group thread ids by node.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut node_of_group: Vec<u8> = Vec::new();
    for (tid, cpu) in team.cpus().iter().enumerate() {
        let node = cfg.node_of_cpu(*cpu).0;
        match node_of_group.iter().position(|n| *n == node) {
            Some(g) => groups[g].push(tid),
            None => {
                node_of_group.push(node);
                groups.push(vec![tid]);
            }
        }
    }
    let ng = groups.len();
    (0..tiles)
        .map(|t| {
            let g = t % ng;
            groups[g][(t / ng) % groups[g].len()]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Grid;
    use spp_runtime::Placement;

    fn sim(threads: usize, p: PpmProblem) -> (Runtime, SharedPpm, Team) {
        let mut rt = Runtime::spp1000(2);
        let team = Team::place(rt.machine.config(), threads, &Placement::HighLocality);
        let s = SharedPpm::new(&mut rt, p, &team);
        (rt, s, team)
    }

    #[test]
    fn profiled_step_records_every_phase() {
        let p = PpmProblem::tiny();
        let (mut rt, mut s, team) = sim(4, p);
        let mut prof = spp_runtime::Profile::new();
        let (elapsed, _) = s.step_profiled(&mut rt, &team, Some(&mut prof));
        let names: Vec<&str> = prof.regions().iter().map(|r| r.name.as_str()).collect();
        for want in ["ghost", "xsweep", "ysweep", "reduce"] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        assert_eq!(prof.total_elapsed(), elapsed, "profile covers the step");
    }

    #[test]
    fn matches_host_reference() {
        let p = PpmProblem::tiny();
        let (mut rt, mut s, team) = sim(1, p.clone());
        let mut g = Grid::new(&p);
        for _ in 0..3 {
            s.step(&mut rt, &team);
            g.step(p.cfl);
        }
        for y in (0..p.ny).step_by(5) {
            for x in (0..p.nx).step_by(3) {
                let a = s.prim(x, y);
                let b = g.prim(x, y);
                assert!(
                    (a.rho - b.rho).abs() < 1e-9,
                    "rho({x},{y}) = {} vs {}",
                    a.rho,
                    b.rho
                );
                assert!((a.p - b.p).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_physics() {
        let p = PpmProblem::tiny();
        let (mut rt1, mut s1, team1) = sim(1, p.clone());
        let (mut rt8, mut s8, team8) = sim(8, p.clone());
        for _ in 0..2 {
            s1.step(&mut rt1, &team1);
            s8.step(&mut rt8, &team8);
        }
        for y in (0..p.ny).step_by(7) {
            for x in 0..p.nx {
                let a = s1.prim(x, y);
                let b = s8.prim(x, y);
                assert!((a.rho - b.rho).abs() < 1e-12, "({x},{y})");
            }
        }
    }

    #[test]
    fn mass_conserved_across_tiles() {
        let p = PpmProblem::tiny();
        let (mut rt, mut s, team) = sim(4, p);
        let m0 = s.total_mass();
        for _ in 0..4 {
            s.step(&mut rt, &team);
        }
        let m1 = s.total_mass();
        assert!((m1 - m0).abs() / m0 < 1e-11, "{m0} -> {m1}");
    }

    #[test]
    fn near_linear_speedup_to_8() {
        let p = PpmProblem::table2(64, 128, 4, 8);
        let (mut rt1, mut s1, team1) = sim(1, p.clone());
        let r1 = s1.run(&mut rt1, &team1, 1);
        let (mut rt8, mut s8, team8) = sim(8, p);
        let r8 = s8.run(&mut rt8, &team8, 1);
        let speedup = r1.elapsed as f64 / r8.elapsed as f64;
        assert!(speedup > 6.0, "8-proc speedup = {speedup}");
        assert_eq!(r1.flops, r8.flops);
    }

    #[test]
    fn finer_tiles_cost_more_per_zone() {
        // Table 2: 12x48 tiling is ~20% slower than 4x16 on the same
        // grid (more redundant margin work + ghost traffic).
        let (mut rt_a, mut a, team_a) = sim(4, PpmProblem::table2(120, 480, 4, 16));
        let ra = a.run(&mut rt_a, &team_a, 1);
        let (mut rt_b, mut b, team_b) = sim(4, PpmProblem::table2(120, 480, 12, 48));
        let rb = b.run(&mut rt_b, &team_b, 1);
        let ratio = rb.elapsed as f64 / ra.elapsed as f64;
        assert!(
            (1.1..=1.6).contains(&ratio),
            "fine/coarse time ratio = {ratio}"
        );
    }
}
