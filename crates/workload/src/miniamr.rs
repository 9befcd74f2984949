//! A miniAMR-like kernel: 7-point stencil on a unit cube with
//! block-structured adaptive mesh refinement around a moving sphere.
//!
//! The paper's Fig. 13 experiment runs Sandia's miniAMR proxy app to get a
//! fixed-energy workload whose start time is then shifted against hourly
//! water/carbon intensity curves. This module reimplements the proxy's
//! essential behaviour — stencil sweeps over an octree of fixed-size
//! blocks, periodically regridded to track a moving refinement front —
//! with rayon data-parallelism over blocks.
//!
//! **Data path.** Blocks are found through a dense per-level slot table
//! (`slots[level][(x·d + y)·d + z]`, `d = base_grid << level`). Each
//! regrid resamples every new block from the old mesh in parallel, then
//! builds each block's *ghost-source map* once: for all 6 faces × n²
//! ghost cells, the `(block, cell)` of the current mesh the ghost reads.
//! The map depends only on mesh topology, so it serves every sweep until
//! the next regrid. A sweep is then one fused parallel pass: each block's
//! new cells come from its own old cells plus the mapped sources of its
//! neighbours.
//!
//! Cross-level ghost cells use nearest-sample injection (miniAMR's
//! default is similarly low-order); domain boundaries clamp.

use std::time::Instant;

use rayon::prelude::*;
use thirstyflops_catalog::NodeConfig;
use thirstyflops_obs::span::{span, MINIAMR_GHOST, MINIAMR_REGRID, MINIAMR_STENCIL};
use thirstyflops_obs::trace::propagate;
use thirstyflops_units::{Hours, KilowattHours, Kilowatts};

/// Largest mesh the kernel accepts: `(base_grid << max_level)³` finest-
/// level block positions (the size of the finest slot table).
const MAX_MESH_BLOCKS: usize = 1 << 24;

/// Largest block edge the kernel accepts, in cells (a block's cell index
/// must fit a `u32`).
const MAX_BLOCK_CELLS: usize = 1024;

/// Kernel configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MiniAmrConfig {
    /// Level-0 blocks per dimension (domain is `base_grid³` root blocks).
    pub base_grid: usize,
    /// Cells per dimension in every block (blocks are `block_cells³`).
    pub block_cells: usize,
    /// Maximum refinement level (0 = no refinement).
    pub max_level: u32,
    /// Stencil sweeps to run.
    pub steps: usize,
    /// Regrid cadence in steps.
    pub regrid_every: usize,
    /// Radius of the moving refinement sphere (unit-cube units).
    pub sphere_radius: f64,
    /// Sphere revolutions over the whole run.
    pub sphere_orbits: f64,
    /// Diffusion coefficient of the stencil update.
    pub alpha: f64,
}

impl Default for MiniAmrConfig {
    fn default() -> Self {
        Self {
            base_grid: 4,
            block_cells: 8,
            max_level: 2,
            steps: 40,
            regrid_every: 5,
            sphere_radius: 0.18,
            sphere_orbits: 1.0,
            alpha: 0.1,
        }
    }
}

impl MiniAmrConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_grid == 0 || self.block_cells < 2 {
            return Err("grid and block sizes must be positive (block ≥ 2)".into());
        }
        if self.block_cells > MAX_BLOCK_CELLS {
            return Err(format!(
                "block_cells {} exceeds the {MAX_BLOCK_CELLS}-cell block edge limit",
                self.block_cells
            ));
        }
        if self.regrid_every == 0 {
            return Err("regrid cadence must be positive".into());
        }
        if !(0.0..=0.5).contains(&self.alpha) {
            return Err(format!(
                "alpha {} outside stable range [0, 0.5]",
                self.alpha
            ));
        }
        if self.max_level > MAX_LEVEL {
            return Err(format!("max_level > {MAX_LEVEL} explodes memory; refuse"));
        }
        let finest = self
            .base_grid
            .checked_mul(1 << self.max_level)
            .and_then(|d| d.checked_pow(3));
        if !finest.is_some_and(|blocks| blocks <= MAX_MESH_BLOCKS) {
            return Err(format!(
                "mesh of ({} << {})³ blocks exceeds the 2^24 = {MAX_MESH_BLOCKS} block limit",
                self.base_grid, self.max_level
            ));
        }
        Ok(())
    }
}

/// Integer block coordinates at a refinement level.
type BlockKey = (u32, [usize; 3]);

/// Where a cell's value lives in the current mesh: `(block, cell)`.
type Source = (u32, u32);

/// Empty slot in the dense block index.
const NO_BLOCK: u32 = u32::MAX;

/// Deepest refinement level the kernel accepts.
const MAX_LEVEL: u32 = 4;

/// One coordinate resolved at every refinement level: the `(block,
/// cell)` index it falls in along its axis, indexed by level.
type Axis = [(u32, u32); MAX_LEVEL as usize + 1];

/// One mesh block: `block_cells³` data cells (ghosts read through the
/// ghost-source map).
#[derive(Debug, Clone)]
struct Block {
    level: u32,
    idx: [usize; 3],
    cells: Vec<f64>,
}

/// Outcome of a kernel run, including the simulated-energy hook used by
/// the Fig. 13 experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelReport {
    /// Sweeps executed.
    pub steps: usize,
    /// Total cell updates across all sweeps.
    pub cell_updates: u64,
    /// Floating-point operations executed (9 per cell update).
    pub flops: u64,
    /// Block count after the final regrid.
    pub final_blocks: usize,
    /// Peak block count observed.
    pub peak_blocks: usize,
    /// Final block count per refinement level (index = level). Shows how
    /// concentrated the mesh is around the refinement front.
    pub blocks_per_level: Vec<usize>,
    /// Wall-clock seconds.
    pub elapsed_seconds: f64,
    /// Sum of all cell values at the end (determinism check).
    pub checksum: f64,
}

impl KernelReport {
    /// Simulated node energy for this run: wall time at full utilization
    /// of `node`. The paper notes "in all cases, as expected, the miniAMR
    /// consumes the same amount of energy" — the energy depends only on
    /// the kernel, not the start time.
    pub fn simulated_energy(&self, node: &NodeConfig) -> KilowattHours {
        let power = Kilowatts::new(node.power_at_utilization_watts(1.0) / 1000.0);
        power * Hours::from_seconds(self.elapsed_seconds)
    }
}

/// The AMR mesh + stencil driver.
///
/// ```
/// use thirstyflops_workload::miniamr::{MiniAmr, MiniAmrConfig};
///
/// let report = MiniAmr::new(MiniAmrConfig {
///     base_grid: 2,
///     block_cells: 4,
///     max_level: 1,
///     steps: 4,
///     regrid_every: 2,
///     sphere_radius: 0.2,
///     sphere_orbits: 0.25,
///     alpha: 0.1,
/// }).unwrap().run();
/// assert_eq!(report.steps, 4);
/// assert_eq!(report.flops, report.cell_updates * 9);
/// ```
pub struct MiniAmr {
    config: MiniAmrConfig,
    blocks: Vec<Block>,
    /// Dense block index: `slots[level][(x·d + y)·d + z]` is the block at
    /// `(level, [x, y, z])`, or [`NO_BLOCK`].
    slots: Vec<Vec<u32>>,
    /// Per-block ghost sources, faces −x, +x, −y, +y, −z, +z of `n²`
    /// each; built at every regrid (empty before the first).
    ghosts: Vec<Vec<Source>>,
}

impl MiniAmr {
    /// Builds the initial (unrefined) mesh with a smooth initial field.
    pub fn new(config: MiniAmrConfig) -> Result<Self, String> {
        config.validate()?;
        let slots = (0..=config.max_level)
            .map(|level| vec![NO_BLOCK; (config.base_grid << level).pow(3)])
            .collect();
        let mut mesh = Self {
            config,
            blocks: Vec::new(),
            slots,
            ghosts: Vec::new(),
        };
        let g = mesh.config.base_grid;
        let mut blocks = Vec::with_capacity(g * g * g);
        for ix in 0..g {
            for iy in 0..g {
                for iz in 0..g {
                    blocks.push(Block {
                        level: 0,
                        idx: [ix, iy, iz],
                        cells: mesh.init_cells(0, [ix, iy, iz]),
                    });
                }
            }
        }
        mesh.install(blocks);
        Ok(mesh)
    }

    /// Builds a **uniformly refined** mesh at `max_level` everywhere — the
    /// non-adaptive baseline. Running it with the same config measures
    /// what AMR saves: the uniform mesh resolves the sphere just as well
    /// but pays full resolution over the whole cube. The refinement is
    /// folded into the base grid with `max_level = 0`, so every regrid
    /// rebuilds the same blocks: an identity resample.
    pub fn new_uniform(mut config: MiniAmrConfig) -> Result<Self, String> {
        config.validate()?;
        // Pin the mesh: fold the refinement into the base grid and
        // disable further refinement.
        config.base_grid <<= config.max_level;
        config.max_level = 0;
        Self::new(config)
    }

    /// Current block count.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Runs the configured number of sweeps and returns a report.
    pub fn run(mut self) -> KernelReport {
        let start = Instant::now();
        let mut cell_updates = 0u64;
        let mut peak_blocks = self.blocks.len();

        for step in 0..self.config.steps {
            if step % self.config.regrid_every == 0 {
                let t = step as f64 / self.config.steps.max(1) as f64;
                self.regrid(self.sphere_center(t));
                peak_blocks = peak_blocks.max(self.blocks.len());
            }
            cell_updates += self.sweep();
        }

        let checksum: f64 = self
            .blocks
            .iter()
            .map(|b| b.cells.iter().sum::<f64>())
            .sum();
        let mut blocks_per_level = vec![0usize; self.config.max_level as usize + 1];
        for b in &self.blocks {
            blocks_per_level[b.level as usize] += 1;
        }
        KernelReport {
            steps: self.config.steps,
            cell_updates,
            flops: cell_updates * 9,
            final_blocks: self.blocks.len(),
            peak_blocks,
            blocks_per_level,
            elapsed_seconds: start.elapsed().as_secs_f64(),
            checksum,
        }
    }

    /// Sphere center at normalized time `t ∈ [0, 1]`: a circular orbit in
    /// the cube's mid-plane.
    fn sphere_center(&self, t: f64) -> [f64; 3] {
        let angle = t * self.config.sphere_orbits * core::f64::consts::TAU;
        [0.5 + 0.25 * angle.cos(), 0.5 + 0.25 * angle.sin(), 0.5]
    }

    /// Replaces the mesh's blocks and re-indexes them in the slot table.
    fn install(&mut self, blocks: Vec<Block>) {
        for level in &mut self.slots {
            level.fill(NO_BLOCK);
        }
        for (i, b) in blocks.iter().enumerate() {
            let slot = self.slot(b.level, b.idx);
            self.slots[b.level as usize][slot] = i as u32;
        }
        self.blocks = blocks;
    }

    /// Smooth initial condition evaluated at a block's cell centers.
    fn init_cells(&self, level: u32, idx: [usize; 3]) -> Vec<f64> {
        let n = self.config.block_cells;
        let mut cells = vec![0.0; n * n * n];
        for cx in 0..n {
            for cy in 0..n {
                for cz in 0..n {
                    let p = self.cell_center(level, idx, [cx, cy, cz]);
                    cells[Self::cell_of(n, cx, cy, cz)] = (p[0] * core::f64::consts::TAU).sin()
                        * (p[1] * core::f64::consts::TAU).cos()
                        + p[2];
                }
            }
        }
        cells
    }

    #[inline]
    fn cell_of(n: usize, x: usize, y: usize, z: usize) -> usize {
        (x * n + y) * n + z
    }

    /// Physical center of a cell.
    fn cell_center(&self, level: u32, idx: [usize; 3], cell: [usize; 3]) -> [f64; 3] {
        [0, 1, 2].map(|a| self.cell_coord(level, idx[a], cell[a]))
    }

    /// Center of cell `c` of block `i` along one axis at `level`.
    fn cell_coord(&self, level: u32, i: usize, c: usize) -> f64 {
        let blocks_per_dim = (self.config.base_grid << level) as f64;
        let h = 1.0 / (blocks_per_dim * self.config.block_cells as f64);
        (i as f64 * self.config.block_cells as f64 + c as f64 + 0.5) * h
    }

    /// Position of block `(level, [x, y, z])` in its level's slot table.
    fn slot(&self, level: u32, [x, y, z]: [usize; 3]) -> usize {
        let d = self.config.base_grid << level;
        (x * d + y) * d + z
    }

    /// The block at `(level, idx)` in the current mesh, if it is a leaf.
    fn block_at(&self, level: u32, idx: [usize; 3]) -> Option<&Block> {
        let block = self.slots[level as usize][self.slot(level, idx)];
        (block != NO_BLOCK).then(|| &self.blocks[block as usize])
    }

    /// Resolves one coordinate of a physical point at every level:
    /// clamp into the unit interval, scale to the level's cells per
    /// dimension, truncate, and split into block and cell.
    fn axis(&self, c: f64) -> Axis {
        // Validation bounds every index far below 2³², so the split runs
        // in (cheaper) `u32`.
        let n = self.config.block_cells as u32;
        let mut axis = [(0, 0); MAX_LEVEL as usize + 1];
        for level in 0..=self.config.max_level {
            let cells_per_dim = ((self.config.base_grid << level) as u32 * n) as f64;
            let g = (c.clamp(0.0, 1.0 - 1e-12) * cells_per_dim) as u32;
            axis[level as usize] = (g / n, g % n);
        }
        axis
    }

    /// The cell holding a physical point, given as its three resolved
    /// coordinates: the finest covering leaf, nearest cell. A sweep over
    /// a grid of points resolves each coordinate once per axis, not once
    /// per point.
    fn locate(&self, [x, y, z]: [&Axis; 3]) -> Source {
        let n = self.config.block_cells as u32;
        for level in (0..=self.config.max_level as usize).rev() {
            let d = (self.config.base_grid << level) as u32;
            let [(bx, cx), (by, cy), (bz, cz)] = [x[level], y[level], z[level]];
            if bx < d && by < d && bz < d {
                let block = self.slots[level][((bx * d + by) * d + bz) as usize];
                if block != NO_BLOCK {
                    return (block, (cx * n + cy) * n + cz);
                }
            }
        }
        unreachable!("the mesh's leaves tile the unit cube")
    }

    /// The value of a located cell.
    fn value(&self, (block, cell): Source) -> f64 {
        self.blocks[block as usize].cells[cell as usize]
    }

    /// One fused parallel stencil sweep; returns cells updated.
    fn sweep(&mut self) -> u64 {
        let _stencil = span(MINIAMR_STENCIL);
        let n = self.config.block_cells;
        let nn = n * n;
        let alpha = self.config.alpha;

        // Diffusion update from the old cells into fresh buffers. Each
        // block gathers its six ghost faces through its source map, then
        // updates row by row along z: a neighbour row is the block's own
        // or a ghost-face row.
        let new_cells: Vec<Vec<f64>> = self
            .blocks
            .par_iter()
            .zip(self.ghosts.par_iter())
            .map(propagate(|(b, ghost): (&Block, &Vec<Source>)| {
                let old = &b.cells;
                let g: Vec<f64> = ghost.iter().map(|&src| self.value(src)).collect();
                let row = |x: usize, y: usize| &old[Self::cell_of(n, x, y, 0)..][..n];
                let face = |f: usize, i: usize| &g[f * nn + i * n..][..n];
                let mut new = Vec::with_capacity(old.len());
                for x in 0..n {
                    for y in 0..n {
                        let c = row(x, y);
                        let xm = if x > 0 { row(x - 1, y) } else { face(0, y) };
                        let xp = if x + 1 < n { row(x + 1, y) } else { face(1, y) };
                        let ym = if y > 0 { row(x, y - 1) } else { face(2, x) };
                        let yp = if y + 1 < n { row(x, y + 1) } else { face(3, x) };
                        let (z_lo, z_hi) = (face(4, x)[y], face(5, x)[y]);
                        // The operand order of the update is part of the
                        // output: reordering the sum changes the checksum.
                        new.extend((0..n).map(|z| {
                            let cz = c[z];
                            let zm = if z > 0 { c[z - 1] } else { z_lo };
                            let zp = if z + 1 < n { c[z + 1] } else { z_hi };
                            cz + alpha * (xm[z] + xp[z] + ym[z] + yp[z] + zm + zp - 6.0 * cz)
                        }));
                    }
                }
                new
            }))
            .collect();

        for (b, cells) in self.blocks.iter_mut().zip(new_cells) {
            b.cells = cells;
        }
        (self.blocks.len() * n * n * n) as u64
    }

    /// Ghost sources for one block: −x, +x, −y, +y, −z, +z, each `n²`
    /// cells located half a cell outside the block (clamped at domain
    /// boundaries, nearest-sample across refinement levels).
    fn ghost_sources(&self, b: &Block) -> Vec<Source> {
        let n = self.config.block_cells;
        let nn = n * n;
        let blocks_per_dim = (self.config.base_grid << b.level) as f64;
        let h = 1.0 / (blocks_per_dim * n as f64);
        let lo = [
            b.idx[0] as f64 * n as f64 * h,
            b.idx[1] as f64 * n as f64 * h,
            b.idx[2] as f64 * n as f64 * h,
        ];
        let hi = [
            lo[0] + n as f64 * h,
            lo[1] + n as f64 * h,
            lo[2] + n as f64 * h,
        ];

        // Along each axis: the block's n cell centers, and the two ghost
        // planes half a cell outside it.
        let inner: [Vec<Axis>; 3] = [0, 1, 2].map(|a| {
            (0..n)
                .map(|i| self.axis(lo[a] + (i as f64 + 0.5) * h))
                .collect()
        });
        let below = [0, 1, 2].map(|a| self.axis(lo[a] - 0.5 * h));
        let above = [0, 1, 2].map(|a| self.axis(hi[a] + 0.5 * h));
        let [xs, ys, zs] = &inner;

        let mut sources = vec![(0, 0); 6 * nn];
        for a in 0..n {
            for bb in 0..n {
                let i = a * n + bb;
                sources[i] = self.locate([&below[0], &ys[a], &zs[bb]]);
                sources[nn + i] = self.locate([&above[0], &ys[a], &zs[bb]]);
                sources[2 * nn + i] = self.locate([&xs[a], &below[1], &zs[bb]]);
                sources[3 * nn + i] = self.locate([&xs[a], &above[1], &zs[bb]]);
                sources[4 * nn + i] = self.locate([&xs[a], &ys[bb], &below[2]]);
                sources[5 * nn + i] = self.locate([&xs[a], &ys[bb], &above[2]]);
            }
        }
        sources
    }

    /// Rebuilds the mesh so blocks crossing the sphere's surface are at
    /// `max_level` and everything else coarsens back toward level 0,
    /// resampling field data from the old mesh, then rebuilds the
    /// ghost-source maps for the new topology.
    fn regrid(&mut self, center: [f64; 3]) {
        let _regrid = span(MINIAMR_REGRID);
        let mut new_keys: Vec<BlockKey> = Vec::new();
        let g = self.config.base_grid;
        for ix in 0..g {
            for iy in 0..g {
                for iz in 0..g {
                    self.collect_leaves(0, [ix, iy, iz], center, &mut new_keys);
                }
            }
        }

        // Each new block is a pure function of the old mesh. A block the
        // old mesh already has resamples every cell center onto itself,
        // so it keeps its cells.
        let n = self.config.block_cells;
        let new_blocks: Vec<Block> = new_keys
            .par_iter()
            .map(propagate(|&(level, idx): &BlockKey| {
                if let Some(old) = self.block_at(level, idx) {
                    return old.clone();
                }
                let [xs, ys, zs] = [0, 1, 2].map(|a| -> Vec<Axis> {
                    (0..n)
                        .map(|c| self.axis(self.cell_coord(level, idx[a], c)))
                        .collect()
                });
                let mut cells = vec![0.0; n * n * n];
                for cx in 0..n {
                    for cy in 0..n {
                        for cz in 0..n {
                            let src = self.locate([&xs[cx], &ys[cy], &zs[cz]]);
                            cells[Self::cell_of(n, cx, cy, cz)] = self.value(src);
                        }
                    }
                }
                Block { level, idx, cells }
            }))
            .collect();
        self.install(new_blocks);

        let _ghost = span(MINIAMR_GHOST);
        self.ghosts = self
            .blocks
            .par_iter()
            .map(propagate(|b: &Block| self.ghost_sources(b)))
            .collect();
    }

    /// Recursive refinement decision: refine while the block's bounding
    /// box crosses the sphere surface and levels remain.
    fn collect_leaves(
        &self,
        level: u32,
        idx: [usize; 3],
        center: [f64; 3],
        out: &mut Vec<BlockKey>,
    ) {
        if level < self.config.max_level && self.crosses_sphere(level, idx, center) {
            for dx in 0..2 {
                for dy in 0..2 {
                    for dz in 0..2 {
                        self.collect_leaves(
                            level + 1,
                            [idx[0] * 2 + dx, idx[1] * 2 + dy, idx[2] * 2 + dz],
                            center,
                            out,
                        );
                    }
                }
            }
        } else {
            out.push((level, idx));
        }
    }

    /// Whether the block's box crosses the sphere *surface* (the
    /// refinement front tracks the shell, as in miniAMR's moving-object
    /// mode).
    fn crosses_sphere(&self, level: u32, idx: [usize; 3], center: [f64; 3]) -> bool {
        let w = 1.0 / (self.config.base_grid << level) as f64;
        let lo = [idx[0] as f64 * w, idx[1] as f64 * w, idx[2] as f64 * w];
        let hi = [lo[0] + w, lo[1] + w, lo[2] + w];
        // Min and max distance from the box to the center.
        let mut dmin2 = 0.0;
        let mut dmax2 = 0.0;
        for d in 0..3 {
            let lo_d = lo[d] - center[d];
            let hi_d = hi[d] - center[d];
            let min_d = if lo_d > 0.0 {
                lo_d
            } else if hi_d < 0.0 {
                -hi_d
            } else {
                0.0
            };
            let max_d = lo_d.abs().max(hi_d.abs());
            dmin2 += min_d * min_d;
            dmax2 += max_d * max_d;
        }
        let r = self.config.sphere_radius;
        dmin2.sqrt() <= r && r <= dmax2.sqrt()
    }
}

/// Runs the kernel inside a dedicated rayon pool of `threads` workers
/// (for the strong-scaling bench); `threads = 0` uses the global pool.
pub fn run_with_threads(config: MiniAmrConfig, threads: usize) -> Result<KernelReport, String> {
    let mesh = MiniAmr::new(config)?;
    if threads == 0 {
        Ok(mesh.run())
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(pool.install(|| mesh.run()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MiniAmrConfig {
        MiniAmrConfig {
            base_grid: 2,
            block_cells: 4,
            max_level: 2,
            steps: 10,
            regrid_every: 3,
            sphere_radius: 0.2,
            sphere_orbits: 0.5,
            alpha: 0.1,
        }
    }

    #[test]
    fn initial_mesh_covers_domain() {
        let mesh = MiniAmr::new(small()).unwrap();
        assert_eq!(mesh.block_count(), 8);
    }

    #[test]
    fn refinement_tracks_the_sphere() {
        let mut mesh = MiniAmr::new(small()).unwrap();
        mesh.regrid([0.5, 0.5, 0.5]);
        // Blocks near the shell refined: more than the 8 roots.
        assert!(mesh.block_count() > 8, "{} blocks", mesh.block_count());
        // All leaves within level bounds.
        for b in &mesh.blocks {
            assert!(b.level <= 2);
        }
        // Moving the sphere away coarsens back.
        mesh.regrid([5.0, 5.0, 5.0]);
        assert_eq!(mesh.block_count(), 8);
    }

    #[test]
    fn run_is_deterministic_across_thread_counts() {
        // The determinism contract (docs/CONCURRENCY.md) promises
        // bit-identical results, not merely close ones.
        let a = run_with_threads(small(), 1).unwrap();
        for threads in [2, 4, 8] {
            let b = run_with_threads(small(), threads).unwrap();
            assert_eq!(a.cell_updates, b.cell_updates, "{threads} threads");
            assert_eq!(a.final_blocks, b.final_blocks, "{threads} threads");
            assert_eq!(a.blocks_per_level, b.blocks_per_level, "{threads} threads");
            assert_eq!(
                a.checksum.to_bits(),
                b.checksum.to_bits(),
                "{threads} threads: {} vs {}",
                a.checksum,
                b.checksum
            );
        }
    }

    #[test]
    fn diffusion_conserves_rough_magnitude() {
        // A pure diffusion update with clamped boundaries must not blow up.
        let report = MiniAmr::new(small()).unwrap().run();
        assert!(report.checksum.is_finite());
        assert_eq!(report.steps, 10);
        assert!(report.cell_updates > 0);
        assert_eq!(report.flops, report.cell_updates * 9);
        assert!(report.peak_blocks >= report.final_blocks.min(8));
    }

    #[test]
    fn validation_rejects_unstable_alpha_and_huge_levels() {
        let mut c = small();
        c.alpha = 0.9;
        assert!(MiniAmr::new(c).is_err());
        let mut c = small();
        c.max_level = 9;
        assert!(MiniAmr::new(c).is_err());
        let mut c = small();
        c.regrid_every = 0;
        assert!(MiniAmr::new(c).is_err());
        let mut c = small();
        c.block_cells = 1;
        assert!(MiniAmr::new(c).is_err());
    }

    #[test]
    fn validation_bounds_the_mesh() {
        // (64 << 2)³ = 2^24 finest-level blocks: the largest accepted mesh.
        let mut c = small();
        c.base_grid = 64;
        c.max_level = 2;
        assert!(c.validate().is_ok());
        // One more root block per dimension crosses the limit, and the
        // error names it.
        c.base_grid = 65;
        let err = MiniAmr::new(c).err().expect("oversized mesh is rejected");
        assert!(err.contains("2^24"), "{err}");
        // A base grid so large its cube overflows is rejected, not wrapped.
        let mut c = small();
        c.base_grid = usize::MAX / 2;
        assert!(c.validate().is_err());
        let mut c = small();
        c.block_cells = 4096;
        assert!(c.validate().is_err());
    }

    #[test]
    fn simulated_energy_scales_with_node_power() {
        use thirstyflops_catalog::{FabSite, NodeConfig, ProcessorSpec};
        let report = MiniAmr::new(small()).unwrap().run();
        let node = NodeConfig {
            cpu: ProcessorSpec::new("X", 700.0, 14, FabSite::IntelOregon, 200.0),
            cpus_per_node: 2,
            gpu: None,
            gpus_per_node: 0,
            dram_gb: 384.0,
            ics_per_node: 12,
            misc_power_watts: 100.0,
            idle_fraction: 0.3,
        };
        let e = report.simulated_energy(&node);
        assert!(e.value() > 0.0);
        // 500 W node for the elapsed wall time.
        let expected = 0.5 * report.elapsed_seconds / 3600.0;
        assert!((e.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn level_histogram_accounts_for_every_block() {
        let report = MiniAmr::new(small()).unwrap().run();
        assert_eq!(report.blocks_per_level.len(), 3); // levels 0..=2
        assert_eq!(
            report.blocks_per_level.iter().sum::<usize>(),
            report.final_blocks
        );
        // The uniform mesh lives entirely at its (folded) level 0.
        let uniform = MiniAmr::new_uniform(small()).unwrap().run();
        assert_eq!(uniform.blocks_per_level, vec![uniform.final_blocks]);
    }

    #[test]
    fn checksums_are_pinned() {
        let uniform = MiniAmr::new_uniform(small()).unwrap().run();
        assert_eq!(
            uniform.checksum.to_bits(),
            0x40d0_0000_0000_0000,
            "{}",
            uniform.checksum
        );
        let amr = MiniAmr::new(small()).unwrap().run();
        assert_eq!(
            amr.checksum.to_bits(),
            0x40ab_820b_b601_eea7,
            "{}",
            amr.checksum
        );
    }

    #[test]
    fn amr_saves_work_versus_uniform_refinement() {
        // The miniAMR value proposition: the adaptive mesh updates far
        // fewer cells than a uniformly fine mesh at the same max level.
        let amr = MiniAmr::new(small()).unwrap().run();
        let uniform = MiniAmr::new_uniform(small()).unwrap().run();
        assert!(
            (amr.cell_updates as f64) < 0.6 * uniform.cell_updates as f64,
            "AMR {} vs uniform {}",
            amr.cell_updates,
            uniform.cell_updates
        );
        // The uniform mesh has (base_grid << max_level)³ blocks, always.
        assert_eq!(uniform.final_blocks, 8 * 8 * 8);
        assert_eq!(uniform.peak_blocks, uniform.final_blocks);
    }

    #[test]
    fn more_steps_do_more_work() {
        let mut big = small();
        big.steps = 20;
        let a = MiniAmr::new(small()).unwrap().run();
        let b = MiniAmr::new(big).unwrap().run();
        assert!(b.cell_updates > a.cell_updates);
    }
}
