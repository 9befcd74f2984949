//! A miniAMR-like kernel: 7-point stencil on a unit cube with
//! block-structured adaptive mesh refinement around a moving sphere.
//!
//! The paper's Fig. 13 experiment runs Sandia's miniAMR proxy app to get a
//! fixed-energy workload whose start time is then shifted against hourly
//! water/carbon intensity curves. This module reimplements the proxy's
//! essential behaviour — stencil sweeps over an octree of fixed-size
//! blocks, periodically regridded to track a moving refinement front —
//! with rayon data-parallelism over blocks (each sweep is two-phase:
//! ghost exchange, then an embarrassingly parallel per-block update).
//!
//! Cross-level ghost cells use nearest-sample injection (miniAMR's
//! default is similarly low-order); domain boundaries clamp.

use std::collections::HashMap;
use std::time::Instant;

use rayon::prelude::*;
use thirstyflops_catalog::NodeConfig;
use thirstyflops_obs::trace::propagate;
use thirstyflops_units::{Hours, KilowattHours, Kilowatts};

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
        if self.regrid_every == 0 {
            return Err("regrid cadence must be positive".into());
        }
        if !(0.0..=0.5).contains(&self.alpha) {
            return Err(format!(
                "alpha {} outside stable range [0, 0.5]",
                self.alpha
            ));
        }
        if self.max_level > 4 {
            return Err("max_level > 4 explodes memory; refuse".into());
        }
        Ok(())
    }
}

/// Integer block coordinates at a refinement level.
type BlockKey = (u32, [usize; 3]);

/// One mesh block: `block_cells³` data cells (ghosts handled separately).
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
    index: HashMap<BlockKey, usize>,
}

impl MiniAmr {
    /// Builds the initial (unrefined) mesh with a smooth initial field.
    pub fn new(config: MiniAmrConfig) -> Result<Self, String> {
        config.validate()?;
        let mut mesh = Self {
            config,
            blocks: Vec::new(),
            index: HashMap::new(),
        };
        let g = mesh.config.base_grid;
        for ix in 0..g {
            for iy in 0..g {
                for iz in 0..g {
                    mesh.push_block(Block {
                        level: 0,
                        idx: [ix, iy, iz],
                        cells: mesh.init_cells(0, [ix, iy, iz]),
                    });
                }
            }
        }
        Ok(mesh)
    }

    /// Builds a **uniformly refined** mesh at `max_level` everywhere — the
    /// non-adaptive baseline. Running it with the same config measures
    /// what AMR saves: the uniform mesh resolves the sphere just as well
    /// but pays full resolution over the whole cube. Regridding becomes a
    /// no-op (every block already crosses nothing to coarsen to — the
    /// mesh is pinned by construction).
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

    fn push_block(&mut self, block: Block) {
        self.index
            .insert((block.level, block.idx), self.blocks.len());
        self.blocks.push(block);
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
        let blocks_per_dim = (self.config.base_grid << level) as f64;
        let h = 1.0 / (blocks_per_dim * self.config.block_cells as f64);
        [
            (idx[0] as f64 * self.config.block_cells as f64 + cell[0] as f64 + 0.5) * h,
            (idx[1] as f64 * self.config.block_cells as f64 + cell[1] as f64 + 0.5) * h,
            (idx[2] as f64 * self.config.block_cells as f64 + cell[2] as f64 + 0.5) * h,
        ]
    }

    /// Samples the field at a physical point from the current mesh
    /// (finest covering leaf, nearest cell).
    fn sample(&self, p: [f64; 3]) -> f64 {
        let n = self.config.block_cells;
        for level in (0..=self.config.max_level).rev() {
            let blocks_per_dim = self.config.base_grid << level;
            let cells_per_dim = (blocks_per_dim * n) as f64;
            let gx = (p[0].clamp(0.0, 1.0 - 1e-12) * cells_per_dim) as usize;
            let gy = (p[1].clamp(0.0, 1.0 - 1e-12) * cells_per_dim) as usize;
            let gz = (p[2].clamp(0.0, 1.0 - 1e-12) * cells_per_dim) as usize;
            let key = (level, [gx / n, gy / n, gz / n]);
            if let Some(&bi) = self.index.get(&key) {
                return self.blocks[bi].cells[Self::cell_of(n, gx % n, gy % n, gz % n)];
            }
        }
        0.0
    }

    /// One two-phase parallel stencil sweep; returns cells updated.
    fn sweep(&mut self) -> u64 {
        let n = self.config.block_cells;
        let alpha = self.config.alpha;

        // Phase 1 (read-only, parallel): gather each block's six ghost
        // faces by sampling the global mesh just outside the block.
        let ghosts: Vec<[Vec<f64>; 6]> = self
            .blocks
            .par_iter()
            .map(propagate(|b: &Block| self.gather_ghost_faces(b)))
            .collect();

        // Phase 2 (parallel over blocks): diffusion update from the old
        // cells + ghosts into fresh buffers.
        let new_cells: Vec<Vec<f64>> = self
            .blocks
            .par_iter()
            .zip(ghosts.par_iter())
            .map(propagate(|(b, ghost): (&Block, &[Vec<f64>; 6])| {
                let old = &b.cells;
                let mut new = vec![0.0; old.len()];
                for x in 0..n {
                    for y in 0..n {
                        for z in 0..n {
                            let c = old[Self::cell_of(n, x, y, z)];
                            let xm = if x > 0 {
                                old[Self::cell_of(n, x - 1, y, z)]
                            } else {
                                ghost[0][y * n + z]
                            };
                            let xp = if x + 1 < n {
                                old[Self::cell_of(n, x + 1, y, z)]
                            } else {
                                ghost[1][y * n + z]
                            };
                            let ym = if y > 0 {
                                old[Self::cell_of(n, x, y - 1, z)]
                            } else {
                                ghost[2][x * n + z]
                            };
                            let yp = if y + 1 < n {
                                old[Self::cell_of(n, x, y + 1, z)]
                            } else {
                                ghost[3][x * n + z]
                            };
                            let zm = if z > 0 {
                                old[Self::cell_of(n, x, y, z - 1)]
                            } else {
                                ghost[4][x * n + y]
                            };
                            let zp = if z + 1 < n {
                                old[Self::cell_of(n, x, y, z + 1)]
                            } else {
                                ghost[5][x * n + y]
                            };
                            new[Self::cell_of(n, x, y, z)] =
                                c + alpha * (xm + xp + ym + yp + zm + zp - 6.0 * c);
                        }
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

    /// Ghost faces for one block: −x, +x, −y, +y, −z, +z, each `n²`
    /// values sampled half a cell outside the block (clamped at domain
    /// boundaries, nearest-sample across refinement levels).
    fn gather_ghost_faces(&self, b: &Block) -> [Vec<f64>; 6] {
        let n = self.config.block_cells;
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

        let mut faces: [Vec<f64>; 6] = [
            vec![0.0; n * n],
            vec![0.0; n * n],
            vec![0.0; n * n],
            vec![0.0; n * n],
            vec![0.0; n * n],
            vec![0.0; n * n],
        ];
        for a in 0..n {
            for bb in 0..n {
                let u = lo[1] + (a as f64 + 0.5) * h; // y along first axis
                let v = lo[2] + (bb as f64 + 0.5) * h; // z along second
                faces[0][a * n + bb] = self.sample([lo[0] - 0.5 * h, u, v]);
                faces[1][a * n + bb] = self.sample([hi[0] + 0.5 * h, u, v]);
                let ux = lo[0] + (a as f64 + 0.5) * h; // x along first axis
                faces[2][a * n + bb] = self.sample([ux, lo[1] - 0.5 * h, v]);
                faces[3][a * n + bb] = self.sample([ux, hi[1] + 0.5 * h, v]);
                let vy = lo[1] + (bb as f64 + 0.5) * h;
                faces[4][a * n + bb] = self.sample([ux, vy, lo[2] - 0.5 * h]);
                faces[5][a * n + bb] = self.sample([ux, vy, hi[2] + 0.5 * h]);
            }
        }
        faces
    }

    /// Rebuilds the mesh so blocks crossing the sphere's surface are at
    /// `max_level` and everything else coarsens back toward level 0,
    /// resampling field data from the old mesh.
    fn regrid(&mut self, center: [f64; 3]) {
        let mut new_keys: Vec<BlockKey> = Vec::new();
        let g = self.config.base_grid;
        for ix in 0..g {
            for iy in 0..g {
                for iz in 0..g {
                    self.collect_leaves(0, [ix, iy, iz], center, &mut new_keys);
                }
            }
        }

        let mut new_blocks: Vec<Block> = Vec::with_capacity(new_keys.len());
        let n = self.config.block_cells;
        for (level, idx) in new_keys {
            let mut cells = vec![0.0; n * n * n];
            for cx in 0..n {
                for cy in 0..n {
                    for cz in 0..n {
                        let p = self.cell_center(level, idx, [cx, cy, cz]);
                        cells[Self::cell_of(n, cx, cy, cz)] = self.sample(p);
                    }
                }
            }
            new_blocks.push(Block { level, idx, cells });
        }

        self.blocks.clear();
        self.index.clear();
        for b in new_blocks {
            self.push_block(b);
        }
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
