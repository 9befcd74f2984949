//! The determinism contract (docs/CONCURRENCY.md), enforced: parallel
//! execution must produce **bit-identical** results at every thread
//! count, because every work item is a pure function of its index/seed
//! and per-chunk results merge in ascending index order. These tests
//! check the library under in-process pools, including the
//! `KernelReport` fields the CLI never prints; every CLI command's
//! output at 1, 2 and 8 threads is `tests/determinism.rs`'s job.
//!
//! The whole workspace test suite doubles as a second enforcement layer:
//! `ci.sh` runs it under `THIRSTYFLOPS_THREADS=1` and the default count,
//! so any golden or shape test diverging across thread counts fails the
//! gate.

use thirstyflops::experiments as exp;
use thirstyflops::workload::miniamr::{run_with_threads, MiniAmrConfig};

fn kernel_config() -> MiniAmrConfig {
    MiniAmrConfig {
        base_grid: 3,
        block_cells: 6,
        max_level: 2,
        steps: 12,
        regrid_every: 4,
        sphere_radius: 0.2,
        sphere_orbits: 0.5,
        alpha: 0.1,
    }
}

#[test]
fn miniamr_footprint_is_bit_identical_from_1_to_8_threads() {
    let baseline = run_with_threads(kernel_config(), 1).expect("config is valid");
    for threads in [2, 4, 8] {
        let parallel = run_with_threads(kernel_config(), threads).expect("config is valid");
        assert_eq!(baseline.steps, parallel.steps, "{threads} threads");
        assert_eq!(
            baseline.cell_updates, parallel.cell_updates,
            "{threads} threads"
        );
        assert_eq!(baseline.flops, parallel.flops, "{threads} threads");
        assert_eq!(
            baseline.final_blocks, parallel.final_blocks,
            "{threads} threads"
        );
        assert_eq!(
            baseline.peak_blocks, parallel.peak_blocks,
            "{threads} threads"
        );
        assert_eq!(
            baseline.blocks_per_level, parallel.blocks_per_level,
            "{threads} threads"
        );
        // The checksum sums every cell of the final field: the strongest
        // witness that the stencil math ran identically. Bit equality,
        // not tolerance.
        assert_eq!(
            baseline.checksum.to_bits(),
            parallel.checksum.to_bits(),
            "{threads} threads: {} vs {}",
            baseline.checksum,
            parallel.checksum
        );
    }
}

/// Pins the default (Fig. 13) kernel's report exactly at 1, 2 and 8
/// threads: mesh statistics and the bit pattern of the final-field
/// checksum. Any change to the kernel's data path must reproduce these
/// values bit for bit; a deliberate change to the kernel's numerics
/// updates them here.
#[test]
fn default_miniamr_kernel_is_pinned() {
    for threads in [1, 2, 8] {
        let report = run_with_threads(MiniAmrConfig::default(), threads).expect("config is valid");
        assert_eq!(report.steps, 40, "{threads} threads");
        assert_eq!(report.cell_updates, 9_482_240, "{threads} threads");
        assert_eq!(report.peak_blocks, 512, "{threads} threads");
        assert_eq!(report.final_blocks, 414, "{threads} threads");
        assert_eq!(
            report.blocks_per_level,
            vec![52, 58, 304],
            "{threads} threads"
        );
        assert_eq!(
            report.checksum.to_bits(),
            0x4100_b1ba_a1f2_d7d0,
            "{threads} threads: checksum {}",
            report.checksum
        );
    }
}

/// Regenerates the golden-pinned figures inside an 8-worker pool and
/// checks them against the same constants `tests/golden.rs` pins for the
/// (sequential-calibrated) evaluation seed. This is the figure-level half
/// of the contract: an 8-thread sweep must reproduce the 1-thread
/// calibration exactly, including the shared telemetry context, which
/// this test computes under the pool (each integration-test binary is its
/// own process, so the context cannot have been warmed sequentially).
#[test]
fn experiments_under_8_worker_pool_match_sequential_goldens() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool builds");
    let (all, fig07, fig08) = pool.install(|| (exp::all(), exp::fig07(), exp::fig08()));

    // Batch order is the paper order, independent of which worker
    // finished first.
    let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        vec![
            "fig01", "table01", "table02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "table03", "ext01", "ext02",
            "ext03", "ext04", "ext05",
        ]
    );

    // Golden values from tests/golden.rs — calibrated sequentially,
    // asserted here under 8 workers. On a deliberate recalibration
    // update these together with golden.rs (docs/GOLDENS.md step 2).
    let direct = fig07.frame.numbers("direct_pct").unwrap();
    for (i, (&actual, &golden)) in direct
        .iter()
        .zip(&[36.684, 58.025, 52.847, 53.944])
        .enumerate()
    {
        assert!(
            (actual - golden).abs() <= 0.01,
            "fig07 direct_pct[{i}]: got {actual}, golden {golden}"
        );
    }
    let wi = fig08.frame.numbers("water_intensity_l_per_kwh").unwrap();
    for (i, (&actual, &golden)) in wi.iter().zip(&[9.9466, 8.1164, 6.6330, 9.0420]).enumerate() {
        assert!(
            (actual - golden).abs() <= 0.001,
            "fig08 wi[{i}]: got {actual}, golden {golden}"
        );
    }
}

/// The same regenerator, same process, different pool sizes: the frames
/// must serialize to identical JSON (fig10 builds seeded county fields
/// and doesn't touch the shared context, so every run recomputes it).
#[test]
fn fig10_serializes_identically_across_pool_sizes() {
    let run = |threads: usize| -> String {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let e = pool.install(exp::fig10);
        serde_json::to_string(&e.frame).expect("frame serializes")
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(sequential, run(threads), "{threads} threads");
    }
}
