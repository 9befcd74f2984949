//! Water/carbon-aware job scheduling (Fig. 13, Takeaways 7 and 9).
//!
//! ```sh
//! cargo run --release --example job_scheduling
//! ```
//!
//! 1. Runs the miniAMR kernel that stands for the job; its energy is
//!    Fig. 13's fixed `JOB_ENERGY_KWH`;
//! 2. ranks seven start times by water and by carbon (they differ);
//! 3. compares geo-distributed placement policies across two sites.

use thirstyflops::catalog::SystemId;
use thirstyflops::core::SystemYear;
use thirstyflops::experiments::JOB_ENERGY_KWH;
use thirstyflops::scheduler::{
    GeoBalancer, MultiObjective, Policy, SiteSeries, StartTimeOptimizer,
};
use thirstyflops::units::KilowattHours;
use thirstyflops::workload::miniamr::{MiniAmr, MiniAmrConfig};

fn main() {
    println!("=== Part 1: when should the job start? (Fig. 13) ===\n");
    let report = MiniAmr::new(MiniAmrConfig::default())
        .expect("default config is valid")
        .run();
    println!(
        "miniAMR: {} sweeps over {} peak blocks, {:.1} MFLOP, {:.2} s wall",
        report.steps,
        report.peak_blocks,
        report.flops as f64 / 1e6,
        report.elapsed_seconds
    );

    let frontier = SystemYear::simulate(SystemId::Frontier, 2023);
    // The same 512-node, 3-hour allocation Fig. 13 schedules.
    let job_energy = KilowattHours::new(JOB_ENERGY_KWH);
    println!(
        "job energy (identical at every start time): {:.1}\n",
        job_energy
    );

    let optimizer = StartTimeOptimizer::new(
        frontier.water_intensity(),
        frontier.carbon.clone(),
        frontier.spec.pue,
    );
    let day = 190 * 24;
    let candidates: Vec<usize> = (0..7).map(|i| day + i * 3).collect();
    let impacts = optimizer
        .evaluate(&candidates, 3, job_energy)
        .expect("candidates valid");
    println!(
        "{:>6} {:>12} {:>11} {:>11} {:>12}",
        "start", "water (L)", "carbon (kg)", "water rank", "carbon rank"
    );
    for i in &impacts {
        println!(
            "{:>5}h {:>12.0} {:>11.1} {:>11} {:>12}",
            i.start_hour % 24,
            i.water.value(),
            i.carbon.value() / 1000.0,
            i.water_rank,
            i.carbon_rank
        );
    }
    let bw = StartTimeOptimizer::best_for_water(&impacts);
    let bc = StartTimeOptimizer::best_for_carbon(&impacts);
    println!(
        "\nBest for water: {:02}:00 — best for carbon: {:02}:00 (different!, Takeaway 9)\n",
        bw.start_hour % 24,
        bc.start_hour % 24
    );

    println!("=== Part 2: which site should run the load? (Takeaway 7) ===\n");
    let polaris = SystemYear::simulate(SystemId::Polaris, 2023);
    let sites = vec![
        SiteSeries::from_year(&frontier),
        SiteSeries::from_year(&polaris),
    ];
    let balancer = GeoBalancer::new(sites).expect("two sites");
    println!(
        "{:<14} {:>14} {:>14} {:>16}",
        "policy", "water (ML)", "carbon (t)", "facility (GWh)"
    );
    for (name, policy) in [
        ("energy-only", Policy::EnergyOnly),
        ("carbon-only", Policy::CarbonOnly),
        ("water-only", Policy::WaterOnly),
        (
            "co-optimize",
            Policy::CoOptimize(MultiObjective::new(0.0, 0.5, 0.5).expect("weights sum to 1")),
        ),
    ] {
        let p = balancer.run_year(1000.0, policy);
        println!(
            "{:<14} {:>14.2} {:>14.1} {:>16.2}",
            name,
            p.water.value() / 1e6,
            p.carbon.value() / 1e6,
            p.facility_energy.value() / 1e6
        );
    }
    println!(
        "\nEnergy-optimal placement is not water-optimal; the co-optimizer trades between them."
    );
}
