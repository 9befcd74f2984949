//! Fig. 13: ranking application start times by water and carbon impact,
//! with miniAMR as the fixed-energy workload on a Frontier-like node.

use thirstyflops_catalog::SystemId;
use thirstyflops_scheduler::StartTimeOptimizer;
use thirstyflops_timeseries::Frame;
use thirstyflops_units::{KilowattHours, Pue};
use thirstyflops_workload::miniamr::{MiniAmr, MiniAmrConfig};

use crate::context::year_of;
use crate::Experiment;

/// The scheduled job's energy, kWh: a 512-node slice of a Frontier-like
/// machine over a 3-hour window, at the 0.01 kWh node-run floor × 512
/// nodes × 100. It is a constant, not the kernel's measured wall time ×
/// node power (about 3×10⁻⁴ kWh, below the floor), so fig13's numbers
/// do not depend on how fast the host runs miniAMR.
pub const JOB_ENERGY_KWH: f64 = 512.0;

/// Fig. 13: seven candidate start times over one day; the best time for
/// water differs from the best time for carbon.
pub fn fig13() -> Experiment {
    // Run the miniAMR kernel once for the notes; the job energy is
    // start-time-invariant and fixed (`JOB_ENERGY_KWH`).
    let report = MiniAmr::new(MiniAmrConfig::default())
        .expect("default kernel config is valid")
        .run();
    let frontier = year_of(SystemId::Frontier);
    let job_energy = KilowattHours::new(JOB_ENERGY_KWH);

    let optimizer = StartTimeOptimizer::new(
        frontier.water_intensity(),
        frontier.carbon.clone(),
        Pue::new(frontier.spec.pue.value()).expect("catalog PUE is valid"),
    );
    // Seven start times across a summer day (day 190), every 3 hours.
    let day = 190 * 24;
    let candidates: Vec<usize> = (0..7).map(|i| day + i * 3).collect();
    let impacts = optimizer
        .evaluate(&candidates, 3, job_energy)
        .expect("candidates non-empty");

    let mut frame = Frame::new();
    frame
        .push_text(
            "start_time",
            impacts
                .iter()
                .map(|i| format!("{:02}:00", (i.start_hour % 24)))
                .collect(),
        )
        .unwrap();
    frame
        .push_number(
            "water_liters",
            impacts.iter().map(|i| i.water.value()).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "carbon_kg",
            impacts.iter().map(|i| i.carbon.value() / 1000.0).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "water_rank",
            impacts.iter().map(|i| i.water_rank as f64).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "carbon_rank",
            impacts.iter().map(|i| i.carbon_rank as f64).collect(),
        )
        .unwrap();

    let best_water = StartTimeOptimizer::best_for_water(&impacts);
    let best_carbon = StartTimeOptimizer::best_for_carbon(&impacts);
    Experiment {
        id: "fig13",
        title: "Ranking of application start times by water and carbon impact (miniAMR)",
        frame,
        notes: vec![
            format!(
                "miniAMR kernel: {} sweeps, {} cell updates, {} blocks peak — identical energy at every start time",
                report.steps, report.cell_updates, report.peak_blocks
            ),
            format!(
                "best start for water: {:02}:00; best for carbon: {:02}:00 — the optima differ (Takeaway 9)",
                best_water.start_hour % 24,
                best_carbon.start_hour % 24
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_optima_differ() {
        let e = fig13();
        let wr = e.frame.numbers("water_rank").unwrap();
        let cr = e.frame.numbers("carbon_rank").unwrap();
        let best_water = wr.iter().position(|&r| r == 1.0).unwrap();
        let best_carbon = cr.iter().position(|&r| r == 1.0).unwrap();
        assert_ne!(best_water, best_carbon, "water and carbon optima coincide");
    }

    #[test]
    fn fig13_has_seven_candidates() {
        let e = fig13();
        assert_eq!(e.frame.n_rows(), 7);
    }

    /// fig13's water and carbon columns are a direct evaluation at the
    /// fixed 512 kWh, bit for bit, whatever the kernel's timing.
    #[test]
    fn fig13_impacts_are_the_512_kwh_evaluation_bit_for_bit() {
        assert_eq!(
            JOB_ENERGY_KWH.to_bits(),
            (0.01f64 * 512.0 * 100.0).to_bits()
        );
        let frontier = year_of(SystemId::Frontier);
        let optimizer = StartTimeOptimizer::new(
            frontier.water_intensity(),
            frontier.carbon.clone(),
            Pue::new(frontier.spec.pue.value()).unwrap(),
        );
        let candidates: Vec<usize> = (0..7).map(|i| 190 * 24 + i * 3).collect();
        let impacts = optimizer
            .evaluate(&candidates, 3, KilowattHours::new(512.0))
            .unwrap();
        let e = fig13();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let water: Vec<f64> = impacts.iter().map(|i| i.water.value()).collect();
        let carbon: Vec<f64> = impacts.iter().map(|i| i.carbon.value() / 1000.0).collect();
        assert_eq!(bits(e.frame.numbers("water_liters").unwrap()), bits(&water));
        assert_eq!(bits(e.frame.numbers("carbon_kg").unwrap()), bits(&carbon));
    }
}
