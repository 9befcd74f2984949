//! Fig. 1 (US panorama) and Fig. 10 (county-level WSI variation).

use rayon::prelude::*;
use thirstyflops_catalog::wsi::CountyWsiField;
use thirstyflops_catalog::{usmap, wsi};
use thirstyflops_obs::trace::propagate;
use thirstyflops_timeseries::Frame;

use crate::{Experiment, SEED};

/// Fig. 1: carbon intensity, water scarcity index, and HPC power
/// consumption per US state.
pub fn fig01() -> Experiment {
    let rows = usmap::state_overview();
    let mut frame = Frame::new();
    frame
        .push_text("state", rows.iter().map(|r| r.state.clone()).collect())
        .unwrap();
    frame
        .push_number(
            "carbon_intensity_gco2_per_kwh",
            rows.iter().map(|r| r.carbon_intensity).collect(),
        )
        .unwrap();
    frame
        .push_number("water_scarcity_index", rows.iter().map(|r| r.wsi).collect())
        .unwrap();
    frame
        .push_number(
            "hpc_power_mw",
            rows.iter().map(|r| r.hpc_power_mw).collect(),
        )
        .unwrap();

    let stressed_power: f64 = rows
        .iter()
        .filter(|r| r.wsi >= 0.5)
        .map(|r| r.hpc_power_mw)
        .sum();
    let total_power: f64 = rows.iter().map(|r| r.hpc_power_mw).sum();
    Experiment {
        id: "fig01",
        title: "Carbon intensity, water scarcity index, and HPC power consumption in the US",
        frame,
        notes: vec![
            format!(
                "{:.0}% of snapshot HPC power sits in states with WSI >= 0.5 — HPC centers are not all in water-rich places",
                100.0 * stressed_power / total_power
            ),
            "coastal states carry lower carbon intensity than the inland coal belt".into(),
        ],
    }
}

/// Fig. 10: direct and indirect WSIs vary strongly within Illinois and
/// Tennessee (county level), and across the whole US.
pub fn fig10() -> Experiment {
    // The two county fields are independent seeded generations; run them
    // on two workers when a pool is configured.
    let fields: Vec<CountyWsiField> = [("IL", 102), ("TN", 95)]
        .par_iter()
        .map(propagate(|&(state, counties): &(&str, usize)| {
            CountyWsiField::generate(state, counties, SEED).expect("IL and TN are cataloged")
        }))
        .collect();
    let (il, tn) = (&fields[0], &fields[1]);

    // US-wide state-level extremes for the third panel.
    let mut us_min = f64::INFINITY;
    let mut us_max = f64::NEG_INFINITY;
    for abbr in wsi::STATE_ABBRS {
        let v = wsi::state_wsi(abbr).unwrap().value();
        us_min = us_min.min(v);
        us_max = us_max.max(v);
    }

    let mut frame = Frame::new();
    frame
        .push_text(
            "region",
            vec![
                "Illinois (county)".into(),
                "Tennessee (county)".into(),
                "USA (state)".into(),
            ],
        )
        .unwrap();
    frame
        .push_number("n_units", vec![102.0, 95.0, 51.0])
        .unwrap();
    frame
        .push_number("wsi_min", vec![il.min(), tn.min(), us_min])
        .unwrap();
    frame
        .push_number(
            "wsi_mean",
            vec![il.mean(), tn.mean(), (us_min + us_max) / 2.0],
        )
        .unwrap();
    frame
        .push_number("wsi_max", vec![il.max(), tn.max(), us_max])
        .unwrap();
    frame
        .push_number(
            "relative_spread",
            vec![
                il.relative_spread(),
                tn.relative_spread(),
                (us_max - us_min) / ((us_min + us_max) / 2.0),
            ],
        )
        .unwrap();

    Experiment {
        id: "fig10",
        title: "Direct and indirect WSIs exhibit significant variation for Illinois, Tennessee, and the USA",
        frame,
        notes: vec![
            format!(
                "Illinois county WSI spans {:.2}-{:.2} around the {:.2} state mean",
                il.min(),
                il.max(),
                il.mean()
            ),
            format!(
                "Tennessee county WSI spans {:.2}-{:.2} around the {:.2} state mean",
                tn.min(),
                tn.max(),
                tn.mean()
            ),
            "WSI varies at sub-state (kilometer) scale, so the choice of supplying power grid materially changes the indirect WSI".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_shape() {
        let e = fig01();
        assert_eq!(e.frame.n_rows(), 51);
        let il_idx = e
            .frame
            .texts("state")
            .unwrap()
            .iter()
            .position(|s| s == "IL")
            .unwrap();
        assert!(e.frame.numbers("hpc_power_mw").unwrap()[il_idx] > 40.0);
    }

    #[test]
    fn fig10_shape() {
        let e = fig10();
        let spreads = e.frame.numbers("relative_spread").unwrap();
        // Significant variation in both states.
        assert!(spreads[0] > 0.3 && spreads[1] > 0.3);
    }
}
