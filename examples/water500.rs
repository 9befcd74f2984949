//! A "Water500" ranking (§6(b)): order cataloged systems — including the
//! §6 extension systems Aurora and El Capitan — by annual operational
//! water footprint and by scarcity-adjusted water intensity.
//!
//! ```sh
//! cargo run --release --example water500
//! ```

use thirstyflops::catalog::SystemId;
use thirstyflops::core::{AnnualReport, FootprintModel};

fn main() {
    println!("=== Water500: water footprint ranking of cataloged systems ===\n");
    let mut reports: Vec<AnnualReport> = SystemId::ALL
        .iter()
        .map(|&id| FootprintModel::reference(id).annual_report(2023))
        .collect();

    println!("-- By annual operational water (the classic 'who drinks most') --\n");
    reports.sort_by(|a, b| {
        b.operational_total()
            .value()
            .partial_cmp(&a.operational_total().value())
            .unwrap()
    });
    println!(
        "{:<4} {:<12} {:>12} {:>12} {:>10} {:>10}",
        "#", "system", "water (ML)", "energy (GWh)", "WI", "direct %"
    );
    for (i, r) in reports.iter().enumerate() {
        println!(
            "{:<4} {:<12} {:>12.1} {:>12.1} {:>10.2} {:>10.0}",
            i + 1,
            r.id.to_string(),
            r.operational_total().value() / 1e6,
            r.energy.value() / 1e6,
            r.mean_wi.value(),
            r.direct_share.percent()
        );
    }

    println!(
        "\n-- By scarcity-adjusted water intensity (who strains their basin most per kWh) --\n"
    );
    reports.sort_by(|a, b| {
        b.adjusted_wi
            .value()
            .partial_cmp(&a.adjusted_wi.value())
            .unwrap()
    });
    println!(
        "{:<4} {:<12} {:>14} {:>10}",
        "#", "system", "adjusted WI", "raw WI"
    );
    for (i, r) in reports.iter().enumerate() {
        println!(
            "{:<4} {:<12} {:>14.2} {:>10.2}",
            i + 1,
            r.id.to_string(),
            r.adjusted_wi.value(),
            r.mean_wi.value()
        );
    }
    println!(
        "\nThe two orderings differ: volume and scarcity-weighted impact are different questions."
    );
}
