//! The K-lane annual reduction: every annual sum the scenario engine and
//! the fig06–08 statistics need, for K lanes, each lane in one pass over
//! the hour axis.
//!
//! Each lane reads its own series slices in place ([`LaneSource`]).
//! Sweeps share a handful of unique series across thousands of lanes
//! (energy per system, WUE per climate, EWF/carbon per region), so the
//! working set stays at the *unique*-series size rather than K copies of
//! it.
//!
//! **Bit-identity contract.** Every scalar reduction the kernel replaces
//! is a left-to-right fold over the hour axis
//! ([`HourlySeries::dot`](crate::hourly::HourlySeries::dot), [`HourlySeries::total`](crate::hourly::HourlySeries::total),
//! [`HourlySeries::monthly_sum`](crate::hourly::HourlySeries::monthly_sum), `stats::mean`). The kernel reduces
//! one lane at a time, each sum a local accumulator that starts at 0.0
//! and visits hours in the same ascending order, so each lane performs
//! the exact scalar operation sequence — the batched result is
//! bit-identical to the scalar one, not merely close, and no lane's bits
//! depend on the other lanes of its batch or its slot in it.
//! `tests/batch.rs` enforces this differentially.

use crate::calendar::{Month, SimCalendar, HOURS_PER_YEAR, MONTHS_PER_YEAR};

/// One lane's source series plus the post-simulation scales, for
/// [`annual_reductions_scaled`]. Identity is decided by the *presence*
/// of a scale, never by its value: `Some(k)` evaluates `v * k` per
/// sample — the exact expression
/// [`HourlySeries::scale`](crate::hourly::HourlySeries::scale) materializes — so a literal `Some(1.0)`
/// still multiplies, and `None` reads the raw samples.
#[derive(Debug, Clone, Copy)]
pub struct LaneSource<'a> {
    /// Hourly IT energy, kWh.
    pub energy: &'a [f64],
    /// Hourly WUE, L/kWh.
    pub wue: &'a [f64],
    /// Hourly EWF, L/kWh.
    pub ewf: &'a [f64],
    /// Hourly carbon intensity, gCO₂/kWh.
    pub carbon: &'a [f64],
    /// WUE multiplier.
    pub wue_scale: Option<f64>,
    /// EWF multiplier.
    pub ewf_scale: Option<f64>,
    /// Carbon multiplier.
    pub carbon_scale: Option<f64>,
}

/// Every annual reduction the scenario engine derives from one lane's
/// hourly series (`w`, `f`, `c` are the scaled WUE, EWF and carbon
/// series). The remaining metric arithmetic (PUE application, scarcity
/// weights, pricing, lifecycle) is cheap scalar post-processing on these.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneAggregates {
    /// `Σ energy` — annual IT energy, kWh.
    pub energy_kwh: f64,
    /// `Σ energy·w` — annual direct water, liters.
    pub direct_l: f64,
    /// `Σ energy·f` — annual indirect water *before* the PUE factor
    /// (the scalar path multiplies the dot by `pue` afterwards).
    pub indirect_per_pue_l: f64,
    /// `Σ energy·c` — annual operational carbon, grams.
    pub carbon_g: f64,
    /// Annual mean of `w`, L/kWh.
    pub mean_wue: f64,
    /// Annual mean of `f`, L/kWh.
    pub mean_ewf: f64,
    /// Annual mean of `c`, gCO₂/kWh.
    pub mean_carbon: f64,
    /// Monthly `Σ energy·w` (January first), liters.
    pub monthly_direct_l: [f64; MONTHS_PER_YEAR],
}

/// The fused K-lane reduction: every field of [`LaneAggregates`] for
/// each lane, straight from the source slices, in lane order.
///
/// **Bit-identity.** Lanes reduce one after another (lane → month →
/// hour), each sum a local accumulator folded left to right from 0.0.
/// Months are contiguous ascending hour ranges partitioning the year, so
/// iterating months-outer/hours-inner visits hours 0..8760 in exactly
/// the scalar order. Per step the expressions are the scalar ones
/// (`v * k` for a scaled sample, then `acc += e`, `acc += e*w`, …), and
/// a mean is its ordered sum divided by 8760, as `stats::mean` computes
/// it. `lanes::tests` pins every field against the scalar
/// [`HourlySeries`](crate::hourly::HourlySeries) expressions bit for bit.
///
/// # Panics
/// Panics if `sources` is empty or any slice is not a whole year.
pub fn annual_reductions_scaled(sources: &[LaneSource<'_>]) -> Vec<LaneAggregates> {
    assert!(!sources.is_empty(), "a lane batch needs at least one lane");
    for s in sources {
        assert_eq!(s.energy.len(), HOURS_PER_YEAR, "lanes hold whole years");
        assert_eq!(s.wue.len(), HOURS_PER_YEAR, "lanes hold whole years");
        assert_eq!(s.ewf.len(), HOURS_PER_YEAR, "lanes hold whole years");
        assert_eq!(s.carbon.len(), HOURS_PER_YEAR, "lanes hold whole years");
    }
    sources.iter().map(reduce_lane).collect()
}

/// A lane scale as the hour loop applies it: the presence rule, with a
/// factor of `1.0` standing in when absent. The compiler turns the
/// presence test into a branchless select that evaluates `v * k` on
/// both arms; read straight from an `Option`, `k` would be `None`'s
/// uninitialized payload, whose bits can be a subnormal that costs a
/// floating-point assist on every sample. The product is discarded when
/// absent, so the substitute never reaches a result.
#[derive(Clone, Copy)]
struct Scale {
    present: bool,
    k: f64,
}

impl Scale {
    fn new(k: Option<f64>) -> Scale {
        Scale {
            present: k.is_some(),
            k: k.unwrap_or(1.0),
        }
    }

    /// `v * k` when the lane carries a scale, `v` itself otherwise.
    #[inline(always)]
    fn apply(self, v: f64) -> f64 {
        if self.present {
            v * self.k
        } else {
            v
        }
    }
}

/// One lane's reductions, every sum held in a local accumulator.
fn reduce_lane(s: &LaneSource<'_>) -> LaneAggregates {
    let [wue_scale, ewf_scale, carbon_scale] =
        [s.wue_scale, s.ewf_scale, s.carbon_scale].map(Scale::new);
    let (mut energy_kwh, mut direct_l, mut indirect_per_pue_l, mut carbon_g) = (0.0, 0.0, 0.0, 0.0);
    let (mut sum_wue, mut sum_ewf, mut sum_carbon) = (0.0, 0.0, 0.0);
    let mut monthly_direct_l = [0.0; MONTHS_PER_YEAR];
    let cal = SimCalendar;
    for (m, &month) in Month::ALL.iter().enumerate() {
        let hours = cal.month_hours(month);
        let mut month_direct = 0.0;
        for (((&e, &w), &f), &c) in s.energy[hours.clone()]
            .iter()
            .zip(&s.wue[hours.clone()])
            .zip(&s.ewf[hours.clone()])
            .zip(&s.carbon[hours])
        {
            let w = wue_scale.apply(w);
            let f = ewf_scale.apply(f);
            let c = carbon_scale.apply(c);
            let ew = e * w;
            energy_kwh += e;
            direct_l += ew;
            indirect_per_pue_l += e * f;
            carbon_g += e * c;
            sum_wue += w;
            sum_ewf += f;
            sum_carbon += c;
            month_direct += ew;
        }
        monthly_direct_l[m] = month_direct;
    }
    LaneAggregates {
        energy_kwh,
        direct_l,
        indirect_per_pue_l,
        carbon_g,
        mean_wue: sum_wue / HOURS_PER_YEAR as f64,
        mean_ewf: sum_ewf / HOURS_PER_YEAR as f64,
        mean_carbon: sum_carbon / HOURS_PER_YEAR as f64,
        monthly_direct_l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hourly::HourlySeries;

    fn series(phase: usize) -> HourlySeries {
        HourlySeries::from_fn(|h| ((h * (13 + phase)) % 29) as f64 * 0.37 + phase as f64 * 0.01)
    }

    fn scaled(s: &HourlySeries, k: Option<f64>) -> HourlySeries {
        match k {
            Some(k) => s.scale(k),
            None => s.clone(),
        }
    }

    #[test]
    fn k_lane_kernels_match_their_scalar_pairs_bit_for_bit() {
        let srcs: Vec<HourlySeries> = (0..16).map(series).collect();
        // `Some(1.0)` multiplies like any other scale — presence decides.
        let scales = [None, Some(1.618_033_988_7), Some(1.0), Some(0.25)];
        let lanes = 4;
        let sources: Vec<LaneSource> = (0..lanes)
            .map(|l| LaneSource {
                energy: srcs[l].values(),
                wue: srcs[l + 4].values(),
                ewf: srcs[l + 8].values(),
                carbon: srcs[l + 12].values(),
                wue_scale: scales[l],
                ewf_scale: scales[(l + 1) % 4],
                carbon_scale: scales[(l + 2) % 4],
            })
            .collect();
        let got = annual_reductions_scaled(&sources);
        assert_eq!(got.len(), lanes);
        for (l, (agg, s)) in got.iter().zip(&sources).enumerate() {
            let energy = &srcs[l];
            let w = scaled(&srcs[l + 4], s.wue_scale);
            let f = scaled(&srcs[l + 8], s.ewf_scale);
            let c = scaled(&srcs[l + 12], s.carbon_scale);
            assert_eq!(agg.energy_kwh, energy.total(), "total lane {l}");
            assert_eq!(agg.direct_l, energy.dot(&w), "direct lane {l}");
            assert_eq!(agg.indirect_per_pue_l, energy.dot(&f), "indirect lane {l}");
            assert_eq!(agg.carbon_g, energy.dot(&c), "carbon lane {l}");
            assert_eq!(agg.mean_wue, w.mean(), "wue mean lane {l}");
            assert_eq!(agg.mean_ewf, f.mean(), "ewf mean lane {l}");
            assert_eq!(agg.mean_carbon, c.mean(), "carbon mean lane {l}");
            let monthly = energy.mul(&w).monthly_sum();
            for (m, &month) in Month::ALL.iter().enumerate() {
                assert_eq!(
                    agg.monthly_direct_l[m],
                    monthly.get(month),
                    "monthly lane {l} month {m}"
                );
            }
        }
    }

    #[test]
    fn fused_reductions_match_the_single_purpose_kernels_bit_for_bit() {
        // Unscaled lanes, an odd lane count: every fused field equals the
        // single-purpose scalar reduction it replaces.
        let srcs: Vec<HourlySeries> = (0..28).map(series).collect();
        let lanes = 7;
        let sources: Vec<LaneSource> = (0..lanes)
            .map(|l| LaneSource {
                energy: srcs[l].values(),
                wue: srcs[l + 7].values(),
                ewf: srcs[l + 14].values(),
                carbon: srcs[l + 21].values(),
                wue_scale: None,
                ewf_scale: None,
                carbon_scale: None,
            })
            .collect();
        let got = annual_reductions_scaled(&sources);
        for (l, agg) in got.iter().enumerate() {
            let (e, w, f, c) = (&srcs[l], &srcs[l + 7], &srcs[l + 14], &srcs[l + 21]);
            assert_eq!(agg.energy_kwh, e.total(), "sum lane {l}");
            assert_eq!(agg.direct_l, e.dot(w), "dot(e,w) lane {l}");
            assert_eq!(agg.indirect_per_pue_l, e.dot(f), "dot(e,f) lane {l}");
            assert_eq!(agg.carbon_g, e.dot(c), "dot(e,c) lane {l}");
            assert_eq!(agg.mean_wue, w.mean(), "mean w lane {l}");
            assert_eq!(agg.mean_ewf, f.mean(), "mean f lane {l}");
            assert_eq!(agg.mean_carbon, c.mean(), "mean c lane {l}");
            let monthly = e.mul(w).monthly_sum();
            for (m, &month) in Month::ALL.iter().enumerate() {
                assert_eq!(
                    agg.monthly_direct_l[m],
                    monthly.get(month),
                    "lane {l} month {m}"
                );
            }
        }
    }

    #[test]
    fn zero_copy_reductions_match_pack_then_reduce_bit_for_bit() {
        // Many lanes share the same few slices in place, as sweeps do.
        // Reference: materialize every scaled series first, then reduce
        // the copies unscaled — the result must not move by a bit.
        let srcs: Vec<HourlySeries> = (0..4).map(series).collect();
        let scales = [None, Some(1.618_033_988_7), Some(1.0), Some(0.25)];
        let lanes = 9;
        let sources: Vec<LaneSource> = (0..lanes)
            .map(|l| LaneSource {
                energy: srcs[l % 2].values(),
                wue: srcs[(l + 1) % 4].values(),
                ewf: srcs[2].values(),
                carbon: srcs[3].values(),
                wue_scale: scales[l % 4],
                ewf_scale: scales[(l + 1) % 4],
                carbon_scale: scales[(l + 3) % 4],
            })
            .collect();
        let packed: Vec<[HourlySeries; 3]> = (0..lanes)
            .map(|l| {
                [
                    scaled(&srcs[(l + 1) % 4], scales[l % 4]),
                    scaled(&srcs[2], scales[(l + 1) % 4]),
                    scaled(&srcs[3], scales[(l + 3) % 4]),
                ]
            })
            .collect();
        let reference: Vec<LaneSource> = (0..lanes)
            .map(|l| LaneSource {
                energy: srcs[l % 2].values(),
                wue: packed[l][0].values(),
                ewf: packed[l][1].values(),
                carbon: packed[l][2].values(),
                wue_scale: None,
                ewf_scale: None,
                carbon_scale: None,
            })
            .collect();
        assert_eq!(
            annual_reductions_scaled(&sources),
            annual_reductions_scaled(&reference)
        );
    }

    #[test]
    fn lane_round_trip_and_scaling() {
        let year = series(3);
        let lane = |k: Option<f64>| LaneSource {
            energy: year.values(),
            wue: year.values(),
            ewf: year.values(),
            carbon: year.values(),
            wue_scale: k,
            ewf_scale: k,
            carbon_scale: k,
        };
        let k = 2.375_117;
        let got = annual_reductions_scaled(&[lane(None), lane(Some(k)), lane(Some(1.0))]);
        // `None` reads the raw samples.
        assert_eq!(got[0].mean_wue, year.mean());
        assert_eq!(got[0].direct_l, year.dot(&year));
        // `Some(k)` is exactly `HourlySeries::scale(k)`.
        let s = year.scale(k);
        assert_eq!(got[1].mean_wue, s.mean());
        assert_eq!(got[1].mean_ewf, s.mean());
        assert_eq!(got[1].mean_carbon, s.mean());
        assert_eq!(got[1].direct_l, year.dot(&s));
        // `Some(1.0)` still multiplies; `v * 1.0 == v`, so it lands on the raw lane.
        assert_eq!(got[2], got[0]);
        // Each lane is independent of its batch: alone it gives the same bits.
        for (i, k) in [None, Some(k), Some(1.0)].into_iter().enumerate() {
            assert_eq!(annual_reductions_scaled(&[lane(k)])[0], got[i], "lane {i}");
        }
    }

    #[test]
    fn a_lanes_bits_do_not_depend_on_its_slot_in_the_batch() {
        let srcs: Vec<HourlySeries> = (0..4).map(series).collect();
        let lane = |i: usize| LaneSource {
            energy: srcs[i % 2].values(),
            wue: srcs[1].values(),
            ewf: srcs[2].values(),
            carbon: srcs[3].values(),
            wue_scale: Some(0.5 + i as f64 / 64.0),
            ewf_scale: (i % 3 == 0).then_some(1.25),
            carbon_scale: None,
        };
        let others: Vec<LaneSource> = (1..33).map(lane).collect();
        let alone = annual_reductions_scaled(&[lane(0)])[0];
        let first: Vec<LaneSource> = std::iter::once(lane(0)).chain(others.clone()).collect();
        let last_of_32: Vec<LaneSource> = others[..31].iter().copied().chain([lane(0)]).collect();
        let slot_33: Vec<LaneSource> = others.iter().copied().chain([lane(0)]).collect();
        assert_eq!(annual_reductions_scaled(&first)[0], alone, "first");
        assert_eq!(
            annual_reductions_scaled(&last_of_32)[31],
            alone,
            "last of 32"
        );
        assert_eq!(annual_reductions_scaled(&slot_33)[32], alone, "33rd of 33");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_is_a_bug() {
        annual_reductions_scaled(&[]);
    }

    #[test]
    #[should_panic(expected = "lanes hold whole years")]
    fn mismatched_lanes_panic() {
        let year = series(0);
        let short = &year.values()[..HOURS_PER_YEAR - 1];
        annual_reductions_scaled(&[LaneSource {
            energy: year.values(),
            wue: year.values(),
            ewf: short,
            carbon: year.values(),
            wue_scale: None,
            ewf_scale: None,
            carbon_scale: None,
        }]);
    }
}
