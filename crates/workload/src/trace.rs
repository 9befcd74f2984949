//! Synthetic job-trace generation.
//!
//! Calibrated to the qualitative shape of published HPC workload studies
//! (and the systems' own log papers): Poisson arrivals modulated by
//! diurnal/weekly/seasonal demand, log-normal service times, and a
//! heavy-tailed node-count distribution with a bias toward powers of two.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thirstyflops_obs::span;
use thirstyflops_timeseries::{Month, SimCalendar};

/// One batch job in a trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Job {
    /// Sequential id within the trace.
    pub id: u64,
    /// Submission hour-of-year.
    pub submit_hour: usize,
    /// Nodes requested.
    pub nodes: u32,
    /// Runtime in whole hours (1 to 168 in generated traces).
    pub duration_hours: u32,
}

impl Job {
    /// Node-hours consumed.
    pub fn node_hours(&self) -> f64 {
        self.nodes as f64 * self.duration_hours as f64
    }
}

/// Trace generator configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceConfig {
    /// Cluster size in nodes (caps job widths).
    pub cluster_nodes: u32,
    /// Target long-run machine utilization in `(0, 1)`.
    pub target_utilization: f64,
    /// Mean job runtime, hours.
    pub mean_duration_hours: f64,
    /// Mean job width as a fraction of the cluster.
    pub mean_width_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster_nodes == 0 {
            return Err("cluster must have nodes".into());
        }
        if !(0.0 < self.target_utilization && self.target_utilization < 1.0) {
            return Err(format!(
                "target utilization must be in (0,1): {}",
                self.target_utilization
            ));
        }
        if self.mean_duration_hours < 1.0 {
            return Err("mean duration must be at least one hour".into());
        }
        if !(0.0 < self.mean_width_fraction && self.mean_width_fraction <= 1.0) {
            return Err("mean width fraction must be in (0,1]".into());
        }
        Ok(())
    }
}

/// Seeded synthetic job-trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator after validating the configuration.
    pub fn new(config: TraceConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Demand multiplier at an hour: weekday working hours are busy,
    /// nights/weekends quieter, December and August dip (maintenance /
    /// holidays) — the seasonal texture visible in Fig. 11's power panels.
    pub fn demand_multiplier(hour: usize) -> f64 {
        let cal = SimCalendar;
        let hod = cal.hour_of_day(hour) as f64;
        let dow = cal.day_of_year(hour) % 7; // day 0 = a Monday, by fiat
        let month = cal.month_of_hour(hour);

        let diurnal = 1.0 + 0.25 * ((hod - 14.0) / 24.0 * core::f64::consts::TAU).cos();
        let weekly = if dow >= 5 { 0.75 } else { 1.05 };
        let seasonal = match month {
            thirstyflops_timeseries::Month::December => 0.80,
            thirstyflops_timeseries::Month::August => 0.88,
            thirstyflops_timeseries::Month::January => 0.95,
            _ => 1.02,
        };
        diurnal * weekly * seasonal
    }

    /// Generates one year of jobs.
    pub fn generate_year(&self) -> Vec<Job> {
        let mut stream = self.stream();
        let mut jobs = Vec::new();
        for until in month_ends() {
            stream.generate_until(until, &mut jobs);
        }
        jobs
    }

    /// The year's trace as a stream of hours, starting at hour 0.
    pub(crate) fn stream(&self) -> TraceStream {
        let cfg = &self.config;
        // Offered load: jobs/hour so that E[width·duration]·λ equals the
        // target node-hours per hour.
        let mean_width = (cfg.mean_width_fraction * cfg.cluster_nodes as f64).max(1.0);
        let node_hours_per_job = mean_width * cfg.mean_duration_hours;
        TraceStream {
            rng: StdRng::seed_from_u64(cfg.seed),
            lambda_base: cfg.target_utilization * cfg.cluster_nodes as f64 / node_hours_per_job,
            mean_width,
            mean_duration_hours: cfg.mean_duration_hours,
            cluster_nodes: cfg.cluster_nodes,
            hour: 0,
            next_id: 0,
        }
    }
}

/// A year's trace generated a chunk of hours at a time: the RNG, the
/// next hour and the next job id carry over between chunks, so the draws
/// and the jobs are those of one uninterrupted pass.
#[derive(Debug)]
pub(crate) struct TraceStream {
    rng: StdRng,
    lambda_base: f64,
    mean_width: f64,
    mean_duration_hours: f64,
    cluster_nodes: u32,
    hour: usize,
    next_id: u64,
}

impl TraceStream {
    /// Appends to `jobs` the jobs submitted in every hour before
    /// `until` not generated yet.
    pub(crate) fn generate_until(&mut self, until: usize, jobs: &mut Vec<Job>) {
        let _span = span::span(span::TRACE_GEN);
        for hour in self.hour..until {
            let lambda = self.lambda_base * TraceGenerator::demand_multiplier(hour);
            let n = poisson(&mut self.rng, lambda);
            for _ in 0..n {
                let duration = sample_duration(&mut self.rng, self.mean_duration_hours);
                let nodes = sample_width(&mut self.rng, self.mean_width, self.cluster_nodes);
                jobs.push(Job {
                    id: self.next_id,
                    submit_hour: hour,
                    nodes,
                    duration_hours: duration,
                });
                self.next_id += 1;
            }
        }
        self.hour = self.hour.max(until);
    }
}

/// The exclusive end hour of each calendar month: the chunks a year is
/// generated and scheduled in.
pub(crate) fn month_ends() -> impl Iterator<Item = usize> {
    Month::ALL
        .into_iter()
        .map(|month| SimCalendar.month_end_hour(month))
}

/// The longest generated job, hours.
pub(crate) const MAX_DURATION_HOURS: u32 = 168;

/// Poisson sample via inversion (λ is small per hour) with a normal
/// approximation fallback for large λ.
fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation.
        let g = gaussian(rng);
        return (lambda + lambda.sqrt() * g).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // numerically impossible; guard anyway
        }
    }
}

/// Log-normal duration with the requested mean, clamped to
/// [1, [`MAX_DURATION_HOURS`]].
fn sample_duration(rng: &mut StdRng, mean_hours: f64) -> u32 {
    let sigma = 1.0f64;
    // For LogNormal(μ, σ): mean = exp(μ + σ²/2).
    let mu = mean_hours.ln() - sigma * sigma / 2.0;
    let d = (mu + sigma * gaussian(rng)).exp();
    d.round().clamp(1.0, MAX_DURATION_HOURS as f64) as u32
}

/// Heavy-tailed width biased to powers of two, capped at the cluster.
fn sample_width(rng: &mut StdRng, mean_width: f64, cluster: u32) -> u32 {
    // Exponential base draw.
    let raw = -mean_width * rng.random::<f64>().max(1e-12).ln();
    let mut w = raw.round().clamp(1.0, cluster as f64) as u32;
    // Two thirds of jobs snap to the nearest power of two (common request
    // pattern in production logs); nearest keeps the mean width unbiased.
    if rng.random::<f64>() < 0.66 {
        let up = w.next_power_of_two().max(1);
        let down = (up / 2).max(1);
        // Round at the geometric mean of the two candidates.
        w = if (w as f64) * (w as f64) >= (up as f64) * (down as f64) {
            up
        } else {
            down
        };
        w = w.min(cluster);
    }
    w.max(1)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use thirstyflops_timeseries::HOURS_PER_YEAR;

    fn config() -> TraceConfig {
        TraceConfig {
            cluster_nodes: 1000,
            target_utilization: 0.8,
            mean_duration_hours: 6.0,
            mean_width_fraction: 0.02,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = TraceGenerator::new(config()).unwrap().generate_year();
        let b = TraceGenerator::new(config()).unwrap().generate_year();
        assert_eq!(a, b);
        let mut cfg = config();
        cfg.seed = 12;
        let c = TraceGenerator::new(cfg).unwrap().generate_year();
        assert_ne!(a.len(), 0);
        assert!(a.len() != c.len() || a != c);
    }

    #[test]
    fn offered_load_close_to_target() {
        let jobs = TraceGenerator::new(config()).unwrap().generate_year();
        let node_hours: f64 = jobs.iter().map(Job::node_hours).sum();
        let offered = node_hours / (1000.0 * HOURS_PER_YEAR as f64);
        // Offered load should be within 25 % of the target utilization
        // (scheduling losses come later, in the cluster sim).
        assert!(
            (offered - 0.8).abs() < 0.2,
            "offered load {offered}, expected ≈0.8"
        );
    }

    #[test]
    fn job_bounds_respected() {
        let jobs = TraceGenerator::new(config()).unwrap().generate_year();
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= 1000);
            assert!(j.duration_hours >= 1 && j.duration_hours <= 168);
            assert!(j.submit_hour < HOURS_PER_YEAR);
        }
        // Ids are sequential.
        assert!(jobs.windows(2).all(|w| w[1].id == w[0].id + 1));
    }

    #[test]
    fn weekend_demand_lower_than_weekday() {
        // dow = day_of_year % 7; days 0–4 weekdays, 5–6 weekend.
        let weekday = TraceGenerator::demand_multiplier(2 * 24 + 12);
        let weekend = TraceGenerator::demand_multiplier(5 * 24 + 12);
        assert!(weekday > weekend);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = config();
        c.target_utilization = 1.5;
        assert!(TraceGenerator::new(c).is_err());
        let mut c = config();
        c.cluster_nodes = 0;
        assert!(TraceGenerator::new(c).is_err());
        let mut c = config();
        c.mean_duration_hours = 0.2;
        assert!(TraceGenerator::new(c).is_err());
        let mut c = config();
        c.mean_width_fraction = 0.0;
        assert!(TraceGenerator::new(c).is_err());
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        for &lambda in &[0.5, 3.0, 50.0] {
            let n = 4000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "λ={lambda} mean={mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
