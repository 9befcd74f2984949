//! Hour-stepped cluster scheduling simulation: FCFS with EASY backfill.
//!
//! Turns a job trace into the machine-utilization series the paper
//! derives from production job logs. EASY backfill (a reservation for the
//! queue head; later jobs may jump ahead only if they cannot delay that
//! reservation) is the de-facto standard batch policy, so the resulting
//! utilization texture — high steady load with backfill ripples — matches
//! what the M100/Fugaku log studies report.

use std::collections::VecDeque;
use std::sync::OnceLock;

use thirstyflops_obs::span;
use thirstyflops_obs::Counter;
use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};

use crate::trace::Job;

/// Jobs fed into cluster-year simulations, registered once in the
/// workspace metrics registry. Deterministic: simulation demand is a
/// pure function of the command (`docs/OBSERVABILITY.md`).
fn jobs_simulated() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_workload_jobs_simulated_total",
            "Jobs fed into cluster-year scheduling simulations.",
        )
    })
}

/// A running job's remaining reservation.
#[derive(Debug, Clone, Copy)]
struct Running {
    end_hour: usize,
    nodes: u32,
}

/// Summary statistics from a simulated year.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterStats {
    /// Jobs that started within the year.
    pub started_jobs: usize,
    /// Jobs still queued at year end.
    pub unstarted_jobs: usize,
    /// Mean wait of started jobs, hours.
    pub mean_wait_hours: f64,
    /// Max wait of started jobs, hours.
    pub max_wait_hours: u32,
    /// Mean machine utilization over the year.
    pub mean_utilization: f64,
}

/// The cluster simulator.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    nodes: u32,
    backfill: bool,
}

impl ClusterSim {
    /// A cluster with `nodes` identical nodes using FCFS + EASY backfill.
    pub fn new(nodes: u32) -> Result<Self, String> {
        Self::with_backfill(nodes, true)
    }

    /// A cluster with an explicit backfill policy: `backfill = false`
    /// degrades to plain FCFS — the ablation baseline showing how much
    /// utilization EASY recovers.
    pub fn with_backfill(nodes: u32, backfill: bool) -> Result<Self, String> {
        if nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        Ok(Self { nodes, backfill })
    }

    /// Cluster size.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Runs one year of FCFS + EASY backfill over `jobs` (any order;
    /// sorted internally by submit hour). Returns the hourly busy-node
    /// utilization in `[0, 1]` and summary stats.
    ///
    /// Jobs wider than the cluster are rejected (counted as unstarted).
    pub fn simulate_year(&self, jobs: &[Job]) -> (HourlySeries, ClusterStats) {
        let _span = span::span(span::CLUSTER_SIM);
        jobs_simulated().add(jobs.len() as u64);
        let mut sorted: Vec<Job> = jobs.to_vec();
        sorted.sort_by_key(|j| (j.submit_hour, j.id));

        let mut queue: VecDeque<Job> = VecDeque::new();
        let mut running: Vec<Running> = Vec::new();
        let mut free = self.nodes;
        let mut next_arrival = 0usize;

        let mut utilization = Vec::with_capacity(HOURS_PER_YEAR);
        let mut started = 0usize;
        let mut rejected = 0usize;
        let mut total_wait = 0u64;
        let mut max_wait = 0u32;

        for hour in 0..HOURS_PER_YEAR {
            // Complete jobs.
            running.retain(|r| {
                if r.end_hour <= hour {
                    free += r.nodes;
                    false
                } else {
                    true
                }
            });

            // Accept arrivals.
            while next_arrival < sorted.len() && sorted[next_arrival].submit_hour <= hour {
                let j = sorted[next_arrival];
                if j.nodes > self.nodes {
                    rejected += 1;
                } else {
                    queue.push_back(j);
                }
                next_arrival += 1;
            }

            // FCFS head starts.
            while let Some(&head) = queue.front() {
                if head.nodes <= free {
                    queue.pop_front();
                    free -= head.nodes;
                    running.push(Running {
                        end_hour: hour + head.duration_hours as usize,
                        nodes: head.nodes,
                    });
                    started += 1;
                    let wait = (hour - head.submit_hour) as u32;
                    total_wait += wait as u64;
                    max_wait = max_wait.max(wait);
                } else {
                    break;
                }
            }

            // EASY backfill: reserve the earliest feasible start for the
            // head, then let later jobs run if they cannot delay it.
            if !self.backfill {
                utilization.push((self.nodes - free) as f64 / self.nodes as f64);
                continue;
            }
            if let Some(&head) = queue.front() {
                let shadow = Self::shadow_time(&running, free, head.nodes, hour);
                // Nodes that will be free at shadow time beyond what the
                // head needs ("extra" nodes a long backfill job may hold).
                let free_at_shadow = self.free_at(&running, shadow);
                let extra = free_at_shadow.saturating_sub(head.nodes);

                let mut i = 1; // skip the head
                while i < queue.len() {
                    let cand = queue[i];
                    let fits_now = cand.nodes <= free;
                    let ends_before_shadow = hour + cand.duration_hours as usize <= shadow;
                    let within_extra = cand.nodes <= extra.min(free);
                    if fits_now && (ends_before_shadow || within_extra) {
                        free -= cand.nodes;
                        running.push(Running {
                            end_hour: hour + cand.duration_hours as usize,
                            nodes: cand.nodes,
                        });
                        started += 1;
                        let wait = (hour - cand.submit_hour) as u32;
                        total_wait += wait as u64;
                        max_wait = max_wait.max(wait);
                        queue.remove(i);
                    } else {
                        i += 1;
                    }
                }
            }

            utilization.push((self.nodes - free) as f64 / self.nodes as f64);
        }

        let unstarted = queue.len() + (sorted.len() - next_arrival) + rejected;
        let series = HourlySeries::from_vec(utilization);
        let stats = ClusterStats {
            started_jobs: started,
            unstarted_jobs: unstarted,
            mean_wait_hours: if started > 0 {
                total_wait as f64 / started as f64
            } else {
                0.0
            },
            max_wait_hours: max_wait,
            mean_utilization: series.mean(),
        };
        (series, stats)
    }

    /// Earliest hour at which `needed` nodes will be simultaneously free,
    /// given the current running set.
    fn shadow_time(running: &[Running], mut free: u32, needed: u32, now: usize) -> usize {
        if needed <= free {
            return now;
        }
        let mut ends: Vec<Running> = running.to_vec();
        ends.sort_by_key(|r| r.end_hour);
        for r in ends {
            free += r.nodes;
            if free >= needed {
                return r.end_hour;
            }
        }
        now // unreachable if needed ≤ cluster size
    }

    /// Free nodes at a future hour assuming no new starts.
    fn free_at(&self, running: &[Running], hour: usize) -> u32 {
        let busy: u32 = running
            .iter()
            .filter(|r| r.end_hour > hour)
            .map(|r| r.nodes)
            .sum();
        self.nodes - busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceGenerator};

    fn job(id: u64, submit: usize, nodes: u32, dur: u32) -> Job {
        Job {
            id,
            submit_hour: submit,
            nodes,
            duration_hours: dur,
        }
    }

    #[test]
    fn single_job_runs_for_its_duration() {
        let sim = ClusterSim::new(10).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 5, 5, 3)]);
        assert_eq!(util.get(4), 0.0);
        assert_eq!(util.get(5), 0.5);
        assert_eq!(util.get(7), 0.5);
        assert_eq!(util.get(8), 0.0);
        assert_eq!(stats.started_jobs, 1);
        assert_eq!(stats.unstarted_jobs, 0);
        assert_eq!(stats.mean_wait_hours, 0.0);
    }

    #[test]
    fn fcfs_queues_when_full() {
        let sim = ClusterSim::new(4).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 0, 4, 4), job(1, 0, 4, 2)]);
        assert_eq!(util.get(0), 1.0);
        assert_eq!(util.get(3), 1.0);
        assert_eq!(util.get(4), 1.0); // second job starts at 4
        assert_eq!(util.get(5), 1.0);
        assert_eq!(util.get(6), 0.0);
        assert_eq!(stats.started_jobs, 2);
        assert!((stats.mean_wait_hours - 2.0).abs() < 1e-12); // waits 0 and 4
    }

    #[test]
    fn backfill_slips_a_short_job_ahead() {
        // 4-node cluster: J0 takes all 4 for 4 h. J1 (submitted first)
        // needs 4 nodes → must wait. J2 needs 2 nodes for 2 h... but all
        // nodes are busy until J0 ends, so nothing can backfill before
        // hour 4. Instead test the classic shape: J0 uses 2 nodes,
        // J1 (head) needs 4, J2 (1 node, 2 h) backfills immediately.
        let sim = ClusterSim::new(4).unwrap();
        let (util, stats) = sim.simulate_year(&[
            job(0, 0, 2, 4), // runs 0..4 on 2 nodes
            job(1, 1, 4, 2), // head: needs all 4, shadow = 4
            job(2, 1, 1, 2), // fits now and ends at 3 ≤ 4 → backfills
        ]);
        assert_eq!(stats.started_jobs, 3);
        // Hour 1: J0 (2 nodes) + J2 (1 node) = 3/4 busy.
        assert_eq!(util.get(1), 0.75);
        // Head starts at hour 4 (util 4/4).
        assert_eq!(util.get(4), 1.0);
    }

    #[test]
    fn backfill_never_delays_the_head() {
        // A long backfill candidate that would push the head's start must
        // not start.
        let sim = ClusterSim::new(4).unwrap();
        let (util, _stats) = sim.simulate_year(&[
            job(0, 0, 2, 4),  // 0..4 on 2 nodes
            job(1, 1, 4, 2),  // head, shadow = 4
            job(2, 1, 2, 10), // fits now, but ends at 11 > 4 and uses head nodes
        ]);
        // Hour 1: only J0 runs.
        assert_eq!(util.get(1), 0.5);
        // Head runs at hour 4.
        assert_eq!(util.get(4), 1.0);
        // J2 starts after the head finishes (hour 6).
        assert_eq!(util.get(6), 0.5);
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let sim = ClusterSim::new(4).unwrap();
        let (_, stats) = sim.simulate_year(&[job(0, 0, 8, 2), job(1, 0, 2, 2)]);
        assert_eq!(stats.started_jobs, 1);
        assert_eq!(stats.unstarted_jobs, 1);
    }

    #[test]
    fn generated_trace_reaches_target_utilization() {
        let cfg = TraceConfig {
            cluster_nodes: 512,
            target_utilization: 0.75,
            mean_duration_hours: 8.0,
            mean_width_fraction: 0.03,
            seed: 21,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let sim = ClusterSim::new(512).unwrap();
        let (util, stats) = sim.simulate_year(&jobs);
        assert!(
            (stats.mean_utilization - 0.75).abs() < 0.12,
            "mean utilization {}",
            stats.mean_utilization
        );
        assert!(util.max() <= 1.0 + 1e-12);
        assert!(util.min() >= 0.0);
        // Most jobs start.
        assert!(stats.unstarted_jobs < jobs.len() / 10);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let cfg = TraceConfig {
            cluster_nodes: 64,
            target_utilization: 0.9,
            mean_duration_hours: 4.0,
            mean_width_fraction: 0.1,
            seed: 5,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let (util, _) = ClusterSim::new(64).unwrap().simulate_year(&jobs);
        assert!(util.max() <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_node_cluster_rejected() {
        assert!(ClusterSim::new(0).is_err());
        assert!(ClusterSim::with_backfill(0, false).is_err());
    }

    #[test]
    fn plain_fcfs_wastes_the_backfill_hole() {
        // Same workload as `backfill_slips_a_short_job_ahead`, but FCFS:
        // J2 must wait behind the blocked head.
        let sim = ClusterSim::with_backfill(4, false).unwrap();
        let (util, stats) = sim.simulate_year(&[job(0, 0, 2, 4), job(1, 1, 4, 2), job(2, 1, 1, 2)]);
        // Hour 1: only J0's 2 nodes busy — the hole goes unused.
        assert_eq!(util.get(1), 0.5);
        assert_eq!(stats.started_jobs, 3);
    }

    #[test]
    fn backfill_beats_fcfs_on_utilization() {
        let cfg = TraceConfig {
            cluster_nodes: 256,
            target_utilization: 0.85,
            mean_duration_hours: 8.0,
            mean_width_fraction: 0.08,
            seed: 33,
        };
        let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
        let (_, easy) = ClusterSim::new(256).unwrap().simulate_year(&jobs);
        let (_, fcfs) = ClusterSim::with_backfill(256, false)
            .unwrap()
            .simulate_year(&jobs);
        assert!(
            easy.mean_utilization >= fcfs.mean_utilization,
            "EASY {} vs FCFS {}",
            easy.mean_utilization,
            fcfs.mean_utilization
        );
        // Backfilled jobs see shorter mean waits.
        assert!(easy.mean_wait_hours <= fcfs.mean_wait_hours);
    }
}
