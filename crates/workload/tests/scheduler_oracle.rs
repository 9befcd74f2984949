//! The scheduler oracle: the EASY-backfill implementation the ring
//! scheduler replaced, kept verbatim (a `Vec<Running>` running set, a
//! sorting `shadow_time`, a `free_at` rescan and `VecDeque::remove`).
//! `ClusterSim` must reproduce it bit for bit — utilization and
//! `ClusterStats` — for arbitrary job lists: unsorted submit hours,
//! jobs wider than the cluster or submitted after the year, zero-hour
//! and multi-year durations, backfill on and off. The month-chunked
//! generate-and-schedule path must equal scheduling the whole generated
//! year at once.

use std::collections::VecDeque;

use proptest::prelude::*;
use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};
use thirstyflops_workload::{ClusterSim, ClusterStats, Job, TraceConfig, TraceGenerator};

/// A running job's remaining reservation.
#[derive(Debug, Clone, Copy)]
struct Running {
    end_hour: usize,
    nodes: u32,
}

/// The replaced scheduler.
#[derive(Debug, Clone)]
struct Oracle {
    nodes: u32,
    backfill: bool,
}

impl Oracle {
    /// Runs one year of FCFS + EASY backfill over `jobs` (any order;
    /// sorted internally by submit hour). Returns the hourly busy-node
    /// utilization in `[0, 1]` and summary stats.
    ///
    /// Jobs wider than the cluster are rejected (counted as unstarted).
    pub fn simulate_year(&self, jobs: &[Job]) -> (HourlySeries, ClusterStats) {
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

/// Jobs with `ids` in list order and submit hours in random order, some
/// past the year's end; widths up to twice the cluster, zero included.
fn jobs_from(raw: Vec<(usize, u32, u32)>) -> Vec<Job> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (submit_hour, nodes, duration_hours))| Job {
            id: i as u64,
            submit_hour,
            nodes,
            duration_hours,
        })
        .collect()
}

fn assert_matches_oracle(nodes: u32, backfill: bool, jobs: &[Job]) {
    let (util, stats) = ClusterSim::with_backfill(nodes, backfill)
        .unwrap()
        .simulate_year(jobs);
    let (want_util, want_stats) = Oracle { nodes, backfill }.simulate_year(jobs);
    let bits = |s: &HourlySeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&util), bits(&want_util), "utilization");
    assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Durations 0..=400: the ring is sized from the longest job, and a
    /// zero-hour job holds its nodes for the hour it starts in.
    #[test]
    fn ring_scheduler_matches_the_oracle(
        nodes in 1u32..48,
        backfill in any::<bool>(),
        raw in proptest::collection::vec((0usize..9000, 0u32..96, 0u32..401), 0..400),
    ) {
        let jobs: Vec<Job> = jobs_from(raw)
            .into_iter()
            .map(|j| Job { nodes: j.nodes % (2 * nodes + 1), ..j })
            .collect();
        assert_matches_oracle(nodes, backfill, &jobs);
    }

    /// Short jobs on a busy machine: the backfill window is a few hours
    /// wide, so zero-hour jobs often set the shadow time.
    #[test]
    fn ring_scheduler_matches_the_oracle_on_short_jobs(
        backfill in any::<bool>(),
        raw in proptest::collection::vec((0usize..8760, 0u32..12, 0u32..4), 0..3000),
    ) {
        assert_matches_oracle(8, backfill, &jobs_from(raw));
    }

    /// Generating and scheduling month by month equals scheduling the
    /// generated year in one call, which equals the oracle.
    #[test]
    fn month_chunked_generation_matches_the_whole_year(
        nodes in 8u32..1024, util in 0.3f64..0.95, dur in 1.0f64..16.0,
        width in 0.004f64..0.2, seed in any::<u64>(), backfill in any::<bool>(),
    ) {
        let generator = TraceGenerator::new(TraceConfig {
            cluster_nodes: nodes,
            target_utilization: util,
            mean_duration_hours: dur,
            mean_width_fraction: width,
            seed,
        })
        .unwrap();
        let sim = ClusterSim::with_backfill(nodes, backfill).unwrap();
        let jobs = generator.generate_year();
        let (util, stats) = sim.simulate_generated(&generator);
        let (whole_util, whole_stats) = sim.simulate_year(&jobs);
        prop_assert_eq!(util.values(), whole_util.values());
        prop_assert_eq!(&stats, &whole_stats);
        let (oracle_util, oracle_stats) = Oracle { nodes, backfill }.simulate_year(&jobs);
        prop_assert_eq!(util.values(), oracle_util.values());
        prop_assert_eq!(stats, oracle_stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Jobs longer than the ring (1024 hours) end past its window and
    /// wait off it; reservations still see them in end-hour order.
    #[test]
    fn ring_scheduler_matches_the_oracle_past_the_ring(
        backfill in any::<bool>(),
        raw in proptest::collection::vec((0usize..8760, 1u32..24, 0u32..20_000), 0..200),
    ) {
        assert_matches_oracle(16, backfill, &jobs_from(raw));
    }
}

#[test]
fn zero_hour_jobs_keep_their_shadow_behaviour() {
    // The zero-hour J1 holds the last two nodes for hour 0, so the head
    // J2's shadow time is hour 0 itself; the zero-node J3 backfills on
    // the extra nodes free then, and J2 starts at hour 1.
    let jobs = [
        Job {
            id: 0,
            submit_hour: 0,
            nodes: 2,
            duration_hours: 10,
        },
        Job {
            id: 1,
            submit_hour: 0,
            nodes: 2,
            duration_hours: 0,
        },
        Job {
            id: 2,
            submit_hour: 0,
            nodes: 2,
            duration_hours: 1,
        },
        Job {
            id: 3,
            submit_hour: 0,
            nodes: 0,
            duration_hours: 5,
        },
        Job {
            id: 4,
            submit_hour: 0,
            nodes: 1,
            duration_hours: 3,
        },
    ];
    for backfill in [true, false] {
        assert_matches_oracle(4, backfill, &jobs);
    }
    let (util, stats) = ClusterSim::new(4).unwrap().simulate_year(&jobs);
    assert_eq!(util.get(0), 1.0);
    assert_eq!(util.get(1), 1.0);
    assert_eq!(stats.started_jobs, 5);
}

#[test]
fn an_empty_year_matches_the_oracle() {
    assert_matches_oracle(3, true, &[]);
    assert_eq!(
        ClusterSim::new(3).unwrap().simulate_year(&[]).0.len(),
        HOURS_PER_YEAR
    );
}
