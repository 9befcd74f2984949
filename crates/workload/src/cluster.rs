//! Hour-stepped cluster scheduling simulation: FCFS with EASY backfill.
//!
//! Turns a job trace into the machine-utilization series the paper
//! derives from production job logs. EASY backfill (a reservation for the
//! queue head; later jobs may jump ahead only if they cannot delay that
//! reservation) is the de-facto standard batch policy, so the resulting
//! utilization texture — high steady load with backfill ripples — matches
//! what the M100/Fugaku log studies report.
//!
//! The running set is a ring of node counts indexed by end hour
//! ([`EndRing`]): completing the jobs of an hour is one slot, and the
//! head's reservation (the shadow time and the nodes free at it) is one
//! walk up the ring from the current hour. A year is scheduled one chunk
//! of hours at a time ([`ClusterYear::advance`]), so a generated trace
//! streams through month by month without ever existing as a year-long
//! job list ([`ClusterSim::simulate_generated`]).

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

use thirstyflops_obs::span;
use thirstyflops_obs::Counter;
use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};

use crate::trace::{month_ends, Job, TraceGenerator, MAX_DURATION_HOURS};

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
    /// a trace not already in `(submit_hour, id)` order is sorted into
    /// a copy). Returns the hourly busy-node utilization in `[0, 1]` and
    /// summary stats.
    ///
    /// Jobs wider than the cluster are rejected (counted as unstarted),
    /// as are jobs submitted after the year's last hour.
    pub fn simulate_year(&self, jobs: &[Job]) -> (HourlySeries, ClusterStats) {
        let order = |j: &Job| (j.submit_hour, j.id);
        let sorted: Cow<'_, [Job]> = if jobs.windows(2).all(|w| order(&w[0]) <= order(&w[1])) {
            Cow::Borrowed(jobs)
        } else {
            let mut copy = jobs.to_vec();
            copy.sort_by_key(order);
            Cow::Owned(copy)
        };
        let longest = jobs.iter().map(|j| j.duration_hours).max().unwrap_or(0);
        let mut year = ClusterYear::new(self, longest);
        let mut rest: &[Job] = &sorted;
        for until in month_ends() {
            let arrived = rest.partition_point(|j| j.submit_hour < until);
            year.advance(&rest[..arrived], until);
            rest = &rest[arrived..];
        }
        jobs_simulated().add(rest.len() as u64);
        let (series, mut stats) = year.finish();
        stats.unstarted_jobs += rest.len();
        (series, stats)
    }

    /// Generates `generator`'s year and schedules it one calendar month
    /// at a time: the generator and the scheduler keep their state
    /// across months, so no year-long job list exists. Bit-identical to
    /// `self.simulate_year(&generator.generate_year())`
    /// (`crates/workload/tests/scheduler_oracle.rs`).
    pub fn simulate_generated(&self, generator: &TraceGenerator) -> (HourlySeries, ClusterStats) {
        let mut trace = generator.stream();
        let mut year = ClusterYear::new(self, MAX_DURATION_HOURS);
        let mut jobs = Vec::new();
        for until in month_ends() {
            jobs.clear();
            trace.generate_until(until, &mut jobs);
            year.advance(&jobs, until);
        }
        year.finish()
    }
}

/// The longest job the end-hour ring holds; a reservation walks at most
/// this many slots.
const RING_HOURS: usize = 1024;

/// Nodes held by running jobs, indexed by end hour.
///
/// With the window at `now`, slot `end % len` holds the nodes of the
/// jobs ending at hour `end`, for every `end` in `[now, now + len)`. A
/// job ending past the window — only a duration longer than the ring,
/// which is at most [`RING_HOURS`] long — waits in `beyond` until the
/// window reaches its end hour.
#[derive(Debug)]
struct EndRing {
    slots: Vec<u32>,
    beyond: BTreeMap<usize, u32>,
}

impl EndRing {
    /// A ring whose window holds every job of up to `longest` hours
    /// (capped at [`RING_HOURS`]).
    fn new(longest: u32) -> EndRing {
        let len = (longest as usize).min(RING_HOURS) + 1;
        EndRing {
            slots: vec![0; len],
            beyond: BTreeMap::new(),
        }
    }

    /// Holds `nodes` until `end`, with the window at `now ≤ end`.
    fn hold(&mut self, now: usize, end: usize, nodes: u32) {
        let len = self.slots.len();
        if end - now < len {
            self.slots[end % len] += nodes;
        } else {
            *self.beyond.entry(end).or_insert(0) += nodes;
        }
    }

    /// Empties the slot of the jobs ending at `end`, returning their
    /// nodes.
    fn release(&mut self, end: usize) -> u32 {
        let len = self.slots.len();
        std::mem::take(&mut self.slots[end % len])
    }

    /// Moves the window from `[now, now + len)` to one hour later; the
    /// slot of `now` must be empty.
    fn slide(&mut self, now: usize) {
        let len = self.slots.len();
        if let Some(nodes) = self.beyond.remove(&(now + len)) {
            self.slots[now % len] = nodes;
        }
    }

    /// The queue head's reservation at hour `now`: the earliest end hour
    /// by which `needed` nodes are free (the shadow time), and the nodes
    /// free then, counting every job that ends by it. One walk up the
    /// ring from `now`.
    fn reservation(&self, now: usize, mut free: u32, needed: u32) -> (usize, u32) {
        let split = now % self.slots.len();
        let ring = self.slots[split..].iter().chain(&self.slots[..split]);
        let ends = (now..).zip(ring.copied());
        for (end, nodes) in ends.chain(self.beyond.iter().map(|(&end, &nodes)| (end, nodes))) {
            free += nodes;
            if free >= needed {
                return (end, free);
            }
        }
        unreachable!("a queued job fits the whole cluster")
    }
}

/// The nodes of a cluster mid-year: the free count, the running jobs'
/// end-hour ring, and the accounting of every job started so far.
#[derive(Debug)]
struct Machine {
    free: u32,
    ends: EndRing,
    started: usize,
    total_wait: u64,
    max_wait: u32,
}

impl Machine {
    fn start(&mut self, job: &Job, hour: usize) {
        self.free -= job.nodes;
        self.ends
            .hold(hour, hour + job.duration_hours as usize, job.nodes);
        self.started += 1;
        let wait = (hour - job.submit_hour) as u32;
        self.total_wait += wait as u64;
        self.max_wait = self.max_wait.max(wait);
    }
}

/// One cluster year being scheduled, hour by hour, in chunks: the queue
/// and the machine carry over from one [`ClusterYear::advance`] to the
/// next.
#[derive(Debug)]
struct ClusterYear {
    nodes: u32,
    backfill: bool,
    hour: usize,
    queue: VecDeque<Job>,
    machine: Machine,
    rejected: usize,
    utilization: Vec<f64>,
}

impl ClusterYear {
    /// An empty machine at hour 0, its ring sized for jobs of up to
    /// `longest` hours (longer ones stay exact, just off the ring).
    fn new(sim: &ClusterSim, longest: u32) -> ClusterYear {
        ClusterYear {
            nodes: sim.nodes,
            backfill: sim.backfill,
            hour: 0,
            queue: VecDeque::new(),
            machine: Machine {
                free: sim.nodes,
                ends: EndRing::new(longest),
                started: 0,
                total_wait: 0,
                max_wait: 0,
            },
            rejected: 0,
            utilization: Vec::with_capacity(HOURS_PER_YEAR),
        }
    }

    /// Schedules every hour before `until`. `arrivals` are the jobs
    /// submitted in those hours, in `(submit_hour, id)` order.
    fn advance(&mut self, arrivals: &[Job], until: usize) {
        let _span = span::span(span::CLUSTER_SIM);
        jobs_simulated().add(arrivals.len() as u64);
        let mut arrivals = arrivals.iter().peekable();
        while self.hour < until {
            let hour = self.hour;
            // Complete jobs.
            self.machine.free += self.machine.ends.release(hour);

            // Accept arrivals.
            while let Some(j) = arrivals.next_if(|j| j.submit_hour <= hour) {
                if j.nodes > self.nodes {
                    self.rejected += 1;
                } else {
                    self.queue.push_back(*j);
                }
            }

            // FCFS head starts.
            while let Some(head) = self.queue.front() {
                if head.nodes > self.machine.free {
                    break;
                }
                self.machine.start(head, hour);
                self.queue.pop_front();
            }

            if self.backfill {
                self.backfill(hour);
            }
            self.utilization
                .push((self.nodes - self.machine.free) as f64 / self.nodes as f64);

            // Zero-hour jobs started this hour end with it.
            self.machine.free += self.machine.ends.release(hour);
            self.machine.ends.slide(hour);
            self.hour += 1;
        }
        debug_assert!(
            arrivals.next().is_none(),
            "an arrival submitted at or after `until`"
        );
    }

    /// EASY backfill: reserve the earliest feasible start for the
    /// blocked head, then let later jobs run if they cannot delay it.
    fn backfill(&mut self, hour: usize) {
        let Some(head) = self.queue.front() else {
            return;
        };
        let (shadow, free_at_shadow) =
            self.machine
                .ends
                .reservation(hour, self.machine.free, head.nodes);
        // Nodes free at shadow time beyond what the head needs ("extra"
        // nodes a long backfill job may hold).
        let extra = free_at_shadow.saturating_sub(head.nodes);
        let machine = &mut self.machine;
        let mut is_head = true;
        self.queue.retain(|cand| {
            if std::mem::take(&mut is_head) {
                return true;
            }
            let fits_now = cand.nodes <= machine.free;
            let ends_before_shadow = hour + cand.duration_hours as usize <= shadow;
            let within_extra = cand.nodes <= extra.min(machine.free);
            let starts = fits_now && (ends_before_shadow || within_extra);
            if starts {
                machine.start(cand, hour);
            }
            !starts
        });
    }

    /// The utilization series and stats of a fully scheduled year.
    fn finish(self) -> (HourlySeries, ClusterStats) {
        assert_eq!(self.hour, HOURS_PER_YEAR, "a year is scheduled in full");
        let Machine {
            started,
            total_wait,
            max_wait,
            ..
        } = self.machine;
        let series = HourlySeries::from_vec(self.utilization);
        let stats = ClusterStats {
            started_jobs: started,
            unstarted_jobs: self.queue.len() + self.rejected,
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
