//! Whole-run reports — the object every experiment prints.

use crate::classes::{ClassBreakdown, ClassThresholds};
use crate::fairness::{jain_index, per_user_mean_waits};
use crate::jobstats::{JobOutcome, JobRecord};
use dmhpc_des::stats::{CdfCollector, OnlineStats};

/// Fault/availability counters a run accumulates — all zero (and
/// `avail_util == node_util`) for fault-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Times a running job was interrupted (node failure, drain start, or
    /// pool-degradation eviction).
    pub interruptions: u64,
    /// Interruptions that led to a resubmission (the rest failed
    /// terminally).
    pub resubmissions: u64,
    /// Seconds of work thrown away by interruptions. Under
    /// resubmit-from-scratch this is the aborted attempts' wall-clock
    /// time; under checkpoint/restart it is the configured restore
    /// overhead in work seconds (the restore itself dilates with the
    /// restarted placement, so its realized wall cost can be higher).
    pub rework_s: f64,
    /// Node-seconds of capacity lost to downtime (Down/Draining nodes).
    pub downtime_node_s: f64,
    /// Availability-weighted node utilization: busy node-seconds over
    /// *in-service* node-seconds. Equals plain `node_util` when no
    /// downtime occurred; higher than it otherwise (the machine that
    /// remained was busier than the raw denominator suggests).
    pub avail_util: f64,
}

/// Raw inputs a simulation run hands to report computation. System-level
/// utilizations are computed by the engine's collector (it owns the
/// time-weighted series); everything job-derived is computed here.
#[derive(Debug, Clone)]
pub struct RunData {
    /// Run label (policy triple, scenario id…).
    pub label: String,
    /// Per-job outcomes.
    pub records: Vec<JobRecord>,
    /// Simulated span from first arrival to last finish, seconds.
    pub makespan_s: f64,
    /// Time-weighted fraction of nodes busy.
    pub node_util: f64,
    /// Time-weighted fraction of pool capacity in use (0 without pools).
    pub pool_util: f64,
    /// Time-weighted fraction of node DRAM pinned by jobs.
    pub dram_util: f64,
    /// Time-weighted mean queue depth.
    pub queue_depth_mean: f64,
    /// Maximum queue depth.
    pub queue_depth_max: f64,
    /// Fault/availability counters ([`FaultSummary::default`] when the run
    /// had no fault scenario).
    pub faults: FaultSummary,
}

/// The headline metrics of one run (one row of reproduction table T2).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Run label.
    pub label: String,
    /// Completed job count.
    pub completed: usize,
    /// Jobs killed at their walltime limit.
    pub killed: usize,
    /// Jobs rejected as unrunnable.
    pub rejected: usize,
    /// Jobs terminally failed by a fault scenario (0 for fault-free runs).
    pub failed: usize,
    /// Running-job interruptions by node failures, drains, and pool
    /// degradations (0 for fault-free runs).
    pub interruptions: u64,
    /// Wall-clock seconds of work lost and redone due to interruptions.
    pub rework_s: f64,
    /// Availability-weighted node utilization (== `node_util` without
    /// downtime).
    pub avail_util: f64,
    /// Mean wait, seconds.
    pub mean_wait_s: f64,
    /// Median wait, seconds.
    pub p50_wait_s: f64,
    /// 95th-percentile wait, seconds.
    pub p95_wait_s: f64,
    /// Maximum wait, seconds.
    pub max_wait_s: f64,
    /// Mean bounded slowdown.
    pub mean_bsld: f64,
    /// 95th-percentile bounded slowdown.
    pub p95_bsld: f64,
    /// Mean turnaround, seconds.
    pub mean_turnaround_s: f64,
    /// Makespan, hours.
    pub makespan_h: f64,
    /// Completed jobs per simulated day.
    pub throughput_jobs_per_day: f64,
    /// Time-weighted node utilization.
    pub node_util: f64,
    /// Time-weighted pool utilization.
    pub pool_util: f64,
    /// Time-weighted DRAM utilization.
    pub dram_util: f64,
    /// Time-weighted mean queue depth.
    pub queue_depth_mean: f64,
    /// Peak queue depth.
    pub queue_depth_max: f64,
    /// Fraction of ran jobs that borrowed pool memory.
    pub borrowed_fraction: f64,
    /// Mean far-memory fraction among borrowers.
    pub mean_far_fraction: f64,
    /// Mean actual dilation among borrowers.
    pub mean_dilation_borrowers: f64,
    /// Fraction of ran jobs that were node-inflated.
    pub inflated_fraction: f64,
    /// Node-hours wasted by inflation.
    pub inflation_overhead_node_h: f64,
    /// Jain fairness over per-user mean waits.
    pub user_fairness: f64,
    /// Per-class breakdown (F8).
    pub classes: ClassBreakdown,
}

impl SimReport {
    /// Compute the report.
    pub fn compute(data: &RunData, thresholds: &ClassThresholds) -> Self {
        let mut wait = OnlineStats::new();
        let mut wait_cdf = CdfCollector::with_capacity(data.records.len());
        let mut bsld = OnlineStats::new();
        let mut bsld_cdf = CdfCollector::with_capacity(data.records.len());
        let mut turnaround = OnlineStats::new();
        let mut completed = 0usize;
        let mut killed = 0usize;
        let mut rejected = 0usize;
        let mut failed = 0usize;
        let mut ran = 0usize;
        let mut borrowed = 0usize;
        let mut far = OnlineStats::new();
        let mut dil = OnlineStats::new();
        let mut inflated = 0usize;
        let mut inflation_ns = 0.0f64;

        for r in &data.records {
            match r.outcome {
                JobOutcome::Completed => completed += 1,
                JobOutcome::Killed => killed += 1,
                JobOutcome::Rejected => {
                    rejected += 1;
                    continue;
                }
                JobOutcome::Failed => {
                    failed += 1;
                    // Unstarted terminal failures have no wait/residence.
                    if r.start.is_none() {
                        continue;
                    }
                }
            }
            ran += 1;
            if let Some(w) = r.wait() {
                wait.push(w.as_secs_f64());
                wait_cdf.push(w.as_secs_f64());
            }
            if let Some(b) = r.bounded_slowdown() {
                bsld.push(b);
                bsld_cdf.push(b);
            }
            if let Some(t) = r.turnaround() {
                turnaround.push(t.as_secs_f64());
            }
            if r.borrowed_pool() {
                borrowed += 1;
                far.push(r.far_fraction());
                dil.push(r.dilation_actual);
            }
            if r.inflated() {
                inflated += 1;
                inflation_ns += r.inflation_overhead_node_secs();
            }
        }

        let days = data.makespan_s / 86_400.0;
        SimReport {
            label: data.label.clone(),
            completed,
            killed,
            rejected,
            failed,
            interruptions: data.faults.interruptions,
            rework_s: data.faults.rework_s,
            avail_util: data.faults.avail_util,
            mean_wait_s: wait.mean(),
            p50_wait_s: wait_cdf.quantile(0.5),
            p95_wait_s: wait_cdf.quantile(0.95),
            max_wait_s: wait.max().max(0.0),
            mean_bsld: bsld.mean(),
            p95_bsld: bsld_cdf.quantile(0.95),
            mean_turnaround_s: turnaround.mean(),
            makespan_h: data.makespan_s / 3600.0,
            throughput_jobs_per_day: if days > 0.0 {
                completed as f64 / days
            } else {
                0.0
            },
            node_util: data.node_util,
            pool_util: data.pool_util,
            dram_util: data.dram_util,
            queue_depth_mean: data.queue_depth_mean,
            queue_depth_max: data.queue_depth_max,
            borrowed_fraction: frac(borrowed, ran),
            mean_far_fraction: far.mean(),
            mean_dilation_borrowers: dil.mean(),
            inflated_fraction: frac(inflated, ran),
            inflation_overhead_node_h: inflation_ns / 3600.0,
            user_fairness: jain_index(&per_user_mean_waits(&data.records)),
            classes: ClassBreakdown::compute(&data.records, thresholds),
        }
    }
}

fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_des::time::SimTime;
    use dmhpc_workload::JobBuilder;

    fn rec(id: u64, arrival: u64, start: u64, finish: u64) -> JobRecord {
        JobRecord {
            job: JobBuilder::new(id)
                .arrival_secs(arrival)
                .runtime_secs(finish - start, 2 * (finish - start))
                .build(),
            outcome: JobOutcome::Completed,
            start: Some(SimTime::from_secs(start)),
            finish: Some(SimTime::from_secs(finish)),
            nodes_allocated: 1,
            remote_per_node: 0,
            dilation_planned: 1.0,
            dilation_actual: 1.0,
        }
    }

    fn data(records: Vec<JobRecord>) -> RunData {
        RunData {
            label: "test".into(),
            records,
            makespan_s: 86_400.0,
            node_util: 0.8,
            pool_util: 0.3,
            dram_util: 0.4,
            queue_depth_mean: 2.5,
            queue_depth_max: 10.0,
            faults: FaultSummary {
                avail_util: 0.8,
                ..FaultSummary::default()
            },
        }
    }

    #[test]
    fn report_aggregates() {
        let mut records = vec![
            rec(1, 0, 100, 1100), // wait 100
            rec(2, 0, 300, 1300), // wait 300
        ];
        records.push(JobRecord::rejected(JobBuilder::new(3).build()));
        let mut killed = rec(4, 0, 0, 500);
        killed.outcome = JobOutcome::Killed;
        records.push(killed);

        let mut failed = rec(5, 0, 0, 400);
        failed.outcome = JobOutcome::Failed;
        records.push(failed);
        records.push(JobRecord::failed_unstarted(JobBuilder::new(6).build()));

        let r = SimReport::compute(&data(records), &ClassThresholds::standard(1024));
        assert_eq!(r.completed, 2);
        assert_eq!(r.killed, 1);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.failed, 2, "ran-then-failed plus never-started");
        assert_eq!(r.avail_util, 0.8);
        // Waits: 100, 300, 0 (killed), 0 (ran-then-failed) → mean 100.
        assert!((r.mean_wait_s - 100.0).abs() < 1e-9);
        assert_eq!(r.max_wait_s, 300.0);
        assert!((r.throughput_jobs_per_day - 2.0).abs() < 1e-9);
        assert_eq!(r.node_util, 0.8);
        assert_eq!(r.borrowed_fraction, 0.0);
        assert_eq!(r.user_fairness, 1.0, "single user");
    }

    #[test]
    fn borrower_stats() {
        let mut a = rec(1, 0, 0, 100);
        a.job = JobBuilder::new(1)
            .nodes(1)
            .mem_per_node(1000)
            .runtime_secs(100, 200)
            .build();
        a.remote_per_node = 500;
        a.dilation_actual = 1.2;
        let b = rec(2, 0, 0, 100);
        let r = SimReport::compute(&data(vec![a, b]), &ClassThresholds::standard(1024));
        assert!((r.borrowed_fraction - 0.5).abs() < 1e-12);
        assert!((r.mean_far_fraction - 0.5).abs() < 1e-12);
        assert!((r.mean_dilation_borrowers - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_run() {
        let r = SimReport::compute(&data(vec![]), &ClassThresholds::standard(1024));
        assert_eq!(r.completed, 0);
        assert_eq!(r.mean_wait_s, 0.0);
        assert_eq!(r.p95_bsld, 0.0);
    }

    #[test]
    fn report_serializes() {
        let r = SimReport::compute(
            &data(vec![rec(1, 0, 10, 110)]),
            &ClassThresholds::standard(1024),
        );
        let json = crate::export::report_to_value(&r).to_string_pretty();
        assert!(json.contains("\"label\": \"test\""));
        assert!(json.contains("mean_wait_s"));
    }
}
