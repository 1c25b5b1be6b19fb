//! The labelled result table an experiment produces.

use super::CellKey;
use crate::config::SimConfig;
use crate::engine::SimOutput;
use dmhpc_metrics::export;
use dmhpc_metrics::json::Json;

/// The resolution at which a cached cell keeps each step series: the
/// number of points the time-series tables (F2, F7) print.
pub const SUMMARY_POINTS: usize = 25;

/// One executed grid cell: its coordinates, the exact configuration that
/// ran, and what the simulation produced.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Where this cell sits in the grid.
    pub key: CellKey,
    /// The configuration that ran.
    pub config: SimConfig,
    /// The simulation output. A simulated cell carries all of it. A cell
    /// loaded from the result cache carries its summary: the report,
    /// counters, trace hash and fault/service summaries are exact,
    /// `records` is empty, and each step series is rebuilt from its
    /// [`SUMMARY_POINTS`]-point resample, so `*_series(end_time,
    /// SUMMARY_POINTS)` matches the simulated output bit for bit. Every
    /// other view of a warm cell's series — `node_util`, `pool_util`,
    /// `dram_util`, `queue_depth_mean`, `queue_depth_max`, `points()`, or
    /// a resample at any other resolution — is an approximation built
    /// from those samples; read the exact values from `report`. A caller
    /// that wants records or full series runs without a cache, which is
    /// exact because the cell hash determines the output.
    pub output: SimOutput,
    pub(super) slo_attainment: Option<f64>,
}

impl CellResult {
    /// This cell's SLO attainment, when it has a service objective:
    ///
    /// * open service cells report the sketch-measured fraction of jobs
    ///   whose wait met the run's wait target;
    /// * closed batch cells derive it from per-job records — the fraction
    ///   of [`dmhpc_workload::Slo`]-stamped jobs that started by their
    ///   deadline.
    ///
    /// Never-started stamped jobs — admission rejections, terminal
    /// failures, jobs still mid-resubmission at drain — count as misses,
    /// not as unmeasured: an admission policy must not be able to raise
    /// its attainment by rejecting the jobs it would have missed. (A
    /// fault-resubmitted job that *did* start is judged by its final
    /// attempt's start, the one its record carries.)
    ///
    /// The value is computed once, when the cell is simulated, and stored
    /// with the cell's cache entry, so a warm cell reports it without
    /// records. `None` when nothing in the cell carries a deadline, so
    /// SLO-free grids report exactly what they did before deadlines
    /// existed.
    pub fn slo_attainment(&self) -> Option<f64> {
        self.slo_attainment
    }
}

/// [`CellResult::slo_attainment`] of a simulated cell. Never-started
/// stamped jobs miss through the `r.start.is_some_and(..)` below, pinned
/// by `never_started_stamped_jobs_count_as_misses`.
pub(super) fn slo_attainment(output: &SimOutput) -> Option<f64> {
    if let Some(svc) = &output.service {
        return svc.slo_attained;
    }
    let mut met = 0u64;
    let mut total = 0u64;
    for r in &output.records {
        let Some(slo) = r.job.slo else { continue };
        let deadline = slo.deadline_for(r.job.arrival, r.job.walltime);
        total += 1;
        if r.start.is_some_and(|s| s <= deadline) {
            met += 1;
        }
    }
    (total > 0).then(|| met as f64 / total as f64)
}

/// How a result table was produced: how many cells were simulated versus
/// loaded from the result cache (see [`super::ExperimentRunner::cache_dir`]).
/// A warm re-run of an unchanged spec reports `simulated == 0` — the
/// property the CI grid smoke asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells executed by the simulator this run.
    pub simulated: usize,
    /// Cells loaded from the result cache.
    pub cache_hits: usize,
    /// Simulated cells that observers watch: all but fleet cells, which
    /// run observation-free.
    pub observable: usize,
}

/// Results for a whole experiment, in grid order.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// The experiment's name (from the spec).
    pub name: String,
    cells: Vec<CellResult>,
    stats: RunStats,
}

impl ExperimentResults {
    pub(super) fn with_stats(name: String, cells: Vec<CellResult>, stats: RunStats) -> Self {
        ExperimentResults { name, cells, stats }
    }

    /// Simulated-vs-cached provenance of this table.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Consume the table into its cells (grid order), e.g. for merging.
    pub fn into_cells(self) -> Vec<CellResult> {
        self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All cells, in grid order (clusters outermost, schedulers innermost).
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Cells whose key satisfies `pred`, in grid order.
    pub fn select(&self, pred: impl Fn(&CellKey) -> bool) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| pred(&c.key)).collect()
    }

    /// The first cell at these coordinates, if any (grids with a fault
    /// axis have one cell per scenario at each point — use
    /// [`select`](ExperimentResults::select) with `key.fault` to pick
    /// among them).
    pub fn get(
        &self,
        cluster: &str,
        load: Option<f64>,
        seed: Option<u64>,
        scheduler: &str,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.key.cluster == cluster
                && c.key.load == load
                && c.key.seed == seed
                && c.key.scheduler == scheduler
        })
    }

    /// CSV document: one row per cell, grid axes as leading columns, then
    /// the full report column set from
    /// [`dmhpc_metrics::export::REPORT_CSV_HEADER`].
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(256 * (self.cells.len() + 1));
        out.push_str("experiment,cluster,load,seed,fault,service,fleet,");
        out.push_str(export::REPORT_CSV_HEADER);
        out.push_str(",preempted,slo_attainment\n");
        for c in &self.cells {
            let load = c.key.load.map(|l| format!("{l}")).unwrap_or_default();
            let seed = c.key.seed.map(|s| s.to_string()).unwrap_or_default();
            let fault = c.key.fault.as_deref().unwrap_or_default();
            let service = c.key.service.as_deref().unwrap_or_default();
            let fleet = c.key.fleet.as_deref().unwrap_or_default();
            let slo = c
                .slo_attainment()
                .map(|a| format!("{a}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                export::sanitize(&self.name),
                export::sanitize(&c.key.cluster),
                load,
                seed,
                export::sanitize(fault),
                export::sanitize(service),
                export::sanitize(fleet),
                export::report_csv_row(&c.output.report),
                c.output.preemptions,
                slo
            ));
        }
        out
    }

    /// Pretty JSON document: experiment name plus one object per cell with
    /// its axes, trace hash, and the full report.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    ("cluster", Json::Str(c.key.cluster.clone())),
                    ("load", c.key.load.map(Json::F64).unwrap_or(Json::Null)),
                    ("seed", c.key.seed.map(Json::UInt).unwrap_or(Json::Null)),
                    (
                        "fault",
                        c.key.fault.clone().map(Json::Str).unwrap_or(Json::Null),
                    ),
                    (
                        "service",
                        c.key.service.clone().map(Json::Str).unwrap_or(Json::Null),
                    ),
                    (
                        "fleet",
                        c.key.fleet.clone().map(Json::Str).unwrap_or(Json::Null),
                    ),
                    ("scheduler", Json::Str(c.key.scheduler.clone())),
                    ("trace_hash", Json::UInt(c.output.trace_hash)),
                ];
                // Keys present only for cells where the feature fired:
                // SLO-free, preemption-free grids serialize byte-identically
                // to the documents they produced before either existed.
                if c.output.preemptions > 0 {
                    pairs.push(("preempted", Json::UInt(c.output.preemptions)));
                }
                if let Some(a) = c.slo_attainment() {
                    pairs.push(("slo_attainment", Json::F64(a)));
                }
                pairs.push(("report", export::report_to_value(&c.output.report)));
                Json::obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::Str(self.name.clone())),
            ("cells", Json::Arr(cells)),
        ])
        .to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use crate::scenarios::default_slowdown;
    use crate::{ExperimentRunner, ExperimentSpec};
    use dmhpc_platform::PoolTopology;
    use dmhpc_sched::{MemoryPolicy, SchedulerBuilder};
    use dmhpc_workload::SystemPreset;

    fn results() -> crate::ExperimentResults {
        let spec = ExperimentSpec::builder("table-test")
            .preset(SystemPreset::HighThroughput, 40)
            .pool(PoolTopology::PerRack {
                mib_per_rack: 384 * 1024,
            })
            .loads([0.7, 0.9])
            .seed(3)
            .scheduler(SchedulerBuilder::new().slowdown(default_slowdown()).build())
            .scheduler(
                SchedulerBuilder::new()
                    .memory(MemoryPolicy::PoolBestFit)
                    .slowdown(default_slowdown())
                    .build(),
            )
            .build()
            .unwrap();
        ExperimentRunner::with_threads(1).run(&spec).unwrap()
    }

    #[test]
    fn csv_has_axis_columns_and_uniform_arity() {
        let r = results();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + r.len());
        assert!(lines[0].starts_with("experiment,cluster,load,seed,fault,service,fleet,label,"));
        assert!(lines[0].ends_with(",slo_attainment"));
        let arity = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), arity);
            assert!(line.starts_with("table-test,rack-384gib,"));
            // No deadlines anywhere in this grid: the trailing attainment
            // field stays empty and the JSON key is absent entirely.
            assert!(line.ends_with(','));
        }
        assert!(!r.to_json().contains("slo_attainment"));
        for c in r.cells() {
            assert_eq!(c.slo_attainment(), None);
        }
    }

    #[test]
    fn closed_cells_report_deadline_attainment() {
        use dmhpc_platform::{ClusterSpec, NodeSpec};
        use dmhpc_workload::{JobBuilder, Slo, Workload};

        // Two single-node jobs on a one-node machine: job 1 runs [0, 100)
        // and trivially meets its generous deadline; job 2 (arrival 0,
        // start 100) has a 50 s start deadline it cannot make.
        let jobs = vec![
            JobBuilder::new(1)
                .nodes(1)
                .runtime_secs(100, 100)
                .mem_per_node(100)
                .slo(Slo::Deadline { deadline_s: 1000.0 })
                .build(),
            JobBuilder::new(2)
                .nodes(1)
                .runtime_secs(100, 100)
                .mem_per_node(100)
                .slo(Slo::Deadline { deadline_s: 50.0 })
                .build(),
        ];
        let spec = ExperimentSpec::builder("slo-table")
            .fixed_workload(Workload::from_jobs(jobs))
            .cluster(
                "one",
                ClusterSpec::new(1, 1, NodeSpec::new(4, 1024), PoolTopology::None),
            )
            .scheduler(SchedulerBuilder::new().slowdown(default_slowdown()).build())
            .build()
            .unwrap();
        // Cold, then warm: the attainment is computed from the records
        // once and must survive a replay that carries no records.
        let dir = std::env::temp_dir().join(format!("dmhpc-slo-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = ExperimentRunner::with_threads(1).cache_dir(&dir).unwrap();
        let cold = runner.run(&spec).unwrap();
        let warm = runner.run(&spec).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(warm.stats().cache_hits, 1);
        assert!(warm.cells()[0].output.records.is_empty());
        for r in [&cold, &warm] {
            assert_eq!(r.len(), 1);
            assert_eq!(r.cells()[0].slo_attainment(), Some(0.5));
            let csv = r.to_csv();
            let row = csv.trim_end().lines().last().unwrap();
            assert!(row.ends_with(",0.5"), "{row}");
            assert!(r.to_json().contains("\"slo_attainment\": 0.5"));
        }
    }

    /// Satellite pin: never-started stamped jobs are misses, not
    /// unmeasured. An admission policy that rejects the jobs it would
    /// miss must not thereby report higher attainment; a terminally
    /// failed stamped job counts the same way; a fault-resubmitted job
    /// that did start is judged by its final attempt's start.
    #[test]
    fn never_started_stamped_jobs_count_as_misses() {
        use dmhpc_metrics::{JobOutcome, JobRecord};
        use dmhpc_workload::{JobBuilder, Slo};

        let stamped = |id: u64| {
            JobBuilder::new(id)
                .nodes(1)
                .runtime_secs(100, 100)
                .mem_per_node(100)
                .slo(Slo::Deadline { deadline_s: 500.0 })
                .build()
        };
        let mut output = results().into_cells().remove(0).output;
        let started = |id: u64, start_s: u64, outcome: JobOutcome| JobRecord {
            job: stamped(id),
            outcome,
            start: Some(dmhpc_des::time::SimTime::from_secs(start_s)),
            finish: Some(dmhpc_des::time::SimTime::from_secs(start_s + 100)),
            nodes_allocated: 1,
            remote_per_node: 0,
            dilation_planned: 1.0,
            dilation_actual: 1.0,
        };
        output.records = vec![
            // Met: completed, started inside the deadline.
            started(1, 100, JobOutcome::Completed),
            // Miss: admission-rejected, never started.
            JobRecord::rejected(stamped(2)),
            // Miss: terminally failed without ever starting.
            JobRecord::failed_unstarted(stamped(3)),
            // Met: fault-resubmitted job whose *final* attempt started in
            // time (the record carries the last attempt's start), even
            // though the attempt itself then failed.
            started(4, 200, JobOutcome::Failed),
            // Miss: started, but only after the deadline passed.
            started(5, 900, JobOutcome::Completed),
        ];
        assert_eq!(super::slo_attainment(&output), Some(0.4));
    }

    #[test]
    fn json_parses_back_and_carries_axes() {
        let r = results();
        let doc = dmhpc_metrics::json::parse(&r.to_json()).unwrap();
        assert_eq!(
            doc.expect_key("experiment").unwrap().as_str(),
            Some("table-test")
        );
        let cells = doc.expect_key("cells").unwrap().to_arr().unwrap();
        assert_eq!(cells.len(), r.len());
        assert_eq!(cells[0].expect_key("seed").unwrap().as_u64(), Some(3));
        assert!(cells[0]
            .expect_key("trace_hash")
            .unwrap()
            .as_u64()
            .is_some());
    }

    #[test]
    fn select_and_get() {
        let r = results();
        let bf = r.select(|k| k.scheduler.contains("pool-bf"));
        assert_eq!(bf.len(), 2);
        let cell = r
            .get(
                "rack-384gib",
                Some(0.9),
                Some(3),
                "fcfs+easy+pool-bf+sat1.5k3",
            )
            .unwrap();
        assert_eq!(cell.key.load, Some(0.9));
        assert!(r
            .get(
                "rack-384gib",
                Some(0.8),
                Some(3),
                "fcfs+easy+pool-bf+sat1.5k3"
            )
            .is_none());
    }
}
