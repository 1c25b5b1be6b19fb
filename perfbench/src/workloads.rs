//! The four reference workloads and their end-to-end measurement.
//!
//! Every workload is an `ExperimentSpec` grid built from a seed: one cell
//! for `closed-easy`, `service-open` and `fleet-4site`, four for
//! `grid-conservative`. A run measures a sequence of *instances* — the
//! same spec under instance seeds derived from `--seed` — until its time
//! is up, and reports medians over them: queueing cost varies strongly
//! from one generated job stream to the next, so a single stream per run
//! would make the benchmark's figures depend on the seed more than on the
//! code.

use crate::stats::{median, peak_rss_mib, secs, Checks, Report};
use dmhpc_platform::{PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, MetaPolicyKind, OrderPolicy, SchedulerBuilder,
    SchedulerConfig,
};
use dmhpc_sim::{
    ExperimentResults, ExperimentRunner, ExperimentSpec, FleetSimulation, FleetSpec,
    ObserverFactory, RunSpec, ServiceSpec, SimError, SimOutput, Simulation,
};
use dmhpc_workload::{transform, SystemPreset, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The seed the trace-hash pins below were captured at.
pub const DEFAULT_SEED: u64 = 1;

/// Instances measured at least, however short the run.
const MIN_INSTANCES: u64 = 3;

/// Every workload runs the HighThroughput preset's job mix and machine.
const PRESET: SystemPreset = SystemPreset::HighThroughput;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClosedEasy,
    GridConservative,
    ServiceOpen,
    Fleet4Site,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ClosedEasy,
        Kind::GridConservative,
        Kind::ServiceOpen,
        Kind::Fleet4Site,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedEasy => "closed-easy",
            Kind::GridConservative => "grid-conservative",
            Kind::ServiceOpen => "service-open",
            Kind::Fleet4Site => "fleet-4site",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Jobs per instance (per grid cell for `grid-conservative`). Sizes
    /// trade instance length against instance count: the cost of one
    /// instance varies with its job stream (coefficient of variation
    /// ~0.4 for `service-open` and ~0.6 for the conservative grid at any
    /// size tried), so those two use short instances and many of them.
    /// The conservative grid is small also because its pass cost grows
    /// faster than the job count: at native load a 1,000-job cell costs
    /// ~5× a 700-job one.
    pub fn jobs(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Kind::ClosedEasy, false) => 10_000,
            (Kind::GridConservative, false) => 600,
            (Kind::ServiceOpen, false) => 1_000,
            (Kind::Fleet4Site, false) => 8_000,
            (Kind::GridConservative, true) => 120,
            (_, true) => 400,
        }
    }

    /// Combined trace hash of instance 0 at [`DEFAULT_SEED`], full size.
    fn pinned_hash(self) -> u64 {
        match self {
            Kind::ClosedEasy => 0x7edc_1c4d_5592_3211,
            Kind::GridConservative => 0x0acc_4265_5428_8a93,
            Kind::ServiceOpen => 0x16fe_79b8_4d42_6d47,
            Kind::Fleet4Site => 0xa7ce_da11_67df_86bc,
        }
    }

    /// One-line description of the workload's parameters at full size.
    pub fn describe(self) -> String {
        let n = self.jobs(false);
        match self {
            Kind::ClosedEasy => format!(
                "closed batch of {n} HighThroughput jobs at native load, PerRack 384 GiB pools, \
                 fcfs+easy+pool-bf, contention(1.5, 1.0), heap queue"
            ),
            Kind::GridConservative => format!(
                "ExperimentRunner grid, 4 cells of {n} jobs: conservative x {{pool-bf, \
                 slowdown-aware 1.35}} x 2 seeds at native load; cold pass into a fresh cache"
            ),
            Kind::ServiceOpen => format!(
                "open service run, horizon {n} jobs, utilization 0.85, budget factors \
                 [1.5, 4.0], warmup 3600 s, edf+easy+laxity-aware 1.4+reject-infeasible, sketch"
            ),
            Kind::Fleet4Site => format!(
                "4-site fleet, {n} jobs rescaled to fleet load 0.9, least-queue routing, \
                 300 s epochs, workers = nproc"
            ),
        }
    }
}

/// Everything a run is told on the command line, plus host facts.
#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Worker threads for the grid runner and the fleet (= `nproc`).
    pub threads: usize,
    /// Scratch space for caches and traces, inside the benchmark's
    /// directory.
    pub out_dir: PathBuf,
}

impl Config {
    pub fn jobs(&self) -> usize {
        self.kind.jobs(self.smoke)
    }

    /// The seed of instance `i`: distinct across instances and across
    /// `--seed` values.
    pub fn instance_seed(&self, i: u64) -> u64 {
        self.seed.wrapping_mul(100_003).wrapping_add(i)
    }

    /// A path in the scratch directory no other run or thread uses.
    pub fn unique(&self, name: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        self.out_dir.join(format!(
            "{name}-{}-{}-{}",
            self.kind.name(),
            std::process::id(),
            NEXT.fetch_add(1, Relaxed)
        ))
    }

    /// A fresh, empty scratch directory.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, SimError> {
        let dir = self.unique(name);
        std::fs::create_dir_all(&dir).map_err(|e| SimError::spec(format!("scratch dir: {e}")))?;
        Ok(dir)
    }
}

fn pool() -> PoolTopology {
    PoolTopology::PerRack {
        mib_per_rack: 384 * 1024,
    }
}

fn contention() -> SlowdownModel {
    SlowdownModel::Contention {
        penalty: 1.5,
        gamma: 1.0,
    }
}

fn easy_pool_bf() -> SchedulerConfig {
    SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(contention())
        .build()
}

/// The workload's grid for one instance seed.
pub fn spec(kind: Kind, seed: u64, jobs: usize) -> Result<ExperimentSpec, SimError> {
    let b = ExperimentSpec::builder(kind.name())
        .preset(PRESET, jobs)
        .pool(pool());
    match kind {
        Kind::ClosedEasy => b.seed(seed).scheduler(easy_pool_bf()),
        Kind::GridConservative => b
            .seeds([seed.wrapping_mul(2), seed.wrapping_mul(2).wrapping_add(1)])
            .schedulers(
                [
                    MemoryPolicy::PoolBestFit,
                    MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
                ]
                .map(|memory| {
                    SchedulerBuilder::new()
                        .backfill(BackfillPolicy::Conservative)
                        .memory(memory)
                        .slowdown(contention())
                        .build()
                }),
            ),
        Kind::ServiceOpen => b
            .seed(seed)
            .service(
                ServiceSpec::open(PRESET)
                    .with_utilization(0.85)
                    .with_slo_budget_factor(1.5, 4.0)
                    .with_warmup_secs(3_600)
                    .with_horizon_jobs(jobs as u64),
            )
            .scheduler(
                SchedulerBuilder::new()
                    .order(OrderPolicy::Edf)
                    .memory(MemoryPolicy::LaxityAware { max_dilation: 1.4 })
                    .slowdown(contention())
                    .admission(AdmissionPolicy::RejectInfeasible)
                    .build(),
            ),
        Kind::Fleet4Site => b
            .seed(seed)
            .load(0.9)
            .fleet(FleetSpec::symmetric(
                4,
                300.0,
                MetaPolicyKind::LeastQueueDepth,
            ))
            .scheduler(easy_pool_bf()),
    }
    .build()
}

/// A cell's jobs, built exactly as `ExperimentRunner` builds them: the
/// preset stream for the cell seed, rescaled to the cell's load against
/// the nodes it runs on (the whole fleet for fleet cells), shifted to
/// t = 0. Service cells stream their jobs and get an empty workload.
pub fn materialize(cell: &RunSpec, jobs: usize) -> Workload {
    if !cell.service.is_none() {
        return Workload::from_jobs(Vec::new());
    }
    // A preset spec stamps a seed on every cell.
    let seed = cell.key.seed.unwrap_or_default();
    let base = PRESET.synthetic_spec(jobs).generate(seed);
    let base = match cell.key.load {
        None => base,
        Some(load) => {
            let nodes = if cell.fleet.is_none() {
                cell.config.cluster.total_nodes()
            } else {
                cell.fleet.total_nodes(&cell.config.cluster)
            };
            transform::rescale_load(&base, nodes, load)
        }
    };
    transform::shift_to_origin(&base)
}

/// FNV-1a over per-cell trace hashes, in cell order: one number per
/// instance, equal iff every cell's trace is.
pub fn combine(hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in hashes {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every job of a closed cell is accounted for exactly once.
pub fn accounts_all(out: &SimOutput, jobs: usize) -> bool {
    let r = &out.report;
    out.records.len() == jobs && r.completed + r.killed + r.rejected + r.failed == jobs
}

/// The service run's horizon is fully accounted for.
pub fn service_accounts_all(out: &SimOutput, jobs: usize) -> bool {
    out.service
        .as_ref()
        .is_some_and(|s| s.observed + s.warmup_skipped == jobs as u64)
}

/// One measured instance.
#[derive(Debug)]
struct Sample {
    setup_s: f64,
    wall_s: f64,
    jobs: u64,
    events: u64,
    hash: u64,
}

fn run_instance(cfg: &Config, i: u64, checks: &mut Checks) -> Result<Sample, SimError> {
    let n = cfg.jobs();
    // The grid's fresh cache directory is harness work: it is made before
    // the setup clock starts.
    let grid_dir = match cfg.kind {
        Kind::GridConservative => Some(cfg.scratch("grid-cache")?),
        _ => None,
    };
    let t = Instant::now();
    let spec = spec(cfg.kind, cfg.instance_seed(i), n)?;
    let cells = spec.compile()?;
    let cell = &cells[0];
    match cfg.kind {
        Kind::ClosedEasy | Kind::ServiceOpen => {
            let workload = materialize(cell, n);
            let sim = Simulation::new(cell.config)?.with_service_spec(cell.service.clone())?;
            let setup_s = secs(t);
            let t = Instant::now();
            let out = sim.run(&workload);
            let wall_s = secs(t);
            let ok = if cfg.kind == Kind::ServiceOpen {
                service_accounts_all(&out, n)
            } else {
                accounts_all(&out, n)
            };
            checks.check(ok, || format!("instance {i}: not every job accounted for"));
            Ok(Sample {
                setup_s,
                wall_s,
                jobs: n as u64,
                events: out.events_processed,
                hash: combine([out.trace_hash]),
            })
        }
        Kind::Fleet4Site => {
            let workload = materialize(cell, n);
            let fleet = FleetSimulation::new(&cell.fleet, cell.config)?.workers(cfg.threads);
            let setup_s = secs(t);
            let t = Instant::now();
            let out = fleet.run(&workload);
            let wall_s = secs(t);
            checks.check(out.routed_jobs.iter().sum::<u64>() == n as u64, || {
                format!("instance {i}: routed {:?} != {n} jobs", out.routed_jobs)
            });
            checks.check(accounts_all(&out.aggregate, n), || {
                format!("instance {i}: fleet lost jobs")
            });
            if i == 0 {
                let serial = FleetSimulation::new(&cell.fleet, cell.config)?.run(&workload);
                checks.check(
                    serial.aggregate.trace_hash == out.aggregate.trace_hash,
                    || "serial and threaded fleet hashes differ".to_string(),
                );
            }
            Ok(Sample {
                setup_s,
                wall_s,
                jobs: n as u64,
                events: out.aggregate.events_processed,
                hash: combine([out.aggregate.trace_hash]),
            })
        }
        Kind::GridConservative => {
            let dir = grid_dir.expect("made above for the grid");
            let runner = ExperimentRunner::with_threads(cfg.threads).cache_dir(&dir)?;
            let setup_s = secs(t);
            let t = Instant::now();
            let results = runner.run(&spec)?;
            let wall_s = secs(t);
            let _ = std::fs::remove_dir_all(&dir);
            let stats = results.stats();
            checks.check(
                stats.simulated == cells.len() && stats.cache_hits == 0,
                || format!("instance {i}: cold grid pass was not all misses: {stats:?}"),
            );
            checks.check(
                results.cells().iter().all(|c| accounts_all(&c.output, n)),
                || format!("instance {i}: a grid cell lost jobs"),
            );
            Ok(Sample {
                setup_s,
                wall_s,
                jobs: (n * cells.len()) as u64,
                events: results
                    .cells()
                    .iter()
                    .map(|c| c.output.events_processed)
                    .sum(),
                hash: cell_hashes(&results),
            })
        }
    }
}

/// Combined hash of a grid's cells.
pub fn cell_hashes(results: &ExperimentResults) -> u64 {
    combine(results.cells().iter().map(|c| c.output.trace_hash))
}

/// Timings of one instance's grid through `ExperimentRunner`.
#[derive(Debug)]
pub struct RunnerPass {
    pub cells: usize,
    /// The cold pass: every cell simulated and stored.
    pub cold_s: f64,
    /// The all-hit warm pass.
    pub warm_s: f64,
    pub csv_ns: f64,
    pub json_ns: f64,
    /// Size of the populated cache directory.
    pub cache_bytes: u64,
}

/// Run instance `i` as a grid through `ExperimentRunner` into a fresh
/// cache: the cold pass must reproduce `expected` (the runner and the
/// direct run simulate the same cells), and the warm pass must simulate
/// nothing and export CSV and JSON byte-identical to the cold pass.
/// `observe` is attached to every simulated cell.
pub fn runner_pass(
    cfg: &Config,
    i: u64,
    expected: u64,
    observe: Option<Arc<dyn ObserverFactory>>,
    checks: &mut Checks,
) -> Result<RunnerPass, SimError> {
    let label = cfg.kind.name();
    let spec = spec(cfg.kind, cfg.instance_seed(i), cfg.jobs())?;
    let cells = spec.cell_count();
    let dir = cfg.scratch("runner-cache")?;
    let mut runner = ExperimentRunner::with_threads(cfg.threads).cache_dir(&dir)?;
    if let Some(factory) = observe {
        runner = runner.observe(factory);
    }
    let t = Instant::now();
    let cold = runner.run(&spec)?;
    let cold_s = secs(t);
    checks.check(
        cold.stats().simulated == cells && cell_hashes(&cold) == expected,
        || format!("{label}: the runner's cold pass does not reproduce instance {i}"),
    );
    let cache_bytes = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let t = Instant::now();
    let warm = runner.run(&spec)?;
    let warm_s = secs(t);
    let t = Instant::now();
    let csv = warm.to_csv();
    let csv_ns = secs(t) * 1e9;
    let t = Instant::now();
    let json = warm.to_json();
    let json_ns = secs(t) * 1e9;
    checks.check(warm.stats().simulated == 0, || {
        format!("{label}: the warm pass simulated a cell")
    });
    checks.check(csv == cold.to_csv() && json == cold.to_json(), || {
        format!("{label}: the warm export differs from the cold export")
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RunnerPass {
        cells,
        cold_s,
        warm_s,
        csv_ns,
        json_ns,
        cache_bytes,
    })
}

/// The untraced run: instances until the time is up. Reports every
/// end-to-end metric.
pub fn end_to_end(cfg: &Config, checks: &mut Checks) -> Result<(Report, u64), SimError> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while i < MIN_INSTANCES || secs(start) < cfg.seconds {
        samples.push(run_instance(cfg, i, checks)?);
        i += 1;
    }
    let peak_rss = peak_rss_mib();
    let first = samples[0].hash;
    eprintln!("perfbench: instance 0 trace hash {first:#018x}");
    runner_pass(cfg, 0, first, None, checks)?;
    if cfg.seed == DEFAULT_SEED && !cfg.smoke {
        checks.check(first == cfg.kind.pinned_hash(), || {
            format!(
                "instance 0 hash {first:#018x} != pinned {:#018x}",
                cfg.kind.pinned_hash()
            )
        });
    }

    let per = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let mut report = Report::default();
    report.put("setup_s", median(&per(&|s| s.setup_s)), "s");
    report.put(
        "jobs_per_s",
        median(&per(&|s| s.jobs as f64 / s.wall_s)),
        "1/s",
    );
    report.put(
        "events_per_s",
        median(&per(&|s| s.events as f64 / s.wall_s)),
        "1/s",
    );
    report.put("peak_rss_mib", peak_rss, "MiB");
    Ok((report, samples.len() as u64))
}
