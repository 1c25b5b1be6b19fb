//! The declarative experiment API.
//!
//! The paper's evaluation — and every serious scheduling study — is a
//! *grid*: a policy suite crossed with pool topologies, offered loads, and
//! seeds. This module makes that grid a first-class value instead of a
//! nest of hand-rolled loops:
//!
//! * [`ExperimentSpec`] — a declarative, JSON-(de)serializable description
//!   of the run grid: a workload source ([`WorkloadSource`]), labelled
//!   cluster shapes, load/seed axes, one scenario axis ([`Scenario`]: a
//!   fault storm, an open arrival stream or a fleet, each cell running
//!   one), and scheduler configurations. Built fluently via
//!   [`ExperimentSpec::builder`].
//! * [`ExperimentSpec::compile`] — expands the grid into concrete
//!   [`RunSpec`] cells (cluster × load × seed × scenario × scheduler),
//!   validating every axis up front so execution cannot fail mid-sweep.
//! * [`ExperimentRunner`] — executes the cells over the parallel sweep
//!   machinery with deterministic result ordering and a shared workload
//!   cache, yielding [`ExperimentResults`].
//! * [`ExperimentResults`] — a labelled table of per-cell
//!   [`crate::SimOutput`]s with CSV/JSON export.
//!
//! Large grids scale through two additional pieces:
//!
//! * A result cache — a content-addressed on-disk store keyed by a
//!   stable 64-bit hash of each cell's result-determining content
//!   ([`ExperimentSpec::cell_hashes`]); attached via
//!   [`ExperimentRunner::cache_dir`], unchanged cells load their stored
//!   summary instead of simulating and export byte-identically, so
//!   re-running an edited spec re-executes only the cells whose hash
//!   changed.
//! * [`Shard`] — deterministic round-robin grid partitioning
//!   ([`ExperimentSpec::shard`], [`ExperimentRunner::run_shard`]) so N
//!   processes or CI jobs each run a disjoint slice into one cache;
//!   [`ExperimentRunner::merge`] loads the full grid-ordered table from
//!   that cache and fails, simulating nothing, if any cell is missing.
//!
//! ```
//! use dmhpc_sim::{ExperimentRunner, ExperimentSpec};
//! use dmhpc_platform::PoolTopology;
//! use dmhpc_workload::SystemPreset;
//!
//! let spec = ExperimentSpec::builder("demo")
//!     .preset(SystemPreset::HighThroughput, 50)
//!     .pools([
//!         PoolTopology::None,
//!         PoolTopology::PerRack { mib_per_rack: 512 * 1024 },
//!     ])
//!     .load(0.8)
//!     .seed(42)
//!     .policy_suite(dmhpc_sim::scenarios::default_slowdown())
//!     .build()
//!     .unwrap();
//! assert_eq!(spec.cell_count(), 2 * 1 * 1 * 4);
//! let results = ExperimentRunner::new().run(&spec).unwrap();
//! assert_eq!(results.len(), 8);
//! ```

mod builder;
mod cache;
mod results;
mod runner;
mod serial;
mod shard;

pub use builder::ExperimentBuilder;
pub use results::{CellResult, ExperimentResults, RunStats, SUMMARY_POINTS};
pub use runner::ExperimentRunner;
pub use shard::Shard;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::FaultSpec;
use crate::federation::FleetSpec;
use crate::service::ServiceSpec;
use dmhpc_platform::{ClusterSpec, PoolTopology};
use dmhpc_sched::SchedulerConfig;
use dmhpc_workload::{SystemPreset, Workload};
use std::sync::Arc;

/// Where an experiment's jobs come from.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Generate synthetically from a calibrated [`SystemPreset`], one
    /// workload per `(seed, load)` grid point.
    Preset {
        /// The calibration to generate from.
        preset: SystemPreset,
        /// Number of jobs per generated workload.
        jobs: usize,
    },
    /// Replay an externally supplied trace (SWF or hand-built). The seed
    /// axis collapses — the trace is fixed — while the load axis still
    /// rescales arrivals against each cluster's node count. Not
    /// JSON-serializable (the trace itself lives outside the spec).
    Fixed(Arc<Workload>),
}

/// One cell's coordinates in the experiment grid. Every field is a label
/// axis; equality of keys means "same grid point".
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Cluster-axis label.
    pub cluster: String,
    /// Offered-load axis (`None` = the workload's native load).
    pub load: Option<f64>,
    /// Seed axis (`None` for fixed traces).
    pub seed: Option<u64>,
    /// Fault-scenario axis label (`None` when the cell runs fault-free —
    /// both when the axis is absent and for an explicit
    /// [`FaultSpec::none`], which is the same run).
    pub fault: Option<String>,
    /// Service-scenario axis label (`None` for closed batch cells — both
    /// when the axis is absent and for an explicit [`ServiceSpec::none`],
    /// which is the same run).
    pub service: Option<String>,
    /// Fleet axis label (`None` for single-cluster cells — both when the
    /// axis is absent and for an explicit [`FleetSpec::none`], which is
    /// the same run).
    pub fleet: Option<String>,
    /// Scheduler-axis label: the config's *full* label
    /// ([`SchedulerConfig::full_label`]), which distinguishes policy
    /// parameters, the slowdown model, and the inflation switch — so keys
    /// stay unique in grids that sweep those fields.
    pub scheduler: String,
}

impl CellKey {
    /// One-line label for reports: `cluster|load|seed|fault|scheduler`
    /// (fault-free cells omit the fault part, as pre-fault grids did).
    pub fn label(&self) -> String {
        let mut parts = vec![self.cluster.clone()];
        if let Some(load) = self.load {
            parts.push(format!("load{load:.2}"));
        }
        if let Some(seed) = self.seed {
            parts.push(format!("seed{seed}"));
        }
        if let Some(fault) = &self.fault {
            parts.push(fault.clone());
        }
        if let Some(service) = &self.service {
            parts.push(service.clone());
        }
        if let Some(fleet) = &self.fleet {
            parts.push(fleet.clone());
        }
        parts.push(self.scheduler.clone());
        parts.join("|")
    }
}

/// One fully concrete run: a grid cell compiled down to the simulator
/// configuration that executes it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Where this run sits in the grid.
    pub key: CellKey,
    /// The complete simulator configuration for the cell.
    pub config: SimConfig,
    /// The cell's fault scenario ([`FaultSpec::none`] for fault-free
    /// cells; hash-neutral then, so pre-fault caches stay warm).
    pub faults: FaultSpec,
    /// The cell's service scenario, with the stream seed resolved (the
    /// cell's seed-axis value unless the spec pinned one).
    /// [`ServiceSpec::none`] for closed cells; hash-neutral then, so
    /// pre-service caches stay warm.
    pub service: ServiceSpec,
    /// The cell's fleet scenario ([`FleetSpec::none`] for single-cluster
    /// cells; hash-neutral then, so pre-federation caches stay warm).
    /// Unpinned sites inherit the cell's cluster and scheduler axes.
    pub fleet: FleetSpec,
}

/// One point of the scenario axis: the condition a cell runs under
/// besides its cluster, load, seed and scheduler. A cell runs exactly one
/// scenario, so kinds never cross, and a grid may list scenarios of
/// different kinds side by side. The `none()` of every kind is the plain
/// cell: fault-free, closed and single-cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Node failures, drains and pool degradations on the machine.
    Faults(FaultSpec),
    /// An open arrival stream instead of the closed batch.
    Service(ServiceSpec),
    /// A federated fleet of sites instead of one cluster.
    Fleet(FleetSpec),
}

impl Scenario {
    fn validate_for(&self, cluster: &ClusterSpec) -> Result<(), SimError> {
        match self {
            Scenario::Faults(f) => f.validate_for(cluster),
            Scenario::Service(s) => s.validate_for(cluster),
            Scenario::Fleet(f) => f.validate_for(cluster),
        }
    }

    /// The `(fault, service, fleet)` key labels of this scenario's cells:
    /// its own kind's label, and `None` for the other two and for a
    /// `none()`.
    fn key_labels(&self) -> [Option<String>; 3] {
        let mut labels = [None, None, None];
        match self {
            Scenario::Faults(f) if !f.is_none() => labels[0] = Some(f.label()),
            Scenario::Service(s) if !s.is_none() => labels[1] = Some(s.label()),
            Scenario::Fleet(f) if !f.is_none() => labels[2] = Some(f.label()),
            _ => {}
        }
        labels
    }

    /// The three [`RunSpec`] scenario fields: this scenario fills its own
    /// kind's and leaves the other two `none()`.
    fn run_fields(&self) -> (FaultSpec, ServiceSpec, FleetSpec) {
        match self {
            Scenario::Faults(f) => (f.clone(), ServiceSpec::none(), FleetSpec::none()),
            Scenario::Service(s) => (FaultSpec::none(), s.clone(), FleetSpec::none()),
            Scenario::Fleet(f) => (FaultSpec::none(), ServiceSpec::none(), f.clone()),
        }
    }
}

/// A declarative description of a whole experiment grid.
///
/// The grid is the cross product `clusters × loads × seeds × scenarios ×
/// schedulers` (with the load axis treated as a single "native load"
/// point when empty, the seed axis collapsed for
/// [`WorkloadSource::Fixed`], and an empty scenario axis meaning one plain
/// cell). Construct via [`ExperimentSpec::builder`]; serialize with
/// [`ExperimentSpec::to_json`] / [`ExperimentSpec::from_json`].
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Experiment name (report/file prefix).
    pub name: String,
    /// Where jobs come from.
    pub workload: WorkloadSource,
    /// Cluster axis: `(label, machine shape)`.
    pub clusters: Vec<(String, ClusterSpec)>,
    /// Offered-load axis. Empty = run the workload at its native load.
    pub loads: Vec<f64>,
    /// Seed axis (ignored for fixed traces).
    pub seeds: Vec<u64>,
    /// Scheduler axis.
    pub schedulers: Vec<SchedulerConfig>,
    /// Scenario axis. Empty = every cell is plain (fault-free, closed and
    /// single-cluster), identical to a grid without scenarios,
    /// hash-for-hash; so is any `none()` entry.
    pub scenarios: Vec<Scenario>,
    /// Kill jobs at their planned walltime (production behaviour).
    pub enforce_walltime: bool,
    /// Run cluster invariant checks after every event batch (tests only).
    pub check_invariants: bool,
}

impl ExperimentSpec {
    /// Start a fluent builder.
    pub fn builder(name: impl Into<String>) -> ExperimentBuilder {
        ExperimentBuilder::new(name)
    }

    /// Effective seed axis: the configured seeds, or a single `None` for
    /// fixed traces.
    fn seed_axis(&self) -> Vec<Option<u64>> {
        match self.workload {
            WorkloadSource::Preset { .. } => self.seeds.iter().map(|&s| Some(s)).collect(),
            WorkloadSource::Fixed(_) => vec![None],
        }
    }

    /// Effective load axis: the configured loads, or a single `None`.
    fn load_axis(&self) -> Vec<Option<f64>> {
        if self.loads.is_empty() {
            vec![None]
        } else {
            self.loads.iter().map(|&l| Some(l)).collect()
        }
    }

    /// Number of grid cells `compile` will produce.
    pub fn cell_count(&self) -> usize {
        self.clusters.len()
            * self.load_axis().len()
            * self.seed_axis().len()
            * self.scenarios.len().max(1)
            * self.schedulers.len()
    }

    /// Check every axis. All failure modes of the whole experiment surface
    /// here, before any simulation starts.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.name.is_empty() {
            return Err(SimError::spec("experiment name must not be empty"));
        }
        if self.clusters.is_empty() {
            return Err(SimError::spec(
                "cluster axis is empty (add a preset/pool or cluster)",
            ));
        }
        if self.schedulers.is_empty() {
            return Err(SimError::spec("scheduler axis is empty"));
        }
        match &self.workload {
            WorkloadSource::Preset { jobs, .. } => {
                if *jobs == 0 {
                    return Err(SimError::spec("preset workload needs jobs > 0"));
                }
                if self.seeds.is_empty() {
                    return Err(SimError::spec("seed axis is empty"));
                }
                if has_duplicates(self.seeds.clone()) {
                    return Err(SimError::spec(
                        "seed axis contains duplicate seeds (each would simulate the same cells)",
                    ));
                }
            }
            WorkloadSource::Fixed(w) => {
                if w.is_empty() {
                    return Err(SimError::spec("fixed workload contains no jobs"));
                }
                if !self.loads.is_empty() && w.arrival_span().is_zero() {
                    return Err(SimError::spec("cannot rescale load of a zero-span trace"));
                }
            }
        }
        for (label, cluster) in &self.clusters {
            if label.is_empty() {
                return Err(SimError::spec("cluster label must not be empty"));
            }
            cluster.validate()?;
        }
        if has_duplicates(self.clusters.iter().map(|(l, _)| l.as_str()).collect()) {
            return Err(SimError::spec("cluster labels must be unique"));
        }
        for &load in &self.loads {
            if !(load.is_finite() && load > 0.0) {
                return Err(SimError::spec(format!(
                    "offered load must be > 0, got {load}"
                )));
            }
        }
        if has_duplicates(self.loads.iter().map(|l| l.to_bits()).collect()) {
            return Err(SimError::spec(
                "load axis contains duplicate loads (each would simulate the same cells)",
            ));
        }
        for sched in &self.schedulers {
            sched.slowdown.validate()?;
        }
        if has_duplicates(self.schedulers.iter().map(|s| s.full_label()).collect()) {
            return Err(SimError::spec(
                "scheduler axis contains duplicate configurations",
            ));
        }
        for scenario in &self.scenarios {
            // Machine-aware: fixed fault actions must target nodes and
            // pools every cluster has, a utilization target must bind to
            // every cluster, and unpinned fleet sites inherit each one.
            for (_, cluster) in &self.clusters {
                scenario.validate_for(cluster)?;
            }
        }
        if has_duplicates(self.scenarios.iter().map(Scenario::key_labels).collect()) {
            return Err(SimError::spec(
                "scenario axis contains scenarios with colliding labels (duplicate or \
                 near-duplicate scenarios, or the plain cell listed twice)",
            ));
        }
        Ok(())
    }

    /// Expand the grid into concrete cells, in deterministic axis order
    /// (clusters outermost, then loads, seeds, scenarios, and schedulers
    /// innermost).
    pub fn compile(&self) -> Result<Vec<RunSpec>, SimError> {
        self.validate()?;
        let plain = [Scenario::Faults(FaultSpec::none())];
        let axis = if self.scenarios.is_empty() {
            &plain[..]
        } else {
            &self.scenarios[..]
        };
        // The key labels the axis entry as written (pre-resolution), so
        // one scenario keeps one label across the whole seed axis.
        let resolved: Vec<_> = axis
            .iter()
            .map(|s| (s.run_fields(), s.key_labels()))
            .collect();
        let mut cells = Vec::with_capacity(self.cell_count());
        for (cluster_label, cluster) in &self.clusters {
            for load in self.load_axis() {
                for seed in self.seed_axis() {
                    for ((faults, service, fleet), [fault_label, service_label, fleet_label]) in
                        &resolved
                    {
                        for sched in &self.schedulers {
                            let mut config = SimConfig::new(*cluster, *sched);
                            config.enforce_walltime = self.enforce_walltime;
                            config.check_invariants = self.check_invariants;
                            // Resolve the stream seed: an unpinned open
                            // scenario draws from the cell's seed axis, so
                            // the seed axis varies the stream just like it
                            // varies closed workloads.
                            let mut service = service.clone();
                            if !service.is_none() && service.seed.is_none() {
                                service.seed = Some(seed.unwrap_or(ServiceSpec::DEFAULT_SEED));
                            }
                            cells.push(RunSpec {
                                key: CellKey {
                                    cluster: cluster_label.clone(),
                                    load,
                                    seed,
                                    fault: fault_label.clone(),
                                    service: service_label.clone(),
                                    fleet: fleet_label.clone(),
                                    scheduler: sched.full_label(),
                                },
                                config,
                                faults: faults.clone(),
                                service,
                                fleet: fleet.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// The content hash of every grid cell, in grid order — the keys the
    /// result cache ([`ExperimentRunner::cache_dir`]) stores cells under.
    ///
    /// The hash covers exactly what determines a cell's result: workload
    /// source content, cluster shape, load, seed, scheduler configuration,
    /// walltime enforcement, and the cell's scenario. Presentation-only
    /// fields (experiment name, cluster labels, `check_invariants`) are
    /// excluded, and hashes are computed from the parsed spec — not its
    /// JSON text — so reordering fields in a spec file changes nothing. A
    /// plain cell (no scenario, or any kind's `none()`) hashes exactly as
    /// grids without scenarios did, so listing an explicit `none()` keeps
    /// existing caches warm. Diff two specs' hashes to see which cells an
    /// edit would re-execute.
    pub fn cell_hashes(&self) -> Result<Vec<(CellKey, u64)>, SimError> {
        let digest = cache::workload_digest(&self.workload);
        Ok(self
            .compile()?
            .into_iter()
            .map(|cell| {
                let hash = cache::cell_hash(digest, &cell);
                (cell.key, hash)
            })
            .collect())
    }

    /// Serialize to pretty JSON. Fails for [`WorkloadSource::Fixed`]
    /// (traces live outside the spec).
    pub fn to_json(&self) -> Result<String, SimError> {
        serial::spec_to_json(self)
    }

    /// Parse a spec previously written by [`ExperimentSpec::to_json`].
    /// The result is validated before it is returned.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        let spec = serial::spec_from_json(text)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Whether `items` holds two equal entries.
fn has_duplicates<T: Ord>(mut items: Vec<T>) -> bool {
    let n = items.len();
    items.sort_unstable();
    items.dedup();
    items.len() != n
}

/// A stable human label for a pool topology (used for auto-generated
/// cluster labels).
pub(crate) fn pool_label(pool: &PoolTopology) -> String {
    fn mib(m: u64) -> String {
        if m > 0 && m.is_multiple_of(1024 * 1024) {
            format!("{}tib", m / (1024 * 1024))
        } else if m > 0 && m.is_multiple_of(1024) {
            format!("{}gib", m / 1024)
        } else {
            format!("{m}mib")
        }
    }
    match *pool {
        PoolTopology::None => "no-pool".to_string(),
        PoolTopology::PerRack { mib_per_rack } => format!("rack-{}", mib(mib_per_rack)),
        PoolTopology::Global { mib: m } => format!("global-{}", mib(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{default_slowdown, policy_suite};
    use dmhpc_platform::NodeSpec;
    use dmhpc_workload::JobBuilder;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::builder("t")
            .preset(SystemPreset::HighThroughput, 20)
            .pools([
                PoolTopology::None,
                PoolTopology::PerRack {
                    mib_per_rack: 512 * 1024,
                },
                PoolTopology::Global { mib: 2048 * 1024 },
            ])
            .loads([0.7, 0.9])
            .seeds([1, 2])
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap()
    }

    #[test]
    fn grid_cardinality() {
        let spec = tiny_spec();
        assert_eq!(spec.cell_count(), 3 * 2 * 2 * 4);
        let cells = spec.compile().unwrap();
        assert_eq!(cells.len(), spec.cell_count());
        // Every key is unique.
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert_ne!(a.key, b.key);
            }
        }
        // Axis order: schedulers innermost.
        assert_eq!(cells[0].key.scheduler, cells[4].key.scheduler);
        assert_eq!(cells[0].key.cluster, cells[4].key.cluster);
        assert_ne!(cells[0].key.seed, cells[4].key.seed);
    }

    #[test]
    fn empty_load_axis_means_native() {
        let spec = ExperimentSpec::builder("native")
            .preset(SystemPreset::HighThroughput, 10)
            .pool(PoolTopology::None)
            .seed(7)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.compile().unwrap()[0].key.load, None);
    }

    #[test]
    fn fixed_workload_collapses_seed_axis() {
        let w = Workload::from_jobs(vec![JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(10, 20)
            .mem_per_node(100)
            .build()]);
        let spec = ExperimentSpec::builder("trace")
            .fixed_workload(w)
            .cluster(
                "tiny",
                ClusterSpec::new(1, 2, NodeSpec::new(4, 1024), PoolTopology::None),
            )
            .seeds([1, 2, 3]) // ignored for fixed traces
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.compile().unwrap()[0].key.seed, None);
    }

    #[test]
    fn validation_rejects_bad_grids() {
        // No schedulers.
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Spec { .. }), "{err}");

        // Bad load.
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .load(-0.5)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("load"), "{err}");

        // Bad slowdown model lands as a typed platform error.
        let bad = dmhpc_sched::SchedulerBuilder::new()
            .slowdown(dmhpc_platform::SlowdownModel::Linear { penalty: 0.2 })
            .build();
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .scheduler(bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Platform(_)), "{err}");

        // Duplicate cluster labels.
        let cs = ClusterSpec::new(1, 2, NodeSpec::new(4, 1024), PoolTopology::None);
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .cluster("same", cs)
            .cluster("same", cs)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unique"), "{err}");

        // A repeated seed or load would simulate the same cells twice.
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .seeds([1, 1])
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate seeds"), "{err}");
        let err = ExperimentSpec::builder("x")
            .preset(SystemPreset::MidCluster, 10)
            .pool(PoolTopology::None)
            .loads([0.8, 0.8])
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate loads"), "{err}");
    }

    #[test]
    fn pool_labels() {
        assert_eq!(pool_label(&PoolTopology::None), "no-pool");
        assert_eq!(
            pool_label(&PoolTopology::PerRack {
                mib_per_rack: 512 * 1024
            }),
            "rack-512gib"
        );
        assert_eq!(
            pool_label(&PoolTopology::Global {
                mib: 4 * 1024 * 1024
            }),
            "global-4tib"
        );
        assert_eq!(
            pool_label(&PoolTopology::Global { mib: 100 }),
            "global-100mib"
        );
    }

    #[test]
    fn cell_labels_read_well() {
        let mut key = CellKey {
            cluster: "mid".into(),
            load: Some(0.9),
            seed: Some(42),
            fault: None,
            service: None,
            fleet: None,
            scheduler: "fcfs+easy+pool-ff".into(),
        };
        assert_eq!(key.label(), "mid|load0.90|seed42|fcfs+easy+pool-ff");
        key.fault = Some("gen7-mtbf3600-resub".into());
        assert_eq!(
            key.label(),
            "mid|load0.90|seed42|gen7-mtbf3600-resub|fcfs+easy+pool-ff"
        );
        key.fault = None;
        key.service = Some("svc-htc-128-poisson-u0.85-j5000".into());
        assert_eq!(
            key.label(),
            "mid|load0.90|seed42|svc-htc-128-poisson-u0.85-j5000|fcfs+easy+pool-ff"
        );
        key.service = None;
        key.fleet = Some("fleet4-least-queue-e300".into());
        assert_eq!(
            key.label(),
            "mid|load0.90|seed42|fleet4-least-queue-e300|fcfs+easy+pool-ff"
        );
    }

    #[test]
    fn fault_axis_multiplies_grid_and_labels_cells() {
        let mut gen = crate::FaultGenerator::quiet(5, 40_000);
        gen.node_mtbf_s = 8_000;
        let spec = ExperimentSpec::builder("faulty")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(crate::FaultSpec::none())
            .fault(crate::FaultSpec::none().with_generator(gen))
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 2);
        let cells = spec.compile().unwrap();
        assert_eq!(cells[0].key.fault, None, "explicit none stays unlabeled");
        assert!(cells[1].key.fault.as_deref().unwrap().contains("gen5"));
        assert!(cells[0].faults.is_none());
        assert!(!cells[1].faults.is_none());
    }

    #[test]
    fn service_axis_multiplies_grid_and_resolves_seeds() {
        let svc = ServiceSpec::open(SystemPreset::HighThroughput).with_horizon_jobs(200);
        let spec = ExperimentSpec::builder("svc")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seeds([3, 9])
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .service(ServiceSpec::none())
            .service(svc.clone())
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 4);
        let cells = spec.compile().unwrap();
        assert_eq!(cells[0].key.service, None, "explicit none stays unlabeled");
        assert!(cells[0].service.is_none());
        // The open cells draw their stream seed from the seed axis, but
        // keep the axis entry's (seed-free) label.
        assert_eq!(cells[1].service.seed, Some(3));
        assert_eq!(cells[3].service.seed, Some(9));
        assert_eq!(cells[1].key.service, cells[3].key.service);
        assert_eq!(cells[1].key.service.as_deref(), Some(svc.label().as_str()));
        // A pinned seed wins over the axis.
        let pinned = ExperimentSpec::builder("svc2")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(3)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .service(svc.with_seed(77))
            .build()
            .unwrap();
        assert_eq!(pinned.compile().unwrap()[0].service.seed, Some(77));
    }

    #[test]
    fn service_scenarios_reject_collisions_and_sit_beside_faults() {
        let svc = ServiceSpec::open(SystemPreset::HighThroughput).with_horizon_jobs(200);
        let err = ExperimentSpec::builder("dup-svc")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .service(svc.clone())
            .service(svc.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("colliding"), "{err}");

        // A fault scenario and an open scenario on one axis: each runs as
        // its own cells and never inside the other's.
        let mut gen = crate::FaultGenerator::quiet(5, 40_000);
        gen.node_mtbf_s = 8_000;
        let cells = ExperimentSpec::builder("svc-faults")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(crate::FaultSpec::none().with_generator(gen))
            .service(svc)
            .build()
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(!cells[0].faults.is_none() && cells[0].service.is_none());
        assert!(cells[1].faults.is_none() && !cells[1].service.is_none());
        assert!(cells[0].key.fault.is_some() && cells[0].key.service.is_none());
        assert!(cells[1].key.fault.is_none() && cells[1].key.service.is_some());
    }

    #[test]
    fn fleet_axis_multiplies_grid_and_labels_cells() {
        let spec = ExperimentSpec::builder("fed")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fleet(FleetSpec::none())
            .fleet(FleetSpec::symmetric(
                4,
                300.0,
                dmhpc_sched::MetaPolicyKind::LeastQueueDepth,
            ))
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 2);
        let cells = spec.compile().unwrap();
        assert_eq!(cells[0].key.fleet, None, "explicit none stays unlabeled");
        assert!(cells[0].fleet.is_none());
        assert_eq!(
            cells[1].key.fleet.as_deref(),
            Some("fleet4-least-queue-e300")
        );
        assert_eq!(cells[1].fleet.sites.len(), 4);
    }

    #[test]
    fn fleet_scenarios_reject_collisions_and_sit_beside_other_kinds() {
        let fleet = FleetSpec::symmetric(2, 60.0, dmhpc_sched::MetaPolicyKind::RoundRobin);
        let err = ExperimentSpec::builder("dup-fleet")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fleet(fleet.clone())
            .fleet(fleet.clone())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("colliding"), "{err}");

        let mut gen = crate::FaultGenerator::quiet(5, 40_000);
        gen.node_mtbf_s = 8_000;
        let svc = ServiceSpec::open(SystemPreset::HighThroughput).with_horizon_jobs(200);
        let cells = ExperimentSpec::builder("fleet-mixed")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(crate::FaultSpec::none().with_generator(gen))
            .fleet(fleet)
            .service(svc)
            .build()
            .unwrap()
            .compile()
            .unwrap();
        let kinds: Vec<[bool; 3]> = cells
            .iter()
            .map(|c| {
                [
                    !c.faults.is_none(),
                    !c.service.is_none(),
                    !c.fleet.is_none(),
                ]
            })
            .collect();
        assert_eq!(
            kinds,
            [
                [true, false, false],
                [false, false, true],
                [false, true, false]
            ],
            "each cell runs exactly the scenario it was listed with"
        );
    }

    #[test]
    fn mixed_kind_cells_hash_as_their_single_kind_specs() {
        let storm = crate::FaultSpec::none().with_generator(crate::FaultGenerator {
            node_mtbf_s: 8_000,
            ..crate::FaultGenerator::quiet(5, 40_000)
        });
        let open = ServiceSpec::open(SystemPreset::HighThroughput).with_horizon_jobs(200);
        let fleet = FleetSpec::symmetric(2, 300.0, dmhpc_sched::MetaPolicyKind::RoundRobin);
        let base = || {
            ExperimentSpec::builder("mixed")
                .preset(SystemPreset::HighThroughput, 20)
                .pools([
                    PoolTopology::None,
                    PoolTopology::PerRack {
                        mib_per_rack: 512 * 1024,
                    },
                ])
                .seeds([1, 2])
                .schedulers(policy_suite(default_slowdown()).into_iter().take(2))
        };
        let mixed = base()
            .fault(crate::FaultSpec::none())
            .fault(storm.clone())
            .service(open.clone())
            .fleet(fleet.clone())
            .build()
            .unwrap()
            .cell_hashes()
            .unwrap();
        assert_eq!(mixed.len(), 2 * 2 * 4 * 2);
        let singles: Vec<(CellKey, u64)> = [
            base().build(),
            base().fault(storm).build(),
            base().service(open).build(),
            base().fleet(fleet).build(),
        ]
        .into_iter()
        .flat_map(|spec| spec.unwrap().cell_hashes().unwrap())
        .collect();
        assert_eq!(singles.len(), mixed.len());
        for (key, hash) in &mixed {
            let single = singles.iter().find(|(k, _)| k == key).unwrap();
            assert_eq!(*hash, single.1, "{}", key.label());
        }
    }

    #[test]
    fn colliding_fault_labels_rejected() {
        let err = ExperimentSpec::builder("dup")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(crate::FaultSpec::none())
            .fault(crate::FaultSpec::none())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("colliding"), "{err}");
        // The plain cell is one cell whatever kind's none() names it.
        let err = ExperimentSpec::builder("dup-plain")
            .preset(SystemPreset::HighThroughput, 20)
            .pool(PoolTopology::None)
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(crate::FaultSpec::none())
            .service(ServiceSpec::none())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("colliding"), "{err}");
    }
}
