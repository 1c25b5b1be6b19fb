//! # dmhpc — job scheduling for HPC systems with disaggregated memory
//!
//! Facade crate: re-exports the whole workspace behind one dependency and
//! provides a [`prelude`] for examples and downstream users.
//!
//! ## The experiment API
//!
//! The public surface revolves around three types:
//!
//! * [`sim::ExperimentSpec`] — a declarative, JSON-(de)serializable
//!   description of a run grid: workload source (calibrated preset or
//!   fixed trace), labelled cluster shapes, offered-load and seed axes,
//!   and scheduler configurations. Built fluently:
//!
//!   ```
//!   use dmhpc::prelude::*;
//!
//!   let spec = ExperimentSpec::builder("pool-sweep")
//!       .preset(SystemPreset::MidCluster, 500)
//!       .pools([
//!           PoolTopology::None,
//!           PoolTopology::PerRack { mib_per_rack: 512 * 1024 },
//!       ])
//!       .load(0.9)
//!       .seed(42)
//!       .policy_suite(SlowdownModel::Saturating { penalty: 1.5, curvature: 3.0 })
//!       .build()?;
//!   assert_eq!(spec.cell_count(), 2 * 4);
//!   # Ok::<(), dmhpc::SimError>(())
//!   ```
//!
//! * [`sim::ExperimentRunner`] — compiles the grid into concrete cells and
//!   executes them across threads with deterministic, grid-ordered
//!   results (per-cell trace hashes are identical at any thread count).
//!
//! * [`sim::ExperimentResults`] — the labelled result table: per-cell
//!   [`sim::SimOutput`]s plus CSV/JSON export for notebooks.
//!
//! Construction is fallible end to end: every ill-formed cluster shape,
//! slowdown model, or grid axis surfaces as the single [`SimError`] enum
//! before any simulation starts. Scheduling behaviour is pluggable through
//! the [`sched::Ordering`] / [`sched::Placement`] traits — the built-in
//! [`sched::OrderPolicy`] / [`sched::MemoryPolicy`] enums are just the
//! bundled implementations (see [`sim::Simulation::with_policies`]).
//!
//! Large grids scale through two further pieces: a content-addressed
//! result cache (attach via [`sim::ExperimentRunner::cache_dir`];
//! unchanged cells load their stored summary instead of simulating and
//! export byte-identically, so edited specs re-execute only changed
//! cells) and deterministic [`sim::Shard`]
//! partitioning ([`sim::ExperimentRunner::run_shard`] into one cache,
//! then [`sim::ExperimentRunner::merge`], which loads the full grid from
//! it and never simulates) for fanning a grid out across processes or
//! CI jobs.
//!
//! Availability is a grid dimension too: a [`sim::FaultSpec`] (node
//! failures, maintenance drains, pool degradations — fixed schedules or
//! seeded generators, with resubmit or checkpoint/restart handling of
//! interrupted jobs) joins a grid's scenario axis via
//! `ExperimentSpec::builder(..).fault(..)`, beside open service streams
//! (`.service(..)`) and fleets (`.fleet(..)`); each cell runs one
//! scenario. Plain cells hash and cache exactly as before, so adding
//! scenarios never invalidates results.
//!
//! Runs are *observed* through a typed event stream ([`sim::observe`]):
//! the engine emits a [`sim::observe::SimEvent`] per state change and all
//! metrics are built-in [`sim::observe::Observer`]s, with pluggable extra
//! consumers — a constant-memory JSONL [`sim::observe::TraceSink`] and a
//! cadence-sampled [`sim::observe::SampledSeriesProbe`] — attached per run
//! through one [`sim::ObserverSet`] ([`sim::Simulation::run_with`]) or per
//! grid cell (`ExperimentRunner::observe` / `trace_dir`,
//! `repro … --trace-out`). Observers are hash-neutral: they can never
//! change a result, a trace hash, or a cache entry.
//!
//! For one-off runs without a grid, [`sim::Simulation`] is still the
//! entry point: `Simulation::new(SimConfig::new(cluster, scheduler))?`.
//!
//! `ROADMAP.md` describes how the kernel schedules and what is open;
//! `repro --list` prints the experiment index.

#![forbid(unsafe_code)]

pub use dmhpc_des as des;
pub use dmhpc_metrics as metrics;
pub use dmhpc_platform as platform;
pub use dmhpc_sched as sched;
pub use dmhpc_sim as sim;
pub use dmhpc_workload as workload;

/// The workspace's single public error enum (re-exported from
/// [`sim::SimError`]): platform spec problems, malformed experiment grids,
/// and experiment-spec parse failures.
pub use dmhpc_sim::SimError;

/// Everything a typical simulation script needs, in one import.
pub mod prelude {
    pub use dmhpc_des::queue::{BinaryHeapQueue, CalendarQueue, EventQueue};
    pub use dmhpc_des::rng::Pcg64;
    pub use dmhpc_des::stats::{CdfCollector, OnlineStats, P2Quantile, StepSeries, TimeWeighted};
    pub use dmhpc_des::time::{SimDuration, SimTime};
    pub use dmhpc_metrics::{ClassBreakdown, FaultSummary, JobClass, SimReport};
    pub use dmhpc_platform::{
        Cluster, ClusterSpec, MemoryPool, MiB, NodeSpec, NodeState, PlatformError, PoolTopology,
        SlowdownModel,
    };
    pub use dmhpc_sched::{
        AdmissionPolicy, AdmissionVerdict, BackfillPolicy, MemoryPolicy, MetaPolicy,
        MetaPolicyKind, OrderPolicy, Ordering, PassDirective, Placement, PreemptPolicy,
        RejectReason, ReleaseIndex, ReleaseView, SchedContext, SchedulerBuilder, SchedulerConfig,
        SiteSnapshot,
    };
    pub use dmhpc_sim::observe::{
        EventCounter, Observer, ObserverFactory, RunLabel, SampleRow, SampledSeriesProbe, SimEvent,
        SketchStatsObserver, TraceDir, TraceSink,
    };
    pub use dmhpc_sim::{
        CellKey, CellResult, EventQueueKind, ExperimentResults, ExperimentRunner, ExperimentSpec,
        FaultAction, FaultGenerator, FaultSpec, FleetOutput, FleetSimulation, FleetSpec,
        InterruptPolicy, ObserverSet, RunStats, Scenario, ServiceLoad, ServiceSpec, Shard,
        SimConfig, SimError, SimOutput, Simulation, SiteSpec, WorkloadSource,
    };
    pub use dmhpc_workload::source::{ArrivalProcess, JobSource};
    pub use dmhpc_workload::{
        Job, JobId, Slo, SloModel, SyntheticSpec, SystemPreset, Workload, WorkloadBuilder,
        WorkloadError,
    };
}
