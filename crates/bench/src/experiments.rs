//! The paper's tables and the built-in grids, each declared once.
//!
//! - `TABLES` is the one list of `repro`'s tables and figures. Each
//!   [`Table`] holds an id, a title and a body function that runs its
//!   grids on the [`ExperimentRunner`] it is given and prints its rows, so
//!   one runner (and its cache, worker count, event queue and trace
//!   export) serves every table of a `repro` invocation.
//! - `GRIDS` is the one list of built-in grids: `(name, builder)` pairs
//!   that `repro grid`, `repro merge` and `repro --list` read.
//!
//! Base configuration (unless a sweep varies it): `mid-256` preset
//! (256 nodes × 64 cores × 256 GiB), per-rack pools of 512 GiB, offered
//! load 0.9, 1,500 jobs, seed 42, saturating slowdown with a 1.5× worst
//! case. Each table prints the same rows/series the corresponding
//! figure plots.
//!
//! Every simulated table runs declarative [`ExperimentSpec`] grids. One
//! printer lays out every column table: a column's header, width and
//! value are declared once and lay out the header row and every data row
//! alike. A row's key is the axis point its cell was built from, given
//! with that point where the grid is declared.

use dmhpc_metrics::{ClassRow, JobClass, SimReport};
use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, OrderPolicy, SchedulerBuilder, SchedulerConfig,
};
use dmhpc_sim::scenarios::{default_slowdown, policy_suite};
use dmhpc_sim::{
    ExperimentBuilder, ExperimentRunner, ExperimentSpec, FaultSpec, FleetSpec, Scenario,
    ServiceSpec, SimError, SimOutput, SUMMARY_POINTS,
};
use dmhpc_workload::{stats as wstats, SystemPreset};
use std::fmt::Write as _;

const GIB: u64 = 1024;
const N_JOBS: usize = 1500;
const SEED: u64 = 42;
const LOAD: f64 = 0.9;
const BASE_POOL_GIB: u64 = 512;
const PRESET: SystemPreset = SystemPreset::MidCluster;

/// One of `repro`'s tables or figures.
pub struct Table {
    /// Experiment id (`t1`, `f3`, `a2`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Runs the table's grids on the given runner and prints its rows
    /// (`repro` also writes them to `results/<id>.txt`).
    pub body: fn(&ExperimentRunner) -> Result<String, SimError>,
}

/// Every table, in report order.
#[rustfmt::skip]
pub static TABLES: [Table; 14] = [
    Table { id: "t1", title: "Workload characterization (per synthetic system preset)", body: t1 },
    Table { id: "f1", title: "CDF of per-node memory demand (fraction of node DRAM)", body: f1 },
    Table { id: "f2", title: "CPU vs memory utilization over time (local-only baseline)", body: f2 },
    Table { id: "f3", title: "Wait time vs per-rack pool capacity (4 policies)", body: f3 },
    Table { id: "f4", title: "Bounded slowdown vs offered load (4 policies, pool 512 GiB/rack)", body: f4 },
    Table { id: "f5", title: "Utilization & throughput vs node DRAM (pool fixed at 512 GiB/rack)", body: f5 },
    Table { id: "f6", title: "Crossover vs far-memory penalty (does borrowing stop paying?)", body: f6 },
    Table { id: "f7", title: "Pool utilization over time (128 vs 512 GiB/rack)", body: f7 },
    Table { id: "f8", title: "Per-class wait: local-only vs slowdown-aware (who wins?)", body: f8 },
    Table { id: "f9", title: "Pool topology: none vs per-rack vs global (equal total capacity)", body: f9 },
    Table { id: "t2", title: "Headline policy comparison (base config: load 0.9, 512 GiB/rack)", body: t2 },
    Table { id: "a1", title: "Ablation A1: walltime inflation for dilated jobs (kill counts)", body: a1 },
    Table { id: "a2", title: "Ablation A2: backfill flavour under disaggregation", body: a2 },
    Table { id: "a3", title: "Ablation A3: static vs contention-aware dilation", body: a3 },
];

/// The table with this id, if there is one.
pub fn table(id: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.id == id)
}

/// Builds one of the built-in grids.
pub type GridBuilder = fn() -> Result<ExperimentSpec, SimError>;

/// Every built-in grid, by the name `repro grid` and `repro merge` accept
/// (each builder names its spec the same), in `repro --list` order.
pub static GRIDS: [(&str, GridBuilder); 7] = [
    ("smoke", smoke_spec),
    ("smoke-contention", smoke_contention_spec),
    ("smoke-faults", smoke_faults_spec),
    ("smoke-service", smoke_service_spec),
    ("smoke-deadline", smoke_deadline_spec),
    ("smoke-admission", smoke_admission_spec),
    ("smoke-fleet", smoke_fleet_spec),
];

/// The CI smoke grid: small enough to finish in seconds, wide enough to
/// exercise every axis (2 pools × 2 seeds × 2 schedulers) — the grid the
/// sharded `repro grid`/`repro merge` smoke in CI runs on every PR.
pub fn smoke_spec() -> Result<ExperimentSpec, SimError> {
    ExperimentSpec::builder("smoke")
        .preset(SystemPreset::HighThroughput, 80)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        ])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(sched_with(MemoryPolicy::LocalOnly, default_slowdown()))
        .scheduler(sched_with(MemoryPolicy::PoolFirstFit, default_slowdown()))
        .build()
}

/// The contention-model smoke grid: the same shape as [`smoke_spec`] but
/// under the dynamic `Contention` slowdown, so re-dilation (and, via
/// `repro grid smoke-contention --queue calendar` in CI, the calendar
/// event-queue backend) is exercised end to end on every PR.
pub fn smoke_contention_spec() -> Result<ExperimentSpec, SimError> {
    let contention = SlowdownModel::Contention {
        penalty: 1.5,
        gamma: 1.0,
    };
    ExperimentSpec::builder("smoke-contention")
        .preset(SystemPreset::HighThroughput, 80)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        ])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(sched_with(MemoryPolicy::PoolBestFit, contention))
        .scheduler(sched_with(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            contention,
        ))
        .build()
}

/// The canned fault scenario [`smoke_faults_spec`] builds in: a storm of
/// node failures, periodic maintenance drains, and pool degradations, with
/// checkpoint/restart handling. Aggressive timescales so even second-long
/// smoke runs see interruptions.
pub fn default_fault_scenario() -> FaultSpec {
    let mut gen = dmhpc_sim::FaultGenerator::quiet(21, 40_000);
    gen.node_mtbf_s = 900;
    gen.node_repair_s = 1_800;
    gen.drain_interval_s = 3_000;
    gen.drain_duration_s = 1_200;
    gen.pool_degrade_interval_s = 5_000;
    gen.pool_degrade_duration_s = 2_500;
    gen.pool_degrade_factor = 0.4;
    FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(dmhpc_sim::InterruptPolicy::Checkpoint { overhead_s: 120 })
        .with_max_resubmits(2)
}

/// `base` renamed to `name`, with a scenario axis of the plain cell (as
/// `scenario`'s kind spells it) and `scenario`. The plain cells hash
/// identically to `base`'s, so a shared cache serves both grids.
fn plain_and(
    base: ExperimentSpec,
    name: &str,
    scenario: Scenario,
) -> Result<ExperimentSpec, SimError> {
    let b = ExperimentBuilder::from_spec(base).name(name);
    match scenario {
        Scenario::Faults(f) => b.fault(FaultSpec::none()).fault(f),
        Scenario::Service(s) => b.service(ServiceSpec::none()).service(s),
        Scenario::Fleet(f) => b.fleet(FleetSpec::none()).fleet(f),
    }
    .build()
}

/// The availability smoke grid: [`smoke_contention_spec`]'s shape with a
/// fault-free baseline and [`default_fault_scenario`]'s storm, so node
/// failures, drains, pool-degradation eviction, *and* dynamic
/// re-dilation under faults run — sharded — on every PR.
pub fn smoke_faults_spec() -> Result<ExperimentSpec, SimError> {
    plain_and(
        smoke_contention_spec()?,
        "smoke-faults",
        Scenario::Faults(default_fault_scenario()),
    )
}

/// The canned open-system scenario [`smoke_service_spec`] builds in: a
/// Poisson stream of the high-throughput job mix at 0.85 target
/// utilization, a 2,000-job horizon, a one-hour warmup cutoff, and a one-hour wait SLO — small
/// enough for second-long smoke runs, loaded enough that queues form.
/// The stream seed is left unset so each grid cell's workload seed
/// resolves it (distinct seeds stream distinct arrivals).
pub fn default_service_scenario() -> ServiceSpec {
    ServiceSpec::open(SystemPreset::HighThroughput)
        .with_utilization(0.85)
        .with_horizon_jobs(2_000)
        .with_warmup_secs(3_600)
        .with_slo_wait_secs(3_600.0)
}

/// The open-system smoke grid: [`smoke_spec`]'s shape with a closed
/// baseline and [`default_service_scenario`]'s stream, so streaming
/// admission, load control, warmup cutoffs, and the O(1)-memory sketch
/// observer run — sharded — on every PR, with the closed-baseline half proving service-axis cache keys
/// stay disjoint from open cells.
pub fn smoke_service_spec() -> Result<ExperimentSpec, SimError> {
    plain_and(
        smoke_spec()?,
        "smoke-service",
        Scenario::Service(default_service_scenario()),
    )
}

/// The canned federation scenario [`smoke_fleet_spec`] builds in: a
/// four-site symmetric fleet (every site inherits the cell's cluster and
/// scheduler) behind a
/// least-queue-depth meta-scheduler routing on 300 s epochs — small
/// enough for second-long smoke runs, federated enough that the
/// epoch-synchronized lockstep and snapshot routing are exercised end
/// to end.
pub fn default_fleet_scenario() -> FleetSpec {
    FleetSpec::symmetric(4, 300.0, dmhpc_sched::MetaPolicyKind::LeastQueueDepth)
}

/// The federation smoke grid: [`smoke_spec`]'s shape with a
/// single-cluster baseline and [`default_fleet_scenario`]'s fleet, so
/// epoch-synchronized multi-site routing runs — sharded — on every PR, with the no-fleet half proving fleet-axis
/// cache keys stay disjoint from federated cells.
pub fn smoke_fleet_spec() -> Result<ExperimentSpec, SimError> {
    plain_and(
        smoke_spec()?,
        "smoke-fleet",
        Scenario::Fleet(default_fleet_scenario()),
    )
}

/// The deadline service scenario the `smoke-deadline` grid runs:
/// [`default_service_scenario`]'s stream with per-job budget-factor SLO
/// stamping (deadline = arrival + factor × walltime, factor uniform in
/// [1.5, 4)). Budget factors — not a uniform wait target — so deadline
/// order genuinely differs from arrival order and EDF/least-laxity have
/// something to exploit.
pub fn default_deadline_scenario() -> ServiceSpec {
    default_service_scenario().with_slo_budget_factor(1.5, 4.0)
}

/// The deadline-scheduling smoke grid: the [`smoke_spec`] machine under
/// the budget-factor-stamped open stream, sweeping the deadline-aware
/// ordering family (FCFS baseline, EDF, least-laxity, batched-budget
/// release) with everything else held fixed — so the only grid axis that
/// moves is *ordering*, and per-cell `slo_attainment` columns compare
/// directly. Sharded in CI like the other smoke grids.
pub fn smoke_deadline_spec() -> Result<ExperimentSpec, SimError> {
    let order_sched = |order: OrderPolicy| {
        SchedulerBuilder::new()
            .order(order)
            .slowdown(default_slowdown())
            .build()
    };
    ExperimentSpec::builder("smoke-deadline")
        .preset(SystemPreset::HighThroughput, 80)
        .pool(PoolTopology::None)
        .load(0.8)
        .seeds([1, 2])
        .service(default_deadline_scenario())
        .scheduler(order_sched(OrderPolicy::Fcfs))
        .scheduler(order_sched(OrderPolicy::Edf))
        .scheduler(order_sched(OrderPolicy::LeastLaxity))
        .scheduler(order_sched(OrderPolicy::BatchBudget { hold_s: 60.0 }))
        .build()
}

/// The admission-control smoke grid: the deadline-stamped stream of
/// [`default_deadline_scenario`] with ordering pinned at EDF and the
/// *other* two deadline decisions sweeping — cost-based vs laxity-aware
/// placement, and admit-all vs reject-infeasible vs defer admission — on
/// a pooled machine, so per-cell `slo_attainment`/`rejected` columns
/// isolate what placement and admission add over EDF alone. Sharded in
/// CI like the other smoke grids.
pub fn smoke_admission_spec() -> Result<ExperimentSpec, SimError> {
    let sched = |memory: MemoryPolicy, admission: AdmissionPolicy| {
        SchedulerBuilder::new()
            .order(OrderPolicy::Edf)
            .memory(memory)
            .slowdown(default_slowdown())
            .admission(admission)
            .build()
    };
    let laxity = MemoryPolicy::LaxityAware { max_dilation: 1.4 };
    ExperimentSpec::builder("smoke-admission")
        .preset(SystemPreset::HighThroughput, 80)
        .pool(PoolTopology::PerRack {
            mib_per_rack: 384 * GIB,
        })
        .load(0.8)
        .seeds([1, 2])
        .service(default_deadline_scenario())
        .scheduler(sched(
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            AdmissionPolicy::AdmitAll,
        ))
        .scheduler(sched(laxity, AdmissionPolicy::AdmitAll))
        .scheduler(sched(laxity, AdmissionPolicy::RejectInfeasible))
        .scheduler(sched(laxity, AdmissionPolicy::DeferUntilFeasible))
        .build()
}

// ---------------------------------------------------------------- the printer

/// A table column: its header, its width, and the text it prints for a
/// row. The text carries the value's precision and any `%`/`x` suffix, so
/// the one width lays out the header and every value alike.
type Col<R> = (&'static str, usize, fn(&R) -> String);

/// Lay out a table: a header row, then one line per row. A row is its key
/// texts, printed under the `(header, width)` of `keys`, and a value the
/// `cols` print from. The first column is left-aligned and the rest are
/// right-aligned, one space apart.
fn layout<'a, R: 'a>(
    keys: &[(&str, usize)],
    cols: &[Col<R>],
    rows: impl IntoIterator<Item = (Vec<String>, &'a R)>,
) -> String {
    let widths: Vec<usize> = keys
        .iter()
        .map(|k| k.1)
        .chain(cols.iter().map(|c| c.1))
        .collect();
    let mut body = String::new();
    let mut line = |texts: Vec<String>| {
        for (i, (text, width)) in texts.iter().zip(&widths).enumerate() {
            let _ = match i {
                0 => write!(body, "{text:<width$}"),
                _ => write!(body, " {text:>width$}"),
            };
        }
        body.push('\n');
    };
    let heads = keys.iter().map(|k| k.0).chain(cols.iter().map(|c| c.0));
    line(heads.map(String::from).collect());
    for (key, value) in rows {
        line(
            key.into_iter()
                .chain(cols.iter().map(|c| (c.2)(value)))
                .collect(),
        );
    }
    body
}

/// [`layout`] over the reports of [`sweep`] rows keyed by their texts.
fn report_table(
    keys: &[(&str, usize)],
    cols: &[Col<SimReport>],
    rows: &[(Vec<String>, SimOutput)],
) -> String {
    layout(
        keys,
        cols,
        rows.iter().map(|(key, out)| (key.clone(), &out.report)),
    )
}

fn fixed(value: f64, places: usize) -> String {
    format!("{value:.places$}")
}

fn pct(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

const MEAN_WAIT: Col<SimReport> = ("mean_wait_s", 12, |r| fixed(r.mean_wait_s, 0));
const P95_BSLD: Col<SimReport> = ("p95_bsld", 10, |r| fixed(r.p95_bsld, 2));
const NODE_UTIL: Col<SimReport> = ("node_util", 10, |r| fixed(r.node_util, 3));
const BORROWED: Col<SimReport> = ("borrowed%", 10, |r| pct(r.borrowed_fraction));

// ---------------------------------------------------------------- the grids

/// The shared base grid: `mid-256` preset, 1,500 jobs, seed 42, at offered
/// load `load` (the tables' base load is `LOAD`, 0.9). Tables add their
/// own cluster and scheduler axes on top.
fn base(name: &'static str, load: f64) -> ExperimentBuilder {
    ExperimentSpec::builder(name)
        .preset(PRESET, N_JOBS)
        .load(load)
        .seed(SEED)
}

/// Run `base` with one more axis, added point by point through `add`, and
/// return each point's row key with the output of the cell built from it.
/// `base` holds one point on every other axis, so the grid's cells are the
/// points, in order.
fn sweep<K, T>(
    runner: &ExperimentRunner,
    base: ExperimentBuilder,
    add: impl Fn(ExperimentBuilder, T) -> ExperimentBuilder,
    points: impl IntoIterator<Item = (K, T)>,
) -> Result<Vec<(K, SimOutput)>, SimError> {
    let (keys, points): (Vec<K>, Vec<T>) = points.into_iter().unzip();
    let spec = points.into_iter().fold(base, add).build()?;
    let cells = runner.run(&spec)?.into_cells();
    assert_eq!(cells.len(), keys.len(), "{}: one cell per point", spec.name);
    Ok(keys
        .into_iter()
        .zip(cells.into_iter().map(|c| c.output))
        .collect())
}

/// Run a one-cell grid and return its output.
fn one_cell(runner: &ExperimentRunner, grid: ExperimentBuilder) -> Result<SimOutput, SimError> {
    let mut cells = runner.run(&grid.build()?)?.into_cells();
    assert_eq!(cells.len(), 1, "a one-cell grid");
    Ok(cells.remove(0).output)
}

fn per_rack(gib: u64) -> PoolTopology {
    PoolTopology::PerRack {
        mib_per_rack: gib * GIB,
    }
}

fn sched_with(memory: MemoryPolicy, slowdown: SlowdownModel) -> SchedulerConfig {
    SchedulerBuilder::new()
        .memory(memory)
        .slowdown(slowdown)
        .build()
}

/// Scheduler points keyed by their memory policy and `key`.
fn by_memory(
    scheds: impl IntoIterator<Item = SchedulerConfig>,
    key: String,
) -> impl Iterator<Item = (Vec<String>, SchedulerConfig)> {
    scheds
        .into_iter()
        .map(move |s| (vec![s.memory.name().to_string(), key.clone()], s))
}

// ---------------------------------------------------------------- T1 / F1

fn t1(_: &ExperimentRunner) -> Result<String, SimError> {
    let summaries = SystemPreset::ALL.map(|preset| {
        let spec = preset.synthetic_spec(8000);
        wstats::summarize(
            preset.name(),
            &spec.generate(SEED),
            spec.memory.node_mem_mib,
        )
    });
    let cols: [Col<wstats::WorkloadSummary>; 9] = [
        ("jobs", 6, |s| s.jobs.to_string()),
        ("span_h", 9, |s| fixed(s.span_hours, 1)),
        ("node_h", 10, |s| fixed(s.node_hours, 0)),
        ("mean_n", 7, |s| fixed(s.mean_nodes, 1)),
        ("med_run_s", 9, |s| fixed(s.median_runtime_s, 0)),
        ("med_mem%", 9, |s| pct(s.median_mem_frac)),
        ("p95_mem%", 8, |s| pct(s.p95_mem_frac)),
        ("over_node", 9, |s| pct(s.over_node_fraction)),
        ("over_work", 9, |s| pct(s.over_node_work_fraction)),
    ];
    let rows = summaries.iter().map(|s| (vec![s.name.clone()], s));
    Ok(layout(&[("trace", 10)], &cols, rows))
}

fn f1(_: &ExperimentRunner) -> Result<String, SimError> {
    let spec = PRESET.synthetic_spec(8000);
    let w = spec.generate(SEED);
    let mut body = String::from("mem_frac_of_node,cdf\n");
    for (x, y) in wstats::memory_demand_cdf(&w, spec.memory.node_mem_mib, 25) {
        let _ = writeln!(body, "{x:.4},{y:.4}");
    }
    Ok(body)
}

// ---------------------------------------------------------------- F2

fn f2(runner: &ExperimentRunner) -> Result<String, SimError> {
    let out = one_cell(
        runner,
        base("f2", LOAD)
            .pool(PoolTopology::None)
            .scheduler(sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None)),
    )?;
    let r = &out.report;
    let mut body = format!(
        "# motivation: CPU vs DRAM utilization gap under local-only scheduling\n\
         node_util={:.3} dram_util={:.3} gap={:.3} inflated_jobs={}\n\
         hour,nodes_busy_frac,dram_used_frac\n",
        r.node_util,
        r.dram_util,
        r.node_util - r.dram_util,
        pct(r.inflated_fraction),
    );
    let nodes = out.series.node_util_series(out.end_time, SUMMARY_POINTS);
    let dram = out.series.dram_util_series(out.end_time, SUMMARY_POINTS);
    for ((h, n), (_, d)) in nodes.iter().zip(&dram) {
        let _ = writeln!(body, "{h:.2},{n:.4},{d:.4}");
    }
    Ok(body)
}

// ---------------------------------------------------------------- F3

fn f3(runner: &ExperimentRunner) -> Result<String, SimError> {
    // Policy-major rows: the figure draws one line per policy.
    let mut rows = Vec::new();
    for sched in policy_suite(default_slowdown()) {
        let pools = [0u64, 128, 256, 512, 1024].map(|gib| {
            let key = vec![sched.memory.name().to_string(), gib.to_string()];
            (
                key,
                if gib == 0 {
                    PoolTopology::None
                } else {
                    per_rack(gib)
                },
            )
        });
        let grid = base("f3", LOAD).scheduler(sched);
        rows.extend(sweep(runner, grid, ExperimentBuilder::pool, pools)?);
    }
    let cols = [
        MEAN_WAIT,
        ("p95_wait_s", 12, |r| fixed(r.p95_wait_s, 0)),
        P95_BSLD,
    ];
    Ok(report_table(
        &[("policy", 14), ("pool_gib", 10)],
        &cols,
        &rows,
    ))
}

// ---------------------------------------------------------------- F4

fn f4(runner: &ExperimentRunner) -> Result<String, SimError> {
    let mut rows = Vec::new();
    for load in [0.7, 0.8, LOAD, 1.0, 1.1] {
        let grid = base("f4", load).pool(per_rack(BASE_POOL_GIB));
        let scheds = by_memory(policy_suite(default_slowdown()), fixed(load, 2));
        rows.extend(sweep(runner, grid, ExperimentBuilder::scheduler, scheds)?);
    }
    let cols = [MEAN_WAIT, P95_BSLD, NODE_UTIL];
    Ok(report_table(&[("policy", 14), ("load", 6)], &cols, &rows))
}

// ---------------------------------------------------------------- F5

fn f5(runner: &ExperimentRunner) -> Result<String, SimError> {
    // Shrink node DRAM while a fixed pool compensates: does disaggregation
    // let you buy thinner nodes? One row per (policy, DRAM) point.
    let (racks, npr, cores, _) = PRESET.machine();
    let mut rows = Vec::new();
    for memory in [
        MemoryPolicy::LocalOnly,
        MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
    ] {
        let clusters = [128u64, 192, 256, 384, 512].map(|dram| {
            let node = NodeSpec::new(cores, dram * GIB);
            let spec = ClusterSpec::new(racks, npr, node, per_rack(BASE_POOL_GIB));
            let key = vec![memory.name().to_string(), dram.to_string()];
            (key, (format!("dram-{dram}gib"), spec))
        });
        let grid = base("f5", LOAD).scheduler(sched_with(memory, default_slowdown()));
        let add = |b: ExperimentBuilder, (label, spec)| b.cluster(label, spec);
        rows.extend(sweep(runner, grid, add, clusters)?);
    }
    let jobs_per_day: Col<SimReport> =
        ("jobs_per_day", 12, |r| fixed(r.throughput_jobs_per_day, 0));
    let cols = [NODE_UTIL, MEAN_WAIT, jobs_per_day, BORROWED];
    Ok(report_table(
        &[("policy", 14), ("dram_gib", 9)],
        &cols,
        &rows,
    ))
}

// ---------------------------------------------------------------- F6

fn f6(runner: &ExperimentRunner) -> Result<String, SimError> {
    // The local-only reference (penalty-independent) leads.
    let local = sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None);
    let grid = base("f6-baseline", LOAD).pool(PoolTopology::None);
    let baseline = by_memory([local], "-".into());
    let mut rows = sweep(runner, grid, ExperimentBuilder::scheduler, baseline)?;
    // The penalty sweep is a scheduler axis: memory policy × slowdown model.
    for memory in [
        MemoryPolicy::PoolFirstFit,
        MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
    ] {
        let scheds = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0].map(|penalty| {
            let model = SlowdownModel::Saturating {
                penalty,
                curvature: 3.0,
            };
            (
                vec![memory.name().to_string(), fixed(penalty, 1)],
                sched_with(memory, model),
            )
        });
        let grid = base("f6", LOAD).pool(per_rack(BASE_POOL_GIB));
        rows.extend(sweep(runner, grid, ExperimentBuilder::scheduler, scheds)?);
    }
    let cols: [Col<SimReport>; 4] = [
        ("makespan_h", 11, |r| fixed(r.makespan_h, 1)),
        MEAN_WAIT,
        ("mean_dil", 11, |r| {
            fixed(r.mean_dilation_borrowers.max(1.0), 3)
        }),
        BORROWED,
    ];
    Ok(report_table(
        &[("policy", 14), ("penalty", 8)],
        &cols,
        &rows,
    ))
}

// ---------------------------------------------------------------- F7

fn f7(runner: &ExperimentRunner) -> Result<String, SimError> {
    let grid =
        base("f7", LOAD).scheduler(sched_with(MemoryPolicy::PoolFirstFit, default_slowdown()));
    let pools = [128u64, 512].map(|gib| (gib, per_rack(gib)));
    let mut body = String::from("pool_gib,hour,pool_util\n");
    for (gib, out) in sweep(runner, grid, ExperimentBuilder::pool, pools)? {
        for (h, u) in out.series.pool_util_series(out.end_time, SUMMARY_POINTS) {
            let _ = writeln!(body, "{gib},{h:.2},{u:.4}");
        }
    }
    Ok(body)
}

// ---------------------------------------------------------------- F8

fn f8(runner: &ExperimentRunner) -> Result<String, SimError> {
    let local = one_cell(
        runner,
        base("f8-baseline", LOAD)
            .pool(PoolTopology::None)
            .scheduler(sched_with(MemoryPolicy::LocalOnly, SlowdownModel::None)),
    )?;
    let aware = one_cell(
        runner,
        base("f8-aware", LOAD)
            .pool(per_rack(BASE_POOL_GIB))
            .scheduler(sched_with(
                MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
                default_slowdown(),
            )),
    )?;
    let classes =
        JobClass::ALL.map(|c| (c, local.report.classes.row(c), aware.report.classes.row(c)));
    let cols: [Col<(JobClass, &ClassRow, &ClassRow)>; 6] = [
        ("jobs", 6, |(_, b, _)| b.jobs.to_string()),
        ("wait_local_s", 14, |(_, b, _)| fixed(b.mean_wait_s, 0)),
        ("wait_aware_s", 14, |(_, _, a)| fixed(a.mean_wait_s, 0)),
        ("speedup", 9, |(_, b, a)| {
            let speedup = if a.mean_wait_s > 0.0 {
                b.mean_wait_s / a.mean_wait_s
            } else if b.mean_wait_s > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            format!("{speedup:.2}x")
        }),
        ("borrowed%", 10, |(_, _, a)| pct(a.borrowed_fraction)),
        ("inflated%", 10, |(_, b, _)| pct(b.inflated_fraction)),
    ];
    let rows = classes
        .iter()
        .map(|row| (vec![row.0.name().to_string()], row));
    Ok(layout(&[("class", 12)], &cols, rows))
}

// ---------------------------------------------------------------- F9

fn f9(runner: &ExperimentRunner) -> Result<String, SimError> {
    let total = BASE_POOL_GIB * 8; // same total capacity, different layout
    let grid =
        base("f9", LOAD).scheduler(sched_with(MemoryPolicy::PoolBestFit, default_slowdown()));
    let pools = [
        ("none", PoolTopology::None),
        ("per-rack-512", per_rack(BASE_POOL_GIB)),
        ("global-4096", PoolTopology::Global { mib: total * GIB }),
    ]
    .map(|(name, pool)| (vec![name.to_string()], pool));
    let rows = sweep(runner, grid, ExperimentBuilder::pool, pools)?;
    let cols = [
        MEAN_WAIT,
        P95_BSLD,
        NODE_UTIL,
        ("pool_util", 10, |r| fixed(r.pool_util, 3)),
        BORROWED,
    ];
    Ok(report_table(&[("topology", 14)], &cols, &rows))
}

// ---------------------------------------------------------------- T2, A1–A3

/// The whole-report columns t2, a1 and a2 print after their policy key.
const REPORT_COLS: [Col<SimReport>; 11] = [
    ("done", 5, |r| r.completed.to_string()),
    ("kill", 5, |r| r.killed.to_string()),
    ("rej", 4, |r| r.rejected.to_string()),
    ("mean_w_s", 10, |r| fixed(r.mean_wait_s, 0)),
    ("p95_w_s", 10, |r| fixed(r.p95_wait_s, 0)),
    ("p95_bsld", 9, |r| fixed(r.p95_bsld, 2)),
    ("node_ut", 9, |r| fixed(r.node_util, 3)),
    ("pool_ut", 9, |r| fixed(r.pool_util, 3)),
    ("borrow%", 9, |r| pct(r.borrowed_fraction)),
    ("infl%", 9, |r| pct(r.inflated_fraction)),
    ("fair", 9, |r| fixed(r.user_fairness, 3)),
];

/// Sweep `scheds` on the base grid with 512 GiB/rack pools, keyed by the
/// label each is printed under.
fn scheduler_rows(
    runner: &ExperimentRunner,
    name: &'static str,
    scheds: impl IntoIterator<Item = (String, SchedulerConfig)>,
) -> Result<Vec<(Vec<String>, SimOutput)>, SimError> {
    let grid = base(name, LOAD).pool(per_rack(BASE_POOL_GIB));
    let points = scheds.into_iter().map(|(key, s)| (vec![key], s));
    sweep(runner, grid, ExperimentBuilder::scheduler, points)
}

/// A [`REPORT_COLS`] table of `scheds`, each keyed by its policy label.
fn policy_table(
    runner: &ExperimentRunner,
    name: &'static str,
    scheds: impl IntoIterator<Item = SchedulerConfig>,
) -> Result<String, SimError> {
    let rows = scheduler_rows(runner, name, scheds.into_iter().map(|s| (s.label(), s)))?;
    Ok(report_table(&[("policy", 28)], &REPORT_COLS, &rows))
}

fn t2(runner: &ExperimentRunner) -> Result<String, SimError> {
    policy_table(runner, "t2", policy_suite(default_slowdown()))
}

fn a1(runner: &ExperimentRunner) -> Result<String, SimError> {
    let scheds = [true, false].map(|inflate| {
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolFirstFit)
            .slowdown(default_slowdown())
            .inflate_walltime(inflate)
            .build();
        (format!("pool-ff inflate={inflate}"), sched)
    });
    let rows = scheduler_rows(runner, "a1", scheds)?;
    Ok(report_table(&[("policy", 28)], &REPORT_COLS, &rows))
}

fn a2(runner: &ExperimentRunner) -> Result<String, SimError> {
    let backfills = [
        BackfillPolicy::None,
        BackfillPolicy::Easy,
        BackfillPolicy::Conservative,
    ];
    let scheds = backfills.map(|backfill| {
        SchedulerBuilder::new()
            .order(OrderPolicy::Fcfs)
            .backfill(backfill)
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(default_slowdown())
            .build()
    });
    policy_table(runner, "a2", scheds)
}

fn a3(runner: &ExperimentRunner) -> Result<String, SimError> {
    let contention = |gamma| SlowdownModel::Contention {
        penalty: 1.5,
        gamma,
    };
    let models = [
        ("static-linear-1.5", SlowdownModel::Linear { penalty: 1.5 }),
        ("contention-g1", contention(1.0)),
        ("contention-g2", contention(2.0)),
    ];
    let scheds =
        models.map(|(name, m)| (name.to_string(), sched_with(MemoryPolicy::PoolFirstFit, m)));
    let rows = scheduler_rows(runner, "a3", scheds)?;
    let cols = [
        MEAN_WAIT,
        P95_BSLD,
        ("mean_dil", 12, |r| {
            fixed(r.mean_dilation_borrowers.max(1.0), 3)
        }),
        ("kill", 6, |r| r.killed.to_string()),
    ];
    Ok(report_table(&[("model", 20)], &cols, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table's body on a runner with no cache.
    fn body(id: &str) -> String {
        (table(id).unwrap().body)(&ExperimentRunner::new()).unwrap()
    }

    #[test]
    fn table_registry_names_each_table_once() {
        let mut ids: Vec<&str> = TABLES.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 14);
        assert!(table("zzz").is_none());
        assert_eq!(table("f6").unwrap().id, "f6");
    }

    #[test]
    fn t1_runs_quickly_and_shapes() {
        assert_eq!(body("t1").lines().count(), 4, "header + 3 presets");
    }

    #[test]
    fn f1_is_csv_cdf() {
        let body = body("f1");
        let lines: Vec<&str> = body.trim().lines().collect();
        assert_eq!(lines[0], "mem_frac_of_node,cdf");
        assert!(lines.len() > 10);
    }

    #[test]
    fn layout_declares_each_column_once() {
        let cols: [Col<f64>; 2] = [("v", 6, |v| fixed(*v, 2)), ("share%", 7, |v| pct(*v))];
        let rows = [0.5, 12.25];
        let keyed = rows.iter().map(|v| (vec![format!("k{v}")], v));
        assert_eq!(
            layout(&[("key", 5)], &cols, keyed),
            "key        v  share%\n\
             k0.5    0.50   50.0%\n\
             k12.25  12.25 1225.0%\n"
        );
    }

    #[test]
    fn smoke_spec_compiles_and_serializes() {
        let spec = smoke_spec().unwrap();
        assert_eq!(
            spec.cell_count(),
            8,
            "2 pools × 1 load × 2 seeds × 2 schedulers"
        );
        assert_eq!(spec.compile().unwrap().len(), spec.cell_count());
        // The CI smoke writes/reads this spec as JSON.
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.cell_hashes().unwrap(), spec.cell_hashes().unwrap());
    }

    #[test]
    fn smoke_contention_spec_compiles_and_differs_from_smoke() {
        let spec = smoke_contention_spec().unwrap();
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.compile().unwrap();
        assert!(cells
            .iter()
            .all(|c| c.config.scheduler.slowdown.is_dynamic()));
        // Distinct scheduler configs ⇒ disjoint cache keys from `smoke`.
        let smoke_hashes: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        for (_, h) in spec.cell_hashes().unwrap() {
            assert!(!smoke_hashes.contains(&h));
        }
    }

    #[test]
    fn smoke_service_spec_baseline_shares_smoke_cache_keys() {
        let spec = smoke_service_spec().unwrap();
        assert_eq!(spec.cell_count(), 2 * smoke_spec().unwrap().cell_count());
        let smoke: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        let mut baseline = 0;
        for (key, h) in spec.cell_hashes().unwrap() {
            if key.service.is_none() {
                baseline += 1;
                assert!(
                    smoke.contains(&h),
                    "closed-baseline cells reuse smoke cache entries"
                );
            } else {
                assert!(!smoke.contains(&h), "open cells get their own cache keys");
            }
        }
        assert_eq!(baseline * 2, spec.cell_count(), "half the cells are closed");
    }

    /// FNV-1a over `text`'s bytes.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |digest, b| {
            (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the text `repro grid <spec> --list` prints: every
    /// cell's hash and label, in grid order.
    fn listing_digest(spec: &ExperimentSpec) -> u64 {
        let listing: String = (spec.cell_hashes().unwrap().into_iter())
            .map(|(key, hash)| format!("{hash:016x}  {}\n", key.label()))
            .collect();
        fnv(&listing)
    }

    #[test]
    fn builtin_grids_compile_to_their_pinned_cells() {
        // Captured from the listings of the tree whose grids crossed
        // separate fault, service and fleet axes: one scenario axis must
        // give every built-in grid the same cells, labels and hashes in
        // the same order.
        let pinned: [(&str, usize, u64); 7] = [
            ("smoke", 8, 0x8079_0b51_4c56_f4f1),
            ("smoke-contention", 8, 0x1891_6e7a_6d50_8cd9),
            ("smoke-faults", 16, 0x2358_d8da_2c6f_16ed),
            ("smoke-service", 16, 0xead9_8f7f_9eb2_afef),
            ("smoke-deadline", 8, 0xfb33_96d3_4fbb_239a),
            ("smoke-admission", 8, 0xcbbc_3b29_ce55_1d7d),
            ("smoke-fleet", 16, 0xd2ff_d797_f273_f527),
        ];
        for ((name, build), (pinned_name, cells, digest)) in GRIDS.iter().zip(pinned) {
            assert_eq!(*name, pinned_name);
            let spec = build().unwrap();
            assert_eq!(
                spec.name, *name,
                "a grid's builder names its spec as the registry does"
            );
            assert_eq!(spec.cell_count(), cells, "{name}");
            assert_eq!(listing_digest(&spec), digest, "{name}");
        }
    }

    #[test]
    fn default_service_scenario_validates_and_resolves_seeds() {
        default_service_scenario().validate().unwrap();
        assert_eq!(
            default_service_scenario().seed,
            None,
            "stream seed left to the grid's seed axis"
        );
        // Every open cell in the smoke grid carries a resolved stream seed.
        for cell in smoke_service_spec().unwrap().compile().unwrap() {
            if !cell.service.is_none() {
                assert_eq!(cell.service.seed, cell.key.seed);
            }
        }
    }

    #[test]
    fn smoke_fleet_spec_baseline_shares_smoke_cache_keys() {
        let spec = smoke_fleet_spec().unwrap();
        assert_eq!(spec.cell_count(), 2 * smoke_spec().unwrap().cell_count());
        let smoke: Vec<u64> = smoke_spec()
            .unwrap()
            .cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect();
        let mut baseline = 0;
        for (key, h) in spec.cell_hashes().unwrap() {
            if key.fleet.is_none() {
                baseline += 1;
                assert!(
                    smoke.contains(&h),
                    "no-fleet baseline cells reuse smoke cache entries"
                );
            } else {
                assert!(!smoke.contains(&h), "federated cells get their own keys");
            }
        }
        assert_eq!(baseline * 2, spec.cell_count(), "half the cells are plain");
    }

    #[test]
    fn default_fleet_scenario_validates_against_smoke_clusters() {
        let fleet = default_fleet_scenario();
        fleet.validate().unwrap();
        assert_eq!(fleet.sites.len(), 4);
        for cluster in &smoke_spec().unwrap().clusters {
            fleet.validate_for(&cluster.1).unwrap();
        }
    }

    #[test]
    fn smoke_deadline_spec_sweeps_only_ordering() {
        let spec = smoke_deadline_spec().unwrap();
        assert_eq!(
            spec.cell_count(),
            8,
            "1 pool × 1 load × 2 seeds × 4 orderings"
        );
        let cells = spec.compile().unwrap();
        // Every cell is open and stamps per-job budget-factor deadlines.
        for cell in &cells {
            assert!(!cell.service.is_none());
            assert_eq!(cell.service.slo_budget_factor, Some((1.5, 4.0)));
            assert_eq!(cell.service.seed, cell.key.seed);
        }
        let orders: std::collections::BTreeSet<&'static str> = cells
            .iter()
            .map(|c| c.config.scheduler.order.name())
            .collect();
        assert_eq!(
            orders.into_iter().collect::<Vec<_>>(),
            ["batch-budget", "edf", "fcfs", "llf"]
        );
        // Round-trips through JSON with identical cache keys, like the
        // other CI smoke grids.
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.cell_hashes().unwrap(), spec.cell_hashes().unwrap());
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dmhpc-tables-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every table prints the bytes pinned (as the FNV-1a digest of its
    /// body) from the tree before the tables shared one printer, and a warm
    /// run through the same cache directory prints them again.
    #[test]
    fn every_table_is_pinned_cold_and_warm() {
        let pinned: [(&str, u64); 14] = [
            ("t1", 0x3f22_11a2_0c6d_1b0d),
            ("f1", 0x01e9_7ca9_99d6_dde9),
            ("f2", 0xfb6b_3d29_64dd_d522),
            ("f3", 0xfd58_9864_1334_0a4c),
            ("f4", 0x060a_8850_187b_8dbf),
            ("f5", 0x9bdd_6398_6690_1b22),
            ("f6", 0x3a40_eeba_d114_51be),
            ("f7", 0x8e45_c5de_6209_cbec),
            ("f8", 0xe12d_6de3_6f72_1ffa),
            ("f9", 0x7b6f_1695_a0d7_e992),
            ("t2", 0xe2bf_dee7_b916_1c5a),
            ("a1", 0xe1da_eef7_9694_382c),
            ("a2", 0x6e3e_06c1_218c_4eab),
            ("a3", 0x9080_85ed_fed6_e610),
        ];
        let dir = tmp_dir("pinned");
        let runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
        for (table, (id, digest)) in TABLES.iter().zip(pinned) {
            assert_eq!(table.id, id);
            let cold = (table.body)(&runner).unwrap();
            assert_eq!(fnv(&cold), digest, "{id} prints its pinned bytes:\n{cold}");
            let warm = (table.body)(&runner).unwrap();
            assert_eq!(cold, warm, "{id}: cached replay reproduces the table");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store that fails mid-run is a typed error of the table, not a
    /// panic: the runner's cache directory is replaced by a plain file
    /// after the runner is built, so storing a cell fails with `ENOTDIR`
    /// (which holds even for root).
    #[test]
    fn a_failed_cache_store_is_a_table_error() {
        let dir = tmp_dir("enotdir");
        let runner = ExperimentRunner::with_threads(1).cache_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, "not a directory").unwrap();
        let err = (table("f2").unwrap().body)(&runner).unwrap_err();
        assert!(err.to_string().contains("writing"), "{err}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn base_grid_declares_the_standard_cell() {
        let spec = base("probe", LOAD)
            .pool(per_rack(BASE_POOL_GIB))
            .policy_suite(default_slowdown())
            .build()
            .unwrap();
        assert_eq!(spec.cell_count(), 4, "1 cluster × 1 load × 1 seed × suite");
        assert_eq!(spec.seeds, vec![SEED]);
        assert_eq!(spec.loads, vec![LOAD]);
    }
}
