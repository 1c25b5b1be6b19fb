//! Federated multi-cluster simulation: N sites behind one meta-scheduler.
//!
//! A [`FleetSpec`] describes a *fleet*: N sites, each an independent
//! cluster with its own scheduler, fed by a single arrival stream. A
//! deterministic meta-scheduler (a [`dmhpc_sched::MetaPolicy`]) routes
//! every arriving job to exactly one site; each site then schedules it
//! with its own policy triple, oblivious to the rest of the fleet.
//!
//! # Epoch-synchronized execution
//!
//! Sites advance in conservative lockstep **epochs** of `epoch_s`
//! simulated seconds. Fleet time is divided into barriers
//! `t_k = origin + k·epoch`; a job with `arrival ∈ [t_k, t_k + epoch)`
//! belongs to epoch `k` and is routed **at barrier `t_k`**, after every
//! site has simulated all events strictly before `t_k`:
//!
//! 1. all sites advance to the barrier (events `< t_k`),
//! 2. each site is snapshotted ([`dmhpc_sched::SiteSnapshot`]: queue
//!    depth, free nodes, memory pressure),
//! 3. the meta-policy routes the epoch's jobs in arrival order against
//!    those snapshots (adjusted in-batch via `note_routed`), and each
//!    routed job is injected into its site *at its true arrival time*,
//! 4. sites simulate the epoch (up to the next barrier of interest —
//!    barriers with no arrivals are skipped wholesale, which changes
//!    nothing observable because no routing decision falls in them).
//!
//! Routing therefore sees site state that is `≤ epoch_s` stale — the
//! conservative-synchronization trade every parallel DES makes — but it
//! is a **pure function of the spec and seed**: snapshots are taken at
//! deterministic instants, routing order is arrival order, and ties
//! break by site index. Results are byte-identical from 1 to N worker
//! threads and across event-queue backends (tested).
//!
//! # Parallelism
//!
//! One epoch loop serves every thread count W. Sites are dealt round-robin
//! into W groups (site `i` in group `i mod W`); each group's engines live
//! on one thread for the whole run and exchange only plain data (routed
//! jobs in, snapshots out) at barriers. The calling thread routes and
//! advances group 0 itself; groups `1..W` run on scoped threads. At
//! W = 1 nothing is spawned, so the serial run is this same loop.
//! [`FleetSimulation::workers`] clamps W to the host's available
//! parallelism and each run clamps it to the site count, so a fleet
//! never asks for more threads than cores.

use crate::collector::SeriesBundle;
use crate::config::SimConfig;
use crate::engine::{Engine, SimOutput};
use crate::error::SimError;
use crate::faults::FaultSpec;
use crate::fnv::Fnv64;
use crate::service::ServiceSpec;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_metrics::{ClassThresholds, FaultSummary, RunData, SimReport};
use dmhpc_platform::ClusterSpec;
use dmhpc_sched::{MetaPolicy, MetaPolicyKind, Scheduler, SchedulerConfig, SiteSnapshot};
use dmhpc_workload::{Job, Workload};
use std::sync::mpsc;

/// One site of a fleet: a label plus optionally pinned machine shape and
/// scheduler. `None` fields inherit the enclosing experiment cell's
/// cluster / scheduler axes, so a symmetric fleet crosses meaningfully
/// with every existing axis; pinning them builds heterogeneous fleets.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site name for per-site reporting (must be unique in the fleet).
    // lint: allow(hash-field) — presentation-only site name; cell identity hashes the site's cluster, scheduler, and weight
    pub label: String,
    /// Machine shape; `None` inherits the cell's cluster.
    pub cluster: Option<ClusterSpec>,
    /// Scheduling policy; `None` inherits the cell's scheduler.
    pub scheduler: Option<SchedulerConfig>,
}

impl SiteSpec {
    /// A site inheriting both the cell's cluster and scheduler.
    pub fn inherit(label: impl Into<String>) -> Self {
        SiteSpec {
            label: label.into(),
            cluster: None,
            scheduler: None,
        }
    }
}

/// A federated fleet scenario: the sites, the epoch length, and the
/// meta-scheduling policy. Follows the same axis conventions as
/// [`FaultSpec`] / [`ServiceSpec`]: [`FleetSpec::none`] means "no
/// federation" and is **hash-neutral** — fleet-free cells hash and replay
/// bit-identically to pre-federation caches.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The sites, in fleet order (site index = position).
    pub sites: Vec<SiteSpec>,
    /// Epoch length in simulated seconds: how stale routing snapshots may
    /// get, and the granularity of the conservative lockstep.
    pub epoch_s: f64,
    /// The meta-scheduling policy routing jobs to sites.
    pub policy: MetaPolicyKind,
}

impl FleetSpec {
    /// The no-federation marker (hash-neutral; single-cluster run).
    pub fn none() -> Self {
        FleetSpec {
            sites: Vec::new(),
            epoch_s: 0.0,
            policy: MetaPolicyKind::default(),
        }
    }

    /// True when this is [`FleetSpec::none`].
    pub fn is_none(&self) -> bool {
        self.sites.is_empty()
    }

    /// A fleet of `n` sites inheriting the cell's cluster and scheduler.
    pub fn symmetric(n: usize, epoch_s: f64, policy: MetaPolicyKind) -> Self {
        FleetSpec {
            sites: (0..n)
                .map(|i| SiteSpec::inherit(format!("site{i}")))
                .collect(),
            epoch_s,
            policy,
        }
    }

    /// Add a site with a pinned cluster and/or scheduler.
    pub fn with_site(
        mut self,
        label: impl Into<String>,
        cluster: Option<ClusterSpec>,
        scheduler: Option<SchedulerConfig>,
    ) -> Self {
        self.sites.push(SiteSpec {
            label: label.into(),
            cluster,
            scheduler,
        });
        self
    }

    /// Axis label, e.g. `fleet4-least-queue-e300`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "no-fleet".into();
        }
        format!(
            "fleet{}-{}-e{}",
            self.sites.len(),
            self.policy.name(),
            self.epoch_s
        )
    }

    /// Intrinsic validation (cluster-independent). [`FleetSpec::none`]
    /// is always valid.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.is_none() {
            return Ok(());
        }
        if !(self.epoch_s.is_finite() && self.epoch_s > 0.0) {
            return Err(SimError::spec(format!(
                "fleet epoch must be a positive finite number of seconds, got {}",
                self.epoch_s
            )));
        }
        for (i, site) in self.sites.iter().enumerate() {
            if site.label.is_empty() {
                return Err(SimError::spec(format!("fleet site {i} has an empty label")));
            }
            if self.sites[..i].iter().any(|s| s.label == site.label) {
                return Err(SimError::spec(format!(
                    "duplicate fleet site label '{}'",
                    site.label
                )));
            }
            if let Some(c) = &site.cluster {
                c.validate()?;
            }
            if let Some(s) = &site.scheduler {
                s.slowdown.validate()?;
            }
        }
        Ok(())
    }

    /// Validation against the cluster the unpinned sites would inherit.
    pub fn validate_for(&self, cluster: &ClusterSpec) -> Result<(), SimError> {
        self.validate()?;
        if !self.is_none() {
            cluster.validate()?;
        }
        Ok(())
    }

    /// Total nodes across the fleet, with unpinned sites resolved against
    /// `inherited` — the capacity offered-load scaling is relative to.
    pub fn total_nodes(&self, inherited: &ClusterSpec) -> u32 {
        self.sites
            .iter()
            .map(|s| s.cluster.as_ref().unwrap_or(inherited).total_nodes())
            .sum()
    }
}

/// A runnable fleet: resolved sites plus execution knobs. Construction
/// validates everything ([`SimError`]), so [`FleetSimulation::run`] is
/// infallible — the same convention as [`crate::Simulation`].
#[derive(Debug)]
pub struct FleetSimulation {
    sites: Vec<ResolvedSite>,
    base: SimConfig,
    epoch: SimDuration,
    policy: MetaPolicyKind,
    workers: usize,
}

/// One site with inheritance applied: a complete per-site [`SimConfig`].
#[derive(Debug, Clone)]
struct ResolvedSite {
    label: String,
    cfg: SimConfig,
}

/// Everything a fleet run produces: the per-site outputs (one full
/// [`SimOutput`] per site, byte-identical to what that site would report
/// standalone given the same injected jobs) plus a synthesized aggregate.
#[derive(Debug, Clone)]
pub struct FleetOutput {
    /// Site labels, in fleet order.
    pub site_labels: Vec<String>,
    /// Per-site outputs, in fleet order.
    pub site_outputs: Vec<SimOutput>,
    /// Jobs routed to each site, in fleet order.
    pub routed_jobs: Vec<u64>,
    /// Fleet-level view: merged records, capacity-weighted utilizations,
    /// fleet makespan, and a combined trace hash (FNV-1a over the
    /// per-site hashes in site order — equal hashes ⇒ identical fleet
    /// runs).
    pub aggregate: SimOutput,
}

impl FleetSimulation {
    /// Resolve `fleet` against `base` (the config unpinned sites
    /// inherit; its `event_queue`, `enforce_walltime`, and
    /// `check_invariants` knobs apply to every site).
    pub fn new(fleet: &FleetSpec, base: SimConfig) -> Result<Self, SimError> {
        if fleet.is_none() {
            return Err(SimError::spec(
                "fleet spec has no sites (use Simulation for single-cluster runs)",
            ));
        }
        fleet.validate_for(&base.cluster)?;
        let sites = fleet
            .sites
            .iter()
            .map(|s| {
                let mut cfg = base;
                if let Some(c) = &s.cluster {
                    cfg.cluster = *c;
                }
                if let Some(sc) = &s.scheduler {
                    cfg.scheduler = *sc;
                }
                // Per-site schedulers must construct cleanly now so the
                // run (possibly on a group thread) cannot fail.
                Scheduler::new(cfg.scheduler)?;
                Ok(ResolvedSite {
                    label: s.label.clone(),
                    cfg,
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(FleetSimulation {
            sites,
            base,
            // At least one microsecond, so barriers always advance.
            epoch: SimDuration::from_micros(
                SimDuration::from_secs_f64(fleet.epoch_s).as_micros().max(1),
            ),
            policy: fleet.policy,
            workers: 1,
        })
    }

    /// Set the thread count, clamped to `[1, available_parallelism]`
    /// (and, per run, to the site count), so a fleet never asks for more
    /// threads than the host has cores. The calling thread advances one
    /// group of sites itself. Purely an execution knob: results are
    /// byte-identical at any setting.
    pub fn workers(mut self, n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        self.workers = n.clamp(1, cores);
        self
    }

    /// Site labels in fleet order.
    pub fn site_labels(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.label.clone()).collect()
    }

    /// Simulate the workload across the fleet to completion.
    pub fn run(&self, workload: &Workload) -> FleetOutput {
        let origin = workload.first_arrival().unwrap_or(SimTime::ZERO);
        let mut router = Router {
            jobs: workload.jobs(),
            cursor: 0,
            origin_us: origin.as_micros(),
            epoch_us: self.epoch.as_micros(),
            policy: self.policy.build(),
            routed: vec![0u64; self.sites.len()],
        };
        let site_outputs = run_epochs(&self.sites, self.threads(), origin, &mut router);
        let aggregate = self.aggregate(origin, &site_outputs);
        FleetOutput {
            site_labels: self.site_labels(),
            site_outputs,
            routed_jobs: router.routed,
            aggregate,
        }
    }

    /// Threads a run uses, the calling thread included: the configured
    /// count, at most one per site.
    fn threads(&self) -> usize {
        self.workers.min(self.sites.len())
    }

    /// Synthesize the fleet-level [`SimOutput`] from the per-site ones.
    ///
    /// Records are concatenated in site order; utilizations are
    /// capacity-and-time weighted over the fleet window (each site's
    /// busy resource-seconds recovered as `util × capacity × site
    /// makespan`); the queue-depth integral sums across sites; the
    /// queue-depth max is the deepest single-site queue (a cross-site
    /// instantaneous sum is not recoverable from summaries). The trace
    /// hash chains the per-site hashes with FNV-1a in site order.
    fn aggregate(&self, origin: SimTime, outputs: &[SimOutput]) -> SimOutput {
        let end_time = outputs
            .iter()
            .map(|o| o.end_time)
            .fold(origin, SimTime::max_of);
        // Sites are fault-free and share the fleet origin, so each
        // site's makespan is exactly its last event time minus origin.
        let site_span = |o: &SimOutput| o.end_time.saturating_since(origin).as_secs_f64();
        let makespan_s = end_time.saturating_since(origin).as_secs_f64();
        let mut busy_node_s = 0.0f64;
        let mut busy_pool_s = 0.0f64;
        let mut busy_dram_s = 0.0f64;
        let mut nodes = 0.0f64;
        let mut pool_mem = 0.0f64;
        let mut dram_mem = 0.0f64;
        let mut queue_integral = 0.0f64;
        let mut queue_max = 0.0f64;
        let mut records = Vec::new();
        let mut events_processed = 0u64;
        let mut passes = 0u64;
        let mut preemptions = 0u64;
        let mut trace_hash = Fnv64::new();
        for (site, out) in self.sites.iter().zip(outputs) {
            let span = site_span(out);
            let n = site.cfg.cluster.total_nodes() as f64;
            let pool = site.cfg.cluster.total_pool_mem() as f64;
            let dram = site.cfg.cluster.total_local_mem() as f64;
            busy_node_s += out.report.node_util * n * span;
            busy_pool_s += out.report.pool_util * pool * span;
            busy_dram_s += out.report.dram_util * dram * span;
            nodes += n;
            pool_mem += pool;
            dram_mem += dram;
            queue_integral += out.report.queue_depth_mean * span;
            queue_max = queue_max.max(out.report.queue_depth_max);
            records.extend(out.records.iter().cloned());
            events_processed += out.events_processed;
            passes += out.passes;
            preemptions += out.preemptions;
            trace_hash.write_u64(out.trace_hash);
        }
        let frac = |num: f64, cap: f64| {
            if cap > 0.0 && makespan_s > 0.0 {
                num / (cap * makespan_s)
            } else {
                0.0
            }
        };
        let node_util = frac(busy_node_s, nodes);
        let data = RunData {
            label: self.base.scheduler.label(),
            records,
            makespan_s,
            node_util,
            pool_util: frac(busy_pool_s, pool_mem),
            dram_util: frac(busy_dram_s, dram_mem),
            queue_depth_mean: if makespan_s > 0.0 {
                queue_integral / makespan_s
            } else {
                0.0
            },
            queue_depth_max: queue_max,
            // Fleets carry no fault scenario (excluded at the spec
            // level), so the summary is the fault-free default with
            // avail_util == node_util.
            faults: FaultSummary {
                avail_util: node_util,
                ..FaultSummary::default()
            },
        };
        let thresholds = ClassThresholds::standard(self.base.cluster.node.local_mem);
        SimOutput {
            report: SimReport::compute(&data, &thresholds),
            records: data.records,
            series: SeriesBundle::new(origin, &self.base.cluster),
            events_processed,
            passes,
            trace_hash: trace_hash.finish(),
            end_time,
            faults: data.faults,
            preemptions,
            service: None,
        }
    }
}

/// The per-site owned state a site [`Engine`] borrows from. Fleet sites
/// never carry faults, services, or extra observers — those attach at the
/// fleet level (or not at all) so site traces stay bit-identical to
/// standalone runs; the none specs live here so the engine's borrowed
/// fields have a stable home.
struct SiteRuntime {
    cfg: SimConfig,
    scheduler: Scheduler,
    faults: FaultSpec,
    service: ServiceSpec,
}

impl SiteRuntime {
    fn new(cfg: SimConfig) -> Self {
        SiteRuntime {
            // lint: allow(panic) — compile()/FleetSpec validation vetted every site scheduler
            scheduler: Scheduler::new(cfg.scheduler).expect("fleet site scheduler validated"),
            faults: FaultSpec::none(),
            service: ServiceSpec::none(),
            cfg,
        }
    }

    /// A site engine with no arrival source (jobs come by injection) and
    /// its clock pinned to the fleet `origin`.
    fn engine(&self, origin: SimTime) -> Engine<'_, 'static> {
        Engine::new(
            &self.cfg,
            &self.scheduler,
            &self.faults,
            &self.service,
            None,
            &mut [],
            Some(origin),
        )
    }
}

/// Routes the arrival stream epoch by epoch, tracking the cursor into
/// the (arrival-sorted) job list and the per-site routing tallies.
struct Router<'a> {
    jobs: &'a [Job],
    cursor: usize,
    origin_us: u64,
    epoch_us: u64,
    policy: Box<dyn MetaPolicy>,
    routed: Vec<u64>,
}

impl Router<'_> {
    /// The barrier opening the epoch the next unrouted job falls in;
    /// `None` when every job is routed. Jumping straight here skips
    /// arrival-free epochs — no routing decision can fall in them, so
    /// the event-level execution is identical.
    fn next_barrier(&self) -> Option<SimTime> {
        let j = self.jobs.get(self.cursor)?;
        let k = (j.arrival.as_micros() - self.origin_us) / self.epoch_us;
        Some(SimTime::from_micros(self.origin_us + k * self.epoch_us))
    }

    /// Route every job arriving in `[barrier, barrier + epoch)`, in
    /// arrival order, adjusting `snaps` in-batch so later decisions see
    /// earlier ones.
    fn route_batch(&mut self, barrier: SimTime, snaps: &mut [SiteSnapshot]) -> Vec<(usize, Job)> {
        let end_us = barrier.as_micros().saturating_add(self.epoch_us);
        let mut batch = Vec::new();
        while let Some(j) = self.jobs.get(self.cursor) {
            if j.arrival.as_micros() >= end_us {
                break;
            }
            let site = self.policy.route(j, snaps);
            assert!(site < snaps.len(), "meta policy routed past the fleet");
            snaps[site].note_routed(j);
            self.routed[site] += 1;
            batch.push((site, j.clone()));
            self.cursor += 1;
        }
        batch
    }
}

/// The engines of the sites one thread owns: with `stride` groups, group
/// `index` holds sites `index, index + stride, …` (site `i` is in group
/// `i mod stride`, at position `i / stride`).
struct Group<'a> {
    index: usize,
    stride: usize,
    engines: Vec<Engine<'a, 'static>>,
}

/// A group's answer to one exchange, its sites in group order.
enum Reply {
    /// Barrier snapshots, after an advance.
    Snaps(Vec<SiteSnapshot>),
    /// Per-site outputs, after the final drain.
    Outputs(Vec<SimOutput>),
}

impl Reply {
    fn snaps(self) -> Vec<SiteSnapshot> {
        match self {
            Reply::Snaps(s) => s,
            Reply::Outputs(_) => unreachable!("a group drained before the last barrier"),
        }
    }

    fn outputs(self) -> Vec<SimOutput> {
        match self {
            Reply::Outputs(o) => o,
            Reply::Snaps(_) => unreachable!("a group advanced at the drain"),
        }
    }
}

impl<'a> Group<'a> {
    fn new(index: usize, stride: usize, runtimes: &'a [SiteRuntime], origin: SimTime) -> Self {
        Group {
            index,
            stride,
            engines: runtimes.iter().map(|rt| rt.engine(origin)).collect(),
        }
    }

    /// Inject this group's share of a routed batch; then advance every
    /// site to `until` and snapshot it, or, with `None`, drain every site.
    fn exchange(&mut self, jobs: Vec<(usize, Job)>, until: Option<SimTime>) -> Reply {
        for (site, job) in jobs {
            self.engines[site / self.stride].inject(job);
        }
        let Some(t) = until else {
            let engines = std::mem::take(&mut self.engines);
            return Reply::Outputs(engines.into_iter().map(Engine::finish).collect());
        };
        let (index, stride) = (self.index, self.stride);
        let snaps = self.engines.iter_mut().enumerate().map(|(k, e)| {
            e.advance_until(t);
            e.snapshot(index + k * stride)
        });
        Reply::Snaps(snaps.collect())
    }
}

/// The fleet's owned site state for group `index` of `stride`.
fn group_runtimes(sites: &[ResolvedSite], index: usize, stride: usize) -> Vec<SiteRuntime> {
    let mine = sites.iter().skip(index).step_by(stride);
    mine.map(|s| SiteRuntime::new(s.cfg)).collect()
}

/// Reassemble the groups' replies (group `g` answering for sites
/// `g, g + W, …`) into fleet order.
fn interleave<T>(replies: Vec<Reply>, part: fn(Reply) -> Vec<T>) -> Vec<T> {
    let stride = replies.len();
    let mut groups: Vec<_> = replies.into_iter().map(|r| part(r).into_iter()).collect();
    let total = groups.iter().map(ExactSizeIterator::len).sum();
    (0..total)
        // lint: allow(panic) — group g answers for exactly the sites ≡ g (mod W)
        .map(|i| groups[i % stride].next().expect("site in its group"))
        .collect()
}

/// The conservative-lockstep epoch loop for every thread count. The
/// calling thread owns group 0; groups `1..threads` each live on a scoped
/// thread for the whole run, reached over one command and one reply
/// channel. With one thread nothing is spawned and no channel opened. A
/// panicking site drops its reply sender, so the `recv` below fails and
/// the panic propagates instead of hanging the run.
fn run_epochs(
    sites: &[ResolvedSite],
    threads: usize,
    origin: SimTime,
    router: &mut Router,
) -> Vec<SimOutput> {
    type Cmd = (Vec<(usize, Job)>, Option<SimTime>);
    std::thread::scope(|scope| {
        let links: Vec<(mpsc::Sender<Cmd>, mpsc::Receiver<Reply>)> = (1..threads)
            .map(|g| {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                let (reply_tx, reply_rx) = mpsc::channel();
                scope.spawn(move || {
                    let runtimes = group_runtimes(sites, g, threads);
                    let mut group = Group::new(g, threads, &runtimes, origin);
                    while let Ok((jobs, until)) = cmd_rx.recv() {
                        if reply_tx.send(group.exchange(jobs, until)).is_err() || until.is_none() {
                            return;
                        }
                    }
                });
                (cmd_tx, reply_rx)
            })
            .collect();
        let runtimes = group_runtimes(sites, 0, threads);
        let mut local = Group::new(0, threads, &runtimes, origin);
        // One barrier: hand every group its share, advance group 0 here
        // while the others run, and collect the replies in group order.
        let mut exchange = |batch: Vec<(usize, Job)>, until: Option<SimTime>| -> Vec<Reply> {
            let mut shares: Vec<Vec<(usize, Job)>> = (0..threads).map(|_| Vec::new()).collect();
            for (site, job) in batch {
                shares[site % threads].push((site, job));
            }
            let mut shares = shares.into_iter();
            let mine = shares.next().unwrap_or_default();
            for ((cmd, _), jobs) in links.iter().zip(shares) {
                // lint: allow(panic) — a group thread outlives the loop unless it panicked; propagate
                cmd.send((jobs, until)).expect("fleet group alive");
            }
            let mut replies = vec![local.exchange(mine, until)];
            for (_, reply) in &links {
                // lint: allow(panic) — a group thread outlives the loop unless it panicked; propagate
                replies.push(reply.recv().expect("fleet group alive"));
            }
            replies
        };
        // A zero-length step yields the initial (empty-fleet) snapshots.
        let mut snaps = interleave(exchange(Vec::new(), Some(origin)), Reply::snaps);
        let mut advanced = origin;
        loop {
            let Some(barrier) = router.next_barrier() else {
                return interleave(exchange(Vec::new(), None), Reply::outputs);
            };
            if barrier > advanced {
                // Only reachable on the first iteration (later iterations
                // pre-advance to the next barrier below); re-snapshot at it.
                snaps = interleave(exchange(Vec::new(), Some(barrier)), Reply::snaps);
            }
            let batch = router.route_batch(barrier, &mut snaps);
            // The next routing decision is at `next` (≥ one epoch ahead —
            // route_batch consumed the whole current epoch), so the sites
            // can safely simulate up to it in one stride.
            let Some(next) = router.next_barrier() else {
                return interleave(exchange(batch, None), Reply::outputs);
            };
            snaps = interleave(exchange(batch, Some(next)), Reply::snaps);
            advanced = next;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EventQueueKind;
    use dmhpc_platform::{NodeSpec, PoolTopology};
    use dmhpc_sched::SchedulerBuilder;
    use dmhpc_workload::JobBuilder;

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(
            2,
            4,
            NodeSpec::new(8, 1024),
            PoolTopology::PerRack { mib_per_rack: 2048 },
        )
    }

    fn base() -> SimConfig {
        SimConfig::new(cluster(), SchedulerBuilder::new().build())
    }

    fn burst(n: u64) -> Workload {
        let jobs = (0..n)
            .map(|i| {
                JobBuilder::new(i + 1)
                    .nodes(2 + (i % 3) as u32)
                    .runtime_secs(200 + 90 * (i % 5), 900)
                    .mem_per_node(256 + 128 * (i % 4))
                    .arrival_secs(10 * i)
                    .build()
            })
            .collect();
        Workload::from_jobs(jobs)
    }

    #[test]
    fn spec_labels_and_validation() {
        assert!(FleetSpec::none().is_none());
        assert_eq!(FleetSpec::none().label(), "no-fleet");
        assert!(FleetSpec::none().validate().is_ok());
        let f = FleetSpec::symmetric(4, 300.0, MetaPolicyKind::LeastQueueDepth);
        assert_eq!(f.label(), "fleet4-least-queue-e300");
        assert!(f.validate().is_ok());
        assert_eq!(f.total_nodes(&cluster()), 4 * cluster().total_nodes());
        let bad_epoch = FleetSpec {
            epoch_s: 0.0,
            ..f.clone()
        };
        assert!(bad_epoch.validate().is_err());
        let mut dup = f.clone();
        dup.sites[1].label = "site0".into();
        assert!(dup.validate().is_err());
        assert!(FleetSimulation::new(&FleetSpec::none(), base()).is_err());
    }

    #[test]
    fn one_site_fleet_matches_plain_run_bit_for_bit() {
        // A 1-site fleet routes everything to site 0 at true arrival
        // times, so the site's trace must be byte-identical to a plain
        // run of the same workload — the injection path really is the
        // arrival path.
        let w = burst(40);
        let plain = crate::Simulation::new(base()).unwrap().run(&w);
        let fleet = FleetSpec::symmetric(1, 120.0, MetaPolicyKind::RoundRobin);
        let out = FleetSimulation::new(&fleet, base()).unwrap().run(&w);
        assert_eq!(out.site_outputs[0].trace_hash, plain.trace_hash);
        let (a, b) = (&out.site_outputs[0].report, &plain.report);
        assert_eq!(a.mean_wait_s.to_bits(), b.mean_wait_s.to_bits());
        assert_eq!(a.node_util.to_bits(), b.node_util.to_bits());
        assert_eq!(a.makespan_h.to_bits(), b.makespan_h.to_bits());
        assert_eq!(out.routed_jobs, vec![40]);
    }

    #[test]
    fn worker_count_is_byte_identical_on_both_backends() {
        let w = burst(60);
        // (sites, workers): the 3- and 5-site fleets at two threads split
        // into uneven groups on any host with at least two cores.
        let cases = [(4, 2), (4, 3), (4, 4), (4, 8), (3, 2), (5, 2)];
        for backend in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
            let cfg = base().with_event_queue(backend);
            for (sites, workers) in cases {
                let fleet = FleetSpec::symmetric(sites, 180.0, MetaPolicyKind::LeastMemoryPressure);
                let serial = FleetSimulation::new(&fleet, cfg).unwrap().run(&w);
                let threaded = FleetSimulation::new(&fleet, cfg)
                    .unwrap()
                    .workers(workers)
                    .run(&w);
                assert_eq!(
                    threaded.aggregate.trace_hash,
                    serial.aggregate.trace_hash,
                    "sites={sites} workers={workers} backend={}",
                    backend.name()
                );
                assert_eq!(threaded.site_outputs.len(), sites);
                for (a, b) in serial.site_outputs.iter().zip(&threaded.site_outputs) {
                    assert_eq!(a.trace_hash, b.trace_hash);
                    assert_eq!(
                        a.report.mean_wait_s.to_bits(),
                        b.report.mean_wait_s.to_bits()
                    );
                    assert_eq!(a.report.node_util.to_bits(), b.report.node_util.to_bits());
                }
                assert_eq!(threaded.routed_jobs, serial.routed_jobs);
            }
        }
    }

    #[test]
    fn threads_never_exceed_cores_or_sites() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        for sites in [1, 2, 3, 5] {
            let fleet = FleetSpec::symmetric(sites, 60.0, MetaPolicyKind::RoundRobin);
            for asked in [0, 1, 2, 3, 8, 64, usize::MAX] {
                let sim = FleetSimulation::new(&fleet, base()).unwrap().workers(asked);
                assert_eq!(sim.workers, asked.clamp(1, cores), "asked {asked}");
                let threads = sim.threads();
                assert!(
                    (1..=cores.min(sites)).contains(&threads),
                    "sites={sites} asked={asked} threads={threads}"
                );
            }
        }
        // Unset, a fleet runs on the calling thread alone.
        let fleet = FleetSpec::symmetric(4, 60.0, MetaPolicyKind::RoundRobin);
        assert_eq!(FleetSimulation::new(&fleet, base()).unwrap().threads(), 1);
    }

    #[test]
    fn backends_are_byte_identical_to_each_other() {
        let w = burst(50);
        let fleet = FleetSpec::symmetric(3, 240.0, MetaPolicyKind::LeastQueueDepth);
        let heap = FleetSimulation::new(&fleet, base()).unwrap().run(&w);
        let cal = FleetSimulation::new(&fleet, base().with_event_queue(EventQueueKind::Calendar))
            .unwrap()
            .workers(2)
            .run(&w);
        assert_eq!(heap.aggregate.trace_hash, cal.aggregate.trace_hash);
    }

    #[test]
    fn round_robin_spreads_jobs_evenly() {
        let w = burst(40);
        let fleet = FleetSpec::symmetric(4, 60.0, MetaPolicyKind::RoundRobin);
        let out = FleetSimulation::new(&fleet, base()).unwrap().run(&w);
        assert_eq!(out.routed_jobs, vec![10, 10, 10, 10]);
        assert_eq!(out.site_labels, vec!["site0", "site1", "site2", "site3"]);
        // Every job completed somewhere: the merged records cover the
        // whole workload.
        assert_eq!(out.aggregate.records.len(), 40);
        assert!(out.aggregate.report.makespan_h > 0.0);
        assert!(out.aggregate.report.node_util > 0.0);
    }

    #[test]
    fn heterogeneous_sites_resolve_cluster_and_scheduler() {
        let big = ClusterSpec::new(
            4,
            4,
            NodeSpec::new(8, 2048),
            PoolTopology::PerRack { mib_per_rack: 4096 },
        );
        let fleet = FleetSpec {
            sites: vec![
                SiteSpec::inherit("small"),
                SiteSpec {
                    label: "big".into(),
                    cluster: Some(big),
                    scheduler: None,
                },
            ],
            epoch_s: 120.0,
            policy: MetaPolicyKind::LeastQueueDepth,
        };
        assert_eq!(
            fleet.total_nodes(&cluster()),
            cluster().total_nodes() + big.total_nodes()
        );
        let out = FleetSimulation::new(&fleet, base())
            .unwrap()
            .run(&burst(30));
        assert_eq!(out.routed_jobs.iter().sum::<u64>(), 30);
        // The bigger, emptier site absorbs more of the queue-balanced load.
        assert!(out.routed_jobs[1] >= out.routed_jobs[0]);
    }

    #[test]
    fn aggregate_sums_events_and_chains_hashes() {
        let w = burst(24);
        let fleet = FleetSpec::symmetric(2, 300.0, MetaPolicyKind::RoundRobin);
        let out = FleetSimulation::new(&fleet, base()).unwrap().run(&w);
        let sum: u64 = out.site_outputs.iter().map(|o| o.events_processed).sum();
        assert_eq!(out.aggregate.events_processed, sum);
        let mut h = Fnv64::new();
        for o in &out.site_outputs {
            h.write_u64(o.trace_hash);
        }
        assert_eq!(out.aggregate.trace_hash, h.finish());
        assert_ne!(
            out.aggregate.trace_hash, out.site_outputs[0].trace_hash,
            "fleet hash is distinct from any single site's"
        );
    }
}
