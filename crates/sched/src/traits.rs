//! Pluggable policy traits and the scheduling context they receive.
//!
//! The scheduler decomposes into two behavioural axes that downstream
//! users may want to replace without forking this crate:
//!
//! * [`Ordering`] — who goes first. The built-in implementation is the
//!   [`crate::OrderPolicy`] enum (FCFS, SJF, largest-first, WFP, EDF,
//!   least-laxity, batch-budget).
//! * [`Placement`] — how a job's memory footprint maps onto nodes and
//!   pools. The built-in implementation is the [`crate::MemoryPolicy`]
//!   enum (local-only, pool first/best fit, slowdown-aware).
//!
//! Both traits receive a [`SchedContext`]: one read-only bundle of
//! everything the engine already maintains — the pass instant, the cluster
//! (capacity indexes included), the slowdown model, the running-job
//! release plan, and the active SLO target — plus per-job wait/deadline/
//! laxity accessors derived from them. Policies compose this information
//! freely; adding a new input extends the context instead of growing every
//! trait signature.
//!
//! [`crate::Scheduler::with_policies`] accepts any pair of boxed
//! implementations; [`crate::Scheduler::new`] wires up the enums from a
//! plain [`crate::SchedulerConfig`]. Custom policies must be deterministic
//! (pure functions of their inputs) or they void the simulator's
//! reproducibility guarantees.
//!
//! Policies run inside [`crate::Scheduler::schedule`], whose pass state is
//! incremental: running-job releases arrive as [`SchedContext::releases`]
//! over the engine's persistent [`crate::ReleaseIndex`], and placement
//! implementations should prefer the cluster's free-capacity indexes
//! ([`Cluster::free_node_iter`], [`Cluster::free_nodes_in_rack_iter`],
//! [`Cluster::pools_by_free`]) over whole-machine scans — both are what
//! keep a pass's cost proportional to what it touches.

use crate::memory::PlannedAllocation;
use crate::profile::Demand;
use crate::queue::QueuedJob;
use crate::release::ReleaseView;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MemoryAssignment, MiB, SlowdownModel};
use dmhpc_workload::Job;

/// Read-only context for one scheduling pass: everything a policy may
/// consult, borrowed from the engine's state. Construction is cheap (a
/// bundle of references), so the scheduler materializes one wherever a
/// policy is about to run.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// The pass instant.
    pub now: SimTime,
    /// The cluster, read-only: capacity indexes, pool states, topology.
    pub cluster: &'a Cluster,
    /// The far-memory slowdown model the scheduler plans with.
    pub model: &'a SlowdownModel,
    /// Planned releases of running jobs, in ascending planned-end order.
    pub releases: ReleaseView<'a>,
    /// The run-wide SLO wait target (seconds), when the engine is driving
    /// an open service run with one. Per-job [`Job::slo`] stamps take
    /// precedence in [`SchedContext::deadline`]; this is the fallback for
    /// unstamped jobs.
    pub slo_wait_s: Option<f64>,
}

impl<'a> SchedContext<'a> {
    /// Assemble a context from its parts.
    pub fn new(
        now: SimTime,
        cluster: &'a Cluster,
        model: &'a SlowdownModel,
        releases: ReleaseView<'a>,
        slo_wait_s: Option<f64>,
    ) -> Self {
        SchedContext {
            now,
            cluster,
            model,
            releases,
            slo_wait_s,
        }
    }

    /// How long `entry` has waited in the queue as of this pass.
    pub fn wait(&self, entry: &QueuedJob) -> SimDuration {
        self.now.saturating_since(entry.enqueued)
    }

    /// `job`'s absolute start deadline: arrival plus its wait budget. The
    /// job's own [`Job::slo`] stamp wins; jobs without one fall back to
    /// the run-wide [`SchedContext::slo_wait_s`] target. `None` when
    /// neither constrains the job.
    pub fn deadline(&self, job: &Job) -> Option<SimTime> {
        if let Some(slo) = &job.slo {
            return Some(slo.deadline_for(job.arrival, job.walltime));
        }
        self.slo_wait_s
            .map(|w| job.arrival.saturating_add(SimDuration::from_secs_f64(w)))
    }

    /// `job`'s laxity in seconds: the slack left before starting it can no
    /// longer both meet its start deadline and run out its walltime —
    /// `deadline − now − walltime`. Negative means the deadline is already
    /// tight or lost; `None` means the job carries no deadline.
    pub fn laxity_s(&self, job: &Job) -> Option<f64> {
        let deadline = self.deadline(job)?;
        Some(deadline.as_secs_f64() - self.now.as_secs_f64() - job.walltime.as_secs_f64())
    }
}

/// What an [`Ordering`] tells the pass to do after sorting the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassDirective {
    /// Schedule normally.
    Proceed,
    /// Start nothing this pass; re-pass at `until` (the engine schedules a
    /// wake-up). Batch-forming policies hold the start set until a latency
    /// budget forces release. A directive with `until ≤ now` proceeds.
    Hold {
        /// When the held batch must be released.
        until: SimTime,
    },
}

/// Queue-ordering behaviour: sort the wait queue before each pass.
///
/// Implementations must produce a **total, deterministic** order; ties
/// should fall back to `(arrival, id)` so identical runs schedule
/// identically.
pub trait Ordering: std::fmt::Debug + Send + Sync {
    /// Stable name used in report labels.
    fn name(&self) -> &str;

    /// Sort `entries` into scheduling order (front = next to run) under
    /// `ctx`.
    fn order(&self, entries: &mut [QueuedJob], ctx: &SchedContext<'_>);

    /// After ordering: proceed with the pass, or hold the batch? The
    /// default always proceeds; batch-forming policies override it.
    fn directive(&self, entries: &[QueuedJob], ctx: &SchedContext<'_>) -> PassDirective {
        let (_, _) = (entries, ctx);
        PassDirective::Proceed
    }
}

/// Memory-placement behaviour: decide a job's shape (node count, node
/// choice, local/remote split).
///
/// The scheduler calls [`Placement::nominal_shape`] to build backfill
/// reservations (idle-machine shape) and [`Placement::plan`] to commit a
/// concrete allocation right now; [`Placement::plan_split`] answers what
/// `plan` would place, per rack, without committing to node ids. The
/// first two must agree: a job whose nominal shape exists must eventually
/// be placeable on an emptied machine, or the queue wedges.
///
/// The scheduler relies on two more facts about the shapes a policy
/// returns:
///
/// * a `Some` nominal shape fits the idle, healthy machine: its nodes
///   fill the racks with every node free, each borrowing its
///   `remote_per_node` from a pool at nominal capacity. Admission admits
///   a deadline-feasible job on a machine with every node up without
///   reading its shape. The backfilling passes do not rely on it: they
///   reject a head whose nominal shape never fits as
///   [`RejectReason::ProfileInfeasible`](crate::RejectReason).
/// * every shape [`Placement::plan`] and [`Placement::plan_split`] return
///   uses at least `job.nodes` nodes. EASY backfilling rules a candidate
///   out on the two rows' free-node totals before it asks for a split.
///
/// Debug builds assert each where it is relied on.
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// Stable name used in report labels.
    fn name(&self) -> &str;

    /// The shape this policy would give `job` on an otherwise idle
    /// machine, with its predicted dilation — what reservations are made
    /// of. `None` means the job can never run on this machine.
    fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)>;

    /// Try to place `job` on the cluster **right now**. `None` when no
    /// placement exists under this policy at this instant.
    ///
    /// A returned assignment must be one the cluster can grant now
    /// ([`Cluster::can_allocate`]), which rejects an empty node list; so a
    /// plan holds at least one free node, and on a machine with no free
    /// node the scheduler asks for none.
    fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation>;

    /// What [`Placement::plan`] would place right now, without the node
    /// ids: fill `split` (one slot per rack) with the plan's node count
    /// per rack and return its `remote_per_node` and dilation, or `None`
    /// exactly when `plan` is `None`. Backfilling tests candidates on this
    /// and asks `plan` only for the one that starts. The default counts
    /// `plan`'s nodes; a policy may override it with a query that
    /// collects none.
    fn plan_split(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        split: &mut [u32],
    ) -> Option<(MiB, f64)> {
        let plan = self.plan(job, ctx)?;
        count_per_rack(ctx.cluster, &plan.assignment, split);
        Some((plan.assignment.remote_per_node, plan.dilation))
    }

    /// The smallest dilation any shape this policy would consider can
    /// achieve for `job` on an idle machine — what admission control and
    /// deadline-aware placement price feasibility with (a shape of
    /// dilation `d` started now meets the deadline iff
    /// `walltime × (d − 1) ≤ laxity`). The default is the nominal shape's
    /// dilation; policies that enumerate several shapes should override it
    /// with the true minimum.
    fn best_dilation(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<f64> {
        self.nominal_shape(job, ctx).map(|(_, dilation)| dilation)
    }
}

/// Overwrite `split` with `assignment`'s node count per rack.
pub(crate) fn count_per_rack(cluster: &Cluster, assignment: &MemoryAssignment, split: &mut [u32]) {
    split.fill(0);
    for &node in &assignment.nodes {
        split[cluster.rack_of(node).0 as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryPolicy, OrderPolicy};
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology};
    use dmhpc_workload::{JobBuilder, Slo};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            2,
            NodeSpec::new(8, 64 * 1024),
            PoolTopology::None,
        ))
    }

    #[test]
    fn enums_are_object_safe_policies() {
        let order: Box<dyn Ordering> = Box::new(OrderPolicy::Sjf);
        let placement: Box<dyn Placement> = Box::new(MemoryPolicy::LocalOnly);
        assert_eq!(order.name(), "sjf");
        assert_eq!(placement.name(), "local-only");
    }

    #[test]
    fn context_accessors_derive_wait_deadline_laxity() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = SchedContext::new(
            SimTime::from_secs(1000),
            &c,
            &model,
            ReleaseView::empty(),
            Some(600.0),
        );

        let plain = JobBuilder::new(1)
            .arrival_secs(700)
            .runtime_secs(100, 200)
            .build();
        let entry = QueuedJob {
            job: plain.clone(),
            enqueued: SimTime::from_secs(700),
        };
        assert_eq!(ctx.wait(&entry), SimDuration::from_secs(300));
        // No per-job stamp: the run-wide target applies.
        assert_eq!(ctx.deadline(&plain), Some(SimTime::from_secs(1300)));
        assert!((ctx.laxity_s(&plain).unwrap() - 100.0).abs() < 1e-9);

        // A per-job stamp overrides the run-wide target.
        let stamped = JobBuilder::new(2)
            .arrival_secs(700)
            .runtime_secs(100, 200)
            .slo(Slo::Deadline { deadline_s: 50.0 })
            .build();
        assert_eq!(ctx.deadline(&stamped), Some(SimTime::from_secs(750)));
        assert!(ctx.laxity_s(&stamped).unwrap() < 0.0, "deadline lost");

        // Neither: unconstrained.
        let free_ctx = SchedContext::new(
            SimTime::from_secs(1000),
            &c,
            &model,
            ReleaseView::empty(),
            None,
        );
        assert_eq!(free_ctx.deadline(&plain), None);
        assert_eq!(free_ctx.laxity_s(&plain), None);
    }

    #[test]
    fn default_directive_proceeds() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = SchedContext::new(SimTime::ZERO, &c, &model, ReleaseView::empty(), None);
        let order: Box<dyn Ordering> = Box::new(OrderPolicy::Fcfs);
        assert_eq!(order.directive(&[], &ctx), PassDirective::Proceed);
    }
}
