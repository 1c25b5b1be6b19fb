//! The scheduler: queue ordering × backfilling × memory placement.
//!
//! A scheduling pass ([`Scheduler::schedule`]) runs at every arrival and
//! completion event:
//!
//! 1. Order the queue per [`OrderPolicy`].
//! 2. Greedily start jobs from the head while the [`MemoryPolicy`] can
//!    place them.
//! 3. When the head blocks, backfill per [`BackfillPolicy`]:
//!    * **EASY** — reserve the head at its earliest two-resource fit (via
//!      [`AvailabilityProfile`]), then start any later job whose concrete
//!      placement fits *alongside the reservation* for its whole (possibly
//!      dilation-inflated) walltime. A backfill can therefore never delay
//!      the head — including by stealing pool memory the head needs, which
//!      single-resource backfilling misses.
//!    * **Conservative** — walk the queue in order, give every job a
//!      reservation at its earliest fit given all earlier reservations, and
//!      start exactly those whose reservation is *now* and whose concrete
//!      placement agrees with the profile. No job is ever delayed by a
//!      later-queued one.

use crate::admission::{AdmissionPolicy, AdmissionVerdict, PreemptPolicy, RejectReason};
use crate::memory::MemoryPolicy;
use crate::order::OrderPolicy;
use crate::profile::AvailabilityProfile;
use crate::queue::WaitQueue;
use crate::release::{ReleaseView, RunningRelease};
use crate::traits::{Ordering, PassDirective, Placement, SchedContext};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MemoryAssignment, PlatformError, SlowdownModel};
use dmhpc_workload::{Job, JobId};

/// Backfilling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillPolicy {
    /// No backfilling: strict queue order (head blocks everyone).
    None,
    /// EASY: one reservation (queue head); aggressive otherwise.
    Easy,
    /// Conservative: a reservation for every queued job.
    Conservative,
}

impl BackfillPolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackfillPolicy::None => "none",
            BackfillPolicy::Easy => "easy",
            BackfillPolicy::Conservative => "conservative",
        }
    }
}

/// Full scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Queue ordering.
    pub order: OrderPolicy,
    /// Backfilling flavour.
    pub backfill: BackfillPolicy,
    /// Memory placement policy.
    pub memory: MemoryPolicy,
    /// Far-memory cost model (shared with the engine).
    pub slowdown: SlowdownModel,
    /// Inflate planned walltimes (reservation lengths and kill limits) by
    /// the predicted dilation, so borrowing jobs are not killed for running
    /// exactly as slow as predicted. Ablation A1 turns this off.
    pub inflate_walltime: bool,
    /// Admission control for deadline-stamped jobs. The default
    /// ([`AdmissionPolicy::AdmitAll`]) is inert: it contributes nothing to
    /// labels, cell hashes, or serialized specs.
    pub admission: AdmissionPolicy,
    /// Deadline-priced preemption of running jobs. The default
    /// ([`PreemptPolicy::Never`]) is inert, exactly as for `admission`.
    pub preempt: PreemptPolicy,
}

impl SchedulerConfig {
    /// Human-readable policy triple, e.g. `fcfs+easy+pool-ff`.
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            self.order.name(),
            self.backfill.name(),
            self.memory.name()
        )
    }

    /// A label that distinguishes *every* field, including policy
    /// parameters, the slowdown model, and the walltime-inflation switch —
    /// e.g. `fcfs+easy+slowdown-aware1.35+sat1.5k3+noinfl`. Two configs
    /// share a full label iff they are equal, which is what experiment
    /// grids key cells on.
    pub fn full_label(&self) -> String {
        let order = match self.order {
            OrderPolicy::Wfp { exponent } => format!("wfp{exponent}"),
            OrderPolicy::BatchBudget { hold_s } => format!("batch-budget{hold_s}"),
            other => other.name().to_string(),
        };
        let memory = match self.memory {
            MemoryPolicy::SlowdownAware { max_dilation } => {
                format!("slowdown-aware{max_dilation}")
            }
            MemoryPolicy::LaxityAware { max_dilation } => {
                format!("laxity-aware{max_dilation}")
            }
            other => other.name().to_string(),
        };
        let slowdown = match self.slowdown {
            SlowdownModel::None => "sd-none".to_string(),
            SlowdownModel::Linear { penalty } => format!("lin{penalty}"),
            SlowdownModel::Saturating { penalty, curvature } => {
                format!("sat{penalty}k{curvature}")
            }
            SlowdownModel::Contention { penalty, gamma } => format!("con{penalty}g{gamma}"),
        };
        let mut label = format!("{order}+{}+{memory}+{slowdown}", self.backfill.name());
        if !self.inflate_walltime {
            label.push_str("+noinfl");
        }
        if self.admission != AdmissionPolicy::AdmitAll {
            label.push('+');
            label.push_str(self.admission.name());
        }
        if let PreemptPolicy::LaxityCheckpoint { overhead_s } = self.preempt {
            label.push_str(&format!("+preempt{overhead_s}"));
        }
        label
    }
}

/// Fluent builder for [`SchedulerConfig`] with the conventional defaults
/// (FCFS + EASY + LocalOnly + linear 1.5× slowdown + walltime inflation
/// on). The result is plain data; validation happens when a [`Scheduler`]
/// or simulation is constructed from it.
#[derive(Debug, Clone)]
pub struct SchedulerBuilder {
    cfg: SchedulerConfig,
}

impl Default for SchedulerBuilder {
    fn default() -> Self {
        SchedulerBuilder {
            cfg: SchedulerConfig {
                order: OrderPolicy::Fcfs,
                backfill: BackfillPolicy::Easy,
                memory: MemoryPolicy::LocalOnly,
                slowdown: SlowdownModel::Linear { penalty: 1.5 },
                inflate_walltime: true,
                admission: AdmissionPolicy::AdmitAll,
                preempt: PreemptPolicy::Never,
            },
        }
    }
}

impl SchedulerBuilder {
    /// Start from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the queue order.
    pub fn order(mut self, order: OrderPolicy) -> Self {
        self.cfg.order = order;
        self
    }

    /// Set the backfill flavour.
    pub fn backfill(mut self, backfill: BackfillPolicy) -> Self {
        self.cfg.backfill = backfill;
        self
    }

    /// Set the memory policy.
    pub fn memory(mut self, memory: MemoryPolicy) -> Self {
        self.cfg.memory = memory;
        self
    }

    /// Set the slowdown model.
    pub fn slowdown(mut self, model: SlowdownModel) -> Self {
        self.cfg.slowdown = model;
        self
    }

    /// Toggle walltime inflation (ablation A1).
    pub fn inflate_walltime(mut self, on: bool) -> Self {
        self.cfg.inflate_walltime = on;
        self
    }

    /// Set the admission policy for deadline-stamped jobs.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Set the preemption policy.
    pub fn preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.cfg.preempt = preempt;
        self
    }

    /// Finish, yielding the configuration value. Pass it to
    /// [`Scheduler::new`] (or a `dmhpc-sim` constructor), which validates
    /// it and reports problems as typed errors.
    pub fn build(self) -> SchedulerConfig {
        self.cfg
    }
}

/// A job the pass decided to start, with everything the engine needs.
#[derive(Debug, Clone)]
pub struct StartedJob {
    /// The job (removed from the queue).
    pub job: Job,
    /// Where it runs and how its memory splits.
    pub assignment: MemoryAssignment,
    /// Planned dilation estimate at start.
    pub dilation: f64,
    /// Kill limit (inflated if configured).
    pub planned_walltime: SimDuration,
}

/// Result of one scheduling pass.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Jobs started now (already allocated on the cluster).
    pub started: Vec<StartedJob>,
    /// Jobs refused admission (removed from the queue): either they can
    /// never run on this machine, or the active [`AdmissionPolicy`]
    /// declared their deadline unmeetable.
    pub rejected: Vec<(Job, RejectReason)>,
    /// Jobs the admission policy deferred this pass (still queued, in
    /// queue order), each with its re-check instant. The engine surfaces
    /// each job's *first* deferral as an event.
    pub deferred: Vec<(JobId, SimTime)>,
    /// Earliest instant a deferred job's deadline feasibility lapses; the
    /// engine schedules a wake-up so the lapse is assessed even if no
    /// natural event intervenes. `None` when nothing was deferred.
    pub recheck_at: Option<SimTime>,
    /// Set when the ordering held the batch ([`PassDirective::Hold`]):
    /// nothing was started or rejected, and the engine should re-pass at
    /// this instant.
    pub hold_until: Option<SimTime>,
}

/// The scheduler. Stateless between passes: all state lives in the queue,
/// the cluster, and the engine's running set, so passes are pure functions
/// of the visible system state — a property the determinism tests rely on.
///
/// Ordering and placement behaviour are held as trait objects, so the
/// built-in [`OrderPolicy`]/[`MemoryPolicy`] enums and user-supplied
/// [`Ordering`]/[`Placement`] implementations schedule through the same
/// code path.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    order: Box<dyn Ordering>,
    placement: Box<dyn Placement>,
    /// Run-wide SLO wait target (seconds), surfaced to policies through
    /// [`SchedContext::slo_wait_s`]. Deliberately *not* part of
    /// [`SchedulerConfig`]: it describes the workload's service objective,
    /// not the policy, so labels and cell hashes ignore it.
    slo_wait_s: Option<f64>,
}

impl Scheduler {
    /// A scheduler with the given configuration, using the built-in policy
    /// enums. Fails with a typed error when the slowdown model is
    /// ill-formed.
    pub fn new(cfg: SchedulerConfig) -> Result<Self, PlatformError> {
        Self::with_policies(cfg, Box::new(cfg.order), Box::new(cfg.memory))
    }

    /// A scheduler with custom ordering and placement behaviour. `cfg`
    /// still supplies the backfill flavour, the slowdown model, and the
    /// walltime-inflation switch; its `order`/`memory` enums are ignored
    /// in favour of the supplied trait objects. Note the enums keep their
    /// original values inside the config — `config().label()` and any
    /// serialized form describe the *enums*, not the active custom
    /// policies; use [`Scheduler::label`] (or the engine's report labels,
    /// which go through it) for what actually ran.
    pub fn with_policies(
        cfg: SchedulerConfig,
        order: Box<dyn Ordering>,
        placement: Box<dyn Placement>,
    ) -> Result<Self, PlatformError> {
        cfg.slowdown.validate()?;
        Ok(Scheduler {
            cfg,
            order,
            placement,
            slo_wait_s: None,
        })
    }

    /// This scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Set (or clear) the run-wide SLO wait target policies see through
    /// [`SchedContext::slo_wait_s`]. The engine wires this from an open
    /// run's service objective; standalone users may set it directly.
    pub fn set_slo_target(&mut self, slo_wait_s: Option<f64>) {
        self.slo_wait_s = slo_wait_s;
    }

    /// The active run-wide SLO wait target, if any.
    pub fn slo_target(&self) -> Option<f64> {
        self.slo_wait_s
    }

    /// The active placement policy. The engine prices deadline feasibility
    /// with it ([`Placement::best_dilation`]) when deciding whether a
    /// queued job justifies preempting running work.
    pub fn placement(&self) -> &dyn Placement {
        self.placement.as_ref()
    }

    /// The context all policy calls in a pass receive. Cheap to build, so
    /// passes materialize one wherever the previous cluster mutation ended
    /// its predecessor's borrow.
    fn ctx<'a>(
        &'a self,
        now: SimTime,
        cluster: &'a Cluster,
        running: ReleaseView<'a>,
    ) -> SchedContext<'a> {
        SchedContext::new(now, cluster, &self.cfg.slowdown, running, self.slo_wait_s)
    }

    /// Human-readable policy triple, using the *active* policies (which
    /// differ from `config().label()` when custom trait objects are
    /// plugged in).
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            self.order.name(),
            self.cfg.backfill.name(),
            self.placement.name()
        )
    }

    /// Planned walltime for a job at the given dilation.
    fn planned_walltime(&self, job: &Job, dilation: f64) -> SimDuration {
        if self.cfg.inflate_walltime && dilation > 1.0 {
            job.walltime.scale(dilation)
        } else {
            job.walltime
        }
    }

    /// Run one scheduling pass. Started jobs are allocated on `cluster`
    /// (lease = job id) and removed from `queue`. `running` is the
    /// engine-maintained [`crate::ReleaseIndex`]'s view of planned
    /// releases, already in ascending planned-end order — passes no longer
    /// rebuild it.
    pub fn schedule(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
    ) -> PassResult {
        let mut result = PassResult::default();
        {
            let ctx = self.ctx(now, cluster, running);
            let entries = queue.entries_mut();
            self.order.order(entries, &ctx);
            // Batch-forming orderings may hold the whole start set until
            // their latency budget expires (directives with `until ≤ now`
            // proceed — the budget is already spent).
            if let PassDirective::Hold { until } = self.order.directive(entries, &ctx) {
                if until > now {
                    result.hold_until = Some(until);
                    return result;
                }
            }
        }

        // Phase 1: greedy head starts.
        while let Some(head) = queue.front() {
            let job = &head.job;
            let ctx = self.ctx(now, cluster, running);
            // Jobs impossible even on an idle machine are rejected here so
            // they cannot block the queue forever.
            if self.placement.nominal_shape(job, &ctx).is_none() {
                let entry = queue.pop_front();
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            }
            let Some(plan) = self.placement.plan(job, &ctx) else {
                break; // head blocked
            };
            let entry = queue.pop_front();
            let planned_walltime = self.planned_walltime(&entry.job, plan.dilation);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                .expect("plan() returned an unallocatable assignment");
            result.started.push(StartedJob {
                job: entry.job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime,
            });
        }

        if queue.is_empty() || self.cfg.backfill == BackfillPolicy::None {
            self.admission_pass(now, queue, cluster, running, &mut result);
            return result;
        }

        // View iteration is already time-sorted, so the profile builds
        // straight from it: no release copy, no sort.
        let mut profile = AvailabilityProfile::from_sorted(
            now,
            cluster,
            running
                .iter()
                .map(|r| (r.planned_end, &r.nodes_per_rack[..], &r.pool_per_domain[..])),
        );
        // Jobs started in phase 1 also release capacity later.
        for s in &result.started {
            let r = RunningRelease::of(cluster, &s.assignment, now + s.planned_walltime);
            profile.add_release(r.planned_end, &r.nodes_per_rack, &r.pool_per_domain);
        }

        // The profile only sees current free capacity plus running-job
        // releases; it knows nothing about scheduled repairs or drain
        // ends. On a degraded machine (out-of-service nodes or degraded
        // pools), "never fits the profile" may therefore be transient —
        // such jobs stay queued instead of being rejected, and the engine
        // fails them terminally only once no event can restore capacity.
        // On a healthy machine the predicate is always false, so the
        // pre-fault rejection behaviour is untouched.
        let degraded = cluster.available_nodes() < cluster.total_nodes() as usize
            || cluster.pools().iter().any(|p| p.health() < 1.0);

        match self.cfg.backfill {
            BackfillPolicy::None => unreachable!("handled above"),
            BackfillPolicy::Easy => self.easy_pass(
                now,
                queue,
                cluster,
                running,
                degraded,
                &mut profile,
                &mut result,
            ),
            BackfillPolicy::Conservative => self.conservative_pass(
                now,
                queue,
                cluster,
                running,
                degraded,
                &mut profile,
                &mut result,
            ),
        }
        self.admission_pass(now, queue, cluster, running, &mut result);
        result
    }

    /// Assess every job the pass left queued against the admission
    /// policy: rejects are removed from the queue and recorded with their
    /// typed reason; deferrals stay queued and surface with the earliest
    /// re-check instant. A no-op under the default
    /// [`AdmissionPolicy::AdmitAll`] — and on held passes, which return
    /// before scheduling anything (the engine re-passes at `hold_until`,
    /// well inside any deadline a batch budget could threaten).
    fn admission_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &Cluster,
        running: ReleaseView<'_>,
        result: &mut PassResult,
    ) {
        if self.cfg.admission == AdmissionPolicy::AdmitAll {
            return;
        }
        let mut idx = 0;
        while idx < queue.len() {
            let verdict = {
                let ctx = self.ctx(now, cluster, running);
                // lint: allow(panic) — the loop condition maintains idx < queue.len()
                let job = &queue.get(idx).expect("idx < len").job;
                self.cfg
                    .admission
                    .assess(job, &ctx, self.placement.as_ref())
            };
            match verdict {
                AdmissionVerdict::Admit => idx += 1,
                AdmissionVerdict::Defer { recheck_at } => {
                    result
                        .deferred
                        // lint: allow(panic) — the loop condition maintains idx < queue.len()
                        .push((queue.get(idx).expect("idx < len").job.id, recheck_at));
                    result.recheck_at = Some(match result.recheck_at {
                        Some(t) => t.min(recheck_at),
                        None => recheck_at,
                    });
                    idx += 1;
                }
                AdmissionVerdict::Reject(reason) => {
                    let entry = queue.remove(idx);
                    result.rejected.push((entry.job, reason));
                }
            }
        }
    }

    /// EASY: reserve the head, then start any later job that fits alongside.
    #[allow(clippy::too_many_arguments)]
    fn easy_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        degraded: bool,
        profile: &mut AvailabilityProfile,
        result: &mut PassResult,
    ) {
        // lint: allow(panic) — the caller enters the easy pass only with a non-empty queue
        let head = &queue.front().expect("easy pass needs a head").job;
        let (head_demand, head_dilation) = self
            .placement
            .nominal_shape(head, &self.ctx(now, cluster, running))
            // lint: allow(panic) — phase 1 rejected jobs that can never fit, so the head has a shape
            .expect("head rejected in phase 1 if impossible");
        let head_wall = self.planned_walltime(head, head_dilation);
        let Some((shadow, head_split)) = profile.earliest_fit(now, head_wall, &head_demand) else {
            if degraded {
                // Capacity lost to faults may return (pending repair /
                // drain-end): keep the head queued and skip backfilling
                // (no reservation to protect it against).
                return;
            }
            // Healthy machine: cannot ever fit (pool topology too small
            // for the nominal shape) — reject rather than wedge the queue.
            let entry = queue.pop_front();
            result
                .rejected
                .push((entry.job, RejectReason::ProfileInfeasible));
            return;
        };
        profile.reserve(shadow, head_wall, &head_split, head_demand.remote_per_node);

        // Scan the rest of the queue in order.
        let mut idx = 1;
        while idx < queue.len() {
            // lint: allow(panic) — the loop condition maintains idx < queue.len()
            let job = &queue.get(idx).expect("idx < len").job;
            let Some(plan) = self.placement.plan(job, &self.ctx(now, cluster, running)) else {
                idx += 1;
                continue;
            };
            let wall = self.planned_walltime(job, plan.dilation);
            let split = split_of(cluster, &plan.assignment);
            if !profile.fits_split(now, wall, &split, plan.assignment.remote_per_node) {
                idx += 1;
                continue;
            }
            let entry = queue.remove(idx);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                .expect("plan() returned an unallocatable assignment");
            profile.reserve(now, wall, &split, plan.assignment.remote_per_node);
            result.started.push(StartedJob {
                job: entry.job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime: wall,
            });
            // Do not advance idx: removal shifted the next candidate here.
        }
    }

    /// Conservative: a reservation per queued job, in queue order.
    #[allow(clippy::too_many_arguments)]
    fn conservative_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        degraded: bool,
        profile: &mut AvailabilityProfile,
        result: &mut PassResult,
    ) {
        let mut idx = 0;
        while idx < queue.len() {
            // lint: allow(panic) — the loop condition maintains idx < queue.len()
            let job = &queue.get(idx).expect("idx < len").job;
            let Some((demand, dilation)) = self
                .placement
                .nominal_shape(job, &self.ctx(now, cluster, running))
            else {
                // Impossible even on an idle machine. Phase 1 rejects such
                // jobs only at the head, so one queued behind a blocked
                // head is rejected here, for the same reason.
                let entry = queue.remove(idx);
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            };
            let wall = self.planned_walltime(job, dilation);
            let Some((start, split)) = profile.earliest_fit(now, wall, &demand) else {
                if degraded {
                    // Transiently unservable (see `schedule`): keep it
                    // queued, unreserved, and move on.
                    idx += 1;
                    continue;
                }
                let entry = queue.remove(idx);
                result
                    .rejected
                    .push((entry.job, RejectReason::ProfileInfeasible));
                continue;
            };
            if start == now {
                if let Some(plan) = self.placement.plan(job, &self.ctx(now, cluster, running)) {
                    let plan_wall = self.planned_walltime(job, plan.dilation);
                    let plan_split = split_of(cluster, &plan.assignment);
                    if profile.fits_split(
                        now,
                        plan_wall,
                        &plan_split,
                        plan.assignment.remote_per_node,
                    ) {
                        let entry = queue.remove(idx);
                        cluster
                            .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                            // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                            .expect("plan() returned an unallocatable assignment");
                        profile.reserve(
                            now,
                            plan_wall,
                            &plan_split,
                            plan.assignment.remote_per_node,
                        );
                        result.started.push(StartedJob {
                            job: entry.job,
                            assignment: plan.assignment,
                            dilation: plan.dilation,
                            planned_walltime: plan_wall,
                        });
                        continue; // same idx: next job shifted in
                    }
                }
            }
            // Hold a reservation; the job stays queued.
            profile.reserve(start, wall, &split, demand.remote_per_node);
            idx += 1;
        }
    }
}

/// Count an assignment's nodes per rack.
fn split_of(cluster: &Cluster, assignment: &MemoryAssignment) -> Vec<u32> {
    let racks = cluster.spec().racks as usize;
    let mut split = vec![0u32; racks];
    for &node in &assignment.nodes {
        split[cluster.rack_of(node).0 as usize] += 1;
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::ReleaseIndex;
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology};
    use dmhpc_workload::{JobBuilder, JobId};

    const GIB: u64 = 1024;

    /// 1 rack × 4 nodes, 256 GiB DRAM, 100 GiB rack pool.
    fn small_cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            4,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 100 * GIB,
            },
        ))
    }

    fn fcfs_easy() -> Scheduler {
        Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap()
    }

    fn job(id: u64, nodes: u32, runtime_s: u64, wall_s: u64) -> Job {
        JobBuilder::new(id)
            .nodes(nodes)
            .runtime_secs(runtime_s, wall_s)
            .mem_per_node(32 * GIB)
            .build()
    }

    /// Park a lease on the cluster and track its release in the index.
    fn park(
        cluster: &mut Cluster,
        running: &mut ReleaseIndex,
        lease: u64,
        nodes: &[u32],
        remote: u64,
        end_s: u64,
    ) {
        let ids: Vec<_> = nodes.iter().map(|&n| dmhpc_platform::NodeId(n)).collect();
        let a = if remote > 0 {
            MemoryAssignment::hybrid(ids, 32 * GIB, remote)
        } else {
            MemoryAssignment::local(ids, 32 * GIB)
        };
        cluster.allocate(lease, a.clone()).unwrap();
        running.insert(
            lease,
            RunningRelease::of(cluster, &a, SimTime::from_secs(end_s)),
        );
    }

    fn ids(started: &[StartedJob]) -> Vec<u64> {
        started.iter().map(|s| s.job.id.0).collect()
    }

    #[test]
    fn greedy_starts_until_blocked() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        for (id, nodes) in [(1, 2), (2, 1), (3, 4)] {
            queue.push(job(id, nodes, 100, 200), SimTime::ZERO);
        }
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        // Jobs 1 (2 nodes) and 2 (1 node) start; job 3 (4 nodes) blocks
        // (1 node free) and nothing is behind it to backfill.
        assert_eq!(ids(&result.started), vec![1, 2]);
        assert_eq!(queue.len(), 1);
        assert_eq!(cluster.free_nodes(), 1);
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn easy_backfills_short_jobs_only() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        // 2 nodes busy until t=100.
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: needs all 4 nodes → shadow at t=100.
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        // Short filler (2 nodes, 100 s ≤ shadow): must start.
        queue.push(job(2, 2, 50, 100), SimTime::ZERO);
        // Long filler (2 nodes, 400 s): would hold nodes past t=100 → no.
        queue.push(job(3, 2, 300, 400), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![2]);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.front().unwrap().job.id, JobId(1), "head still first");
    }

    #[test]
    fn easy_pool_aware_backfill_blocks_pool_thieves() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .inflate_walltime(false) // keep window arithmetic exact
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        // Node 0 borrows 60 GiB of the 100 GiB pool until t=100; nodes 1–2
        // are busy locally until t=100. Only node 3 and 40 GiB of pool are
        // free now.
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0], 60 * GIB, 100);
        park(&mut cluster, &mut running, 101, &[1, 2], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: 1 node borrowing 100 GiB. Now: pool has only 40 free and
        // inflation (2 nodes) has only 1 free node → blocked. Shadow at
        // t=100 when the pool refills.
        let head = JobBuilder::new(1)
            .nodes(1)
            .mem_per_node(356 * GIB) // 256 local + 100 remote
            .runtime_secs(500, 1000)
            .build();
        queue.push(head, SimTime::ZERO);
        // Filler borrowing 40 GiB for 400 s: node 3 and 40 GiB are free NOW
        // — but from t=100 the head's reservation needs the whole pool.
        // Single-resource (node-count) backfill would start it and delay
        // the head; the two-resource profile must not.
        let thief = JobBuilder::new(2)
            .nodes(1)
            .mem_per_node(296 * GIB) // 256 local + 40 remote
            .runtime_secs(300, 400)
            .build();
        queue.push(thief, SimTime::ZERO);
        // Same shape but short (50 s): returns the pool before the shadow.
        let polite = JobBuilder::new(3)
            .nodes(1)
            .mem_per_node(296 * GIB)
            .runtime_secs(30, 50)
            .build();
        queue.push(polite, SimTime::ZERO);

        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![3], "only the polite filler");
        assert_eq!(queue.front().unwrap().job.id, JobId(1));
        assert_eq!(queue.get(1).unwrap().job.id, JobId(2));
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn no_backfill_policy_blocks_strictly() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::None)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        queue.push(job(2, 1, 50, 100), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(result.started.is_empty(), "head blocks everything");
    }

    #[test]
    fn conservative_never_delays_earlier_reservations() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut queue = WaitQueue::new();
        // Head: all 4 nodes, reserved at t=100 for 1000 s.
        queue.push(job(1, 4, 500, 1000), SimTime::ZERO);
        // Second: 2 nodes for 1000 s → reserved at t=1100 (after head).
        queue.push(job(2, 2, 500, 1000), SimTime::ZERO);
        // Third: 2 nodes, 100 s: fits NOW (2 free until t=100) without
        // delaying either reservation.
        queue.push(job(3, 2, 50, 100), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert_eq!(ids(&result.started), vec![3]);

        // Under conservative, a job that EASY would admit but which delays
        // the SECOND reservation must stay queued: 2 nodes for 150 s
        // overlaps [100, 1100) when head holds all 4… here it would overlap
        // the head reservation itself, so it stays queued too.
        let mut queue2 = WaitQueue::new();
        queue2.push(job(4, 2, 100, 150), SimTime::ZERO);
        // (fresh pass on the mutated cluster: nodes 0-3 now: 0,1 parked +
        // job 3 on two → all busy)
        let r2 = sched.schedule(SimTime::ZERO, &mut queue2, &mut cluster, running.view());
        assert!(r2.started.is_empty());
    }

    #[test]
    fn impossible_jobs_rejected_not_wedged() {
        let sched = fcfs_easy();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        // 8 nodes on a 4-node machine.
        queue.push(job(1, 8, 100, 200), SimTime::ZERO);
        queue.push(job(2, 1, 100, 200), SimTime::ZERO);
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].0.id, JobId(1));
        assert_eq!(ids(&result.started), vec![2], "queue not wedged");
    }

    #[test]
    fn walltime_inflation_toggle() {
        let heavy = JobBuilder::new(1)
            .nodes(1)
            .mem_per_node(356 * GIB) // borrows 100 GiB → dilated
            .intensity(1.0)
            .runtime_secs(100, 1000)
            .build();
        for (inflate, expect_longer) in [(true, true), (false, false)] {
            let sched = Scheduler::new(
                SchedulerBuilder::new()
                    .memory(MemoryPolicy::PoolFirstFit)
                    .inflate_walltime(inflate)
                    .build(),
            )
            .unwrap();
            let mut cluster = small_cluster();
            let mut queue = WaitQueue::new();
            queue.push(heavy.clone(), SimTime::ZERO);
            let result = sched.schedule(
                SimTime::ZERO,
                &mut queue,
                &mut cluster,
                ReleaseView::empty(),
            );
            let s = &result.started[0];
            assert!(s.dilation > 1.0);
            if expect_longer {
                assert!(s.planned_walltime > heavy.walltime);
            } else {
                assert_eq!(s.planned_walltime, heavy.walltime);
            }
        }
    }

    #[test]
    fn sjf_reorders_before_scheduling() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::Sjf)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        queue.push(job(1, 1, 100, 10_000), SimTime::ZERO);
        queue.push(job(2, 1, 100, 100), SimTime::ZERO);
        let result = sched.schedule(
            SimTime::ZERO,
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(ids(&result.started), vec![2, 1], "short job first");
    }

    #[test]
    fn pass_is_deterministic() {
        let sched = fcfs_easy();
        let build = || {
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0], 20 * GIB, 77);
            let mut queue = WaitQueue::new();
            for i in 0..6 {
                queue.push(job(i, 1 + (i % 3) as u32, 50 + i * 10, 200), SimTime::ZERO);
            }
            (cluster, running, queue)
        };
        let (mut c1, r1, mut q1) = build();
        let (mut c2, r2, mut q2) = build();
        let a = sched.schedule(SimTime::ZERO, &mut q1, &mut c1, r1.view());
        let b = sched.schedule(SimTime::ZERO, &mut q2, &mut c2, r2.view());
        assert_eq!(ids(&a.started), ids(&b.started));
        for (x, y) in a.started.iter().zip(b.started.iter()) {
            assert_eq!(x.assignment, y.assignment);
        }
    }

    #[test]
    fn config_label() {
        assert_eq!(fcfs_easy().config().label(), "fcfs+easy+pool-ff");
    }

    #[test]
    fn batch_budget_holds_then_releases() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::BatchBudget { hold_s: 100.0 })
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        queue.push(job(1, 1, 50, 100), SimTime::from_secs(10));
        queue.push(job(2, 1, 50, 100), SimTime::from_secs(40));

        // Budget not exhausted: nothing starts, the pass asks for a
        // wake-up at oldest-enqueued + budget.
        let held = sched.schedule(
            SimTime::from_secs(50),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert!(held.started.is_empty() && held.rejected.is_empty());
        assert_eq!(held.hold_until, Some(SimTime::from_secs(110)));
        assert_eq!(queue.len(), 2, "held jobs stay queued");
        assert_eq!(cluster.free_nodes(), 4, "nothing allocated while held");

        // At the release instant the whole batch goes out at once.
        let released = sched.schedule(
            SimTime::from_secs(110),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        assert_eq!(ids(&released.started), vec![1, 2]);
        assert_eq!(released.hold_until, None);
        cluster.verify_invariants().unwrap();
    }

    #[test]
    fn full_label_admission_and_preempt_suffixes() {
        let default = SchedulerBuilder::new().build();
        assert_eq!(default.full_label(), "fcfs+easy+local-only+lin1.5");
        let loaded = SchedulerBuilder::new()
            .memory(MemoryPolicy::LaxityAware { max_dilation: 1.5 })
            .admission(AdmissionPolicy::RejectInfeasible)
            .preempt(PreemptPolicy::LaxityCheckpoint { overhead_s: 60 })
            .build();
        assert_eq!(
            loaded.full_label(),
            "fcfs+easy+laxity-aware1.5+lin1.5+reject-infeasible+preempt60"
        );
        let deferred = SchedulerBuilder::new()
            .admission(AdmissionPolicy::DeferUntilFeasible)
            .build();
        assert_eq!(deferred.full_label(), "fcfs+easy+local-only+lin1.5+defer");
    }

    fn stamped_job(id: u64, wall_s: u64, deadline_s: f64) -> Job {
        JobBuilder::new(id)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(wall_s / 2, wall_s)
            .mem_per_node(32 * GIB)
            .slo(dmhpc_workload::Slo::Deadline { deadline_s })
            .build()
    }

    /// Fill the whole machine until `end_s` so nothing can start.
    fn park_all(cluster: &mut Cluster, running: &mut ReleaseIndex, end_s: u64) {
        park(cluster, running, 900, &[0, 1, 2, 3], 0, end_s);
    }

    #[test]
    fn admission_rejects_laxity_exhausted_jobs() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .admission(AdmissionPolicy::RejectInfeasible)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 1000);
        let mut queue = WaitQueue::new();
        // Deadline t=50 but walltime 100: lost before it could ever start.
        queue.push(stamped_job(1, 100, 50.0), SimTime::ZERO);
        // Deadline t=5000: plenty of laxity, stays queued.
        queue.push(stamped_job(2, 100, 5000.0), SimTime::ZERO);
        let result = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(result.started.is_empty());
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].0.id, JobId(1));
        assert_eq!(
            result.rejected[0].1,
            crate::RejectReason::DeadlineInfeasible
        );
        assert_eq!(queue.len(), 1, "feasible job still queued");
        assert!(result.deferred.is_empty(), "reject mode never defers");
    }

    #[test]
    fn admission_defers_then_rejects_on_lapse() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .admission(AdmissionPolicy::DeferUntilFeasible)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 1000);
        let mut queue = WaitQueue::new();
        // Deadline t=500, walltime 100: feasible until t=400.
        queue.push(stamped_job(1, 100, 500.0), SimTime::ZERO);
        let held = sched.schedule(SimTime::ZERO, &mut queue, &mut cluster, running.view());
        assert!(held.started.is_empty() && held.rejected.is_empty());
        assert_eq!(held.deferred, vec![(JobId(1), SimTime::from_secs(400))]);
        assert_eq!(held.recheck_at, Some(SimTime::from_secs(400)));
        assert_eq!(queue.len(), 1, "deferred jobs stay queued");

        // Past the lapse instant even an idle healthy machine cannot meet
        // the deadline: the deferral converts to a typed reject.
        let late = sched.schedule(
            SimTime::from_secs(450),
            &mut queue,
            &mut cluster,
            running.view(),
        );
        assert_eq!(late.rejected.len(), 1);
        assert_eq!(late.rejected[0].1, crate::RejectReason::DeadlineInfeasible);
        assert!(queue.is_empty());
    }

    #[test]
    fn edf_uses_run_wide_slo_target_via_scheduler() {
        // Two jobs, both unstamped; per-job budget-factor stamp on the
        // later arrival gives it the earlier deadline, so EDF flips FCFS.
        let mut sched = Scheduler::new(
            SchedulerBuilder::new()
                .order(OrderPolicy::Edf)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        assert_eq!(sched.slo_target(), None);
        sched.set_slo_target(Some(3600.0));
        assert_eq!(sched.slo_target(), Some(3600.0));

        let mut cluster = small_cluster();
        let mut queue = WaitQueue::new();
        let early = JobBuilder::new(1)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .build();
        let mut urgent = JobBuilder::new(2)
            .arrival_secs(10)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .build();
        urgent.slo = Some(dmhpc_workload::Slo::Deadline { deadline_s: 30.0 });
        queue.push(early, SimTime::ZERO);
        queue.push(urgent, SimTime::from_secs(10));
        let result = sched.schedule(
            SimTime::from_secs(20),
            &mut queue,
            &mut cluster,
            ReleaseView::empty(),
        );
        // Deadlines: job 2 at t=40 (stamp), job 1 at t=3600 (run-wide).
        assert_eq!(ids(&result.started), vec![2, 1]);
    }
}
