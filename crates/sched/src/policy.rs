//! The scheduler: queue ordering × backfilling × memory placement.
//!
//! A scheduling pass ([`Scheduler::schedule`]) runs at every arrival and
//! completion event:
//!
//! 1. Order the queue per [`OrderPolicy`].
//! 2. Greedily start jobs from the head while the [`MemoryPolicy`] can
//!    place them.
//! 3. When the head blocks, backfill per [`BackfillPolicy`]:
//!    * **EASY** — reserve the head at its earliest two-resource fit (over
//!      two rows of the availability profile), then start any later job
//!      whose concrete placement fits *alongside the reservation* for its
//!      whole (possibly dilation-inflated) walltime. A backfill can
//!      therefore never delay the head — including by stealing pool memory
//!      the head needs, which single-resource backfilling misses.
//!      Candidates are tested on their placement's split per rack
//!      ([`Placement::plan_split`]); only the one that starts is placed
//!      down to node ids. Once no node is free the scan stops: every plan
//!      holds a free node ([`Placement::plan`]). Two O(1) tests come
//!      first (see below): a full machine decides the head on its
//!      capacity alone, and a candidate is screened on the rows' totals.
//!    * **Conservative** — walk the queue in order, give every job a
//!      reservation at its earliest fit given all earlier reservations (on
//!      a whole [`AvailabilityProfile`]), and start exactly those whose
//!      reservation is *now* and whose concrete placement agrees with the
//!      profile. No job is ever delayed by a later-queued one.
//!
//! ## EASY backfilling needs two rows of the profile
//!
//! An EASY pass asks the profile two kinds of question: where the head
//! first fits, and whether a job that starts now fits beside every
//! reservation so far. Both read at most two rows of it.
//!
//! * *The head.* Before the head is reserved, the profile holds the
//!   cluster now plus releases only. A release adds capacity and nothing
//!   subtracts, so every column is non-decreasing in time, and a window's
//!   minimum is its first row. The head's earliest fit is therefore the
//!   first row that fits it. The pass walks the releases in time order
//!   (the running jobs' merged with those of phase 1's starts), folds each
//!   instant's releases into one row, and stops at the first row that
//!   fits: the reservation start `s` and the head's split. It never builds
//!   the rows past `s`.
//! * *Backfills.* After the head is reserved at `[s, s + w)` and backfills
//!   at `[now, e_j)`, the row at a time `t` in `[now, s)` is the release
//!   row minus the backfills with `e_j > t`. The release row never
//!   decreases as `t` grows and the subtracted sum only loses terms, so
//!   every column is non-decreasing on `[now, s)`. From `s` on the same
//!   holds, since the head's and the backfills' reservations only end. A
//!   candidate's window `[now, now + w)` therefore has the origin row as
//!   its minimum when `now + w <= s`, and otherwise the smaller of the
//!   origin row and the row at `s` (the *shadow* row).
//!
//! So the pass keeps two rows ([`EasyRows`]): the origin, with overdue
//! releases folded in, and the shadow row, minus the head's split. A
//! started backfill is subtracted from the origin, and also from the
//! shadow row if it outlives `s`. When the head's reservation starts now,
//! the origin is the shadow row, and there is one row. Every decision is
//! the one the profile-based pass makes (pinned by a differential test
//! against that pass).
//!
//! ## EASY tests totals before walking or placing
//!
//! Two facts known in O(1) settle much of an EASY pass exactly.
//!
//! * *A full machine.* After phase 1, suppose no node is free, no node is
//!   down and no pool is degraded, and every lease has a release (the
//!   machine's leases number the running releases plus phase 1's starts).
//!   Then nothing can start: every plan holds a free node. The walk's
//!   rows only grow, and its last row folds in every release, which is
//!   every node and every pool at capacity: the idle machine. The head
//!   fits some row exactly when it fits that one. So the pass tests the
//!   head against the idle machine, read from the spec, and rejects it as
//!   [`RejectReason::ProfileInfeasible`] exactly when it does not fit;
//!   otherwise it leaves the head queued and ends. A lease without a
//!   release, or a degraded machine, takes the walk.
//! * *The totals screen.* [`EasyRows`] keeps the origin row's free nodes
//!   and the sum over racks of the smaller of each rack's origin and
//!   shadow columns. A candidate's split holds at least `job.nodes` nodes
//!   ([`Placement`]), its planned walltime is at least `job.walltime`
//!   (dilation only inflates it), and the rows' test caps each rack by
//!   its column. So a candidate needing more nodes than the origin total,
//!   or, when `job.walltime` outlives the shadow time, than the sum of
//!   minima, can fit no split: the pass moves on without asking the
//!   placement for one.
//!
//! ## Conservative backfilling stops reserving once nothing can start
//!
//! A pass throws its reservations away when it ends; they matter only to
//! later jobs' "is my reservation *now*?" test. Once the profile's origin
//! has no free node, no job that needs a node can start in this pass (its
//! window holds the origin row), so from there on each job needs only the
//! two rejection tests, in queue order:
//!
//! * no nominal shape → [`RejectReason::CapacityExceeded`];
//! * never fits the profile → [`RejectReason::ProfileInfeasible`], or stay
//!   queued on a degraded machine.
//!
//! "Never fits" is "does not fit the last breakpoint"
//! (`AvailabilityProfile::fits_at_last`) while every row is at most the
//! last one, component by component: a profile built from releases only
//! grows over time, and a reservation that ends leaves the last row as it
//! was. So the pass defers the reservations of the jobs it no longer
//! needs, and tests against the last row — which the deferred
//! reservations would not have touched — only while
//!
//! * no reservation the pass made is open-ended (its end saturated to
//!   [`SimTime::MAX`]), and
//! * every deferred reservation provably ends: a job's reservation starts
//!   no later than the last breakpoint, so the pass keeps a bound on that
//!   breakpoint as deferred reservations would have pushed it, plus each
//!   deferred walltime.
//!
//! A job that breaks either condition (or needs no node) makes the pass
//! first place the deferred reservations, in queue order, and then treat
//! the job in full, so every decision is the one the reserve-every-job
//! loop makes (pinned by a differential test against that loop).

use crate::admission::{AdmissionPolicy, AdmissionVerdict, PreemptPolicy, RejectReason};
use crate::memory::MemoryPolicy;
use crate::order::OrderPolicy;
use crate::profile::{fits_idle_machine, AvailabilityProfile, Demand, EasyRows};
use crate::queue::WaitQueue;
use crate::release::{ReleaseView, RunningRelease};
use crate::traits::{count_per_rack, Ordering, PassDirective, Placement, SchedContext};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MemoryAssignment, PlatformError, SlowdownModel};
use dmhpc_workload::{Job, JobId};
use std::ops::Range;

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
        if let Some(until) = self.order_queue(now, queue, cluster, running) {
            result.hold_until = Some(until);
            return result;
        }
        if let Some(head_shape) = self.start_heads(now, queue, cluster, running, &mut result) {
            match self.cfg.backfill {
                BackfillPolicy::None => {}
                BackfillPolicy::Easy => {
                    self.easy_pass(now, queue, cluster, running, head_shape, &mut result)
                }
                BackfillPolicy::Conservative => {
                    let mut profile = self.backfill_profile(now, cluster, running, &result.started);
                    self.conservative_pass(
                        now,
                        queue,
                        cluster,
                        running,
                        cluster.is_degraded(),
                        &mut profile,
                        &mut result,
                    );
                }
            }
        }
        self.admission_pass(now, queue, cluster, running, &mut result);
        result
    }

    /// Order the queue; `Some(until)` when the ordering holds the whole
    /// start set until then.
    fn order_queue(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &Cluster,
        running: ReleaseView<'_>,
    ) -> Option<SimTime> {
        let ctx = self.ctx(now, cluster, running);
        let entries = queue.entries_mut();
        self.order.order(entries, &ctx);
        // Batch-forming orderings may hold the whole start set until their
        // latency budget expires (directives with `until ≤ now` proceed —
        // the budget is already spent).
        match self.order.directive(entries, &ctx) {
            PassDirective::Hold { until } if until > now => Some(until),
            _ => None,
        }
    }

    /// Phase 1: greedy head starts, until the head blocks. Returns the
    /// blocked head's nominal shape, or `None` when the queue ran empty.
    fn start_heads(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        result: &mut PassResult,
    ) -> Option<(Demand, f64)> {
        while let Some(head) = queue.front() {
            let job = &head.job;
            let ctx = self.ctx(now, cluster, running);
            // Jobs impossible even on an idle machine are rejected here so
            // they cannot block the queue forever.
            let Some(shape) = self.placement.nominal_shape(job, &ctx) else {
                let entry = queue.pop_front();
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            };
            let Some(plan) = self.placement.plan(job, &ctx) else {
                return Some(shape); // head blocked
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
        None
    }

    /// The profile a conservative pass starts from: the cluster now, the
    /// running jobs' releases, and those of the jobs phase 1 `started`.
    fn backfill_profile(
        &self,
        now: SimTime,
        cluster: &Cluster,
        running: ReleaseView<'_>,
        started: &[StartedJob],
    ) -> AvailabilityProfile {
        // View iteration is already time-sorted, so the profile builds
        // straight from it: no release copy, no sort.
        let mut profile = AvailabilityProfile::from_sorted(
            now,
            cluster,
            running
                .iter()
                .map(|r| (r.planned_end, &r.nodes_per_rack[..], &r.pool_per_domain[..])),
        );
        for s in started {
            let r = RunningRelease::of(cluster, &s.assignment, now + s.planned_walltime);
            profile.add_release(r.planned_end, &r.nodes_per_rack, &r.pool_per_domain);
        }
        profile
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

    /// EASY: reserve the head — blocked in phase 1 with nominal shape
    /// `head_shape` — then start any later job that fits alongside, over
    /// two rows of the profile (see module docs). Candidates are tested on
    /// their split per rack ([`Placement::plan_split`]); only the one that
    /// starts is planned down to node ids.
    fn easy_pass(
        &self,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        (head_demand, head_dilation): (Demand, f64),
        result: &mut PassResult,
    ) {
        // lint: allow(panic) — the caller enters the easy pass only with a non-empty queue
        let head = &queue.front().expect("easy pass needs a head").job;
        let head_wall = self.planned_walltime(head, head_dilation);
        let reserve_head = || {
            let mut started: Vec<RunningRelease> = result
                .started
                .iter()
                .map(|s| RunningRelease::of(cluster, &s.assignment, now + s.planned_walltime))
                .collect();
            started.sort_by_key(|r| r.planned_end);
            let releases = merge_by_end(running.iter(), started.iter())
                .map(|r| (r.planned_end, &r.nodes_per_rack[..], &r.pool_per_domain[..]));
            EasyRows::reserve_head(now, cluster, releases, head_wall, &head_demand)
        };
        // A full, healthy machine whose every lease has a release: nothing
        // can start, and the walk's last row is the idle machine (see
        // module docs), so only whether the head ever fits is left.
        let full = cluster.free_nodes() == 0
            && !cluster.is_degraded()
            && cluster.lease_count() == running.len() + result.started.len();
        if full {
            let fits = fits_idle_machine(cluster, &head_demand);
            debug_assert_eq!(fits, reserve_head().is_some(), "full-machine head test");
            #[cfg(test)]
            probe::FULL_MACHINE.with(|n| n.set(n.get() + 1));
            if !fits {
                let entry = queue.pop_front();
                result
                    .rejected
                    .push((entry.job, RejectReason::ProfileInfeasible));
            }
            return;
        }
        let Some(mut rows) = reserve_head() else {
            // The rows see only current free capacity plus releases; they
            // know nothing of scheduled repairs or drain ends. On a
            // degraded machine "never fits" may be transient: keep the
            // head queued and skip backfilling (no reservation to protect
            // it against). The engine fails such jobs terminally only once
            // no event can restore capacity.
            if cluster.is_degraded() {
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

        // Scan the rest of the queue in order, while a node is free: every
        // plan holds one (see `Placement::plan`).
        let mut split = vec![0; cluster.spec().racks as usize];
        let mut idx = 1;
        while idx < queue.len() && cluster.free_nodes() > 0 {
            // lint: allow(panic) — the loop condition maintains idx < queue.len()
            let job = &queue.get(idx).expect("idx < len").job;
            // Every shape holds `job.nodes` nodes or more for `job.walltime`
            // or longer, so the rows' totals may rule the job out unplaced.
            if !rows.may_fit(job.walltime, job.nodes) {
                #[cfg(test)]
                probe::SCREENED.with(|n| n.set(n.get() + 1));
                idx += 1;
                continue;
            }
            let ctx = self.ctx(now, cluster, running);
            let Some((remote, dilation)) = self.placement.plan_split(job, &ctx, &mut split) else {
                idx += 1;
                continue;
            };
            debug_assert!(
                split.iter().map(|&k| u64::from(k)).sum::<u64>() >= u64::from(job.nodes),
                "a shape holds at least job.nodes nodes"
            );
            let wall = self.planned_walltime(job, dilation);
            if !rows.fits(wall, &split, remote) {
                idx += 1;
                continue;
            }
            let plan = self
                .placement
                .plan(job, &ctx)
                // lint: allow(panic) — placements are deterministic, and plan_split just found this plan
                .expect("plan() disagrees with plan_split()");
            debug_assert_eq!(split_of(cluster, &plan.assignment), split);
            debug_assert_eq!(plan.assignment.remote_per_node, remote);
            debug_assert_eq!(plan.dilation.to_bits(), dilation.to_bits());
            let entry = queue.remove(idx);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
                // lint: allow(panic) — plan() only returns assignments the cluster can satisfy right now
                .expect("plan() returned an unallocatable assignment");
            rows.start(wall, &split, remote);
            result.started.push(StartedJob {
                job: entry.job,
                assignment: plan.assignment,
                dilation: plan.dilation,
                planned_walltime: wall,
            });
            // Do not advance idx: removal shifted the next candidate here.
        }
    }

    /// Conservative: a reservation per queued job, in queue order — until
    /// nothing more can start, after which jobs need only the two
    /// rejection tests (see module docs).
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
        // Some reservation of this pass holds capacity for ever.
        let mut open_ended = false;
        // The queue index from which reservations are deferred, and a bound
        // on the last breakpoint the profile would have if they were made.
        let mut deferred: Option<(usize, SimTime)> = None;
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
            let (first, horizon) = deferred.unwrap_or((idx, profile.last_breakpoint()));
            let end_bound = horizon.saturating_add(wall);
            if !open_ended
                && demand.nodes > 0
                && end_bound < SimTime::MAX
                && profile.no_free_node_at_origin()
            {
                // Nothing more can start now: defer this job's reservation,
                // which would end by `end_bound`, and only test whether it
                // could ever fit.
                if profile.fits_at_last(&demand) {
                    deferred = Some((first, end_bound));
                } else if !degraded {
                    let entry = queue.remove(idx);
                    result
                        .rejected
                        .push((entry.job, RejectReason::ProfileInfeasible));
                    continue;
                }
                idx += 1;
                continue;
            }
            if let Some((first, _)) = deferred.take() {
                self.reserve_deferred(now, queue, cluster, running, profile, first..idx);
            }
            let Some((start, split)) = profile.earliest_fit(now, wall, &demand) else {
                if degraded {
                    // Transiently unservable (see `easy_pass`): keep it
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
                        open_ended |= now.saturating_add(plan_wall) == SimTime::MAX;
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
            open_ended |= start.saturating_add(wall) == SimTime::MAX;
            profile.reserve(start, wall, &split, demand.remote_per_node);
            idx += 1;
        }
    }

    /// Make the reservations that the still-queued jobs at `indexes` would
    /// have held, in queue order — for when the pass must leave the
    /// deferring mode, so the profile is again exactly the one the full
    /// loop would have built.
    fn reserve_deferred(
        &self,
        now: SimTime,
        queue: &WaitQueue,
        cluster: &Cluster,
        running: ReleaseView<'_>,
        profile: &mut AvailabilityProfile,
        indexes: Range<usize>,
    ) {
        for idx in indexes {
            // lint: allow(panic) — deferred indexes lie below the current one
            let job = &queue.get(idx).expect("deferred index < len").job;
            let (demand, dilation) = self
                .placement
                .nominal_shape(job, &self.ctx(now, cluster, running))
                // lint: allow(panic) — the job had a shape when it was deferred, and nothing has changed since
                .expect("a deferred job has a shape");
            let wall = self.planned_walltime(job, dilation);
            // A job that never fits (on a degraded machine) holds nothing.
            if let Some((start, split)) = profile.earliest_fit(now, wall, &demand) {
                debug_assert_ne!(start, now, "a deferred job cannot start now");
                profile.reserve(start, wall, &split, demand.remote_per_node);
            }
        }
    }
}

/// Two release streams, each in ascending planned-end order, as one.
fn merge_by_end<'a>(
    a: impl Iterator<Item = &'a RunningRelease>,
    b: impl Iterator<Item = &'a RunningRelease>,
) -> impl Iterator<Item = &'a RunningRelease> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.planned_end < x.planned_end => b.next(),
        (Some(_), _) => a.next(),
        _ => b.next(),
    })
}

/// Count an assignment's nodes per rack.
fn split_of(cluster: &Cluster, assignment: &MemoryAssignment) -> Vec<u32> {
    let mut split = vec![0; cluster.spec().racks as usize];
    count_per_rack(cluster, assignment, &mut split);
    split
}

/// How often the EASY pass took its shortcuts on this thread, so a test
/// can show its inputs reach them.
#[cfg(test)]
mod probe {
    use std::cell::Cell;

    thread_local! {
        /// Passes that decided the head on the full-machine test.
        pub(super) static FULL_MACHINE: Cell<usize> = const { Cell::new(0) };
        /// Candidates the row totals ruled out before placing them.
        pub(super) static SCREENED: Cell<usize> = const { Cell::new(0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::ReleaseIndex;
    use dmhpc_des::rng::Pcg64;
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

    // ------------------------------ differential: reserve every queued job

    /// The conservative loop as it was before it deferred reservations: a
    /// full `earliest_fit` and a reservation for every queued job. The
    /// oracle the deferring pass is held to.
    #[allow(clippy::too_many_arguments)]
    fn reference_conservative_pass(
        sched: &Scheduler,
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
            let job = &queue.get(idx).expect("idx < len").job;
            let Some((demand, dilation)) = sched
                .placement
                .nominal_shape(job, &sched.ctx(now, cluster, running))
            else {
                let entry = queue.remove(idx);
                result
                    .rejected
                    .push((entry.job, RejectReason::CapacityExceeded));
                continue;
            };
            let wall = sched.planned_walltime(job, dilation);
            let Some((start, split)) = profile.earliest_fit(now, wall, &demand) else {
                if degraded {
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
                if let Some(plan) = sched.placement.plan(job, &sched.ctx(now, cluster, running)) {
                    let plan_wall = sched.planned_walltime(job, plan.dilation);
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
                        continue;
                    }
                }
            }
            profile.reserve(start, wall, &split, demand.remote_per_node);
            idx += 1;
        }
    }

    /// The EASY pass as it was before it kept two rows: a whole profile,
    /// the head's `earliest_fit` and a reservation, and a window query for
    /// every candidate. The oracle the two-row pass is held to.
    #[allow(clippy::too_many_arguments)]
    fn reference_easy_pass(
        sched: &Scheduler,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
        degraded: bool,
        profile: &mut AvailabilityProfile,
        result: &mut PassResult,
    ) {
        let head = &queue.front().expect("easy pass needs a head").job;
        let (head_demand, head_dilation) = sched
            .placement
            .nominal_shape(head, &sched.ctx(now, cluster, running))
            .expect("head rejected in phase 1 if impossible");
        let head_wall = sched.planned_walltime(head, head_dilation);
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
            let job = &queue.get(idx).expect("idx < len").job;
            let Some(plan) = sched.placement.plan(job, &sched.ctx(now, cluster, running)) else {
                idx += 1;
                continue;
            };
            let wall = sched.planned_walltime(job, plan.dilation);
            let split = split_of(cluster, &plan.assignment);
            if !profile.fits_split(now, wall, &split, plan.assignment.remote_per_node) {
                idx += 1;
                continue;
            }
            let entry = queue.remove(idx);
            cluster
                .allocate(entry.job.id.as_u64(), plan.assignment.clone())
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

    /// [`Scheduler::schedule`] with [`reference_conservative_pass`] or
    /// [`reference_easy_pass`] as its backfilling pass, on a whole profile
    /// (the scheduler must backfill).
    fn reference_schedule(
        sched: &Scheduler,
        now: SimTime,
        queue: &mut WaitQueue,
        cluster: &mut Cluster,
        running: ReleaseView<'_>,
    ) -> PassResult {
        let mut result = PassResult::default();
        if let Some(until) = sched.order_queue(now, queue, cluster, running) {
            result.hold_until = Some(until);
            return result;
        }
        sched.start_heads(now, queue, cluster, running, &mut result);
        if !queue.is_empty() {
            let mut profile = sched.backfill_profile(now, cluster, running, &result.started);
            let pass = match sched.cfg.backfill {
                BackfillPolicy::Easy => reference_easy_pass,
                BackfillPolicy::Conservative => reference_conservative_pass,
                BackfillPolicy::None => panic!("the reference passes backfill"),
            };
            pass(
                sched,
                now,
                queue,
                cluster,
                running,
                cluster.is_degraded(),
                &mut profile,
                &mut result,
            );
        }
        sched.admission_pass(now, queue, cluster, running, &mut result);
        result
    }

    /// A walltime so long that a few of them overflow the clock: what an
    /// open-ended request looks like once it reaches a pass.
    const OPEN_ENDED: SimDuration = SimDuration::from_micros(u64::MAX / 4);

    /// A random scheduler backfilling per `backfill`, over the whole policy
    /// matrix a backfilling pass can meet.
    fn random_scheduler(rng: &mut Pcg64, backfill: BackfillPolicy) -> Scheduler {
        let memory = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            MemoryPolicy::LaxityAware { max_dilation: 1.4 },
        ][rng.index(5)];
        let order = [OrderPolicy::Fcfs, OrderPolicy::Sjf, OrderPolicy::Edf][rng.index(3)];
        let admission = [
            AdmissionPolicy::AdmitAll,
            AdmissionPolicy::RejectInfeasible,
            AdmissionPolicy::DeferUntilFeasible,
        ][rng.index(3)];
        Scheduler::new(
            SchedulerBuilder::new()
                .backfill(backfill)
                .order(order)
                .memory(memory)
                .admission(admission)
                .inflate_walltime(rng.chance(0.7))
                .build(),
        )
        .unwrap()
    }

    /// One random pass input.
    struct PassCase {
        now: SimTime,
        cluster: Cluster,
        running: ReleaseIndex,
        queue: WaitQueue,
    }

    /// How busy [`random_pass_case`] makes its machines, and how long its
    /// queues are.
    struct Mix {
        /// The share of nodes parked, one drawn per case.
        busy: [f64; 5],
        /// Of 40 releases, how many are already past.
        overdue: usize,
        /// Queues hold fewer jobs than this.
        jobs: usize,
        /// Future releases end on multiples of this many seconds from
        /// `now`, so a coarse step makes them tie.
        end_step: u64,
    }

    /// Often full, so the origin has no free node: the regime where a
    /// conservative pass stops reserving.
    const MOSTLY_FULL: Mix = Mix {
        busy: [1.0, 1.0, 0.85, 0.6, 0.4],
        overdue: 1,
        jobs: 14,
        end_step: 1,
    };

    /// Often with free nodes to backfill onto, longer queues to backfill
    /// from, more overdue releases, and releases that end together.
    const ROOM_TO_BACKFILL: Mix = Mix {
        busy: [1.0, 0.85, 0.6, 0.4, 0.25],
        overdue: 4,
        jobs: 24,
        end_step: 250,
    };

    /// A small cluster with leases parked on a random share of it (per
    /// `mix`), their releases (a few already past, a few never), perhaps
    /// failed nodes or a degraded pool, and a queue of jobs that mostly
    /// fit, some only borrowing, some never, some open-ended (longer than
    /// the clock can run, or, if `inflate` is off, ending exactly at its
    /// end), some deadline-stamped.
    fn random_pass_case(rng: &mut Pcg64, inflate: bool, mix: &Mix) -> PassCase {
        let now = SimTime::from_secs(1000);
        // Ends exactly at the end of time when started now: any later start
        // makes an open-ended reservation. Only uninflated walltimes can be
        // this long.
        let forever = SimDuration::from_micros(u64::MAX - now.as_micros());
        let racks = 1 + rng.index(3) as u32;
        let per_rack = 2 + rng.index(5) as u32;
        let pool = match rng.index(3) {
            0 => PoolTopology::None,
            1 => PoolTopology::PerRack {
                mib_per_rack: 128 * GIB,
            },
            _ => PoolTopology::Global { mib: 256 * GIB },
        };
        let mut cluster = Cluster::new(ClusterSpec::new(
            racks,
            per_rack,
            NodeSpec::new(64, 64 * GIB),
            pool,
        ));
        let total = racks * per_rack;
        let busy = mix.busy[rng.index(5)];
        let mut running = ReleaseIndex::new();
        for node in 0..total {
            if !rng.chance(busy) || !cluster.is_free(dmhpc_platform::NodeId(node)) {
                continue;
            }
            let mut nodes = vec![dmhpc_platform::NodeId(node)];
            let partner = dmhpc_platform::NodeId(rng.bounded_u64(total as u64) as u32);
            if rng.chance(0.3) && partner.0 != node && cluster.is_free(partner) {
                nodes.push(partner);
            }
            let a = if pool != PoolTopology::None && rng.chance(0.4) {
                MemoryAssignment::hybrid(nodes, 48 * GIB, rng.bounded_u64(48) * GIB + 1)
            } else {
                MemoryAssignment::local(nodes, 48 * GIB)
            };
            let lease = 10_000 + node as u64;
            if cluster.allocate(lease, a.clone()).is_err() {
                continue;
            }
            // A lease the pass knows no end for: healthy machines then
            // see jobs that never fit the profile.
            if rng.chance(0.06) {
                continue;
            }
            let end = match rng.index(40) {
                0 | 1 => SimTime::MAX,
                n if n < 2 + mix.overdue => SimTime::from_secs(500),
                _ => {
                    let secs = 1 + rng.bounded_u64(4000);
                    now + SimDuration::from_secs(secs.div_ceil(mix.end_step) * mix.end_step)
                }
            };
            running.insert(lease, RunningRelease::of(&cluster, &a, end));
        }
        if rng.chance(0.3) {
            for _ in 0..1 + rng.index(2) {
                let node = dmhpc_platform::NodeId(rng.bounded_u64(total as u64) as u32);
                cluster.fail_node(node).unwrap();
            }
        }
        if pool != PoolTopology::None && rng.chance(0.2) {
            cluster
                .set_pool_health(dmhpc_platform::PoolId(0), 0.5)
                .unwrap();
        }
        let mut queue = WaitQueue::new();
        for id in 0..rng.index(mix.jobs) as u64 {
            let mut builder = JobBuilder::new(id)
                .arrival_secs(rng.bounded_u64(1000))
                .nodes(1 + rng.bounded_u64(total as u64 + 1) as u32)
                .mem_per_node((8 + rng.bounded_u64(150)) * GIB)
                .intensity(rng.bounded_u64(11) as f64 / 10.0)
                .runtime_secs(5, 10 + rng.bounded_u64(3000));
            if rng.chance(0.3) {
                builder = builder.slo(dmhpc_workload::Slo::Deadline {
                    deadline_s: 1000.0 + rng.bounded_u64(20_000) as f64,
                });
            }
            let mut job = builder.build();
            match rng.index(20) {
                0..=2 => job.walltime = OPEN_ENDED,
                3 if !inflate => job.walltime = forever,
                _ => {}
            }
            queue.push(job, SimTime::ZERO);
        }
        PassCase {
            now,
            cluster,
            running,
            queue,
        }
    }

    fn queued_ids(queue: &WaitQueue) -> Vec<u64> {
        queue.iter().map(|e| e.job.id.0).collect()
    }

    /// Run one case through both passes: equal results, queues and
    /// clusters. Returns the result, and whether the pass left jobs queued
    /// on a machine without a free node.
    fn assert_pass_matches_reference(
        sched: &Scheduler,
        case: &PassCase,
        ctx: &str,
    ) -> (PassResult, bool) {
        let (mut q1, mut c1) = (case.queue.clone(), case.cluster.clone());
        let (mut q2, mut c2) = (case.queue.clone(), case.cluster.clone());
        let view = case.running.view();
        let got = sched.schedule(case.now, &mut q1, &mut c1, view);
        let want = reference_schedule(sched, case.now, &mut q2, &mut c2, view);
        assert_eq!(ids(&got.started), ids(&want.started), "{ctx}: started");
        let reasons = |r: &PassResult| -> Vec<(u64, RejectReason)> {
            r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect()
        };
        assert_eq!(reasons(&got), reasons(&want), "{ctx}: rejected");
        assert_eq!(got.deferred, want.deferred, "{ctx}: deferred");
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{ctx}: pass result"
        );
        assert_eq!(queued_ids(&q1), queued_ids(&q2), "{ctx}: queue");
        assert_eq!(format!("{c1:?}"), format!("{c2:?}"), "{ctx}: cluster");
        (got, !q1.is_empty() && c1.free_nodes() == 0)
    }

    /// The deferring conservative pass decides exactly as the loop that
    /// reserves every queued job, over random clusters (healthy and
    /// degraded, often full), releases (past, future and never) and queues
    /// (impossible, borrowing, open-ended and deadline-stamped jobs),
    /// under every memory policy, three orderings and every admission
    /// policy.
    #[test]
    fn conservative_pass_matches_reserve_every_job_loop() {
        let (mut full, mut degraded, mut open_ended) = (0, 0, 0);
        let (mut started, mut infeasible, mut deferred) = (0, 0, 0);
        for case in 0..400u64 {
            let mut rng = Pcg64::new_stream(0xC0B5, case);
            let sched = random_scheduler(&mut rng, BackfillPolicy::Conservative);
            let pass = random_pass_case(&mut rng, sched.config().inflate_walltime, &MOSTLY_FULL);
            degraded += usize::from(pass.cluster.is_degraded());
            open_ended += usize::from(pass.queue.iter().any(|e| e.job.walltime >= OPEN_ENDED));
            let ctx = format!("case {case} ({})", sched.config().full_label());
            let (result, left_full) = assert_pass_matches_reference(&sched, &pass, &ctx);
            full += usize::from(left_full);
            started += usize::from(!result.started.is_empty());
            deferred += usize::from(!result.deferred.is_empty());
            infeasible += usize::from(
                result
                    .rejected
                    .iter()
                    .any(|(_, why)| *why == RejectReason::ProfileInfeasible),
            );
        }
        let seen = format!(
            "full {full}, degraded {degraded}, open-ended {open_ended}, \
             started {started}, infeasible {infeasible}, deferred {deferred}"
        );
        assert!(full >= 100 && degraded >= 80 && open_ended >= 100, "{seen}");
        assert!(
            started >= 100 && infeasible >= 20 && deferred >= 20,
            "{seen}"
        );
    }

    /// A full machine and a queue of open-ended jobs: their deferred
    /// reservations would overflow the clock after a few, so the pass makes
    /// the deferred ones after all and goes on in full — still deciding as
    /// the reference does.
    #[test]
    fn conservative_pass_makes_deferred_reservations_before_one_could_be_open_ended() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .inflate_walltime(false)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park_all(&mut cluster, &mut running, 1000);
        let mut queue = WaitQueue::new();
        for id in 1..=8 {
            let mut j = job(id, 1 + (id % 4) as u32, 50, 100);
            j.walltime = OPEN_ENDED;
            queue.push(j, SimTime::ZERO);
        }
        queue.push(job(9, 8, 50, 100), SimTime::ZERO); // never fits
        let case = PassCase {
            now: SimTime::ZERO,
            cluster,
            running,
            queue,
        };
        assert!(assert_pass_matches_reference(&sched, &case, "open-ended").1);
    }

    /// An open-ended reservation leaves the last breakpoint short, so the
    /// last-breakpoint test no longer decides rejection: the pass keeps
    /// reserving, and a short job that fits before the open-ended one
    /// begins stays queued.
    #[test]
    fn conservative_pass_keeps_reserving_after_an_open_ended_reservation() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .inflate_walltime(false)
                .build(),
        )
        .unwrap();
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        park(&mut cluster, &mut running, 101, &[2, 3], 0, 200);
        let mut queue = WaitQueue::new();
        // All 4 nodes from t=200 on, for ever.
        let mut forever = job(1, 4, 50, 100);
        forever.walltime = SimDuration::MAX;
        queue.push(forever, SimTime::ZERO);
        // 2 nodes for 50 s: fit at t=100, never at the last breakpoint.
        queue.push(job(2, 2, 50, 50), SimTime::ZERO);
        let case = PassCase {
            now: SimTime::ZERO,
            cluster,
            running,
            queue,
        };
        let (result, _) = assert_pass_matches_reference(&sched, &case, "open-ended reservation");
        assert!(result.rejected.is_empty() && result.started.is_empty());
    }

    /// Once nothing can start, a job that can never fit is still rejected
    /// on a healthy machine and still kept on a degraded one.
    #[test]
    fn conservative_pass_rejects_after_the_origin_fills() {
        let sched = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::PoolFirstFit)
                .build(),
        )
        .unwrap();
        for degrade in [false, true] {
            // Nodes 0–2 run until t=1000; node 3 is lost for good: failed
            // (degraded), or held by a lease the pass knows no end for.
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0, 1, 2], 0, 1000);
            let node3 = dmhpc_platform::NodeId(3);
            if degrade {
                cluster.fail_node(node3).unwrap();
            } else {
                let a = MemoryAssignment::local(vec![node3], 32 * GIB);
                cluster.allocate(101, a).unwrap();
            }
            let mut queue = WaitQueue::new();
            queue.push(job(1, 2, 50, 100), SimTime::ZERO);
            queue.push(job(2, 4, 50, 100), SimTime::ZERO); // never fits
            queue.push(job(3, 1, 50, 100), SimTime::ZERO);
            let case = PassCase {
                now: SimTime::ZERO,
                cluster,
                running,
                queue,
            };
            assert!(assert_pass_matches_reference(&sched, &case, "full origin").1);
            let (mut q, mut c) = (case.queue.clone(), case.cluster.clone());
            let r = sched.schedule(case.now, &mut q, &mut c, case.running.view());
            let rejected: Vec<(u64, RejectReason)> =
                r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect();
            if degrade {
                assert!(rejected.is_empty());
                assert_eq!(queued_ids(&q), vec![1, 2, 3]);
            } else {
                assert_eq!(rejected, vec![(2, RejectReason::ProfileInfeasible)]);
                assert_eq!(queued_ids(&q), vec![1, 3]);
            }
        }
    }

    // ------------------------------- differential: EASY on a whole profile

    /// Jobs phase 1 starts in `case`: the pass's starts that are not
    /// backfills.
    fn phase_one_starts(sched: &Scheduler, case: &PassCase) -> usize {
        let (mut queue, mut cluster) = (case.queue.clone(), case.cluster.clone());
        let view = case.running.view();
        let mut result = PassResult::default();
        if sched
            .order_queue(case.now, &mut queue, &cluster, view)
            .is_none()
        {
            sched.start_heads(case.now, &mut queue, &mut cluster, view, &mut result);
        }
        result.started.len()
    }

    /// The two-row EASY pass decides exactly as the profile-based pass over
    /// `cases` random clusters (healthy and degraded, often full),
    /// releases (overdue, future and open-ended) and queues (impossible,
    /// borrowing, open-ended and deadline-stamped jobs), under every memory
    /// policy, three orderings and every admission policy.
    fn assert_easy_pass_matches_profile_pass(cases: u64) {
        let (mut degraded, mut overdue, mut open_release) = (0, 0, 0);
        let (mut backfilled, mut infeasible, mut deferred) = (0, 0, 0);
        let mut open_ended = 0;
        let shortcuts = probes();
        for case in 0..cases {
            let mut rng = Pcg64::new_stream(0xEA5E, case);
            let sched = random_scheduler(&mut rng, BackfillPolicy::Easy);
            let inflate = sched.config().inflate_walltime;
            let pass = random_pass_case(&mut rng, inflate, &ROOM_TO_BACKFILL);
            let releases = || pass.running.view().iter().map(|r| r.planned_end);
            degraded += usize::from(pass.cluster.is_degraded());
            overdue += usize::from(releases().any(|end| end < pass.now));
            open_release += usize::from(releases().any(|end| end == SimTime::MAX));
            open_ended += usize::from(pass.queue.iter().any(|e| e.job.walltime >= OPEN_ENDED));
            let ctx = format!("case {case} ({})", sched.config().full_label());
            let (result, _) = assert_pass_matches_reference(&sched, &pass, &ctx);
            backfilled += usize::from(result.started.len() > phase_one_starts(&sched, &pass));
            deferred += usize::from(!result.deferred.is_empty());
            infeasible += usize::from(
                result
                    .rejected
                    .iter()
                    .any(|(_, why)| *why == RejectReason::ProfileInfeasible),
            );
        }
        let (full_machine, screened) = {
            let now = probes();
            (now.0 - shortcuts.0, now.1 - shortcuts.1)
        };
        let seen = format!(
            "degraded {degraded}, overdue {overdue}, open-ended releases {open_release}, \
             open-ended jobs {open_ended}, backfilled {backfilled}, \
             infeasible {infeasible}, deferred {deferred}, \
             full-machine heads {full_machine}, screened candidates {screened}"
        );
        let share = |n: usize, per_400: u64| n as u64 * 400 >= per_400 * cases;
        assert!(
            share(degraded, 80) && share(overdue, 80) && share(open_release, 40),
            "{seen}"
        );
        assert!(
            share(open_ended, 150)
                && share(backfilled, 50)
                && share(infeasible, 8)
                && share(deferred, 50),
            "{seen}"
        );
        assert!(share(full_machine, 35) && share(screened, 500), "{seen}");
    }

    /// How often this thread's EASY passes took the full-machine head test,
    /// and how many candidates the row totals screened out.
    fn probes() -> (usize, usize) {
        (
            probe::FULL_MACHINE.with(|n| n.get()),
            probe::SCREENED.with(|n| n.get()),
        )
    }

    #[test]
    fn easy_pass_matches_profile_pass() {
        assert_easy_pass_matches_profile_pass(400);
    }

    /// The same over many more cases; run in release mode with `--ignored`.
    #[test]
    #[ignore]
    fn easy_pass_matches_profile_pass_at_scale() {
        assert_easy_pass_matches_profile_pass(20_000);
    }

    /// Holds `sched`'s EASY pass over `case` to the profile-based pass and
    /// returns what it did: started and rejected job ids, and the queue.
    fn easy_outcome(
        sched: &Scheduler,
        case: &PassCase,
        ctx: &str,
    ) -> (Vec<u64>, Vec<(u64, RejectReason)>, Vec<u64>) {
        assert_pass_matches_reference(sched, case, ctx);
        let (mut queue, mut cluster) = (case.queue.clone(), case.cluster.clone());
        let r = sched.schedule(case.now, &mut queue, &mut cluster, case.running.view());
        let rejected = r.rejected.iter().map(|(j, why)| (j.id.0, *why)).collect();
        (ids(&r.started), rejected, queued_ids(&queue))
    }

    /// An uninflated FCFS EASY scheduler with pool first-fit placement.
    fn exact_easy() -> Scheduler {
        Scheduler::new(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolFirstFit)
                .inflate_walltime(false)
                .build(),
        )
        .unwrap()
    }

    fn case_of(now: SimTime, cluster: Cluster, running: ReleaseIndex, jobs: Vec<Job>) -> PassCase {
        let mut queue = WaitQueue::new();
        for job in jobs {
            queue.push(job, SimTime::ZERO);
        }
        PassCase {
            now,
            cluster,
            running,
            queue,
        }
    }

    /// Two releases end at the same instant and the head fits only after
    /// both. The split comes from the row with both folded in, which leaves
    /// rack 2 a node at the shadow time for a long backfill; a split from
    /// the row with one release would take it.
    #[test]
    fn easy_head_split_comes_from_the_whole_row_at_a_tied_release() {
        // 3 racks × 2 nodes; only node 5 (rack 2) is free now.
        let mut cluster = Cluster::new(ClusterSpec::new(
            3,
            2,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::None,
        ));
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0], 0, 100);
        park(&mut cluster, &mut running, 101, &[2], 0, 100);
        park(&mut cluster, &mut running, 102, &[1, 3, 4], 0, 1000);
        let jobs = vec![job(1, 2, 50, 500), job(2, 1, 500, 2000)];
        let case = case_of(SimTime::ZERO, cluster, running, jobs);
        let (started, rejected, queued) = easy_outcome(&exact_easy(), &case, "tied release");
        assert_eq!(
            started,
            vec![2],
            "the long backfill keeps clear of [1, 1, 0]"
        );
        assert!(rejected.is_empty());
        assert_eq!(queued, vec![1]);
    }

    /// A placement whose `plan()` refuses job 1 however free the machine
    /// is, while its nominal shape is the one pool first-fit gives.
    #[derive(Debug)]
    struct RefusesJobOne;

    impl Placement for RefusesJobOne {
        fn name(&self) -> &str {
            "refuses-job-one"
        }

        fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(crate::Demand, f64)> {
            Placement::nominal_shape(&MemoryPolicy::PoolFirstFit, job, ctx)
        }

        fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<crate::PlannedAllocation> {
            if job.id == JobId(1) {
                return None;
            }
            Placement::plan(&MemoryPolicy::PoolFirstFit, job, ctx)
        }
    }

    /// The head's nominal shape fits now although `plan()` refused it, so
    /// its reservation starts now and the origin is the shadow row: each
    /// long backfill is subtracted from that one row once, and the second
    /// one still fits.
    #[test]
    fn easy_head_reserved_now_leaves_one_row() {
        let cfg = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolFirstFit)
            .inflate_walltime(false)
            .build();
        let sched =
            Scheduler::with_policies(cfg, Box::new(cfg.order), Box::new(RefusesJobOne)).unwrap();
        // 4 free nodes: the head reserves 2 of them now, for 1000 s.
        let jobs = vec![
            job(1, 2, 500, 1000),
            job(2, 1, 500, 5000),
            job(3, 1, 500, 5000),
            job(4, 1, 500, 5000),
        ];
        let case = case_of(SimTime::ZERO, small_cluster(), ReleaseIndex::new(), jobs);
        let (started, rejected, queued) = easy_outcome(&sched, &case, "reserved now");
        assert_eq!(started, vec![2, 3]);
        assert!(rejected.is_empty());
        assert_eq!(queued, vec![1, 4]);
    }

    /// A release planned before `now` (a job overrunning its planned end)
    /// counts as free at the origin: the head fits there, so nothing
    /// backfills onto the one node that is really free.
    #[test]
    fn easy_folds_overdue_releases_into_the_origin() {
        let now = SimTime::from_secs(1000);
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 500); // overdue
        park(&mut cluster, &mut running, 101, &[2], 0, 2000);
        let jobs = vec![job(1, 3, 500, 1000), job(2, 1, 50, 100)];
        let case = case_of(now, cluster, running, jobs);
        let (started, rejected, queued) = easy_outcome(&exact_easy(), &case, "overdue");
        assert!(started.is_empty() && rejected.is_empty());
        assert_eq!(queued, vec![1, 2]);
    }

    /// A phase-1 start's release ties a running one: the head fits only
    /// with both, at the shared instant, where it takes every node.
    #[test]
    fn easy_folds_a_phase_one_release_that_ties_a_running_one() {
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let jobs = vec![
            job(1, 1, 50, 100),   // phase 1: ends at t=100, with lease 100
            job(2, 4, 500, 1000), // head: all 4 nodes from t=100
            job(3, 1, 50, 500),   // outlives t=100: must wait
            job(4, 1, 50, 100),   // ends at t=100: backfills
        ];
        let case = case_of(SimTime::ZERO, cluster, running, jobs);
        let (started, rejected, queued) = easy_outcome(&exact_easy(), &case, "tied phase 1");
        assert_eq!(started, vec![1, 4]);
        assert!(rejected.is_empty());
        assert_eq!(queued, vec![2, 3]);
    }

    /// A backfill that ends exactly at the shadow time leaves the shadow
    /// row out of its window and starts; one a second longer does not.
    #[test]
    fn easy_backfill_ending_at_the_shadow_time_starts() {
        for (wall_s, starts) in [(100, true), (101, false)] {
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0, 1, 2], 0, 100);
            let jobs = vec![job(1, 4, 500, 1000), job(2, 1, 50, wall_s)];
            let case = case_of(SimTime::ZERO, cluster, running, jobs);
            let ctx = format!("backfill of {wall_s} s");
            let (started, _, _) = easy_outcome(&exact_easy(), &case, &ctx);
            assert_eq!(started == vec![2], starts, "{ctx}");
        }
    }

    /// A long backfill holds its nodes past the shadow time, so the next
    /// long one no longer fits the shadow row; a short one still starts.
    #[test]
    fn easy_long_backfills_share_the_shadow_row() {
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        // The head takes 3 of the 4 nodes from t=100: one is left there.
        let jobs = vec![
            job(1, 3, 500, 1000),
            job(2, 1, 50, 500),
            job(3, 1, 50, 500),
            job(4, 1, 50, 100),
        ];
        let case = case_of(SimTime::ZERO, cluster, running, jobs);
        let (started, rejected, queued) = easy_outcome(&exact_easy(), &case, "long backfills");
        assert_eq!(started, vec![2, 4]);
        assert!(rejected.is_empty());
        assert_eq!(queued, vec![1, 3]);
    }

    /// A head whose reservation runs to the end of time holds the shadow
    /// row for ever: only backfills that end by the shadow time start,
    /// including none whose own end saturates.
    #[test]
    fn easy_head_reserved_to_the_end_of_time() {
        let mut cluster = small_cluster();
        let mut running = ReleaseIndex::new();
        park(&mut cluster, &mut running, 100, &[0, 1], 0, 100);
        let mut head = job(1, 4, 500, 1000);
        head.walltime = SimDuration::MAX;
        let mut forever = job(4, 1, 50, 100);
        forever.walltime = SimDuration::MAX;
        let jobs = vec![head, job(2, 1, 50, 200), forever, job(3, 1, 50, 100)];
        let case = case_of(SimTime::ZERO, cluster, running, jobs);
        let (started, rejected, queued) = easy_outcome(&exact_easy(), &case, "open-ended head");
        assert_eq!(started, vec![3]);
        assert!(rejected.is_empty());
        assert_eq!(queued, vec![1, 2, 4]);
    }

    /// A placement whose nominal shape is the same for every job, fitting
    /// the machine or not; it places jobs now as pool first-fit does.
    #[derive(Debug)]
    struct FixedNominal(crate::Demand);

    impl Placement for FixedNominal {
        fn name(&self) -> &str {
            "fixed-nominal"
        }

        fn nominal_shape(&self, _: &Job, _: &SchedContext<'_>) -> Option<(crate::Demand, f64)> {
            Some((self.0, 1.0))
        }

        fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<crate::PlannedAllocation> {
            Placement::plan(&MemoryPolicy::PoolFirstFit, job, ctx)
        }
    }

    /// On a full, healthy machine whose every lease has a release, the pass
    /// decides the head on the idle machine alone. A custom nominal shape
    /// that exceeds it (more nodes than the machine has, or more pool than
    /// the rack's) is rejected there exactly as the walk over the releases
    /// rejects it, and one that fits stays queued.
    #[test]
    fn easy_full_machine_head_test_matches_the_walk() {
        let cfg = *exact_easy().config();
        for (nodes, remote_per_node, fits) in [
            (5, 0, false),
            (1, 101 * GIB, false),
            (4, 25 * GIB, true),
            (1, 0, true),
        ] {
            let demand = crate::Demand {
                nodes,
                remote_per_node,
            };
            let placement = Box::new(FixedNominal(demand));
            let sched = Scheduler::with_policies(cfg, Box::new(cfg.order), placement).unwrap();
            let mut cluster = small_cluster();
            let mut running = ReleaseIndex::new();
            park(&mut cluster, &mut running, 100, &[0, 1], 0, 500);
            park(&mut cluster, &mut running, 101, &[2, 3], 10 * GIB, 1000);
            let jobs = vec![job(1, 2, 50, 100), job(2, 1, 50, 100)];
            let case = case_of(SimTime::ZERO, cluster, running, jobs);
            let ctx = format!("nominal {demand:?}");
            let before = probes().0;
            let (started, rejected, queued) = easy_outcome(&sched, &case, &ctx);
            assert!(probes().0 > before, "{ctx}: the full-machine test decided");
            assert!(started.is_empty(), "{ctx}");
            if fits {
                assert!(rejected.is_empty(), "{ctx}");
                assert_eq!(queued, vec![1, 2], "{ctx}");
            } else {
                let infeasible = vec![(1, RejectReason::ProfileInfeasible)];
                assert_eq!(rejected, infeasible, "{ctx}");
                assert_eq!(queued, vec![2], "{ctx}");
            }
        }
    }

    /// A head that never fits is rejected on a healthy machine, and kept
    /// queued (with nothing backfilled) on a degraded one. The machine is
    /// full, so the scan for backfills is skipped, but only after the
    /// head's reservation is tried: also for a custom placement, which
    /// answers `plan_split` through its `plan`.
    #[test]
    fn easy_head_that_never_fits() {
        let cfg = *exact_easy().config();
        let custom = Scheduler::with_policies(cfg, Box::new(cfg.order), Box::new(RefusesJobOne));
        for (sched, placement) in [(exact_easy(), "pool-ff"), (custom.unwrap(), "custom")] {
            for degrade in [false, true] {
                // Nodes 0–2 run until t=1000; node 3 is lost for good:
                // failed (degraded), or held by a lease the pass knows no
                // end for.
                let mut cluster = small_cluster();
                let mut running = ReleaseIndex::new();
                park(&mut cluster, &mut running, 100, &[0, 1, 2], 0, 1000);
                let node3 = dmhpc_platform::NodeId(3);
                if degrade {
                    cluster.fail_node(node3).unwrap();
                } else {
                    let a = MemoryAssignment::local(vec![node3], 32 * GIB);
                    cluster.allocate(101, a).unwrap();
                }
                assert_eq!(cluster.is_degraded(), degrade);
                assert_eq!(cluster.free_nodes(), 0);
                let jobs = vec![job(1, 4, 50, 100), job(2, 1, 50, 100)];
                let case = case_of(SimTime::ZERO, cluster, running, jobs);
                let health = if degrade { "degraded" } else { "healthy" };
                let ctx = format!("{placement}, {health}");
                let (started, rejected, queued) = easy_outcome(&sched, &case, &ctx);
                assert!(started.is_empty(), "{ctx}");
                if degrade {
                    assert!(rejected.is_empty(), "{ctx}");
                    assert_eq!(queued, vec![1, 2], "{ctx}");
                } else {
                    assert_eq!(
                        rejected,
                        vec![(1, RejectReason::ProfileInfeasible)],
                        "{ctx}"
                    );
                    assert_eq!(queued, vec![2], "{ctx}");
                }
            }
        }
    }
}
