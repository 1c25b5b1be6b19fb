//! Admission control and deadline-priced preemption.
//!
//! The deadline-aware ordering family (EDF, least-laxity) decides *who goes
//! first*; this module closes the loop on the other two decisions a
//! deadline can drive:
//!
//! * [`AdmissionPolicy`] — whether a job should stay in the queue at all.
//!   `AdmitAll` is the classic batch-scheduler behaviour (and the default:
//!   it adds nothing to labels, cell hashes, or serialized specs).
//!   `RejectInfeasible` turns the scheduler into an admission controller:
//!   a job whose deadline can no longer be met by any placement on the
//!   current up-capacity machine is rejected with a typed
//!   [`RejectReason`] instead of aging in the queue. `DeferUntilFeasible`
//!   is the lenient middle ground: jobs that are only *transiently*
//!   unservable (capacity busy, pools degraded pending repair) are
//!   deferred — kept queued, surfaced once as deferred, re-checked at the
//!   instant their deadline would lapse — and rejected only when even a
//!   healthy idle machine could not meet the deadline any more.
//! * [`PreemptPolicy`] — whether a deadline-critical arrival may
//!   checkpoint running work to start in time. `Never` is the default.
//!   `LaxityCheckpoint` preempts the laxity-richest running jobs (the ones
//!   that can best afford a restart) and resubmits them with a
//!   checkpoint-restart overhead, reusing the fault-model interrupt paths.
//!
//! Both policies are engine-facing: the scheduler evaluates admission
//! verdicts for jobs a pass left queued, and the simulation engine acts on
//! them (emitting reject/defer events, scheduling re-check wake-ups,
//! driving preemption between passes).
//!
//! A pass assesses every queued stamped job, so [`AdmissionPolicy::assess`]
//! tests the deadline before the shape: the laxity test needs only the
//! best dilation, and on a machine with every node up a job that passes
//! it is admitted by `RejectInfeasible` without a nominal shape, which the
//! enumerating placements would list and sort to find. The verdict is the
//! shape-first one, held to it by a differential test and, in debug
//! builds, on every call.

#[cfg(debug_assertions)]
use crate::profile::fits_idle_machine;
use crate::traits::{Placement, SchedContext};
use dmhpc_des::time::SimTime;
use dmhpc_workload::Job;

#[cfg(any(test, debug_assertions))]
mod reference;

/// Why a job was refused admission. `Display` renders the exact strings
/// carried by reject events and records — the first two predate this enum
/// and must stay byte-identical for replay stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The job cannot run on this machine under the active placement
    /// policy, even when the machine is idle.
    CapacityExceeded,
    /// The job's nominal shape never fits the availability profile on a
    /// healthy machine (pool topology too small for the shape).
    ProfileInfeasible,
    /// No up-capacity placement can start the job early enough to meet
    /// its deadline.
    DeadlineInfeasible,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::CapacityExceeded => "demand exceeds machine capacity under this policy",
            RejectReason::ProfileInfeasible => "nominal shape never fits the profile",
            RejectReason::DeadlineInfeasible => "no up-capacity placement can meet the deadline",
        })
    }
}

/// The admission controller's verdict on one queued job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// Keep the job queued; nothing to report.
    Admit,
    /// Keep the job queued, surface it as deferred, and re-assess no later
    /// than `recheck_at` (the instant its deadline would lapse).
    Defer {
        /// When the engine must re-run admission for this job.
        recheck_at: SimTime,
    },
    /// Remove the job from the queue and record it as rejected.
    Reject(RejectReason),
}

/// Per-run admission control. See the module docs for the three modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Every job waits as long as it takes (classic batch behaviour).
    #[default]
    AdmitAll,
    /// Reject jobs whose deadline no placement on the current up-capacity
    /// machine can meet.
    RejectInfeasible,
    /// Defer transiently-unservable jobs; reject only once even a healthy
    /// idle machine could not meet the deadline.
    DeferUntilFeasible,
}

impl AdmissionPolicy {
    /// Stable name for labels and serialized specs.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::AdmitAll => "admit-all",
            AdmissionPolicy::RejectInfeasible => "reject-infeasible",
            AdmissionPolicy::DeferUntilFeasible => "defer",
        }
    }

    /// Inverse of [`AdmissionPolicy::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "admit-all" => Some(AdmissionPolicy::AdmitAll),
            "reject-infeasible" => Some(AdmissionPolicy::RejectInfeasible),
            "defer" => Some(AdmissionPolicy::DeferUntilFeasible),
            _ => None,
        }
    }

    /// Assess one job a pass left queued. Jobs without a deadline are
    /// always admitted: admission control is a deadline mechanism, and a
    /// run without SLO stamps behaves identically under every policy.
    ///
    /// Feasibility is the laxity test: a shape with predicted dilation `d`
    /// started *now* finishes by the deadline iff
    /// `walltime × (d − 1) ≤ laxity`, using the best (smallest) dilation
    /// the placement policy can achieve. `RejectInfeasible` additionally
    /// demands the job's nominal node count fit the machine's current
    /// up-capacity, so capacity lost to faults fails jobs fast;
    /// `DeferUntilFeasible` assesses the healthy machine and defers
    /// instead, so transient degradation never terminally strands a job.
    ///
    /// The laxity test comes first, because it needs only the best
    /// dilation, which the enumerating placements know without listing a
    /// shape. Under `RejectInfeasible` on a machine with every node up, a
    /// job that passes it is admitted without a nominal shape: a nominal
    /// shape fits the idle machine ([`Placement`]), so it needs no more
    /// nodes than are up. Every other case reads the nominal shape too.
    pub fn assess(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        placement: &dyn Placement,
    ) -> AdmissionVerdict {
        if matches!(self, AdmissionPolicy::AdmitAll) {
            return AdmissionVerdict::Admit;
        }
        let Some(deadline) = ctx.deadline(job) else {
            return AdmissionVerdict::Admit;
        };
        let Some(laxity) = ctx.laxity_s(job) else {
            return AdmissionVerdict::Admit;
        };
        let best = placement.best_dilation(job, ctx).unwrap_or(1.0);
        let wall = job.walltime.as_secs_f64();
        let meets = laxity >= 0.0 && wall * (best - 1.0) <= laxity;
        let cluster = ctx.cluster;
        let all_up = cluster.available_nodes() == cluster.total_nodes() as usize;
        let verdict = if *self == AdmissionPolicy::RejectInfeasible && meets && all_up {
            AdmissionVerdict::Admit
        } else if let Some((demand, _)) = placement.nominal_shape(job, ctx) {
            match self {
                AdmissionPolicy::AdmitAll => unreachable!("handled above"),
                AdmissionPolicy::RejectInfeasible => {
                    let up = cluster.available_nodes() >= demand.nodes as usize;
                    if meets && up {
                        AdmissionVerdict::Admit
                    } else {
                        AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
                    }
                }
                AdmissionPolicy::DeferUntilFeasible if !meets => {
                    AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
                }
                AdmissionPolicy::DeferUntilFeasible => {
                    // Still feasible on a healthy machine but not started:
                    // re-check at the instant the best shape would start
                    // too late. At that boundary the laxity test still
                    // passes with equality, so fall back to the deadline
                    // itself — there laxity is strictly negative and the
                    // reject arm fires.
                    let lapse = SimTime::from_secs_f64(deadline.as_secs_f64() - wall * best);
                    let recheck_at = if lapse > ctx.now { lapse } else { deadline };
                    AdmissionVerdict::Defer { recheck_at }
                }
            }
        } else {
            // Jobs impossible even on an idle machine are the scheduling
            // pass's problem (rejected at the queue head as
            // CapacityExceeded); admission only prices deadlines.
            AdmissionVerdict::Admit
        };
        #[cfg(debug_assertions)]
        {
            if let Some((demand, _)) = placement.nominal_shape(job, ctx) {
                debug_assert!(
                    fits_idle_machine(ctx.cluster, &demand),
                    "{}: nominal shape {demand:?} of job {} exceeds the idle machine",
                    placement.name(),
                    job.id.0
                );
            }
            debug_assert_eq!(
                verdict,
                reference::assess(*self, job, ctx, placement),
                "admission of job {}",
                job.id.0
            );
        }
        verdict
    }
}

/// Whether a deadline-critical arrival may checkpoint running work. The
/// engine triggers preemption when a stamped job's deadline would be lost
/// by waiting for the next natural release but could still be met if it
/// started now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptPolicy {
    /// Running jobs are never disturbed (classic batch behaviour).
    #[default]
    Never,
    /// Checkpoint the laxity-richest running jobs — those that can best
    /// afford a restart — and resubmit them with `overhead_s` seconds of
    /// checkpoint-restart rework added to their remaining runtime.
    LaxityCheckpoint {
        /// Checkpoint-restart overhead charged to each preempted job.
        overhead_s: u64,
    },
}

impl PreemptPolicy {
    /// Stable name for labels and serialized specs.
    pub fn name(&self) -> &'static str {
        match self {
            PreemptPolicy::Never => "never",
            PreemptPolicy::LaxityCheckpoint { .. } => "laxity-checkpoint",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::ReleaseView;
    use crate::MemoryPolicy;
    use dmhpc_des::rng::Pcg64;
    use dmhpc_platform::{
        Cluster, ClusterSpec, MemoryAssignment, NodeSpec, PoolId, PoolTopology, SlowdownModel,
    };
    use dmhpc_workload::{JobBuilder, Slo};

    const GIB: u64 = 1024;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::new(
            1,
            4,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::None,
        ))
    }

    fn ctx<'a>(now_s: u64, cluster: &'a Cluster, model: &'a SlowdownModel) -> SchedContext<'a> {
        SchedContext::new(
            SimTime::from_secs(now_s),
            cluster,
            model,
            ReleaseView::empty(),
            None,
        )
    }

    fn stamped(deadline_s: f64) -> dmhpc_workload::Job {
        JobBuilder::new(1)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(50, 100)
            .mem_per_node(32 * GIB)
            .slo(Slo::Deadline { deadline_s })
            .build()
    }

    #[test]
    fn admit_all_is_inert() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = ctx(0, &c, &model);
        let verdict =
            AdmissionPolicy::AdmitAll.assess(&stamped(1.0), &ctx, &MemoryPolicy::LocalOnly);
        assert_eq!(verdict, AdmissionVerdict::Admit);
    }

    #[test]
    fn unstamped_jobs_are_always_admitted() {
        let c = cluster();
        let model = SlowdownModel::None;
        let ctx = ctx(0, &c, &model);
        let plain = JobBuilder::new(2).nodes(1).runtime_secs(50, 100).build();
        for policy in [
            AdmissionPolicy::RejectInfeasible,
            AdmissionPolicy::DeferUntilFeasible,
        ] {
            assert_eq!(
                policy.assess(&plain, &ctx, &MemoryPolicy::LocalOnly),
                AdmissionVerdict::Admit
            );
        }
    }

    #[test]
    fn reject_infeasible_prices_laxity() {
        let c = cluster();
        let model = SlowdownModel::None;
        // Deadline 500 s, walltime 100 s: feasible until t = 400.
        let job = stamped(500.0);
        let at_350 = ctx(350, &c, &model);
        assert_eq!(
            AdmissionPolicy::RejectInfeasible.assess(&job, &at_350, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Admit
        );
        let at_450 = ctx(450, &c, &model);
        assert_eq!(
            AdmissionPolicy::RejectInfeasible.assess(&job, &at_450, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
        );
    }

    #[test]
    fn defer_until_feasible_defers_then_rejects() {
        let c = cluster();
        let model = SlowdownModel::None;
        let job = stamped(500.0);
        // Feasible but (by construction of the test) not started: defer,
        // re-check at the lapse instant deadline − walltime = t = 400.
        let at_100 = ctx(100, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_100, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Defer {
                recheck_at: SimTime::from_secs(400)
            }
        );
        // At the boundary the laxity test passes with equality: defer one
        // more time, to the deadline itself.
        let at_400 = ctx(400, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_400, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Defer {
                recheck_at: SimTime::from_secs(500)
            }
        );
        // Past it: even a healthy idle machine cannot meet the deadline.
        let at_401 = ctx(401, &c, &model);
        assert_eq!(
            AdmissionPolicy::DeferUntilFeasible.assess(&job, &at_401, &MemoryPolicy::LocalOnly),
            AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
        );
    }

    /// `assess` gives the shape-first reference's verdict over `cases`
    /// random passes: clusters healthy and degraded (failed nodes, a pool
    /// at half health), partly busy, with or without a run-wide SLO
    /// target, and jobs stamped or not, some larger than the machine, with
    /// deadlines on both sides of their laxity's zero; each job under both
    /// deadline policies and all five memory policies.
    fn assert_assess_matches_reference(cases: u64) {
        let (mut degraded, mut healthy, mut unstamped) = (0, 0, 0);
        let (mut lax, mut late, mut shape_free) = (0, 0, 0);
        let (mut admits, mut defers, mut rejects) = (0, 0, 0);
        for case in 0..cases {
            let mut rng = Pcg64::new_stream(0xAD4_1551, case);
            let racks = 1 + rng.index(3) as u32;
            let per_rack = 2 + rng.index(5) as u32;
            let pool = match rng.index(3) {
                0 => PoolTopology::None,
                1 => PoolTopology::PerRack {
                    mib_per_rack: 128 * GIB,
                },
                _ => PoolTopology::Global { mib: 256 * GIB },
            };
            let mut c = Cluster::new(ClusterSpec::new(
                racks,
                per_rack,
                NodeSpec::new(64, 64 * GIB),
                pool,
            ));
            let total = racks * per_rack;
            for node in 0..total {
                if rng.chance(0.5) {
                    let node = vec![dmhpc_platform::NodeId(node)];
                    let a = if pool != PoolTopology::None && rng.chance(0.4) {
                        MemoryAssignment::hybrid(node, 48 * GIB, rng.bounded_u64(32) * GIB + 1)
                    } else {
                        MemoryAssignment::local(node, 48 * GIB)
                    };
                    // A pool too full to lend leaves the node free.
                    let _ = c.allocate(100 + case, a);
                }
            }
            if rng.chance(0.3) {
                let node = dmhpc_platform::NodeId(rng.bounded_u64(total as u64) as u32);
                c.fail_node(node).unwrap();
            }
            if pool != PoolTopology::None && rng.chance(0.2) {
                c.set_pool_health(PoolId(0), 0.5).unwrap();
            }
            let is_degraded = c.is_degraded();
            degraded += usize::from(is_degraded);
            healthy += usize::from(!is_degraded);
            let model = [SlowdownModel::None, SlowdownModel::Linear { penalty: 1.5 }][rng.index(2)];
            let now = 1000 + rng.bounded_u64(5000);
            let slo_wait_s = rng.chance(0.3).then(|| rng.bounded_u64(4000) as f64);
            let ctx = SchedContext::new(
                SimTime::from_secs(now),
                &c,
                &model,
                ReleaseView::empty(),
                slo_wait_s,
            );
            for id in 0..1 + rng.index(6) as u64 {
                let wall = 10 + rng.bounded_u64(3000);
                let arrival = rng.bounded_u64(now + 1);
                let mut builder = JobBuilder::new(id)
                    .arrival_secs(arrival)
                    .nodes(1 + rng.bounded_u64(total as u64 + 2) as u32)
                    .mem_per_node((8 + rng.bounded_u64(150)) * GIB)
                    .intensity(rng.bounded_u64(11) as f64 / 10.0)
                    .runtime_secs(5, wall);
                if rng.chance(0.7) {
                    // A wait budget whose laxity now is within 2,000 s
                    // of zero, either side.
                    let slack = rng.bounded_u64(4000) as f64 - 2000.0;
                    let deadline_s = ((now - arrival + wall) as f64 + slack).max(1.0);
                    builder = builder.slo(Slo::Deadline { deadline_s });
                }
                let job = builder.build();
                match ctx.laxity_s(&job) {
                    None => unstamped += 1,
                    Some(l) if l >= 0.0 => lax += 1,
                    Some(_) => late += 1,
                }
                for policy in [
                    AdmissionPolicy::RejectInfeasible,
                    AdmissionPolicy::DeferUntilFeasible,
                ] {
                    for memory in [
                        MemoryPolicy::LocalOnly,
                        MemoryPolicy::PoolFirstFit,
                        MemoryPolicy::PoolBestFit,
                        MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
                        MemoryPolicy::LaxityAware { max_dilation: 1.4 },
                    ] {
                        let got = policy.assess(&job, &ctx, &memory);
                        let want = reference::assess(policy, &job, &ctx, &memory);
                        assert_eq!(got, want, "case {case}, job {id}, {policy:?}, {memory:?}");
                        shape_free += usize::from(
                            policy == AdmissionPolicy::RejectInfeasible
                                && c.available_nodes() == total as usize
                                && got == AdmissionVerdict::Admit
                                && ctx.laxity_s(&job).is_some_and(|l| l >= 0.0),
                        );
                        match got {
                            AdmissionVerdict::Admit => admits += 1,
                            AdmissionVerdict::Defer { .. } => defers += 1,
                            AdmissionVerdict::Reject(_) => rejects += 1,
                        }
                    }
                }
            }
        }
        let seen = format!(
            "degraded {degraded}, healthy {healthy}, unstamped {unstamped}, lax {lax}, \
             late {late}, shape-free admits {shape_free}, admits {admits}, \
             defers {defers}, rejects {rejects}"
        );
        let share = |n: usize, per_400: u64| n as u64 * 400 >= per_400 * cases;
        assert!(
            share(degraded, 80) && share(healthy, 200) && share(unstamped, 150),
            "{seen}"
        );
        assert!(
            share(lax, 350) && share(late, 400) && share(shape_free, 800),
            "{seen}"
        );
        assert!(
            share(admits, 2000) && share(defers, 1000) && share(rejects, 1000),
            "{seen}"
        );
    }

    #[test]
    fn assess_matches_shape_first_reference() {
        assert_assess_matches_reference(400);
    }

    /// The same over many more cases; run in release mode with `--ignored`.
    #[test]
    #[ignore]
    fn assess_matches_shape_first_reference_at_scale() {
        assert_assess_matches_reference(20_000);
    }

    #[test]
    fn reject_strings_are_stable() {
        assert_eq!(
            RejectReason::CapacityExceeded.to_string(),
            "demand exceeds machine capacity under this policy"
        );
        assert_eq!(
            RejectReason::ProfileInfeasible.to_string(),
            "nominal shape never fits the profile"
        );
        assert_eq!(
            RejectReason::DeadlineInfeasible.to_string(),
            "no up-capacity placement can meet the deadline"
        );
    }

    #[test]
    fn names_round_trip() {
        for policy in [
            AdmissionPolicy::AdmitAll,
            AdmissionPolicy::RejectInfeasible,
            AdmissionPolicy::DeferUntilFeasible,
        ] {
            assert_eq!(AdmissionPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(AdmissionPolicy::from_name("bogus"), None);
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::AdmitAll);
        assert_eq!(PreemptPolicy::default(), PreemptPolicy::Never);
        assert_eq!(
            PreemptPolicy::LaxityCheckpoint { overhead_s: 60 }.name(),
            "laxity-checkpoint"
        );
    }
}
