//! Admission as it was before it tested the deadline first: the nominal
//! shape, then the best dilation, then the verdict. The oracle
//! [`AdmissionPolicy::assess`] is held to, by a differential test and, in
//! debug builds, on every call.

use super::{AdmissionPolicy, AdmissionVerdict, RejectReason};
use crate::traits::{Placement, SchedContext};
use dmhpc_des::time::SimTime;
use dmhpc_workload::Job;

/// The verdict `policy` gives `job`, by the shape-first rules.
pub(super) fn assess(
    policy: AdmissionPolicy,
    job: &Job,
    ctx: &SchedContext<'_>,
    placement: &dyn Placement,
) -> AdmissionVerdict {
    if matches!(policy, AdmissionPolicy::AdmitAll) {
        return AdmissionVerdict::Admit;
    }
    let Some(deadline) = ctx.deadline(job) else {
        return AdmissionVerdict::Admit;
    };
    let Some(laxity) = ctx.laxity_s(job) else {
        return AdmissionVerdict::Admit;
    };
    let Some((demand, _)) = placement.nominal_shape(job, ctx) else {
        return AdmissionVerdict::Admit;
    };
    let best = placement.best_dilation(job, ctx).unwrap_or(1.0);
    let wall = job.walltime.as_secs_f64();
    let meets = laxity >= 0.0 && wall * (best - 1.0) <= laxity;
    match policy {
        AdmissionPolicy::AdmitAll => unreachable!("handled above"),
        AdmissionPolicy::RejectInfeasible => {
            let up = ctx.cluster.available_nodes() >= demand.nodes as usize;
            if meets && up {
                AdmissionVerdict::Admit
            } else {
                AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible)
            }
        }
        AdmissionPolicy::DeferUntilFeasible => {
            if !meets {
                return AdmissionVerdict::Reject(RejectReason::DeadlineInfeasible);
            }
            let lapse = SimTime::from_secs_f64(deadline.as_secs_f64() - wall * best);
            let recheck_at = if lapse > ctx.now { lapse } else { deadline };
            AdmissionVerdict::Defer { recheck_at }
        }
    }
}
