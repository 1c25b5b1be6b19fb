//! The five memory policies as they were decided before the shape list:
//! inherent `nominal_shape` and `plan` taking a cluster and a model, and a
//! [`Placement`] impl that overrides both for laxity-aware placement and
//! enumerates shapes again for `best_dilation`, and placement that collects
//! node ids rack by rack as it walks. Test-only; the shape-list hooks and
//! the count-first split walk are held to it by a differential test.

use super::{
    current_pressure, enumerate_shapes, pool_can_ever_serve, sort_shapes_for_laxity, Demand,
    MemoryPolicy, PlannedAllocation,
};
use crate::traits::{Placement, SchedContext};
use dmhpc_platform::{
    Cluster, DilationInputs, MemoryAssignment, MiB, NodeId, PoolId, PoolTopology, RackId,
    SlowdownModel,
};
use dmhpc_workload::Job;

/// The shape `policy` would give the job on an otherwise idle machine,
/// with no context, so laxity-aware reads as slowdown-aware.
pub(super) fn nominal_shape(
    policy: &MemoryPolicy,
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
) -> Option<(Demand, f64)> {
    let spec = cluster.spec();
    let node_local = spec.node.local_mem;
    let total_nodes = spec.total_nodes();
    let fits_locally = job.mem_per_node <= node_local;

    let shape = match policy {
        MemoryPolicy::LocalOnly => {
            let k = MemoryPolicy::inflated_nodes(job, node_local);
            (
                Demand {
                    nodes: k,
                    remote_per_node: 0,
                },
                1.0,
            )
        }
        MemoryPolicy::PoolFirstFit | MemoryPolicy::PoolBestFit => {
            if fits_locally {
                (
                    Demand {
                        nodes: job.nodes,
                        remote_per_node: 0,
                    },
                    1.0,
                )
            } else {
                let remote = job.mem_per_node - node_local;
                if pool_can_ever_serve(cluster, job.nodes, remote) {
                    let far = remote as f64 / job.mem_per_node as f64;
                    let dil = model.dilation(DilationInputs {
                        far_fraction: far,
                        intensity: job.intensity,
                        pool_pressure: 0.0,
                    });
                    (
                        Demand {
                            nodes: job.nodes,
                            remote_per_node: remote,
                        },
                        dil,
                    )
                } else {
                    let k = MemoryPolicy::inflated_nodes(job, node_local);
                    (
                        Demand {
                            nodes: k,
                            remote_per_node: 0,
                        },
                        1.0,
                    )
                }
            }
        }
        MemoryPolicy::SlowdownAware { max_dilation }
        | MemoryPolicy::LaxityAware { max_dilation } => {
            best_shape(job, cluster, model, *max_dilation, 0.0)?
        }
    };
    if shape.0.nodes > total_nodes {
        return None;
    }
    Some(shape)
}

/// Place the job right now under `policy`, with no count-only probe and
/// no context (laxity-aware reads as slowdown-aware).
pub(super) fn plan(
    policy: &MemoryPolicy,
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
) -> Option<PlannedAllocation> {
    let spec = cluster.spec();
    let node_local = spec.node.local_mem;
    let fits_locally = job.mem_per_node <= node_local;

    match policy {
        MemoryPolicy::LocalOnly => {
            let k = MemoryPolicy::inflated_nodes(job, node_local);
            place_local(job, cluster, k)
        }
        MemoryPolicy::PoolFirstFit | MemoryPolicy::PoolBestFit => {
            if fits_locally {
                return place_local(job, cluster, job.nodes);
            }
            let remote = job.mem_per_node - node_local;
            let best_fit = matches!(policy, MemoryPolicy::PoolBestFit);
            place_with_pool(job, cluster, model, job.nodes, remote, best_fit).or_else(|| {
                let k = MemoryPolicy::inflated_nodes(job, node_local);
                place_local(job, cluster, k)
            })
        }
        MemoryPolicy::SlowdownAware { max_dilation }
        | MemoryPolicy::LaxityAware { max_dilation } => {
            let pressure = current_pressure(cluster);
            let mut shapes = enumerate_shapes(job, cluster, model, *max_dilation, pressure);
            sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), None);
            place_first(job, cluster, model, shapes)
        }
    }
}

/// The [`Placement`] impl: laxity-aware overrides of both hooks, the
/// count-only probe, and `best_dilation` as the minimum over the shapes.
#[derive(Debug)]
pub(super) struct Reference(pub MemoryPolicy);

impl Placement for Reference {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
        if let MemoryPolicy::LaxityAware { max_dilation } = self.0 {
            let mut shapes = enumerate_shapes(job, ctx.cluster, ctx.model, max_dilation, 0.0);
            sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), ctx.laxity_s(job));
            let shape = shapes.into_iter().next()?;
            if shape.0.nodes > ctx.cluster.spec().total_nodes() {
                return None;
            }
            return Some(shape);
        }
        nominal_shape(&self.0, job, ctx.cluster, ctx.model)
    }

    fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
        if ctx.cluster.free_nodes() < job.nodes as usize {
            return None;
        }
        if let MemoryPolicy::LaxityAware { max_dilation } = self.0 {
            let cluster = ctx.cluster;
            let mut shapes = enumerate_shapes(
                job,
                cluster,
                ctx.model,
                max_dilation,
                current_pressure(cluster),
            );
            sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), ctx.laxity_s(job));
            return place_first(job, cluster, ctx.model, shapes);
        }
        plan(&self.0, job, ctx.cluster, ctx.model)
    }

    fn best_dilation(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<f64> {
        match self.0 {
            MemoryPolicy::SlowdownAware { max_dilation }
            | MemoryPolicy::LaxityAware { max_dilation } => {
                enumerate_shapes(job, ctx.cluster, ctx.model, max_dilation, 0.0)
                    .into_iter()
                    .map(|(_, dil)| dil)
                    // lint: allow(panic) — dilations are finite arithmetic on validated specs; NaN is a policy bug
                    .min_by(|a, b| a.partial_cmp(b).expect("finite dilations"))
            }
            _ => nominal_shape(&self.0, job, ctx.cluster, ctx.model).map(|(_, dilation)| dilation),
        }
    }
}

/// Walk `shapes` in order and commit the first that is placeable now.
fn place_first(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    shapes: Vec<(Demand, f64)>,
) -> Option<PlannedAllocation> {
    for (demand, _) in shapes {
        let placed = if demand.remote_per_node == 0 {
            place_local(job, cluster, demand.nodes)
        } else {
            place_with_pool(
                job,
                cluster,
                model,
                demand.nodes,
                demand.remote_per_node,
                true,
            )
        };
        if placed.is_some() {
            return placed;
        }
    }
    None
}

/// Cost-optimal shape for the slowdown-aware policy.
fn best_shape(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    max_dilation: f64,
    pressure: f64,
) -> Option<(Demand, f64)> {
    enumerate_shapes(job, cluster, model, max_dilation, pressure)
        .into_iter()
        .min_by(|a, b| {
            let ca = a.0.nodes as f64 * a.1;
            let cb = b.0.nodes as f64 * b.1;
            ca.partial_cmp(&cb)
                // lint: allow(panic) — placement costs are finite arithmetic on validated specs; NaN is a policy bug
                .expect("finite costs")
                .then(a.0.nodes.cmp(&b.0.nodes))
        })
}

/// Place `k` nodes fully locally (first-fit), at dilation 1.
fn place_local(job: &Job, cluster: &Cluster, k: u32) -> Option<PlannedAllocation> {
    if k > cluster.total_nodes() {
        return None;
    }
    let nodes = cluster.first_fit_nodes(k as usize)?;
    Some(PlannedAllocation {
        assignment: MemoryAssignment::local(nodes, job.mem_per_node_at(k)),
        dilation: 1.0,
    })
}

/// Place `k` nodes each borrowing `remote` MiB, priced from the placed
/// assignment's far fraction at the current pool pressure.
fn place_with_pool(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    k: u32,
    remote: MiB,
    best_fit: bool,
) -> Option<PlannedAllocation> {
    let assignment = assign_with_pool(cluster, k, remote, best_fit)?;
    let dilation = model.dilation(DilationInputs {
        far_fraction: assignment.far_fraction(),
        intensity: job.intensity,
        pool_pressure: current_pressure(cluster),
    });
    Some(PlannedAllocation {
        assignment,
        dilation,
    })
}

/// Place `k` nodes each borrowing `remote` MiB from their rack's domain,
/// building the rack order and the node list as it goes. `best_fit`
/// selects tightest-sufficient pools first; otherwise racks come in index
/// order.
fn assign_with_pool(
    cluster: &Cluster,
    k: u32,
    remote: MiB,
    best_fit: bool,
) -> Option<MemoryAssignment> {
    let spec = cluster.spec();
    let racks = spec.racks;
    let global = matches!(spec.pool, PoolTopology::Global { .. });
    if matches!(spec.pool, PoolTopology::None) {
        return None;
    }
    if global && (k as u64) * remote > cluster.pool_free(PoolId(0)) {
        return None;
    }
    let usable = |rack: u32| -> u32 {
        let free_n = cluster.free_nodes_in_rack(RackId(rack));
        if global {
            free_n
        } else {
            free_n.min((cluster.pool_free(PoolId(rack)) / remote) as u32)
        }
    };
    let rack_order: Vec<u32> = if !best_fit {
        (0..racks).collect()
    } else if global {
        let mut order: Vec<u32> = (0..racks).collect();
        order.sort_by_key(|&r| (cluster.free_nodes_in_rack(RackId(r)), r));
        order
    } else {
        cluster.pools_by_free().map(|p| p.0).collect()
    };
    let mut chosen: Vec<NodeId> = Vec::with_capacity(k as usize);
    let mut remaining = k;
    for &rack in &rack_order {
        if remaining == 0 {
            break;
        }
        let take = usable(rack).min(remaining);
        chosen.extend(
            cluster
                .free_nodes_in_rack_iter(RackId(rack))
                .take(take as usize),
        );
        remaining -= take;
    }
    if remaining > 0 {
        return None;
    }
    Some(MemoryAssignment::hybrid(
        chosen,
        spec.node.local_mem,
        remote,
    ))
}
