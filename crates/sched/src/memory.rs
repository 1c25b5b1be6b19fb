//! Disaggregated-memory allocation policies.
//!
//! Given a job and the current cluster state, a [`MemoryPolicy`] decides the
//! job's *shape*: how many nodes, which nodes, and how each node's share of
//! the footprint splits between local DRAM and pool memory.
//!
//! * [`MemoryPolicy::LocalOnly`] — the conventional-cluster baseline. A job
//!   whose per-node demand exceeds node DRAM is **inflated** to
//!   `ceil(total_mem / node_DRAM)` nodes: the real-world workaround that
//!   strands CPUs and motivates the paper.
//! * [`MemoryPolicy::PoolFirstFit`] — fill node DRAM, borrow the overflow
//!   from pools, choosing racks in index order. Falls back to inflation when
//!   pools cannot serve the job.
//! * [`MemoryPolicy::PoolBestFit`] — as first-fit, but packs borrowing jobs
//!   into the racks whose pools have the *least* sufficient free space,
//!   preserving large pool blocks for large borrowers.
//! * [`MemoryPolicy::SlowdownAware`] — the headline policy: enumerates the
//!   small set of feasible shapes (natural size fully local, natural size
//!   borrowing, every partial inflation in between) and picks the one
//!   minimizing expected node-seconds `k × dilation(k)`, subject to a
//!   per-job dilation budget.
//! * [`MemoryPolicy::LaxityAware`] — slowdown-aware with a deadline
//!   filter: shapes whose predicted dilated finish would overrun the
//!   job's remaining laxity sort behind those that still meet the
//!   deadline, so a deadline-tight job takes a cheaper-to-finish shape
//!   (usually more nodes, less borrowing) even when it costs more
//!   node-seconds. Jobs without a deadline see exactly the
//!   slowdown-aware order, bit for bit.

use crate::profile::Demand;
use dmhpc_platform::{
    Cluster, DilationInputs, MemoryAssignment, MiB, NodeId, RackId, SlowdownModel,
};
use dmhpc_workload::Job;

/// A concrete, placeable allocation decision for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAllocation {
    /// Concrete nodes plus local/remote split.
    pub assignment: MemoryAssignment,
    /// Dilation factor estimated at planning time (exact for static
    /// slowdown models; a current-pressure estimate for the contention
    /// model).
    pub dilation: f64,
}

/// How a job's memory footprint is placed. See module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPolicy {
    /// Node-local DRAM only; memory-hungry jobs inflate their node count.
    LocalOnly,
    /// Borrow overflow from pools, racks in index order; inflate as a
    /// fallback.
    PoolFirstFit,
    /// Borrow overflow from pools, tightest sufficient pool first; inflate
    /// as a fallback.
    PoolBestFit,
    /// Cost-optimal shape under a dilation budget.
    SlowdownAware {
        /// Upper bound on acceptable planned dilation (≥ 1). Shapes whose
        /// predicted dilation exceeds this are discarded.
        max_dilation: f64,
    },
    /// Slowdown-aware, but deadline-feasible shapes come first: among
    /// shapes that still meet the job's deadline started now, the
    /// node-seconds-cheapest wins; when none can, the one finishing
    /// earliest (lowest dilation) does. Without a deadline this is
    /// bit-identical to [`MemoryPolicy::SlowdownAware`].
    LaxityAware {
        /// Upper bound on acceptable planned dilation (≥ 1), as for
        /// [`MemoryPolicy::SlowdownAware`].
        max_dilation: f64,
    },
}

impl MemoryPolicy {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryPolicy::LocalOnly => "local-only",
            MemoryPolicy::PoolFirstFit => "pool-ff",
            MemoryPolicy::PoolBestFit => "pool-bf",
            MemoryPolicy::SlowdownAware { .. } => "slowdown-aware",
            MemoryPolicy::LaxityAware { .. } => "laxity-aware",
        }
    }

    /// The node count the job needs when memory must be entirely local.
    fn inflated_nodes(job: &Job, node_local: MiB) -> u32 {
        let k = job.total_mem().div_ceil(node_local);
        (k.max(1) as u32).max(job.nodes)
    }

    /// The shape this policy would give the job on an otherwise idle
    /// machine, with its predicted dilation — what reservations are made
    /// of. Returns `None` if the job cannot run on this machine at all
    /// (e.g. needs more nodes than exist even inflated).
    pub fn nominal_shape(
        &self,
        job: &Job,
        cluster: &Cluster,
        model: &SlowdownModel,
    ) -> Option<(Demand, f64)> {
        let spec = cluster.spec();
        let node_local = spec.node.local_mem;
        let total_nodes = spec.total_nodes();
        let fits_locally = job.mem_per_node <= node_local;

        let shape = match self {
            MemoryPolicy::LocalOnly => {
                let k = Self::inflated_nodes(job, node_local);
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
                        let k = Self::inflated_nodes(job, node_local);
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
            // Without a scheduling context there is no laxity to consult,
            // so laxity-aware degenerates to slowdown-aware here; the
            // [`crate::traits::Placement`] impl routes context-bearing
            // calls through the laxity ordering.
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

    /// Try to place the job on the cluster **right now**. Returns `None`
    /// when no placement exists under this policy at this instant.
    pub fn plan(
        &self,
        job: &Job,
        cluster: &Cluster,
        model: &SlowdownModel,
    ) -> Option<PlannedAllocation> {
        let spec = cluster.spec();
        let node_local = spec.node.local_mem;
        let fits_locally = job.mem_per_node <= node_local;

        match self {
            MemoryPolicy::LocalOnly => {
                let k = Self::inflated_nodes(job, node_local);
                place_local(job, cluster, k)
            }
            MemoryPolicy::PoolFirstFit | MemoryPolicy::PoolBestFit => {
                if fits_locally {
                    return place_local(job, cluster, job.nodes);
                }
                let remote = job.mem_per_node - node_local;
                let best_fit = matches!(self, MemoryPolicy::PoolBestFit);
                place_with_pool(job, cluster, model, job.nodes, node_local, remote, best_fit)
                    .or_else(|| {
                        // Pool can't serve now — inflate instead of waiting.
                        let k = Self::inflated_nodes(job, node_local);
                        place_local(job, cluster, k)
                    })
            }
            // As in `nominal_shape`: no context, no laxity — slowdown-aware
            // order. The `Placement` impl supplies the laxity-aware path.
            MemoryPolicy::SlowdownAware { max_dilation }
            | MemoryPolicy::LaxityAware { max_dilation } => {
                let pressure = current_pressure(cluster);
                // Enumerate shapes in cost order and take the first that is
                // placeable right now.
                let mut shapes = enumerate_shapes(job, cluster, model, *max_dilation, pressure);
                sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), None);
                place_first(job, cluster, model, node_local, shapes)
            }
        }
    }
}

/// Walk `shapes` in order and commit the first that is placeable now.
fn place_first(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    node_local: MiB,
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
                node_local,
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

/// Sort shapes for the laxity-aware policy: deadline-feasible shapes first
/// in node-seconds cost order (exactly the slowdown-aware order), then
/// infeasible shapes by dilation (finish as early as possible). With no
/// laxity every shape counts as feasible, so the order — and hence every
/// decision — is bit-identical to [`MemoryPolicy::SlowdownAware`].
fn sort_shapes_for_laxity(shapes: &mut [(Demand, f64)], walltime_s: f64, laxity: Option<f64>) {
    let feasible = |dil: f64| match laxity {
        None => true,
        Some(l) => walltime_s * (dil - 1.0) <= l,
    };
    shapes.sort_by(|a, b| {
        feasible(b.1)
            .cmp(&feasible(a.1))
            .then_with(|| {
                if feasible(a.1) && feasible(b.1) {
                    let ca = a.0.nodes as f64 * a.1;
                    let cb = b.0.nodes as f64 * b.1;
                    // lint: allow(panic) — placement costs are finite arithmetic on validated specs; NaN is a policy bug
                    ca.partial_cmp(&cb).expect("finite costs")
                } else {
                    // lint: allow(panic) — dilations are finite arithmetic on validated specs; NaN is a policy bug
                    a.1.partial_cmp(&b.1).expect("finite dilations")
                }
            })
            .then(a.0.nodes.cmp(&b.0.nodes))
    });
}

impl crate::traits::Placement for MemoryPolicy {
    fn name(&self) -> &str {
        MemoryPolicy::name(self)
    }

    fn nominal_shape(
        &self,
        job: &Job,
        ctx: &crate::traits::SchedContext<'_>,
    ) -> Option<(Demand, f64)> {
        if let MemoryPolicy::LaxityAware { max_dilation } = self {
            let mut shapes = enumerate_shapes(job, ctx.cluster, ctx.model, *max_dilation, 0.0);
            sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), ctx.laxity_s(job));
            let shape = shapes.into_iter().next()?;
            if shape.0.nodes > ctx.cluster.spec().total_nodes() {
                return None;
            }
            return Some(shape);
        }
        MemoryPolicy::nominal_shape(self, job, ctx.cluster, ctx.model)
    }

    fn plan(&self, job: &Job, ctx: &crate::traits::SchedContext<'_>) -> Option<PlannedAllocation> {
        // Count-only probe: every shape of every policy places at least
        // `job.nodes` free nodes, so with fewer free no shape can be
        // placed. Exact, and it spares failing candidates every allocation.
        if ctx.cluster.free_nodes() < job.nodes as usize {
            return None;
        }
        if let MemoryPolicy::LaxityAware { max_dilation } = self {
            let cluster = ctx.cluster;
            let mut shapes = enumerate_shapes(
                job,
                cluster,
                ctx.model,
                *max_dilation,
                current_pressure(cluster),
            );
            sort_shapes_for_laxity(&mut shapes, job.walltime.as_secs_f64(), ctx.laxity_s(job));
            return place_first(
                job,
                cluster,
                ctx.model,
                cluster.spec().node.local_mem,
                shapes,
            );
        }
        MemoryPolicy::plan(self, job, ctx.cluster, ctx.model)
    }

    fn best_dilation(&self, job: &Job, ctx: &crate::traits::SchedContext<'_>) -> Option<f64> {
        match self {
            // Shape-enumerating policies can do better than their nominal
            // (cost-optimal) shape when feasibility is what matters.
            MemoryPolicy::SlowdownAware { max_dilation }
            | MemoryPolicy::LaxityAware { max_dilation } => {
                enumerate_shapes(job, ctx.cluster, ctx.model, *max_dilation, 0.0)
                    .into_iter()
                    .map(|(_, dil)| dil)
                    // lint: allow(panic) — dilations are finite arithmetic on validated specs; NaN is a policy bug
                    .min_by(|a, b| a.partial_cmp(b).expect("finite dilations"))
            }
            _ => MemoryPolicy::nominal_shape(self, job, ctx.cluster, ctx.model)
                .map(|(_, dilation)| dilation),
        }
    }
}

/// Current system-wide pool pressure (0 when no pools).
fn current_pressure(cluster: &Cluster) -> f64 {
    let cap = cluster.total_pool_capacity();
    if cap == 0 {
        0.0
    } else {
        cluster.total_pool_used() as f64 / cap as f64
    }
}

/// Could any pool configuration ever serve `nodes × remote` (idle machine)?
fn pool_can_ever_serve(cluster: &Cluster, nodes: u32, remote_per_node: MiB) -> bool {
    use dmhpc_platform::PoolTopology;
    let spec = cluster.spec();
    match spec.pool {
        PoolTopology::None => false,
        PoolTopology::Global { mib } => nodes as u64 * remote_per_node <= mib,
        PoolTopology::PerRack { mib_per_rack } => {
            if remote_per_node > mib_per_rack {
                return false;
            }
            let per_rack = (mib_per_rack / remote_per_node).min(spec.nodes_per_rack as u64);
            per_rack * spec.racks as u64 >= nodes as u64
        }
    }
}

/// All shapes available to the slowdown-aware policy, with dilations, the
/// dilation budget already applied. The inflation fallback (dilation 1) is
/// always included so the job is never starved outright.
fn enumerate_shapes(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    max_dilation: f64,
    pressure: f64,
) -> Vec<(Demand, f64)> {
    let node_local = cluster.spec().node.local_mem;
    let k_full = MemoryPolicy::inflated_nodes(job, node_local);
    let mut shapes = Vec::new();
    for k in job.nodes..=k_full.max(job.nodes) {
        let per_node = job.mem_per_node_at(k);
        if per_node <= node_local {
            shapes.push((
                Demand {
                    nodes: k,
                    remote_per_node: 0,
                },
                1.0,
            ));
            // Any larger k costs strictly more node-seconds at dilation 1.
            break;
        }
        let remote = per_node - node_local;
        if !pool_can_ever_serve(cluster, k, remote) {
            continue;
        }
        let far = remote as f64 / per_node as f64;
        let dil = model.dilation(DilationInputs {
            far_fraction: far,
            intensity: job.intensity,
            pool_pressure: pressure,
        });
        if dil <= max_dilation {
            shapes.push((
                Demand {
                    nodes: k,
                    remote_per_node: remote,
                },
                dil,
            ));
        }
    }
    shapes
}

/// Cost-optimal shape for the slowdown-aware policy (idle-machine pressure).
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

/// Place `k` nodes fully locally (first-fit).
fn place_local(job: &Job, cluster: &Cluster, k: u32) -> Option<PlannedAllocation> {
    if k > cluster.total_nodes() {
        return None;
    }
    let nodes = cluster.first_fit_nodes(k as usize)?;
    let assignment = MemoryAssignment::local(nodes, job.mem_per_node_at(k));
    debug_assert!(cluster.can_allocate(&assignment).is_ok());
    Some(PlannedAllocation {
        assignment,
        dilation: 1.0,
    })
}

/// Place `k` nodes each borrowing `remote` MiB from its rack's domain.
/// `best_fit` selects tightest-sufficient pools first; otherwise racks come
/// in index order.
fn place_with_pool(
    job: &Job,
    cluster: &Cluster,
    model: &SlowdownModel,
    k: u32,
    local: MiB,
    remote: MiB,
    best_fit: bool,
) -> Option<PlannedAllocation> {
    use dmhpc_platform::PoolTopology;
    let spec = cluster.spec();
    let racks = spec.racks;
    let global = matches!(spec.pool, PoolTopology::Global { .. });
    if matches!(spec.pool, PoolTopology::None) {
        return None;
    }
    if global && (k as u64) * remote > cluster.pool_free(dmhpc_platform::PoolId(0)) {
        return None;
    }

    // Per-rack capacity for this job.
    let usable = |rack: u32| -> u32 {
        let free_n = cluster.free_nodes_in_rack(RackId(rack));
        if global {
            free_n
        } else {
            let pool_free = cluster.pool_free(dmhpc_platform::PoolId(rack));
            free_n.min((pool_free / remote) as u32)
        }
    };
    let rack_order: Vec<u32> = if !best_fit {
        // First fit: racks in index order.
        (0..racks).collect()
    } else if global {
        // Pack racks with the fewest free nodes first.
        let mut order: Vec<u32> = (0..racks).collect();
        order.sort_by_key(|&r| (cluster.free_nodes_in_rack(RackId(r)), r));
        order
    } else {
        // Tightest sufficient pool first: with per-rack pools, pool id r
        // is rack r, and the cluster's free-space ordering is already
        // ascending `(free, id)` — exactly best-fit order, no sort.
        cluster.pools_by_free().map(|p| p.0).collect()
    };

    let mut chosen: Vec<NodeId> = Vec::with_capacity(k as usize);
    let mut remaining = k;
    for &rack in &rack_order {
        if remaining == 0 {
            break;
        }
        let take = usable(rack).min(remaining);
        if take == 0 {
            continue;
        }
        // Range query on the free-node index: O(take), not O(rack size).
        let before = chosen.len();
        chosen.extend(
            cluster
                .free_nodes_in_rack_iter(RackId(rack))
                .take(take as usize),
        );
        debug_assert_eq!(
            chosen.len() - before,
            take as usize,
            "free_nodes_in_rack out of sync"
        );
        remaining -= take;
    }
    if remaining > 0 {
        return None;
    }
    let assignment = MemoryAssignment::hybrid(chosen, local, remote);
    debug_assert!(cluster.can_allocate(&assignment).is_ok());
    let far = assignment.far_fraction();
    let dilation = model.dilation(DilationInputs {
        far_fraction: far,
        intensity: job.intensity,
        pool_pressure: current_pressure(cluster),
    });
    Some(PlannedAllocation {
        assignment,
        dilation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology};
    use dmhpc_workload::JobBuilder;

    const GIB: u64 = 1024;

    /// 2 racks × 4 nodes, 256 GiB DRAM, per-rack 512 GiB pools.
    fn cluster(pool: PoolTopology) -> Cluster {
        Cluster::new(ClusterSpec::new(2, 4, NodeSpec::new(64, 256 * GIB), pool))
    }

    fn per_rack() -> PoolTopology {
        PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        }
    }

    fn light_job(nodes: u32) -> dmhpc_workload::Job {
        JobBuilder::new(1)
            .nodes(nodes)
            .mem_per_node(64 * GIB)
            .intensity(0.5)
            .build()
    }

    /// 2 nodes × 384 GiB: 128 GiB/node over DRAM.
    fn heavy_job() -> dmhpc_workload::Job {
        JobBuilder::new(2)
            .nodes(2)
            .mem_per_node(384 * GIB)
            .intensity(0.8)
            .build()
    }

    const LINEAR: SlowdownModel = SlowdownModel::Linear { penalty: 1.5 };

    #[test]
    fn local_only_natural_size() {
        let c = cluster(PoolTopology::None);
        let plan = MemoryPolicy::LocalOnly
            .plan(&light_job(3), &c, &LINEAR)
            .unwrap();
        assert_eq!(plan.assignment.node_count(), 3);
        assert_eq!(plan.assignment.remote_per_node, 0);
        assert_eq!(plan.dilation, 1.0);
    }

    #[test]
    fn local_only_inflates_memory_hungry_jobs() {
        let c = cluster(PoolTopology::None);
        // 2 × 384 GiB = 768 GiB total → ceil(768/256) = 3 nodes.
        let plan = MemoryPolicy::LocalOnly
            .plan(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(plan.assignment.node_count(), 3);
        assert!(plan.assignment.local_per_node <= 256 * GIB);
        assert_eq!(plan.assignment.remote_per_node, 0);
        // Invariant 5: allocated DRAM covers the footprint.
        assert!(plan.assignment.node_count() as u64 * 256 * GIB >= heavy_job().total_mem());
    }

    #[test]
    fn pool_ff_borrows_instead_of_inflating() {
        let c = cluster(per_rack());
        let plan = MemoryPolicy::PoolFirstFit
            .plan(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(plan.assignment.node_count(), 2, "natural size");
        assert_eq!(plan.assignment.local_per_node, 256 * GIB);
        assert_eq!(plan.assignment.remote_per_node, 128 * GIB);
        assert!(plan.dilation > 1.0 && plan.dilation < 1.5);
        // First-fit: rack 0 nodes.
        assert!(plan.assignment.nodes.iter().all(|n| n.0 < 4));
    }

    #[test]
    fn pool_ff_falls_back_to_inflation_when_pool_too_small() {
        let c = cluster(PoolTopology::PerRack {
            mib_per_rack: 64 * GIB, // too small for 128 GiB/node borrowing
        });
        let plan = MemoryPolicy::PoolFirstFit
            .plan(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(plan.assignment.node_count(), 3, "inflation fallback");
        assert_eq!(plan.assignment.remote_per_node, 0);
    }

    #[test]
    fn pool_bf_picks_tightest_pool() {
        let mut c = cluster(per_rack());
        // Drain rack-0 pool to 200 GiB free: park a 1-node lease borrowing
        // 312 GiB.
        c.allocate(
            99,
            MemoryAssignment::hybrid(vec![NodeId(0)], 256 * GIB, 312 * GIB),
        )
        .unwrap();
        // Job borrowing 128 GiB/node on 1 node: best-fit should choose rack
        // 0 (200 GiB free < rack 1's 512 GiB) — tightest sufficient.
        let job = JobBuilder::new(3).nodes(1).mem_per_node(384 * GIB).build();
        let plan = MemoryPolicy::PoolBestFit.plan(&job, &c, &LINEAR).unwrap();
        assert!(plan.assignment.nodes[0].0 < 4, "rack 0 expected");
        // First-fit would also pick rack 0 here; make them differ: drain
        // rack 0 below sufficiency.
        c.allocate(
            98,
            MemoryAssignment::hybrid(vec![NodeId(1)], 256 * GIB, 150 * GIB),
        )
        .unwrap();
        // rack0 pool free = 512-312-150 = 50 GiB < 128 GiB.
        let plan = MemoryPolicy::PoolBestFit.plan(&job, &c, &LINEAR).unwrap();
        assert!(
            plan.assignment.nodes[0].0 >= 4,
            "rack 1 after rack 0 drained"
        );
    }

    #[test]
    fn slowdown_aware_borrows_when_cheap() {
        let c = cluster(per_rack());
        let policy = MemoryPolicy::SlowdownAware { max_dilation: 1.5 };
        // heavy job: natural 2 nodes, far=1/3, intensity .8:
        // dilation = 1 + .5·(1/3)·.8 ≈ 1.133; cost 2×1.133 = 2.27 < 3 (inflated).
        let plan = policy.plan(&heavy_job(), &c, &LINEAR).unwrap();
        assert_eq!(plan.assignment.node_count(), 2);
        assert!(plan.assignment.uses_pool());
    }

    #[test]
    fn slowdown_aware_inflates_when_borrowing_too_costly() {
        let c = cluster(per_rack());
        // Brutal penalty: borrowing dilates ×4 at full intensity.
        let model = SlowdownModel::Linear { penalty: 4.0 };
        let policy = MemoryPolicy::SlowdownAware { max_dilation: 4.0 };
        // heavy: borrow cost 2 × (1+3·(1/3)·0.8) = 2×1.8 = 3.6 > inflate 3.
        let plan = policy.plan(&heavy_job(), &c, &model).unwrap();
        assert_eq!(plan.assignment.node_count(), 3, "inflation is cheaper");
        assert!(!plan.assignment.uses_pool());
    }

    #[test]
    fn slowdown_aware_respects_budget() {
        let c = cluster(per_rack());
        let policy = MemoryPolicy::SlowdownAware { max_dilation: 1.05 };
        // Borrowing would dilate ≈1.13 > budget 1.05 → must inflate.
        let plan = policy.plan(&heavy_job(), &c, &LINEAR).unwrap();
        assert!(!plan.assignment.uses_pool());
    }

    #[test]
    fn nominal_shapes_match_plan_semantics() {
        let c = cluster(per_rack());
        let (d, dil) = MemoryPolicy::LocalOnly
            .nominal_shape(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(
            d,
            Demand {
                nodes: 3,
                remote_per_node: 0
            }
        );
        assert_eq!(dil, 1.0);

        let (d, dil) = MemoryPolicy::PoolFirstFit
            .nominal_shape(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(
            d,
            Demand {
                nodes: 2,
                remote_per_node: 128 * GIB
            }
        );
        assert!(dil > 1.0);

        let (d, _) = MemoryPolicy::SlowdownAware { max_dilation: 1.5 }
            .nominal_shape(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(d.nodes, 2);
    }

    #[test]
    fn nominal_shape_none_when_job_cannot_fit_machine() {
        let c = cluster(PoolTopology::None);
        // 8-node machine; job wants 6 nodes × 2 TiB → inflated 48 nodes.
        let monster = JobBuilder::new(9).nodes(6).mem_per_node(2048 * GIB).build();
        assert!(MemoryPolicy::LocalOnly
            .nominal_shape(&monster, &c, &LINEAR)
            .is_none());
    }

    #[test]
    fn plan_none_when_busy() {
        let mut c = cluster(PoolTopology::None);
        let all: Vec<NodeId> = (0..8).map(NodeId).collect();
        c.allocate(1, MemoryAssignment::local(all, 1)).unwrap();
        assert!(MemoryPolicy::LocalOnly
            .plan(&light_job(1), &c, &LINEAR)
            .is_none());
    }

    #[test]
    fn planned_allocations_are_allocatable() {
        // Whatever a policy returns must be accepted by the cluster.
        let policies = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.5 },
        ];
        for policy in policies {
            let mut c = cluster(per_rack());
            for (i, job) in [light_job(2), heavy_job()].iter().enumerate() {
                if let Some(plan) = policy.plan(job, &c, &LINEAR) {
                    c.allocate(i as u64, plan.assignment).unwrap();
                    c.verify_invariants().unwrap();
                }
            }
        }
    }

    #[test]
    fn global_pool_placement() {
        let c = cluster(PoolTopology::Global { mib: 512 * GIB });
        let plan = MemoryPolicy::PoolFirstFit
            .plan(&heavy_job(), &c, &LINEAR)
            .unwrap();
        assert_eq!(plan.assignment.node_count(), 2);
        assert_eq!(plan.assignment.remote_per_node, 128 * GIB);
    }

    #[test]
    fn policy_names() {
        assert_eq!(MemoryPolicy::LocalOnly.name(), "local-only");
        assert_eq!(
            MemoryPolicy::SlowdownAware { max_dilation: 1.3 }.name(),
            "slowdown-aware"
        );
        assert_eq!(
            MemoryPolicy::LaxityAware { max_dilation: 1.3 }.name(),
            "laxity-aware"
        );
    }

    #[test]
    fn laxity_aware_without_deadline_matches_slowdown_aware() {
        use crate::release::ReleaseView;
        use crate::traits::{Placement, SchedContext};
        use dmhpc_des::time::SimTime;
        let c = cluster(per_rack());
        let ctx = SchedContext::new(SimTime::ZERO, &c, &LINEAR, ReleaseView::empty(), None);
        let sa = MemoryPolicy::SlowdownAware { max_dilation: 1.5 };
        let la = MemoryPolicy::LaxityAware { max_dilation: 1.5 };
        for job in [light_job(2), heavy_job()] {
            assert_eq!(
                Placement::nominal_shape(&sa, &job, &ctx),
                Placement::nominal_shape(&la, &job, &ctx),
            );
            assert_eq!(
                Placement::plan(&sa, &job, &ctx),
                Placement::plan(&la, &job, &ctx),
            );
        }
    }

    #[test]
    fn laxity_aware_trades_cost_for_feasibility() {
        use crate::release::ReleaseView;
        use crate::traits::{Placement, SchedContext};
        use dmhpc_des::time::SimTime;
        use dmhpc_workload::Slo;
        let c = cluster(per_rack());
        let ctx = SchedContext::new(SimTime::ZERO, &c, &LINEAR, ReleaseView::empty(), None);
        // Heavy job with 1000 s walltime and only 50 s of laxity: the
        // cost-optimal borrowing shape (2 nodes, dilation ≈ 1.13) would
        // finish ≈133 s past the deadline; the inflation shape (3 nodes,
        // dilation 1) still meets it.
        let job = JobBuilder::new(7)
            .nodes(2)
            .mem_per_node(384 * GIB)
            .intensity(0.8)
            .runtime_secs(900, 1000)
            .slo(Slo::Deadline { deadline_s: 1050.0 })
            .build();
        let sa = MemoryPolicy::SlowdownAware { max_dilation: 1.5 };
        let la = MemoryPolicy::LaxityAware { max_dilation: 1.5 };
        let sa_plan = Placement::plan(&sa, &job, &ctx).unwrap();
        assert_eq!(sa_plan.assignment.node_count(), 2, "cost-optimal borrows");
        let la_plan = Placement::plan(&la, &job, &ctx).unwrap();
        assert_eq!(la_plan.assignment.node_count(), 3, "feasible shape wins");
        assert_eq!(la_plan.dilation, 1.0);
        let (demand, dil) = Placement::nominal_shape(&la, &job, &ctx).unwrap();
        assert_eq!((demand.nodes, dil), (3, 1.0));
        // The minimum achievable dilation both policies can price
        // feasibility with is the fully-local shape's.
        assert_eq!(Placement::best_dilation(&la, &job, &ctx), Some(1.0));
    }

    #[test]
    fn laxity_aware_lost_deadline_finishes_earliest() {
        use crate::release::ReleaseView;
        use crate::traits::{Placement, SchedContext};
        use dmhpc_des::time::SimTime;
        use dmhpc_workload::Slo;
        // Pool too small for the whole rack: only borrowing shapes exist
        // up to k=2... actually make the deadline already lost so *no*
        // shape is feasible — the lowest-dilation shape must win.
        let c = cluster(per_rack());
        let ctx = SchedContext::new(
            SimTime::from_secs(2000),
            &c,
            &LINEAR,
            ReleaseView::empty(),
            None,
        );
        let job = JobBuilder::new(8)
            .nodes(2)
            .mem_per_node(384 * GIB)
            .intensity(0.8)
            .runtime_secs(900, 1000)
            .slo(Slo::Deadline { deadline_s: 100.0 })
            .build();
        let la = MemoryPolicy::LaxityAware { max_dilation: 1.5 };
        let plan = Placement::plan(&la, &job, &ctx).unwrap();
        assert_eq!(plan.dilation, 1.0, "finish-earliest shape");
        assert_eq!(plan.assignment.node_count(), 3);
    }

    /// The invariant behind `plan()`'s count-only probe: every shape any
    /// policy plans or reserves uses at least `job.nodes` nodes. Random
    /// clusters (all three pool topologies, partly occupied, some nodes
    /// down), random jobs and all five policies; for jobs without a
    /// deadline the probed trait `plan()` must also equal the unprobed
    /// inherent one.
    #[test]
    fn every_shape_uses_at_least_the_requested_nodes() {
        use crate::release::ReleaseView;
        use crate::traits::{Placement, SchedContext};
        use dmhpc_des::rng::Pcg64;
        use dmhpc_des::time::SimTime;
        use dmhpc_workload::Slo;
        for case in 0..300u64 {
            let mut rng = Pcg64::new_stream(0x9B0E, case);
            let racks = 1 + rng.index(3) as u32;
            let per_rack = 1 + rng.index(6) as u32;
            let pool = match rng.index(3) {
                0 => PoolTopology::None,
                1 => PoolTopology::PerRack {
                    mib_per_rack: rng.range_u64(1, 1024) * GIB,
                },
                _ => PoolTopology::Global {
                    mib: rng.range_u64(1, 2048) * GIB,
                },
            };
            let mut c = Cluster::new(ClusterSpec::new(
                racks,
                per_rack,
                NodeSpec::new(64, 256 * GIB),
                pool,
            ));
            let total = c.total_nodes();
            for node in 0..total {
                if rng.chance(0.1) {
                    c.fail_node(NodeId(node)).unwrap();
                }
            }
            let model = if rng.chance(0.5) {
                LINEAR
            } else {
                SlowdownModel::Contention {
                    penalty: 1.5,
                    gamma: 1.0,
                }
            };
            let policies = [
                MemoryPolicy::LocalOnly,
                MemoryPolicy::PoolFirstFit,
                MemoryPolicy::PoolBestFit,
                MemoryPolicy::SlowdownAware {
                    max_dilation: rng.range_f64(1.0, 2.0),
                },
                MemoryPolicy::LaxityAware {
                    max_dilation: rng.range_f64(1.0, 2.0),
                },
            ];
            for i in 0..12u64 {
                let mut job = JobBuilder::new(i)
                    .nodes(1 + rng.index(total as usize + 2) as u32)
                    .mem_per_node(rng.range_u64(1, 1024) * GIB)
                    .intensity(rng.next_f64())
                    .runtime_secs(100, 200 + rng.bounded_u64(2000))
                    .build();
                if rng.chance(0.3) {
                    job.slo = Some(Slo::Deadline {
                        deadline_s: rng.range_f64(0.0, 3000.0),
                    });
                }
                let now = SimTime::from_secs(rng.bounded_u64(1000));
                let ctx = SchedContext::new(now, &c, &model, ReleaseView::empty(), None);
                let mut placed = None;
                for policy in &policies {
                    let what = format!("case {case} job {i} {policy:?}");
                    if let Some((demand, _)) = Placement::nominal_shape(policy, &job, &ctx) {
                        assert!(demand.nodes >= job.nodes, "{what}: nominal {demand:?}");
                    }
                    let plan = Placement::plan(policy, &job, &ctx);
                    if let Some(p) = &plan {
                        assert!(p.assignment.node_count() >= job.nodes as usize, "{what}");
                    }
                    if job.slo.is_none() || !matches!(policy, MemoryPolicy::LaxityAware { .. }) {
                        assert_eq!(plan, policy.plan(&job, &c, &model), "{what}: probe");
                    }
                    placed = placed.or(plan);
                }
                // Occupy the machine as the run goes, so later jobs meet
                // partly used racks and pools.
                if let Some(p) = placed {
                    c.allocate(100 + i, p.assignment).unwrap();
                }
            }
        }
    }
}
