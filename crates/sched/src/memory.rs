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
//!
//! ## One shape list
//!
//! Each policy decides through one private list of candidate shapes,
//! most preferred first, each with its predicted dilation: at pool
//! pressure 0 for the idle machine reservations assume, at the current
//! pressure for a start now. Local-only lists the inflated shape; the pool
//! policies list the natural local shape when the job fits in DRAM, and
//! otherwise the natural borrowing shape (if a pool could ever serve it)
//! before the inflated one; the enumerating policies list every shape
//! within budget in cost order, laxity-aware putting deadline-feasible
//! shapes first. `first_shape` walks the list, and the three
//! [`Placement`] hooks read it through that walk:
//!
//! * [`Placement::nominal_shape`] is the first idle shape, unless it needs
//!   more nodes than the machine has.
//! * [`Placement::plan`] and [`Placement::plan_split`] place the first
//!   shape that fits right now (see "Counts first"). A count-only probe
//!   comes first: every shape uses at least `job.nodes` nodes, so with
//!   fewer free nothing is listed or allocated.
//! * [`Placement::best_dilation`] is exactly 1 for the enumerating
//!   policies: every dilation is at least 1
//!   ([`SlowdownModel::validate`]), and the enumeration always ends at the
//!   fully local shape, whose dilation is 1. The other policies price
//!   feasibility with their nominal shape's dilation.
//!
//! ## Counts first
//!
//! Placing a shape now is a walk over racks that decides how many nodes
//! each gives: as many as it has free (and, for a borrowing shape with
//! per-rack pools, as its pool can lend to) until the shape's node count
//! is found. Racks come in index order for a local shape and for pool
//! first-fit; a borrowing best-fit shape takes the tightest pool first
//! with per-rack pools and the rack with the fewest free nodes first with
//! a global pool. The walk writes only that per-rack split, so
//! [`Placement::plan_split`] answers without collecting a node id or
//! allocating, and a shape that cannot be placed fails before anything is
//! built. [`Placement::plan`] runs the same query and then takes each
//! rack's lowest free node ids, visiting racks in the same order.

use crate::profile::Demand;
use crate::traits::{Placement, SchedContext};
use dmhpc_platform::{
    Cluster, DilationInputs, MemoryAssignment, MiB, NodeId, PoolId, PoolTopology, RackId,
    SlowdownModel,
};
use dmhpc_workload::Job;

#[cfg(test)]
mod reference;

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

    /// Walk this policy's candidate shapes for `job`, most preferred first
    /// (see module docs), and return the first that `take` accepts: what
    /// `take` made of it, and the shape's dilation at pool pressure 0 if
    /// `idle`, else at the current pressure. The fixed-shape policies list
    /// at most two shapes without allocating, and price a borrowing shape
    /// only once it is taken.
    fn first_shape<T>(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        idle: bool,
        mut take: impl FnMut(Demand) -> Option<T>,
    ) -> Option<(T, f64)> {
        let (cluster, model) = (ctx.cluster, ctx.model);
        let node_local = cluster.spec().node.local_mem;
        let pressure = || if idle { 0.0 } else { current_pressure(cluster) };
        let local = |nodes| Demand {
            nodes,
            remote_per_node: 0,
        };
        let inflated = || local(Self::inflated_nodes(job, node_local));
        let fixed = match *self {
            MemoryPolicy::LocalOnly => [Some(inflated()), None],
            MemoryPolicy::PoolFirstFit | MemoryPolicy::PoolBestFit
                if job.mem_per_node <= node_local =>
            {
                [Some(local(job.nodes)), None]
            }
            MemoryPolicy::PoolFirstFit | MemoryPolicy::PoolBestFit => {
                let remote = job.mem_per_node - node_local;
                let borrow = Demand {
                    nodes: job.nodes,
                    remote_per_node: remote,
                };
                [
                    pool_can_ever_serve(cluster, job.nodes, remote).then_some(borrow),
                    Some(inflated()),
                ]
            }
            MemoryPolicy::SlowdownAware { max_dilation }
            | MemoryPolicy::LaxityAware { max_dilation } => {
                let mut ranked = enumerate_shapes(job, cluster, model, max_dilation, pressure());
                let laxity = match self {
                    MemoryPolicy::LaxityAware { .. } => ctx.laxity_s(job),
                    _ => None,
                };
                sort_shapes_for_laxity(&mut ranked, job.walltime.as_secs_f64(), laxity);
                return ranked
                    .into_iter()
                    .find_map(|(demand, dilation)| Some((take(demand)?, dilation)));
            }
        };
        fixed.into_iter().flatten().find_map(|demand| {
            let taken = take(demand)?;
            let dilation = match demand.remote_per_node {
                0 => 1.0,
                remote => borrow_dilation(job, model, node_local + remote, remote, pressure()),
            };
            Some((taken, dilation))
        })
    }

    /// The first shape [`Placement::plan`] can place now, with its split
    /// per rack written to `split` and its dilation at the current pool
    /// pressure: the count-first query behind both `plan` and
    /// [`Placement::plan_split`].
    fn shape_now(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        split: &mut [u32],
    ) -> Option<(Demand, f64)> {
        // Count-only probe: every shape of every policy places at least
        // `job.nodes` free nodes, so with fewer free no shape can be
        // placed. Exact, and it spares failing candidates the shape walk.
        let cluster = ctx.cluster;
        if cluster.free_nodes() < job.nodes as usize {
            return None;
        }
        let best_fit = self.best_fit();
        self.first_shape(job, ctx, false, |demand| {
            place_split(cluster, demand, best_fit, split).then_some(demand)
        })
    }

    /// Borrowing shapes take racks in best-fit order, except under pool
    /// first-fit.
    fn best_fit(&self) -> bool {
        !matches!(self, MemoryPolicy::PoolFirstFit)
    }
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

impl Placement for MemoryPolicy {
    fn name(&self) -> &str {
        MemoryPolicy::name(self)
    }

    fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
        let total_nodes = ctx.cluster.spec().total_nodes();
        self.first_shape(job, ctx, true, Some)
            .filter(|(demand, _)| demand.nodes <= total_nodes)
    }

    fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
        let cluster = ctx.cluster;
        let mut split = vec![0; cluster.spec().racks as usize];
        let (demand, dilation) = self.shape_now(job, ctx, &mut split)?;
        let nodes = split_nodes(cluster, demand, self.best_fit(), &split);
        let assignment = match demand.remote_per_node {
            0 => MemoryAssignment::local(nodes, job.mem_per_node_at(demand.nodes)),
            remote => MemoryAssignment::hybrid(nodes, cluster.spec().node.local_mem, remote),
        };
        debug_assert!(cluster.can_allocate(&assignment).is_ok());
        Some(PlannedAllocation {
            assignment,
            dilation,
        })
    }

    fn plan_split(
        &self,
        job: &Job,
        ctx: &SchedContext<'_>,
        split: &mut [u32],
    ) -> Option<(MiB, f64)> {
        let (demand, dilation) = self.shape_now(job, ctx, split)?;
        Some((demand.remote_per_node, dilation))
    }

    fn best_dilation(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<f64> {
        match self {
            MemoryPolicy::SlowdownAware { .. } | MemoryPolicy::LaxityAware { .. } => Some(1.0),
            _ => self.nominal_shape(job, ctx).map(|(_, dilation)| dilation),
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

/// The dilation of `job` when `remote` of each node's `per_node` MiB
/// lives in a pool at `pressure`.
fn borrow_dilation(
    job: &Job,
    model: &SlowdownModel,
    per_node: MiB,
    remote: MiB,
    pressure: f64,
) -> f64 {
    model.dilation(DilationInputs {
        far_fraction: remote as f64 / per_node as f64,
        intensity: job.intensity,
        pool_pressure: pressure,
    })
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
        let dil = borrow_dilation(job, model, per_node, remote, pressure);
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

/// Call `visit` on the racks a placement of `demand` takes nodes from, in
/// the order it takes them, until `visit` returns `false`: index order for
/// a local shape and for pool first-fit; for a borrowing best-fit shape,
/// tightest pool first with per-rack pools (the cluster's `(free, id)`
/// pool order, no sort) and fewest free nodes first with a global pool.
fn visit_racks(
    cluster: &Cluster,
    demand: Demand,
    best_fit: bool,
    mut visit: impl FnMut(u32) -> bool,
) {
    let racks = cluster.spec().racks;
    if demand.remote_per_node == 0 || !best_fit {
        (0..racks).all(visit);
    } else if matches!(cluster.spec().pool, PoolTopology::Global { .. }) {
        let mut order: Vec<u32> = (0..racks).collect();
        order.sort_by_key(|&r| (cluster.free_nodes_in_rack(RackId(r)), r));
        order.into_iter().all(visit);
    } else {
        cluster.pools_by_free().all(|pool| visit(pool.0));
    }
}

/// Write to `split` how many nodes per rack a placement of `demand` takes
/// now: in [`visit_racks`] order, each rack gives as many as it has free
/// (and, with per-rack pools, as its pool can lend `remote_per_node` to)
/// until `demand.nodes` are found. `false` when they cannot be, and then
/// `split` holds no placement.
fn place_split(cluster: &Cluster, demand: Demand, best_fit: bool, split: &mut [u32]) -> bool {
    let Demand {
        nodes: k,
        remote_per_node: remote,
    } = demand;
    let per_rack_pool = match cluster.spec().pool {
        _ if remote == 0 => false,
        PoolTopology::None => return false,
        PoolTopology::Global { .. } if k as u64 * remote > cluster.pool_free(PoolId(0)) => {
            return false
        }
        PoolTopology::Global { .. } => false,
        PoolTopology::PerRack { .. } => true,
    };
    split.fill(0);
    let mut remaining = k;
    visit_racks(cluster, demand, best_fit, |rack| {
        let mut usable = cluster.free_nodes_in_rack(RackId(rack));
        if per_rack_pool {
            usable = usable.min((cluster.pool_free(PoolId(rack)) / remote) as u32);
        }
        let take = usable.min(remaining);
        split[rack as usize] = take;
        remaining -= take;
        remaining > 0
    });
    remaining == 0
}

/// The node ids of a split [`place_split`] wrote for `demand`: each rack's
/// lowest free ones, racks in the order the split was filled.
fn split_nodes(cluster: &Cluster, demand: Demand, best_fit: bool, split: &[u32]) -> Vec<NodeId> {
    let k = demand.nodes as usize;
    let mut nodes = Vec::with_capacity(k);
    visit_racks(cluster, demand, best_fit, |rack| {
        // Range query on the free-node index: O(take), not O(rack size).
        let take = split[rack as usize] as usize;
        nodes.extend(cluster.free_nodes_in_rack_iter(RackId(rack)).take(take));
        nodes.len() < k
    });
    debug_assert_eq!(nodes.len(), k, "free_nodes_in_rack out of sync");
    nodes
}

#[cfg(test)]
mod tests {
    use super::reference::{self, Reference};
    use super::*;
    use crate::release::ReleaseView;
    use crate::traits::count_per_rack;
    use dmhpc_des::rng::Pcg64;
    use dmhpc_des::time::SimTime;
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolId, PoolTopology};
    use dmhpc_workload::{JobBuilder, Slo};

    const GIB: u64 = 1024;

    /// 2 racks × 4 nodes, 256 GiB DRAM, per-rack 512 GiB pools.
    fn cluster(pool: PoolTopology) -> Cluster {
        Cluster::new(ClusterSpec::new(2, 4, NodeSpec::new(64, 256 * GIB), pool))
    }

    /// A pass at time zero with no releases and no run-wide SLO.
    fn ctx<'a>(c: &'a Cluster, model: &'a SlowdownModel) -> SchedContext<'a> {
        SchedContext::new(SimTime::ZERO, c, model, ReleaseView::empty(), None)
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
            .plan(&light_job(3), &ctx(&c, &LINEAR))
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
            .plan(&heavy_job(), &ctx(&c, &LINEAR))
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
            .plan(&heavy_job(), &ctx(&c, &LINEAR))
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
            .plan(&heavy_job(), &ctx(&c, &LINEAR))
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
        let plan = MemoryPolicy::PoolBestFit
            .plan(&job, &ctx(&c, &LINEAR))
            .unwrap();
        assert!(plan.assignment.nodes[0].0 < 4, "rack 0 expected");
        // First-fit would also pick rack 0 here; make them differ: drain
        // rack 0 below sufficiency.
        c.allocate(
            98,
            MemoryAssignment::hybrid(vec![NodeId(1)], 256 * GIB, 150 * GIB),
        )
        .unwrap();
        // rack0 pool free = 512-312-150 = 50 GiB < 128 GiB.
        let plan = MemoryPolicy::PoolBestFit
            .plan(&job, &ctx(&c, &LINEAR))
            .unwrap();
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
        let plan = policy.plan(&heavy_job(), &ctx(&c, &LINEAR)).unwrap();
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
        let plan = policy.plan(&heavy_job(), &ctx(&c, &model)).unwrap();
        assert_eq!(plan.assignment.node_count(), 3, "inflation is cheaper");
        assert!(!plan.assignment.uses_pool());
    }

    #[test]
    fn slowdown_aware_respects_budget() {
        let c = cluster(per_rack());
        let policy = MemoryPolicy::SlowdownAware { max_dilation: 1.05 };
        // Borrowing would dilate ≈1.13 > budget 1.05 → must inflate.
        let plan = policy.plan(&heavy_job(), &ctx(&c, &LINEAR)).unwrap();
        assert!(!plan.assignment.uses_pool());
    }

    #[test]
    fn nominal_shapes_match_plan_semantics() {
        let c = cluster(per_rack());
        let ctx = ctx(&c, &LINEAR);
        let (d, dil) = MemoryPolicy::LocalOnly
            .nominal_shape(&heavy_job(), &ctx)
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
            .nominal_shape(&heavy_job(), &ctx)
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
            .nominal_shape(&heavy_job(), &ctx)
            .unwrap();
        assert_eq!(d.nodes, 2);
    }

    #[test]
    fn nominal_shape_none_when_job_cannot_fit_machine() {
        let c = cluster(PoolTopology::None);
        // 8-node machine; job wants 6 nodes × 2 TiB → inflated 48 nodes.
        let monster = JobBuilder::new(9).nodes(6).mem_per_node(2048 * GIB).build();
        assert!(MemoryPolicy::LocalOnly
            .nominal_shape(&monster, &ctx(&c, &LINEAR))
            .is_none());
    }

    #[test]
    fn plan_none_when_busy() {
        let mut c = cluster(PoolTopology::None);
        let all: Vec<NodeId> = (0..8).map(NodeId).collect();
        c.allocate(1, MemoryAssignment::local(all, 1)).unwrap();
        assert!(MemoryPolicy::LocalOnly
            .plan(&light_job(1), &ctx(&c, &LINEAR))
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
                if let Some(plan) = policy.plan(job, &ctx(&c, &LINEAR)) {
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
            .plan(&heavy_job(), &ctx(&c, &LINEAR))
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
        let c = cluster(per_rack());
        let ctx = ctx(&c, &LINEAR);
        let sa = MemoryPolicy::SlowdownAware { max_dilation: 1.5 };
        let la = MemoryPolicy::LaxityAware { max_dilation: 1.5 };
        for job in [light_job(2), heavy_job()] {
            assert_eq!(sa.nominal_shape(&job, &ctx), la.nominal_shape(&job, &ctx));
            assert_eq!(sa.plan(&job, &ctx), la.plan(&job, &ctx));
        }
    }

    #[test]
    fn laxity_aware_trades_cost_for_feasibility() {
        let c = cluster(per_rack());
        let ctx = ctx(&c, &LINEAR);
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
        let sa_plan = sa.plan(&job, &ctx).unwrap();
        assert_eq!(sa_plan.assignment.node_count(), 2, "cost-optimal borrows");
        let la_plan = la.plan(&job, &ctx).unwrap();
        assert_eq!(la_plan.assignment.node_count(), 3, "feasible shape wins");
        assert_eq!(la_plan.dilation, 1.0);
        let (demand, dil) = la.nominal_shape(&job, &ctx).unwrap();
        assert_eq!((demand.nodes, dil), (3, 1.0));
        // The minimum achievable dilation both policies can price
        // feasibility with is the fully-local shape's.
        assert_eq!(la.best_dilation(&job, &ctx), Some(1.0));
    }

    #[test]
    fn laxity_aware_lost_deadline_finishes_earliest() {
        // The deadline is already lost, so *no* shape is feasible: the
        // lowest-dilation shape must win.
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
        let plan = la.plan(&job, &ctx).unwrap();
        assert_eq!(plan.dilation, 1.0, "finish-earliest shape");
        assert_eq!(plan.assignment.node_count(), 3);
    }

    /// One random placement walk: a small machine (any pool topology,
    /// some nodes down, perhaps degraded pools), a slowdown model, all
    /// five policies, and the jobs the walk offers them.
    struct Walk {
        cluster: Cluster,
        model: SlowdownModel,
        policies: [MemoryPolicy; 5],
        /// A run-wide SLO wait target, which gives unstamped jobs a
        /// deadline too.
        slo_wait_s: Option<f64>,
    }

    fn random_walk(rng: &mut Pcg64) -> Walk {
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
        let mut cluster = Cluster::new(ClusterSpec::new(
            racks,
            per_rack,
            NodeSpec::new(64, 256 * GIB),
            pool,
        ));
        for node in 0..cluster.total_nodes() {
            if rng.chance(0.1) {
                cluster.fail_node(NodeId(node)).unwrap();
            }
        }
        for pool in 0..cluster.pools().len() as u32 {
            if rng.chance(0.2) {
                let health = rng.range_f64(0.3, 1.0);
                cluster.set_pool_health(PoolId(pool), health).unwrap();
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
        let slo_wait_s = rng.chance(0.2).then(|| rng.range_f64(0.0, 2000.0));
        Walk {
            cluster,
            model,
            policies,
            slo_wait_s,
        }
    }

    /// A random job, deadline-stamped 30% of the time, and the instant of
    /// the pass that meets it.
    fn random_job(rng: &mut Pcg64, id: u64, total_nodes: u32) -> (Job, SimTime) {
        let mut job = JobBuilder::new(id)
            .nodes(1 + rng.index(total_nodes as usize + 2) as u32)
            .mem_per_node(rng.range_u64(1, 1024) * GIB)
            .intensity(rng.next_f64())
            .runtime_secs(100, 200 + rng.bounded_u64(2000))
            .build();
        if rng.chance(0.3) {
            job.slo = Some(Slo::Deadline {
                deadline_s: rng.range_f64(0.0, 3000.0),
            });
        }
        (job, SimTime::from_secs(rng.bounded_u64(1000)))
    }

    /// Walk `cases` random machines, offering each twelve jobs and
    /// occupying it with what the policies place (and sometimes freeing a
    /// lease), so later jobs meet partly used racks and pools. Calls
    /// `check` with every (policy, job, context).
    fn walk_cases(
        cases: u64,
        seed: u64,
        mut check: impl FnMut(&MemoryPolicy, &Job, &SchedContext<'_>, &str),
    ) {
        for case in 0..cases {
            let mut rng = Pcg64::new_stream(seed, case);
            let mut walk = random_walk(&mut rng);
            for i in 0..12u64 {
                let (job, now) = random_job(&mut rng, i, walk.cluster.total_nodes());
                let c = &walk.cluster;
                let ctx =
                    SchedContext::new(now, c, &walk.model, ReleaseView::empty(), walk.slo_wait_s);
                let mut placed = None;
                for policy in &walk.policies {
                    check(
                        policy,
                        &job,
                        &ctx,
                        &format!("case {case} job {i} {policy:?}"),
                    );
                    placed = placed.or_else(|| policy.plan(&job, &ctx));
                }
                if let Some(p) = placed {
                    walk.cluster.allocate(100 + i, p.assignment).unwrap();
                }
                if rng.chance(0.2) && walk.cluster.lease_count() > 0 {
                    let leases: Vec<u64> = walk.cluster.active_leases().map(|(l, _)| l).collect();
                    let lease = leases[rng.index(leases.len())];
                    walk.cluster.release(lease).unwrap();
                }
            }
        }
    }

    /// The invariant behind `plan()`'s count-only probe: every shape any
    /// policy plans or reserves uses at least `job.nodes` nodes.
    #[test]
    fn every_shape_uses_at_least_the_requested_nodes() {
        walk_cases(300, 0x9B0E, |policy, job, ctx, what| {
            if let Some((demand, _)) = policy.nominal_shape(job, ctx) {
                assert!(demand.nodes >= job.nodes, "{what}: nominal {demand:?}");
            }
            if let Some(p) = policy.plan(job, ctx) {
                assert!(p.assignment.node_count() >= job.nodes as usize, "{what}");
            }
        });
    }

    /// The shape-list hooks against the five-policy reference: equal
    /// `nominal_shape`, `plan` and `best_dilation` for every policy, and,
    /// where no laxity reorders the shapes, a probed `plan` equal to the
    /// unprobed one.
    fn assert_placement_matches_reference(cases: u64) {
        let (mut borrowed, mut differ_from_nominal) = (0u64, 0u64);
        walk_cases(cases, 0x5A9E, |policy, job, ctx, what| {
            let old = Reference(*policy);
            let nominal = policy.nominal_shape(job, ctx);
            assert_eq!(nominal, old.nominal_shape(job, ctx), "{what}: nominal");
            let plan = policy.plan(job, ctx);
            assert_eq!(plan, old.plan(job, ctx), "{what}: plan");
            let best = policy.best_dilation(job, ctx);
            assert_eq!(best, old.best_dilation(job, ctx), "{what}: best");
            let laxity =
                matches!(policy, MemoryPolicy::LaxityAware { .. }) && ctx.laxity_s(job).is_some();
            if !laxity {
                let unprobed = reference::plan(policy, job, ctx.cluster, ctx.model);
                assert_eq!(plan, unprobed, "{what}: probe");
            }
            borrowed += plan.is_some_and(|p| p.assignment.uses_pool()) as u64;
            differ_from_nominal += (best != nominal.map(|(_, d)| d)) as u64;
        });
        // Cases that tell the mutations apart: placements that borrow, and
        // a best dilation below the nominal shape's.
        assert!(borrowed * 400 >= 600 * cases, "borrowed {borrowed}");
        assert!(
            differ_from_nominal * 400 >= 3000 * cases,
            "best < nominal {differ_from_nominal}"
        );
    }

    #[test]
    fn placement_matches_reference() {
        assert_placement_matches_reference(400);
    }

    /// The same over many more cases; run in release mode with `--ignored`.
    #[test]
    #[ignore]
    fn placement_matches_reference_at_scale() {
        assert_placement_matches_reference(20_000);
    }

    /// The count-first query against the plan it stands for, for every
    /// policy: `plan_split` is `Some` exactly when `plan` is, its split is
    /// the plan's node count per rack, and its remote MiB per node and
    /// dilation are the plan's, bit for bit.
    fn assert_plan_split_matches_plan(cases: u64) {
        let mut borrowed = 0u64;
        walk_cases(cases, 0x5A9E, |policy, job, ctx, what| {
            // Stale counts from an earlier query must not leak through.
            let mut split = vec![u32::MAX; ctx.cluster.spec().racks as usize];
            let query = policy.plan_split(job, ctx, &mut split);
            let plan = policy.plan(job, ctx);
            assert_eq!(query.is_some(), plan.is_some(), "{what}: some");
            let (Some((remote, dilation)), Some(plan)) = (query, plan) else {
                return;
            };
            let mut planned = vec![0; split.len()];
            count_per_rack(ctx.cluster, &plan.assignment, &mut planned);
            assert_eq!(split, planned, "{what}: split");
            assert_eq!(remote, plan.assignment.remote_per_node, "{what}: remote");
            assert_eq!(
                dilation.to_bits(),
                plan.dilation.to_bits(),
                "{what}: dilation"
            );
            borrowed += (remote > 0) as u64;
        });
        assert!(borrowed * 400 >= 600 * cases, "borrowed {borrowed}");
    }

    #[test]
    fn plan_split_matches_plan() {
        assert_plan_split_matches_plan(400);
    }

    /// The same over many more cases; run in release mode with `--ignored`.
    #[test]
    #[ignore]
    fn plan_split_matches_plan_at_scale() {
        assert_plan_split_matches_plan(20_000);
    }
}
