//! Cluster runtime state: nodes, racks, pools, and the allocation ledger.
//!
//! Besides the ledger itself, the cluster maintains two **free-capacity
//! indexes** that scheduling policies query on their hot path:
//!
//! * a sorted set of free node ids — first-fit node picks and per-rack
//!   free-node iteration cost O(picked) instead of O(total nodes);
//! * a pool ordering keyed by `(free space, pool id)` — best-fit pool
//!   selection reads the tightest sufficient pool without re-sorting on
//!   every planning call.
//!
//! Both are updated in [`allocate`](Cluster::allocate)/
//! [`release`](Cluster::release) and cross-checked by
//! [`verify_invariants`](Cluster::verify_invariants).
//!
//! **Availability.** Every node carries a [`NodeState`]
//! (`Up`/`Draining`/`Down`); the free-node indexes contain exactly the
//! *unallocated `Up`* nodes, so the state machine and the indexes stay
//! coherent on every transition ([`fail_node`](Cluster::fail_node),
//! [`repair_node`](Cluster::repair_node),
//! [`drain_node`](Cluster::drain_node),
//! [`undrain_node`](Cluster::undrain_node)) and scheduling policies never
//! see out-of-service capacity. Pools analogously carry a health factor
//! ([`set_pool_health`](Cluster::set_pool_health)) that shrinks their
//! effective capacity in the best-fit ordering.

use crate::alloc::MemoryAssignment;
use crate::error::PlatformError;
use crate::node::{NodeSpec, NodeState};
use crate::pool::MemoryPool;
use crate::topology::PoolTopology;
use crate::units::{MiB, NodeId, PoolId, RackId};
use std::collections::{BTreeMap, BTreeSet};

/// Static description of a whole machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of racks.
    pub racks: u32,
    /// Compute nodes per rack.
    pub nodes_per_rack: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Disaggregated-memory layout.
    pub pool: PoolTopology,
}

impl ClusterSpec {
    /// A spec with the given shape; panics on a zero-sized machine.
    ///
    /// Panicking shorthand for [`ClusterSpec::try_new`], for specs written
    /// as literals. Fallible paths (config files, experiment grids) should
    /// use `try_new`.
    pub fn new(racks: u32, nodes_per_rack: u32, node: NodeSpec, pool: PoolTopology) -> Self {
        // lint: allow(panic) — documented panicking shorthand; try_new is the fallible form
        Self::try_new(racks, nodes_per_rack, node, pool).expect("invalid ClusterSpec")
    }

    /// A spec with the given shape, rejecting zero-sized machines with a
    /// typed error.
    pub fn try_new(
        racks: u32,
        nodes_per_rack: u32,
        node: NodeSpec,
        pool: PoolTopology,
    ) -> Result<Self, PlatformError> {
        let spec = ClusterSpec {
            racks,
            nodes_per_rack,
            node,
            pool,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the machine shape (used by `try_new` and by simulator
    /// constructors that accept a spec built by hand).
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.racks == 0 {
            return Err(PlatformError::InvalidSpec {
                reason: "cluster needs at least one rack".into(),
            });
        }
        if self.nodes_per_rack == 0 {
            return Err(PlatformError::InvalidSpec {
                reason: "racks need at least one node".into(),
            });
        }
        self.node.validate()
    }

    /// Total compute nodes.
    pub fn total_nodes(&self) -> u32 {
        self.racks * self.nodes_per_rack
    }

    /// Total node-local DRAM, MiB.
    pub fn total_local_mem(&self) -> MiB {
        self.total_nodes() as u64 * self.node.local_mem
    }

    /// Total disaggregated memory, MiB.
    pub fn total_pool_mem(&self) -> MiB {
        self.pool.total_capacity(self.racks)
    }

    /// Total memory of any kind, MiB.
    pub fn total_mem(&self) -> MiB {
        self.total_local_mem() + self.total_pool_mem()
    }
}

/// Live cluster state. All mutation goes through [`allocate`](Cluster::allocate)
/// and [`release`](Cluster::release), which either fully succeed or leave the
/// state untouched (check-then-commit), so a failed scheduling attempt can
/// never corrupt the ledger.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    /// `holders[node] = Some(lease)` when the node is allocated.
    holders: Vec<Option<u64>>,
    /// Availability state per node; only `Up` nodes are schedulable.
    states: Vec<NodeState>,
    /// Number of allocated nodes (independent of availability states).
    busy_count: usize,
    /// Number of `Up` nodes.
    up_count: usize,
    /// Free-node count per rack (unallocated **and** `Up`), kept in sync
    /// with `holders` and `states`.
    rack_free: Vec<u32>,
    /// Unallocated `Up` node ids, sorted. Node ids within a rack are
    /// contiguous, so a rack's free nodes are a range query on this set.
    free_set: BTreeSet<u32>,
    pools: Vec<MemoryPool>,
    /// Pools ordered by `(free MiB, pool id)`: ascending iteration is
    /// exactly best-fit ("tightest sufficient pool first") order.
    pool_order: BTreeSet<(MiB, u32)>,
    /// Active leases in insertion-independent (sorted) order.
    leases: BTreeMap<u64, MemoryAssignment>,
}

impl Cluster {
    /// An idle cluster matching `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.total_nodes() as usize;
        let pools = match spec.pool {
            PoolTopology::None => Vec::new(),
            PoolTopology::PerRack { mib_per_rack } => (0..spec.racks)
                .map(|r| MemoryPool::new(PoolId(r), mib_per_rack))
                .collect(),
            PoolTopology::Global { mib } => vec![MemoryPool::new(PoolId(0), mib)],
        };
        let pool_order = pools.iter().map(|p| (p.free(), p.id().0)).collect();
        Cluster {
            spec,
            holders: vec![None; n],
            states: vec![NodeState::Up; n],
            busy_count: 0,
            up_count: n,
            rack_free: vec![spec.nodes_per_rack; spec.racks as usize],
            free_set: (0..n as u32).collect(),
            pools,
            pool_order,
            leases: BTreeMap::new(),
        }
    }

    /// The machine description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total compute nodes.
    pub fn total_nodes(&self) -> u32 {
        self.spec.total_nodes()
    }

    /// Rack containing `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        RackId(node.0 / self.spec.nodes_per_rack)
    }

    /// Pool domain covering `node`, if any.
    pub fn pool_of(&self, node: NodeId) -> Option<PoolId> {
        match self.spec.pool {
            PoolTopology::None => None,
            PoolTopology::PerRack { .. } => Some(PoolId(self.rack_of(node).0)),
            PoolTopology::Global { .. } => Some(PoolId(0)),
        }
    }

    /// Number of free nodes (unallocated and `Up`).
    pub fn free_nodes(&self) -> usize {
        self.free_set.len()
    }

    /// Number of allocated nodes.
    pub fn used_nodes(&self) -> usize {
        self.busy_count
    }

    /// Number of in-service (`Up`) nodes — the availability-weighted
    /// capacity denominator.
    pub fn available_nodes(&self) -> usize {
        self.up_count
    }

    /// True when some node is out of service or some pool runs below full
    /// health: capacity that a pending repair or drain end may restore, so
    /// a job that fits nothing now may still fit later.
    pub fn is_degraded(&self) -> bool {
        self.available_nodes() < self.total_nodes() as usize
            || self.pools.iter().any(|p| p.health() < 1.0)
    }

    /// Free nodes in one rack.
    pub fn free_nodes_in_rack(&self, rack: RackId) -> u32 {
        self.rack_free[rack.0 as usize]
    }

    /// True if `node` is allocatable right now (unallocated and `Up`).
    pub fn is_free(&self, node: NodeId) -> bool {
        self.free_set.contains(&node.0)
    }

    /// The lease holding `node`, if any.
    pub fn holder(&self, node: NodeId) -> Option<u64> {
        self.holders.get(node.0 as usize).copied().flatten()
    }

    /// Availability state of `node`.
    ///
    /// # Panics
    /// Panics on an out-of-range node id — state queries come from the
    /// engine's fault handling, which validates nodes up front.
    pub fn node_state(&self, node: NodeId) -> NodeState {
        self.states[node.0 as usize]
    }

    /// Take `node` out of the free indexes if it is currently free.
    fn unindex_if_free(&mut self, node: NodeId) {
        let rack = self.rack_of(node).0 as usize;
        if self.free_set.remove(&node.0) {
            self.rack_free[rack] -= 1;
        }
    }

    /// Put `node` into the free indexes if it is unallocated and `Up`.
    fn index_if_free(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        let rack = self.rack_of(node).0 as usize;
        if self.holders[idx].is_none()
            && self.states[idx] == NodeState::Up
            && self.free_set.insert(node.0)
        {
            self.rack_free[rack] += 1;
        }
    }

    /// Move `node` to `Down` (failure). Legal from any state; returns
    /// whether the state actually changed. The node leaves the free
    /// indexes immediately; a lease holding it is **not** released —
    /// interrupting that job is the engine's responsibility (check
    /// [`holder`](Cluster::holder) before or after the transition).
    pub fn fail_node(&mut self, node: NodeId) -> Result<bool, PlatformError> {
        self.check_node(node)?;
        let idx = node.0 as usize;
        if self.states[idx] == NodeState::Down {
            return Ok(false);
        }
        if self.states[idx] == NodeState::Up {
            self.up_count -= 1;
        }
        self.states[idx] = NodeState::Down;
        self.unindex_if_free(node);
        Ok(true)
    }

    /// Return a `Down` node to service (`Down → Up`); no-op from other
    /// states. Returns whether the state changed. An unallocated repaired
    /// node rejoins the free indexes.
    pub fn repair_node(&mut self, node: NodeId) -> Result<bool, PlatformError> {
        self.check_node(node)?;
        let idx = node.0 as usize;
        if self.states[idx] != NodeState::Down {
            return Ok(false);
        }
        self.states[idx] = NodeState::Up;
        self.up_count += 1;
        self.index_if_free(node);
        Ok(true)
    }

    /// Start a maintenance drain (`Up → Draining`); no-op from other
    /// states. Returns whether the state changed. Like
    /// [`fail_node`](Cluster::fail_node), a lease holding the node stays
    /// allocated until the engine interrupts it.
    pub fn drain_node(&mut self, node: NodeId) -> Result<bool, PlatformError> {
        self.check_node(node)?;
        let idx = node.0 as usize;
        if self.states[idx] != NodeState::Up {
            return Ok(false);
        }
        self.states[idx] = NodeState::Draining;
        self.up_count -= 1;
        self.unindex_if_free(node);
        Ok(true)
    }

    /// End a maintenance drain (`Draining → Up`); no-op from other states
    /// (in particular a node that failed mid-drain stays `Down` until
    /// repaired). Returns whether the state changed.
    pub fn undrain_node(&mut self, node: NodeId) -> Result<bool, PlatformError> {
        self.check_node(node)?;
        let idx = node.0 as usize;
        if self.states[idx] != NodeState::Draining {
            return Ok(false);
        }
        self.states[idx] = NodeState::Up;
        self.up_count += 1;
        self.index_if_free(node);
        Ok(true)
    }

    /// Set a pool's health factor (degradation: `factor < 1`, repair:
    /// `factor = 1`), keeping the best-fit pool ordering coherent. Rejects
    /// factors outside `(0, 1]` and unknown pools.
    pub fn set_pool_health(&mut self, pool: PoolId, factor: f64) -> Result<(), PlatformError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(PlatformError::InvalidSpec {
                reason: format!("pool health factor must be in (0, 1], got {factor}"),
            });
        }
        let Some(p) = self.pools.get_mut(pool.0 as usize) else {
            return Err(PlatformError::InvalidSpec {
                reason: format!("no such pool {pool}"),
            });
        };
        let before = p.free();
        p.set_health(factor);
        self.pool_order.remove(&(before, pool.0));
        self.pool_order.insert((p.free(), pool.0));
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), PlatformError> {
        if (node.0 as usize) < self.holders.len() {
            Ok(())
        } else {
            Err(PlatformError::NoSuchNode { node })
        }
    }

    /// Iterator over free node ids in ascending order. Backed by the free
    /// index: taking the first `k` nodes costs O(k), not O(total nodes).
    pub fn free_node_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.free_set.iter().map(|&i| NodeId(i))
    }

    /// Iterator over the free node ids of one rack, ascending. A range
    /// query on the free index (node ids within a rack are contiguous).
    pub fn free_nodes_in_rack_iter(&self, rack: RackId) -> impl Iterator<Item = NodeId> + '_ {
        let lo = rack.0 * self.spec.nodes_per_rack;
        let hi = lo + self.spec.nodes_per_rack;
        self.free_set.range(lo..hi).map(|&i| NodeId(i))
    }

    /// The lowest-indexed `n` free nodes, or `None` if fewer are free.
    pub fn first_fit_nodes(&self, n: usize) -> Option<Vec<NodeId>> {
        if self.free_set.len() < n {
            return None;
        }
        Some(self.free_node_iter().take(n).collect())
    }

    /// All pools (empty when the topology has none).
    pub fn pools(&self) -> &[MemoryPool] {
        &self.pools
    }

    /// One pool by id.
    ///
    /// # Panics
    /// Panics on an out-of-range id — pool ids come from
    /// [`pool_of`](Cluster::pool_of), so this is a caller bug.
    pub fn pool(&self, id: PoolId) -> &MemoryPool {
        &self.pools[id.0 as usize]
    }

    /// Free MiB in a pool.
    pub fn pool_free(&self, id: PoolId) -> MiB {
        self.pools[id.0 as usize].free()
    }

    /// Pool ids ordered by ascending `(free MiB, pool id)` — best-fit
    /// ("tightest pool first") order, maintained incrementally so callers
    /// never re-sort. Ties break on pool id, which keeps the order fully
    /// deterministic.
    pub fn pools_by_free(&self) -> impl Iterator<Item = PoolId> + '_ {
        self.pool_order.iter().map(|&(_, id)| PoolId(id))
    }

    /// Total pool MiB in use across the system.
    pub fn total_pool_used(&self) -> MiB {
        self.pools.iter().map(|p| p.used()).sum()
    }

    /// Total pool capacity across the system.
    pub fn total_pool_capacity(&self) -> MiB {
        self.pools.iter().map(|p| p.capacity()).sum()
    }

    /// Total node-local MiB currently pinned by leases.
    pub fn total_local_used(&self) -> MiB {
        self.leases
            .values()
            .map(|a| a.local_per_node * a.nodes.len() as u64)
            .sum()
    }

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Iterator over `(lease, assignment)` in lease-id order.
    pub fn active_leases(&self) -> impl Iterator<Item = (u64, &MemoryAssignment)> {
        self.leases.iter().map(|(&l, a)| (l, a))
    }

    /// Group an assignment's remote demand by pool domain. Errors if any
    /// node with remote demand lacks a pool.
    fn remote_by_pool(&self, a: &MemoryAssignment) -> Result<Vec<(PoolId, MiB)>, PlatformError> {
        let mut by_pool: Vec<(PoolId, MiB)> = Vec::new();
        if a.remote_per_node == 0 {
            return Ok(by_pool);
        }
        for &node in &a.nodes {
            let pool = self
                .pool_of(node)
                .ok_or(PlatformError::NoPoolForNode { node })?;
            match by_pool.iter_mut().find(|(p, _)| *p == pool) {
                Some((_, amt)) => *amt += a.remote_per_node,
                None => by_pool.push((pool, a.remote_per_node)),
            }
        }
        Ok(by_pool)
    }

    /// Check whether `assignment` could be granted right now, without
    /// mutating anything. Scheduling policies use this as their feasibility
    /// oracle.
    pub fn can_allocate(&self, assignment: &MemoryAssignment) -> Result<(), PlatformError> {
        if assignment.nodes.is_empty() {
            return Err(PlatformError::EmptyAssignment);
        }
        for (i, &node) in assignment.nodes.iter().enumerate() {
            let idx = node.0 as usize;
            if idx >= self.holders.len() {
                return Err(PlatformError::NoSuchNode { node });
            }
            // Duplicate check against the prefix: assignments are small next
            // to the machine, so this beats the O(total nodes) scratch
            // bitmap it replaces and allocates nothing.
            if assignment.nodes[..i].contains(&node) {
                return Err(PlatformError::DuplicateNode { node });
            }
            if let Some(held_by) = self.holders[idx] {
                return Err(PlatformError::NodeBusy { node, held_by });
            }
            if self.states[idx] != NodeState::Up {
                return Err(PlatformError::NodeUnavailable {
                    node,
                    state: self.states[idx].name(),
                });
            }
            if assignment.local_per_node > self.spec.node.local_mem {
                return Err(PlatformError::LocalMemoryExceeded {
                    node,
                    requested: assignment.local_per_node,
                    capacity: self.spec.node.local_mem,
                });
            }
        }
        for (pool, amount) in self.remote_by_pool(assignment)? {
            let free = self.pool_free(pool);
            if amount > free {
                return Err(PlatformError::PoolExhausted {
                    pool,
                    requested: amount,
                    free,
                });
            }
        }
        Ok(())
    }

    /// Grant `assignment` to `lease`. Atomic: on error nothing changed.
    pub fn allocate(
        &mut self,
        lease: u64,
        assignment: MemoryAssignment,
    ) -> Result<(), PlatformError> {
        if self.leases.contains_key(&lease) {
            return Err(PlatformError::DuplicateLease { lease });
        }
        self.can_allocate(&assignment)?;
        // Commit: can_allocate proved every step below succeeds (every
        // node free and Up, so each is present in the free indexes).
        for &node in &assignment.nodes {
            let rack = self.rack_of(node).0 as usize;
            self.holders[node.0 as usize] = Some(lease);
            self.rack_free[rack] -= 1;
            self.free_set.remove(&node.0);
        }
        self.busy_count += assignment.nodes.len();
        for (pool, amount) in self
            .remote_by_pool(&assignment)
            // lint: allow(panic) — can_allocate approved this exact assignment under the same state
            .expect("validated by can_allocate")
        {
            let p = &mut self.pools[pool.0 as usize];
            self.pool_order.remove(&(p.free(), pool.0));
            // lint: allow(panic) — can_allocate approved this exact assignment under the same state
            p.grab(lease, amount).expect("validated by can_allocate");
            self.pool_order.insert((p.free(), pool.0));
        }
        self.leases.insert(lease, assignment);
        Ok(())
    }

    /// Return everything `lease` holds; yields the released assignment.
    pub fn release(&mut self, lease: u64) -> Result<MemoryAssignment, PlatformError> {
        let assignment = self
            .leases
            .remove(&lease)
            .ok_or(PlatformError::NoSuchLease { lease })?;
        for &node in &assignment.nodes {
            debug_assert_eq!(self.holders[node.0 as usize], Some(lease));
            self.holders[node.0 as usize] = None;
            // Only Up nodes return to the free indexes: a node that failed
            // or started draining while allocated stays out of service.
            self.index_if_free(node);
        }
        self.busy_count -= assignment.nodes.len();
        // Touch only the pools this lease charged (computed from the
        // assignment, as allocate did) — not every pool on the machine.
        for (pool, _) in self
            .remote_by_pool(&assignment)
            // lint: allow(panic) — releasing what allocate granted; disagreement is a lease-bookkeeping bug
            .expect("released assignment was allocatable")
        {
            let p = &mut self.pools[pool.0 as usize];
            let before = p.free();
            if p.release(lease) > 0 {
                self.pool_order.remove(&(before, pool.0));
                self.pool_order.insert((p.free(), pool.0));
            }
        }
        Ok(assignment)
    }

    /// Full-state consistency check: holder counts, availability states,
    /// rack counters, pool ledgers, and lease↔node cross-references all
    /// agree. O(nodes+leases); meant for tests and debug builds, not the
    /// hot path.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let busy = self.holders.iter().filter(|h| h.is_some()).count();
        if busy != self.busy_count {
            return Err(format!("busy_count {} != actual {}", self.busy_count, busy));
        }
        let up = self.states.iter().filter(|&&s| s == NodeState::Up).count();
        if up != self.up_count {
            return Err(format!("up_count {} != actual {}", self.up_count, up));
        }
        let expect_free: BTreeSet<u32> = self
            .holders
            .iter()
            .zip(&self.states)
            .enumerate()
            .filter(|(_, (h, s))| h.is_none() && **s == NodeState::Up)
            .map(|(i, _)| i as u32)
            .collect();
        if expect_free != self.free_set {
            return Err("free-node index out of sync with holders/states".into());
        }
        let expect_order: BTreeSet<(MiB, u32)> =
            self.pools.iter().map(|p| (p.free(), p.id().0)).collect();
        if expect_order != self.pool_order {
            return Err("pool free-space ordering out of sync with pools".into());
        }
        for p in &self.pools {
            if p.used() > p.effective_capacity() {
                return Err(format!(
                    "pool {} over-committed: {} MiB used > {} MiB effective",
                    p.id(),
                    p.used(),
                    p.effective_capacity()
                ));
            }
        }
        for (r, &rf) in self.rack_free.iter().enumerate() {
            let actual = self
                .free_set
                .iter()
                .filter(|&&i| i / self.spec.nodes_per_rack == r as u32)
                .count() as u32;
            if rf != actual {
                return Err(format!("rack {r}: rack_free {rf} != actual {actual}"));
            }
        }
        for (lease, a) in &self.leases {
            for &node in &a.nodes {
                if self.holders[node.0 as usize] != Some(*lease) {
                    return Err(format!("lease {lease}: node {node} not held by it"));
                }
            }
        }
        // Note: a lease *may* hold a non-Up node transiently — between a
        // fail/drain transition and the engine interrupting the job — so
        // lease-on-Up-nodes is checked by the engine (which knows when the
        // transition settles), not here.
        for (i, h) in self.holders.iter().enumerate() {
            if let Some(lease) = h {
                let a = self
                    .leases
                    .get(lease)
                    .ok_or_else(|| format!("node n{i} held by unknown lease {lease}"))?;
                if !a.nodes.contains(&NodeId(i as u32)) {
                    return Err(format!("node n{i} not in lease {lease}'s assignment"));
                }
            }
        }
        for p in &self.pools {
            if !p.verify() {
                return Err(format!("pool {} ledger inconsistent", p.id()));
            }
        }
        // Pool ledgers must exactly reflect lease assignments.
        for (lease, a) in &self.leases {
            let mut expected: BTreeMap<PoolId, MiB> = BTreeMap::new();
            if a.remote_per_node > 0 {
                for &node in &a.nodes {
                    let pool = self
                        .pool_of(node)
                        .ok_or_else(|| format!("lease {lease}: node {node} lacks a pool"))?;
                    *expected.entry(pool).or_insert(0) += a.remote_per_node;
                }
            }
            for p in &self.pools {
                let want = expected.get(&p.id()).copied().unwrap_or(0);
                if p.held_by(*lease) != want {
                    return Err(format!(
                        "lease {lease}: pool {} holds {} MiB, expected {want}",
                        p.id(),
                        p.held_by(*lease)
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gib;

    fn small_cluster(pool: PoolTopology) -> Cluster {
        // 2 racks × 4 nodes, 64 cores, 256 GiB DRAM each.
        Cluster::new(ClusterSpec::new(2, 4, NodeSpec::new(64, gib(256)), pool))
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn spec_totals() {
        let s = ClusterSpec::new(
            4,
            16,
            NodeSpec::new(64, gib(256)),
            PoolTopology::PerRack {
                mib_per_rack: gib(512),
            },
        );
        assert_eq!(s.total_nodes(), 64);
        assert_eq!(s.total_local_mem(), 64 * gib(256));
        assert_eq!(s.total_pool_mem(), gib(2048));
        assert_eq!(s.total_mem(), 64 * gib(256) + gib(2048));
    }

    #[test]
    fn rack_and_pool_mapping() {
        let c = small_cluster(PoolTopology::PerRack {
            mib_per_rack: gib(512),
        });
        assert_eq!(c.rack_of(NodeId(0)), RackId(0));
        assert_eq!(c.rack_of(NodeId(3)), RackId(0));
        assert_eq!(c.rack_of(NodeId(4)), RackId(1));
        assert_eq!(c.pool_of(NodeId(0)), Some(PoolId(0)));
        assert_eq!(c.pool_of(NodeId(7)), Some(PoolId(1)));

        let g = small_cluster(PoolTopology::Global { mib: gib(512) });
        assert_eq!(g.pool_of(NodeId(7)), Some(PoolId(0)));
        let n = small_cluster(PoolTopology::None);
        assert_eq!(n.pool_of(NodeId(0)), None);
    }

    #[test]
    fn allocate_local_roundtrip() {
        let mut c = small_cluster(PoolTopology::None);
        let a = MemoryAssignment::local(ids(&[0, 1, 5]), gib(100));
        c.allocate(42, a.clone()).unwrap();
        assert_eq!(c.free_nodes(), 5);
        assert_eq!(c.used_nodes(), 3);
        assert!(!c.is_free(NodeId(0)));
        assert_eq!(c.holder(NodeId(5)), Some(42));
        assert_eq!(c.free_nodes_in_rack(RackId(0)), 2);
        assert_eq!(c.free_nodes_in_rack(RackId(1)), 3);
        assert_eq!(c.total_local_used(), 3 * gib(100));
        c.verify_invariants().unwrap();

        let released = c.release(42).unwrap();
        assert_eq!(released, a);
        assert_eq!(c.free_nodes(), 8);
        assert_eq!(c.total_local_used(), 0);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn allocate_with_pool_memory() {
        let mut c = small_cluster(PoolTopology::PerRack {
            mib_per_rack: gib(512),
        });
        // 2 nodes in rack 0, 1 in rack 1; 100 GiB remote each.
        let a = MemoryAssignment::hybrid(ids(&[0, 1, 4]), gib(256), gib(100));
        c.allocate(1, a).unwrap();
        assert_eq!(c.pool(PoolId(0)).used(), gib(200));
        assert_eq!(c.pool(PoolId(1)).used(), gib(100));
        assert_eq!(c.total_pool_used(), gib(300));
        c.verify_invariants().unwrap();

        c.release(1).unwrap();
        assert_eq!(c.total_pool_used(), 0);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn atomic_failure_on_pool_exhaustion() {
        let mut c = small_cluster(PoolTopology::PerRack {
            mib_per_rack: gib(150),
        });
        // Rack-0 pool is 150 GiB; two nodes × 100 GiB = 200 GiB > 150.
        let a = MemoryAssignment::hybrid(ids(&[0, 1]), gib(256), gib(100));
        let err = c.allocate(1, a).unwrap_err();
        assert!(matches!(err, PlatformError::PoolExhausted { .. }));
        // Nothing leaked.
        assert_eq!(c.free_nodes(), 8);
        assert_eq!(c.total_pool_used(), 0);
        assert_eq!(c.lease_count(), 0);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn rejects_busy_and_unknown_nodes() {
        let mut c = small_cluster(PoolTopology::None);
        c.allocate(1, MemoryAssignment::local(ids(&[2]), 1))
            .unwrap();
        let err = c
            .allocate(2, MemoryAssignment::local(ids(&[2]), 1))
            .unwrap_err();
        assert_eq!(
            err,
            PlatformError::NodeBusy {
                node: NodeId(2),
                held_by: 1
            }
        );
        let err = c
            .allocate(3, MemoryAssignment::local(ids(&[99]), 1))
            .unwrap_err();
        assert_eq!(err, PlatformError::NoSuchNode { node: NodeId(99) });
    }

    #[test]
    fn rejects_duplicates_and_empties() {
        let mut c = small_cluster(PoolTopology::None);
        let err = c
            .allocate(1, MemoryAssignment::local(ids(&[3, 3]), 1))
            .unwrap_err();
        assert_eq!(err, PlatformError::DuplicateNode { node: NodeId(3) });
        let err = c
            .allocate(1, MemoryAssignment::local(vec![], 1))
            .unwrap_err();
        assert_eq!(err, PlatformError::EmptyAssignment);
        c.allocate(1, MemoryAssignment::local(ids(&[0]), 1))
            .unwrap();
        let err = c
            .allocate(1, MemoryAssignment::local(ids(&[1]), 1))
            .unwrap_err();
        assert_eq!(err, PlatformError::DuplicateLease { lease: 1 });
    }

    #[test]
    fn rejects_oversized_local_memory() {
        let mut c = small_cluster(PoolTopology::None);
        let err = c
            .allocate(1, MemoryAssignment::local(ids(&[0]), gib(257)))
            .unwrap_err();
        assert!(matches!(err, PlatformError::LocalMemoryExceeded { .. }));
    }

    #[test]
    fn remote_without_pool_is_an_error() {
        let mut c = small_cluster(PoolTopology::None);
        let err = c
            .allocate(1, MemoryAssignment::hybrid(ids(&[0]), gib(256), gib(1)))
            .unwrap_err();
        assert_eq!(err, PlatformError::NoPoolForNode { node: NodeId(0) });
    }

    #[test]
    fn release_unknown_lease() {
        let mut c = small_cluster(PoolTopology::None);
        assert_eq!(
            c.release(9).unwrap_err(),
            PlatformError::NoSuchLease { lease: 9 }
        );
    }

    #[test]
    fn first_fit_selection() {
        let mut c = small_cluster(PoolTopology::None);
        c.allocate(1, MemoryAssignment::local(ids(&[0, 2]), 1))
            .unwrap();
        assert_eq!(c.first_fit_nodes(3), Some(ids(&[1, 3, 4])));
        assert_eq!(c.first_fit_nodes(7), None);
        assert_eq!(c.free_node_iter().count(), 6);
    }

    #[test]
    fn rack_free_iter_is_a_range_query() {
        let mut c = small_cluster(PoolTopology::None);
        c.allocate(1, MemoryAssignment::local(ids(&[0, 2, 5]), 1))
            .unwrap();
        let rack0: Vec<NodeId> = c.free_nodes_in_rack_iter(RackId(0)).collect();
        assert_eq!(rack0, ids(&[1, 3]));
        let rack1: Vec<NodeId> = c.free_nodes_in_rack_iter(RackId(1)).collect();
        assert_eq!(rack1, ids(&[4, 6, 7]));
        c.release(1).unwrap();
        assert_eq!(c.free_nodes_in_rack_iter(RackId(0)).count(), 4);
    }

    #[test]
    fn pool_order_tracks_best_fit() {
        let mut c = small_cluster(PoolTopology::PerRack {
            mib_per_rack: gib(512),
        });
        let order: Vec<PoolId> = c.pools_by_free().collect();
        assert_eq!(order, vec![PoolId(0), PoolId(1)], "equal free: id order");
        // Drain rack-1's pool harder than rack-0's.
        c.allocate(1, MemoryAssignment::hybrid(ids(&[4]), gib(256), gib(300)))
            .unwrap();
        c.allocate(2, MemoryAssignment::hybrid(ids(&[0]), gib(256), gib(100)))
            .unwrap();
        let order: Vec<PoolId> = c.pools_by_free().collect();
        assert_eq!(order, vec![PoolId(1), PoolId(0)], "tightest pool first");
        c.verify_invariants().unwrap();
        c.release(1).unwrap();
        let order: Vec<PoolId> = c.pools_by_free().collect();
        assert_eq!(order, vec![PoolId(0), PoolId(1)]);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn global_pool_spans_racks() {
        let mut c = small_cluster(PoolTopology::Global { mib: gib(300) });
        let a = MemoryAssignment::hybrid(ids(&[0, 4]), gib(256), gib(150));
        c.allocate(1, a).unwrap();
        assert_eq!(c.pool(PoolId(0)).used(), gib(300));
        assert_eq!(c.pool_free(PoolId(0)), 0);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn fail_and_repair_keep_indexes_coherent() {
        let mut c = small_cluster(PoolTopology::None);
        assert_eq!(c.available_nodes(), 8);
        assert!(c.fail_node(NodeId(2)).unwrap());
        assert!(!c.fail_node(NodeId(2)).unwrap(), "double fail is a no-op");
        assert_eq!(c.node_state(NodeId(2)), NodeState::Down);
        assert_eq!(c.free_nodes(), 7);
        assert_eq!(c.available_nodes(), 7);
        assert_eq!(c.free_nodes_in_rack(RackId(0)), 3);
        assert!(!c.is_free(NodeId(2)));
        c.verify_invariants().unwrap();

        // A Down node cannot be allocated; first-fit skips it.
        let err = c
            .allocate(1, MemoryAssignment::local(ids(&[2]), 1))
            .unwrap_err();
        assert!(matches!(err, PlatformError::NodeUnavailable { .. }));
        assert_eq!(c.first_fit_nodes(3), Some(ids(&[0, 1, 3])));

        assert!(c.repair_node(NodeId(2)).unwrap());
        assert!(
            !c.repair_node(NodeId(2)).unwrap(),
            "repairing Up is a no-op"
        );
        assert_eq!(c.free_nodes(), 8);
        assert_eq!(c.available_nodes(), 8);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn drain_state_machine() {
        let mut c = small_cluster(PoolTopology::None);
        assert!(c.drain_node(NodeId(5)).unwrap());
        assert_eq!(c.node_state(NodeId(5)), NodeState::Draining);
        assert_eq!(c.free_nodes(), 7);
        assert!(!c.drain_node(NodeId(5)).unwrap(), "double drain no-op");
        c.verify_invariants().unwrap();
        // Fail during drain: node goes Down; drain-end then does nothing.
        assert!(c.fail_node(NodeId(5)).unwrap());
        assert!(!c.undrain_node(NodeId(5)).unwrap());
        assert_eq!(c.node_state(NodeId(5)), NodeState::Down);
        assert!(c.repair_node(NodeId(5)).unwrap());
        assert_eq!(c.free_nodes(), 8);
        c.verify_invariants().unwrap();
        // Unknown node is a typed error.
        assert!(matches!(
            c.fail_node(NodeId(99)).unwrap_err(),
            PlatformError::NoSuchNode { .. }
        ));
    }

    #[test]
    fn failed_busy_node_stays_out_of_service_after_release() {
        let mut c = small_cluster(PoolTopology::None);
        c.allocate(7, MemoryAssignment::local(ids(&[0, 1]), 1))
            .unwrap();
        assert!(c.fail_node(NodeId(0)).unwrap());
        // Lease stays; the holder is still recorded (engine interrupts it).
        assert_eq!(c.holder(NodeId(0)), Some(7));
        assert_eq!(c.used_nodes(), 2);
        // Release returns only the Up node to the free set.
        c.release(7).unwrap();
        assert_eq!(c.free_nodes(), 7);
        assert!(!c.is_free(NodeId(0)));
        assert!(c.is_free(NodeId(1)));
        c.verify_invariants().unwrap();
        c.repair_node(NodeId(0)).unwrap();
        assert_eq!(c.free_nodes(), 8);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn pool_degradation_feeds_best_fit_order() {
        let mut c = small_cluster(PoolTopology::PerRack {
            mib_per_rack: gib(512),
        });
        c.set_pool_health(PoolId(0), 0.25).unwrap();
        assert_eq!(c.pool_free(PoolId(0)), gib(128));
        let order: Vec<PoolId> = c.pools_by_free().collect();
        assert_eq!(order, vec![PoolId(0), PoolId(1)], "degraded pool first");
        c.verify_invariants().unwrap();
        // Allocation is bounded by the degraded capacity.
        let err = c
            .allocate(1, MemoryAssignment::hybrid(ids(&[0]), gib(256), gib(200)))
            .unwrap_err();
        assert!(matches!(err, PlatformError::PoolExhausted { .. }));
        c.allocate(1, MemoryAssignment::hybrid(ids(&[0]), gib(256), gib(100)))
            .unwrap();
        c.verify_invariants().unwrap();
        // Restore health: full capacity returns to the ordering.
        c.set_pool_health(PoolId(0), 1.0).unwrap();
        assert_eq!(c.pool_free(PoolId(0)), gib(412));
        c.verify_invariants().unwrap();
        // Bad factors and unknown pools are typed errors.
        assert!(c.set_pool_health(PoolId(0), 0.0).is_err());
        assert!(c.set_pool_health(PoolId(0), 1.5).is_err());
        assert!(c.set_pool_health(PoolId(9), 0.5).is_err());
    }

    #[test]
    fn many_leases_stress_invariants() {
        let mut c = Cluster::new(ClusterSpec::new(
            4,
            8,
            NodeSpec::new(32, gib(128)),
            PoolTopology::PerRack {
                mib_per_rack: gib(256),
            },
        ));
        // Allocate 16 single-node leases with varying remote shares, then
        // free the even ones, then reallocate.
        for i in 0..16u64 {
            let a = MemoryAssignment::hybrid(ids(&[i as u32]), gib(64), gib((i % 4) * 16));
            c.allocate(i, a).unwrap();
        }
        c.verify_invariants().unwrap();
        for i in (0..16u64).step_by(2) {
            c.release(i).unwrap();
        }
        c.verify_invariants().unwrap();
        assert_eq!(c.lease_count(), 8);
        for i in 16..24u64 {
            let nodes = c.first_fit_nodes(1).unwrap();
            c.allocate(i, MemoryAssignment::local(nodes, gib(10)))
                .unwrap();
        }
        c.verify_invariants().unwrap();
        assert_eq!(c.lease_count(), 16);
    }
}
