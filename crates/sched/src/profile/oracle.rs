//! The pre-flat availability profile, kept verbatim as a test oracle.
//!
//! This is the `Vec<Point>` layout the profile had before it became three
//! flat arrays: every breakpoint owns its own per-rack and per-domain
//! vectors, and window minima clone the first point in the window. It is
//! slow but obviously correct, so the differential tests in
//! `profile.rs` hold the flat profile to it query by query.

use super::{Demand, DomainKind, Release};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MiB, PoolTopology, RackId};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Point {
    time: SimTime,
    free_nodes: Vec<u32>,
    free_pool: Vec<MiB>,
}

/// Piecewise-constant forecast of free capacity. See module docs.
#[derive(Debug, Clone)]
pub(super) struct PointProfile {
    kind: DomainKind,
    racks: usize,
    /// Sorted by time; `points[0].time` is the profile origin ("now"); the
    /// last point extends to infinity.
    points: Vec<Point>,
}

impl PointProfile {
    /// Build from a cluster's current state plus the planned releases of
    /// running jobs. Releases at or before `now` are folded into the origin.
    pub(super) fn from_cluster(now: SimTime, cluster: &Cluster, releases: &[Release]) -> Self {
        let spec = cluster.spec();
        let kind = match spec.pool {
            PoolTopology::None => DomainKind::None,
            PoolTopology::PerRack { .. } => DomainKind::PerRack,
            PoolTopology::Global { .. } => DomainKind::Global,
        };
        let free_nodes: Vec<u32> = (0..spec.racks)
            .map(|r| cluster.free_nodes_in_rack(RackId(r)))
            .collect();
        let free_pool: Vec<MiB> = cluster.pools().iter().map(|p| p.free()).collect();
        Self::from_parts(now, kind, free_nodes, free_pool, releases)
    }

    pub(super) fn from_parts(
        now: SimTime,
        kind: DomainKind,
        free_nodes: Vec<u32>,
        free_pool: Vec<MiB>,
        releases: &[Release],
    ) -> Self {
        let racks = free_nodes.len();
        let mut sorted: Vec<&Release> = releases.iter().collect();
        sorted.sort_by_key(|r| r.time);
        let mut points = vec![Point {
            time: now,
            free_nodes,
            free_pool,
        }];
        for rel in sorted {
            debug_assert_eq!(rel.nodes_per_rack.len(), racks, "release rack arity");
            // lint: allow(panic) — the profile is seeded with an origin point it never pops
            let last = points.last().expect("origin exists");
            let mut next = if rel.time <= last.time {
                // Late or simultaneous release: merge into the last point.
                // lint: allow(panic) — the profile is seeded with an origin point it never pops
                points.pop().expect("origin exists")
            } else {
                Point {
                    time: rel.time,
                    ..last.clone()
                }
            };
            for (f, &add) in next.free_nodes.iter_mut().zip(&rel.nodes_per_rack) {
                *f += add;
            }
            for (f, &add) in next.free_pool.iter_mut().zip(&rel.pool_per_domain) {
                *f += add;
            }
            points.push(next);
        }
        PointProfile {
            kind,
            racks,
            points,
        }
    }

    /// Number of breakpoints (diagnostics/benches).
    pub(super) fn len(&self) -> usize {
        self.points.len()
    }

    /// The profile origin.
    pub(super) fn origin(&self) -> SimTime {
        self.points[0].time
    }

    /// Index of the last point with `time <= t` (clamped to the origin).
    fn segment_at(&self, t: SimTime) -> usize {
        match self.points.binary_search_by(|p| p.time.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Per-rack node minima and per-domain pool minima over `[start, end)`.
    fn window_minima(&self, start: SimTime, end: SimTime) -> (Vec<u32>, Vec<MiB>) {
        let first = self.segment_at(start);
        let mut node_min = self.points[first].free_nodes.clone();
        let mut pool_min = self.points[first].free_pool.clone();
        for p in &self.points[first + 1..] {
            if p.time >= end {
                break;
            }
            for (m, &v) in node_min.iter_mut().zip(&p.free_nodes) {
                *m = (*m).min(v);
            }
            for (m, &v) in pool_min.iter_mut().zip(&p.free_pool) {
                *m = (*m).min(v);
            }
        }
        (node_min, pool_min)
    }

    /// Find a fixed rack split serving `demand` throughout `[start,
    /// start+dur)`, or `None`. The split is built greedily in ascending rack
    /// order (deterministic; concrete node choice is the memory policy's
    /// job).
    pub(super) fn usable_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<Vec<u32>> {
        let end = start.saturating_add(dur);
        let (node_min, pool_min) = self.window_minima(start, end);
        let r = demand.remote_per_node;
        let n = demand.nodes;
        if r > 0 && self.kind == DomainKind::None {
            return None;
        }
        // Per-rack usable node counts under the pool constraint.
        let usable: Vec<u32> = match self.kind {
            DomainKind::None | DomainKind::Global => node_min.clone(),
            DomainKind::PerRack => node_min
                .iter()
                .zip(&pool_min)
                .map(|(&nm, &pm)| {
                    pm.checked_div(r)
                        .map_or(nm, |per_rack| nm.min(per_rack.min(u32::MAX as u64) as u32))
                })
                .collect(),
        };
        if self.kind == DomainKind::Global && r > 0 {
            let pool_nodes = (pool_min[0] / r).min(u32::MAX as u64) as u32;
            if pool_nodes < n {
                return None;
            }
        }
        let total: u64 = usable.iter().map(|&u| u as u64).sum();
        if total < n as u64 {
            return None;
        }
        let mut split = vec![0u32; self.racks];
        let mut remaining = n;
        for (i, &u) in usable.iter().enumerate() {
            let take = u.min(remaining);
            split[i] = take;
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0);
        Some(split)
    }

    /// True iff the *specific* split fits throughout the window. Used to
    /// validate a memory policy's concrete placement against reservations.
    pub(super) fn fits_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        split: &[u32],
        remote_per_node: MiB,
    ) -> bool {
        let end = start.saturating_add(dur);
        let (node_min, pool_min) = self.window_minima(start, end);
        if split.iter().zip(&node_min).any(|(&k, &m)| k > m) {
            return false;
        }
        if remote_per_node == 0 {
            return true;
        }
        match self.kind {
            DomainKind::None => false,
            DomainKind::PerRack => split
                .iter()
                .zip(&pool_min)
                .all(|(&k, &pm)| k as u64 * remote_per_node <= pm),
            DomainKind::Global => {
                let total: u64 = split.iter().map(|&k| k as u64).sum();
                total * remote_per_node <= pool_min[0]
            }
        }
    }

    /// Earliest start `>= from` at which `demand` fits for `dur`, together
    /// with a witness split. `None` only if the demand can never fit (even
    /// an idle machine is too small). Exact — see module docs.
    pub(super) fn earliest_fit(
        &self,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<(SimTime, Vec<u32>)> {
        let from = from.max_of(self.origin());
        if let Some(split) = self.usable_split(from, dur, demand) {
            return Some((from, split));
        }
        for p in &self.points {
            if p.time <= from {
                continue;
            }
            if let Some(split) = self.usable_split(p.time, dur, demand) {
                return Some((p.time, split));
            }
        }
        None
    }

    /// Ensure a breakpoint exists at `t`; returns its index.
    fn ensure_point(&mut self, t: SimTime) -> usize {
        match self.points.binary_search_by(|p| p.time.cmp(&t)) {
            Ok(i) => i,
            Err(0) => {
                // Before the origin: clamp to origin (reservations cannot
                // start in the past).
                0
            }
            Err(i) => {
                let clone = Point {
                    time: t,
                    ..self.points[i - 1].clone()
                };
                self.points.insert(i, clone);
                i
            }
        }
    }

    /// Subtract a reservation: `split` nodes per rack, each borrowing
    /// `remote_per_node`, over `[start, start+dur)`.
    ///
    /// # Panics
    /// Panics if the reservation does not fit — callers must have validated
    /// with [`usable_split`](Self::usable_split)/[`fits_split`](Self::fits_split).
    pub(super) fn reserve(
        &mut self,
        start: SimTime,
        dur: SimDuration,
        split: &[u32],
        remote_per_node: MiB,
    ) {
        assert_eq!(split.len(), self.racks, "split arity");
        let end = start.saturating_add(dur);
        let si = self.ensure_point(start);
        if end != SimTime::MAX {
            self.ensure_point(end);
        }
        let total_nodes: u64 = split.iter().map(|&k| k as u64).sum();
        for p in &mut self.points[si..] {
            if p.time >= end {
                break;
            }
            for (f, &k) in p.free_nodes.iter_mut().zip(split) {
                // lint: allow(panic) — reservations come from earliest_fit, which bounded them by free capacity
                *f = f.checked_sub(k).expect("reservation exceeds free nodes");
            }
            if remote_per_node > 0 {
                match self.kind {
                    // lint: allow(panic) — remote reservations are only produced for pool-backed clusters
                    DomainKind::None => panic!("remote reservation without pools"),
                    DomainKind::PerRack => {
                        for (f, &k) in p.free_pool.iter_mut().zip(split) {
                            *f = f
                                .checked_sub(k as u64 * remote_per_node)
                                // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                                .expect("reservation exceeds pool");
                        }
                    }
                    DomainKind::Global => {
                        p.free_pool[0] = p.free_pool[0]
                            .checked_sub(total_nodes * remote_per_node)
                            // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                            .expect("reservation exceeds pool");
                    }
                }
            }
        }
    }

    /// Free nodes per rack at time `t` (diagnostics/tests).
    pub(super) fn free_nodes_at(&self, t: SimTime) -> Vec<u32> {
        self.points[self.segment_at(t)].free_nodes.clone()
    }

    /// Free pool per domain at time `t` (diagnostics/tests).
    pub(super) fn free_pool_at(&self, t: SimTime) -> Vec<MiB> {
        self.points[self.segment_at(t)].free_pool.clone()
    }

    /// Breakpoint times, ascending (the oracle's only addition: tests
    /// compare the flat profile at exactly these instants).
    pub(super) fn breakpoints(&self) -> Vec<SimTime> {
        self.points.iter().map(|p| p.time).collect()
    }
}
