//! The two-resource availability profile.
//!
//! Backfilling needs to answer: *"when will `n` nodes **and** the pool
//! memory they'd borrow be simultaneously free for `d` seconds?"* On a
//! conventional cluster the profile is one step function (free nodes over
//! time). With disaggregated memory it is a vector-valued step function —
//! free nodes **per rack** and free MiB **per pool domain** — because a node
//! can only borrow from its own rack's pool.
//!
//! ## Feasibility with a fixed rack split
//!
//! A job does not migrate between racks mid-run, so a placement is a *fixed
//! split* `k = (k_0, …, k_{R-1})` of its `n` nodes across racks, each node
//! borrowing `r` MiB from its rack's domain. A window `[s, s+d)` admits the
//! job iff some split satisfies, at **every** profile point in the window,
//! `k_i ≤ free_nodes_i` and the pool constraint. Taking per-rack minima over
//! the window reduces this to a one-shot greedy fill, which is exact.
//!
//! ## Why scanning point times is exact
//!
//! [`earliest_fit`](AvailabilityProfile::earliest_fit) only tries window
//! starts at profile breakpoints (plus the query time): if a start `s`
//! strictly inside a segment is feasible, the segment's own start `t* ≤ s`
//! is feasible too — the window `[t*, t*+d)` is contained in
//! `[t*, s) ∪ [s, s+d)`, both parts of which the `s`-window already proved
//! feasible. So breakpoint scanning finds the true earliest start.
//!
//! ## Layout
//!
//! A profile is rebuilt on every backfilling pass, so it is stored flat:
//! one `times` vector plus two row-major arrays, free nodes (points ×
//! racks) and free pool (points × domains). A build from an already-sorted
//! release stream ([`AvailabilityProfile::from_sorted`]) costs three
//! allocations, and window minima are strided column reads, so queries
//! allocate nothing but the witness split they return.

use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MiB, PoolTopology, RackId};
use std::ops::{AddAssign, Range};

#[cfg(test)]
mod oracle;

/// What a job needs from the profile: `nodes` spread over racks, each
/// borrowing `remote_per_node` MiB from its rack's pool domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Node count.
    pub nodes: u32,
    /// Pool MiB per node (0 = purely local job).
    pub remote_per_node: MiB,
}

/// A future capacity release (a running job's planned end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    /// When the capacity returns.
    pub time: SimTime,
    /// Nodes returned, per rack.
    pub nodes_per_rack: Vec<u32>,
    /// Pool MiB returned, per domain.
    pub pool_per_domain: Vec<MiB>,
}

/// Pool-domain structure, mirrored from [`PoolTopology`] without capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DomainKind {
    None,
    PerRack,
    Global,
}

/// Piecewise-constant forecast of free capacity. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityProfile {
    kind: DomainKind,
    racks: usize,
    domains: usize,
    /// Strictly ascending; `times[0]` is the profile origin ("now"); the
    /// last point extends to infinity.
    times: Vec<SimTime>,
    /// Row `p` (`racks` wide) holds the free nodes per rack from `times[p]`.
    free_nodes: Vec<u32>,
    /// Row `p` (`domains` wide) holds the free pool MiB per domain from
    /// `times[p]`.
    free_pool: Vec<MiB>,
}

impl AvailabilityProfile {
    /// Build from a cluster's current state plus the planned releases of
    /// running jobs, in any order. Releases at or before `now` are folded
    /// into the origin.
    pub fn from_cluster(now: SimTime, cluster: &Cluster, releases: &[Release]) -> Self {
        let mut sorted: Vec<&Release> = releases.iter().collect();
        sorted.sort_by_key(|r| r.time);
        Self::from_sorted(
            now,
            cluster,
            sorted
                .into_iter()
                .map(|r| (r.time, &r.nodes_per_rack[..], &r.pool_per_domain[..])),
        )
    }

    /// Build from a cluster's current state plus `(time, nodes per rack,
    /// pool per domain)` releases in ascending time order — the order a
    /// [`crate::ReleaseView`] iterates in, so a pass needs no copy and no
    /// sort. Equal to [`from_cluster`](Self::from_cluster) over the same
    /// releases; sorted input only makes every release an append.
    pub fn from_sorted<'r>(
        now: SimTime,
        cluster: &Cluster,
        releases: impl IntoIterator<Item = (SimTime, &'r [u32], &'r [MiB])>,
    ) -> Self {
        let spec = cluster.spec();
        let kind = match spec.pool {
            PoolTopology::None => DomainKind::None,
            PoolTopology::PerRack { .. } => DomainKind::PerRack,
            PoolTopology::Global { .. } => DomainKind::Global,
        };
        let releases = releases.into_iter();
        let rows = releases.size_hint().0 + 1;
        let pools = cluster.pools();
        let mut free_nodes = Vec::with_capacity(rows * spec.racks as usize);
        free_nodes.extend((0..spec.racks).map(|r| cluster.free_nodes_in_rack(RackId(r))));
        let mut free_pool = Vec::with_capacity(rows * pools.len());
        free_pool.extend(pools.iter().map(|p| p.free()));
        let mut times = Vec::with_capacity(rows);
        times.push(now);
        let mut profile = AvailabilityProfile {
            kind,
            racks: free_nodes.len(),
            domains: free_pool.len(),
            times,
            free_nodes,
            free_pool,
        };
        for (time, nodes, pool) in releases {
            profile.add_release(time, nodes, pool);
        }
        profile
    }

    /// Fold in one more release at any time — what a pass does for the
    /// jobs it has just started. The result equals a build that had the
    /// release from the start. A release at or before the origin adds to
    /// every point; one after the last breakpoint appends a point.
    pub fn add_release(&mut self, time: SimTime, nodes: &[u32], pool: &[MiB]) {
        debug_assert_eq!(nodes.len(), self.racks, "release rack arity");
        let first = self.ensure_point(time);
        add_to_rows(
            &mut self.free_nodes[first * self.racks..],
            self.racks,
            nodes,
        );
        add_to_rows(
            &mut self.free_pool[first * self.domains..],
            self.domains,
            pool,
        );
    }

    /// Number of breakpoints (diagnostics/benches).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always false: a profile has at least its origin point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The profile origin.
    pub fn origin(&self) -> SimTime {
        self.times[0]
    }

    /// Index of the last point with `time <= t` (clamped to the origin).
    fn segment_at(&self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// The points in force over `[start, end)`: the segment holding
    /// `start` and every later point before `end`.
    fn window(&self, start: SimTime, end: SimTime) -> Range<usize> {
        let first = self.segment_at(start);
        first..first + 1 + self.times[first + 1..].partition_point(|&t| t < end)
    }

    /// Minimum free nodes in `rack` over the window `rows`.
    fn node_min(&self, rows: &Range<usize>, rack: usize) -> u32 {
        column_min(&self.free_nodes, self.racks, rows, rack)
    }

    /// Minimum free pool in `domain` over the window `rows`.
    fn pool_min(&self, rows: &Range<usize>, domain: usize) -> MiB {
        column_min(&self.free_pool, self.domains, rows, domain)
    }

    /// Nodes of `rack` usable throughout the window, each borrowing
    /// `remote` MiB. Only per-rack pools bound this; a global pool is
    /// checked once for the whole demand.
    fn usable(&self, rows: &Range<usize>, rack: usize, remote: MiB) -> u32 {
        let nodes = self.node_min(rows, rack);
        match self.kind {
            DomainKind::None | DomainKind::Global => nodes,
            DomainKind::PerRack => self
                .pool_min(rows, rack)
                .checked_div(remote)
                .map_or(nodes, |per_rack| {
                    nodes.min(per_rack.min(u32::MAX as u64) as u32)
                }),
        }
    }

    /// Find a fixed rack split serving `demand` throughout `[start,
    /// start+dur)`, or `None`. The split is built greedily in ascending rack
    /// order (deterministic; concrete node choice is the memory policy's
    /// job).
    pub fn usable_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<Vec<u32>> {
        let r = demand.remote_per_node;
        let n = demand.nodes;
        if r > 0 && self.kind == DomainKind::None {
            return None;
        }
        let rows = self.window(start, start.saturating_add(dur));
        if self.kind == DomainKind::Global && r > 0 {
            let pool_nodes = (self.pool_min(&rows, 0) / r).min(u32::MAX as u64) as u32;
            if pool_nodes < n {
                return None;
            }
        }
        // Count first, so an infeasible window allocates nothing: the
        // greedy fill ends at the first rack where the running total of
        // usable nodes reaches `n`.
        let mut total = 0u64;
        let last = (0..self.racks).position(|rack| {
            total += self.usable(&rows, rack, r) as u64;
            total >= n as u64
        })?;
        let mut split = vec![0u32; self.racks];
        let mut remaining = n;
        for (rack, k) in split.iter_mut().enumerate().take(last + 1) {
            *k = self.usable(&rows, rack, r).min(remaining);
            remaining -= *k;
        }
        debug_assert_eq!(remaining, 0);
        Some(split)
    }

    /// True iff the *specific* split fits throughout the window. Used to
    /// validate a memory policy's concrete placement against reservations.
    pub fn fits_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        split: &[u32],
        remote_per_node: MiB,
    ) -> bool {
        let rows = self.window(start, start.saturating_add(dur));
        // Racks the split leaves empty fit trivially.
        let used = || {
            split
                .iter()
                .copied()
                .zip(0..self.racks)
                .filter(|&(k, _)| k > 0)
        };
        if used().any(|(k, rack)| k > self.node_min(&rows, rack)) {
            return false;
        }
        if remote_per_node == 0 {
            return true;
        }
        match self.kind {
            DomainKind::None => false,
            DomainKind::PerRack => {
                used().all(|(k, rack)| k as u64 * remote_per_node <= self.pool_min(&rows, rack))
            }
            DomainKind::Global => {
                let total: u64 = split.iter().map(|&k| k as u64).sum();
                total * remote_per_node <= self.pool_min(&rows, 0)
            }
        }
    }

    /// Earliest start `>= from` at which `demand` fits for `dur`, together
    /// with a witness split. `None` only if the demand can never fit (even
    /// an idle machine is too small). Exact — see module docs.
    pub fn earliest_fit(
        &self,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<(SimTime, Vec<u32>)> {
        let from = from.max_of(self.origin());
        if let Some(split) = self.usable_split(from, dur, demand) {
            return Some((from, split));
        }
        let later = self.times.partition_point(|&t| t <= from);
        self.times[later..]
            .iter()
            .find_map(|&t| self.usable_split(t, dur, demand).map(|split| (t, split)))
    }

    /// Ensure a breakpoint exists at `t`; returns its index. A `t` before
    /// the origin clamps to the origin (reservations cannot start in the
    /// past; releases there are already free).
    fn ensure_point(&mut self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => {
                self.times.insert(i, t);
                duplicate_row(&mut self.free_nodes, self.racks, i);
                duplicate_row(&mut self.free_pool, self.domains, i);
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
    pub fn reserve(
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
        let ei = si + self.times[si..].partition_point(|&t| t < end);
        let total_nodes: u64 = split.iter().map(|&k| k as u64).sum();
        let (racks, domains) = (self.racks, self.domains);
        for row in si..ei {
            for (f, &k) in self.free_nodes[row * racks..(row + 1) * racks]
                .iter_mut()
                .zip(split)
            {
                // lint: allow(panic) — reservations come from earliest_fit, which bounded them by free capacity
                *f = f.checked_sub(k).expect("reservation exceeds free nodes");
            }
            if remote_per_node > 0 {
                let pool = &mut self.free_pool[row * domains..(row + 1) * domains];
                match self.kind {
                    // lint: allow(panic) — remote reservations are only produced for pool-backed clusters
                    DomainKind::None => panic!("remote reservation without pools"),
                    DomainKind::PerRack => {
                        for (f, &k) in pool.iter_mut().zip(split) {
                            *f = f
                                .checked_sub(k as u64 * remote_per_node)
                                // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                                .expect("reservation exceeds pool");
                        }
                    }
                    DomainKind::Global => {
                        pool[0] = pool[0]
                            .checked_sub(total_nodes * remote_per_node)
                            // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                            .expect("reservation exceeds pool");
                    }
                }
            }
        }
    }

    /// Free nodes per rack at time `t` (diagnostics/tests).
    pub fn free_nodes_at(&self, t: SimTime) -> Vec<u32> {
        let row = self.segment_at(t);
        self.free_nodes[row * self.racks..(row + 1) * self.racks].to_vec()
    }

    /// Free pool per domain at time `t` (diagnostics/tests).
    pub fn free_pool_at(&self, t: SimTime) -> Vec<MiB> {
        let row = self.segment_at(t);
        self.free_pool[row * self.domains..(row + 1) * self.domains].to_vec()
    }
}

/// Add `add` to every `width`-wide row of `rows`.
fn add_to_rows<T: Copy + AddAssign>(rows: &mut [T], width: usize, add: &[T]) {
    if width == 0 {
        return;
    }
    for row in rows.chunks_exact_mut(width) {
        for (f, &a) in row.iter_mut().zip(add) {
            *f += a;
        }
    }
}

/// Minimum of column `col` over the `width`-wide rows `rows` of `flat`
/// (`rows` is never empty).
fn column_min<T: Copy + Ord>(flat: &[T], width: usize, rows: &Range<usize>, col: usize) -> T {
    let column = &flat[rows.start * width + col..rows.end * width];
    column
        .iter()
        .step_by(width)
        .fold(column[0], |m, &v| m.min(v))
}

/// Insert a copy of row `i - 1` as row `i` of a `width`-wide flat array.
fn duplicate_row<T: Copy>(flat: &mut Vec<T>, width: usize, i: usize) {
    let at = i * width;
    flat.extend_from_within(at - width..at);
    flat[at..].rotate_right(width);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile from explicit origin capacities (no cluster needed).
    fn from_parts(
        now: SimTime,
        kind: DomainKind,
        free_nodes: Vec<u32>,
        free_pool: Vec<MiB>,
        releases: &[Release],
    ) -> AvailabilityProfile {
        let mut p = AvailabilityProfile {
            kind,
            racks: free_nodes.len(),
            domains: free_pool.len(),
            times: vec![now],
            free_nodes,
            free_pool,
        };
        for r in releases {
            p.add_release(r.time, &r.nodes_per_rack, &r.pool_per_domain);
        }
        p
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// 2 racks × 4 nodes, per-rack pools of 1000 MiB, 2 nodes free in rack
    /// 0 and 0 in rack 1 now; releases at t=100 (2 nodes r1 + 500 pool r1)
    /// and t=200 (2 nodes r0, 2 nodes r1, 500 pool each).
    fn profile() -> AvailabilityProfile {
        from_parts(
            t(0),
            DomainKind::PerRack,
            vec![2, 0],
            vec![1000, 0],
            &[
                Release {
                    time: t(100),
                    nodes_per_rack: vec![0, 2],
                    pool_per_domain: vec![0, 500],
                },
                Release {
                    time: t(200),
                    nodes_per_rack: vec![2, 2],
                    pool_per_domain: vec![0, 500],
                },
            ],
        )
    }

    #[test]
    fn builds_cumulative_points() {
        let p = profile();
        assert_eq!(p.len(), 3);
        assert_eq!(p.free_nodes_at(t(0)), vec![2, 0]);
        assert_eq!(p.free_nodes_at(t(150)), vec![2, 2]);
        assert_eq!(p.free_nodes_at(t(500)), vec![4, 4]);
        assert_eq!(p.free_pool_at(t(150)), vec![1000, 500]);
        assert_eq!(p.free_pool_at(t(500)), vec![1000, 1000]);
    }

    #[test]
    fn merges_simultaneous_and_past_releases() {
        let p = from_parts(
            t(10),
            DomainKind::None,
            vec![1],
            vec![],
            &[
                Release {
                    time: t(5), // in the past: folded into origin
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
                Release {
                    time: t(20),
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
                Release {
                    time: t(20),
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
            ],
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.free_nodes_at(t(10)), vec![2]);
        assert_eq!(p.free_nodes_at(t(20)), vec![4]);
    }

    #[test]
    fn usable_split_respects_pool_per_rack() {
        let p = profile();
        // 2 nodes, 400 MiB each: rack 0 pool 1000 allows floor(1000/400)=2.
        let split = p.usable_split(
            t(0),
            d(50),
            &Demand {
                nodes: 2,
                remote_per_node: 400,
            },
        );
        assert_eq!(split, Some(vec![2, 0]));
        // 3 nodes now: only 2 free anywhere.
        assert_eq!(
            p.usable_split(
                t(0),
                d(50),
                &Demand {
                    nodes: 3,
                    remote_per_node: 0
                }
            ),
            None
        );
        // At t=100: 2+2 nodes, but rack-1 pool 500 allows only 1 node at 400.
        let split = p.usable_split(
            t(100),
            d(50),
            &Demand {
                nodes: 3,
                remote_per_node: 400,
            },
        );
        assert_eq!(split, Some(vec![2, 1]));
    }

    #[test]
    fn window_minima_span_segments() {
        let p = profile();
        // Window [0, 150) includes the t=100 release; minima are the t=0
        // values, so 3 nodes never fit in that window.
        assert_eq!(
            p.usable_split(
                t(0),
                d(150),
                &Demand {
                    nodes: 3,
                    remote_per_node: 0
                }
            ),
            None
        );
        // Window [100, 90s) fits 4 nodes.
        assert!(p
            .usable_split(
                t(100),
                d(90),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0
                }
            )
            .is_some());
    }

    #[test]
    fn earliest_fit_scans_breakpoints() {
        let p = profile();
        let (start, split) = p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(100));
        assert_eq!(split.iter().sum::<u32>(), 4);

        let (start, _) = p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 8,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(200));

        // Demand that never fits: 9 nodes on an 8-node machine.
        assert!(p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 9,
                    remote_per_node: 0
                }
            )
            .is_none());
    }

    #[test]
    fn earliest_fit_honors_from_mid_segment() {
        let p = profile();
        let (start, _) = p
            .earliest_fit(
                t(150),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(150), "already feasible at the query time");
    }

    #[test]
    fn reserve_subtracts_and_restores() {
        let mut p = profile();
        // Reserve 2 nodes in rack 0 with 300 MiB each over [0, 120).
        p.reserve(t(0), d(120), &[2, 0], 300);
        assert_eq!(p.free_nodes_at(t(0)), vec![0, 0]);
        assert_eq!(p.free_pool_at(t(0)), vec![400, 0]);
        assert_eq!(p.free_nodes_at(t(110)), vec![0, 2]);
        // After the reservation ends capacity returns.
        assert_eq!(p.free_nodes_at(t(120)), vec![2, 2]);
        assert_eq!(p.free_pool_at(t(120)), vec![1000, 500]);
        assert_eq!(p.free_nodes_at(t(300)), vec![4, 4]);
    }

    #[test]
    fn reserve_then_earliest_fit_is_pushed_back() {
        let mut p = profile();
        // Head job: 4 nodes at t=100 for 200 s.
        let (s, split) = p
            .earliest_fit(
                t(0),
                d(200),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s, t(100));
        p.reserve(s, d(200), &split, 0);
        // A 1-node backfill of 100 s fits immediately (rack 0 has 2 free).
        let (s2, _) = p
            .earliest_fit(
                t(0),
                d(100),
                &Demand {
                    nodes: 1,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s2, t(0));
        // But 8 nodes now only fit after the head finishes at 300.
        let (s3, _) = p
            .earliest_fit(
                t(0),
                d(10),
                &Demand {
                    nodes: 8,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s3, t(300));
    }

    #[test]
    fn fits_split_validates_specific_placement() {
        let p = profile();
        assert!(p.fits_split(t(0), d(50), &[2, 0], 400));
        assert!(
            !p.fits_split(t(0), d(50), &[2, 0], 600),
            "2×600 > 1000 pool"
        );
        assert!(!p.fits_split(t(0), d(50), &[1, 1], 0), "rack 1 empty now");
        assert!(p.fits_split(t(100), d(50), &[1, 1], 400));
        assert!(
            !p.fits_split(t(100), d(50), &[0, 2], 400),
            "rack-1 pool 500"
        );
    }

    #[test]
    fn global_pool_semantics() {
        let p = from_parts(t(0), DomainKind::Global, vec![2, 2], vec![1000], &[]);
        // 4 nodes × 300 = 1200 > 1000: infeasible.
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 300
                }
            )
            .is_none());
        // 3 nodes × 300 = 900 <= 1000: feasible, spread 2+1.
        let split = p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 3,
                    remote_per_node: 300,
                },
            )
            .unwrap();
        assert_eq!(split, vec![2, 1]);
        assert!(p.fits_split(t(0), d(10), &[2, 1], 300));
        assert!(!p.fits_split(t(0), d(10), &[2, 2], 300));
    }

    #[test]
    fn no_pool_topology_rejects_remote() {
        let p = from_parts(t(0), DomainKind::None, vec![4], vec![], &[]);
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 1,
                    remote_per_node: 1
                }
            )
            .is_none());
        assert!(!p.fits_split(t(0), d(10), &[1], 1));
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0
                }
            )
            .is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds free nodes")]
    fn over_reserve_panics() {
        let mut p = profile();
        p.reserve(t(0), d(10), &[3, 0], 0);
    }

    #[test]
    fn reserve_to_infinity() {
        let mut p = from_parts(t(0), DomainKind::None, vec![4], vec![], &[]);
        p.reserve(t(5), SimDuration::MAX, &[2], 0);
        assert_eq!(p.free_nodes_at(t(4)), vec![4]);
        assert_eq!(p.free_nodes_at(t(1_000_000)), vec![2]);
    }

    /// Differential test: earliest_fit against a brute-force oracle that
    /// tries every breakpoint on randomized profiles.
    #[test]
    fn earliest_fit_matches_bruteforce() {
        use dmhpc_des::rng::Pcg64;
        let mut rng = Pcg64::new(71);
        for case in 0..200 {
            let racks = 1 + rng.index(3);
            let base: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(4) as u32).collect();
            let pool: Vec<MiB> = (0..racks).map(|_| rng.bounded_u64(1000)).collect();
            let releases: Vec<Release> = (0..rng.index(5))
                .map(|_| Release {
                    time: t(rng.bounded_u64(500)),
                    nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                    pool_per_domain: (0..racks).map(|_| rng.bounded_u64(400)).collect(),
                })
                .collect();
            let p = from_parts(
                t(0),
                DomainKind::PerRack,
                base.clone(),
                pool.clone(),
                &releases,
            );
            let demand = Demand {
                nodes: 1 + rng.bounded_u64(6) as u32,
                remote_per_node: rng.bounded_u64(300),
            };
            let dur = d(1 + rng.bounded_u64(300));
            let got = p.earliest_fit(t(0), dur, &demand).map(|(s, _)| s);
            // Oracle: scan a fine time grid (1 s) up to beyond the horizon.
            let mut oracle = None;
            for s in 0..1000u64 {
                if p.usable_split(t(s), dur, &demand).is_some() {
                    oracle = Some(t(s));
                    break;
                }
            }
            assert_eq!(got, oracle, "case {case}: demand {demand:?} dur {dur}");
        }
    }

    // ------------------------------------------- differential: point oracle

    use super::oracle::PointProfile;
    use dmhpc_des::rng::Pcg64;
    use dmhpc_platform::{ClusterSpec, MemoryAssignment, NodeId, NodeSpec};

    const KINDS: [DomainKind; 3] = [DomainKind::None, DomainKind::PerRack, DomainKind::Global];

    fn domains_of(kind: DomainKind, racks: usize) -> usize {
        match kind {
            DomainKind::None => 0,
            DomainKind::PerRack => racks,
            DomainKind::Global => 1,
        }
    }

    /// Random releases on a coarse 25 s grid from t=0, so some land before
    /// an origin drawn from the same range and many coincide.
    fn random_releases(rng: &mut Pcg64, racks: usize, domains: usize) -> Vec<Release> {
        (0..rng.index(10))
            .map(|_| Release {
                time: t(25 * rng.bounded_u64(16)),
                nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                pool_per_domain: (0..domains).map(|_| rng.bounded_u64(500)).collect(),
            })
            .collect()
    }

    fn random_demand(rng: &mut Pcg64) -> Demand {
        Demand {
            nodes: rng.bounded_u64(9) as u32,
            remote_per_node: if rng.chance(0.3) {
                0
            } else {
                rng.bounded_u64(400)
            },
        }
    }

    fn random_dur(rng: &mut Pcg64) -> SimDuration {
        if rng.chance(0.05) {
            SimDuration::MAX
        } else {
            d(rng.bounded_u64(300))
        }
    }

    /// Every query agrees with the oracle: the breakpoints, the state at
    /// each of them, and a batch of random window queries.
    fn assert_agrees(
        flat: &AvailabilityProfile,
        oracle: &PointProfile,
        rng: &mut Pcg64,
        ctx: &str,
    ) {
        assert_eq!(flat.len(), oracle.len(), "{ctx}: breakpoint count");
        assert_eq!(flat.origin(), oracle.origin(), "{ctx}: origin");
        assert_eq!(flat.times, oracle.breakpoints(), "{ctx}: breakpoints");
        for &at in &oracle.breakpoints() {
            assert_eq!(flat.free_nodes_at(at), oracle.free_nodes_at(at), "{ctx}");
            assert_eq!(flat.free_pool_at(at), oracle.free_pool_at(at), "{ctx}");
        }
        for _ in 0..12 {
            let at = t(rng.bounded_u64(500));
            let dur = random_dur(rng);
            let demand = random_demand(rng);
            let split: Vec<u32> = (0..flat.racks).map(|_| rng.bounded_u64(4) as u32).collect();
            let q = format!("{ctx}: at {at} dur {dur} demand {demand:?} split {split:?}");
            assert_eq!(flat.free_nodes_at(at), oracle.free_nodes_at(at), "{q}");
            assert_eq!(flat.free_pool_at(at), oracle.free_pool_at(at), "{q}");
            assert_eq!(
                flat.usable_split(at, dur, &demand),
                oracle.usable_split(at, dur, &demand),
                "{q}"
            );
            assert_eq!(
                flat.earliest_fit(at, dur, &demand),
                oracle.earliest_fit(at, dur, &demand),
                "{q}"
            );
            assert_eq!(
                flat.fits_split(at, dur, &split, demand.remote_per_node),
                oracle.fits_split(at, dur, &split, demand.remote_per_node),
                "{q}"
            );
        }
    }

    /// The flat profile answers exactly as the `Vec<Point>` profile it
    /// replaced, over all three domain kinds, with past and simultaneous
    /// releases, through random sequences of reservations.
    #[test]
    fn flat_profile_matches_point_oracle() {
        for case in 0..400u64 {
            let mut rng = Pcg64::new_stream(0xF1A7, case);
            let kind = KINDS[rng.index(3)];
            let racks = 1 + rng.index(4);
            let domains = domains_of(kind, racks);
            let origin = t(rng.bounded_u64(200));
            let free_nodes: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(5) as u32).collect();
            let free_pool: Vec<MiB> = (0..domains).map(|_| rng.bounded_u64(1500)).collect();
            let releases = random_releases(&mut rng, racks, domains);
            let mut flat = from_parts(
                origin,
                kind,
                free_nodes.clone(),
                free_pool.clone(),
                &releases,
            );
            let mut oracle =
                PointProfile::from_parts(origin, kind, free_nodes, free_pool, &releases);
            assert_agrees(&flat, &oracle, &mut rng, &format!("case {case} built"));
            for step in 0..rng.index(8) {
                let from = t(rng.bounded_u64(400));
                let dur = random_dur(&mut rng);
                let demand = random_demand(&mut rng);
                let fit = oracle.earliest_fit(from, dur, &demand);
                assert_eq!(flat.earliest_fit(from, dur, &demand), fit);
                if let Some((start, split)) = fit {
                    flat.reserve(start, dur, &split, demand.remote_per_node);
                    oracle.reserve(start, dur, &split, demand.remote_per_node);
                }
                let ctx = format!("case {case} after reservation {step}");
                assert_agrees(&flat, &oracle, &mut rng, &ctx);
            }
        }
    }

    /// A cluster of the given topology with random leases parked on it.
    fn busy_cluster(rng: &mut Pcg64, pool: PoolTopology, racks: u32, per_rack: u32) -> Cluster {
        let mut cluster = Cluster::new(ClusterSpec::new(
            racks,
            per_rack,
            NodeSpec::new(64, 1024),
            pool,
        ));
        for lease in 0..rng.index(8) as u64 {
            let node = NodeId(rng.bounded_u64((racks * per_rack) as u64) as u32);
            let remote = match pool {
                PoolTopology::None => 0,
                _ => rng.bounded_u64(1500),
            };
            let a = if remote > 0 {
                MemoryAssignment::hybrid(vec![node], 512, remote)
            } else {
                MemoryAssignment::local(vec![node], 512)
            };
            if cluster.can_allocate(&a).is_ok() {
                cluster.allocate(lease, a).unwrap();
            }
        }
        cluster
    }

    /// `from_sorted` over a sorted prefix plus `add_release` for the rest,
    /// in any order, builds exactly the profile `from_cluster` builds from
    /// all of them — and that profile is the oracle's.
    #[test]
    fn from_sorted_plus_add_release_equals_from_cluster() {
        for case in 0..300u64 {
            let mut rng = Pcg64::new_stream(0x50F7, case);
            let racks = 1 + rng.index(4) as u32;
            let pool = match rng.index(3) {
                0 => PoolTopology::None,
                1 => PoolTopology::PerRack { mib_per_rack: 4096 },
                _ => PoolTopology::Global { mib: 8192 },
            };
            let per_rack = 1 + rng.index(4) as u32;
            let cluster = busy_cluster(&mut rng, pool, racks, per_rack);
            let domains = cluster.pools().len();
            let now = t(rng.bounded_u64(200));
            let mut releases = random_releases(&mut rng, racks as usize, domains);
            let want = AvailabilityProfile::from_cluster(now, &cluster, &releases);

            let oracle = PointProfile::from_cluster(now, &cluster, &releases);
            assert_agrees(&want, &oracle, &mut rng, &format!("case {case}"));

            let late = releases.split_off(rng.index(releases.len() + 1));
            releases.sort_by_key(|r| r.time);
            let mut got = AvailabilityProfile::from_sorted(
                now,
                &cluster,
                releases
                    .iter()
                    .map(|r| (r.time, &r.nodes_per_rack[..], &r.pool_per_domain[..])),
            );
            for r in &late {
                got.add_release(r.time, &r.nodes_per_rack, &r.pool_per_domain);
            }
            assert_eq!(got, want, "case {case}");
        }
    }
}
