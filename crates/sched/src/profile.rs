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
//! ## One sweep over the candidate starts
//!
//! Candidate starts ascend, and so do their window ends, so
//! [`earliest_fit`](AvailabilityProfile::earliest_fit) visits them in one
//! sweep: an end pointer that only moves forward adds rows to the window,
//! and one monotone deque per column keeps the window minimum. A row
//! enters and leaves each deque at most once, so a query costs
//! O((P + W)·R) for P candidate rows, W rows in the last window and R
//! columns, where trying each start on its own re-read every window, at
//! O(P·W·R).
//!
//! The columns are one per rack plus, when the demand borrows from a
//! global pool, one for that pool. A rack's column holds the nodes usable
//! in a row: its free nodes, capped for a per-rack pool by
//! `min(pool / r, u32::MAX)` for `r` MiB per node (the global column holds
//! that cap alone). Taking the cap per row is exact: `x ↦ min(x / r,
//! u32::MAX)` is monotone, so it commutes with the minimum over a window,
//! and a column's window minimum is `min(node_min, pool_min / r)`, what
//! that rack (or pool) can give for the whole window. A single window
//! query ([`usable_split`](AvailabilityProfile::usable_split)) reads those
//! minima straight from its rows and the sweep keeps them in its deques;
//! both then do the same greedy fill in ascending rack order. The deques
//! live in storage the profile keeps across queries; it is scratch, not
//! part of the profile's value, so equality ignores it.
//!
//! ## Layout
//!
//! Only a conservative pass builds a profile; an EASY pass keeps two of
//! its rows ([`EasyRows`], see the `policy` module docs), and both apply
//! the per-row rules of one [`Layout`]. A profile is rebuilt on every
//! conservative pass, so it is stored flat:
//! one `times` vector plus two row-major arrays, free nodes (points ×
//! racks) and free pool (points × domains). A build from an already-sorted
//! release stream ([`AvailabilityProfile::from_sorted`]) costs five
//! allocations — the three arrays and the sweep's storage — and queries
//! allocate nothing but the witness split they return, unless
//! reservations have grown the profile past the sweep's storage, which
//! then grows once and is reused.

use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MiB, PoolTopology, RackId};
use std::ops::{AddAssign, Range};

mod easy;
#[cfg(test)]
mod oracle;

pub(crate) use easy::EasyRows;

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

/// The shape of one row of free capacity: free nodes in `racks` columns,
/// free pool MiB in `domains` columns, and how the domains serve the
/// racks. Every per-row rule — what a column can give, the greedy fill,
/// whether a split fits, subtracting a reservation — lives here, so the
/// profile and EASY's two rows ([`EasyRows`]) apply the same ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    kind: DomainKind,
    racks: usize,
    domains: usize,
}

impl Layout {
    /// The layout of `cluster`'s rows.
    fn of(cluster: &Cluster) -> Self {
        let spec = cluster.spec();
        Layout {
            kind: match spec.pool {
                PoolTopology::None => DomainKind::None,
                PoolTopology::PerRack { .. } => DomainKind::PerRack,
                PoolTopology::Global { .. } => DomainKind::Global,
            },
            racks: spec.racks as usize,
            domains: cluster.pools().len(),
        }
    }

    /// Append `cluster`'s free capacity now as a row.
    fn push_free(&self, cluster: &Cluster, nodes: &mut Vec<u32>, pool: &mut Vec<MiB>) {
        nodes.extend((0..self.racks as u32).map(|r| cluster.free_nodes_in_rack(RackId(r))));
        pool.extend(cluster.pools().iter().map(|p| p.free()));
    }

    /// Column `col` of the row whose free nodes start `nodes` and whose
    /// free pool starts `pool`, for nodes borrowing `remote` MiB each: for
    /// a rack, its free nodes, capped for a per-rack pool by the nodes that
    /// pool can serve; past the last rack, the nodes a global pool can
    /// serve. The minimum of a column over a window is what that rack (or
    /// pool) can give for the whole window — see module docs.
    fn column(&self, nodes: &[u32], pool: &[MiB], col: usize, remote: MiB) -> u32 {
        if col == self.racks {
            return nodes_served(pool[0], remote);
        }
        match self.kind {
            DomainKind::PerRack if remote > 0 => nodes[col].min(nodes_served(pool[col], remote)),
            _ => nodes[col],
        }
    }

    /// The last rack a greedy fill of `demand` takes nodes from, given
    /// each column's minimum over a window (`min(racks)` is the global
    /// pool's, read only when the demand borrows from one), or `None` when
    /// that window cannot serve it. Counts only, so an infeasible window
    /// allocates nothing.
    fn fill_end(&self, demand: &Demand, min: impl Fn(usize) -> u32) -> Option<usize> {
        if demand.remote_per_node > 0 {
            match self.kind {
                DomainKind::None => return None,
                DomainKind::Global if min(self.racks) < demand.nodes => return None,
                _ => {}
            }
        }
        let mut total = 0u64;
        (0..self.racks).position(|rack| {
            total += u64::from(min(rack));
            total >= u64::from(demand.nodes)
        })
    }

    /// True iff `split`, each node borrowing `remote_per_node`, fits a
    /// window whose minimum free nodes per rack are `node_min` and whose
    /// minimum free pool per domain is `pool_min`.
    fn split_fits(
        &self,
        split: &[u32],
        remote_per_node: MiB,
        node_min: impl Fn(usize) -> u32,
        pool_min: impl Fn(usize) -> MiB,
    ) -> bool {
        // Racks the split leaves empty fit trivially.
        let used = || {
            split
                .iter()
                .copied()
                .zip(0..self.racks)
                .filter(|&(k, _)| k > 0)
        };
        if used().any(|(k, rack)| k > node_min(rack)) {
            return false;
        }
        if remote_per_node == 0 {
            return true;
        }
        match self.kind {
            DomainKind::None => false,
            DomainKind::PerRack => {
                used().all(|(k, rack)| k as u64 * remote_per_node <= pool_min(rack))
            }
            DomainKind::Global => {
                let total: u64 = split.iter().map(|&k| k as u64).sum();
                total * remote_per_node <= pool_min(0)
            }
        }
    }

    /// Subtract `split` nodes, each borrowing `remote_per_node`, from the
    /// row `nodes` / `pool`.
    ///
    /// # Panics
    /// Panics if the split does not fit the row.
    fn subtract(&self, nodes: &mut [u32], pool: &mut [MiB], split: &[u32], remote_per_node: MiB) {
        for (f, &k) in nodes.iter_mut().zip(split) {
            // lint: allow(panic) — callers subtract only splits that fit the row: a fill of its columns, or one split_fits accepted
            *f = f.checked_sub(k).expect("reservation exceeds free nodes");
        }
        if remote_per_node == 0 {
            return;
        }
        match self.kind {
            // lint: allow(panic) — remote reservations are only produced for pool-backed clusters
            DomainKind::None => panic!("remote reservation without pools"),
            DomainKind::PerRack => {
                for (f, &k) in pool.iter_mut().zip(split) {
                    *f = f
                        .checked_sub(k as u64 * remote_per_node)
                        // lint: allow(panic) — callers subtract only splits that fit the row: a fill of its columns, or one split_fits accepted
                        .expect("reservation exceeds pool");
                }
            }
            DomainKind::Global => {
                let total: u64 = split.iter().map(|&k| k as u64).sum();
                pool[0] = pool[0]
                    .checked_sub(total * remote_per_node)
                    // lint: allow(panic) — callers subtract only splits that fit the row: a fill of its columns, or one split_fits accepted
                    .expect("reservation exceeds pool");
            }
        }
    }
}

/// Piecewise-constant forecast of free capacity. See module docs.
#[derive(Debug, Clone)]
pub struct AvailabilityProfile {
    layout: Layout,
    /// Strictly ascending; `times[0]` is the profile origin ("now"); the
    /// last point extends to infinity.
    times: Vec<SimTime>,
    /// Row `p` (`racks` wide) holds the free nodes per rack from `times[p]`.
    free_nodes: Vec<u32>,
    /// Row `p` (`domains` wide) holds the free pool MiB per domain from
    /// `times[p]`.
    free_pool: Vec<MiB>,
    /// Reusable storage for [`earliest_fit`](Self::earliest_fit)'s sweep.
    sweep: Sweep,
}

/// Equal forecasts are equal profiles: the sweep storage is scratch.
impl PartialEq for AvailabilityProfile {
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout
            && self.times == other.times
            && self.free_nodes == other.free_nodes
            && self.free_pool == other.free_pool
    }
}

impl Eq for AvailabilityProfile {}

/// One monotone deque of `(row, value)` per column, for sliding-window
/// minima. Column `c` owns a region of `slots` as long as the rows a sweep
/// can push, so a deque never wraps: its live entries are
/// `slots[head..tail]`, rows and values both ascending.
#[derive(Debug, Clone, Default)]
struct Sweep {
    slots: Vec<(u32, u32)>,
    /// `(head, tail)` per column, as absolute indices into `slots`.
    ends: Vec<(usize, usize)>,
}

impl Sweep {
    /// Storage for sweeps over `rows` rows of `racks` racks and a global
    /// pool. A backfilling pass always queries the profile it builds, so
    /// the storage is allocated with the profile's arrays rather than at
    /// the first query: placed beside them it measured ~0.3 MiB lower peak
    /// memory on perfbench `closed-easy` (2-core Xeon).
    fn with_capacity(rows: usize, racks: usize) -> Self {
        Sweep {
            slots: Vec::with_capacity(rows * (racks + 1)),
            ends: Vec::with_capacity(racks + 1),
        }
    }

    /// Empty deques for `cols` columns of up to `rows` pushes each.
    fn reset(&mut self, cols: usize, rows: usize) {
        if self.slots.len() < cols * rows {
            self.slots.resize(cols * rows, (0, 0));
        }
        self.ends.clear();
        self.ends.extend((0..cols).map(|c| (c * rows, c * rows)));
    }

    /// Append `row`'s `value` to column `col`, dropping the entries it
    /// outlives: an older row whose value is not smaller never again is
    /// the window minimum.
    fn push(&mut self, col: usize, row: usize, value: u32) {
        let (head, mut tail) = self.ends[col];
        while tail > head && self.slots[tail - 1].1 >= value {
            tail -= 1;
        }
        self.slots[tail] = (row as u32, value);
        self.ends[col].1 = tail + 1;
    }

    /// Drop, from every column, the rows before `row`.
    fn evict_before(&mut self, row: usize) {
        for (head, tail) in &mut self.ends {
            while *head < *tail && (self.slots[*head].0 as usize) < row {
                *head += 1;
            }
        }
    }

    /// Column `col`'s minimum over the window (which is never empty).
    fn min(&self, col: usize) -> u32 {
        self.slots[self.ends[col].0].1
    }
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
        let layout = Layout::of(cluster);
        let releases = releases.into_iter();
        let rows = releases.size_hint().0 + 1;
        let mut free_nodes = Vec::with_capacity(rows * layout.racks);
        let mut free_pool = Vec::with_capacity(rows * layout.domains);
        layout.push_free(cluster, &mut free_nodes, &mut free_pool);
        let mut times = Vec::with_capacity(rows);
        times.push(now);
        let mut profile = AvailabilityProfile {
            layout,
            times,
            free_nodes,
            free_pool,
            sweep: Sweep::with_capacity(rows, layout.racks),
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
        debug_assert_eq!(nodes.len(), self.layout.racks, "release rack arity");
        let first = self.ensure_point(time);
        add_to_rows(
            &mut self.free_nodes[first * self.layout.racks..],
            self.layout.racks,
            nodes,
        );
        add_to_rows(
            &mut self.free_pool[first * self.layout.domains..],
            self.layout.domains,
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

    /// The last breakpoint: from it on, capacity never changes again.
    pub(crate) fn last_breakpoint(&self) -> SimTime {
        self.times[self.times.len() - 1]
    }

    /// True when no rack has a free node at the origin, so nothing that
    /// needs a node can start there.
    pub(crate) fn no_free_node_at_origin(&self) -> bool {
        self.free_nodes[..self.layout.racks]
            .iter()
            .all(|&free| free == 0)
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
        column_min(&self.free_nodes, self.layout.racks, rows, rack)
    }

    /// Minimum free pool in `domain` over the window `rows`.
    fn pool_min(&self, rows: &Range<usize>, domain: usize) -> MiB {
        column_min(&self.free_pool, self.layout.domains, rows, domain)
    }

    /// Column `col` of row `row`, for nodes borrowing `remote` MiB each
    /// ([`Layout::column`]).
    fn column_value(&self, row: usize, col: usize, remote: MiB) -> u32 {
        let Layout { racks, domains, .. } = self.layout;
        self.layout.column(
            &self.free_nodes[row * racks..],
            &self.free_pool[row * domains..],
            col,
            remote,
        )
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
        let rows = self.window(start, start.saturating_add(dur));
        let min = |col| {
            rows.clone()
                .map(|row| self.column_value(row, col, demand.remote_per_node))
                .fold(u32::MAX, u32::min)
        };
        let last = self.layout.fill_end(demand, min)?;
        Some(greedy_fill(self.layout.racks, demand.nodes, last, min))
    }

    /// True iff `demand` fits the last breakpoint, whose capacity lasts
    /// forever. While every row is at most the last one, component by
    /// component, this is exactly `earliest_fit(..).is_some()` for any
    /// query time and duration: the window from the last breakpoint holds
    /// that row alone, and no window's minima exceed it. Rows only grow
    /// over a profile built from releases, and a reservation that ends
    /// leaves the last row alone, so this holds until some reservation is
    /// open-ended.
    pub(crate) fn fits_at_last(&self, demand: &Demand) -> bool {
        let last = self.times.len() - 1;
        self.layout
            .fill_end(demand, |col| {
                self.column_value(last, col, demand.remote_per_node)
            })
            .is_some()
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
        self.layout.split_fits(
            split,
            remote_per_node,
            |rack| self.node_min(&rows, rack),
            |domain| self.pool_min(&rows, domain),
        )
    }

    /// Earliest start `>= from` at which `demand` fits for `dur`, together
    /// with a witness split: the first of `from` and the later breakpoints
    /// whose window [`usable_split`](Self::usable_split) would accept, with
    /// the split it would return. `None` when no window fits, e.g. when
    /// the machine is too small for the demand, or when an open-ended
    /// reservation holds the capacity it needs forever. Exact, in one
    /// sweep — see module docs. Takes `&mut self` only for the sweep's
    /// reusable storage; the forecast itself is unchanged.
    pub fn earliest_fit(
        &mut self,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<(SimTime, Vec<u32>)> {
        if demand.remote_per_node > 0 && self.layout.kind == DomainKind::None {
            return None;
        }
        let from = from.max_of(self.origin());
        let first = self.segment_at(from);
        let mut sweep = std::mem::take(&mut self.sweep);
        let fit = self.sweep_fit(&mut sweep, first, from, dur, demand);
        self.sweep = sweep;
        fit
    }

    /// [`earliest_fit`](Self::earliest_fit)'s sweep over the candidate
    /// rows from `first` (whose start is `from`) to the last breakpoint.
    fn sweep_fit(
        &self,
        sweep: &mut Sweep,
        first: usize,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<(SimTime, Vec<u32>)> {
        let r = demand.remote_per_node;
        let global = self.layout.kind == DomainKind::Global && r > 0;
        let cols = self.layout.racks + usize::from(global);
        let rows = self.times.len();
        sweep.reset(cols, rows - first);
        // Rows before `next` have entered the window; candidate `row`'s
        // window is `row..` up to the first row at or past its end.
        let mut next = first;
        for row in first..rows {
            let start = if row == first { from } else { self.times[row] };
            let end = start.saturating_add(dur);
            while next < rows && (next <= row || self.times[next] < end) {
                for col in 0..cols {
                    sweep.push(col, next, self.column_value(next, col, r));
                }
                next += 1;
            }
            sweep.evict_before(row);
            if let Some(last) = self.layout.fill_end(demand, |col| sweep.min(col)) {
                let split =
                    greedy_fill(self.layout.racks, demand.nodes, last, |col| sweep.min(col));
                return Some((start, split));
            }
        }
        None
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
                duplicate_row(&mut self.free_nodes, self.layout.racks, i);
                duplicate_row(&mut self.free_pool, self.layout.domains, i);
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
        assert_eq!(split.len(), self.layout.racks, "split arity");
        let end = start.saturating_add(dur);
        let si = self.ensure_point(start);
        if end != SimTime::MAX {
            self.ensure_point(end);
        }
        let ei = si + self.times[si..].partition_point(|&t| t < end);
        let layout = self.layout;
        let (racks, domains) = (layout.racks, layout.domains);
        for row in si..ei {
            layout.subtract(
                &mut self.free_nodes[row * racks..(row + 1) * racks],
                &mut self.free_pool[row * domains..(row + 1) * domains],
                split,
                remote_per_node,
            );
        }
    }

    /// Free nodes per rack at time `t` (diagnostics/tests).
    pub fn free_nodes_at(&self, t: SimTime) -> Vec<u32> {
        let row = self.segment_at(t);
        self.free_nodes[row * self.layout.racks..(row + 1) * self.layout.racks].to_vec()
    }

    /// Free pool per domain at time `t` (diagnostics/tests).
    pub fn free_pool_at(&self, t: SimTime) -> Vec<MiB> {
        let row = self.segment_at(t);
        self.free_pool[row * self.layout.domains..(row + 1) * self.layout.domains].to_vec()
    }
}

/// Nodes a pool of `pool` MiB can lend `remote` MiB each (`remote > 0`),
/// saturating at `u32::MAX`.
fn nodes_served(pool: MiB, remote: MiB) -> u32 {
    (pool / remote).min(u32::MAX as u64) as u32
}

/// The greedy fill of `n` nodes over racks `0..=last` (where
/// [`Layout::fill_end`] found it ends), each rack giving up
/// to its `usable` nodes.
fn greedy_fill(racks: usize, n: u32, last: usize, usable: impl Fn(usize) -> u32) -> Vec<u32> {
    let mut split = vec![0u32; racks];
    let mut remaining = n;
    for (rack, k) in split.iter_mut().enumerate().take(last + 1) {
        *k = usable(rack).min(remaining);
        remaining -= *k;
    }
    debug_assert_eq!(remaining, 0);
    split
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
            layout: Layout {
                kind,
                racks: free_nodes.len(),
                domains: free_pool.len(),
            },
            times: vec![now],
            free_nodes,
            free_pool,
            sweep: Sweep::default(),
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
        let mut p = profile();
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
        let mut p = profile();
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
            let mut p = from_parts(
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

    /// The size of a random differential case.
    struct Scale {
        /// Releases per profile.
        releases: Range<usize>,
        /// Releases land on a 25 s grid of this many slots from t=0, so
        /// queries, origins and reservations draw their times from
        /// `span() = 25 × slots` seconds.
        slots: u64,
        /// Demands ask for fewer nodes than this.
        nodes: u64,
        /// Reservations per case: fewer than this.
        steps: usize,
    }

    impl Scale {
        fn span(&self) -> u64 {
            25 * self.slots
        }
    }

    /// Profiles of at most ten releases, where most windows span a few
    /// rows.
    const SMALL: Scale = Scale {
        releases: 0..10,
        slots: 16,
        nodes: 9,
        steps: 8,
    };

    /// Profiles of a hundred and more breakpoints, with windows that span
    /// many rows, so the sweep's deques evict and refill many times.
    const LONG: Scale = Scale {
        releases: 250..500,
        slots: 600,
        nodes: 200,
        steps: 16,
    };

    /// Random releases on a coarse 25 s grid from t=0, so some land before
    /// an origin drawn from the same range and many coincide.
    fn random_releases(
        rng: &mut Pcg64,
        scale: &Scale,
        racks: usize,
        domains: usize,
    ) -> Vec<Release> {
        let count = scale.releases.start + rng.index(scale.releases.len());
        (0..count)
            .map(|_| Release {
                time: t(25 * rng.bounded_u64(scale.slots)),
                nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                pool_per_domain: (0..domains).map(|_| rng.bounded_u64(500)).collect(),
            })
            .collect()
    }

    fn random_demand(rng: &mut Pcg64, scale: &Scale) -> Demand {
        Demand {
            nodes: rng.bounded_u64(scale.nodes) as u32,
            remote_per_node: if rng.chance(0.3) {
                0
            } else {
                rng.bounded_u64(400)
            },
        }
    }

    fn random_dur(rng: &mut Pcg64, scale: &Scale) -> SimDuration {
        if rng.chance(0.05) {
            SimDuration::MAX
        } else {
            d(rng.bounded_u64(scale.span() * 3 / 4))
        }
    }

    /// Every query agrees with the oracle: the breakpoints, the state at
    /// each of them, and a batch of random window queries.
    fn assert_agrees(
        flat: &mut AvailabilityProfile,
        oracle: &PointProfile,
        rng: &mut Pcg64,
        scale: &Scale,
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
            let at = t(rng.bounded_u64(scale.span() * 5 / 4));
            let dur = random_dur(rng, scale);
            let demand = random_demand(rng, scale);
            let split: Vec<u32> = (0..flat.layout.racks)
                .map(|_| rng.bounded_u64(4) as u32)
                .collect();
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

    /// `cases` random profiles at `scale`, each checked against the
    /// oracle after it is built and after every one of a random sequence
    /// of reservations. Returns how many were built with ≥ 100
    /// breakpoints, and how many of those had ≥ 30 rows in a window of
    /// 3/8 of the span from the origin.
    fn check_against_oracle(stream: u64, cases: u64, scale: &Scale) -> (usize, usize) {
        let (mut long, mut wide) = (0, 0);
        for case in 0..cases {
            let mut rng = Pcg64::new_stream(stream, case);
            let kind = KINDS[rng.index(3)];
            let racks = 1 + rng.index(4);
            let domains = domains_of(kind, racks);
            let origin = t(rng.bounded_u64(scale.span() / 2));
            let free_nodes: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(5) as u32).collect();
            let free_pool: Vec<MiB> = (0..domains).map(|_| rng.bounded_u64(1500)).collect();
            let releases = random_releases(&mut rng, scale, racks, domains);
            let mut flat = from_parts(
                origin,
                kind,
                free_nodes.clone(),
                free_pool.clone(),
                &releases,
            );
            let mut oracle =
                PointProfile::from_parts(origin, kind, free_nodes, free_pool, &releases);
            if flat.len() >= 100 {
                long += 1;
                let rows = flat.window(origin, origin + d(scale.span() * 3 / 8));
                wide += usize::from(rows.len() >= 30);
            }
            let ctx = format!("case {case} built");
            assert_agrees(&mut flat, &oracle, &mut rng, scale, &ctx);
            for step in 0..rng.index(scale.steps) {
                let from = t(rng.bounded_u64(scale.span()));
                let dur = random_dur(&mut rng, scale);
                let demand = random_demand(&mut rng, scale);
                let fit = oracle.earliest_fit(from, dur, &demand);
                assert_eq!(flat.earliest_fit(from, dur, &demand), fit);
                if let Some((start, split)) = fit {
                    flat.reserve(start, dur, &split, demand.remote_per_node);
                    oracle.reserve(start, dur, &split, demand.remote_per_node);
                }
                let ctx = format!("case {case} after reservation {step}");
                assert_agrees(&mut flat, &oracle, &mut rng, scale, &ctx);
            }
        }
        (long, wide)
    }

    /// The flat profile answers exactly as the `Vec<Point>` profile it
    /// replaced, over all three domain kinds, with past and simultaneous
    /// releases, through random sequences of reservations — on small
    /// profiles, and on profiles of a hundred and more breakpoints whose
    /// windows span many rows.
    #[test]
    fn flat_profile_matches_point_oracle() {
        check_against_oracle(0xF1A7, 400, &SMALL);
        let (long, wide) = check_against_oracle(0x10C6, 40, &LONG);
        assert!(
            long >= 30,
            "{long} of 40 long profiles have ≥ 100 breakpoints"
        );
        assert!(wide >= 30, "{wide} of them have windows of ≥ 30 rows");
    }

    /// `fits_at_last` is `earliest_fit(..).is_some()` while every
    /// reservation ends; an open-ended one can make them differ, which is
    /// why the conservative pass does not rely on it then.
    #[test]
    fn fits_at_last_matches_earliest_fit_under_finite_reservations() {
        for case in 0..300 {
            let mut rng = Pcg64::new_stream(0xF17A, case);
            let kind = KINDS[rng.index(3)];
            let racks = 1 + rng.index(4);
            let domains = domains_of(kind, racks);
            let nodes: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(5) as u32).collect();
            let pool: Vec<MiB> = (0..domains).map(|_| rng.bounded_u64(1500)).collect();
            let releases = random_releases(&mut rng, &SMALL, racks, domains);
            let mut p = from_parts(t(0), kind, nodes, pool, &releases);
            for _ in 0..rng.index(6) {
                let demand = random_demand(&mut rng, &SMALL);
                let dur = d(1 + rng.bounded_u64(300));
                if let Some((start, split)) = p.earliest_fit(t(0), dur, &demand) {
                    p.reserve(start, dur, &split, demand.remote_per_node);
                }
            }
            for _ in 0..12 {
                let demand = random_demand(&mut rng, &SMALL);
                let dur = random_dur(&mut rng, &SMALL);
                let from = t(rng.bounded_u64(500));
                assert_eq!(
                    p.fits_at_last(&demand),
                    p.earliest_fit(from, dur, &demand).is_some(),
                    "case {case}: {demand:?} for {dur} from {from}"
                );
            }
        }
        // An open-ended reservation from t=100 leaves 2 of 4 nodes for
        // ever: 3 nodes for 50 s fit at t=0, but never at the last point.
        let mut p = from_parts(t(0), DomainKind::None, vec![4], vec![], &[]);
        p.reserve(t(100), SimDuration::MAX, &[2], 0);
        let three = Demand {
            nodes: 3,
            remote_per_node: 0,
        };
        assert!(p.earliest_fit(t(0), d(50), &three).is_some());
        assert!(!p.fits_at_last(&three));
    }

    #[test]
    fn origin_and_last_breakpoint_accessors() {
        let mut p = profile();
        assert!(!p.no_free_node_at_origin(), "rack 0 has 2 free nodes");
        assert_eq!(p.last_breakpoint(), t(200));
        p.reserve(t(0), d(50), &[2, 0], 0);
        assert!(p.no_free_node_at_origin());
        assert_eq!(p.last_breakpoint(), t(200));
        p.reserve(t(300), d(50), &[1, 0], 0);
        assert_eq!(p.last_breakpoint(), t(350));
    }

    /// The sweep storage is scratch: queries leave the profile equal to
    /// what it was, and a profile that has answered queries equals a fresh
    /// one.
    #[test]
    fn queries_leave_the_profile_equal() {
        let fresh = profile();
        let mut used = profile();
        for nodes in 1..9 {
            let demand = Demand {
                nodes,
                remote_per_node: 100,
            };
            used.earliest_fit(t(0), d(150), &demand);
        }
        assert_eq!(used, fresh);
        assert_eq!(used.clone(), fresh);
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
            let mut releases = random_releases(&mut rng, &SMALL, racks as usize, domains);
            let mut want = AvailabilityProfile::from_cluster(now, &cluster, &releases);

            let oracle = PointProfile::from_cluster(now, &cluster, &releases);
            assert_agrees(
                &mut want,
                &oracle,
                &mut rng,
                &SMALL,
                &format!("case {case}"),
            );

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
