//! EASY backfilling's two rows of the availability profile.
//!
//! An EASY pass reads only two rows of the profile it would build: the
//! origin, and the row at the head's reservation start (the *shadow*
//! time). [`EasyRows`] keeps just those two, each [`Layout`] wide, and
//! answers the pass's questions exactly as the full profile does. Why two
//! rows are enough is argued in the `policy` module docs.
//!
//! The rows also keep two node totals, refreshed whenever they change:
//! the origin row's free nodes, and the sum over racks of the smaller of
//! a rack's origin and shadow columns. No split of more nodes than the
//! total that applies can fit, since [`EasyRows::fits`] caps every rack
//! by its column, so the pass screens candidates on them
//! ([`EasyRows::may_fit`]) before it places any.

use super::{add_to_rows, greedy_fill, Demand, DomainKind, Layout};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MiB};

/// The origin row and, when the head's reservation starts later, the
/// shadow row, with every reservation of an EASY pass subtracted.
#[derive(Debug, Clone)]
pub(crate) struct EasyRows {
    layout: Layout,
    now: SimTime,
    /// The head's reservation start when it is later than `now`; the
    /// shadow row is then the second row of `nodes` and `pool`. When the
    /// head's reservation starts now, the origin is the shadow row too.
    shadow: Option<SimTime>,
    /// Free nodes per rack: the origin row, then the shadow row.
    nodes: Vec<u32>,
    /// Free pool MiB per domain: the origin row, then the shadow row.
    pool: Vec<MiB>,
    /// The origin row's free nodes.
    origin_nodes: u64,
    /// The sum over racks of the smaller of the origin and shadow columns;
    /// the origin's total when there is no shadow row.
    both_nodes: u64,
}

impl EasyRows {
    /// Reserve the head — `demand` for `wall` — at its earliest fit, given
    /// the cluster now and `(time, nodes per rack, pool per domain)`
    /// releases in ascending time order. The start and split are those
    /// [`earliest_fit`](super::AvailabilityProfile::earliest_fit) finds
    /// on the profile built from the same releases: a profile built from
    /// releases only never shrinks over time, so the first row the head
    /// fits is its earliest fit. `None` when the head never fits.
    pub(crate) fn reserve_head<'r>(
        now: SimTime,
        cluster: &Cluster,
        releases: impl IntoIterator<Item = (SimTime, &'r [u32], &'r [MiB])>,
        wall: SimDuration,
        demand: &Demand,
    ) -> Option<Self> {
        let layout = Layout::of(cluster);
        if demand.remote_per_node > 0 && layout.kind == DomainKind::None {
            return None;
        }
        let mut nodes = Vec::with_capacity(2 * layout.racks);
        let mut pool = Vec::with_capacity(2 * layout.domains);
        layout.push_free(cluster, &mut nodes, &mut pool);
        let mut rows = EasyRows {
            layout,
            now,
            shadow: None,
            nodes,
            pool,
            origin_nodes: 0,
            both_nodes: 0,
        };
        let mut releases = releases.into_iter().peekable();
        let mut at = now;
        loop {
            // Every release due by `at` — at `now`, the overdue ones too.
            let row = usize::from(rows.shadow.is_some());
            while let Some((_, n, p)) = releases.next_if(|&(t, ..)| t <= at) {
                add_to_rows(&mut rows.nodes[row * layout.racks..], layout.racks, n);
                add_to_rows(&mut rows.pool[row * layout.domains..], layout.domains, p);
            }
            let (n, p) = rows.row(row);
            let min = |col| layout.column(|r| n[r], |d| p[d], col, demand.remote_per_node);
            if let Some(last) = layout.fill_end(demand, min) {
                let split = greedy_fill(layout.racks, demand.nodes, last, min);
                if at.saturating_add(wall) > at {
                    rows.subtract(row, &split, demand.remote_per_node);
                }
                rows.refresh_totals();
                return Some(rows);
            }
            let &(next, ..) = releases.peek()?;
            if rows.shadow.is_none() {
                rows.nodes.extend_from_within(..layout.racks);
                rows.pool.extend_from_within(..layout.domains);
            }
            rows.shadow = Some(next);
            at = next;
        }
    }

    /// False when no split of `nodes` nodes or more can fit for `wall` or
    /// longer: `nodes` exceeds the origin row's total, or, when `wall`
    /// outlives the shadow time, the total of the per-rack minima of the
    /// two rows. O(1), and exact as a screen before [`fits`](Self::fits):
    /// `fits` caps each rack by its column over the rows a job's window
    /// holds, and a longer window holds no fewer rows.
    pub(crate) fn may_fit(&self, wall: SimDuration, nodes: u32) -> bool {
        let total = if self.reaches_shadow(wall) {
            self.both_nodes
        } else {
            self.origin_nodes
        };
        u64::from(nodes) <= total
    }

    /// True iff a job that starts now and runs `wall` fits with `split`,
    /// each node borrowing `remote_per_node`, alongside every reservation
    /// so far: against the origin row, and the shadow row too if the job
    /// outlives the head's reservation start.
    pub(crate) fn fits(&self, wall: SimDuration, split: &[u32], remote_per_node: MiB) -> bool {
        let (racks, domains) = (self.layout.racks, self.layout.domains);
        let both = self.reaches_shadow(wall);
        self.layout.split_fits(
            split,
            remote_per_node,
            |rack| column_min(&self.nodes, racks, rack, both),
            |domain| column_min(&self.pool, domains, domain, both),
        )
    }

    /// Subtract a job that [`fits`](Self::fits) and starts now, from every
    /// row it holds capacity in.
    pub(crate) fn start(&mut self, wall: SimDuration, split: &[u32], remote_per_node: MiB) {
        if self.now.saturating_add(wall) > self.now {
            self.subtract(0, split, remote_per_node);
        }
        if self.reaches_shadow(wall) {
            self.subtract(1, split, remote_per_node);
        }
        self.refresh_totals();
    }

    /// Recompute the two node totals from the rows.
    fn refresh_totals(&mut self) {
        let racks = self.layout.racks;
        let nodes = &self.nodes;
        let total = |both| {
            (0..racks)
                .map(|rack| u64::from(column_min(nodes, racks, rack, both)))
                .sum()
        };
        self.origin_nodes = total(false);
        self.both_nodes = total(self.shadow.is_some());
    }

    /// True when a job that starts now and runs `wall` still holds its
    /// capacity at a shadow time later than now.
    fn reaches_shadow(&self, wall: SimDuration) -> bool {
        self.shadow
            .is_some_and(|shadow| self.now.saturating_add(wall) > shadow)
    }

    /// Row `row`'s free nodes and free pool.
    fn row(&self, row: usize) -> (&[u32], &[MiB]) {
        let (racks, domains) = (self.layout.racks, self.layout.domains);
        (
            &self.nodes[row * racks..(row + 1) * racks],
            &self.pool[row * domains..(row + 1) * domains],
        )
    }

    fn subtract(&mut self, row: usize, split: &[u32], remote_per_node: MiB) {
        let (racks, domains) = (self.layout.racks, self.layout.domains);
        self.layout.subtract(
            &mut self.nodes[row * racks..(row + 1) * racks],
            &mut self.pool[row * domains..(row + 1) * domains],
            split,
            remote_per_node,
        );
    }
}

/// Column `col` of the first `width`-wide row of `flat`, or its minimum
/// over the first two rows when `both`.
fn column_min<T: Copy + Ord>(flat: &[T], width: usize, col: usize, both: bool) -> T {
    if both {
        flat[col].min(flat[width + col])
    } else {
        flat[col]
    }
}
