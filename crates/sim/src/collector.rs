//! Exact time-weighted series collection.

use dmhpc_des::stats::StepSeries;
use dmhpc_des::time::SimTime;
use dmhpc_platform::ClusterSpec;

/// The system-level step series a run records — each updated exactly at the
/// event that changes it, so time-weighted means are exact, and each
/// resamplable for time-series figures (F7).
#[derive(Debug, Clone)]
pub struct SeriesBundle {
    /// Busy node count.
    pub nodes_busy: StepSeries,
    /// Pool MiB in use (all domains).
    pub pool_used: StepSeries,
    /// Node-local DRAM MiB pinned by running jobs.
    pub dram_used: StepSeries,
    /// Wait-queue depth.
    pub queue_depth: StepSeries,
    /// Machine constants for normalization.
    total_nodes: f64,
    total_pool: f64,
    total_dram: f64,
}

impl SeriesBundle {
    /// Fresh series for a machine, starting at `start`.
    pub fn new(start: SimTime, spec: &ClusterSpec) -> Self {
        SeriesBundle {
            nodes_busy: StepSeries::new(start, 0.0),
            pool_used: StepSeries::new(start, 0.0),
            dram_used: StepSeries::new(start, 0.0),
            queue_depth: StepSeries::new(start, 0.0),
            total_nodes: spec.total_nodes() as f64,
            total_pool: spec.total_pool_mem() as f64,
            total_dram: spec.total_local_mem() as f64,
        }
    }

    /// Rebuild a bundle from recorded breakpoints (the result cache's load
    /// path, which stores each series' fixed-resolution resample).
    /// Replaying the breakpoints through the same [`StepSeries`] update
    /// path reconstructs the series they describe exactly, so resampling
    /// a cache-loaded bundle at the stored resolution gives the stored
    /// samples back. Anything else read from such a bundle (the
    /// time-weighted means, the queue-depth peak, the breakpoints, a
    /// resample at another resolution) describes the resampled series,
    /// not the run, and may differ from the live bundle. Returns `None`
    /// if any series has no points (never produced by a run:
    /// construction records the initial value).
    pub fn from_points(
        spec: &ClusterSpec,
        nodes_busy: &[(SimTime, f64)],
        pool_used: &[(SimTime, f64)],
        dram_used: &[(SimTime, f64)],
        queue_depth: &[(SimTime, f64)],
    ) -> Option<Self> {
        fn replay(points: &[(SimTime, f64)]) -> Option<StepSeries> {
            let (&(start, initial), rest) = points.split_first()?;
            let mut s = StepSeries::new(start, initial);
            for &(at, value) in rest {
                s.update(at, value);
            }
            Some(s)
        }
        Some(SeriesBundle {
            nodes_busy: replay(nodes_busy)?,
            pool_used: replay(pool_used)?,
            dram_used: replay(dram_used)?,
            queue_depth: replay(queue_depth)?,
            total_nodes: spec.total_nodes() as f64,
            total_pool: spec.total_pool_mem() as f64,
            total_dram: spec.total_local_mem() as f64,
        })
    }

    /// Record a job start.
    pub fn on_start(&mut self, at: SimTime, nodes: u32, local_mib: u64, remote_mib: u64) {
        self.nodes_busy.add(at, nodes as f64);
        self.dram_used.add(at, local_mib as f64);
        self.pool_used.add(at, remote_mib as f64);
    }

    /// Record a job finish.
    pub fn on_finish(&mut self, at: SimTime, nodes: u32, local_mib: u64, remote_mib: u64) {
        self.nodes_busy.add(at, -(nodes as f64));
        self.dram_used.add(at, -(local_mib as f64));
        self.pool_used.add(at, -(remote_mib as f64));
    }

    /// Record a queue-depth change (`delta` of ±1 usually).
    pub fn on_queue_change(&mut self, at: SimTime, delta: f64) {
        self.queue_depth.add(at, delta);
    }

    /// Time-weighted node utilization over `[start, end]`.
    pub fn node_util(&self, end: SimTime) -> f64 {
        if self.total_nodes == 0.0 {
            return 0.0;
        }
        self.nodes_busy.stats().mean_until(end) / self.total_nodes
    }

    /// Time-weighted pool utilization (0 without pools).
    pub fn pool_util(&self, end: SimTime) -> f64 {
        if self.total_pool == 0.0 {
            return 0.0;
        }
        self.pool_used.stats().mean_until(end) / self.total_pool
    }

    /// Time-weighted DRAM utilization.
    pub fn dram_util(&self, end: SimTime) -> f64 {
        if self.total_dram == 0.0 {
            return 0.0;
        }
        self.dram_used.stats().mean_until(end) / self.total_dram
    }

    /// Time-weighted mean queue depth.
    pub fn queue_depth_mean(&self, end: SimTime) -> f64 {
        self.queue_depth.stats().mean_until(end)
    }

    /// Peak queue depth.
    pub fn queue_depth_max(&self) -> f64 {
        self.queue_depth.stats().max()
    }

    /// Pool utilization as a resampled fraction series (for F7). Like
    /// every `*_series` helper, x is fractional hours and y a fraction of
    /// capacity, via the shared [`StepSeries::resample_over`].
    pub fn pool_util_series(&self, end: SimTime, points: usize) -> Vec<(f64, f64)> {
        if self.total_pool == 0.0 {
            return Vec::new();
        }
        self.pool_used.resample_over(end, points, self.total_pool)
    }

    /// Busy-node fraction as a resampled series (for F2).
    pub fn node_util_series(&self, end: SimTime, points: usize) -> Vec<(f64, f64)> {
        if self.total_nodes == 0.0 {
            return Vec::new();
        }
        self.nodes_busy.resample_over(end, points, self.total_nodes)
    }

    /// Pinned-DRAM fraction as a resampled series (for F2).
    pub fn dram_util_series(&self, end: SimTime, points: usize) -> Vec<(f64, f64)> {
        if self.total_dram == 0.0 {
            return Vec::new();
        }
        self.dram_used.resample_over(end, points, self.total_dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::{NodeSpec, PoolTopology};

    fn spec() -> ClusterSpec {
        ClusterSpec::new(
            2,
            2,
            NodeSpec::new(4, 1000),
            PoolTopology::PerRack { mib_per_rack: 500 },
        )
    }

    #[test]
    fn utilization_math() {
        let mut s = SeriesBundle::new(SimTime::ZERO, &spec());
        // 2 of 4 nodes busy for the first half of a 100 s window.
        s.on_start(SimTime::ZERO, 2, 800, 200);
        s.on_finish(SimTime::from_secs(50), 2, 800, 200);
        let end = SimTime::from_secs(100);
        assert!((s.node_util(end) - 0.25).abs() < 1e-9);
        // DRAM: 800 of 4000 for half the time = 0.1.
        assert!((s.dram_util(end) - 0.1).abs() < 1e-9);
        // Pool: 200 of 1000 for half = 0.1.
        assert!((s.pool_util(end) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_tracking() {
        let mut s = SeriesBundle::new(SimTime::ZERO, &spec());
        s.on_queue_change(SimTime::ZERO, 1.0);
        s.on_queue_change(SimTime::from_secs(10), 1.0);
        s.on_queue_change(SimTime::from_secs(20), -2.0);
        let end = SimTime::from_secs(40);
        // 1×10 + 2×10 + 0×20 = 30 over 40 s.
        assert!((s.queue_depth_mean(end) - 0.75).abs() < 1e-9);
        assert_eq!(s.queue_depth_max(), 2.0);
    }

    #[test]
    fn pool_series_normalized() {
        let mut s = SeriesBundle::new(SimTime::ZERO, &spec());
        s.on_start(SimTime::ZERO, 1, 0, 500);
        let pts = s.pool_util_series(SimTime::from_secs(3600), 4);
        assert_eq!(pts.len(), 4);
        assert!((pts[0].1 - 0.5).abs() < 1e-9);
        assert!((pts[3].0 - 1.0).abs() < 1e-9, "x in hours");
    }

    #[test]
    fn all_series_helpers_share_the_resample_path() {
        let mut s = SeriesBundle::new(SimTime::ZERO, &spec());
        s.on_start(SimTime::ZERO, 2, 2000, 500);
        s.on_queue_change(SimTime::ZERO, 3.0);
        let end = SimTime::from_secs(3600);
        let nodes = s.node_util_series(end, 3);
        let dram = s.dram_util_series(end, 3);
        let queue = s.queue_depth.resample_over(end, 3, 1.0);
        assert!((nodes[0].1 - 0.5).abs() < 1e-9, "2 of 4 nodes");
        assert!((dram[0].1 - 0.5).abs() < 1e-9, "2000 of 4000 MiB");
        assert_eq!(queue[0].1, 3.0, "queue depth is raw counts");
        // x axes agree: one shared resample grid.
        assert_eq!(nodes[1].0, dram[1].0);
        assert_eq!(nodes[1].0, queue[1].0);
    }

    #[test]
    fn from_points_replays_exactly() {
        let mut s = SeriesBundle::new(SimTime::ZERO, &spec());
        s.on_start(SimTime::ZERO, 2, 800, 200);
        s.on_queue_change(SimTime::from_secs(10), 3.0);
        s.on_finish(SimTime::from_secs(50), 2, 800, 200);
        let rebuilt = SeriesBundle::from_points(
            &spec(),
            s.nodes_busy.points(),
            s.pool_used.points(),
            s.dram_used.points(),
            s.queue_depth.points(),
        )
        .unwrap();
        let end = SimTime::from_secs(100);
        assert_eq!(rebuilt.node_util(end), s.node_util(end));
        assert_eq!(rebuilt.pool_util(end), s.pool_util(end));
        assert_eq!(rebuilt.dram_util(end), s.dram_util(end));
        assert_eq!(rebuilt.queue_depth_mean(end), s.queue_depth_mean(end));
        assert_eq!(rebuilt.queue_depth_max(), s.queue_depth_max());
        assert_eq!(rebuilt.nodes_busy.points(), s.nodes_busy.points());
        assert!(SeriesBundle::from_points(&spec(), &[], &[], &[], &[]).is_none());
    }

    #[test]
    fn no_pool_machine() {
        let spec = ClusterSpec::new(1, 2, NodeSpec::new(4, 1000), PoolTopology::None);
        let s = SeriesBundle::new(SimTime::ZERO, &spec);
        assert_eq!(s.pool_util(SimTime::from_secs(10)), 0.0);
        assert!(s.pool_util_series(SimTime::from_secs(10), 4).is_empty());
    }
}
