//! Exact empirical CDFs for figure output.

/// Collects samples and answers exact quantile/CDF queries. Sorting is done
/// lazily and cached; pushing after a query re-dirties the cache.
#[derive(Debug, Clone, Default)]
pub struct CdfCollector {
    samples: Vec<f64>,
    sorted: bool,
}

impl CdfCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector pre-sized for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        CdfCollector {
            samples: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Record one observation (must be finite).
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "CdfCollector sample must be finite");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                // lint: allow(panic) — recorders only admit finite observations; NaN here is a recorder bug
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) with linear interpolation; 0 when
    /// empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Mean of the samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// At most `n` figure-ready `(value, cumulative fraction)` points,
    /// evenly spaced in rank. Always includes the minimum and maximum.
    pub fn points(&mut self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "points requires n >= 2");
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let len = self.samples.len();
        let count = n.min(len);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let rank = if count == 1 {
                len - 1
            } else {
                ((len - 1) as f64 * i as f64 / (count - 1) as f64).round() as usize
            };
            out.push((self.samples[rank], (rank + 1) as f64 / len as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_exact() {
        let mut c = CdfCollector::new();
        for x in [4.0, 1.0, 3.0, 2.0, 5.0] {
            c.push(x);
        }
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(0.5), 3.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.quantile(0.25), 2.0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn empty_collector() {
        let mut c = CdfCollector::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), 0.0);
        assert_eq!(c.mean(), 0.0);
        assert!(c.points(2).is_empty());
    }

    #[test]
    fn push_after_query_redirties() {
        let mut c = CdfCollector::new();
        c.push(10.0);
        c.push(0.0);
        assert_eq!(c.quantile(1.0), 10.0);
        c.push(20.0);
        assert_eq!(c.quantile(1.0), 20.0);
        assert_eq!(c.quantile(0.0), 0.0);
    }

    #[test]
    fn points_cover_extremes() {
        let mut c = CdfCollector::new();
        for i in 0..100 {
            c.push(i as f64);
        }
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 99.0);
        assert!((pts[10].1 - 1.0).abs() < 1e-12);
        // Monotone in both coordinates.
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn mean_simple() {
        let mut c = CdfCollector::new();
        c.push(1.0);
        c.push(3.0);
        assert_eq!(c.mean(), 2.0);
    }
}
