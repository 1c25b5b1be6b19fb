//! P² streaming quantile estimation (Jain & Chlamtac, CACM 1985).
//!
//! Tracks one quantile of a stream in O(1) memory using five markers whose
//! heights are adjusted with a piecewise-parabolic prediction. Used for P95
//! wait/slowdown figures where retaining every sample of a multi-million-job
//! sweep would be wasteful. Accuracy is typically within a fraction of a
//! percent for smooth distributions; the exact [`CdfCollector`]
//! (super::CdfCollector) is used when figures need exact tails.

/// Streaming estimator for a single quantile `q`.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    h: [f64; 5],
    /// Integer marker positions (1-based as in the paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments per observation.
    dn: [f64; 5],
    /// Initial observations until the five markers exist.
    startup: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// An estimator for quantile `q` (strictly between 0 and 1).
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P2Quantile requires 0 < q < 1 (got {q})"
        );
        P2Quantile {
            q,
            h: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            dn: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            startup: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// The quantile this estimator tracks.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.startup.len() < 5 {
            self.startup.push(x);
            if self.startup.len() == 5 {
                self.startup
                    // lint: allow(panic) — recorders only admit finite observations; NaN here is a recorder bug
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                for i in 0..5 {
                    self.h[i] = self.startup[i];
                }
            }
            return;
        }

        // Locate the cell and clamp extremes.
        let k = if x < self.h[0] {
            self.h[0] = x;
            0
        } else if x >= self.h[4] {
            self.h[4] = x;
            3
        } else {
            // h[k] <= x < h[k+1]
            (0..4)
                .find(|&i| self.h[i] <= x && x < self.h[i + 1])
                // lint: allow(panic) — the P² marker heights bracket x by the branch condition above
                .expect("x is within [h0, h4)")
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                if self.h[i - 1] < parabolic && parabolic < self.h[i + 1] {
                    self.h[i] = parabolic;
                } else {
                    self.h[i] = self.linear(i, d);
                }
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.h, &self.n);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.h[i] + d * (self.h[j] - self.h[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate. With fewer than five observations, falls
    /// back to the exact quantile of the buffered samples; with none, 0.
    pub fn value(&self) -> f64 {
        if self.count >= 5 {
            return self.h[2];
        }
        if self.startup.is_empty() {
            return 0.0;
        }
        let mut v = self.startup.clone();
        // lint: allow(panic) — recorders only admit finite observations; NaN here is a recorder bug
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let pos = self.q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::dist::{Distribution, Exponential};
    use crate::rng::Pcg64;

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }

    #[test]
    fn tracks_uniform_median() {
        let mut rng = Pcg64::new(21);
        let mut p2 = P2Quantile::new(0.5);
        let samples: Vec<f64> = (0..100_000).map(|_| rng.range_f64(0.0, 100.0)).collect();
        for &x in &samples {
            p2.push(x);
        }
        let exact = exact_quantile(samples, 0.5);
        assert!(
            (p2.value() - exact).abs() < 1.0,
            "p2 {} vs exact {exact}",
            p2.value()
        );
    }

    #[test]
    fn tracks_exponential_p95() {
        let d = Exponential::new(0.1); // mean 10
        let mut rng = Pcg64::new(22);
        let mut p2 = P2Quantile::new(0.95);
        let samples = d.sample_n(&mut rng, 200_000);
        for &x in &samples {
            p2.push(x);
        }
        let exact = exact_quantile(samples, 0.95);
        let rel = (p2.value() - exact).abs() / exact;
        assert!(rel < 0.03, "p2 {} vs exact {exact} (rel {rel})", p2.value());
    }

    #[test]
    fn small_streams_are_exact() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.value(), 0.0);
        p2.push(10.0);
        assert_eq!(p2.value(), 10.0);
        p2.push(20.0);
        assert_eq!(p2.value(), 15.0);
        p2.push(30.0);
        assert_eq!(p2.value(), 20.0);
        assert_eq!(p2.count(), 3);
    }

    #[test]
    fn constant_stream() {
        let mut p2 = P2Quantile::new(0.9);
        for _ in 0..1000 {
            p2.push(7.0);
        }
        assert_eq!(p2.value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "0 < q < 1")]
    fn rejects_q_one() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn monotone_under_sorted_input() {
        // Adversarial: sorted input is P²'s weakest case; estimate must
        // still land in the right neighbourhood.
        let mut p2 = P2Quantile::new(0.5);
        for i in 0..10_000 {
            p2.push(i as f64);
        }
        let v = p2.value();
        assert!((v - 5000.0).abs() < 500.0, "estimate {v} too far from 5000");
    }
}
