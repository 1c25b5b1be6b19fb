//! Statistical distributions for workload synthesis.
//!
//! All continuous distributions implement [`Distribution`] and draw from a
//! [`Pcg64`]. Parameter validation happens at construction and panics with a
//! clear message — distribution parameters come from static configuration,
//! so an invalid parameter is a programming error, not a runtime condition.
//!
//! The set here is exactly what the workload models need: exponential
//! inter-arrivals, normal and lognormal memory footprints, the two-stage
//! hyper-Gamma runtime model of Lublin & Feitelson, and Zipf user
//! popularity.

use super::Pcg64;

/// A continuous distribution over `f64`.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut Pcg64) -> f64;

    /// Draw `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut Pcg64, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`). The canonical
/// inter-arrival model for Poisson job submission.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with rate `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Exponential requires rate > 0 (got {rate})"
        );
        Exponential { rate }
    }

    /// Exponential with the given mean (`mean > 0`).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "Exponential requires mean > 0 (got {mean})"
        );
        Exponential { rate: 1.0 / mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Pcg64) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

/// Normal (Gaussian) via the Box–Muller transform. Draws two uniforms per
/// sample and discards the second variate — slightly wasteful but stateless,
/// which keeps sampling order-independent for reproducibility.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Normal with mean `mean` and standard deviation `std > 0`.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && std.is_finite() && std > 0.0,
            "Normal requires finite mean and std > 0 (got {mean}, {std})"
        );
        Normal { mean, std }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Pcg64) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std * r * theta.cos()
    }
}

/// Lognormal: `exp(N(mu, sigma))`. The standard model for per-node memory
/// footprints — most jobs are small, a heavy right tail is large.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Lognormal with log-space parameters `mu`, `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Lognormal parameterized by the *linear-space* median and the
    /// multiplicative spread `sigma` (log-space std). `median > 0`.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(
            median.is_finite() && median > 0.0,
            "LogNormal requires median > 0 (got {median})"
        );
        Self::new(median.ln(), sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Pcg64) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Gamma with shape `k` and scale `theta` (mean `k*theta`), sampled with
/// Marsaglia & Tsang's squeeze method; shapes below 1 use the standard
/// `U^(1/k)` boost.
#[derive(Debug, Clone, Copy)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Gamma with `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0,
            "Gamma requires shape > 0 and scale > 0 (got {shape}, {scale})"
        );
        Gamma { shape, scale }
    }

    fn sample_standard(shape: f64, rng: &mut Pcg64) -> f64 {
        if shape < 1.0 {
            // Boost: X ~ Gamma(shape+1), return X * U^(1/shape).
            let x = Self::sample_standard(shape + 1.0, rng);
            return x * rng.next_f64_open().powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // One standard normal via Box–Muller.
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.next_f64_open();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut Pcg64) -> f64 {
        Self::sample_standard(self.shape, rng) * self.scale
    }
}

/// Two-stage hyper-Gamma: with probability `p` draw from the first Gamma,
/// otherwise from the second. This is the runtime model of Lublin &
/// Feitelson's workload generator — the mixture captures the short-job mass
/// and long-job tail that a single Gamma cannot.
#[derive(Debug, Clone, Copy)]
pub struct HyperGamma {
    p: f64,
    first: Gamma,
    second: Gamma,
}

impl HyperGamma {
    /// Mixture `p * first + (1-p) * second`; requires `0 <= p <= 1`.
    pub fn new(p: f64, first: Gamma, second: Gamma) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "HyperGamma requires 0 <= p <= 1 (got {p})"
        );
        HyperGamma { p, first, second }
    }
}

impl Distribution for HyperGamma {
    fn sample(&self, rng: &mut Pcg64) -> f64 {
        if rng.chance(self.p) {
            self.first.sample(rng)
        } else {
            self.second.sample(rng)
        }
    }
}

/// Zipf over ranks `1..=n` with exponent `s`: `P(k) ∝ 1/k^s`. Models user
/// submission popularity (a few users submit most jobs). Sampled by binary
/// search over a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Zipf over `1..=n` ranks with exponent `s >= 0`; `n >= 1`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf requires n >= 1");
        assert!(s.is_finite() && s >= 0.0, "Zipf requires s >= 0 (got {s})");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draw a rank in `[0, n)` (0-based).
    pub fn sample_index(&self, rng: &mut Pcg64) -> usize {
        let u = rng.next_f64();
        self.cumulative.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(d: &impl Distribution, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = Pcg64::new(seed);
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        (mean, sq / n as f64 - mean * mean)
    }

    #[test]
    fn exponential_moments() {
        let (mean, var) = moments(&Exponential::new(0.5), 2, 200_000);
        assert!((mean - 2.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
        let (m2, _) = moments(&Exponential::with_mean(7.0), 3, 200_000);
        assert!((m2 - 7.0).abs() < 0.1, "mean {m2}");
    }

    #[test]
    fn normal_moments() {
        let (mean, var) = moments(&Normal::new(-3.0, 2.0), 4, 200_000);
        assert!((mean + 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::with_median(64.0, 1.0);
        let mut rng = Pcg64::new(5);
        let mut v = d.sample_n(&mut rng, 100_001);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[50_000];
        assert!(
            (median / 64.0 - 1.0).abs() < 0.05,
            "median {median} should be near 64"
        );
        assert!(v[0] > 0.0, "lognormal is positive");
    }

    #[test]
    fn gamma_moments_high_shape() {
        // mean = k*theta, var = k*theta^2
        let (mean, var) = moments(&Gamma::new(4.0, 3.0), 6, 200_000);
        assert!((mean - 12.0).abs() < 0.1, "mean {mean}");
        assert!((var - 36.0).abs() < 1.2, "var {var}");
    }

    #[test]
    fn gamma_moments_low_shape() {
        let (mean, var) = moments(&Gamma::new(0.4, 2.0), 7, 400_000);
        assert!((mean - 0.8).abs() < 0.02, "mean {mean}");
        assert!((var - 1.6).abs() < 0.12, "var {var}");
    }

    #[test]
    fn hypergamma_mixture_mean() {
        let d = HyperGamma::new(
            0.7,
            Gamma::new(2.0, 1.0),  // mean 2
            Gamma::new(10.0, 2.0), // mean 20
        );
        let (mean, _) = moments(&d, 11, 200_000);
        let expect = 0.7 * 2.0 + 0.3 * 20.0;
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn zipf_rank_ordering() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Pcg64::new(12);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9], "rank 1 should beat rank 10");
        assert!(counts[9] > counts[99], "rank 10 should beat rank 100");
        // P(rank 1) = (1/1^1.2)/H where H = sum 1/k^1.2
        let h: f64 = (1..=100).map(|k| 1.0 / (k as f64).powf(1.2)).sum();
        let p1 = 1.0 / h;
        let observed = counts[0] as f64 / 100_000.0;
        assert!((observed - p1).abs() < 0.01, "observed {observed} vs {p1}");
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Pcg64::new(13);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        for &c in &counts {
            let dev = (c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05);
        }
    }

    /// Kolmogorov–Smirnov sanity check of the exponential sampler against
    /// the analytic CDF — catches subtle inversion bugs that moment tests
    /// miss.
    #[test]
    fn exponential_ks_test() {
        let d = Exponential::new(1.0);
        let mut rng = Pcg64::new(16);
        let n = 20_000;
        let mut v = d.sample_n(&mut rng, n);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ks: f64 = 0.0;
        for (i, &x) in v.iter().enumerate() {
            let cdf = 1.0 - (-x).exp();
            let emp_hi = (i + 1) as f64 / n as f64;
            let emp_lo = i as f64 / n as f64;
            ks = ks.max((cdf - emp_lo).abs()).max((emp_hi - cdf).abs());
        }
        // 1% critical value ≈ 1.63/sqrt(n) ≈ 0.0115
        assert!(ks < 0.0115, "KS statistic {ks} too large");
    }
}
