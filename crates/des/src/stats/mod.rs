//! Online and offline statistics for simulation output.
//!
//! * [`OnlineStats`] — Welford single-pass moments with parallel merge.
//! * [`P2Quantile`] — the Jain–Chlamtac P² streaming quantile estimator,
//!   O(1) memory per tracked quantile.
//! * [`TimeWeighted`] — integrates a step function over simulated time
//!   (utilization, queue depth, pool occupancy).
//! * [`StepSeries`] — records a (time, value) step series for figure output,
//!   with downsampling.
//! * [`CdfCollector`] — exact empirical CDF over collected samples, with
//!   quantiles, figure-ready point series, and a two-sample KS distance.

mod cdf;
mod online;
mod quantile;
mod timeweighted;

pub use cdf::CdfCollector;
pub use online::OnlineStats;
pub use quantile::P2Quantile;
pub use timeweighted::{StepSeries, TimeWeighted};
